//! Small measurement helpers: percentiles, group rates, process memory
//! and the facts recorded with every result.

use std::time::Instant;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Work completed per second as the median over groups of `group`
/// consecutive operations. `ops` holds `(seconds, items)` per completed
/// operation in order; a trailing partial group joins the group before
/// it. Groups follow the workload's own repeating unit (a sweep, an
/// epoch, a block of request cycles), so every group does the same work,
/// and the median of groups shrugs off one disturbed group, which a
/// single total would not.
pub fn group_rate(ops: &[(f64, f64)], group: usize) -> f64 {
    let group = group.max(1);
    let mut groups: Vec<(f64, f64)> = ops
        .chunks(group)
        .map(|g| {
            g.iter()
                .fold((0.0, 0.0), |(s, n), &(ds, dn)| (s + ds, n + dn))
        })
        .collect();
    if groups.len() > 1 && !ops.len().is_multiple_of(group) {
        let (s, n) = groups.pop().expect("more than one group");
        let last = groups.last_mut().expect("more than one group");
        last.0 += s;
        last.1 += n;
    }
    let per_s: Vec<f64> = groups.iter().map(|&(s, n)| n / s).collect();
    median(&per_s)
}

/// The `q`-quantile of `values` as the median over groups of `group`
/// consecutive values of each group's own `q`-quantile (a partial tail
/// joins the group before it). A burst of stalls moves the quantile of
/// the few groups it lands in, not the median of groups.
pub fn group_quantile(values: &[f64], group: usize, q: f64) -> f64 {
    let group = group.max(1);
    let mut groups: Vec<&[f64]> = values.chunks(group).collect();
    if groups.len() > 1 && !values.len().is_multiple_of(group) {
        groups.pop();
        let n = groups.len();
        groups[n - 1] = &values[(n - 1) * group..];
    }
    let per_group: Vec<f64> = groups.iter().map(|g| quantile(g, q)).collect();
    median(&per_group)
}

/// Start value of the output digests (FNV-1a offset basis).
pub const DIGEST0: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds one 64-bit word into an output digest, FNV-1a style.
pub fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out git revision, read from `.git` in the working
/// directory, or `"unknown"` when it is not a git checkout.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// Pins the whole process to the first core it may run on, so that
/// `available_parallelism` — and everything that sizes itself by it —
/// sees one core. Linux only; elsewhere a no-op that returns `false`.
#[cfg(target_os = "linux")]
pub fn pin_to_one_core() -> bool {
    // A cpu_set_t of 1024 bits, as glibc defines it.
    let mut mask = [0u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|&w| w != 0) else {
        return false;
    };
    let bit = mask[word].trailing_zeros();
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the byte size passed; the
    // call only reads it. No other thread exists yet, so pinning the
    // calling thread pins every thread spawned after it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

/// Pins the whole process to one core (no-op off Linux).
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_core() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn group_rate_takes_the_median_group() {
        // Three groups of two operations at 10, 12 and 100 items/s.
        let ops = [
            (0.5, 5.0),
            (0.5, 5.0),
            (0.5, 6.0),
            (0.5, 6.0),
            (0.5, 50.0),
            (0.5, 50.0),
        ];
        assert_eq!(group_rate(&ops, 2), 12.0);
        // A partial tail joins the last group.
        assert_eq!(
            group_rate(&[(1.0, 10.0), (1.0, 30.0), (2.0, 10.0)], 2),
            12.5
        );
    }

    #[test]
    fn group_quantile_is_the_median_of_group_quantiles() {
        // Group maxima 2, 9 and 5 (the tail 5 joins the group [4, 3]).
        let v = [1.0, 2.0, 9.0, 3.0, 4.0, 3.0, 5.0];
        assert_eq!(group_quantile(&v, 2, 1.0), 5.0);
        assert_eq!(group_quantile(&v[..6], 2, 1.0), 4.0);
        assert_eq!(group_quantile(&v, 100, 1.0), 9.0);
    }
}
