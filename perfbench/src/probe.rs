//! Host-speed probe.
//!
//! On a shared VM every timing moves with the host: the CPU-bound
//! workloads ran up to 60% faster or slower together, with no CPU time
//! stolen, as the host's other tenants loaded the machine, and the load
//! changes from second to second as well as over minutes. A fixed round
//! of work that uses none of the program's code — a dependent walk over a
//! 128 KB random cycle, then a few 64×64 matrix products — slows with
//! them. A run therefore times that round on the workload's own core
//! about every [`INTERVAL`] between its operations ([`tick`]), and the
//! CPU-bound end-to-end timings are reported scaled to a host whose
//! median round takes [`NOMINAL_SECS`]. Only rounds between operations
//! count: rounds timed back to back before and after the workload
//! followed its speed worse (see `README.md`, *Host speed*).
//!
//! The round stays inside L2 because a walk through DRAM follows the
//! workloads' speed worse (see `README.md`, *Host speed*). No fixed loop
//! tried follows every phase of the host, but in two sets of ten runs
//! the scaling narrowed the spread across runs of every CPU-bound
//! timing, from 0.08–0.30 as measured to 0.04–0.13.
//!
//! The round runs in a child process (`perfbench probe`) that answers one
//! timed round per line on its standard input, while the workload waits,
//! so its buffers never count towards the measured process's peak RSS
//! and it never shares the core with the workload. The child inherits
//! the parent's core pin.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Entries of the walked cycle: 128 KB of `u32`, past L1 and inside L2.
const CYCLE_LEN: usize = 1 << 15;

/// Dependent loads per round (about 5 ms).
const STEPS: usize = 1_000_000;

/// Side of the square matrices multiplied in a round.
const MAT: usize = 64;

/// Matrix products per round (about 5 ms).
const PRODUCTS: usize = 4;

/// Least time between two rounds taken by [`tick`].
pub const INTERVAL: Duration = Duration::from_millis(250);

/// The median round on the host the benchmark was sized on (a shared
/// 2-vCPU x86-64 VM with 4 MB L2 and 105 MB L3, over the runs recorded in
/// `README.md`): the round at which the scaled timings equal the measured
/// ones.
pub const NOMINAL_SECS: f64 = 0.0115;

/// A single cycle through `0..n` in a fixed pseudo-random order
/// (Sattolo's algorithm), so a walk from 0 visits every entry once.
pub fn cycle(n: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    next
}

/// Seconds for one round: `STEPS` dependent loads along `next`, then
/// `PRODUCTS` times `c += a·a` on `MAT`×`MAT` matrices.
fn round_secs(next: &[u32], a: &[f32], c: &mut [f32]) -> f64 {
    let t = Instant::now();
    let mut p = 0u32;
    for _ in 0..STEPS {
        p = next[p as usize];
    }
    std::hint::black_box(p);
    for _ in 0..PRODUCTS {
        for i in 0..MAT {
            for k in 0..MAT {
                let aik = a[i * MAT + k];
                for j in 0..MAT {
                    c[i * MAT + j] = aik.mul_add(a[k * MAT + j], c[i * MAT + j]);
                }
            }
        }
        std::hint::black_box(&mut *c);
    }
    t.elapsed().as_secs_f64()
}

/// The child's side: one timed round, printed in seconds, per input line,
/// until standard input closes.
///
/// # Errors
///
/// Returns an I/O error on standard input or output as a message.
pub fn serve() -> Result<(), String> {
    let next = cycle(CYCLE_LEN);
    let a = vec![1.0f32 / MAT as f32; MAT * MAT];
    let mut c = vec![0.0f32; MAT * MAT];
    let mut out = BufWriter::new(std::io::stdout().lock());
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| e.to_string())?;
        writeln!(out, "{}", round_secs(&next, &a, &mut c)).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The parent's handle on a running probe child.
pub struct Probe {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    rounds: Vec<f64>,
    last: Instant,
}

impl Probe {
    /// Starts `exe probe`.
    ///
    /// # Errors
    ///
    /// Returns a message when the child cannot be started.
    pub fn start(exe: &Path) -> Result<Probe, String> {
        let mut child = Command::new(exe)
            .arg("probe")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the host probe: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Probe {
            child,
            stdin,
            stdout,
            rounds: Vec::new(),
            last: Instant::now(),
        })
    }

    /// Times `n` rounds, one after another.
    ///
    /// # Errors
    ///
    /// Returns a message when the child stops answering.
    pub fn sample(&mut self, n: usize) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("the host probe is stopped")?;
        let mut line = String::new();
        for _ in 0..n {
            stdin
                .write_all(b"\n")
                .and_then(|()| stdin.flush())
                .map_err(|e| format!("host probe: {e}"))?;
            line.clear();
            self.stdout
                .read_line(&mut line)
                .map_err(|e| format!("host probe: {e}"))?;
            self.rounds.push(
                line.trim()
                    .parse()
                    .map_err(|_| format!("host probe answered {line:?}"))?,
            );
        }
        self.last = Instant::now();
        Ok(())
    }

    /// Every round timed so far, in seconds.
    pub fn rounds(&self) -> &[f64] {
        &self.rounds
    }
}

impl Drop for Probe {
    /// Closes the child's input, which ends it, and waits for it.
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

/// The probe [`tick`] samples, while one is installed.
static ACTIVE: Mutex<Option<Probe>> = Mutex::new(None);

/// Makes `probe` the one [`tick`] samples.
pub fn install(probe: Probe) {
    *ACTIVE.lock().expect("probe lock") = Some(probe);
}

/// Removes and returns the installed probe.
pub fn uninstall() -> Option<Probe> {
    ACTIVE.lock().expect("probe lock").take()
}

/// Called by the workloads between operations: times one round when a
/// probe is installed and [`INTERVAL`] has passed since the last one, and
/// returns the time that took, for the caller to leave out of its
/// timings. A probe that stops answering is uninstalled, which fails
/// the run when it asks for the probe back.
pub fn tick() -> Duration {
    let mut active = ACTIVE.lock().expect("probe lock");
    let Some(probe) = active.as_mut() else {
        return Duration::ZERO;
    };
    if probe.last.elapsed() < INTERVAL {
        return Duration::ZERO;
    }
    let t = Instant::now();
    if probe.sample(1).is_err() {
        *active = None;
    }
    t.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_is_one_cycle_through_every_entry() {
        let next = cycle(1000);
        let mut p = 0u32;
        for step in 1..=1000 {
            p = next[p as usize];
            assert_eq!(p == 0, step == 1000, "returned to 0 after {step} steps");
        }
    }
}
