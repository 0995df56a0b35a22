//! Perf-snapshot harness: runs the criterion suites (`layer_forward`,
//! `attention`, `sampling`, `full_pipeline`, `serve_throughput`,
//! `sweep_throughput`, `datagen_enumerate`) in-process and writes every
//! result as a
//! JSON line `{"group", "name", "ns_per_iter", "iters"}` to
//! `BENCH_<date>.json`, so successive PRs accumulate a comparable perf
//! trajectory.
//!
//! With `--compare <baseline.json>` the snapshot is additionally gated
//! against a committed baseline: any tracked group (present in both
//! files) whose geometric-mean `new/old` ratio regresses by more than
//! `--tolerance <pct>` (default 30) fails the run with exit code 1 —
//! this is the CI bench-regression gate.
//!
//! ```bash
//! cargo run --release -p cirgps-bench --bin bench_json            # BENCH_<today>.json
//! cargo run --release -p cirgps-bench --bin bench_json -- out.json
//! cargo run --release -p cirgps-bench --bin bench_json -- out.json \
//!     --compare BENCH_2026-07-29.json --tolerance 30
//! CIRGPS_BENCH_MS=100 cargo run --release -p cirgps-bench --bin bench_json
//! ```

use std::io::Write as _;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use cirgps_bench::compare::{compare, parse_bench_lines, BenchEntry};
use cirgps_bench::perf;
use criterion::Criterion;

/// Civil date from a Unix timestamp (days-from-epoch algorithm, UTC).
fn today_utc() -> (i64, u32, u32) {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

struct Args {
    out_path: String,
    baseline: Option<String>,
    tolerance_pct: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut out_path = None;
    let mut baseline = None;
    let mut tolerance_pct = 30.0;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--compare" => {
                baseline = Some(it.next().ok_or("--compare needs a baseline path")?);
            }
            "--tolerance" => {
                let v = it.next().ok_or("--tolerance needs a percentage")?;
                tolerance_pct = v
                    .parse()
                    .map_err(|_| format!("bad --tolerance value {v:?}"))?;
            }
            other if !other.starts_with("--") && out_path.is_none() => {
                out_path = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        out_path: out_path.unwrap_or_else(|| {
            let (y, m, d) = today_utc();
            format!("BENCH_{y:04}-{m:02}-{d:02}.json")
        }),
        baseline,
        tolerance_pct,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut c = Criterion::default();
    eprintln!("== layer_forward ==");
    perf::layer_forward_suite(&mut c);
    eprintln!("== attention ==");
    perf::attention_suite(&mut c);
    eprintln!("== sampling ==");
    perf::sampling_suite(&mut c);
    eprintln!("== full_pipeline ==");
    perf::full_pipeline_suite(&mut c);
    eprintln!("== serve_throughput ==");
    perf::serve_throughput_suite(&mut c);
    eprintln!("== sweep_throughput ==");
    perf::sweep_throughput_suite(&mut c);
    eprintln!("== datagen_enumerate ==");
    perf::datagen_enumerate_suite(&mut c);
    eprintln!("== simd_kernels ==");
    perf::simd_kernels_suite(&mut c);

    let mut f = std::fs::File::create(&args.out_path).expect("cannot create bench output file");
    for r in c.results() {
        writeln!(f, "{}", r.to_json()).expect("write failed");
    }
    eprintln!("wrote {} results to {}", c.results().len(), args.out_path);

    let Some(baseline_path) = args.baseline else {
        return ExitCode::SUCCESS;
    };
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = parse_bench_lines(&baseline_text);
    let current: Vec<BenchEntry> = c
        .results()
        .iter()
        .map(|r| BenchEntry {
            group: r.group.clone(),
            name: r.name.clone(),
            ns_per_iter: r.ns_per_iter,
        })
        .collect();
    let report = compare(&baseline, &current, args.tolerance_pct);
    eprintln!("\n== comparison vs {baseline_path} ==\n{report}");
    if report.passed() {
        eprintln!("bench-regression gate: PASS");
        ExitCode::SUCCESS
    } else {
        let mut names: Vec<String> = report
            .regressed_groups()
            .iter()
            .map(|g| g.group.clone())
            .collect();
        names.extend(
            report
                .missing_groups
                .iter()
                .map(|g| format!("{g} (missing from fresh run)")),
        );
        eprintln!("bench-regression gate: FAIL ({})", names.join(", "));
        ExitCode::FAILURE
    }
}
