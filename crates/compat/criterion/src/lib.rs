//! Offline micro-benchmark harness with criterion's API surface.
//!
//! The build environment has no crates.io access, so this crate
//! re-implements the subset of `criterion` the workspace's benches use:
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`] and the
//! [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Measurement model: each benchmark is warmed up once, then timed in
//! doubling batches until the measured wall time reaches a target budget
//! (`CIRGPS_BENCH_MS` milliseconds per benchmark, default 300). The
//! best (minimum) per-iteration time across batches is reported, which
//! is robust to scheduler noise on shared machines.
//!
//! Results print as `group/name ... ns/iter` lines.

use std::time::{Duration, Instant};

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    budget: Duration,
    best_ns: f64,
    iters: u64,
}

impl Bencher {
    /// Times `f`, running it repeatedly until the time budget is spent.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        std::hint::black_box(f()); // warm-up
        let mut batch: u64 = 1;
        let started = Instant::now();
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let dt = t0.elapsed();
            self.iters += batch;
            let ns = dt.as_nanos() as f64 / batch as f64;
            if ns < self.best_ns {
                self.best_ns = ns;
            }
            if started.elapsed() >= self.budget {
                break;
            }
            if dt < self.budget / 8 {
                batch = batch.saturating_mul(2);
            }
        }
    }
}

/// Benchmark registry and runner.
pub struct Criterion {
    budget: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        let ms = std::env::var("CIRGPS_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300);
        Criterion {
            budget: Duration::from_millis(ms),
        }
    }
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            group: name.into(),
        }
    }

    /// Measures one benchmark, prints its line and returns the best
    /// nanoseconds per iteration and the iterations run.
    fn run(&mut self, label: &str, mut f: impl FnMut(&mut Bencher)) -> (f64, u64) {
        let mut b = Bencher {
            budget: self.budget,
            best_ns: f64::INFINITY,
            iters: 0,
        };
        f(&mut b);
        println!(
            "{label:<56} {:>14.1} ns/iter ({} iters)",
            b.best_ns, b.iters
        );
        (b.best_ns, b.iters)
    }
}

/// Group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    group: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark in the group.
    pub fn bench_function(&mut self, name: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        self.c.run(&format!("{}/{}", self.group, name.into()), f);
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Bundles benchmark functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generates `main` for a benchmark binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something() {
        let mut c = Criterion {
            budget: Duration::from_millis(5),
        };
        let (ns, iters) = c.run("g/count", |b| b.iter(|| (0..1000).sum::<u64>()));
        assert!(ns.is_finite() && ns >= 0.0 && iters > 0);
        let mut group = c.benchmark_group("g");
        group.bench_function("free", |b| b.iter(|| 1 + 1));
        group.finish();
    }
}
