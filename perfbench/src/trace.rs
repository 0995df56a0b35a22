//! In-memory spans around the layers' public calls, written out as JSON
//! lines when the run ends.
//!
//! A span names the layer call, the operation it belongs to (request id,
//! sweep window, training step or set-up round), its start and its busy
//! time. Calls too frequent to record one by one (an extraction per swept
//! pair) are summed into one span per operation whose `calls` field says
//! how many it covers.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `sample.extract`.
    pub name: &'static str,
    /// Operation id the span belongs to.
    pub op: u64,
    /// Start, µs since the tracer was created.
    pub start_us: f64,
    /// Busy time in µs (summed over `calls` for an aggregate span).
    pub dur_us: f64,
    /// Calls covered by this span.
    pub calls: u64,
}

/// Span recorder for one traced run.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, op, start, start.elapsed(), 1);
        out
    }

    /// Records a span measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        start: Instant,
        dur: Duration,
        calls: u64,
    ) {
        self.spans.push(Span {
            name,
            op,
            start_us: start.saturating_duration_since(self.t0).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
            calls,
        });
    }

    /// Records an accumulated aggregate as one span, if it saw any call.
    pub fn record_acc(&mut self, name: &'static str, op: u64, acc: &Acc) {
        if let Some(start) = acc.first {
            self.record(name, op, start, acc.busy, acc.calls);
        }
    }

    /// Total busy ms of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum::<f64>()
            / 1e3
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"op\":{},\"start_us\":{:.3},\"dur_us\":{:.3},\"calls\":{}}}",
                s.name, s.op, s.start_us, s.dur_us, s.calls
            )?;
        }
        w.flush()
    }
}

/// Busy-time accumulator for a hot call inside one operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    first: Option<Instant>,
    busy: Duration,
    calls: u64,
}

impl Acc {
    /// Runs `f`, adding its time to the accumulator.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.busy += start.elapsed();
        self.first.get_or_insert(start);
        self.calls += 1;
        out
    }

    /// Accumulated busy time.
    pub fn busy(&self) -> Duration {
        self.busy
    }
}
