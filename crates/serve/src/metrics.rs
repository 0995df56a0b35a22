//! Lock-free serving counters, rendered in Prometheus text exposition
//! format by the `/metrics` endpoint.
//!
//! Everything is a monotonic `AtomicU64` (plus two high-watermark
//! gauges), so the hot path pays a handful of relaxed atomic adds per
//! request and the scrape side needs no locks. Batch occupancy — the
//! number the dynamic batcher exists to maximize — is exported as a
//! sum/count pair so dashboards can plot the running average, plus a
//! max watermark.

use std::sync::atomic::{AtomicU64, Ordering};

/// Serving counters shared by the HTTP layer and the scheduler workers.
#[derive(Debug, Default)]
pub struct Metrics {
    /// HTTP requests accepted, by endpoint.
    pub http_healthz: AtomicU64,
    /// `/metrics` scrapes.
    pub http_metrics: AtomicU64,
    /// `/v1/predict` requests that parsed and enqueued successfully.
    pub http_predict: AtomicU64,
    /// Requests rejected with `4xx` (bad method/path/body).
    pub http_bad_request: AtomicU64,
    /// Requests rejected with `503` because the queue was full.
    pub rejected_queue_full: AtomicU64,
    /// Individual queries enqueued (a predict request may carry many).
    pub queries_total: AtomicU64,
    /// Batches executed by scheduler workers.
    pub batches_total: AtomicU64,
    /// Sum of batch sizes (`/ batches_total` = average occupancy).
    pub batch_occupancy_sum: AtomicU64,
    /// Largest batch executed so far (high-watermark gauge).
    pub batch_occupancy_max: AtomicU64,
    /// Sum of per-query latencies, enqueue → result written, in µs.
    pub latency_us_sum: AtomicU64,
    /// Number of latency observations (== queries answered).
    pub latency_us_count: AtomicU64,
    /// Slowest single query so far, in µs (high-watermark gauge).
    pub latency_us_max: AtomicU64,
    /// Batches whose prediction panicked (answered with NaN; should
    /// stay 0 — the HTTP layer validates every id before submit).
    pub worker_panics: AtomicU64,
    /// Requests answered `504` because they missed their deadline
    /// (`request_timeout`) while waiting on the engine.
    pub requests_timeout: AtomicU64,
    /// `/v1/sweep` requests that parsed and started streaming.
    pub http_sweep: AtomicU64,
    /// Pairs answered across all sweep requests.
    pub sweep_pairs_total: AtomicU64,
    /// Unique model forwards executed across all sweep requests (the gap
    /// to `sweep_pairs_total` is the shared-subgraph dedup win).
    pub sweep_forwards_total: AtomicU64,
    /// Requests rejected with `413` because the declared body exceeded
    /// the ingress cap.
    pub requests_too_large: AtomicU64,
    /// Requests answered `408` because they were still arriving when the
    /// per-request ingress deadline expired (slow-loris shedding).
    pub requests_ingress_timeout: AtomicU64,
    /// Keep-alive connections closed for idling past `idle_timeout`.
    pub connections_idle_closed: AtomicU64,
    /// Requests shed with `503` by admission control (predicted queue
    /// sojourn exceeded the request deadline).
    pub rejected_admission: AtomicU64,
    /// Connections shed with `503` at accept time because the open
    /// connection cap was reached.
    pub rejected_max_conns: AtomicU64,
    /// Last `Retry-After` value advertised on a `503`, in seconds
    /// (gauge; load-aware, see `docs/serving.md`).
    pub retry_after_s: AtomicU64,
}

impl Metrics {
    /// Bumps a counter by one (relaxed; counters are independent).
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one executed batch of `occupancy` queries.
    pub fn observe_batch(&self, occupancy: usize) {
        self.batches_total.fetch_add(1, Ordering::Relaxed);
        self.batch_occupancy_sum
            .fetch_add(occupancy as u64, Ordering::Relaxed);
        self.batch_occupancy_max
            .fetch_max(occupancy as u64, Ordering::Relaxed);
    }

    /// Records one answered query's enqueue→result latency.
    pub fn observe_latency_us(&self, us: u64) {
        self.latency_us_sum.fetch_add(us, Ordering::Relaxed);
        self.latency_us_count.fetch_add(1, Ordering::Relaxed);
        self.latency_us_max.fetch_max(us, Ordering::Relaxed);
    }

    /// Renders the counters in Prometheus text format. `queue_depth`,
    /// `draining` and `recent_batch_us` are sampled by the
    /// caller (they live in the queue, the server and the engine, not
    /// here); `backend` names the SIMD backend a deployment runs and is
    /// emitted as an info-style gauge for dashboards.
    pub fn render(
        &self,
        queue_depth: usize,
        draining: bool,
        recent_batch_us: u64,
        backend: &str,
    ) -> String {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let rows: [(&str, &str, u64); 23] = [
            ("requests_healthz_total", "counter", c(&self.http_healthz)),
            ("requests_metrics_total", "counter", c(&self.http_metrics)),
            ("requests_predict_total", "counter", c(&self.http_predict)),
            ("requests_bad_total", "counter", c(&self.http_bad_request)),
            (
                "rejected_queue_full_total",
                "counter",
                c(&self.rejected_queue_full),
            ),
            ("queries_total", "counter", c(&self.queries_total)),
            ("batches_total", "counter", c(&self.batches_total)),
            (
                "batch_occupancy_sum",
                "counter",
                c(&self.batch_occupancy_sum),
            ),
            ("batch_occupancy_max", "gauge", c(&self.batch_occupancy_max)),
            ("latency_us_sum", "counter", c(&self.latency_us_sum)),
            ("latency_us_count", "counter", c(&self.latency_us_count)),
            ("latency_us_max", "gauge", c(&self.latency_us_max)),
            ("worker_panics_total", "counter", c(&self.worker_panics)),
            (
                "requests_timeout_total",
                "counter",
                c(&self.requests_timeout),
            ),
            ("requests_sweep_total", "counter", c(&self.http_sweep)),
            ("sweep_pairs_total", "counter", c(&self.sweep_pairs_total)),
            (
                "sweep_forwards_total",
                "counter",
                c(&self.sweep_forwards_total),
            ),
            (
                "requests_too_large_total",
                "counter",
                c(&self.requests_too_large),
            ),
            (
                "requests_ingress_timeout_total",
                "counter",
                c(&self.requests_ingress_timeout),
            ),
            (
                "connections_idle_closed_total",
                "counter",
                c(&self.connections_idle_closed),
            ),
            (
                "rejected_admission_total",
                "counter",
                c(&self.rejected_admission),
            ),
            (
                "rejected_max_conns_total",
                "counter",
                c(&self.rejected_max_conns),
            ),
            ("retry_after_s", "gauge", c(&self.retry_after_s)),
        ];
        let mut out = String::with_capacity(1024);
        for (name, kind, value) in rows {
            out.push_str(&format!(
                "# TYPE cirgps_serve_{name} {kind}\ncirgps_serve_{name} {value}\n"
            ));
        }
        out.push_str(&format!(
            "# TYPE cirgps_serve_queue_depth gauge\ncirgps_serve_queue_depth {queue_depth}\n"
        ));
        out.push_str(&format!(
            "# TYPE cirgps_serve_draining gauge\ncirgps_serve_draining {}\n",
            draining as u8
        ));
        out.push_str(&format!(
            "# TYPE cirgps_serve_recent_batch_us gauge\ncirgps_serve_recent_batch_us {recent_batch_us}\n"
        ));
        out.push_str(&format!(
            "# TYPE cirgps_serve_backend_info gauge\n\
             cirgps_serve_backend_info{{backend=\"{backend}\"}} 1\n"
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_every_counter_and_tracks_watermarks() {
        let m = Metrics::default();
        m.observe_batch(3);
        m.observe_batch(7);
        m.observe_batch(5);
        m.observe_latency_us(100);
        m.observe_latency_us(250);
        Metrics::inc(&m.http_predict);
        let text = m.render(11, true, 1500, "scalar");
        assert!(text.contains("cirgps_serve_batches_total 3"), "{text}");
        assert!(
            text.contains("cirgps_serve_batch_occupancy_sum 15"),
            "{text}"
        );
        assert!(
            text.contains("cirgps_serve_batch_occupancy_max 7"),
            "{text}"
        );
        assert!(text.contains("cirgps_serve_latency_us_sum 350"), "{text}");
        assert!(text.contains("cirgps_serve_latency_us_max 250"), "{text}");
        assert!(
            text.contains("cirgps_serve_requests_predict_total 1"),
            "{text}"
        );
        assert!(text.contains("cirgps_serve_queue_depth 11"), "{text}");
        assert!(text.contains("cirgps_serve_draining 1"), "{text}");
        assert!(text.contains("cirgps_serve_recent_batch_us 1500"), "{text}");
        assert!(
            text.contains("cirgps_serve_requests_timeout_total 0"),
            "{text}"
        );
        assert!(
            text.contains("cirgps_serve_requests_too_large_total 0"),
            "{text}"
        );
        assert!(
            text.contains("cirgps_serve_rejected_admission_total 0"),
            "{text}"
        );
        assert!(text.contains("cirgps_serve_retry_after_s 0"), "{text}");
        assert!(
            text.contains("cirgps_serve_backend_info{backend=\"scalar\"} 1"),
            "{text}"
        );
        m.sweep_pairs_total.fetch_add(100, Ordering::Relaxed);
        m.sweep_forwards_total.fetch_add(9, Ordering::Relaxed);
        Metrics::inc(&m.http_sweep);
        let text = m.render(0, false, 0, "avx2");
        assert!(
            text.contains("cirgps_serve_requests_sweep_total 1"),
            "{text}"
        );
        assert!(
            text.contains("cirgps_serve_sweep_pairs_total 100"),
            "{text}"
        );
        assert!(
            text.contains("cirgps_serve_sweep_forwards_total 9"),
            "{text}"
        );
        assert!(
            text.contains("cirgps_serve_backend_info{backend=\"avx2\"} 1"),
            "{text}"
        );
    }
}
