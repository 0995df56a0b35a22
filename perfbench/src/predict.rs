//! `predict_mix`: `InferenceSession::predict_batch` — the serve worker's
//! path — on task-pure 8-query requests over the plain TIMING_CONTROL
//! graph, one request at a time, with the session configured exactly as
//! a serve worker's. One operation is one request. The request sequence
//! repeats no cache key, and the session's cache is cleared between
//! passes over it, so every query extracts and prepares its subgraph.

use std::time::Instant;

use circuitgps::{CircuitGps, InferenceSession, PreparedSample, Query};
use cirgps_serve::ServeConfig;
use subgraph_sample::{SamplerConfig, SubgraphSampler};

use crate::gen::{self, Request, Task};
use crate::probe;
use crate::replay::{self, BatchShape};
use crate::setup::{self, Design};
use crate::stats;
use crate::trace::{Acc, Tracer};
use crate::{Config, Inputs, Outcome};

/// A session configured like a `cirgps serve` scheduler worker.
pub fn worker_session<'g>(model: &'g CircuitGps, design: &'g Design) -> InferenceSession<'g> {
    let sc = ServeConfig::default();
    InferenceSession::shared(model, design.xcn.clone(), &design.graph, sc.sampler)
        .with_batch_size(sc.max_batch)
        .with_cache_capacity(sc.cache_capacity)
}

/// Reference predictions (as bits) for every request, from `session`,
/// which should be fresh.
pub fn reference_bits(session: &mut InferenceSession<'_>, requests: &[Request]) -> Vec<Vec<u32>> {
    requests
        .iter()
        .map(|r| bits(&session.predict_batch(&r.queries())))
        .collect()
}

/// The bit patterns of `values`.
pub fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Flips the lowest bit of the first value (the failure-injection hook).
pub fn flip_first(bits: &mut [u32]) {
    if let Some(b) = bits.first_mut() {
        *b ^= 1;
    }
}

/// A digest of every request's prediction bits.
pub fn digest(reference: &[Vec<u32>]) -> u64 {
    reference
        .iter()
        .flatten()
        .fold(stats::DIGEST0, |h, &b| stats::fold(h, u64::from(b)))
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a set-up error message.
pub fn run(cfg: &Config, inputs: &Inputs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let (design, model) = setup::repeat(&mut out, cfg.setup_repeats(), &mut tr, |tr, round| {
        let design = setup::load_design(inputs, false, tr, round)?;
        let model = setup::load_model(inputs, tr, round)?;
        Ok((design, model))
    })?;
    setup::record_design(&mut out, &design);
    let requests = &inputs.requests;
    if requests.is_empty() {
        return Err("predict_mix needs a request sequence".into());
    }
    let queries: Vec<Vec<Query>> = requests.iter().map(Request::queries).collect();

    // Warm-up pass: the reference every later pass must reproduce.
    let reference = reference_bits(&mut worker_session(&model, &design), requests);
    out.note(format!(
        "predict_mix: {} requests of {} queries per pass, prediction digest {:016x}",
        requests.len(),
        queries[0].len(),
        digest(&reference)
    ));

    let mut session = worker_session(&model, &design);
    if cfg.trace {
        traced(
            cfg,
            &mut out,
            &mut tr,
            &model,
            &design,
            &mut session,
            &queries,
            requests,
            &reference,
        );
        out.tracer = Some(tr);
        return Ok(out);
    }
    let mut flip = cfg.flip_output_bit;
    let mut ops = Vec::new();
    let mut lat_ms = Vec::new();
    let t0 = Instant::now();
    'passes: loop {
        session.clear_cache();
        for (q, want) in queries.iter().zip(&reference) {
            let t = Instant::now();
            let preds = session.predict_batch(q);
            let dt = stats::secs_since(t);
            let mut got = bits(&preds);
            if std::mem::take(&mut flip) {
                flip_first(&mut got);
            }
            out.check(&got == want);
            ops.push((dt, q.len() as f64));
            lat_ms.push(dt * 1e3);
            probe::tick();
            if t0.elapsed() >= cfg.measure {
                break 'passes;
            }
        }
    }
    let (hits, misses) = session.cache_stats();
    // Groups of 68 link/link/cap/ground cycles: about half a second each,
    // all with the same task mix.
    let group = 68 * gen::CYCLE;
    out.set("items_per_s", stats::group_rate(&ops, group));
    out.set("p50_ms", stats::quantile(&lat_ms, 0.50));
    out.set("p99_ms", stats::group_quantile(&lat_ms, group, 0.99));
    out.note(format!(
        "predict_mix: {} requests timed; p99 is the median over {} groups of {group} requests; \
         session cache {hits} hits / {misses} misses",
        lat_ms.len(),
        lat_ms.len() / group
    ));
    Ok(out)
}

/// Per-pass totals of the traced replay.
#[derive(Default)]
struct Pass {
    secs: f64,
    extract: f64,
    pe: f64,
    forward: f64,
    requests: u64,
    nodes: Vec<f64>,
    edges: Vec<f64>,
    batches: Vec<BatchShape>,
    flop: f64,
}

/// One pass rebuilt from the session's public parts —
/// `SubgraphSampler` extraction, `PreparedSample::new` and
/// `predict_*_batch` — each under a span carrying the request id.
fn replica_pass(
    out: &mut Outcome,
    tr: &mut Tracer,
    model: &CircuitGps,
    design: &Design,
    requests: &[Request],
    reference: &[Vec<u32>],
    first_id: u64,
) -> Pass {
    let sampler_cfg = ServeConfig::default().sampler;
    let mut pairs = SubgraphSampler::new(&design.graph, sampler_cfg);
    let mut nodes = SubgraphSampler::new(
        &design.graph,
        SamplerConfig {
            hops: 2,
            ..sampler_cfg
        },
    );
    let mut p = Pass::default();
    for (i, (req, want)) in requests.iter().zip(reference).enumerate() {
        let id = first_id + i as u64;
        let started = Instant::now();
        let (mut extract, mut pe) = (Acc::default(), Acc::default());
        let samples: Vec<PreparedSample> = req
            .keys
            .iter()
            .map(|&(a, b)| {
                let sub = extract.time(|| {
                    if req.task == Task::Ground {
                        nodes.node_subgraph(a)
                    } else {
                        pairs.enclosing_subgraph(a, b)
                    }
                });
                p.nodes.push(sub.num_nodes() as f64);
                p.edges.push(sub.src.len() as f64);
                pe.time(|| PreparedSample::new(sub, model.cfg.pe, &design.xcn, 1.0, 0.0))
            })
            .collect();
        let refs: Vec<&PreparedSample> = samples.iter().collect();
        let reg = req.task != Task::Link;
        let t = Instant::now();
        let preds = if reg {
            model.predict_reg_batch(&refs)
        } else {
            model.predict_link_batch(&refs)
        };
        let dt = t.elapsed();
        tr.record_acc("sample.extract", id, &extract);
        tr.record_acc("pe.prepare", id, &pe);
        tr.record("infer.forward", id, t, dt, 1);
        out.check(&bits(&preds) == want);
        // Shape recording is the benchmark's own work: keep it out of
        // the request's time.
        p.secs += stats::secs_since(started);
        for shape in BatchShape::tiles(&refs, reg, model.cfg.hidden_dim) {
            p.flop += replay::forward_flop(&model.cfg, &shape);
            p.batches.push(shape);
        }
        p.extract += extract.busy().as_secs_f64();
        p.pe += pe.busy().as_secs_f64();
        p.forward += dt.as_secs_f64();
        p.requests += 1;
    }
    p
}

#[allow(clippy::too_many_arguments)]
fn traced(
    cfg: &Config,
    out: &mut Outcome,
    tr: &mut Tracer,
    model: &CircuitGps,
    design: &Design,
    session: &mut InferenceSession<'_>,
    queries: &[Vec<Query>],
    requests: &[Request],
    reference: &[Vec<u32>],
) {
    // Alternate untraced session passes with traced replicas.
    let t0 = Instant::now();
    let (mut plain, mut reps) = (Vec::new(), Vec::<Pass>::new());
    while reps.is_empty() || t0.elapsed() < cfg.measure {
        session.clear_cache();
        let t = Instant::now();
        for (q, want) in queries.iter().zip(reference) {
            out.check(&bits(&session.predict_batch(q)) == want);
        }
        plain.push(stats::secs_since(t) / queries.len() as f64);
        let first = reps.iter().map(|r| r.requests).sum();
        reps.push(replica_pass(
            out, tr, model, design, requests, reference, first,
        ));
    }
    let (hits, misses) = session.cache_stats();
    let per_req = |f: fn(&Pass) -> f64| {
        stats::median(
            &reps
                .iter()
                .map(|r| f(r) / r.requests as f64)
                .collect::<Vec<_>>(),
        )
    };
    let rep = per_req(|r| r.secs);
    let (extract, pe, forward) = (
        per_req(|r| r.extract),
        per_req(|r| r.pe),
        per_req(|r| r.forward),
    );
    let last = reps.last().expect("at least one replica");
    let q = queries[0].len() as f64;
    out.set("sample.extract_calls", q);
    out.set("sample.extract_ms", extract * 1e3);
    out.set("sample.sub_nodes_mean", stats::mean(&last.nodes));
    out.set("sample.sub_edges_mean", stats::mean(&last.edges));
    out.set(
        "sample.sub_nodes_max",
        last.nodes.iter().copied().fold(0.0, f64::max),
    );
    out.set("pe.calls", q);
    out.set("pe.prepare_ms", pe * 1e3);
    out.set("infer.calls", 1.0);
    out.set("infer.samples_per_call", q);
    out.set("infer.forward_ms", forward * 1e3);
    out.set("infer.us_per_sample", forward * 1e6 / q);
    out.set(
        "infer.gflop_per_s",
        last.flop / last.forward.max(1e-12) / 1e9,
    );
    out.set(
        "infer.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let branches = replay::replay_all(&model.cfg, &last.batches, 256);
    replay::record(out, &branches, last.requests as f64);
    let plain = stats::median(&plain);
    out.set("trace.overhead_pct", (rep - plain) / plain * 100.0);
    out.set(
        "trace.unattributed_pct",
        (rep - extract - pe - forward) / rep * 100.0,
    );
    out.note(format!(
        "predict_mix trace: {} untraced passes (median {:.4} ms/request) alternated with {} traced replicas ({:.4} ms/request)",
        reps.len(),
        plain * 1e3,
        reps.len(),
        rep * 1e3
    ));
}
