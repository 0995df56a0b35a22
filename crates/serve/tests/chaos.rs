//! Fault-injection tests for the serving daemon, driven by the
//! `cirgps-failpoints` registry (compiled in via the `failpoints`
//! feature; see `docs/robustness.md` for the failpoint catalog).
//!
//! Everything lives in ONE test function because the failpoint registry
//! is process-global: two concurrent `#[test]`s arming points would
//! race. The scenarios, in order:
//!
//! 1. an injected worker panic is contained — the request is still
//!    answered (with NaN), `worker_panics` ticks, and the daemon keeps
//!    serving correct answers afterwards;
//! 2. an injected batch stall turns into a `504 deadline exceeded` for
//!    the waiting client instead of a hang, and once the stall clears
//!    the daemon recovers to normal `200`s.
#![cfg(feature = "failpoints")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

use circuit_graph::{CircuitGraph, EdgeType, GraphBuilder, NodeType};
use circuitgps::{AttnKind, CircuitGps, ModelConfig, MpnnKind};
use cirgps_failpoints as fp;
use cirgps_serve::{ServeConfig, Server};
use subgraph_sample::SamplerConfig;

/// How long an injected stall holds the single worker hostage.
const STALL: Duration = Duration::from_millis(2000);
/// Per-request deadline — well under `STALL`, well over a healthy
/// tiny-model prediction.
const DEADLINE: Duration = Duration::from_millis(500);

fn toy_graph() -> (CircuitGraph, Vec<(u32, u32)>) {
    let mut b = GraphBuilder::new();
    let hub = b.add_node(NodeType::Net, "hub");
    let mut pins = Vec::new();
    for i in 0..8 {
        let p = b.add_node(NodeType::Pin, &format!("p{i}"));
        b.set_xc(p, 0, (i % 3) as f32);
        b.add_edge(hub, p, EdgeType::NetPin);
        pins.push(p);
    }
    let pairs = pins.windows(2).map(|w| (w[0], w[1])).collect();
    (b.build(), pairs)
}

fn small_model() -> CircuitGps {
    CircuitGps::new(ModelConfig {
        hidden_dim: 16,
        pe_dim: 4,
        heads: 2,
        num_layers: 2,
        mpnn: MpnnKind::GatedGcn,
        attn: AttnKind::Transformer,
        ..Default::default()
    })
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content-length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

fn first_prob(body: &str) -> f32 {
    let needle = "\"probs\":[";
    let start = body
        .find(needle)
        .unwrap_or_else(|| panic!("no probs in {body}"))
        + needle.len();
    let end = start + body[start..].find([',', ']']).expect("array end");
    body[start..end].parse::<f32>().expect("f32")
}

fn predict(addr: SocketAddr, pair: (u32, u32)) -> (u16, String) {
    http(
        addr,
        "POST",
        "/v1/predict",
        &format!("{{\"task\":\"link\",\"pairs\":[[{},{}]]}}", pair.0, pair.1),
    )
}

#[test]
fn injected_worker_panic_and_batch_stall_are_survived() {
    fp::clear_all();
    let (graph, pairs) = toy_graph();
    let server = Server::new(
        small_model(),
        graph,
        "CHAOS".into(),
        ServeConfig {
            max_batch: 4,
            workers: 1,
            queue_capacity: 64,
            cache_capacity: 64,
            sampler: SamplerConfig {
                hops: 1,
                max_nodes: 64,
            },
            drain_timeout: Duration::from_secs(2),
            request_timeout: DEADLINE,
            ..ServeConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|s| {
        s.spawn(|| server.serve(listener));

        // --- Scenario 1: worker panic mid-predict --------------------
        // The next (and only the next) batch panics inside the model.
        fp::set("serve.worker.predict", "panic@1");
        let (status, body) = predict(addr, pairs[0]);
        assert_eq!(status, 200, "{body}");
        assert!(
            first_prob(&body).is_nan(),
            "panicked batch must answer NaN, got {body}"
        );
        let panics = server
            .engine()
            .metrics()
            .worker_panics
            .load(Ordering::Relaxed);
        assert_eq!(panics, 1, "worker panic must be counted");

        // The daemon survives: same query now gets a real probability.
        let (status, body) = predict(addr, pairs[0]);
        assert_eq!(status, 200, "{body}");
        let p = first_prob(&body);
        assert!(p.is_finite() && (0.0..=1.0).contains(&p), "{body}");

        // --- Scenario 2: stalled batch -> 504, then recovery ---------
        fp::clear_all();
        fp::set("serve.queue.pop", &format!("delay:{}@1", STALL.as_millis()));
        let (status, body) = predict(addr, pairs[1]);
        assert_eq!(status, 504, "stalled batch must time out: {body}");
        assert!(body.contains("deadline exceeded"), "{body}");
        let timeouts = server
            .engine()
            .metrics()
            .requests_timeout
            .load(Ordering::Relaxed);
        assert_eq!(timeouts, 1, "timeout must be counted");

        // Let the stalled worker wake and flush its abandoned batch,
        // then verify the daemon is healthy again.
        std::thread::sleep(STALL);
        fp::clear_all();
        let (status, body) = predict(addr, pairs[2]);
        assert_eq!(status, 200, "daemon must recover after the stall: {body}");
        assert!(first_prob(&body).is_finite(), "{body}");
        let (status, body) = http(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");

        server.shutdown(addr);
    });
}
