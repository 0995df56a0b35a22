//! Ingress fault-injection and overload soak for the serving daemon,
//! driven by the `cirgps-failpoints` registry (see `docs/robustness.md`
//! for the catalog). Separate from `chaos.rs` because the registry is
//! process-global: a separate integration-test binary is a separate
//! process, so these armed points cannot race that file's.
//!
//! Everything lives in ONE test function for the same reason. The
//! scenarios, in order:
//!
//! 1. a torn response (`serve.ingress.write=truncate:N`) leaves the
//!    daemon healthy — the *next* connection gets a full answer;
//! 2. a stalled read path (`serve.ingress.read=delay:MS`) blows the
//!    ingress deadline and is shed with `408`, counted;
//! 3. an injected mid-sweep chunk failure (`serve.sweep.chunk=error`)
//!    aborts one sweep without wedging its worker or the daemon;
//! 4. an overload soak: the one worker is stalled on a popped batch,
//!    then a burst of well-formed, malformed, and oversized clients hits
//!    the daemon — more well-formed predicts than the queue and a batch
//!    can hold, so some are provably shed — and every request gets a
//!    bounded, *named* answer (200/400/413/503/504, never a hang), the
//!    queue-full 503 carries a load-aware `Retry-After`, and the daemon
//!    serves normally once the stall clears.
#![cfg(feature = "failpoints")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use circuit_graph::{CircuitGraph, EdgeType, GraphBuilder, NodeType};
use circuitgps::{AttnKind, CircuitGps, ModelConfig, MpnnKind};
use cirgps_failpoints as fp;
use cirgps_serve::{ServeConfig, Server};
use subgraph_sample::SamplerConfig;

/// How long an injected stall holds the single worker hostage.
const STALL: Duration = Duration::from_millis(1500);
/// Per-request deadline — under `STALL`, over a healthy prediction.
const DEADLINE: Duration = Duration::from_millis(400);
/// Queries the engine queue holds before it answers `503`.
const QUEUE_CAPACITY: usize = 4;
/// Queries one batch takes off the queue.
const MAX_BATCH: usize = 2;
/// Well-formed predicts in the soak burst: more than the queue plus a
/// batch can ever hold, by a fixed margin.
const BURST_PREDICTS: usize = QUEUE_CAPACITY + MAX_BATCH + 4;

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

/// One request on its own connection; returns `(status, retry_after,
/// body)`. Unlike the strict helpers elsewhere, a torn/empty response
/// is reported as status `0` instead of a panic — several scenarios
/// *expect* the wire to break.
fn http_lenient(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Option<u64>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let _ = write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    if reader.read_line(&mut status_line).unwrap_or(0) == 0 {
        return (0, None, String::new());
    }
    let Some(status) = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
    else {
        return (0, None, status_line);
    };
    let mut content_length = 0usize;
    let mut retry_after = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            return (0, retry_after, String::new());
        }
        let line = line.trim_end().to_ascii_lowercase();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap_or(0);
        }
        if let Some(v) = line.strip_prefix("retry-after:") {
            retry_after = v.trim().parse().ok();
        }
    }
    let mut body = vec![0u8; content_length];
    if reader.read_exact(&mut body).is_err() {
        return (0, retry_after, String::new());
    }
    (status, retry_after, String::from_utf8_lossy(&body).into())
}

/// Shuts the server down when dropped, so a panicking test body unwinds
/// out of `thread::scope` instead of waiting on `serve` forever.
struct ShutdownOnDrop<'a>(&'a Server, SocketAddr);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.shutdown(self.1);
    }
}

fn predict_body(pair: (u32, u32)) -> String {
    format!("{{\"task\":\"link\",\"pairs\":[[{},{}]]}}", pair.0, pair.1)
}

fn counter(addr: SocketAddr, name: &str) -> u64 {
    let (status, _, body) = http_lenient(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("cirgps_serve_{name} ")))
        .unwrap_or_else(|| panic!("no {name} row"))
        .parse()
        .unwrap()
}

#[test]
fn ingress_faults_and_overload_are_survived_with_named_answers() {
    fp::clear_all();
    let (graph, pairs) = toy_graph();
    let server = Server::new(
        small_model(),
        graph,
        "CHAOS".into(),
        ServeConfig {
            max_batch: MAX_BATCH,
            workers: 1,
            queue_capacity: QUEUE_CAPACITY,
            cache_capacity: 64,
            sampler: SamplerConfig {
                hops: 1,
                max_nodes: 64,
            },
            drain_timeout: Duration::from_secs(2),
            request_timeout: DEADLINE,
            ingress_timeout: Duration::from_millis(250),
            max_body_bytes: 4096,
            ..ServeConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|s| {
        s.spawn(|| server.serve(listener));
        let _shutdown = ShutdownOnDrop(&server, addr);

        // --- Scenario 1: torn response ------------------------------
        // The next response is truncated after 20 wire bytes: the
        // client sees a broken reply, the daemon must not care.
        fp::set("serve.ingress.write", "truncate:20@1");
        let (status, _, _) = http_lenient(addr, "POST", "/v1/predict", &predict_body(pairs[0]));
        assert_eq!(status, 0, "truncated response must be torn on the wire");
        fp::clear_all();
        let (status, _, body) = http_lenient(addr, "POST", "/v1/predict", &predict_body(pairs[0]));
        assert_eq!(status, 200, "daemon must survive a torn write: {body}");

        // --- Scenario 2: slow-loris read path -----------------------
        // The client sends only the head of a request whose body never
        // arrives, while every server-side read is delayed 400 ms. The
        // first read returns the head and arms the 250 ms ingress
        // deadline; the delayed second read blows it: 408, counted.
        let before_408 = counter(addr, "requests_ingress_timeout_total");
        fp::set("serve.ingress.read", "delay:400");
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            write!(
                stream,
                "POST /v1/predict HTTP/1.1\r\nHost: chaos\r\nContent-Length: 40\r\n\r\n"
            )
            .expect("send head");
            let mut resp = String::new();
            let _ = BufReader::new(stream).read_to_string(&mut resp);
            assert!(resp.contains("408"), "slow ingress must be shed: {resp}");
            assert!(resp.contains("read deadline exceeded"), "{resp}");
        }
        fp::clear_all();
        assert_eq!(
            counter(addr, "requests_ingress_timeout_total"),
            before_408 + 1
        );

        // --- Scenario 3: mid-sweep chunk failure --------------------
        // The sweep's first chunk write is injected to fail; the sweep
        // aborts, the connection tears, and the daemon keeps serving.
        fp::set("serve.sweep.chunk", "error@1");
        let pair_list = pairs
            .iter()
            .map(|&(a, b)| format!("[{a},{b}]"))
            .collect::<Vec<_>>()
            .join(",");
        let sweep = format!("{{\"task\":\"link\",\"pairs\":[{pair_list}],\"chunk\":1}}");
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(
            stream,
            "POST /v1/sweep HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{sweep}",
            sweep.len()
        )
        .expect("send");
        let mut tail = String::new();
        let n = BufReader::new(stream)
            .read_to_string(&mut tail)
            .unwrap_or(0);
        fp::clear_all();
        assert!(
            !tail.contains("\"done\":true"),
            "injected chunk failure must abort the sweep ({n} bytes): {tail}"
        );
        let (status, _, body) = http_lenient(addr, "POST", "/v1/predict", &predict_body(pairs[0]));
        assert_eq!(status, 200, "daemon must survive a sweep abort: {body}");

        // --- Scenario 4: overload soak ------------------------------
        // Stall the one worker on a trigger request's batch, and fire the
        // burst only once that batch has left the queue. The sleeping
        // worker then drains nothing: the queue holds `QUEUE_CAPACITY`
        // burst predicts, at most `MAX_BATCH - 1` more can join the
        // popped batch, and the rest must be shed. Every client must get
        // a bounded, named answer.
        fp::set("serve.queue.pop", &format!("delay:{}", STALL.as_millis()));
        let enqueued = counter(addr, "queries_total");
        let burst: Vec<(String, String)> = (0..BURST_PREDICTS + 4)
            .map(|i| match i {
                // Well-formed predicts: 503 (queue full / admission) or
                // 504 (queued behind the stalled batch).
                i if i < BURST_PREDICTS => (
                    "/v1/predict".to_string(),
                    predict_body(pairs[i % pairs.len()]),
                ),
                // Malformed JSON: always 400, never queued.
                i if i % 2 == 0 => ("/v1/predict".to_string(), "{not json".to_string()),
                // Oversized body: always 413, never read.
                _ => ("/v1/predict".to_string(), "x".repeat(8000)),
            })
            .collect();
        let answers: Vec<(u16, Option<u64>)> = std::thread::scope(|cs| {
            let trigger = cs.spawn(|| {
                let (status, retry_after, _) =
                    http_lenient(addr, "POST", "/v1/predict", &predict_body(pairs[0]));
                (status, retry_after)
            });
            // Nothing else submits, so once the trigger's query has been
            // counted as enqueued, an empty queue means it was popped.
            let deadline = Instant::now() + Duration::from_secs(10);
            while counter(addr, "queries_total") == enqueued || counter(addr, "queue_depth") != 0 {
                assert!(Instant::now() < deadline, "the trigger was never popped");
                std::thread::sleep(Duration::from_millis(1));
            }
            let handles: Vec<_> = burst
                .iter()
                .map(|(path, body)| {
                    cs.spawn(move || {
                        let (status, retry_after, _) = http_lenient(addr, "POST", path, body);
                        (status, retry_after)
                    })
                })
                .collect();
            let mut answers: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            answers.push(trigger.join().unwrap());
            answers
        });
        for (i, &(status, retry_after)) in answers.iter().enumerate() {
            assert!(
                matches!(status, 200 | 400 | 408 | 413 | 503 | 504),
                "burst client {i} got unbounded/unnamed answer {status}"
            );
            if status == 503 {
                let ra = retry_after.unwrap_or(0);
                assert!(
                    (1..=30).contains(&ra),
                    "503 must carry a load-aware Retry-After, got {retry_after:?}"
                );
            }
        }
        // The burst overflows the queue behind a stalled worker: it must
        // have shed at least one request with 503 — in fact every
        // well-formed predict the queue and the popped batch cannot hold.
        assert!(
            answers.iter().any(|&(s, _)| s == 503),
            "no request was shed during the soak: {answers:?}"
        );
        let shed_503 = answers.iter().filter(|&&(s, _)| s == 503).count();
        assert!(
            shed_503 >= BURST_PREDICTS - QUEUE_CAPACITY - (MAX_BATCH - 1),
            "only {shed_503} of {BURST_PREDICTS} burst predicts were shed: {answers:?}"
        );
        // Named rejections for the hostile clients, not hangups.
        assert!(
            answers.iter().any(|&(s, _)| s == 400),
            "malformed bodies must answer 400: {answers:?}"
        );
        assert!(
            answers.iter().any(|&(s, _)| s == 413),
            "oversized bodies must answer 413: {answers:?}"
        );

        // Recovery: wait out the stall, clear the faults, and require
        // normal service plus self-consistent metrics.
        fp::clear_all();
        // A pop delay armed before the clear can still be in flight, so
        // give recovery a bounded grace window instead of one shot.
        let mut recovered = false;
        for _ in 0..20 {
            let (status, _, _) = http_lenient(addr, "POST", "/v1/predict", &predict_body(pairs[1]));
            if status == 200 {
                recovered = true;
                break;
            }
            std::thread::sleep(STALL / 4);
        }
        assert!(recovered, "daemon must recover after the soak");
        let shed =
            counter(addr, "rejected_queue_full_total") + counter(addr, "rejected_admission_total");
        assert!(shed >= 1, "shed counter must reflect the soak");
        let (status, _, body) = http_lenient(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
    });
}
