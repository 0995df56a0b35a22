//! End-to-end loopback test of the serving daemon: a real
//! `TcpListener` on port 0, concurrent HTTP clients, and two
//! acceptance-criteria assertions —
//!
//! 1. singleton requests queued behind a busy worker are *coalesced*
//!    by the dynamic batcher (a full first batch), and
//! 2. every served prediction is **bitwise-equal** to a direct
//!    `predict_link_batch`/`predict_reg_batch` call through an
//!    [`InferenceSession`] over the same model and graph.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use circuit_graph::{CircuitGraph, EdgeType, GraphBuilder, NodeType};
use circuitgps::{AttnKind, CircuitGps, ModelConfig, MpnnKind};
use cirgps_serve::{ServeConfig, Server, TaskKind};
use subgraph_sample::SamplerConfig;

/// Two pin clusters bridged by a device chain — enough structure that
/// 1-hop enclosing subgraphs differ per pair.
fn toy_graph() -> (CircuitGraph, Vec<(u32, u32)>) {
    let mut b = GraphBuilder::new();
    let cluster = |b: &mut GraphBuilder, tag: &str| -> Vec<u32> {
        let hub = b.add_node(NodeType::Net, &format!("{tag}hub"));
        let mut out = vec![hub];
        for i in 0..6 {
            let p = b.add_node(NodeType::Pin, &format!("{tag}p{i}"));
            b.set_xc(p, 0, (i % 3) as f32);
            b.add_edge(hub, p, EdgeType::NetPin);
            out.push(p);
        }
        out
    };
    let c1 = cluster(&mut b, "a");
    let c2 = cluster(&mut b, "b");
    let mut prev = c1[0];
    for i in 0..4 {
        let mid = b.add_node(NodeType::Device, &format!("m{i}"));
        b.add_edge(prev, mid, EdgeType::DevicePin);
        prev = mid;
    }
    b.add_edge(prev, c2[0], EdgeType::DevicePin);
    let g = b.build();
    let pairs: Vec<(u32, u32)> = (1..6)
        .flat_map(|i| [(c1[i], c2[i]), (c1[i], c1[i + 1])])
        .collect();
    (g, pairs)
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

/// Minimal HTTP client: one request on its own connection, returns
/// (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
}

/// Shuts the server down when dropped, so a panicking test body unwinds
/// out of `thread::scope` instead of waiting on `serve` forever.
struct ShutdownOnDrop<'a>(&'a Server, SocketAddr);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.shutdown(self.1);
    }
}

/// Writes one request on an existing (keep-alive) stream.
fn send_request(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
}

/// Reads one response off a buffered stream.
fn read_response(reader: &mut impl BufRead) -> (u16, String) {
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

/// Sends one request and reads a `Transfer-Encoding: chunked` response,
/// returning (status, decoded body). Panics if the response is not
/// chunked — the sweep endpoint must stream.
fn http_chunked(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\
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
    let mut chunked = false;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        let line = line.trim_end().to_ascii_lowercase();
        if line.is_empty() {
            break;
        }
        if line == "transfer-encoding: chunked" {
            chunked = true;
        }
        if let Some(v) = line.strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content-length");
        }
    }
    if !chunked {
        // Error responses (400) come back fixed-length.
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
        return (status, String::from_utf8(body).expect("utf-8 body"));
    }
    let mut body = String::new();
    loop {
        let mut size_line = String::new();
        reader.read_line(&mut size_line).expect("chunk size");
        let size = usize::from_str_radix(size_line.trim(), 16)
            .unwrap_or_else(|_| panic!("bad chunk size {size_line:?}"));
        if size == 0 {
            let mut end = String::new();
            reader.read_line(&mut end).expect("final CRLF");
            break;
        }
        let mut chunk = vec![0u8; size];
        reader.read_exact(&mut chunk).expect("chunk data");
        body.push_str(std::str::from_utf8(&chunk).expect("utf-8 chunk"));
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf).expect("chunk CRLF");
        assert_eq!(&crlf, b"\r\n");
    }
    (status, body)
}

/// Pulls `"key":<number>` out of one JSONL line as raw text.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\":");
    let start = line
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key:?} in {line}"))
        + needle.len();
    let rest = &line[start..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated {key:?} in {line}"));
    &rest[..end]
}

/// Extracts the numeric array labelled `key` from a response body and
/// parses each element *directly as `f32`* (never through `f64`), so
/// bitwise comparisons against engine outputs are meaningful.
fn parse_f32_array(body: &str, key: &str) -> Vec<f32> {
    let needle = format!("\"{key}\":[");
    let start = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key:?} in {body}"))
        + needle.len();
    let end = start + body[start..].find(']').expect("closing bracket");
    body[start..end]
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<f32>().expect("f32"))
        .collect()
}

#[test]
fn concurrent_singletons_coalesce_and_match_direct_predictions() {
    let (graph, pairs) = toy_graph();
    let model = small_model();
    let cfg = ServeConfig {
        max_batch: 4,
        workers: 1,
        queue_capacity: 64,
        cache_capacity: 64,
        sampler: SamplerConfig {
            hops: 1,
            max_nodes: 64,
        },
        drain_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let server = Server::new(model, graph, "TOY".into(), cfg);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    // Direct references through the same entry points the daemon uses.
    let mut session = server.session();
    let want_links = session.predict_links(&pairs);
    let want_caps = session.predict_couplings(&pairs[..4]);
    let want_ground = session.predict_ground(&[pairs[0].0, pairs[1].0]);

    // Seven singletons queued before the one worker exists: its first
    // batch must take the first four of them (max-batch flush) and its
    // second the remaining three (dry flush).
    let slots: Vec<_> = pairs[..7]
        .iter()
        .map(|&pair| server.engine().submit(TaskKind::Link, &[pair]).unwrap())
        .collect();

    std::thread::scope(|s| {
        s.spawn(|| server.serve(listener));
        let _shutdown = ShutdownOnDrop(&server, addr);

        // Phase 0: the queued singletons, coalesced and bitwise-equal.
        for (i, slot) in slots.iter().enumerate() {
            let prob = slot.wait()[0];
            assert_eq!(
                prob.to_bits(),
                want_links[i].to_bits(),
                "pair {i}: batched {prob} != direct {}",
                want_links[i]
            );
        }
        let m = server.engine().metrics();
        let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        assert_eq!(load(&m.batches_total), 2, "batches of 4 and 3");
        assert_eq!(load(&m.batch_occupancy_max), 4, "first batch is full");
        assert_eq!(load(&m.batch_occupancy_sum), 7);

        // Phase 1: one singleton request per client thread, all released
        // together, round-trip bitwise over HTTP.
        let barrier = Barrier::new(pairs.len());
        let got: Vec<(usize, f32)> = std::thread::scope(|cs| {
            let handles: Vec<_> = pairs
                .iter()
                .enumerate()
                .map(|(i, &(a, b))| {
                    let barrier = &barrier;
                    cs.spawn(move || {
                        barrier.wait();
                        let (status, body) = http(
                            addr,
                            "POST",
                            "/v1/predict",
                            &format!("{{\"task\":\"link\",\"pairs\":[[{a},{b}]]}}"),
                        );
                        assert_eq!(status, 200, "{body}");
                        (i, parse_f32_array(&body, "probs")[0])
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, prob) in got {
            assert_eq!(
                prob.to_bits(),
                want_links[i].to_bits(),
                "pair {i}: served {prob} != direct {}",
                want_links[i]
            );
        }

        // Phase 2: multi-query cap and ground requests round-trip
        // bitwise too.
        let pair_list = pairs[..4]
            .iter()
            .map(|&(a, b)| format!("[{a},{b}]"))
            .collect::<Vec<_>>()
            .join(",");
        let (status, body) = http(
            addr,
            "POST",
            "/v1/predict",
            &format!("{{\"task\":\"cap\",\"pairs\":[{pair_list}]}}"),
        );
        assert_eq!(status, 200, "{body}");
        let caps = parse_f32_array(&body, "caps_norm");
        assert_eq!(caps.len(), want_caps.len());
        for (got, want) in caps.iter().zip(&want_caps) {
            assert_eq!(got.to_bits(), want.to_bits(), "cap {got} != {want}");
        }

        let (status, body) = http(
            addr,
            "POST",
            "/v1/predict",
            &format!(
                "{{\"task\":\"ground\",\"nodes\":[{},{}]}}",
                pairs[0].0, pairs[1].0
            ),
        );
        assert_eq!(status, 200, "{body}");
        let ground = parse_f32_array(&body, "caps_norm");
        for (got, want) in ground.iter().zip(&want_ground) {
            assert_eq!(got.to_bits(), want.to_bits(), "ground {got} != {want}");
        }

        // Health and metrics endpoints.
        let (status, body) = http(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"design\":\"TOY\""), "{body}");
        let (status, body) = http(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(body.contains("cirgps_serve_batches_total"), "{body}");
        assert!(body.contains("cirgps_serve_batch_occupancy_sum"), "{body}");
        // The backend every bitwise comparison above ran under is pinned
        // and visible: /metrics must report exactly the active dispatch
        // backend of this deployment.
        assert!(
            body.contains(&format!(
                "cirgps_serve_backend_info{{backend=\"{}\"}} 1",
                circuitgps::Backend::active().name()
            )),
            "{body}"
        );
    });
}

#[test]
fn graceful_drain_answers_in_flight_bitwise_and_refuses_new_connections() {
    let (graph, pairs) = toy_graph();
    let model = small_model();
    let cfg = ServeConfig {
        max_batch: 8,
        workers: 1,
        queue_capacity: 64,
        cache_capacity: 64,
        sampler: SamplerConfig {
            hops: 1,
            max_nodes: 64,
        },
        drain_timeout: Duration::from_secs(5),
        request_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let server = Server::new(model, graph, "TOY".into(), cfg);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let mut session = server.session();
    let want = session.predict_links(&pairs[..3]);

    std::thread::scope(|s| {
        s.spawn(|| server.serve(listener));
        let _shutdown = ShutdownOnDrop(&server, addr);

        // A keep-alive connection opened before the drain, to observe
        // /healthz flip to "draining" from inside it.
        let mut ka = TcpStream::connect(addr).expect("keep-alive connect");
        ka.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut ka_reader = BufReader::new(ka.try_clone().expect("clone"));
        send_request(&mut ka, "GET", "/healthz", "");
        let (status, body) = read_response(&mut ka_reader);
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");

        // Three predicts in flight by construction: each connection is
        // accepted (one keep-alive round trip proves it) and has sent
        // its request headers, but not its body, when the drain begins.
        let mut in_flight: Vec<(TcpStream, BufReader<TcpStream>, String)> = pairs[..3]
            .iter()
            .map(|&(a, b)| {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                send_request(&mut stream, "GET", "/healthz", "");
                assert_eq!(read_response(&mut reader).0, 200);
                let body = format!("{{\"task\":\"link\",\"pairs\":[[{a},{b}]]}}");
                write!(
                    stream,
                    "POST /v1/predict HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .expect("send headers");
                (stream, reader, body)
            })
            .collect();
        server.begin_drain(addr);

        // The pre-drain keep-alive connection is still answered — and
        // sees the draining status.
        send_request(&mut ka, "GET", "/healthz", "");
        let (status, body) = read_response(&mut ka_reader);
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"draining\""), "{body}");

        // New connections are refused once the listener closes (the
        // drain poke needs a moment to wake the accept loop, so poll).
        let t0 = std::time::Instant::now();
        while TcpStream::connect(addr).is_ok() {
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "listener still accepting 2 s into the drain"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        // Every request in flight before the drain is answered once its
        // body arrives, bitwise-identical to a direct session call.
        for (i, (stream, reader, body)) in in_flight.iter_mut().enumerate() {
            stream.write_all(body.as_bytes()).expect("send body");
            let (status, body) = read_response(reader);
            assert_eq!(status, 200, "{body}");
            let got = parse_f32_array(&body, "probs")[0];
            assert_eq!(
                got.to_bits(),
                want[i].to_bits(),
                "pair {i}: drained answer {got} != direct {}",
                want[i]
            );
        }
    });
    assert!(server.is_draining());
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must stay closed after the drain completes"
    );
}

#[test]
fn sweep_endpoint_streams_chunked_jsonl_bitwise_equal_to_predict() {
    let (graph, pairs) = toy_graph();
    let model = small_model();
    let server = Server::new(
        model,
        graph,
        "TOY".into(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let mut session = server.session();
    let want_links = session.predict_links(&pairs);
    let want_caps = session.predict_couplings(&pairs);

    std::thread::scope(|s| {
        s.spawn(|| server.serve(listener));

        // Explicit pairs, link task, tiny chunk so the response spans
        // several windows.
        let pair_list = pairs
            .iter()
            .map(|&(a, b)| format!("[{a},{b}]"))
            .collect::<Vec<_>>()
            .join(",");
        let (status, body) = http_chunked(
            addr,
            "/v1/sweep",
            &format!("{{\"task\":\"link\",\"pairs\":[{pair_list}],\"chunk\":3}}"),
        );
        assert_eq!(status, 200, "{body}");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), pairs.len() + 1, "{body}");
        let trailer = lines[lines.len() - 1];
        assert!(trailer.contains("\"done\":true"), "{trailer}");
        assert_eq!(field(trailer, "pairs"), format!("{}", pairs.len()));
        assert_eq!(
            field(trailer, "chunks"),
            format!("{}", pairs.len().div_ceil(3))
        );
        for (i, line) in lines[..pairs.len()].iter().enumerate() {
            let a: u32 = field(line, "a").parse().unwrap();
            let b: u32 = field(line, "b").parse().unwrap();
            assert_eq!((a, b), pairs[i], "order must match input: {line}");
            let prob: f32 = field(line, "prob").parse().unwrap();
            assert_eq!(
                prob.to_bits(),
                want_links[i].to_bits(),
                "pair {i}: swept {prob} != predict {}",
                want_links[i]
            );
        }

        // Cap task shares the same parity contract.
        let (status, body) = http_chunked(
            addr,
            "/v1/sweep",
            &format!("{{\"task\":\"cap\",\"pairs\":[{pair_list}]}}"),
        );
        assert_eq!(status, 200, "{body}");
        for (i, line) in body.lines().take(pairs.len()).enumerate() {
            let cap: f32 = field(line, "cap_norm").parse().unwrap();
            assert_eq!(cap.to_bits(), want_caps[i].to_bits(), "{line}");
        }

        // Planner-enumerated candidates: every emitted pair must again
        // match a direct prediction bitwise.
        let (status, body) = http_chunked(
            addr,
            "/v1/sweep",
            "{\"task\":\"link\",\"enumerate\":{\"per_node_cap\":4}}",
        );
        assert_eq!(status, 200, "{body}");
        let lines: Vec<&str> = body.lines().collect();
        let trailer = lines[lines.len() - 1];
        assert!(trailer.contains("\"done\":true"), "{trailer}");
        let n_enum: usize = field(trailer, "pairs").parse().unwrap();
        assert!(n_enum > 0, "enumeration found no candidates: {trailer}");
        assert_eq!(lines.len(), n_enum + 1);
        let enum_pairs: Vec<(u32, u32)> = lines[..n_enum]
            .iter()
            .map(|l| {
                (
                    field(l, "a").parse().unwrap(),
                    field(l, "b").parse().unwrap(),
                )
            })
            .collect();
        let want_enum = session.predict_links(&enum_pairs);
        for (i, line) in lines[..n_enum].iter().enumerate() {
            let prob: f32 = field(line, "prob").parse().unwrap();
            assert_eq!(prob.to_bits(), want_enum[i].to_bits(), "{line}");
        }

        // Malformed sweeps get a clean fixed-length 400.
        for (body, expect) in [
            ("{\"task\":\"link\"}", "missing \\\"pairs\\\""),
            ("{\"task\":\"cap\",\"pairs\":[],\"chunk\":0}", "chunk"),
            ("{\"task\":\"frob\",\"pairs\":[[0,1]]}", "unknown task"),
            (
                "{\"task\":\"link\",\"pairs\":[[0,1]],\"enumerate\":{}}",
                "not both",
            ),
            ("{\"task\":\"link\",\"pairs\":[[2,2]]}", "identical"),
            ("{\"task\":\"link\",\"pairs\":[]}", "empty pair list"),
        ] {
            let (status, resp) = http_chunked(addr, "/v1/sweep", body);
            assert_eq!(status, 400, "{body} -> {resp}");
            assert!(resp.contains(expect), "{body} -> {resp}");
        }

        // Sweep counters are exported.
        let (status, metrics) = http(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(
            metrics.contains("cirgps_serve_requests_sweep_total 3"),
            "{metrics}"
        );
        let swept: u64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix("cirgps_serve_sweep_pairs_total "))
            .expect("sweep_pairs_total row")
            .parse()
            .unwrap();
        assert_eq!(swept as usize, 2 * pairs.len() + n_enum, "{metrics}");
        assert!(
            metrics.contains("cirgps_serve_sweep_forwards_total"),
            "{metrics}"
        );

        server.shutdown(addr);
    });
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let (graph, pairs) = toy_graph();
    let nodes = graph.num_nodes() as u32;
    let server = Server::new(
        small_model(),
        graph,
        "TOY".into(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|s| {
        s.spawn(|| server.serve(listener));

        for (body, expect) in [
            ("not json", "bad JSON"),
            ("{\"task\":\"frob\"}", "unknown task"),
            ("{\"task\":\"link\"}", "missing \\\"pairs\\\""),
            (
                "{\"task\":\"link\",\"pairs\":[[1,1]]}",
                "identical endpoints",
            ),
            ("{\"task\":\"link\",\"pairs\":[]}", "empty query list"),
            ("{\"task\":\"ground\",\"nodes\":[-3]}", "not a non-negative"),
        ] {
            let (status, resp) = http(addr, "POST", "/v1/predict", body);
            assert_eq!(status, 400, "{body} -> {resp}");
            assert!(resp.contains(expect), "{body} -> {resp}");
        }
        let (status, resp) = http(
            addr,
            "POST",
            "/v1/predict",
            &format!("{{\"task\":\"ground\",\"nodes\":[{nodes}]}}"),
        );
        assert_eq!(status, 400, "{resp}");
        assert!(resp.contains("out of range"), "{resp}");

        let (status, _) = http(addr, "GET", "/nope", "");
        assert_eq!(status, 404);
        let (status, _) = http(addr, "DELETE", "/healthz", "");
        assert_eq!(status, 405);

        // The daemon is still healthy after every rejected request.
        let (status, resp) = http(
            addr,
            "POST",
            "/v1/predict",
            &format!(
                "{{\"task\":\"link\",\"pairs\":[[{},{}]]}}",
                pairs[0].0, pairs[0].1
            ),
        );
        assert_eq!(status, 200, "{resp}");
        assert!(resp.contains("\"count\":1"), "{resp}");

        server.shutdown(addr);
    });
}

/// Fetches one counter row from `/metrics`.
fn metric(addr: SocketAddr, name: &str) -> u64 {
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    counter(&body, name)
}

/// Reads one counter row out of a `/metrics` body.
fn counter(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("cirgps_serve_{name} ")))
        .unwrap_or_else(|| panic!("no {name} row in {body}"))
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {name}"))
}

/// Ingress hardening, observed from outside: an oversized body is
/// refused with 413 before it is read, an idle keep-alive connection is
/// closed (not leaked), and a client vanishing mid-sweep neither wedges
/// nor poisons the daemon. Each rejection ticks its metric.
#[test]
fn hostile_ingress_is_bounded_and_the_daemon_survives() {
    let (graph, pairs) = toy_graph();
    let server = Server::new(
        small_model(),
        graph,
        "TOY".into(),
        ServeConfig {
            workers: 1,
            max_body_bytes: 1024,
            idle_timeout: Duration::from_millis(300),
            ingress_timeout: Duration::from_secs(2),
            ..ServeConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|s| {
        s.spawn(|| server.serve(listener));

        // Oversized body: the Content-Length alone earns a 413 — the
        // server must not wait for (or buffer) the advertised megabytes.
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            write!(
                stream,
                "POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 10000000\r\n\r\n"
            )
            .expect("send");
            let mut reader = BufReader::new(stream);
            let (status, body) = read_response(&mut reader);
            assert_eq!(status, 413, "{body}");
            assert!(body.contains("exceeds the 1024 byte limit"), "{body}");
            // 413 closes the connection: the next read sees EOF.
            let mut probe = String::new();
            assert_eq!(reader.read_line(&mut probe).unwrap(), 0);
        }
        assert_eq!(metric(addr, "requests_too_large_total"), 1);

        // Too many header lines is a 400, not an unbounded Vec.
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let headers: String = (0..100).map(|i| format!("X-{i}: y\r\n")).collect();
            write!(
                stream,
                "GET /healthz HTTP/1.1\r\n{headers}Content-Length: 0\r\n\r\n"
            )
            .expect("send");
            let mut reader = BufReader::new(stream);
            let (status, body) = read_response(&mut reader);
            assert_eq!(status, 400, "{body}");
            assert!(body.contains("more than"), "{body}");
        }

        // Idle keep-alive connection: closed by the server after the
        // idle deadline, and counted.
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut probe = [0u8; 1];
            // The server should close us without a byte in response.
            assert_eq!(stream.read(&mut probe).expect("clean EOF"), 0);
        }
        assert!(metric(addr, "connections_idle_closed_total") >= 1);

        // Client vanishing mid-sweep: read one chunk, then drop the
        // connection. The sweep thread must unwind without wedging.
        {
            let pair_list = pairs
                .iter()
                .map(|&(a, b)| format!("[{a},{b}]"))
                .collect::<Vec<_>>()
                .join(",");
            let body = format!("{{\"task\":\"link\",\"pairs\":[{pair_list}],\"chunk\":1}}");
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            write!(
                stream,
                "POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .expect("send");
            let mut reader = BufReader::new(stream);
            let mut status_line = String::new();
            reader.read_line(&mut status_line).expect("status");
            assert!(status_line.contains("200"), "{status_line}");
            // Drop with the rest of the stream unread.
        }

        // The daemon is still fully healthy after all of the above.
        let (status, resp) = http(
            addr,
            "POST",
            "/v1/predict",
            &format!(
                "{{\"task\":\"link\",\"pairs\":[[{},{}]]}}",
                pairs[0].0, pairs[0].1
            ),
        );
        assert_eq!(status, 200, "{resp}");
        assert!(resp.contains("\"count\":1"), "{resp}");

        server.shutdown(addr);
    });
}

/// The accept-level connection cap sheds with a 503 whose `Retry-After`
/// is the load-aware estimate (≥ 1 s), and frees up once the hogging
/// connection closes.
#[test]
fn connection_cap_sheds_with_load_aware_retry_after() {
    let (graph, _pairs) = toy_graph();
    let server = Server::new(
        small_model(),
        graph,
        "TOY".into(),
        ServeConfig {
            workers: 1,
            max_connections: 1,
            ..ServeConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|s| {
        s.spawn(|| server.serve(listener));
        let _shutdown = ShutdownOnDrop(&server, addr);

        // Connection 1 takes the only slot and keeps it (keep-alive).
        let mut hog = TcpStream::connect(addr).expect("connect");
        hog.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        send_request(&mut hog, "GET", "/healthz", "");
        let mut hog_reader = BufReader::new(hog.try_clone().unwrap());
        let (status, _) = read_response(&mut hog_reader);
        assert_eq!(status, 200);

        // Connection 2 is shed at accept time with a parseable
        // Retry-After.
        let shed = TcpStream::connect(addr).expect("connect");
        shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reader = BufReader::new(shed.try_clone().unwrap());
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("status");
        assert!(status_line.contains("503"), "{status_line}");
        let mut retry_after: Option<u64> = None;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            let line = line.trim_end().to_ascii_lowercase();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.strip_prefix("retry-after:") {
                retry_after = v.trim().parse().ok();
            }
        }
        let retry_after = retry_after.expect("shed 503 must carry Retry-After");
        assert!((1..=30).contains(&retry_after), "{retry_after}");
        drop(reader);
        drop(shed);

        // Freeing the slot lets the next connection through. The server
        // releases a slot just after its connection closes, so a
        // connection racing that release is shed: retry on 503.
        drop(hog_reader);
        drop(hog);
        let mut attempt = 0;
        let metrics = loop {
            let (status, body) = http(addr, "GET", "/metrics", "");
            if status == 200 {
                break body;
            }
            assert_eq!(status, 503, "{body}");
            attempt += 1;
            assert!(attempt < 50, "slot never freed");
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(counter(&metrics, "rejected_max_conns_total") >= 1);
    });
}

/// A keep-alive client that leaves Nagle's algorithm on, as a plain
/// `TcpStream` does, is answered without waiting on delayed ACKs: each
/// response leaves the server in one write on a `TCP_NODELAY` socket. A
/// response split over several writes costs such a client about 40 ms a
/// request, the ACK delay, instead of a few milliseconds.
#[test]
fn keep_alive_client_with_nagle_on_sees_no_ack_stall() {
    let (graph, pairs) = toy_graph();
    let server = Server::new(
        small_model(),
        graph,
        "TOY".into(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|s| {
        s.spawn(|| server.serve(listener));
        let _shutdown = ShutdownOnDrop(&server, addr);

        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut ms = Vec::new();
        for i in 0..20 {
            let (a, b) = pairs[i % pairs.len()];
            let body = format!("{{\"task\":\"link\",\"pairs\":[[{a},{b}]]}}");
            // One write per request, so the client's own Nagle cannot
            // hold back a request tail either.
            let wire = format!(
                "POST /v1/predict HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let t = Instant::now();
            writer.write_all(wire.as_bytes()).expect("send");
            let (status, resp) = read_response(&mut reader);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            assert_eq!(status, 200, "{resp}");
        }
        ms.sort_by(f64::total_cmp);
        let median = ms[ms.len() / 2];
        assert!(
            median < 20.0,
            "median keep-alive request took {median:.1} ms: {ms:?}"
        );
    });
}
