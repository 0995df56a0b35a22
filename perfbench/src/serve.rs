//! `serve_mix`: `predict_mix`'s request sequence sent as
//! `POST /v1/predict` over one keep-alive loopback connection, closed
//! loop, to an in-process `Server` with the `cirgps serve` default
//! config. One operation is one request, timed at the client from the
//! first request byte written to the last response byte read.
//!
//! Every pass over the sequence runs against a freshly started server,
//! so no worker's sample cache answers a repeated key.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cirgps_serve::{http, ServeConfig, Server};

use crate::gen;
use crate::predict::{bits, flip_first, reference_bits};
use crate::setup;
use crate::stats;
use crate::trace::Tracer;
use crate::{Config, Inputs, Outcome};

/// A server answering on a loopback port from its own thread.
pub struct Running {
    server: Arc<Server>,
    devices: usize,
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl Running {
    /// The set-up: parse, build the graph, load the checkpoint, start the
    /// server and wait until `/healthz` answers.
    ///
    /// # Errors
    ///
    /// Returns a message when the inputs do not load or the server does
    /// not come up.
    pub fn start(inputs: &Inputs, tr: &mut Tracer, round: u64) -> Result<Running, String> {
        let design = setup::load_design(inputs, false, tr, round)?;
        let model = setup::load_model(inputs, tr, round)?;
        let devices = design.netlist.num_devices();
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding loopback: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let server = Arc::new(Server::new(
            model,
            design.graph,
            inputs.top.clone(),
            ServeConfig::default(),
        ));
        let s = Arc::clone(&server);
        let thread = std::thread::spawn(move || s.serve(listener));
        let running = Running {
            server,
            devices,
            addr,
            thread: Some(thread),
        };
        let mut probe = Client::connect(addr)?;
        let (status, _) = probe.request("GET", "/healthz", "")?;
        if status != 200 {
            return Err(format!("/healthz answered {status}"));
        }
        Ok(running)
    }

    /// The running server.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Its address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shuts the server down and waits for its thread.
    ///
    /// # Errors
    ///
    /// Reports a server thread that panicked.
    pub fn stop(mut self) -> Result<(), String> {
        self.halt()
    }

    fn halt(&mut self) -> Result<(), String> {
        match self.thread.take() {
            Some(t) => {
                self.server.shutdown(self.addr);
                t.join().map_err(|_| "server thread panicked".to_string())
            }
            None => Ok(()),
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

/// Largest response body the client accepts.
const MAX_RESPONSE_BYTES: usize = 1 << 20;

/// A keep-alive HTTP/1.1 client on the server crate's own framing.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Returns the connect error as a message.
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one request — buffered, so it leaves in one segment — and
    /// reads the whole response.
    ///
    /// # Errors
    ///
    /// Returns a message for an I/O error or a malformed response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        let io = |e: std::io::Error| e.to_string();
        http::write_request(&mut self.writer, method, path, &[], body.as_bytes()).map_err(io)?;
        let resp = http::read_response(&mut self.reader, MAX_RESPONSE_BYTES).map_err(io)?;
        String::from_utf8(resp.body)
            .map(|b| (resp.status, b))
            .map_err(|_| "response body is not UTF-8".into())
    }
}

/// The predictions of a `/v1/predict` response body, parsed straight to
/// f32 (the server prints shortest round-trip f32 values).
pub fn parse_predictions(body: &str) -> Option<Vec<f32>> {
    let start = body.find('[')? + 1;
    let end = start + body[start..].find(']')?;
    body[start..end]
        .split(',')
        .map(|v| v.trim().parse().ok())
        .collect()
}

struct Counters {
    requests: u64,
    batches: u64,
    occupancy: u64,
    latency_us: u64,
    latencies: u64,
}

fn counters(server: &Server) -> Counters {
    let m = server.engine().metrics();
    let c = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    Counters {
        requests: c(&m.http_predict),
        batches: c(&m.batches_total),
        occupancy: c(&m.batch_occupancy_sum),
        latency_us: c(&m.latency_us_sum),
        latencies: c(&m.latency_us_count),
    }
}

/// What a timed window of requests saw.
#[derive(Default)]
struct Window {
    ops: Vec<(f64, f64)>,
    lat_ms: Vec<f64>,
    requests: u64,
    batches: u64,
    occupancy: u64,
    engine_us: u64,
    engine_n: u64,
    service_us: Vec<f64>,
}

/// Sends requests for `budget`, pass after pass, each pass to a fresh
/// server; records each request's round trip and, when `tr` is given, a
/// `serve.request` span carrying its request id.
fn window(
    cfg: &Config,
    inputs: &Inputs,
    bodies: &[String],
    reference: &[Vec<u32>],
    budget: std::time::Duration,
    out: &mut Outcome,
    mut tr: Option<&mut Tracer>,
) -> Result<Window, String> {
    let mut w = Window::default();
    let mut flip = cfg.flip_output_bit;
    let t0 = Instant::now();
    let mut id = 0u64;
    'passes: loop {
        let running = Running::start(inputs, &mut Tracer::new(), 0)?;
        let before = counters(running.server());
        let mut client = Client::connect(running.addr())?;
        let mut done = false;
        for (body, want) in bodies.iter().zip(reference) {
            let t = Instant::now();
            let reply = client.request("POST", "/v1/predict", body);
            let dt = t.elapsed();
            if let Some(tr) = tr.as_deref_mut() {
                tr.record("serve.request", id, t, dt, 1);
            }
            id += 1;
            let got = match &reply {
                Ok((200, b)) => parse_predictions(b).map(|p| bits(&p)),
                _ => None,
            };
            let ok = got.is_some_and(|mut g| {
                if std::mem::take(&mut flip) {
                    flip_first(&mut g);
                }
                &g == want
            });
            out.check(ok);
            if reply.is_err() {
                client = Client::connect(running.addr())?;
            }
            w.ops.push((dt.as_secs_f64(), want.len() as f64));
            w.lat_ms.push(dt.as_secs_f64() * 1e3);
            if t0.elapsed() >= budget {
                done = true;
                break;
            }
        }
        drop(client);
        let after = counters(running.server());
        w.requests += after.requests - before.requests;
        w.batches += after.batches - before.batches;
        w.occupancy += after.occupancy - before.occupancy;
        w.engine_us += after.latency_us - before.latency_us;
        w.engine_n += after.latencies - before.latencies;
        w.service_us
            .push(running.server().engine().recent_batch_us() as f64);
        running.stop()?;
        if done {
            break 'passes;
        }
    }
    Ok(w)
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a set-up error message.
pub fn run(cfg: &Config, inputs: &Inputs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let running = setup::repeat(&mut out, cfg.setup_repeats(), &mut tr, |tr, round| {
        Running::start(inputs, tr, round)
    })?;
    {
        let g = running.server().graph();
        out.set("netlist.devices", running.devices as f64);
        out.set("graph.nodes", g.num_nodes() as f64);
        out.set("graph.edges", g.num_edges() as f64);
    }
    if inputs.requests.is_empty() {
        return Err("serve_mix needs a request sequence".into());
    }
    // predict_mix's answers for the same requests, from a direct worker
    // session on the same model and graph.
    let reference = reference_bits(&mut running.server().session(), &inputs.requests);
    let bodies: Vec<String> = inputs.requests.iter().map(|r| r.body()).collect();
    // Warm-up on the set-up server; the timed passes get fresh ones.
    let warm = bodies.len().min(16);
    {
        let mut client = Client::connect(running.addr())?;
        for body in &bodies[..warm] {
            let ok = matches!(client.request("POST", "/v1/predict", body), Ok((200, _)));
            out.check(ok);
        }
    }
    running.stop()?;

    if cfg.trace {
        let half = cfg.measure / 2;
        let plain = window(cfg, inputs, &bodies, &reference, half, &mut out, None)?;
        let traced = window(
            cfg,
            inputs,
            &bodies,
            &reference,
            half,
            &mut out,
            Some(&mut tr),
        )?;
        let rtt = stats::mean(&traced.lat_ms);
        let engine = traced.engine_us as f64 / traced.engine_n.max(1) as f64 / 1e3;
        let service = stats::median(&traced.service_us) / 1e3;
        out.set("serve.requests", traced.requests as f64);
        out.set("serve.batches", traced.batches as f64);
        out.set(
            "serve.batch_occupancy",
            traced.occupancy as f64 / traced.batches.max(1) as f64,
        );
        out.set("serve.engine_ms", engine);
        out.set("serve.batch_wait_ms", (engine - service).max(0.0));
        out.set("serve.transport_ms", rtt - engine);
        let plain_rtt = stats::mean(&plain.lat_ms);
        out.set("trace.overhead_pct", (rtt - plain_rtt) / plain_rtt * 100.0);
        // Transport is the round trip's residual, so nothing is left over.
        out.set("trace.unattributed_pct", 0.0);
        out.tracer = Some(tr);
        out.note(format!(
            "serve_mix trace: {} untraced and {} traced requests; mean round trip {rtt:.3} ms, engine {engine:.3} ms, batch service {service:.3} ms",
            plain.lat_ms.len(),
            traced.lat_ms.len()
        ));
    } else {
        let w = window(
            cfg,
            inputs,
            &bodies,
            &reference,
            cfg.measure,
            &mut out,
            None,
        )?;
        // Groups of 17 link/link/cap/ground cycles, all with the same
        // task mix.
        let group = 17 * gen::CYCLE;
        out.set("items_per_s", stats::group_rate(&w.ops, group));
        out.set("p50_ms", stats::quantile(&w.lat_ms, 0.50));
        out.set("p99_ms", stats::group_quantile(&w.lat_ms, group, 0.99));
        out.note(format!(
            "serve_mix: {} requests timed; p99 is the median over {} groups of {group} requests; \
             {} batches, mean occupancy {:.2}",
            w.lat_ms.len(),
            w.lat_ms.len() / group,
            w.batches,
            w.occupancy as f64 / w.batches.max(1) as f64
        ));
    }
    Ok(out)
}
