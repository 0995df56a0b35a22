//! # cirgps-serve
//!
//! A long-lived inference daemon for the CirGPS engine: keeps the model,
//! design graph and per-worker answer caches warm in one process and
//! serves concurrent link/capacitance queries over a hand-rolled
//! HTTP/1.1 + JSON protocol on `std::net::TcpListener` (no external
//! dependencies, matching the workspace's offline compat-shim
//! philosophy).
//!
//! The core is a **dynamic micro-batcher**: connection threads push
//! queries into a bounded MPMC [`queue`], and each scheduler worker takes
//! the queries already queued, up to `max_batch` and never waiting for
//! more, and runs the whole batch through the tape-free block-diagonal
//! engine (`CircuitGps::predict_link_batch` and friends, via
//! [`circuitgps::InferenceSession::predict_batch`]). A lone request
//! starts at once; under load, queries pile up while the workers are
//! busy, so concurrent singleton requests pay batch-class per-sample
//! cost instead of per-request model invocations. Because the batched
//! engine is bitwise-equal to per-sample prediction, batching is
//! *observably invisible* except in the throughput counters.
//!
//! Protocol reference and capacity-planning numbers: `docs/serving.md`.
//! The CLI front end is `cirgps serve` (see `cirgps help`).
//!
//! ## In-process use
//!
//! The HTTP layer is optional; benches and embedders can drive the
//! engine directly:
//!
//! ```no_run
//! # use cirgps_serve::{Server, ServeConfig, TaskKind};
//! # fn demo(model: circuitgps::CircuitGps, graph: circuit_graph::CircuitGraph) {
//! let server = Server::new(model, graph, "SSRAM".into(), ServeConfig::default());
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         let mut session = server.session();
//!         server.engine().run_worker(&mut session);
//!     });
//!     let slot = server.engine().submit(TaskKind::Link, &[(0, 5)]).unwrap();
//!     let probability = slot.wait()[0];
//!     # let _ = probability;
//!     server.engine().shutdown();
//! });
//! # }
//! ```

#![deny(missing_docs)]

pub mod engine;
pub mod http;
pub mod json;
pub mod metrics;
pub mod queue;
mod server;

pub use engine::{Engine, ResponseSlot, SubmitError, TaskKind};
pub use metrics::Metrics;
pub use queue::{BoundedQueue, PushError};
pub use server::{ServeConfig, Server};
