//! # cirgps-nn
//!
//! A minimal, dependency-light neural-network library purpose-built for the
//! CirGPS reproduction: dense 2-D tensors, a per-sample reverse-mode
//! autograd [`Tape`], the layers the paper's model needs (linear, embedding,
//! batch norm, dropout, multi-head attention, Performer linear attention and
//! GatedGCN message passing), plus Adam/SGD optimizers and LR schedules.
//!
//! Every differentiable op has a finite-difference gradient check in the
//! test suite, and the tape borrows parameters immutably so minibatch
//! samples can be processed on worker threads and their [`GradStore`]s
//! merged. The numeric core is built for speed: tensor buffers come from
//! a thread-local recycling [`pool`], the matmul kernels are cache-blocked
//! and go multi-threaded above a size threshold, and the hot model path
//! runs on fused tape ops ([`Tape::linear`], [`Tape::linear_relu`]) and
//! allocation-free in-place variants (see `docs/perf.md`).
//!
//! ## Example
//!
//! ```
//! use cirgps_nn::{Adam, Activation, GradStore, Mlp, ParamStore, Tape, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let mlp = Mlp::new(&mut store, "mlp", &[2, 16, 1], Activation::Relu, 0.0, &mut rng);
//! let mut opt = Adam::new(1e-2);
//!
//! for _ in 0..100 {
//!     let mut grads = GradStore::new(&store);
//!     {
//!         // Inner scope: the tape borrows the store and recycles its
//!         // buffers on drop, so it must die before the optimizer step.
//!         let mut tape = Tape::new(&store, true, 0);
//!         let x = tape.input(Tensor::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]));
//!         let y = mlp.forward(&mut tape, x);
//!         let loss = tape.mse_loss(y, &[0.0, 1.0]);
//!         tape.backward(loss, &mut grads);
//!     }
//!     opt.step(&mut store, &grads);
//! }
//! ```

#![deny(missing_docs)]

mod attention;
mod fused;
mod gatedgcn;
pub mod infer;
mod layers;
mod optim;
mod params;
pub mod pool;
pub mod simd;
mod tape;
mod tensor;

pub use attention::{MultiHeadAttention, PerformerAttention};
pub use gatedgcn::{EdgeIndex, GatedGcn};
pub use layers::{Activation, BatchNorm1d, Embedding, Linear, Mlp};
pub use optim::{Adam, CosineSchedule, Sgd};
pub use params::{
    normal_init, xavier_uniform, BufferId, BufferUpdate, GradStore, ParamId, ParamLoadError,
    ParamStore,
};
pub use pool::PoolStats;
pub use simd::Backend;
pub use tape::{Tape, Var};
pub use tensor::Tensor;
