//! Parameter storage shared between the model, the autograd tape and the
//! optimizer.
//!
//! Layers register their weights in a [`ParamStore`] at construction time and
//! keep only [`ParamId`] handles. During a forward pass the tape reads the
//! store immutably (so minibatch samples can run on worker threads), each
//! worker accumulates gradients into its own [`GradStore`], the grad stores
//! are merged, and the optimizer finally mutates the store in place.

use std::io::{self, Read, Write};
use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::Rng;

use crate::tensor::Tensor;

/// Why loading a parameter blob into a [`ParamStore`] failed.
///
/// Every variant names what was expected and what the blob contained, so
/// a CLI can surface "which parameter, which shapes" instead of a bare
/// I/O error.
#[derive(Debug)]
pub enum ParamLoadError {
    /// Underlying reader failed (or the blob was truncated).
    Io(io::Error),
    /// The blob holds a different number of parameter tensors.
    ParamCount {
        /// Tensors in the store being loaded into.
        expected: usize,
        /// Tensors recorded in the blob.
        found: usize,
    },
    /// The blob holds a different number of state buffers.
    BufferCount {
        /// Buffers in the store being loaded into.
        expected: usize,
        /// Buffers recorded in the blob.
        found: usize,
    },
    /// A record's name differs from the store's (same index).
    NameMismatch {
        /// Name in the store being loaded into.
        expected: String,
        /// Name recorded in the blob.
        found: String,
    },
    /// A record's tensor shape differs from the store's.
    ShapeMismatch {
        /// The parameter (or buffer) name.
        name: String,
        /// `(rows, cols)` in the store being loaded into.
        expected: (usize, usize),
        /// `(rows, cols)` recorded in the blob.
        found: (usize, usize),
    },
}

impl std::fmt::Display for ParamLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamLoadError::Io(e) => write!(f, "reading parameter blob: {e}"),
            ParamLoadError::ParamCount { expected, found } => write!(
                f,
                "checkpoint has {found} params, model expects {expected} \
                 (architecture mismatch)"
            ),
            ParamLoadError::BufferCount { expected, found } => write!(
                f,
                "checkpoint has {found} buffers, model expects {expected} \
                 (architecture mismatch)"
            ),
            ParamLoadError::NameMismatch { expected, found } => write!(
                f,
                "param name mismatch: checkpoint has {found:?}, model expects {expected:?}"
            ),
            ParamLoadError::ShapeMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "shape mismatch for param {name:?}: model expects {}x{}, checkpoint has {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
        }
    }
}

impl std::error::Error for ParamLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParamLoadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ParamLoadError {
    fn from(e: io::Error) -> Self {
        ParamLoadError::Io(e)
    }
}

/// Handle to a trainable (or frozen) parameter tensor in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

/// Handle to a non-trainable state buffer (e.g. batch-norm running stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub(crate) usize);

/// A momentum update of a state buffer, `buf ← (1 − m)·buf + m·stat`
/// (batch-norm running statistics), as recorded by a training forward
/// pass. See [`crate::Tape::defer_buffer_updates`].
#[derive(Debug)]
pub struct BufferUpdate {
    pub(crate) id: BufferId,
    pub(crate) stat: Tensor,
    pub(crate) momentum: f32,
}

/// Owns every parameter and state buffer of a model.
///
/// # Examples
///
/// ```
/// use cirgps_nn::{ParamStore, Tensor};
///
/// let mut store = ParamStore::new();
/// let w = store.register("w", Tensor::ones(2, 2), true);
/// assert_eq!(store.get(w).shape(), (2, 2));
/// assert_eq!(store.num_trainable(), 4);
/// ```
#[derive(Debug, Default)]
pub struct ParamStore {
    params: Vec<Tensor>,
    names: Vec<String>,
    trainable: Vec<bool>,
    /// Running statistics. A panic mid-update leaves every element a
    /// valid `f32`, so a poisoned lock is recovered, not propagated.
    buffers: Vec<Mutex<Tensor>>,
    buffer_names: Vec<String>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its handle.
    ///
    /// `trainable = false` freezes the parameter: the optimizer will skip it
    /// even if gradients are produced (used for Performer's fixed random
    /// projections and for head-only fine-tuning).
    pub fn register(&mut self, name: &str, init: Tensor, trainable: bool) -> ParamId {
        self.params.push(init);
        self.names.push(name.to_string());
        self.trainable.push(trainable);
        ParamId(self.params.len() - 1)
    }

    /// Registers a non-trainable state buffer, returning its handle.
    pub fn register_buffer(&mut self, name: &str, init: Tensor) -> BufferId {
        self.buffers.push(Mutex::new(init));
        self.buffer_names.push(name.to_string());
        BufferId(self.buffers.len() - 1)
    }

    /// Borrows a parameter tensor.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.params[id.0]
    }

    /// Mutably borrows a parameter tensor (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0]
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Whether the optimizer may update this parameter.
    pub fn is_trainable(&self, id: ParamId) -> bool {
        self.trainable[id.0]
    }

    /// Freezes or unfreezes a parameter.
    pub fn set_trainable(&mut self, id: ParamId, trainable: bool) {
        self.trainable[id.0] = trainable;
    }

    /// Freezes or unfreezes every parameter whose name starts with `prefix`.
    ///
    /// Returns the number of parameters affected. Used to implement the
    /// paper's head-only fine-tuning (freeze encoders + GPS layers).
    pub fn set_trainable_by_prefix(&mut self, prefix: &str, trainable: bool) -> usize {
        let mut n = 0;
        for i in 0..self.params.len() {
            if self.names[i].starts_with(prefix) {
                self.trainable[i] = trainable;
                n += 1;
            }
        }
        n
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of trainable scalar parameters (the paper's `#Param.`).
    pub fn num_trainable(&self) -> usize {
        self.params
            .iter()
            .zip(&self.trainable)
            .filter(|(_, &t)| t)
            .map(|(p, _)| p.len())
            .sum()
    }

    /// Reads a buffer by cloning it (buffers are behind a mutex so that
    /// training forward passes on worker threads can update running stats).
    pub fn buffer(&self, id: BufferId) -> Tensor {
        self.buffers[id.0]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Applies a momentum update to its buffer under the buffer's lock.
    pub fn apply_buffer_update(&self, u: &BufferUpdate) {
        let m = u.momentum;
        let mut buf = self.buffers[u.id.0]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for (r, &b) in buf.as_mut_slice().iter_mut().zip(u.stat.as_slice()) {
            *r = (1.0 - m) * *r + m * b;
        }
    }

    /// Iterates over `(id, name, tensor)` for all parameters.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.params
            .iter()
            .enumerate()
            .map(|(i, p)| (ParamId(i), self.names[i].as_str(), p))
    }

    /// Serializes all parameters and buffers to a writer as a raw named
    /// blob (no magic, no version).
    ///
    /// This is the record layout embedded by the self-describing
    /// checkpoint container (see `circuitgps`'s checkpoint module and
    /// `docs/checkpoint-format.md`): a length-prefixed sequence of
    /// `(name, rows, cols, f32 data)` records for the parameters,
    /// followed by the same for the state buffers.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save_blob<W: Write>(&self, mut w: W) -> io::Result<()> {
        write_u64(&mut w, self.params.len() as u64)?;
        for i in 0..self.params.len() {
            write_str(&mut w, &self.names[i])?;
            write_tensor(&mut w, &self.params[i])?;
        }
        write_u64(&mut w, self.buffers.len() as u64)?;
        for i in 0..self.buffers.len() {
            write_str(&mut w, &self.buffer_names[i])?;
            write_tensor(
                &mut w,
                &self.buffers[i]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            )?;
        }
        Ok(())
    }

    /// Loads parameter *values* from a raw named blob (the counterpart of
    /// [`ParamStore::save_blob`]) into this store.
    ///
    /// The store must already contain parameters with matching names and
    /// shapes (i.e. build the model first, then load the blob).
    ///
    /// # Errors
    ///
    /// Returns a named [`ParamLoadError`] on I/O failure or
    /// count/name/shape mismatch; shape mismatches carry the parameter
    /// name and both shapes.
    pub fn load_blob<R: Read>(&mut self, mut r: R) -> Result<(), ParamLoadError> {
        let np = read_u64(&mut r)? as usize;
        if np != self.params.len() {
            return Err(ParamLoadError::ParamCount {
                expected: self.params.len(),
                found: np,
            });
        }
        for i in 0..np {
            let name = read_str(&mut r)?;
            let t = read_tensor(&mut r)?;
            if name != self.names[i] {
                return Err(ParamLoadError::NameMismatch {
                    expected: self.names[i].clone(),
                    found: name,
                });
            }
            if t.shape() != self.params[i].shape() {
                return Err(ParamLoadError::ShapeMismatch {
                    name,
                    expected: self.params[i].shape(),
                    found: t.shape(),
                });
            }
            self.params[i] = t;
        }
        let nb = read_u64(&mut r)? as usize;
        if nb != self.buffers.len() {
            return Err(ParamLoadError::BufferCount {
                expected: self.buffers.len(),
                found: nb,
            });
        }
        for i in 0..nb {
            let name = read_str(&mut r)?;
            let t = read_tensor(&mut r)?;
            if name != self.buffer_names[i] {
                return Err(ParamLoadError::NameMismatch {
                    expected: self.buffer_names[i].clone(),
                    found: name,
                });
            }
            let buf = self.buffers[i]
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            if t.shape() != buf.shape() {
                return Err(ParamLoadError::ShapeMismatch {
                    expected: buf.shape(),
                    found: t.shape(),
                    name,
                });
            }
            *buf = t;
        }
        Ok(())
    }
}

pub(crate) fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

fn read_str<R: Read>(r: &mut R) -> io::Result<String> {
    let n = read_u64(r)? as usize;
    if n > 1 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unreasonable string length",
        ));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad utf-8"))
}

pub(crate) fn write_tensor<W: Write>(w: &mut W, t: &Tensor) -> io::Result<()> {
    write_u64(w, t.rows() as u64)?;
    write_u64(w, t.cols() as u64)?;
    for &v in t.as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

pub(crate) fn read_tensor<R: Read>(r: &mut R) -> io::Result<Tensor> {
    let rows = read_u64(r)? as usize;
    let cols = read_u64(r)? as usize;
    if rows.saturating_mul(cols) > 1 << 28 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unreasonable tensor size",
        ));
    }
    let mut data = vec![0.0f32; rows * cols];
    let mut b = [0u8; 4];
    for v in &mut data {
        r.read_exact(&mut b)?;
        *v = f32::from_le_bytes(b);
    }
    Ok(Tensor::from_vec(rows, cols, data))
}

/// Per-thread gradient accumulator, indexed by [`ParamId`].
///
/// # Examples
///
/// ```
/// use cirgps_nn::{GradStore, ParamStore, Tensor};
///
/// let mut store = ParamStore::new();
/// let w = store.register("w", Tensor::zeros(1, 2), true);
/// let mut g1 = GradStore::new(&store);
/// let mut g2 = GradStore::new(&store);
/// g1.accumulate(w, &Tensor::row(&[1.0, 0.0]));
/// g2.accumulate(w, &Tensor::row(&[0.0, 2.0]));
/// g1.merge(g2);
/// assert_eq!(g1.get(w).unwrap().as_slice(), &[1.0, 2.0]);
/// ```
#[derive(Debug)]
pub struct GradStore {
    grads: Vec<Option<Tensor>>,
}

impl GradStore {
    /// Creates a zeroed gradient store sized for `store`.
    pub fn new(store: &ParamStore) -> Self {
        GradStore {
            grads: (0..store.len()).map(|_| None).collect(),
        }
    }

    /// Adds `g` into the slot for `id`.
    pub fn accumulate(&mut self, id: ParamId, g: &Tensor) {
        match &mut self.grads[id.0] {
            Some(acc) => acc.add_assign(g),
            slot @ None => *slot = Some(g.clone()),
        }
    }

    /// Gradient for `id`, if any op touched it.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.grads[id.0].as_ref()
    }

    /// Merges another grad store (summing) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two stores were built for different param stores.
    pub fn merge(&mut self, mut other: GradStore) {
        assert_eq!(
            self.grads.len(),
            other.grads.len(),
            "grad store size mismatch"
        );
        let taken = std::mem::take(&mut other.grads);
        for (a, b) in self.grads.iter_mut().zip(taken) {
            match (a.as_mut(), b) {
                (Some(x), Some(y)) => {
                    x.add_assign(&y);
                    crate::pool::put(y.into_vec());
                }
                (None, Some(y)) => *a = Some(y),
                _ => {}
            }
        }
    }

    /// Scales every gradient by `s` (used for minibatch averaging).
    pub fn scale(&mut self, s: f32) {
        for g in self.grads.iter_mut().flatten() {
            for v in g.as_mut_slice() {
                *v *= s;
            }
        }
    }

    /// Global L2 norm over all gradients.
    pub fn global_norm(&self) -> f32 {
        self.grads
            .iter()
            .flatten()
            .map(|g| g.as_slice().iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Clips gradients so the global norm does not exceed `max_norm`.
    ///
    /// Returns the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
        norm
    }
}

impl Drop for GradStore {
    /// Returns every gradient buffer to the thread-local pool so the next
    /// step's accumulations allocate nothing.
    fn drop(&mut self) {
        for g in self.grads.drain(..).flatten() {
            crate::pool::put(g.into_vec());
        }
    }
}

/// Xavier/Glorot-uniform initialization for a `fan_in × fan_out` weight.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    let limit = (6.0 / (rows + cols) as f32).sqrt();
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rng.gen_range(-limit..limit))
            .collect(),
    )
}

/// Gaussian initialization with standard deviation `std`.
pub fn normal_init(rows: usize, cols: usize, std: f32, rng: &mut StdRng) -> Tensor {
    // Box-Muller transform; rand 0.8's StdRng is deterministic per seed.
    let n = rows * cols;
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(r * theta.cos() * std);
        if data.len() < n {
            data.push(r * theta.sin() * std);
        }
    }
    Tensor::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn register_and_count() {
        let mut s = ParamStore::new();
        let a = s.register("enc.w", Tensor::zeros(3, 4), true);
        let b = s.register("head.w", Tensor::zeros(2, 2), true);
        assert_eq!(s.num_trainable(), 16);
        s.set_trainable(a, false);
        assert_eq!(s.num_trainable(), 4);
        assert_eq!(s.name(b), "head.w");
    }

    #[test]
    fn freeze_by_prefix() {
        let mut s = ParamStore::new();
        s.register("enc.w1", Tensor::zeros(1, 1), true);
        s.register("enc.w2", Tensor::zeros(1, 1), true);
        s.register("head.w", Tensor::zeros(1, 1), true);
        assert_eq!(s.set_trainable_by_prefix("enc.", false), 2);
        assert_eq!(s.num_trainable(), 1);
    }

    #[test]
    fn save_load_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = ParamStore::new();
        s.register("w", xavier_uniform(3, 5, &mut rng), true);
        let buf_id = s.register_buffer("bn.mean", Tensor::row(&[1.0, 2.0]));
        let mut bytes = Vec::new();
        s.save_blob(&mut bytes).unwrap();

        let mut s2 = ParamStore::new();
        let w2 = s2.register("w", Tensor::zeros(3, 5), true);
        s2.register_buffer("bn.mean", Tensor::zeros(1, 2));
        s2.load_blob(&bytes[..]).unwrap();
        assert_eq!(s2.get(w2), s.get(ParamId(0)));
        assert_eq!(s2.buffer(BufferId(0)), s.buffer(buf_id));
    }

    #[test]
    fn load_rejects_shape_mismatch() {
        let mut s = ParamStore::new();
        s.register("w", Tensor::zeros(2, 2), true);
        let mut bytes = Vec::new();
        s.save_blob(&mut bytes).unwrap();

        let mut s2 = ParamStore::new();
        s2.register("w", Tensor::zeros(3, 3), true);
        assert!(matches!(
            s2.load_blob(&bytes[..]),
            Err(ParamLoadError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn grad_clip() {
        let mut s = ParamStore::new();
        let w = s.register("w", Tensor::zeros(1, 2), true);
        let mut g = GradStore::new(&s);
        g.accumulate(w, &Tensor::row(&[3.0, 4.0]));
        let pre = g.clip_global_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((g.global_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn normal_init_is_roughly_centered() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = normal_init(100, 100, 0.5, &mut rng);
        assert!(t.mean().abs() < 0.02);
        let var: f32 = t
            .as_slice()
            .iter()
            .map(|v| (v - t.mean()).powi(2))
            .sum::<f32>()
            / t.len() as f32;
        assert!((var.sqrt() - 0.5).abs() < 0.05);
    }
}
