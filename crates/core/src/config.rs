//! Model and training configuration (the Rust analogue of the paper's
//! GraphGym config files).

use graph_pe::PeKind;

/// MPNN branch of a GPS layer (Table III rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MpnnKind {
    /// No local message passing.
    None,
    /// GatedGCN with edge features (the paper's default).
    GatedGcn,
}

/// Global-attention branch of a GPS layer (Table III columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttnKind {
    /// No global attention (pure MPNN; Observation 2's strong baseline).
    None,
    /// Exact multi-head softmax attention.
    Transformer,
    /// FAVOR+ linear attention with the given feature count.
    Performer {
        /// Random features per head.
        features: usize,
    },
}

/// Hyperparameters of the CircuitGPS model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Hidden width `d` of node and edge streams.
    pub hidden_dim: usize,
    /// Number of GPS layers `L`.
    pub num_layers: usize,
    /// Attention heads (must divide `hidden_dim`).
    pub heads: usize,
    /// Local MPNN choice.
    pub mpnn: MpnnKind,
    /// Global attention choice.
    pub attn: AttnKind,
    /// Positional encoding.
    pub pe: PeKind,
    /// Width of each PE embedding part (`D0`/`D1` in eq. (1)).
    pub pe_dim: usize,
    /// Dropout probability.
    pub dropout: f32,
    /// Parameter-init RNG seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            hidden_dim: 32,
            num_layers: 3,
            heads: 4,
            mpnn: MpnnKind::GatedGcn,
            attn: AttnKind::Performer { features: 32 },
            pe: PeKind::Dspd,
            pe_dim: 8,
            dropout: 0.1,
            seed: 0x6005,
        }
    }
}

impl ModelConfig {
    /// Checks structural constraints, returning a description of the
    /// first violation (used by the checkpoint loader, which must not
    /// panic on a malformed embedded config).
    ///
    /// # Errors
    ///
    /// Returns an error message if `heads` does not divide `hidden_dim`,
    /// the PE parts do not leave room for the node-type embedding, or
    /// there are no GPS layers.
    pub fn check(&self) -> Result<(), String> {
        if self.heads == 0 || !self.hidden_dim.is_multiple_of(self.heads) {
            return Err("heads must divide hidden_dim".into());
        }
        if 2 * self.pe_dim >= self.hidden_dim {
            return Err(format!(
                "2·pe_dim ({}) must leave room for the type embedding in hidden_dim ({})",
                2 * self.pe_dim,
                self.hidden_dim
            ));
        }
        if self.num_layers == 0 {
            return Err("need at least one GPS layer".into());
        }
        Ok(())
    }

    /// Validates structural constraints.
    ///
    /// # Panics
    ///
    /// Panics if `heads` does not divide `hidden_dim`, or the PE parts do
    /// not leave room for the node-type embedding.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// Training-loop hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Minibatch size (samples processed in parallel per step).
    pub batch_size: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// AdamW weight decay.
    pub weight_decay: f32,
    /// Gradient clip (global L2 norm).
    pub clip: f32,
    /// Warmup steps for the cosine schedule.
    pub warmup: usize,
    /// Shuffling / dropout seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 6,
            batch_size: 32,
            lr: 1e-3,
            weight_decay: 1e-5,
            clip: 1.0,
            warmup: 20,
            seed: 0x7141,
        }
    }
}

/// How to adapt the pre-trained model for a downstream task (Section
/// III-E and Table VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinetuneMode {
    /// Train everything from random init (the plain `CircuitGPS` row).
    Scratch,
    /// Freeze encoders and GPS layers; train only the task head.
    HeadOnly,
    /// Continue training all parameters from the pre-trained init.
    All,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ModelConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "heads must divide")]
    fn bad_heads_rejected() {
        ModelConfig {
            hidden_dim: 30,
            heads: 4,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "room for the type embedding")]
    fn oversized_pe_rejected() {
        ModelConfig {
            hidden_dim: 16,
            pe_dim: 8,
            heads: 4,
            ..Default::default()
        }
        .validate();
    }
}
