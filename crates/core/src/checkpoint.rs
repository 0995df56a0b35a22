//! Self-describing model checkpoints: a versioned container that embeds
//! the [`ModelConfig`] next to the named parameter blob, so a checkpoint
//! can be loaded without knowing (or guessing) the architecture it was
//! trained with.
//!
//! The byte-level layout is specified in `docs/checkpoint-format.md`.
//! In short (version 2, the written format):
//!
//! ```text
//! magic  "CGPC"                     4 bytes
//! version u32 LE                    (currently 2)
//! body_len u64 LE                   byte length of the body
//! body                              config block + param blob +
//!                                   named optional sections
//! crc32 u32 LE                      over every preceding byte
//! ```
//!
//! The CRC32 footer (IEEE polynomial, the zlib `crc32()` function) is
//! verified **before** any body byte is parsed, so a torn or bit-flipped
//! file is rejected with a named [`CheckpointError::ChecksumMismatch`]
//! instead of being half-loaded. Named sections carry optional payloads
//! — today the resumable-training state
//! ([`TRAIN_STATE_SECTION`]) — without burdening readers that only want
//! the model.
//!
//! Version 1 files (no length/footer, no sections) still load. The
//! pre-container format (magic `CGPS`, a raw [`ParamStore`] dump with no
//! config) is recognized only to fail with the named
//! [`CheckpointError::LegacyRawDump`] and a migration hint.
//!
//! [`ParamStore`]: cirgps_nn::ParamStore

use std::io::{self, Read, Write};

use cirgps_nn::ParamLoadError;
use graph_pe::PeKind;

use crate::config::{AttnKind, ModelConfig, MpnnKind};
use crate::durable::Crc32;
use crate::model::CircuitGps;

/// Container magic for the self-describing checkpoint format.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"CGPC";
/// Magic of the pre-container raw parameter dump (no embedded config),
/// kept only to name the format in [`CheckpointError::LegacyRawDump`].
pub const LEGACY_MAGIC: &[u8; 4] = b"CGPS";
/// Highest container version this build can read and the version it
/// writes.
pub const CHECKPOINT_VERSION: u32 = 2;
/// Section name under which resumable-training state
/// ([`crate::TrainState`]) is stored in a v2 container.
pub const TRAIN_STATE_SECTION: &str = "train_state";

/// Most sections a v2 container may carry; far above anything written
/// today, it only bounds the loop on (CRC-verified) input.
const MAX_SECTIONS: u32 = 1024;

/// Which on-disk format a checkpoint was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointFormat {
    /// The original container: embedded [`ModelConfig`], no integrity
    /// footer, no sections.
    V1,
    /// The current container: embedded [`ModelConfig`], named optional
    /// sections, and a CRC32 integrity footer over the whole file.
    V2,
}

/// Why reading or writing a checkpoint failed. Every variant names the
/// offending field so CLI errors can say *what* mismatched, not just
/// that something did.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying reader/writer failed (or the file was truncated).
    Io(io::Error),
    /// The first four bytes are neither [`CHECKPOINT_MAGIC`] nor the
    /// legacy [`LEGACY_MAGIC`].
    BadMagic([u8; 4]),
    /// The file is a pre-container raw weight dump ([`LEGACY_MAGIC`]).
    /// It records no model config, so it is no longer read; the message
    /// says how to migrate.
    LegacyRawDump,
    /// The container version is newer than this build understands.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// Highest version this build reads ([`CHECKPOINT_VERSION`]).
        supported: u32,
    },
    /// The v2 CRC32 footer does not match the file contents: the file
    /// was torn mid-write or corrupted at rest. Nothing was loaded.
    ChecksumMismatch {
        /// Checksum recorded in the footer.
        stored: u32,
        /// Checksum computed over the file contents.
        computed: u32,
    },
    /// The embedded config block could not be decoded or fails
    /// [`ModelConfig::check`].
    Config(String),
    /// The parameter blob does not match the model built from the
    /// embedded config (names the parameter and both shapes).
    Params(ParamLoadError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::BadMagic(m) => {
                write!(f, "bad checkpoint magic {m:?} (expected \"CGPC\")")
            }
            CheckpointError::LegacyRawDump => write!(
                f,
                "pre-container raw weight dump (magic \"CGPS\") is no longer supported: it \
                 records no model config. Re-train with `cirgps pretrain`/`finetune`, or load \
                 it with an older release and re-save it as a \"CGPC\" container \
                 (see docs/checkpoint-format.md)"
            ),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "checkpoint format version {found} is newer than this build supports \
                 (max {supported}); upgrade cirgps or re-save the checkpoint"
            ),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch (footer {stored:#010x}, contents {computed:#010x}): \
                 the file is torn or corrupted; restore from the previous snapshot (.bak)"
            ),
            CheckpointError::Config(msg) => write!(f, "embedded model config: {msg}"),
            CheckpointError::Params(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Params(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<ParamLoadError> for CheckpointError {
    fn from(e: ParamLoadError) -> Self {
        match e {
            ParamLoadError::Io(io) => CheckpointError::Io(io),
            other => CheckpointError::Params(other),
        }
    }
}

/// A fully-read checkpoint: the model plus everything else the container
/// carried. [`CircuitGps::load_checkpoint`] is the model-only shorthand.
#[derive(Debug)]
pub struct Checkpoint {
    /// The model, built from the embedded config.
    pub model: CircuitGps,
    /// Which on-disk format the file used.
    pub format: CheckpointFormat,
    /// Named optional sections (v2 only; empty for v1 files), in file
    /// order.
    pub sections: Vec<(String, Vec<u8>)>,
}

impl Checkpoint {
    /// Returns the payload of the named section, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, bytes)| bytes.as_slice())
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

pub(crate) fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

fn read_str<R: Read>(r: &mut R) -> Result<String, CheckpointError> {
    let len = read_u64(r)? as usize;
    if len > 1 << 10 {
        return Err(CheckpointError::Config(format!(
            "unreasonable section name length {len}"
        )));
    }
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)?;
    String::from_utf8(bytes)
        .map_err(|_| CheckpointError::Config("section name is not UTF-8".into()))
}

// Config-block field tags; see docs/checkpoint-format.md for the table.
const MPNN_NONE: u8 = 0;
const MPNN_GATED_GCN: u8 = 1;
const ATTN_NONE: u8 = 0;
const ATTN_TRANSFORMER: u8 = 1;
const ATTN_PERFORMER: u8 = 2;
const PE_NONE: u8 = 0;
const PE_XC: u8 = 1;
const PE_DRNL: u8 = 2;
const PE_RWSE: u8 = 3;
const PE_LAPPE: u8 = 4;
const PE_DSPD: u8 = 5;

/// Serializes a [`ModelConfig`] as the fixed field sequence shared by v1
/// and v2 (without the surrounding length prefix).
fn write_config_fields<W: Write>(w: &mut W, cfg: &ModelConfig) -> io::Result<()> {
    write_u64(w, cfg.hidden_dim as u64)?;
    write_u64(w, cfg.num_layers as u64)?;
    write_u64(w, cfg.heads as u64)?;
    let mpnn = match cfg.mpnn {
        MpnnKind::None => MPNN_NONE,
        MpnnKind::GatedGcn => MPNN_GATED_GCN,
    };
    w.write_all(&[mpnn])?;
    let (attn, features) = match cfg.attn {
        AttnKind::None => (ATTN_NONE, 0u64),
        AttnKind::Transformer => (ATTN_TRANSFORMER, 0),
        AttnKind::Performer { features } => (ATTN_PERFORMER, features as u64),
    };
    w.write_all(&[attn])?;
    write_u64(w, features)?;
    let (pe, k) = match cfg.pe {
        PeKind::None => (PE_NONE, 0u64),
        PeKind::Xc => (PE_XC, 0),
        PeKind::Drnl => (PE_DRNL, 0),
        PeKind::Rwse { k } => (PE_RWSE, k as u64),
        PeKind::LapPe { k } => (PE_LAPPE, k as u64),
        PeKind::Dspd => (PE_DSPD, 0),
    };
    w.write_all(&[pe])?;
    write_u64(w, k)?;
    write_u64(w, cfg.pe_dim as u64)?;
    w.write_all(&cfg.dropout.to_le_bytes())?;
    write_u64(w, cfg.seed)?;
    Ok(())
}

/// Decodes the config field sequence (shared by v1 and v2).
fn read_config_fields<R: Read>(r: &mut R) -> Result<ModelConfig, CheckpointError> {
    let hidden_dim = read_u64(r)? as usize;
    let num_layers = read_u64(r)? as usize;
    let heads = read_u64(r)? as usize;
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let mpnn = match tag[0] {
        MPNN_NONE => MpnnKind::None,
        MPNN_GATED_GCN => MpnnKind::GatedGcn,
        t => return Err(CheckpointError::Config(format!("unknown mpnn tag {t}"))),
    };
    r.read_exact(&mut tag)?;
    let attn_tag = tag[0];
    let features = read_u64(r)? as usize;
    let attn = match attn_tag {
        ATTN_NONE => AttnKind::None,
        ATTN_TRANSFORMER => AttnKind::Transformer,
        ATTN_PERFORMER => AttnKind::Performer { features },
        t => return Err(CheckpointError::Config(format!("unknown attn tag {t}"))),
    };
    r.read_exact(&mut tag)?;
    let pe_tag = tag[0];
    let k = read_u64(r)? as usize;
    let pe = match pe_tag {
        PE_NONE => PeKind::None,
        PE_XC => PeKind::Xc,
        PE_DRNL => PeKind::Drnl,
        PE_RWSE => PeKind::Rwse { k },
        PE_LAPPE => PeKind::LapPe { k },
        PE_DSPD => PeKind::Dspd,
        t => return Err(CheckpointError::Config(format!("unknown pe tag {t}"))),
    };
    let pe_dim = read_u64(r)? as usize;
    let mut f = [0u8; 4];
    r.read_exact(&mut f)?;
    let dropout = f32::from_le_bytes(f);
    let seed = read_u64(r)?;
    Ok(ModelConfig {
        hidden_dim,
        num_layers,
        heads,
        mpnn,
        attn,
        pe,
        pe_dim,
        dropout,
        seed,
    })
}

impl CircuitGps {
    /// Writes the self-describing checkpoint container (version 2):
    /// magic, format version, body length, the model's [`ModelConfig`],
    /// every named parameter and state buffer, zero sections, and the
    /// CRC32 integrity footer. [`CircuitGps::load_checkpoint`]
    /// reconstructs an identical model from this alone.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save_checkpoint<W: Write>(&self, w: W) -> Result<(), CheckpointError> {
        self.save_checkpoint_with_sections(w, &[])
    }

    /// Like [`CircuitGps::save_checkpoint`], additionally embedding the
    /// given named sections (e.g. resumable-training state under
    /// [`TRAIN_STATE_SECTION`]). Readers that only want the model ignore
    /// sections they don't recognize.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save_checkpoint_with_sections<W: Write>(
        &self,
        mut w: W,
        sections: &[(&str, &[u8])],
    ) -> Result<(), CheckpointError> {
        let mut body = Vec::new();
        // Length-prefixed config block so later versions can append
        // fields and still be skimmed by tooling.
        let mut cfg_block = Vec::new();
        write_config_fields(&mut cfg_block, &self.cfg)?;
        write_u64(&mut body, cfg_block.len() as u64)?;
        body.write_all(&cfg_block)?;
        self.store().save_blob(&mut body)?;
        write_u32(&mut body, sections.len() as u32)?;
        for (name, payload) in sections {
            write_str(&mut body, name)?;
            write_u64(&mut body, payload.len() as u64)?;
            body.write_all(payload)?;
        }

        // The whole container is assembled in memory so the CRC can
        // cover the header too; checkpoints are MB-scale, this is fine.
        let mut out = Vec::with_capacity(body.len() + 20);
        out.extend_from_slice(CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&body);
        let mut crc = Crc32::new();
        crc.update(&out);
        out.extend_from_slice(&crc.finish().to_le_bytes());
        w.write_all(&out)?;
        Ok(())
    }

    /// Reads a checkpoint and constructs the model it describes.
    /// Shorthand for [`CircuitGps::load_checkpoint_full`] when the
    /// caller does not care about optional sections.
    ///
    /// # Errors
    ///
    /// See [`CircuitGps::load_checkpoint_full`].
    pub fn load_checkpoint<R: Read>(r: R) -> Result<(Self, CheckpointFormat), CheckpointError> {
        let ck = Self::load_checkpoint_full(r)?;
        Ok((ck.model, ck.format))
    }

    /// Reads a checkpoint container (v1 or v2) and returns the model
    /// plus the container's optional sections.
    ///
    /// The model is built from the **embedded** config — no flags, no
    /// guessing, a non-default architecture round-trips by itself. A v2
    /// file's CRC32 footer is verified over the raw bytes **before
    /// anything is parsed**, so a torn or bit-flipped file cannot
    /// half-load. Sections this build does not interpret (for example a
    /// stale `quant` section) are returned untouched and do not affect
    /// the model.
    ///
    /// # Errors
    ///
    /// Returns a named [`CheckpointError`] on bad magic, a pre-container
    /// raw dump, a newer-than-supported version, a checksum mismatch, an
    /// invalid embedded config, or a parameter name/shape mismatch.
    pub fn load_checkpoint_full<R: Read>(mut r: R) -> Result<Checkpoint, CheckpointError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic == LEGACY_MAGIC {
            return Err(CheckpointError::LegacyRawDump);
        }
        if &magic != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic(magic));
        }
        let version = read_u32(&mut r)?;
        if version == 0 || version > CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                supported: CHECKPOINT_VERSION,
            });
        }
        if version == 1 {
            let model = Self::load_v1_tail(&mut r)?;
            return Ok(Checkpoint {
                model,
                format: CheckpointFormat::V1,
                sections: Vec::new(),
            });
        }

        // v2: verify the CRC over the raw bytes FIRST; only then parse.
        let body_len = read_u64(&mut r)?;
        if body_len > 1 << 33 {
            return Err(CheckpointError::Config(format!(
                "unreasonable body length {body_len}"
            )));
        }
        // read_to_end over a Take grows the buffer as bytes actually
        // arrive, so a corrupt length on a short file fails with
        // UnexpectedEof instead of a giant up-front allocation.
        let mut body = Vec::new();
        let got = (&mut r).take(body_len).read_to_end(&mut body)?;
        if (got as u64) < body_len {
            return Err(CheckpointError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("checkpoint body truncated: expected {body_len} bytes, got {got}"),
            )));
        }
        let stored = read_u32(&mut r)?;
        let mut crc = Crc32::new();
        crc.update(&magic);
        crc.update(&version.to_le_bytes());
        crc.update(&body_len.to_le_bytes());
        crc.update(&body);
        let computed = crc.finish();
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }

        let mut br: &[u8] = &body;
        let cfg_len = read_u64(&mut br)? as usize;
        if cfg_len > 1 << 16 {
            return Err(CheckpointError::Config(format!(
                "unreasonable config block length {cfg_len}"
            )));
        }
        let mut cfg_block = vec![0u8; cfg_len];
        br.read_exact(&mut cfg_block)?;
        let cfg = read_config_fields(&mut &cfg_block[..])?;
        cfg.check().map_err(CheckpointError::Config)?;
        let mut model = CircuitGps::new(cfg);
        model.store_mut().load_blob(&mut br)?;
        let n_sections = read_u32(&mut br)?;
        if n_sections > MAX_SECTIONS {
            return Err(CheckpointError::Config(format!(
                "unreasonable section count {n_sections}"
            )));
        }
        let mut sections = Vec::with_capacity(n_sections as usize);
        for _ in 0..n_sections {
            let name = read_str(&mut br)?;
            let len = read_u64(&mut br)? as usize;
            let mut payload = vec![0u8; len.min(br.len())];
            br.read_exact(&mut payload)?;
            if payload.len() < len {
                return Err(CheckpointError::Io(io::ErrorKind::UnexpectedEof.into()));
            }
            sections.push((name, payload));
        }
        if !br.is_empty() {
            return Err(CheckpointError::Config(format!(
                "{} trailing bytes after the last section",
                br.len()
            )));
        }
        Ok(Checkpoint {
            model,
            format: CheckpointFormat::V2,
            sections,
        })
    }

    /// Reads everything after the version field of a v1 container.
    fn load_v1_tail<R: Read>(r: &mut R) -> Result<Self, CheckpointError> {
        let cfg_len = read_u64(r)? as usize;
        if cfg_len > 1 << 16 {
            return Err(CheckpointError::Config(format!(
                "unreasonable config block length {cfg_len}"
            )));
        }
        let mut cfg_block = vec![0u8; cfg_len];
        r.read_exact(&mut cfg_block)?;
        let cfg = read_config_fields(&mut &cfg_block[..])?;
        cfg.check().map_err(CheckpointError::Config)?;
        let mut model = CircuitGps::new(cfg);
        model.store_mut().load_blob(r)?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::PreparedSample;
    use circuit_graph::{EdgeType, GraphBuilder, NodeType};
    use subgraph_sample::{SamplerConfig, SubgraphSampler, XcNormalizer};

    fn sample() -> PreparedSample {
        let mut b = GraphBuilder::new();
        let n1 = b.add_node(NodeType::Net, "n1");
        let p1 = b.add_node(NodeType::Pin, "p1");
        let d1 = b.add_node(NodeType::Device, "d1");
        let n2 = b.add_node(NodeType::Net, "n2");
        b.set_xc(p1, 0, 1.0);
        b.set_xc(n1, 0, 2.0);
        b.add_edge(n1, p1, EdgeType::NetPin);
        b.add_edge(p1, d1, EdgeType::DevicePin);
        b.add_edge(d1, n2, EdgeType::NetPin);
        let g = b.build();
        let g = g.with_injected_links(&[circuit_graph::Edge {
            a: n1,
            b: n2,
            ty: EdgeType::CouplingNetNet,
        }]);
        let xcn = XcNormalizer::fit(&[&g]);
        let mut s = SubgraphSampler::new(
            &g,
            SamplerConfig {
                hops: 2,
                max_nodes: 32,
            },
        );
        let sub = s.enclosing_subgraph(n1, n2);
        PreparedSample::new(sub, PeKind::Dspd, &xcn, 1.0, 0.3)
    }

    /// A config that differs from the default in every dimension the
    /// container records — the round-trip must reproduce it exactly.
    fn non_default_config() -> ModelConfig {
        ModelConfig {
            hidden_dim: 24,
            num_layers: 2,
            heads: 3,
            mpnn: MpnnKind::GatedGcn,
            attn: AttnKind::Transformer,
            pe: PeKind::Dspd,
            pe_dim: 5,
            dropout: 0.05,
            seed: 0xBEEF,
        }
    }

    /// Hand-writes the v1 container layout (magic, version 1, config
    /// block, param blob — no length, no footer) to prove old files
    /// still load.
    fn v1_bytes(model: &CircuitGps) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(CHECKPOINT_MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        let mut cfg_block = Vec::new();
        write_config_fields(&mut cfg_block, &model.cfg).unwrap();
        write_u64(&mut bytes, cfg_block.len() as u64).unwrap();
        bytes.extend_from_slice(&cfg_block);
        model.store().save_blob(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn v2_round_trip_restores_config_and_predictions_bitwise() {
        let s = sample();
        let model = CircuitGps::new(non_default_config());
        let want_link = model.predict_link(&s);
        let want_reg = model.predict_reg(&s);

        let mut bytes = Vec::new();
        model.save_checkpoint(&mut bytes).unwrap();
        let (loaded, fmt) = CircuitGps::load_checkpoint(&bytes[..]).unwrap();
        assert_eq!(fmt, CheckpointFormat::V2);
        assert_eq!(loaded.cfg, model.cfg, "embedded config must round-trip");
        assert_eq!(loaded.predict_link(&s).to_bits(), want_link.to_bits());
        assert_eq!(loaded.predict_reg(&s).to_bits(), want_reg.to_bits());
    }

    #[test]
    fn v1_container_still_loads_bitwise() {
        let s = sample();
        let model = CircuitGps::new(non_default_config());
        let want = model.predict_link(&s);
        let bytes = v1_bytes(&model);
        let ck = CircuitGps::load_checkpoint_full(&bytes[..]).unwrap();
        assert_eq!(ck.format, CheckpointFormat::V1);
        assert_eq!(ck.model.cfg, model.cfg);
        assert!(ck.sections.is_empty());
        assert_eq!(ck.model.predict_link(&s).to_bits(), want.to_bits());
    }

    #[test]
    fn sections_round_trip_and_are_ignored_by_model_only_loads() {
        let model = CircuitGps::new(non_default_config());
        let mut bytes = Vec::new();
        model
            .save_checkpoint_with_sections(
                &mut bytes,
                &[(TRAIN_STATE_SECTION, b"state-bytes"), ("notes", &[1, 2, 3])],
            )
            .unwrap();
        let ck = CircuitGps::load_checkpoint_full(&bytes[..]).unwrap();
        assert_eq!(ck.format, CheckpointFormat::V2);
        assert_eq!(ck.section(TRAIN_STATE_SECTION), Some(&b"state-bytes"[..]));
        assert_eq!(ck.section("notes"), Some(&[1u8, 2, 3][..]));
        assert_eq!(ck.section("missing"), None);
        // The shorthand loader must accept the same file.
        let (loaded, fmt) = CircuitGps::load_checkpoint(&bytes[..]).unwrap();
        assert_eq!(fmt, CheckpointFormat::V2);
        assert_eq!(loaded.cfg, model.cfg);
    }

    #[test]
    fn legacy_raw_dump_is_a_named_error_with_migration_hint() {
        let model = CircuitGps::new(ModelConfig::default());
        let mut bytes = LEGACY_MAGIC.to_vec();
        model.store().save_blob(&mut bytes).unwrap();
        let err = CircuitGps::load_checkpoint(&bytes[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::LegacyRawDump), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("\"CGPS\""), "must name the format: {msg}");
        assert!(msg.contains("re-save"), "must say how to migrate: {msg}");
    }

    #[test]
    fn corrupted_magic_is_a_named_error() {
        let model = CircuitGps::new(non_default_config());
        let mut bytes = Vec::new();
        model.save_checkpoint(&mut bytes).unwrap();
        bytes[0] = b'X';
        match CircuitGps::load_checkpoint(&bytes[..]) {
            Err(CheckpointError::BadMagic(m)) => assert_eq!(&m, b"XGPC"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn future_version_is_a_named_error() {
        let model = CircuitGps::new(non_default_config());
        let mut bytes = Vec::new();
        model.save_checkpoint(&mut bytes).unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        match CircuitGps::load_checkpoint(&bytes[..]) {
            Err(CheckpointError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, CHECKPOINT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncated_checkpoint_is_an_io_error() {
        let model = CircuitGps::new(non_default_config());
        let mut bytes = Vec::new();
        model.save_checkpoint(&mut bytes).unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(matches!(
            CircuitGps::load_checkpoint(&bytes[..]),
            Err(CheckpointError::Io(_))
        ));
    }

    #[test]
    fn every_sampled_bit_flip_is_rejected_and_body_flips_name_the_checksum() {
        let model = CircuitGps::new(non_default_config());
        let mut bytes = Vec::new();
        model
            .save_checkpoint_with_sections(&mut bytes, &[(TRAIN_STATE_SECTION, &[7u8; 40])])
            .unwrap();
        let n = bytes.len();
        // Sampled positions: the whole header + early body, a stride
        // across the param blob, and the tail including the CRC footer
        // itself. (CRC32 detects ALL single-bit flips by construction —
        // `durable::tests` proves that property exhaustively; this test
        // pins the *wiring*: verify-before-parse and the named error.)
        let mut positions: Vec<usize> = (0..64.min(n)).collect();
        positions.extend((64..n.saturating_sub(64)).step_by(509));
        positions.extend(n.saturating_sub(64)..n);
        for byte in positions {
            for bit in 0..8 {
                bytes[byte] ^= 1 << bit;
                let result = CircuitGps::load_checkpoint(&bytes[..]);
                match &result {
                    Err(e) if byte >= 16 => assert!(
                        matches!(e, CheckpointError::ChecksumMismatch { .. }),
                        "flip at {byte}:{bit} (offset >= 16) must be a checksum \
                         mismatch, got {e:?}"
                    ),
                    // Header flips (magic/version/body_len) are caught
                    // by their own named checks before the CRC can run.
                    Err(_) => {}
                    Ok(_) => panic!("flip at {byte}:{bit} silently loaded"),
                }
                bytes[byte] ^= 1 << bit;
            }
        }
        // Untouched file still loads (the flips really were reverted).
        assert!(CircuitGps::load_checkpoint(&bytes[..]).is_ok());
    }

    #[test]
    fn config_weight_mismatch_reports_shape_mismatch_by_name() {
        // A container whose embedded config disagrees with its weights
        // (written here by relabelling a non-default model as default)
        // must name the mismatched parameter and both shapes instead of
        // a bare I/O error.
        let mut model = CircuitGps::new(ModelConfig {
            hidden_dim: 16,
            pe_dim: 4,
            heads: 2,
            ..ModelConfig::default()
        });
        model.cfg = ModelConfig::default();
        let mut bytes = Vec::new();
        model.save_checkpoint(&mut bytes).unwrap();
        match CircuitGps::load_checkpoint(&bytes[..]) {
            Err(CheckpointError::Params(ParamLoadError::ShapeMismatch {
                name,
                expected,
                found,
            })) => {
                assert!(!name.is_empty());
                assert_ne!(expected, found);
                let msg = CheckpointError::Params(ParamLoadError::ShapeMismatch {
                    name: name.clone(),
                    expected,
                    found,
                })
                .to_string();
                assert!(msg.contains(&name), "{msg}");
                assert!(msg.contains("shape mismatch"), "{msg}");
            }
            other => panic!("expected a named shape mismatch, got {other:?}"),
        }
    }
}
