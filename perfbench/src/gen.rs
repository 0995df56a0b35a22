//! Seeded input generator.
//!
//! Design structures are fixed by workload name; the seed picks the
//! model weights, the query order and the parasitic labels (the
//! extraction jitter). `train_ssram` keeps one fixed set of labels: they
//! decide which pairs enter its dataset, and with them the training's
//! cost, which varied by ±15% from seed to seed. The program side
//! receives only what this module emits:
//! SPICE text, SPF text, a CGPC checkpoint and a request list. The same
//! seed gives byte-identical inputs.

use std::fs;
use std::path::Path;

use ams_datagen::{generate_with_parasitics, DesignKind, SizePreset};
use ams_netlist::SpiceFile;
use circuit_graph::{netlist_to_graph, NodeType};
use circuitgps::{crc32, CandidatePairs, CircuitGps, ModelConfig, Query};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::Workload;

/// Queries per request in `predict_mix` and `serve_mix`.
pub const REQUEST_QUERIES: usize = 8;

/// Requests per task cycle (link, link, cap, ground).
pub const CYCLE: usize = 4;

/// The task of one request; every request is task-pure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Link-existence probabilities for pairs.
    Link,
    /// Normalized coupling capacitances for pairs.
    Cap,
    /// Normalized ground capacitances for nodes.
    Ground,
}

impl Task {
    fn name(self) -> &'static str {
        match self {
            Task::Link => "link",
            Task::Cap => "cap",
            Task::Ground => "ground",
        }
    }

    fn parse(s: &str) -> Option<Task> {
        [Task::Link, Task::Cap, Task::Ground]
            .into_iter()
            .find(|t| t.name() == s)
    }
}

/// One request: a task and its query keys (`(n, n)` for ground nodes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request's task.
    pub task: Task,
    /// Pair keys, or `(n, n)` per ground node.
    pub keys: Vec<(u32, u32)>,
}

impl Request {
    /// The request as `InferenceSession::predict_batch` queries.
    pub fn queries(&self) -> Vec<Query> {
        self.keys
            .iter()
            .map(|&(a, b)| match self.task {
                Task::Link => Query::Link(a, b),
                Task::Cap => Query::Coupling(a, b),
                Task::Ground => Query::Ground(a),
            })
            .collect()
    }

    /// The request as a `POST /v1/predict` JSON body.
    pub fn body(&self) -> String {
        let items: Vec<String> = match self.task {
            Task::Ground => self.keys.iter().map(|&(n, _)| n.to_string()).collect(),
            _ => self
                .keys
                .iter()
                .map(|&(a, b)| format!("[{a},{b}]"))
                .collect(),
        };
        let field = if self.task == Task::Ground {
            "nodes"
        } else {
            "pairs"
        };
        format!(
            "{{\"task\":\"{}\",\"{field}\":[{}]}}",
            self.task.name(),
            items.join(",")
        )
    }
}

/// Everything one workload run receives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// The workload the inputs were made for.
    pub workload: Workload,
    /// The seed they were made from.
    pub seed: u64,
    /// Whether they are the minimal smoke-test sizes.
    pub smoke: bool,
    /// Top subcircuit of `spice`.
    pub top: String,
    /// Hierarchical SPICE netlist text.
    pub spice: String,
    /// SPF parasitic text (the labels).
    pub spf: String,
    /// CGPC checkpoint of the seeded model.
    pub checkpoint: Vec<u8>,
    /// Request sequence (`predict_mix` and `serve_mix` only).
    pub requests: Vec<Request>,
}

/// SplitMix64 step: derives independent sub-seeds from the one seed.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn design_of(workload: Workload, smoke: bool) -> (DesignKind, SizePreset) {
    match (workload, smoke) {
        (Workload::SweepArray, false) => (DesignKind::Array128x32, SizePreset::Tiny),
        (Workload::PredictMix | Workload::ServeMix, false) => {
            (DesignKind::TimingControl, SizePreset::Small)
        }
        (Workload::TrainSsram, _) => (DesignKind::Ssram, SizePreset::Tiny),
        (_, true) => (DesignKind::TimingControl, SizePreset::Tiny),
    }
}

/// Builds the inputs of `workload` from `seed`.
///
/// # Errors
///
/// Returns a message if the design generator or the emitted SPICE text
/// fails, which would be a bug in the generator.
pub fn generate(workload: Workload, seed: u64, smoke: bool) -> Result<Inputs, String> {
    let (kind, preset) = design_of(workload, smoke);
    let label_seed = if workload == Workload::TrainSsram {
        0
    } else {
        seed
    };
    let (design, spf) = generate_with_parasitics(kind, preset, sub_seed(label_seed, 1))
        .map_err(|e| e.to_string())?;
    let model = CircuitGps::new(ModelConfig {
        seed: sub_seed(seed, 2),
        ..ModelConfig::default()
    });
    let mut checkpoint = Vec::new();
    model
        .save_checkpoint(&mut checkpoint)
        .map_err(|e| e.to_string())?;
    let requests = match workload {
        Workload::PredictMix | Workload::ServeMix => {
            request_sequence(&design.spice, &design.name, sub_seed(seed, 3), smoke)?
        }
        _ => Vec::new(),
    };
    Ok(Inputs {
        workload,
        seed,
        smoke,
        top: design.name.clone(),
        spice: design.spice.clone(),
        spf: spf.to_text(),
        checkpoint,
        requests,
    })
}

/// The request sequence: task-pure 8-query requests rotating link, link,
/// cap, ground, with no query key repeated. Pairs come from the plain
/// graph's `CandidatePairs` enumeration and ground nodes from its nets
/// and pins, both shuffled by the seed. The graph is built from the
/// emitted SPICE text, so node ids match what the program parses.
fn request_sequence(
    spice: &str,
    top: &str,
    seed: u64,
    smoke: bool,
) -> Result<Vec<Request>, String> {
    let netlist = SpiceFile::parse(spice)
        .and_then(|f| f.flatten(top))
        .map_err(|e| e.to_string())?;
    let (graph, _) = netlist_to_graph(&netlist);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs: Vec<(u32, u32)> = CandidatePairs::new(&graph, 0, 0).collect();
    pairs.shuffle(&mut rng);
    let mut nodes: Vec<u32> = (0..graph.num_nodes() as u32)
        .filter(|&v| graph.node_type(v) != NodeType::Device)
        .collect();
    nodes.shuffle(&mut rng);

    let mut cycles = (nodes.len() / REQUEST_QUERIES).min(pairs.len() / (3 * REQUEST_QUERIES));
    if smoke {
        cycles = cycles.min(6);
    }
    let mut pair_chunks = pairs.chunks_exact(REQUEST_QUERIES);
    let mut node_chunks = nodes.chunks_exact(REQUEST_QUERIES);
    let mut out = Vec::with_capacity(CYCLE * cycles);
    for _ in 0..cycles {
        for task in [Task::Link, Task::Link, Task::Cap] {
            let keys = pair_chunks
                .next()
                .expect("cycles bounded by pairs")
                .to_vec();
            out.push(Request { task, keys });
        }
        let keys = node_chunks
            .next()
            .expect("cycles bounded by nodes")
            .iter()
            .map(|&n| (n, n))
            .collect();
        out.push(Request {
            task: Task::Ground,
            keys,
        });
    }
    Ok(out)
}

impl Inputs {
    /// CRC32 over every input byte, recorded with each result.
    pub fn digest(&self) -> u32 {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(self.manifest().as_bytes());
        bytes.extend_from_slice(self.spice.as_bytes());
        bytes.extend_from_slice(self.spf.as_bytes());
        bytes.extend_from_slice(&self.checkpoint);
        bytes.extend_from_slice(self.requests_text().as_bytes());
        crc32(&bytes)
    }

    fn manifest(&self) -> String {
        format!(
            "workload {}\nseed {}\nsmoke {}\ntop {}\n",
            self.workload.name(),
            self.seed,
            u8::from(self.smoke),
            self.top
        )
    }

    fn requests_text(&self) -> String {
        let mut out = String::new();
        for r in &self.requests {
            out.push_str(r.task.name());
            for &(a, b) in &r.keys {
                out.push_str(&format!(" {a},{b}"));
            }
            out.push('\n');
        }
        out
    }

    /// Writes the inputs as files under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors as messages.
    pub fn write_dir(&self, dir: &Path) -> Result<(), String> {
        let io = |e: std::io::Error| format!("writing {}: {e}", dir.display());
        fs::create_dir_all(dir).map_err(io)?;
        fs::write(dir.join("manifest.txt"), self.manifest()).map_err(io)?;
        fs::write(dir.join("design.sp"), &self.spice).map_err(io)?;
        fs::write(dir.join("design.spf"), &self.spf).map_err(io)?;
        fs::write(dir.join("model.cgpc"), &self.checkpoint).map_err(io)?;
        fs::write(dir.join("requests.txt"), self.requests_text()).map_err(io)
    }

    /// Reads inputs written by [`Inputs::write_dir`].
    ///
    /// # Errors
    ///
    /// Returns a message for a missing file or a malformed manifest or
    /// request line.
    pub fn read_dir(dir: &Path) -> Result<Inputs, String> {
        let read = |name: &str| {
            fs::read(dir.join(name)).map_err(|e| format!("reading {}/{name}: {e}", dir.display()))
        };
        let text =
            |name: &str| String::from_utf8(read(name)?).map_err(|_| format!("{name} is not UTF-8"));
        let manifest = text("manifest.txt")?;
        let field = |key: &str| {
            manifest
                .lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
                .ok_or_else(|| format!("manifest has no {key}"))
        };
        let workload = Workload::parse(field("workload")?).ok_or("bad manifest workload")?;
        let seed = field("seed")?.parse().map_err(|_| "bad manifest seed")?;
        let smoke = field("smoke")? == "1";
        let top = field("top")?.to_string();
        let mut requests = Vec::new();
        for line in text("requests.txt")?.lines() {
            let mut it = line.split(' ');
            let task = it
                .next()
                .and_then(Task::parse)
                .ok_or_else(|| format!("bad request line {line:?}"))?;
            let keys = it
                .map(|k| {
                    let (a, b) = k.split_once(',')?;
                    Some((a.parse().ok()?, b.parse().ok()?))
                })
                .collect::<Option<Vec<(u32, u32)>>>()
                .ok_or_else(|| format!("bad request line {line:?}"))?;
            requests.push(Request { task, keys });
        }
        Ok(Inputs {
            workload,
            seed,
            smoke,
            top,
            spice: text("design.sp")?,
            spf: text("design.spf")?,
            checkpoint: read("model.cgpc")?,
            requests,
        })
    }
}
