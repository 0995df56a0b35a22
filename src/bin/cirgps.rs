//! `cirgps` — command-line front end for the CirGPS pipeline.
//!
//! ```text
//! cirgps gen      --kind ssram --preset tiny --seed 7 --out designs/
//! cirgps stats    --netlist designs/SSRAM.sp --top SSRAM
//! cirgps sample   --netlist designs/SSRAM.sp --top SSRAM --spf designs/SSRAM.spf
//! cirgps pretrain --netlist designs/SSRAM.sp --top SSRAM --spf designs/SSRAM.spf \
//!                 --epochs 30 --out pretrained.ckpt
//! cirgps finetune --model pretrained.ckpt --netlist t.sp --top T --spf t.spf \
//!                 --shots 8 --out finetuned.ckpt
//! cirgps eval     --model finetuned.ckpt --netlist t.sp --top T --spf t.spf
//! cirgps energy   --netlist designs/SSRAM.sp --top SSRAM --spf designs/SSRAM.spf --vectors 32
//! ```

use std::collections::HashMap;
use std::fs;
use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

use cirgps::client::{Client, RetryPolicy};
use cirgps::datagen::emit::write_design_pair;
use cirgps::datagen::enumerate::{build_term, enumerate_terms, term_extract_seed};
use cirgps::datagen::{
    check_design, extract_parasitics, generate_with_parasitics, DesignKind, ExtractConfig, Family,
    SizePreset,
};
use cirgps::graph::{netlist_to_graph, CircuitGraph, GraphStats, XcSpec};
use cirgps::model::corpus::CorpusSpec;
use cirgps::model::{
    evaluate_link, evaluate_regression, finetune_regression_with_progress, interrupt,
    prepare_link_dataset, sweep_pairs, train_resumable, write_atomic, CandidatePairs, CircuitGps,
    FinetuneMode, InferenceSession, LinkMetrics, ModelConfig, PreparedSample, RegMetrics,
    ResumableTrain, SweepConfig, SweepTask, Task, TrainConfig, TrainState, TRAIN_STATE_SECTION,
};
use cirgps::netlist::{Netlist, SpfFile, SpiceFile};
use cirgps::sample::{CapNormalizer, DatasetConfig, LinkDataset, XcNormalizer};
use cirgps::serve::{ServeConfig, Server};
use cirgps::spice::{net_capacitances, simulate_energy};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // Help never flag-parses: `cirgps help gen` must print usage, not
    // complain about the positional "gen".
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    // A bad `CIRGPS_FORCE_BACKEND` fails like any other usage error, not
    // as a panic at the first kernel call.
    let result = cirgps::nn::Backend::from_env()
        .and_then(|_| parse_flags(&args[1..]))
        .and_then(|flags| match cmd.as_str() {
            "gen" => cmd_gen(&flags),
            "datagen" => cmd_datagen(&flags),
            "stats" => cmd_stats(&flags),
            "sample" => cmd_sample(&flags),
            "pretrain" => cmd_pretrain(&flags),
            "finetune" => cmd_finetune(&flags),
            "eval" => cmd_eval(&flags),
            "predict" => cmd_predict(&flags),
            "sweep" => cmd_sweep(&flags),
            "serve" => cmd_serve(&flags),
            "client" => cmd_client(&flags),
            "energy" => cmd_energy(&flags),
            other => Err(format!("unknown command {other:?}\n{USAGE}")),
        });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
cirgps — few-shot parasitic prediction pipeline

USAGE:
  cirgps gen    --kind <ssram|ultra8t|sandwich|clkgen|timing|array>
                [--preset tiny|small|paper] [--seed N] [--out DIR]
      Generate a synthetic AMS design; writes <NAME>.sp and <NAME>.spf.

  cirgps datagen [--family all|chain|tree|bus|fabric|array|sandwich]
                [--seed N] [--max-size S] [--min-size S] [--count K]
                [--out DIR] [--threads N] [--list]
      Enumerate the composition grammar's design space: every structure
      whose size estimate falls in [--min-size, --max-size], in a
      canonical deterministic order, validity-filtered and written as
      the same <NAME>.sp + <NAME>.spf pairs `gen` produces
      (docs/datagen.md has the grammar reference).
        --family F        restrict to one grammar family (default all)
        --seed N          parasitic-extraction seed; the SPICE structure
                          is seed-independent (default 7)
        --max-size S      upper size-estimate bound (default 4000;
                          roughly heterogeneous-graph nodes)
        --min-size S      lower size-estimate bound (default 0)
        --count K         stop after the first K designs (default all)
        --out DIR         output directory (default .)
        --threads N       parallel builders; output bytes are identical
                          for every N (default 1)
        --list            print name/family/size-estimate per design
                          without building anything

  cirgps stats  --netlist FILE.sp --top NAME
      Parse + flatten a SPICE netlist and print heterogeneous-graph
      statistics (Table IV format) and the Table-I feature spec.

  cirgps sample --netlist FILE.sp --top NAME --spf FILE.spf
                [--per-type N]
      Join SPF couplings, build the balanced link dataset with 1-hop
      enclosing subgraphs, and print dataset statistics.

  cirgps pretrain --netlist A.sp[,B.sp...] --top A[,B...] --spf A.spf[,B.spf...]
                [--grammar FAMILY[:MAX_SIZE[:COUNT[:MIN_SIZE]]]]
                [--epochs N] [--batch-size N] [--lr F] [--seed N]
                [--per-type N] [--hidden-dim N] [--layers N] [--heads N]
                [--pe-dim N] [--dropout F] [--holdout PCT] [--eval-every N]
                [--checkpoint-every N] [--resume]
                [--metrics-out FILE.json] --out FILE.ckpt
      Pre-train CircuitGPS on coupling link prediction over one or more
      design pairs (comma-separated lists, aligned by position), then
      write a self-describing checkpoint (embedded model config; see
      docs/checkpoint-format.md). Progress streams to stderr per epoch.
      `--grammar` appends enumerated grammar designs to the corpus
      without touching disk (and makes the file flags optional);
      `chain:900:4` = first 4 chain designs under size 900.
        --epochs N        training epochs (default 30)
        --batch-size N    minibatch size (default 32)
        --lr F            peak learning rate (default 1e-3)
        --seed N          model init + shuffling seed (default 7)
        --per-type N      positive couplings sampled per type (default 200)
        --hidden-dim/--layers/--heads/--pe-dim/--dropout
                          model architecture overrides (defaults
                          32/3/4/8/0.1); recorded in the checkpoint, so
                          downstream commands need no matching flags
        --holdout PCT     percent of samples held out for eval (default
                          10; 0 trains on everything)
        --eval-every N    evaluate the held-out split every N epochs
        --checkpoint-every N
                          write a resumable snapshot to --out every N
                          epochs (the previous one rotates to .bak); all
                          writes are atomic + durable, so a crash at any
                          point leaves a loadable snapshot
        --resume          continue an interrupted run from the snapshot
                          at --out (or its .bak); requires the same
                          training/data flags, reproduces the
                          uninterrupted run's final metrics. SIGINT or
                          SIGTERM stops at the next epoch boundary and
                          writes a final snapshot (docs/robustness.md)
        --metrics-out F   write a JSON training log (per-epoch loss,
                          periodic + final eval metrics)

  cirgps finetune --model PRE.ckpt --netlist FILE.sp --top NAME
                --spf FILE.spf --shots N [--unfreeze-all]
                [--epochs N] [--batch-size N] [--lr F] [--seed N]
                [--per-type N] [--eval-every N]
                [--metrics-out FILE.json] --out FILE.ckpt
      Few-shot fine-tune a pre-trained checkpoint for capacitance
      regression on a target design: N labeled positive pairs train the
      regression head (backbone frozen by default, the paper's few-shot
      recipe); the remaining labeled pairs become the held-out eval set.
        --shots N         labeled pairs to fine-tune on (spread evenly
                          over the positives)
        --unfreeze-all    also fine-tune encoders + GPS layers
        --epochs N        fine-tuning epochs (default 50)

  cirgps eval   --model FILE.ckpt --netlist FILE.sp[,...] --top NAME[,...]
                --spf FILE.spf[,...] [--grammar SPEC]
                [--task link|cap|both] [--per-type N]
      Evaluate a checkpoint on the designs' sampled pair sets and print
      one JSON object to stdout: link metrics (accuracy/F1/AUC) over all
      pairs and/or regression metrics (MAE/RMSE/R2, normalized scale)
      over the labeled positives.

  cirgps predict --netlist FILE.sp --top NAME --spf FILE.spf
                [--task link|cap] [--batch-size N] [--per-type N]
                [--model FILE.ckpt] [--out FILE.json]
      Score the design's candidate coupling pairs with the batched
      tape-free inference engine (block-diagonal attention).
        --task link|cap   link probability (default) or normalized +
                          decoded coupling capacitance per pair
        --batch-size N    samples per packed batch (default 32)
        --per-type N      candidate pairs sampled per coupling type
                          (default 200)
        --model FILE      load a checkpoint (`cirgps pretrain`/`finetune`
                          output; the model is rebuilt from the embedded
                          config). Without it a freshly initialized
                          default model is used (structure-only smoke
                          predictions)
        --out FILE.json   write JSON lines there instead of stdout
      Output: one JSON object per candidate pair.

  cirgps sweep  --netlist FILE.sp --top NAME [--model FILE.ckpt]
                [--task link|cap] [--pairs FILE] [--per-node-cap N]
                [--max-pairs N] [--chunk N] [--threads N]
                [--format jsonl|csv] [--out FILE]
      Plan and execute a full-chip sweep: score *every* candidate pair
      of the design (or an explicit pair list) as one batched job with
      shared subgraph extraction and neighborhood deduplication,
      streaming results with bounded memory (see docs/sweep.md).
      Bitwise parity contract: each pair's value equals what `cirgps
      predict` emits for that pair with the same model.
        --task link|cap   link probability (default) or normalized +
                          decoded coupling capacitance per pair
        --pairs FILE      score these pairs instead of enumerating: one
                          pair per line, `a,b` or `a b` node ids
                          (`#` comments allowed)
        --per-node-cap N  max partners enumerated per anchor node
                          (bounds hub-net blowup; default 0 = all)
        --max-pairs N     stop enumerating after N pairs (default 0 =
                          sweep everything)
        --chunk N         pairs per planned window — the bounded-memory
                          knob; results flush once per window
                          (default 4096)
        --threads N       forward-pass slices, run on at most one
                          worker per core (default 1)
        --format jsonl|csv
                          output format (default jsonl, same fields as
                          `cirgps predict` minus the dataset label)
        --out FILE        write results there instead of stdout
      Prints planner statistics (pairs, unique forwards, dedup rate,
      amortized µs/pair) to stderr.

  cirgps serve  --netlist FILE.sp --top NAME [--model FILE.ckpt]
                [--addr HOST:PORT] [--max-batch N] [--workers N]
                [--queue-cap N] [--cache-cap N]
                [--drain-timeout-ms N] [--request-timeout-ms N]
      Run the long-lived inference daemon: model, graph and sample
      caches stay warm, and concurrent HTTP queries are coalesced into
      packed batches by the dynamic micro-batcher (see docs/serving.md).
        --addr         listen address (default 127.0.0.1:8321)
        --max-batch    at most N queries per batch; a worker takes what
                       is queued and never waits for more (default 32)
        --workers      scheduler threads (default 2)
        --queue-cap    queue depth before 503 backpressure (default 1024)
        --cache-cap    per-worker answer cache, in predictions (default 65536)
        --drain-timeout-ms
                       on SIGTERM/SIGINT: how long the graceful drain
                       waits for open connections before force-closing
                       them (default 5000; docs/robustness.md)
        --request-timeout-ms
                       per-request deadline; a request not answered in
                       time gets 504 instead of hanging (default 30000)
        --max-body-bytes
                       reject request bodies larger than this with 413
                       (default 8388608)
        --max-headers  reject requests with more header lines with 400
                       (default 64)
        --idle-timeout-ms
                       close a keep-alive connection idle this long
                       (default 60000)
        --ingress-timeout-ms
                       wall-clock budget for reading one request once
                       its first byte arrives; slow-loris senders get
                       408 (default 10000)
        --max-conns    concurrent-connection cap; excess connections are
                       shed with 503 + Retry-After (default 256)
      Endpoints: GET /healthz, GET /metrics, POST /v1/predict,
      POST /v1/sweep (chunked JSONL bulk sweep).

  cirgps client [--addr HOST:PORT] [--method GET|POST] [--path P]
                [--body JSON | --body-file FILE]
                [--retries N] [--deadline-ms N] [--seed N]
      Query a running daemon through the retrying client: exponential
      backoff with decorrelated jitter, Retry-After honoring, and a
      total deadline budget (docs/robustness.md has the recipe).
      `--path /v1/sweep` streams the chunked JSONL response to stdout
      as it arrives; other paths print the response body.
        --addr         daemon address (default 127.0.0.1:8321)
        --method       GET (default) or POST
        --path P       request path (default /healthz)
        --body JSON    inline request body
        --body-file F  read the request body from a file
        --retries N    attempts before giving up (default 6)
        --deadline-ms N
                       total budget across all attempts (default 30000)
        --seed N       backoff jitter seed (default 24301)

  cirgps energy --netlist FILE.sp --top NAME --spf FILE.spf
                [--vectors N] [--vdd V] [--seed N]
      Run the switch-level simulator and report switching energy.";

/// Parses `--flag value` pairs. Rejects positional arguments; a flag
/// followed by another flag (or nothing) gets an empty value, which the
/// per-command validators then report with the flag's name.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let value = match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    i += 2;
                    v.clone()
                }
                _ => {
                    i += 1;
                    String::new()
                }
            };
            flags.insert(key.to_string(), value);
        } else {
            return Err(format!(
                "unexpected positional argument {:?} (flags are --name value pairs)",
                args[i]
            ));
        }
    }
    Ok(flags)
}

/// Rejects flags a command does not understand, naming the failing flag
/// and listing what the command accepts.
fn check_flags(flags: &HashMap<String, String>, cmd: &str, allowed: &[&str]) -> Result<(), String> {
    let mut unknown: Vec<&str> = flags
        .keys()
        .map(String::as_str)
        .filter(|k| !allowed.contains(k))
        .collect();
    unknown.sort_unstable();
    if let Some(first) = unknown.first() {
        return Err(format!(
            "unknown flag --{first} for `cirgps {cmd}` (expected {})",
            allowed
                .iter()
                .map(|f| format!("--{f}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    Ok(())
}

fn design_kind(name: &str) -> Result<DesignKind, String> {
    Ok(match name {
        "ssram" => DesignKind::Ssram,
        "ultra8t" => DesignKind::Ultra8t,
        "sandwich" => DesignKind::SandwichRam,
        "clkgen" => DesignKind::DigitalClkGen,
        "timing" => DesignKind::TimingControl,
        "array" => DesignKind::Array128x32,
        other => return Err(format!("unknown design kind {other:?}")),
    })
}

fn preset(flags: &HashMap<String, String>) -> Result<SizePreset, String> {
    Ok(
        match flags.get("preset").map(String::as_str).unwrap_or("tiny") {
            "tiny" => SizePreset::Tiny,
            "small" => SizePreset::Small,
            "paper" => SizePreset::Paper,
            other => return Err(format!("unknown preset {other:?}")),
        },
    )
}

fn seed(flags: &HashMap<String, String>) -> Result<u64, String> {
    flag_parse(flags, "seed", 7)
}

/// Parses an optional `--name value` flag, falling back to `default`
/// when absent. The value type is inferred from the default.
fn flag_parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    flags
        .get(name)
        .map(|s| s.parse().map_err(|_| format!("bad --{name} {s:?}")))
        .unwrap_or(Ok(default))
}

fn load_netlist(flags: &HashMap<String, String>) -> Result<Netlist, String> {
    let path = flags.get("netlist").ok_or("--netlist is required")?;
    let top = flags.get("top").ok_or("--top is required")?;
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let file = SpiceFile::parse(&text).map_err(|e| e.to_string())?;
    file.flatten(top).map_err(|e| e.to_string())
}

fn load_spf(flags: &HashMap<String, String>) -> Result<SpfFile, String> {
    let path = flags.get("spf").ok_or("--spf is required")?;
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    SpfFile::parse(&text).map_err(|e| e.to_string())
}

/// Presence-style boolean flag: `--name` (no value) or `--name true`.
fn flag_bool(flags: &HashMap<String, String>, name: &str) -> Result<bool, String> {
    match flags.get(name).map(String::as_str) {
        None | Some("false") => Ok(false),
        Some("") | Some("true") => Ok(true),
        Some(other) => Err(format!(
            "bad --{name} {other:?} (a presence flag; give it no value)"
        )),
    }
}

/// One parsed training/evaluation design: flattened netlist + SPF join.
struct DesignPair {
    netlist: Netlist,
    spf: SpfFile,
}

/// Loads the `--netlist`/`--top`/`--spf` comma-separated design lists
/// (aligned by position) used by the training subcommands, plus any
/// `--grammar` corpus (enumerated in memory, no files involved).
fn load_design_pairs(flags: &HashMap<String, String>) -> Result<Vec<DesignPair>, String> {
    let grammar = match flags.get("grammar") {
        Some(spec) => {
            let spec = CorpusSpec::parse(spec)?;
            let corpus = spec.load(seed(flags)?);
            if corpus.len() < spec.count {
                return Err(format!(
                    "--grammar window holds only {} design(s), asked for {} (widen the \
                     size bounds)",
                    corpus.len(),
                    spec.count
                ));
            }
            corpus
        }
        None => Vec::new(),
    };
    let split = |name: &str| -> Result<Vec<String>, String> {
        let listed = flags.get(name).map(String::as_str).unwrap_or("");
        if listed.is_empty() && !grammar.is_empty() {
            return Ok(Vec::new());
        }
        Ok(flags
            .get(name)
            .ok_or(format!("--{name} is required (or use --grammar)"))?
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect())
    };
    let netlists = split("netlist")?;
    let tops = split("top")?;
    let spfs = split("spf")?;
    if netlists.is_empty() && grammar.is_empty() {
        return Err("--netlist lists no files".into());
    }
    if netlists.len() != tops.len() || netlists.len() != spfs.len() {
        return Err(format!(
            "--netlist/--top/--spf list lengths differ ({}/{}/{}); they align by position",
            netlists.len(),
            tops.len(),
            spfs.len()
        ));
    }
    let mut pairs = Vec::with_capacity(netlists.len() + grammar.len());
    for ((path, top), spf_path) in netlists.iter().zip(&tops).zip(&spfs) {
        let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let file = SpiceFile::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let netlist = file.flatten(top).map_err(|e| format!("{path}: {e}"))?;
        let text = fs::read_to_string(spf_path).map_err(|e| format!("reading {spf_path}: {e}"))?;
        let spf = SpfFile::parse(&text).map_err(|e| format!("{spf_path}: {e}"))?;
        pairs.push(DesignPair { netlist, spf });
    }
    for d in grammar {
        pairs.push(DesignPair {
            netlist: d.netlist,
            spf: d.spf,
        });
    }
    Ok(pairs)
}

/// Builds the pooled, prepared link dataset over every design pair: one
/// balanced `LinkDataset` per design, an `XcNormalizer` fitted across
/// *all* graphs (so circuit statistics share one scale), capacitance
/// targets encoded with the paper's log-range normalizer.
fn build_link_samples(
    pairs: &[DesignPair],
    per_type: usize,
    pe: cirgps::pe::PeKind,
) -> Result<(Vec<String>, Vec<PreparedSample>), String> {
    let mut names = Vec::with_capacity(pairs.len());
    let mut built: Vec<(CircuitGraph, LinkDataset)> = Vec::with_capacity(pairs.len());
    for pair in pairs {
        let (graph, map) = netlist_to_graph(&pair.netlist);
        let ds = LinkDataset::build(
            &pair.netlist.name,
            &graph,
            &pair.netlist,
            &map,
            &pair.spf,
            &DatasetConfig {
                max_per_type: per_type,
                ..Default::default()
            },
        );
        if ds.is_empty() {
            return Err(format!(
                "design {} produced no link samples (is the SPF empty?)",
                pair.netlist.name
            ));
        }
        names.push(pair.netlist.name.clone());
        built.push((graph, ds));
    }
    let graphs: Vec<&CircuitGraph> = built.iter().map(|(g, _)| g).collect();
    let xcn = XcNormalizer::fit(&graphs);
    let cap = CapNormalizer::paper_range();
    let mut samples = Vec::new();
    for (_, ds) in &built {
        samples.extend(prepare_link_dataset(ds, pe, &xcn, |c| cap.encode(c)));
    }
    Ok((names, samples))
}

/// Loads a checkpoint file via the self-describing container.
fn load_checkpoint_file(path: &str) -> Result<CircuitGps, String> {
    let f = fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (model, _format) = CircuitGps::load_checkpoint(std::io::BufReader::new(f))
        .map_err(|e| format!("loading checkpoint {path}: {e}"))?;
    Ok(model)
}

/// Serializes a checkpoint (optionally with a resumable-training-state
/// section) and writes it atomically + durably: no crash can leave a
/// half-written file at `path` (see `docs/robustness.md`).
fn save_checkpoint_bytes(
    model: &CircuitGps,
    state: Option<&TrainState>,
    path: &str,
) -> Result<(), String> {
    let mut bytes = Vec::new();
    let result = match state {
        Some(st) => model.save_checkpoint_with_sections(
            &mut bytes,
            &[(TRAIN_STATE_SECTION, &st.to_bytes()[..])],
        ),
        None => model.save_checkpoint(&mut bytes),
    };
    result.map_err(|e| format!("serializing checkpoint {path}: {e}"))?;
    write_atomic(std::path::Path::new(path), &bytes)
        .map_err(|e| format!("writing checkpoint {path}: {e}"))
}

fn save_checkpoint_file(model: &CircuitGps, path: &str) -> Result<(), String> {
    save_checkpoint_bytes(model, None, path)
}

/// Writes a rolling training snapshot: the previous snapshot at `path`
/// is first rotated to `path.bak`, so even an injected fault *inside*
/// the new write (torn temp file, kill before rename) leaves the last
/// good snapshot loadable — `--resume` falls back to `.bak`.
fn save_snapshot(model: &CircuitGps, state: &TrainState, path: &str) -> Result<(), String> {
    let bak = format!("{path}.bak");
    if fs::metadata(path).is_ok() {
        fs::rename(path, &bak).map_err(|e| format!("rotating {path} -> {bak}: {e}"))?;
    }
    save_checkpoint_bytes(model, Some(state), path)
}

/// Loads the checkpoint `--resume` points at, falling back to the
/// `.bak` rotation sibling when the primary is missing or corrupt (the
/// "crashed mid-snapshot" case the chaos suite exercises).
fn load_resume_checkpoint(path: &str) -> Result<cirgps::model::Checkpoint, String> {
    let try_load = |p: &str| -> Result<cirgps::model::Checkpoint, String> {
        let f = fs::File::open(p).map_err(|e| format!("reading {p}: {e}"))?;
        CircuitGps::load_checkpoint_full(std::io::BufReader::new(f))
            .map_err(|e| format!("loading checkpoint {p}: {e}"))
    };
    match try_load(path) {
        Ok(ck) => Ok(ck),
        Err(primary) => {
            let bak = format!("{path}.bak");
            eprintln!("warning: {primary}; trying rotation sibling {bak}");
            try_load(&bak).map_err(|fallback| format!("{primary}; {fallback}"))
        }
    }
}

/// Interleaved holdout split: `pct` percent of samples (the dataset is
/// already shuffled at construction), spread evenly over the sequence
/// by Bresenham selection — exact for any `pct`, not just divisors of
/// 100. Deterministic, so reruns agree.
fn split_holdout(
    samples: Vec<PreparedSample>,
    pct: usize,
) -> (Vec<PreparedSample>, Vec<PreparedSample>) {
    if pct == 0 || samples.len() < 2 {
        return (samples, Vec::new());
    }
    let pct = pct.clamp(1, 50);
    let mut train = Vec::with_capacity(samples.len());
    let mut holdout = Vec::with_capacity(samples.len() * pct / 100 + 1);
    for (i, s) in samples.into_iter().enumerate() {
        if (i * pct) % 100 < pct {
            holdout.push(s);
        } else {
            train.push(s);
        }
    }
    (train, holdout)
}

fn json_link(m: &LinkMetrics) -> String {
    format!(
        "{{\"accuracy\":{:.6},\"f1\":{:.6},\"auc\":{:.6}}}",
        m.accuracy, m.f1, m.auc
    )
}

fn json_reg(m: &RegMetrics) -> String {
    format!(
        "{{\"mae\":{:.6},\"rmse\":{:.6},\"r2\":{:.6}}}",
        m.mae, m.rmse, m.r2
    )
}

fn json_str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("{s:?}")).collect();
    format!("[{}]", quoted.join(","))
}

/// Assembles and optionally writes the `--metrics-out` JSON training
/// log: per-epoch loss records, periodic eval records, final metrics.
fn write_metrics_log(
    flags: &HashMap<String, String>,
    command: &str,
    designs: &[String],
    epoch_lines: &[String],
    eval_lines: &[String],
    final_json: &str,
    seconds: f64,
) -> Result<(), String> {
    let Some(path) = flags.get("metrics-out") else {
        return Ok(());
    };
    let log = format!(
        "{{\"command\":{command:?},\"designs\":{},\"epochs\":[{}],\"eval\":[{}],\
         \"final\":{final_json},\"seconds\":{seconds:.3}}}\n",
        json_str_list(designs),
        epoch_lines.join(","),
        eval_lines.join(","),
    );
    // Atomic + durable: a crash mid-write must not leave torn JSON for
    // downstream tooling to choke on.
    write_atomic(std::path::Path::new(path), log.as_bytes())
        .map_err(|e| format!("writing {path}: {e}"))
}

fn cmd_pretrain(flags: &HashMap<String, String>) -> Result<(), String> {
    check_flags(
        flags,
        "pretrain",
        &[
            "netlist",
            "top",
            "spf",
            "grammar",
            "per-type",
            "epochs",
            "batch-size",
            "lr",
            "seed",
            "hidden-dim",
            "layers",
            "heads",
            "pe-dim",
            "dropout",
            "holdout",
            "eval-every",
            "checkpoint-every",
            "resume",
            "metrics-out",
            "out",
        ],
    )?;
    let out = flags
        .get("out")
        .ok_or("--out is required (checkpoint path to write)")?;
    let checkpoint_every = flag_parse(flags, "checkpoint-every", 0usize)?;
    let resume = flag_bool(flags, "resume")?;
    let per_type = flag_parse(flags, "per-type", 200)?;
    let holdout_pct = flag_parse(flags, "holdout", 10)?;
    if holdout_pct > 50 {
        return Err(format!(
            "--holdout {holdout_pct} must be 0..=50 (percent of samples held out)"
        ));
    }
    let eval_every = flag_parse(flags, "eval-every", 0)?;
    let run_seed = seed(flags)?;

    let defaults = ModelConfig::default();
    let mc = ModelConfig {
        hidden_dim: flag_parse(flags, "hidden-dim", defaults.hidden_dim)?,
        num_layers: flag_parse(flags, "layers", defaults.num_layers)?,
        heads: flag_parse(flags, "heads", defaults.heads)?,
        pe_dim: flag_parse(flags, "pe-dim", defaults.pe_dim)?,
        dropout: flag_parse(flags, "dropout", defaults.dropout)?,
        seed: run_seed,
        ..defaults
    };
    mc.check()
        .map_err(|e| format!("invalid model config: {e}"))?;
    let tc = TrainConfig {
        epochs: flag_parse(flags, "epochs", 30)?,
        batch_size: flag_parse(flags, "batch-size", 32)?,
        lr: flag_parse(flags, "lr", 1e-3)?,
        seed: run_seed,
        ..Default::default()
    };
    if tc.epochs == 0 || tc.batch_size == 0 {
        return Err("--epochs and --batch-size must be positive".into());
    }

    // `--resume` restores the model AND the training state from the
    // snapshot at --out (falling back to its .bak rotation sibling); a
    // fresh run builds the model from the architecture flags. The data
    // flags must match the interrupted run too — the dataset build is
    // deterministic, so identical flags give an identical sample set.
    let (mut model, resume_state) = if resume {
        let ck = load_resume_checkpoint(out)?;
        let Some(bytes) = ck.section(TRAIN_STATE_SECTION) else {
            return Err(format!(
                "{out} carries no training state — it is a completed checkpoint, not an \
                 interrupted-run snapshot; nothing to resume"
            ));
        };
        let st = TrainState::from_bytes(bytes).map_err(|e| format!("{out}: {e}"))?;
        st.check_resume(Task::LinkPrediction, &tc)
            .map_err(|e| format!("cannot resume from {out}: {e}"))?;
        if st.epochs_done >= tc.epochs {
            return Err(format!(
                "{out} already has all {} epochs done; nothing to resume (raise --epochs only \
                 by restarting — the cosine schedule horizon is part of the run)",
                tc.epochs
            ));
        }
        eprintln!(
            "resuming {out} at epoch {}/{} (model config comes from the snapshot)",
            st.epochs_done, tc.epochs
        );
        (ck.model, Some(st))
    } else {
        (CircuitGps::new(mc), None)
    };

    let pairs = load_design_pairs(flags)?;
    let (designs, samples) = build_link_samples(&pairs, per_type, model.cfg.pe)?;
    let (train_set, holdout) = split_holdout(samples, holdout_pct);
    eprintln!(
        "pretrain: {} samples over {} design(s) ({} held out), model {}d x {}L x {}h ({} params)",
        train_set.len() + holdout.len(),
        designs.len(),
        holdout.len(),
        model.cfg.hidden_dim,
        model.cfg.num_layers,
        model.cfg.heads,
        model.num_params()
    );
    // Restored epochs re-enter the metrics log so the record always
    // spans epoch 1..last (loss only; wall-clock detail lived in the
    // interrupted process).
    let mut epoch_lines: Vec<String> = resume_state
        .as_ref()
        .map(|st| {
            st.epoch_losses
                .iter()
                .enumerate()
                .map(|(i, l)| format!("{{\"epoch\":{},\"loss\":{l:.6}}}", i + 1))
                .collect()
        })
        .unwrap_or_default();
    let mut eval_lines = Vec::new();
    interrupt::install();
    let outcome = train_resumable(
        &mut model,
        &train_set,
        &tc,
        ResumableTrain {
            task: Task::LinkPrediction,
            resume: resume_state,
            stop: Some(interrupt::flag()),
        },
        &mut |m, p| {
            eprintln!(
                "epoch {:>3}/{}: loss {:.4} (lr {:.2e}, {:.1}s)",
                p.epoch, p.epochs, p.loss, p.lr, p.seconds
            );
            epoch_lines.push(format!(
                "{{\"epoch\":{},\"loss\":{:.6},\"lr\":{:.6e},\"seconds\":{:.3}}}",
                p.epoch, p.loss, p.lr, p.seconds
            ));
            if eval_every > 0 && p.epoch % eval_every == 0 && !holdout.is_empty() {
                let lm = evaluate_link(m, &holdout);
                eprintln!(
                    "  holdout: accuracy {:.3}, F1 {:.3}, AUC {:.3}",
                    lm.accuracy, lm.f1, lm.auc
                );
                eval_lines.push(format!(
                    "{{\"epoch\":{},\"accuracy\":{:.6},\"f1\":{:.6},\"auc\":{:.6}}}",
                    p.epoch, lm.accuracy, lm.f1, lm.auc
                ));
            }
        },
        &mut |m, st| {
            if checkpoint_every > 0
                && st.epochs_done < tc.epochs
                && st.epochs_done % checkpoint_every == 0
            {
                match save_snapshot(m, st, out) {
                    Ok(()) => {
                        eprintln!("snapshot: {out} at epoch {}/{}", st.epochs_done, tc.epochs)
                    }
                    // A failed snapshot must not kill a healthy training
                    // run — the next interval (or the final write) retries.
                    Err(e) => {
                        eprintln!("warning: snapshot at epoch {} failed: {e}", st.epochs_done)
                    }
                }
            }
        },
    );
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            // The rolling snapshot written at the last epoch boundary is
            // untouched — after fixing the divergence (data, lr), resume
            // from it with `--resume`.
            return Err(format!(
                "training aborted: {e}; the most recent rolling snapshot is still \
                 valid — fix the run and continue with `cirgps pretrain --resume`"
            ));
        }
    };
    let hist = outcome.history;

    if outcome.interrupted {
        save_snapshot(&model, &outcome.state, out)?;
        println!(
            "interrupted: wrote resumable snapshot {out} at epoch {}/{} — continue with \
             `cirgps pretrain --resume` and the same flags",
            outcome.state.epochs_done, tc.epochs
        );
        return Ok(());
    }

    let (final_set, final_label) = if holdout.is_empty() {
        (&train_set, "train")
    } else {
        (&holdout, "holdout")
    };
    let lm = evaluate_link(&model, final_set);
    eprintln!(
        "final {final_label} metrics: accuracy {:.3}, F1 {:.3}, AUC {:.3}",
        lm.accuracy, lm.f1, lm.auc
    );
    write_metrics_log(
        flags,
        "pretrain",
        &designs,
        &epoch_lines,
        &eval_lines,
        &json_link(&lm),
        hist.seconds,
    )?;
    save_checkpoint_file(&model, out)?;
    println!(
        "wrote {out}: {} trainable params, {} epochs, final loss {:.4}, {final_label} AUC {:.3}",
        model.num_params(),
        hist.epoch_losses.len(),
        hist.epoch_losses.last().copied().unwrap_or(f32::NAN),
        lm.auc
    );
    Ok(())
}

fn cmd_finetune(flags: &HashMap<String, String>) -> Result<(), String> {
    check_flags(
        flags,
        "finetune",
        &[
            "model",
            "netlist",
            "top",
            "spf",
            "shots",
            "unfreeze-all",
            "per-type",
            "epochs",
            "batch-size",
            "lr",
            "seed",
            "eval-every",
            "metrics-out",
            "out",
        ],
    )?;
    let out = flags
        .get("out")
        .ok_or("--out is required (checkpoint path to write)")?;
    let model_path = flags
        .get("model")
        .ok_or("--model is required (a pretrained checkpoint)")?;
    let shots = flag_parse(flags, "shots", 0)?;
    if shots == 0 {
        return Err("--shots is required (labeled pairs to fine-tune on, >= 1)".into());
    }
    let unfreeze_all = flag_bool(flags, "unfreeze-all")?;
    let per_type = flag_parse(flags, "per-type", 200)?;
    let eval_every = flag_parse(flags, "eval-every", 0)?;
    let tc = TrainConfig {
        epochs: flag_parse(flags, "epochs", 50)?,
        batch_size: flag_parse(flags, "batch-size", 8)?,
        lr: flag_parse(flags, "lr", 1e-3)?,
        seed: seed(flags)?,
        ..Default::default()
    };
    if tc.epochs == 0 || tc.batch_size == 0 {
        return Err("--epochs and --batch-size must be positive".into());
    }

    let mut model = load_checkpoint_file(model_path)?;
    let pairs = load_design_pairs(flags)?;
    let (designs, samples) = build_link_samples(&pairs, per_type, model.cfg.pe)?;

    // Few-shot selection: only positives carry capacitance labels. The
    // shots are spread evenly over the (already shuffled) positive set;
    // the rest become the held-out evaluation set.
    let positives: Vec<PreparedSample> = samples.into_iter().filter(|s| s.label > 0.5).collect();
    if shots >= positives.len() {
        return Err(format!(
            "--shots {shots} must be < the {} labeled positive pairs (some must remain held \
             out for evaluation; raise --per-type for more)",
            positives.len()
        ));
    }
    let stride = positives.len() / shots;
    let mut shot_set = Vec::with_capacity(shots);
    let mut eval_set = Vec::with_capacity(positives.len() - shots);
    for (i, s) in positives.into_iter().enumerate() {
        if i % stride == 0 && shot_set.len() < shots {
            shot_set.push(s);
        } else {
            eval_set.push(s);
        }
    }
    let mode = if unfreeze_all {
        FinetuneMode::All
    } else {
        FinetuneMode::HeadOnly
    };
    eprintln!(
        "finetune: {} shots / {} held-out labeled pairs, backbone {}",
        shot_set.len(),
        eval_set.len(),
        if unfreeze_all { "unfrozen" } else { "frozen" }
    );

    let mut epoch_lines = Vec::new();
    let mut eval_lines = Vec::new();
    let hist = finetune_regression_with_progress(&mut model, &shot_set, mode, &tc, &mut |m, p| {
        eprintln!(
            "epoch {:>3}/{}: loss {:.4} (lr {:.2e}, {:.1}s)",
            p.epoch, p.epochs, p.loss, p.lr, p.seconds
        );
        epoch_lines.push(format!(
            "{{\"epoch\":{},\"loss\":{:.6},\"lr\":{:.6e},\"seconds\":{:.3}}}",
            p.epoch, p.loss, p.lr, p.seconds
        ));
        if eval_every > 0 && p.epoch % eval_every == 0 {
            let rm = evaluate_regression(m, &eval_set);
            eprintln!(
                "  holdout: MAE {:.4}, RMSE {:.4}, R2 {:.3}",
                rm.mae, rm.rmse, rm.r2
            );
            eval_lines.push(format!(
                "{{\"epoch\":{},\"mae\":{:.6},\"rmse\":{:.6},\"r2\":{:.6}}}",
                p.epoch, rm.mae, rm.rmse, rm.r2
            ));
        }
    })
    .map_err(|e| format!("training aborted: {e}"))?;

    let rm = evaluate_regression(&model, &eval_set);
    eprintln!(
        "final holdout metrics (normalized scale): MAE {:.4}, RMSE {:.4}, R2 {:.3}",
        rm.mae, rm.rmse, rm.r2
    );
    write_metrics_log(
        flags,
        "finetune",
        &designs,
        &epoch_lines,
        &eval_lines,
        &json_reg(&rm),
        hist.seconds,
    )?;
    save_checkpoint_file(&model, out)?;
    println!(
        "wrote {out}: fine-tuned on {} shots ({} mode), holdout MAE {:.4}",
        shot_set.len(),
        if unfreeze_all { "all" } else { "head-only" },
        rm.mae
    );
    Ok(())
}

fn cmd_eval(flags: &HashMap<String, String>) -> Result<(), String> {
    check_flags(
        flags,
        "eval",
        &[
            "model", "netlist", "top", "spf", "grammar", "task", "per-type",
        ],
    )?;
    let model_path = flags.get("model").ok_or("--model is required")?;
    let per_type = flag_parse(flags, "per-type", 200)?;
    let task = flags.get("task").map(String::as_str).unwrap_or("both");
    if !matches!(task, "link" | "cap" | "both") {
        return Err(format!(
            "unknown --task {task:?} (expected link, cap or both)"
        ));
    }
    let model = load_checkpoint_file(model_path)?;
    let pairs = load_design_pairs(flags)?;
    let (designs, samples) = build_link_samples(&pairs, per_type, model.cfg.pe)?;
    let positives: Vec<PreparedSample> =
        samples.iter().filter(|s| s.label > 0.5).cloned().collect();

    let mut fields = vec![
        format!("\"designs\":{}", json_str_list(&designs)),
        format!("\"samples\":{}", samples.len()),
        format!("\"positives\":{}", positives.len()),
    ];
    if matches!(task, "link" | "both") {
        let lm = evaluate_link(&model, &samples);
        fields.push(format!("\"link\":{}", json_link(&lm)));
    }
    if matches!(task, "cap" | "both") {
        if positives.is_empty() {
            return Err("no labeled positive pairs to evaluate regression on".into());
        }
        let rm = evaluate_regression(&model, &positives);
        fields.push(format!("\"reg\":{}", json_reg(&rm)));
    }
    println!("{{{}}}", fields.join(","));
    Ok(())
}

fn cmd_gen(flags: &HashMap<String, String>) -> Result<(), String> {
    check_flags(flags, "gen", &["kind", "preset", "seed", "out"])?;
    let kind = design_kind(flags.get("kind").ok_or("--kind is required")?)?;
    let out_dir = std::path::PathBuf::from(flags.get("out").cloned().unwrap_or_else(|| ".".into()));
    let (design, spf) =
        generate_with_parasitics(kind, preset(flags)?, seed(flags)?).map_err(|e| e.to_string())?;
    let (sp_path, spf_path) =
        write_design_pair(&out_dir, &design, &spf).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} devices flattened) and {} ({} ground + {} coupling caps)",
        sp_path.display(),
        design.netlist.num_devices(),
        spf_path.display(),
        spf.ground_caps.len(),
        spf.coupling_caps.len()
    );
    Ok(())
}

fn cmd_datagen(flags: &HashMap<String, String>) -> Result<(), String> {
    check_flags(
        flags,
        "datagen",
        &[
            "family", "seed", "max-size", "min-size", "count", "out", "threads", "list",
        ],
    )?;
    let family = match flags.get("family").map(String::as_str).unwrap_or("all") {
        "all" => None,
        name => Some(Family::parse(name).ok_or_else(|| {
            format!("unknown --family {name:?} (expected all, chain, tree, bus, fabric, array or sandwich)")
        })?),
    };
    let run_seed = seed(flags)?;
    let max_size: u64 = flag_parse(flags, "max-size", 4_000)?;
    let min_size: u64 = flag_parse(flags, "min-size", 0)?;
    let count: usize = flag_parse(flags, "count", 0)?;
    let threads: usize = flag_parse(flags, "threads", 1)?;
    if threads == 0 {
        return Err("--threads must be positive".into());
    }

    let mut terms = enumerate_terms(family, min_size, max_size);
    if count > 0 {
        terms.truncate(count);
    }
    if terms.is_empty() {
        return Err(format!(
            "no designs in the size window [{min_size}, {max_size}]"
        ));
    }
    if flag_bool(flags, "list")? {
        for t in &terms {
            println!("{}\t{}\t{}", t.name(), t.family().name(), t.size_estimate());
        }
        eprintln!("{} designs in the window", terms.len());
        return Ok(());
    }

    let out_dir = std::path::PathBuf::from(flags.get("out").cloned().unwrap_or_else(|| ".".into()));
    let start = std::time::Instant::now();

    // Work-stealing over the canonically sorted term list. Every design's
    // bytes are a pure function of (term, seed), so thread count only
    // decides who builds what — never what gets built. Per-design report
    // lines are collected and re-sorted by term index so stdout is also
    // byte-identical across --threads.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let lines = std::sync::Mutex::new(Vec::<(usize, String)>::new());
    let skipped = std::sync::atomic::AtomicUsize::new(0);
    let failure = std::sync::Mutex::new(None::<String>);
    std::thread::scope(|s| {
        for _ in 0..threads.min(terms.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(term) = terms.get(i) else { return };
                if failure.lock().unwrap().is_some() {
                    return;
                }
                let design = match build_term(term, run_seed) {
                    Ok(d) => d,
                    Err(e) => {
                        *failure.lock().unwrap() = Some(format!("building {}: {e}", term.name()));
                        return;
                    }
                };
                if let Err(violations) = check_design(&design) {
                    skipped.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let mut lock = lines.lock().unwrap();
                    lock.push((i, format!("{}: SKIPPED ({})", term.name(), violations[0])));
                    continue;
                }
                let spf = extract_parasitics(
                    &design,
                    &ExtractConfig {
                        seed: term_extract_seed(run_seed, term),
                        ..Default::default()
                    },
                );
                if let Err(e) = write_design_pair(&out_dir, &design, &spf) {
                    *failure.lock().unwrap() = Some(format!("writing {}: {e}", term.name()));
                    return;
                }
                let line = format!(
                    "{}\t{}\test {}\t{} devices\t{} + {} caps",
                    term.name(),
                    term.family().name(),
                    term.size_estimate(),
                    design.netlist.num_devices(),
                    spf.ground_caps.len(),
                    spf.coupling_caps.len()
                );
                lines.lock().unwrap().push((i, line));
            });
        }
    });
    if let Some(e) = failure.into_inner().unwrap() {
        return Err(e);
    }
    let mut lines = lines.into_inner().unwrap();
    lines.sort_unstable_by_key(|(i, _)| *i);
    for (_, line) in &lines {
        println!("{line}");
    }
    let skipped = skipped.into_inner();
    let written = lines.len() - skipped;
    let secs = start.elapsed().as_secs_f64();
    eprintln!(
        "wrote {written} design pairs to {} in {secs:.2}s ({:.1} designs/s), {skipped} skipped invalid",
        out_dir.display(),
        written as f64 / secs.max(1e-9),
    );
    Ok(())
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    check_flags(flags, "stats", &["netlist", "top"])?;
    let netlist = load_netlist(flags)?;
    let (graph, _) = netlist_to_graph(&netlist);
    println!("{}", GraphStats::of(&netlist.name, &graph));
    println!("transistors: {}", netlist.transistor_count());
    let e = graph.edge_type_counts();
    println!("edges: {} device-pin, {} net-pin", e[0], e[1]);
    println!("\nTable-I circuit statistics (XC) dimensions:");
    for ty in [
        cirgps::graph::NodeType::Net,
        cirgps::graph::NodeType::Device,
        cirgps::graph::NodeType::Pin,
    ] {
        println!("  {ty} nodes:");
        for (i, d) in XcSpec::dims(ty).iter().enumerate() {
            println!("    [{i:2}] {d}");
        }
    }
    Ok(())
}

fn cmd_sample(flags: &HashMap<String, String>) -> Result<(), String> {
    check_flags(flags, "sample", &["netlist", "top", "spf", "per-type"])?;
    let netlist = load_netlist(flags)?;
    let spf = load_spf(flags)?;
    let per_type: usize = flag_parse(flags, "per-type", 200)?;
    let (graph, map) = netlist_to_graph(&netlist);
    let ds = LinkDataset::build(
        &netlist.name,
        &graph,
        &netlist,
        &map,
        &spf,
        &DatasetConfig {
            max_per_type: per_type,
            ..Default::default()
        },
    );
    println!("design {}: {} samples", ds.design, ds.len());
    println!(
        "raw positive couplings: {} p2n, {} p2p, {} n2n",
        ds.raw_counts[0], ds.raw_counts[1], ds.raw_counts[2]
    );
    println!(
        "mean enclosing subgraph: {:.1} nodes, {:.1} edges",
        ds.mean_subgraph_nodes, ds.mean_subgraph_edges
    );
    let pos = ds.samples.iter().filter(|s| s.link.label > 0.5).count();
    println!("balance: {} positive / {} negative", pos, ds.len() - pos);
    Ok(())
}

fn cmd_predict(flags: &HashMap<String, String>) -> Result<(), String> {
    check_flags(
        flags,
        "predict",
        &[
            "netlist",
            "top",
            "spf",
            "task",
            "batch-size",
            "per-type",
            "model",
            "out",
        ],
    )?;
    let netlist = load_netlist(flags)?;
    let spf = load_spf(flags)?;
    let per_type: usize = flag_parse(flags, "per-type", 200)?;
    let batch_size: usize = flag_parse(flags, "batch-size", 32)?;
    if batch_size == 0 {
        return Err("--batch-size must be positive".into());
    }
    let task = flags.get("task").map(String::as_str).unwrap_or("link");
    if !matches!(task, "link" | "cap") {
        return Err(format!("unknown --task {task:?} (expected link or cap)"));
    }

    let (graph, map) = netlist_to_graph(&netlist);
    // The pairs `LinkDataset::build` would train on, without its link
    // injection or extraction: the session extracts each pair's subgraph
    // from the *plain* graph, since an augmented graph with every
    // candidate coupling injected (the training-time convention) would
    // leak the candidate structure into a pure inference query.
    let (_, links) = LinkDataset::select_links(
        &graph,
        &netlist,
        &map,
        &spf,
        &DatasetConfig {
            max_per_type: per_type,
            ..Default::default()
        },
    );

    let model = match flags.get("model") {
        Some(path) => load_checkpoint_file(path)?,
        None => CircuitGps::new(ModelConfig::default()),
    };
    let xcn = XcNormalizer::fit(&[&graph]);
    let mut session = InferenceSession::shared(&model, xcn, &graph, ServeConfig::default().sampler)
        .with_batch_size(batch_size);

    let pairs: Vec<(u32, u32)> = links.iter().map(|l| (l.a, l.b)).collect();
    let preds = match task {
        "link" => session.predict_links(&pairs),
        _ => session.predict_couplings(&pairs),
    };

    let cap_norm = CapNormalizer::paper_range();
    let mut lines = String::new();
    for (l, &p) in links.iter().zip(&preds) {
        let extra = if task == "cap" {
            format!(",\"cap_pred_f\":{:.4e}", cap_norm.decode(p))
        } else {
            String::new()
        };
        lines.push_str(&format!(
            "{{\"a\":{},\"b\":{},\"label\":{},\"{}\":{:.6}{}}}\n",
            l.a,
            l.b,
            l.label,
            if task == "link" { "prob" } else { "cap_norm" },
            p,
            extra
        ));
    }
    match flags.get("out") {
        Some(path) => fs::write(path, &lines).map_err(|e| format!("writing {path}: {e}"))?,
        None => print!("{lines}"),
    }
    let (hits, misses) = session.cache_stats();
    eprintln!(
        "predicted {} pairs (task {task}, batch {batch_size}; answer cache {hits} hits / {misses} misses)",
        preds.len()
    );
    Ok(())
}

/// Parses a `--pairs` file: one pair per line, `a,b` or `a b`, with
/// blank lines and `#` comments skipped. Validates ids against `graph`.
fn parse_pairs_file(path: &str, graph: &CircuitGraph) -> Result<Vec<(u32, u32)>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let n = graph.num_nodes() as u32;
    let mut pairs = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|s| !s.is_empty());
        let parse = |tok: Option<&str>| -> Result<u32, String> {
            tok.ok_or_else(|| format!("{path}:{}: expected two node ids", ln + 1))?
                .parse()
                .map_err(|_| format!("{path}:{}: bad node id in {line:?}", ln + 1))
        };
        let a = parse(it.next())?;
        let b = parse(it.next())?;
        if it.next().is_some() {
            return Err(format!("{path}:{}: expected exactly two node ids", ln + 1));
        }
        if a == b {
            return Err(format!("{path}:{}: pair anchors must differ", ln + 1));
        }
        if a >= n || b >= n {
            return Err(format!(
                "{path}:{}: node id out of range (graph has {n} nodes)",
                ln + 1
            ));
        }
        pairs.push((a, b));
    }
    if pairs.is_empty() {
        return Err(format!("{path} lists no pairs"));
    }
    Ok(pairs)
}

fn cmd_sweep(flags: &HashMap<String, String>) -> Result<(), String> {
    check_flags(
        flags,
        "sweep",
        &[
            "netlist",
            "top",
            "model",
            "task",
            "pairs",
            "per-node-cap",
            "max-pairs",
            "chunk",
            "threads",
            "format",
            "out",
        ],
    )?;
    let netlist = load_netlist(flags)?;
    let task = match flags.get("task").map(String::as_str).unwrap_or("link") {
        "link" => SweepTask::Link,
        "cap" => SweepTask::Coupling,
        other => return Err(format!("unknown --task {other:?} (expected link or cap)")),
    };
    let format = flags.get("format").map(String::as_str).unwrap_or("jsonl");
    if !matches!(format, "jsonl" | "csv") {
        return Err(format!(
            "unknown --format {format:?} (expected jsonl or csv)"
        ));
    }
    let chunk: usize = flag_parse(flags, "chunk", 4096)?;
    if chunk == 0 {
        return Err("--chunk must be positive".into());
    }
    let threads: usize = flag_parse(flags, "threads", 1)?;
    if threads == 0 {
        return Err("--threads must be positive".into());
    }
    let per_node_cap: usize = flag_parse(flags, "per-node-cap", 0)?;
    let max_pairs: usize = flag_parse(flags, "max-pairs", 0)?;

    let (graph, _map) = netlist_to_graph(&netlist);
    let model = match flags.get("model") {
        Some(path) => load_checkpoint_file(path)?,
        None => CircuitGps::new(ModelConfig::default()),
    };
    // Same normalization and extraction parameters as `cirgps predict`
    // over the *plain* graph — the bitwise parity contract depends on
    // matching its inputs exactly.
    let xcn = XcNormalizer::fit(&[&graph]);
    let cfg = SweepConfig {
        task,
        sampler: ServeConfig::default().sampler,
        chunk,
        threads,
        dedup: true,
    };

    let explicit = match flags.get("pairs") {
        Some(path) => Some(parse_pairs_file(path, &graph)?),
        None => None,
    };

    use std::io::Write as _;
    let mut writer: Box<dyn std::io::Write> = match flags.get("out") {
        Some(path) => Box::new(std::io::BufWriter::new(
            fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?,
        )),
        None => Box::new(std::io::BufWriter::new(std::io::stdout())),
    };
    let cap_norm = CapNormalizer::paper_range();
    if format == "csv" {
        let header = match task {
            SweepTask::Link => "a,b,prob\n",
            SweepTask::Coupling => "a,b,cap_norm,cap_pred_f\n",
        };
        writer
            .write_all(header.as_bytes())
            .map_err(|e| format!("writing output: {e}"))?;
    }

    // Streaming writer: one formatted block per planned window, flushed
    // before the next window starts, so output memory stays bounded by
    // the window too.
    let mut io_err: Option<String> = None;
    let start = std::time::Instant::now();
    let mut emit = |pairs: &[(u32, u32)], values: &[f32]| -> bool {
        let mut block = String::with_capacity(pairs.len() * 40);
        for (&(a, b), &p) in pairs.iter().zip(values) {
            match (task, format) {
                (SweepTask::Link, "jsonl") => {
                    block.push_str(&format!("{{\"a\":{a},\"b\":{b},\"prob\":{p:.6}}}\n"));
                }
                (SweepTask::Coupling, "jsonl") => {
                    block.push_str(&format!(
                        "{{\"a\":{a},\"b\":{b},\"cap_norm\":{p:.6},\"cap_pred_f\":{:.4e}}}\n",
                        cap_norm.decode(p)
                    ));
                }
                (SweepTask::Link, _) => block.push_str(&format!("{a},{b},{p:.6}\n")),
                (SweepTask::Coupling, _) => {
                    block.push_str(&format!("{a},{b},{p:.6},{:.4e}\n", cap_norm.decode(p)));
                }
            }
        }
        let result = writer
            .write_all(block.as_bytes())
            .and_then(|()| writer.flush());
        match result {
            Ok(()) => true,
            Err(e) => {
                io_err = Some(format!("writing output: {e}"));
                false
            }
        }
    };

    let stats = match explicit {
        Some(pairs) => sweep_pairs(&model, &xcn, &graph, pairs, &cfg, &mut emit),
        None => sweep_pairs(
            &model,
            &xcn,
            &graph,
            CandidatePairs::new(&graph, per_node_cap, max_pairs),
            &cfg,
            &mut emit,
        ),
    };
    if let Some(e) = io_err {
        return Err(e);
    }
    if stats.pairs == 0 {
        return Err("no candidate pairs to sweep (empty enumeration?)".into());
    }

    let elapsed = start.elapsed();
    let us_per_pair = elapsed.as_micros() as f64 / stats.pairs as f64;
    eprintln!(
        "swept {} pairs in {} windows of {} ({} unique forwards, {} dedup hits = {:.1}%); \
         peak resident {} pairs; {:.2}s total, {:.1}µs/pair amortized",
        stats.pairs,
        stats.chunks,
        chunk,
        stats.unique_forwards,
        stats.dedup_hits,
        100.0 * stats.dedup_hits as f64 / stats.pairs as f64,
        stats.peak_resident,
        elapsed.as_secs_f64(),
        us_per_pair
    );
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    check_flags(
        flags,
        "serve",
        &[
            "netlist",
            "top",
            "model",
            "addr",
            "max-batch",
            "workers",
            "queue-cap",
            "cache-cap",
            "drain-timeout-ms",
            "request-timeout-ms",
            "max-body-bytes",
            "max-headers",
            "idle-timeout-ms",
            "ingress-timeout-ms",
            "max-conns",
        ],
    )?;
    let defaults = ServeConfig::default();
    let max_batch = flag_parse(flags, "max-batch", defaults.max_batch)?;
    let workers = flag_parse(flags, "workers", defaults.workers)?;
    let queue_cap = flag_parse(flags, "queue-cap", defaults.queue_capacity)?;
    let cache_cap = flag_parse(flags, "cache-cap", defaults.cache_capacity)?;
    let drain_timeout_ms = flag_parse(
        flags,
        "drain-timeout-ms",
        defaults.drain_timeout.as_millis() as u64,
    )?;
    let request_timeout_ms = flag_parse(
        flags,
        "request-timeout-ms",
        defaults.request_timeout.as_millis() as u64,
    )?;
    let max_body_bytes = flag_parse(flags, "max-body-bytes", defaults.max_body_bytes)?;
    let max_headers = flag_parse(flags, "max-headers", defaults.max_headers)?;
    let idle_timeout_ms = flag_parse(
        flags,
        "idle-timeout-ms",
        defaults.idle_timeout.as_millis() as u64,
    )?;
    let ingress_timeout_ms = flag_parse(
        flags,
        "ingress-timeout-ms",
        defaults.ingress_timeout.as_millis() as u64,
    )?;
    let max_conns = flag_parse(flags, "max-conns", defaults.max_connections)?;
    if request_timeout_ms == 0 {
        return Err("--request-timeout-ms must be positive".into());
    }
    if max_body_bytes == 0 || max_headers == 0 {
        return Err("--max-body-bytes and --max-headers must be positive".into());
    }
    if idle_timeout_ms == 0 || ingress_timeout_ms == 0 {
        return Err("--idle-timeout-ms and --ingress-timeout-ms must be positive".into());
    }
    if max_conns == 0 {
        return Err("--max-conns must be positive".into());
    }
    if max_batch == 0 || workers == 0 {
        return Err("--max-batch and --workers must be positive".into());
    }
    if queue_cap < max_batch {
        return Err(format!(
            "--queue-cap {queue_cap} must hold at least one batch (--max-batch {max_batch})"
        ));
    }
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:8321".into());

    let netlist = load_netlist(flags)?;
    let (graph, _map) = netlist_to_graph(&netlist);
    let model = match flags.get("model") {
        Some(path) => load_checkpoint_file(path)?,
        None => {
            eprintln!(
                "warning: no --model checkpoint; serving a freshly initialized \
                 default model (structure-only smoke predictions). Train one with \
                 `cirgps pretrain`/`finetune` (docs/training.md)."
            );
            CircuitGps::new(ModelConfig::default())
        }
    };
    eprintln!(
        "inference backend: {}",
        cirgps::nn::Backend::active().name()
    );

    let cfg = ServeConfig {
        max_batch,
        workers,
        queue_capacity: queue_cap,
        cache_capacity: cache_cap,
        drain_timeout: Duration::from_millis(drain_timeout_ms),
        request_timeout: Duration::from_millis(request_timeout_ms),
        max_body_bytes,
        max_headers,
        idle_timeout: Duration::from_millis(idle_timeout_ms),
        ingress_timeout: Duration::from_millis(ingress_timeout_ms),
        max_connections: max_conns,
        ..defaults
    };
    let listener = TcpListener::bind(&addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "cirgps-serve: design {} ({} nodes, {} edges) on http://{local} \
         ({workers} workers, batch ≤ {max_batch})",
        netlist.name,
        graph.num_nodes(),
        graph.num_edges()
    );
    eprintln!(
        "endpoints: GET /healthz, GET /metrics, POST /v1/predict, POST /v1/sweep (docs/serving.md)"
    );
    let server = Server::new(model, graph, netlist.name.clone(), cfg);
    // SIGINT/SIGTERM → graceful drain: a monitor thread polls the
    // interrupt latch (signal handlers can only flip an atomic) and
    // kicks off the drain; `serve` returns once connections finish or
    // the drain deadline passes.
    interrupt::install();
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            use std::sync::atomic::Ordering;
            while !done.load(Ordering::SeqCst) {
                if interrupt::requested() {
                    eprintln!(
                        "cirgps-serve: signal received — draining (answering in-flight work, \
                         refusing new connections, deadline {drain_timeout_ms} ms)"
                    );
                    server.begin_drain(local);
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        server.serve(listener);
        done.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    eprintln!("cirgps-serve: drained; all accepted work answered");
    Ok(())
}

fn cmd_client(flags: &HashMap<String, String>) -> Result<(), String> {
    use std::io::Write as _;
    check_flags(
        flags,
        "client",
        &[
            "addr",
            "method",
            "path",
            "body",
            "body-file",
            "retries",
            "deadline-ms",
            "seed",
        ],
    )?;
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:8321".into());
    let method = flags
        .get("method")
        .cloned()
        .unwrap_or_else(|| "GET".into())
        .to_ascii_uppercase();
    if method != "GET" && method != "POST" {
        return Err(format!("--method must be GET or POST, got {method:?}"));
    }
    let path = flags
        .get("path")
        .cloned()
        .unwrap_or_else(|| "/healthz".into());
    let body = match (flags.get("body"), flags.get("body-file")) {
        (Some(_), Some(_)) => return Err("--body and --body-file are exclusive".into()),
        (Some(b), None) => b.clone().into_bytes(),
        (None, Some(f)) => fs::read(f).map_err(|e| format!("reading {f}: {e}"))?,
        (None, None) => Vec::new(),
    };
    let retries: usize = flag_parse(flags, "retries", 6)?;
    let deadline_ms: u64 = flag_parse(flags, "deadline-ms", 30_000)?;
    if retries == 0 || deadline_ms == 0 {
        return Err("--retries and --deadline-ms must be positive".into());
    }
    let seed: u64 = flag_parse(flags, "seed", 0x5eed)?;
    let policy = RetryPolicy {
        max_attempts: retries,
        deadline: Duration::from_millis(deadline_ms),
        ..RetryPolicy::default()
    };
    let mut client = Client::new(addr).with_policy(policy).with_seed(seed);

    // /v1/sweep streams a chunked JSONL body: forward each chunk to
    // stdout as it arrives instead of buffering the whole sweep.
    if path.starts_with("/v1/sweep") {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let mut write_ok = true;
        let status = client
            .post_stream(&path, &body, &mut |chunk| {
                write_ok = out.write_all(chunk).is_ok() && out.flush().is_ok();
                write_ok
            })
            .map_err(|e| e.to_string())?;
        if !write_ok {
            return Err("stdout closed mid-stream".into());
        }
        if status >= 400 {
            return Err(format!("server answered {status}"));
        }
        return Ok(());
    }

    let resp = match method.as_str() {
        "GET" => client.get(&path),
        _ => client.post(&path, &body),
    }
    .map_err(|e| e.to_string())?;
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(&resp.body)
        .and_then(|()| {
            if resp.body.last() != Some(&b'\n') {
                stdout.write_all(b"\n")
            } else {
                Ok(())
            }
        })
        .map_err(|e| e.to_string())?;
    if resp.status >= 400 {
        return Err(format!("server answered {}", resp.status));
    }
    Ok(())
}

fn cmd_energy(flags: &HashMap<String, String>) -> Result<(), String> {
    check_flags(
        flags,
        "energy",
        &["netlist", "top", "spf", "vectors", "vdd", "seed"],
    )?;
    let netlist = load_netlist(flags)?;
    let spf = load_spf(flags)?;
    let vectors: usize = flag_parse(flags, "vectors", 32)?;
    let vdd: f64 = flag_parse(flags, "vdd", 0.9)?;
    let caps = net_capacitances(&netlist, &spf);
    let total_cap: f64 = caps.iter().sum();
    let result = simulate_energy(&netlist, &caps, vdd, vectors, seed(flags)?);
    println!(
        "total lumped capacitance: {:.3e} F over {} nets",
        total_cap,
        netlist.num_nets()
    );
    println!(
        "switching energy: {:.3e} J across {} vectors ({} toggles)",
        result.energy, result.vectors, result.total_toggles
    );
    Ok(())
}
