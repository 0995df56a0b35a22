//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench gen --workload <name> --seed <n> --out <dir>
//! perfbench probe
//! ```
//!
//! A run first generates its inputs in a child process (`gen`), so the
//! measured process holds only what the program side receives and its
//! peak RSS is the program's own. It then sets up, warms up and
//! measures for `--seconds` — untraced, while a second child (`probe`)
//! times the host's speed on the same core before, between and after the
//! workload's operations — and prints notes followed by one JSON result
//! line.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use perfbench::probe::{self, Probe};
use perfbench::{gen, stats, Config, Inputs, Outcome, Workload};

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str) -> Result<T, String> {
    let v = flags
        .get(key)
        .ok_or_else(|| format!("--{key} is required"))?;
    v.parse().map_err(|_| format!("bad --{key} {v:?}"))
}

fn workload(flags: &HashMap<String, String>) -> Result<Workload, String> {
    let name: String = flag(flags, "workload")?;
    Workload::parse(&name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {name:?} (expected one of {})",
            names.join(", ")
        )
    })
}

/// Scratch space for inputs and traces, inside this package's directory.
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn cmd_gen(flags: &HashMap<String, String>) -> Result<(), String> {
    let w = workload(flags)?;
    let seed = flag(flags, "seed")?;
    let out: String = flag(flags, "out")?;
    gen::generate(w, seed, false)?.write_dir(Path::new(&out))
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), String> {
    let w = workload(flags)?;
    let seed: u64 = flag(flags, "seed")?;
    let seconds: f64 = flag(flags, "seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range (0, 600]"));
    }
    let trace = match flag::<String>(flags, "trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (expected 0 or 1)")),
    };

    // Every workload runs on one core. Before any thread or child
    // exists: they inherit the pin, and the trainer's and kernels' thread
    // counts read it once, so no matmul fans out to a second core whose
    // availability on a shared host decides the time.
    let pinned = stats::pin_to_one_core();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let dir = work_dir().join(format!("inputs-{}-{seed}", w.name()));
    let mut gen_cmd = Command::new(&exe);
    gen_cmd.args([
        "gen",
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
        "--out",
    ]);
    gen_cmd.arg(&dir);
    let status = gen_cmd
        .status()
        .map_err(|e| format!("starting the generator: {e}"))?;
    if !status.success() {
        return Err(format!("the input generator failed ({status})"));
    }
    let inputs = Inputs::read_dir(&dir)?;

    let cfg = Config {
        trace,
        ..Config::new(w, seed, Duration::from_secs_f64(seconds))
    };
    let mut outcome = if trace {
        // Per-layer times are as measured: rounds between the library's
        // operations would leave its caches cold and the replica's warm.
        perfbench::run(&cfg, &inputs)?
    } else {
        measure_scaled(&exe, &cfg, &inputs)?
    };
    if let Some(tracer) = outcome.tracer.take() {
        let path = work_dir().join(format!("trace-{}-{seed}.jsonl", w.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        outcome.note(format!(
            "{} spans written to {}",
            tracer.len(),
            path.display()
        ));
    }
    for line in &outcome.notes {
        println!("# {line}");
    }
    println!(
        "# run: workload {} seed {seed} nproc {}{} backend {} git {} inputs crc32 {:08x}",
        w.name(),
        stats::nproc(),
        if pinned { " (pinned)" } else { "" },
        circuitgps::Backend::active().name(),
        stats::git_revision(),
        inputs.digest()
    );
    println!("{}", outcome.json_line(trace));
    Ok(())
}

/// Runs the workload with the host probe installed and scales its
/// end-to-end timings to the nominal host.
fn measure_scaled(exe: &Path, cfg: &Config, inputs: &Inputs) -> Result<Outcome, String> {
    probe::install(Probe::start(exe)?);
    let result = perfbench::run(cfg, inputs);
    let mut host = probe::uninstall().ok_or("the host probe stopped answering")?;
    let mut outcome = result?;
    if host.rounds().is_empty() {
        // A run too short for any tick still gets a speed.
        host.sample(1)?;
    }
    let round = stats::median(host.rounds());
    let speed = round / probe::NOMINAL_SECS;
    outcome.scale_to_host(cfg.workload, speed);
    outcome.note(format!(
        "host: median probe round {:.3} ms over {} rounds, {speed:.4}× the nominal {:.3} ms",
        round * 1e3,
        host.rounds().len(),
        probe::NOMINAL_SECS * 1e3
    ));
    Ok(outcome)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => parse_flags(&args[1..]).and_then(|f| cmd_gen(&f)),
        Some("probe") => probe::serve(),
        _ => parse_flags(&args).and_then(|f| cmd_run(&f)),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
