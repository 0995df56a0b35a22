//! The verdict of the paired perfbench gate (`tools/perf_gate.sh`).
//!
//! ```text
//! perf_gate <base BENCHMARK.json> <head BENCHMARK.json> <base-dir> <head-dir>
//! ```
//!
//! Each directory holds one `<workload>-<seed>.out` file per perfbench
//! run; its last line is the run's JSON result. Judged by base's
//! `BENCHMARK.json`, the gate fails when the mean over head's runs of an
//! `end_to_end` metric is worse than base's by more than its `bound`, in
//! its `better` direction; when head's `BENCHMARK.json` drops a workload
//! or metric; when a run is not `correct` or head's failed share rises;
//! and when a workload, result or metric is missing on either side. What
//! only head lists is noted, not judged. The mean, not the median:
//! `setup_s` lands in one of two modes per process, about 45% apart, and
//! a median of a few runs picks one at random (docs/perf.md).
//!
//! Where a run prints an output digest (`... digest <hex>`), the gate
//! compares base's and head's digests seed by seed and notes "outputs
//! identical" or "outputs differ on seed N". The note never fails the
//! gate: a change may alter outputs on purpose.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use cirgps_serve::json::Json;

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// The parts of `BENCHMARK.json` the gate judges by.
#[derive(Debug, Clone, PartialEq)]
struct Spec {
    workloads: Vec<String>,
    metrics: Vec<Metric>,
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("no {key:?} list"))
        };
        let name = |entry: &Json| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "an entry has no name".to_string())
        };
        let workloads = list("workloads")?
            .iter()
            .map(name)
            .collect::<Result<_, _>>()?;
        let metrics = list("end_to_end")?
            .iter()
            .map(|m| {
                let name = name(m)?;
                let higher_is_better = match m.get("better").and_then(Json::as_str) {
                    Some("higher") => true,
                    Some("lower") => false,
                    other => return Err(format!("{name}: bad \"better\" {other:?}")),
                };
                let bound = m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .filter(|b| b.is_finite() && *b >= 0.0)
                    .ok_or_else(|| format!("{name}: no usable \"bound\""))?;
                Ok(Metric {
                    name,
                    higher_is_better,
                    bound,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Spec { workloads, metrics })
    }
}

/// One perfbench result line.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    /// The file the run came from, for messages.
    label: String,
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
    /// The output digest the run printed, if any.
    digest: Option<String>,
}

impl Run {
    /// Parses the last non-empty line of a perfbench run's output.
    fn parse(label: &str, output: &str) -> Result<Run, String> {
        let line = output
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| format!("{label}: no result line"))?;
        let doc = Json::parse(line).map_err(|e| format!("{label}: result line: {e}"))?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{label}: no {key:?} count"))
        };
        let correct = matches!(doc.get("correct"), Some(Json::Bool(true)));
        let Some(Json::Obj(map)) = doc.get("metrics") else {
            return Err(format!("{label}: no \"metrics\" object"));
        };
        let metrics = map
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        Ok(Run {
            label: label.to_string(),
            correct,
            attempted: num("attempted")?,
            failed: num("failed")?,
            metrics,
            digest: output_digest(output),
        })
    }

    /// The seed, from a `<workload>-<seed>` label.
    fn seed(&self) -> &str {
        self.label.rsplit('-').next().unwrap_or("")
    }
}

/// The word after the first `digest` in a run's output, e.g.
/// `# sweep_array: output digest 838c2c0026dcc387; ...`.
fn output_digest(output: &str) -> Option<String> {
    output.lines().find_map(|line| {
        let mut words = line.split_whitespace();
        words.find(|w| *w == "digest")?;
        let d = words.next()?.trim_end_matches([';', ',']);
        (!d.is_empty()).then(|| d.to_string())
    })
}

/// One side's runs, by workload.
type Side = BTreeMap<String, Vec<Run>>;

/// Reads every `<workload>-<seed>.out` file in `dir`.
fn read_side(dir: &Path, spec: &Spec) -> Result<Side, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "out"))
        .collect();
    files.sort();
    let mut side = Side::new();
    for path in files {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        let Some(workload) = spec.workloads.iter().find(|w| {
            stem.strip_prefix(w.as_str())
                .is_some_and(|s| s.starts_with('-'))
        }) else {
            continue;
        };
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let label = format!("{}/{stem}", dir.display());
        side.entry(workload.clone())
            .or_default()
            .push(Run::parse(&label, &text)?);
    }
    Ok(side)
}

/// The mean of `v` (not empty).
fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// The `q`-quantile of `v` with linear interpolation (`v` not empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The gate's findings: one table row per compared metric, notes on
/// what head adds, and every failure by name.
#[derive(Debug, Default)]
struct Verdict {
    rows: Vec<String>,
    notes: Vec<String>,
    failures: Vec<String>,
}

fn judge(base_spec: &Spec, head_spec: &Spec, base: &Side, head: &Side) -> Verdict {
    let mut v = Verdict::default();
    let names = |s: &Spec| s.metrics.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
    let (base_names, head_names) = (names(base_spec), names(head_spec));
    for (kind, b, h) in [
        ("workload", &base_spec.workloads, &head_spec.workloads),
        ("metric", &base_names, &head_names),
    ] {
        for n in h.iter().filter(|n| !b.contains(n)) {
            v.notes.push(format!("{n}: new in head, not judged"));
        }
        for n in b.iter().filter(|n| !h.contains(n)) {
            v.failures
                .push(format!("{n}: head's BENCHMARK.json drops this {kind}"));
        }
    }
    let metrics = base_spec
        .metrics
        .iter()
        .filter(|m| head_names.contains(&m.name));
    for w in base_spec
        .workloads
        .iter()
        .filter(|w| head_spec.workloads.contains(w))
    {
        let (Some(base_runs), Some(head_runs)) = (base.get(w), head.get(w)) else {
            for (side, runs) in [("base", base), ("head", head)] {
                if !runs.contains_key(w) {
                    v.failures.push(format!("{w}: no {side} runs"));
                }
            }
            continue;
        };
        for r in base_runs.iter().chain(head_runs).filter(|r| !r.correct) {
            v.failures
                .push(format!("{w}: {} has correct:false", r.label));
        }
        let share = |runs: &[Run]| {
            let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
            let failed: f64 = runs.iter().map(|r| r.failed).sum();
            if attempted > 0.0 {
                failed / attempted
            } else {
                1.0
            }
        };
        let (base_share, head_share) = (share(base_runs), share(head_runs));
        if head_share > base_share {
            v.failures.push(format!(
                "{w}: failed share rose from {base_share:.4} to {head_share:.4}"
            ));
        }
        for m in metrics.clone() {
            let mut missing = Vec::new();
            let [b, h] = [("base", base_runs), ("head", head_runs)].map(|(side, runs)| {
                for r in runs.iter().filter(|r| !r.metrics.contains_key(&m.name)) {
                    missing.push(format!("{w}: {side} {} has no {}", r.label, m.name));
                }
                runs.iter()
                    .filter_map(|r| r.metrics.get(&m.name).copied())
                    .collect::<Vec<f64>>()
            });
            if !missing.is_empty() {
                v.failures.append(&mut missing);
                continue;
            }
            let (bm, hm) = (mean(&b), mean(&h));
            let change = (hm - bm) / bm;
            let loss = if m.higher_is_better { -change } else { change };
            let pass = hm == bm || loss <= m.bound;
            if !pass {
                v.failures.push(format!(
                    "{w} {}: head mean {hm:.4} vs base {bm:.4} ({:+.1}%, bound {:.0}%, {} is better)",
                    m.name,
                    change * 100.0,
                    m.bound * 100.0,
                    if m.higher_is_better { "higher" } else { "lower" },
                ));
            }
            v.rows.push(format!(
                "{w:<12} {:<12} {bm:>12.4} {hm:>12.4} {:>7.3} {:>10.4}  {}",
                m.name,
                hm / bm,
                quantile(&b, 0.75) - quantile(&b, 0.25),
                if pass { "ok" } else { "WORSE" }
            ));
        }
        v.notes.extend(compare_digests(w, base_runs, head_runs));
    }
    v
}

/// Notes whether head's output digests equal base's for the same seeds.
fn compare_digests(w: &str, base: &[Run], head: &[Run]) -> Vec<String> {
    let by_seed = |runs: &[Run]| -> BTreeMap<String, String> {
        runs.iter()
            .filter_map(|r| Some((r.seed().to_string(), r.digest.clone()?)))
            .collect()
    };
    let (b, h) = (by_seed(base), by_seed(head));
    let pairs: Vec<(&String, bool)> = b
        .iter()
        .filter_map(|(seed, d)| Some((seed, h.get(seed)? == d)))
        .collect();
    if pairs.is_empty() {
        return Vec::new();
    }
    let differ: Vec<String> = pairs
        .iter()
        .filter(|(_, same)| !same)
        .map(|(seed, _)| format!("{w}: outputs differ on seed {seed}"))
        .collect();
    if differ.is_empty() {
        vec![format!("{w}: outputs identical ({} seeds)", pairs.len())]
    } else {
        differ
    }
}

fn run(args: &[String]) -> Result<Verdict, String> {
    let [base_spec, head_spec, base_dir, head_dir] = args else {
        return Err(
            "usage: perf_gate <base BENCHMARK.json> <head BENCHMARK.json> <base-dir> <head-dir>"
                .into(),
        );
    };
    let spec = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Spec::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base_spec, head_spec) = (spec(base_spec)?, spec(head_spec)?);
    let base = read_side(Path::new(base_dir), &base_spec)?;
    let head = read_side(Path::new(head_dir), &head_spec)?;
    Ok(judge(&base_spec, &head_spec, &base, &head))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let v = match run(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<12} {:<12} {:>12} {:>12} {:>7} {:>10}  verdict",
        "workload", "metric", "base", "head", "ratio", "base IQR"
    );
    for row in &v.rows {
        println!("{row}");
    }
    for n in &v.notes {
        println!("note: {n}");
    }
    for f in &v.failures {
        println!("FAIL {f}");
    }
    if v.failures.is_empty() {
        println!("perf gate: PASS");
        ExitCode::SUCCESS
    } else {
        println!("perf gate: FAIL ({} findings)", v.failures.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "command": ["perfbench"], "run_seconds": 20,
        "workloads": [{"name": "predict_mix"}, {"name": "serve_mix"}],
        "end_to_end": [
            {"name": "items_per_s", "better": "higher", "bound": 0.25},
            {"name": "p50_ms", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
        ]
    }"#;

    fn spec() -> Spec {
        Spec::parse(SPEC).unwrap()
    }

    fn line(correct: bool, failed: u32, items: f64, p50: f64, rss: f64) -> String {
        format!(
            r#"{{"correct":{correct},"attempted":100,"failed":{failed},"metrics":{{"items_per_s":{{"value":{items},"unit":"1/s"}},"p50_ms":{{"value":{p50},"unit":"ms"}},"peak_rss_mb":{{"value":{rss},"unit":"MB"}}}}}}"#
        )
    }

    /// One run per result line, labelled `<w>-1`, `<w>-2`, ….
    fn runs(w: &str, results: &[String]) -> Vec<Run> {
        let label = |i: usize| format!("{w}-{}", i + 1);
        let parse = |(i, r)| Run::parse(&label(i), &format!("# note\n{r}\n")).unwrap();
        results.iter().enumerate().map(parse).collect()
    }

    /// Three identical runs of every workload.
    fn side(result: &str) -> Side {
        let three = vec![result.to_string(); 3];
        spec()
            .workloads
            .iter()
            .map(|w| (w.clone(), runs(w, &three)))
            .collect()
    }

    fn base() -> Side {
        side(&line(true, 0, 1000.0, 4.0, 20.0))
    }

    fn failures(base: &Side, head: &Side) -> Vec<String> {
        judge(&spec(), &spec(), base, head).failures
    }

    fn head_failures(items: f64, p50: f64, rss: f64) -> Vec<String> {
        failures(&base(), &side(&line(true, 0, items, p50, rss)))
    }

    #[test]
    fn digests_are_compared_seed_by_seed_and_never_fail() {
        let result = line(true, 0, 1000.0, 4.0, 20.0);
        let out =
            |d: &str| format!("# predict_mix: 32 requests, prediction digest {d}\n{result}\n");
        let parse =
            |seed: u32, d: &str| Run::parse(&format!("dir/predict_mix-{seed}"), &out(d)).unwrap();
        let base = vec![parse(1, "00aa"), parse(2, "00bb")];
        assert_eq!(base[1].digest.as_deref(), Some("00bb"));
        assert_eq!(base[1].seed(), "2");
        assert_eq!(
            compare_digests("predict_mix", &base, &[parse(1, "00aa"), parse(2, "00bb")]),
            ["predict_mix: outputs identical (2 seeds)"]
        );
        assert_eq!(
            compare_digests("predict_mix", &base, &[parse(1, "00aa"), parse(2, "00cc")]),
            ["predict_mix: outputs differ on seed 2"]
        );
        // No digest on either side: nothing to say.
        assert!(compare_digests(
            "predict_mix",
            &runs("predict_mix", &[result.clone()]),
            &base
        )
        .is_empty());

        let sides = |d2: &str| -> Side {
            [(
                "predict_mix".to_string(),
                vec![parse(1, "00aa"), parse(2, d2)],
            )]
            .into_iter()
            .chain([(
                "serve_mix".to_string(),
                runs("serve_mix", &[result.clone()]),
            )])
            .collect()
        };
        let v = judge(&spec(), &spec(), &sides("00bb"), &sides("ffff"));
        assert!(v.failures.is_empty(), "{:?}", v.failures);
        assert_eq!(v.notes, ["predict_mix: outputs differ on seed 2"]);
    }

    #[test]
    fn the_digest_is_read_from_perfbench_note_lines() {
        let sweep = "# sweep_array: output digest 838c2c0026dcc387; 179 strided pairs checked\n{}";
        assert_eq!(output_digest(sweep).as_deref(), Some("838c2c0026dcc387"));
        let predict = "# setup: 401 rounds\n# predict_mix: 64 requests of 8 queries per pass, prediction digest 0123456789abcdef\n";
        assert_eq!(output_digest(predict).as_deref(), Some("0123456789abcdef"));
        assert_eq!(
            output_digest("# run: workload train_ssram seed 1\n{}"),
            None
        );
    }

    #[test]
    fn spec_reads_the_committed_benchmark() {
        let s = Spec::parse(include_str!("../../../../BENCHMARK.json")).unwrap();
        let w = ["sweep_array", "predict_mix", "serve_mix", "train_ssram"];
        assert_eq!(s.workloads, w);
        let rule = |n: &str| {
            s.metrics
                .iter()
                .find(|m| m.name == n)
                .map(|m| (m.higher_is_better, m.bound))
        };
        assert_eq!(rule("peak_rss_mb"), Some((false, 0.1)));
        assert_eq!(rule("items_per_s"), Some((true, 0.25)));
    }

    #[test]
    fn identical_sides_pass_with_a_row_per_metric() {
        let v = judge(&spec(), &spec(), &base(), &base());
        assert!(v.failures.is_empty(), "{:?}", v.failures);
        assert_eq!(v.rows.len(), 2 * 3);
        assert!(
            v.rows.iter().all(|r| r.ends_with("  1.000     0.0000  ok")),
            "{:?}",
            v.rows
        );
    }

    #[test]
    fn higher_is_better_passes_inside_and_fails_outside_its_bound() {
        assert!(head_failures(760.0, 4.0, 20.0).is_empty());
        let f = head_failures(740.0, 4.0, 20.0);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].starts_with("predict_mix items_per_s:"), "{f:?}");
        assert!(f[1].starts_with("serve_mix items_per_s:"), "{f:?}");
        // Faster is never a failure, however large the gain.
        assert!(head_failures(9000.0, 4.0, 20.0).is_empty());
    }

    #[test]
    fn lower_is_better_passes_inside_and_fails_outside_its_bound() {
        assert!(head_failures(1000.0, 4.96, 20.0).is_empty());
        let f = head_failures(1000.0, 5.04, 20.0);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.contains(" p50_ms:")), "{f:?}");
        assert!(head_failures(1000.0, 0.5, 20.0).is_empty());
    }

    #[test]
    fn the_rss_bound_is_applied_apart_from_the_timing_bound() {
        // +15% passes the 0.25 timing bound but fails the 0.1 RSS bound.
        let f = head_failures(1000.0, 4.6, 23.0);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.contains(" peak_rss_mb:")), "{f:?}");
        assert!(head_failures(1000.0, 4.0, 21.9).is_empty());
    }

    #[test]
    fn a_two_mode_metric_is_judged_by_its_mean() {
        // Six runs a side, each in a fast (2.9) or a slow (4.2) mode. Head
        // drew more slow runs: its median is 45% above base's, its mean
        // 13%, inside the bound. A uniform 30% slowdown still fails.
        let p50s = |v: [f64; 6]| runs("predict_mix", &v.map(|p| line(true, 0, 1000.0, p, 20.0)));
        let mut base = base();
        base.insert("predict_mix".into(), p50s([2.9, 2.9, 4.2, 2.9, 4.2, 2.9]));
        let mut head = base.clone();
        head.insert("predict_mix".into(), p50s([4.2, 4.2, 2.9, 4.2, 2.9, 4.2]));
        assert_eq!(failures(&base, &head), [] as [String; 0]);
        head.insert(
            "predict_mix".into(),
            p50s([2.9, 2.9, 4.2, 2.9, 4.2, 2.9].map(|x| x * 1.3)),
        );
        let f = failures(&base, &head);
        assert!(
            f.len() == 1 && f[0].starts_with("predict_mix p50_ms: head mean"),
            "{f:?}"
        );
    }

    #[test]
    fn an_incorrect_run_fails_on_either_side() {
        let mut bad = base();
        bad.get_mut("serve_mix").unwrap()[0] =
            runs("serve_mix", &[line(false, 0, 1000.0, 4.0, 20.0)]).remove(0);
        let want = ["serve_mix: serve_mix-1 has correct:false"];
        assert_eq!(failures(&base(), &bad), want);
        // A gate cannot judge against wrong outputs either.
        assert_eq!(failures(&bad, &base()), want);
    }

    #[test]
    fn a_rise_in_the_failed_share_fails() {
        let failing = side(&line(true, 1, 1000.0, 4.0, 20.0));
        let f = failures(&base(), &failing);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].starts_with("predict_mix: failed share rose"), "{f:?}");
        // An unchanged share does not fail by itself.
        assert!(failures(&failing, &failing).is_empty());
    }

    #[test]
    fn a_missing_workload_or_metric_fails_by_name_on_either_side() {
        let mut short = base();
        short.remove("serve_mix");
        assert_eq!(failures(&base(), &short), ["serve_mix: no head runs"]);
        assert_eq!(failures(&short, &base()), ["serve_mix: no base runs"]);
        let without_p50 = r#"{"correct":true,"attempted":100,"failed":0,"metrics":{"items_per_s":{"value":1000,"unit":"1/s"},"peak_rss_mb":{"value":20,"unit":"MB"}}}"#;
        let mut short = base();
        short.get_mut("predict_mix").unwrap()[2] =
            Run::parse("predict_mix-3", without_p50).unwrap();
        let f = failures(&base(), &short);
        assert_eq!(f, ["predict_mix: head predict_mix-3 has no p50_ms"]);
        let f = failures(&short, &base());
        assert_eq!(f, ["predict_mix: base predict_mix-3 has no p50_ms"]);
    }

    #[test]
    fn what_only_head_lists_is_noted_not_judged() {
        // A benchmark change that adds a workload and a metric: base has
        // no runs of the one and no values of the other.
        let mut head_spec = spec();
        head_spec.workloads.push("sweep_array".into());
        let p90 = Metric {
            name: "p90_ms".into(),
            higher_is_better: false,
            bound: 0.25,
        };
        head_spec.metrics.push(p90);
        let mut head = base();
        head.insert("sweep_array".into(), base()["predict_mix"].clone());
        let v = judge(&spec(), &head_spec, &base(), &head);
        assert!(v.failures.is_empty(), "{:?}", v.failures);
        let notes = [
            "sweep_array: new in head, not judged",
            "p90_ms: new in head, not judged",
        ];
        assert_eq!(v.notes, notes);
        assert_eq!(v.rows.len(), 2 * 3);
    }

    #[test]
    fn head_dropping_a_workload_or_metric_fails_by_name() {
        let dropped = SPEC.replace(r#", {"name": "serve_mix"}"#, "").replace(
            r#"{"name": "p50_ms", "better": "lower", "bound": 0.25},"#,
            "",
        );
        let v = judge(&spec(), &Spec::parse(&dropped).unwrap(), &base(), &base());
        let want = [
            "serve_mix: head's BENCHMARK.json drops this workload",
            "p50_ms: head's BENCHMARK.json drops this metric",
        ];
        assert_eq!(v.failures, want);
    }

    #[test]
    fn a_run_without_a_result_line_is_an_error() {
        assert!(Run::parse("x-1", "").is_err());
        assert!(Run::parse("x-1", "# note\nerror: the input generator failed\n").is_err());
    }

    #[test]
    fn means_and_quantiles() {
        assert_eq!(mean(&[1.0, 2.0, 4.0, 5.0]), 3.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.25), 1.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
    }
}
