//! The commands around single runs, each run a fresh process: `all`
//! runs every workload (timed passes interleaved over the workloads,
//! then one traced pass) and writes a results file; `compare` sets two
//! results files against the bounds in `BENCHMARK.json` — the A/A tool
//! for the benchmark's own steadiness and the A/B tool for later
//! changes; `spread` runs each workload once per seed and reports how
//! far the seeds spread every end-to-end metric, against its bound.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use fedl_json::{obj, Value};

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, relative_spread};
use crate::workloads::Workload;
use crate::{default_out_dir, Flags, DEFAULT_SECONDS, DEFAULT_SEED};

/// Timed passes of `all`: the same on both sides of every comparison.
const PASSES: usize = 3;
/// The seeds `spread` runs, as the acceptance rule does: ten of them.
const SPREAD_SEEDS: std::ops::RangeInclusive<u64> = 1..=10;

/// One child run: its result line and the digest it printed.
struct ChildRun {
    result: Value,
    digest: String,
}

fn run_child(
    exe: &Path,
    workload: Workload,
    common: &[String],
    trace: bool,
) -> Result<ChildRun, String> {
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", if trace { "1" } else { "0" }])
        .args(common)
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Value::parse(last).map_err(|_| {
        format!(
            "{} --trace {} printed no result ({}):\n{stdout}{}",
            workload.name(),
            u8::from(trace),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("selections_digest "))
        .and_then(|rest| rest.split(' ').nth(1))
        .unwrap_or("")
        .to_string();
    if !output.status.success() {
        eprintln!("{}: output checks failed:\n{stdout}", workload.name());
    }
    Ok(ChildRun { result, digest })
}

/// The flags every child run of one command shares.
fn child_args(seed: u64, seconds: f64, out_dir: &Path) -> Vec<String> {
    vec![
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        "--out-dir".to_string(),
        out_dir.display().to_string(),
    ]
}

fn metric_value(result: &Value, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("a run did not report {name}"))
}

pub fn all(mut flags: Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.parsed("seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.parsed("seconds", DEFAULT_SECONDS)?;
    let out_dir = flags.take("out-dir").map_or_else(default_out_dir, PathBuf::from);
    let out = flags.take("out").map_or_else(|| out_dir.join("results.json"), PathBuf::from);
    flags.finish()?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let common = child_args(seed, seconds, &out_dir);

    // Timed passes, interleaved so that drift of the machine spreads
    // over the workloads instead of landing on one.
    let mut timed: Vec<Vec<ChildRun>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for pass in 0..PASSES {
        for (slot, &workload) in Workload::ALL.iter().enumerate() {
            eprintln!("pass {}/{PASSES} {}", pass + 1, workload.name());
            timed[slot].push(run_child(&exe, workload, &common, false)?);
        }
    }
    let mut all_correct = true;
    let mut rows = Vec::new();
    for (slot, &workload) in Workload::ALL.iter().enumerate() {
        eprintln!("traced {}", workload.name());
        let traced = run_child(&exe, workload, &common, true)?;
        let runs = &timed[slot];
        println!("== {}", workload.name());
        let mut end_to_end = Vec::new();
        for def in END_TO_END {
            let values = runs
                .iter()
                .map(|r| metric_value(&r.result, def.name))
                .collect::<Result<Vec<_>, _>>()?;
            let mid = median(&values);
            println!("{:<28} {mid:>14.4} {:<8} passes {values:?}", def.name, def.unit);
            end_to_end.push((
                def.name,
                obj(vec![
                    ("unit", Value::from(def.unit)),
                    ("median", Value::Float(mid)),
                    ("passes", Value::Arr(values.into_iter().map(Value::Float).collect())),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for def in PER_LAYER {
            let value = metric_value(&traced.result, def.name)?;
            println!("{:<28} {value:>14.4} {}", def.name, def.unit);
            per_layer.push((
                def.name,
                obj(vec![("unit", Value::from(def.unit)), ("value", Value::Float(value))]),
            ));
        }
        let count = |key: &str| -> i64 {
            runs.iter()
                .chain([&traced])
                .map(|r| r.result.get(key).and_then(Value::as_i64).unwrap_or(0))
                .sum()
        };
        let (attempted, failed) = (count("attempted"), count("failed"));
        println!("{:<28} {:>14.6} ratio", "failed_share", failed as f64 / attempted.max(1) as f64);
        println!("{:<28} {}", "selections_digest", runs[0].digest);
        // The traced run checks its own unit against itself; its digest
        // is of another unit than the passes' on `train_fedl_m100`.
        if runs.iter().any(|r| r.digest != runs[0].digest) {
            println!("selections_digest differs between passes of one commit");
            all_correct = false;
        }
        all_correct &= runs
            .iter()
            .chain([&traced])
            .all(|r| r.result.get("correct").and_then(Value::as_bool) == Some(true));
        rows.push((
            workload.name(),
            obj(vec![
                ("end_to_end", Value::obj(end_to_end)),
                ("per_layer", Value::obj(per_layer)),
                ("selections_digest", Value::from(runs[0].digest.as_str())),
                ("attempted", Value::Int(attempted)),
                ("failed", Value::Int(failed)),
            ]),
        ));
    }
    let results = obj(vec![
        ("seed", Value::Int(seed as i64)),
        ("seconds", Value::Float(seconds)),
        ("passes", Value::from(PASSES)),
        ("workloads", Value::obj(rows)),
    ]);
    fs::write(&out, results.to_json_pretty())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("results {}", out.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// One timed run per seed of [`SPREAD_SEEDS`] and workload; for every
/// end-to-end metric the distance between the quartiles of the runs as a
/// share of their median — the figure a benchmark change must show to be
/// below the metric's bound (and should show to be below a third of it).
pub fn spread(mut flags: Flags) -> Result<ExitCode, String> {
    let seconds: f64 = flags.parsed("seconds", DEFAULT_SECONDS)?;
    let out_dir = flags.take("out-dir").map_or_else(default_out_dir, PathBuf::from);
    flags.finish()?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let benchmark = benchmark_json()?;
    let mut over = 0;
    for workload in Workload::ALL {
        let mut runs = Vec::new();
        for seed in SPREAD_SEEDS {
            eprintln!("{} seed {seed}", workload.name());
            let common = child_args(seed, seconds, &out_dir);
            runs.push(run_child(&exe, workload, &common, false)?.result);
        }
        println!("== {} seeds {SPREAD_SEEDS:?}", workload.name());
        for def in END_TO_END {
            let values =
                runs.iter().map(|r| metric_value(r, def.name)).collect::<Result<Vec<_>, _>>()?;
            let (spread, bound) = (relative_spread(&values), bound_of(&benchmark, def.name)?);
            let verdict = if spread <= bound / 3.0 {
                "steady"
            } else if spread <= bound {
                "within bound"
            } else {
                over += 1;
                "OVER BOUND"
            };
            println!(
                "{:<18} median {:>12.4} {:<5} spread {:>6.2}% bound {:>3.0}%  {verdict}",
                def.name,
                median(&values),
                def.unit,
                100.0 * spread,
                100.0 * bound
            );
        }
    }
    Ok(if over == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `BENCHMARK.json` of the repo this crate was built in.
fn benchmark_json() -> Result<Value, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bound_of(benchmark: &Value, metric: &str) -> Result<f64, String> {
    benchmark
        .get("end_to_end")
        .and_then(Value::as_arr)
        .and_then(|rows| {
            rows.iter().find(|r| r.get("name").and_then(Value::as_str) == Some(metric))
        })
        .and_then(|row| row.get("bound"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("BENCHMARK.json has no bound for {metric}"))
}

fn load_results(path: &str) -> Result<Value, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn passes_of(results: &Value, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("passes"))
        .and_then(Value::as_arr)
        .map(|values| values.iter().filter_map(Value::as_f64).collect::<Vec<f64>>())
        .filter(|values| !values.is_empty())
        .ok_or_else(|| format!("no passes of {metric} on {workload}"))
}

/// (max − min) ÷ median of one side's passes.
fn pass_spread(values: &[f64]) -> f64 {
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    (max - min) / median(values).abs()
}

pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: benchmark compare A.json B.json".to_string());
    };
    let (a, b) = (load_results(a_path)?, load_results(b_path)?);
    let benchmark = benchmark_json()?;
    let (mut regressed, mut unresolved) = (0, 0);
    println!(
        "{:<26} {:<18} {:>12} {:>12} {:>9} {:>7} {:>7}  status",
        "workload", "metric", "A", "B", "worse_by", "bound", "spread"
    );
    for workload in Workload::ALL {
        let w = workload.name();
        for def in END_TO_END {
            let (pa, pb) = (passes_of(&a, w, def.name)?, passes_of(&b, w, def.name)?);
            let (ma, mb) = (median(&pa), median(&pb));
            let worse_by = match def.better {
                Better::Lower => (mb - ma) / ma.abs(),
                Better::Higher => (ma - mb) / ma.abs(),
            };
            let bound = bound_of(&benchmark, def.name)?;
            let spread = pass_spread(&pa).max(pass_spread(&pb));
            // Wider spread than bound: the medians cannot settle it,
            // unless every run of B reads better than every run of A.
            let b_always_better = match def.better {
                Better::Lower => pb.iter().all(|y| pa.iter().all(|x| y < x)),
                Better::Higher => pb.iter().all(|y| pa.iter().all(|x| y > x)),
            };
            let status = if spread > bound && !b_always_better {
                unresolved += 1;
                "unresolved"
            } else if worse_by > bound {
                regressed += 1;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{w:<26} {:<18} {ma:>12.4} {mb:>12.4} {:>8.2}% {:>6.0}% {:>6.2}%  {status}",
                def.name,
                100.0 * worse_by,
                100.0 * bound,
                100.0 * spread
            );
        }
        let field = |results: &Value, path: &[&str]| -> Option<String> {
            let mut v = results.get("workloads")?.get(w)?;
            for key in path {
                v = v.get(key)?;
            }
            Some(v.to_json())
        };
        for (label, path) in [
            ("selections_digest", &["selections_digest"][..]),
            ("wire_kb_per_epoch", &["per_layer", "wire_kb_per_epoch", "value"]),
        ] {
            let (va, vb) = (field(&a, path), field(&b, path));
            let same = if va == vb { "identical" } else { "DIFFERENT" };
            println!(
                "{w:<26} {label:<18} {same} ({} vs {})",
                va.unwrap_or_default(),
                vb.unwrap_or_default()
            );
        }
    }
    println!("regressed {regressed} unresolved {unresolved}");
    Ok(if regressed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
