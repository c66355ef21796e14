//! One benchmark run: `--workload W --seed N --seconds S --trace 0|1`.
//!
//! A timed run (`--trace 0`) runs the number of units `--seconds` calls
//! for (`Workload::units_for`) and reports the end-to-end metrics over
//! all of them. A traced run (`--trace 1`) runs one unit twice — as the
//! timed run does, then with the harness's span-recording loops — checks
//! that both produced the same records, and reports the per-layer metrics.
//! The unit is unit 0 of the timed run, except on `train_fedl_m100`, where
//! it is unit 0's scenario at the paper's budget (`train::traced_spec`).

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

use fedl::linalg::rng::derive_seed;

use crate::metrics::{Measured, END_TO_END, PER_LAYER};
use crate::probes;
use crate::span::{self_times, totals_by_name, trace_json, LayerTotal, Span, Tracer};
use crate::stats::{highest_resolved_tail, median, percentile, tail_resolved};
use crate::workloads::{dist, plane, serve, train, Scale, UnitResult, Workload};

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where trace files and the served checkpoint go.
    pub out_dir: PathBuf,
}

/// What the last line of standard output reports.
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Measured,
}

/// Seed of unit `index` of a run: every scenario seed is derived from
/// `--seed`, and printed with the results.
pub fn unit_seed(seed: u64, index: u64) -> u64 {
    // 63 bits: the dist wire carries seeds as JSON integers (i64).
    derive_seed(seed, index) >> 1
}

/// A directory of this process's own under `out_dir`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out_dir: &Path) -> Self {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("the output directory is writable");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Of a timed run's served or distributed units, every this-many-th
/// (unit 0 first) is also checked against `reference_run`, which repeats
/// the unit's policy work in-process: on `dist_fedl_1k` that doubles the
/// unit, and checking all of them makes a run take twice its `--seconds`.
/// Every unit gets the other checks.
const REFERENCE_EVERY: u64 = 3;

fn timed_unit(args: &RunArgs, index: u64, scratch: &Path) -> UnitResult {
    let (workload, scale) = (args.workload, args.scale);
    let seed = unit_seed(args.seed, index);
    let against_reference = index.is_multiple_of(REFERENCE_EVERY);
    match workload {
        Workload::TrainFedlM100 | Workload::TrainFedavgCifarM100 => {
            train::timed_unit(&train::spec(workload, seed, scale), scratch).0
        }
        Workload::ServeFedlM100 => {
            serve::timed_unit(&serve::spec(seed, scale), scratch, against_reference).0
        }
        Workload::DistFedavg100k | Workload::DistFedl1k => {
            dist::timed_unit(&dist::spec(workload, seed, scale), against_reference).0
        }
    }
}

fn report_failures(unit: &UnitResult) {
    for failure in &unit.failures {
        println!("check failed (unit seed {}): {failure}", unit.seed);
    }
}

pub fn run(args: &RunArgs) -> RunReport {
    fs::create_dir_all(&args.out_dir).expect("the output directory is writable");
    let scratch = Scratch::new(&args.out_dir);
    if args.trace {
        traced_run(args, &scratch.0)
    } else {
        timed_run(args, &scratch.0)
    }
}

fn timed_run(args: &RunArgs, scratch: &Path) -> RunReport {
    let w = args.workload.name();
    let count = match args.scale {
        Scale::Full => args.workload.units_for(args.seconds),
        Scale::Smoke => 1,
    };
    let mut units: Vec<UnitResult> = Vec::new();
    let mut measured_s = 0.0;
    for index in 0..count as u64 {
        let unit = timed_unit(args, index, scratch);
        println!(
            "unit {} seed {} epochs {} setup_s {:.6} loop_s {:.3} cpu_ms {:.0} epoch_ms_p50 {:.3} epoch_ms_p90 {:.3} decision_ms_p50 {:.3}{}",
            units.len(),
            unit.seed,
            unit.epoch_ms.len(),
            unit.setup_s,
            unit.loop_s,
            unit.cpu_ms,
            median(&unit.epoch_ms),
            percentile(&unit.epoch_ms, 900),
            median(&unit.decision_ms),
            unit.final_accuracy.map_or(String::new(), |a| format!(" accuracy {a:.3}")),
        );
        report_failures(&unit);
        measured_s += unit.loop_s;
        units.push(unit);
    }

    // Every unit of a workload is the same size, so the epochs of all
    // units pool into one sample.
    let pool = |f: fn(&UnitResult) -> &Vec<f64>| -> Vec<f64> {
        units.iter().flat_map(|u| f(u).iter().copied()).collect()
    };
    let epoch_ms = pool(|u| &u.epoch_ms);
    let decision_ms = pool(|u| &u.decision_ms);
    let epochs = epoch_ms.len() as f64;
    let setups: Vec<f64> = units.iter().map(|u| u.setup_s).collect();
    let cpu_ms: f64 = units.iter().map(|u| u.cpu_ms).sum();
    // Unit 0 is the unit a traced run executes too, so its digest and
    // wire count are what the two kinds of run are compared on; and its
    // peak is read before any reference run has touched the heap.
    let first = &units[0];
    let values = [
        median(&setups),
        epochs / measured_s,
        median(&epoch_ms),
        percentile(&epoch_ms, 900),
        cpu_ms / epochs,
        first.peak_rss_mb,
    ];
    let metrics: Measured = END_TO_END.into_iter().zip(values).collect();

    println!("workload {w} seed {} units {} measured_s {measured_s:.3}", args.seed, units.len());
    let resolved = highest_resolved_tail(epoch_ms.len());
    println!(
        "samples epochs {} setups {} p90_has_10_beyond {} highest_resolved_tail {}",
        epoch_ms.len(),
        setups.len(),
        tail_resolved(epoch_ms.len(), 900),
        resolved.map_or("none".to_string(), |pm| format!("p{}", pm as f64 / 10.0)),
    );
    if let Some(pm) = resolved.filter(|&pm| pm > 900) {
        println!(
            "tail p{} epoch_ms {:.4} decision_ms {:.4}",
            pm as f64 / 10.0,
            percentile(&epoch_ms, pm),
            percentile(&decision_ms, pm)
        );
    }
    println!("selections_digest {w} {:016x}", first.digest);
    // Reported here for the reader; listed (unbounded) with the layers.
    println!(
        "decision_ms p50 {:.4} p90 {:.4} wire_kb_per_epoch {:.3}",
        median(&decision_ms),
        percentile(&decision_ms, 900),
        first.wire_bytes as f64 / 1024.0 / first.epoch_ms.len().max(1) as f64
    );
    finish(&units, metrics)
}

fn finish(units: &[UnitResult], metrics: Measured) -> RunReport {
    let attempted: u64 = units.iter().map(|u| u.attempted).sum();
    let failed: u64 = units.iter().map(|u| u.failed).sum();
    println!("failed_share {:.6}", failed as f64 / attempted.max(1) as f64);
    for (def, value) in &metrics {
        println!("metric {} {value:.6} {}", def.name, def.unit);
    }
    let finite = metrics.iter().all(|(_, v)| v.is_finite());
    RunReport { correct: failed == 0 && finite, attempted: attempted.max(1), failed, metrics }
}

/// Runs the workload's traced unit untraced and traced, checks the two
/// agree, and returns the untraced unit's result, every span recorded,
/// and the probe readings.
fn trace_unit(
    args: &RunArgs,
    scratch: &Path,
) -> (UnitResult, Vec<Span>, HashMap<&'static str, f64>) {
    let seed = unit_seed(args.seed, 0);
    let w = args.workload;
    let mut layer: HashMap<&'static str, f64> = HashMap::new();
    let (mut unit, spans, captured, env, n);
    match w {
        Workload::TrainFedlM100 | Workload::TrainFedavgCifarM100 => {
            let spec = train::traced_spec(w, seed, args.scale);
            let (timed, timed_out) = train::timed_unit(&spec, scratch);
            unit = timed;
            let mut tr = Tracer::new();
            let (traced_out, problem) =
                train::traced_unit(&spec, &mut tr, timed_out.records.len() / 2);
            if traced_out != timed_out {
                unit.fail_unit("hand-driven epochs differ from ExperimentRunner's".to_string());
            }
            (spans, captured) = (tr.into_spans(), problem);
            let (local_solve_ms, gemm_gflops) = probes::local_training(&spec.scenario);
            layer.insert("ml.local_solve_ms", local_solve_ms);
            layer.insert("linalg.gemm_gflops", gemm_gflops);
            layer.insert("data.build_s", probes::data_build_secs(&spec.scenario));
            (env, n) = (spec.scenario.env, spec.scenario.min_participants);
        }
        Workload::ServeFedlM100 | Workload::DistFedavg100k | Workload::DistFedl1k => {
            let served = w == Workload::ServeFedlM100;
            let (spec, mut all, timed_selections, traced_selections);
            if served {
                spec = serve::spec(seed, args.scale);
                (unit, timed_selections) = serve::timed_unit(&spec, scratch, true);
                (all, traced_selections) = serve::traced_unit(&spec, scratch);
                let with_telemetry = serve::loop_secs_with_telemetry(&spec, scratch);
                layer.insert(
                    "telemetry.enabled_overhead_pct",
                    100.0 * (with_telemetry / unit.loop_s - 1.0),
                );
            } else {
                spec = dist::spec(w, seed, args.scale);
                (unit, timed_selections) = dist::timed_unit(&spec, true);
                (all, traced_selections) = dist::traced_unit(&spec);
                layer.insert("dist.worker_imbalance", dist::worker_imbalance(&all));
                let (parse, render, checksum) =
                    probes::frame_codec_mbps(&dist::context_part_frame(&spec));
                layer.insert("json.parse_mbps", parse);
                layer.insert("json.render_mbps", render);
                layer.insert("store.checksum_mbps", checksum);
            }
            if traced_selections != timed_selections {
                unit.fail_unit("the harness's own frame loop changed the selections".to_string());
            }
            // `ServerState` builds the tracked policy, `Coordinator::new`
            // the untracked one.
            let mut tr = Tracer::new();
            let (replayed, problem) = plane::replay(&spec, served, &mut tr);
            if replayed != timed_selections {
                unit.fail_unit("the decomposed policy selected differently".to_string());
            }
            all.extend(tr.into_spans());
            (spans, captured) = (all, problem);
            (env, n) = (spec.config.env, spec.config.min_participants);
        }
    }
    if let Some((problem, mu, beta)) = captured {
        let (descend_ms, project_us) = probes::solver(&problem, &mu, beta);
        layer.insert("solver.descend_cold_ms", descend_ms);
        layer.insert("solver.project_us", project_us);
    }
    layer.insert("sim.columns_build_s", probes::columns_build_secs(&env));
    layer.insert("net.latency_model_us", probes::latency_model_us(&env, n));
    (unit, spans, layer)
}

fn traced_run(args: &RunArgs, scratch: &Path) -> RunReport {
    let w = args.workload.name();
    let (mut unit, spans, mut layer) = trace_unit(args, scratch);
    let totals = totals_by_name(&spans);
    let epoch_spans: Vec<&Span> = spans.iter().filter(|s| s.name == "epoch").collect();
    let epochs = epoch_spans.len().max(1) as f64;
    let traced_loop_ns: u64 = epoch_spans.iter().map(|s| s.duration_ns()).sum();
    // Per-epoch mean self time, in ms, of the spans with these names.
    let ms = |names: &[&str]| -> f64 {
        let ns: u64 = names.iter().filter_map(|n| totals.get(n)).map(|t| t.self_ns).sum();
        ns as f64 / 1e6 / epochs
    };
    // A metric `<span>_ms` is that span's figure, …
    for def in PER_LAYER {
        if let Some(span) = def.name.strip_suffix("_ms").filter(|s| totals.contains_key(s)) {
            layer.insert(def.name, ms(&[span]));
        }
    }
    // … except where it is a sum: what neither end of a served request
    // spent computing (socket writes, the kernel, waking the other
    // thread); a dist frame's write plus the wait for its reply; the two
    // stretches where the coordinator computes alone.
    layer.insert(
        "serve.wire_ms",
        ms(&[
            "serve.rpc_select",
            "serve.rpc_feedback",
            "serve.frame_select",
            "serve.frame_feedback",
        ]),
    );
    layer.insert("dist.wire_wait_ms", ms(&["dist.send", "dist.wire_wait"]));
    layer.insert("dist.coordinator_self_ms", ms(&["dist.coord_decide", "dist.coord_observe"]));
    // Worker spans come from `WORKERS` threads: report the mean worker.
    for name in ["dist.worker_context_ms", "dist.worker_train_ms", "dist.worker_codec_ms"] {
        layer.entry(name).and_modify(|v| *v /= dist::WORKERS as f64);
    }
    // Joins happen during set-up, not in epochs: mean per call.
    let joins = totals.get("serve.handle_join").copied().unwrap_or_default();
    layer.insert("serve.handle_join_us", joins.self_ns as f64 / 1e3 / joins.calls.max(1) as f64);
    layer.insert("decision_ms_p50", median(&unit.decision_ms));
    layer.insert("decision_ms_p90", percentile(&unit.decision_ms, 900));
    layer.insert(
        "wire_kb_per_epoch",
        unit.wire_bytes as f64 / 1024.0 / unit.epoch_ms.len().max(1) as f64,
    );
    let unattributed = totals.get("epoch").map_or(0, |t| t.self_ns);
    layer.insert(
        "bench.unattributed_pct",
        100.0 * unattributed as f64 / traced_loop_ns.max(1) as f64,
    );
    let timed_loop_ms: f64 = unit.epoch_ms.iter().sum();
    layer.insert(
        "bench.trace_overhead_pct",
        100.0 * (traced_loop_ns as f64 / 1e6 / timed_loop_ms - 1.0),
    );

    // The self times of a tree sum to its root, so the layers under the
    // epoch spans plus the epochs' own unattributed time must give back
    // the epoch wall; a span that overhangs its parent breaks this.
    let in_tree = in_epoch_tree(&spans);
    let own = self_times(&spans);
    let tree_self_ns: u64 =
        spans.iter().filter(|s| in_tree.contains(&s.id)).map(|s| own[&s.id]).sum();
    println!(
        "reconcile epoch_wall_ms {:.3} layer_self_plus_unattributed_ms {:.3}",
        traced_loop_ns as f64 / 1e6,
        tree_self_ns as f64 / 1e6
    );
    if tree_self_ns.abs_diff(traced_loop_ns) as f64 > 0.01 * traced_loop_ns as f64 {
        unit.fail_unit(
            "per-layer self times do not reconcile with the epoch wall within 1 %".into(),
        );
    }
    report_failures(&unit);
    println!(
        "workload {w} seed {} unit_seed {} traced_epochs {}{}",
        args.seed,
        unit.seed,
        epoch_spans.len(),
        unit.final_accuracy.map_or(String::new(), |a| format!(" accuracy {a:.3}")),
    );
    println!("selections_digest {w} {:016x}", unit.digest);
    // How far the epoch cost drifts over the unit (untraced epochs).
    let tenth = (unit.epoch_ms.len() / 10).max(1);
    let mean = |ms: &[f64]| ms.iter().sum::<f64>() / ms.len().max(1) as f64;
    println!(
        "drift epoch_ms first_tenth {:.3} last_tenth {:.3}",
        mean(&unit.epoch_ms[..tenth.min(unit.epoch_ms.len())]),
        mean(&unit.epoch_ms[unit.epoch_ms.len().saturating_sub(tenth)..])
    );
    let mut names: Vec<(&&str, &LayerTotal)> = totals.iter().collect();
    names.sort_by_key(|(name, _)| **name);
    for (name, total) in names {
        println!(
            "span {name} calls_per_epoch {:.3} self_ms_per_epoch {:.6}",
            total.calls as f64 / epochs,
            total.self_ns as f64 / 1e6 / epochs
        );
    }
    for (pct, limit) in [("bench.trace_overhead_pct", 5.0), ("bench.unattributed_pct", 10.0)] {
        if layer[pct] > limit {
            println!("warning: {pct} = {:.2} % is above {limit} %", layer[pct]);
        }
    }
    let trace_path = args.out_dir.join(format!("trace_{w}.json"));
    fs::write(&trace_path, trace_json(w, &spans)).expect("the output directory is writable");
    println!("trace {}", trace_path.display());

    let metrics: Measured = PER_LAYER
        .into_iter()
        .map(|def| (def, layer.get(def.name).copied().unwrap_or(0.0)))
        .collect();
    finish(&[unit], metrics)
}

/// Ids of the spans at or under an `epoch` span.
fn in_epoch_tree(spans: &[Span]) -> HashSet<u64> {
    let mut inside: HashSet<u64> =
        spans.iter().filter(|s| s.name == "epoch").map(|s| s.id).collect();
    // Parents are recorded before or after children depending on the
    // site, so iterate to a fixed point (the trees are three deep).
    loop {
        let before = inside.len();
        for s in spans {
            if s.parent.is_some_and(|p| inside.contains(&p)) {
                inside.insert(s.id);
            }
        }
        if inside.len() == before {
            return inside;
        }
    }
}
