//! The `experiments` binary: the command table and its handlers.
//! [`fedl_serve::cli`] derives parsing, per-command flag rejection and
//! the usage text from the table; the service rows come from
//! `fedl_serve::cli` and `fedl_dist::cli`, next to their handlers.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fedl_bench::experiments;
use fedl_bench::harness::RunCache;
use fedl_bench::history::{self, BenchHistory, HistoryEntry};
use fedl_bench::perf::{self, BenchSnapshot};
use fedl_bench::profile::Profile;
use fedl_data::synth::TaskKind::{CifarLike, FmnistLike};
use fedl_serve::cli::{self, Args, Command, Flag};
use fedl_telemetry::{dashboard, log_line, trace, Report, RunLog, Telemetry};

const QUICK: Flag = Flag { name: "--quick", value: None };
const OUT: Flag = Flag { name: "--out", value: Some("DIR") };
const CACHE_DIR: Flag = Flag { name: "--cache-dir", value: Some("DIR") };
const RESUME: Flag = Flag { name: "--resume", value: None };
const REQUIRE: Flag = Flag { name: "--require", value: Some("kind1,kind2,...") };
const HTML: Flag = Flag { name: "--html", value: Some("FILE.html") };
const HISTORY: Flag = Flag { name: "--history", value: Some("FILE") };

type Handler = fn(&Args) -> Result<(), String>;
type Flags = &'static [&'static Flag];
/// Run logs labelled by file stem.
type Runs = [(String, RunLog)];
/// A figure, the headline or a study at a profile: writes its series
/// under the output directory, serves its cells from the result cache
/// when one is attached, and returns its report.
type Section = fn(Profile, &Path, Option<&RunCache>) -> Report;

/// The flags of a row whose cells all run through the result cache.
const CACHED: Flags = &[&QUICK, &OUT, &CACHE_DIR, &RESUME];

/// A paper figure, headline table or study: one row of the table.
const fn figure(names: &'static [&'static str], flags: Flags, run: Handler) -> Command {
    Command { names, positionals: &[], flags, note: "", run }
}

const FIG2: Section = |p, out, cache| experiments::fig_time_and_round(p, FmnistLike, out, cache).0;
const FIG3: Section = |p, out, cache| experiments::fig_time_and_round(p, CifarLike, out, cache).0;
/// Figs 2–5, then the headline over the same runs.
const FIGS_2_5: Section = |p, out, cache| {
    let (mut report, mut results) = experiments::fig_time_and_round(p, FmnistLike, out, cache);
    let (cifar, cifar_results) = experiments::fig_time_and_round(p, CifarLike, out, cache);
    results.extend(cifar_results);
    report.blocks.extend(cifar.blocks);
    report.blocks.extend(experiments::headline_from(&results, out).blocks);
    report
};
const FIG6: Section = |p, out, cache| experiments::fig_budget(p, FmnistLike, out, cache);
const FIG7: Section = |p, out, cache| experiments::fig_budget(p, CifarLike, out, cache);
const REGRET: Section = |p, out, _| experiments::regret(p, out);
const ROUNDING: Section = |p, _, cache| experiments::ROUNDING.run(p, cache);
const STEPSIZE: Section = |p, _, cache| experiments::STEPSIZE.run(p, cache);
const AGGREGATE: Section = |p, _, cache| experiments::AGGREGATION.run(p, cache);
const ORACLE: Section = |p, _, cache| experiments::ORACLE.run(p, cache);
const FAIRNESS: Section = |p, _, _| experiments::fairness_study(p);
const BANDWIDTH: Section = |p, _, cache| experiments::BANDWIDTH.run(p, cache);
const DROPOUT: Section = |p, _, cache| experiments::DROPOUT.run(p, cache);
const REPLICATE: Section = |p, _, cache| experiments::replication_study(p, cache);
/// Every figure and study, in paper order.
const ALL: &[Section] = &[
    FIGS_2_5, FIG6, FIG7, REGRET, ROUNDING, STEPSIZE, AGGREGATE, ORACLE, FAIRNESS, BANDWIDTH,
    DROPOUT, REPLICATE,
];

static COMMANDS: &[Command] = &[
    figure(&["fig2", "fig4"], CACHED, |a| figures(a, &[FIG2])),
    figure(&["fig3", "fig5"], CACHED, |a| figures(a, &[FIG3])),
    figure(&["fig6"], CACHED, |a| figures(a, &[FIG6])),
    figure(&["fig7"], CACHED, |a| figures(a, &[FIG7])),
    figure(&["headline"], CACHED, |a| figures(a, &[experiments::headline])),
    figure(&["regret"], &[&QUICK, &OUT], |a| figures(a, &[REGRET])),
    figure(&["rounding"], CACHED, |a| figures(a, &[ROUNDING])),
    figure(&["stepsize"], CACHED, |a| figures(a, &[STEPSIZE])),
    figure(&["aggregation"], CACHED, |a| figures(a, &[AGGREGATE])),
    figure(&["oracle"], CACHED, |a| figures(a, &[ORACLE])),
    figure(&["fairness"], &[&QUICK], |a| figures(a, &[FAIRNESS])),
    figure(&["bandwidth"], CACHED, |a| figures(a, &[BANDWIDTH])),
    figure(&["dropout"], CACHED, |a| figures(a, &[DROPOUT])),
    figure(&["replicate"], CACHED, |a| figures(a, &[REPLICATE])),
    figure(&["all"], CACHED, |a| figures(a, ALL)),
    Command {
        names: &["telemetry-report"],
        positionals: &["FILE"],
        flags: &[&REQUIRE],
        note: "",
        run: telemetry_report,
    },
    Command {
        names: &["bench"],
        positionals: &[],
        flags: &[&QUICK, &OUT],
        note: "--out FILE.json names the snapshot itself; \
               incl. scale/ kernels: 10k tier quick, +100k/1m paper",
        run: bench,
    },
    Command {
        names: &["bench-history append"],
        positionals: &["SNAP.json"],
        flags: &[&HISTORY],
        note: "",
        run: history_append,
    },
    Command {
        names: &["bench-history report"],
        positionals: &[],
        flags: &[&HISTORY, &HTML],
        note: "",
        run: history_report,
    },
    Command {
        names: &["bench-history gate"],
        positionals: &["NEW.json"],
        flags: &[&HISTORY],
        note: "",
        run: history_gate,
    },
    Command {
        names: &["dashboard"],
        positionals: &["RUN.jsonl", "[RUN2.jsonl ...]"],
        flags: &[&HTML],
        note: "two or more logs: per-policy overlay",
        run: |a| {
            observe(a, "dashboard", |runs| match runs {
                [(_, log)] => Ok(dashboard::single(log)),
                runs => dashboard::overlay(runs),
            })
        },
    },
    Command {
        names: &["trace-report"],
        positionals: &["COORD.jsonl", "[WORKER.jsonl ...]"],
        flags: &[&HTML],
        note: "",
        run: |a| observe(a, "trace report", trace::report),
    },
    cli::STATS,
    cli::SERVE,
    cli::LOADGEN,
    fedl_dist::cli::DIST,
    fedl_dist::cli::DIST_WORKER,
];

/// Runs figure/study sections at the profile, output directory and
/// result cache the flags select, printing each one's report as it
/// completes.
fn figures(args: &Args, sections: &[Section]) -> Result<(), String> {
    let profile = if args.has(&QUICK) { Profile::Quick } else { Profile::Paper };
    let out_dir = PathBuf::from(args.value(&OUT).unwrap_or("results"));
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    log_line!(
        "profile: {:?} (M={}, n={}), output: {}",
        profile,
        profile.num_clients(),
        profile.min_participants(),
        out_dir.display()
    );
    // Completed cells are served from the result cache, with
    // cache.hit/cache.miss telemetry streamed to <out>/cache_run.jsonl
    // for telemetry-report.
    let cache_telemetry = cache_dir(args, &out_dir).map(|dir| {
        let tel = Telemetry::to_file(out_dir.join("cache_run.jsonl"))
            .expect("create cache telemetry log");
        let cache = RunCache::open(&dir).expect("open result cache").with_telemetry(tel.clone());
        log_line!("result cache: {}", cache.dir().display());
        (cache, tel)
    });
    for section in sections {
        let report = section(profile, &out_dir, cache_telemetry.as_ref().map(|(c, _)| c));
        for line in report.text().lines() {
            log_line!("{line}");
        }
    }
    if let Some((_, tel)) = &cache_telemetry {
        tel.emit_metrics();
        tel.flush();
    }
    Ok(())
}

/// The result cache is on iff `--cache-dir` or `--resume` was given;
/// `--resume` alone puts it at `<out>/cache`.
fn cache_dir(args: &Args, out_dir: &Path) -> Option<PathBuf> {
    match args.value(&CACHE_DIR) {
        Some(dir) => Some(PathBuf::from(dir)),
        None => args.has(&RESUME).then(|| out_dir.join("cache")),
    }
}

/// Loads every run log the command line names, labelled by file stem.
fn load_logs(args: &Args) -> Result<Vec<(String, RunLog)>, String> {
    args.positionals
        .iter()
        .map(|arg| {
            let path = Path::new(arg);
            let log = RunLog::read(path)
                .map_err(|err| format!("failed to load run log {}: {err}", path.display()))?;
            let stem = path.file_stem().map_or(arg.clone(), |s| s.to_string_lossy().into_owned());
            Ok((stem, log))
        })
        .collect()
}

/// Prints a report and, with `--html`, writes its page (creating
/// parent directories).
fn publish(report: &Report, args: &Args, what: &str) -> Result<(), String> {
    print!("{}", report.text());
    let Some(path) = args.value(&HTML).map(Path::new) else { return Ok(()) };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|err| format!("failed to create {}: {err}", dir.display()))?;
    }
    std::fs::write(path, report.html())
        .map_err(|err| format!("failed to write {}: {err}", path.display()))?;
    log_line!("wrote {what}: {}", path.display());
    Ok(())
}

/// Loads the named run logs, builds `build`'s report over them and
/// publishes it.
fn observe(
    args: &Args,
    what: &str,
    build: fn(&Runs) -> Result<Report, String>,
) -> Result<(), String> {
    publish(&build(&load_logs(args)?)?, args, what)
}

/// Prints the event-kind and per-phase timing report of one run log,
/// and fails when any `--require`d event kind is absent.
fn telemetry_report(args: &Args) -> Result<(), String> {
    let (_, log) = &load_logs(args)?[0];
    print!("{}", log.report().text());
    let required: Vec<&str> =
        args.values(&REQUIRE).flat_map(|list| list.split(',')).filter(|k| !k.is_empty()).collect();
    let missing = log.missing_kinds(&required);
    if missing.is_empty() {
        return Ok(());
    }
    Err(format!("run log is missing required event kinds: {}", missing.join(", ")))
}

/// Where `bench` writes its snapshot: `--out` names the file directly
/// when it ends in `.json`, otherwise it is a directory and the
/// snapshot lands at `<out>/BENCH.json`.
fn snapshot_path(out: &Path) -> PathBuf {
    if out.extension().is_some_and(|e| e == "json") {
        out.to_path_buf()
    } else {
        out.join("BENCH.json")
    }
}

/// Runs the perf-snapshot suite and writes `BENCH.json`.
fn bench(args: &Args) -> Result<(), String> {
    let profile = if args.has(&QUICK) { Profile::Quick } else { Profile::Paper };
    let snapshot = perf::run_suite(profile);
    let path = snapshot_path(Path::new(args.value(&OUT).unwrap_or("results")));
    snapshot.write(&path).map_err(|err| format!("failed to write {}: {err}", path.display()))?;
    log_line!("wrote perf snapshot: {} ({} kernels)", path.display(), snapshot.kernels.len());
    Ok(())
}

/// The history file the `bench-history` actions operate on.
fn history_path(args: &Args) -> PathBuf {
    PathBuf::from(args.value(&HISTORY).unwrap_or(history::DEFAULT_HISTORY_PATH))
}

fn load_history(args: &Args) -> Result<BenchHistory, String> {
    let path = history_path(args);
    BenchHistory::load(&path).map_err(|err| format!("failed to read {}: {err}", path.display()))
}

/// Appends a snapshot to the history file.
fn history_append(args: &Args) -> Result<(), String> {
    let entry = HistoryEntry::capture(BenchSnapshot::read(Path::new(&args.positionals[0]))?);
    let path = history_path(args);
    BenchHistory::append(&path, &entry)
        .map_err(|err| format!("failed to append to {}: {err}", path.display()))?;
    log_line!(
        "appended snapshot ({} kernels, {}, commit {}) to {}",
        entry.snapshot.kernels.len(),
        entry.fingerprint,
        entry.commit,
        path.display()
    );
    Ok(())
}

/// Prints the per-kernel trend tables (and writes the trend charts).
fn history_report(args: &Args) -> Result<(), String> {
    let report = history::trend(&load_history(args)?, history::DEFAULT_BASELINE_WINDOW);
    publish(&report, args, "trend report")
}

/// Gates a snapshot against the rolling baseline of its fingerprint.
fn history_gate(args: &Args) -> Result<(), String> {
    let snapshot = BenchSnapshot::read(Path::new(&args.positionals[0]))?;
    let threshold = history::DEFAULT_COMPARE_THRESHOLD;
    let verdict =
        history::gate(&load_history(args)?, &snapshot, history::DEFAULT_BASELINE_WINDOW, threshold);
    print!("{}", verdict.report().text());
    if verdict.passes() {
        return Ok(());
    }
    Err(format!(
        "perf regression: at least one kernel slowed down beyond {:.0} % and \
         its noise band vs the rolling baseline",
        threshold * 100.0
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(COMMANDS, &args).and_then(|(command, args)| (command.run)(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    /// Every flag any row lists (a shared spelling once per row).
    fn every_flag() -> impl Iterator<Item = &'static &'static Flag> {
        COMMANDS.iter().flat_map(|c| c.flags)
    }

    #[test]
    fn every_command_is_in_the_usage_and_refuses_the_flags_it_does_not_list() {
        let usage = cli::usage(COMMANDS);
        for command in COMMANDS {
            for name in command.names {
                assert!(usage.contains(name), "{name} missing from:\n{usage}");
            }
            // The shortest valid line: the name and its required positionals.
            let mut minimal = words(command.names[0]);
            minimal.extend(
                command.positionals.iter().filter(|p| !p.starts_with('[')).map(|p| p.to_string()),
            );
            let name = command.names[0];
            assert!(cli::parse(COMMANDS, &minimal).is_ok(), "{name}");
            for flag in every_flag() {
                let mut with = minimal.clone();
                with.push(flag.name.to_string());
                with.extend(flag.value.map(|_| "value".to_string()));
                let listed = command.flags.iter().any(|a| a.name == flag.name);
                match cli::parse(COMMANDS, &with) {
                    Ok((_, args)) => assert!(listed && args.has(flag), "{name} took {}", flag.name),
                    Err(e) => {
                        assert!(!listed, "{name} refused {}: {e}", flag.name);
                        assert!(e.contains("is not an option of"), "{e}");
                    }
                }
            }
            for removed in ["--no-cache", "--window", "--threshold"] {
                let mut with = minimal.clone();
                with.push(removed.to_string());
                let err = cli::parse(COMMANDS, &with).err().unwrap_or_default();
                assert!(
                    err.contains(&format!("unknown flag {removed}")),
                    "{name} {removed}: {err}"
                );
            }
        }
    }

    /// `parse` takes a flag's value before it knows the command, so a
    /// spelling shared between rows (`--out` is a directory to a figure
    /// and a file to `loadgen`; `--resume` a cache or a checkpoint) must
    /// take a value on all of them or on none.
    #[test]
    fn each_spelling_has_one_arity_across_the_table() {
        for a in every_flag() {
            for b in every_flag().filter(|b| b.name == a.name) {
                assert_eq!(a.value.is_some(), b.value.is_some(), "{} has two arities", a.name);
            }
        }
    }

    /// The service command lines `scripts/ci.sh` runs (its `scenario`
    /// array expanded) and the line `dist` spawns each worker with
    /// parse; a flag a service handler never reads is refused.
    #[test]
    fn the_service_lines_ci_runs_parse_and_unread_flags_do_not() {
        let scenario = "--clients 40 --seed 11 --budget 1000000 --min-participants 3 --policy fedl";
        for text in [
            "serve --addr 127.0.0.1:0 --port-file o/port {S}",
            "loadgen --addr 127.0.0.1:1 {S} --epochs 12 --out o/full.jsonl --verify-reference \
             --shutdown",
            "serve --addr 127.0.0.1:0 --port-file o/port --clients 2000 --seed 11 \
             --budget 1000000 --min-participants 10 --policy fedavg --io-timeout 30",
            "loadgen --addr 127.0.0.1:1 --clients 2000 --seed 11 --budget 1000000 \
             --min-participants 10 --policy fedavg --io-timeout 30 --epochs 3 \
             --verify-reference --shutdown",
            "serve --addr 127.0.0.1:0 --port-file o/port --clients 20000 --seed 11 \
             --budget 1000000 --min-participants 10 --policy fedavg --io-timeout 30",
            "loadgen --addr 127.0.0.1:1 --clients 20000 --seed 11 --budget 1000000 \
             --min-participants 10 --policy fedavg --io-timeout 30 --epochs 3 \
             --verify-reference --shutdown",
            "serve --addr 127.0.0.1:0 --port-file o/port {S} --checkpoint o/ckpt.fedlstore \
             --checkpoint-every 2",
            "loadgen --addr 127.0.0.1:1 {S} --epochs 6 --out o/half1.jsonl --shutdown",
            "serve --addr 127.0.0.1:0 --port-file o/port {S} --checkpoint o/ckpt.fedlstore --resume",
            "loadgen --addr 127.0.0.1:1 {S} --epochs 6 --start-epoch 6 --out o/half2.jsonl \
             --shutdown",
            "dist --workers 0 {S} --epochs 10 --out o/reference.jsonl",
            "dist --workers 2 {S} --epochs 10 --out o/dist.jsonl --verify-reference",
            "dist --workers 2 {S} --epochs 10 --out o/dist.jsonl --telemetry o/trace.jsonl \
             --stats-addr 127.0.0.1:0 --stats-port-file o/stats.port",
            "serve --addr 127.0.0.1:0 --port-file o/port {S} --telemetry o/serve.jsonl",
            "stats --addr 127.0.0.1:1",
            "loadgen --addr 127.0.0.1:1 {S} --epochs 4 --shutdown",
            "dist-worker --addr 127.0.0.1:0 --port-file w/worker-0.port \
             --checkpoint w/worker-0.fedlstore --telemetry o/trace.worker-0.jsonl --resume",
            "serve --addr 127.0.0.1:0 --checkpoint o/runner.fedlstore --resume",
            "dist-worker --addr 127.0.0.1:0 --checkpoint o/runner.fedlstore --resume",
        ] {
            if let Err(e) = cli::parse(COMMANDS, &words(&text.replace("{S}", scenario))) {
                panic!("{text}: {e}");
            }
        }
        for (text, stray) in [
            ("dist --workers 0 --clients 20 --epochs 2 --checkpoint x", "--checkpoint"),
            ("dist-worker --addr 127.0.0.1:0 --clients 20", "--clients"),
            ("serve --addr 127.0.0.1:0 --epochs 3", "--epochs"),
            ("loadgen --addr 127.0.0.1:1 --checkpoint x", "--checkpoint"),
            ("stats --addr 127.0.0.1:1 --policy fedl", "--policy"),
        ] {
            let command = text.split(' ').next().unwrap();
            let err = cli::parse(COMMANDS, &words(text)).err().unwrap_or_default();
            assert!(err.starts_with(&format!("{stray} is not an option of {command}\n")), "{err}");
        }
    }

    #[test]
    fn cache_is_on_only_when_asked_for() {
        let parsed = |text: &str| cli::parse(COMMANDS, &words(text)).unwrap().1;
        let out = Path::new("/tmp/r");
        assert_eq!(cache_dir(&parsed("fig2"), out), None);
        assert_eq!(cache_dir(&parsed("--resume fig6"), out), Some(out.join("cache")));
        for text in ["--cache-dir /tmp/c fig6", "--resume --cache-dir /tmp/c all"] {
            assert_eq!(cache_dir(&parsed(text), out), Some(PathBuf::from("/tmp/c")), "{text}");
        }
    }

    #[test]
    fn bench_resolves_out_to_file_or_directory() {
        assert_eq!(snapshot_path(Path::new("results")), PathBuf::from("results/BENCH.json"));
        // --out ending in .json names the snapshot file itself...
        let named = Path::new("results/BENCH_quick.json");
        assert_eq!(snapshot_path(named), named);
        // ...anything else is a directory.
        assert_eq!(snapshot_path(Path::new("/tmp/perf")), PathBuf::from("/tmp/perf/BENCH.json"));
    }
}
