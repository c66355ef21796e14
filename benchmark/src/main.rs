//! The repo benchmark (see `README.md` in this directory and
//! `BENCHMARK.json` at the repo root).
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! benchmark all [--seed N] [--seconds S] [--out F]             every workload: 3 timed passes, one traced
//! benchmark compare A.json B.json                              A/A and A/B table against the bounds
//! benchmark spread [--seconds S]                               spread over seeds 1–10 against the bounds
//! ```

mod decider;
mod metrics;
mod probes;
mod procfs;
mod run;
mod span;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use fedl_json::{obj, Value};

use run::{RunArgs, RunReport};
use workloads::{Scale, Workload};

/// The seed a bare invocation uses; seed 11 is held out for future
/// claims (README.md).
const DEFAULT_SEED: u64 = 7;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// `benchmark/out`, next to this crate's manifest.
fn default_out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--flag value` pairs after the optional subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name =
                flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn take(&mut self, name: &str) -> Option<String> {
        let at = self.0.iter().position(|(n, _)| n == name)?;
        Some(self.0.remove(at).1)
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.take(name) {
            None => Ok(default),
            Some(text) => text.parse().map_err(|_| format!("--{name}: cannot read {text:?}")),
        }
    }

    fn scale(&mut self) -> Result<Scale, String> {
        match self.take("scale").as_deref() {
            None | Some("full") => Ok(Scale::Full),
            Some("smoke") => Ok(Scale::Smoke),
            Some(other) => Err(format!("--scale: {other:?} is neither full nor smoke")),
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some((name, _)) => Err(format!("unknown flag --{name}")),
        }
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &RunReport) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|(def, value)| {
            (def.name, obj(vec![("value", Value::Float(*value)), ("unit", Value::from(def.unit))]))
        })
        .collect::<Vec<_>>();
    obj(vec![
        ("correct", Value::Bool(report.correct)),
        ("attempted", Value::Int(report.attempted as i64)),
        ("failed", Value::Int(report.failed as i64)),
        ("metrics", Value::obj(metrics)),
    ])
    .to_json()
}

fn run_one(mut flags: Flags) -> Result<ExitCode, String> {
    let name = flags.take("workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(&name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; the workloads are {}", known.join(", "))
    })?;
    let trace = match flags.parsed("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace: {other} is neither 0 nor 1")),
    };
    let args = RunArgs {
        workload,
        seed: flags.parsed("seed", DEFAULT_SEED)?,
        seconds: flags.parsed("seconds", DEFAULT_SECONDS)?,
        trace,
        scale: flags.scale()?,
        out_dir: flags.take("out-dir").map_or_else(default_out_dir, PathBuf::from),
    };
    flags.finish()?;
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let report = run::run(&args);
    println!("{}", result_line(&report));
    Ok(if report.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => Flags::parse(&args[1..]).and_then(suite::all),
        Some("compare") => suite::compare(&args[1..]),
        Some("spread") => Flags::parse(&args[1..]).and_then(suite::spread),
        _ => Flags::parse(&args).and_then(run_one),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}
