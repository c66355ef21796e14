//! Command-line drivers behind `experiments serve` and
//! `experiments loadgen` (the bench binary routes both subcommands
//! here; see docs/SERVE.md for usage).

use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::slice::Iter;
use std::time::Duration;

use fedl_core::policy::PolicyKind;
use fedl_json::Value;
use fedl_telemetry::{Report, Telemetry};

use crate::loadgen::{reference_run, run_loadgen, LoadgenOptions, SelectionRecord};
use crate::proto::{decode_frame, encode_frame, Message, ProtocolError};
use crate::server::{serve_frames, Control, ServeConfig, ServeExit, ServerState};
use crate::transport::{FrameTransport, TcpTransport};

/// Usage text for the serve-family subcommands.
pub const USAGE: &str = "\
experiments serve --addr HOST:PORT [options]      start the coordinator
experiments loadgen --addr HOST:PORT [options]    replay clients against it
experiments stats --addr HOST:PORT [options]      poll live metrics from a
                                                  running coordinator

shared scenario options (server and loadgen must agree):
  --clients N             population size (default 100)
  --seed S                scenario seed (default 7)
  --budget C              total rental budget (default 500)
  --min-participants N    participation floor per epoch (default 3)
  --policy P              fedl | fedavg | fedcs | powd | oracle (default fedl)

serve options:
  --checkpoint FILE       checkpoint envelope path
  --checkpoint-every N    checkpoint after every N completed epochs (default 1)
  --resume                restore state from --checkpoint before serving
  --telemetry FILE        write a JSONL run log
  --port-file FILE        write the bound port atomically (for --addr HOST:0)

loadgen options:
  --epochs E              selection epochs to drive (default 10)
  --start-epoch T         first epoch to request (default 0)
  --out FILE              write selections as JSONL, one line per epoch
  --verify-reference      compare against the in-process reference run
  --shutdown              ask the server to exit when done
  --connect-retries N     connection attempts, 100 ms apart (default 50)
  --io-timeout SECS       per-call socket deadline (default: none, block forever)

stats options:
  --json                  print the raw registry snapshot as one JSON object
  --connect-retries N     connection attempts, 100 ms apart (default 50)
  --io-timeout SECS       per-call socket deadline (default 10)
";

/// Parses a policy label as the serve/loadgen/dist CLIs spell them.
pub fn parse_policy(s: &str) -> Result<PolicyKind, String> {
    PolicyKind::from_label(s)
        .ok_or_else(|| format!("unknown policy {s:?} (fedl|fedavg|fedcs|powd|oracle)"))
}

/// The value following `flag`.
pub fn flag_value<'a>(flag: &str, rest: &mut Iter<'a, String>) -> Result<&'a String, String> {
    rest.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The value following `flag`, parsed.
pub fn parse_value<T>(flag: &str, rest: &mut Iter<'_, String>) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    flag_value(flag, rest)?.parse().map_err(|e| format!("{flag}: {e}"))
}

/// The parsed flags of a serve-family subcommand, one field per flag of
/// the same name. The dist family shares the scenario and I/O flags by
/// parsing through [`parse_with`] too, so the nodes of a deployment
/// cannot drift apart on a default.
#[derive(Debug)]
#[allow(missing_docs)]
pub struct Parsed {
    pub addr: Option<String>,
    /// The deployment the scenario flags describe.
    pub config: ServeConfig,
    pub checkpoint: Option<PathBuf>,
    pub checkpoint_every: usize,
    pub resume: bool,
    pub telemetry: Option<PathBuf>,
    pub port_file: Option<PathBuf>,
    pub epochs: usize,
    pub start_epoch: usize,
    pub out: Option<PathBuf>,
    pub verify_reference: bool,
    pub shutdown: bool,
    pub connect_retries: usize,
    pub io_timeout: Option<Duration>,
    pub json: bool,
}

impl Parsed {
    /// The required `--addr`.
    pub fn addr(&self) -> Result<&str, String> {
        self.addr.as_deref().ok_or_else(|| "--addr is required".to_string())
    }

    /// The `--telemetry` run log, or a disabled handle without one.
    pub fn open_telemetry(&self) -> Result<Telemetry, String> {
        match &self.telemetry {
            Some(path) => Telemetry::to_file(path)
                .map_err(|e| format!("cannot open telemetry log {}: {e}", path.display())),
            None => Ok(Telemetry::disabled()),
        }
    }
}

/// Parses `args`. `io_timeout` is the subcommand's default deadline;
/// `extra` is offered every flag this grammar does not know (and the
/// rest of the arguments, to take a value from) and answers whether it
/// was the caller's own.
pub fn parse_with(
    args: &[String],
    usage: &str,
    io_timeout: Option<Duration>,
    mut extra: impl FnMut(&str, &mut Iter<'_, String>) -> Result<bool, String>,
) -> Result<Parsed, String> {
    let (mut clients, mut seed, mut budget, mut min_participants) = (100usize, 7u64, 500.0, 3usize);
    let mut policy = PolicyKind::FedL;
    let mut p = Parsed {
        addr: None,
        config: ServeConfig::new(clients, seed, budget, min_participants, policy),
        checkpoint: None,
        checkpoint_every: 1,
        resume: false,
        telemetry: None,
        port_file: None,
        epochs: 10,
        start_epoch: 0,
        out: None,
        verify_reference: false,
        shutdown: false,
        connect_retries: 50,
        io_timeout,
        json: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        match flag {
            "--addr" => p.addr = Some(flag_value(flag, &mut it)?.clone()),
            "--clients" => clients = parse_value(flag, &mut it)?,
            "--seed" => seed = parse_value(flag, &mut it)?,
            "--budget" => budget = parse_value(flag, &mut it)?,
            "--min-participants" => min_participants = parse_value(flag, &mut it)?,
            "--policy" => policy = parse_policy(flag_value(flag, &mut it)?)?,
            "--checkpoint" => p.checkpoint = Some(PathBuf::from(flag_value(flag, &mut it)?)),
            "--checkpoint-every" => p.checkpoint_every = parse_value(flag, &mut it)?,
            "--resume" => p.resume = true,
            "--telemetry" => p.telemetry = Some(PathBuf::from(flag_value(flag, &mut it)?)),
            "--port-file" => p.port_file = Some(PathBuf::from(flag_value(flag, &mut it)?)),
            "--epochs" => p.epochs = parse_value(flag, &mut it)?,
            "--start-epoch" => p.start_epoch = parse_value(flag, &mut it)?,
            "--out" => p.out = Some(PathBuf::from(flag_value(flag, &mut it)?)),
            "--verify-reference" => p.verify_reference = true,
            "--shutdown" => p.shutdown = true,
            "--json" => p.json = true,
            "--connect-retries" => p.connect_retries = parse_value(flag, &mut it)?,
            "--io-timeout" => {
                let secs: f64 = parse_value(flag, &mut it)?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--io-timeout must be a positive number of seconds".into());
                }
                p.io_timeout = Some(Duration::from_secs_f64(secs));
            }
            other if extra(other, &mut it)? => {}
            other => return Err(format!("unknown flag {other:?}\n\n{usage}")),
        }
    }
    if clients == 0 {
        return Err("--clients must be positive".into());
    }
    p.config = ServeConfig::new(clients, seed, budget, min_participants, policy);
    Ok(p)
}

fn parse(args: &[String]) -> Result<Parsed, String> {
    parse_with(args, USAGE, None, |_, _| Ok(false))
}

/// Binds `addr` for node `who` and publishes the bound port to
/// `port_file` — atomically (tmp + rename), so a watcher polling the
/// path never reads a half-written port number.
pub fn bind(who: &str, addr: &str, port_file: Option<&Path>) -> Result<TcpListener, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    if let Some(port_file) = port_file {
        fedl_store::write_atomic(port_file, &local.port().to_string())
            .map_err(|e| format!("cannot write {}: {e}", port_file.display()))?;
    }
    eprintln!("{who}: listening on {local}");
    Ok(listener)
}

/// Serves `listener`'s connections one after another until one asks for
/// shutdown. A connection that desyncs is dropped and the next accepted:
/// the frame-driven state is still consistent, and the peer reconnects.
pub fn serve_listener<S>(
    who: &str,
    listener: &TcpListener,
    io_timeout: Option<Duration>,
    state: &mut S,
    handle: fn(&mut S, &[u8]) -> (Vec<u8>, Control),
    malformed: fn(&mut S, &ProtocolError),
) -> Result<(), String> {
    for incoming in listener.incoming() {
        let stream = incoming.map_err(|e| format!("accept failed: {e}"))?;
        let mut transport = TcpTransport::with_timeout(stream, io_timeout);
        match serve_frames(&mut transport, state, handle, malformed) {
            Ok(ServeExit::Shutdown) => break,
            Ok(ServeExit::PeerClosed) => {}
            Err(err) => eprintln!("{who}: connection dropped: {err}"),
        }
    }
    Ok(())
}

/// `experiments serve`: bind, (optionally) resume from a checkpoint,
/// then serve connections until a `Shutdown` message arrives.
pub fn run_serve(args: &[String]) -> Result<(), String> {
    let parsed = parse(args)?;
    let telemetry = parsed.open_telemetry()?;
    let listener = bind("fedl-serve", parsed.addr()?, parsed.port_file.as_deref())?;
    let mut state = if parsed.resume {
        let path = parsed
            .checkpoint
            .as_deref()
            .ok_or_else(|| "--resume requires --checkpoint FILE".to_string())?;
        ServerState::resume(parsed.config.clone(), telemetry, path)
            .map_err(|e| format!("resume failed: {e}"))?
    } else {
        ServerState::new(parsed.config.clone(), telemetry)
    };
    if let Some(path) = &parsed.checkpoint {
        state = state.with_checkpoint(path, parsed.checkpoint_every);
    }
    eprintln!(
        "fedl-serve: {} clients, budget {}, policy {}, epoch {}",
        parsed.config.env.num_clients,
        parsed.config.budget,
        parsed.config.policy.label(),
        state.next_epoch(),
    );
    let (handle, malformed) = (ServerState::handle_frame, ServerState::note_malformed);
    serve_listener("fedl-serve", &listener, parsed.io_timeout, &mut state, handle, malformed)?;
    eprintln!(
        "fedl-serve: shutdown at epoch {} after {} selections",
        state.next_epoch(),
        state.selections(),
    );
    Ok(())
}

/// Connects to `addr`, retrying every 100 ms up to `retries` times (the
/// peer may still be binding its listener).
pub fn connect(addr: &str, retries: usize) -> Result<TcpStream, String> {
    let mut last = String::new();
    for _ in 0..retries.max(1) {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    Err(format!("cannot connect to {addr} after {retries} attempts: {last}"))
}

/// Writes selections as JSONL, one line per epoch (the `--out` artifact
/// the CI stages byte-compare).
pub fn write_selections(path: &Path, records: &[SelectionRecord]) -> Result<(), String> {
    let mut text = String::new();
    for record in records {
        text.push_str(&record.to_json_line());
        text.push('\n');
    }
    fedl_store::write_atomic(path, &text)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `experiments loadgen`: connect (with retry), replay the population,
/// report sustained selections/sec, and optionally verify the served
/// selections against the in-process reference.
pub fn run_loadgen_cli(args: &[String]) -> Result<(), String> {
    let parsed = parse(args)?;
    let stream = connect(parsed.addr()?, parsed.connect_retries)?;
    let mut transport = TcpTransport::with_timeout(stream, parsed.io_timeout);
    let opts = LoadgenOptions {
        epochs: parsed.epochs,
        start_epoch: parsed.start_epoch,
        shutdown: parsed.shutdown,
    };
    let report =
        run_loadgen(&mut transport, &parsed.config, &opts).map_err(|e| format!("loadgen: {e}"))?;
    println!(
        "serve loadgen: {} epochs over {} clients in {:.3} s — {:.1} selections/sec{}",
        report.selections.len(),
        report.clients,
        report.elapsed_secs,
        report.selections_per_sec(),
        if report.done { " (budget exhausted)" } else { "" },
    );
    if let Some(out) = &parsed.out {
        write_selections(out, &report.selections)?;
        println!("wrote selections: {}", out.display());
    }
    if parsed.verify_reference {
        let reference = reference_run(&parsed.config, parsed.start_epoch + parsed.epochs);
        let expected = &reference[parsed.start_epoch.min(reference.len())..];
        if report.selections != expected {
            return Err(format!(
                "served selections diverge from the in-process reference \
                 ({} served vs {} reference records)",
                report.selections.len(),
                expected.len(),
            ));
        }
        println!("verified: served selections match the in-process reference bit-for-bit");
    }
    Ok(())
}

/// `experiments stats`: one `Stats` round-trip against a running
/// coordinator — `fedl-serve`, or an `experiments dist` run started
/// with `--stats-addr` — printing the live registry snapshot without
/// restarting or otherwise disturbing it.
pub fn run_stats(args: &[String]) -> Result<(), String> {
    let parsed = parse(args)?;
    let addr = parsed.addr()?;
    let stream = connect(addr, parsed.connect_retries)?;
    let io_timeout = parsed.io_timeout.or(Some(Duration::from_secs(10)));
    let mut transport = TcpTransport::with_timeout(stream, io_timeout);
    transport.send(&encode_frame(&Message::Stats)).map_err(|e| format!("stats: {e}"))?;
    let frame = transport
        .recv()
        .map_err(|e| format!("stats: {e}"))?
        .ok_or_else(|| "stats: coordinator closed the connection".to_string())?;
    let registry = match decode_frame(&frame).map_err(|e| format!("stats: {e}"))? {
        Message::StatsSnapshot { registry } => registry,
        Message::Error { code, detail } => {
            return Err(format!("stats: coordinator refused: {code}: {detail}"))
        }
        other => return Err(format!("stats: unexpected reply {other:?}")),
    };
    if parsed.json {
        println!("{}", registry.to_json());
    } else {
        print!("{}", stats_report(addr, &registry).text());
    }
    Ok(())
}

/// The `experiments stats` report: counters and gauges one per line,
/// histograms as count/mean/p50/p90/p99 summaries.
fn stats_report(addr: &str, registry: &Value) -> Report {
    let mut report = Report::new(format!("live stats from {addr}"));
    report.note(format!("live stats from {addr}"));
    let section = |name: &str| -> &[(String, Value)] {
        match registry.get(name) {
            Some(Value::Obj(pairs)) => pairs,
            _ => &[],
        }
    };
    let (counters, gauges, histograms) =
        (section("counters"), section("gauges"), section("histograms"));
    if counters.is_empty() && gauges.is_empty() && histograms.is_empty() {
        report.note("  (registry is empty — was the coordinator started with telemetry?)");
        return report;
    }
    let num = |v: &Value, key: &str| -> String {
        match v.get(key) {
            Some(Value::Int(i)) => i.to_string(),
            Some(Value::Float(f)) => format!("{f:.6}"),
            _ => "-".to_string(),
        }
    };
    if !counters.is_empty() {
        report.note("counters:");
        for (name, value) in counters {
            report.note(format!("  {name} = {}", value.as_i64().unwrap_or(0)));
        }
    }
    if !gauges.is_empty() {
        report.note("gauges:");
        for (name, value) in gauges {
            match value {
                Value::Float(f) => report.note(format!("  {name} = {f}")),
                other => report.note(format!("  {name} = {}", other.to_json())),
            }
        }
    }
    if !histograms.is_empty() {
        report.note("histograms:");
        for (name, summary) in histograms {
            report.note(format!(
                "  {name}: count {} mean {} p50 {} p90 {} p99 {}",
                num(summary, "count"),
                num(summary, "mean"),
                num(summary, "p50"),
                num(summary, "p90"),
                num(summary, "p99"),
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn stats_rendering_covers_all_sections_and_empty_registries() {
        let (tel, sink) = Telemetry::in_memory();
        tel.counter("serve.selections").add(4);
        tel.gauge("budget.remaining").set(123.5);
        for i in 0..100 {
            tel.histogram("proto.frame_bytes").record(i as f64);
        }
        let _ = sink;
        let text = stats_report("127.0.0.1:9", &tel.registry_snapshot()).text();
        assert!(text.contains("serve.selections = 4"), "{text}");
        assert!(text.contains("budget.remaining = 123.5"), "{text}");
        assert!(text.contains("proto.frame_bytes: count 100"), "{text}");
        assert!(text.contains("p99"), "{text}");
        let empty = stats_report("x", &Telemetry::disabled().registry_snapshot()).text();
        assert!(empty.contains("registry is empty"), "{empty}");
    }

    #[test]
    fn parses_the_shared_scenario_flags() {
        let p = parse(&strs(&[
            "--addr",
            "127.0.0.1:0",
            "--clients",
            "40",
            "--seed",
            "11",
            "--budget",
            "250",
            "--min-participants",
            "4",
            "--policy",
            "powd",
            "--epochs",
            "12",
            "--shutdown",
        ]))
        .unwrap();
        assert_eq!(p.config.env.num_clients, 40);
        assert_eq!(p.config.env.seed, 11);
        assert_eq!(p.config.budget, 250.0);
        assert_eq!(p.config.min_participants, 4);
        assert_eq!(p.config.policy, PolicyKind::PowD);
        assert_eq!(p.epochs, 12);
        assert!(p.shutdown && !p.resume && !p.verify_reference);
    }

    #[test]
    fn io_timeout_parses_and_rejects_nonpositive() {
        let p = parse(&strs(&["--addr", "x", "--io-timeout", "2.5"])).unwrap();
        assert_eq!(p.io_timeout, Some(Duration::from_millis(2500)));
        assert!(parse(&strs(&["--addr", "x"])).unwrap().io_timeout.is_none());
        assert!(parse(&strs(&["--addr", "x", "--io-timeout", "0"]))
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&strs(&["--addr", "x", "--io-timeout", "-3"]))
            .unwrap_err()
            .contains("positive"));
    }

    #[test]
    fn missing_addr_and_unknown_flags_are_errors() {
        assert!(parse(&strs(&["--clients", "10"])).unwrap().addr().unwrap_err().contains("--addr"));
        assert!(parse(&strs(&["--addr", "x", "--bogus"])).unwrap_err().contains("--bogus"));
        assert!(parse(&strs(&["--addr", "x", "--policy", "magic"]))
            .unwrap_err()
            .contains("unknown policy"));
        assert!(parse(&strs(&["--addr", "x", "--epochs"])).unwrap_err().contains("needs a value"));
    }
}
