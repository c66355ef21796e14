//! The `experiments` command line as data: a table of [`Command`] rows
//! (names, positionals, the flags the command accepts, its handler)
//! from which [`parse`] derives the parsing, the per-command flag
//! rejection and the [`usage`] text. One spelling, one arity: a flag
//! takes a value on every row that lists it or on none, so [`parse`]
//! takes a flag's value before it knows the command.
//!
//! The table sits next to the figure handlers, in
//! `crates/bench/src/bin/experiments.rs`. The service commands are rows
//! of it like any other — [`SERVE`], [`LOADGEN`] and [`STATS`] here,
//! `fedl_dist::cli::{DIST, DIST_WORKER}` for the sharded plane — and
//! each lists exactly the flags its handler reads. Their meanings and
//! defaults are the flag tables of docs/SERVE.md and docs/DIST.md.

use std::fmt::Display;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::str::FromStr;
use std::time::Duration;

use fedl_core::policy::PolicyKind;
use fedl_json::Value;
use fedl_telemetry::{Report, Telemetry};

use crate::loadgen::{reference_run, run_loadgen, LoadgenOptions, SelectionRecord};
use crate::proto::{decode_frame, encode_frame, Message};
use crate::server::{serve_frames, FrameHandler, ServeConfig, ServeExit, ServerState};
use crate::transport::{FrameTransport, TcpTransport};

/// A flag: its spelling and, when it takes a value, the value's name in
/// the usage text. One spelling has one arity on every command.
#[derive(Debug)]
pub struct Flag {
    /// The spelling, e.g. `--out`.
    pub name: &'static str,
    /// `Some(metavar)` when the flag takes a value.
    pub value: Option<&'static str>,
}

/// One row of the command table.
pub struct Command {
    /// The command's spellings; a two-word name (`bench-history gate`)
    /// is matched over two arguments.
    pub names: &'static [&'static str],
    /// The positional arguments as the usage text spells them: a name
    /// in `[brackets]` is optional, and one ending in `...]` may repeat.
    pub positionals: &'static [&'static str],
    /// The flags the command accepts.
    pub flags: &'static [&'static Flag],
    /// Parenthetical shown after the synopsis.
    pub note: &'static str,
    /// The handler; an `Err` is printed and fails the process.
    pub run: fn(&Args) -> Result<(), String>,
}

/// What [`parse`] read off the command line for one command.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    /// The flags given, in order, each with its value if it takes one.
    pub flags: Vec<(&'static str, Option<String>)>,
    /// The positional arguments, in order.
    pub positionals: Vec<String>,
}

impl Args {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &Flag) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag.name)
    }

    /// Every value given for `flag`, in order.
    pub fn values<'a>(&'a self, flag: &'a Flag) -> impl Iterator<Item = &'a str> {
        self.flags.iter().filter(|(name, _)| *name == flag.name).filter_map(|(_, v)| v.as_deref())
    }

    /// The value of `flag`; the last one wins when it was repeated.
    pub fn value<'a>(&'a self, flag: &'a Flag) -> Option<&'a str> {
        self.values(flag).last()
    }

    /// The value of `flag` parsed as `T`, or `None` when it was not
    /// given; a value that does not parse is `"{flag}: {error}"`.
    pub fn parsed<T>(&self, flag: &Flag) -> Result<Option<T>, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        self.value(flag).map(|v| v.parse().map_err(|e| format!("{}: {e}", flag.name))).transpose()
    }
}

impl Command {
    /// Everything the usage line shows after the name.
    fn synopsis(&self) -> String {
        let mut parts: Vec<String> = self.positionals.iter().map(|p| p.to_string()).collect();
        parts.extend(self.flags.iter().map(|f| match f.value {
            Some(metavar) => format!("[{} {metavar}]", f.name),
            None => format!("[{}]", f.name),
        }));
        if !self.note.is_empty() {
            parts.push(format!("({})", self.note));
        }
        parts.join(" ")
    }
}

/// The usage text: one line per command, adjacent commands that share a
/// synopsis folded into one `<a|b|c>` line.
pub fn usage(table: &[Command]) -> String {
    let mut lines: Vec<(Vec<&str>, String)> = Vec::new();
    for command in table {
        let synopsis = command.synopsis();
        match lines.last_mut() {
            Some((names, shared)) if *shared == synopsis => names.extend(command.names),
            _ => lines.push((command.names.to_vec(), synopsis)),
        }
    }
    let mut out = String::new();
    for (i, (names, synopsis)) in lines.iter().enumerate() {
        let names = match names.as_slice() {
            [only] => only.to_string(),
            many => format!("<{}>", many.join("|")),
        };
        out.push_str(if i == 0 { "usage: " } else { "\n       " });
        out.push_str(format!("experiments {names} {synopsis}").trim_end());
    }
    out
}

/// Parses the argument list (without the program name) against `table`:
/// which command it names, and the flags and positionals given to it.
/// Flags may come before or after the command. A flag no command knows,
/// a flag the named command does not list, a missing value or a
/// positional too few or too many is an error.
pub fn parse<'t>(table: &'t [Command], args: &[String]) -> Result<(&'t Command, Args), String> {
    let mut parsed = Args::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            parsed.positionals.push(arg.clone());
            continue;
        }
        let flag = table
            .iter()
            .flat_map(|c| c.flags)
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown flag {arg}\n\n{}", usage(table)))?;
        let value = match flag.value {
            Some(_) => Some(rest.next().ok_or_else(|| format!("{} needs a value", flag.name))?),
            None => None,
        };
        parsed.flags.push((flag.name, value.cloned()));
    }
    if parsed.positionals.is_empty() {
        return Err(usage(table));
    }
    let mut name = parsed.positionals.remove(0);
    let actions: Vec<&str> = table
        .iter()
        .flat_map(|c| c.names)
        .filter_map(|n| n.strip_prefix(name.as_str())?.strip_prefix(' '))
        .collect();
    if !actions.is_empty() {
        if parsed.positionals.is_empty() {
            return Err(format!("{name} requires an action: {}", actions.join(", ")));
        }
        name = format!("{name} {}", parsed.positionals.remove(0));
    }
    let command = table
        .iter()
        .find(|c| c.names.contains(&name.as_str()))
        .ok_or_else(|| format!("unknown command: {name}\n\n{}", usage(table)))?;
    if let Some((stray, _)) =
        parsed.flags.iter().find(|(f, _)| command.flags.iter().all(|a| a.name != *f))
    {
        let own = usage(std::slice::from_ref(command));
        return Err(format!("{stray} is not an option of {name}\n\n{own}"));
    }
    let required = command.positionals.iter().filter(|p| !p.starts_with('[')).count();
    let repeats = command.positionals.last().is_some_and(|p| p.ends_with("...]"));
    if parsed.positionals.len() < required {
        return Err(format!("{name} requires {}", command.positionals[parsed.positionals.len()]));
    }
    if parsed.positionals.len() > command.positionals.len() && !repeats {
        let extra = &parsed.positionals[command.positionals.len()];
        return Err(format!("unexpected argument: {extra}"));
    }
    Ok((command, parsed))
}

/// `--addr HOST:PORT`: the address to listen on, or the node to reach.
pub const ADDR: Flag = Flag { name: "--addr", value: Some("HOST:PORT") };
/// `--clients N`: the population size (scenario).
pub const CLIENTS: Flag = Flag { name: "--clients", value: Some("N") };
/// `--seed S`: the scenario seed.
pub const SEED: Flag = Flag { name: "--seed", value: Some("S") };
/// `--budget C`: the total rental budget (scenario).
pub const BUDGET: Flag = Flag { name: "--budget", value: Some("C") };
/// `--min-participants N`: the per-epoch participation floor (scenario).
pub const MIN_PARTICIPANTS: Flag = Flag { name: "--min-participants", value: Some("N") };
/// `--policy P`: the selection policy label (scenario).
pub const POLICY: Flag = Flag { name: "--policy", value: Some("P") };
/// `--io-timeout SECS`: the per-call socket deadline.
pub const IO_TIMEOUT: Flag = Flag { name: "--io-timeout", value: Some("SECS") };
/// `--telemetry FILE`: write a JSONL run log.
pub const TELEMETRY: Flag = Flag { name: "--telemetry", value: Some("FILE") };
/// `--port-file FILE`: publish the bound port (for `--addr HOST:0`).
pub const PORT_FILE: Flag = Flag { name: "--port-file", value: Some("FILE") };
/// `--checkpoint FILE`: the checkpoint envelope path.
pub const CHECKPOINT: Flag = Flag { name: "--checkpoint", value: Some("FILE") };
/// `--resume`: restore from `--checkpoint` before serving.
pub const RESUME: Flag = Flag { name: "--resume", value: None };
/// `--epochs E`: selection epochs to drive.
pub const EPOCHS: Flag = Flag { name: "--epochs", value: Some("E") };
/// `--out FILE`: write the selections as JSONL, one line per epoch.
pub const OUT: Flag = Flag { name: "--out", value: Some("FILE") };
/// `--verify-reference`: compare against the in-process reference run.
pub const VERIFY_REFERENCE: Flag = Flag { name: "--verify-reference", value: None };
/// `--shutdown`: ask the peers to exit when done.
pub const SHUTDOWN: Flag = Flag { name: "--shutdown", value: None };

const CHECKPOINT_EVERY: Flag = Flag { name: "--checkpoint-every", value: Some("N") };
const START_EPOCH: Flag = Flag { name: "--start-epoch", value: Some("T") };
const CONNECT_RETRIES: Flag = Flag { name: "--connect-retries", value: Some("N") };
const JSON: Flag = Flag { name: "--json", value: None };

/// `experiments serve`: the federation coordinator.
pub const SERVE: Command = Command {
    names: &["serve"],
    positionals: &[],
    flags: &[
        &ADDR,
        &CLIENTS,
        &SEED,
        &BUDGET,
        &MIN_PARTICIPANTS,
        &POLICY,
        &CHECKPOINT,
        &CHECKPOINT_EVERY,
        &RESUME,
        &TELEMETRY,
        &PORT_FILE,
        &IO_TIMEOUT,
    ],
    note: "--addr required; see docs/SERVE.md",
    run: run_serve,
};

/// `experiments loadgen`: replay a population against a coordinator.
pub const LOADGEN: Command = Command {
    names: &["loadgen"],
    positionals: &[],
    flags: &[
        &ADDR,
        &CLIENTS,
        &SEED,
        &BUDGET,
        &MIN_PARTICIPANTS,
        &POLICY,
        &EPOCHS,
        &START_EPOCH,
        &OUT,
        &VERIFY_REFERENCE,
        &SHUTDOWN,
        &CONNECT_RETRIES,
        &IO_TIMEOUT,
    ],
    note: "--addr required",
    run: run_loadgen_cli,
};

/// `experiments stats`: one live registry snapshot from a coordinator.
pub const STATS: Command = Command {
    names: &["stats"],
    positionals: &[],
    flags: &[&ADDR, &JSON, &CONNECT_RETRIES, &IO_TIMEOUT],
    note: "--addr required",
    run: run_stats,
};

/// The deployment the five scenario flags describe (`--clients`,
/// `--seed`, `--budget`, `--min-participants`, `--policy`); every node
/// of a deployment must be given the same ones.
pub fn scenario(args: &Args) -> Result<ServeConfig, String> {
    let clients: usize = args.parsed(&CLIENTS)?.unwrap_or(100);
    if clients == 0 {
        return Err("--clients must be positive".into());
    }
    let policy = match args.value(&POLICY) {
        Some(label) => PolicyKind::from_label(label)
            .ok_or_else(|| format!("unknown policy {label:?} (fedl|fedavg|fedcs|powd|oracle)"))?,
        None => PolicyKind::FedL,
    };
    let budget: f64 = args.parsed(&BUDGET)?.unwrap_or(500.0);
    if !(budget.is_finite() && budget > 0.0) {
        return Err("--budget must be a positive finite number".into());
    }
    let min_participants = args.parsed(&MIN_PARTICIPANTS)?.unwrap_or(3);
    if !(1..=clients).contains(&min_participants) {
        return Err(format!("--min-participants must be between 1 and --clients ({clients})"));
    }
    Ok(ServeConfig::new(
        clients,
        args.parsed(&SEED)?.unwrap_or(7),
        budget,
        min_participants,
        policy,
    ))
}

/// The required `--addr`.
pub fn addr(args: &Args) -> Result<&str, String> {
    args.value(&ADDR).ok_or_else(|| "--addr is required".to_string())
}

/// The `--io-timeout` deadline, or the command's `default` without one.
pub fn io_timeout(args: &Args, default: Option<Duration>) -> Result<Option<Duration>, String> {
    let Some(secs) = args.parsed::<f64>(&IO_TIMEOUT)? else { return Ok(default) };
    if !secs.is_finite() || secs <= 0.0 {
        return Err("--io-timeout must be a positive number of seconds".into());
    }
    Ok(Some(Duration::from_secs_f64(secs)))
}

/// The `--telemetry` run log, or a disabled handle without one.
pub fn open_telemetry(args: &Args) -> Result<Telemetry, String> {
    match args.value(&TELEMETRY) {
        Some(path) => {
            Telemetry::to_file(path).map_err(|e| format!("cannot open telemetry log {path}: {e}"))
        }
        None => Ok(Telemetry::disabled()),
    }
}

/// The checkpoint `--resume` restores from: `None` without `--resume`,
/// and an error when `--resume` comes without `--checkpoint FILE`.
pub fn resume_from(args: &Args) -> Result<Option<&Path>, String> {
    if !args.has(&RESUME) {
        return Ok(None);
    }
    match args.value(&CHECKPOINT) {
        Some(path) => Ok(Some(Path::new(path))),
        None => Err("--resume requires --checkpoint FILE".into()),
    }
}

/// Binds `addr` for node `who` and publishes the bound port to
/// `port_file` — atomically (tmp + rename), so a watcher polling the
/// path never reads a half-written port number.
pub fn bind(who: &str, addr: &str, port_file: Option<&Path>) -> Result<TcpListener, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    if let Some(port_file) = port_file {
        fedl_store::write_atomic(port_file, local.port().to_string())
            .map_err(|e| format!("cannot write {}: {e}", port_file.display()))?;
    }
    eprintln!("{who}: listening on {local}");
    Ok(listener)
}

/// Serves `listener`'s connections one after another until one asks for
/// shutdown. A connection that desyncs is dropped and the next accepted:
/// the frame-driven state is still consistent, and the peer reconnects.
pub fn serve_listener(
    who: &str,
    listener: &TcpListener,
    io_timeout: Option<Duration>,
    state: &mut impl FrameHandler,
) -> Result<(), String> {
    for incoming in listener.incoming() {
        let stream = incoming.map_err(|e| format!("accept failed: {e}"))?;
        let mut transport = TcpTransport::with_timeout(stream, io_timeout);
        match serve_frames(&mut transport, state) {
            Ok(ServeExit::Shutdown) => break,
            Ok(ServeExit::PeerClosed) => {}
            Err(err) => eprintln!("{who}: connection dropped: {err}"),
        }
    }
    Ok(())
}

/// `experiments serve`: bind, (optionally) resume from a checkpoint,
/// then serve connections until a `Shutdown` message arrives.
fn run_serve(args: &Args) -> Result<(), String> {
    let config = scenario(args)?;
    let io_timeout = io_timeout(args, None)?;
    let every = args.parsed(&CHECKPOINT_EVERY)?.unwrap_or(1);
    if every == 0 {
        return Err("--checkpoint-every must be positive".into());
    }
    let resume = resume_from(args)?;
    let addr = addr(args)?;
    let telemetry = open_telemetry(args)?;
    let listener = bind("fedl-serve", addr, args.value(&PORT_FILE).map(Path::new))?;
    let mut state = match resume {
        Some(path) => ServerState::resume(config.clone(), telemetry, path)
            .map_err(|e| format!("resume failed: {e}"))?,
        None => ServerState::new(config.clone(), telemetry),
    };
    if let Some(path) = args.value(&CHECKPOINT) {
        state = state.with_checkpoint(path, every);
    }
    eprintln!(
        "fedl-serve: {} clients, budget {}, policy {}, epoch {}",
        config.env.num_clients,
        config.budget,
        config.policy.label(),
        state.next_epoch(),
    );
    serve_listener("fedl-serve", &listener, io_timeout, &mut state)?;
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
fn run_loadgen_cli(args: &Args) -> Result<(), String> {
    let config = scenario(args)?;
    let io_timeout = io_timeout(args, None)?;
    let retries = args.parsed(&CONNECT_RETRIES)?.unwrap_or(50);
    let opts = LoadgenOptions {
        epochs: args.parsed(&EPOCHS)?.unwrap_or(10),
        start_epoch: args.parsed(&START_EPOCH)?.unwrap_or(0),
        shutdown: args.has(&SHUTDOWN),
    };
    let stream = connect(addr(args)?, retries)?;
    let mut transport = TcpTransport::with_timeout(stream, io_timeout);
    let report =
        run_loadgen(&mut transport, &config, &opts).map_err(|e| format!("loadgen: {e}"))?;
    println!(
        "serve loadgen: {} epochs over {} clients in {:.3} s — {:.1} selections/sec{}",
        report.selections.len(),
        report.clients,
        report.elapsed_secs,
        report.selections_per_sec(),
        if report.done { " (budget exhausted)" } else { "" },
    );
    if let Some(out) = args.value(&OUT).map(Path::new) {
        write_selections(out, &report.selections)?;
        println!("wrote selections: {}", out.display());
    }
    if args.has(&VERIFY_REFERENCE) {
        let reference = reference_run(&config, opts.start_epoch + opts.epochs);
        let expected = &reference[opts.start_epoch.min(reference.len())..];
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
fn run_stats(args: &Args) -> Result<(), String> {
    let io_timeout = io_timeout(args, Some(Duration::from_secs(10)))?;
    let addr = addr(args)?;
    let stream = connect(addr, args.parsed(&CONNECT_RETRIES)?.unwrap_or(50))?;
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
    if args.has(&JSON) {
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

    const QUICK: Flag = Flag { name: "--quick", value: None };
    const DIR: Flag = Flag { name: "--out", value: Some("DIR") };
    const HTML: Flag = Flag { name: "--html", value: Some("FILE.html") };

    fn ok(_: &Args) -> Result<(), String> {
        Ok(())
    }

    const fn row(
        names: &'static [&'static str],
        positionals: &'static [&'static str],
        flags: &'static [&'static Flag],
        note: &'static str,
    ) -> Command {
        Command { names, positionals, flags, note, run: ok }
    }

    static TABLE: &[Command] = &[
        row(&["fig2", "fig4"], &[], &[&QUICK, &DIR], ""),
        row(&["fig6"], &[], &[&QUICK, &DIR], ""),
        row(&["report"], &["FILE"], &[], ""),
        row(&["history gate"], &["NEW.json"], &[], ""),
        row(&["history report"], &[], &[&HTML], ""),
        row(&["dashboard"], &["RUN.jsonl", "[RUN2.jsonl ...]"], &[&HTML], "one or more"),
        SERVE,
        LOADGEN,
        STATS,
    ];

    /// `line` split at whitespace and parsed against [`TABLE`].
    fn parsed(line: &str) -> Result<(&'static Command, Args), String> {
        let words: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(TABLE, &words)
    }

    fn parse_ok(line: &str) -> (&'static str, Args) {
        let (command, args) = parsed(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        (command.names[0], args)
    }

    fn parse_err(line: &str) -> String {
        match parsed(line) {
            Ok((command, _)) => panic!("{line} parsed as {}", command.names[0]),
            Err(e) => e,
        }
    }

    #[test]
    fn usage_is_derived_from_the_table() {
        let usage = usage(TABLE);
        let lines: Vec<&str> = usage.lines().collect();
        assert_eq!(
            lines[..5],
            [
                "usage: experiments <fig2|fig4|fig6> [--quick] [--out DIR]",
                "       experiments report FILE",
                "       experiments history gate NEW.json",
                "       experiments history report [--html FILE.html]",
                "       experiments dashboard RUN.jsonl [RUN2.jsonl ...] [--html FILE.html] \
                 (one or more)",
            ]
        );
        assert_eq!(
            lines[7],
            "       experiments stats [--addr HOST:PORT] [--json] [--connect-retries N] \
             [--io-timeout SECS] (--addr required)"
        );
    }

    #[test]
    fn flags_and_positionals_land_in_args_in_any_order() {
        let (name, args) = parse_ok("--quick --out /tmp/x fig4");
        assert_eq!(name, "fig2", "aliases share a row");
        assert!(args.has(&QUICK) && !args.has(&HTML));
        assert_eq!(args.value(&DIR), Some("/tmp/x"));
        let (_, args) = parse_ok("fig6 --out a --out b");
        assert_eq!(args.values(&DIR).collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!((args.value(&DIR), args.has(&QUICK)), (Some("b"), false));
        let (name, args) = parse_ok("dashboard a.jsonl --html o.html b.jsonl");
        assert_eq!((name, args.positionals.len()), ("dashboard", 2));
        let (name, args) = parse_ok("history gate NEW.json");
        assert_eq!((name, args.positionals), ("history gate", vec!["NEW.json".to_string()]));
        // `--out` is a directory to a figure and a file to loadgen.
        let (name, args) = parse_ok("--out sel.jsonl loadgen --addr x");
        assert_eq!((name, args.value(&OUT), addr(&args)), ("loadgen", Some("sel.jsonl"), Ok("x")));
    }

    #[test]
    fn bad_lines_are_descriptive_errors() {
        assert!(parse_err("").starts_with("usage: experiments"));
        assert!(parse_err("--quick").starts_with("usage: experiments"));
        assert!(parse_err("frobnicate").contains("unknown command: frobnicate"));
        assert!(parse_err("fig2 --bogus").contains("unknown flag --bogus"));
        assert!(parse_err("fig2 --out").contains("--out needs a value"));
        assert!(parse_err("fig2 fig6").contains("unexpected argument: fig6"));
        assert!(parse_err("report").contains("report requires FILE"));
        assert!(parse_err("report a b").contains("unexpected argument: b"));
        assert!(parse_err("dashboard").contains("dashboard requires RUN.jsonl"));
        assert!(parse_err("history").contains("history requires an action: gate, report"));
        assert!(parse_err("history frobnicate").contains("unknown command: history frob"));
        assert!(parse_err("history gate").contains("history gate requires NEW.json"));
        let stray = parse_err("history gate a.json --html x.html");
        assert!(stray.contains("--html is not an option of history gate"), "{stray}");
        assert!(stray.ends_with("usage: experiments history gate NEW.json"), "{stray}");
        assert!(parse_err("serve --addr x --html y").contains("--html is not an option of serve"));
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
    fn parses_the_shared_scenario_flags_and_the_io_timeout() {
        let line = "loadgen --clients 40 --seed 11 --budget 250 --min-participants 4 --policy powd";
        let (_, args) = parse_ok(&format!("{line} --io-timeout 2.5"));
        let c = scenario(&args).unwrap();
        assert_eq!((c.env.num_clients, c.env.seed, c.budget), (40, 11, 250.0));
        assert_eq!((c.min_participants, c.policy), (4, PolicyKind::PowD));
        assert_eq!(io_timeout(&args, None), Ok(Some(Duration::from_millis(2500))));
        let (none, ten) = (Args::default(), Some(Duration::from_secs(10)));
        let defaults = ServeConfig::new(100, 7, 500.0, 3, PolicyKind::FedL);
        assert_eq!(scenario(&none).unwrap().fingerprint(), defaults.fingerprint());
        assert_eq!((io_timeout(&none, None), io_timeout(&none, ten)), (Ok(None), Ok(ten)));
    }

    /// No line here names an `--addr`, so a check that let its line
    /// through would stop at "--addr is required", never at a socket.
    #[test]
    fn bad_service_values_are_refused_before_anything_binds() {
        let timeout = "--io-timeout must be a positive number of seconds";
        for (line, want) in [
            ("serve --checkpoint x --checkpoint-every 0", "--checkpoint-every must be positive"),
            ("serve --clients 0", "--clients must be positive"),
            ("loadgen --clients 0", "--clients must be positive"),
            ("serve --min-participants 0", "--min-participants must be between 1 and --clients"),
            ("loadgen --clients 5 --min-participants 6", "between 1 and --clients (5)"),
            ("serve --budget 0", "--budget must be a positive finite number"),
            ("loadgen --budget -2", "--budget must be a positive finite number"),
            ("serve --budget inf", "--budget must be a positive finite number"),
            ("loadgen --budget NaN", "--budget must be a positive finite number"),
            ("serve --io-timeout 0", timeout),
            ("loadgen --io-timeout -3", timeout),
            ("stats --io-timeout inf", timeout),
            ("stats --io-timeout NaN", timeout),
            ("stats --io-timeout soon", "--io-timeout: invalid float literal"),
            ("serve --resume", "--resume requires --checkpoint FILE"),
            ("loadgen --policy magic", "unknown policy \"magic\""),
            ("serve --seed x", "--seed: invalid digit"),
            ("serve", "--addr is required"),
            ("loadgen", "--addr is required"),
            ("stats", "--addr is required"),
        ] {
            let (command, args) = parsed(line).unwrap();
            let err = (command.run)(&args).unwrap_err();
            assert!(err.contains(want), "{line}: {err}");
        }
    }
}
