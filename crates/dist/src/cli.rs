//! The `experiments dist` and `experiments dist-worker` rows of the
//! command table ([`DIST`], [`DIST_WORKER`]; the grammar is
//! `fedl_serve::cli`), and the worker links `dist` drives over TCP.
//! docs/DIST.md has the flag tables.

use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::{Duration, Instant};

use fedl_serve::cli::{
    addr, bind, connect, io_timeout, open_telemetry, resume_from, scenario, serve_listener,
    write_selections, Args, Command, Flag, ADDR, BUDGET, CHECKPOINT, CLIENTS, EPOCHS, IO_TIMEOUT,
    MIN_PARTICIPANTS, OUT, POLICY, PORT_FILE, RESUME, SEED, SHUTDOWN, TELEMETRY, VERIFY_REFERENCE,
};
use fedl_serve::proto::{
    decode_frame_traced, encode_frame, encode_frame_traced, Message, ProtocolError,
    PROTOCOL_VERSION,
};
use fedl_serve::reference_run;
use fedl_serve::transport::{FrameTransport, TcpTransport};
use fedl_telemetry::Telemetry;

use crate::coordinator::{Coordinator, DistOptions, ShardWorker, WorkerLink};
use crate::shard::shard_ranges;
use crate::worker::WorkerState;

const WORKERS: Flag = Flag { name: "--workers", value: Some("N") };
const WORKER_ADDR: Flag = Flag { name: "--worker-addr", value: Some("HOST:PORT") };
const MAX_RESETS: Flag = Flag { name: "--max-resets", value: Some("N") };
const STATS_ADDR: Flag = Flag { name: "--stats-addr", value: Some("HOST:PORT") };
const STATS_PORT_FILE: Flag = Flag { name: "--stats-port-file", value: Some("FILE") };

/// `experiments dist`: a sharded federation over worker processes.
pub const DIST: Command = Command {
    names: &["dist"],
    positionals: &[],
    flags: &[
        &CLIENTS,
        &SEED,
        &BUDGET,
        &MIN_PARTICIPANTS,
        &POLICY,
        &WORKERS,
        &WORKER_ADDR,
        &EPOCHS,
        &OUT,
        &VERIFY_REFERENCE,
        &IO_TIMEOUT,
        &MAX_RESETS,
        &TELEMETRY,
        &SHUTDOWN,
        &STATS_ADDR,
        &STATS_PORT_FILE,
    ],
    note: "see docs/DIST.md",
    run: run_dist,
};

/// `experiments dist-worker`: serve one population shard.
pub const DIST_WORKER: Command = Command {
    names: &["dist-worker"],
    positionals: &[],
    flags: &[&ADDR, &PORT_FILE, &CHECKPOINT, &RESUME, &TELEMETRY, &IO_TIMEOUT],
    note: "--addr required",
    run: run_dist_worker,
};

/// A worker process this coordinator spawned; dropping it kills the
/// process.
struct WorkerProcess {
    exe: PathBuf,
    scratch: PathBuf,
    index: usize,
    telemetry_file: Option<PathBuf>,
    child: Option<Child>,
}

impl WorkerProcess {
    fn port_file(&self) -> PathBuf {
        self.scratch.join(format!("worker-{}.port", self.index))
    }

    fn checkpoint_file(&self) -> PathBuf {
        self.scratch.join(format!("worker-{}.fedlstore", self.index))
    }

    /// (Re)starts the process and returns the port it bound.
    fn start(&mut self) -> Result<u16, String> {
        self.stop();
        let port_file = self.port_file();
        std::fs::remove_file(&port_file).ok();
        let checkpoint = self.checkpoint_file();
        let mut cmd = std::process::Command::new(&self.exe);
        cmd.arg("dist-worker")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .arg("--checkpoint")
            .arg(&checkpoint);
        if let Some(telemetry_file) = &self.telemetry_file {
            cmd.arg("--telemetry").arg(telemetry_file);
        }
        // A respawned worker resumes against its shard checkpoint, so a
        // coordinator bug can never splice it into the wrong shard.
        if checkpoint.exists() {
            cmd.arg("--resume");
        }
        let child = cmd.spawn().map_err(|e| format!("cannot spawn worker {}: {e}", self.index))?;
        self.child = Some(child);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if !text.trim().is_empty() {
                    return text
                        .trim()
                        .parse()
                        .map_err(|e| format!("worker {} wrote a bad port: {e}", self.index));
                }
            }
            if let Some(child) = &mut self.child {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("worker {} exited during startup: {status}", self.index));
                }
            }
            if Instant::now() > deadline {
                return Err(format!("worker {} never wrote its port file", self.index));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn stop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The far end of a worker link.
enum Peer {
    /// Spawned here; a reset respawns it.
    Spawned(WorkerProcess),
    /// Pre-started at a fixed address; a reset reconnects.
    Remote(String),
}

/// A worker link over TCP. Frames pass through the traced codec, so the
/// coordinator's live stats carry `proto.*` wire histograms for its side
/// of every exchange.
struct TcpWorker {
    // Declared before `peer`: the connection closes before a spawned
    // process is killed.
    transport: Option<TcpTransport>,
    peer: Peer,
    io_timeout: Option<Duration>,
    telemetry: Telemetry,
}

impl TcpWorker {
    fn open(
        peer: Peer,
        io_timeout: Option<Duration>,
        telemetry: Telemetry,
    ) -> Result<Self, String> {
        let mut worker = Self { transport: None, peer, io_timeout, telemetry };
        worker.reset()?;
        Ok(worker)
    }
}

impl WorkerLink for TcpWorker {
    fn send(&mut self, msg: &Message) -> Result<(), ProtocolError> {
        match &mut self.transport {
            Some(t) => {
                let (frame, _encode_ns) = encode_frame_traced(msg, &self.telemetry);
                t.send(&frame)
            }
            None => Err(ProtocolError::Io { detail: "worker link is down".to_string() }),
        }
    }

    fn recv_reply(&mut self) -> Result<Message, ProtocolError> {
        let Some(t) = &mut self.transport else {
            return Err(ProtocolError::Io { detail: "worker link is down".to_string() });
        };
        match t.recv()? {
            Some(frame) => decode_frame_traced(&frame, &self.telemetry).0,
            None => Err(ProtocolError::Io { detail: "worker closed the connection".to_string() }),
        }
    }

    fn reset(&mut self) -> Result<(), String> {
        self.transport = None;
        let addr = match &mut self.peer {
            Peer::Spawned(process) => format!("127.0.0.1:{}", process.start()?),
            Peer::Remote(addr) => addr.clone(),
        };
        let stream = connect(&addr, 50)?;
        self.transport = Some(TcpTransport::with_timeout(stream, self.io_timeout));
        Ok(())
    }
}

/// Sibling run-log path for spawned worker `i` of a coordinator whose
/// own log is `base`: `trace.jsonl` → `trace.worker-0.jsonl`. These are
/// exactly the extra inputs `experiments trace-report` expects.
fn worker_telemetry_path(base: &Path, i: usize) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("telemetry");
    base.with_file_name(format!("{stem}.worker-{i}.jsonl"))
}

/// Binds the live-stats endpoint and answers `experiments stats` polls
/// from a detached thread: `Stats` gets a fresh registry snapshot,
/// `Hello` a handshake, anything else a typed wire error. The thread
/// holds only a [`Telemetry`] handle and dies with the process.
fn start_stats_listener(
    addr: &str,
    port_file: Option<&Path>,
    telemetry: Telemetry,
) -> Result<(), String> {
    let listener = bind("fedl-dist stats", addr, port_file)?;
    std::thread::spawn(move || {
        for incoming in listener.incoming() {
            let Ok(stream) = incoming else { continue };
            let mut transport = TcpTransport::with_timeout(stream, Some(Duration::from_secs(10)));
            while let Ok(Some(frame)) = transport.recv() {
                let (decoded, _decode_ns) = decode_frame_traced(&frame, &telemetry);
                let reply = match decoded {
                    Ok(Message::Stats) => {
                        Message::StatsSnapshot { registry: telemetry.registry_snapshot() }
                    }
                    Ok(Message::Hello { .. }) => Message::Hello {
                        protocol_version: PROTOCOL_VERSION,
                        node: "fedl-dist".to_string(),
                    },
                    Ok(_) => ProtocolError::UnexpectedMessage {
                        detail: "the dist stats endpoint answers only hello/stats".to_string(),
                    }
                    .to_wire(),
                    Err(err) => err.to_wire(),
                };
                if transport.send(&encode_frame(&reply)).is_err() {
                    break;
                }
            }
        }
    });
    Ok(())
}

/// `experiments dist`: spawn/connect the workers, shard the population,
/// drive the distributed epoch loop, and (optionally) verify the
/// outcome against the in-process reference. `--workers 0` with no
/// `--worker-addr` runs the reference itself, writing the identical
/// `--out` artifact — the comparison base for the `dist` CI stage.
fn run_dist(args: &Args) -> Result<(), String> {
    let config = scenario(args)?;
    let io_timeout = io_timeout(args, Some(Duration::from_secs(30)))?;
    let spawned = args.parsed(&WORKERS)?.unwrap_or(2);
    let remote: Vec<&str> = args.values(&WORKER_ADDR).collect();
    let epochs = args.parsed(&EPOCHS)?.unwrap_or(10);
    let max_resets = args.parsed(&MAX_RESETS)?.unwrap_or(2);
    let out = args.value(&OUT).map(Path::new);
    let telemetry = open_telemetry(args)?;
    if let Some(stats_addr) = args.value(&STATS_ADDR) {
        let port_file = args.value(&STATS_PORT_FILE).map(Path::new);
        start_stats_listener(stats_addr, port_file, telemetry.clone())?;
    }
    let total = spawned + remote.len();
    if total == 0 {
        let records = reference_run(&config, epochs);
        println!(
            "dist reference: {} epochs over {} clients (single process)",
            records.len(),
            config.env.num_clients,
        );
        if let Some(out) = out {
            write_selections(out, &records)?;
            println!("wrote selections: {}", out.display());
        }
        return Ok(());
    }
    if total > config.env.num_clients {
        return Err(format!(
            "{total} workers for {} clients: every shard must own at least one client",
            config.env.num_clients
        ));
    }
    let shards = shard_ranges(config.env.num_clients, total);
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let scratch = std::env::temp_dir().join(format!("fedl-dist-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let mut workers: Vec<ShardWorker> = Vec::with_capacity(total);
    for (i, shard) in shards.iter().enumerate() {
        let peer = if i < spawned {
            let telemetry_file =
                args.value(&TELEMETRY).map(|base| worker_telemetry_path(Path::new(base), i));
            let (exe, scratch) = (exe.clone(), scratch.clone());
            Peer::Spawned(WorkerProcess { exe, scratch, index: i, telemetry_file, child: None })
        } else {
            Peer::Remote(remote[i - spawned].to_string())
        };
        let link = TcpWorker::open(peer, io_timeout, telemetry.clone())?;
        workers.push(ShardWorker { shard: shard.clone(), link: Box::new(link) });
    }
    let mut coordinator = Coordinator::new(config.clone(), workers, telemetry.clone())?;
    let report = coordinator.run(&DistOptions { epochs, max_resets })?;
    for i in 0..total {
        if i < spawned || args.has(&SHUTDOWN) {
            coordinator.shutdown_worker(i);
        }
    }
    drop(coordinator);
    std::fs::remove_dir_all(&scratch).ok();
    println!(
        "dist: {} epochs over {} clients across {} workers in {:.3} s — {:.1} epochs/sec, \
         {} recoveries{}",
        report.selections.len(),
        report.clients,
        report.workers,
        report.elapsed_secs,
        report.selections.len() as f64 / report.elapsed_secs.max(1e-9),
        report.recoveries,
        if report.done { " (budget exhausted)" } else { "" },
    );
    if let Some(out) = out {
        write_selections(out, &report.selections)?;
        println!("wrote selections: {}", out.display());
    }
    if args.has(&VERIFY_REFERENCE) {
        let reference = reference_run(&config, epochs);
        if report.selections != reference {
            return Err(format!(
                "distributed selections diverge from the in-process reference \
                 ({} distributed vs {} reference records)",
                report.selections.len(),
                reference.len(),
            ));
        }
        println!("verified: distributed selections match the in-process reference bit-for-bit");
    }
    telemetry.emit_metrics();
    telemetry.flush();
    Ok(())
}

const WORKER: &str = "fedl-dist worker";

/// `experiments dist-worker`: bind, publish the port, then serve shard
/// requests over sequential connections until a `Shutdown` arrives.
fn run_dist_worker(args: &Args) -> Result<(), String> {
    let io_timeout = io_timeout(args, None)?;
    let resume = resume_from(args)?;
    let addr = addr(args)?;
    let telemetry = open_telemetry(args)?;
    let mut state = match resume {
        Some(path) => {
            WorkerState::resume(telemetry, path).map_err(|e| format!("resume failed: {e}"))?
        }
        None => {
            let state = WorkerState::new(telemetry);
            match args.value(&CHECKPOINT) {
                Some(path) => state.with_checkpoint(path),
                None => state,
            }
        }
    };
    let listener = bind(WORKER, addr, args.value(&PORT_FILE).map(Path::new))?;
    // The worker is stateless per request: a desynced connection is
    // dropped and the coordinator reconnects.
    serve_listener(WORKER, &listener, io_timeout, &mut state)?;
    eprintln!("{WORKER}: shutdown");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedl_serve::cli::parse;

    static TABLE: &[Command] = &[DIST, DIST_WORKER];

    /// `line` split at whitespace and parsed against the two dist rows.
    fn parsed(line: &str) -> Result<(&'static Command, Args), String> {
        let words: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(TABLE, &words)
    }

    #[test]
    fn parses_dist_flags() {
        let (_, args) = parsed(
            "dist --clients 40 --seed 11 --workers 4 --worker-addr 10.0.0.5:4000 \
             --worker-addr 10.0.0.6:4000 --epochs 12 --io-timeout 5 --max-resets 3",
        )
        .unwrap();
        let config = scenario(&args).unwrap();
        assert_eq!((config.env.num_clients, config.env.seed), (40, 11));
        let addrs: Vec<&str> = args.values(&WORKER_ADDR).collect();
        assert_eq!(
            (args.parsed(&WORKERS), addrs),
            (Ok(Some(4)), vec!["10.0.0.5:4000", "10.0.0.6:4000"])
        );
        assert_eq!((args.parsed(&EPOCHS), args.parsed(&MAX_RESETS)), (Ok(Some(12)), Ok(Some(3))));
        assert_eq!(io_timeout(&args, None), Ok(Some(Duration::from_secs(5))));
    }

    #[test]
    fn bad_values_are_refused_before_a_worker_spawns_or_a_socket_binds() {
        for (line, want) in [
            ("dist --clients 0", "--clients must be positive"),
            (
                "dist --min-participants 0",
                "--min-participants must be between 1 and --clients (100)",
            ),
            ("dist --budget 0", "--budget must be a positive finite number"),
            ("dist --io-timeout -1", "--io-timeout must be a positive number of seconds"),
            ("dist-worker --resume", "--resume requires --checkpoint FILE"),
            ("dist-worker", "--addr is required"),
        ] {
            let (command, args) = parsed(line).unwrap();
            assert_eq!((command.run)(&args).unwrap_err(), want, "{line}");
        }
    }
}
