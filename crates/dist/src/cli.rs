//! Command-line drivers behind `experiments dist` and
//! `experiments dist-worker` (the bench binary routes both subcommands
//! here; see docs/DIST.md for usage).

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use fedl_serve::cli::{
    bind, connect, flag_value, parse_value, parse_with, serve_listener, write_selections,
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

/// Usage text for both subcommands.
pub const USAGE: &str = "\
experiments dist [options]                        run a sharded federation
experiments dist-worker --addr HOST:PORT [opts]   serve one population shard

shared scenario options (every node must agree):
  --clients N             population size (default 100)
  --seed S                scenario seed (default 7)
  --budget C              total rental budget (default 500)
  --min-participants N    participation floor per epoch (default 3)
  --policy P              fedl | fedavg | fedcs | powd | oracle (default fedl)

dist options:
  --workers N             local worker processes to spawn (default 2);
                          0 with no --worker-addr runs the in-process
                          reference instead (the CI comparison artifact)
  --worker-addr HOST:PORT a pre-started remote worker (repeatable;
                          remote shards come after the spawned ones)
  --epochs E              selection epochs to drive (default 10)
  --out FILE              write selections as JSONL, one line per epoch
  --verify-reference      compare against the in-process reference run
  --io-timeout SECS       per-call socket deadline (default 30)
  --max-resets N          respawn/reconnect attempts per worker failure
                          (default 2)
  --telemetry FILE        write a JSONL run log; spawned workers write
                          sibling logs FILE.worker-N.jsonl, the inputs
                          to `experiments trace-report`
  --shutdown              also shut down remote --worker-addr workers
                          when done (spawned workers always shut down)
  --stats-addr HOST:PORT  answer `experiments stats` polls on this
                          address while the run is in flight
  --stats-port-file FILE  write the stats listener's bound port
                          atomically (for HOST:0)

dist-worker options:
  --port-file FILE        write the bound port atomically (for HOST:0)
  --checkpoint FILE       shard checkpoint envelope path
  --resume                pin assignments to --checkpoint before serving
  --telemetry FILE        write a JSONL run log
  --io-timeout SECS       per-call socket deadline (default: none)
";

/// The serve-family flags (scenario, I/O, `--addr`, `--shutdown`, …)
/// plus the dist coordinator's own.
#[derive(Debug)]
struct Parsed {
    shared: fedl_serve::cli::Parsed,
    workers: usize,
    worker_addrs: Vec<String>,
    max_resets: usize,
    stats_addr: Option<String>,
    stats_port_file: Option<PathBuf>,
}

fn parse(args: &[String], default_timeout: Option<Duration>) -> Result<Parsed, String> {
    let mut workers = 2usize;
    let mut worker_addrs = Vec::new();
    let mut max_resets = 2usize;
    let mut stats_addr = None;
    let mut stats_port_file = None;
    let shared = parse_with(args, USAGE, default_timeout, |flag, rest| {
        match flag {
            "--workers" => workers = parse_value(flag, rest)?,
            "--worker-addr" => worker_addrs.push(flag_value(flag, rest)?.clone()),
            "--max-resets" => max_resets = parse_value(flag, rest)?,
            "--stats-addr" => stats_addr = Some(flag_value(flag, rest)?.clone()),
            "--stats-port-file" => stats_port_file = Some(PathBuf::from(flag_value(flag, rest)?)),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Parsed { shared, workers, worker_addrs, max_resets, stats_addr, stats_port_file })
}

/// Shared TCP half of both worker link kinds. Frames pass through the
/// traced codec, so the coordinator's live stats carry `proto.*` wire
/// histograms for its side of every exchange.
struct TcpLink {
    transport: Option<TcpTransport>,
    telemetry: Telemetry,
}

impl TcpLink {
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
}

/// A worker process this coordinator spawned and may respawn.
struct ProcessWorker {
    exe: PathBuf,
    scratch: PathBuf,
    index: usize,
    io_timeout: Option<Duration>,
    telemetry_file: Option<PathBuf>,
    child: Option<Child>,
    link: TcpLink,
}

impl ProcessWorker {
    fn spawn(
        exe: PathBuf,
        scratch: PathBuf,
        index: usize,
        io_timeout: Option<Duration>,
        telemetry_file: Option<PathBuf>,
        telemetry: Telemetry,
    ) -> Result<Self, String> {
        let mut worker = Self {
            exe,
            scratch,
            index,
            io_timeout,
            telemetry_file,
            child: None,
            link: TcpLink { transport: None, telemetry },
        };
        worker.start()?;
        Ok(worker)
    }

    fn port_file(&self) -> PathBuf {
        self.scratch.join(format!("worker-{}.port", self.index))
    }

    fn checkpoint_file(&self) -> PathBuf {
        self.scratch.join(format!("worker-{}.fedlstore", self.index))
    }

    fn start(&mut self) -> Result<(), String> {
        let port_file = self.port_file();
        std::fs::remove_file(&port_file).ok();
        let checkpoint = self.checkpoint_file();
        let mut cmd = Command::new(&self.exe);
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
        let port: u16 = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if !text.trim().is_empty() {
                    break text
                        .trim()
                        .parse()
                        .map_err(|e| format!("worker {} wrote a bad port: {e}", self.index))?;
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
        };
        let stream = connect(&format!("127.0.0.1:{port}"), 50)?;
        self.link.transport = Some(TcpTransport::with_timeout(stream, self.io_timeout));
        Ok(())
    }

    fn stop(&mut self) {
        self.link.transport = None;
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

impl WorkerLink for ProcessWorker {
    fn send(&mut self, msg: &Message) -> Result<(), ProtocolError> {
        self.link.send(msg)
    }

    fn recv_reply(&mut self) -> Result<Message, ProtocolError> {
        self.link.recv_reply()
    }

    fn reset(&mut self) -> Result<(), String> {
        self.stop();
        self.start()
    }
}

impl Drop for ProcessWorker {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A pre-started worker at a fixed address; reset reconnects.
struct RemoteWorker {
    addr: String,
    io_timeout: Option<Duration>,
    link: TcpLink,
}

impl RemoteWorker {
    fn connect(
        addr: String,
        io_timeout: Option<Duration>,
        telemetry: Telemetry,
    ) -> Result<Self, String> {
        let mut worker = Self { addr, io_timeout, link: TcpLink { transport: None, telemetry } };
        worker.reset()?;
        Ok(worker)
    }
}

impl WorkerLink for RemoteWorker {
    fn send(&mut self, msg: &Message) -> Result<(), ProtocolError> {
        self.link.send(msg)
    }

    fn recv_reply(&mut self) -> Result<Message, ProtocolError> {
        self.link.recv_reply()
    }

    fn reset(&mut self) -> Result<(), String> {
        self.link.transport = None;
        let stream = connect(&self.addr, 50)?;
        self.link.transport = Some(TcpTransport::with_timeout(stream, self.io_timeout));
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
pub fn run_dist(args: &[String]) -> Result<(), String> {
    let parsed = parse(args, Some(Duration::from_secs(30)))?;
    let telemetry = parsed.shared.open_telemetry()?;
    if let Some(stats_addr) = &parsed.stats_addr {
        start_stats_listener(stats_addr, parsed.stats_port_file.as_deref(), telemetry.clone())?;
    }
    let total = parsed.workers + parsed.worker_addrs.len();
    if total == 0 {
        let records = reference_run(&parsed.shared.config, parsed.shared.epochs);
        println!(
            "dist reference: {} epochs over {} clients (single process)",
            records.len(),
            parsed.shared.config.env.num_clients,
        );
        if let Some(out) = &parsed.shared.out {
            write_selections(out, &records)?;
            println!("wrote selections: {}", out.display());
        }
        return Ok(());
    }
    if total > parsed.shared.config.env.num_clients {
        return Err(format!(
            "{total} workers for {} clients: every shard must own at least one client",
            parsed.shared.config.env.num_clients
        ));
    }
    let shards = shard_ranges(parsed.shared.config.env.num_clients, total);
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let scratch = std::env::temp_dir().join(format!("fedl-dist-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let mut workers: Vec<ShardWorker> = Vec::with_capacity(total);
    for (i, shard) in shards.iter().enumerate() {
        let link: Box<dyn WorkerLink> = if i < parsed.workers {
            let worker_log =
                parsed.shared.telemetry.as_deref().map(|base| worker_telemetry_path(base, i));
            Box::new(ProcessWorker::spawn(
                exe.clone(),
                scratch.clone(),
                i,
                parsed.shared.io_timeout,
                worker_log,
                telemetry.clone(),
            )?)
        } else {
            let addr = parsed.worker_addrs[i - parsed.workers].clone();
            Box::new(RemoteWorker::connect(addr, parsed.shared.io_timeout, telemetry.clone())?)
        };
        workers.push(ShardWorker { shard: shard.clone(), link });
    }
    let mut coordinator =
        Coordinator::new(parsed.shared.config.clone(), workers, telemetry.clone())?;
    let opts = DistOptions { epochs: parsed.shared.epochs, max_resets: parsed.max_resets };
    let report = coordinator.run(&opts)?;
    for i in 0..total {
        if i < parsed.workers || parsed.shared.shutdown {
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
    if let Some(out) = &parsed.shared.out {
        write_selections(out, &report.selections)?;
        println!("wrote selections: {}", out.display());
    }
    if parsed.shared.verify_reference {
        let reference = reference_run(&parsed.shared.config, parsed.shared.epochs);
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
pub fn run_dist_worker(args: &[String]) -> Result<(), String> {
    let parsed = parse(args, None)?;
    let addr = parsed.shared.addr()?;
    let telemetry = parsed.shared.open_telemetry()?;
    let mut state = if parsed.shared.resume {
        let path = parsed
            .shared
            .checkpoint
            .as_deref()
            .ok_or_else(|| "--resume requires --checkpoint FILE".to_string())?;
        WorkerState::resume(telemetry, path)?
    } else {
        let state = WorkerState::new(telemetry);
        match &parsed.shared.checkpoint {
            Some(path) => state.with_checkpoint(path),
            None => state,
        }
    };
    let listener = bind(WORKER, addr, parsed.shared.port_file.as_deref())?;
    // The worker is stateless per request: a desynced connection is
    // dropped and the coordinator reconnects.
    let (handle, malformed) = (WorkerState::handle_frame, WorkerState::note_malformed);
    serve_listener(WORKER, &listener, parsed.shared.io_timeout, &mut state, handle, malformed)?;
    eprintln!("{WORKER}: shutdown");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_dist_flags() {
        let p = parse(
            &strs(&[
                "--clients",
                "40",
                "--seed",
                "11",
                "--workers",
                "4",
                "--worker-addr",
                "10.0.0.5:4000",
                "--worker-addr",
                "10.0.0.6:4000",
                "--epochs",
                "12",
                "--io-timeout",
                "5",
                "--max-resets",
                "3",
            ]),
            Some(Duration::from_secs(30)),
        )
        .unwrap();
        assert_eq!(p.shared.config.env.num_clients, 40);
        assert_eq!(p.shared.config.env.seed, 11);
        assert_eq!(p.workers, 4);
        assert_eq!(p.worker_addrs, vec!["10.0.0.5:4000", "10.0.0.6:4000"]);
        assert_eq!(p.shared.epochs, 12);
        assert_eq!(p.shared.io_timeout, Some(Duration::from_secs(5)));
        assert_eq!(p.max_resets, 3);
    }

    #[test]
    fn bad_flags_are_errors() {
        assert!(parse(&strs(&["--bogus"]), None).unwrap_err().contains("--bogus"));
        assert!(parse(&strs(&["--clients", "0"]), None).unwrap_err().contains("positive"));
        assert!(parse(&strs(&["--io-timeout", "-1"]), None).unwrap_err().contains("positive"));
        assert!(parse(&strs(&["--workers"]), None).unwrap_err().contains("needs a value"));
    }
}
