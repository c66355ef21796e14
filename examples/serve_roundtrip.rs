//! The federation service end-to-end on the in-memory transport
//! (docs/SERVE.md): a coordinator thread serves a duplex pipe while the
//! load generator joins 100 clients and drives 20 selection epochs,
//! then the served selections are checked bit-for-bit against the
//! in-process reference and the telemetry phase report is printed.
//!
//! ```bash
//! cargo run --release --example serve_roundtrip
//! ```
//!
//! Side effects: writes `results/serve_roundtrip_run.jsonl` (the
//! server's telemetry log carrying the `serve.*` events).

use std::path::Path;
use std::thread;

use fedl::prelude::*;
use fedl::serve::{reference_run, run_loadgen, serve_connection, DuplexTransport, ServeExit};

fn main() {
    let out = Path::new("results");
    std::fs::create_dir_all(out).expect("create results dir");
    let log_path = out.join("serve_roundtrip_run.jsonl");

    let config = ServeConfig::new(100, 42, 5_000.0, 5, PolicyKind::FedL);
    let telemetry = Telemetry::to_file(&log_path).expect("open telemetry log");
    let mut server = ServerState::new(config.clone(), telemetry);

    let (mut server_end, mut client_end) = DuplexTransport::pair();
    let coordinator = thread::spawn(move || {
        let exit = serve_connection(&mut server_end, &mut server).expect("serve loop");
        (server, exit)
    });

    let opts = LoadgenOptions { epochs: 20, start_epoch: 0, shutdown: true };
    let report = run_loadgen(&mut client_end, &config, &opts).expect("loadgen");
    let (server, exit) = coordinator.join().expect("coordinator thread");
    assert_eq!(exit, ServeExit::Shutdown);

    println!(
        "served {} epochs over {} clients in {:.3} s — {:.0} selections/sec",
        report.selections.len(),
        report.clients,
        report.elapsed_secs,
        report.selections_per_sec(),
    );
    println!(
        "server finished at epoch {} with {} selections and {} malformed frames",
        server.next_epoch(),
        server.selections(),
        server.malformed_frames(),
    );

    // The protocol must not change a single selection vs the
    // in-process driver.
    let reference = reference_run(&config, 20);
    assert_eq!(report.selections, reference, "served selections must match the reference");
    println!("verified: served selections match the in-process reference bit-for-bit\n");

    let log = RunLog::read(&log_path).expect("read run log");
    print!("{}", log.report().text());
}
