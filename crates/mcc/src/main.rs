//! `mcc` — the Mojave compiler driver.
//!
//! Subcommands:
//!
//! * `mcc compile <file.mj>` — compile MojaveC and print the FIR.
//! * `mcc run <file.mj> [--interp] [--steps N]` — compile and run a program.
//! * `mcc resume <checkpoint.img>` — execute a checkpoint image file
//!   (checkpoints are "formatted as executable files"; this is the
//!   executor).
//! * `mcc inspect <checkpoint.img>` — describe a checkpoint/migration image.
//! * `mcc node <addr> <node-id>` — join a `ClusterServer` over TCP as one
//!   node process: handshake, fetch the job, run the worker over the hub
//!   connection, report stats (the multi-process cluster harness).
//! * `mcc stats <addr>` — scrape every node's metrics from a running
//!   cluster server and print them.
//! * `mcc trace <addr> [out.json]` — scrape every node's flight-recorder
//!   events and export them as Chrome trace-event JSON
//!   (`chrome://tracing` / Perfetto).
//!
//! Programs run with the standard externals; checkpoints and suspends are
//! written as `<name>.img` files in the current directory so they can be
//! resumed later with `mcc resume`.

use mojave_cluster::{NodeStats, RemoteCluster};
use mojave_core::{
    BackendKind, DeliveryOutcome, MigrationImage, MigrationSink, Process, ProcessConfig, RunOutcome,
};
use mojave_fir::MigrateProtocol;
use mojave_grid::run_worker;
use mojave_obs::{export_chrome_trace, validate_chrome_trace, NodeObs};
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

/// A sink that writes checkpoint/suspend images to files in the working
/// directory, mirroring the paper's checkpoint-to-disk protocol.
struct FileSink;

/// Write `bytes` to `path` durably and atomically: into `<path>.tmp`,
/// synced, renamed over `path`, then the directory synced.  A crash leaves
/// the old image or the new one, never a torn one, and `Stored` is only
/// reported once the image is on disk.
fn write_durably(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    let written = File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    let dir = Path::new(path)
        .parent()
        .filter(|dir| !dir.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
}

impl MigrationSink for FileSink {
    fn deliver(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        image: &MigrationImage,
    ) -> DeliveryOutcome {
        match protocol {
            MigrateProtocol::Checkpoint | MigrateProtocol::Suspend => {
                let path = format!("{}.img", target.replace(['/', ':'], "_"));
                let bytes = image.to_bytes();
                match write_durably(&path, &bytes) {
                    Ok(()) => {
                        eprintln!("mcc: wrote {} ({} bytes)", path, bytes.len());
                        DeliveryOutcome::Stored
                    }
                    Err(e) => DeliveryOutcome::Failed(format!("cannot write `{path}`: {e}")),
                }
            }
            MigrateProtocol::Migrate => DeliveryOutcome::Failed(
                "mcc run is a single-machine driver; use the cluster API for migrate://".into(),
            ),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage:");
    eprintln!("  mcc compile <file.mj>");
    eprintln!("  mcc run <file.mj> [--interp] [--steps N]");
    eprintln!("  mcc resume <image.img> [--interp]");
    eprintln!("  mcc inspect <image.img>");
    eprintln!("  mcc node <addr> <node-id>");
    eprintln!("  mcc stats <addr>");
    eprintln!("  mcc trace <addr> [out.json]");
    ExitCode::from(2)
}

/// `mcc node <addr> <node-id>`: the node-process half of the socket
/// transport.  Dials the cluster server, fetches the job, hands it to the
/// same [`run_worker`] bootstrap the in-process coordinator's threads use —
/// with the hub connection as the worker's cluster — and reports final
/// statistics (or why it could not start) before the orderly goodbye.
fn serve_node(addr: &str, node: u32) -> ExitCode {
    let conn = match RemoteCluster::connect(addr, node, mojave_wire::CodecSet::all()) {
        Ok(conn) => conn,
        Err(e) => {
            eprintln!("mcc: node {node} cannot join cluster at {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = conn
        .fetch_job()
        .map_err(|e| format!("cannot fetch job: {e}"))
        .map(|(job, resume)| run_worker(&job, resume, conn.clone()));
    let (mut report, obs) = run.unwrap_or_else(|message| {
        eprintln!("mcc: node {node}: {message}");
        let report = NodeStats {
            node,
            error: Some(message),
            ..NodeStats::default()
        };
        (report, None)
    });
    // Push the observability report before the stats frame: the
    // coordinator treats stats as the node's last word, so by then the
    // hub must already hold this node's scrape-able report.
    if let Some(obs) = obs {
        if let Err(e) = conn.push_obs(&obs) {
            eprintln!("mcc: node {node} could not push obs report: {e}");
        }
    }
    let link = conn.link_stats();
    report.frames_sent = link.frames_sent();
    report.frames_received = link.frames_received();
    report.bytes_sent = link.bytes_sent();
    report.bytes_received = link.bytes_received();
    if let Err(e) = conn.report_stats(&report) {
        eprintln!("mcc: node {node} could not report stats: {e}");
        return ExitCode::FAILURE;
    }
    conn.bye();
    ExitCode::SUCCESS
}

/// Scrape every node's observability report from a running cluster
/// server.  Connects as an *observer* on node 0's slot (the hub allows
/// any number of connections per node), queries, and says goodbye.
fn scrape_obs(addr: &str) -> Result<Vec<NodeObs>, String> {
    let remote = RemoteCluster::connect(addr, 0, mojave_wire::CodecSet::all())
        .map_err(|e| format!("cannot reach cluster at {addr}: {e}"))?;
    let reports = remote
        .query_obs()
        .map_err(|e| format!("scrape failed: {e}"));
    remote.bye();
    reports
}

/// `mcc stats <addr>`: print every node's scraped metrics.
fn print_stats(addr: &str) -> ExitCode {
    let reports = match scrape_obs(addr) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("mcc: {e}");
            return ExitCode::FAILURE;
        }
    };
    if reports.is_empty() {
        println!("no observability reports on the hub (jobs run with obs_level 0?)");
        return ExitCode::SUCCESS;
    }
    for report in &reports {
        println!(
            "node {}: {} events recorded ({} dropped)",
            report.node,
            report.events.len(),
            report.dropped
        );
        for line in report.metrics.to_text().lines() {
            println!("  {line}");
        }
    }
    ExitCode::SUCCESS
}

/// `mcc trace <addr> [out.json]`: export every node's scraped events as
/// Chrome trace-event JSON (validated before it is written).
fn dump_trace(addr: &str, out: Option<&str>) -> ExitCode {
    let reports = match scrape_obs(addr) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("mcc: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Concatenate per node (reports arrive sorted by node id), which
    // keeps each node's span begin/end pairs in recording order — the
    // property the validator checks.
    let events: Vec<mojave_obs::Event> = reports.iter().flat_map(|r| r.events.clone()).collect();
    let trace = export_chrome_trace(&events);
    let summary = match validate_chrome_trace(&trace) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("mcc: exported trace failed validation: {e}");
            return ExitCode::FAILURE;
        }
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &trace) {
                eprintln!("mcc: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "mcc: wrote {path}: {} events from {} nodes ({} spans)",
                summary.events,
                reports.len(),
                summary.begins
            );
        }
        None => println!("{trace}"),
    }
    ExitCode::SUCCESS
}

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn compile(path: &str) -> Result<mojave_fir::Program, String> {
    let source = read_source(path)?;
    mojave_lang::compile_source(&source).map_err(|e| format!("{path}: {e}"))
}

fn parse_config(args: &[String]) -> ProcessConfig {
    let mut config = ProcessConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--interp" => config.backend = BackendKind::Interp,
            "--steps" => {
                config.step_budget = iter.next().and_then(|s| s.parse().ok());
            }
            _ => {}
        }
    }
    config
}

fn run_process(mut process: Process) -> ExitCode {
    match process.run() {
        Ok(RunOutcome::Exit(code)) => {
            for line in process.output() {
                println!("{line}");
            }
            eprintln!(
                "mcc: exited with {code} after {} steps ({} speculations, {} rollbacks, {} checkpoints)",
                process.stats().steps,
                process.stats().speculations,
                process.stats().rollbacks,
                process.stats().checkpoints,
            );
            ExitCode::from((code & 0xFF) as u8)
        }
        Ok(RunOutcome::Suspended { target }) => {
            eprintln!("mcc: process suspended to `{target}`");
            ExitCode::SUCCESS
        }
        Ok(RunOutcome::MigratedAway { target }) => {
            eprintln!("mcc: process migrated to `{target}`");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mcc: runtime error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    match command.as_str() {
        "compile" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            match compile(path) {
                Ok(program) => {
                    print!("{}", mojave_fir::display::program_to_string(&program));
                    eprintln!(
                        "mcc: {} functions, {} expression nodes",
                        program.funs.len(),
                        program.size()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("mcc: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "run" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let config = parse_config(&args[2..]);
            match compile(path)
                .and_then(|program| Process::new(program, config).map_err(|e| e.to_string()))
            {
                Ok(process) => run_process(process.with_sink(Box::new(FileSink))),
                Err(e) => {
                    eprintln!("mcc: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "resume" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let config = parse_config(&args[2..]);
            let bytes = match std::fs::read(Path::new(path)) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("mcc: cannot read `{path}`: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match MigrationImage::from_bytes(&bytes)
                .map_err(|e| e.to_string())
                .and_then(|image| Process::from_image(image, config).map_err(|e| e.to_string()))
            {
                Ok(process) => run_process(process.with_sink(Box::new(FileSink))),
                Err(e) => {
                    eprintln!("mcc: invalid image: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "inspect" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let bytes = match std::fs::read(Path::new(path)) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("mcc: cannot read `{path}`: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match MigrationImage::from_bytes(&bytes) {
                Ok(image) => {
                    println!("source architecture : {}", image.source_arch);
                    println!("format version      : {}", image.format_version);
                    println!("image size          : {} bytes", bytes.len());
                    match image.heap_image.base() {
                        None => println!("heap section        : {} bytes", image.heap_image.len()),
                        Some(base) => println!(
                            "heap section        : {} bytes (delta against `{base}`)",
                            image.heap_image.len()
                        ),
                    }
                    println!("resume label        : L{}", image.label);
                    println!("open speculations   : {}", image.open_speculations);
                    match image.code.inline() {
                        Some(p) => {
                            println!(
                                "code                : FIR, {} functions, {} nodes",
                                p.funs.len(),
                                p.size()
                            );
                        }
                        None => println!(
                            "code                : in base `{}`, fingerprint {:#018x}",
                            image.heap_image.base().unwrap_or_default(),
                            image.code.fingerprint()
                        ),
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("mcc: invalid image: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "node" => {
            let (Some(addr), Some(node)) = (args.get(1), args.get(2).and_then(|s| s.parse().ok()))
            else {
                return usage();
            };
            serve_node(addr, node)
        }
        "stats" => {
            let Some(addr) = args.get(1) else {
                return usage();
            };
            print_stats(addr)
        }
        "trace" => {
            let Some(addr) = args.get(1) else {
                return usage();
            };
            dump_trace(addr, args.get(2).map(String::as_str))
        }
        _ => usage(),
    }
}
