//! The multi-process cluster harness, end to end: a [`ClusterServer`] on
//! loopback TCP, three real `mcc node` OS processes, and the in-process
//! deterministic simulation as the oracle.  The transport's correctness
//! claim is digest parity — every wire-v5 image genuinely crossed a
//! socket, and the run is still bit-identical to the single-process sim.

use mojave_cluster::{Cluster, ClusterConfig, ClusterServer, JobSpec};
use mojave_grid::{
    run_grid_served, run_grid_with, FailurePlan, GridConfig, GridError, GridOptions, GridReport,
};
use mojave_obs::{validate_chrome_trace, EventKind, Level};
use mojave_wire::CodecSet;
use std::collections::BTreeMap;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn spawn_node(addr: &str, node: usize) -> std::io::Result<Child> {
    Command::new(env!("CARGO_BIN_EXE_mcc"))
        .arg("node")
        .arg(addr)
        .arg(node.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
}

/// The in-process oracle's options: deterministic simulation mode from
/// `seed`, everything else default.
fn seeded(seed: u64) -> GridOptions {
    GridOptions {
        seed: Some(seed),
        ..GridOptions::default()
    }
}

fn small_grid(workers: usize) -> GridConfig {
    GridConfig {
        workers,
        rows_per_worker: 3,
        cols: 6,
        timesteps: 6,
        checkpoint_interval: 2,
    }
}

#[test]
fn three_process_loopback_run_matches_in_process_digest() {
    let config = small_grid(3);
    let seed = 0x10C4_13AC;

    let cluster = Cluster::new(ClusterConfig::deterministic(config.workers, seed));
    let server = ClusterServer::bind(cluster, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    // Tracing is on for the served run but off for the in-process oracle:
    // digest parity below doubles as the proof that observability never
    // perturbs a run.
    let options = GridOptions {
        obs: Level::Trace,
        ..GridOptions::default()
    };
    let served = run_grid_served(&server, &config, None, options, |node| {
        spawn_node(&addr, node)
    })
    .expect("served run succeeds");
    assert!(served.is_correct(), "max error {}", served.max_error());

    // Every node pushed a scrape-able observability report over its
    // socket before reporting stats.
    assert_eq!(served.node_obs.len(), config.workers);
    for report in &served.node_obs {
        assert!(
            !report.metrics.is_empty(),
            "node {} scraped empty metrics",
            report.node
        );
        assert!(
            report.metrics.counter("process.checkpoints") > 0,
            "node {} metrics: {}",
            report.node,
            report.metrics.to_text()
        );
        assert!(
            !report.events.is_empty(),
            "node {} traced no events",
            report.node
        );
    }

    // Every codec negotiated on every node's connection.
    let negotiated = server.negotiated_codecs();
    assert_eq!(negotiated.len(), config.workers);
    for (node, codecs) in &negotiated {
        assert_eq!(
            *codecs,
            CodecSet::all(),
            "node {node} should negotiate the full codec set"
        );
    }
    // And the negotiation produced genuinely compressed images over the
    // socket: the store kept fewer bytes than the raw frames.
    assert!(served.checkpoint_stored_bytes < served.checkpoint_raw_bytes);

    // The oracle: the same configuration and seed, one process, no
    // sockets.  The transport must be logically invisible.
    let in_process = run_grid_with(&config, None, seeded(seed)).expect("in-process run");
    assert_eq!(served.replay_digest(), in_process.replay_digest());
}

/// Each node's message, failure and resurrection events as `(kind, a, b)`,
/// in recording order.  Timestamps are left out: served nodes stay on the
/// wall clock.
fn cluster_events(report: &GridReport) -> BTreeMap<u32, Vec<(EventKind, u64, u64)>> {
    let mut per_node: BTreeMap<u32, Vec<_>> = BTreeMap::new();
    for obs in &report.node_obs {
        let kept = obs.events.iter().filter(|e| {
            matches!(
                e.kind,
                EventKind::Send | EventKind::Recv | EventKind::Failure | EventKind::Resurrect
            )
        });
        per_node
            .entry(obs.node)
            .or_default()
            .extend(kept.map(|e| (e.kind, e.a, e.b)));
    }
    per_node
}

#[test]
fn served_nodes_record_the_same_cluster_events_as_in_process_workers() {
    // A node process runs the very externals an in-process worker runs, so
    // its flight recorder tells the same story — sends, receives (rolls
    // included), the observed failure with the hub's epoch, and the
    // respawned process's resurrection.
    let config = small_grid(3);
    let seed = 0x5EA_0B5;
    let plan = FailurePlan {
        victim: 1,
        after_checkpoints: 1,
    };
    for failure in [None, Some(plan)] {
        let cluster = Cluster::new(ClusterConfig::deterministic(config.workers, seed));
        let server = ClusterServer::bind(cluster, "127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr().to_string();
        let traced = GridOptions {
            obs: Level::Trace,
            ..GridOptions::default()
        };
        let served = run_grid_served(&server, &config, failure, traced, |node| {
            spawn_node(&addr, node)
        })
        .expect("served run succeeds");
        let in_process = run_grid_with(
            &config,
            failure,
            GridOptions {
                obs: Level::Trace,
                ..seeded(seed)
            },
        )
        .expect("in-process run");
        assert_eq!(served.replay_digest(), in_process.replay_digest());

        let events = cluster_events(&served);
        assert_eq!(
            events,
            cluster_events(&in_process),
            "failure plan {failure:?}"
        );
        assert_eq!(events.len(), config.workers);
        let recorded = |node: u32, kind| events[&node].iter().any(|e| e.0 == kind);
        for node in 0..config.workers as u32 {
            assert!(recorded(node, EventKind::Send), "node {node} sent nothing");
            assert!(
                recorded(node, EventKind::Recv),
                "node {node} received nothing"
            );
        }
        if failure.is_some() {
            // Epoch 1, observed (not self-injected); then the respawned
            // process resumes from the victim's first checkpoint.
            let victim = &events[&(plan.victim as u32)];
            assert!(
                victim.contains(&(EventKind::Failure, 1, 1)),
                "victim: {victim:?}"
            );
            assert!(
                victim.contains(&(EventKind::Resurrect, config.checkpoint_interval as u64, 0)),
                "victim: {victim:?}"
            );
        }
    }
}

#[test]
fn loopback_failure_injection_resurrects_across_processes() {
    let config = small_grid(3);
    let seed = 0xFA11_0E45;
    let failure = Some(FailurePlan {
        victim: 1,
        after_checkpoints: 1,
    });

    let cluster = Cluster::new(ClusterConfig::deterministic(config.workers, seed));
    let server = ClusterServer::bind(cluster, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    let served = run_grid_served(&server, &config, failure, GridOptions::default(), |node| {
        spawn_node(&addr, node)
    })
    .expect("served run recovers");
    assert!(served.is_correct(), "max error {}", served.max_error());
    assert!(served.recovered_from_failure);
    // The hub's store keeps the one worker program once, however many
    // full checkpoints crossed a socket carrying it.
    let stats = server.cluster().store().stats();
    assert_eq!(stats.code_sections, 1);
    assert_eq!(stats.stored_bytes, served.checkpoint_stored_bytes);

    let in_process = run_grid_with(&config, failure, seeded(seed)).expect("in-process run");
    assert_eq!(served.replay_digest(), in_process.replay_digest());
    // Pinned: where code is stored changes no step of either run.
    assert_eq!(
        served.replay_digest(),
        "40565147ae147ae1,40773f851eb851ec,408dca28f5c28f5c,recovered=true rollbacks=2 \
         checkpoints=9 deltas=5 specs=13 msgs=35"
    );
}

/// A node process that exits before it reports — here one that fails the
/// way `mcc node` does when it cannot join — fails a served run at once,
/// naming the node and its status, and no node process outlives the run:
/// the real nodes, blocked on their missing neighbour, are killed.
#[cfg(unix)]
#[test]
fn a_node_that_exits_early_fails_the_served_run_at_once_and_leaves_no_node_running() {
    let config = small_grid(3);
    let cluster = Cluster::new(ClusterConfig::deterministic(config.workers, 7));
    let server = ClusterServer::bind(cluster, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut pids = Vec::new();
    let start = Instant::now();
    let err = run_grid_served(&server, &config, None, GridOptions::default(), |node| {
        let child = if node == 1 {
            Command::new("sh").args(["-c", "exit 3"]).spawn()
        } else {
            spawn_node(&addr, node)
        }?;
        pids.push(child.id());
        Ok(child)
    })
    .expect_err("node 1 never joins");
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "failed after {elapsed:?}"
    );
    assert!(
        matches!(&err, GridError::Transport(m) if m.contains("node 1 exited") && m.contains('3')),
        "got {err}"
    );
    assert_eq!(pids.len(), config.workers);
    for pid in pids {
        let alive = Command::new("kill")
            .args(["-0", &pid.to_string()])
            .stderr(Stdio::null())
            .status()
            .expect("kill runs")
            .success();
        assert!(!alive, "node process {pid} still runs");
    }
}

#[test]
fn loopback_async_pipeline_reuses_backpressure_and_keeps_the_digest() {
    // The node processes route checkpoints through the asynchronous
    // pipeline (`AsyncSink` over `RemoteSink` — the per-peer send queue),
    // with the deterministic drain barrier.  The digest must match both
    // the in-process async run and, transitively, the synchronous one.
    let config = small_grid(3);
    let seed = 0xA57_0C4;
    let options = GridOptions {
        async_checkpoints: true,
        ..GridOptions::default()
    };

    let cluster = Cluster::new(ClusterConfig::deterministic(config.workers, seed));
    let server = ClusterServer::bind(cluster, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    let served = run_grid_served(&server, &config, None, options, |node| {
        spawn_node(&addr, node)
    })
    .expect("served async run succeeds");
    assert!(served.is_correct(), "max error {}", served.max_error());

    let in_process = run_grid_with(
        &config,
        None,
        GridOptions {
            async_checkpoints: true,
            ..seeded(seed)
        },
    )
    .expect("in-process async run");
    assert_eq!(served.replay_digest(), in_process.replay_digest());
}

#[test]
fn loopback_traffic_counters_are_coherent_and_cli_scrapes_work() {
    // One node process running a tiny checkpointing job, so both ends'
    // frame/byte counters and the scrape CLI can be checked precisely.
    let cluster = Cluster::new(ClusterConfig::deterministic(1, 0x0B5_CAFE));
    let server = ClusterServer::bind(cluster, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    server.set_job(JobSpec {
        source: r#"
int main() {
    int i = 0;
    while (i < 3) {
        checkpoint(str_concat("grid-0-", int_to_str(i)));
        i = i + 1;
    }
    return 4200;
}
"#
        .into(),
        step_budget: Some(1_000_000),
        delta_checkpoints: true,
        heap_codec: None,
        async_checkpoints: false,
        obs_level: Level::Trace as u8,
    });
    let mut child = spawn_node(&addr, 0).expect("spawn node");
    let stats = server
        .next_stats(Duration::from_secs(60))
        .expect("node reports");
    let _ = child.wait();
    assert_eq!(stats.exit_code, Some(4200));

    // The node counted its own control-connection traffic...
    assert!(stats.frames_sent > 0, "stats: {stats:?}");
    assert!(stats.frames_received > 0);
    // ...every frame carries a 5-byte header, so bytes dominate frames...
    assert!(stats.bytes_sent >= stats.frames_sent * 5);
    assert!(stats.bytes_received >= stats.frames_received * 5);

    // ...and the hub's aggregate for the node (control + sink
    // connections, plus the stats frame itself, which arrived after the
    // node snapshotted its counters) is strictly larger on both axes.
    let hub = server.traffic(0).expect("hub tracked node 0");
    assert!(
        hub.frames_received() > stats.frames_sent,
        "hub received {} vs node sent {}",
        hub.frames_received(),
        stats.frames_sent
    );
    assert!(hub.frames_sent() > stats.frames_received);
    assert!(hub.bytes_received() > stats.bytes_sent);
    assert!(hub.bytes_sent() > stats.bytes_received);

    // `mcc stats` scrapes non-empty per-node metrics over a real socket.
    let out = Command::new(env!("CARGO_BIN_EXE_mcc"))
        .args(["stats", &addr])
        .output()
        .expect("mcc stats runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("node 0"), "mcc stats said: {text}");
    assert!(
        text.contains("process.checkpoints"),
        "mcc stats said: {text}"
    );

    // `mcc trace` exports Chrome trace JSON that the validator accepts
    // with balanced span begin/end pairs.
    let trace_path =
        std::env::temp_dir().join(format!("mojave-loopback-trace-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_mcc"))
        .args(["trace", &addr])
        .arg(&trace_path)
        .output()
        .expect("mcc trace runs");
    assert!(
        out.status.success(),
        "mcc trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    let summary = validate_chrome_trace(&trace).expect("trace validates");
    assert!(summary.begins > 0, "checkpoint spans must appear");
    assert_eq!(summary.begins, summary.ends, "span pairs balance");
    let _ = std::fs::remove_file(&trace_path);
}
