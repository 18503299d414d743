//! Workspace-level integration tests spanning the compiler, the runtime, the
//! cluster and the grid application.

use mojave::cluster::{Cluster, ClusterConfig, ClusterSink, MigrationDaemon};
use mojave::core::{BackendKind, Process, ProcessConfig, RunOutcome};
use mojave::grid::{run_grid_with, FailurePlan, GridConfig, GridOptions};
use mojave::lang::compile_source;

/// Figure 2 end to end with a node failure: the victim is resurrected from
/// its checkpoint, the neighbours roll back their speculation, and the final
/// field matches the sequential reference.
#[test]
fn grid_recovers_from_a_node_failure() {
    let config = GridConfig {
        workers: 3,
        rows_per_worker: 4,
        cols: 8,
        timesteps: 12,
        checkpoint_interval: 4,
    };
    let plan = FailurePlan {
        victim: 1,
        after_checkpoints: 1,
    };
    let report =
        run_grid_with(&config, Some(plan), GridOptions::default()).expect("the run recovers");
    assert!(report.recovered_from_failure);
    assert!(
        report.is_correct(),
        "checksums {:?} vs reference {:?} (max error {})",
        report.worker_checksums,
        report.reference_checksums,
        report.max_error()
    );
    // Checkpoints from before and after the failure are all in the store.
    assert!(report.checkpoints >= (config.workers * 2) as u64);
}

/// A MojaveC process migrates across two nodes of different simulated
/// architectures and produces the same answer as a purely local run.
#[test]
fn migration_is_transparent_to_the_program() {
    let source = r#"
        int work(int n) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) { acc = acc + i; }
            return acc;
        }
        int main() {
            int first = work(100);
            migrate("node1");
            int second = work(50);
            return first + second;
        }
    "#;
    let program = compile_source(source).unwrap();

    // Local run (migration fails: no cluster): baseline answer.
    let mut local = Process::new(program.clone(), ProcessConfig::default()).unwrap();
    let RunOutcome::Exit(expected) = local.run().unwrap() else {
        panic!("local run must exit");
    };

    // Distributed run: node0 → node1 (different architecture tags).
    let cluster = Cluster::new(ClusterConfig::new(2));
    let mut source_process = Process::new(program, ProcessConfig::default())
        .unwrap()
        .with_sink(Box::new(ClusterSink::new(cluster.clone(), 0)));
    assert_eq!(
        source_process.run().unwrap(),
        RunOutcome::MigratedAway {
            target: "node1".to_owned()
        }
    );
    assert_ne!(cluster.arch(0), cluster.arch(1), "nodes are heterogeneous");
    let daemon = MigrationDaemon::new(cluster, 1);
    let results = daemon.run_pending(&ProcessConfig::default());
    assert_eq!(results.len(), 1);
    assert_eq!(*results[0].as_ref().unwrap(), RunOutcome::Exit(expected));
}

/// Checkpoints written by the compiled program are complete executable
/// images: resuming any of them reproduces the same final answer, on either
/// backend.
#[test]
fn every_checkpoint_resumes_to_the_same_answer() {
    let source = r#"
        int main() {
            int total = 0;
            for (int step = 1; step <= 9; step = step + 1) {
                total = total + step * step;
                if (step % 3 == 0) {
                    checkpoint(str_concat("ck-", int_to_str(step)));
                }
            }
            return total;
        }
    "#;
    let program = compile_source(source).unwrap();
    let store = mojave::core::CheckpointStore::new();
    let sink = mojave::core::InMemorySink::with_store(store.clone());
    let mut p = Process::new(program, ProcessConfig::default())
        .unwrap()
        .with_sink(Box::new(sink));
    let RunOutcome::Exit(expected) = p.run().unwrap() else {
        panic!("run must exit");
    };
    assert_eq!(store.len(), 3);

    for name in store.names() {
        for backend in [BackendKind::Bytecode, BackendKind::Interp] {
            let image = store.load(&name).unwrap();
            let config = ProcessConfig {
                backend,
                ..ProcessConfig::default()
            };
            let mut resumed = Process::from_image(image, config).unwrap();
            assert_eq!(
                resumed.run().unwrap(),
                RunOutcome::Exit(expected),
                "checkpoint {name} on {backend:?}"
            );
        }
    }
}

/// The speculative Transfer keeps its accounts consistent under heavy
/// failure injection while a plain (non-speculative) sequence of the same
/// operations corrupts them — the motivation for Figure 1.
#[test]
fn speculative_transfer_beats_manual_recovery() {
    let speculative = r#"
        int transfer(int a, int b, int k) {
            buffer b1 = alloc_buffer(k);
            buffer b2 = alloc_buffer(k);
            int id = speculate();
            if (id > 0) {
                if (obj_read(a, b1, k) != k) { abort(id); }
                if (obj_read(b, b2, k) != k) { abort(id); }
                if (obj_write(a, b2, k) != k) { abort(id); }
                if (obj_write(b, b1, k) != k) { abort(id); }
                commit(id);
                return 1;
            }
            return 0;
        }
        int main() {
            int a = obj_create(8);
            int b = obj_create(8);
            buffer init = alloc_buffer(8);
            poke(init, 0, 11);
            obj_write(a, init, 8);
            poke(init, 0, 22);
            obj_write(b, init, 8);
            obj_set_fail_rate(60);
            for (int i = 0; i < 20; i = i + 1) { transfer(a, b, 8); }
            obj_set_fail_rate(0);
            buffer check = alloc_buffer(8);
            obj_read(a, check, 8);
            int va = peek(check, 0);
            obj_read(b, check, 8);
            int vb = peek(check, 0);
            if (va + vb == 33) { return 1; }
            return 0;
        }
    "#;
    let program = compile_source(speculative).unwrap();
    let mut p = Process::new(program, ProcessConfig::default()).unwrap();
    assert_eq!(
        p.run().unwrap(),
        RunOutcome::Exit(1),
        "speculative version stays consistent"
    );

    // The traditional version from the top half of Figure 1: in-line error
    // recovery with a compensating write.  A partial write that the
    // compensation cannot undo leaves the accounts inconsistent.
    let traditional = r#"
        int transfer(int a, int b, int k) {
            buffer b1 = alloc_buffer(k);
            buffer b2 = alloc_buffer(k);
            if (obj_read(a, b1, k) != k) { return 0; }
            if (obj_read(b, b2, k) != k) { return 0; }
            if (obj_write(a, b2, k) != k) { return 0; }
            if (obj_write(b, b1, k) != k) {
                // Undo the first write; if this also fails the state is
                // inconsistent and there is nothing the code can do.
                obj_write(a, b1, k);
                return 0;
            }
            return 1;
        }
        int main() {
            int a = obj_create(8);
            int b = obj_create(8);
            buffer init = alloc_buffer(8);
            poke(init, 0, 11);
            obj_write(a, init, 8);
            poke(init, 0, 22);
            obj_write(b, init, 8);
            obj_set_fail_rate(60);
            for (int i = 0; i < 20; i = i + 1) { transfer(a, b, 8); }
            obj_set_fail_rate(0);
            buffer check = alloc_buffer(8);
            obj_read(a, check, 8);
            int va = peek(check, 0);
            obj_read(b, check, 8);
            int vb = peek(check, 0);
            if (va + vb == 33) { return 1; }
            return 0;
        }
    "#;
    let program = compile_source(traditional).unwrap();
    let mut p = Process::new(program, ProcessConfig::default()).unwrap();
    let RunOutcome::Exit(consistent) = p.run().unwrap() else {
        panic!("traditional run must exit");
    };
    assert_eq!(
        consistent, 0,
        "with partial writes the hand-rolled recovery leaves the accounts inconsistent"
    );
}

/// FIR migration works everywhere: a suspended image resumes on its own
/// architecture and on another.
#[test]
fn fir_migration_resumes_on_any_architecture() {
    let source = r#"
        int main() {
            suspend("stopped");
            return 99;
        }
    "#;
    let program = compile_source(source).unwrap();
    let store = mojave::core::CheckpointStore::new();

    for machine in [mojave::core::Machine::ia32(), mojave::core::Machine::risc()] {
        let sink = mojave::core::InMemorySink::with_store(store.clone());
        let mut p = Process::new(program.clone(), ProcessConfig::default())
            .unwrap()
            .with_sink(Box::new(sink));
        assert!(matches!(p.run().unwrap(), RunOutcome::Suspended { .. }));
        let image = store.load("stopped").unwrap();
        assert!(image.code.inline().is_some());

        let dest = ProcessConfig {
            machine,
            ..ProcessConfig::default()
        };
        let mut resumed = Process::from_image(image, dest).unwrap();
        assert_eq!(resumed.run().unwrap(), RunOutcome::Exit(99));
    }
}
