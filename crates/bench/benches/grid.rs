//! Experiment E7: the grid application's checkpoint-interval trade-off and
//! the cost of recovery relative to restarting from scratch (the paper's
//! concluding claim: "the overhead from using speculative execution and
//! process migration is small compared to having to re-start the application
//! from scratch").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mojave_grid::{run_grid_with, FailurePlan, GridConfig, GridOptions};
use std::time::Duration;

fn base_config() -> GridConfig {
    GridConfig {
        workers: 2,
        rows_per_worker: 4,
        cols: 8,
        timesteps: 12,
        checkpoint_interval: 4,
    }
}

/// Sweep the checkpoint interval: more frequent checkpoints mean more
/// speculation commits and more images written (higher overhead), less lost
/// work on failure.
fn checkpoint_interval_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid/checkpoint_interval_sweep");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    for interval in [2usize, 4, 6, 12] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("every_{interval}_steps")),
            &interval,
            |b, &interval| {
                let config = GridConfig {
                    checkpoint_interval: interval,
                    ..base_config()
                };
                b.iter(|| {
                    let report = run_grid_with(&config, None, GridOptions::default())
                        .expect("fault-free run");
                    assert!(report.is_correct());
                    report.checkpoints
                });
            },
        );
    }
    group.finish();
}

/// Recovery from a mid-run failure (rollback + resurrection from the last
/// checkpoint) versus the naive alternative of restarting the whole
/// computation from scratch after the failure.
fn recovery_vs_restart(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid/recovery_vs_restart");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let config = base_config();

    group.bench_function("checkpoint_recovery", |b| {
        b.iter(|| {
            let report = run_grid_with(
                &config,
                Some(FailurePlan {
                    victim: 1,
                    after_checkpoints: 1,
                }),
                GridOptions::default(),
            )
            .expect("recovers");
            assert!(report.is_correct());
            report.rollbacks
        });
    });

    group.bench_function("restart_from_scratch", |b| {
        b.iter(|| {
            // The failure-free run done twice: the work completed before the
            // failure is thrown away and the whole application re-runs.
            let first = run_grid_with(&config, None, GridOptions::default()).expect("first run");
            let second = run_grid_with(&config, None, GridOptions::default()).expect("re-run");
            assert!(second.is_correct());
            first.checkpoints + second.checkpoints
        });
    });
    group.finish();
}

criterion_group!(benches, checkpoint_interval_sweep, recovery_vs_restart);
criterion_main!(benches);
