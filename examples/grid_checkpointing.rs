//! Figure 2 of the paper: the distributed grid computation with speculative
//! checkpointing and recovery from a node failure.
//!
//! Three MojaveC worker processes run a 2D Jacobi stencil on a simulated
//! cluster, exchanging borders through the message-passing interface,
//! committing their speculation and checkpointing every few steps.  One
//! worker is killed mid-run; its neighbours observe `MSG_ROLL`, roll back
//! their speculation, and the failed worker is resurrected from its latest
//! checkpoint.  The final field is verified against a sequential reference
//! run.
//!
//! ```text
//! cargo run --example grid_checkpointing
//! ```

use mojave::grid::{run_grid_with, FailurePlan, GridConfig, GridOptions};

fn main() {
    let config = GridConfig {
        workers: 3,
        rows_per_worker: 6,
        cols: 12,
        timesteps: 18,
        checkpoint_interval: 6,
    };

    println!("== fault-free run ==");
    let clean =
        run_grid_with(&config, None, GridOptions::default()).expect("fault-free run succeeds");
    println!(
        "workers: {}, checkpoints written: {}, rollbacks: {}, wall time: {:?}",
        config.workers, clean.checkpoints, clean.rollbacks, clean.wall_time
    );
    println!(
        "checksums   {:?}\nreference   {:?}\nmax error   {:.4}",
        clean.worker_checksums,
        clean.reference_checksums,
        clean.max_error()
    );
    assert!(clean.is_correct());

    println!();
    println!("== run with a node failure after worker 1's first checkpoint ==");
    let plan = FailurePlan {
        victim: 1,
        after_checkpoints: 1,
    };
    let faulty =
        run_grid_with(&config, Some(plan), GridOptions::default()).expect("faulty run recovers");
    println!(
        "recovered: {}, checkpoints: {}, rollbacks: {}, wall time: {:?}",
        faulty.recovered_from_failure, faulty.checkpoints, faulty.rollbacks, faulty.wall_time
    );
    println!(
        "checksums   {:?}\nreference   {:?}\nmax error   {:.4}",
        faulty.worker_checksums,
        faulty.reference_checksums,
        faulty.max_error()
    );
    assert!(faulty.recovered_from_failure, "the failure was injected");
    assert!(
        faulty.is_correct(),
        "the recovered computation must still match the reference"
    );
    println!("failure was recovered from the checkpoint and the answer still matches");
}
