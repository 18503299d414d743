//! # mojave-grid
//!
//! The canonical grid computation of the paper's Figure 2: a 2D Jacobi
//! stencil, row-block decomposed across the workers of a simulated cluster,
//! written in **MojaveC** and compiled by the Mojave compiler, with the
//! speculative main loop the paper shows:
//!
//! ```c
//! specid = speculate();
//! for (step = 1; step <= timesteps; step++) {
//!     err = get_borders(...);            // msg_send / msg_recv
//!     if (err == MSG_ROLL) retry(specid);
//!     do_computation(...);
//!     if (step % checkpoint_interval == 0) {
//!         commit(specid);
//!         checkpoint(name);              // migrate into persistent storage
//!         specid = speculate();
//!     }
//! }
//! ```
//!
//! The [`coordinator`] launches one worker process per cluster node, can
//! inject a node failure mid-run, resurrects the failed worker from its most
//! recent checkpoint (the paper's migration daemon + resurrection daemon),
//! and verifies the final field against the sequential [`mod@reference`]
//! solver.
//! Workers checkpoint through the incremental delta pipeline: the first
//! image per worker is full, subsequent ones ship only the dirtied field
//! rows and loop state.
//!
//! ```
//! use mojave_grid::{reference_checksums, worker_source, GridConfig};
//!
//! let config = GridConfig { workers: 2, rows_per_worker: 3, cols: 4, timesteps: 2,
//!                           checkpoint_interval: 2 };
//! assert_eq!(config.total_rows(), 6);
//! // The sequential reference yields one checksum per worker's row block…
//! assert_eq!(reference_checksums(&config).len(), 2);
//! // …and the generated MojaveC worker uses the Figure-2 speculation loop.
//! assert!(worker_source(&config).contains("speculate"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod reference;
pub mod source;
pub mod worker;

pub use coordinator::{
    run_grid_served, run_grid_with, FailurePlan, GridError, GridOptions, GridReport,
};
pub use reference::reference_checksums;
pub use source::worker_source;
pub use worker::run_worker;

/// Parameters of the grid computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridConfig {
    /// Number of worker processes (= cluster nodes).
    pub workers: usize,
    /// Rows owned by each worker.
    pub rows_per_worker: usize,
    /// Number of columns.
    pub cols: usize,
    /// Number of time steps.
    pub timesteps: usize,
    /// Steps between checkpoints (the knob §2 discusses: balancing
    /// speculation overhead against expected recovery cost).
    pub checkpoint_interval: usize,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            workers: 3,
            rows_per_worker: 8,
            cols: 16,
            timesteps: 20,
            checkpoint_interval: 5,
        }
    }
}

impl GridConfig {
    /// Total number of global rows.
    pub fn total_rows(&self) -> usize {
        self.workers * self.rows_per_worker
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_totals() {
        let cfg = GridConfig::default();
        assert_eq!(cfg.total_rows(), 24);
    }
}
