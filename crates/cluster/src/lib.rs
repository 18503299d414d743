//! # mojave-cluster
//!
//! The simulated distributed environment the paper's evaluation runs on:
//! a cluster of nodes connected by a modelled 100 Mbps network, a reliable
//! shared store standing in for the NFS mount, a customised message-passing
//! interface for the grid application (with the `MSG_ROLL` failure signal of
//! Figure 2), per-node migration daemons, and failure injection.
//!
//! The real 2007 testbed (dual 700 MHz nodes, 100 Mbps Ethernet) is not
//! available; [`NetworkModel`] models its transfer costs.
//!
//! The pieces:
//!
//! * [`Cluster`] — shared state, **sharded per node**: each node owns its
//!   mailbox + condvar, inbound daemon queue and atomic traffic counters,
//!   so disjoint node pairs never contend on a lock; the checkpoint store,
//!   failure epochs and per-node architecture tags ride alongside.  The
//!   cluster is a seeded virtual-time simulation: whole runs (failure
//!   injection included) replay bit-identically from
//!   [`ClusterConfig::seed`].
//! * [`ClusterOps`] — the per-node seam between a worker and its cluster:
//!   identity plus the six operations `tick`/`send`/`recv`/`fail`/
//!   `deliver`/`has_base`.  [`LocalNode`] runs them on the shared
//!   [`Cluster`]; [`RemoteCluster`] sends each as one RPC to a
//!   [`ClusterServer`], which runs it on the node's [`LocalNode`].
//! * [`NodeExternals`] — the one [`mojave_core::Externals`] over that seam:
//!   wires `msg_send` / `msg_recv` / `node_id` / `num_nodes` to the cluster
//!   and delegates everything else to the standard externals.
//! * [`NodeSink`] — the one [`mojave_core::MigrationSink`] over it:
//!   checkpoints go to the shared store, `migrate://node<k>` images to the
//!   target node's migration daemon.  ([`ClusterExternals`]/[`ClusterSink`]
//!   and [`RemoteExternals`]/[`RemoteSink`] name the two instantiations.)
//! * [`MigrationDaemon`] — accepts inbound images, verifies and recompiles
//!   them, and runs them (the paper's "migration server").  Daemons and
//!   sinks negotiate **delta checkpoints**: [`ClusterSink`] reports whether
//!   a base image is still on the shared store, and images that arrive as
//!   deltas are resolved against it (falling back to a precise error, never
//!   a partial heap).
//!
//! ```
//! use mojave_cluster::{Cluster, ClusterConfig, RecvOutcome};
//!
//! // Two homogeneous nodes exchanging a tagged message.
//! let cluster = Cluster::new(ClusterConfig::homogeneous(2, "ia32-sim"));
//! cluster.send(0, 1, 42, vec![1.0, 2.0]);
//! assert_eq!(cluster.recv(1, 0, 42), RecvOutcome::Data(vec![1.0, 2.0]));
//! assert_eq!(cluster.messages_sent(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod externals;
mod network;
mod ops;
mod sink;
mod transport;

pub use cluster::{Cluster, ClusterConfig, MigrationDaemon, NodeStatus, RecvOutcome};
pub use externals::{ClusterExternals, NodeExternals, RemoteExternals};
pub use network::NetworkModel;
pub use ops::{ClusterOps, LocalNode, Tick};
pub use sink::{ClusterSink, NodeSink, RemoteSink};
pub use transport::{ClusterServer, JobSpec, NodeStats, RemoteCluster, Resume};
