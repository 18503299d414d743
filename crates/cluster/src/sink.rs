//! The cluster migration sink: checkpoints to the shared store, `migrate://`
//! to the target node's migration daemon.

use crate::cluster::Cluster;
use crate::ops::{ClusterOps, LocalNode};
use crate::transport::RemoteCluster;
use mojave_core::{DeliveryOutcome, MigrationImage, MigrationSink};
use mojave_fir::MigrateProtocol;
use mojave_wire::CodecSet;

/// [`MigrationSink`] for a process running on a cluster node, over any
/// [`ClusterOps`]: what happens to an image is the cluster's business
/// ([`ClusterOps::deliver`]); this adapter only turns a transport failure
/// into an answer the process can act on.
#[derive(Debug, Clone)]
pub struct NodeSink<C>(pub C);

/// [`NodeSink`] on the in-process simulation.
pub type ClusterSink = NodeSink<LocalNode>;

/// [`NodeSink`] in a node process: images are encoded locally (in the
/// negotiated codec set) and shipped to the hub, which stores or routes
/// them with the same accounting the in-process run performs.
pub type RemoteSink = NodeSink<RemoteCluster>;

impl ClusterSink {
    /// A sink for `node` on `cluster`.
    pub fn new(cluster: Cluster, node: usize) -> Self {
        NodeSink(LocalNode::new(cluster, node))
    }
}

impl RemoteSink {
    /// A sink over an established connection.
    pub fn new(remote: RemoteCluster) -> Self {
        NodeSink(remote)
    }
}

impl<C: ClusterOps> MigrationSink for NodeSink<C> {
    fn deliver(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        image: &MigrationImage,
    ) -> DeliveryOutcome {
        self.0
            .deliver(protocol, target, image)
            .unwrap_or_else(|e| DeliveryOutcome::Failed(format!("transport: {e}")))
    }

    /// Base-image negotiation.  A transport failure answers "no": the
    /// worker falls back to a full image, which is always resolvable.
    fn has_base(&self, base: &str, base_fingerprint: u64) -> bool {
        self.0.has_base(base, base_fingerprint).unwrap_or(false)
    }

    fn accepted_codecs(&self) -> CodecSet {
        CodecSet::from_bits(self.0.welcome().codec_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, MigrationDaemon};
    use mojave_core::{BackendKind, Process, ProcessConfig, RunOutcome};
    use mojave_fir::builder::{term, ProgramBuilder};
    use mojave_fir::{Atom, Ty};

    /// A program that migrates to node 1 and, wherever it ends up running,
    /// halts with 77.
    fn migrating_program() -> mojave_fir::Program {
        let mut pb = ProgramBuilder::new();
        let (after, aparams) = pb.declare("after", &[("x", Ty::Int)]);
        pb.define(after, term::halt(aparams[0]));
        let (main, _) = pb.declare("main", &[]);
        let label = pb.label();
        pb.define(
            main,
            term::migrate(
                label,
                Atom::Str("migrate://node1".into()),
                after,
                vec![Atom::Int(77)],
            ),
        );
        pb.set_entry(main);
        pb.finish()
    }

    #[test]
    fn migrate_moves_the_process_to_the_target_daemon() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        let mut source = Process::new(migrating_program(), ProcessConfig::default())
            .unwrap()
            .with_sink(Box::new(ClusterSink::new(cluster.clone(), 0)));
        let outcome = source.run().unwrap();
        assert_eq!(
            outcome,
            RunOutcome::MigratedAway {
                target: "node1".to_owned()
            }
        );

        // The destination daemon verifies, recompiles and runs it.
        let daemon = MigrationDaemon::new(cluster.clone(), 1);
        let results = daemon.run_pending(&ProcessConfig::default());
        assert_eq!(results.len(), 1);
        assert_eq!(*results[0].as_ref().unwrap(), RunOutcome::Exit(77));
        assert!(cluster.bytes_transferred() > 0);
    }

    #[test]
    fn migrate_to_failed_or_unknown_node_fails_and_process_continues() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        cluster.fail_node(1);
        let mut p = Process::new(migrating_program(), ProcessConfig::default())
            .unwrap()
            .with_sink(Box::new(ClusterSink::new(cluster.clone(), 0)));
        // Delivery fails, so the process continues locally and exits 77.
        assert_eq!(p.run().unwrap(), RunOutcome::Exit(77));
        assert_eq!(p.stats().migration_failures, 1);

        let mut sink = ClusterSink::new(cluster, 0);
        assert!(matches!(
            sink.deliver(MigrateProtocol::Migrate, "node9", &dummy_image()),
            DeliveryOutcome::Failed(_)
        ));
        assert!(matches!(
            sink.deliver(MigrateProtocol::Migrate, "node0", &dummy_image()),
            DeliveryOutcome::Failed(_)
        ));
    }

    fn dummy_program() -> mojave_fir::Program {
        let mut pb = ProgramBuilder::new();
        let (main, _) = pb.declare("main", &[]);
        pb.define(main, term::halt(0));
        pb.set_entry(main);
        pb.finish()
    }

    fn dummy_image() -> MigrationImage {
        let mut p = Process::new(dummy_program(), ProcessConfig::default()).unwrap();
        p.pack(0, mojave_heap::Word::Fun(0), &[]).unwrap()
    }

    #[test]
    fn checkpoints_land_in_the_shared_store() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        let mut sink = ClusterSink::new(cluster.clone(), 0);
        let image = dummy_image();
        assert_eq!(
            sink.deliver(MigrateProtocol::Checkpoint, "grid-0-10", &image),
            DeliveryOutcome::Stored
        );
        assert_eq!(cluster.store().names(), vec!["grid-0-10".to_owned()]);
        let loaded = cluster.store().load("grid-0-10").unwrap();
        assert_eq!(loaded.source_arch, image.source_arch);
    }

    /// A delta relayed to a daemon resolves against the shared store's
    /// base, the base's code included, and runs; a base since overwritten
    /// by other code with the same heap is a precise rejection.
    #[test]
    fn daemon_resolves_a_relayed_delta_against_the_base_code() {
        use mojave_core::{PackedProcess, RuntimeError};
        use mojave_heap::Word;
        let cluster = Cluster::new(ClusterConfig::new(2));
        let mut p = Process::new(migrating_program(), ProcessConfig::default()).unwrap();
        let after = Word::Fun(0);
        let base = p.pack(0, after, &[Word::Int(77)]).unwrap();
        p.heap_mut().mark_clean();
        let delta = p
            .pack_delta(
                0,
                after,
                &[Word::Int(78)],
                "base",
                base.heap_image.fingerprint(),
            )
            .unwrap();
        assert!(delta.code.inline().is_none());
        let relay = || PackedProcess {
            protocol: MigrateProtocol::Migrate,
            target: "node1".into(),
            bytes: delta.to_bytes(),
        };
        let daemon = MigrationDaemon::new(cluster.clone(), 1);

        cluster.store().put("base", base.to_bytes());
        assert!(cluster.push_inbound(1, relay()));
        let results = daemon.run_pending(&ProcessConfig::default());
        assert_eq!(*results[0].as_ref().unwrap(), RunOutcome::Exit(78));

        let other_code = MigrationImage {
            code: dummy_program().into(),
            ..base
        };
        cluster.store().put("base", other_code.to_bytes());
        assert!(cluster.push_inbound(1, relay()));
        match &daemon.run_pending(&ProcessConfig::default())[0] {
            Err(RuntimeError::MigrationRejected(msg)) => {
                assert!(msg.contains("does not carry the code"), "{msg}")
            }
            other => panic!("expected a code mismatch, got {other:?}"),
        }
    }

    #[test]
    fn backend_choice_survives_daemon_unpacking() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        let mut source = Process::new(migrating_program(), ProcessConfig::default())
            .unwrap()
            .with_sink(Box::new(ClusterSink::new(cluster.clone(), 0)));
        source.run().unwrap();
        let daemon = MigrationDaemon::new(cluster, 1);
        let config = ProcessConfig {
            backend: BackendKind::Interp,
            ..ProcessConfig::default()
        };
        let results = daemon.run_pending(&config);
        assert_eq!(*results[0].as_ref().unwrap(), RunOutcome::Exit(77));
    }
}
