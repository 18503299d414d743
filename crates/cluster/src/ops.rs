//! The seam between a worker and its cluster: [`ClusterOps`].
//!
//! A worker never learns whether its cluster is the thread-shared
//! simulation or a hub behind a socket.  Everything it needs from "the
//! cluster" is this one per-node trait: who am I, plus the six operations
//! that are RPC frames on the socket transport.  [`LocalNode`] implements
//! it directly on the shared [`Cluster`]; [`crate::RemoteCluster`] forwards
//! each operation as one RPC to a hub whose handler calls the *same*
//! [`LocalNode`] methods — so every cluster state transition has exactly
//! one implementation, whichever side of a socket the worker runs on.

use crate::cluster::{Cluster, RecvOutcome};
use mojave_core::{DeliveryOutcome, MigrationImage, PackedProcess};
use mojave_fir::MigrateProtocol;
use mojave_obs::ClockSource;
use mojave_wire::{CodecSet, FrameError, Welcome, FORMAT_VERSION, TRANSPORT_VERSION};
use std::sync::Arc;

/// What the probe at the head of every external call reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tick {
    /// The node is alive, and the probe advanced its seeded virtual clock
    /// by one tick, to this many microseconds.
    Alive(u64),
    /// The node has been marked failed, at this (odd) failure epoch; its
    /// processes must die.
    Failed(u64),
}

/// One node's view of its cluster: identity, plus the operations a worker's
/// externals and migration sink perform on shared cluster state.
///
/// Operations are fallible because an implementation may sit behind a
/// transport, where a failed operation is not retried: it means the
/// node's connection is gone.  The in-process [`LocalNode`] never fails.
pub trait ClusterOps: std::fmt::Debug + Send + 'static {
    /// This node's id.
    fn node(&self) -> usize;
    /// What this node learned about its cluster on joining it — size,
    /// its RNG seed and architecture, the slab codecs the
    /// receiving side of [`ClusterOps::deliver`] decodes — in the shape of
    /// the transport's handshake reply, which is where a node process gets
    /// it from (and which the hub fills from [`LocalNode`]'s).
    fn welcome(&self) -> &Welcome;
    /// The clock this node's flight recorder stamps events with.
    fn clock_source(&self) -> Arc<dyn ClockSource>;

    /// The per-external-call probe: failure check, then exactly one
    /// virtual-clock tick.
    fn tick(&self) -> Result<Tick, FrameError>;
    /// `msg_send`: put a tagged float payload in `dest`'s mailbox.
    fn send(&self, dest: usize, tag: i64, data: Vec<f64>) -> Result<(), FrameError>;
    /// `msg_recv`: block until data from `src` or its failure.
    fn recv(&self, src: usize, tag: i64) -> Result<RecvOutcome, FrameError>;
    /// `inject_failure`: mark this node failed; returns the failure epoch.
    fn fail(&self) -> Result<u64, FrameError>;
    /// Store a checkpoint/suspend image, or route a `migrate://` image to
    /// the target node's daemon.
    fn deliver(
        &self,
        protocol: MigrateProtocol,
        target: &str,
        image: &MigrationImage,
    ) -> Result<DeliveryOutcome, FrameError>;
    /// Whether the shared store still holds checkpoint `base` with this
    /// heap fingerprint (delta-base negotiation).
    fn has_base(&self, base: &str, fingerprint: u64) -> Result<bool, FrameError>;
}

/// The in-process [`ClusterOps`]: a [`Cluster`] handle plus a node id.
#[derive(Debug, Clone)]
pub struct LocalNode {
    cluster: Cluster,
    node: usize,
    welcome: Welcome,
}

impl LocalNode {
    /// The handle for `node` on `cluster`.
    pub fn new(cluster: Cluster, node: usize) -> Self {
        let welcome = Welcome {
            transport_version: TRANSPORT_VERSION,
            format_version: FORMAT_VERSION,
            num_nodes: cluster.num_nodes() as u32,
            node_seed: cluster.node_seed(node),
            arch: cluster.arch(node),
            // Every in-tree daemon decodes every slab codec, so cluster
            // senders compress freely.  (A daemon advertising fewer would
            // narrow this, and senders would keep its frames Raw.)
            codec_bits: CodecSet::all().bits(),
        };
        LocalNode {
            cluster,
            node,
            welcome,
        }
    }

    fn parse_node(&self, target: &str) -> Option<usize> {
        let name = target.trim();
        let id = name.strip_prefix("node").unwrap_or(name).parse().ok()?;
        (id < self.cluster.num_nodes()).then_some(id)
    }
}

impl ClusterOps for LocalNode {
    fn node(&self) -> usize {
        self.node
    }

    fn welcome(&self) -> &Welcome {
        &self.welcome
    }

    fn clock_source(&self) -> Arc<dyn ClockSource> {
        self.cluster.clock_source(self.node)
    }

    fn tick(&self) -> Result<Tick, FrameError> {
        let epoch = self.cluster.failure_epoch(self.node);
        Ok(if epoch % 2 == 1 {
            Tick::Failed(epoch)
        } else {
            // Virtual time: every external call costs a seeded per-node
            // tick, so `clock_us` readings replay exactly from the seed.
            Tick::Alive(self.cluster.tick_virtual_clock(self.node))
        })
    }

    fn send(&self, dest: usize, tag: i64, data: Vec<f64>) -> Result<(), FrameError> {
        self.cluster.send(self.node, dest, tag, data);
        Ok(())
    }

    fn recv(&self, src: usize, tag: i64) -> Result<RecvOutcome, FrameError> {
        Ok(self.cluster.recv(self.node, src, tag))
    }

    fn fail(&self) -> Result<u64, FrameError> {
        self.cluster.fail_node(self.node);
        Ok(self.cluster.failure_epoch(self.node))
    }

    fn deliver(
        &self,
        protocol: MigrateProtocol,
        target: &str,
        image: &MigrationImage,
    ) -> Result<DeliveryOutcome, FrameError> {
        Ok(match protocol {
            MigrateProtocol::Checkpoint | MigrateProtocol::Suspend => {
                // Writing to the reliable store crosses the network too; the
                // cluster accounts it as a message to the storage server.
                self.cluster
                    .send(self.node, self.node, -1, vec![image.byte_size() as f64]);
                self.cluster.store().put_image(target, image);
                // Checkpoint-event hook: fires any scheduled failure
                // injection synchronously in this thread (the replay
                // guarantee).
                self.cluster.note_checkpoint(self.node);
                DeliveryOutcome::Stored
            }
            MigrateProtocol::Migrate => match self.parse_node(target) {
                None => DeliveryOutcome::Failed(format!("unknown node `{target}`")),
                Some(dest) if dest == self.node => DeliveryOutcome::Failed(
                    "refusing to migrate a process onto its own node".to_owned(),
                ),
                Some(dest) => {
                    let packed = PackedProcess {
                        protocol,
                        target: target.to_owned(),
                        bytes: image.to_bytes(),
                    };
                    if self.cluster.push_inbound(dest, packed) {
                        DeliveryOutcome::Migrated
                    } else {
                        DeliveryOutcome::Failed(format!("node {dest} is not accepting migrations"))
                    }
                }
            },
        })
    }

    /// Deltas are resolvable as long as the base checkpoint is still on the
    /// shared reliable store — with the heap content the writer remembers,
    /// not merely the same name — which every node (and the resurrection
    /// daemon) can reach.
    fn has_base(&self, base: &str, fingerprint: u64) -> Result<bool, FrameError> {
        Ok(self.cluster.store().heap_fingerprint(base) == Some(fingerprint))
    }
}

#[cfg(test)]
mod tests {
    //! The seam under a scripted fake: what the one externals and the one
    //! sink ask of *any* [`ClusterOps`], and how they map its failures.

    use super::*;
    use crate::{NodeExternals, NodeSink};
    use mojave_core::{ExtCall, Externals, MigrationSink, Process, ProcessConfig, RuntimeError};
    use mojave_heap::{Heap, Word};
    use mojave_obs::{EventKind, Level, Recorder};
    use std::sync::Mutex;

    /// Logs every operation issued; `tick` answers from the script and
    /// every other operation fails once `broken` is set.
    #[derive(Debug, Clone)]
    struct Scripted {
        welcome: Welcome,
        log: Arc<Mutex<Vec<&'static str>>>,
        tick: Result<Tick, String>,
        broken: bool,
    }

    impl Scripted {
        fn new() -> Scripted {
            Scripted {
                welcome: LocalNode::new(Cluster::new(crate::ClusterConfig::new(4)), 2)
                    .welcome()
                    .clone(),
                log: Arc::default(),
                tick: Ok(Tick::Alive(0)),
                broken: false,
            }
        }

        fn op<T>(&self, name: &'static str, value: T) -> Result<T, FrameError> {
            self.log.lock().unwrap().push(name);
            if self.broken {
                return Err(FrameError::Protocol(format!("{name} lost")));
            }
            Ok(value)
        }

        fn log(&self) -> Vec<&'static str> {
            self.log.lock().unwrap().clone()
        }
    }

    impl ClusterOps for Scripted {
        fn node(&self) -> usize {
            2
        }
        fn welcome(&self) -> &Welcome {
            &self.welcome
        }
        fn clock_source(&self) -> Arc<dyn ClockSource> {
            Arc::new(mojave_obs::FixedClock::at(0))
        }
        fn tick(&self) -> Result<Tick, FrameError> {
            self.log.lock().unwrap().push("tick");
            self.tick.clone().map_err(FrameError::Protocol)
        }
        fn send(&self, _: usize, _: i64, _: Vec<f64>) -> Result<(), FrameError> {
            self.op("send", ())
        }
        fn recv(&self, _: usize, _: i64) -> Result<RecvOutcome, FrameError> {
            self.op("recv", RecvOutcome::PeerFailed)
        }
        fn fail(&self) -> Result<u64, FrameError> {
            self.op("fail", 7)
        }
        fn deliver(
            &self,
            _: MigrateProtocol,
            _: &str,
            _: &MigrationImage,
        ) -> Result<DeliveryOutcome, FrameError> {
            self.op("deliver", DeliveryOutcome::Stored)
        }
        fn has_base(&self, _: &str, _: u64) -> Result<bool, FrameError> {
            self.op("has_base", true)
        }
    }

    /// Issue `name(0, 1, <a one-float array>)` — enough arguments for every
    /// cluster external, ignored by the others.
    fn call(ext: &mut impl Externals, name: &str) -> Result<Word, RuntimeError> {
        let mut heap = Heap::new();
        let array = heap.alloc_array(1, Word::Float(0.0)).unwrap();
        let args = [Word::Int(0), Word::Int(1), Word::Ptr(array)];
        ext.call(ExtCall { name, args: &args }, &mut heap)
    }

    #[test]
    fn every_external_call_ticks_exactly_once_and_first() {
        let ops = Scripted::new();
        let mut ext = NodeExternals::over(ops.clone(), Recorder::disabled());
        assert_eq!(call(&mut ext, "node_id").unwrap(), Word::Int(2));
        assert_eq!(call(&mut ext, "num_nodes").unwrap(), Word::Int(4));
        call(&mut ext, "msg_send").unwrap();
        call(&mut ext, "msg_recv").unwrap();
        call(&mut ext, "clock_us").unwrap();
        assert!(call(&mut ext, "inject_failure").is_err());
        assert_eq!(
            ops.log(),
            ["tick", "tick", "tick", "send", "tick", "recv", "tick", "tick", "fail"]
        );
    }

    #[test]
    fn a_failed_tick_kills_the_call_before_any_other_operation() {
        let ops = Scripted {
            tick: Ok(Tick::Failed(3)),
            ..Scripted::new()
        };
        let recorder = Recorder::new(2, Level::Trace);
        let mut ext = NodeExternals::over(ops.clone(), recorder.clone());
        for name in ["msg_send", "node_id", "inject_failure"] {
            let err = call(&mut ext, name).unwrap_err();
            assert!(
                matches!(&err, RuntimeError::ExternError { name, message }
                    if name == "node" && message == "node 2 has failed"),
                "got {err:?}"
            );
        }
        assert_eq!(ops.log(), ["tick", "tick", "tick"]);
        // Each observation is recorded with the epoch the tick carried.
        let events: Vec<_> = recorder
            .events()
            .iter()
            .map(|e| (e.kind, e.a, e.b))
            .collect();
        assert_eq!(events, [(EventKind::Failure, 3, 1); 3]);
    }

    #[test]
    fn operation_errors_surface_as_transport_errors_named_after_the_call() {
        let transport_error = |ops: Scripted, call_name: &str| {
            let mut ext = NodeExternals::over(ops, Recorder::disabled());
            match call(&mut ext, call_name).unwrap_err() {
                RuntimeError::ExternError { name, message } => {
                    assert_eq!(name, call_name);
                    message
                }
                other => panic!("expected an ExternError, got {other:?}"),
            }
        };
        let broken = Scripted {
            broken: true,
            ..Scripted::new()
        };
        for (name, op) in [
            ("msg_send", "send"),
            ("msg_recv", "recv"),
            ("inject_failure", "fail"),
        ] {
            let message = transport_error(broken.clone(), name);
            assert_eq!(message, format!("transport: protocol error: {op} lost"));
        }
        let deaf = Scripted {
            tick: Err("tick lost".into()),
            ..Scripted::new()
        };
        let message = transport_error(deaf.clone(), "print_int");
        assert_eq!(message, "transport: protocol error: tick lost");
        assert_eq!(deaf.log(), ["tick"]);
    }

    #[test]
    fn the_sink_maps_transport_errors_to_failed_deliveries_and_missing_bases() {
        let mut pb = mojave_fir::builder::ProgramBuilder::new();
        let (main, _) = pb.declare("main", &[]);
        pb.define(main, mojave_fir::builder::term::halt(0));
        pb.set_entry(main);
        let mut process = Process::new(pb.finish(), ProcessConfig::default()).unwrap();
        let image = process.pack(0, Word::Fun(0), &[]).unwrap();

        let healthy = Scripted::new();
        let mut sink = NodeSink(healthy.clone());
        assert_eq!(
            sink.deliver(MigrateProtocol::Checkpoint, "ck", &image),
            DeliveryOutcome::Stored
        );
        assert!(sink.has_base("ck", 1));
        assert_eq!(sink.accepted_codecs(), CodecSet::all());
        assert_eq!(healthy.log(), ["deliver", "has_base"]);

        let mut sink = NodeSink(Scripted {
            broken: true,
            ..Scripted::new()
        });
        assert_eq!(
            sink.deliver(MigrateProtocol::Checkpoint, "ck", &image),
            DeliveryOutcome::Failed("transport: protocol error: deliver lost".into())
        );
        assert!(!sink.has_base("ck", 1));
    }
}
