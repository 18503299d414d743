//! Cluster-aware externals: the customised message-passing interface of the
//! grid application (Figure 2), plus node identity and failure observation.

use crate::cluster::{Cluster, RecvOutcome};
use crate::ops::{ClusterOps, LocalNode, Tick};
use crate::transport::RemoteCluster;
use mojave_core::{DefaultExternals, ExtCall, Externals, RuntimeError, MSG_OK, MSG_ROLL};
use mojave_heap::{Heap, Word};
use mojave_obs::{EventKind, Recorder};
use mojave_wire::FrameError;

/// Externals for a process running on a cluster node, over any
/// [`ClusterOps`].
///
/// `msg_send(dest, tag, data)` and `msg_recv(src, tag, buf)` move `float[]`
/// payloads through the cluster mailboxes; `msg_recv` returns [`MSG_ROLL`]
/// when the peer has failed — the signal the grid main loop reacts to by
/// rolling back its speculation.  All other externals delegate to
/// [`DefaultExternals`].
///
/// Every call starts with exactly one [`ClusterOps::tick`].  Failure
/// injection: once the cluster marks this node failed, the *next* external
/// call of any kind raises an error, which terminates the process — the
/// moral equivalent of the machine going down.  Message send/receive and
/// failure events flow into the flight recorder.
///
/// The RNG seed is derived from the cluster seed, the tick advances the
/// node's seeded virtual clock, and `clock_us` reads that virtual clock
/// instead of the host's — so a run's observable behaviour is a pure
/// function of the seed.
#[derive(Debug)]
pub struct NodeExternals<C> {
    ops: C,
    inner: DefaultExternals,
    recorder: Recorder,
}

/// [`NodeExternals`] on the in-process simulation.
pub type ClusterExternals = NodeExternals<LocalNode>;

/// [`NodeExternals`] in a node process: every cluster-touching operation is
/// one RPC to the hub.
pub type RemoteExternals = NodeExternals<RemoteCluster>;

impl ClusterExternals {
    /// Externals for `node` on `cluster`.
    pub fn new(cluster: Cluster, node: usize) -> Self {
        NodeExternals::over(LocalNode::new(cluster, node), Recorder::disabled())
    }
}

impl RemoteExternals {
    /// Externals over an established connection.
    pub fn new(remote: RemoteCluster) -> Self {
        NodeExternals::over(remote, Recorder::disabled())
    }
}

impl<C: ClusterOps> NodeExternals<C> {
    /// Externals for the node `ops` speaks for, recording into `recorder`.
    pub fn over(ops: C, recorder: Recorder) -> Self {
        NodeExternals {
            inner: DefaultExternals::new(ops.welcome().node_seed),
            ops,
            recorder,
        }
    }

    fn killed(&self) -> RuntimeError {
        extern_err("node", format!("node {} has failed", self.ops.node()))
    }

    /// A `dest`/`src` argument of `call`, checked against the cluster size.
    fn peer(&self, call: &str, id: i64, role: &str) -> Result<usize, RuntimeError> {
        if id < 0 || id >= self.ops.welcome().num_nodes as i64 {
            return Err(extern_err(call, format!("{role} node {id} does not exist")));
        }
        Ok(id as usize)
    }
}

fn extern_err(name: &str, message: String) -> RuntimeError {
    RuntimeError::ExternError {
        name: name.to_owned(),
        message,
    }
}

/// Argument `i` of `call`, through `get` (e.g. [`Word::as_int`]).
fn arg<T>(
    call: &ExtCall<'_>,
    i: usize,
    what: &str,
    get: impl Fn(&Word) -> Option<T>,
) -> Result<T, RuntimeError> {
    let bad = || extern_err(call.name, format!("argument {i} must be {what}"));
    call.args.get(i).and_then(get).ok_or_else(bad)
}

impl<C: ClusterOps> Externals for NodeExternals<C> {
    fn call(&mut self, call: ExtCall<'_>, heap: &mut Heap) -> Result<Word, RuntimeError> {
        let name = call.name;
        let transport = |e: FrameError| extern_err(name, format!("transport: {e}"));
        match self.ops.tick().map_err(transport)? {
            Tick::Failed(epoch) => {
                // The point where an externally injected failure (the
                // coordinator's scheduled kill) becomes visible to this
                // process — record it as observed (`b` = 1).
                self.recorder.record(EventKind::Failure, epoch, 1);
                return Err(self.killed());
            }
            Tick::Alive(now_us) if name == "clock_us" => {
                return Ok(Word::Int(now_us as i64));
            }
            Tick::Alive(_) => {}
        }
        match name {
            "node_id" => Ok(Word::Int(self.ops.node() as i64)),
            "num_nodes" => Ok(Word::Int(self.ops.welcome().num_nodes as i64)),
            "inject_failure" => {
                let epoch = self.ops.fail().map_err(transport)?;
                self.recorder.record(EventKind::Failure, epoch, 0);
                Err(self.killed())
            }
            "msg_send" => {
                let dest = arg(&call, 0, "an int", Word::as_int)?;
                let tag = arg(&call, 1, "an int", Word::as_int)?;
                let ptr = arg(&call, 2, "an array", Word::as_ptr)?;
                let len = heap.block_len(ptr)?;
                let mut data = Vec::with_capacity(len);
                for i in 0..len {
                    data.push(heap.load(ptr, i as i64)?.as_float().unwrap_or(0.0));
                }
                let dest = self.peer(name, dest, "destination")?;
                self.ops.send(dest, tag, data).map_err(transport)?;
                self.recorder
                    .record(EventKind::Send, dest as u64, len as u64);
                Ok(Word::Int(MSG_OK))
            }
            "msg_recv" => {
                let src = arg(&call, 0, "an int", Word::as_int)?;
                let tag = arg(&call, 1, "an int", Word::as_int)?;
                let ptr = arg(&call, 2, "an array", Word::as_ptr)?;
                let src = self.peer(name, src, "source")?;
                match self.ops.recv(src, tag).map_err(transport)? {
                    RecvOutcome::Data(data) => {
                        let len = heap.block_len(ptr)?;
                        for (i, value) in data.iter().take(len).enumerate() {
                            heap.store(ptr, i as i64, Word::Float(*value))?;
                        }
                        self.recorder
                            .record(EventKind::Recv, src as u64, data.len() as u64);
                        Ok(Word::Int(MSG_OK))
                    }
                    RecvOutcome::PeerFailed => {
                        self.recorder.record(EventKind::Recv, src as u64, u64::MAX);
                        Ok(Word::Int(MSG_ROLL))
                    }
                }
            }
            _ => self.inner.call(call, heap),
        }
    }

    fn roots(&self) -> Vec<Word> {
        self.inner.roots()
    }

    fn output(&self) -> &[String] {
        self.inner.output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    fn small_cluster() -> Cluster {
        Cluster::new(ClusterConfig::new(2))
    }

    #[test]
    fn node_identity_externals() {
        let cluster = small_cluster();
        let mut ext = ClusterExternals::new(cluster, 1);
        let mut heap = Heap::new();
        let id = ext
            .call(
                ExtCall {
                    name: "node_id",
                    args: &[],
                },
                &mut heap,
            )
            .unwrap();
        assert_eq!(id, Word::Int(1));
        let n = ext
            .call(
                ExtCall {
                    name: "num_nodes",
                    args: &[],
                },
                &mut heap,
            )
            .unwrap();
        assert_eq!(n, Word::Int(2));
    }

    #[test]
    fn message_roundtrip_through_heap_arrays() {
        let cluster = small_cluster();
        let mut sender = ClusterExternals::new(cluster.clone(), 0);
        let mut receiver = ClusterExternals::new(cluster, 1);
        let mut heap0 = Heap::new();
        let mut heap1 = Heap::new();

        let out = heap0.alloc_array(3, Word::Float(0.0)).unwrap();
        for (i, v) in [1.5, 2.5, 3.5].iter().enumerate() {
            heap0.store(out, i as i64, Word::Float(*v)).unwrap();
        }
        let status = sender
            .call(
                ExtCall {
                    name: "msg_send",
                    args: &[Word::Int(1), Word::Int(7), Word::Ptr(out)],
                },
                &mut heap0,
            )
            .unwrap();
        assert_eq!(status, Word::Int(MSG_OK));

        let buf = heap1.alloc_array(3, Word::Float(0.0)).unwrap();
        let status = receiver
            .call(
                ExtCall {
                    name: "msg_recv",
                    args: &[Word::Int(0), Word::Int(7), Word::Ptr(buf)],
                },
                &mut heap1,
            )
            .unwrap();
        assert_eq!(status, Word::Int(MSG_OK));
        assert_eq!(heap1.load(buf, 2).unwrap(), Word::Float(3.5));
    }

    #[test]
    fn recv_from_failed_peer_is_msg_roll_and_own_failure_kills() {
        let cluster = small_cluster();
        let mut receiver = ClusterExternals::new(cluster.clone(), 1);
        let mut heap = Heap::new();
        let buf = heap.alloc_array(1, Word::Float(0.0)).unwrap();
        cluster.fail_node(0);
        let status = receiver
            .call(
                ExtCall {
                    name: "msg_recv",
                    args: &[Word::Int(0), Word::Int(1), Word::Ptr(buf)],
                },
                &mut heap,
            )
            .unwrap();
        assert_eq!(status, Word::Int(MSG_ROLL));

        // Now the receiver's own node fails: its next call errors out.
        cluster.fail_node(1);
        assert!(receiver
            .call(
                ExtCall {
                    name: "clock_us",
                    args: &[]
                },
                &mut heap
            )
            .is_err());
    }

    #[test]
    fn other_externals_delegate() {
        let cluster = small_cluster();
        let mut ext = ClusterExternals::new(cluster, 0);
        let mut heap = Heap::new();
        ext.call(
            ExtCall {
                name: "print_int",
                args: &[Word::Int(9)],
            },
            &mut heap,
        )
        .unwrap();
        assert_eq!(ext.output(), &["9".to_owned()]);
        assert!(matches!(
            ext.call(
                ExtCall {
                    name: "bogus",
                    args: &[]
                },
                &mut heap
            ),
            Err(RuntimeError::UnknownExtern(_))
        ));
    }
}
