//! Cluster state: nodes, mailboxes, failure injection, migration daemons.
//!
//! # Sharding
//!
//! Cluster state is **sharded per node**: each node owns a [`NodeShard`]
//! holding its mailbox (messages addressed *to* it), its inbound
//! migration-daemon queue, its checkpoint-event counter and its traffic
//! counters.  A cross-node send touches only the *receiver's* shard, so
//! independent node pairs never contend on a lock, and the global counters
//! (`messages_sent`, `bytes_transferred`, …) are lock-free sums over
//! per-shard atomics.  No operation ever holds two shard locks at once, so
//! there is no lock-order hazard (see `docs/ARCHITECTURE.md`, "Concurrency
//! & determinism").
//!
//! # Deterministic simulation mode
//!
//! [`ClusterConfig::deterministic`] puts the cluster into a seeded
//! virtual-time mode in which a whole grid run — including failure
//! injection and resurrection — replays **bit-identically** from the seed:
//!
//! * `recv` never times out on the wall clock; it blocks on the shard
//!   condvar until data arrives or the sender fails (a generous wall-clock
//!   safety net still catches genuine deadlocks, loudly).
//! * A failed sender is reported as [`RecvOutcome::PeerFailed`] **once per
//!   failure epoch** per `(receiver, sender, tag)`; re-reads after the
//!   rollback the signal triggers then *block* until the resurrected peer
//!   re-sends, instead of spinning on further `MSG_ROLL`s whose count
//!   would depend on thread scheduling.
//! * Failure injection is **event-synchronous**: [`Cluster::schedule_failure`]
//!   arms a trigger that marks the victim failed inside its own `k`-th
//!   checkpoint delivery ([`Cluster::note_checkpoint`]), so the victim
//!   always dies at the same program point regardless of scheduling.
//! * Each node carries a seeded **virtual clock** ([`Cluster::virtual_time_us`])
//!   advanced by a per-node tick derived from the seed plus the modelled
//!   transfer time of its sends; `clock_us` reads virtual time instead of
//!   the host clock.

use crate::network::NetworkModel;
use mojave_core::rng::SplitMix64;
use mojave_core::{
    CheckpointStore, PackedProcess, Process, ProcessConfig, RunOutcome, RuntimeError,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Interconnect model (used for accounting).
    pub network: NetworkModel,
    /// How long a `msg_recv` waits before reporting `MSG_ROLL`.  In
    /// deterministic mode this is only a deadlock safety net and should be
    /// generous — timeouts are a wall-clock phenomenon and would break
    /// replay.
    pub recv_timeout: Duration,
    /// Architecture tag per node; defaults to alternating `ia32-sim` /
    /// `risc-sim` to exercise heterogeneous migration.
    pub archs: Vec<String>,
    /// Seeded virtual-time mode: see the module docs.  Off by default.
    pub deterministic: bool,
    /// Seed for the virtual-time scheduler and the per-node external RNGs.
    /// Only meaningful with [`ClusterConfig::deterministic`].
    pub seed: u64,
}

impl ClusterConfig {
    /// A cluster of `nodes` nodes with the paper's network model and
    /// **alternating architectures**: even nodes are `ia32-sim`, odd nodes
    /// `risc-sim`.
    ///
    /// The alternation is deliberate — it makes every default multi-node
    /// test a *heterogeneous* migration test, exercising the paper's claim
    /// that the canonical image format needs no translation between
    /// machines.  It is not free, though: FIR images are recompiled for the
    /// destination architecture and binary migration is refused across the
    /// boundary.  Benchmarks and experiments that want architecture effects
    /// out of the picture should use [`ClusterConfig::homogeneous`].
    pub fn new(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            network: NetworkModel::paper_testbed(),
            recv_timeout: Duration::from_millis(2_000),
            archs: (0..nodes)
                .map(|i| {
                    if i % 2 == 0 {
                        "ia32-sim".to_owned()
                    } else {
                        "risc-sim".to_owned()
                    }
                })
                .collect(),
            deterministic: false,
            seed: 0,
        }
    }

    /// A cluster whose nodes all share one architecture tag, opting out of
    /// the cross-architecture translation noise that
    /// [`ClusterConfig::new`]'s alternating tags introduce (binary
    /// migration works between any pair of nodes, and recompilation costs
    /// are uniform).
    pub fn homogeneous(nodes: usize, arch: &str) -> Self {
        ClusterConfig {
            archs: vec![arch.to_owned(); nodes],
            ..ClusterConfig::new(nodes)
        }
    }

    /// A cluster in **deterministic simulation mode**: seeded virtual time,
    /// epoch-gated failure reporting and event-synchronous failure
    /// injection, so runs replay bit-identically from `seed` (module docs).
    ///
    /// The receive timeout is widened to a 30-second safety net: in this
    /// mode a timeout means a genuine deadlock, not backpressure.
    pub fn deterministic(nodes: usize, seed: u64) -> Self {
        ClusterConfig {
            recv_timeout: Duration::from_secs(30),
            deterministic: true,
            seed,
            ..ClusterConfig::new(nodes)
        }
    }
}

/// Liveness of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Running normally.
    Alive,
    /// Crashed; processes on it are gone and peers observe the failure.
    Failed,
}

/// The outcome of a message receive.
#[derive(Debug, Clone, PartialEq)]
pub enum RecvOutcome {
    /// A message arrived.
    Data(Vec<f64>),
    /// The sender is marked failed — the receiver should roll back
    /// (`MSG_ROLL` in Figure 2).
    PeerFailed,
    /// Nothing arrived within the timeout.  **Wall-clock mode only**: in
    /// deterministic simulation mode a stalled receive is a genuine
    /// deadlock and [`Cluster::recv`] panics with a diagnostic naming the
    /// stalled `(to, from, tag)` edge instead of returning a
    /// scheduling-dependent value the program could act on.
    Timeout,
}

/// A node's mailbox: the latest payload per `(from, tag)`, plus — in
/// deterministic mode — which failure epochs have already been reported to
/// a blocked receiver (so `MSG_ROLL` fires exactly once per failure).
#[derive(Debug, Default)]
struct Mailbox {
    /// Message log: latest payload per `(from, tag)`, stamped with the
    /// sender's failure epoch at send time.  Receives *read* rather than
    /// consume, so that a worker that rolls back (or is resurrected from a
    /// checkpoint) can re-read borders its previous incarnation already
    /// received — border contents are deterministic, so re-reads and
    /// re-sends are idempotent.  This is what keeps the Figure-2 recovery
    /// protocol consistent when the failed node's last checkpoint is older
    /// than the survivors' rollback points.  The epoch stamp is what makes
    /// deterministic-mode failure observation timing-independent: a payload
    /// first produced by a *post-failure incarnation* of the sender carries
    /// that incarnation's epoch, so the receiver learns about the failure
    /// from the data itself even if it never caught the sender in the
    /// failed state.
    messages: HashMap<(usize, i64), (u64, Vec<f64>)>,
    /// Deterministic mode only: highest failure id of each sender already
    /// reported as `PeerFailed` to this shard's receiver (a failure's id is
    /// its odd epoch value).  Keyed per sender, not per tag: one failure
    /// triggers exactly one rollback of the receiver, after which every
    /// re-read and every later message from the resurrected sender is
    /// plain data.
    roll_observed: HashMap<usize, u64>,
}

/// Per-node slice of the cluster state.  Every field is owned by exactly
/// one node; cross-node operations touch only the *target* node's shard.
#[derive(Debug, Default)]
struct NodeShard {
    /// Messages addressed to this node, guarded with `mail_cv`.
    mail: Mutex<Mailbox>,
    /// Wakes receivers blocked in `recv` on this shard.
    mail_cv: Condvar,
    /// Inbound migrated processes awaiting this node's migration daemon.
    inbound: Mutex<VecDeque<PackedProcess>>,
    /// Failure epoch: even = alive, odd = failed.  Starts at 0 (alive);
    /// each fail/revive transition increments by one.  Lock-free reads keep
    /// `is_failed` off every shard lock.
    status: AtomicU64,
    /// Checkpoints this node has delivered to the shared store, guarded
    /// with `ckpt_cv` so coordinators can *block* on "node has written k
    /// checkpoints" instead of sleep-polling the store.
    ckpt_count: Mutex<u64>,
    /// Wakes waiters in `wait_for_node_checkpoints`.
    ckpt_cv: Condvar,
    /// Point-to-point messages delivered **to** this shard's mailbox.
    messages_in: AtomicU64,
    /// Bytes delivered to this shard (messages and inbound migrations).
    bytes_in: AtomicU64,
    /// Simulated network time for this shard's deliveries, in nanoseconds.
    /// Integer so the sum over shards is order-independent (f64 addition
    /// is not associative, which would break bit-identical replay).
    sim_nanos_in: AtomicU64,
    /// Deterministic mode: this node's virtual clock, in nanoseconds.
    /// Written only from the node's own worker thread.
    virtual_nanos: AtomicU64,
}

/// An armed failure injection: mark `victim` failed inside its
/// `after_checkpoints`-th checkpoint delivery.
#[derive(Debug, Clone, Copy)]
struct ScheduledFailure {
    victim: usize,
    after_checkpoints: u64,
}

struct Inner {
    config: ClusterConfig,
    shards: Vec<NodeShard>,
    store: CheckpointStore,
    scheduled_failure: Mutex<Option<ScheduledFailure>>,
}

pub(crate) fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A handle to the shared cluster state.  Cheap to clone; every node,
/// externals instance and daemon holds one.
#[derive(Clone)]
pub struct Cluster {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.inner.config.nodes)
            .field("deterministic", &self.inner.config.deterministic)
            .finish()
    }
}

impl Cluster {
    /// Create a cluster.
    pub fn new(config: ClusterConfig) -> Self {
        let nodes = config.nodes;
        Cluster {
            inner: Arc::new(Inner {
                config,
                shards: (0..nodes).map(|_| NodeShard::default()).collect(),
                store: CheckpointStore::new(),
                scheduled_failure: Mutex::new(None),
            }),
        }
    }

    fn shard(&self, node: usize) -> &NodeShard {
        &self.inner.shards[node]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.inner.config.nodes
    }

    /// Whether this cluster runs in deterministic simulation mode.
    pub fn is_deterministic(&self) -> bool {
        self.inner.config.deterministic
    }

    /// The seed of the virtual-time scheduler (0 unless deterministic).
    pub fn seed(&self) -> u64 {
        self.inner.config.seed
    }

    /// The deterministic per-node seed for `node`'s externals RNG, derived
    /// from the cluster seed.  Outside deterministic mode nodes fall back
    /// to a fixed node-indexed seed, as before.
    pub fn node_seed(&self, node: usize) -> u64 {
        if self.is_deterministic() {
            SplitMix64::new(self.inner.config.seed ^ (node as u64).wrapping_mul(0x9E37_79B9))
                .next_u64()
        } else {
            0xC1u64.wrapping_mul(node as u64 + 1)
        }
    }

    /// The shared reliable store (the "NFS mount").
    pub fn store(&self) -> CheckpointStore {
        self.inner.store.clone()
    }

    /// The interconnect model.
    pub fn network(&self) -> NetworkModel {
        self.inner.config.network
    }

    /// The receive timeout.
    pub fn recv_timeout(&self) -> Duration {
        self.inner.config.recv_timeout
    }

    /// The architecture tag of a node.
    pub fn arch(&self, node: usize) -> String {
        self.inner
            .config
            .archs
            .get(node)
            .cloned()
            .unwrap_or_else(|| "ia32-sim".to_owned())
    }

    /// A node's status.
    pub fn status(&self, node: usize) -> NodeStatus {
        if self.failure_epoch(node) % 2 == 1 {
            NodeStatus::Failed
        } else {
            NodeStatus::Alive
        }
    }

    /// A node's failure epoch: even = alive, odd = failed; each
    /// fail/revive transition increments it.  Lock-free.
    pub fn failure_epoch(&self, node: usize) -> u64 {
        self.shard(node).status.load(Ordering::SeqCst)
    }

    /// Whether a node is currently failed.  Lock-free.
    pub fn is_failed(&self, node: usize) -> bool {
        self.status(node) == NodeStatus::Failed
    }

    /// Mark a node as failed (failure injection).  Its processes observe the
    /// failure at their next external call; peers observe it through
    /// `MSG_ROLL` receives.  Idempotent: failing a failed node is a no-op.
    pub fn fail_node(&self, node: usize) {
        let flipped = self
            .shard(node)
            .status
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                (v % 2 == 0).then_some(v + 1)
            })
            .is_ok();
        if flipped {
            // Receivers waiting on a message *from* this node block on
            // their own shard's condvar, so every shard must be woken.
            self.notify_all_shards();
        }
    }

    /// Mark a node alive again (a replacement machine, or the resurrection
    /// of the computation on a spare).  Idempotent.
    pub fn revive_node(&self, node: usize) {
        let flipped = self
            .shard(node)
            .status
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                (v % 2 == 1).then_some(v + 1)
            })
            .is_ok();
        if flipped {
            self.notify_all_shards();
        }
    }

    fn notify_all_shards(&self) {
        for shard in &self.inner.shards {
            // Acquire the mail lock so the notify cannot race between a
            // blocked receiver's predicate check and its wait.
            let _mail = lock(&shard.mail);
            shard.mail_cv.notify_all();
        }
    }

    /// Point-to-point send of a float payload with a tag.  A re-send after a
    /// rollback overwrites the logged copy (the payload is identical, because
    /// the rolled-back computation is deterministic).
    ///
    /// Only the **receiver's** shard is touched: disjoint node pairs never
    /// contend.
    pub fn send(&self, from: usize, to: usize, tag: i64, data: Vec<f64>) {
        let bytes = data.len() * 8 + 32;
        let transfer_us = self.inner.config.network.transfer_time_us(bytes);
        let shard = self.shard(to);
        shard.messages_in.fetch_add(1, Ordering::SeqCst);
        shard.bytes_in.fetch_add(bytes as u64, Ordering::SeqCst);
        shard
            .sim_nanos_in
            .fetch_add(sim_nanos(transfer_us), Ordering::SeqCst);
        let sender_epoch = if from < self.num_nodes() {
            self.failure_epoch(from)
        } else {
            0
        };
        if self.is_deterministic() && from < self.num_nodes() {
            self.advance_virtual_clock(from, sim_nanos(transfer_us));
        }
        let mut mail = lock(&shard.mail);
        mail.messages.insert((from, tag), (sender_epoch, data));
        shard.mail_cv.notify_all();
    }

    /// Receive the message sent from `from` to `to` with tag `tag`, waiting
    /// up to the configured timeout.  The message stays in the log so a
    /// rolled-back or resurrected receiver can read it again.
    ///
    /// In deterministic mode a failed sender is reported once per failure
    /// epoch and further re-reads block until the resurrected peer
    /// re-sends; see the module docs.
    pub fn recv(&self, to: usize, from: usize, tag: i64) -> RecvOutcome {
        let deterministic = self.is_deterministic();
        let deadline = Instant::now() + self.inner.config.recv_timeout;
        let shard = self.shard(to);
        let mut mail = lock(&shard.mail);
        loop {
            if let Some((send_epoch, data)) = mail.messages.get(&(from, tag)) {
                // Deterministic mode: a payload first produced by a
                // post-failure incarnation of the sender (epoch stamp > 0)
                // reports that failure exactly once before the data is
                // handed out, so the receiver's rollback happens at the
                // same program point whether it raced the failure window or
                // only saw the resurrected sender's re-send.
                if deterministic && *send_epoch > 0 {
                    let failure_id = send_epoch - 1 + send_epoch % 2;
                    if mail.roll_observed.get(&from).copied().unwrap_or(0) < failure_id {
                        mail.roll_observed.insert(from, failure_id);
                        return RecvOutcome::PeerFailed;
                    }
                }
                return RecvOutcome::Data(data.clone());
            }
            let epoch = self.failure_epoch(from);
            if epoch % 2 == 1 {
                if !deterministic {
                    return RecvOutcome::PeerFailed;
                }
                // Deterministic mode: report this failure exactly once,
                // then block until revival + re-send.  The count of
                // MSG_ROLLs a receiver observes is thereby a function of
                // the failure schedule, not of thread timing.
                if mail.roll_observed.get(&from).copied().unwrap_or(0) < epoch {
                    mail.roll_observed.insert(from, epoch);
                    return RecvOutcome::PeerFailed;
                }
            }
            let now = Instant::now();
            if now >= deadline {
                // Wall-clock mode: a timeout is a normal backpressure
                // signal the program reacts to with MSG_ROLL.  In
                // deterministic mode it must never become a value the
                // program can act on — a scheduling-dependent Timeout
                // leaking into a replay silently breaks bit-identical
                // digests on a loaded machine.  Hitting the safety net
                // there means a genuine deadlock, so fail loudly, naming
                // the stalled edge.
                if deterministic {
                    panic!(
                        "deterministic cluster deadlock: recv(to={to}, from={from}, tag={tag}) \
                         stalled for {:?} (the wall-clock safety net); no payload was ever sent \
                         on this edge and the sender never failed",
                        self.inner.config.recv_timeout
                    );
                }
                return RecvOutcome::Timeout;
            }
            // Chunked waits guard against any lost-wakeup bug turning into
            // a hang; correctness never depends on the chunk period.
            let wait = (deadline - now).min(Duration::from_millis(20));
            mail = shard
                .mail_cv
                .wait_timeout(mail, wait)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Queue an inbound migrated process for `node`'s migration daemon.
    /// Returns `false` if the node is failed (delivery refused).
    pub fn push_inbound(&self, node: usize, packed: PackedProcess) -> bool {
        if node >= self.num_nodes() || self.is_failed(node) {
            return false;
        }
        let shard = self.shard(node);
        let transfer_us = self
            .inner
            .config
            .network
            .transfer_time_us(packed.bytes.len());
        shard
            .bytes_in
            .fetch_add(packed.bytes.len() as u64, Ordering::SeqCst);
        shard
            .sim_nanos_in
            .fetch_add(sim_nanos(transfer_us), Ordering::SeqCst);
        lock(&shard.inbound).push_back(packed);
        true
    }

    /// Take the next inbound process for `node`, if any.
    pub fn pop_inbound(&self, node: usize) -> Option<PackedProcess> {
        lock(&self.shard(node).inbound).pop_front()
    }

    // ------------------------------------------------------------------
    // Checkpoint events & scheduled failure injection
    // ------------------------------------------------------------------

    /// Record that `node` delivered a checkpoint to the shared store.
    /// Called by the cluster sink; wakes [`Cluster::wait_for_node_checkpoints`]
    /// waiters and fires a matching [`Cluster::schedule_failure`] trigger
    /// **synchronously in the delivering thread**, which is what makes
    /// deterministic-mode failure injection replayable.
    pub fn note_checkpoint(&self, node: usize) {
        let shard = self.shard(node);
        let count = {
            let mut ckpt = lock(&shard.ckpt_count);
            *ckpt += 1;
            shard.ckpt_cv.notify_all();
            *ckpt
        };
        let fire = {
            let mut scheduled = lock(&self.inner.scheduled_failure);
            match *scheduled {
                Some(s) if s.victim == node && count >= s.after_checkpoints => {
                    *scheduled = None;
                    true
                }
                _ => false,
            }
        };
        if fire {
            self.fail_node(node);
        }
    }

    /// Checkpoints `node` has delivered so far.
    pub fn checkpoints_delivered(&self, node: usize) -> u64 {
        *lock(&self.shard(node).ckpt_count)
    }

    /// Block until `node` has delivered at least `count` checkpoints, or
    /// until `timeout` elapses; returns whether the count was reached.
    /// This is the event-driven replacement for sleep-polling the store.
    pub fn wait_for_node_checkpoints(&self, node: usize, count: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let shard = self.shard(node);
        let mut ckpt = lock(&shard.ckpt_count);
        while *ckpt < count {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            ckpt = shard
                .ckpt_cv
                .wait_timeout(ckpt, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }

    /// Arm a failure injection: `victim` is marked failed inside its
    /// `after_checkpoints`-th checkpoint delivery (so there is always a
    /// checkpoint to resurrect from, and — in deterministic mode — the
    /// victim dies at the same program point on every replay).  Replaces
    /// any previously armed schedule.
    pub fn schedule_failure(&self, victim: usize, after_checkpoints: u64) {
        *lock(&self.inner.scheduled_failure) = Some(ScheduledFailure {
            victim,
            after_checkpoints: after_checkpoints.max(1),
        });
    }

    // ------------------------------------------------------------------
    // Virtual time (deterministic mode)
    // ------------------------------------------------------------------

    /// A node's virtual clock in microseconds (deterministic mode; always
    /// 0 otherwise).  Each node's clock is advanced only from its own
    /// worker thread, so readings are a pure function of that node's
    /// execution and the seed.
    pub fn virtual_time_us(&self, node: usize) -> u64 {
        self.shard(node).virtual_nanos.load(Ordering::SeqCst) / 1_000
    }

    /// Advance `node`'s virtual clock by its seeded per-call tick and
    /// return the new time in microseconds.  The tick (1–8 µs) is derived
    /// from the cluster seed and the node id, standing in for the varying
    /// per-operation latencies a wall clock would show — but replayable.
    pub fn tick_virtual_clock(&self, node: usize) -> u64 {
        let tick_us =
            1 + (SplitMix64::new(self.inner.config.seed ^ ((node as u64) << 32)).next_u64() % 8);
        self.advance_virtual_clock(node, tick_us * 1_000);
        self.virtual_time_us(node)
    }

    fn advance_virtual_clock(&self, node: usize, nanos: u64) {
        self.shard(node)
            .virtual_nanos
            .fetch_add(nanos, Ordering::SeqCst);
    }

    /// A [`mojave_obs::ClockSource`] for `node`'s flight recorder: the
    /// seeded virtual clock in deterministic mode (reads never advance
    /// it, so observing cannot perturb the run), wall time otherwise.
    pub fn clock_source(&self, node: usize) -> std::sync::Arc<dyn mojave_obs::ClockSource> {
        if self.is_deterministic() {
            std::sync::Arc::new(VirtualClock {
                cluster: self.clone(),
                node,
            })
        } else {
            std::sync::Arc::new(mojave_obs::WallClock::new())
        }
    }

    // ------------------------------------------------------------------
    // Traffic accounting
    // ------------------------------------------------------------------

    /// Total bytes moved over the simulated network so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.bytes_in.load(Ordering::SeqCst))
            .sum()
    }

    /// Total simulated network time in microseconds.
    pub fn simulated_network_us(&self) -> f64 {
        let nanos: u64 = self
            .inner
            .shards
            .iter()
            .map(|s| s.sim_nanos_in.load(Ordering::SeqCst))
            .sum();
        nanos as f64 / 1_000.0
    }

    /// Number of point-to-point messages sent.
    pub fn messages_sent(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.messages_in.load(Ordering::SeqCst))
            .sum()
    }

    /// Point-to-point messages delivered **to** `node`'s shard — the
    /// per-shard counter behind [`Cluster::messages_sent`].
    pub fn node_messages_received(&self, node: usize) -> u64 {
        self.shard(node).messages_in.load(Ordering::SeqCst)
    }

    /// Bytes delivered **to** `node`'s shard (messages and inbound
    /// migrations) — the per-shard counter behind
    /// [`Cluster::bytes_transferred`].
    pub fn node_bytes_received(&self, node: usize) -> u64 {
        self.shard(node).bytes_in.load(Ordering::SeqCst)
    }
}

/// Deterministic nanosecond rounding of a modelled `f64` microsecond cost.
/// Integer per-shard accumulation keeps the global sum independent of
/// delivery interleaving (f64 addition is order-sensitive).
fn sim_nanos(us: f64) -> u64 {
    (us * 1_000.0).round() as u64
}

/// The migration server of paper §4.2.1: "a version of the compiler that will
/// Adapter exposing one node's seeded virtual clock as a
/// [`mojave_obs::ClockSource`].  Reading never advances the clock — only
/// the node's own externals calls tick it — so flight-recorder
/// timestamps are a pure function of the seed and cannot perturb replay.
struct VirtualClock {
    cluster: Cluster,
    node: usize,
}

impl std::fmt::Debug for VirtualClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualClock")
            .field("node", &self.node)
            .finish()
    }
}

impl mojave_obs::ClockSource for VirtualClock {
    fn now_us(&self) -> u64 {
        self.cluster.virtual_time_us(self.node)
    }
}

/// listen for incoming migration requests, recompile any inbound processes on
/// the new machine, and reconstruct their state before executing them."
#[derive(Debug, Clone)]
pub struct MigrationDaemon {
    cluster: Cluster,
    node: usize,
}

impl MigrationDaemon {
    /// A daemon serving `node`.
    pub fn new(cluster: Cluster, node: usize) -> Self {
        MigrationDaemon { cluster, node }
    }

    /// Unpack one pending inbound process into a runnable [`Process`] wired
    /// to this cluster (externals + sink), without running it.
    pub fn accept_one(&self, config: &ProcessConfig) -> Option<Result<Process, RuntimeError>> {
        let packed = self.cluster.pop_inbound(self.node)?;
        Some(self.build_process(&packed, config))
    }

    fn build_process(
        &self,
        packed: &PackedProcess,
        config: &ProcessConfig,
    ) -> Result<Process, RuntimeError> {
        let mut image = packed.image()?;
        // `migrate://` images are normally full, but if a delta arrives
        // (e.g. an image relayed straight out of the checkpoint store) the
        // daemon negotiates: resolve against the shared store's base copy,
        // or reject with a precise error if the base is gone.
        if let Some(base_name) = image.heap_image.base().map(str::to_owned) {
            let base = self.cluster.store().load_raw(&base_name)?;
            image = image.resolve_delta(&base)?;
        }
        let config = ProcessConfig {
            machine: mojave_core::Machine::new(self.cluster.arch(self.node)),
            ..config.clone()
        };
        let process = Process::from_image(image, config)?
            .with_externals(Box::new(crate::ClusterExternals::new(
                self.cluster.clone(),
                self.node,
            )))
            .with_sink(Box::new(crate::ClusterSink::new(
                self.cluster.clone(),
                self.node,
            )));
        Ok(process)
    }

    /// Accept and run every pending inbound process to completion.
    pub fn run_pending(&self, config: &ProcessConfig) -> Vec<Result<RunOutcome, RuntimeError>> {
        let mut outcomes = Vec::new();
        while let Some(result) = self.accept_one(config) {
            outcomes.push(result.and_then(|mut p| p.run()));
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_config_uses_one_arch() {
        let config = ClusterConfig::homogeneous(4, "ia32-sim");
        assert!(config.archs.iter().all(|a| a == "ia32-sim"));
        let cluster = Cluster::new(config);
        assert_eq!(cluster.arch(0), cluster.arch(3));
        // The default config alternates.
        let alternating = Cluster::new(ClusterConfig::new(4));
        assert_ne!(alternating.arch(0), alternating.arch(1));
    }

    #[test]
    fn send_recv_roundtrip() {
        let cluster = Cluster::new(ClusterConfig::new(3));
        cluster.send(0, 1, 42, vec![1.0, 2.0, 3.0]);
        match cluster.recv(1, 0, 42) {
            RecvOutcome::Data(d) => assert_eq!(d, vec![1.0, 2.0, 3.0]),
            other => panic!("expected data, got {other:?}"),
        }
        assert_eq!(cluster.messages_sent(), 1);
        assert!(cluster.bytes_transferred() > 24);
        // The delivery landed on the receiver's shard.
        assert_eq!(cluster.node_messages_received(1), 1);
        assert_eq!(cluster.node_messages_received(0), 0);
    }

    #[test]
    fn recv_from_failed_peer_reports_msg_roll() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        cluster.fail_node(0);
        assert_eq!(cluster.recv(1, 0, 7), RecvOutcome::PeerFailed);
        // Wall-clock mode keeps reporting it (the receiver spins on
        // rollbacks until the peer comes back).
        assert_eq!(cluster.recv(1, 0, 7), RecvOutcome::PeerFailed);
        cluster.revive_node(0);
        assert_eq!(cluster.status(0), NodeStatus::Alive);
    }

    #[test]
    fn failure_epochs_count_transitions_and_are_idempotent() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        assert_eq!(cluster.failure_epoch(0), 0);
        cluster.fail_node(0);
        cluster.fail_node(0); // no-op
        assert_eq!(cluster.failure_epoch(0), 1);
        cluster.revive_node(0);
        cluster.revive_node(0); // no-op
        assert_eq!(cluster.failure_epoch(0), 2);
        cluster.fail_node(0);
        assert_eq!(cluster.failure_epoch(0), 3);
        assert!(cluster.is_failed(0));
    }

    /// A `recv` that is expected to hit the deterministic deadlock safety
    /// net: asserts it panics (loudly, naming the edge) instead of
    /// returning a `Timeout` the program could act on.
    fn assert_deterministic_deadlock(cluster: &Cluster, to: usize, from: usize, tag: i64) {
        let c = cluster.clone();
        let panic_payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || c.recv(to, from, tag)))
                .expect_err("deterministic recv must panic on the deadlock safety net");
        let message = panic_payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains(&format!("recv(to={to}, from={from}, tag={tag})")),
            "diagnostic must name the stalled edge: {message}"
        );
    }

    #[test]
    fn deterministic_recv_reports_each_failure_epoch_once() {
        let mut config = ClusterConfig::deterministic(2, 7);
        config.recv_timeout = Duration::from_millis(50);
        let cluster = Cluster::new(config);
        cluster.fail_node(0);
        // First observation of the failure: MSG_ROLL.
        assert_eq!(cluster.recv(1, 0, 7), RecvOutcome::PeerFailed);
        // Re-read after the rollback: blocks; hitting the wall-clock
        // safety net is a loud deadlock diagnostic, never a Timeout the
        // replay could act on.
        assert_deterministic_deadlock(&cluster, 1, 0, 7);
        // A revival plus re-send delivers the data to the blocked reader —
        // the roll for this failure was already observed, so no second
        // MSG_ROLL, on this tag or any other tag the resurrected sender
        // produces.
        cluster.revive_node(0);
        cluster.send(0, 1, 7, vec![4.25]);
        assert_eq!(cluster.recv(1, 0, 7), RecvOutcome::Data(vec![4.25]));
        cluster.send(0, 1, 9, vec![1.5]);
        assert_eq!(cluster.recv(1, 0, 9), RecvOutcome::Data(vec![1.5]));
        // A *second* failure is a new epoch: reported once again.
        cluster.fail_node(0);
        assert_eq!(cluster.recv(1, 0, 8), RecvOutcome::PeerFailed);
        assert_deterministic_deadlock(&cluster, 1, 0, 8);
    }

    #[test]
    fn deterministic_taint_reports_a_missed_failure_window() {
        // The receiver never catches the sender in the failed state, but
        // the first payload produced by the post-failure incarnation still
        // delivers exactly one MSG_ROLL — so the receiver's rollback point
        // is a function of the data, not of scheduling.
        let mut config = ClusterConfig::deterministic(2, 11);
        config.recv_timeout = Duration::from_millis(50);
        let cluster = Cluster::new(config);
        cluster.send(0, 1, 1, vec![1.0]);
        assert_eq!(cluster.recv(1, 0, 1), RecvOutcome::Data(vec![1.0]));
        cluster.fail_node(0);
        cluster.revive_node(0);
        cluster.send(0, 1, 2, vec![2.0]);
        assert_eq!(cluster.recv(1, 0, 2), RecvOutcome::PeerFailed);
        assert_eq!(cluster.recv(1, 0, 2), RecvOutcome::Data(vec![2.0]));
        // Pre-failure payloads stay clean on re-read.
        assert_eq!(cluster.recv(1, 0, 1), RecvOutcome::Data(vec![1.0]));
    }

    #[test]
    fn recv_times_out_when_nothing_arrives() {
        let mut config = ClusterConfig::new(2);
        config.recv_timeout = Duration::from_millis(30);
        let cluster = Cluster::new(config);
        let start = Instant::now();
        assert_eq!(cluster.recv(1, 0, 1), RecvOutcome::Timeout);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn messages_are_logged_per_tag_and_rereadable() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        cluster.send(0, 1, 5, vec![1.0]);
        cluster.send(0, 1, 6, vec![9.0]);
        assert_eq!(cluster.recv(1, 0, 6), RecvOutcome::Data(vec![9.0]));
        assert_eq!(cluster.recv(1, 0, 5), RecvOutcome::Data(vec![1.0]));
        // A rolled-back receiver can read the same tag again; a re-send after
        // a rollback overwrites the logged copy.
        assert_eq!(cluster.recv(1, 0, 5), RecvOutcome::Data(vec![1.0]));
        cluster.send(0, 1, 5, vec![1.0]);
        assert_eq!(cluster.recv(1, 0, 5), RecvOutcome::Data(vec![1.0]));
    }

    #[test]
    fn inbound_queue_respects_failure() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        let packed = PackedProcess {
            protocol: mojave_fir::MigrateProtocol::Migrate,
            target: "node1".into(),
            bytes: vec![1, 2, 3],
        };
        assert!(cluster.push_inbound(1, packed.clone()));
        cluster.fail_node(1);
        assert!(!cluster.push_inbound(1, packed.clone()));
        assert!(!cluster.push_inbound(9, packed));
        assert!(cluster.pop_inbound(1).is_some());
        assert!(cluster.pop_inbound(1).is_none());
    }

    #[test]
    fn cross_thread_send_recv() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        let c2 = cluster.clone();
        let handle = std::thread::spawn(move || {
            c2.send(0, 1, 99, vec![3.5]);
        });
        assert_eq!(cluster.recv(1, 0, 99), RecvOutcome::Data(vec![3.5]));
        handle.join().unwrap();
    }

    #[test]
    fn scheduled_failure_fires_inside_the_matching_checkpoint() {
        let cluster = Cluster::new(ClusterConfig::deterministic(2, 3));
        cluster.schedule_failure(1, 2);
        cluster.note_checkpoint(1);
        assert!(!cluster.is_failed(1), "first checkpoint must not trigger");
        cluster.note_checkpoint(0); // other nodes never trigger
        assert!(!cluster.is_failed(1));
        cluster.note_checkpoint(1);
        assert!(cluster.is_failed(1), "second checkpoint fires the schedule");
        assert_eq!(cluster.checkpoints_delivered(1), 2);
        assert_eq!(cluster.checkpoints_delivered(0), 1);
    }

    #[test]
    fn wait_for_node_checkpoints_blocks_until_delivery() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        // Already satisfied: returns immediately.
        assert!(cluster.wait_for_node_checkpoints(0, 0, Duration::from_millis(1)));
        // Not satisfied in time: returns false.
        assert!(!cluster.wait_for_node_checkpoints(0, 1, Duration::from_millis(20)));
        // Satisfied by a concurrent delivery: wakes without polling.
        let c2 = cluster.clone();
        let handle = std::thread::spawn(move || c2.note_checkpoint(0));
        assert!(cluster.wait_for_node_checkpoints(0, 1, Duration::from_secs(10)));
        handle.join().unwrap();
    }

    #[test]
    fn virtual_clock_is_seeded_and_replayable() {
        let a = Cluster::new(ClusterConfig::deterministic(2, 42));
        let b = Cluster::new(ClusterConfig::deterministic(2, 42));
        let seq_a: Vec<u64> = (0..5).map(|_| a.tick_virtual_clock(0)).collect();
        let seq_b: Vec<u64> = (0..5).map(|_| b.tick_virtual_clock(0)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same virtual time");
        assert!(seq_a.windows(2).all(|w| w[0] < w[1]), "clock is monotonic");
        // A different seed gives a different schedule (with overwhelming
        // probability for these seeds).
        let c = Cluster::new(ClusterConfig::deterministic(2, 43));
        let seq_c: Vec<u64> = (0..5).map(|_| c.tick_virtual_clock(0)).collect();
        assert_ne!(seq_a, seq_c);
        // Sends advance the sender's clock by the modelled transfer time.
        let before = a.virtual_time_us(0);
        a.send(0, 1, 1, vec![0.0; 128]);
        assert!(a.virtual_time_us(0) > before);
        // Outside deterministic mode the virtual clock stays at zero.
        let wall = Cluster::new(ClusterConfig::new(2));
        wall.send(0, 1, 1, vec![0.0]);
        assert_eq!(wall.virtual_time_us(0), 0);
    }

    #[test]
    fn per_shard_counters_sum_to_totals() {
        let cluster = Cluster::new(ClusterConfig::new(4));
        cluster.send(0, 1, 1, vec![1.0]);
        cluster.send(2, 3, 1, vec![1.0, 2.0]);
        cluster.send(3, 2, 1, vec![]);
        let per_shard: u64 = (0..4).map(|n| cluster.node_messages_received(n)).sum();
        assert_eq!(per_shard, cluster.messages_sent());
        let per_shard_bytes: u64 = (0..4).map(|n| cluster.node_bytes_received(n)).sum();
        assert_eq!(per_shard_bytes, cluster.bytes_transferred());
        assert!(cluster.simulated_network_us() > 0.0);
    }
}
