//! Concurrency tests for the sharded cluster state: disjoint-pair
//! send/recv storms with per-shard counter cross-checks, and
//! condvar-driven receive wakeups — none of which use a single sleep.

use mojave_cluster::{Cluster, ClusterConfig, RecvOutcome};
use std::sync::Barrier;
use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc,
};
use std::thread;
use std::time::{Duration, Instant};

/// N threads of senders and N of receivers hammer disjoint node pairs
/// concurrently; every shard's counter must account for exactly its own
/// pair's traffic and the lock-free global counters must equal the
/// per-shard sums.
#[test]
fn disjoint_pair_storm_cross_checks_per_shard_counters() {
    let pairs = 8;
    let per_pair = 250u64;
    let tags = 16i64; // bounded tag space: re-sends overwrite, like rollbacks do
    let cluster = Cluster::new(ClusterConfig::homogeneous(2 * pairs, "ia32-sim"));
    let received = Arc::new(AtomicU64::new(0));

    let start = Arc::new(Barrier::new(2 * pairs));
    let mut handles = Vec::new();
    for pair in 0..pairs {
        let (sender, receiver) = (2 * pair, 2 * pair + 1);
        let c = cluster.clone();
        let barrier = start.clone();
        handles.push(thread::spawn(move || {
            barrier.wait();
            for i in 0..per_pair {
                c.send(sender, receiver, (i as i64) % tags, vec![i as f64]);
            }
        }));
        let c = cluster.clone();
        let barrier = start.clone();
        let received = received.clone();
        handles.push(thread::spawn(move || {
            barrier.wait();
            // Read every tag; recv blocks on the shard condvar until the
            // sender has logged something under the tag.
            for tag in 0..tags {
                match c.recv(receiver, sender, tag) {
                    RecvOutcome::Data(_) => {
                        received.fetch_add(1, Ordering::SeqCst);
                    }
                    other => panic!("pair {pair} tag {tag}: expected data, got {other:?}"),
                }
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }

    assert_eq!(
        received.load(Ordering::SeqCst),
        (pairs as u64) * tags as u64
    );
    // Per-shard counters: each receiver shard saw exactly its pair's
    // messages, each sender shard none.
    for pair in 0..pairs {
        assert_eq!(cluster.node_messages_received(2 * pair), 0);
        assert_eq!(cluster.node_messages_received(2 * pair + 1), per_pair);
    }
    // The global counters are the per-shard sums, exactly.
    let shard_sum: u64 = (0..2 * pairs)
        .map(|n| cluster.node_messages_received(n))
        .sum();
    assert_eq!(shard_sum, cluster.messages_sent());
    assert_eq!(cluster.messages_sent(), pairs as u64 * per_pair);
    let byte_sum: u64 = (0..2 * pairs).map(|n| cluster.node_bytes_received(n)).sum();
    assert_eq!(byte_sum, cluster.bytes_transferred());
}

/// All senders target one node: the contended shard's counter equals the
/// total while every other shard stays untouched (and nothing deadlocks).
#[test]
fn contended_single_shard_storm_counts_exactly() {
    let senders = 8;
    let per_sender = 200u64;
    let cluster = Cluster::new(ClusterConfig::homogeneous(senders + 1, "ia32-sim"));
    let target = senders; // the last node
    let handles: Vec<_> = (0..senders)
        .map(|s| {
            let c = cluster.clone();
            thread::spawn(move || {
                for i in 0..per_sender {
                    // Distinct tag space per sender: no overwrites between
                    // senders, maximal map churn under one shard lock.
                    c.send(s, target, (s as i64) << 32 | i as i64, vec![i as f64]);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(
        cluster.node_messages_received(target),
        senders as u64 * per_sender
    );
    for s in 0..senders {
        assert_eq!(cluster.node_messages_received(s), 0);
    }
    assert_eq!(cluster.messages_sent(), senders as u64 * per_sender);
}

/// A receiver blocked in `recv` is woken by the send's condvar notify —
/// proven by timing against the (generous) timeout, with no sleeps
/// anywhere: if wakeups were poll-driven or lost, the receive would burn
/// its full 30-second timeout and the assertion below would catch it.
#[test]
fn recv_blocks_until_send_wakes_it_without_sleeping() {
    let cluster = Cluster::new(ClusterConfig::homogeneous(2, "ia32-sim"));

    let barrier = Arc::new(Barrier::new(2));
    let receiver = {
        let cluster = cluster.clone();
        let barrier = barrier.clone();
        thread::spawn(move || {
            barrier.wait();
            let start = Instant::now();
            let outcome = cluster.recv(1, 0, 7);
            (outcome, start.elapsed())
        })
    };
    barrier.wait();
    cluster.send(0, 1, 7, vec![2.5]);
    let (outcome, waited) = receiver.join().unwrap();
    assert_eq!(outcome, RecvOutcome::Data(vec![2.5]));
    assert!(
        waited < Duration::from_secs(10),
        "recv took {waited:?}: wakeup must be event-driven, not timeout-driven"
    );
}

/// Failure and revival notifications reach receivers blocked on *other*
/// shards: a receiver waiting for a message from a node that then fails
/// observes `PeerFailed` promptly instead of timing out.
#[test]
fn fail_node_wakes_receivers_blocked_on_other_shards() {
    let cluster = Cluster::new(ClusterConfig::homogeneous(3, "ia32-sim"));
    let barrier = Arc::new(Barrier::new(2));
    let receiver = {
        let cluster = cluster.clone();
        let barrier = barrier.clone();
        thread::spawn(move || {
            barrier.wait();
            let start = Instant::now();
            let outcome = cluster.recv(2, 0, 1);
            (outcome, start.elapsed())
        })
    };
    barrier.wait();
    cluster.fail_node(0);
    let (outcome, waited) = receiver.join().unwrap();
    assert_eq!(outcome, RecvOutcome::PeerFailed);
    assert!(
        waited < Duration::from_secs(10),
        "failure observation took {waited:?}: must be event-driven"
    );
}
