//! Direct coverage of the asynchronous checkpoint **pending-fingerprint
//! fallback** paths.
//!
//! On the async path the process declares a new delta base *at the
//! freeze*: the base's fingerprint is not known until the deferred
//! encoder runs, so a shared `OnceLock` slot stands in for it.  The
//! negotiation in the run loop must then behave as follows:
//!
//! * while the slot is empty (the worker has not encoded the base yet),
//!   every subsequent checkpoint falls back to a **full** image — more
//!   bytes, never a wrong delta;
//! * once the slot is filled, deltas require `has_base` to confirm the
//!   sink still holds the base — a failed base delivery therefore keeps
//!   the process on full images until a later full checkpoint lands;
//! * a full checkpoint becomes the base only once its delivery answers
//!   `Stored`: after a failed one the process keeps the previous base,
//!   which the store still holds, synchronous and drained asynchronous
//!   checkpoints alike.
//!
//! The integration-level twin of these tests lives in the fuzz harness's
//! async mode; here each path is pinned directly with purpose-built
//! sinks.

use mojave_core::{
    BackendKind, CheckpointStore, DeliveryOutcome, InMemorySink, MigrationImage, MigrationSink,
    Process, ProcessConfig, RunOutcome, SnapshotPack,
};
use mojave_fir::builder::{term, ProgramBuilder};
use mojave_fir::{Atom, Binop, MigrateProtocol, Program, Ty};
use mojave_heap::HeapConfig;
use std::sync::{Arc, Mutex};

/// `loop(i, acc): if i >= 3 halt acc else checkpoint("ck-<n>"),
/// continue (i+1, acc+i)` — three checkpoints, exit 3.  `n` is `i`
/// (rotating names), or with `repeat_first` `i * (i - 1)`: ck-0, ck-0,
/// ck-2, so the second checkpoint rewrites its base's name and is a full
/// image.
fn three_checkpoint_program(repeat_first: bool) -> Program {
    let mut pb = ProgramBuilder::new();
    let (looper, params) = pb.declare("loop", &[("i", Ty::Int), ("acc", Ty::Int)]);
    let i = params[0];
    let acc = params[1];
    let label = pb.label();
    let mut b = pb.block();
    let done = b.binop("done", Binop::Ge, i, Atom::Int(3));
    let next_i = b.binop("next_i", Binop::Add, i, Atom::Int(1));
    let next_acc = b.binop("next_acc", Binop::Add, acc, i);
    let n = if repeat_first {
        let prev = b.binop("prev", Binop::Sub, i, Atom::Int(1));
        b.binop("n", Binop::Mul, i, prev)
    } else {
        i
    };
    let istr = b.ext("istr", Ty::Str, "int_to_str", vec![Atom::Var(n)]);
    let name = b.ext(
        "name",
        Ty::Str,
        "str_concat",
        vec![Atom::Str("checkpoint://ck-".into()), Atom::Var(istr)],
    );
    let body = b.finish(term::branch(
        done,
        term::halt(acc),
        term::migrate(
            label,
            Atom::Var(name),
            looper,
            vec![Atom::Var(next_i), Atom::Var(next_acc)],
        ),
    ));
    pb.define(looper, body);
    let (main, _) = pb.declare("main", &[]);
    pb.define(main, term::call(looper, vec![Atom::Int(0), Atom::Int(0)]));
    pb.set_entry(main);
    pb.finish()
}

fn async_delta_config() -> ProcessConfig {
    ProcessConfig {
        backend: BackendKind::Bytecode,
        async_checkpoints: true,
        delta_checkpoints: true,
        ..ProcessConfig::default()
    }
}

/// A sink that accepts deferred checkpoints but only encodes them at
/// `flush` — the extreme backlog: no fingerprint slot is ever filled
/// while the mutator is still running.
struct BackloggedSink {
    queue: Vec<(String, SnapshotPack)>,
    store: CheckpointStore,
}

impl MigrationSink for BackloggedSink {
    fn deliver(
        &mut self,
        _protocol: MigrateProtocol,
        target: &str,
        image: &MigrationImage,
    ) -> DeliveryOutcome {
        self.store.put(target, image.to_bytes());
        DeliveryOutcome::Stored
    }

    fn has_base(&self, base: &str, base_fingerprint: u64) -> bool {
        self.store.heap_fingerprint(base) == Some(base_fingerprint)
    }

    fn deliver_deferred(
        &mut self,
        _protocol: MigrateProtocol,
        target: &str,
        pack: SnapshotPack,
    ) -> DeliveryOutcome {
        self.queue.push((target.to_owned(), pack));
        DeliveryOutcome::Stored
    }

    fn flush(&mut self) {
        for (target, pack) in self.queue.drain(..) {
            let image = pack.into_image().expect("backlogged pack encodes");
            self.store.put(&target, image.to_bytes());
        }
    }
}

#[test]
fn empty_pending_slot_falls_back_to_full_images() {
    // The worker never encodes before the run ends, so the base
    // fingerprint stays pending at every negotiation: all three
    // checkpoints must be full images even though deltas are enabled.
    let store = CheckpointStore::new();
    let mut p = Process::new(three_checkpoint_program(false), async_delta_config())
        .unwrap()
        .with_sink(Box::new(BackloggedSink {
            queue: Vec::new(),
            store: store.clone(),
        }));
    assert_eq!(p.run().unwrap(), RunOutcome::Exit(3));
    let stats = p.stats();
    assert_eq!(stats.checkpoints, 3);
    assert_eq!(
        stats.delta_checkpoints, 0,
        "a pending fingerprint must never negotiate a delta"
    );

    // `Process::run` flushes the sink on the way out, so the backlog has
    // landed: three full, individually resumable images.
    assert_eq!(store.len(), 3);
    for name in store.names() {
        let raw = store.load_raw(&name).unwrap();
        assert!(!raw.heap_image.is_delta(), "{name} must be full");
        let mut resumed =
            Process::from_image(store.load(&name).unwrap(), ProcessConfig::default()).unwrap();
        assert_eq!(resumed.run().unwrap(), RunOutcome::Exit(3), "{name}");
    }
}

/// A sink that encodes each deferred checkpoint immediately (filling the
/// pending fingerprint slot, like a drained pipeline worker) and can be
/// told to fail specific deliveries, deferred or not, by index.
struct EagerSink {
    store: CheckpointStore,
    fail: Vec<usize>,
    seen: usize,
    failures: Arc<Mutex<Vec<String>>>,
}

impl MigrationSink for EagerSink {
    fn deliver(
        &mut self,
        _protocol: MigrateProtocol,
        target: &str,
        image: &MigrationImage,
    ) -> DeliveryOutcome {
        let index = self.seen;
        self.seen += 1;
        if self.fail.contains(&index) {
            self.failures.lock().unwrap().push(target.to_owned());
            return DeliveryOutcome::Failed(format!("injected failure for {target}"));
        }
        self.store.put(target, image.to_bytes());
        DeliveryOutcome::Stored
    }

    fn has_base(&self, base: &str, base_fingerprint: u64) -> bool {
        self.store.heap_fingerprint(base) == Some(base_fingerprint)
    }

    fn deliver_deferred(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        pack: SnapshotPack,
    ) -> DeliveryOutcome {
        // Encoding fills the pack's fingerprint slot *before* the
        // delivery outcome is known — exactly like the pipeline worker.
        let image = pack.into_image().expect("deferred pack encodes");
        self.deliver(protocol, target, &image)
    }
}

#[test]
fn filled_pending_slot_negotiates_deltas() {
    // With an eager worker the first checkpoint pins the base and every
    // later one deltas against it — the async twin of the synchronous
    // delta chain.
    let store = CheckpointStore::new();
    let mut p = Process::new(three_checkpoint_program(false), async_delta_config())
        .unwrap()
        .with_sink(Box::new(EagerSink {
            store: store.clone(),
            fail: Vec::new(),
            seen: 0,
            failures: Arc::new(Mutex::new(Vec::new())),
        }));
    assert_eq!(p.run().unwrap(), RunOutcome::Exit(3));
    let stats = p.stats();
    assert_eq!(stats.checkpoints, 3);
    assert_eq!(stats.delta_checkpoints, 2);
    for (name, delta) in [("ck-0", false), ("ck-1", true), ("ck-2", true)] {
        let raw = store.load_raw(name).unwrap();
        assert_eq!(raw.heap_image.is_delta(), delta, "{name}");
        assert_eq!(raw.heap_image.base().is_some(), delta, "{name}");
        // Delta chains resolve through the store into resumable images.
        let mut resumed =
            Process::from_image(store.load(name).unwrap(), ProcessConfig::default()).unwrap();
        assert_eq!(resumed.run().unwrap(), RunOutcome::Exit(3), "{name}");
    }
}

#[test]
fn failed_base_delivery_keeps_the_process_on_full_images() {
    // The first (would-be base) delivery fails after its fingerprint slot
    // was filled.  `has_base` then answers false — the name never landed —
    // so the next checkpoint is a *full* image again, which becomes the
    // new base; only then do deltas resume.  At no point is a delta
    // emitted against a base the sink does not hold.
    let store = CheckpointStore::new();
    let failures = Arc::new(Mutex::new(Vec::new()));
    let mut p = Process::new(three_checkpoint_program(false), async_delta_config())
        .unwrap()
        .with_sink(Box::new(EagerSink {
            store: store.clone(),
            fail: vec![0],
            seen: 0,
            failures: Arc::clone(&failures),
        }));
    assert_eq!(p.run().unwrap(), RunOutcome::Exit(3));
    let stats = p.stats();
    assert_eq!(failures.lock().unwrap().as_slice(), ["ck-0"]);
    assert_eq!(stats.migration_failures, 1);
    assert_eq!(stats.checkpoints, 2, "the failed delivery does not count");
    assert_eq!(
        stats.delta_checkpoints, 1,
        "ck-1 renegotiates a full base, ck-2 deltas against it"
    );
    assert!(store.load_raw("ck-0").is_err(), "ck-0 never landed");
    assert!(!store.load_raw("ck-1").unwrap().heap_image.is_delta());
    let ck2 = store.load_raw("ck-2").unwrap();
    assert!(ck2.heap_image.is_delta());
    assert_eq!(ck2.heap_image.base(), Some("ck-1"));
    for name in ["ck-1", "ck-2"] {
        let mut resumed =
            Process::from_image(store.load(name).unwrap(), ProcessConfig::default()).unwrap();
        assert_eq!(resumed.run().unwrap(), RunOutcome::Exit(3), "{name}");
    }
}

/// Run the ck-0, ck-0, ck-2 program under `config` with deltas on and the
/// second delivery failing: that checkpoint rewrites its base's name, so
/// it is a full image, and it never lands.  Then check that the process
/// kept ck-0 as its base: ck-2 is a delta against it, and
/// [`CheckpointStore::load`] resolves it to the heap a run without deltas
/// stores under ck-2.
fn failed_full_delivery_keeps_the_stored_base(config: ProcessConfig) {
    let store = CheckpointStore::new();
    let failures = Arc::new(Mutex::new(Vec::new()));
    let delta_config = ProcessConfig {
        delta_checkpoints: true,
        ..config.clone()
    };
    let mut p = Process::new(three_checkpoint_program(true), delta_config)
        .unwrap()
        .with_sink(Box::new(EagerSink {
            store: store.clone(),
            fail: vec![1],
            seen: 0,
            failures: Arc::clone(&failures),
        }));
    assert_eq!(p.run().unwrap(), RunOutcome::Exit(3));
    let stats = p.stats();
    assert_eq!(failures.lock().unwrap().as_slice(), ["ck-0"]);
    assert_eq!(stats.migration_failures, 1);
    assert_eq!(stats.checkpoints, 2, "the failed delivery does not count");
    assert_eq!(stats.delta_checkpoints, 1, "ck-2 deltas against ck-0");
    assert!(!store.load_raw("ck-0").unwrap().heap_image.is_delta());
    let ck2 = store.load_raw("ck-2").unwrap();
    assert_eq!(ck2.heap_image.base(), Some("ck-0"));

    // The reference: the same run with deltas off stores ck-2 in full.
    let reference = CheckpointStore::new();
    let mut r = Process::new(three_checkpoint_program(true), config)
        .unwrap()
        .with_sink(Box::new(InMemorySink::with_store(reference.clone())));
    assert_eq!(r.run().unwrap(), RunOutcome::Exit(3));
    let want = reference.load("ck-2").unwrap();
    assert!(!want.heap_image.is_delta());
    let want = want.decode_heap(HeapConfig::default()).unwrap();

    let resolved = store.load("ck-2").unwrap();
    let got = resolved.decode_heap(HeapConfig::default()).unwrap();
    assert_eq!(got.snapshot(), want.snapshot());
    let mut resumed = Process::from_image(resolved, ProcessConfig::default()).unwrap();
    assert_eq!(resumed.run().unwrap(), RunOutcome::Exit(3));
}

#[test]
fn a_failed_synchronous_full_delivery_keeps_the_previous_base() {
    failed_full_delivery_keeps_the_stored_base(ProcessConfig {
        backend: BackendKind::Bytecode,
        ..ProcessConfig::default()
    });
}

#[test]
fn a_failed_drained_asynchronous_full_delivery_keeps_the_previous_base() {
    // The base becomes the failed name only if its delivery answers
    // `Stored`; a drained pipeline reports the real outcome, so the
    // process goes on with ck-0, exactly as a synchronous one does.
    failed_full_delivery_keeps_the_stored_base(ProcessConfig {
        backend: BackendKind::Bytecode,
        async_checkpoints: true,
        ..ProcessConfig::default()
    });
}
