//! Behaviour pins for the bytecode VM.
//!
//! For a fixed set of programs — the repository's example programs plus
//! fuzz-generator programs from fixed seeds — the table below records what
//! the bytecode back end did **before** the VM loop was rewritten to run
//! without allocating (PR 15): executed steps, exit value, printed output,
//! and a fingerprint of every image the run packed.  The rewrite must not
//! move any of them: one step per executed instruction, and — because the
//! programs run under a tiny heap so collections happen mid-run — the same
//! GC root set at every collection (a stale register kept as a root would
//! keep a dead block's pointer-table index alive and shift every later
//! image byte).
//!
//! Each program is also run as a chain of real migrations — every
//! `migrate(…)` site ships the FIR image through bytes and resumes in a
//! fresh process, which recompiles it; the chain must reach the plain
//! run's totals.
//!
//! A second table pins what a step budget stops: for five of the programs,
//! every budget (or every 101st, for the long ones) is run to its outcome,
//! and one fingerprint covers each budget's result, steps, output,
//! collections and live bytes.  It was recorded before the VM ran fused
//! instruction pairs, which must charge the steps of the instructions they
//! stand for and stop between the two halves where the budget says so.

use mojave_core::rng::SplitMix64;
use mojave_core::{
    CheckpointStore, DeliveryOutcome, InMemorySink, MigrationImage, MigrationSink, Process,
    ProcessConfig, RunOutcome,
};
use mojave_fir::{MigrateProtocol, Program};
use mojave_fuzz::mutate::below;
use mojave_heap::HeapConfig;
use mojave_wire::{fingerprint, CodecSet};
use std::sync::{Arc, Mutex};

const QUICKSTART: &str = r#"
    int main() {
        int n = 10;
        int total = 0;
        int specid = speculate();
        for (int i = 0; i < n; i = i + 1) {
            total = total + i * i;
            if (i == 5) {
                commit(specid);
                checkpoint("quickstart-halfway");
                specid = speculate();
            }
        }
        commit(specid);
        print_str("total:");
        print_int(total);
        return total;
    }
"#;

const MIGRATION_CLUSTER: &str = r#"
    int weigh(int n) {
        int acc = 0;
        for (int i = 1; i <= n; i = i + 1) { acc = acc + i * i; }
        return acc;
    }
    int main() {
        int before = weigh(50);
        print_str("computed the first half; migrating to node1");
        migrate("node1");
        int after = weigh(25);
        print_str("finished the second half");
        return before + after;
    }
"#;

const BUFFER_OVERFLOW_RX: &str = r#"
    int main() {
        int n = 100;
        int guess = 16;
        int filled = 0;
        int attempts = 0;
        int specid = speculate();
        int capacity = guess;
        if (specid == 0) { capacity = n; }
        attempts = attempts + 1;
        buffer data = alloc_buffer(capacity);
        int ok = 1;
        for (int i = 0; i < n; i = i + 1) {
            if (i >= capacity) {
                if (specid > 0) { abort(specid); }
                ok = 0;
            }
            if (ok == 1) { poke(data, i, i % 256); }
        }
        if (specid > 0) { commit(specid); }
        for (int i = 0; i < capacity; i = i + 1) {
            if (i < n) { filled = filled + 1; }
        }
        print_str("bytes filled:");
        print_int(filled);
        print_str("attempts:");
        print_int(attempts);
        return filled;
    }
"#;

const SMOKE: &str = r#"
    int main() {
        int acc = 0;
        int id = speculate();
        if (id > 0) {
            commit(id);
            for (int i = 1; i <= 4; i = i + 1) { acc = acc + i * i; }
            checkpoint("mid");
            return acc + 12;
        }
        return 0;
    }
"#;

/// Allocation-heavy: string temporaries and short-lived arrays die every
/// iteration, so the tiny heap collects many times with closures, loop
/// state and call continuations in registers.
const CHURN: &str = r#"
    int fold(int[] xs, int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) { acc = acc * 31 + xs[i]; }
        return acc;
    }
    int main() {
        int h = 7;
        for (int round = 0; round < 40; round = round + 1) {
            int[] xs = alloc_int(8);
            for (int i = 0; i < 8; i = i + 1) { xs[i] = round * i + h % 13; }
            h = h * 17 + fold(xs, 8);
            if (round % 10 == 9) {
                checkpoint(str_concat("churn-", int_to_str(round)));
                print_int(h);
            }
            if (round == 19) { migrate("elsewhere"); }
        }
        return h;
    }
"#;

/// What one execution (plain, or summed over a migration chain) did.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Totals {
    steps: u64,
    exit: i64,
    output: Vec<String>,
}

/// Accepts every migration by capturing the image bytes, stores
/// checkpoints, and folds every delivered image into one fingerprint.
struct CaptureSink {
    inner: InMemorySink,
    accept_migrations: bool,
    migrated: Arc<Mutex<Option<Vec<u8>>>>,
    images: Arc<Mutex<Vec<u8>>>,
}

impl MigrationSink for CaptureSink {
    fn deliver(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        image: &MigrationImage,
    ) -> DeliveryOutcome {
        let bytes = image.to_bytes();
        self.images
            .lock()
            .expect("images lock")
            .extend_from_slice(&fingerprint(&bytes).to_le_bytes());
        if protocol == MigrateProtocol::Migrate && self.accept_migrations {
            *self.migrated.lock().expect("capture lock") = Some(bytes);
            DeliveryOutcome::Migrated
        } else {
            self.inner.deliver(protocol, target, image)
        }
    }

    fn has_base(&self, base: &str, base_fingerprint: u64) -> bool {
        self.inner.has_base(base, base_fingerprint)
    }

    fn accepted_codecs(&self) -> CodecSet {
        CodecSet::all()
    }
}

fn config() -> ProcessConfig {
    ProcessConfig {
        step_budget: Some(10_000_000),
        heap: HeapConfig {
            minor_threshold_bytes: 256,
            major_threshold_bytes: 4 * 1024,
            ..HeapConfig::default()
        },
        ..ProcessConfig::default()
    }
}

/// Run `program` to its exit, resuming through bytes at every accepted
/// migration.  Returns the totals over all segments and the fingerprint of
/// every image the run delivered, in order, and the collections it ran.
fn run(program: &Program, accept_migrations: bool) -> (Totals, u64, u64) {
    let config = config();
    let migrated = Arc::new(Mutex::new(None));
    let images = Arc::new(Mutex::new(Vec::new()));
    let sink = || {
        Box::new(CaptureSink {
            inner: InMemorySink::with_store(CheckpointStore::new()),
            accept_migrations,
            migrated: Arc::clone(&migrated),
            images: Arc::clone(&images),
        })
    };
    let mut p = Process::new(program.clone(), config.clone())
        .expect("program verifies")
        .with_sink(sink());
    let mut totals = Totals {
        steps: 0,
        exit: 0,
        output: Vec::new(),
    };
    let mut collections = 0;
    for _segment in 0..64 {
        let outcome = p.run().expect("program runs");
        totals.steps += p.stats().steps;
        let heap = p.heap().stats();
        collections += heap.minor_collections + heap.major_collections;
        totals.output.extend_from_slice(p.output());
        match outcome {
            RunOutcome::Exit(v) => {
                totals.exit = v;
                let fp = fingerprint(&images.lock().expect("images lock"));
                return (totals, fp, collections);
            }
            RunOutcome::MigratedAway { .. } => {
                let bytes = migrated
                    .lock()
                    .expect("capture lock")
                    .take()
                    .expect("a migration was captured");
                let image = MigrationImage::from_bytes(&bytes).expect("image decodes");
                p = Process::from_image(image, config.clone())
                    .expect("image resumes")
                    .with_sink(sink());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    panic!("still migrating after 64 segments");
}

fn fuzz_program(seed: u64) -> String {
    let mut rng = SplitMix64::new(seed);
    let tape: Vec<u32> = (0..mojave_fuzz::MAX_TAPE)
        .map(|_| below(&mut rng, 1_000_000) as u32)
        .collect();
    mojave_fuzz::generate_program(&tape)
}

/// `(program, steps, exit, printed lines, output fingerprint, collections,
/// FIR-chain image fingerprint)`.
type Pin = (&'static str, u64, i64, usize, u64, u64, u64);

/// Recorded on commit e849cc9 (the parent of the VM rewrite).  The
/// image-fingerprint column was re-recorded when the `BitPack` word codec
/// joined the per-slab choice (it wins some payload slabs, which changes
/// image bytes by design).  Steps, exit and output are the original
/// recording.  The collections of fuzz-2, 3 and 6–10, and the image
/// fingerprints of fuzz-7 and fuzz-10, were re-recorded when a
/// copy-on-write clone of an old block stopped counting as young bytes:
/// each of those runs clones old blocks inside speculation levels, and
/// no longer runs the minor collections those clones made due.
const PINS: &[Pin] = &[
    (
        "quickstart",
        340,
        285,
        2,
        2_976_469_528_843_563_422,
        1,
        16_030_706_101_639_846_405,
    ),
    (
        "migration_cluster",
        1806,
        48450,
        2,
        12_787_247_889_636_298_287,
        1,
        11_890_817_753_576_504_112,
    ),
    (
        "buffer_overflow_rx",
        6802,
        100,
        4,
        11_955_521_012_289_885_696,
        1,
        14_695_981_039_346_656_037,
    ),
    (
        "smoke",
        128,
        42,
        0,
        14_695_981_039_346_656_037,
        1,
        21_038_026_483_471_500,
    ),
    (
        "churn",
        20113,
        -7_921_361_806_761_573_449,
        4,
        9_711_047_249_202_521_300,
        29,
        3_872_680_820_842_325_040,
    ),
    (
        "fuzz-1",
        841,
        -1_644_338_948_666_297_274,
        1,
        574_368_414_772_627_185,
        5,
        1_806_412_789_477_118_379,
    ),
    (
        "fuzz-2",
        598,
        523_673_999_479,
        0,
        14_695_981_039_346_656_037,
        3,
        2_890_449_734_312_919_549,
    ),
    (
        "fuzz-3",
        375,
        16_008_302_579,
        1,
        12_638_136_623_020_744_290,
        2,
        3_779_944_649_852_898_942,
    ),
    (
        "fuzz-4",
        776,
        15_769_485_187_248_975,
        1,
        12_638_135_523_509_116_079,
        5,
        5_251_434_918_335_433_310,
    ),
    (
        "fuzz-5",
        575,
        14_696_606_249,
        6,
        17_314_319_034_295_629_427,
        3,
        16_025_331_644_024_422_057,
    ),
    (
        "fuzz-6",
        1192,
        5_385_051_258_408_164_497,
        0,
        14_695_981_039_346_656_037,
        5,
        6_739_671_213_128_543_268,
    ),
    (
        "fuzz-7",
        758,
        14_913_435_878_840,
        0,
        14_695_981_039_346_656_037,
        4,
        9_743_954_975_147_133_292,
    ),
    (
        "fuzz-8",
        712,
        460_223_917_329,
        0,
        14_695_981_039_346_656_037,
        6,
        11_336_161_342_985_370_257,
    ),
    (
        "fuzz-9",
        1088,
        6_133_904_372_031_272_257,
        0,
        14_695_981_039_346_656_037,
        5,
        17_018_905_420_450_783_047,
    ),
    (
        "fuzz-10",
        760,
        14_451_209_512_573_645,
        1,
        12_638_130_025_950_975_024,
        4,
        13_100_598_306_441_697_390,
    ),
];

/// Every program the pins cover, by name, as source.
fn programs() -> Vec<(String, String)> {
    let mut programs: Vec<(String, String)> = [
        ("quickstart", QUICKSTART),
        ("migration_cluster", MIGRATION_CLUSTER),
        ("buffer_overflow_rx", BUFFER_OVERFLOW_RX),
        ("smoke", SMOKE),
        ("churn", CHURN),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_owned(), s.to_owned()))
    .collect();
    for seed in 1..=10u64 {
        programs.push((format!("fuzz-{seed}"), fuzz_program(seed)));
    }
    programs
}

/// The unoptimised lowering: the table pins the instruction streams it
/// emits, and the optimiser would change them.
fn compile(name: &str, source: &str) -> Program {
    mojave_lang::lower_source(source).unwrap_or_else(|e| panic!("{name} must compile: {e}"))
}

#[test]
fn bytecode_vm_steps_exit_output_and_images_are_pinned() {
    let mut actual = Vec::new();
    for (name, source) in &programs() {
        let program = compile(name, source);
        let (plain, _, collections) = run(&program, false);
        let (fir, fir_images, _) = run(&program, true);
        assert_eq!(fir, plain, "{name}: FIR-migrated chain totals");
        let out = plain.output.join("\n");
        actual.push((
            name.clone(),
            plain.steps,
            plain.exit,
            plain.output.len(),
            fingerprint(out.as_bytes()),
            collections,
            fir_images,
        ));
    }

    let expected: Vec<_> = PINS
        .iter()
        .map(|&(n, s, e, l, o, c, f)| (n.to_owned(), s, e, l, o, c, f))
        .collect();
    assert_eq!(
        actual, expected,
        "VM behaviour moved; the table this run produced:\n{actual:#?}"
    );
}

/// `(program, budget stride, fingerprint of every swept budget's
/// `(budget, outcome, steps, printed lines, collections, live bytes)`)`.
/// Budgets run from 1 to the program's pinned step count.
type SweepPin = (&'static str, usize, u64);

/// Recorded before the VM ran fused instruction pairs; fuzz-3's
/// re-recorded with the old-block clone accounting above.
const SWEEP_PINS: &[SweepPin] = &[
    ("smoke", 1, 2_991_304_264_715_778_921),
    ("quickstart", 1, 12_653_400_916_720_151_744),
    ("fuzz-3", 1, 1_357_461_097_750_145_505),
    ("churn", 101, 7_713_004_769_751_229_236),
    ("buffer_overflow_rx", 101, 12_269_646_291_713_937_454),
];

#[test]
fn step_budgets_stop_the_vm_where_they_always_did() {
    let programs = programs();
    let mut actual = Vec::new();
    for &(name, stride, _) in SWEEP_PINS {
        let source = &programs.iter().find(|(n, _)| n == name).expect("pinned").1;
        let program = compile(name, source);
        let steps = PINS.iter().find(|pin| pin.0 == name).expect("pinned").1;
        let mut record = String::new();
        for budget in (1..=steps).step_by(stride) {
            let config = ProcessConfig {
                step_budget: Some(budget),
                ..config()
            };
            let mut p = Process::new(program.clone(), config)
                .expect("program verifies")
                .with_sink(Box::new(CaptureSink {
                    inner: InMemorySink::with_store(CheckpointStore::new()),
                    accept_migrations: false,
                    migrated: Arc::default(),
                    images: Arc::default(),
                }));
            let outcome = p.run();
            let heap = p.heap().stats();
            record += &format!(
                "{budget} {outcome:?} {} {:?} {} {}\n",
                p.stats().steps,
                p.output(),
                heap.minor_collections + heap.major_collections,
                p.heap().live_bytes(),
            );
        }
        actual.push((name, stride, fingerprint(record.as_bytes())));
    }
    assert_eq!(
        actual, SWEEP_PINS,
        "budgeted runs moved; the table this run produced:\n{actual:#?}"
    );
}
