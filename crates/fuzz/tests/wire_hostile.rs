//! Hostile-input sweep for the wire decoder: seeded mutations of the
//! golden v1/v4/v5 fixtures (and freshly packed images) must always be
//! answered with a precise `WireError` — never a panic and never an
//! unbounded allocation.
//!
//! The allocation bound is enforced for real: this test binary installs
//! `mojave_fuzz::cap_alloc::CapAlloc` as the global allocator and asserts
//! a high-water mark per mutation.  A length-field inflated to ~4 GiB must
//! be rejected by `MAX_REASONABLE_LEN`-style guards *before* the decoder
//! reserves memory for it.  Full mutants that parse — they carry their
//! FIR — are resumed and run under a step budget inside the same panic and
//! allocation guards, so a hostile function, type, resume continuation or
//! heap word must be stopped by FIR validation, the type checker or a
//! precise runtime error.
//!
//! `MOJAVE_FUZZ_MUTATIONS` scales the sweep (default 1000; nightly 2000).

use mojave_fuzz::cap_alloc::CapAlloc;
use mojave_fuzz::mutate::{corpus, exercise_decoder, mutate, MutationKind};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[global_allocator]
static ALLOC: CapAlloc = CapAlloc;

/// Generous per-mutation allocation cap: pristine images are a few KiB,
/// so a quarter GiB of headroom only trips on genuinely unbounded
/// reservations (e.g. `Vec::with_capacity` fed a hostile length field).
const ALLOC_CAP: usize = 256 * 1024 * 1024;

fn mutations_from_env(default: u64) -> u64 {
    std::env::var("MOJAVE_FUZZ_MUTATIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn mutated_wire_images_fail_precisely_never_panic() {
    let corpus = corpus();
    assert!(corpus.len() >= 8, "corpus unexpectedly small");
    let total = mutations_from_env(1000);

    let mut rejected = 0u64;
    let mut parsed = 0u64;
    let mut resumed = 0u64;
    for seed in 0..total {
        let (name, pristine) = &corpus[(seed % corpus.len() as u64) as usize];
        let (mutant, kind) = mutate(pristine, seed);
        if mutant == *pristine {
            continue; // the rare no-op flip
        }

        let (outcome, peak_delta, _) =
            ALLOC.measure(|| catch_unwind(AssertUnwindSafe(|| exercise_decoder(&mutant))));

        let verdict = match outcome {
            Err(_) => panic!(
                "decoder panicked: corpus entry `{name}`, seed {seed}, mutation {kind:?} \
                 (reproduce: mutate(&corpus()[..], {seed}))"
            ),
            Ok(Err(imprecise)) => panic!(
                "imprecise error: corpus entry `{name}`, seed {seed}, mutation {kind:?}: {imprecise}"
            ),
            Ok(Ok(v)) => v,
        };
        assert!(
            peak_delta < ALLOC_CAP,
            "allocation cap exceeded ({peak_delta} bytes): corpus entry `{name}`, \
             seed {seed}, mutation {kind:?}"
        );
        if kind == MutationKind::Truncate {
            assert_eq!(
                verdict, "rejected",
                "a strict prefix of `{name}` (seed {seed}) must not parse"
            );
        }
        match verdict {
            "rejected" => rejected += 1,
            "resumed" => resumed += 1,
            _ => parsed += 1,
        }
    }

    // The sweep must actually exercise the error paths: almost every
    // mutation of a framed format breaks something.
    assert!(
        rejected > total / 2,
        "suspiciously few rejections ({rejected} of {total}, {parsed} parsed) — \
         is the mutator hitting the image at all?"
    );
    // …and the resume path: the corpus holds full FIR images, and some of
    // their mutants survive the parser.
    assert!(
        total < 1000 || resumed > 0,
        "no FIR mutant was resumed in {total} mutations"
    );
    eprintln!("{total} mutations: {rejected} rejected, {parsed} parsed, {resumed} resumed");
}
