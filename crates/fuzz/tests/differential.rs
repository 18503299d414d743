//! Differential sweep driver: generate programs from random decision
//! tapes and run each through the four-way oracle in `mojave_fuzz::diff`.
//!
//! * `differential_smoke_slice` — 25 programs, always; the tier-1 gate.
//! * `differential_sweep` — `MOJAVE_FUZZ_PROGRAMS` programs (default 200;
//!   the nightly CI job sets 500).
//! * `compiled_programs_pass_the_bytecode_verifier` — the same program
//!   count through `compile_program` + `BytecodeProgram::verify` only.
//!
//! Failures shrink through the vendored proptest shrinker: a decision
//! tape is a `Vec<u32>`, truncating or zeroing it yields a strictly
//! simpler program, so the generic vector shrinker is a program
//! minimizer.  The panic message carries the suite name, case index,
//! minimal tape and rendered source — paste the tape into
//! `check_tape(&[...])` to reproduce locally (see docs/TESTING.md).

use mojave_fuzz::{check_tape, generate_program, MAX_TAPE};
use proptest::collection;
use proptest::test_runner::{find_failure, with_silent_panics};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn programs_from_env(default: usize) -> usize {
    std::env::var("MOJAVE_FUZZ_PROGRAMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `true` iff the tape's program passes the four-way oracle (panics count
/// as failures so they shrink like ordinary mismatches).
fn tape_passes(tape: &[u32]) -> bool {
    catch_unwind(AssertUnwindSafe(|| check_tape(tape).is_ok())).unwrap_or(false)
}

fn describe_failure(tape: &[u32]) -> String {
    match catch_unwind(AssertUnwindSafe(|| check_tape(tape))) {
        Ok(Ok(())) => "failure did not reproduce on the shrunk tape".to_owned(),
        Ok(Err(msg)) => msg,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            format!("panicked: {msg}")
        }
    }
}

fn sweep(suite: &str, cases: usize) {
    let strategy = collection::vec(0u32..1_000_000u32, 0..MAX_TAPE);
    let failure = with_silent_panics(|| find_failure(&strategy, suite, cases, |t| tape_passes(t)));
    if let Some((case, minimal)) = failure {
        let source = generate_program(&minimal);
        let detail = describe_failure(&minimal);
        panic!(
            "differential failure: suite `{suite}`, case {case}\n\
             minimal tape: {minimal:?}\n\
             reproduce with: mojave_fuzz::check_tape(&{minimal:?})\n\
             --- generated program ---\n{source}\
             --- mismatch ---\n{detail}"
        );
    }
}

/// The tier-1 smoke slice: small and fast, runs on every `cargo test`.
#[test]
fn differential_smoke_slice() {
    sweep("differential-smoke", 25);
}

/// The full sweep: 200 programs by default (the ISSUE's tier-1 floor),
/// 500 in the nightly CI job via `MOJAVE_FUZZ_PROGRAMS`.
#[test]
fn differential_sweep() {
    sweep("differential-sweep", programs_from_env(200));
}

/// The VM loop runs compiler output without the load-time verifier having
/// seen it (only binary images are verified, and debug builds assert it), so
/// "whatever `compile_program` emits verifies" is a property of its own.
#[test]
fn compiled_programs_pass_the_bytecode_verifier() {
    let strategy = collection::vec(0u32..1_000_000u32, 0..MAX_TAPE);
    let verifies = |tape: &Vec<u32>| {
        let program = mojave_lang::compile_source(&generate_program(tape)).expect("compiles");
        let bytecode = mojave_core::backend::compile_program(&program).expect("elaborates");
        bytecode.verify().is_ok()
    };
    let cases = programs_from_env(200);
    if let Some((case, minimal)) = find_failure(&strategy, "bytecode-verifies", cases, verifies) {
        let source = generate_program(&minimal);
        let program = mojave_lang::compile_source(&source).expect("compiles");
        let rejection = mojave_core::backend::compile_program(&program)
            .expect("elaborates")
            .verify();
        panic!(
            "compiler output failed verification: case {case}, {rejection:?}\n\
             minimal tape: {minimal:?}\n--- generated program ---\n{source}"
        );
    }
}

/// The oracle must also *fail* when semantics genuinely differ: feed it a
/// program whose exit value depends on non-migrated externals state and
/// check the harness reports a mismatch instead of passing vacuously.
#[test]
fn oracle_detects_a_real_divergence() {
    // `rand_int` draws from the externals RNG, which deliberately does not
    // migrate; the codec-migration mode reseeds it, so the digests differ.
    let source = r#"
        int main() {
            int x = 0;
            for (int i = 0; i < 8; i = i + 1) { x = x * 31 + rand_int(1000); }
            migrate("far-node");
            for (int i2 = 0; i2 < 8; i2 = i2 + 1) { x = x * 31 + rand_int(1000); }
            return x;
        }
    "#;
    let err = mojave_fuzz::check_source(source)
        .expect_err("externals-dependent program must diverge across modes");
    assert!(
        err.contains("codec"),
        "divergence should surface in a migration mode: {err}"
    );
}
