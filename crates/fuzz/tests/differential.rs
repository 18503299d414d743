//! Differential sweep driver: generate programs from random decision
//! tapes and run each through the five-way oracle in `mojave_fuzz::diff`.
//!
//! * `differential_smoke_slice` — 25 programs, always; the tier-1 gate.
//! * `differential_sweep` — `MOJAVE_FUZZ_PROGRAMS` programs (default 200;
//!   the nightly CI job sets 500).
//! * `compiled_programs_pass_the_bytecode_verifier` — the same program
//!   count through `compile_program` + `BytecodeProgram::verify` only.
//! * `the_optimiser_is_idempotent_and_keeps_programs_well_formed` — the
//!   same program count through `mojave_fir::optimize` twice.
//! * `the_optimiser_leg_reloads_after_a_store_through_an_alias` — one fixed
//!   program through every mode, for the aliasing the generator rarely
//!   writes.
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

/// `true` iff the tape's program passes the five-way oracle (panics count
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

/// The VM loop runs compiler output unchecked — no bytecode arrives from
/// outside a process, and only debug builds assert that it verifies — so
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

/// `optimize` of the unoptimised lowering validates and type-checks, and
/// optimising its output again changes nothing.
#[test]
fn the_optimiser_is_idempotent_and_keeps_programs_well_formed() {
    let strategy = collection::vec(0u32..1_000_000u32, 0..MAX_TAPE);
    let check = |tape: &Vec<u32>| -> Result<(), String> {
        let lowered = mojave_lang::lower_source(&generate_program(tape)).expect("compiles");
        let once = mojave_fir::optimize(lowered);
        mojave_fir::validate(&once).map_err(|e| e.to_string())?;
        mojave_fir::typecheck(&once, &mojave_fir::ExternEnv::standard())
            .map_err(|e| e.to_string())?;
        if mojave_fir::optimize(once.clone()) != once {
            return Err("a second optimisation changed the program".to_owned());
        }
        Ok(())
    };
    let cases = programs_from_env(200);
    let failure = find_failure(&strategy, "optimiser-idempotent", cases, |t| {
        check(t).is_ok()
    });
    if let Some((case, minimal)) = failure {
        panic!(
            "optimiser property failed: case {case}, {:?}\n\
             minimal tape: {minimal:?}\n--- generated program ---\n{}",
            check(&minimal),
            generate_program(&minimal)
        );
    }
}

/// A store through one variable into a block another variable also points
/// at must make the optimiser reload through the other: the generator
/// rarely aliases arrays, so this fixed program holds the optimiser leg
/// to its store rule (without it, `a[i]` would reuse the first load's 0).
#[test]
fn the_optimiser_leg_reloads_after_a_store_through_an_alias() {
    let source = r#"
        int main() {
            int[] a = alloc_int(4);
            int[] b = a;
            int i = 1;
            int x = a[i];
            b[1] = 42;
            int y = a[i];
            return x + y;
        }
    "#;
    mojave_fuzz::check_source(source).expect("every mode agrees");
    let program = mojave_lang::compile_source(source).expect("compiles");
    let mut process = mojave_core::Process::from_program(program);
    assert_eq!(
        process.run().expect("runs"),
        mojave_core::RunOutcome::Exit(42)
    );
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
