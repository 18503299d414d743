//! Trap identity table, both back ends.
//!
//! One tiny hand-built FIR program per trap.  The full [`RuntimeError`] each
//! raises — compared with `==`, not by variant — was recorded on the commit
//! *before* the execution helpers were rewritten to build errors out of line
//! (`word_as_*`, `eval_unop`/`eval_binop`, `Heap::load`/`Heap::store`), and
//! the rewrite must not move any of them, under the bytecode VM or the
//! interpreter.  The programs are ill-typed on purpose, so they run with
//! `verify: false`: these checks are what stands between ill-typed code
//! and the heap.
//!
//! Every row also pins the steps the bytecode VM charged up to and including
//! the trapping instruction, recorded before the VM ran fused instruction
//! pairs.  The programs feed constants straight into loads, stores and
//! operators, so a fused pair that charges wrongly when its second half
//! traps moves a count here.

use mojave_core::{BackendKind, Process, ProcessConfig, RuntimeError};
use mojave_fir::builder::{term, FunBuilder, ProgramBuilder};
use mojave_fir::{Atom, Binop, Expr, FunId, Label, Program, Ty, Unop};
use mojave_heap::{BlockKind, HeapError, PtrIdx, Word};

const BACKENDS: [BackendKind; 2] = [BackendKind::Bytecode, BackendKind::Interp];

/// A program whose `main` is `body`'s bindings followed by its terminator.
fn program(body: impl FnOnce(&mut FunBuilder<'_>, FunId) -> Expr) -> Program {
    let mut pb = ProgramBuilder::new();
    let (main, _) = pb.declare("main", &[]);
    let mut b = pb.block();
    let tail = body(&mut b, main);
    let body = b.finish(tail);
    pb.define(main, body);
    pb.set_entry(main);
    pb.finish()
}

fn config(backend: BackendKind, step_budget: Option<u64>) -> ProcessConfig {
    ProcessConfig {
        backend,
        verify: false,
        step_budget,
        ..ProcessConfig::default()
    }
}

/// The trap `program` raises under `backend`, and the steps it was charged.
fn trap_of(program: Program, backend: BackendKind) -> (RuntimeError, u64) {
    let mut process =
        Process::new(program, config(backend, None)).expect("the program loads unverified");
    let trap = process.run().expect_err("the program traps");
    (trap, process.stats().steps)
}

/// Both back ends raise `error` for the program `make` builds, and the
/// bytecode VM charges `vm_steps` for it.
fn assert_trap(make: impl Fn() -> Program, error: &RuntimeError, vm_steps: u64, what: &str) {
    assert_eq!(
        trap_of(make(), BackendKind::Bytecode),
        (error.clone(), vm_steps),
        "{what} under the bytecode VM"
    );
    assert_eq!(
        trap_of(make(), BackendKind::Interp).0,
        *error,
        "{what} under the interpreter"
    );
}

fn kind(expected: &'static str, found: &'static str, context: &'static str) -> RuntimeError {
    RuntimeError::KindMismatch {
        expected,
        found,
        context,
    }
}

/// Every `word_as_int` / `word_as_ptr` / `word_as_bool` call site, by its
/// context string, fed a word of the wrong kind.
#[test]
fn operand_kind_traps_name_their_context() {
    type Body = fn(&mut FunBuilder<'_>, FunId) -> Expr;
    let rows: Vec<(&'static str, &'static str, &'static str, u64, Body)> = vec![
        ("int", "unit", "alloc length", 3, |b, _| {
            b.alloc("a", Ty::Int, Atom::Unit, 0);
            term::halt(0)
        }),
        ("int", "bool", "raw alloc size", 2, |b, _| {
            b.alloc_raw("r", true);
            term::halt(0)
        }),
        ("ptr", "int", "load pointer", 3, |b, _| {
            b.load("x", Ty::Int, 3, 0);
            term::halt(0)
        }),
        ("int", "bool", "load index", 5, |b, _| {
            let a = b.alloc("a", Ty::Int, 2, 0);
            b.load("x", Ty::Int, a, true);
            term::halt(0)
        }),
        ("ptr", "float", "store pointer", 4, |b, _| {
            b.store(1.5, 0, 0);
            term::halt(0)
        }),
        ("int", "unit", "store index", 6, |b, _| {
            let a = b.alloc("a", Ty::Int, 2, 0);
            b.store(a, Atom::Unit, 0);
            term::halt(0)
        }),
        ("ptr", "int", "raw load pointer", 3, |b, _| {
            b.load_raw("x", 8, 0, 0);
            term::halt(0)
        }),
        ("int", "char", "raw load offset", 4, |b, _| {
            let r = b.alloc_raw("r", 8);
            b.load_raw("x", 8, r, Atom::Char('c'));
            term::halt(0)
        }),
        ("ptr", "bool", "raw store pointer", 4, |b, _| {
            b.store_raw(8, false, 0, 0);
            term::halt(0)
        }),
        ("int", "float", "raw store offset", 5, |b, _| {
            let r = b.alloc_raw("r", 8);
            b.store_raw(8, r, 0.5, 0);
            term::halt(0)
        }),
        ("int", "ptr", "raw store value", 4, |b, _| {
            let r = b.alloc_raw("r", 8);
            b.store_raw(8, r, 0, r);
            term::halt(0)
        }),
        ("ptr", "int", "length pointer", 2, |b, _| {
            b.len("n", 1);
            term::halt(0)
        }),
        ("int", "bool", "halt value", 2, |_, _| term::halt(true)),
        ("int", "unit", "commit level", 3, |_, main| {
            term::commit(Atom::Unit, main, vec![])
        }),
        ("int", "fun", "rollback level", 3, |_, main| {
            term::rollback(main, 0)
        }),
        ("int", "unit", "rollback code", 3, |_, _| {
            term::rollback(1, Atom::Unit)
        }),
        ("ptr", "int", "migrate target", 3, |_, main| {
            term::migrate(Label(0), 5, main, vec![])
        }),
    ];
    for (expected, found, context, vm_steps, body) in rows {
        assert_trap(
            || program(body),
            &kind(expected, found, context),
            vm_steps,
            context,
        );
    }
    // The one context the two back ends word differently.
    let branch = || program(|_, _| term::branch(1, term::halt(0), term::halt(1)));
    assert_eq!(
        trap_of(branch(), BackendKind::Bytecode),
        (kind("bool", "int", "branch condition"), 2)
    );
    assert_eq!(
        trap_of(branch(), BackendKind::Interp).0,
        kind("bool", "int", "if condition")
    );
}

#[test]
fn unary_operator_traps_name_the_kind_they_wanted() {
    let rows = [
        (Unop::Neg, Atom::Bool(true), "int", "bool"),
        (Unop::BNot, Atom::Float(1.0), "int", "float"),
        (Unop::FloatOfInt, Atom::Unit, "int", "unit"),
        (Unop::CharOfInt, Atom::Char('x'), "int", "char"),
        (Unop::FNeg, Atom::Int(1), "float", "int"),
        (Unop::IntOfFloat, Atom::Int(1), "float", "int"),
        (Unop::Not, Atom::Int(0), "bool", "int"),
        (Unop::IntOfChar, Atom::Int(65), "char", "int"),
    ];
    // Each program is the operand's `Const` and the `Unop`: two steps.
    for (op, arg, expected, found) in rows {
        let p = || {
            program(|b, _| {
                b.unop("x", op, arg.clone());
                term::halt(0)
            })
        };
        assert_trap(
            p,
            &kind(expected, found, "unary operator"),
            2,
            &format!("{op:?}"),
        );
    }
}

/// `Div`/`Rem` of an `Int` by `Int(0)` is the only `DivisionByZero`; every
/// pair of operands of two different kinds — `Div` of a `Float` by `Int(0)`
/// among them — is the one binary-operator `KindMismatch`, for every
/// operator but `Eq`/`Ne` (which compare any two words).
#[test]
fn binary_operator_traps() {
    use Binop::*;
    // Each program is one instruction per operand (`Const` or `FunRef`)
    // and the `Binop`: three steps.
    let binop_trap = |op: Binop, lhs: Atom, rhs: Atom, backend| {
        let (trap, steps) = trap_of(
            program(|b, _| {
                b.binop("x", op, lhs, rhs);
                term::halt(0)
            }),
            backend,
        );
        if backend == BackendKind::Bytecode {
            assert_eq!(steps, 3, "{op:?} under the bytecode VM");
        }
        trap
    };
    let mismatch = kind(
        "matching numeric operands",
        "mismatched operands",
        "binary operator",
    );
    let operands = |main: FunId| {
        [
            Atom::Unit,
            Atom::Int(0),
            Atom::Float(2.5),
            Atom::Bool(true),
            Atom::Char('c'),
            Atom::Str("s".into()),
            Atom::Fun(main),
        ]
    };
    let ops = [
        Add, Sub, Mul, Div, Rem, BAnd, BOr, BXor, Shl, Shr, Lt, Le, Gt, Ge,
    ];
    for backend in BACKENDS {
        for op in [Div, Rem] {
            assert_eq!(
                binop_trap(op, Atom::Int(7), Atom::Int(0), backend),
                RuntimeError::DivisionByZero,
                "{op:?} under {backend:?}"
            );
        }
        assert_eq!(
            binop_trap(Div, Atom::Float(7.0), Atom::Int(0), backend),
            mismatch
        );
        for op in ops {
            for (i, lhs) in operands(FunId(0)).into_iter().enumerate() {
                for (j, rhs) in operands(FunId(0)).into_iter().enumerate() {
                    if i != j {
                        assert_eq!(
                            binop_trap(op, lhs.clone(), rhs.clone(), backend),
                            mismatch,
                            "{lhs:?} {op:?} {rhs:?} under {backend:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Heap traps arrive as `RuntimeError::Heap` carrying the heap's own error:
/// bounds at −1 and at `len`, a store into a string, word access to a raw
/// block.  The first block a program allocates is `#0`.
#[test]
fn heap_access_traps_carry_the_heap_error() {
    type Body = fn(&mut FunBuilder<'_>, FunId) -> Expr;
    let p0 = PtrIdx(0);
    let out_of_bounds = |index| HeapError::OutOfBounds {
        ptr: p0,
        index,
        len: 2,
    };
    let raw_mismatch = |access| HeapError::KindMismatch {
        ptr: p0,
        kind: BlockKind::Raw,
        access,
    };
    let rows: Vec<(&str, HeapError, u64, Body)> = vec![
        ("load at -1", out_of_bounds(-1), 5, |b, _| {
            let a = b.alloc("a", Ty::Int, 2, 0);
            b.load("x", Ty::Int, a, -1);
            term::halt(0)
        }),
        ("load at len", out_of_bounds(2), 5, |b, _| {
            let a = b.alloc("a", Ty::Int, 2, 0);
            b.load("x", Ty::Int, a, 2);
            term::halt(0)
        }),
        ("store at -1", out_of_bounds(-1), 6, |b, _| {
            let a = b.alloc("a", Ty::Int, 2, 0);
            b.store(a, -1, 9);
            term::halt(0)
        }),
        ("store at len", out_of_bounds(2), 6, |b, _| {
            let a = b.alloc("a", Ty::Int, 2, 0);
            b.store(a, 2, 9);
            term::halt(0)
        }),
        (
            "store into a string",
            HeapError::ImmutableBlock(p0),
            4,
            |b, _| {
                b.store("constant", 0, 9);
                term::halt(0)
            },
        ),
        (
            "word load from raw",
            raw_mismatch("word load"),
            4,
            |b, _| {
                let r = b.alloc_raw("r", 16);
                b.load("x", Ty::Int, r, 0);
                term::halt(0)
            },
        ),
        (
            "word store into raw",
            raw_mismatch("word store"),
            5,
            |b, _| {
                let r = b.alloc_raw("r", 16);
                b.store(r, 0, 9);
                term::halt(0)
            },
        ),
    ];
    for (name, error, vm_steps, body) in rows {
        assert_trap(|| program(body), &RuntimeError::Heap(error), vm_steps, name);
    }
}

/// A pointer whose table entry has been freed: the resumed continuation's
/// argument names block `#0`, which the image's heap does not hold.
#[test]
fn access_through_a_freed_pointer_is_an_invalid_pointer() {
    // The resumed continuation is the access: `Const` index, then `Load`;
    // or `Const` index, `Const` value, then `Store`.
    for (name, store, vm_steps) in [("load", false, 2), ("store", true, 3)] {
        for backend in BACKENDS {
            let mut pb = ProgramBuilder::new();
            let (main, _) = pb.declare("main", &[]);
            pb.define(main, term::halt(0));
            let (resume, params) = pb.declare("resume", &[("p", Ty::Ptr(Box::new(Ty::Int)))]);
            let mut b = pb.block();
            if store {
                b.store(params[0], 0, 1);
            } else {
                b.load("x", Ty::Int, params[0], 0);
            }
            let body = b.finish(term::halt(0));
            pb.define(resume, body);
            pb.set_entry(main);

            let mut source = Process::new(pb.finish(), config(backend, None)).unwrap();
            let doomed = source.heap_mut().alloc_array(1, Word::Int(0)).unwrap();
            let other = source.heap_mut().alloc_array(1, Word::Int(0)).unwrap();
            assert_eq!((doomed, other), (PtrIdx(0), PtrIdx(1)));
            // Packing collects with the continuation's arguments as roots;
            // a dangling one roots nothing, and the fresh `migrate_env`
            // takes the entry freed last (#1), leaving #0 free.
            source.heap_mut().gc_major(&[]);
            let image = source
                .pack(0, Word::Fun(resume.0), &[Word::Ptr(doomed)])
                .unwrap();
            let mut resumed = Process::from_image(image, config(backend, None)).unwrap();
            let trap = resumed.run().expect_err("the access traps");
            assert_eq!(
                trap,
                RuntimeError::Heap(HeapError::InvalidPointer(doomed)),
                "{name} under {backend:?}"
            );
            if backend == BackendKind::Bytecode {
                assert_eq!(resumed.stats().steps, vm_steps, "{name} under the VM");
            }
        }
    }
}

/// A `Binop` that does not trap costs one step and nothing else: with a
/// budget that ends on it, the very next instruction is the overrun.
#[test]
fn step_budget_expires_on_the_instruction_after_a_trap_free_binop() {
    for backend in BACKENDS {
        let p = program(|b, _| {
            let one = b.int("one", 1);
            let two = b.int("two", 2);
            let x = b.binop("x", Binop::Add, one, two);
            let y = b.binop("y", Binop::Mul, x, two);
            term::halt(y)
        });
        let mut process = Process::new(p, config(backend, Some(3))).unwrap();
        assert_eq!(
            process.run(),
            Err(RuntimeError::StepBudgetExhausted { budget: 3 }),
            "{backend:?}"
        );
        assert_eq!(process.stats().steps, 4, "{backend:?}");
    }
}
