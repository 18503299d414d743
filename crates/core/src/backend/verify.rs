//! The bytecode verifier: the oracle on compiler output.
//!
//! The VM loop indexes registers, code and the function table without
//! re-checking.  [`BytecodeProgram::verify`] states the invariants that loop
//! relies on.  No bytecode arrives from outside a process — images carry
//! FIR, which the receiver recompiles — so the only input is
//! `compile_program` output, which satisfies them by construction: debug
//! builds assert it in `compile_verified`, and the fuzz crate's
//! `compiled_programs_pass_the_bytecode_verifier` property checks it.

use super::bytecode::{BytecodeProgram, Instr};
use std::fmt;

/// Why [`BytecodeProgram::verify`] rejected a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError(String);

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for VerifyError {}

impl BytecodeProgram {
    /// Check that the program is safe to execute without per-instruction
    /// bounds checks:
    ///
    /// * `entry` and every `FunRef`/`Closure`/`TailCallDirect` function id
    ///   name a function in the table;
    /// * every function has `nparams <= nregs <= nparams + code.len()` (each
    ///   instruction defines at most one register, so a larger file is
    ///   unnameable — and a hostile `nregs` cannot size an allocation);
    /// * every register operand is `< nregs`;
    /// * every jump target is inside the function, and the code is
    ///   non-empty and ends in an instruction that cannot fall through;
    /// * every `TailCallDirect` passes exactly the callee's `nparams`.
    pub fn verify(&self) -> Result<(), VerifyError> {
        let nfuns = self.funs.len();
        if self.entry as usize >= nfuns {
            return Err(VerifyError(format!(
                "entry f{} is outside the {nfuns}-function table",
                self.entry
            )));
        }
        for (id, f) in self.funs.iter().enumerate() {
            let fail =
                |at: usize, what: String| VerifyError(format!("f{id} `{}` @{at}: {what}", f.name));
            let (nregs, nparams, ninstrs) = (f.nregs as usize, f.nparams as usize, f.code.len());
            if nparams > nregs || nregs - nparams > ninstrs {
                return Err(fail(
                    0,
                    format!(
                        "{nregs} registers for {nparams} parameters and {ninstrs} instructions"
                    ),
                ));
            }
            match f.code.last() {
                Some(
                    Instr::Jump { .. }
                    | Instr::TailCall { .. }
                    | Instr::TailCallDirect { .. }
                    | Instr::Halt { .. }
                    | Instr::Migrate { .. }
                    | Instr::Speculate { .. }
                    | Instr::Commit { .. }
                    | Instr::Rollback { .. },
                ) => {}
                _ => return Err(fail(ninstrs, "code does not end in a terminator".into())),
            }
            for (at, instr) in f.code.iter().enumerate() {
                let mut out_of_range = instr.writes().filter(|r| *r as usize >= nregs);
                instr.reads(|r| {
                    if r as usize >= nregs {
                        out_of_range.get_or_insert(r);
                    }
                });
                if let Some(r) = out_of_range {
                    return Err(fail(at, format!("register r{r} >= nregs {nregs}")));
                }
                let fun = |fun: u32| {
                    self.funs
                        .get(fun as usize)
                        .ok_or_else(|| fail(at, format!("function f{fun} does not exist")))
                };
                match *instr {
                    Instr::FunRef { fun: id, .. } | Instr::Closure { fun: id, .. } => {
                        fun(id)?;
                    }
                    Instr::Jump { target } | Instr::JumpIfFalse { target, .. }
                        if target >= ninstrs =>
                    {
                        return Err(fail(at, format!("jump target {target} >= {ninstrs}")));
                    }
                    Instr::TailCallDirect { fun: id, ref args } => {
                        let callee = fun(id)?;
                        if args.len() != callee.nparams as usize {
                            return Err(fail(
                                at,
                                format!(
                                    "direct call of f{id} passes {} args, it takes {}",
                                    args.len(),
                                    callee.nparams
                                ),
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BcFun, Const};

    /// `f0(a) { r1 = 1; if (r1) f1(a) else halt a }`, `f1(x) { halt x }`.
    fn sound() -> BytecodeProgram {
        let f0 = BcFun {
            name: "main".into(),
            nregs: 2,
            nparams: 1,
            code: vec![
                Instr::Const {
                    dst: 1,
                    value: Const::Bool(true),
                },
                Instr::JumpIfFalse { cond: 1, target: 3 },
                Instr::TailCallDirect {
                    fun: 1,
                    args: vec![0],
                },
                Instr::Halt { value: 0 },
            ],
        };
        let f1 = BcFun {
            name: "after".into(),
            nregs: 1,
            nparams: 1,
            code: vec![Instr::Halt { value: 0 }],
        };
        BytecodeProgram {
            funs: vec![f0, f1],
            entry: 0,
        }
    }

    /// Apply `breakage` to the sound program and return the rejection.
    fn rejection(breakage: impl FnOnce(&mut BytecodeProgram)) -> String {
        let mut program = sound();
        breakage(&mut program);
        program
            .verify()
            .expect_err("the broken program must be rejected")
            .to_string()
    }

    #[test]
    fn the_sound_program_verifies() {
        assert_eq!(sound().verify(), Ok(()));
    }

    #[test]
    fn inflated_nregs_is_rejected() {
        // One past what one parameter and four instructions can name.
        let msg = rejection(|p| p.funs[0].nregs = 6);
        assert!(msg.contains("6 registers for 1 parameters"), "{msg}");
        assert_eq!(
            {
                let mut p = sound();
                p.funs[0].nregs = 5;
                p.verify()
            },
            Ok(()),
            "nparams + code.len() itself is allowed"
        );
        let msg = rejection(|p| p.funs[1].nregs = u32::MAX);
        assert!(msg.contains("f1 `after`"), "{msg}");
    }

    #[test]
    fn fewer_registers_than_parameters_is_rejected() {
        let msg = rejection(|p| p.funs[0].nparams = 3);
        assert!(msg.contains("2 registers for 3 parameters"), "{msg}");
    }

    #[test]
    fn out_of_range_destination_register_is_rejected() {
        let msg = rejection(|p| {
            p.funs[0].code[0] = Instr::Const {
                dst: 2,
                value: Const::Unit,
            }
        });
        assert!(msg.contains("@0: register r2 >= nregs 2"), "{msg}");
    }

    #[test]
    fn out_of_range_source_register_is_rejected() {
        let msg = rejection(|p| p.funs[1].code[0] = Instr::Halt { value: 9 });
        assert!(msg.contains("register r9 >= nregs 1"), "{msg}");
        // …including inside an argument list.
        let msg = rejection(|p| {
            p.funs[0].code[2] = Instr::TailCallDirect {
                fun: 1,
                args: vec![7],
            }
        });
        assert!(msg.contains("@2: register r7"), "{msg}");
    }

    #[test]
    fn jump_past_the_end_is_rejected() {
        let msg = rejection(|p| p.funs[0].code[1] = Instr::JumpIfFalse { cond: 1, target: 4 });
        assert!(msg.contains("@1: jump target 4 >= 4"), "{msg}");
        let msg = rejection(|p| p.funs[1].code[0] = Instr::Jump { target: usize::MAX });
        assert!(msg.contains("jump target"), "{msg}");
    }

    #[test]
    fn missing_terminator_is_rejected() {
        let msg = rejection(|p| p.funs[1].code.clear());
        assert!(msg.contains("does not end in a terminator"), "{msg}");
        let msg = rejection(|p| p.funs[1].code.push(Instr::Move { dst: 0, src: 0 }));
        assert!(msg.contains("does not end in a terminator"), "{msg}");
        let msg = rejection(|p| {
            p.funs[1]
                .code
                .push(Instr::JumpIfFalse { cond: 0, target: 0 })
        });
        assert!(msg.contains("does not end in a terminator"), "{msg}");
    }

    #[test]
    fn unknown_function_ids_are_rejected() {
        let msg = rejection(|p| p.funs[0].code[0] = Instr::FunRef { dst: 1, fun: 2 });
        assert!(msg.contains("function f2 does not exist"), "{msg}");
        let msg = rejection(|p| {
            p.funs[0].code[0] = Instr::Closure {
                dst: 1,
                fun: 2,
                captured: vec![],
            }
        });
        assert!(msg.contains("function f2 does not exist"), "{msg}");
        let msg = rejection(|p| {
            p.funs[0].code[2] = Instr::TailCallDirect {
                fun: 2,
                args: vec![0],
            }
        });
        assert!(msg.contains("function f2 does not exist"), "{msg}");
    }

    #[test]
    fn wrong_direct_call_arity_is_rejected() {
        let msg = rejection(|p| {
            p.funs[0].code[2] = Instr::TailCallDirect {
                fun: 1,
                args: vec![0, 0],
            }
        });
        assert!(msg.contains("passes 2 args, it takes 1"), "{msg}");
    }

    #[test]
    fn bad_entry_is_rejected() {
        let msg = rejection(|p| p.entry = 2);
        assert!(msg.contains("entry f2"), "{msg}");
        let msg = rejection(|p| p.funs.clear());
        assert!(msg.contains("entry f0"), "{msg}");
    }
}
