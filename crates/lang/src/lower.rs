//! CPS lowering of MojaveC into the FIR.
//!
//! The lowering follows the structure the paper describes for MCC:
//! source-level control flow becomes tail calls between FIR functions, and
//! all mutable state lives in the heap.
//!
//! Key decisions:
//!
//! * **Frames.** Each source function activation allocates a *frame* block
//!   (an array of `Any`) holding every parameter and local.  Reads and
//!   writes of locals are heap loads/stores.  Because frames are heap
//!   blocks, speculation rollback restores local variables exactly like any
//!   other heap data — "the entire process state, including all variable and
//!   heap values" (§4.3).
//! * **Returns.** A source function `T f(…)` lowers to an FIR function with
//!   an extra final parameter `retk`, a closure of type `clo(any)`;
//!   `return e` becomes a tail call of `retk(e)`.
//! * **Suspension points.** Statements after a user-function call, a
//!   `speculate()`, a `commit`, or a `checkpoint`/`migrate` become fresh
//!   top-level FIR functions (continuations).  Loops and `if` join points
//!   become FIR functions taking `(frame, retk)`.
//! * **Primitives.**
//!   `speculate()` → `Speculate`, the continuation's first parameter is the
//!   speculation id (positive on entry, the rollback code after an abort);
//!   `commit(id)` → `Commit`; `abort(id)` → `Rollback [id, 0]` (Figure 1
//!   semantics: `speculate()` then returns 0); `retry(id)` →
//!   `Rollback [id, id]` (Figure 2 semantics: the loop re-runs from the
//!   speculation entry with the same id); `checkpoint(name)` /
//!   `suspend(name)` / `migrate(target)` → `Migrate` with the corresponding
//!   protocol scheme.
//! * **Pre-passes.** User-function calls nested inside expressions are
//!   hoisted into temporaries; declarations are α-renamed so every variable
//!   has one frame slot.
//! * `&&`/`||` are *strict* (both operands evaluate); they lower to the
//!   FIR's boolean `band`/`bor`.

use crate::ast::{BinOp, CType, Expr as CExpr, FunDecl, Stmt, UnOp, Unit};
use crate::error::{CompileError, SourcePos};
use mojave_fir::builder::ProgramBuilder;
use mojave_fir::{Atom, Binop, Expr, ExternEnv, FunId, Program, Ty, Unop, VarId};
use std::collections::HashMap;

/// Lower a parsed translation unit to an FIR program.
pub fn lower_program(unit: &Unit) -> Result<Program, CompileError> {
    Lowerer::new(unit)?.lower(unit)
}

/// Signature of a callable (user function, runtime external or builtin).
#[derive(Debug, Clone)]
struct Sig {
    params: Vec<CType>,
    ret: CType,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Callee {
    User,
    Extern,
    Builtin,
}

/// Per-source-function lowering state.
struct FnState {
    /// FIR name prefix for generated continuations.
    fname: String,
    /// Variable name → (frame slot, declared type).
    slots: HashMap<String, (usize, CType)>,
    /// Total number of frame slots.
    nslots: usize,
    /// Counter for generated continuation names.
    gen: u32,
    /// The source function's return type.
    ret: CType,
}

/// One straight-line FIR binding produced while lowering an expression.
enum Pre {
    Unop(VarId, Unop, Atom),
    Binop(VarId, Binop, Atom, Atom),
    Load(VarId, Ty, Atom, Atom),
    Store(Atom, Atom, Atom),
    Alloc(VarId, Ty, Atom, Atom),
    AllocRaw(VarId, Atom),
    LoadRaw(VarId, u8, Atom, Atom),
    StoreRaw(u8, Atom, Atom, Atom),
    Len(VarId, Atom),
    Ext(VarId, Ty, String, Vec<Atom>),
}

/// What to do after a statement list ends.
#[derive(Debug, Clone)]
enum NextCont {
    /// Implicit `return 0`.
    Return,
    /// Tail-call a continuation function with `(frame, retk)`.
    Call(FunId),
}

struct Lowerer {
    pb: ProgramBuilder,
    user: HashMap<String, (FunId, Sig)>,
    externs: ExternEnv,
    hoist_counter: u32,
    rename_counter: u32,
}

/// The FIR type of a source type.
fn fir_ty(ty: &CType) -> Ty {
    match ty {
        CType::Int => Ty::Int,
        CType::Float => Ty::Float,
        CType::Bool => Ty::Bool,
        CType::Char => Ty::Char,
        CType::Str => Ty::Str,
        CType::Void => Ty::Unit,
        CType::Buffer => Ty::Raw,
        CType::Array(elem) => Ty::ptr(fir_ty(elem)),
    }
}

/// The closure type of return continuations.
fn retk_ty() -> Ty {
    Ty::Closure(vec![Ty::Any])
}

/// The source type of an extern's FIR result type: the inverse of
/// [`fir_ty`] over the types [`ExternEnv::standard`] returns.
fn c_ty(ty: &Ty) -> CType {
    match ty {
        Ty::Int => CType::Int,
        Ty::Float => CType::Float,
        Ty::Bool => CType::Bool,
        Ty::Char => CType::Char,
        Ty::Str => CType::Str,
        Ty::Unit => CType::Void,
        Ty::Raw => CType::Buffer,
        Ty::Ptr(elem) => CType::Array(Box::new(c_ty(elem))),
        Ty::Fun(_) | Ty::Closure(_) | Ty::Any => unreachable!("no extern returns {ty}"),
    }
}

const BUILTINS: &[&str] = &[
    "speculate",
    "commit",
    "abort",
    "retry",
    "checkpoint",
    "suspend",
    "migrate",
    "alloc_int",
    "alloc_float",
    "alloc_buffer",
    "length",
    "peek",
    "poke",
    "int_of",
    "float_of",
];

impl Lowerer {
    fn new(unit: &Unit) -> Result<Self, CompileError> {
        let mut lowerer = Lowerer {
            pb: ProgramBuilder::new(),
            user: HashMap::new(),
            externs: ExternEnv::standard(),
            hoist_counter: 0,
            rename_counter: 0,
        };
        // Collect and declare user functions up front so calls can be
        // forward references and mutual recursion works.
        for f in &unit.funs {
            if lowerer.user.contains_key(&f.name) {
                return Err(CompileError::at(
                    f.pos,
                    format!("function `{}` is defined more than once", f.name),
                ));
            }
            if lowerer.externs.lookup(&f.name).is_some() || BUILTINS.contains(&f.name.as_str()) {
                return Err(CompileError::at(
                    f.pos,
                    format!("`{}` is a reserved runtime function name", f.name),
                ));
            }
            let sig = Sig {
                params: f.params.iter().map(|(t, _)| t.clone()).collect(),
                ret: f.ret.clone(),
            };
            let mut fir_params: Vec<(&str, Ty)> = Vec::new();
            let mut owned_names: Vec<String> = Vec::new();
            for (t, n) in &f.params {
                owned_names.push(n.clone());
                fir_params.push(("", fir_ty(t)));
                let last = fir_params.len() - 1;
                // Placeholder name fixed below (builder needs &str).
                fir_params[last].0 =
                    Box::leak(owned_names.last().unwrap().clone().into_boxed_str());
            }
            fir_params.push(("retk", retk_ty()));
            let (id, _) = lowerer.pb.declare(&f.name, &fir_params);
            lowerer.user.insert(f.name.clone(), (id, sig));
        }
        Ok(lowerer)
    }

    fn lower(mut self, unit: &Unit) -> Result<Program, CompileError> {
        // main() checks.
        let main = unit
            .funs
            .iter()
            .find(|f| f.name == "main")
            .ok_or_else(|| CompileError::general("program has no `main` function"))?;
        if !main.params.is_empty() {
            return Err(CompileError::at(main.pos, "`main` must take no parameters"));
        }

        for f in &unit.funs {
            self.lower_function(f)?;
        }

        // Synthetic halt continuation and entry point.
        let (halt_fn, halt_params) = self
            .pb
            .declare("__halt", &[("env", Ty::ptr(Ty::Any)), ("v", Ty::Any)]);
        self.pb.define(
            halt_fn,
            Expr::Halt {
                value: Atom::Var(halt_params[1]),
            },
        );
        let (start_fn, _) = self.pb.declare("__start", &[]);
        let k = self.pb.tmp();
        let main_id = self.user["main"].0;
        self.pb.define(
            start_fn,
            Expr::LetClosure {
                dst: k,
                fun: halt_fn,
                captured: vec![],
                arg_tys: vec![Ty::Any],
                body: Box::new(Expr::TailCall {
                    target: Atom::Fun(main_id),
                    args: vec![Atom::Var(k)],
                }),
            },
        );
        self.pb.set_entry(start_fn);
        Ok(self.pb.finish())
    }

    fn callee_kind(&self, name: &str) -> Option<Callee> {
        if self.user.contains_key(name) {
            Some(Callee::User)
        } else if self.externs.lookup(name).is_some() {
            Some(Callee::Extern)
        } else if BUILTINS.contains(&name) {
            Some(Callee::Builtin)
        } else {
            None
        }
    }

    fn is_suspending_call(&self, name: &str) -> bool {
        self.user.contains_key(name) || name == "speculate"
    }

    // ------------------------------------------------------------------
    // Pre-pass 1: hoist user-function calls out of nested expressions
    // ------------------------------------------------------------------

    fn hoist_temp(&mut self) -> String {
        self.hoist_counter += 1;
        format!("__h{}", self.hoist_counter)
    }

    fn call_ret_type(&self, name: &str, pos: SourcePos) -> Result<CType, CompileError> {
        if name == "speculate" {
            return Ok(CType::Int);
        }
        self.user
            .get(name)
            .map(|(_, sig)| sig.ret.clone())
            .ok_or_else(|| CompileError::at(pos, format!("unknown function `{name}`")))
    }

    fn hoist_expr(
        &mut self,
        e: &CExpr,
        prefix: &mut Vec<Stmt>,
        top_allowed: bool,
    ) -> Result<CExpr, CompileError> {
        Ok(match e {
            CExpr::Call { name, args, pos } => {
                if matches!(
                    name.as_str(),
                    "commit" | "abort" | "retry" | "checkpoint" | "suspend" | "migrate"
                ) && !top_allowed
                {
                    return Err(CompileError::at(
                        *pos,
                        format!("`{name}` cannot be used inside an expression"),
                    ));
                }
                let hoisted_args = args
                    .iter()
                    .map(|a| self.hoist_expr(a, prefix, false))
                    .collect::<Result<Vec<_>, _>>()?;
                let call = CExpr::Call {
                    name: name.clone(),
                    args: hoisted_args,
                    pos: *pos,
                };
                if self.is_suspending_call(name) && !top_allowed {
                    let ty = self.call_ret_type(name, *pos)?;
                    if ty == CType::Void {
                        return Err(CompileError::at(
                            *pos,
                            format!("void function `{name}` used in an expression"),
                        ));
                    }
                    let tmp = self.hoist_temp();
                    prefix.push(Stmt::Decl {
                        ty,
                        name: tmp.clone(),
                        init: Some(call),
                        pos: *pos,
                    });
                    CExpr::Var(tmp)
                } else {
                    call
                }
            }
            CExpr::Binary { op, lhs, rhs, pos } => CExpr::Binary {
                op: *op,
                lhs: Box::new(self.hoist_expr(lhs, prefix, false)?),
                rhs: Box::new(self.hoist_expr(rhs, prefix, false)?),
                pos: *pos,
            },
            CExpr::Unary { op, operand, pos } => CExpr::Unary {
                op: *op,
                operand: Box::new(self.hoist_expr(operand, prefix, false)?),
                pos: *pos,
            },
            CExpr::Index { array, index, pos } => CExpr::Index {
                array: Box::new(self.hoist_expr(array, prefix, false)?),
                index: Box::new(self.hoist_expr(index, prefix, false)?),
                pos: *pos,
            },
            other => other.clone(),
        })
    }

    fn hoist_stmts(&mut self, stmts: &[Stmt]) -> Result<Vec<Stmt>, CompileError> {
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            let mut prefix = Vec::new();
            let rewritten = match stmt {
                Stmt::Decl {
                    ty,
                    name,
                    init,
                    pos,
                } => {
                    let init = init
                        .as_ref()
                        .map(|e| self.hoist_expr(e, &mut prefix, true))
                        .transpose()?;
                    Stmt::Decl {
                        ty: ty.clone(),
                        name: name.clone(),
                        init,
                        pos: *pos,
                    }
                }
                Stmt::Assign { name, value, pos } => Stmt::Assign {
                    name: name.clone(),
                    value: self.hoist_expr(value, &mut prefix, true)?,
                    pos: *pos,
                },
                Stmt::StoreIndex {
                    array,
                    index,
                    value,
                    pos,
                } => Stmt::StoreIndex {
                    array: array.clone(),
                    index: self.hoist_expr(index, &mut prefix, false)?,
                    value: self.hoist_expr(value, &mut prefix, false)?,
                    pos: *pos,
                },
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    pos,
                } => Stmt::If {
                    cond: self.hoist_expr(cond, &mut prefix, false)?,
                    then_branch: self.hoist_stmts(then_branch)?,
                    else_branch: self.hoist_stmts(else_branch)?,
                    pos: *pos,
                },
                Stmt::While { cond, body, pos } => {
                    if cond.contains_call_to(&|n| self.is_suspending_call(n)) {
                        return Err(CompileError::at(
                            *pos,
                            "calls to user functions (or speculate) are not supported in a \
                             `while` condition; compute the condition in the loop body instead",
                        ));
                    }
                    Stmt::While {
                        cond: cond.clone(),
                        body: self.hoist_stmts(body)?,
                        pos: *pos,
                    }
                }
                Stmt::Return { value, pos } => Stmt::Return {
                    value: value
                        .as_ref()
                        .map(|e| self.hoist_expr(e, &mut prefix, false))
                        .transpose()?,
                    pos: *pos,
                },
                Stmt::Expr(e) => Stmt::Expr(self.hoist_expr(e, &mut prefix, true)?),
                Stmt::Block(inner) => Stmt::Block(self.hoist_stmts(inner)?),
            };
            out.extend(prefix);
            out.push(rewritten);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Pre-pass 2: α-rename declarations so every variable is unique
    // ------------------------------------------------------------------

    fn rename_stmts(
        &mut self,
        stmts: &[Stmt],
        scopes: &mut Vec<HashMap<String, String>>,
    ) -> Result<Vec<Stmt>, CompileError> {
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(self.rename_stmt(stmt, scopes)?);
        }
        Ok(out)
    }

    fn resolve_name(
        scopes: &[HashMap<String, String>],
        name: &str,
        pos: SourcePos,
    ) -> Result<String, CompileError> {
        for scope in scopes.iter().rev() {
            if let Some(unique) = scope.get(name) {
                return Ok(unique.clone());
            }
        }
        Err(CompileError::at(pos, format!("unknown variable `{name}`")))
    }

    fn rename_expr(
        &mut self,
        e: &CExpr,
        scopes: &[HashMap<String, String>],
    ) -> Result<CExpr, CompileError> {
        Ok(match e {
            CExpr::Var(name) => CExpr::Var(Self::resolve_name(scopes, name, SourcePos::default())?),
            CExpr::Binary { op, lhs, rhs, pos } => CExpr::Binary {
                op: *op,
                lhs: Box::new(self.rename_expr(lhs, scopes)?),
                rhs: Box::new(self.rename_expr(rhs, scopes)?),
                pos: *pos,
            },
            CExpr::Unary { op, operand, pos } => CExpr::Unary {
                op: *op,
                operand: Box::new(self.rename_expr(operand, scopes)?),
                pos: *pos,
            },
            CExpr::Call { name, args, pos } => {
                if self.callee_kind(name).is_none() {
                    return Err(CompileError::at(*pos, format!("unknown function `{name}`")));
                }
                CExpr::Call {
                    name: name.clone(),
                    args: args
                        .iter()
                        .map(|a| self.rename_expr(a, scopes))
                        .collect::<Result<Vec<_>, _>>()?,
                    pos: *pos,
                }
            }
            CExpr::Index { array, index, pos } => CExpr::Index {
                array: Box::new(self.rename_expr(array, scopes)?),
                index: Box::new(self.rename_expr(index, scopes)?),
                pos: *pos,
            },
            other => other.clone(),
        })
    }

    fn rename_stmt(
        &mut self,
        stmt: &Stmt,
        scopes: &mut Vec<HashMap<String, String>>,
    ) -> Result<Stmt, CompileError> {
        Ok(match stmt {
            Stmt::Decl {
                ty,
                name,
                init,
                pos,
            } => {
                let init = init
                    .as_ref()
                    .map(|e| self.rename_expr(e, scopes))
                    .transpose()?;
                let scope = scopes.last_mut().expect("at least one scope");
                if scope.contains_key(name) {
                    return Err(CompileError::at(
                        *pos,
                        format!("variable `{name}` is already declared in this scope"),
                    ));
                }
                self.rename_counter += 1;
                let unique = format!("{name}@{}", self.rename_counter);
                scope.insert(name.clone(), unique.clone());
                Stmt::Decl {
                    ty: ty.clone(),
                    name: unique,
                    init,
                    pos: *pos,
                }
            }
            Stmt::Assign { name, value, pos } => Stmt::Assign {
                name: Self::resolve_name(scopes, name, *pos)?,
                value: self.rename_expr(value, scopes)?,
                pos: *pos,
            },
            Stmt::StoreIndex {
                array,
                index,
                value,
                pos,
            } => Stmt::StoreIndex {
                array: Self::resolve_name(scopes, array, *pos)?,
                index: self.rename_expr(index, scopes)?,
                value: self.rename_expr(value, scopes)?,
                pos: *pos,
            },
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                pos,
            } => {
                let cond = self.rename_expr(cond, scopes)?;
                scopes.push(HashMap::new());
                let then_branch = self.rename_stmts(then_branch, scopes)?;
                scopes.pop();
                scopes.push(HashMap::new());
                let else_branch = self.rename_stmts(else_branch, scopes)?;
                scopes.pop();
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    pos: *pos,
                }
            }
            Stmt::While { cond, body, pos } => {
                let cond = self.rename_expr(cond, scopes)?;
                scopes.push(HashMap::new());
                let body = self.rename_stmts(body, scopes)?;
                scopes.pop();
                Stmt::While {
                    cond,
                    body,
                    pos: *pos,
                }
            }
            Stmt::Return { value, pos } => Stmt::Return {
                value: value
                    .as_ref()
                    .map(|e| self.rename_expr(e, scopes))
                    .transpose()?,
                pos: *pos,
            },
            Stmt::Expr(e) => Stmt::Expr(self.rename_expr(e, scopes)?),
            Stmt::Block(inner) => {
                scopes.push(HashMap::new());
                let inner = self.rename_stmts(inner, scopes)?;
                scopes.pop();
                Stmt::Block(inner)
            }
        })
    }

    // ------------------------------------------------------------------
    // Slot assignment
    // ------------------------------------------------------------------

    fn collect_slots(stmts: &[Stmt], slots: &mut HashMap<String, (usize, CType)>) {
        for stmt in stmts {
            match stmt {
                Stmt::Decl { ty, name, .. } => {
                    let slot = slots.len();
                    slots.insert(name.clone(), (slot, ty.clone()));
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    Self::collect_slots(then_branch, slots);
                    Self::collect_slots(else_branch, slots);
                }
                Stmt::While { body, .. } => Self::collect_slots(body, slots),
                Stmt::Block(inner) => Self::collect_slots(inner, slots),
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Function lowering
    // ------------------------------------------------------------------

    fn lower_function(&mut self, f: &FunDecl) -> Result<(), CompileError> {
        let (fun_id, param_vars) = {
            let (id, _) = self.user[&f.name];
            let def = self.pb.program().fun(id).expect("declared").clone();
            (id, def.params.iter().map(|(v, _)| *v).collect::<Vec<_>>())
        };

        // Pre-passes.
        let hoisted = self.hoist_stmts(&f.body)?;
        let mut scopes = vec![HashMap::new()];
        for (_, name) in &f.params {
            // Parameters keep their names (they are unique within the
            // parameter list by construction of the parser + this check).
            if scopes[0].insert(name.clone(), name.clone()).is_some() {
                return Err(CompileError::at(
                    f.pos,
                    format!("duplicate parameter `{name}` in `{}`", f.name),
                ));
            }
        }
        let renamed = self.rename_stmts(&hoisted, &mut scopes)?;

        // Frame layout: parameters first, then every declaration.
        let mut slots: HashMap<String, (usize, CType)> = HashMap::new();
        for (ty, name) in &f.params {
            let slot = slots.len();
            slots.insert(name.clone(), (slot, ty.clone()));
        }
        Self::collect_slots(&renamed, &mut slots);
        let nslots = slots.len().max(1);

        let mut st = FnState {
            fname: f.name.clone(),
            slots,
            nslots,
            gen: 0,
            ret: f.ret.clone(),
        };

        let frame = self.pb.var("frame");
        let retk = *param_vars.last().expect("retk parameter");
        let body_rest = self.lower_stmts(&mut st, &renamed, frame, retk, NextCont::Return)?;

        // Store parameters into their frame slots (innermost first when
        // wrapping, so iterate in reverse source order).
        let mut body = body_rest;
        for (i, (_, name)) in f.params.iter().enumerate().rev() {
            let (slot, _) = st.slots[name];
            body = Expr::Store {
                ptr: Atom::Var(frame),
                index: Atom::Int(slot as i64),
                value: Atom::Var(param_vars[i]),
                body: Box::new(body),
            };
        }
        let body = Expr::LetAlloc {
            dst: frame,
            elem: Ty::Any,
            len: Atom::Int(st.nslots as i64),
            init: Atom::Int(0),
            body: Box::new(body),
        };
        self.pb.define(fun_id, body);
        Ok(())
    }

    fn gen_name(&mut self, st: &mut FnState, kind: &str) -> String {
        st.gen += 1;
        format!("{}__{}{}", st.fname, kind, st.gen)
    }

    /// Declare a continuation function taking `(frame, retk)`.
    fn declare_cont(&mut self, st: &mut FnState, kind: &str) -> (FunId, VarId, VarId) {
        let name = self.gen_name(st, kind);
        let (id, params) = self
            .pb
            .declare(&name, &[("frame", Ty::ptr(Ty::Any)), ("retk", retk_ty())]);
        (id, params[0], params[1])
    }

    fn emit_next(&self, next: &NextCont, frame: VarId, retk: VarId) -> Expr {
        match next {
            NextCont::Return => Expr::TailCall {
                target: Atom::Var(retk),
                args: vec![Atom::Int(0)],
            },
            NextCont::Call(fun) => Expr::TailCall {
                target: Atom::Fun(*fun),
                args: vec![Atom::Var(frame), Atom::Var(retk)],
            },
        }
    }

    fn wrap_pre(pre: Vec<Pre>, tail: Expr) -> Expr {
        let mut expr = tail;
        for p in pre.into_iter().rev() {
            expr = match p {
                Pre::Unop(dst, op, arg) => Expr::LetUnop {
                    dst,
                    op,
                    arg,
                    body: Box::new(expr),
                },
                Pre::Binop(dst, op, lhs, rhs) => Expr::LetBinop {
                    dst,
                    op,
                    lhs,
                    rhs,
                    body: Box::new(expr),
                },
                Pre::Load(dst, ty, ptr, index) => Expr::LetLoad {
                    dst,
                    ty,
                    ptr,
                    index,
                    body: Box::new(expr),
                },
                Pre::Store(ptr, index, value) => Expr::Store {
                    ptr,
                    index,
                    value,
                    body: Box::new(expr),
                },
                Pre::Alloc(dst, elem, len, init) => Expr::LetAlloc {
                    dst,
                    elem,
                    len,
                    init,
                    body: Box::new(expr),
                },
                Pre::AllocRaw(dst, size) => Expr::LetAllocRaw {
                    dst,
                    size,
                    body: Box::new(expr),
                },
                Pre::LoadRaw(dst, width, ptr, offset) => Expr::LetLoadRaw {
                    dst,
                    width,
                    ptr,
                    offset,
                    body: Box::new(expr),
                },
                Pre::StoreRaw(width, ptr, offset, value) => Expr::StoreRaw {
                    width,
                    ptr,
                    offset,
                    value,
                    body: Box::new(expr),
                },
                Pre::Len(dst, ptr) => Expr::LetLen {
                    dst,
                    ptr,
                    body: Box::new(expr),
                },
                Pre::Ext(dst, ty, name, args) => Expr::LetExt {
                    dst,
                    ty,
                    name,
                    args,
                    body: Box::new(expr),
                },
            };
        }
        expr
    }

    // ------------------------------------------------------------------
    // Expression lowering (call-free expressions)
    // ------------------------------------------------------------------

    fn lower_value(
        &mut self,
        st: &FnState,
        e: &CExpr,
        frame: VarId,
        pre: &mut Vec<Pre>,
    ) -> Result<(Atom, CType), CompileError> {
        Ok(match e {
            CExpr::Int(v) => (Atom::Int(*v), CType::Int),
            CExpr::Float(v) => (Atom::Float(*v), CType::Float),
            CExpr::Bool(v) => (Atom::Bool(*v), CType::Bool),
            CExpr::Char(c) => (Atom::Char(*c), CType::Char),
            CExpr::Str(s) => (Atom::Str(s.clone()), CType::Str),
            CExpr::Var(name) => {
                let (slot, ty) = st.slots.get(name).cloned().ok_or_else(|| {
                    CompileError::general(format!("internal: unresolved variable `{name}`"))
                })?;
                let dst = self.pb.tmp();
                pre.push(Pre::Load(
                    dst,
                    fir_ty(&ty),
                    Atom::Var(frame),
                    Atom::Int(slot as i64),
                ));
                (Atom::Var(dst), ty)
            }
            CExpr::Unary { op, operand, pos } => {
                let (a, ty) = self.lower_value(st, operand, frame, pre)?;
                let dst = self.pb.tmp();
                let (fir_op, rty) = match (op, &ty) {
                    (UnOp::Neg, CType::Int) => (Unop::Neg, CType::Int),
                    (UnOp::Neg, CType::Float) => (Unop::FNeg, CType::Float),
                    (UnOp::Not, CType::Bool) => (Unop::Not, CType::Bool),
                    (UnOp::BitNot, CType::Int) => (Unop::BNot, CType::Int),
                    _ => {
                        return Err(CompileError::at(
                            *pos,
                            format!("operator cannot be applied to `{}`", ty.name()),
                        ))
                    }
                };
                pre.push(Pre::Unop(dst, fir_op, a));
                (Atom::Var(dst), rty)
            }
            CExpr::Binary { op, lhs, rhs, pos } => {
                let (a, lty) = self.lower_value(st, lhs, frame, pre)?;
                let (b, _rty) = self.lower_value(st, rhs, frame, pre)?;
                let dst = self.pb.tmp();
                let (fir_op, result) = match op {
                    BinOp::Add => (Binop::Add, lty.clone()),
                    BinOp::Sub => (Binop::Sub, lty.clone()),
                    BinOp::Mul => (Binop::Mul, lty.clone()),
                    BinOp::Div => (Binop::Div, lty.clone()),
                    BinOp::Rem => (Binop::Rem, CType::Int),
                    BinOp::Eq => (Binop::Eq, CType::Bool),
                    BinOp::Ne => (Binop::Ne, CType::Bool),
                    BinOp::Lt => (Binop::Lt, CType::Bool),
                    BinOp::Le => (Binop::Le, CType::Bool),
                    BinOp::Gt => (Binop::Gt, CType::Bool),
                    BinOp::Ge => (Binop::Ge, CType::Bool),
                    BinOp::And => (Binop::BAnd, CType::Bool),
                    BinOp::Or => (Binop::BOr, CType::Bool),
                    BinOp::BitAnd => (Binop::BAnd, CType::Int),
                    BinOp::BitOr => (Binop::BOr, CType::Int),
                    BinOp::BitXor => (Binop::BXor, CType::Int),
                    BinOp::Shl => (Binop::Shl, CType::Int),
                    BinOp::Shr => (Binop::Shr, CType::Int),
                };
                let _ = pos;
                pre.push(Pre::Binop(dst, fir_op, a, b));
                (Atom::Var(dst), result)
            }
            CExpr::Index { array, index, pos } => {
                let (arr, arr_ty) = self.lower_value(st, array, frame, pre)?;
                let (idx, _) = self.lower_value(st, index, frame, pre)?;
                match arr_ty {
                    CType::Array(elem) => {
                        let dst = self.pb.tmp();
                        pre.push(Pre::Load(dst, fir_ty(&elem), arr, idx));
                        (Atom::Var(dst), *elem)
                    }
                    CType::Buffer => {
                        return Err(CompileError::at(
                            *pos,
                            "use `peek(buffer, offset)` / `poke(buffer, offset, value)` to \
                             access raw buffers",
                        ))
                    }
                    other => {
                        return Err(CompileError::at(
                            *pos,
                            format!("cannot index a value of type `{}`", other.name()),
                        ))
                    }
                }
            }
            CExpr::Call { name, args, pos } => {
                self.lower_simple_call(st, name, args, *pos, frame, pre)?
            }
        })
    }

    /// Lower a call that does not suspend: externs and builtins that map to
    /// straight-line FIR.
    fn lower_simple_call(
        &mut self,
        st: &FnState,
        name: &str,
        args: &[CExpr],
        pos: SourcePos,
        frame: VarId,
        pre: &mut Vec<Pre>,
    ) -> Result<(Atom, CType), CompileError> {
        let check_arity = |expected: usize| -> Result<(), CompileError> {
            if args.len() != expected {
                Err(CompileError::at(
                    pos,
                    format!(
                        "`{name}` expects {expected} argument(s), found {}",
                        args.len()
                    ),
                ))
            } else {
                Ok(())
            }
        };
        match name {
            "alloc_int" | "alloc_float" => {
                check_arity(1)?;
                let (len, _) = self.lower_value(st, &args[0], frame, pre)?;
                let dst = self.pb.tmp();
                let (elem, init, cty) = if name == "alloc_int" {
                    (Ty::Int, Atom::Int(0), CType::Array(Box::new(CType::Int)))
                } else {
                    (
                        Ty::Float,
                        Atom::Float(0.0),
                        CType::Array(Box::new(CType::Float)),
                    )
                };
                pre.push(Pre::Alloc(dst, elem, len, init));
                Ok((Atom::Var(dst), cty))
            }
            "alloc_buffer" => {
                check_arity(1)?;
                let (size, _) = self.lower_value(st, &args[0], frame, pre)?;
                let dst = self.pb.tmp();
                pre.push(Pre::AllocRaw(dst, size));
                Ok((Atom::Var(dst), CType::Buffer))
            }
            "length" => {
                check_arity(1)?;
                let (ptr, _) = self.lower_value(st, &args[0], frame, pre)?;
                let dst = self.pb.tmp();
                pre.push(Pre::Len(dst, ptr));
                Ok((Atom::Var(dst), CType::Int))
            }
            "int_of" => {
                check_arity(1)?;
                let (a, _) = self.lower_value(st, &args[0], frame, pre)?;
                let dst = self.pb.tmp();
                pre.push(Pre::Unop(dst, Unop::IntOfFloat, a));
                Ok((Atom::Var(dst), CType::Int))
            }
            "float_of" => {
                check_arity(1)?;
                let (a, _) = self.lower_value(st, &args[0], frame, pre)?;
                let dst = self.pb.tmp();
                pre.push(Pre::Unop(dst, Unop::FloatOfInt, a));
                Ok((Atom::Var(dst), CType::Float))
            }
            "peek" => {
                check_arity(2)?;
                let (ptr, _) = self.lower_value(st, &args[0], frame, pre)?;
                let (off, _) = self.lower_value(st, &args[1], frame, pre)?;
                let dst = self.pb.tmp();
                pre.push(Pre::LoadRaw(dst, 1, ptr, off));
                Ok((Atom::Var(dst), CType::Int))
            }
            "poke" => {
                check_arity(3)?;
                let (ptr, _) = self.lower_value(st, &args[0], frame, pre)?;
                let (off, _) = self.lower_value(st, &args[1], frame, pre)?;
                let (val, _) = self.lower_value(st, &args[2], frame, pre)?;
                pre.push(Pre::StoreRaw(1, ptr, off, val));
                Ok((Atom::Unit, CType::Void))
            }
            _ => {
                if let Some(sig) = self.externs.lookup(name) {
                    check_arity(sig.params.len())?;
                    let ret = c_ty(&sig.ret);
                    let mut atoms = Vec::with_capacity(args.len());
                    for a in args {
                        atoms.push(self.lower_value(st, a, frame, pre)?.0);
                    }
                    let dst = self.pb.tmp();
                    pre.push(Pre::Ext(dst, fir_ty(&ret), name.to_owned(), atoms));
                    Ok((Atom::Var(dst), ret))
                } else if self.user.contains_key(name) || name == "speculate" {
                    Err(CompileError::at(
                        pos,
                        format!("internal: call to `{name}` was not hoisted out of an expression"),
                    ))
                } else {
                    Err(CompileError::at(pos, format!("unknown function `{name}`")))
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Statement lowering
    // ------------------------------------------------------------------

    fn slot_of(
        &self,
        st: &FnState,
        name: &str,
        pos: SourcePos,
    ) -> Result<(usize, CType), CompileError> {
        st.slots
            .get(name)
            .cloned()
            .ok_or_else(|| CompileError::at(pos, format!("unknown variable `{name}`")))
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_user_call_suspension(
        &mut self,
        st: &mut FnState,
        callee: &str,
        args: &[CExpr],
        dest_slot: Option<usize>,
        rest: &[Stmt],
        frame: VarId,
        retk: VarId,
        next: NextCont,
        pos: SourcePos,
    ) -> Result<Expr, CompileError> {
        let (callee_id, sig) = self
            .user
            .get(callee)
            .cloned()
            .ok_or_else(|| CompileError::at(pos, format!("unknown function `{callee}`")))?;
        if sig.params.len() != args.len() {
            return Err(CompileError::at(
                pos,
                format!(
                    "`{callee}` expects {} argument(s), found {}",
                    sig.params.len(),
                    args.len()
                ),
            ));
        }
        // The return continuation: (env, ret) — env captures frame and retk.
        let name = self.gen_name(st, "ret");
        let (ret_cont, ret_params) = self
            .pb
            .declare(&name, &[("env", Ty::ptr(Ty::Any)), ("ret", Ty::Any)]);
        let env_p = ret_params[0];
        let ret_p = ret_params[1];
        let frame2 = self.pb.var("frame");
        let retk2 = self.pb.var("retk");
        let rest_expr = self.lower_stmts(st, rest, frame2, retk2, next)?;
        let after_store = if let Some(slot) = dest_slot {
            Expr::Store {
                ptr: Atom::Var(frame2),
                index: Atom::Int(slot as i64),
                value: Atom::Var(ret_p),
                body: Box::new(rest_expr),
            }
        } else {
            rest_expr
        };
        let cont_body = Expr::LetLoad {
            dst: frame2,
            ty: Ty::ptr(Ty::Any),
            ptr: Atom::Var(env_p),
            index: Atom::Int(1),
            body: Box::new(Expr::LetLoad {
                dst: retk2,
                ty: retk_ty(),
                ptr: Atom::Var(env_p),
                index: Atom::Int(2),
                body: Box::new(after_store),
            }),
        };
        self.pb.define(ret_cont, cont_body);

        // The call site.
        let mut pre = Vec::new();
        let mut atoms = Vec::with_capacity(args.len() + 1);
        for a in args {
            atoms.push(self.lower_value(st, a, frame, &mut pre)?.0);
        }
        let k = self.pb.tmp();
        atoms.push(Atom::Var(k));
        let call = Expr::LetClosure {
            dst: k,
            fun: ret_cont,
            captured: vec![Atom::Var(frame), Atom::Var(retk)],
            arg_tys: vec![Ty::Any],
            body: Box::new(Expr::TailCall {
                target: Atom::Fun(callee_id),
                args: atoms,
            }),
        };
        Ok(Self::wrap_pre(pre, call))
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_speculate_suspension(
        &mut self,
        st: &mut FnState,
        dest_slot: Option<usize>,
        rest: &[Stmt],
        frame: VarId,
        retk: VarId,
        next: NextCont,
    ) -> Result<Expr, CompileError> {
        let name = self.gen_name(st, "spec");
        let (spec_cont, params) = self.pb.declare(
            &name,
            &[
                ("c", Ty::Int),
                ("frame", Ty::ptr(Ty::Any)),
                ("retk", retk_ty()),
            ],
        );
        let c_p = params[0];
        let frame_p = params[1];
        let retk_p = params[2];
        let rest_expr = self.lower_stmts(st, rest, frame_p, retk_p, next)?;
        let body = if let Some(slot) = dest_slot {
            Expr::Store {
                ptr: Atom::Var(frame_p),
                index: Atom::Int(slot as i64),
                value: Atom::Var(c_p),
                body: Box::new(rest_expr),
            }
        } else {
            rest_expr
        };
        self.pb.define(spec_cont, body);
        Ok(Expr::Speculate {
            fun: Atom::Fun(spec_cont),
            args: vec![Atom::Var(frame), Atom::Var(retk)],
        })
    }

    fn lower_stmts(
        &mut self,
        st: &mut FnState,
        stmts: &[Stmt],
        frame: VarId,
        retk: VarId,
        next: NextCont,
    ) -> Result<Expr, CompileError> {
        let Some((stmt, rest)) = stmts.split_first() else {
            return Ok(self.emit_next(&next, frame, retk));
        };
        match stmt {
            Stmt::Decl { name, pos, .. } | Stmt::Assign { name, pos, .. } => {
                // Unify: Decl-with-init and Assign store a value into a slot;
                // a Decl without an initialiser leaves the default 0.
                let init = match stmt {
                    Stmt::Decl { init, .. } => init.clone(),
                    Stmt::Assign { value, .. } => Some(value.clone()),
                    _ => unreachable!(),
                };
                let (slot, _ty) = self.slot_of(st, name, *pos)?;
                match init {
                    None => self.lower_stmts(st, rest, frame, retk, next),
                    Some(CExpr::Call {
                        name: callee,
                        args,
                        pos,
                    }) if self.user.contains_key(&callee) => self.lower_user_call_suspension(
                        st,
                        &callee,
                        &args,
                        Some(slot),
                        rest,
                        frame,
                        retk,
                        next,
                        pos,
                    ),
                    Some(CExpr::Call {
                        name: callee,
                        args,
                        pos,
                    }) if callee == "speculate" => {
                        if !args.is_empty() {
                            return Err(CompileError::at(pos, "`speculate` takes no arguments"));
                        }
                        self.lower_speculate_suspension(st, Some(slot), rest, frame, retk, next)
                    }
                    Some(value) => {
                        let mut pre = Vec::new();
                        let (atom, _vty) = self.lower_value(st, &value, frame, &mut pre)?;
                        pre.push(Pre::Store(Atom::Var(frame), Atom::Int(slot as i64), atom));
                        let rest_expr = self.lower_stmts(st, rest, frame, retk, next)?;
                        Ok(Self::wrap_pre(pre, rest_expr))
                    }
                }
            }
            Stmt::StoreIndex {
                array,
                index,
                value,
                pos,
            } => {
                let (slot, arr_ty) = self.slot_of(st, array, *pos)?;
                let mut pre = Vec::new();
                let arr = self.pb.tmp();
                pre.push(Pre::Load(
                    arr,
                    fir_ty(&arr_ty),
                    Atom::Var(frame),
                    Atom::Int(slot as i64),
                ));
                let (idx, _) = self.lower_value(st, index, frame, &mut pre)?;
                let (val, _) = self.lower_value(st, value, frame, &mut pre)?;
                match arr_ty {
                    CType::Array(_) => pre.push(Pre::Store(Atom::Var(arr), idx, val)),
                    CType::Buffer => {
                        return Err(CompileError::at(
                            *pos,
                            "use `poke(buffer, offset, value)` to write raw buffers",
                        ))
                    }
                    other => {
                        return Err(CompileError::at(
                            *pos,
                            format!("cannot index a value of type `{}`", other.name()),
                        ))
                    }
                }
                let rest_expr = self.lower_stmts(st, rest, frame, retk, next)?;
                Ok(Self::wrap_pre(pre, rest_expr))
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let branch_next = if rest.is_empty() {
                    next.clone()
                } else {
                    let (join, frame_p, retk_p) = self.declare_cont(st, "join");
                    let join_body = self.lower_stmts(st, rest, frame_p, retk_p, next)?;
                    self.pb.define(join, join_body);
                    NextCont::Call(join)
                };
                let mut pre = Vec::new();
                let (cond_atom, _) = self.lower_value(st, cond, frame, &mut pre)?;
                let then_expr =
                    self.lower_stmts(st, then_branch, frame, retk, branch_next.clone())?;
                let else_expr = self.lower_stmts(st, else_branch, frame, retk, branch_next)?;
                Ok(Self::wrap_pre(
                    pre,
                    Expr::If {
                        cond: cond_atom,
                        then_: Box::new(then_expr),
                        else_: Box::new(else_expr),
                    },
                ))
            }
            Stmt::While { cond, body, .. } => {
                let exit_next = if rest.is_empty() {
                    next.clone()
                } else {
                    let (after, frame_p, retk_p) = self.declare_cont(st, "after");
                    let after_body = self.lower_stmts(st, rest, frame_p, retk_p, next)?;
                    self.pb.define(after, after_body);
                    NextCont::Call(after)
                };
                let (loop_fun, frame_p, retk_p) = self.declare_cont(st, "loop");
                let mut pre = Vec::new();
                let (cond_atom, _) = self.lower_value(st, cond, frame_p, &mut pre)?;
                let body_expr =
                    self.lower_stmts(st, body, frame_p, retk_p, NextCont::Call(loop_fun))?;
                let exit_expr = self.emit_next(&exit_next, frame_p, retk_p);
                let loop_body = Self::wrap_pre(
                    pre,
                    Expr::If {
                        cond: cond_atom,
                        then_: Box::new(body_expr),
                        else_: Box::new(exit_expr),
                    },
                );
                self.pb.define(loop_fun, loop_body);
                Ok(Expr::TailCall {
                    target: Atom::Fun(loop_fun),
                    args: vec![Atom::Var(frame), Atom::Var(retk)],
                })
            }
            Stmt::Return { value, .. } => {
                let mut pre = Vec::new();
                let atom = match value {
                    Some(e) => self.lower_value(st, e, frame, &mut pre)?.0,
                    None => Atom::Int(0),
                };
                let _ = &st.ret;
                Ok(Self::wrap_pre(
                    pre,
                    Expr::TailCall {
                        target: Atom::Var(retk),
                        args: vec![atom],
                    },
                ))
            }
            Stmt::Block(inner) => {
                let combined: Vec<Stmt> = inner.iter().chain(rest.iter()).cloned().collect();
                self.lower_stmts(st, &combined, frame, retk, next)
            }
            Stmt::Expr(e) => self.lower_expr_stmt(st, e, rest, frame, retk, next),
        }
    }

    fn lower_expr_stmt(
        &mut self,
        st: &mut FnState,
        e: &CExpr,
        rest: &[Stmt],
        frame: VarId,
        retk: VarId,
        next: NextCont,
    ) -> Result<Expr, CompileError> {
        if let CExpr::Call { name, args, pos } = e {
            if self.user.contains_key(name) {
                return self.lower_user_call_suspension(
                    st, name, args, None, rest, frame, retk, next, *pos,
                );
            }
            match name.as_str() {
                "speculate" => {
                    return self.lower_speculate_suspension(st, None, rest, frame, retk, next)
                }
                "commit" => {
                    if args.len() != 1 {
                        return Err(CompileError::at(*pos, "`commit` expects one argument"));
                    }
                    let mut pre = Vec::new();
                    let (level, _) = self.lower_value(st, &args[0], frame, &mut pre)?;
                    let (cont, frame_p, retk_p) = self.declare_cont(st, "cont");
                    let cont_body = self.lower_stmts(st, rest, frame_p, retk_p, next)?;
                    self.pb.define(cont, cont_body);
                    return Ok(Self::wrap_pre(
                        pre,
                        Expr::Commit {
                            level,
                            fun: Atom::Fun(cont),
                            args: vec![Atom::Var(frame), Atom::Var(retk)],
                        },
                    ));
                }
                "abort" | "retry" => {
                    if args.len() != 1 {
                        return Err(CompileError::at(
                            *pos,
                            format!("`{name}` expects one argument"),
                        ));
                    }
                    let mut pre = Vec::new();
                    let (level, _) = self.lower_value(st, &args[0], frame, &mut pre)?;
                    let code = if name == "abort" {
                        Atom::Int(0)
                    } else {
                        level.clone()
                    };
                    return Ok(Self::wrap_pre(pre, Expr::Rollback { level, code }));
                }
                "checkpoint" | "suspend" | "migrate" => {
                    if args.len() != 1 {
                        return Err(CompileError::at(
                            *pos,
                            format!("`{name}` expects one argument"),
                        ));
                    }
                    let scheme = match name.as_str() {
                        "checkpoint" => "checkpoint",
                        "suspend" => "suspend",
                        _ => "migrate",
                    };
                    let mut pre = Vec::new();
                    let (target_atom, target_ty) =
                        self.lower_value(st, &args[0], frame, &mut pre)?;
                    if target_ty != CType::Str {
                        return Err(CompileError::at(
                            *pos,
                            format!("`{name}` expects a string argument"),
                        ));
                    }
                    let target = match target_atom {
                        Atom::Str(s) => Atom::Str(format!("{scheme}://{s}")),
                        other => {
                            let dst = self.pb.tmp();
                            pre.push(Pre::Ext(
                                dst,
                                Ty::Str,
                                "str_concat".to_owned(),
                                vec![Atom::Str(format!("{scheme}://")), other],
                            ));
                            Atom::Var(dst)
                        }
                    };
                    let label = self.pb.label();
                    let (cont, frame_p, retk_p) = self.declare_cont(st, "mig");
                    let cont_body = self.lower_stmts(st, rest, frame_p, retk_p, next)?;
                    self.pb.define(cont, cont_body);
                    return Ok(Self::wrap_pre(
                        pre,
                        Expr::Migrate {
                            label,
                            target,
                            fun: Atom::Fun(cont),
                            args: vec![Atom::Var(frame), Atom::Var(retk)],
                        },
                    ));
                }
                _ => {}
            }
        }
        // Any other expression statement: evaluate for effect and continue.
        let mut pre = Vec::new();
        let _ = self.lower_value(st, e, frame, &mut pre)?;
        let rest_expr = self.lower_stmts(st, rest, frame, retk, next)?;
        Ok(Self::wrap_pre(pre, rest_expr))
    }
}
