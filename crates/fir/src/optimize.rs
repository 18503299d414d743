//! The FIR optimiser: scoped value numbering over each function's let-tree.
//!
//! MojaveC keeps every local in a heap frame so that a rollback restores it
//! (paper §4.3), and its lowering re-reads those slots and recomputes the
//! same index expressions at every use.  [`optimize`] removes that repeated
//! work and nothing else.  It is one forward walk per function (Briggs,
//! Cooper & Simpson, "Value Numbering", 1997, the scoped hash-table form)
//! followed by one backward walk:
//!
//! * **Value numbering.**  A `LetBinop`, `LetUnop` or `LetLoad` with the
//!   same operator, the same operands and (for loads) the same declared type
//!   as one that dominates it becomes that one's variable.  Facts from
//!   before an `If` hold in both branches and facts from inside a branch
//!   do not leave it.  Load facts are forgotten at every `Store`,
//!   `StoreRaw` and extern call, and a `Store` makes its value the fact for
//!   its `(ptr, index)`, so a later load of that slot reads the stored
//!   variable.  A repeated load therefore reads a word nothing has changed
//!   since an identical load succeeded: it would read the same word and
//!   cannot trap.
//! * **Copy propagation.**  `let y : t = x` where `x` has type `t` becomes
//!   `x`.
//! * **Constant folding**, only where the operation cannot trap: no `Div` or
//!   `Rem` by a possible zero, no float arithmetic, and only operands whose
//!   kind is known.  A folded `let` becomes `let y = c` where that is no
//!   more instructions than it was, and an `If` on a known condition becomes
//!   the branch it takes.
//! * **Dead-let elimination** of `let`s whose variable is unused and that
//!   cannot trap or allocate: atoms other than strings, and unary and binary
//!   operators whose operand kinds are known to fit.
//!
//! What stays: every store, allocation, extern call and terminator.  A
//! string atom allocates at each use, so a `let` that reads one is never
//! merged, folded or dropped.  Constants are never propagated into uses:
//! each use of a constant costs the back end one instruction, each use of a
//! variable none.  So the optimised program never runs more instructions
//! than its input on any path, and it allocates the same blocks in the same
//! order, with the same set of values in registers at every allocation.
//!
//! The pass is intra-function: function ids, arities and parameters do not
//! change, so resume continuations and migrate environments mean what they
//! meant.  Each let-chain is walked iteratively; the walk recurses only
//! into the branches of an `If`, as deep as the lowering that built the
//! tree.  The input must pass [`crate::typecheck()`]; the output passes it
//! too, and optimising it again changes nothing.

use crate::atom::{Atom, FunId, VarId};
use crate::expr::{Binop, Expr, Unop};
use crate::program::Program;
use crate::types::Ty;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Optimise every function of a type-checked `program` (see the module
/// docs).
pub fn optimize(mut program: Program) -> Program {
    let mut pass = Pass {
        bound: VarMap::dense(program.next_var),
        uses: VarMap::dense(program.next_var),
        ..Pass::default()
    };
    for scalar in [
        Ty::Unit,
        Ty::Int,
        Ty::Float,
        Ty::Bool,
        Ty::Char,
        Ty::Str,
        Ty::Any,
    ] {
        pass.types.intern(&scalar);
    }
    for index in 0..program.funs.len() {
        let fun = &program.funs[index];
        pass.forget_function();
        for (v, ty) in &fun.params {
            let ty = pass.types.intern(ty);
            pass.bind(*v, Bound::kept(ty));
        }
        let body = Box::new(std::mem::replace(
            &mut program.funs[index].body,
            placeholder(),
        ));
        program.funs[index].body = *pass.chain(body, &program);
    }
    program
}

/// An interned [`Ty`]: an index into [`Types::list`].
type TyId = u32;
const UNIT: TyId = 0;
const INT: TyId = 1;
const FLOAT: TyId = 2;
const BOOL: TyId = 3;
const CHAR: TyId = 4;
const STR: TyId = 5;
const ANY: TyId = 6;

/// Every type the pass has met, once each, so that variables, keys and
/// scoped undo entries carry a `u32` rather than a clone of a boxed type.
#[derive(Default)]
struct Types {
    list: Vec<Ty>,
    ids: FastMap<Ty, TyId>,
}

impl Types {
    fn intern(&mut self, ty: &Ty) -> TyId {
        if let Some(&id) = self.ids.get(ty) {
            return id;
        }
        let id = self.list.len() as TyId;
        self.list.push(ty.clone());
        self.ids.insert(ty.clone(), id);
        id
    }
}

/// The runtime kind of a scalar word, where the pass knows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Unit,
    Int,
    Float,
    Bool,
    Char,
}

/// What the pass knows about a variable in scope.
#[derive(Debug, Clone)]
enum Bound {
    /// Still bound in the output.
    Kept {
        ty: TyId,
        /// The kind of its word, where that is certain at runtime.
        kind: Option<Kind>,
        /// Its value, where that is a known non-string constant.
        konst: Option<Atom>,
    },
    /// Replaced by an earlier variable of the same type and value.
    Renamed(VarId),
}

impl Bound {
    fn kept(ty: TyId) -> Self {
        Bound::Kept {
            ty,
            kind: None,
            konst: None,
        }
    }
}

/// A hashable operand: an atom other than a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Operand {
    Unit,
    Int(i64),
    Float(u64),
    Bool(bool),
    Char(char),
    Var(VarId),
    Fun(FunId),
}

/// A value-numbering key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Unop(Unop, Operand),
    Binop(Binop, Operand, Operand),
    Load(Operand, Operand, TyId),
}

/// The atom holding a key's value; for a load, valid only while the memory
/// epoch is the one it was recorded in.
#[derive(Debug, Clone)]
struct Fact {
    value: Atom,
    epoch: u32,
}

/// One scoped change, undone when the branch that made it is left.
enum Undo {
    Bound(VarId, Option<Bound>),
    Fact(Key, Option<Fact>),
}

/// The pass's state, kept (cleared, capacity and all) from one function
/// to the next.
#[derive(Default)]
struct Pass {
    types: Types,
    bound: VarMap<Bound>,
    facts: FastMap<Key, Fact>,
    undo: Vec<Undo>,
    /// Bumped at every instruction that may write the heap.
    epoch: u32,
    /// Uses of each variable in the output built so far.
    uses: VarMap<u32>,
    /// Kept let-heads (bodies taken out) of the chains being walked, and
    /// whether each may be dropped when its variable turns out unused.
    heads: Vec<(Box<Expr>, bool)>,
    /// Boxes holding placeholders, for bodies taken out of their heads.
    /// The allocations are the point: reusing them keeps nodes in place.
    #[allow(clippy::vec_box)]
    boxes: Vec<Box<Expr>>,
}

impl Pass {
    /// Optimise one let-chain and everything below it.  Nodes stay in
    /// their boxes: a let-head's body box is swapped for a spare while the
    /// body is walked and swapped back when it is re-attached.
    fn chain(&mut self, mut node: Box<Expr>, program: &Program) -> Box<Expr> {
        let base = self.heads.len();
        let tail = loop {
            if body_mut(&mut node).is_none() {
                match &mut *node {
                    Expr::If { cond, then_, else_ } => {
                        *cond = self.atom(std::mem::replace(cond, Atom::Unit));
                        if let Some(Atom::Bool(taken)) = self.konst(cond) {
                            let placeholder = self.spare();
                            node =
                                std::mem::replace(if taken { then_ } else { else_ }, placeholder);
                            continue;
                        }
                        let mark = (self.undo.len(), self.epoch);
                        let spare = self.spare();
                        *then_ = self.chain(std::mem::replace(then_, spare), program);
                        self.rewind(mark);
                        let spare = self.spare();
                        *else_ = self.chain(std::mem::replace(else_, spare), program);
                    }
                    terminator => head_atoms_mut(terminator, |a| {
                        *a = self.atom(std::mem::replace(a, Atom::Unit))
                    }),
                }
                break node;
            }
            let spare = self.spare();
            let body = std::mem::replace(body_mut(&mut node).expect("checked"), spare);
            head_atoms_mut(&mut node, |a| {
                *a = self.atom(std::mem::replace(a, Atom::Unit))
            });
            match self.head(&mut node, program) {
                Some(droppable) => self.heads.push((node, droppable)),
                None => self.recycle(node),
            }
            node = body;
        };
        // Backward: attach bodies, dropping unused droppable lets.  The
        // branches below have already counted their uses.
        let mut body = tail;
        self.count_uses(&body);
        while self.heads.len() > base {
            let (mut head, droppable) = self.heads.pop().expect("len checked");
            let unused = head
                .head_binding()
                .is_some_and(|dst| self.uses.get(dst).is_none());
            if droppable && unused {
                self.recycle(head);
                continue;
            }
            self.count_uses(&head);
            let slot = body_mut(&mut head).expect("a let has a body");
            self.boxes.push(std::mem::replace(slot, body));
            body = head;
        }
        body
    }

    /// A box holding a placeholder, from the pool if it has one.
    fn spare(&mut self) -> Box<Expr> {
        self.boxes.pop().unwrap_or_else(|| Box::new(placeholder()))
    }

    /// Return a dropped node's box to the pool.
    fn recycle(&mut self, mut node: Box<Expr>) {
        *node = placeholder();
        self.boxes.push(node);
    }

    /// Rewrite one let-head whose atoms are already substituted.  `None`
    /// drops it (its variable is renamed); `Some(droppable)` keeps it.
    fn head(&mut self, head: &mut Expr, program: &Program) -> Option<bool> {
        let cost = instructions(head);
        match head {
            Expr::LetAtom { dst, ty, atom, .. } => {
                let ty = self.types.intern(ty);
                if let Atom::Var(x) = *atom {
                    if self.ty(atom, program) == ty {
                        self.bind(*dst, Bound::Renamed(x));
                        return None;
                    }
                }
                let bound = Bound::Kept {
                    ty,
                    kind: self.kind(atom),
                    konst: self.konst(atom),
                };
                self.bind(*dst, bound);
                Some(!matches!(atom, Atom::Str(_)))
            }
            Expr::LetUnop { dst, op, arg, .. } => {
                let (dst, op) = (*dst, *op);
                let (arg_ty, ret_ty) = op.signature();
                let key = operand(arg).map(|a| Key::Unop(op, a));
                if let Some(first) = self.lookup(key) {
                    return self.rename(dst, first);
                }
                let konst = self.konst(arg).and_then(|a| fold_unop(op, &a));
                let droppable = self.kind(arg) == kind_of(&arg_ty);
                let ty = self.types.intern(&ret_ty);
                self.keep_value(head, dst, ty, kind_of(&ret_ty), konst, cost);
                self.record(key, Atom::Var(dst));
                Some(droppable)
            }
            Expr::LetBinop {
                dst, op, lhs, rhs, ..
            } => {
                let (dst, op) = (*dst, *op);
                let key = operand(lhs)
                    .zip(operand(rhs))
                    .map(|(l, r)| Key::Binop(op, l, r));
                if let Some(first) = self.lookup(key) {
                    return self.rename(dst, first);
                }
                let (lk, rk) = (self.kind(lhs), self.kind(rhs));
                let rk_nonzero = !matches!(self.konst(rhs), Some(Atom::Int(0)) | None);
                let safe = trap_free(op, lk, rk, rk_nonzero);
                let kind = if op.is_comparison() {
                    Some(Kind::Bool)
                } else {
                    safe
                };
                let konst = match (self.konst(lhs), self.konst(rhs)) {
                    (Some(l), Some(r)) => fold_binop(op, &l, &r),
                    _ => None,
                };
                let ty = binop_ty(op, self.ty(lhs, program), self.ty(rhs, program));
                let droppable = safe.is_some() && key.is_some();
                self.keep_value(head, dst, ty, kind, konst, cost);
                self.record(key, Atom::Var(dst));
                Some(droppable)
            }
            Expr::LetLoad {
                dst,
                ty,
                ptr,
                index,
                ..
            } => {
                let (dst, ty) = (*dst, self.types.intern(ty));
                let key = operand(ptr)
                    .zip(operand(index))
                    .map(|(p, i)| Key::Load(p, i, ty));
                let known = self.lookup(key);
                if let Some(Atom::Var(first)) = known {
                    return self.rename(dst, Atom::Var(first));
                }
                let kind = known.as_ref().and_then(kind_of_const);
                self.keep_value(head, dst, ty, kind, known, cost);
                self.record(key, Atom::Var(dst));
                // Only a load that became `let dst = konst` cannot trap.
                Some(matches!(head, Expr::LetAtom { .. }))
            }
            Expr::Store {
                ptr, index, value, ..
            } => {
                self.epoch += 1;
                if !matches!(value, Atom::Str(_)) {
                    let ty = self.ty(value, program);
                    let key = operand(ptr)
                        .zip(operand(index))
                        .map(|(p, i)| Key::Load(p, i, ty));
                    self.record(key, value.clone());
                }
                Some(false)
            }
            Expr::StoreRaw { .. } => {
                self.epoch += 1;
                Some(false)
            }
            Expr::LetExt { dst, ty, .. } => {
                self.epoch += 1;
                let ty = self.types.intern(ty);
                self.bind(*dst, Bound::kept(ty));
                Some(false)
            }
            Expr::LetLoadRaw { dst, .. } | Expr::LetLen { dst, .. } => {
                let bound = Bound::Kept {
                    ty: INT,
                    kind: Some(Kind::Int),
                    konst: None,
                };
                self.bind(*dst, bound);
                Some(false)
            }
            Expr::LetAlloc { dst, elem, .. } => {
                let ty = self.types.intern(&Ty::ptr(elem.clone()));
                self.bind(*dst, Bound::kept(ty));
                Some(false)
            }
            Expr::LetAllocRaw { dst, .. } => {
                let ty = self.types.intern(&Ty::Raw);
                self.bind(*dst, Bound::kept(ty));
                Some(false)
            }
            Expr::LetTuple { dst, .. } => {
                let ty = self.types.intern(&Ty::ptr(Ty::Any));
                self.bind(*dst, Bound::kept(ty));
                Some(false)
            }
            Expr::LetClosure { dst, arg_tys, .. } => {
                let ty = self.types.intern(&Ty::Closure(arg_tys.clone()));
                self.bind(*dst, Bound::kept(ty));
                Some(false)
            }
            _ => unreachable!("only let-forms and stores have bodies"),
        }
    }

    /// Bind a kept `let` whose value may be a known constant; where
    /// `let dst = konst` is no more instructions than `head` (`cost`), the
    /// head becomes that.
    fn keep_value(
        &mut self,
        head: &mut Expr,
        dst: VarId,
        ty: TyId,
        kind: Option<Kind>,
        konst: Option<Atom>,
        cost: usize,
    ) {
        if let Some(k) = konst.as_ref().filter(|_| cost >= 2) {
            let body = body_mut(head).map(|b| std::mem::replace(b, Box::new(placeholder())));
            *head = Expr::LetAtom {
                dst,
                ty: self.types.list[ty as usize].clone(),
                atom: k.clone(),
                body: body.expect("a let has a body"),
            };
        }
        let kind = konst.as_ref().and_then(kind_of_const).or(kind);
        self.bind(dst, Bound::Kept { ty, kind, konst });
    }

    fn rename(&mut self, dst: VarId, first: Atom) -> Option<bool> {
        let Atom::Var(first) = first else {
            unreachable!("value-numbered lets map to variables")
        };
        self.bind(dst, Bound::Renamed(first));
        None
    }

    fn bind(&mut self, v: VarId, bound: Bound) {
        let old = self.bound.insert(v, bound);
        self.undo.push(Undo::Bound(v, old));
    }

    /// The value a key already has, if it has one now.
    fn lookup(&self, key: Option<Key>) -> Option<Atom> {
        let key = key?;
        let fact = self.facts.get(&key)?;
        let live = !matches!(key, Key::Load(..)) || fact.epoch == self.epoch;
        live.then(|| fact.value.clone())
    }

    fn record(&mut self, key: Option<Key>, value: Atom) {
        if let Some(key) = key {
            let fact = Fact {
                value,
                epoch: self.epoch,
            };
            let old = self.facts.insert(key, fact);
            self.undo.push(Undo::Fact(key, old));
        }
    }

    /// Undo every change since `mark` was taken.
    fn rewind(&mut self, (len, epoch): (usize, u32)) {
        while self.undo.len() > len {
            match self.undo.pop().expect("len checked") {
                Undo::Bound(v, Some(old)) => {
                    self.bound.insert(v, old);
                }
                Undo::Bound(v, None) => {
                    self.bound.remove(v);
                }
                Undo::Fact(key, Some(old)) => {
                    self.facts.insert(key, old);
                }
                Undo::Fact(key, None) => {
                    self.facts.remove(&key);
                }
            }
        }
        self.epoch = epoch;
    }

    /// Drop the previous function's bindings and facts; its use counts
    /// stay (a count only ever keeps more).
    fn forget_function(&mut self) {
        for undo in self.undo.drain(..) {
            if let Undo::Bound(v, _) = undo {
                self.bound.remove(v);
            }
        }
        self.facts.clear();
        self.epoch = 0;
    }

    /// `atom` with renamed variables replaced.
    fn atom(&self, atom: Atom) -> Atom {
        match atom {
            Atom::Var(v) => match self.bound.get(v) {
                Some(Bound::Renamed(first)) => Atom::Var(*first),
                _ => Atom::Var(v),
            },
            other => other,
        }
    }

    fn ty(&mut self, atom: &Atom, program: &Program) -> TyId {
        match atom {
            Atom::Unit => UNIT,
            Atom::Int(_) => INT,
            Atom::Float(_) => FLOAT,
            Atom::Bool(_) => BOOL,
            Atom::Char(_) => CHAR,
            Atom::Str(_) => STR,
            Atom::Var(v) => match self.bound.get(*v) {
                Some(Bound::Kept { ty, .. }) => *ty,
                _ => ANY,
            },
            Atom::Fun(f) => match program.fun(*f) {
                Some(def) => self.types.intern(&Ty::Fun(def.param_tys())),
                None => ANY,
            },
        }
    }

    fn kind(&self, atom: &Atom) -> Option<Kind> {
        match atom {
            Atom::Var(v) => match self.bound.get(*v) {
                Some(Bound::Kept { kind, .. }) => *kind,
                _ => None,
            },
            other => kind_of_const(other),
        }
    }

    /// The non-string constant `atom` holds, if known.
    fn konst(&self, atom: &Atom) -> Option<Atom> {
        match atom {
            Atom::Var(v) => match self.bound.get(*v) {
                Some(Bound::Kept { konst, .. }) => konst.clone(),
                _ => None,
            },
            Atom::Str(_) => None,
            other => Some(other.clone()),
        }
    }

    fn count_uses(&mut self, expr: &Expr) {
        expr.head_atoms(|a| {
            if let Atom::Var(v) = a {
                let n = self.uses.get(*v).map_or(1, |n| n + 1);
                self.uses.insert(*v, n);
            }
        });
    }
}

/// A map keyed by variable: a table indexed by id below the program's
/// `next_var` (the ids the lowering hands out are dense), a hash map above.
struct VarMap<T> {
    dense: Vec<Option<T>>,
    sparse: FastMap<VarId, T>,
}

impl<T> Default for VarMap<T> {
    fn default() -> Self {
        VarMap {
            dense: Vec::new(),
            sparse: FastMap::default(),
        }
    }
}

impl<T> VarMap<T> {
    /// A map with a table slot for every id below `next_var`.
    fn dense(next_var: u32) -> Self {
        VarMap {
            dense: (0..next_var).map(|_| None).collect(),
            ..VarMap::default()
        }
    }

    fn get(&self, v: VarId) -> Option<&T> {
        match self.dense.get(v.0 as usize) {
            Some(slot) => slot.as_ref(),
            None => self.sparse.get(&v),
        }
    }

    fn insert(&mut self, v: VarId, value: T) -> Option<T> {
        match self.dense.get_mut(v.0 as usize) {
            Some(slot) => slot.replace(value),
            None => self.sparse.insert(v, value),
        }
    }

    fn remove(&mut self, v: VarId) -> Option<T> {
        match self.dense.get_mut(v.0 as usize) {
            Some(slot) => slot.take(),
            None => self.sparse.remove(&v),
        }
    }
}

/// The pass's maps: keys are small and made by the compiler, so a
/// multiplicative hash (the Fx hash) is enough and much cheaper than the
/// standard library's DoS-resistant default.
type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u8(&mut self, byte: u8) {
        self.write_u64(u64::from(byte));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// The body-less stand-in a let-head carries while its body is optimised.
fn placeholder() -> Expr {
    Expr::Halt { value: Atom::Unit }
}

/// The body of a let-form or store; `None` for a terminator or an `If`.
fn body_mut(expr: &mut Expr) -> Option<&mut Box<Expr>> {
    match expr {
        Expr::LetAtom { body, .. }
        | Expr::LetUnop { body, .. }
        | Expr::LetBinop { body, .. }
        | Expr::LetAlloc { body, .. }
        | Expr::LetAllocRaw { body, .. }
        | Expr::LetTuple { body, .. }
        | Expr::LetClosure { body, .. }
        | Expr::LetLoad { body, .. }
        | Expr::Store { body, .. }
        | Expr::LetLoadRaw { body, .. }
        | Expr::StoreRaw { body, .. }
        | Expr::LetLen { body, .. }
        | Expr::LetExt { body, .. } => Some(body),
        _ => None,
    }
}

/// Back-end instructions the head of `expr` costs: one, plus one per
/// constant operand (each is materialised at its use).
fn instructions(expr: &Expr) -> usize {
    let mut n = 1;
    expr.head_atoms(|a| n += usize::from(a.is_const()));
    n
}

fn operand(atom: &Atom) -> Option<Operand> {
    Some(match *atom {
        Atom::Unit => Operand::Unit,
        Atom::Int(v) => Operand::Int(v),
        Atom::Float(v) => Operand::Float(v.to_bits()),
        Atom::Bool(v) => Operand::Bool(v),
        Atom::Char(v) => Operand::Char(v),
        Atom::Var(v) => Operand::Var(v),
        Atom::Fun(f) => Operand::Fun(f),
        Atom::Str(_) => return None,
    })
}

fn kind_of(ty: &Ty) -> Option<Kind> {
    Some(match ty {
        Ty::Unit => Kind::Unit,
        Ty::Int => Kind::Int,
        Ty::Float => Kind::Float,
        Ty::Bool => Kind::Bool,
        Ty::Char => Kind::Char,
        _ => return None,
    })
}

fn kind_of_const(atom: &Atom) -> Option<Kind> {
    Some(match atom {
        Atom::Unit => Kind::Unit,
        Atom::Int(_) => Kind::Int,
        Atom::Float(_) => Kind::Float,
        Atom::Bool(_) => Kind::Bool,
        Atom::Char(_) => Kind::Char,
        _ => return None,
    })
}

/// The result type `typecheck` gives `lhs op rhs`, for well-typed operands.
fn binop_ty(op: Binop, lhs: TyId, rhs: TyId) -> TyId {
    if op.is_comparison() {
        BOOL
    } else if lhs == ANY || rhs == ANY {
        ANY
    } else {
        lhs
    }
}

/// The result kind of `lhs op rhs` when operands of these kinds cannot make
/// it trap (the back ends' binary-operator table); `None` where it might.
fn trap_free(op: Binop, lhs: Option<Kind>, rhs: Option<Kind>, rhs_nonzero: bool) -> Option<Kind> {
    use Binop::*;
    use Kind::*;
    if matches!(op, Eq | Ne) {
        return Some(Bool);
    }
    match (op, lhs?, rhs?) {
        (Add | Sub | Mul, k @ (Int | Float), r) if k == r => Some(k),
        (Div, Float, Float) => Some(Float),
        (Div | Rem, Int, Int) if rhs_nonzero => Some(Int),
        (BAnd | BOr | BXor | Shl | Shr, Int, Int) => Some(Int),
        (BAnd | BOr | BXor, Bool, Bool) => Some(Bool),
        (Lt | Le | Gt | Ge, k @ (Int | Float | Char), r) if k == r => Some(Bool),
        _ => None,
    }
}

/// `lhs op rhs` over constants, exactly as the back ends compute it; `None`
/// where it would trap or involves floats.
fn fold_binop(op: Binop, lhs: &Atom, rhs: &Atom) -> Option<Atom> {
    use Atom::{Bool, Char, Int};
    use Binop::*;
    Some(match (op, lhs, rhs) {
        (Add, Int(x), Int(y)) => Int(x.wrapping_add(*y)),
        (Sub, Int(x), Int(y)) => Int(x.wrapping_sub(*y)),
        (Mul, Int(x), Int(y)) => Int(x.wrapping_mul(*y)),
        (Div, Int(x), Int(y)) if *y != 0 => Int(x.wrapping_div(*y)),
        (Rem, Int(x), Int(y)) if *y != 0 => Int(x.wrapping_rem(*y)),
        (BAnd, Int(x), Int(y)) => Int(x & y),
        (BOr, Int(x), Int(y)) => Int(x | y),
        (BXor, Int(x), Int(y)) => Int(x ^ y),
        (BAnd, Bool(x), Bool(y)) => Bool(*x && *y),
        (BOr, Bool(x), Bool(y)) => Bool(*x || *y),
        (BXor, Bool(x), Bool(y)) => Bool(x ^ y),
        (Shl, Int(x), Int(y)) => Int(x.wrapping_shl(*y as u32)),
        (Shr, Int(x), Int(y)) => Int(x.wrapping_shr(*y as u32)),
        (
            Eq | Ne,
            Int(_) | Bool(_) | Char(_) | Atom::Unit,
            Int(_) | Bool(_) | Char(_) | Atom::Unit,
        ) => Bool((lhs == rhs) == (op == Eq)),
        (Lt, Int(x), Int(y)) => Bool(x < y),
        (Le, Int(x), Int(y)) => Bool(x <= y),
        (Gt, Int(x), Int(y)) => Bool(x > y),
        (Ge, Int(x), Int(y)) => Bool(x >= y),
        (Lt, Char(x), Char(y)) => Bool(x < y),
        (Le, Char(x), Char(y)) => Bool(x <= y),
        (Gt, Char(x), Char(y)) => Bool(x > y),
        (Ge, Char(x), Char(y)) => Bool(x >= y),
        _ => return None,
    })
}

/// `op arg` over a constant, exactly as the back ends compute it; `None`
/// where it would trap or involves floats.
fn fold_unop(op: Unop, arg: &Atom) -> Option<Atom> {
    Some(match (op, arg) {
        (Unop::Neg, Atom::Int(v)) => Atom::Int(v.wrapping_neg()),
        (Unop::BNot, Atom::Int(v)) => Atom::Int(!v),
        (Unop::Not, Atom::Bool(v)) => Atom::Bool(!v),
        (Unop::IntOfChar, Atom::Char(c)) => Atom::Int(*c as i64),
        _ => return None,
    })
}

/// Visit every atom the head of `expr` reads, mutably.
fn head_atoms_mut(expr: &mut Expr, mut f: impl FnMut(&mut Atom)) {
    match expr {
        Expr::LetAtom { atom, .. } => f(atom),
        Expr::LetUnop { arg, .. } => f(arg),
        Expr::LetBinop { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        Expr::LetAlloc { len, init, .. } => {
            f(len);
            f(init);
        }
        Expr::LetAllocRaw { size, .. } => f(size),
        Expr::LetTuple { args, .. } => args.iter_mut().for_each(f),
        Expr::LetClosure { captured, .. } => captured.iter_mut().for_each(f),
        Expr::LetLoad { ptr, index, .. } => {
            f(ptr);
            f(index);
        }
        Expr::Store {
            ptr, index, value, ..
        } => {
            f(ptr);
            f(index);
            f(value);
        }
        Expr::LetLoadRaw { ptr, offset, .. } => {
            f(ptr);
            f(offset);
        }
        Expr::StoreRaw {
            ptr, offset, value, ..
        } => {
            f(ptr);
            f(offset);
            f(value);
        }
        Expr::LetLen { ptr, .. } => f(ptr),
        Expr::LetExt { args, .. } => args.iter_mut().for_each(f),
        Expr::If { cond, .. } => f(cond),
        Expr::TailCall { target, args } => {
            f(target);
            args.iter_mut().for_each(f);
        }
        Expr::Halt { value } => f(value),
        Expr::Migrate {
            target, fun, args, ..
        } => {
            f(target);
            f(fun);
            args.iter_mut().for_each(f);
        }
        Expr::Speculate { fun, args } => {
            f(fun);
            args.iter_mut().for_each(f);
        }
        Expr::Commit { level, fun, args } => {
            f(level);
            f(fun);
            args.iter_mut().for_each(f);
        }
        Expr::Rollback { level, code } => {
            f(level);
            f(code);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{term, FunBuilder, ProgramBuilder};
    use crate::display::program_to_string;
    use crate::{typecheck, validate, ExternEnv};

    /// Optimise a one-function program whose body `body` writes after
    /// `frame = alloc any[4]` and `x = clock_us()` (an `int` of unknown
    /// kind to the pass); check the output and return it printed.
    fn optimised(body: impl FnOnce(&mut FunBuilder<'_>, VarId, VarId) -> Expr) -> String {
        let mut pb = ProgramBuilder::new();
        let (main, _) = pb.declare("main", &[]);
        let mut b = pb.block();
        let frame = b.alloc("frame", Ty::Any, 4, 0);
        let x = b.ext("x", Ty::Int, "clock_us", vec![]);
        let tail = body(&mut b, frame, x);
        let body = b.finish(tail);
        pb.define(main, body);
        pb.set_entry(main);
        let program = pb.finish();
        let env = ExternEnv::standard();
        typecheck(&program, &env).unwrap();
        let once = optimize(program);
        validate(&once).unwrap();
        typecheck(&once, &env).unwrap();
        assert_eq!(
            optimize(once.clone()),
            once,
            "optimising twice changes nothing"
        );
        program_to_string(&once)
    }

    #[test]
    fn repeated_loads_and_arithmetic_become_the_first_occurrence() {
        let out = optimised(|b, frame, x| {
            let a = b.load("a", Ty::Int, frame, 1);
            let a2 = b.load("a2", Ty::Int, frame, 1);
            let s = b.binop("s", Binop::Add, a, x);
            let s2 = b.binop("s2", Binop::Add, a2, x);
            let n = b.unop("n", Unop::Neg, s);
            let n2 = b.unop("n2", Unop::Neg, s2);
            let m = b.binop("m", Binop::Mul, n, n2);
            term::halt(m)
        });
        assert_eq!(out.matches("[1]").count(), 1, "{out}");
        assert_eq!(out.matches("add(").count(), 1, "{out}");
        assert_eq!(out.matches("neg(").count(), 1, "{out}");
    }

    #[test]
    fn a_store_forgets_loads_and_forwards_its_value() {
        let out = optimised(|b, frame, x| {
            let a = b.load("a", Ty::Int, frame, 1);
            b.store(frame, 2, x);
            let a2 = b.load("a2", Ty::Int, frame, 1);
            let c = b.load("c", Ty::Int, frame, 2);
            let s = b.binop("s", Binop::Add, a, a2);
            let t = b.binop("t", Binop::Add, s, c);
            term::halt(t)
        });
        assert_eq!(out.matches("[1]").count(), 2, "{out}");
        assert_eq!(out.matches("[2]").count(), 1, "only the store: {out}");
    }

    #[test]
    fn strings_are_never_merged_or_dropped() {
        let out = optimised(|b, _, _| {
            let s = b.atom("s", Ty::Str, "hi");
            let s2 = b.atom("s2", Ty::Str, "hi");
            b.atom("dead", Ty::Str, "unused");
            let e = b.binop("e", Binop::Eq, s, "hi");
            let e2 = b.binop("e2", Binop::Eq, s2, "hi");
            b.binop("dead_eq", Binop::Eq, s, "hi");
            let both = b.binop("both", Binop::BAnd, e, e2);
            term::branch(both, term::halt(1), term::halt(0))
        });
        assert_eq!(out.matches("\"hi\"").count(), 5, "{out}");
        assert!(out.contains("\"unused\""), "{out}");
    }

    #[test]
    fn only_what_cannot_trap_is_folded_or_dropped() {
        let out = optimised(|b, _, x| {
            b.binop("by_x", Binop::Div, 1, x);
            b.binop("by_zero", Binop::Rem, 1, 0);
            b.binop("unknown_kind", Binop::Add, x, 1);
            b.binop("pure", Binop::Add, 1, 2);
            let k = b.binop("k", Binop::Div, 7, 2);
            let one = b.int("one", 1);
            let cmp = b.binop("cmp", Binop::Eq, x, one);
            term::branch(cmp, term::halt(k), term::halt(0))
        });
        assert!(out.contains("div(1, "), "{out}");
        assert!(out.contains("rem(1, 0)"), "{out}");
        assert!(out.contains("add("), "{out}");
        assert!(!out.contains("add(1, 2)"), "{out}");
        assert!(out.contains("= 3"), "7 / 2 folds to 3: {out}");
    }

    #[test]
    fn a_known_condition_takes_its_branch() {
        let out = optimised(|b, _, _| {
            let c = b.binop("c", Binop::Lt, 1, 2);
            term::branch(c, term::halt(1), term::halt(0))
        });
        assert!(!out.contains("if "), "{out}");
        assert!(out.contains("halt 1"), "{out}");
    }

    #[test]
    fn facts_from_one_branch_do_not_reach_the_other() {
        let load = |dst: u32, frame: VarId, index: i64, body: Expr| Expr::LetLoad {
            dst: VarId(dst),
            ty: Ty::Int,
            ptr: Atom::Var(frame),
            index: Atom::Int(index),
            body: Box::new(body),
        };
        let out = optimised(|b, frame, x| {
            let a = b.load("a", Ty::Int, frame, 1);
            let c = b.binop("c", Binop::Lt, a, x);
            // then: frame[1] again, and frame[3]; else: frame[3] only.
            let sum = Expr::LetBinop {
                dst: VarId(1002),
                op: Binop::Add,
                lhs: Atom::Var(VarId(1000)),
                rhs: Atom::Var(VarId(1001)),
                body: Box::new(term::halt(VarId(1002))),
            };
            let then_ = load(1000, frame, 1, load(1001, frame, 3, sum));
            let else_ = load(1003, frame, 3, term::halt(VarId(1003)));
            term::branch(c, then_, else_)
        });
        assert_eq!(out.matches("[1]").count(), 1, "{out}");
        assert_eq!(out.matches("[3]").count(), 2, "{out}");
    }

    /// The let-chain is walked without recursion: 200 000 nested `let`s
    /// optimise on a 2 MiB stack.  (Validation and type checking recurse,
    /// so the chain skips them; dropping it is done link by link.)
    #[test]
    fn a_deep_let_chain_optimises_on_a_small_stack() {
        const DEPTH: usize = 200_000;
        let mut pb = ProgramBuilder::new();
        let (main, _) = pb.declare("main", &[]);
        let mut b = pb.block();
        let mut v = b.ext("x", Ty::Int, "clock_us", vec![]);
        for _ in 0..DEPTH {
            v = b.binop("v", Binop::Add, v, 1);
        }
        let body = b.finish(term::halt(v));
        pb.define(main, body);
        pb.set_entry(main);
        let program = pb.finish();
        let mut out = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || optimize(program))
            .unwrap()
            .join()
            .unwrap();
        let mut expr = std::mem::replace(&mut out.funs[0].body, placeholder());
        let mut lets = 0;
        while let Some(body) = body_mut(&mut expr) {
            expr = std::mem::replace(&mut **body, placeholder());
            lets += 1;
        }
        assert_eq!(lets, DEPTH + 1);
    }
}
