//! External function signatures.
//!
//! FIR programs interact with the world outside the heap through *external
//! functions* (`LetExt`).  The runtime provides the implementations
//! (`mojave-core::externals`); this module provides the *signatures* so that
//! the FIR type checker can verify calls, including on the migration server
//! when it re-checks an inbound program.

use crate::types::Ty;
use std::collections::HashMap;

/// Signature of an external function.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternSig {
    /// Name used in `LetExt`.
    pub name: &'static str,
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Result type.
    pub ret: Ty,
}

/// A set of external function signatures known to the type checker.
#[derive(Debug, Clone, Default)]
pub struct ExternEnv {
    sigs: HashMap<&'static str, ExternSig>,
}

impl ExternEnv {
    /// The standard external interface provided by the Mojave runtime.
    ///
    /// | group | functions |
    /// |---|---|
    /// | console | `print_int`, `print_float`, `print_str`, `print_char` |
    /// | time & randomness | `clock_us`, `rand_int` |
    /// | strings | `int_to_str`, `str_concat`, `str_len` |
    /// | object store (Figure 1) | `obj_create`, `obj_read`, `obj_write`, `obj_set_fail_rate` |
    /// | message passing (Figure 2) | `msg_send`, `msg_recv`, `node_id`, `num_nodes` |
    /// | failure injection | `inject_failure` |
    pub fn standard() -> Self {
        let mut env = ExternEnv::default();
        let sigs = [
            ExternSig {
                name: "print_int",
                params: vec![Ty::Int],
                ret: Ty::Unit,
            },
            ExternSig {
                name: "print_float",
                params: vec![Ty::Float],
                ret: Ty::Unit,
            },
            ExternSig {
                name: "print_str",
                params: vec![Ty::Str],
                ret: Ty::Unit,
            },
            ExternSig {
                name: "print_char",
                params: vec![Ty::Char],
                ret: Ty::Unit,
            },
            ExternSig {
                name: "clock_us",
                params: vec![],
                ret: Ty::Int,
            },
            ExternSig {
                name: "rand_int",
                params: vec![Ty::Int],
                ret: Ty::Int,
            },
            ExternSig {
                name: "int_to_str",
                params: vec![Ty::Int],
                ret: Ty::Str,
            },
            ExternSig {
                name: "str_concat",
                params: vec![Ty::Str, Ty::Str],
                ret: Ty::Str,
            },
            ExternSig {
                name: "str_len",
                params: vec![Ty::Str],
                ret: Ty::Int,
            },
            // Fallible object store used by the Transfer example (Figure 1).
            ExternSig {
                name: "obj_create",
                params: vec![Ty::Int],
                ret: Ty::Int,
            },
            ExternSig {
                name: "obj_read",
                params: vec![Ty::Int, Ty::Raw, Ty::Int],
                ret: Ty::Int,
            },
            ExternSig {
                name: "obj_write",
                params: vec![Ty::Int, Ty::Raw, Ty::Int],
                ret: Ty::Int,
            },
            ExternSig {
                name: "obj_set_fail_rate",
                params: vec![Ty::Int],
                ret: Ty::Unit,
            },
            // Message passing used by the grid application (Figure 2).
            ExternSig {
                name: "msg_send",
                params: vec![Ty::Int, Ty::Int, Ty::ptr(Ty::Float)],
                ret: Ty::Int,
            },
            ExternSig {
                name: "msg_recv",
                params: vec![Ty::Int, Ty::Int, Ty::ptr(Ty::Float)],
                ret: Ty::Int,
            },
            ExternSig {
                name: "node_id",
                params: vec![],
                ret: Ty::Int,
            },
            ExternSig {
                name: "num_nodes",
                params: vec![],
                ret: Ty::Int,
            },
            ExternSig {
                name: "inject_failure",
                params: vec![Ty::Int],
                ret: Ty::Unit,
            },
        ];
        for sig in sigs {
            env.register(sig);
        }
        env
    }

    /// Register (or replace) a signature.
    pub fn register(&mut self, sig: ExternSig) {
        self.sigs.insert(sig.name, sig);
    }

    /// Look up a signature by name.
    pub fn lookup(&self, name: &str) -> Option<&ExternSig> {
        self.sigs.get(name)
    }

    /// Names of all registered externals (sorted, for stable diagnostics).
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<_> = self.sigs.keys().copied().collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_env_has_paper_interfaces() {
        let env = ExternEnv::standard();
        // Figure 1 needs the object store.
        for name in ["obj_create", "obj_read", "obj_write"] {
            assert!(env.lookup(name).is_some(), "missing {name}");
        }
        // Figure 2 needs border exchange.
        for name in ["msg_send", "msg_recv", "node_id", "num_nodes"] {
            assert!(env.lookup(name).is_some(), "missing {name}");
        }
        assert!(env.lookup("no_such_extern").is_none());
    }

    #[test]
    fn obj_read_signature_matches_figure_1() {
        let env = ExternEnv::standard();
        let sig = env.lookup("obj_read").unwrap();
        assert_eq!(sig.params, vec![Ty::Int, Ty::Raw, Ty::Int]);
        assert_eq!(sig.ret, Ty::Int);
    }

    #[test]
    fn register_overrides() {
        let mut env = ExternEnv::default();
        assert!(env.lookup("print_int").is_none());
        env.register(ExternSig {
            name: "print_int",
            params: vec![Ty::Int],
            ret: Ty::Unit,
        });
        assert!(env.lookup("print_int").is_some());
        assert_eq!(env.names(), vec!["print_int"]);
    }
}
