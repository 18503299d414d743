//! The host "machine" abstraction.
//!
//! The paper's cluster is heterogeneous: the FIR is machine-independent and
//! the runtime recompiles it for whatever architecture receives a migrated
//! process.  In this reproduction a [`Machine`] is a *simulated* architecture
//! tag attached to each node.  The tag is a header label: every image
//! records the architecture that packed it (for logs, and for tests that
//! prove heterogeneous migration needs no heap translation), and nothing
//! is refused across tags — images carry only FIR, which every machine
//! type-checks and recompiles.

use std::fmt;

/// A simulated machine architecture.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Machine {
    arch: String,
}

impl Machine {
    /// The default architecture used by processes that are not placed on a
    /// specific cluster node.
    pub const DEFAULT_ARCH: &'static str = "ia32-sim";

    /// A machine with the given architecture tag (e.g. `"ia32-sim"`,
    /// `"risc-sim"`).
    pub fn new(arch: impl Into<String>) -> Self {
        Machine { arch: arch.into() }
    }

    /// The paper's primary runtime target.
    pub fn ia32() -> Self {
        Machine::new("ia32-sim")
    }

    /// The paper's secondary, simulated-RISC runtime target.
    pub fn risc() -> Self {
        Machine::new("risc-sim")
    }

    /// The architecture tag.
    pub fn arch(&self) -> &str {
        &self.arch
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new(Machine::DEFAULT_ARCH)
    }
}

impl fmt::Display for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_the_arch() {
        assert_eq!(Machine::risc().to_string(), "risc-sim");
    }
}
