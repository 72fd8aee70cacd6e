//! Program objects: raw instruction sequences and verified, loadable
//! programs.

use crate::insn::{HelperId, Insn};
use crate::verifier::{Verified, VerifyError};
use std::fmt;
use std::sync::Arc;

/// An unverified program: a name plus its instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Human-readable name (shows up in errors and stats).
    pub name: String,
    /// The instruction sequence.
    pub insns: Vec<Insn>,
}

impl Program {
    /// Creates a program.
    pub fn new(name: impl Into<String>, insns: Vec<Insn>) -> Self {
        Program {
            name: name.into(),
            insns,
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }
}

/// A program that has passed verification and can be attached or placed
/// in a program array. Cheap to clone (shared).
///
/// This is the moral equivalent of a loaded program fd returned by
/// `bpf(BPF_PROG_LOAD)`: the only way to construct one is through the
/// verifier, either here ([`LoadedProgram::load`]) or earlier
/// ([`LoadedProgram::from_verified`] takes the verifier's proof).
#[derive(Clone)]
pub struct LoadedProgram {
    inner: Arc<Program>,
    cacheable: bool,
}

impl LoadedProgram {
    /// Verifies and "loads" a program.
    ///
    /// # Errors
    ///
    /// Returns the first verification failure, exactly as the in-kernel
    /// verifier rejects a `BPF_PROG_LOAD`.
    pub fn load(program: Program) -> Result<Self, VerifyError> {
        let verified = Verified::new(program.insns)?;
        Ok(Self::from_verified(program.name, verified))
    }

    /// Loads instructions the verifier has already accepted: the proof
    /// is the [`Verified`] value, so nothing is verified again.
    pub fn from_verified(name: impl Into<String>, verified: Verified) -> Self {
        Self::assemble(Program::new(name, verified.into_insns()))
    }

    /// A program the verifier would reject, for driving the engine's
    /// defense-in-depth exits (faults, the instruction budget).
    #[cfg(test)]
    pub(crate) fn load_unverified(program: Program) -> Self {
        Self::assemble(program)
    }

    fn assemble(program: Program) -> Self {
        let cacheable = program.insns.iter().all(|i| match i {
            Insn::Call { helper } => helper_is_cacheable(*helper),
            _ => true,
        });
        LoadedProgram {
            inner: Arc::new(program),
            cacheable,
        }
    }

    /// The static cacheability contract: whether every helper this
    /// program calls has a result fully determined by its arguments plus
    /// kernel state covered by the coherence generation. Programs that
    /// read the clock, touch custom maps, or redirect into AF_XDP rings
    /// are not cacheable — their verdicts can change without any
    /// generation bump (or replaying them has side effects the microflow
    /// verdict cache cannot reproduce). Tail calls are fine: the
    /// dispatcher checks the contract on the *resolved* program too.
    pub fn cacheable(&self) -> bool {
        self.cacheable
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The verified instructions.
    pub fn insns(&self) -> &[Insn] {
        &self.inner.insns
    }

    /// Instruction count (a proxy for fast-path code size; the controller
    /// reports it and tests assert that synthesis minimizes it).
    pub fn len(&self) -> usize {
        self.inner.insns.len()
    }

    /// Whether the program is empty (never true for loaded programs —
    /// the verifier rejects empty programs).
    pub fn is_empty(&self) -> bool {
        self.inner.insns.is_empty()
    }
}

/// Whether a helper's result is safe to capture: deterministic given its
/// arguments and generation-covered kernel state, with side effects a
/// cache hit either reproduces exactly or need not repeat.
fn helper_is_cacheable(helper: HelperId) -> bool {
    !matches!(
        helper,
        HelperId::KtimeGetNs | HelperId::MapLookup | HelperId::MapUpdate | HelperId::XskRedirect
    )
}

impl fmt::Debug for LoadedProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LoadedProgram({}, {} insns)",
            self.inner.name,
            self.inner.insns.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    #[test]
    fn load_accepts_trivial_program() {
        let mut a = Asm::new();
        a.mov_imm(0, 2);
        a.exit();
        let prog = LoadedProgram::load(Program::new("pass", a.finish().unwrap())).unwrap();
        assert_eq!(prog.name(), "pass");
        assert_eq!(prog.len(), 2);
        assert!(!prog.is_empty());
        assert!(format!("{prog:?}").contains("pass"));
    }

    #[test]
    fn load_rejects_empty_program() {
        assert!(LoadedProgram::load(Program::new("empty", vec![])).is_err());
    }

    #[test]
    fn program_accessors() {
        let p = Program::new("x", vec![Insn::Exit]);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        assert!(Program::new("y", vec![]).is_empty());
    }
}
