//! ISA-defined exceptions.
//!
//! Exceptions are the strongest ReStore symptom: the paper finds that most
//! failure-inducing faults raise one within 100 instructions (Figure 2),
//! dominated by memory access faults against the sparse 64-bit address
//! space.

use crate::{AccessKind, MemError};
use core::fmt;

/// An architecturally visible exception.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exception {
    /// Load/store to an unmapped page or one whose permissions forbid it.
    AccessViolation {
        /// Faulting data address.
        addr: u64,
        /// Load or store.
        access: AccessKind,
    },
    /// Misaligned data access.
    Alignment {
        /// Faulting data address.
        addr: u64,
        /// Load or store.
        access: AccessKind,
    },
    /// Signed arithmetic overflow in a trapping (`/V`) operation.
    ArithmeticTrap {
        /// PC of the trapping instruction.
        pc: u64,
    },
    /// The fetched word is not a defined instruction.
    IllegalInstruction {
        /// PC of the undecodable word.
        pc: u64,
        /// The word itself.
        word: u32,
    },
    /// Instruction fetch failed (PC unmapped, non-executable or
    /// misaligned).
    FetchFault {
        /// The bad PC.
        pc: u64,
    },
}

impl Exception {
    /// Folds a data-side memory error at execution into an exception.
    pub fn from_data_error(e: MemError) -> Exception {
        match e {
            MemError::Unmapped { addr, access } | MemError::Protection { addr, access } => {
                Exception::AccessViolation { addr, access }
            }
            MemError::Misaligned { addr, access } => Exception::Alignment { addr, access },
        }
    }

    /// Short category name used in campaign reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Exception::AccessViolation { .. } => "access-violation",
            Exception::Alignment { .. } => "alignment",
            Exception::ArithmeticTrap { .. } => "arithmetic-trap",
            Exception::IllegalInstruction { .. } => "illegal-instruction",
            Exception::FetchFault { .. } => "fetch-fault",
        }
    }
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exception::AccessViolation { addr, access } => {
                write!(f, "access violation: {access} at {addr:#x}")
            }
            Exception::Alignment { addr, access } => {
                write!(f, "alignment fault: {access} at {addr:#x}")
            }
            Exception::ArithmeticTrap { pc } => write!(f, "arithmetic overflow trap at {pc:#x}"),
            Exception::IllegalInstruction { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at {pc:#x}")
            }
            Exception::FetchFault { pc } => write!(f, "instruction fetch fault at {pc:#x}"),
        }
    }
}

impl std::error::Error for Exception {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_error_folding() {
        let e =
            Exception::from_data_error(MemError::Unmapped { addr: 0x10, access: AccessKind::Load });
        assert_eq!(e, Exception::AccessViolation { addr: 0x10, access: AccessKind::Load });
        let e = Exception::from_data_error(MemError::Misaligned {
            addr: 0x11,
            access: AccessKind::Store,
        });
        assert_eq!(e, Exception::Alignment { addr: 0x11, access: AccessKind::Store });
    }

    #[test]
    fn display_and_kind_names_nonempty() {
        let all = [
            Exception::AccessViolation { addr: 1, access: AccessKind::Load },
            Exception::Alignment { addr: 1, access: AccessKind::Store },
            Exception::ArithmeticTrap { pc: 4 },
            Exception::IllegalInstruction { pc: 4, word: 0 },
            Exception::FetchFault { pc: 5 },
        ];
        let mut names = std::collections::HashSet::new();
        for e in all {
            assert!(!e.to_string().is_empty());
            assert!(names.insert(e.kind_name()));
        }
    }
}
