//! # restore-isa
//!
//! Instruction set architecture for the ReStore (DSN 2005) reproduction.
//!
//! The paper's processor "executes a subset of the Alpha instruction set";
//! this crate defines a from-scratch 64-bit RISC in the same mould:
//! 32 × 64-bit integer registers with a hardwired zero (`r31`), 32-bit
//! fixed-width instruction words in five formats (PAL, memory, operate,
//! branch, jump), precise exceptions for undefined encodings, unaligned
//! accesses, unmapped pages and trapping arithmetic overflow.
//!
//! Layers provided here:
//!
//! * [`Inst`] — the decoded instruction representation, with
//!   [`Inst::encode`] / [`decode`](decode()) as exact inverses. The binary
//!   encoding matters: fault injection flips bits of *encoded* words
//!   sitting in pipeline latches, and the decoder's strictness determines
//!   which flips surface as illegal-instruction exceptions.
//! * [`Asm`] — a label-resolving programmatic assembler used by the
//!   synthetic workloads.
//! * [`Program`] — an assembled text + data image, loadable by both the
//!   architectural and microarchitectural simulators.
//! * [`Disasm`] — pretty-printing for debugging campaign traces.
//!
//! # Examples
//!
//! ```
//! use restore_isa::{Asm, Reg, layout};
//! # fn main() -> Result<(), restore_isa::AsmError> {
//! // A loop that sums 0..10 then halts.
//! let mut a = Asm::new("sum", layout::TEXT_BASE);
//! a.clr(Reg::V0);
//! a.li(Reg::T0, 10);
//! let top = a.bind_here();
//! a.addq(Reg::V0, Reg::T0, Reg::V0);
//! a.subq_lit(Reg::T0, 1, Reg::T0);
//! a.bgt(Reg::T0, top);
//! a.halt();
//! let program = a.finish()?;
//! assert_eq!(program.entry, layout::TEXT_BASE);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_types,
        reason = "unit tests may hash freely; no result depends on it"
    )
)]

mod asm;
mod decode;
mod disasm;
mod encode;
mod inst;
pub mod opcodes;
mod program;
mod reg;
mod text;

pub use asm::{Asm, AsmError, Label};
pub use decode::{decode, DecodeError};
pub use disasm::Disasm;
pub use inst::{
    AluOp, BranchCond, FenceKind, Inst, JumpKind, MemWidth, Operand, PalFunc, SourceIter,
};
pub use program::{layout, DataSegment, Program};
pub use reg::Reg;
pub use text::{assemble_text, ParseError};
