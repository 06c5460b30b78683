//! Decoded instruction representation.
//!
//! The ISA is a 64-bit RISC closely modelled on the Alpha AXP integer
//! subset, matching the processor simulated in the ReStore paper (which
//! "executes a subset of the Alpha instruction set"). All instructions are
//! 32-bit words in one of five formats: PAL, memory, operate, conditional
//! branch, and jump.

use crate::Reg;
use core::fmt;

/// Width of a memory access in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// One byte (`ldbu`/`stb`), never alignment-checked.
    Byte,
    /// Two bytes (`ldwu`/`stw`), must be 2-aligned.
    Word,
    /// Four bytes (`ldl`/`stl`), must be 4-aligned; loads sign-extend.
    Long,
    /// Eight bytes (`ldq`/`stq`), must be 8-aligned.
    Quad,
}

impl MemWidth {
    /// Access size in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Word => 2,
            MemWidth::Long => 4,
            MemWidth::Quad => 8,
        }
    }

    /// Alignment mask: an address is misaligned if `addr & mask != 0`.
    #[inline]
    pub fn align_mask(self) -> u64 {
        self.bytes() - 1
    }
}

/// Second source operand of an operate-format instruction: either a
/// register or an 8-bit zero-extended literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register operand (`rb`).
    Reg(Reg),
    /// Zero-extended 8-bit literal.
    Lit(u8),
}

impl Operand {
    /// The register if this operand is one.
    #[inline]
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Lit(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<u8> for Operand {
    fn from(v: u8) -> Self {
        Operand::Lit(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Lit(v) => write!(f, "#{v}"),
        }
    }
}

/// Integer ALU operations (operate-format function codes).
///
/// The `*V` variants raise an arithmetic overflow trap on signed overflow,
/// mirroring Alpha's `/V` qualifier; they are one of the exception sources
/// the ReStore paper lists as a soft error symptom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// 32-bit add; the result is sign-extended to 64 bits.
    Addl,
    /// 64-bit add.
    Addq,
    /// 32-bit subtract; sign-extended result.
    Subl,
    /// 64-bit subtract.
    Subq,
    /// 32-bit add, trapping on signed overflow.
    Addlv,
    /// 64-bit add, trapping on signed overflow.
    Addqv,
    /// 32-bit subtract, trapping on signed overflow.
    Sublv,
    /// 64-bit subtract, trapping on signed overflow.
    Subqv,
    /// Scaled adds for array indexing: `rc = 4*ra + rb`.
    S4addq,
    /// `rc = 8*ra + rb`.
    S8addq,
    /// `rc = 4*ra - rb`.
    S4subq,
    /// `rc = 8*ra - rb`.
    S8subq,
    /// Signed compare: `rc = (ra == rb) as u64` etc.
    Cmpeq,
    /// Signed less-than compare.
    Cmplt,
    /// Signed less-or-equal compare.
    Cmple,
    /// Unsigned compares.
    Cmpult,
    /// Unsigned less-or-equal compare.
    Cmpule,
    /// Bitwise logic.
    And,
    /// And-not (`ra & !rb`).
    Bic,
    /// Or (Alpha `bis`).
    Bis,
    /// Or-not (`ra | !rb`).
    Ornot,
    /// Exclusive or.
    Xor,
    /// Xor-not (`ra ^ !rb`).
    Eqv,
    /// Conditional moves: `if cond(ra) { rc = rb }`.
    Cmoveq,
    /// Move if `ra != 0`.
    Cmovne,
    /// Move if `ra < 0`.
    Cmovlt,
    /// Move if `ra >= 0`.
    Cmovge,
    /// Move if `ra <= 0`.
    Cmovle,
    /// Move if `ra > 0`.
    Cmovgt,
    /// Move if low bit set / clear.
    Cmovlbs,
    /// Move if low bit clear.
    Cmovlbc,
    /// Shifts (shift amount is `rb & 63`).
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// 32-bit multiply, sign-extended result.
    Mull,
    /// 64-bit multiply (low half).
    Mulq,
    /// Unsigned multiply high half.
    Umulh,
    /// Trapping multiplies.
    Mullv,
    /// 64-bit trapping multiply.
    Mulqv,
}

impl AluOp {
    /// `true` if this is a conditional move, which additionally reads the
    /// destination register's old value.
    #[inline]
    pub fn is_cmov(self) -> bool {
        matches!(
            self,
            AluOp::Cmoveq
                | AluOp::Cmovne
                | AluOp::Cmovlt
                | AluOp::Cmovge
                | AluOp::Cmovle
                | AluOp::Cmovgt
                | AluOp::Cmovlbs
                | AluOp::Cmovlbc
        )
    }

    /// `true` if the op can raise an arithmetic overflow trap.
    #[inline]
    pub fn can_trap(self) -> bool {
        matches!(
            self,
            AluOp::Addlv | AluOp::Addqv | AluOp::Sublv | AluOp::Subqv | AluOp::Mullv | AluOp::Mulqv
        )
    }

    /// `true` for multiply-class ops (longer execution latency).
    #[inline]
    pub fn is_multiply(self) -> bool {
        matches!(self, AluOp::Mull | AluOp::Mulq | AluOp::Umulh | AluOp::Mullv | AluOp::Mulqv)
    }

    /// Mnemonic string.
    pub fn mnemonic(self) -> &'static str {
        use AluOp::*;
        match self {
            Addl => "addl",
            Addq => "addq",
            Subl => "subl",
            Subq => "subq",
            Addlv => "addlv",
            Addqv => "addqv",
            Sublv => "sublv",
            Subqv => "subqv",
            S4addq => "s4addq",
            S8addq => "s8addq",
            S4subq => "s4subq",
            S8subq => "s8subq",
            Cmpeq => "cmpeq",
            Cmplt => "cmplt",
            Cmple => "cmple",
            Cmpult => "cmpult",
            Cmpule => "cmpule",
            And => "and",
            Bic => "bic",
            Bis => "bis",
            Ornot => "ornot",
            Xor => "xor",
            Eqv => "eqv",
            Cmoveq => "cmoveq",
            Cmovne => "cmovne",
            Cmovlt => "cmovlt",
            Cmovge => "cmovge",
            Cmovle => "cmovle",
            Cmovgt => "cmovgt",
            Cmovlbs => "cmovlbs",
            Cmovlbc => "cmovlbc",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            Mull => "mull",
            Mulq => "mulq",
            Umulh => "umulh",
            Mullv => "mullv",
            Mulqv => "mulqv",
        }
    }
}

/// Conditional branch conditions, evaluated against register `ra`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Branch if low bit clear.
    Lbc,
    /// Branch if `ra == 0`.
    Eq,
    /// Branch if `ra < 0` (signed).
    Lt,
    /// Branch if `ra <= 0` (signed).
    Le,
    /// Branch if low bit set.
    Lbs,
    /// Branch if `ra != 0`.
    Ne,
    /// Branch if `ra >= 0` (signed).
    Ge,
    /// Branch if `ra > 0` (signed).
    Gt,
}

impl BranchCond {
    /// Evaluates the condition against a register value.
    #[inline]
    pub fn eval(self, value: u64) -> bool {
        let s = value as i64;
        match self {
            BranchCond::Lbc => value & 1 == 0,
            BranchCond::Eq => value == 0,
            BranchCond::Lt => s < 0,
            BranchCond::Le => s <= 0,
            BranchCond::Lbs => value & 1 == 1,
            BranchCond::Ne => value != 0,
            BranchCond::Ge => s >= 0,
            BranchCond::Gt => s > 0,
        }
    }

    /// Mnemonic string (`beq`, `bne`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Lbc => "blbc",
            BranchCond::Eq => "beq",
            BranchCond::Lt => "blt",
            BranchCond::Le => "ble",
            BranchCond::Lbs => "blbs",
            BranchCond::Ne => "bne",
            BranchCond::Ge => "bge",
            BranchCond::Gt => "bgt",
        }
    }
}

/// Jump-format flavours, distinguished by the hardware hint field.
///
/// The hint does not change dataflow semantics (all jump to `rb & !3` and
/// write the return address to `ra`) but steers the return address stack in
/// the branch predictor, which matters for ReStore's mispredict symptom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JumpKind {
    /// Plain indirect jump.
    Jmp,
    /// Subroutine call: predictor pushes the return address.
    Jsr,
    /// Subroutine return: predictor pops the return address stack.
    Ret,
    /// Coroutine-style call (push and pop); rarely used.
    JsrCo,
}

impl JumpKind {
    /// Mnemonic string.
    pub fn mnemonic(self) -> &'static str {
        match self {
            JumpKind::Jmp => "jmp",
            JumpKind::Jsr => "jsr",
            JumpKind::Ret => "ret",
            JumpKind::JsrCo => "jsr_coroutine",
        }
    }
}

/// PAL (privileged architecture library) calls — the ISA's syscall layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PalFunc {
    /// Stop the machine; the program is complete.
    Halt,
    /// Append the low byte of `a0` to the output stream.
    Putc,
    /// Append the full 64-bit value of `a0` to the output log.
    Outq,
}

/// Memory barrier flavours (checkpoint-forcing synchronisation events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FenceKind {
    /// Memory barrier.
    Mb,
    /// Trap barrier: drains pending arithmetic traps.
    Trapb,
}

/// A decoded instruction.
///
/// This is the common currency between the assembler, the architectural
/// simulator, and the microarchitectural pipeline. The raw 32-bit encoding
/// (used by fault injection into instruction-carrying latches) is produced
/// by [`Inst::encode`] and consumed by
/// [`decode`](crate::decode()).
#[allow(
    missing_docs,
    reason = "operand roles (`ra`, `rb`, `rc`, `disp`) are fixed by the format and described in each variant's doc"
)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// PAL call.
    Pal(PalFunc),
    /// Load address: `ra = rb + disp`.
    Lda { ra: Reg, rb: Reg, disp: i16 },
    /// Load address high: `ra = rb + disp * 65536`.
    Ldah { ra: Reg, rb: Reg, disp: i16 },
    /// Memory load: `ra = mem[rb + disp]`.
    Load { width: MemWidth, ra: Reg, rb: Reg, disp: i16 },
    /// Memory store: `mem[rb + disp] = ra`.
    Store { width: MemWidth, ra: Reg, rb: Reg, disp: i16 },
    /// Operate format: `rc = op(ra, rb_or_lit)`.
    Op { op: AluOp, ra: Reg, rb: Operand, rc: Reg },
    /// Conditional branch on `ra`; `disp` is in instruction words relative
    /// to the updated PC.
    CondBranch { cond: BranchCond, ra: Reg, disp: i32 },
    /// Unconditional branch, writing the return address to `ra` (use
    /// `r31` for a plain branch).
    Br { ra: Reg, disp: i32 },
    /// Branch to subroutine (identical dataflow to `Br`, but hints the
    /// return-address stack).
    Bsr { ra: Reg, disp: i32 },
    /// Indirect jump through `rb`, writing the return address to `ra`.
    Jump { kind: JumpKind, ra: Reg, rb: Reg },
    /// Memory / trap barrier.
    Fence(FenceKind),
}

impl Inst {
    /// Canonical no-op (`bis zero, zero, zero`).
    pub const NOP: Inst =
        Inst::Op { op: AluOp::Bis, ra: Reg::ZERO, rb: Operand::Reg(Reg::ZERO), rc: Reg::ZERO };

    /// `true` if this instruction can redirect control flow.
    #[inline]
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::CondBranch { .. } | Inst::Br { .. } | Inst::Bsr { .. } | Inst::Jump { .. }
        )
    }

    /// `true` for conditional branches only.
    #[inline]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Inst::CondBranch { .. })
    }

    /// `true` if the instruction accesses data memory.
    #[inline]
    pub fn is_mem(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. })
    }

    /// `true` for loads.
    #[inline]
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Load { .. })
    }

    /// `true` for stores.
    #[inline]
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::Store { .. })
    }

    /// `true` if this instruction forces a synchronisation checkpoint in
    /// the ReStore architecture (fences and PAL calls).
    #[inline]
    pub fn is_sync(&self) -> bool {
        matches!(self, Inst::Fence(_) | Inst::Pal(_))
    }

    /// Destination architectural register, if any (never `r31`; writes to
    /// the zero register report `None`).
    pub fn dest(&self) -> Option<Reg> {
        let d = match *self {
            Inst::Lda { ra, .. } | Inst::Ldah { ra, .. } | Inst::Load { ra, .. } => ra,
            Inst::Op { rc, .. } => rc,
            Inst::Br { ra, .. } | Inst::Bsr { ra, .. } | Inst::Jump { ra, .. } => ra,
            Inst::Pal(_) | Inst::Store { .. } | Inst::CondBranch { .. } | Inst::Fence(_) => {
                return None
            }
        };
        (!d.is_zero()).then_some(d)
    }

    /// Source architectural registers, in operand order. The zero register
    /// is included (it is a real operand; it just always reads 0).
    pub fn sources(&self) -> SourceIter {
        let mut srcs = [None; 3];
        match *self {
            Inst::Pal(f) => {
                if matches!(f, PalFunc::Putc | PalFunc::Outq) {
                    srcs[0] = Some(Reg::A0);
                }
            }
            Inst::Lda { rb, .. } | Inst::Ldah { rb, .. } | Inst::Load { rb, .. } => {
                srcs[0] = Some(rb);
            }
            Inst::Store { ra, rb, .. } => {
                srcs[0] = Some(rb);
                srcs[1] = Some(ra);
            }
            Inst::Op { op, ra, rb, rc } => {
                srcs[0] = Some(ra);
                srcs[1] = rb.reg();
                if op.is_cmov() {
                    srcs[2] = Some(rc);
                }
            }
            Inst::CondBranch { ra, .. } => srcs[0] = Some(ra),
            Inst::Br { .. } | Inst::Bsr { .. } => {}
            Inst::Jump { rb, .. } => srcs[0] = Some(rb),
            Inst::Fence(_) => {}
        }
        SourceIter { srcs, idx: 0 }
    }
}

/// Iterator over an instruction's source registers.
///
/// Produced by [`Inst::sources`].
#[derive(Debug, Clone)]
pub struct SourceIter {
    srcs: [Option<Reg>; 3],
    idx: usize,
}

impl Iterator for SourceIter {
    type Item = Reg;

    fn next(&mut self) -> Option<Reg> {
        while self.idx < 3 {
            let s = self.srcs[self.idx];
            self.idx += 1;
            if s.is_some() {
                return s;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_has_no_dest_or_sources_worth_tracking() {
        assert_eq!(Inst::NOP.dest(), None);
        let srcs: Vec<_> = Inst::NOP.sources().collect();
        assert_eq!(srcs, vec![Reg::ZERO, Reg::ZERO]);
    }

    #[test]
    fn dest_hides_zero_register() {
        let i = Inst::Lda { ra: Reg::ZERO, rb: Reg::SP, disp: 8 };
        assert_eq!(i.dest(), None);
        let i = Inst::Lda { ra: Reg::T0, rb: Reg::SP, disp: 8 };
        assert_eq!(i.dest(), Some(Reg::T0));
    }

    #[test]
    fn store_sources_are_base_then_data() {
        let i = Inst::Store { width: MemWidth::Quad, ra: Reg::T1, rb: Reg::SP, disp: 0 };
        let srcs: Vec<_> = i.sources().collect();
        assert_eq!(srcs, vec![Reg::SP, Reg::T1]);
        assert!(i.is_store() && i.is_mem() && !i.is_load());
    }

    #[test]
    fn cmov_reads_its_destination() {
        let i = Inst::Op { op: AluOp::Cmoveq, ra: Reg::T0, rb: Operand::Reg(Reg::T1), rc: Reg::T2 };
        let srcs: Vec<_> = i.sources().collect();
        assert_eq!(srcs, vec![Reg::T0, Reg::T1, Reg::T2]);
    }

    #[test]
    fn literal_operand_is_not_a_source() {
        let i = Inst::Op { op: AluOp::Addq, ra: Reg::T0, rb: Operand::Lit(7), rc: Reg::T2 };
        let srcs: Vec<_> = i.sources().collect();
        assert_eq!(srcs, vec![Reg::T0]);
    }

    #[test]
    fn branch_cond_eval() {
        assert!(BranchCond::Eq.eval(0));
        assert!(!BranchCond::Eq.eval(1));
        assert!(BranchCond::Ne.eval(5));
        assert!(BranchCond::Lt.eval(u64::MAX)); // -1 < 0
        assert!(!BranchCond::Lt.eval(0));
        assert!(BranchCond::Le.eval(0));
        assert!(BranchCond::Ge.eval(0));
        assert!(BranchCond::Gt.eval(1));
        assert!(!BranchCond::Gt.eval(0));
        assert!(BranchCond::Lbs.eval(3));
        assert!(BranchCond::Lbc.eval(2));
    }

    #[test]
    fn classification_predicates() {
        let br = Inst::CondBranch { cond: BranchCond::Eq, ra: Reg::T0, disp: -1 };
        assert!(br.is_control() && br.is_cond_branch());
        assert!(Inst::Fence(FenceKind::Mb).is_sync());
        assert!(Inst::Pal(PalFunc::Halt).is_sync());
        assert!(!Inst::NOP.is_control());
    }

    #[test]
    fn mem_width_geometry() {
        assert_eq!(MemWidth::Byte.bytes(), 1);
        assert_eq!(MemWidth::Quad.bytes(), 8);
        assert_eq!(MemWidth::Quad.align_mask(), 7);
        assert_eq!(MemWidth::Byte.align_mask(), 0);
    }

    #[test]
    fn alu_op_predicates() {
        assert!(AluOp::Cmoveq.is_cmov());
        assert!(!AluOp::Addq.is_cmov());
        assert!(AluOp::Addqv.can_trap());
        assert!(!AluOp::Addq.can_trap());
        assert!(AluOp::Mulq.is_multiply());
        assert!(!AluOp::Sll.is_multiply());
    }
}
