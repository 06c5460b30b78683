//! The architectural (functional) simulator.
//!
//! This is the "instruction set simulator capable of running … binaries"
//! the paper uses for its virtual-machine fault injection study (§3.1),
//! and it doubles as the golden reference the microarchitectural pipeline
//! is compared against (§4.2).

use crate::alu::{self, AluOut};
use crate::state::{FaultState, FieldClass, Fingerprint, StateKind, StateVisitor};
use crate::{Exception, MemError, Memory, Perm};
use core::fmt;
use restore_isa::{decode, Inst, PalFunc, Program, Reg};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The 32-entry architectural register file with a hardwired zero.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct RegFile {
    regs: [u64; 32],
}

impl RegFile {
    /// All-zero register file.
    pub fn new() -> RegFile {
        RegFile::default()
    }

    /// Reads a register; `r31` always reads zero.
    #[inline]
    pub fn read(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes a register; writes to `r31` are discarded.
    #[inline]
    pub fn write(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Raw view for state comparison (index 31 is by construction 0).
    pub fn as_array(&self) -> &[u64; 32] {
        &self.regs
    }

    /// Flips one bit of a register (fault injection helper). Flips of
    /// `r31` are ignored, matching the hardwired zero.
    pub fn flip_bit(&mut self, r: Reg, bit: u32) {
        assert!(bit < 64);
        if !r.is_zero() {
            self.regs[r.index()] ^= 1u64 << bit;
        }
    }

    /// Visits the 31 writable registers' bits. `r31` is hardwired zero —
    /// no latch backs it, so it contributes no injectable state and
    /// walking it would let a flip create an unreadable nonzero residue
    /// that `arch_state_eq` could never observe through [`RegFile::read`].
    pub fn visit<V: StateVisitor>(&mut self, v: &mut V) {
        let RegFile { regs } = self;
        for r in regs.iter_mut().take(31) {
            v.word(r, 64, FieldClass::Data);
        }
    }
}

/// Details of a retired memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEffect {
    /// Effective address.
    pub addr: u64,
    /// Access size in bytes.
    pub len: u64,
    /// `true` for stores.
    pub is_store: bool,
    /// Value loaded or stored (post-extension for loads).
    pub value: u64,
}

/// Details of a retired control-flow instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchEffect {
    /// `true` if the branch redirected the PC (conditional taken, or any
    /// unconditional/jump).
    pub taken: bool,
    /// The address control transferred to (fall-through if not taken).
    pub target: u64,
    /// `true` for conditional branches.
    pub conditional: bool,
}

/// Everything observable about one retired instruction.
///
/// The fault-injection classifier diffs streams of these between golden
/// and injected runs to spot control-flow violations, corrupted memory
/// addresses and corrupted store data — the categories of paper Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// PC of the instruction.
    pub pc: u64,
    /// The decoded instruction.
    pub inst: Inst,
    /// PC of the next instruction.
    pub next_pc: u64,
    /// Register write performed, if any (post-cmov resolution).
    pub reg_write: Option<(Reg, u64)>,
    /// Memory access performed, if any.
    pub mem: Option<MemEffect>,
    /// Control-flow outcome, if a control instruction.
    pub branch: Option<BranchEffect>,
    /// `true` if this instruction halted the machine.
    pub halted: bool,
}

/// Outcome of [`Cpu::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// The program executed `call_pal halt`.
    Halted,
    /// The instruction budget was exhausted first.
    BudgetExhausted,
}

/// The machine state an instruction reads and writes: registers, data
/// memory and the output log. [`execute`] defines the ISA's semantics
/// over it once; [`Cpu::step`] runs it on the CPU's own state, and a
/// fault-injection campaign runs it on a golden machine it sees only
/// through the injected machine plus a difference overlay.
pub trait ExecState {
    /// Reads a register; `r31` must read zero.
    fn reg(&self, r: Reg) -> u64;
    /// Writes a register; writes to `r31` must be discarded.
    fn set_reg(&mut self, r: Reg, v: u64);
    /// Loads `len` bytes zero-extended, as [`Memory::load`].
    ///
    /// # Errors
    ///
    /// As [`Memory::load`].
    fn load(&self, addr: u64, len: u64) -> Result<u64, MemError>;
    /// Stores the low `len` bytes of `v`, as [`Memory::store`].
    ///
    /// # Errors
    ///
    /// As [`Memory::store`].
    fn store(&mut self, addr: u64, len: u64, v: u64) -> Result<(), MemError>;
    /// Appends a value to the output log (`call_pal putc` / `outq`).
    fn put_output(&mut self, v: u64);
}

/// Effective address of a load or store: base register plus the
/// sign-extended displacement.
#[inline]
pub fn effective_address(base: u64, disp: i16) -> u64 {
    base.wrapping_add(disp as i64 as u64)
}

/// Executes `inst` at `pc` against `s` — the one definition of the
/// ISA's semantics. Reads and writes go through `s`; the returned
/// [`Retired`] carries the next PC and halt flag for the caller to
/// commit.
///
/// # Errors
///
/// Returns the [`Exception`] if the instruction faults, before any write
/// reaches `s` (exceptions are precise).
#[inline]
pub fn execute<S: ExecState>(s: &mut S, pc: u64, inst: Inst) -> Result<Retired, Exception> {
    let mut next_pc = pc.wrapping_add(4);
    let mut reg_write = None;
    let mut mem_effect = None;
    let mut branch = None;
    let mut halted = false;

    match inst {
        Inst::Pal(f) => match f {
            PalFunc::Halt => halted = true,
            PalFunc::Putc => s.put_output(s.reg(Reg::A0) & 0xff),
            PalFunc::Outq => s.put_output(s.reg(Reg::A0)),
        },
        Inst::Lda { ra, rb, disp } => {
            let v = s.reg(rb).wrapping_add(disp as i64 as u64);
            s.set_reg(ra, v);
            reg_write = Some((ra, v));
        }
        Inst::Ldah { ra, rb, disp } => {
            let v = s.reg(rb).wrapping_add(((disp as i64) << 16) as u64);
            s.set_reg(ra, v);
            reg_write = Some((ra, v));
        }
        Inst::Load { width, ra, rb, disp } => {
            let addr = effective_address(s.reg(rb), disp);
            let raw = s.load(addr, width.bytes()).map_err(Exception::from_data_error)?;
            let v = match width {
                restore_isa::MemWidth::Long => raw as u32 as i32 as i64 as u64,
                _ => raw,
            };
            s.set_reg(ra, v);
            reg_write = Some((ra, v));
            mem_effect = Some(MemEffect { addr, len: width.bytes(), is_store: false, value: v });
        }
        Inst::Store { width, ra, rb, disp } => {
            let addr = effective_address(s.reg(rb), disp);
            let v = s.reg(ra);
            s.store(addr, width.bytes(), v).map_err(Exception::from_data_error)?;
            mem_effect = Some(MemEffect { addr, len: width.bytes(), is_store: true, value: v });
        }
        Inst::Op { op, ra, rb, rc } => {
            let a = s.reg(ra);
            let b = match rb {
                restore_isa::Operand::Reg(r) => s.reg(r),
                restore_isa::Operand::Lit(l) => l as u64,
            };
            let old_c = s.reg(rc);
            match alu::eval(op, a, b, old_c) {
                AluOut::Value(v) | AluOut::Value2(v) => {
                    s.set_reg(rc, v);
                    reg_write = Some((rc, v));
                }
                AluOut::Overflow => return Err(Exception::ArithmeticTrap { pc }),
            }
        }
        Inst::CondBranch { cond, ra, disp } => {
            let taken = cond.eval(s.reg(ra));
            let target = pc.wrapping_add(4).wrapping_add((disp as i64 as u64).wrapping_mul(4));
            if taken {
                next_pc = target;
            }
            branch = Some(BranchEffect { taken, target: next_pc, conditional: true });
        }
        Inst::Br { ra, disp } | Inst::Bsr { ra, disp } => {
            let link = pc.wrapping_add(4);
            let target = link.wrapping_add((disp as i64 as u64).wrapping_mul(4));
            s.set_reg(ra, link);
            if !ra.is_zero() {
                reg_write = Some((ra, link));
            }
            next_pc = target;
            branch = Some(BranchEffect { taken: true, target, conditional: false });
        }
        Inst::Jump { ra, rb, .. } => {
            let link = pc.wrapping_add(4);
            let target = s.reg(rb) & !3;
            s.set_reg(ra, link);
            if !ra.is_zero() {
                reg_write = Some((ra, link));
            }
            next_pc = target;
            branch = Some(BranchEffect { taken: true, target, conditional: false });
        }
        Inst::Fence(_) => {}
    }

    Ok(Retired { pc, inst, next_pc, reg_write, mem: mem_effect, branch, halted })
}

/// A CPU's own state as an [`ExecState`].
struct Datapath<'a> {
    regs: &'a mut RegFile,
    mem: &'a mut Memory,
    output: &'a mut Vec<u64>,
}

impl ExecState for Datapath<'_> {
    #[inline]
    fn reg(&self, r: Reg) -> u64 {
        self.regs.read(r)
    }
    #[inline]
    fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs.write(r, v);
    }
    #[inline]
    fn load(&self, addr: u64, len: u64) -> Result<u64, MemError> {
        self.mem.load(addr, len)
    }
    #[inline]
    fn store(&mut self, addr: u64, len: u64, v: u64) -> Result<(), MemError> {
        self.mem.store(addr, len, v)
    }
    #[inline]
    fn put_output(&mut self, v: u64) {
        self.output.push(v);
    }
}

/// A program's text decoded once at load: entry `i` is what fetching and
/// decoding `base + 4i` returned then (`None` where either failed, so
/// the fetch path reproduces the exception). It is valid while the
/// memory's [`Memory::exec_epoch`] still equals `epoch`.
struct DecodedText {
    base: u64,
    epoch: u64,
    insts: Box<[Option<Inst>]>,
}

impl DecodedText {
    fn new(mem: &Memory, base: u64, words: usize) -> DecodedText {
        let insts = (0..words as u64)
            .map(|i| mem.fetch(base + 4 * i).ok().and_then(|w| decode(w).ok()))
            .collect();
        DecodedText { base, epoch: mem.exec_epoch(), insts }
    }

    /// The decoded instruction at `pc`, if the table covers it and
    /// `epoch` is still the one it was decoded under.
    #[inline]
    fn get(&self, pc: u64, epoch: u64) -> Option<Inst> {
        let off = pc.wrapping_sub(self.base);
        if epoch != self.epoch || off & 3 != 0 {
            return None;
        }
        *self.insts.get(usize::try_from(off >> 2).ok()?)?
    }
}

impl fmt::Debug for DecodedText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodedText")
            .field("base", &self.base)
            .field("words", &self.insts.len())
            .finish_non_exhaustive()
    }
}

/// The architectural simulator: registers, PC, memory, output log.
///
/// # Examples
///
/// ```
/// use restore_arch::Cpu;
/// use restore_isa::{Asm, Reg, layout};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Asm::new("demo", layout::TEXT_BASE);
/// a.li(Reg::A0, 7);
/// a.outq();
/// a.halt();
/// let mut cpu = Cpu::new(&a.finish()?);
/// cpu.run(100)?;
/// assert_eq!(cpu.output(), &[7]);
/// # Ok(())
/// # }
/// ```
///
/// Each program's text is decoded once, in [`Cpu::new`], into a table
/// every clone shares, so a step fetches a pre-decoded instruction
/// instead of reading and decoding memory. A PC outside the table — a
/// jump past the text or into data — and any PC after an executable
/// page was remapped or poked (the memory's
/// [`exec_epoch`](Memory::exec_epoch) moved) take the fetch-and-decode
/// path, with exactly its exceptions. The table is a cache: `==` and
/// [`Cpu::fingerprint`] ignore it.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// Architectural registers.
    pub regs: RegFile,
    /// Program counter.
    pub pc: u64,
    /// Memory image.
    pub mem: Memory,
    output: Vec<u64>,
    retired: u64,
    halted: bool,
    text: Arc<DecodedText>,
}

/// Equality over the architectural machine; the decoded-text cache is
/// excluded.
impl PartialEq for Cpu {
    fn eq(&self, other: &Cpu) -> bool {
        let Cpu {
            regs,
            pc,
            mem,
            output,
            retired,
            halted,
            text: _, // decode cache: a function of `mem`'s text pages, bypassed once they change
        } = self;
        *regs == other.regs
            && *pc == other.pc
            && *mem == other.mem
            && *output == other.output
            && *retired == other.retired
            && *halted == other.halted
    }
}

impl Eq for Cpu {}

impl Cpu {
    /// Builds a CPU with `program` loaded: text mapped read-execute, data
    /// segments per their writability, stack mapped read-write, PC at the
    /// entry point, and `sp` at the stack top.
    pub fn new(program: &Program) -> Cpu {
        let mut mem = Memory::new();
        let text_bytes: Vec<u8> = program.text.iter().flat_map(|w| w.to_le_bytes()).collect();
        mem.map(program.text_base, text_bytes.len().max(4) as u64, Perm::RX);
        mem.poke_bytes(program.text_base, &text_bytes);
        for seg in &program.data {
            let perm = if seg.writable { Perm::RW } else { Perm::R };
            mem.map(seg.base, seg.bytes.len() as u64, perm);
            mem.poke_bytes(seg.base, &seg.bytes);
        }
        mem.map(program.stack_top - program.stack_size, program.stack_size, Perm::RW);
        let mut regs = RegFile::new();
        regs.write(Reg::SP, program.stack_top);
        let text = Arc::new(DecodedText::new(&mem, program.text_base, program.text.len()));
        Cpu { regs, pc: program.entry, mem, output: Vec::new(), retired: 0, halted: false, text }
    }

    /// Number of instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// `true` once `call_pal halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Values logged via `call_pal outq` / `putc`.
    pub fn output(&self) -> &[u64] {
        &self.output
    }

    /// Executes one instruction: [`Cpu::fetch`], then
    /// [`Cpu::step_fetched`].
    ///
    /// # Errors
    ///
    /// Returns the [`Exception`] if the instruction faults; architectural
    /// state (PC, registers, memory) is left at the faulting instruction,
    /// i.e. exceptions are precise.
    #[inline]
    pub fn step(&mut self) -> Result<Retired, Exception> {
        let inst = self.fetch()?;
        self.step_fetched(inst)
    }

    /// The instruction at the PC, from the decoded text when it covers
    /// the PC and no executable page changed since it was decoded, else
    /// fetched from memory and decoded.
    ///
    /// # Errors
    ///
    /// [`Exception::FetchFault`] if the PC is unmapped, non-executable
    /// or misaligned; [`Exception::IllegalInstruction`] if the word does
    /// not decode.
    #[inline]
    pub fn fetch(&self) -> Result<Inst, Exception> {
        let pc = self.pc;
        if let Some(inst) = self.text.get(pc, self.mem.exec_epoch()) {
            return Ok(inst);
        }
        let word = self.mem.fetch(pc).map_err(|_| Exception::FetchFault { pc })?;
        decode(word).map_err(|e| Exception::IllegalInstruction { pc, word: e.word })
    }

    /// Executes `inst` as the instruction at the PC and commits it: the
    /// second half of [`Cpu::step`], for callers that inspect the
    /// instruction [`Cpu::fetch`] returned before running it.
    ///
    /// # Errors
    ///
    /// As [`Cpu::step`].
    #[inline]
    pub fn step_fetched(&mut self, inst: Inst) -> Result<Retired, Exception> {
        debug_assert!(!self.halted, "stepping a halted CPU");
        let mut state =
            Datapath { regs: &mut self.regs, mem: &mut self.mem, output: &mut self.output };
        let r = execute(&mut state, self.pc, inst)?;
        self.pc = r.next_pc;
        self.retired += 1;
        self.halted = r.halted;
        Ok(r)
    }

    /// Runs until halt or until `budget` instructions retire.
    ///
    /// # Errors
    ///
    /// Stops at the first [`Exception`].
    pub fn run(&mut self, budget: u64) -> Result<RunExit, Exception> {
        for _ in 0..budget {
            if self.halted {
                return Ok(RunExit::Halted);
            }
            self.step()?;
        }
        Ok(if self.halted { RunExit::Halted } else { RunExit::BudgetExhausted })
    }

    /// `true` if two CPUs have identical software-visible state
    /// (registers, PC and memory) — the paper's masking test.
    pub fn arch_state_eq(&self, other: &Cpu) -> bool {
        self.regs == other.regs && self.pc == other.pc && self.mem == other.mem
    }

    /// Full-machine fingerprint for reconvergence detection, analogous
    /// to the pipeline's: the derived `Hash` of every field — registers,
    /// PC, memory, the output log, retirement count and halt flag — fed
    /// through a [`Fingerprint`]. The pattern names every field with no
    /// `..`, so a field added to `Cpu` does not compile until it is
    /// hashed here or excluded with its reason; the decoded-text cache
    /// is the one exclusion. Equal fingerprints mean — up to 64-bit
    /// collisions, negligible at campaign scale — equal machines, and
    /// the simulator is deterministic, so equal machines have identical
    /// futures *including* the masking judgement (the output log is part
    /// of the digest precisely so a converged pair cannot still differ in
    /// anything the end-of-trial comparison reads).
    ///
    /// `&mut self` because memory enters as its own digest
    /// ([`Memory::fingerprint`]), which reuses cached per-page digests
    /// and refreshes only pages dirtied since the last call — so a
    /// steady-state call costs O(registers + output + dirty pages), not
    /// O(memory image).
    pub fn fingerprint(&mut self) -> u64 {
        let Cpu {
            regs,
            pc,
            mem,
            output,
            retired,
            halted,
            text: _, // decode cache: a function of `mem`'s text pages, bypassed once they change
        } = self;
        let mut f = Fingerprint::new();
        (regs, pc, output, retired, halted, mem.fingerprint()).hash(&mut f);
        f.finish()
    }

    /// Builds the catalog of this machine's injectable state — the
    /// architectural analogue of `Pipeline::catalog` in `restore-uarch`,
    /// used by the state auditor's census and contract checks.
    pub fn catalog(&mut self) -> crate::state::StateCatalog {
        let mut rec = crate::state::RangeRecorder::new();
        self.visit_state(&mut rec);
        rec.into_catalog()
    }
}

/// The architectural machine's injectable state: the software-visible
/// registers and the PC. Memory is excluded (the §3.1 fault model
/// corrupts instruction *results*, and stored bits are compared whole at
/// trial end); the output log, retirement counter and halt flag are
/// simulation bookkeeping with no hardware latch behind them.
impl FaultState for Cpu {
    fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
        let Cpu {
            regs,
            pc,
            // Not injection substrate at this level (§3.1 flips instruction
            // results, not stored bits): `arch_state_eq` compares it whole
            // and `fingerprint` digests it.
            mem: _,
            output: _,  // write-only observable, never read back
            retired: _, // retirement counter: simulation bookkeeping
            halted: _,  // halt flag: simulation bookkeeping, not a latch
            // Decode cache of the text pages: derived from the memory this
            // walk excludes, and bypassed once an executable page changes.
            text: _,
        } = self;
        v.region("arch-regfile", StateKind::Ram);
        regs.visit(v);
        v.region("arch-pc", StateKind::Latch);
        v.word(pc, 64, FieldClass::Data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessKind;
    use restore_isa::{layout, Asm};

    fn run_asm(build: impl FnOnce(&mut Asm)) -> Cpu {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        build(&mut a);
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p);
        cpu.run(100_000).unwrap();
        cpu
    }

    #[test]
    fn sum_loop_computes_55() {
        let cpu = run_asm(|a| {
            a.clr(Reg::V0);
            a.li(Reg::T0, 10);
            let top = a.bind_here();
            a.addq(Reg::V0, Reg::T0, Reg::V0);
            a.subq_lit(Reg::T0, 1, Reg::T0);
            a.bgt(Reg::T0, top);
            a.mov(Reg::V0, Reg::A0);
            a.outq();
            a.halt();
        });
        assert_eq!(cpu.output(), &[55]);
        assert!(cpu.is_halted());
    }

    #[test]
    fn call_and_return() {
        let cpu = run_asm(|a| {
            let func = a.label();
            a.li(Reg::A0, 5);
            a.bsr(func);
            a.outq();
            a.halt();
            a.bind(func).unwrap();
            a.addq_lit(Reg::A0, 1, Reg::A0);
            a.ret();
        });
        assert_eq!(cpu.output(), &[6]);
    }

    #[test]
    fn stack_store_load() {
        let cpu = run_asm(|a| {
            a.li(Reg::T0, 1234);
            a.stq(Reg::T0, -8, Reg::SP);
            a.ldq(Reg::A0, -8, Reg::SP);
            a.outq();
            a.halt();
        });
        assert_eq!(cpu.output(), &[1234]);
    }

    #[test]
    fn sub_word_loads_extend_correctly() {
        let cpu = run_asm(|a| {
            a.li(Reg::T0, -1);
            a.stl(Reg::T0, -8, Reg::SP); // stores 0xffffffff
            a.ldl(Reg::A0, -8, Reg::SP); // sign extends
            a.outq();
            a.ldwu(Reg::A0, -8, Reg::SP); // zero extends 16 bits
            a.outq();
            a.ldbu(Reg::A0, -8, Reg::SP);
            a.outq();
            a.halt();
        });
        assert_eq!(cpu.output(), &[u64::MAX, 0xffff, 0xff]);
    }

    #[test]
    fn unmapped_load_raises_access_violation() {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        a.li(Reg::T0, 0x4000_0000);
        a.ldq(Reg::T1, 0, Reg::T0);
        a.halt();
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p);
        let e = cpu.run(100).unwrap_err();
        assert!(matches!(e, Exception::AccessViolation { access: AccessKind::Load, .. }));
    }

    #[test]
    fn misaligned_store_raises_alignment() {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        a.li(Reg::T0, layout::STACK_TOP as i64 - 7);
        a.stq(Reg::ZERO, 0, Reg::T0);
        a.halt();
        let mut cpu = Cpu::new(&a.finish().unwrap());
        let e = cpu.run(100).unwrap_err();
        assert!(matches!(e, Exception::Alignment { .. }));
    }

    #[test]
    fn overflow_trap_is_raised_and_precise() {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        a.li(Reg::T0, i64::MAX);
        a.op(restore_isa::AluOp::Addqv, Reg::T0, Reg::T0, Reg::T1);
        a.halt();
        let mut cpu = Cpu::new(&a.finish().unwrap());
        let before = cpu.clone();
        let e = cpu.run(100).unwrap_err();
        assert!(matches!(e, Exception::ArithmeticTrap { .. }));
        // Precise: T1 was not written by the trapping instruction.
        assert_eq!(cpu.regs.read(Reg::T1), before.regs.read(Reg::T1));
    }

    #[test]
    fn illegal_instruction_raises() {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        a.emit_raw(0x7fff_ffff); // undefined opcode 0x1f
        a.halt();
        let mut cpu = Cpu::new(&a.finish().unwrap());
        let e = cpu.run(100).unwrap_err();
        assert!(matches!(e, Exception::IllegalInstruction { word: 0x7fff_ffff, .. }));
    }

    #[test]
    fn wild_jump_raises_fetch_fault() {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        a.li(Reg::T0, 0x5000_0000);
        a.jmp(Reg::ZERO, Reg::T0);
        let mut cpu = Cpu::new(&a.finish().unwrap());
        let e = cpu.run(100).unwrap_err();
        assert_eq!(e, Exception::FetchFault { pc: 0x5000_0000 });
    }

    #[test]
    fn store_to_text_is_denied() {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        a.la(Reg::T0, layout::TEXT_BASE);
        a.stq(Reg::ZERO, 0, Reg::T0);
        a.halt();
        let mut cpu = Cpu::new(&a.finish().unwrap());
        let e = cpu.run(100).unwrap_err();
        assert!(matches!(e, Exception::AccessViolation { access: AccessKind::Store, .. }));
    }

    #[test]
    fn budget_exhaustion_reported() {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        let top = a.bind_here();
        a.br(top); // infinite loop
        let mut cpu = Cpu::new(&a.finish().unwrap());
        assert_eq!(cpu.run(1000).unwrap(), RunExit::BudgetExhausted);
        assert_eq!(cpu.retired(), 1000);
    }

    #[test]
    fn retired_event_captures_branch_outcome() {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        let skip = a.label();
        a.beq(Reg::ZERO, skip); // always taken (zero == 0)
        a.nop();
        a.bind(skip).unwrap();
        a.halt();
        let mut cpu = Cpu::new(&a.finish().unwrap());
        let r = cpu.step().unwrap();
        let b = r.branch.unwrap();
        assert!(b.taken && b.conditional);
        assert_eq!(r.next_pc, layout::TEXT_BASE + 8);
    }

    #[test]
    fn retired_event_captures_memory_effect() {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        a.stq(Reg::SP, -16, Reg::SP);
        a.halt();
        let mut cpu = Cpu::new(&a.finish().unwrap());
        let r = cpu.step().unwrap();
        let m = r.mem.unwrap();
        assert!(m.is_store);
        assert_eq!(m.addr, layout::STACK_TOP - 16);
        assert_eq!(m.value, layout::STACK_TOP);
    }

    #[test]
    fn arch_state_eq_detects_divergence() {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        a.nop();
        a.halt();
        let p = a.finish().unwrap();
        let c1 = Cpu::new(&p);
        let mut c2 = Cpu::new(&p);
        assert!(c1.arch_state_eq(&c2));
        c2.regs.flip_bit(Reg::T5, 17);
        assert!(!c1.arch_state_eq(&c2));
    }

    #[test]
    fn fingerprint_tracks_machine_state_and_output() {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        a.li(Reg::T0, 7);
        a.stq(Reg::T0, -8, Reg::SP);
        a.mov(Reg::T0, Reg::A0);
        a.outq();
        a.halt();
        let p = a.finish().unwrap();
        let mut c1 = Cpu::new(&p);
        let mut c2 = Cpu::new(&p);
        assert_eq!(c1.fingerprint(), c2.fingerprint());
        c1.step().unwrap();
        assert_ne!(c1.fingerprint(), c2.fingerprint(), "pc/reg change must show");
        c2.step().unwrap();
        assert_eq!(c1.fingerprint(), c2.fingerprint());
        // Divergent register state, then reconvergence by overwrite.
        let fork = c1.fingerprint();
        c1.regs.flip_bit(Reg::T5, 3);
        assert_ne!(c1.fingerprint(), fork);
        c1.regs.flip_bit(Reg::T5, 3);
        assert_eq!(c1.fingerprint(), fork, "flip∘flip must restore the fingerprint");
        // Memory and output are covered too.
        while !c1.is_halted() {
            c1.step().unwrap();
            c2.step().unwrap();
        }
        assert_eq!(c1.fingerprint(), c2.fingerprint());
        c1.mem.flip_bit(layout::STACK_TOP - 8, 0);
        assert_ne!(c1.fingerprint(), c2.fingerprint(), "memory change must show");
        c1.mem.flip_bit(layout::STACK_TOP - 8, 0);
        assert_eq!(c1.fingerprint(), c2.fingerprint());
    }

    #[test]
    fn state_walk_covers_regs_and_pc_with_involutive_flips() {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        a.nop();
        a.halt();
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p);
        let cat = cpu.catalog();
        // 31 writable registers (r31 is hardwired zero) plus the PC.
        assert_eq!(cat.total_bits, 31 * 64 + 64);
        assert_eq!(cat.regions.len(), 2);
        assert_eq!(cat.regions[0].name, "arch-regfile");
        assert_eq!(cat.regions[1].name, "arch-pc");
        let baseline = cpu.clone();
        for bit in [0, 63, 64, 30 * 64 + 7, 31 * 64, 31 * 64 + 63] {
            let mut f = crate::state::BitFlipper::new(bit);
            cpu.visit_state(&mut f);
            assert!(f.flipped, "bit {bit}");
            assert!(cpu != baseline, "bit {bit} had no effect");
            let mut f = crate::state::BitFlipper::new(bit);
            cpu.visit_state(&mut f);
            assert!(cpu == baseline, "bit {bit} not involutive");
        }
    }

    #[test]
    fn zero_register_is_immutable() {
        let cpu = run_asm(|a| {
            a.li(Reg::T0, 42);
            a.addq(Reg::T0, Reg::T0, Reg::ZERO); // write to r31 discarded
            a.mov(Reg::ZERO, Reg::A0);
            a.outq();
            a.halt();
        });
        assert_eq!(cpu.output(), &[0]);
    }

    /// What `step` fetched before the decoded text existed: memory, then
    /// the decoder.
    fn fetch_and_decode(cpu: &Cpu) -> Result<Inst, Exception> {
        let pc = cpu.pc;
        let word = cpu.mem.fetch(pc).map_err(|_| Exception::FetchFault { pc })?;
        decode(word).map_err(|e| Exception::IllegalInstruction { pc, word: e.word })
    }

    #[test]
    fn decoded_text_agrees_with_fetch_and_decode_on_every_workload() {
        use restore_workloads::{Scale, WorkloadId};
        for id in WorkloadId::ALL {
            let p = id.build(Scale::campaign());
            let mut cpu = Cpu::new(&p);
            // The table holds a few dozen instructions: well under 1 KB.
            assert!(std::mem::size_of_val(&*cpu.text.insts) < 1024, "{id:?}");
            let end = p.text_base + 4 * p.text.len() as u64;
            for pc in (p.text_base..end + 8).step_by(4).chain([p.text_base + 2]) {
                cpu.pc = pc;
                assert_eq!(cpu.fetch(), fetch_and_decode(&cpu), "{id:?} at {pc:#x}");
            }
        }
    }

    #[test]
    fn poked_text_word_executes_on_the_next_step() {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        a.nop();
        a.halt();
        let mut cpu = Cpu::new(&a.finish().unwrap());
        let lda = Inst::Lda { ra: Reg::A0, rb: Reg::ZERO, disp: 9 };
        cpu.mem.poke_bytes(layout::TEXT_BASE, &lda.encode().to_le_bytes());
        let r = cpu.step().unwrap();
        assert_eq!(r.inst, lda);
        assert_eq!(cpu.regs.read(Reg::A0), 9);
    }

    #[test]
    fn text_remapped_without_execute_faults_the_fetch() {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        a.nop();
        a.halt();
        let mut cpu = Cpu::new(&a.finish().unwrap());
        cpu.mem.map(layout::TEXT_BASE, crate::PAGE_SIZE, Perm::R);
        assert_eq!(cpu.step(), Err(Exception::FetchFault { pc: layout::TEXT_BASE }));
    }

    #[test]
    fn undecodable_text_word_raises_the_fetch_paths_exception() {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        a.emit_raw(0x7fff_ffff);
        a.halt();
        let mut cpu = Cpu::new(&a.finish().unwrap());
        let want = Exception::IllegalInstruction { pc: layout::TEXT_BASE, word: 0x7fff_ffff };
        assert_eq!(fetch_and_decode(&cpu), Err(want));
        assert_eq!(cpu.step(), Err(want));
    }

    #[test]
    fn jumps_past_the_text_or_into_data_take_the_fetch_path() {
        let data = layout::DATA_BASE;
        for target in [layout::TEXT_BASE + 0x100, data, data + 4 * crate::PAGE_SIZE] {
            let mut a = Asm::new("t", layout::TEXT_BASE);
            a.la(Reg::T0, target);
            a.jmp(Reg::ZERO, Reg::T0);
            let mut p = a.finish().unwrap();
            p.data.push(restore_isa::DataSegment {
                base: data,
                bytes: vec![1; 64],
                writable: true,
            });
            let mut cpu = Cpu::new(&p);
            while cpu.pc != target {
                cpu.step().unwrap();
            }
            let want = fetch_and_decode(&cpu);
            assert_eq!(cpu.fetch(), want, "jump to {target:#x}");
            assert_eq!(cpu.step().map(|r| r.inst), want, "jump to {target:#x}");
        }
    }

    #[test]
    fn clones_share_the_decoded_text_and_equality_ignores_it() {
        let mut a = Asm::new("t", layout::TEXT_BASE);
        a.nop();
        a.halt();
        let p = a.finish().unwrap();
        let cpu = Cpu::new(&p);
        let clone = cpu.clone();
        assert!(Arc::ptr_eq(&cpu.text, &clone.text));
        let rebuilt = Cpu::new(&p);
        assert!(!Arc::ptr_eq(&cpu.text, &rebuilt.text));
        assert_eq!(cpu, rebuilt);
    }

    #[test]
    fn ret_through_same_register() {
        // `jmp ra, (ra)`-style: the jump must read `rb` before linking
        // into `ra` when they are the same register.
        let cpu = run_asm(|a| {
            let over = a.label();
            a.br(over);
            let func = a.here();
            a.li(Reg::A0, 9);
            a.outq();
            a.halt();
            a.bind(over).unwrap();
            a.la(Reg::RA, func);
            a.jmp(Reg::RA, Reg::RA);
        });
        assert_eq!(cpu.output(), &[9]);
    }
}
