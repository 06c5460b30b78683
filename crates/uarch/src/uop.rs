//! In-flight instruction state: fetch-queue entries, scheduler entries,
//! reorder-buffer entries, load/store-queue entries and execute-pipe
//! latches.
//!
//! Every struct here is fault-injectable: its `visit_state` walks the
//! bits a latch-level model would expose. The 32-bit **encoded
//! instruction word** travels with each in-flight instruction as its
//! control word; consumers re-decode it at each use, so a bit flip in any
//! latch takes architectural effect exactly as it would in hardware
//! (illegal encodings, retargeted ALU functions, bent displacements).
//! Sequence numbers and cycle timestamps are simulation artifacts and are
//! not visited.
//!
//! Those artifacts still determine future evolution — ages pick the
//! oldest-ready uop, timestamps gate writeback, prediction snapshots feed
//! retire-time training and recovery — so every entry type derives
//! `Hash` over all of its fields, and the full-machine reconvergence
//! fingerprint, which must witness *complete* machine equality before a
//! trial may be cut short, hashes each entry whole.
//!
//! For mask-consuming visitors ([`StateVisitor::wants_masks`]) the walks
//! additionally declare, via [`StateVisitor::masked`], which bits of an
//! in-flight entry are *statically masked* by the entry's own control
//! state: fields no consumer reads while a sibling role/valid/exception
//! bit holds its current value. Only **non-propagating** fields qualify —
//! a field that is merely unread but still copied forward at issue (a
//! scheduler entry's `dest`, say, which moves into the execute latch
//! wholesale) is never declared, because the copy would carry a flip into
//! a second field and break single-field interval reasoning. Every
//! declaration below cites the consumer it was checked against.

use crate::pipeline::role_of;
use crate::state::{width_mask, FieldClass, StateVisitor};
use restore_isa::{decode, Inst, Operand};

/// Exception codes carried in ROB entries (3 bits + a 64-bit auxiliary
/// value — an address or the offending word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ExcCode {
    /// No exception.
    None = 0,
    /// Load access violation.
    LoadAccess = 1,
    /// Store access violation.
    StoreAccess = 2,
    /// Load alignment fault.
    LoadAlign = 3,
    /// Store alignment fault.
    StoreAlign = 4,
    /// Arithmetic overflow trap.
    Arith = 5,
    /// Illegal instruction.
    Illegal = 6,
    /// Instruction fetch fault.
    Fetch = 7,
}

impl ExcCode {
    /// Decodes a 3-bit field (total: every value maps to a code).
    pub fn from_bits(v: u8) -> ExcCode {
        match v & 7 {
            0 => ExcCode::None,
            1 => ExcCode::LoadAccess,
            2 => ExcCode::StoreAccess,
            3 => ExcCode::LoadAlign,
            4 => ExcCode::StoreAlign,
            5 => ExcCode::Arith,
            6 => ExcCode::Illegal,
            _ => ExcCode::Fetch,
        }
    }
}

/// Functional role assigned to a uop at rename. Stored as a 3-bit control
/// field; a flip that makes the role disagree with the re-decoded word is
/// reported as an illegal-instruction exception (hardware would take a
/// machine check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Role {
    /// Integer ALU operation (including `lda`/`ldah`).
    Alu = 0,
    /// Memory load.
    Load = 1,
    /// Memory store.
    Store = 2,
    /// Conditional branch.
    CondBr = 3,
    /// Unconditional direct branch (`br`/`bsr`).
    BrLink = 4,
    /// Indirect jump (`jmp`/`jsr`/`ret`).
    Jump = 5,
    /// Completed-at-rename uop (PAL, fence, poisoned fetch).
    Direct = 6,
}

impl Role {
    /// Decodes a 3-bit field.
    pub fn from_bits(v: u8) -> Role {
        match v & 7 {
            0 => Role::Alu,
            1 => Role::Load,
            2 => Role::Store,
            3 => Role::CondBr,
            4 => Role::BrLink,
            5 => Role::Jump,
            _ => Role::Direct,
        }
    }

    /// `true` for the three control-flow roles.
    pub fn is_control(self) -> bool {
        matches!(self, Role::CondBr | Role::BrLink | Role::Jump)
    }
}

/// Branch prediction details attached to a fetched control instruction.
///
/// `taken`/`target` are latch bits (injectable); the history snapshot,
/// confidence assessment and RAS snapshot feed only predictor updates and
/// recovery, so they follow the paper's predictor-state exclusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct PredInfo {
    /// Predicted direction (always `true` for unconditional control).
    pub taken: bool,
    /// Predicted next PC (target if taken, fall-through otherwise).
    pub next_pc: u64,
    /// Global history used for the prediction (excluded from injection).
    pub used_ghr: u64,
    /// JRS high-confidence flag at prediction time (excluded).
    pub high_conf: bool,
    /// RAS top-of-stack after fetch of this instruction (excluded).
    pub ras_top: u32,
}

impl PredInfo {
    /// Visits the prediction's latch bits. `unread` declares both fields
    /// statically masked — retire only consults a prediction snapshot for
    /// control-role uops.
    fn visit<V: StateVisitor>(&mut self, v: &mut V, unread: bool) {
        let PredInfo {
            taken,
            next_pc,
            used_ghr: _,  // GHR snapshot: predictor training/recovery only, paper §4.2
            high_conf: _, // JRS snapshot: retire-time training only, excluded like the estimator
            ras_top: _,   // RAS snapshot: predictor recovery metadata, paper §4.2
        } = self;
        if unread {
            v.masked(1);
        }
        v.flag(taken);
        if unread {
            v.masked(u64::MAX);
        }
        v.word(next_pc, 64, FieldClass::Data);
    }
}

/// One fetch-queue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct FqEntry {
    /// Fetch PC.
    pub pc: u64,
    /// Fetched instruction word.
    pub word: u32,
    /// `true` if instruction fetch itself faulted (poisoned slot).
    pub fetch_fault: bool,
    /// Prediction made at fetch for control instructions.
    pub pred: PredInfo,
}

impl FqEntry {
    /// Visits the slot's latch bits.
    pub fn visit<V: StateVisitor>(&mut self, v: &mut V) {
        let FqEntry { pc, word, fetch_fault, pred } = self;
        v.word(pc, 64, FieldClass::Data);
        v.word32(word, 32, FieldClass::Control);
        v.flag(fetch_fault);
        // No mask: decode consults the prediction for every fetched word.
        pred.visit(v, false);
    }
}

/// A source operand tag in the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct SrcTag {
    /// Physical register tag.
    pub tag: u8,
    /// `true` when the producing value is available.
    pub ready: bool,
    /// `true` if this source slot is in use.
    pub used: bool,
}

impl SrcTag {
    /// Visits the tag's latch bits. `unread` declares the tag and ready
    /// bits statically masked: when the slot is unused, wakeup skips it,
    /// the issue-time register read skips it, and `SchedEntry::ready`'s
    /// `!used || ready` term is independent of `ready` — and neither bit
    /// is copied into the execute latch (only the gated operand values
    /// are). The `used` bit itself is always live.
    fn visit<V: StateVisitor>(&mut self, v: &mut V, unread: bool) {
        let SrcTag { tag, ready, used } = self;
        if unread {
            v.masked(width_mask(7));
        }
        v.word8(tag, 7, FieldClass::Control);
        if unread {
            v.masked(1);
        }
        v.flag(ready);
        v.flag(used);
    }
}

/// One scheduler (issue window) entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct SchedEntry {
    /// Occupied flag.
    pub valid: bool,
    /// Encoded instruction word (the control word).
    pub word: u32,
    /// Instruction PC (needed by branch units).
    pub pc: u64,
    /// ROB index this uop completes into.
    pub rob_idx: u8,
    /// Functional role.
    pub role: u8,
    /// Sources: `[0]`=ra or base, `[1]`=rb or store data, `[2]`=cmov old
    /// destination.
    pub src: [SrcTag; 3],
    /// Destination physical register.
    pub dest: u8,
    /// `true` if the uop writes a register.
    pub has_dest: bool,
    /// Load/store queue slot for memory uops.
    pub mem_idx: u8,
    /// Age for oldest-first select (simulation artifact, not visited).
    pub seq: u64,
}

impl SchedEntry {
    /// Visits the entry's latch bits. The valid flag itself is always
    /// live; the payload of an invalid entry is dead — wakeup, select
    /// and squash all test `valid` before touching anything else.
    pub fn visit<V: StateVisitor>(&mut self, v: &mut V) {
        let live = self.valid;
        let masks = v.wants_masks() && live;
        let SchedEntry {
            valid,
            word,
            pc,
            rob_idx,
            role,
            src,
            dest,
            has_dest,
            mem_idx,
            seq: _, // age: simulation artifact, no latch; hashed by the fingerprint
        } = self;
        v.flag(valid);
        v.occupancy(live);
        v.word32(word, 32, FieldClass::Control);
        v.word(pc, 64, FieldClass::Data);
        v.word8(rob_idx, 7, FieldClass::Control);
        v.word8(role, 3, FieldClass::Control);
        for s in src.iter_mut() {
            let unread = masks && !s.used;
            s.visit(v, unread);
        }
        v.word8(dest, 7, FieldClass::Control);
        v.flag(has_dest);
        v.word8(mem_idx, 5, FieldClass::Control);
        v.occupancy(true);
    }

    /// `true` when every used source is ready.
    pub fn ready(&self) -> bool {
        self.valid && self.src.iter().all(|s| !s.used || s.ready)
    }
}

/// One reorder-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct RobEntry {
    /// Instruction PC.
    pub pc: u64,
    /// Encoded instruction word.
    pub word: u32,
    /// Functional role.
    pub role: u8,
    /// Destination physical register.
    pub phys_dest: u8,
    /// Previous mapping of the destination architectural register.
    pub old_dest: u8,
    /// Destination architectural register index.
    pub arch_dest: u8,
    /// `true` if the uop writes a register.
    pub has_dest: bool,
    /// Execution finished (result available / effects computed).
    pub completed: bool,
    /// Exception code (0 = none).
    pub exc: u8,
    /// Exception auxiliary value (faulting address or word).
    pub exc_aux: u64,
    /// Load/store queue slot for memory uops.
    pub mem_idx: u8,
    /// Branch order buffer slot for control uops.
    pub bob_idx: u8,
    /// Prediction made at fetch.
    pub pred: PredInfo,
    /// Predictor/JRS already trained at resolve (mispredicts train
    /// immediately so confidence resets before any rollback).
    pub trained: bool,
    /// Memory-order violation: do not retire; flush and re-execute from
    /// this instruction.
    pub replay: bool,
    /// Resolved direction for control uops.
    pub actual_taken: bool,
    /// PC of the next instruction (resolved).
    pub next_pc: u64,
    /// Age (simulation artifact, not visited).
    pub seq: u64,
}

impl RobEntry {
    /// Visits the entry's bits (classified RAM-resident; the ROB is an
    /// SRAM structure in the paper's model).
    ///
    /// Mask declarations, each checked against every consumer in the
    /// retire/resolve paths:
    /// * `mem_idx`/`bob_idx` are write-only bookkeeping — retire matches
    ///   LDQ/STQ/BOB heads by sequence number, never by these indices;
    /// * `phys_dest`/`old_dest`/`arch_dest` are read only under
    ///   `has_dest` at writeback-to-architectural-state;
    /// * `exc_aux` is read only when raising an exception (`exc != 0`) or
    ///   in the store-retire STQ-corruption fallback, hence the `Store`
    ///   exclusion;
    /// * the prediction snapshot, `trained` and `actual_taken` feed only
    ///   the control-role retire branch and `resolve_branch`.
    pub fn visit<V: StateVisitor>(&mut self, v: &mut V) {
        let masks = v.wants_masks();
        let role = Role::from_bits(self.role);
        let no_dest = masks && !self.has_dest;
        let non_control = masks && !role.is_control();
        let no_exc_aux = masks && self.exc == 0 && role != Role::Store;
        let RobEntry {
            pc,
            word,
            role,
            phys_dest,
            old_dest,
            arch_dest,
            has_dest,
            completed,
            exc,
            exc_aux,
            mem_idx,
            bob_idx,
            pred,
            trained,
            replay,
            actual_taken,
            next_pc,
            seq: _, // age: simulation artifact, no latch; hashed by the fingerprint
        } = self;
        v.word(pc, 64, FieldClass::Data);
        v.word32(word, 32, FieldClass::Control);
        v.word8(role, 3, FieldClass::Control);
        if no_dest {
            v.masked(width_mask(7));
        }
        v.word8(phys_dest, 7, FieldClass::Control);
        if no_dest {
            v.masked(width_mask(7));
        }
        v.word8(old_dest, 7, FieldClass::Control);
        if no_dest {
            v.masked(width_mask(5));
        }
        v.word8(arch_dest, 5, FieldClass::Control);
        v.flag(has_dest);
        v.flag(completed);
        v.word8(exc, 3, FieldClass::Control);
        if no_exc_aux {
            v.masked(u64::MAX);
        }
        v.word(exc_aux, 64, FieldClass::Data);
        if masks {
            v.masked(width_mask(5));
        }
        v.word8(mem_idx, 5, FieldClass::Control);
        if masks {
            v.masked(width_mask(4));
        }
        v.word8(bob_idx, 4, FieldClass::Control);
        pred.visit(v, non_control);
        if non_control {
            v.masked(1);
        }
        v.flag(trained);
        v.flag(replay);
        if non_control {
            v.masked(1);
        }
        v.flag(actual_taken);
        v.word(next_pc, 64, FieldClass::Data);
    }
}

/// One load-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct LdqEntry {
    /// Effective address (valid once `addr_ready`).
    pub addr: u64,
    /// Address generated.
    pub addr_ready: bool,
    /// log2 of access size.
    pub width_log2: u8,
    /// Sign-extend the loaded value (`ldl`).
    pub sext: bool,
    /// Destination physical register.
    pub dest: u8,
    /// `true` if the load writes a register (loads to `r31` are
    /// prefetches).
    pub has_dest: bool,
    /// ROB index to complete.
    pub rob_idx: u8,
    /// Value returned (for retire reporting).
    pub value: u64,
    /// Load has produced its value.
    pub completed: bool,
    /// Age (artifact).
    pub seq: u64,
    /// Cycle at which the cache/TLB latency expires (artifact).
    pub ready_at: u64,
    /// Memory access issued, awaiting latency (artifact).
    pub mem_issued: bool,
    /// Value was obtained speculatively, bypassing older stores with
    /// unresolved addresses (memory dependence speculation).
    pub speculative: bool,
}

impl LdqEntry {
    /// Visits the entry's latch bits. A prefetch's `dest` is statically
    /// masked: load completion forwards the value to a register only
    /// under `has_dest`.
    pub fn visit<V: StateVisitor>(&mut self, v: &mut V) {
        let prefetch = v.wants_masks() && !self.has_dest;
        let LdqEntry {
            addr,
            addr_ready,
            width_log2,
            sext,
            dest,
            has_dest,
            rob_idx,
            value,
            completed,
            seq: _,        // age: simulation artifact, no latch; hashed by the fingerprint
            ready_at: _,   // latency timestamp: timing model; hashed by the fingerprint
            mem_issued: _, // latency-model bookkeeping; hashed by the fingerprint
            speculative,
        } = self;
        v.word(addr, 64, FieldClass::Data);
        v.flag(addr_ready);
        v.word8(width_log2, 2, FieldClass::Control);
        v.flag(sext);
        if prefetch {
            v.masked(width_mask(7));
        }
        v.word8(dest, 7, FieldClass::Control);
        v.flag(has_dest);
        v.word8(rob_idx, 7, FieldClass::Control);
        v.word(value, 64, FieldClass::Data);
        v.flag(completed);
        v.flag(speculative);
    }
}

/// One store-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct StqEntry {
    /// Effective address (valid once `addr_ready`).
    pub addr: u64,
    /// Address generated.
    pub addr_ready: bool,
    /// Store data.
    pub data: u64,
    /// Data captured.
    pub data_ready: bool,
    /// log2 of access size.
    pub width_log2: u8,
    /// ROB index to complete.
    pub rob_idx: u8,
    /// Age (artifact).
    pub seq: u64,
}

impl StqEntry {
    /// Visits the entry's latch bits. `rob_idx` is statically masked:
    /// store completion is signalled through the execute latch's own ROB
    /// index and retire pops the queue by sequence match, so this copy is
    /// written at rename and never read.
    pub fn visit<V: StateVisitor>(&mut self, v: &mut V) {
        let masks = v.wants_masks();
        let StqEntry {
            addr,
            addr_ready,
            data,
            data_ready,
            width_log2,
            rob_idx,
            seq: _, // age: simulation artifact, no latch; hashed by the fingerprint
        } = self;
        v.word(addr, 64, FieldClass::Data);
        v.flag(addr_ready);
        v.word(data, 64, FieldClass::Data);
        v.flag(data_ready);
        v.word8(width_log2, 2, FieldClass::Control);
        if masks {
            v.masked(width_mask(7));
        }
        v.word8(rob_idx, 7, FieldClass::Control);
    }
}

/// An instruction in flight between register read and writeback: the
/// regread/execute pipeline latches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct ExecLatch {
    /// Occupied flag.
    pub valid: bool,
    /// Encoded instruction word.
    pub word: u32,
    /// Instruction PC.
    pub pc: u64,
    /// Operand values latched at register read.
    pub a: u64,
    /// Second operand (or store data).
    pub b: u64,
    /// Third operand (cmov old destination).
    pub c: u64,
    /// Destination physical register.
    pub dest: u8,
    /// `true` if the uop writes a register.
    pub has_dest: bool,
    /// Functional role.
    pub role: u8,
    /// ROB index to complete.
    pub rob_idx: u8,
    /// Load/store queue slot for memory uops.
    pub mem_idx: u8,
    /// Age (artifact).
    pub seq: u64,
    /// Writeback cycle (artifact).
    pub finish_at: u64,
}

impl ExecLatch {
    /// Visits the latch bits. As with [`SchedEntry::visit`], the payload
    /// of an invalid latch is dead: writeback skips invalid slots and a
    /// new issue overwrites every field.
    ///
    /// Operand masks derive from re-decoding the control word, and are
    /// declared only when the word decodes *and* agrees with the `role`
    /// latch (execute raises an illegal-instruction machine check
    /// otherwise, which is a symptom, not masking). Per-operand
    /// consumers: `a` is unread only by `br`/`bsr` (their return address
    /// and target are PC-relative); `b` is unread by loads, conditional
    /// branches, jumps, `br`/`bsr`, `lda`/`ldah` and literal-operand ALU
    /// ops (stores latch it as data, register-operand ops evaluate it);
    /// `c` is read only by conditional moves; `mem_idx` only by memory
    /// roles.
    pub fn visit<V: StateVisitor>(&mut self, v: &mut V) {
        let live = self.valid;
        let inst = if v.wants_masks() && live {
            decode(self.word).ok().filter(|i| role_of(i) as u8 == self.role)
        } else {
            None
        };
        let ExecLatch {
            valid,
            word,
            pc,
            a,
            b,
            c,
            dest,
            has_dest,
            role,
            rob_idx,
            mem_idx,
            seq: _,       // age: simulation artifact, no latch; hashed by the fingerprint
            finish_at: _, // writeback timestamp: timing model; hashed by the fingerprint
        } = self;
        v.flag(valid);
        v.occupancy(live);
        v.word32(word, 32, FieldClass::Control);
        v.word(pc, 64, FieldClass::Data);
        if matches!(inst, Some(Inst::Br { .. } | Inst::Bsr { .. })) {
            v.masked(u64::MAX);
        }
        v.word(a, 64, FieldClass::Data);
        if matches!(
            inst,
            Some(
                Inst::Load { .. }
                    | Inst::CondBranch { .. }
                    | Inst::Jump { .. }
                    | Inst::Br { .. }
                    | Inst::Bsr { .. }
                    | Inst::Lda { .. }
                    | Inst::Ldah { .. }
                    | Inst::Op { rb: Operand::Lit(_), .. }
            )
        ) {
            v.masked(u64::MAX);
        }
        v.word(b, 64, FieldClass::Data);
        let c_read = matches!(inst, Some(Inst::Op { op, .. }) if op.is_cmov());
        if inst.is_some() && !c_read {
            v.masked(u64::MAX);
        }
        v.word(c, 64, FieldClass::Data);
        v.word8(dest, 7, FieldClass::Control);
        v.flag(has_dest);
        v.word8(role, 3, FieldClass::Control);
        v.word8(rob_idx, 7, FieldClass::Control);
        if inst.as_ref().is_some_and(|i| !i.is_mem()) {
            v.masked(width_mask(5));
        }
        v.word8(mem_idx, 5, FieldClass::Control);
        v.occupancy(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{BitCounter, BitFlipper, FaultState, StateKind};

    struct One<T>(T);
    impl FaultState for One<SchedEntry> {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            v.region("t", StateKind::Latch);
            self.0.visit(v);
        }
    }

    #[test]
    fn exc_code_round_trips() {
        for v in 0..8u8 {
            assert_eq!(ExcCode::from_bits(v) as u8, v);
        }
    }

    #[test]
    fn role_round_trips() {
        for v in 0..7u8 {
            assert_eq!(Role::from_bits(v) as u8, v);
        }
        assert_eq!(Role::from_bits(7), Role::Direct);
        assert!(Role::CondBr.is_control());
        assert!(!Role::Load.is_control());
    }

    #[test]
    fn sched_entry_ready_logic() {
        let mut e = SchedEntry {
            valid: true,
            src: [
                SrcTag { tag: 1, ready: false, used: true },
                SrcTag { tag: 2, ready: true, used: true },
                SrcTag::default(),
            ],
            ..SchedEntry::default()
        };
        assert!(!e.ready());
        e.src[0].ready = true;
        assert!(e.ready());
        e.valid = false;
        assert!(!e.ready());
    }

    #[test]
    fn sched_entry_flip_is_involutive_over_every_bit() {
        let mut probe = One(SchedEntry::default());
        let mut c = BitCounter::default();
        probe.visit_state(&mut c);
        let template = SchedEntry {
            valid: true,
            word: 0xdead_beef,
            pc: 0x1_0000,
            rob_idx: 9,
            role: 2,
            src: [SrcTag { tag: 0x7f, ready: true, used: true }; 3],
            dest: 0x55,
            has_dest: true,
            mem_idx: 3,
            seq: 42,
        };
        for bit in 0..c.bits {
            let mut e = One(template);
            e.visit_state(&mut BitFlipper::new(bit));
            assert_ne!(e.0, template, "bit {bit} had no effect");
            e.visit_state(&mut BitFlipper::new(bit));
            assert_eq!(e.0, template, "bit {bit} not involutive");
        }
    }
}
