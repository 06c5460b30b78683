//! The out-of-order pipeline: fetch → decode → rename → schedule →
//! execute → retire, with branch-order-buffer recovery, a load/store
//! queue, and precise exceptions.
//!
//! This is the reproduction of the paper's §4.1 processor model. The
//! correctness bar is exact: the fault-free pipeline must retire the
//! identical instruction stream (PCs, values, memory effects) as the
//! architectural simulator — the cross-simulator lockstep tests in
//! `tests/lockstep.rs` enforce it over every workload.

use crate::cache::{Cache, Tlb};
use crate::predict::{BranchPredictor, Btb, JrsConfidence, MemDepPredictor, Ras};
use crate::queues::{reduce, CircQ, FreeList};
use crate::state::{FieldClass, StateVisitor};
use crate::uop::{
    ExcCode, ExecLatch, FqEntry, LdqEntry, PredInfo, RobEntry, Role, SchedEntry, SrcTag, StqEntry,
};
use crate::UarchConfig;
use restore_arch::{AccessKind, BranchEffect, Exception, MemEffect, Memory, Perm, Retired};
use restore_isa::{decode, Inst, JumpKind, MemWidth, Operand, PalFunc, Program, Reg};
use std::hash::{Hash, Hasher};

/// A branch misprediction discovered at execute — the raw material of the
/// ReStore cfv symptom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MispredictEvent {
    /// PC of the mispredicted control instruction.
    pub pc: u64,
    /// `true` if the JRS confidence estimator rated the prediction
    /// high-confidence (⇒ symptom in the ReStore architecture).
    pub high_confidence: bool,
    /// `true` for conditional branches (vs. indirect jumps/returns).
    pub conditional: bool,
    /// Instructions retired before this event (global count).
    pub retired_before: u64,
}

/// Everything observable from one pipeline clock.
#[derive(Debug, Clone, Default)]
pub struct CycleReport {
    /// Instructions retired this cycle, oldest first.
    pub retired: Vec<Retired>,
    /// Undo records `(addr, len, old_value)` for stores applied this
    /// cycle, enabling checkpoint rollback of memory.
    pub store_undo: Vec<(u64, u64, u64)>,
    /// Exception raised at the retirement point (machine stops).
    pub exception: Option<Exception>,
    /// Mispredictions resolved this cycle.
    pub mispredicts: Vec<MispredictEvent>,
    /// Watchdog timeout fired (machine stops).
    pub deadlock: bool,
    /// `call_pal halt` retired.
    pub halted: bool,
    /// A synchronisation event (fence/PAL) retired — forces a checkpoint
    /// in the ReStore architecture.
    pub sync_retired: bool,
    /// Values emitted by `outq`/`putc` this cycle.
    pub output: Vec<u64>,
    /// Data-cache misses this cycle (the §3.3 generalised-symptom
    /// candidate).
    pub dcache_misses: u32,
    /// Data-TLB misses this cycle.
    pub dtlb_misses: u32,
}

/// Why the pipeline stopped advancing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stop {
    /// Still running.
    Running,
    /// Architectural exception at retire.
    Exception(Exception),
    /// Watchdog deadlock detection.
    Deadlock,
    /// Program executed `halt`.
    Halted,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
struct DecSlot {
    valid: bool,
    e: FqEntry,
}

impl DecSlot {
    /// Visits the decode latch: the valid flag is always live, the
    /// payload of an empty slot is dead (rename tests `valid` before
    /// reading anything else, and a refill rewrites every field).
    fn visit<V: StateVisitor>(&mut self, v: &mut V) {
        let live = self.valid;
        let DecSlot { valid, e } = self;
        v.flag(valid);
        v.occupancy(live);
        e.visit(v);
        v.occupancy(true);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
struct BobEntry {
    rat: [u8; 32],
    fl_head: u64,
    ghr: u64,
    ras_top: u32,
    seq: u64,
}

impl BobEntry {
    /// Visits the checkpoint's RAT shadow copy — the SRAM the hardware
    /// would dedicate to per-branch alias-table snapshots. The recovery
    /// metadata (free-list head, GHR, RAS snapshots, age) follows the
    /// paper's predictor-state exclusion; [`Pipeline::fingerprint`]
    /// hashes the whole entry instead.
    fn visit<V: StateVisitor>(&mut self, v: &mut V) {
        let BobEntry {
            rat,
            // Free-list head checkpoint: recovery metadata folded into the
            // reconvergence fingerprint, not a modelled latch array.
            fl_head: _,
            // GHR snapshot: feeds only predictor recovery, which the paper
            // excludes ("corrupt predictor table entries cannot lead to
            // failure").
            ghr: _,
            ras_top: _, // RAS snapshot: excluded like the predictor state it restores
            seq: _,     // age: simulation artifact, no latch; hashed by the fingerprint
        } = self;
        for t in rat.iter_mut() {
            v.word8(t, 7, FieldClass::Control);
        }
    }
}

const EXEC_SLOTS: usize = 16;

/// The out-of-order pipeline.
///
/// # Examples
///
/// ```
/// use restore_uarch::{Pipeline, UarchConfig};
/// use restore_isa::{Asm, Reg, layout};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Asm::new("demo", layout::TEXT_BASE);
/// a.li(Reg::A0, 3);
/// a.outq();
/// a.halt();
/// let mut p = Pipeline::new(UarchConfig::default(), &a.finish()?);
/// while p.status() == restore_uarch::Stop::Running {
///     p.cycle();
/// }
/// assert_eq!(p.output(), &[3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    cfg: UarchConfig,
    mem: Memory,

    // --- front end ---
    pc: u64,
    fetch_parked: bool,
    frontend_delay: u32,
    fetch_stall: u32,
    fq: CircQ<FqEntry>,
    dec: Vec<DecSlot>,

    // --- predictors (excluded from injection) ---
    bpred: BranchPredictor,
    btb: Btb,
    ras: Ras,
    jrs: JrsConfidence,
    memdep: MemDepPredictor,

    // --- caches/TLBs (excluded from injection) ---
    icache: Cache,
    dcache: Cache,
    itlb: Tlb,
    dtlb: Tlb,

    // --- out-of-order core ---
    sched: Vec<SchedEntry>,
    exec: Vec<ExecLatch>,
    rob: CircQ<RobEntry>,
    ldq: CircQ<LdqEntry>,
    stq: CircQ<StqEntry>,
    bob: CircQ<BobEntry>,
    spec_rat: [u8; 32],
    arch_rat: [u8; 32],
    free_list: FreeList,
    phys_regs: Vec<u64>,
    phys_ready: Vec<bool>,
    candidates: Vec<usize>,

    // --- bookkeeping (simulation artifacts; `fingerprint` hashes all but `output`) ---
    cycle: u64,
    seq_counter: u64,
    retired_total: u64,
    last_retire_cycle: u64,
    status: Stop,
    output: Vec<u64>,
    replay_count: u64,
    last_retired_next_pc: u64,
    fetch_enabled: bool,
    confidence_training: bool,
}

impl Pipeline {
    /// Builds a pipeline with `program` loaded (same memory layout as
    /// [`restore_arch::Cpu::new`]) and architectural registers in physical
    /// registers 0–31.
    pub fn new(cfg: UarchConfig, program: &Program) -> Pipeline {
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

        let mut phys_regs = vec![0u64; cfg.phys_regs];
        phys_regs[Reg::SP.index()] = program.stack_top;
        let bpred = BranchPredictor::new(&cfg);
        let btb = Btb::new(&cfg);
        let ras = Ras::new(&cfg);
        let jrs = JrsConfidence::new(&cfg);
        let icache = Cache::new(cfg.icache_sets, cfg.icache_ways, cfg.cache_line);
        let dcache = Cache::new(cfg.dcache_sets, cfg.dcache_ways, cfg.cache_line);
        let itlb = Tlb::new(cfg.tlb_entries);
        let dtlb = Tlb::new(cfg.tlb_entries);

        Pipeline {
            pc: program.entry,
            fetch_parked: false,
            frontend_delay: 0,
            fetch_stall: 0,
            fq: CircQ::new(cfg.fetch_queue),
            dec: vec![DecSlot::default(); cfg.decode_width as usize],
            bpred,
            btb,
            ras,
            jrs,
            memdep: MemDepPredictor::new(1024),
            icache,
            dcache,
            itlb,
            dtlb,
            sched: vec![SchedEntry::default(); cfg.sched_entries],
            exec: vec![ExecLatch::default(); EXEC_SLOTS],
            rob: CircQ::new(cfg.rob_entries),
            ldq: CircQ::new(cfg.ldq_entries),
            stq: CircQ::new(cfg.stq_entries),
            bob: CircQ::new(cfg.bob_entries),
            spec_rat: std::array::from_fn(|r| r as u8),
            arch_rat: std::array::from_fn(|r| r as u8),
            free_list: FreeList::new(cfg.phys_regs),
            phys_ready: vec![true; cfg.phys_regs],
            phys_regs,
            candidates: Vec::new(),
            cycle: 0,
            seq_counter: 0,
            retired_total: 0,
            last_retire_cycle: 0,
            status: Stop::Running,
            output: Vec::new(),
            replay_count: 0,
            last_retired_next_pc: program.entry,
            fetch_enabled: true,
            confidence_training: true,
            mem,
            cfg,
        }
    }

    // ---------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------

    /// Current stop status.
    pub fn status(&self) -> Stop {
        self.status
    }

    /// Cycles simulated.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Instructions retired.
    pub fn retired(&self) -> u64 {
        self.retired_total
    }

    /// Values emitted via `outq`/`putc`.
    pub fn output(&self) -> &[u64] {
        &self.output
    }

    /// The memory image.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory access (checkpoint rollback applies undo records
    /// through this).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The configuration.
    pub fn config(&self) -> &UarchConfig {
        &self.cfg
    }

    /// Architectural register values via the architectural RAT.
    pub fn arch_regs(&self) -> [u64; 32] {
        let mut out = [0u64; 32];
        for (r, slot) in out.iter_mut().enumerate() {
            *slot = self.phys_regs[self.pr(self.arch_rat[r])];
        }
        out[31] = 0;
        out
    }

    /// `next_pc` of the most recently retired instruction — the precise
    /// architectural PC.
    pub fn retired_next_pc(&self) -> u64 {
        self.last_retired_next_pc
    }

    /// Enables/disables instruction fetch (used to drain the pipeline at
    /// the end of an injection trial).
    pub fn set_fetch_enabled(&mut self, on: bool) {
        self.fetch_enabled = on;
    }

    /// Enables/disables JRS confidence *increments* (§5.2.3: during
    /// ReStore re-execution the event log supplies control flow, so
    /// replayed correct predictions must not re-train the confidence
    /// estimator). Confidence resets from mispredictions always apply.
    pub fn set_confidence_training(&mut self, on: bool) {
        self.confidence_training = on;
    }

    /// Memory-order violation replays taken so far (loads that
    /// speculated past a conflicting older store).
    pub fn replay_count(&self) -> u64 {
        self.replay_count
    }

    /// Instructions currently in flight anywhere in the machine (fetch
    /// queue, decode latches, reorder buffer). Zero means a drain with
    /// fetch disabled has fully emptied the pipeline.
    pub fn in_flight(&self) -> usize {
        self.rob.len() + self.fq.len() + self.dec.iter().filter(|d| d.valid).count()
    }

    /// `(i-cache misses, d-cache misses, i-TLB misses, d-TLB misses)` so
    /// far — the §3.3 generalised-symptom event counters.
    pub fn miss_counters(&self) -> (u64, u64, u64, u64) {
        (self.icache.misses, self.dcache.misses, self.itlb.misses, self.dtlb.misses)
    }

    #[inline]
    fn pr(&self, tag: u8) -> usize {
        reduce(tag as u64, self.cfg.phys_regs as u64) as usize
    }

    // ---------------------------------------------------------------
    // Recovery
    // ---------------------------------------------------------------

    /// Squashes every in-flight instruction younger than `seq` and
    /// redirects fetch to `new_pc`.
    fn squash_younger(&mut self, seq: u64, new_pc: u64) {
        self.fq.clear();
        for d in self.dec.iter_mut() {
            d.valid = false;
        }
        for s in self.sched.iter_mut() {
            if s.valid && s.seq > seq {
                s.valid = false;
            }
        }
        for e in self.exec.iter_mut() {
            if e.valid && e.seq > seq {
                e.valid = false;
            }
        }
        while self.rob.back().map(|e| e.seq > seq).unwrap_or(false) {
            self.rob.pop_back();
        }
        while self.ldq.back().map(|e| e.seq > seq).unwrap_or(false) {
            self.ldq.pop_back();
        }
        while self.stq.back().map(|e| e.seq > seq).unwrap_or(false) {
            self.stq.pop_back();
        }
        while self.bob.back().map(|e| e.seq > seq).unwrap_or(false) {
            self.bob.pop_back();
        }
        self.pc = new_pc;
        self.fetch_parked = false;
        self.frontend_delay = self.cfg.frontend_depth;
    }

    /// Full flush: architectural state wins. Used at exception-style
    /// resyncs and by the ReStore controller's rollback.
    fn full_flush(&mut self, new_pc: u64) {
        self.fq.clear();
        for d in self.dec.iter_mut() {
            d.valid = false;
        }
        for s in self.sched.iter_mut() {
            s.valid = false;
        }
        for e in self.exec.iter_mut() {
            e.valid = false;
        }
        self.rob.clear();
        self.ldq.clear();
        self.stq.clear();
        self.bob.clear();
        self.spec_rat = self.arch_rat;
        self.free_list.rebuild(self.arch_rat.into_iter());
        self.pc = new_pc;
        self.fetch_parked = false;
        self.frontend_delay = self.cfg.frontend_depth;
    }

    /// Resets architectural state to the given registers and PC with a
    /// full flush — the ReStore checkpoint-restore primitive (§4.3 models
    /// it at zero latency; the performance cost is modelled separately in
    /// `restore-perf`).
    pub fn restore_checkpoint(&mut self, regs: &[u64; 32], pc: u64) {
        for (r, &val) in regs.iter().enumerate() {
            self.arch_rat[r] = r as u8;
            self.phys_regs[r] = val;
            self.phys_ready[r] = true;
        }
        self.phys_regs[31] = 0;
        self.full_flush(pc);
        self.status = Stop::Running;
        self.last_retired_next_pc = pc;
        self.last_retire_cycle = self.cycle;
    }

    // ---------------------------------------------------------------
    // The clock
    // ---------------------------------------------------------------

    /// Advances one clock. Returns what happened. Once the status is not
    /// [`Stop::Running`], further calls return empty reports.
    pub fn cycle(&mut self) -> CycleReport {
        let mut report = CycleReport::default();
        if self.status != Stop::Running {
            return report;
        }
        self.cycle += 1;
        let (dc0, dt0) = (self.dcache.misses, self.dtlb.misses);

        self.stage_retire(&mut report);
        if self.status != Stop::Running {
            report.dcache_misses = (self.dcache.misses - dc0) as u32;
            report.dtlb_misses = (self.dtlb.misses - dt0) as u32;
            return report;
        }
        self.stage_lsq();
        self.stage_execute(&mut report);
        self.stage_issue();
        self.stage_rename();
        self.stage_decode();
        self.stage_fetch();

        // Watchdog (§4.2): a saturated timer is itself a symptom.
        if self.cycle - self.last_retire_cycle > self.cfg.watchdog_cycles {
            report.deadlock = true;
            self.status = Stop::Deadlock;
        }
        report.dcache_misses = (self.dcache.misses - dc0) as u32;
        report.dtlb_misses = (self.dtlb.misses - dt0) as u32;
        report
    }

    // ---------------------------------------------------------------
    // Retire
    // ---------------------------------------------------------------

    fn raise(&mut self, report: &mut CycleReport, e: Exception) {
        report.exception = Some(e);
        self.status = Stop::Exception(e);
    }

    fn stage_retire(&mut self, report: &mut CycleReport) {
        for _ in 0..self.cfg.retire_width {
            let Some(head) = self.rob.front().copied() else { break };
            if !head.completed {
                break;
            }
            let pc = head.pc;
            // Memory-order violation replay: squash from this load and
            // re-execute it non-speculatively. Architecturally invisible.
            if head.replay {
                self.replay_count += 1;
                self.full_flush(pc);
                return;
            }
            // Exceptions are precise: raised at the retirement point,
            // before any effect of this instruction commits.
            match ExcCode::from_bits(head.exc) {
                ExcCode::None => {}
                ExcCode::LoadAccess => {
                    return self.raise(
                        report,
                        Exception::AccessViolation { addr: head.exc_aux, access: AccessKind::Load },
                    )
                }
                ExcCode::StoreAccess => {
                    return self.raise(
                        report,
                        Exception::AccessViolation {
                            addr: head.exc_aux,
                            access: AccessKind::Store,
                        },
                    )
                }
                ExcCode::LoadAlign => {
                    return self.raise(
                        report,
                        Exception::Alignment { addr: head.exc_aux, access: AccessKind::Load },
                    )
                }
                ExcCode::StoreAlign => {
                    return self.raise(
                        report,
                        Exception::Alignment { addr: head.exc_aux, access: AccessKind::Store },
                    )
                }
                ExcCode::Arith => return self.raise(report, Exception::ArithmeticTrap { pc }),
                ExcCode::Illegal => {
                    return self.raise(
                        report,
                        Exception::IllegalInstruction { pc, word: head.exc_aux as u32 },
                    )
                }
                ExcCode::Fetch => return self.raise(report, Exception::FetchFault { pc }),
            }
            let inst = match decode(head.word) {
                Ok(i) => i,
                Err(e) => {
                    // The word rotted in the ROB (injection): machine
                    // check as an illegal-instruction exception.
                    return self.raise(report, Exception::IllegalInstruction { pc, word: e.word });
                }
            };

            let mut retired = Retired {
                pc,
                inst,
                next_pc: head.next_pc,
                reg_write: None,
                mem: None,
                branch: None,
                halted: false,
            };

            // Memory effects commit now, through the store queue head.
            match Role::from_bits(head.role) {
                Role::Store => {
                    let matches_head = self.stq.front().map(|s| s.seq == head.seq).unwrap_or(false);
                    if !matches_head {
                        // STQ corrupted out from under us.
                        return self.raise(
                            report,
                            Exception::AccessViolation {
                                addr: head.exc_aux,
                                access: AccessKind::Store,
                            },
                        );
                    }
                    let s = self.stq.pop_front().expect("checked");
                    let len = 1u64 << (s.width_log2 & 3);
                    let mut old = [0u8; 8];
                    match self.mem.check(s.addr, len, AccessKind::Store) {
                        Ok(()) => {
                            self.mem.peek_bytes(s.addr, &mut old[..len as usize]);
                            self.mem.store(s.addr, len, s.data).expect("checked store");
                            report.store_undo.push((s.addr, len, u64::from_le_bytes(old)));
                            retired.mem = Some(MemEffect {
                                addr: s.addr,
                                len,
                                is_store: true,
                                value: s.data,
                            });
                        }
                        Err(e) => {
                            return self.raise(report, Exception::from_data_error(e));
                        }
                    }
                }
                Role::Load if self.ldq.front().map(|l| l.seq == head.seq).unwrap_or(false) => {
                    let l = self.ldq.pop_front().expect("checked");
                    retired.mem = Some(MemEffect {
                        addr: l.addr,
                        len: 1u64 << (l.width_log2 & 3),
                        is_store: false,
                        value: l.value,
                    });
                }
                _ => {}
            }

            // Register writeback visibility + RAT/free-list commit.
            if head.has_dest {
                let d = (head.arch_dest & 0x1f) as usize;
                if d != 31 {
                    let value = self.phys_regs[self.pr(head.phys_dest)];
                    retired.reg_write = Some((Reg::new(d as u8).expect("5-bit"), value));
                    self.arch_rat[d] = head.phys_dest;
                    self.free_list.release(head.old_dest);
                }
            }

            // Control-flow bookkeeping: predictor updates + BOB release.
            if Role::from_bits(head.role).is_control() {
                retired.branch = Some(BranchEffect {
                    taken: head.actual_taken,
                    target: head.next_pc,
                    conditional: matches!(inst, Inst::CondBranch { .. }),
                });
                if let Inst::CondBranch { .. } = inst {
                    if !head.trained {
                        let correct = head.pred.taken == head.actual_taken
                            && head.pred.next_pc == head.next_pc;
                        self.bpred.update(
                            pc,
                            head.pred.used_ghr,
                            head.actual_taken,
                            head.pred.taken,
                        );
                        if !correct || self.confidence_training {
                            self.jrs.update(pc, head.pred.used_ghr, correct);
                        }
                    }
                }
                if head.actual_taken && head.next_pc != pc.wrapping_add(4) {
                    self.btb.update(pc, head.next_pc);
                }
                if self.bob.front().map(|b| b.seq == head.seq).unwrap_or(false) {
                    self.bob.pop_front();
                }
            }

            // PAL effects.
            if let Inst::Pal(f) = inst {
                let a0 = self.phys_regs[self.pr(self.arch_rat[Reg::A0.index()])];
                match f {
                    PalFunc::Halt => {
                        retired.halted = true;
                        report.halted = true;
                        self.status = Stop::Halted;
                    }
                    PalFunc::Putc => {
                        self.output.push(a0 & 0xff);
                        report.output.push(a0 & 0xff);
                    }
                    PalFunc::Outq => {
                        self.output.push(a0);
                        report.output.push(a0);
                    }
                }
            }
            if inst.is_sync() {
                report.sync_retired = true;
            }

            self.rob.pop_front();
            self.retired_total += 1;
            self.last_retire_cycle = self.cycle;
            self.last_retired_next_pc = head.next_pc;
            report.retired.push(retired);

            if self.status != Stop::Running {
                return;
            }
        }
    }

    // ---------------------------------------------------------------
    // Load/store queue progress
    // ---------------------------------------------------------------

    fn stage_lsq(&mut self) {
        // Loads whose address is known try to obtain their value: forward
        // from the youngest older matching store, or read memory once all
        // older store addresses are known (conservative disambiguation).
        let ldq_len = self.ldq.len();
        for k in 0..ldq_len {
            let (idx, entry) = {
                let (idx, e) = self.ldq.iter().nth(k).expect("in range");
                (idx, *e)
            };
            if !entry.addr_ready || entry.completed {
                continue;
            }
            if entry.mem_issued {
                if self.cycle >= entry.ready_at {
                    self.finish_load(idx);
                }
                continue;
            }
            let len = 1u64 << (entry.width_log2 & 3);
            // Memory disambiguation: conservative by default, but loads
            // the dependence predictor trusts may speculate past older
            // stores whose addresses are still unknown (the paper's
            // "memory dependence prediction"); violations are caught at
            // store address-resolution and replayed.
            let load_pc = self.rob.slot(entry.rob_idx as usize).pc;
            let may_speculate = self.memdep.may_speculate(load_pc);
            let mut speculated = false;
            let mut blocked = false;
            let mut forward: Option<StqEntry> = None;
            for (_, s) in self.stq.iter() {
                if s.seq >= entry.seq {
                    continue;
                }
                if !s.addr_ready {
                    if may_speculate {
                        speculated = true;
                        continue;
                    }
                    blocked = true;
                    break;
                }
                let slen = 1u64 << (s.width_log2 & 3);
                let overlap = s.addr < entry.addr + len && entry.addr < s.addr + slen;
                if overlap {
                    if s.addr == entry.addr && slen >= len && s.data_ready {
                        forward = Some(*s); // youngest older wins (iteration is oldest→youngest)
                    } else {
                        // Partial overlap: wait for the store to retire.
                        blocked = true;
                        forward = None;
                        break;
                    }
                }
            }
            if blocked {
                continue;
            }
            if let Some(s) = forward {
                let raw = s.data & width_mask(len);
                let value = extend_load(raw, len, entry.sext);
                let e = self.ldq.slot_mut(idx);
                e.value = value;
                e.mem_issued = true;
                e.speculative = speculated;
                e.ready_at = self.cycle; // forwarding is fast
                self.finish_load(idx);
            } else {
                // Memory access with cache/TLB timing.
                let mut delay = self.cfg.dcache_hit_latency;
                if !self.dtlb.access(entry.addr) {
                    delay += self.cfg.tlb_miss_penalty;
                }
                if !self.dcache.access(entry.addr) {
                    delay += self.cfg.cache_miss_penalty;
                }
                match self.mem.load(entry.addr, len) {
                    Ok(raw) => {
                        let value = extend_load(raw, len, entry.sext);
                        let e = self.ldq.slot_mut(idx);
                        e.value = value;
                        e.mem_issued = true;
                        e.speculative = speculated;
                        e.ready_at = self.cycle + delay as u64;
                        if delay == 0 {
                            self.finish_load(idx);
                        }
                    }
                    Err(err) => {
                        // Access fault discovered at execute; reported at
                        // retire for precision.
                        let rob_idx = entry.rob_idx as usize;
                        let e = self.ldq.slot_mut(idx);
                        e.completed = true;
                        e.mem_issued = true;
                        let code = match err {
                            restore_arch::MemError::Misaligned { .. } => ExcCode::LoadAlign,
                            _ => ExcCode::LoadAccess,
                        };
                        let r = self.rob.slot_mut(rob_idx);
                        r.exc = code as u8;
                        r.exc_aux = entry.addr;
                        r.completed = true;
                    }
                }
            }
        }
    }

    fn finish_load(&mut self, ldq_idx: usize) {
        let e = *self.ldq.slot(ldq_idx);
        self.ldq.slot_mut(ldq_idx).completed = true;
        if e.has_dest {
            let dest = self.pr(e.dest);
            self.phys_regs[dest] = e.value;
            self.phys_ready[dest] = true;
        }
        let r = self.rob.slot_mut(e.rob_idx as usize);
        r.completed = true;
    }

    // ---------------------------------------------------------------
    // Execute / writeback / branch resolution
    // ---------------------------------------------------------------

    fn stage_execute(&mut self, report: &mut CycleReport) {
        // Collect finishing slots oldest-first so an older mispredicting
        // branch squashes younger work resolving in the same cycle.
        let mut finishing = std::mem::take(&mut self.candidates);
        finishing.extend(
            (0..self.exec.len())
                .filter(|&i| self.exec[i].valid && self.exec[i].finish_at <= self.cycle),
        );
        finishing.sort_by_key(|&i| self.exec[i].seq);

        for &slot in &finishing {
            let e = self.exec[slot];
            if !self.exec[slot].valid {
                continue; // squashed by an older branch this cycle
            }
            self.exec[slot].valid = false;
            let rob_idx = e.rob_idx as usize;
            let decoded = decode(e.word);
            let role = Role::from_bits(e.role);
            let inst = match decoded {
                Ok(i) if role_of(&i) == role => i,
                Ok(_) | Err(_) => {
                    // Control-word corruption: decode failure or a role
                    // that no longer matches the allocated resources.
                    let r = self.rob.slot_mut(rob_idx);
                    r.exc = ExcCode::Illegal as u8;
                    r.exc_aux = e.word as u64;
                    r.completed = true;
                    continue;
                }
            };

            match role {
                Role::Alu => {
                    let result = match inst {
                        Inst::Lda { disp, .. } => Some(e.a.wrapping_add(disp as i64 as u64)),
                        Inst::Ldah { disp, .. } => {
                            Some(e.a.wrapping_add(((disp as i64) << 16) as u64))
                        }
                        Inst::Op { op, rb, .. } => {
                            let b = match rb {
                                Operand::Lit(l) => l as u64,
                                Operand::Reg(_) => e.b,
                            };
                            match restore_arch::alu::eval(op, e.a, b, e.c) {
                                restore_arch::alu::AluOut::Value(v)
                                | restore_arch::alu::AluOut::Value2(v) => Some(v),
                                restore_arch::alu::AluOut::Overflow => None,
                            }
                        }
                        _ => unreachable!("role checked"),
                    };
                    let r = self.rob.slot_mut(rob_idx);
                    match result {
                        Some(v) => {
                            r.completed = true;
                            if e.has_dest {
                                let d = self.pr(e.dest);
                                self.phys_regs[d] = v;
                                self.phys_ready[d] = true;
                            }
                        }
                        None => {
                            r.exc = ExcCode::Arith as u8;
                            r.completed = true;
                        }
                    }
                }
                Role::Load => {
                    let Inst::Load { width, disp, .. } = inst else { unreachable!() };
                    let addr = e.a.wrapping_add(disp as i64 as u64);
                    let l = self.ldq.slot_mut(e.mem_idx as usize);
                    l.addr = addr;
                    l.addr_ready = true;
                    l.width_log2 = width.bytes().trailing_zeros() as u8;
                    l.sext = width == MemWidth::Long;
                    // Value resolution happens in stage_lsq.
                }
                Role::Store => {
                    let Inst::Store { width, disp, .. } = inst else { unreachable!() };
                    let addr = e.a.wrapping_add(disp as i64 as u64);
                    let len = width.bytes();
                    let s = self.stq.slot_mut(e.mem_idx as usize);
                    s.addr = addr;
                    s.addr_ready = true;
                    s.data = e.b;
                    s.data_ready = true;
                    s.width_log2 = len.trailing_zeros() as u8;
                    // Memory-order check: a younger load that speculated
                    // past this store and overlaps its address got a
                    // stale value — mark it for replay and burn its PC in
                    // the dependence predictor.
                    let store_seq = e.seq;
                    let mut violations: Vec<u8> = Vec::new();
                    for (_, l) in self.ldq.iter() {
                        // Any younger speculative access counts, whether
                        // its value already wrote back or is still in the
                        // cache-latency window.
                        if l.seq > store_seq && l.speculative {
                            let llen = 1u64 << (l.width_log2 & 3);
                            if l.addr < addr + len && addr < l.addr + llen {
                                violations.push(l.rob_idx);
                            }
                        }
                    }
                    for rob_idx in violations {
                        let (pc, already) = {
                            let r = self.rob.slot_mut(rob_idx as usize);
                            let already = r.replay;
                            r.replay = true;
                            (r.pc, already)
                        };
                        if !already {
                            self.memdep.record_violation(pc);
                        }
                    }
                    match self.mem.check(addr, len, AccessKind::Store) {
                        Ok(()) => {
                            self.rob.slot_mut(rob_idx).completed = true;
                        }
                        Err(err) => {
                            let code = match err {
                                restore_arch::MemError::Misaligned { .. } => ExcCode::StoreAlign,
                                _ => ExcCode::StoreAccess,
                            };
                            let r = self.rob.slot_mut(rob_idx);
                            r.exc = code as u8;
                            r.exc_aux = addr;
                            r.completed = true;
                        }
                    }
                }
                Role::CondBr | Role::BrLink | Role::Jump => {
                    self.resolve_branch(slot, &e, inst, report);
                }
                Role::Direct => {
                    self.rob.slot_mut(rob_idx).completed = true;
                }
            }
        }
        finishing.clear();
        self.candidates = finishing;
    }

    fn resolve_branch(
        &mut self,
        _slot: usize,
        e: &ExecLatch,
        inst: Inst,
        report: &mut CycleReport,
    ) {
        let pc = e.pc;
        let (taken, next_pc) = match inst {
            Inst::CondBranch { cond, disp, .. } => {
                let t = cond.eval(e.a);
                let target = pc.wrapping_add(4).wrapping_add((disp as i64 as u64).wrapping_mul(4));
                (t, if t { target } else { pc.wrapping_add(4) })
            }
            Inst::Br { disp, .. } | Inst::Bsr { disp, .. } => {
                (true, pc.wrapping_add(4).wrapping_add((disp as i64 as u64).wrapping_mul(4)))
            }
            Inst::Jump { .. } => (true, e.a & !3),
            _ => unreachable!("role checked"),
        };

        // Link register writes (br/bsr/jsr).
        if e.has_dest {
            let d = self.pr(e.dest);
            self.phys_regs[d] = pc.wrapping_add(4);
            self.phys_ready[d] = true;
        }

        let rob_idx = e.rob_idx as usize;
        let (pred, seq) = {
            let r = self.rob.slot_mut(rob_idx);
            r.actual_taken = taken;
            r.next_pc = next_pc;
            r.completed = true;
            (r.pred, r.seq)
        };

        let mispredicted = pred.next_pc != next_pc;
        if mispredicted && matches!(inst, Inst::CondBranch { .. }) {
            // Train immediately: the confidence counter must reset even
            // if a ReStore rollback prevents this branch from retiring,
            // or the same high-confidence symptom re-fires forever.
            self.bpred.update(pc, pred.used_ghr, taken, pred.taken);
            self.jrs.update(pc, pred.used_ghr, false);
            self.rob.slot_mut(rob_idx).trained = true;
        }
        if mispredicted {
            report.mispredicts.push(MispredictEvent {
                pc,
                high_confidence: pred.high_conf,
                conditional: matches!(inst, Inst::CondBranch { .. }),
                retired_before: self.retired_total,
            });
            // Locate this branch's shadow checkpoint.
            let snapshot = self.bob.iter().find(|(_, b)| b.seq == seq).map(|(i, _)| i);
            match snapshot {
                Some(i) => {
                    let b = *self.bob.slot(i);
                    self.spec_rat = b.rat;
                    self.free_list.restore_head(b.fl_head);
                    self.bpred.repair(b.ghr, taken);
                    self.ras.top = b.ras_top;
                    self.squash_younger(seq, next_pc);
                }
                None => {
                    // Checkpoint lost (corruption): fall back to a
                    // retire-time resync via full flush.
                    self.squash_younger(seq, next_pc);
                    // The RAT/free-list may be stale; rebuild from the
                    // architectural map once this branch retires. Easiest
                    // safe approximation: full flush now, preserving this
                    // branch in the ROB is impossible, so resync from the
                    // architectural state at the branch itself is handled
                    // by completing it and flushing younger state only.
                    self.spec_rat = self.arch_rat;
                }
            }
        }
    }

    // ---------------------------------------------------------------
    // Issue (select + register read)
    // ---------------------------------------------------------------

    fn stage_issue(&mut self) {
        // Wakeup: broadcast completed physical registers into waiting
        // scheduler entries.
        let n_phys = self.cfg.phys_regs as u64;
        for s in self.sched.iter_mut() {
            if !s.valid {
                continue;
            }
            for st in s.src.iter_mut() {
                if st.used && !st.ready && self.phys_ready[reduce(st.tag as u64, n_phys) as usize] {
                    st.ready = true;
                }
            }
        }
        let mut ready = std::mem::take(&mut self.candidates);
        ready.extend((0..self.sched.len()).filter(|&i| self.sched[i].ready()));
        ready.sort_by_key(|&i| self.sched[i].seq);

        let (mut alu, mut br, mut agen) =
            (self.cfg.alu_units, self.cfg.br_units, self.cfg.agen_units);
        for &i in &ready {
            let s = self.sched[i];
            let role = Role::from_bits(s.role);
            let unit = match role {
                Role::Alu | Role::Direct => &mut alu,
                Role::CondBr | Role::BrLink | Role::Jump => &mut br,
                Role::Load | Role::Store => &mut agen,
            };
            if *unit == 0 {
                continue;
            }
            let Some(slot) = self.exec.iter().position(|e| !e.valid) else { break };
            *unit -= 1;

            let read = |st: &SrcTag, regs: &[u64]| -> u64 {
                if st.used {
                    regs[reduce(st.tag as u64, n_phys) as usize]
                } else {
                    0
                }
            };
            let a = read(&s.src[0], &self.phys_regs);
            let b = read(&s.src[1], &self.phys_regs);
            let c = read(&s.src[2], &self.phys_regs);
            let latency = match decode(s.word) {
                Ok(Inst::Op { op, .. }) if op.is_multiply() => self.cfg.mul_latency,
                _ => self.cfg.alu_latency,
            };
            self.exec[slot] = ExecLatch {
                valid: true,
                word: s.word,
                pc: s.pc,
                a,
                b,
                c,
                dest: s.dest,
                has_dest: s.has_dest,
                role: s.role,
                rob_idx: s.rob_idx,
                mem_idx: s.mem_idx,
                seq: s.seq,
                finish_at: self.cycle + latency as u64,
            };
            self.sched[i].valid = false;
            if alu == 0 && br == 0 && agen == 0 {
                break;
            }
        }
        ready.clear();
        self.candidates = ready;
    }

    // ---------------------------------------------------------------
    // Rename / dispatch
    // ---------------------------------------------------------------

    fn stage_rename(&mut self) {
        for di in 0..self.dec.len() {
            if !self.dec[di].valid {
                continue;
            }
            let fe = self.dec[di].e;
            if !self.try_rename_one(&fe) {
                return; // structural stall: retry next cycle, in order
            }
            self.dec[di].valid = false;
        }
    }

    /// Renames one instruction; `false` on structural hazard.
    fn try_rename_one(&mut self, fe: &FqEntry) -> bool {
        if self.rob.is_full() {
            return false;
        }
        self.seq_counter += 1;
        let seq = self.seq_counter;

        // Poisoned fetch or undecodable word: straight to the ROB as an
        // exception-carrying completed uop.
        let decoded = decode(fe.word);
        let (inst, exc, exc_aux) = match (fe.fetch_fault, decoded) {
            (true, _) => (None, ExcCode::Fetch, fe.pc),
            (false, Err(e)) => (None, ExcCode::Illegal, e.word as u64),
            (false, Ok(i)) => (Some(i), ExcCode::None, 0),
        };
        let Some(inst) = inst else {
            self.rob.push(RobEntry {
                pc: fe.pc,
                word: fe.word,
                role: Role::Direct as u8,
                completed: true,
                exc: exc as u8,
                exc_aux,
                next_pc: fe.pc.wrapping_add(4),
                seq,
                ..RobEntry::default()
            });
            return true;
        };

        let role = role_of(&inst);
        let needs_sched = !matches!(role, Role::Direct);
        let needs_bob = role.is_control();
        let is_load = role == Role::Load;
        let is_store = role == Role::Store;
        let dest = inst.dest();

        // Structural hazards, checked before any allocation.
        if needs_bob && self.bob.is_full() {
            self.seq_counter -= 1;
            return false;
        }
        if is_load && self.ldq.is_full() {
            self.seq_counter -= 1;
            return false;
        }
        if is_store && self.stq.is_full() {
            self.seq_counter -= 1;
            return false;
        }
        if dest.is_some() && self.free_list.available() == 0 {
            self.seq_counter -= 1;
            return false;
        }
        if needs_sched && !self.sched.iter().any(|s| !s.valid) {
            self.seq_counter -= 1;
            return false;
        }

        // Source operands through the speculative RAT.
        let mut src = [SrcTag::default(); 3];
        for (k, r) in inst.sources().enumerate() {
            let tag = self.spec_rat[r.index()];
            src[k] = SrcTag { tag, ready: self.phys_ready[self.pr(tag)], used: true };
        }

        // Destination allocation.
        let (phys_dest, old_dest, arch_dest, has_dest) = match dest {
            Some(d) => {
                let new = self.free_list.alloc().expect("checked available");
                let old = self.spec_rat[d.index()];
                self.spec_rat[d.index()] = new;
                let pnew = self.pr(new);
                self.phys_ready[pnew] = false;
                (new, old, d.index() as u8, true)
            }
            None => (0, 0, 31, false),
        };

        // Memory queue allocation.
        let mem_idx = if is_load {
            let Inst::Load { width, .. } = inst else { unreachable!() };
            self.ldq.push(LdqEntry {
                width_log2: width.bytes().trailing_zeros() as u8,
                sext: width == MemWidth::Long,
                dest: phys_dest,
                has_dest,
                seq,
                ..LdqEntry::default()
            }) as u8
        } else if is_store {
            self.stq.push(StqEntry { seq, ..StqEntry::default() }) as u8
        } else {
            0
        };

        // ROB allocation.
        let rob_idx = self.rob.push(RobEntry {
            pc: fe.pc,
            word: fe.word,
            role: role as u8,
            phys_dest,
            old_dest,
            arch_dest,
            has_dest,
            completed: !needs_sched,
            mem_idx,
            pred: fe.pred,
            next_pc: fe.pc.wrapping_add(4),
            seq,
            ..RobEntry::default()
        }) as u8;
        if is_load {
            self.ldq.slot_mut(mem_idx as usize).rob_idx = rob_idx;
        }
        if is_store {
            self.stq.slot_mut(mem_idx as usize).rob_idx = rob_idx;
        }

        // Shadow checkpoint for control instructions (after renaming the
        // branch itself, so its own link-register mapping survives
        // recovery).
        if needs_bob {
            self.bob.push(BobEntry {
                rat: self.spec_rat,
                fl_head: self.free_list.head_snapshot(),
                ghr: fe.pred.used_ghr,
                ras_top: fe.pred.ras_top,
                seq,
            });
        }

        // Scheduler dispatch.
        if needs_sched {
            let slot = self.sched.iter().position(|s| !s.valid).expect("checked space");
            self.sched[slot] = SchedEntry {
                valid: true,
                word: fe.word,
                pc: fe.pc,
                rob_idx,
                role: role as u8,
                src,
                dest: phys_dest,
                has_dest,
                mem_idx,
                seq,
            };
        }
        true
    }

    // ---------------------------------------------------------------
    // Decode
    // ---------------------------------------------------------------

    fn stage_decode(&mut self) {
        if self.dec.iter().any(|d| d.valid) {
            return; // group not fully consumed yet
        }
        for d in self.dec.iter_mut() {
            let Some(fe) = self.fq.pop_front() else { break };
            *d = DecSlot { valid: true, e: fe };
        }
    }

    // ---------------------------------------------------------------
    // Fetch
    // ---------------------------------------------------------------

    fn stage_fetch(&mut self) {
        if !self.fetch_enabled || self.fetch_parked {
            return;
        }
        if self.frontend_delay > 0 {
            self.frontend_delay -= 1;
            return;
        }
        if self.fetch_stall > 0 {
            self.fetch_stall -= 1;
            return;
        }
        // I-side TLB and cache are charged once per fetch group.
        if !self.fq.is_full() {
            let mut stall = 0;
            if !self.itlb.access(self.pc) {
                stall += self.cfg.tlb_miss_penalty;
            }
            if !self.icache.access(self.pc) {
                stall += self.cfg.cache_miss_penalty;
            }
            if stall > 0 {
                self.fetch_stall = stall;
                return;
            }
        }
        for _ in 0..self.cfg.fetch_width {
            if self.fq.is_full() {
                break;
            }
            let pc = self.pc;
            let Ok(word) = self.mem.fetch(pc) else {
                self.fq.push(FqEntry { pc, word: 0, fetch_fault: true, pred: PredInfo::default() });
                self.fetch_parked = true;
                return;
            };
            let mut pred = PredInfo { next_pc: pc.wrapping_add(4), ..PredInfo::default() };
            let mut redirect = false;
            if let Ok(inst) = decode(word) {
                match inst {
                    Inst::CondBranch { disp, .. } => {
                        let (taken, used_ghr) = self.bpred.predict(pc);
                        let target =
                            pc.wrapping_add(4).wrapping_add((disp as i64 as u64).wrapping_mul(4));
                        pred.taken = taken;
                        pred.next_pc = if taken { target } else { pc.wrapping_add(4) };
                        pred.used_ghr = used_ghr;
                        pred.high_conf = self.jrs.high_confidence(pc, used_ghr);
                        redirect = taken;
                    }
                    Inst::Br { disp, .. } => {
                        pred.taken = true;
                        pred.next_pc =
                            pc.wrapping_add(4).wrapping_add((disp as i64 as u64).wrapping_mul(4));
                        redirect = true;
                    }
                    Inst::Bsr { disp, .. } => {
                        pred.taken = true;
                        pred.next_pc =
                            pc.wrapping_add(4).wrapping_add((disp as i64 as u64).wrapping_mul(4));
                        self.ras.push(pc.wrapping_add(4));
                        redirect = true;
                    }
                    Inst::Jump { kind, .. } => {
                        pred.taken = true;
                        pred.next_pc = match kind {
                            JumpKind::Ret => self.ras.pop(),
                            JumpKind::Jmp | JumpKind::Jsr => {
                                self.btb.lookup(pc).unwrap_or(pc.wrapping_add(4))
                            }
                            JumpKind::JsrCo => {
                                let t = self.ras.pop();
                                self.ras.push(pc.wrapping_add(4));
                                t
                            }
                        };
                        if kind == JumpKind::Jsr {
                            self.ras.push(pc.wrapping_add(4));
                        }
                        redirect = true;
                    }
                    _ => {}
                }
            }
            pred.ras_top = self.ras.top;
            self.fq.push(FqEntry { pc, word, fetch_fault: false, pred });
            self.pc = pred.next_pc;
            if redirect {
                break; // fetch group ends at a taken control transfer
            }
        }
    }
}

/// Functional role implied by a decoded instruction.
pub fn role_of(inst: &Inst) -> Role {
    match inst {
        Inst::Op { .. } | Inst::Lda { .. } | Inst::Ldah { .. } => Role::Alu,
        Inst::Load { .. } => Role::Load,
        Inst::Store { .. } => Role::Store,
        Inst::CondBranch { .. } => Role::CondBr,
        Inst::Br { .. } | Inst::Bsr { .. } => Role::BrLink,
        Inst::Jump { .. } => Role::Jump,
        Inst::Pal(_) | Inst::Fence(_) => Role::Direct,
    }
}

#[inline]
fn width_mask(len: u64) -> u64 {
    if len >= 8 {
        u64::MAX
    } else {
        (1u64 << (len * 8)) - 1
    }
}

#[inline]
fn extend_load(raw: u64, len: u64, sext: bool) -> u64 {
    if sext && len == 4 {
        raw as u32 as i32 as i64 as u64
    } else {
        raw & width_mask(len)
    }
}

// -------------------------------------------------------------------
// Fault-injectable state traversal
// -------------------------------------------------------------------

impl crate::state::FaultState for Pipeline {
    fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
        use crate::state::StateKind::{Latch, Ram};

        // Occupancy-dependent inputs, gathered up front so the walk
        // itself stays borrow-clean. Skipped entirely for visitors that
        // ignore occupancy (the hash and flip hot paths).
        let occupancy = v.wants_occupancy();
        let restorable_heads: Vec<u64> =
            if occupancy { self.bob.iter().map(|(_, b)| b.fl_head).collect() } else { Vec::new() };
        let reg_live: Vec<bool> = if occupancy {
            // A physical register in the current free window backs no
            // architectural or speculative value: rename rewrites its
            // ready bit at allocation and writeback rewrites its value
            // before any consumer reads either. Registers re-freed by a
            // future `restore_head` are allocated *now*, hence live.
            let mut live = vec![true; self.cfg.phys_regs];
            for t in self.free_list.free_tags() {
                live[t as usize % self.cfg.phys_regs] = false;
            }
            live
        } else {
            Vec::new()
        };

        let Pipeline {
            cfg: _, // static configuration, not machine state
            // Memory is DRAM behind the caches, outside the paper's
            // "~46,000 bits of interesting state"; `fingerprint` digests
            // it separately via `Memory::fingerprint`.
            mem: _,
            pc,
            fetch_parked,
            frontend_delay: _, // fetch-redirect countdown: timing model, fingerprint-digested
            fetch_stall: _,    // icache/iTLB miss countdown: timing model, fingerprint-digested
            fq,
            dec,
            // Predictor tables: "corrupt predictor table entries cannot
            // lead to failure" (paper §4.2).
            bpred: _,
            btb: _,
            ras: _,
            jrs: _,
            memdep: _,
            // Caches and TLBs: "caches are easily protected by ECC or
            // parity" (paper §4.2); `fingerprint` digests them.
            icache: _,
            dcache: _,
            itlb: _,
            dtlb: _,
            sched,
            exec,
            rob,
            ldq,
            stq,
            bob,
            spec_rat,
            arch_rat,
            free_list,
            phys_regs,
            phys_ready,
            candidates: _, // scratch list rebuilt inside one stage, empty between cycles
            // Simulation bookkeeping with no latch behind it.
            cycle: _,
            seq_counter: _,
            retired_total: _,
            last_retire_cycle: _,    // watchdog bookkeeping
            status: _,               // stop reason: an output of the model
            output: _,               // write-only observable, never read back
            replay_count: _,         // replay statistics, observability only
            last_retired_next_pc: _, // lockstep-comparison bookkeeping, fingerprint-digested
            fetch_enabled: _,        // exception-drain sequencing flag
            confidence_training: _,  // JRS training gate: an experiment-mode switch
        } = self;

        v.region("pc-and-fetch-control", Latch);
        v.word(pc, 64, FieldClass::Data);
        v.flag(fetch_parked);

        v.region("fetch-queue", Ram);
        fq.visit_with(v, FqEntry::visit);

        v.region("decode-latch", Latch);
        for d in dec.iter_mut() {
            v.entry(d, DecSlot::visit);
        }

        v.region("scheduler", Latch);
        for s in sched.iter_mut() {
            v.entry(s, SchedEntry::visit);
        }

        v.region("exec-latches", Latch);
        for e in exec.iter_mut() {
            v.entry(e, ExecLatch::visit);
        }

        v.region("reorder-buffer", Ram);
        rob.visit_with(v, RobEntry::visit);

        v.region("load-queue", Latch);
        ldq.visit_with(v, LdqEntry::visit);

        v.region("store-queue", Latch);
        stq.visit_with(v, StqEntry::visit);

        v.region("branch-order-buffer", Ram);
        bob.visit_with(v, BobEntry::visit);

        v.region("spec-rat", Ram);
        for t in spec_rat.iter_mut() {
            v.word8(t, 7, FieldClass::Control);
        }
        v.region("arch-rat", Ram);
        for t in arch_rat.iter_mut() {
            v.word8(t, 7, FieldClass::Control);
        }

        v.region("free-list", Ram);
        free_list.visit(v, &restorable_heads);

        v.region("phys-regfile", Ram);
        for (i, r) in phys_regs.iter_mut().enumerate() {
            if occupancy {
                v.occupancy(reg_live[i]);
            }
            v.word(r, 64, FieldClass::Data);
        }

        v.region("ready-scoreboard", Latch);
        for (i, b) in phys_ready.iter_mut().enumerate() {
            if occupancy {
                v.occupancy(reg_live[i]);
            }
            v.flag(b);
        }
        v.occupancy(true);
    }
}

/// Regions ECC-protected by the hardened pipeline of §5.2.2: "parity was
/// added to the control word latches within the pipeline, and ECC was
/// added to the register file and other key data stores" — the register
/// file, the alias tables (speculative, architectural and the BOB's
/// shadow copies), the free list, and the fetch queue.
pub const LHF_ECC_REGIONS: &[&str] =
    &["phys-regfile", "spec-rat", "arch-rat", "branch-order-buffer", "free-list", "fetch-queue"];

impl Pipeline {
    /// Builds the catalog of injectable state for this pipeline, with the
    /// hardened pipeline's ECC domains marked.
    pub fn catalog(&mut self) -> crate::state::StateCatalog {
        let mut rec = crate::state::RangeRecorder::new();
        crate::state::FaultState::visit_state(self, &mut rec);
        let mut cat = rec.into_catalog();
        cat.mark_ecc(LHF_ECC_REGIONS);
        cat
    }

    /// Flips one globally-indexed bit of injectable state.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range (see [`Pipeline::catalog`]).
    pub fn flip_bit(&mut self, bit: u64) {
        let mut f = crate::state::BitFlipper::new(bit);
        crate::state::FaultState::visit_state(self, &mut f);
        assert!(f.flipped, "bit index {bit} out of range");
    }

    /// Order-sensitive digest of all injectable state (excludes memory,
    /// caches and predictors) — the golden-run masking comparison.
    pub fn state_hash(&mut self) -> u64 {
        let mut h = crate::state::StateHasher::new();
        crate::state::FaultState::visit_state(self, &mut h);
        h.finish()
    }

    /// Full-machine fingerprint: a digest of *everything* that can steer
    /// the machine's future evolution. Every component derives `Hash`
    /// over all of its fields, so a field added to one is hashed, and
    /// the pattern below names every field of the pipeline with no `..`,
    /// so a field added here does not compile until it is hashed or
    /// excluded with its reason. That covers the injectable state, the
    /// simulation artifacts `visit_state` skips (uop ages, latency
    /// timestamps, prediction snapshots, the BOB's recovery
    /// checkpoints), dead queue slots, predictors, caches and TLBs with
    /// their access/miss counters (the §3.3 symptom observables) and the
    /// bookkeeping scalars. Memory enters as
    /// [`restore_arch::Memory::fingerprint`]'s incremental per-page
    /// digest (O(pages stored to since the last call)).
    ///
    /// Three fields are excluded: the static `cfg`, equal across every
    /// machine a campaign compares; the `candidates` scratch list, empty
    /// between cycles; and the `output` log, which the machine never
    /// reads back, so it cannot influence evolution, and campaigns
    /// observe results through registers, memory and the retired stream
    /// rather than through it. With that caveat, equal fingerprints at
    /// the same cycle mean identical futures in this deterministic
    /// simulator — the property the fault-injection campaign's
    /// reconvergence cutoff relies on to stop a trial early and back-fill
    /// the rest from the golden run.
    pub fn fingerprint(&mut self) -> u64 {
        let Pipeline {
            cfg: _, // static configuration: equal across every machine compared
            mem,
            pc,
            fetch_parked,
            frontend_delay,
            fetch_stall,
            fq,
            dec,
            bpred,
            btb,
            ras,
            jrs,
            memdep,
            icache,
            dcache,
            itlb,
            dtlb,
            sched,
            exec,
            rob,
            ldq,
            stq,
            bob,
            spec_rat,
            arch_rat,
            free_list,
            phys_regs,
            phys_ready,
            candidates: _, // scratch list rebuilt inside one stage, empty between cycles
            cycle,
            seq_counter,
            retired_total,
            last_retire_cycle,
            status,
            output: _, // write-only observable, never read back
            replay_count,
            last_retired_next_pc,
            fetch_enabled,
            confidence_training,
        } = self;
        let mut f = crate::state::Fingerprint::new();
        (pc, fetch_parked, frontend_delay, fetch_stall, fq, dec).hash(&mut f);
        (bpred, btb, ras, jrs, memdep).hash(&mut f);
        (icache, dcache, itlb, dtlb).hash(&mut f);
        (sched, exec, rob, ldq, stq, bob).hash(&mut f);
        (spec_rat, arch_rat, free_list, phys_regs, phys_ready).hash(&mut f);
        (cycle, seq_counter, retired_total, last_retire_cycle, status, replay_count).hash(&mut f);
        (last_retired_next_pc, fetch_enabled, confidence_training, mem.fingerprint()).hash(&mut f);
        f.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_workloads::{Scale, WorkloadId};

    /// A PC outside the program's text: no table entry holds it yet.
    const PC: u64 = 0xdead_beec;

    /// A named change to one field of a pipeline.
    type Perturbation = (&'static str, fn(&mut Pipeline));

    /// Catalog flips reach only injectable bits, so they never show that
    /// the fingerprint covers the rest of the machine. Each perturbation
    /// here changes state `visit_state` skips: the fingerprint must move
    /// and `state_hash` must not. The named exclusions move neither.
    #[test]
    fn fingerprint_covers_the_state_the_walk_skips() {
        let program = WorkloadId::Mcfx.build(Scale::campaign());
        let mut warm = Pipeline::new(UarchConfig::default(), &program);
        for _ in 0..3_000 {
            warm.cycle();
        }
        assert_eq!(warm.status(), Stop::Running);
        let (fingerprint, state_hash) = (warm.fingerprint(), warm.state_hash());
        let skipped: &[Perturbation] = &[
            ("rob seq", |p| p.rob.slot_mut(0).seq ^= 1),
            ("ldq ready_at", |p| p.ldq.slot_mut(0).ready_at ^= 1),
            ("exec finish_at", |p| p.exec[0].finish_at ^= 1),
            ("bob fl_head", |p| p.bob.slot_mut(0).fl_head ^= 1),
            ("sched seq", |p| p.sched[0].seq ^= 1),
            ("fetch-queue ghr snapshot", |p| p.fq.slot_mut(0).pred.used_ghr ^= 1),
            ("bpred ghr", |p| p.bpred.ghr ^= 1),
            ("btb entry", |p| p.btb.update(PC, PC + 4)),
            ("ras entry", |p| p.ras.push(PC)),
            ("jrs entry", |p| p.jrs.update(PC, 0, true)),
            ("memdep entry", |p| p.memdep.record_violation(PC)),
            ("dcache lru rank", |p| p.dcache.swap_lru_ranks()),
            ("dtlb cursor", |p| p.dtlb.advance_cursor()),
            ("icache accesses", |p| p.icache.accesses += 1),
            ("cycle", |p| p.cycle += 1),
            ("seq_counter", |p| p.seq_counter += 1),
            ("retired_total", |p| p.retired_total += 1),
            ("last_retire_cycle", |p| p.last_retire_cycle += 1),
            ("frontend_delay", |p| p.frontend_delay += 1),
            ("fetch_stall", |p| p.fetch_stall += 1),
            ("replay_count", |p| p.replay_count += 1),
            ("last_retired_next_pc", |p| p.last_retired_next_pc += 4),
            ("fetch_enabled", |p| p.fetch_enabled ^= true),
            ("confidence_training", |p| p.confidence_training ^= true),
            ("status", |p| p.status = Stop::Deadlock),
        ];
        for &(what, perturb) in skipped {
            let mut p = warm.clone();
            perturb(&mut p);
            assert_ne!(p.fingerprint(), fingerprint, "{what} must move the fingerprint");
            assert_eq!(p.state_hash(), state_hash, "{what} is not injectable state");
        }
        let excluded: &[Perturbation] =
            &[("output", |p| p.output.push(7)), ("candidates", |p| p.candidates.push(3))];
        for &(what, perturb) in excluded {
            let mut p = warm.clone();
            perturb(&mut p);
            assert_eq!(p.fingerprint(), fingerprint, "{what} is excluded from the fingerprint");
            assert_eq!(p.state_hash(), state_hash, "{what} is not injectable state");
        }
    }
}
