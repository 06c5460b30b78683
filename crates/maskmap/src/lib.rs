//! # restore-maskmap — static masking-interval analysis
//!
//! Most injected flips land in state that is never read before it is
//! overwritten, or never read at all inside the trial. This crate proves
//! those verdicts *statically over whole cycle ranges*, from a single
//! instrumented golden run per `(workload, configuration)`, so a
//! campaign (`restore-inject`'s `--prune interval`) can classify such a
//! trial without simulating it:
//!
//! * **Microarchitectural map** ([`UarchMaskMap`]) — replays the golden
//!   [`Pipeline`] once, walking every catalog field every cycle with a
//!   [`MaskRecorder`], and records four families: *dead runs* (cycle
//!   ranges an occupancy group is vacant), *mask runs* (cycle ranges a
//!   field's statically-masked bits hold a constant nonzero mask —
//!   unoccupied operand latches, dead ROB bookkeeping, non-control
//!   prediction state), *armed stamps* (cycles at which a previously
//!   dead-or-masked field is wholesale overwritten), and *write
//!   streams* (exact per-field write cycles from a **shadow replica**
//!   run in lockstep with the golden replay, every dead field flipped
//!   and re-flipped after each detected write — convergence back to
//!   the golden value is the write detector, so even same-value
//!   rewrites register). An injection `(bit, cycle)` is provably
//!   destroyed when dead at injection and written before the window
//!   closes, provably *residue* when dead and unwritten through the
//!   window close's drain horizon, and provably masked when the bit
//!   stays dead-or-masked from the injection cycle to the next armed
//!   stamp inside the window ([`UarchMaskMap::proves`]).
//! * **Architectural map** ([`ArchMaskMap`]) — replays the golden
//!   [`Cpu`] once, recording every register read (via
//!   [`restore_isa::Inst::sources`]) and write. An injected register is
//!   provably masked when its next access inside the window is a write,
//!   and provably *unmasked residue* when it is never accessed and the
//!   window expires ([`ArchMaskMap::verdict`]).
//!
//! # Soundness
//!
//! The µarch map's pruning argument rests on two axioms beyond the
//! visitor contract. **Occupancy axiom**: an occupancy-dead field's
//! current value is never read before the field's next write — so a
//! flip there is invisible until that write and destroyed by it. The
//! build verifies it continuously: the shadow replica carries *every*
//! dead field flipped at *every* cycle, and any non-flipped field
//! disagreeing with golden (or a status divergence) aborts the build
//! loudly. **Wholesale-write axiom**: protected fields are only ever
//! written wholesale, from values independent of their previous
//! contents (no read-modify-write of a dead or masked field; pointer
//! fields that *are* RMW'd are never dead or masked). Under that
//! axiom a masked bit is unread while protected — the mask
//! declarations are themselves derived only from unmasked control
//! state, which the flip does not touch — and destroyed by the
//! stamp's overwrite, so the injected machine tracks golden from the
//! stamp on. Residue verdicts additionally lean on the **drain
//! horizon**: the first recorded cycle by which everything in flight
//! at window close has retired bounds every write the trial's
//! fetch-stopped drain can perform, so a field unwritten through it
//! provably carries the flip into the end-of-trial hash.
//! The arch map needs no axiom at all: `Inst::sources` /
//! `Retired::reg_write` are the complete architectural read/write sets.
//! Both maps are cross-checked three ways — map-predicted trial records
//! against simulated ones at random proved `(cycle, bit)` pairs
//! (proptest, in `restore-inject`), against the audit bit census
//! ([`UarchMaskMap::census_check`]), and by `--prune audit` full
//! re-simulation of every map-pruned trial.
//!
//! Maps are memoized process-wide (like the golden checkpoint library)
//! and persisted next to the trial store as
//! `maskmap-<domain>-<workload>-<digest>.json`, varint+hex delta-encoded
//! so sharded campaign runs compute each map once per shard *set*.
//!
//! The same intervals fold into a per-structure AVF-style vulnerability
//! report ([`UarchMaskMap::avf`], `restore-maskmap --avf`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use restore_arch::Cpu;
use restore_core::config_digest;
use restore_isa::{Program, Reg};
use restore_store::Json;
use restore_uarch::state::{width_mask, StateVisitor};
use restore_uarch::{
    FaultState, FieldClass, MaskRecorder, Pipeline, StateCatalog, StateKind, Stop, UarchConfig,
};
use restore_workloads::{Scale, WorkloadId};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// On-disk map format version (bumped on any encoding change; stale
/// files are rebuilt, never misread).
const VERSION: u64 = 2;

// ---------------------------------------------------------------------------
// Varint + hex wire helpers — the map's run lists are long arrays of
// small deltas; LEB128 varints inside hex strings keep the JSON files
// ~5-10x smaller than literal integer arrays while staying inside the
// store's float-free `Json` model.

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2).map(|i| u8::from_str_radix(s.get(2 * i..2 * i + 2)?, 16).ok()).collect()
}

/// Sequential varint reader over a decoded byte buffer.
struct VarReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> VarReader<'a> {
    fn new(bytes: &'a [u8]) -> VarReader<'a> {
        VarReader { bytes, pos: 0 }
    }

    fn read(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            if shift >= 64 {
                return None;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn encode_pairs(runs: &[(u32, u32)]) -> String {
    let mut bytes = Vec::new();
    let mut prev_end = 0u32;
    for &(s, e) in runs {
        push_varint(&mut bytes, u64::from(s - prev_end));
        push_varint(&mut bytes, u64::from(e - s));
        prev_end = e;
    }
    hex(&bytes)
}

fn decode_pairs(text: &str) -> Option<Vec<(u32, u32)>> {
    let bytes = unhex(text)?;
    let mut r = VarReader::new(&bytes);
    let mut runs = Vec::new();
    let mut prev_end = 0u64;
    while !r.done() {
        let s = prev_end + r.read()?;
        let e = s + r.read()?;
        runs.push((u32::try_from(s).ok()?, u32::try_from(e).ok()?));
        prev_end = e;
    }
    Some(runs)
}

fn encode_stamps(stamps: &[u32]) -> String {
    let mut bytes = Vec::new();
    let mut prev = 0u32;
    for &s in stamps {
        push_varint(&mut bytes, u64::from(s - prev));
        prev = s;
    }
    hex(&bytes)
}

fn decode_stamps(text: &str) -> Option<Vec<u32>> {
    let bytes = unhex(text)?;
    let mut r = VarReader::new(&bytes);
    let mut stamps = Vec::new();
    let mut prev = 0u64;
    while !r.done() {
        prev += r.read()?;
        stamps.push(u32::try_from(prev).ok()?);
    }
    Some(stamps)
}

fn encode_mask_runs(runs: &[(u32, u32, u64)]) -> String {
    let mut bytes = Vec::new();
    let mut prev_end = 0u32;
    for &(s, e, m) in runs {
        push_varint(&mut bytes, u64::from(s - prev_end));
        push_varint(&mut bytes, u64::from(e - s));
        push_varint(&mut bytes, m);
        prev_end = e;
    }
    hex(&bytes)
}

fn decode_mask_runs(text: &str) -> Option<Vec<(u32, u32, u64)>> {
    let bytes = unhex(text)?;
    let mut r = VarReader::new(&bytes);
    let mut runs = Vec::new();
    let mut prev_end = 0u64;
    while !r.done() {
        let s = prev_end + r.read()?;
        let e = s + r.read()?;
        let m = r.read()?;
        runs.push((u32::try_from(s).ok()?, u32::try_from(e).ok()?, m));
        prev_end = e;
    }
    Some(runs)
}

fn str_array<'j>(v: &'j Json, key: &str, len: usize) -> Option<Vec<&'j str>> {
    let arr = v.get(key).and_then(Json::as_array)?;
    if arr.len() != len {
        return None;
    }
    arr.iter().map(Json::as_str).collect()
}

// ---------------------------------------------------------------------------
// Interval query helpers.

/// End of the run in `runs` (sorted, disjoint, half-open) containing
/// `pos`, if any.
fn run_end(runs: &[(u32, u32)], pos: u32) -> Option<u32> {
    run_at(runs, pos).map(|(_, e)| e)
}

/// Index and end of the run in `runs` containing `pos`, if any.
fn run_at(runs: &[(u32, u32)], pos: u32) -> Option<(usize, u32)> {
    let i = runs.partition_point(|&(s, _)| s <= pos).checked_sub(1)?;
    let (_, e) = runs[i];
    (pos < e).then_some((i, e))
}

/// End of the mask run containing `pos` whose mask covers `rel_bit`.
fn mask_run_end(runs: &[(u32, u32, u64)], rel_bit: u32, pos: u32) -> Option<u32> {
    let i = runs.partition_point(|&(s, _, _)| s <= pos).checked_sub(1)?;
    let (_, e, m) = runs[i];
    (pos < e && (m >> rel_bit) & 1 == 1).then_some(e)
}

/// One build-loop walk over the shadow replica: detects writes and
/// re-arms flips, field by field, against the golden values recorded
/// in the same cycle.
///
/// A field flipped on a previous walk converging back to its golden
/// value can only mean the machine wrote it (the live trajectories are
/// identical, so golden's write lands in the shadow too — with the
/// same value). A field that is *not* flipped must always equal
/// golden: any mismatch means a dead flip steered live computation,
/// which falsifies the occupancy axiom, so the walk fails loudly.
struct ShadowTracer<'a> {
    /// Golden per-field values at this cycle, traversal order.
    golden: &'a [u64],
    /// Per-field deadness at this cycle (the field's occupancy group).
    dead: &'a [bool],
    /// Per-field "shadow still holds a flip" state, across cycles.
    flipped: &'a mut [bool],
    /// Per-field detected write cycles (output).
    writes: &'a mut [Vec<u32>],
    t: u32,
    idx: usize,
}

impl StateVisitor for ShadowTracer<'_> {
    fn region(&mut self, _name: &'static str, _kind: StateKind) {}
    fn word(&mut self, value: &mut u64, width: u32, _class: FieldClass) {
        let f = self.idx;
        self.idx += 1;
        if self.flipped[f] {
            if *value == self.golden[f] {
                self.writes[f].push(self.t);
                self.flipped[f] = false;
            }
        } else {
            assert_eq!(
                *value, self.golden[f],
                "shadow replica diverged from golden at field {f}, cycle {}: \
                 a dead-field flip steered live computation",
                self.t
            );
        }
        if self.dead[f] && !self.flipped[f] {
            *value ^= width_mask(width);
            self.flipped[f] = true;
        }
    }
}

/// Total length of `runs` clipped to `[0, clip)`.
fn clipped_len(runs: &[(u32, u32)], clip: u32) -> u64 {
    runs.iter().map(|&(s, e)| u64::from(e.min(clip).saturating_sub(s))).sum()
}

/// Length of the intersection of `runs` with `[lo, hi)`.
fn overlap_len(runs: &[(u32, u32)], lo: u32, hi: u32) -> u64 {
    runs.iter().map(|&(s, e)| u64::from(e.min(hi).saturating_sub(s.max(lo)))).sum()
}

// ---------------------------------------------------------------------------
// The microarchitectural map.

/// Field-table shape of one machine: per-field global bit offset, width
/// and occupancy group, derived from one catalog + one recorder walk.
/// Build and load both derive it fresh (it is cheap and config-pinned),
/// so the on-disk format only carries the interval arrays.
struct Shape {
    field_starts: Vec<u64>,
    widths: Vec<u32>,
    group_of: Vec<u32>,
    ngroups: usize,
}

impl Shape {
    fn of_pipeline(pipe: &mut Pipeline) -> Shape {
        let catalog = pipe.catalog();
        let mut rec = MaskRecorder::new();
        pipe.visit_state(&mut rec);
        assert_eq!(
            rec.values.len(),
            catalog.fields.len(),
            "recorder walk and catalog disagree on field count"
        );
        let ngroups = rec.groups.iter().max().map_or(0, |&g| g as usize + 1);
        Shape {
            field_starts: catalog.fields.iter().map(|&(s, _, _)| s).collect(),
            widths: catalog.fields.iter().map(|&(_, w, _)| w).collect(),
            group_of: rec.groups,
            ngroups,
        }
    }
}

/// A successful static-prune verdict from [`UarchMaskMap::proves`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapPrune {
    /// The bit's occupancy group was dead at the injection cycle itself.
    /// `false` means the bit was live but mask-covered.
    pub dead_at_injection: bool,
    /// `true`: the flip is provably destroyed by a wholesale overwrite
    /// before the symptom window closes (the `MaskedClean` /
    /// `Completed` prediction). `false`: the flip provably survives,
    /// intact and unread, through the end-of-trial hash point (the
    /// `DeadResidue` prediction).
    pub written: bool,
}

/// The per-`(workload, config)` masking-interval map over one golden
/// microarchitectural run.
///
/// Cycle coordinates match the campaign's: "cycle `t`" is machine state
/// after `t` calls to [`Pipeline::cycle`], the state a campaign fork at
/// coordinate `t` injects into.
#[derive(Debug, PartialEq)]
pub struct UarchMaskMap {
    digest: u64,
    /// Last recorded walk cycle (build stops at halt or horizon).
    last: u32,
    field_starts: Vec<u64>,
    widths: Vec<u32>,
    group_of: Vec<u32>,
    /// Per occupancy group: half-open cycle ranges the group is dead.
    dead_runs: Vec<Vec<(u32, u32)>>,
    /// Per field: cycles at which the field's value changed while the
    /// field was protected (dead or masked) on the *previous* cycle —
    /// the wholesale overwrites that destroy an injected corruption.
    stamps: Vec<Vec<u32>>,
    /// Per field: maximal half-open cycle ranges over which the field's
    /// declared static mask is constant and nonzero.
    mask_runs: Vec<Vec<(u32, u32, u64)>>,
    /// Per field: cycles at which the field was **written**, detected
    /// by the build's shadow replica (golden replayed with every dead
    /// field flipped, re-flipped after each detected write). Unlike value-change stamps this sees *same-value*
    /// rewrites, and it is exact for the query that matters: for any
    /// cycle `c` inside a dead run, the first entry after `c` is the
    /// first write after `c` (the field stays flipped from `c` until
    /// that write, so the write cannot hide).
    writes: Vec<Vec<u32>>,
    /// Per cycle `t`: the **drain horizon** — the first recorded cycle
    /// by which every instruction in flight at `t` has retired (the
    /// golden run retires in order, so `retired ≥ retired(t) +
    /// in_flight(t)` bounds them all). Every write a trial's
    /// end-of-window drain can perform comes from an instruction in
    /// flight at window close, so the recorded trajectory exhibits all
    /// of them by `drain_end[window close]`. `u32::MAX` when the
    /// recording ends before the horizon is reached (no residue proof).
    drain_end: Vec<u32>,
}

impl UarchMaskMap {
    /// Builds the map by replaying the golden run from cycle 0 up to
    /// `horizon` (or the run's end), one [`MaskRecorder`] walk per
    /// cycle. `digest` is the caller's configuration digest, embedded
    /// so persisted maps can never be misapplied.
    pub fn build(
        uarch: &UarchConfig,
        program: &Program,
        horizon: u64,
        digest: u64,
    ) -> UarchMaskMap {
        let mut pipe = Pipeline::new(uarch.clone(), program);
        let shape = Shape::of_pipeline(&mut pipe);
        let nfields = shape.field_starts.len();

        let mut map = UarchMaskMap {
            digest,
            last: 0,
            dead_runs: vec![Vec::new(); shape.ngroups],
            stamps: vec![Vec::new(); nfields],
            mask_runs: vec![Vec::new(); nfields],
            writes: vec![Vec::new(); nfields],
            drain_end: Vec::new(),
            field_starts: shape.field_starts,
            widths: shape.widths,
            group_of: shape.group_of,
        };

        // The shadow replica: the same machine replayed in lockstep
        // with every dead field flipped, re-flipped after each
        // detected write. Convergence back to the golden value is the
        // write detector behind `map.writes`.
        let mut shadow = Pipeline::new(uarch.clone(), program);
        let mut flipped = vec![false; nfields];
        let mut dead_field = vec![false; nfields];

        let mut rec = MaskRecorder::new();
        pipe.visit_state(&mut rec);
        let mut prev_values: Vec<u64> = Vec::new();
        let mut armed = vec![false; nfields];
        let mut group_dead = vec![false; shape.ngroups];
        let mut dead_since: Vec<Option<u32>> = vec![None; shape.ngroups];
        let mut open_mask: Vec<(u32, u64)> = vec![(0, 0); nfields];
        let mut retired_at: Vec<u32> = Vec::new();
        let mut inflight_at: Vec<u32> = Vec::new();

        let mut t: u32 = 0;
        loop {
            retired_at
                .push(u32::try_from(pipe.retired()).expect("retired fits interval coordinates"));
            inflight_at.push(u32::try_from(pipe.in_flight()).expect("in-flight count fits a u32"));
            // Group deadness: every field between two occupancy calls
            // shares the recorder's sticky liveness, so any member's
            // flag is the group's.
            group_dead.iter_mut().for_each(|g| *g = false);
            for (f, &live) in rec.live.iter().enumerate() {
                if !live {
                    group_dead[map.group_of[f] as usize] = true;
                }
            }
            for (g, open) in dead_since.iter_mut().enumerate() {
                match (*open, group_dead[g]) {
                    (None, true) => *open = Some(t),
                    (Some(s), false) => {
                        map.dead_runs[g].push((s, t));
                        *open = None;
                    }
                    _ => {}
                }
            }
            if t > 0 {
                for (f, (&v, &pv)) in rec.values.iter().zip(prev_values.iter()).enumerate() {
                    if v != pv && armed[f] {
                        map.stamps[f].push(t);
                    }
                }
            }
            // Walk the shadow replica against this cycle's golden
            // values: detect writes (flipped fields converging back to
            // golden), assert the live trajectory is undisturbed, and
            // re-arm flips in every currently-dead field.
            for (f, df) in dead_field.iter_mut().enumerate() {
                *df = group_dead[map.group_of[f] as usize];
            }
            let mut tracer = ShadowTracer {
                golden: &rec.values,
                dead: &dead_field,
                flipped: &mut flipped,
                writes: &mut map.writes,
                t,
                idx: 0,
            };
            shadow.visit_state(&mut tracer);
            assert_eq!(tracer.idx, nfields, "shadow walk and recorder disagree on field count");
            for (f, &m) in rec.masks.iter().enumerate() {
                let (start, cur) = open_mask[f];
                if m != cur {
                    if cur != 0 {
                        map.mask_runs[f].push((start, t, cur));
                    }
                    open_mask[f] = (t, m);
                }
            }
            for (f, a) in armed.iter_mut().enumerate() {
                *a = group_dead[map.group_of[f] as usize] || rec.masks[f] != 0;
            }
            std::mem::swap(&mut prev_values, &mut rec.values);

            assert_eq!(
                shadow.status(),
                pipe.status(),
                "shadow replica status diverged from golden at cycle {t}"
            );
            if pipe.status() != Stop::Running || u64::from(t) >= horizon {
                break;
            }
            pipe.cycle();
            shadow.cycle();
            t += 1;
            rec.reset();
            pipe.visit_state(&mut rec);
            assert_eq!(rec.values.len(), nfields, "field numbering drifted at cycle {t}");
        }
        // Close runs still open at the end of the recording. Their ends
        // are never consulted past a stamp (stamps stop at `last` too),
        // so the clip to `last + 1` cannot over-claim protection.
        let end = t + 1;
        for (g, open) in dead_since.iter_mut().enumerate() {
            if let Some(s) = open.take() {
                map.dead_runs[g].push((s, end));
            }
        }
        for (f, &(start, cur)) in open_mask.iter().enumerate() {
            if cur != 0 {
                map.mask_runs[f].push((start, end, cur));
            }
        }
        // Drain horizon per cycle: first recorded cycle whose retired
        // count proves every instruction in flight has left the
        // machine. Squashed wrong-path instructions never retire, so
        // the target over-counts and the horizon lands late — always
        // the conservative direction. When the recording ends at a
        // program halt the machine's complete evolution is on record —
        // every write that will ever happen has happened by the final
        // cycle — so an unreachable target resolves to `last` instead
        // of the no-proof sentinel. Forced nondecreasing (a later
        // horizon is also always sound) so it delta-encodes like the
        // stamp streams.
        let unreachable = if pipe.status() == Stop::Running { u32::MAX } else { t };
        map.drain_end = vec![u32::MAX; retired_at.len()];
        let mut floor = 0u32;
        for (tc, (&r, &fl)) in retired_at.iter().zip(inflight_at.iter()).enumerate() {
            let target = u64::from(r) + u64::from(fl);
            let u = retired_at.partition_point(|&v| u64::from(v) < target);
            let horizon = if u < retired_at.len() {
                (u as u32).max(u32::try_from(tc).expect("cycle fits u32"))
            } else {
                unreachable
            };
            floor = floor.max(horizon);
            map.drain_end[tc] = floor;
        }
        map.last = t;
        map
    }

    /// The configuration digest this map was built under.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Last recorded cycle.
    pub fn last_cycle(&self) -> u64 {
        u64::from(self.last)
    }

    /// Attempts to statically prove the fate of flipping `bit` at
    /// `cycle`, given that the trial's symptom window closes at
    /// `deadline` (`cycle + window_executed`). Returns `None` when
    /// nothing is provable (the campaign falls back to full
    /// simulation).
    ///
    /// Two verdicts are reachable.
    ///
    /// **Dead at injection**: the occupancy axiom applies — an
    /// occupancy-dead field's current value is never read before
    /// the field's next write, so the flip is invisible until that
    /// write and destroyed by it. The build's shadow replica holds the
    /// field flipped from the injection cycle until that write, so the
    /// first entry of `writes[f]` past `cycle` is exactly the first
    /// write after injection, `v1` — same-value rewrites included.
    /// `v1 ≤ deadline` proves `written = true`. If instead the field
    /// is never written through the drain horizon of the window close,
    /// the flip provably survives, intact, to the end-of-trial hash
    /// (`written = false`, the `DeadResidue` prediction). The horizon
    /// covers the trial's fetch-stopped drain exactly: every write
    /// the drain can perform comes from an instruction already in
    /// flight at window close, the machine retires in order, and all
    /// such instructions have left the machine — on the recorded
    /// trajectory, which executes a superset of the drain's work — by
    /// `drain_end[deadline]`. A write past the deadline but inside
    /// the horizon is ambiguous (it could come from an instruction
    /// the trial's drain never dispatches) and blocks the proof
    /// rather than upgrading it.
    ///
    /// **Live but mask-covered at injection**: a wholesale overwrite lands before the
    /// window closes and a protected walk covers every cycle up to
    /// it, so the injected machine provably tracks golden from the
    /// overwriting stamp on (`written = true`).
    ///
    /// Every `PruneMode::Audit` run re-verifies both verdicts against
    /// full simulation.
    pub fn proves(&self, bit: u64, cycle: u64, deadline: u64) -> Option<MapPrune> {
        let f = self.field_of(bit)?;
        let rel = u32::try_from(bit - self.field_starts[f]).ok()?;
        let g = self.group_of[f] as usize;
        let c = u32::try_from(cycle).ok()?;

        if run_end(&self.dead_runs[g], c).is_some() {
            // The shadow replica holds the field flipped from `c` until
            // its next write, so the first entry past `c` is exactly
            // the first write after injection.
            let ws = &self.writes[f];
            let v1 = ws.get(ws.partition_point(|&w| u64::from(w) <= cycle)).copied();
            if v1.is_some_and(|w| u64::from(w) <= deadline) {
                return Some(MapPrune { dead_at_injection: true, written: true });
            }
            // Residue: unwritten over the closed span
            // `[c, drain_end[deadline]]`, which the recording must
            // cover — a horizon past `last` is no proof at all.
            let hash_end = u64::from(*self.drain_end.get(usize::try_from(deadline).ok()?)?);
            if hash_end > u64::from(self.last) {
                return None;
            }
            let clean = v1.is_none_or(|w| u64::from(w) > hash_end);
            return clean.then_some(MapPrune { dead_at_injection: true, written: false });
        }

        let stamps = &self.stamps[f];
        let next = stamps.get(stamps.partition_point(|&s| u64::from(s) <= cycle)).copied();
        // Masked at injection: protected walk over [c, s) — dead runs
        // of the bit's group and mask runs covering the bit — to the
        // overwriting stamp. Protection over the whole span means any
        // value change inside it would itself have been stamped, so
        // `s` really is the first overwrite.
        let s = next.filter(|&s| u64::from(s) <= deadline)?;
        let mut pos = c;
        while pos < s {
            if let Some(e) = run_end(&self.dead_runs[g], pos) {
                pos = e;
            } else if let Some(e) = mask_run_end(&self.mask_runs[f], rel, pos) {
                pos = e;
            } else {
                return None;
            }
        }
        Some(MapPrune { dead_at_injection: false, written: true })
    }

    fn field_of(&self, bit: u64) -> Option<usize> {
        let idx = self.field_starts.partition_point(|&s| s <= bit).checked_sub(1)?;
        (bit < self.field_starts[idx] + u64::from(self.widths[idx])).then_some(idx)
    }

    /// Cross-checks the map's field table against the audit bit census:
    /// same field count, same offsets and widths, same total bit count.
    ///
    /// # Errors
    ///
    /// Returns the first discrepancy found.
    pub fn census_check(&self, catalog: &StateCatalog) -> Result<(), String> {
        if self.field_starts.len() != catalog.fields.len() {
            return Err(format!(
                "field count mismatch: map {} vs census {}",
                self.field_starts.len(),
                catalog.fields.len()
            ));
        }
        for (f, &(start, width, _)) in catalog.fields.iter().enumerate() {
            if self.field_starts[f] != start || self.widths[f] != width {
                return Err(format!(
                    "field {f} mismatch: map ({}, {}) vs census ({start}, {width})",
                    self.field_starts[f], self.widths[f]
                ));
            }
        }
        let total: u64 = self.widths.iter().map(|&w| u64::from(w)).sum();
        if total != catalog.total_bits {
            return Err(format!(
                "bit total mismatch: map {total} vs census {}",
                catalog.total_bits
            ));
        }
        Ok(())
    }

    /// Folds the intervals into a per-structure AVF-style report:
    /// for each catalog region, the dead and statically-masked
    /// bit-cycles over the recorded span (mask runs overlapping dead
    /// runs are counted once, as dead).
    pub fn avf(&self, catalog: &StateCatalog) -> Vec<AvfRow> {
        let span = self.last;
        catalog
            .regions
            .iter()
            .map(|r| {
                let mut dead = 0u64;
                let mut masked = 0u64;
                for (f, &(start, width, _)) in catalog.fields.iter().enumerate() {
                    if start < r.start || start >= r.start + r.len {
                        continue;
                    }
                    let druns = &self.dead_runs[self.group_of[f] as usize];
                    dead += u64::from(width) * clipped_len(druns, span);
                    for &(ms, me, m) in &self.mask_runs[f] {
                        let (ms, me) = (ms.min(span), me.min(span));
                        if ms < me {
                            let live_part = u64::from(me - ms) - overlap_len(druns, ms, me);
                            masked += u64::from(m.count_ones()) * live_part;
                        }
                    }
                }
                AvfRow {
                    name: r.name.to_owned(),
                    bits: r.len,
                    span: u64::from(span),
                    dead_bitcycles: dead,
                    masked_bitcycles: masked,
                }
            })
            .collect()
    }

    /// Canonical JSON form (interval arrays only; the field table is
    /// re-derived from the machine at load time).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".to_owned(), Json::from("uarch-maskmap")),
            ("version".to_owned(), Json::UInt(VERSION)),
            ("digest".to_owned(), Json::UInt(self.digest)),
            ("last".to_owned(), Json::UInt(u64::from(self.last))),
            ("fields".to_owned(), Json::UInt(self.field_starts.len() as u64)),
            ("groups".to_owned(), Json::UInt(self.dead_runs.len() as u64)),
            (
                "dead".to_owned(),
                Json::Arr(self.dead_runs.iter().map(|r| Json::Str(encode_pairs(r))).collect()),
            ),
            (
                "stamps".to_owned(),
                Json::Arr(self.stamps.iter().map(|s| Json::Str(encode_stamps(s))).collect()),
            ),
            (
                "masks".to_owned(),
                Json::Arr(self.mask_runs.iter().map(|r| Json::Str(encode_mask_runs(r))).collect()),
            ),
            (
                "writes".to_owned(),
                Json::Arr(self.writes.iter().map(|w| Json::Str(encode_stamps(w))).collect()),
            ),
            ("drain".to_owned(), Json::Str(encode_stamps(&self.drain_end))),
        ])
    }

    /// Decodes a persisted map, re-deriving the field table from a
    /// fresh machine. Returns `None` (caller rebuilds) on any mismatch:
    /// wrong kind/version/digest, or a field table that no longer
    /// matches the simulator.
    pub fn from_json(
        v: &Json,
        uarch: &UarchConfig,
        program: &Program,
        digest: u64,
    ) -> Option<UarchMaskMap> {
        if v.get("kind").and_then(Json::as_str) != Some("uarch-maskmap")
            || v.get("version").and_then(Json::as_u64) != Some(VERSION)
            || v.get("digest").and_then(Json::as_u64) != Some(digest)
        {
            return None;
        }
        let mut pipe = Pipeline::new(uarch.clone(), program);
        let shape = Shape::of_pipeline(&mut pipe);
        let nfields = shape.field_starts.len();
        if v.get("fields").and_then(Json::as_u64) != Some(nfields as u64)
            || v.get("groups").and_then(Json::as_u64) != Some(shape.ngroups as u64)
        {
            return None;
        }
        let last = u32::try_from(v.get("last").and_then(Json::as_u64)?).ok()?;
        let dead = str_array(v, "dead", shape.ngroups)?
            .into_iter()
            .map(decode_pairs)
            .collect::<Option<Vec<_>>>()?;
        let stamps = str_array(v, "stamps", nfields)?
            .into_iter()
            .map(decode_stamps)
            .collect::<Option<Vec<_>>>()?;
        let masks = str_array(v, "masks", nfields)?
            .into_iter()
            .map(decode_mask_runs)
            .collect::<Option<Vec<_>>>()?;
        let writes = str_array(v, "writes", nfields)?
            .into_iter()
            .map(decode_stamps)
            .collect::<Option<Vec<_>>>()?;
        let drain_end = decode_stamps(v.get("drain").and_then(Json::as_str)?)?;
        if drain_end.len() != last as usize + 1 {
            return None;
        }
        Some(UarchMaskMap {
            digest,
            last,
            field_starts: shape.field_starts,
            widths: shape.widths,
            group_of: shape.group_of,
            dead_runs: dead,
            stamps,
            mask_runs: masks,
            writes,
            drain_end,
        })
    }
}

// ---------------------------------------------------------------------------
// The architectural map.

/// Per-workload register access map over one golden architectural run.
///
/// Coordinates are retired-instruction indexes: "point `p`" means the
/// fault corrupts the result of instruction `p` (0-based), observed by
/// instructions `p+1` onward — exactly the arch campaign's fork
/// protocol.
#[derive(Debug, PartialEq)]
pub struct ArchMaskMap {
    digest: u64,
    run_len: u64,
    /// Per writable register (`r0..r30`): sorted packed accesses,
    /// `idx << 1 | is_write`. Reads sort before writes at the same
    /// instruction, so a read-and-write instruction (cmov) resolves as
    /// a read. `r31` is hardwired zero and tracked nowhere.
    accesses: Vec<Vec<u32>>,
}

impl ArchMaskMap {
    /// Builds the map by replaying the golden run to halt, recording
    /// every architectural register read and write.
    pub fn build(program: &Program, digest: u64) -> ArchMaskMap {
        let mut cpu = Cpu::new(program);
        let mut accesses: Vec<Vec<u32>> = vec![Vec::new(); 31];
        while !cpu.is_halted() {
            let idx = u32::try_from(cpu.retired()).expect("run length fits interval coordinates");
            assert!(idx < u32::MAX >> 1, "run too long for packed access coordinates");
            let r = cpu.step().expect("workloads are exception-free");
            for src in r.inst.sources() {
                if !src.is_zero() {
                    let packed = idx << 1;
                    let list = &mut accesses[src.index()];
                    if list.last() != Some(&packed) {
                        list.push(packed);
                    }
                }
            }
            if let Some((reg, _)) = r.reg_write {
                if !reg.is_zero() {
                    accesses[reg.index()].push(idx << 1 | 1);
                }
            }
        }
        ArchMaskMap { digest, run_len: cpu.retired(), accesses }
    }

    /// The configuration digest this map was built under.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The golden run's retired-instruction count.
    pub fn run_len(&self) -> u64 {
        self.run_len
    }

    /// Static verdict for corrupting register `reg`'s value right after
    /// instruction `point` retires, with `window_executed` lockstep
    /// instructions of observation (the campaign's `ArchGolden` value).
    ///
    /// * `Some(true)` — provably masked with no symptoms: the register
    ///   is overwritten before any read inside the window (or the run
    ///   halts inside the window with the register never accessed —
    ///   post-halt register residue is dead by the paper's definition).
    ///   Flips of `r31` are discarded by the hardwired zero and are
    ///   trivially masked.
    /// * `Some(false)` — provably *unmasked* with no symptoms: the
    ///   register is never accessed and the window expires first, so
    ///   the corrupt value survives into the final strict state
    ///   comparison.
    /// * `None` — the next access is a read: the fault propagates and
    ///   only simulation can classify it.
    pub fn verdict(&self, point: u64, reg: Reg, window_executed: u64) -> Option<bool> {
        if reg.is_zero() {
            return Some(true);
        }
        let list = &self.accesses[reg.index()];
        let lo = u32::try_from((point + 1) << 1).ok()?;
        let deadline = point + window_executed;
        if let Some(&e) = list.get(list.partition_point(|&e| e < lo)) {
            if u64::from(e >> 1) <= deadline {
                return if e & 1 == 1 { Some(true) } else { None };
            }
        }
        // No access inside the window: masked iff the run halts there.
        Some(deadline == self.run_len - 1)
    }

    /// AVF-style report over the architectural regions: for each
    /// register, instruction-points whose next access is a write (or
    /// absent) are dead; the PC is always live.
    pub fn avf(&self) -> Vec<AvfRow> {
        let span = self.run_len;
        let mut dead = 0u64;
        for list in &self.accesses {
            // First access per instruction index (reads sort first).
            let mut prev_idx = 0u64;
            let mut prev_seen = u64::MAX; // dedup marker
            for &e in list {
                let idx = u64::from(e >> 1);
                if idx == prev_seen {
                    continue;
                }
                prev_seen = idx;
                if e & 1 == 1 {
                    // Points in [prev_idx, idx) see this write first.
                    dead += 64 * (idx - prev_idx);
                }
                prev_idx = idx;
            }
            // Points past the last access are dead to the halt.
            dead += 64 * (span - prev_idx);
        }
        vec![
            AvfRow {
                name: "arch-regfile".to_owned(),
                bits: 31 * 64,
                span,
                dead_bitcycles: dead,
                masked_bitcycles: 0,
            },
            AvfRow {
                name: "arch-pc".to_owned(),
                bits: 64,
                span,
                dead_bitcycles: 0,
                masked_bitcycles: 0,
            },
        ]
    }

    /// Canonical JSON form.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".to_owned(), Json::from("arch-maskmap")),
            ("version".to_owned(), Json::UInt(VERSION)),
            ("digest".to_owned(), Json::UInt(self.digest)),
            ("run_len".to_owned(), Json::UInt(self.run_len)),
            (
                "regs".to_owned(),
                Json::Arr(self.accesses.iter().map(|l| Json::Str(encode_stamps(l))).collect()),
            ),
        ])
    }

    /// Decodes a persisted map; `None` (caller rebuilds) on mismatch.
    pub fn from_json(v: &Json, digest: u64) -> Option<ArchMaskMap> {
        if v.get("kind").and_then(Json::as_str) != Some("arch-maskmap")
            || v.get("version").and_then(Json::as_u64) != Some(VERSION)
            || v.get("digest").and_then(Json::as_u64) != Some(digest)
        {
            return None;
        }
        let run_len = v.get("run_len").and_then(Json::as_u64)?;
        let accesses =
            str_array(v, "regs", 31)?.into_iter().map(decode_stamps).collect::<Option<Vec<_>>>()?;
        Some(ArchMaskMap { digest, run_len, accesses })
    }
}

// ---------------------------------------------------------------------------
// AVF report rows.

/// One region's row of the AVF report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvfRow {
    /// Region (structure) name.
    pub name: String,
    /// Bits in the region.
    pub bits: u64,
    /// Cycles (arch: instructions) covered by the analysis.
    pub span: u64,
    /// Bit-cycles provably dead (vacant occupancy / dead register).
    pub dead_bitcycles: u64,
    /// Bit-cycles provably masked while live (static mask runs),
    /// excluding overlap with dead runs.
    pub masked_bitcycles: u64,
}

impl AvfRow {
    /// Total provably-unobservable bit-cycles.
    pub fn protected_bitcycles(&self) -> u64 {
        self.dead_bitcycles + self.masked_bitcycles
    }

    /// Architectural vulnerability factor upper bound: the fraction of
    /// the region's bit-cycles *not* provably masked. (A true AVF also
    /// discounts dynamically-dead state this static pass cannot see, so
    /// the real value is at or below this.)
    pub fn avf(&self) -> f64 {
        let total = self.bits * self.span;
        if total == 0 {
            return 1.0;
        }
        1.0 - (self.protected_bitcycles() as f64) / (total as f64)
    }

    /// JSON form; the AVF fraction is carried in parts-per-million (the
    /// store's JSON model is integer-only).
    pub fn to_json(&self) -> Json {
        let total = self.bits * self.span;
        // Round to nearest ppm without floats; an empty region is
        // fully protected by convention.
        let ppm = (self.protected_bitcycles() * 1_000_000 + total / 2)
            .checked_div(total)
            .unwrap_or(1_000_000);
        Json::Obj(vec![
            ("region".to_owned(), Json::from(self.name.as_str())),
            ("bits".to_owned(), Json::UInt(self.bits)),
            ("span".to_owned(), Json::UInt(self.span)),
            ("dead_bitcycles".to_owned(), Json::UInt(self.dead_bitcycles)),
            ("masked_bitcycles".to_owned(), Json::UInt(self.masked_bitcycles)),
            ("avf_ppm".to_owned(), Json::UInt(1_000_000 - ppm)),
        ])
    }
}

// ---------------------------------------------------------------------------
// Process-wide memoized loaders (the checkpoint-library pattern), with
// persistence next to the trial store.

/// Digest pinning everything that shapes a µarch map: workload program
/// (scale), simulator configuration, and recording horizon.
pub fn uarch_map_digest(scale: Scale, uarch: &UarchConfig, horizon: u64) -> u64 {
    config_digest(&format!("uarch-maskmap|{scale:?}|{uarch:?}|{horizon}"))
}

/// Digest pinning an arch map: the program alone.
pub fn arch_map_digest(scale: Scale) -> u64 {
    config_digest(&format!("arch-maskmap|{scale:?}"))
}

/// On-disk file name for a persisted map.
pub fn map_path(dir: &Path, domain: &str, workload: WorkloadId, digest: u64) -> PathBuf {
    dir.join(format!("maskmap-{domain}-{}-{digest:016x}.json", workload.name()))
}

/// Writes `v` to `path` atomically enough for concurrent shard writers:
/// full write to a process-unique temp name, then rename. Every shard
/// computes byte-identical content, so last-rename-wins is harmless.
fn persist(path: &Path, v: &Json) {
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    if std::fs::write(&tmp, v.render()).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

fn read_json(path: &Path) -> Option<Json> {
    Json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// One process-wide registry per map type, keyed by `(workload, digest)`.
// determinism: allow -- keyed lookup only; the registry is never iterated for output
type Registry<M> = OnceLock<Mutex<HashMap<(WorkloadId, u64), Arc<M>>>>;

/// The process-wide µarch map registry: one [`UarchMaskMap`] per
/// `(workload, digest)`, built (or loaded from `map_dir`) on first use
/// and shared by every campaign in the process. The registry lock is
/// held across the build so concurrent workers block on the first
/// builder instead of duplicating a multi-second replay.
pub fn uarch_map(
    workload: WorkloadId,
    scale: Scale,
    uarch: &UarchConfig,
    horizon: u64,
    map_dir: Option<&Path>,
) -> Arc<UarchMaskMap> {
    static CACHE: Registry<UarchMaskMap> = OnceLock::new();
    let digest = uarch_map_digest(scale, uarch, horizon);
    let mut cache = CACHE.get_or_init(Mutex::default).lock().expect("maskmap registry poisoned");
    if let Some(m) = cache.get(&(workload, digest)) {
        return Arc::clone(m);
    }
    let program = workload.build(scale);
    let path = map_dir.map(|d| map_path(d, "uarch", workload, digest));
    let loaded = path
        .as_deref()
        .and_then(read_json)
        .and_then(|v| UarchMaskMap::from_json(&v, uarch, &program, digest));
    let map = Arc::new(loaded.unwrap_or_else(|| {
        let m = UarchMaskMap::build(uarch, &program, horizon, digest);
        if let Some(p) = &path {
            persist(p, &m.to_json());
        }
        m
    }));
    cache.insert((workload, digest), Arc::clone(&map));
    map
}

/// The process-wide arch map registry; see [`uarch_map`].
pub fn arch_map(workload: WorkloadId, scale: Scale, map_dir: Option<&Path>) -> Arc<ArchMaskMap> {
    static CACHE: Registry<ArchMaskMap> = OnceLock::new();
    let digest = arch_map_digest(scale);
    let mut cache = CACHE.get_or_init(Mutex::default).lock().expect("maskmap registry poisoned");
    if let Some(m) = cache.get(&(workload, digest)) {
        return Arc::clone(m);
    }
    let path = map_dir.map(|d| map_path(d, "arch", workload, digest));
    let loaded =
        path.as_deref().and_then(read_json).and_then(|v| ArchMaskMap::from_json(&v, digest));
    let map = Arc::new(loaded.unwrap_or_else(|| {
        let m = ArchMaskMap::build(&workload.build(scale), digest);
        if let Some(p) = &path {
            persist(p, &m.to_json());
        }
        m
    }));
    cache.insert((workload, digest), Arc::clone(&map));
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_isa::{layout, Asm};
    use restore_uarch::OccupancyRecorder;

    fn smoke_map(horizon: u64) -> (UarchMaskMap, Pipeline) {
        let program = WorkloadId::Mcfx.build(Scale::smoke());
        let uarch = UarchConfig::default();
        let map = UarchMaskMap::build(&uarch, &program, horizon, 0xDEAD);
        (map, Pipeline::new(uarch, &program))
    }

    #[test]
    fn census_check_matches_catalog() {
        let (map, mut pipe) = smoke_map(50);
        let catalog = pipe.catalog();
        map.census_check(&catalog).unwrap();
        assert!(map.last_cycle() == 50, "horizon-bounded build records the full span");
    }

    #[test]
    fn dead_at_injection_prunes_agree_with_occupancy_snapshots() {
        let (map, mut pipe) = smoke_map(400);
        let catalog = pipe.catalog();
        let mut checked = 0;
        for c in [60u64, 150, 300] {
            while pipe.cycles() < c {
                pipe.cycle();
            }
            let mut rec = OccupancyRecorder::new();
            pipe.visit_state(&mut rec);
            for bit in (0..catalog.total_bits).step_by(97) {
                if let Some(p) = map.proves(bit, c, c + 100) {
                    let f = catalog.field_index_of(bit).unwrap();
                    if p.dead_at_injection {
                        assert!(
                            !rec.live[f],
                            "map claims dead bit {bit} at {c}, snapshot says live"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0, "no dead-at-injection prunes in the sample — map is inert");
    }

    /// The full soundness property, sampled: for every prune the map
    /// issues, actually flipping the bit must leave the machine
    /// bit-identical to golden by the deadline, with identical output.
    #[test]
    fn sampled_prunes_are_bit_exact_masked_in_simulation() {
        let program = WorkloadId::Gccx.build(Scale::smoke());
        let uarch = UarchConfig::default();
        let map = UarchMaskMap::build(&uarch, &program, 500, 1);
        let mut golden = Pipeline::new(uarch.clone(), &program);
        let catalog = golden.catalog();
        let window = 120u64;
        let mut verified = 0;
        for c in [40u64, 90, 180, 260, 340] {
            while golden.cycles() < c {
                golden.cycle();
            }
            let mut gold_probe = golden.clone();
            for bit in (0..catalog.total_bits).step_by(41) {
                let Some(p) = map.proves(bit, c, c + window) else {
                    continue;
                };
                let mut injected = golden.clone();
                injected.flip_bit(bit);
                for _ in 0..window {
                    if injected.status() != Stop::Running {
                        break;
                    }
                    injected.cycle();
                }
                while gold_probe.cycles() < c + window && gold_probe.status() == Stop::Running {
                    gold_probe.cycle();
                }
                if !p.written {
                    // A residue proof claims the flip is still resident
                    // and everything else golden: undoing it must
                    // restore bit-exact equality.
                    injected.flip_bit(bit);
                }
                assert_eq!(
                    injected.state_hash(),
                    gold_probe.clone().state_hash(),
                    "pruned flip of bit {bit} at cycle {c} (written: {}) did not converge",
                    p.written
                );
                assert_eq!(injected.output(), gold_probe.output());
                verified += 1;
            }
        }
        assert!(verified >= 20, "only {verified} prunes sampled — map too conservative");
    }

    #[test]
    fn uarch_map_roundtrips_through_json() {
        let program = WorkloadId::Mcfx.build(Scale::smoke());
        let uarch = UarchConfig::default();
        let map = UarchMaskMap::build(&uarch, &program, 200, 77);
        let text = map.to_json().render();
        let back = UarchMaskMap::from_json(&Json::parse(&text).unwrap(), &uarch, &program, 77)
            .expect("roundtrip decode");
        assert_eq!(map, back);
        assert!(
            UarchMaskMap::from_json(&Json::parse(&text).unwrap(), &uarch, &program, 78).is_none(),
            "digest mismatch must force a rebuild"
        );
    }

    #[test]
    fn arch_map_verdicts_on_a_handcrafted_program() {
        use restore_isa::Reg;
        let mut a = Asm::new("t", layout::TEXT_BASE);
        a.li(Reg::T0, 7); // 0: write t0
        a.li(Reg::T1, 9); // 1: write t1
        a.addq(Reg::T0, Reg::T1, Reg::T2); // 2: read t0,t1; write t2
        a.li(Reg::T0, 1); // 3: write t0 (t0 dead over [2, 3))
        a.mov(Reg::T2, Reg::A0); // 4: read t2, write a0
        a.outq(); // 5: read a0
        a.halt(); // 6
        let map = ArchMaskMap::build(&a.finish().unwrap(), 5);
        assert_eq!(map.run_len(), 7);
        // t0 corrupted after inst 0: read at 2 → only simulation decides.
        assert_eq!(map.verdict(0, Reg::T0, 6), None);
        // t0 corrupted after inst 2: overwritten at 3 before any read.
        assert_eq!(map.verdict(2, Reg::T0, 4), Some(true));
        // t1 corrupted after inst 2: never accessed again; run halts
        // inside the window → dead residue, masked.
        assert_eq!(map.verdict(2, Reg::T1, 4), Some(true));
        // t1 corrupted after inst 2 with the window expiring before the
        // halt: residue survives into the strict comparison.
        assert_eq!(map.verdict(2, Reg::T1, 2), Some(false));
        // r31 is hardwired zero.
        assert_eq!(map.verdict(1, Reg::ZERO, 3), Some(true));
        // cmov-free writes that also read resolve as reads (addq reads
        // t0 and t1 at 2; verdict for t1 right after 1 must fall back).
        assert_eq!(map.verdict(1, Reg::T1, 4), None);
    }

    #[test]
    fn arch_map_roundtrips_through_json() {
        let map = ArchMaskMap::build(&WorkloadId::Parserx.build(Scale::smoke()), 42);
        let text = map.to_json().render();
        let back = ArchMaskMap::from_json(&Json::parse(&text).unwrap(), 42).expect("decode");
        assert_eq!(map, back);
        assert!(ArchMaskMap::from_json(&Json::parse(&text).unwrap(), 43).is_none());
    }

    #[test]
    fn avf_rows_are_bounded_and_cover_all_regions() {
        let (map, mut pipe) = smoke_map(300);
        let catalog = pipe.catalog();
        let rows = map.avf(&catalog);
        assert_eq!(rows.len(), catalog.regions.len());
        for row in &rows {
            let total = row.bits * row.span;
            assert!(row.protected_bitcycles() <= total, "{}: over-counted protection", row.name);
            assert!((0.0..=1.0).contains(&row.avf()), "{}: AVF out of range", row.name);
        }
        assert!(
            rows.iter().any(|r| r.protected_bitcycles() > 0),
            "no region shows any provable masking"
        );
        let arch_rows = ArchMaskMap::build(&WorkloadId::Mcfx.build(Scale::smoke()), 0).avf();
        assert_eq!(arch_rows.len(), 2);
        assert!(arch_rows[0].dead_bitcycles > 0, "registers are never all-live");
    }

    #[test]
    fn registries_memoize_and_persist() {
        let dir = std::env::temp_dir().join(format!("restore-maskmap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let scale = Scale::smoke();
        let uarch = UarchConfig::default();
        let a = uarch_map(WorkloadId::Bzip2x, scale, &uarch, 150, Some(&dir));
        let b = uarch_map(WorkloadId::Bzip2x, scale, &uarch, 150, Some(&dir));
        assert!(Arc::ptr_eq(&a, &b), "registry must serve the same Arc");
        let digest = uarch_map_digest(scale, &uarch, 150);
        let path = map_path(&dir, "uarch", WorkloadId::Bzip2x, digest);
        assert!(path.exists(), "map must persist next to the store");
        let v = read_json(&path).unwrap();
        let from_disk =
            UarchMaskMap::from_json(&v, &uarch, &WorkloadId::Bzip2x.build(scale), digest).unwrap();
        assert_eq!(&from_disk, &*a);
        let am = arch_map(WorkloadId::Bzip2x, scale, Some(&dir));
        assert!(map_path(&dir, "arch", WorkloadId::Bzip2x, arch_map_digest(scale)).exists());
        assert!(Arc::ptr_eq(&am, &arch_map(WorkloadId::Bzip2x, scale, Some(&dir))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn varint_wire_roundtrips() {
        let pairs = vec![(3u32, 9u32), (9, 10), (500, 100_000)];
        assert_eq!(decode_pairs(&encode_pairs(&pairs)).unwrap(), pairs);
        let stamps = vec![1u32, 2, 128, 70_000];
        assert_eq!(decode_stamps(&encode_stamps(&stamps)).unwrap(), stamps);
        let masks = vec![(0u32, 5u32, u64::MAX), (5, 6, 0xFF00)];
        assert_eq!(decode_mask_runs(&encode_mask_runs(&masks)).unwrap(), masks);
        assert_eq!(decode_pairs("").unwrap(), vec![]);
        assert!(decode_pairs("zz").is_none());
        assert!(decode_pairs("8f").is_none(), "truncated varint must fail");
    }
}
