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
//!   [`Pipeline`] once. Each cycle a tracked walk updates, in place,
//!   every catalog field's value plus the occupancy and mask
//!   declarations, visiting a [`StateVisitor::entry`] (a queue slot, a
//!   latch) only when it differs from its copy at the previous cycle,
//!   and logs what changed; the log updates four families: *dead runs*
//!   (cycle ranges an occupancy group is vacant), *mask runs* (cycle
//!   ranges a field's statically-masked bits hold a constant nonzero
//!   mask — unoccupied operand latches, dead ROB bookkeeping,
//!   non-control prediction state), *armed stamps* (cycles at which a
//!   previously dead-or-masked field is wholesale overwritten), and
//!   *write streams* (exact per-field write cycles from a **shadow
//!   replica** run in lockstep with the golden replay, every dead field
//!   flipped and re-flipped after each detected write — convergence
//!   back to the golden value is the write detector, so even same-value
//!   rewrites register; the replica's walk visits only the entries that
//!   changed or hold a changed expectation). A full walk cross-checks
//!   both tracked walks every cycle in debug builds and every 1,024
//!   cycles in release builds. An injection `(bit, cycle)` is provably
//!   destroyed when dead at injection and written before the window
//!   closes, provably *residue* when dead and unwritten through the
//!   window close's drain horizon, and provably masked when the bit
//!   stays dead-or-masked from the injection cycle to the next armed
//!   stamp inside the window ([`UarchMaskMap::proves`]).
//! * **Architectural access map** ([`ArchMaskMap`]) — replays the
//!   golden [`Cpu`] once, recording every register read (via
//!   [`restore_isa::Inst::sources`]) and write, for the architectural
//!   rows of the AVF report: a register is dead from an instruction
//!   until its next access when that access is a write. Campaigns do
//!   not prune with it.
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
//! The µarch map is cross-checked three ways — map-predicted trial
//! records against simulated ones at random proved `(cycle, bit)` pairs
//! (proptest, in `restore-inject`), against the audit bit census
//! ([`UarchMaskMap::census_check`]), and by `--prune audit`, which runs
//! every trial as the exhaustive reference too.
//!
//! A map holds each interval family in its wire encoding: one buffer of
//! canonical varint deltas per family, with a sparse skip index that
//! keeps every lookup logarithmic. µarch maps are memoized process-wide
//! (like the golden checkpoint library) and persisted next to the trial
//! store as `maskmap-uarch-<workload>-<digest>.json`, the same bytes
//! hex-encoded, so sharded campaign runs compute each map once per
//! shard *set*.
//! Each `(workload, digest)` key builds at most once per process, and
//! distinct keys build concurrently: campaigns resolve their maps up
//! front over their worker threads ([`resolve_maps`]).
//!
//! The same intervals fold into a per-structure AVF-style vulnerability
//! report ([`UarchMaskMap::avf`], `restore-maskmap --avf`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use restore_arch::Cpu;
use restore_core::config_digest;
use restore_isa::Program;
use restore_store::Json;
use restore_uarch::state::{width_mask, StateVisitor};
use restore_uarch::{FaultState, FieldClass, Pipeline, StateCatalog, StateKind, Stop, UarchConfig};
use restore_workloads::{Scale, WorkloadId};
use std::any::Any;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// On-disk map format version (bumped on any encoding change; stale
/// files are rebuilt, never misread).
const VERSION: u64 = 2;

// ---------------------------------------------------------------------------
// The wire encoding, which maps also keep in memory. An interval family
// is one buffer of LEB128 varints: per key (an occupancy group or a
// field) a stream of entries, each delta-coded against the end of the
// entry before it. The map files hex-encode each stream as one JSON
// string, ~5-10x smaller than literal integer arrays while staying
// inside the store's float-free `Json` model; in memory the bytes take
// about a quarter of the decoded vectors' space.

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

/// Writes `bytes` as a JSON string of lowercase hex digits.
fn write_hex(out: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 1024];
    out.write_all(b"\"")?;
    for chunk in bytes.chunks(buf.len() / 2) {
        for (pair, &b) in buf.as_chunks_mut::<2>().0.iter_mut().zip(chunk) {
            *pair = [DIGITS[usize::from(b >> 4)], DIGITS[usize::from(b & 0xf)]];
        }
        out.write_all(&buf[..2 * chunk.len()])?;
    }
    out.write_all(b"\"")
}

/// Appends to `out` what [`write_hex`] writes between its quotes: an
/// even number of lowercase hex digits.
fn unhex_into(s: &str, out: &mut Vec<u8>) -> Option<()> {
    let digit = |b: u8| match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        _ => None,
    };
    let (pairs, rest) = s.as_bytes().as_chunks::<2>();
    if !rest.is_empty() {
        return None;
    }
    out.reserve(pairs.len());
    for &[hi, lo] in pairs {
        out.push(digit(hi)? << 4 | digit(lo)?);
    }
    Some(())
}

/// Sequential reader of canonical varints: each value's shortest
/// encoding, so a stream's bytes are a function of its entries and
/// byte equality is map equality.
struct VarReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl VarReader<'_> {
    #[inline]
    fn read(&mut self) -> Option<u64> {
        let b = *self.bytes.get(self.pos)?;
        if b < 0x80 {
            self.pos += 1;
            return Some(u64::from(b));
        }
        self.read_long()
    }

    fn read_long(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                // A zero last byte only pads, and a tenth byte holds
                // bit 63 alone.
                return (b != 0 && (shift < 63 || b == 1)).then_some(v);
            }
        }
        None
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// `base` plus the next varint, if the sum is a cycle.
#[inline]
fn cycle_after(r: &mut VarReader<'_>, base: u32) -> Option<u32> {
    u32::try_from(u64::from(base).checked_add(r.read()?)?).ok()
}

/// One entry of an interval stream: a cycle (a stamp, a write), a dead
/// run `(start, end)` or a mask run `(start, end, mask)`, runs half-open.
trait Entry: Copy {
    /// Decodes the entry after one ending at `prev` (`0` for the first).
    fn read(r: &mut VarReader<'_>, prev: u32) -> Option<Self>;
    /// Encodes it after one ending at `prev`.
    fn write(self, out: &mut Vec<u8>, prev: u32);
    /// Its first cycle.
    fn start(self) -> u32;
    /// The cycle it ends at, which the next entry is coded against.
    fn end(self) -> u32;
    /// Whether a build recording cycles `0..=last` can produce it after
    /// an entry ending at `prev` (`None`: it is the first).
    fn fits(self, prev: Option<u32>, last: u32) -> bool;
}

/// A dead run: `[start, end)`.
type Run = (u32, u32);
/// A mask run: `[start, end)` and the mask it holds.
type MaskRun = (u32, u32, u64);

impl Entry for u32 {
    #[inline]
    fn read(r: &mut VarReader<'_>, prev: u32) -> Option<u32> {
        cycle_after(r, prev)
    }

    fn write(self, out: &mut Vec<u8>, prev: u32) {
        push_varint(out, u64::from(self - prev));
    }

    fn start(self) -> u32 {
        self
    }

    fn end(self) -> u32 {
        self
    }

    /// Strictly increasing, at or before `last`.
    fn fits(self, prev: Option<u32>, last: u32) -> bool {
        prev.is_none_or(|p| p < self) && self <= last
    }
}

impl Entry for Run {
    #[inline]
    fn read(r: &mut VarReader<'_>, prev: u32) -> Option<Run> {
        let s = cycle_after(r, prev)?;
        Some((s, cycle_after(r, s)?))
    }

    fn write(self, out: &mut Vec<u8>, prev: u32) {
        let (s, e) = self;
        push_varint(out, u64::from(s - prev));
        push_varint(out, u64::from(e - s));
    }

    fn start(self) -> u32 {
        self.0
    }

    fn end(self) -> u32 {
        self.1
    }

    /// Nonempty, ending by `last + 1`.
    fn fits(self, _prev: Option<u32>, last: u32) -> bool {
        let (s, e) = self;
        s < e && u64::from(e) <= u64::from(last) + 1
    }
}

impl Entry for MaskRun {
    #[inline]
    fn read(r: &mut VarReader<'_>, prev: u32) -> Option<MaskRun> {
        let (s, e) = Run::read(r, prev)?;
        Some((s, e, r.read()?))
    }

    fn write(self, out: &mut Vec<u8>, prev: u32) {
        let (s, e, m) = self;
        (s, e).write(out, prev);
        push_varint(out, m);
    }

    fn start(self) -> u32 {
        self.0
    }

    fn end(self) -> u32 {
        self.1
    }

    fn fits(self, prev: Option<u32>, last: u32) -> bool {
        let (s, e, _) = self;
        (s, e).fits(prev, last)
    }
}

/// Entries between two marks of a stream's skip index.
const SKIP: u32 = 32;

/// Where a key's stream starts in [`Family::bytes`] and its marks in
/// [`Family::skips`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Start {
    byte: u32,
    skip: u32,
}

/// A skip-index mark: the end of the entry before the marked one,
/// which decoding resumes from, and the marked entry's byte offset.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Skip {
    prev: u32,
    at: u32,
}

/// One interval family in its wire encoding: every key's stream of
/// entries, concatenated, and a skip index marking every [`SKIP`]-th
/// entry of each stream after its first. A lookup binary-searches the
/// marks and decodes at most one gap between them.
#[derive(Debug, PartialEq)]
struct Family<E> {
    bytes: Vec<u8>,
    /// Per key, and once more past the last one.
    starts: Vec<Start>,
    skips: Vec<Skip>,
    entry: PhantomData<E>,
}

impl<E: Entry> Family<E> {
    fn new() -> Family<E> {
        Family {
            bytes: Vec::new(),
            starts: vec![Start { byte: 0, skip: 0 }],
            skips: Vec::new(),
            entry: PhantomData,
        }
    }

    /// Number of streams.
    fn keys(&self) -> usize {
        self.starts.len() - 1
    }

    /// Closes the next key's stream, the bytes appended since the
    /// previous one, and indexes it, in one decoding pass. `None` if an
    /// entry is not one a build recording cycles `0..=last` produces, or
    /// its varints are not canonical; the family is then unusable.
    fn close(&mut self, last: u32) -> Option<()> {
        let from = self.starts[self.keys()].byte as usize;
        let mut r = VarReader { bytes: &self.bytes, pos: from };
        let (mut prev, mut n) = (None, 0u32);
        while !r.done() {
            if let Some(prev) = prev.filter(|_| n.is_multiple_of(SKIP)) {
                self.skips.push(Skip { prev, at: u32::try_from(r.pos).ok()? });
            }
            let e = E::read(&mut r, prev.unwrap_or(0))?;
            if !e.fits(prev, last) {
                return None;
            }
            (prev, n) = (Some(e.end()), n + 1);
        }
        let byte = u32::try_from(self.bytes.len()).ok()?;
        let skip = u32::try_from(self.skips.len()).ok()?;
        self.starts.push(Start { byte, skip });
        Some(())
    }

    /// Key `k`'s entries, in order.
    fn entries(&self, k: usize) -> Entries<'_, E> {
        let (lo, hi) = (self.starts[k], self.starts[k + 1]);
        Entries::at(&self.bytes[..hi.byte as usize], lo.byte, 0)
    }

    /// Key `k`'s entries from one at or before the first that ends
    /// after `c`: every entry it skips ends at or before `c`.
    #[inline]
    fn from(&self, k: usize, c: u32) -> Entries<'_, E> {
        let (lo, hi) = (self.starts[k], self.starts[k + 1]);
        let skips = &self.skips[lo.skip as usize..hi.skip as usize];
        let (prev, at) = match skips.partition_point(|s| s.prev <= c) {
            0 => (0, lo.byte),
            i => (skips[i - 1].prev, skips[i - 1].at),
        };
        Entries::at(&self.bytes[..hi.byte as usize], at, prev)
    }

    /// Key `k`'s first entry ending after `c`.
    #[inline]
    fn first_after(&self, k: usize, c: u32) -> Option<E> {
        self.from(k, c).find(|e| e.end() > c)
    }

    /// Key `k`'s run containing `c`, if any.
    #[inline]
    fn run_at(&self, k: usize, c: u32) -> Option<E> {
        self.first_after(k, c).filter(|e| e.start() <= c)
    }

    /// Writes `,"key":[…]`, one hex string per stream.
    fn write_json(&self, out: &mut impl Write, key: &str) -> io::Result<()> {
        write!(out, ",\"{key}\":[")?;
        for (k, w) in self.starts.windows(2).enumerate() {
            if k > 0 {
                out.write_all(b",")?;
            }
            write_hex(out, &self.bytes[w[0].byte as usize..w[1].byte as usize])?;
        }
        out.write_all(b"]")
    }

    /// Decodes `v[key]`, an array of `keys` hex strings, as a build
    /// recording cycles `0..=last` would have written it.
    fn decode(v: &Json, key: &str, keys: usize, last: u32) -> Option<Family<E>> {
        let texts = v.get(key).and_then(Json::as_array).filter(|t| t.len() == keys)?;
        let mut family = Family::new();
        let bytes = texts.iter().filter_map(Json::as_str).map(|s| s.len() / 2).sum();
        family.bytes.reserve_exact(bytes);
        family.starts.reserve_exact(keys);
        for text in texts {
            unhex_into(text.as_str()?, &mut family.bytes)?;
            family.close(last)?;
        }
        family.skips.shrink_to_fit();
        Some(family)
    }
}

/// A stream's entries from one byte offset on.
struct Entries<'a, E> {
    r: VarReader<'a>,
    prev: u32,
    entry: PhantomData<E>,
}

impl<'a, E> Entries<'a, E> {
    /// Decodes `bytes` from offset `at`, the entry there coded against
    /// `prev`.
    #[inline]
    fn at(bytes: &'a [u8], at: u32, prev: u32) -> Entries<'a, E> {
        Entries { r: VarReader { bytes, pos: at as usize }, prev, entry: PhantomData }
    }
}

impl<E: Entry> Iterator for Entries<'_, E> {
    type Item = E;

    #[inline]
    fn next(&mut self) -> Option<E> {
        if self.r.done() {
            return None;
        }
        let e = E::read(&mut self.r, self.prev)?;
        self.prev = e.end();
        Some(e)
    }
}

/// The drain horizon's wire bytes: each cycle's delta from the one
/// before.
fn encode_drain(drain_end: &[u32]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut prev = 0;
    for &d in drain_end {
        d.write(&mut bytes, prev);
        prev = d;
    }
    bytes
}

/// Decodes a drain horizon: `last + 1` cycles, nondecreasing (the
/// delta encoding cannot express a decrease), each at or before `last`
/// or at the no-proof marker.
fn decode_drain(text: &str, last: u32) -> Option<Vec<u32>> {
    let mut bytes = Vec::new();
    unhex_into(text, &mut bytes)?;
    let mut r = VarReader { bytes: &bytes, pos: 0 };
    let mut drain = Vec::with_capacity(bytes.len().min(last as usize + 1));
    let mut prev = 0;
    while !r.done() {
        prev = cycle_after(&mut r, prev).filter(|&d| d <= last || d == u32::MAX)?;
        drain.push(prev);
    }
    (drain.len() == last as usize + 1).then_some(drain)
}

/// Where one [`StateVisitor::entry`] sits in the field and mark
/// numbering, fixed by the layout walk.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Its first field and first mark.
    field: u32,
    mark: u32,
    /// How many fields and marks its walk makes.
    fields: u32,
    marks: u32,
}

/// `entry_of` for a field outside every entry.
const NO_ENTRY: u32 = u32::MAX;

/// Each entry's copy from a walk, kept in runs of consecutive entries
/// of one type (a queue's slots, say), so a walk's compares stream
/// through memory.
#[derive(Debug, Default)]
struct Copies {
    /// Per run: a `Vec<E>` of its entries' copies.
    runs: Vec<Box<dyn Any>>,
    /// Per entry: its run and its index there.
    at: Vec<(u32, u32)>,
}

impl Copies {
    /// Appends the copy of the next entry.
    fn push<E: Copy + 'static>(&mut self, entry: E) {
        if !self.runs.last().is_some_and(|run| run.is::<Vec<E>>()) {
            self.runs.push(Box::new(Vec::<E>::new()));
        }
        let r = self.runs.len() - 1;
        let run = self.runs[r].downcast_mut::<Vec<E>>().expect("the last run holds this type");
        self.at.push((r as u32, run.len() as u32));
        run.push(entry);
    }

    /// Entry `k`'s copy, if it has one of type `E`.
    #[inline]
    fn get<E: 'static>(&self, k: usize) -> Option<&E> {
        let &(r, i) = self.at.get(k)?;
        self.runs[r as usize].downcast_ref::<Vec<E>>()?.get(i as usize)
    }

    #[inline]
    fn get_mut<E: 'static>(&mut self, k: usize) -> Option<&mut E> {
        let &(r, i) = self.at.get(k)?;
        self.runs[r as usize].downcast_mut::<Vec<E>>()?.get_mut(i as usize)
    }
}

/// Per-key streams (per field or per group) of one family of a build's
/// output, encoded as they grow. Appends go through a short log that is
/// distributed key by key when full: an append touches the log's tail,
/// not one of thousands of stream tails, and each stream grows by whole
/// runs.
#[derive(Debug)]
struct Streams<E> {
    /// Per key: its entries' wire bytes, and the end of its latest entry.
    keys: Vec<Vec<u8>>,
    prev: Vec<u32>,
    /// Appends not yet distributed, in order.
    log: Vec<(u32, E)>,
    /// Distribution scratch: per key its slots' end, and the log's
    /// items grouped by key.
    ends: Vec<u32>,
    grouped: Vec<E>,
}

impl<E: Entry + Default> Streams<E> {
    /// Appends the log holds before it is distributed.
    const LOG: usize = 4096;

    fn new(keys: usize) -> Streams<E> {
        Streams {
            keys: vec![Vec::new(); keys],
            prev: vec![0; keys],
            log: Vec::with_capacity(Self::LOG),
            ends: Vec::new(),
            grouped: Vec::new(),
        }
    }

    #[inline]
    fn push(&mut self, key: usize, item: E) {
        self.log.push((key as u32, item));
        if self.log.len() == Self::LOG {
            self.distribute();
        }
    }

    /// Encodes the log into the streams, keeping each key's order: a
    /// counting sort by key, then one run of appends per key.
    #[inline(never)]
    fn distribute(&mut self) {
        self.ends.clear();
        self.ends.resize(self.keys.len(), 0);
        for &(k, _) in &self.log {
            self.ends[k as usize] += 1;
        }
        let mut end = 0;
        for n in &mut self.ends {
            end += *n;
            *n = end - *n;
        }
        // `ends[k]` is key `k`'s first slot; placing its items moves it
        // to its last slot plus one.
        self.grouped.clear();
        self.grouped.resize(self.log.len(), E::default());
        for &(k, item) in &self.log {
            let slot = &mut self.ends[k as usize];
            self.grouped[*slot as usize] = item;
            *slot += 1;
        }
        let mut start = 0;
        for ((stream, prev), &end) in self.keys.iter_mut().zip(&mut self.prev).zip(&self.ends) {
            for &item in &self.grouped[start as usize..end as usize] {
                item.write(stream, *prev);
                *prev = item.end();
            }
            start = end;
        }
        self.log.clear();
    }

    /// The family the streams make, for a build that recorded cycles
    /// `0..=last`. Each stream is freed once copied, so the family's one
    /// buffer, which the registry keeps for the life of the process, is
    /// the only one left.
    fn finish(mut self, last: u32) -> Family<E> {
        self.distribute();
        let mut family = Family::new();
        family.bytes.reserve_exact(self.keys.iter().map(Vec::len).sum());
        family.starts.reserve_exact(self.keys.len());
        for stream in self.keys {
            family.bytes.extend_from_slice(&stream);
            family.close(last).expect("a build records canonical, well-formed streams");
        }
        family.skips.shrink_to_fit();
        family
    }
}

/// A machine's latest walk, kept in place: the build's golden visitor.
///
/// The first walk ([`Layout`]) lays out the tables: per field its value
/// and effective mask, per [`Mark`] (each [`StateVisitor::region`] and
/// [`StateVisitor::occupancy`] call) the index of the field it precedes
/// and the liveness it declares, a region being live, and per
/// [`StateVisitor::entry`] its [`Span`]. A field's occupancy group is
/// the number of marks at or before it, so the fields one occupancy
/// declaration governs share a group, and fields before the first mark
/// form group 0, which is dead. A field's effective mask is the last
/// [`StateVisitor::masked`] call before it that no `region` call
/// cancelled, clipped to the field's width. [`Tracker`] interprets the
/// tables.
///
/// Every later walk updates the tables in place and logs what changed.
/// A tracked capture keeps each entry's copy from its previous walk and
/// skips an entry equal to it: by the [`StateVisitor::entry`] contract
/// its fields, masks and in-entry marks are then those of that walk,
/// already in the tables. Scalars, queue pointers and the marks outside
/// entries are visited every walk (a one-field scalar is its own copy,
/// compared in place). Every walk must number fields and marks as the
/// first did, or it panics.
#[derive(Debug, Default)]
struct Capture {
    /// Skip entries equal to their copy.
    track: bool,
    /// Per field: the latest value and effective mask.
    values: Vec<u64>,
    masks: Vec<u64>,
    marks: Vec<Mark>,
    /// Per entry: its span, and (tracked) its copy at the latest walk.
    spans: Vec<Span>,
    copies: Copies,
    changed: Changes,
    /// The walk's cycle; its next field, mark and entry; and the mask
    /// declared for the next field (`0`: none).
    t: u32,
    field: usize,
    mark: usize,
    entry: usize,
    pending: u64,
}

/// One `region` or `occupancy` call: the index of the field after it
/// and the liveness it declares, packed so one compare tests both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mark(u64);

impl Mark {
    fn new(at: u32, live: bool) -> Mark {
        Mark(u64::from(at) << 1 | u64::from(live))
    }

    fn at(self) -> u32 {
        (self.0 >> 1) as u32
    }

    fn live(self) -> bool {
        self.0 & 1 == 1
    }
}

/// What one walk changed, in walk order. A layout walk logs the
/// changes from every group live and every mask `0`.
#[derive(Debug, Default)]
struct Changes {
    /// Fields whose value changed.
    values: Vec<u32>,
    /// Marks whose liveness changed.
    marks: Vec<u32>,
    /// Fields whose effective mask changed, with the mask before.
    masks: Vec<(u32, u64)>,
}

impl Capture {
    /// The layout walk of `machine`.
    fn of(machine: &mut impl FaultState, track: bool) -> Capture {
        let mut layout = Layout(Capture { track, ..Capture::default() });
        machine.visit_state(&mut layout);
        layout.0
    }

    /// Walks `machine` as its state at cycle `t`.
    fn walk(&mut self, machine: &mut impl FaultState, t: u32) {
        self.t = t;
        (self.field, self.mark, self.entry, self.pending) = (0, 0, 0, 0);
        let Changes { values, marks, masks } = &mut self.changed;
        values.clear();
        marks.clear();
        masks.clear();
        machine.visit_state(self);
        let n = self.values.len();
        if self.field > n {
            panic!("field count grew to {} at cycle {t}", n + 1);
        }
        assert_eq!(self.field, n, "field numbering drifted at cycle {t}");
        if let Some(m) = self.marks.get(self.mark) {
            self.mark_moved(m.at());
        }
    }

    /// Per field: its occupancy group.
    fn group_of(&self) -> Vec<u32> {
        let mut marks = self.marks.iter().peekable();
        let mut g = 0u32;
        (0..self.values.len())
            .map(|f| {
                while marks.next_if(|m| m.at() as usize <= f).is_some() {
                    g += 1;
                }
                g
            })
            .collect()
    }

    /// A mark declaring `live` before the next field.
    #[inline]
    fn mark(&mut self, live: bool) {
        let m = self.mark;
        self.mark += 1;
        let now = Mark::new(self.field as u32, live);
        if self.marks.get(m) != Some(&now) {
            self.mark_changed(m, now);
        }
    }

    /// Mark `m` is `now`, not what the latest walk logged: a liveness
    /// change, or a move.
    #[inline(never)]
    fn mark_changed(&mut self, m: usize, now: Mark) {
        match self.marks.get(m) {
            Some(was) if was.at() == now.at() => {
                self.marks[m] = now;
                self.changed.marks.push(m as u32);
            }
            Some(was) => self.mark_moved(was.at().min(now.at())),
            None => self.mark_moved(now.at()),
        }
    }

    /// A mark moved to or from the position before field `f`, so the
    /// fields from `f` on change groups; past the last field, no field
    /// does.
    fn mark_moved(&self, f: u32) {
        if (f as usize) < self.values.len() {
            drifted(f as usize, self.t, "occupancy group numbering drifted");
        }
    }

    /// Field `f` holds `value` under `mask`, not what the latest walk
    /// logged.
    #[inline(never)]
    fn field_changed(&mut self, f: usize, value: u64, mask: u64) {
        // A field past the layout is reported once the walk ends.
        let (Some(v), Some(m)) = (self.values.get_mut(f), self.masks.get_mut(f)) else { return };
        if *v != value {
            *v = value;
            self.changed.values.push(f as u32);
        }
        if *m != mask {
            self.changed.masks.push((f as u32, *m));
            *m = mask;
        }
    }

    /// Visits entry `k`, which changed (or is untracked), and keeps its
    /// copy.
    #[inline(never)]
    fn visit_entry<E: Copy + Eq + 'static>(
        &mut self,
        k: usize,
        end: (usize, usize),
        entry: &mut E,
        visit: impl FnOnce(&mut E, &mut Self),
    ) {
        visit(entry, self);
        self.no_pending_mask();
        if (self.field, self.mark) != end {
            panic!("field numbering drifted at cycle {}", self.t);
        }
        if let Some(copy) = self.copies.get_mut(k) {
            *copy = *entry;
        }
    }

    /// Entry `k` does not start where the layout put it.
    #[cold]
    #[inline(never)]
    fn entry_moved(&self, k: usize) -> ! {
        self.no_pending_mask();
        match self.spans.get(k) {
            Some(s) if s.field as usize == self.field => {
                drifted(self.field, self.t, "occupancy group numbering drifted")
            }
            _ => panic!("field numbering drifted at cycle {}", self.t),
        }
    }

    /// Panics if a mask is declared for the next field: at an entry
    /// boundary it would outlive a skipped entry or miss a skipped
    /// field.
    fn no_pending_mask(&self) {
        if self.pending != 0 {
            drifted(self.field, self.t, "a mask declaration crosses an entry boundary");
        }
    }
}

impl StateVisitor for Capture {
    #[inline]
    fn region(&mut self, _name: &'static str, _kind: StateKind) {
        // A region start cancels a mask declared for the next field.
        self.pending = 0;
        self.mark(true);
    }

    #[inline]
    fn word(&mut self, value: &mut u64, width: u32, _class: FieldClass) {
        let f = self.field;
        self.field += 1;
        let mut mask = 0;
        if self.pending != 0 {
            mask = std::mem::take(&mut self.pending) & width_mask(width);
        }
        if self.values.get(f) != Some(value) || self.masks.get(f) != Some(&mask) {
            self.field_changed(f, *value, mask);
        }
    }

    #[inline]
    fn occupancy(&mut self, live: bool) {
        self.mark(live);
    }

    fn wants_occupancy(&self) -> bool {
        true
    }

    #[inline]
    fn masked(&mut self, mask: u64) {
        self.pending = mask;
    }

    fn wants_masks(&self) -> bool {
        true
    }

    #[inline]
    fn entry<E: Copy + Eq + 'static>(
        &mut self,
        entry: &mut E,
        visit: impl FnOnce(&mut E, &mut Self),
    ) {
        let k = self.entry;
        self.entry += 1;
        let span = match self.spans.get(k) {
            Some(s)
                if (s.field as usize, s.mark as usize, self.pending)
                    == (self.field, self.mark, 0) =>
            {
                *s
            }
            _ => self.entry_moved(k),
        };
        let end = (self.field + span.fields as usize, self.mark + span.marks as usize);
        if self.track && self.copies.get::<E>(k) == Some(entry) {
            (self.field, self.mark) = end;
        } else {
            self.visit_entry(k, end, entry, visit);
        }
    }
}

/// The layout walk: lays out a [`Capture`]'s tables, logging every
/// dead group and every nonzero mask as a change.
struct Layout(Capture);

impl StateVisitor for Layout {
    fn region(&mut self, _name: &'static str, _kind: StateKind) {
        self.0.pending = 0;
        self.occupancy(true);
    }

    fn word(&mut self, value: &mut u64, width: u32, _class: FieldClass) {
        let c = &mut self.0;
        let mask = std::mem::take(&mut c.pending) & width_mask(width);
        if mask != 0 {
            c.changed.masks.push((c.values.len() as u32, 0));
        }
        c.values.push(*value);
        c.masks.push(mask);
    }

    fn occupancy(&mut self, live: bool) {
        let c = &mut self.0;
        if !live {
            c.changed.marks.push(c.marks.len() as u32);
        }
        c.marks.push(Mark::new(c.values.len() as u32, live));
    }

    fn wants_occupancy(&self) -> bool {
        true
    }

    fn masked(&mut self, mask: u64) {
        self.0.pending = mask;
    }

    fn wants_masks(&self) -> bool {
        true
    }

    fn entry<E: Copy + Eq + 'static>(
        &mut self,
        entry: &mut E,
        visit: impl FnOnce(&mut E, &mut Self),
    ) {
        let (field, mark) = (self.0.values.len(), self.0.marks.len());
        self.0.field = field;
        self.0.no_pending_mask();
        visit(entry, self);
        let c = &mut self.0;
        c.field = c.values.len();
        c.no_pending_mask();
        let [field, mark, fields, marks] =
            [field, mark, c.values.len() - field, c.marks.len() - mark].map(|n| n as u32);
        c.spans.push(Span { field, mark, fields, marks });
        if c.track {
            c.copies.push(*entry);
        }
    }
}

/// How a build replays the golden run.
#[derive(Debug, Clone, Copy)]
struct Replay {
    /// Skip entries equal to their copy from the previous walk. Off,
    /// every entry counts as changed: the reference the tests compare
    /// the tracked build with.
    track: bool,
    /// Cross-check the tracked walks against full ones every this many
    /// cycles.
    check_every: u32,
}

impl Replay {
    /// The build's replay: tracked, cross-checked every cycle in debug
    /// builds and every 1,024 cycles in release builds.
    const DEFAULT: Replay =
        Replay { track: true, check_every: if cfg!(debug_assertions) { 1 } else { 1024 } };
}

/// One field's bookkeeping, in one record so that a change to the field
/// touches one cache line.
#[derive(Debug, Clone, Copy)]
struct Field {
    /// What the shadow walk expects of the replica's field: golden's
    /// value, XOR `flip`.
    expect: u64,
    /// The width mask while the shadow replica holds the field flipped,
    /// else `0`.
    flip: u64,
    /// The cycle its open mask run (`cur.masks`) started.
    mask_start: u32,
    /// Its entry, or [`NO_ENTRY`].
    entry: u32,
    /// Its group is dead at the latest capture.
    dead: bool,
    /// Dead or masked at the latest capture, so a value change at the
    /// next one is a wholesale overwrite (a stamp).
    armed: bool,
    /// Dead but not flipped yet: the shadow walk must flip it.
    due: bool,
}

/// The build's bookkeeping. The first capture lays out the field table;
/// each later one logs what changed since its predecessor, so stamps,
/// mask runs, dead runs and the shadow walk's expectations move only
/// where the capture changed, and the shadow walk visits only entries
/// that changed or hold a changed expectation.
///
/// Every component issues a structurally fixed number of `region` and
/// `occupancy` calls per walk (occupancy is emitted per slot, not per
/// *live* slot), so every walk must number the groups as the first did;
/// [`Capture::walk`] asserts it does.
#[derive(Debug)]
struct Tracker {
    /// Cycle of the latest capture.
    t: u32,
    /// The golden machine's capture.
    cur: Capture,
    shape: Shape,
    replay: Replay,
    /// Per group: start of its open dead run.
    dead_since: Vec<Option<u32>>,
    fields: Vec<Field>,
    /// Per entry: a field of it changed its expectation since the
    /// shadow walk last visited it.
    pending: Vec<bool>,
    /// Per entry: the replica's copy after the latest shadow walk.
    shadow_copies: Copies,
    dead_runs: Streams<Run>,
    stamps: Streams<u32>,
    mask_runs: Streams<MaskRun>,
    writes: Streams<u32>,
}

impl Tracker {
    /// Lays out the field table from `machine`, whose fields `catalog`
    /// lists, and records it as its state at cycle 0.
    fn new(machine: &mut impl FaultState, catalog: &StateCatalog, replay: Replay) -> Tracker {
        let cur = Capture::of(machine, replay.track);
        let shape = Shape::of_capture(catalog, &cur);
        let nfields = shape.group_of.len();
        let ngroups = shape.ngroups;
        // Cycle 0 is diffed against unchanged values, live groups and
        // no masks: dead groups and masks open their runs at 0.
        let mut fields: Vec<Field> = (cur.values.iter())
            .map(|&expect| Field {
                expect,
                flip: 0,
                mask_start: 0,
                entry: NO_ENTRY,
                dead: false,
                armed: false,
                due: false,
            })
            .collect();
        for (k, s) in cur.spans.iter().enumerate() {
            for field in &mut fields[s.field as usize..(s.field + s.fields) as usize] {
                field.entry = k as u32;
            }
        }
        let mut tracker = Tracker {
            t: 0,
            replay,
            dead_since: vec![None; ngroups],
            fields,
            pending: vec![false; cur.spans.len()],
            shadow_copies: Copies::default(),
            dead_runs: Streams::new(ngroups),
            stamps: Streams::new(nfields),
            mask_runs: Streams::new(nfields),
            writes: Streams::new(nfields),
            cur,
            shape,
        };
        if ngroups > 0 {
            tracker.set_live(0, false);
        }
        tracker.diff();
        tracker
    }

    /// Captures `machine` as its state one cycle after the latest
    /// capture and folds in what changed.
    fn walk(&mut self, machine: &mut impl FaultState) {
        self.t += 1;
        self.cur.walk(machine, self.t);
        if self.t.is_multiple_of(self.replay.check_every) {
            self.check(machine);
        }
        self.diff();
    }

    /// Folds the changes the latest capture logged into the bookkeeping.
    fn diff(&mut self) {
        let t = self.t;
        let changed = std::mem::take(&mut self.cur.changed);
        // Value changes first: a stamp reads the previous capture's
        // armed state.
        for &f in &changed.values {
            let f = f as usize;
            let field = &mut self.fields[f];
            if field.armed {
                self.stamps.push(f, t);
            }
            field.expect = self.cur.values[f] ^ field.flip;
            if field.entry != NO_ENTRY {
                self.pending[field.entry as usize] = true;
            }
        }
        // Groups whose governing mark flipped liveness; later marks
        // govern no field.
        for &m in &changed.marks {
            let g = m as usize + 1;
            if g < self.shape.ngroups {
                self.set_live(g, self.cur.marks[m as usize].live());
            }
        }
        for &(f, was) in &changed.masks {
            self.set_mask(f as usize, was);
        }
        self.cur.changed = changed;
    }

    /// Group `g` turned live or dead at the latest capture. Groups with
    /// no fields get no dead runs.
    fn set_live(&mut self, g: usize, live: bool) {
        let nfields = self.fields.len();
        let lo = if g == 0 { 0 } else { self.cur.marks[g - 1].at() as usize };
        let hi = self.cur.marks.get(g).map_or(nfields, |m| nfields.min(m.at() as usize));
        if lo == hi {
            return;
        }
        let t = self.t;
        let fields = (self.fields[lo..hi].iter_mut()).zip(&self.cur.masks[lo..hi]);
        if live {
            let s = self.dead_since[g].take().expect("a dead group has an open dead run");
            self.dead_runs.push(g, (s, t));
            for (field, &mask) in fields {
                field.dead = false;
                field.armed = mask != 0;
            }
        } else {
            self.dead_since[g] = Some(t);
            for (field, _) in fields {
                field.dead = true;
                field.armed = true;
                // The shadow walk flips every dead field it holds
                // unflipped.
                if field.flip == 0 {
                    field.due = true;
                    if field.entry != NO_ENTRY {
                        self.pending[field.entry as usize] = true;
                    }
                }
            }
        }
    }

    /// Field `f`'s effective mask changed from `was` at the latest
    /// capture.
    fn set_mask(&mut self, f: usize, was: u64) {
        let t = self.t;
        let field = &mut self.fields[f];
        if was != 0 {
            self.mask_runs.push(f, (field.mask_start, t, was));
        }
        field.mask_start = t;
        field.armed = self.cur.masks[f] != 0 || field.dead;
    }

    /// Walks the shadow replica against the latest capture: detects
    /// writes (flipped fields converging back to golden), asserts the
    /// live trajectory is undisturbed, and flips every dead field it
    /// holds unflipped.
    fn shadow(&mut self, replica: &mut impl FaultState) {
        let mut walk = ShadowWalk {
            fields: &mut self.fields,
            idx: 0,
            spans: &self.cur.spans,
            pending: &mut self.pending,
            copies: &mut self.shadow_copies,
            entry: 0,
            track: self.replay.track,
            writes: &mut self.writes,
            t: self.t,
        };
        replica.visit_state(&mut walk);
        assert_eq!(
            walk.idx,
            self.fields.len(),
            "shadow walk and golden walk disagree on field count"
        );
        if self.t.is_multiple_of(self.replay.check_every) {
            replica.visit_state(&mut Settled { fields: &self.fields, idx: 0, t: self.t });
        }
    }

    /// Cross-checks the tracked capture against a full walk of
    /// `machine`: a change the tracked walk skipped panics with its
    /// field.
    #[cold]
    #[inline(never)]
    fn check(&self, machine: &mut impl FaultState) {
        let full = Capture::of(machine, false);
        let cur = &self.cur;
        let governing = self.shape.ngroups.saturating_sub(1);
        let missed = (0..cur.values.len())
            .find(|&f| (cur.values[f], cur.masks[f]) != (full.values[f], full.masks[f]))
            .or_else(|| {
                (0..governing)
                    .find(|&m| cur.marks[m] != full.marks[m])
                    .map(|m| cur.marks[m].at() as usize)
            });
        if let Some(f) = missed {
            drifted(f, self.t, "the tracked capture disagrees with a full one");
        }
    }

    /// Closes the runs still open at the latest capture and returns the
    /// map's field table and interval families. The closed ends are
    /// never consulted past a stamp (stamps stop at the latest capture
    /// too), so the clip to one past it cannot over-claim protection.
    fn finish(self) -> Families {
        let Tracker {
            t,
            cur,
            shape,
            dead_since,
            fields,
            mut dead_runs,
            stamps,
            mut mask_runs,
            writes,
            ..
        } = self;
        let end = t + 1;
        for (g, open) in dead_since.into_iter().enumerate() {
            if let Some(s) = open {
                dead_runs.push(g, (s, end));
            }
        }
        for (f, (field, &mask)) in fields.iter().zip(&cur.masks).enumerate() {
            if mask != 0 {
                mask_runs.push(f, (field.mask_start, end, mask));
            }
        }
        Families {
            shape,
            dead_runs: dead_runs.finish(t),
            stamps: stamps.finish(t),
            mask_runs: mask_runs.finish(t),
            writes: writes.finish(t),
        }
    }
}

/// A finished build's field table and interval families.
struct Families {
    shape: Shape,
    dead_runs: Family<Run>,
    stamps: Family<u32>,
    mask_runs: Family<MaskRun>,
    writes: Family<u32>,
}

/// The shadow replica's walk: fields matching their expectation with no
/// flip due pass at the cost of one compare; the rest take
/// [`ShadowWalk::slow`]. An entry equal to its copy after the previous
/// walk, none of whose expectations changed since (`pending`), is
/// skipped whole: a visit would change nothing, as it changed nothing
/// of it then.
struct ShadowWalk<'a> {
    fields: &'a mut [Field],
    idx: usize,
    /// Per entry: its span in the golden layout, whether it must be
    /// visited, and the replica's copy of it.
    spans: &'a [Span],
    pending: &'a mut [bool],
    copies: &'a mut Copies,
    entry: usize,
    track: bool,
    /// Per-field detected write cycles (output).
    writes: &'a mut Streams<u32>,
    t: u32,
}

impl StateVisitor for ShadowWalk<'_> {
    fn region(&mut self, _name: &'static str, _kind: StateKind) {}

    #[inline]
    fn word(&mut self, value: &mut u64, width: u32, _class: FieldClass) {
        let f = self.idx;
        self.idx += 1;
        match self.fields.get(f) {
            Some(field) if *value == field.expect && !field.due => {}
            _ => self.slow(f, value, width),
        }
    }

    #[inline]
    fn entry<E: Copy + Eq + 'static>(
        &mut self,
        entry: &mut E,
        visit: impl FnOnce(&mut E, &mut Self),
    ) {
        let k = self.entry;
        self.entry += 1;
        let fields = match self.spans.get(k) {
            Some(s) if s.field as usize == self.idx => s.fields as usize,
            _ => panic!("shadow walk and golden walk disagree on field count"),
        };
        if self.track && !self.pending[k] && self.copies.get::<E>(k) == Some(entry) {
            self.idx += fields;
        } else {
            self.visit_entry(k, entry, visit);
        }
    }
}

impl ShadowWalk<'_> {
    /// Visits entry `k`, which changed, holds a changed expectation or
    /// is untracked, and keeps the replica's copy of it.
    #[inline(never)]
    fn visit_entry<E: Copy + Eq + 'static>(
        &mut self,
        k: usize,
        entry: &mut E,
        visit: impl FnOnce(&mut E, &mut Self),
    ) {
        self.pending[k] = false;
        visit(entry, self);
        if !self.track {
            return;
        }
        match self.copies.get_mut(k) {
            Some(copy) => *copy = *entry,
            None => self.copies.push(*entry),
        }
    }

    /// The per-field shadow logic for fields off the fast path.
    ///
    /// A field flipped on a previous walk converging back to its golden
    /// value can only mean the machine wrote it (the live trajectories
    /// are identical, so golden's write lands in the shadow too — with
    /// the same value). A field that is *not* flipped must always equal
    /// golden: any mismatch means a dead flip steered live computation,
    /// which falsifies the occupancy axiom, so the walk fails loudly. A
    /// flipped field holding neither value stays flipped.
    #[inline(never)]
    fn slow(&mut self, f: usize, value: &mut u64, width: u32) {
        // A field past the layout is reported once the walk ends.
        let Some(field) = self.fields.get_mut(f) else { return };
        let golden = field.expect ^ field.flip;
        let mut flipped = field.flip != 0;
        if flipped {
            if *value == golden {
                self.writes.push(f, self.t);
                flipped = false;
            }
        } else if *value != golden {
            drifted(
                f,
                self.t,
                "shadow replica diverged from golden (a dead-field flip steered live computation)",
            );
        }
        if !flipped && field.dead {
            *value ^= width_mask(width);
            flipped = true;
        }
        field.flip = if flipped { width_mask(width) } else { 0 };
        field.expect = golden ^ field.flip;
        field.due = false;
    }
}

/// Checks that a shadow walk left nothing for a full walk to do: every
/// replica field matches its expectation with no flip due, or stays
/// flipped holding neither golden's value nor its flip.
struct Settled<'a> {
    fields: &'a [Field],
    idx: usize,
    t: u32,
}

impl StateVisitor for Settled<'_> {
    fn region(&mut self, _name: &'static str, _kind: StateKind) {}

    fn word(&mut self, value: &mut u64, _width: u32, _class: FieldClass) {
        let f = self.idx;
        self.idx += 1;
        let field = self.fields[f];
        let golden = field.expect ^ field.flip;
        let stays_flipped = field.flip != 0 && *value != golden;
        if field.due || (*value != field.expect && !stays_flipped) {
            drifted(f, self.t, "the tracked shadow walk skipped a field it had to visit");
        }
    }
}

/// The build's per-field consistency failure, kept out of line.
#[cold]
#[inline(never)]
fn drifted(f: usize, t: u32, what: &str) -> ! {
    panic!("{what} at field {f}, cycle {t}")
}

/// Total length of `runs` clipped to `[0, clip)`.
fn clipped_len(runs: &[(u32, u32)], clip: u32) -> u64 {
    runs.iter().map(|&(s, e)| u64::from(e.min(clip).saturating_sub(s))).sum()
}

/// Length of the intersection of `runs` (sorted, disjoint) with
/// `[lo, hi)`: the scan starts at the first run ending after `lo` and
/// stops at the first one starting at or after `hi`.
fn overlap_len(runs: &[(u32, u32)], lo: u32, hi: u32) -> u64 {
    let first = runs.partition_point(|&(_, e)| e <= lo);
    runs[first..]
        .iter()
        .take_while(|&&(s, _)| s < hi)
        .map(|&(s, e)| u64::from(e.min(hi) - s.max(lo)))
        .sum()
}

// ---------------------------------------------------------------------------
// The microarchitectural map.

/// Field-table shape of one machine: per-field global bit offset, width
/// and occupancy group, derived from one catalog + the first golden
/// capture. Build and load both derive it fresh (it is cheap and
/// config-pinned), so the on-disk format only carries the interval
/// arrays.
#[derive(Debug)]
struct Shape {
    field_starts: Vec<u64>,
    widths: Vec<u32>,
    group_of: Vec<u32>,
    ngroups: usize,
}

impl Shape {
    /// The shape of a fresh machine.
    fn of_pipeline(pipe: &mut Pipeline) -> Shape {
        Shape::of_capture(&pipe.catalog(), &Capture::of(pipe, false))
    }

    /// The shape a cycle-0 capture lays out. Only groups up to the last
    /// field's count: a trailing group owns no field.
    fn of_capture(catalog: &StateCatalog, capture: &Capture) -> Shape {
        assert_eq!(
            capture.values.len(),
            catalog.fields.len(),
            "golden walk and catalog disagree on field count"
        );
        let group_of = capture.group_of();
        Shape {
            field_starts: catalog.fields.iter().map(|&(s, _, _)| s).collect(),
            widths: catalog.fields.iter().map(|&(_, w, _)| w).collect(),
            ngroups: group_of.last().map_or(0, |&g| g as usize + 1),
            group_of,
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
///
/// The four interval families are held in their wire encoding, whose
/// varints are canonical, so two maps are equal exactly when their map
/// files are.
#[derive(Debug, PartialEq)]
pub struct UarchMaskMap {
    digest: u64,
    /// Last recorded walk cycle (build stops at halt or horizon).
    last: u32,
    field_starts: Vec<u64>,
    widths: Vec<u32>,
    group_of: Vec<u32>,
    /// Per occupancy group: half-open cycle ranges the group is dead.
    dead_runs: Family<Run>,
    /// Per field: cycles at which the field's value changed while the
    /// field was protected (dead or masked) on the *previous* cycle —
    /// the wholesale overwrites that destroy an injected corruption.
    stamps: Family<u32>,
    /// Per field: maximal half-open cycle ranges over which the field's
    /// declared static mask is constant and nonzero.
    mask_runs: Family<MaskRun>,
    /// Per field: cycles at which the field was **written**, detected
    /// by the build's shadow replica (golden replayed with every dead
    /// field flipped, re-flipped after each detected write). Unlike value-change stamps this sees *same-value*
    /// rewrites, and it is exact for the query that matters: for any
    /// cycle `c` inside a dead run, the first entry after `c` is the
    /// first write after `c` (the field stays flipped from `c` until
    /// that write, so the write cannot hide).
    writes: Family<u32>,
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
    /// `horizon` (or the run's end): per cycle, one tracked capture of
    /// the golden machine that visits only the entries that changed
    /// since the previous cycle, a fold of the changes it logged, and
    /// one walk of the shadow replica that visits only the entries that
    /// changed or hold a changed expectation. Full walks cross-check
    /// both every cycle in debug builds and every 1,024 cycles in
    /// release builds. `digest` is the caller's configuration digest,
    /// embedded so persisted maps can never be misapplied.
    pub fn build(
        uarch: &UarchConfig,
        program: &Program,
        horizon: u64,
        digest: u64,
    ) -> UarchMaskMap {
        UarchMaskMap::replay(uarch, program, horizon, digest, Replay::DEFAULT)
    }

    /// [`UarchMaskMap::build`], replayed as `replay` says.
    fn replay(
        uarch: &UarchConfig,
        program: &Program,
        horizon: u64,
        digest: u64,
        replay: Replay,
    ) -> UarchMaskMap {
        let mut pipe = Pipeline::new(uarch.clone(), program);
        let catalog = pipe.catalog();
        let mut golden = Tracker::new(&mut pipe, &catalog, replay);
        // The shadow replica: the same machine replayed in lockstep
        // with every dead field flipped, re-flipped after each
        // detected write. Convergence back to the golden value is the
        // write detector behind `writes`.
        let mut shadow = Pipeline::new(uarch.clone(), program);
        let mut retired_at: Vec<u32> = Vec::new();
        let mut inflight_at: Vec<u32> = Vec::new();
        loop {
            let t = golden.t;
            retired_at
                .push(u32::try_from(pipe.retired()).expect("retired fits interval coordinates"));
            inflight_at.push(u32::try_from(pipe.in_flight()).expect("in-flight count fits a u32"));
            golden.shadow(&mut shadow);
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
            golden.walk(&mut pipe);
        }
        let t = golden.t;
        let Families { shape, dead_runs, stamps, mask_runs, writes } = golden.finish();
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
        let mut drain_end = vec![u32::MAX; retired_at.len()];
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
            drain_end[tc] = floor;
        }
        UarchMaskMap {
            digest,
            last: t,
            field_starts: shape.field_starts,
            widths: shape.widths,
            group_of: shape.group_of,
            dead_runs,
            stamps,
            mask_runs,
            writes,
            drain_end,
        }
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

        if self.dead_runs.run_at(g, c).is_some() {
            // The shadow replica holds the field flipped from `c` until
            // its next write, so the first entry past `c` is exactly
            // the first write after injection.
            let v1 = self.writes.first_after(f, c);
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

        let next = self.stamps.first_after(f, c);
        // Masked at injection: protected walk over [c, s) — dead runs
        // of the bit's group and mask runs covering the bit — to the
        // overwriting stamp. Protection over the whole span means any
        // value change inside it would itself have been stamped, so
        // `s` really is the first overwrite.
        let s = next.filter(|&s| u64::from(s) <= deadline)?;
        let mut pos = c;
        while pos < s {
            if let Some((_, e)) = self.dead_runs.run_at(g, pos) {
                pos = e;
            } else if let Some((_, e, m)) = self.mask_runs.run_at(f, pos) {
                if (m >> rel) & 1 == 0 {
                    return None;
                }
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
        // The dead runs of the latest field's group, decoded once per
        // group: a group's fields are consecutive.
        let mut druns: Vec<Run> = Vec::new();
        let mut decoded = None;
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
                    let g = self.group_of[f] as usize;
                    if decoded != Some(g) {
                        druns.clear();
                        druns.extend(self.dead_runs.entries(g));
                        decoded = Some(g);
                    }
                    dead += u64::from(width) * clipped_len(&druns, span);
                    for (ms, me, m) in self.mask_runs.entries(f) {
                        let (ms, me) = (ms.min(span), me.min(span));
                        if ms < me {
                            let live_part = u64::from(me - ms) - overlap_len(&druns, ms, me);
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

    /// Writes the map file: the canonical rendering of the map's JSON
    /// form (kind, version, digest, `last`, the field and group counts,
    /// then one hex string per stream; the field table is re-derived
    /// from the machine at load time), streamed from the resident bytes
    /// with no JSON tree or whole-file string in between.
    fn write_json(&self, out: &mut impl Write) -> io::Result<()> {
        write!(
            out,
            "{{\"kind\":\"uarch-maskmap\",\"version\":{VERSION},\"digest\":{},\"last\":{},\"fields\":{},\"groups\":{}",
            self.digest,
            self.last,
            self.field_starts.len(),
            self.dead_runs.keys()
        )?;
        self.dead_runs.write_json(out, "dead")?;
        self.stamps.write_json(out, "stamps")?;
        self.mask_runs.write_json(out, "masks")?;
        self.writes.write_json(out, "writes")?;
        out.write_all(b",\"drain\":")?;
        write_hex(out, &encode_drain(&self.drain_end))?;
        out.write_all(b"}")
    }

    /// Decodes a persisted map, re-deriving the field table from a
    /// fresh machine. Returns `None` (caller rebuilds) on any mismatch:
    /// wrong kind/version/digest, a field table that no longer matches
    /// the simulator, or content no build can produce (non-canonical
    /// varints included).
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
        // Each family is checked as it decodes: nonempty runs ending by
        // `last + 1`, strictly increasing stamps and writes at or before
        // `last`, canonical varints throughout.
        let dead_runs = Family::decode(v, "dead", shape.ngroups, last)?;
        let stamps = Family::decode(v, "stamps", nfields, last)?;
        let mask_runs = Family::decode(v, "masks", nfields, last)?;
        let writes = Family::decode(v, "writes", nfields, last)?;
        let drain_end = decode_drain(v.get("drain").and_then(Json::as_str)?, last)?;
        Some(UarchMaskMap {
            digest,
            last,
            field_starts: shape.field_starts,
            widths: shape.widths,
            group_of: shape.group_of,
            dead_runs,
            stamps,
            mask_runs,
            writes,
            drain_end,
        })
    }
}

// ---------------------------------------------------------------------------
// The architectural access map.

/// Per-workload register access record over one golden architectural
/// run, the source of the AVF report's architectural rows.
///
/// Coordinates are retired-instruction indexes: "point `p`" means the
/// fault corrupts the result of instruction `p` (0-based), observed by
/// instructions `p+1` onward — exactly the arch campaign's fork
/// protocol.
#[derive(Debug)]
pub struct ArchMaskMap {
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
    pub fn build(program: &Program) -> ArchMaskMap {
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
        ArchMaskMap { run_len: cpu.retired(), accesses }
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
// The process-wide memoized map loader (the checkpoint-library pattern),
// with persistence next to the trial store.

/// Digest pinning everything that shapes a µarch map: workload program
/// (scale), simulator configuration, and recording horizon.
pub fn uarch_map_digest(scale: Scale, uarch: &UarchConfig, horizon: u64) -> u64 {
    config_digest(&format!("uarch-maskmap|{scale:?}|{uarch:?}|{horizon}"))
}

/// On-disk file name for a persisted map.
pub fn map_path(dir: &Path, domain: &str, workload: WorkloadId, digest: u64) -> PathBuf {
    dir.join(format!("maskmap-{domain}-{}-{digest:016x}.json", workload.name()))
}

/// Writes a map to `path` atomically enough for concurrent shard
/// writers: a buffered write to a process-unique temp name, then rename.
/// Every shard computes byte-identical content, so last-rename-wins is
/// harmless.
fn persist(path: &Path, map: &UarchMaskMap) {
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    let written = File::create(&tmp).and_then(|file| {
        let mut out = BufWriter::new(file);
        map.write_json(&mut out)?;
        out.flush()
    });
    if written.is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

fn read_json(path: &Path) -> Option<Json> {
    Json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// Cycle horizon a µarch map must cover for a campaign that samples
/// injection points over `[warmup, warmup + 4·window)`: each trial
/// observes at most one more window past its point, and residue proofs
/// need the `drain` margin past the latest window close. The campaign
/// drivers and the `restore-maskmap` CLI both key their maps at this
/// horizon, so maps one persists the other loads.
pub fn map_horizon(warmup: u64, window: u64, drain: u64) -> u64 {
    warmup + 5 * window + drain
}

/// How a registry request was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapSource {
    /// Already in the process-wide registry, or resolved by a
    /// concurrent caller while this one waited.
    Memo,
    /// Decoded from a persisted map file.
    Loaded,
    /// Built by replaying the golden run (and persisted, given a
    /// directory).
    Built,
}

/// One registry slot per `(workload, digest)`: the map lock is held
/// only to find or insert the slot, and the slot's `OnceLock` runs the
/// load-or-build exactly once while every other caller for the same
/// key waits on it. Distinct keys resolve concurrently.
#[expect(
    clippy::disallowed_types,
    reason = "keyed lookup only; the registry is never iterated for output"
)]
type Registry = std::collections::HashMap<(WorkloadId, u64), Arc<OnceLock<Arc<UarchMaskMap>>>>;

/// The process-wide µarch map registry: one [`UarchMaskMap`] per
/// `(workload, digest)`, built (or loaded from `map_dir`) on first use
/// and shared by every campaign in the process. Each key has its own
/// slot, so maps of distinct workloads build concurrently while
/// callers of the same key block on its one builder instead of
/// duplicating a multi-second replay.
pub fn uarch_map(
    workload: WorkloadId,
    scale: Scale,
    uarch: &UarchConfig,
    horizon: u64,
    map_dir: Option<&Path>,
) -> Arc<UarchMaskMap> {
    uarch_map_sourced(workload, scale, uarch, horizon, map_dir).0
}

/// [`uarch_map`], also reporting how the request was served.
pub fn uarch_map_sourced(
    workload: WorkloadId,
    scale: Scale,
    uarch: &UarchConfig,
    horizon: u64,
    map_dir: Option<&Path>,
) -> (Arc<UarchMaskMap>, MapSource) {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    let digest = uarch_map_digest(scale, uarch, horizon);
    let slot = Arc::clone(
        REGISTRY
            .get_or_init(Mutex::default)
            .lock()
            .expect("maskmap registry poisoned")
            .entry((workload, digest))
            .or_default(),
    );
    let mut source = MapSource::Memo;
    let map = slot.get_or_init(|| {
        let program = workload.build(scale);
        let path = map_dir.map(|d| map_path(d, "uarch", workload, digest));
        let loaded = (path.as_deref().and_then(read_json))
            .and_then(|v| UarchMaskMap::from_json(&v, uarch, &program, digest));
        if let Some(map) = loaded {
            source = MapSource::Loaded;
            return Arc::new(map);
        }
        let map = UarchMaskMap::build(uarch, &program, horizon, digest);
        if let Some(p) = &path {
            persist(p, &map);
        }
        source = MapSource::Built;
        Arc::new(map)
    });
    (Arc::clone(map), source)
}

/// Calls `resolve` on every workload over up to `threads` scoped
/// threads, each taking the next unclaimed workload, and returns the
/// results in `workloads` order. One thread resolves inline, serially.
/// A panicking resolve propagates once every thread has stopped.
pub fn resolve_maps<R: Send>(
    workloads: &[WorkloadId],
    threads: usize,
    resolve: impl Fn(WorkloadId) -> R + Sync,
) -> Vec<R> {
    let threads = threads.clamp(1, workloads.len().max(1));
    if threads == 1 {
        return workloads.iter().map(|&id| resolve(id)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = workloads.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                // Relaxed: the counter only hands out indices; results
                // travel through the slot mutexes.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&id) = workloads.get(i) else { break };
                let r = resolve(id);
                *slots[i].lock().expect("resolve slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("resolve slot poisoned").expect("every workload resolved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_isa::{layout, Asm};
    use restore_uarch::state::RangeRecorder;
    use restore_uarch::OccupancyRecorder;

    fn smoke_map(horizon: u64) -> (UarchMaskMap, Pipeline) {
        let program = WorkloadId::Mcfx.build(Scale::smoke());
        let uarch = UarchConfig::default();
        let map = UarchMaskMap::build(&uarch, &program, horizon, 0xDEAD);
        (map, Pipeline::new(uarch, &program))
    }

    /// The seven smoke-scale maps at horizon 1,500, built once, in
    /// [`WorkloadId::ALL`] order.
    fn smoke_maps() -> &'static [UarchMaskMap] {
        static MAPS: OnceLock<Vec<UarchMaskMap>> = OnceLock::new();
        MAPS.get_or_init(|| {
            (WorkloadId::ALL.iter())
                .map(|id| {
                    UarchMaskMap::build(
                        &UarchConfig::default(),
                        &id.build(Scale::smoke()),
                        1_500,
                        0x5EED,
                    )
                })
                .collect()
        })
    }

    /// The map file's text.
    fn render(map: &UarchMaskMap) -> String {
        let mut out = Vec::new();
        map.write_json(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    impl<E: Entry> Family<E> {
        /// Per key: its entries, decoded.
        fn decoded(&self) -> Vec<Vec<E>> {
            (0..self.keys()).map(|k| self.entries(k).collect()).collect()
        }
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
        let text = render(&map);
        let back = UarchMaskMap::from_json(&Json::parse(&text).unwrap(), &uarch, &program, 77)
            .expect("roundtrip decode");
        assert_eq!(map, back);
        assert!(
            UarchMaskMap::from_json(&Json::parse(&text).unwrap(), &uarch, &program, 78).is_none(),
            "digest mismatch must force a rebuild"
        );
    }

    /// Pins the access recording behind the AVF report's architectural
    /// rows exactly: a register is dead at instruction-point `p` when its
    /// next access after `p` is a write, or when it is never accessed
    /// again.
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
        let rows = ArchMaskMap::build(&a.finish().unwrap()).avf();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["arch-regfile", "arch-pc"]);
        let (regs, pc) = (&rows[0], &rows[1]);
        assert_eq!((regs.bits, regs.span, regs.masked_bitcycles), (31 * 64, 7, 0));
        // Dead instruction-points per register, of the 7 (a flip of the
        // result of instruction `p` is first seen by `p + 1`):
        // t0 — read at 2, written at 0 and 3: dead at 2..=6, 5 points;
        // t1 — written at 1, read at 2: dead at 0 and 2..=6, 6 points;
        // t2 — written at 2, read at 4: dead at 0..=1 and 4..=6, 5 points;
        // a0 — written at 4, read by `outq` at 5 (`halt` reads nothing):
        //      dead at 0..=3 and 5..=6, 6 points;
        // the other 27 registers are never accessed: 7 points each.
        assert_eq!(regs.dead_bitcycles, 64 * (5 + 6 + 5 + 6 + 27 * 7));
        assert_eq!((pc.bits, pc.span, pc.dead_bitcycles), (64, 7, 0), "the PC is always live");
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
        let arch_rows = ArchMaskMap::build(&WorkloadId::Mcfx.build(Scale::smoke())).avf();
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
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A device that declares a static mask on one field, conditioned on
    /// its flag (mirroring "role proves these bits unread" in the
    /// pipeline), with a dead slot after it.
    struct PartMasked {
        flag: bool,
        imm: u64,
        spare: u64,
    }

    impl FaultState for PartMasked {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            v.region("part-masked", StateKind::Latch);
            v.flag(&mut self.flag);
            if v.wants_masks() && !self.flag {
                v.masked(0xFF00);
            }
            v.word(&mut self.imm, 16, FieldClass::Data);
            v.occupancy(false);
            v.word(&mut self.spare, 8, FieldClass::Data);
        }
    }

    /// The catalog of a toy machine's fields.
    fn catalog_of(machine: &mut impl FaultState) -> StateCatalog {
        let mut ranges = RangeRecorder::new();
        machine.visit_state(&mut ranges);
        ranges.into_catalog()
    }

    /// Bookkeeping laid out on `machine` as its state at cycle 0.
    fn walked(machine: &mut impl FaultState) -> Tracker {
        let catalog = catalog_of(machine);
        Tracker::new(machine, &catalog, Replay::DEFAULT)
    }

    impl Tracker {
        /// Per field: dead at the latest capture.
        fn dead(&self) -> Vec<bool> {
            let dead: Vec<bool> = self.fields.iter().map(|f| f.dead).collect();
            // Group `g ≥ 1` follows mark `g - 1`; group 0 is dead.
            let live = |g: u32| g.checked_sub(1).is_some_and(|m| self.cur.marks[m as usize].live());
            let of_groups: Vec<bool> = self.shape.group_of.iter().map(|&g| !live(g)).collect();
            assert_eq!(dead, of_groups, "per-field deadness follows the group marks");
            dead
        }

        /// Per field: armed at the latest capture.
        fn armed(&self) -> Vec<bool> {
            self.fields.iter().map(|f| f.armed).collect()
        }

        /// Per field: the shadow replica's flip.
        fn flips(&self) -> Vec<u64> {
            self.fields.iter().map(|f| f.flip).collect()
        }
    }

    #[test]
    fn golden_walk_captures_masks_liveness_and_groups() {
        let walk = walked(&mut PartMasked { flag: false, imm: 0xABCD, spare: 0x55 });
        assert_eq!(walk.cur.values, vec![0, 0xABCD, 0x55]);
        assert_eq!(walk.cur.masks, vec![0, 0xFF00, 0], "one-shot mask hits only the next field");
        assert_eq!(walk.dead(), vec![false, false, true]);
        assert_eq!(walk.armed(), vec![false, true, true], "masked or dead fields arm their stamps");
        // flag and imm precede the occupancy call; spare follows it.
        assert_eq!(walk.shape.group_of[0], walk.shape.group_of[1]);
        assert_ne!(walk.shape.group_of[1], walk.shape.group_of[2]);
    }

    #[test]
    fn golden_walk_mask_is_conditional_on_machine_state() {
        let walk = walked(&mut PartMasked { flag: true, imm: 0xABCD, spare: 0 });
        assert_eq!(walk.cur.masks, vec![0, 0, 0], "flag set ⇒ no mask declared");
    }

    #[test]
    fn golden_walk_clips_masks_to_field_width() {
        struct Wide(u64);
        impl FaultState for Wide {
            fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
                v.region("wide", StateKind::Latch);
                v.masked(u64::MAX);
                v.word(&mut self.0, 12, FieldClass::Data);
            }
        }
        let walk = walked(&mut Wide(0));
        assert_eq!(walk.cur.masks[0], 0xFFF, "declared mask clipped to the field width");
    }

    /// Groups count `region` and `occupancy` calls: fields between two
    /// such calls share one, a group with no fields still takes a
    /// number but gets no dead runs, and a trailing group is not
    /// counted.
    #[test]
    fn golden_walk_numbers_groups_across_region_and_occupancy_calls() {
        struct Grouped([u64; 4]);
        impl FaultState for Grouped {
            fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
                let [a, b, c, d] = &mut self.0;
                v.region("first", StateKind::Latch); // group 1
                v.word(a, 8, FieldClass::Data);
                v.word(b, 8, FieldClass::Data);
                v.occupancy(false); // group 2, no fields
                v.occupancy(true); // group 3
                v.word(c, 8, FieldClass::Data);
                v.region("second", StateKind::Ram); // group 4
                v.word(d, 8, FieldClass::Data);
                v.occupancy(false); // group 5, trailing, no fields
            }
        }
        let mut machine = Grouped([1, 2, 3, 4]);
        let mut walk = walked(&mut machine);
        assert_eq!(walk.shape.group_of, vec![1, 1, 3, 4]);
        assert_eq!(
            walk.dead_runs.keys.len(),
            5,
            "groups 0..=4; the trailing empty one is not counted"
        );
        // Later walks must number identically, and do.
        machine.0 = [9, 9, 9, 9];
        walk.walk(&mut machine);
        assert_eq!(walk.cur.group_of(), vec![1, 1, 3, 4]);
        let dead_runs = walk.finish().dead_runs.decoded();
        assert!(dead_runs[2].is_empty(), "a dead group with no fields gets no dead run");
        assert!(dead_runs[0].is_empty(), "group 0 owns no field here");
    }

    #[test]
    #[should_panic(expected = "occupancy group numbering drifted at field 1, cycle 1")]
    fn golden_walk_rejects_drifting_group_numbering() {
        struct Drifting(bool, [u64; 2]);
        impl FaultState for Drifting {
            fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
                v.region("drifting", StateKind::Latch);
                v.word(&mut self.1[0], 8, FieldClass::Data);
                // Occupancy emitted per *live* slot: the defect the
                // group-stability assertion exists to catch.
                if self.0 {
                    v.occupancy(true);
                }
                v.word(&mut self.1[1], 8, FieldClass::Data);
            }
        }
        let mut machine = Drifting(false, [0, 0]);
        let mut walk = walked(&mut machine);
        machine.0 = true;
        walk.walk(&mut machine);
    }

    #[test]
    fn golden_walk_field_order_matches_catalog() {
        let walk = walked(&mut PartMasked { flag: false, imm: 0, spare: 0 });
        let cat = catalog_of(&mut PartMasked { flag: false, imm: 0, spare: 0 });
        assert_eq!(walk.cur.values.len(), cat.fields.len());
        assert_eq!(walk.shape.group_of.len(), cat.fields.len());
        // Global bit 9 lands in the masked imm field; its mask covers
        // relative bit 8.
        let f = cat.field_index_of(9).unwrap();
        let (start, _, _) = cat.fields[f];
        assert_ne!(walk.cur.masks[f] & (1 << (9 - start)), 0);
        // The real machine, too: the capture lays out exactly the
        // catalog.
        let program = WorkloadId::Mcfx.build(Scale::smoke());
        let mut pipe = Pipeline::new(UarchConfig::default(), &program);
        let walk = walked(&mut pipe);
        assert_eq!(walk.cur.values.len(), pipe.catalog().fields.len());
    }

    /// A machine whose field count follows its `extra` flag.
    struct Growing {
        extra: bool,
        words: [u64; 2],
    }

    impl FaultState for Growing {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            v.region("growing", StateKind::Latch);
            v.word(&mut self.words[0], 8, FieldClass::Data);
            if self.extra {
                v.word(&mut self.words[1], 8, FieldClass::Data);
            }
        }
    }

    #[test]
    #[should_panic(expected = "field count grew to 2 at cycle 1")]
    fn golden_walk_rejects_field_count_growth() {
        let mut machine = Growing { extra: false, words: [0, 0] };
        let mut walk = walked(&mut machine);
        machine.extra = true;
        walk.walk(&mut machine);
    }

    #[test]
    #[should_panic(expected = "field numbering drifted at cycle 1")]
    fn golden_walk_rejects_field_numbering_drift() {
        let mut machine = Growing { extra: true, words: [0, 0] };
        let mut walk = walked(&mut machine);
        machine.extra = false;
        walk.walk(&mut machine);
    }

    /// A mask declaration lapses at the next `region` call but survives
    /// an `occupancy` call, and of repeated declarations before one
    /// field the last counts, zero included.
    #[test]
    fn golden_walk_applies_mask_declarations_like_the_visitor_contract() {
        struct Declaring([u64; 4]);
        impl FaultState for Declaring {
            fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
                let [a, b, c, d] = &mut self.0;
                v.region("first", StateKind::Latch);
                v.masked(0xF0);
                v.region("second", StateKind::Latch);
                v.word(a, 8, FieldClass::Data);
                v.masked(0x0F);
                v.occupancy(true);
                v.word(b, 8, FieldClass::Data);
                v.masked(0x01);
                v.masked(0x02);
                v.word(c, 8, FieldClass::Data);
                v.masked(0x04);
                v.masked(0);
                v.word(d, 8, FieldClass::Data);
                v.masked(0x08);
            }
        }
        let walk = walked(&mut Declaring([0; 4]));
        assert_eq!(walk.cur.masks, vec![0, 0x0F, 0x02, 0]);
    }

    /// A live word, then a word whose liveness follows `live`.
    #[derive(Clone)]
    struct Slots {
        live: bool,
        words: [u64; 2],
    }

    impl FaultState for Slots {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            v.region("slots", StateKind::Ram);
            v.word(&mut self.words[0], 64, FieldClass::Data);
            v.occupancy(self.live);
            v.word(&mut self.words[1], 8, FieldClass::Data);
        }
    }

    /// A stamp is a value change at a field that was dead or masked at
    /// the *previous* capture: turning dead while changing is no stamp,
    /// turning live while changing is one.
    #[test]
    fn golden_walk_stamps_read_the_previous_armed_state() {
        let mut machine = Slots { live: true, words: [1, 0] };
        let mut walk = walked(&mut machine);
        for (t, live, word) in [(1, false, 2), (2, true, 3), (3, true, 4)] {
            machine.live = live;
            machine.words[1] = word;
            walk.walk(&mut machine);
            assert_eq!(walk.t, t);
        }
        let families = walk.finish();
        assert_eq!(families.stamps.decoded(), vec![vec![], vec![2]]);
        let g = families.shape.group_of[1] as usize;
        assert_eq!(families.dead_runs.decoded()[g], vec![(1, 2)]);
    }

    /// The shadow walk flips a dead field, records each write to it —
    /// a same-value rewrite too — and re-flips it while it stays dead;
    /// a flipped field holding neither golden's value nor its flip
    /// stays flipped.
    #[test]
    fn shadow_walk_flips_dead_fields_and_records_writes() {
        let mut golden = Slots { live: false, words: [1, 5] };
        let mut replica = golden.clone();
        let mut walk = walked(&mut golden);
        walk.shadow(&mut replica);
        assert_eq!(replica.words, [1, 5 ^ 0xFF], "the dead field is flipped at once");
        // Cycle 1: the machine writes 7; cycle 2: it rewrites 7.
        for _ in 1..=2 {
            golden.words[1] = 7;
            replica.words[1] = 7;
            walk.walk(&mut golden);
            walk.shadow(&mut replica);
            assert_eq!(replica.words, [1, 7 ^ 0xFF], "re-flipped while dead");
        }
        // Cycle 3: live again, and the replica holds neither 9 nor its
        // flip.
        golden.live = true;
        replica.live = true;
        golden.words[1] = 9;
        walk.walk(&mut golden);
        walk.shadow(&mut replica);
        assert_eq!(replica.words, [1, 7 ^ 0xFF], "left flipped");
        assert_eq!(walk.flips(), vec![0, 0xFF]);
        let families = walk.finish();
        assert_eq!(families.writes.decoded(), vec![vec![], vec![1, 2]]);
        assert_eq!(families.stamps.decoded(), vec![vec![], vec![1, 3]], "value changes only");
    }

    #[test]
    #[should_panic(
        expected = "shadow replica diverged from golden (a dead-field flip steered live computation) at field 0, cycle 0"
    )]
    fn shadow_walk_rejects_divergence() {
        let mut golden = Slots { live: true, words: [1, 5] };
        let mut replica = Slots { live: true, words: [2, 5] };
        let mut walk = walked(&mut golden);
        walk.shadow(&mut replica);
    }

    #[test]
    fn golden_walk_puts_fields_before_any_mark_in_dead_group_0() {
        struct Early([u64; 2]);
        impl FaultState for Early {
            fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
                v.word(&mut self.0[0], 8, FieldClass::Data);
                v.region("late", StateKind::Latch);
                v.word(&mut self.0[1], 8, FieldClass::Data);
            }
        }
        let walk = walked(&mut Early([0, 0]));
        assert_eq!(walk.shape.group_of, vec![0, 1]);
        assert_eq!(walk.dead(), vec![true, false]);
        assert_eq!(walk.finish().dead_runs.decoded()[0], vec![(0, 1)]);
    }

    /// A queue slot whose walk declares its occupancy and a mask from
    /// its own fields, as the pipeline's entries do.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    struct Slot {
        valid: bool,
        tag: u8,
        data: u64,
    }

    impl Slot {
        fn visit<V: StateVisitor>(&mut self, v: &mut V) {
            let live = self.valid;
            let Slot { valid, tag, data } = self;
            v.flag(valid);
            v.occupancy(live);
            if v.wants_masks() && !live {
                v.masked(0xF0);
            }
            v.word8(tag, 8, FieldClass::Data);
            v.word(data, 16, FieldClass::Data);
            v.occupancy(true);
        }
    }

    /// A head pointer, then four slots, each behind the occupancy mark
    /// the pointer decides. With `leak` set, a slot's walk also masks
    /// its data by the head pointer, which breaks the entry contract.
    #[derive(Debug, Clone)]
    struct Queue {
        head: u64,
        slots: [Slot; 4],
        leak: bool,
    }

    impl FaultState for Queue {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            let (head, leak) = (self.head, self.leak);
            let Queue { head: h, slots, leak: _ } = self;
            v.region("queue", StateKind::Ram);
            v.word(h, 2, FieldClass::Control);
            for (i, slot) in slots.iter_mut().enumerate() {
                v.occupancy(i as u64 != head);
                v.entry(slot, |slot, v| {
                    let Slot { valid, tag, data } = slot;
                    if !leak {
                        return slot.visit(v);
                    }
                    v.flag(valid);
                    v.word8(tag, 8, FieldClass::Data);
                    if v.wants_masks() {
                        v.masked(head);
                    }
                    v.word(data, 16, FieldClass::Data);
                });
            }
        }
    }

    /// Replays a scripted queue, golden and replica alike, under
    /// `replay`, and returns the families.
    fn replay_queue(replay: Replay, leak: bool) -> Families {
        let slot = |valid, tag, data| Slot { valid, tag, data };
        let mut golden = Queue { head: 0, slots: [Slot::default(); 4], leak };
        let mut replica = golden.clone();
        let catalog = catalog_of(&mut golden);
        let mut walk = Tracker::new(&mut golden, &catalog, replay);
        walk.shadow(&mut replica);
        let script: [(u64, usize, Slot); 6] = [
            (1, 1, slot(true, 7, 100)),
            (1, 2, slot(true, 8, 200)),
            (2, 1, slot(false, 7, 100)),
            (2, 1, slot(false, 7, 100)),
            (3, 0, slot(true, 9, 300)),
            (0, 3, slot(false, 1, 5)),
        ];
        for (head, i, s) in script {
            for machine in [&mut golden, &mut replica] {
                machine.head = head;
                // A write lands in the replica too, over its flips.
                machine.slots[i] = s;
            }
            walk.walk(&mut golden);
            walk.shadow(&mut replica);
        }
        walk.finish()
    }

    /// Skipping unchanged entries changes nothing: stamps, mask runs,
    /// dead runs and writes equal those of a replay that walks every
    /// entry, checked against full walks at every cycle.
    #[test]
    fn tracked_walks_equal_untracked_walks_on_a_queue() {
        let tracked = replay_queue(Replay { track: true, check_every: 1 }, false);
        let untracked = replay_queue(Replay { track: false, check_every: 1 }, false);
        assert_eq!(tracked.stamps, untracked.stamps);
        assert_eq!(tracked.mask_runs, untracked.mask_runs);
        assert_eq!(tracked.dead_runs, untracked.dead_runs);
        assert_eq!(tracked.writes, untracked.writes);
        assert!(!tracked.writes.bytes.is_empty(), "the script writes dead fields");
        assert!(!tracked.mask_runs.bytes.is_empty(), "the script declares masks");
    }

    /// An entry whose walk depends on a field outside it is skipped
    /// while that field changes; the cross-check names the field whose
    /// mask the tracked capture missed.
    #[test]
    #[should_panic(expected = "the tracked capture disagrees with a full one at field 3, cycle 1")]
    fn cross_check_catches_an_entry_that_reads_outside_itself() {
        replay_queue(Replay { track: true, check_every: 1 }, true);
    }

    #[test]
    #[should_panic(expected = "a mask declaration crosses an entry boundary at field 1, cycle 0")]
    fn mask_declared_across_an_entry_boundary_panics() {
        struct Straddling(u64, u64);
        impl FaultState for Straddling {
            fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
                let Straddling(a, b) = self;
                v.region("straddling", StateKind::Latch);
                v.word(a, 8, FieldClass::Data);
                v.masked(1);
                v.entry(b, |b, v| v.word(b, 8, FieldClass::Data));
            }
        }
        walked(&mut Straddling(0, 0));
    }

    proptest::proptest! {
        /// The early-stopping overlap scan equals the sum over every run
        /// on sorted, disjoint runs (adjacent ones included), for
        /// windows inside, across and beyond them.
        #[test]
        fn overlap_len_equals_the_naive_sum(
            gaps in proptest::collection::vec((0u32..6, 1u32..6), 0..24),
            lo in 0u32..150,
            len in 0u32..150,
        ) {
            let mut end = 0;
            let runs: Vec<(u32, u32)> = gaps
                .iter()
                .map(|&(gap, run)| {
                    let s = end + gap;
                    end = s + run;
                    (s, end)
                })
                .collect();
            let hi = lo + len;
            let naive: u64 =
                runs.iter().map(|&(s, e)| u64::from(e.min(hi).saturating_sub(s.max(lo)))).sum();
            proptest::prop_assert_eq!(overlap_len(&runs, lo, hi), naive, "{:?} over [{}, {})", runs, lo, hi);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4))]
        /// The tracked build equals one whose change test says "changed"
        /// for every entry, on every smoke workload, over queue
        /// capacities that include non-powers of two (so `CircQ` slot
        /// reduction and pointer wrap run both ways).
        #[test]
        fn tracked_build_equals_untracked_build(
            fetch_queue in 3usize..=33,
            sched_entries in 3usize..=33,
            rob_entries in 33usize..=70,
            ldq_entries in 2usize..=20,
            stq_entries in 2usize..=20,
            bob_entries in 2usize..=12,
            phys_regs in 72usize..=110,
        ) {
            let uarch = UarchConfig {
                fetch_queue,
                sched_entries,
                rob_entries,
                ldq_entries,
                stq_entries,
                bob_entries,
                phys_regs,
                ..UarchConfig::default()
            };
            for id in WorkloadId::ALL {
                let program = id.build(Scale::smoke());
                let build = |track| {
                    UarchMaskMap::replay(&uarch, &program, 300, 3, Replay { track, check_every: 1 })
                };
                proptest::prop_assert_eq!(build(true), build(false), "{:?} under {:?}", id, uarch);
            }
        }
    }

    /// gccx's campaign-scale map, cross-checked against full walks at
    /// every cycle, equals the build's. Release builds only: it replays
    /// 55,000 cycles.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "replays 55,000 cycles; run with --release")]
    fn campaign_scale_build_passes_the_cross_check_at_every_cycle() {
        let program = WorkloadId::Gccx.build(Scale::campaign());
        let uarch = UarchConfig::default();
        let every = Replay { track: true, check_every: 1 };
        let checked = UarchMaskMap::replay(&uarch, &program, 55_000, 4, every);
        assert_eq!(checked.last_cycle(), 55_000);
        assert_eq!(checked, UarchMaskMap::build(&uarch, &program, 55_000, 4));
    }

    /// The build's output, pinned by digest of its rendered JSON. The
    /// mcfx and gccx pins were recorded from the per-cycle snapshot
    /// build, the other five from the fused per-field walk that followed
    /// it, so they prove the capture-and-diff build byte-identical to
    /// both.
    #[test]
    fn build_renders_pinned_bytes() {
        let pins = [
            (WorkloadId::Mcfx, 595_215, 0x366b_526a_78c0_f32f_u64),
            (WorkloadId::Gccx, 544_317, 0x06ef_107f_76aa_c488),
            (WorkloadId::Bzip2x, 810_011, 0x70c7_5919_4ef0_2d94),
            (WorkloadId::Gapx, 822_481, 0x30dd_1e33_15e8_5832),
            (WorkloadId::Gzipx, 612_979, 0xc754_6b7c_c2d8_75cf),
            (WorkloadId::Parserx, 592_687, 0x6829_710f_363c_e46d),
            (WorkloadId::Vortexx, 640_641, 0x593e_86fc_7336_67d8),
        ];
        for (id, len, digest) in pins {
            let map = &smoke_maps()[WorkloadId::ALL.iter().position(|&w| w == id).unwrap()];
            let text = render(map);
            assert_eq!((text.len(), config_digest(&text)), (len, digest), "{id:?} map bytes moved");
        }
    }

    /// Every thread count resolves the seven maps a serial build does,
    /// and persists them byte for byte.
    #[test]
    fn concurrent_resolution_equals_serial_builds() {
        let (scale, uarch) = (Scale::smoke(), UarchConfig::default());
        for threads in [1, 2, 4] {
            // A horizon per thread count: each resolves fresh keys.
            let horizon = 200 + threads as u64;
            let digest = uarch_map_digest(scale, &uarch, horizon);
            let dir = std::env::temp_dir()
                .join(format!("restore-maskmap-resolve-{threads}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let resolved = resolve_maps(&WorkloadId::ALL, threads, |id| {
                uarch_map_sourced(id, scale, &uarch, horizon, Some(&dir))
            });
            for (&id, (map, source)) in WorkloadId::ALL.iter().zip(&resolved) {
                let serial = UarchMaskMap::build(&uarch, &id.build(scale), horizon, digest);
                assert_eq!(*source, MapSource::Built, "{id:?} at {threads} threads");
                assert_eq!(**map, serial, "{id:?} at {threads} threads");
                let persisted =
                    std::fs::read_to_string(map_path(&dir, "uarch", id, digest)).unwrap();
                assert_eq!(persisted, render(&serial), "{id:?} at {threads} threads");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Callers racing on one key block on a single builder.
    #[test]
    fn racing_callers_build_a_key_once() {
        let uarch = UarchConfig::default();
        let start = std::sync::Barrier::new(4);
        let resolved = resolve_maps(&[WorkloadId::Gccx; 4], 4, |id| {
            start.wait();
            uarch_map_sourced(id, Scale::smoke(), &uarch, 77, None)
        });
        let built = resolved.iter().filter(|(_, s)| *s == MapSource::Built).count();
        assert_eq!(built, 1, "{:?}", resolved.iter().map(|(_, s)| s).collect::<Vec<_>>());
        assert!(resolved.iter().all(|(m, _)| Arc::ptr_eq(m, &resolved[0].0)));
        let (_, again) = uarch_map_sourced(WorkloadId::Gccx, Scale::smoke(), &uarch, 77, None);
        assert_eq!(again, MapSource::Memo);
    }

    /// The hex text of one stream of `entries`.
    fn hex_of<E: Entry>(entries: &[E]) -> String {
        let mut bytes = Vec::new();
        let mut prev = 0;
        for &e in entries {
            e.write(&mut bytes, prev);
            prev = e.end();
        }
        hex(&bytes)
    }

    /// `text` decoded as one stream of a family over cycles `0..=last`.
    fn stream_of<E: Entry>(text: &str, last: u32) -> Option<Vec<E>> {
        let mut family = Family::<E>::new();
        unhex_into(text, &mut family.bytes)?;
        family.close(last)?;
        Some(family.entries(0).collect())
    }

    #[test]
    fn varint_wire_roundtrips() {
        let pairs = vec![(3u32, 9u32), (9, 10), (500, 100_000)];
        assert_eq!(stream_of::<Run>(&hex_of(&pairs), 100_000).unwrap(), pairs);
        let stamps = vec![1u32, 2, 128, 70_000];
        assert_eq!(stream_of::<u32>(&hex_of(&stamps), 70_000).unwrap(), stamps);
        let masks = vec![(0u32, 5u32, u64::MAX), (5, 6, 0xFF00)];
        assert_eq!(stream_of::<MaskRun>(&hex_of(&masks), 5).unwrap(), masks);
        assert_eq!(stream_of::<Run>("", 0).unwrap(), vec![]);
        assert!(stream_of::<Run>("zz", 9).is_none());
        assert!(stream_of::<u32>("8f", 9).is_none(), "truncated varint must fail");
        // Each value has one encoding: the shortest.
        let read = |bytes: &[u8]| VarReader { bytes, pos: 0 }.read();
        assert_eq!(read(&[0x00]), Some(0));
        assert_eq!(read(&[0x80, 0x01]), Some(128));
        assert_eq!(
            read(&[0xff; 9].iter().chain(&[0x01]).copied().collect::<Vec<_>>()),
            Some(u64::MAX)
        );
        assert_eq!(read(&[0x80, 0x00]), None, "a padded zero decoded");
        assert_eq!(read(&[0x81, 0x80, 0x00]), None, "a padded one decoded");
        let tenth = [0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        assert_eq!(read(&tenth), None, "a tenth byte past bit 63 decoded");
        assert_eq!(read(&[0x80; 10]), None, "an eleventh byte was read");
    }

    /// Streams long enough to carry skip marks, at the marks' edges:
    /// every entry is found from every cycle around it.
    #[test]
    fn skip_marks_resume_decoding_exactly() {
        for n in [SKIP - 1, SKIP, SKIP + 1, 3 * SKIP, 3 * SKIP + 7] {
            let stamps: Vec<u32> = (0..n).map(|i| 3 * i + i % 2).collect();
            let runs: Vec<Run> = stamps.iter().map(|&c| (2 * c, 2 * c + 1 + c % 3)).collect();
            let last = 8 * n;
            let mut cycles = Family::<u32>::new();
            let mut dead = Family::<Run>::new();
            unhex_into(&hex_of(&stamps), &mut cycles.bytes).unwrap();
            unhex_into(&hex_of(&runs), &mut dead.bytes).unwrap();
            cycles.close(last).unwrap();
            dead.close(last).unwrap();
            assert_eq!(cycles.skips.len() as u32, (n - 1) / SKIP);
            for c in 0..=last {
                let first = stamps.iter().copied().find(|&s| s > c);
                assert_eq!(cycles.first_after(0, c), first, "{n} stamps, cycle {c}");
                let run = runs.iter().copied().find(|&(s, e)| s <= c && c < e);
                assert_eq!(dead.run_at(0, c), run, "{n} runs, cycle {c}");
            }
        }
    }

    /// The query [`UarchMaskMap::proves`] replaced: binary searches of
    /// per-key `Vec`s, decoded from the map's own bytes.
    struct Reference<'m> {
        map: &'m UarchMaskMap,
        dead_runs: Vec<Vec<Run>>,
        stamps: Vec<Vec<u32>>,
        mask_runs: Vec<Vec<MaskRun>>,
        writes: Vec<Vec<u32>>,
    }

    /// End of the run in `runs` (sorted, disjoint, half-open) containing
    /// `pos`, if any.
    fn run_end(runs: &[Run], pos: u32) -> Option<u32> {
        let i = runs.partition_point(|&(s, _)| s <= pos).checked_sub(1)?;
        let (_, e) = runs[i];
        (pos < e).then_some(e)
    }

    /// End of the mask run containing `pos` whose mask covers `rel_bit`.
    fn mask_run_end(runs: &[MaskRun], rel_bit: u32, pos: u32) -> Option<u32> {
        let i = runs.partition_point(|&(s, _, _)| s <= pos).checked_sub(1)?;
        let (_, e, m) = runs[i];
        (pos < e && (m >> rel_bit) & 1 == 1).then_some(e)
    }

    impl Reference<'_> {
        fn of(map: &UarchMaskMap) -> Reference<'_> {
            Reference {
                map,
                dead_runs: map.dead_runs.decoded(),
                stamps: map.stamps.decoded(),
                mask_runs: map.mask_runs.decoded(),
                writes: map.writes.decoded(),
            }
        }

        fn proves(&self, bit: u64, cycle: u64, deadline: u64) -> Option<MapPrune> {
            let map = self.map;
            let f = map.field_of(bit)?;
            let rel = u32::try_from(bit - map.field_starts[f]).ok()?;
            let g = map.group_of[f] as usize;
            let c = u32::try_from(cycle).ok()?;
            if run_end(&self.dead_runs[g], c).is_some() {
                let ws = &self.writes[f];
                let v1 = ws.get(ws.partition_point(|&w| u64::from(w) <= cycle)).copied();
                if v1.is_some_and(|w| u64::from(w) <= deadline) {
                    return Some(MapPrune { dead_at_injection: true, written: true });
                }
                let hash_end = u64::from(*map.drain_end.get(usize::try_from(deadline).ok()?)?);
                if hash_end > u64::from(map.last) {
                    return None;
                }
                let clean = v1.is_none_or(|w| u64::from(w) > hash_end);
                return clean.then_some(MapPrune { dead_at_injection: true, written: false });
            }
            let stamps = &self.stamps[f];
            let next = stamps.get(stamps.partition_point(|&s| u64::from(s) <= cycle)).copied();
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

        /// A query from random draws, biased to the map's edges: the
        /// injection cycle lands within two cycles of cycle 0, of
        /// `last`, of a dead-run, stamp, write or mask-run boundary of
        /// the bit's field, or anywhere up to two past `last`; the
        /// deadline sits a few cycles after it, near one of the field's
        /// stamps or writes, past `last`, or anywhere in the recording.
        fn query(&self, [field, rel, anchor, pick, nudge, until, span]: [u64; 7]) -> [u64; 3] {
            let map = self.map;
            let last = u64::from(map.last);
            let pick_in = |cycles: &[u32]| {
                (!cycles.is_empty()).then(|| u64::from(cycles[pick as usize % cycles.len()]))
            };
            let edges = |runs: &mut dyn Iterator<Item = (u32, u32)>| -> Vec<u32> {
                runs.flat_map(|(s, e)| [s, e]).collect()
            };
            // Fields whose stream of the anchor's kind has entries, so
            // the anchor has edges to land near.
            let nfields = map.field_starts.len();
            let candidates: Vec<usize> = (0..nfields)
                .filter(|&f| match anchor % 7 {
                    2 => !self.dead_runs[map.group_of[f] as usize].is_empty(),
                    3 => !self.stamps[f].is_empty(),
                    4 => !self.writes[f].is_empty(),
                    5 => !self.mask_runs[f].is_empty(),
                    _ => true,
                })
                .collect();
            let f = candidates[field as usize % candidates.len()];
            let bit = map.field_starts[f] + rel % u64::from(map.widths[f]);
            let g = map.group_of[f] as usize;
            let anchor_at = match anchor % 7 {
                0 => Some(0),
                1 => Some(last),
                2 => pick_in(&edges(&mut self.dead_runs[g].iter().copied())),
                3 => pick_in(&self.stamps[f]),
                4 => pick_in(&self.writes[f]),
                5 => pick_in(&edges(&mut self.mask_runs[f].iter().map(|&(s, e, _)| (s, e)))),
                _ => None,
            };
            let cycle = match anchor_at {
                Some(at) => (at + nudge % 5).saturating_sub(2),
                None => pick % (last + 3),
            };
            let near = |cycles: &[u32]| {
                let after: Vec<u32> =
                    cycles.iter().copied().filter(|&w| u64::from(w) >= cycle).collect();
                pick_in(&after).map(|at| (at + span % 5).saturating_sub(2).max(cycle))
            };
            let deadline = match until % 5 {
                0 => Some(cycle + span % 4),
                1 => near(&self.writes[f]),
                2 => near(&self.stamps[f]),
                3 => Some(last + 1 + span % 64),
                _ => None,
            }
            .unwrap_or(cycle + span % (last + 1));
            [bit, cycle, deadline]
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]
        /// The compact query equals the `Vec`-family one it replaced, on
        /// the seven smoke maps, at queries biased to their edges.
        #[test]
        fn compact_proves_equals_the_vec_reference(
            w in 0usize..7,
            draws in proptest::collection::vec(proptest::prelude::any::<u64>(), 7 * 400),
        ) {
            let map = &smoke_maps()[w];
            proptest::prop_assert!(!map.writes.skips.is_empty(), "no stream reaches a skip mark");
            let reference = Reference::of(map);
            for &draw in draws.as_chunks::<7>().0 {
                let [bit, cycle, deadline] = reference.query(draw);
                proptest::prop_assert_eq!(
                    map.proves(bit, cycle, deadline),
                    reference.proves(bit, cycle, deadline),
                    "{:?}: bit {}, cycle {}, deadline {}", WorkloadId::ALL[w], bit, cycle, deadline
                );
            }
        }
    }

    /// `json` with `key` (entry `index` of it, for the per-field and
    /// per-group arrays) replaced by `text`.
    fn with_entry(json: &Json, key: &str, index: Option<usize>, text: &str) -> Json {
        let Json::Obj(mut pairs) = json.clone() else { panic!("a map renders as an object") };
        let (_, slot) = pairs.iter_mut().find(|(k, _)| k == key).expect("the map has the key");
        match (slot, index) {
            (Json::Arr(items), Some(i)) => items[i] = Json::Str(text.to_owned()),
            (slot, None) => *slot = Json::Str(text.to_owned()),
            (_, Some(_)) => panic!("{key} is not an array"),
        }
        Json::Obj(pairs)
    }

    /// `text` with its first varint spelled two non-canonical ways that
    /// decode to the same value if canonical form is not enforced:
    /// padded by a zero last byte, and padded to ten bytes whose tenth
    /// sets a bit past bit 63.
    fn non_canonical(text: &str) -> [String; 2] {
        let mut bytes = Vec::new();
        unhex_into(text, &mut bytes).unwrap();
        let mut r = VarReader { bytes: &bytes, pos: 0 };
        let mut canonical = Vec::new();
        push_varint(&mut canonical, r.read().unwrap());
        let rest = &bytes[r.pos..];
        let continued = |n: usize| -> Vec<u8> {
            canonical.iter().map(|b| b | 0x80).chain(std::iter::repeat(0x80)).take(n).collect()
        };
        let padded = [continued(canonical.len()), vec![0x00], rest.to_vec()].concat();
        let tenth = [continued(9), vec![0x02], rest.to_vec()].concat();
        [padded, tenth].map(|b| hex(&b))
    }

    /// `bytes` as lowercase hex digits.
    fn hex(bytes: &[u8]) -> String {
        let mut out = Vec::new();
        write_hex(&mut out, bytes).unwrap();
        String::from_utf8(out).unwrap().trim_matches('"').to_owned()
    }

    /// A crafted map file is rejected, so the caller rebuilds, never
    /// panics the decoder or passes it intervals no build produces or
    /// bytes a build does not write.
    #[test]
    fn from_json_rejects_hostile_content() {
        let program = WorkloadId::Mcfx.build(Scale::smoke());
        let uarch = UarchConfig::default();
        let map = UarchMaskMap::build(&uarch, &program, 60, 9);
        let good = Json::parse(&render(&map)).unwrap();
        assert!(UarchMaskMap::from_json(&good, &uarch, &program, 9).is_some());
        let last = map.last;
        // 2^64 - 1 as one varint: added to anything nonzero, it overflows.
        let huge = "ffffffffffffffffff01";
        // u32::MAX, then one more: a cycle past u32::MAX.
        let past_u32 = format!("{}01", hex_of(&[u32::MAX]));
        let drain_past_last = vec![last + 1; map.drain_end.len()];
        let hostile = [
            ("dead", Some(1), format!("01{huge}"), "a run end past u64::MAX"),
            ("masks", Some(0), format!("01{huge}01"), "a mask run end past u64::MAX"),
            ("stamps", Some(0), format!("01{huge}"), "a stamp past u64::MAX"),
            ("writes", Some(0), format!("01{huge}"), "a write past u64::MAX"),
            ("drain", None, format!("01{huge}"), "a drain entry past u64::MAX"),
            ("dead", Some(1), past_u32.clone(), "a dead run end past u32::MAX"),
            ("masks", Some(0), format!("{past_u32}01"), "a mask run end past u32::MAX"),
            ("stamps", Some(0), past_u32.clone(), "a stamp past u32::MAX"),
            ("writes", Some(0), past_u32.clone(), "a write past u32::MAX"),
            ("drain", None, past_u32, "a drain entry past u32::MAX"),
            ("dead", Some(1), hex_of(&[(5, 5)]), "a zero-length dead run"),
            ("masks", Some(0), hex_of(&[(5, 5, 1)]), "a zero-length mask run"),
            ("stamps", Some(0), hex_of(&[5, 5]), "a repeated stamp"),
            ("writes", Some(0), hex_of(&[5, 5]), "a repeated write"),
            ("dead", Some(1), hex_of(&[(0, last + 2)]), "a dead run past last + 1"),
            ("masks", Some(0), hex_of(&[(0, last + 2, 1)]), "a mask run past last + 1"),
            ("stamps", Some(0), hex_of(&[last + 1]), "a stamp past last"),
            ("writes", Some(0), hex_of(&[last + 1]), "a write past last"),
            ("drain", None, hex_of(&drain_past_last), "a drain entry past last"),
        ];
        // Damaged text, in every family: a varint cut off after a
        // continuation byte, an odd-length hex string, a non-hex digit
        // (`+` included: `from_str_radix` would take `+1` for 1), and
        // the two non-canonical spellings of a varint.
        let drain = hex_of(&map.drain_end);
        let whole = [
            ("dead", Some(1), "0102"),
            ("masks", Some(0), "010201"),
            ("stamps", Some(0), "01"),
            ("writes", Some(0), "01"),
            ("drain", None, &drain[..]),
        ];
        let damaged = whole.iter().flat_map(|&(key, index, text)| {
            let [padded, tenth] = non_canonical(text);
            [
                (key, index, format!("{text}85"), "a varint cut off after a continuation byte"),
                (key, index, format!("{text}0"), "an odd-length hex string"),
                (key, index, format!("{text}0g"), "a non-hex digit"),
                (key, index, format!("+1{text}"), "a sign where a hex digit belongs"),
                (key, index, padded, "a varint padded with a zero byte"),
                (key, index, tenth, "a tenth varint byte past bit 63"),
            ]
        });
        let hostile = hostile.into_iter().chain(damaged);
        for (key, index, text, what) in hostile {
            let v = with_entry(&good, key, index, &text);
            assert!(
                UarchMaskMap::from_json(&v, &uarch, &program, 9).is_none(),
                "{key}: {what} decoded"
            );
        }
        // The undamaged texts decode, so each rejection above is the
        // damage's.
        for (key, index, text) in whole {
            let v = with_entry(&good, key, index, text);
            assert!(UarchMaskMap::from_json(&v, &uarch, &program, 9).is_some(), "{key}: {text}");
        }
    }
}
