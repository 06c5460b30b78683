//! # restore-snapshot
//!
//! Golden checkpoint library: full machine snapshots of a fault-free run
//! captured at stride boundaries, with fingerprint-verified restore.
//!
//! ReStore's own detection mechanism is checkpoint/rollback (§2.1), and
//! the reproduction's campaigns have the mirror-image need: every
//! injection point wants the golden machine *at* its sweep coordinate.
//! This crate owns one *frontier* machine per golden run that only ever
//! walks forward, and records clones of it every `stride` coordinates —
//! cheap, because the architectural [`restore_arch::Memory`] is
//! copy-on-write, so a snapshot costs one page table plus `Arc` bumps,
//! not an image copy. A request past the frontier walks the frontier to
//! it and hands out a clone of the frontier itself, so a first sweep
//! through sorted points costs exactly one serial golden walk. A request
//! at or behind the frontier clones the nearest snapshot at-or-before
//! it, and the consumer finishes the residual sweep (< `stride`
//! coordinates), so revisiting a point costs O(stride) however deep
//! into the run it lies.
//!
//! Restore is *proved*, not assumed: every snapshot records the
//! machine's full-state fingerprint at capture, every snapshot serve
//! `debug_assert`s that the clone reproduces it bit-for-bit, and the
//! campaigns' golden vectors (`crates/inject/tests/golden_vectors.rs`)
//! pin trial records that predate the library.
//!
//! Libraries are memoized process-wide by [`LibraryKey`] — (seeding
//! domain, workload, config digest, stride) — so repeated campaigns
//! over the same workload start from warm checkpoints instead of
//! re-simulating the golden prefix. [`library`] hands out a shared
//! handle; callers lock it for each [`GoldenCheckpointLibrary::materialize`]
//! (a campaign locks it inside each claim of its unit iterator), so the
//! lock is never held while a unit runs.
//!
//! # Examples
//!
//! ```
//! use restore_arch::Cpu;
//! use restore_snapshot::{GoldenCheckpointLibrary, Served, SnapshotMachine};
//! use restore_workloads::{Scale, WorkloadId};
//!
//! let program = WorkloadId::Mcfx.build(Scale::smoke());
//! let mut lib = GoldenCheckpointLibrary::new(Cpu::new(&program), 500);
//! // The first request walks the frontier there and clones it.
//! let m = lib.materialize(1_234).expect("mcfx runs past 1234 instructions");
//! assert_eq!((m.base_coord, m.served), (1_234, Served::Frontier));
//! // A request behind the frontier clones the snapshot at 1000; the
//! // consumer finishes the residual sweep.
//! let m = lib.materialize(1_100).expect("still live");
//! assert_eq!(m.base_coord, 1_000);
//! let mut cpu = m.machine;
//! assert!(cpu.step_to(1_100));
//! assert_eq!(cpu.retired(), 1_100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use restore_arch::Cpu;
use restore_uarch::{Pipeline, Stop};
use std::any::Any;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A machine whose golden run can be checkpointed: it advances along a
/// monotone sweep coordinate (pipeline cycles, retired instructions),
/// clones into an independent replica, and digests its complete state
/// into a fingerprint.
///
/// The library's correctness argument leans on two contracts:
///
/// * **determinism** — two clones at the same coordinate evolve
///   identically, so a materialized machine is indistinguishable from a
///   serially swept one;
/// * **fingerprint completeness** — equal fingerprints mean equal full
///   machine state (the same property the campaigns' reconvergence
///   cutoff relies on).
pub trait SnapshotMachine: Clone {
    /// Current sweep coordinate (monotone non-decreasing under
    /// [`SnapshotMachine::step_to`]).
    fn coord(&self) -> u64;

    /// Advances to `coord`, stopping early if the machine halts.
    /// Returns `true` iff the machine is still live *at* `coord` —
    /// exactly the condition for a campaign to claim a unit there.
    fn step_to(&mut self, coord: u64) -> bool;

    /// Full-machine state digest (`&mut` only to refresh internal
    /// digest caches; the architectural state is untouched).
    fn fingerprint(&mut self) -> u64;
}

impl SnapshotMachine for Cpu {
    fn coord(&self) -> u64 {
        self.retired()
    }

    fn step_to(&mut self, coord: u64) -> bool {
        while self.retired() < coord && !self.is_halted() {
            self.step().expect("golden machines never fault");
        }
        !self.is_halted()
    }

    fn fingerprint(&mut self) -> u64 {
        Cpu::fingerprint(self)
    }
}

impl SnapshotMachine for Pipeline {
    fn coord(&self) -> u64 {
        self.cycles()
    }

    fn step_to(&mut self, coord: u64) -> bool {
        while self.cycles() < coord && self.status() == Stop::Running {
            self.cycle();
        }
        self.status() == Stop::Running
    }

    fn fingerprint(&mut self) -> u64 {
        Pipeline::fingerprint(self)
    }
}

/// One captured snapshot: the machine clone plus its capture proof —
/// the fingerprint recorded at capture, which every materialization
/// must reproduce.
#[derive(Debug, Clone)]
struct Snapshot<M> {
    /// Sweep coordinate the snapshot was captured at.
    coord: u64,
    /// Full-machine fingerprint recorded at capture.
    fingerprint: u64,
    machine: M,
}

/// Where a [`Materialized`] machine was cloned from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// The frontier, which this request walked forward to the requested
    /// coordinate: the machine is the golden run itself, not a restore.
    Frontier,
    /// The snapshot at `index` in capture order, whose capture
    /// fingerprint was `fingerprint`. Comparing `index` against
    /// [`GoldenCheckpointLibrary::len`] taken earlier distinguishes warm
    /// (pre-existing) from cold (freshly captured) serves.
    Snapshot {
        /// Index of the serving snapshot in capture order.
        index: usize,
        /// Fingerprint recorded when the snapshot was captured, for
        /// release-mode restore verification by callers that want it.
        fingerprint: u64,
    },
}

/// A machine materialized from the library: the frontier walked to the
/// requested coordinate, or the nearest snapshot at-or-before it. The
/// consumer owes the residual `step_to(requested)` — nothing for a
/// frontier serve, at most one stride of work for a snapshot serve.
#[derive(Debug)]
pub struct Materialized<M> {
    /// The machine, at `base_coord`.
    pub machine: M,
    /// Coordinate the machine sits at.
    pub base_coord: u64,
    /// What the machine was cloned from.
    pub served: Served,
}

/// Strided full-machine snapshots of one golden run.
///
/// The library owns a *frontier* machine that sweeps forward on demand,
/// capturing a snapshot (clone + fingerprint) at every multiple of
/// `stride` it crosses. [`GoldenCheckpointLibrary::materialize`] then
/// serves any coordinate the golden run reaches alive: past the
/// frontier by walking the frontier there and cloning it, at or behind
/// it from the nearest snapshot at-or-before it. Requests may arrive in
/// any order; the frontier only ever moves forward, so a full campaign
/// costs one golden sweep to its furthest point — once per process per
/// [`LibraryKey`], not once per campaign.
#[derive(Debug)]
pub struct GoldenCheckpointLibrary<M> {
    stride: u64,
    origin_coord: u64,
    snaps: Vec<Snapshot<M>>,
    frontier: M,
    /// Coordinate where the golden run stopped being live, once known.
    /// Coordinates at or past it are unreachable (`materialize` returns
    /// `None`, which ends a campaign's units for the workload).
    stop: Option<u64>,
}

impl<M: SnapshotMachine> GoldenCheckpointLibrary<M> {
    /// Builds a library over `origin` (the machine at its spawn state),
    /// capturing future snapshots every `stride` coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero: snapshots need a capture interval.
    pub fn new(mut origin: M, stride: u64) -> GoldenCheckpointLibrary<M> {
        assert!(stride > 0, "checkpoint stride must be positive");
        let origin_coord = origin.coord();
        let snaps = vec![Snapshot {
            coord: origin_coord,
            fingerprint: origin.fingerprint(),
            machine: origin.clone(),
        }];
        GoldenCheckpointLibrary { stride, origin_coord, snaps, frontier: origin, stop: None }
    }

    /// The origin machine's coordinate (usually 0).
    pub fn origin_coord(&self) -> u64 {
        self.origin_coord
    }

    /// Snapshots captured so far (the origin counts).
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// Never true: the origin snapshot always exists.
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// Advances the frontier to `coord`, capturing a snapshot at every
    /// stride boundary crossed, and records the stop coordinate if the
    /// machine halts on the way.
    fn ensure(&mut self, coord: u64) {
        while self.stop.is_none() && self.frontier.coord() < coord {
            let boundary = (self.frontier.coord() / self.stride + 1) * self.stride;
            let target = boundary.min(coord);
            if !self.frontier.step_to(target) {
                self.stop = Some(self.frontier.coord());
                return;
            }
            if self.frontier.coord() == boundary {
                let fingerprint = self.frontier.fingerprint();
                let machine = self.frontier.clone();
                self.snaps.push(Snapshot { coord: boundary, fingerprint, machine });
            }
        }
    }

    /// Serves the golden machine at `coord`. When `coord` lies past the
    /// frontier, the frontier walks there (capturing the snapshots it
    /// crosses) and is cloned as it stands, so a forward sweep through
    /// sorted points does exactly the work of one serial walk. Otherwise
    /// the nearest snapshot at-or-before `coord` is cloned, and the
    /// consumer finishes the residual sweep. `None` iff the golden run
    /// is not live at `coord`.
    ///
    /// Every snapshot serve re-verifies the restore in debug builds: the
    /// clone's fingerprint must equal the one recorded at capture.
    ///
    /// # Panics
    ///
    /// Panics if `coord` precedes the origin coordinate — such a point
    /// was never reachable by sweeping and indicates a planner bug.
    pub fn materialize(&mut self, coord: u64) -> Option<Materialized<M>> {
        assert!(coord >= self.origin_coord, "coordinate precedes the library origin");
        let walked = self.stop.is_none() && self.frontier.coord() < coord;
        self.ensure(coord);
        if self.stop.is_some_and(|s| coord >= s) {
            return None;
        }
        if walked {
            return Some(Materialized {
                machine: self.frontier.clone(),
                base_coord: coord,
                served: Served::Frontier,
            });
        }
        let index = self.snaps.partition_point(|s| s.coord <= coord) - 1;
        let snap = &self.snaps[index];
        let machine = snap.machine.clone();
        if cfg!(debug_assertions) {
            let mut probe = machine.clone();
            assert_eq!(
                probe.fingerprint(),
                snap.fingerprint,
                "restored snapshot at coord {} does not reproduce its capture fingerprint",
                snap.coord
            );
        }
        Some(Materialized {
            machine,
            base_coord: snap.coord,
            served: Served::Snapshot { index, fingerprint: snap.fingerprint },
        })
    }
}

/// Process-wide identity of one golden run's library: seeding domain,
/// workload index, a digest of everything that shapes the machine's
/// evolution (program scale, machine configuration — *not* campaign
/// seeds or thread counts, which never touch the golden run), and the
/// capture stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LibraryKey {
    /// Campaign seeding domain (decorrelates the µarch and arch suites).
    pub domain: u64,
    /// Workload index within the suite.
    pub workload: u64,
    /// Digest of the machine-shaping configuration
    /// (`restore_core::config_digest` — shared with the trial store so
    /// both caches agree on configuration identity).
    pub config: u64,
    /// Capture stride; different strides are different libraries.
    pub stride: u64,
}

#[expect(
    clippy::disallowed_types,
    reason = "keyed lookup only; the cache is never iterated for output"
)]
type CacheMap = std::collections::HashMap<LibraryKey, Arc<dyn Any + Send + Sync>>;

/// Locks the process-wide cache, ignoring poisoning: a panic under the
/// lock already fails the campaign that held it.
fn cache() -> MutexGuard<'static, CacheMap> {
    static CACHE: OnceLock<Mutex<CacheMap>> = OnceLock::new();
    CACHE.get_or_init(Mutex::default).lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide library for `key`, created via `init` on first use,
/// and whether this call created it. Libraries persist for the life of
/// the process, so later campaigns with the same key find warm
/// snapshots; callers distinguishing warm reuse from cold capture must
/// treat everything in a just-created library (the origin snapshot
/// included) as cold.
///
/// The handle is shared: lock it for as long as one request needs it.
/// A campaign locks it once per claimed unit, inside the claim, so two
/// campaigns over the same key interleave their materializations, and
/// campaigns with different keys are independent.
///
/// # Panics
///
/// Panics if `key` was previously used with a different machine type —
/// keys embed the seeding domain precisely so that cannot happen.
pub fn library<M>(
    key: LibraryKey,
    init: impl FnOnce() -> GoldenCheckpointLibrary<M>,
) -> (Arc<Mutex<GoldenCheckpointLibrary<M>>>, bool)
where
    M: SnapshotMachine + Send + 'static,
{
    match cache().entry(key) {
        std::collections::hash_map::Entry::Occupied(e) => (
            Arc::clone(e.get())
                .downcast::<Mutex<GoldenCheckpointLibrary<M>>>()
                .expect("one machine type per library key"),
            false,
        ),
        std::collections::hash_map::Entry::Vacant(v) => {
            let fresh = Arc::new(Mutex::new(init()));
            v.insert(fresh.clone());
            (fresh, true)
        }
    }
}

/// Drops every memoized library, forcing the next campaign to rebuild
/// cold. Tests use this to make a run provably cold; in-flight
/// campaigns keep their own `Arc` and are unaffected.
pub fn clear_library_cache() {
    cache().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_workloads::{Scale, WorkloadId};

    fn smoke_cpu() -> Cpu {
        Cpu::new(&WorkloadId::Gzipx.build(Scale::smoke()))
    }

    #[test]
    fn snapshots_land_on_stride_boundaries() {
        let mut lib = GoldenCheckpointLibrary::new(smoke_cpu(), 300);
        let m = lib.materialize(1_000).unwrap();
        assert_eq!((m.base_coord, m.served), (1_000, Served::Frontier));
        assert_eq!(m.machine.retired(), 1_000, "a frontier serve needs no residual sweep");
        let coords: Vec<u64> = lib.snaps.iter().map(|s| s.coord).collect();
        assert_eq!(coords, vec![0, 300, 600, 900]);
        // The frontier stands at 1000 now, so the same request is a
        // snapshot serve from 900.
        let again = lib.materialize(1_000).unwrap();
        assert_eq!(again.base_coord, 900);
        assert!(matches!(again.served, Served::Snapshot { index: 3, .. }));
        assert_eq!(again.machine.retired(), 900);
    }

    /// Sorted requests past the frontier are all frontier serves, each
    /// already at its coordinate, and cost the library only the
    /// snapshots the walk crossed.
    #[test]
    fn forward_requests_clone_the_frontier() {
        let mut lib = GoldenCheckpointLibrary::new(smoke_cpu(), 250);
        let mut swept = smoke_cpu();
        for coord in [10, 260, 261, 700] {
            let m = lib.materialize(coord).unwrap();
            assert_eq!((m.base_coord, m.served), (coord, Served::Frontier));
            let mut served = m.machine;
            assert!(swept.step_to(coord));
            assert_eq!(served.fingerprint(), swept.fingerprint(), "coord {coord}");
        }
        let coords: Vec<u64> = lib.snaps.iter().map(|s| s.coord).collect();
        assert_eq!(coords, vec![0, 250, 500]);
    }

    #[test]
    fn materialized_machine_matches_a_serial_sweep() {
        let mut lib = GoldenCheckpointLibrary::new(smoke_cpu(), 250);
        let m = lib.materialize(777).unwrap();
        let mut restored = m.machine;
        assert!(restored.step_to(777));

        let mut swept = smoke_cpu();
        assert!(swept.step_to(777));
        assert_eq!(restored.fingerprint(), swept.fingerprint());
    }

    #[test]
    fn out_of_order_requests_reuse_the_frontier() {
        let mut lib = GoldenCheckpointLibrary::new(smoke_cpu(), 100);
        let far = lib.materialize(950).unwrap();
        assert_eq!((far.base_coord, far.served), (950, Served::Frontier));
        let captured = lib.len();
        // An earlier coordinate must be served without new captures.
        let near = lib.materialize(150).unwrap();
        assert_eq!(near.base_coord, 100);
        assert_eq!(lib.len(), captured);
        assert!(matches!(near.served, Served::Snapshot { index: 1, .. }));
    }

    #[test]
    fn coordinates_past_the_halt_are_unreachable() {
        let len = restore_workloads::run_length(WorkloadId::Gzipx, Scale::smoke());
        let mut lib = GoldenCheckpointLibrary::new(smoke_cpu(), 1_000);
        assert!(lib.materialize(len + 5).is_none());
        assert_eq!(lib.stop, Some(len));
        // Coordinates strictly before the halt stay live.
        assert!(lib.materialize(len - 1).is_some());
    }

    #[test]
    fn library_cache_is_keyed_and_warm() {
        let key = LibraryKey {
            domain: 0xD0_0D,
            workload: 0,
            // An arbitrary config identity; production keys digest the
            // machine-shaping config via `restore_core::config_digest`.
            config: 0x7e57_c0ff_1231_4159,
            stride: 350,
        };
        let (first, created) = library(key, || GoldenCheckpointLibrary::new(smoke_cpu(), 350));
        assert!(created, "first use must initialize the library");
        let served = first.lock().unwrap().materialize(700).map(|m| m.served);
        assert_eq!(served, Some(Served::Frontier));
        let (warm, created) = library::<Cpu>(key, || panic!("second use must not re-initialize"));
        assert!(!created, "second use must find the cached library");
        assert!(Arc::ptr_eq(&first, &warm), "one library per key");
        assert_eq!(warm.lock().unwrap().len(), 3, "origin plus two strided snapshots");
        let other = LibraryKey { stride: 351, ..key };
        let (fresh, created) = library(other, || GoldenCheckpointLibrary::new(smoke_cpu(), 351));
        assert!(created, "a different key is a different library");
        assert_eq!(fresh.lock().unwrap().len(), 1, "a fresh library holds its origin only");
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_is_rejected() {
        let _ = GoldenCheckpointLibrary::new(smoke_cpu(), 0);
    }
}
