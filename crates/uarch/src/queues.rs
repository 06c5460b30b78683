//! Circular queues and the physical-register free list.
//!
//! The head/tail pointers of these queues are themselves latches and are
//! fault-injectable. Both structures keep them as modular counters over
//! `2 * capacity` — the hardware idiom where full and empty differ by the
//! wrap bit — and reduce them modulo capacity only at the point of use.
//! A corrupted pointer therefore still wreaks havoc (wrong entries become
//! visible, queues appear full or empty) but never indexes out of bounds,
//! and because no clamping rewrites the stored latch value, a second flip
//! of the same bit restores the machine exactly (flip involution — pinned
//! by `state_catalog_proptest`).
//!
//! Both queues report slot *occupancy* to visitors that ask for it
//! ([`crate::state::StateVisitor::occupancy`]): a slot outside the live
//! window can only be read again after a push overwrites it, which is
//! what makes dead-state injection pruning sound.

use crate::state::{FieldClass, StateVisitor};

/// `x mod m` for the pointer and tag reductions on the cycle's hot path:
/// a mask when `m` is a power of two (every default queue is), `x`
/// itself when it is already in range, and a division otherwise.
#[inline]
pub(crate) fn reduce(x: u64, m: u64) -> u64 {
    if m.is_power_of_two() {
        x & (m - 1)
    } else if x < m {
        x
    } else {
        x % m
    }
}

/// `(to - from) mod m` for modular counters in any range — the distance
/// from a pop pointer to a push pointer.
#[inline]
fn distance(from: u64, to: u64, m: u64) -> u64 {
    let (from, to) = (reduce(from, m), reduce(to, m));
    if to >= from {
        to - from
    } else {
        to + m - from
    }
}

/// Slot `i`'s distance past a window starting at slot `start`, both
/// below `cap`: `(i - start) mod cap` without a division, which the
/// per-slot occupancy of a walk would otherwise pay for every slot.
#[inline]
fn window_offset(i: u64, start: u64, cap: u64) -> u64 {
    if i >= start {
        i - start
    } else {
        i + cap - start
    }
}

/// Fixed-capacity circular queue addressed by absolute slot index.
///
/// Entries are pushed at the tail and popped from the head; `slot`/`slot_mut`
/// give direct access for out-of-order completion by stored index.
///
/// The derived `Hash` covers every slot, live or not: a corrupted pointer
/// can re-expose a dead slot, so the reconvergence fingerprint must see
/// them all.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CircQ<T> {
    slots: Vec<T>,
    /// Pop pointer (modular counter over `2 * cap`).
    head: u64,
    /// Push pointer (modular counter over `2 * cap`).
    tail: u64,
}

impl<T: Default + Clone> CircQ<T> {
    /// Creates a queue of `cap` default-initialised slots.
    pub fn new(cap: usize) -> CircQ<T> {
        CircQ { slots: vec![T::default(); cap.max(1)], head: 0, tail: 0 }
    }

    /// Capacity.
    pub fn cap(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn c2(&self) -> u64 {
        2 * self.cap() as u64
    }

    #[inline]
    fn wrap(&self, x: u64) -> u64 {
        reduce(x, self.c2())
    }

    #[inline]
    fn index(&self, x: u64) -> usize {
        reduce(x, self.cap() as u64) as usize
    }

    /// Occupied entries. Pointer corruption can make the raw counter
    /// distance exceed capacity; the visible length clamps there, so
    /// every iteration stays bounded without rewriting the latches.
    pub fn len(&self) -> usize {
        distance(self.head, self.tail, self.c2()).min(self.cap() as u64) as usize
    }

    /// `true` if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if no slots remain.
    pub fn is_full(&self) -> bool {
        self.len() == self.cap()
    }

    /// Pushes at the tail, returning the absolute slot index used.
    ///
    /// # Panics
    ///
    /// Panics if full; callers check [`CircQ::is_full`] first.
    pub fn push(&mut self, v: T) -> usize {
        assert!(!self.is_full(), "queue overflow");
        let idx = self.index(self.tail);
        self.slots[idx] = v;
        self.tail = self.wrap(self.tail + 1);
        idx
    }

    /// Absolute slot index of the oldest entry, if any.
    pub fn head_idx(&self) -> Option<usize> {
        (!self.is_empty()).then(|| self.index(self.head))
    }

    /// Oldest entry.
    pub fn front(&self) -> Option<&T> {
        self.head_idx().map(|i| &self.slots[i])
    }

    /// Oldest entry, mutable.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.head_idx().map(|i| &mut self.slots[i])
    }

    /// Pops the oldest entry (clone), if any.
    pub fn pop_front(&mut self) -> Option<T> {
        let i = self.head_idx()?;
        let v = self.slots[i].clone();
        self.head = self.wrap(self.head + 1);
        Some(v)
    }

    /// Drops the youngest entry.
    pub fn pop_back(&mut self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        self.tail = self.wrap(self.tail + self.c2() - 1);
        Some(self.slots[self.index(self.tail)].clone())
    }

    /// Youngest entry.
    pub fn back(&self) -> Option<&T> {
        if self.is_empty() {
            return None;
        }
        Some(&self.slots[self.index(self.tail + self.c2() - 1)])
    }

    /// Direct slot access (for completion by stored index). The index is
    /// reduced modulo capacity so corrupted stored indices stay in
    /// bounds.
    pub fn slot(&self, idx: usize) -> &T {
        &self.slots[self.index(idx as u64)]
    }

    /// Direct mutable slot access.
    pub fn slot_mut(&mut self, idx: usize) -> &mut T {
        let i = self.index(idx as u64);
        &mut self.slots[i]
    }

    /// Iterates `(absolute_slot_index, &entry)` oldest→youngest.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let head = self.head;
        (0..self.len() as u64).map(move |k| {
            let idx = self.index(head + k);
            (idx, &self.slots[idx])
        })
    }

    /// Removes every live entry.
    pub fn clear(&mut self) {
        self.tail = self.wrap(self.head);
    }

    /// Visits the head/tail pointers (latch bits) and every slot's
    /// payload via `f`, reporting per-slot occupancy to visitors that
    /// ask: slots outside the `[head, tail)` window are dead — their
    /// contents cannot be read before a push overwrites them. Each slot
    /// is one [`StateVisitor::entry`]; its occupancy, which the pointers
    /// decide, is declared outside it.
    pub fn visit_with<V: StateVisitor>(&mut self, v: &mut V, mut f: impl FnMut(&mut T, &mut V))
    where
        T: Copy + Eq + 'static,
    {
        let ptr_width = (64 - (self.c2() - 1).leading_zeros()).max(1);
        let occupancy = v.wants_occupancy();
        let cap = self.cap() as u64;
        let (start, len) = if occupancy { (self.head % cap, self.len() as u64) } else { (0, 0) };
        let CircQ { slots, head, tail } = self;
        v.word(head, ptr_width, FieldClass::Control);
        v.word(tail, ptr_width, FieldClass::Control);
        for (i, s) in slots.iter_mut().enumerate() {
            if occupancy {
                v.occupancy(window_offset(i as u64, start, cap) < len);
            }
            v.entry(s, &mut f);
        }
        if occupancy {
            v.occupancy(true);
        }
    }
}

/// Physical-register free list: a hardware-style circular buffer where
/// rename advances the head (allocate) and retire advances the tail
/// (release). Branch checkpoints snapshot only the head pointer; restoring
/// it instantly re-frees every register allocated down the wrong path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FreeList {
    slots: Vec<u8>,
    /// Allocation pointer (modular counter over `2 * cap`).
    head: u64,
    /// Release pointer (modular counter over `2 * cap`).
    tail: u64,
}

impl FreeList {
    /// Builds a free list over `phys_regs` registers with registers
    /// `32..phys_regs` initially free (0–31 back the architectural
    /// state).
    pub fn new(phys_regs: usize) -> FreeList {
        let cap = phys_regs;
        let mut slots = vec![0u8; cap];
        let free = phys_regs - 32;
        for (i, s) in slots.iter_mut().enumerate().take(free) {
            *s = (32 + i) as u8;
        }
        FreeList { slots, head: 0, tail: free as u64 }
    }

    fn cap(&self) -> u64 {
        self.slots.len() as u64
    }

    fn wrap(&self, x: u64) -> u64 {
        reduce(x, 2 * self.cap())
    }

    /// Free registers currently available.
    pub fn available(&self) -> u64 {
        distance(self.head, self.tail, 2 * self.cap())
    }

    /// Allocates a register, or `None` if empty.
    pub fn alloc(&mut self) -> Option<u8> {
        if self.available() == 0 {
            return None;
        }
        let t = self.slots[reduce(self.head, self.cap()) as usize];
        self.head = self.wrap(self.head + 1);
        Some(t)
    }

    /// Releases a register at retire.
    pub fn release(&mut self, tag: u8) {
        if self.available() >= self.cap() {
            // Pointer corruption made the buffer look full; dropping the
            // release mirrors hardware losing a register (deadlock fuel).
            return;
        }
        let i = reduce(self.tail, self.cap()) as usize;
        self.slots[i] = tag;
        self.tail = self.wrap(self.tail + 1);
    }

    /// Current head counter (snapshot for branch checkpoints).
    pub fn head_snapshot(&self) -> u64 {
        self.head
    }

    /// Restores the head counter from a checkpoint, re-freeing every
    /// register allocated since.
    ///
    /// Alias-safety contract: between taking `snapshot` and restoring it,
    /// only registers allocated *before* the snapshot may be released.
    /// The pipeline guarantees this by construction — releases happen at
    /// in-order retire, and an instruction younger than the snapshotting
    /// branch cannot retire before that branch resolves (which discards
    /// the snapshot). Violating the contract would duplicate a tag in the
    /// free pool; `injection_proptest::free_list_never_aliases` pins the
    /// contract down.
    pub fn restore_head(&mut self, snapshot: u64) {
        self.head = self.wrap(snapshot);
    }

    /// Rebuilds the free list from scratch given the set of live
    /// registers (used for full flushes after exceptions): every register
    /// not in `live` becomes free, ascending.
    pub fn rebuild(&mut self, live: impl Iterator<Item = u8>) {
        let cap = self.cap();
        // Tags are `u8`, so a free list never holds more than 256 slots.
        let mut is_live = [false; 256];
        for t in live {
            is_live[t as usize % self.slots.len()] = true;
        }
        self.head = 0;
        self.tail = 0;
        for t in 0..self.slots.len() as u8 {
            if !is_live[t as usize] {
                self.slots[(self.tail % cap) as usize] = t;
                self.tail += 1;
            }
        }
    }

    /// Tags in the current free window `[head, tail)` — the physical
    /// registers that back no architectural or speculative value right
    /// now. The free-list aliasing contract (see
    /// [`FreeList::restore_head`]) makes this exactly the set of
    /// registers whose contents cannot be read before rename reallocates
    /// them and writeback overwrites them.
    pub fn free_tags(&self) -> impl Iterator<Item = u8> + '_ {
        let cap = self.cap();
        let n = self.available().min(cap) as usize;
        let (wrapped, from_head) = self.slots.split_at(reduce(self.head, cap) as usize);
        from_head.iter().chain(wrapped).take(n).copied()
    }

    /// The conservative live window of free-list *slots*: everything
    /// from the oldest still-restorable head to the tail. A mispredicted
    /// branch can rewind `head` to any checkpointed value
    /// (`restore_head`), re-exposing slots behind the current head, so a
    /// slot is only dead if no outstanding checkpoint can reach it.
    /// Returns `(start_slot, live_slots)`.
    fn restorable_window(&self, restorable_heads: &[u64]) -> (u64, u64) {
        let c2 = 2 * self.cap();
        let dist = |h: u64| distance(h, self.tail, c2);
        let (mut best, mut best_d) = (self.head, dist(self.head));
        for &h in restorable_heads {
            let d = dist(h);
            if d > best_d {
                (best, best_d) = (h, d);
            }
        }
        // A distance beyond capacity would alias the whole buffer: treat
        // every slot as live (maximally conservative).
        (best % self.cap(), best_d.min(self.cap()))
    }

    /// Visits pointers and contents (RAM region in the hardened-pipeline
    /// ECC domain). `restorable_heads` are the head checkpoints still
    /// held by unresolved branches; slots they can re-expose stay live
    /// for occupancy-reporting purposes.
    pub fn visit<V: StateVisitor>(&mut self, v: &mut V, restorable_heads: &[u64]) {
        let ptr_width = (64 - (2 * self.cap() - 1).leading_zeros()).max(1);
        let occupancy = v.wants_occupancy();
        let (start, window) =
            if occupancy { self.restorable_window(restorable_heads) } else { (0, 0) };
        let cap = self.cap();
        let FreeList { slots, head, tail } = self;
        v.word(head, ptr_width, FieldClass::Control);
        v.word(tail, ptr_width, FieldClass::Control);
        for (i, s) in slots.iter_mut().enumerate() {
            if occupancy {
                v.occupancy(window_offset(i as u64, start, cap) < window);
            }
            v.word8(s, 7, FieldClass::Control);
        }
        if occupancy {
            v.occupancy(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::OccupancyRecorder;

    #[test]
    fn fifo_order_and_slot_indices() {
        let mut q: CircQ<u32> = CircQ::new(4);
        assert!(q.is_empty());
        let a = q.push(10);
        let b = q.push(20);
        assert_eq!((a, b), (0, 1));
        assert_eq!(q.front(), Some(&10));
        assert_eq!(q.pop_front(), Some(10));
        assert_eq!(q.front(), Some(&20));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn wraparound() {
        let mut q: CircQ<u32> = CircQ::new(2);
        q.push(1);
        q.push(2);
        assert!(q.is_full());
        q.pop_front();
        let idx = q.push(3);
        assert_eq!(idx, 0); // wrapped
        assert_eq!(q.pop_front(), Some(2));
        assert_eq!(q.pop_front(), Some(3));
    }

    #[test]
    #[should_panic(expected = "queue overflow")]
    fn overflow_panics() {
        let mut q: CircQ<u32> = CircQ::new(1);
        q.push(1);
        q.push(2);
    }

    #[test]
    fn pop_back_squashes_youngest() {
        let mut q: CircQ<u32> = CircQ::new(4);
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.pop_back(), Some(3));
        assert_eq!(q.back(), Some(&2));
        let order: Vec<u32> = q.iter().map(|(_, &v)| v).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn slot_access_is_modular() {
        let mut q: CircQ<u32> = CircQ::new(4);
        q.push(9);
        assert_eq!(*q.slot(0), 9);
        assert_eq!(*q.slot(4), 9); // wraps
        *q.slot_mut(8) = 11;
        assert_eq!(q.front(), Some(&11));
    }

    #[test]
    fn corrupted_pointers_stay_in_bounds() {
        let mut q: CircQ<u32> = CircQ::new(4);
        q.push(1);
        // Out-of-range counters, as a bit flip could leave them.
        q.head = 15;
        q.tail = 2;
        assert!(q.len() <= q.cap());
        let _ = q.front();
        let _ = q.back();
        let _ = q.iter().count();
        // Use-site reduction is congruent modulo 2*cap: the visible
        // window matches the canonical counters.
        let mut canon: CircQ<u32> = CircQ::new(4);
        canon.head = 15 % 8;
        canon.tail = 2;
        assert_eq!(q.len(), canon.len());
        assert_eq!(q.head_idx(), canon.head_idx());
    }

    #[test]
    fn visit_reports_window_occupancy() {
        let mut q: CircQ<u64> = CircQ::new(4);
        q.push(10);
        q.push(20);
        q.pop_front();
        let mut rec = OccupancyRecorder::new();
        q.visit_with(&mut rec, |s, v| v.word(s, 64, FieldClass::Data));
        // head, tail, then 4 slots; only storage slot 1 is live.
        assert_eq!(rec.live, vec![true, true, false, true, false, false]);
    }

    #[test]
    fn visit_occupancy_handles_wrapped_window() {
        let mut q: CircQ<u64> = CircQ::new(4);
        for i in 0..4 {
            q.push(i);
        }
        q.pop_front();
        q.pop_front();
        q.pop_front();
        q.push(9); // window is slots {3, 0}
        let mut rec = OccupancyRecorder::new();
        q.visit_with(&mut rec, |s, v| v.word(s, 64, FieldClass::Data));
        assert_eq!(rec.live, vec![true, true, true, false, false, true]);
    }

    #[test]
    fn reductions_match_the_remainder() {
        for m in 1..=200u64 {
            for x in 0..3 * m {
                assert_eq!(reduce(x, m), x % m, "{x} mod {m}");
                for from in [0, 1, m - 1, m, 2 * m + 1, x] {
                    let want = (x % m + m - from % m) % m;
                    assert_eq!(distance(from, x, m), want, "{x} - {from} mod {m}");
                }
            }
        }
    }

    #[test]
    fn free_list_alloc_release_cycle() {
        let mut f = FreeList::new(48);
        assert_eq!(f.available(), 16);
        let t = f.alloc().unwrap();
        assert_eq!(t, 32);
        assert_eq!(f.available(), 15);
        f.release(t);
        assert_eq!(f.available(), 16);
    }

    #[test]
    fn free_list_exhaustion() {
        let mut f = FreeList::new(34);
        assert_eq!(f.alloc(), Some(32));
        assert_eq!(f.alloc(), Some(33));
        assert_eq!(f.alloc(), None);
    }

    #[test]
    fn head_restore_refrees_wrong_path_allocations() {
        let mut f = FreeList::new(40);
        let snap = f.head_snapshot();
        let a = f.alloc().unwrap();
        let b = f.alloc().unwrap();
        assert_eq!(f.available(), 6);
        f.restore_head(snap);
        assert_eq!(f.available(), 8);
        // The same tags come back in order.
        assert_eq!(f.alloc(), Some(a));
        assert_eq!(f.alloc(), Some(b));
    }

    #[test]
    fn interleaved_release_survives_restore() {
        let mut f = FreeList::new(36);
        let snap = f.head_snapshot();
        let _a = f.alloc().unwrap();
        f.release(3); // an older register retires meanwhile
        f.restore_head(snap);
        assert_eq!(f.available(), 5); // 4 originally free + released 3
    }

    #[test]
    fn rebuild_frees_exactly_the_dead() {
        let mut f = FreeList::new(40);
        f.rebuild([0u8, 1, 39].into_iter());
        assert_eq!(f.available(), 37);
        let first = f.alloc().unwrap();
        assert_eq!(first, 2); // 0 and 1 are live
    }

    #[test]
    fn release_when_corrupt_full_is_dropped() {
        let mut f = FreeList::new(34);
        // Corrupt: pretend everything is free already.
        f.head = 0;
        f.tail = 34;
        assert_eq!(f.available(), 34);
        f.release(5); // must not panic or grow
        assert_eq!(f.available(), 34);
    }

    #[test]
    fn free_tags_walks_the_window() {
        let mut f = FreeList::new(36);
        let tags: Vec<u8> = f.free_tags().collect();
        assert_eq!(tags, vec![32, 33, 34, 35]);
        f.alloc();
        let tags: Vec<u8> = f.free_tags().collect();
        assert_eq!(tags, vec![33, 34, 35]);
    }

    #[test]
    fn visit_occupancy_respects_restorable_heads() {
        let mut f = FreeList::new(36);
        let snap = f.head_snapshot();
        f.alloc();
        f.alloc();
        // Without a checkpoint only the current window [2, 4) is live.
        let mut rec = OccupancyRecorder::new();
        f.visit(&mut rec, &[]);
        let slot_live = &rec.live[2..]; // skip head/tail pointer fields
        assert_eq!(&slot_live[..5], &[false, false, true, true, false]);
        // A restorable checkpoint at the old head re-exposes slots 0 and 1.
        let mut rec = OccupancyRecorder::new();
        f.visit(&mut rec, &[snap]);
        let slot_live = &rec.live[2..];
        assert_eq!(&slot_live[..5], &[true, true, true, true, false]);
    }
}
