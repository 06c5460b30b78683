//! Set-associative caches and TLBs (timing + miss-event model).
//!
//! Caches and TLBs matter to ReStore in two ways: they set the pipeline's
//! timing (miss stalls), and their *miss events* are candidate symptoms —
//! §3.3 discusses cache/TLB misses as "valid but infrequent" events a
//! soft error can provoke. Contents are excluded from fault injection per
//! §4.2 ("caches are easily protected by ECC or parity").
//!
//! Being injection-excluded does not make them fingerprint-excluded: tag
//! and LRU state steer future hit/miss timing, and the miss counters are
//! trial observables, so both [`Cache`] and [`Tlb`] derive `Hash` over
//! every field, and the full-machine reconvergence fingerprint hashes
//! them whole.

/// LRU set-associative tag array (data lives in [`restore_arch::Memory`];
/// this tracks presence only).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU rank per way (0 = most recent).
    lru: Vec<u8>,
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
}

impl Cache {
    /// Builds an empty cache of `sets`×`ways` lines of `line` bytes.
    pub fn new(sets: usize, ways: usize, line: u64) -> Cache {
        let sets = sets.next_power_of_two();
        Cache {
            sets,
            ways,
            line_shift: line.trailing_zeros(),
            tags: vec![u64::MAX; sets * ways],
            lru: (0..sets * ways).map(|i| (i % ways) as u8).collect(),
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; returns `true` on hit. Misses allocate with LRU
    /// replacement.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        let slot = self.tags[base..base + self.ways].iter().position(|&t| t == line);
        match slot {
            Some(way) => {
                self.touch(base, way);
                true
            }
            None => {
                self.misses += 1;
                let victim = (0..self.ways).max_by_key(|&w| self.lru[base + w]).expect("ways >= 1");
                self.tags[base + victim] = line;
                self.touch(base, victim);
                false
            }
        }
    }

    fn touch(&mut self, base: usize, way: usize) {
        let old = self.lru[base + way];
        for w in 0..self.ways {
            if self.lru[base + w] < old {
                self.lru[base + w] += 1;
            }
        }
        self.lru[base + way] = 0;
    }

    /// Miss ratio so far.
    pub fn miss_ratio(&self) -> f64 {
        self.misses as f64 / self.accesses.max(1) as f64
    }
}

/// Fully-associative TLB over 4 KiB pages with round-robin replacement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tlb {
    pages: Vec<u64>,
    next: usize,
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
}

impl Tlb {
    /// Builds an empty TLB of `entries` pages.
    pub fn new(entries: usize) -> Tlb {
        Tlb { pages: vec![u64::MAX; entries.max(1)], next: 0, accesses: 0, misses: 0 }
    }

    /// Accesses the page of `addr`; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let page = addr >> 12;
        if self.pages.contains(&page) {
            true
        } else {
            self.misses += 1;
            self.pages[self.next] = page;
            self.next = (self.next + 1) % self.pages.len();
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Perturbations for the pipeline's fingerprint-coverage test: each
    // changes state that only replacement reads, and keeps the ranks a
    // permutation and the cursor in range.
    impl Cache {
        pub(crate) fn swap_lru_ranks(&mut self) {
            self.lru.swap(0, 1);
        }
    }

    impl Tlb {
        pub(crate) fn advance_cursor(&mut self) {
            self.next = (self.next + 1) % self.pages.len();
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(64, 4, 64);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x103f)); // same line
        assert!(!c.access(0x1040)); // next line
        assert_eq!(c.misses, 2);
        assert_eq!(c.accesses, 4);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(1, 2, 64); // one set, two ways
        c.access(0x0000); // A
        c.access(0x1000); // B
        c.access(0x0000); // A again (B is now LRU)
        c.access(0x2000); // C evicts B
        assert!(c.access(0x0000), "A must survive");
        assert!(!c.access(0x1000), "B must have been evicted");
    }

    #[test]
    fn tlb_tracks_pages() {
        let mut t = Tlb::new(2);
        assert!(!t.access(0x1000));
        assert!(t.access(0x1fff)); // same page
        assert!(!t.access(0x2000));
        assert!(!t.access(0x3000)); // evicts 0x1000 (round-robin)
        assert!(!t.access(0x1000));
    }

    #[test]
    fn miss_ratio_sane() {
        let mut c = Cache::new(16, 2, 64);
        for i in 0..32 {
            c.access(i * 64);
        }
        assert!(c.miss_ratio() > 0.9);
        for i in 0..16 {
            c.access(i * 64 + 2048 * 100); // reuse nothing
        }
        assert!(c.misses > 32);
    }
}
