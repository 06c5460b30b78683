//! Sparse paged memory with per-page permissions.
//!
//! The architecture exposes a full 64-bit virtual address space while
//! programs map only a few small regions. That sparseness is a first-class
//! experimental variable in the ReStore paper (§3.1): a single bit flip in
//! a pointer almost always lands in unmapped space and faults, which is why
//! the exception symptom covers so many failures.

use crate::state::Fingerprint;
use core::fmt;
use std::collections::BTreeMap;
use std::hash::Hasher as _;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Page size in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 4096;

const PAGE_SHIFT: u32 = 12;

/// Page permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Perm {
    /// Loads allowed.
    pub read: bool,
    /// Stores allowed.
    pub write: bool,
    /// Instruction fetch allowed.
    pub execute: bool,
}

impl Perm {
    /// Read-only data.
    pub const R: Perm = Perm { read: true, write: false, execute: false };
    /// Read-write data.
    pub const RW: Perm = Perm { read: true, write: true, execute: false };
    /// Read-execute text.
    pub const RX: Perm = Perm { read: true, write: false, execute: true };
}

/// The kind of access that failed (reported in exceptions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data load.
    Load,
    /// Data store.
    Store,
    /// Instruction fetch.
    Fetch,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Load => "load",
            AccessKind::Store => "store",
            AccessKind::Fetch => "fetch",
        })
    }
}

/// Memory access errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemError {
    /// The page is not mapped.
    Unmapped {
        /// Faulting address.
        addr: u64,
        /// Access kind.
        access: AccessKind,
    },
    /// The page is mapped but the permission bits forbid the access.
    Protection {
        /// Faulting address.
        addr: u64,
        /// Access kind.
        access: AccessKind,
    },
    /// The address is not aligned for the access width.
    Misaligned {
        /// Faulting address.
        addr: u64,
        /// Access kind.
        access: AccessKind,
    },
}

impl MemError {
    /// The faulting virtual address.
    pub fn addr(&self) -> u64 {
        match *self {
            MemError::Unmapped { addr, .. }
            | MemError::Protection { addr, .. }
            | MemError::Misaligned { addr, .. } => addr,
        }
    }
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped { addr, access } => {
                write!(f, "{access} to unmapped address {addr:#x}")
            }
            MemError::Protection { addr, access } => {
                write!(f, "{access} violates page protection at {addr:#x}")
            }
            MemError::Misaligned { addr, access } => {
                write!(f, "misaligned {access} at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for MemError {}

#[derive(Clone, PartialEq, Eq)]
struct Page {
    data: Box<[u8]>,
    perm: Perm,
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Page").field("perm", &self.perm).finish_non_exhaustive()
    }
}

/// One mapped page plus its digest cache. The page body is shared
/// copy-on-write between clones; `digest` is `None` exactly while the
/// page's base is on the owning [`Memory`]'s dirty list.
#[derive(Debug, Clone)]
struct PageSlot {
    page: Arc<Page>,
    digest: Option<u64>,
}

impl PageSlot {
    /// The page body, un-shared for writing (copy-on-write), with its
    /// cached digest retired into `clean_xor`, its base put on the
    /// owning [`Memory`]'s `dirty` list and, for an executable page, a
    /// fresh `exec_epoch` drawn.
    fn writable(
        &mut self,
        base: u64,
        clean_xor: &mut u64,
        dirty: &mut Vec<u64>,
        exec_epoch: &mut u64,
    ) -> &mut Page {
        if let Some(d) = self.digest.take() {
            *clean_xor ^= d;
            dirty.push(base);
        }
        if self.page.perm.execute {
            *exec_epoch = next_exec_epoch();
        }
        Arc::make_mut(&mut self.page)
    }
}

/// A process-wide unique executable-page epoch (never 0, the epoch of an
/// image with no executable history). Unique rather than counted, so
/// two independently built images never share an epoch by accident.
fn next_exec_epoch() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Digest of one page: base, permissions and contents, one
/// [`Fingerprint::mix`] per word. Each page's digest is independent of
/// every other page's, so whole-image digests can XOR-combine them (the
/// base address keys each term), and a change to any one word of a page
/// always changes its digest (the mixer is a bijection per step).
fn page_digest(base: u64, page: &Page) -> u64 {
    let mut f = Fingerprint::new();
    f.mix(base);
    f.mix(page.perm.read as u64 | (page.perm.write as u64) << 1 | (page.perm.execute as u64) << 2);
    f.write(&page.data);
    f.finish()
}

/// Whether `perm` allows `access`.
#[inline]
fn permits(perm: Perm, access: AccessKind) -> bool {
    match access {
        AccessKind::Load => perm.read,
        AccessKind::Store => perm.write,
        AccessKind::Fetch => perm.execute,
    }
}

/// Splits `[addr, addr + len)` into its per-page pieces: `(page base,
/// offset in the page, range of the caller's buffer)`.
fn page_spans(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let a = addr + done as u64;
            let base = Memory::page_base(a);
            let off = (a - base) as usize;
            let n = (PAGE_SIZE as usize - off).min(len - done);
            done += n;
            (base, off, done - n..done)
        })
    })
}

/// Sparse, permission-checked paged memory.
///
/// Pages are copy-on-write: cloning a `Memory` shares every page body
/// behind an [`Arc`] and the first store to a shared page copies just
/// that page, so campaigns fork golden and injected runs at the cost of
/// the page *table*, not the image.
///
/// The image also maintains an incremental digest: each page caches a
/// digest of its contents, invalidated on the store path, and
/// [`Memory::fingerprint`] recombines them in O(dirty pages) — cheap
/// enough to sample every few hundred cycles during a trial and to
/// compare end-of-trial images against the golden run's.
///
/// # Examples
///
/// ```
/// use restore_arch::{Memory, Perm, AccessKind};
/// let mut m = Memory::new();
/// m.map(0x1000, 0x1000, Perm::RW);
/// m.store_u64(0x1008, 42).unwrap();
/// assert_eq!(m.load_u64(0x1008).unwrap(), 42);
/// assert!(m.load_u64(0x9000_0000).is_err()); // unmapped
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: BTreeMap<u64, PageSlot>,
    /// XOR of every cached (clean) page digest.
    clean_xor: u64,
    /// Bases of pages whose digest cache is invalid. Invariant: a base is
    /// listed here exactly once iff its slot's `digest` is `None`.
    dirty: Vec<u64>,
    /// See [`Memory::exec_epoch`].
    exec_epoch: u64,
}

/// Equality is over the architectural image — page bases, permissions and
/// contents. The digest cache and the executable-page epoch are excluded:
/// two memories that differ only in cache bookkeeping still compare
/// equal.
impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        self.pages.len() == other.pages.len()
            && self.pages.iter().zip(other.pages.iter()).all(|((ab, a), (bb, b))| {
                ab == bb && (Arc::ptr_eq(&a.page, &b.page) || a.page == b.page)
            })
    }
}

impl Eq for Memory {}

impl Memory {
    /// Creates an empty address space.
    pub fn new() -> Memory {
        Memory::default()
    }

    #[inline]
    fn page_base(addr: u64) -> u64 {
        addr >> PAGE_SHIFT << PAGE_SHIFT
    }

    /// Maps `[base, base+len)` (rounded out to page granularity) with the
    /// given permissions, zero-filled. Remapping an existing page updates
    /// its permissions and keeps its contents.
    pub fn map(&mut self, base: u64, len: u64, perm: Perm) {
        if len == 0 {
            return;
        }
        if perm.execute {
            self.exec_epoch = next_exec_epoch();
        }
        let first = Self::page_base(base);
        let last = Self::page_base(base + len - 1);
        let mut p = first;
        loop {
            match self.pages.entry(p) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let slot = e.get_mut();
                    if slot.page.perm != perm {
                        let epoch = &mut self.exec_epoch;
                        slot.writable(p, &mut self.clean_xor, &mut self.dirty, epoch).perm = perm;
                    }
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(PageSlot {
                        page: Arc::new(Page {
                            data: vec![0u8; PAGE_SIZE as usize].into_boxed_slice(),
                            perm,
                        }),
                        digest: None,
                    });
                    self.dirty.push(p);
                }
            }
            if p == last {
                break;
            }
            p += PAGE_SIZE;
        }
    }

    /// `true` if `addr` is on a mapped page.
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.pages.contains_key(&Self::page_base(addr))
    }

    /// Permission of the page containing `addr`, if mapped.
    pub fn perm_at(&self, addr: u64) -> Option<Perm> {
        self.pages.get(&Self::page_base(addr)).map(|p| p.page.perm)
    }

    /// Number of mapped pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The executable-page epoch: a process-wide unique value drawn
    /// afresh whenever an executable page is mapped, remapped or written
    /// (poked, or stored to if also writable), and kept by clones. While
    /// it is unchanged, a fetch that succeeded when the epoch was read
    /// still returns the same word — the validity test for
    /// decoded-instruction caches such as [`Cpu`](crate::Cpu)'s. `0`
    /// means no executable page was ever touched.
    pub fn exec_epoch(&self) -> u64 {
        self.exec_epoch
    }

    /// Checks that an access of `len` bytes at `addr` is legal without
    /// performing it: alignment, mapping, and permission, in that order.
    ///
    /// # Errors
    ///
    /// The same errors the corresponding load/store/fetch would produce.
    pub fn check(&self, addr: u64, len: u64, access: AccessKind) -> Result<(), MemError> {
        self.checked_page(addr, len, access).map(|_| ())
    }

    /// Alignment check shared by every access.
    #[inline]
    fn aligned(addr: u64, len: u64, access: AccessKind) -> Result<(), MemError> {
        if len > 1 && addr & (len - 1) != 0 {
            Err(MemError::Misaligned { addr, access })
        } else {
            Ok(())
        }
    }

    /// The page an access of `len` bytes at `addr` touches, after the
    /// [`Memory::check`] tests in its order — the one page lookup behind
    /// every load and fetch. An aligned power-of-two access never
    /// crosses a page.
    #[inline]
    fn checked_page(&self, addr: u64, len: u64, access: AccessKind) -> Result<&Page, MemError> {
        Self::aligned(addr, len, access)?;
        let slot =
            self.pages.get(&Self::page_base(addr)).ok_or(MemError::Unmapped { addr, access })?;
        if permits(slot.page.perm, access) {
            Ok(&slot.page)
        } else {
            Err(MemError::Protection { addr, access })
        }
    }

    /// Loads a zero-extended little-endian value of `len` bytes (1, 2, 4
    /// or 8).
    ///
    /// # Errors
    ///
    /// Alignment, mapping and permission errors per [`Memory::check`].
    pub fn load(&self, addr: u64, len: u64) -> Result<u64, MemError> {
        let page = self.checked_page(addr, len, AccessKind::Load)?;
        let (off, len) = ((addr & (PAGE_SIZE - 1)) as usize, len as usize);
        let mut buf = [0u8; 8];
        buf[..len].copy_from_slice(&page.data[off..off + len]);
        Ok(u64::from_le_bytes(buf))
    }

    /// Stores the low `len` bytes of `value` little-endian.
    ///
    /// # Errors
    ///
    /// Alignment, mapping and permission errors per [`Memory::check`].
    pub fn store(&mut self, addr: u64, len: u64, value: u64) -> Result<(), MemError> {
        let access = AccessKind::Store;
        Self::aligned(addr, len, access)?;
        let base = Self::page_base(addr);
        let slot = self.pages.get_mut(&base).ok_or(MemError::Unmapped { addr, access })?;
        if !permits(slot.page.perm, access) {
            return Err(MemError::Protection { addr, access });
        }
        let (off, len) = ((addr - base) as usize, len as usize);
        let page = slot.writable(base, &mut self.clean_xor, &mut self.dirty, &mut self.exec_epoch);
        page.data[off..off + len].copy_from_slice(&value.to_le_bytes()[..len]);
        Ok(())
    }

    /// Convenience 64-bit load.
    pub fn load_u64(&self, addr: u64) -> Result<u64, MemError> {
        self.load(addr, 8)
    }

    /// Convenience 64-bit store.
    pub fn store_u64(&mut self, addr: u64, value: u64) -> Result<(), MemError> {
        self.store(addr, 8, value)
    }

    /// Fetches a 32-bit instruction word.
    ///
    /// # Errors
    ///
    /// Misalignment, unmapped or non-executable pages report under
    /// [`AccessKind::Fetch`].
    pub fn fetch(&self, pc: u64) -> Result<u32, MemError> {
        let page = self.checked_page(pc, 4, AccessKind::Fetch)?;
        let off = (pc & (PAGE_SIZE - 1)) as usize;
        Ok(u32::from_le_bytes(page.data[off..off + 4].try_into().expect("4 bytes")))
    }

    /// Writes raw bytes ignoring permissions — used by the program loader
    /// and by fault injection.
    ///
    /// # Panics
    ///
    /// Panics if any byte of the destination is unmapped; callers map
    /// regions before initialising them.
    pub fn poke_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (base, off, span) in page_spans(addr, bytes.len()) {
            let a = base + off as u64;
            let slot =
                self.pages.get_mut(&base).unwrap_or_else(|| panic!("poke to unmapped {a:#x}"));
            let page =
                slot.writable(base, &mut self.clean_xor, &mut self.dirty, &mut self.exec_epoch);
            page.data[off..off + span.len()].copy_from_slice(&bytes[span]);
        }
    }

    /// Reads raw bytes ignoring permissions.
    ///
    /// # Panics
    ///
    /// Panics if unmapped.
    pub fn peek_bytes(&self, addr: u64, out: &mut [u8]) {
        for (base, off, span) in page_spans(addr, out.len()) {
            let a = base + off as u64;
            let slot = self.pages.get(&base).unwrap_or_else(|| panic!("peek of unmapped {a:#x}"));
            let n = span.len();
            out[span].copy_from_slice(&slot.page.data[off..off + n]);
        }
    }

    /// Flips a single bit of a mapped byte (fault injection helper).
    ///
    /// # Panics
    ///
    /// Panics if the byte is unmapped or `bit >= 8`.
    pub fn flip_bit(&mut self, addr: u64, bit: u32) {
        assert!(bit < 8);
        let mut b = [0u8; 1];
        self.peek_bytes(addr, &mut b);
        b[0] ^= 1 << bit;
        self.poke_bytes(addr, &b);
    }

    /// Iterates `(page_base, page_bytes)` in address order, for hashing
    /// and state comparison.
    pub fn pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.pages.iter().map(|(&b, s)| (b, &s.page.data[..]))
    }

    /// Number of pages whose bodies are physically shared (same `Arc`
    /// allocation) between this image and `other` — the copy-on-write
    /// savings a clone currently enjoys. Pages mapped at the same base
    /// but already un-shared by a store count zero.
    pub fn shared_page_count(&self, other: &Memory) -> usize {
        self.pages
            .iter()
            .filter(|(base, slot)| {
                other.pages.get(base).is_some_and(|o| Arc::ptr_eq(&slot.page, &o.page))
            })
            .count()
    }

    /// Incremental digest of the full memory image: the XOR of every
    /// page's digest (each keyed by its base and permissions) plus the
    /// page count. Stores invalidate only the written page's cached
    /// digest, so this recomputes O(pages dirtied since the last call)
    /// rather than re-walking the image — equal images always produce
    /// equal fingerprints, regardless of store history, and a changed
    /// word on any one page always changes it. Campaigns compare an end
    /// state against a golden reference through it, without keeping the
    /// golden `Memory` alive (64-bit collisions are negligible at
    /// campaign scale).
    pub fn fingerprint(&mut self) -> u64 {
        while let Some(base) = self.dirty.pop() {
            let slot = self.pages.get_mut(&base).expect("dirty page is mapped");
            let d = page_digest(base, &slot.page);
            slot.digest = Some(d);
            self.clean_xor ^= d;
        }
        self.clean_xor ^ (self.pages.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn map_rounds_to_pages() {
        let mut m = Memory::new();
        m.map(0x1800, 0x1000, Perm::RW); // straddles two pages
        assert!(m.is_mapped(0x1000));
        assert!(m.is_mapped(0x2fff));
        assert!(!m.is_mapped(0x3000));
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn zero_length_map_is_noop() {
        let mut m = Memory::new();
        m.map(0x1000, 0, Perm::RW);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn load_store_roundtrip_all_widths() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RW);
        for (len, val) in [(1u64, 0xab), (2, 0xabcd), (4, 0xdead_beef), (8, 0x0123_4567_89ab_cdef)]
        {
            m.store(0x1000, len, val).unwrap();
            assert_eq!(m.load(0x1000, len).unwrap(), val);
        }
    }

    #[test]
    fn store_is_little_endian() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RW);
        m.store(0x1000, 4, 0x0102_0304).unwrap();
        assert_eq!(m.load(0x1000, 1).unwrap(), 0x04);
        assert_eq!(m.load(0x1003, 1).unwrap(), 0x01);
    }

    #[test]
    fn misaligned_access_faults() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RW);
        assert!(matches!(
            m.load(0x1001, 8),
            Err(MemError::Misaligned { addr: 0x1001, access: AccessKind::Load })
        ));
        assert!(matches!(m.store(0x1002, 4, 0), Err(MemError::Misaligned { .. })));
        // Byte accesses never misalign.
        assert!(m.load(0x1001, 1).is_ok());
    }

    #[test]
    fn protection_enforced() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::R);
        assert!(m.load(0x1000, 8).is_ok());
        assert!(matches!(m.store(0x1000, 8, 1), Err(MemError::Protection { .. })));
        assert!(matches!(m.fetch(0x1000), Err(MemError::Protection { .. })));
        m.map(0x2000, 0x1000, Perm::RX);
        assert!(m.fetch(0x2000).is_ok());
    }

    #[test]
    fn unmapped_access_faults_with_address() {
        let m = Memory::new();
        let e = m.load(0xdead_0000, 8).unwrap_err();
        assert_eq!(e.addr(), 0xdead_0000);
        assert!(e.to_string().contains("unmapped"));
    }

    #[test]
    fn fetch_requires_alignment() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RX);
        assert!(matches!(m.fetch(0x1002), Err(MemError::Misaligned { .. })));
    }

    #[test]
    fn flip_bit_flips_exactly_one_bit() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RW);
        m.store(0x1000, 1, 0b1010).unwrap();
        m.flip_bit(0x1000, 0);
        assert_eq!(m.load(0x1000, 1).unwrap(), 0b1011);
        m.flip_bit(0x1000, 3);
        assert_eq!(m.load(0x1000, 1).unwrap(), 0b0011);
    }

    #[test]
    fn clone_then_diverge() {
        let mut a = Memory::new();
        a.map(0x1000, 0x1000, Perm::RW);
        a.store_u64(0x1000, 7).unwrap();
        let mut b = a.clone();
        assert_eq!(a, b);
        b.store_u64(0x1000, 8).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.load_u64(0x1000).unwrap(), 7);
    }

    #[test]
    fn clone_shares_pages_until_first_store() {
        let mut a = Memory::new();
        a.map(0x1000, 2 * PAGE_SIZE, Perm::RW);
        a.store_u64(0x1000, 7).unwrap();
        let mut b = a.clone();
        for (base, slot) in a.pages.iter() {
            assert!(Arc::ptr_eq(&slot.page, &b.pages[base].page), "page {base:#x} copied eagerly");
        }
        // A store to one page un-shares exactly that page.
        b.store_u64(0x1000, 8).unwrap();
        assert!(!Arc::ptr_eq(&a.pages[&0x1000].page, &b.pages[&0x1000].page));
        assert!(Arc::ptr_eq(&a.pages[&0x2000].page, &b.pages[&0x2000].page));
        assert_eq!(a.load_u64(0x1000).unwrap(), 7, "original must not see the clone's store");
        assert_eq!(b.load_u64(0x1000).unwrap(), 8);
    }

    #[test]
    fn shared_page_count_tracks_cow_divergence() {
        let mut a = Memory::new();
        a.map(0x1000, 3 * PAGE_SIZE, Perm::RW);
        let mut b = a.clone();
        assert_eq!(a.shared_page_count(&b), 3);
        assert_eq!(b.shared_page_count(&a), 3);
        b.store_u64(0x1000, 1).unwrap();
        assert_eq!(a.shared_page_count(&b), 2, "store un-shares exactly one page");
        // A page mapped in only one image never counts as shared.
        b.map(0x9000, PAGE_SIZE, Perm::RW);
        assert_eq!(b.shared_page_count(&a), 2);
        // Unrelated images share nothing even when contents are equal.
        let mut c = Memory::new();
        c.map(0x1000, 3 * PAGE_SIZE, Perm::RW);
        assert_eq!(a.shared_page_count(&c), 0);
    }

    /// The same image built from scratch: every page mapped with its
    /// permissions and filled, with no digest ever cached.
    fn rebuilt(m: &Memory) -> Memory {
        let mut fresh = Memory::new();
        for (base, bytes) in m.pages() {
            fresh.map(base, PAGE_SIZE, m.perm_at(base).expect("mapped"));
            fresh.poke_bytes(base, bytes);
        }
        fresh
    }

    #[test]
    fn fingerprint_tracks_equality() {
        let mut a = Memory::new();
        a.map(0x1000, 0x1000, Perm::RW);
        a.store_u64(0x1000, 7).unwrap();
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.store_u64(0x1000, 8).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Writing the old value back restores the fingerprint: it depends
        // on contents, not store history.
        a.store_u64(0x1000, 7).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Same contents, different permissions.
        a.map(0x1000, 0x1000, Perm::R);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // And the digest cache never drifts from a from-scratch digest.
        a.map(0x1000, 0x1000, Perm::RW);
        assert_eq!(a.fingerprint(), rebuilt(&a).fingerprint());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_tracks_equality_of_independent_images() {
        let build = |value: u64, perm: Perm| {
            let mut m = Memory::new();
            m.map(0x1000, 2 * PAGE_SIZE, Perm::RW);
            m.store_u64(0x1ff8, value).unwrap();
            m.map(0x2000, PAGE_SIZE, perm);
            m
        };
        assert_eq!(build(7, Perm::RW).fingerprint(), build(7, Perm::RW).fingerprint());
        assert_ne!(build(7, Perm::RW).fingerprint(), build(8, Perm::RW).fingerprint());
        // Same contents, different permissions.
        assert_ne!(build(7, Perm::RW).fingerprint(), build(7, Perm::R).fingerprint());
    }

    #[test]
    fn fingerprint_sees_every_bit_of_a_mapped_page() {
        let mut m = Memory::new();
        m.map(0x1000, 2 * PAGE_SIZE, Perm::RW);
        m.store_u64(0x2010, 0xdead_beef).unwrap();
        let before = m.fingerprint();
        for addr in 0x2000..0x2000 + PAGE_SIZE {
            for bit in 0..8 {
                m.flip_bit(addr, bit);
                assert_ne!(m.fingerprint(), before, "flip of bit {bit} at {addr:#x} unseen");
                m.flip_bit(addr, bit);
            }
        }
        assert_eq!(m.fingerprint(), before);
    }

    #[test]
    fn fingerprint_distinguishes_page_placement() {
        let mut a = Memory::new();
        a.map(0x1000, 0x1000, Perm::RW);
        let mut b = Memory::new();
        b.map(0x2000, 0x1000, Perm::RW);
        assert_ne!(a.fingerprint(), b.fingerprint(), "page base must key the digest");
        let mut c = Memory::new();
        c.map(0x1000, 0x2000, Perm::RW);
        assert_ne!(a.fingerprint(), c.fingerprint(), "page count must matter");
    }

    #[test]
    fn fingerprint_cache_survives_clone() {
        let mut a = Memory::new();
        a.map(0x1000, 0x1000, Perm::RW);
        a.store_u64(0x1008, 3).unwrap();
        let fresh = a.fingerprint();
        // Clone after the cache is warm, dirty one page, and check the
        // incremental recombination against a from-scratch image.
        let mut b = a.clone();
        b.store_u64(0x1008, 4).unwrap();
        b.store_u64(0x1008, 3).unwrap();
        assert_eq!(b.fingerprint(), fresh);
        assert_eq!(a.fingerprint(), fresh);
    }

    #[test]
    fn fused_accesses_fail_in_check_order() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE, Perm::R);
        m.map(0x2000, PAGE_SIZE, Perm::RW);
        m.map(0x3000, PAGE_SIZE, Perm::RX);
        for addr in [0x0ffe, 0x1000, 0x1002, 0x1ffc, 0x2001, 0x2004, 0x3002, 0x3ffc, 0x4000] {
            for len in [1, 2, 4, 8] {
                let load = m.check(addr, len, AccessKind::Load);
                assert_eq!(m.load(addr, len).map(|_| ()), load, "load {addr:#x}/{len}");
                let store = m.check(addr, len, AccessKind::Store);
                assert_eq!(m.clone().store(addr, len, 1), store, "store {addr:#x}/{len}");
            }
            let fetch = m.check(addr, 4, AccessKind::Fetch);
            assert_eq!(m.fetch(addr).map(|_| ()), fetch, "fetch {addr:#x}");
        }
    }

    #[test]
    fn peek_and_poke_span_pages() {
        let mut m = Memory::new();
        m.map(0x1000, 2 * PAGE_SIZE, Perm::R);
        let bytes: Vec<u8> = (0..=255).collect();
        m.poke_bytes(0x1f80, &bytes);
        let mut out = vec![0u8; bytes.len()];
        m.peek_bytes(0x1f80, &mut out);
        assert_eq!(out, bytes);
        assert_eq!(
            m.load(0x1ff8, 8).unwrap(),
            u64::from_le_bytes(bytes[120..128].try_into().unwrap())
        );
        assert_eq!(m.load(0x2000, 1).unwrap(), 128);
        assert_eq!(m.fingerprint(), rebuilt(&m).fingerprint());
    }

    #[test]
    #[should_panic(expected = "peek of unmapped 0x2000")]
    fn peek_past_the_last_page_panics_at_the_first_unmapped_byte() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE, Perm::RW);
        m.peek_bytes(0x1ffc, &mut [0u8; 8]);
    }

    #[test]
    fn exec_epoch_moves_exactly_when_an_executable_page_changes() {
        let mut m = Memory::new();
        assert_eq!(m.exec_epoch(), 0);
        m.map(0x1000, PAGE_SIZE, Perm::RW);
        m.store_u64(0x1000, 1).unwrap();
        m.poke_bytes(0x1008, &[1]);
        assert_eq!(m.exec_epoch(), 0, "data pages never move the epoch");
        m.map(0x2000, PAGE_SIZE, Perm::RX);
        let mapped = m.exec_epoch();
        assert_ne!(mapped, 0);
        let clone = m.clone();
        assert_eq!(clone.exec_epoch(), mapped, "clones keep the epoch");
        m.poke_bytes(0x2000, &[1]);
        let poked = m.exec_epoch();
        assert_ne!(poked, mapped);
        m.map(0x2000, PAGE_SIZE, Perm::R);
        assert_ne!(m.exec_epoch(), poked, "losing execute moves it");
        let lost = m.exec_epoch();
        m.map(0x1000, PAGE_SIZE, Perm::RX);
        assert_ne!(m.exec_epoch(), lost, "gaining execute moves it");
        let mut other = Memory::new();
        other.map(0x2000, PAGE_SIZE, Perm::RX);
        assert_ne!(other.exec_epoch(), mapped, "independent images never share an epoch");
    }

    #[test]
    fn remap_updates_perm_keeps_contents() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RW);
        m.store_u64(0x1000, 99).unwrap();
        m.map(0x1000, 0x1000, Perm::R);
        assert_eq!(m.load_u64(0x1000).unwrap(), 99);
        assert!(m.store_u64(0x1000, 1).is_err());
    }

    /// One step of [`incremental_fingerprint_matches_a_fresh_image`].
    #[derive(Debug, Clone)]
    enum Op {
        Store { slot: u64, len_log2: u64, value: u64 },
        Fingerprint,
        Fork,
        Remap { page: u64, writable: bool },
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0u64..3 * 512, 0u64..4, any::<u64>())
                .prop_map(|(slot, len_log2, value)| Op::Store { slot, len_log2, value }),
            1 => Just(Op::Fingerprint),
            1 => Just(Op::Fork),
            1 => (0u64..3, any::<bool>()).prop_map(|(page, writable)| Op::Remap { page, writable }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A digest kept incrementally — across clones, random stores and
        /// permission changes, with fingerprints taken at arbitrary points
        /// — equals the digest of the same image built from scratch.
        #[test]
        fn incremental_fingerprint_matches_a_fresh_image(
            ops in proptest::collection::vec(op(), 1..64),
        ) {
            let mut m = Memory::new();
            m.map(0x1000, 3 * PAGE_SIZE, Perm::RW);
            let mut forks = Vec::new();
            for op in ops {
                match op {
                    Op::Store { slot, len_log2, value } => {
                        let _ = m.store(0x1000 + slot * 8, 1 << len_log2, value);
                    }
                    Op::Fingerprint => {
                        m.fingerprint();
                    }
                    Op::Fork => {
                        let fork = m.clone();
                        forks.push(std::mem::replace(&mut m, fork));
                    }
                    Op::Remap { page, writable } => {
                        let perm = if writable { Perm::RW } else { Perm::R };
                        m.map(0x1000 + page * PAGE_SIZE, PAGE_SIZE, perm);
                    }
                }
            }
            let mut fresh = rebuilt(&m);
            prop_assert!(fresh == m);
            prop_assert_eq!(m.fingerprint(), fresh.fingerprint());
            // Every fork left behind still digests like its own contents.
            for mut f in forks {
                prop_assert_eq!(f.fingerprint(), rebuilt(&f).fingerprint());
            }
        }
    }
}
