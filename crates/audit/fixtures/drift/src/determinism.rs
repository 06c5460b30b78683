//! Banned nondeterministic constructs, scanned (never compiled) by the
//! `restore-audit` tests. Every defect here must keep producing its
//! finding — if the determinism lint stops seeing one, the lint
//! regressed, not this file.

/// Banned-construct canaries for the determinism lint, one finding per
/// line so the exact-count test stays legible.
pub fn nondeterministic_soup() -> u64 {
    let map = HashMap::<u64, u64>::new();
    let when = Instant::now();
    let mut rng = thread_rng();
    let seeded = StdRng::seed_from_u64(42);
    map.len() as u64 + when.elapsed().as_secs() + rng.next() + seeded.next()
}

/// A correctly exempted keyed-lookup cache: the `allow` below must be
/// honored (no finding, one exemption counted).
// determinism: allow -- keyed lookup only; fixture twin of the snapshot cache
pub type KeyedCache = HashSet<u64>;

/// This allow covers nothing within reach: the lint must report
/// `dangling-determinism-allow` so stale exemptions cannot pile up.
// determinism: allow -- exempts nothing and must be flagged as dangling
pub fn perfectly_deterministic() -> u64 {
    7
}

/// A reasonless allow: `malformed-determinism-exemption`, and the
/// wall-clock read it fails to cover is still a finding.
// determinism: allow
pub fn reasonless() -> u64 {
    SystemTime::now().elapsed().as_secs()
}
