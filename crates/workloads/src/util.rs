//! Shared helpers for workload construction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Packs a slice of `u64` words into little-endian bytes for a data
/// segment.
pub fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Deterministic RNG for workload data generation.
#[expect(
    clippy::disallowed_methods,
    reason = "workload data is seeded by each generator's fixed scale seed, not a campaign stream"
)]
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A random permutation of `0..n`.
pub fn permutation(r: &mut StdRng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    // Fisher-Yates.
    for i in (1..n).rev() {
        let j = r.gen_range(0..=i);
        v.swap(i, j);
    }
    v
}

/// A byte buffer with skewed symbol frequencies and repeated runs, shaped
/// like compressible text (for the compression-flavoured kernels).
pub fn compressible_bytes(r: &mut StdRng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let alphabet: Vec<u8> = (b'a'..=b'p').collect();
    while out.len() < len {
        if r.gen_bool(0.3) && out.len() > 8 {
            // Copy a short run from earlier in the buffer.
            let run = r.gen_range(3..=8usize).min(len - out.len());
            let src = r.gen_range(0..out.len().saturating_sub(run).max(1));
            for k in 0..run {
                let b = out[src + k];
                out.push(b);
            }
        } else {
            let idx = (r.gen_range(0f64..1f64).powi(2) * alphabet.len() as f64) as usize;
            out.push(alphabet[idx.min(alphabet.len() - 1)]);
        }
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip() {
        let w = [0x0102_0304_0506_0708u64, 42];
        let b = words_to_bytes(&w);
        assert_eq!(b.len(), 16);
        assert_eq!(b[0], 0x08);
        assert_eq!(u64::from_le_bytes(b[8..16].try_into().unwrap()), 42);
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut r = rng(7);
        let p = permutation(&mut r, 100);
        let mut seen = [false; 100];
        for &x in &p {
            assert!(!seen[x]);
            seen[x] = true;
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let a: Vec<u8> = compressible_bytes(&mut rng(3), 256);
        let b: Vec<u8> = compressible_bytes(&mut rng(3), 256);
        assert_eq!(a, b);
    }

    #[test]
    fn compressible_bytes_have_repeats() {
        let b = compressible_bytes(&mut rng(5), 4096);
        assert_eq!(b.len(), 4096);
        // Skewed alphabet: at most 16 distinct symbols.
        let distinct: std::collections::HashSet<u8> = b.iter().copied().collect();
        assert!(distinct.len() <= 16);
    }
}
