//! Offline stand-in for the subset of `rand` 0.8 this workspace uses.
//!
//! The build container has no access to crates.io, so the workspace
//! replaces the external `rand` with this shim (see `shims/README.md`).
//! It provides [`rngs::StdRng`], [`SeedableRng`], and the [`Rng`]
//! extension trait with `gen`, `gen_range`, and `gen_bool`.
//!
//! `StdRng` here is xoshiro256++ seeded by splitmix64 expansion — a
//! different stream than upstream's ChaCha12-based `StdRng`, but the
//! workspace only relies on seed-reproducibility and statistical
//! quality, never on the exact upstream stream (campaign seeds are
//! documented as implementation-defined; see DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(
    clippy::disallowed_methods,
    reason = "this crate defines `seed_from_u64`; its tests seed literals to pin its streams"
)]

use std::ops::{Range, RangeInclusive};

/// Core uniform bit source (subset of `rand_core::RngCore`).
pub trait RngCore {
    /// Next 32 uniform bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    /// Next 64 uniform bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Seedable construction (subset of `rand_core::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Fixed-size seed type.
    type Seed: AsMut<[u8]> + Default;

    /// Builds the generator from a full-entropy seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanding it with splitmix64
    /// exactly like upstream `rand_core` does.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = splitmix64(&mut sm).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// One splitmix64 step: advances `state` and returns the next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Types drawable uniformly over their whole domain via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value.
    fn draw(rng: &mut dyn RngCore) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn draw(rng: &mut dyn RngCore) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn draw(rng: &mut dyn RngCore) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    #[inline]
    fn draw(rng: &mut dyn RngCore) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn draw(rng: &mut dyn RngCore) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types [`Rng::gen_range`] can draw uniformly (mirrors
/// `rand::distributions::uniform::SampleUniform` closely enough that
/// type inference flows the same way — the `Range<T>: SampleRange<T>`
/// impl below must stay generic so `gen_range(0..3)` unifies with its
/// use site, e.g. a slice index).
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform draw from `[lo, hi)`.
    fn sample_range(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_inclusive(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_range(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "cannot sample empty range");
                lo + bounded_u64(rng, (hi - lo) as u64) as $t
            }
            #[inline]
            fn sample_inclusive(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + bounded_u64(rng, span + 1) as $t
            }
        }
    )*};
}
impl_sample_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_range(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + bounded_u64(rng, span) as i128) as $t
            }
            #[inline]
            fn sample_inclusive(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + bounded_u64(rng, span + 1) as i128) as $t
            }
        }
    )*};
}
impl_sample_uniform_int!(i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    #[inline]
    fn sample_range(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "cannot sample empty range");
        lo + f64::draw(rng) * (hi - lo)
    }
    #[inline]
    fn sample_inclusive(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self {
        assert!(lo <= hi, "cannot sample empty range");
        lo + f64::draw(rng) * (hi - lo)
    }
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from(self, rng: &mut dyn RngCore) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_from(self, rng: &mut dyn RngCore) -> T {
        T::sample_range(rng, self.start, self.end)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample_from(self, rng: &mut dyn RngCore) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// Uniform draw in `[0, n)` without modulo bias (Lemire rejection).
#[inline]
fn bounded_u64(rng: &mut dyn RngCore, n: u64) -> u64 {
    debug_assert!(n > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128).wrapping_mul(n as u128);
        let lo = m as u64;
        if lo >= n.wrapping_neg() % n.max(1) || n.is_power_of_two() {
            return (m >> 64) as u64;
        }
    }
}

/// User-facing extension methods (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a value uniform over the type's whole domain.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::draw(self)
    }

    /// Draws a value uniformly from `range`.
    #[inline]
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p={p} out of range");
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// Deterministic, seedable generator (xoshiro256++ under the hood;
    /// upstream uses ChaCha12 — see the crate docs for why the stream
    /// difference is acceptable here).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            // An all-zero state is the one fixed point of xoshiro.
            if s == [0; 4] {
                s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
            }
            StdRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeding_is_reproducible() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut r = StdRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(0..10usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all cells hit: {seen:?}");
        for _ in 0..1000 {
            let v = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "{hits}");
    }
}
