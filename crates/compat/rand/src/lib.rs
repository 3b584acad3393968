//! Offline stand-in for the tiny slice of the `rand` crate API this
//! workspace uses (`StdRng`, `SeedableRng::seed_from_u64`, `Rng::gen`,
//! `Rng::gen_range` over `u64` ranges, and `SliceRandom::shuffle`).
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this deterministic implementation instead. The generator is
//! xoshiro256++ seeded through SplitMix64 — statistically solid for
//! workload generation and, crucially, **stable across platforms and
//! releases**, which the simulator's byte-identical-artifact guarantee
//! relies on. It makes no cryptographic claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Types drawable from a generator via [`Rng::gen`].
pub trait Standard {
    /// Draws one value from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// A source of random bits plus the derived sampling helpers.
pub trait Rng {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Draws one value of an inferrable type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform draw from `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "cannot sample from an empty range");
        let span = range.end - range.start;
        // Modulo bias is < 2^-53 for every span this workspace uses.
        range.start + self.next_u64() % span
    }
}

/// Construction of a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Expands `state` into a full generator seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// The SplitMix64 output function, used for seed expansion.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generator implementations.
pub mod rngs {
    use super::{splitmix64, Rng, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            // All-zero state is the one degenerate case; SplitMix64 cannot
            // produce four zero words from any seed, but keep the guard.
            if s == [0; 4] {
                s[0] = 1;
            }
            Self { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

/// Slice helpers.
pub mod seq {
    use super::Rng;

    /// In-place random reordering of slices.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle driven by `rng`.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(10..17);
            assert!((10..17).contains(&v));
        }
    }

    #[test]
    fn f64_is_unit_interval_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut below_half = 0u32;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            if u < 0.5 {
                below_half += 1;
            }
        }
        assert!((4_500..5_500).contains(&below_half), "heavily biased: {below_half}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u64> = (0..100).collect();
        v.shuffle(&mut rng);
        assert_ne!(v, (0..100).collect::<Vec<u64>>(), "shuffle left input in place");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u64>>());
    }
}
