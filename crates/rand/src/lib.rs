//! Offline stand-in for the [`rand`](https://crates.io/crates/rand)
//! crate (0.8 API subset).
//!
//! This workspace builds in environments with no access to crates.io,
//! so the external generators are replaced by this vendored shim. It
//! implements exactly the surface the workspace uses:
//!
//! * [`RngCore`], [`SeedableRng`], [`Error`] — the core traits,
//!   object-safe like upstream (`&mut dyn RngCore` works).
//! * [`Rng`] — `gen`, `gen_range`, `gen_bool`, blanket-implemented for
//!   every `RngCore` (including unsized trait objects).
//! * [`rngs::StdRng`] — a deterministic xoshiro256++ generator. Its
//!   stream differs from upstream `StdRng` (upstream is ChaCha12 and
//!   makes no cross-version stream promises either); everything in this
//!   workspace only relies on determinism for a fixed seed.
//! * [`seq::SliceRandom`] — `shuffle` (Fisher-Yates, identical
//!   algorithm to upstream) and `choose`.
//!
//! All generators are fully deterministic functions of their seed; no
//! OS entropy is ever read.

#![forbid(unsafe_code)]

use std::fmt;

/// Error type for fallible RNG operations. The shim's generators never
/// fail, so this is only ever constructed by external implementors.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("random number generator failure")
    }
}

impl std::error::Error for Error {}

/// The core of a random number generator (object safe).
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Fills `dest` with random bytes, reporting failure.
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error>;
    /// Reveals the concrete generator behind a `&mut dyn RngCore`, if
    /// the implementation opts in by returning `Some(self)`.
    ///
    /// Hot loops that receive a trait object can downcast the result
    /// once and dispatch into a monomorphized inner loop, instead of
    /// paying a virtual call per draw (upstream rand has no such hook;
    /// this shim adds it because the workspace's public refinement API
    /// is `&mut dyn RngCore`). The default opts out, which is always
    /// correct — callers must keep a `dyn` fallback path that produces
    /// the same draw stream.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        (**self).try_fill_bytes(dest)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        (**self).as_any_mut()
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        (**self).try_fill_bytes(dest)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        (**self).as_any_mut()
    }
}

/// A generator that can be instantiated from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// Seed type, e.g. `[u8; 32]`.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Creates a generator from a seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates a generator from a `u64`, expanding it into a full seed
    /// with SplitMix64 (same construction as upstream rand 0.8).
    fn seed_from_u64(mut state: u64) -> Self {
        // Upstream uses splitmix64 to fill the seed 4 bytes at a time
        // from the low half of each output.
        const MUL1: u64 = 0xBF58_476D_1CE4_E5B9;
        const MUL2: u64 = 0x94D0_49BB_1331_11EB;
        const INC: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_add(INC);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(MUL1);
            z = (z ^ (z >> 27)).wrapping_mul(MUL2);
            z ^= z >> 31;
            let bytes = (z as u32).to_le_bytes();
            let len = chunk.len();
            chunk.copy_from_slice(&bytes[..len]);
        }
        Self::from_seed(seed)
    }

    /// Creates a generator seeded from another generator.
    fn from_rng<R: RngCore>(mut rng: R) -> Result<Self, Error> {
        let mut seed = Self::Seed::default();
        rng.try_fill_bytes(seed.as_mut())?;
        Ok(Self::from_seed(seed))
    }
}

mod sealed {
    /// Marker so downstream code cannot add `StandardSample`/`UniformSampler`
    /// impls that would silently diverge from upstream rand semantics.
    pub trait Sealed {}
    impl Sealed for bool {}
    impl Sealed for u8 {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for usize {}
    impl Sealed for i32 {}
    impl Sealed for i64 {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Types `Rng::gen` can produce (the `Standard` distribution of
/// upstream rand, inlined).
pub trait StandardSample: sealed::Sealed + Sized {
    /// Draws one value from the standard distribution.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        // Upstream: one bit of a u32.
        (rng.next_u32() as i32) < 0
    }
}

impl StandardSample for u8 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u8 {
        rng.next_u32() as u8
    }
}

impl StandardSample for u16 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u16 {
        rng.next_u32() as u16
    }
}

impl StandardSample for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl StandardSample for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl StandardSample for usize {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl StandardSample for i32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> i32 {
        rng.next_u32() as i32
    }
}

impl StandardSample for i64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> i64 {
        rng.next_u64() as i64
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        // 24 random mantissa bits scaled into [0, 1).
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits scaled into [0, 1) — upstream's
        // `Standard` for f64.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Integer types `gen_range` supports.
pub trait UniformSampler: sealed::Sealed + Copy + PartialOrd {
    /// Draws a value uniform in `[low, high)`. `low < high` must hold.
    fn sample_below<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

/// A value uniform in `[0, span)`, `span >= 1`, by widening-multiply
/// rejection sampling (Lemire): unbiased and branch-light. A draw is
/// rejected when the low half of `x · span` falls below `2^64 mod span`;
/// that remainder is below `span`, so it is computed only in the rare
/// case that the low half is below `span` itself.
fn sample_offset<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0, "gen_range called with an empty range");
    let mut m = u128::from(rng.next_u64()) * u128::from(span);
    if (m as u64) < span {
        let reject_below = span.wrapping_neg() % span;
        while (m as u64) < reject_below {
            m = u128::from(rng.next_u64()) * u128::from(span);
        }
    }
    (m >> 64) as u64
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSampler for $t {
            fn sample_below<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t) -> $t {
                let span = (high as i128 - low as i128) as u64;
                (low as i128 + i128::from(sample_offset(rng, span))) as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i32, i64);

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: UniformSampler> SampleRange<T> for std::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_below(rng, self.start, self.end)
    }
}

macro_rules! impl_inclusive_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (low, high) = (*self.start(), *self.end());
                assert!(low <= high, "cannot sample empty range");
                if low == <$t>::MIN && high == <$t>::MAX {
                    return StandardSample::sample_standard(rng);
                }
                // Not the full range, so the span fits a u64 even
                // where `high + 1` would overflow.
                let span = (high as i128 - low as i128 + 1) as u64;
                (low as i128 + i128::from(sample_offset(rng, span))) as $t
            }
        }
    )*};
}

impl_inclusive_range!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit: f64 = StandardSample::sample_standard(rng);
        self.start + (self.end - self.start) * unit
    }
}

/// Convenience methods on every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value from the standard distribution (`[0, 1)` for
    /// floats, uniform for integers, fair coin for `bool`).
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.gen::<f64>() < p
    }

    /// Fills `dest` entirely with random data.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{Error, RngCore, SeedableRng};

    /// A deterministic xoshiro256++ generator standing in for upstream
    /// `StdRng`.
    ///
    /// Statistically strong (passes BigCrush in its published form) and
    /// fully reproducible from its seed. The stream is NOT the upstream
    /// ChaCha12 stream; upstream explicitly reserves the right to change
    /// streams between versions, and this workspace depends only on
    /// within-build determinism.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            let mut chunks = dest.chunks_exact_mut(8);
            for chunk in &mut chunks {
                chunk.copy_from_slice(&self.next_u64().to_le_bytes());
            }
            let rem = chunks.into_remainder();
            if !rem.is_empty() {
                let word = self.next_u64().to_le_bytes();
                rem.copy_from_slice(&word[..rem.len()]);
            }
        }

        fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
            self.fill_bytes(dest);
            Ok(())
        }

        fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> StdRng {
            let mut s = [0u64; 4];
            for (word, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
                *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            // The all-zero state is a fixpoint of xoshiro; nudge it.
            if s == [0; 4] {
                s = [
                    0x9E37_79B9_7F4A_7C15,
                    0xBF58_476D_1CE4_E5B9,
                    0x94D0_49BB_1331_11EB,
                    0x2545_F491_4F6C_DD1D,
                ];
            }
            StdRng { s }
        }
    }
}

pub mod seq {
    //! Sequence-related helpers.

    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Shuffles the slice in place (Fisher-Yates, same algorithm and
        /// draw order as upstream rand 0.8).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Returns a uniformly random element, or `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

pub mod prelude {
    //! Common imports, mirroring `rand::prelude`.
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn std_rng_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn std_rng_seed_sensitivity() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&x));
            let y: u32 = rng.gen_range(0..=4);
            assert!(y <= 4);
            let f: f64 = rng.gen_range(0.25..0.5);
            assert!((0.25..0.5).contains(&f));
        }
    }

    /// The sampler before its nearly divisionless form: the rejection
    /// threshold `2^64 mod span` as a `u128` remainder on every draw.
    fn sample_offset_reference<R: RngCore>(rng: &mut R, span: u64) -> u64 {
        let span = u128::from(span);
        let zone = u128::from(u64::MAX) + 1;
        let reject_below = zone % span;
        loop {
            let m = u128::from(rng.next_u64()) * span;
            if (m % zone) >= reject_below || reject_below == 0 {
                return (m / zone) as u64;
            }
        }
    }

    #[test]
    fn sample_offset_matches_the_reference_draw_for_draw() {
        let mut spans = vec![1u64, 2, 3, 5, 7, 10, 100, 1000, 12_345];
        spans.extend([
            1 << 32,
            (1 << 32) + 1,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
        ]);
        spans.extend([u64::MAX / 3, u64::MAX - 1, u64::MAX]);
        let mut rng = StdRng::seed_from_u64(1989);
        let mut reference = rng.clone();
        for (i, &span) in spans.iter().cycle().take(spans.len() * 500).enumerate() {
            let got = super::sample_offset(&mut rng, span);
            let want = sample_offset_reference(&mut reference, span);
            assert_eq!(got, want, "draw {i}, span {span}");
            assert!(got < span);
            // Same number of generator words consumed.
            assert_eq!(rng, reference, "draw {i}, span {span}");
        }
    }

    #[test]
    fn inclusive_ranges_ending_at_max() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 256];
        for _ in 0..20_000 {
            let x: u8 = rng.gen_range(1..=u8::MAX);
            assert!(x >= 1);
            seen[x as usize] = true;
        }
        assert!(!seen[0] && seen[1..].iter().all(|&s| s));
        let mut top = [false; 3];
        for _ in 0..200 {
            let y: u64 = rng.gen_range(u64::MAX - 2..=u64::MAX);
            top[(u64::MAX - y) as usize] = true;
            assert!(rng.gen_range(1..=u64::MAX) >= 1);
            let z: i64 = rng.gen_range(i64::MAX - 1..=i64::MAX);
            assert!(z >= i64::MAX - 1);
        }
        assert_eq!(top, [true; 3]);
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.gen_range(0..5usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_float_in_range() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(5);
        let trues = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4_500..5_500).contains(&trues), "{trues}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn choose_none_on_empty() {
        let mut rng = StdRng::seed_from_u64(1);
        let empty: [u8; 0] = [];
        assert_eq!(empty.choose(&mut rng), None);
        assert_eq!([7u8].choose(&mut rng), Some(&7));
    }

    #[test]
    fn dyn_rng_core_usable() {
        let mut rng = StdRng::seed_from_u64(4);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let x: f64 = dyn_rng.gen();
        assert!((0.0..1.0).contains(&x));
        let n = dyn_rng.gen_range(0..10usize);
        assert!(n < 10);
    }

    #[test]
    fn as_any_mut_recovers_concrete_type_through_indirection() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut reference = rng.clone();
        // Through `&mut dyn RngCore`, and through the `&mut R` blanket
        // impl nested behind it, the original StdRng is recoverable and
        // shares state with the trait object.
        let mut via: &mut dyn RngCore = &mut rng;
        let dyn_rng: &mut dyn RngCore = &mut via;
        let recovered = dyn_rng
            .as_any_mut()
            .and_then(|any| any.downcast_mut::<StdRng>())
            .expect("StdRng opts into as_any_mut");
        assert_eq!(recovered.next_u64(), reference.next_u64());
        assert_eq!(rng.next_u64(), reference.next_u64());
    }

    #[test]
    fn as_any_mut_defaults_to_opt_out() {
        struct Opaque(StdRng);
        impl RngCore for Opaque {
            fn next_u32(&mut self) -> u32 {
                self.0.next_u32()
            }
            fn next_u64(&mut self) -> u64 {
                self.0.next_u64()
            }
            fn fill_bytes(&mut self, dest: &mut [u8]) {
                self.0.fill_bytes(dest)
            }
            fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), super::Error> {
                self.0.try_fill_bytes(dest)
            }
        }
        let mut rng = Opaque(StdRng::seed_from_u64(4));
        let dyn_rng: &mut dyn RngCore = &mut rng;
        assert!(dyn_rng.as_any_mut().is_none());
    }

    #[test]
    fn fill_bytes_tail_handled() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn from_rng_chains() {
        let mut base = StdRng::seed_from_u64(10);
        let mut derived = StdRng::from_rng(&mut base).unwrap();
        let mut base2 = StdRng::seed_from_u64(10);
        let mut derived2 = StdRng::from_rng(&mut base2).unwrap();
        assert_eq!(derived.next_u64(), derived2.next_u64());
    }
}
