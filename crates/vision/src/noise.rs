//! Counter-keyed photon and sensor noise (imaging model v2).
//!
//! Every variate of a frame is a pure function of the frame's key, a
//! [`Domain`] and an index: [`NoiseStream`] is SplitMix64 seeded from
//! `(key, domain)` and read at any position, so no variate depends on
//! the order in which the others are drawn. [`render`](crate::image::render)
//! takes the key as the one draw it makes from the caller's generator.
//!
//! Only `rand`'s uniform bits are available offline, so the samplers are
//! built here: an inverse-CDF table for small Poisson means (one uniform
//! per variate), a clamped normal approximation for large ones, and
//! Marsaglia's polar method for Gaussian pairs. The derivation of every
//! variate is part of the imaging contract (see `docs/PROTOCOL.md`): a
//! change to it changes every frame and is a new imaging model version
//! ([`IMAGING_MODEL_VERSION`](crate::IMAGING_MODEL_VERSION)).

/// SplitMix64's increment, the golden-ratio Weyl constant.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output finalizer.
#[inline]
const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a variate is for. Each domain of a frame is an independent
/// stream, indexed as documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// The photon count of an occupied trap, indexed by its row-major
    /// trap index `row * cols + col`.
    TrapPhotons,
    /// The background photon count of a pixel, indexed by its row-major
    /// pixel index.
    Background,
    /// Read noise: one polar pair per two row-major pixels, indexed by
    /// the pair (`pixel / 2`).
    ReadNoise,
}

impl Domain {
    /// The constant XORed into the frame key to seed this domain.
    const fn salt(self) -> u64 {
        match self {
            Domain::TrapPhotons => 0x7472_6170_7068_6f74, // "trapphot"
            Domain::Background => 0x6261_636b_6772_6e64,  // "backgrnd"
            Domain::ReadNoise => 0x7265_6164_6e6f_6973,   // "readnois"
        }
    }
}

/// One domain's stream of a frame: SplitMix64 seeded at
/// `mix64(key ^ salt)`, read at random positions.
///
/// ```
/// use qrm_vision::noise::{Domain, NoiseStream};
/// let stream = NoiseStream::new(42, Domain::Background);
/// // Stateless: the same position always gives the same bits.
/// assert_eq!(stream.bits(7), stream.bits(7));
/// assert_ne!(stream.bits(7), NoiseStream::new(42, Domain::ReadNoise).bits(7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseStream {
    seed: u64,
}

impl NoiseStream {
    /// The stream of `domain` in the frame keyed by `key`.
    pub const fn new(key: u64, domain: Domain) -> Self {
        NoiseStream {
            seed: mix64(key ^ domain.salt()),
        }
    }

    /// The 64 bits at `index`: SplitMix64's output number `index`,
    /// `mix64(seed + (index + 1)·γ)`.
    #[inline]
    pub const fn bits(self, index: u64) -> u64 {
        mix64(
            self.seed
                .wrapping_add(index.wrapping_add(1).wrapping_mul(GAMMA)),
        )
    }

    /// A standard normal pair at `index` by Marsaglia's polar method.
    ///
    /// Attempt `a` of the pair reads `bits(index)` for `a = 0` and
    /// `mix64(bits(index) + a·γ)` after it; its two 32-bit halves (high
    /// half first) give a point of the open square `(-1, 1)²`, and the
    /// first point strictly inside the unit circle is kept. No attempt
    /// depends on another pair.
    #[inline]
    pub fn normal_pair(self, index: u64) -> (f64, f64) {
        let first = self.bits(index);
        let mut bits = first;
        let mut attempt = 0u64;
        loop {
            let (u, v) = (centred(bits >> 32), centred(bits & 0xffff_ffff));
            let s = u * u + v * v;
            if s < 1.0 {
                let scale = (-2.0 * s.ln() / s).sqrt();
                return (u * scale, v * scale);
            }
            attempt += 1;
            bits = mix64(first.wrapping_add(attempt.wrapping_mul(GAMMA)));
        }
    }
}

/// Maps 32 random bits onto the odd multiples of `2^-32` in `(-1, 1)`:
/// symmetric about zero and never zero, so a polar point's radius is
/// positive.
#[inline]
fn centred(half: u64) -> f64 {
    (half as f64 + 0.5) * (1.0 / (1u64 << 31) as f64) - 1.0
}

/// Means at or above this use the clamped normal approximation.
const NORMAL_APPROXIMATION_FROM: f64 = 30.0;

/// Bits of a Poisson uniform: `bits >> 11`, a uniform integer below
/// `2^53`.
const UNIFORM_BITS: u32 = 53;

/// The guide table indexes uniforms by their top 8 bits.
const GUIDE_BITS: u32 = 8;

/// A Poisson distribution with a fixed mean, set up once per frame and
/// sampled at stream positions.
///
/// Below `lambda = 30` a sample is one uniform `u = bits(index) >> 11`
/// (53 bits) turned into a count by the inverse CDF: the number of `k`
/// with `u < T[k]`, where `T[k] = ⌈P(X > k)·2^53⌉`. The survival function
/// is summed from the far tail down, so small tail probabilities keep
/// their relative precision, and cut where it falls below `2^-53`, the
/// uniform's resolution. `T` is non-increasing, so the count is the
/// length of the prefix of `T` above `u`; a 256-entry guide table
/// indexed by `u`'s top 8 bits holds the prefix length every `u` of
/// that bucket reaches, and the search continues from there (usually
/// with one compare that fails, a well-predicted branch).
///
/// From `lambda = 30` the sample is `round(max(0, lambda +
/// sqrt(lambda)·z))` with `z` the first variate of the stream's polar
/// pair at the index.
///
/// ```
/// use qrm_vision::noise::{Domain, NoiseStream, Poisson};
/// let stream = NoiseStream::new(1, Domain::Background);
/// let background = Poisson::new(2.0);
/// let n = 20_000;
/// let mean = (0..n).map(|i| background.sample(stream, i) as f64).sum::<f64>() / n as f64;
/// assert!((mean - 2.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Poisson {
    lambda: f64,
    /// `T[k]` for `k = 0, 1, …` while `P(X > k) >= 2^-53`; empty for the
    /// normal approximation and for `lambda = 0`.
    thresholds: Vec<u64>,
    /// `guide[j]`: the count for the largest `u` with top bits `j`, a
    /// lower bound for every `u` of bucket `j`.
    guide: Vec<u8>,
}

impl Poisson {
    /// Sets up sampling with mean `lambda`.
    ///
    /// # Panics
    ///
    /// Panics for negative or non-finite `lambda`.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "invalid poisson mean {lambda}"
        );
        if lambda == 0.0 || lambda >= NORMAL_APPROXIMATION_FROM {
            return Poisson {
                lambda,
                thresholds: Vec::new(),
                guide: Vec::new(),
            };
        }
        let scale = (1u64 << UNIFORM_BITS) as f64;
        let thresholds: Vec<u64> = survival(lambda)
            .into_iter()
            .map(|tail| (tail * scale).ceil() as u64)
            .collect();
        let shift = UNIFORM_BITS - GUIDE_BITS;
        let guide = (0..1u64 << GUIDE_BITS)
            .map(|bucket| {
                let last = ((bucket + 1) << shift) - 1;
                let count = thresholds.partition_point(|&t| last < t);
                u8::try_from(count).expect("tables below lambda 30 are short")
            })
            .collect();
        Poisson {
            lambda,
            thresholds,
            guide,
        }
    }

    /// The inverse-CDF thresholds `T[k]`, non-increasing (empty when no
    /// table is used).
    #[cfg(test)]
    pub(crate) fn thresholds(&self) -> &[u64] {
        &self.thresholds
    }

    /// The variate at `index` of `stream`.
    #[inline]
    pub fn sample(&self, stream: NoiseStream, index: u64) -> u64 {
        if self.lambda >= NORMAL_APPROXIMATION_FROM {
            let (z, _) = stream.normal_pair(index);
            return (self.lambda + self.lambda.sqrt() * z).max(0.0).round() as u64;
        }
        self.inverse_cdf(stream.bits(index) >> (64 - UNIFORM_BITS))
    }

    /// The count for the 53-bit uniform `u`: the length of the prefix
    /// of `T` above `u`, searched from `u`'s guide entry.
    #[inline]
    fn inverse_cdf(&self, u: u64) -> u64 {
        let Some(&start) = self.guide.get((u >> (UNIFORM_BITS - GUIDE_BITS)) as usize) else {
            return 0; // lambda = 0
        };
        let mut count = usize::from(start);
        while self.thresholds.get(count).is_some_and(|&t| u < t) {
            count += 1;
        }
        count as u64
    }
}

/// `P(X > k)` of a Poisson(`lambda`) variate for `k = 0, 1, …` while it
/// is at least `2^-53`, for `0 < lambda < 30`.
fn survival(lambda: f64) -> Vec<f64> {
    // The pmf by recurrence up to far past the mean (`exp(-lambda)` does
    // not underflow below 30); terms beyond are below 1e-40 of the tail
    // kept.
    let last = (lambda + 20.0 * lambda.sqrt() + 40.0) as usize;
    let mut pmf = Vec::with_capacity(last + 1);
    let mut p = (-lambda).exp();
    for k in 0..=last {
        pmf.push(p);
        p *= lambda / (k + 1) as f64;
    }
    let mut survival = vec![0.0; last];
    let mut tail = 0.0;
    for k in (0..last).rev() {
        tail += pmf[k + 1];
        survival[k] = tail;
    }
    let cut = survival.partition_point(|&s| s >= f64::EPSILON / 2.0);
    survival.truncate(cut);
    survival
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean and population variance.
    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn poisson_moments_across_regimes() {
        let n = 20_000u64;
        for (i, lambda) in [0.0, 0.3, 2.0, 4.0, 29.9, 30.0, 400.0]
            .into_iter()
            .enumerate()
        {
            let stream = NoiseStream::new(0x5eed + i as u64, Domain::Background);
            let sampler = Poisson::new(lambda);
            let samples: Vec<f64> = (0..n).map(|k| sampler.sample(stream, k) as f64).collect();
            let (mean, var) = moments(&samples);
            if lambda == 0.0 {
                assert_eq!((mean, var), (0.0, 0.0));
                continue;
            }
            // 4.2 standard errors of the mean, 5 of the variance (the
            // Knuth sampler's tests allowed 8 and 7.5).
            let n = n as f64;
            let mean_margin = 4.2 * (lambda / n).sqrt();
            let var_margin = 5.0 * ((2.0 * lambda * lambda + lambda) / n).sqrt();
            assert!(
                (mean - lambda).abs() < mean_margin,
                "lambda {lambda}: mean {mean}"
            );
            assert!(
                (var - lambda).abs() < var_margin,
                "lambda {lambda}: var {var}"
            );
        }
    }

    #[test]
    fn poisson_frequencies_follow_the_pmf() {
        let (n, lambda) = (50_000u64, 2.0f64);
        let stream = NoiseStream::new(0xf00d, Domain::Background);
        let sampler = Poisson::new(lambda);
        let mut counts = [0u64; 8];
        for i in 0..n {
            let k = sampler.sample(stream, i) as usize;
            counts[k.min(7)] += 1;
        }
        let mut pmf = (-lambda).exp();
        for (k, &count) in counts.iter().enumerate().take(7) {
            let expected = n as f64 * pmf;
            let sigma = (expected * (1.0 - pmf)).sqrt();
            assert!(
                (count as f64 - expected).abs() < 5.0 * sigma,
                "P(X = {k}): {count} vs {expected:.0}"
            );
            pmf *= lambda / (k + 1) as f64;
        }
    }

    #[test]
    fn thresholds_are_a_non_increasing_tail() {
        let scale = (1u64 << UNIFORM_BITS) as f64;
        for lambda in [1e-9, 0.3, 2.0, 4.0, 29.9] {
            let sampler = Poisson::new(lambda);
            let table = sampler.thresholds();
            assert!(!table.is_empty(), "lambda {lambda}");
            assert!(table.windows(2).all(|w| w[0] >= w[1]), "lambda {lambda}");
            assert!(table[table.len() - 1] >= 1);
            // T[0] = ⌈P(X > 0)·2^53⌉ = ⌈(1 − exp(−λ))·2^53⌉.
            let expected = -(-lambda).exp_m1() * scale;
            let got = table[0] as f64;
            assert!(
                (got - expected).abs() <= 1e-12 * expected + 1.0,
                "lambda {lambda}"
            );
        }
        assert!(Poisson::new(0.0).thresholds().is_empty());
        assert!(Poisson::new(30.0).thresholds().is_empty());
    }

    /// The guided search counts the same prefix as a full scan, at
    /// every bucket edge and at every threshold and its neighbours.
    #[test]
    fn guided_search_counts_the_full_prefix() {
        let shift = UNIFORM_BITS - GUIDE_BITS;
        for lambda in [0.3, 2.0, 4.0, 29.9] {
            let sampler = Poisson::new(lambda);
            let table = sampler.thresholds();
            let buckets =
                (0..1u64 << GUIDE_BITS).flat_map(|b| [b << shift, ((b + 1) << shift) - 1]);
            let edges = table.iter().flat_map(|&t| [t.saturating_sub(1), t, t + 1]);
            for u in buckets.chain(edges).filter(|&u| u < 1 << UNIFORM_BITS) {
                let want = table.iter().filter(|&&t| u < t).count() as u64;
                assert_eq!(sampler.inverse_cdf(u), want, "lambda {lambda}, u {u}");
            }
        }
    }

    #[test]
    fn polar_pairs_are_independent_standard_normals() {
        let n = 20_000u64;
        let stream = NoiseStream::new(0xabcd, Domain::ReadNoise);
        let pairs: Vec<(f64, f64)> = (0..n).map(|i| stream.normal_pair(i)).collect();
        let firsts: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let seconds: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        for samples in [&firsts, &seconds] {
            let (mean, var) = moments(samples);
            assert!(mean.abs() < 0.03, "mean {mean}");
            assert!((var - 1.0).abs() < 0.05, "var {var}");
        }
        let correlation = pairs.iter().map(|p| p.0 * p.1).sum::<f64>() / n as f64;
        assert!(correlation.abs() < 0.03, "correlation {correlation}");
    }

    #[test]
    fn streams_are_stateless_and_domain_separated() {
        let a = NoiseStream::new(9, Domain::TrapPhotons);
        assert_eq!(a, NoiseStream::new(9, Domain::TrapPhotons));
        assert_eq!(a.normal_pair(3), a.normal_pair(3));
        let others = [
            NoiseStream::new(9, Domain::Background),
            NoiseStream::new(9, Domain::ReadNoise),
            NoiseStream::new(10, Domain::TrapPhotons),
        ];
        for other in others {
            assert!((0..64).all(|i| a.bits(i) != other.bits(i)));
        }
    }

    #[test]
    fn centred_halves_stay_inside_the_open_interval() {
        for half in [0u64, 1, 0x7fff_ffff, 0x8000_0000, 0xffff_ffff] {
            let x = centred(half);
            assert!(x > -1.0 && x < 1.0 && x != 0.0, "{half:#x} -> {x}");
        }
        assert_eq!(centred(0), -centred(0xffff_ffff));
    }

    #[test]
    #[should_panic(expected = "invalid poisson mean")]
    fn negative_mean_panics() {
        let _ = Poisson::new(-1.0);
    }
}
