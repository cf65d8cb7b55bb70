//! Photon and sensor noise sampling.
//!
//! Only `rand`'s uniform primitives are available offline, so Poisson and
//! Gaussian variates are generated here: Knuth's product method for small
//! Poisson means, a normal approximation for large means, and Box–Muller
//! for Gaussians.
//!
//! The samplers' consumption of the RNG stream is part of the imaging
//! contract: every frame, and every draw after it in a shot, depends on
//! how many uniforms each variate takes. A faster sampler must draw the
//! same uniforms in the same order and combine them with the same
//! floating-point operations.

use rand::Rng;

/// Samples a standard normal variate via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A Poisson distribution with a fixed mean, set up once and sampled
/// many times.
///
/// Uses Knuth's method below `lambda = 30` and a clamped normal
/// approximation above (error negligible for photometry purposes).
/// Knuth's stopping bound `exp(-lambda)` is computed here rather than
/// per sample, so a frame's worth of background pixels costs one `exp`.
///
/// ```
/// use qrm_vision::noise::{poisson, Poisson};
/// let (mut a, mut b) = (qrm_core::loading::seeded_rng(1), qrm_core::loading::seeded_rng(1));
/// let background = Poisson::new(2.0);
/// assert_eq!(background.sample(&mut a), poisson(2.0, &mut b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
    /// Knuth's stopping bound, `exp(-lambda)`.
    limit: f64,
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
        Poisson {
            lambda,
            limit: (-lambda).exp(),
        }
    }

    /// Draws one variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let lambda = self.lambda;
        if lambda == 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.gen_range(0.0..1.0f64);
                if p <= self.limit {
                    return k;
                }
                k += 1;
                if k > 10_000 {
                    return k; // numerically impossible; guard anyway
                }
            }
        }
        let sample = lambda + lambda.sqrt() * standard_normal(rng);
        sample.max(0.0).round() as u64
    }
}

/// Samples a Poisson variate with mean `lambda`: a one-shot
/// [`Poisson`].
///
/// # Panics
///
/// Panics for negative or non-finite `lambda`.
pub fn poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u64 {
    Poisson::new(lambda).sample(rng)
}

/// The one-shot sampler as it was before [`Poisson`] hoisted the
/// `exp(-lambda)` bound: the witness the hoisted sampler, and the
/// reference renderer built on it, are checked against.
#[cfg(test)]
pub(crate) fn poisson_reference<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u64 {
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "invalid poisson mean {lambda}"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen_range(0.0..1.0f64);
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k;
            }
        }
    }
    let sample = lambda + lambda.sqrt() * standard_normal(rng);
    sample.max(0.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrm_core::loading::seeded_rng;

    #[test]
    fn poisson_zero_mean() {
        let mut rng = seeded_rng(1);
        assert_eq!(poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn poisson_small_mean_statistics() {
        let mut rng = seeded_rng(2);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| poisson(3.0, &mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_large_mean_statistics() {
        let mut rng = seeded_rng(3);
        let n = 5_000;
        let samples: Vec<f64> = (0..n).map(|_| poisson(400.0, &mut rng) as f64).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 400.0).abs() < 3.0, "mean {mean}");
        assert!((var - 400.0).abs() < 60.0, "var {var}");
    }

    #[test]
    fn normal_statistics() {
        let mut rng = seeded_rng(4);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn sampler_matches_one_shot_draws_and_rng_state() {
        for lambda in [0.0, 0.3, 2.0, 29.9, 30.0, 400.0] {
            let sampler = Poisson::new(lambda);
            let (mut a, mut b, mut c) = (seeded_rng(6), seeded_rng(6), seeded_rng(6));
            let from_sampler: Vec<u64> = (0..2_000).map(|_| sampler.sample(&mut a)).collect();
            let one_shot: Vec<u64> = (0..2_000).map(|_| poisson(lambda, &mut b)).collect();
            let reference: Vec<u64> = (0..2_000)
                .map(|_| poisson_reference(lambda, &mut c))
                .collect();
            assert_eq!(from_sampler, one_shot, "lambda {lambda}");
            assert_eq!(from_sampler, reference, "lambda {lambda}");
            assert_eq!(a, b, "rng state after lambda {lambda}");
            assert_eq!(a, c, "rng state after lambda {lambda}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid poisson mean")]
    fn negative_mean_panics() {
        let mut rng = seeded_rng(5);
        let _ = poisson(-1.0, &mut rng);
    }
}
