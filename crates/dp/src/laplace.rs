//! The Laplace mechanism (paper Theorem 1).
//!
//! An algorithm with global sensitivity `Δ` becomes ε-differentially
//! private by adding independent `Lap(Δ/ε)` noise to each output term.

use crate::epsilon::Epsilon;
use rand::Rng;

/// Draw one sample from the Laplace distribution with mean 0 and the
/// given `scale` (`b` in `f(x) = exp(-|x|/b) / 2b`), via inverse CDF.
#[inline]
pub fn sample_laplace<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    debug_assert!(scale > 0.0, "laplace scale must be positive");
    // u uniform in (-1/2, 1/2]; x = -b·sign(u)·ln(1 - 2|u|).
    let u: f64 = rng.gen::<f64>() - 0.5;
    laplace_inverse_cdf(u, scale)
}

/// Inverse CDF of the centered Laplace distribution, parameterised by
/// `u ∈ (-1/2, 1/2)`. Shared by [`sample_laplace`] and the counter-based
/// stream.
#[inline]
pub(crate) fn laplace_inverse_cdf(u: f64, scale: f64) -> f64 {
    let a = (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE);
    -scale * u.signum() * a.ln()
}

/// Expected absolute error `E|Lap(b)| = b` of a Laplace perturbation with
/// sensitivity `Δ` at privacy level ε (the paper quotes the std
/// `√2·Δ/ε`; the mean absolute error is `Δ/ε`).
pub fn laplace_expected_abs_error(epsilon: Epsilon, sensitivity: f64) -> f64 {
    epsilon.laplace_scale(sensitivity).unwrap_or(0.0)
}

/// The Laplace mechanism bound to a privacy level and a sensitivity.
#[derive(Clone, Copy, Debug)]
pub struct LaplaceMechanism {
    epsilon: Epsilon,
    sensitivity: f64,
}

impl LaplaceMechanism {
    /// Mechanism adding `Lap(sensitivity/ε)` noise.
    ///
    /// Panics if `sensitivity < 0`.
    pub fn new(epsilon: Epsilon, sensitivity: f64) -> Self {
        assert!(sensitivity >= 0.0, "sensitivity must be non-negative");
        LaplaceMechanism { epsilon, sensitivity }
    }

    /// The configured privacy level.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The configured sensitivity.
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// The noise scale, if any noise is added at all.
    pub fn scale(&self) -> Option<f64> {
        self.epsilon.laplace_scale(self.sensitivity)
    }

    /// Return `value` perturbed with fresh Laplace noise.
    #[inline]
    pub fn privatize<R: Rng + ?Sized>(&self, rng: &mut R, value: f64) -> f64 {
        match self.scale() {
            Some(b) => value + sample_laplace(rng, b),
            None => value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn sample_statistics_match_distribution() {
        let mut rng = SmallRng::seed_from_u64(12345);
        let scale = 2.0;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_laplace(&mut rng, scale)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let mean_abs: f64 = samples.iter().map(|x| x.abs()).sum::<f64>() / n as f64;
        // E[X]=0, Var=2b², E|X|=b.
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 2.0 * scale * scale).abs() < 0.3, "var {var} vs {}", 2.0 * scale * scale);
        assert!((mean_abs - scale).abs() < 0.05, "mean abs {mean_abs} vs {scale}");
    }

    #[test]
    fn samples_take_both_signs() {
        let mut rng = SmallRng::seed_from_u64(1);
        let (mut pos, mut neg) = (0, 0);
        for _ in 0..1000 {
            if sample_laplace(&mut rng, 1.0) >= 0.0 {
                pos += 1;
            } else {
                neg += 1;
            }
        }
        assert!(pos > 400 && neg > 400, "sign balance off: {pos}/{neg}");
    }

    #[test]
    fn infinite_epsilon_is_identity() {
        let m = LaplaceMechanism::new(Epsilon::Infinite, 10.0);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(m.privatize(&mut rng, 3.25), 3.25);
    }

    #[test]
    fn zero_sensitivity_is_identity() {
        let m = LaplaceMechanism::new(Epsilon::Finite(0.1), 0.0);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(m.privatize(&mut rng, 5.0), 5.0);
        assert_eq!(m.scale(), None);
    }

    #[test]
    fn scale_is_sensitivity_over_epsilon() {
        let m = LaplaceMechanism::new(Epsilon::Finite(0.5), 3.0);
        assert_eq!(m.scale(), Some(6.0));
        assert_eq!(laplace_expected_abs_error(Epsilon::Finite(0.5), 3.0), 6.0);
        assert_eq!(laplace_expected_abs_error(Epsilon::Infinite, 3.0), 0.0);
    }

    #[test]
    fn privatize_actually_perturbs() {
        let m = LaplaceMechanism::new(Epsilon::Finite(1.0), 1.0);
        let mut rng = SmallRng::seed_from_u64(99);
        let noisy = m.privatize(&mut rng, 0.0);
        assert_ne!(noisy, 0.0);
    }

    #[test]
    fn smaller_epsilon_means_larger_noise() {
        // Compare empirical mean-abs noise at two privacy levels.
        let strong = LaplaceMechanism::new(Epsilon::Finite(0.01), 1.0);
        let weak = LaplaceMechanism::new(Epsilon::Finite(1.0), 1.0);
        let mut rng = SmallRng::seed_from_u64(5);
        let avg = |m: &LaplaceMechanism, rng: &mut SmallRng| {
            (0..2000).map(|_| m.privatize(rng, 0.0).abs()).sum::<f64>() / 2000.0
        };
        let s = avg(&strong, &mut rng);
        let w = avg(&weak, &mut rng);
        assert!(s > 10.0 * w, "strong-privacy noise {s} not >> weak {w}");
    }
}
