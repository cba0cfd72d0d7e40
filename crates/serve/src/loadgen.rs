//! Load-generator primitives for `serve-bench`.
//!
//! The serving daemon is judged under realistic request mixes, which
//! the vendored `rand` (a plain xoshiro256++) cannot synthesize on its
//! own, so the two distributions live here:
//!
//! * [`Zipf`] — user popularity. Real recommendation traffic is heavily
//!   skewed (a small head of users issues most queries), which is
//!   exactly the regime where per-shard coalescing pays: hot shards see
//!   deep admission queues. Sampling is inverse-CDF over precomputed
//!   cumulative weights `(k+1)^-s`, one binary search per draw;
//!   [`Zipf::sample_user`] spreads the drawn rank over the user ids.
//! * [`poisson_interarrival`] — open-loop arrivals. Closed-loop driving
//!   (every client fires as fast as the server answers) hides queueing
//!   delay; an open loop with exponential inter-arrival times at a
//!   fixed offered rate exposes it, which is what the p99 gate is for.
//!
//! Both are deterministic given the `SmallRng` seed, so bench artifacts
//! are reproducible.

use rand::rngs::SmallRng;
use rand::Rng;
use socialrec_graph::UserId;

/// A Zipf-like popularity distribution over `0..n` with exponent `s`:
/// `P(k) ∝ (k + 1)^-s`. `s = 0` is uniform; `s ≈ 1` is classic web-load
/// skew.
#[derive(Clone, Debug)]
pub struct Zipf {
    /// Cumulative probabilities; `cdf[k]` = P(X ≤ k), last entry 1.0.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the sampler for ranks `0..n`. Panics if `n == 0`, or if
    /// `s` is negative or non-finite.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs a non-empty support");
        assert!(s >= 0.0 && s.is_finite(), "Zipf exponent must be finite and ≥ 0");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 0..n {
            total += ((k + 1) as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank in `0..n` (0 is the most popular).
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        // First index whose cumulative probability covers `u`.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Draw one user id in `0..n`: a rank spread over the id space with
    /// a multiplicative hash. Popularity stays skewed (the same few users
    /// keep coming back), but *which* users are popular is independent
    /// of id order — the synthetic generators plant their hubs at low
    /// ids, and contiguous shards would otherwise send the whole head of
    /// the distribution to shard 0.
    pub fn sample_user(&self, rng: &mut SmallRng) -> UserId {
        let rank = self.sample(rng) as u64;
        UserId((rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.len() as u64) as u32)
    }

    /// Support size.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false (construction rejects an empty support).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

/// One exponential inter-arrival gap, in seconds, for a Poisson process
/// of `rate` arrivals/second: `-ln(1 - u) / rate`. Panics unless `rate`
/// is positive and finite.
pub fn poisson_interarrival(rng: &mut SmallRng, rate: f64) -> f64 {
    assert!(rate > 0.0 && rate.is_finite(), "arrival rate must be positive and finite");
    let u: f64 = rng.gen();
    // `u` is in [0, 1); `1 - u` is in (0, 1], so ln is finite and the
    // gap is ≥ 0.
    -(1.0 - u).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_is_deterministic_and_in_range() {
        let z = Zipf::new(100, 1.1);
        assert_eq!(z.len(), 100);
        assert!(!z.is_empty());
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = z.sample(&mut a);
            assert_eq!(x, z.sample(&mut b), "same seed, same stream");
            assert!(x < 100);
        }
    }

    #[test]
    fn zipf_skews_toward_the_head() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut head = 0usize;
        const DRAWS: usize = 20_000;
        for _ in 0..DRAWS {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Under s=1 the top-10 of 1000 carries ~39% of the mass; under
        // uniform it would carry 1%. Loose bounds keep this robust.
        assert!(head > DRAWS / 5, "head too light: {head}/{DRAWS}");
        assert!(head < DRAWS * 3 / 5, "head too heavy: {head}/{DRAWS}");
    }

    #[test]
    fn sample_user_spreads_the_head_across_id_ranges() {
        let z = Zipf::new(1000, 1.0);
        let (mut a, mut b) = (SmallRng::seed_from_u64(5), SmallRng::seed_from_u64(5));
        let mut quarters = [0usize; 4];
        const DRAWS: usize = 20_000;
        for _ in 0..DRAWS {
            let u = z.sample_user(&mut a);
            assert_eq!(u, z.sample_user(&mut b), "same seed, same stream");
            quarters[u.index() / 250] += 1;
        }
        // By rank alone the lowest quarter of ids would take ~80% of the
        // draws under s=1; spread, no contiguous quarter takes 40%.
        assert!(quarters.iter().all(|&q| q < DRAWS * 2 / 5), "head not spread: {quarters:?}");
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0usize; 4];
        for _ in 0..8000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((1600..2400).contains(&c), "uniform draw skewed: {counts:?}");
        }
    }

    #[test]
    fn interarrival_mean_tracks_rate() {
        let mut rng = SmallRng::seed_from_u64(9);
        let rate = 50.0;
        let n = 20_000;
        let total: f64 = (0..n).map(|_| poisson_interarrival(&mut rng, rate)).sum();
        let mean = total / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.002, "mean gap {mean} should be near {}", 1.0 / rate);
        assert!((0..100).all(|_| poisson_interarrival(&mut rng, rate) >= 0.0));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zipf_rejects_empty_support() {
        let _ = Zipf::new(0, 1.0);
    }
}
