//! Deterministic Zipfian key sampling for the lockserver workload.
//!
//! Gray's constant-time method (popularized by YCSB): precompute the
//! generalized harmonic number ζ(n, θ), then map each uniform draw
//! through a closed-form inverse. Sampling costs two `powf` calls and no
//! table, so a million-key distribution is as cheap as a uniform one.
//! Randomness comes from the in-tree [`SplitMix64`] — same seed, same key
//! sequence, which the byte-identical sweep TSVs rely on.
//!
//! ζ(n, θ) is an n-term sum (10⁶ `powf` calls for the lockserver's key
//! space), so it is computed once per process for each `(n, θ)` and
//! shared by every later [`Zipfian::new`], across threads too. The memo
//! stores the very sum the direct computation produces, so no sampled key
//! depends on whether a build hit it.

use std::sync::{Mutex, PoisonError};

use nucasim::SplitMix64;

/// Zipfian distribution over keys `0..n` with exponent `theta`: key `k`
/// has probability proportional to `1 / (k + 1)^theta`. Key 0 is the
/// hottest.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    /// 1 / (1 − θ): the exponent of the closed-form inverse CDF.
    alpha: f64,
    /// ζ(n, θ), the normalization constant.
    zetan: f64,
    /// Gray's interpolation constant for the tail of the inverse.
    eta: f64,
}

impl Zipfian {
    /// Builds the distribution. `theta` must lie in `(0, 1)` — 0 would be
    /// uniform (use [`SplitMix64::next_below`] for that) and ≥ 1 breaks
    /// the closed-form inverse. YCSB's default skew is 0.99.
    ///
    /// # Panics
    ///
    /// Panics on `n == 0` or `theta` outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n > 0, "empty key space");
        assert!(
            theta > 0.0 && theta < 1.0,
            "zipf exponent must be in (0, 1), got {theta}"
        );
        let zetan = zeta_memo(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian { n, theta, alpha, zetan, eta }
    }

    /// Number of keys.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws one key in `0..n`.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        // 53 uniform bits → u in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }
}

/// Generalized harmonic number ζ(n, θ) = Σ_{i=1..n} 1/i^θ, summed left
/// to right.
fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| (i as f64).powf(-theta)).sum()
}

/// [`zeta`], computed at most once per process for each `(n, θ)`. The
/// lock is held across the sum, so builders racing on a key wait for the
/// one computation instead of repeating it.
fn zeta_memo(n: u64, theta: f64) -> f64 {
    static MEMO: Mutex<Vec<((u64, u64), f64)>> = Mutex::new(Vec::new());
    let key = (n, theta.to_bits());
    let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&(_, z)) = memo.iter().find(|(k, _)| *k == key) {
        return z;
    }
    let z = zeta(n, theta);
    memo.push((key, z));
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_stay_in_range() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn hot_keys_dominate() {
        // At θ = 0.99 over 10^4 keys, the hottest key alone draws several
        // percent of the mass and the top 10 the large majority of what
        // any 10 consecutive cold keys get.
        let n = 10_000;
        let z = Zipfian::new(n, 0.99);
        let mut rng = SplitMix64::new(42);
        let mut counts = vec![0u64; n as usize];
        let draws = 100_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > draws / 50, "key 0 drew {} of {draws}", counts[0]);
        let top10: u64 = counts[..10].iter().sum();
        let cold10: u64 = counts[5000..5010].iter().sum();
        assert!(top10 > 100 * cold10.max(1), "top {top10} vs cold {cold10}");
    }

    #[test]
    fn lower_theta_is_flatter() {
        let n = 1000;
        let hot = |theta: f64| {
            let z = Zipfian::new(n, theta);
            let mut rng = SplitMix64::new(9);
            (0..50_000).filter(|_| z.sample(&mut rng) == 0).count()
        };
        assert!(hot(0.99) > 2 * hot(0.3));
    }

    #[test]
    fn deterministic_for_seed() {
        let z = Zipfian::new(1 << 20, 0.99);
        let a: Vec<u64> = {
            let mut rng = SplitMix64::new(77);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = SplitMix64::new(77);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn memoised_zeta_is_bit_equal_to_the_direct_sum() {
        for (n, theta) in [(7, 0.2), (1000, 0.5), (1_000_000, 0.99)] {
            let direct = zeta(n, theta);
            // First call fills the memo (unless another test did), the
            // second is certainly a hit.
            for _ in 0..2 {
                assert_eq!(zeta_memo(n, theta).to_bits(), direct.to_bits(), "ζ({n}, {theta})");
            }
            assert_eq!(Zipfian::new(n, theta).zetan.to_bits(), direct.to_bits());
        }
    }

    #[test]
    fn concurrent_builds_share_identical_constants() {
        // A key no other test uses, so the four builders race to fill it.
        let (n, theta) = (200_003, 0.77);
        let barrier = std::sync::Barrier::new(4);
        let built: Vec<Zipfian> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        Zipfian::new(n, theta)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let bits = |z: &Zipfian| [z.alpha.to_bits(), z.zetan.to_bits(), z.eta.to_bits()];
        assert_eq!(built[0].zetan.to_bits(), zeta(n, theta).to_bits());
        for z in &built[1..] {
            assert_eq!(bits(z), bits(&built[0]));
        }
    }

    #[test]
    #[should_panic(expected = "in (0, 1)")]
    fn theta_one_rejected() {
        let _ = Zipfian::new(10, 1.0);
    }
}
