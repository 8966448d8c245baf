//! The Laplace mechanism in vector form (Definition 6).

use rand::Rng;

/// One sample from `Laplace(0, scale)` via inverse-CDF sampling.
pub fn laplace_noise(rng: &mut impl Rng, scale: f64) -> f64 {
    assert!(scale >= 0.0, "laplace scale must be non-negative");
    if scale == 0.0 {
        return 0.0;
    }
    // u uniform in (-0.5, 0.5); inverse CDF: -b·sgn(u)·ln(1 − 2|u|).
    // `gen` is uniform on [0, 1): its exact 0.0 would give u = -0.5 and
    // ln(0) = -inf, so that one value is redrawn.
    let u = loop {
        let g: f64 = rng.gen();
        if g != 0.0 {
            break g - 0.5;
        }
    };
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// Adds iid `Laplace(0, scale)` noise to each entry of `answers`.
pub fn add_laplace_noise(answers: &mut [f64], scale: f64, rng: &mut impl Rng) {
    for a in answers {
        *a += laplace_noise(rng, scale);
    }
}

/// Variance of `Laplace(0, scale)`: `2·scale²`.
pub fn laplace_variance(scale: f64) -> f64 {
    2.0 * scale * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let scale = 2.0;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| laplace_noise(&mut rng, scale)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - laplace_variance(scale)).abs() < 0.2, "var {var}");
    }

    #[test]
    fn zero_scale_is_noiseless() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut v = vec![1.0, 2.0];
        add_laplace_noise(&mut v, 0.0, &mut rng);
        assert_eq!(v, vec![1.0, 2.0]);
    }

    #[test]
    fn median_is_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let below = (0..n)
            .filter(|_| laplace_noise(&mut rng, 1.0) < 0.0)
            .count();
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn zero_uniform_draw_is_redrawn_not_infinite() {
        /// Returns 0 first (`gen` → exactly 0.0), then a fixed word.
        struct ZeroFirst(u32);
        impl rand::RngCore for ZeroFirst {
            fn next_u64(&mut self) -> u64 {
                self.0 += 1;
                if self.0 == 1 {
                    0
                } else {
                    3 << 62
                }
            }
        }
        let noise = laplace_noise(&mut ZeroFirst(0), 1.0);
        assert!(noise.is_finite(), "got {noise}");
        // The redraw is 0.75: u = 0.25, noise = -ln(0.5).
        assert_eq!(noise, -(0.5f64.ln()));
    }
}
