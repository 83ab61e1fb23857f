//! Streaming sample moments via Welford's numerically stable algorithm.
//!
//! Welch's t-test needs the mean and (sample) variance of both the marginal
//! and the conditional sample on every Monte-Carlo iteration, so this is one
//! of the hottest pieces of the contrast computation. The accumulator is a
//! plain value type that can be folded over a slice or built incrementally.

/// Online accumulator for count, mean and variance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Moments {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the accumulator from a slice in one pass.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut m = Self::new();
        for &v in values {
            m.push(v);
        }
        m
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m2 += term1;
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let na = self.n as f64;
        let nb = other.n as f64;
        let n = na + nb;
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let mean = self.mean + delta * nb / n;
        let m2 = self.m2 + other.m2 + delta2 * na * nb / n;
        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean. `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`n - 1` denominator). `NaN` for fewer than
    /// two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Population variance (`n` denominator). `NaN` when empty.
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample standard deviation.
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// An accumulator from its parts: `n` observations with running mean
    /// `mean` and sum of squared deviations `m2` (the Welch lanes keep these
    /// per lane and share `n`).
    #[inline]
    pub(crate) fn from_parts(n: u64, mean: f64, m2: f64) -> Self {
        Self { n, mean, m2 }
    }
}

/// The Welch lanes' name for [`Moments`]: the conditional side of every
/// Welch test accumulates in it.
pub type MeanVariance = Moments;

/// Convenience: mean of a slice (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    Moments::from_slice(values).mean()
}

/// Convenience: unbiased sample variance of a slice.
pub fn variance(values: &[f64]) -> f64 {
    Moments::from_slice(values).variance()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_nan() {
        let m = Moments::new();
        assert_eq!(m.count(), 0);
        assert!(m.mean().is_nan());
        assert!(m.variance().is_nan());
    }

    #[test]
    fn single_value() {
        let m = Moments::from_slice(&[42.0]);
        assert_eq!(m.mean(), 42.0);
        assert!(m.variance().is_nan());
        assert_eq!(m.population_variance(), 0.0);
    }

    #[test]
    fn known_mean_and_variance() {
        let m = Moments::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.population_variance() - 4.0).abs() < 1e-12);
        assert!((m.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn numerically_stable_for_large_offsets() {
        // Classic catastrophic-cancellation case: tiny variance around 1e9.
        let vals: Vec<f64> = (0..1000).map(|i| 1e9 + (i % 7) as f64).collect();
        let m = Moments::from_slice(&vals);
        let naive_mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((m.mean() - naive_mean).abs() < 1e-3);
        assert!(m.variance() > 0.0 && m.variance() < 10.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let a: Vec<f64> = (0..50).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..80).map(|i| (i as f64 * 0.7).cos() * 3.0).collect();
        let mut merged = Moments::from_slice(&a);
        merged.merge(&Moments::from_slice(&b));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let seq = Moments::from_slice(&all);
        assert_eq!(merged.count(), seq.count());
        assert!((merged.mean() - seq.mean()).abs() < 1e-10);
        assert!((merged.variance() - seq.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m = Moments::from_slice(&[1.0, 2.0, 3.0]);
        let before = m;
        m.merge(&Moments::new());
        assert_eq!(m, before);
        let mut e = Moments::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn convenience_helpers() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-15);
        assert!((variance(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-15);
    }
}
