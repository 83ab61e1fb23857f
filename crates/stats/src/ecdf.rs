//! Empirical cumulative distribution functions (Eq. 10 of the paper).
//!
//! `F(x) = (1/N) Σ 1[y < x]` over the sample. The struct stores a sorted
//! copy of the sample so that point evaluation is `O(log N)` and the
//! two-sample KS supremum can be computed by a linear merge.

/// An empirical CDF over a finite sample.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF from a sample. NaN values are rejected.
    ///
    /// # Panics
    /// Panics if the sample is empty or contains NaN.
    pub fn new(sample: &[f64]) -> Self {
        assert!(!sample.is_empty(), "ECDF requires a non-empty sample");
        assert!(
            sample.iter().all(|v| !v.is_nan()),
            "ECDF sample must not contain NaN"
        );
        let mut sorted = sample.to_vec();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Self { sorted }
    }

    /// Builds the ECDF from an already-sorted sample without re-sorting
    /// (hot-path constructor: the contrast estimator derives the sorted
    /// marginal from the rank index's argsort permutation).
    ///
    /// # Panics
    /// Panics if the sample is empty; debug-asserts sortedness.
    pub fn from_sorted(sorted: Vec<f64>) -> Self {
        assert!(!sorted.is_empty(), "ECDF requires a non-empty sample");
        debug_assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "from_sorted requires ascending input"
        );
        Self { sorted }
    }

    /// Sample size.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty (never true for a constructed `Ecdf`).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The underlying sorted sample.
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }

    /// Evaluates `F(x) = P(Y <= x)` (right-continuous convention).
    pub fn eval(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile: smallest sample value `v` with `F(v) >= p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile requires 0<=p<=1, got {p}"
        );
        if p <= 0.0 {
            return self.sorted[0];
        }
        let n = self.sorted.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// Supremum distance `sup_x |F_a(x) − F_b(x)|` between two ECDFs,
    /// computed exactly with a linear merge over the pooled sample.
    pub fn ks_distance(&self, other: &Ecdf) -> f64 {
        let (a, b) = (&self.sorted, &other.sorted);
        let (na, nb) = (a.len() as f64, b.len() as f64);
        let (mut i, mut j) = (0usize, 0usize);
        let mut sup: f64 = 0.0;
        while i < a.len() && j < b.len() {
            let va = a[i];
            let vb = b[j];
            let v = va.min(vb);
            // Advance both cursors past every observation equal to v so the
            // step heights account for ties within and across the samples.
            while i < a.len() && a[i] == v {
                i += 1;
            }
            while j < b.len() && b[j] == v {
                j += 1;
            }
            let d = (i as f64 / na - j as f64 / nb).abs();
            if d > sup {
                sup = d;
            }
        }
        // Once one sample is exhausted its CDF is 1; the maximal gap over the
        // remaining range is attained immediately, already covered by the
        // last loop iteration or here:
        if i < a.len() {
            sup = sup.max((i as f64 / na - 1.0).abs());
        }
        if j < b.len() {
            sup = sup.max((1.0 - j as f64 / nb).abs());
        }
        sup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_simple() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn eval_strict_vs_right_continuous() {
        let e = Ecdf::new(&[1.0, 1.0, 2.0]);
        // Left of the jump at 1.0 nothing is counted; at it, both ties are.
        assert_eq!(e.eval(0.999), 0.0);
        assert!((e.eval(1.0) - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn handles_duplicates() {
        let e = Ecdf::new(&[2.0, 2.0, 2.0, 5.0]);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(1.9), 0.0);
    }

    #[test]
    fn quantile_basics() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(0.25), 10.0);
        assert_eq!(e.quantile(0.5), 20.0);
        assert_eq!(e.quantile(1.0), 40.0);
    }

    #[test]
    fn ks_distance_identical_samples_is_zero() {
        let a = Ecdf::new(&[1.0, 2.0, 3.0]);
        let b = Ecdf::new(&[1.0, 2.0, 3.0]);
        assert_eq!(a.ks_distance(&b), 0.0);
    }

    #[test]
    fn ks_distance_disjoint_samples_is_one() {
        let a = Ecdf::new(&[1.0, 2.0]);
        let b = Ecdf::new(&[10.0, 11.0]);
        assert_eq!(a.ks_distance(&b), 1.0);
        assert_eq!(b.ks_distance(&a), 1.0);
    }

    #[test]
    fn ks_distance_known_value() {
        // F_a steps at 1,2,3,4 (quarters); F_b steps at 3,4,5,6.
        // At x=2: F_a=0.5, F_b=0 → gap 0.5.
        let a = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        let b = Ecdf::new(&[3.0, 4.0, 5.0, 6.0]);
        assert!((a.ks_distance(&b) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn ks_distance_symmetry() {
        let a = Ecdf::new(&[0.3, 0.9, 1.4, 2.2, 7.0]);
        let b = Ecdf::new(&[0.1, 1.0, 1.5, 3.0]);
        assert!((a.ks_distance(&b) - b.ks_distance(&a)).abs() < 1e-15);
    }

    #[test]
    fn ks_distance_with_ties_across_samples() {
        let a = Ecdf::new(&[1.0, 1.0, 2.0]);
        let b = Ecdf::new(&[1.0, 2.0, 2.0]);
        // After x=1: F_a=2/3, F_b=1/3 → gap 1/3. After 2 both are 1.
        assert!((a.ks_distance(&b) - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic]
    fn rejects_empty() {
        Ecdf::new(&[]);
    }

    #[test]
    #[should_panic]
    fn rejects_nan() {
        Ecdf::new(&[1.0, f64::NAN]);
    }
}
