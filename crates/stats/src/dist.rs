//! Probability distributions needed by the HiCS statistical machinery.
//!
//! The distributions expose the `cdf` and `survival` functions (`1 - cdf`,
//! computed without cancellation where it matters) that the statistical
//! tests read. The Student-t distribution is the workhorse of `HiCS_WT`
//! (Welch's t-test); the Kolmogorov distribution provides the optional
//! p-value variant of the KS test; the normal and chi-squared distributions
//! support the Mann–Whitney extension and the synthetic data generators.

use crate::special::{betai, erfc, gammap, gammaq};

/// The normal (Gaussian) distribution `N(mean, sd²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Standard normal `N(0, 1)`.
    pub const STANDARD: Normal = Normal { mean: 0.0, sd: 1.0 };

    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Panics
    /// Panics if `sd` is not strictly positive and finite.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(sd > 0.0 && sd.is_finite(), "sd must be positive, got {sd}");
        assert!(mean.is_finite(), "mean must be finite, got {mean}");
        Self { mean, sd }
    }

    /// Distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Distribution standard deviation.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Probability density function (the Newton slope of
    /// [`Normal::quantile`]).
    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.sd;
        (-0.5 * z * z).exp() / (self.sd * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Cumulative distribution function `P(X <= x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.sd * std::f64::consts::SQRT_2);
        0.5 * erfc(-z)
    }

    /// Survival function `P(X > x)`, accurate in the far right tail.
    pub fn survival(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.sd * std::f64::consts::SQRT_2);
        0.5 * erfc(z)
    }

    /// Quantile (inverse CDF) via bisection refined with Newton steps.
    ///
    /// # Panics
    /// Panics if `p` is outside `(0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires 0 < p < 1, got {p}");
        // Acklam-style initial guess through rational approximation would be
        // fine; a guarded Newton iteration from 0 is simpler and the call is
        // not on any hot path.
        let mut z = 0.0_f64;
        for _ in 0..80 {
            let c = Self::STANDARD.cdf(z);
            let d = Self::STANDARD.pdf(z);
            if d < 1e-300 {
                break;
            }
            let step = (c - p) / d;
            z -= step.clamp(-2.0, 2.0);
            if step.abs() < 1e-14 {
                break;
            }
        }
        self.mean + self.sd * z
    }
}

/// Student's t distribution with `nu` degrees of freedom.
///
/// Degrees of freedom may be fractional — Welch's t-test produces fractional
/// values through the Welch–Satterthwaite equation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentsT {
    nu: f64,
}

impl StudentsT {
    /// Creates a Student-t distribution.
    ///
    /// # Panics
    /// Panics if `nu` is not strictly positive and finite.
    pub fn new(nu: f64) -> Self {
        assert!(nu > 0.0 && nu.is_finite(), "nu must be positive, got {nu}");
        Self { nu }
    }

    /// Degrees of freedom.
    pub fn nu(&self) -> f64 {
        self.nu
    }

    /// Cumulative distribution function `P(T <= t)`.
    pub fn cdf(&self, t: f64) -> f64 {
        if t == 0.0 {
            return 0.5;
        }
        let p = 0.5 * betai(self.nu / 2.0, 0.5, self.nu / (self.nu + t * t));
        if t > 0.0 {
            1.0 - p
        } else {
            p
        }
    }

    /// Two-tailed p-value `P(|T| >= |t|)`: the probability of observing a test
    /// statistic at least as extreme as `t` under the null hypothesis.
    ///
    /// This is the integral the paper describes for `HiCS_WT` ("the area of
    /// the two-tail integral over f_t(x) for |x| > t").
    pub fn two_tailed_p(&self, t: f64) -> f64 {
        if !t.is_finite() {
            return 0.0;
        }
        betai(self.nu / 2.0, 0.5, self.nu / (self.nu + t * t))
    }
}

/// Chi-squared distribution with `k` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    k: f64,
}

impl ChiSquared {
    /// Creates a chi-squared distribution.
    ///
    /// # Panics
    /// Panics if `k` is not strictly positive and finite.
    pub fn new(k: f64) -> Self {
        assert!(k > 0.0 && k.is_finite(), "k must be positive, got {k}");
        Self { k }
    }

    /// Degrees of freedom.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        gammap(self.k / 2.0, x / 2.0)
    }

    /// Survival function `P(X > x)`, accurate in the right tail.
    pub fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        gammaq(self.k / 2.0, x / 2.0)
    }
}

/// The asymptotic Kolmogorov distribution.
///
/// `Q(λ) = 2 Σ_{j≥1} (-1)^{j-1} exp(-2 j² λ²)` is the limiting probability
/// that the scaled KS statistic exceeds `λ`. Used by the optional p-value
/// variant of the two-sample KS deviation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kolmogorov;

impl Kolmogorov {
    /// Survival function `Q_KS(λ)` of the Kolmogorov distribution.
    ///
    /// Returns 1 for `λ <= 0`. Converges after a handful of terms for the
    /// λ values arising in practice.
    pub fn survival(lambda: f64) -> f64 {
        if lambda <= 0.0 {
            return 1.0;
        }
        let l2 = lambda * lambda;
        let mut sum = 0.0;
        let mut sign = 1.0;
        for j in 1..=100 {
            let term = sign * (-2.0 * (j * j) as f64 * l2).exp();
            sum += term;
            if term.abs() < 1e-16 {
                break;
            }
            sign = -sign;
        }
        (2.0 * sum).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol,
            "expected {expected}, got {actual}"
        );
    }

    #[test]
    fn normal_cdf_reference() {
        let n = Normal::STANDARD;
        assert_close(n.cdf(0.0), 0.5, 1e-14);
        assert_close(n.cdf(1.0), 0.8413447460685429, 1e-12);
        assert_close(n.cdf(-1.96), 0.024997895148220435, 1e-12);
        assert_close(n.cdf(3.0), 0.9986501019683699, 1e-12);
    }

    #[test]
    fn normal_survival_tail_accuracy() {
        let n = Normal::STANDARD;
        // P(Z > 6) ≈ 9.865876450377018e-10 — must not round to zero.
        let s = n.survival(6.0);
        assert!((s - 9.865876450377018e-10).abs() < 1e-18);
    }

    #[test]
    fn normal_pdf_integrates_via_symmetry() {
        let n = Normal::new(2.0, 3.0);
        assert_close(
            n.pdf(2.0),
            1.0 / (3.0 * (2.0 * std::f64::consts::PI).sqrt()),
            1e-14,
        );
        assert_close(n.pdf(2.0 + 1.5), n.pdf(2.0 - 1.5), 1e-14);
    }

    #[test]
    fn normal_quantile_roundtrip() {
        let n = Normal::new(-1.0, 2.5);
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = n.quantile(p);
            assert_close(n.cdf(x), p, 1e-10);
        }
    }

    #[test]
    #[should_panic]
    fn normal_rejects_zero_sd() {
        Normal::new(0.0, 0.0);
    }

    #[test]
    fn t_cdf_matches_cauchy_for_nu_1() {
        // For ν=1 the t-distribution is Cauchy: CDF = 1/2 + atan(t)/π.
        let t = StudentsT::new(1.0);
        for x in [-3.0_f64, -1.0, 0.0, 0.5, 2.0] {
            let expected = 0.5 + x.atan() / std::f64::consts::PI;
            assert_close(t.cdf(x), expected, 1e-12);
        }
    }

    #[test]
    fn t_cdf_approaches_normal_for_large_nu() {
        let t = StudentsT::new(1e6);
        let n = Normal::STANDARD;
        for x in [-2.0, -0.5, 0.0, 1.0, 2.5] {
            assert_close(t.cdf(x), n.cdf(x), 1e-5);
        }
    }

    #[test]
    fn t_two_tailed_reference() {
        // mpmath: I_{10/14}(5, 1/2) = 0.07338803477074037 (two-tailed p for
        // t = 2 with ν = 10).
        let t = StudentsT::new(10.0);
        assert_close(t.two_tailed_p(2.0), 0.07338803477074037, 1e-10);
        // Symmetric in the sign of t.
        assert_close(t.two_tailed_p(-2.0), t.two_tailed_p(2.0), 1e-14);
        // At t=0 the p-value is 1.
        assert_close(t.two_tailed_p(0.0), 1.0, 1e-14);
    }

    #[test]
    fn t_two_tailed_fractional_dof() {
        // Welch–Satterthwaite produces fractional dof; mpmath reference:
        // I_{7.3/(7.3+2.25)}(3.65, 0.5) = 0.17556309280308605.
        let t = StudentsT::new(7.3);
        assert_close(t.two_tailed_p(1.5), 0.17556309280308605, 1e-8);
    }

    #[test]
    fn chi_squared_cdf_reference() {
        // scipy.stats.chi2.cdf(3.0, 2) = 0.7768698398515702.
        let c = ChiSquared::new(2.0);
        assert_close(c.cdf(3.0), 0.7768698398515702, 1e-12);
        // chi2(1).cdf(x) = erf(sqrt(x/2)).
        let c1 = ChiSquared::new(1.0);
        assert_close(c1.cdf(2.0), crate::special::erf((1.0_f64).sqrt()), 1e-12);
    }

    #[test]
    fn chi_squared_survival_complementary() {
        let c = ChiSquared::new(7.0);
        for x in [0.5, 2.0, 10.0, 30.0] {
            assert_close(c.cdf(x) + c.survival(x), 1.0, 1e-12);
        }
    }

    #[test]
    fn kolmogorov_survival_reference() {
        // Known values of the Kolmogorov distribution.
        assert_close(Kolmogorov::survival(0.5), 0.9639452436648751, 1e-10);
        assert_close(Kolmogorov::survival(1.0), 0.26999967167735456, 1e-10);
        assert_close(Kolmogorov::survival(2.0), 0.0006709252558438945, 1e-12);
        assert_eq!(Kolmogorov::survival(0.0), 1.0);
        assert_eq!(Kolmogorov::survival(-1.0), 1.0);
    }

    #[test]
    fn kolmogorov_survival_monotone() {
        let mut prev = 1.0;
        for i in 1..40 {
            let v = Kolmogorov::survival(i as f64 * 0.1);
            assert!(v <= prev + 1e-15);
            prev = v;
        }
    }
}
