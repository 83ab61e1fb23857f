//! Two-sample hypothesis tests — the statistical instantiations of the HiCS
//! `deviation` function (paper Section III-E).
//!
//! * [`welch_t_test`] — Welch's unequal-variance t-test with the
//!   Welch–Satterthwaite degrees of freedom (used by `HiCS_WT`).
//! * [`ks_test`] — the two-sample Kolmogorov–Smirnov statistic and its
//!   asymptotic p-value (the statistic itself is the `HiCS_KS` deviation,
//!   Eq. 11).
//! * [`mann_whitney_u`] — Mann–Whitney U with normal approximation and tie
//!   correction (an extension beyond the paper, usable as a third deviation).

use crate::dist::{Kolmogorov, Normal, StudentsT};
use crate::ecdf::Ecdf;
use crate::moments::Moments;
use crate::rank::{midranks, tie_group_sizes};

/// Result of Welch's t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchResult {
    /// The test statistic `t` (Eq. 9 of the paper).
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom (fractional).
    pub df: f64,
    /// Two-tailed p-value `P(|T| >= |t|)`.
    pub p_value: f64,
}

/// Welch's unequal-variance t-test between two samples.
///
/// Follows the paper exactly: the statistic is
/// `t = (μ̂_A − μ̂_B) / sqrt(σ̂²_A/N_A + σ̂²_B/N_B)` and the degrees of freedom
/// come from the Welch–Satterthwaite equation. The two-tailed p-value is the
/// area of `|x| > |t|` under the Student-t density.
///
/// Degenerate inputs are handled conservatively: if both samples have zero
/// variance and equal means the p-value is 1 (no deviation); if variances are
/// zero but means differ the p-value is 0 (maximal deviation). Samples with
/// fewer than two observations yield `p_value = 1` (a single observation
/// carries no evidence for a *moment-based* test).
pub fn welch_t_test(a: &[f64], b: &[f64]) -> WelchResult {
    welch_t_test_from_moments(&Moments::from_slice(a), &Moments::from_slice(b))
}

/// Welch's t-test on precomputed moments. This is the hot-path entry used by
/// the contrast estimator, which maintains the marginal moments once per
/// attribute and only accumulates the conditional slice per iteration
/// (through the Welch lanes of [`crate::masked`]).
pub fn welch_t_test_from_moments(a: &Moments, b: &Moments) -> WelchResult {
    let (na, nb) = (a.count() as f64, b.count() as f64);
    if a.count() < 2 || b.count() < 2 {
        return WelchResult {
            t: 0.0,
            df: 1.0,
            p_value: 1.0,
        };
    }
    let (va, vb) = (a.variance(), b.variance());
    let se2 = va / na + vb / nb;
    let mean_diff = a.mean() - b.mean();
    if se2 <= 0.0 {
        // Both variances are exactly zero: the samples are constants.
        return if mean_diff == 0.0 {
            WelchResult {
                t: 0.0,
                df: 1.0,
                p_value: 1.0,
            }
        } else {
            WelchResult {
                t: if mean_diff > 0.0 {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                },
                df: 1.0,
                p_value: 0.0,
            }
        };
    }
    let t = mean_diff / se2.sqrt();
    // Welch–Satterthwaite: df = (vA/nA + vB/nB)² /
    //   [ (vA/nA)²/(nA−1) + (vB/nB)²/(nB−1) ].
    let num = se2 * se2;
    let den = (va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0);
    let df = if den > 0.0 { num / den } else { na + nb - 2.0 };
    let p_value = StudentsT::new(df.max(1e-9)).two_tailed_p(t);
    WelchResult { t, df, p_value }
}

/// Result of the two-sample Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The KS statistic `D = sup |F_A − F_B|` (the `HiCS_KS` deviation).
    pub statistic: f64,
    /// Asymptotic p-value via the Kolmogorov distribution with the
    /// Numerical-Recipes small-sample correction.
    pub p_value: f64,
}

/// Two-sample Kolmogorov–Smirnov test.
///
/// # Panics
/// Panics if either sample is empty or contains NaN.
pub fn ks_test(a: &[f64], b: &[f64]) -> KsResult {
    let ea = Ecdf::new(a);
    let eb = Ecdf::new(b);
    ks_test_from_ecdfs(&ea, &eb)
}

/// KS test on prebuilt ECDFs (hot path: the marginal ECDF is reused across
/// Monte-Carlo iterations).
pub fn ks_test_from_ecdfs(a: &Ecdf, b: &Ecdf) -> KsResult {
    let d = a.ks_distance(b);
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let ne = (na * nb / (na + nb)).sqrt();
    let lambda = (ne + 0.12 + 0.11 / ne) * d;
    KsResult {
        statistic: d,
        p_value: Kolmogorov::survival(lambda),
    }
}

/// Result of the Mann–Whitney U test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannWhitneyResult {
    /// The U statistic of the first sample.
    pub u: f64,
    /// Standardized statistic under the normal approximation.
    pub z: f64,
    /// Two-tailed p-value (normal approximation, tie-corrected, with
    /// continuity correction).
    pub p_value: f64,
}

/// Mann–Whitney U (Wilcoxon rank-sum) test with midranks and tie-corrected
/// variance. Extension beyond the paper: a rank-based `deviation` that, like
/// KS, needs no Gaussianity, but like Welch reduces to a single standardized
/// scalar.
///
/// # Panics
/// Panics if either sample is empty or contains NaN.
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> MannWhitneyResult {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "MWU requires non-empty samples"
    );
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let mut pooled = Vec::with_capacity(a.len() + b.len());
    pooled.extend_from_slice(a);
    pooled.extend_from_slice(b);
    let ranks = midranks(&pooled);
    let ra: f64 = ranks[..a.len()].iter().sum();
    let u = ra - na * (na + 1.0) / 2.0;
    let mu = na * nb / 2.0;
    let n = na + nb;
    // Tie correction: σ² = nA nB /12 · [ (n+1) − Σ (t³−t)/(n(n−1)) ].
    let tie_term: f64 = tie_group_sizes(&pooled)
        .iter()
        .map(|&t| {
            let t = t as f64;
            t * t * t - t
        })
        .sum();
    let sigma2 = na * nb / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    if sigma2 <= 0.0 {
        // All pooled values identical: no deviation whatsoever.
        return MannWhitneyResult {
            u,
            z: 0.0,
            p_value: 1.0,
        };
    }
    let diff = u - mu;
    // Continuity correction of 0.5 toward the mean.
    let corrected = diff - 0.5 * diff.signum();
    let z = corrected / sigma2.sqrt();
    let p = 2.0 * Normal::STANDARD.survival(z.abs());
    MannWhitneyResult {
        u,
        z,
        p_value: p.min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welch_identical_samples() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = welch_t_test(&a, &a);
        assert_eq!(r.t, 0.0);
        assert!((r.p_value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn welch_reference() {
        // Hand-checked: both samples have variance 2.5 with n = 5, so
        // se² = 1, t = (3−5)/1 = −2, and Welch–Satterthwaite gives df = 8.
        // Two-tailed p from mpmath: I_{8/12}(4, 1/2) = 0.08051623795726267.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [3.0, 4.0, 5.0, 6.0, 7.0];
        let r = welch_t_test(&a, &b);
        assert!((r.t - -2.0).abs() < 1e-12);
        assert!((r.df - 8.0).abs() < 1e-9);
        assert!((r.p_value - 0.08051623795726267).abs() < 1e-9);
    }

    #[test]
    fn welch_unequal_variances() {
        // scipy: ttest_ind([0,0.1,-0.1,0.05,-0.05], [10,12,8,11,9], equal_var=False)
        // t = -14.7775, p ≈ 7.1e-5 (df ≈ 4.01...)
        let a = [0.0, 0.1, -0.1, 0.05, -0.05];
        let b = [10.0, 12.0, 8.0, 11.0, 9.0];
        let r = welch_t_test(&a, &b);
        assert!(r.t < -10.0);
        assert!(r.p_value < 1e-3);
        assert!(r.df > 4.0 && r.df < 4.1);
    }

    #[test]
    fn welch_symmetry_in_sign() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        let r1 = welch_t_test(&a, &b);
        let r2 = welch_t_test(&b, &a);
        assert!((r1.t + r2.t).abs() < 1e-12);
        assert!((r1.p_value - r2.p_value).abs() < 1e-12);
    }

    #[test]
    fn welch_degenerate_constant_samples() {
        let r = welch_t_test(&[2.0, 2.0, 2.0], &[2.0, 2.0]);
        assert_eq!(r.p_value, 1.0);
        let r = welch_t_test(&[2.0, 2.0, 2.0], &[3.0, 3.0]);
        assert_eq!(r.p_value, 0.0);
    }

    #[test]
    fn welch_tiny_samples_are_neutral() {
        let r = welch_t_test(&[1.0], &[100.0, 200.0]);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn welch_moments_path_matches_slice_path() {
        let a = [0.3, 1.7, 2.9, -0.4, 5.5, 2.2];
        let b = [1.1, 1.2, 0.8, 3.0];
        let r1 = welch_t_test(&a, &b);
        let r2 = welch_t_test_from_moments(&Moments::from_slice(&a), &Moments::from_slice(&b));
        assert_eq!(r1, r2);
    }

    #[test]
    fn ks_identical_samples() {
        let a = [1.0, 2.0, 3.0];
        let r = ks_test(&a, &a);
        assert_eq!(r.statistic, 0.0);
        assert!((r.p_value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_disjoint_samples() {
        let r = ks_test(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]);
        assert_eq!(r.statistic, 1.0);
        assert!(r.p_value < 0.05);
    }

    #[test]
    fn ks_reference_scipy() {
        // scipy.stats.ks_2samp([1,2,3,4], [3,4,5,6]).statistic = 0.5
        let r = ks_test(&[1.0, 2.0, 3.0, 4.0], &[3.0, 4.0, 5.0, 6.0]);
        assert!((r.statistic - 0.5).abs() < 1e-15);
    }

    #[test]
    fn ks_statistic_bounds() {
        let a = [0.5, 1.5, 2.5, 3.0, 9.0];
        let b = [1.0, 2.0];
        let r = ks_test(&a, &b);
        assert!(r.statistic >= 0.0 && r.statistic <= 1.0);
        assert!(r.p_value >= 0.0 && r.p_value <= 1.0);
    }

    #[test]
    fn mwu_identical_samples() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let r = mann_whitney_u(&a, &a);
        assert!((r.p_value - 1.0).abs() < 0.2, "p={}", r.p_value);
        assert!(r.z.abs() < 0.5);
    }

    #[test]
    fn mwu_shifted_samples_detected() {
        let a: Vec<f64> = (0..30).map(|i| i as f64 * 0.1).collect();
        let b: Vec<f64> = (0..30).map(|i| 5.0 + i as f64 * 0.1).collect();
        let r = mann_whitney_u(&a, &b);
        assert!(r.p_value < 1e-6, "p={}", r.p_value);
    }

    #[test]
    fn mwu_u_statistic_reference() {
        // scipy.stats.mannwhitneyu([1,2,3], [4,5,6]): U1 = 0.
        let r = mann_whitney_u(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]);
        assert_eq!(r.u, 0.0);
        // And the mirror image: U1 = 9.
        let r = mann_whitney_u(&[4.0, 5.0, 6.0], &[1.0, 2.0, 3.0]);
        assert_eq!(r.u, 9.0);
    }

    #[test]
    fn mwu_all_ties_neutral() {
        let r = mann_whitney_u(&[5.0, 5.0, 5.0], &[5.0, 5.0]);
        assert_eq!(r.p_value, 1.0);
        assert_eq!(r.z, 0.0);
    }
}
