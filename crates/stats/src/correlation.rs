//! Classical bivariate correlation coefficients.
//!
//! The paper positions HiCS against "classical correlation analysis
//! approaches … say, the Pearson or Spearman correlation coefficient", which
//! are limited to pairs of attributes and to (near-)monotone dependence.
//! They are provided here for the comparison examples and as sanity baselines
//! in tests: on the Fig. 2 toy data, Pearson/Spearman can detect dataset B's
//! linear-ish coupling, but on the Fig. 3 XOR data all pairwise coefficients
//! vanish while the 3-d HiCS contrast does not.

use crate::rank::midranks;

/// Pearson product-moment correlation of two equal-length samples.
///
/// Returns `NaN` if either sample is constant.
///
/// # Panics
/// Panics if the slices differ in length or are shorter than 2.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson requires equal-length samples");
    assert!(x.len() >= 2, "pearson requires at least 2 observations");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        let dx = xi - mx;
        let dy = yi - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return f64::NAN;
    }
    (sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0)
}

/// Spearman rank correlation (Pearson correlation of midranks).
///
/// # Panics
/// Panics if the slices differ in length or are shorter than 2.
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "spearman requires equal-length samples");
    pearson(&midranks(x), &midranks(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_linear() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let y_neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &y_neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_nan() {
        assert!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_nan());
    }

    #[test]
    fn pearson_reference() {
        // numpy.corrcoef([1,2,3,4,5], [2,1,4,3,5])[0,1] = 0.8
        let r = pearson(&[1.0, 2.0, 3.0, 4.0, 5.0], &[2.0, 1.0, 4.0, 3.0, 5.0]);
        assert!((r - 0.8).abs() < 1e-12);
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let x = [1.0_f64, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| v.exp()).collect();
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_with_ties_reference() {
        // Hand-computed: midranks of x are [1, 2.5, 2.5, 4]; Pearson of the
        // rank vectors is 4.5/sqrt(4.5*5) = 0.9486832980505138.
        let r = spearman(&[1.0, 2.0, 2.0, 3.0], &[1.0, 3.0, 2.0, 4.0]);
        assert!((r - 0.9486832980505138).abs() < 1e-9);
    }

    #[test]
    fn quadratic_dependence_invisible_to_pearson() {
        // Symmetric parabola: strong dependence, near-zero linear correlation.
        let x: Vec<f64> = (-50..=50).map(|i| i as f64 / 10.0).collect();
        let y: Vec<f64> = x.iter().map(|v| v * v).collect();
        assert!(pearson(&x, &y).abs() < 1e-10);
    }
}
