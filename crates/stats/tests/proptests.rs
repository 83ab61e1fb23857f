//! Property-based tests of the statistical substrate: identities of the
//! special functions, distribution laws, and estimator invariants.

use hics_stats::dist::{ChiSquared, Normal, StudentsT};
use hics_stats::ecdf::Ecdf;
use hics_stats::moments::Moments;
use hics_stats::special::{betai, erf, erfc, gammap, gammaq, ln_gamma};
use hics_stats::two_sample::{ks_test, mann_whitney_u, welch_t_test};
use proptest::prelude::*;

fn finite_sample(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e4..1e4f64, 3..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ln_gamma_recurrence(x in 0.1..50.0f64) {
        // Γ(x+1) = x·Γ(x)  ⟺  lnΓ(x+1) = ln x + lnΓ(x).
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    #[test]
    fn betai_reflection(a in 0.2..20.0f64, b in 0.2..20.0f64, x in 0.0..1.0f64) {
        // I_x(a,b) = 1 − I_{1−x}(b,a).
        let lhs = betai(a, b, x);
        let rhs = 1.0 - betai(b, a, 1.0 - x);
        prop_assert!((lhs - rhs).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&lhs));
    }

    #[test]
    fn incomplete_gamma_complement(a in 0.1..50.0f64, x in 0.0..100.0f64) {
        let p = gammap(a, x);
        let q = gammaq(a, x);
        prop_assert!((p + q - 1.0).abs() < 1e-10);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn erf_odd_and_bounded(x in -6.0..6.0f64) {
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-12);
        prop_assert!(erf(x).abs() <= 1.0);
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn normal_cdf_monotone(mean in -10.0..10.0f64, sd in 0.1..10.0f64,
                           a in -20.0..20.0f64, delta in 0.0..10.0f64) {
        let n = Normal::new(mean, sd);
        prop_assert!(n.cdf(a + delta) >= n.cdf(a) - 1e-12);
        prop_assert!((n.cdf(a) + n.survival(a) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn normal_quantile_inverts_cdf(p in 0.001..0.999f64) {
        let n = Normal::STANDARD;
        prop_assert!((n.cdf(n.quantile(p)) - p).abs() < 1e-8);
    }

    #[test]
    fn t_cdf_symmetry(nu in 0.5..100.0f64, t in -30.0..30.0f64) {
        let d = StudentsT::new(nu);
        prop_assert!((d.cdf(t) + d.cdf(-t) - 1.0).abs() < 1e-9);
        let p = d.two_tailed_p(t);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn chi_squared_cdf_in_bounds(k in 0.5..60.0f64, x in 0.0..200.0f64) {
        let c = ChiSquared::new(k);
        let v = c.cdf(x);
        prop_assert!((0.0..=1.0).contains(&v));
        prop_assert!(c.cdf(x + 1.0) >= v - 1e-12);
    }

    #[test]
    fn moments_shift_invariance(sample in finite_sample(50), shift in -1e3..1e3f64) {
        // Variance is invariant under translation; the mean shifts exactly.
        let m1 = Moments::from_slice(&sample);
        let shifted: Vec<f64> = sample.iter().map(|v| v + shift).collect();
        let m2 = Moments::from_slice(&shifted);
        prop_assert!((m1.mean() + shift - m2.mean()).abs() < 1e-6);
        prop_assert!((m1.variance() - m2.variance()).abs()
            < 1e-6 * m1.variance().abs().max(1.0));
    }

    #[test]
    fn welch_detects_large_shifts(base in finite_sample(40), shift in 50.0..100.0f64) {
        // Sample vs itself: p = 1; sample vs hugely shifted copy: small p
        // (unless the sample is constant, where df handling kicks in).
        let r_same = welch_t_test(&base, &base);
        prop_assert!((r_same.p_value - 1.0).abs() < 1e-9);
        let spread = Moments::from_slice(&base).variance().sqrt();
        prop_assume!(spread.is_finite() && spread > 1e-6);
        let shifted: Vec<f64> = base.iter().map(|v| v + shift * spread).collect();
        let r = welch_t_test(&base, &shifted);
        prop_assert!(r.p_value < 0.01, "p = {}", r.p_value);
    }

    #[test]
    fn ks_statistic_scale_invariant(sample in finite_sample(40), scale in 0.1..10.0f64) {
        // KS compares ranks: a common positive rescaling of both samples
        // leaves the statistic unchanged.
        let other: Vec<f64> = sample.iter().map(|v| v * 0.5 + 1.0).collect();
        let d1 = ks_test(&sample, &other).statistic;
        let sa: Vec<f64> = sample.iter().map(|v| v * scale).collect();
        let sb: Vec<f64> = other.iter().map(|v| v * scale).collect();
        let d2 = ks_test(&sa, &sb).statistic;
        prop_assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn mwu_u_values_complementary(a in finite_sample(25), b in finite_sample(25)) {
        // U_a + U_b = n_a · n_b when rank sums are consistent (midranks keep
        // the identity exactly).
        let ua = mann_whitney_u(&a, &b).u;
        let ub = mann_whitney_u(&b, &a).u;
        prop_assert!((ua + ub - (a.len() * b.len()) as f64).abs() < 1e-6);
    }

    #[test]
    fn ecdf_quantile_and_eval_consistent(sample in finite_sample(50), p in 0.01..1.0f64) {
        let e = Ecdf::new(&sample);
        let q = e.quantile(p);
        // At least p of the sample is <= q.
        prop_assert!(e.eval(q) >= p - 1e-9);
    }
}
