//! # hics-stats — statistical substrate for the HiCS reproduction
//!
//! Self-contained numerical statistics, implemented from scratch:
//!
//! * [`special`] — log-gamma, regularized incomplete beta/gamma, erf.
//! * [`dist`] — Normal, Student-t, Chi-squared, Kolmogorov distributions.
//! * [`moments`] — Welford streaming moments (mean/variance).
//! * [`ecdf`] — empirical CDFs and the exact two-sample KS supremum.
//! * [`rank`] — argsort, midranks, tie groups.
//! * [`two_sample`] — Welch's t-test, two-sample KS test, Mann–Whitney U.
//! * [`masked`] — rank-aware masked-subsample tests (sort-free, alloc-free
//!   KS / Mann–Whitney against a precomputed marginal order) and the
//!   lockstep Welch lanes kernel (moments of up to six masks per pass).
//! * [`correlation`] — Pearson and Spearman baselines.
//! * [`histogram`] — sparse grid histograms and their Shannon entropy
//!   (for Enclus).
//!
//! These are the statistical instantiations of the HiCS `deviation` function
//! (paper Section III-E) plus everything the competitor methods need.

#![warn(missing_docs)]

pub mod correlation;
pub mod dist;
pub mod ecdf;
pub mod histogram;
pub mod masked;
pub mod moments;
pub mod rank;
pub mod special;
pub mod two_sample;

pub use dist::{ChiSquared, Kolmogorov, Normal, StudentsT};
pub use ecdf::Ecdf;
pub use masked::{
    masked_ks_distance, masked_ks_test, masked_mann_whitney, masked_mean_variance_lanes,
    MaskedLane, LANES,
};
pub use moments::{MeanVariance, Moments};
pub use two_sample::{
    ks_test, ks_test_from_ecdfs, mann_whitney_u, welch_t_test, welch_t_test_from_moments, KsResult,
    MannWhitneyResult, WelchResult,
};
