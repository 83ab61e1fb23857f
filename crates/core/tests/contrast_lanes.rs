//! Batch boundaries of the lockstep contrast loop.
//!
//! `ContrastEstimator` draws its `M` slices in batches of up to
//! [`LANES`] and scores each batch in one test pass. These tests
//! rebuild the contrast one slice at a time from public pieces — single
//! `SliceSampler::draw`s, materialised conditional samples, the plain
//! `hics-stats` tests and the explicit `1.0` for slices under two members —
//! and demand the batched estimator match it to the last bit, for `M` on
//! both sides of every batch boundary, every subspace dimensionality the
//! search reaches in practice and every statistical test.

use hics_core::contrast::{ContrastEstimator, StatTest};
use hics_core::{SliceSampler, SliceSizing, Subspace};
use hics_data::{Dataset, SyntheticConfig};
use hics_stats::ecdf::Ecdf;
use hics_stats::moments::{MeanVariance, Moments};
use hics_stats::two_sample::{ks_test_from_ecdfs, mann_whitney_u, welch_t_test_from_moments};
use hics_stats::LANES;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TESTS: [StatTest; 4] = [
    StatTest::WelchT,
    StatTest::KolmogorovSmirnov,
    StatTest::KsPValue,
    StatTest::MannWhitney,
];

/// The estimator's per-subspace RNG stream id (FNV-1a over the dims).
fn subspace_stream(s: &Subspace) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for d in s.dims() {
        h ^= d as u64 + 1;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One slice's deviation from the materialised conditional sample.
fn deviation(test: StatTest, col: &[f64], conditional: &[f64]) -> f64 {
    let marginal = Ecdf::new(col);
    match test {
        StatTest::WelchT => {
            let mut cond = MeanVariance::new();
            for &v in conditional {
                cond.push(v);
            }
            1.0 - welch_t_test_from_moments(&Moments::from_slice(col), &cond).p_value
        }
        StatTest::KolmogorovSmirnov => marginal.ks_distance(&Ecdf::new(conditional)),
        StatTest::KsPValue => 1.0 - ks_test_from_ecdfs(&marginal, &Ecdf::new(conditional)).p_value,
        StatTest::MannWhitney => {
            1.0 - mann_whitney_u(marginal.sorted_values(), conditional).p_value
        }
    }
}

/// `contrast(sub, seed)` one slice at a time; also returns how many slices
/// had fewer than two members.
fn reference(
    data: &Dataset,
    sub: &Subspace,
    m: usize,
    alpha: f64,
    test: StatTest,
    seed: u64,
) -> (f64, usize) {
    let indices = data.rank_index();
    let mut sampler = SliceSampler::new(data, &indices, sub, alpha, SliceSizing::PaperRoot);
    let mut rng = StdRng::seed_from_u64(seed ^ subspace_stream(sub));
    let mut acc = 0.0;
    let mut small = 0;
    for _ in 0..m {
        let slice = sampler.draw(&mut rng).to_sample();
        acc += if slice.conditional.len() < 2 {
            small += 1;
            1.0
        } else {
            deviation(test, data.col(slice.ref_attr), &slice.conditional).clamp(0.0, 1.0)
        };
    }
    (acc / m as f64, small)
}

fn fixture() -> Dataset {
    SyntheticConfig::new(300, 8)
        .with_seed(23)
        .generate()
        .dataset
}

#[test]
fn contrast_matches_one_slice_reference_across_batch_boundaries() {
    let data = fixture();
    let subspaces = [
        Subspace::pair(0, 5),
        Subspace::new([1, 2, 6]),
        Subspace::new([0, 3, 4, 7]),
        Subspace::new([1, 2, 3, 5, 6]),
    ];
    for m in [
        1,
        LANES - 1,
        LANES,
        LANES + 1,
        2 * LANES + 1,
        7,
        8,
        9,
        17,
        50,
    ] {
        for test in TESTS {
            let est =
                ContrastEstimator::new(&data, m, 0.1, SliceSizing::PaperRoot, test.as_deviation());
            for sub in &subspaces {
                let got = est.contrast(sub, 41);
                let (want, _) = reference(&data, sub, m, 0.1, test, 41);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "M = {m}, {}, subspace {sub}: {got} vs {want}",
                    test.name()
                );
            }
        }
    }
}

#[test]
fn empty_slices_score_one_inside_batches() {
    // α = 0.01 with |S| = 5 on 60 rows leaves about one or two objects per
    // slice, so slices under two members land in every lane position.
    let cols: Vec<Vec<f64>> = (0..6)
        .map(|j| {
            (0..60)
                .map(|i| ((i * (7 + 2 * j) + j) % 61) as f64)
                .collect()
        })
        .collect();
    let data = Dataset::from_columns(cols);
    let sub = Subspace::new([0, 1, 2, 3, 5]);
    for test in TESTS {
        for m in [9, 50] {
            let est =
                ContrastEstimator::new(&data, m, 0.01, SliceSizing::PaperRoot, test.as_deviation());
            let got = est.contrast(&sub, 5);
            let (want, small) = reference(&data, &sub, m, 0.01, test, 5);
            assert!(small > 0, "fixture must produce slices under two members");
            assert_eq!(got.to_bits(), want.to_bits(), "M = {m}, {}", test.name());
        }
    }
}

#[test]
fn retargeted_sampler_matches_fresh_sampler() {
    let data = fixture();
    let subspaces = [
        Subspace::new([0, 2, 4, 6, 7]),
        Subspace::pair(1, 3),
        Subspace::new([2, 5, 7]),
        Subspace::new([0, 1, 4, 6]),
        Subspace::pair(2, 7),
    ];
    for test in TESTS {
        let est =
            ContrastEstimator::new(&data, 17, 0.1, SliceSizing::PaperRoot, test.as_deviation());
        let mut sampler = est.sampler(&subspaces[0]);
        for sub in &subspaces {
            let reused = est.contrast_with_sampler(&mut sampler, sub, 13);
            let fresh = est.contrast(sub, 13);
            assert_eq!(reused.to_bits(), fresh.to_bits(), "{}, {sub}", test.name());
        }
    }
}
