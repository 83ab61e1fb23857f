//! Property-based tests of the HiCS core: subspace algebra, slice-sampler
//! guarantees, and contrast behaviour under controlled dependence.

use hics_core::contrast::ContrastEstimator;
use hics_core::{SliceSampler, SliceSizing, StatTest, Subspace};
use hics_data::Dataset;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn subspace_strategy() -> impl Strategy<Value = Subspace> {
    prop::collection::btree_set(0usize..40, 1..6)
        .prop_map(|dims| Subspace::new(dims.into_iter().collect::<Vec<_>>()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn subspace_construction_canonical(dims in prop::collection::vec(0usize..100, 1..8)) {
        let s = Subspace::new(dims.clone());
        let v = s.to_vec();
        // Sorted, deduplicated, and contains exactly the input attributes.
        prop_assert!(v.windows(2).all(|w| w[0] < w[1]));
        for d in &dims {
            prop_assert!(s.contains(*d));
        }
        prop_assert!(v.iter().all(|d| dims.contains(d)));
    }

    #[test]
    fn superset_is_a_partial_order(a in subspace_strategy(), b in subspace_strategy()) {
        // Reflexive.
        prop_assert!(a.is_superset_of(&a));
        // Antisymmetric up to equality.
        if a.is_superset_of(&b) && b.is_superset_of(&a) {
            prop_assert_eq!(&a, &b);
        }
        // Consistent with explicit membership.
        if a.is_superset_of(&b) {
            for d in b.dims() {
                prop_assert!(a.contains(d));
            }
        }
    }

    #[test]
    fn join_is_symmetric(a in subspace_strategy(), b in subspace_strategy()) {
        prop_assert_eq!(a.apriori_join(&b), b.apriori_join(&a));
    }

    #[test]
    fn sizing_alpha1_orders(alpha in 0.01..0.9f64, d in 2usize..8) {
        let paper = SliceSizing::PaperRoot.alpha1(alpha, d);
        let exact = SliceSizing::ExactAlpha.alpha1(alpha, d);
        // Both are valid selectivities; the paper's root is always larger.
        prop_assert!(paper > exact);
        prop_assert!(exact > 0.0 && paper < 1.0);
        // ExactAlpha makes (alpha1)^(d-1) == alpha.
        prop_assert!((exact.powi(d as i32 - 1) - alpha).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn slice_conditional_sizes_bounded(seed in 0u64..500, alpha in 0.05..0.5f64) {
        // The conditional sample can never exceed one condition's block.
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 300;
        let cols: Vec<Vec<f64>> =
            (0..4).map(|_| (0..n).map(|_| rng.gen()).collect()).collect();
        let data = Dataset::from_columns(cols);
        let idx = data.rank_index();
        let sub = Subspace::new([0, 1, 2]);
        let mut sampler =
            SliceSampler::new(&data, &idx, &sub, alpha, SliceSizing::PaperRoot);
        let block = sampler.block_len();
        for _ in 0..10 {
            let s = sampler.draw(&mut rng);
            prop_assert!(s.len() <= block);
            prop_assert!(sub.contains(s.ref_attr));
        }
    }

    #[test]
    fn contrast_increases_with_coupling(seed in 0u64..200) {
        // Interpolate between independence (w = 0) and perfect coupling
        // (w = 1): contrast must be (weakly) larger for the coupled data.
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 400;
        let make = |w: f64, rng: &mut StdRng| {
            let mut a = Vec::with_capacity(n);
            let mut b = Vec::with_capacity(n);
            for _ in 0..n {
                let x: f64 = rng.gen();
                let noise: f64 = rng.gen();
                a.push(x);
                b.push(w * x + (1.0 - w) * noise);
            }
            Dataset::from_columns(vec![a, b])
        };
        let indep = make(0.0, &mut rng);
        let coupled = make(0.95, &mut rng);
        let sub = Subspace::pair(0, 1);
        let c = |d: &Dataset| {
            ContrastEstimator::new(
                d,
                60,
                0.15,
                SliceSizing::PaperRoot,
                StatTest::KolmogorovSmirnov.as_deviation(),
            )
            .contrast(&sub, seed)
        };
        let ci = c(&indep);
        let cc = c(&coupled);
        prop_assert!(
            cc > ci,
            "coupled contrast {cc} <= independent contrast {ci}"
        );
    }
}
