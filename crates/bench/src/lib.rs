//! Shared experiment harness for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one figure or table of the paper
//! (see DESIGN.md §4). They share method construction (identical LOF
//! settings for all competitors, Section V), timing/evaluation, and a
//! two-level effort profile: the default profile runs in minutes on a
//! laptop; `--full` matches the paper's grid exactly.

use hics_baselines::{
    EnclusMethod, EnclusParams, FullSpaceLof, HicsMethod, OutlierMethod, PcaLofMethod,
    RandSubMethod, RandomSubspacesParams, RisMethod, RisParams,
};
use hics_core::HicsParams;
use hics_data::LabeledDataset;
use hics_eval::report::Stopwatch;
use hics_eval::roc::roc_auc;

/// LOF neighbourhood size shared by every method (paper: identical MinPts
/// for all competitors).
pub const LOF_K: usize = 10;

/// Whether the binary was invoked with `--full` (paper-scale grid).
pub fn full_scale() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Paper-default HiCS parameters with the given seed.
pub fn hics_params(seed: u64) -> HicsParams {
    let mut p = HicsParams::paper_defaults().with_seed(seed);
    p.lof_k = LOF_K;
    p
}

/// All seven methods of the Fig. 4 quality experiment, in figure order:
/// LOF, HiCS, ENCLUS, RIS, RANDSUB, PCALOF1, PCALOF2.
pub fn all_methods(seed: u64) -> Vec<Box<dyn OutlierMethod>> {
    let mut v = subspace_methods(seed);
    v.insert(0, Box::new(FullSpaceLof { k: LOF_K }));
    v.push(Box::new(PcaLofMethod::half(LOF_K)));
    v.push(Box::new(PcaLofMethod::fixed10(LOF_K)));
    v
}

/// The four subspace-ranking methods of the runtime experiments
/// (Figs. 5–6): HiCS, ENCLUS, RIS, RANDSUB.
pub fn subspace_methods(seed: u64) -> Vec<Box<dyn OutlierMethod>> {
    vec![
        Box::new(HicsMethod {
            params: hics_params(seed),
        }),
        Box::new(EnclusMethod {
            params: EnclusParams::default(),
            lof_k: LOF_K,
        }),
        // RIS pays O(N^2) per candidate; the paper reports it as by far the
        // slowest competitor (11283 s on Pendigits) and tuned each
        // competitor's parameters per dataset. We bound its level width and
        // depth so the full sweeps stay tractable without changing its
        // qualitative behaviour.
        Box::new(RisMethod {
            params: RisParams {
                candidate_cutoff: 150,
                max_dim: 4,
                ..RisParams::default()
            },
            lof_k: LOF_K,
        }),
        Box::new(RandSubMethod {
            params: RandomSubspacesParams {
                num_subspaces: 100,
                seed,
            },
            lof_k: LOF_K,
            max_threads: hics_outlier::parallel::available_threads(),
        }),
    ]
}

/// The five methods of the real-world table (Fig. 11): LOF, HiCS, ENCLUS,
/// RIS, RANDSUB.
pub fn realworld_methods(seed: u64) -> Vec<Box<dyn OutlierMethod>> {
    let mut v = subspace_methods(seed);
    v.insert(0, Box::new(FullSpaceLof { k: LOF_K }));
    v
}

/// Runs one method on a labelled dataset; returns `(auc_percent, seconds)`.
pub fn evaluate(method: &dyn OutlierMethod, data: &LabeledDataset) -> (f64, f64) {
    let watch = Stopwatch::start();
    let scores = method.rank(&data.dataset);
    let secs = watch.seconds();
    (100.0 * roc_auc(&scores, &data.labels), secs)
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation of a slice (0 for fewer than 2 values).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() as f64 - 1.0)).sqrt()
}

/// Prints the standard experiment banner.
pub fn banner(figure: &str, description: &str, full: bool) {
    println!("== {figure}: {description} ==");
    println!(
        "profile: {} (pass --full for the paper-scale grid)\n",
        if full { "FULL" } else { "default" }
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_data::SyntheticConfig;

    #[test]
    fn method_sets_have_expected_names() {
        let names: Vec<&str> = all_methods(1).iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            ["LOF", "HiCS", "ENCLUS", "RIS", "RANDSUB", "PCALOF1", "PCALOF2"]
        );
        let rw: Vec<&str> = realworld_methods(1).iter().map(|m| m.name()).collect();
        assert_eq!(rw, ["LOF", "HiCS", "ENCLUS", "RIS", "RANDSUB"]);
    }

    #[test]
    fn evaluate_returns_valid_auc_and_time() {
        let g = SyntheticConfig::new(200, 6).with_seed(2).generate();
        let lof = FullSpaceLof { k: 10 };
        let (auc, secs) = evaluate(&lof, &g);
        assert!((0.0..=100.0).contains(&auc));
        assert!(secs >= 0.0);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((std_dev(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }
}
