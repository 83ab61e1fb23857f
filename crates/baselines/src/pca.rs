//! PCA + LOF: the dimensionality-reduction competitor (paper Section V-A).
//!
//! The paper evaluates two reduction strategies — *PCALOF1* keeps 50 % of
//! the original dimensionality, *PCALOF2* keeps a constant 10 components —
//! and shows both fail as pre-processing for subspace outlier ranking:
//! variance maximisation has nothing to do with where outliers hide, so AUC
//! collapses toward 50 %. This module reproduces exactly that pipeline.

use crate::linalg::{jacobi_eigen, EigenDecomposition, SymMatrix};
use hics_data::Dataset;
use hics_outlier::lof::Lof;

/// Principal component analysis of a dataset (covariance + Jacobi).
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    eigen: EigenDecomposition,
}

impl Pca {
    /// Fits PCA on the dataset: centres columns, builds the covariance
    /// matrix and eigendecomposes it.
    ///
    /// # Panics
    /// Panics if the dataset has fewer than 2 objects.
    pub fn fit(data: &Dataset) -> Self {
        let n = data.n();
        let d = data.d();
        assert!(n >= 2, "PCA needs at least two objects");
        let mean: Vec<f64> = (0..d)
            .map(|j| data.col(j).iter().sum::<f64>() / n as f64)
            .collect();
        let mut cov = SymMatrix::zeros(d);
        for a in 0..d {
            let ca = data.col(a);
            for b in a..d {
                let cb = data.col(b);
                let mut acc = 0.0;
                for i in 0..n {
                    acc += (ca[i] - mean[a]) * (cb[i] - mean[b]);
                }
                let v = acc / (n as f64 - 1.0);
                cov.set(a, b, v);
                cov.set(b, a, v);
            }
        }
        Self {
            mean,
            eigen: jacobi_eigen(cov),
        }
    }

    /// Projects the dataset onto its leading `k` principal components.
    ///
    /// # Panics
    /// Panics if `k` is 0 or exceeds the dimensionality.
    pub fn project(&self, data: &Dataset, k: usize) -> Dataset {
        let d = data.d();
        assert!(
            k >= 1 && k <= d,
            "cannot project onto {k} of {d} components"
        );
        let n = data.n();
        let mut cols = vec![vec![0.0f64; n]; k];
        for (c, out) in cols.iter_mut().enumerate() {
            let v = &self.eigen.vectors[c];
            for (i, o) in out.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (j, (vj, mj)) in v.iter().zip(&self.mean).enumerate() {
                    acc += (data.value(i, j) - mj) * vj;
                }
                *o = acc;
            }
        }
        let names = (0..k).map(|c| format!("pc{c}")).collect();
        Dataset::from_columns_named(cols, names)
    }
}

/// The paper's two reduction strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcaStrategy {
    /// PCALOF1: keep 50 % of the original dimensionality (at least 1).
    HalfDims,
    /// PCALOF2: keep a constant number of components (paper: 10).
    FixedDims(usize),
}

impl PcaStrategy {
    /// Number of components retained for a `d`-dimensional dataset.
    pub fn components(&self, d: usize) -> usize {
        match self {
            PcaStrategy::HalfDims => (d / 2).max(1),
            PcaStrategy::FixedDims(k) => (*k).clamp(1, d),
        }
    }
}

/// PCA + full-space LOF on the projected data.
#[derive(Debug, Clone, Copy)]
pub struct PcaLof {
    /// Reduction strategy.
    pub strategy: PcaStrategy,
    /// LOF neighbourhood size.
    pub lof_k: usize,
}

impl PcaLof {
    /// Creates the method.
    pub fn new(strategy: PcaStrategy, lof_k: usize) -> Self {
        Self { strategy, lof_k }
    }

    /// Ranks outliers: fit PCA → project → LOF in the projected space.
    pub fn rank(&self, data: &Dataset) -> Vec<f64> {
        let k = self.strategy.components(data.d());
        let projected = Pca::fit(data).project(data, k);
        let dims: Vec<usize> = (0..projected.d()).collect();
        Lof::with_k(self.lof_k).scores(&projected, &dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_data::rng_util::gauss_with;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 2-d data stretched along the diagonal: PC1 must be ±(1,1)/√2.
    fn diagonal_data() -> Dataset {
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..500 {
            let t = gauss_with(&mut rng, 0.0, 3.0);
            let noise = gauss_with(&mut rng, 0.0, 0.1);
            a.push(t + noise);
            b.push(t - noise);
        }
        Dataset::from_columns(vec![a, b])
    }

    #[test]
    fn first_component_captures_diagonal() {
        let d = diagonal_data();
        let pca = Pca::fit(&d);
        let v = &pca.eigen.vectors[0];
        let ratio = (v[0] / v[1]).abs();
        assert!((ratio - 1.0).abs() < 0.05, "PC1 {v:?}");
        assert!(pca.eigen.values[0] > 10.0 * pca.eigen.values[1]);
    }

    #[test]
    fn projection_shape_and_variance_order() {
        let d = diagonal_data();
        let pca = Pca::fit(&d);
        let p = pca.project(&d, 2);
        assert_eq!(p.n(), 500);
        assert_eq!(p.d(), 2);
        let var = |c: &[f64]| {
            let m = c.iter().sum::<f64>() / c.len() as f64;
            c.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (c.len() as f64 - 1.0)
        };
        assert!(var(p.col(0)) > var(p.col(1)));
    }

    #[test]
    fn projected_columns_are_uncorrelated() {
        let d = diagonal_data();
        let p = Pca::fit(&d).project(&d, 2);
        let r = hics_stats::correlation::pearson(p.col(0), p.col(1));
        assert!(r.abs() < 0.05, "components correlated: {r}");
    }

    #[test]
    fn strategy_component_counts() {
        assert_eq!(PcaStrategy::HalfDims.components(100), 50);
        assert_eq!(PcaStrategy::HalfDims.components(3), 1);
        assert_eq!(PcaStrategy::FixedDims(10).components(100), 10);
        // Paper note: for 10-d data, FixedDims(10) is no reduction at all.
        assert_eq!(PcaStrategy::FixedDims(10).components(10), 10);
        assert_eq!(PcaStrategy::FixedDims(10).components(4), 4);
    }

    #[test]
    fn pcalof_runs_end_to_end() {
        let g = hics_data::SyntheticConfig::new(300, 10)
            .with_seed(3)
            .generate();
        let scores = PcaLof::new(PcaStrategy::HalfDims, 10).rank(&g.dataset);
        assert_eq!(scores.len(), 300);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    #[should_panic]
    fn project_rejects_zero_components() {
        let d = diagonal_data();
        Pca::fit(&d).project(&d, 0);
    }
}
