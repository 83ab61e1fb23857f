//! Synthetic workload generator reproducing the paper's evaluation data
//! (Section V-A).
//!
//! *"We randomly selected 2-5 dimensional subspaces out of the full data
//! space and generated high density clusters in these subspaces. In each
//! subspace we picked 5 objects and modified them to deviate from all
//! clusters in the selected subspace. […] this deviation was done in a way
//! that the object will not be visible as outlier in any lower dimensional
//! projection."*
//!
//! The generator partitions the `D` attributes into disjoint blocks of
//! dimensionality 2–5. Within each block, objects belong to one of several
//! well-separated Gaussian clusters; across blocks the cluster choices are
//! independent, so only the block's attributes are mutually correlated.
//! Per block, `outliers_per_subspace` objects are re-positioned by rejection
//! sampling so that
//!
//! 1. every single coordinate still lies inside some cluster's marginal
//!    range (hence invisible in any one-dimensional projection — a
//!    *non-trivial* outlier per Definition 3), and
//! 2. the full block-subspace position is far from every cluster centre
//!    (hence clearly outlying under a density-based score in that block).
//!
//! The same object may be chosen as an outlier in several blocks ("outliers
//! hidden in multiple subspace projections", Section I).

// Index-based loops are the clearer idiom for the columnar generators.
#![allow(clippy::needless_range_loop)]

use crate::dataset::Dataset;
use crate::error::HicsError;
use crate::rng_util::{gauss_with, sample_indices};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dataset plus ground-truth outlier labels and the planted subspaces.
#[derive(Debug, Clone)]
pub struct LabeledDataset {
    /// The generated data (already inside `[0, 1]` up to Gaussian tails).
    pub dataset: Dataset,
    /// `labels[i]` is true iff object `i` was planted as an outlier.
    pub labels: Vec<bool>,
    /// The attribute blocks in which clusters/outliers were planted.
    pub planted_subspaces: Vec<Vec<usize>>,
}

impl LabeledDataset {
    /// Number of planted outliers.
    pub fn outlier_count(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }
}

/// Configuration for the synthetic generator.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Number of objects `N`.
    pub n: usize,
    /// Number of attributes `D`.
    pub d: usize,
    /// Outliers planted per correlated block (paper: 5).
    pub outliers_per_subspace: usize,
    /// Inclusive range of block dimensionalities (paper: 2–5).
    pub subspace_dims: (usize, usize),
    /// Inclusive range of clusters per block.
    pub clusters_per_subspace: (usize, usize),
    /// Standard deviation of each Gaussian cluster.
    pub cluster_sd: f64,
    /// Minimum distance (relative to cluster sd) an outlier must keep from
    /// every cluster centre within its block.
    pub outlier_separation: f64,
    /// Number of trailing attributes left as uncorrelated uniform noise
    /// (0 = cover the full space with correlated blocks, like the paper's
    /// repeatability datasets).
    pub noise_dims: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticConfig {
    /// A paper-like configuration for `n` objects and `d` attributes.
    /// Panics where [`SyntheticConfig::checked`] fails.
    pub fn new(n: usize, d: usize) -> Self {
        Self::checked(n, d).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SyntheticConfig::new`], or an input error naming the bounds when
    /// `n < 50` or `d < 2`.
    pub fn checked(n: usize, d: usize) -> Result<Self, HicsError> {
        if n < 50 || d < 2 {
            return Err(HicsError::InvalidInput(format!(
                "a synthetic dataset needs at least 50 objects and 2 attributes, got {n} x {d}"
            )));
        }
        Ok(Self {
            n,
            d,
            outliers_per_subspace: 5,
            subspace_dims: (2, 5),
            clusters_per_subspace: (2, 4),
            cluster_sd: 0.03,
            outlier_separation: 5.0,
            noise_dims: 0,
            seed: 0,
        })
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of trailing pure-noise attributes.
    pub fn with_noise_dims(mut self, k: usize) -> Self {
        assert!(k + 2 <= self.d, "noise dims leave no room for blocks");
        self.noise_dims = k;
        self
    }

    /// Generates the dataset.
    pub fn generate(&self) -> LabeledDataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let correlated = self.d - self.noise_dims;
        let block_sizes = partition_block_sizes(correlated, self.subspace_dims, &mut rng);

        let mut cols = vec![vec![0.0f64; self.n]; self.d];
        let mut labels = vec![false; self.n];
        let mut planted = Vec::with_capacity(block_sizes.len());

        let mut attr = 0usize;
        for &bd in &block_sizes {
            let block: Vec<usize> = (attr..attr + bd).collect();
            attr += bd;
            self.fill_block(&block, &mut cols, &mut labels, &mut rng);
            planted.push(block);
        }
        // Remaining attributes: independent uniform noise.
        for j in (self.d - self.noise_dims)..self.d {
            for i in 0..self.n {
                cols[j][i] = rng.gen::<f64>();
            }
        }

        LabeledDataset {
            dataset: Dataset::from_columns(cols),
            labels,
            planted_subspaces: planted,
        }
    }

    /// Populates one correlated block: clustered inliers, then re-positions
    /// a handful of objects as non-trivial outliers.
    fn fill_block(
        &self,
        block: &[usize],
        cols: &mut [Vec<f64>],
        labels: &mut [bool],
        rng: &mut StdRng,
    ) {
        let bd = block.len();
        let k = rng.gen_range(self.clusters_per_subspace.0..=self.clusters_per_subspace.1);
        let centers = well_separated_centers(bd, k, 8.0 * self.cluster_sd, rng);

        // Clustered population: independent cluster choice per object.
        for i in 0..cols[0].len() {
            let c = &centers[rng.gen_range(0..k)];
            for (b, &j) in block.iter().enumerate() {
                cols[j][i] = clamp01(gauss_with(rng, c[b], self.cluster_sd));
            }
        }

        // Plant the outliers.
        let n = cols[0].len();
        let chosen = sample_indices(rng, n, self.outliers_per_subspace.min(n));
        for &i in &chosen {
            let pos = self.sample_nontrivial_outlier(&centers, rng);
            for (b, &j) in block.iter().enumerate() {
                cols[j][i] = pos[b];
            }
            labels[i] = true;
        }
    }

    /// Rejection-samples a block position whose every coordinate lies within
    /// ±1.5 sd of some cluster centre (1-d invisible) but whose distance to
    /// every centre exceeds `outlier_separation · sd · √d` (block outlier).
    fn sample_nontrivial_outlier(&self, centers: &[Vec<f64>], rng: &mut StdRng) -> Vec<f64> {
        let bd = centers[0].len();
        let min_dist = self.outlier_separation * self.cluster_sd * (bd as f64).sqrt();
        let mut best: Option<(f64, Vec<f64>)> = None;
        for _ in 0..10_000 {
            // Each coordinate borrows the marginal of a random cluster.
            let pos: Vec<f64> = (0..bd)
                .map(|b| {
                    let c = &centers[rng.gen_range(0..centers.len())];
                    let off = (rng.gen::<f64>() * 2.0 - 1.0) * 1.5 * self.cluster_sd;
                    clamp01(c[b] + off)
                })
                .collect();
            let d = centers
                .iter()
                .map(|c| euclid(&pos, c))
                .fold(f64::INFINITY, f64::min);
            if d >= min_dist {
                return pos;
            }
            if best.as_ref().is_none_or(|(bd_, _)| d > *bd_) {
                best = Some((d, pos));
            }
        }
        // Single-cluster blocks (or overly tight separation) may be
        // unsatisfiable; fall back to the farthest candidate seen.
        best.expect("rejection loop ran").1
    }
}

/// Splits `total` attributes into blocks (shared with the UCI proxies) whose sizes lie in `range`,
/// guaranteeing the remainder is never an un-fillable 1.
pub(crate) fn partition_block_sizes(
    total: usize,
    range: (usize, usize),
    rng: &mut StdRng,
) -> Vec<usize> {
    let (lo, hi) = range;
    assert!(lo >= 2 && hi >= lo, "invalid block-size range {range:?}");
    assert!(total >= lo, "not enough attributes ({total}) for one block");
    let mut sizes = Vec::new();
    let mut left = total;
    while left > 0 {
        if left <= hi {
            sizes.push(left);
            break;
        }
        // Keep the remainder fillable: never leave 1 attribute behind.
        let max_take = hi.min(left - lo).max(lo);
        let mut take = rng.gen_range(lo..=max_take);
        if left - take == 1 {
            take = if take > lo { take - 1 } else { take + 1 };
        }
        sizes.push(take);
        left -= take;
    }
    sizes
}

/// Draws `k` cluster centres in `[0.15, 0.85]^d` with pairwise distance at
/// least `min_sep`, by retry with progressive relaxation.
pub(crate) fn well_separated_centers(
    d: usize,
    k: usize,
    mut min_sep: f64,
    rng: &mut StdRng,
) -> Vec<Vec<f64>> {
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut attempts = 0;
    while centers.len() < k {
        let cand: Vec<f64> = (0..d).map(|_| 0.15 + 0.7 * rng.gen::<f64>()).collect();
        if centers.iter().all(|c| euclid(c, &cand) >= min_sep) {
            centers.push(cand);
        }
        attempts += 1;
        if attempts > 1000 {
            min_sep *= 0.8;
            attempts = 0;
        }
    }
    centers
}

pub(crate) fn euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

pub(crate) fn clamp01(v: f64) -> f64 {
    v.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let g = SyntheticConfig::new(300, 10).with_seed(1).generate();
        assert_eq!(g.dataset.n(), 300);
        assert_eq!(g.dataset.d(), 10);
        assert_eq!(g.labels.len(), 300);
    }

    #[test]
    fn checked_names_the_bounds_instead_of_panicking() {
        for (n, d) in [(49, 4), (60, 1)] {
            match SyntheticConfig::checked(n, d) {
                Err(e @ HicsError::InvalidInput(_)) => {
                    let msg = e.to_string();
                    assert!(
                        msg.contains("50 objects") && msg.contains("2 attributes"),
                        "{msg}"
                    );
                    assert_eq!(e.exit_code(), 2);
                }
                other => panic!("{n} x {d}: expected an input error, got {other:?}"),
            }
        }
        assert_eq!(SyntheticConfig::checked(50, 2).unwrap().n, 50);
    }

    #[test]
    fn blocks_partition_correlated_attributes() {
        let g = SyntheticConfig::new(200, 17).with_seed(2).generate();
        let mut seen: Vec<usize> = g.planted_subspaces.concat();
        seen.sort_unstable();
        assert_eq!(seen, (0..17).collect::<Vec<_>>());
        for b in &g.planted_subspaces {
            assert!(b.len() >= 2 && b.len() <= 5, "block size {}", b.len());
        }
    }

    #[test]
    fn noise_dims_excluded_from_blocks() {
        let g = SyntheticConfig::new(200, 12)
            .with_noise_dims(4)
            .with_seed(3)
            .generate();
        let covered: Vec<usize> = g.planted_subspaces.concat();
        assert!(covered.iter().all(|&j| j < 8));
    }

    #[test]
    fn outlier_count_scales_with_blocks() {
        let g = SyntheticConfig::new(500, 10).with_seed(4).generate();
        let k = g.outlier_count();
        // 2-5 blocks of 2-5 dims cover 10 attrs → 2..=5 blocks, 5 outliers
        // each, minus possible overlaps.
        assert!((5..=25).contains(&k), "unexpected outlier count {k}");
    }

    #[test]
    fn values_are_in_unit_interval() {
        let g = SyntheticConfig::new(400, 8).with_seed(5).generate();
        for j in 0..8 {
            for &v in g.dataset.col(j) {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = SyntheticConfig::new(150, 6).with_seed(42).generate();
        let b = SyntheticConfig::new(150, 6).with_seed(42).generate();
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticConfig::new(150, 6).with_seed(1).generate();
        let b = SyntheticConfig::new(150, 6).with_seed(2).generate();
        assert_ne!(a.dataset, b.dataset);
    }

    #[test]
    fn outliers_are_nontrivial_in_marginals() {
        // Non-triviality (Definition 3): every outlier coordinate lies in a
        // region of substantial one-dimensional density, so no single
        // attribute reveals it. Check that ≥ 3% of the column lies within
        // 2.5 cluster-sd of each outlier coordinate.
        let cfg = SyntheticConfig::new(600, 6);
        let g = cfg.clone().with_seed(7).generate();
        for block in &g.planted_subspaces {
            for &j in block {
                let col = g.dataset.col(j);
                for i in (0..600).filter(|&i| g.labels[i]) {
                    let v = g.dataset.value(i, j);
                    let near = col
                        .iter()
                        .filter(|&&x| (x - v).abs() <= 2.5 * cfg.cluster_sd)
                        .count();
                    assert!(
                        near as f64 >= 0.03 * col.len() as f64,
                        "outlier {i} is marginally atypical in attr {j} ({near} nearby)"
                    );
                }
            }
        }
    }

    #[test]
    fn outliers_are_far_from_clusters_in_block() {
        // Distance from each outlier to its nearest inlier within the block
        // should exceed the typical inlier nearest-neighbour distance.
        let cfg = SyntheticConfig::new(500, 4);
        let g = cfg.clone().with_seed(11).generate();
        for block in &g.planted_subspaces {
            let dist = |a: usize, b: usize| -> f64 {
                block
                    .iter()
                    .map(|&j| {
                        let d = g.dataset.value(a, j) - g.dataset.value(b, j);
                        d * d
                    })
                    .sum::<f64>()
                    .sqrt()
            };
            let inliers: Vec<usize> = (0..500).filter(|&i| !g.labels[i]).collect();
            let outliers: Vec<usize> = (0..500).filter(|&i| g.labels[i]).collect();
            for &o in &outliers {
                let d_out = inliers
                    .iter()
                    .map(|&i| dist(o, i))
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    d_out > 2.0 * cfg.cluster_sd,
                    "outlier {o} too close to cluster in block {block:?}: {d_out}"
                );
            }
        }
    }

    #[test]
    fn partition_never_leaves_singleton() {
        let mut rng = StdRng::seed_from_u64(9);
        for total in 2..200 {
            let sizes = partition_block_sizes(total, (2, 5), &mut rng);
            assert_eq!(sizes.iter().sum::<usize>(), total);
            assert!(sizes.iter().all(|&s| s >= 2), "sizes {sizes:?} for {total}");
            // Trailing block may legitimately exceed 5 only when forced
            // (e.g. total=6 → [6] is allowed to avoid a singleton), but must
            // stay below 2*min.
            assert!(sizes.iter().all(|&s| s <= 6), "sizes {sizes:?}");
        }
    }
}
