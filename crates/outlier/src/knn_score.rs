//! Distance-based kNN outlier score (the ORCA family).
//!
//! The paper's future work (Section VI) names ORCA (Bay & Schwabacher, KDD
//! 2003) as an alternative instantiation of the decoupled outlier-ranking
//! step: the outlierness of a point is its (average) distance to its k
//! nearest neighbours. Thanks to the decoupling, HiCS can drive this scorer
//! without any change to the subspace search — this module provides exactly
//! that extension, plus the ablation bench that compares it against LOF.

use crate::distance::SubspaceView;
use crate::index::{knn_all_flat, IndexKind, SubspaceIndex};
use crate::knn::Neighborhood;
use crate::scorer::SubspaceScorer;
use hics_data::Dataset;

/// Which statistic of the k nearest neighbour distances to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KnnScoreKind {
    /// Average distance to the k nearest neighbours (robust default).
    #[default]
    Mean,
    /// Distance to the k-th nearest neighbour (the classic DB-outlier /
    /// ORCA pruning statistic).
    Kth,
}

impl KnnScoreKind {
    /// The score of one (batch or query-point) neighbourhood under this
    /// statistic.
    #[inline]
    pub fn score(self, h: &Neighborhood) -> f64 {
        self.score_of(&h.distances, h.k_distance)
    }

    /// [`KnnScoreKind::score`] of a neighbourhood given as its distances
    /// and k-distance.
    #[inline]
    pub(crate) fn score_of(self, distances: &[f64], k_distance: f64) -> f64 {
        match self {
            KnnScoreKind::Mean => distances.iter().sum::<f64>() / distances.len() as f64,
            KnnScoreKind::Kth => k_distance,
        }
    }
}

/// kNN-distance outlier scorer.
#[derive(Debug, Clone, Copy)]
pub struct KnnScorer {
    /// Neighbourhood size.
    pub k: usize,
    /// Which distance statistic to use.
    pub kind: KnnScoreKind,
    /// Maximum worker threads.
    pub max_threads: usize,
    /// Neighbour-search backend for the kNN phase (default brute).
    pub index: IndexKind,
}

impl KnnScorer {
    /// Creates a mean-distance kNN scorer.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "kNN score requires k >= 1");
        Self {
            k,
            kind: KnnScoreKind::Mean,
            max_threads: crate::parallel::available_threads(),
            index: IndexKind::Brute,
        }
    }

    /// Switches to the k-th-distance statistic.
    pub fn kth_distance(mut self) -> Self {
        self.kind = KnnScoreKind::Kth;
        self
    }

    /// Switches the kNN phase to the given neighbour-search backend
    /// (builder style). Scores are bit-identical for every backend.
    pub fn with_index(mut self, index: IndexKind) -> Self {
        self.index = index;
        self
    }

    /// Computes scores restricted to `dims`.
    pub fn scores(&self, data: &Dataset, dims: &[usize]) -> Vec<f64> {
        let view = SubspaceView::new(data, dims);
        let index = SubspaceIndex::build(&view, self.index);
        let hoods = knn_all_flat(&view, index.tree().as_ref(), self.k, self.max_threads);
        hoods.map_by_id(|_, _, distances, k_distance| self.kind.score_of(distances, k_distance))
    }
}

impl SubspaceScorer for KnnScorer {
    fn score_subspace(&self, data: &Dataset, dims: &[usize]) -> Vec<f64> {
        self.scores(data, dims)
    }

    fn name(&self) -> &'static str {
        match self.kind {
            KnnScoreKind::Mean => "kNN-mean",
            KnnScoreKind::Kth => "kNN-kth",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_point_scores_highest() {
        let mut rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64 * 0.01, (i / 5) as f64 * 0.01])
            .collect();
        rows.push(vec![1.0, 1.0]);
        let data = Dataset::from_rows(&rows);
        let scores = KnnScorer::new(3).scores(&data, &[0, 1]);
        let (argmax, _) = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert_eq!(argmax, 20);
    }

    #[test]
    fn kth_statistic_differs_from_mean() {
        let data = Dataset::from_columns(vec![vec![0.0, 0.1, 0.3, 0.9, 2.0]]);
        let mean = KnnScorer::new(2).scores(&data, &[0]);
        let kth = KnnScorer::new(2).kth_distance().scores(&data, &[0]);
        assert_ne!(mean, kth);
        // kth >= mean element-wise (max of the set vs its average).
        for (m, k) in mean.iter().zip(&kth) {
            assert!(k >= m);
        }
    }

    #[test]
    fn duplicates_score_zero() {
        let data = Dataset::from_columns(vec![vec![5.0; 10]]);
        let scores = KnnScorer::new(3).scores(&data, &[0]);
        assert!(scores.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn scorer_name_reflects_kind() {
        assert_eq!(KnnScorer::new(5).name(), "kNN-mean");
        assert_eq!(KnnScorer::new(5).kth_distance().name(), "kNN-kth");
    }

    #[test]
    fn vptree_index_scores_are_bit_identical() {
        let g = hics_data::SyntheticConfig::new(350, 4)
            .with_seed(21)
            .generate();
        for scorer in [KnnScorer::new(6), KnnScorer::new(6).kth_distance()] {
            let brute = scorer.scores(&g.dataset, &[0, 2]);
            let indexed = scorer
                .with_index(IndexKind::VpTree)
                .scores(&g.dataset, &[0, 2]);
            assert_eq!(brute, indexed, "{}", scorer.name());
        }
    }
}
