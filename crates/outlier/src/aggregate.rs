//! The one score fold: how per-subspace scores combine into one ranking
//! (Definition 1 of the paper), and how per-shard scores combine into one
//! ensemble score.
//!
//! The paper evaluates `average` and `maximum` and settles on the average:
//! *"In practice maximum is very sensitive to fluctuations of the
//! outlierness and will lead to poor results especially if the number of
//! detected subspaces is large. […] This also ensures that the outlierness
//! is cumulative."* A sharded fit is served the same way, as a subspace
//! outlier ensemble (He et al., "A Unified Subspace Outlier Ensemble
//! Framework"): every shard scores the query against its own reference
//! rows and the ensemble score is the mean or max of the per-shard scores.
//!
//! [`Fold`] is the single implementation of both folds. The batch path
//! ([`aggregate_scores`]), the query path ([`crate::QueryEngine::score`]),
//! the in-process shard ensemble ([`crate::ShardedEngine`]) and the
//! `hics route` scatter-gather tier all push through it, and
//! [`score_clamp`] is the one non-finite clamp. So a served score is
//! bit-for-bit the batch score, and a routed score the in-process one.
//!
//! Bit-for-bit matters, so the accumulation order is pinned: subspaces in
//! model order, then shards in shard order. `Average` sums first and
//! divides once at the end (not a running mean), because floating-point
//! addition is not associative. `Max` folds with [`f64::max`]. A
//! non-finite subspace score (LOF can return `∞` on duplicate-degenerate
//! slices) is clamped to its subspace's [`score_clamp`] *before* it is
//! pushed, never after, so per-shard scores are already NaN-free and the
//! shard fold never manufactures or launders a NaN on its own.

/// How to combine scores: the model's aggregation enum, which the batch
/// path, the artifact and (through `From<ShardAggregation>`) the shard
/// ensemble share.
pub use hics_data::model::AggregationKind as Aggregation;

/// Incremental mean|max fold: one [`push`](Fold::push) per component
/// **in the pinned order** (subspaces in model order, shards in shard
/// order), then [`finish`](Fold::finish).
#[derive(Debug, Clone, Copy)]
pub struct Fold {
    aggregation: Aggregation,
    acc: f64,
    count: usize,
}

impl Fold {
    /// An empty fold: `0.0` for `Average`, `-inf` for `Max`.
    pub fn new(aggregation: Aggregation) -> Self {
        let acc = match aggregation {
            Aggregation::Average => 0.0,
            Aggregation::Max => f64::NEG_INFINITY,
        };
        Fold {
            aggregation,
            acc,
            count: 0,
        }
    }

    /// Accumulates the next component's score (the order is the caller's
    /// responsibility; it is the bit-for-bit contract).
    pub fn push(&mut self, score: f64) {
        match self.aggregation {
            Aggregation::Average => self.acc += score,
            Aggregation::Max => self.acc = self.acc.max(score),
        }
        self.count += 1;
    }

    /// The folded score. `Average` divides the sum by the number of
    /// pushed scores; an empty `Average` fold is `NaN` and an empty `Max`
    /// fold is `-inf`, so callers that can end up with zero components (a
    /// degraded router with no surviving shards) must reject that case
    /// before finishing.
    pub fn finish(self) -> f64 {
        match self.aggregation {
            Aggregation::Average => self.acc / self.count as f64,
            Aggregation::Max => self.acc,
        }
    }
}

/// The non-finite clamp of one subspace's scores: the largest finite
/// score, or `0.0` if none is finite.
pub fn score_clamp(scores: &[f64]) -> f64 {
    let finite_max = scores
        .iter()
        .copied()
        .filter(|s| s.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    if finite_max.is_finite() {
        finite_max
    } else {
        0.0
    }
}

/// Aggregates `per_subspace[s][i]` (score of object `i` in subspace `s`)
/// into one score per object, subspace by subspace through one [`Fold`]
/// per object.
///
/// Non-finite per-subspace scores are replaced by that subspace's
/// [`score_clamp`] before aggregation, so a single degenerate subspace
/// cannot blot out the ranking.
///
/// # Panics
/// Panics if `per_subspace` is empty or the inner vectors have unequal
/// lengths.
pub fn aggregate_scores(per_subspace: &[Vec<f64>], how: Aggregation) -> Vec<f64> {
    assert!(
        !per_subspace.is_empty(),
        "need at least one subspace score vector"
    );
    let n = per_subspace[0].len();
    assert!(
        per_subspace.iter().all(|s| s.len() == n),
        "all score vectors must have the same length"
    );
    let mut folds = vec![Fold::new(how); n];
    for scores in per_subspace {
        let clamp = score_clamp(scores);
        for (fold, &s) in folds.iter_mut().zip(scores) {
            fold.push(if s.is_finite() { s } else { clamp });
        }
    }
    folds.into_iter().map(Fold::finish).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_data::manifest::ShardAggregation;

    /// Folds `scores` in order.
    fn fold(aggregation: Aggregation, scores: &[f64]) -> f64 {
        let mut acc = Fold::new(aggregation);
        for &s in scores {
            acc.push(s);
        }
        acc.finish()
    }

    #[test]
    fn average_of_two_subspaces() {
        let s = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(aggregate_scores(&s, Aggregation::Average), vec![2.0, 3.0]);
    }

    #[test]
    fn max_of_two_subspaces() {
        let s = vec![vec![1.0, 5.0], vec![3.0, 4.0]];
        assert_eq!(aggregate_scores(&s, Aggregation::Max), vec![3.0, 5.0]);
    }

    #[test]
    fn single_subspace_is_identity_for_both() {
        let s = vec![vec![0.5, 0.7, 0.1]];
        assert_eq!(aggregate_scores(&s, Aggregation::Average), s[0]);
        assert_eq!(aggregate_scores(&s, Aggregation::Max), s[0]);
    }

    #[test]
    fn average_is_cumulative_across_subspaces() {
        // An object outlying in two subspaces outranks one outlying in one.
        let s = vec![vec![10.0, 10.0, 1.0], vec![10.0, 1.0, 1.0]];
        let agg = aggregate_scores(&s, Aggregation::Average);
        assert!(agg[0] > agg[1]);
        assert!(agg[1] > agg[2]);
    }

    #[test]
    fn infinities_are_clamped_to_subspace_max() {
        let s = vec![vec![f64::INFINITY, 2.0, 1.0]];
        let agg = aggregate_scores(&s, Aggregation::Average);
        assert_eq!(agg, vec![2.0, 2.0, 1.0]);
    }

    #[test]
    fn all_infinite_subspace_clamps_to_zero() {
        let s = vec![vec![f64::INFINITY, f64::INFINITY]];
        let agg = aggregate_scores(&s, Aggregation::Average);
        assert_eq!(agg, vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_input() {
        aggregate_scores(&[], Aggregation::Average);
    }

    #[test]
    #[should_panic]
    fn rejects_ragged_input() {
        aggregate_scores(&[vec![1.0], vec![1.0, 2.0]], Aggregation::Max);
    }

    #[test]
    fn mean_is_sum_in_order_then_one_divide() {
        // A sequence chosen so that a running mean ((((a+b)/2)+c)/2 …)
        // and sum-then-divide disagree; the pinned order is the latter.
        let scores = [0.1, 0.2, 0.3, 1e16, -1e16];
        let want = (0.1 + 0.2 + 0.3 + 1e16 + -1e16) / 5.0;
        assert_eq!(fold(Aggregation::Average, &scores), want);
    }

    #[test]
    fn max_matches_neg_infinity_fold() {
        let scores = [1.5, -2.0, 7.25, 3.0];
        let want = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(fold(Aggregation::Max, &scores), want);
        assert_eq!(fold(Aggregation::Max, &scores), 7.25);
    }

    #[test]
    fn shard_codes_fold_like_their_model_twins() {
        let scores = [0.30000000000000004, 1.1, 2.2, 3.3000000000000003];
        for (shard, model) in [
            (ShardAggregation::Mean, Aggregation::Average),
            (ShardAggregation::Max, Aggregation::Max),
        ] {
            let mut acc = Fold::new(shard.into());
            for &s in &scores {
                acc.push(s);
            }
            assert_eq!(
                acc.finish().to_bits(),
                fold(model, &scores).to_bits(),
                "{shard:?}"
            );
        }
    }

    #[test]
    fn single_score_is_identity() {
        for aggregation in [Aggregation::Average, Aggregation::Max] {
            assert_eq!(fold(aggregation, &[0.7251]), 0.7251);
        }
    }

    #[test]
    fn empty_fold_finishes_nan_or_neg_infinity() {
        assert!(Fold::new(Aggregation::Average).finish().is_nan());
        assert_eq!(Fold::new(Aggregation::Max).finish(), f64::NEG_INFINITY);
    }

    #[test]
    fn max_survives_infinities_without_nan() {
        // Clamped LOF scores can be large but finite; even if a future
        // scorer emitted +inf the max fold stays well-defined.
        let scores = [1.0, f64::INFINITY, 2.0];
        assert_eq!(fold(Aggregation::Max, &scores), f64::INFINITY);
    }

    #[test]
    fn clamp_is_the_largest_finite_score_or_zero() {
        assert_eq!(score_clamp(&[1.0, f64::INFINITY, 3.0, f64::NAN]), 3.0);
        assert_eq!(score_clamp(&[f64::INFINITY, f64::NAN]), 0.0);
        assert_eq!(score_clamp(&[]), 0.0);
    }
}
