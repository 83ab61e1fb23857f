//! The Apriori-like subspace framework (paper Section IV-B).
//!
//! Level-wise search starting from **all two-dimensional** subspaces (a 1-d
//! contrast is meaningless — "no notion of correlation"):
//!
//! 1. evaluate the contrast of every current candidate (in parallel);
//! 2. sort and keep the top `candidate_cutoff` — the *adaptive threshold*
//!    that replaces Apriori's fixed minimum-support bound;
//! 3. join retained d-dim subspaces sharing a (d−1)-prefix into (d+1)-dim
//!    candidates; repeat until the join yields nothing.
//!
//! Because contrast is **not monotone** (the Fig. 3 XOR counterexample),
//! no subset-based pruning is applied — only the cutoff. A final
//! *redundancy pruning* removes a d-dim subspace `T` whenever a retained
//! (d+1)-dim superset has strictly higher contrast, and the best `top_k`
//! subspaces by contrast are returned.

use crate::contrast::{ContrastEstimator, StatTest};
use crate::progress::{FitObserver, NoopObserver};
use crate::slice::SliceSizing;
use crate::subspace::Subspace;
use hics_data::{ColumnsView, Dataset, RankIndex};
use hics_outlier::parallel::par_map_init;
use std::collections::HashSet;
use std::time::Instant;

/// Parameters of the HiCS subspace search.
#[derive(Debug, Clone, Copy)]
pub struct SearchParams {
    /// Monte-Carlo iterations per contrast estimate (paper default 50).
    pub m: usize,
    /// Target conditional-sample fraction α (paper default 0.1).
    pub alpha: f64,
    /// Slice-sizing convention (paper formula by default).
    pub sizing: SliceSizing,
    /// Statistical deviation test (Welch = `HiCS_WT` by default).
    pub test: StatTest,
    /// Maximum candidates retained per level (paper experiment value 400).
    pub candidate_cutoff: usize,
    /// Number of subspaces returned for outlier ranking (paper: 100).
    pub top_k: usize,
    /// Optional hard cap on subspace dimensionality.
    pub max_dim: Option<usize>,
    /// Base RNG seed; each subspace derives an independent stream.
    pub seed: u64,
    /// Maximum worker threads for contrast evaluation (defaults to the
    /// machine's available parallelism).
    pub max_threads: usize,
}

impl Default for SearchParams {
    fn default() -> Self {
        Self {
            m: 50,
            alpha: 0.1,
            sizing: SliceSizing::PaperRoot,
            test: StatTest::WelchT,
            candidate_cutoff: 400,
            top_k: 100,
            max_dim: None,
            seed: 0,
            max_threads: hics_outlier::parallel::available_threads(),
        }
    }
}

/// A subspace with its estimated contrast.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredSubspace {
    /// The subspace.
    pub subspace: Subspace,
    /// Monte-Carlo contrast estimate in `[0, 1]`.
    pub contrast: f64,
}

/// Diagnostic summary of one completed search.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Final ranked output (what `run` returns).
    pub result: Vec<ScoredSubspace>,
    /// Every subspace evaluated, per dimensionality level (2, 3, …).
    pub evaluated_per_level: Vec<Vec<ScoredSubspace>>,
    /// Number of candidates removed by the redundancy pruning.
    pub pruned_redundant: usize,
}

/// The HiCS subspace search.
#[derive(Debug, Clone, Default)]
pub struct SubspaceSearch {
    params: SearchParams,
}

impl SubspaceSearch {
    /// Creates a search with the given parameters.
    ///
    /// # Panics
    /// Panics if `candidate_cutoff` or `top_k` is zero.
    pub fn new(params: SearchParams) -> Self {
        assert!(
            params.candidate_cutoff >= 1,
            "candidate cutoff must be >= 1"
        );
        assert!(params.top_k >= 1, "top_k must be >= 1");
        Self { params }
    }

    /// The search parameters.
    pub fn params(&self) -> &SearchParams {
        &self.params
    }

    /// Runs the full search and returns the top-k subspaces by contrast.
    ///
    /// # Panics
    /// Panics if the dataset has fewer than 2 attributes.
    pub fn run(&self, data: &Dataset) -> Vec<ScoredSubspace> {
        self.run_view_observed(&ColumnsView::from_dataset(data), &NoopObserver)
            .0
            .result
    }

    /// The search over a column view — an owned dataset's columns or an
    /// mmap-backed store's, read zero-copy — with a progress observer:
    /// `obs` sees every contrast evaluation (from worker threads) and every
    /// completed level. Results are identical to the unobserved run. Also
    /// yields the rank index the search built over the view; the fit
    /// reuses it as the artifact's order-permutation section instead of
    /// argsorting every column again.
    pub fn run_view_observed(
        &self,
        view: &ColumnsView<'_>,
        obs: &dyn FitObserver,
    ) -> (SearchReport, RankIndex) {
        assert!(view.d() >= 2, "subspace search needs at least 2 attributes");
        let p = &self.params;
        let estimator = ContrastEstimator::from_view(
            view.clone(),
            p.m,
            p.alpha,
            p.sizing,
            p.test.as_deviation(),
            p.max_threads,
        );

        // Level 2: all attribute pairs.
        let mut candidates: Vec<Subspace> = (0..view.d())
            .flat_map(|a| ((a + 1)..view.d()).map(move |b| Subspace::pair(a, b)))
            .collect();
        let mut seen: HashSet<Subspace> = candidates.iter().cloned().collect();

        let mut evaluated_per_level: Vec<Vec<ScoredSubspace>> = Vec::new();
        let mut level = 2usize;
        loop {
            let level_start = Instant::now();
            // Evaluate contrast of the whole level in parallel. Every worker
            // allocates one slice sampler and retargets it per subspace, so
            // the per-level mask allocations drop from O(candidates) to
            // O(threads) (bit-identical results either way).
            let contrasts = par_map_init(
                candidates.len(),
                p.max_threads,
                || estimator.sampler(&candidates[0]),
                |sampler, i| {
                    let c = estimator.contrast_with_sampler(sampler, &candidates[i], p.seed);
                    obs.contrast_evaluated(p.m as u64);
                    c
                },
            );
            let mut scored: Vec<ScoredSubspace> = candidates
                .drain(..)
                .zip(contrasts)
                .map(|(subspace, contrast)| ScoredSubspace { subspace, contrast })
                .collect();
            sort_by_contrast(&mut scored);

            // Adaptive threshold: retain the strongest `candidate_cutoff`.
            let retained = &scored[..scored.len().min(p.candidate_cutoff)];
            obs.level_done(
                level,
                scored.len(),
                retained.len(),
                level_start.elapsed().as_nanos() as u64,
            );

            // Apriori join over the retained set.
            if p.max_dim.is_none_or(|cap| level < cap) {
                candidates = join_level(retained, &mut seen);
            }
            evaluated_per_level.push(scored);
            level += 1;
            if candidates.is_empty() {
                break;
            }
        }

        // Pool the retained subspaces of every level for the final ranking.
        let mut pool: Vec<ScoredSubspace> = evaluated_per_level
            .iter()
            .flat_map(|lvl| lvl.iter().take(p.candidate_cutoff).cloned())
            .collect();

        // Redundancy pruning: drop T if a (|T|+1)-dim superset scores higher.
        let before = pool.len();
        pool = prune_redundant(pool);
        let pruned_redundant = before - pool.len();

        sort_by_contrast(&mut pool);
        pool.truncate(p.top_k);
        (
            SearchReport {
                result: pool,
                evaluated_per_level,
                pruned_redundant,
            },
            estimator.into_indices(),
        )
    }
}

/// Sorts by contrast descending; ties broken lexicographically by subspace
/// for full determinism.
fn sort_by_contrast(v: &mut [ScoredSubspace]) {
    v.sort_unstable_by(|a, b| {
        b.contrast
            .total_cmp(&a.contrast)
            .then_with(|| a.subspace.cmp(&b.subspace))
    });
}

/// Generates the (d+1)-dimensional candidate set from the retained d-dim
/// subspaces via the sorted prefix join, skipping anything already seen.
fn join_level(retained: &[ScoredSubspace], seen: &mut HashSet<Subspace>) -> Vec<Subspace> {
    let mut sorted: Vec<&Subspace> = retained.iter().map(|s| &s.subspace).collect();
    sorted.sort();
    let mut out = Vec::new();
    for i in 0..sorted.len() {
        for j in (i + 1)..sorted.len() {
            match sorted[i].apriori_join(sorted[j]) {
                Some(cand) => {
                    if seen.insert(cand.clone()) {
                        out.push(cand);
                    }
                }
                // Sorted order groups shared prefixes together; the first
                // mismatch ends the group.
                None => break,
            }
        }
    }
    out
}

/// Removes every subspace that has a strictly higher-contrast superset with
/// exactly one more dimension (paper Section IV-B, following [22]).
fn prune_redundant(pool: Vec<ScoredSubspace>) -> Vec<ScoredSubspace> {
    let max_dim = pool.iter().map(|s| s.subspace.len()).max().unwrap_or(0);
    // Bucket by dimensionality for superset lookups.
    let mut by_dim: Vec<Vec<&ScoredSubspace>> = vec![Vec::new(); max_dim + 2];
    for s in &pool {
        by_dim[s.subspace.len()].push(s);
    }
    let keep: Vec<bool> = pool
        .iter()
        .map(|t| {
            let d = t.subspace.len();
            !by_dim[d + 1]
                .iter()
                .any(|s| s.contrast > t.contrast && s.subspace.is_superset_of(&t.subspace))
        })
        .collect();
    pool.into_iter()
        .zip(keep)
        .filter_map(|(s, k)| k.then_some(s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_data::SyntheticConfig;

    fn quick_params() -> SearchParams {
        SearchParams {
            m: 25,
            candidate_cutoff: 60,
            top_k: 20,
            ..SearchParams::default()
        }
    }

    #[test]
    fn finds_planted_blocks_as_top_subspaces() {
        let g = SyntheticConfig::new(600, 10).with_seed(5).generate();
        let result = SubspaceSearch::new(quick_params()).run(&g.dataset);
        assert!(!result.is_empty());
        // The single best subspace must be a subset of one planted block
        // (within-block attribute pairs/triples carry the correlation).
        let best = &result[0].subspace;
        let inside_some_block = g
            .planted_subspaces
            .iter()
            .any(|block| best.dims().all(|d| block.contains(&d)));
        assert!(
            inside_some_block,
            "best subspace {best} is not inside any planted block {:?}",
            g.planted_subspaces
        );
    }

    #[test]
    fn top_subspaces_mostly_within_blocks() {
        let g = SyntheticConfig::new(600, 12).with_seed(8).generate();
        let result = SubspaceSearch::new(quick_params()).run(&g.dataset);
        let top10 = &result[..result.len().min(10)];
        let within = top10
            .iter()
            .filter(|s| {
                g.planted_subspaces
                    .iter()
                    .any(|b| s.subspace.dims().all(|d| b.contains(&d)))
            })
            .count();
        assert!(
            within >= 7,
            "only {within}/10 top subspaces are within blocks"
        );
    }

    #[test]
    fn results_sorted_by_contrast() {
        let g = SyntheticConfig::new(300, 8).with_seed(2).generate();
        let result = SubspaceSearch::new(quick_params()).run(&g.dataset);
        for w in result.windows(2) {
            assert!(w[0].contrast >= w[1].contrast);
        }
    }

    #[test]
    fn deterministic_across_runs_and_threads() {
        let g = SyntheticConfig::new(300, 8).with_seed(3).generate();
        let mut p = quick_params();
        p.max_threads = 1;
        let a = SubspaceSearch::new(p).run(&g.dataset);
        p.max_threads = 8;
        let b = SubspaceSearch::new(p).run(&g.dataset);
        assert_eq!(a, b);
    }

    #[test]
    fn cutoff_limits_level_width() {
        let g = SyntheticConfig::new(200, 12).with_seed(4).generate();
        let mut p = quick_params();
        p.candidate_cutoff = 10;
        let (report, _) = SubspaceSearch::new(p)
            .run_view_observed(&ColumnsView::from_dataset(&g.dataset), &NoopObserver);
        // Level 2 evaluates all 66 pairs, but level 3 candidates can only
        // come from 10 retained parents → at most C(10,2) = 45 joins.
        assert_eq!(report.evaluated_per_level[0].len(), 66);
        if report.evaluated_per_level.len() > 1 {
            assert!(report.evaluated_per_level[1].len() <= 45);
        }
    }

    #[test]
    fn max_dim_caps_levels() {
        let g = SyntheticConfig::new(200, 10).with_seed(6).generate();
        let mut p = quick_params();
        p.max_dim = Some(2);
        let (report, _) = SubspaceSearch::new(p)
            .run_view_observed(&ColumnsView::from_dataset(&g.dataset), &NoopObserver);
        assert_eq!(report.evaluated_per_level.len(), 1);
        assert!(report.result.iter().all(|s| s.subspace.len() == 2));
    }

    #[test]
    fn top_k_truncates_output() {
        let g = SyntheticConfig::new(200, 10).with_seed(7).generate();
        let mut p = quick_params();
        p.top_k = 5;
        let result = SubspaceSearch::new(p).run(&g.dataset);
        assert_eq!(result.len(), 5);
    }

    #[test]
    fn join_level_respects_prefix_grouping() {
        let retained: Vec<ScoredSubspace> = [
            Subspace::new([0, 1]),
            Subspace::new([0, 2]),
            Subspace::new([1, 2]),
        ]
        .into_iter()
        .map(|s| ScoredSubspace {
            subspace: s,
            contrast: 0.5,
        })
        .collect();
        let mut seen = HashSet::new();
        let cands = join_level(&retained, &mut seen);
        // {0,1}⋈{0,2} → {0,1,2}; {1,2} has no partner.
        assert_eq!(cands, vec![Subspace::new([0, 1, 2])]);
    }

    #[test]
    fn prune_removes_dominated_subset() {
        let pool = vec![
            ScoredSubspace {
                subspace: Subspace::new([0, 1]),
                contrast: 0.4,
            },
            ScoredSubspace {
                subspace: Subspace::new([0, 1, 2]),
                contrast: 0.6,
            },
            ScoredSubspace {
                subspace: Subspace::new([3, 4]),
                contrast: 0.5,
            },
        ];
        let pruned = prune_redundant(pool);
        assert_eq!(pruned.len(), 2);
        assert!(pruned.iter().all(|s| s.subspace != Subspace::new([0, 1])));
    }

    #[test]
    fn prune_keeps_subset_with_higher_contrast() {
        let pool = vec![
            ScoredSubspace {
                subspace: Subspace::new([0, 1]),
                contrast: 0.9,
            },
            ScoredSubspace {
                subspace: Subspace::new([0, 1, 2]),
                contrast: 0.6,
            },
        ];
        assert_eq!(prune_redundant(pool).len(), 2);
    }

    #[test]
    #[should_panic]
    fn rejects_univariate_dataset() {
        let d = Dataset::from_columns(vec![vec![1.0, 2.0, 3.0]]);
        SubspaceSearch::new(quick_params()).run(&d);
    }
}
