//! Criterion ablations over the runtime-relevant design choices: the
//! slice-sizing convention, the slice sampler itself, and the scorer used
//! in the decoupled ranking stage. Quality-side ablations live in the
//! `ablation_quality` experiment binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hics_core::{SliceSampler, SliceSizing, Subspace};
use hics_data::SyntheticConfig;
use hics_outlier::knn_score::KnnScorer;
use hics_outlier::lof::{Lof, LofParams};
use hics_outlier::scorer::SubspaceScorer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_slice_sizing(c: &mut Criterion) {
    let g = SyntheticConfig::new(1000, 10).with_seed(1).generate();
    let idx = g.dataset.rank_index();
    let sub = Subspace::new([0, 1, 2, 3]);
    let mut group = c.benchmark_group("slice_draw_by_sizing");
    for sizing in [SliceSizing::PaperRoot, SliceSizing::ExactAlpha] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{sizing:?}")),
            &sizing,
            |b, &sizing| {
                b.iter(|| {
                    let mut sampler = SliceSampler::new(&g.dataset, &idx, &sub, 0.1, sizing);
                    let mut rng = StdRng::seed_from_u64(9);
                    for _ in 0..50 {
                        black_box(sampler.draw(&mut rng).len());
                    }
                });
            },
        );
    }
    group.finish();
}

fn bench_scorer_cost(c: &mut Criterion) {
    let g = SyntheticConfig::new(800, 8).with_seed(2).generate();
    let dims = [0usize, 1, 2];
    let mut group = c.benchmark_group("scorer_per_subspace");
    group.sample_size(10);
    let lof = Lof::new(LofParams {
        k: 10,
        max_threads: 1,
        ..LofParams::default()
    });
    group.bench_function("LOF", |b| {
        b.iter(|| black_box(lof.score_subspace(&g.dataset, &dims)));
    });
    let knn = KnnScorer {
        max_threads: 1,
        ..KnnScorer::new(10)
    };
    group.bench_function("kNN-mean", |b| {
        b.iter(|| black_box(knn.score_subspace(&g.dataset, &dims)));
    });
    let knn_kth = KnnScorer {
        max_threads: 1,
        ..KnnScorer::new(10).kth_distance()
    };
    group.bench_function("kNN-kth", |b| {
        b.iter(|| black_box(knn_kth.score_subspace(&g.dataset, &dims)));
    });
    group.finish();
}

fn bench_parallel_speedup(c: &mut Criterion) {
    let g = SyntheticConfig::new(1500, 8).with_seed(3).generate();
    let dims = [0usize, 1, 2];
    let mut group = c.benchmark_group("lof_threads");
    group.sample_size(10);
    for threads in [1usize, 4, 16] {
        let lof = Lof::new(LofParams {
            k: 10,
            max_threads: threads,
            ..LofParams::default()
        });
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| black_box(lof.scores(&g.dataset, &dims)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_slice_sizing,
    bench_scorer_cost,
    bench_parallel_speedup
);
criterion_main!(benches);
