//! The staged artifact writer against the gather-everything encoder.
//!
//! A fit streams its artifact as each piece is computed: the head after
//! the search, the trees after the index phase, each subspace's hoods as
//! soon as they exist. These tests build the same model the other way —
//! the search result, every tree and every subspace's hoods gathered into
//! one `HicsModel` from the public primitives — and demand that every fit
//! path writes exactly its `to_bytes()`, for every scorer, both indexes,
//! with and without hoods, at 1, 2 and 3 threads, and per shard of a
//! 2-shard fit. A fit that fails or panics halfway leaves neither the
//! target nor a temp file.

use hics_core::{FitBuilder, FitObserver, HicsParams, ShardFitSpec, SubspaceSearch};
use hics_data::mmap::write_atomic_with;
use hics_data::model::{
    apply_normalization, AggregationKind, ModelHead, ModelHoods, ModelIndex, ModelSubspace,
    ModelWriter, NormKind, ScorerKind, ScorerSpec,
};
use hics_data::{ColumnsView, Dataset, HicsError, HicsModel, PartitionKind, SyntheticConfig};
use hics_outlier::{subspace_hoods, IndexKind, SubspaceIndex, SubspaceView, VpTree};
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn params(threads: usize) -> HicsParams {
    let mut p = HicsParams::paper_defaults();
    p.search.m = 20;
    p.search.candidate_cutoff = 30;
    p.search.top_k = 6;
    p.search.seed = 9;
    p.search.max_threads = threads;
    p
}

fn builder(scorer: ScorerSpec, index: IndexKind, precompute: bool, threads: usize) -> FitBuilder {
    FitBuilder::new(params(threads))
        .scorer(scorer)
        .index(index)
        .precompute(precompute)
}

fn data() -> Dataset {
    SyntheticConfig::new(240, 5)
        .with_seed(17)
        .generate()
        .dataset
}

/// The artifact gathered in memory: search, then every tree and every
/// subspace's hoods, one thread, packed into one model.
fn gathered(data: &Dataset, scorer: ScorerSpec, index: IndexKind, precompute: bool) -> Vec<u8> {
    let searched = SubspaceSearch::new(params(1).search).run(data);
    let subspaces: Vec<ModelSubspace> = searched
        .iter()
        .map(|s| ModelSubspace {
            dims: s.subspace.to_vec(),
            contrast: s.contrast,
        })
        .collect();
    let (trained, norm) = apply_normalization(data, NormKind::None);
    let indexes: Vec<SubspaceIndex> = subspaces
        .iter()
        .map(|s| SubspaceIndex::build(&SubspaceView::new(&trained, &s.dims), index))
        .collect();
    let hoods = precompute.then(|| ModelHoods {
        subspaces: subspaces
            .iter()
            .zip(&indexes)
            .map(|(s, i)| subspace_hoods(&SubspaceView::new(&trained, &s.dims), i, scorer, 1))
            .collect(),
    });
    let trees = (index == IndexKind::VpTree).then(|| ModelIndex {
        trees: indexes
            .into_iter()
            .map(|i| match i {
                SubspaceIndex::VpTree(tree) => tree.into_data(),
                SubspaceIndex::Brute => unreachable!("VP-tree index"),
            })
            .collect(),
    });
    let mut model = HicsModel::new(
        trained,
        NormKind::None,
        norm,
        subspaces,
        scorer,
        AggregationKind::Average,
    );
    model.set_index(trees);
    model.set_hoods(hoods);
    model.to_bytes()
}

const SCORERS: [ScorerSpec; 3] = [
    ScorerSpec {
        kind: ScorerKind::Lof,
        k: 7,
    },
    ScorerSpec {
        kind: ScorerKind::KnnMean,
        k: 5,
    },
    ScorerSpec {
        kind: ScorerKind::KnnKth,
        k: 4,
    },
];

fn store(dir: &Path, name: &str, data: &Dataset) -> hics_store::DatasetStore {
    let path = dir.join(name);
    hics_store::write_dataset_store(&path, data, 64, NormKind::None).expect("store");
    hics_store::DatasetStore::open_mmap(&path).expect("open store")
}

#[test]
fn streamed_fits_equal_the_gathered_model_bytes() {
    let dir = temp_dir("hics-staged-writer-equivalence");
    let data = data();
    let source = store(&dir, "d.hicsstore", &data);
    for scorer in SCORERS {
        for index in [IndexKind::Brute, IndexKind::VpTree] {
            for precompute in [false, true] {
                let expected = gathered(&data, scorer, index, precompute);
                let tag = format!("{:?}/{index:?}/precompute {precompute}", scorer.kind);
                for threads in [1, 2, 3] {
                    let fit = builder(scorer, index, precompute, threads);
                    let out = dir.join("m.hics");
                    fit.fit_source_to(&source, &out).expect("fit");
                    let written = std::fs::read(&out).unwrap();
                    assert!(written == expected, "{tag}, {threads} threads: file");
                    assert!(
                        fit.fit(&data).to_bytes() == expected,
                        "{tag}, {threads} threads: in memory"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_shard_of_a_streamed_fit_equals_its_gathered_model() {
    let dir = temp_dir("hics-staged-writer-shards");
    let data = data();
    let source = store(&dir, "d.hicsstore", &data);
    let spec = ShardFitSpec {
        shards: 2,
        partition: PartitionKind::Contiguous,
        ..ShardFitSpec::default()
    };
    let rows = spec.partition.assign(data.n() as u64, spec.shards);
    for scorer in SCORERS {
        let fit = builder(scorer, IndexKind::VpTree, true, 2);
        let manifest = fit
            .fit_sharded_to(&source, &spec, &dir.join("sharded.hics"))
            .expect("sharded fit");
        for (k, path) in manifest
            .shard_paths(&dir.join("sharded.hics"))
            .iter()
            .enumerate()
        {
            let cols = (0..data.d())
                .map(|j| rows[k].iter().map(|&i| data.col(j)[i as usize]).collect())
                .collect();
            let shard = Dataset::from_columns_named(cols, data.names().to_vec());
            let expected = gathered(&shard, scorer, IndexKind::VpTree, true);
            assert!(
                std::fs::read(path).unwrap() == expected,
                "{:?} shard {k}",
                scorer.kind
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Panics when the named phase starts.
struct PanicAt(&'static str);

impl FitObserver for PanicAt {
    fn phase_started(&self, phase: &str) {
        if phase == self.0 {
            panic!("simulated failure at the start of {phase}");
        }
    }
}

fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn a_fit_that_stops_halfway_leaves_no_file() {
    let dir = temp_dir("hics-staged-writer-halfway");
    let source = store(&dir, "d.hicsstore", &data());
    let out = dir.join("m.hics");
    // A panic after the head and the trees are written: the worker-panic
    // case, unwinding out of the write.
    for phase in ["index", "precompute"] {
        let fit = builder(SCORERS[0], IndexKind::VpTree, true, 2).observe(Arc::new(PanicAt(phase)));
        let fitting = std::panic::AssertUnwindSafe(|| fit.fit_source_to(&source, &out));
        let panicked = std::panic::catch_unwind(fitting);
        assert!(panicked.is_err(), "{phase}");
        assert_eq!(files_in(&dir), ["d.hicsstore"], "panic at {phase}");
    }
    // An error halfway: the head is out, then a tree of another shape
    // than the announced one fails its stage.
    let model = HicsModel::from_bytes(&gathered(&data(), SCORERS[0], IndexKind::VpTree, false))
        .expect("gathered model");
    let view = ColumnsView::from_dataset(model.dataset());
    let shapes = vec![VpTree::shape(model.n()); model.subspaces().len()];
    let head = ModelHead {
        view: &view,
        norm_kind: model.norm_kind(),
        norm: model.norm_params(),
        subspaces: model.subspaces(),
        scorer: model.scorer(),
        aggregation: model.aggregation(),
        order: model.rank_index(),
        trees: Some(&shapes),
        hoods: false,
    };
    let trees = &model.index().expect("trees").trees;
    let mut odd = trees[1].clone();
    odd.nodes.push(odd.nodes[0]);
    let result = write_atomic_with(&out, |file, tmp| {
        let mut w = ModelWriter::begin(BufWriter::new(file), tmp, &head)?;
        w.put_tree(&trees[0].view())?;
        w.put_tree(&odd.view())
    });
    assert!(
        matches!(result, Err(HicsError::InvalidInput(_))),
        "{result:?}"
    );
    assert_eq!(files_in(&dir), ["d.hicsstore"]);
    std::fs::remove_dir_all(&dir).ok();
}
