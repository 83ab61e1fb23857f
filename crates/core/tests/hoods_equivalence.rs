//! The hoods-section contract: with `FitBuilder::precompute(true)` the fit
//! stores every subspace's neighbourhood state (k-distances, LOF
//! densities, the non-finite clamp) inside the artifact as its version-4
//! hoods section.
//!
//! 1. Every fit-to-file path writes the same bytes: the store fit and the
//!    `S = 1` shard equal `fit(..).to_bytes()`, and no sidecar file
//!    appears next to the artifact.
//! 2. Every stored value equals, bit for bit, what an open of the same
//!    model without hoods computes (the all-points kNN pass re-derived
//!    here from the public batch primitives).
//! 3. A version-4 open adopts the section and scores bitwise like a
//!    computed open; version-1/2 artifacts still compute.

use hics_core::{FitBuilder, FitObserver, HicsParams, ShardFitSpec};
use hics_data::model::{HoodsData, NormKind, ScorerKind, ScorerSpec};
use hics_data::{Dataset, HicsModel, SyntheticConfig};
use hics_outlier::knn_score::KnnScoreKind;
use hics_outlier::{
    knn_all_indexed, lof_from_neighborhoods, lrd_from_neighborhoods, Engine, IndexKind,
    SubspaceIndex, SubspaceLayout, VpTree,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn builder(kind: ScorerKind, index: IndexKind) -> FitBuilder {
    let mut p = HicsParams::paper_defaults();
    p.search.m = 20;
    p.search.candidate_cutoff = 40;
    p.search.top_k = 8;
    p.search.seed = 5;
    FitBuilder::new(p)
        .scorer(ScorerSpec { kind, k: 6 })
        .index(index)
        .precompute(true)
}

fn data() -> Dataset {
    SyntheticConfig::new(180, 5)
        .with_seed(41)
        .generate()
        .dataset
}

fn version(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[8..12].try_into().unwrap())
}

/// The hoods an open computes for subspace `s` of `model` (which carries
/// no hoods): the layout gathered from the trained columns, the stored
/// tree or the brute scan, the all-points kNN pass, LOF densities and the
/// largest finite training score as the clamp.
fn computed_hoods(model: &HicsModel, s: usize) -> HoodsData {
    let layout = SubspaceLayout::gather(model.dataset(), &model.subspaces()[s].dims);
    let index = match model.index() {
        Some(idx) => SubspaceIndex::VpTree(VpTree::from_data(idx.trees[s].clone())),
        None => SubspaceIndex::Brute,
    };
    let k = model.scorer().k as usize;
    let hoods = knn_all_indexed(&layout, &index, k, 3);
    let (lrd, scores) = match model.scorer().kind {
        ScorerKind::Lof => (
            lrd_from_neighborhoods(&hoods),
            lof_from_neighborhoods(&hoods),
        ),
        ScorerKind::KnnMean => (
            Vec::new(),
            hoods.iter().map(|h| KnnScoreKind::Mean.score(h)).collect(),
        ),
        ScorerKind::KnnKth => (
            Vec::new(),
            hoods.iter().map(|h| KnnScoreKind::Kth.score(h)).collect(),
        ),
    };
    let finite_max = scores
        .iter()
        .copied()
        .filter(|v: &f64| v.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    HoodsData {
        clamp: if finite_max.is_finite() {
            finite_max
        } else {
            0.0
        },
        k_distance: hoods.iter().map(|h| h.k_distance).collect(),
        lrd,
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// With precompute on, the store fit's file and the `S = 1` shard are the
/// in-memory fit's version-4 bytes, for both backends — and no fit leaves
/// a `.hoods` file behind.
#[test]
fn precomputing_fits_write_the_pipeline_bytes_and_no_sidecar() {
    let dir = temp_dir("hics-hoods-equivalence-bytes");
    let data = data();
    let store_path = dir.join("d.hicsstore");
    hics_store::write_dataset_store(&store_path, &data, 50, NormKind::None).expect("store");
    let store = hics_store::DatasetStore::open_mmap(&store_path).expect("open store");
    for index in [IndexKind::Brute, IndexKind::VpTree] {
        let b = builder(ScorerKind::Lof, index);
        let reference = b.fit(&data).to_bytes();
        assert_eq!(version(&reference), 4, "{index:?}");

        let out = dir.join(format!("store-{index:?}.hics"));
        let summary = b.fit_source_to(&store, &out).expect("store fit");
        assert_eq!(summary.version, 4);
        assert_eq!(
            std::fs::read(&out).unwrap(),
            reference,
            "{index:?} store fit"
        );

        let manifest_path = dir.join(format!("sharded-{index:?}.hics"));
        let spec = ShardFitSpec::default();
        let manifest = b
            .fit_sharded_to(&store, &spec, &manifest_path)
            .expect("sharded fit");
        let shard = &manifest.shard_paths(&manifest_path)[0];
        assert_eq!(
            std::fs::read(shard).unwrap(),
            reference,
            "{index:?} S=1 shard"
        );
    }
    let sidecars: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".hoods"))
        .collect();
    assert!(sidecars.is_empty(), "{sidecars:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every stored k-distance, LRD and clamp is bitwise what an open of the
/// same model without hoods computes, for every scorer and backend.
#[test]
fn stored_hoods_equal_what_an_open_computes_bitwise() {
    let data = data();
    for kind in [ScorerKind::Lof, ScorerKind::KnnMean, ScorerKind::KnnKth] {
        for index in [IndexKind::Brute, IndexKind::VpTree] {
            let model = builder(kind, index).fit(&data);
            let stored = &model.hoods().expect("precompute stores hoods").subspaces;
            assert_eq!(stored.len(), model.subspaces().len());
            let mut bare = model.clone();
            bare.set_hoods(None);
            for (s, h) in stored.iter().enumerate() {
                let want = computed_hoods(&bare, s);
                let what = format!("{kind:?}/{index:?} subspace {s}");
                assert_eq!(h.clamp.to_bits(), want.clamp.to_bits(), "{what} clamp");
                assert_eq!(bits(&h.k_distance), bits(&want.k_distance), "{what}");
                assert_eq!(bits(&h.lrd), bits(&want.lrd), "{what} LRDs");
            }
        }
    }
}

/// A version-4 open adopts the section and scores bit for bit like a
/// computed open of the same model; version-1/2 opens still compute.
#[test]
fn version_4_open_adopts_and_scores_like_a_computed_open() {
    let dir = temp_dir("hics-hoods-equivalence-open");
    let data = data();
    for index in [IndexKind::Brute, IndexKind::VpTree] {
        let model = builder(ScorerKind::Lof, index).fit(&data);
        let mut bare = model.clone();
        bare.set_hoods(None);
        let (with_path, bare_path) = (dir.join("with.hics"), dir.join("bare.hics"));
        model.save(&with_path).unwrap();
        bare.save(&bare_path).unwrap();
        let bare_version = if index == IndexKind::VpTree { 2 } else { 1 };
        assert_eq!(version(&std::fs::read(&bare_path).unwrap()), bare_version);
        let adopted = Engine::open_mmap(&with_path, None, 2).unwrap();
        let computed = Engine::open_mmap(&bare_path, None, 2).unwrap();
        assert!(adopted.index_stats().precomputed, "{index:?}");
        assert!(!computed.index_stats().precomputed, "{index:?}");
        assert_eq!(adopted.index_stats().kind, computed.index_stats().kind);
        for i in (0..data.n()).step_by(7) {
            let row = data.row(i);
            assert_eq!(
                adopted.score(&row),
                computed.score(&row),
                "{index:?} row {i}"
            );
        }
        for q in [vec![0.5; 5], vec![30.0; 5], vec![-4.0, 2.0, 0.0, 9.0, 1.0]] {
            assert_eq!(adopted.score(&q), computed.score(&q), "{index:?} {q:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Records phase names and nanoseconds in completion order, shard phases
/// as `"shard {k} {phase}"`.
#[derive(Default)]
struct Phases(Mutex<Vec<(String, u64)>>);

impl Phases {
    fn names(&self) -> Vec<String> {
        self.0
            .lock()
            .unwrap()
            .iter()
            .map(|(p, _)| p.clone())
            .collect()
    }

    /// Nanoseconds of every finished phase named `name`.
    fn nanos(&self, name: &str) -> u64 {
        let phases = self.0.lock().unwrap();
        phases
            .iter()
            .filter(|(p, _)| p == name)
            .map(|(_, ns)| ns)
            .sum()
    }
}

impl FitObserver for Phases {
    fn phase_finished(&self, phase: &str, nanos: u64) {
        self.0.lock().unwrap().push((phase.to_string(), nanos));
    }

    fn shard_phase(&self, shard: usize, phase: &str, nanos: u64) {
        self.0
            .lock()
            .unwrap()
            .push((format!("shard {shard} {phase}"), nanos));
    }
}

/// The phases a streamed VP-tree fit with hoods reports, in order: the
/// artifact's head is saved after the search, the trees after the index,
/// and the last save carries the hoods writes, so `"save"` repeats.
const STREAMED: [&str; 6] = ["search", "save", "index", "save", "precompute", "save"];

/// The streamed fit reports index, precompute and the save slices as
/// separate phases, in file order, whose sums add up to no more than the
/// fit's wall time — and every shard of a sharded fit reports the same
/// phases, then its one `"fit"`, which covers everything but the
/// precompute, so `fit − search − index` (its save time) is never
/// negative.
#[test]
fn fused_fit_reports_separate_phases() {
    let dir = temp_dir("hics-hoods-equivalence-phases");
    let data = data();
    let store_path = dir.join("d.hicsstore");
    hics_store::write_dataset_store(&store_path, &data, 64, NormKind::None).expect("store");
    let store = hics_store::DatasetStore::open_mmap(&store_path).expect("open store");
    let phases = Arc::new(Phases::default());
    let start = std::time::Instant::now();
    builder(ScorerKind::Lof, IndexKind::VpTree)
        .observe(Arc::clone(&phases) as Arc<dyn FitObserver>)
        .fit_source_to(&store, &dir.join("m.hics"))
        .expect("fit");
    let wall = start.elapsed().as_nanos() as u64;
    assert_eq!(phases.names(), STREAMED);
    let attributed: u64 = ["search", "index", "precompute", "save"]
        .iter()
        .map(|p| phases.nanos(p))
        .sum();
    assert!(
        attributed <= wall,
        "phases {attributed} ns > wall {wall} ns"
    );

    // S = 2, one shard at a time so the two shards' events do not
    // interleave.
    let phases = Arc::new(Phases::default());
    let spec = ShardFitSpec {
        shards: 2,
        parallel: 1,
        ..ShardFitSpec::default()
    };
    builder(ScorerKind::Lof, IndexKind::VpTree)
        .observe(Arc::clone(&phases) as Arc<dyn FitObserver>)
        .fit_sharded_to(&store, &spec, &dir.join("sharded.hics"))
        .expect("sharded fit");
    let shard = |k: usize| {
        STREAMED
            .map(String::from)
            .into_iter()
            .chain([format!("shard {k} fit")])
    };
    assert_eq!(phases.names(), shard(0).chain(shard(1)).collect::<Vec<_>>());
    let shard_fits = phases.nanos("shard 0 fit") + phases.nanos("shard 1 fit");
    let (search, index) = (phases.nanos("search"), phases.nanos("index"));
    assert!(
        shard_fits >= search + index + phases.nanos("save"),
        "shard fits {shard_fits} ns < search {search} + index {index} + save"
    );
    std::fs::remove_dir_all(&dir).ok();
}
