//! What a mapped model costs in resident memory, read from the process's
//! own `/proc/self/smaps` entry for the artifact file (Linux only). The
//! open validates the file window by window and releases what it has
//! checked, so it leaves next to nothing resident; a query faults in only
//! the pages it reads; and the bytes stay whole, so reading all of them
//! makes the whole file resident.

#![cfg(target_os = "linux")]

use hics_data::envelope::WINDOW;
use hics_data::model::{
    apply_normalization, AggregationKind, HicsModel, ModelHoods, ModelIndex, ModelSubspace,
    NormKind, ScorerKind, ScorerSpec,
};
use hics_data::{Dataset, ModelArtifact};
use hics_outlier::{subspace_hoods, IndexKind, QueryEngine, SubspaceIndex, SubspaceLayout};
use std::path::Path;
use std::sync::Arc;

/// A version-4 model of 4000 objects and 100 attributes (about 4.9 MB,
/// mostly columns and order permutations) with one two-dimensional
/// subspace, its VP-tree and its hoods.
fn wide_model() -> HicsModel {
    let (n, d) = (4000, 100);
    let cols = (0..d)
        .map(|j| {
            (0..n)
                .map(|i| ((i * 7919 + j * 104_729) % 1009) as f64)
                .collect()
        })
        .collect();
    let (data, norm) = apply_normalization(&Dataset::from_columns(cols), NormKind::MinMax);
    let scorer = ScorerSpec {
        kind: ScorerKind::Lof,
        k: 5,
    };
    let sub = ModelSubspace {
        dims: vec![0, 1],
        contrast: 0.5,
    };
    let mut model = HicsModel::new(
        data,
        NormKind::MinMax,
        norm,
        vec![sub],
        scorer,
        AggregationKind::Average,
    );
    let layout = SubspaceLayout::gather(model.dataset(), &[0, 1]);
    let index = SubspaceIndex::build(&layout, IndexKind::VpTree);
    let hoods = subspace_hoods(&layout, &index, scorer, 1);
    let SubspaceIndex::VpTree(tree) = index else {
        unreachable!("a VP-tree was asked for")
    };
    model.set_index(Some(ModelIndex {
        trees: vec![tree.into_data()],
    }));
    model.set_hoods(Some(ModelHoods {
        subspaces: vec![hoods],
    }));
    model
}

/// The resident bytes of this process's mappings of `path`.
fn resident(path: &Path) -> usize {
    let name = path.to_str().expect("UTF-8 temp path");
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("procfs");
    let mut inside = false;
    let mut kib = 0;
    for line in smaps.lines() {
        let first = line.split_ascii_whitespace().next().unwrap_or("");
        if first.contains('-') && first.chars().all(|c| c == '-' || c.is_ascii_hexdigit()) {
            inside = line.ends_with(name);
        } else if let Some(rss) = line.strip_prefix("Rss:").filter(|_| inside) {
            let value = rss.trim().trim_end_matches("kB").trim();
            kib += value.parse::<usize>().expect("Rss in kB");
        }
    }
    kib * 1024
}

#[test]
fn an_open_is_resident_only_where_queries_read() {
    let path = std::env::temp_dir().join(format!("hics-residency-{}.hics", std::process::id()));
    wide_model().save(&path).expect("save");
    let size = std::fs::metadata(&path).expect("saved").len() as usize;
    assert!(size >= 4 << 20, "{size} bytes");
    let page = 4096;

    let artifact = Arc::new(ModelArtifact::open_mmap(&path).expect("open"));
    assert!(artifact.is_mmap());
    let opened = resident(&path);
    assert!(
        opened <= 2 * WINDOW + page,
        "{opened} bytes resident after the open of a {size}-byte artifact"
    );

    let engine = QueryEngine::from_artifact(Arc::clone(&artifact), None, 1);
    assert!(engine.index_stats().precomputed && engine.index_stats().from_artifact);
    let score = engine.score(&vec![0.25; 100]).expect("score");
    assert!(score.is_finite());
    let queried = resident(&path);
    assert!(
        queried > 0 && queried < size,
        "{queried} bytes resident after one query of a {size}-byte artifact"
    );

    let sum = artifact
        .bytes()
        .iter()
        .fold(0u64, |acc, &b| acc.wrapping_add(u64::from(b)));
    std::hint::black_box(sum);
    let touched = resident(&path);
    assert!(
        touched.abs_diff(size) <= 64 * 1024,
        "{touched} bytes resident after reading all {size}"
    );
    drop((engine, artifact));
    std::fs::remove_file(&path).ok();
}
