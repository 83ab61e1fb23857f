//! Seeded inputs: a `SyntheticConfig` dataset with planted 2–5-d blocks,
//! and query points that are training rows nudged off-grid (so the
//! coincident-point lookup misses and the full kNN path runs).

use crate::trace::{span, Trace};
use hics_data::{LabeledDataset, NormKind, SyntheticConfig};
use hics_store::{DatasetStore, StoreWriter, DEFAULT_CHUNK_ROWS};
use std::path::Path;

/// A generated workload input.
pub struct Inputs {
    pub data: LabeledDataset,
    /// Query points: every planted outlier plus sampled inliers, shuffled.
    pub queries: Vec<Vec<f64>>,
    /// Planted label of each query's source row.
    pub labels: Vec<bool>,
}

/// SplitMix64: a tiny seeded generator for the query sample.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Generates `n × d` data with correlated blocks of `block_dims`
/// attributes, 3 clusters each, and `query_count` query points from
/// `seed`. Fixing the block shape keeps the work a fit and a query do
/// nearly the same from seed to seed; the seed moves the points.
pub fn generate(n: usize, d: usize, block_dims: usize, seed: u64, query_count: usize) -> Inputs {
    let mut config = SyntheticConfig::new(n, d).with_seed(seed);
    config.subspace_dims = (block_dims, block_dims);
    config.clusters_per_subspace = (3, 3);
    let data = config.generate();
    let mut rng = SplitMix(seed ^ 0x005e_ed0f_9e4e_5a11);
    let (mut rows, mut inliers): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| data.labels[i]);
    rng.shuffle(&mut inliers);
    rows.extend(
        inliers
            .into_iter()
            .take(query_count.saturating_sub(rows.len())),
    );
    rng.shuffle(&mut rows);
    let queries = rows
        .iter()
        .enumerate()
        .map(|(q, &i)| {
            data.dataset
                .row(i)
                .iter()
                .enumerate()
                .map(|(j, v)| v + 1e-3 + ((q * 7 + j) % 13) as f64 * 1e-5)
                .collect()
        })
        .collect();
    let labels = rows.iter().map(|&i| data.labels[i]).collect();
    Inputs {
        data,
        queries,
        labels,
    }
}

/// Streams the dataset into a min-max normalised store at `path` and maps
/// it back.
pub fn import(data: &LabeledDataset, path: &Path, trace: Option<&Trace>) -> DatasetStore {
    span(trace, "store.import", None, 0, || {
        let ds = &data.dataset;
        let mut writer = StoreWriter::create(path, DEFAULT_CHUNK_ROWS, NormKind::MinMax);
        let mut row = vec![0.0; ds.d()];
        for i in 0..ds.n() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = ds.value(i, j);
            }
            writer.push_row(&row).expect("push row");
        }
        writer
            .finish(Some(ds.names().to_vec()))
            .expect("finish store");
    });
    DatasetStore::open_mmap(path).expect("open store")
}

/// FNV-1a over byte slices: the load fingerprint two runs with one seed
/// must share.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn rows(&mut self, rows: &[Vec<f64>]) {
        for r in rows {
            for v in r {
                self.bytes(&v.to_bits().to_le_bytes());
            }
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}
