//! Mutation test of the sharded-manifest decoder: small manifests are
//! corrupted one field at a time — every byte flipped, the aggregation and
//! partition words overwritten with edge values — and the checksum is
//! re-stamped so each mutation reaches the validation behind it. Every
//! mutation must decode to `Ok` or a typed `Err`, never panic, and every
//! accepted manifest must survive its own re-encoding.

use hics_data::envelope::artifact_checksum;
use hics_data::manifest::{PartitionKind, ShardAggregation, ShardEntry, ShardManifest};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Header offsets of the aggregation and partition words.
const WORDS: [(&str, usize); 2] = [("aggregation", 40), ("partition", 44)];

/// A two-shard mean/contiguous manifest and a three-shard max/hash one
/// whose file names need different amounts of padding.
fn manifests() -> [ShardManifest; 2] {
    let entry = |file: &str, n| ShardEntry {
        file: file.into(),
        n,
    };
    [
        ShardManifest {
            total_n: 200,
            d: 6,
            aggregation: ShardAggregation::Mean,
            partition: PartitionKind::Contiguous,
            shards: vec![entry("m.shard0.hics", 100), entry("m.shard1.hics", 100)],
        },
        ShardManifest {
            total_n: 31,
            d: 3,
            aggregation: ShardAggregation::Max,
            partition: PartitionKind::Hash,
            shards: vec![entry("a", 10), entry("bb.hics", 11), entry("c.shard2", 10)],
        },
    ]
}

/// Writes `value` at `at` and re-stamps the checksum.
fn stamped(bytes: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + value.len()].copy_from_slice(value);
    let checksum = artifact_checksum(&out);
    out[64..72].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// Every mutation of `bytes`, with a description: each byte XOR-ed with
/// three masks, and the aggregation and partition words overwritten with
/// the valid codes, the first invalid one and the extremes.
fn mutations(bytes: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let flips = (0..bytes.len()).flat_map(move |at| {
        [0x01u8, 0x80, 0xff].map(|mask| {
            let value = [bytes[at] ^ mask];
            (format!("byte {at} ^ {mask:#x}"), stamped(bytes, at, &value))
        })
    });
    let words = WORDS.into_iter().flat_map(move |(name, at)| {
        [0u32, 1, 2, 3, 0x7fff_ffff, 0x8000_0000, u32::MAX].map(|v| {
            (
                format!("{name} = {v}"),
                stamped(bytes, at, &v.to_le_bytes()),
            )
        })
    });
    flips.chain(words)
}

#[test]
fn every_mutation_decodes_or_fails_typed() {
    let started = std::time::Instant::now();
    let (mut tried, mut accepted, mut panicked) = (0usize, 0usize, Vec::new());
    for manifest in manifests() {
        let bytes = manifest.to_bytes();
        assert_eq!(
            ShardManifest::from_bytes(&bytes).ok(),
            Some(manifest.clone())
        );
        for (what, mutated) in mutations(&bytes) {
            tried += 1;
            let decode = || {
                let decoded = ShardManifest::from_bytes(&mutated).ok()?;
                let again = ShardManifest::from_bytes(&decoded.to_bytes()).ok();
                assert_eq!(again.as_ref(), Some(&decoded), "re-encoding changed it");
                Some(())
            };
            match catch_unwind(AssertUnwindSafe(decode)) {
                Ok(Some(())) => accepted += 1,
                Ok(None) => {}
                Err(_) => panicked.push(what),
            }
        }
    }
    eprintln!(
        "{tried} mutations, {accepted} accepted, {} panicked, {:.2}s",
        panicked.len(),
        started.elapsed().as_secs_f64()
    );
    assert!(accepted > 0, "no mutation got past the decoder");
    assert!(panicked.is_empty(), "panicked: {panicked:#?}");
}
