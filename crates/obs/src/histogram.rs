//! Log-linear bounded-memory histogram with lock-free recording.
//!
//! The bucket layout is the HDR idiom: values below `2^sub_bits` get one
//! bucket each (exact); above that, every power-of-two octave is split into
//! `2^sub_bits` linear sub-buckets, so the relative quantile error is
//! bounded by `2^-sub_bits` at any magnitude. Memory is fixed at
//! construction from the value cap — recording is one atomic increment, no
//! allocation, no locking, safe from any number of writer threads.

use std::sync::atomic::{AtomicU64, Ordering};

/// The quantiles rendered in Prometheus exposition.
pub(crate) const QUANTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// A concurrent log-linear histogram over `u64` values.
#[derive(Debug)]
pub struct Histogram {
    sub_bits: u32,
    max_value: u64,
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// Bucket index of `v` in the log-linear layout.
fn index_for(v: u64, sub_bits: u32) -> usize {
    let base = 1u64 << sub_bits;
    if v < base {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= sub_bits
    let sub = ((v >> (octave - sub_bits)) - base) as usize;
    (octave - sub_bits + 1) as usize * base as usize + sub
}

/// Largest value mapping to bucket `idx` (inclusive upper bound).
fn upper_bound(idx: usize, sub_bits: u32) -> u64 {
    let base = 1usize << sub_bits;
    if idx < base {
        return idx as u64;
    }
    let group = idx / base; // >= 1
    let within = (idx % base) as u64;
    let octave = group as u32 - 1 + sub_bits;
    let width = 1u64 << (octave - sub_bits);
    let lower = (base as u64 + within) << (octave - sub_bits);
    lower + width - 1
}

impl Histogram {
    /// A histogram resolving values up to `max_value` with relative error
    /// at most `2^-sub_bits` (values above `max_value` are clamped into the
    /// top bucket). Values below `2^sub_bits` are recorded exactly.
    ///
    /// # Panics
    /// Panics if `sub_bits > 16` or `max_value == 0`.
    pub fn new(sub_bits: u32, max_value: u64) -> Self {
        assert!(sub_bits <= 16, "sub_bits above 16 wastes memory");
        assert!(max_value > 0, "max_value must be positive");
        let buckets = index_for(max_value, sub_bits) + 1;
        let counts = (0..buckets).map(|_| AtomicU64::new(0)).collect();
        Self {
            sub_bits,
            max_value,
            counts,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one value (clamped to the configured cap). Lock-free: one
    /// bucket increment plus the sum/count counters.
    pub fn record(&self, value: u64) {
        let v = value.min(self.max_value);
        self.counts[index_for(v, self.sub_bits)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded (clamped) values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the whole distribution (taken off the hot
    /// path — e.g. by the `/metrics` renderer).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            sub_bits: self.sub_bits,
            max_value: self.max_value,
            counts,
            sum: self.sum.load(Ordering::Relaxed),
            count,
        }
    }

    /// Convenience: the `q`-quantile of a fresh snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// An immutable copy of a [`Histogram`]'s buckets.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    sub_bits: u32,
    max_value: u64,
    counts: Vec<u64>,
    sum: u64,
    count: u64,
}

impl HistogramSnapshot {
    /// Total values in the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of values in the snapshot.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The `q`-quantile (0 < q ≤ 1) as the inclusive upper bound of the
    /// bucket holding the rank — within `2^-sub_bits` relative error of the
    /// true order statistic. Returns 0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return upper_bound(idx, self.sub_bits).min(self.max_value);
            }
        }
        self.max_value
    }

    /// How many recorded values are ≤ `value`. Exact whenever `value` falls
    /// on a bucket boundary — in particular for any `value < 2^sub_bits`,
    /// where every bucket holds a single integer.
    pub fn count_le(&self, value: u64) -> u64 {
        let mut total = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            if upper_bound(idx, self.sub_bits) > value {
                break;
            }
            total += c;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn indexes_round_trip_bucket_bounds() {
        for sub_bits in [0, 1, 3, 5, 8] {
            let mut prev_ub = None;
            for idx in 0..index_for(1 << 20, sub_bits) {
                let ub = upper_bound(idx, sub_bits);
                assert_eq!(index_for(ub, sub_bits), idx, "ub of bucket {idx}");
                if let Some(p) = prev_ub {
                    assert_eq!(
                        index_for(p + 1, sub_bits),
                        idx,
                        "buckets are contiguous at {idx}"
                    );
                    assert!(ub > p, "upper bounds increase");
                }
                prev_ub = Some(ub);
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new(5, 1 << 20);
        for v in 0..32 {
            h.record(v);
        }
        let snap = h.snapshot();
        for v in 0..32 {
            assert_eq!(snap.count_le(v), v + 1, "count_le({v})");
        }
    }

    /// Quantiles of a known distribution stay within the advertised
    /// `2^-sub_bits` relative error bound.
    #[test]
    fn quantile_error_is_bounded() {
        let sub_bits = 5;
        let h = Histogram::new(sub_bits, 1 << 40);
        // 1..=100_000 — the true q-quantile is q * 100_000.
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        for q in [0.5f64, 0.9, 0.99, 0.999] {
            let truth = (q * 100_000.0).ceil();
            let got = snap.quantile(q) as f64;
            assert!(
                got >= truth,
                "q={q}: bucket upper bound {got} below true {truth}"
            );
            let rel = (got - truth) / truth;
            let bound = 1.0 / (1u64 << sub_bits) as f64;
            assert!(
                rel <= bound + 1e-12,
                "q={q}: relative error {rel} exceeds {bound}"
            );
        }
        assert_eq!(snap.count(), 100_000);
        assert_eq!(snap.sum(), (1..=100_000u64).sum::<u64>());
    }

    #[test]
    fn values_above_cap_clamp_into_top_bucket() {
        let h = Histogram::new(4, 1000);
        h.record(u64::MAX);
        h.record(5);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 1005);
        assert!(h.quantile(1.0) <= 1000);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::new(5, 1000);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.snapshot().count(), 0);
    }

    /// Concurrent writers never lose a recording and the snapshot totals
    /// reconcile (bucket sum == count).
    #[test]
    fn concurrent_recording_reconciles() {
        let h = Arc::new(Histogram::new(5, 1 << 30));
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * per_thread + i + 1);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), threads * per_thread);
        assert_eq!(h.count(), threads * per_thread);
        assert_eq!(
            snap.sum(),
            (1..=threads * per_thread).sum::<u64>(),
            "no increment lost"
        );
    }
}
