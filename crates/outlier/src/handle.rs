//! The atomically swappable engine handle — the seam that lets a serving
//! process replace its trained model under live traffic.
//!
//! A server that owns its engine by value can never change models without
//! a restart. [`EngineHandle`] owns the [`Engine`] behind an
//! `RwLock<Arc<_>>` with arc-swap semantics instead:
//!
//! * [`EngineHandle::load`] clones the current `Arc` out from under a read
//!   lock — a few nanoseconds, never blocked by scoring (scoring happens
//!   *after* the lock is released, on the clone).
//! * [`EngineHandle::swap`] installs a new engine under the write lock and
//!   returns the previous one. In-flight requests that already `load`ed
//!   keep scoring against the old engine until their `Arc` drops; nothing
//!   is torn down under them, no connection needs to close.
//!
//! The lock is held only for the pointer exchange, so the worst contention
//! a reload can cause is a pointer-copy-sized stall. A monotonically
//! increasing generation counter identifies which model answered a request
//! (surfaced by the serving layer's `/model` endpoint and reload replies).
//!
//! # Retired-generation LRU
//!
//! Every swap **retires** the displaced engine into a bounded LRU of
//! `RETAIN_LIMIT` (2) generations: the most recent generations stay
//! resident — mmap-backed engines keep their artifact pages mapped, so a
//! rollback reload of a just-replaced model re-uses the warm page cache —
//! while anything older is evicted and dropped. Once the
//! last in-flight `Arc` of an evicted engine goes, its artifact unmaps;
//! a server reloading every few minutes therefore pins at most
//! `RETAIN_LIMIT + 1` mapped artifacts instead of growing its address
//! space without bound.

use crate::engine::Engine;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Number of retired engine generations kept resident.
const RETAIN_LIMIT: usize = 2;

/// A shared, hot-swappable handle to the current [`Engine`].
#[derive(Debug)]
pub struct EngineHandle {
    engine: RwLock<Arc<Engine>>,
    generation: AtomicU64,
    /// Retired `(generation, engine)` pairs, oldest first, capped at
    /// `RETAIN_LIMIT`.
    retired: Mutex<VecDeque<(u64, Arc<Engine>)>>,
}

impl EngineHandle {
    /// Wraps an engine as generation 1 with the default retirement LRU.
    pub fn new(engine: impl Into<Engine>) -> Self {
        Self::from_arc(Arc::new(engine.into()))
    }

    /// Wraps an already-shared engine as generation 1.
    pub fn from_arc(engine: Arc<Engine>) -> Self {
        Self {
            engine: RwLock::new(engine),
            generation: AtomicU64::new(1),
            retired: Mutex::new(VecDeque::new()),
        }
    }

    /// The current engine. The returned `Arc` stays valid (and keeps
    /// scoring consistently against its own model) across any number of
    /// concurrent [`EngineHandle::swap`]s.
    pub fn load(&self) -> Arc<Engine> {
        Arc::clone(&self.engine.read().expect("engine handle poisoned"))
    }

    /// Atomically installs `engine` as the current one and returns the
    /// previous engine. Bumps [`EngineHandle::generation`] and retires the
    /// displaced engine into the LRU (evicting beyond the cap).
    pub fn swap(&self, engine: impl Into<Engine>) -> Arc<Engine> {
        self.swap_arc(Arc::new(engine.into()))
    }

    /// [`EngineHandle::swap`] for an engine that is already shared.
    pub fn swap_arc(&self, engine: Arc<Engine>) -> Arc<Engine> {
        let mut guard = self.engine.write().expect("engine handle poisoned");
        let old = std::mem::replace(&mut *guard, engine);
        // Bump — and retire — under the write lock, so generation N always
        // refers to the N-th installed engine and the retirement deque
        // stays generation-ordered (oldest first) even with racing swaps;
        // retiring outside the lock would let a concurrent swap interleave
        // and make the LRU evict the *newest* retired generation.
        let old_generation = self.generation.fetch_add(1, Ordering::SeqCst);
        let mut retired = self.retired.lock().expect("retired list poisoned");
        retired.push_back((old_generation, Arc::clone(&old)));
        while retired.len() > RETAIN_LIMIT {
            // Evicted engines drop here; their artifacts unmap as soon as
            // the last in-flight request's Arc goes.
            retired.pop_front();
        }
        drop(retired);
        old
    }

    /// How many engines this handle has seen (1 for the initial engine,
    /// +1 per swap).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Generations currently held in the retirement LRU, oldest first.
    pub fn retired_generations(&self) -> Vec<u64> {
        self.retired
            .lock()
            .expect("retired list poisoned")
            .iter()
            .map(|(g, _)| *g)
            .collect()
    }

    /// A retired engine by generation, if it is still in the LRU — the
    /// warm-rollback hook: a reload that fails validation can fall back to
    /// the previous generation without re-reading its artifact.
    pub fn retired(&self, generation: u64) -> Option<Arc<Engine>> {
        self.retired
            .lock()
            .expect("retired list poisoned")
            .iter()
            .find(|(g, _)| *g == generation)
            .map(|(_, e)| Arc::clone(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_data::model::{
        apply_normalization, AggregationKind, HicsModel, ModelSubspace, NormKind, ScorerKind,
        ScorerSpec,
    };
    use hics_data::SyntheticConfig;

    fn engine(seed: u64) -> crate::query::QueryEngine {
        let g = SyntheticConfig::new(60, 3).with_seed(seed).generate();
        let (data, norm) = apply_normalization(&g.dataset, NormKind::None);
        let model = HicsModel::new(
            data,
            NormKind::None,
            norm,
            vec![ModelSubspace {
                dims: vec![0, 1],
                contrast: 0.6,
            }],
            ScorerSpec {
                kind: ScorerKind::KnnMean,
                k: 4,
            },
            AggregationKind::Average,
        );
        crate::query::QueryEngine::from_model(&model, 1)
    }

    #[test]
    fn swap_replaces_engine_and_bumps_generation() {
        let handle = EngineHandle::new(engine(1));
        assert_eq!(handle.generation(), 1);
        let first = handle.load();
        let old = handle.swap(engine(2));
        assert_eq!(handle.generation(), 2);
        assert!(
            Arc::ptr_eq(&first, &old),
            "swap returns the previous engine"
        );
        assert!(!Arc::ptr_eq(&first, &handle.load()));
        // The displaced engine still scores — in-flight requests holding it
        // are unaffected by the swap.
        let q = vec![0.4, 0.5, 0.6];
        assert_eq!(first.score(&q), old.score(&q));
    }

    #[test]
    fn loads_during_concurrent_swaps_always_see_a_whole_engine() {
        let handle = Arc::new(EngineHandle::new(engine(3)));
        let q = vec![0.3, 0.7, 0.5];
        let expected: Vec<f64> = (3..6).map(|s| engine(s).score(&q).unwrap()).collect();
        let swapper = {
            let handle = Arc::clone(&handle);
            std::thread::spawn(move || {
                for seed in [4, 5] {
                    handle.swap(engine(seed));
                }
            })
        };
        for _ in 0..200 {
            let e = handle.load();
            let got = e.score(&q).unwrap();
            assert!(
                expected.contains(&got),
                "score {got} from no installed engine"
            );
        }
        swapper.join().unwrap();
        assert_eq!(handle.generation(), 3);
    }

    /// Repeated swaps retire old generations into a bounded LRU: the most
    /// recent stay resident (warm rollback), older ones are dropped — the
    /// weak references to evicted engines die, which is what unmaps their
    /// artifacts in the mmap-backed case.
    #[test]
    fn retirement_lru_is_bounded_and_evicts_oldest() {
        let handle = EngineHandle::new(engine(10));
        let mut weaks = Vec::new();
        for seed in 11..16 {
            let old = handle.swap(engine(seed));
            weaks.push((handle.generation() - 1, Arc::downgrade(&old)));
            drop(old);
        }
        // Generations 1..=5 were displaced; only the newest two survive.
        assert_eq!(handle.retired_generations(), vec![4, 5]);
        for (generation, weak) in &weaks {
            let alive = weak.upgrade().is_some();
            let retained = *generation >= 4;
            assert_eq!(
                alive, retained,
                "generation {generation}: alive={alive}, retained={retained}"
            );
            assert_eq!(handle.retired(*generation).is_some(), retained);
        }
        // The warm-rollback hook serves a retained generation.
        let rollback = handle.retired(5).expect("generation 5 retained");
        assert!(rollback.score(&[0.1, 0.2, 0.3]).is_ok());
    }
}
