//! Sharded concurrent plan cache keyed by the resolved [`PlanSpec`].

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ftfft_core::{FtFftPlan, PlanSpec};
use parking_lot::Mutex;

/// A sharded `PlanSpec → Arc<FtFftPlan>` cache.
///
/// Keys are specs *after* [`PlanSpec::resolve`] — the env overrides are
/// baked in, so two tenants whose specs resolve identically share one
/// plan (twiddles and thresholds included), and two that differ in any
/// knob never collide. Misses build the plan while holding only their
/// shard's lock, which doubles as build deduplication: concurrent misses
/// on the same spec build it exactly once.
pub struct PlanCache {
    shards: Box<[Shard]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One lock domain of the cache.
type Shard = Mutex<HashMap<PlanSpec, Arc<FtFftPlan>>>;

impl PlanCache {
    /// Creates a cache with `shards` independent lock domains (rounded up
    /// to at least 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, spec: &PlanSpec) -> &Shard {
        let mut h = DefaultHasher::new();
        spec.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Returns the shared plan for `spec` (resolving it first) and
    /// whether this lookup was a cache hit.
    pub fn get(&self, spec: &PlanSpec) -> (Arc<FtFftPlan>, bool) {
        let resolved = spec.resolve();
        let mut shard = self.shard_for(&resolved).lock();
        if let Some(plan) = shard.get(&resolved) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (plan.clone(), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(FtFftPlan::from_spec(&resolved));
        shard.insert(resolved, plan.clone());
        (plan, false)
    }

    /// Lookups that found an existing plan.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build a plan.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Number of distinct plans currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// `true` before the first miss.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftfft_core::Scheme;
    use ftfft_fft::Direction;

    #[test]
    fn same_resolved_spec_shares_one_plan() {
        let cache = PlanCache::new(4);
        let spec = PlanSpec::builder(128).scheme(Scheme::OnlineCompOpt).build();
        let (a, hit_a) = cache.get(&spec);
        let (b, hit_b) = cache.get(&spec.resolve());
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b), "pre-resolved and raw specs must share");
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_knobs_get_distinct_plans() {
        let cache = PlanCache::new(4);
        let base = PlanSpec::builder(64).scheme(Scheme::OnlineMemOpt);
        let _ = cache.get(&base.build());
        let _ = cache.get(&base.direction(Direction::Inverse).build());
        let _ = cache.get(&base.scheme(Scheme::Plain).build());
        let _ = cache.get(&base.threshold_scale(2.0).build());
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn concurrent_tenants_share_under_contention() {
        let cache = Arc::new(PlanCache::new(8));
        let spec = PlanSpec::builder(256).scheme(Scheme::Offline).build();
        let plans: Vec<Arc<FtFftPlan>> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let cache = cache.clone();
                    s.spawn(move || cache.get(&spec).0)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for p in &plans[1..] {
            assert!(Arc::ptr_eq(&plans[0], p));
        }
        assert_eq!(cache.misses(), 1, "shard lock dedups concurrent builds");
        assert_eq!(cache.len(), 1);
    }
}
