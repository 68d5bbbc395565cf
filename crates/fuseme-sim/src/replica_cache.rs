//! Iteration-aware cuboid replica cache.
//!
//! The paper's `NetEst` (Eq. 4) charges a full shuffle of a fused unit's
//! external inputs on every execution, yet the headline workloads (GNMF,
//! ALS, PCA) are iterative: the data matrix is loop-invariant while only
//! the factor matrices change between iterations. Re-partitioning the
//! invariant matrix's cuboid replicas every iteration is pure waste — the
//! replicas from the previous iteration are still resident on the workers.
//!
//! [`ReplicaCache`] models that residency: it remembers, per
//! `(matrix uid, version, model-space axis, (P,Q,R))`, that a replica set
//! was already materialized cluster-wide, under a byte-budgeted LRU. The
//! executor consults it during consolidation: on a **hit** the shuffle for
//! that input is skipped (the [`crate::CommLedger`] is charged only on a
//! miss); on a **miss** the shuffle is charged normally and the replica is
//! admitted, evicting least-recently-used replicas when over budget.
//!
//! Invalidation has two triggers:
//!
//! * **version bump** — the driver rebinding a name to a new matrix value
//!   calls [`ReplicaCache::bump_version`], dropping every replica of the
//!   old value (a stale replica must never satisfy a hit);
//! * **eviction** — a budget-forced LRU eviction removes the entry, so the
//!   next admission of the same key is a miss and re-charges the ledger
//!   exactly once.
//!
//! The cache changes *accounting only*: block routing still happens
//! in-process, so results are byte-identical with the cache on or off.

use std::collections::HashMap;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Identity of one cuboid replica set: a specific matrix value, at a
/// specific version, laid out along a specific model-space axis at a
/// specific `(P,Q,R)` partitioning. Any component differing means the
/// resident replicas are useless and a full shuffle is required.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicaKey {
    /// The matrix value's process-unique id (`BlockedMatrix::uid`).
    pub matrix: u64,
    /// Cache-tracked version of that id (bumped on driver writes).
    pub version: u64,
    /// Encoded model-space path of the input within its fused plan
    /// (L/R/O, compounded at nested levels) — same axis ⇒ same
    /// partition-and-replicate layout at equal `(P,Q,R)`.
    pub axis: u64,
    /// The cuboid grid the replicas were partitioned for.
    pub pqr: (usize, usize, usize),
}

/// What [`ReplicaCache::admit`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// A valid replica set is resident: skip the shuffle, charge nothing.
    Hit,
    /// No valid replica set; the shuffle is charged and the new replica
    /// set is now cached (possibly after LRU evictions).
    MissInserted,
    /// No valid replica set and the replica is larger than the whole
    /// budget: the shuffle is charged and nothing is cached.
    MissBypassed,
}

impl CacheOutcome {
    /// Whether the shuffle may be skipped.
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// Monotonic counters describing cache activity, plus a point-in-time
/// residency snapshot. Serialized into run summaries by the bench harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Admissions satisfied by a resident replica (shuffle skipped).
    pub hits: u64,
    /// Admissions that required a full shuffle.
    pub misses: u64,
    /// Replica sets dropped by the LRU to fit the byte budget.
    pub evictions: u64,
    /// Replica sets dropped because their matrix version was bumped.
    pub invalidations: u64,
    /// Network bytes the hits avoided charging.
    pub saved_bytes: u64,
    /// Bytes resident at snapshot time.
    pub resident_bytes: u64,
    /// The configured byte budget.
    pub budget_bytes: u64,
}

impl CacheStats {
    /// Counter deltas since `before` (the residency snapshot and budget are
    /// point-in-time and carried over unchanged). Used by the driver to
    /// report per-run cache activity on a long-lived cluster.
    pub fn since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            invalidations: self.invalidations - before.invalidations,
            saved_bytes: self.saved_bytes - before.saved_bytes,
            resident_bytes: self.resident_bytes,
            budget_bytes: self.budget_bytes,
        }
    }

    /// Whether any cache activity was counted (residency alone is not
    /// activity).
    pub fn any(&self) -> bool {
        self.hits + self.misses + self.evictions + self.invalidations > 0
    }
}

#[derive(Debug)]
struct Entry {
    bytes: u64,
    last_use: u64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<ReplicaKey, Entry>,
    /// Current version per matrix uid (absent ⇒ 0).
    versions: HashMap<u64, u64>,
    used: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    saved_bytes: u64,
}

/// A byte-budgeted LRU of cluster-resident cuboid replica sets. Interior
/// mutability (the executor holds the owning [`crate::Cluster`] by shared
/// reference) behind a [`Mutex`]; all operations are O(entries) or better
/// and the entry count is tiny (one per distinct input × layout).
#[derive(Debug)]
pub struct ReplicaCache {
    budget: u64,
    inner: Mutex<Inner>,
}

impl ReplicaCache {
    /// Creates an empty cache with the given byte budget.
    pub fn new(budget_bytes: u64) -> Self {
        ReplicaCache {
            budget: budget_bytes,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Consults and updates the cache for one input's replica set of
    /// `bytes` total cluster-wide footprint. Returns whether the shuffle
    /// may be skipped ([`CacheOutcome::Hit`]) or must be charged.
    pub fn admit(
        &self,
        matrix: u64,
        axis: u64,
        pqr: (usize, usize, usize),
        bytes: u64,
    ) -> CacheOutcome {
        let mut g = self.inner.lock();
        let version = g.versions.get(&matrix).copied().unwrap_or(0);
        let key = ReplicaKey {
            matrix,
            version,
            axis,
            pqr,
        };
        g.tick += 1;
        let tick = g.tick;
        if let Some(e) = g.entries.get_mut(&key) {
            e.last_use = tick;
            g.hits += 1;
            g.saved_bytes += bytes;
            return CacheOutcome::Hit;
        }
        g.misses += 1;
        if bytes > self.budget {
            return CacheOutcome::MissBypassed;
        }
        while g.used + bytes > self.budget {
            let victim = g
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    if let Some(e) = g.entries.remove(&k) {
                        g.used -= e.bytes;
                        g.evictions += 1;
                    }
                }
                None => break,
            }
        }
        g.entries.insert(
            key,
            Entry {
                bytes,
                last_use: tick,
            },
        );
        g.used += bytes;
        CacheOutcome::MissInserted
    }

    /// Whether a valid replica set is resident for the current version of
    /// `matrix` at exactly this layout. Read-only: does not touch LRU order
    /// or counters (the optimizer probes many candidates).
    pub fn contains(&self, matrix: u64, axis: u64, pqr: (usize, usize, usize)) -> bool {
        let g = self.inner.lock();
        let version = g.versions.get(&matrix).copied().unwrap_or(0);
        g.entries.contains_key(&ReplicaKey {
            matrix,
            version,
            axis,
            pqr,
        })
    }

    /// Every `(P,Q,R)` with a valid resident replica set for the current
    /// version of `matrix` along `axis` — the candidate grid points the
    /// cache-aware optimizer evaluates with the cached `NetEst` variant.
    pub fn replica_pqrs(&self, matrix: u64, axis: u64) -> Vec<(usize, usize, usize)> {
        let g = self.inner.lock();
        let version = g.versions.get(&matrix).copied().unwrap_or(0);
        let mut out: Vec<(usize, usize, usize)> = g
            .entries
            .keys()
            .filter(|k| k.matrix == matrix && k.version == version && k.axis == axis)
            .map(|k| k.pqr)
            .collect();
        out.sort_unstable();
        out
    }

    /// Bumps the version of `matrix` (a driver write replaced its value),
    /// invalidating every resident replica set of the old version. Returns
    /// how many replica sets it dropped.
    pub fn bump_version(&self, matrix: u64) -> u64 {
        let mut g = self.inner.lock();
        let v = g.versions.entry(matrix).or_insert(0);
        *v += 1;
        let stale: Vec<ReplicaKey> = g
            .entries
            .keys()
            .filter(|k| k.matrix == matrix)
            .copied()
            .collect();
        let mut dropped = 0;
        for k in stale {
            if let Some(e) = g.entries.remove(&k) {
                g.used -= e.bytes;
                dropped += 1;
            }
        }
        g.invalidations += dropped;
        dropped
    }

    /// Snapshot of activity counters and residency.
    pub fn stats(&self) -> CacheStats {
        let g = self.inner.lock();
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            invalidations: g.invalidations,
            saved_bytes: g.saved_bytes,
            resident_bytes: g.used,
            budget_bytes: self.budget,
        }
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().used
    }

    /// Drops every entry, version, and counter; the budget is kept. Called
    /// by [`crate::Cluster::reset`] so a fresh measurement run starts cold.
    pub fn clear(&self) {
        *self.inner.lock() = Inner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PQR: (usize, usize, usize) = (2, 3, 1);

    #[test]
    fn miss_then_hit_then_saved_bytes() {
        let c = ReplicaCache::new(1000);
        assert_eq!(c.admit(1, 0, PQR, 400), CacheOutcome::MissInserted);
        assert_eq!(c.admit(1, 0, PQR, 400), CacheOutcome::Hit);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.saved_bytes, 400);
        assert_eq!(s.resident_bytes, 400);
    }

    #[test]
    fn different_layout_is_a_different_replica() {
        let c = ReplicaCache::new(1000);
        c.admit(1, 0, PQR, 100);
        assert_eq!(c.admit(1, 1, PQR, 100), CacheOutcome::MissInserted);
        assert_eq!(c.admit(1, 0, (3, 2, 1), 100), CacheOutcome::MissInserted);
        assert!(c.contains(1, 0, PQR));
        assert!(!c.contains(2, 0, PQR));
        assert_eq!(c.replica_pqrs(1, 0), vec![PQR, (3, 2, 1)]);
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let c = ReplicaCache::new(1000);
        c.admit(1, 0, PQR, 600);
        c.admit(2, 0, PQR, 300);
        // Touch 1 so 2 is least recently used.
        assert!(c.admit(1, 0, PQR, 600).is_hit());
        c.admit(3, 0, PQR, 500); // must evict 2 (and not 1? 600+500 > 1000 → evicts 2 then 1)
        let s = c.stats();
        assert!(s.resident_bytes <= 1000);
        assert_eq!(s.evictions, 2);
        assert!(c.contains(3, 0, PQR));
        assert!(!c.contains(2, 0, PQR));
    }

    #[test]
    fn oversized_replica_bypasses() {
        let c = ReplicaCache::new(100);
        c.admit(1, 0, PQR, 50);
        assert_eq!(c.admit(2, 0, PQR, 500), CacheOutcome::MissBypassed);
        // The resident small entry survived (no pointless eviction).
        assert!(c.contains(1, 0, PQR));
        assert_eq!(c.stats().resident_bytes, 50);
    }

    #[test]
    fn version_bump_invalidates() {
        let c = ReplicaCache::new(1000);
        c.admit(1, 0, PQR, 400);
        c.admit(1, 1, PQR, 100);
        assert_eq!(c.bump_version(1), 2);
        assert!(!c.contains(1, 0, PQR));
        assert_eq!(c.admit(1, 0, PQR, 400), CacheOutcome::MissInserted);
        let s = c.stats();
        assert_eq!(s.invalidations, 2);
        assert_eq!(s.misses, 3);
        // The re-admitted replica goes with the next bump; a bump with
        // nothing resident drops none.
        assert_eq!(c.bump_version(1), 1);
        assert_eq!(c.bump_version(1), 0);
    }

    #[test]
    fn hit_evict_miss_recharges_once() {
        let c = ReplicaCache::new(500);
        assert_eq!(c.admit(1, 0, PQR, 400), CacheOutcome::MissInserted);
        assert!(c.admit(1, 0, PQR, 400).is_hit());
        // A bigger newcomer evicts it…
        assert_eq!(c.admit(2, 0, PQR, 450), CacheOutcome::MissInserted);
        assert!(!c.contains(1, 0, PQR));
        // …so the next admission is exactly one more miss (one recharge).
        let before = c.stats().misses;
        assert_eq!(c.admit(1, 0, PQR, 400), CacheOutcome::MissInserted);
        assert_eq!(c.stats().misses, before + 1);
    }

    #[test]
    fn clear_keeps_budget() {
        let c = ReplicaCache::new(777);
        c.admit(1, 0, PQR, 100);
        c.bump_version(1);
        c.clear();
        let s = c.stats();
        assert_eq!(
            s,
            CacheStats {
                budget_bytes: 777,
                ..CacheStats::default()
            }
        );
        // Versions were cleared too: the pre-clear version history is gone.
        assert_eq!(c.admit(1, 0, PQR, 100), CacheOutcome::MissInserted);
    }
}
