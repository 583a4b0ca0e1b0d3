//! The consistent-hash ring: canonical request keys onto workers.
//!
//! Each worker owns `vnodes` pseudo-random points on the `u64` circle; a
//! request key is owned by the worker whose point is the first at or
//! after the key (wrapping at the top). The properties the cluster
//! depends on, locked by `tests/ring_props.rs`:
//!
//! * **Stability** — adding or removing one worker remaps only the keys
//!   whose owning arc changed, ≈ `1/N` of the population, instead of
//!   reshuffling everything the way `key % N` would. A remap costs one
//!   cold recompute on the new owner; the old owner's cache entry ages
//!   out of its LRU.
//! * **Liveness** — a removed worker holds no points, so lookups can
//!   never name a dead worker.
//! * **Determinism** — point positions depend only on `(worker, replica)`
//!   through a fixed mix function, so every router instance (and every
//!   restart) builds the identical ring.

use std::collections::BTreeSet;

/// A consistent-hash ring over worker indexes.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: usize,
    /// `(point, worker)` sorted by point (ties broken by worker, so even
    /// colliding points order deterministically).
    points: Vec<(u64, usize)>,
    members: BTreeSet<usize>,
}

/// The splitmix64 finalizer: a fixed, well-mixed hash. It places
/// `(worker, replica)` on the circle and is the seeded source of the
/// router's health-probe and retry-backoff jitter and of the fault plans'
/// injection draws, so all of them replay without wall-clock entropy.
pub(crate) fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn vnode_point(worker: usize, replica: usize) -> u64 {
    mix(((worker as u64) << 32) ^ replica as u64)
}

impl HashRing {
    /// An empty ring with `vnodes` points per worker (at least 1).
    pub fn new(vnodes: usize) -> HashRing {
        HashRing {
            vnodes: vnodes.max(1),
            points: Vec::new(),
            members: BTreeSet::new(),
        }
    }

    /// Adds a worker's points; returns `false` if it was already present.
    pub fn add(&mut self, worker: usize) -> bool {
        if !self.members.insert(worker) {
            return false;
        }
        for replica in 0..self.vnodes {
            let p = (vnode_point(worker, replica), worker);
            let at = self.points.partition_point(|q| *q < p);
            self.points.insert(at, p);
        }
        true
    }

    /// Removes a worker's points; returns `false` if it was not present.
    pub fn remove(&mut self, worker: usize) -> bool {
        if !self.members.remove(&worker) {
            return false;
        }
        self.points.retain(|&(_, w)| w != worker);
        true
    }

    /// Whether `worker` is currently on the ring.
    pub fn contains(&self, worker: usize) -> bool {
        self.members.contains(&worker)
    }

    /// The worker owning `key`: the first point at or after it, wrapping.
    /// `None` only when the ring is empty.
    pub fn owner(&self, key: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let at = self.points.partition_point(|&(p, _)| p < key);
        let (_, worker) = self.points[at % self.points.len()];
        Some(worker)
    }

    /// The first `r` *distinct* workers at or after `key`, wrapping: the
    /// key's replica set. `owners(key, 1)` is `[owner(key)]`; the second
    /// entry is the key's first successor — exactly the worker that
    /// becomes the owner if the primary is removed, which is what makes
    /// successor replication a warm failover: the rehashed lookup lands
    /// precisely on the replica that already holds the key's answer.
    /// Returns `min(r, members)` workers; empty only when the ring is
    /// empty or `r` is 0.
    pub fn owners(&self, key: u64, r: usize) -> Vec<usize> {
        let want = r.min(self.members.len());
        let mut out = Vec::with_capacity(want);
        if want == 0 {
            return out;
        }
        let start = self.points.partition_point(|&(p, _)| p < key);
        for i in 0..self.points.len() {
            let (_, worker) = self.points[(start + i) % self.points.len()];
            if !out.contains(&worker) {
                out.push(worker);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// Current members, ascending.
    pub fn members(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().copied()
    }

    /// Number of workers on the ring.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no worker is on the ring.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_deterministic_and_total() {
        let mut a = HashRing::new(64);
        let mut b = HashRing::new(64);
        for w in [2, 0, 1] {
            a.add(w);
        }
        for w in [0, 1, 2] {
            b.add(w);
        }
        for key in (0..5000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            let owner = a.owner(key).unwrap();
            assert_eq!(Some(owner), b.owner(key), "insertion order must not matter");
            assert!(owner < 3);
        }
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let mut ring = HashRing::new(8);
        assert_eq!(ring.owner(42), None);
        ring.add(7);
        assert_eq!(ring.owner(42), Some(7), "a singleton owns every key");
        assert_eq!(ring.owner(u64::MAX), Some(7));
        ring.remove(7);
        assert_eq!(ring.owner(42), None);
    }

    #[test]
    fn duplicate_add_and_remove_are_refused() {
        let mut ring = HashRing::new(8);
        assert!(ring.add(1));
        assert!(!ring.add(1));
        assert_eq!(ring.points.len(), 8, "no duplicate points");
        assert!(ring.remove(1));
        assert!(!ring.remove(1));
        assert!(ring.is_empty());
        assert!(ring.points.is_empty());
    }

    #[test]
    fn owners_are_distinct_and_promote_on_removal() {
        let mut ring = HashRing::new(64);
        for w in 0..4 {
            ring.add(w);
        }
        for key in (0..2000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            let owners = ring.owners(key, 2);
            assert_eq!(owners.len(), 2);
            assert_ne!(owners[0], owners[1]);
            assert_eq!(owners[0], ring.owner(key).unwrap());
            // The replication invariant: removing the primary promotes
            // exactly the successor replica.
            let mut without = ring.clone();
            without.remove(owners[0]);
            assert_eq!(without.owner(key), Some(owners[1]));
        }
        // r clamps to the member count; an empty ring owns nothing.
        assert_eq!(ring.owners(42, 9).len(), 4);
        assert_eq!(ring.owners(42, 0), Vec::<usize>::new());
        assert_eq!(HashRing::new(8).owners(42, 2), Vec::<usize>::new());
    }

    #[test]
    fn vnodes_spread_ownership_roughly_evenly() {
        let mut ring = HashRing::new(64);
        for w in 0..4 {
            ring.add(w);
        }
        let mut counts = [0usize; 4];
        let keys = 8000u64;
        for key in (0..keys).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            counts[ring.owner(key).unwrap()] += 1;
        }
        for (w, &c) in counts.iter().enumerate() {
            let share = c as f64 / keys as f64;
            assert!(
                (0.10..=0.45).contains(&share),
                "worker {w} owns {share:.3} of keys — vnode spread broken: {counts:?}"
            );
        }
    }
}
