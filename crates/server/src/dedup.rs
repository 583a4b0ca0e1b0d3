//! Request deduplication: an in-flight leader/follower map layered over
//! a response LRU.
//!
//! The service's hottest traffic is *identical* queries from many
//! clients (the same model/architecture pair swept by dashboards and CI
//! fleets). Two mechanisms make those cost one analysis:
//!
//! * **Response LRU** — completed responses are cached under the
//!   canonicalized request key; repeats are answered with the stored
//!   bytes, bit-identical to the first answer.
//! * **In-flight dedup** — when a request arrives *while the same key is
//!   already being computed*, the arrival waits for the leader instead of
//!   recomputing; on publish, every waiter returns the leader's bytes.
//!
//! This sits above the ISL memo cache (PR 2): the memo amortizes
//! *relational sub-work* across distinct queries, the dedup layer
//! collapses *whole queries*.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use tenet_core::json::Json;

/// The canonical text of one request: method, path, and the
/// *canonicalized* body, so formatting and key-order differences collapse
/// onto one identity. Bodies that fail to parse as JSON key on their raw
/// text (the error response is deterministic too).
///
/// This string is the cluster-wide request identity: the in-process dedup
/// map keys on it directly, and the sharding router hashes it (via
/// [`canonical_key`]) to pick the owning worker — so a repeated query
/// always lands on the shard that already holds its cached answer.
pub fn canonical_request(method: &str, path: &str, body: &[u8]) -> String {
    let canonical_body = std::str::from_utf8(body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
        .map(|v| v.to_canonical_string())
        .unwrap_or_else(|| String::from_utf8_lossy(body).into_owned());
    format!("{method} {path}\n{canonical_body}")
}

/// 64-bit hash of a canonical request text — the key a consistent-hash
/// ring places on its circle. Deterministic across processes and runs
/// (no per-process seed), which is what makes shard affinity stable
/// across router restarts.
///
/// FNV-1a accumulation followed by a murmur3-style finalizer: plain
/// FNV-1a spreads a trailing-byte difference only into the low bits
/// (one multiply), and requests that differ in one late field would
/// cluster onto the same ring arc; the finalizer avalanches every input
/// bit across the whole word.
pub fn canonical_key(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// One cached response: status plus entity bytes (shared, immutable).
#[derive(Debug, Clone)]
pub struct CachedResponse {
    /// HTTP status code of the stored answer.
    pub status: u16,
    /// Entity body; `Arc` so hits are a pointer copy, not a memcpy.
    pub body: Arc<Vec<u8>>,
}

struct Inner {
    /// Keys currently being computed by a leader.
    inflight: HashSet<String>,
    /// Completed responses keyed by canonical request text.
    cache: HashMap<String, (CachedResponse, u64)>,
    /// Monotonic recency clock for LRU eviction.
    tick: u64,
}

impl Inner {
    /// Stores `resp` under `key` with a fresh tick, first evicting the
    /// least recently touched entry when the cache is full and `key` is
    /// not in it. The eviction is an O(n) scan, but only on
    /// insert-at-capacity, and capacity is modest.
    fn insert(&mut self, capacity: usize, key: String, resp: CachedResponse) {
        if self.cache.len() >= capacity && !self.cache.contains_key(&key) {
            if let Some(victim) = self
                .cache
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(k, _)| k.clone())
            {
                self.cache.remove(&victim);
            }
        }
        let tick = self.tick;
        self.tick += 1;
        self.cache.insert(key, (resp, tick));
    }
}

/// The dedup map. One instance per server.
pub struct Dedup {
    inner: Mutex<Inner>,
    published: Condvar,
    capacity: usize,
    hits: AtomicU64,
    waits: AtomicU64,
    misses: AtomicU64,
    warms: AtomicU64,
}

/// Outcome of [`Dedup::claim`].
pub enum Claim {
    /// A stored (or just-published) response; serve these bytes.
    Cached(CachedResponse),
    /// The caller is the leader for this key: compute, then
    /// [`Dedup::publish`] through the token.
    Leader(LeaderToken),
}

/// Leadership over one in-flight key.
///
/// Dropping the token without publishing (handler panic, uncacheable
/// outcome) releases the key and wakes waiters so one of them can take
/// over — leadership can never be leaked.
pub struct LeaderToken {
    dedup: Arc<Dedup>,
    key: Option<String>,
}

/// Point-in-time dedup counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Requests answered from the response LRU.
    pub hits: u64,
    /// Requests that waited for an in-flight leader.
    pub waits: u64,
    /// Requests that computed (became leader).
    pub misses: u64,
    /// Responses inserted by replication warming ([`Dedup::insert`]),
    /// i.e. answers this worker holds without ever computing them.
    pub warmed: u64,
    /// Responses currently stored.
    pub entries: u64,
}

impl Dedup {
    /// A dedup map storing at most `capacity` responses.
    pub fn new(capacity: usize) -> Arc<Dedup> {
        Arc::new(Dedup {
            inner: Mutex::new(Inner {
                inflight: HashSet::new(),
                cache: HashMap::new(),
                tick: 0,
            }),
            published: Condvar::new(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            warms: AtomicU64::new(0),
        })
    }

    /// Resolves `key` to a cached response, or elects the caller leader.
    ///
    /// Blocks while another thread leads the same key; wakes when that
    /// leader publishes (returning its bytes) or abandons (taking over
    /// leadership).
    pub fn claim(self: &Arc<Dedup>, key: &str) -> Claim {
        let mut inner = self.inner.lock().expect("dedup poisoned");
        let mut waited = false;
        loop {
            if inner.cache.contains_key(key) {
                let now = inner.tick;
                inner.tick += 1;
                let entry = inner.cache.get_mut(key).expect("checked above");
                entry.1 = now;
                let resp = entry.0.clone();
                drop(inner);
                if waited {
                    self.waits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                }
                return Claim::Cached(resp);
            }
            if !inner.inflight.contains(key) {
                inner.inflight.insert(key.to_string());
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Claim::Leader(LeaderToken {
                    dedup: Arc::clone(self),
                    key: Some(key.to_string()),
                });
            }
            waited = true;
            inner = self.published.wait(inner).expect("dedup poisoned");
        }
    }

    /// Publishes the leader's response and wakes every waiter.
    pub fn publish(&self, mut token: LeaderToken, resp: CachedResponse) {
        let key = token.key.take().expect("token already consumed");
        let mut inner = self.inner.lock().expect("dedup poisoned");
        inner.inflight.remove(&key);
        inner.insert(self.capacity, key, resp);
        drop(inner);
        self.published.notify_all();
    }

    /// Inserts a response under `key` without leadership — the
    /// replication write-through path (`POST /v1/warm`): a replica stores
    /// the primary's answer so a later failover hit is warm instead of a
    /// recompute. Counted under `warmed`, not `hits`/`misses`, so compute
    /// attribution stays exact. If the key is already cached the stored
    /// bytes win (they are this worker's own published answer; responses
    /// are deterministic, so the bytes agree anyway). Waiters on an
    /// in-flight leader for the same key are woken — the fresh cache
    /// entry answers them without waiting out the local compute.
    pub fn insert(&self, key: &str, resp: CachedResponse) {
        let mut inner = self.inner.lock().expect("dedup poisoned");
        if !inner.cache.contains_key(key) {
            inner.insert(self.capacity, key.to_string(), resp);
            self.warms.fetch_add(1, Ordering::Relaxed);
        }
        drop(inner);
        self.published.notify_all();
    }

    /// Exports every cached response in recency order, coldest first, for
    /// snapshotting or warm shipping. One lock acquisition, so the view
    /// is a consistent point in time.
    pub fn export(&self) -> Vec<(String, CachedResponse)> {
        let inner = self.inner.lock().expect("dedup poisoned");
        let mut entries: Vec<(&String, &(CachedResponse, u64))> = inner.cache.iter().collect();
        entries.sort_by_key(|(_, (_, tick))| *tick);
        entries
            .into_iter()
            .map(|(k, (resp, _))| (k.clone(), resp.clone()))
            .collect()
    }

    /// Bulk-restores exported entries via the warm write-through path.
    ///
    /// Entries are inserted in the given order, so an export (coldest
    /// first) replayed here reproduces the LRU recency order — if
    /// capacity forces eviction, the warmest snapshot entries survive.
    /// Returns how many entries were newly stored.
    pub fn import(&self, entries: Vec<(String, CachedResponse)>) -> u64 {
        let before = self.warms.load(Ordering::Relaxed);
        for (key, resp) in entries {
            self.insert(&key, resp);
        }
        self.warms.load(Ordering::Relaxed) - before
    }

    /// Current counters.
    pub fn stats(&self) -> DedupStats {
        let inner = self.inner.lock().expect("dedup poisoned");
        DedupStats {
            hits: self.hits.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            warmed: self.warms.load(Ordering::Relaxed),
            entries: inner.cache.len() as u64,
        }
    }
}

impl Drop for LeaderToken {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            // Abandoned without publishing: release the key so a waiter
            // can be elected leader on its next wakeup.
            let mut inner = self.dedup.inner.lock().expect("dedup poisoned");
            inner.inflight.remove(&key);
            drop(inner);
            self.dedup.published.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(bytes: &[u8]) -> CachedResponse {
        CachedResponse {
            status: 200,
            body: Arc::new(bytes.to_vec()),
        }
    }

    #[test]
    fn canonical_request_collapses_spelling_differences() {
        let a = canonical_request("POST", "/v1/analyze", b"{\"a\": 1, \"b\": 2}");
        let b = canonical_request("POST", "/v1/analyze", b"{ \"b\":2,\"a\" :1 }");
        assert_eq!(a, b, "key order and whitespace must not matter");
        let c = canonical_request("POST", "/v1/analyze", b"{\"a\":1,\"b\":3}");
        assert_ne!(a, c, "different values are different requests");
        let d = canonical_request("POST", "/v1/dse", b"{\"a\":1,\"b\":2}");
        assert_ne!(a, d, "the path is part of the identity");
        // Non-JSON bodies key on their raw text.
        let e = canonical_request("POST", "/v1/analyze", b"{broken");
        assert!(e.ends_with("{broken"));
    }

    #[test]
    fn canonical_key_is_deterministic_and_separating() {
        let k1 = canonical_key("POST /v1/analyze\n{\"a\":1}");
        let k2 = canonical_key("POST /v1/analyze\n{\"a\":1}");
        assert_eq!(k1, k2);
        let k3 = canonical_key("POST /v1/analyze\n{\"a\":2}");
        assert_ne!(k1, k3);
        // A trailing-byte difference must avalanche into the high bits —
        // the consistent-hash ring orders keys by their full value, and
        // requests differing in one late field must not share an arc.
        assert_ne!(k1 >> 48, k3 >> 48, "k1={k1:016x} k3={k3:016x}");
        // The empty-string value locks the algorithm choice across PRs
        // (FNV-1a offset basis through the murmur3 finalizer).
        assert_eq!(canonical_key(""), 0xefd0_1f60_ba99_2926);
    }

    #[test]
    fn leader_then_hits() {
        let d = Dedup::new(8);
        let Claim::Leader(tok) = d.claim("k") else {
            panic!("first claim must lead")
        };
        d.publish(tok, resp(b"answer"));
        for _ in 0..3 {
            let Claim::Cached(r) = d.claim("k") else {
                panic!("published key must hit")
            };
            assert_eq!(&*r.body, b"answer");
        }
        let s = d.stats();
        assert_eq!((s.misses, s.hits, s.waits), (1, 3, 0));
    }

    #[test]
    fn waiters_get_the_leaders_bytes() {
        let d = Dedup::new(8);
        let Claim::Leader(tok) = d.claim("k") else {
            panic!()
        };
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || match d.claim("k") {
                    Claim::Cached(r) => r.body.as_ref().clone(),
                    Claim::Leader(_) => panic!("in-flight key must not re-lead"),
                })
            })
            .collect();
        // Give the waiters a moment to block on the in-flight key.
        std::thread::sleep(std::time::Duration::from_millis(20));
        d.publish(tok, resp(b"shared"));
        for w in waiters {
            assert_eq!(w.join().unwrap(), b"shared");
        }
        let s = d.stats();
        assert_eq!(s.misses, 1, "only the leader computes");
        assert_eq!(s.hits + s.waits, 4);
    }

    #[test]
    fn abandoned_leadership_is_recoverable() {
        let d = Dedup::new(8);
        {
            let Claim::Leader(_tok) = d.claim("k") else {
                panic!()
            };
            // _tok drops unpublished (simulating a handler panic).
        }
        let Claim::Leader(tok) = d.claim("k") else {
            panic!("key must be claimable again")
        };
        d.publish(tok, resp(b"second try"));
    }

    #[test]
    fn warm_insert_serves_without_a_miss() {
        let d = Dedup::new(8);
        d.insert("k", resp(b"replicated"));
        let Claim::Cached(r) = d.claim("k") else {
            panic!("warmed key must hit, not recompute")
        };
        assert_eq!(&*r.body, b"replicated");
        let s = d.stats();
        assert_eq!((s.misses, s.hits, s.warmed, s.entries), (0, 1, 1, 1));
        // A second insert under the same key is a no-op (stored bytes win)
        // and is not double-counted.
        d.insert("k", resp(b"other"));
        let Claim::Cached(r) = d.claim("k") else {
            panic!()
        };
        assert_eq!(&*r.body, b"replicated");
        assert_eq!(d.stats().warmed, 1);
    }

    #[test]
    fn warm_insert_wakes_waiters_on_an_inflight_key() {
        let d = Dedup::new(8);
        let Claim::Leader(tok) = d.claim("k") else {
            panic!()
        };
        let waiter = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || match d.claim("k") {
                Claim::Cached(r) => r.body.as_ref().clone(),
                Claim::Leader(_) => panic!("in-flight key must not re-lead"),
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        // The replica's warm insert lands while the local leader is still
        // computing: the waiter takes the warmed bytes immediately.
        d.insert("k", resp(b"warmed"));
        assert_eq!(waiter.join().unwrap(), b"warmed");
        drop(tok);
    }

    #[test]
    fn export_import_round_trip_preserves_bytes_and_recency() {
        let d = Dedup::new(8);
        for key in ["a", "b", "c"] {
            let Claim::Leader(tok) = d.claim(key) else {
                panic!()
            };
            d.publish(tok, resp(key.as_bytes()));
        }
        // Touch "a" so the recency order is b < c < a.
        assert!(matches!(d.claim("a"), Claim::Cached(_)));
        let snap = d.export();
        let order: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(order, ["b", "c", "a"], "coldest first");
        // Restore into a fresh map with capacity for only 2 entries: the
        // two warmest snapshot entries must survive.
        let fresh = Dedup::new(2);
        assert_eq!(fresh.import(snap.clone()), 3, "three entries inserted");
        assert!(matches!(fresh.claim("c"), Claim::Cached(_)));
        let Claim::Cached(r) = fresh.claim("a") else {
            panic!("warmest entry must survive restore")
        };
        assert_eq!(&*r.body, b"a", "restored bytes are bit-identical");
        assert!(
            matches!(fresh.claim("b"), Claim::Leader(_)),
            "coldest entry evicted by capacity"
        );
        // Restoring on top of existing entries is idempotent: stored
        // bytes win, nothing new is counted.
        let full = Dedup::new(8);
        assert_eq!(full.import(snap.clone()), 3);
        assert_eq!(full.import(snap), 0, "second restore is a no-op");
    }

    #[test]
    fn lru_evicts_the_coldest_key() {
        let d = Dedup::new(2);
        for key in ["a", "b"] {
            let Claim::Leader(tok) = d.claim(key) else {
                panic!()
            };
            d.publish(tok, resp(key.as_bytes()));
        }
        // Touch "a" so "b" is the coldest, then insert "c".
        assert!(matches!(d.claim("a"), Claim::Cached(_)));
        let Claim::Leader(tok) = d.claim("c") else {
            panic!()
        };
        d.publish(tok, resp(b"c"));
        assert!(matches!(d.claim("a"), Claim::Cached(_)), "a survives");
        assert!(matches!(d.claim("c"), Claim::Cached(_)), "c stored");
        assert!(
            matches!(d.claim("b"), Claim::Leader(_)),
            "b was evicted and must recompute"
        );
        assert_eq!(d.stats().entries, 2);
    }
}
