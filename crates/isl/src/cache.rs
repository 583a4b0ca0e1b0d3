//! The shared operation-memoization context.
//!
//! TENET metrics recompute the *same* relational operations constantly: a
//! DSE sweep evaluates thousands of dataflow candidates that all share the
//! same access maps, and a single report queries `card` on the same
//! intermediate relations many times (volumes, latency, bandwidth, energy
//! all start from the assignment relation). This module gives the crate a
//! process-wide, thread-safe memo table so those repeats cost a hash
//! lookup instead of a Presburger computation.
//!
//! # Design
//!
//! * **Pooling.** Every [`Map`] that participates in a memoized operation
//!   goes through one pool, a hash set of handles: a map equal to a
//!   pooled one resolves to the pooled handle, and a first-seen map is
//!   filed as it is (a count bump, no copy). The set compares with full
//!   structural equality, never by hash alone, so it is collision-proof.
//!   A `Map` is a reference-counted handle carrying its structural hash,
//!   computed once per value, so a lookup whose operand is the pooled
//!   value itself finds it by pointer, with no structural walk.
//!   Operands, map-valued results and parse results all go through the
//!   pool, so each map the memo holds is held once: a result that later
//!   comes back as an operand is the pooled value.
//! * **Memoization.** Results are stored under `(op kind, pooled operand
//!   handles, extra operand)`; a map-valued result is stored as its
//!   pooled handle. A hit returns the stored handle, not a copy, and a
//!   fresh map result or parse result drops its spare capacity before it
//!   is shared, since it will be held for the table's life.
//! * **Admission.** One rule (`admits`) decides which operations go
//!   through the memo: `union` and `reverse` on small relations skip it,
//!   since redoing them costs less than a table round trip. Some work
//!   never reaches it: the slice counts of
//!   [`crate::Set::max_slice_card`], the image, intersection and count
//!   inside one [`Map::reuse_card`] (only the final count is stored), and
//!   the disjunct unions of a parse (only the parse result is pooled,
//!   under its text), since nothing reads those relations again.
//! * **Exactness.** The cache can only return a value that was computed
//!   by the very operation being memoized on structurally identical
//!   operands, so cached and uncached results are *bit-identical* — there
//!   is no approximation, rounding, or hash-collision risk anywhere.
//!   Property tests (`tests/fastpath.rs`) assert this end to end.
//! * **Bounding.** The tables are cleared wholesale when one exceeds
//!   `MAX_ENTRIES`; correctness never depends on a hit, so eviction is
//!   free to be coarse. An entry owns the handles of its operands and
//!   result, so a store that lands after a clear files a valid entry.
//! * **Counting.** Every lookup (hit or miss) and every closed-form
//!   counting dispatch bumps one root counter set, the process totals
//!   that [`stats`] and [`crate::fast_path_stats`] read, plus every
//!   [`CounterHandle`] attached to the calling thread. A handle is a
//!   scope below the root with the same counters. Only handles time cold
//!   computes, so an unattached lookup reads no clock.
//! * **Concurrency.** One global mutex guards the tables. The lock is
//!   held only for lookups, pooling and insertions, never while
//!   computing a missed operation or a fresh map's first hash, so
//!   parallel DSE threads serialize on microseconds, not on the
//!   Presburger math or a structural walk. Concurrent misses of the same
//!   key may compute the value twice; both compute the same value, so
//!   the second store changes nothing.
//!
//! Disable globally with [`set_enabled`] or the `TENET_ISL_CACHE=off`
//! environment variable (checked once, at first use).

use crate::map::Map;
use crate::{BasicMap, Result};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Entry cap: the whole table is cleared when exceeded.
const MAX_ENTRIES: usize = 1 << 17;

/// Which memoized operation produced a cache entry.
///
/// Only operations whose repeats outweigh the bytes of their pooled
/// operands are listed. [`Map::coalesce`] is not: its in-crate callers
/// are memoized themselves, so its lookups almost always missed. A
/// composite whose intermediate relations no caller reads is one kind
/// ([`OpKind::ReuseCard`]), so only its count is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum OpKind {
    /// [`Map::reverse`]
    Reverse,
    /// [`Map::apply_range`]
    ApplyRange,
    /// [`Map::intersect`]
    Intersect,
    /// [`Map::subtract`]
    Subtract,
    /// [`Map::project_out_in`] / [`Map::project_out_out`] (side in `extra`)
    Project,
    /// [`Map::union`]
    Union,
    /// [`Map::card`]
    Card,
    /// [`Map::is_empty`]
    Empty,
    /// [`crate::Set::max_suffix_slice_card`] (split position in `extra`)
    SliceMax,
    /// [`Map::reuse_card`]: `card(a ∩ b⁻¹ . a)`, the moves map `b` as the
    /// right operand
    ReuseCard,
}

/// A memoized result.
#[derive(Clone)]
pub(crate) enum CachedVal {
    Map(Map),
    Count(u128),
    Bool(bool),
}

/// A result type [`memo`] can store: a relation, a count or a truth
/// value. `from_cached` takes the value back out of an entry of its own
/// kind.
pub(crate) trait Memoized: Sized {
    fn into_cached(self) -> CachedVal;
    fn from_cached(v: CachedVal) -> Option<Self>;
}

impl Memoized for Map {
    fn into_cached(self) -> CachedVal {
        CachedVal::Map(self)
    }
    fn from_cached(v: CachedVal) -> Option<Map> {
        match v {
            CachedVal::Map(m) => Some(m),
            _ => None,
        }
    }
}

impl Memoized for u128 {
    fn into_cached(self) -> CachedVal {
        CachedVal::Count(self)
    }
    fn from_cached(v: CachedVal) -> Option<u128> {
        match v {
            CachedVal::Count(n) => Some(n),
            _ => None,
        }
    }
}

impl Memoized for bool {
    fn into_cached(self) -> CachedVal {
        CachedVal::Bool(self)
    }
    fn from_cached(v: CachedVal) -> Option<bool> {
        match v {
            CachedVal::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// A memo key: the operation, its pooled operands (the right one absent
/// for unary operations) and its packed extra operand.
type Key = (OpKind, Map, Option<Map>, i128);

#[derive(Default)]
struct Tables {
    /// Pooled maps: every memo operand, map-valued memo result and parse
    /// result, each held once. Callers hash a map (once per value)
    /// outside the global mutex, so the locked section only probes the
    /// set, and compares by pointer when the map is the pooled value.
    pool: HashSet<Map>,
    /// Memo: (op, pooled lhs, pooled rhs, extra) -> result.
    memo: HashMap<Key, CachedVal>,
    /// Parse memos: source text -> pooled parsed map, one table per
    /// entry point (`Map::parse` vs `Set::parse` — each accepts texts the
    /// other rejects, so a hit must never cross them; separate tables
    /// also allow allocation-free borrowed lookups). Parsing is
    /// deterministic, and the generated relation texts of the analysis
    /// layer (spacetime maps, windows) recur verbatim.
    parsed_map: HashMap<String, Map>,
    parsed_set: HashMap<String, Map>,
}

impl Tables {
    /// Drops every pooled map, memo entry and parse result.
    fn reset(&mut self) {
        self.memo.clear();
        self.pool.clear();
        self.parsed_map.clear();
        self.parsed_set.clear();
    }

    /// The pooled handle equal to `m`, filing `m` when no equal map is
    /// pooled yet. Caller has hashed `m` before taking the lock, so a
    /// fresh map's one structural walk runs outside it.
    fn pool(&mut self, m: &Map) -> Map {
        if let Some(pooled) = self.pool.get(m) {
            return pooled.clone();
        }
        self.pool.insert(m.clone());
        m.clone()
    }

    /// `key` and `val` with each relation in them replaced by its pooled
    /// handle, ready to be filed. A store pools its key again, not only
    /// at lookup, so an entry holds pooled handles even when a clear
    /// emptied the pool in between.
    fn pooled(&mut self, (op, a, b, extra): Key, val: CachedVal) -> (Key, CachedVal) {
        let key = (op, self.pool(&a), b.map(|b| self.pool(&b)), extra);
        let val = match val {
            CachedVal::Map(m) => CachedVal::Map(self.pool(&m)),
            v => v,
        };
        (key, val)
    }
}

struct Ctx {
    tables: Mutex<Tables>,
    enabled: AtomicBool,
}

thread_local! {
    /// Counter handles attached to the current thread (a stack: nested
    /// scopes may each attach their own handle).
    static ATTACHED: RefCell<Vec<CounterHandle>> = const { RefCell::new(Vec::new()) };
}

/// A counter scope below the root counter set: the same hit, miss and
/// fast-path counters, plus cold compute time, bumped only by work on
/// threads it is [attached] to.
///
/// Concurrent cache users (other exploration runs, server requests on
/// other workers) therefore never pollute its numbers — unlike deltas of
/// [`stats`], which read the process-wide root. Handles are cheap `Arc`
/// clones; attach the same handle on several threads (see
/// [`attached_handles`] for propagating into worker pools) to aggregate
/// one logical run that spans threads.
///
/// [attached]: CounterHandle::attach
#[derive(Clone, Default)]
pub struct CounterHandle {
    inner: Arc<CounterSet>,
}

/// One counter set: the root's process totals, or one handle's scope.
#[derive(Default)]
pub(crate) struct CounterSet {
    hits: AtomicU64,
    misses: AtomicU64,
    /// Wall nanoseconds spent inside *cold* (missed) memo computations on
    /// attached threads. Nested memoized ops only accrue at the outermost
    /// compute, so the total never exceeds wall time. Only handles time
    /// cold computes; the root's stays zero.
    cold_ns: AtomicU64,
    /// Closed-form fast-path dispatches (`count_fast` family) in this
    /// set's scope, per kind, indexed by [`crate::count::FastPathKind`]
    /// discriminant.
    fast_kinds: [AtomicU64; crate::count::FAST_PATH_KINDS],
}

impl CounterSet {
    /// Per-kind fast-path dispatch counts of this set.
    pub(crate) fn fast_path_stats(&self) -> crate::count::CountStats {
        let k = |i: crate::count::FastPathKind| self.fast_kinds[i as usize].load(Ordering::Relaxed);
        use crate::count::FastPathKind as K;
        crate::count::CountStats {
            window_counts: k(K::Window),
            box_counts: k(K::Box),
            slab_counts: k(K::Slab),
            multi_slab_counts: k(K::MultiSlab),
            pair_chain_counts: k(K::PairChain),
            coupled_slab_counts: k(K::CoupledSlab),
        }
    }
}

/// The root counter set: process totals since start, bumped beside every
/// attached handle.
pub(crate) static ROOT: CounterSet = CounterSet {
    hits: AtomicU64::new(0),
    misses: AtomicU64::new(0),
    cold_ns: AtomicU64::new(0),
    fast_kinds: [const { AtomicU64::new(0) }; crate::count::FAST_PATH_KINDS],
};

impl CounterHandle {
    /// A fresh handle with zeroed counters.
    pub fn new() -> CounterHandle {
        CounterHandle::default()
    }

    /// Attaches the handle to the current thread until the guard drops.
    ///
    /// Every memo lookup performed on this thread inside the guard's
    /// lifetime bumps the handle's counters (in addition to the root
    /// counter set and any other attached handles).
    pub fn attach(&self) -> AttachGuard {
        ATTACHED.with(|a| a.borrow_mut().push(self.clone()));
        AttachGuard {
            handle: self.clone(),
            _not_send: std::marker::PhantomData,
        }
    }

    /// Lookups answered from the memo on attached threads.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute on attached threads.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Hit fraction in `[0, 1]`; `0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Wall nanoseconds spent in cold (missed) memo computations on
    /// attached threads — the per-request "ISL cold time" the tracing
    /// layer splits out of a request's compute phase.
    pub fn cold_ns(&self) -> u64 {
        self.inner.cold_ns.load(Ordering::Relaxed)
    }

    /// Closed-form counting fast-path dispatches taken on attached
    /// threads (the per-request slice of [`crate::fast_path_stats`]).
    pub fn fast_paths(&self) -> u64 {
        self.inner
            .fast_kinds
            .iter()
            .map(|k| k.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-kind dispatch counts scoped to attached threads — the racing
    /// process-global [`crate::fast_path_stats`] sliced down to this
    /// handle, so dispatch assertions stay exact under test parallelism.
    pub fn fast_path_stats(&self) -> crate::count::CountStats {
        self.inner.fast_path_stats()
    }
}

/// Detaches a [`CounterHandle`] from the current thread on drop.
///
/// Deliberately `!Send`: the guard must drop on the thread that attached.
pub struct AttachGuard {
    handle: CounterHandle,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        ATTACHED.with(|a| {
            let mut v = a.borrow_mut();
            // Pop the most recent attachment of *this* handle (stack
            // discipline holds for scoped guards; search defensively).
            if let Some(pos) = v
                .iter()
                .rposition(|h| Arc::ptr_eq(&h.inner, &self.handle.inner))
            {
                v.remove(pos);
            }
        });
    }
}

/// The handles currently attached to this thread.
///
/// Worker-pool fan-out (e.g. `explore_parallel`) captures this on the
/// spawning thread and re-attaches each handle on its workers, so a
/// logical run keeps exact attribution across its own threads.
pub fn attached_handles() -> Vec<CounterHandle> {
    ATTACHED.with(|a| a.borrow().clone())
}

thread_local! {
    /// Nesting depth of [`timed_compute`] on this thread: cold time is
    /// accrued only at depth 0, so a missed op whose compute recursively
    /// misses nested memoized ops is not double-counted.
    static COLD_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Runs a missed operation's `compute`, or other integer-set work done
/// outside the memo, charging its wall time to every attached handle's
/// cold-time counter. Free (one thread-local check) when no handle is
/// attached.
pub(crate) fn timed_compute<T>(compute: impl FnOnce() -> Result<T>) -> Result<T> {
    if ATTACHED.with(|a| a.borrow().is_empty()) {
        return compute();
    }
    struct Depth;
    impl Drop for Depth {
        fn drop(&mut self) {
            COLD_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    let outermost = COLD_DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v == 0
    });
    let _depth = Depth;
    let t0 = outermost.then(Instant::now);
    let result = compute();
    if let Some(t0) = t0 {
        let ns = t0.elapsed().as_nanos() as u64;
        ATTACHED.with(|a| {
            for h in a.borrow().iter() {
                h.inner.cold_ns.fetch_add(ns, Ordering::Relaxed);
            }
        });
    }
    result
}

/// Bumps the counter `pick` selects in the root counter set and in every
/// handle attached to this thread.
fn bump(pick: impl Fn(&CounterSet) -> &AtomicU64) {
    pick(&ROOT).fetch_add(1, Ordering::Relaxed);
    ATTACHED.with(|a| {
        for h in a.borrow().iter() {
            pick(&h.inner).fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Counts one closed-form dispatch of `kind` in the counting layer.
pub(crate) fn note_fastpath(kind: crate::count::FastPathKind) {
    bump(|c| &c.fast_kinds[kind as usize]);
}

/// Counts one memo lookup as a hit or a miss.
fn record(hit: bool) {
    bump(|c| if hit { &c.hits } else { &c.misses });
}

fn ctx() -> &'static Ctx {
    static CTX: OnceLock<Ctx> = OnceLock::new();
    CTX.get_or_init(|| {
        let off = std::env::var("TENET_ISL_CACHE")
            .map(|v| v.eq_ignore_ascii_case("off") || v == "0")
            .unwrap_or(false);
        Ctx {
            tables: Mutex::new(Tables::default()),
            enabled: AtomicBool::new(!off),
        }
    })
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo table.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Distinct pooled relations: memo operands, map-valued memo results
    /// and parse results, each counted once.
    pub interned: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Current global cache counters (hits and misses from the root counter
/// set).
pub fn stats() -> CacheStats {
    let t = ctx().tables.lock().expect("isl cache poisoned");
    CacheStats {
        hits: ROOT.hits.load(Ordering::Relaxed),
        misses: ROOT.misses.load(Ordering::Relaxed),
        entries: t.memo.len() as u64,
        interned: t.pool.len() as u64,
    }
}

/// Clears all cached results and pooled relations (counters survive).
pub fn clear() {
    ctx().tables.lock().expect("isl cache poisoned").reset();
}

/// Globally enables or disables memoization (e.g. for A/B measurements).
pub fn set_enabled(on: bool) {
    ctx().enabled.store(on, Ordering::Relaxed);
}

/// Readies a fresh map result for the tables, outside the lock: drops its
/// spare capacity, since the tables may hold it for their whole life, and
/// computes its hash.
fn ready_to_share(mut m: Map) -> Map {
    m.shrink_to_fit();
    m.structural_hash();
    m
}

fn evict_if_full(t: &mut Tables) {
    if t.memo.len() > MAX_ENTRIES
        || t.pool.len() > MAX_ENTRIES
        || t.parsed_map.len() > MAX_ENTRIES
        || t.parsed_set.len() > MAX_ENTRIES
    {
        t.reset();
    }
}

/// Constraint rows, summed over the operands, below which [`admits`]
/// turns `union` and `reverse` away.
const ADMIT_MIN_ROWS: usize = 32;

/// The admission rule: whether `op` on these operands goes through the
/// memo. `union` and `reverse` do only when their operands hold at least
/// `ADMIT_MIN_ROWS` constraint rows: on smaller relations the operation
/// (a few vector pushes, a column swap) costs less than hashing and
/// pooling its operands, while on bulky ones the duplicate scan and
/// disjunct copies carry real weight. Every other operation is admitted.
fn admits(op: OpKind, a: &Map, b: Option<&Map>) -> bool {
    let rows = |m: &Map| -> usize { m.basics().iter().map(BasicMap::constraint_count).sum() };
    match op {
        OpKind::Union | OpKind::Reverse => rows(a) + b.map_or(0, rows) >= ADMIT_MIN_ROWS,
        _ => true,
    }
}

/// Memoizes parsing by source text. `compute` runs without the lock held.
pub(crate) fn memo_parse(
    as_set: bool,
    text: &str,
    compute: impl FnOnce() -> Result<Map>,
) -> Result<Map> {
    let c = ctx();
    if !c.enabled.load(Ordering::Relaxed) {
        return timed_compute(compute);
    }
    let hit = {
        let mut t = c.tables.lock().expect("isl cache poisoned");
        evict_if_full(&mut t);
        let table = if as_set { &t.parsed_set } else { &t.parsed_map };
        table.get(text).cloned()
    };
    record(hit.is_some());
    if let Some(m) = hit {
        return Ok(m);
    }
    let fresh = ready_to_share(timed_compute(compute)?);
    let mut t = c.tables.lock().expect("isl cache poisoned");
    let shared = t.pool(&fresh);
    let table = if as_set {
        &mut t.parsed_set
    } else {
        &mut t.parsed_map
    };
    table.insert(text.to_string(), shared.clone());
    Ok(shared)
}

/// Memoizes `op` on `a` (and `b`, for binary operations) with the packed
/// `extra` operand. `compute` runs without the lock held; an operation
/// that [`admits`] turns away runs it directly, uncounted and untimed.
/// A map result comes back as its pooled handle, so its later use as an
/// operand is the pooled value itself.
pub(crate) fn memo<T: Memoized>(
    op: OpKind,
    a: &Map,
    b: Option<&Map>,
    extra: i128,
    compute: impl FnOnce() -> Result<T>,
) -> Result<T> {
    if !admits(op, a, b) {
        return compute();
    }
    let c = ctx();
    if !c.enabled.load(Ordering::Relaxed) {
        return timed_compute(compute);
    }
    // Structural hashes are computed before taking the lock.
    a.structural_hash();
    if let Some(b) = b {
        b.structural_hash();
    }
    // Pooling a first-seen operand files its handle, so one short locked
    // section resolves the whole lookup.
    let (key, hit) = {
        let mut t = c.tables.lock().expect("isl cache poisoned");
        evict_if_full(&mut t);
        let key = (op, t.pool(a), b.map(|b| t.pool(b)), extra);
        let hit = t.memo.get(&key).cloned();
        (key, hit)
    };
    record(hit.is_some());
    if let Some(v) = hit.and_then(T::from_cached) {
        return Ok(v);
    }
    let fresh = match timed_compute(compute)?.into_cached() {
        CachedVal::Map(m) => CachedVal::Map(ready_to_share(m)),
        v => v,
    };
    let mut t = c.tables.lock().expect("isl cache poisoned");
    let (key, filed) = t.pooled(key, fresh);
    t.memo.insert(key, filed.clone());
    drop(t);
    Ok(T::from_cached(filed).expect("pooling keeps a value's kind"))
}

// ---------------------------------------------------------------------------
// Snapshot export / import
// ---------------------------------------------------------------------------

/// Stable wire name of an [`OpKind`]; the inverse of [`op_from_name`].
/// Snapshot files persist these strings, so renaming a variant must keep
/// its wire name (or bump the snapshot format version), and a variant
/// that is removed moves its name to [`RETIRED_OPS`].
fn op_name(op: OpKind) -> &'static str {
    match op {
        OpKind::Reverse => "reverse",
        OpKind::ApplyRange => "apply_range",
        OpKind::Intersect => "intersect",
        OpKind::Subtract => "subtract",
        OpKind::Project => "project",
        OpKind::Union => "union",
        OpKind::Card => "card",
        OpKind::Empty => "empty",
        OpKind::SliceMax => "slice_max",
        OpKind::ReuseCard => "reuse_card",
    }
}

/// Wire names of operations that are no longer memoized. Snapshots
/// written before an operation retired still carry its rows; [`import`]
/// drops them without counting them as skipped, since an old file is not
/// damaged by holding them.
const RETIRED_OPS: [&str; 4] = ["coalesce", "intersect_domain", "intersect_range", "fix"];

fn op_from_name(name: &str) -> Option<OpKind> {
    Some(match name {
        "reverse" => OpKind::Reverse,
        "apply_range" => OpKind::ApplyRange,
        "intersect" => OpKind::Intersect,
        "subtract" => OpKind::Subtract,
        "project" => OpKind::Project,
        "union" => OpKind::Union,
        "card" => OpKind::Card,
        "empty" => OpKind::Empty,
        "slice_max" => OpKind::SliceMax,
        "reuse_card" => OpKind::ReuseCard,
        _ => return None,
    })
}

/// Whether `m` Display-prints in set notation (no `->` arrow), which
/// decides the parser entry point on restore (`Set::parse` accepts texts
/// `Map::parse` rejects and vice versa).
fn set_shaped(m: &Map) -> bool {
    m.n_in() == 0 && m.space().input.name.is_none()
}

/// A relation in portable text form: the canonical `fmt` notation plus
/// which parser entry point reconstructs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelExport {
    /// Canonical text (`Display` output, accepted by the parser).
    pub text: String,
    /// `true` when the text is set notation (restore via `Set::parse`).
    pub set: bool,
}

/// A memoized result in portable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValExport {
    /// A map-valued result, as canonical text.
    Map(RelExport),
    /// A count-valued result.
    Count(u128),
    /// A boolean-valued result.
    Bool(bool),
}

/// One memo entry in portable form: operand *texts*, not handles —
/// restore is re-parse + re-pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoExport {
    /// Stable operation name (see `op_name`).
    pub op: String,
    /// Left operand.
    pub lhs: RelExport,
    /// Right operand, absent for unary operations.
    pub rhs: Option<RelExport>,
    /// The packed extra operand (projection side and dims, slice-max split, …).
    pub extra: i128,
    /// The memoized result.
    pub value: ValExport,
}

/// A portable, self-contained image of the memo context.
///
/// Produced by [`export`] under a single lock acquisition, so the image
/// is always a consistent point-in-time view — a concurrent wholesale
/// clear (cap overflow or [`clear`]) lands entirely before or entirely
/// after it, never in the middle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheExport {
    /// Source texts memoized by `Map::parse`.
    pub parsed_map: Vec<String>,
    /// Source texts memoized by `Set::parse`.
    pub parsed_set: Vec<String>,
    /// Memoized operation entries.
    pub memo: Vec<MemoExport>,
}

/// Outcome counts of [`import`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Parse-table texts restored.
    pub parsed: u64,
    /// Memo entries restored.
    pub memo: u64,
    /// Entries dropped (unknown op name, unparseable text, a value of the
    /// wrong kind for its operation, table full).
    /// Rows of a retired operation (see `RETIRED_OPS`) are dropped
    /// without being counted here or in `memo`.
    pub skipped: u64,
}

/// Exports the memo context as re-parseable text.
///
/// The whole walk happens under one acquisition of the table mutex, so
/// the result is a consistent snapshot even while other threads insert
/// or clear concurrently. Entries involving an *empty* relation with a
/// non-set space are skipped: their printed form loses the input tuple,
/// so they cannot round-trip.
pub fn export() -> CacheExport {
    let c = ctx();
    let t = c.tables.lock().expect("isl cache poisoned");
    let rel = |m: &Map| -> Option<RelExport> {
        let set = set_shaped(m);
        if m.basics().is_empty() && !set {
            return None; // printed form would drop the input tuple
        }
        Some(RelExport {
            text: m.to_string(),
            set,
        })
    };
    let entry = |((op, a, b, extra), val): (&Key, &CachedVal)| {
        Some(MemoExport {
            op: op_name(*op).to_string(),
            lhs: rel(a)?,
            rhs: match b {
                Some(b) => Some(rel(b)?),
                None => None,
            },
            extra: *extra,
            value: match val {
                CachedVal::Map(m) => ValExport::Map(rel(m)?),
                CachedVal::Count(n) => ValExport::Count(*n),
                CachedVal::Bool(b) => ValExport::Bool(*b),
            },
        })
    };
    CacheExport {
        parsed_map: t.parsed_map.keys().cloned().collect(),
        parsed_set: t.parsed_set.keys().cloned().collect(),
        memo: t.memo.iter().filter_map(entry).collect(),
    }
}

/// Re-parses `r` with the parser entry point it was exported for. Goes
/// through the public parse paths, so the parse memo warms as a side
/// effect.
fn reparse(r: &RelExport) -> Option<Map> {
    if r.set {
        crate::Set::parse(&r.text).ok().map(crate::Set::into_map)
    } else {
        Map::parse(&r.text).ok()
    }
}

/// Imports a previously [`export`]ed image: re-parse every text and
/// re-pool it, map-valued results included. Unknown ops, unparseable
/// texts and values of the wrong kind for their operation are skipped
/// (counted), never fatal — the memo is an accelerator, not a source of
/// truth. Rows of retired operations are dropped uncounted. No-op when
/// the cache is disabled.
pub fn import(snap: &CacheExport) -> ImportReport {
    let c = ctx();
    let mut report = ImportReport::default();
    if !c.enabled.load(Ordering::Relaxed) {
        return report;
    }
    for text in snap.parsed_map.iter() {
        match Map::parse(text) {
            Ok(_) => report.parsed += 1,
            Err(_) => report.skipped += 1,
        }
    }
    for text in snap.parsed_set.iter() {
        match crate::Set::parse(text) {
            Ok(_) => report.parsed += 1,
            Err(_) => report.skipped += 1,
        }
    }
    // Parse all memo operands/values outside the lock, deduplicating
    // repeated texts, then pool + insert in one locked pass.
    let mut parsed: HashMap<(String, bool), Option<Map>> = HashMap::new();
    let mut resolve = |r: &RelExport| -> Option<Map> {
        parsed
            .entry((r.text.clone(), r.set))
            .or_insert_with(|| reparse(r))
            .clone()
    };
    let mut ready: Vec<(Key, CachedVal)> = Vec::new();
    for e in snap.memo.iter() {
        if RETIRED_OPS.contains(&e.op.as_str()) {
            continue;
        }
        let prepared = op_from_name(&e.op).and_then(|op| {
            let lhs = resolve(&e.lhs)?;
            let rhs = match &e.rhs {
                Some(r) => Some(resolve(r)?),
                None => None,
            };
            // A row must hold the kind of value its operation returns: a
            // mismatch would count as a hit and then be recomputed.
            use OpKind::{Card, Empty, ReuseCard, SliceMax};
            let val = match (op, &e.value) {
                (Card | SliceMax | ReuseCard, ValExport::Count(n)) => CachedVal::Count(*n),
                (Empty, ValExport::Bool(b)) => CachedVal::Bool(*b),
                (Card | SliceMax | ReuseCard | Empty, _) => return None,
                (_, ValExport::Map(r)) => CachedVal::Map(resolve(r)?),
                (_, ValExport::Count(_) | ValExport::Bool(_)) => return None,
            };
            Some(((op, lhs, rhs, e.extra), val))
        });
        match prepared {
            Some(p) => ready.push(p),
            None => report.skipped += 1,
        }
    }
    let mut t = c.tables.lock().expect("isl cache poisoned");
    for (key, val) in ready {
        if t.memo.len() >= MAX_ENTRIES || t.pool.len() >= MAX_ENTRIES {
            report.skipped += 1;
            continue;
        }
        let (key, val) = t.pooled(key, val);
        t.memo.entry(key).or_insert(val);
        report.memo += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global enabled flag. The guard of
    /// a poisoned lock is taken as it is, so a failing test does not fail
    /// every later one.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The pooled handle equal to `m`.
    fn pooled<'t>(t: &'t Tables, m: &Map) -> &'t Map {
        t.pool.get(m).expect("pooled")
    }

    /// The memo entry (key as filed, value) of a unary `op` on `m`.
    fn entry<'t>(t: &'t Tables, op: OpKind, m: &Map) -> (&'t Key, &'t CachedVal) {
        t.memo
            .get_key_value(&(op, m.clone(), None, 0))
            .expect("memoized")
    }

    #[test]
    fn card_is_memoized_and_identical() {
        let _guard = test_lock();
        let m = Map::parse("{ S[i, j] -> PE[i] : 0 <= i < 9 and 0 <= j < 7 }").unwrap();
        set_enabled(true);
        clear();
        let handle = CounterHandle::new();
        let _attached = handle.attach();
        let a = m.card().unwrap();
        assert_eq!(
            (handle.misses(), handle.hits()),
            (1, 0),
            "first call misses"
        );
        let b = m.card().unwrap();
        assert_eq!((handle.misses(), handle.hits()), (1, 1), "second call hits");
        assert_eq!(a, b);
        assert_eq!(a, 63);
    }

    #[test]
    fn disabled_cache_bypasses() {
        let _guard = test_lock();
        let m = Map::parse("{ S[i] -> T[i] : 0 <= i < 5 }").unwrap();
        set_enabled(false);
        clear();
        let handle = CounterHandle::new();
        {
            let _attached = handle.attach();
            let _ = m.card().unwrap();
            let _ = m.card().unwrap();
        }
        set_enabled(true);
        assert_eq!(
            (handle.misses(), handle.hits()),
            (0, 0),
            "disabled cache must not count"
        );
    }

    #[test]
    fn counter_handle_ignores_other_threads() {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        let handle = CounterHandle::new();
        // A polluter thread hammers the cache with its own relations the
        // whole time; none of its lookups may land on our handle.
        let stop = Arc::new(AtomicBool::new(false));
        let polluter = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let m = Map::parse("{ P[x] -> Q[x] : 0 <= x < 11 }").unwrap();
                while !stop.load(Ordering::Relaxed) {
                    let _ = m.card();
                }
            })
        };
        let m = Map::parse("{ S[i, j] -> PE[j] : 0 <= i < 4 and 0 <= j < 5 }").unwrap();
        let (cache0, fast0) = (stats(), crate::fast_path_stats());
        {
            let _attached = handle.attach();
            for _ in 0..10 {
                assert_eq!(m.card().unwrap(), 20);
            }
        }
        let (cache1, fast1) = (stats(), crate::fast_path_stats());
        stop.store(true, Ordering::Relaxed);
        polluter.join().unwrap();
        // Exactly 10 attributed card lookups: 1 miss then 9 hits.
        assert_eq!(handle.hits() + handle.misses(), 10, "exact attribution");
        assert_eq!(handle.misses(), 1);
        assert_eq!(handle.hits(), 9);
        // The root counter set sees everything the handle saw in the
        // window (and the polluter's lookups besides).
        assert!(
            cache1.hits - cache0.hits >= handle.hits(),
            "{cache0:?} -> {cache1:?}"
        );
        assert!(
            cache1.misses - cache0.misses >= handle.misses(),
            "{cache0:?} -> {cache1:?}"
        );
        assert!(
            handle.fast_paths() > 0,
            "the miss must dispatch a closed form"
        );
        let kinds = |s: crate::CountStats| {
            [
                s.window_counts,
                s.box_counts,
                s.slab_counts,
                s.multi_slab_counts,
                s.pair_chain_counts,
                s.coupled_slab_counts,
            ]
        };
        let scoped = kinds(handle.fast_path_stats());
        for (i, (before, after)) in kinds(fast0).into_iter().zip(kinds(fast1)).enumerate() {
            assert!(
                after - before >= scoped[i],
                "fast-path kind {i}: root {before} -> {after}, handle {}",
                scoped[i]
            );
        }
        // Detached now: further lookups must not move the handle.
        let _ = m.card().unwrap();
        assert_eq!(handle.hits() + handle.misses(), 10);
    }

    #[test]
    fn attached_handles_snapshot_propagates() {
        let _guard = test_lock();
        set_enabled(true);
        let h = CounterHandle::new();
        let _a = h.attach();
        let snapshot = attached_handles();
        assert_eq!(snapshot.len(), 1);
        // Re-attaching the snapshot on another thread funnels that
        // thread's lookups into the same handle.
        std::thread::scope(|s| {
            s.spawn(move || {
                let _guards: Vec<_> = snapshot.iter().map(|h| h.attach()).collect();
                let m = Map::parse("{ W[x] -> V[x] : 0 <= x < 7 }").unwrap();
                let _ = m.card().unwrap();
            });
        });
        assert!(h.hits() + h.misses() >= 1, "worker lookups must count");
    }

    #[test]
    fn export_import_round_trip_restores_hits() {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        let m_text = "{ S[i, j] -> PE[i] : 0 <= i < 9 and 0 <= j < 7 }";
        let s_text = "{ P[x, y] : 0 <= x < 5 and 0 <= y < 3 }";
        let moves_text = "{ S[i, j] -> S[i, j + 1] }";
        let m = Map::parse(m_text).unwrap();
        let s = crate::Set::parse(s_text).unwrap();
        assert_eq!(m.card().unwrap(), 63);
        assert!(!s.as_map().is_empty().unwrap());
        assert_eq!(m.reuse_card(&Map::parse(moves_text).unwrap()).unwrap(), 54);
        let snap = export();
        assert!(
            snap.parsed_map.len() == 2 && snap.parsed_set.len() == 1,
            "both parse tables exported: {snap:?}"
        );
        let ops: Vec<&str> = snap.memo.iter().map(|e| e.op.as_str()).collect();
        for op in ["card", "empty", "reuse_card"] {
            assert!(ops.contains(&op), "{op} memoized: {snap:?}");
        }
        clear();
        let report = import(&snap);
        assert_eq!(report.skipped, 0, "round-trip must not drop entries");
        assert_eq!(report.memo as usize, snap.memo.len());
        // Replaying the same source texts and operations must hit: parse
        // is deterministic, so re-parsed operands are structurally
        // identical to the re-pooled snapshot operands.
        let handle = CounterHandle::new();
        {
            let _attached = handle.attach();
            let m2 = Map::parse(m_text).unwrap();
            assert_eq!(m2.card().unwrap(), 63);
            let s2 = crate::Set::parse(s_text).unwrap();
            assert!(!s2.as_map().is_empty().unwrap());
            let moves2 = Map::parse(moves_text).unwrap();
            assert_eq!(m2.reuse_card(&moves2).unwrap(), 54);
        }
        assert_eq!(handle.misses(), 0, "replay after restore must be all-warm");
        assert_eq!(handle.hits(), 6, "parse x3 + card + empty + reuse_card");
    }

    #[test]
    fn export_is_consistent_under_concurrent_clears() {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        // Writers keep repopulating while a clearer wipes the tables
        // wholesale; every export must be a coherent point-in-time view
        // (importing it into a cleared context drops nothing).
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let m = Map::parse("{ W[i, j] -> PE[j] : 0 <= i < 6 and 0 <= j < 4 }").unwrap();
                while !stop.load(Ordering::Relaxed) {
                    let _ = m.card();
                    let _ = m.is_empty();
                }
            })
        };
        let clearer = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    clear();
                    std::thread::yield_now();
                }
            })
        };
        for _ in 0..200 {
            let snap = export();
            clear();
            let report = import(&snap);
            assert_eq!(
                report.skipped, 0,
                "a consistent export imports without drops: {snap:?}"
            );
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        clearer.join().unwrap();
    }

    #[test]
    fn import_rejects_unknown_ops_without_failing() {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        let snap = CacheExport {
            parsed_map: vec!["{ A[i] -> B[i] : 0 <= i < 3 }".into(), "not a map".into()],
            parsed_set: Vec::new(),
            memo: vec![MemoExport {
                op: "warp_speed".into(),
                lhs: RelExport {
                    text: "{ A[i] -> B[i] : 0 <= i < 3 }".into(),
                    set: false,
                },
                rhs: None,
                extra: 0,
                value: ValExport::Count(3),
            }],
        };
        let report = import(&snap);
        assert_eq!(report.parsed, 1);
        assert_eq!(report.skipped, 2, "bad text + unknown op: {report:?}");
        assert_eq!(report.memo, 0);
    }

    #[test]
    fn import_skips_a_value_of_the_wrong_kind() {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        let text = "{ M[i] : 0 <= i < 23 }";
        let snap = CacheExport {
            parsed_map: Vec::new(),
            parsed_set: Vec::new(),
            memo: vec![MemoExport {
                op: "card".into(),
                lhs: RelExport {
                    text: text.into(),
                    set: true,
                },
                rhs: None,
                extra: 0,
                value: ValExport::Bool(true),
            }],
        };
        let report = import(&snap);
        assert_eq!(
            (report.parsed, report.memo, report.skipped),
            (0, 0, 1),
            "a card row holding a bool is skipped: {report:?}"
        );
        let s = crate::Set::parse(text).unwrap();
        let handle = CounterHandle::new();
        {
            let _attached = handle.attach();
            assert_eq!(s.card().unwrap(), 23);
        }
        assert_eq!(
            (handle.hits(), handle.misses()),
            (0, 1),
            "the skipped row is no hit"
        );
    }

    #[test]
    fn memoized_results_share_the_pooled_handle() {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        let text = "{ X[i] -> Y[i + 1] : 0 <= i < 13 }";
        let a = Map::parse(text).unwrap();
        let b = Map::parse("{ Y[j] -> Z[j, 2j] : 0 <= j < 20 }").unwrap();
        let r = a.apply_range(&b).unwrap();
        assert_eq!(r.card().unwrap(), 13);
        {
            let t = ctx().tables.lock().unwrap();
            let key = (OpKind::ApplyRange, a.clone(), Some(b.clone()), 0);
            let Some(CachedVal::Map(memoized)) = t.memo.get(&key) else {
                panic!("apply_range result memoized");
            };
            let shared = pooled(&t, &r);
            assert!(
                Map::same_value(memoized, shared),
                "the memo value and the pool entry are one allocation"
            );
            assert!(
                Map::same_value(memoized, &r),
                "the computing call returns the stored allocation"
            );
            let ((_, operand, ..), _) = entry(&t, OpKind::Card, &r);
            assert!(
                Map::same_value(operand, shared),
                "card is keyed by the pooled handle"
            );
            assert!(
                Map::same_value(&t.parsed_map[text], &a),
                "a parse returns the parse table's allocation"
            );
        }
        assert!(
            Map::same_value(&a.apply_range(&b).unwrap(), &r),
            "a memo hit returns the stored allocation, not an equal copy"
        );
        assert!(
            Map::same_value(&Map::parse(text).unwrap(), &a),
            "a parse hit returns the stored allocation, not an equal copy"
        );
    }

    #[test]
    fn equal_maps_hash_equal_and_pool_once() {
        let _guard = test_lock();
        let text = "{ P[i] -> Q[j] : 0 <= i < 4 and 0 <= j < 3 or 4 <= i < 9 and 0 <= j < 3 }";
        // With the memo off, each parse builds its own value.
        set_enabled(false);
        let (x, y) = (Map::parse(text).unwrap(), Map::parse(text).unwrap());
        set_enabled(true);
        clear();
        // Equal to `x` as a parse, as an op result built from owned
        // parts, and as an edit of a hashed, shared value.
        let direct = Map::parse("{ P[i] -> Q[j] : 0 <= i < 9 and 0 <= j < 3 }").unwrap();
        let merged = Map::parse(text).unwrap().coalesce();
        let rebuilt = x.reverse().reverse();
        // One constant apart from `direct`.
        let other = Map::parse("{ P[i] -> Q[j] : 0 <= i < 10 and 0 <= j < 3 }").unwrap();
        assert!(!Map::same_value(&x, &y), "two values, built separately");
        assert_eq!(x, y);
        assert_eq!(x, rebuilt);
        assert_eq!(direct, merged);
        let h = |m: &Map| {
            use std::hash::{Hash, Hasher};
            let mut s = std::collections::hash_map::DefaultHasher::new();
            m.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&x), h(&y));
        assert_eq!(h(&x), h(&rebuilt));
        assert_eq!(h(&direct), h(&merged));
        assert_ne!(direct, other);
        assert_ne!(h(&direct), h(&other));
        let handle = CounterHandle::new();
        {
            let _attached = handle.attach();
            assert_eq!(x.card().unwrap(), 27);
            assert_eq!(y.card().unwrap(), 27);
            assert_eq!(rebuilt.card().unwrap(), 27);
            assert_eq!(direct.card().unwrap(), 27);
            assert_eq!(merged.card().unwrap(), 27);
            assert_eq!(other.card().unwrap(), 30);
        }
        assert_eq!(
            (handle.misses(), handle.hits()),
            (3, 3),
            "equal maps share one card entry; the one-constant change misses"
        );
        let t = ctx().tables.lock().unwrap();
        // Each card entry is keyed by the one pooled handle of its class.
        let key = |m: &Map| &entry(&t, OpKind::Card, m).0 .1;
        for (m, class) in [(&x, &x), (&y, &x), (&rebuilt, &x), (&merged, &direct)] {
            assert!(Map::same_value(key(m), pooled(&t, class)));
        }
        assert!(!Map::same_value(pooled(&t, &direct), pooled(&t, &other)));
    }

    #[test]
    fn shared_results_hold_no_spare_capacity() {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        // Three pieces that do not merge: the parse builds them by pushes
        // (rows into each disjunct, disjuncts through unions).
        let text = "{ A[i, j] -> B[i + j, j] : 0 <= i < 3 and 0 <= j < 4 and i mod 2 = 0; \
                    A[i, j] -> B[i + j, j] : 10 <= i < 13 and 0 <= j < 4; \
                    A[i, j] -> B[i + j, j] : 20 <= i < 25 and 0 <= j < i - 18 }";
        let a = Map::parse(text).unwrap();
        let b = Map::parse("{ B[p, q] -> C[p - q, 2q, q mod 3] : 0 <= q < 4 }").unwrap();
        let r = a.apply_range(&b).unwrap();
        assert_eq!(r.basics().len(), 3);
        let t = ctx().tables.lock().unwrap();
        let key = (OpKind::ApplyRange, a.clone(), Some(b.clone()), 0);
        let Some(CachedVal::Map(composed)) = t.memo.get(&key) else {
            panic!("apply_range result memoized");
        };
        for (what, m) in [("parse", &t.parsed_map[text]), ("apply_range", composed)] {
            for (vector, len, capacity) in m.vector_sizes() {
                assert_eq!(len, capacity, "{what}: spare capacity in {vector}");
            }
        }
    }

    #[test]
    fn coalesce_makes_no_memo_round_trip() {
        let _guard = test_lock();
        set_enabled(true);
        let m = Map::parse("{ C[i] -> D[i] : 0 <= i < 4 or 4 <= i < 9 }").unwrap();
        assert_eq!(m.basics().len(), 2, "two disjuncts to merge");
        let handle = CounterHandle::new();
        let merged = {
            let _attached = handle.attach();
            m.coalesce()
        };
        assert_eq!(merged.basics().len(), 1, "adjacent intervals merge");
        assert_eq!((handle.hits(), handle.misses()), (0, 0));
    }

    #[test]
    fn import_drops_retired_rows_uncounted() {
        let _guard = test_lock();
        set_enabled(true);
        let text = "{ K[i] -> L[i] : 0 <= i < 4 or 4 <= i < 9 }";
        let rel = |text: &str, set: bool| RelExport {
            text: text.into(),
            set,
        };
        for op in RETIRED_OPS {
            clear();
            // The retired intersections took a set operand; `coalesce` and
            // `fix` none.
            let rhs =
                (!matches!(op, "coalesce" | "fix")).then(|| rel("{ [i] : 0 <= i < 9 }", true));
            let snap = CacheExport {
                parsed_map: Vec::new(),
                parsed_set: Vec::new(),
                memo: vec![MemoExport {
                    op: op.into(),
                    lhs: rel(text, false),
                    rhs,
                    extra: 0,
                    value: ValExport::Map(rel("{ K[i] -> L[i] : 0 <= i < 9 }", false)),
                }],
            };
            let report = import(&snap);
            assert_eq!(
                report.skipped, 0,
                "{op}: a retired row is not a skip: {report:?}"
            );
            assert_eq!(
                report.memo, 0,
                "{op}: a retired row is not restored: {report:?}"
            );
            let lhs = Map::parse(text).unwrap();
            let t = ctx().tables.lock().unwrap();
            let keyed = t.memo.keys().any(|k| k.1 == lhs);
            assert!(
                !keyed,
                "{op}: no memo entry is keyed by the retired row's operand"
            );
        }
    }

    #[test]
    fn a_store_after_a_clear_in_its_compute_is_kept() {
        let _guard = test_lock();
        set_enabled(true);
        let m = Map::parse("{ G[i] -> H[i] : 0 <= i < 17 }").unwrap();
        // An extra operand no real operation uses, so no other test's card
        // lookup reaches this entry.
        let key_extra = -7;
        let handle = CounterHandle::new();
        let _attached = handle.attach();
        let first = memo(OpKind::Card, &m, None, key_extra, || {
            clear();
            Ok(17u128)
        });
        let second = memo(OpKind::Card, &m, None, key_extra, || Ok(0u128));
        assert_eq!((first.unwrap(), second.unwrap()), (17, 17));
        assert_eq!(
            (handle.misses(), handle.hits()),
            (1, 1),
            "the store that followed the clear is hit"
        );
        let t = ctx().tables.lock().unwrap();
        let ((_, operand, ..), _) = t
            .memo
            .get_key_value(&(OpKind::Card, m.clone(), None, key_extra))
            .expect("kept");
        assert!(
            Map::same_value(operand, pooled(&t, &m)),
            "the entry is keyed by the re-pooled handle"
        );
    }

    #[test]
    fn distinct_maps_do_not_collide() {
        let _guard = test_lock();
        set_enabled(true);
        let a = Map::parse("{ S[i] -> T[i] : 0 <= i < 5 }").unwrap();
        let b = Map::parse("{ S[i] -> T[i] : 0 <= i < 6 }").unwrap();
        assert_eq!(a.card().unwrap(), 5);
        assert_eq!(b.card().unwrap(), 6);
        assert_eq!(a.card().unwrap(), 5);
    }
}
