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
//! * **Interning.** Every [`Map`] that participates in a memoized
//!   operation is interned: the map is the key of a hash table mapping to
//!   a small integer id. Interning makes the memo keys compact (`(op, id,
//!   id, extra)`) and — because the table compares keys with full
//!   structural equality, never by hash alone — collision-proof. A `Map`
//!   is a reference-counted handle carrying its structural hash, computed
//!   once per value, so interning a first-seen map files its handle (a
//!   count bump, no copy), and a lookup whose operand is the interned
//!   value itself finds it by pointer, with no structural walk.
//!   Operands, map-valued results and parse results all go through the
//!   one intern table, so each map the memo holds is held once: a result
//!   that later comes back as an operand is the interned value.
//! * **Memoization.** Results are stored under `(op kind, interned
//!   operand ids, extra operand)`; a map-valued result is stored as its
//!   intern entry's handle. A hit returns the stored handle, not a copy,
//!   and a fresh map result or parse result drops its spare capacity
//!   before it is shared, since it will be held for the table's life.
//! * **Exactness.** The cache can only return a value that was computed
//!   by the very operation being memoized on structurally identical
//!   operands, so cached and uncached results are *bit-identical* — there
//!   is no approximation, rounding, or hash-collision risk anywhere.
//!   Property tests (`tests/fastpath.rs`) assert this end to end.
//! * **Bounding.** The table is cleared wholesale when it exceeds
//!   `MAX_ENTRIES`; correctness never depends on a hit, so eviction is
//!   free to be coarse.
//! * **Counting.** Every lookup (hit or miss) and every closed-form
//!   counting dispatch bumps one root counter set, the process totals
//!   that [`stats`] and [`crate::fast_path_stats`] read, plus every
//!   [`CounterHandle`] attached to the calling thread. A handle is a
//!   scope below the root with the same counters. Only handles time cold
//!   computes, so an unattached lookup reads no clock.
//! * **Concurrency.** One global mutex guards the tables. The lock is
//!   held only for lookups, interning and insertions, never while
//!   computing a missed operation or a fresh map's first hash, so
//!   parallel DSE threads serialize on microseconds, not on the
//!   Presburger math or a structural walk. Concurrent misses of the same
//!   key may compute the value twice; both compute the same value, and
//!   the second insert is a no-op.
//!
//! Disable globally with [`set_enabled`] or the `TENET_ISL_CACHE=off`
//! environment variable (checked once, at first use).

use crate::map::Map;
use crate::Result;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Entry cap: the whole table is cleared when exceeded.
const MAX_ENTRIES: usize = 1 << 17;

/// Which memoized operation produced a cache entry.
///
/// Only operations whose repeats outweigh the bytes of their interned
/// operands are listed. [`Map::coalesce`] is not: its in-crate callers
/// are memoized themselves, so its lookups almost always missed.
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
    /// [`Map::intersect_domain`]
    IntersectDomain,
    /// [`Map::intersect_range`]
    IntersectRange,
    /// [`Map::card`]
    Card,
    /// [`Map::is_empty`]
    Empty,
    /// [`Map::fix_in`] / [`Map::fix_out`] (column and value in `extra`)
    Fix,
    /// [`crate::Set::max_suffix_slice_card`] (split position in `extra`)
    SliceMax,
}

#[derive(Clone)]
enum CachedVal {
    Map(Map),
    Count(u128),
    Bool(bool),
}

#[derive(Default)]
struct Tables {
    /// Interned maps, bucketed by their structural hash, which callers
    /// compute (once per value) outside the global mutex, so the locked
    /// section only does bucket lookups and equality checks, by pointer
    /// when the operand is the interned value. Buckets hold every interned
    /// map with that hash; equality disambiguates, so collisions stay
    /// safe. Memo values and parse results are handles on these values.
    ids: HashMap<u64, Vec<(Map, u64)>>,
    /// Count of interned maps across all buckets.
    n_interned: usize,
    next_id: u64,
    /// Memo: (op, lhs id, rhs id or MAX, extra) -> result.
    memo: HashMap<(OpKind, u64, u64, i128), CachedVal>,
    /// Parse memos: source text -> interned parsed map, one table per
    /// entry point (`Map::parse` vs `Set::parse` — each accepts texts the
    /// other rejects, so a hit must never cross them; separate tables
    /// also allow allocation-free borrowed lookups). Parsing is
    /// deterministic, and the generated relation texts of the analysis
    /// layer (spacetime maps, windows) recur verbatim.
    parsed_map: HashMap<String, Map>,
    parsed_set: HashMap<String, Map>,
    /// Bumped whenever the tables are cleared. Stores capture the
    /// generation at lookup time and are dropped if eviction intervened,
    /// so a result can never be filed under a reused intern id.
    generation: u64,
}

impl Tables {
    /// Drops every interned map, memo entry and parse result, and bumps
    /// the generation so in-flight stores are discarded.
    fn reset(&mut self) {
        self.memo.clear();
        self.ids.clear();
        self.n_interned = 0;
        self.parsed_map.clear();
        self.parsed_set.clear();
        self.next_id = 0;
        self.generation += 1;
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

/// Runs a missed operation's `compute`, charging its wall time to every
/// attached handle's cold-time counter. Free (one thread-local check)
/// when no handle is attached.
fn timed_compute<T>(compute: impl FnOnce() -> Result<T>) -> Result<T> {
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
    /// Distinct interned relations: memo operands, map-valued memo
    /// results and parse results, each counted once.
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
        interned: t.n_interned as u64,
    }
}

/// Clears all cached results and interned relations (counters survive).
pub fn clear() {
    ctx().tables.lock().expect("isl cache poisoned").reset();
}

/// Resets the root hit/miss counters (entries and fast-path counts
/// survive).
pub fn reset_stats() {
    ROOT.hits.store(0, Ordering::Relaxed);
    ROOT.misses.store(0, Ordering::Relaxed);
}

/// Globally enables or disables memoization (e.g. for A/B measurements).
pub fn set_enabled(on: bool) {
    ctx().enabled.store(on, Ordering::Relaxed);
}

/// Whether memoization is currently enabled.
pub fn enabled() -> bool {
    ctx().enabled.load(Ordering::Relaxed)
}

/// Resolves `m` to its intern entry (shared handle and id), filing a
/// handle on it under a fresh id when no equal map is interned yet (if
/// one is, that entry wins). Caller holds the lock and has hashed `m`
/// before taking it, so a fresh map's one structural walk runs outside
/// the lock and this reads the hash the handle caches.
fn intern<'t>(t: &'t mut Tables, m: &Map) -> &'t (Map, u64) {
    let bucket = t.ids.entry(m.structural_hash()).or_default();
    match bucket.iter().position(|(k, _)| k == m) {
        Some(i) => &bucket[i],
        None => {
            bucket.push((m.clone(), t.next_id));
            t.next_id += 1;
            t.n_interned += 1;
            &bucket[bucket.len() - 1]
        }
    }
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
        || t.n_interned > MAX_ENTRIES
        || t.parsed_map.len() > MAX_ENTRIES
        || t.parsed_set.len() > MAX_ENTRIES
    {
        t.reset();
    }
}

const NO_RHS: u64 = u64::MAX;

/// A pending store slot: the interned operand ids plus the table
/// generation they belong to.
struct Slot {
    ia: u64,
    ib: u64,
    generation: u64,
    hit: Option<CachedVal>,
}

fn lookup(op: OpKind, a: &Map, b: Option<&Map>, extra: i128) -> Option<Slot> {
    let c = ctx();
    if !c.enabled.load(Ordering::Relaxed) {
        return None;
    }
    // Structural hashes are computed before taking the lock.
    a.structural_hash();
    if let Some(b) = b {
        b.structural_hash();
    }
    // Interning a first-seen operand files its handle, so one short
    // locked section resolves the whole lookup.
    let mut t = c.tables.lock().expect("isl cache poisoned");
    evict_if_full(&mut t);
    let ia = intern(&mut t, a).1;
    let ib = b.map_or(NO_RHS, |b| intern(&mut t, b).1);
    let hit = t.memo.get(&(op, ia, ib, extra)).cloned();
    let generation = t.generation;
    drop(t);
    record(hit.is_some());
    Some(Slot {
        ia,
        ib,
        generation,
        hit,
    })
}

/// Files `val` under the slot's key and returns the value as filed: a
/// map value (readied by [`ready_to_share`]) is filed as its intern
/// entry, whose handle comes back, so its later use as an operand is the
/// interned value itself.
fn store(op: OpKind, slot: &Slot, extra: i128, val: CachedVal) -> CachedVal {
    let c = ctx();
    let mut t = c.tables.lock().expect("isl cache poisoned");
    // An eviction between lookup and store invalidates the captured ids
    // (they may have been reassigned to different relations — note that
    // `compute` itself can trigger eviction through nested memoized ops);
    // dropping the write is always safe: the memo is an accelerator,
    // never a source of truth.
    if t.generation != slot.generation {
        return val;
    }
    let val = match val {
        CachedVal::Map(m) => CachedVal::Map(intern(&mut t, &m).0.clone()),
        v => v,
    };
    t.memo.insert((op, slot.ia, slot.ib, extra), val.clone());
    val
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
    // The parsed map is stored as its intern entry. No generation check:
    // the key is the text, not ids.
    let mut t = c.tables.lock().expect("isl cache poisoned");
    let shared = intern(&mut t, &fresh).0.clone();
    let table = if as_set {
        &mut t.parsed_set
    } else {
        &mut t.parsed_map
    };
    table.insert(text.to_string(), shared.clone());
    Ok(shared)
}

/// Memoizes a map-valued operation. `compute` runs without the lock held.
pub(crate) fn memo_map(
    op: OpKind,
    a: &Map,
    b: Option<&Map>,
    extra: i128,
    compute: impl FnOnce() -> Result<Map>,
) -> Result<Map> {
    let slot = lookup(op, a, b, extra);
    if let Some(Slot {
        hit: Some(CachedVal::Map(m)),
        ..
    }) = slot
    {
        return Ok(m);
    }
    let result = timed_compute(compute)?;
    let Some(slot) = slot else {
        return Ok(result);
    };
    match store(op, &slot, extra, CachedVal::Map(ready_to_share(result))) {
        CachedVal::Map(m) => Ok(m),
        _ => unreachable!("a map value is filed as a map"),
    }
}

/// Memoizes a count-valued operation.
pub(crate) fn memo_count(
    op: OpKind,
    a: &Map,
    extra: i128,
    compute: impl FnOnce() -> Result<u128>,
) -> Result<u128> {
    let slot = lookup(op, a, None, extra);
    if let Some(Slot {
        hit: Some(CachedVal::Count(n)),
        ..
    }) = &slot
    {
        return Ok(*n);
    }
    let result = timed_compute(compute)?;
    if let Some(slot) = slot {
        store(op, &slot, extra, CachedVal::Count(result));
    }
    Ok(result)
}

/// Memoizes a boolean-valued operation.
pub(crate) fn memo_bool(
    op: OpKind,
    a: &Map,
    compute: impl FnOnce() -> Result<bool>,
) -> Result<bool> {
    let slot = lookup(op, a, None, 0);
    if let Some(Slot {
        hit: Some(CachedVal::Bool(v)),
        ..
    }) = &slot
    {
        return Ok(*v);
    }
    let result = timed_compute(compute)?;
    if let Some(slot) = slot {
        store(op, &slot, 0, CachedVal::Bool(result));
    }
    Ok(result)
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
        OpKind::IntersectDomain => "intersect_domain",
        OpKind::IntersectRange => "intersect_range",
        OpKind::Card => "card",
        OpKind::Empty => "empty",
        OpKind::Fix => "fix",
        OpKind::SliceMax => "slice_max",
    }
}

/// Wire names of operations that are no longer memoized. Snapshots
/// written before an operation retired still carry its rows; [`import`]
/// drops them without counting them as skipped, since an old file is not
/// damaged by holding them.
const RETIRED_OPS: [&str; 1] = ["coalesce"];

fn op_from_name(name: &str) -> Option<OpKind> {
    Some(match name {
        "reverse" => OpKind::Reverse,
        "apply_range" => OpKind::ApplyRange,
        "intersect" => OpKind::Intersect,
        "subtract" => OpKind::Subtract,
        "project" => OpKind::Project,
        "union" => OpKind::Union,
        "intersect_domain" => OpKind::IntersectDomain,
        "intersect_range" => OpKind::IntersectRange,
        "card" => OpKind::Card,
        "empty" => OpKind::Empty,
        "fix" => OpKind::Fix,
        "slice_max" => OpKind::SliceMax,
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

/// One memo entry in portable form: operand *texts*, never raw intern
/// ids — restore is re-parse + re-intern under fresh ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoExport {
    /// Stable operation name (see `op_name`).
    pub op: String,
    /// Left operand.
    pub lhs: RelExport,
    /// Right operand, absent for unary operations.
    pub rhs: Option<RelExport>,
    /// The packed extra operand (projection side, fix column/value, …).
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
    /// Entries dropped (unknown op name, unparseable text, table full).
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
    let mut by_id: HashMap<u64, &Map> = HashMap::with_capacity(t.n_interned);
    for bucket in t.ids.values() {
        for (m, id) in bucket {
            by_id.insert(*id, m);
        }
    }
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
    let mut memo = Vec::with_capacity(t.memo.len());
    for (&(op, ia, ib, extra), val) in &t.memo {
        // Operand ids always resolve: the memo and intern tables are read
        // under the same lock acquisition, and every store went through
        // interning. A panic here means export lost its consistency.
        let Some(lhs) = rel(by_id.get(&ia).expect("memo lhs interned")) else {
            continue;
        };
        let rhs = if ib == NO_RHS {
            None
        } else {
            match rel(by_id.get(&ib).expect("memo rhs interned")) {
                Some(r) => Some(r),
                None => continue,
            }
        };
        let value = match val {
            CachedVal::Map(m) => match rel(m) {
                Some(r) => ValExport::Map(r),
                None => continue,
            },
            CachedVal::Count(n) => ValExport::Count(*n),
            CachedVal::Bool(b) => ValExport::Bool(*b),
        };
        memo.push(MemoExport {
            op: op_name(op).to_string(),
            lhs,
            rhs,
            extra,
            value,
        });
    }
    CacheExport {
        parsed_map: t.parsed_map.keys().cloned().collect(),
        parsed_set: t.parsed_set.keys().cloned().collect(),
        memo,
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
/// re-intern under fresh ids, map-valued results included. Unknown ops
/// and unparseable texts are skipped (counted), never fatal — the memo is
/// an accelerator, not a source of truth. Rows of retired operations are
/// dropped uncounted. No-op when the cache is disabled.
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
    // repeated texts, then intern + insert in one locked pass.
    let mut parsed: HashMap<(String, bool), Option<Map>> = HashMap::new();
    let mut resolve = |r: &RelExport| -> Option<Map> {
        parsed
            .entry((r.text.clone(), r.set))
            .or_insert_with(|| reparse(r))
            .clone()
    };
    let mut ready: Vec<(OpKind, Map, Option<Map>, i128, CachedVal)> = Vec::new();
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
            let val = match &e.value {
                ValExport::Map(r) => CachedVal::Map(resolve(r)?),
                ValExport::Count(n) => CachedVal::Count(*n),
                ValExport::Bool(b) => CachedVal::Bool(*b),
            };
            Some((op, lhs, rhs, e.extra, val))
        });
        match prepared {
            Some(p) => ready.push(p),
            None => report.skipped += 1,
        }
    }
    let mut t = c.tables.lock().expect("isl cache poisoned");
    for (op, lhs, rhs, extra, val) in ready {
        if t.memo.len() >= MAX_ENTRIES || t.n_interned >= MAX_ENTRIES {
            report.skipped += 1;
            continue;
        }
        let ia = intern(&mut t, &lhs).1;
        let ib = rhs.map_or(NO_RHS, |r| intern(&mut t, &r).1);
        let val = match val {
            CachedVal::Map(m) => CachedVal::Map(intern(&mut t, &m).0.clone()),
            v => v,
        };
        t.memo.entry((op, ia, ib, extra)).or_insert(val);
        report.memo += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global enabled flag.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock().unwrap()
    }

    /// The intern entry (shared handle and id) of `m`, if it has one.
    fn interned<'t>(t: &'t Tables, m: &Map) -> Option<&'t (Map, u64)> {
        t.ids
            .get(&m.structural_hash())?
            .iter()
            .find(|(k, _)| k == m)
    }

    #[test]
    fn card_is_memoized_and_identical() {
        let _guard = test_lock();
        let m = Map::parse("{ S[i, j] -> PE[i] : 0 <= i < 9 and 0 <= j < 7 }").unwrap();
        set_enabled(true);
        clear();
        reset_stats();
        let a = m.card().unwrap();
        let s1 = stats();
        let b = m.card().unwrap();
        let s2 = stats();
        assert_eq!(a, b);
        assert_eq!(a, 63);
        assert!(
            s2.hits > s1.hits,
            "second card call must hit: {s1:?} {s2:?}"
        );
    }

    #[test]
    fn disabled_cache_bypasses() {
        let _guard = test_lock();
        let m = Map::parse("{ S[i] -> T[i] : 0 <= i < 5 }").unwrap();
        set_enabled(false);
        clear();
        reset_stats();
        let _ = m.card().unwrap();
        let _ = m.card().unwrap();
        let s = stats();
        assert_eq!(s.hits + s.misses, 0, "disabled cache must not count");
        set_enabled(true);
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
        let m = Map::parse("{ S[i, j] -> PE[i] : 0 <= i < 9 and 0 <= j < 7 }").unwrap();
        let s = crate::Set::parse("{ P[x, y] : 0 <= x < 5 and 0 <= y < 3 }").unwrap();
        assert_eq!(m.card().unwrap(), 63);
        assert!(!s.as_map().is_empty().unwrap());
        let snap = export();
        assert!(
            snap.parsed_map.len() == 1 && snap.parsed_set.len() == 1,
            "both parse tables exported: {snap:?}"
        );
        assert!(snap.memo.len() >= 2, "card + empty memoized: {snap:?}");
        clear();
        let report = import(&snap);
        assert_eq!(report.skipped, 0, "round-trip must not drop entries");
        assert_eq!(report.memo as usize, snap.memo.len());
        // Replaying the same source texts and operations must hit: parse
        // is deterministic, so re-parsed operands are structurally
        // identical to the re-interned snapshot operands.
        reset_stats();
        let m2 = Map::parse("{ S[i, j] -> PE[i] : 0 <= i < 9 and 0 <= j < 7 }").unwrap();
        assert_eq!(m2.card().unwrap(), 63);
        let s2 = crate::Set::parse("{ P[x, y] : 0 <= x < 5 and 0 <= y < 3 }").unwrap();
        assert!(!s2.as_map().is_empty().unwrap());
        let st = stats();
        assert_eq!(
            st.misses, 0,
            "replay after restore must be all-warm: {st:?}"
        );
        assert_eq!(st.hits, 4, "parse x2 + card + empty: {st:?}");
    }

    #[test]
    fn export_is_consistent_under_concurrent_clears() {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        // Writers keep repopulating while a clearer wipes the tables
        // wholesale; every export must be a coherent point-in-time view
        // (operand ids resolve — export panics if not — and importing it
        // into a cleared context drops nothing).
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
    fn memoized_results_share_the_intern_entry() {
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
            let entry = |m: &Map| interned(&t, m).expect("interned");
            let key = (OpKind::ApplyRange, entry(&a).1, entry(&b).1, 0);
            let Some(CachedVal::Map(memoized)) = t.memo.get(&key) else {
                panic!("apply_range result memoized");
            };
            let (shared, id) = entry(&r);
            assert!(
                Map::same_value(memoized, shared),
                "the memo value and the operand entry are one allocation"
            );
            assert!(
                Map::same_value(memoized, &r),
                "the computing call returns the stored allocation"
            );
            assert!(
                t.memo.contains_key(&(OpKind::Card, *id, NO_RHS, 0)),
                "card is keyed by the shared entry's id"
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
    fn equal_maps_hash_equal_and_intern_once() {
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
        let id = |m: &Map| interned(&t, m).expect("interned").1;
        assert_eq!(id(&x), id(&y));
        assert_eq!(id(&x), id(&rebuilt));
        assert_eq!(id(&direct), id(&merged));
        assert_ne!(id(&direct), id(&other));
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
        let key = (
            OpKind::ApplyRange,
            interned(&t, &a).unwrap().1,
            interned(&t, &b).unwrap().1,
            0,
        );
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
    fn import_drops_retired_coalesce_rows_uncounted() {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        let text = "{ K[i] -> L[i] : 0 <= i < 4 or 4 <= i < 9 }";
        let rel = |text: &str| RelExport {
            text: text.into(),
            set: false,
        };
        let snap = CacheExport {
            parsed_map: Vec::new(),
            parsed_set: Vec::new(),
            memo: vec![MemoExport {
                op: "coalesce".into(),
                lhs: rel(text),
                rhs: None,
                extra: 0,
                value: ValExport::Map(rel("{ K[i] -> L[i] : 0 <= i < 9 }")),
            }],
        };
        let report = import(&snap);
        assert_eq!(report.skipped, 0, "a retired row is not a skip: {report:?}");
        assert_eq!(report.memo, 0, "a retired row is not restored: {report:?}");
        let lhs = Map::parse(text).unwrap();
        let t = ctx().tables.lock().unwrap();
        let keyed = interned(&t, &lhs).is_some_and(|&(_, id)| t.memo.keys().any(|k| k.1 == id));
        assert!(
            !keyed,
            "no memo entry is keyed by the retired row's operand"
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
