//! What an operation leaves in the process-wide memo: which relations it
//! pools and which entries it stores. The assertions read
//! [`cache::stats`], so every test in this binary holds `test_lock` while
//! it touches the memo.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use tenet_isl::{cache, Map};

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// `{ ST[p0, p1, t] -> ST[p0 + a, p1 + b, t + 1] : … }` over the 8 mesh
/// offsets, 6 constraint rows per disjunct: 48 rows, above the 32 at which
/// `union` goes through the memo.
fn mesh_moves_text() -> String {
    let mut disjuncts = Vec::new();
    for a in -1..=1 {
        for b in -1..=1 {
            if (a, b) != (0, 0) {
                disjuncts.push(format!(
                    "ST[p0, p1, t] -> ST[p0 + {a}, p1 + {b}, t + 1] : \
                     0 <= p0 < 8 and 0 <= p1 < 8 and 0 <= t < 64"
                ));
            }
        }
    }
    format!("{{ {} }}", disjuncts.join("; "))
}

/// A parse pools its result, under its text, and nothing else: no prefix
/// of its disjunct union is pooled or stored.
#[test]
fn parsing_a_union_pools_only_its_result() {
    let _guard = test_lock();
    cache::set_enabled(true);
    cache::clear();
    let text = mesh_moves_text();
    let before = cache::stats();
    let m = Map::parse(&text).unwrap();
    let after = cache::stats();
    assert_eq!(m.basics().len(), 8);
    let rows: usize = m.basics().iter().map(|b| b.constraint_count()).sum();
    assert!(rows >= 32, "{rows} rows");
    assert_eq!(
        after.interned - before.interned,
        1,
        "{before:?} -> {after:?}"
    );
    assert_eq!(after.entries - before.entries, 0, "{before:?} -> {after:?}");
    // The one-pass union keeps `union`'s result: the same disjuncts in the
    // same order.
    let pieces: Vec<Map> = text
        .trim_matches(|c| c == '{' || c == '}')
        .split(';')
        .map(|d| Map::parse(&format!("{{ {d} }}")).unwrap())
        .collect();
    cache::set_enabled(false);
    let folded = pieces[1..]
        .iter()
        .try_fold(pieces[0].clone(), |acc, p| acc.union(p))
        .unwrap();
    cache::set_enabled(true);
    assert_eq!(m, folded);
}

/// `reuse_card` stores one entry, its count, and pools no relation beyond
/// its two operands: neither the image of the moves nor the intersection.
#[test]
fn reuse_card_stores_only_its_count() {
    let _guard = test_lock();
    cache::set_enabled(true);
    cache::clear();
    let adf = Map::parse(
        "{ ST[p0, p1, t] -> A[p0 + t, p1] : 0 <= p0 < 8 and 0 <= p1 < 8 and 0 <= t < 64 }",
    )
    .unwrap();
    let moves = Map::parse(&mesh_moves_text()).unwrap();
    let before = cache::stats();
    let reuse = adf.reuse_card(&moves).unwrap();
    let after = cache::stats();
    assert_eq!(
        after.interned - before.interned,
        0,
        "{before:?} -> {after:?}"
    );
    assert_eq!(after.entries - before.entries, 1, "{before:?} -> {after:?}");
    // Same count as the chain of memoized operations it replaces.
    let chained = adf
        .intersect(&moves.reverse().apply_range(&adf).unwrap())
        .unwrap()
        .card()
        .unwrap();
    assert_eq!(reuse, chained);
    assert!(reuse > 0);
}
