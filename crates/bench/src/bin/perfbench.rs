//! Counting fast-path smoke check, run in CI as `perfbench --smoke` (see
//! `smoke()`). Performance is measured by the benchmark in `tenetbench/`,
//! not here.

use tenet_core::isl_cache;
use tenet_isl::{Map, Set};

/// Fast CI guard (`--smoke`): asserts the closed-form counting fast paths
/// are actually taken — each dispatch counter must advance while counting
/// a box, a single-slab prism, and a k≥2 multi-slab shape — and that the
/// counts are the known-exact values. Panics (nonzero exit) on failure.
fn smoke() {
    isl_cache::set_enabled(false); // force real computation, no memo replay
    let before = tenet_isl::fast_path_stats();
    let boxy = Set::parse("{ A[x, y] : 0 <= x < 7 and 0 <= y < 9 }").unwrap();
    assert_eq!(boxy.card().unwrap(), 63, "box count");
    let slab = Set::parse(
        "{ A[x, y, t] : 0 <= x < 8 and 0 <= y < 8 and 0 <= t < 20 and 3 <= x + y + t and x + y + t <= 18 }",
    )
    .unwrap();
    assert_eq!(slab.card().unwrap(), 758, "slab count");
    let multi = Set::parse(
        "{ A[x, y, z] : 0 <= x < 10 and 0 <= y < 10 and 0 <= z < 10 \
         and 3 <= x + y and x + y <= 14 and 2 <= y + z and y + z <= 15 }",
    )
    .unwrap();
    assert_eq!(multi.card().unwrap(), 778, "multi-slab count");
    // Disjoint-support slab pair: both slabs must survive the pinning and
    // close through the coupled-slab floor-sum product.
    let coupled = Set::parse(
        "{ A[x, y, z, w] : 0 <= x < 8 and 0 <= y < 8 and 0 <= z < 8 and 0 <= w < 8 \
         and 3 <= x + y and x + y <= 10 and 2 <= z + w and z + w <= 12 }",
    )
    .unwrap();
    assert_eq!(coupled.card().unwrap(), 2784, "coupled-slab count");
    // Monotone 5-chain: too wide for the multi-slab odometer, exactly the
    // pair-chain value-table DP's shape (multichoose(2000, 5)).
    let chain = Set::parse(
        "{ A[a, b, c, d, e] : 0 <= a <= 1999 and 0 <= b <= 1999 and 0 <= c <= 1999 \
         and 0 <= d <= 1999 and 0 <= e <= 1999 \
         and 0 <= a - b and 0 <= b - c and 0 <= c - d and 0 <= d - e }",
    )
    .unwrap();
    assert_eq!(
        chain.card().unwrap(),
        268_002_335_000_400,
        "pair-chain count"
    );
    // One-sided box: feasibility probes saturate through the residual-box
    // branch (bounded boxes collapse through the window drop instead).
    let open_box = Set::parse("{ A[x, y] : x >= 0 and y >= 0 }").unwrap();
    assert!(!open_box.is_empty().unwrap(), "open box must be non-empty");
    let after = tenet_isl::fast_path_stats();
    assert!(
        after.box_counts > before.box_counts,
        "residual-box fast path not taken: {before:?} -> {after:?}"
    );
    assert!(
        after.window_counts > before.window_counts,
        "functional-window fast path not taken: {before:?} -> {after:?}"
    );
    assert!(
        after.slab_counts > before.slab_counts,
        "slab fast path not taken: {before:?} -> {after:?}"
    );
    assert!(
        after.multi_slab_counts > before.multi_slab_counts,
        "multi-slab fast path not taken: {before:?} -> {after:?}"
    );
    assert!(
        after.coupled_slab_counts > before.coupled_slab_counts,
        "coupled-slab fast path not taken: {before:?} -> {after:?}"
    );
    assert!(
        after.pair_chain_counts > before.pair_chain_counts,
        "pair-chain fast path not taken: {before:?} -> {after:?}"
    );
    // The memo layer must replay bit-identically on a warm hit.
    isl_cache::clear();
    isl_cache::set_enabled(true);
    let m = Map::parse("{ S[i, j] -> PE[i] : 0 <= i < 9 and 0 <= j < 7 }").unwrap();
    let cold = m.card().unwrap();
    let warm = m.card().unwrap();
    assert_eq!(cold, warm, "memo replay");
    assert!(
        isl_cache::stats().hits > 0,
        "warm card lookup must hit the memo"
    );
    println!("perfbench smoke ok: fast paths {before:?} -> {after:?}");
}

fn main() {
    if !std::env::args().any(|a| a == "--smoke") {
        eprintln!("usage: perfbench --smoke");
        std::process::exit(2);
    }
    smoke();
}
