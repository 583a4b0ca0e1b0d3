//! Snapshot compatibility pin: a warm-state snapshot file written by an
//! *older* build must keep restoring cleanly on the current one.
//!
//! `fixtures/warm_v1.snap` was captured from a worker that served real
//! `/v1/analyze` traffic, so its ISL section carries the memo entries a
//! production shard would actually ship on a ring change (parse texts,
//! `card`, `project`, `apply_range`, `slice_max`, …). Restore is
//! re-parse + re-intern of canonical relation text — never raw ids — so
//! counting-engine rewrites behind `card` must not invalidate old files.
//! If this test fails after an intentional format change, bump
//! `snapshot::VERSION` and regenerate the fixture instead of loosening
//! the assertions (`cargo test -p tenet-server --test snapshot_fixture
//! -- --ignored regenerate_fixture`).

use std::path::PathBuf;
use std::sync::Arc;
use tenet_core::isl_cache;
use tenet_core::json::Json;
use tenet_server::snapshot;
use tenet_server::{Call, ServerConfig, WorkerCore};

const GEMM_PROBLEM: &str = "\
for (i = 0; i < 8; i++)
  for (j = 0; j < 8; j++)
    for (k = 0; k < 8; k++)
      S: Y[i][j] += A[i][k] * B[k][j];

{ S[i,j,k] -> (PE[i,j] | T[i + j + k]) }

arch \"8x8\" { array = [8, 8] interconnect = mesh bandwidth = 8 }
";

const CONV_PROBLEM: &str = "\
for (o = 0; o < 6; o++)
  for (w = 0; w < 3; w++)
    S: Out[o] += In[o + w] * W[w];

{ S[o,w] -> (PE[w] | T[o]) }

arch \"1d\" { array = [3] interconnect = systolic1d bandwidth = 4 }
";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("warm_v1.snap")
}

fn core() -> Arc<WorkerCore> {
    WorkerCore::new(ServerConfig {
        addr: "unused".into(),
        ..Default::default()
    })
}

fn analyze(core: &Arc<WorkerCore>, problem: &str) {
    let body = Json::obj([("problem", Json::from(problem))]).to_string();
    let (status, resp, _) = core.handle(&Call::new("POST", "/v1/analyze", body.as_bytes()));
    assert_eq!(
        status,
        200,
        "fixture workload must analyze: {}",
        String::from_utf8_lossy(&resp)
    );
}

/// Regenerates `fixtures/warm_v1.snap` from live traffic. Run manually
/// (`--ignored`) only when the snapshot format version is bumped; the
/// committed file must otherwise stay byte-stable so the restore test
/// keeps exercising genuinely old bytes.
#[test]
#[ignore]
fn regenerate_fixture() {
    isl_cache::set_enabled(true);
    isl_cache::clear();
    let c = core();
    analyze(&c, GEMM_PROBLEM);
    analyze(&c, CONV_PROBLEM);
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let report = snapshot::save_to_file(&c, &path).unwrap();
    assert!(report.isl_memo > 0, "fixture must carry memo entries");
    assert!(report.dedup_entries > 0, "fixture must carry LRU entries");
    println!("wrote {:?}: {report:?}", path);
}

/// The committed pre-upgrade snapshot restores with zero skipped
/// entries: every op name still resolves, every canonical relation text
/// still parses, and the restored memo serves the same workload warm.
#[test]
fn pre_upgrade_snapshot_restores_cleanly() {
    let bytes = std::fs::read(fixture_path()).expect("committed fixture present");
    let payload = snapshot::decode(&bytes).expect("fixture decodes");

    isl_cache::set_enabled(true);
    isl_cache::clear();
    let c = core();
    let report = snapshot::restore(&c, &payload);
    assert_eq!(
        report.skipped, 0,
        "pre-upgrade snapshot must restore without drops: {report:?}"
    );
    assert!(report.isl_memo > 0, "memo entries restored: {report:?}");
    assert!(report.isl_parsed > 0, "parse texts restored: {report:?}");
    assert!(report.dedup > 0, "response LRU restored: {report:?}");

    // The restored response LRU is keyed exactly like live traffic, so
    // the original request is already warm (a `claim` finds cached bytes,
    // never a leader slot) and re-serving it stays bit-identical.
    let body = Json::obj([("problem", Json::from(GEMM_PROBLEM))]).to_string();
    let canon = tenet_server::canonical_request("POST", "/v1/analyze", body.as_bytes());
    let cached = match c.dedup.claim(&canon) {
        tenet_server::dedup::Claim::Cached(r) => r,
        tenet_server::dedup::Claim::Leader(_) => panic!("restored key must be warm"),
    };
    assert_eq!(cached.status, 200);
    let (status, resp, _) = c.handle(&Call::new("POST", "/v1/analyze", body.as_bytes()));
    assert_eq!(status, 200);
    assert_eq!(&*resp, &*cached.body, "bit-identical replay bytes");
    let v = Json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(v.get("op").and_then(Json::as_str), Some("S"));

    // And the restored ISL memo is live: the import re-interned real
    // relations and memo rows into the process-wide context.
    let st = isl_cache::stats();
    assert!(st.entries > 0, "restored memo entries live: {st:?}");
    assert!(st.interned > 0, "restored relations interned: {st:?}");
}
