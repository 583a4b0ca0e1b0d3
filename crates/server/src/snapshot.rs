//! Warm-state snapshots: a versioned, checksummed serialization of one
//! worker's cache state — the ISL memo context (parsed relations +
//! memo entries, in canonical `fmt` text form) and the response LRU.
//!
//! A freshly (re)started shard serves every key cold; with a snapshot it
//! answers its old keys warm with bit-identical bytes. The file format
//! is deliberately dumb and self-checking:
//!
//! ```text
//! TENETSNAP <version> <checksum-hex16> <payload-len>\n
//! <payload JSON>
//! ```
//!
//! The checksum is [`canonical_key`](crate::canonical_key) over the
//! payload text, so truncation and corruption are both caught before a
//! byte of state is restored. A bad file is rejected with a clear
//! [`SnapshotError`] and the worker starts cold — never crashed.
//!
//! Restore is *re-parse + re-pool*: the ISL section carries relation
//! texts, never in-memory handles, so a snapshot is valid across process
//! restarts and (within one format version) across builds.

use crate::dedup::CachedResponse;
use crate::worker::WorkerCore;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use tenet_core::isl_cache::{self, CacheExport, MemoExport, RelExport, ValExport};
use tenet_core::json::Json;

/// Current snapshot format version. Bump on any payload-shape change.
pub const VERSION: u64 = 1;

const MAGIC: &str = "TENETSNAP";

/// Why a snapshot failed to load or decode.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The header or payload is not a snapshot (bad magic, truncated,
    /// unparseable JSON).
    Malformed(String),
    /// A well-formed snapshot of an unsupported format version.
    VersionMismatch(u64),
    /// The payload does not match its recorded checksum.
    ChecksumMismatch,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot read failed: {e}"),
            SnapshotError::Malformed(m) => write!(f, "malformed snapshot: {m}"),
            SnapshotError::VersionMismatch(v) => {
                write!(
                    f,
                    "snapshot version {v} unsupported (this build reads {VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch => {
                write!(
                    f,
                    "snapshot checksum mismatch (corrupted or truncated payload)"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Which part of the state to capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Both the response LRU and the ISL memo context.
    All,
    /// Only the response LRU + dedup key table.
    Dedup,
    /// Only the ISL memo context.
    Isl,
}

impl Section {
    /// Parses the `section=` query value; `None` input means [`Section::All`].
    pub fn parse(value: Option<&str>) -> Option<Section> {
        match value {
            None => Some(Section::All),
            Some("dedup") => Some(Section::Dedup),
            Some("isl") => Some(Section::Isl),
            Some(_) => None,
        }
    }
}

/// Outcome counts of a [`restore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Response-LRU entries newly stored.
    pub dedup: u64,
    /// ISL parse-table texts restored.
    pub isl_parsed: u64,
    /// ISL memo entries restored.
    pub isl_memo: u64,
    /// Entries dropped (unparseable text, unknown op, malformed row).
    pub skipped: u64,
}

/// Captures the requested state as the snapshot payload document. Each
/// underlying export is one lock acquisition, so each section is a
/// consistent point-in-time view even under concurrent traffic or a
/// concurrent wholesale cache clear.
pub fn capture(core: &WorkerCore, section: Section) -> Json {
    let mut doc = vec![("version".to_string(), Json::from(VERSION))];
    if matches!(section, Section::All | Section::Dedup) {
        let entries: Vec<Json> = core
            .dedup
            .export()
            .into_iter()
            .filter_map(|(key, resp)| {
                // Response bodies are serialized JSON and thus UTF-8;
                // anything else cannot ride in a JSON string field.
                let body = String::from_utf8(resp.body.as_ref().clone()).ok()?;
                Some(Json::obj([
                    ("key", Json::from(key)),
                    ("status", Json::from(u64::from(resp.status))),
                    ("body", Json::from(body)),
                ]))
            })
            .collect();
        doc.push(("dedup".to_string(), Json::Arr(entries)));
    }
    if matches!(section, Section::All | Section::Isl) {
        let snap = isl_cache::export();
        doc.push(("isl".to_string(), isl_to_json(&snap)));
    }
    Json::Obj(doc)
}

/// Restores a payload document produced by [`capture`] into `core` (and
/// the process-wide ISL memo context). Unknown or damaged rows are
/// skipped and counted — the caches are accelerators, never sources of
/// truth, so restore is best-effort by design.
pub fn restore(core: &WorkerCore, payload: &Json) -> RestoreReport {
    let mut report = RestoreReport::default();
    if let Some(rows) = payload.get("dedup").and_then(Json::as_arr) {
        let mut entries = Vec::with_capacity(rows.len());
        for row in rows {
            let decoded = (|| {
                let key = row.get("key")?.as_str()?;
                let status = row.get("status")?.as_u64()?;
                let status = u16::try_from(status).ok().filter(|s| *s >= 100)?;
                let body = row.get("body")?.as_str()?;
                Some((
                    key.to_string(),
                    CachedResponse {
                        status,
                        body: Arc::new(body.as_bytes().to_vec()),
                    },
                ))
            })();
            match decoded {
                Some(entry) => entries.push(entry),
                None => report.skipped += 1,
            }
        }
        report.dedup = core.dedup.import(entries);
    }
    if let Some(isl) = payload.get("isl") {
        let (snap, bad_rows) = isl_from_json(isl);
        let r = isl_cache::import(&snap);
        report.isl_parsed = r.parsed;
        report.isl_memo = r.memo;
        report.skipped += r.skipped + bad_rows;
    }
    report
}

/// Encodes a payload document as the checksummed on-disk snapshot bytes.
pub fn encode(payload: &Json) -> Vec<u8> {
    let text = payload.to_string();
    let checksum = crate::canonical_key(&text);
    let mut out = format!("{MAGIC} {VERSION} {checksum:016x} {}\n", text.len()).into_bytes();
    out.extend_from_slice(text.as_bytes());
    out
}

/// Decodes and verifies on-disk snapshot bytes back into the payload
/// document. Rejects bad magic, unsupported versions, truncation, and
/// checksum mismatches — each with a distinct error.
pub fn decode(bytes: &[u8]) -> Result<Json, SnapshotError> {
    let newline = bytes
        .iter()
        .position(|b| *b == b'\n')
        .ok_or_else(|| SnapshotError::Malformed("missing header line".into()))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| SnapshotError::Malformed("header is not UTF-8".into()))?;
    let mut parts = header.split(' ');
    if parts.next() != Some(MAGIC) {
        return Err(SnapshotError::Malformed("bad magic".into()));
    }
    let version: u64 = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| SnapshotError::Malformed("bad version field".into()))?;
    if version != VERSION {
        return Err(SnapshotError::VersionMismatch(version));
    }
    let checksum = parts
        .next()
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| SnapshotError::Malformed("bad checksum field".into()))?;
    let len: usize = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| SnapshotError::Malformed("bad length field".into()))?;
    let payload = &bytes[newline + 1..];
    if payload.len() != len {
        return Err(SnapshotError::Malformed(format!(
            "payload length {} != recorded {len} (truncated?)",
            payload.len()
        )));
    }
    let text = std::str::from_utf8(payload)
        .map_err(|_| SnapshotError::Malformed("payload is not UTF-8".into()))?;
    if crate::canonical_key(text) != checksum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Json::parse(text).map_err(|e| SnapshotError::Malformed(format!("payload JSON: {e}")))
}

/// What [`save_to_file`] wrote.
#[derive(Debug, Clone, Copy, Default)]
pub struct SaveReport {
    /// Total file size in bytes.
    pub bytes: u64,
    /// Response-LRU entries captured.
    pub dedup_entries: u64,
    /// ISL memo entries captured.
    pub isl_memo: u64,
}

/// Captures the full state and writes it to `path` atomically: the bytes
/// land in `<path>.tmp` first and are renamed over the target, so a
/// crash mid-write can never leave a half-written snapshot where the
/// next boot would read it.
pub fn save_to_file(core: &WorkerCore, path: &Path) -> std::io::Result<SaveReport> {
    let payload = capture(core, Section::All);
    let report = SaveReport {
        bytes: 0,
        dedup_entries: payload
            .get("dedup")
            .and_then(Json::as_arr)
            .map_or(0, |a| a.len() as u64),
        isl_memo: payload
            .get("isl")
            .and_then(|i| i.get("memo"))
            .and_then(Json::as_arr)
            .map_or(0, |a| a.len() as u64),
    };
    let bytes = encode(&payload);
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(SaveReport {
        bytes: bytes.len() as u64,
        ..report
    })
}

/// Reads, verifies, and restores a snapshot file into `core`. The boot
/// path treats any error as "start cold" after logging it.
pub fn load_from_file(core: &WorkerCore, path: &Path) -> Result<RestoreReport, SnapshotError> {
    let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
    let payload = decode(&bytes)?;
    Ok(restore(core, &payload))
}

// --- ISL section <-> JSON -------------------------------------------------

fn rel_to_json(r: &RelExport) -> Json {
    Json::obj([
        ("text", Json::from(r.text.as_str())),
        ("set", Json::from(r.set)),
    ])
}

fn rel_from_json(v: &Json) -> Option<RelExport> {
    Some(RelExport {
        text: v.get("text")?.as_str()?.to_string(),
        set: v.get("set")?.as_bool()?,
    })
}

fn isl_to_json(snap: &CacheExport) -> Json {
    let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::from(s.as_str())).collect());
    let memo: Vec<Json> = snap
        .memo
        .iter()
        .map(|e| {
            let value = match &e.value {
                ValExport::Map(r) => Json::obj([
                    ("kind", Json::from("map")),
                    ("text", Json::from(r.text.as_str())),
                    ("set", Json::from(r.set)),
                ]),
                // Counts are exact u128; a decimal string keeps them
                // exact beyond the JSON integer range.
                ValExport::Count(n) => Json::obj([
                    ("kind", Json::from("count")),
                    ("n", Json::from(n.to_string())),
                ]),
                ValExport::Bool(b) => {
                    Json::obj([("kind", Json::from("bool")), ("v", Json::from(*b))])
                }
            };
            Json::obj([
                ("op", Json::from(e.op.as_str())),
                ("lhs", rel_to_json(&e.lhs)),
                ("rhs", e.rhs.as_ref().map_or(Json::Null, rel_to_json)),
                ("extra", Json::Int(e.extra)),
                ("value", value),
            ])
        })
        .collect();
    Json::obj([
        ("parsed_map", strs(&snap.parsed_map)),
        ("parsed_set", strs(&snap.parsed_set)),
        ("memo", Json::Arr(memo)),
    ])
}

/// Decodes the ISL section; malformed rows are dropped and counted in
/// the second return value.
fn isl_from_json(v: &Json) -> (CacheExport, u64) {
    fn texts(v: &Json, key: &str, bad: &mut u64) -> Vec<String> {
        let mut out = Vec::new();
        for item in v.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            match item.as_str() {
                Some(s) => out.push(s.to_string()),
                None => *bad += 1,
            }
        }
        out
    }
    let mut bad = 0u64;
    let parsed_map = texts(v, "parsed_map", &mut bad);
    let parsed_set = texts(v, "parsed_set", &mut bad);
    let mut memo = Vec::new();
    for row in v.get("memo").and_then(Json::as_arr).unwrap_or(&[]) {
        let decoded = (|| {
            let op = row.get("op")?.as_str()?.to_string();
            let lhs = rel_from_json(row.get("lhs")?)?;
            let rhs = match row.get("rhs") {
                None | Some(Json::Null) => None,
                Some(r) => Some(rel_from_json(r)?),
            };
            let extra = match row.get("extra")? {
                Json::Int(i) => *i,
                _ => return None,
            };
            let value = match row.get("value")?.get("kind")?.as_str()? {
                "map" => ValExport::Map(rel_from_json(row.get("value")?)?),
                "count" => ValExport::Count(row.get("value")?.get("n")?.as_str()?.parse().ok()?),
                "bool" => ValExport::Bool(row.get("value")?.get("v")?.as_bool()?),
                _ => return None,
            };
            Some(MemoExport {
                op,
                lhs,
                rhs,
                extra,
                value,
            })
        })();
        match decoded {
            Some(e) => memo.push(e),
            None => bad += 1,
        }
    }
    (
        CacheExport {
            parsed_map,
            parsed_set,
            memo,
        },
        bad,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;

    fn core() -> Arc<WorkerCore> {
        WorkerCore::new(ServerConfig {
            addr: "unused".into(),
            ..Default::default()
        })
    }

    #[test]
    fn encode_decode_round_trips() {
        let payload = Json::obj([
            ("version", Json::from(VERSION)),
            ("dedup", Json::Arr(vec![])),
        ]);
        let bytes = encode(&payload);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.to_string(), payload.to_string());
    }

    #[test]
    fn decode_rejects_each_failure_mode_distinctly() {
        let bytes = encode(&Json::obj([("version", Json::from(VERSION))]));
        // Bad magic.
        let mut garbled = bytes.clone();
        garbled[0] = b'X';
        assert!(matches!(decode(&garbled), Err(SnapshotError::Malformed(_))));
        // Version mismatch.
        let text = "{}";
        let header = format!(
            "{MAGIC} 999 {:016x} {}\n{text}",
            crate::canonical_key(text),
            text.len()
        );
        assert!(matches!(
            decode(header.as_bytes()),
            Err(SnapshotError::VersionMismatch(999))
        ));
        // Truncation.
        let cut = &bytes[..bytes.len() - 3];
        assert!(matches!(decode(cut), Err(SnapshotError::Malformed(_))));
        // Flipped payload byte: length fine, checksum wrong.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x20;
        assert!(matches!(
            decode(&flipped),
            Err(SnapshotError::ChecksumMismatch)
        ));
        // No header line at all.
        assert!(matches!(decode(b"short"), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn capture_restore_round_trips_dedup_bytes() {
        let a = core();
        a.dedup.insert(
            "POST /v1/analyze\n{\"q\":1}",
            CachedResponse {
                status: 200,
                body: Arc::new(b"{\"answer\":42}".to_vec()),
            },
        );
        let payload = capture(&a, Section::All);
        let b = core();
        let report = restore(&b, &payload);
        assert_eq!(report.dedup, 1);
        assert_eq!(report.skipped, 0, "{report:?}");
        match b.dedup.claim("POST /v1/analyze\n{\"q\":1}") {
            crate::dedup::Claim::Cached(r) => {
                assert_eq!(r.status, 200);
                assert_eq!(&*r.body, b"{\"answer\":42}", "bit-identical bytes");
            }
            crate::dedup::Claim::Leader(_) => panic!("restored key must be warm"),
        }
    }

    #[test]
    fn section_filter_limits_the_payload() {
        let c = core();
        c.dedup.insert(
            "k",
            CachedResponse {
                status: 200,
                body: Arc::new(b"{}".to_vec()),
            },
        );
        let dedup_only = capture(&c, Section::Dedup);
        assert!(dedup_only.get("dedup").is_some());
        assert!(dedup_only.get("isl").is_none());
        let isl_only = capture(&c, Section::Isl);
        assert!(isl_only.get("dedup").is_none());
        assert!(isl_only.get("isl").is_some());
        assert_eq!(Section::parse(Some("bogus")), None);
        assert_eq!(Section::parse(None), Some(Section::All));
    }

    #[test]
    fn save_and_load_file_round_trip_with_atomic_write() {
        let c = core();
        c.dedup.insert(
            "key-on-disk",
            CachedResponse {
                status: 200,
                body: Arc::new(b"{\"v\":7}".to_vec()),
            },
        );
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tenet-snap-test-{}.snap", std::process::id()));
        let report = save_to_file(&c, &path).unwrap();
        assert!(report.bytes > 0);
        assert_eq!(report.dedup_entries, 1);
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file must be renamed away"
        );
        let fresh = core();
        let restored = load_from_file(&fresh, &path).unwrap();
        assert_eq!(restored.dedup, 1);
        std::fs::remove_file(&path).ok();
        // A missing file is an Io error, not a panic.
        assert!(matches!(
            load_from_file(&fresh, &path),
            Err(SnapshotError::Io(_))
        ));
    }
}
