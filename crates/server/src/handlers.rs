//! Request routing and the analysis/DSE endpoint implementations.
//!
//! Error taxonomy mirrors the CLI's exit codes: what the CLI reports as a
//! usage or input error (exit 1/2) is a 400 here, what it reports as an
//! analysis failure (exit 3) is a 500. Every error body has the same
//! shape: `{"error": {"kind": "...", "message": "..."}}`.

use crate::dedup::CachedResponse;
use crate::worker::WorkerCore;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tenet_core::json::Json;
use tenet_core::obs::{TraceId, TraceStore};
use tenet_core::{export, presets, Analysis, AnalysisOptions, ArchSpec, Dataflow};
use tenet_dse::{enumerate_all, explore_parallel, pareto};
use tenet_frontend::{parse_arch, parse_problem, Problem};

/// The one error body every tier answers with:
/// `{"error": {"kind": kind, "message": message}}`.
pub fn error_json(kind: &str, message: impl Into<String>) -> Json {
    Json::obj([(
        "error",
        Json::obj([
            ("kind", Json::from(kind)),
            ("message", Json::from(message.into())),
        ]),
    )])
}

/// A handler outcome: status code plus JSON entity.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Entity body.
    pub body: Json,
    /// Whether this is a deadline-degraded answer (a `504` or a
    /// `"truncated": true` partial result). Degraded replies must never
    /// enter the dedup cache: the same canonical request under a
    /// generous deadline deserves the full answer, not a replay of a
    /// timing accident.
    pub degraded: bool,
}

impl Reply {
    fn ok(body: Json) -> Reply {
        Reply {
            status: 200,
            body,
            degraded: false,
        }
    }

    /// A partial (truncated) 200 produced because the deadline expired
    /// mid-computation.
    fn degraded_ok(body: Json) -> Reply {
        Reply {
            status: 200,
            body,
            degraded: true,
        }
    }

    fn error(status: u16, kind: &str, message: impl Into<String>) -> Reply {
        Reply {
            status,
            body: error_json(kind, message),
            degraded: false,
        }
    }

    /// 504 — the request's deadline expired before any useful partial
    /// result existed.
    fn deadline_exceeded() -> Reply {
        let mut reply = Reply::error(
            504,
            "deadline_exceeded",
            "request deadline expired before the computation finished",
        );
        reply.degraded = true;
        reply
    }

    /// 400 — the request itself is malformed (CLI exit codes 1/2).
    fn bad_request(kind: &str, message: impl Into<String>) -> Reply {
        Reply::error(400, kind, message)
    }

    /// 500 — the request is well-formed but the analysis failed
    /// (CLI exit code 3).
    fn analysis(message: impl Into<String>) -> Reply {
        Reply::error(500, "analysis", message)
    }
}

/// Routes one request. `body` is the raw request body; dedup happens in
/// the connection layer, not here. `deadline` is the client's remaining
/// time budget (from `X-Tenet-Deadline-Ms`, already debited for router
/// time); the long-running endpoints check it between units of work and
/// degrade instead of computing past it.
pub fn route(
    method: &str,
    path: &str,
    body: &[u8],
    state: &WorkerCore,
    deadline: Option<Instant>,
) -> Reply {
    match (method, path) {
        ("GET", "/v1/healthz") => Reply::ok(Json::obj([("status", Json::from("ok"))])),
        ("GET", "/v1/stats") => Reply::ok(state.metrics().to_json()),
        ("POST", "/v1/analyze") => match decode_body(body) {
            Ok(req) => analyze(&req, state, deadline),
            Err(r) => *r,
        },
        ("POST", "/v1/dse") => match decode_body(body) {
            Ok(req) => dse(&req, deadline),
            Err(r) => *r,
        },
        ("POST", "/v1/warm") => match decode_body(body) {
            Ok(req) => warm(&req, state),
            Err(r) => *r,
        },
        ("GET", p) if p == "/v1/snapshot" || p.starts_with("/v1/snapshot?") => {
            snapshot_get(p, state)
        }
        ("POST", "/v1/snapshot") => snapshot_save(state),
        ("POST", "/v1/shutdown") => {
            state.shutdown.store(true, Ordering::Release);
            Reply::ok(Json::obj([("status", Json::from("draining"))]))
        }
        ("GET" | "POST", _) => Reply::error(404, "not_found", format!("no route for {path}")),
        _ => Reply::error(405, "method_not_allowed", format!("method {method}")),
    }
}

/// `GET /v1/trace/...` at either tier. `/v1/trace/slow?ms=N` lists the
/// tier's slow ring at or above `N` ms (`0` is no threshold, and a
/// present but unparseable value is a 400, not the unfiltered listing).
/// `/v1/trace/<id>` answers the `records` found for the id, or 404 with
/// `not_found` when there are none.
pub fn trace_endpoint(
    traces: &TraceStore,
    path: &str,
    records: impl FnOnce(TraceId) -> Vec<Json>,
    not_found: &str,
) -> (u16, Arc<Vec<u8>>) {
    let reply = |status: u16, body: Json| (status, Arc::new(body.to_string().into_bytes()));
    let rest = path.strip_prefix("/v1/trace/").unwrap_or("");
    let (rest, query) = rest.split_once('?').unwrap_or((rest, ""));
    if rest == "slow" {
        let ms = query.split('&').find_map(|kv| kv.strip_prefix("ms="));
        let min_us = match ms.map(|v| (v, v.parse::<u64>())) {
            Some((_, Ok(ms))) => Some(ms.saturating_mul(1_000)),
            Some((v, Err(_))) => {
                let message = format!("bad `ms` value `{v}`: expected a non-negative integer");
                return reply(400, error_json("usage", message));
            }
            None => None,
        };
        let rows = traces.slow(min_us).iter().map(|r| r.to_json()).collect();
        return reply(200, Json::obj([("traces", Json::Arr(rows))]));
    }
    let Some(id) = TraceId::parse(rest) else {
        return reply(400, error_json("usage", "malformed trace id"));
    };
    let records = records(id);
    if records.is_empty() {
        return reply(404, error_json("not_found", not_found));
    }
    let trace_id = Json::from(id.to_string());
    reply(
        200,
        Json::obj([("trace_id", trace_id), ("records", Json::Arr(records))]),
    )
}

/// Whether responses for this route may enter the dedup layer.
/// Health/stats/shutdown are live views and must never be replayed.
pub fn is_cacheable(method: &str, path: &str) -> bool {
    method == "POST" && matches!(path, "/v1/analyze" | "/v1/dse")
}

fn decode_body(body: &[u8]) -> Result<Json, Box<Reply>> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Box::new(Reply::bad_request("parse", "request body is not UTF-8")))?;
    if text.trim().is_empty() {
        return Err(Box::new(Reply::bad_request(
            "parse",
            "empty request body; expected a JSON object",
        )));
    }
    let v = Json::parse(text).map_err(|e| Box::new(Reply::bad_request("parse", e.to_string())))?;
    if v.as_obj().is_none() {
        return Err(Box::new(Reply::bad_request(
            "parse",
            "request body must be a JSON object",
        )));
    }
    Ok(v)
}

/// Decodes the fields shared by `analyze` and `dse`: the problem text and
/// the architecture override.
fn load_problem(req: &Json) -> Result<Problem, Box<Reply>> {
    let source = req.get("problem").and_then(Json::as_str).ok_or_else(|| {
        Box::new(Reply::bad_request(
            "usage",
            "missing string field `problem`",
        ))
    })?;
    let mut problem = parse_problem(source).map_err(|e| {
        Box::new(Reply::bad_request(
            "parse",
            format!("problem parse error\n{}", e.render(source)),
        ))
    })?;
    match (req.get("arch"), req.get("preset")) {
        (Some(_), Some(_)) => {
            return Err(Box::new(Reply::bad_request(
                "usage",
                "give either `arch` or `preset`, not both",
            )))
        }
        (Some(arch), None) => {
            let text = arch
                .as_str()
                .ok_or_else(|| Box::new(Reply::bad_request("usage", "`arch` must be a string")))?;
            let arch = parse_arch(text).map_err(|e| {
                Box::new(Reply::bad_request(
                    "parse",
                    format!("arch parse error\n{}", e.render(text)),
                ))
            })?;
            problem.arch = Some(arch);
        }
        (None, Some(preset)) => {
            let name = preset.as_str().ok_or_else(|| {
                Box::new(Reply::bad_request("usage", "`preset` must be a string"))
            })?;
            let arch = presets::by_name(name).ok_or_else(|| {
                Box::new(Reply::bad_request(
                    "usage",
                    format!(
                        "unknown preset `{name}` (known: {})",
                        presets::names().join(", ")
                    ),
                ))
            })?;
            problem.arch = Some(arch);
        }
        (None, None) => {}
    }
    Ok(problem)
}

fn require_arch(problem: &Problem) -> Result<&ArchSpec, Box<Reply>> {
    problem.arch.as_ref().ok_or_else(|| {
        Box::new(Reply::bad_request(
            "usage",
            "no architecture: add an `arch { ... }` block to the problem text, or pass \
             `arch` or `preset`",
        ))
    })
}

/// Optional non-negative integer field.
fn opt_u64(req: &Json, key: &str) -> Result<Option<u64>, Box<Reply>> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            Box::new(Reply::bad_request(
                "usage",
                format!("`{key}` must be a non-negative integer"),
            ))
        }),
    }
}

/// Combines the transport-level deadline with an optional `deadline_ms`
/// body field (the earlier of the two wins). The body spelling exists so
/// clients that cannot set headers still get deadline semantics.
fn effective_deadline(
    req: &Json,
    deadline: Option<Instant>,
) -> Result<Option<Instant>, Box<Reply>> {
    match opt_u64(req, "deadline_ms")? {
        None => Ok(deadline),
        Some(ms) => {
            let from_body = Instant::now() + Duration::from_millis(ms);
            Ok(Some(match deadline {
                Some(d) => d.min(from_body),
                None => from_body,
            }))
        }
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// `POST /v1/analyze` — one full performance report per selected
/// dataflow.
fn analyze(req: &Json, _state: &WorkerCore, deadline: Option<Instant>) -> Reply {
    let problem = match load_problem(req) {
        Ok(p) => p,
        Err(r) => return *r,
    };
    let arch = match require_arch(&problem) {
        Ok(a) => a,
        Err(r) => return *r,
    };
    if problem.dataflows.is_empty() {
        return Reply::bad_request("usage", "the problem text declares no dataflow");
    }
    let mut opts = AnalysisOptions::default();
    match opt_u64(req, "window") {
        Ok(Some(w)) if w <= u32::MAX as u64 => opts.reuse_window = w as u32,
        Ok(Some(_)) => return Reply::bad_request("usage", "`window` out of range"),
        Ok(None) => {}
        Err(r) => return *r,
    }
    let selected: Vec<(usize, &Dataflow)> = match opt_u64(req, "dataflow") {
        Ok(Some(n)) => {
            let n = n as usize;
            match problem.dataflows.get(n) {
                Some(df) => vec![(n, df)],
                None => {
                    return Reply::bad_request(
                        "usage",
                        format!(
                            "`dataflow` {n} out of range (problem has {})",
                            problem.dataflows.len()
                        ),
                    )
                }
            }
        }
        Ok(None) => problem.dataflows.iter().enumerate().collect(),
        Err(r) => return *r,
    };
    let deadline = match effective_deadline(req, deadline) {
        Ok(d) => d,
        Err(r) => return *r,
    };
    let mut reports = Vec::with_capacity(selected.len());
    let mut truncated = false;
    for (idx, df) in selected {
        // Check between dataflows: each analysis is an indivisible unit
        // of ISL work, so this is the finest safe cancellation point.
        if expired(deadline) {
            if reports.is_empty() {
                return Reply::deadline_exceeded();
            }
            truncated = true;
            break;
        }
        let report = Analysis::with_options(&problem.kernel, df, arch, opts.clone())
            .and_then(|a| a.report());
        match report {
            Ok(r) => {
                let mut obj = vec![("dataflow_index".to_string(), Json::from(idx))];
                if let Json::Obj(pairs) = export::to_json(&r) {
                    obj.extend(pairs);
                }
                reports.push(Json::Obj(obj));
            }
            Err(e) => return Reply::analysis(format!("dataflow #{idx}: {e}")),
        }
    }
    let mut body = vec![
        ("op".to_string(), Json::from(problem.kernel.name())),
        ("arch".to_string(), Json::from(arch.name.as_str())),
        ("reports".to_string(), Json::Arr(reports)),
    ];
    if truncated {
        // Appended only on the degraded path so complete responses stay
        // byte-identical with deadline-free ones.
        body.push(("truncated".to_string(), Json::from(true)));
        return Reply::degraded_ok(Json::Obj(body));
    }
    Reply::ok(Json::Obj(body))
}

/// `POST /v1/warm` — replication write-through from the sharding router:
/// stores a response computed by the key's primary owner in this worker's
/// dedup cache, so the key survives the primary's death as a warm hit
/// instead of a cold recompute. Body: `{"key": <canonical request
/// text>, "status": <u16>, "body": <response entity as a string>}`.
/// Never cacheable itself (see [`is_cacheable`]) and never proxied — it
/// addresses one specific replica.
fn warm(req: &Json, state: &WorkerCore) -> Reply {
    let key = match req.get("key").and_then(Json::as_str) {
        Some(k) if !k.is_empty() => k,
        _ => return Reply::bad_request("usage", "missing non-empty string field `key`"),
    };
    let status = match req.get("status").and_then(Json::as_u64) {
        Some(s) if (100..=599).contains(&s) => s as u16,
        _ => return Reply::bad_request("usage", "`status` must be an HTTP status in [100, 599]"),
    };
    let body = match req.get("body").and_then(Json::as_str) {
        Some(b) => b,
        None => return Reply::bad_request("usage", "missing string field `body`"),
    };
    state.dedup.insert(
        key,
        CachedResponse {
            status,
            body: Arc::new(body.as_bytes().to_vec()),
        },
    );
    Reply::ok(Json::obj([
        ("status", Json::from("warmed")),
        ("entries", Json::from(state.dedup.stats().entries)),
    ]))
}

/// `GET /v1/snapshot[?section=dedup|isl]` — the warm-state payload as
/// JSON: the response LRU (and/or) the ISL memo context in re-parseable
/// text form. This is what the router's ring-change warm shipper reads
/// from surviving owners (`section=dedup`), and what operators can pull
/// for ad-hoc state inspection. Never cacheable (see [`is_cacheable`]):
/// it is a live view.
fn snapshot_get(path: &str, state: &WorkerCore) -> Reply {
    let query = path.split_once('?').map(|(_, q)| q);
    let section = query.and_then(|q| q.split('&').find_map(|kv| kv.strip_prefix("section=")));
    match crate::snapshot::Section::parse(section) {
        Some(s) => Reply::ok(crate::snapshot::capture(state, s)),
        None => Reply::bad_request(
            "usage",
            format!(
                "bad `section` value `{}` (known: dedup, isl)",
                section.unwrap_or_default()
            ),
        ),
    }
}

/// `POST /v1/snapshot` — capture the full warm state and write it to the
/// configured snapshot file (atomic tmp+rename). 400 when the worker was
/// booted without `--snapshot-file`.
fn snapshot_save(state: &WorkerCore) -> Reply {
    let Some(path) = state.config.snapshot_file.as_deref() else {
        return Reply::bad_request(
            "usage",
            "no snapshot file configured; boot with --snapshot-file PATH",
        );
    };
    match crate::snapshot::save_to_file(state, path) {
        Ok(report) => Reply::ok(Json::obj([
            ("status", Json::from("saved")),
            ("path", Json::from(path.display().to_string())),
            ("bytes", Json::from(report.bytes)),
            ("dedup_entries", Json::from(report.dedup_entries)),
            ("isl_memo", Json::from(report.isl_memo)),
        ])),
        Err(e) => Reply::error(500, "io", format!("snapshot write failed: {e}")),
    }
}

/// Upper bound on the `threads` a single `/v1/dse` request may ask
/// `explore_parallel` for.
const DSE_THREAD_CAP: usize = 8;

/// The keys a `/v1/dse` point object carries; the `fields` filter
/// selects a subset of these.
const POINT_FIELDS: [&str; 4] = ["dataflow", "latency", "sbw", "report"];

/// The half-open index range `offset`/`limit` select out of `len` ranked
/// points. An offset past the end and a zero limit are both valid and
/// yield an empty page; the end saturates at `len`.
fn page_bounds(len: usize, offset: usize, limit: usize) -> (usize, usize) {
    let start = offset.min(len);
    let end = start.saturating_add(limit).min(len);
    (start, end)
}

/// Decodes the optional `fields` filter: an array of point-object keys.
/// Unknown keys and non-string entries are usage errors (a typo silently
/// dropping a field would be much harder to notice than a 400).
fn parse_fields(req: &Json) -> Result<Option<Vec<String>>, Box<Reply>> {
    match req.get("fields") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Arr(items)) => {
            let mut fields = Vec::with_capacity(items.len());
            for item in items {
                let name = item.as_str().ok_or_else(|| {
                    Box::new(Reply::bad_request(
                        "usage",
                        "`fields` entries must be strings",
                    ))
                })?;
                if !POINT_FIELDS.contains(&name) {
                    return Err(Box::new(Reply::bad_request(
                        "usage",
                        format!(
                            "unknown field `{name}` (known: {})",
                            POINT_FIELDS.join(", ")
                        ),
                    )));
                }
                if !fields.iter().any(|f| f == name) {
                    fields.push(name.to_string());
                }
            }
            Ok(Some(fields))
        }
        Some(_) => Err(Box::new(Reply::bad_request(
            "usage",
            "`fields` must be an array of strings",
        ))),
    }
}

/// Projects one serialized point onto the selected fields, preserving the
/// point's own key order so responses stay canonical.
fn select_fields(point: Json, fields: &[String]) -> Json {
    match point {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| fields.iter().any(|f| f == k))
                .collect(),
        ),
        other => other,
    }
}

/// `POST /v1/dse` — enumerate candidate dataflows under hardware
/// constraints, evaluate them in parallel until the deadline, return the
/// ranked points and the latency/SBW Pareto frontier.
fn dse(req: &Json, deadline: Option<Instant>) -> Reply {
    let problem = match load_problem(req) {
        Ok(p) => p,
        Err(r) => return *r,
    };
    let arch = match require_arch(&problem) {
        Ok(a) => a,
        Err(r) => return *r,
    };
    let pe = match opt_u64(req, "pe") {
        Ok(Some(p)) if (1..=1 << 20).contains(&p) => p as i64,
        Ok(Some(p)) => {
            return Reply::bad_request("usage", format!("`pe` {p} out of range [1, 2^20]"))
        }
        Ok(None) => *arch.pe_dims.first().unwrap_or(&8),
        Err(r) => return *r,
    };
    // `limit` + `offset` paginate the ranked points; `top` is the older
    // spelling of `limit` (kept for existing clients, same cap).
    let limit = match (opt_u64(req, "limit"), opt_u64(req, "top")) {
        (Ok(Some(_)), Ok(Some(_))) => {
            return Reply::bad_request("usage", "give either `limit` or `top`, not both")
        }
        (Ok(Some(l)), Ok(None)) | (Ok(None), Ok(Some(l))) => (l as usize).min(1000),
        (Ok(None), Ok(None)) => 10,
        (Err(r), _) | (_, Err(r)) => return *r,
    };
    let offset = match opt_u64(req, "offset") {
        Ok(Some(o)) => o.min(usize::MAX as u64) as usize,
        Ok(None) => 0,
        Err(r) => return *r,
    };
    let fields = match parse_fields(req) {
        Ok(f) => f,
        Err(r) => return *r,
    };
    let threads = match opt_u64(req, "threads") {
        Ok(Some(t)) if t >= 1 => (t as usize).min(DSE_THREAD_CAP),
        Ok(Some(_)) => return Reply::bad_request("usage", "`threads` must be >= 1"),
        Ok(None) => DSE_THREAD_CAP.min(4),
        Err(r) => return *r,
    };
    let deadline = match effective_deadline(req, deadline) {
        Ok(d) => d,
        Err(r) => return *r,
    };
    if expired(deadline) {
        return Reply::deadline_exceeded();
    }
    let pe1d = arch.pe_count().min(i64::MAX as u128) as i64;
    let candidates = match enumerate_all(&problem.kernel, pe, pe1d) {
        Ok(c) => c,
        Err(e) => return Reply::analysis(format!("enumeration failed: {e}")),
    };
    let (points, tried) =
        match explore_parallel(&problem.kernel, arch, &candidates, threads, deadline) {
            Ok(r) => r,
            Err(e) => return Reply::analysis(format!("exploration failed: {e}")),
        };
    // Under a deadline, how far the sweep got lands on the request's
    // trace timeline.
    if deadline.is_some() && tenet_core::obs::is_active() {
        tenet_core::obs::add_event("dse_sweep", format!("{tried}/{}", candidates.len()));
    }
    let truncated = tried < candidates.len();
    if truncated && tried == 0 {
        return Reply::deadline_exceeded();
    }
    let frontier = pareto(&points);
    let project = |p: &tenet_dse::DesignPoint| match &fields {
        Some(f) => select_fields(p.to_json(), f),
        None => p.to_json(),
    };
    let (start, end) = page_bounds(points.len(), offset, limit);
    let mut body = vec![
        ("op".to_string(), Json::from(problem.kernel.name())),
        ("arch".to_string(), Json::from(arch.name.as_str())),
        ("explored".to_string(), Json::from(candidates.len())),
        ("valid".to_string(), Json::from(points.len())),
        ("offset".to_string(), Json::from(start)),
        ("limit".to_string(), Json::from(limit)),
        (
            "points".to_string(),
            Json::Arr(points[start..end].iter().map(project).collect()),
        ),
        (
            "pareto".to_string(),
            Json::Arr(frontier.iter().map(|p| project(p)).collect()),
        ),
    ];
    if truncated {
        // The partial frontier is explicitly marked; full responses stay
        // byte-identical with the deadline-free encoding.
        body.push(("truncated".to_string(), Json::from(true)));
        return Reply::degraded_ok(Json::Obj(body));
    }
    Reply::ok(Json::Obj(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_bounds_boundary_cases() {
        // Plain page inside the range.
        assert_eq!(page_bounds(10, 2, 3), (2, 5));
        // Limit runs past the end: truncated, not an error.
        assert_eq!(page_bounds(10, 8, 5), (8, 10));
        // Offset exactly at / past the end: empty page anchored at len.
        assert_eq!(page_bounds(10, 10, 3), (10, 10));
        assert_eq!(page_bounds(10, 9999, 3), (10, 10));
        // Limit 0: empty page at the requested offset.
        assert_eq!(page_bounds(10, 4, 0), (4, 4));
        // Empty result set.
        assert_eq!(page_bounds(0, 0, 10), (0, 0));
        // offset + limit overflowing usize must saturate, not wrap.
        assert_eq!(page_bounds(10, usize::MAX, usize::MAX), (10, 10));
        assert_eq!(page_bounds(10, 1, usize::MAX), (1, 10));
    }

    #[test]
    fn parse_fields_accepts_known_and_rejects_unknown() {
        let req = Json::parse(r#"{"fields": ["latency", "sbw"]}"#).unwrap();
        let fields = parse_fields(&req).unwrap().unwrap();
        assert_eq!(fields, vec!["latency".to_string(), "sbw".to_string()]);

        // Duplicates collapse.
        let req = Json::parse(r#"{"fields": ["latency", "latency"]}"#).unwrap();
        assert_eq!(parse_fields(&req).unwrap().unwrap().len(), 1);

        // Absent / null means "no filter".
        assert!(parse_fields(&Json::parse("{}").unwrap()).unwrap().is_none());
        let req = Json::parse(r#"{"fields": null}"#).unwrap();
        assert!(parse_fields(&req).unwrap().is_none());

        // Unknown field is a usage error naming the known set.
        let req = Json::parse(r#"{"fields": ["latency", "bogus"]}"#).unwrap();
        let reply = parse_fields(&req).unwrap_err();
        assert_eq!(reply.status, 400);
        let msg = reply.body.to_string();
        assert!(msg.contains("bogus") && msg.contains("dataflow"), "{msg}");

        // Non-string entries and non-array shapes are usage errors.
        let req = Json::parse(r#"{"fields": [1]}"#).unwrap();
        assert_eq!(parse_fields(&req).unwrap_err().status, 400);
        let req = Json::parse(r#"{"fields": "latency"}"#).unwrap();
        assert_eq!(parse_fields(&req).unwrap_err().status, 400);
    }

    #[test]
    fn select_fields_projects_in_point_order() {
        let point =
            Json::parse(r#"{"dataflow": {"name": null}, "latency": 3.0, "sbw": 1.5}"#).unwrap();
        // Filter order must not matter: the point's own order wins.
        let fields = vec!["sbw".to_string(), "latency".to_string()];
        let projected = select_fields(point, &fields);
        assert_eq!(projected.to_string(), r#"{"latency":3,"sbw":1.5}"#);
    }
}
