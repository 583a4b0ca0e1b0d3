//! `promcheck` — conformance checker for the observability surface.
//!
//! Points at a running `tenet serve` or `tenet route` and asserts two
//! contracts end to end:
//!
//! 1. **`GET /metrics` is well-formed Prometheus text**: every sample
//!    line parses, every sample belongs to a `# TYPE`-declared family,
//!    and every histogram family is internally consistent — bucket
//!    counts monotone nondecreasing along increasing `le` bounds, a
//!    terminal `le="+Inf"` bucket, and a `_count` series equal to it,
//!    with `_sum` present. This is what a real scraper would require.
//!    Every family `tenet_server::stats` declares for workers must be
//!    present; the per-process `tenet_process_*` ones only when the
//!    target is a single worker (no `tenet_router_*` family), since a
//!    router's merge drops them.
//! 2. **Traces assemble across tiers**: one `POST /v1/analyze` is sent
//!    with an explicit `X-Tenet-Trace-Id`, the response must echo it,
//!    and `GET /v1/trace/<id>` must return a timeline with at least
//!    `--min-spans` spans (default 4) spanning at least `--min-tiers`
//!    distinct tiers (default 2 — router plus worker; pass
//!    `--min-tiers 1` for a single-process worker target).
//!
//! Exits 0 when both hold, 1 on usage errors, 2 on a failed assertion —
//! the CI `obs-smoke` gate.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;
use tenet_core::json::Json;
use tenet_server::http::{Headers, ResponseReader};
use tenet_server::stats;

/// The explicit trace id the probe request carries (16 hex digits, so
/// the echoed header must match it byte for byte).
const TRACE_ID: &str = "feedfacecafebeef";

fn main() {
    let mut target = None;
    let mut min_spans = 4usize;
    let mut min_tiers = 2usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--min-spans" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => min_spans = n,
                None => usage("--min-spans needs an integer"),
            },
            "--min-tiers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => min_tiers = n,
                None => usage("--min-tiers needs an integer"),
            },
            other if !other.starts_with("--") && target.is_none() => {
                target = Some(other.to_string())
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let Some(target) = target else {
        usage("missing target");
    };
    let addr = target
        .trim_start_matches("http://")
        .trim_end_matches('/')
        .to_string();

    let metrics = match request(&addr, "GET", "/metrics", "", &[]) {
        Ok((200, _, body)) => String::from_utf8_lossy(&body).into_owned(),
        Ok((status, _, _)) => fail(&format!("GET /metrics returned {status}")),
        Err(e) => fail(&format!("GET /metrics failed: {e}")),
    };
    match check_exposition(&metrics) {
        Ok(summary) => println!("promcheck: /metrics ok ({summary})"),
        Err(e) => fail(&format!("/metrics malformed: {e}")),
    }

    match check_trace(&addr, min_spans, min_tiers) {
        Ok(summary) => println!("promcheck: trace ok ({summary})"),
        Err(e) => fail(&format!("trace check failed: {e}")),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("promcheck: {msg}");
    eprintln!("usage: promcheck http://HOST:PORT [--min-spans N] [--min-tiers N]");
    std::process::exit(1);
}

fn fail(msg: &str) -> ! {
    eprintln!("promcheck: FAILED: {msg}");
    std::process::exit(2);
}

/// One request on a fresh connection; returns status, lowercased
/// headers, body.
fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<(u16, Headers, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let mut reader = ResponseReader::new(stream.try_clone()?);
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: promcheck\r\n");
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!(
        "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    ));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    reader.next_response_with_headers()
}

/// One parsed sample line: family-qualified name, labels, value.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_labels, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("no value separator in `{line}`"))?;
    let value: f64 = value
        .parse()
        .map_err(|_| format!("unparseable value in `{line}`"))?;
    let (name, labels) = match name_labels.split_once('{') {
        None => (name_labels.to_string(), Vec::new()),
        Some((name, rest)) => {
            let inner = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated label set in `{line}`"))?;
            let mut labels = Vec::new();
            for pair in inner.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("bad label `{pair}` in `{line}`"))?;
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("unquoted label value in `{line}`"))?;
                labels.push((k.to_string(), v.to_string()));
            }
            (name.to_string(), labels)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(format!("bad metric name in `{line}`"));
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

/// The family a sample belongs to: histogram series map back to the
/// declared base name.
fn family_of(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return base;
        }
    }
    name
}

/// Validates a Prometheus text exposition; returns a short summary.
fn check_exposition(text: &str) -> Result<String, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or("empty TYPE line")?;
            let kind = it
                .next()
                .ok_or_else(|| format!("TYPE `{name}` has no kind"))?;
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("family `{name}` declared twice"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        samples.push(parse_sample(line)?);
    }
    if samples.is_empty() {
        return Err("no samples".into());
    }

    // Every sample must belong to a declared family, and histogram
    // series suffixes must only hang off histogram families.
    for s in &samples {
        let family = family_of(&s.name);
        let declared = types
            .get(family)
            .or_else(|| types.get(&s.name))
            .ok_or_else(|| format!("sample `{}` has no # TYPE declaration", s.name))?;
        if s.name != family && !types.contains_key(&s.name) && declared != "histogram" {
            return Err(format!(
                "series `{}` hangs off non-histogram family `{family}`",
                s.name
            ));
        }
    }

    // Histogram internal consistency, per label-set (minus `le`).
    let mut histograms = 0usize;
    for (family, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        histograms += 1;
        // Buckets grouped by their non-le labels, in exposition order.
        let mut groups: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        let group_key = |labels: &[(String, String)]| {
            labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        for s in samples
            .iter()
            .filter(|s| s.name == format!("{family}_bucket"))
        {
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("`{family}_bucket` sample without le label"))?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse()
                    .map_err(|_| format!("`{family}` has unparseable le `{le}`"))?
            };
            groups
                .entry(group_key(&s.labels))
                .or_default()
                .push((bound, s.value));
        }
        if groups.is_empty() {
            return Err(format!("histogram `{family}` has no buckets"));
        }
        for (key, buckets) in &groups {
            let mut prev_bound = f64::NEG_INFINITY;
            let mut prev_count = -1.0;
            for &(bound, count) in buckets {
                if bound <= prev_bound {
                    return Err(format!("`{family}{{{key}}}` le bounds not increasing"));
                }
                if count < prev_count {
                    return Err(format!("`{family}{{{key}}}` bucket counts not cumulative"));
                }
                (prev_bound, prev_count) = (bound, count);
            }
            if prev_bound != f64::INFINITY {
                return Err(format!("`{family}{{{key}}}` missing le=\"+Inf\" bucket"));
            }
            let count_series = samples
                .iter()
                .find(|s| s.name == format!("{family}_count") && group_key(&s.labels) == *key)
                .ok_or_else(|| format!("`{family}{{{key}}}` has no _count series"))?;
            if count_series.value != prev_count {
                return Err(format!(
                    "`{family}{{{key}}}` _count {} != +Inf bucket {prev_count}",
                    count_series.value
                ));
            }
            if !samples
                .iter()
                .any(|s| s.name == format!("{family}_sum") && group_key(&s.labels) == *key)
            {
                return Err(format!("`{family}{{{key}}}` has no _sum series"));
            }
        }
    }
    if histograms == 0 {
        return Err("no histogram families".into());
    }
    // Every family the worker tier declares must be exposed. A router's
    // merge drops the per-process families, so only a single-worker
    // target (no router family) must carry those too.
    let router = types.keys().any(|f| f.starts_with("tenet_router_"));
    for family in stats::worker_families() {
        let required = !(router && stats::per_process(family));
        if required && !types.contains_key(family) {
            return Err(format!("missing declared family `{family}`"));
        }
    }
    Ok(format!(
        "{} samples, {} families, {histograms} histogram(s)",
        samples.len(),
        types.len()
    ))
}

/// Sends a traced analyze request, then asserts the assembled timeline
/// is deep and wide enough.
fn check_trace(addr: &str, min_spans: usize, min_tiers: usize) -> Result<String, String> {
    let problem = "for (i = 0; i < 4; i++)\n\
         \x20 for (j = 0; j < 4; j++)\n\
         \x20   for (k = 0; k < 4; k++)\n\
         \x20     S: Y[i][j] += A[i][k] * B[k][j];\n\n\
         { S[i,j,k] -> (PE[i,j] | T[i + j + k]) }\n\n\
         arch \"4x4\" { array = [4, 4] interconnect = systolic2d bandwidth = 8 }\n";
    let body = Json::obj([("problem", Json::from(problem))]).to_string();
    let (status, headers, _) = request(
        addr,
        "POST",
        "/v1/analyze",
        &body,
        &[("X-Tenet-Trace-Id", TRACE_ID)],
    )
    .map_err(|e| format!("traced analyze failed: {e}"))?;
    if status != 200 {
        return Err(format!("traced analyze returned {status}"));
    }
    let echoed = headers
        .iter()
        .find(|(k, _)| k == "x-tenet-trace-id")
        .map(|(_, v)| v.as_str())
        .ok_or("response did not echo X-Tenet-Trace-Id")?;
    if echoed != TRACE_ID {
        return Err(format!("echoed trace id `{echoed}` != `{TRACE_ID}`"));
    }

    let (status, _, body) = request(addr, "GET", &format!("/v1/trace/{TRACE_ID}"), "", &[])
        .map_err(|e| format!("trace fetch failed: {e}"))?;
    if status != 200 {
        return Err(format!("GET /v1/trace/{TRACE_ID} returned {status}"));
    }
    let doc = Json::parse(std::str::from_utf8(&body).map_err(|e| e.to_string())?)
        .map_err(|e| format!("trace body is not JSON: {e}"))?;
    let records = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("trace body has no records array")?;
    let mut spans = 0usize;
    let mut tiers = BTreeSet::new();
    for rec in records {
        if let Some(tier) = rec.get("tier").and_then(Json::as_str) {
            tiers.insert(tier.to_string());
        }
        spans += rec
            .get("spans")
            .and_then(Json::as_arr)
            .map(<[Json]>::len)
            .unwrap_or(0);
    }
    if spans < min_spans {
        return Err(format!("only {spans} span(s), need >= {min_spans}"));
    }
    if tiers.len() < min_tiers {
        return Err(format!(
            "only {} tier(s) ({:?}), need >= {min_tiers}",
            tiers.len(),
            tiers
        ));
    }
    Ok(format!(
        "{} record(s), {spans} spans across tiers {:?}",
        records.len(),
        tiers
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenet_server::stats::{ProcessMetrics, WorkerMetrics};

    #[test]
    fn every_declared_worker_family_is_required() {
        let worker = WorkerMetrics {
            process: Some(ProcessMetrics::default()),
            ..WorkerMetrics::default()
        };
        let text = worker.prometheus().into_string();
        assert!(check_exposition(&text).is_ok(), "a worker's own exposition");
        // Without the per-process section, only a router may omit the
        // `tenet_process_*` families.
        let merged = WorkerMetrics::default().prometheus().into_string();
        let err = check_exposition(&merged).unwrap_err();
        assert!(err.contains("tenet_process_"), "{err}");
        let router = format!(
            "{merged}# TYPE tenet_router_requests_total counter\ntenet_router_requests_total 1\n"
        );
        assert!(check_exposition(&router).is_ok());
        // A worker family missing from the text fails the check.
        let dropped: String = text
            .lines()
            .filter(|l| !l.contains("tenet_worker_dedup_warmed_total"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = check_exposition(&dropped).unwrap_err();
        assert!(err.contains("tenet_worker_dedup_warmed_total"), "{err}");
    }
}
