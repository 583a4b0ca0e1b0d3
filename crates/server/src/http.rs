//! A minimal, allocation-light HTTP/1.1 codec on raw byte streams.
//!
//! The service only needs the subset real clients (curl, load
//! generators, sidecars) actually send: `GET`/`POST` with an optional
//! `Content-Length` body, keep-alive, and pipelining. The parser is
//! incremental — bytes are [fed](RequestBuffer::feed) as they arrive off
//! the socket and requests are [drained](RequestBuffer::next_request) as soon as
//! they are complete — so split reads, coalesced reads, and pipelined
//! request bursts all parse identically. Hard limits on header and body
//! size bound memory per connection against untrusted peers.

use std::io::Read;
use std::time::{Duration, Instant};
use tenet_core::obs::TraceId;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercase as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path + optional query), as sent.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// Remaining time budget from `X-Tenet-Deadline-Ms`, if the client
    /// sent one. The value must be a positive integer that fits in
    /// `u64`: non-numeric, zero, and overflowing values are rejected
    /// with a 400 — a silently dropped deadline would make the request
    /// run unbounded, which is the opposite of what the client asked.
    pub deadline_ms: Option<u64>,
    /// Client identity from `X-Tenet-Client`, when present. The router
    /// keys per-client admission control on this, falling back to the
    /// peer IP.
    pub client: Option<String>,
    /// Raw trace id from `X-Tenet-Trace-Id`, when present. Validation
    /// (hex, non-zero) happens at the edge: a garbled id degrades to a
    /// freshly generated one rather than failing the request.
    pub trace_id: Option<String>,
}

impl Request {
    /// The request's trace id, resolved at the edge of a tier: a
    /// client-sent id is adopted (a garbled one degrades to a fresh id
    /// rather than an error), and a header-less request stays untraced —
    /// span recording is opt-in per request, so the untraced hot path
    /// pays nothing (always-on recording measurably cost ~9% router
    /// throughput).
    pub fn resolve_trace_id(&self) -> Option<u64> {
        self.trace_id
            .as_deref()
            .map(|text| TraceId::parse(text).unwrap_or_else(TraceId::generate).0)
    }

    /// The request's deadline, anchored now. Call it the moment the
    /// request is fully parsed: queueing, routing, and compute debit the
    /// budget from here on, network transfer before this point does not.
    pub fn anchor_deadline(&self) -> Option<Instant> {
        self.deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms))
    }
}

/// Protocol violations the connection loop turns into 4xx responses
/// (and then closes the connection — framing is unrecoverable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header, or length framing → 400.
    BadRequest(String),
    /// Declared or accumulated body beyond the limit → 413.
    PayloadTooLarge,
    /// Header block beyond the limit → 431.
    HeadersTooLarge,
    /// A framing feature the codec does not speak (chunked bodies) → 501.
    Unsupported(String),
}

impl HttpError {
    /// The response status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::PayloadTooLarge => 413,
            HttpError::HeadersTooLarge => 431,
            HttpError::Unsupported(_) => 501,
        }
    }

    /// Human-readable description for the error body.
    pub fn message(&self) -> String {
        match self {
            HttpError::BadRequest(m) => format!("bad request: {m}"),
            HttpError::PayloadTooLarge => "request body exceeds the size limit".into(),
            HttpError::HeadersTooLarge => "request headers exceed the size limit".into(),
            HttpError::Unsupported(m) => format!("unsupported: {m}"),
        }
    }
}

/// Incremental request parser over a growing byte buffer.
pub struct RequestBuffer {
    buf: Vec<u8>,
    max_head: usize,
    max_body: usize,
}

impl RequestBuffer {
    /// A parser enforcing the given header-block and body size limits.
    pub fn new(max_head: usize, max_body: usize) -> RequestBuffer {
        RequestBuffer {
            buf: Vec::new(),
            max_head,
            max_body,
        }
    }

    /// Appends bytes read from the connection.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Reads once from `r` into the buffer; returns the byte count.
    pub fn fill_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        let mut chunk = [0u8; 16 * 1024];
        let n = r.read(&mut chunk)?;
        self.feed(&chunk[..n]);
        Ok(n)
    }

    /// Extracts the next complete request, if the buffer holds one.
    ///
    /// `Ok(None)` means "need more bytes". Errors are fatal for the
    /// connection: the buffer contents are no longer trustworthy framing.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        let Some(head_end) = find_head_end(&self.buf) else {
            if self.buf.len() > self.max_head {
                return Err(HttpError::HeadersTooLarge);
            }
            return Ok(None);
        };
        if head_end > self.max_head {
            return Err(HttpError::HeadersTooLarge);
        }
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| HttpError::BadRequest("non-UTF-8 header block".into()))?;
        let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_ascii_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?;
        let path = parts
            .next()
            .ok_or_else(|| HttpError::BadRequest("missing request target".into()))?;
        let version = parts
            .next()
            .ok_or_else(|| HttpError::BadRequest("missing HTTP version".into()))?;
        if parts.next().is_some() {
            return Err(HttpError::BadRequest("malformed request line".into()));
        }
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(HttpError::BadRequest(format!(
                "unsupported version `{version}`"
            )));
        }

        let mut content_length: Option<usize> = None;
        // HTTP/1.1 defaults to keep-alive, 1.0 to close.
        let mut keep_alive = version == "HTTP/1.1";
        let mut deadline_ms: Option<u64> = None;
        let mut client: Option<String> = None;
        let mut trace_id: Option<String> = None;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| HttpError::BadRequest(format!("malformed header `{line}`")))?;
            let value = value.trim();
            if name.trim() != name || name.is_empty() {
                return Err(HttpError::BadRequest(format!("malformed header `{line}`")));
            }
            if name.eq_ignore_ascii_case("content-length") {
                // RFC 9110 grammar is DIGIT-only; `usize::from_str` alone
                // would also accept a leading `+`, and any leniency here
                // is a framing disagreement (request smuggling) with
                // stricter proxies in front.
                if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(HttpError::BadRequest(format!(
                        "bad content-length `{value}`"
                    )));
                }
                let n: usize = value
                    .parse()
                    .map_err(|_| HttpError::BadRequest(format!("bad content-length `{value}`")))?;
                if let Some(prev) = content_length {
                    if prev != n {
                        return Err(HttpError::BadRequest(
                            "conflicting content-length headers".into(),
                        ));
                    }
                }
                content_length = Some(n);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                if !value.eq_ignore_ascii_case("identity") {
                    return Err(HttpError::Unsupported(format!(
                        "transfer-encoding `{value}`"
                    )));
                }
            } else if name.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            } else if name.eq_ignore_ascii_case("x-tenet-deadline-ms") {
                // Digits-only (RFC-style), nonzero, and within u64: a
                // garbled or zero deadline is a client bug — rejecting it
                // beats silently running the request unbounded.
                let parsed = if !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit()) {
                    value.parse::<u64>().ok()
                } else {
                    None
                };
                match parsed {
                    Some(ms) if ms > 0 => deadline_ms = Some(ms),
                    _ => {
                        return Err(HttpError::BadRequest(format!(
                            "bad x-tenet-deadline-ms `{value}`: expected a positive integer \
                             of milliseconds"
                        )))
                    }
                }
            } else if name.eq_ignore_ascii_case("x-tenet-client") && !value.is_empty() {
                client = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("x-tenet-trace-id") && !value.is_empty() {
                trace_id = Some(value.to_string());
            }
        }

        let body_len = content_length.unwrap_or(0);
        if body_len > self.max_body {
            return Err(HttpError::PayloadTooLarge);
        }
        let total = head_end + body_len;
        if self.buf.len() < total {
            return Ok(None); // body still in flight
        }
        let request = Request {
            method: method.to_string(),
            path: path.to_string(),
            body: self.buf[head_end..total].to_vec(),
            keep_alive,
            deadline_ms,
            client,
            trace_id,
        };
        // Drop the consumed request; pipelined successors stay buffered.
        self.buf.drain(..total);
        Ok(Some(request))
    }
}

/// Finds the end of the header block (index one past the blank line),
/// accepting both CRLF and bare-LF line endings.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            let rest = &buf[i + 1..];
            if rest.first() == Some(&b'\n') {
                return Some(i + 2);
            }
            if rest.first() == Some(&b'\r') && rest.get(1) == Some(&b'\n') {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// Reason phrases for the statuses the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Encodes a complete response with `Content-Length` framing.
pub fn encode_response(status: u16, content_type: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    encode_response_with(status, content_type, body, keep_alive, &[])
}

/// [`encode_response`] with extra response headers — the shed and
/// admission paths use this to attach `Retry-After` so well-behaved
/// clients back off uniformly.
pub fn encode_response_with(
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra: &[(&str, String)],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body);
    out
}

/// Response headers as `(lowercased-name, trimmed-value)` pairs, in
/// wire order.
pub type Headers = Vec<(String, String)>;

/// A buffered client-side response reader — the mirror of
/// [`RequestBuffer`], shared by the end-to-end tests and the `servload`
/// generator. Bytes over-read past one response are kept for the next
/// call, so pipelined responses on a keep-alive connection all parse.
/// Only `Content-Length` framing is understood, which is exactly what
/// [`encode_response`] emits.
pub struct ResponseReader<R> {
    r: R,
    buf: Vec<u8>,
}

impl<R: Read> ResponseReader<R> {
    /// Wraps a readable connection.
    pub fn new(r: R) -> ResponseReader<R> {
        ResponseReader { r, buf: Vec::new() }
    }

    /// Reads the next full response: `(status, body)`.
    pub fn next_response(&mut self) -> std::io::Result<(u16, Vec<u8>)> {
        self.next_response_with_headers()
            .map(|(status, _headers, body)| (status, body))
    }

    /// Reads the next full response keeping its headers:
    /// `(status, headers, body)`. Header names are lowercased; the load
    /// generator uses this to collect `Server-Timing` phase breakdowns.
    pub fn next_response_with_headers(&mut self) -> std::io::Result<(u16, Headers, Vec<u8>)> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(e) = find_head_end(&self.buf) {
                break e;
            }
            let n = self.r.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed before response head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_ascii_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        let mut headers = Vec::new();
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
                headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let total = head_end + content_length;
        while self.buf.len() < total {
            let n = self.r.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end..total].to_vec();
        self.buf.drain(..total);
        Ok((status, headers, body))
    }
}

/// Reads one response from `r` (convenience for close-delimited
/// one-shot connections; for keep-alive reuse [`ResponseReader`]).
pub fn read_response(r: &mut impl Read) -> std::io::Result<(u16, Vec<u8>)> {
    ResponseReader::new(r).next_response()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> (Vec<Request>, Option<HttpError>) {
        let mut rb = RequestBuffer::new(8 * 1024, 64 * 1024);
        rb.feed(bytes);
        let mut out = Vec::new();
        loop {
            match rb.next_request() {
                Ok(Some(r)) => out.push(r),
                Ok(None) => return (out, None),
                Err(e) => return (out, Some(e)),
            }
        }
    }

    #[test]
    fn simple_get_parses() {
        let (reqs, err) = parse_all(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(err.is_none());
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "GET");
        assert_eq!(reqs[0].path, "/v1/healthz");
        assert!(reqs[0].keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(reqs[0].body.is_empty());
    }

    #[test]
    fn split_reads_reassemble() {
        let raw = b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
        // Feed one byte at a time: the request must appear exactly once,
        // only after the final byte.
        let mut rb = RequestBuffer::new(8 * 1024, 64 * 1024);
        for (i, b) in raw.iter().enumerate() {
            rb.feed(&[*b]);
            let got = rb.next_request().unwrap();
            if i + 1 < raw.len() {
                assert!(got.is_none(), "premature request at byte {i}");
            } else {
                let r = got.expect("request must complete on last byte");
                assert_eq!(r.body, b"hello world");
            }
        }
    }

    #[test]
    fn pipelined_requests_all_parse() {
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n\r\n\
                    POST /c HTTP/1.1\r\nContent-Length: 2\r\nConnection: close\r\n\r\nxy";
        let (reqs, err) = parse_all(raw);
        assert!(err.is_none());
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].body, b"abc");
        assert_eq!(reqs[1].method, "GET");
        assert_eq!(reqs[1].path, "/b");
        assert_eq!(reqs[2].body, b"xy");
        assert!(!reqs[2].keep_alive);
    }

    #[test]
    fn oversized_declared_body_is_rejected() {
        let mut rb = RequestBuffer::new(8 * 1024, 16);
        rb.feed(b"POST /a HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
        assert_eq!(rb.next_request(), Err(HttpError::PayloadTooLarge));
    }

    #[test]
    fn oversized_headers_are_rejected_even_incomplete() {
        let mut rb = RequestBuffer::new(64, 1024);
        // No blank line yet, but already past the header cap: an attacker
        // must not be able to buffer unbounded header bytes.
        rb.feed(&[b'A'; 100]);
        assert_eq!(rb.next_request(), Err(HttpError::HeadersTooLarge));
    }

    #[test]
    fn bad_content_length_values_are_rejected() {
        for bad in ["-1", "+17", "abc", "1 2", "0x10", ""] {
            let raw = format!("POST /a HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            let (reqs, err) = parse_all(raw.as_bytes());
            assert!(reqs.is_empty());
            assert!(
                matches!(err, Some(HttpError::BadRequest(_))),
                "content-length {bad:?} must be a 400"
            );
        }
        // Conflicting duplicates are rejected; agreeing duplicates pass.
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n";
        assert!(matches!(parse_all(raw).1, Some(HttpError::BadRequest(_))));
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok";
        let (reqs, err) = parse_all(raw);
        assert!(err.is_none());
        assert_eq!(reqs[0].body, b"ok");
    }

    #[test]
    fn chunked_bodies_are_unsupported() {
        let raw = b"POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(matches!(parse_all(raw).1, Some(HttpError::Unsupported(_))));
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for bad in [
            "GET\r\n\r\n",
            "GET /a\r\n\r\n",
            "GET /a HTTP/2.0\r\n\r\n",
            "GET /a HTTP/1.1 extra\r\n\r\n",
        ] {
            assert!(
                matches!(parse_all(bad.as_bytes()).1, Some(HttpError::BadRequest(_))),
                "must reject {bad:?}"
            );
        }
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let (reqs, err) = parse_all(b"GET /v1/stats HTTP/1.1\nHost: x\n\n");
        assert!(err.is_none());
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].path, "/v1/stats");
    }

    #[test]
    fn http_1_0_defaults_to_close() {
        let (reqs, _) = parse_all(b"GET /a HTTP/1.0\r\n\r\n");
        assert!(!reqs[0].keep_alive);
        let (reqs, _) = parse_all(b"GET /a HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(reqs[0].keep_alive);
    }

    #[test]
    fn deadline_and_client_headers_parse_case_insensitively() {
        let (reqs, err) = parse_all(
            b"POST /v1/dse HTTP/1.1\r\nx-tenet-deadline-ms: 250\r\n\
              X-Tenet-Client: tenant-a\r\nContent-Length: 2\r\n\r\n{}",
        );
        assert!(err.is_none());
        assert_eq!(reqs[0].deadline_ms, Some(250));
        assert_eq!(reqs[0].client.as_deref(), Some("tenant-a"));
        // Trace ids are carried through verbatim (validated at the edge).
        let (reqs, err) = parse_all(b"GET /a HTTP/1.1\r\nx-tenet-trace-id: 00c0ffee\r\n\r\n");
        assert!(err.is_none());
        assert_eq!(reqs[0].trace_id.as_deref(), Some("00c0ffee"));
    }

    #[test]
    fn malformed_deadline_headers_are_rejected() {
        // Non-numeric, zero, negative, overflowing, and empty values all
        // 400 instead of silently running the request without a budget.
        for bad in [
            "soon",
            "0",
            "-5",
            "1e3",
            "99999999999999999999999",
            "",
            "+25",
        ] {
            let raw = format!("GET /a HTTP/1.1\r\nX-Tenet-Deadline-Ms: {bad}\r\n\r\n");
            let (reqs, err) = parse_all(raw.as_bytes());
            assert!(reqs.is_empty(), "deadline {bad:?} must not parse");
            assert!(
                matches!(err, Some(HttpError::BadRequest(_))),
                "deadline {bad:?} must be a 400, got {err:?}"
            );
        }
        // The largest representable deadline is still accepted.
        let raw = format!(
            "GET /a HTTP/1.1\r\nX-Tenet-Deadline-Ms: {}\r\n\r\n",
            u64::MAX
        );
        let (reqs, err) = parse_all(raw.as_bytes());
        assert!(err.is_none());
        assert_eq!(reqs[0].deadline_ms, Some(u64::MAX));
    }

    #[test]
    fn extra_headers_are_emitted_before_the_blank_line() {
        let bytes = encode_response_with(
            429,
            "application/json",
            b"{}",
            false,
            &[("Retry-After", "2".to_string())],
        );
        let text = String::from_utf8(bytes).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        let head_end = text.find("\r\n\r\n").unwrap();
        assert!(text[..head_end].contains("Retry-After: 2"), "{text}");
        // 504 has a proper reason phrase too.
        let bytes = encode_response(504, "application/json", b"{}", false);
        assert!(String::from_utf8(bytes)
            .unwrap()
            .contains("504 Gateway Timeout"));
    }

    #[test]
    fn response_roundtrips_through_reader() {
        let encoded = encode_response(200, "application/json", b"{\"ok\":true}", true);
        let (status, body) = read_response(&mut &encoded[..]).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"ok\":true}");
    }
}
