//! A small, strict HTTP/1.1 subset with keep-alive and incremental parsing.
//!
//! The server needs exactly: request line + headers + optional
//! `Content-Length` body in; status line + headers + body out. No chunked
//! transfer (a request with `Transfer-Encoding`, or with `Content-Length`
//! values that differ, is refused), no TLS. Connections are persistent by default (`HTTP/1.1`
//! semantics): [`RequestParser`] accumulates bytes across partial reads and
//! yields complete requests one at a time, preserving pipelined leftovers, so
//! the epoll reactor can parse without ever blocking; [`render_head`] writes
//! the response head the reactor sends ahead of the body. Limits are
//! enforced while reading so a slow or hostile peer cannot balloon memory:
//! header block ≤ 16 KiB, body ≤ the server's configured maximum.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Maximum accepted size of the request line + headers.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string, percent-decoded.
    pub path: String,
    /// Query parameters (later duplicates win), percent-decoded.
    pub query: BTreeMap<String, String>,
    /// Raw request body.
    pub body: Vec<u8>,
    /// Client-supplied `X-Request-Id` header, if any. The server echoes it on
    /// the response (generating one when absent) so a request can be chased
    /// through client logs, traces, and slow-request reports.
    pub request_id: Option<String>,
    /// Client-supplied `X-Timeout-Ms` header, if any: a per-request deadline
    /// in milliseconds, clamped by the server's `--request-timeout-ms` before
    /// use. Malformed values fall back to `None` and are noted in
    /// [`Request::malformed_headers`].
    pub timeout_ms: Option<u64>,
    /// Raw client-supplied W3C `traceparent` header, if any (sanitized and
    /// bounded like `X-Request-Id`); validated by the connection handler.
    pub traceparent: Option<String>,
    /// Client-supplied `If-Match` header, if any: the session version the
    /// client believes is current, for optimistic concurrency on
    /// `PATCH /session/{id}/etc` (mismatch answers `409`). Malformed values
    /// fall back to `None` and are noted in [`Request::malformed_headers`].
    pub if_match: Option<u64>,
    /// Headers that were present but unusable (`(header name, raw value)`),
    /// collected during parsing so the connection handler can emit one
    /// structured warn event per entry once the request id is known —
    /// malformed optional headers degrade loudly, not silently.
    pub malformed_headers: Vec<(&'static str, String)>,
}

impl Request {
    /// Query parameter by name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }

    /// `true` when the query contains `name` (with any value, including empty).
    pub fn has_param(&self, name: &str) -> bool {
        self.query.contains_key(name)
    }

    /// Body as UTF-8 text.
    pub fn body_text(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| HttpError::bad("body is not valid UTF-8"))
    }
}

/// Response body storage: bytes built by a handler, or a shared handle into
/// the result cache.
///
/// Serving a cache hit clones an `Arc`, not the bytes: the response is written
/// to the socket straight out of the cached buffer, and inserting into the
/// cache shares the response's own buffer instead of deep-copying it.
#[derive(Debug, Clone)]
pub enum Body {
    /// Bytes owned by this response alone.
    Owned(Vec<u8>),
    /// Bytes shared with the result cache (and any concurrent responses).
    Shared(Arc<[u8]>),
}

impl Body {
    /// The body bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Body::Owned(v) => v,
            Body::Shared(a) => a,
        }
    }

    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` when the body is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Converts the body to shared storage in place and returns a second
    /// handle to the same bytes (for the cache). An already-shared body just
    /// clones the handle; nothing is copied in either case.
    pub fn share(&mut self) -> Arc<[u8]> {
        match self {
            Body::Shared(a) => Arc::clone(a),
            Body::Owned(v) => {
                let a: Arc<[u8]> = Arc::from(std::mem::take(v).into_boxed_slice());
                *self = Body::Shared(Arc::clone(&a));
                a
            }
        }
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Self {
        Body::Owned(v)
    }
}

impl From<String> for Body {
    fn from(s: String) -> Self {
        Body::Owned(s.into_bytes())
    }
}

impl From<Arc<[u8]>> for Body {
    fn from(a: Arc<[u8]>) -> Self {
        Body::Shared(a)
    }
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Body,
    /// Additional headers (name, value).
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A `200 OK` JSON response: a rendered document, or bytes shared with
    /// their owner (the result cache, a published session version).
    pub fn json(body: impl Into<Body>) -> Self {
        Self {
            status: 200,
            content_type: "application/json",
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// A `200 OK` CSV response.
    pub fn csv(body: String) -> Self {
        Self {
            status: 200,
            content_type: "text/csv",
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// A `200 OK` plain-text response (e.g. collapsed profile stacks).
    pub fn text(body: String) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// A `200 OK` Prometheus text-exposition response (format 0.0.4).
    pub fn prometheus(body: String) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// An error response with a JSON `{"error": ...}` body.
    pub fn error(status: u16, message: &str) -> Self {
        HttpError {
            status,
            message: message.to_string(),
            code: None,
            details: None,
        }
        .to_response()
    }

    /// The `503 Service Unavailable` load-shed response with `Retry-After`.
    /// Typed (`"code":"overloaded"`) so clients can tell a shed — retry after
    /// the advertised backoff — from other 503s like session-store drain.
    pub fn overloaded(retry_after_s: u32) -> Self {
        let mut r = HttpError::typed(
            503,
            "overloaded",
            "server overloaded, request queue full or queue delay over target",
        )
        .to_response();
        r.headers
            .push(("Retry-After".to_string(), retry_after_s.to_string()));
        r
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }
}

/// Errors from request parsing and handling, each mapping to a client-facing
/// status and a machine-readable JSON error body.
#[derive(Debug, Clone)]
pub struct HttpError {
    /// Status code to answer with.
    pub status: u16,
    /// Human-readable reason.
    pub message: String,
    /// Stable machine-readable code (`"deadline_exceeded"`,
    /// `"matrix_too_large"`, `"body_too_large"`, `"internal_panic"`, …) for
    /// clients that must branch on the failure kind without parsing prose.
    pub code: Option<&'static str>,
    /// Extra top-level fields of the error body.
    pub details: Option<ErrorDetails>,
}

/// The typed extra fields an error body can carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorDetails {
    /// `deadline_exceeded`: the cancelled kernel, the iterations it completed,
    /// and its residual then (exponent form; `null` when untracked).
    Deadline {
        op: &'static str,
        iterations: usize,
        residual: f64,
    },
    /// `version_conflict`: the session's current version.
    VersionConflict { current: u64 },
}

impl HttpError {
    /// A `400 Bad Request` error.
    pub fn bad(msg: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: msg.into(),
            code: None,
            details: None,
        }
    }

    /// An error with a stable machine-readable `code`.
    pub fn typed(status: u16, code: &'static str, msg: impl Into<String>) -> Self {
        Self {
            status,
            message: msg.into(),
            code: Some(code),
            details: None,
        }
    }

    /// Attaches extra top-level fields to the error body.
    pub fn with_details(mut self, details: ErrorDetails) -> Self {
        self.details = Some(details);
        self
    }

    /// Renders the error as its JSON response:
    /// `{"error":…[,"code":…][,<details>]}`.
    pub fn to_response(&self) -> Response {
        let body = hc_obs::json::object(|o| {
            o.str("error", &self.message);
            if let Some(code) = self.code {
                o.str("code", code);
            }
            match self.details {
                Some(ErrorDetails::Deadline {
                    op,
                    iterations,
                    residual,
                }) => {
                    o.str("op", op)
                        .u64("iterations_completed", iterations as u64)
                        .f64_exp("residual", residual);
                }
                Some(ErrorDetails::VersionConflict { current }) => {
                    o.u64("current_version", current);
                }
                None => {}
            }
        });
        Response {
            status: self.status,
            content_type: "application/json",
            body: body.into(),
            headers: Vec::new(),
        }
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Percent-decodes a URL component; `+` becomes a space.
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| -> Option<u8> {
                    match b {
                        b'0'..=b'9' => Some(b - b'0'),
                        b'a'..=b'f' => Some(b - b'a' + 10),
                        b'A'..=b'F' => Some(b - b'A' + 10),
                        _ => None,
                    }
                };
                if let (Some(h), Some(l)) = (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    out.push(h << 4 | l);
                    i += 2;
                } else {
                    out.push(b'%');
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parses `k1=v1&k2=v2` into a decoded map.
pub fn parse_query(q: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for pair in q.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some((k, v)) => out.insert(url_decode(k), url_decode(v)),
            None => out.insert(url_decode(pair), String::new()),
        };
    }
    out
}

/// A request head parsed off the wire, waiting for its body to complete.
#[derive(Debug)]
struct PendingHead {
    request: Request,
    content_length: usize,
    keep_alive: bool,
}

/// Incremental, resumable HTTP request parser.
///
/// Feed raw socket bytes with [`RequestParser::feed`]; [`RequestParser::poll`]
/// yields a complete request as soon as one is buffered, leaving any pipelined
/// follow-up bytes in place for the next poll. Parse errors are sticky for the
/// current request but the struct stays usable (the connection closes anyway:
/// after a framing error the byte stream cannot be trusted).
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    max_body: usize,
    pending: Option<PendingHead>,
}

impl RequestParser {
    /// A parser enforcing the given body-size cap.
    pub fn new(max_body: usize) -> Self {
        Self {
            buf: Vec::new(),
            max_body,
            pending: None,
        }
    }

    /// Appends raw bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes fed and not yet consumed by a returned request.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no bytes of a next request have arrived — an EOF here is a
    /// clean connection close, not a truncated request.
    pub fn is_idle(&self) -> bool {
        self.pending.is_none() && self.buf.is_empty()
    }

    /// The error a peer EOF means right now: mid-body once a head is parsed,
    /// mid-request while still reading the header block.
    pub fn eof_error(&self) -> HttpError {
        if self.pending.is_some() {
            HttpError::bad("connection closed mid-body")
        } else {
            HttpError::bad("connection closed mid-request")
        }
    }

    /// Tries to complete one request from the buffered bytes.
    ///
    /// Returns `Ok(Some((request, keep_alive)))` when a full request is
    /// available (consuming its bytes, preserving pipelined leftovers),
    /// `Ok(None)` when more bytes are needed, and `Err` on a framing error
    /// (bad request line, unparsable, oversized or conflicting
    /// `Content-Length`, any `Transfer-Encoding`, header block past
    /// [`MAX_HEADER_BYTES`]).
    ///
    /// The outcome depends on the bytes alone, not on how they were split
    /// across feeds: a header block is too large at the same length whether
    /// its terminator arrived with it or not.
    pub fn poll(&mut self) -> Result<Option<(Request, bool)>, HttpError> {
        if self.pending.is_none() {
            let too_large = || HttpError::typed(413, "body_too_large", "header block too large");
            let Some(header_end) = find_header_end(&self.buf) else {
                // Up to three trailing bytes may be a terminator's start.
                if self.buf.len() > MAX_HEADER_BYTES + 3 {
                    return Err(too_large());
                }
                return Ok(None);
            };
            if header_end > MAX_HEADER_BYTES {
                return Err(too_large());
            }
            let head = parse_head(&self.buf[..header_end], self.max_body)?;
            self.buf.drain(..header_end + 4);
            self.pending = Some(head);
        }
        let content_length = self.pending.as_ref().map_or(0, |p| p.content_length);
        if self.buf.len() < content_length {
            return Ok(None);
        }
        let mut head = self.pending.take().expect("pending head present");
        head.request.body = self.buf.drain(..content_length).collect();
        Ok(Some((head.request, head.keep_alive)))
    }
}

/// Parses the request line + header block (everything before `\r\n\r\n`),
/// returning the body-less request, its `Content-Length`, and whether the
/// connection should stay open afterwards.
fn parse_head(raw: &[u8], max_body: usize) -> Result<PendingHead, HttpError> {
    let head =
        std::str::from_utf8(raw).map_err(|_| HttpError::bad("headers are not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing method"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing request target"))?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad("unsupported HTTP version"));
    }
    // HTTP/1.1 defaults to persistent connections; HTTP/1.0 to close. A
    // `Connection` header token overrides either default.
    let mut keep_alive = version != "HTTP/1.0";

    // Bound and sanitize a header value that will be echoed into response
    // headers and logs: strip anything a peer could use to inject header
    // lines or control characters.
    let sanitize = |value: &str| -> String {
        value
            .trim()
            .chars()
            .filter(|c| c.is_ascii_graphic())
            .take(128)
            .collect()
    };
    // Framing (RFC 9112 §6.3): the body is `Content-Length` bytes, so any
    // `Transfer-Encoding`, or lengths that differ, leave it ambiguous and are
    // refused; a length past the cap answers 413 whatever else is there. A
    // field line a proxy may read differently is refused the same way:
    // whitespace before its colon (§5.1) or a line that starts with
    // whitespace, an obsolete fold (§5.2).
    let mut content_length: Option<usize> = None;
    let mut oversized: Option<usize> = None;
    let mut framing: Option<HttpError> = None;
    let mut request_id: Option<String> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut traceparent: Option<String> = None;
    let mut if_match: Option<u64> = None;
    let mut malformed_headers: Vec<(&'static str, String)> = Vec::new();
    for line in lines {
        if line.starts_with([' ', '\t']) {
            framing.get_or_insert_with(|| {
                HttpError::typed(
                    400,
                    "header_line_folding",
                    "a header line starts with whitespace (obsolete line folding)",
                )
            });
            continue;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.ends_with([' ', '\t']) {
                framing.get_or_insert_with(|| {
                    HttpError::typed(
                        400,
                        "header_name_whitespace",
                        format!(
                            "whitespace between header name {:?} and its colon",
                            name.trim()
                        ),
                    )
                });
                continue;
            }
            if name.eq_ignore_ascii_case("content-length") {
                // Digits only (RFC 9112 §8.6): `usize::from_str` also takes
                // a leading `+`.
                let digits = value.trim();
                let length = if digits.bytes().all(|b| b.is_ascii_digit()) {
                    digits.parse::<usize>().ok()
                } else {
                    None
                };
                match length {
                    Some(n) if n > max_body => {
                        oversized.get_or_insert(n);
                    }
                    Some(n) => {
                        let first = *content_length.get_or_insert(n);
                        if first != n && framing.is_none() {
                            framing = Some(HttpError::typed(
                                400,
                                "content_length_conflict",
                                format!("Content-Length {first} and {n} disagree"),
                            ));
                        }
                    }
                    None => {
                        framing.get_or_insert_with(|| HttpError::bad("bad Content-Length"));
                    }
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                framing.get_or_insert_with(|| {
                    HttpError::typed(
                        400,
                        "transfer_encoding_unsupported",
                        "Transfer-Encoding is not supported; send a Content-Length body",
                    )
                });
            } else if name.eq_ignore_ascii_case("connection") {
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        keep_alive = false;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        keep_alive = true;
                    }
                }
            } else if name.eq_ignore_ascii_case("x-request-id") {
                let id = sanitize(value);
                if !id.is_empty() {
                    request_id = Some(id);
                }
            } else if name.eq_ignore_ascii_case("x-timeout-ms") {
                match value.trim().parse() {
                    Ok(ms) => timeout_ms = Some(ms),
                    // Fall back to no header-supplied deadline, but note the
                    // malformed value for a structured warning.
                    Err(_) => malformed_headers.push(("X-Timeout-Ms", sanitize(value))),
                }
            } else if name.eq_ignore_ascii_case("traceparent") {
                traceparent = Some(sanitize(value));
            } else if name.eq_ignore_ascii_case("if-match") {
                // Session versions, optionally ETag-style quoted; `*` means
                // "any version" and imposes no precondition.
                let raw = value.trim().trim_matches('"');
                if raw != "*" {
                    match raw.parse() {
                        Ok(v) => if_match = Some(v),
                        Err(_) => malformed_headers.push(("If-Match", sanitize(value))),
                    }
                }
            }
        }
    }
    if let Some(length) = oversized {
        return Err(HttpError::typed(
            413,
            "body_too_large",
            format!("body of {length} bytes exceeds limit of {max_body}"),
        ));
    }
    if let Some(refusal) = framing {
        return Err(refusal);
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(PendingHead {
        request: Request {
            method,
            path: url_decode(raw_path),
            query: parse_query(raw_query),
            body: Vec::new(),
            request_id,
            timeout_ms,
            traceparent,
            if_match,
            malformed_headers,
        },
        content_length: content_length.unwrap_or(0),
        keep_alive,
    })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Renders the response head (status line + headers + blank line). `close`
/// picks the `Connection` header value; the body is not included so the
/// reactor can write head and body as one vectored write without copying
/// shared cache buffers.
pub fn render_head(response: &Response, close: bool) -> String {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        if close { "close" } else { "keep-alive" }
    );
    for (name, value) in &response.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    head
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses one request from `raw` with a body limit of `max_body`, as if
    /// the peer then closed the connection.
    fn parse_limited(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let mut parser = RequestParser::new(max_body);
        parser.feed(raw);
        match parser.poll()? {
            Some((request, _keep_alive)) => Ok(request),
            None => Err(parser.eof_error()),
        }
    }

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        parse_limited(raw, 1024 * 1024)
    }

    /// The bytes the reactor writes for `response` on a closing connection.
    fn wire(response: &Response) -> String {
        let body = String::from_utf8(response.body.as_slice().to_vec()).unwrap();
        render_head(response, true) + &body
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /measure?ecs=1&zero-policy=reg%3D1e-4 HTTP/1.1\r\n\
                    Host: x\r\nContent-Length: 9\r\n\r\ntask,m1\r\n";
        let r = parse(raw).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/measure");
        assert_eq!(r.param("ecs"), Some("1"));
        assert_eq!(r.param("zero-policy"), Some("reg=1e-4"));
        assert_eq!(r.body, b"task,m1\r\n");
    }

    #[test]
    fn parses_get_without_body() {
        let r = parse(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/metrics");
        assert!(r.body.is_empty());
        assert!(!r.has_param("anything"));
    }

    #[test]
    fn parses_request_id_header() {
        let r = parse(b"GET /metrics HTTP/1.1\r\nX-Request-Id: abc-123\r\n\r\n").unwrap();
        assert_eq!(r.request_id.as_deref(), Some("abc-123"));
        // Case-insensitive name, sanitized value, bounded length.
        let r = parse(b"GET / HTTP/1.1\r\nx-request-id:  id\rwith\x01junk  \r\n\r\n").unwrap();
        assert_eq!(r.request_id.as_deref(), Some("idwithjunk"));
        let long = format!(
            "GET / HTTP/1.1\r\nX-Request-Id: {}\r\n\r\n",
            "a".repeat(400)
        );
        let r = parse(long.as_bytes()).unwrap();
        assert_eq!(r.request_id.unwrap().len(), 128);
        // Absent or all-garbage values yield None.
        let r = parse(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert!(r.request_id.is_none());
    }

    #[test]
    fn rejects_oversized_body() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 999\r\n\r\n";
        let err = parse_limited(raw, 10).unwrap_err();
        assert_eq!(err.status, 413);
        assert_eq!(err.code, Some("body_too_large"));
        let body = String::from_utf8(err.to_response().body.as_slice().to_vec()).unwrap();
        assert!(body.contains("\"code\":\"body_too_large\""), "{body}");
    }

    #[test]
    fn parses_timeout_header() {
        let r = parse(b"GET /metrics HTTP/1.1\r\nX-Timeout-Ms: 250\r\n\r\n").unwrap();
        assert_eq!(r.timeout_ms, Some(250));
        assert!(r.malformed_headers.is_empty());
        // Malformed values fall back to None — but are noted for a warning,
        // not silently swallowed.
        let r = parse(b"GET /metrics HTTP/1.1\r\nX-Timeout-Ms: soon\r\n\r\n").unwrap();
        assert_eq!(r.timeout_ms, None);
        assert_eq!(
            r.malformed_headers,
            vec![("X-Timeout-Ms", "soon".to_string())]
        );
        let r = parse(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.timeout_ms, None);
        assert!(r.malformed_headers.is_empty());
    }

    #[test]
    fn parses_if_match_header() {
        let r = parse(b"PATCH /session/x/etc HTTP/1.1\r\nIf-Match: 7\r\n\r\n").unwrap();
        assert_eq!(r.if_match, Some(7));
        assert!(r.malformed_headers.is_empty());
        // ETag-style quoting is tolerated; `*` imposes no precondition.
        let r = parse(b"PATCH /x HTTP/1.1\r\nif-match: \"12\"\r\n\r\n").unwrap();
        assert_eq!(r.if_match, Some(12));
        let r = parse(b"PATCH /x HTTP/1.1\r\nIf-Match: *\r\n\r\n").unwrap();
        assert_eq!(r.if_match, None);
        assert!(r.malformed_headers.is_empty());
        // Malformed values degrade loudly, like X-Timeout-Ms.
        let r = parse(b"PATCH /x HTTP/1.1\r\nIf-Match: seven\r\n\r\n").unwrap();
        assert_eq!(r.if_match, None);
        assert_eq!(r.malformed_headers, vec![("If-Match", "seven".to_string())]);
        let r = parse(b"PATCH /x HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.if_match, None);
    }

    #[test]
    fn parses_traceparent_header() {
        let r = parse(
            b"GET / HTTP/1.1\r\ntraceparent: 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01\r\n\r\n",
        )
        .unwrap();
        assert_eq!(
            r.traceparent.as_deref(),
            Some("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
        );
        // Validation happens in the connection handler; parsing only
        // sanitizes and bounds the raw value.
        let r = parse(b"GET / HTTP/1.1\r\nTraceparent: junk\x01here\r\n\r\n").unwrap();
        assert_eq!(r.traceparent.as_deref(), Some("junkhere"));
        let r = parse(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert!(r.traceparent.is_none());
    }

    #[test]
    fn typed_error_renders_code_and_details() {
        let e = HttpError::typed(504, "deadline_exceeded", "out of time").with_details(
            ErrorDetails::Deadline {
                op: "svd",
                iterations: 12,
                residual: 1e-3,
            },
        );
        let resp = e.to_response();
        assert_eq!(resp.status, 504);
        let body = String::from_utf8(resp.body.as_slice().to_vec()).unwrap();
        assert_eq!(
            body,
            "{\"error\":\"out of time\",\"code\":\"deadline_exceeded\",\
             \"op\":\"svd\",\"iterations_completed\":12,\"residual\":1e-3}"
        );
        let text = wire(&resp);
        assert!(
            text.starts_with("HTTP/1.1 504 Gateway Timeout\r\n"),
            "{text}"
        );
        // Untyped errors keep the legacy single-field shape.
        let plain = Response::error(422, "too big");
        assert_eq!(plain.body.as_slice(), b"{\"error\":\"too big\"}");
        assert!(wire(&plain).starts_with("HTTP/1.1 422 Unprocessable Entity\r\n"));
    }

    #[test]
    fn error_bodies_are_pinned() {
        let body = |r: Response| String::from_utf8(r.body.as_slice().to_vec()).unwrap();
        assert_eq!(
            body(Response::error(404, "no such endpoint /a\"b")),
            "{\"error\":\"no such endpoint /a\\\"b\"}"
        );
        assert_eq!(
            body(HttpError::bad("line 1:\tbad\u{1}").to_response()),
            "{\"error\":\"line 1:\\tbad\\u0001\"}"
        );
        assert_eq!(
            body(HttpError::typed(422, "matrix_too_large", "too big").to_response()),
            "{\"error\":\"too big\",\"code\":\"matrix_too_large\"}"
        );
        assert_eq!(
            body(Response::overloaded(1)),
            "{\"error\":\"server overloaded, request queue full or queue delay over \
             target\",\"code\":\"overloaded\"}"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(b"\r\n\r\n").is_err());
        assert!(parse(b"GET\r\n\r\n").is_err());
        assert!(parse(b"GET / SPDY/3\r\n\r\n").is_err());
        // Closed before the header terminator.
        assert!(parse_limited(b"GET / HT", 10).is_err());
    }

    #[test]
    fn url_decoding() {
        assert_eq!(url_decode("a%20b+c"), "a b c");
        assert_eq!(url_decode("100%"), "100%");
        assert_eq!(url_decode("%zz"), "%zz");
        let q = parse_query("a=1&flag&b=x%3Dy");
        assert_eq!(q.get("a").unwrap(), "1");
        assert_eq!(q.get("flag").unwrap(), "");
        assert_eq!(q.get("b").unwrap(), "x=y");
    }

    #[test]
    fn response_serialization() {
        let r = Response::json(String::from("{\"ok\":true}")).with_header("X-Cache", "hit");
        let text = wire(&r);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("X-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn body_share_is_zero_copy() {
        let mut b = Body::from(String::from("hello"));
        assert_eq!(b.as_slice(), b"hello");
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
        let first = b.share();
        let second = b.share();
        // Both handles and the body itself alias one buffer.
        assert!(Arc::ptr_eq(&first, &second));
        match &b {
            Body::Shared(a) => assert!(Arc::ptr_eq(a, &first)),
            Body::Owned(_) => panic!("share() must leave the body shared"),
        }
        assert_eq!(b.as_slice(), b"hello");
        // A shared body serializes identically to an owned one.
        let mut r = Response::json(String::from("{\"ok\":true}"));
        r.body = Body::Shared(first);
        assert!(wire(&r).ends_with("hello"));
    }

    #[test]
    fn overloaded_has_retry_after() {
        let text = wire(&Response::overloaded(1));
        assert!(text.starts_with("HTTP/1.1 503"));
        assert!(text.contains("Retry-After: 1\r\n"));
    }

    #[test]
    fn render_head_picks_connection_header() {
        let r = Response::json(String::from("{}"));
        assert!(render_head(&r, true).contains("Connection: close\r\n"));
        assert!(render_head(&r, false).contains("Connection: keep-alive\r\n"));
    }

    #[test]
    fn parser_handles_byte_at_a_time_trickle() {
        let raw: &[u8] = b"POST /measure?ecs=1 HTTP/1.1\r\nHost: x\r\n\
                           Content-Length: 9\r\n\r\ntask,m1\r\n";
        let mut p = RequestParser::new(1024);
        for (i, b) in raw.iter().enumerate() {
            assert!(
                p.poll().unwrap().is_none(),
                "complete before byte {i} of {}",
                raw.len()
            );
            p.feed(std::slice::from_ref(b));
        }
        let (req, keep_alive) = p.poll().unwrap().expect("complete after final byte");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/measure");
        assert_eq!(req.body, b"task,m1\r\n");
        assert!(keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(p.is_idle());
    }

    #[test]
    fn parser_yields_pipelined_requests_from_one_segment() {
        let mut p = RequestParser::new(1024);
        p.feed(
            b"POST /measure HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd\
              GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        let (r1, k1) = p.poll().unwrap().unwrap();
        assert_eq!(
            (r1.path.as_str(), &r1.body[..], k1),
            ("/measure", &b"abcd"[..], true)
        );
        let (r2, k2) = p.poll().unwrap().unwrap();
        assert_eq!((r2.path.as_str(), k2), ("/metrics", true));
        let (r3, k3) = p.poll().unwrap().unwrap();
        assert_eq!((r3.path.as_str(), k3), ("/healthz", false));
        assert!(p.poll().unwrap().is_none());
        assert!(p.is_idle());
    }

    #[test]
    fn parser_connection_header_overrides_version_default() {
        let mut p = RequestParser::new(1024);
        p.feed(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!p.poll().unwrap().unwrap().1, "HTTP/1.0 defaults to close");
        p.feed(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(p.poll().unwrap().unwrap().1);
        p.feed(b"GET / HTTP/1.1\r\nConnection: Keep-Alive, Upgrade\r\n\r\n");
        assert!(p.poll().unwrap().unwrap().1, "token list, case-insensitive");
        p.feed(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!p.poll().unwrap().unwrap().1);
    }

    #[test]
    fn parser_rejects_oversized_header_block_even_unterminated() {
        let mut p = RequestParser::new(1024);
        p.feed(b"GET / HTTP/1.1\r\n");
        // Keep feeding header bytes with no terminator: the parser must bail
        // at the cap instead of buffering without bound.
        let filler = format!("X-Pad: {}\r\n", "a".repeat(1000));
        let mut err = None;
        for _ in 0..20 {
            p.feed(filler.as_bytes());
            if let Err(e) = p.poll() {
                err = Some(e);
                break;
            }
        }
        let err = err.expect("oversized header block must error");
        assert_eq!(err.status, 413);
        assert_eq!(err.message, "header block too large");
    }

    #[test]
    fn parser_handles_headers_split_across_reads() {
        let raw = b"GET /metrics HTTP/1.1\r\nX-Request-Id: split-id\r\n\r\n";
        // Split inside the header name, the value, and the terminator.
        for cut in [10, 30, raw.len() - 1] {
            let mut p = RequestParser::new(1024);
            p.feed(&raw[..cut]);
            assert!(p.poll().unwrap().is_none(), "cut at {cut}");
            p.feed(&raw[cut..]);
            let (req, _) = p.poll().unwrap().expect("complete after second feed");
            assert_eq!(req.request_id.as_deref(), Some("split-id"));
        }
    }

    #[test]
    fn parser_rejects_malformed_content_length_across_boundary() {
        let mut p = RequestParser::new(1024);
        // The malformed value arrives split across two reads; the error must
        // only fire once the header block is complete and parseable.
        p.feed(b"POST /x HTTP/1.1\r\nContent-Len");
        assert!(p.poll().unwrap().is_none());
        p.feed(b"gth: twelve\r\n\r\n");
        let err = p.poll().unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.message, "bad Content-Length");
    }

    #[test]
    fn parser_body_split_across_reads_and_eof_errors() {
        let mut p = RequestParser::new(1024);
        p.feed(b"POST /x HTTP/1.1\r\nContent-Length: 8\r\n\r\nabc");
        assert!(p.poll().unwrap().is_none());
        assert_eq!(p.eof_error().message, "connection closed mid-body");
        assert!(!p.is_idle());
        p.feed(b"defgh");
        let (req, _) = p.poll().unwrap().unwrap();
        assert_eq!(req.body, b"abcdefgh");

        let mut fresh = RequestParser::new(1024);
        assert!(fresh.is_idle());
        fresh.feed(b"GET / HT");
        assert_eq!(fresh.eof_error().message, "connection closed mid-request");
    }

    /// Each request's path and body, then the status, code and message of
    /// the error that closes the connection, if any.
    type Framed = (
        Vec<(String, Vec<u8>)>,
        Option<(u16, Option<&'static str>, String)>,
    );

    /// What a connection reads from `raw` fed in pieces cut at `cuts`, with
    /// a body cap of 64.
    fn read_framed(raw: &[u8], cuts: &[usize]) -> Framed {
        let mut parser = RequestParser::new(64);
        let mut requests = Vec::new();
        let mut from = 0;
        for &to in cuts.iter().chain([&raw.len()]) {
            parser.feed(&raw[from..to]);
            from = to;
            loop {
                match parser.poll() {
                    Ok(Some((req, _))) => requests.push((req.path, req.body)),
                    Ok(None) => break,
                    Err(e) => return (requests, Some((e.status, e.code, e.message))),
                }
            }
        }
        (requests, None)
    }

    /// `raw` reads as `want` fed whole, split at each byte, and byte by byte.
    fn assert_framing(raw: &[u8], want: Framed) {
        assert_eq!(read_framed(raw, &[]), want);
        for cut in 1..raw.len() {
            assert_eq!(read_framed(raw, &[cut]), want, "cut at {cut}");
        }
        let every: Vec<usize> = (1..raw.len()).collect();
        assert_eq!(read_framed(raw, &every), want, "byte by byte");
    }

    #[test]
    fn framing_refuses_transfer_encoding() {
        let refused = |message: &str| {
            let code = Some("transfer_encoding_unsupported");
            (Vec::new(), Some((400, code, message.to_string())))
        };
        let message = "Transfer-Encoding is not supported; send a Content-Length body";
        assert_framing(
            b"POST /measure HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nhello\r\n0\r\n\r\n",
            refused(message),
        );
        // With a Content-Length too, and in either order.
        assert_framing(
            b"POST /m HTTP/1.1\r\nContent-Length: 5\r\ntransfer-encoding: identity\r\n\r\nhello",
            refused(message),
        );
        assert_framing(
            b"POST /m HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\nhello",
            refused(message),
        );
    }

    #[test]
    fn framing_refuses_conflicting_content_lengths() {
        let code = Some("content_length_conflict");
        assert_framing(
            b"POST /measure HTTP/1.1\r\nContent-Length: 16\r\nContent-Length: 0\r\n\r\n\
              0123456789abcdef",
            (
                Vec::new(),
                Some((400, code, "Content-Length 16 and 0 disagree".to_string())),
            ),
        );
        // The first request of a pipeline is read; the conflict closes.
        assert_framing(
            b"GET /a HTTP/1.1\r\n\r\n\
              POST /b HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc",
            (
                vec![("/a".to_string(), Vec::new())],
                Some((400, code, "Content-Length 2 and 3 disagree".to_string())),
            ),
        );
    }

    #[test]
    fn framing_accepts_a_repeated_identical_content_length() {
        assert_framing(
            b"POST /m HTTP/1.1\r\nContent-Length: 4\r\ncontent-length:  4 \r\n\r\nabcd\
              GET /n HTTP/1.1\r\n\r\n",
            (
                vec![
                    ("/m".to_string(), b"abcd".to_vec()),
                    ("/n".to_string(), Vec::new()),
                ],
                None,
            ),
        );
    }

    #[test]
    fn framing_answers_413_for_a_length_past_the_cap_whatever_else() {
        let too_large = |length: usize| {
            let message = format!("body of {length} bytes exceeds limit of 64");
            (Vec::new(), Some((413, Some("body_too_large"), message)))
        };
        assert_framing(
            b"POST /m HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\
              Content-Length: 65\r\nContent-Length: x\r\nContent-Length: 99\r\n\r\n",
            too_large(65),
        );
        assert_framing(
            b"POST /m HTTP/1.1\r\nContent-Length: x\r\nContent-Length: 70\r\n\r\n",
            too_large(70),
        );
    }

    #[test]
    fn framing_takes_content_length_digits_only() {
        let bad = (
            Vec::new(),
            Some((400, None, "bad Content-Length".to_string())),
        );
        for value in ["+4", "-4", "4 4", "0x4", ""] {
            let raw = format!("POST /m HTTP/1.1\r\nContent-Length: {value}\r\n\r\nabcd");
            assert_framing(raw.as_bytes(), bad.clone());
        }
    }

    #[test]
    fn framing_refuses_whitespace_before_a_header_colon() {
        let refused = |name: &str| {
            let message = format!("whitespace between header name {name:?} and its colon");
            (
                Vec::new(),
                Some((400, Some("header_name_whitespace"), message)),
            )
        };
        assert_framing(
            b"POST /measure HTTP/1.1\r\nContent-Length : 13\r\n\r\ntask,m1\nt1,2\n",
            refused("Content-Length"),
        );
        assert_framing(
            b"POST /m HTTP/1.1\r\nContent-Length: 2\r\nX-Request-Id\t: a\r\n\r\nab",
            refused("X-Request-Id"),
        );
        // The first request of a pipeline is read; the refusal closes.
        assert_framing(
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nHost : b\r\n\r\n",
            (vec![("/a".to_string(), Vec::new())], refused("Host").1),
        );
        // Whitespace after the colon is optional whitespace, not a refusal.
        assert_framing(
            b"POST /m HTTP/1.1\r\nContent-Length:\t2 \r\n\r\nab",
            (vec![("/m".to_string(), b"ab".to_vec())], None),
        );
    }

    #[test]
    fn framing_refuses_folded_header_lines() {
        let refused = (
            Vec::new(),
            Some((
                400,
                Some("header_line_folding"),
                "a header line starts with whitespace (obsolete line folding)".to_string(),
            )),
        );
        assert_framing(
            b"POST /measure HTTP/1.1\r\nHost: x\r\n Content-Length: 13\r\n\r\ntask,m1\nt1,2\n",
            refused.clone(),
        );
        assert_framing(
            b"GET /m HTTP/1.1\r\nX-Request-Id: a\r\n\tb\r\n\r\n",
            refused.clone(),
        );
        // A fold right after the request line, before any field.
        assert_framing(b"GET /m HTTP/1.1\r\n Host: x\r\n\r\n", refused);
    }

    #[test]
    fn parser_rejects_oversized_content_length_before_body_arrives() {
        let mut p = RequestParser::new(10);
        p.feed(b"POST /x HTTP/1.1\r\nContent-Length: 999\r\n\r\n");
        let err = p.poll().unwrap_err();
        assert_eq!(err.status, 413);
        assert_eq!(err.code, Some("body_too_large"));
    }
}
