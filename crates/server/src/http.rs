//! Minimal HTTP/1.1 parsing and serialization.
//!
//! Supports what the CrowdWeb API needs: GET/POST, path + query string,
//! headers, `Content-Length`-framed bodies, and HTTP/1.1 persistent
//! connections (`Connection` negotiation lives here; the lifecycle —
//! budgets, idle reaping, pipelined replies — is the reactor's).
//!
//! There is one request parser, [`Request::parse`], over a byte buffer.
//! It is prefix-stable: its checks run in byte order, so once a prefix
//! of the stream gives a final result (a request, or a 400), every
//! longer buffer gives the same one, and the reactor can parse after
//! each read. [`Request::read_from`] is the same parser behind a
//! blocking reader. Request bodies are `Content-Length` only; a request
//! carrying `Transfer-Encoding` is rejected. Upgrades are out of scope.
//!
//! Responses carry a [`ResponseBody`]: either a fully materialized
//! buffer served with `Content-Length` framing, or a pull-based
//! [`BodyStream`] served with `Transfer-Encoding: chunked` framing so
//! large exports never buffer whole in the reactor. The reactor writes
//! both from [`Response::into_head_and_body`].

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read};

/// Maximum accepted request body (4 MiB) — an upload of a full personal
/// check-in history fits comfortably.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Maximum accepted header section (64 KiB).
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Maximum accepted single head line — request line or one header
/// (8 KiB). Bounding each line keeps a newline-free byte stream from
/// growing an unbounded buffer.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// HTTP request method (only what the API uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET.
    Get,
    /// POST.
    Post,
}

impl Method {
    /// Parses a method token.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
        })
    }
}

/// HTTP response status codes used by the API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusCode {
    /// 200.
    Ok,
    /// 304.
    NotModified,
    /// 400.
    BadRequest,
    /// 404.
    NotFound,
    /// 405.
    MethodNotAllowed,
    /// 413.
    PayloadTooLarge,
    /// 500.
    InternalServerError,
    /// 503.
    ServiceUnavailable,
}

impl StatusCode {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            StatusCode::Ok => 200,
            StatusCode::NotModified => 304,
            StatusCode::BadRequest => 400,
            StatusCode::NotFound => 404,
            StatusCode::MethodNotAllowed => 405,
            StatusCode::PayloadTooLarge => 413,
            StatusCode::InternalServerError => 500,
            StatusCode::ServiceUnavailable => 503,
        }
    }

    /// Reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            StatusCode::Ok => "OK",
            StatusCode::NotModified => "Not Modified",
            StatusCode::BadRequest => "Bad Request",
            StatusCode::NotFound => "Not Found",
            StatusCode::MethodNotAllowed => "Method Not Allowed",
            StatusCode::PayloadTooLarge => "Payload Too Large",
            StatusCode::InternalServerError => "Internal Server Error",
            StatusCode::ServiceUnavailable => "Service Unavailable",
        }
    }

    /// The status's kebab-case error code (`"not-found"`,
    /// `"payload-too-large"`, …) — the default `code` in the error
    /// envelope when a handler doesn't supply a more specific one.
    pub fn slug(self) -> &'static str {
        match self {
            StatusCode::Ok => "ok",
            StatusCode::NotModified => "not-modified",
            StatusCode::BadRequest => "bad-request",
            StatusCode::NotFound => "not-found",
            StatusCode::MethodNotAllowed => "method-not-allowed",
            StatusCode::PayloadTooLarge => "payload-too-large",
            StatusCode::InternalServerError => "internal-server-error",
            StatusCode::ServiceUnavailable => "service-unavailable",
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Decoded path without the query string, e.g. `/api/crowd`.
    pub path: String,
    /// Decoded query parameters.
    pub query: HashMap<String, String>,
    /// Header map with lowercase names.
    pub headers: HashMap<String, String>,
    /// Request body (empty for GET).
    pub body: Vec<u8>,
    /// Whether the request line said `HTTP/1.0` — flips the default
    /// connection disposition from keep-alive to close.
    pub http10: bool,
}

impl Request {
    /// A query parameter by name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }

    /// The connection disposition this request negotiates (RFC 9112
    /// §9.3): `Connection: close` always closes, `Connection:
    /// keep-alive` opts a 1.0 client in, and the bare default is
    /// keep-alive for 1.1, close for 1.0. Later tokens win when a
    /// confused client sends both.
    pub fn wants_keep_alive(&self) -> bool {
        let mut keep = !self.http10;
        if let Some(value) = self.headers.get("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep = true;
                }
            }
        }
        keep
    }

    /// Parses one request from the front of `buf`, returning it with
    /// the number of bytes it used (head + body); any bytes past that
    /// belong to the next pipelined request.
    ///
    /// Prefix-stable: once a prefix gives a final result, every longer
    /// buffer that starts with it gives the same result. The checks run
    /// in byte order — the request line as soon as its `\n` arrives, a
    /// line once it passes [`MAX_LINE_BYTES`], the header section once
    /// it passes [`MAX_HEAD_BYTES`] — and none waits for the blank line
    /// or a declared body, so a caller may parse after every read. An
    /// incomplete buffer costs one scan of its head; the header map and
    /// the body copy are built only once the request is complete.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` while the request is incomplete: its message is
    /// the 400 the client gets if the connection ends there.
    /// `InvalidData` is final: a malformed request line or header, an
    /// over-long line or head, a non-UTF-8 head, a bad, conflicting or
    /// oversized `Content-Length`, or any `Transfer-Encoding` (request
    /// bodies are `Content-Length` only).
    pub fn parse(buf: &[u8]) -> io::Result<(Request, usize)> {
        let (line, headers_start) = head_line(buf, 0, MAX_LINE_BYTES, "head line too long")?;
        let line = line.trim_end();
        if line.is_empty() {
            return Err(bad("empty request line"));
        }
        let mut parts = line.split_whitespace();
        let method = parts
            .next()
            .and_then(Method::parse)
            .ok_or_else(|| bad("unsupported method"))?;
        let target = parts.next().ok_or_else(|| bad("missing request target"))?;
        let version = parts.next().unwrap_or("HTTP/1.1");
        if !version.starts_with("HTTP/1.") {
            return Err(bad("unsupported http version"));
        }

        // Header lines up to the blank one. A line may use what is left
        // of the head budget; whichever limit its bytes cross first
        // names the error.
        let mut at = headers_start;
        let mut content_length: Option<&str> = None;
        loop {
            let room = MAX_HEAD_BYTES - (at - headers_start);
            let (line, next) = if room < MAX_LINE_BYTES {
                head_line(buf, at, room, "header section too large")?
            } else {
                head_line(buf, at, MAX_LINE_BYTES, "head line too long")?
            };
            at = next;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("transfer-encoding") {
                // A transfer-coded body would otherwise be read as the
                // next pipelined request: the request-smuggling shape.
                return Err(bad(
                    "transfer-encoding is not supported; send the body with content-length",
                ));
            }
            // Folding duplicates would let the last Content-Length
            // silently win. Conflicting duplicates are fatal; identical
            // repeats collapse (RFC 9112 §6.3).
            if name.eq_ignore_ascii_case("content-length") {
                if content_length.is_some_and(|prev| prev != value) {
                    return Err(bad("conflicting duplicate content-length headers"));
                }
                content_length = Some(value);
            }
        }
        let head_end = at;

        // Body: `1*DIGIT` only — `usize::from_str` alone would take `+5`.
        let body_len = match content_length {
            None => 0,
            Some(v) if !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) => {
                v.parse().map_err(|_| bad("bad content-length"))?
            }
            Some(_) => return Err(bad("bad content-length")),
        };
        if body_len > MAX_BODY_BYTES {
            return Err(bad("body too large"));
        }
        let Some(body) = buf.get(head_end..head_end + body_len) else {
            return Err(incomplete("request body shorter than content-length"));
        };

        // Complete: every head line was checked as UTF-8 above.
        let head = std::str::from_utf8(&buf[headers_start..head_end]).unwrap_or_default();
        let headers = head
            .lines()
            .filter_map(|line| line.split_once(':'))
            .map(|(name, value)| (name.trim().to_ascii_lowercase(), value.trim().to_owned()))
            .collect();
        let (path, query) = split_target(target);
        let request = Request {
            method,
            path,
            query,
            headers,
            body: body.to_vec(),
            http10: version == "HTTP/1.0",
        };
        Ok((request, head_end + body_len))
    }

    /// Reads one request from a stream: reads, and [`Request::parse`]s
    /// after each read, until the result is final or the stream ends.
    /// Bytes read past the request are dropped.
    ///
    /// # Errors
    ///
    /// As [`Request::parse`]; at end of stream, its `UnexpectedEof`.
    /// Read errors propagate.
    pub fn read_from<R: Read>(mut reader: R) -> io::Result<Request> {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 8192];
        loop {
            let n = match reader.read(&mut chunk) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                read => read?,
            };
            buf.extend_from_slice(&chunk[..n]);
            match Request::parse(&buf) {
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && n > 0 => {}
                parsed => return parsed.map(|(request, _)| request),
            }
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

fn incomplete(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, msg.to_owned())
}

/// The head line starting at `buf[start]`, terminator included, and the
/// index just past it. Final errors: the line passes `cap` bytes
/// (`too_long` names the limit) or is not UTF-8. Incomplete until its
/// `\n` arrives.
fn head_line<'a>(
    buf: &'a [u8],
    start: usize,
    cap: usize,
    too_long: &str,
) -> io::Result<(&'a str, usize)> {
    let rest = &buf[start..];
    match rest[..rest.len().min(cap)].iter().position(|&b| b == b'\n') {
        Some(nl) => std::str::from_utf8(&rest[..=nl])
            .map(|line| (line, start + nl + 1))
            .map_err(|_| bad("head line is not valid utf-8")),
        None if rest.len() > cap => Err(bad(too_long)),
        None => Err(incomplete("connection closed mid-headers")),
    }
}

/// Splits a request target into decoded path and query map.
fn split_target(target: &str) -> (String, HashMap<String, String>) {
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let mut query = HashMap::new();
    if let Some(q) = raw_query {
        for pair in q.split('&') {
            if pair.is_empty() {
                continue;
            }
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            // Query components use the form-urlencoded convention where
            // '+' means space; paths do not (RFC 3986: '+' is literal).
            query.insert(
                percent_decode(&k.replace('+', "%20")),
                percent_decode(&v.replace('+', "%20")),
            );
        }
    }
    (percent_decode(raw_path), query)
}

/// Decodes `%XX` escapes. `+` passes through literally (RFC 3986);
/// query parsing pre-translates form-encoded `+` before calling this.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // Valid only when two hex digits follow; otherwise the
                // '%' passes through literally.
                if let Some(hex) = bytes.get(i + 1..i + 3) {
                    if let Ok(v) = u8::from_str_radix(std::str::from_utf8(hex).unwrap_or("zz"), 16)
                    {
                        out.push(v);
                        i += 3;
                        continue;
                    }
                }
                out.push(b'%');
                i += 1;
            }
            other => {
                out.push(other);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A pull-based producer of response body chunks, served with
/// `Transfer-Encoding: chunked` framing.
///
/// The reactor polls `next_chunk` only when the socket is writable and
/// the previously encoded bytes have drained, so a stalled consumer
/// parks the producer instead of forcing the server to buffer: peak
/// per-connection buffering is bounded by the reactor's chunk budget
/// plus one chunk.
pub trait BodyStream: Send {
    /// The next chunk of body bytes, `None` when the body is complete.
    ///
    /// # Errors
    ///
    /// A mid-stream error aborts the response: the connection is torn
    /// down *without* the terminal `0\r\n\r\n` chunk, so the client's
    /// chunked decoder observes the truncation instead of silently
    /// accepting a short body.
    fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>>;
}

/// A response body: fully materialized (`Content-Length` framing,
/// today's path) or streamed chunk by chunk (`Transfer-Encoding:
/// chunked`).
pub enum ResponseBody {
    /// The whole body, length known up front.
    Full(Vec<u8>),
    /// A pull-based chunk producer; total length unknown.
    Stream(Box<dyn BodyStream>),
}

impl ResponseBody {
    /// The body length known at serialization time: the buffer length
    /// for [`ResponseBody::Full`], `0` for streams (streamed bytes are
    /// accounted separately as chunks flush).
    pub fn len_hint(&self) -> usize {
        match self {
            ResponseBody::Full(bytes) => bytes.len(),
            ResponseBody::Stream(_) => 0,
        }
    }
}

impl fmt::Debug for ResponseBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResponseBody::Full(bytes) => write!(f, "Full({} bytes)", bytes.len()),
            ResponseBody::Stream(_) => f.write_str("Stream(..)"),
        }
    }
}

impl From<Vec<u8>> for ResponseBody {
    fn from(bytes: Vec<u8>) -> ResponseBody {
        ResponseBody::Full(bytes)
    }
}

/// The terminal chunk closing a chunked body: a zero-length chunk plus
/// the empty trailer section. Its absence at connection close is how a
/// client detects a truncated stream.
pub const LAST_CHUNK: &[u8] = b"0\r\n\r\n";

/// Appends one chunk of `data` to `out` in HTTP/1.1 chunked framing:
/// hex size line, data, CRLF. Callers must not pass empty data — a
/// zero-size chunk is the body terminator ([`LAST_CHUNK`]).
pub fn encode_chunk(out: &mut Vec<u8>, data: &[u8]) {
    debug_assert!(!data.is_empty(), "empty chunk would terminate the body");
    out.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// Target encoded size of one streamed chunk. Large enough to amortize
/// framing and syscalls, small enough that per-connection buffering
/// stays modest.
pub const STREAM_CHUNK_BYTES: usize = 64 * 1024;

/// An HTTP response under construction.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Content type header value.
    pub content_type: String,
    /// Optional `Retry-After` header value in seconds. Set on 503
    /// load-shedding responses (queue-full, worker_queue_full) so
    /// clients back off a principled amount instead of guessing.
    pub retry_after: Option<u32>,
    /// Optional `ETag` header value (already quoted). Temporal crowd
    /// endpoints set it from the serving snapshot's city + epoch so
    /// pollers can revalidate with `If-None-Match` instead of
    /// re-downloading identical epochs.
    pub etag: Option<String>,
    /// Response body: materialized or streamed.
    pub body: ResponseBody,
}

impl Response {
    /// A 200 response with a JSON body.
    pub fn json(body: String) -> Response {
        Response {
            status: StatusCode::Ok,
            content_type: "application/json; charset=utf-8".to_owned(),
            retry_after: None,
            etag: None,
            body: ResponseBody::Full(body.into_bytes()),
        }
    }

    /// A 200 response with an HTML body.
    pub fn html(body: String) -> Response {
        Response {
            status: StatusCode::Ok,
            content_type: "text/html; charset=utf-8".to_owned(),
            retry_after: None,
            etag: None,
            body: ResponseBody::Full(body.into_bytes()),
        }
    }

    /// A 200 response with a plain-text body (Prometheus text
    /// exposition format version 0.0.4).
    pub fn text(body: String) -> Response {
        Response {
            status: StatusCode::Ok,
            content_type: "text/plain; version=0.0.4; charset=utf-8".to_owned(),
            retry_after: None,
            etag: None,
            body: ResponseBody::Full(body.into_bytes()),
        }
    }

    /// A 200 response with an SVG body.
    pub fn svg(body: String) -> Response {
        Response {
            status: StatusCode::Ok,
            content_type: "image/svg+xml".to_owned(),
            retry_after: None,
            etag: None,
            body: ResponseBody::Full(body.into_bytes()),
        }
    }

    /// A 200 response streaming `body` with chunked framing.
    pub fn stream(content_type: &str, body: Box<dyn BodyStream>) -> Response {
        Response {
            status: StatusCode::Ok,
            content_type: content_type.to_owned(),
            retry_after: None,
            etag: None,
            body: ResponseBody::Stream(body),
        }
    }

    /// An empty 304 revalidation response carrying the matching `ETag`.
    pub fn not_modified(etag: &str) -> Response {
        Response {
            status: StatusCode::NotModified,
            content_type: "application/json; charset=utf-8".to_owned(),
            retry_after: None,
            etag: Some(etag.to_owned()),
            body: ResponseBody::Full(Vec::new()),
        }
    }

    /// An error response carrying the uniform envelope with the
    /// status's default code ([`StatusCode::slug`]). Every error body
    /// the server emits — router 404/405, reactor 400/413/503, handler
    /// errors — goes through here or [`Response::error_with_code`], so
    /// clients can always parse `error.code` / `error.message` /
    /// `error.status`.
    pub fn error(status: StatusCode, message: &str) -> Response {
        Response::error_with_code(status, status.slug(), message)
    }

    /// An error response with the uniform envelope and an explicit
    /// machine-readable code:
    ///
    /// ```json
    /// {"error": {"code": "<kebab-slug>", "message": "...", "status": 404}}
    /// ```
    pub fn error_with_code(status: StatusCode, code: &str, message: &str) -> Response {
        debug_assert!(
            !code.is_empty()
                && code
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
            "error codes are kebab-case slugs, got {code:?}"
        );
        Response {
            status,
            content_type: "application/json; charset=utf-8".to_owned(),
            retry_after: None,
            etag: None,
            body: ResponseBody::Full(
                format!(
                    "{{\"error\":{{\"code\":{},\"message\":{},\"status\":{}}}}}",
                    serde_json::to_string(code).unwrap_or_else(|_| "\"error\"".into()),
                    serde_json::to_string(message).unwrap_or_else(|_| "\"error\"".into()),
                    status.code()
                )
                .into_bytes(),
            ),
        }
    }

    /// Attaches a `Retry-After` header (seconds). Used by the 503
    /// load-shedding paths so backoff is advertised, not guessed.
    #[must_use]
    pub fn with_retry_after(mut self, seconds: u32) -> Response {
        self.retry_after = Some(seconds);
        self
    }

    /// Attaches an `ETag` header value (caller supplies the quotes).
    #[must_use]
    pub fn with_etag(mut self, etag: &str) -> Response {
        self.etag = Some(etag.to_owned());
        self
    }

    /// The materialized body bytes: the buffer for
    /// [`ResponseBody::Full`], empty for streams (which have not
    /// produced anything yet).
    pub fn body_bytes(&self) -> &[u8] {
        match &self.body {
            ResponseBody::Full(bytes) => bytes,
            ResponseBody::Stream(_) => &[],
        }
    }

    /// Consumes the response and materializes its body: the buffer for
    /// [`ResponseBody::Full`], or the concatenation of every chunk for
    /// streams. Test and diagnostic convenience — the serving path
    /// never collects a stream.
    ///
    /// # Panics
    ///
    /// Panics when a streamed producer errors mid-body.
    pub fn into_body_bytes(self) -> Vec<u8> {
        match self.body {
            ResponseBody::Full(bytes) => bytes,
            ResponseBody::Stream(mut stream) => {
                let mut out = Vec::new();
                while let Some(chunk) = stream.next_chunk().expect("body stream failed") {
                    out.extend_from_slice(&chunk);
                }
                out
            }
        }
    }

    /// Serializes the response head: status line, `Content-Type`, the
    /// body framing header (`Content-Length` for [`ResponseBody::Full`],
    /// `Transfer-Encoding: chunked` for streams), `Connection`,
    /// `Access-Control-Allow-Origin`, then the optional `Retry-After` /
    /// `ETag` headers and the blank separator line.
    pub fn head_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let framing = match &self.body {
            ResponseBody::Full(bytes) => format!("Content-Length: {}", bytes.len()),
            ResponseBody::Stream(_) => "Transfer-Encoding: chunked".to_owned(),
        };
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n{}\r\nConnection: {}\r\nAccess-Control-Allow-Origin: *\r\n",
            self.status.code(),
            self.status.reason(),
            self.content_type,
            framing,
            if keep_alive { "keep-alive" } else { "close" }
        );
        if let Some(seconds) = self.retry_after {
            head.push_str(&format!("Retry-After: {seconds}\r\n"));
        }
        if let Some(etag) = &self.etag {
            head.push_str(&format!("ETag: {etag}\r\n"));
        }
        head.push_str("\r\n");
        head.into_bytes()
    }

    /// Splits the response into its serialized head and its body for
    /// the reactor's write state machine: a `Full` body is appended to
    /// the head buffer verbatim, a `Stream` body is pulled and
    /// chunk-encoded as the socket drains.
    pub fn into_head_and_body(self, keep_alive: bool) -> (Vec<u8>, ResponseBody) {
        (self.head_bytes(keep_alive), self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(raw: &str) -> io::Result<Request> {
        Request::read_from(raw.as_bytes())
    }

    /// A response's serialized head as text.
    fn head(response: &Response, keep_alive: bool) -> String {
        String::from_utf8(response.head_bytes(keep_alive)).unwrap()
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse("GET /api/crowd?hour=9&top=5 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/api/crowd");
        assert_eq!(req.query_param("hour"), Some("9"));
        assert_eq!(req.query_param("top"), Some("5"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.headers.get("host").map(String::as_str), Some("x"));
    }

    #[test]
    fn parses_post_body() {
        let req = parse("POST /api/upload HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(parse("\r\n").is_err());
        assert!(parse("DELETE /x HTTP/1.1\r\n\r\n").is_err());
        assert!(parse("GET /x SPDY/3\r\n\r\n").is_err());
        assert!(parse("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
        // Truncated body.
        assert!(parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").is_err());
        // Every rejection's exact message: the client reads it in the
        // 400 envelope.
        let long = "a".repeat(MAX_LINE_BYTES);
        let mut many = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..((MAX_HEAD_BYTES / 80) + 2) {
            many.push_str(&format!("X-Pad-{i}: {}\r\n", "p".repeat(80)));
        }
        many.push_str("\r\n");
        let table: Vec<(Vec<u8>, &str)> =
            vec![
            (b"\r\n".to_vec(), "empty request line"),
            (b" \t \n".to_vec(), "empty request line"),
            (b"DELETE /x HTTP/1.1\r\n\r\n".to_vec(), "unsupported method"),
            (b"GET\r\n\r\n".to_vec(), "missing request target"),
            (b"GET /x SPDY/3\r\n\r\n".to_vec(), "unsupported http version"),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n".to_vec(),
                "bad content-length",
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n".to_vec(),
                "bad content-length",
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 18446744073709551616\r\n\r\n".to_vec(),
                "bad content-length",
            ),
            (
                format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1)
                    .into_bytes(),
                "body too large",
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nhello".to_vec(),
                "conflicting duplicate content-length headers",
            ),
            (
                b"GET /x HTTP/1.1\r\nHost: x\r\n".to_vec(),
                "connection closed mid-headers",
            ),
            (
                b"GET /\xff\xfe HTTP/1.1\r\n\r\n".to_vec(),
                "head line is not valid utf-8",
            ),
            (
                b"GET /x HTTP/1.1\r\nX-Bin: \xc3\x28\r\n\r\n".to_vec(),
                "head line is not valid utf-8",
            ),
            (
                format!("GET /{long} HTTP/1.1\r\n\r\n").into_bytes(),
                "head line too long",
            ),
            (
                format!("GET /x HTTP/1.1\r\nX-Pad: {long}\r\n\r\n").into_bytes(),
                "head line too long",
            ),
            (many.into_bytes(), "header section too large"),
            // `1*DIGIT` only (RFC 9112 §6.3): Rust's integer parser
            // alone would read `+5` as 5.
            (
                b"POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello".to_vec(),
                "bad content-length",
            ),
            // Request bodies are Content-Length only; a chunked body's
            // bytes must never be read as the next request.
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
                    .to_vec(),
                "transfer-encoding is not supported; send the body with content-length",
            ),
        ];
        for (raw, message) in table {
            let err = Request::read_from(raw.as_slice()).unwrap_err();
            assert_eq!(
                err.to_string(),
                message,
                "{}",
                String::from_utf8_lossy(&raw)
            );
        }
    }

    #[test]
    fn parse_reports_the_bytes_it_used() {
        let first = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut wire = first.to_vec();
        wire.extend_from_slice(b"GET /y HTTP/1.1\r\n\r\n");
        let (req, used) = Request::parse(&wire).unwrap();
        assert_eq!(
            used,
            first.len(),
            "pipelined bytes are left for the next parse"
        );
        assert_eq!(req.body, b"hello");
        let (req, used) = Request::parse(&wire[used..]).unwrap();
        assert_eq!((req.path.as_str(), used), ("/y", wire.len() - first.len()));
    }

    #[test]
    fn incomplete_requests_carry_the_message_for_a_closed_connection() {
        let incomplete = |raw: &[u8]| {
            let err = Request::parse(raw).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{raw:?}");
            err.to_string()
        };
        assert_eq!(incomplete(b""), "connection closed mid-headers");
        assert_eq!(incomplete(b"GET /x HT"), "connection closed mid-headers");
        assert_eq!(
            incomplete(b"GET /x HTTP/1.1\r\nHost"),
            "connection closed mid-headers"
        );
        let short = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert_eq!(
            incomplete(short),
            "request body shorter than content-length"
        );
        // A stream that ends there reports the same.
        let err = Request::read_from(&short[..]).unwrap_err();
        assert_eq!(err.to_string(), "request body shorter than content-length");
    }

    #[test]
    fn checks_are_final_without_waiting_for_the_head_or_body() {
        let invalid = |raw: &[u8]| {
            let err = Request::parse(raw).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{raw:?}");
            err.to_string()
        };
        // The request line is judged as soon as its newline arrives.
        assert_eq!(invalid(b"BREW /coffee HTTP/1.1\r\n"), "unsupported method");
        // An unterminated line is judged at the line cap.
        assert!(Request::parse(&[b'G'; MAX_LINE_BYTES])
            .is_err_and(|e| e.kind() == io::ErrorKind::UnexpectedEof));
        assert_eq!(invalid(&[b'G'; MAX_LINE_BYTES + 1]), "head line too long");
        let mut raw = b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.resize(raw.len() + MAX_LINE_BYTES, b'p');
        assert_eq!(invalid(&raw), "head line too long");
        // A declared body is not awaited once the head condemns it.
        assert_eq!(
            invalid(b"POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\n"),
            "bad content-length"
        );
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(parse(&raw).is_err());
    }

    #[test]
    fn rejects_missing_header_terminator() {
        // EOF arrives before the blank line ending the header section.
        assert!(parse("GET /x HTTP/1.1\r\nHost: x\r\n").is_err());
        assert!(parse("GET /x HTTP/1.1\r\n").is_err());
    }

    #[test]
    fn rejects_overlong_request_line() {
        // A newline-free request line must error once past the line
        // cap instead of buffering forever.
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES));
        assert!(parse(&raw).is_err());
        // And the same stream without any newline at all.
        let raw = "G".repeat(MAX_LINE_BYTES + 100);
        assert!(parse(&raw).is_err());
    }

    #[test]
    fn rejects_non_utf8_request_line() {
        let mut raw = b"GET /\xff\xfe HTTP/1.1\r\n\r\n".to_vec();
        assert!(Request::read_from(raw.as_slice()).is_err());
        // Non-UTF-8 header line as well.
        raw = b"GET /x HTTP/1.1\r\nX-Bin: \xc3\x28\r\n\r\n".to_vec();
        assert!(Request::read_from(raw.as_slice()).is_err());
    }

    #[test]
    fn rejects_oversized_header_section() {
        let mut raw = String::from("GET /x HTTP/1.1\r\n");
        // Many individually small header lines that sum past the cap.
        for i in 0..((MAX_HEAD_BYTES / 80) + 2) {
            raw.push_str(&format!("X-Pad-{i}: {}\r\n", "p".repeat(80)));
        }
        raw.push_str("\r\n");
        assert!(parse(&raw).is_err());
    }

    #[test]
    fn percent_decoding() {
        // '+' is literal in generic decoding (RFC 3986 paths).
        assert_eq!(percent_decode("a%20b+c"), "a b+c");
        assert_eq!(percent_decode("no-escapes"), "no-escapes");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("%41"), "A");
        // Trailing percent.
        assert_eq!(percent_decode("x%"), "x%");
    }

    #[test]
    fn plus_is_space_in_query_but_literal_in_path() {
        let req = parse("GET /api/a+b?q=x+y HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/api/a+b");
        assert_eq!(req.query_param("q"), Some("x y"));
    }

    #[test]
    fn conflicting_duplicate_content_length_is_rejected() {
        // Pre-fix, HashMap folding let the second value silently win —
        // a request-smuggling shape where a front proxy and this parser
        // disagree on where the body ends.
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nhello";
        let err = parse(raw).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("content-length"), "{err}");
        // Identical repeats collapse harmlessly.
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(parse(raw).unwrap().body, b"hello");
        // Other headers still last-win without error.
        let raw = "GET /x HTTP/1.1\r\nX-Tag: a\r\nX-Tag: b\r\n\r\n";
        assert_eq!(
            parse(raw).unwrap().headers.get("x-tag").map(String::as_str),
            Some("b")
        );
    }

    /// Percent-encodes every byte outside the RFC 3986 unreserved set,
    /// so decoding is an exact inverse for any input string.
    fn percent_encode(s: &str) -> String {
        let mut out = String::new();
        for &b in s.as_bytes() {
            match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                    out.push(b as char);
                }
                _ => out.push_str(&format!("%{b:02X}")),
            }
        }
        out
    }

    /// Character palette for generated strings: unreserved, reserved,
    /// space/plus (the tricky pair), '%', and multi-byte UTF-8.
    const PALETTE: &[char] = &[
        'a', 'Z', '0', '9', '-', '_', '.', '~', ' ', '+', '%', '&', '=', '?', '/', '#', '"', 'é',
        '日',
    ];

    proptest! {
        #[test]
        fn prop_percent_encode_decode_round_trips(
            indices in proptest::collection::vec(0usize..PALETTE.len(), 0..24)
        ) {
            let original: String = indices.iter().map(|&i| PALETTE[i]).collect();
            // Generic decoding: '+' must survive literally ('+' is an
            // RFC 3986 path character, not a space).
            prop_assert_eq!(percent_decode(&percent_encode(&original)), original);
        }

        #[test]
        fn prop_split_target_round_trips_path_and_query(
            path_idx in proptest::collection::vec(0usize..PALETTE.len(), 0..16),
            value_idx in proptest::collection::vec(0usize..PALETTE.len(), 0..16)
        ) {
            let path: String = path_idx.iter().map(|&i| PALETTE[i]).collect();
            let value: String = value_idx.iter().map(|&i| PALETTE[i]).collect();
            let target = format!("/{}?k={}", percent_encode(&path), percent_encode(&value));
            let (decoded_path, query) = split_target(&target);
            prop_assert_eq!(decoded_path, format!("/{path}"));
            prop_assert_eq!(query.get("k").cloned(), Some(value.clone()));
            // Form-encoded convention: '+' in the raw query means
            // space, while %2B stays a literal plus — swapping the
            // space escapes for '+' must decode identically.
            let plus_form = format!("/x?k={}", percent_encode(&value).replace("%20", "+"));
            let (_, plus_query) = split_target(&plus_form);
            prop_assert_eq!(plus_query.get("k").cloned(), Some(value));
        }
    }

    #[test]
    fn keep_alive_negotiation_follows_version_and_header() {
        // HTTP/1.1 defaults to keep-alive; 1.0 defaults to close.
        assert!(parse("GET /x HTTP/1.1\r\n\r\n").unwrap().wants_keep_alive());
        assert!(!parse("GET /x HTTP/1.0\r\n\r\n").unwrap().wants_keep_alive());
        // Explicit headers override either default.
        assert!(!parse("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .wants_keep_alive());
        assert!(parse("GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .wants_keep_alive());
        // Case-insensitive, token-list tolerant.
        assert!(
            !parse("GET /x HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n")
                .unwrap()
                .wants_keep_alive()
        );
    }

    #[test]
    fn response_announces_the_negotiated_disposition() {
        let keep = head(&Response::json("{}".to_owned()), true);
        assert!(keep.contains("\r\nConnection: keep-alive\r\n"), "{keep}");
        let close = head(&Response::json("{}".to_owned()), false);
        assert!(close.contains("\r\nConnection: close\r\n"), "{close}");
    }

    #[test]
    fn text_response_has_prometheus_content_type() {
        let r = Response::text("metric 1\n".to_owned());
        assert_eq!(r.status, StatusCode::Ok);
        assert!(r.content_type.starts_with("text/plain"));
        assert!(r.content_type.contains("version=0.0.4"));
    }

    #[test]
    fn response_serialization() {
        let r = Response::json("{\"ok\":true}".to_owned());
        let s = head(&r, false);
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 11"));
        assert!(s.ends_with("\r\n\r\n"));
        assert_eq!(r.into_body_bytes(), b"{\"ok\":true}");
    }

    #[test]
    fn retry_after_header_is_emitted_when_set() {
        let r = Response::error(StatusCode::ServiceUnavailable, "queue full").with_retry_after(2);
        let s = head(&r, false);
        assert!(s.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(s.contains("\r\nRetry-After: 2\r\n"));
        // The header belongs to the head, before the blank separator.
        assert!(s.ends_with("\r\n\r\n"), "{s}");
    }

    #[test]
    fn retry_after_header_is_absent_by_default() {
        assert!(!head(&Response::json("{}".to_owned()), false).contains("Retry-After"));
    }

    #[test]
    fn error_response_is_enveloped_with_status_slug() {
        let r = Response::error(StatusCode::NotFound, "no such user");
        assert_eq!(r.status.code(), 404);
        let body = String::from_utf8(r.into_body_bytes()).unwrap();
        let v: serde_json::Value = serde_json::from_str(&body).expect("error body is valid JSON");
        assert_eq!(v["error"]["code"], "not-found");
        assert_eq!(v["error"]["message"], "no such user");
        assert_eq!(v["error"]["status"], 404);
    }

    #[test]
    fn error_with_code_overrides_the_slug() {
        let r = Response::error_with_code(StatusCode::BadRequest, "bad-hour", "hour must be 0-23");
        let v: serde_json::Value =
            serde_json::from_str(&String::from_utf8(r.into_body_bytes()).unwrap()).unwrap();
        assert_eq!(v["error"]["code"], "bad-hour");
        assert_eq!(v["error"]["message"], "hour must be 0-23");
        assert_eq!(v["error"]["status"], 400);
    }

    #[test]
    fn error_response_escapes_hostile_messages() {
        let r = Response::error(StatusCode::BadRequest, "a \"quoted\" message\nwith newline");
        let v: serde_json::Value =
            serde_json::from_str(&String::from_utf8(r.into_body_bytes()).unwrap()).unwrap();
        assert_eq!(v["error"]["message"], "a \"quoted\" message\nwith newline");
    }

    #[test]
    fn status_codes_and_reasons() {
        assert_eq!(StatusCode::Ok.code(), 200);
        assert_eq!(StatusCode::NotModified.code(), 304);
        assert_eq!(StatusCode::NotModified.reason(), "Not Modified");
        assert_eq!(StatusCode::NotModified.slug(), "not-modified");
        assert_eq!(StatusCode::BadRequest.reason(), "Bad Request");
        assert_eq!(StatusCode::PayloadTooLarge.code(), 413);
        assert_eq!(StatusCode::ServiceUnavailable.code(), 503);
        assert_eq!(
            StatusCode::ServiceUnavailable.reason(),
            "Service Unavailable"
        );
        assert_eq!(StatusCode::ServiceUnavailable.slug(), "service-unavailable");
        assert_eq!(StatusCode::MethodNotAllowed.slug(), "method-not-allowed");
    }

    #[test]
    fn chunk_encoding_uses_hex_sizes_and_crlf_framing() {
        let mut out = Vec::new();
        encode_chunk(&mut out, b"hello");
        encode_chunk(&mut out, &vec![b'x'; 255]);
        assert!(out.starts_with(b"5\r\nhello\r\nff\r\n"), "{out:?}");
        assert!(out.ends_with(b"\r\n"));
        assert_eq!(LAST_CHUNK, b"0\r\n\r\n");
    }

    /// A producer yielding `bytes` in [`STREAM_CHUNK_BYTES`] windows.
    struct Windows(std::vec::IntoIter<Vec<u8>>);

    fn windows(bytes: &[u8]) -> Box<dyn BodyStream> {
        let chunks: Vec<Vec<u8>> = bytes
            .chunks(STREAM_CHUNK_BYTES)
            .map(<[u8]>::to_vec)
            .collect();
        Box::new(Windows(chunks.into_iter()))
    }

    impl BodyStream for Windows {
        fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
            Ok(self.0.next())
        }
    }

    #[test]
    fn streamed_response_head_declares_chunked_framing() {
        let r = Response::stream("application/x-ndjson", windows(b"{}\n"));
        let head = String::from_utf8(r.head_bytes(true)).unwrap();
        assert!(
            head.contains("\r\nTransfer-Encoding: chunked\r\n"),
            "{head}"
        );
        assert!(!head.contains("Content-Length"), "{head}");
        assert!(head.contains("\r\nConnection: keep-alive\r\n"), "{head}");
    }

    #[test]
    fn collected_stream_body_matches_the_source_bytes() {
        let body = vec![42u8; 3 * STREAM_CHUNK_BYTES + 17];
        let r = Response::stream("text/plain", windows(&body));
        assert_eq!(r.into_body_bytes(), body);
    }

    #[test]
    fn etag_header_is_emitted_when_set_and_absent_otherwise() {
        let tagged = Response::json("{}".to_owned()).with_etag("\"nyc-e7\"");
        let head = String::from_utf8(tagged.head_bytes(true)).unwrap();
        assert!(head.contains("\r\nETag: \"nyc-e7\"\r\n"), "{head}");
        let plain = String::from_utf8(Response::json("{}".to_owned()).head_bytes(true)).unwrap();
        assert!(!plain.contains("ETag"), "{plain}");
    }

    #[test]
    fn not_modified_response_is_empty_with_etag() {
        let r = Response::not_modified("\"nyc-e7\"");
        let s = head(&r, true);
        assert!(s.starts_with("HTTP/1.1 304 Not Modified\r\n"), "{s}");
        assert!(s.contains("\r\nContent-Length: 0\r\n"), "{s}");
        assert!(s.contains("\r\nETag: \"nyc-e7\"\r\n"), "{s}");
        assert!(s.ends_with("\r\n\r\n"), "{s}");
        assert!(r.into_body_bytes().is_empty());
    }

    /// Request lines for the wire generator: well-formed ones and the
    /// shapes the parser must reject.
    const REQUEST_LINES: &[&str] = &[
        "GET /api/v1/crowd?hour=9&q=a+b%20c HTTP/1.1",
        "POST /api/v1/upload HTTP/1.1",
        "GET /a%2Fb+c%zz HTTP/1.0",
        "GET /HTTP/1.0",
        "GET",
        "BREW /coffee HTCPCP/1.0",
        "GET /x SPDY/3",
        "",
        "get /x HTTP/1.1 trailing",
    ];

    /// Header lines for the wire generator, odd framing values included.
    const HEADERS: &[&str] = &[
        "Host: x",
        "Content-Length: 5",
        "content-length:  5 ",
        "Content-Length: 0",
        "Content-Length: 3",
        "Content-Length: +5",
        "Content-Length: 18446744073709551616",
        "Content-Length: nope",
        "Connection: close",
        "Connection: keep-alive",
        "Connection: Keep-Alive, Close",
        "Transfer-Encoding: chunked",
        "no colon here",
        "X-Utf8: é",
        "  ",
    ];

    const EOLS: &[&str] = &["\r\n", "\n"];

    /// One request built from the palettes: a request line, headers, a
    /// blank line and a few arbitrary body bytes.
    fn wire_request() -> impl Strategy<Value = Vec<u8>> {
        (
            (0..REQUEST_LINES.len(), 0..EOLS.len()),
            proptest::collection::vec((0..HEADERS.len(), 0..EOLS.len()), 0..5),
            0..EOLS.len(),
            proptest::collection::vec(any::<u8>(), 0..8),
        )
            .prop_map(|((line, eol), headers, end, body)| {
                let mut wire = format!("{}{}", REQUEST_LINES[line], EOLS[eol]);
                for (header, eol) in headers {
                    wire.push_str(HEADERS[header]);
                    wire.push_str(EOLS[eol]);
                }
                wire.push_str(EOLS[end]);
                let mut wire = wire.into_bytes();
                wire.extend_from_slice(&body);
                wire
            })
    }

    /// A parse result reduced to what must match across prefixes: the
    /// request and bytes used, or the error kind and message.
    type Outcome = Result<(Request, usize), (io::ErrorKind, String)>;

    fn outcome(parsed: io::Result<(Request, usize)>) -> Outcome {
        parsed.map_err(|e| (e.kind(), e.to_string()))
    }

    proptest! {
        #[test]
        fn prop_parse_is_prefix_stable(
            requests in proptest::collection::vec(wire_request(), 1..4),
            noise in proptest::collection::vec((any::<usize>(), any::<u8>(), any::<bool>()), 0..3),
            raw in proptest::collection::vec(any::<u8>(), 0..48),
            mode in 0u8..4
        ) {
            // Mode 0: arbitrary bytes. Otherwise pipelined palette
            // requests, from mode 2 on with a few bytes replaced or
            // inserted at random.
            let mut wire = if mode == 0 { raw } else { requests.concat() };
            for &(at, byte, insert) in noise.iter().filter(|_| mode >= 2) {
                let at = at % (wire.len() + 1);
                if insert || at == wire.len() {
                    wire.insert(at, byte);
                } else {
                    wire[at] = byte;
                }
            }
            let whole = outcome(Request::parse(&wire));
            if let Ok((_, used)) = &whole {
                prop_assert!(*used <= wire.len());
            }
            for cut in 0..=wire.len() {
                let prefix = outcome(Request::parse(&wire[..cut]));
                if !matches!(&prefix, Err((io::ErrorKind::UnexpectedEof, _))) {
                    prop_assert_eq!(
                        &prefix,
                        &whole,
                        "prefix of {} bytes of {:?}",
                        cut,
                        String::from_utf8_lossy(&wire)
                    );
                }
            }
            // The stream reader is the same parser behind reads.
            let read = Request::read_from(wire.as_slice()).map_err(|e| (e.kind(), e.to_string()));
            prop_assert_eq!(read, whole.map(|(request, _)| request));
        }

        #[test]
        fn prop_parse_unterminated_oversized_head_is_final(
            line in 0..REQUEST_LINES.len(),
            lens in proptest::collection::vec(1usize..2 * MAX_LINE_BYTES, 1..40),
            eol in 0..EOLS.len(),
            extra in 0usize..4096
        ) {
            // Lines that are never blank, cut past the bound (often
            // mid-line): no head terminator anywhere.
            let bound = MAX_HEAD_BYTES + MAX_LINE_BYTES;
            let mut wire = format!("{}{}", REQUEST_LINES[line], EOLS[eol]).into_bytes();
            for (i, &len) in lens.iter().cycle().enumerate() {
                if wire.len() > bound + extra {
                    break;
                }
                wire.extend(std::iter::repeat_n(b'a' + (i % 26) as u8, len));
                wire.extend_from_slice(EOLS[(i + eol) % EOLS.len()].as_bytes());
            }
            wire.truncate(bound + 1 + extra);
            let err = Request::parse(&wire).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{}", err);
        }
    }
}
