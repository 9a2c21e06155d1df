//! Minimal HTTP/1.1 parsing and serialization.
//!
//! Supports what the CrowdWeb API needs: GET/POST, path + query string,
//! headers, `Content-Length`-framed bodies, and HTTP/1.1 persistent
//! connections (`Connection` negotiation lives here; the lifecycle —
//! budgets, idle reaping, pipelined replies — is the reactor's).
//!
//! Responses carry a [`ResponseBody`]: either a fully materialized
//! buffer served with `Content-Length` framing, or a pull-based
//! [`BodyStream`] served with `Transfer-Encoding: chunked` framing so
//! large exports never buffer whole in the reactor. Request bodies stay
//! `Content-Length`-only; upgrades are out of scope.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

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
#[derive(Debug, Clone)]
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

    /// Reads and parses one request from a stream.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` errors for malformed requests, oversized
    /// heads/bodies, or unsupported methods.
    pub fn read_from<R: Read>(reader: R) -> io::Result<Request> {
        let mut reader = BufReader::new(reader);
        // Request line: bounded and validated as UTF-8, so a hostile
        // byte stream produces a 400 instead of an unbounded buffer.
        let line = read_line_bounded(&mut reader, MAX_LINE_BYTES)?;
        if line.trim_end().is_empty() {
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
        let http10 = version == "HTTP/1.0";

        // Headers.
        let mut headers = HashMap::new();
        let mut head_len = 0usize;
        loop {
            let hline = read_line_bounded(&mut reader, MAX_LINE_BYTES)?;
            if hline.is_empty() {
                // EOF before the blank terminator line.
                return Err(bad("connection closed mid-headers"));
            }
            head_len += hline.len();
            if head_len > MAX_HEAD_BYTES {
                return Err(bad("header section too large"));
            }
            let trimmed = hline.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_owned();
                // Folding duplicates into the map would let the last
                // Content-Length silently win — the classic
                // request-smuggling shape. Conflicting duplicates are
                // fatal; identical repeats collapse (RFC 9112 §6.3).
                if name == "content-length" && headers.get(&name).is_some_and(|prev| *prev != value)
                {
                    return Err(bad("conflicting duplicate content-length headers"));
                }
                headers.insert(name, value);
            }
        }

        // Body.
        let content_length: usize = headers
            .get("content-length")
            .map(|v| v.parse().map_err(|_| bad("bad content-length")))
            .transpose()?
            .unwrap_or(0);
        if content_length > MAX_BODY_BYTES {
            return Err(bad("body too large"));
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;

        let (path, query) = split_target(target);
        Ok(Request {
            method,
            path,
            query,
            headers,
            body,
            http10,
        })
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

/// Finds the end of the request head in an accumulating byte buffer:
/// the index just past the first empty (`\r\n` or bare `\n`) line, i.e.
/// where the body begins. Returns `None` while the head is incomplete.
///
/// This mirrors [`Request::read_from`]'s line discipline (lines are
/// `\n`-terminated; a trimmed-empty line ends the head) so the evented
/// reader can detect completeness without consuming the stream, then
/// hand the full bytes to the real parser.
pub fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut start = 0;
    while start < buf.len() {
        let nl = buf[start..].iter().position(|&b| b == b'\n')?;
        let line = &buf[start..start + nl];
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        // An empty first line is also "complete": the parser rejects it
        // as "empty request line", an error the caller reaches by
        // parsing the now-complete head.
        if line.is_empty() {
            return Some(start + nl + 1);
        }
        start += nl + 1;
    }
    None
}

/// Outcome of [`scan_head`]: how many body bytes to expect, or a signal
/// that the head is malformed and the authoritative parser should run
/// immediately for its 400.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadScan {
    /// The head is plausible and declares this many body bytes
    /// (0 when `Content-Length` is absent).
    BodyBytes(usize),
    /// The head cannot be trusted (conflicting/unparseable
    /// `Content-Length`, oversized or non-UTF-8 line, declared body
    /// over [`MAX_BODY_BYTES`]): do not wait for a body — hand the
    /// bytes to [`Request::read_from`] now and surface its error.
    Malformed,
}

/// Scans a *complete* head (everything before the index returned by
/// [`find_head_end`]) for the declared body length, with the same
/// duplicate-`Content-Length` discipline as the full parser. Never
/// authoritative: on [`HeadScan::Malformed`] the caller runs the real
/// parser, whose error message is the one the client sees.
pub fn scan_head(head: &[u8]) -> HeadScan {
    let mut content_length: Option<usize> = None;
    for (i, raw_line) in head.split(|&b| b == b'\n').enumerate() {
        if raw_line.len() > MAX_LINE_BYTES {
            return HeadScan::Malformed;
        }
        let Ok(line) = std::str::from_utf8(raw_line) else {
            return HeadScan::Malformed;
        };
        if i == 0 {
            continue; // the request line carries no body framing
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            continue;
        };
        if !name.trim().eq_ignore_ascii_case("content-length") {
            continue;
        }
        let Ok(n) = value.trim().parse::<usize>() else {
            return HeadScan::Malformed;
        };
        // Identical repeats collapse; conflicting duplicates are the
        // request-smuggling shape the parser rejects — don't wait for
        // either claimed body, reject now.
        if content_length.is_some_and(|prev| prev != n) {
            return HeadScan::Malformed;
        }
        if n > MAX_BODY_BYTES {
            return HeadScan::Malformed;
        }
        content_length = Some(n);
    }
    HeadScan::BodyBytes(content_length.unwrap_or(0))
}

/// Scans a complete head for the connection disposition the client
/// asked for, mirroring [`Request::wants_keep_alive`]. Used by the
/// reactor when it answers *without* running the full parser (the
/// worker-queue-full 503 shed path), so a shed response under
/// keep-alive does not kill a healthy client's pipeline. Agreement
/// with the parser is unit-tested.
pub fn scan_wants_keep_alive(head: &[u8]) -> bool {
    let mut keep = true;
    for (i, raw_line) in head.split(|&b| b == b'\n').enumerate() {
        let Ok(line) = std::str::from_utf8(raw_line) else {
            continue;
        };
        let trimmed = line.trim_end();
        if i == 0 {
            keep = !trimmed.ends_with("HTTP/1.0");
            continue;
        }
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            continue;
        };
        if !name.trim().eq_ignore_ascii_case("connection") {
            continue;
        }
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

/// Reads one `\n`-terminated line of at most `limit` bytes. Returns an
/// empty string at EOF; errors on an over-long line or non-UTF-8 bytes.
fn read_line_bounded<R: BufRead>(reader: &mut R, limit: usize) -> io::Result<String> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            break; // EOF
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                buf.extend_from_slice(&available[..=pos]);
                reader.consume(pos + 1);
                break;
            }
            None => {
                buf.extend_from_slice(available);
                let n = available.len();
                reader.consume(n);
            }
        }
        if buf.len() > limit {
            return Err(bad("head line too long"));
        }
    }
    if buf.len() > limit {
        return Err(bad("head line too long"));
    }
    String::from_utf8(buf).map_err(|_| bad("head line is not valid utf-8"))
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

    /// Writes the response with closing semantics (`Connection:
    /// close`) — the one-shot shape every pre-keep-alive caller
    /// expects. The reactor threads the negotiated disposition through
    /// [`Response::into_head_and_body`] instead.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying stream.
    pub fn write_to<W: Write>(self, writer: W) -> io::Result<()> {
        self.write_to_with(writer, false)
    }

    /// Writes the response, announcing the negotiated connection
    /// disposition: `Connection: keep-alive` when the connection
    /// persists for another request, `Connection: close` on the final
    /// response before the server hangs up. Streamed bodies are drained
    /// synchronously in chunked framing; a producer error propagates
    /// *without* the terminal chunk, mirroring the reactor's
    /// abort-on-error contract.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying stream and from a
    /// streamed body's producer.
    pub fn write_to_with<W: Write>(self, mut writer: W, keep_alive: bool) -> io::Result<()> {
        let (head, body) = self.into_head_and_body(keep_alive);
        writer.write_all(&head)?;
        match body {
            ResponseBody::Full(bytes) => writer.write_all(&bytes)?,
            ResponseBody::Stream(mut stream) => {
                let mut frame = Vec::new();
                while let Some(chunk) = stream.next_chunk()? {
                    if chunk.is_empty() {
                        continue;
                    }
                    frame.clear();
                    encode_chunk(&mut frame, &chunk);
                    writer.write_all(&frame)?;
                }
                writer.write_all(LAST_CHUNK)?;
            }
        }
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(raw: &str) -> io::Result<Request> {
        Request::read_from(raw.as_bytes())
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
    fn head_end_detection_matches_the_parser() {
        // Incomplete heads.
        assert_eq!(find_head_end(b""), None);
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\nHost: x\r\n"), None);
        // Complete heads, CRLF and bare LF.
        let raw = b"GET / HTTP/1.1\r\nHost: x\r\n\r\nBODY";
        assert_eq!(find_head_end(raw), Some(raw.len() - 4));
        let raw = b"GET / HTTP/1.1\nHost: x\n\nBODY";
        assert_eq!(find_head_end(raw), Some(raw.len() - 4));
        // An empty first line is complete (the parser rejects it).
        assert_eq!(find_head_end(b"\r\nrest"), Some(2));
        // Binary junk with no newline never completes.
        assert_eq!(find_head_end(&[0xff; 64]), None);
    }

    #[test]
    fn head_scan_extracts_body_framing() {
        assert_eq!(
            scan_head(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"),
            HeadScan::BodyBytes(0)
        );
        assert_eq!(
            scan_head(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\n"),
            HeadScan::BodyBytes(5)
        );
        // Case-insensitive name, whitespace-tolerant value.
        assert_eq!(
            scan_head(b"POST /x HTTP/1.1\r\ncontent-length:  7 \r\n\r\n"),
            HeadScan::BodyBytes(7)
        );
        // Identical repeats collapse like the parser's.
        assert_eq!(
            scan_head(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n"),
            HeadScan::BodyBytes(5)
        );
    }

    #[test]
    fn head_scan_flags_untrustworthy_heads() {
        // Conflicting duplicates (request-smuggling shape).
        assert_eq!(
            scan_head(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\n"),
            HeadScan::Malformed
        );
        // Unparseable length.
        assert_eq!(
            scan_head(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            HeadScan::Malformed
        );
        // Declared body over the cap.
        let huge = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(scan_head(huge.as_bytes()), HeadScan::Malformed);
        // Non-UTF-8 header line.
        assert_eq!(
            scan_head(b"GET /x HTTP/1.1\r\nX-Bin: \xc3\x28\r\n\r\n"),
            HeadScan::Malformed
        );
        // A single over-long line.
        let long = format!(
            "GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "p".repeat(MAX_LINE_BYTES)
        );
        assert_eq!(scan_head(long.as_bytes()), HeadScan::Malformed);
    }

    #[test]
    fn scanned_complete_requests_parse_identically() {
        // Completeness detection + real parse must agree end to end.
        let raw = b"POST /api/upload HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let head_end = find_head_end(raw).unwrap();
        let HeadScan::BodyBytes(n) = scan_head(&raw[..head_end]) else {
            panic!("well-formed head misflagged");
        };
        assert_eq!(head_end + n, raw.len());
        let req = Request::read_from(&raw[..head_end + n]).unwrap();
        assert_eq!(req.body, b"hello");
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
    fn head_scan_agrees_with_the_parser_on_disposition() {
        for raw in [
            "GET /x HTTP/1.1\r\nHost: a\r\n\r\n",
            "GET /x HTTP/1.0\r\nHost: a\r\n\r\n",
            "GET /x HTTP/1.1\r\nConnection: close\r\n\r\n",
            "GET /x HTTP/1.0\r\nconnection: keep-alive\r\n\r\n",
            "POST /x HTTP/1.1\r\nConnection: Keep-Alive, Close\r\nContent-Length: 0\r\n\r\n",
        ] {
            let parsed = parse(raw).unwrap().wants_keep_alive();
            let scanned = scan_wants_keep_alive(raw.as_bytes());
            assert_eq!(parsed, scanned, "parser/scanner disagree on {raw:?}");
        }
    }

    #[test]
    fn response_announces_the_negotiated_disposition() {
        let mut keep = Vec::new();
        Response::json("{}".to_owned())
            .write_to_with(&mut keep, true)
            .unwrap();
        let keep = String::from_utf8(keep).unwrap();
        assert!(keep.contains("\r\nConnection: keep-alive\r\n"), "{keep}");
        let mut close = Vec::new();
        Response::json("{}".to_owned())
            .write_to_with(&mut close, false)
            .unwrap();
        let close = String::from_utf8(close).unwrap();
        assert!(close.contains("\r\nConnection: close\r\n"), "{close}");
        // The legacy entry point stays one-shot.
        let mut legacy = Vec::new();
        Response::json("{}".to_owned())
            .write_to(&mut legacy)
            .unwrap();
        assert!(String::from_utf8(legacy)
            .unwrap()
            .contains("\r\nConnection: close\r\n"));
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
        let mut buf = Vec::new();
        Response::json("{\"ok\":true}".to_owned())
            .write_to(&mut buf)
            .unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 11"));
        assert!(s.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn retry_after_header_is_emitted_when_set() {
        let mut buf = Vec::new();
        Response::error(StatusCode::ServiceUnavailable, "queue full")
            .with_retry_after(2)
            .write_to(&mut buf)
            .unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(s.contains("\r\nRetry-After: 2\r\n"));
        // The header belongs to the head, before the blank separator.
        let head_end = s.find("\r\n\r\n").unwrap();
        assert!(s[..head_end].contains("Retry-After: 2"));
    }

    #[test]
    fn retry_after_header_is_absent_by_default() {
        let mut buf = Vec::new();
        Response::json("{}".to_owned()).write_to(&mut buf).unwrap();
        assert!(!String::from_utf8(buf).unwrap().contains("Retry-After"));
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
    fn streamed_response_serializes_with_terminal_chunk() {
        let mut buf = Vec::new();
        Response::stream("text/plain", windows(b"abcdef"))
            .write_to_with(&mut buf, false)
            .unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("\r\n\r\n6\r\nabcdef\r\n0\r\n\r\n"), "{s}");
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
        let mut buf = Vec::new();
        Response::not_modified("\"nyc-e7\"")
            .write_to_with(&mut buf, true)
            .unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 304 Not Modified\r\n"), "{s}");
        assert!(s.contains("\r\nContent-Length: 0\r\n"), "{s}");
        assert!(s.contains("\r\nETag: \"nyc-e7\"\r\n"), "{s}");
        assert!(s.ends_with("\r\n\r\n"), "{s}");
    }

    #[test]
    fn mid_stream_error_propagates_without_terminal_chunk() {
        struct Failing(u32);
        impl BodyStream for Failing {
            fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
                self.0 += 1;
                if self.0 == 1 {
                    Ok(Some(b"partial".to_vec()))
                } else {
                    Err(io::Error::other("producer died"))
                }
            }
        }
        let mut buf = Vec::new();
        let err = Response::stream("text/plain", Box::new(Failing(0)))
            .write_to_with(&mut buf, false)
            .unwrap_err();
        assert_eq!(err.to_string(), "producer died");
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("7\r\npartial\r\n"), "{s}");
        assert!(
            !s.contains("0\r\n\r\n"),
            "terminal chunk must be absent: {s}"
        );
    }
}
