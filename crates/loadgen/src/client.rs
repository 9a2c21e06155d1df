//! A minimal HTTP/1.1 client with keep-alive connection reuse.
//!
//! [`Client`] holds one persistent connection and frames responses by
//! status line + `Content-Length` — never by EOF, which silently breaks
//! (hangs until the server's idle reap, or truncates) against a
//! keep-alive server. When the server closes the connection (stated
//! `Connection: close`, exhausted request budget, idle reap between
//! requests), the client reconnects transparently: a send or first read
//! that fails on a *reused* connection is retried once on a fresh one.
//! Deliberately dependency-free and blocking — each sender thread owns
//! its own `Client`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response, reduced to what the harness records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Parsed `Retry-After` header (seconds), when present.
    pub retry_after: Option<u64>,
    /// Response body bytes, UTF-8-decoded lossily.
    pub body: String,
    /// Whether the server announced `Connection: close` — the client
    /// drops the connection and dials fresh for the next request.
    pub connection_close: bool,
}

impl HttpResponse {
    /// Whether the status is 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// A persistent-connection HTTP client bound to one server address.
///
/// Requests reuse a single kept-alive connection; the server closing it
/// (budget exhaustion, idle reap, negotiated close) costs one
/// transparent reconnect, not an error.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client for `addr`; connections are dialed lazily. Socket
    /// connect/read/write all inherit `timeout`.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            timeout,
            conn: None,
        }
    }

    /// Sends one request and reads one `Content-Length`-framed
    /// response, reusing the held connection when there is one.
    ///
    /// `body` of `Some` makes it a POST with a JSON content type;
    /// `None` makes it a GET.
    ///
    /// # Errors
    ///
    /// Propagates connect/read/write failures and malformed response
    /// frames as `io::Error` — the harness counts these as transport
    /// errors, distinct from HTTP-level error statuses. A failure on a
    /// reused connection is retried once on a fresh connection first
    /// (the server is allowed to have reaped the idle socket between
    /// requests).
    pub fn request(&mut self, path: &str, body: Option<&str>) -> io::Result<HttpResponse> {
        let reused = self.conn.is_some();
        match self.attempt(path, body) {
            Ok(response) => Ok(response),
            Err(e) => {
                self.conn = None;
                if reused {
                    // The stale-connection race: the server may close a
                    // kept-alive socket at any moment between requests.
                    // One fresh dial disambiguates a reaped connection
                    // from a down server.
                    self.attempt(path, body).inspect_err(|_| self.conn = None)
                } else {
                    Err(e)
                }
            }
        }
    }

    /// One send + one framed read on the current connection, dialing if
    /// none is held. Leaves the connection in place unless the server
    /// said close.
    fn attempt(&mut self, path: &str, body: Option<&str>) -> io::Result<HttpResponse> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            // Nagle + delayed ACK costs ~40ms per request on a reused
            // connection if the request goes out in more than one
            // segment; a latency-measuring client can never afford it.
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        {
            // One buffer, one write: a request split across small
            // writes stalls on Nagle waiting for the previous
            // segment's (delayed) ACK.
            let request = match body {
                Some(json) => format!(
                    "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\n\r\n{json}",
                    json.len()
                ),
                None => format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\n\r\n"),
            };
            let stream = conn.get_mut();
            stream.write_all(request.as_bytes())?;
            stream.flush()?;
        }
        let response = read_framed_response(conn)?;
        if response.connection_close {
            self.conn = None;
        }
        Ok(response)
    }
}

/// Sends one request on a throwaway `Connection: close` connection.
///
/// For one-shot probes (health checks) where holding a connection is
/// not worth it; sustained traffic should use [`Client`].
///
/// # Errors
///
/// As [`Client::request`], minus the reused-connection retry.
pub fn request(
    addr: SocketAddr,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<HttpResponse> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut stream = stream;
    let request = match body {
        Some(json) => format!(
            "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{json}",
            json.len()
        ),
        None => format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n"),
    };
    stream.write_all(request.as_bytes())?;
    stream.flush()?;
    read_framed_response(&mut BufReader::new(stream))
}

/// Reads exactly one response — status line, headers, then the body as
/// framed by the head: exactly `Content-Length` bytes, or a
/// `Transfer-Encoding: chunked` sequence through its terminal
/// zero-size chunk — leaving any pipelined bytes behind it unread. EOF
/// is never the frame boundary; a chunked stream that ends without the
/// terminal chunk is a transport error (that is how the server
/// signals a mid-stream producer failure).
fn read_framed_response<R: BufRead>(reader: &mut R) -> io::Result<HttpResponse> {
    let malformed = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
    let status_line = read_crlf_line(reader)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| malformed("unparseable status line"))?;
    let mut retry_after = None;
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    let mut connection_close = false;
    loop {
        let line = read_crlf_line(reader)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("retry-after") {
            retry_after = value.parse::<u64>().ok();
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| malformed("unparseable content-length"))?,
            );
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value
                .split(',')
                .any(|token| token.trim().eq_ignore_ascii_case("chunked"));
        } else if name.eq_ignore_ascii_case("connection") {
            connection_close = value
                .split(',')
                .any(|token| token.trim().eq_ignore_ascii_case("close"));
        }
    }
    let body = if chunked {
        read_chunked_body(reader)?
    } else {
        let content_length = content_length
            .ok_or_else(|| malformed("response declared neither content-length nor chunked"))?;
        let mut body = Vec::new();
        read_body_bytes(reader, &mut body, content_length)?;
        body
    };
    Ok(HttpResponse {
        status,
        retry_after,
        body: String::from_utf8_lossy(&body).into_owned(),
        connection_close,
    })
}

/// Decodes one chunked body: hex-size line, that many data bytes, a
/// CRLF, repeated through the terminal `0\r\n\r\n`. EOF anywhere before
/// the terminal chunk is an `UnexpectedEof` transport error — a
/// truncated stream must never pass for a complete body.
fn read_chunked_body<R: BufRead>(reader: &mut R) -> io::Result<Vec<u8>> {
    let malformed = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
    let mut body = Vec::new();
    loop {
        let size_line = read_crlf_line(reader)?;
        // Ignore any chunk extension (";" onward) per RFC 9112 §7.1.1.
        let size_hex = size_line.split(';').next().unwrap_or("").trim();
        let size =
            usize::from_str_radix(size_hex, 16).map_err(|_| malformed("unparseable chunk size"))?;
        if size == 0 {
            break;
        }
        read_body_bytes(reader, &mut body, size)?;
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(malformed("chunk data not CRLF-terminated"));
        }
    }
    // Trailer section: consume through the blank line ending the frame
    // (the server sends none, so this is normally one empty read).
    loop {
        if read_crlf_line(reader)?.is_empty() {
            break;
        }
    }
    Ok(body)
}

/// Appends exactly `len` body bytes to `body`, growing it only as bytes
/// arrive: a hostile declared size costs nothing until its bytes do,
/// and reading into reserved capacity skips a zero-fill. EOF first is
/// an `UnexpectedEof` transport error.
fn read_body_bytes<R: BufRead>(reader: &mut R, body: &mut Vec<u8>, len: usize) -> io::Result<()> {
    body.reserve(len.min(64 * 1024));
    let got = reader.take(len as u64).read_to_end(body)?;
    if got < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response-body",
        ));
    }
    Ok(())
}

/// Reads one `\r\n`-terminated line, returned without the terminator.
/// EOF before the terminator is an error — a framed response never
/// relies on EOF.
fn read_crlf_line<R: BufRead>(reader: &mut R) -> io::Result<String> {
    let mut raw = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response-head",
            ));
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                raw.extend_from_slice(&available[..pos]);
                reader.consume(pos + 1);
                break;
            }
            None => {
                let n = available.len();
                raw.extend_from_slice(available);
                reader.consume(n);
            }
        }
    }
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 response head"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::any;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn framed(body: &str, close: bool) -> String {
        format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
            body.len(),
            if close { "close" } else { "keep-alive" }
        )
    }

    /// A scripted server: accepts connections, answers `per_conn`
    /// requests on each with framed keep-alive responses, then closes.
    /// Counts accepts so tests can assert connection reuse.
    fn scripted_server(per_conn: usize, total: usize) -> (SocketAddr, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepts = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&accepts);
        std::thread::spawn(move || {
            let mut answered = 0;
            while answered < total {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                counter.fetch_add(1, Ordering::SeqCst);
                let mut reader = BufReader::new(stream);
                for i in 0..per_conn {
                    // Swallow one request head (loadgen requests are
                    // bodyless GETs in these tests).
                    loop {
                        let mut line = String::new();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            return;
                        }
                        if line == "\r\n" {
                            break;
                        }
                    }
                    let body = format!("resp-{answered}");
                    let reply = framed(&body, i + 1 == per_conn);
                    if reader.get_mut().write_all(reply.as_bytes()).is_err() {
                        break;
                    }
                    answered += 1;
                    if answered == total {
                        break;
                    }
                }
                // Connection dropped here: per_conn budget exhausted.
            }
        });
        (addr, accepts)
    }

    #[test]
    fn frames_by_content_length_on_a_connection_that_stays_open() {
        // Regression: the old client read to EOF, which against a
        // keep-alive server hangs until the idle reap. A framed reader
        // must return as soon as Content-Length bytes arrive, while the
        // connection stays open.
        let (addr, _accepts) = scripted_server(2, 2);
        let mut client = Client::new(addr, Duration::from_secs(5));
        let r = client.request("/one", None).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "resp-0");
        assert!(!r.connection_close);
        assert!(client.conn.is_some(), "keep-alive connection is retained");
    }

    #[test]
    fn sequential_requests_reuse_one_connection() {
        let (addr, accepts) = scripted_server(3, 3);
        let mut client = Client::new(addr, Duration::from_secs(5));
        for i in 0..3 {
            let r = client.request("/seq", None).unwrap();
            assert_eq!(r.body, format!("resp-{i}"));
        }
        assert_eq!(
            accepts.load(Ordering::SeqCst),
            1,
            "three requests must share one connection"
        );
    }

    #[test]
    fn connection_close_response_causes_a_fresh_dial_next_time() {
        let (addr, accepts) = scripted_server(1, 2);
        let mut client = Client::new(addr, Duration::from_secs(5));
        let r = client.request("/a", None).unwrap();
        assert!(r.connection_close);
        let r = client.request("/b", None).unwrap();
        assert_eq!(r.body, "resp-1");
        assert_eq!(accepts.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn reaped_idle_connection_retries_once_on_a_fresh_one() {
        // The server closes the socket after one response *without*
        // announcing it (an idle reap): the client's next send/read
        // fails, and must transparently redial instead of erroring.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            // First connection: one keep-alive response, then a silent
            // close.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
                line.clear();
            }
            reader
                .get_mut()
                .write_all(framed("first", false).as_bytes())
                .unwrap();
            drop(reader); // silent reap
                          // Second connection: serve the retried request.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
                line.clear();
            }
            reader
                .get_mut()
                .write_all(framed("second", false).as_bytes())
                .unwrap();
            // Hold the socket so the client's framed read completes.
            std::thread::sleep(Duration::from_millis(200));
        });
        let mut client = Client::new(addr, Duration::from_secs(5));
        assert_eq!(client.request("/a", None).unwrap().body, "first");
        // Give the close time to land so the failure is on the send or
        // first read, exercising the retry path deterministically.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            client.request("/b", None).unwrap().body,
            "second",
            "a silently reaped connection must cost a redial, not an error"
        );
    }

    #[test]
    fn parses_status_headers_and_body() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                    Retry-After: 2\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}";
        let r = read_framed_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.retry_after, Some(2));
        assert_eq!(r.body, "{}");
        assert!(r.connection_close);
        assert!(!r.is_success());
    }

    #[test]
    fn missing_retry_after_is_none() {
        let raw = b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 4\r\n\r\nbody";
        let r = read_framed_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.retry_after, None);
        assert!(!r.connection_close);
        assert!(r.is_success());
    }

    #[test]
    fn truncated_responses_are_transport_errors() {
        // Head cut mid-line.
        let raw = b"HTTP/1.1 200 OK\r\nContent-";
        assert!(read_framed_response(&mut BufReader::new(&raw[..])).is_err());
        // Neither content-length nor chunked: the frame boundary is
        // unknowable.
        let raw = b"HTTP/1.1 200 OK\r\n\r\nbody";
        assert!(read_framed_response(&mut BufReader::new(&raw[..])).is_err());
        // Body shorter than declared.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort";
        assert!(read_framed_response(&mut BufReader::new(&raw[..])).is_err());
        // Garbage status line.
        let raw = b"garbage\r\n\r\n";
        assert!(read_framed_response(&mut BufReader::new(&raw[..])).is_err());
    }

    #[test]
    fn decodes_a_chunked_body_through_the_terminal_chunk() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\
                    Connection: keep-alive\r\n\r\n\
                    5\r\nhello\r\n7\r\n, world\r\n0\r\n\r\nHTTP/1.1 404 NF\r\nContent-Length: 0\r\n\r\n";
        let mut reader = BufReader::new(&raw[..]);
        let r = read_framed_response(&mut reader).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "hello, world");
        assert!(!r.connection_close);
        // The frame ended exactly at the terminal chunk: a pipelined
        // follow-up response is left unread and parses next.
        let r = read_framed_response(&mut reader).unwrap();
        assert_eq!(r.status, 404);
    }

    #[test]
    fn chunked_body_without_terminal_chunk_is_a_transport_error() {
        // The server aborts a failed stream by closing without the
        // terminal chunk; the client must surface that as an error,
        // never as a short-but-successful body.
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n";
        let err = read_framed_response(&mut BufReader::new(&raw[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Data cut mid-chunk is equally fatal.
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nff\r\nshort";
        assert!(read_framed_response(&mut BufReader::new(&raw[..])).is_err());
        // A garbage size line is malformed, not EOF.
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n";
        let err = read_framed_response(&mut BufReader::new(&raw[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn chunk_extensions_are_ignored() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                    4;ext=1\r\ndata\r\n0\r\n\r\n";
        let r = read_framed_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(r.body, "data");
    }

    #[test]
    fn hostile_body_sizes_fail_without_allocating_them() {
        // Each declares ~16 EiB: a buffer sized from the declaration
        // would overflow capacity and panic before a body byte arrived.
        for raw in [
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\nshort"[..],
            &b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nshort"[..],
        ] {
            let err = read_framed_response(&mut BufReader::new(raw)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        }
    }

    /// Serves `data` in reads of the scripted sizes (cycled), so a
    /// decoder sees the same bytes split at arbitrary points.
    struct SplitReader<'a> {
        data: &'a [u8],
        sizes: Vec<usize>,
        reads: usize,
    }

    impl Read for SplitReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.reads % self.sizes.len()];
            self.reads += 1;
            let n = size.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Response heads for the decoder property, hostile sizes included.
    const HEADS: &[&str] = &[
        "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n",
        "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\nConnection: close\r\n\
         Content-Length: 5\r\n\r\n",
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
        "HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nTransfer-Encoding: gzip, chunked\r\n\r\n",
        "HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n",
        "HTTP/1.1 200 OK\r\n\r\n",
    ];

    /// Body pieces: content, chunk frames (extensions, the terminal
    /// chunk, a hostile size) and a stray CRLF.
    const BODIES: &[&str] = &[
        "hello",
        "5\r\nhello\r\n",
        "3;ext=1\r\nabc\r\n",
        "ffffffffffffffff\r\n",
        "0\r\n\r\n",
        "\r\n",
    ];

    /// Decodes every response in `reader` until the first error, which
    /// ends the list as its kind and message.
    fn decode_all<R: BufRead>(mut reader: R) -> Vec<Result<HttpResponse, (io::ErrorKind, String)>> {
        let mut out = Vec::new();
        loop {
            match read_framed_response(&mut reader) {
                Ok(response) => out.push(Ok(response)),
                Err(e) => {
                    out.push(Err((e.kind(), e.to_string())));
                    return out;
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_decoder_split_reads_match_whole_stream(
            responses in proptest::collection::vec(
                (
                    0..HEADS.len(),
                    proptest::collection::vec(
                        (0..BODIES.len() + 1, proptest::collection::vec(any::<u8>(), 0..6)),
                        0..4
                    )
                ),
                1..4
            ),
            noise in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..3),
            mode in 0u8..3,
            sizes in proptest::collection::vec(1usize..12, 1..8)
        ) {
            // Pipelined responses from the palettes, a body piece one
            // index past its palette being arbitrary bytes; mode 1
            // replaces a few bytes at random, mode 2 keeps only the
            // arbitrary bytes.
            let mut wire = Vec::new();
            for (head, pieces) in &responses {
                if mode != 2 {
                    wire.extend_from_slice(HEADS[*head].as_bytes());
                }
                for (piece, bytes) in pieces {
                    match BODIES.get(*piece).filter(|_| mode != 2) {
                        Some(body) => wire.extend_from_slice(body.as_bytes()),
                        None => wire.extend_from_slice(bytes),
                    }
                }
            }
            let len = wire.len();
            for &(at, byte) in noise.iter().filter(|_| mode == 1 && len > 0) {
                wire[at % len] = byte;
            }
            let whole = decode_all(BufReader::new(wire.as_slice()));
            let split = decode_all(BufReader::new(SplitReader {
                data: &wire,
                sizes,
                reads: 0,
            }));
            proptest::prop_assert_eq!(split, whole, "{:?}", String::from_utf8_lossy(&wire));
        }
    }

    #[test]
    fn pipelined_second_response_is_left_unread() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\noneHTTP/1.1 404 NF\r\nContent-Length: 3\r\n\r\ntwo";
        let mut reader = BufReader::new(&raw[..]);
        let r = read_framed_response(&mut reader).unwrap();
        assert_eq!(r.body, "one");
        let r = read_framed_response(&mut reader).unwrap();
        assert_eq!(r.status, 404);
        assert_eq!(r.body, "two");
    }
}
