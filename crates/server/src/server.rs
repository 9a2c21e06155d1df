//! The server front door: binding, tunables, lifecycle.
//!
//! Connection handling itself lives in [`crate::reactor`]: a single
//! event thread multiplexes every connection over nonblocking sockets
//! and hands complete requests to a bounded worker pool, so slow or
//! idle clients cannot pin threads (see `DESIGN.md` §6).

use crate::reactor::ReactorConfig;
use crate::{api, reactor, AppState, Router};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The CrowdWeb HTTP server: a nonblocking listener driven by an
/// evented reactor loop, with routing and handlers executing on a
/// bounded worker pool.
///
/// # Examples
///
/// See the [crate-level example](crate).
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    router: Arc<Router<AppState>>,
    shutdown: Arc<AtomicBool>,
    config: ReactorConfig,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.local_addr())
            .field("state", &self.state)
            .field("config", &self.config)
            .finish()
    }
}

impl Server {
    /// Binds the server to an address (use port 0 for an ephemeral
    /// port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind<A: ToSocketAddrs>(addr: A, state: AppState) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            state: Arc::new(state),
            router: Arc::new(api::build_router()),
            shutdown: Arc::new(AtomicBool::new(false)),
            config: ReactorConfig::default(),
        })
    }

    /// Sets the read deadline (default 30 s): how long a connection may
    /// take to deliver a complete request before being dropped.
    pub fn read_timeout(mut self, timeout: Duration) -> Server {
        self.config.read_timeout = timeout;
        self
    }

    /// Sets the write deadline (default 30 s): how long a connection
    /// may take to drain its response before being dropped.
    pub fn write_timeout(mut self, timeout: Duration) -> Server {
        self.config.write_timeout = timeout;
        self
    }

    /// Caps concurrently open connections (default 1024). Sockets
    /// accepted beyond the cap are answered with an immediate `503`.
    pub fn max_connections(mut self, cap: usize) -> Server {
        self.config.max_connections = cap.max(1);
        self
    }

    /// Sets the worker-thread count executing handlers (default 8).
    pub fn workers(mut self, threads: usize) -> Server {
        self.config.workers = threads.max(1);
        self
    }

    /// Sets the keep-alive request budget (default 100, minimum 1):
    /// how many requests one connection may carry before the server
    /// closes it. The final response says `Connection: close`.
    pub fn keep_alive_requests(mut self, budget: u32) -> Server {
        self.config.keep_alive_requests = budget.max(1);
        self
    }

    /// Sets the keep-alive idle deadline (default 5 s): how long a
    /// connection may sit quiet between requests before being reaped.
    pub fn keep_alive_idle(mut self, idle: Duration) -> Server {
        self.config.keep_alive_idle = idle;
        self
    }

    /// Sets the per-connection in-flight budget for streamed (chunked)
    /// response bodies, in encoded bytes (default 64 KiB, minimum 1).
    /// A stream's producer is polled only while the connection holds
    /// fewer buffered bytes than this, bounding reactor memory under
    /// slow readers.
    pub fn stream_budget(mut self, bytes: usize) -> Server {
        self.config.stream_budget = bytes.max(1);
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// A handle that can stop a running server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
            addr: self.local_addr(),
        }
    }

    /// Runs the event loop on the current thread until
    /// [`ShutdownHandle::shutdown`] is called.
    pub fn run(self) {
        reactor::run(
            self.listener,
            self.state,
            self.router,
            self.shutdown,
            self.config,
        );
    }

    /// Spawns the server on a background thread, returning its address
    /// and shutdown handle. Convenient for tests and examples.
    pub fn spawn(self) -> (SocketAddr, ShutdownHandle, JoinHandle<()>) {
        let addr = self.local_addr();
        let handle = self.shutdown_handle();
        let join = std::thread::spawn(move || self.run());
        (addr, handle, join)
    }
}

/// Stops a running [`Server`].
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Signals shutdown and pokes the listener so the event loop
    /// observes the flag promptly.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // Wake an otherwise-idle loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdweb_synth::SynthConfig;
    use std::io::{Read, Write};
    use std::time::Instant;

    fn spawn_server() -> (SocketAddr, ShutdownHandle, JoinHandle<()>) {
        let dataset = SynthConfig::small(61).generate().unwrap();
        let state = AppState::build(dataset, 20).unwrap();
        Server::bind("127.0.0.1:0", state).unwrap().spawn()
    }

    fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        // This helper frames by EOF, so it must opt out of keep-alive.
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        let code: u16 = buf
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = buf.split("\r\n\r\n").nth(1).unwrap_or("").to_owned();
        (code, body)
    }

    #[test]
    fn serves_requests_end_to_end() {
        let (addr, handle, join) = spawn_server();
        let (code, body) = http_get(addr, "/api/stats");
        assert_eq!(code, 200);
        assert!(body.contains("total_checkins"));
        let (code, body) = http_get(addr, "/");
        assert_eq!(code, 200);
        assert!(body.contains("CrowdWeb"));
        let (code, _) = http_get(addr, "/nope");
        assert_eq!(code, 404);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn handles_concurrent_clients() {
        let (addr, handle, join) = spawn_server();
        let mut threads = Vec::new();
        for _ in 0..12 {
            threads.push(std::thread::spawn(move || http_get(addr, "/api/users").0));
        }
        for t in threads {
            assert_eq!(t.join().unwrap(), 200);
        }
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn idle_connections_do_not_starve_the_pool() {
        // Slowloris regression: open more silent connections than there
        // are workers, then confirm a real client is still served once
        // the short read timeout reaps them.
        let dataset = SynthConfig::small(62).users(10).generate().unwrap();
        let state = AppState::build(dataset, 10).unwrap();
        let (addr, handle, join) = Server::bind("127.0.0.1:0", state)
            .unwrap()
            .read_timeout(Duration::from_millis(300))
            .spawn();
        let idlers: Vec<TcpStream> = (0..12).map(|_| TcpStream::connect(addr).unwrap()).collect();
        // Give the pool time to pick the idlers up and time them out.
        std::thread::sleep(Duration::from_millis(800));
        let (code, _) = http_get(addr, "/api/stats");
        assert_eq!(code, 200, "server starved by idle connections");
        drop(idlers);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn slow_drip_connections_do_not_block_fast_clients() {
        // The evented-loop guarantee the old thread-per-connection
        // model could not give: dozens of connections dripping partial
        // request heads — all still inside their read deadline, so none
        // get reaped — must not delay a well-behaved client at all.
        let dataset = SynthConfig::small(65).users(10).generate().unwrap();
        let state = AppState::build(dataset, 10).unwrap();
        let metrics = state.metrics().clone();
        let (addr, handle, join) = Server::bind("127.0.0.1:0", state)
            .unwrap()
            .read_timeout(Duration::from_secs(30))
            .spawn();
        let drips: Vec<TcpStream> = (0..72)
            .map(|_| {
                let mut s = TcpStream::connect(addr).unwrap();
                write!(s, "GET /api/stats HTTP/1.1\r\nX-Drip: 1\r\n").unwrap();
                s
            })
            .collect();
        std::thread::sleep(Duration::from_millis(300));
        let open = metrics
            .gauge_value("crowdweb_server_open_connections", &[])
            .unwrap_or(0);
        assert!(
            open >= 64,
            "expected ≥64 drip connections held open, gauge says {open}"
        );
        let started = Instant::now();
        let (code, _) = http_get(addr, "/api/stats");
        assert_eq!(
            code, 200,
            "fast client starved behind slow-drip connections"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "fast client waited {:?} behind {} slow-drip connections",
            started.elapsed(),
            drips.len()
        );
        drop(drips);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn connection_cap_rejects_with_503_and_recovers() {
        let dataset = SynthConfig::small(66).users(10).generate().unwrap();
        let state = AppState::build(dataset, 10).unwrap();
        let metrics = state.metrics().clone();
        let (addr, handle, join) = Server::bind("127.0.0.1:0", state)
            .unwrap()
            .max_connections(4)
            .spawn();
        let holders: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(
            metrics.gauge_value("crowdweb_server_open_connections", &[]),
            Some(4)
        );
        // The connection over the cap is turned away with a clean 503,
        // not a hang or a reset. The refusal is written unprompted (the
        // request is never read), so read without sending anything:
        // request bytes arriving after the post-refusal close would
        // turn it into an RST that can discard the buffered 503.
        let mut refused = TcpStream::connect(addr).unwrap();
        let mut buf = String::new();
        refused.read_to_string(&mut buf).unwrap();
        let code: u16 = buf
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = buf.split("\r\n\r\n").nth(1).unwrap_or("").to_owned();
        assert_eq!(code, 503, "over-cap connection must get 503");
        assert!(body.contains("connection limit"), "{body}");
        assert_eq!(
            metrics.counter_value(
                "crowdweb_server_rejected_total",
                &[("reason", "max_connections")]
            ),
            Some(1)
        );
        // Capacity comes back once the holders leave.
        drop(holders);
        std::thread::sleep(Duration::from_millis(300));
        let (code, _) = http_get(addr, "/api/stats");
        assert_eq!(code, 200, "server must recover after holders disconnect");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn truncated_body_gets_400_not_silent_drop() {
        // Regression: read_exact on a body shorter than Content-Length
        // fails with UnexpectedEof, which the old error mapping treated
        // as "connection dropped" and answered with nothing at all.
        let (addr, handle, join) = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /api/upload HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort"
        )
        .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(
            buf.starts_with("HTTP/1.1 400"),
            "torn body must get a 400, got: {buf:?}"
        );
        assert!(buf.contains("content-length"), "{buf}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn stalled_client_is_dropped_and_counted_not_answered() {
        let dataset = SynthConfig::small(63).users(10).generate().unwrap();
        let state = AppState::build(dataset, 10).unwrap();
        let metrics = state.metrics().clone();
        let (addr, handle, join) = Server::bind("127.0.0.1:0", state)
            .unwrap()
            .read_timeout(Duration::from_millis(200))
            .spawn();
        // A client that starts a request head and then stalls.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /api/stats HTTP/1.1\r\n").unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // The server must close without writing anything — a timeout is
        // not a request to answer.
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        assert!(buf.is_empty(), "stalled client got bytes: {buf:?}");
        assert_eq!(
            metrics.counter_value("crowdweb_http_timeouts_total", &[]),
            Some(1),
            "timeout must be counted as client misbehaviour"
        );
        // And the server is still healthy afterwards.
        let (code, _) = http_get(addr, "/api/stats");
        assert_eq!(code, 200);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn access_metrics_record_requests_by_route_and_status() {
        let dataset = SynthConfig::small(64).users(10).generate().unwrap();
        let state = AppState::build(dataset, 10).unwrap();
        let metrics = state.metrics().clone();
        let (addr, handle, join) = Server::bind("127.0.0.1:0", state).unwrap().spawn();
        // One request via the canonical route, one via its legacy
        // alias: both must fold into the canonical /api/v1 label, so
        // aliasing never doubles the route-label cardinality.
        let (code, _) = http_get(addr, "/api/v1/stats");
        assert_eq!(code, 200);
        let (code, _) = http_get(addr, "/api/stats");
        assert_eq!(code, 200);
        let (code, _) = http_get(addr, "/definitely/not/a/route");
        assert_eq!(code, 404);
        assert_eq!(
            metrics.counter_value(
                "crowdweb_http_requests_total",
                &[
                    ("method", "GET"),
                    ("route", "/api/v1/stats"),
                    ("status", "200")
                ]
            ),
            Some(2),
            "canonical and alias requests share one route label"
        );
        assert_eq!(
            metrics.counter_value(
                "crowdweb_http_requests_total",
                &[
                    ("method", "GET"),
                    ("route", "/api/stats"),
                    ("status", "200")
                ]
            ),
            None,
            "the alias spelling must not mint its own label"
        );
        assert_eq!(
            metrics.counter_value(
                "crowdweb_http_requests_total",
                &[("method", "GET"), ("route", "unmatched"), ("status", "404")]
            ),
            Some(1),
            "404s must be counted even with no matching route"
        );
        let (count, _) = metrics
            .histogram_stats(
                "crowdweb_http_request_seconds",
                &[("route", "/api/v1/stats")],
            )
            .expect("latency histogram registered");
        assert_eq!(count, 2);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn reactor_loop_health_metrics_are_published() {
        let dataset = SynthConfig::small(67).users(10).generate().unwrap();
        let state = AppState::build(dataset, 10).unwrap();
        let metrics = state.metrics().clone();
        let (addr, handle, join) = Server::bind("127.0.0.1:0", state).unwrap().spawn();
        let (code, _) = http_get(addr, "/api/stats");
        assert_eq!(code, 200);
        // The loop-health gauges and tick histogram exist from startup.
        assert!(metrics
            .gauge_value("crowdweb_server_open_connections", &[])
            .is_some());
        assert!(metrics
            .gauge_value("crowdweb_server_deferred_writes", &[])
            .is_some());
        let (ticks, _) = metrics
            .histogram_stats("crowdweb_server_reactor_tick_seconds", &[])
            .expect("tick histogram registered");
        assert!(
            ticks >= 1,
            "serving a request must observe at least one tick"
        );
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn transfer_encoded_request_gets_400_and_close() {
        // Request bodies are Content-Length only. Served as a bodyless
        // POST, the chunked body's bytes would be parsed as a second,
        // pipelined request.
        let (addr, handle, join) = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /api/upload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
        )
        .unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
        assert!(buf.contains("\r\nConnection: close\r\n"), "{buf}");
        assert!(buf.contains("content-length"), "{buf}");
        assert_eq!(buf.matches("HTTP/1.1 ").count(), 1, "one response: {buf}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn malformed_request_gets_400() {
        let (addr, handle, join) = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "BREW /coffee HTCPCP/1.0\r\n\r\n").unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
        handle.shutdown();
        join.join().unwrap();
    }
}
