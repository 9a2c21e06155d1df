//! The evented connection loop.
//!
//! One event thread owns a nonblocking listener and every open
//! connection, and spends its idle time blocked in `poll(2)` (via the
//! [`crate::sys`] shim) instead of spinning a tick: the kernel wakes it
//! when a socket turns readable or writable, a self-pipe wakes it when
//! a worker finishes a dispatched response, and the poll timeout is
//! computed from the nearest per-connection deadline — so an idle
//! server costs ~zero CPU and a ready event is serviced in
//! syscall-latency, not tick-granularity, time.
//!
//! Connections are persistent (HTTP/1.1 keep-alive): after a response
//! drains, the connection returns to `Reading` and any bytes the
//! client pipelined behind the previous request are served next, in
//! arrival order. Each connection carries a request budget and an
//! idle deadline; the final response before budget exhaustion (or any
//! negotiated close) says `Connection: close`, idle connections are
//! reaped quietly, and half-sent requests are reaped as misbehaviour.
//!
//! The per-connection state machine:
//!
//! ```text
//!            accept (cap-checked, else immediate 503 + close)
//!              │
//!              ▼
//!   ┌──────── Reading ────────┐   bytes accumulate; `Request::parse`
//!   │           buf           │   runs after each read (prefix-stable,
//!   └──────────┬──────────────┘   so a final result never changes)
//!              │ request | parse error | EOF
//!              ▼
//!          Dispatched ────────── job on the worker pool: route the
//!              │                 parsed request (or 400 the error),
//!              │ response bytes  record metrics, serialize with the
//!              ▼                 negotiated disposition
//!           Writing ──────────── nonblocking writes until drained
//!              │                 (a stream: one window per pass)
//!              │          │
//!              │ close    │ keep-alive: budget left & client agreed
//!              ▼          ▼
//!            closed     Reading (pipelined bytes served immediately)
//! ```
//!
//! Deadlines are enforced from the loop, never with per-socket
//! timeouts: `Reading` a fresh request has a read deadline, an idle
//! keep-alive connection an idle deadline, `Writing` a write deadline,
//! and `Dispatched` none (handlers may legitimately run long).
//! Saturation is explicit at both edges: over the connection cap a
//! fresh socket gets an immediate 503-and-close, and a full worker
//! queue bounces the job back so the event thread answers 503 itself —
//! honouring the connection's negotiated keep-alive, so shedding one
//! request does not kill a healthy client's pipeline.

use crate::http::{encode_chunk, BodyStream, ResponseBody, LAST_CHUNK};
use crate::sys::{self, Interest, PollSet, Readiness, Waker};
use crate::{AppState, Request, Response, Router, StatusCode};
use crowdweb_exec::{PoolSaturated, WorkerPool};
use crowdweb_obs::{Counter, Gauge, Histogram, MetricsRegistry, HTTP_LATENCY_BUCKETS};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Tunables for the evented connection loop. Constructed by `Server`'s
/// builder methods; defaults suit an interactive deployment.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// How long a connection may take to deliver a complete request
    /// head + body before being reaped (default 30 s).
    pub read_timeout: Duration,
    /// How long a connection may take to drain its response bytes
    /// (default 30 s).
    pub write_timeout: Duration,
    /// Open-connection cap; sockets accepted beyond it get an
    /// immediate `503` (default 1024).
    pub max_connections: usize,
    /// Worker threads executing `Router::dispatch` off the event
    /// thread (default 8).
    pub workers: usize,
    /// Bound on jobs queued for the workers; a full queue answers
    /// `503` instead of growing latency without limit (default 128).
    pub job_queue_capacity: usize,
    /// Requests served per connection before the server closes it
    /// (keep-alive budget, default 100; minimum 1). The last response
    /// says `Connection: close`.
    pub keep_alive_requests: u32,
    /// How long a keep-alive connection may sit idle between requests
    /// before being reaped (default 5 s).
    pub keep_alive_idle: Duration,
    /// Per-connection in-flight budget for streamed (chunked) response
    /// bodies, in encoded bytes (default 64 KiB). A stream's producer
    /// is polled only while fewer than this many encoded-but-unwritten
    /// bytes are buffered, so a stalled consumer parks the producer
    /// instead of growing server memory: peak buffering is bounded by
    /// the budget plus one chunk.
    pub stream_budget: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_connections: 1024,
            workers: 8,
            job_queue_capacity: 128,
            keep_alive_requests: 100,
            keep_alive_idle: Duration::from_secs(5),
            stream_budget: 64 * 1024,
        }
    }
}

/// A response serialized for the write path, with the disposition its
/// head announces.
struct Payload {
    /// The head, with the whole body appended under `Content-Length`
    /// framing.
    bytes: Vec<u8>,
    /// A chunked body's producer, pulled as the socket drains, with the
    /// canonical route label for the streamed-bytes metrics.
    stream: Option<(Box<dyn BodyStream>, String)>,
    keep_alive: bool,
}

impl Payload {
    /// The one response serializer, for worker responses and the
    /// loop's own 503s alike.
    fn new(response: Response, keep_alive: bool, route: &str) -> Payload {
        let (mut bytes, body) = response.into_head_and_body(keep_alive);
        let stream = match body {
            ResponseBody::Full(body) => {
                bytes.extend_from_slice(&body);
                None
            }
            ResponseBody::Stream(body) => Some((body, route.to_owned())),
        };
        Payload {
            bytes,
            stream,
            keep_alive,
        }
    }
}

/// Token-addressed completion from a worker: the serialized response,
/// or `None` when the connection should just be dropped.
type Completion = (u64, Option<Payload>);

/// What happens once a `Writing` buffer drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteThen {
    /// `Connection: close` semantics: flush, drain, hang up.
    Close,
    /// Keep-alive: return to `Reading` and serve any pipelined bytes.
    Continue,
}

enum ConnState {
    /// Accumulating request bytes until `Request::parse` gives a final
    /// result.
    Reading { buf: Vec<u8> },
    /// A worker owns the request; the loop only waits.
    Dispatched,
    /// Serialized response bytes draining through nonblocking writes.
    /// With an active `stream`, `buf` holds the encoded-but-unwritten
    /// window of a chunked body and is refilled from the producer each
    /// time it drains — never holding more than the stream budget plus
    /// one chunk.
    Writing {
        buf: Vec<u8>,
        written: usize,
        then: WriteThen,
        stream: Option<LiveStream>,
    },
}

/// A streamed body being pulled through a connection, with its
/// per-route metric handles resolved once at response start.
struct LiveStream {
    body: Box<dyn BodyStream>,
    /// Set once the producer returned `None` and the terminal chunk
    /// was appended to the write buffer.
    done: bool,
    /// A producer failure held back until the chunks encoded before it
    /// have drained: everything the producer yielded still reaches the
    /// client, *then* the connection tears down without the terminal
    /// chunk.
    failed: Option<io::Error>,
    streamed_bytes: Counter,
    streamed_chunks: Counter,
}

impl LiveStream {
    fn new(body: Box<dyn BodyStream>, route: &str, metrics: &ReactorMetrics) -> LiveStream {
        LiveStream {
            body,
            done: false,
            failed: None,
            streamed_bytes: metrics.registry.counter(
                "crowdweb_http_streamed_body_bytes_total",
                "Streamed (chunked) response body bytes produced, by route pattern.",
                &[("route", route)],
            ),
            streamed_chunks: metrics.registry.counter(
                "crowdweb_http_streamed_chunks_total",
                "Chunks produced by streamed response bodies, by route pattern.",
                &[("route", route)],
            ),
        }
    }
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// When the current request started arriving — the latency clock
    /// for access metrics (reset per keep-alive request).
    started: Instant,
    /// Loop-enforced deadline; `None` while a handler runs.
    deadline: Option<Instant>,
    /// Requests fully served on this connection so far.
    served: u32,
    /// Pipelined bytes received beyond the request currently being
    /// handled; become the next `Reading` buffer.
    pending: Vec<u8>,
    /// Set once the client half-closed: no further requests can
    /// arrive, so every response is final.
    saw_eof: bool,
}

impl Conn {
    fn new(stream: TcpStream, read_timeout: Duration) -> Conn {
        let accepted_at = Instant::now();
        Conn {
            stream,
            state: ConnState::Reading { buf: Vec::new() },
            started: accepted_at,
            deadline: Some(accepted_at + read_timeout),
            served: 0,
            pending: Vec::new(),
            saw_eof: false,
        }
    }

    /// The poll interest for the current state.
    fn interest(&self) -> Interest {
        match self.state {
            ConnState::Reading { .. } => Interest {
                read: true,
                write: false,
            },
            // No interest while a worker runs — the self-pipe delivers
            // the completion; the kernel still reports errors/hangups.
            ConnState::Dispatched => Interest {
                read: false,
                write: false,
            },
            ConnState::Writing { .. } => Interest {
                read: false,
                write: true,
            },
        }
    }

    /// Whether this connection is parked between keep-alive requests
    /// with nothing buffered — the reap of such a connection is
    /// housekeeping, not client misbehaviour.
    fn idle_between_requests(&self) -> bool {
        matches!(&self.state, ConnState::Reading { buf }
            if self.served > 0 && buf.is_empty())
    }
}

/// Pre-registered reactor metric handles, so the hot loop never touches
/// the registry's family table.
struct ReactorMetrics {
    registry: MetricsRegistry,
    open_connections: Gauge,
    deferred_writes: Gauge,
    tick_seconds: Histogram,
    read_timeouts: Counter,
    write_timeouts: Counter,
    rejected_cap: Counter,
    rejected_busy: Counter,
    keepalive_reuses: Counter,
    keepalive_reaped: Counter,
    stream_buffered: Gauge,
    stream_aborts: Counter,
}

impl ReactorMetrics {
    fn new(registry: MetricsRegistry) -> ReactorMetrics {
        ReactorMetrics {
            open_connections: registry.gauge(
                "crowdweb_server_open_connections",
                "Connections currently registered with the reactor.",
                &[],
            ),
            deferred_writes: registry.gauge(
                "crowdweb_server_deferred_writes",
                "Connections with response bytes queued but not yet fully written.",
                &[],
            ),
            tick_seconds: registry.histogram(
                "crowdweb_server_reactor_tick_seconds",
                "Wall-clock seconds per reactor wakeup that moved bytes or events.",
                &[],
                &HTTP_LATENCY_BUCKETS,
            ),
            read_timeouts: registry.counter(
                "crowdweb_http_timeouts_total",
                "Connections dropped at the read deadline before a complete request arrived.",
                &[],
            ),
            write_timeouts: registry.counter(
                "crowdweb_server_write_timeouts_total",
                "Connections dropped at the write deadline with a response still queued.",
                &[],
            ),
            rejected_cap: registry.counter(
                "crowdweb_server_rejected_total",
                "Connections refused with 503, by reason.",
                &[("reason", "max_connections")],
            ),
            rejected_busy: registry.counter(
                "crowdweb_server_rejected_total",
                "Connections refused with 503, by reason.",
                &[("reason", "worker_queue_full")],
            ),
            keepalive_reuses: registry.counter(
                "crowdweb_server_keepalive_reuses_total",
                "Requests served on an already-used (kept-alive) connection.",
                &[],
            ),
            keepalive_reaped: registry.counter(
                "crowdweb_server_keepalive_reaped_total",
                "Idle keep-alive connections reaped at the idle deadline.",
                &[],
            ),
            stream_buffered: registry.gauge(
                "crowdweb_server_stream_buffered_bytes",
                "Encoded-but-unwritten streamed body bytes across all connections.",
                &[],
            ),
            stream_aborts: registry.counter(
                "crowdweb_server_stream_aborts_total",
                "Streamed responses aborted by a mid-body producer error (connection closed without the terminal chunk).",
                &[],
            ),
            registry,
        }
    }
}

/// Shared per-wakeup context threaded through the state machine.
struct Ctx<'a> {
    state: &'a Arc<AppState>,
    router: &'a Arc<Router<AppState>>,
    pool: &'a WorkerPool,
    done_tx: &'a mpsc::Sender<Completion>,
    waker: &'a Waker,
    metrics: &'a ReactorMetrics,
    config: &'a ReactorConfig,
}

enum Drive {
    /// Bytes or events moved.
    Progress,
    /// Nothing to do right now.
    Idle,
    /// The connection is finished (drained, dead, or hopeless).
    Close,
}

/// Runs the event loop until `shutdown` is observed. Consumes the
/// listener; joins the worker pool before returning.
pub(crate) fn run(
    listener: TcpListener,
    state: Arc<AppState>,
    router: Arc<Router<AppState>>,
    shutdown: Arc<AtomicBool>,
    config: ReactorConfig,
) {
    listener
        .set_nonblocking(true)
        .expect("listener supports nonblocking mode");
    // A 10k-connection storm overflows the default accept backlog (128)
    // long before the event loop falls behind.
    sys::boost_listen_backlog(&listener, 1024);
    let metrics = ReactorMetrics::new(state.metrics().clone());
    let pool = WorkerPool::new(config.workers, config.job_queue_capacity);
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let (waker, wake_rx) = sys::wake_pair().expect("self-pipe pair");
    let mut pollset = PollSet::new();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;

    while !shutdown.load(Ordering::SeqCst) {
        // 1. Block until the kernel has something for us: a pending
        // accept, a readable/writable connection, a worker completion
        // (self-pipe), or the nearest deadline. This wait is the whole
        // point — an idle server sits here at zero CPU.
        pollset.clear();
        pollset.register_listener(&listener);
        pollset.register_waker(&wake_rx);
        for (&token, conn) in conns.iter() {
            pollset.register(&conn.stream, token, conn.interest());
        }
        let now = Instant::now();
        let timeout = conns
            .values()
            .filter_map(|c| c.deadline)
            .min()
            .map(|deadline| deadline.saturating_duration_since(now));
        if pollset.wait(timeout).is_err() {
            // A failed poll is unrecoverable loop state; degrade to a
            // short park rather than spinning on the error.
            std::thread::sleep(Duration::from_millis(1));
        }
        wake_rx.drain();

        let woke = Instant::now();
        let mut progressed = false;
        let ctx = Ctx {
            state: &state,
            router: &router,
            pool: &pool,
            done_tx: &done_tx,
            waker: &waker,
            metrics: &metrics,
            config: &config,
        };

        // 2. Accept every pending socket (cap-aware).
        if pollset.listener_ready() {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        progressed = true;
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        // Nagle delays the second and later responses
                        // on a pipelined/kept-alive connection by up to
                        // a delayed-ACK interval (~40ms); responses are
                        // written whole, so there is nothing for Nagle
                        // to usefully coalesce.
                        let _ = stream.set_nodelay(true);
                        let mut conn = Conn::new(stream, config.read_timeout);
                        if conns.len() >= config.max_connections {
                            // Over the cap: answer 503 through the
                            // normal write path (the connection
                            // occupies a map slot only until the
                            // refusal drains). The request was never
                            // read, so the refusal always closes.
                            metrics.rejected_cap.inc();
                            let refusal = Response::error(
                                StatusCode::ServiceUnavailable,
                                "connection limit reached",
                            );
                            queue_response(
                                &mut conn,
                                Payload::new(refusal, false, ""),
                                &metrics,
                                config.write_timeout,
                            );
                        }
                        conns.insert(next_token, conn);
                        next_token += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // 3. Move finished worker responses into write queues, then
        // immediately attempt the write — the socket is almost always
        // writable, so most responses go out without another poll.
        let mut closed: Vec<u64> = Vec::new();
        while let Ok((token, payload)) = done_rx.try_recv() {
            progressed = true;
            let Some(payload) = payload else {
                conns.remove(&token);
                continue;
            };
            if let Some(conn) = conns.get_mut(&token) {
                queue_response(conn, payload, &metrics, config.write_timeout);
                if matches!(drive(token, conn, &ctx), Drive::Close) {
                    closed.push(token);
                }
            }
        }
        for token in closed.drain(..) {
            conns.remove(&token);
        }

        // 4. Pump every connection the kernel flagged.
        let ready: Vec<(u64, Readiness)> = pollset.ready().collect();
        for (token, readiness) in ready {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            // A dispatched connection has no read/write interest, so
            // any readiness here is the kernel reporting the client
            // gone (POLLHUP/POLLERR) — the response has nowhere to go.
            if matches!(conn.state, ConnState::Dispatched) {
                if readiness.dead {
                    progressed = true;
                    conns.remove(&token);
                }
                continue;
            }
            match drive(token, conn, &ctx) {
                Drive::Progress => progressed = true,
                Drive::Idle => {}
                Drive::Close => {
                    progressed = true;
                    conns.remove(&token);
                }
            }
        }

        // 5. Deadlines, enforced by the loop instead of per-socket
        // timeouts. A reading connection past its deadline mid-request
        // is client misbehaviour: count it, never answer it. An idle
        // keep-alive connection is just housekeeping.
        let now = Instant::now();
        conns.retain(|_, conn| match conn.deadline {
            Some(deadline) if now >= deadline => {
                if conn.idle_between_requests() {
                    metrics.keepalive_reaped.inc();
                } else {
                    match conn.state {
                        ConnState::Reading { .. } => metrics.read_timeouts.inc(),
                        _ => metrics.write_timeouts.inc(),
                    }
                }
                false
            }
            _ => true,
        });

        // 6. Loop-health signals.
        metrics.open_connections.set(conns.len() as i64);
        let deferred = conns
            .values()
            .filter(|c| matches!(c.state, ConnState::Writing { .. }))
            .count();
        metrics.deferred_writes.set(deferred as i64);
        let stream_buffered: usize = conns
            .values()
            .map(|c| match &c.state {
                ConnState::Writing {
                    buf,
                    written,
                    stream: Some(_),
                    ..
                } => buf.len().saturating_sub(*written),
                _ => 0,
            })
            .sum();
        metrics.stream_buffered.set(stream_buffered as i64);
        if progressed {
            metrics.tick_seconds.observe(woke.elapsed().as_secs_f64());
        }
    }

    metrics.open_connections.set(0);
    metrics.deferred_writes.set(0);
    metrics.stream_buffered.set(0);
    drop(conns);
    drop(pool); // drains queued jobs and joins every worker
}

/// Moves a connection to `Writing` a serialized response: a worker's,
/// or the loop's own over-cap or pool-saturated 503. The connection
/// stays open afterwards only if the response announced keep-alive and
/// the client has not half-closed.
fn queue_response(
    conn: &mut Conn,
    payload: Payload,
    metrics: &ReactorMetrics,
    write_timeout: Duration,
) {
    let keep = payload.keep_alive && !conn.saw_eof;
    conn.state = ConnState::Writing {
        buf: payload.bytes,
        written: 0,
        then: if keep {
            WriteThen::Continue
        } else {
            WriteThen::Close
        },
        stream: payload
            .stream
            .map(|(body, route)| LiveStream::new(body, &route, metrics)),
    };
    conn.deadline = Some(Instant::now() + write_timeout);
}

/// Advances one connection's state machine as far as it can go without
/// another poll event: a drained keep-alive response rolls straight
/// into reading (and possibly dispatching) the next pipelined request.
/// A streamed body is the exception: it writes one refilled window per
/// call and then hands the loop back, so one long stream cannot starve
/// every other connection.
fn drive(token: u64, conn: &mut Conn, ctx: &Ctx<'_>) -> Drive {
    let mut progressed = false;
    loop {
        let step = match conn.state {
            ConnState::Reading { .. } => drive_read(token, conn, ctx),
            ConnState::Dispatched => Drive::Idle,
            ConnState::Writing { .. } => match drive_write(token, conn, ctx) {
                // Still writing after progress: the socket blocked, or
                // a stream wrote its window and yields the loop.
                Drive::Progress if matches!(conn.state, ConnState::Writing { .. }) => {
                    return Drive::Progress;
                }
                step => step,
            },
        };
        match step {
            Drive::Progress => {
                progressed = true;
                // A state transition may leave more work doable right
                // now (pipelined request buffered, response writable):
                // keep going until the machine genuinely blocks.
                if matches!(conn.state, ConnState::Dispatched) {
                    return Drive::Progress;
                }
            }
            Drive::Idle => {
                return if progressed {
                    Drive::Progress
                } else {
                    Drive::Idle
                };
            }
            Drive::Close => return Drive::Close,
        }
    }
}

fn drive_read(token: u64, conn: &mut Conn, ctx: &Ctx<'_>) -> Drive {
    // A pipelined request may already be complete in the buffer from
    // the previous drain — serve it before touching the socket.
    if let Some(parsed) = accumulate(conn, &[]) {
        dispatch(token, conn, ctx, parsed);
        return Drive::Progress;
    }
    let mut progressed = false;
    loop {
        let mut chunk = [0u8; 8192];
        match conn.stream.read(&mut chunk) {
            // EOF: the client finished (or gave up). A clean
            // between-requests close deserves silence; a request cut
            // short gets the 400 its pending `UnexpectedEof` names.
            Ok(0) => {
                conn.saw_eof = true;
                let ConnState::Reading { buf } = &conn.state else {
                    return Drive::Close;
                };
                if buf.is_empty() {
                    return Drive::Close;
                }
                let parsed = Request::parse(buf);
                dispatch(token, conn, ctx, parsed);
                return Drive::Progress;
            }
            Ok(n) => {
                progressed = true;
                // First bytes of a fresh keep-alive request: the idle
                // deadline becomes a read deadline — the client now
                // owes us a complete request.
                let was_idle = conn.idle_between_requests();
                if was_idle {
                    conn.started = Instant::now();
                    conn.deadline = Some(Instant::now() + ctx.config.read_timeout);
                }
                if let Some(parsed) = accumulate(conn, &chunk[..n]) {
                    dispatch(token, conn, ctx, parsed);
                    return Drive::Progress;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Drive::Close,
        }
    }
    if progressed {
        Drive::Progress
    } else {
        Drive::Idle
    }
}

/// Extends the read buffer and parses it: the final parse result, or
/// `None` while the request is incomplete.
fn accumulate(conn: &mut Conn, bytes: &[u8]) -> Option<io::Result<(Request, usize)>> {
    let ConnState::Reading { buf } = &mut conn.state else {
        return None;
    };
    buf.extend_from_slice(bytes);
    match Request::parse(buf) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => None,
        parsed => Some(parsed),
    }
}

/// Moves a connection to `Dispatched` and hands its parsed request (or
/// the parse error, for a 400) to the worker pool; bytes pipelined
/// beyond the request stay behind for the next round. On a saturated
/// pool the event thread sheds load itself with a 503 that honours the
/// request's keep-alive.
fn dispatch(token: u64, conn: &mut Conn, ctx: &Ctx<'_>, parsed: io::Result<(Request, usize)>) {
    let ConnState::Reading { mut buf } = std::mem::replace(&mut conn.state, ConnState::Dispatched)
    else {
        return;
    };
    conn.deadline = None;
    if conn.served > 0 {
        ctx.metrics.keepalive_reuses.inc();
    }
    let parsed = parsed.map(|(request, used)| {
        conn.pending = buf.split_off(used);
        request
    });
    // The keep-alive offer this request is allowed: budget not yet
    // exhausted by this request, and the client still able to send
    // more (no half-close seen). A request that failed to parse
    // forfeits its framing, so it always closes.
    let allow_keep_alive = conn.served + 1 < ctx.config.keep_alive_requests.max(1) && !conn.saw_eof;
    let shed_keep_alive = allow_keep_alive && parsed.as_ref().is_ok_and(Request::wants_keep_alive);
    let started = conn.started;
    let state = Arc::clone(ctx.state);
    let router = Arc::clone(ctx.router);
    let registry = ctx.metrics.registry.clone();
    let done = ctx.done_tx.clone();
    let waker = ctx.waker.clone();
    let job = move || {
        let payload = execute(
            parsed,
            allow_keep_alive,
            &state,
            &router,
            &registry,
            started,
        )
        .map(|(response, keep, route)| Payload::new(response, keep, &route));
        let _ = done.send((token, payload));
        // Poke the event loop out of `poll` — without this the
        // response would wait for the next unrelated event or timeout.
        waker.wake();
    };
    if let Err(PoolSaturated(job)) = ctx.pool.try_execute(job) {
        drop(job);
        ctx.metrics.rejected_busy.inc();
        // Shedding a well-formed request must not cost the client its
        // connection if keep-alive was negotiated.
        let shed = Response::error(StatusCode::ServiceUnavailable, "worker queue full")
            .with_retry_after(crate::api::RETRY_AFTER_SECS);
        queue_response(
            conn,
            Payload::new(shed, shed_keep_alive, ""),
            ctx.metrics,
            ctx.config.write_timeout,
        );
    }
}

/// Routes one parsed request on a worker thread. Returns the response
/// to write, the negotiated keep-alive disposition, and the canonical
/// route label (for streamed-body metrics), or `None` when the
/// connection deserves nothing (panicking handler).
fn execute(
    parsed: io::Result<Request>,
    allow_keep_alive: bool,
    state: &AppState,
    router: &Router<AppState>,
    registry: &MetricsRegistry,
    started: Instant,
) -> Option<(Response, bool, String)> {
    let request = match parsed {
        Ok(request) => request,
        // A malformed or cut-short request deserves a 400 carrying the
        // parser's message, not a silent drop. It also forfeits its
        // framing, so the connection always closes after the 400.
        Err(e) => {
            let response = Response::error(StatusCode::BadRequest, &e.to_string());
            record_access(registry, "invalid", "unparsed", &response, 0, started);
            return Some((response, false, "unparsed".to_owned()));
        }
    };
    let keep = allow_keep_alive && request.wants_keep_alive();
    // A panicking handler must not take the worker down or leak the
    // connection: catch, drop the connection, keep serving.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        router.dispatch(state, &request)
    }));
    let Ok((response, route)) = result else {
        eprintln!("crowdweb: connection handler panicked; worker recovered");
        return None;
    };
    let route = route.unwrap_or("unmatched").to_owned();
    record_access(
        registry,
        &request.method.to_string(),
        &route,
        &response,
        request.body.len(),
        started,
    );
    Some((response, keep, route))
}

fn drive_write(token: u64, conn: &mut Conn, ctx: &Ctx<'_>) -> Drive {
    let ConnState::Writing {
        buf,
        written,
        then,
        stream,
    } = &mut conn.state
    else {
        return Drive::Idle;
    };
    let then = *then;
    // A closing response never had (or no longer wants) its request
    // stream read: discard arriving bytes so the close is a FIN, not a
    // RST that would destroy the response before the client reads it.
    // A keep-alive connection must NOT drain — those bytes are the
    // client's next pipelined request.
    if then == WriteThen::Close {
        drain_input(&mut conn.stream);
    }
    let mut progressed = false;
    let mut refilled = false;
    loop {
        while *written < buf.len() {
            match conn.stream.write(&buf[*written..]) {
                Ok(0) => return Drive::Close,
                Ok(n) => {
                    *written += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // The socket stalled with encoded bytes still
                    // queued: the producer stays parked until this
                    // window drains — backpressure, not buffering.
                    return if progressed {
                        Drive::Progress
                    } else {
                        Drive::Idle
                    };
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Drive::Close,
            }
        }
        // Window drained. Pull the next window from an active stream;
        // a finished (or absent) stream means the response is complete.
        let Some(live) = stream.as_mut() else { break };
        if live.done {
            *stream = None;
            break;
        }
        match refill_stream(buf, written, live, ctx.config.stream_budget) {
            Ok(()) => {
                progressed = true;
                // The producer made progress, so the write deadline
                // clocks the new window — a long stream is not
                // penalized for its total size, only for stalling.
                conn.deadline = Some(Instant::now() + ctx.config.write_timeout);
                // One refilled window per call: a fast reader never
                // blocks the socket, so without this one export would
                // hold the event thread for its whole body. The window
                // stays queued; the level-triggered write interest
                // resumes it on the next pass.
                if refilled {
                    return Drive::Progress;
                }
                refilled = true;
            }
            Err(_) => {
                // Producer died mid-body: tear the connection down
                // WITHOUT the terminal chunk, so the client's decoder
                // sees truncation instead of a short-but-valid body.
                ctx.metrics.stream_aborts.inc();
                return Drive::Close;
            }
        }
    }
    let _ = conn.stream.flush();
    match then {
        WriteThen::Close => {
            drain_input(&mut conn.stream);
            Drive::Close
        }
        WriteThen::Continue => {
            // Response fully drained under keep-alive: back to Reading
            // with whatever the client pipelined behind the request.
            // The caller's drive loop immediately re-evaluates, so a
            // buffered complete request dispatches without waiting for
            // a poll event. `token` keeps the access path uniform.
            let _ = token;
            conn.served += 1;
            conn.started = Instant::now();
            let buffered = std::mem::take(&mut conn.pending);
            let idle = buffered.is_empty();
            conn.state = ConnState::Reading { buf: buffered };
            conn.deadline = Some(
                Instant::now()
                    + if idle {
                        ctx.config.keep_alive_idle
                    } else {
                        ctx.config.read_timeout
                    },
            );
            Drive::Progress
        }
    }
}

/// Refills a drained write window from a streamed body: pulls and
/// chunk-encodes producer output until at least `budget` encoded bytes
/// are queued or the body completes (appending the terminal chunk
/// exactly once). The window therefore never exceeds the budget plus
/// one encoded chunk — the reactor's bounded-memory guarantee for
/// streams.
///
/// # Errors
///
/// Propagates a producer failure; the caller must close the connection
/// without the terminal chunk. A failure that strikes after this
/// refill already encoded chunks is held on the stream and returned by
/// the *next* refill instead, so everything the producer yielded
/// before dying still reaches the client ahead of the teardown.
fn refill_stream(
    buf: &mut Vec<u8>,
    written: &mut usize,
    live: &mut LiveStream,
    budget: usize,
) -> io::Result<()> {
    if let Some(err) = live.failed.take() {
        return Err(err);
    }
    buf.clear();
    *written = 0;
    while !live.done && buf.len() < budget.max(1) {
        match live.body.next_chunk() {
            Ok(Some(data)) if data.is_empty() => continue,
            Ok(Some(data)) => {
                live.streamed_chunks.inc();
                live.streamed_bytes.add(data.len() as u64);
                encode_chunk(buf, &data);
            }
            Ok(None) => {
                buf.extend_from_slice(LAST_CHUNK);
                live.done = true;
            }
            Err(err) if buf.is_empty() => return Err(err),
            Err(err) => {
                live.failed = Some(err);
                break;
            }
        }
    }
    Ok(())
}

/// Reads and discards whatever is waiting on the socket (bounded per
/// call so an aggressive sender cannot pin the loop).
fn drain_input(stream: &mut TcpStream) {
    let mut scratch = [0u8; 4096];
    for _ in 0..8 {
        match stream.read(&mut scratch) {
            Ok(n) if n > 0 => continue,
            _ => break,
        }
    }
}

/// Records one access into the route-keyed request metrics. Routes are
/// labelled by registration pattern (bounded cardinality), never by raw
/// request path.
pub(crate) fn record_access(
    metrics: &MetricsRegistry,
    method: &str,
    route: &str,
    response: &Response,
    request_body_bytes: usize,
    started: Instant,
) {
    let status = response.status.code().to_string();
    metrics
        .counter(
            "crowdweb_http_requests_total",
            "HTTP requests served, by method, route pattern, and status.",
            &[("method", method), ("route", route), ("status", &status)],
        )
        .inc();
    metrics
        .histogram(
            "crowdweb_http_request_seconds",
            "Wall-clock seconds from first read to response ready, by route pattern.",
            &[("route", route)],
            &HTTP_LATENCY_BUCKETS,
        )
        .observe(started.elapsed().as_secs_f64());
    metrics
        .counter(
            "crowdweb_http_request_body_bytes_total",
            "Request body bytes received, by route pattern.",
            &[("route", route)],
        )
        .add(request_body_bytes as u64);
    metrics
        .counter(
            "crowdweb_http_response_body_bytes_total",
            "Response body bytes produced, by route pattern. Streamed bodies are counted only in crowdweb_http_streamed_body_bytes_total.",
            &[("route", route)],
        )
        .add(response.body.len_hint() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api;
    use crowdweb_synth::SynthConfig;

    fn app() -> (Arc<AppState>, Arc<Router<AppState>>, MetricsRegistry) {
        let dataset = SynthConfig::small(71).users(10).generate().unwrap();
        let state = AppState::build(dataset, 10).unwrap();
        let registry = state.metrics().clone();
        (Arc::new(state), Arc::new(api::build_router()), registry)
    }

    /// What the event thread hands a worker for these bytes.
    fn parsed(raw: &[u8]) -> io::Result<Request> {
        Request::parse(raw).map(|(request, _)| request)
    }

    #[test]
    fn execute_routes_complete_requests_and_records() {
        let (state, router, registry) = app();
        let (response, keep, route) = execute(
            parsed(b"GET /api/stats HTTP/1.1\r\nHost: t\r\n\r\n"),
            true,
            &state,
            &router,
            &registry,
            Instant::now(),
        )
        .expect("well-formed request gets a response");
        assert_eq!(response.status.code(), 200);
        assert!(keep, "an HTTP/1.1 request with budget left keeps alive");
        assert_eq!(route, "/api/v1/stats");
        // The legacy spelling folds into the canonical v1 route label.
        assert_eq!(
            registry.counter_value(
                "crowdweb_http_requests_total",
                &[
                    ("method", "GET"),
                    ("route", "/api/v1/stats"),
                    ("status", "200")
                ]
            ),
            Some(1)
        );
        // The rendered crowd views are full bodies: the response byte
        // counter sees every byte of them.
        for (path, label) in [
            ("/api/v1/crowd/map?hour=9", "/api/v1/crowd/map"),
            ("/api/v1/crowd/geojson?hour=9", "/api/v1/crowd/geojson"),
            ("/api/v1/tiles/0/0/0?hour=9", "/api/v1/tiles/:z/:x/:y"),
        ] {
            let (response, _, route) = execute(
                parsed(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes()),
                true,
                &state,
                &router,
                &registry,
                Instant::now(),
            )
            .expect("well-formed request gets a response");
            assert_eq!(response.status.code(), 200, "{path}");
            assert_eq!(route, label);
            let len = response.into_body_bytes().len() as u64;
            assert!(len > 0, "{path} rendered an empty body");
            assert_eq!(
                registry.counter_value(
                    "crowdweb_http_response_body_bytes_total",
                    &[("route", label)]
                ),
                Some(len),
                "{path}"
            );
        }
    }

    #[test]
    fn execute_negotiates_connection_disposition() {
        let (state, router, registry) = app();
        // Client asks to close: honoured even with budget left.
        let (_, keep, _) = execute(
            parsed(b"GET /api/stats HTTP/1.1\r\nConnection: close\r\n\r\n"),
            true,
            &state,
            &router,
            &registry,
            Instant::now(),
        )
        .unwrap();
        assert!(!keep);
        // Budget exhausted: closed even though the client would stay.
        let (_, keep, _) = execute(
            parsed(b"GET /api/stats HTTP/1.1\r\n\r\n"),
            false,
            &state,
            &router,
            &registry,
            Instant::now(),
        )
        .unwrap();
        assert!(!keep);
    }

    #[test]
    fn execute_maps_parser_errors_to_400() {
        let (state, router, registry) = app();
        let (response, keep, _) = execute(
            parsed(b"BREW /coffee HTCPCP/1.0\r\n\r\n"),
            true,
            &state,
            &router,
            &registry,
            Instant::now(),
        )
        .expect("malformed request gets a 400");
        assert_eq!(response.status.code(), 400);
        assert!(!keep, "a broken request forfeits its framing — close");
        // Truncated body keeps the dedicated message.
        let (response, _, _) = execute(
            parsed(b"POST /api/upload HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"),
            true,
            &state,
            &router,
            &registry,
            Instant::now(),
        )
        .unwrap();
        assert_eq!(response.status.code(), 400);
        assert!(String::from_utf8(response.into_body_bytes())
            .unwrap()
            .contains("content-length"));
        assert_eq!(
            registry.counter_value(
                "crowdweb_http_requests_total",
                &[
                    ("method", "invalid"),
                    ("route", "unparsed"),
                    ("status", "400")
                ]
            ),
            Some(2)
        );
    }

    fn idle_conn() -> Conn {
        let stream = TcpStream::connect(
            std::net::TcpListener::bind("127.0.0.1:0")
                .unwrap()
                .local_addr()
                .unwrap(),
        )
        .unwrap();
        Conn::new(stream, Duration::from_secs(1))
    }

    #[test]
    fn accumulate_tracks_head_and_body_completion() {
        let mut conn = idle_conn();
        assert!(accumulate(&mut conn, b"POST /x HTTP/1.1\r\nContent-").is_none());
        assert!(accumulate(&mut conn, b"Length: 5\r\n\r\n").is_none());
        assert!(accumulate(&mut conn, b"he").is_none());
        let (request, used) = accumulate(&mut conn, b"llo").unwrap().unwrap();
        assert_eq!(request.body, b"hello");
        let ConnState::Reading { buf } = &conn.state else {
            panic!("still reading");
        };
        assert_eq!(used, buf.len());
    }

    #[test]
    fn pipelined_bytes_stay_pending_after_dispatch() {
        let (state, router, registry) = app();
        let pool = WorkerPool::new(1, 8);
        let (done_tx, _done_rx) = mpsc::channel::<Completion>();
        let (waker, _wake_rx) = sys::wake_pair().unwrap();
        let metrics = ReactorMetrics::new(registry);
        let config = ReactorConfig::default();
        let ctx = Ctx {
            state: &state,
            router: &router,
            pool: &pool,
            done_tx: &done_tx,
            waker: &waker,
            metrics: &metrics,
            config: &config,
        };
        let mut conn = idle_conn();
        // Two complete requests in one segment: only the first goes to
        // the worker; the second waits in `pending`.
        let parsed = accumulate(
            &mut conn,
            b"GET /api/v1/stats HTTP/1.1\r\n\r\nGET /api/v1/healthz HTTP/1.1\r\n\r\n",
        )
        .expect("the first request is complete");
        dispatch(0, &mut conn, &ctx, parsed);
        assert!(matches!(conn.state, ConnState::Dispatched));
        assert_eq!(conn.pending, b"GET /api/v1/healthz HTTP/1.1\r\n\r\n");
    }

    /// Builds a deterministically saturated pool: one parked worker,
    /// one filled queue slot. Returns the park release handle.
    fn saturated_pool() -> (WorkerPool, mpsc::Sender<()>) {
        let pool = WorkerPool::new(1, 1);
        let (park_tx, park_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_execute(move || {
            let _ = started_tx.send(());
            let _ = park_rx.recv();
        })
        .unwrap();
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("worker picks up the parked job");
        pool.try_execute(|| {}).expect("queue slot is free");
        (pool, park_tx)
    }

    #[test]
    fn saturated_pool_503_advertises_retry_after_and_keeps_alive() {
        let (state, router, registry) = app();
        let (pool, park_tx) = saturated_pool();
        let (done_tx, _done_rx) = mpsc::channel::<Completion>();
        let (waker, _wake_rx) = sys::wake_pair().unwrap();
        let metrics = ReactorMetrics::new(registry);
        let config = ReactorConfig::default();
        let ctx = Ctx {
            state: &state,
            router: &router,
            pool: &pool,
            done_tx: &done_tx,
            waker: &waker,
            metrics: &metrics,
            config: &config,
        };
        // `/HTTP/1.0` is the target, not the version: an HTTP/1.1
        // request.
        for raw in [
            &b"GET /api/v1/stats HTTP/1.1\r\n\r\n"[..],
            &b"GET /HTTP/1.0\r\n\r\n"[..],
        ] {
            let mut conn = idle_conn();
            let parsed = accumulate(&mut conn, raw).expect("complete request");
            dispatch(0, &mut conn, &ctx, parsed);
            let ConnState::Writing { buf, then, .. } = &conn.state else {
                panic!("shed connection should be writing its 503");
            };
            let wire = String::from_utf8_lossy(buf);
            assert!(wire.starts_with("HTTP/1.1 503 "), "{wire}");
            assert!(wire.contains("worker queue full"), "{wire}");
            let head = &wire[..wire.find("\r\n\r\n").unwrap()];
            assert!(head.contains("Retry-After: 1"), "{head}");
            // The shed request negotiated keep-alive (HTTP/1.1, budget
            // left), so the 503 must not kill the client's pipeline.
            assert_eq!(*then, WriteThen::Continue, "{raw:?}");
            assert!(head.contains("Connection: keep-alive"), "{head}");
        }
        let _ = park_tx.send(());
    }

    #[test]
    fn saturated_pool_503_honours_a_close_request() {
        let (state, router, registry) = app();
        let (pool, park_tx) = saturated_pool();
        let (done_tx, _done_rx) = mpsc::channel::<Completion>();
        let (waker, _wake_rx) = sys::wake_pair().unwrap();
        let metrics = ReactorMetrics::new(registry);
        let config = ReactorConfig::default();
        let ctx = Ctx {
            state: &state,
            router: &router,
            pool: &pool,
            done_tx: &done_tx,
            waker: &waker,
            metrics: &metrics,
            config: &config,
        };
        let mut conn = idle_conn();
        let parsed = accumulate(
            &mut conn,
            b"GET /api/v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .expect("complete request");
        dispatch(0, &mut conn, &ctx, parsed);
        let ConnState::Writing { buf, then, .. } = &conn.state else {
            panic!("shed connection should be writing its 503");
        };
        assert_eq!(*then, WriteThen::Close);
        assert!(
            String::from_utf8_lossy(buf).contains("Connection: close"),
            "client asked to close; the shed 503 must agree"
        );
        let _ = park_tx.send(());
    }

    #[test]
    fn over_cap_refusal_always_closes() {
        let mut conn = idle_conn();
        let refusal = Response::error(StatusCode::ServiceUnavailable, "connection limit reached");
        queue_response(
            &mut conn,
            Payload::new(refusal, false, ""),
            &ReactorMetrics::new(MetricsRegistry::new()),
            Duration::from_secs(1),
        );
        let ConnState::Writing { buf, then, .. } = &conn.state else {
            panic!("refusal should be queued");
        };
        assert_eq!(*then, WriteThen::Close);
        assert!(String::from_utf8_lossy(buf).contains("Connection: close"));
    }

    #[test]
    fn accumulate_finalizes_untrustworthy_heads_without_waiting() {
        let mut conn = idle_conn();
        // Conflicting Content-Length: final immediately (no body wait),
        // so the connection gets its 400 now.
        let parsed = accumulate(
            &mut conn,
            b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\n",
        );
        assert!(matches!(parsed, Some(Err(e)) if e.kind() == io::ErrorKind::InvalidData));
    }

    #[test]
    fn accumulate_over_random_read_splits_matches_one_parse() {
        let (state, router, registry) = app();
        let pool = WorkerPool::new(1, 1024);
        let (done_tx, _done_rx) = mpsc::channel::<Completion>();
        let (waker, _wake_rx) = sys::wake_pair().unwrap();
        let metrics = ReactorMetrics::new(registry);
        let config = ReactorConfig::default();
        let ctx = Ctx {
            state: &state,
            router: &router,
            pool: &pool,
            done_tx: &done_tx,
            waker: &waker,
            metrics: &metrics,
            config: &config,
        };
        let wires: [&[u8]; 5] = [
            b"GET /api/v1/healthz HTTP/1.1\r\nHost: x\r\n\r\nGET /api/v1/stats HTTP/1.1\r\n\r\n",
            b"POST /api/v1/healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET / HTTP/1.0\n\n",
            b"GET /HTTP/1.0\nConnection: close\n\nleftover",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
            b"BREW /coffee HTTP/1.1\r\nContent-Length: 10\r\n\r\n",
        ];
        // A fixed-seed xorshift: deterministic "random" read sizes.
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            1 + (seed % bound as u64) as usize
        };
        for wire in wires {
            let whole = Request::parse(wire).map_err(|e| e.to_string());
            for _ in 0..64 {
                let mut conn = idle_conn();
                let mut fed = 0;
                let parsed = loop {
                    assert!(fed < wire.len(), "{wire:?} never completed");
                    let n = next(8).min(wire.len() - fed);
                    fed += n;
                    if let Some(parsed) = accumulate(&mut conn, &wire[fed - n..fed]) {
                        break parsed;
                    }
                };
                let outcome = parsed.as_ref().map(|(r, used)| (r.clone(), *used));
                assert_eq!(
                    outcome.map_err(|e| e.to_string()),
                    whole,
                    "{wire:?} split at {fed}"
                );
                let used = whole.as_ref().map_or(0, |(_, used)| *used);
                dispatch(0, &mut conn, &ctx, parsed);
                assert!(matches!(conn.state, ConnState::Dispatched));
                if whole.is_ok() {
                    assert_eq!(conn.pending, &wire[used..fed], "{wire:?} split at {fed}");
                }
            }
        }
    }

    /// A scripted producer: yields `chunks` in order, then the given
    /// terminal outcome. Counts how many times it was polled.
    struct Scripted {
        chunks: Vec<Vec<u8>>,
        polls: usize,
        fail_at_end: bool,
    }

    impl BodyStream for Scripted {
        fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
            self.polls += 1;
            if self.chunks.is_empty() {
                if self.fail_at_end {
                    return Err(io::Error::other("producer died"));
                }
                return Ok(None);
            }
            Ok(Some(self.chunks.remove(0)))
        }
    }

    fn live(body: Box<dyn BodyStream>) -> LiveStream {
        let metrics = ReactorMetrics::new(MetricsRegistry::new());
        LiveStream::new(body, "/api/v1/export/checkins", &metrics)
    }

    #[test]
    fn refill_stops_at_the_budget_and_parks_the_producer() {
        // 10 chunks of 1 KiB against a 2 KiB budget: one refill must
        // pull only enough chunks to cross the budget, leaving the
        // rest unpolled (bounded memory under a stalled consumer).
        let mut stream = live(Box::new(Scripted {
            chunks: (0..10).map(|_| vec![b'x'; 1024]).collect(),
            polls: 0,
            fail_at_end: false,
        }));
        let (mut buf, mut written) = (Vec::new(), 0usize);
        refill_stream(&mut buf, &mut written, &mut stream, 2048).unwrap();
        assert!(buf.len() >= 2048, "window reaches the budget");
        assert!(
            buf.len() < 2048 + 1024 + 16,
            "window bounded by budget + one encoded chunk, got {}",
            buf.len()
        );
        assert!(!stream.done, "producer parked, not drained");
        assert_eq!(stream.streamed_chunks.get(), 2);
        assert_eq!(stream.streamed_bytes.get(), 2048);
    }

    #[test]
    fn refill_appends_the_terminal_chunk_exactly_once() {
        let mut stream = live(Box::new(Scripted {
            chunks: vec![b"ab".to_vec()],
            polls: 0,
            fail_at_end: false,
        }));
        let (mut buf, mut written) = (Vec::new(), 0usize);
        refill_stream(&mut buf, &mut written, &mut stream, 1 << 20).unwrap();
        assert!(stream.done);
        assert_eq!(buf, b"2\r\nab\r\n0\r\n\r\n");
        // A done stream refilled again would yield an empty window —
        // drive_write drops the stream before that can happen.
    }

    #[test]
    fn refill_propagates_producer_errors() {
        // An immediate failure (no chunks yielded) surfaces on the
        // first refill.
        let mut stream = live(Box::new(Scripted {
            chunks: vec![],
            polls: 0,
            fail_at_end: true,
        }));
        let (mut buf, mut written) = (Vec::new(), 0usize);
        let err = refill_stream(&mut buf, &mut written, &mut stream, 1 << 20).unwrap_err();
        assert_eq!(err.to_string(), "producer died");
        assert!(!stream.done, "an errored stream is never 'done'");
    }

    #[test]
    fn refill_holds_a_late_error_until_the_yielded_chunks_drain() {
        // A failure after a yielded chunk must not discard that chunk:
        // the first refill hands it over cleanly, the second surfaces
        // the held error (and the terminal chunk never appears).
        let mut stream = live(Box::new(Scripted {
            chunks: vec![b"ok".to_vec()],
            polls: 0,
            fail_at_end: true,
        }));
        let (mut buf, mut written) = (Vec::new(), 0usize);
        refill_stream(&mut buf, &mut written, &mut stream, 1 << 20).unwrap();
        assert_eq!(buf, b"2\r\nok\r\n", "the pre-failure chunk survives");
        assert!(!stream.done);
        let err = refill_stream(&mut buf, &mut written, &mut stream, 1 << 20).unwrap_err();
        assert_eq!(err.to_string(), "producer died");
        assert!(!stream.done, "an errored stream is never 'done'");
    }

    /// A connected TCP pair: (reactor side, client side).
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (server, client)
    }

    #[test]
    fn mid_stream_error_closes_without_terminal_chunk() {
        let (state, router, registry) = app();
        let pool = WorkerPool::new(1, 8);
        let (done_tx, _done_rx) = mpsc::channel::<Completion>();
        let (waker, _wake_rx) = sys::wake_pair().unwrap();
        let metrics = ReactorMetrics::new(registry);
        let config = ReactorConfig::default();
        let ctx = Ctx {
            state: &state,
            router: &router,
            pool: &pool,
            done_tx: &done_tx,
            waker: &waker,
            metrics: &metrics,
            config: &config,
        };
        let (server, mut client) = socket_pair();
        let mut conn = Conn::new(server, Duration::from_secs(5));
        let body: Box<dyn BodyStream> = Box::new(Scripted {
            chunks: vec![b"first chunk".to_vec()],
            polls: 0,
            fail_at_end: true,
        });
        conn.state = ConnState::Writing {
            buf: b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            written: 0,
            then: WriteThen::Close,
            stream: Some(LiveStream::new(body, "/x", &metrics)),
        };
        assert!(matches!(drive(0, &mut conn, &ctx), Drive::Close));
        assert_eq!(metrics.stream_aborts.get(), 1);
        drop(conn); // the reactor would remove the conn: FIN reaches the client
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        let wire = String::from_utf8_lossy(&got);
        assert!(wire.contains("b\r\nfirst chunk\r\n"), "{wire}");
        assert!(
            !wire.ends_with("0\r\n\r\n"),
            "terminal chunk must be absent so the client sees truncation: {wire}"
        );
    }

    #[test]
    fn streamed_keep_alive_response_returns_to_reading() {
        let (state, router, registry) = app();
        let pool = WorkerPool::new(1, 8);
        let (done_tx, _done_rx) = mpsc::channel::<Completion>();
        let (waker, _wake_rx) = sys::wake_pair().unwrap();
        let metrics = ReactorMetrics::new(registry);
        let config = ReactorConfig::default();
        let ctx = Ctx {
            state: &state,
            router: &router,
            pool: &pool,
            done_tx: &done_tx,
            waker: &waker,
            metrics: &metrics,
            config: &config,
        };
        let (server, mut client) = socket_pair();
        let mut conn = Conn::new(server, Duration::from_secs(5));
        let body: Box<dyn BodyStream> = Box::new(Scripted {
            chunks: vec![b"hello".to_vec(), b"world".to_vec()],
            polls: 0,
            fail_at_end: false,
        });
        conn.pending = b"GET /api/v1/healthz HTTP/1.1\r\n\r\n".to_vec();
        conn.state = ConnState::Writing {
            buf: b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            written: 0,
            then: WriteThen::Continue,
            stream: Some(LiveStream::new(body, "/x", &metrics)),
        };
        // The drive loop drains the stream, then rolls into Reading and
        // dispatches the pipelined request (state becomes Dispatched).
        assert!(matches!(drive(0, &mut conn, &ctx), Drive::Progress));
        assert!(
            matches!(conn.state, ConnState::Dispatched),
            "pipelined follow-up dispatched after the stream drained"
        );
        assert_eq!(conn.served, 1);
        // The full chunked body, terminal chunk included, hit the wire.
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut got = vec![0u8; 1024];
        let mut len = 0;
        while !String::from_utf8_lossy(&got[..len]).contains("0\r\n\r\n") {
            let n = client.read(&mut got[len..]).unwrap();
            assert!(n > 0, "socket closed before the terminal chunk");
            len += n;
        }
        let wire = String::from_utf8_lossy(&got[..len]);
        assert!(
            wire.contains("5\r\nhello\r\n5\r\nworld\r\n0\r\n\r\n"),
            "{wire}"
        );
    }

    #[test]
    fn a_long_stream_yields_the_loop_after_one_window() {
        let (state, router, registry) = app();
        let pool = WorkerPool::new(1, 8);
        let (done_tx, _done_rx) = mpsc::channel::<Completion>();
        let (waker, _wake_rx) = sys::wake_pair().unwrap();
        let metrics = ReactorMetrics::new(registry);
        const BUDGET: usize = 2048;
        let config = ReactorConfig {
            stream_budget: BUDGET,
            ..ReactorConfig::default()
        };
        let ctx = Ctx {
            state: &state,
            router: &router,
            pool: &pool,
            done_tx: &done_tx,
            waker: &waker,
            metrics: &metrics,
            config: &config,
        };
        let (server, mut client) = socket_pair();
        let mut conn = Conn::new(server, Duration::from_secs(5));
        // 64 windows' worth of 1 KiB chunks, far less than the loopback
        // socket buffer: the reader never stalls the writer.
        let body: Box<dyn BodyStream> = Box::new(Scripted {
            chunks: (0..64).map(|_| vec![b'x'; 1024]).collect(),
            polls: 0,
            fail_at_end: false,
        });
        conn.state = ConnState::Writing {
            buf: Vec::new(),
            written: 0,
            then: WriteThen::Close,
            stream: Some(LiveStream::new(body, "/x", &metrics)),
        };
        assert!(matches!(drive(0, &mut conn, &ctx), Drive::Progress));
        assert!(
            matches!(&conn.state, ConnState::Writing { stream: Some(live), .. } if !live.done),
            "one drive call must hand the loop back before the stream finishes"
        );
        client
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut first = vec![0u8; 128 * 1024];
        let mut len = 0;
        while let Ok(n @ 1..) = client.read(&mut first[len..]) {
            len += n;
        }
        let encoded_chunk = 1024 + "400\r\n\r\n".len();
        assert!(
            len > 0 && len <= BUDGET + encoded_chunk,
            "one drive call wrote {len} bytes, budget {BUDGET} + one chunk allows {}",
            BUDGET + encoded_chunk
        );
        // Later passes resume the stream through its terminal chunk.
        let mut passes = 1;
        while !matches!(drive(0, &mut conn, &ctx), Drive::Close) {
            passes += 1;
            assert!(passes < 1000, "stream never finished");
        }
        assert!(passes > 2, "the stream took {passes} passes");
        drop(conn);
        let mut wire = first[..len].to_vec();
        client.set_read_timeout(None).unwrap();
        client.read_to_end(&mut wire).unwrap();
        let mut expected = Vec::new();
        for _ in 0..64 {
            encode_chunk(&mut expected, &[b'x'; 1024]);
        }
        expected.extend_from_slice(LAST_CHUNK);
        assert!(wire == expected, "resumed stream diverges from its chunks");
    }
}
