//! The traced run: the per-layer ledger.
//!
//! The workload's own schedule is replayed in-process, as fast as it
//! goes, through the same public calls the server makes for each
//! request (`Request::read_from`, `Router::dispatch`, the body drain,
//! the per-request metric updates), with a span around each. Setup
//! stages, the write-ahead log, epochs and a few renderers are timed the
//! same way. Routes and layers the workload never touches are covered by
//! short probes, so every traced run reports the whole ledger. The
//! reactor residual compares a keep-alive round trip to the server
//! process with the in-process cost of the same request.

use crate::check::InProcess;
use crate::drive::{self, Outcome};
use crate::report::Metrics;
use crate::server::{ingest_config, ServerProcess};
use crate::spans::Tracer;
use crate::stats::{median, quantile};
use crate::workload::{self, Op, Role, Schedule, Workload, EPOCH_PLACEHOLDER, EXPORT_PATH};
use crate::{Args, City, RunDir};
use crowdweb_crowd::CrowdBuilder;
use crowdweb_dataset::{DatasetStats, MergeRecord, UserId};
use crowdweb_geo::{LatLon, MicrocellGrid, TileCoord};
use crowdweb_ingest::{Wal, WalConfig, WalEntry};
use crowdweb_loadgen::client::Client;
use crowdweb_mobility::PatternMiner;
use crowdweb_obs::HTTP_LATENCY_BUCKETS;
use crowdweb_server::http::encode_chunk;
use crowdweb_server::{Request, ResponseBody};
use crowdweb_viz::CityMap;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

/// Every route with its own `router.dispatch_us` pair.
pub const DISPATCH_ROUTES: [&str; 17] = [
    "stats",
    "users",
    "heatmap",
    "crowd_timeline",
    "fig5_svg",
    "hotspots",
    "patterns",
    "network",
    "crowd_map",
    "flows_map",
    "crowd",
    "crowd_geojson",
    "crowd_flows",
    "tiles",
    "epoch_read",
    "checkins",
    "export",
];

/// Routes whose body drain is reported (`http.body_us.<route>`).
pub const BODY_ROUTES: [&str; 6] = [
    "crowd",
    "crowd_map",
    "crowd_geojson",
    "crowd_flows",
    "tiles",
    "export",
];

/// Routes whose reactor residual is reported.
pub const RESIDUAL_ROUTES: [&str; 6] = [
    "healthz",
    "crowd",
    "crowd_map",
    "crowd_geojson",
    "crowd_flows",
    "tiles",
];

const STAGES: [&str; 5] = [
    "dataset.tsv_load_s",
    "prep.prepare_s",
    "mobility.detect_all_s",
    "crowd.build_s",
    "server.state_build_s",
];

const INGEST_US: [&str; 4] = [
    "ingest.submit_us",
    "ingest.wal_append_us",
    "ingest.epoch_us",
    "ingest.crowd_at_us",
];

/// Names and units of the per-layer metrics, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        STAGES.iter().map(|s| ((*s).to_owned(), "s")).collect();
    for n in ["http.parse_us", "router.miss_us", "obs.record_us"] {
        names.push((n.to_owned(), "us"));
    }
    for r in DISPATCH_ROUTES {
        names.push((format!("router.dispatch_us.{r}.p50"), "us"));
        names.push((format!("router.dispatch_us.{r}.p99"), "us"));
    }
    for r in BODY_ROUTES {
        names.push((format!("http.body_us.{r}"), "us"));
    }
    for r in RESIDUAL_ROUTES {
        names.push((format!("reactor.residual_us.{r}"), "us"));
    }
    names.push(("dataset.stats_us".to_owned(), "us"));
    names.push(("viz.map_render_us".to_owned(), "us"));
    for n in INGEST_US {
        names.push((n.to_owned(), "us"));
    }
    for n in ["ingest.users_remined", "ingest.full_rebuilds"] {
        names.push((n.to_owned(), "count"));
    }
    names.push(("ingest.remined_ratio".to_owned(), "ratio"));
    names.push(("ingest.history_bytes".to_owned(), "bytes"));
    names.push(("ingest.queue_depth_max".to_owned(), "count"));
    names.push(("obs.series".to_owned(), "count"));
    names.push(("loadgen.send_lag_p99_us".to_owned(), "us"));
    names.push(("trace.overhead_pct".to_owned(), "%"));
    names.push(("trace.request_self_us".to_owned(), "us"));
    names
}

/// Raw request bytes, exactly as the load generator's client frames
/// them.
fn request_bytes(path: &str, body: Option<&str>) -> Vec<u8> {
    match body {
        Some(json) => format!(
            "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{json}",
            json.len()
        ),
        None => format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\n\r\n"),
    }
    .into_bytes()
}

/// The per-request metric updates the reactor makes, with its names and
/// labels.
fn record_access(
    metrics: &crowdweb_obs::MetricsRegistry,
    method: &str,
    route: &str,
    status: u16,
    request_body: usize,
    response_body: usize,
    started: Instant,
) {
    let status = status.to_string();
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
        .add(request_body as u64);
    metrics
        .counter(
            "crowdweb_http_response_body_bytes_total",
            "Response body bytes produced, by route pattern.",
            &[("route", route)],
        )
        .add(response_body as u64);
}

/// One request through parse, dispatch, metric updates and body drain,
/// each in its own span under a `request` span. Returns the status.
fn replay_request(
    p: &InProcess,
    t: &mut Tracer,
    bytes: &[u8],
    route: &'static str,
) -> Result<u16, String> {
    t.next_request();
    let root = t.enter("request", route);
    let started = Instant::now();
    let request = t
        .time("http.parse", route, || Request::read_from(bytes))
        .map_err(|e| format!("parse: {e}"))?;
    let (response, label) = t.time("router.dispatch", route, || {
        p.router.dispatch(&p.state, &request)
    });
    let status = response.status.code();
    let label = label.unwrap_or("unmatched");
    let method = request.method.to_string();
    t.time("obs.record", route, || {
        record_access(
            p.state.metrics(),
            &method,
            label,
            status,
            request.body.len(),
            response.body.len_hint(),
            started,
        )
    });
    let (mut head, body) = response.into_head_and_body(true);
    let drained = t.time("http.body", route, || match body {
        ResponseBody::Full(bytes) => {
            head.extend_from_slice(&bytes);
            Ok(head.len())
        }
        ResponseBody::Stream(mut stream) => {
            let mut framed = Vec::new();
            let mut total = 0;
            while let Some(chunk) = stream.next_chunk()? {
                framed.clear();
                encode_chunk(&mut framed, &chunk);
                total += framed.len();
            }
            Ok::<usize, std::io::Error>(total)
        }
    });
    std::hint::black_box(drained.map_err(|e| format!("body: {e}"))?);
    t.exit(root);
    Ok(status)
}

/// A check-in body as ingest records (the server's own conversion is
/// private to its handler, so this mirrors it).
fn merge_records(body: &str) -> Result<Vec<MergeRecord>, String> {
    let v: serde_json::Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let s = |k: &str| v.get(k).and_then(|x| x.as_str()).map(str::to_owned);
    let f = |k: &str| v.get(k).and_then(|x| x.as_f64());
    let bad = || format!("unexpected check-in body {body}");
    Ok(vec![MergeRecord {
        user: UserId::new(v.get("user").and_then(|x| x.as_u64()).ok_or_else(bad)? as u32),
        venue_key: s("venue").ok_or_else(bad)?,
        category: s("category").unwrap_or_else(|| "Unknown".to_owned()),
        location: LatLon::new(f("lat").ok_or_else(bad)?, f("lon").ok_or_else(bad)?)
            .map_err(|e| e.to_string())?,
        tz_offset_minutes: v
            .get("tz_offset_minutes")
            .and_then(|x| x.as_i64())
            .unwrap_or(0) as i32,
        time: crowdweb_dataset::tsv::parse_time(&s("time").ok_or_else(bad)?)
            .map_err(|e| e.to_string())?,
    }])
}

/// What the ingest side of a replay did.
#[derive(Debug, Default)]
struct IngestTally {
    applied: usize,
    remined: usize,
    queue_depth_max: usize,
    requests: usize,
    failed: usize,
}

/// Replays ops in order, as fast as they go. Writes alternate between
/// the full route (`router.dispatch_us.checkins`) and a direct
/// `ShardedIngestEngine::submit` (`ingest.submit_us`); epoch triggers
/// call `run_epoch` directly (`ingest.epoch_us`).
fn replay(
    p: &InProcess,
    t: &mut Tracer,
    ops: &[Op],
    tally: &mut IngestTally,
) -> Result<(), String> {
    let engine = p.state.engine();
    for (i, op) in ops.iter().enumerate() {
        tally.requests += 1;
        match op.role {
            Role::Epoch => {
                t.next_request();
                let report = t
                    .time("ingest.epoch", "", || engine.run_epoch())
                    .map_err(|e| e.to_string())?;
                if let Some(r) = report {
                    tally.applied += r.applied;
                    tally.remined += r.users_remined;
                }
            }
            Role::Write if i % 2 == 1 => {
                t.next_request();
                let records = merge_records(op.body.as_deref().unwrap_or(""))?;
                let receipt = t
                    .time("ingest.submit", "", || engine.submit(records))
                    .map_err(|e| e.to_string())?;
                tally.queue_depth_max = tally.queue_depth_max.max(receipt.queue_depth);
            }
            _ => {
                let mut path = op.path.clone();
                if path.contains(EPOCH_PLACEHOLDER) {
                    let epoch = engine.epoch().saturating_sub((i % 4) as u64);
                    t.time("ingest.crowd_at", "", || engine.crowd_at(epoch));
                    path = path.replace(EPOCH_PLACEHOLDER, &epoch.to_string());
                }
                let status =
                    replay_request(p, t, &request_bytes(&path, op.body.as_deref()), op.route)?;
                if !(200..300).contains(&status) {
                    tally.failed += 1;
                    eprintln!("traced replay: {path} answered {status}");
                }
                if op.role == Role::Write {
                    tally.queue_depth_max = tally.queue_depth_max.max(engine.queue_depth());
                }
            }
        }
    }
    Ok(())
}

/// Ops per chunk of the alternating spans-off / spans-on replay. A
/// multiple of 4, so an op's index within its chunk picks the same
/// write path and time-travel epoch as its index in the whole replay.
const REPLAY_CHUNK: usize = 64;

/// Seconds of the workload's schedule the traced run replays.
fn replay_span_us(workload: Workload) -> u64 {
    match workload {
        Workload::Dashboard => 5_000_000,
        Workload::BulkExport => 5_000_000,
    }
}

/// The ops the traced run replays: the first seconds of the workload's
/// schedule, with `bulk_export`'s closed-loop exports spread among them.
fn replay_ops(workload: Workload, schedule: &Schedule) -> Vec<Op> {
    let span = replay_span_us(workload);
    let mut ops: Vec<Op> = schedule
        .ops
        .iter()
        .filter(|o| o.due_us < span)
        .cloned()
        .collect();
    if workload == Workload::BulkExport {
        for k in 0..3u64 {
            ops.push(Op {
                due_us: k * span / 3,
                sender: 0,
                session: None,
                role: Role::Export,
                route: "export",
                path: EXPORT_PATH.to_owned(),
                body: None,
            });
        }
        ops.sort_by_key(|o| o.due_us);
    }
    ops
}

/// One fixed path per route, for probes and residuals.
fn probe_path(route: &str, user: u32, tile: TileCoord) -> String {
    match route {
        "stats" => "/api/v1/stats".to_owned(),
        "users" => "/api/v1/users?limit=1000".to_owned(),
        "heatmap" => "/api/v1/heatmap".to_owned(),
        "crowd_timeline" => "/api/v1/crowd/timeline".to_owned(),
        "fig5_svg" => "/api/v1/figures/fig5/svg".to_owned(),
        "hotspots" => "/api/v1/hotspots".to_owned(),
        "patterns" => format!("/api/v1/patterns/{user}"),
        "network" => format!("/api/v1/network/{user}"),
        "crowd_map" => "/api/v1/crowd/map?hour=9".to_owned(),
        "flows_map" => "/api/v1/crowd/flows/map?from=9&to=10".to_owned(),
        "crowd" => "/api/v1/crowd?hour=9".to_owned(),
        "crowd_geojson" => "/api/v1/crowd/geojson?hour=9".to_owned(),
        "crowd_flows" => "/api/v1/crowd/flows?from=9&to=10".to_owned(),
        "tiles" => format!(
            "/api/v1/tiles/{}/{}/{}?hour=9",
            tile.zoom(),
            tile.x(),
            tile.y()
        ),
        "epoch_read" => format!("/api/v1/crowd?hour=9&epoch={EPOCH_PLACEHOLDER}"),
        "export" => EXPORT_PATH.to_owned(),
        "healthz" => "/api/v1/healthz".to_owned(),
        other => unreachable!("no probe path for {other}"),
    }
}

/// How many times a probe repeats a route: fewer for heavy handlers.
fn probe_count(route: &str) -> usize {
    match route {
        "stats" | "fig5_svg" | "export" => 3,
        "heatmap" | "crowd_timeline" | "hotspots" | "users" => 10,
        "patterns" | "network" | "flows_map" | "epoch_read" => 50,
        _ => 200,
    }
}

/// Median of unloaded keep-alive round trips to the server, µs.
fn round_trip_us(addr: SocketAddr, path: &str) -> Result<f64, String> {
    let mut client = Client::new(addr, drive::TIMEOUT);
    let mut times = Vec::with_capacity(300);
    for i in 0..330 {
        let started = Instant::now();
        let r = client
            .request(path, None)
            .map_err(|e| format!("GET {path}: {e}"))?;
        if !r.is_success() {
            return Err(format!("GET {path}: status {}", r.status));
        }
        if i >= 30 {
            times.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&times).ok_or_else(|| "no round trips".to_owned())
}

fn p50(values: Option<&Vec<f64>>) -> f64 {
    values.and_then(|v| quantile(v, 0.5)).unwrap_or(f64::NAN)
}

/// Times `f` `n` times into `layer` spans.
fn repeat<T>(t: &mut Tracer, layer: &'static str, n: usize, mut f: impl FnMut() -> T) {
    for _ in 0..n {
        t.next_request();
        std::hint::black_box(t.time(layer, "", &mut f));
    }
}

/// The traced run. Returns the ledger, whether every replayed request
/// succeeded, and the attempted and failed counts.
pub fn run_traced(args: &Args, exe: &Path) -> Result<(Metrics, bool, usize, usize), String> {
    let dir = RunDir::create()?;
    let city = City::generate(args.seed, &dir)?;
    let mut metrics = Metrics::new();
    let mut stage = |name: &str, secs: f64| {
        metrics.insert(name.to_owned(), (secs, "s"));
    };

    // Setup, stage by stage, as the server builds its state.
    let started = Instant::now();
    let dataset = crowdweb_dataset::tsv::load_path(&city.tsv).map_err(|e| e.to_string())?;
    stage("dataset.tsv_load_s", started.elapsed().as_secs_f64());
    let config = ingest_config();
    let started = Instant::now();
    let prepared = config
        .preprocessor
        .prepare(&dataset)
        .map_err(|e| e.to_string())?;
    stage("prep.prepare_s", started.elapsed().as_secs_f64());
    let started = Instant::now();
    let patterns = PatternMiner::new(config.min_support)
        .map_err(|e| e.to_string())?
        .parallelism(config.parallelism)
        .detect_all(&prepared)
        .map_err(|e| e.to_string())?;
    stage("mobility.detect_all_s", started.elapsed().as_secs_f64());
    let grid = MicrocellGrid::new(config.bounds, config.grid_rows, config.grid_cols)
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    let crowd = CrowdBuilder::new(&dataset, &prepared)
        .windows(config.windows.clone())
        .parallelism(config.parallelism)
        .build(&patterns, grid)
        .map_err(|e| e.to_string())?;
    stage("crowd.build_s", started.elapsed().as_secs_f64());
    std::hint::black_box(&crowd);
    let started = Instant::now();
    let state =
        crowdweb_server::AppState::with_config(dataset, config).map_err(|e| e.to_string())?;
    stage("server.state_build_s", started.elapsed().as_secs_f64());
    drop((state, crowd, patterns, prepared));

    // Against the server process: unloaded round trips, then the first
    // seconds of the workload for the generator's send lag.
    let server = ServerProcess::start(exe, &city.tsv)?;
    let senders = crate::sender_count();
    let ctx = crate::context(server.addr, &city, args.seed)?;
    let user = ctx.users[0];
    let tile = TileCoord::from_latlon(ctx.venue_points[0], 11).map_err(|e| e.to_string())?;
    let mut rtt = BTreeMap::new();
    for route in RESIDUAL_ROUTES {
        rtt.insert(
            route,
            round_trip_us(server.addr, &probe_path(route, user, tile))?,
        );
    }
    let span_us = crate::span_us(args.workload, args.seconds);
    let schedule = crate::schedule_for(args.workload, args.seed, span_us, senders, &ctx);
    let head = Schedule {
        ops: schedule
            .ops
            .iter()
            .filter(|o| o.due_us < 2_000_000)
            .cloned()
            .collect(),
    };
    let lag: Vec<f64> = drive::open_loop(server.addr, &head, senders)
        .iter()
        .map(Outcome::lag_us)
        .collect();
    metrics.insert(
        "loadgen.send_lag_p99_us".to_owned(),
        (quantile(&lag, 0.99).unwrap_or(0.0), "us"),
    );
    drop(server);

    // In-process: the replay without spans and with them, each on a
    // state of its own so both do the same work, taken in alternating
    // chunks so both meet the same warm-up and the same host. Only the
    // traced pass (and the probes after it) feed the ledger and the
    // counts.
    let ops = replay_ops(args.workload, &schedule);
    let (plain, program) = (InProcess::build(&city.tsv)?, InProcess::build(&city.tsv)?);
    let (mut plain_tally, mut tally) = (IngestTally::default(), IngestTally::default());
    let (mut off, mut t) = (Tracer::new(false), Tracer::new(true));
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for chunk in ops.chunks(REPLAY_CHUNK) {
        let started = Instant::now();
        replay(&plain, &mut off, chunk, &mut plain_tally)?;
        untraced_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        replay(&program, &mut t, chunk, &mut tally)?;
        traced_s += started.elapsed().as_secs_f64();
    }
    drop(plain);
    let overhead_pct = (traced_s - untraced_s) / untraced_s * 100.0;

    // Probes for whatever the workload did not exercise.
    let covered: Vec<&str> = t
        .spans()
        .iter()
        .filter(|s| s.layer == "router.dispatch")
        .map(|s| s.route)
        .collect();
    let missing: Vec<&'static str> = DISPATCH_ROUTES
        .iter()
        .copied()
        .filter(|r| !covered.contains(r))
        .collect();
    for route in missing.iter().copied().filter(|&r| r != "checkins") {
        let probe: Vec<Op> = (0..probe_count(route))
            .map(|_| Op {
                due_us: 0,
                sender: 0,
                session: None,
                role: Role::Read,
                route,
                path: probe_path(route, user, tile),
                body: None,
            })
            .collect();
        replay(&program, &mut t, &probe, &mut tally)?;
    }
    // A short check-in surge, writes both ways, then an epoch to apply
    // them.
    let mut probe: Vec<Op> = workload::checkin_surge(args.seed, 1_000_000)
        .ops
        .into_iter()
        .filter(|o| o.role == Role::Write)
        .take(200)
        .collect();
    probe.push(Op {
        due_us: 0,
        sender: 0,
        session: None,
        role: Role::Epoch,
        route: "ingest_epoch",
        path: "/api/v1/ingest/epoch".to_owned(),
        body: None,
    });
    replay(&program, &mut t, &probe, &mut tally)?;
    let miss = request_bytes("/api/v1/no/such/route", None);
    for _ in 0..2_000 {
        t.next_request();
        let request = Request::read_from(miss.as_slice()).map_err(|e| e.to_string())?;
        std::hint::black_box(t.time("router.dispatch", "miss", || {
            program.router.dispatch(&program.state, &request).0.status
        }));
    }
    let snap = program.state.snapshot();
    repeat(&mut t, "dataset.stats", 5, || {
        DatasetStats::compute(snap.dataset())
    });
    let at_nine = snap
        .crowd()
        .snapshot_at_hour(9)
        .ok_or("no crowd window at hour 9")?;
    repeat(&mut t, "viz.map_render", 50, || {
        CityMap::new(snap.grid()).render(&at_nine)
    });
    let (mut wal_probe, _) =
        Wal::open(&WalConfig::new(dir.join("wal-probe"))).map_err(|e| e.to_string())?;
    let records = merge_records(
        workload::checkin_surge(args.seed, 1_000_000)
            .ops
            .iter()
            .find(|o| o.role == Role::Write)
            .and_then(|o| o.body.as_deref())
            .ok_or("no check-in to log")?,
    )?;
    for seq in 1..=200u64 {
        let entry = [WalEntry {
            seq,
            record: records[0].clone(),
        }];
        t.next_request();
        t.time("ingest.wal_append", "", || wal_probe.append(&entry))
            .map_err(|e| e.to_string())?;
    }

    // Residuals: the same requests in-process, with spans of their own.
    let mut rt = Tracer::new(true);
    for route in RESIDUAL_ROUTES {
        let bytes = request_bytes(&probe_path(route, user, tile), None);
        for _ in 0..300 {
            replay_request(&program, &mut rt, &bytes, route)?;
        }
    }
    let by_route = rt.self_times_us();
    for route in RESIDUAL_ROUTES {
        let inside: f64 = ["http.parse", "router.dispatch", "obs.record", "http.body"]
            .iter()
            .map(|layer| p50(by_route.get(&(*layer, route))))
            .sum();
        metrics.insert(
            format!("reactor.residual_us.{route}"),
            (rtt[route] - inside, "us"),
        );
        eprintln!(
            "residual {route}: round trip {:.1} us - in-process {inside:.1} us",
            rtt[route]
        );
    }

    // The ledger from the spans.
    let own = t.self_times_us();
    let merged = |layer: &str| -> Vec<f64> {
        own.iter()
            .filter(|((l, _), _)| *l == layer)
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    };
    metrics.insert(
        "http.parse_us".into(),
        (p50(Some(&merged("http.parse"))), "us"),
    );
    metrics.insert(
        "obs.record_us".into(),
        (p50(Some(&merged("obs.record"))), "us"),
    );
    metrics.insert(
        "router.miss_us".into(),
        (p50(own.get(&("router.dispatch", "miss"))), "us"),
    );
    for r in DISPATCH_ROUTES {
        let v = own.get(&("router.dispatch", r));
        metrics.insert(format!("router.dispatch_us.{r}.p50"), (p50(v), "us"));
        let p99 = v.and_then(|v| quantile(v, 0.99)).unwrap_or(f64::NAN);
        metrics.insert(format!("router.dispatch_us.{r}.p99"), (p99, "us"));
    }
    for r in BODY_ROUTES {
        metrics.insert(
            format!("http.body_us.{r}"),
            (p50(own.get(&("http.body", r))), "us"),
        );
    }
    for (name, layer) in [
        ("dataset.stats_us", "dataset.stats"),
        ("viz.map_render_us", "viz.map_render"),
        ("ingest.submit_us", "ingest.submit"),
        ("ingest.wal_append_us", "ingest.wal_append"),
        ("ingest.epoch_us", "ingest.epoch"),
        ("ingest.crowd_at_us", "ingest.crowd_at"),
    ] {
        metrics.insert(name.into(), (p50(own.get(&(layer, ""))), "us"));
    }
    let engine = program.state.engine();
    eprintln!("ingest.applied = {} check-ins", tally.applied);
    metrics.insert(
        "ingest.users_remined".into(),
        (tally.remined as f64, "count"),
    );
    metrics.insert(
        "ingest.full_rebuilds".into(),
        (engine.stats().full_rebuilds as f64, "count"),
    );
    let ratio = if tally.applied == 0 {
        0.0
    } else {
        tally.remined as f64 / tally.applied as f64
    };
    metrics.insert("ingest.remined_ratio".into(), (ratio, "ratio"));
    let history: usize = engine.epochs().iter().map(|e| e.resident_bytes).sum();
    metrics.insert("ingest.history_bytes".into(), (history as f64, "bytes"));
    metrics.insert(
        "ingest.queue_depth_max".into(),
        (tally.queue_depth_max as f64, "count"),
    );
    let series = program
        .state
        .metrics()
        .render()
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter(|l| {
            let name = l.split(['{', ' ']).next().unwrap_or("");
            !name.ends_with("_bucket") && !name.ends_with("_sum")
        })
        .count();
    metrics.insert("obs.series".into(), (series as f64, "count"));
    metrics.insert("trace.overhead_pct".into(), (overhead_pct, "%"));
    metrics.insert(
        "trace.request_self_us".into(),
        (p50(Some(&merged("request"))), "us"),
    );

    // Spans are written out once, at the end.
    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".runs")
        .join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
    std::fs::write(&out, t.to_tsv()).map_err(|e| format!("writing spans: {e}"))?;
    eprintln!(
        "traced: {} spans in {}; replay {untraced_s:.3} s untraced, {traced_s:.3} s traced \
         ({overhead_pct:.2} % overhead)",
        t.spans().len(),
        out.display()
    );
    for (name, unit) in per_layer_names() {
        if let Some((v, _)) = metrics.get(&name) {
            eprintln!("{name} = {v} {unit}");
        }
    }
    let correct = tally.failed == 0;
    Ok((metrics, correct, tally.requests, tally.failed))
}
