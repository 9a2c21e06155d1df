//! The per-epoch view memo serves exactly what a cold render serves.
//!
//! The page-load views (`stats`, `heatmap`, `hotspots`,
//! `crowd/timeline`, `figures/:id` and `figures/:id/svg`) are rendered
//! once per city and epoch and then answered from memory. These tests
//! pin that a memoized body is byte-identical to the body a freshly
//! built platform renders — at the boot epoch, after live ingest, and
//! per city — that time-travel timeline reads bypass the memo, and that
//! concurrent cold requests render a view once.

use crowdweb_dataset::{Dataset, MergeRecord, Timestamp};
use crowdweb_ingest::IngestConfig;
use crowdweb_prep::Preprocessor;
use crowdweb_server::api::build_router;
use crowdweb_server::state::{DEFAULT_GRID_SIDE, DEFAULT_MIN_SUPPORT};
use crowdweb_server::{AppState, Request, Router};
use crowdweb_synth::SynthConfig;
use std::sync::Barrier;

/// Every memoized view, by its default-city path.
const VIEWS: [&str; 12] = [
    "/api/v1/stats",
    "/api/v1/heatmap",
    "/api/v1/hotspots",
    "/api/v1/crowd/timeline",
    "/api/v1/figures/fig5",
    "/api/v1/figures/fig6",
    "/api/v1/figures/fig7",
    "/api/v1/figures/fig8",
    "/api/v1/figures/fig5/svg",
    "/api/v1/figures/fig6/svg",
    "/api/v1/figures/fig7/svg",
    "/api/v1/figures/fig8/svg",
];

const MIN_ACTIVE_DAYS: usize = 20;

/// The configuration `AppState::build` gives its default city.
fn config() -> IngestConfig {
    IngestConfig {
        preprocessor: Preprocessor::new().min_active_days(MIN_ACTIVE_DAYS),
        min_support: DEFAULT_MIN_SUPPORT,
        grid_rows: DEFAULT_GRID_SIDE,
        grid_cols: DEFAULT_GRID_SIDE,
        ..IngestConfig::default()
    }
}

fn build(dataset: Dataset) -> AppState {
    AppState::build(dataset, MIN_ACTIVE_DAYS).unwrap()
}

/// Status, content type and body of one request.
type Answer = (u16, String, Vec<u8>);

fn send(
    router: &Router<AppState>,
    state: &AppState,
    method: &str,
    path: &str,
    body: &str,
) -> Answer {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let req = Request::read_from(raw.as_bytes()).unwrap();
    let resp = router.route(state, &req);
    let (code, content_type) = (resp.status.code(), resp.content_type.clone());
    (code, content_type, resp.into_body_bytes())
}

fn get(router: &Router<AppState>, state: &AppState, path: &str) -> Answer {
    let answer = send(router, state, "GET", path, "");
    assert_eq!(
        answer.0,
        200,
        "{path}: {}",
        String::from_utf8_lossy(&answer.2)
    );
    answer
}

fn memo_count(state: &AppState, view: &str, outcome: &str) -> Option<u64> {
    state.metrics().counter_value(
        "crowdweb_http_view_memo_total",
        &[("view", view), ("outcome", outcome)],
    )
}

/// Clones every 37th check-in, shifted in time, as a merge batch (the
/// epoch history tests' cold-rebuild batches).
fn shifted_records(d: &Dataset, shift_secs: i64, n: usize) -> Vec<MergeRecord> {
    d.checkins()
        .iter()
        .step_by(37)
        .take(n)
        .map(|c| {
            let v = d.venue(c.venue()).unwrap();
            MergeRecord {
                user: c.user(),
                venue_key: v.name().to_owned(),
                category: "Office".to_owned(),
                location: v.location(),
                tz_offset_minutes: c.tz_offset_minutes(),
                time: Timestamp::from_unix_seconds(c.time().unix_seconds() + shift_secs),
            }
        })
        .collect()
}

/// `records` as a `POST /api/v1/checkins` batch body.
fn checkins_json(records: &[MergeRecord]) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"user\":{},\"venue\":{},\"category\":{},\"lat\":{},\"lon\":{},\
                 \"tz_offset_minutes\":{},\"time\":\"{}\"}}",
                r.user.raw(),
                serde_json::to_string(&r.venue_key).unwrap(),
                serde_json::to_string(&r.category).unwrap(),
                r.location.lat(),
                r.location.lon(),
                r.tz_offset_minutes,
                crowdweb_dataset::tsv::format_time(r.time),
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// Submits `records` over the API and publishes them as a new epoch.
fn ingest(router: &Router<AppState>, state: &AppState, records: &[MergeRecord]) {
    let (code, _, body) = send(
        router,
        state,
        "POST",
        "/api/v1/checkins",
        &checkins_json(records),
    );
    assert_eq!(code, 200, "{}", String::from_utf8_lossy(&body));
    let (code, _, body) = send(router, state, "POST", "/api/v1/ingest/epoch", "");
    assert_eq!(code, 200, "{}", String::from_utf8_lossy(&body));
}

#[test]
fn memoized_views_match_a_fresh_platform_at_epoch_zero() {
    let dataset = SynthConfig::small(53).generate().unwrap();
    let (served, fresh) = (build(dataset.clone()), build(dataset));
    let router = build_router();
    for path in VIEWS {
        let miss = get(&router, &served, path);
        let hit = get(&router, &served, path);
        // Query strings are not part of the key.
        let hit_with_query = get(&router, &served, &format!("{path}?limit=3&hour=2"));
        let cold = get(&router, &fresh, path);
        assert_eq!(miss, cold, "{path}: first render differs from a fresh one");
        assert_eq!(
            hit, cold,
            "{path}: memoized body differs from a fresh render"
        );
        assert_eq!(hit_with_query, cold, "{path}: the query changed the body");
    }
    assert_eq!(memo_count(&served, "stats", "miss"), Some(1));
    assert_eq!(memo_count(&served, "stats", "hit"), Some(2));
    assert_eq!(memo_count(&served, "fig8_svg", "hit"), Some(2));
}

#[test]
fn views_after_an_epoch_match_a_cold_rebuild_on_the_merged_dataset() {
    let base = SynthConfig::small(71).generate().unwrap();
    let state = build(base.clone());
    let router = build_router();
    // Fill the memo at epoch 0.
    let before: Vec<Answer> = VIEWS.iter().map(|p| get(&router, &state, p)).collect();

    let mut applied = Vec::new();
    for round in 1..=2 {
        let batch = shifted_records(&base, 1800 * round, 12);
        ingest(&router, &state, &batch);
        applied.extend(batch);
        let cold = build(base.merge_records(&applied).unwrap());
        assert_eq!(state.snapshot().epoch(), round as u64);
        for (path, old) in VIEWS.iter().zip(&before) {
            let served = get(&router, &state, path);
            assert_eq!(
                served,
                get(&router, &state, path),
                "{path}: a hit differs from its miss"
            );
            assert_eq!(
                served,
                get(&router, &cold, path),
                "epoch {round}: {path} differs from a cold rebuild"
            );
            if *path == "/api/v1/stats" {
                assert_ne!(&served, old, "the check-in count must have moved");
            }
        }
    }
}

#[test]
fn cities_never_serve_each_others_views() {
    let nyc = SynthConfig::small(53).generate().unwrap();
    let tokyo = SynthConfig::small(77).generate().unwrap();
    let mut state = build(nyc.clone());
    state.add_city("tokyo", tokyo.clone(), config()).unwrap();
    let (nyc_alone, tokyo_alone) = (build(nyc), build(tokyo));
    let router = build_router();
    for path in VIEWS {
        let tokyo_path = path.replace("/api/v1/", "/api/v1/cities/tokyo/");
        // Alternate which city renders first, then read both warm.
        let order = [path.to_owned(), tokyo_path.clone()];
        for p in order.iter().chain(order.iter().rev()) {
            get(&router, &state, p);
        }
        let nyc_view = get(&router, &state, path);
        let tokyo_view = get(&router, &state, &tokyo_path);
        assert_eq!(nyc_view, get(&router, &nyc_alone, path), "{path}");
        assert_eq!(tokyo_view, get(&router, &tokyo_alone, path), "{tokyo_path}");
        if path == "/api/v1/stats" {
            assert_ne!(nyc_view, tokyo_view, "the two datasets differ");
        }
    }
}

#[test]
fn time_travel_timeline_replays_the_body_served_when_its_epoch_was_live() {
    let base = SynthConfig::small(71).generate().unwrap();
    let state = build(base.clone());
    let router = build_router();
    let mut live = vec![get(&router, &state, "/api/v1/crowd/timeline")];
    for round in 1..=2 {
        ingest(&router, &state, &shifted_records(&base, 3600 * round, 40));
        live.push(get(&router, &state, "/api/v1/crowd/timeline"));
    }
    assert_ne!(live[0], live[2], "the batches must move the timeline");
    for (epoch, want) in live.iter().enumerate() {
        let path = format!("/api/v1/crowd/timeline?epoch={epoch}");
        assert_eq!(&get(&router, &state, &path), want, "{path}");
    }
    // The replays went around the memo: the live view is still a hit.
    let misses = memo_count(&state, "crowd_timeline", "miss");
    assert_eq!(misses, Some(3), "one render per live epoch");
    assert_eq!(get(&router, &state, "/api/v1/crowd/timeline"), live[2]);
    assert_eq!(memo_count(&state, "crowd_timeline", "miss"), misses);
}

#[test]
fn racing_cold_requests_render_a_view_once() {
    const THREADS: usize = 8;
    let state = build(SynthConfig::small(53).generate().unwrap());
    let router = build_router();
    let start = Barrier::new(THREADS);
    let bodies: Vec<Answer> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    get(&router, &state, "/api/v1/figures/fig5/svg")
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(bodies.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(memo_count(&state, "fig5_svg", "miss"), Some(1));
    assert_eq!(
        memo_count(&state, "fig5_svg", "hit"),
        Some(THREADS as u64 - 1)
    );
}
