//! End-to-end platform test: a real server over TCP, every endpoint
//! family exercised the way the demo's browser front-end uses them.

use crowdweb::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;

struct Running {
    addr: SocketAddr,
}

fn server() -> &'static Running {
    static SERVER: OnceLock<Running> = OnceLock::new();
    SERVER.get_or_init(|| {
        let dataset = SynthConfig::small(71).generate().unwrap();
        let state = AppState::build(dataset, 20).unwrap();
        let (addr, _handle, _join) = Server::bind("127.0.0.1:0", state).unwrap().spawn();
        Running { addr }
    })
}

fn request(raw: String) -> (u16, String) {
    let mut stream = TcpStream::connect(server().addr).unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut buf = String::new();
    stream.read_to_string(&mut buf).unwrap();
    let code = buf
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let (head, body) = buf.split_once("\r\n\r\n").unwrap_or((buf.as_str(), ""));
    // No route fetched here streams: every response is one
    // `Content-Length` body, read whole up to the server's close.
    let length = head.lines().find_map(|line| {
        line.split_once(':')
            .filter(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, value)| value.trim().parse::<usize>().ok())
    });
    assert_eq!(length, Some(body.len()), "framing of {head:?}");
    (code, body.to_owned())
}

fn get(path: &str) -> (u16, String) {
    // One connection per request, framed by EOF — so opt out of the
    // server's default keep-alive.
    request(format!(
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    ))
}

#[test]
fn frontend_and_stats() {
    let (code, body) = get("/");
    assert_eq!(code, 200);
    assert!(body.contains("CrowdWeb"));
    let (code, body) = get("/api/stats");
    assert_eq!(code, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert!(v["total_checkins"].as_u64().unwrap() > 0);
    assert!(v["filtered_users"].as_u64().unwrap() > 0);
}

#[test]
fn user_pattern_and_network_flow() {
    // The canonical v1 listing is paginated: {"total": N, "items": [...]}.
    let (code, body) = get("/api/v1/users");
    assert_eq!(code, 200);
    let page: serde_json::Value = serde_json::from_str(&body).unwrap();
    let users = page["items"].as_array().unwrap();
    assert!(!users.is_empty());
    assert!(page["total"].as_u64().unwrap() as usize >= users.len());
    let uid = users[0]["user"].as_u64().unwrap();

    // The legacy alias serves the identical body.
    let (code, alias_body) = get("/api/users");
    assert_eq!(code, 200);
    assert_eq!(body, alias_body);

    let (code, body) = get(&format!("/api/v1/patterns/{uid}"));
    assert_eq!(code, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["user"].as_u64().unwrap(), uid);

    let (code, body) = get(&format!("/api/v1/network/{uid}"));
    assert_eq!(code, 200);
    assert!(body.starts_with("<svg"));
}

#[test]
fn crowd_views_across_hours() {
    let (code, body) = get("/api/crowd?hour=9");
    assert_eq!(code, 200);
    let morning: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(morning["window"], "9-10 am");

    let (code, body) = get("/api/crowd?hour=21");
    assert_eq!(code, 200);
    let night: serde_json::Value = serde_json::from_str(&body).unwrap();
    // Figures 3 vs 4: the distribution changes with the window.
    assert_ne!(morning["cells"], night["cells"]);

    let (code, body) = get("/api/crowd/map?hour=9");
    assert_eq!(code, 200);
    assert!(body.starts_with("<svg"));

    let (code, body) = get("/api/crowd/geojson?hour=9");
    assert_eq!(code, 200);
    assert!(body.contains("FeatureCollection"));

    let (code, _) = get("/api/crowd/flows?from=9&to=10");
    assert_eq!(code, 200);
}

#[test]
fn figures_are_served() {
    for fig in ["fig5", "fig6", "fig7", "fig8"] {
        let (code, body) = get(&format!("/api/figures/{fig}"));
        assert_eq!(code, 200, "{fig}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["figure"], fig);
        let (code, body) = get(&format!("/api/figures/{fig}/svg"));
        assert_eq!(code, 200);
        assert!(body.starts_with("<svg"));
    }
}

#[test]
fn visitor_upload_end_to_end() {
    // The booth feature: a visitor shares their history, the platform
    // mines and returns their patterns.
    let mut tsv = String::new();
    for day in 1..=5 {
        tsv.push_str(&format!(
            "500\thome\tx\tHome (private)\t40.73\t-73.99\t-240\tSun Apr {day:02} 11:00:00 +0000 2012\n"
        ));
        tsv.push_str(&format!(
            "500\tcafe{day}\tx\tCoffee Shop\t40.74\t-73.98\t-240\tSun Apr {day:02} 17:00:00 +0000 2012\n"
        ));
    }
    let (code, body) = request(format!(
        "POST /api/upload HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{tsv}",
        tsv.len()
    ));
    assert_eq!(code, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["checkins"].as_u64().unwrap(), 10);
    // The flexible coffee habit (5 different cafés) must be mined as a
    // single Eatery pattern thanks to place abstraction.
    let patterns = v["patterns"][0]["patterns"].as_array().unwrap();
    assert!(
        patterns.iter().any(|p| p["items"]
            .as_array()
            .unwrap()
            .iter()
            .any(|i| i.as_str().unwrap().contains("Eatery"))),
        "{body}"
    );

    let (code, _) = get("/api/upload/last");
    assert_eq!(code, 200);
}

/// The ISSUE acceptance criterion, end to end over real TCP: after 20
/// ingest epochs against a 16-deep history, `GET /api/v1/crowd?epoch=N`
/// returns bytes identical to what `GET /api/v1/crowd` returned when
/// epoch `N` was latest, for every retained epoch — and evicted epochs
/// are a 404 `unknown-epoch` envelope. Runs on its own server so the
/// epoch churn never races the read-only tests above.
#[test]
fn time_travel_replays_the_live_crowd_byte_identically_over_tcp() {
    const EPOCHS: usize = 20;
    const DEPTH: usize = 16;
    let dataset = SynthConfig::small(77).generate().unwrap();
    let state = AppState::build(dataset, 20).unwrap();
    assert_eq!(state.engine().history().capacity(), DEPTH);
    // Pin venue/user rows to submit against before the server takes
    // ownership of the state.
    let rows: Vec<(u32, String, f64, f64)> = {
        let snap = state.snapshot();
        snap.dataset()
            .checkins()
            .iter()
            .step_by(29)
            .take(EPOCHS)
            .map(|c| {
                let v = snap.dataset().venue(c.venue()).unwrap();
                (
                    c.user().raw(),
                    v.name().to_owned(),
                    v.location().lat(),
                    v.location().lon(),
                )
            })
            .collect()
    };
    let (addr, _handle, _join) = Server::bind("127.0.0.1:0", state).unwrap().spawn();
    let send = |raw: String| -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        let code = buf
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        (code, buf.split("\r\n\r\n").nth(1).unwrap_or("").to_owned())
    };
    let get = |path: &str| {
        send(format!(
            "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        ))
    };
    let post = |path: &str, body: &str| {
        send(format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ))
    };

    // Capture the live crowd body at every epoch as it is published.
    let mut published = vec![get("/api/v1/crowd").1];
    for (step, (user, venue, lat, lon)) in rows.iter().enumerate() {
        let json = format!(
            "{{\"user\":{user},\"venue\":{},\"category\":\"Office\",\"lat\":{lat},\"lon\":{lon},\
             \"tz_offset_minutes\":-240,\"time\":\"Tue Apr 03 {:02}:00:00 +0000 2012\"}}",
            serde_json::to_string(venue).unwrap(),
            9 + step % 13,
        );
        let (code, body) = post("/api/v1/checkins", &json);
        assert_eq!(code, 200, "submit {step}: {body}");
        let (code, body) = post("/api/v1/ingest/epoch", "");
        assert_eq!(code, 200, "epoch {step}: {body}");
        assert!(body.contains("\"ran\":true"), "epoch {step}: {body}");
        published.push(get("/api/v1/crowd").1);
    }

    // Epochs 5..=20 are retained (16-deep ring), 0..=4 were evicted.
    for (epoch, want) in published.iter().enumerate() {
        let (code, body) = get(&format!("/api/v1/crowd?epoch={epoch}"));
        if epoch + DEPTH > EPOCHS {
            assert_eq!(code, 200, "epoch {epoch}: {body}");
            assert_eq!(&body, want, "epoch {epoch} must replay byte-identically");
        } else {
            assert_eq!(code, 404, "evicted epoch {epoch}: {body}");
            let v: serde_json::Value = serde_json::from_str(&body).unwrap();
            assert_eq!(v["error"]["code"].as_str(), Some("unknown-epoch"));
        }
    }

    // The listing agrees with the replayable range.
    let (code, body) = get("/api/v1/epochs");
    assert_eq!(code, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["latest"].as_u64(), Some(EPOCHS as u64));
    let epochs = v["epochs"].as_array().unwrap();
    assert_eq!(epochs.len(), DEPTH);
    assert_eq!(
        epochs[0]["epoch"].as_u64(),
        Some((EPOCHS - DEPTH + 1) as u64)
    );
    assert_eq!(epochs[0]["kind"], "full");
    // Health reports the deepened ring.
    let (_, body) = get("/api/v1/healthz");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["history_depth"].as_u64(), Some(DEPTH as u64));
    assert_eq!(v["epoch"].as_u64(), Some(EPOCHS as u64));
}

#[test]
fn error_paths() {
    // Status codes on both the v1 and legacy spellings…
    for prefix in ["/api/v1", "/api"] {
        assert_eq!(get(&format!("{prefix}/patterns/abc")).0, 400);
        assert_eq!(get(&format!("{prefix}/patterns/99999")).0, 404);
        assert_eq!(get(&format!("{prefix}/crowd?hour=77")).0, 400);
        assert_eq!(get(&format!("{prefix}/figures/fig9")).0, 404);
        assert_eq!(get(&format!("{prefix}/users?limit=0")).0, 400);
    }
    assert_eq!(get("/definitely/not/here").0, 404);
    // …and every error body is the uniform envelope, end to end over
    // real TCP.
    for (path, slug) in [
        ("/api/v1/patterns/abc", "bad-user-id"),
        ("/api/v1/patterns/99999", "unknown-user"),
        ("/api/v1/users?limit=0", "bad-limit"),
        ("/definitely/not/here", "not-found"),
    ] {
        let (_, body) = get(path);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["code"].as_str(), Some(slug), "{path}");
        assert!(v["error"]["status"].as_u64().is_some(), "{path}");
    }
}
