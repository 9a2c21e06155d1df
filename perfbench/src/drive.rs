//! Drives a schedule against the server over loopback TCP.
//!
//! Each sender thread owns one keep-alive `crowdweb_loadgen` client and
//! fires its share of the schedule at the due times, whatever the server
//! is doing (open loop). Latency is measured from the due time, so a
//! stall also charges the requests queued behind it.

use crate::workload::{Op, Role, Schedule, EXPORT_PATH};
use crowdweb_loadgen::client::{Client, HttpResponse};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Socket timeout of every benchmark connection.
pub const TIMEOUT: Duration = Duration::from_secs(20);

/// What came back for one op.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Index of the op in its schedule (or of the export in the closed
    /// loop).
    pub op: usize,
    /// When the request was due, µs after the run started.
    pub due_us: u64,
    /// When it was actually sent.
    pub sent_us: u64,
    /// When its response was fully read.
    pub done_us: u64,
    /// HTTP status, 0 for a transport error.
    pub status: u16,
    /// Hash of the body bytes.
    pub body_hash: u64,
    /// Body length in bytes.
    pub body_len: usize,
    /// Newline count of the body (NDJSON rows).
    pub lines: usize,
}

impl Outcome {
    /// Whether the op succeeded: a 2xx status (a 304 would count too,
    /// but the benchmark never revalidates).
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status) || self.status == 304
    }

    /// Latency from the due time, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done_us.saturating_sub(self.due_us)) as f64 / 1e3
    }

    /// How late the request was sent, µs.
    pub fn lag_us(&self) -> f64 {
        self.sent_us.saturating_sub(self.due_us) as f64
    }
}

/// Hash of a body, stable across processes.
pub fn body_hash(body: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

fn micros_since(start: Instant) -> u64 {
    start.elapsed().as_micros() as u64
}

fn record(
    op: usize,
    due_us: u64,
    sent_us: u64,
    done_us: u64,
    role: Role,
    r: &HttpResponse,
) -> Outcome {
    let bytes = r.body.as_bytes();
    let mut out = Outcome {
        op,
        due_us,
        sent_us,
        done_us,
        status: r.status,
        body_hash: body_hash(bytes),
        body_len: bytes.len(),
        ..Outcome::default()
    };
    if role == Role::Export {
        out.lines = bytecount_newlines(bytes);
    }
    out
}

fn bytecount_newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// Fires one sender's ops at their due times on one connection.
fn sender_loop(addr: SocketAddr, ops: &[Op], mine: &[usize], start: Instant) -> Vec<Outcome> {
    let mut client = Client::new(addr, TIMEOUT);
    let mut out = Vec::with_capacity(mine.len());
    for &i in mine {
        let op = &ops[i];
        let now = micros_since(start);
        if op.due_us > now {
            std::thread::sleep(Duration::from_micros(op.due_us - now));
        }
        let sent_us = micros_since(start);
        let outcome = match client.request(&op.path, op.body.as_deref()) {
            Ok(r) => record(i, op.due_us, sent_us, micros_since(start), op.role, &r),
            Err(_) => Outcome {
                op: i,
                due_us: op.due_us,
                sent_us,
                done_us: micros_since(start),
                ..Outcome::default()
            },
        };
        out.push(outcome);
    }
    out
}

/// Runs `schedule` open loop on `senders` connections, starting now.
/// Returns one outcome per op, indexed like `schedule.ops`.
pub fn open_loop(addr: SocketAddr, schedule: &Schedule, senders: usize) -> Vec<Outcome> {
    let mut per_sender: Vec<Vec<usize>> = vec![Vec::new(); senders];
    for (i, op) in schedule.ops.iter().enumerate() {
        per_sender[op.sender].push(i);
    }
    let start = Instant::now();
    let mut outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = per_sender
            .iter()
            .filter(|mine| !mine.is_empty())
            .map(|mine| scope.spawn(move || sender_loop(addr, &schedule.ops, mine, start)))
            .collect();
        let mut all = Vec::with_capacity(schedule.ops.len());
        for h in handles {
            all.extend(h.join().expect("sender thread panicked"));
        }
        all
    });
    outcomes.sort_by_key(|o| o.op);
    outcomes
}

/// Back-to-back full exports on one connection, starting now, until
/// `span_us` has passed and at least `min_exports` have been made.
pub fn export_loop(addr: SocketAddr, span_us: u64, min_exports: usize) -> Vec<Outcome> {
    let start = Instant::now();
    let mut client = Client::new(addr, TIMEOUT);
    let mut out = Vec::new();
    while out.len() < min_exports || micros_since(start) < span_us {
        let sent_us = micros_since(start);
        let outcome = match client.request(EXPORT_PATH, None) {
            Ok(r) => record(
                out.len(),
                sent_us,
                sent_us,
                micros_since(start),
                Role::Export,
                &r,
            ),
            Err(_) => Outcome {
                op: out.len(),
                due_us: sent_us,
                sent_us,
                done_us: micros_since(start),
                ..Outcome::default()
            },
        };
        out.push(outcome);
    }
    out
}

/// One GET outside any measurement (warm-up, final checks).
pub fn get(addr: SocketAddr, path: &str) -> Result<HttpResponse, String> {
    Client::new(addr, TIMEOUT)
        .request(path, None)
        .map_err(|e| format!("GET {path}: {e}"))
        .and_then(|r| {
            if r.is_success() {
                Ok(r)
            } else {
                Err(format!("GET {path}: status {}", r.status))
            }
        })
}
