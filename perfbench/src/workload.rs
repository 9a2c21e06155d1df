//! The workloads and their request schedules.
//!
//! A schedule is a list of [`Op`]s, each due at a fixed offset from the
//! start of the run and pinned to one sender connection. Every schedule
//! is a pure function of the workload, the seed, the run length and the
//! [`Context`] (facts about the generated dataset), so the same seed
//! always gives the same schedule.

use crowdweb_geo::LatLon;
use crowdweb_loadgen::scenario::{Phase, ReadMix, Scenario};
use crowdweb_loadgen::trace::{EndpointKind, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Substituted at send time with a published epoch (see the loadgen's
/// own placeholder of the same spelling).
pub use crowdweb_loadgen::trace::EPOCH_PLACEHOLDER;

/// Venues of the paper-scale synthetic city (`SynthConfig::paper_nyc`).
pub const PAPER_VENUES: usize = 12_000;
/// Hotspots of the paper-scale synthetic city.
pub const PAPER_HOTSPOTS: usize = 30;
/// Users of the paper-scale synthetic city; check-in writers are drawn
/// from these existing ids.
pub const PAPER_USERS: u64 = 1_083;

/// Dashboard sessions started per second.
pub const SESSION_RATE: f64 = 3.0;
/// Hours a session scrubs the crowd map through.
const SCRUB_HOURS: u8 = 24;
/// Request rate of the check-in surge.
pub const SURGE_RATE: f64 = 300.0;
/// Share of the surge's requests that are check-in writes.
pub const SURGE_WRITE_FRACTION: f64 = 0.67;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop dashboard sessions: page-load burst, then interaction.
    Dashboard,
    /// Closed-loop, back-to-back full NDJSON exports on one connection.
    BulkExport,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Dashboard, Workload::BulkExport];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Dashboard => "dashboard",
            Workload::BulkExport => "bulk_export",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What an operation is, for the metric it feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// One GET of a dashboard page-load burst.
    PageLoad,
    /// Any other open-loop GET.
    Read,
    /// A check-in POST.
    Write,
    /// `POST /api/v1/ingest/epoch`.
    Epoch,
    /// A full NDJSON export (closed loop).
    Export,
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Microseconds after the run starts at which the request is due.
    pub due_us: u64,
    /// Which sender connection sends it.
    pub sender: usize,
    /// Dashboard session the op belongs to, if any.
    pub session: Option<u32>,
    /// What the op is.
    pub role: Role,
    /// Short route label (`crowd_map`, `checkins`, ...).
    pub route: &'static str,
    /// Request path and query; may hold [`EPOCH_PLACEHOLDER`].
    pub path: String,
    /// JSON body for POSTs.
    pub body: Option<String>,
}

/// Facts about the generated dataset the schedule draws on.
#[derive(Debug, Clone)]
pub struct Context {
    /// Mined users, as `/api/v1/users` lists them.
    pub users: Vec<u32>,
    /// Venue locations tile reads are centred on.
    pub venue_points: Vec<LatLon>,
}

/// A complete schedule: open-loop ops sorted by due time.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The ops, sorted by `due_us`.
    pub ops: Vec<Op>,
}

fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

fn op(due_us: u64, sender: usize, role: Role, route: &'static str, path: String) -> Op {
    Op {
        due_us,
        sender,
        session: None,
        role,
        route,
        path,
        body: None,
    }
}

/// The dashboard's page-load burst, in the order the embedded
/// front-end issues it.
pub const PAGE_LOAD: [(&str, &str); 6] = [
    ("stats", "/api/v1/stats"),
    ("users", "/api/v1/users?limit=1000"),
    ("heatmap", "/api/v1/heatmap"),
    ("crowd_timeline", "/api/v1/crowd/timeline"),
    ("fig5_svg", "/api/v1/figures/fig5/svg"),
    ("hotspots", "/api/v1/hotspots"),
];

/// Interaction steps a session takes per slot.
const STEPS_PER_SLOT: usize = 3;
/// Part of each slot, from its start, left to the slot's page load; the
/// interactions due in the slot are spread over the rest of it
/// ([`INTERACTION_WINDOW_END_US`]), so they never compete with a page load
/// for the CPUs.
const PAGE_LOAD_WINDOW_US: u64 = 150_000;
/// End of the interaction part of a slot.
const INTERACTION_WINDOW_END_US: u64 = 320_000;

/// One session's interactions, in the order the front-end issues them:
/// one user's patterns and place network, the crowd map scrubbed through
/// all 24 hours, one flow map.
fn interactions(rng: &mut StdRng, ctx: &Context) -> Vec<(&'static str, String)> {
    let user = ctx.users[rng.gen_range(0..ctx.users.len())];
    let hour0: u8 = rng.gen_range(0..24);
    let mut steps = vec![
        ("patterns", format!("/api/v1/patterns/{user}")),
        ("network", format!("/api/v1/network/{user}")),
    ];
    for step in 0..SCRUB_HOURS {
        let hour = (hour0 + step) % 24;
        steps.push(("crowd_map", format!("/api/v1/crowd/map?hour={hour}")));
    }
    steps.push((
        "flows_map",
        format!(
            "/api/v1/crowd/flows/map?from={hour0}&to={}",
            (hour0 + 1) % 24
        ),
    ));
    steps
}

/// Slots a session's interactions take, after the slot of its page load.
pub fn interaction_slots() -> u64 {
    (usize::from(SCRUB_HOURS) + 3).div_ceil(STEPS_PER_SLOT) as u64
}

/// Dashboard sessions over `span_us`, one per slot of `1 / SESSION_RATE`
/// seconds. Session `s` loads the page at the start of slot `s` on the
/// first connection, then takes [`STEPS_PER_SLOT`] interaction steps in
/// each of the slots that follow, on the last connection. Within a slot
/// the page load goes first and the interactions due in it are spread
/// evenly over the slot's interaction window.
pub fn dashboard(seed: u64, span_us: u64, senders: usize, ctx: &Context) -> Schedule {
    let mut rng = rng_for(seed, 1);
    let slot_us = (1e6 / SESSION_RATE) as u64;
    let sessions = span_us.div_ceil(slot_us) as u32;
    let steps: Vec<Vec<(&'static str, String)>> =
        (0..sessions).map(|_| interactions(&mut rng, ctx)).collect();
    let mut ops = Vec::new();
    let mut push = |due: u64, session: u32, role, route, path: String| {
        let sender = if role == Role::PageLoad {
            0
        } else {
            senders - 1
        };
        let mut o = op(due, sender, role, route, path);
        o.session = Some(session);
        ops.push(o);
    };
    let last_slot = u64::from(sessions) + interaction_slots();
    for slot in 0..last_slot {
        let start = slot * slot_us;
        if slot < u64::from(sessions) {
            for (route, path) in PAGE_LOAD {
                push(start, slot as u32, Role::PageLoad, route, path.to_owned());
            }
        }
        // (session, step) of every interaction due in this slot.
        let due: Vec<(u32, usize)> = (0..sessions)
            .filter(|&s| u64::from(s) < slot)
            .flat_map(|s| {
                let first = (slot - u64::from(s) - 1) as usize * STEPS_PER_SLOT;
                let n = steps[s as usize].len();
                (first.min(n)..(first + STEPS_PER_SLOT).min(n)).map(move |j| (s, j))
            })
            .collect();
        let gap = (INTERACTION_WINDOW_END_US - PAGE_LOAD_WINDOW_US) / due.len().max(1) as u64;
        for (k, &(s, j)) in due.iter().enumerate() {
            let (route, path) = &steps[s as usize][j];
            push(
                start + PAGE_LOAD_WINDOW_US + k as u64 * gap,
                s,
                Role::Read,
                route,
                path.clone(),
            );
        }
    }
    ops.sort_by_key(|o| o.due_us);
    Schedule { ops }
}

/// The loadgen scenario of the check-in surge: existing users of the
/// paper-scale city checking in from the morning commute on, a third of
/// the writes converging on one transit venue, and reads that are half
/// time-travel `?epoch=N` crowd reads and half crowd maps.
pub fn surge_scenario(seed: u64, span_us: u64) -> Scenario {
    let wall_secs = span_us as f64 / 1e6;
    Scenario {
        name: "checkin_surge".to_owned(),
        seed,
        users: PAPER_USERS,
        venues: PAPER_VENUES,
        hotspots: PAPER_HOTSPOTS,
        archetypes: 64,
        time_compression: 3_600.0,
        epoch_every_secs: 1.0,
        start_hour: 7,
        start_day_offset: 30,
        city: None,
        read_mix: ReadMix {
            crowd: 0.0,
            map: 1.0,
            flows: 0.0,
            tiles: 0.0,
            export: 0.0,
            epoch: 1.0,
        },
        phases: vec![Phase {
            name: "surge".to_owned(),
            virtual_secs: wall_secs * 3_600.0,
            start_rps: SURGE_RATE,
            end_rps: SURGE_RATE,
            write_fraction: SURGE_WRITE_FRACTION,
            surge: Some("transit".to_owned()),
            surge_weight: 0.3,
        }],
    }
}

/// The requests of a check-in surge (the loadgen's synthesized trace of
/// [`surge_scenario`], check-in bodies included) over `span_us`, for the
/// traced run's ingest probe.
pub fn checkin_surge(seed: u64, span_us: u64) -> Schedule {
    let trace =
        Trace::synthesize(&surge_scenario(seed, span_us)).expect("the surge scenario is valid");
    let ops = trace
        .events
        .into_iter()
        .map(|e| {
            let (role, route) = match e.kind {
                EndpointKind::Checkins => (Role::Write, "checkins"),
                EndpointKind::EpochRead => (Role::Read, "epoch_read"),
                EndpointKind::CrowdMap => (Role::Read, "crowd_map"),
                other => unreachable!("the surge mix never draws {other:?}"),
            };
            let mut o = op(e.schedule_us, 0, role, route, e.path);
            o.body = e.body;
            o
        })
        .collect();
    Schedule { ops }
}

/// The export route the closed loop fetches.
pub const EXPORT_PATH: &str = "/api/v1/export/checkins";

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context {
            users: vec![3, 5, 8, 13],
            venue_points: vec![
                LatLon::new(40.75, -73.98).unwrap(),
                LatLon::new(40.70, -73.95).unwrap(),
            ],
        }
    }

    #[test]
    fn the_same_seed_gives_an_identical_schedule() {
        let c = ctx();
        for (a, b) in [
            (
                dashboard(9, 3_000_000, 2, &c),
                dashboard(9, 3_000_000, 2, &c),
            ),
            (checkin_surge(9, 2_000_000), checkin_surge(9, 2_000_000)),
        ] {
            assert!(!a.ops.is_empty());
            assert_eq!(a, b);
        }
        assert_ne!(
            dashboard(9, 3_000_000, 2, &c),
            dashboard(10, 3_000_000, 2, &c),
            "another seed draws another schedule"
        );
    }

    #[test]
    fn schedules_are_sorted_and_respect_the_sender_cap() {
        let c = ctx();
        let s = dashboard(1, 2_000_000, 2, &c);
        assert!(s.ops.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert!(s.ops.iter().all(|o| o.sender < 2));
    }

    #[test]
    fn a_checkin_surge_is_two_thirds_writes_by_existing_users() {
        let s = checkin_surge(4, 5_000_000);
        let writes: Vec<&Op> = s.ops.iter().filter(|o| o.role == Role::Write).collect();
        let share = writes.len() as f64 / s.ops.len() as f64;
        assert!((0.6..0.73).contains(&share), "write share {share}");
        assert!(writes
            .iter()
            .all(|o| o.body.as_deref().is_some_and(|b| b.contains("\"user\":"))));
    }

    #[test]
    fn a_dashboard_session_is_one_page_load_plus_its_interactions() {
        let s = dashboard(2, 1_000_000, 2, &ctx());
        let first: Vec<&Op> = s.ops.iter().filter(|o| o.session == Some(0)).collect();
        assert_eq!(first.len(), PAGE_LOAD.len() + 3 + usize::from(SCRUB_HOURS));
        assert_eq!(
            first.iter().filter(|o| o.role == Role::PageLoad).count(),
            PAGE_LOAD.len()
        );
    }

    #[test]
    fn interactions_never_fall_in_a_page_load_window() {
        let s = dashboard(3, 4_000_000, 2, &ctx());
        let slot_us = (1e6 / SESSION_RATE) as u64;
        for o in &s.ops {
            let offset = o.due_us % slot_us;
            if o.role == Role::PageLoad {
                assert_eq!(offset, 0);
            } else {
                assert!(
                    (PAGE_LOAD_WINDOW_US..INTERACTION_WINDOW_END_US).contains(&offset),
                    "interaction at {offset} us into its slot"
                );
            }
        }
        // Every session's interactions come after its own page load.
        for o in s.ops.iter().filter(|o| o.role == Role::Read) {
            let session = u64::from(o.session.unwrap());
            assert!(o.due_us / slot_us > session);
        }
    }
}
