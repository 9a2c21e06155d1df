//! CrowdWeb serving benchmark.
//!
//! ```text
//! crowdweb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! crowdweb-perfbench serve --tsv FILE
//! ```
//!
//! The first form generates the paper-scale synthetic city from the
//! seed, writes it as a Foursquare TSV, boots a fresh server process on
//! it (the second form), drives the named workload over loopback TCP and
//! checks every answer against the same program run in-process. With
//! `--trace 1` it instead replays the workload in-process with spans
//! around each layer's public calls and prints the per-layer ledger.
//! Human-readable detail goes to stderr; the last line of stdout is one
//! JSON object with the result. See `README.md` beside this file.

mod check;
mod drive;
mod ledger;
mod report;
mod server;
mod spans;
mod stats;
mod workload;

use crate::report::Metrics;
use crate::server::ServerProcess;
use crate::workload::{Context, Schedule, Workload};
use crowdweb_dataset::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Server starts per run whose median is `setup_s`.
const SETUP_SPAWNS: usize = 5;

/// Parsed `--workload ... --trace ...` arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the dataset and the schedule.
    pub seed: u64,
    /// Seconds of measured load.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer".to_owned())?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a whole number".to_owned())?;
    if !(4..=600).contains(&seconds) {
        return Err("--seconds must be between 4 and 600".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Scratch space of one run, removed when the run ends.
pub struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<RunDir, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".runs")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    /// A path inside the run directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The generated city, on disk and in memory.
pub struct City {
    /// The dataset the TSV holds.
    pub dataset: Dataset,
    /// Where the TSV is.
    pub tsv: PathBuf,
}

impl City {
    fn generate(seed: u64, dir: &RunDir) -> Result<City, String> {
        let dataset = crowdweb_synth::SynthConfig::paper_nyc()
            .seed(seed)
            .generate()
            .map_err(|e| format!("generating the city: {e}"))?;
        let tsv = dir.join("city.tsv");
        let file = std::fs::File::create(&tsv).map_err(|e| format!("writing the TSV: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        crowdweb_dataset::tsv::to_writer(&dataset, &mut out)
            .map_err(|e| format!("writing the TSV: {e}"))?;
        std::io::Write::flush(&mut out).map_err(|e| format!("writing the TSV: {e}"))?;
        Ok(City { dataset, tsv })
    }

    /// Venue locations for tile reads, drawn from the seed.
    pub fn venue_points(&self, seed: u64) -> Vec<crowdweb_geo::LatLon> {
        let venues = self.dataset.venues();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0071_11E5);
        (0..64)
            .map(|_| venues[rng.gen_range(0..venues.len())].location())
            .collect()
    }
}

/// The users `/api/v1/users?limit=1000` lists, as the front-end reads
/// them before a session picks one.
pub fn listed_users(body: &str) -> Result<Vec<u32>, String> {
    let value: serde_json::Value =
        serde_json::from_str(body).map_err(|e| format!("users page: {e}"))?;
    let users: Vec<u32> = value
        .get("items")
        .and_then(|v| v.as_array())
        .map(|items| {
            items
                .iter()
                .filter_map(|i| i.get("user").and_then(|u| u.as_u64()))
                .map(|u| u as u32)
                .collect()
        })
        .unwrap_or_default();
    if users.is_empty() {
        return Err("the users page lists no users".to_owned());
    }
    Ok(users)
}

/// Host facts recorded with every result.
fn host_facts(args: &Args, city: &City) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host: nproc={nproc} rustc=\"{rustc}\" profile={profile} workload={} seed={} seconds={} \
         dataset={} check-ins by {} users",
        args.workload.name(),
        args.seed,
        args.seconds,
        city.dataset.len(),
        city.dataset.user_count()
    )
}

/// Sender connections: one per CPU, at most two.
pub fn sender_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2)
}

/// The `setup_s` of a run: start the server [`SETUP_SPAWNS`] times and
/// keep the last one running for the measurement.
fn start_measured(exe: &Path, city: &City) -> Result<(ServerProcess, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_SPAWNS);
    for _ in 1..SETUP_SPAWNS {
        times.push(ServerProcess::start(exe, &city.tsv)?.setup_s);
    }
    let server = ServerProcess::start(exe, &city.tsv)?;
    times.push(server.setup_s);
    Ok((server, times))
}

/// Reads the server's user list and venue sample into a schedule
/// context.
pub fn context(addr: std::net::SocketAddr, city: &City, seed: u64) -> Result<Context, String> {
    let users = listed_users(&drive::get(addr, "/api/v1/users?limit=1000")?.body)?;
    Ok(Context {
        users,
        venue_points: city.venue_points(seed),
    })
}

/// The open-loop schedule of a workload over `span_us`.
pub fn schedule_for(
    workload: Workload,
    seed: u64,
    span_us: u64,
    senders: usize,
    ctx: &Context,
) -> Schedule {
    match workload {
        Workload::Dashboard => workload::dashboard(seed, span_us, senders, ctx),
        // Closed loop only: see `drive::export_loop`.
        Workload::BulkExport => Schedule { ops: Vec::new() },
    }
}

/// The part of a run's `--seconds` over which its schedule is due, µs.
pub fn span_us(workload: Workload, seconds: u64) -> u64 {
    let total = seconds * 1_000_000;
    match workload {
        // Sessions must finish their interactions inside the run.
        Workload::Dashboard => {
            let slot_us = (1e6 / workload::SESSION_RATE) as u64;
            total - (workload::interaction_slots() + 1) * slot_us
        }
        Workload::BulkExport => total,
    }
}

fn run_untraced(args: &Args, exe: &Path) -> Result<(Metrics, bool, usize, usize), String> {
    let dir = RunDir::create()?;
    let city = City::generate(args.seed, &dir)?;
    eprintln!("{}", host_facts(args, &city));
    let (server, setup_times) = start_measured(exe, &city)?;
    let senders = sender_count();
    let ctx = context(server.addr, &city, args.seed)?;
    let span_us = span_us(args.workload, args.seconds);
    let schedule = schedule_for(args.workload, args.seed, span_us, senders, &ctx);

    let outcomes = drive::open_loop(server.addr, &schedule, senders);
    let exports = if args.workload == Workload::BulkExport {
        drive::export_loop(server.addr, span_us, 3)
    } else {
        Vec::new()
    };
    let rss_mb = server.peak_rss_mb()?;
    drop(server);

    // Correctness: byte-compare against the same program in-process.
    let gets: Vec<(&str, &drive::Outcome)> = schedule
        .ops
        .iter()
        .zip(&outcomes)
        .map(|(op, o)| (op.path.as_str(), o))
        .collect();
    let problems = check::gets_match_in_process(&city.tsv, &gets, &exports)?;
    let summary = report::summarize(&report::Measured {
        workload: args.workload,
        schedule: &schedule,
        outcomes: &outcomes,
        exports: &exports,
        setup_times: &setup_times,
        rss_mb,
    });
    eprint!("{}", summary.text);
    for p in problems.iter().take(5) {
        eprintln!("check failed: {p}");
    }
    if problems.len() > 5 {
        eprintln!("... {} failed checks in all", problems.len());
    }
    let attempted = summary.attempted;
    let failed = summary.failed + problems.len();
    let correct = failed == 0 && summary.valid;
    Ok((summary.metrics, correct, attempted, failed))
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let (metrics, correct, attempted, failed) = if args.trace {
        ledger::run_traced(&args, &exe)?
    } else {
        run_untraced(&args, &exe)?
    };
    let names = if args.trace {
        report::per_layer_names()
    } else {
        report::end_to_end_names()
    };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics, &names)?
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("serve") {
        let value = |flag: &str| {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1))
                .map(PathBuf::from)
        };
        match value("--tsv") {
            Some(tsv) => server::serve(&tsv),
            None => Err("serve needs --tsv FILE".to_owned()),
        }
    } else {
        run(&argv)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("crowdweb-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
