//! The server process: how it is built, started, timed and stopped.
//!
//! The benchmark binary doubles as the server (`serve` subcommand),
//! configured like `crowdweb serve --tsv FILE`. It runs in its own
//! process, started fresh for every measurement.

use crate::drive::TIMEOUT;
use crowdweb_ingest::IngestConfig;
use crowdweb_prep::Preprocessor;
use crowdweb_server::state::{DEFAULT_GRID_SIDE, DEFAULT_MIN_SUPPORT};
use crowdweb_server::{AppState, Server};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Activity filter `crowdweb serve` applies to a loaded TSV.
pub const MIN_ACTIVE_DAYS: usize = 50;

/// The ingest configuration `crowdweb serve` builds its state with
/// (`AppState::build`).
pub fn ingest_config() -> IngestConfig {
    IngestConfig {
        preprocessor: Preprocessor::new().min_active_days(MIN_ACTIVE_DAYS),
        min_support: DEFAULT_MIN_SUPPORT,
        grid_rows: DEFAULT_GRID_SIDE,
        grid_cols: DEFAULT_GRID_SIDE,
        ..IngestConfig::default()
    }
}

/// Body of the `serve` subcommand: load the TSV, build the state, bind
/// an ephemeral loopback port, announce it on stdout and serve forever.
pub fn serve(tsv: &Path) -> Result<(), String> {
    let dataset = crowdweb_dataset::tsv::load_path(tsv).map_err(|e| e.to_string())?;
    let state = AppState::with_config(dataset, ingest_config()).map_err(|e| e.to_string())?;
    let server = Server::bind("127.0.0.1:0", state).map_err(|e| e.to_string())?;
    // The benchmark holds the write end of stdin. When it ends, however
    // it ends, the pipe closes and the server ends with it.
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(0);
    });
    println!("listening {}", server.local_addr());
    server.run();
    Ok(())
}

/// A running server process; killed and reaped on drop.
pub struct ServerProcess {
    child: Child,
    // Held open so the server lives as long as this handle (see `serve`).
    _stdin: ChildStdin,
    // Held open so a late write to stdout never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Seconds from spawn to the first 200 from `/api/v1/healthz`.
    pub setup_s: f64,
}

impl ServerProcess {
    /// Spawns `exe serve` on `tsv` and waits for its first healthy
    /// answer.
    pub fn start(exe: &Path, tsv: &Path) -> Result<ServerProcess, String> {
        let started = Instant::now();
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--tsv")
            .arg(tsv)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening ")
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not announce its address: {line:?}"));
        };
        let mut process = ServerProcess {
            child,
            _stdin: stdin,
            _stdout: stdout,
            addr,
            setup_s: 0.0,
        };
        loop {
            let healthy =
                crowdweb_loadgen::client::request(process.addr, "/api/v1/healthz", None, TIMEOUT)
                    .is_ok_and(|r| r.status == 200);
            if healthy {
                process.setup_s = started.elapsed().as_secs_f64();
                return Ok(process);
            }
            if started.elapsed() > Duration::from_secs(120) {
                return Err("server never became healthy".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident memory of the server so far (`VmHWM`), MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading the server's status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in the server's status".to_owned())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
