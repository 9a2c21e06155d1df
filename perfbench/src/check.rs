//! Correctness checks: the server's answers against the same program
//! run in-process on the same input.

use crate::drive::{body_hash, Outcome};
use crate::server::ingest_config;
use crate::workload::EXPORT_PATH;
use crowdweb_server::{AppState, Request, Router};
use std::collections::BTreeMap;
use std::path::Path;

/// The program in-process: state built like the server's, and its
/// router.
pub struct InProcess {
    /// The platform state.
    pub state: AppState,
    /// The full route table.
    pub router: Router<AppState>,
}

impl InProcess {
    /// Builds the state from `tsv` exactly as the server process does.
    pub fn build(tsv: &Path) -> Result<InProcess, String> {
        let dataset = crowdweb_dataset::tsv::load_path(tsv).map_err(|e| e.to_string())?;
        let state = AppState::with_config(dataset, ingest_config()).map_err(|e| e.to_string())?;
        Ok(InProcess {
            state,
            router: crowdweb_server::api::build_router(),
        })
    }

    /// The body `GET path` answers with, as the client decodes it.
    pub fn get_body(&self, path: &str) -> Result<Vec<u8>, String> {
        let request = Request::read_from(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
            .map_err(|e| format!("GET {path}: {e}"))?;
        let (response, _) = self.router.dispatch(&self.state, &request);
        let body = response.into_body_bytes();
        Ok(String::from_utf8_lossy(&body).into_owned().into_bytes())
    }
}

/// Byte-compares every successful GET (path, outcome) and every export
/// with an in-process dispatch on state built from the same TSV. No
/// response carries a wall-clock field on these routes, so the whole
/// body is compared. Returns one line per mismatching response.
pub fn gets_match_in_process(
    tsv: &Path,
    gets: &[(&str, &Outcome)],
    exports: &[Outcome],
) -> Result<Vec<String>, String> {
    let program = InProcess::build(tsv)?;
    let mut expected: BTreeMap<&str, u64> = BTreeMap::new();
    let mut problems = Vec::new();
    for &(path, outcome) in gets {
        if !outcome.ok() {
            continue;
        }
        let want = match expected.get(path) {
            Some(&h) => h,
            None => {
                let body = program.get_body(path)?;
                let h = body_hash(&body);
                expected.insert(path, h);
                h
            }
        };
        if outcome.body_hash != want {
            problems.push(format!(
                "GET {path}: body differs from the in-process answer"
            ));
        }
    }
    if !exports.is_empty() {
        let body = program.get_body(EXPORT_PATH)?;
        let want = body_hash(&body);
        let rows = program.state.snapshot().dataset().checkins().len();
        for (i, e) in exports.iter().enumerate().filter(|(_, e)| e.ok()) {
            if e.lines != rows {
                problems.push(format!(
                    "export {i}: {} lines for {rows} check-ins",
                    e.lines
                ));
            } else if e.body_hash != want {
                problems.push(format!("export {i}: differs from the in-process drain"));
            }
        }
    }
    Ok(problems)
}
