//! Turning outcomes into metrics, and the result line.

use crate::drive::Outcome;
use crate::stats;
use crate::workload::{Role, Schedule, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The end-to-end metrics every untraced run prints, with their units,
/// in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("work_ms", "ms"), ("server_rss_mb", "MB")];

/// Names and units of the end-to-end metrics.
pub fn end_to_end_names() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
}

/// Names and units of the per-layer metrics.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    crate::ledger::per_layer_names()
}

/// The last line of stdout: `correct`, `attempted`, `failed` and every
/// metric of `names`, each with its unit.
///
/// # Errors
///
/// A metric of `names` that was not measured, or is not finite.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &Metrics,
    names: &[(String, &'static str)],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let &(value, measured_unit) = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() || measured_unit != *unit {
            return Err(format!(
                "metric {name} = {value} {measured_unit} is not reportable"
            ));
        }
        if i > 0 {
            body.push_str(", ");
        }
        write!(
            body,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    ))
}

/// A run's metrics plus its human-readable account.
pub struct Summary {
    /// The end-to-end metrics.
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed.
    pub failed: usize,
    /// Whether the run measured what it claims: no growing generator lag
    /// over the open-loop phase.
    pub valid: bool,
    /// The account for stderr.
    pub text: String,
}

fn ms_quantile(values: &[f64], q: f64) -> f64 {
    stats::quantile(values, q).unwrap_or(f64::NAN)
}

/// Everything an untraced run measured.
pub struct Measured<'a> {
    /// The workload run.
    pub workload: Workload,
    /// Its open-loop schedule.
    pub schedule: &'a Schedule,
    /// One outcome per op of `schedule`.
    pub outcomes: &'a [Outcome],
    /// The closed-loop exports of `bulk_export`.
    pub exports: &'a [Outcome],
    /// Every server start's setup time, seconds.
    pub setup_times: &'a [f64],
    /// Peak resident memory of the measured server (`VmHWM`), MB.
    pub rss_mb: f64,
}

/// p50 and p99 of `values` for the account, with the p99 marked when
/// fewer than ten samples lie beyond it.
fn p50_p99(name: &str, values: &[f64]) -> String {
    let mark = if stats::tail_is_supported(values.len(), 0.99) {
        ""
    } else {
        " (unsupported)"
    };
    format!(
        "{name}_p50_ms={:.3} {name}_p99_ms={:.3}{mark} over {}",
        ms_quantile(values, 0.5),
        ms_quantile(values, 0.99),
        values.len()
    )
}

/// Builds the end-to-end metrics of an untraced run. `work_ms` is the
/// workload's own unit of work: a dashboard page load, a megabyte of
/// bulk export.
pub fn summarize(m: &Measured<'_>) -> Summary {
    let Measured {
        workload,
        schedule,
        outcomes,
        exports,
        setup_times,
        rss_mb,
    } = *m;
    let mut text = String::new();
    let mut valid = true;
    let mut metrics = Metrics::new();
    let lags: Vec<f64> = outcomes.iter().map(Outcome::lag_us).collect();
    if stats::lag_grows(&lags) {
        valid = false;
        writeln!(
            text,
            "invalid: generator lag grew during the open-loop phase"
        )
        .unwrap();
    }
    let by_role = |role: Role| -> Vec<f64> {
        schedule
            .ops
            .iter()
            .zip(outcomes)
            .filter(|(op, _)| op.role == role)
            .map(|(_, o)| o.latency_ms())
            .collect()
    };

    let work_ms = match workload {
        Workload::Dashboard => {
            // A session's page load ends with the last response of its
            // burst; all of the burst is due at the session's start.
            let mut loads: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
            for (op, o) in schedule.ops.iter().zip(outcomes) {
                if op.role == Role::PageLoad {
                    let e = loads
                        .entry(op.session.unwrap_or(0))
                        .or_insert((op.due_us, 0));
                    e.1 = e.1.max(o.done_us);
                }
            }
            let page: Vec<f64> = loads
                .values()
                .map(|&(due, done)| (done - due) as f64 / 1e3)
                .collect();
            let interactions = by_role(Role::Read);
            let windows: Vec<String> = stats::window_quantiles(&interactions, 0.99, 8)
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect();
            writeln!(
                text,
                "page_load_p50_ms={:.3} page_load_p90_ms={:.3}{} over {} sessions; {} \
                 interaction GETs, p99 per eighth of the run [{}]",
                ms_quantile(&page, 0.5),
                ms_quantile(&page, 0.9),
                if stats::tail_is_supported(page.len(), 0.9) {
                    ""
                } else {
                    " (unsupported)"
                },
                page.len(),
                p50_p99("read", &interactions),
                windows.join(", ")
            )
            .unwrap();
            ms_quantile(&page, 0.5)
        }
        Workload::BulkExport => {
            let bytes: usize = exports.iter().map(|o| o.body_len).sum();
            let times: Vec<f64> = exports.iter().map(Outcome::latency_ms).collect();
            let mb_s = bytes as f64 / 1e6 / (times.iter().sum::<f64>() / 1e3);
            writeln!(
                text,
                "export_mb_s={mb_s:.3} over {} exports of {:.1} MB, export p50 {:.3} ms",
                exports.len(),
                exports.first().map_or(0.0, |o| o.body_len as f64 / 1e6),
                ms_quantile(&times, 0.5)
            )
            .unwrap();
            1e3 / mb_s
        }
    };
    let setup_s = stats::median(setup_times).unwrap_or(f64::NAN);
    metrics.insert("setup_s".into(), (setup_s, "s"));
    metrics.insert("work_ms".into(), (work_ms, "ms"));
    metrics.insert("server_rss_mb".into(), (rss_mb, "MB"));

    let failed = outcomes.iter().chain(exports).filter(|o| !o.ok()).count();
    let attempted = outcomes.len() + exports.len();
    writeln!(
        text,
        "setup_s runs {:?}; server_rss_mb={rss_mb:.1}; send_lag_p99_us={:.0}; \
         error_rate={:.6} ({failed} of {attempted})",
        setup_times,
        stats::quantile(&lags, 0.99).unwrap_or(0.0),
        failed as f64 / attempted.max(1) as f64
    )
    .unwrap();
    for (name, (value, unit)) in &metrics {
        writeln!(text, "{name} = {value} {unit}").unwrap();
    }
    Summary {
        metrics,
        attempted,
        failed,
        valid,
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn listed(key: &str) -> Vec<(String, String)> {
        benchmark_json()
            .get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(|v| v.as_str()).unwrap().to_owned(),
                    m.get("unit").and_then(|v| v.as_str()).unwrap().to_owned(),
                )
            })
            .collect()
    }

    fn as_listed(names: Vec<(String, &'static str)>) -> Vec<(String, String)> {
        names.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
    }

    #[test]
    fn every_metric_in_benchmark_json_is_printed() {
        for (key, names) in [
            ("end_to_end", end_to_end_names()),
            ("per_layer", per_layer_names()),
        ] {
            assert_eq!(
                listed(key),
                as_listed(names.clone()),
                "{key} lists what the run prints"
            );
            let metrics: Metrics = names.iter().map(|(n, u)| (n.clone(), (1.25, *u))).collect();
            let line = result_line(true, 10, 0, &metrics, &names).unwrap();
            let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
            let printed = parsed.get("metrics").and_then(|m| m.as_object()).unwrap();
            assert_eq!(printed.len(), names.len());
            for (name, unit) in &names {
                let m = parsed.get("metrics").unwrap().get(name).unwrap();
                assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(*unit));
                assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(1.25));
            }
        }
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error() {
        let names = end_to_end_names();
        let mut metrics: Metrics = names.iter().map(|(n, u)| (n.clone(), (2.0, *u))).collect();
        metrics.remove("work_ms");
        assert!(result_line(true, 1, 0, &metrics, &names).is_err());
        metrics.insert("work_ms".into(), (f64::NAN, "ms"));
        assert!(result_line(true, 1, 0, &metrics, &names).is_err());
    }

    #[test]
    fn benchmark_json_lists_every_workload() {
        let json = benchmark_json();
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
            .collect();
        let runnable: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, runnable);
    }
}
