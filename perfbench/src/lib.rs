//! Front-door benchmark for the access-support workspace.
//!
//! Every workload is a client of the serving front door: requests go
//! `WireClient` → `NetServer` → (`ShardedDatabase` | durable primary) →
//! `asr_oql` → ASR query / maintenance / snapshot → `pagesim`.  The
//! untraced run reports the end-to-end metrics in
//! [`common::END_TO_END`]; the traced run replays the same op stream at
//! successively lower entry points and reports the per-layer ledger in
//! [`common::PER_LAYER`].
//!
//! Workloads:
//!
//! * [`span_read`] — read-only fig14 query mix over a 2-shard fleet.
//! * [`update_mix`] — OQL reads beside `ins_3` writes on the durable
//!   primary, with delta checkpoints and a crash-restart.
//! * [`mvcc_churn`] — snapshot-served partition probes racing `ins_2`
//!   writes through the parallel session pump.

pub mod common;
pub mod model;
pub mod mvcc_churn;
pub mod restarts;
pub mod rungs;
pub mod setup;
pub mod span_read;
pub mod trace;
pub mod update_mix;

use std::path::PathBuf;

use asr_durable::MemStorage;

pub use common::{Outcome, END_TO_END, PER_LAYER};

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["span_read", "update_mix", "mvcc_churn"];

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: String,
    /// Seed for the population and the op stream.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer ledger) instead of the end-to-end run.
    pub trace: bool,
    /// Population divisor override (the self-test runs a miniature).
    pub scale_div: Option<f64>,
    /// Where the traced run writes its span JSONL.
    pub trace_dir: PathBuf,
    /// The benchmark executable, which the restart samples run as a
    /// child process (see [`restarts`]).
    pub exe: PathBuf,
}

impl Config {
    /// Defaults for `workload` and `seed`.
    pub fn new(workload: &str, seed: u64) -> Self {
        Config {
            workload: workload.to_string(),
            seed,
            seconds: 10.0,
            trace: false,
            scale_div: None,
            trace_dir: PathBuf::from("perfbench/target/perfbench-traces"),
            exe: std::env::current_exe().unwrap_or_default(),
        }
    }
}

/// Run one workload and return its checked outcome.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.note(format!(
        "workload {} seed {} cpus {cpus}",
        cfg.workload, cfg.seed
    ));
    match cfg.workload.as_str() {
        "span_read" => span_read::run(cfg, &mut out),
        "update_mix" => update_mix::run(cfg, &mut out),
        "mvcc_churn" => mvcc_churn::run(cfg, &mut out),
        other => return Err(format!("unknown workload {other:?}")),
    }
    let catalog = if cfg.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in catalog {
        let v = *out.metrics.entry(name.to_string()).or_insert(0.0);
        // End-to-end metrics are never 0 on a working system; a layer a
        // workload does not exercise reports 0.
        if !v.is_finite() || (!cfg.trace && v <= 0.0) {
            let failures: Vec<&str> = out
                .notes
                .iter()
                .filter(|n| n.starts_with("FAILED"))
                .map(String::as_str)
                .collect();
            return Err(format!("metric {name} is {v}; {}", failures.join("; ")));
        }
    }
    out.metrics
        .retain(|name, _| catalog.iter().any(|(n, _)| n == name));
    if out.attempted == 0 {
        return Err("no request was attempted".to_string());
    }
    Ok(out)
}

/// The storage the workload's restart samples reopen, with the number
/// of WAL records each reopen must replay.
pub fn restart_storage(cfg: &Config, out: &mut Outcome) -> Result<(MemStorage, u64), String> {
    match cfg.workload.as_str() {
        "span_read" => Ok(span_read::restart_storage(cfg)),
        "update_mix" => Ok(update_mix::restart_storage(cfg, out)),
        "mvcc_churn" => Ok(mvcc_churn::restart_storage(cfg, out)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric of the run's catalog with its unit.
pub fn result_json(cfg: &Config, out: &Outcome) -> String {
    let catalog = if cfg.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                out.metrics[*name]
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}
