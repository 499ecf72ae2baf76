//! Machine-readable performance snapshot (`BENCH_10.json`) and the
//! perf-trend gate over the whole `BENCH_*.json` series.
//!
//! ```text
//! cargo run --release -p asr-bench --bin perf_snapshot -- [--out FILE]
//! cargo run --release -p asr-bench --bin perf_snapshot -- --check-physical-load
//! cargo run --release -p asr-bench --bin perf_snapshot -- --trend [--dir D] [--tolerance T]
//! ```
//!
//! Captures the repository's perf trajectory in one JSON file:
//!
//! * wall-clock of the `fig6` and `fig11` figure runners;
//! * *measured* page I/O of the workloads behind those figures, executed
//!   on down-scaled generated databases (whole-chain backward queries for
//!   fig6, `ins_3` updates for fig11), including the batched-probe
//!   counters (`batch_probes`, `batch_pages_saved`);
//! * the crash-recovery comparison: marginal page I/O and wall-clock of
//!   replaying a small WAL tail through incremental maintenance vs.
//!   rebuilding the ASR from scratch, plus loading a v2 checkpoint
//!   (physical page-image restore) vs. the v1 rebuild-on-load pipeline
//!   (`asr_bench::recovery`);
//! * the replication comparison: shipped bytes/pages of a warm replica
//!   catching up on a delta vs. a cold replica bootstrapping from the
//!   checkpoint — the log-shipping analogue of replay-vs-rebuild;
//! * the delta-checkpoint comparison: pages a copy-on-write delta
//!   checkpoint writes vs. an equivalent full checkpoint, and bytes a
//!   delta re-bootstrap (`Need::DeltaBootstrap`) ships vs. a full
//!   bootstrap of the same state;
//! * the PITR cost curve: `recover_to_lsn` priced at bounds 0–100% of
//!   the tip, showing replay cost growing with bound distance from the
//!   covering checkpoint;
//! * the concurrency comparison (`asr_bench::concurrency`): group-commit
//!   fsyncs per committed op at session counts 1/2/4/8 (deterministic:
//!   one modeled fsync per full group, so the ratio is `1/sessions`),
//!   and snapshot-isolated reader throughput at reader counts 1/2/4/8
//!   racing a live committing writer (row counts deterministic,
//!   wall/qps informational);
//! * the serving comparison (`asr_bench::serving`): scatter-gather
//!   span-query throughput at shard counts 1/2/4 with the fleet's merged
//!   and hottest-shard page accounting (deterministic, gated), plus a
//!   seeded chaos leg pricing the hostile-wire retry bill and the
//!   p50/p95/p99 per-query latency tail (host-dependent, informational),
//!   plus an availability leg pricing a shard outage: queries answered
//!   degraded (flagged, subset of the healthy answer) while the primary
//!   keeps committing, the self-healing reseed's shipping bill in both
//!   bootstrap modes (delta vs full), and coordinator ticks to recover;
//! * wall-clock of the full figure suite at `--jobs 1` vs `--jobs 4`,
//!   alongside the machine's available parallelism — on a single-CPU
//!   container the worker pool cannot beat the sequential run, so the
//!   speedup is reported as `null` with a note instead of a misleading
//!   sub-1.0 number (the `suite_io` jobs-invariance is still checked).
//!
//! `--check-physical-load` runs only the recovery comparison and exits
//! non-zero if physically loading the v2 checkpoint does not beat the
//! rebuild-on-load pipeline in page cost — a CI perf gate.
//!
//! `--trend` parses every `BENCH_*.json` under `--dir` (default `.`),
//! prints the per-metric trajectory table, and exits non-zero if any
//! deterministic metric (page counts, shipped bytes, page ratios — never
//! wall-clock) regressed past `--tolerance` (default 0.10) in the newest
//! snapshot.  This is the regression gate CI runs over bench history.

use std::time::Instant;

use asr_bench::concurrency::{measure_concurrency, ConcurrencyBench, ReadPoint, WritePoint};
use asr_bench::experiments::{registry, run_entries, run_entries_sharded};
use asr_bench::recovery::{
    measure_delta_checkpoint, measure_pitr, measure_recovery, measure_replication,
    DeltaCheckpointBench, PhaseCost, PitrBench, RecoveryBench, ReplicationBench, ShipCost,
};
use asr_bench::serving::{measure_serving, ServingBench, ServingPoint};
use asr_core::{AsrConfig, Decomposition, Extension};
use asr_costmodel::{profiles, Mix, Op};
use asr_workload::{execute_trace, generate, generate_trace, scale_profile, GeneratorSpec};

const SCALE: f64 = 5.0;
const QUERY_COUNT: usize = 30;
const UPDATE_COUNT: usize = 20;

struct MeasuredIo {
    reads: u64,
    writes: u64,
    batch_probes: u64,
    batch_pages_saved: u64,
}

// The recovery comparison runs at full fig6 scale: the rebuild's extent
// rescans must dwarf the per-record replay cost for the contrast to be
// visible, and the full population is still sub-second to stage.
const RECOVERY_SCALE: f64 = 1.0;
const RECOVERY_DELTA_OPS: usize = 16;

// The PITR curve needs a longer delta so the five bounds land on
// meaningfully different replay prefixes (and several sealed segments).
const PITR_DELTA_OPS: usize = 64;

fn main() {
    let mut out_path = String::from("BENCH_10.json");
    let mut check_only = false;
    let mut trend_mode = false;
    let mut trend_dir = String::from(".");
    let mut tolerance = 0.10f64;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => {
                out_path = iter.next().unwrap_or_else(|| {
                    eprintln!("--out needs a file argument");
                    std::process::exit(2);
                });
            }
            "--check-physical-load" => check_only = true,
            "--trend" => trend_mode = true,
            "--dir" => {
                trend_dir = iter.next().unwrap_or_else(|| {
                    eprintln!("--dir needs a directory argument");
                    std::process::exit(2);
                });
            }
            "--tolerance" => {
                tolerance = iter.next().and_then(|t| t.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--tolerance needs a fractional argument, e.g. 0.10");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown argument `{other}` — usage: \
                     perf_snapshot [--out FILE] [--check-physical-load] \
                     [--trend [--dir D] [--tolerance T]]"
                );
                std::process::exit(2);
            }
        }
    }

    if trend_mode {
        let report = asr_bench::trend::run_trend(std::path::Path::new(&trend_dir), tolerance)
            .unwrap_or_else(|e| {
                eprintln!("trend analysis failed: {e}");
                std::process::exit(2);
            });
        print!("{}", report.render(tolerance));
        if !report.regressions.is_empty() {
            std::process::exit(1);
        }
        return;
    }

    if check_only {
        eprintln!("perf gate: physical checkpoint load vs rebuild-on-load ...");
        let b = measure_recovery(RECOVERY_SCALE, RECOVERY_DELTA_OPS);
        let physical = b.checkpoint_load.pages();
        let rebuild = b.rebuild_load.pages();
        println!(
            "physical load: {physical} pages ({:.2} ms); rebuild-on-load: {rebuild} pages \
             ({:.2} ms)",
            b.checkpoint_load.wall_ms, b.rebuild_load.wall_ms
        );
        if physical >= rebuild {
            eprintln!("FAIL: physical checkpoint load must undercut the v1 rebuild pipeline");
            std::process::exit(1);
        }
        println!(
            "OK: physical load undercuts rebuild by {} pages",
            rebuild - physical
        );
        return;
    }

    let all = registry();
    let figure = |id: &str| {
        all.iter()
            .find(|(eid, _, _)| *eid == id)
            .copied()
            .unwrap_or_else(|| panic!("{id} is registered"))
    };

    eprintln!("timing fig6 + fig11 runners ...");
    let fig6_ms = run_entries(&[figure("fig6")], 1)[0].1;
    let fig11_ms = run_entries(&[figure("fig11")], 1)[0].1;

    eprintln!("measuring fig6 backward-query workload ...");
    let fig6_io = measure_fig6_queries();
    eprintln!("measuring fig11 ins_3 workload ...");
    let fig11_io = measure_fig11_updates();

    eprintln!("measuring crash recovery: WAL replay vs full rebuild ...");
    let recovery = measure_recovery(RECOVERY_SCALE, RECOVERY_DELTA_OPS);

    eprintln!("measuring replication: warm catch-up vs cold bootstrap ...");
    let replication = measure_replication(RECOVERY_SCALE, RECOVERY_DELTA_OPS);

    eprintln!("measuring delta checkpoints: delta vs full write and re-seed ...");
    let delta_ckpt = measure_delta_checkpoint(RECOVERY_SCALE, RECOVERY_DELTA_OPS);

    eprintln!("measuring PITR: replay cost vs bound distance ...");
    let pitr = measure_pitr(RECOVERY_SCALE, PITR_DELTA_OPS);

    eprintln!("measuring serving: scatter-gather throughput at 1/2/4 shards + chaos leg ...");
    let serving = measure_serving();

    eprintln!("measuring concurrency: group-commit fsyncs/op + snapshot readers at 1/2/4/8 ...");
    let concurrency = measure_concurrency();

    eprintln!("timing the full suite, --jobs 1 ...");
    let jobs1 = Instant::now();
    let (_, suite_io1) = run_entries_sharded(&all, 1);
    let jobs1_ms = jobs1.elapsed().as_secs_f64() * 1e3;
    eprintln!("timing the full suite, --jobs 4 ...");
    let jobs4 = Instant::now();
    let (_, suite_io4) = run_entries_sharded(&all, 4);
    let jobs4_ms = jobs4.elapsed().as_secs_f64() * 1e3;
    // The sharded counters are a correctness claim, not just a number:
    // the per-worker shards merged on scope join must reconstruct the
    // exact sequential totals.
    assert_eq!(
        suite_io1, suite_io4,
        "sharded I/O aggregate must not depend on --jobs"
    );

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // On a single-CPU container the jobs-4 wall comparison measures
    // scheduler overhead, not the worker pool: report `null` with a note
    // rather than a misleading sub-1.0 speedup.
    let speedup = if cpus < 2 {
        format!(
            "\"speedup_jobs4\": null,\n    \"speedup_note\": \"cpus={cpus}: jobs-4 wall \
             comparison skipped on a single-CPU machine (suite_io invariance still checked)\""
        )
    } else {
        format!("\"speedup_jobs4\": {:.2}", jobs1_ms / jobs4_ms.max(1e-9))
    };
    let json = format!(
        "{{\n  \"schema\": \"asr-bench-snapshot/9\",\n  \"figures\": {{\n    \"fig6\": {{\n      \
         \"wall_ms\": {fig6_ms:.1},\n      \"workload\": \"Q_{{0,n}}(bw) x{QUERY_COUNT} on the \
         1/{SCALE:.0}-scale profile\",\n      \"measured\": {}\n    }},\n    \"fig11\": {{\n      \
         \"wall_ms\": {fig11_ms:.1},\n      \"workload\": \"ins_3 x{UPDATE_COUNT} on the \
         1/{SCALE:.0}-scale profile\",\n      \"measured\": {}\n    }}\n  }},\n  \
         \"recovery\": {},\n  \"replication\": {},\n  \"delta_checkpoint\": {},\n  \
         \"pitr\": {},\n  \"serving\": {},\n  \"concurrency\": {},\n  \"all\": {{\n    \
         \"figures\": {},\n    \"cpus\": {cpus},\n    \"jobs1_wall_ms\": {jobs1_ms:.1},\n    \
         \"jobs4_wall_ms\": {jobs4_ms:.1},\n    {speedup},\n    \
         \"suite_io\": {{ \"page_reads\": {}, \"page_writes\": {}, \"buffer_hits\": {}, \
         \"jobs_invariant\": true }}\n  }}\n}}\n",
        io_json(&fig6_io),
        io_json(&fig11_io),
        recovery_json(&recovery),
        replication_json(&replication),
        delta_checkpoint_json(&delta_ckpt),
        pitr_json(&pitr),
        serving_json(&serving),
        concurrency_json(&concurrency, cpus),
        all.len(),
        suite_io1.reads,
        suite_io1.writes,
        suite_io1.buffer_hits,
    );
    std::fs::write(&out_path, json).unwrap_or_else(|e| {
        eprintln!("could not write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("perf snapshot written to {out_path}");
}

fn phase_json(p: &PhaseCost) -> String {
    format!(
        "{{ \"wall_ms\": {:.2}, \"page_reads\": {}, \"page_writes\": {} }}",
        p.wall_ms, p.page_reads, p.page_writes
    )
}

fn recovery_json(b: &RecoveryBench) -> String {
    format!(
        "{{\n    \"workload\": \"ins_3 x{RECOVERY_DELTA_OPS} delta on the 1/{RECOVERY_SCALE:.0}-scale \
         fig6 profile, full/binary ASR\",\n    \"delta_ops\": {},\n    \
         \"records_replayed\": {},\n    \"checkpoint_load\": {},\n    \"rebuild_load\": {},\n    \
         \"wal_replay\": {},\n    \
         \"full_rebuild\": {},\n    \"replay_rebuild_page_ratio\": {:.4},\n    \
         \"physical_rebuild_page_ratio\": {:.4}\n  }}",
        b.delta_ops,
        b.records_replayed,
        phase_json(&b.checkpoint_load),
        phase_json(&b.rebuild_load),
        phase_json(&b.wal_replay),
        phase_json(&b.full_rebuild),
        b.wal_replay.pages() as f64 / b.full_rebuild.pages().max(1) as f64,
        b.checkpoint_load.pages() as f64 / b.rebuild_load.pages().max(1) as f64,
    )
}

fn ship_json(c: &ShipCost) -> String {
    format!(
        "{{ \"wall_ms\": {:.2}, \"bytes_shipped\": {}, \"pages\": {}, \"deliveries\": {}, \
         \"records_applied\": {} }}",
        c.wall_ms, c.bytes_shipped, c.pages, c.deliveries, c.records_applied
    )
}

fn replication_json(b: &ReplicationBench) -> String {
    format!(
        "{{\n    \"workload\": \"ins_3 x{RECOVERY_DELTA_OPS} delta on the \
         1/{RECOVERY_SCALE:.0}-scale fig6 profile, lossless channel\",\n    \
         \"delta_ops\": {},\n    \"catchup\": {},\n    \"bootstrap\": {},\n    \
         \"catchup_bootstrap_page_ratio\": {:.4}\n  }}",
        b.delta_ops,
        ship_json(&b.catchup),
        ship_json(&b.bootstrap),
        b.catchup.pages as f64 / b.bootstrap.pages.max(1) as f64,
    )
}

fn delta_checkpoint_json(b: &DeltaCheckpointBench) -> String {
    format!(
        "{{\n    \"workload\": \"ins_3 x{RECOVERY_DELTA_OPS} delta on the \
         1/{RECOVERY_SCALE:.0}-scale fig6 profile, delta checkpoint on the create-time base\",\n    \
         \"delta_ops\": {},\n    \"chain_depth\": {},\n    \"delta_reseeds\": {},\n    \
         \"checkpoint\": {{ \"wall_ms\": {:.2}, \"delta\": {{ \"page_writes\": {}, \
         \"bytes\": {} }}, \"full\": {{ \"page_writes\": {} }}, \
         \"delta_full_page_ratio\": {:.4} }},\n    \
         \"bootstrap\": {{ \"delta\": {}, \"full\": {}, \
         \"delta_full_page_ratio\": {:.4} }}\n  }}",
        b.delta_ops,
        b.chain_depth,
        b.delta_reseeds,
        b.checkpoint_wall_ms,
        b.delta_pages,
        b.delta_bytes,
        b.full_pages,
        b.delta_pages as f64 / b.full_pages.max(1) as f64,
        ship_json(&b.delta_bootstrap),
        ship_json(&b.full_bootstrap),
        b.delta_bootstrap.pages as f64 / b.full_bootstrap.pages.max(1) as f64,
    )
}

fn pitr_json(b: &PitrBench) -> String {
    let points = b
        .points
        .iter()
        .map(|p| {
            format!(
                "      {{ \"bound\": {}, \"wall_ms\": {:.2}, \"pages_read\": {}, \
                 \"records_replayed\": {}, \"segments_read\": {} }}",
                p.bound, p.wall_ms, p.pages_read, p.records_replayed, p.segments_read
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n    \"workload\": \"ins_3 x{PITR_DELTA_OPS} delta on the \
         1/{RECOVERY_SCALE:.0}-scale fig6 profile, 192-byte segment threshold\",\n    \
         \"tip_lsn\": {},\n    \"points\": [\n{points}\n    ]\n  }}",
        b.tip,
    )
}

fn serving_point_json(p: &ServingPoint) -> String {
    // `pages`-named leaves are deterministic (exact page simulation,
    // lossless links) and hence trend-gated; wall/qps are informational.
    format!(
        "      {{ \"shards\": {}, \"queries\": {}, \"rows\": {}, \"wall_ms\": {:.2}, \
         \"qps\": {:.0}, \"merged\": {{ \"pages\": {} }}, \"hot_shard\": {{ \"pages\": {} }} }}",
        p.shards, p.queries, p.rows, p.wall_ms, p.qps, p.merged_pages, p.hot_shard_pages
    )
}

fn reseed_cost_json(c: &asr_bench::serving::ReseedCost) -> String {
    // `deliveries`/`bytes_shipped`/`pages` are deterministic (lossless
    // reseed links, exact page model) and trend-gated.
    format!(
        "{{ \"deliveries\": {}, \"bytes_shipped\": {}, \"pages\": {}, \
         \"ticks_to_recover\": {} }}",
        c.deliveries, c.bytes, c.pages, c.ticks_to_recover
    )
}

fn serving_json(b: &ServingBench) -> String {
    let points = b
        .points
        .iter()
        .map(serving_point_json)
        .collect::<Vec<_>>()
        .join(",\n");
    let c = &b.chaos;
    let a = &b.availability;
    format!(
        "{{\n    \"workload\": \"full-path fw+bw span scatter-gather on a 48/96/192/384 chain, \
         full/binary ASR, fleet seeded via replication\",\n    \"points\": [\n{points}\n    ],\n    \
         \"chaos\": {{ \"seed\": {}, \"shards\": 2, \"queries\": {}, \"retries\": {}, \
         \"injected_faults\": {}, \"latency_ms\": {{ \"p50\": {:.3}, \"p95\": {:.3}, \
         \"p99\": {:.3} }} }},\n    \
         \"availability\": {{ \"shards\": {}, \"outage_queries\": {}, \"degraded_queries\": {}, \
         \"degraded_rows\": {}, \"healthy_rows\": {}, \"reseed\": {{ \"delta\": {}, \
         \"full\": {}, \"delta_full_page_ratio\": {:.4} }} }}\n  }}",
        c.seed,
        c.queries,
        c.retries,
        c.injected,
        c.p50_ms,
        c.p95_ms,
        c.p99_ms,
        a.shards,
        a.outage_queries,
        a.degraded_queries,
        a.degraded_rows,
        a.healthy_rows,
        reseed_cost_json(&a.delta_reseed),
        reseed_cost_json(&a.full_reseed),
        a.delta_reseed.pages as f64 / a.full_reseed.pages.max(1) as f64,
    )
}

fn write_point_json(p: &WritePoint) -> String {
    // `fsyncs` and `fsyncs_per_op` are deterministic (one modeled fsync
    // per full group) and trend-gated; wall-clock is informational.
    format!(
        "      {{ \"sessions\": {}, \"commits\": {}, \"records\": {}, \"fsyncs\": {}, \
         \"fsyncs_per_op\": {:.4}, \"wall_ms\": {:.2} }}",
        p.sessions,
        p.commits,
        p.records,
        p.fsyncs,
        p.fsyncs_per_op(),
        p.wall_ms
    )
}

fn read_point_json(p: &ReadPoint, cpus: usize) -> String {
    // Row totals are deterministic (every reader answers from the same
    // pinned epoch); wall/qps are host-dependent.  On a single-CPU
    // container aggregate qps cannot scale with reader count, so it is
    // reported as `null` there — the same honesty rule as
    // `speedup_jobs4`.
    let qps = if cpus < 2 {
        "null".to_string()
    } else {
        format!("{:.0}", p.qps)
    };
    format!(
        "      {{ \"readers\": {}, \"queries\": {}, \"rows\": {}, \"writer_commits\": {}, \
         \"wall_ms\": {:.2}, \"qps\": {qps} }}",
        p.readers, p.queries, p.rows, p.writer_commits, p.wall_ms
    )
}

fn concurrency_json(b: &ConcurrencyBench, cpus: usize) -> String {
    let write = b
        .write_points
        .iter()
        .map(write_point_json)
        .collect::<Vec<_>>()
        .join(",\n");
    let read = b
        .read_points
        .iter()
        .map(|p| read_point_json(p, cpus))
        .collect::<Vec<_>>()
        .join(",\n");
    // `pages_copied_per_publish` is deterministic (a fixed script of
    // pinned writes) but reported, not gated.
    format!(
        "{{\n    \"workload\": \"group-commit ins-leaf commits and pinned-snapshot span sweeps \
         on the 12/24/48/96 chain, full/binary ASR, sessions/readers 1-8\",\n    \
         \"write\": [\n{write}\n    ],\n    \"read\": [\n{read}\n    ],\n    \
         \"pages_copied_per_publish\": {:.4}\n  }}",
        b.pages_copied_per_publish
    )
}

fn io_json(io: &MeasuredIo) -> String {
    format!(
        "{{ \"page_reads\": {}, \"page_writes\": {}, \"batch_probes\": {}, \
         \"batch_pages_saved\": {} }}",
        io.reads, io.writes, io.batch_probes, io.batch_pages_saved
    )
}

/// Whole-chain backward queries through a full/binary ASR on the scaled
/// fig6 population — the supported-query regime Figure 6 prices.
fn measure_fig6_queries() -> MeasuredIo {
    let scaled = scale_profile(&profiles::fig6_profile().profile, SCALE);
    let n = scaled.n;
    let spec = GeneratorSpec::from_profile(&scaled, 1.0);
    let mut g = generate(&spec, 1);
    let m = g.path.arity(false) - 1;
    let id =
        g.db.create_asr(
            g.path.clone(),
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::binary(m),
                keep_set_oids: false,
            },
        )
        .expect("ASR builds");
    let mix = Mix::new(vec![(1.0, Op::bw(0, n))], vec![], 0.0);
    let trace = generate_trace(&g, &mix, QUERY_COUNT, 2);
    g.db.stats().reset();
    let before = g.db.stats().snapshot();
    let path = g.path.clone();
    execute_trace(&mut g.db, Some(id), &path, &trace);
    delta(&before, &g.db.stats().snapshot())
}

/// `ins_3` updates maintaining a full/binary ASR on the scaled fig11
/// population — the update regime Figure 11 prices.
fn measure_fig11_updates() -> MeasuredIo {
    let scaled = scale_profile(&profiles::fig11_profile().profile, SCALE);
    let spec = GeneratorSpec::from_profile(&scaled, 1.0);
    let mut g = generate(&spec, 3);
    let m = g.path.arity(false) - 1;
    let id =
        g.db.create_asr(
            g.path.clone(),
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::binary(m),
                keep_set_oids: false,
            },
        )
        .expect("ASR builds");
    let mix = Mix::new(vec![], vec![(1.0, Op::ins(3))], 1.0);
    let trace = generate_trace(&g, &mix, UPDATE_COUNT, 4);
    g.db.stats().reset();
    let before = g.db.stats().snapshot();
    let path = g.path.clone();
    execute_trace(&mut g.db, Some(id), &path, &trace);
    delta(&before, &g.db.stats().snapshot())
}

fn delta(before: &asr_pagesim::IoSnapshot, after: &asr_pagesim::IoSnapshot) -> MeasuredIo {
    MeasuredIo {
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
        batch_probes: after.batch_probes - before.batch_probes,
        batch_pages_saved: after.batch_pages_saved - before.batch_pages_saved,
    }
}
