//! Concurrency micro-benchmark: the MVCC/group-commit section of the
//! perf snapshot.
//!
//! Two legs, both on the generated chain population:
//!
//! * **write leg** — a WAL-backed primary with the group-commit
//!   pipeline on, driven by 1/2/4/8 interleaved sessions each applying
//!   a maintained update and announcing its commit point.  The metric
//!   that matters is *fsyncs per committed op*: with `S` sessions per
//!   group one modeled fsync covers `S` commits, so the ratio is
//!   `1/S` — deterministic, and trend-gated via the `fsyncs` /
//!   `fsyncs_per_op` leaves.
//! * **read leg** — 1/2/4/8 reader threads answering a fixed span-query
//!   script from cloned [`Snapshot`] pins while the owning thread keeps
//!   committing maintained updates and republishing versions.  Row
//!   counts are deterministic (every reader sees exactly the pinned
//!   epoch); aggregate throughput is host-dependent and informational —
//!   on a single-CPU container the wall-clock cannot scale, which the
//!   snapshot reports honestly (`qps` stays informational, never
//!   gated).
//! * **copy-on-write probe** — a fixed script of publish-then-insert
//!   rounds, each insertion landing while its snapshot is still pinned:
//!   `pages_copied_per_publish` is the tree pages those writes copied
//!   (`txn.pages_copied`) per publish — deterministic, reported but not
//!   gated.
//!
//! [`Snapshot`]: asr_core::Snapshot

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use asr_core::{AsrConfig, AsrId, Database, Decomposition, Extension};
use asr_durable::{DurableDatabase, FlushPolicy, MemStorage};
use asr_gom::{Oid, Value};
use asr_workload::{generate, GeneratorSpec};

/// Session/reader counts both legs sweep.
pub const POINTS: [usize; 4] = [1, 2, 4, 8];

/// Commits per write-leg point (divisible by every group target in
/// [`POINTS`], so no point ends with a partial group pending).
pub const WRITE_COMMITS: usize = 64;

/// Span-query sweeps each reader performs over the start sample.
const READ_PASSES: usize = 8;

/// Publish-then-write rounds of the copy-on-write probe.
const COW_ROUNDS: usize = 32;

/// One write-leg point: group-commit cost at a fixed session count.
#[derive(Debug, Clone, Copy)]
pub struct WritePoint {
    /// Sessions per group (the pipeline's flush target).
    pub sessions: usize,
    /// Session commits made durable.
    pub commits: u64,
    /// WAL records those commits carried.
    pub records: u64,
    /// Modeled fsyncs the pipeline performed (deterministic).
    pub fsyncs: u64,
    /// Wall-clock for the whole point (host-dependent).
    pub wall_ms: f64,
}

impl WritePoint {
    /// Fsyncs per committed op — the group-commit win (`1/sessions`).
    pub fn fsyncs_per_op(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.fsyncs as f64 / self.commits as f64
        }
    }
}

/// One read-leg point: snapshot readers racing a committing writer.
#[derive(Debug, Clone, Copy)]
pub struct ReadPoint {
    /// Reader threads.
    pub readers: usize,
    /// Span queries answered across all readers.
    pub queries: u64,
    /// Result cells those queries returned (deterministic: every reader
    /// answers from the same pinned epoch).
    pub rows: u64,
    /// Commits the writer got through while the readers ran.
    pub writer_commits: u64,
    /// Wall-clock from first spawn to last join (host-dependent).
    pub wall_ms: f64,
    /// Aggregate queries per second (host-dependent).
    pub qps: f64,
}

/// The full concurrency benchmark result.
#[derive(Debug, Clone)]
pub struct ConcurrencyBench {
    /// Group-commit cost at session counts 1/2/4/8.
    pub write_points: Vec<WritePoint>,
    /// Snapshot-reader throughput at reader counts 1/2/4/8.
    pub read_points: Vec<ReadPoint>,
    /// Tree pages a write copies per publish while the snapshot is pinned.
    pub pages_copied_per_publish: f64,
}

/// The miniature chain population both legs stage.
struct Staged {
    db: Database,
    asr: AsrId,
    n: usize,
    starts: Vec<Oid>,
    /// Objects one level above the leaves: the owners of the last set.
    owners: Vec<Oid>,
    leaves: Vec<Oid>,
}

fn stage() -> Staged {
    let spec = GeneratorSpec {
        counts: vec![12, 24, 48, 96],
        defined: vec![12, 24, 48],
        fan: vec![2, 2, 2],
        sizes: vec![128, 128, 128, 128],
    };
    let g = generate(&spec, 0xC0C0);
    let n = g.path.arity(false) - 1;
    let mut db = g.db;
    let dotted = g.path.to_string();
    let asr = db
        .create_asr_on(
            &dotted,
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::binary(n),
                keep_set_oids: false,
            },
        )
        .expect("ASR builds");
    const SAMPLE: usize = 16;
    Staged {
        db,
        asr,
        n,
        starts: g.levels[0].iter().copied().take(SAMPLE).collect(),
        owners: g.levels[n - 1].to_vec(),
        leaves: g.levels[n].to_vec(),
    }
}

/// Run the write leg at one session count: `WRITE_COMMITS` maintained
/// updates interleaved across `sessions` sessions, one `submit_commit`
/// per update, group target = session count.
fn measure_write_point(sessions: usize) -> WritePoint {
    let staged = stage();
    let mut durable =
        DurableDatabase::create(MemStorage::new(), staged.db, FlushPolicy::EveryRecord)
            .expect("creates");
    durable.enable_group_commit(sessions);
    let started = Instant::now();
    for k in 0..WRITE_COMMITS {
        // Round-robin across the simulated sessions: each commit is one
        // maintained leaf update (the ASR's last position rewrites).
        let leaf = staged.leaves[k % staged.leaves.len()];
        durable
            .set_attribute(leaf, "Tag", Value::Integer(1000 + k as i64))
            .expect("maintained update");
        durable.submit_commit().expect("commit point");
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let status = durable.group_commit_status().expect("pipeline is on");
    assert_eq!(
        status.pending_sessions, 0,
        "WRITE_COMMITS must divide evenly into groups of {sessions}"
    );
    durable.disable_group_commit().expect("clean teardown");
    WritePoint {
        sessions,
        commits: status.commits,
        records: status.records,
        fsyncs: status.fsyncs,
        wall_ms,
    }
}

/// Run the read leg at one reader count: each reader answers the full
/// span script `READ_PASSES` times from a clone of one pinned snapshot
/// while this thread keeps committing maintained updates and
/// republishing fresh versions.
fn measure_read_point(readers: usize) -> ReadPoint {
    let mut staged = stage();
    let snap = staged.db.snapshot();
    let finished = AtomicUsize::new(0);
    let started = Instant::now();
    let mut writer_commits = 0u64;
    let (queries, rows) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let view = snap.clone();
                let starts = &staged.starts;
                let (asr, n) = (staged.asr, staged.n);
                let finished = &finished;
                scope.spawn(move || {
                    let (mut queries, mut rows) = (0u64, 0u64);
                    for _ in 0..READ_PASSES {
                        for &start in starts {
                            rows += view.forward(asr, 0, n, start).expect("span").len() as u64;
                            queries += 1;
                        }
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    (queries, rows)
                })
            })
            .collect();
        // The writer keeps the version store churning until every
        // reader has drained its script: mutate, publish, repeat.
        while finished.load(Ordering::SeqCst) < readers {
            let leaf = staged.leaves[writer_commits as usize % staged.leaves.len()];
            staged
                .db
                .set_attribute(leaf, "Tag", Value::Integer(-(writer_commits as i64) - 1))
                .expect("maintained update");
            let _ = staged.db.snapshot();
            writer_commits += 1;
            std::thread::yield_now();
        }
        let mut totals = (0u64, 0u64);
        for h in handles {
            let (q, r) = h.join().expect("reader joins");
            totals.0 += q;
            totals.1 += r;
        }
        totals
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    ReadPoint {
        readers,
        queries,
        rows,
        writer_commits,
        wall_ms,
        qps: queries as f64 / (wall_ms / 1e3).max(1e-9),
    }
}

/// The copy-on-write probe: `COW_ROUNDS` rounds of publish, then one
/// maintained insertion of a fresh leaf into the last set of the path
/// while that snapshot is still pinned.  Returns the tree pages the
/// insertions copied per publish.
fn measure_pages_copied_per_publish() -> f64 {
    let mut staged = stage();
    let (leaf_type, attr) = (format!("T{}", staged.n), format!("A{}", staged.n));
    for k in 0..COW_ROUNDS {
        let pinned = staged.db.snapshot();
        let leaf = staged.db.instantiate(&leaf_type).expect("leaf type");
        let owner = staged.owners[k % staged.owners.len()];
        let inserted = staged
            .db
            .insert_into_attr_set(owner, &attr, Value::Ref(leaf))
            .expect("maintained insertion");
        assert!(inserted, "a fresh leaf is a new set member");
        drop(pinned);
    }
    // Copies are reported at the next publish.
    let _ = staged.db.snapshot();
    staged.db.tracer().metrics().counter("txn.pages_copied") as f64 / COW_ROUNDS as f64
}

/// Measure both legs at every point, plus the copy-on-write probe.
pub fn measure_concurrency() -> ConcurrencyBench {
    ConcurrencyBench {
        write_points: POINTS.iter().map(|&s| measure_write_point(s)).collect(),
        read_points: POINTS.iter().map(|&r| measure_read_point(r)).collect(),
        pages_copied_per_publish: measure_pages_copied_per_publish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_commit_amortizes_fsyncs_across_sessions() {
        let one = measure_write_point(1);
        let four = measure_write_point(4);
        assert_eq!(one.commits, WRITE_COMMITS as u64);
        assert_eq!(four.commits, WRITE_COMMITS as u64);
        assert!((one.fsyncs_per_op() - 1.0).abs() < 1e-9);
        assert!((four.fsyncs_per_op() - 0.25).abs() < 1e-9);
        assert_eq!(four.fsyncs * 4, one.fsyncs);
    }

    #[test]
    fn pinned_writes_copy_a_deterministic_handful_of_pages() {
        let copied = measure_pages_copied_per_publish();
        assert_eq!(copied, measure_pages_copied_per_publish());
        // Each pinned insertion copies at least the leaf it writes in each
        // clustering tree, and far fewer pages than the partitions hold.
        assert!((2.0..64.0).contains(&copied), "{copied}");
    }

    #[test]
    fn readers_scale_rows_deterministically_under_a_live_writer() {
        let one = measure_read_point(1);
        let two = measure_read_point(2);
        // Every reader answers from the same pinned epoch, so per-reader
        // work is bit-identical and totals scale exactly linearly.
        assert_eq!(two.queries, one.queries * 2);
        assert_eq!(two.rows, one.rows * 2);
        assert!(one.rows > 0);
    }
}
