//! `update_mix`: OQL reads beside `ins_3` writes on the durable primary.
//!
//! One closed-loop session on the primary's front door
//! (`NetServer::pump_session` over `ServerDb::Durable`, WAL flushing every
//! record into `MemStorage`).  `p_up = 0.5`: reads are OQL `Q_{0,4}(bw)`,
//! writes are `ins_3` (`InsertIntoAttrSet` on `A4`), and a
//! `Checkpoint { delta: true }` follows every 256th write.  The window
//! repeats one seeded epoch of requests, each time on a fresh primary
//! (see [`EPOCH_OPS`]).  After the timed window the last primary takes a
//! full checkpoint, acknowledges a fixed tail of writes, crashes, and is
//! reopened from its storage.

use std::time::Instant;

use asr_core::{AsrConfig, Cell, Database, Decomposition, Extension};
use asr_costmodel::Op;
use asr_durable::{DurableDatabase, MemStorage};
use asr_gom::{Oid, Value};
use asr_net::{RequestBody, ResponseBody, WireClient};
use asr_pagesim::IoSnapshot;

use crate::common::{
    class_overhead, digest, mean, median, peak_rss_mb, reset_peak_rss, Outcome, Rng, Window,
};
use crate::model::{Fidelity, Pricer};
use crate::restarts::Restarts;
use crate::rungs;
use crate::setup::{self, asr_digest, Chain, PrimaryFront, SetupTimes, ARITY, PATH};
use crate::trace::{finish_trace, io_delta, Recorder};
use crate::Config;

/// Population divisor: the fig14 population at 1/10 scale.
pub const SCALE_DIV: f64 = 10.0;

/// A delta checkpoint follows every this many writes.
const CHECKPOINT_EVERY: u64 = 256;

/// Writes acknowledged after the final full checkpoint, before the crash
/// (so recovery replays a fixed tail).
const TAIL_WRITES: usize = 128;

/// Requests per epoch.  Every write grows the ASR, so a window of ever
/// new requests would let a faster host write more and read a larger
/// relation.  The window therefore serves one seeded epoch of requests
/// again and again, each time on a fresh primary built outside the timed
/// window, and ends with an epoch: every epoch is the same work from the
/// same state.  The first epoch's pages make up `pages_per_op`.
const EPOCH_OPS: usize = 4096;

/// Percentile of `read_tail_us` (about 10k reads per run).
const TAIL_P: f64 = 99.0;

/// Ops replayed per rung in the traced run (two checkpoints' worth).
const TRACE_OPS: usize = 1100;

/// Ops per block of the traced run: each rung replays a block on its
/// twin before the next rung takes it, so every twin runs warm and all
/// rungs share the host's drift.
const BLOCK: usize = 64;

/// Answers compared between the live and the recovered primary.
const SAMPLE_TAGS: usize = 64;

/// Set-ups per untraced run (`setup_s` is their median).
const SETUPS: usize = 7;

/// Crash-restarts per untraced run (`recovery_s` is their mean).
const RESTARTS: usize = 11;

const LANE_OPS: u64 = 2;
const LANE_TAIL: u64 = 3;
const LANE_SAMPLE: u64 = 4;

/// One request of the mix.
#[derive(Debug, Clone, Copy)]
pub enum MixOp {
    /// OQL `Q_{0,4}(bw)` on `Tag = k`.
    Read(i64),
    /// `ins_3`: insert `elem` into `owner.A4`.
    Write { owner: Oid, elem: Oid },
    /// `Checkpoint { delta: true }`.
    Checkpoint,
}

impl MixOp {
    /// The wire request.
    pub fn body(self) -> RequestBody {
        match self {
            MixOp::Read(k) => RequestBody::Query(Chain::oql(k)),
            MixOp::Write { owner, elem } => RequestBody::InsertIntoAttrSet {
                owner,
                attr: "A4".to_string(),
                elem: Value::Ref(elem),
            },
            MixOp::Checkpoint => RequestBody::Checkpoint { delta: true },
        }
    }

    /// The op as the cost model prices it (checkpoints are not priced).
    pub fn model_op(self) -> Option<Op> {
        match self {
            MixOp::Read(_) => Some(Op::bw(0, ARITY)),
            MixOp::Write { .. } => Some(Op::ins(3)),
            MixOp::Checkpoint => None,
        }
    }

    /// Op class: 0 read, 1 write, 2 checkpoint.
    pub fn class(self) -> usize {
        match self {
            MixOp::Read(_) => 0,
            MixOp::Write { .. } => 1,
            MixOp::Checkpoint => 2,
        }
    }
}

/// The seeded op stream.  `p_up = 0.5` holds per pair: each pair of
/// requests is one read and one write in random order.  A coin per
/// request would vary the epoch's write count by a few percent from seed
/// to seed, and a write costs about 44 modeled pages against about 5
/// for a read, so `pages_per_op` would follow the coin rather than the
/// population.
pub struct MixStream {
    rng: Rng,
    writes: u64,
    checkpoint_due: bool,
    pending: Option<MixOp>,
}

impl MixStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        MixStream {
            rng: Rng::new(seed, LANE_OPS),
            writes: 0,
            checkpoint_due: false,
            pending: None,
        }
    }

    /// A uniform `ins_3`: `(owner, elem)`.
    pub fn ins3(rng: &mut Rng, chain: &Chain) -> (Oid, Oid) {
        (rng.pick(&chain.owners[3]), rng.pick(&chain.levels[4]))
    }

    /// The next op.
    pub fn next(&mut self, chain: &Chain) -> MixOp {
        if std::mem::take(&mut self.checkpoint_due) {
            return MixOp::Checkpoint;
        }
        let op = self.pending.take().unwrap_or_else(|| {
            let read = MixOp::Read(self.rng.below(chain.tags()) as i64);
            let (owner, elem) = Self::ins3(&mut self.rng, chain);
            let write = MixOp::Write { owner, elem };
            let (first, second) = if self.rng.below(2) == 0 {
                (read, write)
            } else {
                (write, read)
            };
            self.pending = Some(second);
            first
        });
        if let MixOp::Write { .. } = op {
            self.writes += 1;
            self.checkpoint_due = self.writes.is_multiple_of(CHECKPOINT_EVERY);
        }
        op
    }
}

/// Check a response: `Ok(Some(rows digest))` for reads, `Ok(None)` for
/// acknowledged writes and checkpoints.
fn settle(op: MixOp, body: ResponseBody) -> Result<Option<u64>, String> {
    match (op, body) {
        (MixOp::Read(_), ResponseBody::Table { rows, .. }) => Ok(Some(digest(&rows))),
        (MixOp::Write { .. }, ResponseBody::Flag(_)) => Ok(None),
        (MixOp::Checkpoint, ResponseBody::Ok) => Ok(None),
        (op, other) => Err(format!("{op:?}: unexpected response {other:?}")),
    }
}

/// A fresh durable primary behind its front door.
fn serve(cfg: &Config, times: &mut SetupTimes, rec: Option<&Recorder>) -> (PrimaryFront, Chain) {
    let (primary, chain) = setup::primary(cfg, SCALE_DIV, times, rec);
    (PrimaryFront::new(primary), chain)
}

/// A fresh plain twin of the population.
fn twin(cfg: &Config) -> Database {
    setup::population(cfg, SCALE_DIV, &mut SetupTimes::default(), None).0
}

/// The fixed tail of writes acknowledged right before a crash.
fn tail_writes(cfg: &Config, chain: &Chain) -> Vec<(Oid, Oid)> {
    let mut rng = Rng::new(cfg.seed, LANE_TAIL);
    (0..TAIL_WRITES)
        .map(|_| MixStream::ins3(&mut rng, chain))
        .collect()
}

/// The storage `recovery_s` reopens: a crashed twin carrying only the
/// fixed tail of writes after its checkpoint, so the replay does not
/// depend on how many writes the window completed.
pub fn restart_storage(cfg: &Config, out: &mut Outcome) -> (MemStorage, u64) {
    let (db, chain) = setup::population(cfg, SCALE_DIV, &mut SetupTimes::default(), None);
    setup::crashed_twin(db, "A4", &tail_writes(cfg, &chain), out)
}

/// The expected answer to a read, straight from the executor.
fn expected(db: &Database, k: i64) -> Option<u64> {
    asr_oql::execute(db, &Chain::oql(k))
        .ok()
        .map(|rs| digest(&rs.rows))
}

/// Run `update_mix` (untraced or traced per `cfg.trace`).
pub fn run(cfg: &Config, out: &mut Outcome) {
    if cfg.trace {
        traced(cfg, out);
        return;
    }
    let mut restarts = match Restarts::spawn(cfg, SCALE_DIV, cfg.seconds, RESTARTS) {
        Ok(r) => r,
        Err(e) => return out.check(false, || e),
    };
    let ((front, chain), setup_s) =
        setup::repeated(SETUPS, || serve(cfg, &mut SetupTimes::default(), None));
    let mut client = WireClient::new(front);
    let pricer = Pricer::new(&chain.spec);

    let mut stream = MixStream::new(cfg.seed);
    let mut lat: [Vec<f64>; 3] = Default::default();
    // Writes acknowledged by the current primary.
    let mut acked: Vec<(Oid, Oid)> = Vec::new();
    let mut fidelity = Fidelity::default();
    let mut prefix_pages = 0u64;
    // `peak_rss_mb` is the serving footprint at the end of the first
    // epoch: set-up transients stay out of it, and so do the extra work
    // (and the client's per-op records) of a faster window.
    reset_peak_rss();
    let mut peak_rss = 0.0;
    let mut window = Window::new(TAIL_P);
    let (mut epochs, mut requests) = (0usize, 0usize);
    while epochs == 0 || window.elapsed() < cfg.seconds {
        if epochs > 0 {
            // The same epoch again on a fresh primary, built outside the
            // timed window.
            drop(client);
            client = WireClient::new(serve(cfg, &mut SetupTimes::default(), None).0);
            stream = MixStream::new(cfg.seed);
            acked.clear();
        }
        for _ in 0..EPOCH_OPS {
            let op = stream.next(&chain);
            let t = Instant::now();
            let resp = client.call(op.body());
            let us = t.elapsed().as_secs_f64() * 1e6;
            let read_us = matches!(op, MixOp::Read(_)).then_some(us);
            window.add(1, us / 1e6, read_us);
            requests += 1;
            restarts.tick(window.elapsed(), out);
            let resp = match resp {
                Ok(resp) => resp,
                Err(e) => {
                    out.check(false, || format!("{op:?}: client error {e}"));
                    continue;
                }
            };
            if epochs == 0 {
                prefix_pages += resp.io.accesses();
                if let Some(m) = op.model_op() {
                    fidelity.add(pricer.price(m), resp.io.accesses());
                }
            }
            match settle(op, resp.body) {
                Ok(got) => {
                    lat[op.class()].push(us);
                    // Reads are checked against the executor on the live
                    // primary, outside the timed interval.
                    let ok = match (op, got) {
                        (MixOp::Read(k), Some(d)) => {
                            expected(client.transport().backend.database(), k) == Some(d)
                        }
                        (MixOp::Write { owner, elem }, _) => {
                            acked.push((owner, elem));
                            true
                        }
                        _ => true,
                    };
                    out.check(ok, || format!("{op:?}: answer differs from the executor"));
                }
                Err(e) => out.check(false, || e),
            }
        }
        if epochs == 0 {
            peak_rss = peak_rss_mb();
        }
        epochs += 1;
    }

    // Crash point: a full checkpoint, then a fixed tail of writes.
    let tail = tail_writes(cfg, &chain);
    let resp = client.call(RequestBody::Checkpoint { delta: false });
    out.check(matches!(resp.map(|r| r.body), Ok(ResponseBody::Ok)), || {
        "final full checkpoint failed".to_string()
    });
    // Only fresh inserts are logged, so recovery must replay exactly
    // the acknowledged writes that answered `true`.
    let mut fresh = 0u64;
    for &(owner, elem) in &tail {
        let op = MixOp::Write { owner, elem };
        let flag = match client.call(op.body()).map(|r| r.body) {
            Ok(ResponseBody::Flag(f)) => Some(f),
            _ => None,
        };
        if let Some(f) = flag {
            acked.push((owner, elem));
            fresh += u64::from(f);
        }
        out.check(flag.is_some(), || format!("{op:?}: tail write failed"));
    }
    let mut sample_rng = Rng::new(cfg.seed, LANE_SAMPLE);
    let live = client.transport().backend.database();
    let live_rows = asr_digest(live, chain.asr);
    let samples: Vec<(i64, Option<u64>)> = (0..SAMPLE_TAGS)
        .map(|_| {
            let k = sample_rng.below(chain.tags()) as i64;
            (k, expected(live, k))
        })
        .collect();
    let storage = setup::crash(&client.transport().backend, out);
    drop(client);
    let (secs, recovered) = setup::restart(&storage, fresh, out);
    out.note(format!("restart after the run: {secs:.3} s"));
    if let Some(recovered) = recovered {
        verify_recovered(recovered, &chain, &acked, live_rows, &samples, out);
    }
    let recovery_s = restarts.finish(out);

    out.latency("write (ins_3)", &lat[1]);
    out.latency("checkpoint (delta)", &lat[2]);
    out.latency("read (OQL Q_{0,4} bw)", &lat[0]);
    out.note(window.describe());
    out.note(format!(
        "requests {requests} ({epochs} epochs), writes acknowledged by the last primary {}, failed_frac {:.6}, cost model {:.2} pages/op predicted, measured/predicted {:.3}",
        acked.len(),
        out.failed as f64 / out.attempted.max(1) as f64,
        fidelity.predicted_per_op(),
        fidelity.ratio()
    ));
    out.set("setup_s", setup_s);
    out.set("ops_per_s", window.ops_per_s());
    out.set("read_p50_us", window.read_p50());
    out.set("read_tail_us", window.read_tail());
    out.set("pages_per_op", prefix_pages as f64 / EPOCH_OPS as f64);
    out.set("recovery_s", recovery_s);
    out.set("peak_rss_mb", peak_rss);
}

/// After recovery: every acknowledged write is readable, the recovered
/// ASR equals the live one and a from-scratch rebuild, and sampled
/// answers equal the live answers.
fn verify_recovered(
    recovered: DurableDatabase<MemStorage>,
    chain: &Chain,
    acked: &[(Oid, Oid)],
    live_rows: u64,
    samples: &[(i64, Option<u64>)],
    out: &mut Outcome,
) {
    let asr = chain.asr;
    {
        let db = recovered.database();
        for &(owner, elem) in acked {
            let ok = db
                .forward(asr, 3, 4, owner)
                .is_ok_and(|cells| cells.contains(&Cell::Oid(elem)));
            out.check(ok, || {
                format!("acknowledged write {owner}.A4 += {elem} lost")
            });
        }
        out.check(asr_digest(db, asr) == live_rows, || {
            "recovered ASR rows differ from the live primary".to_string()
        });
        for &(k, want) in samples {
            out.check(expected(db, k) == want, || {
                format!("Tag = {k}: recovered answer differs")
            });
        }
    }
    let mut db = recovered.into_database();
    let rebuilt = db.create_asr_on(
        PATH,
        AsrConfig {
            extension: Extension::Full,
            decomposition: Decomposition::binary(ARITY),
            keep_set_oids: false,
        },
    );
    let ok = rebuilt.is_ok_and(|id| asr_digest(&db, id) == asr_digest(&db, asr));
    out.check(ok, || "maintained ASR differs from a rebuild".to_string());
}

/// The traced run: the op stream replayed at each entry point, each rung
/// on its own twin of the primary, one block of ops at a time.
fn traced(cfg: &Config, out: &mut Outcome) {
    let rec = Recorder::new();
    let mut times = SetupTimes::default();
    let (mut wire, chain) = serve(cfg, &mut times, Some(&rec));
    times.report(out);
    let (mut wire_traced, _) = serve(cfg, &mut SetupTimes::default(), None);
    wire_traced.rec = Some(rec.clone());
    let (mut server, _) = serve(cfg, &mut SetupTimes::default(), None);
    let mut primary = setup::durable(twin(cfg), &mut SetupTimes::default(), None);
    let mut plain = twin(cfg);
    let asr = chain.asr;
    let stats = plain.stats().clone();
    let pricer = Pricer::new(&chain.spec);
    let mut stream = MixStream::new(cfg.seed);
    let ops: Vec<MixOp> = (0..TRACE_OPS).map(|_| stream.next(&chain)).collect();
    let mut client = WireClient::new(&mut wire);
    let mut client_traced = WireClient::new(&mut wire_traced);

    let mut untraced = Vec::with_capacity(ops.len());
    let mut lat: [Vec<f64>; 3] = Default::default();
    let mut fidelity = Fidelity::default();
    let (mut bytes, mut wal_bytes, mut ckpt_pages) = (Vec::new(), Vec::new(), Vec::new());
    let (mut read_io, mut write_io, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    let mut planned = 0usize;
    for (b, block) in ops.chunks(BLOCK).enumerate() {
        let first = b * BLOCK;
        let mut wants = Vec::with_capacity(block.len());
        for (j, &op) in block.iter().enumerate() {
            let i = first + j;
            rec.set_req(i as u64);
            // Wire, untraced: the tracing-overhead baseline.
            let t = Instant::now();
            let resp = client.call(op.body());
            let us = t.elapsed().as_secs_f64() * 1e6;
            untraced.push(us);
            lat[op.class()].push(us);
            let want = resp.map_err(|e| e.to_string()).and_then(|r| {
                if let Some(m) = op.model_op() {
                    fidelity.add(pricer.price(m), r.io.accesses());
                }
                settle(op, r.body)
            });
            if let Err(e) = &want {
                out.check(false, || e.clone());
            }
            let want = want.ok();
            wants.push(want);
        }
        for (j, &op) in block.iter().enumerate() {
            let i = first + j;
            rec.set_req(i as u64);
            // Wire, traced: the session pump is a child span.
            let got = rec.span("client.request", || client_traced.call(op.body()));
            let got = got
                .map_err(|e| e.to_string())
                .and_then(|r| settle(op, r.body));
            out.check(got.ok() == wants[j], || {
                format!("{op:?}: traced answer differs")
            });
        }
        for (j, &op) in block.iter().enumerate() {
            let i = first + j;
            rec.set_req(i as u64);
            // Server and codec: a pre-encoded frame into the session pump.
            let ok = rungs::pump_and_codec(&rec, &mut server, || op.body(), &mut bytes);
            out.check(ok, || format!("{op:?}: frames do not round-trip"));
        }
        for (j, &op) in block.iter().enumerate() {
            let i = first + j;
            rec.set_req(i as u64);
            // oql / durable: the executor and the logged mutations.
            let ok = match op {
                MixOp::Read(k) => {
                    let (uses_asr, got) = rungs::oql(&rec, primary.database(), k, &mut rows);
                    planned += usize::from(uses_asr);
                    got == wants[j].flatten()
                }
                MixOp::Write { owner, elem } => {
                    let before = primary.wal_status().durable_bytes;
                    let got = rec.span("durable.insert", || {
                        primary.insert_into_attr_set(owner, "A4", Value::Ref(elem))
                    });
                    // A segment rotation inside the call shrinks the active
                    // log; those samples say nothing about the record size.
                    if let Some(grew) = primary.wal_status().durable_bytes.checked_sub(before) {
                        wal_bytes.push(grew as f64);
                    }
                    got.is_ok()
                }
                MixOp::Checkpoint => {
                    let got = rec.span("durable.checkpoint", || primary.checkpoint_delta());
                    got.map(|r| ckpt_pages.push(r.pages_written as f64)).is_ok()
                }
            };
            out.check(ok, || format!("{op:?}: executor rung differs"));
        }
        for (j, &op) in block.iter().enumerate() {
            let i = first + j;
            rec.set_req(i as u64);
            // asr and pagesim: maintenance and span queries, unlogged.
            let before = stats.snapshot();
            match op {
                MixOp::Read(k) => {
                    let target = Cell::Value(Value::Integer(k));
                    let got = rec.span("asr.query", || plain.backward(asr, 0, ARITY, &target));
                    read_io.push(io_delta(&before, &stats.snapshot()));
                    let walked = rungs::probe_walk(&rec, &plain, asr, (0, ARITY), false, target);
                    out.check(got.is_ok_and(|v| v.len() == walked), || {
                        format!("{op:?}: probe walk differs from the asr span")
                    });
                }
                MixOp::Write { owner, elem } => {
                    let got = rec.span("asr.maint", || {
                        plain.insert_into_attr_set(owner, "A4", Value::Ref(elem))
                    });
                    write_io.push(io_delta(&before, &stats.snapshot()));
                    out.check(got.is_ok(), || format!("{op:?}: maintenance failed"));
                }
                MixOp::Checkpoint => {}
            }
        }
    }

    let (p50, tail) = out.latency("oql", &lat[0]);
    out.set("client.oql_p50_us", p50);
    out.set("client.oql_tail_us", tail);
    let (p50, tail) = out.latency("write", &lat[1]);
    out.set("client.write_p50_us", p50);
    out.set("client.write_tail_us", tail);
    let classes: Vec<usize> = ops.iter().map(|op| op.class()).collect();
    let traced_us = rec.durations_us("client.request");
    out.set(
        "trace.overhead_us_per_req",
        class_overhead(&classes, &untraced, &traced_us),
    );
    let reads = |v: Vec<f64>| -> Vec<f64> {
        v.into_iter()
            .zip(&ops)
            .filter(|(_, op)| op.class() == 0)
            .map(|(x, _)| x)
            .collect()
    };
    out.set(
        "net.wire_self_us",
        median(&reads(rec.self_us("client.request"))),
    );
    out.set(
        "net.retries",
        (client.stats().retries + client_traced.stats().retries) as f64,
    );
    out.set(
        "net.codec_us_per_req",
        median(&rec.durations_us("net.codec")),
    );
    out.set("net.bytes_per_req", mean(&bytes));
    out.set("server.pump.replayed", server.pumped.replayed as f64);
    out.set("server.pump.nacked", server.pumped.nacked as f64);
    let oql_local = median(&rec.durations_us("oql.local"));
    out.set(
        "server.pump_us_per_req",
        median(&reads(rec.durations_us("server.pump_frame"))) - oql_local,
    );
    out.set("durable.wal_bytes_per_write", mean(&wal_bytes));
    out.set(
        "durable.checkpoint_ms",
        median(&rec.durations_us("durable.checkpoint")) / 1e3,
    );
    out.set("durable.checkpoint_pages", mean(&ckpt_pages));
    let pages = |v: &[IoSnapshot]| rungs::mean_io(v, IoSnapshot::accesses);
    let maint_us = median(&rec.durations_us("asr.maint"));
    let maint_pages = pages(&write_io);
    out.set("asr.maint_us", maint_us);
    out.set("asr.maint_pages", maint_pages);
    out.set("asr.maint_us_per_page", maint_us / maint_pages.max(1e-9));
    out.set(
        "durable.log_us",
        median(&rec.durations_us("durable.insert")) - maint_us,
    );
    let asr_query = median(&rec.durations_us("asr.query"));
    out.set("asr.query_us", asr_query);
    out.set("asr.query_pages", pages(&read_io));
    out.set("oql.us_per_query", oql_local - asr_query);
    let reads_n = ops.iter().filter(|op| op.class() == 0).count().max(1);
    out.set("oql.asr_planned_frac", planned as f64 / reads_n as f64);
    out.set("oql.rows_per_query", mean(&rows));
    let all_io: Vec<IoSnapshot> = read_io.iter().chain(&write_io).copied().collect();
    rungs::report_pagesim(out, &all_io);
    out.set(
        "pagesim.probe_us",
        median(&rec.durations_us("pagesim.probe")),
    );
    out.set(
        "costmodel.predicted_pages_per_op",
        fidelity.predicted_per_op(),
    );
    out.set("costmodel.measured_over_predicted", fidelity.ratio());

    // Recovery: restart a crashed twin with no tail and one with the
    // fixed tail; the difference is the replay.
    let (bare, _) = setup::crashed_twin(twin(cfg), "A4", &[], out);
    let (no_tail, _) = setup::restart(&bare, 0, out);
    let tail = tail_writes(cfg, &chain);
    let (tailed, fresh) = setup::crashed_twin(twin(cfg), "A4", &tail, out);
    let (with_tail, _) = setup::restart(&tailed, fresh, out);
    out.set("durable.recovery_replayed", fresh as f64);
    out.set(
        "durable.replay_us_per_record",
        (with_tail - no_tail) * 1e6 / fresh.max(1) as f64,
    );
    finish_trace(cfg, &rec, out);
}
