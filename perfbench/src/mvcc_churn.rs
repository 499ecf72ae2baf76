//! `mvcc_churn`: snapshot-served partition probes racing `ins_2` writes.
//!
//! A reader session and a writer session on the primary's front door are
//! pumped together by `NetServer::pump_sessions_parallel` with 2 workers.
//! Each round the reader sends 64 `ShardProbe` reads (a uniform
//! partition `k`, forward or backward with equal odds: a `Q_{k,k+1}` span
//! of the binary decomposition), answered from one pinned snapshot, and
//! the writer sends one `ins_2` (`InsertIntoAttrSet` on `A3`).  The
//! window repeats one seeded epoch of rounds, each time on a fresh
//! primary (see [`EPOCH_ROUNDS`]).  The first epoch's answers are checked
//! afterwards against a serial `Database` replaying the same rounds (a
//! round's reads see every earlier round's write), and every later epoch
//! must answer exactly as the first did.

use std::time::Instant;

use asr_core::{AsrId, Cell, Database, Row};
use asr_costmodel::Op;
use asr_durable::{Channel, DurableDatabase, LosslessChannel, MemStorage};
use asr_gom::{Oid, Value};
use asr_net::{decode_frame, Request, RequestBody, ResponseBody, WireMessage};
use asr_server::{NetServer, PumpReport, ServerDb};

use crate::common::{
    mean, median, peak_rss_mb, reset_peak_rss, sorted_digest, Outcome, Rng, Window,
};
use crate::model::{Fidelity, Pricer};
use crate::restarts::Restarts;
use crate::rungs;
use crate::setup::{self, add_report, asr_digest, Chain, SetupTimes, ARITY};
use crate::trace::{finish_trace, io_delta, Recorder};
use crate::Config;

/// Population divisor: the fig14 population at 1/10 scale.
pub const SCALE_DIV: f64 = 10.0;

/// Snapshot reads per round.
const READS_PER_ROUND: usize = 64;

/// Requests per round: the reads plus one write.
const OPS_PER_ROUND: usize = READS_PER_ROUND + 1;

/// Worker threads of the parallel pump.
const WORKERS: usize = 2;

/// Writes acknowledged after the final full checkpoint, before the crash.
const TAIL_WRITES: usize = 64;

/// Rounds per epoch.  Every write grows the ASR, and a round's cost
/// grows with it (a window of ever new rounds went from 10 ms to 18 ms
/// per round in 20 s), so a faster host would do more writes and see
/// slower rounds.  The window therefore serves one seeded epoch of
/// rounds again and again, each time on a fresh primary built outside
/// the timed window, and ends with an epoch: every epoch is the same
/// work from the same state.  The first epoch's pages make up
/// `pages_per_op`.
const EPOCH_ROUNDS: usize = 512;

/// Percentile of `read_tail_us` (about 2000 rounds per run).
const TAIL_P: f64 = 99.0;

/// Rounds replayed per rung in the traced run.
const TRACE_ROUNDS: usize = 48;

/// Rounds per block of the traced run: each rung replays a block on its
/// twin before the next rung takes it, so every twin runs warm and all
/// rungs share the host's drift.
const BLOCK: usize = 4;

/// Set-ups per untraced run (`setup_s` is their median).
const SETUPS: usize = 7;

/// Crash-restarts per untraced run (`recovery_s` is their mean).
const RESTARTS: usize = 11;

const LANE_OPS: u64 = 2;
const LANE_TAIL: u64 = 3;

/// One snapshot read: a probe of partition `part` by one key.
#[derive(Debug, Clone)]
pub struct Probe {
    part: usize,
    forward: bool,
    key: Cell,
}

impl Probe {
    fn body(&self, asr: AsrId) -> RequestBody {
        RequestBody::ShardProbe {
            asr: asr as u32,
            part: self.part as u32,
            forward: self.forward,
            keys: vec![self.key.clone()],
        }
    }

    fn model_op(&self) -> Op {
        if self.forward {
            Op::fw(self.part, self.part + 1)
        } else {
            Op::bw(self.part, self.part + 1)
        }
    }

    /// The same probe on a live database (the serial check and the
    /// pagesim rung).
    fn live(&self, db: &Database, asr: AsrId) -> Vec<Row> {
        let part = &db.asr(asr).expect("asr exists").partitions()[self.part];
        if self.forward {
            part.lookup_first_many([&self.key])
        } else {
            part.lookup_last_many([&self.key])
        }
    }
}

/// One round: the reader's probes and the writer's `ins_2`.
#[derive(Debug, Clone)]
pub struct Round {
    probes: Vec<Probe>,
    owner: Oid,
    elem: Oid,
}

impl Round {
    /// Draw the next round.
    pub fn draw(rng: &mut Rng, chain: &Chain) -> Self {
        let probes = (0..READS_PER_ROUND)
            .map(|_| {
                let part = rng.below(ARITY);
                let forward = rng.below(2) == 0;
                let key = chain.key(if forward { part } else { part + 1 }, rng);
                Probe { part, forward, key }
            })
            .collect();
        let (owner, elem) = Self::write(rng, chain);
        Round {
            probes,
            owner,
            elem,
        }
    }

    /// A uniform `ins_2`: `(owner, elem)`.
    fn write(rng: &mut Rng, chain: &Chain) -> (Oid, Oid) {
        (rng.pick(&chain.owners[2]), rng.pick(&chain.levels[3]))
    }

    fn predicted(&self, pricer: &Pricer) -> f64 {
        self.probes
            .iter()
            .map(|p| pricer.price(p.model_op()))
            .sum::<f64>()
            + pricer.price(Op::ins(2))
    }
}

fn write_body(owner: Oid, elem: Oid) -> RequestBody {
    RequestBody::InsertIntoAttrSet {
        owner,
        attr: "A3".to_string(),
        elem: Value::Ref(elem),
    }
}

/// The two-session front door over the durable primary.
pub struct Sessions {
    server: NetServer,
    reader: usize,
    writer: usize,
    channels: [LosslessChannel; 4],
    next_id: [u64; 2],
    /// Accumulated pump reports.
    pub pumped: PumpReport,
    /// The served primary.
    pub db: DurableDatabase<MemStorage>,
}

/// What one round returned.
pub struct RoundResult {
    /// Read latency, µs: from sending the round to decoding its last
    /// read (the reads of a round share one pump batch, so the round is
    /// one latency sample, not 64).
    pub read_us: f64,
    /// Write latency, µs.
    pub write_us: f64,
    /// Per-read sorted-rows digest, or why the read failed.
    pub answers: Vec<Result<u64, String>>,
    /// Whether the write inserted a new element, or why it failed.
    pub write: Result<bool, String>,
    /// Modeled pages of the round: the snapshot batch plus the write.
    pub pages: u64,
}

impl Sessions {
    /// Open a reader and a writer session on `db`.
    pub fn new(db: DurableDatabase<MemStorage>) -> Self {
        let mut server = NetServer::new();
        let reader = server.open_session();
        let writer = server.open_session();
        Sessions {
            server,
            reader,
            writer,
            channels: Default::default(),
            next_id: [1, 1],
            pumped: PumpReport::default(),
            db,
        }
    }

    /// Encode one request for session `s` (0 reader, 1 writer).
    fn frame(&mut self, s: usize, body: RequestBody) -> Vec<u8> {
        let id = self.next_id[s];
        self.next_id[s] += 1;
        Request { id, body }.encode()
    }

    /// Encode a round's frames: 64 reads, then the write.
    pub fn frames(&mut self, asr: AsrId, round: &Round) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = round
            .probes
            .iter()
            .map(|p| self.frame(0, p.body(asr)))
            .collect();
        out.push(self.frame(1, write_body(round.owner, round.elem)));
        out
    }

    /// Hand pre-encoded frames to the sessions and pump both in parallel.
    pub fn pump(&mut self, frames: Vec<Vec<u8>>, rec: Option<&Recorder>) {
        let n = frames.len();
        for (i, f) in frames.into_iter().enumerate() {
            let lane = if i + 1 == n { 2 } else { 0 };
            self.channels[lane].send(f);
        }
        let [r_rx, r_tx, w_rx, w_tx] = &mut self.channels;
        let (reader, writer) = (self.reader, self.writer);
        let server = &mut self.server;
        let db = &mut self.db;
        let report = crate::trace::maybe_span(rec, "server.pump", || {
            server.pump_sessions_parallel(
                &mut ServerDb::Durable(db),
                &mut [
                    (reader, r_rx as &mut dyn Channel, r_tx as &mut dyn Channel),
                    (writer, w_rx as &mut dyn Channel, w_tx as &mut dyn Channel),
                ],
                WORKERS,
            )
        });
        add_report(&mut self.pumped, &report);
    }

    fn batch_pages(&self) -> f64 {
        self.db
            .database()
            .tracer()
            .metrics()
            .histogram("server.snapshot.batch_pages")
            .map_or(0.0, |h| h.sum)
    }

    /// Send one round through the front door and decode every answer.
    pub fn round(&mut self, asr: AsrId, round: &Round, rec: Option<&Recorder>) -> RoundResult {
        let pages_before = self.batch_pages();
        let t0 = Instant::now();
        let frames = self.frames(asr, round);
        self.pump(frames, rec);
        let mut answers = Vec::with_capacity(READS_PER_ROUND);
        for _ in 0..READS_PER_ROUND {
            let got = match self.channels[1].recv().map(|f| decode_frame(&f)) {
                Some(Some(WireMessage::Response(r))) => match r.body {
                    ResponseBody::Rows(rows) => Ok(rows),
                    other => Err(format!("unexpected read response {other:?}")),
                },
                _ => Err("read response missing or damaged".to_string()),
            };
            answers.push(got.map(|rows| sorted_digest(rows).0));
        }
        let read_us = t0.elapsed().as_secs_f64() * 1e6;
        let (write, write_pages) = match self.channels[3].recv().map(|f| decode_frame(&f)) {
            Some(Some(WireMessage::Response(r))) => match r.body {
                ResponseBody::Flag(f) => (Ok(f), r.io.accesses()),
                other => (Err(format!("unexpected write response {other:?}")), 0),
            },
            _ => (Err("write response missing or damaged".to_string()), 0),
        };
        let write_us = t0.elapsed().as_secs_f64() * 1e6;
        let snap_pages = (self.batch_pages() - pages_before) as u64;
        RoundResult {
            read_us,
            write_us,
            answers,
            write,
            pages: snap_pages + write_pages,
        }
    }

    /// One request on the writer session, served by the serial pump.
    pub fn serial(&mut self, body: RequestBody) -> Option<ResponseBody> {
        let frame = self.frame(1, body);
        self.channels[2].send(frame);
        let [_, _, w_rx, w_tx] = &mut self.channels;
        let report = self.server.pump_session(
            self.writer,
            &mut ServerDb::Durable(&mut self.db),
            w_rx,
            w_tx,
        );
        add_report(&mut self.pumped, &report);
        match self.channels[3].recv().map(|f| decode_frame(&f)) {
            Some(Some(WireMessage::Response(r))) => Some(r.body),
            _ => None,
        }
    }
}

/// A fresh durable primary behind its two sessions.
fn serve(cfg: &Config, times: &mut SetupTimes, rec: Option<&Recorder>) -> (Sessions, Chain) {
    let (primary, chain) = setup::primary(cfg, SCALE_DIV, times, rec);
    (Sessions::new(primary), chain)
}

/// A fresh plain twin of the population.
fn twin(cfg: &Config) -> Database {
    setup::population(cfg, SCALE_DIV, &mut SetupTimes::default(), None).0
}

/// The fixed tail of writes acknowledged right before a crash.
fn tail_writes(cfg: &Config, chain: &Chain) -> Vec<(Oid, Oid)> {
    let mut rng = Rng::new(cfg.seed, LANE_TAIL);
    (0..TAIL_WRITES)
        .map(|_| Round::write(&mut rng, chain))
        .collect()
}

/// The storage `recovery_s` reopens: a crashed twin carrying only the
/// fixed tail of writes after its checkpoint, so the replay does not
/// depend on how many rounds the window completed.
pub fn restart_storage(cfg: &Config, out: &mut Outcome) -> (MemStorage, u64) {
    let (db, chain) = setup::population(cfg, SCALE_DIV, &mut SetupTimes::default(), None);
    setup::crashed_twin(db, "A3", &tail_writes(cfg, &chain), out)
}

/// Run `mvcc_churn` (untraced or traced per `cfg.trace`).
pub fn run(cfg: &Config, out: &mut Outcome) {
    if cfg.trace {
        traced(cfg, out);
        return;
    }
    let mut restarts = match Restarts::spawn(cfg, SCALE_DIV, cfg.seconds, RESTARTS) {
        Ok(r) => r,
        Err(e) => return out.check(false, || e),
    };
    let ((mut front, chain), setup_s) =
        setup::repeated(SETUPS, || serve(cfg, &mut SetupTimes::default(), None));
    let asr = chain.asr;
    let pricer = Pricer::new(&chain.spec);

    let mut rng = Rng::new(cfg.seed, LANE_OPS);
    let rounds: Vec<Round> = (0..EPOCH_ROUNDS)
        .map(|_| Round::draw(&mut rng, &chain))
        .collect();
    // The first epoch's answers and write acknowledgements: the serial
    // oracle checks them, and every later epoch must repeat them.
    let mut first: Vec<(Vec<Result<u64, String>>, bool)> = Vec::with_capacity(EPOCH_ROUNDS);
    let mut first_rows = 0u64;
    let (mut read_us, mut write_us) = (Vec::new(), Vec::new());
    let mut fidelity = Fidelity::default();
    let mut prefix_pages = 0u64;
    // `peak_rss_mb` is the serving footprint at the end of the first
    // epoch: set-up transients stay out of it, and so do the extra work
    // (and the client's per-op records) of a faster window.
    reset_peak_rss();
    let mut peak_rss = 0.0;
    let mut window = Window::new(TAIL_P);
    let mut epochs = 0usize;
    let mut acked_now: Vec<bool> = Vec::with_capacity(EPOCH_ROUNDS);
    while epochs == 0 || window.elapsed() < cfg.seconds {
        if epochs > 0 {
            // The same epoch again on a fresh primary, built outside the
            // timed window.
            drop(front);
            front = serve(cfg, &mut SetupTimes::default(), None).0;
            acked_now.clear();
        }
        for (i, round) in rounds.iter().enumerate() {
            let got = front.round(asr, round, None);
            window.add(OPS_PER_ROUND as u64, got.write_us / 1e6, Some(got.read_us));
            restarts.tick(window.elapsed(), out);
            read_us.push(got.read_us);
            write_us.push(got.write_us);
            let acked = got.write.is_ok();
            out.check(acked, || got.write.clone().err().unwrap_or_default());
            acked_now.push(acked);
            if epochs == 0 {
                prefix_pages += got.pages;
                fidelity.add_batch(OPS_PER_ROUND as u64, round.predicted(&pricer), got.pages);
                first.push((got.answers, acked));
            } else {
                let same = first[i] == (got.answers, acked);
                out.check(same, || {
                    format!("round {i} of epoch {epochs} differs from the first epoch")
                });
            }
        }
        if epochs == 0 {
            peak_rss = peak_rss_mb();
            first_rows = asr_digest(front.db.database(), asr);
        }
        epochs += 1;
    }

    // The serial oracle: the first epoch's rounds, reads before each
    // round's write.
    let mut oracle = twin(cfg);
    for (round, (answers, acked)) in rounds.iter().zip(&first) {
        for (p, got) in round.probes.iter().zip(answers) {
            let want = sorted_digest(p.live(&oracle, asr)).0;
            out.check(got.as_ref() == Ok(&want), || {
                format!("{p:?}: snapshot answer differs")
            });
        }
        if *acked {
            let ok = oracle
                .insert_into_attr_set(round.owner, "A3", Value::Ref(round.elem))
                .is_ok();
            out.check(ok, || "oracle write failed".to_string());
        }
    }
    out.check(asr_digest(&oracle, asr) == first_rows, || {
        "live ASR after the first epoch differs from the serial oracle".to_string()
    });
    drop(oracle);

    // Crash point: a full checkpoint, then a fixed tail of writes.
    let tail = tail_writes(cfg, &chain);
    let ok = matches!(
        front.serial(RequestBody::Checkpoint { delta: false }),
        Some(ResponseBody::Ok)
    );
    out.check(ok, || "final full checkpoint failed".to_string());
    let mut acked: Vec<(Oid, Oid)> = rounds
        .iter()
        .zip(&acked_now)
        .filter(|(_, &a)| a)
        .map(|(r, _)| (r.owner, r.elem))
        .collect();
    let mut fresh = 0u64;
    for &(owner, elem) in &tail {
        let got = front.serial(write_body(owner, elem));
        let ok = matches!(got, Some(ResponseBody::Flag(_)));
        if let Some(ResponseBody::Flag(f)) = got {
            fresh += u64::from(f);
            acked.push((owner, elem));
        }
        out.check(ok, || "tail write failed".to_string());
    }
    let live_rows = asr_digest(front.db.database(), asr);
    let storage = setup::crash(&front.db, out);
    drop(front);
    let (secs, recovered) = setup::restart(&storage, fresh, out);
    out.note(format!("restart after the run: {secs:.3} s"));
    if let Some(db) = recovered {
        let db = db.database();
        for &(owner, elem) in &acked {
            let ok = db
                .forward(asr, 2, 3, owner)
                .is_ok_and(|cells| cells.contains(&Cell::Oid(elem)));
            out.check(ok, || {
                format!("acknowledged write {owner}.A3 += {elem} lost")
            });
        }
        out.check(asr_digest(db, asr) == live_rows, || {
            "recovered ASR rows differ from the live primary".to_string()
        });
    }

    let recovery_s = restarts.finish(out);
    out.latency("write (ins_2)", &write_us);
    out.latency("read (snapshot ShardProbe, one sample per round)", &read_us);
    out.note(window.describe());
    out.note(format!(
        "rounds {} in {epochs} epochs, failed_frac {:.6}, cost model {:.2} pages/op predicted, measured/predicted {:.3}",
        epochs * EPOCH_ROUNDS,
        out.failed as f64 / out.attempted.max(1) as f64,
        fidelity.predicted_per_op(),
        fidelity.ratio()
    ));
    out.set("setup_s", setup_s);
    out.set("ops_per_s", window.ops_per_s());
    out.set("read_p50_us", window.read_p50());
    out.set("read_tail_us", window.read_tail());
    out.set(
        "pages_per_op",
        prefix_pages as f64 / (EPOCH_ROUNDS * OPS_PER_ROUND) as f64,
    );
    out.set("recovery_s", recovery_s);
    out.set("peak_rss_mb", peak_rss);
}

/// The traced run: the rounds replayed at each entry point, each rung on
/// its own twin, one block of rounds at a time.
fn traced(cfg: &Config, out: &mut Outcome) {
    let rec = Recorder::new();
    let mut times = SetupTimes::default();
    let (mut front, chain) = serve(cfg, &mut times, Some(&rec));
    times.report(out);
    let (mut front_traced, _) = serve(cfg, &mut SetupTimes::default(), None);
    let (mut server, _) = serve(cfg, &mut SetupTimes::default(), None);
    let mut pinned = twin(cfg);
    let mut unpinned = twin(cfg);
    let mut primary = setup::durable(twin(cfg), &mut SetupTimes::default(), None);
    let asr = chain.asr;
    let stats = unpinned.stats().clone();
    let pricer = Pricer::new(&chain.spec);
    let mut rng = Rng::new(cfg.seed, LANE_OPS);
    let rounds: Vec<Round> = (0..TRACE_ROUNDS)
        .map(|_| Round::draw(&mut rng, &chain))
        .collect();
    let per_req = |us: f64| us / OPS_PER_ROUND as f64;

    let (mut read_us, mut write_us, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut fidelity = Fidelity::default();
    let (mut probe_pages, mut query_pages, mut maint_pages) = (Vec::new(), Vec::new(), Vec::new());
    let (mut io_ops, mut wal_bytes) = (Vec::new(), Vec::new());
    for (b, block) in rounds.chunks(BLOCK).enumerate() {
        let first = b * BLOCK;
        let mut wants = Vec::with_capacity(block.len());
        for (j, round) in block.iter().enumerate() {
            let i = first + j;
            rec.set_req(i as u64);
            // Front door, untraced: the tracing-overhead baseline.
            let got = front.round(asr, round, None);
            fidelity.add_batch(OPS_PER_ROUND as u64, round.predicted(&pricer), got.pages);
            read_us.push(got.read_us);
            write_us.push(got.write_us);
            out.check(got.write.is_ok(), || "write failed".to_string());
            wants.push(got.answers);
        }
        for (j, round) in block.iter().enumerate() {
            let i = first + j;
            rec.set_req(i as u64);
            // Front door, traced: the parallel pump is a child span.
            let got = rec.span("client.round", || {
                front_traced.round(asr, round, Some(&rec))
            });
            out.check(got.answers == wants[j], || {
                format!("round {i}: traced answers differ")
            });
        }
        for (j, round) in block.iter().enumerate() {
            let i = first + j;
            rec.set_req(i as u64);
            // Server: pre-encoded frames straight into the parallel pump.
            let frames = server.frames(asr, round);
            let sent: usize = frames.iter().map(Vec::len).sum();
            let encoded = frames.clone();
            rec.span("server.pump_frames", || server.pump(frames, None));
            let mut received = 0usize;
            for lane in [1, 3] {
                while let Some(f) = server.channels[lane].recv() {
                    received += f.len();
                }
            }
            bytes.push((sent + received) as f64 / OPS_PER_ROUND as f64);

            // Codec: decode every request frame and re-encode it.
            let ok = rec.span("net.codec", || {
                encoded.iter().all(|f| match decode_frame(f) {
                    Some(WireMessage::Request(r)) => r.encode().len() == f.len(),
                    _ => false,
                })
            });
            out.check(ok, || format!("round {i}: frames do not round-trip"));
        }
        for (j, round) in block.iter().enumerate() {
            let i = first + j;
            rec.set_req(i as u64);
            // asr.snapshot: publish after the last write, probe the pinned
            // view, then write while the pin is held.
            let snap = rec.span("asr.snapshot.publish", || pinned.snapshot());
            for (p, want) in round.probes.iter().zip(&wants[j]) {
                let before = snap.pages_read();
                let got = rec.span("asr.snapshot.probe", || {
                    snap.probe(asr, p.part, p.forward, std::slice::from_ref(&p.key))
                });
                probe_pages.push((snap.pages_read() - before) as f64);
                out.check(
                    got.map(|rows| sorted_digest(rows).0).ok().as_ref() == want.as_ref().ok(),
                    || format!("round {i}: pinned probe differs"),
                );
            }
            let got = rec.span("asr.snapshot.write_pinned", || {
                pinned.insert_into_attr_set(round.owner, "A3", Value::Ref(round.elem))
            });
            out.check(got.is_ok(), || "pinned write failed".to_string());
            drop(snap);
        }
        for (j, round) in block.iter().enumerate() {
            let i = first + j;
            rec.set_req(i as u64);
            // asr and pagesim: live spans and probes, and the write with no
            // snapshot pinned.
            for p in &round.probes {
                let before = stats.snapshot();
                let got = rec.span("asr.query", || match p.key.as_oid() {
                    Some(o) if p.forward => unpinned
                        .forward(asr, p.part, p.part + 1, o)
                        .map(|v| v.len()),
                    _ => unpinned
                        .backward(asr, p.part, p.part + 1, &p.key)
                        .map(|v| v.len()),
                });
                let d = io_delta(&before, &stats.snapshot());
                query_pages.push(d.accesses() as f64);
                io_ops.push(d);
                out.check(got.is_ok(), || format!("{p:?}: live span failed"));
                rec.span("pagesim.probe", || p.live(&unpinned, asr).len());
            }
            let before = stats.snapshot();
            let got = rec.span("asr.maint", || {
                unpinned.insert_into_attr_set(round.owner, "A3", Value::Ref(round.elem))
            });
            let d = io_delta(&before, &stats.snapshot());
            maint_pages.push(d.accesses() as f64);
            io_ops.push(d);
            out.check(got.is_ok(), || "unpinned write failed".to_string());
        }
        for (j, round) in block.iter().enumerate() {
            let i = first + j;
            rec.set_req(i as u64);
            // durable: the logged write without wire or session.
            let before = primary.wal_status().durable_bytes;
            let got = rec.span("durable.insert", || {
                primary.insert_into_attr_set(round.owner, "A3", Value::Ref(round.elem))
            });
            if let Some(grew) = primary.wal_status().durable_bytes.checked_sub(before) {
                wal_bytes.push(grew as f64);
            }
            out.check(got.is_ok(), || "logged write failed".to_string());
        }
    }

    let (p50, tail) = out.latency("span (snapshot probe)", &read_us);
    out.set("client.span_p50_us", p50);
    out.set("client.span_tail_us", tail);
    let (p50, tail) = out.latency("write", &write_us);
    out.set("client.write_p50_us", p50);
    out.set("client.write_tail_us", tail);
    out.set(
        "costmodel.predicted_pages_per_op",
        fidelity.predicted_per_op(),
    );
    out.set("costmodel.measured_over_predicted", fidelity.ratio());
    let txn = front.db.database().txn_status();
    out.set("asr.snapshot.active", txn.active_snapshots as f64);
    out.set("asr.snapshot.reclaimed", txn.epochs_reclaimed as f64);
    let traced_us = median(&rec.durations_us("client.round"));
    out.set(
        "trace.overhead_us_per_req",
        per_req(traced_us - median(&write_us)),
    );
    out.set(
        "net.wire_self_us",
        per_req(median(&rec.self_us("client.round"))),
    );
    out.set(
        "net.codec_us_per_req",
        per_req(median(&rec.durations_us("net.codec"))),
    );
    out.set("net.bytes_per_req", mean(&bytes));
    out.set("server.pump.replayed", server.pumped.replayed as f64);
    out.set("server.pump.nacked", server.pumped.nacked as f64);
    let publish = median(&rec.durations_us("asr.snapshot.publish"));
    let probe = median(&rec.durations_us("asr.snapshot.probe"));
    out.set("asr.snapshot.publish_us", publish);
    out.set("asr.snapshot.probe_us", probe);
    out.set("asr.snapshot.pages_per_probe", mean(&probe_pages));
    let maint = median(&rec.durations_us("asr.maint"));
    out.set("asr.maint_us", maint);
    out.set("asr.maint_pages", mean(&maint_pages));
    out.set(
        "asr.maint_us_per_page",
        maint / mean(&maint_pages).max(1e-9),
    );
    out.set(
        "asr.snapshot.write_pinned_us",
        median(&rec.durations_us("asr.snapshot.write_pinned")) - maint,
    );
    out.set("asr.query_us", median(&rec.durations_us("asr.query")));
    out.set("asr.query_pages", mean(&query_pages));
    out.set(
        "pagesim.probe_us",
        median(&rec.durations_us("pagesim.probe")),
    );
    rungs::report_pagesim(out, &io_ops);
    let logged = median(&rec.durations_us("durable.insert"));
    out.set("durable.log_us", logged - maint);
    out.set("durable.wal_bytes_per_write", mean(&wal_bytes));
    // The pump's own share of a round: what the layers below it do not
    // account for (the reads run on two workers).
    let below = publish + logged + probe * (READS_PER_ROUND / WORKERS) as f64;
    out.set(
        "server.pump_us_per_req",
        per_req(median(&rec.durations_us("server.pump_frames")) - below),
    );
    finish_trace(cfg, &rec, out);
}
