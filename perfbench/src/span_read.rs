//! `span_read`: the read-only fig14 query mix over a 2-shard fleet.
//!
//! Half the requests are `Q_{0,4}(bw)` as an OQL `Query` through the
//! sharded front door (`NetServer::pump_session_sharded`); a quarter are
//! `Q_{0,3}(bw)` and a quarter `Q_{1,2}(fw)` through
//! `ShardedDatabase::backward/forward`.  Targets are uniform.  Every
//! answer is checked against the primary's own `Database` and
//! `asr_oql::execute` after the timed window.

use std::collections::HashMap;
use std::time::Instant;

use asr_core::{AsrId, Cell, Database};
use asr_costmodel::Op;
use asr_durable::{DurableDatabase, MemStorage};
use asr_gom::{Oid, Value};
use asr_net::{RequestBody, ResponseBody, WireClient};
use asr_pagesim::IoSnapshot;

use crate::common::{
    class_overhead, digest, mean, median, peak_rss_mb, reset_peak_rss, sorted_digest, Outcome, Rng,
    Window,
};
use crate::model::{Fidelity, Pricer};
use crate::restarts::Restarts;
use crate::rungs;
use crate::setup::{self, Chain, SetupTimes, ShardFront};
use crate::trace::{finish_trace, io_delta, Recorder};
use crate::Config;

/// Population divisor: the fig14 population at 1/4 scale.
pub const SCALE_DIV: f64 = 4.0;

/// Percentile of `read_tail_us` (about 700k OQL reads per run).
const TAIL_P: f64 = 99.0;

/// Ops whose pages make up `pages_per_op` (every run completes them, so
/// the figure repeats exactly for a seed).
const PAGE_PREFIX: usize = 16384;

/// Ops replayed per rung in the traced run.
const TRACE_OPS: usize = 4096;

/// Ops per block of the traced run: each rung replays a block before the
/// next rung takes it, so every rung runs warm and all rungs share the
/// host's drift.
const BLOCK: usize = 256;

/// Set-ups per untraced run (`setup_s` is their median).
const SETUPS: usize = 3;

/// Restarts per untraced run (`recovery_s` is their mean).
const RESTARTS: usize = 11;

/// RNG lane of the op stream.
const LANE_OPS: u64 = 2;

/// One request of the fig14 query mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadOp {
    /// `Q_{0,4}(bw)` as OQL on `Tag = k`.
    Oql(i64),
    /// `Q_{0,3}(bw)` from a `T3` target.
    Bw03(Oid),
    /// `Q_{1,2}(fw)` from a `T1` start.
    Fw12(Oid),
}

impl ReadOp {
    /// Draw the next op: 1/2 OQL, 1/4 each span.
    pub fn draw(rng: &mut Rng, chain: &Chain) -> Self {
        match rng.below(4) {
            0 | 1 => ReadOp::Oql(rng.below(chain.tags()) as i64),
            2 => ReadOp::Bw03(rng.pick(&chain.levels[3])),
            _ => ReadOp::Fw12(rng.pick(&chain.levels[1])),
        }
    }

    /// The op as the cost model prices it (the `Tag` step makes the OQL
    /// predicate a `Q_{0,5}` span on the extended chain).
    pub fn model_op(self) -> Op {
        match self {
            ReadOp::Oql(_) => Op::bw(0, 5),
            ReadOp::Bw03(_) => Op::bw(0, 3),
            ReadOp::Fw12(_) => Op::fw(1, 2),
        }
    }

    /// The op as a span of the binary decomposition: partitions
    /// `(i, j)`, direction (forward?) and the start cell.
    pub fn span(self) -> ((usize, usize), bool, Cell) {
        match self {
            ReadOp::Oql(k) => ((0, 5), false, Cell::Value(Value::Integer(k))),
            ReadOp::Bw03(t) => ((0, 3), false, Cell::Oid(t)),
            ReadOp::Fw12(s) => ((1, 2), true, Cell::Oid(s)),
        }
    }

    /// Is this an OQL request?
    pub fn is_oql(self) -> bool {
        matches!(self, ReadOp::Oql(_))
    }
}

/// Answer to one op through the front door: digest and modeled pages.
struct Answer {
    digest: u64,
    pages: u64,
}

/// Send `op` through the front door.  `Err` carries why the request
/// failed (error response, client error or a `partial` answer).
fn call(client: &mut WireClient<ShardFront>, asr: AsrId, op: ReadOp) -> Result<Answer, String> {
    match op {
        ReadOp::Oql(k) => {
            let resp = client
                .call(RequestBody::Query(Chain::oql(k)))
                .map_err(|e| format!("client error: {e}"))?;
            if !resp.partial.is_empty() {
                return Err(format!("partial answer, missing {:?}", resp.partial));
            }
            match resp.body {
                ResponseBody::Table { rows, .. } => Ok(Answer {
                    digest: digest(&rows),
                    pages: resp.io.accesses(),
                }),
                other => Err(format!("unexpected response {other:?}")),
            }
        }
        ReadOp::Bw03(_) | ReadOp::Fw12(_) => {
            let front = client.transport_mut();
            let got = span_on(&mut front.backend, asr, op).map_err(|e| e.to_string());
            let (io, _) = front.backend.fleet_mut().take_io();
            let missing = front.backend.take_degraded();
            if !missing.is_empty() {
                return Err(format!("partial answer, missing {missing:?}"));
            }
            let (digest, _) = got?;
            Ok(Answer {
                digest,
                pages: io.accesses(),
            })
        }
    }
}

/// A span op on the coordinator: `(sorted-answer digest, rows)`.
fn span_on(
    sharded: &mut asr_server::ShardedDatabase,
    asr: AsrId,
    op: ReadOp,
) -> asr_core::Result<(u64, usize)> {
    match op {
        ReadOp::Bw03(t) => sharded
            .backward(asr, 0, 3, &Cell::Oid(t))
            .map(sorted_digest),
        ReadOp::Fw12(s) => sharded.forward(asr, 1, 2, s).map(sorted_digest),
        ReadOp::Oql(_) => unreachable!("OQL goes through the session"),
    }
}

/// The expected answer from the primary itself.
fn expected(db: &Database, asr: AsrId, op: ReadOp) -> Result<u64, String> {
    match op {
        ReadOp::Oql(k) => asr_oql::execute(db, &Chain::oql(k))
            .map(|rs| digest(&rs.rows))
            .map_err(|e| e.to_string()),
        ReadOp::Bw03(t) => db
            .backward(asr, 0, 3, &Cell::Oid(t))
            .map(|v| sorted_digest(v).0)
            .map_err(|e| e.to_string()),
        ReadOp::Fw12(s) => db
            .forward(asr, 1, 2, s)
            .map(|v| sorted_digest(v).0)
            .map_err(|e| e.to_string()),
    }
}

/// The op as a local ASR span on the primary (the asr rung).
fn asr_span(db: &Database, asr: AsrId, op: ReadOp) -> asr_core::Result<(u64, usize)> {
    match op {
        ReadOp::Oql(k) => db
            .backward(asr, 0, 5, &Cell::Value(Value::Integer(k)))
            .map(sorted_digest),
        ReadOp::Bw03(t) => db.backward(asr, 0, 3, &Cell::Oid(t)).map(sorted_digest),
        ReadOp::Fw12(s) => db.forward(asr, 1, 2, s).map(sorted_digest),
    }
}

/// What one set-up built.
struct Served {
    primary: DurableDatabase<MemStorage>,
    client: WireClient<ShardFront>,
    chain: Chain,
    times: SetupTimes,
}

fn build(cfg: &Config, rec: Option<&Recorder>) -> Served {
    let mut times = SetupTimes::default();
    let (primary, chain) = setup::primary(cfg, SCALE_DIV, &mut times, rec);
    let sharded = setup::fleet(&primary, &mut times, rec);
    Served {
        primary,
        client: WireClient::new(ShardFront::new(sharded)),
        chain,
        times,
    }
}

/// The storage `recovery_s` reopens: the primary's set-up checkpoint,
/// with nothing to replay (the primary writes nothing while it serves
/// reads).
pub fn restart_storage(cfg: &Config) -> (MemStorage, u64) {
    let (primary, _) = setup::primary(cfg, SCALE_DIV, &mut SetupTimes::default(), None);
    (primary.storage().clone(), 0)
}

/// Run `span_read` (untraced or traced per `cfg.trace`).
pub fn run(cfg: &Config, out: &mut Outcome) {
    if cfg.trace {
        traced(cfg, out);
        return;
    }
    let mut restarts = match Restarts::spawn(cfg, SCALE_DIV, cfg.seconds, RESTARTS) {
        Ok(r) => r,
        Err(e) => return out.check(false, || e),
    };
    let (served, setup_s) = setup::repeated(SETUPS, || build(cfg, None));
    let Served {
        primary,
        mut client,
        chain,
        ..
    } = served;
    let asr = chain.asr;
    let pricer = Pricer::new(&chain.spec);

    let mut rng = Rng::new(cfg.seed, LANE_OPS);
    let mut done: Vec<(ReadOp, u64)> = Vec::new();
    let (mut lat_oql, mut lat_span) = (Vec::new(), Vec::new());
    let mut fidelity = Fidelity::default();
    let mut prefix_pages = 0u64;
    // `peak_rss_mb` is the serving footprint after the op stream's fixed
    // prefix: set-up transients stay out of it, and so do the extra
    // work (and the client's per-op records) of a faster window.
    reset_peak_rss();
    let mut peak_rss = 0.0;
    let mut window = Window::new(TAIL_P);
    let mut requests = 0usize;
    while window.elapsed() < cfg.seconds || requests < PAGE_PREFIX {
        let op = ReadOp::draw(&mut rng, &chain);
        let t = Instant::now();
        let got = call(&mut client, asr, op);
        let us = t.elapsed().as_secs_f64() * 1e6;
        // The read metrics follow the OQL class: a median over the 50/50
        // mix of OQL and span requests would sit on the class boundary.
        window.add(1, us / 1e6, op.is_oql().then_some(us));
        let index = requests;
        requests += 1;
        if requests == PAGE_PREFIX {
            peak_rss = peak_rss_mb();
        }
        restarts.tick(window.elapsed(), out);
        match got {
            Ok(a) => {
                if index < PAGE_PREFIX {
                    prefix_pages += a.pages;
                    fidelity.add(pricer.price(op.model_op()), a.pages);
                }
                done.push((op, a.digest));
                if op.is_oql() {
                    lat_oql.push(us);
                } else {
                    lat_span.push(us);
                }
            }
            Err(e) => out.check(false, || e),
        }
    }

    // Answer checks, outside the timed window.  Targets repeat, so each
    // distinct op is asked of the primary once.
    let db = primary.database();
    let mut oracle: HashMap<ReadOp, Result<u64, String>> = HashMap::new();
    for (op, got) in &done {
        let want = oracle.entry(*op).or_insert_with(|| expected(db, asr, *op));
        out.check(want.as_ref() == Ok(got), || {
            format!("{op:?}: front door {got:x}, primary {want:?}")
        });
    }
    let recovery_s = restarts.finish(out);

    out.latency("oql (Q_{0,4} bw via session)", &lat_oql);
    out.latency("span (Q_{0,3} bw, Q_{1,2} fw via fleet)", &lat_span);
    out.note(window.describe());
    out.note(format!(
        "requests {requests}, failed_frac {:.6}, cost model {:.2} pages/op predicted, measured/predicted {:.3}",
        out.failed as f64 / out.attempted.max(1) as f64,
        fidelity.predicted_per_op(),
        fidelity.ratio()
    ));
    out.set("setup_s", setup_s);
    out.set("ops_per_s", window.ops_per_s());
    out.set("read_p50_us", window.read_p50());
    out.set("read_tail_us", window.read_tail());
    out.set("pages_per_op", prefix_pages as f64 / PAGE_PREFIX as f64);
    out.set("recovery_s", recovery_s);
    out.set("peak_rss_mb", peak_rss);
}

/// The traced run: one set-up, then the op stream replayed at each entry
/// point, top to bottom, one block of ops at a time.  Every rung reads
/// the same (unchanging) primary and fleet.
fn traced(cfg: &Config, out: &mut Outcome) {
    let rec = Recorder::new();
    let Served {
        primary,
        mut client,
        chain,
        times,
    } = build(cfg, Some(&rec));
    times.report(out);
    let asr = chain.asr;
    let pricer = Pricer::new(&chain.spec);
    let mut rng = Rng::new(cfg.seed, LANE_OPS);
    let ops: Vec<ReadOp> = (0..TRACE_OPS)
        .map(|_| ReadOp::draw(&mut rng, &chain))
        .collect();
    let db = primary.database();
    let stats = db.stats().clone();
    let fleet_frames = |c: &WireClient<ShardFront>| -> u64 {
        let stats = c.transport().backend.fleet().client_stats();
        stats.iter().map(|s| s.frames_sent).sum()
    };

    let (mut untraced, mut lat_oql, mut lat_span) = (Vec::new(), Vec::new(), Vec::new());
    let mut fidelity = Fidelity::default();
    let (mut bytes, mut merged, mut hot, mut io, mut rows) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut planned, mut scatter_frames) = (0usize, 0u64);
    for (b, block) in ops.chunks(BLOCK).enumerate() {
        let first = b * BLOCK;
        let mut wants = Vec::with_capacity(block.len());
        for (j, &op) in block.iter().enumerate() {
            let i = first + j;
            rec.set_req(i as u64);
            // Wire, untraced: the tracing-overhead baseline.
            let t = Instant::now();
            let got = call(&mut client, asr, op);
            let us = t.elapsed().as_secs_f64() * 1e6;
            untraced.push(us);
            if op.is_oql() {
                lat_oql.push(us);
            } else {
                lat_span.push(us);
            }
            let want = match got {
                Ok(a) => {
                    fidelity.add(pricer.price(op.model_op()), a.pages);
                    Some(a.digest)
                }
                Err(e) => {
                    out.check(false, || e);
                    None
                }
            };
            wants.push(want);

            // Wire, traced: the session pump is a child span.
            client.transport_mut().rec = Some(rec.clone());
            let got = rec.span("client.request", || call(&mut client, asr, op));
            client.transport_mut().rec = None;
            out.check(got.map(|a| a.digest).ok() == want, || {
                format!("{op:?}: traced answer differs")
            });

            if let ReadOp::Oql(k) = op {
                // Server and codec: a pre-encoded frame into the session pump.
                let body = || RequestBody::Query(Chain::oql(k));
                let ok = rungs::pump_and_codec(&rec, client.transport_mut(), body, &mut bytes);
                out.check(ok, || format!("{op:?}: frames do not round-trip"));
            }
        }
        for (j, &op) in block.iter().enumerate() {
            let i = first + j;
            rec.set_req(i as u64);
            // Coordinator: scatter-gather without wire or session.
            let before = fleet_frames(&client);
            let sharded = &mut client.transport_mut().backend;
            let got = match op {
                ReadOp::Oql(k) => rec.span("oql.sharded", || {
                    sharded
                        .query(&Chain::oql(k))
                        .map(|rs| digest(&rs.rows))
                        .map_err(|e| e.to_string())
                }),
                _ => rec.span("server.shard.span", || {
                    span_on(sharded, asr, op)
                        .map(|(d, _)| d)
                        .map_err(|e| e.to_string())
                }),
            };
            let (fleet_io, max) = sharded.fleet_mut().take_io();
            merged.push(fleet_io.accesses() as f64);
            hot.push(max as f64);
            scatter_frames += fleet_frames(&client) - before;
            out.check(got.ok() == wants[j], || {
                format!("{op:?}: coordinator answer differs")
            });
        }
        for (j, &op) in block.iter().enumerate() {
            let i = first + j;
            rec.set_req(i as u64);
            // oql on the primary's live trees.
            if let ReadOp::Oql(k) = op {
                let (uses_asr, got) = rungs::oql(&rec, db, k, &mut rows);
                planned += usize::from(uses_asr);
                out.check(got == wants[j], || format!("{op:?}: local OQL differs"));
            }
        }
        for (j, &op) in block.iter().enumerate() {
            let i = first + j;
            rec.set_req(i as u64);
            // asr: Database::forward/backward on the primary.
            let before = stats.snapshot();
            let got = rec.span("asr.query", || asr_span(db, asr, op));
            io.push(io_delta(&before, &stats.snapshot()));
            let via_asr = got.map(|(_, n)| n).ok();

            // pagesim: the span walk as raw partition probes.
            let (parts, forward, start) = op.span();
            let walked = rungs::probe_walk(&rec, db, asr, parts, forward, start);
            out.check(via_asr == Some(walked), || {
                format!("{op:?}: probe walk found {walked} rows, asr {via_asr:?}")
            });
        }
    }

    let (p50, tail) = out.latency("oql", &lat_oql);
    out.set("client.oql_p50_us", p50);
    out.set("client.oql_tail_us", tail);
    let (p50, tail) = out.latency("span", &lat_span);
    out.set("client.span_p50_us", p50);
    out.set("client.span_tail_us", tail);
    let classes: Vec<usize> = ops.iter().map(|op| usize::from(op.is_oql())).collect();
    let traced_us = rec.durations_us("client.request");
    out.set(
        "trace.overhead_us_per_req",
        class_overhead(&classes, &untraced, &traced_us),
    );
    let oql_only = |v: Vec<f64>| -> Vec<f64> {
        v.into_iter()
            .zip(&ops)
            .filter(|(_, op)| op.is_oql())
            .map(|(x, _)| x)
            .collect()
    };
    out.set(
        "net.wire_self_us",
        median(&oql_only(rec.self_us("client.request"))),
    );
    out.set(
        "net.codec_us_per_req",
        median(&rec.durations_us("net.codec")),
    );
    out.set("net.bytes_per_req", mean(&bytes));
    let fleet_retries: u64 = client
        .transport()
        .backend
        .fleet()
        .client_stats()
        .iter()
        .map(|s| s.retries)
        .sum();
    out.set(
        "net.retries",
        (client.stats().retries + fleet_retries) as f64,
    );
    let pumped = client.transport().pumped;
    out.set("server.pump.replayed", pumped.replayed as f64);
    out.set("server.pump.nacked", pumped.nacked as f64);
    let oql_sharded = median(&rec.durations_us("oql.sharded"));
    out.set(
        "server.pump_us_per_req",
        median(&rec.durations_us("server.pump_frame")) - oql_sharded,
    );
    out.set(
        "server.shard.frames_per_span",
        scatter_frames as f64 / ops.len() as f64,
    );
    out.set("server.shard.merged_pages_per_op", mean(&merged));
    out.set("server.shard.hot_pages_per_op", mean(&hot));
    let asr_us = rec.durations_us("asr.query");
    let asr_oql = median(&oql_only(asr_us.clone()));
    let asr_span_us: Vec<f64> = asr_us
        .iter()
        .zip(&ops)
        .filter(|(_, op)| !op.is_oql())
        .map(|(&x, _)| x)
        .collect();
    out.set(
        "server.shard.us_per_span",
        median(&rec.durations_us("server.shard.span")) - median(&asr_span_us),
    );
    let oql_ops = ops.iter().filter(|op| op.is_oql()).count().max(1);
    out.set(
        "oql.us_per_query",
        median(&rec.durations_us("oql.local")) - asr_oql,
    );
    out.set("oql.asr_planned_frac", planned as f64 / oql_ops as f64);
    out.set("oql.rows_per_query", mean(&rows));
    out.set("asr.query_us", median(&asr_us));
    out.set("asr.query_pages", rungs::mean_io(&io, IoSnapshot::accesses));
    rungs::report_pagesim(out, &io);
    out.set(
        "pagesim.probe_us",
        median(&rec.durations_us("pagesim.probe")),
    );
    out.set(
        "costmodel.predicted_pages_per_op",
        fidelity.predicted_per_op(),
    );
    out.set("costmodel.measured_over_predicted", fidelity.ratio());
    finish_trace(cfg, &rec, out);
}
