//! Building what the workloads serve: the generated fig14 chain, its
//! full binary ASR over `T0.A1.A2.A3.A4.Tag`, the durable primary, the
//! shard fleet, and the two front doors the client talks to.

use std::rc::Rc;
use std::time::Instant;

use asr_core::{AsrConfig, AsrId, Cell, Database, Decomposition, Extension, Row};
use asr_durable::{Channel, DurableDatabase, FlushPolicy, LosslessChannel, MemStorage};
use asr_gom::{Oid, Value};
use asr_net::{Request, RequestBody, Transport};
use asr_server::{NetServer, PumpReport, ServerDb, ShardedDatabase};
use asr_workload::{generate, GeneratorSpec};

use crate::common::{digest, median, Outcome, Rng};
use crate::trace::{maybe_span, Recorder};
use crate::Config;

/// The indexed path: the generated chain plus its terminal `Tag`, so an
/// OQL predicate on `Tag` plans as a backward span over the ASR.
pub const PATH: &str = "T0.A1.A2.A3.A4.Tag";

/// ASR column count minus one (`T0 … T4`, `Tag`).
pub const ARITY: usize = 5;

/// RNG lane of the population seed (the op streams use other lanes).
const LANE_POP: u64 = 1;

/// The generated chain's handles, kept by the client to draw targets.
#[derive(Debug, Clone)]
pub struct Chain {
    /// The ASR id over [`PATH`].
    pub asr: AsrId,
    /// Objects per level `T0 … T4`.
    pub levels: Vec<Vec<Oid>>,
    /// Per level, the owners whose set attribute is defined.
    pub owners: Vec<Vec<Oid>>,
    /// The generator spec (population per level).
    pub spec: GeneratorSpec,
}

impl Chain {
    /// Number of distinct `Tag` values (one per `T4` object).
    pub fn tags(&self) -> usize {
        self.levels[4].len()
    }

    /// The OQL text of `Q_{0,4}(bw)` for tag `k`.
    pub fn oql(k: i64) -> String {
        format!("select t from t in T0 where t.A1.A2.A3.A4.Tag = {k}")
    }

    /// A uniform key cell for column `col` of the ASR.
    pub fn key(&self, col: usize, rng: &mut Rng) -> Cell {
        if col == ARITY {
            Cell::Value(Value::Integer(rng.below(self.tags()) as i64))
        } else {
            Cell::Oid(rng.pick(&self.levels[col]))
        }
    }
}

/// Wall time of each set-up phase, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `asr_workload::generate`.
    pub generate_s: f64,
    /// `create_asr_on`.
    pub asr_build_s: f64,
    /// `DurableDatabase::create`.
    pub durable_create_s: f64,
    /// `ShardedDatabase::from_primary` (0 without a fleet).
    pub shard_seed_s: f64,
}

impl SetupTimes {
    /// Report the phases as the traced run's set-up metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.set("workload.generate_s", self.generate_s);
        out.set("asr.build_s", self.asr_build_s);
        out.set("durable.create_s", self.durable_create_s);
        out.set("server.shard.seed_s", self.shard_seed_s);
    }
}

/// Set up `n` times, keeping only the last: returns it with the median
/// set-up time.  Each earlier set-up is dropped before the next starts.
pub fn repeated<T>(n: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&secs))
}

/// Generate the population for `cfg`'s seed, at `cfg.scale_div` or else
/// `default_scale`, and build the ASR on it.
pub fn population(
    cfg: &Config,
    default_scale: f64,
    times: &mut SetupTimes,
    rec: Option<&Recorder>,
) -> (Database, Chain) {
    let spec = GeneratorSpec::from_profile(
        &asr_costmodel::profiles::fig14_profile().profile,
        cfg.scale_div.unwrap_or(default_scale),
    );
    let seed = Rng::new(cfg.seed, LANE_POP).next_u64();
    let t = Instant::now();
    let g = maybe_span(rec, "workload.generate", || generate(&spec, seed));
    times.generate_s = t.elapsed().as_secs_f64();
    let mut db = g.db;
    let t = Instant::now();
    let asr = maybe_span(rec, "asr.build", || {
        db.create_asr_on(
            PATH,
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::binary(ARITY),
                keep_set_oids: false,
            },
        )
    })
    .expect("the chain ASR builds");
    times.asr_build_s = t.elapsed().as_secs_f64();
    let owners = g
        .sets
        .iter()
        .zip(&g.levels)
        .map(|(sets, objs)| {
            sets.iter()
                .zip(objs)
                .filter(|(s, _)| s.is_some())
                .map(|(_, &o)| o)
                .collect()
        })
        .collect();
    let chain = Chain {
        asr,
        levels: g.levels,
        owners,
        spec,
    };
    (db, chain)
}

/// A fresh durable primary over [`population`].
pub fn primary(
    cfg: &Config,
    default_scale: f64,
    times: &mut SetupTimes,
    rec: Option<&Recorder>,
) -> (DurableDatabase<MemStorage>, Chain) {
    let (db, chain) = population(cfg, default_scale, times, rec);
    (durable(db, times, rec), chain)
}

/// Wrap `db` as a WAL-backed primary flushing every record.
pub fn durable(
    db: Database,
    times: &mut SetupTimes,
    rec: Option<&Recorder>,
) -> DurableDatabase<MemStorage> {
    let t = Instant::now();
    let primary = maybe_span(rec, "durable.create", || {
        DurableDatabase::create(MemStorage::new(), db, FlushPolicy::EveryRecord)
    })
    .expect("the durable primary is created");
    times.durable_create_s = t.elapsed().as_secs_f64();
    primary
}

/// Seed a two-shard fleet from the primary.
pub fn fleet(
    primary: &DurableDatabase<MemStorage>,
    times: &mut SetupTimes,
    rec: Option<&Recorder>,
) -> ShardedDatabase {
    let t = Instant::now();
    let sharded = maybe_span(rec, "server.shard.seed", || {
        ShardedDatabase::from_primary(primary, 2, None)
    })
    .expect("the fleet seeds");
    times.shard_seed_s = t.elapsed().as_secs_f64();
    sharded
}

/// Digest of every stored row of `asr`, partition by partition.
pub fn asr_digest(db: &Database, asr: AsrId) -> u64 {
    let rows: Vec<Vec<Row>> = db
        .asr(asr)
        .expect("asr exists")
        .partitions()
        .iter()
        .map(|p| {
            let mut rows = Vec::with_capacity(p.len());
            p.scan(|r| rows.push(r.clone()));
            rows.sort();
            rows
        })
        .collect();
    digest(&rows)
}

/// What a front door serves: one session pump over its backend.
pub trait Backend {
    /// Drain `rx` through `server`'s session `sid`, answering onto `tx`.
    fn pump(
        &mut self,
        server: &mut NetServer,
        sid: usize,
        rx: &mut LosslessChannel,
        tx: &mut LosslessChannel,
    ) -> PumpReport;
}

impl Backend for DurableDatabase<MemStorage> {
    fn pump(
        &mut self,
        server: &mut NetServer,
        sid: usize,
        rx: &mut LosslessChannel,
        tx: &mut LosslessChannel,
    ) -> PumpReport {
        server.pump_session(sid, &mut ServerDb::Durable(self), rx, tx)
    }
}

impl Backend for ShardedDatabase {
    fn pump(
        &mut self,
        server: &mut NetServer,
        sid: usize,
        rx: &mut LosslessChannel,
        tx: &mut LosslessChannel,
    ) -> PumpReport {
        server.pump_session_sharded(sid, self, rx, tx)
    }
}

/// One session's id and its request/response channels.
struct Session {
    sid: usize,
    rx: LosslessChannel,
    tx: LosslessChannel,
}

impl Session {
    fn open(server: &mut NetServer) -> Self {
        Session {
            sid: server.open_session(),
            rx: LosslessChannel::new(),
            tx: LosslessChannel::new(),
        }
    }
}

/// A front door: a [`NetServer`] over a backend with two sessions, one
/// driven in-process by a [`asr_net::WireClient`] and one fed
/// pre-encoded frames (the server rung of the traced run; its own
/// session keeps its request ids apart from the client's).
pub struct Front<B> {
    server: NetServer,
    client: Session,
    frames: Session,
    next_frame_id: u64,
    /// What the sessions serve (span calls reach the coordinator here).
    pub backend: B,
    /// Accumulated pump reports.
    pub pumped: PumpReport,
    /// Span recorder: when set, client-session pumps record spans.
    pub rec: Option<Rc<Recorder>>,
}

/// The durable primary's front door (`NetServer::pump_session`).
pub type PrimaryFront = Front<DurableDatabase<MemStorage>>;

/// The sharded front door (`NetServer::pump_session_sharded`).
pub type ShardFront = Front<ShardedDatabase>;

impl<B: Backend> Front<B> {
    /// Serve `backend` behind fresh sessions.
    pub fn new(backend: B) -> Self {
        let mut server = NetServer::new();
        let client = Session::open(&mut server);
        let frames = Session::open(&mut server);
        Front {
            server,
            client,
            frames,
            next_frame_id: 1,
            backend,
            pumped: PumpReport::default(),
            rec: None,
        }
    }

    /// Encode `body` as the frame session's next request.
    pub fn encode_frame(&mut self, body: RequestBody) -> Vec<u8> {
        let id = self.next_frame_id;
        self.next_frame_id += 1;
        Request { id, body }.encode()
    }

    /// Push a pre-encoded frame into the frame session, pump it once,
    /// and take the raw response frame.
    pub fn pump_frame(&mut self, frame: Vec<u8>) -> Option<Vec<u8>> {
        let Self {
            server,
            frames,
            backend,
            pumped,
            ..
        } = self;
        frames.rx.send(frame);
        let report = backend.pump(server, frames.sid, &mut frames.rx, &mut frames.tx);
        add_report(pumped, &report);
        frames.tx.recv()
    }

    fn pump_client(&mut self) {
        let Self {
            server,
            client,
            backend,
            pumped,
            rec,
            ..
        } = self;
        let report = maybe_span(rec.as_deref(), "server.pump", || {
            backend.pump(server, client.sid, &mut client.rx, &mut client.tx)
        });
        add_report(pumped, &report);
    }
}

impl<B: Backend> Transport for Front<B> {
    fn send(&mut self, frame: Vec<u8>) {
        self.client.rx.send(frame);
    }

    fn poll(&mut self) -> Option<Vec<u8>> {
        if let Some(resp) = self.client.tx.recv() {
            return Some(resp);
        }
        self.pump_client();
        self.client.tx.recv()
    }
}

impl<B: Backend> Transport for &mut Front<B> {
    fn send(&mut self, frame: Vec<u8>) {
        (**self).send(frame);
    }

    fn poll(&mut self) -> Option<Vec<u8>> {
        (**self).poll()
    }
}

/// Fold one pump pass into a running total.
pub fn add_report(total: &mut PumpReport, r: &PumpReport) {
    total.executed += r.executed;
    total.replayed += r.replayed;
    total.nacked += r.nacked;
    total.dropped_stale += r.dropped_stale;
}

/// Crash the primary: check that nothing acknowledged is still
/// unflushed, and keep its storage (the caller drops the primary).
pub fn crash(primary: &DurableDatabase<MemStorage>, out: &mut Outcome) -> MemStorage {
    let pending = primary.wal_status().pending_records;
    out.check(pending == 0, || {
        format!("{pending} acknowledged records unflushed at the crash")
    });
    primary.storage().clone()
}

/// Reopen `storage`, which must replay exactly `want_replayed` WAL
/// records.  Returns the reopen time and the recovered database.
pub fn restart(
    storage: &MemStorage,
    want_replayed: u64,
    out: &mut Outcome,
) -> (f64, Option<DurableDatabase<MemStorage>>) {
    let t = Instant::now();
    let reopened = DurableDatabase::open(storage.clone());
    let secs = t.elapsed().as_secs_f64();
    match reopened {
        Ok(db) => {
            let replayed = db.recovery_report().records_replayed;
            out.check(replayed == want_replayed, || {
                format!("recovery replayed {replayed} records, want {want_replayed}")
            });
            (secs, Some(db))
        }
        Err(e) => {
            out.check(false, || format!("reopen failed: {e}"));
            (secs, None)
        }
    }
}

/// A durable twin of a fresh population with `writes` (`owner.attr +=
/// elem`) applied after its initial checkpoint, then crashed: the storage
/// that restart samples reopen.  Returns it with the number of logged
/// (fresh) inserts recovery must replay.
pub fn crashed_twin(
    db: Database,
    attr: &str,
    writes: &[(Oid, Oid)],
    out: &mut Outcome,
) -> (MemStorage, u64) {
    let mut twin = durable(db, &mut SetupTimes::default(), None);
    let mut fresh = 0u64;
    for &(owner, elem) in writes {
        let got = twin.insert_into_attr_set(owner, attr, Value::Ref(elem));
        out.check(got.is_ok(), || {
            format!("twin write {owner}.{attr} += {elem} failed")
        });
        fresh += u64::from(got.unwrap_or(false));
    }
    (crash(&twin, out), fresh)
}
