//! Rungs of the traced run that more than one workload climbs: the
//! pre-encoded frame into the session pump with its codec round trip,
//! the local OQL executor, the raw partition-probe walk, and the pagesim
//! ledger.

use std::collections::BTreeSet;

use asr_core::{AsrId, Cell, Database};
use asr_net::{decode_frame, Request, RequestBody, WireMessage};
use asr_pagesim::IoSnapshot;

use crate::common::{digest, mean, Outcome};
use crate::setup::{Backend, Chain, Front};
use crate::trace::Recorder;

/// The server and codec rungs: `body` as a pre-encoded frame straight
/// into `front`'s session pump (`server.pump_frame`), then both frames of
/// the exchange through the codec (`net.codec`: encode the request
/// afresh, decode both frames, re-encode the response).  Pushes the
/// exchange's bytes onto `bytes`; true when every frame round-trips.
pub fn pump_and_codec<B: Backend>(
    rec: &Recorder,
    front: &mut Front<B>,
    body: impl Fn() -> RequestBody,
    bytes: &mut Vec<f64>,
) -> bool {
    let frame = front.encode_frame(body());
    let resp = rec.span("server.pump_frame", || front.pump_frame(frame.clone()));
    resp.as_ref().is_some_and(|resp| {
        bytes.push((frame.len() + resp.len()) as f64);
        rec.span("net.codec", || {
            let encoded = Request {
                id: 1,
                body: body(),
            }
            .encode();
            matches!(decode_frame(&encoded), Some(WireMessage::Request(_)))
                && matches!(decode_frame(&frame), Some(WireMessage::Request(_)))
                && matches!(decode_frame(resp),
                    Some(WireMessage::Response(r)) if r.encode().len() == resp.len())
        })
    })
}

/// The oql rung: `Q_{0,4}(bw)` for tag `k` through `asr_oql::execute` on
/// the live trees (`oql.local`).  Returns whether the planner answers it
/// from an ASR and the rows' digest; pushes the row count onto `rows`.
pub fn oql(rec: &Recorder, db: &Database, k: i64, rows: &mut Vec<f64>) -> (bool, Option<u64>) {
    let text = Chain::oql(k);
    let planned = asr_oql::parse(&text)
        .ok()
        .and_then(|q| asr_oql::plan::analyze(db, &q).ok())
        .is_some_and(|p| p.uses_index());
    let got = rec.span("oql.local", || asr_oql::execute(db, &text));
    let got = got.ok().map(|rs| {
        rows.push(rs.rows.len() as f64);
        digest(&rs.rows)
    });
    (planned, got)
}

/// The pagesim rung: the span over partitions `i..j` of the binary
/// decomposition from `start`, walked as raw partition probes
/// (`lookup_first_many` forward, `lookup_last_many` backward) inside a
/// `pagesim.probe` span.  Returns the size of the final frontier.
pub fn probe_walk(
    rec: &Recorder,
    db: &Database,
    asr: AsrId,
    (i, j): (usize, usize),
    forward: bool,
    start: Cell,
) -> usize {
    let parts = &db.asr(asr).expect("asr exists").partitions()[i..j];
    rec.span("pagesim.probe", || {
        let mut frontier = BTreeSet::from([start]);
        if forward {
            for part in parts {
                let rows = part.lookup_first_many(frontier.iter());
                frontier = rows.iter().filter_map(|r| r.last().clone()).collect();
            }
        } else {
            for part in parts.iter().rev() {
                let rows = part.lookup_last_many(frontier.iter());
                frontier = rows.iter().filter_map(|r| r.first().clone()).collect();
            }
        }
        frontier.len()
    })
}

/// Mean over per-op I/O deltas of one counter.
pub fn mean_io(io: &[IoSnapshot], f: fn(&IoSnapshot) -> u64) -> f64 {
    mean(&io.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
}

/// Report the `pagesim.*` counters as means over per-op I/O deltas.
pub fn report_pagesim(out: &mut Outcome, io: &[IoSnapshot]) {
    out.set("pagesim.reads_per_op", mean_io(io, |s| s.reads));
    out.set("pagesim.writes_per_op", mean_io(io, |s| s.writes));
    out.set("pagesim.batch_probes", mean_io(io, |s| s.batch_probes));
    out.set(
        "pagesim.batch_pages_saved",
        mean_io(io, |s| s.batch_pages_saved),
    );
}
