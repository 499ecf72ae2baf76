//! MVCC serving: snapshot-isolated reads in the session multiplexer and
//! the scatter-gather fleet.  Reads answered from a pinned
//! [`asr_core::Snapshot`] must be bit-identical to live execution, the
//! parallel multi-session pump must be indistinguishable from the serial
//! one, and exactly-once semantics must survive duplicated and deferred
//! frames.

mod common;

use asr_core::{AsrConfig, Cell, Database, Decomposition, Extension};
use asr_durable::{
    Channel, ChaosProfile, DurableDatabase, FlushPolicy, LosslessChannel, MemStorage,
};
use asr_gom::Value;
use asr_net::{decode_frame, Request, RequestBody, Response, ResponseBody, WireMessage};
use asr_server::{NetServer, ServerDb, ShardedDatabase};
use common::*;

fn send(ch: &mut LosslessChannel, id: u64, body: RequestBody) {
    ch.send(Request { id, body }.encode());
}

fn drain(ch: &mut LosslessChannel) -> Vec<Response> {
    let mut out = Vec::new();
    while let Some(frame) = ch.recv() {
        match decode_frame(&frame) {
            Some(WireMessage::Response(resp)) => out.push(resp),
            other => panic!("expected response, got {other:?}"),
        }
    }
    out
}

/// `(id, body)` pairs — the client-visible outcome, ignoring the I/O
/// envelope (snapshot reads meter pages differently by design).
fn outcomes(resps: &[Response]) -> Vec<(u64, &ResponseBody)> {
    resps.iter().map(|r| (r.id, &r.body)).collect()
}

/// A plain serving database over the company example with one full ASR,
/// plus probe fodder: the ASR id, division key cells and product cells.
fn serving_company() -> (Database, u32, Vec<Cell>, Vec<Cell>) {
    let ex = asr_workload::company_database();
    let mut db = ex.db;
    let m = ex.path.arity(false) - 1;
    let id = db
        .create_asr_on(
            "Division.Manufactures.Composition.Name",
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::binary(m),
                keep_set_oids: false,
            },
        )
        .expect("ASR builds");
    let door = Cell::Value(Value::string("Door"));
    let divisions: Vec<Cell> = db
        .backward(id, 0, 3, &door)
        .expect("backward")
        .into_iter()
        .map(Cell::Oid)
        .collect();
    assert!(!divisions.is_empty(), "a division must use a Door");
    let start = divisions[0].as_oid().expect("division oid");
    let products = db.forward(id, 0, 1, start).expect("forward");
    (db, id as u32, divisions, products)
}

/// Every span answer off a snapshot-serving fleet must equal the
/// single-node oracle, across randomly decomposed chains and chaotic
/// shard links — and the shards must actually be answering from their
/// pinned views.
#[test]
fn sharded_snapshot_reads_answer_every_span_bit_identically() {
    for seed in [11u64, 29, 47] {
        let staged = stage_chain(seed);
        let mut sharded = ShardedDatabase::from_primary(
            &staged.durable,
            3,
            Some((ChaosProfile::from_seed(seed), seed)),
        )
        .expect("seeds");
        sharded.enable_snapshot_reads();
        assert_spans_match(
            staged.durable.database(),
            &mut sharded,
            &staged,
            &format!("snapshot reads, seed {seed}"),
        );
        let snapshot_served: u64 = (0..sharded.shard_count())
            .map(|i| {
                sharded
                    .fleet()
                    .node(i)
                    .db()
                    .tracer()
                    .metrics()
                    .counter("server.snapshot.reads")
            })
            .sum();
        assert!(
            snapshot_served > 0,
            "seed {seed}: probes and scans must ride the pinned snapshots"
        );
        for i in 0..sharded.shard_count() {
            assert!(
                sharded.fleet().node(i).snapshot_epoch().is_some(),
                "seed {seed}: shard {i} must stay pinned"
            );
        }
    }
}

/// A reseed must move every shard's pin to the new slice: answers after
/// the reseed reflect primary mutations, not the old epoch.
#[test]
fn reseed_refreshes_snapshot_pins_to_the_new_slice() {
    let (mut primary, asr) = company_primary();
    let mut sharded = ShardedDatabase::from_primary(&primary, 2, None).expect("seeds");
    sharded.enable_snapshot_reads();
    let door = Cell::Value(Value::string("Door"));
    let before = primary.database().backward(asr, 0, 3, &door).expect("bw");
    assert_eq!(
        sharded.backward(asr, 0, 3, &door).expect("sharded bw"),
        before
    );

    // Extend the primary with a new division whose product also uses a
    // part named "Door".
    let div = primary.instantiate("Division").unwrap();
    primary
        .set_attribute(div, "Name", Value::string("Marine"))
        .unwrap();
    let prods = primary.instantiate("ProdSET").unwrap();
    primary
        .set_attribute(div, "Manufactures", Value::Ref(prods))
        .unwrap();
    let boat = primary.instantiate("Product").unwrap();
    primary
        .set_attribute(boat, "Name", Value::string("Boat"))
        .unwrap();
    primary
        .insert_into_attr_set(div, "Manufactures", Value::Ref(boat))
        .unwrap();
    let comp = primary.instantiate("BasePartSET").unwrap();
    primary
        .set_attribute(boat, "Composition", Value::Ref(comp))
        .unwrap();
    let part = primary.instantiate("BasePart").unwrap();
    primary
        .set_attribute(part, "Name", Value::string("Door"))
        .unwrap();
    primary
        .insert_into_attr_set(boat, "Composition", Value::Ref(part))
        .unwrap();
    let after = primary.database().backward(asr, 0, 3, &door).expect("bw");
    assert!(after.len() > before.len(), "the mutation must show up");

    sharded.reseed(&primary).expect("reseed");
    assert_eq!(
        sharded
            .backward(asr, 0, 3, &door)
            .expect("sharded bw after reseed"),
        after,
        "pins must move to the reseeded slice"
    );
    for i in 0..sharded.shard_count() {
        assert!(sharded.fleet().node(i).snapshot_epoch().is_some());
    }
}

/// The parallel pump must be client-indistinguishable from pumping the
/// same sessions serially: identical `(id, body)` streams per session,
/// identical execute/replay accounting — while the read prefixes
/// actually ran concurrently off one pinned snapshot.
#[test]
fn parallel_pump_matches_serial_execution() {
    let (mut serial_db, asr, divisions, products) = serving_company();
    let (mut parallel_db, asr2, _, _) = serving_company();
    assert_eq!(asr, asr2, "the two builds are deterministic twins");
    let door = Cell::Value(Value::string("Door"));

    let scripts: Vec<Vec<RequestBody>> = vec![
        vec![
            RequestBody::ShardProbe {
                asr,
                part: 0,
                forward: true,
                keys: divisions.clone(),
            },
            RequestBody::ShardScan {
                asr,
                part: 1,
                offset: 0,
                frontier: products.clone(),
            },
            RequestBody::BindVar {
                name: "w0".to_string(),
                value: Value::string("x"),
            },
            RequestBody::Ping,
        ],
        vec![
            RequestBody::Ping,
            RequestBody::BindVar {
                name: "w1".to_string(),
                value: Value::string("y"),
            },
        ],
        vec![
            RequestBody::ShardProbe {
                asr,
                part: 2,
                forward: false,
                keys: vec![door.clone()],
            },
            RequestBody::Ping,
        ],
    ];

    // Serial baseline: one session at a time, live execution only.
    let mut serial_server = NetServer::new();
    let mut serial_out: Vec<Vec<Response>> = Vec::new();
    let mut serial_executed = 0u64;
    for script in &scripts {
        let sid = serial_server.open_session();
        let (mut rx, mut tx) = (LosslessChannel::new(), LosslessChannel::new());
        for (i, body) in script.iter().enumerate() {
            send(&mut rx, i as u64 + 1, body.clone());
        }
        // Duplicate the last frame of session 1: the replay path.
        if script.len() == 2 {
            send(&mut rx, script.len() as u64, script.last().unwrap().clone());
        }
        let report = serial_server.pump_session(
            sid,
            &mut ServerDb::<MemStorage>::Plain(&mut serial_db),
            &mut rx,
            &mut tx,
        );
        serial_executed += report.executed;
        serial_out.push(drain(&mut tx));
    }

    // Parallel run: same scripts, one pass, four workers.
    let mut parallel_server = NetServer::new();
    let mut channels: Vec<(usize, LosslessChannel, LosslessChannel)> = scripts
        .iter()
        .map(|script| {
            let sid = parallel_server.open_session();
            let mut rx = LosslessChannel::new();
            for (i, body) in script.iter().enumerate() {
                send(&mut rx, i as u64 + 1, body.clone());
            }
            if script.len() == 2 {
                send(&mut rx, script.len() as u64, script.last().unwrap().clone());
            }
            (sid, rx, LosslessChannel::new())
        })
        .collect();
    let mut sessions: Vec<(usize, &mut dyn Channel, &mut dyn Channel)> = channels
        .iter_mut()
        .map(|(sid, rx, tx)| (*sid, rx as &mut dyn Channel, tx as &mut dyn Channel))
        .collect();
    let report = parallel_server.pump_sessions_parallel(
        &mut ServerDb::<MemStorage>::Plain(&mut parallel_db),
        &mut sessions,
        4,
    );

    assert_eq!(report.executed, serial_executed);
    assert_eq!(parallel_server.requests_executed(), serial_executed);
    for (slot, (_, _, tx)) in channels.iter_mut().enumerate() {
        let got = drain(tx);
        assert_eq!(
            outcomes(&got),
            outcomes(&serial_out[slot]),
            "session {slot} diverged from serial execution"
        );
    }
    // S0's probe+scan, S1's leading ping, S2's probe+ping rode the pin.
    let metrics = parallel_db.tracer().metrics();
    assert_eq!(metrics.counter("server.snapshot.reads"), 5);
    assert_eq!(metrics.counter("server.snapshot.batches"), 1);
}

/// `ShardProbe` keys arrive off the wire in whatever order the client
/// sent them.  Unsorted and repeated keys must get the same answer from
/// the pinned snapshot as from live serial execution: each key's rows,
/// in arrival order.
#[test]
fn unsorted_probe_keys_answer_like_the_serial_pump() {
    let (mut serial_db, asr, divisions, _) = serving_company();
    let (mut parallel_db, _, _, _) = serving_company();
    assert!(divisions.len() >= 2, "need several probe keys");
    let mut keys: Vec<Cell> = divisions.iter().rev().cloned().collect();
    keys.push(divisions[divisions.len() - 1].clone());
    let mut expected = Vec::new();
    for key in &keys {
        expected.extend(serial_db.asr(asr as usize).unwrap().partitions()[0].lookup_first(key));
    }
    assert!(!expected.is_empty());
    let script = [
        RequestBody::ShardProbe {
            asr,
            part: 0,
            forward: true,
            keys,
        },
        RequestBody::Ping,
    ];

    let mut serial_server = NetServer::new();
    let sid = serial_server.open_session();
    let (mut rx, mut tx) = (LosslessChannel::new(), LosslessChannel::new());
    for (i, body) in script.iter().enumerate() {
        send(&mut rx, i as u64 + 1, body.clone());
    }
    serial_server.pump_session(
        sid,
        &mut ServerDb::<MemStorage>::Plain(&mut serial_db),
        &mut rx,
        &mut tx,
    );
    let serial_out = drain(&mut tx);

    let mut parallel_server = NetServer::new();
    let sid = parallel_server.open_session();
    let (mut rx, mut tx) = (LosslessChannel::new(), LosslessChannel::new());
    for (i, body) in script.iter().enumerate() {
        send(&mut rx, i as u64 + 1, body.clone());
    }
    let mut sessions: Vec<(usize, &mut dyn Channel, &mut dyn Channel)> = vec![(
        sid,
        &mut rx as &mut dyn Channel,
        &mut tx as &mut dyn Channel,
    )];
    parallel_server.pump_sessions_parallel(
        &mut ServerDb::<MemStorage>::Plain(&mut parallel_db),
        &mut sessions,
        2,
    );
    let parallel_out = drain(&mut tx);

    assert_eq!(outcomes(&parallel_out), outcomes(&serial_out));
    assert_eq!(serial_out[0].body, ResponseBody::Rows(expected));
    assert_eq!(
        parallel_db
            .tracer()
            .metrics()
            .counter("server.snapshot.reads"),
        2,
        "the probe must ride the pinned snapshot"
    );
}

/// A `Shutdown` deferred to the serial tail still closes the session
/// before any request queued behind it.
#[test]
fn shutdown_in_the_tail_closes_before_later_requests() {
    let (mut db, _, _, _) = serving_company();
    let mut server = NetServer::new();
    let sid = server.open_session();
    let (mut rx, mut tx) = (LosslessChannel::new(), LosslessChannel::new());
    send(&mut rx, 1, RequestBody::Ping);
    send(&mut rx, 2, RequestBody::Shutdown);
    send(&mut rx, 3, RequestBody::Ping);
    let mut sessions: Vec<(usize, &mut dyn Channel, &mut dyn Channel)> =
        vec![(sid, &mut rx, &mut tx)];
    let report = server.pump_sessions_parallel(
        &mut ServerDb::<MemStorage>::Plain(&mut db),
        &mut sessions,
        2,
    );
    assert_eq!(report.executed, 2, "the post-shutdown ping must not run");
    assert!(!server.session_open(sid));
    let resps = drain(&mut tx);
    assert_eq!(resps.len(), 3);
    assert_eq!((resps[0].id, &resps[0].body), (1, &ResponseBody::Ok));
    assert_eq!((resps[1].id, &resps[1].body), (2, &ResponseBody::Ok));
    match &resps[2].body {
        ResponseBody::Err(msg) => assert!(msg.contains("closed")),
        other => panic!("expected err, got {other:?}"),
    }
}

/// A read frame duplicated within one drain executes once: the copy is
/// deferred past the concurrent phase and settles as a replay.
#[test]
fn duplicated_read_frame_never_double_executes() {
    let (mut db, asr, divisions, _) = serving_company();
    let mut server = NetServer::new();
    let sid = server.open_session();
    let (mut rx, mut tx) = (LosslessChannel::new(), LosslessChannel::new());
    let probe = RequestBody::ShardProbe {
        asr,
        part: 0,
        forward: true,
        keys: divisions,
    };
    send(&mut rx, 1, probe.clone());
    send(&mut rx, 1, probe);
    let mut sessions: Vec<(usize, &mut dyn Channel, &mut dyn Channel)> =
        vec![(sid, &mut rx, &mut tx)];
    let report = server.pump_sessions_parallel(
        &mut ServerDb::<MemStorage>::Plain(&mut db),
        &mut sessions,
        2,
    );
    assert_eq!(report.executed, 1);
    assert_eq!(report.replayed, 1);
    assert_eq!(server.requests_executed(), 1);
    let resps = drain(&mut tx);
    assert_eq!(resps.len(), 2);
    assert_eq!(resps[0], resps[1], "the replay is byte-identical");
}

/// The tentpole wiring end to end on a durable primary: the read prefix
/// rides a snapshot while tail mutations flow through the WAL — and
/// survive recovery.
#[test]
fn durable_parallel_pump_logs_tail_writes() {
    let (db, asr, divisions, _) = serving_company();
    let disk = MemStorage::new();
    let mut primary =
        DurableDatabase::create(disk.clone(), db, FlushPolicy::EveryRecord).expect("creates");
    let objects_before = primary.database().base().object_count();

    let mut server = NetServer::new();
    let reader_sid = server.open_session();
    let writer_sid = server.open_session();
    let (mut read_rx, mut read_tx) = (LosslessChannel::new(), LosslessChannel::new());
    let (mut write_rx, mut write_tx) = (LosslessChannel::new(), LosslessChannel::new());
    send(
        &mut read_rx,
        1,
        RequestBody::ShardProbe {
            asr,
            part: 0,
            forward: true,
            keys: divisions,
        },
    );
    for id in 1..=2u64 {
        send(
            &mut write_rx,
            id,
            RequestBody::Instantiate {
                type_name: "BasePart".to_string(),
            },
        );
    }
    let mut sessions: Vec<(usize, &mut dyn Channel, &mut dyn Channel)> = vec![
        (reader_sid, &mut read_rx, &mut read_tx),
        (writer_sid, &mut write_rx, &mut write_tx),
    ];
    let report =
        server.pump_sessions_parallel(&mut ServerDb::Durable(&mut primary), &mut sessions, 2);
    assert_eq!(report.executed, 3);
    match &drain(&mut read_tx)[0].body {
        ResponseBody::Rows(rows) => assert!(!rows.is_empty(), "the probe must see rows"),
        other => panic!("expected rows, got {other:?}"),
    }
    assert_eq!(drain(&mut write_tx).len(), 2);

    drop(primary);
    let recovered = DurableDatabase::open(disk).expect("recovers");
    assert_eq!(
        recovered.database().base().object_count(),
        objects_before + 2,
        "tail writes must be WAL-logged and replayed"
    );
}
