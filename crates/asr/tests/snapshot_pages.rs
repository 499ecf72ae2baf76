//! Snapshot reads charge exactly the pages live reads charge.
//!
//! A snapshot's partitions are frozen copies of the live clustering
//! trees, read through the same descent and scan code, so at the same
//! epoch every `Snapshot::probe` / `Snapshot::scan_filter` must charge its
//! meter exactly what `lookup_first_many` / `lookup_last_many` / `scan`
//! charge the live `IoStats` — in every partition, in both directions,
//! for single keys and ascending batches alike.  The equality must
//! survive a write burst that splits leaves while an older snapshot stays
//! pinned and keeps answering as of its own epoch.

use std::collections::BTreeSet;

use asr_core::{AsrConfig, AsrId, Cell, Database, Decomposition, Extension, Row, Snapshot};
use asr_gom::{Oid, PathExpression, Schema, Value};

/// Chains created before the ASR is built.
const INITIAL: usize = 1200;
/// Chains added by the write burst (enough to split leaves of 253).
const BURST: usize = 700;

/// `T0.A1.A2.Name` with a full, binary ASR.  Two `T1`s share each `T2`
/// and names repeat, so backward keys cluster several rows.
fn chain_db() -> (Database, AsrId) {
    let mut s = Schema::new();
    s.define_tuple("T0", [("A1", "T1")]).unwrap();
    s.define_tuple("T1", [("A2", "T2")]).unwrap();
    s.define_tuple("T2", [("Name", "STRING")]).unwrap();
    s.validate().unwrap();
    let path = PathExpression::parse(&s, "T0.A1.A2.Name").unwrap();
    let mut db = Database::new(s);
    add_chains(&mut db, 0, INITIAL);
    let config = AsrConfig {
        extension: Extension::Full,
        decomposition: Decomposition::binary(3),
        keep_set_oids: false,
    };
    let id = db.create_asr(path, config).unwrap();
    (db, id)
}

/// Add `count` chains `T0 → T1 → T2 → name`, numbered from `first`.
fn add_chains(db: &mut Database, first: usize, count: usize) {
    let mut t2 = None;
    for k in first..first + count {
        if k % 2 == 0 || t2.is_none() {
            let leaf = db.instantiate("T2").unwrap();
            db.set_attribute(leaf, "Name", Value::string(format!("n{}", k % 40)))
                .unwrap();
            t2 = Some(leaf);
        }
        let t1 = db.instantiate("T1").unwrap();
        db.set_attribute(t1, "A2", Value::Ref(t2.unwrap())).unwrap();
        let t0 = db.instantiate("T0").unwrap();
        db.set_attribute(t0, "A1", Value::Ref(t1)).unwrap();
    }
}

/// The distinct first- or last-column cells of a partition, ascending.
fn keys(rows: &[Row], forward: bool) -> Vec<Cell> {
    let set: BTreeSet<Cell> = rows
        .iter()
        .filter_map(|r| if forward { r.first() } else { r.last() }.clone())
        .collect();
    set.into_iter().collect()
}

/// Single-key batches and ascending multi-key batches over `keys`, plus
/// one descending batch with a repeated key (wire probes come unsorted).
fn batches(keys: &[Cell]) -> Vec<Vec<Cell>> {
    let mut out: Vec<Vec<Cell>> = keys.iter().step_by(97).map(|k| vec![k.clone()]).collect();
    out.extend(keys.last().map(|k| vec![k.clone()]));
    out.extend(keys.chunks(6).step_by(23).map(<[Cell]>::to_vec));
    out.push(keys.iter().step_by(11).cloned().collect());
    out.push(keys.to_vec());
    let mut unsorted: Vec<Cell> = keys.iter().rev().step_by(7).cloned().collect();
    unsorted.extend(keys.first().cloned());
    out.push(unsorted);
    out
}

/// Every partition, both directions: snapshot answers and page charges
/// equal the live ones.  Returns how many batches were compared.
fn assert_pages_equal(db: &Database, snap: &Snapshot, id: AsrId) -> usize {
    let stats = db.stats();
    let mut compared = 0;
    for (pidx, part) in db.asr(id).unwrap().partitions().iter().enumerate() {
        let mut rows = Vec::new();
        part.scan(|r| rows.push(r.clone()));
        for forward in [true, false] {
            for batch in batches(&keys(&rows, forward)) {
                let before = stats.reads();
                let live = if forward {
                    part.lookup_first_many(batch.iter())
                } else {
                    part.lookup_last_many(batch.iter())
                };
                let live_pages = stats.reads() - before;
                let per_key: Vec<Row> = batch
                    .iter()
                    .flat_map(|k| {
                        if forward {
                            part.lookup_first(k)
                        } else {
                            part.lookup_last(k)
                        }
                    })
                    .collect();
                assert_eq!(live, per_key, "partition {pidx} fwd={forward}");
                let before = snap.pages_read();
                let snapped = snap.probe(id, pidx, forward, &batch).unwrap();
                let snap_pages = snap.pages_read() - before;
                assert_eq!(snapped, live, "partition {pidx} fwd={forward}");
                assert_eq!(
                    snap_pages,
                    live_pages,
                    "partition {pidx} fwd={forward}: {} keys",
                    batch.len()
                );
                compared += 1;
            }
        }
        // Scans: the live scan charges inner_height + leaves, whatever
        // the frontier; so must the snapshot's.
        let frontier: Vec<Cell> = keys(&rows, true).into_iter().step_by(3).collect();
        for offset in 0..part.arity() {
            let before = stats.reads();
            let mut live = Vec::new();
            part.scan(|r| {
                if r.cell(offset)
                    .as_ref()
                    .is_some_and(|c| frontier.contains(c))
                {
                    live.push(r.clone());
                }
            });
            let live_pages = stats.reads() - before;
            let before = snap.pages_read();
            let snapped = snap.scan_filter(id, pidx, offset, &frontier).unwrap();
            assert_eq!(snapped, live, "scan partition {pidx} offset {offset}");
            assert_eq!(
                snap.pages_read() - before,
                live_pages,
                "scan partition {pidx}"
            );
            assert_eq!(
                live_pages,
                part.forward_tree().inner_height() as u64 + part.leaf_pages()
            );
            compared += 1;
        }
    }
    compared
}

#[test]
fn snapshot_pages_equal_live_pages_at_the_same_epoch() {
    let (mut db, id) = chain_db();
    let snap = db.snapshot();
    assert!(db
        .asr(id)
        .unwrap()
        .partitions()
        .iter()
        .all(|p| p.leaf_pages() > 1 && p.forward_tree().height() > 1));
    assert!(assert_pages_equal(&db, &snap, id) > 30);
}

/// Per partition: the ascending first cells, the forward probe of all of
/// them, and the scan filtered on them — all as of `snap`'s epoch.
fn answers(db: &Database, snap: &Snapshot, id: AsrId) -> Vec<(Vec<Cell>, Vec<Row>, Vec<Row>)> {
    db.asr(id)
        .unwrap()
        .partitions()
        .iter()
        .enumerate()
        .map(|(pidx, part)| {
            let mut rows = Vec::new();
            part.scan(|r| rows.push(r.clone()));
            let firsts = keys(&rows, true);
            let probed = snap.probe(id, pidx, true, &firsts).unwrap();
            let scanned = snap.scan_filter(id, pidx, 0, &firsts).unwrap();
            (firsts, probed, scanned)
        })
        .collect()
}

#[test]
fn pages_stay_equal_after_a_splitting_burst_with_an_old_snapshot_pinned() {
    let (mut db, id) = chain_db();
    let old = db.snapshot();
    let old_total = old.total_rows(id).unwrap();
    let old_answers = answers(&db, &old, id);
    let leaf_pages = |db: &Database| -> Vec<u64> {
        db.asr(id)
            .unwrap()
            .partitions()
            .iter()
            .map(|p| p.leaf_pages())
            .collect()
    };
    let leaves_before = leaf_pages(&db);

    // The burst: new chains split leaves; re-pointing early chains
    // rewrites pages the old snapshot still shares.
    add_chains(&mut db, INITIAL, BURST);
    let early: Vec<Oid> = old_answers[0]
        .0
        .iter()
        .take(50)
        .filter_map(Cell::as_oid)
        .collect();
    let repoint = db.instantiate("T1").unwrap();
    for &t0 in &early {
        db.set_attribute(t0, "A1", Value::Ref(repoint)).unwrap();
    }
    let leaves_after = leaf_pages(&db);
    assert!(
        leaves_after.iter().zip(&leaves_before).all(|(a, b)| a > b),
        "the burst must split leaves in every partition: {leaves_before:?} -> {leaves_after:?}"
    );

    let new = db.snapshot();
    assert!(new.epoch() > old.epoch());
    assert!(assert_pages_equal(&db, &new, id) > 30);
    assert!(db.tracer().metrics().counter("txn.pages_copied") > 0);

    // The old snapshot still answers as of its own epoch, while the new
    // one sees the burst.
    assert_eq!(old.total_rows(id).unwrap(), old_total);
    assert!(new.total_rows(id).unwrap() > old_total);
    for (pidx, (firsts, probed, scanned)) in old_answers.iter().enumerate() {
        assert_eq!(&old.probe(id, pidx, true, firsts).unwrap(), probed);
        assert_eq!(&old.scan_filter(id, pidx, 0, firsts).unwrap(), scanned);
    }
    assert_ne!(
        new.probe(id, 0, true, &old_answers[0].0).unwrap(),
        old_answers[0].1,
        "the re-pointed chains changed partition 0"
    );
}
