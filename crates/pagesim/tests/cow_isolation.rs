//! Copy-on-write isolation: frozen views of a B+ tree never change while
//! the live tree keeps splitting, merging and re-rooting, a write copies
//! only pages it writes, and dropping every view leaves no page shared.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

use asr_pagesim::stats::IoStats;
use asr_pagesim::{BPlusTree, FrozenTree};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16),
    Remove(u16),
    /// Take a frozen view now.
    Freeze,
    /// Drop the oldest held view.
    Release,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u16>().prop_map(|k| Op::Insert(k % 256)),
        any::<u16>().prop_map(|k| Op::Insert(k % 256)),
        any::<u16>().prop_map(|k| Op::Remove(k % 256)),
        Just(Op::Freeze),
        Just(Op::Release),
    ]
}

type Entries = Vec<(u16, u32)>;

fn view_entries(view: &FrozenTree<u16, u32>) -> Entries {
    let mut out = Vec::new();
    view.scan_all(&AtomicU64::new(0), |k, v| out.push((*k, *v)));
    out
}

fn model_entries(model: &BTreeMap<u16, u32>) -> Entries {
    model.iter().map(|(k, v)| (*k, *v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frozen_views_are_isolated_from_later_writes(
        ops in proptest::collection::vec(op_strategy(), 1..500),
    ) {
        let stats = IoStats::new_handle();
        let mut tree: BPlusTree<u16, u32> = BPlusTree::with_capacities(3, 3, stats.clone());
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        // Each held view with the model captured when it was taken.
        let mut views: Vec<(FrozenTree<u16, u32>, Entries)> = Vec::new();

        for (step, op) in ops.into_iter().enumerate() {
            let (copied, written) = (tree.pages_copied(), stats.writes());
            match op {
                Op::Insert(k) => {
                    let v = step as u32;
                    prop_assert_eq!(tree.insert(k, v).is_ok(), !model.contains_key(&k));
                    model.entry(k).or_insert(v);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), model.remove(&k));
                }
                Op::Freeze => views.push((tree.freeze(), model_entries(&model))),
                Op::Release => {
                    if !views.is_empty() {
                        views.remove(0);
                    }
                }
            }
            prop_assert!(
                tree.pages_copied() - copied <= stats.writes() - written,
                "step {}: copied {} pages but wrote {}",
                step,
                tree.pages_copied() - copied,
                stats.writes() - written
            );
            tree.check_invariants().unwrap();
            for (view, want) in &views {
                prop_assert_eq!(&view_entries(view), want);
                prop_assert_eq!(view.len(), want.len());
            }
        }
        views.clear();
        prop_assert_eq!(tree.shared_pages(), 0, "no page shared once every view is gone");
        let mut live = Vec::new();
        tree.scan_all(|k, v| live.push((*k, *v)));
        prop_assert_eq!(live, model_entries(&model));
    }
}

#[test]
fn unshared_writes_copy_nothing_and_shared_writes_copy_the_path() {
    let stats = IoStats::new_handle();
    let mut tree: BPlusTree<u16, u32> = BPlusTree::with_capacities(3, 3, stats.clone());
    for k in 0..200u16 {
        tree.insert(k, u32::from(k)).unwrap();
    }
    assert_eq!(tree.pages_copied(), 0, "no view, no copy");

    let view = tree.freeze();
    assert_eq!(tree.shared_pages() as u64, tree.page_count());
    // Rewrite one key in place: the leaf is the only page written.
    tree.remove(&100).unwrap();
    assert_eq!(tree.pages_copied(), 1);
    tree.insert(100, 7).unwrap();
    assert_eq!(tree.pages_copied(), 1, "a copied page is private");

    // The view still answers as of the freeze, with the live charge rule.
    let meter = AtomicU64::new(0);
    let mut seen = None;
    let report = view.scan_ranges_sorted(
        [(Bound::Included(&100), Bound::Included(&100))],
        &meter,
        |_, _, v| seen = Some(*v),
    );
    assert_eq!(seen, Some(100));
    assert_eq!(report.pages_read, view.height() as u64);
    assert_eq!(meter.load(Ordering::Relaxed), report.pages_read);
    drop(view);
    assert_eq!(tree.shared_pages(), 0);
}
