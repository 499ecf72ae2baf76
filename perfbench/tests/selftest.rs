//! Miniature self-test: every workload at a tiny population.
//!
//! Asserts that every named metric is printed with its unit (and that
//! the catalog matches `BENCHMARK.json`), that `pages_per_op` and the
//! deterministic per-layer counts repeat exactly for the same seed, and
//! that every answer check passes.

use std::path::PathBuf;

use perfbench::{result_json, run, Config, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(workload: &str, seed: u64, trace: bool) -> Config {
    let mut cfg = Config::new(workload, seed);
    cfg.seconds = 0.2;
    cfg.trace = trace;
    cfg.scale_div = Some(200.0);
    cfg.exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    cfg.trace_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    cfg
}

fn checked(cfg: &Config) -> Outcome {
    let out = run(cfg).expect("the workload runs");
    assert!(out.attempted > 0, "{}: nothing attempted", cfg.workload);
    assert_eq!(
        out.failed, 0,
        "{} (trace {}): failed checks: {:?}",
        cfg.workload, cfg.trace, out.notes
    );
    out
}

/// Every metric of the run's catalog appears in the result line with its
/// unit, and the result line is the documented shape.
fn assert_printed(cfg: &Config, out: &Outcome) {
    let line = result_json(cfg, out);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    let catalog = if cfg.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in catalog {
        let needle = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&needle)
            .unwrap_or_else(|| panic!("{name} missing"));
        let rest = &line[at..];
        let unit_at = rest.find("\"unit\": ").expect("unit printed") + 9;
        assert!(
            rest[unit_at..].starts_with(&format!("{unit}\"")),
            "{name}: unit"
        );
    }
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    for (section, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let body = &text[text.find(&format!("\"{section}\"")).expect("section")..];
        let body = &body[..body.find(']').expect("list end")];
        let listed = body.matches("\"name\"").count();
        assert_eq!(listed, catalog.len(), "{section}: metric count");
        for (name, unit) in catalog {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                body.contains(&entry),
                "{section}: {name} ({unit}) not listed"
            );
        }
    }
    for w in WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
}

#[test]
fn workloads_print_every_metric_and_repeat_their_counts() {
    for w in WORKLOADS {
        let a = checked(&tiny(w, 7, false));
        assert_printed(&tiny(w, 7, false), &a);
        let b = checked(&tiny(w, 7, false));
        assert_eq!(
            a.metrics["pages_per_op"], b.metrics["pages_per_op"],
            "{w}: pages_per_op must repeat for a seed"
        );
        assert!(a.metrics["pages_per_op"] > 0.0, "{w}: pages_per_op");

        let ta = checked(&tiny(w, 7, true));
        assert_printed(&tiny(w, 7, true), &ta);
        let tb = checked(&tiny(w, 7, true));
        for count in [
            "net.bytes_per_req",
            "asr.maint_pages",
            "durable.recovery_replayed",
            "server.shard.frames_per_span",
            "pagesim.reads_per_op",
            "costmodel.predicted_pages_per_op",
        ] {
            assert_eq!(
                ta.metrics[count], tb.metrics[count],
                "{w}: {count} must repeat"
            );
        }
        assert!(ta.metrics["net.bytes_per_req"] > 0.0, "{w}: bytes");
    }
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run(&Config::new("nope", 1)).is_err());
}
