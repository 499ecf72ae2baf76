//! Shared pieces: the seeded op-stream RNG, sample statistics, answer
//! digests, resident-memory probes and the metric catalog.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// SplitMix64: a tiny, seedable, reproducible generator for op streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `lane` so the population
    /// and each op stream draw from independent sequences.
    pub fn new(seed: u64, lane: u64) -> Self {
        Rng(seed ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform pick from a non-empty slice.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Order-sensitive digest of an answer (callers sort first when the
/// order is not part of the contract).
pub fn digest<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Digest of a list sorted first (for answers whose order is not part of
/// the contract), with its length.
pub fn sorted_digest<T: Ord + Hash>(mut v: Vec<T>) -> (u64, usize) {
    v.sort();
    (digest(&v), v.len())
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile `p` (0–100) of a sample (0 for an empty one).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of a sample (0 for an empty one).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Candidate tail percentiles, lowest first.  The ladder stops at p99:
/// deeper percentiles on a shared 2-CPU host measure the neighbours'
/// stalls more than the system, and vary several-fold run to run.
const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// The tail of a latency sample: the highest ladder percentile that still
/// leaves at least ten samples beyond it.  Returns `(percentile, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let p = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (p, percentile(values, p))
}

/// Tracing overhead per request: for each op class, the median traced
/// latency minus the median untraced one, weighted by the class's share
/// (a median over a mix of classes would sit on a class boundary).
pub fn class_overhead(classes: &[usize], untraced: &[f64], traced: &[f64]) -> f64 {
    let kinds = classes.iter().copied().max().map_or(0, |m| m + 1);
    let mut total = 0.0;
    for kind in 0..kinds {
        let pick = |v: &[f64]| -> Vec<f64> {
            v.iter()
                .zip(classes)
                .filter(|(_, &c)| c == kind)
                .map(|(&x, _)| x)
                .collect()
        };
        let (u, t) = (pick(untraced), pick(traced));
        total += (median(&t) - median(&u)) * u.len() as f64;
    }
    total / classes.len().max(1) as f64
}

/// The timed window, pooled over the whole run: requests answered, their
/// measured time, and every read latency.
///
/// The shared host switches between a fast and a slow state for seconds
/// at a time.  A median over slices of the window jumps between the two
/// states from run to run, while a figure pooled over the whole run moves
/// only with the share of time spent in each: over ten seeds on a 2-CPU
/// host the run-to-run spread of `ops_per_s` was 0.13 pooled against
/// 0.21 as a median over slices on update_mix, and of `read_p50_us` 0.19
/// against 0.26 on mvcc_churn.
///
/// The read tail is a fixed percentile per workload, chosen so that a run
/// at the workload's usual rate leaves at least ten reads beyond it.
/// Picking it per run from the run's sample count would let a faster
/// system move to a higher percentile and report a worse tail.
#[derive(Debug)]
pub struct Window {
    tail_p: f64,
    secs: f64,
    ops: u64,
    reads: Vec<f64>,
}

impl Window {
    /// An empty window whose read tail is percentile `tail_p`.
    pub fn new(tail_p: f64) -> Self {
        Window {
            tail_p,
            secs: 0.0,
            ops: 0,
            reads: Vec::new(),
        }
    }

    /// Measured seconds so far.
    pub fn elapsed(&self) -> f64 {
        self.secs
    }

    /// Account one timed interval: `ops` requests answered in `secs`,
    /// with the interval's read latency when it was a read.
    pub fn add(&mut self, ops: u64, secs: f64, read_us: Option<f64>) {
        self.secs += secs;
        self.ops += ops;
        self.reads.extend(read_us);
    }

    /// Requests per measured second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.secs.max(1e-9)
    }

    /// Median read latency.
    pub fn read_p50(&self) -> f64 {
        median(&self.reads)
    }

    /// The read tail percentile.
    pub fn read_tail(&self) -> f64 {
        percentile(&self.reads, self.tail_p)
    }

    /// The figures with their sample counts, and the other tail
    /// percentiles beside.
    pub fn describe(&self) -> String {
        let ladder: Vec<String> = TAIL_LADDER[2..]
            .iter()
            .map(|&p| format!("p{p} {:.2}", percentile(&self.reads, p)))
            .collect();
        format!(
            "window: {:.2} s measured, {} requests; ops/s {:.1}; read p50 {:.2} us, tail p{} {:.2} us (n={} reads; {} us)",
            self.secs,
            self.ops,
            self.ops_per_s(),
            self.read_p50(),
            self.tail_p,
            self.read_tail(),
            self.reads.len(),
            ladder.join(", "),
        )
    }
}

/// Reset the peak resident set size to the current one (Linux
/// `clear_refs` 5), so [`peak_rss_mb`] measures from here on.  A no-op
/// where the platform does not support it.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`) since start
/// or the last [`reset_peak_rss`], 0 when the platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
/// `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_tail_us", "us"),
    ("pages_per_op", "pages"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.  A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("asr.build_s", "s"),
    ("durable.create_s", "s"),
    ("server.shard.seed_s", "s"),
    ("client.oql_p50_us", "us"),
    ("client.oql_tail_us", "us"),
    ("client.span_p50_us", "us"),
    ("client.span_tail_us", "us"),
    ("client.write_p50_us", "us"),
    ("client.write_tail_us", "us"),
    ("net.wire_self_us", "us"),
    ("net.codec_us_per_req", "us"),
    ("net.bytes_per_req", "bytes"),
    ("net.retries", "count"),
    ("server.pump_us_per_req", "us"),
    ("server.pump.replayed", "count"),
    ("server.pump.nacked", "count"),
    ("server.shard.frames_per_span", "frames"),
    ("server.shard.merged_pages_per_op", "pages"),
    ("server.shard.hot_pages_per_op", "pages"),
    ("server.shard.us_per_span", "us"),
    ("oql.us_per_query", "us"),
    ("oql.asr_planned_frac", "ratio"),
    ("oql.rows_per_query", "rows"),
    ("asr.query_us", "us"),
    ("asr.query_pages", "pages"),
    ("asr.maint_us", "us"),
    ("asr.maint_pages", "pages"),
    ("asr.maint_us_per_page", "us"),
    ("asr.snapshot.publish_us", "us"),
    ("asr.snapshot.write_pinned_us", "us"),
    ("asr.snapshot.probe_us", "us"),
    ("asr.snapshot.pages_per_probe", "pages"),
    ("asr.snapshot.active", "count"),
    ("asr.snapshot.reclaimed", "count"),
    ("durable.log_us", "us"),
    ("durable.wal_bytes_per_write", "bytes"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.checkpoint_pages", "pages"),
    ("durable.recovery_replayed", "count"),
    ("durable.replay_us_per_record", "us"),
    ("pagesim.reads_per_op", "pages"),
    ("pagesim.writes_per_op", "pages"),
    ("pagesim.batch_probes", "count"),
    ("pagesim.batch_pages_saved", "pages"),
    ("pagesim.probe_us", "us"),
    ("costmodel.predicted_pages_per_op", "pages"),
    ("costmodel.measured_over_predicted", "ratio"),
    ("trace.overhead_us_per_req", "us"),
];

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests and checks attempted.
    pub attempted: u64,
    /// Failed requests plus failed answer checks.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed ahead of the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a check: counts as attempted, and as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 64 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// Record a latency class: its median and tail, with the sample
    /// count and the tail's percentile printed beside them.
    pub fn latency(&mut self, class: &str, samples: &[f64]) -> (f64, f64) {
        let p50 = median(samples);
        let (p, tail_v) = tail(samples);
        self.notes.push(format!(
            "{class}: p50 {p50:.2} us, tail p{p} {tail_v:.2} us (n={})",
            samples.len()
        ));
        (p50, tail_v)
    }

    /// Push a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&v).0, 75.0);
        let v: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 99.0);
    }

    #[test]
    fn rng_is_reproducible() {
        let first = Rng::new(7, 1).next_u64();
        assert_eq!(Rng::new(7, 1).next_u64(), first);
        assert_ne!(Rng::new(7, 2).next_u64(), first);
    }
}
