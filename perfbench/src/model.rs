//! Cost-model cross-check: price a workload's op stream with
//! `asr_costmodel` for its population, the full extension and the
//! binary decomposition.  The `Tag` step is a fan-1 atomic level, one
//! distinct value per `T4` object.

use asr_costmodel::{CostModel, Dec, Ext, Op, Profile};
use asr_workload::GeneratorSpec;

use crate::setup::ARITY;

/// Assumed size of the atomic `Tag` level (an inlined integer).
const TAG_SIZE: f64 = 8.0;

/// The analytical model of the generated chain extended by `Tag`.
pub struct Pricer {
    model: CostModel,
    dec: Dec,
}

impl Pricer {
    /// Build the `n = 5` profile from the generated population.
    pub fn new(spec: &GeneratorSpec) -> Self {
        let f = |v: &[usize]| v.iter().map(|&x| x as f64).collect::<Vec<f64>>();
        let tags = *spec.counts.last().expect("non-empty chain") as f64;
        let mut c = f(&spec.counts);
        c.push(tags);
        let mut d = f(&spec.defined);
        d.push(tags);
        let mut fan = f(&spec.fan);
        fan.push(1.0);
        let mut size = f(&spec.sizes);
        size.push(TAG_SIZE);
        let profile = Profile::new(c, d, fan, size).expect("the extended chain profile is valid");
        Pricer {
            model: CostModel::new(profile),
            dec: Dec::binary(ARITY),
        }
    }

    /// Predicted page accesses of one op.
    pub fn price(&self, op: Op) -> f64 {
        match op {
            Op::Query { kind, i, j } => self.model.q(Ext::Full, kind, i, j, &self.dec),
            Op::Insert { i } => self.model.update_cost(Ext::Full, i, &self.dec),
        }
    }
}

/// Running sums of predicted and measured pages over priced ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fidelity {
    /// Priced ops seen.
    pub ops: u64,
    /// Sum of predicted pages.
    pub predicted: f64,
    /// Sum of measured pages.
    pub measured: f64,
}

impl Fidelity {
    /// Add one priced op.
    pub fn add(&mut self, predicted: f64, measured: u64) {
        self.add_batch(1, predicted, measured);
    }

    /// Add a batch of priced ops whose pages were measured together.
    pub fn add_batch(&mut self, ops: u64, predicted: f64, measured: u64) {
        self.ops += ops;
        self.predicted += predicted;
        self.measured += measured as f64;
    }

    /// Mean predicted pages per priced op.
    pub fn predicted_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.predicted / self.ops as f64
        }
    }

    /// Measured over predicted pages.
    pub fn ratio(&self) -> f64 {
        if self.predicted == 0.0 {
            0.0
        } else {
            self.measured / self.predicted
        }
    }
}
