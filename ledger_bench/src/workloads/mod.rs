//! The four closed-loop workloads. Each is built so that one layer does
//! most of the work; `LAYERS.md` beside this crate records which layer
//! each stresses and which it bypasses.
//!
//! Every workload follows the same protocol: generate all inputs from the
//! seed, set up, run discarded warm-up rounds (which also compute the
//! reference answers), then run measured rounds until the window closes,
//! checking every answer outside the round clock.

use crate::bench::{Recorder, Shape};

mod batch_ingest;
mod delta_monitor;
mod fanin_union;
mod keyed_store;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchIngest,
    FaninUnion,
    DeltaMonitor,
    KeyedStore,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BatchIngest,
        Workload::FaninUnion,
        Workload::DeltaMonitor,
        Workload::KeyedStore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchIngest => "batch_ingest",
            Workload::FaninUnion => "fanin_union",
            Workload::DeltaMonitor => "delta_monitor",
            Workload::KeyedStore => "keyed_store",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The percentiles and trace blocking this workload fixed.
    pub fn shape(self) -> Shape {
        match self {
            Workload::BatchIngest => batch_ingest::SHAPE,
            Workload::FaninUnion => fanin_union::SHAPE,
            Workload::DeltaMonitor => delta_monitor::SHAPE,
            Workload::KeyedStore => keyed_store::SHAPE,
        }
    }

    /// Generate inputs, set up, warm up, and run the measured window.
    pub fn run(self, rec: &mut Recorder, seed: u64) {
        match self {
            Workload::BatchIngest => batch_ingest::run(rec, seed),
            Workload::FaninUnion => fanin_union::run(rec, seed),
            Workload::DeltaMonitor => delta_monitor::run(rec, seed),
            Workload::KeyedStore => keyed_store::run(rec, seed),
        }
    }
}

/// Independent seeds for one run's inputs and sketches.
fn seeds(seed: u64, workload: Workload) -> (u64, u64) {
    let base = gt_hash::mix64(seed ^ gt_hash::mix64(workload as u64 + 1));
    (gt_hash::mix64(base ^ 0x1), gt_hash::mix64(base ^ 0x2))
}

/// `|estimate - truth| <= epsilon * scale`, the sketches' stated contract.
fn within(estimate: f64, truth: f64, epsilon: f64, scale: f64) -> bool {
    (estimate - truth).abs() <= epsilon * scale
}

/// The intersection query every referee workload asks: parties 0 and 1.
fn pair_expr() -> gt_core::SetExpr {
    gt_core::SetExpr::leaf(0).intersect(gt_core::SetExpr::leaf(1))
}

/// The exact answer to [`pair_expr`] and the scale of its error contract.
struct Pair {
    intersection: f64,
    union: f64,
}

impl Pair {
    fn of(streams: &[Vec<u64>]) -> Pair {
        let oracle = |s: &[u64]| gt_streams::StreamOracle::of_streams([s]);
        Pair::of_oracles(&oracle(&streams[0]), &oracle(&streams[1]))
    }

    fn of_oracles(a: &gt_streams::StreamOracle, b: &gt_streams::StreamOracle) -> Pair {
        let intersection = a.intersection(b) as f64;
        Pair {
            intersection,
            union: (a.distinct() + b.distinct()) as f64 - intersection,
        }
    }

    /// The expression engine's additive contract: within ε of the
    /// referenced operands' union size.
    fn check(&self, rec: &mut Recorder, estimate: f64, epsilon: f64) {
        rec.check(
            within(estimate, self.intersection, epsilon, self.union),
            || {
                format!(
                    "intersection estimate {estimate} vs true {}",
                    self.intersection
                )
            },
        );
    }
}

/// How many labels the hash probe hashes, per trial.
const HASH_PROBE_LABELS: usize = 1 << 18;
