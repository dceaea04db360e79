//! Cross-version replay pins for the batch scenario engines.
//!
//! `tests/scenario_replay_pins.rs` pins the sustained engine; this file
//! does the same for batch load. It runs a fixed grid of batch specs and
//! compares each result against a 64-bit fingerprint recorded from an
//! earlier build. The grid covers the direct one-shot delivery at 1, 5
//! and 9 parties, collector trees of depth 2 and 3, the retrying
//! collection plane on lossy, corrupting and straggling channels with
//! retry budgets 1 and 5, and set-expression queries at depths 1–3 plus a
//! Jaccard pair.
//!
//! The fingerprint covers only what a batch run determines regardless of
//! thread scheduling: the estimate (as IEEE bits), the exact truth,
//! per-party and total bytes, the referee's accepted, rejected and
//! duplicate counts, the collection rounds, retransmits and per-party
//! fates, and every expression and Jaccard answer. Timings, batch counts,
//! the summaries-per-batch histogram and union merge-call counts are
//! excluded.
//!
//! A failure lists every cell with its recorded and actual fingerprint.
//! Only the `witness` helper may change when a report type changes; only
//! re-record a pin when the behaviour change is intended, and say why in
//! the change log.

use gt_sketch::streams::{
    payload_fingerprint, run_spec, Distribution, RefereeTelemetry, RetryPolicy, ScenarioBuilder,
    ScenarioOutcome, ScenarioSpec, SendFate, Tick, TransportSpec,
};
use gt_sketch::{SetExpr, SketchConfig};

const MASTER_SEED: u64 = 0x0BA7_C4ED;

/// Per party `(sends, last fate, acked at)`.
type Fates = Vec<(usize, Option<SendFate>, Option<Tick>)>;

/// Per expression `(estimate bits, truth, scaled error bits)`, then per
/// Jaccard pair `(estimate bits, truth bits)`.
type Answers = (Vec<(u64, u64, u64)>, Vec<(u64, u64)>);

/// Everything a cell pins. A section a report did not carry when the
/// pins were recorded stays `None`.
#[derive(Debug, Default)]
struct Witness {
    estimate_bits: Option<u64>,
    truth: Option<u64>,
    received_truth: Option<u64>,
    bytes_per_party: Option<Vec<usize>>,
    total_bytes: Option<usize>,
    /// Referee accepted, rejected and duplicate counts.
    referee: Option<[usize; 3]>,
    /// Rounds, retransmits and per-party fates.
    collection: Option<(usize, usize, Fates)>,
    answers: Option<Answers>,
}

fn referee_counts(t: &RefereeTelemetry) -> [usize; 3] {
    [t.accepted, t.rejected(), t.duplicates()]
}

/// Reads a run's outcome into its [`Witness`]. Expression cells pin
/// their answers, transport cells their collection, and the rest their
/// union and byte accounting — the sections each cell's report carried
/// when the pins were recorded.
fn witness(outcome: ScenarioOutcome) -> Witness {
    let ScenarioOutcome::Batch(r) = outcome else {
        panic!("expected a batch outcome, got {outcome:?}");
    };
    if !r.queries.is_empty() || !r.jaccard_queries.is_empty() {
        return Witness {
            answers: Some((
                r.queries
                    .iter()
                    .map(|q| {
                        (
                            q.answer.estimate.value.to_bits(),
                            q.truth,
                            q.scaled_error.to_bits(),
                        )
                    })
                    .collect(),
                r.jaccard_queries
                    .iter()
                    .map(|j| (j.answer.jaccard.to_bits(), j.truth.to_bits()))
                    .collect(),
            )),
            ..Witness::default()
        };
    }
    let referee = Some(referee_counts(&r.referee_telemetry));
    match &r.collection {
        Some(c) => Witness {
            estimate_bits: Some(r.estimate().to_bits()),
            truth: Some(r.truth),
            received_truth: Some(r.received_truth),
            referee,
            collection: Some((
                c.rounds,
                c.retransmits,
                c.per_party
                    .iter()
                    .map(|p| (p.sends, p.last_fate, p.acked_at))
                    .collect(),
            )),
            ..Witness::default()
        },
        None => Witness {
            estimate_bits: Some(r.estimate().to_bits()),
            truth: Some(r.truth),
            bytes_per_party: Some(r.bytes_per_party.clone()),
            total_bytes: Some(r.total_bytes),
            referee,
            ..Witness::default()
        },
    }
}

fn base(name: &str, parties: usize, seed: u64) -> ScenarioBuilder {
    ScenarioSpec::builder(name)
        .parties(parties)
        .distinct_per_party(1_500)
        .overlap(0.3)
        .distribution(Distribution::Uniform)
        .workload_seed(seed)
        .batch(4_000)
}

fn channel(name: &str, seed: u64) -> TransportSpec {
    let reliable = TransportSpec::reliable(seed);
    match name {
        "lossy" => TransportSpec {
            drop_probability: 0.4,
            ..reliable
        },
        "corrupting" => TransportSpec {
            corrupt_probability: 0.5,
            jitter: 2,
            ..reliable
        },
        "straggling" => TransportSpec {
            drop_probability: 0.1,
            jitter: 3,
            straggle_probability: 0.5,
            straggle_latency: 30,
            ..reliable
        },
        other => unreachable!("unknown channel {other}"),
    }
}

/// `(cell name, spec)` in pin order.
fn grid() -> Vec<(String, ScenarioSpec)> {
    let mut cells = Vec::new();
    for parties in [1, 5, 9] {
        let spec = base("classic", parties, 0x10 + parties as u64).build();
        cells.push((format!("classic/{parties}"), spec));
    }
    let skewed = base("classic_zipf", 5, 0x1F)
        .distribution(Distribution::Zipf(1.1))
        .build();
    cells.push(("classic/5/zipf".to_string(), skewed));
    for (depth, parties) in [(2, 9), (3, 8)] {
        let spec = base("tree", parties, 0x20 + depth as u64)
            .tree_depth(depth)
            .build();
        cells.push((format!("tree/depth{depth}"), spec));
    }
    for (i, name) in ["lossy", "corrupting", "straggling"]
        .into_iter()
        .enumerate()
    {
        for budget in [1, 5] {
            let spec = base("resilient", 8, 0x30 + i as u64)
                .transport(channel(name, 0x5EED + i as u64))
                .retry(RetryPolicy::with_budget(budget))
                .build();
            cells.push((format!("resilient/{name}/budget{budget}"), spec));
        }
    }
    let (a, b, c, d) = (
        SetExpr::leaf(0),
        SetExpr::leaf(1),
        SetExpr::leaf(2),
        SetExpr::leaf(3),
    );
    let expressions = base("expression", 4, 0x40)
        .overlap(0.5)
        .query_expr(a.clone())
        .query_expr(a.clone().union(b.clone()))
        .query_expr(c.clone().difference(d.clone()))
        .query_expr(a.clone().union(b.clone()).intersect(c.clone()))
        .query_expr(b.clone().intersect(d.clone()).difference(a.clone()))
        .query_jaccard(a.clone().union(b), c.difference(a))
        .build();
    cells.push(("expression/depth1-3+jaccard".to_string(), expressions));
    cells
}

fn fingerprint(spec: &ScenarioSpec) -> u64 {
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let w = witness(run_spec(&config, MASTER_SEED, spec));
    payload_fingerprint(format!("{w:?}").as_bytes())
}

/// Fingerprints recorded from the build that introduced this file, in
/// `grid()` order.
const PINS: [(&str, u64); 13] = [
    ("classic/1", 0xaedb_e286_d168_a59a),
    ("classic/5", 0x8bac_fd96_bc7f_6b78),
    ("classic/9", 0x4a84_51a8_eea3_5dff),
    ("classic/5/zipf", 0xa157_4f28_75c6_33d2),
    ("tree/depth2", 0x787c_e2d7_8490_eb40),
    ("tree/depth3", 0xca2c_92aa_23d7_fea3),
    ("resilient/lossy/budget1", 0x85ce_549f_027e_d6b5),
    ("resilient/lossy/budget5", 0xa266_2ae7_ed1e_4a56),
    ("resilient/corrupting/budget1", 0x883b_efff_5459_d523),
    ("resilient/corrupting/budget5", 0x0548_3458_e506_0b67),
    ("resilient/straggling/budget1", 0x296c_e8db_243d_0596),
    ("resilient/straggling/budget5", 0x8992_59b6_e2d7_634a),
    ("expression/depth1-3+jaccard", 0xc269_0aea_8cee_524a),
];

#[test]
fn batch_grid_replays_the_recorded_fingerprints() {
    let cells = grid();
    assert_eq!(cells.len(), PINS.len());
    let mut mismatches = Vec::new();
    for ((name, spec), (pin_name, pin)) in cells.iter().zip(PINS) {
        assert_eq!(name, pin_name, "grid and pin table out of order");
        let actual = fingerprint(spec);
        if actual != pin {
            mismatches.push(format!("{name}: pinned {pin:#018x}, got {actual:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "batch engine output changed:\n{}",
        mismatches.join("\n")
    );
}

/// A batch run's fingerprint must not depend on thread scheduling: the
/// same cell run repeatedly fingerprints the same.
#[test]
fn batch_fingerprints_are_schedule_independent() {
    for (name, spec) in grid() {
        let first = fingerprint(&spec);
        for _ in 0..2 {
            assert_eq!(fingerprint(&spec), first, "{name}");
        }
    }
}

/// The grid is only a pin if it reaches the paths it claims to cover.
#[test]
fn grid_exercises_every_pinned_path() {
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let witnesses: Vec<(String, Witness)> = grid()
        .into_iter()
        .map(|(name, spec)| (name, witness(run_spec(&config, MASTER_SEED, &spec))))
        .collect();
    let any = |prefix: &str, pred: &dyn Fn(&Witness) -> bool| {
        witnesses
            .iter()
            .any(|(name, w)| name.starts_with(prefix) && pred(w))
    };
    let collection = |w: &Witness| w.collection.clone().expect("resilient cell");
    let referee = |w: &Witness| w.referee.expect("delivery counts");
    assert!(
        any("classic/", &|w| w.estimate_bits.is_some()
            && w.bytes_per_party.as_ref().map(|b| b.iter().sum())
                == w.total_bytes),
        "byte accounting"
    );
    assert!(any("classic/1", &|w| referee(w)[0] == 1), "single party");
    assert!(any("tree/", &|w| referee(w)[0] == 1), "root-only delivery");
    assert!(any("resilient/", &|w| collection(w).1 > 0), "retransmits");
    assert!(
        any("resilient/", &|w| collection(w)
            .2
            .iter()
            .any(|p| p.2.is_none())),
        "an unheard party"
    );
    assert!(
        any("resilient/", &|w| w.received_truth < w.truth),
        "a partial union"
    );
    assert!(any("resilient/", &|w| referee(w)[1] > 0), "rejected frames");
    assert!(any("resilient/", &|w| referee(w)[2] > 0), "duplicates");
    assert!(
        any("expression/", &|w| w
            .answers
            .as_ref()
            .is_some_and(|(e, j)| e.len() == 5 && j.len() == 1)),
        "expression and Jaccard answers"
    );
}
