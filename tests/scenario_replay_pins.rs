//! Cross-version replay pins for the sustained (virtual-clock) engine.
//!
//! `tests/scenario_determinism.rs` proves two runs of the *same build*
//! agree; nothing there notices when a refactor changes what a spec
//! produces. This file does: it runs a fixed grid of sustained specs in
//! both reporting modes and compares each result against a 64-bit
//! fingerprint recorded from an earlier build. The fingerprint covers
//! `E2eReport::determinism_key` (canonical union bytes, latency
//! histogram, exactly-once counters, transport and referee counts, every
//! query sample) plus the delta-plane report, so any change to RNG seed
//! derivation, admission order, retry schedule, ack routing or query
//! answering shows up as a mismatch.
//!
//! The grid covers reliable and lossy-with-retries channels, ack loss,
//! crash / graceful-leave / join churn, a flash-crowd phase, Uniform,
//! Zipf and EachOnce draws, window queries, and expression plus Jaccard
//! queries — each in full re-ship and delta-plane mode.
//!
//! A failure lists every cell with its recorded and actual fingerprint.
//! Only re-record a pin when the behaviour change is intended, and say
//! why in the change log.

use gt_sketch::streams::{
    payload_fingerprint, run_spec, Distribution, E2eReport, RetryPolicy, ScenarioBuilder,
    ScenarioOutcome, ScenarioSpec, TransportSpec,
};
use gt_sketch::{SetExpr, SketchConfig};

const MASTER_SEED: u64 = 0x9E9_1A7;

/// A hostile channel: drops, corruption, jitter and stragglers.
fn rough_channel(seed: u64) -> TransportSpec {
    TransportSpec {
        drop_probability: 0.2,
        corrupt_probability: 0.1,
        base_latency: 1,
        jitter: 4,
        straggle_probability: 0.2,
        straggle_latency: 30,
        seed,
    }
}

fn reliable_uniform_window() -> ScenarioBuilder {
    ScenarioSpec::builder("reliable_uniform_window")
        .parties(4)
        .distinct_per_party(500)
        .overlap(0.25)
        .distribution(Distribution::Uniform)
        .workload_seed(0x51)
        .sustained(3, 60, 10)
        .query_every(10)
        .query_distinct()
        .query_window(20)
}

fn lossy_zipf_churn() -> ScenarioBuilder {
    ScenarioSpec::builder("lossy_zipf_churn")
        .parties(5)
        .distinct_per_party(600)
        .overlap(0.3)
        .distribution(Distribution::Zipf(1.1))
        .workload_seed(0x52)
        .sustained(2, 80, 8)
        .phase(30, 50, 4.0)
        .transport(TransportSpec {
            corrupt_probability: 0.05,
            ..TransportSpec::lossy(0.3, 0x52)
        })
        .retry(RetryPolicy {
            ack_drop_probability: 0.3,
            ..RetryPolicy::with_budget(6)
        })
        .crash(1, 37)
        .graceful_leave(2, 45)
        .join(3, 20)
        .query_every(10)
        .query_distinct()
}

fn each_once_expressions() -> ScenarioBuilder {
    ScenarioSpec::builder("each_once_expressions")
        .parties(3)
        .distinct_per_party(300)
        .overlap(0.5)
        .distribution(Distribution::EachOnce)
        .workload_seed(0x53)
        .sustained(4, 50, 5)
        .query_every(10)
        .query_distinct()
        .query_expr(SetExpr::leaf(0).union(SetExpr::leaf(1)))
        .query_expr(SetExpr::leaf(0).intersect(SetExpr::leaf(2)))
        .query_expr(SetExpr::leaf(1).difference(SetExpr::leaf(0)))
        .query_jaccard(SetExpr::leaf(0), SetExpr::leaf(2))
}

fn rough_window_resync() -> ScenarioBuilder {
    ScenarioSpec::builder("rough_window_resync")
        .parties(4)
        .distinct_per_party(400)
        .overlap(0.2)
        .distribution(Distribution::Zipf(0.9))
        .workload_seed(0x54)
        .sustained(3, 90, 3)
        .transport(rough_channel(0x54))
        .retry(RetryPolicy {
            ack_drop_probability: 0.4,
            ..RetryPolicy::with_budget(4)
        })
        .graceful_leave(0, 70)
        .query_every(6)
        .query_distinct()
        .query_window(15)
        .query_jaccard(SetExpr::leaf(1), SetExpr::leaf(2).union(SetExpr::leaf(3)))
}

/// `(cell name, spec)`, each spec in both reporting modes.
fn grid() -> Vec<(String, ScenarioSpec)> {
    let shapes: [fn() -> ScenarioBuilder; 4] = [
        reliable_uniform_window,
        lossy_zipf_churn,
        each_once_expressions,
        rough_window_resync,
    ];
    let mut cells = Vec::new();
    for shape in shapes {
        let full = shape().build();
        let delta = shape().delta_plane().build();
        cells.push((format!("full/{}", full.name), full));
        cells.push((format!("delta/{}", delta.name), delta));
    }
    cells
}

fn run(spec: &ScenarioSpec) -> E2eReport {
    let config = SketchConfig::new(0.1, 0.1).unwrap();
    match run_spec(&config, MASTER_SEED, spec) {
        ScenarioOutcome::Sustained(report) => *report,
        other => panic!("{}: expected a sustained outcome, got {other:?}", spec.name),
    }
}

fn fingerprint(report: &E2eReport) -> u64 {
    let witness = format!("{:?}{:?}", report.determinism_key(), report.delta);
    payload_fingerprint(witness.as_bytes())
}

/// Fingerprints recorded from the build that introduced this file, in
/// `grid()` order.
const PINS: [(&str, u64); 8] = [
    ("full/reliable_uniform_window", 0x77a4_f3c4_12f8_1879),
    ("delta/reliable_uniform_window", 0xe1cc_8225_5172_d84e),
    ("full/lossy_zipf_churn", 0xcafa_ef8c_042a_3c65),
    ("delta/lossy_zipf_churn", 0xf949_53ad_3085_7ed8),
    ("full/each_once_expressions", 0xc860_89da_24a1_cf7b),
    ("delta/each_once_expressions", 0x6271_f622_34b7_773a),
    ("full/rough_window_resync", 0xbcea_90c2_ac79_3c37),
    ("delta/rough_window_resync", 0x643a_4051_e731_800e),
];

#[test]
fn sustained_grid_replays_the_recorded_fingerprints() {
    let cells = grid();
    assert_eq!(cells.len(), PINS.len());
    let mut mismatches = Vec::new();
    for ((name, spec), (pin_name, pin)) in cells.iter().zip(PINS) {
        assert_eq!(name, pin_name, "grid and pin table out of order");
        let actual = fingerprint(&run(spec));
        if actual != pin {
            mismatches.push(format!("{name}: pinned {pin:#018x}, got {actual:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "sustained engine output changed:\n{}",
        mismatches.join("\n")
    );
}

/// The grid is only a pin if it reaches the paths it claims to cover.
#[test]
fn grid_exercises_every_pinned_path() {
    let reports: Vec<(String, ScenarioSpec, E2eReport)> = grid()
        .into_iter()
        .map(|(name, spec)| {
            let report = run(&spec);
            (name, spec, report)
        })
        .collect();
    let any = |mode: &str, pred: &dyn Fn(&E2eReport) -> bool| {
        reports
            .iter()
            .any(|(name, _, r)| name.starts_with(mode) && pred(r))
    };
    for mode in ["full/", "delta/"] {
        assert!(any(mode, &|r| r.retry_rounds > 0), "{mode} final retries");
        assert!(any(mode, &|r| r.transport.dropped > 0), "{mode} drops");
        assert!(any(mode, &|r| r.item_coverage < 1.0), "{mode} crash loss");
        assert!(
            any(mode, &|r| !r.window_samples.is_empty()),
            "{mode} window"
        );
        assert!(
            any(mode, &|r| !r.expression_samples.is_empty()),
            "{mode} expressions"
        );
        assert!(
            any(mode, &|r| !r.jaccard_samples.is_empty()),
            "{mode} jaccard"
        );
    }
    assert!(
        any("full/", &|r| r.delta.is_none()),
        "full mode has no delta report"
    );
    assert!(
        any("delta/", &|r| r
            .delta
            .as_ref()
            .is_some_and(|d| d.resyncs > 0)),
        "delta resyncs"
    );
    assert!(
        any("delta/", &|r| r
            .delta
            .as_ref()
            .is_some_and(|d| d.acks_lost > 0)),
        "delta ack loss"
    );
    // The live union matches a fresh full ship wherever the channel does
    // not corrupt bytes. (A corrupted frame can still decode into a
    // different sketch, so corrupting cells may count oracle failures;
    // their count is part of the pinned fingerprint.)
    for (name, spec, r) in &reports {
        let clean = spec
            .faults
            .transport
            .is_none_or(|t| t.corrupt_probability == 0.0);
        if let (true, Some(d)) = (clean, &r.delta) {
            assert_eq!(d.oracle_failures, 0, "{name}");
        }
    }
}
