//! Regression pins for the batch and live engines: each re-derives an
//! engine's referee state independently — a hand-rolled party→referee
//! pipeline whose canonical bytes and estimate pin the one-shot model's
//! semantics — and checks the engine, run from a `ScenarioSpec` through
//! `gt_streams::scenario::run_spec_on`, lands on it bitwise.

use gt_sketch::streams::{
    encode_sketch, run_spec_on, Distribution, IngestMode, Party, Referee, RetryPolicy,
    ScenarioOutcome, ScenarioSpec, TransportSpec, WorkloadSpec,
};
use gt_sketch::{SetExpr, SketchConfig};

fn workload(parties: usize, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        parties,
        distinct_per_party: 3_000,
        overlap: 0.4,
        items_per_party: 9_000,
        distribution: Distribution::Uniform,
        seed,
    }
}

/// The one-shot semantics, re-derived by hand: every party observes its
/// stream with the shared master seed and ships one message; the referee
/// unions them. Returns the referee — its canonical union bytes and
/// estimate are the bitwise witnesses every engine must match.
fn hand_rolled_referee(
    config: &SketchConfig,
    master_seed: u64,
    streams: &gt_sketch::streams::StreamSet,
) -> Referee {
    let mut referee = Referee::new(config, master_seed);
    for (id, stream) in streams.streams.iter().enumerate() {
        let mut party = Party::new(id, config, master_seed);
        party.observe_stream(stream);
        referee.receive(&party.finish()).expect("clean delivery");
    }
    referee
}

fn hand_rolled_union(
    config: &SketchConfig,
    master_seed: u64,
    streams: &gt_sketch::streams::StreamSet,
) -> (bytes::Bytes, f64) {
    let referee = hand_rolled_referee(config, master_seed, streams);
    (
        encode_sketch(referee.union_sketch()),
        referee.estimate_distinct().value,
    )
}

#[test]
fn direct_batch_run_matches_the_hand_rolled_union() {
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let streams = workload(5, 0xC1A_551C).generate();
    let (canonical, estimate) = hand_rolled_union(&config, 7, &streams);

    let spec = ScenarioSpec::builder("classic-pin")
        .from_workload(&streams.spec)
        .build();
    let ScenarioOutcome::Batch(report) = run_spec_on(&config, 7, &spec, Some(&streams)) else {
        panic!("a batch spec must run the batch engine");
    };
    assert_eq!(report.estimate().to_bits(), estimate.to_bits());
    assert_eq!(report.referee_telemetry.accepted, 5);
    assert!(report.partial.is_complete());
    assert!(!canonical.is_empty());
}

#[test]
fn transport_batch_run_matches_the_hand_rolled_union() {
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let streams = workload(6, 0x2E51).generate();
    let (canonical, estimate) = hand_rolled_union(&config, 11, &streams);

    // A reliable-channel run through the collection plane recovers the
    // exact one-shot union.
    let spec = ScenarioSpec::builder("resilient-pin")
        .from_workload(&streams.spec)
        .transport(TransportSpec::reliable(1))
        .retry(RetryPolicy::one_shot())
        .build();
    let ScenarioOutcome::Batch(clean) = run_spec_on(&config, 11, &spec, Some(&streams)) else {
        panic!("a transport spec must run the batch engine");
    };
    assert!(clean.partial.is_complete());
    assert!(clean.collection.is_some());
    assert_eq!(clean.estimate().to_bits(), estimate.to_bits());
    assert!(!canonical.is_empty());
}

#[test]
fn expression_batch_run_matches_the_hand_rolled_referee() {
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let streams = workload(4, 0xE4B).generate();
    let (a, b, c) = (SetExpr::leaf(0), SetExpr::leaf(1), SetExpr::leaf(2));
    let queries = [
        a.clone().union(b.clone()),
        a.clone().intersect(c.clone()).difference(b.clone()),
    ];
    let jaccard = (a.clone().union(b.clone()), c.clone());

    let spec = ScenarioSpec::builder("expression-pin")
        .from_workload(&streams.spec)
        .query_expr(queries[0].clone())
        .query_expr(queries[1].clone())
        .query_jaccard(jaccard.0.clone(), jaccard.1.clone())
        .build();
    let ScenarioOutcome::Batch(report) = run_spec_on(&config, 13, &spec, Some(&streams)) else {
        panic!("expression queries must run the batch engine");
    };

    // The answers come from the same retained per-party summaries a
    // hand-rolled referee holds.
    let referee = hand_rolled_referee(&config, 13, &streams);
    assert_eq!(report.queries.len(), queries.len());
    for (got, expr) in report.queries.iter().zip(&queries) {
        assert_eq!(got.expr, expr.to_string());
        assert_eq!(
            got.answer.estimate.value.to_bits(),
            referee.query(expr).unwrap().estimate.value.to_bits()
        );
    }
    assert_eq!(report.jaccard_queries.len(), 1);
    assert_eq!(
        report.jaccard_queries[0].answer.jaccard.to_bits(),
        referee
            .query_jaccard(&jaccard.0, &jaccard.1)
            .unwrap()
            .jaccard
            .to_bits()
    );
}

#[test]
fn live_run_converges_to_the_hand_rolled_sequential_union() {
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let streams = workload(4, 0x11FE).generate();

    let spec = ScenarioSpec::builder("live-pin")
        .from_workload(&streams.spec)
        .ingest(IngestMode::SharedConcurrent {
            writer_threshold: 800,
        })
        .build();
    let ScenarioOutcome::Live(report) = run_spec_on(&config, 17, &spec, Some(&streams)) else {
        panic!("shared-concurrent ingest must dispatch to the live engine");
    };
    assert!(report.monotone);

    // Mid-flight samples are schedule-shaped, but the converged state
    // equals the hand-rolled sequential union of the same streams under
    // the same master seed.
    let mut sequential = gt_sketch::DistinctSketch::new(&config, 17);
    for stream in &streams.streams {
        sequential.extend_slice(stream);
    }
    assert_eq!(
        report.final_estimate.to_bits(),
        sequential.estimate_distinct().value.to_bits()
    );
}
