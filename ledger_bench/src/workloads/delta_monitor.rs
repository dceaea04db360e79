//! `delta_monitor` — continuous monitoring. Monitoring parties ingest a
//! few Zipf labels per tick; every `REPORT_EVERY` ticks each party emits
//! a frame (a delta against its acked base once it has one), the referee
//! applies it to the live union, and the party takes the ack. The union
//! estimate is read every tick, and the intersection of parties 0 and 1
//! after every reporting round. The frame path does most of the work.
//!
//! A round is one tick. Ticks run in whole episodes of `EPISODE_TICKS`
//! over the same generated inputs, each with fresh parties and referee, so
//! every run measures the same mix of ticks whatever its speed; the
//! episode running when the window closes is finished. The first two
//! reporting periods of an episode (the full-frame ramp) are warm-up.

use std::time::Instant;

use gt_streams::{Distribution, PartyMessage, Receipt, StreamOracle, WorkloadSpec};

use super::{pair_expr, seeds, within, Pair, Workload, HASH_PROBE_LABELS};
use crate::bench::{Recorder, Shape};
use crate::drivers::{codec, delta, query, referee, sketch};

const PARTIES: usize = 32;
const LABELS_PER_TICK: usize = 256;
const REPORT_EVERY: usize = 10;
/// A multiple of `REPORT_EVERY`, so an episode ends on a reporting tick.
const EPISODE_TICKS: usize = 200;
const WARMUP_TICKS: usize = 2 * REPORT_EVERY;
const SUB_UNIVERSE: u64 = 100_000;
const EPSILON: f64 = 0.1;
const DELTA: f64 = 0.05;
const SETUPS: usize = 7;

/// One tick in ten reports, and reporting ticks cost ~100x the others:
/// the median is an ingest tick and the 95th percentile sits in the
/// middle of the reporting ticks, with ~35 samples beyond it per 20 s
/// run. The intersection query runs once per reporting round, ~70 times
/// a run, so its tail is the 75th percentile.
pub const SHAPE: Shape = Shape {
    round_tail_q: 0.95,
    query_tail_q: 0.75,
    trace_block: REPORT_EVERY,
};

pub fn run(rec: &mut Recorder, seed: u64) {
    let (input_seed, master_seed) = seeds(seed, Workload::DeltaMonitor);
    let spec = WorkloadSpec {
        parties: PARTIES,
        distinct_per_party: SUB_UNIVERSE,
        overlap: 0.5,
        items_per_party: (EPISODE_TICKS * LABELS_PER_TICK) as u64,
        distribution: Distribution::Zipf(1.05),
        seed: input_seed,
    };
    let streams = spec.generate().streams;
    let config = sketch::config(EPSILON, DELTA);
    let expr = pair_expr();
    let fresh = |_: &mut crate::trace::Tracer| {
        let parties: Vec<_> = (0..PARTIES)
            .map(|p| sketch::delta_party(p, &config, master_seed))
            .collect();
        (parties, referee::new(&config, master_seed))
    };
    for _ in 0..SETUPS {
        rec.setup(fresh);
    }

    while !rec.done() {
        let (mut parties, mut referee) = rec.setup(fresh);
        let mut before = sketch_totals(&parties, &referee);
        for tick in 1..=EPISODE_TICKS {
            let measured = tick > WARMUP_TICKS;
            let reporting = tick % REPORT_EVERY == 0;
            let mut receipts = Vec::new();
            let mut frames: Vec<usize> = Vec::new();
            let start = rec.begin(measured, SHAPE.trace_block);
            for (p, party) in parties.iter_mut().enumerate() {
                sketch::observe_delta(&mut rec.tr, party, tick_labels(&streams, p, tick));
            }
            if reporting {
                for party in &mut parties {
                    let msg: PartyMessage = delta::emit_frame(&mut rec.tr, party);
                    frames.push(msg.bytes());
                    let receipt = referee::receive_frame(&mut rec.tr, &mut referee, &msg);
                    if let Some(generation) = referee::acked_generation(&referee, msg.party_id) {
                        delta::ack(&mut rec.tr, party, generation);
                    }
                    receipts.push(receipt);
                }
            }
            std::hint::black_box(query::estimate(&mut rec.tr, &referee));
            // The intersection only changes when frames land: ask it once
            // per reporting round.
            let inter = reporting.then(|| {
                let q0 = Instant::now();
                let inter = query::expr(&mut rec.tr, &referee, &expr);
                (inter, q0.elapsed())
            });
            rec.end(start, measured);
            if let Some((inter, latency)) = inter {
                rec.query_sample(latency, measured);
                rec.ok(inter, "query");
            }

            if rec.trace_mode() {
                let after = sketch_totals(&parties, &referee);
                if rec.last_traced() {
                    let c = &mut rec.layer;
                    c.admitted += after.0 - before.0;
                    c.trial_inserts += after.1 - before.1;
                    c.level_promotions += after.2 - before.2;
                }
                before = after;
            }
            if measured {
                rec.items += (PARTIES * LABELS_PER_TICK) as u64;
                rec.wire_bytes += frames.iter().sum::<usize>() as u64;
            }
            for r in receipts {
                let r = rec.ok(r, "receive_frame");
                rec.check(r.is_none() || r == Some(Receipt::Merged), || {
                    format!("frame receipt {r:?}, expected Merged")
                });
            }
        }
        if rec.trace_mode() {
            let t = referee.delta_telemetry();
            let c = &mut rec.layer;
            // Frame counters cover the episode, traced or not: their
            // ratios are what the layer metrics report.
            c.delta_frames += t.delta_frames;
            c.frames += t.frames_applied();
            c.delta_frame_bytes += t.delta_bytes;
            c.resyncs += t.resyncs_requested;
            c.rejected += referee.telemetry().rejected() as u64;
            c.duplicates += referee.telemetry().duplicates() as u64;
        }
        check_episode(rec, &parties, &referee, &streams);
    }

    if rec.trace_mode() {
        let labels: Vec<u64> = streams
            .concat()
            .into_iter()
            .take(HASH_PROBE_LABELS)
            .collect();
        rec.hash_ns_per_label = sketch::hash_ns_per_label(&config, master_seed, &labels);
    }
}

/// Party `party`'s labels for 1-based `tick`.
fn tick_labels(streams: &[Vec<u64>], party: usize, tick: usize) -> &[u64] {
    &streams[party][(tick - 1) * LABELS_PER_TICK..tick * LABELS_PER_TICK]
}

/// Running (admitted, trial inserts, level promotions) over the parties'
/// sketches and the live union.
fn sketch_totals(
    parties: &[gt_streams::DeltaParty<()>],
    referee: &gt_streams::Referee,
) -> (u64, u64, u64) {
    let mut m = referee.union_metrics();
    parties
        .iter()
        .for_each(|p| m.absorb(&p.sketch().metrics_snapshot()));
    (
        m.inserts_sampled + m.inserts_sampled_after_promotion,
        m.trial_inserts(),
        m.level_promotions,
    )
}

/// The live union must equal the merge of every party's acked snapshot,
/// and its estimate must meet the contract against the labels reported.
fn check_episode(
    rec: &mut Recorder,
    parties: &[gt_streams::DeltaParty<()>],
    referee: &gt_streams::Referee,
    streams: &[Vec<u64>],
) {
    let acked: Option<Vec<_>> = parties
        .iter()
        .map(|p| {
            p.acked_generation()
                .and_then(|g| p.snapshot_for(g))
                .cloned()
        })
        .collect();
    rec.check(acked.is_some(), || "a party holds no acked snapshot".into());
    if let Some(acked) = acked {
        let merged = rec.ok(sketch::merge_all(&acked), "merge_all");
        rec.check(
            merged
                .is_some_and(|m| codec::canonical(&m) == codec::canonical(referee.union_sketch())),
            || "live union differs from the merge of acked snapshots".into(),
        );
    }
    let reported = |p: usize| {
        let mut oracle = StreamOracle::new();
        (1..=EPISODE_TICKS).for_each(|tick| oracle.observe(tick_labels(streams, p, tick)));
        oracle
    };
    let mut union = StreamOracle::new();
    for p in 0..parties.len() {
        (1..=EPISODE_TICKS).for_each(|tick| union.observe(tick_labels(streams, p, tick)));
    }
    let truth = union.distinct() as f64;
    let estimate = query::estimate(&mut rec.tr, referee).value;
    rec.check(within(estimate, truth, EPSILON, truth), || {
        format!("live union estimate {estimate} vs true {truth}")
    });
    let pair = Pair::of_oracles(&reported(0), &reported(1));
    let inter = query::expr(&mut rec.tr, referee, &pair_expr());
    if let Some(inter) = rec.ok(inter, "query") {
        pair.check(rec, inter.estimate.value, EPSILON);
    }
}
