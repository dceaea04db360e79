//! `batch_ingest` — the paper's one-shot model. A few parties each ingest
//! a long Zipf stream in one pass and ship one full message; the referee
//! unions them and answers. Insert dominates; with `PARTIES` below
//! `MERGE_TREE_CROSSOVER` the referee's merge stays sequential.
//!
//! A round is one complete answer, from the first label to the union
//! estimate and one intersection query; parties and referee are created
//! fresh for every round, and that creation is the round's set-up.

use std::time::Instant;

use gt_streams::{Distribution, PartyMessage, Receipt, StreamOracle, WorkloadSpec};

use super::{pair_expr, seeds, within, Pair, Workload, HASH_PROBE_LABELS};
use crate::bench::{Recorder, Shape};
use crate::drivers::{codec, query, referee, sketch};

const PARTIES: usize = 4;
const SUB_UNIVERSE: u64 = 1_000_000;
/// About 136k distinct labels per party and 358k in the union: 2^6.8 and
/// 2^8.2 times the trial capacity, so every trial settles at the same
/// level and message sizes barely move with the seed. (At 600k draws a
/// party holds 2^7.0 capacities and its trials split between two levels,
/// which swings message bytes by ±10% from seed to seed.)
const ITEMS_PER_PARTY: u64 = 500_000;
const EPSILON: f64 = 0.1;
const DELTA: f64 = 0.05;
const WARMUP_ROUNDS: usize = 1;

/// About 5 answers per second: ~100 per 20 s run, so the 75th percentile
/// keeps ~25 samples beyond it and the 90th would keep barely 10. The query is the
/// intersection of parties 0 and 1.
pub const SHAPE: Shape = Shape {
    round_tail_q: 0.75,
    query_tail_q: 0.75,
    trace_block: 1,
};

/// What every measured round must reproduce exactly.
struct Reference {
    estimate_bits: u64,
    expr_bits: u64,
    union_fingerprint: u64,
}

pub fn run(rec: &mut Recorder, seed: u64) {
    let (input_seed, master_seed) = seeds(seed, Workload::BatchIngest);
    let spec = WorkloadSpec {
        parties: PARTIES,
        distinct_per_party: SUB_UNIVERSE,
        overlap: 0.5,
        items_per_party: ITEMS_PER_PARTY,
        distribution: Distribution::Zipf(1.0),
        seed: input_seed,
    };
    let streams = spec.generate().streams;
    let truth = StreamOracle::of_streams(streams.iter().map(Vec::as_slice)).distinct() as f64;
    let pair = Pair::of(&streams);
    let expr = pair_expr();
    let config = sketch::config(EPSILON, DELTA);

    let mut reference: Option<Reference> = None;
    let mut round = 0usize;
    while !rec.done() {
        let measured = round >= WARMUP_ROUNDS;
        round += 1;
        let (mut parties, mut referee) = rec.setup(|_| {
            let parties: Vec<_> = (0..PARTIES)
                .map(|p| sketch::party(p, &config, master_seed))
                .collect();
            (parties, referee::new(&config, master_seed))
        });

        let mut party_sketches = Vec::new();
        let start = rec.begin(measured, SHAPE.trace_block);
        for (party, stream) in parties.iter_mut().zip(&streams) {
            sketch::observe(&mut rec.tr, party, stream);
        }
        if reference.is_none() {
            // Warm-up only: keep the party summaries for the merge_all check.
            party_sketches = parties.iter().map(|p| p.sketch().clone()).collect();
        }
        let ingest = rec.tr.is_on().then(|| {
            let mut m = gt_core::MetricsSnapshot::default();
            parties
                .iter()
                .for_each(|p| m.absorb(&p.sketch().metrics_snapshot()));
            m
        });
        let msgs: Vec<PartyMessage> = parties
            .into_iter()
            .map(|p| codec::finish(&mut rec.tr, p))
            .collect();
        let receipts = referee::receive(&mut rec.tr, &mut referee, &msgs);
        let answer = query::estimate(&mut rec.tr, &referee);
        let q0 = Instant::now();
        let inter = query::expr(&mut rec.tr, &referee, &expr);
        let query_latency = q0.elapsed();
        rec.end(start, measured);
        rec.query_sample(query_latency, measured);

        if measured {
            rec.items += PARTIES as u64 * ITEMS_PER_PARTY;
            rec.wire_bytes += msgs.iter().map(|m| m.bytes() as u64).sum::<u64>();
        }
        if let Some(m) = ingest {
            let t = referee.telemetry();
            let c = &mut rec.layer;
            c.admitted += m.inserts_sampled + m.inserts_sampled_after_promotion;
            c.trial_inserts += m.trial_inserts();
            c.level_promotions += m.level_promotions + referee.union_metrics().level_promotions;
            c.decode += t.decode_time;
            c.merge += t.merge_time;
            c.rejected += t.rejected() as u64;
            c.duplicates += t.duplicates() as u64;
        }

        for r in receipts {
            let r = rec.ok(r, "receive_batch");
            rec.check(r.is_none() || r == Some(Receipt::Merged), || {
                format!("receipt {r:?}, expected Merged")
            });
        }
        let inter = rec
            .ok(inter, "query")
            .map_or(f64::NAN, |e| e.estimate.value);
        let fingerprint = codec::fingerprint(referee.union_sketch());
        match &reference {
            None => {
                let merged = rec.ok(sketch::merge_all(&party_sketches), "merge_all");
                rec.check(
                    merged.is_some_and(|m| {
                        codec::canonical(&m) == codec::canonical(referee.union_sketch())
                    }),
                    || "referee union differs from the merge_all reference".into(),
                );
                rec.check(within(answer.value, truth, EPSILON, truth), || {
                    format!("union estimate {} vs true {truth}", answer.value)
                });
                pair.check(rec, inter, EPSILON);
                reference = Some(Reference {
                    estimate_bits: answer.value.to_bits(),
                    expr_bits: inter.to_bits(),
                    union_fingerprint: fingerprint,
                });
            }
            Some(r) => {
                rec.check(
                    answer.value.to_bits() == r.estimate_bits && inter.to_bits() == r.expr_bits,
                    || {
                        format!(
                            "answers {} / {inter} differ from the reference round",
                            answer.value
                        )
                    },
                );
                rec.check(fingerprint == r.union_fingerprint, || {
                    "union bytes differ from the reference round".into()
                });
            }
        }
    }

    if rec.trace_mode() {
        let labels = &streams[0][..HASH_PROBE_LABELS.min(streams[0].len())];
        rec.hash_ns_per_label = sketch::hash_ns_per_label(&config, master_seed, labels);
    }
}
