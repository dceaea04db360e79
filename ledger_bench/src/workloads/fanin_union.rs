//! `fanin_union` — many parties, light ingest. Party summaries are built
//! in set-up; each round encodes every summary, hands the batch to a fresh
//! referee, and answers a union estimate and one intersection query. The
//! codec, the referee and the tree merge (`PARTIES` is well above
//! `MERGE_TREE_CROSSOVER`) do the work; ingest shows only in `setup_s`.

use std::time::Instant;

use gt_streams::{Distribution, Party, PartyMessage, Receipt, StreamOracle, WorkloadSpec};

use super::{pair_expr, seeds, within, Pair, Workload, HASH_PROBE_LABELS};
use crate::bench::{Recorder, Shape};
use crate::drivers::{codec, query, referee, sketch};

const PARTIES: usize = 64;
/// 24k labels per party is 2^4.3 trial capacities and the 780k-label
/// union 2^9.3, so every trial settles at the same level whatever the
/// seed (20k sits at 2^4.06 and splits trials across two levels).
const LABELS_PER_PARTY: u64 = 24_000;
const EPSILON: f64 = 0.1;
const DELTA: f64 = 0.05;
const SETUPS: usize = 3;
/// The first round runs about twice as long as later ones.
const WARMUP_ROUNDS: usize = 2;

/// About 6 rounds per second: ~130 per 20 s run, where the 90th
/// percentile would keep barely 13 samples beyond it; the 75th keeps 30.
/// One expression query per round.
pub const SHAPE: Shape = Shape {
    round_tail_q: 0.75,
    query_tail_q: 0.75,
    trace_block: 1,
};

struct Reference {
    estimate_bits: u64,
    expr_bits: u64,
    union_fingerprint: u64,
}

pub fn run(rec: &mut Recorder, seed: u64) {
    let (input_seed, master_seed) = seeds(seed, Workload::FaninUnion);
    let spec = WorkloadSpec {
        parties: PARTIES,
        distinct_per_party: LABELS_PER_PARTY,
        overlap: 0.5,
        items_per_party: LABELS_PER_PARTY,
        distribution: Distribution::EachOnce,
        seed: input_seed,
    };
    let streams = spec.generate().streams;
    let truth = StreamOracle::of_streams(streams.iter().map(Vec::as_slice)).distinct() as f64;
    let pair = Pair::of(&streams);
    let expr = pair_expr();
    let config = sketch::config(EPSILON, DELTA);

    let mut parties: Vec<Party> = Vec::new();
    for _ in 0..SETUPS {
        parties = rec.setup(|tr| {
            streams
                .iter()
                .enumerate()
                .map(|(p, stream)| {
                    let mut party = sketch::party(p, &config, master_seed);
                    sketch::observe(tr, &mut party, stream);
                    party
                })
                .collect()
        });
    }

    let mut reference: Option<Reference> = None;
    let mut round = 0usize;
    while !rec.done() {
        let measured = round >= WARMUP_ROUNDS;
        round += 1;
        let start = rec.begin(measured, SHAPE.trace_block);
        let mut referee = referee::new(&config, master_seed);
        let msgs: Vec<PartyMessage> = parties
            .iter()
            .map(|p| codec::encode(&mut rec.tr, p))
            .collect();
        let receipts = referee::receive(&mut rec.tr, &mut referee, &msgs);
        let answer = query::estimate(&mut rec.tr, &referee);
        let q0 = Instant::now();
        let inter = query::expr(&mut rec.tr, &referee, &expr);
        let query_latency = q0.elapsed();
        rec.end(start, measured);
        rec.query_sample(query_latency, measured);

        if measured {
            rec.items += PARTIES as u64 * LABELS_PER_PARTY;
            rec.wire_bytes += msgs.iter().map(|m| m.bytes() as u64).sum::<u64>();
        }
        if rec.last_traced() {
            let t = referee.telemetry();
            let c = &mut rec.layer;
            c.level_promotions += referee.union_metrics().level_promotions;
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
                let sketches: Vec<_> = parties.iter().map(|p| p.sketch().clone()).collect();
                let merged = rec.ok(sketch::merge_all(&sketches), "merge_all");
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
        let labels: Vec<u64> = streams
            .concat()
            .into_iter()
            .take(HASH_PROBE_LABELS)
            .collect();
        rec.hash_ns_per_label = sketch::hash_ns_per_label(&config, master_seed, &labels);
    }
}
