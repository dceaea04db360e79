//! What every workload shares: the closed-loop round clock, correctness
//! accounting, and the reduction of a run to named metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats::{median, Summary};
use crate::trace::{ratio, Layer, Op, Tracer};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("round_tail_ms", "ms"),
    ("query_p50_us", "us"),
    ("query_tail_us", "us"),
    ("wire_bytes_per_round", "B"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. Layers
/// a workload bypasses read 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("sketch.insert_ns_per_item", "ns"),
    ("sketch.admit_ratio", "ratio"),
    ("sketch.level_promotions", "count/round"),
    ("hash.ns_per_label", "ns"),
    ("codec.encode_ns_per_byte", "ns/B"),
    ("referee.receive_ms", "ms"),
    ("referee.decode_ms", "ms"),
    ("referee.merge_ms", "ms"),
    ("referee.other_ms", "ms"),
    ("referee.rejected", "count"),
    ("referee.duplicates", "count"),
    ("party.emit_frame_us", "us"),
    ("party.ack_us", "us"),
    ("referee.apply_frame_us", "us"),
    ("party.delta_frame_bytes", "B"),
    ("party.delta_share", "ratio"),
    ("referee.resyncs_requested", "count"),
    ("query.estimate_us", "us"),
    ("query.expr_us", "us"),
    ("store.extend_ns_per_item", "ns"),
    ("store.query_us", "us"),
    ("store.evictions", "count/round"),
    ("store.restores", "count/round"),
    ("store.spilled_bytes", "B/round"),
    ("store.restored_bytes", "B/round"),
    ("store.front_hit_ratio", "ratio"),
    ("store.resident_bytes", "B"),
    ("store.budget_bytes", "B"),
    ("ledger.wall_ms", "ms"),
    ("ledger.sketch_self_ms", "ms"),
    ("ledger.codec_self_ms", "ms"),
    ("ledger.referee_self_ms", "ms"),
    ("ledger.delta_self_ms", "ms"),
    ("ledger.query_self_ms", "ms"),
    ("ledger.store_self_ms", "ms"),
    ("ledger.residual_ms", "ms"),
    ("ledger.trace_overhead_pct", "%"),
];

/// How a workload reduces its samples: the tail percentiles it fixed and
/// how many consecutive rounds share one trace on/off setting.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub round_tail_q: f64,
    pub query_tail_q: f64,
    /// Traced runs alternate blocks of this many measured rounds between
    /// traced and untraced, so a periodic round (a reporting tick) falls
    /// on both sides.
    pub trace_block: usize,
}

/// One measured round.
#[derive(Clone, Copy, Debug)]
struct Round {
    wall_s: f64,
    traced: bool,
}

/// Counters a workload reads beside its traced spans; summed over traced
/// rounds and normalised per traced round when reported.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounts {
    pub admitted: u64,
    pub trial_inserts: u64,
    pub level_promotions: u64,
    pub decode: Duration,
    pub merge: Duration,
    pub rejected: u64,
    pub duplicates: u64,
    pub delta_frames: u64,
    pub frames: u64,
    pub delta_frame_bytes: u64,
    pub resyncs: u64,
    pub evictions: u64,
    pub restores: u64,
    pub spilled_bytes: u64,
    pub restored_bytes: u64,
    pub front_hits: u64,
    pub store_queries: u64,
    pub resident_bytes: u64,
    pub budget_bytes: u64,
}

/// The shared state of one run.
pub struct Recorder {
    pub tr: Tracer,
    trace_mode: bool,
    seconds: f64,
    deadline: Option<Instant>,
    measured: usize,
    rounds: Vec<Round>,
    setup_s: Vec<f64>,
    queries_s: Vec<f64>,
    /// Input labels absorbed by measured rounds.
    pub items: u64,
    /// Bytes shipped (or spilled and restored) by measured rounds.
    pub wire_bytes: u64,
    pub layer: LayerCounts,
    pub hash_ns_per_label: f64,
    checks: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Recorder {
    pub fn new(trace_mode: bool, seconds: f64) -> Recorder {
        Recorder {
            tr: Tracer::default(),
            trace_mode,
            seconds,
            deadline: None,
            measured: 0,
            rounds: Vec::new(),
            setup_s: Vec::new(),
            queries_s: Vec::new(),
            items: 0,
            wire_bytes: 0,
            layer: LayerCounts::default(),
            hash_ns_per_label: 0.0,
            checks: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    pub fn trace_mode(&self) -> bool {
        self.trace_mode
    }

    /// Time one set-up of the workload's library state.
    pub fn setup<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let t0 = Instant::now();
        let r = f(&mut self.tr);
        self.setup_s.push(t0.elapsed().as_secs_f64());
        r
    }

    /// Whether the measured window has closed.
    pub fn done(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Open a round; warm-up rounds (`measured == false`) are discarded.
    /// The first measured round starts the measured window.
    pub fn begin(&mut self, measured: bool, trace_block: usize) -> Instant {
        if measured && self.deadline.is_none() {
            self.deadline = Some(Instant::now() + Duration::from_secs_f64(self.seconds));
        }
        let traced = measured && self.trace_mode && (self.measured / trace_block).is_multiple_of(2);
        self.tr.begin_round(traced)
    }

    /// Close the round opened at `start`.
    pub fn end(&mut self, start: Instant, measured: bool) {
        let traced = self.tr.is_on();
        let wall_s = self.tr.end_round(start);
        if measured {
            self.rounds.push(Round { wall_s, traced });
            self.measured += 1;
        }
    }

    /// Whether the round just closed was traced (for counters read beside).
    pub fn last_traced(&self) -> bool {
        self.rounds.last().is_some_and(|r| r.traced)
    }

    pub fn query_sample(&mut self, latency: Duration, measured: bool) {
        if measured {
            self.queries_s.push(latency.as_secs_f64());
        }
    }

    /// Count one correctness check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Unwrap a library result, counting an error as a failure.
    pub fn ok<T, E: std::fmt::Debug>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        r.map_err(|e| self.fail(format!("{what}: {e:?}"))).ok()
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    pub fn attempted(&self) -> u64 {
        self.tr.calls() + self.checks
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn measured_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Reduce the run to its end-to-end metrics (untraced runs).
    pub fn end_to_end(&self, shape: Shape, peak_rss_mb: f64) -> Vec<Metric> {
        let walls: Vec<f64> = self.rounds.iter().map(|r| r.wall_s * 1e3).collect();
        let rounds = Summary::of(&walls, shape.round_tail_q);
        let queries_us: Vec<f64> = self.queries_s.iter().map(|q| q * 1e6).collect();
        let queries = Summary::of(&queries_us, shape.query_tail_q);
        let busy_s: f64 = self.rounds.iter().map(|r| r.wall_s).sum();
        let n_rounds = self.rounds.len();
        let values = [
            (median(&self.setup_s), self.setup_s.len()),
            (self.items as f64 / busy_s, n_rounds),
            (rounds.p50, rounds.n),
            (rounds.tail, rounds.n),
            (queries.p50, queries.n),
            (queries.tail, queries.n),
            (self.wire_bytes as f64 / n_rounds as f64, n_rounds),
            (peak_rss_mb, 1),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, n))| Metric {
                name,
                unit,
                value,
                n,
            })
            .collect()
    }

    /// Wall time of each traced block over the untraced block after it.
    /// Pairing adjacent blocks cancels the slow drift of round cost
    /// through an episode and across host load.
    fn block_pair_ratios(&self, trace_block: usize) -> Vec<f64> {
        let walls: Vec<f64> = self
            .rounds
            .chunks_exact(trace_block)
            .map(|b| b.iter().map(|r| r.wall_s).sum())
            .collect();
        walls.chunks_exact(2).map(|p| p[0] / p[1]).collect()
    }

    /// Reduce the run's traced rounds to per-layer metrics.
    pub fn per_layer(&self, shape: Shape) -> Vec<Metric> {
        let l = self.tr.ledger();
        let c = &self.layer;
        let per_round = |x: f64| {
            if l.rounds == 0 {
                0.0
            } else {
                x / l.rounds as f64
            }
        };
        let receive_ms = l.ns_per_call(Op::ReceiveBatch) / 1e6;
        let batches = l.op_calls[Op::ReceiveBatch as usize] as f64;
        let per_batch_ms = |d: Duration| {
            if batches == 0.0 {
                0.0
            } else {
                d.as_secs_f64() * 1e3 / batches
            }
        };
        let (decode_ms, merge_ms) = (per_batch_ms(c.decode), per_batch_ms(c.merge));
        let ratios = self.block_pair_ratios(shape.trace_block);
        let overhead_pct = if ratios.is_empty() {
            0.0
        } else {
            (median(&ratios) - 1.0) * 100.0
        };
        let self_ms = |layer: Layer| l.per_round_ms(l.layer_ns(layer) as f64);
        let mut v: BTreeMap<&str, f64> = BTreeMap::new();
        v.insert("sketch.insert_ns_per_item", l.ns_per_work(Op::Ingest));
        v.insert("sketch.admit_ratio", ratio(c.admitted, c.trial_inserts));
        v.insert(
            "sketch.level_promotions",
            per_round(c.level_promotions as f64),
        );
        v.insert("hash.ns_per_label", self.hash_ns_per_label);
        v.insert("codec.encode_ns_per_byte", l.ns_per_work(Op::Encode));
        v.insert("referee.receive_ms", receive_ms);
        v.insert("referee.decode_ms", decode_ms);
        v.insert("referee.merge_ms", merge_ms);
        v.insert(
            "referee.other_ms",
            if batches == 0.0 {
                0.0
            } else {
                receive_ms - decode_ms - merge_ms
            },
        );
        v.insert("referee.rejected", c.rejected as f64);
        v.insert("referee.duplicates", c.duplicates as f64);
        v.insert("party.emit_frame_us", l.ns_per_call(Op::EmitFrame) / 1e3);
        v.insert("party.ack_us", l.ns_per_call(Op::Ack) / 1e3);
        v.insert(
            "referee.apply_frame_us",
            l.ns_per_call(Op::ApplyFrame) / 1e3,
        );
        v.insert(
            "party.delta_frame_bytes",
            ratio(c.delta_frame_bytes, c.delta_frames),
        );
        v.insert("party.delta_share", ratio(c.delta_frames, c.frames));
        v.insert("referee.resyncs_requested", c.resyncs as f64);
        v.insert("query.estimate_us", l.ns_per_call(Op::Estimate) / 1e3);
        v.insert("query.expr_us", l.ns_per_call(Op::Expr) / 1e3);
        v.insert("store.extend_ns_per_item", l.ns_per_work(Op::StoreExtend));
        v.insert("store.query_us", l.ns_per_call(Op::StoreEstimate) / 1e3);
        v.insert("store.evictions", per_round(c.evictions as f64));
        v.insert("store.restores", per_round(c.restores as f64));
        v.insert("store.spilled_bytes", per_round(c.spilled_bytes as f64));
        v.insert("store.restored_bytes", per_round(c.restored_bytes as f64));
        v.insert(
            "store.front_hit_ratio",
            ratio(c.front_hits, c.store_queries),
        );
        v.insert("store.resident_bytes", c.resident_bytes as f64);
        v.insert("store.budget_bytes", c.budget_bytes as f64);
        v.insert("ledger.wall_ms", l.per_round_ms(l.wall_ns as f64));
        for layer in Layer::ALL {
            let name = match layer {
                Layer::Sketch => "ledger.sketch_self_ms",
                Layer::Codec => "ledger.codec_self_ms",
                Layer::Referee => "ledger.referee_self_ms",
                Layer::Delta => "ledger.delta_self_ms",
                Layer::Query => "ledger.query_self_ms",
                Layer::Store => "ledger.store_self_ms",
            };
            v.insert(name, self_ms(layer));
        }
        v.insert("ledger.residual_ms", l.per_round_ms(l.residual_ns() as f64));
        v.insert("ledger.trace_overhead_pct", overhead_pct);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: v[name],
                n: l.rounds,
            })
            .collect()
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_pairs_each_traced_block_with_the_next_untraced_one() {
        let mut rec = Recorder::new(true, 1.0);
        // Blocks of two rounds, cost drifting upwards; traced blocks are
        // 10% slower than the untraced block that follows them.
        for base in [1.0, 2.0, 3.0] {
            for traced in [true, false] {
                let wall = if traced { base * 1.1 } else { base };
                for _ in 0..2 {
                    rec.rounds.push(Round {
                        wall_s: wall,
                        traced,
                    });
                }
            }
        }
        let ratios = rec.block_pair_ratios(2);
        assert_eq!(ratios.len(), 3);
        assert!(ratios.iter().all(|r| (r - 1.1).abs() < 1e-12));
        // A trailing partial block or unpaired block is ignored.
        rec.rounds.push(Round {
            wall_s: 9.0,
            traced: true,
        });
        assert_eq!(rec.block_pair_ratios(2).len(), 3);
        assert!(Recorder::new(true, 1.0).block_pair_ratios(1).is_empty());
    }
}
