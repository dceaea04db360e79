//! Spans around every call the benchmark makes into a layer, kept in
//! memory and reduced to a per-layer ledger when the run ends.
//!
//! Every round of a workload is a root span; each driver call inside it
//! is a child span tagged with the operation it ran. Drivers never nest,
//! so a child's self time is its duration and the root's self time — the
//! ledger's residual — is the round's wall time minus its children.

use std::time::Instant;

/// The layers the ledger attributes time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `gt-hash` lanes and `gt-core::{sketch,trial}` ingest.
    Sketch,
    /// `gt-streams::codec` encoding of whole summaries.
    Codec,
    /// `gt-streams::referee` batch receive, with `gt-core::merge`.
    Referee,
    /// The delta plane: `DeltaParty` frames and `receive_frame`.
    Delta,
    /// `gt-core::{estimate,expr}` queries at the referee.
    Query,
    /// `gt-store` keyed ingest and point queries.
    Store,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Sketch,
        Layer::Codec,
        Layer::Referee,
        Layer::Delta,
        Layer::Query,
        Layer::Store,
    ];
}

/// One public library function the drivers call, i.e. one span name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `Party::observe_stream` / `DeltaParty::observe_with`; work = labels.
    Ingest,
    /// `encode_sketch` / `Party::finish`; work = bytes produced.
    Encode,
    /// `RefereeOf::receive_batch`; work = messages.
    ReceiveBatch,
    /// `DeltaParty::emit_frame`; work = frame bytes.
    EmitFrame,
    /// `DeltaParty::handle_ack`; work = 1.
    Ack,
    /// `RefereeOf::receive_frame`; work = frame bytes.
    ApplyFrame,
    /// `RefereeOf::estimate_distinct`; work = 1.
    Estimate,
    /// `RefereeOf::query` on a `SetExpr`; work = 1.
    Expr,
    /// `SketchStore::extend`; work = items.
    StoreExtend,
    /// `SketchStore::estimate`; work = 1.
    StoreEstimate,
}

impl Op {
    pub const ALL: [Op; 10] = [
        Op::Ingest,
        Op::Encode,
        Op::ReceiveBatch,
        Op::EmitFrame,
        Op::Ack,
        Op::ApplyFrame,
        Op::Estimate,
        Op::Expr,
        Op::StoreExtend,
        Op::StoreEstimate,
    ];
    pub const COUNT: usize = Op::ALL.len();

    pub fn layer(self) -> Layer {
        match self {
            Op::Ingest => Layer::Sketch,
            Op::Encode => Layer::Codec,
            Op::ReceiveBatch => Layer::Referee,
            Op::EmitFrame | Op::Ack | Op::ApplyFrame => Layer::Delta,
            Op::Estimate | Op::Expr => Layer::Query,
            Op::StoreExtend | Op::StoreEstimate => Layer::Store,
        }
    }
}

/// A closed child span: which operation, in which round, for how long.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: Op,
    pub round: u32,
    pub dur_ns: u64,
    pub work: u64,
}

/// A closed root span: one measured round.
#[derive(Clone, Copy, Debug)]
pub struct RoundSpan {
    pub round: u32,
    pub wall_ns: u64,
}

/// Collects spans while a traced round is open; a no-op otherwise.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    round: u32,
    calls: u64,
    spans: Vec<Span>,
    rounds: Vec<RoundSpan>,
}

impl Tracer {
    /// Open a round. Spans are recorded only when `traced` is set.
    pub fn begin_round(&mut self, traced: bool) -> Instant {
        self.on = traced;
        Instant::now()
    }

    /// Close the round opened at `start`; returns its wall time in seconds.
    pub fn end_round(&mut self, start: Instant) -> f64 {
        let wall = start.elapsed();
        if self.on {
            self.rounds.push(RoundSpan {
                round: self.round,
                wall_ns: wall.as_nanos() as u64,
            });
        }
        self.on = false;
        self.round += 1;
        wall.as_secs_f64()
    }

    /// Run `f` as one call into `op`'s layer, recording a span when traced;
    /// `work` reads the call's work units off its result.
    #[inline]
    pub fn span<R>(&mut self, op: Op, work: impl FnOnce(&R) -> u64, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            op,
            round: self.round,
            dur_ns,
            work: work(&r),
        });
        r
    }

    /// Driver calls made so far, traced or not.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Whether the open round is traced (for counters read beside spans).
    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn ledger(&self) -> Ledger {
        Ledger::from_spans(&self.rounds, &self.spans)
    }
}

/// Per-operation and per-layer totals over the traced rounds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    pub rounds: usize,
    pub wall_ns: u64,
    pub op_ns: [u64; Op::COUNT],
    pub op_calls: [u64; Op::COUNT],
    pub op_work: [u64; Op::COUNT],
}

impl Ledger {
    /// Reduce spans to totals. Spans outside a recorded round are ignored.
    pub fn from_spans(rounds: &[RoundSpan], spans: &[Span]) -> Ledger {
        let mut l = Ledger {
            rounds: rounds.len(),
            wall_ns: rounds.iter().map(|r| r.wall_ns).sum(),
            ..Ledger::default()
        };
        let traced: std::collections::HashSet<u32> = rounds.iter().map(|r| r.round).collect();
        for s in spans.iter().filter(|s| traced.contains(&s.round)) {
            let i = s.op as usize;
            l.op_ns[i] += s.dur_ns;
            l.op_calls[i] += 1;
            l.op_work[i] += s.work;
        }
        l
    }

    /// Self time of `layer`, summed over its operations' spans.
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        Op::ALL
            .iter()
            .filter(|op| op.layer() == layer)
            .map(|&op| self.op_ns[op as usize])
            .sum()
    }

    /// Wall time no layer span covers: the rounds' own self time.
    pub fn residual_ns(&self) -> i64 {
        let covered: u64 = Layer::ALL.iter().map(|&l| self.layer_ns(l)).sum();
        self.wall_ns as i64 - covered as i64
    }

    /// Per traced round, in milliseconds (0 when nothing was traced).
    pub fn per_round_ms(&self, ns: f64) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            ns / self.rounds as f64 / 1e6
        }
    }

    /// Mean nanoseconds per call of `op` (0 when never called).
    pub fn ns_per_call(&self, op: Op) -> f64 {
        ratio(self.op_ns[op as usize], self.op_calls[op as usize])
    }

    /// Nanoseconds per unit of work of `op` (0 when no work).
    pub fn ns_per_work(&self, op: Op) -> f64 {
        ratio(self.op_ns[op as usize], self.op_work[op as usize])
    }
}

/// `num / den` as f64, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: Op, round: u32, dur_ns: u64, work: u64) -> Span {
        Span {
            op,
            round,
            dur_ns,
            work,
        }
    }

    #[test]
    fn layers_plus_residual_equal_wall() {
        let rounds = [
            RoundSpan {
                round: 0,
                wall_ns: 1_000,
            },
            RoundSpan {
                round: 2,
                wall_ns: 3_000,
            },
        ];
        let spans = [
            span(Op::Ingest, 0, 600, 60),
            span(Op::Encode, 0, 100, 400),
            span(Op::EmitFrame, 2, 1_000, 10),
            span(Op::ApplyFrame, 2, 1_500, 10),
            span(Op::Estimate, 2, 200, 1),
            // Round 1 was untraced: its spans must not count.
            span(Op::Ingest, 1, 9_999, 1),
        ];
        let l = Ledger::from_spans(&rounds, &spans);
        assert_eq!(l.rounds, 2);
        assert_eq!(l.wall_ns, 4_000);
        assert_eq!(l.layer_ns(Layer::Sketch), 600);
        assert_eq!(l.layer_ns(Layer::Codec), 100);
        assert_eq!(l.layer_ns(Layer::Delta), 2_500);
        assert_eq!(l.layer_ns(Layer::Query), 200);
        assert_eq!(l.layer_ns(Layer::Store), 0);
        assert_eq!(l.residual_ns(), 600);
        let layers: u64 = Layer::ALL.iter().map(|&x| l.layer_ns(x)).sum();
        assert_eq!(layers as i64 + l.residual_ns(), l.wall_ns as i64);
        assert_eq!(l.per_round_ms(l.wall_ns as f64), 0.002);
        assert_eq!(l.ns_per_work(Op::Ingest), 10.0);
        assert_eq!(l.ns_per_call(Op::ApplyFrame), 1_500.0);
        assert_eq!(l.ns_per_call(Op::StoreExtend), 0.0);
    }

    #[test]
    fn tracer_records_only_traced_rounds() {
        let mut t = Tracer::default();
        for traced in [false, true, false] {
            let start = t.begin_round(traced);
            let x = t.span(Op::Ingest, |_| 5, || 2 + 2);
            assert_eq!(x, 4);
            t.end_round(start);
        }
        let l = t.ledger();
        assert_eq!(l.rounds, 1);
        assert_eq!(l.op_calls[Op::Ingest as usize], 1);
        assert_eq!(l.op_work[Op::Ingest as usize], 5);
        assert!(l.residual_ns() >= 0, "a child span lies inside its round");
    }

    #[test]
    fn empty_ledger_is_all_zero() {
        let l = Ledger::from_spans(&[], &[]);
        assert_eq!(l.residual_ns(), 0);
        assert_eq!(l.per_round_ms(123.0), 0.0);
    }
}
