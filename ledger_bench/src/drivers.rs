//! One thin driver per layer: every operation the benchmark asks of the
//! library goes through here, so a change to a layer's public API edits
//! one spot, and every call is a span when the round is traced. Reads of
//! telemetry and state made for counters and checks call the library
//! directly, outside the round clock.

use crate::trace::{Op, Tracer};

/// `gt-core` sketches and their ingest kernels.
pub mod sketch {
    use super::*;
    use gt_core::{DistinctSketch, SketchConfig};
    use gt_streams::{DeltaParty, Party};
    use std::time::Instant;

    pub fn config(epsilon: f64, delta: f64) -> SketchConfig {
        SketchConfig::new(epsilon, delta).expect("static sketch parameters")
    }

    pub fn party(id: usize, config: &SketchConfig, master_seed: u64) -> Party {
        Party::new(id, config, master_seed)
    }

    pub fn delta_party(id: usize, config: &SketchConfig, master_seed: u64) -> DeltaParty<()> {
        DeltaParty::new(id, config, master_seed)
    }

    /// A party's one-pass ingest of a stream slice.
    pub fn observe(tr: &mut Tracer, party: &mut Party, labels: &[u64]) {
        tr.span(
            Op::Ingest,
            |_| labels.len() as u64,
            || party.observe_stream(labels),
        );
    }

    /// A sketch fed `labels` one at a time: the reference a keyed store's
    /// per-key state must equal.
    pub fn standalone(config: &SketchConfig, master_seed: u64, labels: &[u64]) -> DistinctSketch {
        let mut s = DistinctSketch::new(config, master_seed);
        for &label in labels {
            s.insert(label);
        }
        s
    }

    /// The reference union: a sequential left fold of the summaries.
    pub fn merge_all(sketches: &[DistinctSketch]) -> gt_core::Result<DistinctSketch> {
        gt_core::merge_all(sketches)
    }

    /// Nanoseconds to hash one label under every trial's hash function,
    /// measured beside the pipeline on `labels` (median of five passes).
    pub fn hash_ns_per_label(config: &SketchConfig, master_seed: u64, labels: &[u64]) -> f64 {
        let sketch = DistinctSketch::new(config, master_seed);
        let mut out = vec![0u64; gt_core::trial::KERNEL_CHUNK];
        let passes: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                for trial in sketch.trials() {
                    for chunk in labels.chunks(out.len()) {
                        let out = &mut out[..chunk.len()];
                        trial.hasher().hash_slice_into(chunk, out);
                        std::hint::black_box(out);
                    }
                }
                t0.elapsed().as_nanos() as f64 / labels.len().max(1) as f64
            })
            .collect();
        crate::stats::median(&passes)
    }

    /// A monitoring party's ingest of one tick's labels.
    pub fn observe_delta(tr: &mut Tracer, party: &mut DeltaParty<()>, labels: &[u64]) {
        tr.span(
            Op::Ingest,
            |_| labels.len() as u64,
            || {
                for &label in labels {
                    party.observe_with(label, ());
                }
            },
        );
    }
}

/// `gt-streams::codec`: whole-summary encoding.
pub mod codec {
    use super::*;
    use gt_core::GtSketch;
    use gt_streams::{encode_sketch, payload_fingerprint, Party, PartyMessage};

    /// End of stream: encode the party's single message.
    pub fn finish(tr: &mut Tracer, party: Party) -> PartyMessage {
        tr.span(
            Op::Encode,
            |m: &PartyMessage| m.bytes() as u64,
            || party.finish(),
        )
    }

    /// Encode a retained party summary as a fresh message.
    pub fn encode(tr: &mut Tracer, party: &Party) -> PartyMessage {
        tr.span(
            Op::Encode,
            |m: &PartyMessage| m.bytes() as u64,
            || PartyMessage {
                party_id: party.id(),
                payload: encode_sketch(party.sketch()),
                items_observed: party.sketch().items_observed(),
            },
        )
    }

    /// Canonical wire bytes of a sketch: the equality every check uses.
    pub fn canonical(sketch: &GtSketch<()>) -> Vec<u8> {
        encode_sketch(sketch).to_vec()
    }

    /// A short fingerprint of [`canonical`], for per-round comparisons.
    pub fn fingerprint(sketch: &GtSketch<()>) -> u64 {
        payload_fingerprint(&encode_sketch(sketch))
    }
}

/// `gt-streams::referee`: the union of shipped summaries and frames.
pub mod referee {
    use super::*;
    use gt_core::SketchConfig;
    use gt_streams::{CodecError, PartyMessage, Receipt, Referee};

    pub fn new(config: &SketchConfig, master_seed: u64) -> Referee {
        Referee::new(config, master_seed)
    }

    /// One collection round's messages, received as a batch.
    pub fn receive(
        tr: &mut Tracer,
        referee: &mut Referee,
        msgs: &[PartyMessage],
    ) -> Vec<Result<Receipt, CodecError>> {
        tr.span(
            Op::ReceiveBatch,
            |_| msgs.len() as u64,
            || referee.receive_batch(msgs),
        )
    }

    /// The generation to ack back to `party_id` after its frames.
    pub fn acked_generation(referee: &Referee, party_id: usize) -> Option<u64> {
        referee.acked_generation(party_id)
    }

    /// One continuous-monitoring frame.
    pub fn receive_frame(
        tr: &mut Tracer,
        referee: &mut Referee,
        msg: &PartyMessage,
    ) -> Result<Receipt, CodecError> {
        tr.span(
            Op::ApplyFrame,
            |_| msg.bytes() as u64,
            || referee.receive_frame(msg),
        )
    }
}

/// The delta plane's party side.
pub mod delta {
    use super::*;
    use gt_streams::{DeltaParty, PartyMessage};

    pub fn emit_frame(tr: &mut Tracer, party: &mut DeltaParty<()>) -> PartyMessage {
        tr.span(
            Op::EmitFrame,
            |m: &PartyMessage| m.bytes() as u64,
            || party.emit_frame(),
        )
    }

    pub fn ack(tr: &mut Tracer, party: &mut DeltaParty<()>, generation: u64) {
        tr.span(Op::Ack, |_| 1, || party.handle_ack(generation));
    }
}

/// `gt-core::{estimate,expr}` answered at the referee.
pub mod query {
    use super::*;
    use gt_core::{Estimate, ExpressionEstimate, SetExpr};
    use gt_streams::Referee;

    pub fn estimate(tr: &mut Tracer, referee: &Referee) -> Estimate {
        tr.span(Op::Estimate, |_| 1, || referee.estimate_distinct())
    }

    pub fn expr(
        tr: &mut Tracer,
        referee: &Referee,
        expr: &SetExpr,
    ) -> gt_core::Result<ExpressionEstimate> {
        tr.span(Op::Expr, |_| 1, || referee.query(expr))
    }
}

/// `gt-store`: keyed ingest and point queries.
pub mod store {
    use super::*;
    use gt_core::{Estimate, SketchConfig};
    use gt_store::{DistinctStore, StoreMetricsSnapshot, StoreOptions};
    use std::path::Path;

    pub fn new(
        config: &SketchConfig,
        master_seed: u64,
        shards: usize,
        budget: usize,
        spill_dir: &Path,
    ) -> gt_store::Result<DistinctStore> {
        let options = StoreOptions::default()
            .with_shards(shards)
            .with_byte_budget(budget)
            .with_spill_dir(spill_dir);
        DistinctStore::new(config, master_seed, options)
    }

    pub fn extend(
        tr: &mut Tracer,
        store: &DistinctStore,
        items: &[(u64, u64)],
    ) -> gt_store::Result<()> {
        tr.span(
            Op::StoreExtend,
            |_| items.len() as u64,
            || store.extend(items),
        )
    }

    pub fn estimate(
        tr: &mut Tracer,
        store: &DistinctStore,
        key: u64,
    ) -> gt_store::Result<Option<Estimate>> {
        tr.span(Op::StoreEstimate, |_| 1, || store.estimate(key))
    }

    /// A consistent cut of the store's counters (read between rounds).
    pub fn metrics(store: &DistinctStore) -> StoreMetricsSnapshot {
        store.metrics_snapshot()
    }

    /// A key's state in canonical wire bytes, whatever tier holds it.
    pub fn canonical_bytes(store: &DistinctStore, key: u64) -> gt_store::Result<Option<Vec<u8>>> {
        Ok(store.canonical_bytes(key)?.map(|b| b.to_vec()))
    }
}
