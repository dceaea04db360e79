//! Sketch-ops stats report: one place that renders everything the
//! observability layer records — union-sketch counters
//! ([`gt_core::MetricsSnapshot`]), referee decode/merge telemetry
//! ([`gt_streams::RefereeTelemetry`]), and per-party phase timings — both
//! human-readable and as a single JSON object (hand-rolled; the build
//! carries no JSON dependency).
//!
//! The `experiments` binary prints this after every run and the
//! `sketch_stats` example exercises it standalone, so CI smoke covers the
//! whole layer end to end. The keyed store's consistent-cut snapshot
//! ([`gt_store::StoreMetricsSnapshot`]) gets the same treatment via
//! [`render_store_stats`] / [`render_store_stats_json`].

use std::time::Duration;

use gt_store::StoreMetricsSnapshot;
use gt_streams::scenario::E2eReport;
use gt_streams::ScenarioReport;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Render the scenario's observability data as an indented, labelled
/// plain-text block.
pub fn render_stats(report: &ScenarioReport) -> String {
    let t = &report.referee_telemetry;
    let m = &report.union_metrics;
    let mut out = String::new();
    out.push_str("sketch-ops stats\n");
    out.push_str(&format!(
        "  scenario: {} parties, {} items, estimate {:.1} vs truth {} (rel err {:.4})\n",
        report.parties, report.total_items, report.estimate, report.truth, report.relative_error,
    ));
    out.push_str(&format!(
        "  throughput: {:.0} items/s across {} parties during observation\n",
        report.throughput(),
        report.parties,
    ));
    out.push_str(&format!(
        "  phases: observe wall {:.3}s (slowest party {:.3}s), encode total {:.3}s, \
         decode {:.3}s, merge {:.3}s\n",
        secs(report.observe_wall),
        secs(report.max_party_observe()),
        secs(report.total_encode()),
        secs(t.decode_time),
        secs(t.merge_time),
    ));
    out.push_str(&format!(
        "  referee: {} accepted, {} rejected ({} truncated, {} bad-magic, {} bad-tag, \
         {} malformed, {} invalid-sketch)\n",
        t.accepted,
        t.rejected(),
        t.rejected_truncated,
        t.rejected_bad_magic,
        t.rejected_bad_tag,
        t.rejected_malformed,
        t.rejected_sketch,
    ));
    let histogram: String = gt_streams::BATCH_BUCKET_LABELS
        .iter()
        .zip(t.summaries_per_batch.iter())
        .map(|(label, count)| format!("{label}:{count}"))
        .collect::<Vec<_>>()
        .join(" ");
    out.push_str(&format!(
        "  referee batches: {} (summaries per batch: {})\n",
        t.batches, histogram,
    ));
    out.push_str(&format!(
        "  union inserts: {} trial decisions ({} sampled, {} duplicate, {} below-level)\n",
        m.trial_inserts(),
        m.inserts_sampled,
        m.inserts_duplicate,
        m.inserts_below_level,
    ));
    out.push_str(&format!(
        "  union merges: {} calls, {} entries absorbed, {} reconciled, {} below-level, \
         {} level promotions\n",
        m.merge_calls,
        m.merge_entries_absorbed,
        m.merge_reconciliations,
        m.merge_below_level,
        m.level_promotions,
    ));
    out
}

/// Render the same data as a single JSON object.
pub fn render_stats_json(report: &ScenarioReport) -> String {
    let t = &report.referee_telemetry;
    // An instantaneous observation phase reports throughput as infinity,
    // which JSON cannot carry; clamp to 0 (no meaningful rate).
    let items_per_sec = if report.throughput().is_finite() {
        report.throughput()
    } else {
        0.0
    };
    format!(
        concat!(
            "{{",
            "\"parties\":{},",
            "\"total_items\":{},",
            "\"estimate\":{},",
            "\"truth\":{},",
            "\"relative_error\":{},",
            "\"items_per_sec\":{},",
            "\"observe_wall_s\":{},",
            "\"max_party_observe_s\":{},",
            "\"encode_total_s\":{},",
            "\"decode_s\":{},",
            "\"merge_s\":{},",
            "\"accepted\":{},",
            "\"rejected\":{},",
            "\"batches\":{},",
            "\"summaries_per_batch\":[{}],",
            "\"union_metrics\":{}",
            "}}"
        ),
        report.parties,
        report.total_items,
        report.estimate,
        report.truth,
        report.relative_error,
        items_per_sec,
        secs(report.observe_wall),
        secs(report.max_party_observe()),
        secs(report.total_encode()),
        secs(t.decode_time),
        secs(t.merge_time),
        t.accepted,
        t.rejected(),
        t.batches,
        t.summaries_per_batch
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(","),
        report.union_metrics.to_json(),
    )
}

/// Render a delta-plane continuous run's accounting as an indented,
/// labelled plain-text block, matching [`render_stats`]'s shape.
///
/// Shows the frame mix (delta vs full), wire bytes and the estimated
/// bytes saved against re-shipping a full summary per applied frame,
/// resyncs, per-party acked generations, staleness at query time, and
/// the live-union equivalence oracle's verdict.
pub fn render_delta_stats(report: &E2eReport) -> String {
    let mut out = String::new();
    out.push_str("delta-plane stats\n");
    let Some(d) = &report.delta else {
        out.push_str("  (run did not use the delta plane)\n");
        return out;
    };
    out.push_str(&format!(
        "  run: {} parties, {} ticks, estimate {:.1} vs truth {} (rel err {:.4})\n",
        report.parties, report.duration, report.final_estimate, report.truth, report.relative_error,
    ));
    out.push_str(&format!(
        "  frames applied: {} delta + {} full (mean {:.0} / {:.0} bytes), {} resyncs, \
         {} duplicates suppressed\n",
        d.delta_frames,
        d.full_frames,
        d.mean_delta_frame(),
        d.mean_full_frame(),
        d.resyncs,
        report.referee.duplicates(),
    ));
    out.push_str(&format!(
        "  bytes: {} on the wire ({} delta + {} full applied); ~{:.0} saved vs re-shipping \
         a full summary per frame\n",
        report.bytes_sent,
        d.delta_bytes,
        d.full_bytes,
        delta_bytes_saved(d),
    ));
    out.push_str(&format!(
        "  acks: {} sent ({} lost); acked generations per party: {:?}\n",
        d.acks_sent, d.acks_lost, d.acked_generations,
    ));
    out.push_str(&format!(
        "  staleness at query time: mean {:.2} ticks, max {} ticks\n",
        d.staleness_mean, d.staleness_max,
    ));
    out.push_str(&format!(
        "  oracle: {} live-union-vs-full-ship checks, {} failures, {} skipped\n",
        d.oracle_checks, d.oracle_failures, d.oracle_skipped,
    ));
    out
}

/// Render the same delta-plane accounting as a single JSON object.
pub fn render_delta_stats_json(report: &E2eReport) -> String {
    let Some(d) = &report.delta else {
        return "{\"delta_plane\":false}".to_string();
    };
    format!(
        concat!(
            "{{",
            "\"delta_plane\":true,",
            "\"parties\":{},",
            "\"duration_ticks\":{},",
            "\"final_estimate\":{},",
            "\"truth\":{},",
            "\"relative_error\":{},",
            "\"bytes_sent\":{},",
            "\"delta_frames\":{},",
            "\"full_frames\":{},",
            "\"delta_bytes\":{},",
            "\"full_bytes\":{},",
            "\"mean_delta_frame\":{:.2},",
            "\"mean_full_frame\":{:.2},",
            "\"bytes_saved_vs_reship\":{:.0},",
            "\"resyncs\":{},",
            "\"duplicates\":{},",
            "\"acks_sent\":{},",
            "\"acks_lost\":{},",
            "\"acked_generations\":[{}],",
            "\"staleness_mean\":{},",
            "\"staleness_max\":{},",
            "\"oracle_checks\":{},",
            "\"oracle_failures\":{},",
            "\"oracle_skipped\":{}",
            "}}"
        ),
        report.parties,
        report.duration,
        report.final_estimate,
        report.truth,
        report.relative_error,
        report.bytes_sent,
        d.delta_frames,
        d.full_frames,
        d.delta_bytes,
        d.full_bytes,
        d.mean_delta_frame(),
        d.mean_full_frame(),
        delta_bytes_saved(d),
        d.resyncs,
        report.referee.duplicates(),
        d.acks_sent,
        d.acks_lost,
        d.acked_generations
            .iter()
            .map(|g| g.to_string())
            .collect::<Vec<_>>()
            .join(","),
        d.staleness_mean,
        d.staleness_max,
        d.oracle_checks,
        d.oracle_failures,
        d.oracle_skipped,
    )
}

/// Estimated wire bytes saved by the delta plane against re-shipping a
/// full summary for every applied frame, priced at this run's own mean
/// full-frame size. Conservative: early full frames are smaller than a
/// steady-state summary, so the true saving is at least this.
fn delta_bytes_saved(d: &gt_streams::scenario::DeltaPlaneReport) -> f64 {
    let frames = (d.delta_frames + d.full_frames) as f64;
    (frames * d.mean_full_frame() - (d.delta_bytes + d.full_bytes) as f64).max(0.0)
}

/// Run a small fixed delta-plane scenario and return its report — the
/// demo/smoke input for the delta-plane stats renderers.
pub fn demo_delta_scenario() -> E2eReport {
    let spec = gt_streams::scenario::ScenarioSpec::builder("stats_demo")
        .parties(3)
        .distinct_per_party(2_000)
        .overlap(0.3)
        .distribution(gt_streams::Distribution::Zipf(1.05))
        .workload_seed(0x5_7A75)
        .sustained(25, 120, 10)
        .query_every(10)
        .query_distinct()
        .delta_plane()
        .build();
    let config = gt_core::SketchConfig::new(0.1, 0.05).unwrap();
    gt_streams::scenario::run_sustained(&config, 0xC0FFEE, &spec)
}

/// Render a keyed-store snapshot as an indented, labelled plain-text
/// block, matching [`render_stats`]'s shape.
pub fn render_store_stats(snap: &StoreMetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("keyed-store stats\n");
    for line in snap.to_string().lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Render the same snapshot as a single JSON object (the snapshot's own
/// stable-key-order encoding).
pub fn render_store_stats_json(snap: &StoreMetricsSnapshot) -> String {
    snap.to_json()
}

/// Run a small keyed-store workload and return its snapshot — the
/// demo/smoke input for the store stats renderers. The byte budget is
/// deliberately tight so the eviction and restore counters are live.
pub fn demo_store() -> StoreMetricsSnapshot {
    let config =
        gt_core::SketchConfig::from_shape(0.3, 0.3, 16, 5, gt_hash::HashFamilyKind::Pairwise)
            .expect("static shape");
    let options = gt_store::StoreOptions::default()
        .with_shards(2)
        .with_byte_budget(16 << 10)
        .with_hot_threshold(64);
    let store = gt_store::DistinctStore::new(&config, 0x5_7A75, options).expect("demo store");
    let items: Vec<(u64, u64)> = (0..30_000u64)
        .map(|i| (i % 300, gt_hash::fold61(i)))
        .collect();
    store.extend(&items).expect("demo ingest");
    for key in 0..300 {
        store.estimate(key).expect("demo query");
    }
    store.metrics_snapshot()
}

/// Run a small fixed scenario and return its report — the demo/smoke
/// input for the stats renderers.
pub fn demo_scenario() -> ScenarioReport {
    let spec = gt_streams::WorkloadSpec {
        parties: 4,
        distinct_per_party: 4_000,
        overlap: 0.5,
        items_per_party: 12_000,
        distribution: gt_streams::Distribution::Zipf(1.05),
        seed: 0x5_7A75,
    };
    let config = gt_core::SketchConfig::new(0.1, 0.05).unwrap();
    gt_streams::run_scenario(&config, 0xC0FFEE, &spec.generate())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_report_renders_without_panicking() {
        let report = demo_scenario();
        let human = render_stats(&report);
        assert!(human.contains("sketch-ops stats"));
        assert!(human.contains("4 parties"));
        assert!(human.contains("items/s"));
        assert!(human.contains("accepted"));
        assert!(human.contains("referee batches:"));
        assert!(human.contains("summaries per batch:"));
        let json = render_stats_json(&report);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"parties\":4"));
        assert!(json.contains("\"items_per_sec\":"));
        assert!(json.contains("\"accepted\":4"));
        assert!(json.contains("\"union_metrics\":{"));
        assert!(json.contains("\"batches\":"));
        assert!(json.contains("\"summaries_per_batch\":["));
        // The batched referee folds 4 messages in 1..=4 union merges.
        let t = report.referee_telemetry;
        assert!(t.batches >= 1 && t.batches <= 4);
        assert_eq!(t.summaries_per_batch.iter().sum::<usize>(), t.batches);
        assert!((1..=4).contains(&report.union_metrics.merge_calls));
    }

    #[test]
    fn delta_stats_report_renders_without_panicking() {
        let report = demo_delta_scenario();
        let human = render_delta_stats(&report);
        assert!(human.contains("delta-plane stats"));
        assert!(human.contains("3 parties"));
        assert!(human.contains("frames applied:"));
        assert!(human.contains("acked generations per party:"));
        assert!(human.contains("staleness at query time:"));
        assert!(human.contains("oracle:"));
        let json = render_delta_stats_json(&report);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"delta_plane\":true"));
        assert!(json.contains("\"delta_frames\":"));
        assert!(json.contains("\"bytes_saved_vs_reship\":"));
        assert!(json.contains("\"acked_generations\":["));
        assert!(json.contains("\"oracle_failures\":0"));
        let d = report.delta.as_ref().expect("delta plane ran");
        assert_eq!(d.oracle_failures, 0);
        assert_eq!(d.full_frames, 3, "one initial full frame per party");
        assert!(d.delta_frames > 0);
        assert_eq!(d.acked_generations.len(), 3);
        assert!(d.acked_generations.iter().all(|&g| g > 0));
        // A clean-channel run without the delta plane renders honestly.
        let plain = demo_scenario_e2e_without_delta();
        assert!(render_delta_stats(&plain).contains("did not use the delta plane"));
        assert_eq!(render_delta_stats_json(&plain), "{\"delta_plane\":false}");
    }

    fn demo_scenario_e2e_without_delta() -> E2eReport {
        let spec = gt_streams::scenario::ScenarioSpec::builder("stats_demo_full")
            .parties(2)
            .distinct_per_party(500)
            .workload_seed(1)
            .sustained(10, 40, 10)
            .build();
        let config = gt_core::SketchConfig::new(0.1, 0.05).unwrap();
        gt_streams::scenario::run_sustained(&config, 0xC0FFEE, &spec)
    }

    #[test]
    fn store_stats_report_renders_without_panicking() {
        let snap = demo_store();
        let human = render_store_stats(&snap);
        assert!(human.contains("keyed-store stats"));
        assert!(human.contains("2 shards"));
        assert!(human.contains("300 keys"));
        assert!(human.contains("evictions"));
        let json = render_store_stats_json(&snap);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"shards\":2"));
        assert!(json.contains("\"keys\":300"));
        // The demo budget is tight enough that the spill path is live.
        assert!(snap.evictions > 0);
        assert!(snap.queries >= 300);
    }
}
