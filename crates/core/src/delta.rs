//! Incremental delta extraction between two snapshots of one party's
//! sketch — the `gt-core` half of the continuous-monitoring plane.
//!
//! The paper's model ships each party's summary once, at the end.
//! Continuous monitoring re-ships it periodically, paying
//! `O(summary)` bytes per refresh even when almost nothing changed. The
//! delta plane pays `O(changes)` instead: a party that holds an
//! acknowledged **base** snapshot and a **current** sketch emits only
//! the per-trial *difference* — the new level (level raises are
//! monotone), the new item counter, and the labels that are in the
//! current sample but would not be reconstructed from the base.
//!
//! ## Why this is exact, not approximate
//!
//! A party's sketch evolves cumulatively: the current state is what the
//! base would become after observing more of the same stream. Per trial,
//! the GT sample is a *deterministic* function of the observed label set
//! and the (monotone) level: `S = {x observed : lvl(x) ≥ level}`,
//! `|S| ≤ c`. Hence every base entry that still qualifies at the current
//! level is still in the current sample, and
//!
//! ```text
//! current = subsample(base, current.level) ∪ delta.entries
//! ```
//!
//! holds with equality — [`apply_delta`] rebuilds the current snapshot
//! **bitwise**, payloads included (payload merges are reconciled with
//! the canonical `stored.merge(incoming)` order, so keep-first and
//! max-merge payloads land exactly where a fresh decode would put
//! them). [`delta_between`] verifies the prefix property instead of
//! assuming it and reports [`SketchError::ConfigMismatch`] when the
//! snapshots do not lie on one party's timeline; callers fall back to
//! shipping a full frame.
//!
//! ## Cost: O(changes), not O(summary)
//!
//! Neither function builds a map of, sorts or rebuilds the whole
//! summary. [`delta_between`] probes the base trial's own sample table once per
//! current entry and checks the prefix property **by count**: every
//! current entry found in the base qualifies at the current level, so
//! the base is a prefix iff the number of base entries qualifying at the
//! current level equals the number found. At an unchanged level that
//! count is the base's sample size, so no label's level is hashed; only
//! a level raise (at most `O(log F₀)` times over a stream) re-hashes the base.
//! [`apply_delta`] subsamples in place (a no-op at an unchanged level)
//! and upserts the delta entries.
//!
//! The delta itself is represented as a [`GtSketch`] whose trials carry
//! the current levels and item counters but only the difference
//! entries. That makes it directly encodable by the canonical wire
//! codec (every entry qualifies at its trial's level, counts fit
//! capacity), so the delta plane reuses the codec's validation and
//! canonical byte-string property wholesale. The base a delta is coded
//! against is named on the wire by its generation and an
//! order-independent digest of its state (`gt_streams::state_digest`),
//! computed in one linear pass with no encoding. A delta sketch is a
//! *transport* artifact: its own estimates are meaningless and it must
//! only ever be fed to [`apply_delta`] or unioned into a live union that
//! already holds its base (`GtSketch::merge_refresh_from`), where it
//! adds exactly what the rebuilt snapshot would.

use crate::error::{Result, SketchError};
use crate::sketch::GtSketch;
use crate::trial::Payload;

fn check_coordinated<V: Payload>(a: &GtSketch<V>, b: &GtSketch<V>) -> Result<()> {
    if a.master_seed() != b.master_seed() {
        return Err(SketchError::SeedMismatch);
    }
    if a.config() != b.config() {
        return Err(SketchError::ConfigMismatch {
            detail: format!("{:?} vs {:?}", a.config(), b.config()),
        });
    }
    Ok(())
}

/// Extract the per-trial difference that turns `base` into `current`.
///
/// Both sketches must be coordinated (same config and master seed) and
/// must be successive snapshots of **one** party's stream: levels may
/// only rise, and every base entry still qualifying at the current
/// level must still be present. Violations return
/// [`SketchError::ConfigMismatch`] — the caller's cue to ship a full
/// frame instead.
///
/// Entries whose payload changed between the snapshots (e.g. a
/// [`crate::LatestTs`] refreshed by a re-arrival) are included with the
/// current payload; [`apply_delta`] reconciles them through the
/// canonical `stored.merge(incoming)` order.
///
/// Cost: one probe of the base's sample table per current entry, plus a
/// re-hash of the base only in trials whose level rose (see the module
/// docs on the count-based prefix check).
pub fn delta_between<V: Payload + PartialEq>(
    base: &GtSketch<V>,
    current: &GtSketch<V>,
) -> Result<GtSketch<V>> {
    check_coordinated(base, current)?;
    let mut states = Vec::with_capacity(current.trials().len());
    for (b, c) in base.trials().iter().zip(current.trials()) {
        if c.level() < b.level() {
            return Err(SketchError::ConfigMismatch {
                detail: format!(
                    "delta base at level {} is ahead of current level {} (not a prefix)",
                    b.level(),
                    c.level()
                ),
            });
        }
        let mut found = 0;
        let mut entries: Vec<(u64, V)> = Vec::new();
        for (label, payload) in c.sample_iter() {
            match b.payload_of(label) {
                Some(stored) => {
                    found += 1;
                    if stored != payload {
                        entries.push((label, payload));
                    }
                }
                None => entries.push((label, payload)),
            }
        }
        // Prefix check by count: every current entry found in the base
        // qualifies at the current level, so the base entries qualifying
        // there all survived iff there are exactly `found` of them.
        let qualifying = b.sample_len_at(c.level());
        if qualifying != found {
            return Err(SketchError::ConfigMismatch {
                detail: format!(
                    "{qualifying} base entries qualify at level {} but only {found} remain \
                     in the current sample (base is not a prefix of current)",
                    c.level()
                ),
            });
        }
        states.push((c.level(), c.items_observed(), entries));
    }
    GtSketch::reassemble(current.config(), current.master_seed(), states)
}

/// Apply a delta produced by [`delta_between`] onto `base`, rebuilding
/// the successor snapshot in place — bitwise identical to the sketch
/// the delta was extracted from.
///
/// Per trial: subsample the base to the delta's (monotone) level, upsert
/// the delta entries with the canonical `stored.merge(incoming)`
/// payload order, and adopt the delta's absolute item counter. The
/// cumulative-stream argument in the module docs is what makes this
/// reconstruction exact. Every trial is validated before any is
/// touched: a delta whose level is below the base's is
/// [`SketchError::ConfigMismatch`], and one that would overflow capacity
/// (a delta coded against a different base) is
/// [`SketchError::InvalidConfig`] rather than a silently wrong sketch.
///
/// A delta also applies exactly on top of any **later** base from the
/// same timeline (base generation ≤ referee's generation ≤ delta
/// generation): the delta carries every change since its coded base,
/// so entries the newer base already holds merge idempotently. This is
/// what lets a referee whose ack was lost keep applying the party's
/// retransmitted cumulative deltas without rewinding.
///
/// Atomic: on `Err`, `base` is unchanged.
pub fn apply_delta<V: Payload>(base: &mut GtSketch<V>, delta: &GtSketch<V>) -> Result<()> {
    check_coordinated(base, delta)?;
    let capacity = base.config().capacity();
    for (b, d) in base.trials().iter().zip(delta.trials()) {
        if d.level() < b.level() {
            return Err(SketchError::ConfigMismatch {
                detail: format!(
                    "delta at level {} is staler than base level {}",
                    d.level(),
                    b.level()
                ),
            });
        }
        // Delta entries qualify at the delta's level, so one the base
        // holds survives the subsample and merges; the rest are new.
        let added = d
            .sample_iter()
            .filter(|&(label, _)| !b.contains_label(label))
            .count();
        let merged = b.sample_len_at(d.level()) + added;
        if merged > capacity {
            return Err(SketchError::InvalidConfig {
                parameter: "sample",
                reason: format!(
                    "delta application overflows capacity {capacity} with {merged} entries \
                     (delta coded against a different base)"
                ),
            });
        }
    }
    for (b, d) in base.trials_mut().iter_mut().zip(delta.trials()) {
        b.apply_delta_trial(d);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SketchConfig;
    use crate::recency::LatestTs;
    use crate::DistinctSketch;
    use gt_hash::LevelHasher as _;

    fn cfg() -> SketchConfig {
        SketchConfig::from_shape(0.2, 0.2, 64, 5, gt_hash::HashFamilyKind::Pairwise).unwrap()
    }

    /// One trial's (level, items, sorted entries).
    type TrialState<V> = (u8, u64, Vec<(u64, V)>);

    /// Canonical comparable view of a sketch, one entry per trial.
    fn state<V: Payload + std::fmt::Debug + Ord>(s: &GtSketch<V>) -> Vec<TrialState<V>> {
        s.trials()
            .iter()
            .map(|t| {
                let mut entries: Vec<(u64, V)> = t.sample_iter().collect();
                entries.sort_unstable();
                (t.level(), t.items_observed(), entries)
            })
            .collect()
    }

    #[test]
    fn delta_reconstructs_the_current_snapshot_bitwise() {
        let config = cfg();
        let mut s = DistinctSketch::new(&config, 7);
        s.extend_labels((0..500u64).map(gt_hash::fold61));
        let base = s.clone();
        s.extend_labels((400..5_000u64).map(gt_hash::fold61)); // forces level raises
        let delta = delta_between(&base, &s).unwrap();
        let mut rebuilt = base.clone();
        apply_delta(&mut rebuilt, &delta).unwrap();
        assert_eq!(state(&rebuilt), state(&s));
    }

    #[test]
    fn empty_evolution_yields_an_empty_delta() {
        let config = cfg();
        let mut s = DistinctSketch::new(&config, 3);
        s.extend_labels((0..2_000u64).map(gt_hash::fold61));
        let base = s.clone();
        // Re-observe only existing labels: samples and levels unchanged,
        // only item counters move.
        s.extend_labels((0..100u64).map(gt_hash::fold61));
        let delta = delta_between(&base, &s).unwrap();
        assert_eq!(
            delta.sample_entries(),
            0,
            "steady state must cost no entries"
        );
        let mut rebuilt = base.clone();
        apply_delta(&mut rebuilt, &delta).unwrap();
        assert_eq!(state(&rebuilt), state(&s));
    }

    #[test]
    fn empty_base_delta_is_the_full_snapshot() {
        let config = cfg();
        let base = DistinctSketch::new(&config, 11);
        let mut s = base.clone();
        s.extend_labels((0..3_000u64).map(gt_hash::fold61));
        let delta = delta_between(&base, &s).unwrap();
        assert_eq!(delta.sample_entries(), s.sample_entries());
        let mut rebuilt = base.clone();
        apply_delta(&mut rebuilt, &delta).unwrap();
        assert_eq!(state(&rebuilt), state(&s));
    }

    #[test]
    fn payload_changes_travel_in_the_delta() {
        let config = cfg();
        let mut s = GtSketch::<LatestTs>::new(&config, 5);
        for t in 0..200u64 {
            s.insert_merging_with(gt_hash::fold61(t), LatestTs(t));
        }
        let base = s.clone();
        // Re-arrivals refresh timestamps without adding labels.
        for t in 0..50u64 {
            s.insert_merging_with(gt_hash::fold61(t), LatestTs(1_000 + t));
        }
        let delta = delta_between(&base, &s).unwrap();
        assert!(delta.sample_entries() > 0, "ts refreshes must be carried");
        let mut rebuilt = base.clone();
        apply_delta(&mut rebuilt, &delta).unwrap();
        assert_eq!(state(&rebuilt), state(&s));
    }

    #[test]
    fn cumulative_delta_applies_on_an_intermediate_base() {
        // The lost-ack scenario: the referee applied g1 but the party's
        // delta is coded against its acked base g0. The cumulative delta
        // g0 -> g2 must still land exactly on the g1 base.
        let config = cfg();
        let mut s = DistinctSketch::new(&config, 13);
        s.extend_labels((0..300u64).map(gt_hash::fold61));
        let g0 = s.clone();
        s.extend_labels((300..1_200u64).map(gt_hash::fold61));
        let g1 = s.clone();
        s.extend_labels((1_200..4_000u64).map(gt_hash::fold61));
        let delta = delta_between(&g0, &s).unwrap();
        let mut rebuilt = g1.clone();
        apply_delta(&mut rebuilt, &delta).unwrap();
        assert_eq!(state(&rebuilt), state(&s));
    }

    #[test]
    fn unrelated_snapshots_are_rejected() {
        let config = cfg();
        let mut a = DistinctSketch::new(&config, 17);
        let mut b = DistinctSketch::new(&config, 17);
        // Drive `a` far enough that some of its retained labels no
        // longer appear in `b` even at b's level: a is not a prefix.
        a.extend_labels((0..5_000u64).map(gt_hash::fold61));
        b.extend_labels((10_000..10_040u64).map(gt_hash::fold61));
        assert!(
            delta_between(&a, &b).is_err(),
            "level regression or prefix violation must be reported"
        );
    }

    #[test]
    fn uncoordinated_snapshots_are_rejected() {
        let a = DistinctSketch::new(&cfg(), 1);
        let b = DistinctSketch::new(&cfg(), 2);
        assert!(matches!(
            delta_between(&a, &b),
            Err(SketchError::SeedMismatch)
        ));
        let mut a2 = a.clone();
        assert!(matches!(
            apply_delta(&mut a2, &b),
            Err(SketchError::SeedMismatch)
        ));
    }

    #[test]
    fn refresh_merge_counts_each_snapshot_once() {
        // merge_refresh_from: union absorbs successive snapshots of one
        // party but its item counters must equal a single merge of the
        // latest snapshot.
        let config = cfg();
        let mut party = DistinctSketch::new(&config, 23);
        party.extend_labels((0..800u64).map(gt_hash::fold61));
        let snap1 = party.clone();
        party.extend_labels((800..2_000u64).map(gt_hash::fold61));
        let snap2 = party.clone();

        let mut live = DistinctSketch::new(&config, 23);
        live.merge_from(&snap1).unwrap();
        let old_items: Vec<u64> = snap1.trials().iter().map(|t| t.items_observed()).collect();
        live.merge_refresh_from(&snap2, &old_items).unwrap();

        let mut fresh = DistinctSketch::new(&config, 23);
        fresh.merge_from(&snap2).unwrap();
        assert_eq!(state(&live), state(&fresh));
    }

    #[test]
    fn failed_apply_leaves_the_base_untouched() {
        // A delta coded on another party's timeline: its first trial
        // fits the base, a later one overflows capacity. Nothing may
        // change, not even the first trial's item counter.
        let config = cfg();
        let mut base = DistinctSketch::new(&config, 29);
        base.extend_labels((0..3_000u64).map(gt_hash::fold61));
        let mut other = DistinctSketch::new(&config, 29);
        other.extend_labels((50_000..50_100u64).map(gt_hash::fold61));
        let other_base = other.clone();
        other.extend_labels((100_000..103_000u64).map(gt_hash::fold61));
        let foreign = delta_between(&other_base, &other).unwrap();
        let mut states: Vec<TrialState<()>> = foreign
            .trials()
            .iter()
            .map(|t| (t.level(), t.items_observed(), t.sample_iter().collect()))
            .collect();
        states[0] = (
            base.trials()[0].level().max(states[0].0),
            states[0].1 + 1,
            Vec::new(),
        );
        let delta = GtSketch::reassemble(&config, 29, states).unwrap();

        let before = base.clone();
        let err = apply_delta(&mut base, &delta).unwrap_err();
        assert!(
            matches!(
                err,
                SketchError::InvalidConfig {
                    parameter: "sample",
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(state(&base), state(&before));
    }

    /// Payload for label `label` arriving at `time`, per payload kind.
    trait TimedPayload: Payload + PartialEq + Ord + std::fmt::Debug {
        fn at(label: u64, time: u64) -> Self;
    }
    impl TimedPayload for () {
        fn at(_: u64, _: u64) -> Self {}
    }
    impl TimedPayload for u64 {
        // Keep-first: a re-arrival carries a different value that the
        // stored one must win against.
        fn at(label: u64, time: u64) -> Self {
            label ^ time
        }
    }
    impl TimedPayload for LatestTs {
        fn at(_: u64, time: u64) -> Self {
            LatestTs(time)
        }
    }

    /// One party's snapshots after each of `batches` (the first is the
    /// empty sketch), fed through the payload-merging insert.
    fn timeline<V: TimedPayload>(seed: u64, batches: &[Vec<u64>]) -> Vec<GtSketch<V>> {
        let mut s = GtSketch::<V>::new(&cfg(), seed);
        let mut snaps = vec![s.clone()];
        let mut time = 0;
        for batch in batches {
            for &label in batch {
                time += 1;
                s.insert_merging_with(label, V::at(label, time));
            }
            snaps.push(s.clone());
        }
        snaps
    }

    /// Drop one base entry from a trial, or swap it for a label the base
    /// never held that qualifies at the same level: a same-level
    /// successor that is not a cumulative extension of `base`.
    fn forge_non_prefix<V: TimedPayload>(base: &GtSketch<V>, swap: bool) -> Option<GtSketch<V>> {
        let t = base.trials().iter().position(|t| t.sample_len() > 0)?;
        let trial = &base.trials()[t];
        let mut states: Vec<TrialState<V>> = base
            .trials()
            .iter()
            .map(|t| (t.level(), t.items_observed(), t.sample_iter().collect()))
            .collect();
        states[t].2.pop();
        if swap {
            let fresh = (1u64 << 40..)
                .map(gt_hash::fold61)
                .find(|&x| trial.hasher().level(x) >= trial.level() && !trial.contains_label(x))?;
            states[t].2.push((fresh, V::default()));
        }
        GtSketch::reassemble(base.config(), base.master_seed(), states).ok()
    }

    fn check_timeline<V: TimedPayload>(seed: u64, batches: &[Vec<u64>], pick: (usize, usize)) {
        let snaps = timeline::<V>(seed, batches);
        let last = snaps.len() - 1;
        // Base i <= applied j <= current k; i == 0 is the empty base and
        // j > i the referee that applied a frame whose ack was lost.
        let k = 1 + pick.0 % last;
        let i = pick.1 % (k + 1);
        let j = i + pick.0 / 7 % (k - i + 1);
        let (base, applied, current) = (&snaps[i], &snaps[j], &snaps[k]);

        let delta = delta_between(base, current).unwrap();
        let mut rebuilt = applied.clone();
        apply_delta(&mut rebuilt, &delta).unwrap();
        assert_eq!(
            state(&rebuilt),
            state(current),
            "apply_delta (i={i} j={j} k={k})"
        );

        // The referee's union already holds `applied` (after another
        // party's summary): merging the delta alone must land where
        // merging the rebuilt snapshot does.
        let mut other = GtSketch::<V>::new(&cfg(), seed);
        for (n, &label) in batches.concat().iter().enumerate().step_by(3) {
            let label = gt_hash::fold61(label.wrapping_mul(3));
            other.insert_merging_with(label, V::at(label, n as u64));
        }
        let mut live = other.clone();
        live.merge_from(applied).unwrap();
        let old_items: Vec<u64> = applied
            .trials()
            .iter()
            .map(|t| t.items_observed())
            .collect();
        let mut via_next = live.clone();
        via_next.merge_refresh_from(current, &old_items).unwrap();
        live.merge_refresh_from(&delta, &old_items).unwrap();
        assert_eq!(state(&live), state(&via_next), "union (i={i} j={j} k={k})");

        for swap in [false, true] {
            if let Some(forged) = forge_non_prefix(current, swap) {
                assert!(
                    delta_between(current, &forged).is_err(),
                    "same-level non-prefix accepted (swap={swap})"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn random_timelines_rebuild_merge_and_reject_like_the_full_path(
            seed in 0u64..1_000,
            batches in proptest::collection::vec(
                proptest::collection::vec(0u64..6_000, 0..400),
                1..6,
            ),
            pick in (0usize..1_000, 0usize..1_000),
        ) {
            let batches: Vec<Vec<u64>> = batches
                .into_iter()
                .map(|b| b.into_iter().map(gt_hash::fold61).collect())
                .collect();
            check_timeline::<()>(seed, &batches, pick);
            check_timeline::<u64>(seed, &batches, pick);
            check_timeline::<LatestTs>(seed, &batches, pick);
        }
    }
}
