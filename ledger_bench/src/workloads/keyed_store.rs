//! `keyed_store` — the keyed multi-tenant store under a byte budget. Set-up
//! creates the store and ingests one item per key, so every tenant exists
//! and the budget is already binding when rounds start. Each round extends
//! one Zipf-keyed batch and answers a few Zipf point queries; the budget
//! forces evictions to the spill log and restores on touch. Store extend
//! does most of the work; no summary crosses a wire.
//!
//! Rounds run in whole episodes over the same generated stream, each with
//! a fresh store: round cost climbs through an episode as keys fill their
//! sketches, so a run that stopped mid-episode would measure a different
//! mix. The episode running when the window closes is finished.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gt_core::SketchConfig;
use gt_hash::{fold61, HashFamilyKind};
use gt_store::DistinctStore;
use gt_streams::workload::ZipfSampler;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::{seeds, Workload, HASH_PROBE_LABELS};
use crate::bench::{LayerCounts, Recorder, Shape};
use crate::drivers::{codec, sketch, store};

const KEYS: u64 = 200_000;
const THETA: f64 = 1.1;
const SHARDS: usize = 2;
const BUDGET: usize = 8 << 20;
const BATCH: usize = 1024;
const QUERIES_PER_BATCH: usize = 4;
const EPISODE_BATCHES: usize = 2_000;
const WARMUP_BATCHES: usize = 64;
const SETUPS: usize = 3;
/// Keys whose state is compared with a standalone sketch after an episode:
/// the most popular ranks plus a spread of colder ones.
const CHECKED_RANKS: [u64; 8] = [0, 1, 2, 3, 100, 1_000, 10_000, 150_000];

/// About 450 rounds and 1,800 queries per second: per 20 s run the 99th
/// percentile keeps ~90 rounds and ~360 queries beyond it. The 99.9th
/// would still keep ~36 queries, but across runs of one seed it moved by
/// ±25%, more than any bound the benchmark could set.
pub const SHAPE: Shape = Shape {
    round_tail_q: 0.99,
    query_tail_q: 0.99,
    trace_block: 1,
};

/// Zipf rank to key: a fixed odd multiplier spreads popular keys over
/// the shards.
fn key_of(rank: u64) -> u64 {
    rank.wrapping_mul(0x2545_F491_4F6C_DD1D) % KEYS
}

pub fn run(rec: &mut Recorder, seed: u64) {
    let (input_seed, master_seed) = seeds(seed, Workload::KeyedStore);
    let zipf = ZipfSampler::new(KEYS, THETA);
    let mut rng = SmallRng::seed_from_u64(input_seed);
    let sweep: Vec<(u64, u64)> = (0..KEYS)
        .map(|key| (key, fold61(input_seed ^ gt_hash::mix64(key))))
        .collect();
    let items: Vec<(u64, u64)> = (0..(EPISODE_BATCHES * BATCH) as u64)
        .map(|i| {
            (
                key_of(zipf.sample(&mut rng)),
                fold61(input_seed ^ gt_hash::mix64(KEYS + i)),
            )
        })
        .collect();
    let queries: Vec<u64> = (0..EPISODE_BATCHES * QUERIES_PER_BATCH)
        .map(|_| key_of(zipf.sample(&mut rng)))
        .collect();
    let config = SketchConfig::from_shape(0.3, 0.3, 16, 5, HashFamilyKind::Pairwise)
        .expect("static store shape");
    let spill_root = spill_root();

    let mut episode = 0usize;
    let mut fresh = |rec: &mut Recorder| -> Option<(DistinctStore, PathBuf)> {
        episode += 1;
        let dir = spill_root.join(format!("episode-{episode}"));
        let store = rec.setup(|tr| {
            let store = store::new(&config, master_seed, SHARDS, BUDGET, &dir)?;
            store::extend(tr, &store, &sweep)?;
            Ok::<_, gt_store::StoreError>(store)
        });
        rec.ok(store, "store set-up").map(|s| (s, dir))
    };
    for _ in 0..SETUPS {
        if let Some((s, dir)) = fresh(rec) {
            drop(s);
            remove_dir(&dir);
        }
    }

    while !rec.done() {
        let Some((s, dir)) = fresh(rec) else { break };
        for (b, batch) in items.chunks(BATCH).enumerate() {
            let measured = b >= WARMUP_BATCHES;
            let keys = &queries[b * QUERIES_PER_BATCH..(b + 1) * QUERIES_PER_BATCH];
            let mut answers = Vec::with_capacity(QUERIES_PER_BATCH);
            let before = store::metrics(&s);
            let start = rec.begin(measured, SHAPE.trace_block);
            let extended = store::extend(&mut rec.tr, &s, batch);
            for &key in keys {
                let q0 = Instant::now();
                let answer = store::estimate(&mut rec.tr, &s, key);
                answers.push((answer, q0.elapsed()));
            }
            rec.end(start, measured);
            let after = store::metrics(&s);

            if rec.last_traced() {
                add_store_delta(&mut rec.layer, &before, &after);
            }
            if measured {
                rec.items += batch.len() as u64;
                // The store's only traffic off the heap: spill writes and
                // restore reads.
                rec.wire_bytes += (after.spilled_bytes - before.spilled_bytes)
                    + (after.restored_bytes - before.restored_bytes);
            }
            rec.ok(extended, "extend");
            for (answer, latency) in answers {
                rec.query_sample(latency, measured);
                let answer = rec.ok(answer, "estimate");
                rec.check(
                    answer.is_none() || answer.is_some_and(|e| e.is_some()),
                    || "a key created in set-up has no estimate".into(),
                );
            }
        }
        check_episode(rec, &s, &config, master_seed, &sweep, &items);
        drop(s);
        remove_dir(&dir);
    }
    remove_dir(&spill_root);

    if rec.trace_mode() {
        let labels: Vec<u64> = items
            .iter()
            .take(HASH_PROBE_LABELS)
            .map(|&(_, l)| l)
            .collect();
        rec.hash_ns_per_label = sketch::hash_ns_per_label(&config, master_seed, &labels);
    }
}

fn add_store_delta(
    c: &mut LayerCounts,
    before: &gt_store::StoreMetricsSnapshot,
    after: &gt_store::StoreMetricsSnapshot,
) {
    c.evictions += after.evictions - before.evictions;
    c.restores += after.restores - before.restores;
    c.spilled_bytes += after.spilled_bytes - before.spilled_bytes;
    c.restored_bytes += after.restored_bytes - before.restored_bytes;
    c.front_hits += after.front_hits - before.front_hits;
    c.store_queries += after.queries - before.queries;
    c.resident_bytes = after.resident_bytes;
    c.budget_bytes = after.budget_bytes;
}

/// Sampled keys must hold exactly the state of a standalone sketch fed
/// their labels in arrival order, and the store must sit within budget.
fn check_episode(
    rec: &mut Recorder,
    s: &DistinctStore,
    config: &SketchConfig,
    master_seed: u64,
    sweep: &[(u64, u64)],
    ingested: &[(u64, u64)],
) {
    let snap = store::metrics(s);
    rec.check(snap.resident_bytes <= snap.budget_bytes, || {
        format!(
            "resident {} B over budget {} B",
            snap.resident_bytes, snap.budget_bytes
        )
    });
    for key in CHECKED_RANKS.map(key_of) {
        let labels: Vec<u64> = sweep
            .iter()
            .chain(ingested)
            .filter(|&&(k, _)| k == key)
            .map(|&(_, l)| l)
            .collect();
        let expected = codec::canonical(&sketch::standalone(config, master_seed, &labels));
        let actual = rec
            .ok(store::canonical_bytes(s, key), "canonical_bytes")
            .flatten();
        rec.check(actual.is_some_and(|b| b[..] == expected[..]), || {
            format!("key {key} differs from its standalone sketch")
        });
    }
}

/// Spill logs live inside the benchmark's own directory, one per process.
fn spill_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("spill-{}", std::process::id()))
}

fn remove_dir(dir: &Path) {
    // Best effort: the store removes its log files on drop; only empty
    // directories remain.
    let _ = std::fs::remove_dir_all(dir);
}
