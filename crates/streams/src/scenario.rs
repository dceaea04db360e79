//! Declarative end-to-end scenario harness: topology × workload × fault
//! plan × query plan, executed through the whole stack.
//!
//! A [`ScenarioSpec`] is plain data describing an end-to-end run —
//! "32-party fan-in, Zipf multi-tenant traffic, 5% drop with retries,
//! flash crowd at t=150, party churn at t=200, live distinct + windowed
//! queries every 100 ticks" is ~15 lines of [`ScenarioBuilder`] calls.
//! [`run_spec`] validates the spec (a combination no engine honours in
//! full panics rather than being silently ignored; see
//! [`ScenarioBuilder::build`]) and dispatches it to one of five engines:
//!
//! * **Classic** — the paper's one-shot model: batch streams, perfect
//!   channel, a single end-of-stream message per party.
//! * **Resilient** — batch streams over a faulty [`TransportSpec`]
//!   channel with a retrying collector.
//! * **Expression** — batch streams plus set-expression / Jaccard
//!   queries against the referee's retained per-party summaries.
//! * **Live** — batch streams ingested concurrently through a shared
//!   [`gt_core::ConcurrentSketch`] while queries are served mid-flight.
//! * **Sustained** — [`run_sustained`], a sustained-rate load generator
//!   on the virtual clock ([`Tick`]), with per-item admission→queryable
//!   latency recorded against that clock, live degraded-mode queries on
//!   a fixed cadence, mid-run party churn, and an [`E2eReport`]
//!   (throughput, p50/p99/p999 latency, coverage under degradation,
//!   transport/referee telemetry) at the end. One loop serves both
//!   [`ReportingMode`]s: full re-ship and the delta plane differ only in
//!   how a party summarises and emits, how the referee absorbs a tick's
//!   deliveries, where window queries are answered, and the delta
//!   plane's extra accounting ([`DeltaPlaneReport`]).
//!
//! The four legacy `run_*_scenario` entry points in [`crate::runner`]
//! are thin wrappers over builder instances dispatched through this
//! module — pinned behavior-equivalent by `tests/scenario_regression.rs`.
//!
//! ## Latency definition
//!
//! An item generated at virtual tick `g` becomes **queryable** at the
//! delivery tick `d` of the first summary accepted by the referee whose
//! encode tick `e ≥ g` (summaries are cumulative, so acceptance of a
//! later summary also admits earlier items). Its end-to-end latency is
//! `d − g` ticks. No wall clock is consulted anywhere in the sustained
//! engine: same spec + same seeds ⇒ bitwise-identical referee state,
//! telemetry counts, and latency histograms (property-tested in
//! `tests/scenario_determinism.rs`).
//!
//! ## Determinism contract
//!
//! The sustained engine is single-threaded by construction and every
//! stochastic choice (workload draws, channel fates) is owned by a
//! seeded [`SmallRng`]. `IngestMode::Sequential` batch runs are likewise
//! deterministic. `IngestMode::PerPartyThreads` and `SharedConcurrent`
//! batch runs produce schedule-independent *state* (canonical union
//! bytes, exactly-once counters) but timing-shaped telemetry (batch
//! counts, phase durations) may vary run to run.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gt_core::{DistinctSketch, LatestTs, SetExpr, SketchConfig, SlidingWindowSketch};

use crate::codec::{encode_full_frame, encode_sketch, payload_fingerprint, WirePayload};
use crate::collector::{Collector, RetryPolicy};
use crate::oracle::StreamOracle;
use crate::party::{DeltaParty, Party, PartyMessage};
use crate::referee::{Receipt, Referee, RefereeOf, RefereeTelemetry};
use crate::runner::{
    ExpressionQueryOutcome, ExpressionScenarioReport, JaccardQueryOutcome, LiveQueryReport,
    LiveQuerySample, PartyPhases, ResilientReport, ScenarioReport,
};
use crate::transport::{Delivery, Tick, Transport, TransportSpec, TransportTelemetry};
use crate::workload::{Distribution, StreamSet, WorkloadSpec, ZipfSampler};

/// Latencies above this many ticks share one overflow bucket in the
/// [`LatencyHistogram`]; quantiles saturate here.
pub const LATENCY_CLAMP: Tick = 4096;

// ---------------------------------------------------------------------
// Spec types (plain data)
// ---------------------------------------------------------------------

/// How parties feed their streams into the system (batch engines only;
/// the sustained engine is single-threaded by construction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestMode {
    /// One OS thread per party, referee pipelined on the caller's thread
    /// (the legacy [`crate::runner::run_scenario`] shape).
    PerPartyThreads,
    /// Parties observe serially in id order and the referee receives one
    /// batch of all messages — fully deterministic, for replay tests.
    Sequential,
    /// All parties write into one shared [`gt_core::ConcurrentSketch`]
    /// while queries are served from snapshots (the legacy
    /// [`crate::runner::run_live_query_scenario`] shape).
    SharedConcurrent {
        /// Writer-local buffer threshold before propagation.
        writer_threshold: u64,
    },
}

/// Who participates and how they ingest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopologySpec {
    /// Number of parties (streams).
    pub parties: usize,
    /// Ingest mode for batch engines.
    pub ingest: IngestMode,
    /// Aggregate batch-load summaries through a collector tree of this
    /// depth instead of shipping every party message straight to the
    /// referee (`None` = flat). The fan-out is derived so the tree has
    /// exactly this many merge tiers; the root union is **bitwise
    /// identical** to the flat union ([`crate::topology`]).
    pub tree_depth: Option<usize>,
}

/// How parties report their summaries over time (sustained load only;
/// batch load always ships one end-of-stream summary).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReportingMode {
    /// Every report re-ships the party's full cumulative summary —
    /// `O(summary)` bytes per cadence tick (the paper's one-shot model,
    /// repeated).
    #[default]
    FullReship,
    /// The continuous-monitoring delta plane: parties ship compact
    /// [`crate::codec::Frame`]s — a full frame first, then deltas coded
    /// against the last acked base — and the referee maintains a live
    /// union that is bitwise identical to a fresh full ship at every
    /// ack point. `O(changes)` bytes per cadence tick in steady state.
    DeltaPlane,
}

/// A rate-multiplier window for the sustained engine: between `from`
/// (inclusive) and `until` (exclusive) each party's per-tick rate is
/// scaled by `rate_multiplier` (a flash crowd is `8.0`, a lull `0.25`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadPhase {
    /// First tick the multiplier applies to.
    pub from: Tick,
    /// First tick past the window.
    pub until: Tick,
    /// Factor applied to the base per-party rate.
    pub rate_multiplier: f64,
}

/// How much traffic arrives, and in what shape.
#[derive(Clone, Debug, PartialEq)]
pub enum LoadShape {
    /// The paper's model: each party's whole stream exists up front and
    /// is shipped as one end-of-stream summary.
    Batch {
        /// Items drawn per party (ignored by [`Distribution::EachOnce`]).
        items_per_party: u64,
    },
    /// Continuous traffic on the virtual clock: every alive party draws
    /// `rate_per_party` items per tick (scaled by any matching
    /// [`LoadPhase`]) and ships a cumulative summary every
    /// `report_every` ticks.
    Sustained {
        /// Base items per party per tick.
        rate_per_party: u64,
        /// Total virtual ticks to run.
        duration: Tick,
        /// Summary cadence, in ticks.
        report_every: Tick,
        /// Rate-multiplier windows (first match wins; default ×1).
        phases: Vec<LoadPhase>,
    },
}

/// The traffic's label structure plus its [`LoadShape`].
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadPlan {
    /// Distinct labels in each party's sub-universe.
    pub distinct_per_party: u64,
    /// Fraction of each party's sub-universe shared with all parties.
    pub overlap: f64,
    /// Draw distribution. In the sustained engine
    /// [`Distribution::EachOnce`] cycles the sub-universe in order.
    pub distribution: Distribution,
    /// Workload seed (independent of sketch seeds).
    pub seed: u64,
    /// Batch or sustained load.
    pub load: LoadShape,
}

impl WorkloadPlan {
    /// The equivalent [`WorkloadSpec`] for `parties` parties
    /// (`items_per_party` is 0 for sustained load — the engine draws
    /// incrementally instead of pre-generating).
    pub fn to_workload_spec(&self, parties: usize) -> WorkloadSpec {
        WorkloadSpec {
            parties,
            distinct_per_party: self.distinct_per_party,
            overlap: self.overlap,
            items_per_party: match self.load {
                LoadShape::Batch { items_per_party } => items_per_party,
                LoadShape::Sustained { .. } => 0,
            },
            distribution: self.distribution,
            seed: self.seed,
        }
    }
}

/// What happens to one party mid-run (sustained engine only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnKind {
    /// The party stops generating at `at` but ships a parting summary
    /// first (failover done right).
    GracefulLeave,
    /// The party stops generating at `at` and ships nothing further;
    /// items not covered by an earlier summary are lost.
    Crash,
    /// The party is inactive before `at` and starts generating at `at`.
    Join,
}

/// One churn event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Which party.
    pub party: usize,
    /// Virtual tick of the event.
    pub at: Tick,
    /// What happens.
    pub kind: ChurnKind,
}

/// Channel faults, retry budget, and churn.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Simulated channel; `None` means a direct in-process channel for
    /// batch engines and a reliable channel for the sustained engine.
    pub transport: Option<TransportSpec>,
    /// Retry behaviour (resilient collector rounds / sustained-engine
    /// final retransmit rounds).
    pub retry: RetryPolicy,
    /// Mid-run churn (sustained engine only; batch engines ignore it).
    pub churn: Vec<ChurnEvent>,
}

/// Which live queries run, and how often.
#[derive(Clone, Debug, Default)]
pub struct QueryPlan {
    /// Query cadence in ticks (sustained engine; 0 = every tick).
    pub every: Tick,
    /// Sample `estimate_distinct_partial` each cadence tick.
    pub distinct: bool,
    /// Sample a sliding-window distinct count over the last `w` ticks.
    pub window: Option<Tick>,
    /// Set expressions evaluated via `query_partial` (leaves are party
    /// ids).
    pub expressions: Vec<SetExpr>,
    /// Expression pairs evaluated via `query_jaccard_partial`.
    pub jaccard: Vec<(SetExpr, SetExpr)>,
}

/// A complete end-to-end scenario: topology × workload × fault plan ×
/// query plan, all plain data. Build one with [`ScenarioSpec::builder`].
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Scenario name (report and JSON key).
    pub name: String,
    /// Who participates and how they ingest.
    pub topology: TopologySpec,
    /// Traffic structure and load shape.
    pub workload: WorkloadPlan,
    /// Channel faults, retries, churn.
    pub faults: FaultPlan,
    /// Live query plan.
    pub queries: QueryPlan,
    /// Full re-ship vs incremental delta frames (sustained load only).
    pub reporting: ReportingMode,
}

impl ScenarioSpec {
    /// Start building a scenario with sane defaults: 4 parties,
    /// per-party-thread ingest, 1 000 distinct labels each at 25 %
    /// overlap, uniform draws, batch load of 5 000 items per party, no
    /// faults, no queries.
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            spec: ScenarioSpec {
                name: name.into(),
                topology: TopologySpec {
                    parties: 4,
                    ingest: IngestMode::PerPartyThreads,
                    tree_depth: None,
                },
                workload: WorkloadPlan {
                    distinct_per_party: 1_000,
                    overlap: 0.25,
                    distribution: Distribution::Uniform,
                    seed: 0xBEEF,
                    load: LoadShape::Batch {
                        items_per_party: 5_000,
                    },
                },
                faults: FaultPlan {
                    transport: None,
                    retry: RetryPolicy::one_shot(),
                    churn: Vec::new(),
                },
                queries: QueryPlan::default(),
                reporting: ReportingMode::default(),
            },
        }
    }
}

/// Fluent builder for [`ScenarioSpec`]. Every method returns `self`.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl ScenarioBuilder {
    /// Number of parties.
    pub fn parties(mut self, parties: usize) -> Self {
        self.spec.topology.parties = parties;
        self
    }

    /// Batch ingest mode.
    pub fn ingest(mut self, mode: IngestMode) -> Self {
        self.spec.topology.ingest = mode;
        self
    }

    /// Route batch-load summaries through a collector tree with this
    /// many merge tiers (see [`TopologySpec::tree_depth`]).
    pub fn tree_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "a tree needs at least one merge tier");
        self.spec.topology.tree_depth = Some(depth);
        self
    }

    /// Report via the continuous-monitoring delta plane instead of full
    /// re-ships (see [`ReportingMode::DeltaPlane`]; sustained load only).
    pub fn delta_plane(mut self) -> Self {
        self.spec.reporting = ReportingMode::DeltaPlane;
        self
    }

    /// Distinct labels per party.
    pub fn distinct_per_party(mut self, n: u64) -> Self {
        self.spec.workload.distinct_per_party = n;
        self
    }

    /// Shared-universe overlap fraction.
    pub fn overlap(mut self, overlap: f64) -> Self {
        self.spec.workload.overlap = overlap;
        self
    }

    /// Draw distribution.
    pub fn distribution(mut self, d: Distribution) -> Self {
        self.spec.workload.distribution = d;
        self
    }

    /// Workload seed.
    pub fn workload_seed(mut self, seed: u64) -> Self {
        self.spec.workload.seed = seed;
        self
    }

    /// Copy parties, universe structure, distribution, seed, and batch
    /// size from an existing [`WorkloadSpec`] — how the legacy runner
    /// wrappers become builder instances.
    pub fn from_workload(mut self, wl: &WorkloadSpec) -> Self {
        self.spec.topology.parties = wl.parties;
        self.spec.workload.distinct_per_party = wl.distinct_per_party;
        self.spec.workload.overlap = wl.overlap;
        self.spec.workload.distribution = wl.distribution;
        self.spec.workload.seed = wl.seed;
        self.spec.workload.load = LoadShape::Batch {
            items_per_party: wl.items_per_party,
        };
        self
    }

    /// Batch load: each party's whole stream exists up front.
    pub fn batch(mut self, items_per_party: u64) -> Self {
        self.spec.workload.load = LoadShape::Batch { items_per_party };
        self
    }

    /// Sustained load: `rate` items per party per tick for `duration`
    /// ticks, shipping cumulative summaries every `report_every` ticks.
    pub fn sustained(mut self, rate: u64, duration: Tick, report_every: Tick) -> Self {
        self.spec.workload.load = LoadShape::Sustained {
            rate_per_party: rate,
            duration,
            report_every,
            phases: Vec::new(),
        };
        self
    }

    /// Add a rate-multiplier window to a sustained load (panics on batch
    /// load — call [`ScenarioBuilder::sustained`] first).
    pub fn phase(mut self, from: Tick, until: Tick, rate_multiplier: f64) -> Self {
        match &mut self.spec.workload.load {
            LoadShape::Sustained { phases, .. } => phases.push(LoadPhase {
                from,
                until,
                rate_multiplier,
            }),
            LoadShape::Batch { .. } => panic!("phase() requires sustained load"),
        }
        self
    }

    /// Route messages through a simulated faulty channel.
    pub fn transport(mut self, spec: TransportSpec) -> Self {
        self.spec.faults.transport = Some(spec);
        self
    }

    /// Retry policy for the collection plane.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.spec.faults.retry = policy;
        self
    }

    fn churn(mut self, party: usize, at: Tick, kind: ChurnKind) -> Self {
        self.spec.faults.churn.push(ChurnEvent { party, at, kind });
        self
    }

    /// Party `party` joins (starts generating) at tick `at`.
    pub fn join(self, party: usize, at: Tick) -> Self {
        self.churn(party, at, ChurnKind::Join)
    }

    /// Party `party` leaves gracefully at tick `at` (parting summary
    /// shipped first).
    pub fn graceful_leave(self, party: usize, at: Tick) -> Self {
        self.churn(party, at, ChurnKind::GracefulLeave)
    }

    /// Party `party` crashes at tick `at` (nothing further is shipped).
    pub fn crash(self, party: usize, at: Tick) -> Self {
        self.churn(party, at, ChurnKind::Crash)
    }

    /// Live-query cadence in ticks.
    pub fn query_every(mut self, every: Tick) -> Self {
        self.spec.queries.every = every;
        self
    }

    /// Sample the degraded-mode distinct estimate each cadence tick.
    pub fn query_distinct(mut self) -> Self {
        self.spec.queries.distinct = true;
        self
    }

    /// Sample a sliding-window distinct count over the last `window`
    /// ticks each cadence tick.
    pub fn query_window(mut self, window: Tick) -> Self {
        self.spec.queries.window = Some(window);
        self
    }

    /// Add a set-expression query (leaves are party ids).
    pub fn query_expr(mut self, expr: SetExpr) -> Self {
        self.spec.queries.expressions.push(expr);
        self
    }

    /// Add a Jaccard query between two expressions.
    pub fn query_jaccard(mut self, e1: SetExpr, e2: SetExpr) -> Self {
        self.spec.queries.jaccard.push((e1, e2));
        self
    }

    /// Finish: validate and return the spec.
    ///
    /// # Panics
    /// Panics on a spec no engine can honour in full: no parties, an
    /// empty universe, churn naming a party outside the topology, a tree
    /// depth on sustained load, a window query on batch load, or a batch
    /// spec that turns on more than one engine-selecting knob (tree
    /// depth, shared-concurrent ingest, a transport, expression/Jaccard
    /// queries) — each batch engine honours only its own.
    pub fn build(self) -> ScenarioSpec {
        validate(&self.spec);
        self.spec
    }
}

/// The one validity check every entry point runs (see
/// [`ScenarioBuilder::build`]), so no engine silently ignores part of a
/// spec.
fn validate(spec: &ScenarioSpec) {
    let (topo, q) = (&spec.topology, &spec.queries);
    assert!(topo.parties > 0, "need at least one party");
    assert!(
        spec.workload.distinct_per_party > 0,
        "need a non-empty universe"
    );
    for ev in &spec.faults.churn {
        assert!(
            ev.party < topo.parties,
            "churn event references party {} of {}",
            ev.party,
            topo.parties
        );
    }
    if let LoadShape::Sustained { .. } = spec.workload.load {
        assert!(
            topo.tree_depth.is_none(),
            "tree depth applies to batch load only"
        );
        return;
    }
    assert!(q.window.is_none(), "window queries need sustained load");
    let engine_knobs = [
        topo.tree_depth.is_some(),
        matches!(topo.ingest, IngestMode::SharedConcurrent { .. }),
        spec.faults.transport.is_some(),
        !q.expressions.is_empty() || !q.jaccard.is_empty(),
    ];
    assert!(
        engine_knobs.iter().filter(|&&on| on).count() <= 1,
        "batch engines are exclusive: tree depth, shared-concurrent ingest, a transport \
         and expression/Jaccard queries do not combine"
    );
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// What a [`ScenarioSpec`] produced, by engine.
#[derive(Clone, Debug)]
pub enum ScenarioOutcome {
    /// One-shot batch run over a perfect channel.
    Classic(ScenarioReport),
    /// Batch run through the faulty-channel retrying collector.
    Resilient(ResilientReport),
    /// Batch run answering set-expression / Jaccard queries.
    Expression(ExpressionScenarioReport),
    /// Concurrent-ingest run serving queries mid-flight.
    Live(LiveQueryReport),
    /// Sustained-rate run on the virtual clock.
    Sustained(Box<E2eReport>),
}

/// Run a spec end to end, generating its streams from the workload plan.
///
/// Dispatch: sustained load → the sustained engine; batch load with a
/// tree depth → tree engine (a [`ScenarioOutcome::Classic`] report);
/// with [`IngestMode::SharedConcurrent`] → live engine; with a
/// transport → resilient engine; with expression or Jaccard queries →
/// expression engine; otherwise the classic engine.
pub fn run_spec(config: &SketchConfig, master_seed: u64, spec: &ScenarioSpec) -> ScenarioOutcome {
    run_spec_on(config, master_seed, spec, None)
}

/// [`run_spec`] with an optional pre-generated stream set for batch
/// engines (must have one stream per party). The sustained engine
/// always draws incrementally and ignores `streams`.
pub fn run_spec_on(
    config: &SketchConfig,
    master_seed: u64,
    spec: &ScenarioSpec,
    streams: Option<&StreamSet>,
) -> ScenarioOutcome {
    validate(spec);
    match &spec.workload.load {
        LoadShape::Sustained { .. } => {
            ScenarioOutcome::Sustained(Box::new(run_sustained(config, master_seed, spec)))
        }
        LoadShape::Batch { .. } => {
            let generated;
            let streams = match streams {
                Some(s) => s,
                None => {
                    generated = spec
                        .workload
                        .to_workload_spec(spec.topology.parties)
                        .generate();
                    &generated
                }
            };
            assert_eq!(
                streams.streams.len(),
                spec.topology.parties,
                "stream set does not match the topology"
            );
            // `validate` has refused any combination of these knobs.
            let (c, seed, q, retry) = (config, master_seed, &spec.queries, spec.faults.retry);
            match (
                spec.topology.tree_depth,
                spec.topology.ingest,
                spec.faults.transport,
            ) {
                (Some(depth), ..) => {
                    ScenarioOutcome::Classic(run_tree_engine(c, seed, streams, depth))
                }
                (_, IngestMode::SharedConcurrent { writer_threshold }, _) => {
                    ScenarioOutcome::Live(run_live_engine(c, seed, streams, writer_threshold))
                }
                (_, _, Some(t)) => {
                    ScenarioOutcome::Resilient(run_resilient_engine(c, seed, streams, t, retry))
                }
                _ if !q.expressions.is_empty() || !q.jaccard.is_empty() => {
                    ScenarioOutcome::Expression(run_expression_engine(
                        c,
                        seed,
                        streams,
                        &q.expressions,
                        &q.jaccard,
                    ))
                }
                (_, ingest, None) => {
                    ScenarioOutcome::Classic(run_classic_engine(c, seed, streams, ingest))
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Batch engines (moved here from crate::runner; the legacy entry points
// are now thin wrappers over builder instances dispatched above)
// ---------------------------------------------------------------------

/// Observe one party's whole stream and finish its message, timing both
/// phases.
fn observe_party(
    id: usize,
    stream: &[u64],
    config: &SketchConfig,
    master_seed: u64,
) -> (PartyMessage, PartyPhases) {
    let mut party = Party::new(id, config, master_seed);
    let observe_start = Instant::now();
    party.observe_stream(stream);
    let observe = observe_start.elapsed();
    let encode_start = Instant::now();
    let msg = party.finish();
    let encode = encode_start.elapsed();
    (msg, PartyPhases { observe, encode })
}

/// Classic one-shot engine. `PerPartyThreads` runs one OS thread per
/// party with the referee pipelined on the caller's thread;
/// `Sequential` observes parties in id order and hands the referee one
/// batch of all messages (deterministic telemetry for replay tests).
pub(crate) fn run_classic_engine(
    config: &SketchConfig,
    master_seed: u64,
    streams: &StreamSet,
    ingest: IngestMode,
) -> ScenarioReport {
    let t = streams.streams.len();
    assert!(t > 0, "need at least one party");

    let observe_start = Instant::now();
    let mut referee = Referee::new(config, master_seed);
    let mut bytes_per_party = vec![0usize; t];
    let mut party_phases = vec![PartyPhases::default(); t];
    let mut referee_busy = std::time::Duration::ZERO;

    match ingest {
        IngestMode::Sequential => {
            let mut batch: Vec<PartyMessage> = Vec::with_capacity(t);
            for (id, stream) in streams.streams.iter().enumerate() {
                let (msg, phases) = observe_party(id, stream, config, master_seed);
                bytes_per_party[id] = msg.bytes();
                party_phases[id] = phases;
                batch.push(msg);
            }
            let busy_start = Instant::now();
            for outcome in referee.receive_batch(&batch) {
                outcome.expect("coordinated message must decode");
            }
            referee_busy += busy_start.elapsed();
        }
        IngestMode::PerPartyThreads | IngestMode::SharedConcurrent { .. } => {
            let (tx, rx) = crossbeam::channel::unbounded::<(PartyMessage, PartyPhases)>();
            crossbeam::scope(|scope| {
                for (id, stream) in streams.streams.iter().enumerate() {
                    let tx = tx.clone();
                    scope.spawn(move |_| {
                        tx.send(observe_party(id, stream, config, master_seed))
                            .expect("referee hung up");
                    });
                }
                drop(tx);
                // Referee loop, pipelined: runs on this thread while
                // party threads are still observing; exits when every
                // sender is done. Messages that queued up while the
                // referee was busy are drained into one batch and
                // unioned through the tree-reduction batch path.
                let mut batch: Vec<PartyMessage> = Vec::with_capacity(t);
                while let Ok((msg, phases)) = rx.recv() {
                    let busy_start = Instant::now();
                    batch.clear();
                    bytes_per_party[msg.party_id] = msg.bytes();
                    party_phases[msg.party_id] = phases;
                    batch.push(msg);
                    while let Ok((msg, phases)) = rx.try_recv() {
                        bytes_per_party[msg.party_id] = msg.bytes();
                        party_phases[msg.party_id] = phases;
                        batch.push(msg);
                    }
                    for outcome in referee.receive_batch(&batch) {
                        outcome.expect("coordinated message must decode");
                    }
                    referee_busy += busy_start.elapsed();
                }
            })
            .expect("party thread panicked");
        }
    }
    let observe_wall = observe_start.elapsed();

    let estimate_start = Instant::now();
    let estimate = referee.estimate_distinct().value;
    let referee_time = referee_busy + estimate_start.elapsed();

    let oracle = StreamOracle::of_streams(streams.streams.iter().map(|s| s.as_slice()));
    let truth = oracle.distinct();
    let relative_error = gt_core::relative_error(estimate, truth as f64);

    ScenarioReport {
        estimate,
        truth,
        relative_error,
        parties: t,
        total_items: streams.total_items(),
        total_bytes: bytes_per_party.iter().sum(),
        bytes_per_party,
        party_phases,
        observe_wall,
        referee_telemetry: *referee.telemetry(),
        union_metrics: referee.union_metrics(),
        referee_time,
    }
}

/// The fan-out that gives a `depth`-tier collector tree over `parties`
/// leaves: the smallest `f ≥ 2` with `f^depth ≥ parties`.
pub(crate) fn tree_fanout_for_depth(parties: usize, depth: usize) -> usize {
    assert!(depth >= 1, "a tree needs at least one merge tier");
    let mut fanout = 2usize.max((parties as f64).powf(1.0 / depth as f64).ceil() as usize);
    // powf rounding can land one off in either direction; walk to the
    // exact smallest fan-out.
    while fanout > 2 && (fanout - 1).pow(depth as u32) >= parties {
        fanout -= 1;
    }
    while fanout.pow(depth as u32) < parties {
        fanout += 1;
    }
    fanout
}

/// Tree engine: serial observation, then hierarchical aggregation
/// through intermediate collectors ([`crate::topology::aggregate_tree`])
/// with the fan-out derived from the requested depth; the referee
/// receives the single root message. The union — and therefore the
/// estimate — is bitwise identical to the flat classic engine on the
/// same seed (the tree reassociation is lossless), which
/// `tree_union_is_bitwise_identical_to_flat` pins.
pub(crate) fn run_tree_engine(
    config: &SketchConfig,
    master_seed: u64,
    streams: &StreamSet,
    depth: usize,
) -> ScenarioReport {
    let t = streams.streams.len();
    assert!(t > 0, "need at least one party");
    let fanout = tree_fanout_for_depth(t, depth);

    let observe_start = Instant::now();
    let (messages, party_phases): (Vec<PartyMessage>, Vec<PartyPhases>) = streams
        .streams
        .iter()
        .enumerate()
        .map(|(id, stream)| observe_party(id, stream, config, master_seed))
        .unzip();
    let bytes_per_party = messages.iter().map(PartyMessage::bytes).collect();
    let observe_wall = observe_start.elapsed();

    let busy_start = Instant::now();
    let tree = crate::topology::aggregate_tree(config, master_seed, messages, fanout)
        .expect("coordinated messages must aggregate");
    let mut referee = Referee::new(config, master_seed);
    referee
        .receive(&PartyMessage {
            party_id: 0,
            payload: tree.root_canonical.clone(),
            items_observed: streams.total_items(),
        })
        .expect("root message must decode");
    let estimate = referee.estimate_distinct().value;
    let referee_time = busy_start.elapsed();

    let oracle = StreamOracle::of_streams(streams.streams.iter().map(|s| s.as_slice()));
    let truth = oracle.distinct();
    ScenarioReport {
        estimate,
        truth,
        relative_error: gt_core::relative_error(estimate, truth as f64),
        parties: t,
        total_items: streams.total_items(),
        total_bytes: tree.bytes_per_tier.iter().sum(),
        bytes_per_party,
        party_phases,
        observe_wall,
        referee_telemetry: *referee.telemetry(),
        union_metrics: referee.union_metrics(),
        referee_time,
    }
}

/// Resilient engine: batch observation, then the retrying collection
/// plane over the faulty channel.
pub(crate) fn run_resilient_engine(
    config: &SketchConfig,
    master_seed: u64,
    streams: &StreamSet,
    spec: TransportSpec,
    policy: RetryPolicy,
) -> ResilientReport {
    let t = streams.streams.len();
    assert!(t > 0, "need at least one party");

    // Observation phase: one thread per party, as in the clean runner.
    let messages: Vec<PartyMessage> = crossbeam::scope(|scope| {
        let handles: Vec<_> = streams
            .streams
            .iter()
            .enumerate()
            .map(|(id, stream)| {
                scope.spawn(move |_| observe_party(id, stream, config, master_seed).0)
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("party thread panicked"))
            .collect()
    })
    .expect("party thread panicked");

    // Collection phase: retrying plane over the faulty channel.
    let mut collector: Collector = Collector::new(config, master_seed, spec, policy);
    let collection = collector.collect(&messages);
    let referee = collector.into_referee();
    let partial = referee.estimate_distinct_partial(t);

    let full_oracle = StreamOracle::of_streams(streams.streams.iter().map(|s| s.as_slice()));
    let received_oracle = StreamOracle::of_streams(
        streams
            .streams
            .iter()
            .zip(&collection.per_party)
            .filter(|(_, p)| p.acked_at.is_some())
            .map(|(s, _)| s.as_slice()),
    );
    let full_truth = full_oracle.distinct();
    let received_truth = received_oracle.distinct();

    ResilientReport {
        collection,
        partial,
        full_truth,
        received_truth,
        error_vs_received: gt_core::relative_error(partial.estimate.value, received_truth as f64),
    }
}

/// Expression engine: serial observation, then set-expression and
/// Jaccard queries scored against the exact oracle.
pub(crate) fn run_expression_engine(
    config: &SketchConfig,
    master_seed: u64,
    streams: &StreamSet,
    queries: &[SetExpr],
    jaccard_queries: &[(SetExpr, SetExpr)],
) -> ExpressionScenarioReport {
    let t = streams.streams.len();
    assert!(t > 0, "need at least one party");

    let mut referee = Referee::new(config, master_seed);
    for (id, stream) in streams.streams.iter().enumerate() {
        let (msg, _) = observe_party(id, stream, config, master_seed);
        referee
            .receive(&msg)
            .expect("coordinated message must decode");
    }

    let sets: Vec<HashSet<u64>> = streams
        .streams
        .iter()
        .map(|s| s.iter().copied().collect())
        .collect();

    let queries = queries
        .iter()
        .map(|expr| {
            let answer = referee.query(expr).expect("query references heard parties");
            let truth = expr
                .eval_exact(&sets)
                .expect("oracle shares the leaves")
                .len() as u64;
            // Union of every referenced stream: the additive contract's scale.
            let mut referenced: HashSet<u64> = HashSet::new();
            expr.for_each_leaf(&mut |i| referenced.extend(&sets[i]));
            let scale = config.epsilon() * referenced.len() as f64;
            let scaled_error = if scale == 0.0 {
                0.0
            } else {
                (answer.estimate.value - truth as f64).abs() / scale
            };
            ExpressionQueryOutcome {
                expr: expr.to_string(),
                depth: expr.depth(),
                answer,
                truth,
                scaled_error,
            }
        })
        .collect();

    let jaccard_queries = jaccard_queries
        .iter()
        .map(|(e1, e2)| {
            let answer = referee
                .query_jaccard(e1, e2)
                .expect("query references heard parties");
            let s1 = e1.eval_exact(&sets).expect("oracle shares the leaves");
            let s2 = e2.eval_exact(&sets).expect("oracle shares the leaves");
            let union = s1.union(&s2).count();
            let truth = if union == 0 {
                0.0
            } else {
                s1.intersection(&s2).count() as f64 / union as f64
            };
            JaccardQueryOutcome {
                exprs: (e1.to_string(), e2.to_string()),
                abs_error: (answer.jaccard - truth).abs(),
                answer,
                truth,
            }
        })
        .collect();

    ExpressionScenarioReport {
        queries,
        jaccard_queries,
        parties: t,
        total_items: streams.total_items(),
        epsilon: config.epsilon(),
    }
}

/// Live engine: concurrent writers into a shared sketch, queries served
/// from snapshots on the caller's thread the whole time.
pub(crate) fn run_live_engine(
    config: &SketchConfig,
    master_seed: u64,
    streams: &StreamSet,
    writer_threshold: u64,
) -> LiveQueryReport {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let t = streams.streams.len();
    assert!(t > 0, "need at least one writer");
    let total_items = streams.total_items();

    let shared = gt_core::ConcurrentSketch::new(config, master_seed);
    let writers_done = AtomicUsize::new(0);
    let mut samples: Vec<LiveQuerySample> = Vec::new();
    let mut snapshots_taken = 0u64;
    let mut monotone = true;

    let observe_start = Instant::now();
    crossbeam::scope(|scope| {
        for stream in &streams.streams {
            let shared = &shared;
            let writers_done = &writers_done;
            scope.spawn(move |_| {
                let mut writer = shared.writer_with_threshold(writer_threshold);
                writer.extend_slice(stream);
                drop(writer); // flush the tail before reporting done
                writers_done.fetch_add(1, Ordering::Release);
            });
        }
        // Query loop on this thread: serve estimates from snapshots while
        // writers run. Samples are recorded per *new epoch*; monotonicity
        // is tracked across every poll (count/ordering property, no
        // timing assumptions).
        let mut last_epoch = 0u64;
        let mut last_items = 0u64;
        loop {
            let done = writers_done.load(Ordering::Acquire) >= t;
            let snap = shared.snapshot();
            snapshots_taken += 1;
            if snap.epoch() < last_epoch || snap.items_observed() < last_items {
                monotone = false;
            }
            if snap.epoch() != last_epoch || (done && samples.is_empty()) {
                samples.push(LiveQuerySample {
                    epoch: snap.epoch(),
                    items_covered: snap.items_observed(),
                    estimate: snap.estimate_distinct().value,
                    coverage: if total_items == 0 {
                        1.0
                    } else {
                        snap.items_observed() as f64 / total_items as f64
                    },
                });
            }
            last_epoch = snap.epoch();
            last_items = snap.items_observed();
            if done {
                break;
            }
            std::thread::yield_now();
        }
    })
    .expect("writer thread panicked");
    let observe_wall = observe_start.elapsed();

    let final_snap = shared.snapshot();
    let final_estimate = final_snap.estimate_distinct().value;
    let oracle = StreamOracle::of_streams(streams.streams.iter().map(|s| s.as_slice()));
    let truth = oracle.distinct();

    LiveQueryReport {
        samples,
        snapshots_taken,
        monotone,
        final_estimate,
        truth,
        relative_error: gt_core::relative_error(final_estimate, truth as f64),
        final_epoch: final_snap.epoch(),
        parties: t,
        total_items,
        observe_wall,
        concurrent_metrics: shared.metrics_snapshot(),
    }
}

// ---------------------------------------------------------------------
// Sustained engine
// ---------------------------------------------------------------------

/// A tick-resolution latency histogram: bucket `i` counts items whose
/// admission→queryable latency was exactly `i` ticks (clamped at
/// [`LATENCY_CLAMP`]). Derives `Eq`, so same-seed replays can assert
/// bitwise-identical latency distributions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    max: Tick,
}

impl LatencyHistogram {
    /// Record `n` items at `latency` ticks.
    pub fn record(&mut self, latency: Tick, n: u64) {
        if n == 0 {
            return;
        }
        let idx = latency.min(LATENCY_CLAMP) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        self.count += n;
        self.max = self.max.max(latency);
    }

    /// Items recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest latency recorded (unclamped).
    pub fn max(&self) -> Tick {
        self.max
    }

    /// The smallest latency `L` such that at least `⌈q·count⌉` items had
    /// latency ≤ `L` (0 when empty; saturates at [`LATENCY_CLAMP`]).
    pub fn quantile(&self, q: f64) -> Tick {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return i as Tick;
            }
        }
        LATENCY_CLAMP
    }

    /// Median latency in ticks.
    pub fn p50(&self) -> Tick {
        self.quantile(0.50)
    }

    /// 99th-percentile latency in ticks.
    pub fn p99(&self) -> Tick {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency in ticks.
    pub fn p999(&self) -> Tick {
        self.quantile(0.999)
    }

    /// Mean latency in ticks (clamped items count at the clamp).
    pub fn mean(&self) -> f64 {
        let sum: u64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| i as u64 * b)
            .sum();
        ratio_or(sum, self.count, 0.0)
    }
}

/// One degraded-mode distinct sample from the query plan.
#[derive(Clone, Copy, Debug)]
pub struct DistinctSample {
    /// Virtual tick of the query.
    pub at: Tick,
    /// `estimate_distinct_partial` point estimate.
    pub estimate: f64,
    /// Parties heard at query time.
    pub parties_heard: usize,
    /// Parties active (joined) at query time.
    pub parties_expected: usize,
    /// `parties_heard / parties_expected` (1 when none expected).
    pub coverage: f64,
}

/// One sliding-window distinct sample: the estimate over the last
/// `window` ticks against the engine's exact recency oracle.
#[derive(Clone, Copy, Debug)]
pub struct WindowSample {
    /// Virtual tick of the query.
    pub at: Tick,
    /// Window width in ticks.
    pub window: Tick,
    /// Merged sliding-window estimate over all parties.
    pub estimate: f64,
    /// Exact count of labels last seen in `(at − window, at]`.
    pub truth: u64,
}

/// One set-expression sample (`query_partial`).
#[derive(Clone, Copy, Debug)]
pub struct ExpressionSample {
    /// Virtual tick of the query.
    pub at: Tick,
    /// Index into [`QueryPlan::expressions`].
    pub query: usize,
    /// Point estimate.
    pub estimate: f64,
    /// Fraction of referenced parties heard.
    pub coverage: f64,
}

/// One Jaccard sample (`query_jaccard_partial`).
#[derive(Clone, Copy, Debug)]
pub struct JaccardSample {
    /// Virtual tick of the query.
    pub at: Tick,
    /// Index into [`QueryPlan::jaccard`].
    pub pair: usize,
    /// Jaccard estimate.
    pub jaccard: f64,
    /// Fraction of referenced parties heard.
    pub coverage: f64,
}

/// What the continuous-monitoring delta plane did during a sustained
/// run — present on [`E2eReport::delta`] when the scenario used
/// [`ReportingMode::DeltaPlane`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeltaPlaneReport {
    /// Delta frames applied by the referee.
    pub delta_frames: u64,
    /// Full frames applied (initial ships and post-resync re-keys).
    pub full_frames: u64,
    /// Wire bytes of applied delta frames.
    pub delta_bytes: u64,
    /// Wire bytes of applied full frames.
    pub full_bytes: u64,
    /// Resyncs requested (delta refused for an unknown/mismatched base).
    pub resyncs: u64,
    /// Per-generation acks sent back to parties.
    pub acks_sent: u64,
    /// Acks lost on the return path ([`RetryPolicy::ack_drop_probability`]).
    pub acks_lost: u64,
    /// Final acked (applied) generation per party, indexed by party id
    /// (0 = never heard).
    pub acked_generations: Vec<u64>,
    /// Mean over query ticks of the worst per-party estimate staleness,
    /// in virtual ticks (tick of query minus encode tick of the last
    /// applied frame).
    pub staleness_mean: f64,
    /// Worst staleness observed at any query tick.
    pub staleness_max: Tick,
    /// Bitwise live-union-vs-full-ship equivalence checks run (one per
    /// tick that applied at least one frame).
    pub oracle_checks: u64,
    /// Equivalence checks that failed — **must be zero**; a nonzero
    /// count means the incremental union diverged from a fresh full
    /// ship.
    pub oracle_failures: u64,
    /// Checks skipped because a party had already pruned the snapshot
    /// for its acked generation (mid-resync windows).
    pub oracle_skipped: u64,
}

impl DeltaPlaneReport {
    /// Mean applied delta-frame size in bytes (0 when none).
    pub fn mean_delta_frame(&self) -> f64 {
        ratio_or(self.delta_bytes, self.delta_frames, 0.0)
    }

    /// Mean applied full-frame size in bytes (0 when none).
    pub fn mean_full_frame(&self) -> f64 {
        ratio_or(self.full_bytes, self.full_frames, 0.0)
    }
}

/// Everything a sustained-rate scenario run measured.
#[derive(Clone, Debug)]
pub struct E2eReport {
    /// Scenario name.
    pub name: String,
    /// Parties in the topology.
    pub parties: usize,
    /// Virtual ticks run (before final retry rounds).
    pub duration: Tick,
    /// Items generated across all parties.
    pub total_items: u64,
    /// Items that became queryable (covered by an accepted summary).
    pub items_acked: u64,
    /// Summary messages encoded and first-sent (excludes retransmits).
    pub reports_sent: usize,
    /// Final retransmit rounds driven after the load ended.
    pub retry_rounds: usize,
    /// Admission→queryable latency per item, in virtual ticks.
    pub latency: LatencyHistogram,
    /// Parties heard / parties that sent ≥ 1 summary (1 when none sent).
    pub party_coverage: f64,
    /// Items acked / items generated (1 when none generated).
    pub item_coverage: f64,
    /// Final union distinct estimate.
    pub final_estimate: f64,
    /// Exact distinct count of everything generated.
    pub truth: u64,
    /// `|final_estimate − truth| / truth` — only meaningful at full
    /// coverage (at partial coverage the contract covers the heard
    /// union, as in [`crate::referee::PartialEstimate`]).
    pub relative_error: f64,
    /// Degraded-mode distinct samples, in query order.
    pub distinct_samples: Vec<DistinctSample>,
    /// Sliding-window samples, in query order.
    pub window_samples: Vec<WindowSample>,
    /// Set-expression samples, in query order.
    pub expression_samples: Vec<ExpressionSample>,
    /// Jaccard samples, in query order.
    pub jaccard_samples: Vec<JaccardSample>,
    /// Channel-side telemetry (authoritative drop counts).
    pub transport: TransportTelemetry,
    /// Referee-side telemetry (accepts, duplicates, rejects).
    pub referee: RefereeTelemetry,
    /// Canonical encoded bytes of the final union sketch — the bitwise
    /// determinism witness.
    pub union_canonical: bytes::Bytes,
    /// Total summary bytes put on the wire (first sends + engine-driven
    /// retransmits; the steady-state communication cost E24 measures).
    pub bytes_sent: u64,
    /// Delta-plane accounting, when the run used
    /// [`ReportingMode::DeltaPlane`].
    pub delta: Option<DeltaPlaneReport>,
    /// Wall time of the whole run (diagnostics only — never asserted).
    pub run_wall: std::time::Duration,
}

impl E2eReport {
    /// Wall-clock ingest throughput in items per second (diagnostics;
    /// `f64::INFINITY` if the clock read zero).
    pub fn items_per_sec(&self) -> f64 {
        let secs = self.run_wall.as_secs_f64();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            self.total_items as f64 / secs
        }
    }

    /// Offered load in items per virtual tick (deterministic).
    pub fn offered_rate_per_tick(&self) -> f64 {
        ratio_or(self.total_items, self.duration, 0.0)
    }

    /// Everything deterministic about this run, folded into one
    /// `Eq`-comparable value: canonical union bytes, latency histogram,
    /// exactly-once counters, telemetry counts (timings excluded), and
    /// every query sample (estimates as IEEE bit patterns). Two
    /// same-seed runs of the same spec must compare equal — the replay
    /// property `tests/scenario_determinism.rs` checks.
    pub fn determinism_key(&self) -> E2eDeterminismKey {
        let r = &self.referee;
        let d = self.delta.clone().unwrap_or_default();
        E2eDeterminismKey {
            union_canonical: self.union_canonical.clone(),
            bytes_sent: self.bytes_sent,
            delta_counts: [
                d.delta_frames,
                d.full_frames,
                d.delta_bytes,
                d.full_bytes,
                d.resyncs,
                d.acks_sent,
                d.acks_lost,
                d.oracle_failures,
            ],
            latency: self.latency.clone(),
            total_items: self.total_items,
            items_acked: self.items_acked,
            reports_sent: self.reports_sent,
            retry_rounds: self.retry_rounds,
            truth: self.truth,
            final_estimate_bits: self.final_estimate.to_bits(),
            party_coverage_bits: self.party_coverage.to_bits(),
            item_coverage_bits: self.item_coverage.to_bits(),
            transport: self.transport,
            referee_counts: [
                r.accepted,
                r.duplicates_suppressed,
                r.duplicates_merged,
                r.rejected(),
                r.batches,
            ],
            samples: self
                .distinct_samples
                .iter()
                .map(|s| (s.at, 0usize, s.estimate.to_bits(), s.parties_heard as u64))
                .chain(
                    self.window_samples
                        .iter()
                        .map(|s| (s.at, 1, s.estimate.to_bits(), s.truth)),
                )
                .chain(
                    self.expression_samples
                        .iter()
                        .map(|s| (s.at, 2, s.estimate.to_bits(), s.query as u64)),
                )
                .chain(
                    self.jaccard_samples
                        .iter()
                        .map(|s| (s.at, 3, s.jaccard.to_bits(), s.pair as u64)),
                )
                .collect(),
        }
    }
}

/// The `Eq`-comparable replay witness of an [`E2eReport`] — see
/// [`E2eReport::determinism_key`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct E2eDeterminismKey {
    /// Canonical encoded bytes of the final union sketch.
    pub union_canonical: bytes::Bytes,
    /// Summary bytes put on the wire.
    pub bytes_sent: u64,
    /// Delta-plane counts: delta/full frames, delta/full bytes, resyncs,
    /// acks sent/lost, oracle failures (all zero off the delta plane).
    pub delta_counts: [u64; 8],
    /// Full latency histogram.
    pub latency: LatencyHistogram,
    /// Items generated.
    pub total_items: u64,
    /// Items acked.
    pub items_acked: u64,
    /// Summaries first-sent.
    pub reports_sent: usize,
    /// Final retry rounds.
    pub retry_rounds: usize,
    /// Exact distinct truth.
    pub truth: u64,
    /// Final estimate, as IEEE bits.
    pub final_estimate_bits: u64,
    /// Party coverage, as IEEE bits.
    pub party_coverage_bits: u64,
    /// Item coverage, as IEEE bits.
    pub item_coverage_bits: u64,
    /// Channel telemetry (all counts).
    pub transport: TransportTelemetry,
    /// Referee counts: accepted, dup-suppressed, dup-merged, rejected,
    /// batches (timings excluded — they are wall-clock).
    pub referee_counts: [usize; 5],
    /// Every query sample: `(tick, kind, estimate bits, aux)`.
    pub samples: Vec<(Tick, usize, u64, u64)>,
}

/// Per-party runtime state of the sustained engine, shared by both
/// reporting modes (the mode keeps the party's summary itself).
struct PartyRt {
    rng: SmallRng,
    universe: Vec<u64>,
    zipf: Option<ZipfSampler>,
    each_once: bool,
    /// Items generated but not yet covered by an accepted report:
    /// `(generation tick, count)` in tick order.
    pending: VecDeque<(Tick, u64)>,
    generated: u64,
    /// Items covered by the most recent report (skip no-op re-emits).
    last_emitted_items: u64,
    /// Most recent report and its encode tick, for final retransmits.
    last_report: Option<(Tick, PartyMessage)>,
    /// Encode tick of the newest report the referee admitted — the
    /// delta plane's staleness anchor.
    applied_emit_tick: Option<Tick>,
    /// A resync notice arrived (delta plane only): the next emission
    /// must happen even if no new items did (it re-keys the chain with
    /// a full frame).
    needs_reemit: bool,
    joined_at: Tick,
    leave_at: Option<Tick>,
    graceful: bool,
    sends: usize,
}

impl PartyRt {
    fn draw(&mut self) -> u64 {
        let idx = match &self.zipf {
            Some(z) => z.sample(&mut self.rng) as usize,
            None if self.each_once => (self.generated as usize) % self.universe.len(),
            None => self.rng.gen_range(0..self.universe.len()),
        };
        self.universe[idx]
    }

    /// Generating at tick `t`?
    fn generating(&self, t: Tick) -> bool {
        self.joined_at <= t && self.leave_at.is_none_or(|l| t < l)
    }

    /// Allowed to send at tick `t`? (Graceful leavers ship their parting
    /// report at the leave tick; crashers ship nothing from theirs.)
    fn can_send(&self, t: Tick) -> bool {
        self.joined_at <= t
            && match self.leave_at {
                None => true,
                Some(l) => t < l || (t == l && self.graceful),
            }
    }
}

/// Admission→queryable latency accounting: which report (by party and
/// payload fingerprint) was encoded when, and what got admitted.
#[derive(Default)]
struct Admission {
    encode_ticks: HashMap<(usize, u64), Tick>,
    hist: LatencyHistogram,
    items_acked: u64,
}

impl Admission {
    /// An accepted report admits every pending item of its party
    /// generated at or before the report's encode tick. Deliveries with
    /// an unknown fingerprint (a corrupt payload that still decoded)
    /// admit nothing.
    fn admit(&mut self, rt: &mut PartyRt, d: &Delivery) {
        let fp = payload_fingerprint(&d.msg.payload);
        let Some(&enc) = self.encode_ticks.get(&(d.msg.party_id, fp)) else {
            return;
        };
        rt.applied_emit_tick = Some(rt.applied_emit_tick.map_or(enc, |a| a.max(enc)));
        while let Some(&(gen_tick, n)) = rt.pending.front() {
            if gen_tick > enc {
                break;
            }
            self.hist.record(d.at.saturating_sub(gen_tick), n);
            self.items_acked += n;
            rt.pending.pop_front();
        }
    }
}

/// The decisions that differ between [`ReportingMode`]s; the engine
/// loop in [`drive`] is shared.
trait ReportPlane: Sized {
    /// Per-label payload the referee keeps.
    type V: WirePayload + PartialEq;

    /// Fold party `p`'s draws at tick `t` into its summary.
    fn observe(&mut self, p: usize, labels: &[u64], t: Tick);

    /// Encode party `p`'s next report.
    fn emit(&mut self, p: usize) -> PartyMessage;

    /// Hand one tick's (or retry round's) deliveries to the referee and
    /// admit the accepted ones. Returns whether any report was applied.
    fn absorb(
        &mut self,
        referee: &mut RefereeOf<Self::V>,
        deliveries: &[Delivery],
        ps: &mut [PartyRt],
        admission: &mut Admission,
    ) -> bool;

    /// Distinct labels last seen in `(t − w, t]`.
    fn window(&self, referee: &RefereeOf<Self::V>, t: Tick, w: Tick) -> f64;

    /// After each tick's deliveries (`applied`: any report applied).
    fn after_tick(&mut self, _referee: &RefereeOf<Self::V>, _applied: bool) {}

    /// At each query tick, before the queries run.
    fn on_query(&mut self, _ps: &[PartyRt], _t: Tick) {}

    /// The mode's own accounting at the end of the run.
    fn finish(self, _referee: &RefereeOf<Self::V>) -> Option<DeltaPlaneReport> {
        None
    }
}

/// Full re-ship: every report is the party's whole cumulative sketch,
/// and window queries merge party-side sliding-window sketches.
struct FullReship {
    sketches: Vec<DistinctSketch>,
    /// One per party when the plan has a window query, else empty.
    windows: Vec<SlidingWindowSketch>,
}

impl ReportPlane for FullReship {
    type V = ();

    fn observe(&mut self, p: usize, labels: &[u64], t: Tick) {
        self.sketches[p].extend_slice(labels);
        if let Some(w) = self.windows.get_mut(p) {
            for &label in labels {
                w.insert(label, t);
            }
        }
    }

    fn emit(&mut self, p: usize) -> PartyMessage {
        let sketch = &self.sketches[p];
        PartyMessage {
            party_id: p,
            payload: encode_sketch(sketch),
            items_observed: sketch.items_observed(),
        }
    }

    /// One `receive_batch` per call; merged variants (a benign corrupt
    /// flip) admit too.
    fn absorb(
        &mut self,
        referee: &mut Referee,
        deliveries: &[Delivery],
        ps: &mut [PartyRt],
        admission: &mut Admission,
    ) -> bool {
        if deliveries.is_empty() {
            return false;
        }
        let msgs: Vec<PartyMessage> = deliveries.iter().map(|d| d.msg.clone()).collect();
        let receipts = referee.receive_batch(&msgs);
        let mut any_applied = false;
        for (d, receipt) in deliveries.iter().zip(receipts) {
            if matches!(receipt, Ok(Receipt::Merged | Receipt::MergedVariant)) {
                any_applied = true;
                admission.admit(&mut ps[d.msg.party_id], d);
            }
        }
        any_applied
    }

    fn window(&self, _referee: &Referee, t: Tick, w: Tick) -> f64 {
        let Some((first, rest)) = self.windows.split_first() else {
            return 0.0;
        };
        let mut merged = first.clone();
        for ws in rest {
            merged.merge_from(ws).expect("shared seed and config");
        }
        merged.estimate_distinct_last(t, w).value
    }
}

/// The continuous-monitoring delta plane: parties ship generation-
/// stamped frames, the referee acks (or requests a resync) per frame,
/// window queries are answered referee-side from [`LatestTs`] payloads,
/// and an always-on oracle checks the live union at every ack point.
struct DeltaFrames<V: WirePayload + PartialEq> {
    parties: Vec<DeltaParty<V>>,
    /// The payload a label observed at tick `t` carries.
    payload_at: fn(Tick) -> V,
    /// The referee-side window answer.
    window_answer: fn(&RefereeOf<V>, Tick, Tick) -> f64,
    config: SketchConfig,
    master_seed: u64,
    /// The ack return path owns its own RNG stream, exactly like the
    /// collector's, so forward fates are identical with and without ack
    /// loss.
    ack_rng: SmallRng,
    ack_drop: f64,
    report: DeltaPlaneReport,
    staleness_sum: u64,
    staleness_ticks: u64,
}

impl<V: WirePayload + PartialEq> DeltaFrames<V> {
    fn new(
        config: &SketchConfig,
        master_seed: u64,
        spec: &ScenarioSpec,
        payload_at: fn(Tick) -> V,
        window_answer: fn(&RefereeOf<V>, Tick, Tick) -> f64,
    ) -> Self {
        DeltaFrames {
            parties: (0..spec.topology.parties)
                .map(|p| DeltaParty::new(p, config, master_seed))
                .collect(),
            payload_at,
            window_answer,
            config: *config,
            master_seed,
            ack_rng: SmallRng::seed_from_u64(spec.workload.seed ^ 0xACC0_ACC0_ACC0_ACC0),
            ack_drop: spec.faults.retry.ack_drop_probability.clamp(0.0, 1.0),
            report: DeltaPlaneReport::default(),
            staleness_sum: 0,
            staleness_ticks: 0,
        }
    }

    /// Route the referee's cumulative per-generation ack back to a
    /// party, subject to return-path loss.
    fn send_ack(&mut self, referee: &RefereeOf<V>, party: usize) {
        let Some(generation) = referee.acked_generation(party) else {
            return;
        };
        self.report.acks_sent += 1;
        if self.ack_drop > 0.0 && self.ack_rng.gen_bool(self.ack_drop) {
            self.report.acks_lost += 1;
            return;
        }
        self.parties[party].handle_ack(generation);
    }

    /// The always-on equivalence oracle: a fresh referee full-shipped
    /// each party's snapshot at its applied generation must produce
    /// canonical union bytes identical to the live union. `None` when
    /// some party has already pruned the needed snapshot (mid-resync
    /// window) — the check is skipped, not failed.
    fn live_union_matches_full_ship(&self, referee: &RefereeOf<V>) -> Option<bool> {
        let mut oracle: RefereeOf<V> = RefereeOf::new(&self.config, self.master_seed);
        for (p, dp) in self.parties.iter().enumerate() {
            let Some(generation) = referee.acked_generation(p) else {
                continue;
            };
            let snap = dp.snapshot_for(generation)?;
            let msg = PartyMessage {
                party_id: p,
                payload: encode_full_frame(snap, 1),
                items_observed: snap.items_observed(),
            };
            if !matches!(oracle.receive_frame(&msg), Ok(Receipt::Merged)) {
                return Some(false);
            }
        }
        Some(encode_sketch(oracle.union_sketch()) == encode_sketch(referee.union_sketch()))
    }
}

impl<V: WirePayload + PartialEq> ReportPlane for DeltaFrames<V> {
    type V = V;

    fn observe(&mut self, p: usize, labels: &[u64], t: Tick) {
        for &label in labels {
            self.parties[p].observe_with(label, (self.payload_at)(t));
        }
    }

    fn emit(&mut self, p: usize) -> PartyMessage {
        self.parties[p].emit_frame()
    }

    /// Per-frame `receive_frame`: applied frames admit and are acked,
    /// duplicates are re-acked (the original ack may be the thing that
    /// was lost), and resync notices drop the party's base.
    fn absorb(
        &mut self,
        referee: &mut RefereeOf<V>,
        deliveries: &[Delivery],
        ps: &mut [PartyRt],
        admission: &mut Admission,
    ) -> bool {
        let mut any_applied = false;
        for d in deliveries {
            let p = d.msg.party_id;
            match referee.receive_frame(&d.msg) {
                Ok(Receipt::Merged) => {
                    any_applied = true;
                    admission.admit(&mut ps[p], d);
                    self.send_ack(referee, p);
                }
                Ok(Receipt::Duplicate) => self.send_ack(referee, p),
                Ok(Receipt::NeedResync) => {
                    self.parties[p].handle_resync();
                    ps[p].needs_reemit = true;
                }
                // MergedVariant is unreachable on the frame path; corrupt
                // deliveries error out and are counted by referee
                // telemetry.
                Ok(Receipt::MergedVariant) | Err(_) => {}
            }
        }
        any_applied
    }

    fn window(&self, referee: &RefereeOf<V>, t: Tick, w: Tick) -> f64 {
        (self.window_answer)(referee, t, w)
    }

    fn after_tick(&mut self, referee: &RefereeOf<V>, applied: bool) {
        if !applied {
            return;
        }
        match self.live_union_matches_full_ship(referee) {
            Some(ok) => {
                self.report.oracle_checks += 1;
                self.report.oracle_failures += u64::from(!ok);
            }
            None => self.report.oracle_skipped += 1,
        }
    }

    fn on_query(&mut self, ps: &[PartyRt], t: Tick) {
        let worst = ps
            .iter()
            .filter(|rt| rt.sends > 0)
            .map(|rt| t.saturating_sub(rt.applied_emit_tick.unwrap_or(0)))
            .max()
            .unwrap_or(0);
        self.staleness_sum += worst;
        self.staleness_ticks += 1;
        self.report.staleness_max = self.report.staleness_max.max(worst);
    }

    fn finish(mut self, referee: &RefereeOf<V>) -> Option<DeltaPlaneReport> {
        let rt = referee.delta_telemetry();
        self.report.delta_frames = rt.delta_frames;
        self.report.full_frames = rt.full_frames;
        self.report.delta_bytes = rt.delta_bytes;
        self.report.full_bytes = rt.full_bytes;
        self.report.resyncs = rt.resyncs_requested;
        self.report.acked_generations = (0..self.parties.len())
            .map(|p| referee.acked_generation(p).unwrap_or(0))
            .collect();
        self.report.staleness_mean = ratio_or(self.staleness_sum, self.staleness_ticks, 0.0);
        Some(self.report)
    }
}

/// `num / den`, or `empty` when nothing was counted.
fn ratio_or(num: u64, den: u64, empty: f64) -> f64 {
    if den == 0 {
        empty
    } else {
        num as f64 / den as f64
    }
}

/// The base-rate multiplier at tick `t` (first matching phase wins).
fn multiplier_at(phases: &[LoadPhase], t: Tick) -> f64 {
    phases
        .iter()
        .find(|p| p.from <= t && t < p.until)
        .map_or(1.0, |p| p.rate_multiplier)
}

/// Run a sustained-load spec on the virtual clock, reporting the way
/// [`ScenarioSpec::reporting`] says.
///
/// Under [`ReportingMode::FullReship`] every report is the party's
/// whole cumulative summary and window queries merge party-side
/// sliding-window sketches. Under [`ReportingMode::DeltaPlane`] parties
/// ship delta frames, the referee maintains a live union with
/// per-generation acks (and resyncs) on the return path, and window
/// queries are answered **referee-side** (timestamps travel in the
/// frames as [`LatestTs`] payloads and reconcile by `max`) — so their
/// error includes the reporting staleness [`DeltaPlaneReport`] measures.
///
/// # Panics
/// Panics if the spec's load shape is not [`LoadShape::Sustained`], or
/// if the spec is invalid (see [`ScenarioBuilder::build`]).
pub fn run_sustained(config: &SketchConfig, master_seed: u64, spec: &ScenarioSpec) -> E2eReport {
    validate(spec);
    match spec.reporting {
        ReportingMode::FullReship => {
            let parties = spec.topology.parties;
            let windows = spec.queries.window.map_or(0, |_| parties);
            let plane = FullReship {
                sketches: (0..parties)
                    .map(|_| DistinctSketch::new(config, master_seed))
                    .collect(),
                windows: (0..windows)
                    .map(|_| SlidingWindowSketch::new(config, master_seed))
                    .collect(),
            };
            drive(config, master_seed, spec, plane)
        }
        ReportingMode::DeltaPlane if spec.queries.window.is_some() => {
            let plane =
                DeltaFrames::<LatestTs>::new(config, master_seed, spec, LatestTs, |r, t, w| {
                    r.query_distinct_since(t.saturating_sub(w).saturating_add(1))
                        .value
                });
            drive(config, master_seed, spec, plane)
        }
        ReportingMode::DeltaPlane => {
            let plane = DeltaFrames::<()>::new(config, master_seed, spec, |_| (), |_, _, _| 0.0);
            drive(config, master_seed, spec, plane)
        }
    }
}

/// Encode party `p`'s next report at tick `at` and remember it for
/// admission and retransmits.
fn emit_report<P: ReportPlane>(
    plane: &mut P,
    admission: &mut Admission,
    rt: &mut PartyRt,
    p: usize,
    at: Tick,
) -> PartyMessage {
    let msg = plane.emit(p);
    admission
        .encode_ticks
        .entry((p, payload_fingerprint(&msg.payload)))
        .or_insert(at);
    rt.last_report = Some((at, msg.clone()));
    rt.last_emitted_items = rt.generated;
    rt.needs_reemit = false;
    msg
}

/// The one virtual-clock loop behind [`run_sustained`].
fn drive<P: ReportPlane>(
    config: &SketchConfig,
    master_seed: u64,
    spec: &ScenarioSpec,
    mut plane: P,
) -> E2eReport {
    let wall_start = Instant::now();
    let LoadShape::Sustained {
        rate_per_party,
        duration,
        report_every,
        ref phases,
    } = spec.workload.load
    else {
        panic!("run_sustained requires LoadShape::Sustained");
    };
    let parties = spec.topology.parties;
    let report_every = report_every.max(1);
    let query_every = spec.queries.every.max(1);
    let wants_queries = spec.queries.distinct
        || spec.queries.window.is_some()
        || !spec.queries.expressions.is_empty()
        || !spec.queries.jaccard.is_empty();

    let wl = spec.workload.to_workload_spec(parties);
    let mut ps: Vec<PartyRt> = (0..parties)
        .map(|p| {
            let universe: Vec<u64> = wl.party_universe(p).collect();
            let zipf = match spec.workload.distribution {
                Distribution::Zipf(theta) if theta > 0.0 => {
                    Some(ZipfSampler::new(universe.len() as u64, theta))
                }
                _ => None,
            };
            PartyRt {
                rng: SmallRng::seed_from_u64(wl.seed ^ gt_hash::mix64(0x57EA_4000 + p as u64)),
                universe,
                zipf,
                each_once: spec.workload.distribution == Distribution::EachOnce,
                pending: VecDeque::new(),
                generated: 0,
                last_emitted_items: 0,
                last_report: None,
                applied_emit_tick: None,
                needs_reemit: false,
                joined_at: 0,
                leave_at: None,
                graceful: false,
                sends: 0,
            }
        })
        .collect();
    for ev in &spec.faults.churn {
        let rt = &mut ps[ev.party];
        match ev.kind {
            ChurnKind::Join => rt.joined_at = ev.at,
            ChurnKind::GracefulLeave | ChurnKind::Crash => {
                rt.leave_at = Some(ev.at);
                rt.graceful = ev.kind == ChurnKind::GracefulLeave;
            }
        }
    }

    let tspec = spec
        .faults
        .transport
        .unwrap_or_else(|| TransportSpec::reliable(wl.seed ^ 0x51AE));
    let mut transport = Transport::new(tspec);
    let mut referee: RefereeOf<P::V> = RefereeOf::new(config, master_seed);
    let mut admission = Admission::default();
    let mut seen_exact: HashSet<u64> = HashSet::new();
    let mut last_seen: HashMap<u64, Tick> = HashMap::new();
    let mut total_items = 0u64;
    let mut reports_sent = 0usize;
    let mut bytes_sent = 0u64;
    let mut gen_buf: Vec<u64> = Vec::new();
    let mut distinct_samples = Vec::new();
    let mut window_samples = Vec::new();
    let mut expression_samples = Vec::new();
    let mut jaccard_samples = Vec::new();

    for t in 1..=duration {
        // 1. Generation: every alive party draws its per-tick quota.
        for (p, rt) in ps.iter_mut().enumerate() {
            if !rt.generating(t) {
                continue;
            }
            let n = (rate_per_party as f64 * multiplier_at(phases, t)).round() as u64;
            if n == 0 {
                continue;
            }
            gen_buf.clear();
            for _ in 0..n {
                let label = rt.draw();
                rt.generated += 1;
                gen_buf.push(label);
            }
            plane.observe(p, &gen_buf, t);
            for &label in &gen_buf {
                seen_exact.insert(label);
                if spec.queries.window.is_some() {
                    last_seen.insert(label, t);
                }
            }
            rt.pending.push_back((t, n));
            total_items += n;
        }

        // 2. Reporting: cadence ticks, parting reports at graceful
        // leaves, the final flush at the end of the run, and forced
        // re-emits after a resync.
        for (p, rt) in ps.iter_mut().enumerate() {
            if !rt.can_send(t) {
                continue;
            }
            let parting = rt.leave_at == Some(t) && rt.graceful;
            if !(t % report_every == 0 || parting || t == duration) {
                continue;
            }
            if rt.generated == 0 || (rt.generated == rt.last_emitted_items && !rt.needs_reemit) {
                continue; // nothing new to report
            }
            let msg = emit_report(&mut plane, &mut admission, rt, p, t);
            rt.sends += 1;
            reports_sent += 1;
            bytes_sent += msg.bytes() as u64;
            transport.send(msg);
        }

        // 3. Delivery: advance the clock, feed the referee, account
        // admission→queryable latency.
        let deliveries = transport.advance(t);
        let applied = plane.absorb(&mut referee, &deliveries, &mut ps, &mut admission);
        plane.after_tick(&referee, applied);

        // 4. Live queries on the cadence.
        if wants_queries && t % query_every == 0 {
            plane.on_query(&ps, t);
            let expected = ps.iter().filter(|rt| rt.joined_at <= t).count();
            if spec.queries.distinct {
                let pe = referee.estimate_distinct_partial(expected);
                distinct_samples.push(DistinctSample {
                    at: t,
                    estimate: pe.estimate.value,
                    parties_heard: pe.parties_heard,
                    parties_expected: expected,
                    coverage: pe.coverage(),
                });
            }
            if let Some(w) = spec.queries.window {
                let truth = last_seen
                    .values()
                    .filter(|&&ts| ts <= t && ts + w > t)
                    .count() as u64;
                window_samples.push(WindowSample {
                    at: t,
                    window: w,
                    estimate: plane.window(&referee, t, w),
                    truth,
                });
            }
            for (i, expr) in spec.queries.expressions.iter().enumerate() {
                if let Ok(pe) = referee.query_partial(expr) {
                    expression_samples.push(ExpressionSample {
                        at: t,
                        query: i,
                        estimate: pe.estimate.estimate.value,
                        coverage: pe.coverage(),
                    });
                }
            }
            for (i, (e1, e2)) in spec.queries.jaccard.iter().enumerate() {
                if let Ok(pj) = referee.query_jaccard_partial(e1, e2) {
                    jaccard_samples.push(JaccardSample {
                        at: t,
                        pair: i,
                        jaccard: pj.estimate.jaccard,
                        coverage: pj.coverage(),
                    });
                }
            }
        }
    }

    // Final retransmit rounds: parties still up whose last report covers
    // unacked items resend it (or, after a resync, re-key with a fresh
    // full frame) under the retry budget with capped exponential
    // backoff, exactly like the collector's rounds.
    let mut retry_rounds = 0usize;
    let mut timeout = spec.faults.retry.initial_timeout.max(1);
    let timeout_cap = spec.faults.retry.max_timeout.max(timeout);
    loop {
        let needy: Vec<usize> = ps
            .iter()
            .enumerate()
            .filter(|(_, rt)| {
                rt.leave_at.is_none()
                    && ((rt.needs_reemit && !rt.pending.is_empty())
                        || matches!(
                            (&rt.last_report, rt.pending.front()),
                            (Some((enc, _)), Some(&(gen, _))) if gen <= *enc
                        ))
            })
            .map(|(p, _)| p)
            .collect();
        if needy.is_empty() || retry_rounds + 1 >= spec.faults.retry.max_attempts {
            break;
        }
        retry_rounds += 1;
        for p in needy {
            let rt = &mut ps[p];
            let msg = if rt.needs_reemit {
                emit_report(&mut plane, &mut admission, rt, p, transport.now())
            } else {
                rt.last_report.clone().expect("checked above").1
            };
            rt.sends += 1;
            bytes_sent += msg.bytes() as u64;
            transport.send(msg);
        }
        let deadline = transport.now().saturating_add(timeout);
        let deliveries = transport.advance(deadline);
        plane.absorb(&mut referee, &deliveries, &mut ps, &mut admission);
        timeout = timeout.saturating_mul(2).min(timeout_cap);
    }
    // At-least-once channels deliver late rather than never: drain the
    // stragglers still on the wire.
    let stragglers = transport.drain();
    plane.absorb(&mut referee, &stragglers, &mut ps, &mut admission);

    let senders = ps.iter().filter(|rt| rt.sends > 0).count();
    let heard = (0..parties).filter(|&p| referee.has_heard(p)).count();
    let party_coverage = ratio_or(heard as u64, senders as u64, 1.0);
    let item_coverage = ratio_or(admission.items_acked, total_items, 1.0);
    let final_estimate = referee.estimate_distinct().value;
    let truth = seen_exact.len() as u64;

    E2eReport {
        name: spec.name.clone(),
        parties,
        duration,
        total_items,
        items_acked: admission.items_acked,
        reports_sent,
        retry_rounds,
        latency: admission.hist,
        party_coverage,
        item_coverage,
        final_estimate,
        truth,
        relative_error: gt_core::relative_error(final_estimate, truth as f64),
        distinct_samples,
        window_samples,
        expression_samples,
        jaccard_samples,
        transport: transport.telemetry(),
        referee: *referee.telemetry(),
        union_canonical: encode_sketch(referee.union_sketch()),
        bytes_sent,
        delta: plane.finish(&referee),
        run_wall: wall_start.elapsed(),
    }
}

// ---------------------------------------------------------------------
// Named scenarios
// ---------------------------------------------------------------------

/// The six named end-to-end scenarios experiment `e23` runs. `quick`
/// shrinks durations for CI (each scenario well under 2 s); full mode
/// runs 10× longer with the same structure.
pub fn named_suite(quick: bool) -> Vec<ScenarioSpec> {
    vec![
        steady_state(quick),
        flash_crowd(quick),
        churn_failover(quick),
        multi_tenant_zipf(quick),
        lossy_fan_in(quick),
        windowed_recency(quick),
    ]
}

fn scale(quick: bool, base: Tick) -> Tick {
    if quick {
        base
    } else {
        base * 10
    }
}

/// 8 parties, uniform traffic, perfect channel: the baseline. Expected
/// coverage 1.0 exactly.
pub fn steady_state(quick: bool) -> ScenarioSpec {
    let d = scale(quick, 400);
    ScenarioSpec::builder("steady_state")
        .parties(8)
        .distinct_per_party(4_000)
        .overlap(0.3)
        .workload_seed(0x000E_2E01)
        .sustained(4, d, 20)
        .query_every(100)
        .query_distinct()
        .build()
}

/// Mid-run flash crowd: the per-party rate jumps 8× for a quarter of
/// the run, stressing summary cadence and latency tails.
pub fn flash_crowd(quick: bool) -> ScenarioSpec {
    let d = scale(quick, 400);
    ScenarioSpec::builder("flash_crowd")
        .parties(8)
        .distinct_per_party(4_000)
        .overlap(0.3)
        .workload_seed(0x000E_2E02)
        .sustained(3, d, 20)
        .phase(d / 2, d * 3 / 4, 8.0)
        .query_every(100)
        .query_distinct()
        .build()
}

/// Mid-run churn: one graceful leave (parting summary ships), one
/// crash (tail items lost), one late join.
pub fn churn_failover(quick: bool) -> ScenarioSpec {
    let d = scale(quick, 400);
    ScenarioSpec::builder("churn_failover")
        .parties(8)
        .distinct_per_party(4_000)
        .overlap(0.3)
        .workload_seed(0x000E_2E03)
        .sustained(4, d, 20)
        .graceful_leave(2, d * 3 / 8)
        .crash(3, d / 2)
        .join(7, d / 2)
        .query_every(100)
        .query_distinct()
        .build()
}

/// 16 tenants with Zipf(1.1) skew: heavy duplication per tenant, the
/// regime where distinct counting diverges from counting.
pub fn multi_tenant_zipf(quick: bool) -> ScenarioSpec {
    let d = scale(quick, 300);
    ScenarioSpec::builder("multi_tenant_zipf")
        .parties(16)
        .distinct_per_party(2_000)
        .overlap(0.2)
        .distribution(Distribution::Zipf(1.1))
        .workload_seed(0x000E_2E04)
        .sustained(3, d, 25)
        .query_every(100)
        .query_distinct()
        .build()
}

/// 32-party fan-in over a 5%-drop channel with stragglers and a retry
/// budget of 8 — the ISSUE's network-monitoring headline shape.
pub fn lossy_fan_in(quick: bool) -> ScenarioSpec {
    let d = scale(quick, 300);
    ScenarioSpec::builder("lossy_fan_in")
        .parties(32)
        .distinct_per_party(2_000)
        .overlap(0.25)
        .workload_seed(0x000E_2E05)
        .sustained(2, d, 25)
        .transport(TransportSpec {
            drop_probability: 0.05,
            corrupt_probability: 0.01,
            base_latency: 2,
            jitter: 3,
            straggle_probability: 0.05,
            straggle_latency: 40,
            seed: 0x000E_2E05,
        })
        .retry(RetryPolicy::with_budget(8))
        .query_every(100)
        .query_distinct()
        .build()
}

/// Sliding-window recency queries over sustained traffic, scored
/// against the engine's exact recency oracle.
pub fn windowed_recency(quick: bool) -> ScenarioSpec {
    let d = scale(quick, 400);
    ScenarioSpec::builder("windowed_recency")
        .parties(6)
        .distinct_per_party(3_000)
        .overlap(0.3)
        .workload_seed(0x000E_2E06)
        .sustained(4, d, 20)
        .query_every(50)
        .query_distinct()
        .query_window(100)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SendFate;

    fn cfg() -> SketchConfig {
        SketchConfig::new(0.1, 0.1).unwrap()
    }

    fn small_sustained() -> ScenarioSpec {
        ScenarioSpec::builder("small")
            .parties(4)
            .distinct_per_party(500)
            .overlap(0.25)
            .workload_seed(7)
            .sustained(3, 60, 10)
            .query_every(20)
            .query_distinct()
            .build()
    }

    #[test]
    fn sustained_reliable_run_acks_everything() {
        let report = run_sustained(&cfg(), 42, &small_sustained());
        assert_eq!(report.parties, 4);
        assert_eq!(report.duration, 60);
        assert_eq!(report.total_items, 4 * 3 * 60);
        assert_eq!(report.items_acked, report.total_items);
        assert_eq!(report.item_coverage, 1.0);
        assert_eq!(report.party_coverage, 1.0);
        assert!(report.reports_sent >= 4 * 6, "cumulative summary cadence");
        assert_eq!(report.retry_rounds, 0, "reliable channel needs no retries");
        assert_eq!(report.latency.count(), report.total_items);
        // Unit latency, report cadence 10: worst case an item waits 9
        // ticks for the next summary + 1 tick of transport.
        assert!(report.latency.p50() <= 10, "p50 {}", report.latency.p50());
        assert!(report.latency.max() <= 10, "max {}", report.latency.max());
        assert!(report.latency.p50() <= report.latency.p99());
        assert!(report.latency.p99() <= report.latency.p999());
        assert!(!report.distinct_samples.is_empty());
        let last = report.distinct_samples.last().unwrap();
        assert_eq!(last.parties_expected, 4);
        assert!(report.truth > 0);
        assert!(
            report.relative_error < 0.1,
            "err {} (estimate {} truth {})",
            report.relative_error,
            report.final_estimate,
            report.truth
        );
        assert!(!report.union_canonical.is_empty());
    }

    #[test]
    fn sustained_run_is_deterministic() {
        let a = run_sustained(&cfg(), 42, &small_sustained());
        let b = run_sustained(&cfg(), 42, &small_sustained());
        assert_eq!(a.determinism_key(), b.determinism_key());
        let c = run_sustained(&cfg(), 43, &small_sustained());
        assert_ne!(
            a.determinism_key().union_canonical,
            c.determinism_key().union_canonical,
            "different master seed must change the union bytes"
        );
    }

    #[test]
    fn flash_crowd_phase_multiplies_rate() {
        let base = ScenarioSpec::builder("base")
            .parties(2)
            .distinct_per_party(300)
            .workload_seed(3)
            .sustained(2, 40, 10)
            .build();
        let crowd = ScenarioSpec::builder("crowd")
            .parties(2)
            .distinct_per_party(300)
            .workload_seed(3)
            .sustained(2, 40, 10)
            .phase(20, 30, 5.0)
            .build();
        let r_base = run_sustained(&cfg(), 1, &base);
        let r_crowd = run_sustained(&cfg(), 1, &crowd);
        // 10 ticks at 5x instead of 1x: 2 parties * 2 rate * 10 * 4 extra.
        assert_eq!(r_base.total_items, 2 * 2 * 40);
        assert_eq!(r_crowd.total_items, r_base.total_items + 2 * 2 * 10 * 4);
        assert_eq!(r_crowd.item_coverage, 1.0);
    }

    #[test]
    fn churn_crash_loses_tail_items_exactly_once() {
        // Party 1 crashes mid-run right after a report tick: items it
        // generated after its last summary can never be acked, and its
        // last acked summary still counts exactly once.
        let spec = ScenarioSpec::builder("crash")
            .parties(2)
            .distinct_per_party(400)
            .workload_seed(9)
            .sustained(2, 40, 10)
            .crash(1, 35)
            .query_every(10)
            .query_distinct()
            .build();
        let report = run_sustained(&cfg(), 5, &spec);
        // Party 1 generated through tick 34; its last summary covered
        // through tick 30, so ticks 31..=34 (2 items each) are lost.
        assert_eq!(report.total_items, 2 * 2 * 40 - 2 * 6);
        assert_eq!(report.items_acked, report.total_items - 2 * 4);
        assert!(report.item_coverage < 1.0);
        assert_eq!(report.party_coverage, 1.0, "the crashed party was heard");
        let t = report.referee;
        assert_eq!(t.accepted, 2, "each party counted exactly once");
    }

    #[test]
    fn churn_join_starts_late() {
        let spec = ScenarioSpec::builder("join")
            .parties(2)
            .distinct_per_party(300)
            .workload_seed(11)
            .sustained(2, 40, 10)
            .join(1, 21)
            .build();
        let report = run_sustained(&cfg(), 5, &spec);
        // Party 0: 40 ticks; party 1: ticks 21..=40 only.
        assert_eq!(report.total_items, 2 * 40 + 2 * 20);
        assert_eq!(report.item_coverage, 1.0);
    }

    #[test]
    fn graceful_leave_ships_parting_summary() {
        // Leave at a tick that is NOT on the report cadence: without the
        // parting summary the tail would be lost.
        let spec = ScenarioSpec::builder("leave")
            .parties(2)
            .distinct_per_party(300)
            .workload_seed(13)
            .sustained(2, 40, 10)
            .graceful_leave(1, 27)
            .build();
        let report = run_sustained(&cfg(), 5, &spec);
        // Party 1 generates ticks 1..=26 and flushes at 27.
        assert_eq!(report.total_items, 2 * 40 + 2 * 26);
        assert_eq!(report.item_coverage, 1.0, "parting summary covers the tail");
    }

    #[test]
    fn lossy_channel_retries_recover_coverage() {
        let lossy = TransportSpec {
            jitter: 0,
            straggle_probability: 0.0,
            ..TransportSpec::lossy(0.4, 0x1055)
        };
        let build = |retry: RetryPolicy| {
            ScenarioSpec::builder("lossy")
                .parties(6)
                .distinct_per_party(400)
                .workload_seed(17)
                .sustained(2, 60, 15)
                .transport(lossy)
                .retry(retry)
                .build()
        };
        let one_shot = run_sustained(&cfg(), 3, &build(RetryPolicy::one_shot()));
        let retried = run_sustained(&cfg(), 3, &build(RetryPolicy::with_budget(8)));
        assert!(one_shot.transport.dropped > 0, "p=0.4 must drop summaries");
        assert!(
            retried.item_coverage >= one_shot.item_coverage,
            "retries cannot reduce coverage"
        );
        assert_eq!(
            retried.item_coverage, 1.0,
            "budget 8 at p=0.4 recovers the final summaries"
        );
        assert!(retried.retry_rounds > 0 || one_shot.item_coverage == 1.0);
    }

    #[test]
    fn window_queries_track_the_exact_recency_oracle() {
        let spec = ScenarioSpec::builder("window")
            .parties(3)
            .distinct_per_party(500)
            .workload_seed(19)
            .sustained(4, 80, 10)
            .query_every(20)
            .query_window(30)
            .build();
        let report = run_sustained(&cfg(), 7, &spec);
        assert!(!report.window_samples.is_empty());
        for s in &report.window_samples {
            assert_eq!(s.window, 30);
            assert!(s.truth > 0, "traffic flowed in every window");
            let err = (s.estimate - s.truth as f64).abs() / s.truth as f64;
            assert!(
                err < 0.25,
                "tick {}: est {} truth {}",
                s.at,
                s.estimate,
                s.truth
            );
        }
    }

    #[test]
    fn expression_and_jaccard_samples_report_coverage() {
        let spec = ScenarioSpec::builder("expr")
            .parties(3)
            .distinct_per_party(400)
            .overlap(0.5)
            .workload_seed(23)
            .sustained(3, 60, 10)
            .query_every(30)
            .query_expr(SetExpr::leaf(0).union(SetExpr::leaf(1)))
            .query_jaccard(SetExpr::leaf(0), SetExpr::leaf(2))
            .build();
        let report = run_sustained(&cfg(), 9, &spec);
        assert!(!report.expression_samples.is_empty());
        assert!(!report.jaccard_samples.is_empty());
        let last_e = report.expression_samples.last().unwrap();
        assert_eq!(last_e.coverage, 1.0);
        assert!(last_e.estimate > 0.0);
        let last_j = report.jaccard_samples.last().unwrap();
        assert_eq!(last_j.coverage, 1.0);
        assert!(last_j.jaccard > 0.0 && last_j.jaccard < 1.0);
    }

    #[test]
    fn latency_histogram_quantiles() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.p50(), 0);
        h.record(1, 50);
        h.record(2, 49);
        h.record(100, 1);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p99(), 2);
        assert_eq!(h.p999(), 100);
        assert_eq!(h.max(), 100);
        assert!(h.mean() > 1.0 && h.mean() < 3.0);
        // Clamp: huge latencies land in the overflow bucket.
        h.record(1 << 40, 1);
        assert_eq!(h.max(), 1 << 40);
        assert_eq!(h.quantile(1.0), LATENCY_CLAMP);
    }

    #[test]
    fn dispatch_routes_by_spec_shape() {
        let config = cfg();
        let classic = ScenarioSpec::builder("c").parties(2).batch(500).build();
        assert!(matches!(
            run_spec(&config, 1, &classic),
            ScenarioOutcome::Classic(_)
        ));
        let resilient = ScenarioSpec::builder("r")
            .parties(2)
            .batch(500)
            .transport(TransportSpec::reliable(1))
            .build();
        assert!(matches!(
            run_spec(&config, 1, &resilient),
            ScenarioOutcome::Resilient(_)
        ));
        let expr = ScenarioSpec::builder("e")
            .parties(2)
            .batch(500)
            .query_expr(SetExpr::leaf(0))
            .build();
        assert!(matches!(
            run_spec(&config, 1, &expr),
            ScenarioOutcome::Expression(_)
        ));
        let live = ScenarioSpec::builder("l")
            .parties(2)
            .batch(500)
            .ingest(IngestMode::SharedConcurrent {
                writer_threshold: 100,
            })
            .build();
        assert!(matches!(
            run_spec(&config, 1, &live),
            ScenarioOutcome::Live(_)
        ));
        let sustained = ScenarioSpec::builder("s")
            .parties(2)
            .sustained(2, 20, 5)
            .build();
        assert!(matches!(
            run_spec(&config, 1, &sustained),
            ScenarioOutcome::Sustained(_)
        ));
    }

    #[test]
    fn sequential_ingest_matches_threaded_state() {
        let spec = ScenarioSpec::builder("seq")
            .parties(4)
            .distinct_per_party(2_000)
            .batch(5_000)
            .ingest(IngestMode::Sequential)
            .build();
        let config = cfg();
        let streams = spec.workload.to_workload_spec(4).generate();
        let seq = run_classic_engine(&config, 3, &streams, IngestMode::Sequential);
        let thr = run_classic_engine(&config, 3, &streams, IngestMode::PerPartyThreads);
        assert_eq!(seq.estimate, thr.estimate);
        assert_eq!(seq.truth, thr.truth);
        assert_eq!(seq.total_bytes, thr.total_bytes);
        assert_eq!(
            seq.referee_telemetry.accepted,
            thr.referee_telemetry.accepted
        );
        // Sequential mode is one batch, always.
        assert_eq!(seq.referee_telemetry.batches, 1);
    }

    #[test]
    fn named_suite_has_six_distinct_scenarios() {
        let suite = named_suite(true);
        assert_eq!(suite.len(), 6);
        let mut names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6, "scenario names must be unique");
        for spec in &suite {
            assert!(matches!(spec.workload.load, LoadShape::Sustained { .. }));
            assert!(spec.queries.distinct, "every scenario samples distinct");
        }
    }

    #[test]
    #[should_panic(expected = "phase() requires sustained load")]
    fn phase_on_batch_load_panics() {
        let _ = ScenarioSpec::builder("bad").phase(0, 10, 2.0);
    }

    #[test]
    #[should_panic(expected = "churn event references party")]
    fn churn_out_of_range_panics() {
        let _ = ScenarioSpec::builder("bad").parties(2).crash(5, 10).build();
    }

    // ---- specs no engine can honour in full are refused ----

    fn batch_with_expr() -> ScenarioBuilder {
        ScenarioSpec::builder("bad")
            .parties(2)
            .batch(100)
            .query_expr(SetExpr::leaf(0))
    }

    fn batch_with_jaccard() -> ScenarioBuilder {
        ScenarioSpec::builder("bad")
            .parties(2)
            .batch(100)
            .query_jaccard(SetExpr::leaf(0), SetExpr::leaf(1))
    }

    const CONCURRENT: IngestMode = IngestMode::SharedConcurrent {
        writer_threshold: 10,
    };

    #[test]
    #[should_panic(expected = "batch engines are exclusive")]
    fn expression_queries_with_a_transport_panic() {
        let _ = batch_with_expr()
            .transport(TransportSpec::reliable(1))
            .build();
    }

    #[test]
    #[should_panic(expected = "batch engines are exclusive")]
    fn expression_queries_with_concurrent_ingest_panic() {
        let _ = batch_with_expr().ingest(CONCURRENT).build();
    }

    #[test]
    #[should_panic(expected = "batch engines are exclusive")]
    fn expression_queries_with_a_tree_depth_panic() {
        let _ = batch_with_expr().tree_depth(2).build();
    }

    #[test]
    #[should_panic(expected = "batch engines are exclusive")]
    fn jaccard_queries_with_a_transport_panic() {
        let _ = batch_with_jaccard()
            .transport(TransportSpec::reliable(1))
            .build();
    }

    #[test]
    #[should_panic(expected = "batch engines are exclusive")]
    fn jaccard_queries_with_concurrent_ingest_panic() {
        let _ = batch_with_jaccard().ingest(CONCURRENT).build();
    }

    #[test]
    #[should_panic(expected = "batch engines are exclusive")]
    fn jaccard_queries_with_a_tree_depth_panic() {
        let _ = batch_with_jaccard().tree_depth(2).build();
    }

    #[test]
    #[should_panic(expected = "batch engines are exclusive")]
    fn tree_depth_with_a_transport_panics() {
        let _ = ScenarioSpec::builder("bad")
            .tree_depth(2)
            .transport(TransportSpec::reliable(1))
            .build();
    }

    #[test]
    #[should_panic(expected = "batch engines are exclusive")]
    fn tree_depth_with_concurrent_ingest_panics() {
        let _ = ScenarioSpec::builder("bad")
            .tree_depth(2)
            .ingest(CONCURRENT)
            .build();
    }

    #[test]
    #[should_panic(expected = "batch engines are exclusive")]
    fn concurrent_ingest_with_a_transport_panics() {
        let _ = ScenarioSpec::builder("bad")
            .ingest(CONCURRENT)
            .transport(TransportSpec::reliable(1))
            .build();
    }

    #[test]
    #[should_panic(expected = "tree depth applies to batch load only")]
    fn tree_depth_on_sustained_load_panics() {
        let _ = ScenarioSpec::builder("bad")
            .sustained(1, 10, 5)
            .tree_depth(2)
            .build();
    }

    #[test]
    #[should_panic(expected = "window queries need sustained load")]
    fn window_query_on_batch_load_panics() {
        let _ = ScenarioSpec::builder("bad").query_window(10).build();
    }

    #[test]
    #[should_panic(expected = "window queries need sustained load")]
    fn dispatch_refuses_a_spec_that_skipped_the_builder() {
        let mut spec = ScenarioSpec::builder("bad").parties(2).batch(100).build();
        spec.queries.window = Some(10);
        let _ = run_spec(&cfg(), 1, &spec);
    }

    // ---- delta-plane reporting mode ----

    fn delta_spec() -> ScenarioSpec {
        ScenarioSpec::builder("delta_small")
            .parties(4)
            .distinct_per_party(500)
            .overlap(0.25)
            .workload_seed(7)
            .sustained(3, 60, 10)
            .query_every(20)
            .query_distinct()
            .delta_plane()
            .build()
    }

    #[test]
    fn delta_plane_matches_full_reship_union_and_cuts_bytes() {
        let full = run_sustained(&cfg(), 42, &small_sustained());
        let delta = run_sustained(&cfg(), 42, &delta_spec());
        // Same workload seed, both at full coverage: the final unions
        // hold the same samples at the same levels, so the estimates are
        // bit-for-bit equal. (Canonical bytes differ only in per-trial
        // item counters: the classic engine absorb-merges every cumulative
        // re-ship while the delta plane stays exactly-once; the engine's
        // built-in oracle covers the bitwise claim against a fresh ship.)
        assert_eq!(delta.item_coverage, 1.0);
        assert_eq!(
            delta.final_estimate.to_bits(),
            full.final_estimate.to_bits()
        );
        assert_eq!(delta.truth, full.truth);
        let d = delta.delta.as_ref().expect("delta engine reports stats");
        assert_eq!(d.oracle_failures, 0);
        assert!(d.oracle_checks > 0, "the oracle must actually run");
        assert_eq!(d.resyncs, 0, "reliable channel never resyncs");
        assert_eq!(d.full_frames, 4, "one initial full frame per party");
        assert!(d.delta_frames > 0);
        // The communication claim, in miniature: shipping deltas beats
        // re-shipping cumulative summaries on the same traffic.
        assert!(
            delta.bytes_sent < full.bytes_sent,
            "delta {} full {}",
            delta.bytes_sent,
            full.bytes_sent
        );
    }

    #[test]
    fn delta_plane_is_deterministic_under_faults() {
        let spec = ScenarioSpec::builder("delta_faulty")
            .parties(4)
            .distinct_per_party(400)
            .overlap(0.2)
            .workload_seed(11)
            .sustained(3, 80, 10)
            .transport(TransportSpec::lossy(0.2, 0xFA17))
            .retry(RetryPolicy {
                ack_drop_probability: 0.2,
                ..RetryPolicy::with_budget(6)
            })
            .query_every(20)
            .query_distinct()
            .delta_plane()
            .build();
        let a = run_sustained(&cfg(), 42, &spec);
        let b = run_sustained(&cfg(), 42, &spec);
        assert_eq!(a.determinism_key(), b.determinism_key());
        let d = a.delta.as_ref().unwrap();
        assert_eq!(d.oracle_failures, 0, "dup/reorder/loss must not corrupt");
        assert!(d.acks_sent > 0);
    }

    #[test]
    fn delta_plane_windowed_queries_answer_from_the_referee() {
        // Under-capacity and cadence-aligned: at every query tick the
        // referee has just applied fresh frames, so the distributed
        // window answer is exact.
        let spec = ScenarioSpec::builder("delta_window")
            .parties(2)
            .distinct_per_party(150)
            .overlap(0.0)
            .distribution(Distribution::EachOnce)
            .workload_seed(3)
            .sustained(5, 40, 4)
            .query_every(4)
            .query_window(8)
            .build();
        let spec = ScenarioSpec {
            reporting: ReportingMode::DeltaPlane,
            ..spec
        };
        let report = run_sustained(&cfg(), 42, &spec);
        assert!(!report.window_samples.is_empty());
        for s in &report.window_samples {
            assert_eq!(
                s.estimate, s.truth as f64,
                "window at {} estimate {} truth {}",
                s.at, s.estimate, s.truth
            );
        }
        let d = report.delta.as_ref().unwrap();
        assert_eq!(d.oracle_failures, 0);
        assert_eq!(d.staleness_max, 0, "cadence-aligned queries are fresh");
    }

    #[test]
    fn run_spec_dispatches_delta_plane() {
        match run_spec(&cfg(), 42, &delta_spec()) {
            ScenarioOutcome::Sustained(r) => {
                assert!(r.delta.is_some(), "delta plane must report its stats")
            }
            other => panic!("expected sustained outcome, got {other:?}"),
        }
    }

    // ---- the paper's one-shot model over a faulty channel ----
    //
    // The resilient engine with `RetryPolicy::one_shot()` is the paper's
    // one-message-per-party model under loss and corruption. Corruption
    // is detected, never absorbed; loss degrades the answer predictably
    // (the estimate still covers the received union).

    fn faulty_workload() -> WorkloadSpec {
        WorkloadSpec {
            parties: 10,
            distinct_per_party: 3_000,
            overlap: 0.3,
            items_per_party: 9_000,
            distribution: Distribution::Uniform,
            seed: 0xFA17,
        }
    }

    /// One message per party over a unit-latency channel with the given
    /// drop and corruption rates (ε=0.1, δ=0.05, master seed 7).
    fn one_shot(streams: &StreamSet, drop: f64, corrupt: f64, seed: u64) -> ResilientReport {
        let spec = ScenarioSpec::builder("one_shot")
            .from_workload(&streams.spec)
            .transport(TransportSpec {
                drop_probability: drop,
                corrupt_probability: corrupt,
                base_latency: 1,
                jitter: 0,
                straggle_probability: 0.0,
                straggle_latency: 0,
                seed,
            })
            .retry(RetryPolicy::one_shot())
            .build();
        let config = SketchConfig::new(0.1, 0.05).unwrap();
        match run_spec_on(&config, 7, &spec, Some(streams)) {
            ScenarioOutcome::Resilient(report) => report,
            other => panic!("expected a resilient outcome, got {other:?}"),
        }
    }

    /// Per-party fates `(delivered, dropped, rejected)`, scanned from the
    /// channel's per-attempt record.
    fn scanned_fates(r: &ResilientReport) -> (usize, usize, usize) {
        let per_party = &r.collection.per_party;
        let delivered = r.collection.parties_acked();
        let dropped = per_party
            .iter()
            .filter(|p| p.acked_at.is_none() && p.last_fate == Some(SendFate::Dropped))
            .count();
        (delivered, dropped, per_party.len() - delivered - dropped)
    }

    /// Fate counts from their authorities: accepts and rejects from the
    /// referee telemetry, drops from the channel telemetry.
    fn authority_fates(r: &ResilientReport) -> (usize, usize, usize) {
        let c = &r.collection;
        (
            c.referee.accepted,
            c.transport.dropped,
            c.referee.rejected(),
        )
    }

    #[test]
    fn no_faults_is_the_clean_scenario() {
        let r = one_shot(&faulty_workload().generate(), 0.0, 0.0, 1);
        assert_eq!(r.collection.parties_acked(), 10);
        assert_eq!(r.union_completeness(), 1.0);
        assert_eq!(r.received_truth, r.full_truth);
        assert!(r.error_vs_received < 0.1);
    }

    #[test]
    fn drops_degrade_predictably() {
        let r = one_shot(&faulty_workload().generate(), 0.4, 0.0, 2);
        assert!(scanned_fates(&r).1 > 0, "seed should drop someone");
        // The estimate still honors the contract w.r.t. what arrived...
        assert!(r.error_vs_received < 0.1, "err {}", r.error_vs_received);
        // ...and the shortfall is real but bounded by the private shares.
        assert!(r.union_completeness() < 1.0);
        assert!(r.received_truth < r.full_truth);
    }

    #[test]
    fn corruption_is_detected_not_absorbed() {
        let r = one_shot(&faulty_workload().generate(), 0.0, 1.0, 3);
        let rejected = scanned_fates(&r).2;
        // Almost every flip lands in validated content; a rare flip in the
        // items-observed varint is benign and delivered.
        assert!(rejected >= 8, "rejected only {rejected}/10");
        assert!(r.error_vs_received < 0.1);
    }

    #[test]
    fn all_messages_lost_yields_zero_estimate() {
        let r = one_shot(&faulty_workload().generate(), 1.0, 0.0, 4);
        assert_eq!(r.partial.estimate.value, 0.0);
        assert_eq!(r.received_truth, 0);
        assert_eq!(r.union_completeness(), 0.0);
        assert_eq!(r.error_vs_received, 0.0);
        assert_eq!(r.collection.transport.dropped, 10);
    }

    #[test]
    fn fate_counts_come_from_their_authorities() {
        let r = one_shot(&faulty_workload().generate(), 0.3, 0.5, 6);
        // Authority-derived counts must agree with the per-party fates
        // the channel recorded (not `parties - attempts`, which miscounts
        // the moment a party is attempted more than once).
        let (delivered, dropped, rejected) = authority_fates(&r);
        assert_eq!((delivered, dropped, rejected), scanned_fates(&r));
        assert_eq!(delivered + dropped + rejected, 10);
    }

    #[test]
    fn empty_stream_party_survives_corruption() {
        // Regression: the corruption injector used `gen_range(4..len)`,
        // which panics when a message has nothing past the magic word.
        // An empty-stream party sends the smallest legitimate message;
        // force it through the corrupt path with every seed position.
        let streams = StreamSet {
            streams: vec![Vec::new(), (0..100).map(gt_hash::fold61).collect()],
            spec: WorkloadSpec {
                parties: 2,
                distinct_per_party: 100,
                overlap: 0.0,
                items_per_party: 100,
                distribution: Distribution::Uniform,
                seed: 0,
            },
        };
        for seed in 0..16 {
            let r = one_shot(&streams, 0.0, 1.0, seed);
            assert_eq!(r.collection.per_party.len(), 2);
            // However the flips land, accounting must stay consistent.
            let (delivered, _, rejected) = authority_fates(&r);
            assert_eq!(delivered + rejected, 2);
        }
    }

    #[test]
    fn fault_decisions_are_deterministic_per_seed() {
        let streams = faulty_workload().generate();
        let a = one_shot(&streams, 0.3, 0.3, 5);
        let b = one_shot(&streams, 0.3, 0.3, 5);
        assert_eq!(scanned_fates(&a), scanned_fates(&b));
        let fates = |r: &ResilientReport| -> Vec<_> {
            r.collection
                .per_party
                .iter()
                .map(|p| (p.acked_at.is_some(), p.last_fate))
                .collect()
        };
        assert_eq!(fates(&a), fates(&b));
        assert_eq!(a.partial.estimate.value, b.partial.estimate.value);
    }

    // ---- tree-depth knob ----

    #[test]
    fn tree_fanout_derivation_is_exact() {
        assert_eq!(tree_fanout_for_depth(9, 2), 3);
        assert_eq!(tree_fanout_for_depth(4, 2), 2);
        assert_eq!(tree_fanout_for_depth(8, 3), 2);
        assert_eq!(tree_fanout_for_depth(27, 3), 3);
        assert_eq!(tree_fanout_for_depth(5, 1), 5);
        assert_eq!(tree_fanout_for_depth(2, 4), 2);
    }

    #[test]
    fn depth_two_tree_union_is_bitwise_identical_to_flat() {
        let config = cfg();
        let wl = WorkloadSpec {
            parties: 9,
            distinct_per_party: 600,
            overlap: 0.3,
            items_per_party: 2_000,
            distribution: Distribution::Uniform,
            seed: 5,
        };
        let streams = wl.generate();
        // Flat union at a single referee.
        let mut referee = Referee::new(&config, 42);
        let mut messages = Vec::new();
        for (id, stream) in streams.streams.iter().enumerate() {
            let mut party = Party::new(id, &config, 42);
            party.observe_stream(stream);
            let msg = party.finish();
            messages.push(msg.clone());
            referee.receive(&msg).unwrap();
        }
        let flat = encode_sketch(referee.union_sketch());
        // Depth-2 tree over the same messages, same seed.
        let fanout = tree_fanout_for_depth(9, 2);
        let tree = crate::topology::aggregate_tree(&config, 42, messages, fanout).unwrap();
        assert_eq!(tree.tiers, 2);
        assert_eq!(tree.root_canonical, flat, "tree reassociation is lossless");
    }

    #[test]
    fn tree_depth_spec_matches_flat_classic_run() {
        let base = ScenarioSpec::builder("flat")
            .parties(6)
            .ingest(IngestMode::Sequential)
            .distinct_per_party(400)
            .overlap(0.25)
            .workload_seed(9)
            .batch(1_500)
            .build();
        let tree = ScenarioSpec::builder("tree")
            .parties(6)
            .ingest(IngestMode::Sequential)
            .tree_depth(2)
            .distinct_per_party(400)
            .overlap(0.25)
            .workload_seed(9)
            .batch(1_500)
            .build();
        let (flat_rep, tree_rep) = match (run_spec(&cfg(), 42, &base), run_spec(&cfg(), 42, &tree))
        {
            (ScenarioOutcome::Classic(a), ScenarioOutcome::Classic(b)) => (a, b),
            other => panic!("expected classic outcomes, got {other:?}"),
        };
        assert_eq!(flat_rep.estimate.to_bits(), tree_rep.estimate.to_bits());
        assert_eq!(flat_rep.truth, tree_rep.truth);
    }
}
