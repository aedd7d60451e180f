//! Verification telemetry: spans, counters, and JSONL traces.
//!
//! The paper's Table 1 is a story of measured engine effort — per-case BDD
//! node counts, SAT conflicts, and runtimes across 585 cases. This module is
//! the measurement substrate: a [`Tracer`] hands out hierarchical spans
//! (run → case → engine-stage → operation), each carrying the counters of
//! its own work, and streams everything as JSONL events through a pluggable
//! [`TraceSink`]. Every counter is recorded on exactly one span; the
//! [`TraceEvent::Totals`] event is the fold of all closed spans.
//! [`crate::report`] is the Table-1 fold over the results themselves.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled collection is near-zero cost.** [`Tracer::disabled`] is an
//!    `Option::None` wrapper: creating a span is a null check, recording on
//!    it is a branch, and span names are built lazily (closures) so the
//!    `format!` never runs. The engines themselves stay tracer-free — they
//!    count locally into their existing stats structs (`BddStats`,
//!    `SolverStats`, `SweepResult`) and the scheduler records those on the
//!    attempt's `stage` span.
//! 2. **No contention on the hot path.** A span accumulates its counters
//!    privately; closing it takes the totals lock once, next to the sink
//!    write that takes its own lock anyway.
//! 3. **No external dependencies.** Events render through the hand-rolled
//!    [`crate::json`] module; crates.io is unreachable in the build
//!    environment.
//!
//! Spans parent explicitly by ID rather than through thread-local ambient
//! context: the scheduler hands a case to whichever worker steals it, so the
//! parent (the run span) lives on a different thread than the child.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::error::Error;
use crate::json::{JsonValue, ToJson};

/// Every counter the instrumented subsystems report.
///
/// A counter is recorded on the one span whose work it measures; the
/// declaration order is the order counters appear in a [`MetricSet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// BDD manager: recursive apply calls (`ite`, `constrain`, `restrict`).
    BddIteCalls,
    /// BDD manager: computed-table hits.
    BddCacheHits,
    /// BDD manager: computed-table misses.
    BddCacheMisses,
    /// BDD manager: nodes created (survives GC, unlike the live count).
    BddNodesAllocated,
    /// BDD manager: peak live nodes observed across attempts (reported as a
    /// high-water mark, merged with `max` rather than `+` in summaries).
    BddPeakLiveNodes,
    /// BDD manager: garbage collections.
    BddGcRuns,
    /// BDD manager: computed-cache entries overwritten by a colliding store
    /// (the direct-mapped cache is lossy; this counts its replacement
    /// pressure).
    BddCacheEvictions,
    /// BDD manager: unique-table probe steps beyond the home slot (linear
    /// probing; 0 extra probes means every lookup hit its hash bucket).
    BddUniqueProbes,
    /// BDD manager: arena nodes freed by garbage collections.
    BddGcFreed,
    /// BDD manager: computed-cache slots occupied at snapshot time (reported
    /// as a high-water mark, merged with `max` rather than `+`).
    BddCacheOccupancy,
    /// SAT solver: decisions.
    SatDecisions,
    /// SAT solver: unit propagations.
    SatPropagations,
    /// SAT solver: conflicts.
    SatConflicts,
    /// SAT solver: restarts.
    SatRestarts,
    /// Netlist sweeping: nodes merged as proven equivalent.
    SweepMerges,
    /// Netlist sweeping: SAT equivalence queries issued.
    SweepSatCalls,
    /// Netlist sweeping: simulation rounds (seed + refinement).
    SweepSimRounds,
    /// Scheduler: cases a worker stole from a neighbour's queue.
    SchedSteals,
    /// Scheduler: escalations to the next engine rung in the policy ladder.
    SchedEscalations,
    /// Scheduler: cases completed.
    SchedCasesCompleted,
    /// Scheduler: total time cases spent queued before pickup, in
    /// microseconds.
    SchedQueueLatencyMicros,
    /// Proof cache: cases replayed from a cached verdict instead of running
    /// an engine.
    CacheHits,
    /// Proof cache: cases whose fingerprint was not in the cache (engines
    /// ran).
    CacheMisses,
    /// Proof cache: fresh verdicts written back to the cache.
    CacheStores,
    /// Mutation campaign: mutants verified (killed + survived + uncovered
    /// + budget).
    CampaignMutants,
    /// Mutation campaign: mutants killed by a replay-confirmed
    /// counterexample.
    CampaignKilled,
    /// Mutation campaign: mutants whose witness's cases all held — the
    /// engine missed a concrete counterexample.
    CampaignSurvived,
    /// Mutation campaign: mutants whose witness lies in no case — the case
    /// split misses an input.
    CampaignUncovered,
    /// Mutation campaign: mutants left undecided by engine budgets.
    CampaignBudgetExceeded,
    /// Mutation campaign: sampled candidate faults skipped because random
    /// simulation found no witness (likely functionally equivalent).
    CampaignSkippedUnobserved,
}

impl Counter {
    /// All counters, in declaration order.
    pub const ALL: [Counter; 30] = [
        Counter::BddIteCalls,
        Counter::BddCacheHits,
        Counter::BddCacheMisses,
        Counter::BddNodesAllocated,
        Counter::BddPeakLiveNodes,
        Counter::BddGcRuns,
        Counter::BddCacheEvictions,
        Counter::BddUniqueProbes,
        Counter::BddGcFreed,
        Counter::BddCacheOccupancy,
        Counter::SatDecisions,
        Counter::SatPropagations,
        Counter::SatConflicts,
        Counter::SatRestarts,
        Counter::SweepMerges,
        Counter::SweepSatCalls,
        Counter::SweepSimRounds,
        Counter::SchedSteals,
        Counter::SchedEscalations,
        Counter::SchedCasesCompleted,
        Counter::SchedQueueLatencyMicros,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheStores,
        Counter::CampaignMutants,
        Counter::CampaignKilled,
        Counter::CampaignSurvived,
        Counter::CampaignUncovered,
        Counter::CampaignBudgetExceeded,
        Counter::CampaignSkippedUnobserved,
    ];

    /// Stable dotted name used in JSON output (e.g. `"bdd.ite_calls"`).
    pub fn name(self) -> &'static str {
        match self {
            Counter::BddIteCalls => "bdd.ite_calls",
            Counter::BddCacheHits => "bdd.cache_hits",
            Counter::BddCacheMisses => "bdd.cache_misses",
            Counter::BddNodesAllocated => "bdd.nodes_allocated",
            Counter::BddPeakLiveNodes => "bdd.peak_live_nodes",
            Counter::BddGcRuns => "bdd.gc_runs",
            Counter::BddCacheEvictions => "bdd.cache_evictions",
            Counter::BddUniqueProbes => "bdd.unique_probes",
            Counter::BddGcFreed => "bdd.gc_freed",
            Counter::BddCacheOccupancy => "bdd.cache_occupancy",
            Counter::SatDecisions => "sat.decisions",
            Counter::SatPropagations => "sat.propagations",
            Counter::SatConflicts => "sat.conflicts",
            Counter::SatRestarts => "sat.restarts",
            Counter::SweepMerges => "sweep.merges",
            Counter::SweepSatCalls => "sweep.sat_calls",
            Counter::SweepSimRounds => "sweep.sim_rounds",
            Counter::SchedSteals => "sched.steals",
            Counter::SchedEscalations => "sched.escalations",
            Counter::SchedCasesCompleted => "sched.cases_completed",
            Counter::SchedQueueLatencyMicros => "sched.queue_latency_us",
            Counter::CacheHits => "cache.hits",
            Counter::CacheMisses => "cache.misses",
            Counter::CacheStores => "cache.stores",
            Counter::CampaignMutants => "campaign.mutants",
            Counter::CampaignKilled => "campaign.killed",
            Counter::CampaignSurvived => "campaign.survived",
            Counter::CampaignUncovered => "campaign.uncovered",
            Counter::CampaignBudgetExceeded => "campaign.budget_exceeded",
            Counter::CampaignSkippedUnobserved => "campaign.skipped_unobserved",
        }
    }

    /// Inverse of [`Counter::name`].
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// Whether this counter is a high-water mark (merged with `max`) rather
    /// than a monotonic sum.
    pub fn is_gauge(self) -> bool {
        matches!(self, Counter::BddPeakLiveNodes | Counter::BddCacheOccupancy)
    }
}

/// A small named bag of counter values, used to carry per-attempt metrics
/// on [`crate::EngineStats`] and per-span metrics on trace events.
///
/// Backed by a sorted `Vec` rather than a map: a typical attempt touches a
/// handful of counters and results are cloned into attempt logs, so small
/// and cheap beats asymptotics here.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricSet {
    entries: Vec<(Counter, u64)>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    /// Adds `value` to `counter` (gauges take the max instead).
    pub fn add(&mut self, counter: Counter, value: u64) {
        if value == 0 {
            return;
        }
        match self.entries.binary_search_by_key(&counter, |e| e.0) {
            Ok(i) => {
                if counter.is_gauge() {
                    self.entries[i].1 = self.entries[i].1.max(value);
                } else {
                    self.entries[i].1 += value;
                }
            }
            Err(i) => self.entries.insert(i, (counter, value)),
        }
    }

    /// The current value of `counter` (0 if never touched).
    pub fn get(&self, counter: Counter) -> u64 {
        self.entries
            .binary_search_by_key(&counter, |e| e.0)
            .map(|i| self.entries[i].1)
            .unwrap_or(0)
    }

    /// Folds another set into this one (respecting gauge semantics).
    pub fn merge(&mut self, other: &MetricSet) {
        for &(c, v) in &other.entries {
            self.add(c, v);
        }
    }

    /// Iterates over the non-zero entries in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// True if no counter has been touched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parses the object form emitted by [`MetricSet::to_json`], ignoring
    /// unknown counter names (forward compatibility).
    pub fn from_json(value: &JsonValue) -> MetricSet {
        let mut out = MetricSet::new();
        if let Some(fields) = value.as_object() {
            for (k, v) in fields {
                if let (Some(c), Some(n)) = (Counter::from_name(k), v.as_u64()) {
                    out.add(c, n);
                }
            }
        }
        out
    }
}

impl ToJson for MetricSet {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.entries
                .iter()
                .map(|&(c, v)| (c.name().to_string(), JsonValue::int(v)))
                .collect(),
        )
    }
}

impl FromIterator<(Counter, u64)> for MetricSet {
    fn from_iter<I: IntoIterator<Item = (Counter, u64)>>(iter: I) -> MetricSet {
        let mut out = MetricSet::new();
        for (c, v) in iter {
            out.add(c, v);
        }
        out
    }
}

/// The kind of work a [`Span`] brackets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole verification run (one instruction, all cases).
    Run,
    /// One case of the paper's case split.
    Case,
    /// One engine attempt within a case's escalation ladder.
    Stage,
    /// A sub-operation (harness build, constraint generation, replay, …).
    Op,
}

impl SpanKind {
    /// Stable lowercase name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Case => "case",
            SpanKind::Stage => "stage",
            SpanKind::Op => "op",
        }
    }

    /// Inverse of [`SpanKind::name`].
    pub fn from_name(name: &str) -> Option<SpanKind> {
        match name {
            "run" => Some(SpanKind::Run),
            "case" => Some(SpanKind::Case),
            "stage" => Some(SpanKind::Stage),
            "op" => Some(SpanKind::Op),
            _ => None,
        }
    }
}

/// One telemetry event in the JSONL stream.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A span opened.
    SpanStart {
        /// Span ID (unique within the tracer, starting at 1).
        id: u64,
        /// Parent span ID, if any.
        parent: Option<u64>,
        /// What kind of work this brackets.
        kind: SpanKind,
        /// Human-readable name (e.g. the case ID).
        name: String,
        /// Time since the tracer's epoch.
        t: Duration,
    },
    /// A span closed (carries the payload: duration, metrics, fields).
    SpanEnd {
        /// Span ID matching the corresponding start event.
        id: u64,
        /// Parent span ID, if any (repeated so consumers need not join).
        parent: Option<u64>,
        /// What kind of work this brackets.
        kind: SpanKind,
        /// Human-readable name.
        name: String,
        /// Time since the tracer's epoch at close.
        t: Duration,
        /// Wall time between open and close.
        dur: Duration,
        /// Counters recorded on this span.
        metrics: MetricSet,
        /// Free-form annotations (verdict, engine, …).
        fields: Vec<(String, JsonValue)>,
    },
    /// Counter totals, emitted at the end of a run.
    Totals {
        /// Time since the tracer's epoch.
        t: Duration,
        /// The merge of every span closed so far.
        metrics: MetricSet,
    },
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> JsonValue {
        fn secs(d: &Duration) -> JsonValue {
            JsonValue::Number(d.as_secs_f64())
        }
        match self {
            TraceEvent::SpanStart {
                id,
                parent,
                kind,
                name,
                t,
            } => JsonValue::object(vec![
                ("type", JsonValue::string("span_start")),
                ("id", JsonValue::int(*id)),
                ("parent", JsonValue::opt(*parent, JsonValue::int)),
                ("kind", JsonValue::string(kind.name())),
                ("name", JsonValue::string(name.clone())),
                ("t", secs(t)),
            ]),
            TraceEvent::SpanEnd {
                id,
                parent,
                kind,
                name,
                t,
                dur,
                metrics,
                fields,
            } => {
                let mut obj = vec![
                    ("type".to_string(), JsonValue::string("span_end")),
                    ("id".to_string(), JsonValue::int(*id)),
                    (
                        "parent".to_string(),
                        JsonValue::opt(*parent, JsonValue::int),
                    ),
                    ("kind".to_string(), JsonValue::string(kind.name())),
                    ("name".to_string(), JsonValue::string(name.clone())),
                    ("t".to_string(), secs(t)),
                    ("dur".to_string(), secs(dur)),
                    ("metrics".to_string(), metrics.to_json()),
                ];
                for (k, v) in fields {
                    obj.push((k.clone(), v.clone()));
                }
                JsonValue::Object(obj)
            }
            TraceEvent::Totals { t, metrics } => JsonValue::object(vec![
                ("type", JsonValue::string("totals")),
                ("t", secs(t)),
                ("metrics", metrics.to_json()),
            ]),
        }
    }
}

impl TraceEvent {
    /// Parses one JSONL line back into an event.
    pub fn from_json(value: &JsonValue) -> Result<TraceEvent, Error> {
        let schema = |message: &str| Error::TraceSchema {
            message: message.to_string(),
        };
        let ty = value
            .get("type")
            .and_then(|v| v.as_str())
            .ok_or_else(|| schema("missing \"type\""))?;
        let dur_field = |key: &str| -> Result<Duration, Error> {
            value
                .get(key)
                .and_then(|v| v.as_f64())
                .filter(|s| *s >= 0.0 && s.is_finite())
                .map(Duration::from_secs_f64)
                .ok_or_else(|| schema(&format!("missing or invalid \"{key}\"")))
        };
        match ty {
            "span_start" | "span_end" => {
                let id = value
                    .get("id")
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| schema("missing \"id\""))?;
                let parent = value.get("parent").and_then(|v| v.as_u64());
                let kind = value
                    .get("kind")
                    .and_then(|v| v.as_str())
                    .and_then(SpanKind::from_name)
                    .ok_or_else(|| schema("missing or unknown \"kind\""))?;
                let name = value
                    .get("name")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| schema("missing \"name\""))?
                    .to_string();
                let t = dur_field("t")?;
                if ty == "span_start" {
                    return Ok(TraceEvent::SpanStart {
                        id,
                        parent,
                        kind,
                        name,
                        t,
                    });
                }
                let dur = dur_field("dur")?;
                let metrics = value
                    .get("metrics")
                    .map(MetricSet::from_json)
                    .unwrap_or_default();
                const KNOWN: [&str; 8] = [
                    "type", "id", "parent", "kind", "name", "t", "dur", "metrics",
                ];
                let fields = value
                    .as_object()
                    .unwrap_or(&[])
                    .iter()
                    .filter(|(k, _)| !KNOWN.contains(&k.as_str()))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                Ok(TraceEvent::SpanEnd {
                    id,
                    parent,
                    kind,
                    name,
                    t,
                    dur,
                    metrics,
                    fields,
                })
            }
            "totals" => Ok(TraceEvent::Totals {
                t: dur_field("t")?,
                metrics: value
                    .get("metrics")
                    .map(MetricSet::from_json)
                    .unwrap_or_default(),
            }),
            other => Err(schema(&format!("unknown event type {other:?}"))),
        }
    }
}

/// Where trace events go.
///
/// Sinks must tolerate concurrent `record` calls: scheduler workers close
/// case spans from their own threads.
pub trait TraceSink: Send + Sync {
    /// Accepts one event.
    fn record(&self, event: &TraceEvent);
    /// Flushes buffered output (called at the end of a run).
    fn flush(&self) {}
}

/// Streams events as one compact JSON object per line.
pub struct JsonlSink<W: std::io::Write + Send> {
    writer: Mutex<W>,
}

impl<W: std::io::Write + Send> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            writer: Mutex::new(writer),
        }
    }
}

impl<W: std::io::Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, event: &TraceEvent) {
        let mut line = event.to_json().render();
        line.push('\n');
        // Telemetry must never take down a verification run: I/O errors on
        // the sink are dropped.
        let _ = self.writer.lock().unwrap().write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.writer.lock().unwrap().flush();
    }
}

/// Buffers events in memory; useful in tests and for post-run summaries
/// without touching the filesystem.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Renders the buffered events as a JSONL document.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events.lock().unwrap().iter() {
            out.push_str(&ev.to_json().render());
            out.push('\n');
        }
        out
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: &TraceEvent) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// Lets a tracer feed a sink the caller keeps a handle to.
impl TraceSink for Arc<MemorySink> {
    fn record(&self, event: &TraceEvent) {
        MemorySink::record(self, event);
    }
}

struct TracerInner {
    sink: Box<dyn TraceSink>,
    epoch: Instant,
    next_id: AtomicU64,
    /// The merge of every closed span's metrics.
    totals: Mutex<MetricSet>,
}

/// Handle to the telemetry pipeline; cheap to clone, `None` inside when
/// disabled so every operation short-circuits on one branch.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Tracer {
    /// The no-op tracer (this is also `Default`).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer feeding the given sink.
    pub fn new(sink: impl TraceSink + 'static) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                sink: Box::new(sink),
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                totals: Mutex::new(MetricSet::new()),
            })),
        }
    }

    /// A tracer writing JSONL to an arbitrary writer.
    pub fn to_jsonl_writer(writer: impl std::io::Write + Send + 'static) -> Tracer {
        Tracer::new(JsonlSink::new(writer))
    }

    /// A tracer writing JSONL to a file (created/truncated), buffered.
    pub fn to_jsonl_file(path: impl AsRef<std::path::Path>) -> Result<Tracer, Error> {
        let path = path.as_ref();
        let file =
            std::fs::File::create(path).map_err(|e| Error::io(path.display().to_string(), &e))?;
        Ok(Tracer::to_jsonl_writer(std::io::BufWriter::new(file)))
    }

    /// A tracer buffering into memory, returning the sink for inspection.
    pub fn in_memory() -> (Tracer, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        (Tracer::new(Arc::clone(&sink)), sink)
    }

    /// True if events are actually collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The merge of every span closed so far (empty when disabled).
    pub fn totals(&self) -> MetricSet {
        match &self.inner {
            Some(inner) => inner.totals.lock().unwrap().clone(),
            None => MetricSet::new(),
        }
    }

    /// Opens a root span. The name closure only runs when enabled.
    pub fn span(&self, kind: SpanKind, name: impl FnOnce() -> String) -> Span {
        self.span_child(None, kind, name)
    }

    /// Opens a span under an explicit parent ID (use [`Span::id`] from
    /// another thread; `None` makes a root span).
    pub fn span_child(
        &self,
        parent: Option<u64>,
        kind: SpanKind,
        name: impl FnOnce() -> String,
    ) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                tracer: Tracer::disabled(),
                id: 0,
                parent: None,
                kind,
                name: String::new(),
                start: None,
                metrics: MetricSet::new(),
                fields: Vec::new(),
            };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let name = name();
        let start = Instant::now();
        inner.sink.record(&TraceEvent::SpanStart {
            id,
            parent,
            kind,
            name: name.clone(),
            t: start.duration_since(inner.epoch),
        });
        Span {
            tracer: self.clone(),
            id,
            parent,
            kind,
            name,
            start: Some(start),
            metrics: MetricSet::new(),
            fields: Vec::new(),
        }
    }

    /// Emits a [`TraceEvent::Totals`] snapshot of [`Tracer::totals`].
    pub fn emit_totals(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.record(&TraceEvent::Totals {
                t: inner.epoch.elapsed(),
                metrics: self.totals(),
            });
        }
    }

    /// Flushes the sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

/// An open span; emits a [`TraceEvent::SpanEnd`] with its duration, metrics
/// and fields when dropped. All methods are no-ops on a disabled tracer.
pub struct Span {
    tracer: Tracer,
    id: u64,
    parent: Option<u64>,
    kind: SpanKind,
    name: String,
    start: Option<Instant>,
    metrics: MetricSet,
    fields: Vec<(String, JsonValue)>,
}

impl Span {
    /// The span ID (0 when disabled); pass to [`Tracer::span_child`] to
    /// parent work on another thread.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The span ID if recording, for plumbing as an optional parent.
    pub fn parent_id(&self) -> Option<u64> {
        self.start.map(|_| self.id)
    }

    /// True if this span will emit an end event.
    pub fn is_recording(&self) -> bool {
        self.start.is_some()
    }

    /// Opens a child span on the same thread.
    pub fn child(&self, kind: SpanKind, name: impl FnOnce() -> String) -> Span {
        self.tracer.span_child(self.parent_id(), kind, name)
    }

    /// Records a counter value on this span (gauges take the max).
    pub fn record(&mut self, counter: Counter, value: u64) {
        if self.start.is_some() {
            self.metrics.add(counter, value);
        }
    }

    /// Folds a [`MetricSet`] into this span's metrics.
    pub fn record_set(&mut self, metrics: &MetricSet) {
        if self.start.is_some() {
            self.metrics.merge(metrics);
        }
    }

    /// Attaches a free-form annotation emitted on the end event.
    pub fn field(&mut self, key: &str, value: JsonValue) {
        if self.start.is_some() {
            self.fields.push((key.to_string(), value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let (Some(start), Some(inner)) = (self.start, &self.tracer.inner) else {
            return;
        };
        if !self.metrics.is_empty() {
            inner.totals.lock().unwrap().merge(&self.metrics);
        }
        let now = Instant::now();
        inner.sink.record(&TraceEvent::SpanEnd {
            id: self.id,
            parent: self.parent,
            kind: self.kind,
            name: std::mem::take(&mut self.name),
            t: now.duration_since(inner.epoch),
            dur: now.duration_since(start),
            metrics: std::mem::take(&mut self.metrics),
            fields: std::mem::take(&mut self.fields),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_set_add_get_merge() {
        let mut m = MetricSet::new();
        m.add(Counter::SatConflicts, 5);
        m.add(Counter::SatConflicts, 7);
        m.add(Counter::BddPeakLiveNodes, 100);
        m.add(Counter::BddPeakLiveNodes, 40);
        assert_eq!(m.get(Counter::SatConflicts), 12);
        assert_eq!(m.get(Counter::BddPeakLiveNodes), 100, "gauge takes max");
        assert_eq!(m.get(Counter::SatDecisions), 0);

        let mut other = MetricSet::new();
        other.add(Counter::SatConflicts, 1);
        other.add(Counter::BddPeakLiveNodes, 250);
        m.merge(&other);
        assert_eq!(m.get(Counter::SatConflicts), 13);
        assert_eq!(m.get(Counter::BddPeakLiveNodes), 250);
    }

    #[test]
    fn counter_names_round_trip() {
        for c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        assert_eq!(Counter::from_name("nope"), None);
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let mut ran = false;
        let mut span = tracer.span(SpanKind::Run, || {
            ran = true;
            "never".into()
        });
        assert!(!ran, "name closure must not run when disabled");
        assert_eq!(span.id(), 0);
        span.record(Counter::SatConflicts, 99);
        drop(span);
        assert!(tracer.totals().is_empty());
    }

    #[test]
    fn span_events_nest_by_parent_id() {
        let (tracer, sink) = Tracer::in_memory();
        {
            let run = tracer.span(SpanKind::Run, || "run".into());
            let case = run.child(SpanKind::Case, || "case-a".into());
            let mut stage = case.child(SpanKind::Stage, || "bdd".into());
            stage.record(Counter::BddIteCalls, 10);
            stage.field("verdict", JsonValue::string("holds"));
        }
        let events = sink.events();
        let ids: Vec<(u64, Option<u64>)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SpanStart { id, parent, .. } => Some((*id, *parent)),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![(1, None), (2, Some(1)), (3, Some(2))]);
        // Drops happen innermost-first.
        let end_names: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SpanEnd { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(end_names, vec!["bdd", "case-a", "run"]);
    }

    #[test]
    fn events_round_trip_through_jsonl() {
        let (tracer, sink) = Tracer::in_memory();
        {
            let mut run = tracer.span(SpanKind::Run, || "verify:Fma".into());
            run.field("op", JsonValue::string("Fma"));
            let mut case = run.child(SpanKind::Case, || "FarOut".into());
            case.record(Counter::SatConflicts, 17);
            case.field("verdict", JsonValue::string("holds"));
            case.field("engine", JsonValue::string("sat"));
            drop(case);
            tracer.emit_totals();
        }
        let text = sink.to_jsonl();
        let reparsed: Vec<TraceEvent> = text
            .lines()
            .map(|l| TraceEvent::from_json(&JsonValue::parse(l).unwrap()).unwrap())
            .collect();
        assert_eq!(reparsed, sink.events());
    }
}
