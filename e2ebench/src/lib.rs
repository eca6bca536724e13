//! End-to-end and per-layer wall-time benchmark of the IDEBench pipeline.
//!
//! One run drives the paper's pipeline through the layers' public
//! functions — data generation → ground truth → engine preparation →
//! `WorkflowSession::step_service` per interaction (or
//! `FleetHarness::run`) → evaluation — timing every call from outside.
//! A run repeats that pipeline in *rounds* until its time is up and it
//! has cycled once through the workload's sub-workloads (independently
//! seeded inputs of the stated size, see [`sub_seed`]). Each round starts
//! from data generation, so set-up is measured several times per run, and
//! every timing is reported as a median over rounds.
//!
//! Execution is virtual: the paper's own metrics (TR violations, missing
//! bins, MRE) are deterministic, so they serve as correctness outputs (a
//! digest of them is printed with every run) and wall time is the
//! performance measured.
//!
//! # Workloads
//!
//! | workload | why | bypasses |
//! |---|---|---|
//! | `analyst_flat` | scan-bound single analysts: engine stepping through the `query` kernels, data generation and ground truth do almost all the work | join cache, semantic cache, multi-session scheduling |
//! | `analyst_star` | the same seed, engines, workflows and TRs on the normalized star-schema twin; the gap to `analyst_flat` isolates the `storage` join layer and normalization | semantic cache, multi-session scheduling |
//! | `fleet_shared_service` | 32 closed-loop analysts share one exact service behind the semantic cache; per-query overheads (ticket scheduling, plan compile, canonical-key lookup, `ScanPool` dispatch, fleet evaluation) do the work | large scans, joins, the approximate engines |
//!
//! `BENCHMARK.json` registers `analyst_star` and `fleet_shared_service`.
//! `analyst_flat` still runs from the command line and is smoke-tested, but
//! it is not registered: on a shared 2-vCPU host its run-to-run spread
//! (IQR/median of `interactions_per_s` up to 0.26 over ten seeds) exceeded
//! the largest bound. `analyst_star` still measures every layer it
//! exercises, plus normalization and the join cache.
//!
//! # End-to-end metrics (tracing off)
//!
//! | metric | unit | meaning |
//! |---|---|---|
//! | `total_s` | s | first data-generation call → evaluated report |
//! | `setup_s` | s | everything before the first interaction: data generation (+ normalization), workflow generation, ground truth, every `open_session` |
//! | `interactions_per_s` | 1/s | interactions stepped per wall second of the run phase |
//! | `interaction_ms_p50` / `_p95` | ms | wall latency of one interaction across all its lanes |
//! | `peak_rss_mb` | MB | the process's memory high-water mark |
//!
//! # Per-layer metrics (traced run), with the end-to-end metric each should move
//!
//! | metric | unit | layer | moves |
//! |---|---|---|---|
//! | `datagen.generate_s` | s | datagen | `setup_s`, `total_s` (all workloads) |
//! | `datagen.normalize_s` | s | datagen | `setup_s` (`analyst_star`) |
//! | `query.ground_truth_s` | s | query | `setup_s` (`analyst_flat`, `analyst_star`) |
//! | `query.distinct_queries` | count | query | — (workload size) |
//! | `query.scan_rows_per_s` | rows/s | query | `interactions_per_s`, `query.ground_truth_s` |
//! | `query.compile_us_p50` | us | query | `interaction_ms_p50` (`fleet_shared_service`) |
//! | `query.scan_roofline_fraction` | ratio | query | — (kernel rate ÷ host histogram rate) |
//! | `storage.dataset_mb` | MB | storage | `peak_rss_mb` |
//! | `storage.join_cache_mb` | MB | storage | `peak_rss_mb` (`analyst_star`) |
//! | `storage.join_cache_materializations` | count | storage | `interactions_per_s` (`analyst_star`) |
//! | `storage.join_cache_hits` | count | storage | `interactions_per_s` (`analyst_star`) |
//! | `engine.<e>.prepare_s` | s | engine-<e> | `setup_s` |
//! | `engine.<e>.interaction_ms_p50` | ms | engine-<e> | `interaction_ms_p50` |
//! | `engine.<e>.units_per_s` | units/s | engine-<e> | `interactions_per_s` |
//! | `core.evaluate_s` | s | core | `total_s` (`analyst_*`) |
//! | `fleet.run_s` | s | fleet | `interactions_per_s` (`fleet_shared_service`) |
//! | `fleet.evaluate_s` | s | fleet | `total_s` (`fleet_shared_service`) |
//! | `fleet.cache_hit_rate` | ratio | fleet | `interactions_per_s` (`fleet_shared_service`) |
//! | `fleet.cache_entries` | count | fleet | `peak_rss_mb` (`fleet_shared_service`) |
//! | `host.seq_read_gbps` | GB/s | host probe | — |
//! | `host.histogram_rows_per_s` | rows/s | host probe | — |
//! | `host.parallel_speedup` | ratio | host probe | — (near 1: worker scaling is not evidence) |
//! | `trace.overhead_ratio` | ratio | tracing | — (traced ÷ untraced `total_s`) |
//!
//! `<e>` ranges over `exact`, `wander`, `progressive`, `stratified`. A
//! layer a workload bypasses reports 0 there (e.g. `fleet.*` on the
//! analyst workloads, `engine.wander.*` on the fleet, the join cache on
//! `analyst_flat`): that is the prediction, measured.

pub mod probe;
pub mod trace;

use idebench_core::{
    metrics, CoreError, DetailedReport, EngineService, ExecutionMode, PrepStats, Query,
    QueryOptions, QueryTicket, SessionId, Settings, SummaryReport, WorkflowOutcome,
    WorkflowSession,
};
use idebench_engine_exact::ExactAdapter;
use idebench_engine_progressive::{ProgressiveAdapter, ProgressiveConfig};
use idebench_engine_stratified::StratifiedAdapter;
use idebench_engine_wander::WanderAdapter;
use idebench_fleet::{FleetConfig, FleetHarness, FleetOutcome, FleetReport};
use idebench_query::{
    enumerate_workload_queries, execute_exact, execute_exact_scalar, CachedGroundTruth,
    CompiledPlan,
};
use idebench_storage::Dataset;
use idebench_workflow::{Workflow, WorkflowGenerator, WorkflowType};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace::{SpanId, Tracer};

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("total_s", "s"),
    ("setup_s", "s"),
    ("interactions_per_s", "1/s"),
    ("interaction_ms_p50", "ms"),
    ("interaction_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The engines of the analyst workloads, in run order.
pub const ENGINES: [&str; 4] = ["exact", "wander", "progressive", "stratified"];

/// The layers a traced run reports self time for (span names map to
/// layers by [`trace::layer_of`]; `bench` is the benchmark's own loop).
pub const LAYERS: [&str; 11] = [
    "bench",
    "datagen",
    "workflow",
    "query",
    "storage",
    "engine-exact",
    "engine-wander",
    "engine-progressive",
    "engine-stratified",
    "core",
    "fleet",
];

/// Per-layer metrics `(name, unit)`, reported by the traced run.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("datagen.generate_s", "s"),
        ("datagen.normalize_s", "s"),
        ("query.ground_truth_s", "s"),
        ("query.distinct_queries", "count"),
        ("query.scan_rows_per_s", "rows/s"),
        ("query.compile_us_p50", "us"),
        ("query.scan_roofline_fraction", "ratio"),
        ("storage.dataset_mb", "MB"),
        ("storage.join_cache_mb", "MB"),
        ("storage.join_cache_materializations", "count"),
        ("storage.join_cache_hits", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for e in ENGINES {
        out.push((format!("engine.{e}.prepare_s"), "s"));
        out.push((format!("engine.{e}.interaction_ms_p50"), "ms"));
        out.push((format!("engine.{e}.units_per_s"), "units/s"));
    }
    for (n, u) in [
        ("core.evaluate_s", "s"),
        ("fleet.run_s", "s"),
        ("fleet.evaluate_s", "s"),
        ("fleet.cache_hit_rate", "ratio"),
        ("fleet.cache_entries", "count"),
        ("host.seq_read_gbps", "GB/s"),
        ("host.histogram_rows_per_s", "rows/s"),
        ("host.parallel_speedup", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single analysts on de-normalized flights (scan-bound).
    AnalystFlat,
    /// The same analysts on the normalized star-schema twin.
    AnalystStar,
    /// 32 closed-loop analysts sharing one exact service and the
    /// semantic cache.
    FleetSharedService,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 3] = [
        Workload::AnalystFlat,
        Workload::AnalystStar,
        Workload::FleetSharedService,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalystFlat => "analyst_flat",
            Workload::AnalystStar => "analyst_star",
            Workload::FleetSharedService => "fleet_shared_service",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of one workload.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Flights rows (the fact table's rows for the star schema).
    pub rows: usize,
    /// Analyst workloads: mixed workflows per (engine, TR) cell.
    pub workflows: usize,
    /// Interactions per workflow (per fleet session for the fleet).
    pub workflow_len: usize,
    /// Analyst workloads: time requirements, ms.
    pub trs_ms: Vec<u64>,
    /// Fleet: closed-loop sessions.
    pub sessions: usize,
    /// Scan workers and ground-truth threads.
    pub workers: usize,
    /// Distinct sub-workloads a run cycles through, one per round (see
    /// [`sub_seed`]).
    pub cycle: usize,
}

impl Scale {
    /// The benchmark's sizes: 1M flights rows, 5 mixed workflows × 18
    /// interactions, TR {500, 3000} ms for the analysts; 200k rows and 32
    /// sessions × 24 interactions for the fleet. Workers are pinned to
    /// this host's parallelism.
    pub fn standard(workload: Workload) -> Scale {
        let workers = idebench_core::settings::available_parallelism();
        match workload {
            Workload::AnalystFlat | Workload::AnalystStar => Scale {
                rows: 1_000_000,
                workflows: 5,
                workflow_len: 18,
                trs_ms: vec![500, 3_000],
                sessions: 0,
                workers,
                cycle: 4,
            },
            Workload::FleetSharedService => Scale {
                rows: 200_000,
                workflows: 0,
                workflow_len: 24,
                trs_ms: Vec::new(),
                sessions: 32,
                workers,
                cycle: 6,
            },
        }
    }

    /// Seconds-long sizes for the benchmark's own smoke test.
    pub fn tiny(workload: Workload, workers: usize) -> Scale {
        let standard = Scale::standard(workload);
        match workload {
            Workload::AnalystFlat | Workload::AnalystStar => Scale {
                rows: 20_000,
                workflows: 2,
                workflow_len: 6,
                workers,
                cycle: 2,
                ..standard
            },
            Workload::FleetSharedService => Scale {
                rows: 10_000,
                workflow_len: 6,
                sessions: 4,
                workers,
                cycle: 2,
                ..standard
            },
        }
    }
}

/// One benchmark run's configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input (data and workflows).
    pub seed: u64,
    /// Rounds repeat until this many seconds have passed (and at least
    /// one full cycle of sub-workloads has run).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every check passed and every metric is finite.
    pub correct: bool,
    /// Operations attempted (interactions stepped, exact results and
    /// ground-truth entries checked, repeated sub-workloads re-digested).
    pub attempted: u64,
    /// Operations that returned `Err` or failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Digest of the deterministic virtual summary (not gated).
    pub digest: String,
    /// The virtual summary the digest covers, one line per cell.
    pub summary: String,
    /// Rounds run.
    pub rounds: usize,
    /// Interaction latency samples behind the percentiles.
    pub latency_samples: usize,
    /// Traced run: self time per layer (median over traced rounds), s.
    pub layer_self_s: BTreeMap<String, f64>,
    /// Traced run: every recorded span as JSON.
    pub spans_json: String,
    /// This run's host probes.
    pub host: probe::HostProbe,
}

/// Operation accounting of one round or check.
#[derive(Debug, Clone, Copy, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Stepping wall time and virtual work of one engine in one round.
#[derive(Debug, Clone, Default)]
struct EngineRound {
    step_s: f64,
    units: f64,
    latencies_ms: Vec<f64>,
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
struct Round {
    traced: bool,
    sub: usize,
    total_s: f64,
    setup_s: f64,
    run_s: f64,
    interactions: usize,
    latencies_ms: Vec<f64>,
    engines: BTreeMap<&'static str, EngineRound>,
    fleet_run_s: f64,
    fleet_hit_rate: f64,
    fleet_entries: usize,
    join_cache: idebench_storage::JoinCacheStats,
    checks: Checks,
    digest: String,
    summary: String,
    /// Traced round: self time per span name, s.
    span_self_s: BTreeMap<String, f64>,
}

/// The inputs a round leaves behind for the checks and probes run after
/// the timed rounds.
struct Artifacts {
    dataset: Dataset,
    queries: Vec<Query>,
    gt: Option<CachedGroundTruth>,
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Nearest-rank percentile, 0 for an empty sample (a bypassed layer).
fn percentile(xs: &[f64], p: f64) -> f64 {
    metrics::percentile(xs, p).unwrap_or(0.0)
}

/// Median, 0 for an empty sample.
fn median(xs: &[f64]) -> f64 {
    metrics::median(xs).unwrap_or(0.0)
}

/// The input seed of sub-workload `k` of a run seeded with `seed`.
///
/// One sub-workload is one round's inputs at the workload's stated size.
/// A run cycles through `Scale::cycle` of them, so its medians average
/// over several independently generated data sets and workflow sets
/// rather than one, and a repeated sub-workload must reproduce its
/// virtual summary exactly. Sub-workload 0 uses the run's seed itself.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// FNV-1a 64-bit digest, as 16 hex digits.
fn digest_of(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The deterministic virtual summary of a run (TR violations, missing
/// bins, MRE per engine × TR), at full precision, one line per cell.
fn summary_lines(summary: &SummaryReport) -> String {
    let mut out = String::new();
    for r in &summary.rows {
        let _ = writeln!(
            out,
            "{} tr={}ms queries={} tr_violated_pct={:?} missing_bins={:?} mre={:?}",
            r.system, r.time_req, r.queries, r.pct_tr_violated, r.mean_missing_bins, r.mean_mre
        );
    }
    out
}

/// A completed exact query must match ground truth exactly.
fn check_exact_rows(detailed: &DetailedReport, checks: &mut Checks) {
    for row in detailed.rows.iter().filter(|r| r.driver == "exact") {
        if row.tr_violated {
            continue;
        }
        let exact =
            row.metrics.missing_bins == 0.0 && row.metrics.rel_error_avg.is_none_or(|e| e == 0.0);
        checks.record(exact);
    }
}

/// Virtual work units a session's measurements consumed.
fn virtual_units(outcome: &WorkflowOutcome, work_rate: f64) -> f64 {
    outcome
        .query_results
        .iter()
        .map(|m| (m.end_ms - m.start_ms) / 1e3 * work_rate)
        .sum()
}

fn make_service(engine: &str) -> Arc<dyn EngineService> {
    match engine {
        "exact" => ExactAdapter::with_defaults().into_service().into_shared(),
        "wander" => WanderAdapter::with_defaults().into_service().into_shared(),
        "progressive" => ProgressiveAdapter::service(ProgressiveConfig::default()).into_shared(),
        "stratified" => StratifiedAdapter::with_defaults()
            .into_service()
            .into_shared(),
        other => unreachable!("unknown engine {other}"),
    }
}

/// One (engine, TR) cell of an analyst workload after its set-up.
struct Cell {
    engine: &'static str,
    settings: Settings,
    service: Arc<dyn EngineService>,
    preps: Vec<PrepStats>,
}

/// One round of `analyst_flat` / `analyst_star`.
fn analyst_round(
    cfg: &RunConfig,
    seed: u64,
    star: bool,
    tracer: &mut Tracer,
    root: Option<SpanId>,
) -> Result<(Round, Artifacts), CoreError> {
    let scale = &cfg.scale;
    let mut round = Round::default();
    let start = Instant::now();

    // --- set-up: everything before the first interaction ---
    let setup = tracer.open("bench.setup", root);
    let span = tracer.open("datagen.generate", setup);
    let table = idebench_datagen::flights::generate(scale.rows, seed);
    tracer.close(span);
    let dataset = if star {
        let span = tracer.open("datagen.normalize", setup);
        let star = idebench_datagen::normalize_flights(&table).map_err(CoreError::Storage)?;
        tracer.close(span);
        star
    } else {
        Dataset::Denormalized(Arc::new(table))
    };

    let span = tracer.open("workflow.generate", setup);
    let workflows: Vec<Workflow> = WorkflowGenerator::new(WorkflowType::Mixed, seed)
        .generate_batch(scale.workflows, scale.workflow_len);
    tracer.close(span);

    let span = tracer.open("query.ground_truth", setup);
    let slices: Vec<&[idebench_core::Interaction]> = workflows
        .iter()
        .map(|w| w.interactions.as_slice())
        .collect();
    let queries = enumerate_workload_queries(&dataset, &slices)?;
    let mut gt = CachedGroundTruth::precompute(dataset.clone(), &queries, scale.workers);
    tracer.close(span);

    let work_rate = scale.rows as f64 / 5.0;
    let mut cells = Vec::new();
    for engine in ENGINES {
        for &tr in &scale.trs_ms {
            let settings = Settings::default()
                .with_seed(seed)
                .with_execution(ExecutionMode::Virtual { work_rate })
                .with_time_requirement_ms(tr)
                .with_joins(star)
                .with_workers(scale.workers);
            let service = make_service(engine);
            let span = tracer.open(&format!("engine.{engine}.prepare"), setup);
            let preps = (0..workflows.len())
                .map(|w| service.open_session(w as SessionId, &dataset, &settings))
                .collect::<Result<Vec<_>, _>>()?;
            tracer.close(span);
            cells.push(Cell {
                engine,
                settings,
                service,
                preps,
            });
        }
    }
    tracer.close(setup);
    round.setup_s = secs(start);

    // --- run: every interaction of every cell ---
    let run = tracer.open("bench.run", root);
    let run_start = Instant::now();
    let mut outcomes = Vec::new();
    for cell in &cells {
        let step_name = format!("engine.{}.step", cell.engine);
        let cell_start = Instant::now();
        let engine = round.engines.entry(cell.engine).or_default();
        for (w, workflow) in workflows.iter().enumerate() {
            let mut session = WorkflowSession::for_session(cell.settings.clone(), w as SessionId);
            for interaction in &workflow.interactions {
                let t = Instant::now();
                let span = tracer.open(&step_name, run);
                let stepped = session.step_service(cell.service.as_ref(), &dataset, interaction);
                tracer.close(span);
                let ms = secs(t) * 1e3;
                round.checks.record(stepped.is_ok());
                if stepped.is_err() {
                    break;
                }
                round.latencies_ms.push(ms);
                engine.latencies_ms.push(ms);
            }
            cell.service.close_session(w as SessionId);
            let outcome = session.into_outcome(
                cell.service.name(),
                &workflow.name,
                workflow.kind.label(),
                cell.preps[w],
            );
            engine.units += virtual_units(&outcome, work_rate);
            outcomes.push(outcome);
        }
        engine.step_s += secs(cell_start);
    }
    round.run_s = secs(run_start);
    round.interactions = round.latencies_ms.len();
    tracer.close(run);

    // --- evaluation ---
    let span = tracer.open("core.evaluate", root);
    let detailed = DetailedReport::merged(
        outcomes
            .iter()
            .map(|o| DetailedReport::from_outcome(o, &mut gt)),
    );
    let summary = SummaryReport::from_detailed(&detailed);
    tracer.close(span);
    round.total_s = secs(start);

    let span = tracer.open("storage.stats", root);
    if let Some(star) = dataset.as_star() {
        round.join_cache = star.join_cache_stats();
    }
    tracer.close(span);
    check_exact_rows(&detailed, &mut round.checks);
    round.summary = summary_lines(&summary);
    round.digest = digest_of(&round.summary);
    Ok((
        round,
        Artifacts {
            dataset,
            queries,
            gt: Some(gt),
        },
    ))
}

/// What the timing wrapper saw of a fleet run.
#[derive(Debug, Default)]
struct ServiceLog {
    /// Start of the interaction in progress: the end of the previous
    /// interaction or of the last session open/close.
    mark: Option<Instant>,
    prepares: Vec<(Instant, Instant)>,
    interactions: Vec<(Instant, Instant)>,
}

/// An [`EngineService`] that forwards every call and timestamps the ones
/// that bound an interaction. The fleet's event loop steps one
/// interaction at a time and every step ends with `on_think`, so the
/// interval between consecutive `on_think` calls (less session opens and
/// closes) is one interaction's wall latency, cache hits included.
struct TimedService {
    inner: Arc<dyn EngineService>,
    log: Mutex<ServiceLog>,
}

impl TimedService {
    fn log(&self) -> std::sync::MutexGuard<'_, ServiceLog> {
        self.log
            .lock()
            .expect("timing log is never held across a panic")
    }
}

impl EngineService for TimedService {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn open_session(
        &self,
        session: SessionId,
        dataset: &Dataset,
        settings: &Settings,
    ) -> Result<PrepStats, CoreError> {
        let start = Instant::now();
        let prep = self.inner.open_session(session, dataset, settings);
        let end = Instant::now();
        let mut log = self.log();
        log.prepares.push((start, end));
        log.mark = Some(end);
        prep
    }

    fn close_session(&self, session: SessionId) {
        self.inner.close_session(session);
        self.log().mark = Some(Instant::now());
    }

    fn submit(&self, query: &Query, opts: QueryOptions) -> QueryTicket {
        self.inner.submit(query, opts)
    }

    fn revoke_superseded(&self, session: SessionId, viz_name: &str) {
        self.inner.revoke_superseded(session, viz_name);
    }

    fn on_link(&self, session: SessionId, source_query: &Query, target_query: &Query) {
        self.inner.on_link(session, source_query, target_query);
    }

    fn on_think(&self, session: SessionId, budget_units: u64) {
        self.inner.on_think(session, budget_units);
        let end = Instant::now();
        let mut log = self.log();
        let start = log.mark.unwrap_or(end);
        log.interactions.push((start, end));
        log.mark = Some(end);
    }

    fn on_discard(&self, session: SessionId, viz_name: &str) {
        self.inner.on_discard(session, viz_name);
    }
}

/// The fleet's settings: `bench_fleet`'s calibration under `seed`.
fn fleet_config(cfg: &RunConfig, seed: u64) -> FleetConfig {
    let settings = Settings::default()
        .with_time_requirement_ms(1_000)
        .with_think_time_ms(1_000)
        .with_seed(seed)
        .with_workers(cfg.scale.workers);
    FleetConfig::new(settings, cfg.scale.sessions)
        .with_workflow(WorkflowType::Mixed, cfg.scale.workflow_len)
}

/// The distinct queries a fleet's sessions issue (enumerated outside the
/// timed phases, for the checks and kernel probes).
fn fleet_queries(harness: &FleetHarness, dataset: &Dataset) -> Result<Vec<Query>, CoreError> {
    let workflows: Vec<Workflow> = (0..harness.config().sessions)
        .map(|i| harness.workflow_for(i))
        .collect();
    let slices: Vec<&[idebench_core::Interaction]> = workflows
        .iter()
        .map(|w| w.interactions.as_slice())
        .collect();
    enumerate_workload_queries(dataset, &slices)
}

fn fleet_summary(report: &FleetReport, outcome: &FleetOutcome) -> String {
    let mut out = summary_lines(&report.summary);
    let _ = writeln!(
        out,
        "fleet sessions={} interactions={} queries={} makespan_ms={:?} tr_violation_rate={:?} \
         cache_hits={} cache_lookups={} cache_entries={}",
        report.sessions,
        report.interactions,
        report.queries,
        report.makespan_ms,
        report.tr_violation_rate,
        outcome.cache.hits,
        outcome.cache.hits + outcome.cache.misses,
        report.cache_entries
    );
    out
}

/// One round of `fleet_shared_service`.
fn fleet_round(
    cfg: &RunConfig,
    seed: u64,
    tracer: &mut Tracer,
    root: Option<SpanId>,
) -> Result<(Round, Artifacts), CoreError> {
    let mut round = Round::default();
    let start = Instant::now();

    let span = tracer.open("datagen.generate", root);
    let dataset = Dataset::Denormalized(Arc::new(idebench_datagen::flights::generate(
        cfg.scale.rows,
        seed,
    )));
    tracer.close(span);
    let harness = FleetHarness::new(fleet_config(cfg, seed));
    let before_run = secs(start);

    let timed = Arc::new(TimedService {
        inner: ExactAdapter::with_defaults().into_service().into_shared(),
        log: Mutex::new(ServiceLog::default()),
    });
    let run_start = Instant::now();
    let outcome = harness.run(&dataset, timed.clone());
    let run_end = Instant::now();
    round.fleet_run_s = (run_end - run_start).as_secs_f64();
    let log = std::mem::take(&mut *timed.log());
    let run = tracer.record("fleet.run", root, run_start, run_end);
    for &(s, e) in &log.prepares {
        tracer.record("engine.exact.prepare", run, s, e);
    }
    for &(s, e) in &log.interactions {
        tracer.record("engine.exact.step", run, s, e);
    }
    let outcome = outcome?;

    let prepare_s: f64 = log
        .prepares
        .iter()
        .map(|&(s, e)| (e - s).as_secs_f64())
        .sum();
    round.setup_s = before_run + prepare_s;
    round.run_s = round.fleet_run_s - prepare_s;
    round.latencies_ms = log
        .interactions
        .iter()
        .map(|&(s, e)| (e - s).as_secs_f64() * 1e3)
        .collect();
    round.interactions = round.latencies_ms.len();
    let stepped: usize = outcome.sessions.iter().map(|s| s.interactions).sum();
    let expected = cfg.scale.sessions * cfg.scale.workflow_len;
    for i in 0..expected {
        round.checks.record(i < stepped);
    }
    // Every stepped interaction was timed exactly once.
    round.checks.record(round.interactions == stepped);

    let span = tracer.open("fleet.evaluate", root);
    let report = FleetReport::evaluate(&outcome, &dataset);
    tracer.close(span);
    round.total_s = secs(start);

    let work_rate = harness.config().settings.work_rate();
    round.engines.insert(
        "exact",
        EngineRound {
            step_s: round.run_s,
            units: outcome
                .sessions
                .iter()
                .map(|s| virtual_units(&s.outcome, work_rate))
                .sum(),
            latencies_ms: round.latencies_ms.clone(),
        },
    );
    round.fleet_hit_rate = outcome.cache.hit_rate();
    round.fleet_entries = outcome.cache_entries;
    check_exact_rows(&report.detailed, &mut round.checks);
    round.summary = fleet_summary(&report, &outcome);
    round.digest = digest_of(&round.summary);

    let queries = fleet_queries(&harness, &dataset)?;
    Ok((
        round,
        Artifacts {
            dataset,
            queries,
            gt: None,
        },
    ))
}

/// Ground truth must equal the scalar oracle on every distinct workload
/// query (run after the timed rounds).
fn check_oracle(art: &mut Artifacts) -> Checks {
    let mut checks = Checks::default();
    for query in &art.queries {
        let scalar = execute_exact_scalar(&art.dataset, query);
        let truth = match art.gt.as_mut() {
            Some(gt) => Ok(idebench_core::GroundTruthProvider::ground_truth(gt, query)),
            None => execute_exact(&art.dataset, query),
        };
        checks.record(matches!((scalar, truth), (Ok(s), Ok(t)) if s == t));
    }
    checks
}

/// `execute_exact` over the distinct queries: median rows/s of 3 reps.
fn scan_rate(art: &Artifacts) -> f64 {
    let rows = (art.dataset.fact_rows() * art.queries.len()) as f64;
    let rates: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for q in &art.queries {
                std::hint::black_box(execute_exact(&art.dataset, q).ok());
            }
            rows / secs(t)
        })
        .collect();
    median(&rates)
}

/// Median `CompiledPlan::compile` time over the distinct queries, µs.
fn compile_us_p50(art: &Artifacts) -> f64 {
    let mut us = Vec::with_capacity(art.queries.len() * 3);
    for _ in 0..3 {
        for q in &art.queries {
            let t = Instant::now();
            std::hint::black_box(CompiledPlan::compile(&art.dataset, q).ok());
            us.push(secs(t) * 1e6);
        }
    }
    median(&us)
}

/// The process's memory high-water mark, MB (10^6 bytes).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

fn median_of(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Runs one workload: rounds until `seconds` have passed and every
/// sub-workload has run, then the output checks (and, traced, the kernel
/// and host probes).
pub fn run(cfg: &RunConfig) -> RunResult {
    let cycle = cfg.scale.cycle.max(1);
    let mut tracer = Tracer::new(false);
    let mut rounds: Vec<Round> = Vec::new();
    let mut checks = Checks::default();
    let mut artifacts: Option<Artifacts> = None;
    // A traced run first runs sub-workload 0 untraced and then traced, so
    // the gap between the two is the tracing overhead; every later round
    // is traced.
    let min_rounds = cycle + usize::from(cfg.trace);
    let start = Instant::now();
    while rounds.len() < min_rounds || secs(start) < cfg.seconds {
        let r = rounds.len();
        let traced = cfg.trace && r >= 1;
        let sub = (r - usize::from(traced)) % cycle;
        let seed = sub_seed(cfg.seed, sub);
        tracer.set_enabled(traced);
        artifacts = None;
        let root = tracer.open("bench.round", None);
        let outcome = match cfg.workload {
            Workload::AnalystFlat => analyst_round(cfg, seed, false, &mut tracer, root),
            Workload::AnalystStar => analyst_round(cfg, seed, true, &mut tracer, root),
            Workload::FleetSharedService => fleet_round(cfg, seed, &mut tracer, root),
        };
        tracer.close(root);
        match outcome {
            Ok((mut round, art)) => {
                round.traced = traced;
                round.sub = sub;
                round.span_self_s = tracer.self_seconds_under(root);
                eprintln!(
                    "round {r} sub-workload {sub}{}: total {:.3} s, setup {:.3} s, \
                     {:.1} interactions/s",
                    if traced { " (traced)" } else { "" },
                    round.total_s,
                    round.setup_s,
                    round.interactions as f64 / round.run_s
                );
                checks.add(round.checks);
                rounds.push(round);
                artifacts = Some(art);
            }
            Err(e) => {
                eprintln!("round failed: {e}");
                checks.record(false);
                break;
            }
        }
    }
    tracer.set_enabled(false);

    // A repeated sub-workload must reproduce its virtual summary exactly;
    // the run's digest covers every sub-workload's summary, in order.
    let mut firsts: Vec<&Round> = Vec::new();
    for r in &rounds {
        match firsts.iter().find(|f| f.sub == r.sub) {
            Some(first) => checks.record(r.digest == first.digest),
            None => firsts.push(r),
        }
    }
    firsts.sort_by_key(|r| r.sub);
    let summary: String = firsts
        .iter()
        .map(|r| {
            format!(
                "sub-workload {} (seed {}):\n{}",
                r.sub,
                sub_seed(cfg.seed, r.sub),
                r.summary
            )
        })
        .collect();
    let digest = digest_of(&firsts.iter().map(|r| r.digest.as_str()).collect::<String>());
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    if let Some(art) = artifacts.as_mut() {
        checks.add(check_oracle(art));
        if cfg.trace {
            let scan = scan_rate(art);
            values.insert("query.scan_rows_per_s".into(), scan);
            values.insert("query.compile_us_p50".into(), compile_us_p50(art));
            values.insert("query.distinct_queries".into(), art.queries.len() as f64);
            values.insert(
                "storage.dataset_mb".into(),
                art.dataset.byte_size() as f64 / 1e6,
            );
        }
    }
    // The high-water mark is read before the probes allocate their
    // buffers; the probes run in every run, after the timed rounds.
    let peak_rss = peak_rss_mb();
    let host = probe::measure();
    if cfg.trace {
        let scan = values.get("query.scan_rows_per_s").copied();
        values.insert(
            "query.scan_roofline_fraction".into(),
            scan.map_or(f64::NAN, |s| s / host.histogram_rows_per_s),
        );
        values.insert("host.seq_read_gbps".into(), host.seq_read_gbps);
        values.insert(
            "host.histogram_rows_per_s".into(),
            host.histogram_rows_per_s,
        );
        values.insert("host.parallel_speedup".into(), host.parallel_speedup);
    }

    let measured: Vec<&Round> = rounds.iter().filter(|r| r.traced == cfg.trace).collect();
    let mut latency_samples = 0;
    // A layer the workload bypasses keeps its 0.
    let mut layer_self_s: BTreeMap<String, f64> = BTreeMap::new();
    if !cfg.trace {
        let latencies: Vec<f64> = measured
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect();
        latency_samples = latencies.len();
        values.insert("total_s".into(), median_of(&measured, |r| r.total_s));
        values.insert("setup_s".into(), median_of(&measured, |r| r.setup_s));
        values.insert(
            "interactions_per_s".into(),
            median_of(&measured, |r| r.interactions as f64 / r.run_s),
        );
        values.insert("interaction_ms_p50".into(), percentile(&latencies, 50.0));
        values.insert("interaction_ms_p95".into(), percentile(&latencies, 95.0));
        values.insert("peak_rss_mb".into(), peak_rss);
    } else {
        layer_self_s = LAYERS.iter().map(|l| (l.to_string(), 0.0)).collect();
        let m = |f: &dyn Fn(&Round) -> f64| median_of(&measured, f);
        // Timings of single layer calls are their spans' self times.
        let span_s = |name: &str| m(&|r| r.span_self_s.get(name).copied().unwrap_or(0.0));
        values.insert("datagen.generate_s".into(), span_s("datagen.generate"));
        values.insert("datagen.normalize_s".into(), span_s("datagen.normalize"));
        values.insert("query.ground_truth_s".into(), span_s("query.ground_truth"));
        values.insert(
            "storage.join_cache_mb".into(),
            m(&|r| r.join_cache.bytes as f64 / 1e6),
        );
        values.insert(
            "storage.join_cache_materializations".into(),
            m(&|r| r.join_cache.misses as f64),
        );
        values.insert(
            "storage.join_cache_hits".into(),
            m(&|r| r.join_cache.hits as f64),
        );
        for e in ENGINES {
            let engine = |r: &Round| r.engines.get(e).cloned().unwrap_or_default();
            values.insert(
                format!("engine.{e}.prepare_s"),
                span_s(&format!("engine.{e}.prepare")),
            );
            let latencies: Vec<f64> = measured
                .iter()
                .flat_map(|r| engine(r).latencies_ms)
                .collect();
            values.insert(
                format!("engine.{e}.interaction_ms_p50"),
                percentile(&latencies, 50.0),
            );
            values.insert(
                format!("engine.{e}.units_per_s"),
                m(&|r| {
                    let en = engine(r);
                    if en.step_s > 0.0 {
                        en.units / en.step_s
                    } else {
                        0.0
                    }
                }),
            );
        }
        values.insert("core.evaluate_s".into(), span_s("core.evaluate"));
        values.insert("fleet.run_s".into(), m(&|r| r.fleet_run_s));
        values.insert("fleet.evaluate_s".into(), span_s("fleet.evaluate"));
        values.insert("fleet.cache_hit_rate".into(), m(&|r| r.fleet_hit_rate));
        values.insert("fleet.cache_entries".into(), m(&|r| r.fleet_entries as f64));
        let overhead = match rounds.as_slice() {
            [untraced, traced, ..] if traced.traced => traced.total_s / untraced.total_s,
            _ => f64::NAN,
        };
        values.insert("trace.overhead_ratio".into(), overhead);
        let mut names: Vec<&String> = measured.iter().flat_map(|r| r.span_self_s.keys()).collect();
        names.sort();
        names.dedup();
        for name in names {
            *layer_self_s.entry(trace::layer_of(name)).or_insert(0.0) += span_s(name);
        }
    }

    let names: Vec<(String, &'static str)> = if cfg.trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let metrics: Vec<Metric> = names
        .into_iter()
        .map(|(name, unit)| Metric {
            value: values.get(&name).copied().unwrap_or(f64::NAN),
            name,
            unit,
        })
        .collect();
    let finite = metrics.iter().all(|m| m.value.is_finite());
    RunResult {
        correct: finite && checks.failed == 0 && !rounds.is_empty(),
        attempted: checks.attempted.max(1),
        failed: checks.failed,
        metrics,
        digest,
        summary,
        rounds: rounds.len(),
        latency_samples,
        layer_self_s,
        spans_json: if cfg.trace {
            tracer.spans_json()
        } else {
            String::new()
        },
        host,
    }
}

/// The run's result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics` (non-finite values, which mark the run
/// incorrect, print as 0 to keep the line valid JSON).
pub fn result_json(result: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct, result.attempted, result.failed
    );
    for (i, m) in result.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
