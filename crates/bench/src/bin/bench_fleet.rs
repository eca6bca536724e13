//! Fleet benchmark: emits `BENCH_fleet.json` with multi-session throughput
//! (interactions/s, queries/s on the virtual timeline), latency percentiles
//! (p50/p95/p99), time-requirement violation rates and cross-session cache
//! hit rates, for closed-loop fleets of 1/2/4/8 sessions, a shared-dashboard
//! variant, and an open-loop (Poisson-arrival) variant.
//!
//! Doubles as the CI smoke gate for the fleet subsystem: the process exits
//! non-zero if fleet throughput at 4 sessions falls below the 1-session
//! sequential baseline — i.e. if the harness stopped actually overlapping
//! sessions. The report is written before the gate is checked. Both
//! sides of the gate are deterministic virtual-clock quantities, so the
//! gate cannot flake on a loaded CI runner.

use idebench_core::Settings;
use idebench_engine_exact::ExactAdapter;
use idebench_fleet::{FleetConfig, FleetHarness, FleetReport, LoadModel};
use idebench_storage::Dataset;
use idebench_workflow::WorkflowType;
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 200_000;
const WORKFLOW_LEN: usize = 12;

fn settings() -> Settings {
    Settings::default()
        .with_time_requirement_ms(1_000)
        .with_think_time_ms(1_000)
        .with_seed(42)
}

fn run(dataset: &Dataset, config: FleetConfig) -> (FleetReport, f64) {
    let harness = FleetHarness::new(config);
    let start = Instant::now();
    // One shared engine service for the whole fleet: every session submits
    // into the same `Arc<dyn EngineService>` (scheduler + shared dataset
    // ingestion); sessions own no engine state.
    let service = ExactAdapter::with_defaults().into_service().into_shared();
    let outcome = harness.run(dataset, service).expect("fleet run succeeds");
    let report = FleetReport::evaluate(&outcome, dataset);
    (report, start.elapsed().as_secs_f64())
}

fn row(label: &str, report: &FleetReport, wall_s: f64) -> serde_json::Value {
    serde_json::json!({
        "case": label,
        "sessions": report.sessions,
        "interactions": report.interactions,
        "queries": report.queries,
        "makespan_ms": report.makespan_ms,
        "interactions_per_s": report.interactions_per_s,
        "queries_per_s": report.queries_per_s,
        "latency_p50_ms": report.latency_p50_ms,
        "latency_p95_ms": report.latency_p95_ms,
        "latency_p99_ms": report.latency_p99_ms,
        "tr_violation_rate": report.tr_violation_rate,
        "cache_hit_rate": report.cache_hit_rate,
        "cache_entries": report.cache_entries,
        "harness_wall_s": wall_s,
    })
}

fn main() {
    let dataset = Dataset::Denormalized(Arc::new(idebench_datagen::flights::generate(ROWS, 42)));
    let mut entries = Vec::new();

    // Closed-loop session scaling: the core fleet table. Session 0 of every
    // fleet is exactly the 1-session run (seed derivation keeps the base
    // seed), so rows are directly comparable.
    let mut baseline_qps = f64::NAN;
    let mut qps_at_4 = f64::NAN;
    for sessions in [1usize, 2, 4, 8] {
        let cfg =
            FleetConfig::new(settings(), sessions).with_workflow(WorkflowType::Mixed, WORKFLOW_LEN);
        let (report, wall_s) = run(&dataset, cfg);
        if sessions == 1 {
            baseline_qps = report.queries_per_s;
        }
        if sessions == 4 {
            qps_at_4 = report.queries_per_s;
        }
        println!(
            "closed_loop_{sessions:<2} sessions   {:>7.2} q/s   {:>6.2} inter/s   p50/p95/p99 \
             {:>4.0}/{:>4.0}/{:>4.0} ms   viol {:>4.1}%   cache {:>4.1}%   wall {wall_s:.2}s",
            report.queries_per_s,
            report.interactions_per_s,
            report.latency_p50_ms,
            report.latency_p95_ms,
            report.latency_p99_ms,
            report.tr_violation_rate * 100.0,
            report.cache_hit_rate * 100.0,
        );
        entries.push(row(
            &format!("closed_loop_{sessions}_sessions"),
            &report,
            wall_s,
        ));
    }

    // Shared-dashboard variant: 4 analysts opening the same dashboard at
    // staggered (Poisson) times — the cross-session semantic cache serves
    // later arrivals from earlier arrivals' completed results (causally:
    // simultaneous openers cannot share, which is why this row staggers).
    let cfg = FleetConfig::new(settings(), 4)
        .with_workflow(WorkflowType::Mixed, WORKFLOW_LEN)
        .with_shared_workflow(true)
        .with_load(LoadModel::Open {
            arrival_rate_per_s: 0.05,
        });
    let (shared_report, wall_s) = run(&dataset, cfg);
    println!(
        "shared_dashboard_4 sessions   {:>7.2} q/s   cache {:>4.1}% hits ({} entries)   wall {wall_s:.2}s",
        shared_report.queries_per_s,
        shared_report.cache_hit_rate * 100.0,
        shared_report.cache_entries,
    );
    entries.push(row("shared_dashboard_4_sessions", &shared_report, wall_s));

    // Open-loop variant: 8 sessions arriving by a Poisson process.
    let cfg = FleetConfig::new(settings(), 8)
        .with_workflow(WorkflowType::Mixed, WORKFLOW_LEN)
        .with_load(LoadModel::Open {
            arrival_rate_per_s: 0.25,
        });
    let (open_report, wall_s) = run(&dataset, cfg);
    println!(
        "open_loop_8        sessions   {:>7.2} q/s   makespan {:>6.1}s   viol {:>4.1}%   wall {wall_s:.2}s",
        open_report.queries_per_s,
        open_report.makespan_ms / 1e3,
        open_report.tr_violation_rate * 100.0,
    );
    entries.push(row("open_loop_8_sessions_0.25_per_s", &open_report, wall_s));

    let gate_ok = qps_at_4 >= baseline_qps;
    let report = serde_json::json!({
        "benchmark": "fleet",
        "rows": ROWS,
        "workflow_len": WORKFLOW_LEN,
        "gate": {
            "criterion": "closed-loop 4-session queries/s >= 1-session baseline",
            "baseline_queries_per_s": baseline_qps,
            "four_session_queries_per_s": qps_at_4,
            "ok": gate_ok,
        },
        "cases": entries,
    });
    std::fs::write(
        "BENCH_fleet.json",
        serde_json::to_string_pretty(&report).unwrap(),
    )
    .expect("write BENCH_fleet.json");
    println!("wrote BENCH_fleet.json");

    if !gate_ok {
        eprintln!(
            "fleet throughput gate failed: 4 sessions at {qps_at_4:.2} q/s fell below the \
             1-session baseline of {baseline_qps:.2} q/s"
        );
        std::process::exit(1);
    }
}
