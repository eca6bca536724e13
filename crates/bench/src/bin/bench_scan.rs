//! Scan-throughput benchmark: emits `BENCH_scan.json` with rows/sec for the
//! vectorized execution core on the paper's canonical scan shapes, plus the
//! retained scalar reference path for the speedup ratio, per-worker-count
//! scaling rows for the parallel morsel dispatcher, and star-schema join
//! cases comparing each normalized query against the same query on the
//! denormalized twin table.
//!
//! Three cases target the morsel kernels' shortcuts: a shuffled-order
//! width + AVG scan gathered through a visit order (late gathers), a
//! selective three-conjunct AND (filter words that stop early), and an
//! integer width binning (table-driven slots). A fourth reads the same
//! shuffled sequence from a physically pre-shuffled copy in natural
//! order, as the progressive engine scans, against the gathered scan.
//!
//! Every rate is the median over [`REPS`] timed repetitions after one
//! warm-up, reported with its interquartile range (`*_iqr`, as
//! `[q1, q3]` rows/s): a best-of-N rate drifts with host noise and does
//! not compare across runs.
//!
//! Doubles as the CI regression gate, median over median: the process
//! writes its report, then exits non-zero if any vectorized case (star
//! cases included) drops below 1× the scalar path, the pre-shuffled case
//! below 1× the gathered one, or any star-join case below
//! [`STAR_VS_FLAT_FLOOR`]× its flat twin.

use idebench_core::spec::{AggFunc, AggregateSpec, BinDef};
use idebench_core::{FilterExpr, Predicate, Query, VizSpec};
use idebench_query::{
    available_workers, execute_exact, execute_exact_parallel, execute_exact_scalar,
    execute_exact_scalar_with_order, AccMode, ChunkedRun, CompiledPlan, SnapshotMode,
};
use idebench_storage::Dataset;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 500_000;
/// Larger table for the worker-scaling rows, so per-chunk work dominates
/// thread-pool overhead.
const SCALING_ROWS: usize = 2_000_000;

/// Timed repetitions per measured rate.
const REPS: usize = 15;

/// Lowest accepted star-join throughput as a fraction of the same query
/// on the denormalized twin: joins lowered to flat slices must run close
/// to de-normalized speed.
const STAR_VS_FLAT_FLOOR: f64 = 0.75;

/// A throughput measurement: the median rate and its interquartile range.
#[derive(Debug, Clone, Copy)]
struct Rate {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Rate {
    fn iqr_json(&self) -> serde_json::Value {
        serde_json::json!([self.q1, self.q3])
    }
}

/// The rate of one timed run of `f` over `rows` rows.
fn timed(rows: usize, f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    rows as f64 / start.elapsed().as_secs_f64()
}

fn time_rows_per_sec(rows: usize, mut f: impl FnMut()) -> Rate {
    // Warm-up, then the rate of every measured repetition.
    f();
    rate_of((0..REPS).map(|_| timed(rows, &mut f)).collect())
}

/// Times `a` and `b` in alternating repetitions, so that a drift in host
/// speed during the measurement moves both rates alike — the star-join
/// gate compares the two.
fn time_pair_rows_per_sec(rows: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (Rate, Rate) {
    a();
    b();
    let (mut ra, mut rb) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for _ in 0..REPS {
        ra.push(timed(rows, &mut a));
        rb.push(timed(rows, &mut b));
    }
    (rate_of(ra), rate_of(rb))
}

fn rate_of(mut rates: Vec<f64>) -> Rate {
    rates.sort_by(f64::total_cmp);
    let at = |p: f64| rates[((rates.len() - 1) as f64 * p).round() as usize];
    Rate {
        median: at(0.5),
        q1: at(0.25),
        q3: at(0.75),
    }
}

fn filtered_1d_nominal() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![BinDef::Nominal {
            dimension: "carrier".into(),
        }],
        vec![AggregateSpec::over(AggFunc::Avg, "dep_delay")],
    );
    Query::for_viz(
        &spec,
        Some(
            FilterExpr::Pred(Predicate::In {
                column: "carrier".into(),
                values: vec!["C00".into(), "C01".into(), "C02".into()],
            })
            .and(FilterExpr::Pred(Predicate::Range {
                column: "dep_delay".into(),
                min: 0.0,
                max: 60.0,
            })),
        ),
    )
}

fn exact_scan() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![BinDef::Nominal {
            dimension: "carrier".into(),
        }],
        vec![AggregateSpec::count()],
    );
    Query::for_viz(&spec, None)
}

/// Bucketed × bucketed 2D aggregation. The delay columns' min/max stats
/// bound both bucket spaces, so this lowers to the dense flat-array store.
fn binned_2d() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![
            BinDef::Width {
                dimension: "dep_delay".into(),
                width: 10.0,
                anchor: 0.0,
            },
            BinDef::Width {
                dimension: "arr_delay".into(),
                width: 10.0,
                anchor: 0.0,
            },
        ],
        vec![
            AggregateSpec::count(),
            AggregateSpec::over(AggFunc::Avg, "arr_delay"),
        ],
    );
    Query::for_viz(&spec, None)
}

/// Nominal × bucketed 2D aggregation — the mixed shape the dense bucketed
/// lowering targets (heatmap of carrier × delay band).
fn dense_bucketed_2d() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![
            BinDef::Nominal {
                dimension: "carrier".into(),
            },
            BinDef::Width {
                dimension: "dep_delay".into(),
                width: 5.0,
                anchor: 0.0,
            },
        ],
        vec![
            AggregateSpec::count(),
            AggregateSpec::over(AggFunc::Avg, "arr_delay"),
        ],
    );
    Query::for_viz(&spec, None)
}

/// A selective three-conjunct AND: a narrow late-departure band rejects
/// most morsels whole before the integer `month` range and the IN list
/// run.
fn selective_3_conjunct_and() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![BinDef::Nominal {
            dimension: "carrier".into(),
        }],
        vec![AggregateSpec::over(AggFunc::Avg, "arr_delay")],
    );
    Query::for_viz(
        &spec,
        Some(FilterExpr::And(vec![
            FilterExpr::Pred(Predicate::Range {
                column: "dep_delay".into(),
                min: 150.0,
                max: 152.0,
            }),
            FilterExpr::Pred(Predicate::Range {
                column: "month".into(),
                min: 3.0,
                max: 10.0,
            }),
            FilterExpr::Pred(Predicate::In {
                column: "carrier".into(),
                values: vec!["C00".into(), "C01".into(), "C02".into(), "C03".into()],
            }),
        ])),
    )
}

/// Width-1 COUNT histogram over the integer `month` column.
fn int_width_binning() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![BinDef::Width {
            dimension: "month".into(),
            width: 1.0,
            anchor: 0.0,
        }],
        vec![AggregateSpec::count()],
    );
    Query::for_viz(&spec, None)
}

/// 1D width binning with an AVG, scanned in a shuffled order.
fn shuffled_1d_width_avg() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![BinDef::Width {
            dimension: "dep_delay".into(),
            width: 5.0,
            anchor: 0.0,
        }],
        vec![
            AggregateSpec::count(),
            AggregateSpec::over(AggFunc::Avg, "arr_delay"),
        ],
    );
    Query::for_viz(&spec, None)
}

/// Scans `q` to completion over `order` (natural order when `None`), as
/// the progressive engine steps a run (the exact snapshot of the finished
/// run).
fn scan_in_order(
    ds: &Dataset,
    q: &Query,
    order: Option<&Arc<Vec<u32>>>,
) -> idebench_core::AggResult {
    let mut run =
        ChunkedRun::with_order(ds.clone(), q.clone(), order.cloned(), SnapshotMode::Exact)
            .expect("shuffled bench query compiles");
    while !run.is_done() {
        run.advance(u64::MAX);
    }
    run.snapshot().expect("finished run has a snapshot")
}

/// 1D nominal binning reached through a foreign key (star schema).
fn star_1d_nominal_via_fk() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![BinDef::Nominal {
            dimension: "carrier".into(),
        }],
        vec![AggregateSpec::over(AggFunc::Avg, "dep_delay")],
    );
    Query::for_viz(&spec, None)
}

/// 2D joined×joined dense aggregation: both binning dimensions live in
/// dimension tables, so a row reaches two foreign keys — the shape the
/// join-devirtualization layer targets. COUNT keeps the case join-bound
/// (measure-update cost is identical on every path; the 1D case covers
/// measures next to joins).
fn star_joined_2d_agg() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![
            BinDef::Nominal {
                dimension: "carrier".into(),
            },
            BinDef::Nominal {
                dimension: "origin_state".into(),
            },
        ],
        vec![AggregateSpec::count()],
    );
    Query::for_viz(&spec, None)
}

/// Prints one vectorized-vs-scalar case, records a gate failure when the
/// median speedup drops below 1×, and returns its report entry.
fn report_case(
    name: &str,
    dense: bool,
    vec_rps: Rate,
    scalar_rps: Rate,
    regressions: &mut Vec<String>,
) -> serde_json::Value {
    let speedup = vec_rps.median / scalar_rps.median;
    println!(
        "{name:<32} vectorized {:>12.0} rows/s (iqr {:.0}-{:.0})   scalar {:>12.0} rows/s   speedup {speedup:.2}x   {}",
        vec_rps.median,
        vec_rps.q1,
        vec_rps.q3,
        scalar_rps.median,
        if dense { "dense" } else { "sparse" }
    );
    if speedup < 1.0 {
        regressions.push(format!("{name}: {speedup:.2}x"));
    }
    serde_json::json!({
        "case": name,
        "rows": ROWS,
        "dense": dense,
        "vectorized_rows_per_sec": vec_rps.median,
        "vectorized_iqr": vec_rps.iqr_json(),
        "scalar_rows_per_sec": scalar_rps.median,
        "scalar_iqr": scalar_rps.iqr_json(),
        "speedup": speedup,
    })
}

fn main() {
    let table = idebench_datagen::flights::generate(ROWS, 42);
    let ds = Dataset::Denormalized(Arc::new(table.clone()));
    let star = idebench_datagen::normalize_flights(&table).expect("flights normalize");

    let cases: [(&str, Query); 6] = [
        ("exact_scan_1d_nominal_count", exact_scan()),
        ("filtered_scan_1d_nominal_avg", filtered_1d_nominal()),
        ("binned_2d_agg", binned_2d()),
        ("dense_bucketed_2d_agg", dense_bucketed_2d()),
        ("selective_3_conjunct_and", selective_3_conjunct_and()),
        ("int_width_binning_count", int_width_binning()),
    ];

    let mut entries = Vec::new();
    let mut regressions = Vec::new();
    for (name, q) in &cases {
        let plan = CompiledPlan::compile(&ds, q).expect("bench query compiles");
        let dense = matches!(plan.acc_mode(), AccMode::Dense(_));
        assert_eq!(
            execute_exact(&ds, q).unwrap(),
            execute_exact_scalar(&ds, q).unwrap(),
            "vectorized and scalar paths must agree on {name}"
        );
        let vec_rps = time_rows_per_sec(ROWS, || {
            let _ = execute_exact(&ds, q).unwrap();
        });
        let scalar_rps = time_rows_per_sec(ROWS, || {
            let _ = execute_exact_scalar(&ds, q).unwrap();
        });
        entries.push(report_case(
            name,
            dense,
            vec_rps,
            scalar_rps,
            &mut regressions,
        ));
    }

    // Shuffled-order scan, as the progressive engine runs it: asserted
    // bit-identical to the scalar reference visiting the same order.
    {
        let name = "shuffled_1d_width_avg";
        let q = shuffled_1d_width_avg();
        let mut order: Vec<u32> = (0..ROWS as u32).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(7));
        let order = Arc::new(order);
        ds.warm_numeric_stats();
        let plan = CompiledPlan::compile(&ds, &q).expect("bench query compiles");
        let dense = matches!(plan.acc_mode(), AccMode::Dense(_));
        let gathered = scan_in_order(&ds, &q, Some(&order));
        assert_eq!(
            gathered,
            execute_exact_scalar_with_order(&ds, &q, Some(&order)).unwrap(),
            "shuffled vectorized and scalar paths must agree on {name}"
        );
        let vec_rps = time_rows_per_sec(ROWS, || {
            let _ = scan_in_order(&ds, &q, Some(&order));
        });
        let scalar_rps = time_rows_per_sec(ROWS, || {
            let _ = execute_exact_scalar_with_order(&ds, &q, Some(&order)).unwrap();
        });
        entries.push(report_case(
            name,
            dense,
            vec_rps,
            scalar_rps,
            &mut regressions,
        ));

        // The same visit sequence read from a physically pre-shuffled copy
        // in natural order, as the progressive engine scans: asserted
        // bit-identical to the gathered scan, gated at >= 1x of it.
        let name = "preshuffled_1d_width_avg";
        let copy = ds.permuted(&order);
        assert_eq!(
            scan_in_order(&copy, &q, None),
            gathered,
            "pre-shuffled and gathered scans must agree on {name}"
        );
        let copy_rps = time_rows_per_sec(ROWS, || {
            let _ = scan_in_order(&copy, &q, None);
        });
        let vs_gather = copy_rps.median / vec_rps.median;
        println!(
            "{name:<32} vectorized {:>12.0} rows/s (iqr {:.0}-{:.0})   gathered {:>12.0} rows/s   speedup {vs_gather:.2}x",
            copy_rps.median, copy_rps.q1, copy_rps.q3, vec_rps.median,
        );
        if vs_gather < 1.0 {
            regressions.push(format!("{name}: {vs_gather:.2}x vs gathered"));
        }
        entries.push(serde_json::json!({
            "case": name,
            "rows": ROWS,
            "dense": dense,
            "vectorized_rows_per_sec": copy_rps.median,
            "vectorized_iqr": copy_rps.iqr_json(),
            "gathered_rows_per_sec": vec_rps.median,
            "gathered_iqr": vec_rps.iqr_json(),
            "scalar_rows_per_sec": scalar_rps.median,
            "scalar_iqr": scalar_rps.iqr_json(),
            "speedup": copy_rps.median / scalar_rps.median,
            "speedup_vs_gathered": vs_gather,
        }));
    }

    // Star-schema join cases: the normalized query against the same query
    // on the denormalized twin `ds`, timed in alternation (gated at
    // STAR_VS_FLAT_FLOOR), and against the scalar reference (gated at 1x).
    // The star path is asserted bit-identical to the scalar one first.
    let star_cases: [(&str, Query); 2] = [
        ("star_1d_nominal_via_fk", star_1d_nominal_via_fk()),
        ("star_joined_2d_agg", star_joined_2d_agg()),
    ];
    for (name, q) in &star_cases {
        let plan = CompiledPlan::compile(&star, q).expect("star bench query compiles");
        let dense = matches!(plan.acc_mode(), AccMode::Dense(_));
        assert_eq!(
            execute_exact(&star, q).unwrap(),
            execute_exact_scalar(&star, q).unwrap(),
            "star path must agree with scalar on {name}"
        );
        let (star_rps, flat_rps) = time_pair_rows_per_sec(
            ROWS,
            || {
                let _ = execute_exact(&star, q).unwrap();
            },
            || {
                let _ = execute_exact(&ds, q).unwrap();
            },
        );
        let scalar_rps = time_rows_per_sec(ROWS, || {
            let _ = execute_exact_scalar(&star, q).unwrap();
        });
        let vs_flat = star_rps.median / flat_rps.median;
        let vs_scalar = star_rps.median / scalar_rps.median;
        println!(
            "{name:<32} star {:>11.0} rows/s   flat twin {:>11.0} rows/s   vs flat {vs_flat:.2}x (vs scalar {vs_scalar:.2}x)   {}",
            star_rps.median,
            flat_rps.median,
            if dense { "dense" } else { "sparse" }
        );
        if vs_flat < STAR_VS_FLAT_FLOOR {
            regressions.push(format!("{name}: {vs_flat:.2}x vs flat twin"));
        }
        if vs_scalar < 1.0 {
            regressions.push(format!("{name}: {vs_scalar:.2}x vs scalar"));
        }
        entries.push(serde_json::json!({
            "case": name,
            "rows": ROWS,
            "dense": dense,
            "joined": true,
            "vectorized_rows_per_sec": star_rps.median,
            "vectorized_iqr": star_rps.iqr_json(),
            "flat_twin_rows_per_sec": flat_rps.median,
            "flat_twin_iqr": flat_rps.iqr_json(),
            "scalar_rows_per_sec": scalar_rps.median,
            "scalar_iqr": scalar_rps.iqr_json(),
            "speedup": vs_scalar,
            "speedup_vs_flat_twin": vs_flat,
        }));
    }
    let join_stats = star.as_star().unwrap().join_cache_stats();
    println!(
        "join cache: {} materializations, {} bytes, {} hits",
        join_stats.entries, join_stats.bytes, join_stats.hits
    );

    // Worker-scaling rows on the unfiltered count scan: rows/sec per worker
    // count, speedups relative to the single-worker vectorized baseline
    // (PR 1's path) and to the scalar reference. Results are asserted
    // bit-identical across worker counts before timing.
    let cores = available_workers();
    let scaling_ds = Dataset::Denormalized(Arc::new(idebench_datagen::flights::generate(
        SCALING_ROWS,
        42,
    )));
    let scan = exact_scan();
    let scalar_ref = execute_exact_scalar(&scaling_ds, &scan).unwrap();
    let scalar_rps = time_rows_per_sec(SCALING_ROWS, || {
        let _ = execute_exact_scalar(&scaling_ds, &scan).unwrap();
    })
    .median;
    let mut worker_counts = vec![1usize, 2, 4];
    if !worker_counts.contains(&cores) {
        worker_counts.push(cores);
    }
    let mut scaling = Vec::new();
    let mut baseline_rps = f64::NAN;
    for &workers in &worker_counts {
        assert_eq!(
            execute_exact_parallel(&scaling_ds, &scan, workers).unwrap(),
            scalar_ref,
            "parallel scan ({workers} workers) must stay bit-identical to scalar"
        );
        let rate = time_rows_per_sec(SCALING_ROWS, || {
            let _ = execute_exact_parallel(&scaling_ds, &scan, workers).unwrap();
        });
        let rps = rate.median;
        if workers == 1 {
            baseline_rps = rps;
        }
        println!(
            "count_scan_workers_{workers:<2}           parallel   {rps:>12.0} rows/s   vs 1-worker {:.2}x   vs scalar {:.2}x",
            rps / baseline_rps,
            rps / scalar_rps,
        );
        scaling.push(serde_json::json!({
            "case": "exact_scan_1d_nominal_count",
            "rows": SCALING_ROWS,
            "workers": workers,
            "rows_per_sec": rps,
            "iqr": rate.iqr_json(),
            "speedup_vs_single_worker": rps / baseline_rps,
            "speedup_vs_scalar": rps / scalar_rps,
        }));
    }

    // Multi-worker rows on a 1-core machine only measure pool overhead;
    // flag them so nobody reads ~1.0x as the dispatcher's ceiling.
    let scaling_note = if cores == 1 {
        "machine has 1 core: scaling rows are non-evidentiary (they measure \
         dispatch overhead, not parallel speedup); regenerate on a \
         multi-core host"
    } else {
        ""
    };
    let report = serde_json::json!({
        "benchmark": "scan",
        "reps": REPS,
        "available_cores": cores,
        "scaling_note": scaling_note,
        "join_cache": {
            "materializations": join_stats.entries,
            "bytes": join_stats.bytes,
            "hits": join_stats.hits,
        },
        "cases": entries,
        "scaling": scaling,
    });
    std::fs::write(
        "BENCH_scan.json",
        serde_json::to_string_pretty(&report).unwrap(),
    )
    .expect("write BENCH_scan.json");
    println!("wrote BENCH_scan.json (available cores: {cores})");

    if !regressions.is_empty() {
        eprintln!(
            "scan gates failed (vectorized >= 1x scalar, pre-shuffled >= 1x gathered, \
             star >= {STAR_VS_FLAT_FLOOR}x flat twin): {regressions:?}"
        );
        std::process::exit(1);
    }
}
