//! Chunked query execution — the building block engines step.
//!
//! A [`ChunkedRun`] compiles its query into an owned [`CompiledPlan`]
//! **once** at construction and then advances through the data in
//! [`crate::batch::MORSEL`]-sized batches, evaluating filters into bitmasks,
//! computing bin slots per batch, and accumulating matches in bulk.
//! Accumulation runs through the [`crate::dispatch::MorselDispatcher`]:
//! fixed [`crate::dispatch::CHUNK_ROWS`]-sized chunks, each with its own
//! accumulator, fanned out over the persistent [`crate::pool::ScanPool`]
//! when [`ChunkedRun::set_workers`] grants more than one worker and merged
//! back in chunk order so results are bit-identical for every worker count. The
//! scalar reference path ([`execute_exact_scalar`]) retains the original
//! row-at-a-time evaluation semantics (folded over the same chunk grid) for
//! differential testing.

use crate::aggregate::GroupedAcc;
use crate::dispatch::{MorselDispatcher, CHUNK_ROWS};
use crate::plan::CompiledPlan;
use crate::resolve::ResolvedQuery;
use idebench_core::{AggResult, CoreError, Query};
use idebench_storage::Dataset;
use std::sync::Arc;

/// How a [`ChunkedRun`] snapshot turns accumulated state into a result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SnapshotMode {
    /// Values are exact once the scan completes (blocking engines).
    Exact,
    /// Values are scale-up estimates of a uniform sample of the rows
    /// processed so far; `z` is the confidence z-value, `population` the
    /// total row count estimates are scaled to. Snapshots are available as
    /// soon as any row has been processed (progressive engines).
    Estimate {
        /// z-value for the configured confidence level.
        z: f64,
        /// Population size estimates scale up to.
        population: u64,
    },
    /// Like `Estimate`, but the snapshot only becomes available once the
    /// scan completes (blocking engines over offline sample tables).
    EstimateAtEnd {
        /// z-value for the configured confidence level.
        z: f64,
        /// Population size estimates scale up to.
        population: u64,
    },
}

/// A query scan that can be advanced in work-unit-bounded chunks.
///
/// The run owns its compiled plan (which owns the dataset handle) and an
/// optional row *order* (progressive engines scan a shuffled order so any
/// prefix is a uniform sample). Engines wrap this in their
/// [`idebench_core::QueryHandle`] implementations.
pub struct ChunkedRun {
    plan: CompiledPlan,
    /// Row visit order; `None` = natural order 0..n.
    order: Option<Arc<Vec<u32>>>,
    /// Chunk-partitioned accumulation state + worker pool.
    dispatcher: MorselDispatcher,
    cursor: usize,
    num_rows: usize,
    row_cost: f64,
    /// Extra cost per row that passes the filter (aggregation work scales
    /// with qualifying tuples, which is what makes filter selectivity the
    /// dominant cost factor — the paper's Exp-4 finding).
    match_cost: f64,
    /// Fixed work consumed before the first row is processed (planning,
    /// warm-up). Charged against the first `advance` budgets.
    startup_units: u64,
    startup_remaining: u64,
    mode: SnapshotMode,
    /// Total fractional row work performed (monotone).
    row_work: f64,
    /// Total row work billed to callers, in integer units (monotone,
    /// `row_billed == ceil(row_work)` up to per-call budget clamping).
    row_billed: u64,
}

impl ChunkedRun {
    /// Creates a run over the natural row order.
    pub fn new(dataset: Dataset, query: Query, mode: SnapshotMode) -> Result<Self, CoreError> {
        Self::with_order(dataset, query, None, mode)
    }

    /// Creates a run visiting rows in the given order (e.g. a shuffle).
    pub fn with_order(
        dataset: Dataset,
        query: Query,
        order: Option<Arc<Vec<u32>>>,
        mode: SnapshotMode,
    ) -> Result<Self, CoreError> {
        let plan = CompiledPlan::compile(&dataset, &query)?;
        Ok(Self::from_plan(plan, order, mode))
    }

    /// Creates a run from an already-compiled plan (engines compile once
    /// for cost modelling and hand the same plan to the run — the query is
    /// never compiled twice).
    pub fn from_plan(plan: CompiledPlan, order: Option<Arc<Vec<u32>>>, mode: SnapshotMode) -> Self {
        let num_rows = plan.num_rows();
        let row_cost = plan.row_cost() as f64;
        if let Some(o) = &order {
            debug_assert_eq!(o.len(), num_rows, "order must cover every row");
        }
        let dispatcher = MorselDispatcher::new(&plan);
        ChunkedRun {
            plan,
            order,
            dispatcher,
            cursor: 0,
            num_rows,
            row_cost,
            match_cost: 0.0,
            startup_units: 0,
            startup_remaining: 0,
            mode,
            row_work: 0.0,
            row_billed: 0,
        }
    }

    /// Overrides the per-row work-unit cost (engine cost models).
    pub fn set_row_cost(&mut self, cost: f64) {
        assert!(cost > 0.0 && cost.is_finite(), "row cost must be positive");
        self.row_cost = cost;
    }

    /// Sets the extra cost charged per filter-matching row.
    pub fn set_match_cost(&mut self, cost: f64) {
        assert!(cost >= 0.0 && cost.is_finite(), "match cost must be >= 0");
        self.match_cost = cost;
    }

    /// Sets a fixed startup cost consumed before any row is processed.
    pub fn set_startup_units(&mut self, units: u64) {
        self.startup_units = units;
        self.startup_remaining = units;
    }

    /// Sets the scan's worker-pool size (clamped to ≥ 1; `1` keeps the
    /// sequential path). Thanks to the dispatcher's fixed chunk grid and
    /// in-order partial merge, the result is bit-identical for every value.
    pub fn set_workers(&mut self, workers: usize) {
        self.dispatcher.set_workers(workers);
    }

    /// The scan's worker-pool size.
    pub fn workers(&self) -> usize {
        self.dispatcher.workers()
    }

    /// Per-row work-unit cost.
    pub fn row_cost(&self) -> f64 {
        self.row_cost
    }

    /// Rows processed so far.
    pub fn rows_done(&self) -> usize {
        self.cursor
    }

    /// Total rows to process.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Whether the scan is complete.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.num_rows
    }

    /// Fraction of rows processed.
    pub fn progress(&self) -> f64 {
        if self.num_rows == 0 {
            1.0
        } else {
            self.cursor as f64 / self.num_rows as f64
        }
    }

    /// Processes rows until `budget_units` is exhausted or the scan ends.
    /// Returns the units actually consumed.
    ///
    /// # Budget accounting
    ///
    /// Accounting is *monotone and exactly budget-capped*: fractional work
    /// (and the matched-row surcharge, which is only known after a row is
    /// processed) is carried across calls — a call never reports more than
    /// `budget_units`, and the total reported over a scan equals the total
    /// work rounded up, no matter how the budget is sliced.
    ///
    /// # Parallel dispatch
    ///
    /// The budget governs *how many rows* this call may process; the
    /// dispatcher decides *who processes them*. Each iteration sizes a span
    /// conservatively (so even all-matching rows fit the remaining room —
    /// one whole budget grant thereby splits across all workers at once),
    /// hands it to the [`MorselDispatcher`], folds the actual surcharge
    /// into `row_work`, and re-fits. A grant too small for even one
    /// worst-case row still takes a single row, so *any* positive budget
    /// makes forward progress — no starvation at tiny quanta — with the
    /// overdraw carried (never forgiven) into later calls' billing. Grants
    /// smaller than one chunk simply stay on the sequential in-process
    /// path; results are bit-identical either way.
    pub fn advance(&mut self, budget_units: u64) -> u64 {
        let mut consumed = 0u64;
        let mut budget = budget_units;
        // Pay any outstanding startup cost first.
        if self.startup_remaining > 0 {
            let pay = self.startup_remaining.min(budget);
            self.startup_remaining -= pay;
            consumed += pay;
            budget -= pay;
        }
        if budget == 0 {
            return consumed;
        }

        const EPS: f64 = 1e-9;
        // Allowed total row work after this call: everything already billed
        // plus this call's budget. Unbilled overdraw from previous calls
        // (row_work > row_billed) shrinks the remaining room automatically —
        // and is still billed below once the scan itself is complete.
        let cap = self.row_billed as f64 + budget as f64;
        let worst_row = self.row_cost + self.match_cost;
        while self.cursor < self.num_rows && self.row_work + self.row_cost <= cap + EPS {
            let room = cap + EPS - self.row_work;
            // Size the span so even all-matching rows stay within budget;
            // when not even one worst-case row fits, take a single row (the
            // surcharge overdraw is carried to the next call).
            let fit = (room / worst_row) as usize;
            let take = (self.num_rows - self.cursor).min(fit.max(1));
            let matched = self.dispatcher.scan_span(
                &self.plan,
                self.order.as_ref().map(|o| o.as_slice()),
                self.cursor,
                take,
                self.num_rows,
            );
            self.row_work += take as f64 * self.row_cost + matched as f64 * self.match_cost;
            self.cursor += take;
        }

        // Bill the newly performed work, rounded up, capped by the budget.
        let billed_target = (self.row_work - EPS).ceil().max(0.0) as u64;
        let delta = billed_target.saturating_sub(self.row_billed).min(budget);
        self.row_billed += delta;
        consumed + delta
    }

    /// The current result under the run's snapshot mode.
    ///
    /// In `Exact` mode this returns `None` until the scan completes; in
    /// `Estimate` mode it returns an estimate as soon as at least one row
    /// has been processed.
    pub fn snapshot(&self) -> Option<AggResult> {
        match self.mode {
            SnapshotMode::Exact => {
                if self.is_done() {
                    Some(self.dispatcher.grouped().finish_exact())
                } else {
                    None
                }
            }
            SnapshotMode::Estimate { z, population } => {
                if self.cursor == 0 && self.num_rows > 0 {
                    None
                } else if self.is_done() && population as usize == self.num_rows {
                    // A completed full-population scan is exact.
                    Some(self.dispatcher.grouped().finish_exact())
                } else {
                    Some(self.dispatcher.grouped().finish_estimate(population, z))
                }
            }
            SnapshotMode::EstimateAtEnd { z, population } => {
                if !self.is_done() {
                    None
                } else if population as usize == self.num_rows {
                    Some(self.dispatcher.grouped().finish_exact())
                } else {
                    Some(self.dispatcher.grouped().finish_estimate(population, z))
                }
            }
        }
    }

    /// The accumulated state, materialized into the canonical grouped
    /// representation (engines use this for result reuse).
    pub fn accumulator(&self) -> GroupedAcc {
        self.dispatcher.grouped()
    }

    /// The query this run executes.
    pub fn query(&self) -> &Query {
        self.plan.query()
    }

    /// The compiled plan driving this run.
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }
}

/// Runs a query to completion on the vectorized single-worker path,
/// returning the exact result.
///
/// This is both the ground-truth oracle and the execution path of the
/// blocking exact engine. [`execute_exact_parallel`] produces bit-identical
/// results on more workers.
pub fn execute_exact(dataset: &Dataset, query: &Query) -> Result<AggResult, CoreError> {
    execute_exact_parallel(dataset, query, 1)
}

/// Runs a query to completion on the vectorized path with the given worker
/// count, returning the exact result.
///
/// Results are bit-identical to [`execute_exact`] and
/// [`execute_exact_scalar`] for every `workers` value: the dispatcher's
/// chunk grid and in-order partial merge fix the floating-point
/// accumulation sequence independently of scheduling.
pub fn execute_exact_parallel(
    dataset: &Dataset,
    query: &Query,
    workers: usize,
) -> Result<AggResult, CoreError> {
    let plan = CompiledPlan::compile(dataset, query)?;
    let mut run = ChunkedRun::from_plan(plan, None, SnapshotMode::Exact);
    run.set_workers(workers);
    while !run.is_done() {
        run.advance(u64::MAX);
    }
    Ok(run.snapshot().expect("completed exact scan has a result"))
}

/// Runs a query to completion on the retained row-at-a-time reference path.
///
/// Kept (rather than deleted with the old executor) so differential tests
/// and benchmarks can pin the vectorized path against the original
/// semantics bit for bit. Evaluation (filter, binning, measure updates) is
/// strictly row-at-a-time; the per-bin accumulators fold over the same
/// [`CHUNK_ROWS`] grid as the dispatcher, so the floating-point merge
/// sequence — and therefore every output bit — matches the vectorized path
/// at any worker count.
pub fn execute_exact_scalar(dataset: &Dataset, query: &Query) -> Result<AggResult, CoreError> {
    execute_exact_scalar_with_order(dataset, query, None)
}

/// [`execute_exact_scalar`] over an explicit visit order (position `i`
/// processes row `order[i]`), for differential tests against ordered runs.
///
/// This is the one place the scalar reference's chunk-folding lives — the
/// grid must match the dispatcher's, or bit-identity differentials would
/// compare against a stale fold.
pub fn execute_exact_scalar_with_order(
    dataset: &Dataset,
    query: &Query,
    order: Option<&[u32]>,
) -> Result<AggResult, CoreError> {
    let resolved = ResolvedQuery::new(dataset, query)?;
    if let Some(o) = order {
        assert_eq!(o.len(), resolved.num_rows, "order must cover every row");
    }
    let mut total = GroupedAcc::for_query(&resolved, query.aggregates());
    let mut chunk = GroupedAcc::for_query(&resolved, query.aggregates());
    for i in 0..resolved.num_rows {
        if i > 0 && i % CHUNK_ROWS == 0 {
            total.merge(&chunk);
            chunk = GroupedAcc::for_query(&resolved, query.aggregates());
        }
        let row = order.map_or(i, |o| o[i] as usize);
        chunk.process_row(&resolved, row);
    }
    total.merge(&chunk);
    Ok(total.finish_exact())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::thread_plan_compilations;
    use idebench_core::spec::{AggFunc, AggregateSpec, BinDef};
    use idebench_core::{BinCoord, BinKey, FilterExpr, Predicate, VizSpec};
    use idebench_storage::{DataType, TableBuilder};

    fn dataset(n: usize) -> Dataset {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("carrier", DataType::Nominal),
                ("dep_delay", DataType::Float),
            ],
        );
        for i in 0..n {
            let c = if i % 3 == 0 { "AA" } else { "DL" };
            b.push_row(&[c.into(), (i as f64).into()]).unwrap();
        }
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    fn count_query() -> Query {
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::count()],
        );
        Query::for_viz(&spec, None)
    }

    #[test]
    fn execute_exact_counts() {
        let ds = dataset(9);
        let r = execute_exact(&ds, &count_query()).unwrap();
        assert_eq!(r.value(&BinKey::d1(BinCoord::Cat(0)), 0), Some(3.0));
        assert_eq!(r.value(&BinKey::d1(BinCoord::Cat(1)), 0), Some(6.0));
        assert!(r.exact);
    }

    #[test]
    fn vectorized_matches_scalar_reference() {
        let ds = dataset(2_500);
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Width {
                dimension: "dep_delay".into(),
                width: 100.0,
                anchor: 0.0,
            }],
            vec![
                AggregateSpec::count(),
                AggregateSpec::over(AggFunc::Avg, "dep_delay"),
                AggregateSpec::over(AggFunc::Sum, "dep_delay"),
            ],
        );
        let q = Query::for_viz(
            &spec,
            Some(FilterExpr::Pred(Predicate::In {
                column: "carrier".into(),
                values: vec!["AA".into()],
            })),
        );
        assert_eq!(
            execute_exact(&ds, &q).unwrap(),
            execute_exact_scalar(&ds, &q).unwrap()
        );
    }

    #[test]
    fn chunked_exact_matches_oneshot() {
        let ds = dataset(100);
        let q = count_query();
        let mut run = ChunkedRun::new(ds.clone(), q.clone(), SnapshotMode::Exact).unwrap();
        // Exact mode: no snapshot mid-scan.
        run.advance(10);
        assert!(run.snapshot().is_none());
        while !run.is_done() {
            run.advance(7);
        }
        assert_eq!(run.snapshot().unwrap(), execute_exact(&ds, &q).unwrap());
    }

    #[test]
    fn plan_compiled_exactly_once_per_run() {
        let ds = dataset(500);
        // The counter is per thread: compilations by concurrently running
        // tests cannot move it, and `advance`/`snapshot` run on this thread.
        let before = thread_plan_compilations();
        let mut run = ChunkedRun::new(ds, count_query(), SnapshotMode::Exact).unwrap();
        let after_construction = thread_plan_compilations();
        assert_eq!(
            after_construction,
            before + 1,
            "one compile at construction"
        );
        while !run.is_done() {
            run.advance(13);
            let _ = run.snapshot();
        }
        assert_eq!(
            thread_plan_compilations(),
            after_construction,
            "advance/snapshot never recompile"
        );
    }

    #[test]
    fn advance_respects_budget_and_row_cost() {
        let ds = dataset(50);
        let mut run = ChunkedRun::new(ds, count_query(), SnapshotMode::Exact).unwrap();
        assert_eq!(run.row_cost(), 1.0);
        let used = run.advance(13);
        assert_eq!(used, 13);
        assert_eq!(run.rows_done(), 13);
        // Budget smaller than row cost consumes nothing.
        let mut tiny = run;
        let used = tiny.advance(0);
        assert_eq!(used, 0);
    }

    #[test]
    fn fractional_row_cost_scales_progress() {
        let ds = dataset(100);
        let mut run = ChunkedRun::new(ds, count_query(), SnapshotMode::Exact).unwrap();
        run.set_row_cost(2.5);
        let used = run.advance(25);
        assert_eq!(run.rows_done(), 10);
        assert_eq!(used, 25);
        // A sub-cost budget makes no progress.
        let used = run.advance(2);
        assert_eq!(used, 0);
        assert_eq!(run.rows_done(), 10);
    }

    #[test]
    fn match_cost_charges_matching_rows_only() {
        let ds = dataset(100);
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::count()],
        );
        // carrier AA on every third row.
        let q = Query::for_viz(
            &spec,
            Some(FilterExpr::Pred(Predicate::In {
                column: "carrier".into(),
                values: vec!["AA".into()],
            })),
        );
        let mut run = ChunkedRun::new(ds, q, SnapshotMode::Exact).unwrap();
        run.set_row_cost(1.0);
        run.set_match_cost(2.0);
        // 100 rows: 34 match (i % 3 == 0) → total cost 100 + 68 = 168.
        let mut total = 0u64;
        while !run.is_done() {
            let used = run.advance(50);
            assert!(used <= 50);
            total += used;
        }
        assert_eq!(total, 168, "budget accounting is exact");
    }

    #[test]
    fn budget_accounting_is_monotone_and_exact_under_slicing() {
        // Fractional costs + tiny budgets: the billed total must equal the
        // exact total work (rounded up) regardless of slicing, and every
        // call must respect its own budget.
        let total_work = |budget: u64| {
            let ds = dataset(97);
            let mut run = ChunkedRun::new(ds, count_query(), SnapshotMode::Exact).unwrap();
            run.set_row_cost(0.7);
            run.set_match_cost(0.3); // all rows match (no filter)
            let mut total = 0u64;
            let mut stalls = 0;
            while !run.is_done() {
                let used = run.advance(budget);
                assert!(used <= budget, "billed {used} over budget {budget}");
                total += used;
                if used == 0 {
                    stalls += 1;
                    assert!(stalls < 10_000, "advance stalled");
                }
            }
            total
        };
        // 97 rows * (0.7 + 0.3) = 97.0 exactly.
        for budget in [1, 2, 3, 5, 7, 50, 1_000] {
            assert_eq!(total_work(budget), 97, "budget {budget}");
        }
    }

    #[test]
    fn overdraw_is_carried_not_forgiven() {
        // match_cost larger than the budget: each call overdraws on its
        // single row, and the debt must surface in later calls' billing.
        let ds = dataset(10);
        let mut run = ChunkedRun::new(ds, count_query(), SnapshotMode::Exact).unwrap();
        run.set_row_cost(1.0);
        run.set_match_cost(4.0); // every row costs 5 in total
        let mut total = 0u64;
        while !run.is_done() {
            total += run.advance(2);
        }
        // Billing is capped at 2/call; the remaining debt is billed by the
        // post-completion calls below.
        while total < 50 {
            let used = run.advance(2);
            assert!(used <= 2);
            if used == 0 {
                break;
            }
            total += used;
        }
        assert_eq!(total, 50, "10 rows * 5 units fully billed");
        assert_eq!(run.advance(100), 0, "nothing left to bill");
    }

    #[test]
    fn startup_units_paid_before_rows() {
        let ds = dataset(100);
        let mut run = ChunkedRun::new(ds, count_query(), SnapshotMode::Exact).unwrap();
        run.set_startup_units(30);
        let used = run.advance(20);
        assert_eq!(used, 20);
        assert_eq!(run.rows_done(), 0);
        let used = run.advance(20);
        assert_eq!(used, 20); // 10 startup + 10 rows
        assert_eq!(run.rows_done(), 10);
    }

    #[test]
    fn estimate_at_end_withholds_partial_results() {
        let ds = dataset(100);
        let mut run = ChunkedRun::new(
            ds,
            count_query(),
            SnapshotMode::EstimateAtEnd {
                z: 1.96,
                population: 1_000,
            },
        )
        .unwrap();
        run.advance(50);
        assert!(run.snapshot().is_none());
        run.advance(100);
        let snap = run.snapshot().unwrap();
        assert!(!snap.exact);
        // Scaled 10× (100-row sample of a 1000-row population).
        let total: f64 = snap.bins.values().map(|s| s.values[0]).sum();
        assert!((total - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn estimate_snapshot_available_immediately() {
        let ds = dataset(1000);
        let q = count_query();
        let mut run = ChunkedRun::new(
            ds,
            q,
            SnapshotMode::Estimate {
                z: 1.96,
                population: 1000,
            },
        )
        .unwrap();
        assert!(run.snapshot().is_none());
        run.advance(100);
        let snap = run.snapshot().unwrap();
        assert!(!snap.exact);
        assert!((snap.processed_fraction - 0.1).abs() < 1e-9);
        // Count estimate should be near the true totals (the natural order
        // here is periodic, so exact thirds).
        let aa = snap.value(&BinKey::d1(BinCoord::Cat(0)), 0).unwrap();
        assert!((aa - 334.0).abs() < 10.0);
    }

    #[test]
    fn completed_estimate_of_full_population_is_exact() {
        let ds = dataset(60);
        let q = count_query();
        let mut run = ChunkedRun::new(
            ds.clone(),
            q.clone(),
            SnapshotMode::Estimate {
                z: 1.96,
                population: 60,
            },
        )
        .unwrap();
        while !run.is_done() {
            run.advance(64);
        }
        let snap = run.snapshot().unwrap();
        assert!(snap.exact);
        assert_eq!(snap, execute_exact(&ds, &q).unwrap());
    }

    #[test]
    fn shuffled_order_visits_every_row_once() {
        let ds = dataset(40);
        let q = count_query();
        let order: Arc<Vec<u32>> = Arc::new((0..40u32).rev().collect());
        let mut run =
            ChunkedRun::with_order(ds.clone(), q.clone(), Some(order), SnapshotMode::Exact)
                .unwrap();
        while !run.is_done() {
            run.advance(9);
        }
        assert_eq!(run.snapshot().unwrap(), execute_exact(&ds, &q).unwrap());
    }

    #[test]
    fn filtered_chunked_run() {
        let ds = dataset(100);
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Width {
                dimension: "dep_delay".into(),
                width: 10.0,
                anchor: 0.0,
            }],
            vec![AggregateSpec::over(AggFunc::Avg, "dep_delay")],
        );
        let q = Query::for_viz(
            &spec,
            Some(FilterExpr::Pred(Predicate::Range {
                column: "dep_delay".into(),
                min: 0.0,
                max: 50.0,
            })),
        );
        let mut run = ChunkedRun::new(ds.clone(), q.clone(), SnapshotMode::Exact).unwrap();
        while !run.is_done() {
            run.advance(33);
        }
        let snap = run.snapshot().unwrap();
        assert_eq!(snap.bins.len(), 5); // bins [0,10) .. [40,50)
        assert_eq!(snap, execute_exact(&ds, &q).unwrap());
        assert_eq!(run.accumulator().rows_matched, 50);
    }

    /// Rows with awkward (non-exactly-summable) float measures spanning
    /// several dispatch chunks — the data that would expose any
    /// order-dependent floating-point accumulation.
    fn float_dataset(n: usize) -> Dataset {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("carrier", DataType::Nominal),
                ("dep_delay", DataType::Float),
            ],
        );
        for i in 0..n {
            let c = match i % 7 {
                0 | 1 => "AA",
                2..=4 => "DL",
                _ => "UA",
            };
            // 0.1 steps are not exactly representable, so sums genuinely
            // depend on the accumulation association.
            b.push_row(&[c.into(), ((i % 1013) as f64 * 0.1 - 17.3).into()])
                .unwrap();
        }
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    fn float_query() -> Query {
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![
                BinDef::Nominal {
                    dimension: "carrier".into(),
                },
                BinDef::Width {
                    dimension: "dep_delay".into(),
                    width: 25.0,
                    anchor: 0.0,
                },
            ],
            vec![
                AggregateSpec::count(),
                AggregateSpec::over(AggFunc::Avg, "dep_delay"),
                AggregateSpec::over(AggFunc::Sum, "dep_delay"),
            ],
        );
        Query::for_viz(&spec, None)
    }

    #[test]
    fn parallel_bit_identical_to_scalar_across_worker_counts() {
        // > 3 chunks, so real cross-chunk merging happens.
        let ds = float_dataset(3 * CHUNK_ROWS + 517);
        let q = float_query();
        let scalar = execute_exact_scalar(&ds, &q).unwrap();
        for workers in [1, 2, 3, 8] {
            let parallel = execute_exact_parallel(&ds, &q, workers).unwrap();
            assert_eq!(parallel, scalar, "workers = {workers}");
        }
    }

    #[test]
    fn worker_count_never_changes_budget_sliced_results() {
        let ds = float_dataset(2 * CHUNK_ROWS + 99);
        let q = float_query();
        let mut reference: Option<AggResult> = None;
        for workers in [1, 4] {
            let mut run = ChunkedRun::new(ds.clone(), q.clone(), SnapshotMode::Exact).unwrap();
            run.set_workers(workers);
            // Odd slicing: spans cross chunk boundaries at uneven offsets.
            while !run.is_done() {
                run.advance(10_007);
            }
            let snap = run.snapshot().unwrap();
            match &reference {
                None => reference = Some(snap),
                Some(r) => assert_eq!(&snap, r, "workers = {workers}"),
            }
        }
    }

    #[test]
    fn tiny_budget_grants_progress_under_parallel_dispatcher() {
        // Regression: a budget grant smaller than one morsel (even smaller
        // than one worst-case row) must still make forward progress when
        // the run is configured for parallel dispatch — no starvation or
        // livelock at tiny quanta.
        let ds = float_dataset(CHUNK_ROWS + 700);
        let mut run = ChunkedRun::new(ds.clone(), float_query(), SnapshotMode::Exact).unwrap();
        run.set_workers(8);
        run.set_row_cost(1.0);
        run.set_match_cost(5.0); // worst-case row (6.0) far exceeds the grant
        let mut stalls = 0;
        let mut calls = 0u64;
        while !run.is_done() {
            let before = run.rows_done();
            let used = run.advance(2);
            assert!(used <= 2, "billing respects the tiny budget");
            calls += 1;
            if run.rows_done() == before {
                stalls += 1;
                assert!(stalls < 4, "advance must keep making row progress");
            } else {
                stalls = 0;
            }
            assert!(calls < 20 * (CHUNK_ROWS as u64 + 700), "livelocked");
        }
        assert_eq!(
            run.snapshot().unwrap(),
            execute_exact(&ds, &float_query()).unwrap(),
            "starved-budget scan still produces the exact result"
        );
    }

    #[test]
    fn dense_bucketed_two_d_matches_scalar() {
        // carrier × bucketed dep_delay lowers to the dense store (bounded
        // bucket space) and must agree with the hashed/scalar semantics.
        let ds = float_dataset(5_000);
        let q = float_query();
        let plan = CompiledPlan::compile(&ds, &q).unwrap();
        assert!(
            matches!(plan.acc_mode(), crate::plan::AccMode::Dense(_)),
            "nominal × bounded-bucket binning should be dense, got {:?}",
            plan.acc_mode()
        );
        assert_eq!(
            execute_exact(&ds, &q).unwrap(),
            execute_exact_scalar(&ds, &q).unwrap()
        );
    }

    /// A star schema big enough to span several morsels, with an optional
    /// join-cache capacity (0 forces the per-plan staged-FK fallback).
    fn star_dataset(n: usize, capacity: usize) -> Dataset {
        use idebench_storage::{DimensionSpec, StarSchema, Value};
        let mut f = TableBuilder::with_fields(
            "flights",
            &[
                ("dep_delay", DataType::Float),
                ("carrier_key", DataType::Int),
            ],
        );
        for i in 0..n {
            f.push_row(&[
                ((i % 1013) as f64 * 0.1 - 17.3).into(),
                ((i % 7) as i64).into(),
            ])
            .unwrap();
        }
        let mut d = TableBuilder::with_fields("carriers", &[("carrier", DataType::Nominal)]);
        for c in 0..7 {
            d.push_row(&[Value::Str(format!("C{c}"))]).unwrap();
        }
        Dataset::Star(Arc::new(
            StarSchema::with_join_cache_capacity(
                Arc::new(f.finish()),
                vec![(
                    DimensionSpec::new("carriers", "carrier_key", vec!["carrier".into()]),
                    Arc::new(d.finish()),
                )],
                capacity,
            )
            .unwrap(),
        ))
    }

    #[test]
    fn join_paths_agree_with_scalar_bit_for_bit() {
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![
                BinDef::Nominal {
                    dimension: "carrier".into(),
                },
                BinDef::Width {
                    dimension: "dep_delay".into(),
                    width: 25.0,
                    anchor: 0.0,
                },
            ],
            vec![
                AggregateSpec::count(),
                AggregateSpec::over(AggFunc::Avg, "dep_delay"),
                AggregateSpec::over(AggFunc::Sum, "dep_delay"),
            ],
        );
        let q = Query::for_viz(
            &spec,
            Some(FilterExpr::Pred(Predicate::In {
                column: "carrier".into(),
                values: vec!["C1".into(), "C4".into(), "C6".into()],
            })),
        );
        // Materialized (shared-cache) and staged (capacity 0) join access
        // must both equal the scalar reference.
        for capacity in [usize::MAX, 0] {
            let ds = star_dataset(5 * crate::batch::MORSEL + 311, capacity);
            let scalar = execute_exact_scalar(&ds, &q).unwrap();
            for workers in [1, 8] {
                let got = execute_exact_parallel(&ds, &q, workers).unwrap();
                assert_eq!(got, scalar, "capacity {capacity}, workers {workers}");
            }
        }
    }

    /// The filter shapes the scalar oracle's per-row `matches` treats
    /// specially (nulls, an unknown category, `And([])` inside an `Or`,
    /// `Or([])`) over 2,500 rows, across morsel boundaries. They run on a
    /// flat table and on its star twin, whose filtered and binned `x` is a
    /// nullable dimension attribute, both materialized and staged through
    /// the foreign key. Every run must equal the scalar oracle bit for bit.
    #[test]
    fn filter_edge_cases_agree_with_scalar_on_flat_and_star() {
        use idebench_storage::{DimensionSpec, StarSchema, Value};
        const ROWS: usize = 2_500;
        const DIM_ROWS: usize = 113;
        let key = |i: usize| (i * 37) % DIM_ROWS;
        let carrier = |d: usize| ["AA", "DL", "UA"][d % 3];
        let x = |d: usize| {
            if d.is_multiple_of(7) {
                Value::Null
            } else {
                Value::Float(d as f64 - 40.0)
            }
        };
        let y = |i: usize| (i % 11) as f64 * 0.5;

        let mut flat = TableBuilder::with_fields(
            "t",
            &[
                ("carrier", DataType::Nominal),
                ("x", DataType::Float),
                ("y", DataType::Float),
            ],
        );
        let mut fact =
            TableBuilder::with_fields("t", &[("y", DataType::Float), ("k", DataType::Int)]);
        for i in 0..ROWS {
            let d = key(i);
            flat.push_row(&[carrier(d).into(), x(d), y(i).into()])
                .unwrap();
            fact.push_row(&[y(i).into(), (d as i64).into()]).unwrap();
        }
        let mut dim = TableBuilder::with_fields(
            "dims",
            &[("carrier", DataType::Nominal), ("x", DataType::Float)],
        );
        for d in 0..DIM_ROWS {
            dim.push_row(&[carrier(d).into(), x(d)]).unwrap();
        }
        let (fact, dim) = (Arc::new(fact.finish()), Arc::new(dim.finish()));
        let star = |capacity: usize| {
            Dataset::Star(Arc::new(
                StarSchema::with_join_cache_capacity(
                    Arc::clone(&fact),
                    vec![(
                        DimensionSpec::new("dims", "k", vec!["carrier".into(), "x".into()]),
                        Arc::clone(&dim),
                    )],
                    capacity,
                )
                .unwrap(),
            ))
        };

        let range = |min: f64, max: f64| {
            FilterExpr::Pred(Predicate::Range {
                column: "x".into(),
                min,
                max,
            })
        };
        let isin = |values: &[&str]| {
            FilterExpr::Pred(Predicate::In {
                column: "carrier".into(),
                values: values.iter().map(|s| s.to_string()).collect(),
            })
        };
        let filters = [
            range(-10.0, 35.0),
            isin(&["AA", "ZZ"]),
            isin(&["DL"]).and(range(0.0, 20.0)),
            FilterExpr::Or(vec![isin(&["UA"]), FilterExpr::And(vec![])]),
            FilterExpr::Or(vec![]),
        ];
        let specs = [
            VizSpec::new(
                "v",
                "t",
                vec![BinDef::Nominal {
                    dimension: "carrier".into(),
                }],
                vec![
                    AggregateSpec::count(),
                    AggregateSpec::over(AggFunc::Avg, "x"),
                    AggregateSpec::over(AggFunc::Sum, "y"),
                ],
            ),
            VizSpec::new(
                "v",
                "t",
                vec![BinDef::Width {
                    dimension: "x".into(),
                    width: 7.5,
                    anchor: 0.0,
                }],
                vec![
                    AggregateSpec::count(),
                    AggregateSpec::over(AggFunc::Avg, "y"),
                ],
            ),
        ];

        let check = |ds: &Dataset, label: &str| {
            for spec in &specs {
                for filter in &filters {
                    let q = Query::for_viz(spec, Some(filter.clone()));
                    let scalar = execute_exact_scalar(ds, &q).unwrap();
                    for workers in [1, 8] {
                        assert_eq!(
                            execute_exact_parallel(ds, &q, workers).unwrap(),
                            scalar,
                            "{label}, workers {workers}, {filter:?}"
                        );
                    }
                }
            }
        };
        check(&Dataset::Denormalized(Arc::new(flat.finish())), "flat");
        for capacity in [usize::MAX, 0] {
            let ds = star(capacity);
            check(&ds, &format!("star, capacity {capacity}"));
            let stats = ds.as_star().unwrap().join_cache_stats();
            if capacity == 0 {
                assert_eq!(stats.entries, 0, "every join staged through the FK");
            } else {
                assert_eq!(stats.entries, 2, "both attributes materialized");
            }
        }
    }

    #[test]
    fn empty_table_completes_immediately() {
        let ds = dataset(0);
        let run = ChunkedRun::new(ds, count_query(), SnapshotMode::Exact).unwrap();
        assert!(run.is_done());
        assert_eq!(run.progress(), 1.0);
        assert_eq!(run.snapshot().unwrap().bins.len(), 0);
    }
}
