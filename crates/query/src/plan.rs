//! Owned compiled query plans.
//!
//! [`CompiledPlan`] is the once-per-run compilation product of a
//! [`Query`] against a [`Dataset`]: every referenced column resolved to a
//! `(table, column-index)` handle (following star-schema foreign keys),
//! filter predicates lowered to typed comparisons (IN-lists becoming dense
//! dictionary membership tables), and binning classified as *dense*
//! (bounded bin space → flat-array accumulation) or *sparse* (unbounded →
//! hash accumulation). A bin space is bounded when every dimension is —
//! nominal dimensions by their dictionary, fixed-width bucketings by the
//! column's cached min/max statistics (`slot = floor((v − anchor)/width) −
//! lo`, clamped into `[0, len)`); only genuinely unbounded or oversized key
//! spaces keep the hashed store.
//!
//! Unlike [`crate::resolve::ResolvedQuery`] — the borrow-based scalar
//! reference path, recompiled wherever it is used — a `CompiledPlan` owns
//! `Arc` handles into the dataset and therefore lives inside a
//! [`crate::ChunkedRun`] for the whole scan: `advance` only *binds* the plan
//! (index-based slice lookups, no name resolution, no hashing) and runs
//! batch kernels over it. [`thread_plan_compilations`] counts compilations
//! on the calling thread so tests can pin the once-per-run property.
//!
//! # Join devirtualization
//!
//! On star schemas, a dimension attribute is logically reached through the
//! fact table's foreign key (`column[fk[row]]`). Compilation removes that
//! per-row indirection from the kernels:
//!
//! 1. **Materialization** (preferred): the plan asks the schema's shared
//!    [`idebench_storage::StarSchema::materialize_join`] cache for a
//!    fact-ordered copy of the column. On success the kernels read a flat
//!    slice — star scans run at de-normalized speed, and the `Arc`-shared
//!    memo means every session and query over the dataset reuses one copy.
//! 2. **Per-plan join caches** (fallback, e.g. when the shared cache is
//!    over capacity): the plan builds an `O(|dim|)` dimension-row-indexed
//!    cache — dictionary codes for nominal attributes, widened values for
//!    numeric ones — and each morsel gathers the FK column **once** into a
//!    shared staging buffer, translating every joined column through its
//!    cache into flat per-morsel slices. Staging encodes dimension rows as
//!    `u32`, so a dimension of `u32::MAX` rows or more that the shared
//!    cache declines is rejected with [`CoreError::Unsupported`].
//!
//! Either way, the batch kernels only ever see flat slices plus a staged
//! validity mask.
//!
//! # Stage slots
//!
//! Every planned column reads from a *stage slot* (`StageSpec`): a
//! fact-table (or materialized) column, or a joined column translated
//! through a per-plan cache. A fully valid fact column in a natural-order
//! morsel is read in place; in a shuffled-order morsel it is gathered
//! into its slot's buffer. Either way the kernels see position-indexed
//! flat slices.
//!
//! # Compile-time tables
//!
//! Range predicates carry their exact integer twin (`RangeTest`), so
//! integer columns compare without a float conversion. A dense width
//! bucketing over an integer-domain column (`I64`, dictionary codes)
//! whose value span fits in [`DENSE_BIN_CAP`] carries a slot table
//! (`SlotTable`) built by running the arithmetic `WidthSlots::slot_of`
//! on every integer of the span — bit-identical to it by construction.
//! Devirtualization changes *wall-clock* cost only: the benchmark's virtual
//! cost model ([`CompiledPlan::row_cost`], [`CompiledPlan::width_units`])
//! still charges every logical join, exactly as before.

use crate::batch::FlatKind;
use idebench_core::{BinDef, CoreError, FilterExpr, Predicate, Query};
use idebench_storage::{Column, ColumnSlice, Dataset, SelVec, Table};
use rustc_hash::FxHashMap;
use std::cell::Cell;
use std::sync::Arc;

/// Upper bound on the flat bin space of the dense accumulation path.
/// Binnings whose bounded-bin-space product (dictionary sizes × reachable
/// bucket counts) exceeds this fall back to sparse (hashed) accumulation.
pub const DENSE_BIN_CAP: usize = 1 << 13;

thread_local! {
    static PLAN_COMPILATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`CompiledPlan`] compilations performed on the calling thread.
///
/// Construction-count tests assert that stepping a [`crate::ChunkedRun`]
/// compiles its plan exactly once, no matter how the budget is sliced.
/// Counting per thread keeps that assertion exact while other threads
/// (concurrently running tests, sessions) compile plans of their own.
pub fn thread_plan_compilations() -> u64 {
    PLAN_COMPILATIONS.with(Cell::get)
}

/// Sentinel in a per-plan nominal join cache marking a null dimension row.
pub(crate) const NULL_CODE: u32 = u32::MAX;

/// A query column resolved to owned storage handles.
///
/// `table` holds the column payload; for star-schema dimension attributes,
/// `fk` names the fact table's foreign-key column through which fact rows
/// logically reach it (`column[fk[row]]` — the indirection *is* the join).
/// `slot` is the stage slot kernels read the column from (see
/// `StageSpec`); a join the shared cache materialized reads its
/// fact-ordered copy there. The *cost model* always follows `fk`: a
/// devirtualized join still bills as a join.
#[derive(Debug, Clone)]
pub struct PlannedColumn {
    table: Arc<Table>,
    col: usize,
    fk: Option<FkCol>,
    slot: usize,
}

impl PlannedColumn {
    /// Resolves `name` against the dataset.
    ///
    /// The column's stage slot is left unassigned: [`CompiledPlan::compile`]
    /// assigns one to every column of its plan.
    pub fn resolve(dataset: &Dataset, name: &str) -> Result<Self, CoreError> {
        let make = |table: Arc<Table>, col: usize, fk: Option<FkCol>| PlannedColumn {
            table,
            col,
            fk,
            slot: usize::MAX,
        };
        match dataset {
            Dataset::Denormalized(t) => Ok(make(Arc::clone(t), t.schema().index_of(name)?, None)),
            Dataset::Star(s) => {
                if let Ok(col) = s.fact().schema().index_of(name) {
                    return Ok(make(Arc::clone(s.fact()), col, None));
                }
                let (spec, dim) = s.dimension_of_column(name).ok_or_else(|| {
                    CoreError::Storage(format!("unknown column {name} in star schema"))
                })?;
                let fk_idx = s.fact().schema().index_of(&spec.fk_name)?;
                if s.fact().column_at(fk_idx).as_int().is_none() {
                    return Err(CoreError::Storage(format!("fk {} not int", spec.fk_name)));
                }
                Ok(make(
                    Arc::clone(dim),
                    dim.schema().index_of(name)?,
                    Some((Arc::clone(s.fact()), fk_idx)),
                ))
            }
        }
    }

    /// The underlying (logical) column — for dimension attributes, the
    /// column in the dimension table, independent of materialization.
    pub fn column(&self) -> &Column {
        self.table.column_at(self.col)
    }

    /// The column's name in its home table.
    fn name(&self) -> &str {
        &self.table.schema().fields()[self.col].name
    }

    /// Whether the column is reached through a foreign key (join access).
    pub fn is_joined(&self) -> bool {
        self.fk.is_some()
    }

    /// Scan width in 4-byte units (same model as the scalar reference path:
    /// dictionary codes 1 unit, ints/floats 2, plus 2.5 for join access).
    pub fn width_units(&self) -> f64 {
        let own = match self.column().typed() {
            ColumnSlice::Codes(..) => 1.0,
            _ => 2.0,
        };
        if self.fk.is_some() {
            own + 2.0 + 0.5
        } else {
            own
        }
    }

    /// The stage slot kernels read the column from.
    #[inline]
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }
}

/// A half-open range test `[min, max)` over numeric values, with its exact
/// integer twin for `I64` and dictionary-code columns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RangeTest {
    pub min: f64,
    pub max: f64,
    /// The inclusive `i64` interval `[lo, hi]` of integers `v` with
    /// `min <= v as f64 < max`; `None` when no integer passes.
    pub ints: Option<(i64, i64)>,
}

impl RangeTest {
    pub(crate) fn new(min: f64, max: f64) -> RangeTest {
        // `v as f64` is monotone in `v`, so each bound cuts the integers
        // at one point; a binary search finds it exactly, for every
        // bound including NaN and the limits of `i64`.
        let first = |pred: &dyn Fn(i64) -> bool| -> Option<i64> {
            if !pred(i64::MAX) {
                return None;
            }
            let (mut lo, mut hi) = (i128::from(i64::MIN), i128::from(i64::MAX));
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if pred(mid as i64) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            Some(lo as i64)
        };
        let lo = first(&|v| v as f64 >= min);
        let hi = match first(&|v| (v as f64).partial_cmp(&max) != Some(std::cmp::Ordering::Less)) {
            None => Some(i64::MAX),
            Some(i64::MIN) => None,
            Some(end) => Some(end - 1),
        };
        let ints = match (lo, hi) {
            (Some(lo), Some(hi)) if lo <= hi => Some((lo, hi)),
            _ => None,
        };
        RangeTest { min, max, ints }
    }

    /// Whether a float value passes.
    #[inline(always)]
    pub(crate) fn f64(&self, v: f64) -> bool {
        v >= self.min && v < self.max
    }
}

/// Staging encodes dimension rows as `u32` (the staged FK buffer, and
/// per-plan code caches with [`NULL_CODE`] reserved), so a joined column
/// whose dimension has `u32::MAX` rows or more cannot be staged.
fn check_stageable(name: &str, dim_rows: usize) -> Result<(), CoreError> {
    if dim_rows >= u32::MAX as usize {
        return Err(CoreError::Unsupported(format!(
            "join on {name}: a dimension of {dim_rows} rows exceeds the u32 staging encoding"
        )));
    }
    Ok(())
}

/// A filter tree lowered to planned columns and dense membership tables.
#[derive(Debug, Clone)]
pub(crate) enum PlannedFilter {
    /// Half-open quantitative range.
    Range {
        col: PlannedColumn,
        test: RangeTest,
    },
    /// Nominal membership, as a dictionary-length lookup table: IN-list
    /// hashing is paid once at compile time, never per row.
    In {
        col: PlannedColumn,
        member: Vec<bool>,
    },
    And(Vec<PlannedFilter>),
    Or(Vec<PlannedFilter>),
}

impl PlannedFilter {
    fn compile(dataset: &Dataset, expr: &FilterExpr) -> Result<Self, CoreError> {
        Ok(match expr {
            FilterExpr::Pred(Predicate::Range { column, min, max }) => PlannedFilter::Range {
                col: PlannedColumn::resolve(dataset, column)?,
                test: RangeTest::new(*min, *max),
            },
            FilterExpr::Pred(Predicate::In { column, values }) => {
                let col = PlannedColumn::resolve(dataset, column)?;
                let member = match col.column().typed() {
                    ColumnSlice::Codes(_, dict) => {
                        let mut member = vec![false; dict.len()];
                        for v in values {
                            // Categories absent from the dictionary never
                            // match (the filter referenced a value not in
                            // the data).
                            if let Some(code) = dict.code(v) {
                                member[code as usize] = true;
                            }
                        }
                        member
                    }
                    _ => {
                        return Err(CoreError::Storage(format!(
                            "IN filter on non-nominal column {column}"
                        )))
                    }
                };
                PlannedFilter::In { col, member }
            }
            FilterExpr::And(children) => PlannedFilter::And(
                children
                    .iter()
                    .map(|c| Self::compile(dataset, c))
                    .collect::<Result<_, _>>()?,
            ),
            FilterExpr::Or(children) => PlannedFilter::Or(
                children
                    .iter()
                    .map(|c| Self::compile(dataset, c))
                    .collect::<Result<_, _>>()?,
            ),
        })
    }

    fn joined_columns(&self) -> usize {
        match self {
            PlannedFilter::Range { col, .. } | PlannedFilter::In { col, .. } => {
                usize::from(col.is_joined())
            }
            PlannedFilter::And(children) | PlannedFilter::Or(children) => {
                children.iter().map(PlannedFilter::joined_columns).sum()
            }
        }
    }

    fn try_for_each_col_mut(
        &mut self,
        f: &mut impl FnMut(&mut PlannedColumn) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        match self {
            PlannedFilter::Range { col, .. } | PlannedFilter::In { col, .. } => f(col),
            PlannedFilter::And(children) | PlannedFilter::Or(children) => children
                .iter_mut()
                .try_for_each(|c| c.try_for_each_col_mut(f)),
        }
    }

    fn for_each_col(&self, f: &mut impl FnMut(&PlannedColumn)) {
        match self {
            PlannedFilter::Range { col, .. } | PlannedFilter::In { col, .. } => f(col),
            PlannedFilter::And(children) | PlannedFilter::Or(children) => {
                for c in children {
                    c.for_each_col(f);
                }
            }
        }
    }

    fn width_units(&self) -> f64 {
        match self {
            PlannedFilter::Range { col, .. } | PlannedFilter::In { col, .. } => col.width_units(),
            PlannedFilter::And(children) | PlannedFilter::Or(children) => {
                children.iter().map(PlannedFilter::width_units).sum()
            }
        }
    }
}

/// Dense lowering of a fixed-width bucketing: column min/max statistics
/// bound the reachable bucket indices to `[lo, lo + len)`, so the bucket
/// becomes an arithmetic array slot (`slot = bucket − lo`, clamped into the
/// bounded space) instead of a hash key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DenseWidth {
    /// Bucket index of the column minimum (the slot-space origin).
    pub lo: i64,
    /// Number of reachable buckets (`hi − lo + 1`), `≤ DENSE_BIN_CAP`.
    pub len: usize,
}

/// The arithmetic slot function of a dense width bucketing:
/// `floor((v − anchor)/width) − lo`, clamped into `[0, len)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WidthSlots {
    anchor: f64,
    width: f64,
    lo: f64,
    top: f64,
}

impl WidthSlots {
    pub(crate) fn new(dense: DenseWidth, width: f64, anchor: f64) -> WidthSlots {
        WidthSlots {
            anchor,
            width,
            // `lo` round-trips through f64 exactly (see `dense_width`).
            lo: dense.lo as f64,
            top: (dense.len - 1) as f64,
        }
    }

    /// The slot of a non-NaN value `v`. The clamp is a no-op when stats
    /// are exact; it only guards slot-array bounds. The whole computation
    /// stays in float arithmetic, so the kernel loop needs neither the
    /// libm call baseline x86-64 lowers `floor()` to nor a saturating
    /// float-to-int conversion:
    ///
    /// - the quotient is first clamped into `[lo − 1, lo + len]`, which
    ///   changes no clamped slot and keeps it below 2^51 in magnitude;
    /// - adding and subtracting 1.5·2^52 rounds it to the nearest integer
    ///   `t`, and `t − 1` when `t` overshot is its exact floor;
    /// - an integer-valued `s` in `[0, 2^32)` is the low word of the bits
    ///   of `s + 2^52`.
    ///
    /// The slot decodes to the same bucket index the hashed path's
    /// `f64::floor` computes, bit for bit.
    #[inline(always)]
    pub(crate) fn slot_of(self, v: f64) -> u32 {
        const ROUND: f64 = (3u64 << 51) as f64;
        const LOW_WORD: f64 = (1u64 << 52) as f64;
        let q = ((v - self.anchor) / self.width)
            .max(self.lo - 1.0)
            .min(self.lo + self.top + 1.0);
        let t = (q + ROUND) - ROUND;
        let fl = if t > q { t - 1.0 } else { t };
        let s = (fl - self.lo).max(0.0).min(self.top);
        (s + LOW_WORD).to_bits() as u32
    }
}

/// The slot of every integer in `[min, min + slots.len())` under one dense
/// width bucketing: `slots[v − min] == slot_of(v as f64)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SlotTable {
    pub min: i64,
    pub slots: Vec<u32>,
}

impl SlotTable {
    /// Builds the table over the integer span `[min, max]`, or `None` when
    /// the span holds more than [`DENSE_BIN_CAP`] integers.
    pub(crate) fn build(f: WidthSlots, min: i64, max: i64) -> Option<SlotTable> {
        let span = max.checked_sub(min)?;
        if !(0..DENSE_BIN_CAP as i64).contains(&span) {
            return None;
        }
        Some(SlotTable {
            min,
            slots: (min..=max).map(|v| f.slot_of(v as f64)).collect(),
        })
    }
}

/// One planned binning dimension.
#[derive(Debug, Clone)]
pub(crate) enum PlannedDim {
    /// Nominal: bin = dictionary code; `dict_len` bounds the bin space.
    Nominal { col: PlannedColumn, dict_len: usize },
    /// Fixed-width bucketing: bin = `floor((x - anchor) / width)`. `dense`
    /// is the arithmetic slot lowering when column statistics bound the
    /// bucket space; `None` leaves the dimension on the hashed path.
    /// `table` is the dense lowering's slot table over an integer-domain
    /// column's value span.
    Width {
        col: PlannedColumn,
        width: f64,
        anchor: f64,
        dense: Option<DenseWidth>,
        table: Option<SlotTable>,
    },
}

impl PlannedDim {
    fn col(&self) -> &PlannedColumn {
        match self {
            PlannedDim::Nominal { col, .. } | PlannedDim::Width { col, .. } => col,
        }
    }

    fn col_mut(&mut self) -> &mut PlannedColumn {
        match self {
            PlannedDim::Nominal { col, .. } | PlannedDim::Width { col, .. } => col,
        }
    }

    /// Size of the dimension's bounded bin space, when it has one.
    fn dense_len(&self) -> Option<usize> {
        match self {
            PlannedDim::Nominal { dict_len, .. } => Some((*dict_len).max(1)),
            PlannedDim::Width { dense, .. } => dense.map(|d| d.len),
        }
    }
}

/// How bin keys are accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccMode {
    /// Flat-array accumulation over a bounded nominal bin space of the given
    /// size (slot = `code0 + code1 * dict_len0`).
    Dense(usize),
    /// Hash accumulation for unbounded (bucketed) bin spaces.
    Sparse,
}

/// An owned handle to a column staged per morsel (see [`StageSpec::Own`]).
#[derive(Debug, Clone)]
pub(crate) enum ColRef {
    /// A column inside a table.
    Table(Arc<Table>, usize),
    /// A free-standing column (fact-ordered materialization).
    Owned(Arc<Column>),
}

impl ColRef {
    pub(crate) fn get(&self) -> &Column {
        match self {
            ColRef::Table(t, i) => t.column_at(*i),
            ColRef::Owned(c) => c,
        }
    }
}

/// One per-morsel staging instruction of a compiled plan. Stage buffer `i`
/// of the accumulator is filled by `stages[i]` in every morsel that reads
/// it; kernels then consume flat slices plus the staged validity mask.
#[derive(Debug, Clone)]
pub(crate) enum StageSpec {
    /// The column's own rows: read in place in natural order (folding any
    /// validity into the mask), gathered through the order otherwise.
    Own(ColRef),
    /// Translate the staged FK buffer `fk_slot` through a per-plan
    /// dimension-row code cache ([`NULL_CODE`] marks null dimension rows).
    JoinCodes {
        fk_slot: usize,
        cache: Arc<Vec<u32>>,
    },
    /// Translate the staged FK buffer `fk_slot` through a per-plan
    /// dimension-row numeric cache (`valid` is the dimension column's
    /// validity, indexed by dimension row).
    JoinNum {
        fk_slot: usize,
        vals: Arc<Vec<f64>>,
        valid: Option<SelVec>,
    },
}

impl StageSpec {
    /// The type of the staged values.
    pub(crate) fn kind(&self) -> FlatKind {
        match self {
            StageSpec::Own(col) => match col.get().typed() {
                ColumnSlice::F64(_) => FlatKind::F64,
                ColumnSlice::I64(_) => FlatKind::I64,
                ColumnSlice::Codes(..) => FlatKind::Codes,
            },
            StageSpec::JoinCodes { .. } => FlatKind::Codes,
            StageSpec::JoinNum { .. } => FlatKind::F64,
        }
    }
}

/// Which stage buffers (and FK gathers) each morsel phase fills: columns
/// the filter reads stage *before* filter evaluation, everything else only
/// after — a fully-filtered-out morsel skips the post-phase gathers
/// entirely, so selective filters never pay for join staging they don't
/// consume. Each FK gathers at most once per morsel (a filter-phase FK is
/// excluded from the post phase even when post stages read it).
#[derive(Debug, Default)]
pub(crate) struct StagePhases {
    pub filter_stages: Vec<usize>,
    pub post_stages: Vec<usize>,
    pub filter_fks: Vec<usize>,
    pub post_fks: Vec<usize>,
}

/// A foreign-key column: the fact table and the column's index in it.
pub(crate) type FkCol = (Arc<Table>, usize);

/// An owned, reusable compiled query plan (see module docs).
pub struct CompiledPlan {
    dataset: Dataset,
    query: Query,
    pub(crate) filter: Option<PlannedFilter>,
    pub(crate) dims: Vec<PlannedDim>,
    pub(crate) measures: Vec<Option<PlannedColumn>>,
    /// Per-morsel staging instructions (one per stage buffer).
    pub(crate) stages: Vec<StageSpec>,
    /// Distinct foreign-key columns gathered once per morsel, shared by
    /// every [`StageSpec::JoinCodes`]/[`StageSpec::JoinNum`] over them.
    pub(crate) fk_cols: Vec<FkCol>,
    /// Filter-phase vs. post-filter-phase staging split.
    pub(crate) phases: StagePhases,
    acc_mode: AccMode,
    num_rows: usize,
    joined_columns: usize,
    width_units: f64,
    fact_arity: usize,
}

impl CompiledPlan {
    /// Compiles `query` against `dataset`. The dataset handle is cheap to
    /// clone (`Arc`s all the way down) and is retained inside the plan.
    pub fn compile(dataset: &Dataset, query: &Query) -> Result<Self, CoreError> {
        PLAN_COMPILATIONS.with(|c| c.set(c.get() + 1));
        let mut filter = query
            .filter()
            .map(|f| PlannedFilter::compile(dataset, f))
            .transpose()?;
        let mut dims = query
            .binning()
            .iter()
            .map(|def| Self::compile_dim(dataset, def))
            .collect::<Result<Vec<_>, _>>()?;
        if !(1..=2).contains(&dims.len()) {
            return Err(CoreError::Storage(format!(
                "unsupported binning arity {}",
                dims.len()
            )));
        }
        let mut measures = query
            .aggregates()
            .iter()
            .map(|a| {
                a.dimension
                    .as_deref()
                    .map(|d| PlannedColumn::resolve(dataset, d))
                    .transpose()
            })
            .collect::<Result<Vec<_>, _>>()?;

        let (stages, fk_cols) = Self::plan_stages(dataset, &mut filter, &mut dims, &mut measures)?;
        let phases = Self::partition_stages(&filter, &stages, fk_cols.len());
        let acc_mode = Self::pick_acc_mode(&dims);
        let joined_columns = dims.iter().filter(|d| d.col().is_joined()).count()
            + filter.as_ref().map_or(0, PlannedFilter::joined_columns)
            + measures.iter().flatten().filter(|m| m.is_joined()).count();
        let width_units = dims.iter().map(|d| d.col().width_units()).sum::<f64>()
            + filter.as_ref().map_or(0.0, PlannedFilter::width_units)
            + measures
                .iter()
                .flatten()
                .map(PlannedColumn::width_units)
                .sum::<f64>();
        let fact_arity = match dataset {
            Dataset::Denormalized(t) => t.num_columns(),
            Dataset::Star(s) => s.fact().num_columns(),
        };
        Ok(CompiledPlan {
            num_rows: dataset.fact_rows(),
            dataset: dataset.clone(),
            query: query.clone(),
            filter,
            dims,
            measures,
            stages,
            fk_cols,
            phases,
            acc_mode,
            joined_columns,
            width_units,
            fact_arity,
        })
    }

    /// Assigns every planned column its stage slot, deduplicated by
    /// physical column: the stage slots, per-plan join caches, and distinct
    /// FK staging columns fall out of this pass (module docs).
    fn plan_stages(
        dataset: &Dataset,
        filter: &mut Option<PlannedFilter>,
        dims: &mut [PlannedDim],
        measures: &mut [Option<PlannedColumn>],
    ) -> Result<(Vec<StageSpec>, Vec<FkCol>), CoreError> {
        let star = dataset.as_star();
        let mut stages: Vec<StageSpec> = Vec::new();
        let mut fk_cols: Vec<FkCol> = Vec::new();
        // The stage slot of each physical column.
        let mut memo: FxHashMap<(usize, usize), usize> = FxHashMap::default();

        let mut assign = |col: &mut PlannedColumn| -> Result<(), CoreError> {
            let key = (Arc::as_ptr(&col.table) as usize, col.col);
            if let Some(&slot) = memo.get(&key) {
                col.slot = slot;
                return Ok(());
            }
            let materialized = match (&col.fk, star) {
                (Some(_), Some(s)) => s.materialize_join(col.name()),
                _ => None,
            };
            let spec = if let Some(m) = materialized {
                StageSpec::Own(ColRef::Owned(m))
            } else if let Some((fact, fk_idx)) = &col.fk {
                // Joined but not materialized (shared cache full):
                // per-plan dimension-row caches.
                let dim_col = col.column();
                check_stageable(col.name(), dim_col.len())?;
                let fk_key = (Arc::clone(fact), *fk_idx);
                let fk_slot = fk_cols
                    .iter()
                    .position(|(t, i)| Arc::ptr_eq(t, fact) && i == fk_idx)
                    .unwrap_or_else(|| {
                        fk_cols.push(fk_key);
                        fk_cols.len() - 1
                    });
                match dim_col.typed() {
                    ColumnSlice::Codes(codes, _) => StageSpec::JoinCodes {
                        fk_slot,
                        cache: Arc::new(
                            codes
                                .iter()
                                .enumerate()
                                .map(|(i, &c)| if dim_col.is_valid(i) { c } else { NULL_CODE })
                                .collect(),
                        ),
                    },
                    _ => StageSpec::JoinNum {
                        fk_slot,
                        vals: Arc::new(
                            (0..dim_col.len())
                                .map(|i| dim_col.numeric_at(i).unwrap_or(0.0))
                                .collect(),
                        ),
                        valid: dim_col.validity().cloned(),
                    },
                }
            } else {
                // Fact column: read in place (natural order) or gathered
                // (shuffled order); a nullable one folds its validity
                // bitmap into the morsel mask once.
                StageSpec::Own(ColRef::Table(Arc::clone(&col.table), col.col))
            };
            stages.push(spec);
            col.slot = stages.len() - 1;
            memo.insert(key, col.slot);
            Ok(())
        };

        for dim in dims.iter_mut() {
            assign(dim.col_mut())?;
        }
        if let Some(f) = filter {
            f.try_for_each_col_mut(&mut assign)?;
        }
        for m in measures.iter_mut().flatten() {
            assign(m)?;
        }
        Ok((stages, fk_cols))
    }

    fn compile_dim(dataset: &Dataset, def: &BinDef) -> Result<PlannedDim, CoreError> {
        Ok(match def {
            BinDef::Nominal { dimension } => {
                let col = PlannedColumn::resolve(dataset, dimension)?;
                let dict_len = match col.column().typed() {
                    ColumnSlice::Codes(_, dict) => dict.len(),
                    _ => {
                        return Err(CoreError::Storage(format!(
                            "nominal binning on non-nominal column {dimension}"
                        )))
                    }
                };
                PlannedDim::Nominal { col, dict_len }
            }
            BinDef::Width {
                dimension,
                width,
                anchor,
            } => {
                if !(width.is_finite() && *width > 0.0) {
                    return Err(CoreError::Storage(format!(
                        "non-positive bin width {width} on {dimension}"
                    )));
                }
                let col = PlannedColumn::resolve(dataset, dimension)?;
                let dense = Self::dense_width(&col, *width, *anchor);
                let table = dense.and_then(|d| Self::slot_table(&col, d, *width, *anchor));
                PlannedDim::Width {
                    col,
                    width: *width,
                    anchor: *anchor,
                    dense,
                    table,
                }
            }
            BinDef::Count { dimension, .. } => {
                return Err(CoreError::Storage(format!(
                    "unresolved count binning on {dimension} (driver resolves these)"
                )))
            }
        })
    }

    /// Lowers a fixed-width bucketing to dense arithmetic slots when the
    /// column's min/max statistics bound its reachable buckets to at most
    /// [`DENSE_BIN_CAP`]. Columns without usable stats (empty, all-null, or
    /// non-finite values) stay on the hashed path.
    fn dense_width(col: &PlannedColumn, width: f64, anchor: f64) -> Option<DenseWidth> {
        let (min, max) = col.column().numeric_min_max()?;
        let lo = ((min - anchor) / width).floor();
        let hi = ((max - anchor) / width).floor();
        if !(lo.is_finite() && hi.is_finite()) {
            return None;
        }
        // Reject oversized spans in f64 *before* any integer cast: the
        // bucket indices themselves can exceed every integer range for
        // pathological value/width combinations. `hi - lo` is exact for
        // spans under the cap (both are integer-valued and close).
        let span = hi - lo;
        if !(0.0..DENSE_BIN_CAP as f64).contains(&span) {
            return None;
        }
        // The bucket decode needs `lo` to round-trip through i64 exactly,
        // and the slot kernel's float floor needs bucket indices below
        // 2^50; outside that range stay on the hashed path.
        const SLOT_RANGE: f64 = (1u64 << 50) as f64;
        if lo.abs() >= SLOT_RANGE || hi.abs() >= SLOT_RANGE {
            return None;
        }
        Some(DenseWidth {
            lo: lo as i64,
            len: span as usize + 1,
        })
    }

    /// The slot table of a dense bucketing over an integer-domain column
    /// (`I64` or dictionary codes), when its value span is small enough.
    /// The f64 statistics are exact integers below 2^53, where the table
    /// stops.
    fn slot_table(
        col: &PlannedColumn,
        dense: DenseWidth,
        width: f64,
        anchor: f64,
    ) -> Option<SlotTable> {
        if matches!(col.column().typed(), ColumnSlice::F64(_)) {
            return None;
        }
        let (min, max) = col.column().numeric_min_max()?;
        const EXACT: f64 = (1u64 << 53) as f64;
        if min < -EXACT || max > EXACT {
            return None;
        }
        SlotTable::build(
            WidthSlots::new(dense, width, anchor),
            min as i64,
            max as i64,
        )
    }

    /// Splits staging into the filter phase (stage slots the filter reads,
    /// plus the FK gathers feeding them) and the post phase (everything
    /// else) — see [`StagePhases`].
    fn partition_stages(
        filter: &Option<PlannedFilter>,
        stages: &[StageSpec],
        n_fks: usize,
    ) -> StagePhases {
        let mut in_filter = vec![false; stages.len()];
        if let Some(f) = filter {
            f.for_each_col(&mut |col| in_filter[col.slot] = true);
        }
        let mut fk_in_filter = vec![false; n_fks];
        let mut fk_in_post = vec![false; n_fks];
        for (i, spec) in stages.iter().enumerate() {
            if let StageSpec::JoinCodes { fk_slot, .. } | StageSpec::JoinNum { fk_slot, .. } = spec
            {
                if in_filter[i] {
                    fk_in_filter[*fk_slot] = true;
                } else {
                    fk_in_post[*fk_slot] = true;
                }
            }
        }
        let split = |flags: &[bool]| -> (Vec<usize>, Vec<usize>) {
            let mut yes = Vec::new();
            let mut no = Vec::new();
            for (i, &f) in flags.iter().enumerate() {
                if f {
                    yes.push(i);
                } else {
                    no.push(i);
                }
            }
            (yes, no)
        };
        let (filter_stages, post_stages) = split(&in_filter);
        StagePhases {
            filter_stages,
            post_stages,
            filter_fks: split(&fk_in_filter).0,
            // A filter-phase FK is already staged when the post phase runs.
            post_fks: (0..n_fks)
                .filter(|&i| fk_in_post[i] && !fk_in_filter[i])
                .collect(),
        }
    }

    /// Dense accumulation applies when every dimension has a bounded bin
    /// space — a nominal dictionary, or a bucketed dimension whose column
    /// statistics bound its reachable buckets — and the product of those
    /// spaces stays under [`DENSE_BIN_CAP`]. Anything else (unbounded or
    /// statistics-less buckets, oversized products) takes the hashed path.
    fn pick_acc_mode(dims: &[PlannedDim]) -> AccMode {
        let mut space = 1usize;
        for dim in dims {
            let Some(len) = dim.dense_len() else {
                return AccMode::Sparse;
            };
            space = match space.checked_mul(len) {
                Some(s) if s <= DENSE_BIN_CAP => s,
                _ => return AccMode::Sparse,
            };
        }
        AccMode::Dense(space)
    }

    /// The dataset this plan scans.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The query this plan executes.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Number of fact rows to scan.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Accumulation mode selected for the binning.
    pub fn acc_mode(&self) -> AccMode {
        self.acc_mode
    }

    /// How many referenced columns are join-accessed (cost-model input).
    pub fn joined_columns(&self) -> usize {
        self.joined_columns
    }

    /// Total scan width of the referenced columns in 4-byte units.
    pub fn width_units(&self) -> f64 {
        self.width_units
    }

    /// Number of columns of the fact (or single) table.
    pub fn fact_arity(&self) -> usize {
        self.fact_arity
    }

    /// Per-row work-unit cost: 1 for the scan plus 1 per join-accessed
    /// column (the price of the FK indirection / hash probe).
    pub fn row_cost(&self) -> u64 {
        1 + self.joined_columns as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idebench_core::spec::{AggFunc, AggregateSpec, BinDef};
    use idebench_core::VizSpec;
    use idebench_storage::{DataType, DimensionSpec, StarSchema, TableBuilder, Value};

    fn denorm() -> Dataset {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("carrier", DataType::Nominal),
                ("dep_delay", DataType::Float),
            ],
        );
        b.push_row(&["AA".into(), 5.0.into()]).unwrap();
        b.push_row(&["DL".into(), 15.0.into()]).unwrap();
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    fn star() -> Dataset {
        let mut f = TableBuilder::with_fields(
            "flights",
            &[
                ("dep_delay", DataType::Float),
                ("carrier_key", DataType::Int),
            ],
        );
        f.push_row(&[5.0.into(), 1i64.into()]).unwrap();
        f.push_row(&[15.0.into(), 0i64.into()]).unwrap();
        let mut d = TableBuilder::with_fields("carriers", &[("carrier", DataType::Nominal)]);
        d.push_row(&[Value::Str("AA".into())]).unwrap();
        d.push_row(&[Value::Str("DL".into())]).unwrap();
        Dataset::Star(Arc::new(
            StarSchema::new(
                Arc::new(f.finish()),
                vec![(
                    DimensionSpec::new("carriers", "carrier_key", vec!["carrier".into()]),
                    Arc::new(d.finish()),
                )],
            )
            .unwrap(),
        ))
    }

    fn nominal_query() -> Query {
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::over(AggFunc::Avg, "dep_delay")],
        );
        Query::for_viz(&spec, None)
    }

    #[test]
    fn direct_and_joined_column_access() {
        let c = PlannedColumn::resolve(&denorm(), "dep_delay").unwrap();
        assert!(!c.is_joined());
        assert_eq!(c.column().numeric_at(1), Some(15.0));

        let j = PlannedColumn::resolve(&star(), "carrier").unwrap();
        assert!(j.is_joined());
        // The dimension's own column, in dimension-row order (AA, DL); the
        // plan reaches it through the fact table's carrier_key.
        assert_eq!(j.column().as_nominal().unwrap().0, &[0, 1]);
    }

    #[test]
    fn unknown_column_errors() {
        assert!(PlannedColumn::resolve(&star(), "ghost").is_err());
        assert!(PlannedColumn::resolve(&denorm(), "ghost").is_err());
    }

    #[test]
    fn plan_costs_joins_and_width() {
        let plan = CompiledPlan::compile(&star(), &nominal_query()).unwrap();
        assert_eq!(plan.joined_columns(), 1);
        assert_eq!(plan.row_cost(), 2);
        assert_eq!(plan.num_rows(), 2);
        // carrier joined (1 + 2.5) + dep_delay (2).
        assert!((plan.width_units() - 5.5).abs() < 1e-12);

        let flat = CompiledPlan::compile(&denorm(), &nominal_query()).unwrap();
        assert_eq!(flat.row_cost(), 1);
        assert!((flat.width_units() - 3.0).abs() < 1e-12);
    }

    fn width_query(width: f64) -> Query {
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Width {
                dimension: "dep_delay".into(),
                width,
                anchor: 0.0,
            }],
            vec![AggregateSpec::count()],
        );
        Query::for_viz(&spec, None)
    }

    #[test]
    fn nominal_binning_is_dense() {
        let plan = CompiledPlan::compile(&denorm(), &nominal_query()).unwrap();
        assert_eq!(plan.acc_mode(), AccMode::Dense(2));
    }

    #[test]
    fn bounded_buckets_are_dense_unbounded_sparse() {
        // dep_delay spans [5, 15]: width 10 reaches buckets {0, 1} → dense.
        let plan = CompiledPlan::compile(&denorm(), &width_query(10.0)).unwrap();
        assert_eq!(plan.acc_mode(), AccMode::Dense(2));

        // A width so fine the reachable bucket count blows past the cap
        // keeps the hashed store.
        let plan = CompiledPlan::compile(&denorm(), &width_query(1e-4)).unwrap();
        assert_eq!(plan.acc_mode(), AccMode::Sparse);
    }

    #[test]
    fn extreme_value_ranges_stay_sparse_without_overflow() {
        // Finite but astronomically spread values: bucket indices exceed
        // every integer range. Planning must fall back to the hashed store
        // instead of panicking on an integer-cast overflow.
        let mut b = TableBuilder::with_fields("flights", &[("x", DataType::Float)]);
        b.push_row(&[(-1e40).into()]).unwrap();
        b.push_row(&[1e40.into()]).unwrap();
        let ds = Dataset::Denormalized(Arc::new(b.finish()));
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Width {
                dimension: "x".into(),
                width: 1.0,
                anchor: 0.0,
            }],
            vec![AggregateSpec::count()],
        );
        let plan = CompiledPlan::compile(&ds, &Query::for_viz(&spec, None)).unwrap();
        assert_eq!(plan.acc_mode(), AccMode::Sparse);
    }

    #[test]
    fn dense_width_origin_offsets_negative_buckets() {
        // Values in [5, 15] with width 2 → buckets 2..=7, origin lo = 2.
        let q = width_query(2.0);
        let plan = CompiledPlan::compile(&denorm(), &q).unwrap();
        assert_eq!(plan.acc_mode(), AccMode::Dense(6));
        match &plan.dims[0] {
            PlannedDim::Width { dense, .. } => {
                assert_eq!(*dense, Some(DenseWidth { lo: 2, len: 6 }));
            }
            other => panic!("expected width dim, got {other:?}"),
        }
    }

    #[test]
    fn two_d_mixed_nominal_bucket_is_dense() {
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![
                BinDef::Nominal {
                    dimension: "carrier".into(),
                },
                BinDef::Width {
                    dimension: "dep_delay".into(),
                    width: 10.0,
                    anchor: 0.0,
                },
            ],
            vec![AggregateSpec::count()],
        );
        let q = Query::for_viz(&spec, None);
        let plan = CompiledPlan::compile(&denorm(), &q).unwrap();
        // 2 carriers × 2 reachable buckets.
        assert_eq!(plan.acc_mode(), AccMode::Dense(4));
    }

    #[test]
    fn in_filter_compiles_to_membership_table() {
        let q = Query::for_viz(
            &VizSpec::new(
                "v",
                "flights",
                vec![BinDef::Nominal {
                    dimension: "carrier".into(),
                }],
                vec![AggregateSpec::count()],
            ),
            Some(FilterExpr::Pred(Predicate::In {
                column: "carrier".into(),
                values: vec!["AA".into(), "ZZ".into()],
            })),
        );
        let plan = CompiledPlan::compile(&denorm(), &q).unwrap();
        match plan.filter.as_ref().unwrap() {
            PlannedFilter::In { member, .. } => {
                assert_eq!(member, &[true, false]); // AA yes, DL no, ZZ absent
            }
            other => panic!("expected In, got {other:?}"),
        }
    }

    #[test]
    fn invalid_definitions_rejected() {
        let bad_nominal = Query::for_viz(
            &VizSpec::new(
                "v",
                "flights",
                vec![BinDef::Nominal {
                    dimension: "dep_delay".into(),
                }],
                vec![AggregateSpec::count()],
            ),
            None,
        );
        assert!(CompiledPlan::compile(&denorm(), &bad_nominal).is_err());

        let bad_width = Query::for_viz(
            &VizSpec::new(
                "v",
                "flights",
                vec![BinDef::Width {
                    dimension: "dep_delay".into(),
                    width: 0.0,
                    anchor: 0.0,
                }],
                vec![AggregateSpec::count()],
            ),
            None,
        );
        assert!(CompiledPlan::compile(&denorm(), &bad_width).is_err());
    }

    fn star_capped(capacity: usize) -> Dataset {
        let mut f = TableBuilder::with_fields(
            "flights",
            &[
                ("dep_delay", DataType::Float),
                ("carrier_key", DataType::Int),
            ],
        );
        f.push_row(&[5.0.into(), 1i64.into()]).unwrap();
        f.push_row(&[15.0.into(), 0i64.into()]).unwrap();
        let mut d = TableBuilder::with_fields("carriers", &[("carrier", DataType::Nominal)]);
        d.push_row(&[Value::Str("AA".into())]).unwrap();
        d.push_row(&[Value::Str("DL".into())]).unwrap();
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
    fn star_joins_devirtualize_through_the_shared_cache() {
        let ds = star();
        let plan = CompiledPlan::compile(&ds, &nominal_query()).unwrap();
        let materialized = |plan: &CompiledPlan| match &plan.stages[0] {
            StageSpec::Own(ColRef::Owned(m)) => Arc::clone(m),
            other => panic!("materialized → its own flat slot, got {other:?}"),
        };
        assert_eq!(plan.dims[0].col().slot, 0);
        let mat = materialized(&plan);
        assert_eq!(mat.as_nominal().unwrap().0, &[1, 0], "fact-ordered codes");
        assert!(plan.fk_cols.is_empty(), "no per-morsel FK staging");
        // The cost model still bills the logical join.
        assert_eq!(plan.joined_columns(), 1);
        assert_eq!(plan.row_cost(), 2);

        // A second plan over the same dataset shares the materialization.
        let again = CompiledPlan::compile(&ds, &nominal_query()).unwrap();
        let stats = ds.as_star().unwrap().join_cache_stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.hits >= 1, "second compile hits the memo");
        assert!(Arc::ptr_eq(&mat, &materialized(&again)));
    }

    #[test]
    fn capped_cache_falls_back_to_per_plan_code_caches() {
        let ds = star_capped(0);
        let plan = CompiledPlan::compile(&ds, &nominal_query()).unwrap();
        let col = plan.dims[0].col();
        assert_eq!(
            col.slot, 0,
            "declined materialization stages through the FK"
        );
        assert_eq!(plan.fk_cols.len(), 1, "one staged FK column");
        match &plan.stages[..] {
            // The joined dimension, then the fact measure's own slot.
            [StageSpec::JoinCodes { fk_slot: 0, cache }, StageSpec::Own(ColRef::Table(..))] => {
                assert_eq!(cache.as_slice(), &[0, 1], "dim-row-indexed codes");
            }
            other => panic!("expected JoinCodes and Own stages, got {other:?}"),
        }
        assert_eq!(ds.as_star().unwrap().join_cache_stats().declined, 1);
    }

    #[test]
    fn staging_defers_non_filter_columns_past_the_filter() {
        // Filter on a *direct* fact column, binning on a staged joined one:
        // the join staging must land in the post-filter phase, so morsels
        // the filter rejects never pay the FK gather.
        let ds = star_capped(0);
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::count()],
        );
        let q = Query::for_viz(
            &spec,
            Some(FilterExpr::Pred(Predicate::Range {
                column: "dep_delay".into(),
                min: 0.0,
                max: 10.0,
            })),
        );
        let plan = CompiledPlan::compile(&ds, &q).unwrap();
        // Slot 0: the joined carrier; slot 1: the fact column dep_delay.
        assert_eq!(plan.stages.len(), 2);
        assert_eq!(plan.phases.filter_stages, vec![1]);
        assert!(plan.phases.filter_fks.is_empty());
        assert_eq!(plan.phases.post_stages, vec![0]);
        assert_eq!(plan.phases.post_fks, vec![0]);

        // When the filter itself reads the staged column, it (and its FK)
        // moves to the filter phase — and is not re-staged afterwards.
        let q2 = Query::for_viz(
            &spec,
            Some(FilterExpr::Pred(Predicate::In {
                column: "carrier".into(),
                values: vec!["AA".into()],
            })),
        );
        let plan2 = CompiledPlan::compile(&ds, &q2).unwrap();
        assert_eq!(plan2.phases.filter_stages, vec![0]);
        assert_eq!(plan2.phases.filter_fks, vec![0]);
        assert!(plan2.phases.post_stages.is_empty());
        assert!(plan2.phases.post_fks.is_empty());
    }

    #[test]
    fn oversized_dimensions_are_unsupported_not_staged() {
        assert!(check_stageable("carrier", u32::MAX as usize - 1).is_ok());
        let err = check_stageable("carrier", u32::MAX as usize).unwrap_err();
        assert!(matches!(err, CoreError::Unsupported(_)), "{err}");
        assert!(err.to_string().contains("carrier"), "{err}");
    }

    #[test]
    fn repeated_column_references_share_one_stage_slot() {
        // dep_delay appears as a (joined) dim *and* a measure: staged once.
        let mut f = TableBuilder::with_fields("facts", &[("k", DataType::Int)]);
        f.push_row(&[0i64.into()]).unwrap();
        f.push_row(&[1i64.into()]).unwrap();
        let mut d = TableBuilder::with_fields("dims", &[("dep_delay", DataType::Float)]);
        d.push_row(&[5.0.into()]).unwrap();
        d.push_row(&[15.0.into()]).unwrap();
        let ds = Dataset::Star(Arc::new(
            StarSchema::with_join_cache_capacity(
                Arc::new(f.finish()),
                vec![(
                    DimensionSpec::new("dims", "k", vec!["dep_delay".into()]),
                    Arc::new(d.finish()),
                )],
                0,
            )
            .unwrap(),
        ));
        let spec = VizSpec::new(
            "v",
            "facts",
            vec![BinDef::Width {
                dimension: "dep_delay".into(),
                width: 10.0,
                anchor: 0.0,
            }],
            vec![AggregateSpec::over(AggFunc::Avg, "dep_delay")],
        );
        let plan = CompiledPlan::compile(&ds, &Query::for_viz(&spec, None)).unwrap();
        assert_eq!(plan.stages.len(), 1, "dim and measure share the stage");
        assert_eq!(plan.dims[0].col().slot, 0);
        assert_eq!(plan.measures[0].as_ref().unwrap().slot, 0);
    }

    fn int_width_plan(vals: &[i64], width: f64, anchor: f64) -> CompiledPlan {
        let mut b = TableBuilder::with_fields("t", &[("m", DataType::Int)]);
        for &v in vals {
            b.push_row(&[v.into()]).unwrap();
        }
        let ds = Dataset::Denormalized(Arc::new(b.finish()));
        let spec = VizSpec::new(
            "v",
            "t",
            vec![BinDef::Width {
                dimension: "m".into(),
                width,
                anchor,
            }],
            vec![AggregateSpec::count()],
        );
        CompiledPlan::compile(&ds, &Query::for_viz(&spec, None)).unwrap()
    }

    #[test]
    fn integer_slot_tables_match_the_arithmetic_slots() {
        let vals = [-7i64, -3, 0, 2, 5, 11, 40];
        for (width, anchor) in [
            (1.0, 0.0),
            (0.25, -3.7),
            (0.5, -0.5),
            (0.1, 2.0),
            (3.0, -11.25),
            (7.5, -100.0),
        ] {
            let plan = int_width_plan(&vals, width, anchor);
            let PlannedDim::Width {
                dense: Some(dense),
                table: Some(table),
                ..
            } = &plan.dims[0]
            else {
                panic!("width {width}: expected a dense dimension with a slot table");
            };
            assert_eq!(table.min, -7);
            assert_eq!(table.slots.len(), 48, "one slot per integer in -7..=40");
            let f = WidthSlots::new(*dense, width, anchor);
            for (k, &slot) in table.slots.iter().enumerate() {
                let v = table.min + k as i64;
                assert_eq!(
                    slot,
                    f.slot_of(v as f64),
                    "width {width} anchor {anchor} v {v}"
                );
            }
        }
    }

    #[test]
    fn slot_of_is_the_clamped_floor() {
        for (width, anchor, lo, len) in [
            (1.0, 0.0, -5i64, 40usize),
            (0.25, -3.7, -200, 8192),
            (7.5, -100.0, 3, 2),
            (1e-3, 1e6, -1_000_000, 17),
            (3.0, 0.5, (1i64 << 49) - 10, 20),
        ] {
            let f = WidthSlots::new(DenseWidth { lo, len }, width, anchor);
            let reference = |v: f64| -> u32 {
                let b = ((v - anchor) / width).floor();
                (b - lo as f64).clamp(0.0, (len - 1) as f64) as u32
            };
            let mut vals = vec![
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN,
            ];
            for k in [-2, -1, 0, 1, len as i64 - 1, len as i64, len as i64 + 1] {
                let edge = anchor + (lo + k) as f64 * width;
                vals.extend([edge, edge + width * 0.5]);
                vals.extend([
                    f64::from_bits(edge.to_bits() + 1),
                    f64::from_bits(edge.to_bits() - 1),
                ]);
            }
            for v in vals {
                assert_eq!(
                    f.slot_of(v),
                    reference(v),
                    "width {width} anchor {anchor} v {v}"
                );
            }
        }
    }

    #[test]
    fn integer_spans_above_the_cap_keep_arithmetic_slots() {
        // 4·cap integers in 2048 buckets: a dense bin space, but a table
        // over the value span would exceed the cap.
        let plan = int_width_plan(&[0, 4 * DENSE_BIN_CAP as i64], 16.0, 0.0);
        assert!(matches!(
            &plan.dims[0],
            PlannedDim::Width {
                dense: Some(_),
                table: None,
                ..
            }
        ));
        // The cap is inclusive of `DENSE_BIN_CAP` entries.
        let f = WidthSlots::new(DenseWidth { lo: 0, len: 1 }, 1e9, 0.0);
        let cap = DENSE_BIN_CAP as i64;
        assert_eq!(
            SlotTable::build(f, 0, cap - 1).map(|t| t.slots.len()),
            Some(DENSE_BIN_CAP)
        );
        assert_eq!(SlotTable::build(f, 0, cap), None);
        // Float columns never take the table path.
        let plan = CompiledPlan::compile(&denorm(), &width_query(10.0)).unwrap();
        assert!(matches!(
            &plan.dims[0],
            PlannedDim::Width {
                dense: Some(_),
                table: None,
                ..
            }
        ));
    }

    #[test]
    fn range_tests_cut_the_integers_exactly() {
        let check = |min: f64, max: f64| {
            let t = RangeTest::new(min, max);
            for v in -20i64..=20 {
                let inside = t.ints.is_some_and(|(lo, hi)| lo <= v && v <= hi);
                assert_eq!(inside, t.f64(v as f64), "[{min}, {max}) at {v}");
            }
        };
        for (min, max) in [
            (1.5, 9.25),
            (-3.25, 7.75),
            (2.0, 2.0),
            (3.0, 1.0),
            (-0.0, 0.5),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::NAN, 4.0),
            (-4.0, f64::NAN),
        ] {
            check(min, max);
        }
        // Beyond 2^53 neighbouring integers share a float; the cut still
        // follows the `as f64` conversion.
        let big = (1u64 << 60) as f64;
        let t = RangeTest::new(big, f64::INFINITY);
        let (lo, hi) = t.ints.unwrap();
        assert!(lo as f64 >= big && ((lo - 1) as f64) < big);
        assert_eq!(hi, i64::MAX);
    }

    #[test]
    fn compilation_counter_advances() {
        let before = thread_plan_compilations();
        let _ = CompiledPlan::compile(&denorm(), &nominal_query()).unwrap();
        assert_eq!(thread_plan_compilations(), before + 1);
    }
}
