//! Star-schema datasets: a fact table plus dimension tables joined by
//! integer foreign keys.
//!
//! IDEBench runs on data-warehouse star schemas "in both de-normalized and
//! normalized form" (paper §3.1). [`Dataset`] is the handle the benchmark
//! passes to system adapters; engines that only support de-normalized data
//! (like the paper's IDEA and System X) reject the `Star` variant.

use crate::column::Column;
use crate::derived::{DerivedKey, DerivedMemo};
use crate::error::StorageError;
use crate::table::Table;
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Specification of one dimension split out of a de-normalized table.
///
/// `attributes` move into the dimension table; `fk_name` is the surrogate-key
/// column added to the fact table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionSpec {
    /// Name of the dimension table to create (e.g. `"carriers"`).
    pub table_name: String,
    /// Name of the foreign-key column added to the fact table.
    pub fk_name: String,
    /// De-normalized columns that move into the dimension table.
    pub attributes: Vec<String>,
}

impl DimensionSpec {
    /// Creates a dimension spec.
    pub fn new(
        table_name: impl Into<String>,
        fk_name: impl Into<String>,
        attributes: Vec<String>,
    ) -> Self {
        DimensionSpec {
            table_name: table_name.into(),
            fk_name: fk_name.into(),
            attributes,
        }
    }
}

/// Default capacity of a star schema's join cache, in bytes (see
/// [`StarSchema::materialize_join`]).
pub const DEFAULT_JOIN_CACHE_BYTES: usize = 256 << 20;

/// Observable counters of a star schema's join cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JoinCacheStats {
    /// Materialized columns currently cached.
    pub entries: usize,
    /// Bytes held by the cached materializations.
    pub bytes: usize,
    /// Capacity in bytes; materializations that would exceed it are declined.
    pub capacity: usize,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that materialized (and inserted) a new column.
    pub misses: u64,
    /// Materializations declined because they would exceed the capacity.
    pub declined: u64,
}

/// `(dimension index, column index)` → fact-ordered materialization.
type MaterializedColumns = FxHashMap<(usize, usize), Arc<Column>>;

/// Shared memo of fact-ordered dimension-column materializations.
///
/// The cache lives behind an `Arc`, so every clone of a [`StarSchema`] —
/// and every engine, session, or [`Dataset`] handle derived from it —
/// shares one set of materialized columns. Insertion is capped by a byte
/// budget; once full, further materializations are declined (the caller
/// falls back to translated per-morsel join access) rather than evicted,
/// keeping hot columns resident for the lifetime of the dataset.
#[derive(Debug)]
struct JoinCacheInner {
    capacity: usize,
    /// Materialized columns plus the bytes they hold, under one lock.
    columns: Mutex<(MaterializedColumns, usize)>,
    hits: AtomicU64,
    misses: AtomicU64,
    declined: AtomicU64,
}

impl JoinCacheInner {
    fn with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(JoinCacheInner {
            capacity,
            columns: Mutex::new((FxHashMap::default(), 0)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            declined: AtomicU64::new(0),
        })
    }
}

/// A normalized dataset: one fact table and its dimensions.
#[derive(Debug, Clone)]
pub struct StarSchema {
    fact: Arc<Table>,
    dimensions: Vec<(DimensionSpec, Arc<Table>)>,
    join_cache: Arc<JoinCacheInner>,
    /// Datasets derived from this schema (see
    /// [`Dataset::shuffled_copy`]).
    derived: DerivedMemo,
}

impl StarSchema {
    /// Assembles a star schema. Each dimension's `fk_name` must exist as an
    /// integer column of the fact table, and key values must be valid row
    /// indexes of the dimension table.
    pub fn new(
        fact: Arc<Table>,
        dimensions: Vec<(DimensionSpec, Arc<Table>)>,
    ) -> Result<Self, StorageError> {
        Self::with_join_cache_capacity(fact, dimensions, DEFAULT_JOIN_CACHE_BYTES)
    }

    /// [`StarSchema::new`] with an explicit join-cache byte capacity
    /// (`0` disables materialization entirely).
    pub fn with_join_cache_capacity(
        fact: Arc<Table>,
        dimensions: Vec<(DimensionSpec, Arc<Table>)>,
        capacity: usize,
    ) -> Result<Self, StorageError> {
        for (spec, dim) in &dimensions {
            let fk = fact.column(&spec.fk_name)?;
            let keys = fk.as_int().ok_or_else(|| StorageError::TypeMismatch {
                column: spec.fk_name.clone(),
                expected: "int",
                got: "non-int",
            })?;
            let n = dim.num_rows() as i64;
            if let Some(&bad) = keys.iter().find(|&&k| k < 0 || k >= n) {
                return Err(StorageError::Csv {
                    line: 0,
                    message: format!(
                        "foreign key {bad} out of range for dimension {} ({} rows)",
                        spec.table_name, n
                    ),
                });
            }
        }
        Ok(StarSchema {
            fact,
            dimensions,
            join_cache: JoinCacheInner::with_capacity(capacity),
            derived: DerivedMemo::default(),
        })
    }

    /// The fact table.
    pub fn fact(&self) -> &Arc<Table> {
        &self.fact
    }

    /// The dimension tables with their specs.
    pub fn dimensions(&self) -> &[(DimensionSpec, Arc<Table>)] {
        &self.dimensions
    }

    /// Finds the dimension table holding `column`, if any.
    pub fn dimension_of_column(&self, column: &str) -> Option<(&DimensionSpec, &Arc<Table>)> {
        self.dimensions
            .iter()
            .find(|(_, t)| t.schema().index_of(column).is_ok())
            .map(|(s, t)| (s, t))
    }

    /// Dimension by table name.
    pub fn dimension(
        &self,
        table_name: &str,
    ) -> Result<(&DimensionSpec, &Arc<Table>), StorageError> {
        self.dimensions
            .iter()
            .find(|(s, _)| s.table_name == table_name)
            .map(|(s, t)| (s, t))
            .ok_or_else(|| StorageError::UnknownTable(table_name.to_string()))
    }

    /// Fact-ordered materialization of the dimension column `column`,
    /// served from the schema's shared join cache.
    ///
    /// The returned column has one row per *fact* row — row `r` holds
    /// `dim_column[fk[r]]` (with nulls preserved) — so scans read it like
    /// any de-normalized column: no per-row foreign-key indirection, no
    /// join at all. Materialization runs once per `(dimension, column)`
    /// pair; the memo is `Arc`-shared across every clone of this schema,
    /// so concurrent sessions and repeated queries against one dataset
    /// reuse a single materialization.
    ///
    /// Returns `None` when `column` is not a dimension attribute, or when
    /// materializing it would push the cache past its byte capacity (the
    /// caller then keeps translated join access; nothing is evicted).
    pub fn materialize_join(&self, column: &str) -> Option<Arc<Column>> {
        let (dim_idx, (spec, dim)) = self
            .dimensions
            .iter()
            .enumerate()
            .find(|(_, (_, t))| t.schema().index_of(column).is_ok())?;
        let col_idx = dim.schema().index_of(column).ok()?;
        let cache = &self.join_cache;
        if let Some(hit) = cache.columns.lock().unwrap().0.get(&(dim_idx, col_idx)) {
            cache.hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(hit));
        }
        let dim_col = dim.column_at(col_idx);
        // Size the materialization *before* building it — declining must
        // not cost an O(fact) gather. The estimate matches the built
        // column's [`Column::byte_size`] by construction: element width ×
        // fact rows, plus the validity bitmap `take` carries over whenever
        // the dimension column has one.
        let elem = match dim_col.data() {
            crate::column::ColumnData::Nominal(..) => 4,
            _ => 8,
        };
        let validity_bytes = if dim_col.validity().is_some() {
            self.fact.num_rows().div_ceil(64) * 8
        } else {
            0
        };
        let size = elem * self.fact.num_rows() + validity_bytes;
        {
            let held = self.join_cache.columns.lock().unwrap().1;
            if held + size > cache.capacity {
                cache.declined.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        let fk = self
            .fact
            .column(&spec.fk_name)
            .ok()?
            .as_int()
            .expect("fk column validated at construction");
        let rows: Vec<usize> = fk.iter().map(|&k| k as usize).collect();
        let materialized = Arc::new(dim_col.take(&rows));
        debug_assert_eq!(materialized.byte_size(), size, "pre-sizing is exact");
        let mut guard = cache.columns.lock().unwrap();
        // Re-check under the lock: a racing materialization may have landed
        // (reuse it, dropping ours) or consumed the remaining budget.
        if let Some(existing) = guard.0.get(&(dim_idx, col_idx)) {
            cache.hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(existing));
        }
        if guard.1 + size > cache.capacity {
            cache.declined.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        guard.1 += materialized.byte_size();
        guard
            .0
            .insert((dim_idx, col_idx), Arc::clone(&materialized));
        cache.misses.fetch_add(1, Ordering::Relaxed);
        Some(materialized)
    }

    /// Counters of the shared join cache (see
    /// [`StarSchema::materialize_join`]).
    pub fn join_cache_stats(&self) -> JoinCacheStats {
        let (entries, bytes) = {
            let guard = self.join_cache.columns.lock().unwrap();
            (guard.0.len(), guard.1)
        };
        JoinCacheStats {
            entries,
            bytes,
            capacity: self.join_cache.capacity,
            hits: self.join_cache.hits.load(Ordering::Relaxed),
            misses: self.join_cache.misses.load(Ordering::Relaxed),
            declined: self.join_cache.declined.load(Ordering::Relaxed),
        }
    }

    /// Total rows across fact and dimensions (size metric for reports).
    pub fn total_rows(&self) -> usize {
        self.fact.num_rows()
            + self
                .dimensions
                .iter()
                .map(|(_, t)| t.num_rows())
                .sum::<usize>()
    }

    /// Total byte footprint across fact and dimensions.
    pub fn byte_size(&self) -> usize {
        self.fact.byte_size()
            + self
                .dimensions
                .iter()
                .map(|(_, t)| t.byte_size())
                .sum::<usize>()
    }
}

/// The dataset handle handed to system adapters.
#[derive(Debug, Clone)]
pub enum Dataset {
    /// One wide de-normalized table.
    Denormalized(Arc<Table>),
    /// Fact + dimensions (normalized star schema).
    Star(Arc<StarSchema>),
}

impl Dataset {
    /// Rows in the fact (or single) table — the "size" of the dataset in the
    /// sense of the paper's S/M/L settings.
    pub fn fact_rows(&self) -> usize {
        match self {
            Dataset::Denormalized(t) => t.num_rows(),
            Dataset::Star(s) => s.fact.num_rows(),
        }
    }

    /// True when the dataset is normalized (requires join support).
    pub fn is_normalized(&self) -> bool {
        matches!(self, Dataset::Star(_))
    }

    /// Whether two handles point at the *same* dataset (`Arc` identity).
    /// Engines use this for idempotent `prepare`: re-preparing the dataset
    /// already loaded must not rebuild shuffles, samples, or statistics.
    pub fn ptr_eq(&self, other: &Dataset) -> bool {
        match (self, other) {
            (Dataset::Denormalized(x), Dataset::Denormalized(y)) => Arc::ptr_eq(x, y),
            (Dataset::Star(x), Dataset::Star(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    /// Total byte footprint.
    pub fn byte_size(&self) -> usize {
        match self {
            Dataset::Denormalized(t) => t.byte_size(),
            Dataset::Star(s) => s.byte_size(),
        }
    }

    /// A physically permuted copy: row `i` of the copy's fact table is row
    /// `order[i]` of this one (see [`Table::permuted`]).
    ///
    /// A star copy shares this schema's dimension tables. Its join cache
    /// has capacity 0, so its joins go through per-plan caches rather
    /// than a second fact-length materialization of every joined column.
    pub fn permuted(&self, order: &[u32]) -> Dataset {
        assert_eq!(order.len(), self.fact_rows(), "order must cover every row");
        match self {
            Dataset::Denormalized(t) => Dataset::Denormalized(Arc::new(t.permuted(order))),
            // Permuting fact rows keeps every foreign key in range, so the
            // copy skips the key validation of `with_join_cache_capacity`.
            Dataset::Star(s) => Dataset::Star(Arc::new(StarSchema {
                fact: Arc::new(s.fact.permuted(order)),
                dimensions: s.dimensions.clone(),
                join_cache: JoinCacheInner::with_capacity(0),
                derived: DerivedMemo::default(),
            })),
        }
    }

    /// This dataset's shuffled copy for `seed`: the live one if another
    /// user holds it, otherwise [`Dataset::permuted`] over `order()`.
    /// Callers with equal seeds share the copy, so `order` must be the
    /// same function of `seed` for every caller.
    ///
    /// At most one shuffled copy lives per dataset, costing one fact
    /// table of memory. While the copy for one seed is alive, a request
    /// for another seed returns `None` and builds nothing; the caller then
    /// visits this dataset through its own order instead. The memo holds
    /// the copy weakly, so it dies with its last user.
    pub fn shuffled_copy(&self, seed: u64, order: impl FnOnce() -> Vec<u32>) -> Option<Dataset> {
        self.memo()
            .get_or_build(DerivedKey::Shuffled(seed), || self.permuted(&order()))
    }

    /// The live dataset derived from this one under `key`, or `build`'s
    /// result, memoized weakly under `key` (see
    /// [`Dataset::shuffled_copy`]). `key` must name the derivation and
    /// every parameter its result depends on; equal keys share one result.
    pub fn memoized(&self, key: String, build: impl FnOnce(&Dataset) -> Dataset) -> Dataset {
        self.memo()
            .get_or_build(DerivedKey::Named(key), || build(self))
            .expect("only shuffled copies are ever refused")
    }

    /// Number of datasets derived from this one (shuffled copies and
    /// memoized derivations) that are still alive.
    pub fn live_derived(&self) -> usize {
        self.memo().live()
    }

    fn memo(&self) -> &DerivedMemo {
        match self {
            Dataset::Denormalized(t) => t.derived(),
            Dataset::Star(s) => &s.derived,
        }
    }

    /// The de-normalized table, if this dataset is de-normalized.
    pub fn as_denormalized(&self) -> Option<&Arc<Table>> {
        match self {
            Dataset::Denormalized(t) => Some(t),
            Dataset::Star(_) => None,
        }
    }

    /// The star schema, if this dataset is normalized.
    pub fn as_star(&self) -> Option<&Arc<StarSchema>> {
        match self {
            Dataset::Star(s) => Some(s),
            Dataset::Denormalized(_) => None,
        }
    }

    /// Computes and caches numeric min/max statistics for every column
    /// (see [`crate::Column::numeric_min_max`]).
    ///
    /// Engines call this during `prepare`, where load/preprocess cost is
    /// already reported, so plan compilation never pays a lazy O(rows)
    /// stats scan inside `submit` — a cost the work-unit accounting could
    /// not otherwise see.
    pub fn warm_numeric_stats(&self) {
        let warm = |t: &Table| {
            for col in t.columns() {
                let _ = col.numeric_min_max();
            }
        };
        match self {
            Dataset::Denormalized(t) => warm(t),
            Dataset::Star(s) => {
                warm(s.fact());
                for (_, dim) in s.dimensions() {
                    warm(dim);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use crate::table::{TableBuilder, Value};

    fn fact() -> Arc<Table> {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("dep_delay", DataType::Float),
                ("carrier_key", DataType::Int),
            ],
        );
        for (d, k) in [(1.0, 0i64), (2.0, 1), (3.0, 0)] {
            b.push_row(&[d.into(), k.into()]).unwrap();
        }
        Arc::new(b.finish())
    }

    fn carriers() -> Arc<Table> {
        let mut b = TableBuilder::with_fields("carriers", &[("carrier", DataType::Nominal)]);
        b.push_row(&[Value::Str("AA".into())]).unwrap();
        b.push_row(&[Value::Str("DL".into())]).unwrap();
        Arc::new(b.finish())
    }

    fn spec() -> DimensionSpec {
        DimensionSpec::new("carriers", "carrier_key", vec!["carrier".into()])
    }

    #[test]
    fn star_schema_validates_keys() {
        let s = StarSchema::new(fact(), vec![(spec(), carriers())]).unwrap();
        assert_eq!(s.total_rows(), 5);
        assert!(s.dimension("carriers").is_ok());
        assert!(s.dimension("nope").is_err());
    }

    #[test]
    fn out_of_range_fk_rejected() {
        let mut b = TableBuilder::with_fields("f", &[("carrier_key", DataType::Int)]);
        b.push_row(&[Value::Int(5)]).unwrap();
        let bad_fact = Arc::new(b.finish());
        assert!(StarSchema::new(bad_fact, vec![(spec(), carriers())]).is_err());
    }

    #[test]
    fn dimension_of_column_finds_home_table() {
        let s = StarSchema::new(fact(), vec![(spec(), carriers())]).unwrap();
        let (d, _) = s.dimension_of_column("carrier").unwrap();
        assert_eq!(d.table_name, "carriers");
        assert!(s.dimension_of_column("dep_delay").is_none());
    }

    #[test]
    fn join_cache_materializes_once_and_shares() {
        let s = StarSchema::new(fact(), vec![(spec(), carriers())]).unwrap();
        let a = s.materialize_join("carrier").unwrap();
        // Fact-ordered: keys [0, 1, 0] → codes of AA, DL, AA.
        let (codes, dict) = a.as_nominal().unwrap();
        assert_eq!(codes, &[0, 1, 0]);
        assert_eq!(dict.value(1), Some("DL"));
        // Second lookup — and lookups through a *clone* of the schema —
        // share the same materialization.
        let b = s.materialize_join("carrier").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let c = s.clone().materialize_join("carrier").unwrap();
        assert!(Arc::ptr_eq(&a, &c));
        let stats = s.join_cache_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 3 * 4);
        assert_eq!((stats.hits, stats.misses, stats.declined), (2, 1, 0));
    }

    #[test]
    fn join_cache_declines_over_capacity() {
        let s =
            StarSchema::with_join_cache_capacity(fact(), vec![(spec(), carriers())], 0).unwrap();
        assert!(s.materialize_join("carrier").is_none());
        let stats = s.join_cache_stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.declined, 1);
    }

    #[test]
    fn join_cache_rejects_non_dimension_columns() {
        let s = StarSchema::new(fact(), vec![(spec(), carriers())]).unwrap();
        assert!(s.materialize_join("dep_delay").is_none(), "fact column");
        assert!(s.materialize_join("ghost").is_none(), "unknown column");
    }

    #[test]
    fn dataset_accessors() {
        let denorm = Dataset::Denormalized(fact());
        assert_eq!(denorm.fact_rows(), 3);
        assert!(!denorm.is_normalized());
        assert!(denorm.as_denormalized().is_some());

        let star = Dataset::Star(Arc::new(
            StarSchema::new(fact(), vec![(spec(), carriers())]).unwrap(),
        ));
        assert!(star.is_normalized());
        assert_eq!(star.fact_rows(), 3);
        assert!(star.as_star().is_some());
        assert!(star.byte_size() > 0);
    }

    /// A fact table with every column type, each nullable, plus the
    /// carrier foreign key.
    fn nullable_fact() -> Arc<Table> {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("dep_delay", DataType::Float),
                ("month", DataType::Int),
                ("origin", DataType::Nominal),
                ("carrier_key", DataType::Int),
            ],
        );
        for i in 0..150i64 {
            let null_or = |v: Value, stride: i64| if i % stride == 0 { Value::Null } else { v };
            b.push_row(&[
                null_or(Value::Float(i as f64 * 0.5 - 20.0), 7),
                null_or(Value::Int(i % 12), 5),
                null_or(Value::Str(format!("A{}", i % 9)), 11),
                Value::Int(i % 2),
            ])
            .unwrap();
        }
        Arc::new(b.finish())
    }

    fn reversed_odds_first(n: u32) -> Vec<u32> {
        (0..n)
            .rev()
            .filter(|r| r % 2 == 1)
            .chain((0..n).filter(|r| r % 2 == 0))
            .collect()
    }

    #[test]
    fn permuted_copy_moves_every_column_and_shares_the_rest() {
        let fact = nullable_fact();
        let star = Dataset::Star(Arc::new(
            StarSchema::new(Arc::clone(&fact), vec![(spec(), carriers())]).unwrap(),
        ));
        let order = reversed_odds_first(fact.num_rows() as u32);
        for source in [Dataset::Denormalized(Arc::clone(&fact)), star] {
            let copy = source.permuted(&order);
            let (src_fact, copy_fact) = match (&source, &copy) {
                (Dataset::Denormalized(s), Dataset::Denormalized(c)) => (s, c),
                (Dataset::Star(s), Dataset::Star(c)) => {
                    // Dimensions are shared; the copy's join cache is off.
                    for ((_, a), (_, b)) in s.dimensions().iter().zip(c.dimensions()) {
                        assert!(Arc::ptr_eq(a, b));
                    }
                    assert_eq!(c.join_cache_stats().capacity, 0);
                    (s.fact(), c.fact())
                }
                _ => panic!("the copy keeps the dataset's form"),
            };
            assert_eq!(copy_fact.num_rows(), src_fact.num_rows());
            for col in 0..src_fact.num_columns() {
                for (i, &r) in order.iter().enumerate() {
                    assert_eq!(
                        copy_fact.value_at(col, i),
                        src_fact.value_at(col, r as usize)
                    );
                }
                let (a, b) = (src_fact.column_at(col), copy_fact.column_at(col));
                assert_eq!(a.numeric_min_max(), b.numeric_min_max());
                if let (Some((_, da)), Some((_, db))) = (a.as_nominal(), b.as_nominal()) {
                    assert!(Arc::ptr_eq(da, db), "dictionaries are shared");
                }
            }
        }
    }

    #[test]
    fn shuffled_copies_are_shared_per_seed_and_held_weakly() {
        let ds = Dataset::Denormalized(nullable_fact());
        let n = ds.fact_rows() as u32;
        let order = || reversed_odds_first(n);
        let a = ds.shuffled_copy(1, order).unwrap();
        let b = ds
            .shuffled_copy(1, || unreachable!("the live copy is reused"))
            .unwrap();
        assert!(a.ptr_eq(&b));
        assert_eq!(ds.live_derived(), 1);
        // A second seed gets no copy while seed 1's lives.
        assert!(ds.shuffled_copy(2, order).is_none());
        drop((a, b));
        assert_eq!(ds.live_derived(), 0, "the memo holds copies weakly");
        let c = ds.shuffled_copy(2, order).unwrap();
        assert_eq!(ds.live_derived(), 1);
        drop(c);

        // Named derivations share per key and coexist with a copy.
        let copy = ds.shuffled_copy(3, order).unwrap();
        let sample = |d: &Dataset| d.permuted(&(0..n).collect::<Vec<_>>());
        let x = ds.memoized("x".into(), sample);
        let y = ds.memoized("x".into(), |_| unreachable!("the live entry is reused"));
        let z = ds.memoized("z".into(), sample);
        assert!(x.ptr_eq(&y) && !x.ptr_eq(&z));
        assert_eq!(ds.live_derived(), 3);
        drop((copy, x, y, z));
        assert_eq!(ds.live_derived(), 0);
    }
}
