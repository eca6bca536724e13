//! Row-at-a-time filter evaluation for the scalar reference path
//! ([`crate::ResolvedQuery`]). The vectorized path lowers filters in
//! [`crate::plan`] instead.

use crate::resolve::ResolvedColumn;
use idebench_core::{CoreError, FilterExpr, Predicate};
use idebench_storage::Dataset;
use rustc_hash::FxHashSet;

/// A filter tree bound to physical columns, evaluable per row.
pub enum CompiledFilter<'a> {
    /// Quantitative half-open range test.
    Range {
        /// Bound column.
        col: ResolvedColumn<'a>,
        /// Inclusive lower bound.
        min: f64,
        /// Exclusive upper bound.
        max: f64,
    },
    /// Nominal membership test over dictionary codes.
    In {
        /// Bound column.
        col: ResolvedColumn<'a>,
        /// Accepted codes. Categories absent from the dictionary simply
        /// never match (the filter referenced a value not in the data).
        codes: FxHashSet<u32>,
    },
    /// All children must match (empty = TRUE).
    And(Vec<CompiledFilter<'a>>),
    /// Any child must match (empty = FALSE).
    Or(Vec<CompiledFilter<'a>>),
}

impl<'a> CompiledFilter<'a> {
    /// Compiles an expression against a dataset.
    pub fn compile(dataset: &'a Dataset, expr: &FilterExpr) -> Result<Self, CoreError> {
        let resolve = |name: &str| ResolvedColumn::new(dataset, name);
        Ok(match expr {
            FilterExpr::Pred(Predicate::Range { column, min, max }) => CompiledFilter::Range {
                col: resolve(column)?,
                min: *min,
                max: *max,
            },
            FilterExpr::Pred(Predicate::In { column, values }) => {
                let col = resolve(column)?;
                let codes = match col.column().as_nominal() {
                    Some((_, dict)) => values.iter().filter_map(|v| dict.code(v)).collect(),
                    None => {
                        return Err(CoreError::Storage(format!(
                            "IN filter on non-nominal column {column}"
                        )))
                    }
                };
                CompiledFilter::In { col, codes }
            }
            FilterExpr::And(children) => CompiledFilter::And(
                children
                    .iter()
                    .map(|c| Self::compile(dataset, c))
                    .collect::<Result<_, _>>()?,
            ),
            FilterExpr::Or(children) => CompiledFilter::Or(
                children
                    .iter()
                    .map(|c| Self::compile(dataset, c))
                    .collect::<Result<_, _>>()?,
            ),
        })
    }

    /// Whether the (fact) row matches. Null values never match a predicate,
    /// mirroring SQL three-valued logic collapsing to FALSE in WHERE.
    #[inline]
    pub fn matches(&self, row: usize) -> bool {
        match self {
            CompiledFilter::Range { col, min, max } => match col.numeric_at(row) {
                Some(v) => v >= *min && v < *max,
                None => false,
            },
            CompiledFilter::In { col, codes } => match col.code_at(row) {
                Some(c) => codes.contains(&c),
                None => false,
            },
            CompiledFilter::And(children) => children.iter().all(|c| c.matches(row)),
            CompiledFilter::Or(children) => children.iter().any(|c| c.matches(row)),
        }
    }

    /// Number of join-accessed columns in the tree (cost model input).
    pub fn joined_columns(&self) -> usize {
        match self {
            CompiledFilter::Range { col, .. } => usize::from(col.is_joined()),
            CompiledFilter::In { col, .. } => usize::from(col.is_joined()),
            CompiledFilter::And(children) | CompiledFilter::Or(children) => {
                children.iter().map(CompiledFilter::joined_columns).sum()
            }
        }
    }

    /// Total scan width of the filtered columns in 4-byte units.
    pub fn width_units(&self) -> f64 {
        match self {
            CompiledFilter::Range { col, .. } | CompiledFilter::In { col, .. } => col.width_units(),
            CompiledFilter::And(children) | CompiledFilter::Or(children) => {
                children.iter().map(CompiledFilter::width_units).sum()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idebench_storage::{DataType, TableBuilder, Value};
    use std::sync::Arc;

    fn dataset() -> Dataset {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("carrier", DataType::Nominal),
                ("dep_delay", DataType::Float),
            ],
        );
        for (c, d) in [("AA", 5.0), ("DL", 15.0), ("AA", 25.0), ("UA", -3.0)] {
            b.push_row(&[c.into(), d.into()]).unwrap();
        }
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    fn range(min: f64, max: f64) -> FilterExpr {
        FilterExpr::Pred(Predicate::Range {
            column: "dep_delay".into(),
            min,
            max,
        })
    }

    fn isin(values: &[&str]) -> FilterExpr {
        FilterExpr::Pred(Predicate::In {
            column: "carrier".into(),
            values: values.iter().map(|s| s.to_string()).collect(),
        })
    }

    #[test]
    fn range_is_half_open() {
        let ds = dataset();
        let f = CompiledFilter::compile(&ds, &range(5.0, 15.0)).unwrap();
        assert!(f.matches(0)); // 5.0 included
        assert!(!f.matches(1)); // 15.0 excluded
        assert!(!f.matches(3)); // -3.0 below
    }

    #[test]
    fn in_matches_codes() {
        let ds = dataset();
        let f = CompiledFilter::compile(&ds, &isin(&["AA", "UA"])).unwrap();
        assert!(f.matches(0));
        assert!(!f.matches(1));
        assert!(f.matches(3));
    }

    #[test]
    fn unknown_category_never_matches() {
        let ds = dataset();
        let f = CompiledFilter::compile(&ds, &isin(&["ZZ"])).unwrap();
        assert!((0..4).all(|r| !f.matches(r)));
    }

    #[test]
    fn and_or_combinators() {
        let ds = dataset();
        let f = CompiledFilter::compile(&ds, &isin(&["AA"]).and(range(0.0, 10.0))).unwrap();
        assert!(f.matches(0)); // AA, 5.0
        assert!(!f.matches(2)); // AA, 25.0

        let or = FilterExpr::Or(vec![isin(&["DL"]), range(20.0, 30.0)]);
        let f2 = CompiledFilter::compile(&ds, &or).unwrap();
        assert!(f2.matches(1));
        assert!(f2.matches(2));
        assert!(!f2.matches(0));
    }

    #[test]
    fn in_on_float_column_rejected() {
        let ds = dataset();
        let bad = FilterExpr::Pred(Predicate::In {
            column: "dep_delay".into(),
            values: vec!["5".into()],
        });
        assert!(CompiledFilter::compile(&ds, &bad).is_err());
    }

    #[test]
    fn null_rows_never_match() {
        let mut b = TableBuilder::with_fields("t", &[("x", DataType::Float)]);
        b.push_row(&[Value::Null]).unwrap();
        b.push_row(&[0.5.into()]).unwrap();
        let ds = Dataset::Denormalized(Arc::new(b.finish()));
        let f = CompiledFilter::compile(
            &ds,
            &FilterExpr::Pred(Predicate::Range {
                column: "x".into(),
                min: f64::NEG_INFINITY,
                max: f64::INFINITY,
            }),
        )
        .unwrap();
        assert!(!f.matches(0));
        assert!(f.matches(1));
    }

    #[test]
    fn empty_and_or_semantics() {
        let ds = dataset();
        let t = CompiledFilter::compile(&ds, &FilterExpr::And(vec![])).unwrap();
        assert!(t.matches(0));
        let f = CompiledFilter::compile(&ds, &FilterExpr::Or(vec![])).unwrap();
        assert!(!f.matches(0));
    }
}
