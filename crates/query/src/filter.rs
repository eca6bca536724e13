//! Compiled filter evaluation.

use crate::resolve::ResolvedColumn;
use idebench_core::{CoreError, FilterExpr, Predicate};
use idebench_storage::{Dataset, SelVec, Table};
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
        Self::compile_with(expr, &mut |name| ResolvedColumn::new(dataset, name))
    }

    /// Compiles an expression against a bare table (sample tables).
    pub fn compile_on_table(table: &'a Table, expr: &FilterExpr) -> Result<Self, CoreError> {
        Self::compile_with(expr, &mut |name| ResolvedColumn::on_table(table, name))
    }

    fn compile_with(
        expr: &FilterExpr,
        resolve: &mut dyn FnMut(&str) -> Result<ResolvedColumn<'a>, CoreError>,
    ) -> Result<Self, CoreError> {
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
                    .map(|c| Self::compile_with(c, resolve))
                    .collect::<Result<_, _>>()?,
            ),
            FilterExpr::Or(children) => CompiledFilter::Or(
                children
                    .iter()
                    .map(|c| Self::compile_with(c, resolve))
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

    /// Vectorized evaluation into a selection vector over `num_rows`.
    ///
    /// Lowers the tree onto the morsel batch kernels (IN-sets become dense
    /// membership tables) and installs match masks word-by-word via
    /// [`SelVec::set_word`] — no per-row dispatch.
    pub fn eval_selvec(&self, num_rows: usize) -> SelVec {
        use crate::batch::{eval_filter, tail_mask, Morsel, MORSEL};

        // Arena of membership tables (one per IN node, preorder), then a
        // bound tree referencing them.
        let mut members: Vec<Vec<bool>> = Vec::new();
        self.collect_members(&mut members);
        let mut next = 0usize;
        let bound = self.lower(&members, &mut next);

        let mut sel = SelVec::none(num_rows);
        let mut mask = [0u64; MORSEL / 64];
        let mut base = 0usize;
        while base < num_rows {
            let n = MORSEL.min(num_rows - base);
            eval_filter(&bound, &Morsel::natural(base, n), &tail_mask(n), &mut mask);
            for (w, &bits) in mask.iter().enumerate().take(n.div_ceil(64)) {
                sel.set_word(base / 64 + w, bits);
            }
            base += n;
        }
        sel
    }

    /// Builds the dense membership table of every `In` node, in preorder.
    fn collect_members(&self, out: &mut Vec<Vec<bool>>) {
        match self {
            CompiledFilter::Range { .. } => {}
            CompiledFilter::In { col, codes } => {
                let dict_len = col.column().as_nominal().map_or(0, |(_, dict)| dict.len());
                let mut member = vec![false; dict_len];
                for &code in codes {
                    if let Some(slot) = member.get_mut(code as usize) {
                        *slot = true;
                    }
                }
                out.push(member);
            }
            CompiledFilter::And(children) | CompiledFilter::Or(children) => {
                for c in children {
                    c.collect_members(out);
                }
            }
        }
    }

    /// Lowers to the batch-kernel tree, consuming `members` in preorder.
    fn lower<'m>(
        &'m self,
        members: &'m [Vec<bool>],
        next: &mut usize,
    ) -> crate::batch::BoundFilter<'m> {
        use crate::batch::BoundFilter;
        match self {
            CompiledFilter::Range { col, min, max } => BoundFilter::Range {
                col: col.view(),
                test: crate::plan::RangeTest::new(*min, *max),
            },
            CompiledFilter::In { col, .. } => {
                let member = &members[*next];
                *next += 1;
                BoundFilter::In {
                    col: col.view(),
                    member,
                }
            }
            CompiledFilter::And(children) => {
                BoundFilter::And(children.iter().map(|c| c.lower(members, next)).collect())
            }
            CompiledFilter::Or(children) => {
                BoundFilter::Or(children.iter().map(|c| c.lower(members, next)).collect())
            }
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
    fn eval_selvec_counts() {
        let ds = dataset();
        let f = CompiledFilter::compile(&ds, &isin(&["AA"])).unwrap();
        let sel = f.eval_selvec(4);
        assert_eq!(sel.count(), 2);
        assert_eq!(sel.iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    /// `eval_selvec` lowers the tree onto the batch kernels while
    /// `matches` interprets it per row; this differential keeps the two
    /// lowerings semantically locked together (nulls, nested And/Or,
    /// unknown categories, morsel-boundary tails).
    #[test]
    fn eval_selvec_agrees_with_per_row_matches() {
        let mut b = TableBuilder::with_fields(
            "t",
            &[("carrier", DataType::Nominal), ("x", DataType::Float)],
        );
        // Cross a morsel boundary (> 1024 rows) and include nulls.
        let n = 2_500usize;
        for i in 0..n {
            let c = ["AA", "DL", "UA"][i % 3];
            let x = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Float((i % 113) as f64 - 40.0)
            };
            b.push_row(&[c.into(), x]).unwrap();
        }
        let ds = Dataset::Denormalized(Arc::new(b.finish()));
        let exprs = [
            FilterExpr::Pred(Predicate::Range {
                column: "x".into(),
                min: -10.0,
                max: 35.0,
            }),
            isin(&["AA", "ZZ"]),
            isin(&["DL"]).and(FilterExpr::Pred(Predicate::Range {
                column: "x".into(),
                min: 0.0,
                max: 20.0,
            })),
            FilterExpr::Or(vec![
                isin(&["UA"]),
                FilterExpr::And(vec![]), // TRUE
            ]),
            FilterExpr::Or(vec![]), // FALSE
        ];
        for expr in &exprs {
            let f = CompiledFilter::compile(&ds, expr).unwrap();
            let sel = f.eval_selvec(n);
            for row in 0..n {
                assert_eq!(sel.contains(row), f.matches(row), "row {row} of {expr:?}");
            }
        }
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
