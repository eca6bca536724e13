//! Column resolution: binding query column names to dataset storage,
//! following star-schema foreign keys when necessary.

use idebench_core::{CoreError, Query};
use idebench_storage::{Column, Dataset};

/// A query column bound to physical storage.
///
/// For de-normalized datasets `fk` is `None` and `column` indexes directly
/// by row. For star schemas, a column living in a dimension table is
/// accessed through the fact table's foreign-key column: the value for fact
/// row `r` is `column[fk[r]]`. This indirection *is* the join — engines
/// charge extra work units for it (see the engines' cost models).
#[derive(Debug, Clone, Copy)]
pub struct ResolvedColumn<'a> {
    column: &'a Column,
    fk: Option<&'a [i64]>,
}

impl<'a> ResolvedColumn<'a> {
    /// Resolves `name` against a dataset.
    pub fn new(dataset: &'a Dataset, name: &str) -> Result<Self, CoreError> {
        match dataset {
            Dataset::Denormalized(t) => Ok(ResolvedColumn {
                column: t.column(name)?,
                fk: None,
            }),
            Dataset::Star(s) => {
                if let Ok(c) = s.fact().column(name) {
                    return Ok(ResolvedColumn {
                        column: c,
                        fk: None,
                    });
                }
                let (spec, dim) = s.dimension_of_column(name).ok_or_else(|| {
                    CoreError::Storage(format!("unknown column {name} in star schema"))
                })?;
                let fk =
                    s.fact().column(&spec.fk_name)?.as_int().ok_or_else(|| {
                        CoreError::Storage(format!("fk {} not int", spec.fk_name))
                    })?;
                Ok(ResolvedColumn {
                    column: dim.column(name)?,
                    fk: Some(fk),
                })
            }
        }
    }

    /// Whether this column is reached through a foreign key (join access).
    pub fn is_joined(&self) -> bool {
        self.fk.is_some()
    }

    /// Scan width of the column in 4-byte units (dictionary codes are 4
    /// bytes, ints/floats 8). Join-accessed columns additionally pay for the
    /// 8-byte foreign-key read and an amortized probe. Engine cost models
    /// build on this.
    pub fn width_units(&self) -> f64 {
        let own = match self.column.data() {
            idebench_storage::ColumnData::Nominal(..) => 1.0,
            _ => 2.0,
        };
        if self.fk.is_some() {
            own + 2.0 + 0.5
        } else {
            own
        }
    }

    #[inline]
    fn physical_row(&self, row: usize) -> usize {
        match self.fk {
            Some(fk) => fk[row] as usize,
            None => row,
        }
    }

    /// Numeric value at the (fact) row, `None` when null.
    #[inline]
    pub fn numeric_at(&self, row: usize) -> Option<f64> {
        self.column.numeric_at(self.physical_row(row))
    }

    /// Dictionary code at the (fact) row, `None` when null or non-nominal.
    #[inline]
    pub fn code_at(&self, row: usize) -> Option<u32> {
        let r = self.physical_row(row);
        if !self.column.is_valid(r) {
            return None;
        }
        self.column.as_nominal().map(|(codes, _)| codes[r])
    }

    /// The underlying column (dictionary access etc.).
    pub fn column(&self) -> &'a Column {
        self.column
    }
}

/// A fully-resolved query: compiled filter, binning and measure accessors,
/// valid for the lifetime of the dataset borrow.
///
/// This is the row-at-a-time reference path behind
/// [`crate::execute_exact_scalar`], the oracle the vectorized
/// [`crate::CompiledPlan`] path is tested against.
pub struct ResolvedQuery<'a> {
    /// Compiled filter; `None` means all rows match.
    pub filter: Option<crate::filter::CompiledFilter<'a>>,
    /// Compiled binning.
    pub binning: crate::binning::CompiledBinning<'a>,
    /// Measure column per aggregate (`None` for COUNT).
    pub measures: Vec<Option<ResolvedColumn<'a>>>,
    /// Number of fact rows.
    pub num_rows: usize,
    /// How many of the referenced columns are join-accessed (cost model).
    pub joined_columns: usize,
    /// Total scan width of all referenced columns in 4-byte units.
    pub width_units: f64,
    /// Number of columns of the fact (or single) table — row stores and
    /// tuple-reconstruction overheads scale with this.
    pub fact_arity: usize,
}

impl<'a> ResolvedQuery<'a> {
    /// Binds `query` against `dataset`.
    pub fn new(dataset: &'a Dataset, query: &Query) -> Result<Self, CoreError> {
        let filter = query
            .filter()
            .map(|f| crate::filter::CompiledFilter::compile(dataset, f))
            .transpose()?;
        let binning = crate::binning::CompiledBinning::compile(dataset, query.binning())?;
        let measures = query
            .aggregates()
            .iter()
            .map(|a| {
                a.dimension
                    .as_deref()
                    .map(|d| ResolvedColumn::new(dataset, d))
                    .transpose()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let num_rows = dataset.fact_rows();
        let joined_columns = binning.joined_columns()
            + filter.as_ref().map_or(0, |f| f.joined_columns())
            + measures.iter().flatten().filter(|m| m.is_joined()).count();
        let width_units = binning.width_units()
            + filter.as_ref().map_or(0.0, |f| f.width_units())
            + measures
                .iter()
                .flatten()
                .map(ResolvedColumn::width_units)
                .sum::<f64>();
        let fact_arity = match dataset {
            Dataset::Denormalized(t) => t.num_columns(),
            Dataset::Star(s) => s.fact().num_columns(),
        };
        Ok(ResolvedQuery {
            filter,
            binning,
            measures,
            num_rows,
            joined_columns,
            width_units,
            fact_arity,
        })
    }

    /// Whether the (fact) row passes the filter.
    #[inline]
    pub fn matches(&self, row: usize) -> bool {
        self.filter.as_ref().is_none_or(|f| f.matches(row))
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
    use std::sync::Arc;

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
        let schema = StarSchema::new(
            Arc::new(f.finish()),
            vec![(
                DimensionSpec::new("carriers", "carrier_key", vec!["carrier".into()]),
                Arc::new(d.finish()),
            )],
        )
        .unwrap();
        Dataset::Star(Arc::new(schema))
    }

    #[test]
    fn direct_column_access() {
        let ds = denorm();
        let c = ResolvedColumn::new(&ds, "dep_delay").unwrap();
        assert!(!c.is_joined());
        assert_eq!(c.numeric_at(1), Some(15.0));
    }

    #[test]
    fn star_column_goes_through_fk() {
        let ds = star();
        let c = ResolvedColumn::new(&ds, "carrier").unwrap();
        assert!(c.is_joined());
        // Row 0 has carrier_key = 1 → "DL" (code 1 in dim dictionary).
        assert_eq!(c.code_at(0), Some(1));
        assert_eq!(c.code_at(1), Some(0));
    }

    #[test]
    fn unknown_column_errors() {
        let ds = star();
        assert!(ResolvedColumn::new(&ds, "ghost").is_err());
    }

    #[test]
    fn resolved_query_costs_joins() {
        let ds = star();
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::over(AggFunc::Avg, "dep_delay")],
        );
        let q = Query::for_viz(&spec, None);
        let r = ResolvedQuery::new(&ds, &q).unwrap();
        assert_eq!(r.joined_columns, 1);
        assert_eq!(r.row_cost(), 2);
        assert_eq!(r.num_rows, 2);

        let denorm_ds = denorm();
        let q2 = Query::for_viz(&spec, None);
        let r2 = ResolvedQuery::new(&denorm_ds, &q2).unwrap();
        assert_eq!(r2.row_cost(), 1);
    }
}
