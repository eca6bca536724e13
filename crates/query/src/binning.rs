//! Compiled binning: mapping rows to bin keys.

use crate::resolve::ResolvedColumn;
use idebench_core::{BinCoord, BinDef, BinKey, CoreError};
use idebench_storage::Dataset;

/// One compiled binning dimension.
enum CompiledDim<'a> {
    Nominal(ResolvedColumn<'a>),
    Width {
        col: ResolvedColumn<'a>,
        width: f64,
        anchor: f64,
    },
}

impl CompiledDim<'_> {
    #[inline]
    fn coord_of(&self, row: usize) -> Option<BinCoord> {
        match self {
            CompiledDim::Nominal(col) => col.code_at(row).map(BinCoord::Cat),
            CompiledDim::Width { col, width, anchor } => {
                let v = col.numeric_at(row)?;
                Some(BinCoord::Bucket(((v - anchor) / width).floor() as i64))
            }
        }
    }

    fn is_joined(&self) -> bool {
        match self {
            CompiledDim::Nominal(c) => c.is_joined(),
            CompiledDim::Width { col, .. } => col.is_joined(),
        }
    }
}

/// Compiled 1D/2D binning for a query.
pub struct CompiledBinning<'a> {
    dims: Vec<CompiledDim<'a>>,
}

impl<'a> CompiledBinning<'a> {
    /// Compiles binning definitions against a dataset.
    ///
    /// [`BinDef::Count`] must have been resolved to `Width` by the driver
    /// beforehand (it needs a data min/max pass); encountering one here is
    /// an error.
    pub fn compile(dataset: &'a Dataset, defs: &[BinDef]) -> Result<Self, CoreError> {
        let resolve = |name: &str| ResolvedColumn::new(dataset, name);
        let dims = defs
            .iter()
            .map(|def| {
                Ok(match def {
                    BinDef::Nominal { dimension } => {
                        let col = resolve(dimension)?;
                        if col.column().as_nominal().is_none() {
                            return Err(CoreError::Storage(format!(
                                "nominal binning on non-nominal column {dimension}"
                            )));
                        }
                        CompiledDim::Nominal(col)
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
                        CompiledDim::Width {
                            col: resolve(dimension)?,
                            width: *width,
                            anchor: *anchor,
                        }
                    }
                    BinDef::Count { dimension, .. } => {
                        return Err(CoreError::Storage(format!(
                            "unresolved count binning on {dimension} (driver resolves these)"
                        )))
                    }
                })
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok(CompiledBinning { dims })
    }

    /// The bin key for a row; `None` when any binned value is null.
    #[inline]
    pub fn bin_of(&self, row: usize) -> Option<BinKey> {
        match self.dims.len() {
            1 => Some(BinKey::d1(self.dims[0].coord_of(row)?)),
            2 => Some(BinKey::d2(
                self.dims[0].coord_of(row)?,
                self.dims[1].coord_of(row)?,
            )),
            n => {
                debug_assert!(false, "unsupported binning arity {n}");
                None
            }
        }
    }

    /// Number of binning dimensions.
    pub fn arity(&self) -> usize {
        self.dims.len()
    }

    /// Join-accessed binning columns (cost model input).
    pub fn joined_columns(&self) -> usize {
        self.dims.iter().filter(|d| d.is_joined()).count()
    }

    /// Total scan width of the binning columns in 4-byte units.
    pub fn width_units(&self) -> f64 {
        self.dims
            .iter()
            .map(|d| match d {
                CompiledDim::Nominal(c) => c.width_units(),
                CompiledDim::Width { col, .. } => col.width_units(),
            })
            .sum()
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
        for (c, d) in [("AA", 5.0), ("DL", 15.0), ("AA", -7.0)] {
            b.push_row(&[c.into(), d.into()]).unwrap();
        }
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    #[test]
    fn nominal_bins_are_codes() {
        let ds = dataset();
        let b = CompiledBinning::compile(
            &ds,
            &[BinDef::Nominal {
                dimension: "carrier".into(),
            }],
        )
        .unwrap();
        assert_eq!(b.bin_of(0), Some(BinKey::d1(BinCoord::Cat(0))));
        assert_eq!(b.bin_of(1), Some(BinKey::d1(BinCoord::Cat(1))));
        assert_eq!(b.arity(), 1);
    }

    #[test]
    fn width_bins_floor_including_negatives() {
        let ds = dataset();
        let b = CompiledBinning::compile(
            &ds,
            &[BinDef::Width {
                dimension: "dep_delay".into(),
                width: 10.0,
                anchor: 0.0,
            }],
        )
        .unwrap();
        assert_eq!(b.bin_of(0), Some(BinKey::d1(BinCoord::Bucket(0)))); // 5.0
        assert_eq!(b.bin_of(1), Some(BinKey::d1(BinCoord::Bucket(1)))); // 15.0
        assert_eq!(b.bin_of(2), Some(BinKey::d1(BinCoord::Bucket(-1)))); // -7.0
    }

    #[test]
    fn anchor_shifts_bins() {
        let ds = dataset();
        let b = CompiledBinning::compile(
            &ds,
            &[BinDef::Width {
                dimension: "dep_delay".into(),
                width: 10.0,
                anchor: 5.0,
            }],
        )
        .unwrap();
        assert_eq!(b.bin_of(0), Some(BinKey::d1(BinCoord::Bucket(0)))); // 5.0 → [5,15)
        assert_eq!(b.bin_of(2), Some(BinKey::d1(BinCoord::Bucket(-2)))); // -7 → [-15,-5)
    }

    #[test]
    fn two_dimensional_keys() {
        let ds = dataset();
        let b = CompiledBinning::compile(
            &ds,
            &[
                BinDef::Nominal {
                    dimension: "carrier".into(),
                },
                BinDef::Width {
                    dimension: "dep_delay".into(),
                    width: 10.0,
                    anchor: 0.0,
                },
            ],
        )
        .unwrap();
        assert_eq!(
            b.bin_of(1),
            Some(BinKey::d2(BinCoord::Cat(1), BinCoord::Bucket(1)))
        );
        assert_eq!(b.arity(), 2);
    }

    #[test]
    fn null_values_produce_no_bin() {
        let mut t = TableBuilder::with_fields("t", &[("x", DataType::Float)]);
        t.push_row(&[Value::Null]).unwrap();
        let ds = Dataset::Denormalized(Arc::new(t.finish()));
        let b = CompiledBinning::compile(
            &ds,
            &[BinDef::Width {
                dimension: "x".into(),
                width: 1.0,
                anchor: 0.0,
            }],
        )
        .unwrap();
        assert_eq!(b.bin_of(0), None);
    }

    #[test]
    fn invalid_definitions_rejected() {
        let ds = dataset();
        assert!(CompiledBinning::compile(
            &ds,
            &[BinDef::Nominal {
                dimension: "dep_delay".into()
            }]
        )
        .is_err());
        assert!(CompiledBinning::compile(
            &ds,
            &[BinDef::Width {
                dimension: "dep_delay".into(),
                width: 0.0,
                anchor: 0.0
            }]
        )
        .is_err());
        assert!(CompiledBinning::compile(
            &ds,
            &[BinDef::Count {
                dimension: "dep_delay".into(),
                bins: 10
            }]
        )
        .is_err());
    }
}
