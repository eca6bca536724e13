//! Columnar storage substrate for IDEBench.
//!
//! This crate provides the in-memory column store that all IDEBench query
//! engines operate on: typed columns (64-bit floats, 64-bit integers, and
//! dictionary-encoded nominal strings), immutable [`Table`]s with a
//! [`Schema`], star-schema datasets ([`StarSchema`], [`Dataset`]), selection
//! vectors ([`SelVec`]) used by vectorized predicate evaluation, and a plain
//! CSV reader/writer used by the data-preparation experiments.
//!
//! Design notes:
//! - Columns are append-only during construction (via [`TableBuilder`]) and
//!   immutable afterwards; engines share tables via `Arc`.
//! - Nominal (categorical) values are dictionary-encoded as dense `u32`
//!   codes, which makes group-by and filtering on categories cheap.
//! - Nulls are tracked with an optional validity bitmap; fully-valid columns
//!   carry no bitmap at all.
//! - A [`Dataset`] memoizes the datasets derived from it (a physically
//!   shuffled copy, samples) and holds them weakly: their users keep them
//!   alive (see [`Dataset::shuffled_copy`]).

pub mod column;
pub mod csv;
mod derived;
pub mod dictionary;
pub mod error;
pub mod schema;
pub mod selection;
pub mod star;
pub mod table;

pub use column::{Column, ColumnData, ColumnSlice};
pub use csv::{read_csv, write_csv};
pub use dictionary::Dictionary;
pub use error::StorageError;
pub use schema::{DataType, Field, Schema};
pub use selection::SelVec;
pub use star::{Dataset, DimensionSpec, JoinCacheStats, StarSchema, DEFAULT_JOIN_CACHE_BYTES};
pub use table::{Table, TableBuilder, Value};
