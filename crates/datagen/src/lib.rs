//! The IDEBench data generator (paper §4.2).
//!
//! Three pieces:
//!
//! - [`flights`]: a synthetic seed generator for the paper's default
//!   dataset — U.S. domestic flights (Figure 2). The original benchmark
//!   downloads real BTS data; this reproduction synthesizes a seed with the
//!   same schema and the distribution features that matter to AQP engines:
//!   skewed categorical marginals (Zipf airports/carriers), heavy-tailed
//!   delays, bimodal departure times, and strong cross-attribute
//!   correlations (dep/arr delay, distance/air time).
//! - [`copula`]: the scaling procedure quoted from the paper: sample the
//!   seed, compute the covariance matrix Σ of normal scores, Cholesky-factor
//!   Σ = AᵀA, draw X ~ N(0, I), correlate X̃ = AX, map through Φ to uniforms
//!   and through each attribute's empirical inverse CDF to values.
//! - [`mod@normalize`]: vertical partitioning of a de-normalized table into a
//!   star schema given dimension specifications (paper: "transformation of
//!   data into a more normalized form based on a specification").
//!
//! Supporting numerics live in [`stats`] and [`matrix`].

pub mod copula;
mod domain;
pub mod flights;
pub mod matrix;
pub mod normalize;
pub mod orders;
pub mod stats;

pub use copula::CopulaScaler;
pub use flights::{generate, FLIGHTS_TABLE};
pub use normalize::{normalize, normalize_flights};
