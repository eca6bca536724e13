//! Determinism contract of the synthetic seed generators.
//!
//! `flights::generate` and `orders::generate` promise that equal `(n, seed)`
//! produce an identical table across versions: every report, ground truth
//! and virtual-time metric downstream depends on it. This test pins both
//! generators to digests of their full output — every column's raw bits
//! (`f64::to_bits`, `i64`, dictionary codes), every validity mask, and every
//! dictionary's values in code order. A change that alters one bit of any
//! generated table (an RNG draw moved, an expression reassociated, a
//! nominal code assigned in a different order) fails here.

use idebench_datagen::{flights, orders};
use idebench_storage::{ColumnData, Table};

/// FNV-1a, 64-bit: fixed, dependency-free and stable across releases.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(t: &Table) -> u64 {
    let mut h = Fnv::new();
    h.bytes(t.name().as_bytes());
    h.u64(t.num_rows() as u64);
    for (field, col) in t.schema().fields().iter().zip(t.columns()) {
        h.bytes(field.name.as_bytes());
        h.bytes(field.dtype.name().as_bytes());
        match col.data() {
            ColumnData::Float(v) => v.iter().for_each(|x| h.u64(x.to_bits())),
            ColumnData::Int(v) => v.iter().for_each(|&x| h.u64(x as u64)),
            ColumnData::Nominal(codes, dict) => {
                codes.iter().for_each(|&c| h.u64(u64::from(c)));
                h.u64(dict.len() as u64);
                for value in dict.values() {
                    h.u64(value.len() as u64);
                    h.bytes(value.as_bytes());
                }
            }
        }
        match col.validity() {
            None => h.u64(0),
            Some(valid) => {
                h.u64(1);
                (0..col.len()).for_each(|i| h.u64(u64::from(valid.contains(i))));
            }
        }
    }
    h.0
}

const CASES: [(usize, u64); 4] = [(0, 1), (1, 1), (50_000, 42), (50_000, u64::MAX)];

#[test]
fn flights_output_is_pinned() {
    let expected: [u64; 4] = [
        5518491660047163104,
        18356360397001897398,
        11647855512785448867,
        5114479220850391379,
    ];
    let got: Vec<u64> = CASES
        .iter()
        .map(|&(n, seed)| digest(&flights::generate(n, seed)))
        .collect();
    assert_eq!(got, expected, "flights::generate output changed");
}

#[test]
fn orders_output_is_pinned() {
    let expected: [u64; 4] = [
        3115734834900383907,
        6475315702099108093,
        11213385800087413107,
        18383828885711780825,
    ];
    let got: Vec<u64> = CASES
        .iter()
        .map(|&(n, seed)| digest(&orders::generate(n, seed)))
        .collect();
    assert_eq!(got, expected, "orders::generate output changed");
}
