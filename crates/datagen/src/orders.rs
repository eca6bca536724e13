//! A second synthetic seed dataset: e-commerce orders.
//!
//! The paper requires that "users can use any other dataset to customize
//! the benchmark" (§4.2). This module provides a ready-made alternative to
//! the flights data with a different distribution mix — long-tailed product
//! popularity, log-normal prices, diurnal order times, and region-dependent
//! shipping — used by the customizability example and tests.
//!
//! Construction and determinism follow [`crate::flights`]: rows go straight
//! into typed column buffers, region/category/product labels are interned on
//! first sight (so nominal codes follow first-seen order), and equal
//! `(n, seed)` gives an identical table across runs and versions, pinned by
//! the crate's golden test.

use crate::domain::DomainCodes;
use crate::stats::{sample_cumulative, standard_normal, zipf_cumulative};
use idebench_storage::{Column, DataType, Schema, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Name of the generated table.
pub const ORDERS_TABLE: &str = "orders";

/// Number of distinct sales regions.
pub const NUM_REGIONS: usize = 10;
/// Number of distinct product categories.
pub const NUM_CATEGORIES: usize = 24;
/// Number of distinct products.
pub const NUM_PRODUCTS: usize = 400;

/// The orders schema: `(name, type)` pairs.
pub const SCHEMA: &[(&str, DataType)] = &[
    ("region", DataType::Nominal),
    ("category", DataType::Nominal),
    ("product", DataType::Nominal),
    ("order_hour", DataType::Float),
    ("quantity", DataType::Int),
    ("unit_price", DataType::Float),
    ("discount", DataType::Float),
    ("revenue", DataType::Float),
    ("ship_days", DataType::Float),
];

/// Generates `n` synthetic orders with the given RNG seed.
///
/// Deterministic: equal `(n, seed)` always produces an identical table,
/// across versions too (the crate's golden test pins the output bits).
/// Every row is written straight into typed column buffers; nominal codes
/// are assigned in first-seen order.
pub fn generate(n: usize, seed: u64) -> Table {
    // Salt keeps orders streams independent from equal-seed flights data.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x04de_15a1);
    let product_cum = zipf_cumulative(NUM_PRODUCTS, 1.1);
    let region_cum = zipf_cumulative(NUM_REGIONS, 0.6);
    // Product base prices: log-normal, fixed per product.
    let base_price: Vec<f64> = (0..NUM_PRODUCTS)
        .map(|_| (2.5 + standard_normal(&mut rng) * 0.9).exp())
        .collect();
    // Region shipping base: farther regions ship slower.
    let ship_base: Vec<f64> = (0..NUM_REGIONS).map(|r| 1.5 + r as f64 * 0.7).collect();

    let mut regions = DomainCodes::new(NUM_REGIONS, n, |r| format!("R{r:02}"));
    let mut categories = DomainCodes::new(NUM_CATEGORIES, n, |c| format!("CAT{c:02}"));
    let mut products = DomainCodes::new(NUM_PRODUCTS, n, |p| format!("P{p:04}"));
    let mut order_hours = Vec::with_capacity(n);
    let mut quantities = Vec::with_capacity(n);
    let mut unit_prices = Vec::with_capacity(n);
    let mut discounts = Vec::with_capacity(n);
    let mut revenues = Vec::with_capacity(n);
    let mut shipping_days = Vec::with_capacity(n);
    for _ in 0..n {
        let product = sample_cumulative(&product_cum, rng.random());
        let category = product % NUM_CATEGORIES;
        let region = sample_cumulative(&region_cum, rng.random());

        // Diurnal ordering with an evening peak.
        let order_hour = if rng.random::<f64>() < 0.35 {
            (20.0 + standard_normal(&mut rng) * 2.0).rem_euclid(24.0)
        } else {
            (13.0 + standard_normal(&mut rng) * 4.5).rem_euclid(24.0)
        };

        let quantity = 1 + (rng.random::<f64>().powi(3) * 9.0) as i64;
        let unit_price = (base_price[product] * (1.0 + standard_normal(&mut rng) * 0.05)).max(0.5);
        // Bulk orders get discounted more often.
        let discount = if quantity >= 5 && rng.random::<f64>() < 0.6 {
            0.05 + rng.random::<f64>() * 0.25
        } else if rng.random::<f64>() < 0.15 {
            rng.random::<f64>() * 0.15
        } else {
            0.0
        };
        let revenue = unit_price * quantity as f64 * (1.0 - discount);
        let ship_days = (ship_base[region]
            + rng.random::<f64>().powi(2) * 6.0
            + if quantity > 6 { 1.0 } else { 0.0 })
        .max(0.5);

        regions.push(region);
        categories.push(category);
        products.push(product);
        order_hours.push((order_hour * 100.0).round() / 100.0);
        quantities.push(quantity);
        unit_prices.push((unit_price * 100.0).round() / 100.0);
        discounts.push((discount * 100.0).round() / 100.0);
        revenues.push((revenue * 100.0).round() / 100.0);
        shipping_days.push((ship_days * 10.0).round() / 10.0);
    }
    let columns = vec![
        regions.finish(),
        categories.finish(),
        products.finish(),
        Column::float(order_hours),
        Column::int(quantities),
        Column::float(unit_prices),
        Column::float(discounts),
        Column::float(revenues),
        Column::float(shipping_days),
    ];
    Table::new(ORDERS_TABLE, Schema::from_pairs(SCHEMA), columns)
        .expect("generated columns have equal lengths")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_and_determinism() {
        let a = generate(500, 9);
        let b = generate(500, 9);
        assert_eq!(a, b);
        assert_eq!(a.num_columns(), SCHEMA.len());
        assert_eq!(a.name(), ORDERS_TABLE);
    }

    #[test]
    fn product_popularity_is_long_tailed() {
        let t = generate(20_000, 9);
        let (codes, dict) = t.column("product").unwrap().as_nominal().unwrap();
        let mut counts = vec![0usize; dict.len()];
        for &c in codes {
            counts[c as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = counts.iter().take(10).sum();
        assert!(
            top10 as f64 > 0.15 * codes.len() as f64,
            "top-10 products should dominate: {top10}"
        );
    }

    #[test]
    fn revenue_is_consistent() {
        let t = generate(2_000, 9);
        let price = t.column("unit_price").unwrap().as_float().unwrap();
        let qty = t.column("quantity").unwrap().as_int().unwrap();
        let disc = t.column("discount").unwrap().as_float().unwrap();
        let rev = t.column("revenue").unwrap().as_float().unwrap();
        for i in 0..t.num_rows() {
            // Columns are rounded independently, so allow rounding slack.
            let expect = price[i] * qty[i] as f64 * (1.0 - disc[i]);
            assert!(
                (rev[i] - expect).abs() <= 0.5 + expect.abs() * 0.02,
                "row {i}: revenue {} vs {expect}",
                rev[i]
            );
        }
    }

    #[test]
    fn shipping_tracks_region() {
        let t = generate(20_000, 9);
        let (regions, dict) = t.column("region").unwrap().as_nominal().unwrap();
        let ship = t.column("ship_days").unwrap().as_float().unwrap();
        let r0 = dict.code("R00").unwrap();
        let r9 = dict.code("R09");
        let mean_for = |code: u32| {
            let vals: Vec<f64> = regions
                .iter()
                .zip(ship)
                .filter(|(&r, _)| r == code)
                .map(|(_, &s)| s)
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        if let Some(r9) = r9 {
            assert!(
                mean_for(r9) > mean_for(r0) + 2.0,
                "far regions must ship slower"
            );
        }
    }
}
