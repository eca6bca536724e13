//! In-process host probes, measured in every run so that kernel numbers
//! read as a fraction of what this host delivers.
//!
//! - `seq_read_gbps`: sequential read of a 64 MiB `u64` buffer.
//! - `histogram_rows_per_s`: a trivial single-thread 32-bin count
//!   histogram over 2M `u32` codes — the roofline a count scan is judged
//!   against.
//! - `parallel_speedup`: the same histogram split over two threads,
//!   divided by the one-thread rate. Near 1.0 means the host cannot
//!   scale, so worker-count effects measured on it are not evidence.

use std::hint::black_box;
use std::time::Instant;

/// One probe measurement.
#[derive(Debug, Clone, Copy)]
pub struct HostProbe {
    /// Sequential read bandwidth, GB/s (10^9 bytes).
    pub seq_read_gbps: f64,
    /// Single-thread 32-bin count histogram rate, rows/s.
    pub histogram_rows_per_s: f64,
    /// Two-thread histogram rate ÷ one-thread rate.
    pub parallel_speedup: f64,
}

const READ_WORDS: usize = 8 << 20; // 64 MiB of u64
const CODES: usize = 2 << 20;
const REPS: usize = 7;

fn histogram(codes: &[u32]) -> [u64; 32] {
    let mut bins = [0u64; 32];
    for &c in codes {
        bins[(c & 31) as usize] += 1;
    }
    bins
}

/// Median wall seconds of `REPS` runs of `f`.
fn median_secs(f: impl Fn()) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    idebench_core::metrics::median(&times).expect("REPS > 0")
}

/// Runs all three probes (median of several reps each, ~0.3 s in total).
pub fn measure() -> HostProbe {
    let words: Vec<u64> = (0..READ_WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let read_s = median_secs(|| {
        let sum = black_box(&words)
            .iter()
            .fold(0u64, |acc, &w| acc.wrapping_add(w));
        black_box(sum);
    });

    let codes: Vec<u32> = (0..CODES as u32)
        .map(|i| i.wrapping_mul(2_654_435_761) >> 27)
        .collect();
    let one_s = median_secs(|| {
        black_box(histogram(black_box(&codes)));
    });
    let two_s = median_secs(|| {
        let (a, b) = codes.split_at(CODES / 2);
        std::thread::scope(|s| {
            let left = s.spawn(|| histogram(black_box(a)));
            let right = histogram(black_box(b));
            let left = left.join().expect("probe thread does not panic");
            black_box((left, right));
        });
    });

    HostProbe {
        seq_read_gbps: (READ_WORDS * 8) as f64 / read_s / 1e9,
        histogram_rows_per_s: CODES as f64 / one_s,
        parallel_speedup: one_s / two_s,
    }
}
