//! Command-line entry of the IDEBench end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload analyst_star --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Prints the virtual digest, a human-readable summary and, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A traced run also writes its spans
//! and per-layer self times to
//! `.bench_out/trace-<workload>-seed<seed>.json` under the working
//! directory. See the library docs for the workloads and metrics.

use idebench_e2e::{result_json, run, RunConfig, Scale, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: idebench_e2e --workload <analyst_flat|analyst_star|fleet_shared_service> \
         --seed <n> --seconds <n> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next();
        let Some(value) = value else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };

    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::standard(workload),
    };
    let result = run(&cfg);

    println!(
        "workload {} seed {seed}: {} rounds, {} interaction samples, workers {}",
        workload.name(),
        result.rounds,
        result.latency_samples,
        cfg.scale.workers
    );
    print!("{}", result.summary);
    println!("virtual_digest {}", result.digest);
    let host = &result.host;
    println!(
        "host: seq_read {:.2} GB/s, histogram {:.0} rows/s, parallel_speedup {:.3}{}",
        host.seq_read_gbps,
        host.histogram_rows_per_s,
        host.parallel_speedup,
        if host.parallel_speedup < 1.5 {
            " (this host does not scale: worker-count effects here are not evidence)"
        } else {
            ""
        }
    );
    for m in &result.metrics {
        println!("  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if trace {
        println!("per-layer self time (s, median over traced rounds):");
        for (layer, s) in &result.layer_self_s {
            println!("  {layer:<24} {s:.6}");
        }
        let mut layers = String::from("{");
        for (i, (layer, s)) in result.layer_self_s.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(layers, "{sep}\"{layer}\":{s:?}");
        }
        layers.push('}');
        let body = format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"virtual_digest\":\"{}\",\
             \"layer_self_s\":{layers},\"spans\":{}}}\n",
            workload.name(),
            result.digest,
            result.spans_json
        );
        let path = format!(".bench_out/trace-{}-seed{seed}.json", workload.name());
        if let Err(e) =
            std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, body))
        {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("[wrote {path}]");
    }
    println!("{}", result_json(&result));
    ExitCode::SUCCESS
}
