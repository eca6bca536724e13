//! Smoke test of the benchmark itself: every workload at tiny scale
//! reports every named metric as a finite number, fails no operation, and
//! produces the same virtual digest for one and two scan workers.
//!
//! ```sh
//! cargo test --release --offline --manifest-path e2ebench/Cargo.toml
//! ```

use idebench_e2e::{
    per_layer_metrics, run, RunConfig, RunResult, Scale, Workload, END_TO_END, LAYERS,
};

fn tiny_run(workload: Workload, trace: bool, workers: usize) -> RunResult {
    run(&RunConfig {
        workload,
        seed: 7,
        // One cycle of sub-workloads, however fast the host.
        seconds: 0.0,
        trace,
        scale: Scale::tiny(workload, workers),
    })
}

#[test]
fn every_metric_is_present_and_finite_with_no_failures() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let result = tiny_run(workload, trace, 2);
            let expected: Vec<String> = if trace {
                per_layer_metrics().into_iter().map(|(n, _)| n).collect()
            } else {
                END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
            };
            let names: Vec<String> = result.metrics.iter().map(|m| m.name.clone()).collect();
            let label = format!("{} trace={trace}", workload.name());
            assert_eq!(names, expected, "{label}: metric names");
            for m in &result.metrics {
                assert!(m.value.is_finite(), "{label}: {} = {}", m.name, m.value);
            }
            if trace {
                let layers: Vec<&str> = result.layer_self_s.keys().map(String::as_str).collect();
                let mut expected_layers = LAYERS.to_vec();
                expected_layers.sort_unstable();
                assert_eq!(layers, expected_layers, "{label}: traced layers");
            }
            assert_eq!(result.failed, 0, "{label}: failed operations");
            assert!(result.attempted > 0, "{label}: nothing attempted");
            assert!(result.correct, "{label}: run marked incorrect");
        }
    }
}

#[test]
fn virtual_digest_does_not_depend_on_the_worker_count() {
    for workload in Workload::ALL {
        let one = tiny_run(workload, false, 1);
        let two = tiny_run(workload, false, 2);
        assert!(!one.digest.is_empty());
        assert_eq!(
            one.digest,
            two.digest,
            "{}: virtual summary moved with the worker count\n{}\nvs\n{}",
            workload.name(),
            one.summary,
            two.summary
        );
    }
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let mut named = Vec::new();
    // `analyst_flat` runs and is smoke-tested above, but is not registered:
    // its run-to-run spread on a 2-vCPU host exceeded the largest bound.
    for workload in [Workload::AnalystStar, Workload::FleetSharedService] {
        named.push((workload.name().to_string(), None));
    }
    for (name, unit) in END_TO_END {
        named.push((name.to_string(), Some(unit)));
    }
    for (name, unit) in per_layer_metrics() {
        named.push((name, Some(unit)));
    }
    for (name, unit) in named {
        let entry = match unit {
            Some(unit) => format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\""),
            None => format!("\"name\": \"{name}\""),
        };
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
