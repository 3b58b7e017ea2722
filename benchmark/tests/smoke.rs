//! One-second smoke runs of every workload: the serving workloads against
//! an in-process `Server::bind`, churn in process. They check that every
//! phase runs and every output passes its checks; timings from a test run
//! mean nothing and are not asserted.

use ssg_benchmark::report::RunReport;
use ssg_benchmark::workload::Workload;
use ssg_benchmark::{churn, serve};
use ssg_net::{Server, ServerConfig};

const SEED: u64 = 7;

fn smoke_serve(w: Workload) {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let profile = w.serve_profile().unwrap();
    let mut cycles = 0;
    let driven = serve::drive(&addr, &profile, SEED, 1.0, true, &mut || {
        cycles += 1;
        Ok(())
    })
    .unwrap();
    assert_eq!(cycles, serve::CYCLES);
    let stats = server.shutdown();
    let all: Vec<_> = driven.open.iter().chain(&driven.saturation).collect();
    assert_eq!(driven.open.len() as u64, driven.warm + driven.recorded);
    assert!(!driven.saturation.is_empty());
    assert_eq!(stats.completed, all.len() as u64);

    let mut report = RunReport::default();
    let ratios = serve::check_exchanges(
        &mut report,
        &profile,
        SEED,
        &all,
        driven.warm + driven.recorded,
    );
    assert!(report.correct(), "{:?}", report.failures);
    assert_eq!(report.attempted, all.len() as u64);
    assert!(!ratios.is_empty());
    assert!(
        ratios.iter().all(|&r| (1.0..=3.0).contains(&r)),
        "{ratios:?}"
    );
    assert!(serve::saturation_rps(&driven).unwrap() > 0.0);
}

#[test]
fn interval_smoke() {
    smoke_serve(Workload::Interval);
}

#[test]
fn tree_smoke() {
    smoke_serve(Workload::Tree);
}

#[test]
fn small_smoke() {
    smoke_serve(Workload::Small);
}

#[test]
fn churn_smoke() {
    let report = churn::run(SEED, 1.0).unwrap();
    assert!(report.correct(), "{:?}", report.failures);
    assert_eq!(
        report.attempted,
        churn::epochs_for(1.0) as u64 * churn::TRAJECTORIES
    );
    assert!(
        report.metrics.iter().all(|m| m.value > 0.0),
        "{:?}",
        report.metrics
    );
}

#[test]
fn benchmark_json_lists_what_the_harness_reports() {
    use ssg_telemetry::json::Json;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let harness: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, harness);
    let churn = churn::run(SEED, 0.2).unwrap();
    let reported: Vec<(String, String)> = churn
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), reported);
    let layers: Vec<(String, String)> = ssg_benchmark::layers::PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), layers);
}
