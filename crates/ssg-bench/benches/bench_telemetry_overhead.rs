//! E11 — telemetry overhead: the instrumented hot paths must cost nothing
//! measurable when telemetry is off.
//!
//! Three variants of the same Theorem-1 interval sweep:
//!
//! * `seed_api` — the original un-instrumented entry point `l1_coloring`
//!   (which delegates to `l1_coloring_ws` on a fresh `Workspace` and a
//!   disabled handle internally);
//! * `disabled` — `l1_coloring_ws` called explicitly with a fresh
//!   `Workspace` and `Metrics::disabled()` (the same code path);
//! * `enabled` — `l1_coloring_ws` with a fresh `Workspace` and a recording
//!   handle.
//!
//! `seed_api` and `disabled` must be within noise of each other (they run
//! the identical code); `enabled` bounds the cost of actually recording.
//!
//! A fourth group measures the raw tracing primitives (`span`, `span_hist`,
//! `observe_ns`) per call: the disabled variants must stay at branch-test
//! cost, the enabled/tracing variants bound what one observation costs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ssg_bench::{interval_workload, tree_workload};
use ssg_labeling::interval::{l1_coloring, l1_coloring_ws};
use ssg_labeling::tree::l1_coloring_ws as tree_l1_ws;
use ssg_labeling::Workspace;
use ssg_telemetry::{Hist, Metrics};

fn bench_interval_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("E11/interval_l1_telemetry");
    group.sample_size(20);
    let n = 16_000usize;
    let t = 4u32;
    let rep = interval_workload(n, 0xE11);
    group.throughput(Throughput::Elements((n as u64) * t as u64));
    group.bench_with_input(BenchmarkId::from_parameter("seed_api"), &rep, |b, rep| {
        b.iter(|| l1_coloring(rep, t))
    });
    let disabled = Metrics::disabled();
    group.bench_with_input(BenchmarkId::from_parameter("disabled"), &rep, |b, rep| {
        b.iter(|| l1_coloring_ws(rep, t, &mut Workspace::new(), &disabled))
    });
    let enabled = Metrics::enabled();
    group.bench_with_input(BenchmarkId::from_parameter("enabled"), &rep, |b, rep| {
        b.iter(|| l1_coloring_ws(rep, t, &mut Workspace::new(), &enabled))
    });
    group.finish();
}

fn bench_tree_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("E11/tree_l1_telemetry");
    group.sample_size(20);
    let n = 16_000usize;
    let t = 3u32;
    let tree = tree_workload(n, 4, 0xE11);
    group.throughput(Throughput::Elements(n as u64));
    let disabled = Metrics::disabled();
    group.bench_with_input(BenchmarkId::from_parameter("disabled"), &tree, |b, tree| {
        b.iter(|| tree_l1_ws(tree, t, &mut Workspace::new(), &disabled))
    });
    let enabled = Metrics::enabled();
    group.bench_with_input(BenchmarkId::from_parameter("enabled"), &tree, |b, tree| {
        b.iter(|| tree_l1_ws(tree, t, &mut Workspace::new(), &enabled))
    });
    group.finish();
}

fn bench_span_hist_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("E11/span_hist_primitives");
    let disabled = Metrics::disabled();
    group.bench_function("span_disabled", |b| {
        b.iter(|| black_box(disabled.span_hist("bench.noop", Hist::SolverSolve)))
    });
    group.bench_function("observe_disabled", |b| {
        b.iter(|| disabled.observe_ns(Hist::SolverSolve, black_box(1)))
    });
    let enabled = Metrics::enabled();
    group.bench_function("span_enabled", |b| {
        b.iter(|| black_box(enabled.span_hist("bench.noop", Hist::SolverSolve)))
    });
    group.bench_function("observe_enabled", |b| {
        b.iter(|| enabled.observe_ns(Hist::SolverSolve, black_box(1)))
    });
    let tracing = Metrics::with_tracing(4096);
    group.bench_function("span_tracing", |b| {
        b.iter(|| black_box(tracing.span("bench.noop")))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_interval_overhead,
    bench_tree_overhead,
    bench_span_hist_primitives
);
criterion_main!(benches);
