//! E8 — sweep throughput: the experiment harness's engine backend (one
//! worker per core, the backend the scenario lab runs) vs its sequential
//! twin over a realistic parameter grid.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssg_labeling::Workspace;
use ssg_netsim::{BackboneNetwork, GridBackend, GridRunner};

fn assignment_cell(p: &(usize, u32), seed: u64, _ws: &mut Workspace) -> u32 {
    let (n, t) = *p;
    let mut rng = StdRng::seed_from_u64(seed);
    let net = BackboneNetwork::generate(n, 4, &mut rng);
    net.assign_l1(t).span
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("E8/sweep_grid");
    group.sample_size(10);
    let params: Vec<(usize, u32)> = [500usize, 1_000, 2_000]
        .iter()
        .flat_map(|&n| [2u32, 4].map(|t| (n, t)))
        .collect();
    let seeds: Vec<u64> = (0..8).collect();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    group.bench_function("engine", |b| {
        let runner = GridRunner::new().backend(GridBackend::Engine { workers });
        b.iter(|| runner.run(&params, &seeds, assignment_cell))
    });
    group.bench_function("sequential", |b| {
        let runner = GridRunner::new().backend(GridBackend::Sequential);
        b.iter(|| runner.run(&params, &seeds, assignment_cell))
    });
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
