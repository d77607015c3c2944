//! Benchmarks of the strategy-sweep engine: enumeration/pruning alone,
//! end-to-end parallel sweeps (memoized two-phase pipeline), the naive
//! per-point baseline it replaced, and frontier extraction. These are
//! quick local microbenches; the sweep benchmark of record is
//! `bash perfbench/run.sh --workload sweep` (see `perfbench/README.md`).

use criterion::{criterion_group, criterion_main, Criterion};
use optimus::prelude::*;
use optimus::train::PreparedTrainingEstimator;
use optimus_sweep::{pareto_frontier, SweepEngine, SweepSpace, Workload};
use std::hint::black_box;
use std::sync::Arc;

fn bench_enumerate(c: &mut Criterion) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let spec = model::presets::llama2_13b();
    let space = SweepSpace::power_of_two(64);
    let workload = Workload::training(64, 2048);
    c.bench_function("sweep/enumerate_llama13b_64gpu", |b| {
        b.iter(|| black_box(space.enumerate(&spec, &cluster, &workload)))
    });
}

fn bench_training_sweep(c: &mut Criterion) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let spec = model::presets::llama2_13b();
    let engine = SweepEngine::new(&cluster);
    let space = SweepSpace::power_of_two(16);
    let workload = Workload::training(16, 2048);
    c.bench_function("sweep/train_llama13b_16gpu", |b| {
        b.iter(|| black_box(engine.sweep(&spec, &workload, &space)))
    });
}

/// The pre-memoization pipeline shape: every point evaluated through a
/// fresh context (graph rebuild + roofline pass + memory re-derivation per
/// point). The ratio against `sweep/train_llama13b_16gpu` is the win of
/// the two-phase pipeline.
fn bench_training_sweep_naive(c: &mut Criterion) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let spec = model::presets::llama2_13b();
    let engine = SweepEngine::new(&cluster);
    let space = SweepSpace::power_of_two(16);
    let workload = Workload::training(16, 2048);
    let points = space.enumerate(&spec, &cluster, &workload);
    c.bench_function("sweep/train_llama13b_16gpu_naive", |b| {
        b.iter(|| {
            for &point in &points {
                black_box(engine.evaluate(&spec, &workload, vec![point]));
            }
        })
    });
}

/// Phase-2 cost alone: one prepared estimator, one warm memo key — the
/// per-point assembly arithmetic every sweep point pays after the first
/// with its kernel sub-tuple.
fn bench_prepared_point_assembly(c: &mut Criterion) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let prepared =
        PreparedTrainingEstimator::new(&cluster, Arc::new(model::presets::llama2_13b()), 16, 2048);
    let p = Parallelism::new(2, 2, 2).with_sp(true);
    prepared.estimate(p, Precision::Fp16).unwrap(); // warm the key
    c.bench_function("sweep/prepared_point_assembly", |b| {
        b.iter(|| black_box(prepared.estimate(p, Precision::Fp16).unwrap()))
    });
}

fn bench_inference_sweep(c: &mut Criterion) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let spec = model::presets::llama2_13b();
    let engine = SweepEngine::new(&cluster);
    let space = SweepSpace::power_of_two(8);
    let workload = Workload::inference(1, 200, 32);
    c.bench_function("sweep/infer_llama13b_8gpu", |b| {
        b.iter(|| black_box(engine.sweep(&spec, &workload, &space)))
    });
}

fn bench_frontier(c: &mut Criterion) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let spec = model::presets::llama2_13b();
    let report = SweepEngine::new(&cluster).sweep(
        &spec,
        &Workload::training(64, 2048),
        &SweepSpace::power_of_two(64),
    );
    c.bench_function("sweep/pareto_frontier_extraction", |b| {
        b.iter(|| black_box(pareto_frontier(&report.evaluated)))
    });
}

criterion_group!(
    sweep_benches,
    bench_enumerate,
    bench_training_sweep,
    bench_training_sweep_naive,
    bench_prepared_point_assembly,
    bench_inference_sweep,
    bench_frontier
);
criterion_main!(sweep_benches);
