//! Micro-benchmarks of the analytical engines themselves: roofline kernel
//! costing, collective costing, memory models, the end-to-end
//! training/inference estimators, and the serving simulator's decode
//! pricing (filling the memo). These quantify the "early design space
//! exploration" speed the analytical approach buys.

use criterion::{criterion_group, criterion_main, Criterion};
use optimus::collective::{Collective, CommModel};
use optimus::infer::PreparedInferenceEstimator;
use optimus::memory::{training_memory, RecomputeMode, TrainingMemorySpec};
use optimus::prelude::*;
use optimus::roofline::{EltwiseKind, EltwiseOp, GemmShape, RooflineModel};
use std::hint::black_box;
use std::sync::Arc;

fn bench_roofline(c: &mut Criterion) {
    let a100 = hw::presets::a100_sxm_80gb();
    let model = RooflineModel::new(&a100);
    c.bench_function("roofline/fat_gemm", |b| {
        b.iter(|| {
            black_box(
                model
                    .gemm(black_box(GemmShape::new(4096, 4096, 4096)), Precision::Fp16)
                    .unwrap(),
            )
        })
    });
    c.bench_function("roofline/decode_gemv", |b| {
        b.iter(|| {
            black_box(
                model
                    .gemm(black_box(GemmShape::new(1, 16384, 4096)), Precision::Fp16)
                    .unwrap(),
            )
        })
    });
    // The attention softmax of one llama2-13b decode step at context 2048.
    let softmax = EltwiseOp::new(EltwiseKind::Softmax, 40.0 * 2048.0, 2.0);
    c.bench_function("roofline/decode_softmax", |b| {
        b.iter(|| black_box(model.eltwise(black_box(softmax))))
    });
}

fn bench_collectives(c: &mut Criterion) {
    let link = hw::nettech::NvlinkGen::Gen3.link();
    let comm = CommModel::auto();
    c.bench_function("collective/allreduce_auto", |b| {
        b.iter(|| {
            black_box(comm.time(
                Collective::AllReduce,
                black_box(Bytes::from_mib(50.0)),
                8,
                &link,
            ))
        })
    });
}

fn bench_memory(c: &mut Criterion) {
    let spec = TrainingMemorySpec {
        batch: 64,
        seq: 2048,
        parallelism: Parallelism::new(1, 8, 8),
        schedule: PipelineSchedule::OneFOneB,
        precision: Precision::Fp16,
        recompute: RecomputeMode::Selective,
    };
    let model = model::presets::gpt_175b();
    c.bench_function("memory/training_footprint", |b| {
        b.iter(|| black_box(training_memory(&model, &spec).unwrap()))
    });
}

fn bench_training_estimator(c: &mut Criterion) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let cfg = TrainingConfig::new(
        model::presets::gpt_175b(),
        64,
        2048,
        Parallelism::new(1, 8, 8).with_sp(true),
    )
    .with_recompute(RecomputeMode::Selective);
    let estimator = TrainingEstimator::new(&cluster);
    c.bench_function("train/gpt175b_estimate", |b| {
        b.iter(|| black_box(estimator.estimate(&cfg).unwrap()))
    });
}

fn bench_inference_estimator(c: &mut Criterion) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let cfg = InferenceConfig::nvidia_llama_benchmark(model::presets::llama2_13b(), 4);
    let estimator = InferenceEstimator::new(&cluster);
    c.bench_function("infer/llama13b_estimate", |b| {
        b.iter(|| black_box(estimator.estimate(&cfg).unwrap()))
    });
}

fn bench_decode_pricing(c: &mut Criterion) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let model = Arc::new(model::presets::llama2_13b());
    // A cold fill: 16 batch widths × 16 contexts, the shapes a serving
    // run meets, on a fresh estimator: each width's decode row is costed
    // once, then the attention core at each of its contexts.
    let shapes: Vec<(usize, usize)> = (1..=16)
        .flat_map(|batch| (0..16).map(move |i| (batch, 300 + 60 * i)))
        .collect();
    c.bench_function("infer/decode_fill_llama13b_tp2_256", |b| {
        b.iter(|| {
            let serving = PreparedInferenceEstimator::for_serving(&cluster, Arc::clone(&model));
            for &(batch, kv) in &shapes {
                black_box(
                    serving
                        .decode_iteration(batch, kv, 2, Precision::Fp16)
                        .unwrap(),
                );
            }
        })
    });
}

criterion_group!(
    name = estimators;
    config = Criterion::default().sample_size(20);
    targets = bench_roofline,
        bench_collectives,
        bench_memory,
        bench_training_estimator,
        bench_inference_estimator,
        bench_decode_pricing
);
criterion_main!(estimators);
