//! Benchmarks of the continuous-batching serving simulator: trace
//! generation alone, end-to-end simulations at moderate load (the memo
//! tables absorb repeated iteration shapes), a million-request trace on
//! the streaming path, and a 16-point load sweep. These are
//! quick local microbenches; the serving benchmark of record is
//! `bash perfbench/run.sh --workload serve-fleet|serve-paged` (see
//! `perfbench/README.md`).

use criterion::{criterion_group, criterion_main, Criterion};
use optimus::prelude::*;
use optimus_serve::{
    load_sweep, FaultSpec, FleetConfig, FleetInstance, KvSpec, LengthDist, LoadStrategy,
    LoadSweepSpec, PrefixSpec, Request, RouterPolicy, ServeConfig, ServeInstance, ServeReport,
    SloSpec, TraceSpec,
};
use std::hint::black_box;
use std::sync::Arc;

/// One single-replica run, instance construction included.
fn serve(
    cluster: &ClusterSpec,
    model: &Arc<ModelConfig>,
    config: ServeConfig,
    trace: &[Request],
) -> ServeReport {
    ServeInstance::new(cluster, Arc::clone(model), config)
        .unwrap()
        .simulate(trace)
        .unwrap()
}

fn trace_spec() -> TraceSpec {
    // 64 requests at 8 req/s keeps several requests in flight, so decode
    // iterations sweep through varying batch sizes and contexts.
    TraceSpec::poisson(42, 64, 8.0, 200, 32)
}

fn bench_trace_generation(c: &mut Criterion) {
    let spec = trace_spec();
    c.bench_function("serve/trace_64req", |b| {
        b.iter(|| black_box(spec.generate()))
    });
}

fn bench_simulate(c: &mut Criterion) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let model = Arc::new(model::presets::llama2_13b());
    let config = ServeConfig::new(2);
    let spec = trace_spec();
    c.bench_function("serve/llama13b_a100_tp2_64req", |b| {
        b.iter(|| black_box(serve(&cluster, &model, config, &spec.generate())))
    });
}

fn bench_simulate_long_decode(c: &mut Criterion) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let model = Arc::new(model::presets::llama2_7b());
    let config = ServeConfig::new(1);
    // Longer outputs shift the work into the decode loop — the regime the
    // per-step memo tables exist for.
    let spec = TraceSpec::poisson(7, 32, 4.0, 100, 128);
    c.bench_function("serve/llama7b_a100_tp1_long_decode", |b| {
        b.iter(|| black_box(serve(&cluster, &model, config, &spec.generate())))
    });
}

/// The paged-KV path under prefix sharing: 10k requests carrying a hot
/// four-entry 256-token prefix pool on 16-token blocks — block-table
/// bookkeeping, refcounted prefix hits, and paged admission all on the
/// hot path (versus the reserved admission the other serve benches
/// time).
fn bench_simulate_paged_prefix(c: &mut Criterion) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let model = Arc::new(model::presets::llama2_7b());
    let config = ServeConfig::new(1).with_kv(KvSpec::paged(16));
    let spec = TraceSpec {
        prompt: LengthDist::Uniform { lo: 300, hi: 900 },
        output: LengthDist::Uniform { lo: 16, hi: 48 },
        prefixes: Some(PrefixSpec {
            pool: 4,
            tokens: 256,
            rate: 0.7,
        }),
        ..TraceSpec::poisson(11, 10_000, 40.0, 400, 32)
    };
    c.bench_function("serve/llama7b_paged_prefix_10k", |b| {
        b.iter(|| black_box(serve(&cluster, &model, config, &spec.generate())))
    });
}

/// One million requests at deep saturation through the streaming path:
/// recycled slots, completion ring, histogram percentiles. The trace is pregenerated so the bench times the
/// simulator alone; the `<2 s` release-mode budget from the scale work is
/// what this number tracks.
fn bench_simulate_1m(c: &mut Criterion) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let model = Arc::new(model::presets::llama2_13b());
    let config = ServeConfig::new(2);
    let trace = TraceSpec {
        seed: 42,
        requests: 1_000_000,
        arrival: optimus_serve::ArrivalProcess::Poisson { rate_per_s: 500.0 },
        prompt: LengthDist::Uniform { lo: 50, hi: 400 },
        output: LengthDist::Uniform { lo: 8, hi: 64 },
        prefixes: None,
        priority_classes: 1,
    }
    .generate();
    c.bench_function("serve/llama13b_1m_req", |b| {
        b.iter(|| black_box(serve(&cluster, &model, config, &trace)))
    });
}

/// A 4-replica fleet with the state-aware least-outstanding router over
/// a 200k-request trace: every arrival steps all four replica engines to
/// the arrival instant before routing, so this tracks the stepped-engine
/// overhead on top of the streaming single-replica path.
fn bench_fleet_4rep(c: &mut Criterion) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let model = Arc::new(model::presets::llama2_13b());
    let config = FleetConfig {
        replicas: 4,
        router: RouterPolicy::LeastOutstanding,
        replica: ServeConfig::new(2),
        faults: FaultSpec::none(),
    };
    let trace = TraceSpec {
        seed: 42,
        requests: 200_000,
        arrival: optimus_serve::ArrivalProcess::Poisson { rate_per_s: 1200.0 },
        prompt: LengthDist::Uniform { lo: 50, hi: 400 },
        output: LengthDist::Uniform { lo: 8, hi: 64 },
        prefixes: None,
        priority_classes: 1,
    }
    .generate();
    c.bench_function("fleet/llama13b_4rep", |b| {
        b.iter(|| {
            let fleet = FleetInstance::new(&cluster, Arc::clone(&model), config.clone()).unwrap();
            black_box(fleet.simulate(&trace).unwrap())
        })
    });
}

/// The same 4-replica fleet under seeded churn: crashes drain in-flight
/// work back to the router, requeues re-route with original arrivals,
/// and every arrival consults the outage cursors — this tracks the cost
/// of the fault machinery on top of the fault-free fleet path above.
fn bench_fleet_4rep_chaos(c: &mut Criterion) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let model = Arc::new(model::presets::llama2_13b());
    let config = FleetConfig {
        replicas: 4,
        router: RouterPolicy::LeastOutstanding,
        replica: ServeConfig::new(2),
        faults: FaultSpec::crashes(7, 60.0, 10.0),
    };
    let trace = TraceSpec {
        seed: 42,
        requests: 200_000,
        arrival: optimus_serve::ArrivalProcess::Poisson { rate_per_s: 1200.0 },
        prompt: LengthDist::Uniform { lo: 50, hi: 400 },
        output: LengthDist::Uniform { lo: 8, hi: 64 },
        prefixes: None,
        priority_classes: 1,
    }
    .generate();
    c.bench_function("fleet/llama13b_4rep_chaos", |b| {
        b.iter(|| {
            let fleet = FleetInstance::new(&cluster, Arc::clone(&model), config.clone()).unwrap();
            black_box(fleet.simulate(&trace).unwrap())
        })
    });
}

/// A 16-cell (4 rates × 4 TP strategies) load sweep at 20k requests per
/// cell — the saturation-knee study shape, one memo shared by every
/// strategy, cells rayon-parallel.
fn bench_load_sweep_16pt(c: &mut Criterion) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let model = Arc::new(model::presets::llama2_13b());
    let spec = LoadSweepSpec {
        seed: 42,
        requests: 20_000,
        prompt: LengthDist::Uniform { lo: 50, hi: 400 },
        output: LengthDist::Uniform { lo: 8, hi: 64 },
        rates: vec![1.0, 8.0, 64.0, 256.0],
        strategies: [1, 2, 4, 8]
            .into_iter()
            .map(|tp| LoadStrategy::single(tp, Precision::Fp16))
            .collect(),
        slo: SloSpec::default(),
        router: RouterPolicy::RoundRobin,
        faults: None,
        prefixes: None,
        priority_classes: 1,
    };
    c.bench_function("load_sweep/16pt", |b| {
        b.iter(|| black_box(load_sweep(&cluster, &model, &spec)))
    });
}

criterion_group!(
    serve_benches,
    bench_trace_generation,
    bench_simulate,
    bench_simulate_long_decode,
    bench_simulate_paged_prefix
);
criterion_group!(
    name = scale_benches;
    // Each sample runs a seven-figure simulation; a handful of samples
    // keeps the snapshot honest without a minute-long bench run.
    config = Criterion::default().sample_size(3);
    targets = bench_simulate_1m, bench_fleet_4rep, bench_fleet_4rep_chaos, bench_load_sweep_16pt
);
criterion_main!(serve_benches, scale_benches);
