//! Per-layer probes of the traced run. Where one public call spans several
//! layers (`SweepEngine::sweep`, `FleetInstance::simulate`, `load_sweep`),
//! these call each layer's own entry points on the same inputs the passes
//! use, each inside a span, and turn the spans into per-layer metrics.
//! Every probe runs single-caller; repeated probes report the median.

use crate::harness::median;
use crate::tracer::Tracer;
use crate::{fleet, paged, sweep};
use optimus::collective::{Collective, CommModel};
use optimus::memory::{footprint_computations, training_memory, TrainingMemorySpec};
use optimus::prelude::*;
use optimus::roofline::{GemmShape, RooflineModel};
use optimus_serve::{load_sweep, FleetInstance, ServeInstance};
use optimus_sweep::{pareto_frontier, PointMemory, SweepEngine};
use std::hint::black_box;
use std::sync::Arc;

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Runs `f` `reps` times inside spans named `name`; returns the median
/// seconds and the last result.
fn repeat<R>(t: &Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (out, s) = t.timed(name, &mut f);
        secs.push(s);
        last = Some(out);
    }
    (median(&secs), last.expect("at least one repetition"))
}

pub fn run(t: &Tracer, seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    sweep_layers(t, &mut out);
    serve_layers(t, seed, &mut out);
    kv_layers(t, seed, &mut out);
    out
}

/// Sweep, memory, train and infer layers, plus the kernel microbenches.
fn sweep_layers(t: &Tracer, out: &mut Vec<Metric>) {
    const REPS: usize = 5;
    let inputs = sweep::Inputs::new();
    let (cluster, model) = (&inputs.cluster, &inputs.model);
    let train = &inputs.cases[0];

    let (secs, points) = repeat(t, "sweep.enumerate", REPS, || {
        train
            .space
            .enumerate_with_memory(model, cluster, &train.workload)
    });
    out.push(("sweep.enumerate_ms", secs * 1e3, "ms"));

    let before = footprint_computations();
    let report = t.span("sweep.sweep", || {
        SweepEngine::new(cluster).sweep(model, &train.workload, &train.space)
    });
    let footprints = footprint_computations() - before;
    out.push(("memory.footprints", footprints as f64, "count"));
    out.push(("sweep.strategies", report.evaluated.len() as f64, "count"));
    let (secs, _) = repeat(t, "sweep.pareto", 21, || {
        black_box(pareto_frontier(&report.evaluated))
    });
    out.push(("sweep.pareto_us", secs * 1e6, "us"));

    // Training estimator: prepare, cold evaluation of every point, memo.
    let shared = Arc::new(model.clone());
    let prepare = || {
        PreparedTrainingEstimator::new(
            cluster,
            Arc::clone(&shared),
            sweep::TRAIN_BATCH,
            sweep::TRAIN_SEQ,
        )
        .with_recompute(RecomputeMode::Selective)
        .with_schedule(PipelineSchedule::OneFOneB)
    };
    let training: Vec<_> = points
        .iter()
        .filter_map(|(p, m)| match m {
            PointMemory::Training(m) => Some((*p, *m)),
            PointMemory::Inference(_) => None,
        })
        .collect();
    let estimate_all = |est: &PreparedTrainingEstimator<'_>| {
        for (p, m) in &training {
            let _ = black_box(est.estimate_with_memory(p.parallelism, p.precision, *m));
        }
    };
    let (secs, _) = repeat(t, "train.prepare", REPS, || black_box(prepare()));
    out.push(("train.prepare_ms", secs * 1e3, "ms"));
    let (secs, keys) = repeat(t, "train.estimate", REPS, || {
        let est = prepare();
        estimate_all(&est);
        est.cached_keys()
    });
    out.push(("train.estimate_ms", secs * 1e3, "ms"));
    out.push(("train.memo_keys", keys as f64, "count"));
    out.push((
        "train.memo_hit_ratio",
        1.0 - keys as f64 / training.len() as f64,
        "ratio",
    ));

    // Resilience: the stacked spec against the plain one, both warm.
    let plain = prepare();
    let stacked = prepare().with_checkpoint(sweep::stacked_checkpoint());
    estimate_all(&plain);
    estimate_all(&stacked);
    let (plain_secs, _) = repeat(t, "train.estimate_plain", REPS, || estimate_all(&plain));
    let (stacked_secs, _) = repeat(t, "train.estimate_stacked", REPS, || estimate_all(&stacked));
    out.push((
        "train.resilience_ms",
        (stacked_secs - plain_secs) * 1e3,
        "ms",
    ));

    // Point assembly: warm-key `estimate`, footprint included.
    let (secs, _) = repeat(t, "train.point_assembly", REPS, || {
        for (p, _) in &training {
            let _ = black_box(plain.estimate(p.parallelism, p.precision));
        }
    });
    out.push((
        "train.point_assembly_ns",
        secs * 1e9 / training.len() as f64,
        "ns",
    ));

    // Inference estimator: cold evaluation of every inference point.
    let infer = &inputs.cases[2];
    let infer_points = infer
        .space
        .enumerate_with_memory(model, cluster, &infer.workload);
    let (secs, keys) = repeat(t, "infer.estimate", REPS, || {
        let est = PreparedInferenceEstimator::new(cluster, Arc::clone(&shared), 1, 200, 200);
        for (p, _) in &infer_points {
            let _ = black_box(est.estimate(p.parallelism.tp, p.precision));
        }
        est.cached_keys()
    });
    out.push(("infer.estimate_ms", secs * 1e3, "ms"));
    out.push(("infer.memo_keys", keys as f64, "count"));

    kernels(t, cluster, model, out);
}

/// Microbenches of the roofline, collective and footprint layers.
fn kernels(t: &Tracer, cluster: &ClusterSpec, model: &ModelConfig, out: &mut Vec<Metric>) {
    const REPS: usize = 5;
    let roofline = RooflineModel::new(cluster.accelerator());
    let (h, ffn, tokens) = (model.hidden, model.ffn, sweep::TRAIN_SEQ);
    let mut shapes = Vec::new();
    for tp in [1, 2, 4, 8] {
        shapes.extend([
            GemmShape::new(tokens, 3 * h / tp, h),
            GemmShape::new(tokens, h, h / tp),
            GemmShape::new(tokens, 2 * ffn / tp, h),
            GemmShape::new(tokens, h, ffn / tp),
            GemmShape::gemv(3 * h / tp, h),
        ]);
    }
    const GEMM_ROUNDS: usize = 2000;
    let (secs, _) = repeat(t, "roofline.gemm", REPS, || {
        for _ in 0..GEMM_ROUNDS {
            for s in &shapes {
                let _ = black_box(roofline.gemm(black_box(*s), Precision::Fp16));
            }
        }
    });
    out.push((
        "roofline.gemm_ns",
        secs * 1e9 / (GEMM_ROUNDS * shapes.len()) as f64,
        "ns",
    ));

    let link = hw::nettech::NvlinkGen::Gen3.link();
    let comm = CommModel::auto();
    let volumes: Vec<Bytes> = (0..16)
        .map(|i| Bytes::from_kib(4f64.powi(i) / 4.0))
        .collect();
    const COMM_ROUNDS: usize = 5000;
    let (secs, _) = repeat(t, "collective.time", REPS, || {
        for _ in 0..COMM_ROUNDS {
            for v in &volumes {
                black_box(comm.time(Collective::AllReduce, black_box(*v), 8, &link));
            }
        }
    });
    out.push((
        "collective.time_ns",
        secs * 1e9 / (COMM_ROUNDS * volumes.len()) as f64,
        "ns",
    ));

    let specs: Vec<TrainingMemorySpec> = [(1, 1, 64), (2, 4, 8), (8, 1, 8), (8, 8, 1), (4, 2, 8)]
        .into_iter()
        .map(|(tp, pp, dp)| TrainingMemorySpec {
            batch: sweep::TRAIN_BATCH,
            seq: sweep::TRAIN_SEQ,
            parallelism: Parallelism::new(dp, tp, pp),
            schedule: PipelineSchedule::OneFOneB,
            precision: Precision::Fp16,
            recompute: RecomputeMode::Selective,
        })
        .collect();
    for s in &specs {
        training_memory(model, s).expect("the probe's parallelisms are valid");
    }
    const MEMORY_ROUNDS: usize = 2000;
    let (secs, _) = repeat(t, "memory.footprint", REPS, || {
        for _ in 0..MEMORY_ROUNDS {
            for s in &specs {
                let _ = black_box(training_memory(model, black_box(s)));
            }
        }
    });
    out.push((
        "memory.footprint_us",
        secs * 1e6 / (MEMORY_ROUNDS * specs.len()) as f64,
        "us",
    ));
}

/// Trace generation, instances, the single-replica loop, sealing, the
/// fleet router and the fault machinery, on the `serve-fleet` inputs.
fn serve_layers(t: &Tracer, seed: u64, out: &mut Vec<Metric>) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let model = Arc::new(model::presets::llama2_13b());
    let spec = fleet::serve_spec(seed);
    let (secs, trace) = repeat(t, "serve.trace", 3, || spec.generate());
    out.push(("serve.trace_ms", secs * 1e3, "ms"));

    let mut instance_secs = Vec::new();
    let new_instance = |secs: &mut Vec<f64>| {
        let (instance, s) = t.timed("serve.instance", || {
            ServeInstance::new(&cluster, Arc::clone(&model), fleet::replica_config())
                .expect("llama2-13b serves at TP2")
        });
        secs.push(s);
        instance
    };
    for _ in 0..4 {
        black_box(new_instance(&mut instance_secs));
    }
    let instance = new_instance(&mut instance_secs);
    let simulate = || {
        instance
            .simulate(&trace)
            .expect("the serve trace simulates")
    };
    let (_, cold) = t.timed("serve.simulate_cold", simulate);
    let (warm, _) = repeat(t, "serve.simulate", 2, simulate);
    out.push(("infer.seal_ms", (cold - warm) * 1e3, "ms"));
    out.push(("serve.simulate_ms", warm * 1e3, "ms"));
    out.push((
        "serve.ns_per_request",
        warm * 1e9 / trace.len() as f64,
        "ns",
    ));
    drop(trace);

    let trace = fleet::fleet_spec(seed).generate();
    let mut fleet_run = |name: &'static str, faults| {
        let (fleet, s) = t.timed("serve.instance", || {
            FleetInstance::new(&cluster, Arc::clone(&model), fleet::fleet_config(faults))
                .expect("the fleet is valid")
        });
        instance_secs.push(s);
        let simulate = || fleet.simulate(&trace).expect("the fleet trace simulates");
        t.span("fleet.simulate_cold", simulate);
        repeat(t, name, 2, simulate)
    };
    let (clean, _) = fleet_run("fleet.simulate", optimus_serve::FaultSpec::none());
    let (chaos, report) = fleet_run("faults.simulate", fleet::chaos(seed, 0));
    out.push(("serve.instance_ms", median(&instance_secs) * 1e3, "ms"));
    out.push(("fleet.simulate_ms", clean * 1e3, "ms"));
    out.push((
        "fleet.ns_per_request",
        clean * 1e9 / trace.len() as f64,
        "ns",
    ));
    out.push(("faults.simulate_ms", chaos * 1e3, "ms"));
    out.push(("faults.chaos_over_clean", chaos / clean, "ratio"));
    out.push((
        "faults.crashes",
        report.availability.crashes as f64,
        "count",
    ));
    out.push((
        "faults.requeues",
        report.availability.requeues as f64,
        "count",
    ));
}

/// The load sweep, and one of its cells run paged and reserved on the same
/// trace, on the `serve-paged` inputs.
fn kv_layers(t: &Tracer, seed: u64, out: &mut Vec<Metric>) {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let model = Arc::new(model::presets::llama2_7b());
    let spec = paged::sweep_spec(seed);
    let (secs, report) = repeat(t, "load.sweep", 3, || load_sweep(&cluster, &model, &spec));
    out.push(("load.sweep_ms", secs * 1e3, "ms"));
    let cells: usize = report.curves.iter().map(|c| c.points.len()).sum();
    out.push(("load.cells", cells as f64, "count"));

    let trace = paged::cell_spec(seed, paged::CELL_RATE).generate();
    let cell = |name: &'static str, paged: bool| {
        let instance = ServeInstance::new(&cluster, Arc::clone(&model), paged::cell_config(paged))
            .expect("llama2-7b serves at TP1");
        let simulate = || instance.simulate(&trace).expect("the cell trace simulates");
        t.span("kv.simulate_cold", simulate);
        repeat(t, name, 9, simulate)
    };
    let (paged_secs, report) = cell("kv.paged_simulate", true);
    let (reserved_secs, _) = cell("kv.reserved_simulate", false);
    let paging = report.paging.expect("a paged cell reports paging");
    out.push(("kv.paged_simulate_ms", paged_secs * 1e3, "ms"));
    out.push(("kv.reserved_simulate_ms", reserved_secs * 1e3, "ms"));
    out.push((
        "kv.paged_over_reserved",
        paged_secs / reserved_secs,
        "ratio",
    ));
    out.push(("kv.preemptions", paging.preemptions as f64, "count"));
    let lookups = paging.prefix_hits + paging.prefix_misses;
    out.push((
        "kv.prefix_hit_ratio",
        paging.prefix_hits as f64 / lookups.max(1) as f64,
        "ratio",
    ));
    out.push((
        "kv.peak_block_utilization",
        paging.peak_block_utilization,
        "ratio",
    ));
}
