//! Byte-identity pins of the serving and training reports against
//! golden JSON fixtures.
//!
//! The serving fixtures were captured at the commit *before* paged KV,
//! prefix caching, and pluggable schedulers landed (`fleet_requeue.json`
//! at the commit before crash requeues were routed in bulk,
//! `fleet_sealed.json` at the commit before the sealed decode-cost table
//! priced its cells on first read); the training and sweep fixtures at
//! the commit *before* the composable resilience stack (tiered
//! checkpoints, failure processes, elastic training)
//! landed, and re-pinned once when the expected checkpoint rework became
//! exact instead of the first-order half interval (only the rework,
//! goodput and failure-expected figures moved). The pre-existing regimes — `KvSpec::reserved()` + FIFO on
//! the serving side, a plain `--mtbf`/`--restart` exponential spec on
//! the training side — must keep emitting byte-identical reports: the
//! new sections are *omitted* (not `null`) when absent, through the
//! `skip_serializing_if` attributes on the derived report serializers of
//! `optimus-serve` and `optimus-train`. Each test replays the exact CLI
//! invocation that produced its fixture in-process and compares the
//! pretty JSON byte-for-byte.

use optimus::hw::presets;
use optimus::memory::RecomputeMode;
use optimus::model::presets as models;
use optimus::prelude::{
    CheckpointSpec, Parallelism, PipelineSchedule, TrainingConfig, TrainingEstimator,
};
use optimus_serve::{
    simulate, simulate_fleet, ArrivalProcess, FaultSpec, FleetConfig, LengthDist, RouterPolicy,
    ServeConfig, TraceSpec,
};
use optimus_sweep::{SweepEngine, SweepSpace, Workload};
use std::sync::Arc;

fn trace(
    seed: u64,
    requests: usize,
    rate: f64,
    prompt: (usize, usize),
    output: (usize, usize),
) -> TraceSpec {
    TraceSpec {
        seed,
        requests,
        arrival: ArrivalProcess::Poisson { rate_per_s: rate },
        prompt: LengthDist::Uniform {
            lo: prompt.0,
            hi: prompt.1,
        },
        output: LengthDist::Uniform {
            lo: output.0,
            hi: output.1,
        },
        prefixes: None,
        priority_classes: 1,
    }
}

/// `serve --model llama2-7b --tp 1 --requests 40 --rate 8
/// --prompt 50:200 --output 2:24 --seed 13 --json`
#[test]
fn reserved_serve_report_is_byte_identical_to_the_pre_paging_fixture() {
    let report = simulate(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_7b()),
        &ServeConfig::new(1),
        &trace(13, 40, 8.0, (50, 200), (2, 24)),
    )
    .unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        include_str!("golden/serve_reserved.json"),
        "default-regime ServeReport JSON drifted from the pre-paging fixture"
    );
}

/// `serve --model llama2-7b --tp 1 --replicas 3 --router
/// least-outstanding --requests 60 --rate 24 --prompt 50:200
/// --output 2:24 --seed 17 --json`
#[test]
fn reserved_fleet_report_is_byte_identical_to_the_pre_paging_fixture() {
    let config = FleetConfig {
        replicas: 3,
        router: RouterPolicy::LeastOutstanding,
        replica: ServeConfig::new(1),
        faults: FaultSpec::none(),
    };
    let report = simulate_fleet(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_7b()),
        &config,
        &trace(17, 60, 24.0, (50, 200), (2, 24)),
    )
    .unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        include_str!("golden/fleet_reserved.json"),
        "default-regime FleetReport JSON drifted from the pre-paging fixture"
    );
}

/// `serve --model llama2-7b --tp 1 --replicas 2 --requests 50 --rate 20
/// --prompt 50:150 --output 2:16 --seed 23 --mtbf 6 --mttr 2 --json`
#[test]
fn faulted_fleet_report_is_byte_identical_to_the_pre_paging_fixture() {
    let mut faults = FaultSpec::none();
    faults.seed = 0;
    faults.mtbf_s = 6.0;
    faults.mttr_s = 2.0;
    let config = FleetConfig {
        replicas: 2,
        router: RouterPolicy::RoundRobin,
        replica: ServeConfig::new(1),
        faults,
    };
    let report = simulate_fleet(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_7b()),
        &config,
        &trace(23, 50, 20.0, (50, 150), (2, 16)),
    )
    .unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        include_str!("golden/fleet_faulted.json"),
        "faulted FleetReport JSON drifted from the pre-paging fixture"
    );
}

/// `serve --model llama2-7b --tp 1 --replicas 3 --router
/// least-outstanding --requests 120 --rate 120 --prompt 500:1500
/// --output 100:300 --seed 29 --mtbf 5 --mttr 2 --fault-seed 3 --json`
///
/// The requeue-path pin: 14 crashes requeue 434 times, so every drained
/// backlog's routing order shows in the report. Captured at the commit
/// before crash requeues were routed in bulk.
#[test]
fn requeued_fleet_report_is_byte_identical_to_the_pre_bulk_requeue_fixture() {
    let mut faults = FaultSpec::none();
    faults.seed = 3;
    faults.mtbf_s = 5.0;
    faults.mttr_s = 2.0;
    let config = FleetConfig {
        replicas: 3,
        router: RouterPolicy::LeastOutstanding,
        replica: ServeConfig::new(1),
        faults,
    };
    let report = simulate_fleet(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_7b()),
        &config,
        &trace(29, 120, 120.0, (500, 1500), (100, 300)),
    )
    .unwrap();
    assert_eq!(report.availability.crashes, 14);
    assert_eq!(report.availability.requeues, 434);
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        include_str!("golden/fleet_requeue.json"),
        "requeued FleetReport JSON drifted from the pre-bulk-requeue fixture"
    );
}

/// `serve --model llama2-13b --tp 2 --replicas 2 --router
/// least-outstanding --requests 12000 --rate 300 --prompt 50:400
/// --output 8:64 --seed 31 --json`
///
/// The sealed-path pin: past `EXACT_MODE_LIMIT` requests decode
/// iterations are priced from the sealed decode-cost table and the
/// latency percentiles come from log histograms, which no smaller
/// fixture reaches. Captured at the commit before the table priced its
/// cells on first touch.
#[test]
fn sealed_fleet_report_is_byte_identical_to_the_pre_lazy_table_fixture() {
    let config = FleetConfig {
        replicas: 2,
        router: RouterPolicy::LeastOutstanding,
        replica: ServeConfig::new(2),
        faults: FaultSpec::none(),
    };
    let report = simulate_fleet(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_13b()),
        &config,
        &trace(31, 12_000, 300.0, (50, 400), (8, 64)),
    )
    .unwrap();
    assert_eq!(report.completed, 12_000);
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        include_str!("golden/fleet_sealed.json"),
        "sealed-path FleetReport JSON drifted from the pre-lazy-table fixture"
    );
}

/// `train --model llama2-13b --cluster a100-hdr --batch 64 --seq 2048
/// --dp 8 --tp 8 --sp --mtbf 50000000 --restart 300 --json`
#[test]
fn basic_resilience_train_report_is_byte_identical_to_the_pre_stack_fixture() {
    let cfg = TrainingConfig::new(
        models::llama2_13b(),
        64,
        2048,
        Parallelism::new(8, 8, 1).with_sp(true),
    )
    .with_recompute(RecomputeMode::Selective);
    let report = TrainingEstimator::new(&presets::dgx_a100_hdr_cluster())
        .with_checkpoint(CheckpointSpec::with_mtbf(50_000_000.0).with_restart(300.0))
        .estimate(&cfg)
        .unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        include_str!("golden/train_resilience.json"),
        "basic-spec TrainingReport JSON drifted from the pre-stack fixture"
    );
}

/// `sweep --model llama2-13b --cluster a100-hdr --workload train
/// --batch 64 --max-gpus 64 --mtbf 10000 --restart 900 --frontier-only
/// --json`
#[test]
fn basic_resilience_sweep_frontier_is_byte_identical_to_the_pre_stack_fixture() {
    let workload = Workload::Training {
        batch: 64,
        seq: 2048,
        recompute: RecomputeMode::Selective,
        schedule: PipelineSchedule::OneFOneB,
    };
    let report = SweepEngine::new(&presets::dgx_a100_hdr_cluster())
        .with_checkpoint(CheckpointSpec::with_mtbf(10_000.0).with_restart(900.0))
        .sweep(
            &models::llama2_13b(),
            &workload,
            &SweepSpace::power_of_two(64),
        );
    assert_eq!(
        serde_json::to_string_pretty(&report.frontier).unwrap(),
        include_str!("golden/sweep_resilience_frontier.json"),
        "basic-spec sweep frontier JSON drifted from the pre-stack fixture"
    );
}
