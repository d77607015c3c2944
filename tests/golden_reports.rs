//! Byte-identity pins of the serving, training and inference reports
//! against golden JSON fixtures.
//!
//! The serving fixtures were captured at the commit *before* paged KV,
//! prefix caching, and pluggable schedulers landed (`fleet_requeue.json`
//! at the commit before crash requeues were routed in bulk,
//! `fleet_streaming.json` at the commit that priced every decode
//! iteration exactly); the training and sweep fixtures at
//! the commit *before* the composable resilience stack (tiered
//! checkpoints, failure processes, elastic training)
//! landed, and re-pinned once when the expected checkpoint rework became
//! exact instead of the first-order half interval (only the rework,
//! goodput and failure-expected figures moved); the inference fixtures
//! at the commit before the one-shot decode loop was priced from the
//! context-factored decode rows; the tiered-resilience sweep at the
//! commit before the expected checkpoint rework was memoized across a
//! sweep. The pre-existing regimes — `KvSpec::reserved()` + FIFO on
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
use optimus::model::ModelConfig;
use optimus::prelude::Precision;
use optimus::prelude::{
    CheckpointSpec, CheckpointTier, FailureProcess, InferenceConfig, InferenceEstimator,
    Parallelism, PipelineSchedule, TrainingConfig, TrainingEstimator,
};
use optimus::units::Time;
use optimus_serve::{
    load_sweep, simulate_fleet, ArrivalProcess, FaultSpec, FleetConfig, KvSpec, LengthDist,
    LoadStrategy, LoadSweepSpec, PreemptPolicy, PrefixSpec, RecordMode, RouterPolicy, Scheduler,
    ServeConfig, ServeInstance, ServeReport, SloSpec, TraceSpec,
};
use optimus_sweep::{SweepEngine, SweepReport, SweepSpace, Workload};
use std::sync::Arc;

/// A single-replica `serve` run: `spec`'s trace on one instance of
/// `model` under `config`, over the A100 cluster.
fn serve(model: Arc<ModelConfig>, config: ServeConfig, spec: &TraceSpec) -> ServeReport {
    let cluster = presets::dgx_a100_hdr_cluster();
    ServeInstance::new(&cluster, model, config)
        .unwrap()
        .simulate(&spec.generate())
        .unwrap()
}

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
    let report = serve(
        Arc::new(models::llama2_7b()),
        ServeConfig::new(1),
        &trace(13, 40, 8.0, (50, 200), (2, 24)),
    );
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
/// The streaming-path pin: past `EXACT_MODE_LIMIT` requests the latency
/// percentiles come from log histograms, which no smaller fixture
/// reaches. Captured when every decode iteration came to be priced
/// exactly, whatever the trace's length.
#[test]
fn streaming_fleet_report_is_byte_identical_to_the_exact_pricing_fixture() {
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
        include_str!("golden/fleet_streaming.json"),
        "streaming-path FleetReport JSON drifted from the exact-pricing fixture"
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
/// --batch 64 --max-gpus 64` under `checkpoint`: every 64-GPU llama2-13b
/// strategy, selective recomputation, the CLI's defaults.
fn resilient_training_sweep(checkpoint: CheckpointSpec) -> SweepReport {
    let workload = Workload::Training {
        batch: 64,
        seq: 2048,
        recompute: RecomputeMode::Selective,
        schedule: PipelineSchedule::OneFOneB,
    };
    SweepEngine::new(&presets::dgx_a100_hdr_cluster())
        .with_checkpoint(checkpoint)
        .sweep(
            &models::llama2_13b(),
            &workload,
            &SweepSpace::power_of_two(64),
        )
}

/// `sweep --model llama2-13b --cluster a100-hdr --workload train
/// --batch 64 --max-gpus 64 --mtbf 10000 --restart 900 --frontier-only
/// --json`
#[test]
fn basic_resilience_sweep_frontier_is_byte_identical_to_the_pre_stack_fixture() {
    let report = resilient_training_sweep(CheckpointSpec::with_mtbf(10_000.0).with_restart(900.0));
    assert_eq!(
        serde_json::to_string_pretty(&report.frontier).unwrap(),
        include_str!("golden/sweep_resilience_frontier.json"),
        "basic-spec sweep frontier JSON drifted from the pre-stack fixture"
    );
}

/// `sweep --model llama2-13b --cluster a100-hdr --workload train
/// --batch 64 --max-gpus 64 --mtbf 10000 --restart 900
/// --failure-process weibull:0.7 --checkpoint-tiers peer,delta --elastic
/// --json`, the tiered-resilience sweep of perfbench `sweep` pass (b):
/// every strategy priced under Weibull failures, peer and delta tiers and
/// elastic continuation. The `--frontier-only` output is a fixture and
/// the full report (about 261 kB pretty) is pinned like the large reports
/// below. Captured before the checkpoint rework was memoized across a
/// sweep, and checked byte for byte against that build's CLI `--json`.
#[test]
fn tiered_resilience_sweep_matches_its_pre_rework_memo_fixture_and_pins() {
    let report = resilient_training_sweep(
        CheckpointSpec::with_mtbf(10_000.0)
            .with_restart(900.0)
            .with_process(FailureProcess::Weibull { shape: 0.7 })
            .with_tiers(vec![CheckpointTier::peer(), CheckpointTier::delta()])
            .with_elastic(true),
    );
    assert_eq!(
        serde_json::to_string_pretty(&report.frontier).unwrap(),
        include_str!("golden/sweep_tiered_resilience_frontier.json"),
        "tiered-resilience sweep frontier JSON drifted from the pre-memo fixture"
    );
    let drifted = pin_drift(
        "sweep_tiered_resilience",
        &report,
        [
            (260_847, 0xd7bc_f344_de71_4ebd),
            (165_420, 0xfb6c_e215_f2a5_a0ab),
        ],
    );
    assert!(drifted.is_empty(), "JSON drifted:\n{}", drifted.join("\n"));
}

/// `infer --model llama2-70b --cluster h100-ndr --tp 8 --prefill 200
/// --generate 200 --json`, the Table 2 row whose decode all-reduces are
/// latency-bound. Captured before the one-shot decode loop was priced
/// from the context-factored decode rows.
#[test]
fn llama70b_tp8_inference_report_is_byte_identical_to_the_pre_factoring_fixture() {
    let cfg = InferenceConfig::new(models::llama2_70b(), 1, 200, 200, 8);
    let report = InferenceEstimator::new(&presets::dgx_h100_ndr_cluster())
        .estimate(&cfg)
        .unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        include_str!("golden/infer_llama70b_h100_tp8.json"),
        "InferenceReport JSON drifted from the pre-factoring fixture"
    );
}

/// `sweep --model llama2-13b --cluster a100-hdr --workload infer
/// --max-gpus 8 --json`: every (TP, precision) point of a batch-1,
/// 200 + 200-token request within 8 GPUs. Captured like the previous
/// fixture.
#[test]
fn inference_sweep_report_is_byte_identical_to_the_pre_factoring_fixture() {
    let report = SweepEngine::new(&presets::dgx_a100_hdr_cluster()).sweep(
        &models::llama2_13b(),
        &Workload::inference(1, 200, 200),
        &SweepSpace::power_of_two(8),
    );
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        include_str!("golden/sweep_infer_llama13b_8gpu.json"),
        "inference SweepReport JSON drifted from the pre-factoring fixture"
    );
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Checks a report's pretty and compact JSON against their pinned byte
/// lengths and FNV-1a digests, returning one line per drifted form. A
/// drifted form is written under the target directory for diffing.
fn pin_drift<T: serde::Serialize>(name: &str, report: &T, pins: [(usize, u64); 2]) -> Vec<String> {
    let outputs = [
        ("pretty", serde_json::to_string_pretty(report).unwrap()),
        ("compact", serde_json::to_string(report).unwrap()),
    ];
    let mut drifted = Vec::new();
    for ((form, json), (len, digest)) in outputs.iter().zip(pins) {
        let got = (json.len(), fnv1a(json.as_bytes()));
        if got != (len, digest) {
            let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("{name}.{form}.json"));
            std::fs::write(&path, json).unwrap();
            drifted.push(format!(
                "{name} {form}: {} bytes, digest {:#018x}; pinned {len} bytes, {digest:#018x}; \
                 written to {}",
                got.0,
                got.1,
                path.display()
            ));
        }
    }
    drifted
}

/// The length distributions, prefix pool, priority classes and SLO of
/// the CI paged load-sweep smoke.
const PAGED_PROMPT: LengthDist = LengthDist::Uniform { lo: 300, hi: 900 };
const PAGED_OUTPUT: LengthDist = LengthDist::Uniform { lo: 16, hi: 48 };
const PAGED_PREFIXES: PrefixSpec = PrefixSpec {
    pool: 4,
    tokens: 256,
    rate: 0.7,
};
fn paged_slo() -> SloSpec {
    SloSpec {
        ttft: Time::from_millis(4000.0),
        tpot: Time::from_millis(100.0),
    }
}

/// `serve --model llama2-7b --tp 1 --kv-block 16 --scheduler fifo
/// --requests 2000 --rate R --prompt 300:900 --output 16:48
/// --prefix-tokens 256 --prefix-pool 4 --prefix-rate 0.7
/// --priority-classes 3 --ttft-slo 4000 --seed 5 --records --json` at
/// R = 4, 16 and 32 req/s.
///
/// Three large reports, about 36k non-integer numbers between them,
/// pinned by length and digest in both pretty and compact form. Captured
/// before reports were streamed to JSON without a value tree.
#[test]
fn paged_serve_reports_keep_their_pinned_digests() {
    const PINS: [(f64, [(usize, u64); 2]); 3] = [
        (
            4.0,
            [
                (640_755, 0x8273_bed8_22a5_e72a),
                (454_986, 0x268a_7f58_82ce_433e),
            ],
        ),
        (
            16.0,
            [
                (638_843, 0xdb97_3f6d_3674_c609),
                (455_494, 0x80a2_6db5_99b1_b1ff),
            ],
        ),
        (
            32.0,
            [
                (633_580, 0x5615_307c_d4bf_8bac),
                (449_747, 0xe2b8_f3d7_6f7d_4cb8),
            ],
        ),
    ];
    let config = ServeConfig::new(1)
        .with_precision(Precision::Fp16)
        .with_slo(paged_slo())
        .with_kv(KvSpec::paged(16))
        .with_scheduler(Scheduler::Fifo)
        .with_records(RecordMode::On);
    let model = Arc::new(models::llama2_7b());
    let mut drifted = Vec::new();
    for (rate, pins) in PINS {
        let spec = TraceSpec {
            seed: 5,
            requests: 2000,
            arrival: ArrivalProcess::Poisson { rate_per_s: rate },
            prompt: PAGED_PROMPT,
            output: PAGED_OUTPUT,
            prefixes: Some(PAGED_PREFIXES),
            priority_classes: 3,
        };
        let report = serve(Arc::clone(&model), config, &spec);
        assert_eq!(report.per_request.len(), 2000);
        drifted.extend(pin_drift(&format!("serve_paged_rate{rate}"), &report, pins));
    }
    assert!(drifted.is_empty(), "JSON drifted:\n{}", drifted.join("\n"));
}

/// `load-sweep --model llama2-7b --tp-list 1 --kv-block-list 0,16,32
/// --scheduler-list fifo,priority --priority-classes 3 --prefix-tokens
/// 256 --prefix-pool 4 --prefix-rate 0.7 --rates 4,16,32 --requests 2000
/// --prompt 300:900 --output 16:48 --ttft-slo 4000 --seed 5 --json`,
/// the CI paged smoke at a fixed seed, pinned like the serve reports.
#[test]
fn paged_load_sweep_report_keeps_its_pinned_digests() {
    let mut strategies = Vec::new();
    for kv in [KvSpec::reserved(), KvSpec::paged(16), KvSpec::paged(32)] {
        for scheduler in [Scheduler::Fifo, Scheduler::Priority] {
            strategies.push(
                LoadStrategy::single(1, Precision::Fp16)
                    .with_kv(kv)
                    .with_scheduler(scheduler),
            );
        }
    }
    let spec = LoadSweepSpec {
        seed: 5,
        requests: 2000,
        prompt: PAGED_PROMPT,
        output: PAGED_OUTPUT,
        rates: vec![4.0, 16.0, 32.0],
        strategies,
        slo: paged_slo(),
        router: RouterPolicy::RoundRobin,
        faults: None,
        prefixes: Some(PAGED_PREFIXES),
        priority_classes: 3,
    };
    let report = load_sweep(
        &presets::dgx_a100_hdr_cluster(),
        &Arc::new(models::llama2_7b()),
        &spec,
    );
    assert!(report.infeasible.is_empty());
    let drifted = pin_drift(
        "load_sweep_paged",
        &report,
        [
            (18_304, 0x8be7_ebae_4caa_80d5),
            (11_936, 0x37d9_a8b5_bb0f_e153),
        ],
    );
    assert!(drifted.is_empty(), "JSON drifted:\n{}", drifted.join("\n"));
}

/// `serve --model llama2-13b --tp 2 --requests 1000000 --rate 500
/// --prompt 50:400 --output 8:64 --seed 3 --json`, serve-fleet pass (a)'s
/// shape: one replica streams a million requests through the latency
/// histograms, with the FIFO head blocked on KV for most of the run.
/// Captured before latency bins were read from a table, and re-pinned
/// when every decode iteration came to be priced exactly. Release only,
/// like the next pin: in a debug build the two take about 2 s, more than
/// the rest of the tier-1 suite.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn million_request_serve_report_keeps_its_pinned_digests() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let instance = ServeInstance::new(
        &cluster,
        Arc::new(models::llama2_13b()),
        ServeConfig::new(2),
    )
    .unwrap();
    let spec = trace(3, 1_000_000, 500.0, (50, 400), (8, 64));
    let report = instance.simulate(&spec.generate()).unwrap();
    assert_eq!(report.completed + report.rejected, 1_000_000);
    let drifted = pin_drift(
        "serve_1m",
        &report,
        [
            (8_128, 0x672c_32b7_28df_9d3d),
            (4_905, 0x90d4_6330_9698_3e5b),
        ],
    );
    assert!(drifted.is_empty(), "JSON drifted:\n{}", drifted.join("\n"));
}

/// `serve --model llama2-13b --tp 2 --replicas 4 --router
/// least-outstanding --requests 200000 --rate 1200 --prompt 50:400
/// --output 8:64 --seed 3 --mtbf 60 --mttr 10 --fault-seed 7 --json`,
/// serve-fleet pass (c)'s shape: crashes drain and requeue millions of
/// requests, so every release of a reservation by a crash shows. Captured
/// before latency bins were read from a table, and re-pinned when every
/// decode iteration came to be priced exactly. Release only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn chaos_fleet_report_at_200k_requests_keeps_its_pinned_digests() {
    let config = FleetConfig {
        replicas: 4,
        router: RouterPolicy::LeastOutstanding,
        replica: ServeConfig::new(2),
        faults: FaultSpec::crashes(7, 60.0, 10.0),
    };
    let report = simulate_fleet(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_13b()),
        &config,
        &trace(3, 200_000, 1200.0, (50, 400), (8, 64)),
    )
    .unwrap();
    assert_eq!(report.availability.crashes, 221);
    assert_eq!(report.availability.requeues, 3_421_392);
    let drifted = pin_drift(
        "fleet_chaos_200k",
        &report,
        [
            (2_537_015, 0x223d_d7b6_b93f_e1d5),
            (1_219_695, 0x0e31_3687_5259_34dd),
        ],
    );
    assert!(drifted.is_empty(), "JSON drifted:\n{}", drifted.join("\n"));
}

/// `serve --model llama2-13b --tp 2 --replicas 4 --requests 200000
/// --rate 20 --prompt 50:400 --output 8:64 --mtbf 5 --mttr 1 --fault-seed
/// 7 --json` (round-robin, seed 42): the sparse-drop chaos fleet. Its
/// 6,641 crashes move 24,955 requests, a few each, so a drop instant's
/// index span is at its widest relative to what the instant moves.
/// Captured before drops were put in trace order through a bitmap, and
/// equal to that CLI line's output byte for byte. Release only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn sparse_drop_chaos_fleet_report_keeps_its_pinned_digests() {
    let config = FleetConfig {
        replicas: 4,
        router: RouterPolicy::RoundRobin,
        replica: ServeConfig::new(2),
        faults: FaultSpec::crashes(7, 5.0, 1.0),
    };
    let report = simulate_fleet(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_13b()),
        &config,
        &trace(42, 200_000, 20.0, (50, 400), (8, 64)),
    )
    .unwrap();
    assert_eq!(report.availability.crashes, 6_641);
    assert_eq!(report.availability.requeues, 24_955);
    let drifted = pin_drift(
        "fleet_sparse_drop_200k",
        &report,
        [
            (328_097, 0x1f47_d483_26b5_2f50),
            (157_985, 0x2b3d_5e49_c269_f994),
        ],
    );
    assert!(drifted.is_empty(), "JSON drifted:\n{}", drifted.join("\n"));
}

/// `serve --model llama2-13b --tp 2 --requests 1000000 --rate 500
/// --prompt 50:400 --output 8:64 --kv-block 16 --json` (seed 42): the
/// million-request serve under 16-token paged KV, FIFO with recompute
/// preemption. About 640 requests decode per iteration and 155,286
/// preemptions return their blocks, so every block grant and victim of
/// the paged decode shows. Captured before the paged decode filed its
/// members by the epoch their blocks fill, and re-pinned when every
/// decode iteration came to be priced exactly. Release only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn million_request_paged_serve_report_keeps_its_pinned_digests() {
    let config = ServeConfig::new(2).with_kv(KvSpec::paged(16));
    let report = serve(
        Arc::new(models::llama2_13b()),
        config,
        &trace(42, 1_000_000, 500.0, (50, 400), (8, 64)),
    );
    let paging = report.paging.as_ref().expect("paged KV reports paging");
    assert_eq!(paging.preemptions, 155_286);
    assert_eq!(report.decode_iterations, 56_204);
    let drifted = pin_drift(
        "serve_1m_paged",
        &report,
        [
            (9_373, 0xbebd_f013_780a_1d92),
            (5_675, 0x9e25_037d_6395_5390),
        ],
    );
    assert!(drifted.is_empty(), "JSON drifted:\n{}", drifted.join("\n"));
}

/// `serve --model llama2-13b --tp 2 --requests 200000 --rate 500
/// --prompt 50:400 --output 8:64 --kv-block 16 --scheduler
/// priority-preempt --priority-classes 3 --preempt swap --json` (seed
/// 42): priority preemption picks the least urgent member as its victim
/// and swaps it out to host. Captured like the previous pin. Release
/// only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn priority_preempt_swap_serve_report_keeps_its_pinned_digests() {
    let config = ServeConfig::new(2)
        .with_kv(KvSpec::paged(16).with_policy(PreemptPolicy::Swap))
        .with_scheduler(Scheduler::PriorityPreempt);
    let mut spec = trace(42, 200_000, 500.0, (50, 400), (8, 64));
    spec.priority_classes = 3;
    let report = serve(Arc::new(models::llama2_13b()), config, &spec);
    let paging = report.paging.as_ref().expect("paged KV reports paging");
    assert_eq!(paging.swap_outs, 26_649);
    assert_eq!(paging.swap_ins, 26_649);
    let drifted = pin_drift(
        "serve_priority_preempt_swap",
        &report,
        [
            (13_694, 0x2a91_0a4a_ab49_39f0),
            (8_100, 0xa530_0053_e72c_936e),
        ],
    );
    assert!(drifted.is_empty(), "JSON drifted:\n{}", drifted.join("\n"));
}

/// `serve --model llama2-13b --tp 2 --replicas 4 --router
/// least-outstanding --requests 200000 --rate 1200 --prompt 50:400
/// --output 8:64 --kv-block 16 --mtbf 60 --mttr 10 --fault-seed 7
/// --json` (seed 42): the chaos fleet under paged KV, where crash drains
/// empty decode batches that are mid-growth. Captured like the previous
/// pins. Release only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn paged_chaos_fleet_report_at_200k_requests_keeps_its_pinned_digests() {
    let config = FleetConfig {
        replicas: 4,
        router: RouterPolicy::LeastOutstanding,
        replica: ServeConfig::new(2).with_kv(KvSpec::paged(16)),
        faults: FaultSpec::crashes(7, 60.0, 10.0),
    };
    let report = simulate_fleet(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_13b()),
        &config,
        &trace(42, 200_000, 1200.0, (50, 400), (8, 64)),
    )
    .unwrap();
    assert_eq!(report.availability.crashes, 241);
    let paging = report.paging.as_ref().expect("paged KV reports paging");
    assert_eq!(paging.preemptions, 36_968);
    let drifted = pin_drift(
        "fleet_chaos_paged_200k",
        &report,
        [
            (2_567_403, 0xfafa_8590_1a4c_59d8),
            (1_233_840, 0xd198_59fe_ec1d_9622),
        ],
    );
    assert!(drifted.is_empty(), "JSON drifted:\n{}", drifted.join("\n"));
}
