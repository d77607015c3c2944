//! Property and contract tests of the paged-KV serving path:
//!
//! * pool-occupancy safety — blocks in use never exceed the device pool,
//!   across block sizes, schedulers, and both preemption policies;
//! * conservation under preemption — every admitted request completes
//!   exactly once, with `queue_wait ≤ ttft ≤ e2e` per record;
//! * prefix-cache accounting — refcounted prefix blocks save exactly
//!   whole blocks per hit, and swap traffic balances;
//! * byte-identical `LoadSweepReport`/`FleetReport` JSON across
//!   installed 1- and 8-thread rayon pools for reserved *and* paged
//!   strategies (the determinism contract `fleet_props.rs` pins for the
//!   legacy path).

use optimus_hw::{presets, Precision};
use optimus_model::presets as models;
use optimus_serve::{
    load_sweep, simulate_fleet, ArrivalProcess, FleetConfig, KvSpec, LengthDist, LoadStrategy,
    LoadSweepSpec, PreemptPolicy, PrefixSpec, RecordMode, RouterPolicy, Scheduler, ServeConfig,
    ServeInstance, SloSpec, TraceSpec,
};
use proptest::prelude::*;
use std::sync::Arc;

const PREFIX_TOKENS: usize = 96;

fn prefixed_trace(seed: u64, requests: usize, rate: f64) -> TraceSpec {
    TraceSpec {
        seed,
        requests,
        arrival: ArrivalProcess::Poisson { rate_per_s: rate },
        prompt: LengthDist::Uniform { lo: 150, hi: 400 },
        output: LengthDist::Uniform { lo: 8, hi: 48 },
        prefixes: Some(PrefixSpec {
            pool: 4,
            tokens: PREFIX_TOKENS,
            rate: 0.5,
        }),
        priority_classes: 3,
    }
}

const SCHEDULERS: [Scheduler; 4] = [
    Scheduler::Fifo,
    Scheduler::Priority,
    Scheduler::Sjf,
    Scheduler::PriorityPreempt,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The paged pool is a hard capacity: across block sizes, schedulers,
    /// and both preemption policies, peak occupancy never exceeds the
    /// pool, every admitted request completes exactly once (id-ordered
    /// records, token totals matching), per-record latencies are ordered
    /// `queue_wait ≤ ttft ≤ e2e`, prefix hits save exactly the prefix's
    /// whole blocks, and swap traffic balances (every swap-out of a
    /// completing request swaps back in).
    #[test]
    fn paged_pool_never_overflows_and_conserves(
        seed in 1u64..1000,
        block in prop_oneof![Just(8usize), Just(16usize), Just(32usize), Just(64usize)],
        rate in 20.0f64..120.0,
        swap in prop_oneof![Just(false), Just(true)],
        sched in 0usize..4,
    ) {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let spec = prefixed_trace(seed, 150, rate);
        let policy = if swap { PreemptPolicy::Swap } else { PreemptPolicy::Recompute };
        let config = ServeConfig::new(1)
            .with_kv(KvSpec::paged(block).with_policy(policy))
            .with_scheduler(SCHEDULERS[sched])
            .with_records(RecordMode::On);
        let report = ServeInstance::new(&cluster, Arc::clone(&model), config)
            .unwrap()
            .simulate(&spec.generate())
            .unwrap();
        let paging = report.paging.expect("paged runs report paging");

        prop_assert!(paging.peak_blocks <= paging.total_blocks,
            "{} blocks in use of a {}-block pool", paging.peak_blocks, paging.total_blocks);
        prop_assert!(paging.peak_block_utilization <= 1.0);

        prop_assert_eq!(report.completed + report.rejected, report.requests);
        prop_assert_eq!(report.per_request.len(), report.completed);
        prop_assert!(
            report.per_request.windows(2).all(|w| w[0].id < w[1].id),
            "each admitted request completes exactly once, in id order"
        );
        prop_assert_eq!(
            report.generated_tokens,
            report.per_request.iter().map(|r| r.generated).sum::<usize>()
        );
        for r in &report.per_request {
            prop_assert!(r.queue_wait <= r.ttft, "request {}: queue_wait > ttft", r.id);
            prop_assert!(r.ttft <= r.e2e, "request {}: ttft > e2e", r.id);
        }

        // A hit shares exactly the prefix's whole blocks — the partial
        // tail block is always private — and frees them exactly once,
        // so total savings are an exact multiple.
        let whole = (PREFIX_TOKENS / block) * block;
        prop_assert_eq!(paging.cached_tokens_saved, paging.prefix_hits * whole);
        prop_assert!(paging.prefix_hits + paging.prefix_misses <= report.requests);

        if swap {
            prop_assert_eq!(paging.swap_outs, paging.swap_ins);
        } else {
            prop_assert_eq!(paging.swap_outs, 0);
            prop_assert_eq!(paging.swap_bytes.bytes(), 0.0);
        }
    }
}

/// A deterministic overload that forces decode-time OOM: long prompts on
/// the 13B model with 16-token blocks. Preemptions must actually happen,
/// and the victims still complete exactly once with ordered latencies —
/// the scenario the proptest above covers statistically, pinned so a
/// regression cannot hide behind a lucky seed.
#[test]
fn preempted_requests_complete_exactly_once() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let model = Arc::new(models::llama2_13b());
    let spec = TraceSpec {
        seed: 9,
        requests: 120,
        arrival: ArrivalProcess::Poisson { rate_per_s: 100.0 },
        prompt: LengthDist::Uniform { lo: 800, hi: 2000 },
        output: LengthDist::Uniform { lo: 64, hi: 256 },
        prefixes: None,
        priority_classes: 1,
    };
    for policy in [PreemptPolicy::Recompute, PreemptPolicy::Swap] {
        let config = ServeConfig::new(1)
            .with_kv(KvSpec::paged(16).with_policy(policy))
            .with_records(RecordMode::On);
        let report = ServeInstance::new(&cluster, Arc::clone(&model), config)
            .unwrap()
            .simulate(&spec.generate())
            .unwrap();
        let paging = report.paging.expect("paged runs report paging");
        assert!(
            paging.preemptions > 0,
            "{policy}: the overload must actually preempt"
        );
        assert_eq!(
            report.completed + report.rejected,
            report.requests,
            "{policy}"
        );
        assert_eq!(report.per_request.len(), report.completed, "{policy}");
        assert!(
            report.per_request.windows(2).all(|w| w[0].id < w[1].id),
            "{policy}: one record per admitted request"
        );
        for r in &report.per_request {
            assert!(r.queue_wait <= r.ttft, "{policy}: request {}", r.id);
            assert!(r.ttft <= r.e2e, "{policy}: request {}", r.id);
        }
        assert!(paging.peak_blocks <= paging.total_blocks, "{policy}");
    }
}

fn sweep_spec() -> LoadSweepSpec {
    LoadSweepSpec {
        seed: 77,
        requests: 300,
        prompt: LengthDist::Uniform { lo: 100, hi: 400 },
        output: LengthDist::Uniform { lo: 8, hi: 48 },
        rates: vec![10.0, 40.0],
        strategies: vec![
            LoadStrategy::single(1, Precision::Fp16),
            LoadStrategy::single(1, Precision::Fp16)
                .with_kv(KvSpec::paged(32))
                .with_scheduler(Scheduler::Sjf),
            LoadStrategy::single(1, Precision::Fp16)
                .with_kv(KvSpec::paged(16).with_policy(PreemptPolicy::Swap))
                .with_scheduler(Scheduler::PriorityPreempt),
        ],
        slo: SloSpec::default(),
        router: RouterPolicy::RoundRobin,
        faults: None,
        prefixes: Some(PrefixSpec {
            pool: 4,
            tokens: 128,
            rate: 0.6,
        }),
        priority_classes: 2,
    }
}

/// The whole sweep grid — reserved and paged cells alike — must be
/// byte-identical (as JSON) across installed 1- and 8-thread rayon
/// pools and the default pool.
#[test]
fn load_sweep_json_is_byte_identical_across_one_and_eight_threads() {
    let pool = |n: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    };
    let run = || {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        serde_json::to_string(&load_sweep(&cluster, &model, &sweep_spec())).unwrap()
    };
    let one = pool(1).install(run);
    let eight = pool(8).install(run);
    let default_threads = run();
    assert_eq!(one, eight, "1 vs 8 threads");
    assert_eq!(one, default_threads, "1 vs default threads");
}

/// A paged, prefix-cached, priority-scheduled fleet keeps the same
/// cross-pool byte-identity contract the reserved fleet pins in
/// `fleet_props.rs`.
#[test]
fn paged_fleet_json_is_byte_identical_across_one_and_eight_threads() {
    let pool = |n: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    };
    let run = || {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let config = FleetConfig {
            replicas: 3,
            router: RouterPolicy::LeastOutstanding,
            replica: ServeConfig::new(1)
                .with_kv(KvSpec::paged(16))
                .with_scheduler(Scheduler::Priority),
            faults: optimus_serve::FaultSpec::none(),
        };
        let report =
            simulate_fleet(&cluster, model, &config, &prefixed_trace(21, 400, 80.0)).unwrap();
        serde_json::to_string(&report).unwrap()
    };
    let one = pool(1).install(run);
    let eight = pool(8).install(run);
    assert_eq!(one, eight, "1 vs 8 threads");
}
