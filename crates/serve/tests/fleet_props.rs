//! Property and contract tests of the multi-replica fleet simulator:
//!
//! * token/request conservation across replicas for every router policy,
//!   at streaming (>10k-request) scale;
//! * byte-identical `FleetReport` JSON across installed 1- and 8-thread
//!   rayon pools and repeated runs (the determinism contract every
//!   parallel-adjacent subsystem ships);
//! * scaling sanity: R replicas at R× the single-replica rate keep SLO
//!   attainment within a small tolerance of one replica at the base rate
//!   under stateless (random-thinning) routing — replication neither
//!   manufactures nor destroys capacity per device.

use optimus_hw::presets;
use optimus_model::presets as models;
use optimus_serve::{
    simulate_fleet, ArrivalProcess, FaultSpec, FleetConfig, LengthDist, RouterPolicy, ServeConfig,
    ServeInstance, TraceSpec,
};
use std::sync::Arc;

fn trace(seed: u64, requests: usize, rate: f64) -> TraceSpec {
    TraceSpec {
        seed,
        requests,
        arrival: ArrivalProcess::Poisson { rate_per_s: rate },
        prompt: LengthDist::Uniform { lo: 50, hi: 300 },
        output: LengthDist::Uniform { lo: 4, hi: 48 },
        prefixes: None,
        priority_classes: 1,
    }
}

fn policies() -> [RouterPolicy; 4] {
    [
        RouterPolicy::RoundRobin,
        RouterPolicy::Random { seed: 31 },
        RouterPolicy::LeastOutstanding,
        RouterPolicy::JoinShortestQueue,
    ]
}

/// Conservation across replicas at streaming scale: every trace request
/// is routed to exactly one replica (or rejected at the router), every
/// routed request completes with its requested tokens, and the fleet
/// aggregates equal the per-replica sums — for every policy.
#[test]
fn fleet_conserves_tokens_and_requests_at_scale() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let model = Arc::new(models::llama2_7b());
    let spec = trace(3, 30_000, 120.0);
    let requested: usize = spec.generate().iter().map(|r| r.output as usize).sum();
    for policy in policies() {
        let config = FleetConfig::new(4, 1).with_router(policy);
        let report = simulate_fleet(&cluster, Arc::clone(&model), &config, &spec).unwrap();
        assert_eq!(report.requests, 30_000, "{policy}");
        assert_eq!(
            report.completed + report.rejected,
            report.requests,
            "{policy}"
        );
        assert_eq!(report.rejected, 0, "{policy}");
        assert_eq!(report.generated_tokens, requested, "{policy}");
        assert_eq!(
            report.routed.iter().sum::<usize>(),
            report.requests,
            "{policy}"
        );
        let sums = report.per_replica.iter().fold((0, 0, 0), |acc, r| {
            (
                acc.0 + r.completed,
                acc.1 + r.generated_tokens,
                acc.2 + r.slo.met,
            )
        });
        assert_eq!(sums.0, report.completed, "{policy}");
        assert_eq!(sums.1, report.generated_tokens, "{policy}");
        assert_eq!(sums.2, report.slo.met, "{policy}");
        // Fleet latency counts cover the merged population exactly.
        assert_eq!(report.ttft.count, report.completed, "{policy}");
        assert_eq!(report.e2e.count, report.completed, "{policy}");
        assert!(report.ttft.p50 <= report.ttft.p99, "{policy}");
        assert!(report.ttft.p99 <= report.ttft.max, "{policy}");
        // The fleet makespan is the slowest replica's.
        let slowest = report.per_replica.iter().map(|r| r.makespan).max().unwrap();
        assert_eq!(report.makespan, slowest, "{policy}");
        // KV invariants hold on every replica.
        for r in &report.per_replica {
            assert!(r.kv.peak <= r.kv.budget, "{policy}");
        }
    }
}

fn fleet_json(spec: &TraceSpec, policy: RouterPolicy) -> String {
    let cluster = presets::dgx_a100_hdr_cluster();
    let model = Arc::new(models::llama2_13b());
    let config = FleetConfig {
        replicas: 3,
        router: policy,
        replica: ServeConfig::new(2),
        faults: FaultSpec::none(),
    };
    let report = simulate_fleet(&cluster, model, &config, spec).unwrap();
    serde_json::to_string(&report).unwrap()
}

/// The full `FleetReport` — merged percentiles, per-replica reports,
/// queue series, routed counts — must be byte-identical (as JSON) across
/// installed 1- and 8-thread pools and repeated runs, for both a
/// stateless and a state-aware policy, above and below the streaming
/// cutover.
#[test]
fn fleet_report_is_byte_identical_across_one_and_eight_threads() {
    let pool = |n: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    };
    for (requests, rate) in [(64usize, 8.0), (12_000usize, 150.0)] {
        let spec = trace(1234, requests, rate);
        for policy in [
            RouterPolicy::Random { seed: 5 },
            RouterPolicy::LeastOutstanding,
        ] {
            let one = pool(1).install(|| fleet_json(&spec, policy));
            let eight = pool(8).install(|| fleet_json(&spec, policy));
            let default_threads = fleet_json(&spec, policy);
            assert_eq!(one, eight, "{requests} requests, {policy}: 1 vs 8 threads");
            assert_eq!(
                one, default_threads,
                "{requests} requests, {policy}: 1 vs default threads"
            );
        }
    }
}

/// Different router seeds must actually change a random fleet's outcome
/// (the determinism above is not a constant function).
#[test]
fn different_router_seeds_differ() {
    let spec = trace(7, 200, 60.0);
    let a = fleet_json(&spec, RouterPolicy::Random { seed: 1 });
    let b = fleet_json(&spec, RouterPolicy::Random { seed: 2 });
    assert_ne!(a, b);
}

/// The fleet report round-trips through the serialization layer.
#[test]
fn fleet_report_roundtrips_through_json() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let report = simulate_fleet(
        &cluster,
        Arc::new(models::llama2_7b()),
        &FleetConfig::new(2, 1).with_router(RouterPolicy::JoinShortestQueue),
        &trace(7, 48, 12.0),
    )
    .unwrap();
    let json = serde_json::to_string(&report).unwrap();
    let back: optimus_serve::FleetReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
}

/// Scaling sanity: with stateless random routing, splitting a Poisson
/// stream of rate R·λ across R replicas gives each replica a Poisson(λ)
/// stream (thinning), so the fleet's SLO attainment at R× the load must
/// sit within a small tolerance of one replica at the base load. The
/// operating point (λ = 40/s on llama2-7b TP1) is just below the
/// saturation knee, where attainment is high but not pinned at 1.0.
#[test]
fn r_replicas_at_r_times_the_rate_match_single_replica_attainment() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let model = Arc::new(models::llama2_7b());
    const R: usize = 4;
    const BASE_RATE: f64 = 40.0;
    let single = ServeInstance::new(&cluster, Arc::clone(&model), ServeConfig::new(1))
        .unwrap()
        .simulate(&trace(9, 5_000, BASE_RATE).generate())
        .unwrap();
    let fleet = simulate_fleet(
        &cluster,
        Arc::clone(&model),
        &FleetConfig::new(R, 1).with_router(RouterPolicy::Random { seed: 17 }),
        &trace(9, R * 5_000, R as f64 * BASE_RATE),
    )
    .unwrap();
    assert!(
        single.slo.attainment > 0.9,
        "the operating point must be below the knee: {}",
        single.slo.attainment
    );
    let delta = (fleet.slo.attainment - single.slo.attainment).abs();
    assert!(
        delta <= 0.05,
        "fleet attainment {} vs single-replica {} (Δ {delta})",
        fleet.slo.attainment,
        single.slo.attainment
    );
    // Per-device throughput is preserved within the same tolerance band.
    let per_device = fleet.tokens_per_s / R as f64;
    assert!(
        (per_device - single.tokens_per_s).abs() / single.tokens_per_s <= 0.1,
        "fleet per-device {per_device} tok/s vs single {}",
        single.tokens_per_s
    );
}

/// State-aware routing beats (or ties) round-robin on the TTFT tail when
/// request sizes are heterogeneous enough for blind balance to hurt: the
/// router that sees queue state never does worse at deep saturation.
#[test]
fn least_outstanding_never_trails_round_robin_badly() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let model = Arc::new(models::llama2_7b());
    let spec = TraceSpec {
        seed: 21,
        requests: 600,
        arrival: ArrivalProcess::Poisson { rate_per_s: 180.0 },
        // Wide length spread: blind routing occasionally stacks several
        // heavy requests on one replica.
        prompt: LengthDist::Uniform { lo: 20, hi: 1500 },
        output: LengthDist::Uniform { lo: 1, hi: 96 },
        prefixes: None,
        priority_classes: 1,
    };
    let rr = simulate_fleet(&cluster, Arc::clone(&model), &FleetConfig::new(4, 1), &spec).unwrap();
    let lo = simulate_fleet(
        &cluster,
        Arc::clone(&model),
        &FleetConfig::new(4, 1).with_router(RouterPolicy::LeastOutstanding),
        &spec,
    )
    .unwrap();
    assert!(
        lo.e2e.p99.secs() <= rr.e2e.p99.secs() * 1.05,
        "least-outstanding p99 {} must not trail round-robin {}",
        lo.e2e.p99,
        rr.e2e.p99
    );
}
