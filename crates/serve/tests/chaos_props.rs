//! Chaos property suite of the resilience-aware fleet simulator:
//!
//! * request conservation under seeded churn — every arrived request is
//!   completed or rejected, requeued work requeues-then-completes, and
//!   `routed` accounts for every assignment including requeues — for all
//!   four router policies at streaming (30k-request) scale, across a
//!   proptest grid of MTBF/MTTR/straggler values;
//! * byte-identical `FleetReport` JSON under fault injection across
//!   installed 1- and 8-thread rayon pools (the determinism contract);
//! * fault-seed sensitivity: a different fault seed must change the
//!   outcome (the determinism above is not a constant function);
//! * serde roundtrip of the fault and availability report fields;
//! * the degenerate pin: an inactive `FaultSpec` produces a `FleetReport`
//!   field-exact identical to the fault-free path, for every policy;
//! * monotonicity sanity: SLO attainment under churn never exceeds the
//!   fault-free attainment at the same offered rate, and requeued
//!   requests keep their original arrival and never report a first token
//!   before it;
//! * label independence: relabelling a trace's request ids changes the
//!   faulted report only in those ids, for every policy.

use optimus_hw::presets;
use optimus_model::presets as models;
use optimus_serve::{
    simulate_fleet, ArrivalProcess, DegradeMode, FaultDomain, FaultSpec, FleetConfig,
    FleetInstance, FleetReport, LengthDist, Request, RouterPolicy, ServeConfig, TraceSpec,
};
use proptest::prelude::*;
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

fn straggler_grid() -> impl Strategy<Value = (f64, f64)> {
    prop_oneof![Just((0.0, 1.0)), Just((0.4, 2.0))]
}

fn policies() -> [RouterPolicy; 4] {
    [
        RouterPolicy::RoundRobin,
        RouterPolicy::Random { seed: 31 },
        RouterPolicy::LeastOutstanding,
        RouterPolicy::JoinShortestQueue,
    ]
}

/// The conservation ledger every chaos run must balance, whatever the
/// churn: arrivals split into completions and rejections; requeued work
/// requeues-then-completes; `routed` counts every assignment.
fn assert_conserved(report: &FleetReport, spec: &TraceSpec, label: &str) {
    let requested: usize = spec.generate().iter().map(|r| r.output as usize).sum();
    assert_eq!(report.requests, spec.requests, "{label}");
    assert_eq!(
        report.completed + report.rejected,
        report.requests,
        "{label}"
    );
    assert_eq!(report.rejected, 0, "{label}");
    // Requeue-then-complete: dropped tokens are regenerated in full.
    assert_eq!(report.generated_tokens, requested, "{label}");
    let avail = &report.availability;
    assert_eq!(
        report.routed.iter().sum::<usize>(),
        report.requests - report.rejected + avail.requeues,
        "{label}"
    );
    assert_eq!(avail.requeued_ids.len(), avail.requeued_requests, "{label}");
    assert!(
        avail.requeued_ids.windows(2).all(|w| w[0] < w[1]),
        "{label}: requeued ids must be ascending and distinct"
    );
    assert!(avail.requeues >= avail.requeued_requests, "{label}");
    assert!(
        avail.requeued_ids.iter().all(|&id| id < report.requests),
        "{label}"
    );
    // Availability is schedule-based and well-formed.
    assert!(
        avail.availability > 0.0 && avail.availability <= 1.0,
        "{label}: availability {}",
        avail.availability
    );
    let per_replica_sum: f64 = avail.per_replica_downtime.iter().map(|t| t.secs()).sum();
    assert!(
        (per_replica_sum - avail.downtime.secs()).abs() <= 1e-9 * (1.0 + per_replica_sum),
        "{label}: per-replica downtime must decompose the total"
    );
    // Merged latency populations cover exactly the completed requests.
    assert_eq!(report.ttft.count, report.completed, "{label}");
    assert_eq!(report.e2e.count, report.completed, "{label}");
}

proptest! {
    // Each case runs 30k requests through four routers; a handful of
    // cases covers the MTBF/MTTR/straggler grid without dominating the
    // suite's wall-clock.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Conservation at streaming scale under churn, for every router
    /// policy, across crash tempo and straggler severity.
    #[test]
    fn chaos_fleet_conserves_requests_at_scale(
        fault_seed in 1u64..=1000,
        mtbf_s in prop_oneof![Just(8.0f64), Just(25.0), Just(90.0)],
        mttr_s in prop_oneof![Just(1.5f64), Just(4.0)],
        straggler in straggler_grid(),
    ) {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let spec = trace(3, 30_000, 120.0);
        let faults = FaultSpec::crashes(fault_seed, mtbf_s, mttr_s)
            .with_stragglers(straggler.0, straggler.1);
        for policy in policies() {
            let config = FleetConfig::new(4, 1)
                .with_router(policy)
                .with_faults(faults.clone());
            let report =
                simulate_fleet(&cluster, Arc::clone(&model), &config, &spec).unwrap();
            let label = format!(
                "{policy}, mtbf {mtbf_s}, mttr {mttr_s}, stragglers {straggler:?}, seed {fault_seed}"
            );
            assert_conserved(&report, &spec, &label);
            prop_assert_eq!(report.faults, Some(faults.clone()), "{}", label);
        }
    }
}

fn chaos_json(spec: &TraceSpec, policy: RouterPolicy, faults: FaultSpec) -> String {
    let cluster = presets::dgx_a100_hdr_cluster();
    let model = Arc::new(models::llama2_13b());
    let config = FleetConfig {
        replicas: 3,
        router: policy,
        replica: ServeConfig::new(2),
        faults,
    };
    let report = simulate_fleet(&cluster, model, &config, spec).unwrap();
    serde_json::to_string(&report).unwrap()
}

/// The full faulted `FleetReport` — requeue bookkeeping, availability
/// metrics, merged percentiles — must be byte-identical (as JSON) across
/// installed 1- and 8-thread pools and repeated runs, above and below
/// the streaming cutover.
#[test]
fn chaos_report_is_byte_identical_across_one_and_eight_threads() {
    let pool = |n: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    };
    let faults = FaultSpec::crashes(11, 12.0, 3.0).with_stragglers(0.34, 1.8);
    for (requests, rate) in [(64usize, 8.0), (12_000usize, 150.0)] {
        let spec = trace(1234, requests, rate);
        for policy in [
            RouterPolicy::Random { seed: 5 },
            RouterPolicy::LeastOutstanding,
        ] {
            let one = pool(1).install(|| chaos_json(&spec, policy, faults.clone()));
            let eight = pool(8).install(|| chaos_json(&spec, policy, faults.clone()));
            let default_threads = chaos_json(&spec, policy, faults.clone());
            assert_eq!(one, eight, "{requests} requests, {policy}: 1 vs 8 threads");
            assert_eq!(
                one, default_threads,
                "{requests} requests, {policy}: 1 vs default threads"
            );
        }
    }
}

/// A different fault seed must actually change the outcome, and the
/// crash schedule it implies must show up in the availability metrics.
#[test]
fn different_fault_seeds_differ() {
    let spec = trace(7, 400, 60.0);
    let a = chaos_json(
        &spec,
        RouterPolicy::LeastOutstanding,
        FaultSpec::crashes(1, 6.0, 2.0),
    );
    let b = chaos_json(
        &spec,
        RouterPolicy::LeastOutstanding,
        FaultSpec::crashes(2, 6.0, 2.0),
    );
    assert_ne!(a, b);
    let back: FleetReport = serde_json::from_str(&a).unwrap();
    assert!(back.availability.crashes > 0);
    assert!(back.availability.downtime.secs() > 0.0);
}

/// The faulted report — `faults` spec and `availability` block included —
/// round-trips through the serialization layer.
#[test]
fn chaos_report_roundtrips_through_json() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let report = simulate_fleet(
        &cluster,
        Arc::new(models::llama2_7b()),
        &FleetConfig::new(2, 1)
            .with_router(RouterPolicy::JoinShortestQueue)
            .with_faults(FaultSpec::crashes(9, 5.0, 2.0).with_stragglers(0.5, 1.5)),
        &trace(7, 300, 40.0),
    )
    .unwrap();
    assert!(report.faults.is_some());
    let json = serde_json::to_string(&report).unwrap();
    let back: FleetReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
    assert_eq!(back.availability, report.availability);
}

/// The degenerate pin: an inactive fault spec — `FaultSpec::none()`, or
/// any spec whose knobs are all at their identity values regardless of
/// its seed — produces a `FleetReport` field-exact identical to the
/// fault-free path, for every router policy. This is the guarantee that
/// the fault machinery costs nothing when disabled.
#[test]
fn inactive_fault_spec_is_bit_identical_to_the_fault_free_path() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let model = Arc::new(models::llama2_7b());
    let spec = trace(21, 500, 80.0);
    let mut seeded_noop = FaultSpec::none();
    seeded_noop.seed = 99;
    // A disabled domain (mtbf 0) is as inert as no domain at all.
    let domain_noop = FaultSpec::none().with_domain(FaultDomain::new(vec![0, 1], 0.0, 0.0));
    assert!(domain_noop.is_none());
    for policy in policies() {
        let plain = simulate_fleet(
            &cluster,
            Arc::clone(&model),
            &FleetConfig::new(3, 1).with_router(policy),
            &spec,
        )
        .unwrap();
        for inactive in [FaultSpec::none(), seeded_noop.clone(), domain_noop.clone()] {
            let gated = simulate_fleet(
                &cluster,
                Arc::clone(&model),
                &FleetConfig::new(3, 1)
                    .with_router(policy)
                    .with_faults(inactive.clone()),
                &spec,
            )
            .unwrap();
            assert_eq!(gated, plain, "{policy}, {inactive:?}");
            assert_eq!(gated.faults, None, "{policy}");
            assert_eq!(
                serde_json::to_string(&gated).unwrap(),
                serde_json::to_string(&plain).unwrap(),
                "{policy}"
            );
        }
    }
}

/// Rack-wide chaos: shared failure domains that take whole replica
/// groups down together still balance the conservation ledger for every
/// router policy — including the moments when a domain outage leaves the
/// whole fleet down and the front door blocks.
#[test]
fn rack_wide_outages_conserve_across_all_policies() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let model = Arc::new(models::llama2_7b());
    let spec = trace(17, 2_000, 90.0);
    // Two racks of two replicas each; no per-replica crash process, so
    // every outage is a shared one.
    let faults = FaultSpec::none()
        .with_domain(FaultDomain::new(vec![0, 1], 12.0, 2.0))
        .with_domain(FaultDomain::new(vec![2, 3], 18.0, 2.5));
    assert!(faults.has_domains() && !faults.has_crashes());
    for policy in policies() {
        let config = FleetConfig::new(4, 1)
            .with_router(policy)
            .with_faults(faults.clone());
        let report = simulate_fleet(&cluster, Arc::clone(&model), &config, &spec).unwrap();
        let label = format!("{policy}, rack domains");
        assert_conserved(&report, &spec, &label);
        assert!(
            report.availability.crashes > 0,
            "{label}: 12 s rack MTBF must outage"
        );
        assert!(
            report.availability.requeued_requests > 0,
            "{label}: rack outages must requeue live work"
        );
    }
}

/// Domain downtime decomposes into per-replica accounting: with
/// domain-only faults, each member replica's scheduled downtime is
/// exactly its domain's shared downtime, and the fleet total is the
/// member-weighted sum of the per-domain figures.
#[test]
fn domain_downtime_decomposes_into_per_replica_accounting() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let model = Arc::new(models::llama2_7b());
    let spec = trace(23, 800, 70.0);
    let faults = FaultSpec::none()
        .with_domain(FaultDomain::new(vec![0, 1], 10.0, 2.0))
        .with_domain(FaultDomain::new(vec![2], 16.0, 3.0));
    let report = simulate_fleet(
        &cluster,
        Arc::clone(&model),
        &FleetConfig::new(4, 1)
            .with_router(RouterPolicy::LeastOutstanding)
            .with_faults(faults.clone()),
        &spec,
    )
    .unwrap();
    let avail = &report.availability;
    assert_eq!(avail.per_domain_downtime.len(), 2);
    assert_eq!(avail.per_replica_downtime.len(), 4);
    // Members inherit exactly the shared schedule; non-members none.
    assert_eq!(avail.per_replica_downtime[0], avail.per_domain_downtime[0]);
    assert_eq!(avail.per_replica_downtime[1], avail.per_domain_downtime[0]);
    assert_eq!(avail.per_replica_downtime[2], avail.per_domain_downtime[1]);
    assert_eq!(avail.per_replica_downtime[3].secs(), 0.0);
    let weighted: f64 =
        2.0 * avail.per_domain_downtime[0].secs() + avail.per_domain_downtime[1].secs();
    assert!(
        (weighted - avail.downtime.secs()).abs() <= 1e-9 * (1.0 + weighted),
        "member-weighted domain downtime {weighted} must equal the total {}",
        avail.downtime.secs()
    );
    // The shared schedule itself is what the members observed: both rack
    // members went down together for every window.
    let horizon = report.makespan.secs();
    let shared = faults.domain_outage_windows(0, horizon).unwrap();
    assert!(!shared.is_empty());
    assert_eq!(faults.outage_windows(0, horizon).unwrap(), shared);
    assert_eq!(faults.outage_windows(1, horizon).unwrap(), shared);
}

/// Link-mode degradation prices the slowdown through the interconnect:
/// a TP-2 fleet (collectives on every iteration) lands strictly between
/// the clean run and the flat-mode slowdown of the same multiplier,
/// while `FleetInstance::new` — which cannot re-price its borrowed
/// cluster — rejects the spec with a pointer to the entry points that
/// can.
#[test]
fn link_mode_degradation_prices_through_the_interconnect() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let model = Arc::new(models::llama2_13b());
    let spec = trace(29, 300, 25.0);
    let run = |faults: FaultSpec| {
        simulate_fleet(
            &cluster,
            Arc::clone(&model),
            &FleetConfig::new(2, 2).with_faults(faults),
            &spec,
        )
        .unwrap()
    };
    let clean = run(FaultSpec::none());
    let link = run(FaultSpec::none()
        .with_degradation(3.0)
        .with_degrade_mode(DegradeMode::Link));
    let flat = run(FaultSpec::none().with_degradation(3.0));
    assert!(
        clean.e2e.mean < link.e2e.mean,
        "thinner links must slow a TP-2 fleet: clean {} vs link {}",
        clean.e2e.mean,
        link.e2e.mean
    );
    assert!(
        link.e2e.mean < flat.e2e.mean,
        "link-mode slows only the collectives, flat slows everything: link {} vs flat {}",
        link.e2e.mean,
        flat.e2e.mean
    );
    // The constructor that borrows the cluster refuses the spec instead
    // of silently pricing over undegraded links.
    let err = FleetInstance::new(
        &cluster,
        Arc::clone(&model),
        FleetConfig::new(2, 2).with_faults(
            FaultSpec::none()
                .with_degradation(3.0)
                .with_degrade_mode(DegradeMode::Link),
        ),
    )
    .unwrap_err();
    assert!(err.to_string().contains("link-mode"), "{err}");
    // An inert link-mode spec (multiplier 1) stays bit-identical.
    let inert = run(FaultSpec::none().with_degrade_mode(DegradeMode::Link));
    assert_eq!(inert, clean);
}

/// Churn only hurts: at the same offered rate, SLO attainment under
/// crashes never exceeds the fault-free attainment, goodput per
/// up-replica-second stays finite, and makespan never shrinks.
#[test]
fn attainment_under_churn_never_exceeds_fault_free() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let model = Arc::new(models::llama2_7b());
    // Just below the 4-replica knee: attainment is high but not pinned
    // at 1.0, so a drop is observable.
    let spec = trace(9, 5_000, 150.0);
    let clean = simulate_fleet(
        &cluster,
        Arc::clone(&model),
        &FleetConfig::new(4, 1).with_router(RouterPolicy::LeastOutstanding),
        &spec,
    )
    .unwrap();
    let churned = simulate_fleet(
        &cluster,
        Arc::clone(&model),
        &FleetConfig::new(4, 1)
            .with_router(RouterPolicy::LeastOutstanding)
            .with_faults(FaultSpec::crashes(5, 8.0, 3.0)),
        &spec,
    )
    .unwrap();
    assert!(churned.availability.crashes > 0, "churn must be real");
    assert!(
        churned.slo.attainment <= clean.slo.attainment,
        "churned attainment {} must not exceed fault-free {}",
        churned.slo.attainment,
        clean.slo.attainment
    );
    assert!(churned.makespan >= clean.makespan);
    assert!(churned
        .availability
        .goodput_tokens_per_up_replica_s
        .is_finite());
}

/// Requeued requests keep their original arrival time: the record a
/// requeued request finally produces carries the trace arrival, appears
/// on exactly one replica, and never reports a first token before that
/// arrival (its TTFT clock keeps running across the crash).
#[test]
fn requeued_requests_keep_their_arrival_and_ttft_ordering() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let model = Arc::new(models::llama2_7b());
    let spec = trace(13, 600, 60.0);
    let arrivals: Vec<f64> = spec.generate().iter().map(|r| r.arrival_s).collect();
    let report = simulate_fleet(
        &cluster,
        Arc::clone(&model),
        &FleetConfig::new(3, 1)
            .with_router(RouterPolicy::LeastOutstanding)
            .with_faults(FaultSpec::crashes(5, 6.0, 2.0)),
        &spec,
    )
    .unwrap();
    let avail = &report.availability;
    assert!(
        avail.requeued_requests > 0,
        "the scenario must actually requeue work"
    );
    for &id in &avail.requeued_ids {
        let hits: Vec<_> = report
            .per_replica
            .iter()
            .flat_map(|r| r.per_request.iter().filter(|m| m.id == id))
            .collect();
        assert_eq!(hits.len(), 1, "request {id} must complete exactly once");
        let m = hits[0];
        assert!(
            (m.arrival.secs() - arrivals[id]).abs() <= 1e-12,
            "request {id} must keep its trace arrival"
        );
        // TTFT is measured from arrival and includes the time lost to the
        // crash; it can never precede the arrival it is measured from.
        assert!(m.ttft.secs() > 0.0, "request {id}");
        assert!(m.queue_wait <= m.ttft, "request {id}");
        assert!(m.ttft <= m.e2e, "request {id}");
    }
}

/// Regression: a request's `id` is a label and never steers the
/// simulation. Crashes used to requeue their backlog in id order, so
/// reversing the ids of this trace re-routed every drained request
/// (round-robin e2e p50 37.5 s → 22.0 s, routed [3782, 4824, 4704, 2899]
/// → [3714, 4788, 4653, 2862], and every other policy moved too).
/// Requeues now go in trace order: mapping each id of the relabelled
/// report back (and re-sorting what the report lists by id) gives the
/// original report, field for field.
#[test]
fn requeue_order_ignores_request_labels() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let model = Arc::new(models::llama2_7b());
    let original = trace(3, 5_000, 120.0).generate();
    let n = original.len();
    let relabel = |id: usize| n - 1 - id;
    let relabelled: Vec<Request> = original
        .iter()
        .map(|r| Request {
            id: u32::try_from(relabel(r.id as usize)).unwrap(),
            ..*r
        })
        .collect();
    for policy in policies() {
        let config = FleetConfig::new(4, 1)
            .with_router(policy)
            .with_faults(FaultSpec::crashes(7, 8.0, 2.0));
        let fleet = FleetInstance::new(&cluster, Arc::clone(&model), config).unwrap();
        let run = |trace: &[Request]| fleet.simulate(trace).unwrap();
        let expected = run(&original);
        assert!(
            expected.availability.requeues > 0,
            "{policy}: the crashes must requeue work"
        );
        let mut report = run(&relabelled);
        for id in &mut report.rejected_ids {
            *id = relabel(*id);
        }
        let requeued = &mut report.availability.requeued_ids;
        for id in requeued.iter_mut() {
            *id = relabel(*id);
        }
        requeued.sort_unstable();
        for replica in &mut report.per_replica {
            for id in &mut replica.rejected_ids {
                *id = relabel(*id);
            }
            for record in &mut replica.per_request {
                record.id = relabel(record.id);
            }
            // Reports list their records by id.
            replica.per_request.sort_by_key(|record| record.id);
        }
        assert_eq!(report, expected, "{policy}");
    }
}
