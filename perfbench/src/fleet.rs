//! The `serve-fleet` workload: llama2-13b at TP2 with reserved KV on the
//! sealed-table streaming path. (a) one replica serving 1M requests at
//! 500 req/s through `ServeInstance`; (b) four replicas behind the
//! least-outstanding router serving 200k requests at 1200 req/s through
//! `FleetInstance`; (c) the same fleet under seeded crash/recover churn,
//! cycling through [`REALIZATIONS`] fault seeds so that one run averages
//! over several crash histories rather than riding on one.
//! Every pass builds a fresh instance and ends with the report JSON that
//! `serve --json` prints. Traces are generated in set-up.

use crate::harness::{derive_seed, Kind, Outcome, Stopwatch};
use crate::tracer::Tracer;
use optimus::prelude::*;
use optimus_serve::{
    ArrivalProcess, FaultSpec, FleetConfig, FleetInstance, FleetReport, KvSpec, LatencyStats,
    LengthDist, Request, RouterPolicy, Scheduler, ServeConfig, ServeInstance, ServeReport, SloSpec,
    TraceSpec,
};
use std::sync::Arc;

pub const KINDS: [Kind; 3] = [
    Kind {
        span: "pass.serve",
        metric: "serve_ms",
    },
    Kind {
        span: "pass.fleet",
        metric: "fleet_ms",
    },
    Kind {
        span: "pass.fleet_chaos",
        metric: "fleet_chaos_ms",
    },
];

const REPLICAS: usize = 4;

/// Fault seeds pass (c) cycles through, one per cycle of rounds.
pub const REALIZATIONS: usize = 12;

fn trace_spec(seed: u64, stream: &str, requests: usize, rate_per_s: f64) -> TraceSpec {
    TraceSpec {
        seed: derive_seed(seed, stream),
        requests,
        arrival: ArrivalProcess::Poisson { rate_per_s },
        prompt: LengthDist::Uniform { lo: 50, hi: 400 },
        output: LengthDist::Uniform { lo: 8, hi: 64 },
        prefixes: None,
        priority_classes: 1,
    }
}

/// The single-replica trace: 1M requests at 500 req/s.
pub fn serve_spec(seed: u64) -> TraceSpec {
    trace_spec(seed, "serve-trace", 1_000_000, 500.0)
}

/// The fleet trace: 200k requests at 1200 req/s.
pub fn fleet_spec(seed: u64) -> TraceSpec {
    trace_spec(seed, "fleet-trace", 200_000, 1200.0)
}

/// `FaultSpec::crashes(seed, 60 s, 10 s)` with a seed derived from the
/// workload seed and the realization index.
pub fn chaos(seed: u64, realization: usize) -> FaultSpec {
    FaultSpec::crashes(
        derive_seed(seed, &format!("faults-{realization}")),
        60.0,
        10.0,
    )
}

/// The per-replica strategy `serve --tp 2` builds, defaults spelled out.
pub fn replica_config() -> ServeConfig {
    ServeConfig::new(2)
        .with_precision(Precision::Fp16)
        .with_slo(SloSpec::default())
        .with_kv(KvSpec::reserved())
        .with_scheduler(Scheduler::Fifo)
}

pub fn fleet_config(faults: FaultSpec) -> FleetConfig {
    FleetConfig {
        replicas: REPLICAS,
        router: RouterPolicy::LeastOutstanding,
        replica: replica_config(),
        faults,
    }
}

pub struct Inputs {
    cluster: ClusterSpec,
    model: Arc<ModelConfig>,
    serve_trace: Vec<Request>,
    fleet_trace: Vec<Request>,
    faults: Vec<FaultSpec>,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        Self {
            cluster: hw::presets::dgx_a100_hdr_cluster(),
            model: Arc::new(model::presets::llama2_13b()),
            serve_trace: serve_spec(seed).generate(),
            fleet_trace: fleet_spec(seed).generate(),
            faults: (0..REALIZATIONS).map(|r| chaos(seed, r)).collect(),
        }
    }

    /// Runs one pass of `kind`; pass (c) takes the fault seed of `cycle`.
    pub fn run(&self, kind: usize, cycle: usize, t: &Tracer) -> Outcome {
        let start = Stopwatch::start();
        if kind == 0 {
            let trace = &self.serve_trace;
            let instance = t.span("serve.instance", || {
                ServeInstance::new(&self.cluster, Arc::clone(&self.model), replica_config())
            });
            let report = instance.and_then(|i| t.span("serve.simulate", || i.simulate(trace)));
            let report = match report {
                Ok(r) => r,
                Err(e) => return Outcome::error(start.secs(), e),
            };
            let json = t.span("report.json", || serde_json::to_string_pretty(&report));
            let secs = start.secs();
            let failures = t.span("check", || check_serve(&report, trace.len()));
            return Outcome::new(secs, trace.len(), json, failures);
        }
        let trace = &self.fleet_trace;
        let variant = if kind == 1 { 0 } else { cycle % REALIZATIONS };
        let faults = if kind == 1 {
            FaultSpec::none()
        } else {
            self.faults[variant].clone()
        };
        let fleet = t.span("serve.instance", || {
            FleetInstance::new(&self.cluster, Arc::clone(&self.model), fleet_config(faults))
        });
        let report = fleet.and_then(|f| t.span("fleet.simulate", || f.simulate(trace)));
        let report = match report {
            Ok(r) => r,
            Err(e) => return Outcome::error(start.secs(), e),
        };
        let json = t.span("report.json", || serde_json::to_string_pretty(&report));
        let secs = start.secs();
        let failures = t.span("check", || check_fleet(&report, trace.len(), kind == 2));
        Outcome {
            variant,
            ..Outcome::new(secs, trace.len(), json, failures)
        }
    }
}

/// p50 ≤ p99 ≤ max.
pub fn check_latency(name: &str, stats: &LatencyStats, failures: &mut Vec<String>) {
    if !(stats.p50 <= stats.p99 && stats.p99 <= stats.max) {
        failures.push(format!(
            "{name}: p50 {} p99 {} max {} out of order",
            stats.p50, stats.p99, stats.max
        ));
    }
}

/// Every request completes or is rejected, and percentiles are ordered.
pub fn check_serve(report: &ServeReport, requests: usize) -> Vec<String> {
    let mut failures = Vec::new();
    if report.requests != requests || report.completed + report.rejected != requests {
        failures.push(format!(
            "{} completed + {} rejected of {requests} requests (report says {})",
            report.completed, report.rejected, report.requests
        ));
    }
    check_latency("ttft", &report.ttft, &mut failures);
    check_latency("tpot", &report.tpot, &mut failures);
    check_latency("e2e", &report.e2e, &mut failures);
    failures
}

/// As [`check_serve`], plus routing balance: every admitted request is
/// routed once, and once more per requeue.
fn check_fleet(report: &FleetReport, requests: usize, faulted: bool) -> Vec<String> {
    let mut failures = Vec::new();
    if report.requests != requests || report.completed + report.rejected != requests {
        failures.push(format!(
            "{} completed + {} rejected of {requests} requests (report says {})",
            report.completed, report.rejected, report.requests
        ));
    }
    let routed: usize = report.routed.iter().sum();
    let requeues = report.availability.requeues;
    if routed != requests - report.rejected + requeues {
        failures.push(format!(
            "{routed} routed, expected {requests} − {} rejected + {requeues} requeues",
            report.rejected
        ));
    }
    if faulted && report.availability.crashes == 0 {
        failures.push("the chaos pass saw no crash".to_owned());
    }
    check_latency("ttft", &report.ttft, &mut failures);
    check_latency("tpot", &report.tpot, &mut failures);
    check_latency("e2e", &report.e2e, &mut failures);
    failures
}
