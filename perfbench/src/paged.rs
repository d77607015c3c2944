//! The `serve-paged` workload: the CI paged load-sweep. llama2-7b at TP1,
//! KV blocks {reserved, 16, 32} × schedulers {fifo, priority}, rates
//! {4, 16, 32} req/s, 2000 requests per cell, 3 priority classes and a
//! pool of four 256-token prefixes hit at rate 0.7. (a) is one
//! `load_sweep` plus its JSON; (b) and (c) are one of its strategies
//! (fifo) run paged with 16-token blocks and reserved, on the sweep's own
//! three rate traces, through one fresh `ServeInstance` each, with the
//! report JSON `serve --json` prints for every trace. Cells stay under
//! `EXACT_MODE_LIMIT`, so decode pricing runs the memoized exact path.

use crate::fleet::check_serve;
use crate::harness::{derive_seed, Kind, Outcome, Stopwatch};
use crate::tracer::Tracer;
use optimus::prelude::*;
use optimus::units::Time;
use optimus_serve::{
    load_sweep, ArrivalProcess, KvSpec, LengthDist, LoadStrategy, LoadSweepReport, LoadSweepSpec,
    PrefixSpec, Request, RouterPolicy, Scheduler, ServeConfig, ServeInstance, SloSpec, TraceSpec,
};
use std::sync::Arc;

pub const KINDS: [Kind; 3] = [
    Kind {
        span: "pass.load_sweep",
        metric: "load_sweep_ms",
    },
    Kind {
        span: "pass.kv_paged_curve",
        metric: "kv_paged_curve_ms",
    },
    Kind {
        span: "pass.kv_reserved_curve",
        metric: "kv_reserved_curve_ms",
    },
];

const REQUESTS: usize = 2000;
const RATES: [f64; 3] = [4.0, 16.0, 32.0];
/// The cell the per-layer KV probes run: 16 req/s.
pub const CELL_RATE: f64 = 16.0;
const CELL_BLOCK: usize = 16;
const PROMPT: LengthDist = LengthDist::Uniform { lo: 300, hi: 900 };
const OUTPUT: LengthDist = LengthDist::Uniform { lo: 16, hi: 48 };
const PREFIXES: PrefixSpec = PrefixSpec {
    pool: 4,
    tokens: 256,
    rate: 0.7,
};
const PRIORITY_CLASSES: u8 = 3;

/// `--ttft-slo 4000` with the default 100 ms TPOT target.
fn slo() -> SloSpec {
    SloSpec {
        ttft: Time::from_millis(4000.0),
        tpot: Time::from_millis(100.0),
    }
}

/// The load sweep the CI smoke runs, its trace seed derived from the
/// workload seed.
pub fn sweep_spec(seed: u64) -> LoadSweepSpec {
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
    LoadSweepSpec {
        seed: derive_seed(seed, "load-sweep"),
        requests: REQUESTS,
        prompt: PROMPT,
        output: OUTPUT,
        rates: RATES.to_vec(),
        strategies,
        slo: slo(),
        router: RouterPolicy::RoundRobin,
        faults: None,
        prefixes: Some(PREFIXES),
        priority_classes: PRIORITY_CLASSES,
    }
}

/// The trace `load_sweep` generates for its cells at `rate_per_s`.
pub fn cell_spec(seed: u64, rate_per_s: f64) -> TraceSpec {
    TraceSpec {
        seed: sweep_spec(seed).seed,
        requests: REQUESTS,
        arrival: ArrivalProcess::Poisson { rate_per_s },
        prompt: PROMPT,
        output: OUTPUT,
        prefixes: Some(PREFIXES),
        priority_classes: PRIORITY_CLASSES,
    }
}

/// The strategy of passes (b) and (c): paged (16-token blocks) or
/// reserved, fifo.
pub fn cell_config(paged: bool) -> ServeConfig {
    let kv = if paged {
        KvSpec::paged(CELL_BLOCK)
    } else {
        KvSpec::reserved()
    };
    ServeConfig::new(1)
        .with_precision(Precision::Fp16)
        .with_slo(slo())
        .with_kv(kv)
        .with_scheduler(Scheduler::Fifo)
}

pub struct Inputs {
    cluster: ClusterSpec,
    model: Arc<ModelConfig>,
    spec: LoadSweepSpec,
    /// The sweep's trace at each of [`RATES`].
    traces: Vec<Vec<Request>>,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        Self {
            cluster: hw::presets::dgx_a100_hdr_cluster(),
            model: Arc::new(model::presets::llama2_7b()),
            spec: sweep_spec(seed),
            traces: RATES
                .iter()
                .map(|&rate| cell_spec(seed, rate).generate())
                .collect(),
        }
    }

    pub fn run(&self, kind: usize, t: &Tracer) -> Outcome {
        let start = Stopwatch::start();
        if kind == 0 {
            let report = t.span("load.sweep", || {
                load_sweep(&self.cluster, &self.model, &self.spec)
            });
            let json = t.span("report.json", || serde_json::to_string_pretty(&report));
            let secs = start.secs();
            let failures = t.span("check", || check_sweep(&report, &self.spec));
            let work = self.spec.requests * self.spec.rates.len() * self.spec.strategies.len();
            return Outcome::new(secs, work, json, failures);
        }
        let paged = kind == 1;
        let instance = t.span("serve.instance", || {
            ServeInstance::new(&self.cluster, Arc::clone(&self.model), cell_config(paged))
        });
        let instance = match instance {
            Ok(i) => i,
            Err(e) => return Outcome::error(start.secs(), e),
        };
        let mut reports = Vec::with_capacity(self.traces.len());
        let mut json = Ok(String::new());
        for trace in &self.traces {
            let report = match t.span("serve.simulate", || instance.simulate(trace)) {
                Ok(r) => r,
                Err(e) => return Outcome::error(start.secs(), e),
            };
            json = t.span("report.json", || {
                let mut all = json?;
                all.push_str(&serde_json::to_string_pretty(&report)?);
                all.push('\n');
                Ok(all)
            });
            reports.push(report);
        }
        let secs = start.secs();
        let failures = t.span("check", || {
            let mut failures = Vec::new();
            for (report, trace) in reports.iter().zip(&self.traces) {
                failures.extend(check_serve(report, trace.len()));
                match (&report.paging, paged) {
                    (Some(p), true) if !(0.0..=1.0).contains(&p.peak_block_utilization) => failures
                        .push(format!(
                            "peak block utilization {} above 1",
                            p.peak_block_utilization
                        )),
                    (None, true) => failures.push("paged cell reported no paging".to_owned()),
                    (Some(_), false) => failures.push("reserved cell reported paging".to_owned()),
                    _ => {}
                }
            }
            failures
        });
        Outcome::new(secs, REQUESTS * self.traces.len(), json, failures)
    }
}

/// Every strategy is feasible and every cell conserves its requests with
/// peak KV occupancy within the budget.
fn check_sweep(report: &LoadSweepReport, spec: &LoadSweepSpec) -> Vec<String> {
    let mut failures = Vec::new();
    if !report.infeasible.is_empty() || report.curves.len() != spec.strategies.len() {
        failures.push(format!(
            "{} of {} strategies ran",
            report.curves.len(),
            spec.strategies.len()
        ));
    }
    for curve in &report.curves {
        if curve.points.len() != spec.rates.len() {
            failures.push(format!("a curve has {} cells", curve.points.len()));
        }
        for p in &curve.points {
            if p.completed + p.rejected != spec.requests {
                failures.push(format!(
                    "cell at {} req/s, {}-token blocks: {} completed + {} rejected of {}",
                    p.offered_rate_per_s, p.block_tokens, p.completed, p.rejected, spec.requests
                ));
            }
            if !(0.0..=1.0).contains(&p.kv_peak_utilization) {
                failures.push(format!(
                    "cell at {} req/s, {}-token blocks: peak KV utilization {}",
                    p.offered_rate_per_s, p.block_tokens, p.kv_peak_utilization
                ));
            }
        }
    }
    failures
}
