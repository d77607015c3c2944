//! The `sweep` workload: the 64-GPU llama2-13b training sweep plain (a)
//! and under the tiered-resilience stack (b), and the 8-GPU inference
//! sweep (c). Every pass builds a fresh `SweepEngine`, so its memo tables
//! start cold as in every CLI run, and ends with the frontier JSON that
//! `sweep --json --frontier-only` prints.

use crate::harness::{Kind, Outcome, Stopwatch};
use crate::tracer::Tracer;
use optimus::prelude::*;
use optimus_sweep::{SweepEngine, SweepReport, SweepSpace, Workload};

pub const KINDS: [Kind; 3] = [
    Kind {
        span: "pass.sweep_train",
        metric: "sweep_train_ms",
    },
    Kind {
        span: "pass.sweep_resilient",
        metric: "sweep_resilient_ms",
    },
    Kind {
        span: "pass.sweep_infer",
        metric: "sweep_infer_ms",
    },
];

pub const TRAIN_BATCH: usize = 64;
pub const TRAIN_SEQ: usize = 2048;

/// `--mtbf 10000 --restart 900 --failure-process weibull:0.7
/// --checkpoint-tiers peer,delta --elastic`, built in the CLI's order.
pub fn stacked_checkpoint() -> CheckpointSpec {
    let spec = CheckpointSpec::with_mtbf(10_000.0)
        .with_restart(900.0)
        .with_process(FailureProcess::Weibull { shape: 0.7 })
        .with_tiers(vec![CheckpointTier::peer(), CheckpointTier::delta()])
        .with_elastic(true)
        .with_rewarm(0.0)
        .with_repair(0.0);
    spec.validate()
        .expect("the CI smoke's resilience options are valid");
    spec
}

/// One pass kind's inputs plus the strategy count its space enumerates.
pub struct Case {
    pub workload: Workload,
    pub space: SweepSpace,
    pub checkpoint: CheckpointSpec,
    pub enumerated: usize,
}

pub struct Inputs {
    pub cluster: ClusterSpec,
    pub model: ModelConfig,
    /// Training, resilient training and inference, in [`KINDS`] order.
    pub cases: [Case; 3],
}

impl Inputs {
    /// The sweep has no random inputs; every seed gives the same passes.
    pub fn new() -> Self {
        let cluster = hw::presets::dgx_a100_hdr_cluster();
        let model = model::presets::llama2_13b();
        let case = |workload: Workload, max_gpus: usize, checkpoint: CheckpointSpec| {
            let space = SweepSpace::power_of_two(max_gpus);
            let enumerated = space
                .enumerate_with_memory(&model, &cluster, &workload)
                .len();
            Case {
                workload,
                space,
                checkpoint,
                enumerated,
            }
        };
        let cases = [
            case(
                Workload::training(TRAIN_BATCH, TRAIN_SEQ),
                64,
                CheckpointSpec::none(),
            ),
            case(
                Workload::training(TRAIN_BATCH, TRAIN_SEQ),
                64,
                stacked_checkpoint(),
            ),
            case(Workload::inference(1, 200, 200), 8, CheckpointSpec::none()),
        ];
        Self {
            cluster,
            model,
            cases,
        }
    }

    pub fn run(&self, kind: usize, t: &Tracer) -> Outcome {
        let case = &self.cases[kind];
        let start = Stopwatch::start();
        let engine = t.span("sweep.engine", || {
            SweepEngine::new(&self.cluster).with_checkpoint(case.checkpoint.clone())
        });
        let report = t.span("sweep.sweep", || {
            engine.sweep(&self.model, &case.workload, &case.space)
        });
        let json = t.span("report.json", || {
            serde_json::to_string_pretty(&report.frontier)
        });
        let secs = start.secs();
        let failures = t.span("check", || check(&report, case.enumerated));
        Outcome::new(secs, report.evaluated.len(), json, failures)
    }
}

/// Every enumerated strategy is either evaluated or rejected, the frontier
/// is drawn from the evaluated set, and every figure is finite and
/// positive.
fn check(report: &SweepReport, enumerated: usize) -> Vec<String> {
    let mut failures = Vec::new();
    let accounted = report.evaluated.len() + report.rejected.len();
    if accounted != enumerated {
        failures.push(format!(
            "{accounted} strategies evaluated or rejected, {enumerated} enumerated"
        ));
    }
    if report.frontier.is_empty() {
        failures.push("empty frontier".to_owned());
    }
    if let Some(p) = report
        .frontier
        .iter()
        .find(|p| !report.evaluated.contains(p))
    {
        failures.push(format!("frontier point {} was not evaluated", p.point));
    }
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if let Some(p) = report.evaluated.iter().find(|p| {
        !(positive(p.latency.secs()) && positive(p.cost_usd) && positive(p.energy.joules()))
    }) {
        failures.push(format!(
            "strategy {} has latency {} s, cost {} USD, energy {} J",
            p.point,
            p.latency.secs(),
            p.cost_usd,
            p.energy.joules()
        ));
    }
    failures
}
