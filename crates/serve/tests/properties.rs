//! Property tests of the continuous-batching scheduler's invariants,
//! sampled over random traffic shapes (seed, load, prompt/output
//! distributions, TP degree):
//!
//! * the KV reservation never exceeds the device budget;
//! * admission is FIFO — no request is admitted before an earlier arrival;
//! * TTFT ≤ end-to-end latency for every request;
//! * every completed request generates exactly its requested tokens, and
//!   every trace request is accounted for (completed or rejected).
//!
//! Each property samples its own scenario stream, so the suites together
//! cover more traffic shapes than any single test would.

use optimus_hw::presets;
use optimus_model::presets as models;
use optimus_serve::{
    ArrivalProcess, LengthDist, ServeConfig, ServeInstance, ServeReport, TraceSpec,
};
use optimus_units::Time;
use proptest::prelude::*;
use std::sync::Arc;

/// One sampled scenario, simulated on llama2-7b / DGX-A100.
fn run(scenario: Scenario) -> (TraceSpec, ServeReport) {
    let ((seed, requests, rate), (prompt, output, tp)) = scenario;
    let spec = TraceSpec {
        seed,
        requests,
        arrival: ArrivalProcess::Poisson { rate_per_s: rate },
        prompt,
        output,
        prefixes: None,
        priority_classes: 1,
    };
    let cluster = presets::dgx_a100_hdr_cluster();
    let report = ServeInstance::new(
        &cluster,
        Arc::new(models::llama2_7b()),
        ServeConfig::new(tp),
    )
    .and_then(|instance| instance.simulate(&spec.generate()))
    .expect("7B always fits an 80 GB device");
    (spec, report)
}

/// The sampled axes: (seed, request count, arrival rate spanning calm to
/// far beyond sustainable) and (prompt shape, output shape, TP degree).
type Scenario = ((u64, usize, f64), (LengthDist, LengthDist, usize));

fn scenario() -> impl Strategy<Value = Scenario> {
    let lengths = |hi_lo: usize, hi_hi: usize| {
        prop_oneof![
            (1usize..=hi_lo).prop_map(|tokens| LengthDist::Fixed { tokens }),
            (1usize..=hi_lo, hi_lo..=hi_hi).prop_map(|(lo, hi)| LengthDist::Uniform { lo, hi }),
        ]
    };
    (
        (
            0u64..1_000_000,
            1usize..24,
            prop_oneof![Just(0.2), Just(2.0), Just(50.0)],
        ),
        (
            lengths(128, 256),
            lengths(8, 24),
            prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The scheduler reserves a request's full KV footprint at admission
    /// and releases it at completion, so the tracked peak can never pass
    /// the budget.
    #[test]
    fn kv_budget_is_never_exceeded(s in scenario()) {
        let (_, report) = run(s);
        prop_assert!(
            report.kv.peak <= report.kv.budget,
            "peak KV {} exceeds budget {}",
            report.kv.peak,
            report.kv.budget
        );
        prop_assert!(report.kv.peak_utilization <= 1.0);
    }

    /// Admission is FIFO within memory limits: `per_request` is id-ordered
    /// and ids are arrival-ordered, so admission instants
    /// (arrival + queue_wait) must be monotone — no later arrival ever
    /// jumps the queue, and nothing starves behind a neighbor.
    #[test]
    fn admission_is_fifo(s in scenario()) {
        let (_, report) = run(s);
        for pair in report.per_request.windows(2) {
            let admitted = |m: &optimus_serve::RequestMetrics| m.arrival + m.queue_wait;
            prop_assert!(
                admitted(&pair[0]) <= admitted(&pair[1]),
                "request {} admitted after its successor {}",
                pair[0].id,
                pair[1].id
            );
        }
    }

    /// Per-request latency sanity: the first token precedes (or is) the
    /// last, nothing is free, and `ttft + (n-1)·tpot` reconstructs the
    /// end-to-end latency exactly.
    #[test]
    fn ttft_bounds_e2e(s in scenario()) {
        let (spec, report) = run(s);
        let trace = spec.generate();
        for m in &report.per_request {
            prop_assert!(m.ttft <= m.e2e, "request {}: ttft {} > e2e {}", m.id, m.ttft, m.e2e);
            prop_assert!(m.ttft > Time::ZERO, "a first token cannot be free");
            prop_assert!(m.queue_wait + m.prefill <= m.ttft);
            let requested = trace[m.id].output as usize;
            if let Some(tpot) = m.tpot {
                let rebuilt = m.ttft.secs() + tpot.secs() * (requested - 1) as f64;
                prop_assert!(
                    (rebuilt - m.e2e.secs()).abs() <= 1e-9 * m.e2e.secs().max(1.0),
                    "request {}: ttft/tpot do not reconstruct e2e",
                    m.id
                );
            } else {
                prop_assert_eq!(requested, 1, "tpot omitted only for single-token outputs");
            }
        }
    }

    /// Token and request conservation: every trace request either
    /// completes with exactly its requested output tokens or is rejected
    /// on arrival; iteration counts agree with both.
    #[test]
    fn tokens_and_requests_are_conserved(s in scenario()) {
        let (spec, report) = run(s);
        let trace = spec.generate();
        prop_assert_eq!(report.completed + report.rejected, report.requests);
        prop_assert_eq!(report.per_request.len(), report.completed);
        for m in &report.per_request {
            prop_assert_eq!(
                m.generated, trace[m.id].output as usize,
                "request {} generated {} of {} tokens",
                m.id, m.generated, trace[m.id].output
            );
        }
        let tokens: usize = report.per_request.iter().map(|m| m.generated).sum();
        prop_assert_eq!(tokens, report.generated_tokens);
        prop_assert_eq!(report.prefill_iterations, report.completed);
        prop_assert!(report.slo.met <= report.completed);
        prop_assert!(
            report.decode_iterations <= tokens.max(1),
            "decode iterations batch, never split"
        );
    }
}
