//! Serving-simulation reports: latency percentiles, throughput, queue
//! dynamics, KV occupancy, and SLO goodput.

use crate::{PagingReport, Scheduler};
use optimus_units::{Bytes, Time};
use serde::{Deserialize, Serialize};

/// A latency service-level objective over the two serving-visible latency
/// components.
///
/// A request **meets** the SLO when its TTFT is within [`SloSpec::ttft`]
/// and its mean TPOT is within [`SloSpec::tpot`] (requests generating a
/// single token have no inter-token gaps, so the TPOT clause is vacuously
/// met).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Time-to-first-token target: arrival → first generated token.
    pub ttft: Time,
    /// Time-per-output-token target: mean gap between generated tokens.
    pub tpot: Time,
}

impl Default for SloSpec {
    /// An interactive-chat-style objective: first token within 2 s, then
    /// at least 10 tokens/s sustained.
    fn default() -> Self {
        Self {
            ttft: Time::from_secs(2.0),
            tpot: Time::from_millis(100.0),
        }
    }
}

/// Order statistics of one latency population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LatencyStats {
    /// Population size the statistics were computed over.
    pub count: usize,
    /// Median.
    pub p50: Time,
    /// 90th percentile.
    pub p90: Time,
    /// 99th percentile.
    pub p99: Time,
    /// Arithmetic mean.
    pub mean: Time,
    /// Maximum.
    pub max: Time,
}

impl LatencyStats {
    /// Nearest-rank order statistics of `values` (all zeros when empty).
    ///
    /// Selection runs in O(n) per percentile via `select_nth_unstable` on
    /// one scratch buffer instead of a full O(n log n) sort; the order
    /// statistics are identical to the sorted definition. The mean
    /// accumulates in input order (the sorted-order sum it replaced could
    /// differ in the last ulp).
    #[must_use]
    pub fn from_times(values: &[Time]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let n = values.len();
        let mut scratch = values.to_vec();
        let mut rank = |q: f64| {
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            *scratch.select_nth_unstable(idx).1
        };
        let (p50, p90, p99) = (rank(0.50), rank(0.90), rank(0.99));
        let sum: f64 = values.iter().map(|t| t.secs()).sum();
        Self {
            count: n,
            p50,
            p90,
            p99,
            mean: Time::from_secs(sum / n as f64),
            max: *values.iter().max().expect("non-empty"),
        }
    }
}

/// One queue-depth observation at an iteration boundary.
///
/// `waiting` counts every request that has arrived but received **no
/// compute yet** — both requests queued for admission (no KV space) and
/// requests admitted but still awaiting their prefill iteration (no free
/// step). Compute-bound saturation therefore shows up here even when the
/// KV budget admits everything instantly. The request receiving its
/// prefill in an iteration is *not* waiting, and a sample taken at an
/// iteration's end counts requests that arrived while the iteration ran;
/// [`QueueStats::peak_waiting`] and [`QueueStats::mean_waiting`] observe
/// this same population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueSample {
    /// Simulation time of the observation.
    pub at: Time,
    /// Arrived requests with no compute yet (admission queue + prefill
    /// backlog).
    pub waiting: usize,
    /// Requests actively decoding (the continuous batch).
    pub decoding: usize,
}

/// Queue dynamics over the whole run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct QueueStats {
    /// Largest waiting population observed (see [`QueueSample::waiting`]).
    pub peak_waiting: usize,
    /// Time-weighted mean waiting population.
    pub mean_waiting: f64,
    /// Largest concurrent decode batch.
    pub peak_decoding: usize,
    /// Down-sampled depth-over-time series (at most
    /// [`crate::MAX_QUEUE_SAMPLES`] evenly spaced iteration boundaries).
    pub samples: Vec<QueueSample>,
}

/// KV-cache accounting over the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KvUsage {
    /// Per-device weight bytes (static).
    pub weights: Bytes,
    /// Per-device KV budget: device capacity minus weights.
    pub budget: Bytes,
    /// Peak per-device KV reservation observed.
    pub peak: Bytes,
    /// `peak / budget`.
    pub peak_utilization: f64,
}

/// Goodput under the configured SLO.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// The objective evaluated.
    pub spec: SloSpec,
    /// Completed requests meeting both SLO clauses.
    pub met: usize,
    /// Fraction of completed requests meeting the SLO (1.0 when nothing
    /// completed).
    pub attainment: f64,
    /// Generated tokens of SLO-meeting requests per second of makespan.
    pub goodput_tokens_per_s: f64,
    /// SLO-meeting requests per second of makespan.
    pub goodput_requests_per_s: f64,
}

/// Per-request accounting, in arrival (id) order over admitted requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestMetrics {
    /// Trace id (arrival order).
    pub id: usize,
    /// Prompt tokens.
    pub prompt: usize,
    /// Generated tokens (equals the trace's requested output length).
    pub generated: usize,
    /// Arrival time.
    pub arrival: Time,
    /// Arrival → admission (KV reservation granted).
    pub queue_wait: Time,
    /// Duration of the request's prefill iteration.
    pub prefill: Time,
    /// Arrival → end of the iteration producing the first generated token.
    pub ttft: Time,
    /// Arrival → completion.
    pub e2e: Time,
    /// Mean inter-token gap after the first token; `None` for single-token
    /// outputs (no gaps exist).
    pub tpot: Option<Time>,
    /// Whether the request met the SLO.
    pub met_slo: bool,
}

/// The complete outcome of one serving simulation.
///
/// Serialization note: the `scheduler` and `paging` sections are
/// **omitted** (not `null`) when absent, so reports from the legacy
/// FIFO + reserved-KV regime stay byte-identical to reports from before
/// paging and schedulers existed (pinned by the golden-report tests,
/// the same discipline as [`crate::FaultSpec::none`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Model name.
    pub model: String,
    /// Cluster name.
    pub cluster: String,
    /// Tensor-parallel degree of the serving instance.
    pub tp: usize,
    /// Serving precision.
    pub precision: optimus_hw::Precision,
    /// Requests in the trace.
    pub requests: usize,
    /// Requests that ran to completion.
    pub completed: usize,
    /// Requests rejected on arrival (their lone KV reservation exceeds the
    /// whole budget — they could never be admitted).
    pub rejected: usize,
    /// Trace ids of rejected requests.
    pub rejected_ids: Vec<usize>,
    /// Simulation end: completion time of the last request.
    pub makespan: Time,
    /// Tokens generated across all completed requests.
    pub generated_tokens: usize,
    /// Sustained generation throughput: generated tokens / makespan.
    pub tokens_per_s: f64,
    /// Sustained request throughput: completed requests / makespan.
    pub requests_per_s: f64,
    /// Prefill iterations executed.
    pub prefill_iterations: usize,
    /// Decode iterations executed.
    pub decode_iterations: usize,
    /// Mean decode-batch size across decode iterations.
    pub mean_decode_batch: f64,
    /// Time-to-first-token statistics over completed requests.
    pub ttft: LatencyStats,
    /// Time-per-output-token statistics (multi-token requests only).
    pub tpot: LatencyStats,
    /// End-to-end latency statistics over completed requests.
    pub e2e: LatencyStats,
    /// Queue dynamics.
    pub queue: QueueStats,
    /// KV-cache accounting.
    pub kv: KvUsage,
    /// Goodput under the configured SLO.
    pub slo: SloReport,
    /// Per-request records, id order (rejected requests excluded).
    pub per_request: Vec<RequestMetrics>,
    /// The admission scheduler, when it is not the legacy FIFO.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scheduler: Option<Scheduler>,
    /// Paged-KV accounting, when the instance ran a paged
    /// [`crate::KvSpec`]; absent under the legacy full reservation.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub paging: Option<PagingReport>,
}

impl core::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "served {}/{} requests ({} rejected) in {}  |  {:.1} tok/s, {:.2} req/s",
            self.completed,
            self.requests,
            self.rejected,
            self.makespan,
            self.tokens_per_s,
            self.requests_per_s
        )?;
        write_latency_lines(f, &self.ttft, &self.tpot, &self.e2e)?;
        writeln!(
            f,
            "  queue  peak {} waiting / {} decoding, mean waiting {:.2}",
            self.queue.peak_waiting, self.queue.peak_decoding, self.queue.mean_waiting
        )?;
        writeln!(
            f,
            "  kv     peak {} of {} budget ({:.1}% util; weights {})",
            self.kv.peak,
            self.kv.budget,
            self.kv.peak_utilization * 100.0,
            self.kv.weights
        )?;
        write_slo_line(f, &self.slo, self.completed)?;
        if let Some(scheduler) = &self.scheduler {
            write!(f, "\n  sched  {scheduler}")?;
        }
        if let Some(paging) = &self.paging {
            write!(f, "\n  paged  {paging}")?;
        }
        Ok(())
    }
}

/// `part / whole`, or 0 unless `whole` is positive: a report's rates,
/// means and fractions over a run, population or budget that may be empty.
pub(crate) fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Writes the `ttft`, `tpot` and `e2e` percentile lines of a text
/// report, each ending in a newline.
pub(crate) fn write_latency_lines(
    f: &mut core::fmt::Formatter<'_>,
    ttft: &LatencyStats,
    tpot: &LatencyStats,
    e2e: &LatencyStats,
) -> core::fmt::Result {
    for (name, s) in [("ttft", ttft), ("tpot", tpot), ("e2e", e2e)] {
        writeln!(
            f,
            "  {name:<6} p50 {:>10}  p90 {:>10}  p99 {:>10}  mean {:>10}  max {:>10}",
            s.p50.to_string(),
            s.p90.to_string(),
            s.p99.to_string(),
            s.mean.to_string(),
            s.max.to_string()
        )?;
    }
    Ok(())
}

/// Writes the `slo` line of a text report over `completed` requests,
/// with no newline.
pub(crate) fn write_slo_line(
    f: &mut core::fmt::Formatter<'_>,
    slo: &SloReport,
    completed: usize,
) -> core::fmt::Result {
    write!(
        f,
        "  slo    ttft ≤ {}, tpot ≤ {}: {}/{} met ({:.1}%), goodput {:.1} tok/s",
        slo.spec.ttft,
        slo.spec.tpot,
        slo.met,
        completed,
        slo.attainment * 100.0,
        slo.goodput_tokens_per_s
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_nearest_rank() {
        let times: Vec<Time> = (1..=100).map(|i| Time::from_millis(f64::from(i))).collect();
        let s = LatencyStats::from_times(&times);
        assert_eq!(s.count, 100);
        assert!((s.p50.millis() - 50.0).abs() < 1e-9);
        assert!((s.p90.millis() - 90.0).abs() < 1e-9);
        assert!((s.p99.millis() - 99.0).abs() < 1e-9);
        assert!((s.max.millis() - 100.0).abs() < 1e-9);
        assert!((s.mean.millis() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn latency_stats_of_empty_population_are_zero() {
        let s = LatencyStats::from_times(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, Time::ZERO);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = LatencyStats::from_times(&[Time::from_millis(7.0)]);
        assert_eq!(s.p50, s.p99);
        assert_eq!(s.p50, s.max);
    }
}
