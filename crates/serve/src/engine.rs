//! The resumable per-replica event loop.
//!
//! [`ReplicaEngine`] is the continuous-batching scheduler of **one**
//! serving replica. It borrows the caller's trace and holds only `u32`
//! indices into it: in the list of requests routed to it, in its slots,
//! and in the work a crash hands back. The router in [`crate::fleet`]
//! drives every engine, the lone replica behind
//! [`crate::ServeInstance::simulate`] included, by interleaving
//! [`ReplicaEngine::push`] with [`ReplicaEngine::advance_to`], so a
//! state-aware policy observes live queue depth and outstanding work *at
//! each arrival instant* before deciding which replica receives the
//! request. That is exactly why the engine is steppable rather than
//! trace-split: the decision for request *n* depends on simulated state
//! that requests `0..n` produced. With nothing to observe (one replica,
//! or a stateless policy on a fault-free fleet) the router pushes every
//! request first and runs each engine out in one
//! [`ReplicaEngine::finish`].
//!
//! Stepping semantics: an iteration is indivisible and starts whenever
//! the previous one ends — a real server cannot consult future arrivals —
//! so `advance_to(t)` runs every iteration that *starts* before `t` and
//! may leave the clock past `t` (mid-iteration overshoot). An idle engine
//! never invents work: it jumps its clock forward only to the next queued
//! arrival within the target.

use crate::faults::EngineFaults;
use crate::report::ratio;
use crate::sim::{estimator_error, ServeError, ServeInstance, TraceBounds};
use crate::stats::LatencyAccumulator;
use crate::{
    LatencyStats, PagingReport, PreemptPolicy, QueueSample, Request, RequestMetrics, Scheduler,
    SloReport, SloSpec, MAX_QUEUE_SAMPLES,
};
use optimus_infer::LeasedPrices;
use optimus_units::{Bytes, Time};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// An admitted request's in-flight state (slot-arena entry, recycled at
/// completion).
struct Slot {
    /// Trace index of the admitted request.
    req: u32,
    admitted_s: f64,
    prefill_dur_s: f64,
    first_token_s: f64,
    reserved: Bytes,
    // Paged-mode state (unused under reserved KV).
    /// Prompt tokens the next prefill actually prices (the full prompt,
    /// minus any resident shared-prefix blocks skipped on a cache hit).
    prefill_tokens: usize,
    /// Private device blocks held (excludes refcounted prefix blocks).
    blocks: usize,
    /// Blocks borrowed from this request's resident prefix entry.
    shared_blocks: usize,
    /// Decode tokens produced when the request last joined the decode
    /// batch (reset to zero by a recompute preemption, preserved by a
    /// swap). A decoding member has produced `output − (due −
    /// decode_epoch)` tokens; the count is brought up to date only when it
    /// is preempted.
    generated: usize,
    /// The decode epoch this slot's completion falls due at; its calendar
    /// ring position is `due % calendar.len()`, so preemption can withdraw
    /// it in O(ring-slot).
    due: usize,
    /// The iteration this slot last joined the paged decode batch in, or
    /// [`NOT_DECODING`]. One request joins per iteration at most, so the
    /// stamp names one membership of the slot, and stamps grow in join
    /// order.
    joined: usize,
}

/// [`Slot::joined`] of a slot outside the paged decode batch.
const NOT_DECODING: usize = usize::MAX;

/// One membership of the paged decode batch, as the join-ordered batch
/// list and the block-growth ring file it: live while its slot's
/// [`Slot::joined`] still equals `joined`. A completion or preemption
/// resets that stamp, which turns every entry of the membership dead in
/// O(1).
#[derive(Clone, Copy)]
struct Member {
    slot: u32,
    joined: usize,
}

/// Streaming aggregation of completion events: latency accumulators plus
/// the scalar counters, and (when enabled) the per-request records.
pub(crate) struct CompletionSink {
    slo: SloSpec,
    records_on: bool,
    pub(crate) records: Vec<RequestMetrics>,
    ttft: LatencyAccumulator,
    tpot: LatencyAccumulator,
    e2e: LatencyAccumulator,
    pub(crate) completed: usize,
    pub(crate) generated_tokens: usize,
    met: usize,
    met_tokens: usize,
}

impl CompletionSink {
    pub(crate) fn new(slo: SloSpec, expected: usize, records_on: bool) -> Self {
        Self {
            slo,
            records_on,
            records: Vec::new(),
            ttft: LatencyAccumulator::for_population(expected),
            tpot: LatencyAccumulator::for_population(expected),
            e2e: LatencyAccumulator::for_population(expected),
            completed: 0,
            generated_tokens: 0,
            met: 0,
            met_tokens: 0,
        }
    }

    /// Folds one completed request, admitted into `slot`, into the
    /// aggregates.
    fn complete(&mut self, r: &Request, slot: &Slot, completed_s: f64) {
        let output = r.output as usize;
        let first = slot.first_token_s;
        let ttft = first - r.arrival_s;
        let e2e = completed_s - r.arrival_s;
        let tpot =
            (output > 1).then(|| Time::from_secs((completed_s - first) / (output - 1) as f64));
        let met_slo =
            Time::from_secs(ttft) <= self.slo.ttft && tpot.is_none_or(|t| t <= self.slo.tpot);
        self.ttft.record(Time::from_secs(ttft));
        self.e2e.record(Time::from_secs(e2e));
        if let Some(t) = tpot {
            self.tpot.record(t);
        }
        self.completed += 1;
        self.generated_tokens += output;
        if met_slo {
            self.met += 1;
            self.met_tokens += output;
        }
        if self.records_on {
            self.records.push(RequestMetrics {
                id: r.id as usize,
                prompt: r.prompt as usize,
                generated: output,
                arrival: Time::from_secs(r.arrival_s),
                queue_wait: Time::from_secs(slot.admitted_s - r.arrival_s),
                prefill: Time::from_secs(slot.prefill_dur_s),
                ttft: Time::from_secs(ttft),
                e2e: Time::from_secs(e2e),
                tpot,
                met_slo,
            });
        }
    }

    /// Folds `other`'s latency populations and counters into this sink;
    /// its records stay where they are.
    pub(crate) fn merge(&mut self, other: &Self) {
        self.ttft.merge(&other.ttft);
        self.tpot.merge(&other.tpot);
        self.e2e.merge(&other.e2e);
        self.completed += other.completed;
        self.generated_tokens += other.generated_tokens;
        self.met += other.met;
        self.met_tokens += other.met_tokens;
    }

    /// The figures a report derives from its completions over a run of
    /// `makespan_s` with the given decode counters: a replica's report
    /// from its own sink, a fleet's from its replicas' merged sinks.
    pub(crate) fn figures(
        &self,
        decode_iterations: usize,
        decode_batch_sum: usize,
        makespan_s: f64,
    ) -> SinkFigures {
        let per_s = |count: usize| ratio(count as f64, makespan_s);
        SinkFigures {
            tokens_per_s: per_s(self.generated_tokens),
            requests_per_s: per_s(self.completed),
            mean_decode_batch: ratio(decode_batch_sum as f64, decode_iterations as f64),
            ttft: self.ttft.finish(),
            tpot: self.tpot.finish(),
            e2e: self.e2e.finish(),
            slo: SloReport {
                spec: self.slo,
                met: self.met,
                attainment: if self.completed > 0 {
                    self.met as f64 / self.completed as f64
                } else {
                    1.0
                },
                goodput_tokens_per_s: per_s(self.met_tokens),
                goodput_requests_per_s: per_s(self.met),
            },
        }
    }
}

/// A report's throughput, latency and SLO figures ([`CompletionSink::figures`]).
pub(crate) struct SinkFigures {
    pub(crate) tokens_per_s: f64,
    pub(crate) requests_per_s: f64,
    pub(crate) mean_decode_batch: f64,
    pub(crate) ttft: LatencyStats,
    pub(crate) tpot: LatencyStats,
    pub(crate) e2e: LatencyStats,
    pub(crate) slo: SloReport,
}

/// Everything one engine hands to report assembly.
pub(crate) struct ReportInputs {
    pub(crate) sink: CompletionSink,
    pub(crate) makespan_s: f64,
    pub(crate) kv_peak: Bytes,
    pub(crate) prefill_iterations: usize,
    pub(crate) decode_iterations: usize,
    pub(crate) decode_batch_sum: usize,
    pub(crate) queue_area: f64,
    pub(crate) peak_waiting: usize,
    pub(crate) peak_decoding: usize,
    pub(crate) raw_samples: Vec<QueueSample>,
    /// Block/prefix/preemption accounting — `Some` exactly when the
    /// engine ran a paged [`crate::KvSpec`].
    pub(crate) paging: Option<PagingReport>,
}

/// One resident shared prefix in the device block pool, keyed in the
/// cache by [`crate::Prefix::id`]. Residency survives its last reference
/// (that is the cache) — eviction happens only when an allocation needs
/// the blocks, idle entries first in least-recently-used order, and
/// removes the entry.
struct PrefixEntry {
    blocks: usize,
    refs: usize,
    last_use: usize,
}

/// A ranked scheduler's key for one request: lower admits first, and
/// ties go to the earlier-queued request.
fn rank(scheduler: Scheduler, request: &Request) -> usize {
    match scheduler {
        Scheduler::Fifo => 0,
        Scheduler::Priority | Scheduler::PriorityPreempt => usize::from(request.priority),
        Scheduler::Sjf => request.prompt as usize + request.output as usize,
    }
}

/// The ranked schedulers' admission queue: positions in the engine's
/// assignment list, min-keyed by (rank, position). The minimum is the
/// best-ranked request and, among equal ranks, the earliest-queued one —
/// the pick of a linear `min_by_key` scan over the queue in arrival
/// order, at O(log n) per admission instead of O(n).
#[derive(Default)]
struct RankedQueue(BinaryHeap<Reverse<(usize, usize)>>);

impl RankedQueue {
    fn insert(&mut self, rank: usize, pos: usize) {
        self.0.push(Reverse((rank, pos)));
    }

    /// The next pick's position, left queued (it may not fit yet).
    fn peek(&self) -> Option<usize> {
        self.0.peek().map(|&Reverse((_, pos))| pos)
    }

    fn pop(&mut self) -> Option<usize> {
        self.0.pop().map(|Reverse((_, pos))| pos)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// Empties the queue, yielding its positions in no particular order.
    fn drain(&mut self) -> impl Iterator<Item = usize> + '_ {
        self.0.drain().map(|Reverse((_, pos))| pos)
    }
}

/// The work one crash hands back to the router: the drain instant and
/// every request the replica lost there.
pub(crate) struct Dropped {
    /// The replica's clock when the crash took effect.
    pub(crate) at_s: f64,
    /// The lost trace indices, in no particular order: the router puts
    /// them in trace order.
    pub(crate) lost: Vec<u32>,
}

/// One replica's resumable scheduler state. See the module docs for how
/// the router drives it.
pub(crate) struct ReplicaEngine<'i, 'a> {
    instance: &'i ServeInstance<'a>,
    trace: &'i [Request],
    budget: Bytes,

    // Completion ring: requests joining the decode batch with `n` output
    // tokens complete exactly `n` decode epochs later.
    calendar: Vec<Vec<u32>>,
    decode_epoch: usize,

    // The trace indices the router has assigned here, in push order.
    // `eff` runs parallel to `order` with the *effective*
    // (engine-observed, nondecreasing) arrival time: the original arrival
    // for first-routed requests, the requeue instant for requests
    // re-assigned after a crash. Metrics always use the request's own
    // `arrival_s`.
    order: Vec<u32>,
    eff: Vec<f64>,
    arrived: usize,      // order[..arrived] have arrived (eff ≤ clock)
    admit_cursor: usize, // order[admit_cursor..arrived] queue for FIFO admission
    assigned: usize,     // total assignments ever (a crash truncates `order`)
    // Ranked schedulers move every arrival past the cursor into here.
    ranked: RankedQueue,

    clock: f64,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    awaiting_prefill: VecDeque<u32>,
    pending_first: Vec<u32>,
    decoding_count: usize,
    ctx_sum: usize, // Σ (prompt + generated) over decoding
    sink: CompletionSink,

    reserved: Bytes,
    // Reserved KV only: the admission pick did not fit, and since then no
    // reservation was released and no request joined the ranked queue.
    // A failed reserved admission changes nothing, so until one of those
    // happens every retry would fail the same way, and `admit` skips it.
    // Paged KV never sets it: a failed paged attempt touches a prefix's
    // `last_use` and can evict idle prefixes.
    head_blocked: bool,
    kv_peak: Bytes,
    prefill_iterations: usize,
    decode_iterations: usize,
    decode_batch_sum: usize,
    queue_area: f64, // ∫ waiting dt
    peak_waiting: usize,
    peak_decoding: usize,
    // Queue-depth samples are thinned online (keep-every-other + stride
    // doubling once 2×MAX_QUEUE_SAMPLES accumulate), so memory stays
    // O(MAX_QUEUE_SAMPLES) however long the trace runs.
    raw_samples: Vec<QueueSample>,
    sample_stride: usize,
    iteration: usize,

    // Fault wiring (`None` on the fault-free path): the outage windows
    // the clock drains through, the router's availability cursor, and the
    // drops crashes have made since the router last collected them, one
    // per crash in drain order.
    faults: Option<EngineFaults>,
    slow_mult: f64,
    requeued: Vec<Dropped>,

    // --- scheduler and paged-KV state -----------------------------------
    // Everything from `policy` on stays empty or zero under reserved KV.
    paged: bool,
    scheduler: Scheduler,
    policy: PreemptPolicy,
    block_tokens: usize,
    total_blocks: usize,
    used_blocks: usize,
    peak_blocks: usize,
    // Recompute-preempted slots waiting to re-prefill, FIFO.
    preempted: VecDeque<u32>,
    // Swap-preempted slots parked on the host, FIFO.
    swapped: VecDeque<u32>,
    // Swapped slots whose blocks are re-allocated, each waiting for its
    // swap-in iteration (served before prefills).
    awaiting_swapin: VecDeque<u32>,
    // Decode-batch memberships in join order: the preemption victim
    // order. Completions and preemptions leave dead entries behind; the
    // latest-joined pick pops them off the back, and the list is compacted
    // once they outnumber the live members.
    active: Vec<Member>,
    // The block-growth ring, indexed by decode epoch: slot `e % len` holds
    // the members whose held blocks are full at epoch `e`, so that their
    // next token needs one more block. A member is filed at its join
    // epoch plus the room left in its blocks, and again `block_tokens`
    // epochs after each grant, but only at epochs before it completes.
    // That keeps every filing at most min(`block_tokens`, `max_kv`)
    // epochs ahead, and the ring is one slot longer.
    grow_ring: Vec<Vec<Member>>,
    /// The resident prefixes by id, so the cache holds what the pool
    /// holds, whatever ids the trace draws. The eviction pick's
    /// `(last_use, id)` key is unique, so the pick is deterministic.
    prefix_cache: BTreeMap<u32, PrefixEntry>,
    preemptions: usize,
    swap_outs: usize,
    swap_ins: usize,
    swap_bytes: Bytes,
    prefix_hits: usize,
    prefix_misses: usize,
    prefix_evictions: usize,
    cached_tokens_saved: usize,
    // Test-only switches to the reference implementations the fast paths
    // replaced: the per-member growth scan and the full calendar walk of
    // a crash drain.
    #[cfg(test)]
    reference_scan: bool,
    #[cfg(test)]
    reference_drain: bool,
    #[cfg(test)]
    growth_log: Vec<Growth>,
}

/// One block-growth event of a paged decode iteration: the decode epoch
/// it happened at and the trace index it happened to.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
enum Growth {
    Grant(usize, u32),
    Preempt(usize, u32),
}

impl<'i, 'a> ReplicaEngine<'i, 'a> {
    /// A fresh engine over `instance` that will be pushed indices into
    /// `trace`, sized by `bounds` (which must cover every admissible
    /// request of `trace`). The latency accumulators pick their
    /// exact/streaming regime from the *whole* trace length, so every
    /// replica of a fleet picks the same regime and their populations
    /// merge loss-free.
    pub(crate) fn new(
        instance: &'i ServeInstance<'a>,
        trace: &'i [Request],
        bounds: &TraceBounds,
        records_on: bool,
        faults: Option<EngineFaults>,
    ) -> Self {
        let ring_len = bounds.max_kv.max(1) + 1; // ≥ max_output + 1
        let slow_mult = faults.as_ref().map_or(1.0, |f| f.slow_mult);
        let config = instance.config();
        let paged = !config.kv.is_reserved();
        let grow_ring_len = if paged {
            config.kv.block_tokens.min(bounds.max_kv) + 1
        } else {
            0
        };
        Self {
            paged,
            scheduler: config.scheduler,
            policy: config.kv.policy,
            block_tokens: config.kv.block_tokens,
            total_blocks: if paged { instance.total_blocks() } else { 0 },
            used_blocks: 0,
            peak_blocks: 0,
            preempted: VecDeque::new(),
            swapped: VecDeque::new(),
            awaiting_swapin: VecDeque::new(),
            active: Vec::new(),
            grow_ring: vec![Vec::new(); grow_ring_len],
            prefix_cache: BTreeMap::new(),
            preemptions: 0,
            swap_outs: 0,
            swap_ins: 0,
            swap_bytes: Bytes::ZERO,
            prefix_hits: 0,
            prefix_misses: 0,
            prefix_evictions: 0,
            cached_tokens_saved: 0,
            instance,
            trace,
            budget: instance.kv_budget(),
            calendar: vec![Vec::new(); ring_len],
            decode_epoch: 0,
            order: Vec::new(),
            eff: Vec::new(),
            arrived: 0,
            admit_cursor: 0,
            assigned: 0,
            ranked: RankedQueue::default(),
            clock: 0.0,
            slots: Vec::new(),
            free_slots: Vec::new(),
            awaiting_prefill: VecDeque::new(),
            pending_first: Vec::new(),
            decoding_count: 0,
            ctx_sum: 0,
            sink: CompletionSink::new(config.slo, trace.len(), records_on),
            reserved: Bytes::ZERO,
            head_blocked: false,
            kv_peak: Bytes::ZERO,
            prefill_iterations: 0,
            decode_iterations: 0,
            decode_batch_sum: 0,
            queue_area: 0.0,
            peak_waiting: 0,
            peak_decoding: 0,
            raw_samples: Vec::new(),
            sample_stride: 1,
            iteration: 0,
            faults,
            slow_mult,
            requeued: Vec::new(),
            #[cfg(test)]
            reference_scan: false,
            #[cfg(test)]
            reference_drain: false,
            #[cfg(test)]
            growth_log: Vec::new(),
        }
    }

    /// Assigns trace request `req` to this replica at router-observed
    /// time `at_s`: its arrival when first routed; when requeued, the
    /// router's clock at the requeue — the drop instant, or later if the
    /// router had moved past it. The request keeps its own `arrival_s`
    /// for every metric; the engine first sees it at `at_s`, clamped so
    /// effective arrivals stay nondecreasing.
    pub(crate) fn push(&mut self, req: u32, at_s: f64) {
        let eff = self.eff.last().map_or(at_s, |&prev| prev.max(at_s));
        self.eff.push(eff);
        self.order.push(req);
        self.assigned += 1;
    }

    /// [`ReplicaEngine::push`] of every request in `reqs`, in order, all
    /// at `at_s`, as one append.
    pub(crate) fn push_all(&mut self, reqs: impl IntoIterator<Item = u32>, at_s: f64) {
        let eff = self.eff.last().map_or(at_s, |&prev| prev.max(at_s));
        let before = self.order.len();
        self.order.extend(reqs);
        self.eff.resize(self.order.len(), eff);
        self.assigned += self.order.len() - before;
    }

    /// The (trace index, effective arrival) of every request assigned
    /// here and not drained since, in push order.
    #[cfg(test)]
    pub(crate) fn assignments(&self) -> Vec<(u32, f64)> {
        self.order
            .iter()
            .copied()
            .zip(self.eff.iter().copied())
            .collect()
    }

    /// Whether the replica's outage schedule has it up at `t` — the
    /// router's skip-down-replicas query. `t` must be nondecreasing
    /// across calls (the router's clock is monotone).
    pub(crate) fn available(&mut self, t: f64) -> Result<bool, ServeError> {
        self.faults
            .as_mut()
            .map_or(Ok(true), |f| f.query.down_at(t).map(|down| !down))
    }

    /// The earliest instant ≥ `t` at which the replica's schedule has it
    /// up again.
    pub(crate) fn next_up(&mut self, t: f64) -> Result<f64, ServeError> {
        self.faults.as_mut().map_or(Ok(t), |f| f.query.next_up(t))
    }

    /// Takes the drops crashes have made since the last call, in drain
    /// order: each is one drain instant with its lost trace indices.
    pub(crate) fn take_requeued(&mut self) -> Vec<Dropped> {
        core::mem::take(&mut self.requeued)
    }

    /// Requests with **no compute yet**: routed but unadmitted (queued for
    /// KV space) plus admitted but still awaiting their prefill iteration.
    /// Under paged KV, preempted and swapped-out victims count too — they
    /// hold no device compute until re-admitted. After `advance_to(t)`,
    /// this is exactly the waiting population a join-shortest-queue router
    /// should see at time `t`.
    pub(crate) fn waiting(&self) -> usize {
        (self.order.len() - self.admit_cursor)
            + self.queued_backlog()
            + self.awaiting_prefill.len()
            + self.awaiting_swapin.len()
    }

    /// The queued-but-unserved population beyond the admission cursor:
    /// the ranked schedulers' queue plus preemption victims awaiting
    /// re-admission. Zero under reserved FIFO, whose backlog lives
    /// entirely behind `admit_cursor`.
    fn queued_backlog(&self) -> usize {
        self.ranked.len() + self.preempted.len() + self.swapped.len()
    }

    /// Requests routed to this replica and not yet completed — waiting or
    /// decoding. The least-outstanding router's load signal.
    pub(crate) fn outstanding(&self) -> usize {
        self.waiting() + self.decoding_count
    }

    /// Runs every iteration that starts before `target`, reading its
    /// price from `prices`, the run's table for the instance's TP and
    /// precision. On return either the clock has reached (or overshot)
    /// `target`, or the engine is idle with no queued arrival before
    /// `target`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Estimator`] when iteration pricing fails
    /// (unsupported precision), and [`ServeError::InvalidConfig`] when
    /// the outage schedule's uptimes fall below the clock's resolution.
    pub(crate) fn advance_to(
        &mut self,
        target: f64,
        prices: &mut LeasedPrices<'_, '_>,
    ) -> Result<(), ServeError> {
        loop {
            if self.faults.is_some() {
                self.process_outages()?;
            }
            self.catch_up_arrivals();
            self.admit();
            let pending_len = (self.arrived - self.admit_cursor) + self.queued_backlog();

            if self.awaiting_prefill.is_empty()
                && self.awaiting_swapin.is_empty()
                && self.decoding_count == 0
            {
                assert!(
                    pending_len == 0,
                    "an idle instance always admits the queue head"
                );
                if self.arrived >= self.order.len() {
                    return Ok(()); // idle, nothing queued: wait for pushes
                }
                let next = self.eff[self.arrived];
                if next > target {
                    return Ok(()); // next arrival is beyond the target
                }
                self.clock = self.clock.max(next);
                continue;
            }
            if self.clock >= target {
                return Ok(());
            }

            // The waiting population over this iteration: arrived but no
            // compute yet — whether blocked on KV admission or on a
            // prefill slot. The request prefilled (or swapped back in)
            // this very iteration stops waiting now, so it is not
            // counted; `peak_waiting` observes the same population as the
            // time-weighted mean.
            let serving_one = !self.awaiting_swapin.is_empty() || !self.awaiting_prefill.is_empty();
            let waiting_before =
                pending_len + self.awaiting_prefill.len() + self.awaiting_swapin.len()
                    - usize::from(serving_one);
            self.peak_waiting = self.peak_waiting.max(waiting_before);
            let dur = if let Some(idx) = self.awaiting_swapin.pop_front() {
                self.swap_in(idx)
            } else if let Some(idx) = self.awaiting_prefill.pop_front() {
                self.prefill(idx, prices)?
            } else {
                self.decode(prices)?
            };
            self.clock += dur;
            self.queue_area += waiting_before as f64 * dur;
            self.peak_decoding = self.peak_decoding.max(self.decoding_count);
            if self.iteration.is_multiple_of(self.sample_stride) {
                // The sample observes the *end* of the iteration, so it
                // must count every request that arrived while the
                // iteration ran — advance the arrival cursor to the new
                // clock before reading the waiting depth.
                self.catch_up_arrivals();
                self.raw_samples.push(QueueSample {
                    at: Time::from_secs(self.clock),
                    waiting: (self.arrived - self.admit_cursor)
                        + self.queued_backlog()
                        + self.awaiting_prefill.len()
                        + self.awaiting_swapin.len(),
                    decoding: self.decoding_count,
                });
                if self.raw_samples.len() >= 2 * MAX_QUEUE_SAMPLES {
                    let mut keep = 0;
                    self.raw_samples.retain(|_| {
                        keep += 1;
                        keep % 2 == 1
                    });
                    self.sample_stride *= 2;
                }
            }
            self.iteration += 1;
        }
    }

    /// Advances the arrival cursor over every assignment the clock has
    /// reached.
    fn catch_up_arrivals(&mut self) {
        while self.arrived < self.order.len() && self.eff[self.arrived] <= self.clock {
            self.arrived += 1;
        }
    }

    /// The request admitted into `slot`.
    fn request(&self, slot: u32) -> &'i Request {
        let trace = self.trace;
        &trace[self.slots[slot as usize].req as usize]
    }

    /// Stores a slot in the arena (recycling a freed index when one
    /// exists) and returns its index.
    fn alloc_slot(&mut self, slot: Slot) -> u32 {
        if let Some(free) = self.free_slots.pop() {
            self.slots[free as usize] = slot;
            free
        } else {
            self.slots.push(slot);
            u32::try_from(self.slots.len() - 1).expect("slot arena fits u32")
        }
    }

    // --- admission --------------------------------------------------------

    /// The admission round, one path for every scheduler and KV regime:
    /// free memory goes to (in order) swapped-out victims, recompute
    /// victims, and finally fresh requests in scheduler order — FIFO
    /// straight off the cursor range `order[admit_cursor..arrived]`, the
    /// ranked schedulers off their queue. Each stage is head-of-line
    /// blocked on its own queue, and victims outrank fresh admissions (the
    /// vLLM order, which keeps a victim's starvation bounded: it gets
    /// first claim on every block the batch that evicted it releases).
    fn admit(&mut self) {
        if self.paged {
            while let Some(&slot) = self.swapped.front() {
                if !self.stage_swap_in(slot) {
                    break;
                }
                self.swapped.pop_front();
            }
            while let Some(&slot) = self.preempted.front() {
                if !self.readmit_preempted(slot) {
                    break;
                }
                self.preempted.pop_front();
            }
        }
        if self.scheduler == Scheduler::Fifo {
            if self.head_blocked {
                return;
            }
            while self.admit_cursor < self.arrived {
                if !self.try_admit(self.order[self.admit_cursor]) {
                    break; // head-of-line: the cursor's request waits for memory
                }
                self.admit_cursor += 1;
            }
            return;
        }
        let trace = self.trace;
        for pos in self.admit_cursor..self.arrived {
            let request = &trace[self.order[pos] as usize];
            self.ranked.insert(rank(self.scheduler, request), pos);
            self.head_blocked = false; // the newcomer may be the new pick
        }
        self.admit_cursor = self.arrived;
        if self.head_blocked {
            return;
        }
        while let Some(pos) = self.ranked.peek() {
            if !self.try_admit(self.order[pos]) {
                break; // head-of-line: the pick waits for memory
            }
            self.ranked.pop();
        }
    }

    /// Tries to admit trace request `req`, allocating its KV (full
    /// reservation or prompt blocks, per the regime). `false` = the
    /// memory is not there yet. The router routes only requests that fit
    /// an idle replica, so an idle engine always admits its pick.
    fn try_admit(&mut self, req: u32) -> bool {
        let trace = self.trace;
        let request = &trace[req as usize];
        let (reserved, prefill_tokens, blocks, shared_blocks) = if self.paged {
            let Some((blocks, shared)) = self.alloc_prompt_blocks(request) else {
                return false;
            };
            let tokens = request.prompt as usize - shared * self.block_tokens;
            (Bytes::ZERO, tokens, blocks, shared)
        } else {
            let need = self.instance.reservation(request);
            if self.reserved + need > self.budget {
                self.head_blocked = true;
                return false;
            }
            self.reserved += need;
            self.kv_peak = self.kv_peak.max(self.reserved);
            (need, request.prompt as usize, 0, 0)
        };
        let slot = self.alloc_slot(Slot {
            req,
            admitted_s: self.clock,
            prefill_dur_s: 0.0,
            first_token_s: 0.0,
            reserved,
            prefill_tokens,
            blocks,
            shared_blocks,
            generated: 0,
            due: 0,
            joined: NOT_DECODING,
        });
        self.awaiting_prefill.push_back(slot);
        true
    }

    /// Tries to re-admit a recompute victim: its prompt's blocks are
    /// allocated afresh (through any still-resident prefix) and its
    /// re-prefill queued. The slot — and with it the request's original
    /// admission instant and any already-emitted first token — survives.
    fn readmit_preempted(&mut self, idx: u32) -> bool {
        let request = self.request(idx);
        let Some((blocks, shared)) = self.alloc_prompt_blocks(request) else {
            return false;
        };
        let s = &mut self.slots[idx as usize];
        s.blocks = blocks;
        s.shared_blocks = shared;
        s.prefill_tokens = request.prompt as usize - shared * self.block_tokens;
        self.awaiting_prefill.push_back(idx);
        true
    }

    /// Allocates the blocks a prompt needs before prefill, borrowing a
    /// resident prefix's blocks when the request carries one (taking a
    /// reference and counting the hit). Returns `(private, shared)`
    /// blocks, or `None` when the pool cannot cover the private need
    /// even after evicting idle prefixes.
    fn alloc_prompt_blocks(&mut self, request: &Request) -> Option<(usize, usize)> {
        let shared = self.borrow_prefix(request);
        let need = self.instance.blocks_for(request.prompt as usize) - shared;
        if !self.ensure_free(need) {
            self.unborrow_prefix(request, shared);
            return None;
        }
        self.alloc_blocks(need);
        if request.prefix.is_some() {
            if shared > 0 {
                self.prefix_hits += 1;
                self.cached_tokens_saved += shared * self.block_tokens;
            } else {
                self.prefix_misses += 1;
            }
        }
        Some((need, shared))
    }

    /// Takes a reference on the request's resident prefix entry (pinning
    /// it against eviction) and returns its block count — zero when the
    /// request carries no prefix or the entry is absent.
    fn borrow_prefix(&mut self, request: &Request) -> usize {
        let Some(e) = request
            .prefix
            .and_then(|p| self.prefix_cache.get_mut(&p.id))
        else {
            return 0;
        };
        e.refs += 1;
        e.last_use = self.iteration;
        e.blocks
    }

    /// Drops the reference [`ReplicaEngine::borrow_prefix`] or a donation
    /// took for a request holding `shared` blocks of its prefix (none when
    /// `shared` is 0): a referenced entry is never evicted, so it is
    /// still resident, and it stays so — that is the cache.
    fn unborrow_prefix(&mut self, request: &Request, shared: usize) {
        if shared == 0 {
            return;
        }
        let p = request.prefix.expect("shared blocks imply a prefix");
        let e = self
            .prefix_cache
            .get_mut(&p.id)
            .expect("a referenced prefix stays resident");
        debug_assert!(e.refs > 0, "prefix refs free exactly once");
        e.refs -= 1;
        e.last_use = self.iteration;
    }

    /// Tries to stage a swapped-out victim's return: re-allocate device
    /// blocks for its full context (prompt + progress so far) and queue
    /// its swap-in iteration.
    fn stage_swap_in(&mut self, idx: u32) -> bool {
        let request = self.request(idx);
        let ctx = request.prompt as usize + self.slots[idx as usize].generated;
        let shared = self.borrow_prefix(request);
        let need = self.instance.blocks_for(ctx) - shared;
        if !self.ensure_free(need) {
            self.unborrow_prefix(request, shared);
            return false;
        }
        self.alloc_blocks(need);
        let s = &mut self.slots[idx as usize];
        s.blocks = need;
        s.shared_blocks = shared;
        self.awaiting_swapin.push_back(idx);
        true
    }

    /// One swap-in iteration: the replica stalls while the victim's
    /// private blocks stream back over the egress link, then the victim
    /// rejoins the decode batch where it left off.
    fn swap_in(&mut self, idx: u32) -> f64 {
        let blocks = self.slots[idx as usize].blocks;
        self.swap_ins += 1;
        self.swap_bytes += self.instance.block_bytes() * blocks as f64;
        self.rejoin_decode(idx);
        self.instance.swap_seconds(blocks)
    }

    /// Puts a slot (back) into the decode batch: first token at the next
    /// decode epoch if none was emitted yet, completion when the
    /// remaining output fills. Under paged KV the member also files on
    /// the growth ring at the epoch its held blocks fill, unless it
    /// completes first.
    fn rejoin_decode(&mut self, idx: u32) {
        let (ctx, remaining, first_pending) = {
            let (r, s) = (self.request(idx), &self.slots[idx as usize]);
            (
                r.prompt as usize + s.generated,
                r.output as usize - s.generated,
                s.first_token_s == 0.0,
            )
        };
        self.decoding_count += 1;
        self.ctx_sum += ctx;
        if first_pending {
            self.pending_first.push(idx);
        }
        let due = self.decode_epoch + remaining;
        let ring_len = self.calendar.len();
        self.calendar[due % ring_len].push(idx);
        if self.paged {
            let member = Member {
                slot: idx,
                joined: self.iteration,
            };
            let s = &mut self.slots[idx as usize];
            s.due = due;
            s.joined = member.joined;
            // Admission and swap-in allocate ⌈ctx / block⌉ blocks, so
            // `room` < `block_tokens`.
            let room = (s.blocks + s.shared_blocks) * self.block_tokens - ctx;
            self.active.push(member);
            if room < remaining {
                self.file_growth(self.decode_epoch + room, member);
            }
        }
    }

    /// Files `member` on the growth ring at decode epoch `epoch`.
    fn file_growth(&mut self, epoch: usize, member: Member) {
        let ring_len = self.grow_ring.len();
        self.grow_ring[epoch % ring_len].push(member);
    }

    /// Whether `member` is still in the decode batch.
    fn is_live(&self, member: Member) -> bool {
        self.slots[member.slot as usize].joined == member.joined
    }

    /// Frees capacity for `need` more blocks, evicting idle
    /// (unreferenced) resident prefixes least-recently-used first.
    /// Returns `false` when the pool still cannot cover it.
    fn ensure_free(&mut self, need: usize) -> bool {
        if need > self.total_blocks {
            return false;
        }
        while self.total_blocks - self.used_blocks < need {
            let Some(victim) = self
                .prefix_cache
                .iter()
                .filter(|(_, e)| e.refs == 0)
                .min_by_key(|&(&id, e)| (e.last_use, id))
                .map(|(&id, _)| id)
            else {
                return false;
            };
            let evicted = self.prefix_cache.remove(&victim).expect("a cached id");
            self.used_blocks -= evicted.blocks;
            self.prefix_evictions += 1;
        }
        true
    }

    /// Takes `n` blocks from the pool (capacity must be ensured first).
    fn alloc_blocks(&mut self, n: usize) {
        self.used_blocks += n;
        debug_assert!(
            self.used_blocks <= self.total_blocks,
            "block pool overdrawn"
        );
        self.peak_blocks = self.peak_blocks.max(self.used_blocks);
    }

    /// Applies every outage window the clock has reached. Crashes take
    /// effect at iteration boundaries: a window the clock lands *inside*
    /// drains the replica — all incomplete work goes back to the router —
    /// and jumps the clock to the recovery instant; a window the clock
    /// has already passed (the outage fit inside one indivisible
    /// iteration, or the engine was idle across it with nothing assigned)
    /// is ridden through without a drain. Merged windows are disjoint, so
    /// the clock is up again at the recovery instant.
    fn process_outages(&mut self) -> Result<(), ServeError> {
        let Some(faults) = &mut self.faults else {
            return Ok(());
        };
        if faults.drain.down_at(self.clock)? {
            let recover = faults.drain.next_up(self.clock)?;
            self.drain_for_requeue();
            self.clock = recover;
        }
        Ok(())
    }

    /// Crash: every incomplete request — queued for admission, awaiting
    /// prefill, or mid-decode — is pulled back for the router to requeue
    /// with its original arrival time intact; partial decode progress is
    /// discarded. The lost requests leave as one [`Dropped`] at the
    /// current clock, unsorted: the admitted and preempted requests, then
    /// the ranked queue, then the backlog `order[admit_cursor..]` in push
    /// order. Completed history and cumulative counters survive; only
    /// in-flight state resets.
    fn drain_for_requeue(&mut self) {
        let mut lost: Vec<u32> = Vec::new();
        for &idx in &self.awaiting_prefill {
            lost.push(self.slots[idx as usize].req);
        }
        // The calendar holds exactly the `decoding_count` decoding members
        // (a preemption withdraws its victim), each due less than a ring's
        // length after the current epoch. So walk forward from the next
        // epoch and stop once all of them are collected: the walk costs
        // the longest remaining output, not the ring's `max_kv + 1` slots.
        let ring_len = self.calendar.len();
        let mut left = self.decoding_count;
        #[cfg(test)]
        if self.reference_drain {
            for due in &mut self.calendar {
                lost.extend(due.drain(..).map(|idx| self.slots[idx as usize].req));
            }
            left = 0;
        }
        // Bounded by the ring, so a miscount costs the full walk, not a hang.
        for epoch in self.decode_epoch + 1..self.decode_epoch + ring_len {
            if left == 0 {
                break;
            }
            let due = &mut self.calendar[epoch % ring_len];
            left -= due.len();
            lost.extend(due.drain(..).map(|idx| self.slots[idx as usize].req));
        }
        debug_assert_eq!(left, 0, "a decoding member is missing from the calendar");
        // Staged and parked preemption victims (paged KV only) and the
        // ranked queue go back to the router too.
        for &idx in self
            .awaiting_swapin
            .iter()
            .chain(self.preempted.iter())
            .chain(self.swapped.iter())
        {
            lost.push(self.slots[idx as usize].req);
        }
        let order = &self.order;
        lost.extend(self.ranked.drain().map(|pos| order[pos]));
        lost.extend_from_slice(&self.order[self.admit_cursor..]);
        self.awaiting_prefill.clear();
        self.awaiting_swapin.clear();
        self.preempted.clear();
        self.swapped.clear();
        self.active.clear();
        for growers in &mut self.grow_ring {
            growers.clear();
        }
        self.pending_first.clear();
        self.slots.clear();
        self.free_slots.clear();
        self.decoding_count = 0;
        self.ctx_sum = 0;
        self.reserved = Bytes::ZERO;
        self.head_blocked = false;
        // A crash wipes the device: the block pool and every cached
        // prefix die with it.
        self.used_blocks = 0;
        self.prefix_cache.clear();
        self.order.truncate(self.admit_cursor);
        self.eff.truncate(self.admit_cursor);
        self.arrived = self.admit_cursor;
        if lost.is_empty() {
            return;
        }
        self.requeued.push(Dropped {
            at_s: self.clock,
            lost,
        });
    }

    /// One prefill iteration of slot `idx`; returns its duration. Prices
    /// `prefill_tokens` — the full prompt, except on a prefix-cache hit,
    /// where the resident blocks' tokens are skipped.
    fn prefill(&mut self, idx: u32, prices: &mut LeasedPrices<'_, '_>) -> Result<f64, ServeError> {
        let tokens = self.slots[idx as usize].prefill_tokens;
        let base = prices.prefill(tokens).map_err(estimator_error)?;
        // `slow_mult` is 1.0 on the fault-free path (bitwise identity).
        let dur = base * self.slow_mult;
        self.slots[idx as usize].prefill_dur_s = dur;
        // Join the decode batch: first token next decode epoch, completion
        // `output` epochs out.
        self.rejoin_decode(idx);
        self.prefill_iterations += 1;
        if self.paged {
            self.donate_prefix(idx);
        }
        Ok(dur)
    }

    /// After a cache-miss prefill of a prefix-carrying request, donates
    /// the prefix's full blocks to the cache — an ownership transfer, so
    /// pool occupancy does not change. If a sibling miss donated first
    /// while this request queued for its prefill, dedupe: free the
    /// duplicate blocks and borrow the resident entry instead.
    fn donate_prefix(&mut self, idx: u32) {
        let (prefix, had_shared, private) = {
            let s = &self.slots[idx as usize];
            (self.request(idx).prefix, s.shared_blocks > 0, s.blocks)
        };
        let Some(p) = prefix else { return };
        if had_shared {
            return; // admitted through the resident entry: nothing to donate
        }
        let full = p.tokens.get() as usize / self.block_tokens;
        if full == 0 {
            return; // the prefix does not fill a single block
        }
        debug_assert!(private > full, "a prompt strictly outgrows its prefix");
        let duplicate = self.prefix_cache.contains_key(&p.id);
        let e = self.prefix_cache.entry(p.id).or_insert(PrefixEntry {
            blocks: full,
            refs: 0,
            last_use: 0,
        });
        e.refs += 1;
        e.last_use = self.iteration;
        let shared = e.blocks;
        let s = &mut self.slots[idx as usize];
        s.shared_blocks = shared;
        s.blocks -= shared;
        if duplicate {
            // Double miss: keep the sibling's resident copy, free ours.
            self.used_blocks -= shared;
        }
    }

    /// One decode iteration of the whole running batch; returns its
    /// duration (which paged swap-out preemptions lengthen by their
    /// transfer time).
    fn decode(&mut self, prices: &mut LeasedPrices<'_, '_>) -> Result<f64, ServeError> {
        let swap_out_s = if self.paged { self.grow_batch() } else { 0.0 };
        let batch = self.decoding_count;
        // A mixed batch is priced at its aggregate context: attention cost
        // is linear in total KV entries read, so batch × ⌈mean⌉ preserves
        // it while the GEMM terms see the true batch width. A decoding
        // member holds at most prompt + output − 1 tokens, so the context
        // stays below the trace's `max_kv`, and a run grows no row of the
        // table past `max_kv` entries.
        let kv_len = self.ctx_sum.div_ceil(batch);
        debug_assert!(
            kv_len < self.calendar.len(),
            "a decode context past the trace's max_kv"
        );
        let price = prices.decode(batch, kv_len).map_err(estimator_error)?;
        let dur = price * self.slow_mult + swap_out_s;
        self.decode_iterations += 1;
        self.decode_batch_sum += batch;
        let end = self.clock + dur;
        self.decode_epoch += 1;
        // Every member generates one token.
        self.ctx_sum += batch;
        for idx in self.pending_first.drain(..) {
            self.slots[idx as usize].first_token_s = end;
        }
        // Requests whose token quota fills this epoch complete, in join
        // order.
        let due_slot = self.decode_epoch % self.calendar.len();
        let done = core::mem::take(&mut self.calendar[due_slot]);
        for idx in done {
            let (r, slot) = (self.request(idx), &self.slots[idx as usize]);
            self.sink.complete(r, slot, end);
            self.reserved = self.reserved - slot.reserved;
            self.head_blocked = false;
            self.ctx_sum -= r.prompt as usize + r.output as usize;
            self.decoding_count -= 1;
            self.free_slots.push(idx);
            if self.paged {
                self.release_completed(idx);
            }
        }
        if self.active.len() > 2 * self.decoding_count {
            let slots = &self.slots;
            self.active
                .retain(|m| slots[m.slot as usize].joined == m.joined);
        }
        Ok(dur)
    }

    /// The paged decode's growth pass: every member whose next token
    /// crosses a block boundary gets one more block, in join order,
    /// preempting victims when the pool (after evicting idle prefixes)
    /// runs dry. Returns the summed swap-out transfer seconds charged to
    /// this iteration (zero under recompute).
    ///
    /// The members that need a block are exactly the live entries of this
    /// epoch's growth-ring slot, and the slot holds them in join order:
    /// the members refiled after a grant `block_tokens` epochs ago come
    /// first, in that epoch's drain order, and every join that lands on
    /// this epoch came later, because a join files less than
    /// `block_tokens` epochs ahead. So draining the slot in order grants
    /// the blocks, and picks the victims, of a scan over the whole batch
    /// in join order — at the cost of the members that grow.
    fn grow_batch(&mut self) -> f64 {
        #[cfg(test)]
        if self.reference_scan {
            return self.reference_grow_batch();
        }
        let epoch = self.decode_epoch;
        let ring_slot = epoch % self.grow_ring.len();
        let mut growers = core::mem::take(&mut self.grow_ring[ring_slot]);
        let mut swap_s = 0.0;
        for &member in &growers {
            // A preemption, earlier in this pass or before, leaves its
            // filing dead.
            while self.is_live(member) {
                if self.ensure_free(1) {
                    self.alloc_blocks(1);
                    let s = &mut self.slots[member.slot as usize];
                    s.blocks += 1;
                    let (refill, completes) = (epoch + self.block_tokens, s.due);
                    #[cfg(test)]
                    self.growth_log
                        .push(Growth::Grant(epoch, self.slots[member.slot as usize].req));
                    if refill < completes {
                        self.file_growth(refill, member);
                    }
                    break;
                }
                // Pool exhausted: preempt, then retry the grower unless it
                // was the pick. A batch of one always gets its block (its
                // own private and shared blocks are the only pinned ones
                // left), so the pass terminates with at least one
                // survivor.
                let victim = self.pick_victim();
                swap_s += self.preempt(victim);
            }
        }
        growers.clear();
        self.grow_ring[ring_slot] = growers;
        swap_s
    }

    /// The preemption victim among the live members. Under
    /// priority-preempt the least urgent member goes (highest priority
    /// value, latest-joined among ties); otherwise the latest-joined
    /// outright — the vLLM recompute order. The latter is popped off the
    /// batch list with the dead entries above it.
    fn pick_victim(&mut self) -> u32 {
        if self.scheduler == Scheduler::PriorityPreempt {
            return self
                .active
                .iter()
                .enumerate()
                .filter(|&(_, &m)| self.is_live(m))
                .max_by_key(|&(j, m)| (self.request(m.slot).priority, j))
                .expect("the growing member is live")
                .1
                .slot;
        }
        loop {
            let m = self.active.pop().expect("the growing member is live");
            if self.is_live(m) {
                return m.slot;
            }
        }
    }

    /// Preempts the live member in slot `idx`: its private blocks leave
    /// the device (freed under recompute, streamed to host under swap),
    /// its prefix reference drops, and it moves to the matching
    /// re-admission queue. Its batch entries turn dead. Returns the
    /// swap-out seconds charged.
    fn preempt(&mut self, idx: u32) -> f64 {
        let request = self.request(idx);
        let epoch = self.decode_epoch;
        let (blocks, shared, generated, due) = {
            let s = &mut self.slots[idx as usize];
            let out = (
                s.blocks,
                s.shared_blocks,
                request.output as usize - (s.due - epoch),
                s.due,
            );
            s.blocks = 0;
            s.shared_blocks = 0;
            s.joined = NOT_DECODING;
            out
        };
        #[cfg(test)]
        self.growth_log
            .push(Growth::Preempt(epoch, self.slots[idx as usize].req));
        self.used_blocks -= blocks;
        self.unborrow_prefix(request, shared);
        let ring_len = self.calendar.len();
        self.calendar[due % ring_len].retain(|&x| x != idx);
        self.pending_first.retain(|&x| x != idx);
        self.decoding_count -= 1;
        self.ctx_sum -= request.prompt as usize + generated;
        self.preemptions += 1;
        match self.policy {
            PreemptPolicy::Recompute => {
                // Progress is discarded; the whole prompt re-prefills.
                self.slots[idx as usize].generated = 0;
                self.preempted.push_back(idx);
                0.0
            }
            PreemptPolicy::Swap => {
                self.slots[idx as usize].generated = generated;
                self.swap_outs += 1;
                self.swap_bytes += self.instance.block_bytes() * blocks as f64;
                self.swapped.push_back(idx);
                self.instance.swap_seconds(blocks)
            }
        }
    }

    /// Returns a completed slot's blocks to the pool and drops its
    /// prefix reference; its batch entry turns dead. The prefix entry
    /// stays resident — that is the cache; it leaves only by eviction or
    /// a crash.
    fn release_completed(&mut self, idx: u32) {
        let request = self.request(idx);
        let (blocks, shared) = {
            let s = &mut self.slots[idx as usize];
            let out = (s.blocks, s.shared_blocks);
            s.blocks = 0;
            s.shared_blocks = 0;
            s.joined = NOT_DECODING;
            out
        };
        self.used_blocks -= blocks;
        self.unborrow_prefix(request, shared);
    }

    /// Drains every pushed request to completion, pricing from `prices`,
    /// and closes the queue-depth series at the engine's final clock.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Estimator`] when iteration pricing fails.
    pub(crate) fn finish(&mut self, prices: &mut LeasedPrices<'_, '_>) -> Result<(), ServeError> {
        self.advance_to(f64::INFINITY, prices)?;
        // The series must end at trace end: if the stride skipped the
        // final iteration, append the terminal (idle) observation.
        if self
            .raw_samples
            .last()
            .is_some_and(|s| s.at.secs() < self.clock)
        {
            self.raw_samples.push(QueueSample {
                at: Time::from_secs(self.clock),
                waiting: 0,
                decoding: 0,
            });
        }
        Ok(())
    }

    /// Consumes the engine into (requests ever assigned — requeues count
    /// each assignment, report inputs). Call after
    /// [`ReplicaEngine::finish`].
    pub(crate) fn into_parts(self) -> (usize, ReportInputs) {
        let paging = self.paged.then(|| PagingReport {
            block_tokens: self.block_tokens,
            total_blocks: self.total_blocks,
            peak_blocks: self.peak_blocks,
            peak_block_utilization: ratio(self.peak_blocks as f64, self.total_blocks as f64),
            preemptions: self.preemptions,
            swap_outs: self.swap_outs,
            swap_ins: self.swap_ins,
            swap_bytes: self.swap_bytes,
            prefix_hits: self.prefix_hits,
            prefix_misses: self.prefix_misses,
            prefix_evictions: self.prefix_evictions,
            cached_tokens_saved: self.cached_tokens_saved,
        });
        // Paged peak occupancy in bytes, so `KvUsage` stays comparable
        // across regimes.
        let kv_peak = if self.paged {
            self.instance.block_bytes() * self.peak_blocks as f64
        } else {
            self.kv_peak
        };
        (
            self.assigned,
            ReportInputs {
                sink: self.sink,
                makespan_s: self.clock,
                kv_peak,
                prefill_iterations: self.prefill_iterations,
                decode_iterations: self.decode_iterations,
                decode_batch_sum: self.decode_batch_sum,
                queue_area: self.queue_area,
                peak_waiting: self.peak_waiting,
                peak_decoding: self.peak_decoding,
                raw_samples: self.raw_samples,
                paging,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ArrivalProcess, FaultSpec, KvSpec, LengthDist, PrefixSpec, ServeConfig, TraceSpec,
    };
    use optimus_hw::presets;
    use optimus_model::presets as models;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// A run hands its price table back to the estimator, and the next
    /// lease of its TP and precision gets it warm: every priced prefill
    /// and decode entry equals the estimator's own price to the bit, and
    /// no decode row outgrows the trace's largest context.
    #[test]
    fn a_returned_table_holds_exact_prices_within_max_kv() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let instance = ServeInstance::new(
            &cluster,
            Arc::new(models::llama2_7b()),
            ServeConfig::new(1).with_kv(KvSpec::paged(16)),
        )
        .unwrap();
        let trace = TraceSpec {
            seed: 5,
            requests: 300,
            arrival: ArrivalProcess::Poisson { rate_per_s: 40.0 },
            prompt: LengthDist::Uniform { lo: 50, hi: 400 },
            output: LengthDist::Uniform { lo: 4, hi: 64 },
            prefixes: None,
            priority_classes: 1,
        }
        .generate();
        let bounds = TraceBounds::scan(&instance, &trace).unwrap();
        assert!(bounds.rejected.is_empty());
        let mut engine = ReplicaEngine::new(&instance, &trace, &bounds, false, None);
        for (req, r) in (0u32..).zip(&trace) {
            engine.push(req, r.arrival_s);
        }
        let mut prices = instance.lease_prices();
        engine.finish(&mut prices).unwrap();
        let priced = prices.priced();
        drop(prices);

        let table = instance.lease_prices();
        assert_eq!(table.priced(), priced, "the next lease gets the table warm");
        let (c, estimator) = (instance.config(), instance.estimator());
        let bits = |secs: f64| secs.to_bits();
        let mut prefills = 0;
        let row = table.prefill_row().iter().enumerate();
        for (tokens, &secs) in row.filter(|(_, p)| !p.is_nan()) {
            let exact = estimator.prefill_iteration(1, tokens, c.tp, c.precision);
            assert_eq!(bits(secs), bits(exact.unwrap().secs()), "prefill {tokens}");
            prefills += 1;
        }
        let mut decodes = 0;
        for (batch, row) in table.decode_rows().iter().enumerate() {
            assert!(
                row.len() <= bounds.max_kv + 1,
                "batch {batch}: {} entries",
                row.len()
            );
            for (kv_len, &secs) in row.iter().enumerate().filter(|(_, p)| !p.is_nan()) {
                let exact = estimator.decode_iteration(batch, kv_len, c.tp, c.precision);
                assert_eq!(
                    bits(secs),
                    bits(exact.unwrap().secs()),
                    "({batch}, {kv_len})"
                );
                decodes += 1;
            }
        }
        assert_eq!(prefills + decodes, priced);
        assert!(prefills > 1 && prefills <= engine.prefill_iterations);
        assert!(decodes > 1 && decodes <= engine.decode_iterations);
    }

    /// Regression: the prefix cache was a dense vector resized to the
    /// largest pool id drawn + 1, so one request carrying prefix id
    /// 999,999 made a million entries, and every eviction scanned them
    /// all. It holds the resident prefixes only: with ids spread up to
    /// 1,000,000 through a pool squeezed until prefixes are evicted, after
    /// every arrival each entry is a resident prefix holding blocks the
    /// pool counts as used.
    #[test]
    fn prefix_cache_holds_only_resident_prefixes() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let instance = ServeInstance::new(
            &cluster,
            Arc::new(models::llama2_7b()),
            ServeConfig::new(1).with_kv(KvSpec::paged(16)),
        )
        .unwrap();
        let trace = TraceSpec {
            seed: 9,
            requests: 400,
            arrival: ArrivalProcess::Poisson { rate_per_s: 50.0 },
            prompt: LengthDist::Uniform { lo: 20, hi: 200 },
            output: LengthDist::Uniform { lo: 4, hi: 32 },
            prefixes: Some(PrefixSpec {
                pool: 1_000_001,
                tokens: 64,
                rate: 1.0,
            }),
            priority_classes: 1,
        }
        .generate();
        assert!(trace.iter().any(|r| r.prefix.unwrap().id > 900_000));
        let bounds = TraceBounds::scan(&instance, &trace).unwrap();
        let mut engine = ReplicaEngine::new(&instance, &trace, &bounds, false, None);
        engine.total_blocks = 200;
        let mut prices = instance.lease_prices();
        let mut most = 0;
        for (req, r) in (0u32..).zip(&trace) {
            engine.advance_to(r.arrival_s, &mut prices).unwrap();
            engine.push(req, r.arrival_s);
            let resident = engine.prefix_cache.values().filter(|e| e.blocks > 0);
            assert_eq!(resident.count(), engine.prefix_cache.len(), "request {req}");
            let cached: usize = engine.prefix_cache.values().map(|e| e.blocks).sum();
            assert!(cached <= engine.used_blocks, "request {req}");
            most = most.max(engine.prefix_cache.len());
        }
        engine.finish(&mut prices).unwrap();
        assert_eq!(engine.sink.completed, trace.len());
        assert!(most > 1 && engine.prefix_evictions > 0, "{most} entries");
    }

    /// The linear scan the ranked queue replaced, kept as the reference:
    /// the first (earliest-queued) minimum of the scheduler's key over
    /// the queue in arrival order.
    fn scan_pick(scheduler: Scheduler, pending: &VecDeque<Request>) -> Option<usize> {
        match scheduler {
            Scheduler::Fifo => (!pending.is_empty()).then_some(0),
            Scheduler::Priority | Scheduler::PriorityPreempt => {
                (0..pending.len()).min_by_key(|&i| pending[i].priority)
            }
            Scheduler::Sjf => (0..pending.len())
                .min_by_key(|&i| pending[i].prompt as usize + pending[i].output as usize),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of arrivals, admission rounds that end in
        /// a head-of-line block (the pick's memory is not there yet) and
        /// crash drains: every pick of the ranked queue is the scan's
        /// pick, a blocked pick stays queued, and a drain hands back every
        /// queued position once. Keys come from tiny ranges, so `priority`
        /// and `sjf` both see many rank ties.
        #[test]
        fn ranked_queue_picks_what_the_scan_picked(
            events in proptest::collection::vec((0u8..8, 0u8..3, 1u32..4, 1u32..4), 0..240),
        ) {
            for scheduler in [Scheduler::Priority, Scheduler::Sjf, Scheduler::PriorityPreempt] {
                let mut queue = RankedQueue::default();
                let mut pending: VecDeque<Request> = VecDeque::new();
                // Queue positions only grow, across drains too, as the
                // engine's assignment list does; a request's id is its
                // position.
                let mut next_pos = 0;
                for &(event, priority, prompt, output) in &events {
                    match event {
                        0..=2 => {
                            let id = u32::try_from(next_pos).unwrap();
                            let r = Request::new(id, 0.0, prompt, output)
                                .with_priority(priority);
                            queue.insert(rank(scheduler, &r), next_pos);
                            pending.push_back(r);
                            next_pos += 1;
                        }
                        3..=6 => {
                            // `event - 3` admissions, then the block: the
                            // last pick stays queued.
                            let admits = usize::from(event - 3);
                            for admit in 0..=admits {
                                let expected = scan_pick(scheduler, &pending);
                                prop_assert_eq!(
                                    queue.peek(),
                                    expected.map(|i| pending[i].id as usize),
                                    "{scheduler}"
                                );
                                let Some(i) = expected else { break };
                                if admit < admits {
                                    prop_assert_eq!(queue.pop(), Some(pending[i].id as usize));
                                    pending.remove(i);
                                }
                            }
                        }
                        _ => {
                            let queued: Vec<usize> =
                                pending.drain(..).map(|r| r.id as usize).collect();
                            let mut drained: Vec<usize> = queue.drain().collect();
                            drained.sort_unstable();
                            prop_assert_eq!(drained, queued, "{scheduler}");
                            prop_assert_eq!(queue.len(), 0);
                        }
                    }
                    prop_assert_eq!(queue.len(), pending.len());
                }
            }
        }
    }

    impl ReplicaEngine<'_, '_> {
        /// The per-member growth scan the ring replaced, kept as the
        /// reference: every live member, in join order, checks whether its
        /// next token crosses a block boundary, and a member that cannot
        /// get its block preempts the scan's victim and looks again. The
        /// join order is rebuilt from the slots alone (join stamps grow in
        /// join order), so it does not lean on the batch list either.
        pub(super) fn reference_grow_batch(&mut self) -> f64 {
            let epoch = self.decode_epoch;
            let ring_slot = epoch % self.grow_ring.len();
            self.grow_ring[ring_slot].clear(); // nothing reads the ring here
            let mut active: Vec<u32> = (0u32..)
                .zip(&self.slots)
                .filter(|(_, s)| s.joined != NOT_DECODING)
                .map(|(idx, _)| idx)
                .collect();
            active.sort_by_key(|&idx| self.slots[idx as usize].joined);
            let mut swap_s = 0.0;
            let mut i = 0;
            while i < active.len() {
                let idx = active[i];
                let (held, ctx_next) = {
                    let (r, s) = (self.request(idx), &self.slots[idx as usize]);
                    let generated = r.output as usize - (s.due - epoch);
                    (
                        s.blocks + s.shared_blocks,
                        r.prompt as usize + generated + 1,
                    )
                };
                if self.instance.blocks_for(ctx_next) <= held {
                    i += 1;
                    continue;
                }
                if self.ensure_free(1) {
                    self.alloc_blocks(1);
                    self.slots[idx as usize].blocks += 1;
                    let req = self.slots[idx as usize].req;
                    self.growth_log.push(Growth::Grant(epoch, req));
                    i += 1;
                    continue;
                }
                let victim = if self.scheduler == Scheduler::PriorityPreempt {
                    (0..active.len())
                        .max_by_key(|&j| (self.request(active[j]).priority, j))
                        .expect("the growing member is active")
                } else {
                    active.len() - 1
                };
                swap_s += self.preempt(active.remove(victim));
                if victim < i {
                    i -= 1;
                }
            }
            swap_s
        }
    }

    /// Everything a growth run is compared on: its growth log, then its
    /// counters and final clock.
    type GrowthRun = (Vec<Growth>, [usize; 6], u64);

    /// Runs `trace` through `engine`, handing each crash's drops straight
    /// back to it at the drain instant in trace order, as a one-replica
    /// router would. Returns every drop: its drain instant's bits and its
    /// lost trace indices in trace order.
    fn drive(engine: &mut ReplicaEngine<'_, '_>, trace: &[Request]) -> Vec<(u64, Vec<u32>)> {
        let mut prices = engine.instance.lease_prices();
        let mut drops = Vec::new();
        let mut requeue = |engine: &mut ReplicaEngine<'_, '_>| {
            let taken = engine.take_requeued();
            let any = !taken.is_empty();
            for mut drop in taken {
                drop.lost.sort_unstable();
                for &req in &drop.lost {
                    engine.push(req, drop.at_s);
                }
                drops.push((drop.at_s.to_bits(), drop.lost));
            }
            any
        };
        for (req, r) in (0u32..).zip(trace) {
            engine.advance_to(r.arrival_s, &mut prices).unwrap();
            requeue(engine);
            engine.push(req, r.arrival_s);
        }
        let mut rounds = 0;
        loop {
            engine.finish(&mut prices).unwrap();
            if !requeue(engine) {
                break;
            }
            rounds += 1;
            assert!(rounds < 10_000, "the crash drains do not converge");
        }
        drops
    }

    /// Runs `trace` through one paged engine whose pool holds `pool`
    /// blocks (see [`drive`]).
    fn growth_run(
        instance: &ServeInstance<'_>,
        trace: &[Request],
        pool: usize,
        faults: Option<&FaultSpec>,
        reference: bool,
    ) -> GrowthRun {
        let bounds = TraceBounds::scan(instance, trace).unwrap();
        let wiring = faults.map(|f| EngineFaults::for_replica(f, 0).unwrap());
        let mut engine = ReplicaEngine::new(instance, trace, &bounds, false, wiring);
        engine.total_blocks = pool;
        engine.reference_scan = reference;
        drive(&mut engine, trace);
        let counters = [
            engine.sink.completed,
            engine.decode_iterations,
            engine.prefill_iterations,
            engine.preemptions,
            engine.peak_blocks,
            engine.prefix_evictions,
        ];
        (engine.growth_log, counters, engine.clock.to_bits())
    }

    const SCHEDULERS: [Scheduler; 4] = [
        Scheduler::Fifo,
        Scheduler::Priority,
        Scheduler::Sjf,
        Scheduler::PriorityPreempt,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The growth ring against the per-member scan it replaced, over
        /// random traces, block sizes, schedulers, preemption policies,
        /// prefix pools and crash drains, in a pool squeezed down to a
        /// few times the largest request's peak need so that preemption
        /// is common: every decode iteration grants blocks to, and
        /// preempts, the same members in the same order, and the runs end
        /// alike.
        #[test]
        fn growth_ring_replays_the_per_member_scan(
            seed in 1u64..10_000,
            requests in 20usize..120,
            rate in 5.0f64..200.0,
            prompt in (1usize..64, 0usize..240),
            output in (1usize..24, 0usize..120),
            block in prop_oneof![Just(1usize), Just(7usize), Just(16usize), Just(32usize), 1usize..48],
            scheduler in 0usize..4,
            swap in prop_oneof![Just(false), Just(true)],
            prefixes in (0u8..2, 1usize..4, 1usize..96, 0.0f64..1.0),
            priority_classes in 1u8..4,
            crashes in (0u8..2, 0u64..100, 0.5f64..8.0, 0.05f64..2.0),
            slack in 0usize..400,
        ) {
            let cluster = presets::dgx_a100_hdr_cluster();
            let policy = if swap { PreemptPolicy::Swap } else { PreemptPolicy::Recompute };
            let instance = ServeInstance::new(
                &cluster,
                Arc::new(models::llama2_7b()),
                ServeConfig::new(1)
                    .with_kv(KvSpec::paged(block).with_policy(policy))
                    .with_scheduler(SCHEDULERS[scheduler]),
            )
            .unwrap();
            let trace = TraceSpec {
                seed,
                requests,
                arrival: ArrivalProcess::Poisson { rate_per_s: rate },
                prompt: LengthDist::Uniform { lo: prompt.0, hi: prompt.0 + prompt.1 },
                output: LengthDist::Uniform { lo: output.0, hi: output.0 + output.1 },
                prefixes: (prefixes.0 == 1).then_some(PrefixSpec {
                    pool: prefixes.1,
                    tokens: prefixes.2,
                    rate: prefixes.3,
                }),
                priority_classes,
            }
            .generate();
            let peak = trace
                .iter()
                .map(|r| instance.blocks_for(r.prompt as usize + r.output as usize))
                .max()
                .unwrap();
            let pool = (peak + peak * slack / 100).min(instance.total_blocks());
            let faults = (crashes.0 == 1).then(|| FaultSpec::crashes(crashes.1, crashes.2, crashes.3));

            let ring = growth_run(&instance, &trace, pool, faults.as_ref(), false);
            let scan = growth_run(&instance, &trace, pool, faults.as_ref(), true);
            prop_assert!(ring.0.iter().any(|g| matches!(g, Growth::Grant(..))));
            for (i, (ring_event, scan_event)) in ring.0.iter().zip(&scan.0).enumerate() {
                prop_assert_eq!(ring_event, scan_event, "growth event {}", i);
            }
            prop_assert_eq!(ring.0.len(), scan.0.len());
            prop_assert_eq!(ring.1, scan.1);
            prop_assert_eq!(ring.2, scan.2);
        }
    }

    /// The bounded calendar walk of a crash drain against the walk over
    /// every calendar slot it replaced, kept as the reference: over the
    /// chaos shape (llama2-13b TP2, prompts 50..=400, outputs 8..=64, far
    /// past capacity, crashing every few seconds) under reserved KV and
    /// under 16-token paged KV with recompute and with swap preemption,
    /// every drain hands back the same requests at the same instant, and
    /// the runs end alike.
    #[test]
    fn crash_drains_collect_what_the_full_calendar_walk_collected() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_13b());
        let trace = TraceSpec {
            seed: 7,
            requests: 1000,
            arrival: ArrivalProcess::Poisson { rate_per_s: 300.0 },
            prompt: LengthDist::Uniform { lo: 50, hi: 400 },
            output: LengthDist::Uniform { lo: 8, hi: 64 },
            prefixes: None,
            priority_classes: 1,
        }
        .generate();
        let faults = FaultSpec::crashes(7, 4.0, 1.0);
        let paged = KvSpec::paged(16);
        for kv in [
            KvSpec::reserved(),
            paged,
            paged.with_policy(PreemptPolicy::Swap),
        ] {
            let instance = ServeInstance::new(
                &cluster,
                Arc::clone(&model),
                ServeConfig::new(2).with_kv(kv),
            )
            .unwrap();
            let run = |reference: bool| {
                let bounds = TraceBounds::scan(&instance, &trace).unwrap();
                let wiring = EngineFaults::for_replica(&faults, 0).unwrap();
                let mut engine =
                    ReplicaEngine::new(&instance, &trace, &bounds, false, Some(wiring));
                engine.reference_drain = reference;
                let drops = drive(&mut engine, &trace);
                let counters = [
                    engine.sink.completed,
                    engine.decode_iterations,
                    engine.preemptions,
                ];
                (drops, counters, engine.clock.to_bits())
            };
            let (walked, full) = (run(false), run(true));
            let lost: usize = walked.0.iter().map(|(_, lost)| lost.len()).sum();
            assert!(
                walked.0.len() > 10 && lost > 1000,
                "{kv:?}: {} drains",
                walked.0.len()
            );
            assert_eq!(walked.1[0], trace.len(), "{kv:?}");
            assert_eq!(walked, full, "{kv:?}");
        }
    }
}
