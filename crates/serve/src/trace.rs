//! Synthetic request traces: seeded arrival processes and length
//! distributions.
//!
//! A [`TraceSpec`] is a compact, serializable description of a request
//! stream; [`TraceSpec::generate`] expands it into a concrete
//! arrival-ordered [`Request`] list using one seeded [`StdRng`] stream, so
//! the same spec always yields byte-identical traces on every platform and
//! thread count.

use crate::MAX_TRACE_REQUESTS;
use core::num::NonZeroU32;
use rand::distributions::{Distribution, Exp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How interarrival gaps are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// A Poisson process: exponential interarrival gaps with the given
    /// rate (requests per second). The open-system model of "heavy traffic
    /// from millions of users".
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_per_s: f64,
    },
    /// Deterministic, evenly spaced arrivals — the closed-form regime used
    /// by the validation tests (no queueing randomness at all).
    Fixed {
        /// Gap between consecutive arrivals, seconds.
        interval_s: f64,
    },
}

impl ArrivalProcess {
    /// The gap sampler of one trace: a Poisson process builds its
    /// exponential once, not once per request.
    fn gaps(self) -> impl Fn(&mut StdRng) -> f64 {
        let (exp, interval_s) = match self {
            Self::Poisson { rate_per_s } => (Some(Exp::new(rate_per_s)), 0.0),
            Self::Fixed { interval_s } => (None, interval_s),
        };
        move |rng| exp.map_or(interval_s, |exp| exp.sample(rng))
    }
}

/// A token-length distribution for prompts or outputs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LengthDist {
    /// Every request uses exactly this many tokens.
    Fixed {
        /// The length in tokens.
        tokens: usize,
    },
    /// Uniform over `lo..=hi` tokens.
    Uniform {
        /// Smallest length, inclusive.
        lo: usize,
        /// Largest length, inclusive.
        hi: usize,
    },
}

impl LengthDist {
    /// Largest length the distribution can draw.
    #[must_use]
    pub fn max_tokens(&self) -> usize {
        match *self {
            Self::Fixed { tokens } => tokens,
            Self::Uniform { hi, .. } => hi,
        }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        match *self {
            Self::Fixed { tokens } => tokens,
            Self::Uniform { lo, hi } => rng.gen_range(lo..=hi),
        }
    }

    fn validate(&self, what: &str) -> Result<(), String> {
        match *self {
            Self::Fixed { tokens } => ensure(tokens > 0, format!("{what} length must be positive")),
            Self::Uniform { lo, hi } => ensure(
                lo > 0 && lo <= hi,
                format!("{what} range must satisfy 0 < lo <= hi"),
            ),
        }
    }
}

/// A shared prompt prefix carried by a request: which pool entry, and how
/// many of the request's prompt tokens it covers. Both fit 32 bits, as a
/// [`Request`]'s lengths do, and a prefix covers at least one token, so
/// `Option<Prefix>` takes 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prefix {
    /// Pool entry id (stable across the trace: two requests with the same
    /// id share the same prefix tokens). A pool holds at most 2^32
    /// entries.
    pub id: u32,
    /// Leading prompt tokens the prefix covers (`< prompt`).
    pub tokens: NonZeroU32,
}

/// One request of the trace, fully determined at generation time (the
/// output length stands in for the stopping point the real model would
/// choose).
///
/// Token lengths are `u32`s: a request's prompt plus output stays within
/// `u32::MAX` tokens (see [`TraceSpec::validate`]). Readers widen a
/// length to `usize` before any token arithmetic. The type is 32 bytes,
/// so a million-request trace takes 32 MB.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// The caller's label for the request: [`TraceSpec::generate`] numbers
    /// requests 0..n in arrival order, but the simulator only reports it
    /// and never lets it steer a run.
    pub id: u32,
    /// Arrival time in seconds since the simulation epoch.
    pub arrival_s: f64,
    /// Prompt length in tokens.
    pub prompt: u32,
    /// Requested output length in tokens (≥ 1).
    pub output: u32,
    /// Scheduling class: lower is more urgent, `0` (the default) is the
    /// most urgent. Only priority-aware [`crate::Scheduler`]s read it.
    pub priority: u8,
    /// The shared prompt prefix, if the request carries one. Under a
    /// paged [`crate::KvSpec`] a resident prefix's full blocks are shared
    /// (refcounted) and its tokens skip prefill; under the reserved
    /// regime prefixes are ignored.
    pub prefix: Option<Prefix>,
}

// A million-request trace is then 32,000,000 bytes: under glibc's 32 MiB
// ceiling for its dynamic mmap threshold, so a repeated set-up reuses heap
// pages instead of faulting in a fresh mapping.
const _: () = assert!(core::mem::size_of::<Request>() == 32);

impl Request {
    /// A plain request: default priority, no shared prefix.
    #[must_use]
    pub fn new(id: u32, arrival_s: f64, prompt: u32, output: u32) -> Self {
        Self {
            id,
            arrival_s,
            prompt,
            output,
            priority: 0,
            prefix: None,
        }
    }

    /// Sets the scheduling class (lower = more urgent).
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

/// A pool of shared prompt prefixes — the conversational / few-shot
/// system-prompt workload shape. Each generated request independently
/// carries one of `pool` fixed prefixes with probability `rate`; its
/// drawn prompt length becomes the *novel suffix*, so a prefixed
/// request's total prompt is `tokens + suffix`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefixSpec {
    /// Distinct shared prefixes in the pool, at most 2^32 (a
    /// [`Prefix::id`] is a `u32`).
    pub pool: usize,
    /// Tokens per prefix.
    pub tokens: usize,
    /// Probability a request carries a pool prefix.
    pub rate: f64,
}

/// `Ok` when `ok` holds, else the `reason`.
pub(crate) fn ensure(ok: bool, reason: impl Into<String>) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(reason.into())
    }
}

/// Rejects a trace length past [`MAX_TRACE_REQUESTS`].
pub(crate) fn check_trace_len(len: usize) -> Result<(), String> {
    ensure(
        len <= MAX_TRACE_REQUESTS,
        format!("a trace holds at most {MAX_TRACE_REQUESTS} requests, got {len}"),
    )
}

/// A token count [`TraceSpec::validate`] has bounded, as a [`Request`]
/// field.
fn tokens(count: usize) -> u32 {
    u32::try_from(count).expect("validate caps every context at u32::MAX tokens")
}

/// A seeded synthetic workload: arrival process plus prompt/output length
/// distributions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// RNG seed; same seed ⇒ byte-identical trace.
    pub seed: u64,
    /// Number of requests in the trace.
    pub requests: usize,
    /// Interarrival process.
    pub arrival: ArrivalProcess,
    /// Prompt-length distribution. With an active [`TraceSpec::prefixes`]
    /// pool, the draw is the *novel suffix* of prefixed requests.
    pub prompt: LengthDist,
    /// Output-length distribution.
    pub output: LengthDist,
    /// Shared-prefix pool; `None` (the default) draws exactly the streams
    /// this spec drew before prefixes existed.
    pub prefixes: Option<PrefixSpec>,
    /// Scheduling classes drawn uniformly per request; `1` (the default)
    /// leaves every request at priority 0 without consuming RNG words.
    pub priority_classes: u8,
}

impl TraceSpec {
    /// A Poisson stream of `requests` requests at `rate_per_s`, with fixed
    /// prompt and output lengths — the most common starting point.
    #[must_use]
    pub fn poisson(
        seed: u64,
        requests: usize,
        rate_per_s: f64,
        prompt: usize,
        output: usize,
    ) -> Self {
        Self {
            seed,
            requests,
            arrival: ArrivalProcess::Poisson { rate_per_s },
            prompt: LengthDist::Fixed { tokens: prompt },
            output: LengthDist::Fixed { tokens: output },
            prefixes: None,
            priority_classes: 1,
        }
    }

    /// Checks that the spec describes a stream [`TraceSpec::generate`]
    /// can draw.
    ///
    /// # Errors
    ///
    /// Returns the reason for a degenerate spec: a rate or interval that
    /// is not finite and positive, a zero-token length or an inverted
    /// range, an empty prefix pool, one of more than 2^32 entries or a
    /// zero-token prefix, a prefix rate outside `[0, 1]`, zero priority
    /// classes, a largest context past `u32::MAX` tokens (the longest
    /// prompt plus the longest output, plus the prefix when a pool is
    /// active, since a prefixed prompt is the prefix plus a drawn suffix),
    /// or more than [`MAX_TRACE_REQUESTS`] requests. Every id, length and
    /// prefix a valid spec draws fits its `u32` [`Request`] field.
    pub fn validate(&self) -> Result<(), String> {
        let gap = match self.arrival {
            ArrivalProcess::Poisson { rate_per_s } => rate_per_s,
            ArrivalProcess::Fixed { interval_s } => interval_s,
        };
        ensure(
            gap.is_finite() && gap > 0.0,
            format!("arrival parameter must be finite and positive, got {gap}"),
        )?;
        self.prompt.validate("prompt")?;
        self.output.validate("output")?;
        if let Some(p) = &self.prefixes {
            ensure(p.pool > 0, "prefix pool must be non-empty")?;
            ensure(
                p.pool - 1 <= u32::MAX as usize,
                format!("prefix pool holds at most 2^32 entries, got {}", p.pool),
            )?;
            ensure(p.tokens > 0, "prefix length must be positive")?;
            ensure(
                (0.0..=1.0).contains(&p.rate),
                "prefix rate must lie in [0, 1]",
            )?;
        }
        ensure(
            self.priority_classes > 0,
            "at least one priority class is required",
        )?;
        let context = self
            .prompt
            .max_tokens()
            .checked_add(self.output.max_tokens())
            .and_then(|c| c.checked_add(self.prefixes.map_or(0, |p| p.tokens)));
        ensure(
            context.is_some_and(|c| c <= u32::MAX as usize),
            "the largest prompt + output + prefix context overflows",
        )?;
        check_trace_len(self.requests)
    }

    /// Expands the spec into an arrival-ordered request list.
    ///
    /// All randomness flows through one [`StdRng`] seeded from
    /// [`TraceSpec::seed`] in a fixed draw order — gap, prompt, output
    /// per request, then (only when the features are active) the prefix
    /// draws and the priority draw — so generation is exactly
    /// reproducible, and a spec with no prefixes and one priority class
    /// replays the pre-feature stream bit for bit.
    ///
    /// # Panics
    ///
    /// Panics, with the reason, on a spec [`TraceSpec::validate`]
    /// refuses.
    #[must_use]
    pub fn generate(&self) -> Vec<Request> {
        if let Err(reason) = self.validate() {
            panic!("{reason}");
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let gap = self.arrival.gaps();
        let pool = self.prefixes.map(|spec| {
            let covered = NonZeroU32::new(tokens(spec.tokens)).expect("validate refuses 0 tokens");
            (spec, covered)
        });
        let requests =
            u32::try_from(self.requests).expect("validate caps the trace at MAX_TRACE_REQUESTS");
        let mut clock = 0.0;
        (0..requests)
            .map(|id| {
                clock += gap(&mut rng);
                let drawn_prompt = self.prompt.sample(&mut rng);
                let output = self.output.sample(&mut rng);
                let prefix = pool.and_then(|(spec, covered)| {
                    let hit = rng.gen_range(0.0f64..1.0) < spec.rate;
                    hit.then(|| Prefix {
                        id: u32::try_from(rng.gen_range(0..spec.pool))
                            .expect("validate caps the pool at 2^32 entries"),
                        tokens: covered,
                    })
                });
                let priority = if self.priority_classes > 1 {
                    rng.gen_range(0..self.priority_classes)
                } else {
                    0
                };
                // The drawn length is the novel suffix of a prefixed
                // request, so its total prompt strictly exceeds the
                // prefix — `Prefix::tokens < prompt` always holds.
                let prompt = drawn_prompt + prefix.map_or(0, |p| p.tokens.get() as usize);
                Request {
                    id,
                    arrival_s: clock,
                    prompt: tokens(prompt),
                    output: tokens(output),
                    priority,
                    prefix,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_ordered() {
        let spec = TraceSpec {
            seed: 7,
            requests: 64,
            arrival: ArrivalProcess::Poisson { rate_per_s: 3.0 },
            prompt: LengthDist::Uniform { lo: 10, hi: 200 },
            output: LengthDist::Uniform { lo: 1, hi: 50 },
            prefixes: None,
            priority_classes: 1,
        };
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b, "same seed must replay the same trace");
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(a.iter().enumerate().all(|(i, r)| r.id as usize == i));
        assert!(a
            .iter()
            .all(|r| (10..=200).contains(&r.prompt) && (1..=50).contains(&r.output)));
    }

    #[test]
    fn different_seeds_differ() {
        let mut spec = TraceSpec::poisson(1, 16, 2.0, 100, 10);
        let a = spec.generate();
        spec.seed = 2;
        let b = spec.generate();
        assert_ne!(a, b);
    }

    #[test]
    fn fixed_arrivals_are_evenly_spaced() {
        let spec = TraceSpec {
            seed: 0,
            requests: 5,
            arrival: ArrivalProcess::Fixed { interval_s: 2.5 },
            prompt: LengthDist::Fixed { tokens: 100 },
            output: LengthDist::Fixed { tokens: 8 },
            prefixes: None,
            priority_classes: 1,
        };
        let trace = spec.generate();
        for (i, r) in trace.iter().enumerate() {
            assert!((r.arrival_s - 2.5 * (i + 1) as f64).abs() < 1e-12);
        }
    }

    /// FNV-1a over every field of every request, each widened to a
    /// little-endian `u64`; an absent prefix reads as id 0 with 0 tokens,
    /// which no present prefix has.
    fn trace_digest(trace: &[Request]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for r in trace {
            let (prefix_id, prefix_tokens) = r
                .prefix
                .map_or((0, 0), |p| (u64::from(p.id), u64::from(p.tokens.get())));
            let fields = [
                u64::from(r.id),
                r.arrival_s.to_bits(),
                u64::from(r.prompt),
                u64::from(r.output),
                u64::from(r.priority),
                prefix_id,
                prefix_tokens,
            ];
            for byte in fields.iter().flat_map(|field| field.to_le_bytes()) {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// The random stream and every field it fills, pinned by digests
    /// captured when each length and id was a `usize`: the serve-fleet
    /// shape at 100k requests, the serve-paged shape (a 4-entry prefix
    /// pool at rate 0.7, 3 priority classes) and evenly spaced arrivals.
    /// Swapping two draws, or narrowing a field that loses a value, moves
    /// a digest.
    #[test]
    fn generated_traces_keep_their_pinned_digests() {
        let fleet = TraceSpec {
            seed: 3,
            requests: 100_000,
            arrival: ArrivalProcess::Poisson { rate_per_s: 500.0 },
            prompt: LengthDist::Uniform { lo: 50, hi: 400 },
            output: LengthDist::Uniform { lo: 8, hi: 64 },
            prefixes: None,
            priority_classes: 1,
        };
        let paged = TraceSpec {
            seed: 11,
            requests: 2000,
            arrival: ArrivalProcess::Poisson { rate_per_s: 16.0 },
            prompt: LengthDist::Uniform { lo: 300, hi: 900 },
            output: LengthDist::Uniform { lo: 16, hi: 48 },
            prefixes: Some(PrefixSpec {
                pool: 4,
                tokens: 256,
                rate: 0.7,
            }),
            priority_classes: 3,
        };
        let fixed = TraceSpec {
            seed: 7,
            requests: 1000,
            arrival: ArrivalProcess::Fixed { interval_s: 0.25 },
            prompt: LengthDist::Uniform { lo: 1, hi: 4096 },
            output: LengthDist::Fixed { tokens: 32 },
            prefixes: None,
            priority_classes: 1,
        };
        for (spec, pinned) in [
            (fleet, 0x5eb0_26cf_056f_460f),
            (paged, 0x868f_0665_b8a4_3647),
            (fixed, 0x5628_083a_380b_e0a2),
        ] {
            let trace = spec.generate();
            assert_eq!(trace.len(), spec.requests);
            assert_eq!(trace_digest(&trace), pinned, "{spec:?}");
        }
    }

    /// The 32-bit limits are inclusive: a context of exactly `u32::MAX`
    /// tokens and a pool of exactly 2^32 prefixes are valid and generate
    /// (every id and length fits its field), one more of either is not.
    #[test]
    fn the_32_bit_limits_admit_their_edge() {
        let max = u32::MAX as usize;
        let mut spec = TraceSpec::poisson(5, 64, 1.0, max - 8, 8);
        assert_eq!(spec.validate(), Ok(()));
        assert!(spec
            .generate()
            .iter()
            .all(|r| r.prompt == u32::MAX - 8 && r.output == 8));
        spec.output = LengthDist::Fixed { tokens: 9 };
        assert!(spec.validate().is_err());

        spec = TraceSpec::poisson(5, 64, 1.0, 100, 8);
        spec.prefixes = Some(PrefixSpec {
            pool: max + 1,
            tokens: 16,
            rate: 1.0,
        });
        let trace = spec.generate();
        assert!(trace.iter().all(|r| r.prompt == 116));
        // 64 draws from 2^32 ids: at least one lands past 2^31.
        assert!(trace.iter().any(|r| r.prefix.unwrap().id > 1 << 31));
        spec.prefixes = Some(PrefixSpec {
            pool: max + 2,
            tokens: 16,
            rate: 1.0,
        });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn poisson_rate_matches_on_average() {
        let spec = TraceSpec::poisson(42, 4000, 8.0, 100, 10);
        let trace = spec.generate();
        let span = trace.last().unwrap().arrival_s;
        let rate = trace.len() as f64 / span;
        assert!((rate - 8.0).abs() < 0.5, "empirical rate {rate}");
    }
}
