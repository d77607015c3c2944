//! Synthetic request traces: seeded arrival processes and length
//! distributions.
//!
//! A [`TraceSpec`] is a compact, serializable description of a request
//! stream; [`TraceSpec::generate`] expands it into a concrete
//! arrival-ordered [`Request`] list using one seeded [`StdRng`] stream, so
//! the same spec always yields byte-identical traces on every platform and
//! thread count.

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
    fn next_gap(&self, rng: &mut StdRng) -> f64 {
        match *self {
            Self::Poisson { rate_per_s } => Exp::new(rate_per_s).sample(rng),
            Self::Fixed { interval_s } => interval_s,
        }
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
/// many of the request's prompt tokens it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prefix {
    /// Pool entry id (stable across the trace: two requests with the same
    /// id share the same prefix tokens).
    pub id: usize,
    /// Leading prompt tokens the prefix covers (`< prompt`).
    pub tokens: usize,
}

/// One request of the trace, fully determined at generation time (the
/// output length stands in for the stopping point the real model would
/// choose).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Index in arrival order (ids are assigned 0..n as requests arrive).
    pub id: usize,
    /// Arrival time in seconds since the simulation epoch.
    pub arrival_s: f64,
    /// Prompt length in tokens.
    pub prompt: usize,
    /// Requested output length in tokens (≥ 1).
    pub output: usize,
    /// Scheduling class: lower is more urgent, `0` (the default) is the
    /// most urgent. Only priority-aware [`crate::Scheduler`]s read it.
    pub priority: u8,
    /// The shared prompt prefix, if the request carries one. Under a
    /// paged [`crate::KvSpec`] a resident prefix's full blocks are shared
    /// (refcounted) and its tokens skip prefill; under the reserved
    /// regime prefixes are ignored.
    pub prefix: Option<Prefix>,
}

impl Request {
    /// A plain request: default priority, no shared prefix.
    #[must_use]
    pub fn new(id: usize, arrival_s: f64, prompt: usize, output: usize) -> Self {
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
    /// Distinct shared prefixes in the pool.
    pub pool: usize,
    /// Tokens per prefix.
    pub tokens: usize,
    /// Probability a request carries a pool prefix.
    pub rate: f64,
}

/// `Ok` when `ok` holds, else the `reason`.
fn ensure(ok: bool, reason: impl Into<String>) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(reason.into())
    }
}

/// The largest context a request drawn from these lengths can carry: the
/// longest prompt plus the longest output, plus the shared prefix when a
/// pool is active (a prefixed prompt is the prefix plus a drawn suffix).
/// `None` when that overflows `usize`.
#[must_use]
pub fn max_context(
    prompt: &LengthDist,
    output: &LengthDist,
    prefixes: Option<&PrefixSpec>,
) -> Option<usize> {
    prompt
        .max_tokens()
        .checked_add(output.max_tokens())?
        .checked_add(prefixes.map_or(0, |p| p.tokens))
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
    /// range, an empty prefix pool or a zero-token prefix, a prefix rate
    /// outside `[0, 1]`, zero priority classes, or lengths whose largest
    /// context (see [`max_context`]) overflows `usize`.
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
        let context = max_context(&self.prompt, &self.output, self.prefixes.as_ref());
        ensure(
            context.is_some(),
            "the largest prompt + output + prefix context overflows",
        )
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
        let mut clock = 0.0;
        (0..self.requests)
            .map(|id| {
                clock += self.arrival.next_gap(&mut rng);
                let drawn_prompt = self.prompt.sample(&mut rng);
                let output = self.output.sample(&mut rng);
                let prefix = self.prefixes.and_then(|spec| {
                    let hit = rng.gen_range(0.0f64..1.0) < spec.rate;
                    hit.then(|| Prefix {
                        id: rng.gen_range(0..spec.pool),
                        tokens: spec.tokens,
                    })
                });
                let priority = if self.priority_classes > 1 {
                    rng.gen_range(0..self.priority_classes)
                } else {
                    0
                };
                Request {
                    id,
                    arrival_s: clock,
                    // The drawn length is the novel suffix of a prefixed
                    // request, so its total prompt strictly exceeds the
                    // prefix — `Prefix::tokens < prompt` always holds.
                    prompt: drawn_prompt + prefix.map_or(0, |p| p.tokens),
                    output,
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
        assert!(a.iter().enumerate().all(|(i, r)| r.id == i));
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

    #[test]
    fn poisson_rate_matches_on_average() {
        let spec = TraceSpec::poisson(42, 4000, 8.0, 100, 10);
        let trace = spec.generate();
        let span = trace.last().unwrap().arrival_s;
        let rate = trace.len() as f64 / span;
        assert!((rate - 8.0).abs() < 0.5, "empirical rate {rate}");
    }
}
