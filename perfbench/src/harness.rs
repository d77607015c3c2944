//! Shared pieces of every workload: pass kinds, pass outcomes, output
//! checks, order statistics, seeds and process memory.

/// One kind of timed pass of a workload.
pub struct Kind {
    /// Span wrapped around the whole pass in the traced run.
    pub span: &'static str,
    /// The metric name this pass kind's median is reported under.
    pub metric: &'static str,
}

/// What one pass produced.
pub struct Outcome {
    /// Host CPU seconds of the library calls, JSON output included.
    pub secs: f64,
    /// Work done: strategies evaluated or requests simulated.
    pub work: usize,
    /// The pass's JSON output.
    pub json: String,
    /// Output checks that failed, one message each.
    pub failures: Vec<String>,
    /// Which input variant of the pass kind ran; the JSON digest must
    /// match across passes of the same kind and variant.
    pub variant: usize,
}

impl Outcome {
    /// Builds an outcome from the serialized report, recording a
    /// serialization error as a failed check.
    pub fn new(
        secs: f64,
        work: usize,
        json: Result<String, serde_json::Error>,
        mut failures: Vec<String>,
    ) -> Self {
        let json = json.unwrap_or_else(|e| {
            failures.push(format!("JSON output failed: {e}"));
            String::new()
        });
        Self {
            secs,
            work,
            json,
            failures,
            variant: 0,
        }
    }

    /// A pass whose library call returned an error.
    pub fn error(secs: f64, error: impl std::fmt::Display) -> Self {
        Self {
            secs,
            work: 0,
            json: String::new(),
            failures: vec![format!("library call failed: {error}")],
            variant: 0,
        }
    }
}

/// `Option` fields that the reports serialize as `null` when the quantity
/// is not modeled: `goodput` without a failure process, `mfu` for
/// inference, `faults` on a fault-free fleet or load sweep.
const OPTIONAL_KEYS: [&str; 3] = ["goodput", "mfu", "faults"];

/// Checks the JSON text holds no `NaN`, no infinity and no `null` other
/// than an absent [`OPTIONAL_KEYS`] field. The serializer writes a
/// non-finite number as `null`, so any other `null` is a lost value.
pub fn check_json(json: &str, failures: &mut Vec<String>) {
    let bytes = json.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
            }
            b if b.is_ascii_alphabetic() && b != b'e' && b != b'E' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_alphabetic() {
                    i += 1;
                }
                let word = &json[start..i];
                let context = json[..start].rsplit('\n').next().unwrap_or("").trim();
                let key = context.trim_end_matches(':').trim_matches('"');
                let absent = word == "null" && OPTIONAL_KEYS.contains(&key);
                if word != "true" && word != "false" && !absent {
                    failures.push(format!("JSON output contains `{context} {word}`"));
                    return;
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
}

/// FNV-1a over the text: a digest of a pass's JSON output.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A seed for one input stream of a workload, derived from the workload
/// seed by splitmix64 so that every stream changes with it.
pub fn derive_seed(seed: u64, stream: &str) -> u64 {
    let mut z = seed ^ digest(stream);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]` of a non-empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has run, all threads together. On a virtual
/// machine whose kernel accounts steal time, time the hypervisor gives to
/// other tenants is not counted.
pub fn cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit `time_t`
    // and `long` on the 64-bit Linux targets this benchmark builds for).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Times a stretch of work in process CPU seconds: see [`cpu_secs`].
pub struct Stopwatch(f64);

impl Stopwatch {
    pub fn start() -> Self {
        Self(cpu_secs())
    }

    pub fn secs(&self) -> f64 {
        cpu_secs() - self.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
