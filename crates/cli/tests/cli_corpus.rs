//! The CLI corpus: every line of `tests/cli_corpus.txt`, which covers
//! every subcommand but `list`, runs through the built binary as text
//! and with `--json` appended, and each run's exit code and the 64-bit
//! FNV-1a digests of its stdout and stderr must equal the pins in
//! `tests/golden/cli_corpus.digests`.
//!
//! On a mismatch the test names each drifted run, writes its stdout and
//! stderr under `target/tmp/cli_corpus/`, and writes a regenerated
//! digests file there too. Re-pinning is copying that file over the
//! pinned one, with the drift explained. Lines marked `release-only:`
//! are skipped in debug builds, where their pins carry over unchecked.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const CORPUS: &str = include_str!("../../../tests/cli_corpus.txt");
const PINS: &str = include_str!("../../../tests/golden/cli_corpus.digests");
const RELEASE_ONLY: &str = "release-only:";
/// No corpus line takes more than a few seconds, even in a debug build;
/// some once hung, and a hang must fail the test, not stall the suite.
const TIMEOUT: Duration = Duration::from_secs(60);

/// What one run of a corpus line left behind.
#[derive(PartialEq, Eq)]
struct Digest {
    /// The exit code; `-1` when the run ended by a signal or timed out.
    exit: i32,
    stdout: u64,
    stderr: u64,
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}\t{:016x}\t{:016x}",
            self.exit, self.stdout, self.stderr
        )
    }
}

/// The pinned digest line of a run: mode, exit code, stdout and stderr
/// digests, and the corpus line, tab-separated.
fn pin_line(mode: &str, line: &str, digest: &Digest) -> String {
    format!("{mode}\t{digest}\t{line}\n")
}

fn parse_pins() -> BTreeMap<(String, String), Digest> {
    let mut pins = BTreeMap::new();
    for row in PINS
        .lines()
        .filter(|r| !r.is_empty() && !r.starts_with('#'))
    {
        let fields: Vec<&str> = row.splitn(5, '\t').collect();
        let [mode, exit, stdout, stderr, line] = fields[..] else {
            panic!("malformed digest line `{row}`");
        };
        let hex = |h: &str| u64::from_str_radix(h, 16).expect("a hex digest");
        let digest = Digest {
            exit: exit.parse().expect("an exit code"),
            stdout: hex(stdout),
            stderr: hex(stderr),
        };
        let key = (mode.to_owned(), line.to_owned());
        assert!(
            pins.insert(key, digest).is_none(),
            "`{row}` is pinned twice"
        );
    }
    pins
}

/// Runs `line` (plus `--json` in json mode), with stdout and stderr in
/// files named by `stem` under `dir`.
fn run(line: &str, mode: &str, dir: &Path, stem: &str) -> (Digest, PathBuf, PathBuf) {
    let (out_path, err_path) = (
        dir.join(format!("{stem}.stdout")),
        dir.join(format!("{stem}.stderr")),
    );
    let file = |path: &Path| Stdio::from(std::fs::File::create(path).expect("an output file"));
    let mut command = Command::new(env!("CARGO_BIN_EXE_optimus-cli"));
    command.args(line.split_whitespace());
    if mode == "json" {
        command.arg("--json");
    }
    let mut child = command
        .stdout(file(&out_path))
        .stderr(file(&err_path))
        .spawn()
        .expect("the CLI starts");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("the CLI is waitable") {
            break Some(status);
        }
        if start.elapsed() > TIMEOUT {
            child.kill().expect("a hung CLI can be killed");
            child.wait().expect("a killed CLI is reaped");
            break None;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let read = |path: &Path| std::fs::read(path).expect("the output file");
    let digest = Digest {
        exit: status.and_then(|s| s.code()).unwrap_or(-1),
        stdout: fnv1a(&read(&out_path)),
        stderr: fnv1a(&read(&err_path)),
    };
    (digest, out_path, err_path)
}

#[test]
fn cli_corpus_matches_its_pinned_digests() {
    let mut pins = parse_pins();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_corpus");
    // A fresh start, so no earlier run's outputs or digests can be
    // mistaken for this run's.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the output directory");
    let mut regenerated: String = PINS
        .lines()
        .take_while(|r| r.starts_with('#'))
        .map(|r| format!("{r}\n"))
        .collect();
    let mut drifted = Vec::new();
    for (number, raw) in CORPUS.lines().enumerate().map(|(i, l)| (i + 1, l.trim())) {
        if raw.is_empty() || raw.starts_with('#') {
            continue;
        }
        let (line, release_only) = match raw.strip_prefix(RELEASE_ONLY) {
            Some(rest) => (rest.trim(), true),
            None => (raw, false),
        };
        for mode in ["text", "json"] {
            let pinned = pins.remove(&(mode.to_owned(), line.to_owned()));
            if release_only && cfg!(debug_assertions) {
                if let Some(pin) = &pinned {
                    regenerated.push_str(&pin_line(mode, line, pin));
                }
                continue;
            }
            let stem = format!("line{number:03}-{mode}");
            let (digest, out, err) = run(line, mode, &dir, &stem);
            regenerated.push_str(&pin_line(mode, line, &digest));
            if pinned.as_ref() == Some(&digest) {
                std::fs::remove_file(out).expect("a passing run's stdout");
                std::fs::remove_file(err).expect("a passing run's stderr");
            } else {
                let pinned = pinned.map_or("nothing".to_owned(), |p| p.to_string());
                drifted.push(format!(
                    "line {number} ({mode}): `{line}`\n    exit, stdout, stderr pinned {pinned}\n    \
                     got {digest}; outputs in {} and {}",
                    out.display(),
                    err.display()
                ));
            }
        }
    }
    for (mode, line) in pins.keys() {
        drifted.push(format!("stale pin ({mode}): `{line}` is not in the corpus"));
    }
    if !drifted.is_empty() {
        let path = dir.join("cli_corpus.digests");
        std::fs::write(&path, regenerated).expect("the regenerated digests");
        panic!(
            "{} corpus runs drifted from tests/golden/cli_corpus.digests; to re-pin, explain the \
             drift and copy {} over it:\n  {}",
            drifted.len(),
            path.display(),
            drifted.join("\n  ")
        );
    }
}
