//! The pass recorder: op accounting, shape checks, an output digest, and —
//! in a traced pass only — one in-memory span per layer call.
//!
//! A span holds its name, start, end, parent, and the deltas of the
//! registry counters it moved. Counters are read by name from
//! `lori_obs::registry().snapshot()`, which never registers anything, so a
//! counter the program does not (or no longer does) register reads as
//! absent rather than as a crash.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

/// Registry counters whose per-call deltas are recorded on every span.
pub const COUNTERS: &[&str] = &[
    "cache.hits",
    "cache.misses",
    "circuit.transient.steps",
    "circuit.sta.instances",
    "circuit.sta.retimed",
    "ftsched.rollbacks",
    "ftsched.deadline_misses",
    "sys.dvfs.actuations",
    "sys.mapping.evaluations",
];

/// Reads [`COUNTERS`] from the registry; `None` marks an absent counter.
fn read_counters() -> Vec<Option<u64>> {
    let snap = lori_obs::registry().snapshot();
    COUNTERS
        .iter()
        .map(|want| {
            snap.iter()
                .find(|m| m.name == *want)
                .and_then(|m| match m.value {
                    lori_obs::MetricValue::Counter(v) => Some(v),
                    _ => None,
                })
        })
        .collect()
}

/// One recorded layer call (or step, for the spans that group calls).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Registry counter deltas across the call, indexed like [`COUNTERS`].
    pub counters: Vec<u64>,
}

/// FNV-1a over the bit patterns of a pass's outputs: equal digests mean
/// bit-identical outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn all(&mut self, vs: impl IntoIterator<Item = f64>) {
        for v in vs {
            self.f64(v);
        }
    }
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Everything one pass records.
pub struct Recorder {
    traced: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<(usize, Vec<Option<u64>>)>,
    /// Layer calls and shape checks attempted / failed.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(&'static str, bool)>,
    pub errors: Vec<String>,
    /// Counts the benchmark derives from the calls it makes (injections,
    /// Monte Carlo runs, fits, ...), summed over the pass.
    pub counts: BTreeMap<&'static str, f64>,
    pub digest: Digest,
    /// Deterministic artifacts `(file name, JSON)`, written on `--export`.
    pub exports: Vec<(&'static str, String)>,
}

impl Recorder {
    pub fn new(traced: bool) -> Self {
        Recorder {
            traced,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            errors: Vec::new(),
            counts: BTreeMap::new(),
            digest: Digest::default(),
            exports: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str) {
        if !self.traced {
            return;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().map(|(i, _)| *i),
            start_ns: 0,
            end_ns: 0,
            counters: Vec::new(),
        });
        let before = read_counters();
        self.spans[idx].start_ns = self.origin.elapsed().as_nanos() as u64;
        self.stack.push((idx, before));
    }

    fn exit(&mut self) {
        if !self.traced {
            return;
        }
        let end = self.origin.elapsed().as_nanos() as u64;
        let (idx, before) = self.stack.pop().expect("balanced spans");
        let after = read_counters();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.counters = before
            .iter()
            .zip(&after)
            .map(|(b, a)| a.unwrap_or(0).saturating_sub(b.unwrap_or(0)))
            .collect();
    }

    /// Runs a group of calls (an exp-* step) under one parent span.
    pub fn step<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Times one infallible layer call.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.attempted += 1;
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Times one fallible layer call; an `Err` counts as a failed op and
    /// yields `None`, so the step can stop.
    pub fn try_call<T, E: Display>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        match self.call(name, f) {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{name}: {e}"));
                None
            }
        }
    }

    /// Unwraps a non-timed result (a metric, a dataset shape): an `Err`
    /// counts as a failed op.
    pub fn ok<T, E: Display>(&mut self, what: &'static str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            self.errors.push(format!("{what}: {e}"));
        })
        .ok()
    }

    /// Records a paper shape check; a false check counts as a failed op.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name, ok));
    }

    pub fn export(&mut self, file: &'static str, json: String) {
        self.exports.push((file, json));
    }

    pub fn add(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Self time of every span named `name`: duration minus direct children.
    pub fn self_secs(&self, name: &str) -> f64 {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns - c) as f64 * 1e-9)
            .sum()
    }

    /// Sum of `counter`'s deltas over spans named `name` (`None`: all top-level spans).
    pub fn counter_in(&self, name: Option<&str>, counter: &str) -> f64 {
        let Some(ci) = COUNTERS.iter().position(|c| *c == counter) else {
            return 0.0;
        };
        self.spans
            .iter()
            .filter(|s| match name {
                Some(n) => s.name == n,
                None => s.parent.is_none(),
            })
            .map(|s| s.counters[ci] as f64)
            .sum()
    }

    /// Names in [`COUNTERS`] the registry does not hold at the end of the pass.
    pub fn absent_counters() -> Vec<&'static str> {
        COUNTERS
            .iter()
            .zip(read_counters())
            .filter(|(_, v)| v.is_none())
            .map(|(n, _)| *n)
            .collect()
    }
}
