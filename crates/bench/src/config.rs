//! The run configuration of every `exp-*` binary and bench, read from the
//! environment in one place.
//!
//! [`RunConfig::from_env`] is the crate's only environment reader; the
//! [`crate::Harness`], the artifact writers and the benches take their
//! settings from a `RunConfig` value, so tests build one explicitly
//! instead of mutating the process environment.

use std::path::PathBuf;

/// The `LORI_*` settings a run honors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// Where artifacts land (`LORI_RESULTS_DIR`, default `results/`).
    pub results_dir: PathBuf,
    /// Whether the harness streams events to `<name>.events.jsonl`
    /// (`LORI_OBS=off|0|false` disables).
    pub obs: bool,
    /// Monte Carlo runs per sweep point (`LORI_RUNS`, a positive integer);
    /// `None` keeps each experiment's own default.
    pub runs: Option<usize>,
    /// Shrunken bench workloads for CI (`LORI_BENCH_SMOKE`, anything but
    /// empty, `0` or `false`).
    pub bench_smoke: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            results_dir: PathBuf::from("results"),
            obs: true,
            runs: None,
            bench_smoke: false,
        }
    }
}

impl RunConfig {
    /// Parses the `LORI_*` variables once. Unset or unparsable values fall
    /// back to the [`Default`] settings.
    #[must_use]
    pub fn from_env() -> Self {
        let var = |key: &str| std::env::var(key).ok();
        RunConfig {
            results_dir: lori_obs::fsio::results_dir(),
            obs: !matches!(var("LORI_OBS").as_deref(), Some("off" | "0" | "false")),
            runs: var("LORI_RUNS")
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0),
            bench_smoke: var("LORI_BENCH_SMOKE")
                .is_some_and(|v| !matches!(v.as_str(), "" | "0" | "false")),
        }
    }
}
