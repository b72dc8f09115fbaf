//! Measures the observability tax on the hottest instrumented loop: the
//! Monte Carlo sweep of `lori-ftsched`.
//!
//! The A/B is the obs tax in the shipping default: the sweep with every
//! consumer off (`baseline`: no recorder, flight disabled) against the
//! harness default (`armed`: flight recorder armed, no event recorder).
//! Samples interleave A and B so drift hits both arms equally; the medians
//! land in `results/BENCH_obs_overhead.json` as `baseline_wall_s` and
//! `armed_wall_s`, with the relative `overhead_pct`. Acceptance target:
//! < 2 %.
//!
//! `LORI_BENCH_SMOKE` has nothing to shrink here: the A/B is already
//! CI-sized, so smoke and full runs write the same keys.

use lori_bench::{BenchRecord, RunConfig};
use lori_ftsched::montecarlo::{sweep, SweepConfig};
use lori_ftsched::workload::adpcm_reference_trace;
use std::time::Instant;

fn sweep_once() {
    let trace = adpcm_reference_trace();
    let config = SweepConfig {
        runs: 10,
        ..SweepConfig::paper()
    };
    let points = sweep(&[1e-6, 1e-5], &trace, &config).expect("sweep");
    std::hint::black_box(points);
}

/// Interleaved A/B sample pairs. Few enough to stay fast in CI smoke runs,
/// enough for a stable median.
const AB_PAIRS: usize = 7;

/// Sweeps per timed sample: one `sweep_once` is sub-millisecond, so each
/// sample amortizes scheduler noise over a longer run to keep the <2%
/// gate out of the noise floor.
const SWEEPS_PER_SAMPLE: usize = 32;

fn sample() {
    for _ in 0..SWEEPS_PER_SAMPLE {
        sweep_once();
    }
}

fn timed(f: impl Fn()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let run = RunConfig::from_env();
    lori_obs::uninstall();
    let mut baseline = Vec::with_capacity(AB_PAIRS);
    let mut armed = Vec::with_capacity(AB_PAIRS);
    // One warm-up pass per arm so neither pays first-touch costs.
    lori_obs::flight::disable();
    sample();
    lori_obs::flight::enable(lori_obs::flight::DEFAULT_CAPACITY);
    sample();
    for _ in 0..AB_PAIRS {
        lori_obs::flight::disable();
        baseline.push(timed(sample));
        lori_obs::flight::enable(lori_obs::flight::DEFAULT_CAPACITY);
        armed.push(timed(sample));
    }
    lori_obs::flight::disable();

    let baseline_s = median(&mut baseline);
    let armed_s = median(&mut armed);
    let overhead_pct = if baseline_s > 0.0 {
        (armed_s - baseline_s) / baseline_s * 100.0
    } else {
        0.0
    };
    let mut record = BenchRecord::new(env!("CARGO_CRATE_NAME"));
    record
        .case("baseline_wall_s", baseline_s)
        .case("armed_wall_s", armed_s)
        .case("overhead_pct", overhead_pct);
    let path = record.write(&run.results_dir);
    println!(
        "BENCH_obs_overhead: baseline {baseline_s:.6}s, harness default {armed_s:.6}s ({overhead_pct:+.3}%) -> {}",
        path.display()
    );
}
