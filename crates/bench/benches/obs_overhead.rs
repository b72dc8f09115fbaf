//! Measures the observability tax on the hottest instrumented loop: the
//! Monte Carlo sweep of `lori-ftsched`.
//!
//! The headline A/B — always run, even under `LORI_BENCH_SMOKE=1` — is the
//! obs tax in the shipping default: the sweep with every consumer off
//! (`baseline`: no recorder, flight disabled) against the harness default
//! (recorded under the historical key `telemetry_disabled`: flight
//! recorder armed, no event recorder). Samples interleave A and B so drift
//! hits both arms equally; the medians land in `results/BENCH_obs.json`
//! with the relative `overhead_pct`. Acceptance target: < 2 %.
//!
//! The criterion groups (skipped in smoke mode) keep the finer-grained
//! comparisons:
//!
//! - `obs_overhead/sweep`: uninstrumented vs [`lori_obs::NullRecorder`]
//!   (must be indistinguishable) vs [`lori_obs::MemoryRecorder`] (what full
//!   event capture costs for scale);
//! - `jsonl_recorder/record`: the [`lori_obs::JsonlRecorder`] shared-lock
//!   write path vs the per-thread buffered fast path, at 1 and 4 threads.

use criterion::{criterion_group, BenchmarkId, Criterion};
use lori_bench::{write_bench_obs, RunConfig};
use lori_ftsched::montecarlo::{sweep, SweepConfig};
use lori_ftsched::workload::adpcm_reference_trace;
use lori_obs::{Event, JsonlRecorder, Recorder};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn sweep_once() {
    let trace = adpcm_reference_trace();
    let config = SweepConfig {
        runs: 10,
        ..SweepConfig::paper()
    };
    let points = sweep(&[1e-6, 1e-5], &trace, &config).expect("sweep");
    criterion::black_box(points);
}

/// Interleaved A/B sample pairs for the BENCH_obs record. Few enough to
/// stay fast in CI smoke runs, enough for a stable median.
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

/// The headline A/B: everything-off baseline vs the harness default
/// (flight ring armed, no event recorder).
fn measure_harness_default_tax(results_dir: &Path) {
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
    let path = write_bench_obs(results_dir, AB_PAIRS, baseline_s, armed_s);
    println!(
        "BENCH_obs: baseline {:.6}s, harness default {:.6}s ({:+.3}%) -> {}",
        baseline_s,
        armed_s,
        (armed_s - baseline_s) / baseline_s.max(1e-12) * 100.0,
        path.display()
    );
}

fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");

    lori_obs::uninstall();
    group.bench_with_input(
        BenchmarkId::new("sweep", "uninstrumented_baseline"),
        &(),
        |b, ()| b.iter(sweep_once),
    );

    lori_obs::install(Arc::new(lori_obs::NullRecorder));
    group.bench_with_input(BenchmarkId::new("sweep", "null_recorder"), &(), |b, ()| {
        b.iter(sweep_once)
    });
    lori_obs::uninstall();

    lori_obs::install(Arc::new(lori_obs::MemoryRecorder::new()));
    group.bench_with_input(
        BenchmarkId::new("sweep", "memory_recorder"),
        &(),
        |b, ()| b.iter(sweep_once),
    );
    lori_obs::uninstall();

    group.finish();
}

/// Span enter/exit pairs each recording thread emits per iteration —
/// enough to dominate recorder construction and thread spawning.
const SPAN_PAIRS_PER_THREAD: u64 = 2000;

/// Records a deep-nesting-shaped event stream (alternating enter/exit),
/// the pattern parallel Monte Carlo points produce.
fn record_span_pairs(rec: &JsonlRecorder, tid: u64) {
    for i in 0..SPAN_PAIRS_PER_THREAD {
        rec.record(&Event::SpanEnter {
            name: "bench.point",
            t_ns: i * 2,
            tid,
            depth: 0,
            sid: i + 1,
            parent: 0,
            attr: Some(1e-6),
        });
        rec.record(&Event::SpanExit {
            name: "bench.point",
            t_ns: i * 2 + 1,
            tid,
            depth: 0,
            dur_ns: 1,
            sid: i + 1,
        });
    }
}

/// One full pass: `threads` workers each push their pairs through `rec`,
/// then the recorder flushes. The sink is `/dev/null` so the comparison
/// isolates serialization + locking, not disk throughput.
fn jsonl_pass(threads: u64, buffered: bool) {
    let rec = JsonlRecorder::create("/dev/null").expect("open /dev/null");
    let rec = if buffered { rec } else { rec.unbuffered() };
    let rec = Arc::new(rec);
    if threads <= 1 {
        record_span_pairs(&rec, 0);
    } else {
        let workers: Vec<_> = (0..threads)
            .map(|tid| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || record_span_pairs(&rec, tid))
            })
            .collect();
        for w in workers {
            w.join().expect("recording worker");
        }
    }
    rec.flush();
}

fn bench_jsonl_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("jsonl_recorder");
    for &threads in &[1u64, 4] {
        for buffered in [false, true] {
            let label = format!(
                "{threads}t_{}",
                if buffered { "buffered" } else { "unbuffered" }
            );
            group.bench_with_input(BenchmarkId::new("record", label), &(), |b, ()| {
                b.iter(|| jsonl_pass(threads, buffered));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_obs_overhead, bench_jsonl_paths);

fn main() {
    let run = RunConfig::from_env();
    measure_harness_default_tax(&run.results_dir);
    if run.bench_smoke {
        return;
    }
    benches();
}
