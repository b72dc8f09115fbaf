//! Golden-model memoization payoff: the fixed workload is a full 60-cell
//! `characterize_library` plus an `mlchar::train` over every cell, timed
//! against an empty cache (cold) and a fully populated one (warm). Writes
//! `results/BENCH_golden_cache.json`, one [`BenchRecord`].
//!
//! Bit-identity is asserted, not assumed: the workload runs with the cache
//! off, cold, and warm, and the libraries and trained models are compared
//! `==`.
//!
//! `LORI_BENCH_SMOKE` has nothing to shrink here: one cold and one warm
//! pass are the whole measurement, so smoke and full runs write the same
//! keys.

use lori_bench::{BenchRecord, RunConfig};
use lori_cache::{Cache, CacheMode};
use lori_circuit::cell::CellId;
use lori_circuit::characterize::{characterize_library_par, Corner};
use lori_circuit::mlchar::{MlCharConfig, MlCharacterizer};
use lori_circuit::spicelike::{ArcTiming, GoldenSimulator};
use lori_circuit::tech::TechParams;
use lori_circuit::{cell::Library, CircuitError};
use lori_par::Parallelism;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Training config for the cache benchmark: golden sampling (cacheable)
/// must dominate model fitting (not cacheable), so the measured speedup
/// reflects the memoization layer rather than GBT fitting cost. The full
/// default 60-cell library is still characterized and trained on.
fn bench_ml_config() -> MlCharConfig {
    MlCharConfig {
        samples_per_cell: 120,
        stages: 6,
        max_depth: 2,
        ..MlCharConfig::default()
    }
}

fn workload(
    sim: &GoldenSimulator,
    cfg: &MlCharConfig,
    par: Parallelism,
) -> Result<(Library, MlCharacterizer), CircuitError> {
    let corner = Corner::default();
    let lib = characterize_library_par(sim, &corner, par)?;
    let cells: Vec<CellId> = lib.iter().map(|(id, _)| id).collect();
    let ml = MlCharacterizer::train_with(sim, &lib, &cells, cfg, par)?;
    Ok((lib, ml))
}

/// The cache mode under measurement: `LORI_CACHE` if it names a caching
/// mode, else `mem`. (`off` would make cold == warm — there would be
/// nothing to measure — so it is promoted to `mem` here.)
fn measured_mode() -> CacheMode {
    match CacheMode::from_env() {
        CacheMode::Off => CacheMode::Mem,
        m => m,
    }
}

fn fresh_cached_sim(mode: &CacheMode) -> (GoldenSimulator, Arc<Cache<ArcTiming>>) {
    let cache = Arc::new(Cache::new(mode.clone()));
    let sim =
        GoldenSimulator::with_cache(TechParams::default(), Arc::clone(&cache)).expect("simulator");
    (sim, cache)
}

fn main() {
    let run = RunConfig::from_env();
    let par = Parallelism::new(lori_par::global().threads().max(2));
    let cfg = bench_ml_config();
    let mode = measured_mode();
    let golden_calls = 2160 + 60 * cfg.samples_per_cell; // 6×6 grid ×60 + samples

    // Reference: cache off entirely.
    let off_sim =
        GoldenSimulator::with_cache(TechParams::default(), Arc::new(Cache::new(CacheMode::Off)))
            .expect("simulator");
    let (lib_off, ml_off) = workload(&off_sim, &cfg, par).expect("off workload");

    // Cold pass: a fresh cache, every golden call computes and stores.
    let (cached_sim, cache) = fresh_cached_sim(&mode);
    let t0 = Instant::now();
    let (lib_cold, ml_cold) = black_box(workload(&cached_sim, &cfg, par).expect("cold workload"));
    let cold_wall = t0.elapsed().as_secs_f64();
    let after_cold = cache.stats();
    assert_eq!(lib_off, lib_cold, "cold cache changed library bytes");
    assert_eq!(ml_off, ml_cold, "cold cache changed trained models");

    // Warm pass: identical workload, same cache.
    let t0 = Instant::now();
    let (lib_warm, ml_warm) = black_box(workload(&cached_sim, &cfg, par).expect("warm workload"));
    let warm_wall = t0.elapsed().as_secs_f64();
    let after_warm = cache.stats();
    assert_eq!(lib_off, lib_warm, "warm cache changed library bytes");
    assert_eq!(ml_off, ml_warm, "warm cache changed trained models");

    #[allow(clippy::cast_precision_loss)]
    let hit_rate = |hits: u64, lookups: u64| {
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    };
    let cold_hit_rate = hit_rate(after_cold.hits, after_cold.hits + after_cold.misses);
    let warm_hit_rate = hit_rate(
        after_warm.hits - after_cold.hits,
        (after_warm.hits + after_warm.misses) - (after_cold.hits + after_cold.misses),
    );
    let speedup = if warm_wall > 0.0 {
        cold_wall / warm_wall
    } else {
        0.0
    };

    let mut record = BenchRecord::new(env!("CARGO_CRATE_NAME"));
    record
        .case("golden_calls", golden_calls as f64)
        .case("cold_wall_s", cold_wall)
        .rate("cold_calls_per_s", golden_calls, cold_wall)
        .case("cold_hit_rate", cold_hit_rate)
        .case("warm_wall_s", warm_wall)
        .rate("warm_calls_per_s", golden_calls, warm_wall)
        .case("warm_hit_rate", warm_hit_rate)
        .case("speedup", speedup);
    let path = record.write(&run.results_dir);
    println!(
        "BENCH_golden_cache: {} golden calls, cache {}, cold {:.3}s, warm {:.3}s ({:.1}x, hit rate {:.3}) -> {}",
        golden_calls,
        mode.label(),
        cold_wall,
        warm_wall,
        speedup,
        warm_hit_rate,
        path.display()
    );
}
