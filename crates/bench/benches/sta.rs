//! STA throughput: full from-scratch timing analysis vs incremental
//! single-edit retiming on the `StaEngine`, at increasing design scale.
//! Writes `results/BENCH_sta.json`, one [`BenchRecord`] with a
//! `<design>_*` group of cases per design.
//!
//! Exactness is asserted, not assumed: after the timed incremental edit
//! sequence, the engine's report is compared `==` against a from-scratch
//! pass carrying the same override set.
//!
//! `LORI_BENCH_SMOKE` has nothing to shrink here: the measurements are
//! already CI-sized, so smoke and full runs write the same keys.

use lori_bench::{BenchRecord, RunConfig};
use lori_circuit::characterize::{characterize_library, Corner};
use lori_circuit::netlist::{processor_datapath, random_logic, InstId, Netlist};
use lori_circuit::spicelike::GoldenSimulator;
use lori_circuit::sta::{run_sta, InstanceTiming, StaConfig, StaEngine};
use lori_circuit::tech::TechParams;
use lori_core::Rng;
use std::hint::black_box;
use std::time::Instant;

/// A pre-generated single-instance edit schedule, so the timed loop holds
/// nothing but `set_timing` calls.
fn edit_schedule(n_instances: usize, edits: usize, seed: u64) -> Vec<(InstId, InstanceTiming)> {
    let mut rng = Rng::from_seed(seed);
    (0..edits)
        .map(|_| {
            #[allow(clippy::cast_possible_truncation)]
            let inst = InstId(rng.below(n_instances as u64) as usize);
            let t = InstanceTiming {
                delay_ps: rng.uniform_in(1.0, 400.0),
                out_slew_ps: rng.uniform_in(1.0, 120.0),
            };
            (inst, t)
        })
        .collect()
}

/// Times `full_passes` from-scratch runs and `edits` incremental
/// single-edit retimes on one design, asserts the incremental end state
/// equals a from-scratch pass with the same overrides, and appends the
/// design's `<name>_*` cases to `record`. Returns the single-edit speedup:
/// how many times faster one incremental retime is than one full pass.
#[allow(clippy::cast_precision_loss)]
fn measure(
    record: &mut BenchRecord,
    name: &str,
    netlist: &Netlist,
    lib: &lori_circuit::cell::Library,
    cfg: &StaConfig,
    full_passes: usize,
    edits: usize,
) -> f64 {
    let n = netlist.instance_count();

    let t0 = Instant::now();
    for _ in 0..full_passes {
        black_box(run_sta(netlist, lib, cfg).expect("full sta"));
    }
    let full_wall_s = t0.elapsed().as_secs_f64();

    let mut engine = StaEngine::new(netlist, lib, cfg).expect("engine");
    let schedule = edit_schedule(n, edits, 7);
    let t0 = Instant::now();
    for &(inst, t) in &schedule {
        engine.set_timing(netlist, lib, inst, t).expect("retime");
    }
    let incremental_wall_s = t0.elapsed().as_secs_f64();

    // Exactness: the incremental end state must byte-match a from-scratch
    // pass carrying the same (last-writer-wins) override set.
    let mut overrides: Vec<Option<InstanceTiming>> = vec![None; n];
    for &(inst, t) in &schedule {
        overrides[inst.0] = Some(t);
    }
    let scratch = StaEngine::with_sparse_overrides(netlist, lib, cfg, &overrides)
        .expect("reference")
        .into_report();
    assert_eq!(
        engine.report(),
        scratch,
        "{name}: incremental end state diverged from a from-scratch pass"
    );

    let speedup = if incremental_wall_s > 0.0 {
        (full_wall_s / full_passes as f64) / (incremental_wall_s / edits as f64)
    } else {
        0.0
    };
    record
        .case(format!("{name}_instances"), n as f64)
        .case(format!("{name}_full_passes"), full_passes as f64)
        .case(format!("{name}_full_wall_s"), full_wall_s)
        .rate(
            format!("{name}_full_passes_per_s"),
            full_passes,
            full_wall_s,
        )
        .case(format!("{name}_edits"), edits as f64)
        .case(format!("{name}_incremental_wall_s"), incremental_wall_s)
        .rate(format!("{name}_edits_per_s"), edits, incremental_wall_s)
        .case(format!("{name}_single_edit_speedup"), speedup);
    println!(
        "BENCH_sta: {name} ({n} instances) full {:.2} passes/s, incremental {:.0} edits/s ({speedup:.0}x per edit)",
        full_passes as f64 / full_wall_s.max(1e-12),
        edits as f64 / incremental_wall_s.max(1e-12),
    );
    speedup
}

fn main() {
    let run = RunConfig::from_env();
    let sim = GoldenSimulator::new(TechParams::default()).expect("tech");
    let lib = characterize_library(&sim, &Corner::default()).expect("library");
    let cfg = StaConfig::default();

    // The design ladder: the last rung is the paper-scale datapath the
    // acceptance bar (>= 10x single-edit speedup at >= 100k instances) is
    // measured on.
    let rl_2000 = random_logic(&lib, 32, 2000, 1).expect("netlist");
    let rl_8000 = random_logic(&lib, 32, 8000, 1).expect("netlist");
    let dp_small = processor_datapath(&lib, 16, 2).expect("netlist");
    let dp_large = processor_datapath(&lib, 176, 2).expect("netlist");
    assert!(
        dp_large.instance_count() >= 100_000,
        "large datapath must be >= 100k instances, got {}",
        dp_large.instance_count()
    );

    let mut record = BenchRecord::new(env!("CARGO_CRATE_NAME"));
    measure(
        &mut record,
        "random_logic_2000",
        &rl_2000,
        &lib,
        &cfg,
        20,
        2000,
    );
    measure(
        &mut record,
        "random_logic_8000",
        &rl_8000,
        &lib,
        &cfg,
        10,
        1000,
    );
    let dp_small_name = format!("processor_datapath_{}", dp_small.instance_count());
    measure(&mut record, &dp_small_name, &dp_small, &lib, &cfg, 10, 1000);
    let dp_large_name = format!("processor_datapath_{}", dp_large.instance_count());
    let large_speedup = measure(&mut record, &dp_large_name, &dp_large, &lib, &cfg, 3, 300);

    // The acceptance bar from the incremental-STA refactor: a single-edit
    // retime on the >= 100k-gate datapath beats a full pass by >= 10x.
    assert!(
        large_speedup >= 10.0,
        "single-edit retime speedup {large_speedup:.1}x below the 10x bar on {dp_large_name}"
    );

    let path = record.write(&run.results_dir);
    println!("BENCH_sta: record -> {}", path.display());
}
