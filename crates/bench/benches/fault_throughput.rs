//! Bit-parallel fault-injection throughput: the lane engine vs the scalar
//! path on the two campaign shapes the paper's architecture studies run at
//! survey scale. Writes `results/BENCH_fault_throughput.json`, one
//! [`BenchRecord`] with a `<campaign>_*` group of cases per campaign.
//!
//! Two fixed spec sets, both timed at `Parallelism::serial()` so the
//! measured speedup is the lane engine's alone:
//!
//! - **ff_vulnerability** — the exp-ff-vulnerability hot phase: every
//!   (program, register, bit) cell of all five workloads, trials drawn in
//!   dataset order;
//! - **anomaly_campaign** — an exp-anomaly-detection-shaped random register
//!   campaign on the checksum workload the detector monitors.
//!
//! Bit-identity is asserted, not assumed: both paths run over the full
//! spec sets once and their outcome sequences are compared `==` before any
//! timing. `LORI_BENCH_SMOKE=1` shrinks the trial counts (CI runs it that
//! way) but still performs the identity checks, both timed passes, and the
//! record write.

use lori_arch::cpu::{run_golden, CpuConfig, ExecResult, Protection};
use lori_arch::fault::{FaultSpec, FaultTarget};
use lori_arch::isa::{Program, Reg, NUM_REGS};
use lori_arch::lane::{campaign_outcomes, MAX_LANES};
use lori_arch::workload;
use lori_bench::{BenchRecord, RunConfig};
use lori_core::Rng;
use lori_par::Parallelism;
use std::time::Instant;

/// One program's fixed campaign: golden run plus the spec set evaluated
/// against it.
struct CampaignSet {
    program: Program,
    golden: ExecResult,
    specs: Vec<FaultSpec>,
}

/// The exp-ff-vulnerability hot phase: for each workload, one spec per
/// (register, bit, trial) in dataset draw order.
fn ff_vulnerability_sets(config: &CpuConfig, trials_per_ff: usize, seed: u64) -> Vec<CampaignSet> {
    let mut rng = Rng::from_seed(seed);
    workload::all()
        .into_iter()
        .map(|program| {
            let golden = run_golden(&program, config);
            let mut specs = Vec::with_capacity(NUM_REGS * 32 * trials_per_ff);
            for reg_idx in 0..NUM_REGS {
                for bit in 0..32u8 {
                    for _ in 0..trials_per_ff {
                        #[allow(clippy::cast_possible_truncation)]
                        specs.push(FaultSpec {
                            target: FaultTarget::Register {
                                reg: Reg::new(reg_idx as u8).expect("in range"),
                                bit,
                            },
                            cycle: rng.below(golden.cycles.max(1)),
                        });
                    }
                }
            }
            CampaignSet {
                program,
                golden,
                specs,
            }
        })
        .collect()
}

/// An exp-anomaly-detection-shaped campaign: random register/bit/cycle
/// faults on the checksum workload the detector monitors.
fn anomaly_set(config: &CpuConfig, trials: usize, seed: u64) -> CampaignSet {
    let program = workload::checksum();
    let golden = run_golden(&program, config);
    let mut rng = Rng::from_seed(seed);
    let specs = (0..trials)
        .map(|_| {
            #[allow(clippy::cast_possible_truncation)]
            FaultSpec {
                target: FaultTarget::Register {
                    reg: Reg::new(rng.below(NUM_REGS as u64) as u8).expect("in range"),
                    bit: rng.below(32) as u8,
                },
                cycle: rng.below(golden.cycles.max(1)),
            }
        })
        .collect();
    CampaignSet {
        program,
        golden,
        specs,
    }
}

/// Evaluates every set at the given lane width, serially.
fn run_all(sets: &[CampaignSet], config: &CpuConfig, protection: &Protection, width: usize) {
    for set in sets {
        let outcomes = campaign_outcomes(
            &set.program,
            config,
            protection,
            &set.golden,
            &set.specs,
            width,
            Parallelism::serial(),
        );
        std::hint::black_box(outcomes);
    }
}

/// Median wall seconds over `reps` passes at the given width.
fn time_width(
    sets: &[CampaignSet],
    config: &CpuConfig,
    protection: &Protection,
    width: usize,
    reps: usize,
) -> f64 {
    let mut walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            run_all(sets, config, protection, width);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

/// Asserts lane/scalar bit-identity on every set, times both paths, and
/// appends the campaign's `<name>_*` cases to `record`.
fn measure_group(
    record: &mut BenchRecord,
    name: &str,
    sets: &[CampaignSet],
    config: &CpuConfig,
    protection: &Protection,
    reps: usize,
) {
    // Bit-identity first: the speedup claim is void if the outcomes drift.
    for set in sets {
        let scalar = campaign_outcomes(
            &set.program,
            config,
            protection,
            &set.golden,
            &set.specs,
            1,
            Parallelism::serial(),
        );
        let lanes = campaign_outcomes(
            &set.program,
            config,
            protection,
            &set.golden,
            &set.specs,
            MAX_LANES,
            Parallelism::serial(),
        );
        assert_eq!(
            scalar, lanes,
            "{name}: lane outcomes diverged from scalar on {}",
            set.program.name
        );
    }
    let injections: usize = sets.iter().map(|s| s.specs.len()).sum();
    let scalar_wall_s = time_width(sets, config, protection, 1, reps);
    let lane_wall_s = time_width(sets, config, protection, MAX_LANES, reps);
    let speedup = if lane_wall_s > 0.0 {
        scalar_wall_s / lane_wall_s
    } else {
        0.0
    };
    #[allow(clippy::cast_precision_loss)]
    record
        .case(format!("{name}_injections"), injections as f64)
        .case(format!("{name}_scalar_wall_s"), scalar_wall_s)
        .rate(
            format!("{name}_scalar_injections_per_s"),
            injections,
            scalar_wall_s,
        )
        .case(format!("{name}_lane_wall_s"), lane_wall_s)
        .rate(
            format!("{name}_lane_injections_per_s"),
            injections,
            lane_wall_s,
        )
        .case(format!("{name}_speedup"), speedup);
    #[allow(clippy::cast_precision_loss)]
    let lane_per_s = injections as f64 / lane_wall_s.max(1e-12);
    println!(
        "BENCH_fault_throughput: {name} {injections} injections, scalar {scalar_wall_s:.3}s, \
         lanes {lane_wall_s:.3}s ({speedup:.1}x, {lane_per_s:.0}/s)"
    );
}

fn main() {
    let run = RunConfig::from_env();
    let smoke = run.bench_smoke;
    let config = CpuConfig::default();
    let protection = Protection::none();
    // Full mode matches the exp-ff-vulnerability hot phase (5 programs ×
    // 16 regs × 32 bits × 4 trials = 10240 injections); smoke shrinks the
    // trial counts but keeps every (program, register, bit) cell.
    let trials_per_ff = if smoke { 1 } else { 4 };
    let anomaly_trials = if smoke { 1024 } else { 8192 };
    let reps = if smoke { 1 } else { 3 };

    let ff_sets = ff_vulnerability_sets(&config, trials_per_ff, 1);
    let anomaly_sets = [anomaly_set(&config, anomaly_trials, 2)];

    let mut record = BenchRecord::new(env!("CARGO_CRATE_NAME"));
    #[allow(clippy::cast_precision_loss)]
    record.case("lanes", MAX_LANES as f64);
    measure_group(
        &mut record,
        "ff_vulnerability",
        &ff_sets,
        &config,
        &protection,
        reps,
    );
    measure_group(
        &mut record,
        "anomaly_campaign",
        &anomaly_sets,
        &config,
        &protection,
        reps,
    );
    let path = record.write(&run.results_dir);
    println!("BENCH_fault_throughput: record -> {}", path.display());
}
