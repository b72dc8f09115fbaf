//! Scalar-vs-lane equivalence: the bit-parallel engine must be
//! indistinguishable from the scalar loop at every public API.
//!
//! The lane engine's contract (DESIGN.md §13) is *bit-identical trials,
//! counts, and artifacts* for any seed, lane width, and worker count.
//! These tests pin that across workloads, protections, ragged blocks, and
//! the edge cycles (0 and `golden_cycles`, where the flip lands before the
//! first step or never lands at all).

use lori_arch::cpu::{run_golden, CpuConfig, Protection};
use lori_arch::fault::{
    per_instruction_sdc_with, per_register_vulnerability_with, random_register_campaign_with,
    FaultSpec, FaultTarget,
};
use lori_arch::isa::{Reg, NUM_REGS};
use lori_arch::lane::{campaign_outcomes, run_fault_block, MAX_LANES};
use lori_arch::predict::ff_vulnerability_dataset_with;
use lori_arch::workload;
use lori_core::Rng;
use lori_par::Parallelism;

const WIDTHS: [usize; 4] = [2, 7, 33, 64];

#[test]
fn random_campaign_trials_identical_across_widths_and_threads() {
    let config = CpuConfig::default();
    for program in workload::all() {
        for (protection, tag) in [
            (Protection::none(), "none"),
            (Protection::full(&program), "full"),
            (
                Protection::for_instructions(&program, (0..program.len()).step_by(2)).unwrap(),
                "partial",
            ),
        ] {
            for seed in [1u64, 99] {
                // 100 trials: one full 64-lane block plus a ragged tail.
                let scalar = random_register_campaign_with(
                    &program,
                    &config,
                    &protection,
                    100,
                    seed,
                    1,
                    Parallelism::serial(),
                )
                .unwrap();
                for width in WIDTHS {
                    for threads in [1, 4] {
                        let lanes = random_register_campaign_with(
                            &program,
                            &config,
                            &protection,
                            100,
                            seed,
                            width,
                            Parallelism::new(threads),
                        )
                        .unwrap();
                        assert_eq!(
                            scalar, lanes,
                            "{} protection={tag} seed={seed} width={width} threads={threads}",
                            program.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn per_register_vulnerability_identical() {
    let config = CpuConfig::default();
    for program in [workload::fibonacci(), workload::bubble_sort()] {
        let scalar =
            per_register_vulnerability_with(&program, &config, 40, 5, 1, Parallelism::serial())
                .unwrap();
        for width in WIDTHS {
            let lanes = per_register_vulnerability_with(
                &program,
                &config,
                40,
                5,
                width,
                Parallelism::new(4),
            )
            .unwrap();
            assert_eq!(scalar, lanes, "{} width={width}", program.name);
        }
    }
}

#[test]
fn per_instruction_sdc_identical() {
    let config = CpuConfig::default();
    for program in [workload::dot_product(), workload::checksum()] {
        let scalar =
            per_instruction_sdc_with(&program, &config, 16, 7, 1, Parallelism::serial()).unwrap();
        for width in WIDTHS {
            let lanes =
                per_instruction_sdc_with(&program, &config, 16, 7, width, Parallelism::new(4))
                    .unwrap();
            assert_eq!(scalar, lanes, "{} width={width}", program.name);
        }
    }
}

#[test]
fn ff_dataset_identical() {
    let config = CpuConfig::default();
    let programs = [workload::fibonacci(), workload::dot_product()];
    let scalar =
        ff_vulnerability_dataset_with(&programs, &config, 2, 0.0, 3, 1, Parallelism::serial())
            .unwrap();
    for (width, threads) in [(64, 1), (64, 4), (7, 4)] {
        let lanes = ff_vulnerability_dataset_with(
            &programs,
            &config,
            2,
            0.0,
            3,
            width,
            Parallelism::new(threads),
        )
        .unwrap();
        assert_eq!(
            scalar.features(),
            lanes.features(),
            "width={width} threads={threads}"
        );
        assert_eq!(
            scalar.class_targets(),
            lanes.class_targets(),
            "width={width} threads={threads}"
        );
    }
}

#[test]
fn edge_cycles_and_mixed_targets_match() {
    // Faults at cycle 0 (flip before the first step), at golden_cycles
    // (never injected: the run halts first), and past it, mixed across all
    // three target kinds — block vs scalar, every workload.
    let config = CpuConfig::default();
    for program in workload::all() {
        let golden = run_golden(&program, &config);
        let protection = Protection::full(&program);
        let mut rng = Rng::from_seed(0xedce);
        let mut specs = Vec::new();
        for cycle in [
            0,
            1,
            golden.cycles,
            golden.cycles + 17,
            golden.cycles / 2,
            golden.cycles.saturating_sub(1),
        ] {
            for bit in [0u8, 5, 13, 31] {
                specs.push(FaultSpec {
                    target: FaultTarget::Register {
                        reg: Reg::new((rng.below(NUM_REGS as u64)) as u8).unwrap(),
                        bit,
                    },
                    cycle,
                });
                specs.push(FaultSpec {
                    target: FaultTarget::Pc { bit: bit % 16 },
                    cycle,
                });
                specs.push(FaultSpec {
                    target: FaultTarget::Memory {
                        addr: rng.below(config.memory_words as u64 + 4) as usize,
                        bit,
                    },
                    cycle,
                });
            }
        }
        assert!(specs.len() > MAX_LANES, "forces a ragged final block");
        let scalar = campaign_outcomes(
            &program,
            &config,
            &protection,
            &golden,
            &specs,
            1,
            Parallelism::serial(),
        );
        let lanes = run_fault_block(&program, &config, &protection, &golden, &specs[..MAX_LANES]);
        assert_eq!(&scalar[..MAX_LANES], &lanes[..], "{}", program.name);
        let all = campaign_outcomes(
            &program,
            &config,
            &protection,
            &golden,
            &specs,
            MAX_LANES,
            Parallelism::new(4),
        );
        assert_eq!(scalar, all, "{}", program.name);
    }
}
