//! `system-sim`: exp-fig5, exp-fig6, exp-wall-sensitivity,
//! exp-learned-budgets, exp-dvfs-tradeoff, exp-mixed-criticality,
//! exp-replicas, exp-rl-manager, exp-mwtf-mapping, exp-hdc-aging and
//! exp-hdc-robustness: the Sec. V error-rate wall (`ftsched` Monte Carlo),
//! Sec. IV scheduling/DVFS/MTTF (`sys`) and HDC robustness/aging (`hdc`).
//! No golden transient and no tree or boost fit runs here.

use crate::trace::Recorder;
use lori_circuit::aging::{AgingModel, StressProfile};
use lori_core::mgmt::{evaluate, train, Agent, Environment, Transition};
use lori_core::units::{Celsius, Cycles, Probability, Seconds};
use lori_core::Rng;
use lori_ftsched::checkpoint::CheckpointSystem;
use lori_ftsched::learning::compare_ds_vs_learned;
use lori_ftsched::mitigation::{BudgetAlgorithm, MitigationSystem};
use lori_ftsched::montecarlo::{paper_probability_axis, sweep_with, SweepConfig, SweepPoint};
use lori_ftsched::wall::wall_sensitivity;
use lori_ftsched::workload::adpcm_reference_trace;
use lori_hdc::classifier::{HdcClassifier, HdcClassifierConfig};
use lori_hdc::noise::flip_components;
use lori_hdc::regressor::{HdcRegressor, HdcRegressorConfig};
use lori_ml::data::{Dataset, StandardScaler};
use lori_ml::metrics::r2;
use lori_ml::mlp::{Mlp, MlpConfig};
use lori_ml::rl::{QLearning, RlConfig};
use lori_ml::traits::Regressor;
use lori_par::Parallelism;
use lori_sys::manager::{DvfsEnvConfig, DvfsEnvironment};
use lori_sys::mapping::{evaluate_mapping, map_mwtf_aware, map_performance, vulnerability_samples};
use lori_sys::mixed_criticality::{Criticality, McSimulator, McTask, SwitchPolicy};
use lori_sys::platform::{CoreKind, Platform};
use lori_sys::replication::{ReplicaManager, ReplicaManagerConfig};
use lori_sys::sched::{Governor, Mapping, SimConfig, Simulator};
use lori_sys::ser::SerModel;
use lori_sys::task::{generate_task_set, Task};

const HDC_ERROR_RATES: [f64; 8] = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.48];

type Blobs = (Vec<Vec<f64>>, Vec<usize>);

/// The seeded inputs of one pass.
pub struct Inputs {
    seed: u64,
    trace: Vec<Cycles>,
    axis: Vec<f64>,
    sweep: SweepConfig,
    wall: SweepConfig,
    dvfs_tasks: Vec<Task>,
    rl_tasks: Vec<Task>,
    mwtf_tasks: Vec<Task>,
    mwtf_train_tasks: Vec<Task>,
    mwtf_rng: Rng,
    /// exp-hdc-aging's (duty, activity, temperature, years) draws.
    aging_draws: Vec<[f64; 4]>,
    hdc_train: Blobs,
    hdc_test: Blobs,
}

/// exp-hdc-robustness's five 3-D Gaussian classes.
fn blobs(n: usize, seed: u64) -> Blobs {
    let mut rng = Rng::from_seed(seed);
    let centers = [
        (0.0, 0.0, 1.0),
        (4.0, 4.0, -1.0),
        (0.0, 4.0, 2.0),
        (4.0, 0.0, -2.0),
        (2.0, 2.0, 4.0),
    ];
    (0..n)
        .map(|_| {
            let c = rng.below(centers.len() as u64) as usize;
            let (cx, cy, cz) = centers[c];
            let x = vec![
                rng.normal_with(cx, 0.45),
                rng.normal_with(cy, 0.45),
                rng.normal_with(cz, 0.45),
            ];
            (x, c)
        })
        .unzip()
}

pub fn setup(seed: u64) -> Result<Inputs, String> {
    let err = |e: lori_sys::SysError| e.to_string();
    let paper = SweepConfig::paper();
    let sweep = SweepConfig {
        seed: paper.seed.wrapping_add(seed),
        ..paper
    };
    let wall = SweepConfig {
        runs: 40,
        ..sweep.clone()
    };
    let mut dvfs_rng = Rng::from_seed(seed.wrapping_add(1));
    let mut rl_rng = Rng::from_seed(seed.wrapping_add(3));
    let mut mwtf_rng = Rng::from_seed(seed.wrapping_add(2));
    let mwtf_tasks = generate_task_set(10, 1.4, 1.6e6, (10.0, 80.0), &mut mwtf_rng).map_err(err)?;
    let mwtf_train_tasks =
        generate_task_set(40, 4.0, 1.6e6, (10.0, 80.0), &mut mwtf_rng).map_err(err)?;
    let mut aging_rng = Rng::from_seed(seed.wrapping_add(1));
    let aging_draws = (0..3500)
        .map(|_| {
            [
                aging_rng.uniform_in(0.05, 0.95),
                aging_rng.uniform_in(0.01, 0.8),
                aging_rng.uniform_in(40.0, 120.0),
                aging_rng.uniform_in(0.5, 10.0),
            ]
        })
        .collect();
    Ok(Inputs {
        seed,
        trace: adpcm_reference_trace(),
        axis: paper_probability_axis(),
        sweep,
        wall,
        dvfs_tasks: generate_task_set(6, 0.9, 1.6e6, (10.0, 60.0), &mut dvfs_rng).map_err(err)?,
        rl_tasks: generate_task_set(6, 0.8, 1.6e6, (10.0, 60.0), &mut rl_rng).map_err(err)?,
        mwtf_tasks,
        mwtf_train_tasks,
        mwtf_rng,
        aging_draws,
        hdc_train: blobs(1500, seed.wrapping_add(1)),
        hdc_test: blobs(600, seed.wrapping_add(2)),
    })
}

/// Runs the pass; returns `model_err`, the HDC classification error
/// averaged over the noise-sweep rates.
pub fn run(rec: &mut Recorder, inp: &Inputs, par: Parallelism) -> f64 {
    rec.step("step.exp-fig5", |rec| fig5(rec, inp, par));
    rec.step("step.exp-fig6", |rec| fig6(rec, inp, par));
    rec.step("step.exp-wall-sensitivity", |rec| wall(rec, inp));
    rec.step("step.exp-learned-budgets", |rec| budgets(rec, inp));
    rec.step("step.exp-dvfs-tradeoff", |rec| dvfs(rec, inp));
    rec.step("step.exp-mixed-criticality", |rec| {
        mixed_criticality(rec, inp)
    });
    rec.step("step.exp-replicas", |rec| replicas(rec, inp));
    rec.step("step.exp-rl-manager", |rec| rl_manager(rec, inp));
    rec.step("step.exp-mwtf-mapping", |rec| mwtf(rec, inp));
    rec.step("step.exp-hdc-aging", |rec| hdc_aging(rec, inp));
    rec.step("step.exp-hdc-robustness", |rec| hdc_robustness(rec, inp))
        .unwrap_or(f64::NAN)
}

fn sweep(rec: &mut Recorder, inp: &Inputs, par: Parallelism) -> Option<Vec<SweepPoint>> {
    let points = rec.try_call("ftsched.sweep", || {
        inp.sweep.validate(&inp.axis, &inp.trace)?;
        sweep_with(&inp.axis, &inp.trace, &inp.sweep, par)
    })?;
    rec.add("ftsched.mc_runs", (inp.axis.len() * inp.sweep.runs) as f64);
    for pt in &points {
        rec.digest.all([
            pt.p,
            pt.avg_rollbacks_per_segment,
            pt.rollbacks_std,
            pt.cycle_overhead,
        ]);
        rec.digest.all(pt.hit_rate);
    }
    Some(points)
}

fn fig5(rec: &mut Recorder, inp: &Inputs, par: Parallelism) -> Option<()> {
    let points = sweep(rec, inp, par)?;
    let at_1e6 = points.iter().find(|p| (p.p - 1e-6).abs() < 1e-12);
    rec.check(
        "fig5: rollbacks below 1/segment at p=1e-6",
        at_1e6.is_some_and(|p| p.avg_rollbacks_per_segment < 1.0),
    );
    rec.check(
        "fig5: >10 rollbacks/segment past 1e-5",
        points
            .iter()
            .any(|p| p.p > 1e-5 && p.avg_rollbacks_per_segment > 10.0),
    );
    Some(())
}

fn fig6(rec: &mut Recorder, inp: &Inputs, par: Parallelism) -> Option<()> {
    let points = sweep(rec, inp, par)?;
    let (low, high) = (points.first()?, points.last()?);
    rec.check(
        "fig6: every algorithm near 1.0 at the lowest p",
        low.hit_rate.iter().all(|&h| h > 0.99),
    );
    rec.check(
        "fig6: every algorithm near 0.0 at the highest p",
        high.hit_rate.iter().all(|&h| h < 0.05),
    );
    rec.check(
        "fig6: a window where WCET beats DS by >0.2",
        points
            .iter()
            .any(|pt| pt.hit_rate[3] - pt.hit_rate[0] > 0.2),
    );
    Some(())
}

fn wall(rec: &mut Recorder, inp: &Inputs) -> Option<()> {
    let rows = rec.try_call("ftsched.wall", || {
        inp.wall.validate(&[1e-8, 1e-4], &inp.trace)?;
        wall_sensitivity(&inp.trace, &inp.wall, &[1.1, 1.3, 1.6, 2.0], &[1, 2, 4, 8])
    })?;
    for r in &rows {
        rec.digest.all(r.wall_p);
    }
    Some(())
}

fn budgets(rec: &mut Recorder, inp: &Inputs) -> Option<()> {
    let cp = CheckpointSystem::default();
    let mitigation = MitigationSystem::new(BudgetAlgorithm::Ds);
    for p in [1e-7, 1e-6, 3e-6, 6e-6, 1e-5] {
        let cmp = rec.try_call("ftsched.budgets", || {
            compare_ds_vs_learned(&inp.trace, p, &cp, &mitigation, 8, inp.seed.wrapping_add(1))
        })?;
        rec.digest.all([
            cmp.ds_hit_rate,
            cmp.learned_hit_rate,
            cmp.ds_mean_budget,
            cmp.learned_mean_budget,
        ]);
    }
    Some(())
}

fn dvfs(rec: &mut Recorder, inp: &Inputs) -> Option<()> {
    let platform = rec.try_call("sys.platform", || {
        Platform::homogeneous(CoreKind::Little, 2)
    })?;
    let mapping = Mapping::round_robin(inp.dvfs_tasks.len(), 2);
    for level in 0..5 {
        let config = SimConfig {
            governor: Governor::Fixed(level),
            ..SimConfig::default()
        };
        let r = rec.try_call("sys.sched", || {
            let mut sim = Simulator::new(
                platform.clone(),
                inp.dvfs_tasks.clone(),
                mapping.clone(),
                config,
            )?;
            sim.run_for(10_000.0);
            Ok::<_, lori_sys::SysError>(sim.report())
        })?;
        rec.digest.all([
            r.metrics.energy_j,
            r.avg_peak_temp.value(),
            r.metrics.miss_rate(),
            r.metrics.expected_soft_errors,
            r.mttf_estimate.as_years(),
        ]);
    }
    Some(())
}

fn mixed_criticality(rec: &mut Recorder, inp: &Inputs) -> Option<()> {
    let tasks = || -> Result<Vec<McTask>, lori_sys::SysError> {
        Ok(vec![
            McTask::new(0, Criticality::Hi, 10.0, 2.0, 5.0)?,
            McTask::new(1, Criticality::Hi, 25.0, 4.0, 9.0)?,
            McTask::new(2, Criticality::Lo, 5.0, 1.0, 1.0)?,
            McTask::new(3, Criticality::Lo, 8.0, 1.5, 1.5)?,
            McTask::new(4, Criticality::Lo, 12.0, 2.0, 2.0)?,
        ])
    };
    for p in [0.0, 0.05, 0.2, 0.4] {
        for policy in [
            SwitchPolicy::Reactive,
            SwitchPolicy::Proactive { threshold: 0.12 },
        ] {
            let r = rec.try_call("sys.mixed_criticality", || {
                let sim = McSimulator::new(tasks()?, p, policy)?;
                Ok::<_, lori_sys::SysError>(
                    sim.run(20_000.0, &mut Rng::from_seed(inp.seed.wrapping_add(1))),
                )
            })?;
            rec.digest.all(
                [
                    r.hi_missed,
                    r.lo_completed,
                    r.mode_switches,
                    r.hi_mode_quanta,
                ]
                .map(|v| v as f64),
            );
        }
    }
    Some(())
}

fn replicas(rec: &mut Recorder, inp: &Inputs) -> Option<()> {
    let jobs = 4000;
    let seed = inp.seed.wrapping_add(7);
    for true_p in [1e-4, 0.03] {
        for replicas in [1u32, 3, 7] {
            let failures = rec.call("sys.replication", || {
                let mut rng = Rng::from_seed(seed);
                (0..jobs)
                    .filter(|_| {
                        let failed = (0..replicas).filter(|_| rng.bernoulli(true_p)).count();
                        failed * 2 >= replicas as usize
                    })
                    .count()
            });
            rec.digest.f64(failures as f64);
        }
        let (failures, execs, settled) = rec.try_call("sys.replication", || {
            let mut rng = Rng::from_seed(seed);
            let mut mgr = ReplicaManager::new(ReplicaManagerConfig::default())?;
            let (f, e) = mgr.run_adaptive(Probability::saturating(true_p), jobs, &mut rng);
            Ok::<_, lori_sys::SysError>((f, e, mgr.recommended_replicas()))
        })?;
        rec.digest
            .all([failures as f64, execs as f64, f64::from(settled)]);
    }
    Some(())
}

/// exp-rl-manager's static-level baseline agent.
struct Fixed(usize);
impl Agent for Fixed {
    fn act(&mut self, _s: usize) -> usize {
        self.0
    }
    fn best_action(&self, _s: usize) -> usize {
        self.0
    }
    fn learn(&mut self, _s: usize, _a: usize, _t: &Transition) {}
}

fn rl_manager(rec: &mut Recorder, inp: &Inputs) -> Option<()> {
    let mut env = rec.try_call("sys.rl.env", || {
        let platform = Platform::homogeneous(CoreKind::Little, 2)?;
        let mapping = Mapping::round_robin(inp.rl_tasks.len(), 2);
        DvfsEnvironment::new(
            platform,
            inp.rl_tasks.clone(),
            mapping,
            SimConfig::default(),
            DvfsEnvConfig::default(),
        )
    })?;
    let mut agent = rec.try_call("ml.rl.agent", || {
        QLearning::new(env.state_count(), env.action_count(), RlConfig::default())
    })?;
    let report = rec.call("ml.rl.train", || train(&mut env, &mut agent, 150, 40));
    rec.digest.all(report.episode_rewards.iter().copied());
    let learned = rec.call("sys.rl.evaluate", || evaluate(&mut env, &agent, 5, 40));
    rec.digest.f64(learned);
    for level in 0..env.action_count() {
        let r = rec.call("sys.rl.evaluate", || {
            evaluate(&mut env, &Fixed(level), 5, 40)
        });
        rec.digest.f64(r);
    }
    Some(())
}

fn mwtf(rec: &mut Recorder, inp: &Inputs) -> Option<()> {
    let platform = Platform::big_little_2x2();
    let ser = SerModel::default();
    let mut rng = inp.mwtf_rng.clone();
    let (xs, ys) = rec.call("sys.mapping.samples", || {
        vulnerability_samples(&platform, &inp.mwtf_train_tasks, &ser, 0.1, &mut rng)
    });
    let ys: Vec<f64> = ys.iter().map(|&y| y * 1.0e6).collect();
    let raw = rec.try_call("ml.dataset", || Dataset::from_rows(xs, ys))?;
    let scaler = rec.try_call("ml.scale", || StandardScaler::fit(&raw))?;
    let ds = scaler.transform(&raw);
    let mut cfg = MlpConfig::regressor();
    cfg.epochs = 400;
    let nn = rec.try_call("ml.mwtf.fit", || Mlp::fit(&ds, &cfg))?;
    let preds: Vec<f64> = rec.call("ml.predict", || {
        ds.features().iter().map(|x| nn.predict(x)).collect()
    });
    let fit = rec.ok("ml.metrics", r2(ds.targets(), &preds))?;
    rec.digest.f64(fit);
    let tasks = &inp.mwtf_tasks;
    let candidates = [
        Mapping::round_robin(tasks.len(), platform.core_count()),
        rec.call("sys.mapping", || map_performance(&platform, tasks)),
        rec.call("sys.mapping", || map_mwtf_aware(&platform, tasks, &ser)),
    ];
    for mapping in &candidates {
        let r = rec.try_call("sys.mapping", || {
            evaluate_mapping(&platform, tasks, mapping, &ser)
        })?;
        rec.digest
            .all([r.system_mwtf, r.failures_per_hour, r.max_core_utilization]);
    }
    Some(())
}

fn hdc_aging(rec: &mut Recorder, inp: &Inputs) -> Option<()> {
    let physics = AgingModel::default();
    let samples: Vec<(Vec<f64>, f64)> = rec.try_call("circuit.aging", || {
        inp.aging_draws
            .iter()
            .map(|&[duty, act, temp, years]| {
                let stress = StressProfile::new(duty, act, Celsius(temp))?;
                let dvth = physics
                    .delta_vth(&stress, Seconds::from_years(years))
                    .value();
                Ok::<_, lori_circuit::CircuitError>((vec![duty, act, temp, years], dvth))
            })
            .collect::<Result<_, _>>()
    })?;
    let (train, test) = samples.split_at(3000);
    let (train_x, train_y): (Vec<_>, Vec<_>) = train.iter().cloned().unzip();
    let (test_x, test_y): (Vec<_>, Vec<_>) = test.iter().cloned().unzip();
    let config = HdcRegressorConfig {
        dim: 8192,
        levels: 48,
        buckets: 32,
        ..HdcRegressorConfig::default()
    };
    let model = rec.try_call("hdc.regressor.fit", || {
        HdcRegressor::fit(&train_x, &train_y, &config)
    })?;
    let preds: Vec<f64> = rec.call("hdc.regressor.predict", || {
        test_x.iter().map(|x| model.predict(x)).collect()
    });
    let fit = rec.ok("ml.metrics", r2(&test_y, &preds))?;
    rec.digest.f64(fit);
    Some(())
}

fn hdc_robustness(rec: &mut Recorder, inp: &Inputs) -> Option<f64> {
    let (train_x, train_y) = &inp.hdc_train;
    let (test_x, test_y) = &inp.hdc_test;
    let config = HdcClassifierConfig {
        dim: 8192,
        ..HdcClassifierConfig::default()
    };
    let clf = rec.try_call("hdc.fit", || HdcClassifier::fit(train_x, train_y, &config))?;
    let mut rng = Rng::from_seed(inp.seed.wrapping_add(3));
    let accs: Vec<f64> = rec.call("hdc.noise_sweep", || {
        HDC_ERROR_RATES
            .iter()
            .map(|&rate| {
                let correct = test_x
                    .iter()
                    .zip(test_y)
                    .filter(|(x, &y)| {
                        let noisy = flip_components(&clf.encode(x), rate, &mut rng);
                        clf.classify_encoded(&noisy) == y
                    })
                    .count();
                correct as f64 / test_x.len() as f64
            })
            .collect()
    });
    rec.add(
        "hdc.classifications",
        (HDC_ERROR_RATES.len() * test_x.len()) as f64,
    );
    rec.digest.all(accs.iter().copied());
    let at_40 = HDC_ERROR_RATES.iter().position(|&r| r == 0.4)?;
    rec.check(
        "hdc: accuracy drop at 40% error rate below 5 pp",
        (accs[0] - accs[at_40]) * 100.0 < 5.0,
    );
    Some(accs.iter().map(|a| 1.0 - a).sum::<f64>() / accs.len() as f64)
}
