//! `fault-learning`: exp-ff-vulnerability, exp-model-bakeoff,
//! exp-anomaly-detection, exp-selective-replication and exp-warningnet.
//! `lori-arch` injection campaigns feed a few classifier fits on large
//! datasets; no golden transient simulation runs here.

use crate::json;
use crate::trace::Recorder;
use lori_arch::cpu::{run_golden, Cpu, CpuConfig, Protection};
use lori_arch::isa::{Program, Reg, NUM_REGS};
use lori_arch::predict::{ff_vulnerability_dataset_with, instruction_sdc_dataset};
use lori_arch::protect::evaluate_protection;
use lori_arch::workload;
use lori_core::Rng;
use lori_ml::boost::{AdaBoost, AdaBoostConfig, GradientBoostClassifier, GradientBoostConfig};
use lori_ml::data::{Dataset, StandardScaler};
use lori_ml::knn::Knn;
use lori_ml::metrics::{accuracy, f1_score, precision, recall};
use lori_ml::mlp::{Mlp, MlpConfig};
use lori_ml::naive_bayes::GaussianNb;
use lori_ml::svm::{LinearSvm, SvmConfig};
use lori_ml::traits::Classifier;
use lori_ml::tree::{DecisionTree, TreeConfig};
use lori_par::Parallelism;

/// The 64-lane injection engine, `lori-arch`'s default width.
const LANES: usize = 64;
const ANOMALY_SEED: u64 = 5;
const ANOMALY_CORRUPTIONS: usize = 40;
const ANOMALY_STRIDE: u64 = 4;
const WARNING_SAMPLES: usize = 1200;
const WARNING_INPUTS: usize = 18;
const WARNING_TOLERANCE: u32 = 40;
const REPLICATION_TRIALS: usize = 600;

/// The seeded inputs of one pass.
pub struct Inputs {
    programs: Vec<Program>,
    cpu: CpuConfig,
    seed: u64,
    /// exp-warningnet's input-noise vectors, drawn in the binary's order,
    /// and the RNG state its train/test split continues from.
    warning_noise: Vec<Vec<i64>>,
    warning_rng: Rng,
}

pub fn setup(seed: u64) -> Inputs {
    let mut rng = Rng::from_seed(seed.wrapping_add(1));
    let warning_noise = (0..WARNING_SAMPLES)
        .map(|_| {
            let magnitude = if rng.bernoulli(0.5) {
                rng.uniform_in(0.0, 1.5)
            } else {
                rng.uniform_in(1.5, 8.0)
            };
            (0..WARNING_INPUTS)
                .map(|_| (rng.normal() * magnitude).round() as i64)
                .collect()
        })
        .collect();
    Inputs {
        programs: workload::all(),
        cpu: CpuConfig::default(),
        seed,
        warning_noise,
        warning_rng: rng,
    }
}

/// Runs the pass; returns `model_err`, the mean 5-fold CV error over the
/// bake-off models.
pub fn run(rec: &mut Recorder, inp: &Inputs, par: Parallelism) -> f64 {
    rec.step("step.exp-ff-vulnerability", |rec| {
        ff_vulnerability(rec, inp, par)
    });
    let err = rec
        .step("step.exp-model-bakeoff", |rec| bakeoff(rec, inp, par))
        .unwrap_or(f64::NAN);
    rec.step("step.exp-anomaly-detection", |rec| anomaly(rec, inp));
    rec.step("step.exp-selective-replication", |rec| {
        replication(rec, inp)
    });
    rec.step("step.exp-warningnet", |rec| warningnet(rec, inp));
    err
}

fn campaign(rec: &mut Recorder, inp: &Inputs, seed: u64, par: Parallelism) -> Option<Dataset> {
    let trials = 4;
    let ds = rec.try_call("arch.campaign", || {
        ff_vulnerability_dataset_with(&inp.programs, &inp.cpu, trials, 0.0, seed, LANES, par)
    })?;
    rec.add("arch.injections", (ds.len() * trials) as f64);
    Some(ds)
}

fn ff_vulnerability(rec: &mut Recorder, inp: &Inputs, par: Parallelism) -> Option<()> {
    let ds = campaign(rec, inp, inp.seed.wrapping_add(1), par)?;
    for &frac in &[0.1, 0.2, 0.5, 0.8] {
        let mut rng = Rng::from_seed(inp.seed.wrapping_add(7));
        let (train, test) = rec.try_call("ml.split", || ds.split(frac, &mut rng))?;
        let truth = test.class_targets();
        let knn = rec.try_call("ml.fit.knn", || Knn::fit(&train, 5))?;
        let pred = rec.call("ml.predict", || knn.predict_batch(test.features()));
        let acc = rec.ok("ml.metrics", accuracy(&truth, &pred))?;
        let f1 = rec.ok("ml.metrics", f1_score(&truth, &pred, 1))?;
        rec.digest.all([acc, f1]);
        // exp-ff-vulnerability reports NaN when the SVM cannot fit.
        let svm = rec.call("ml.fit.svm", || {
            LinearSvm::fit(&train, &SvmConfig::default())
        });
        if let Ok(svm) = svm {
            let pred = rec.call("ml.predict", || svm.predict_batch(test.features()));
            let acc = rec.ok("ml.metrics", accuracy(&truth, &pred))?;
            rec.digest.f64(acc);
        }
    }
    Some(())
}

type Fitted = (&'static str, Box<dyn Classifier>);

/// exp-model-bakeoff's seven models, each fit timed on its own.
fn fit_all(rec: &mut Recorder, train: &Dataset) -> Vec<Fitted> {
    fn boxed<M: Classifier + 'static>(
        r: Result<M, impl std::fmt::Debug>,
    ) -> Result<Box<dyn Classifier>, String> {
        r.map(|m| Box::new(m) as Box<dyn Classifier>)
            .map_err(|e| format!("{e:?}"))
    }
    type Fit<'a> = &'a dyn Fn() -> Result<Box<dyn Classifier>, String>;
    let fits: [(&str, &str, Fit); 7] = [
        ("naive bayes", "ml.fit.nb", &|| {
            boxed(GaussianNb::fit(train))
        }),
        ("kNN (k=5)", "ml.fit.knn", &|| boxed(Knn::fit(train, 5))),
        ("linear SVM", "ml.fit.svm", &|| {
            boxed(LinearSvm::fit(train, &SvmConfig::default()))
        }),
        ("decision tree", "ml.fit.tree", &|| {
            boxed(DecisionTree::fit(train, &TreeConfig::default()))
        }),
        ("MLP 16x16", "ml.fit.mlp", &|| {
            boxed(Mlp::fit(train, &MlpConfig::classifier(2)))
        }),
        ("AdaBoost", "ml.fit.adaboost", &|| {
            boxed(AdaBoost::fit(train, &AdaBoostConfig { rounds: 80 }))
        }),
        ("gradient boosting", "ml.fit.gboost", &|| {
            boxed(GradientBoostClassifier::fit(
                train,
                &GradientBoostConfig::default(),
            ))
        }),
    ];
    fits.into_iter()
        .filter_map(|(model, span, fit)| rec.try_call(span, fit).map(|m| (model, m)))
        .collect()
}

fn bakeoff(rec: &mut Recorder, inp: &Inputs, par: Parallelism) -> Option<f64> {
    let raw = campaign(rec, inp, inp.seed.wrapping_add(3), par)?;
    let scaler = rec.try_call("ml.scale", || StandardScaler::fit(&raw))?;
    let ds = scaler.transform(&raw);
    let mut rng = Rng::from_seed(inp.seed.wrapping_add(11));
    let folds = rec.try_call("ml.split", || ds.kfold(5, &mut rng))?;
    let mut table: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    for (train, val) in &folds {
        let truth = val.class_targets();
        for (model, m) in fit_all(rec, train) {
            rec.add("ml.cv.fits", 1.0);
            let pred = rec.call("ml.predict", || m.predict_batch(val.features()));
            let acc = rec.ok("ml.metrics", accuracy(&truth, &pred))?;
            table.entry(model).or_default().push(acc);
        }
    }
    let mut means: Vec<(&str, f64)> = table
        .iter()
        .map(|(m, accs)| (*m, accs.iter().sum::<f64>() / accs.len() as f64))
        .collect();
    for accs in table.values() {
        rec.digest.all(accs.iter().copied());
    }
    means.sort_by(|a, b| b.1.total_cmp(&a.1));
    rec.check(
        "bakeoff: a boosted ensemble ranks in the top 3",
        means
            .iter()
            .take(3)
            .any(|(m, _)| m.to_lowercase().contains("boost")),
    );
    Some(means.iter().map(|(_, acc)| 1.0 - acc).sum::<f64>() / means.len() as f64)
}

/// exp-anomaly-detection's register snapshots every `stride` instructions,
/// optionally with one register bit flipped at cycle `at`.
fn snapshots(
    program: &Program,
    cfg: &CpuConfig,
    corrupt: Option<(u8, u8, u64)>,
) -> Result<Vec<[u32; NUM_REGS]>, String> {
    let mut cpu = Cpu::new(program, cfg);
    let protection = Protection::none();
    let mut snaps = Vec::new();
    let mut cycle = 0u64;
    loop {
        if let Some((reg, bit, at)) = corrupt {
            if cycle == at {
                let reg = Reg::new(reg).map_err(|e| format!("{e:?}"))?;
                cpu.flip_register_bit(reg, bit);
            }
        }
        let info = cpu.step(program, &protection);
        if cycle.is_multiple_of(ANOMALY_STRIDE) {
            snaps.push(cpu.reg_snapshot());
        }
        cycle += 1;
        if info.stop.is_some() {
            return Ok(snaps);
        }
    }
}

fn to_row(s: &[u32; NUM_REGS]) -> Vec<f64> {
    s.iter().map(|&v| f64::from(v)).collect()
}

fn anomaly(rec: &mut Recorder, inp: &Inputs) -> Option<()> {
    let program = workload::checksum();
    let cfg = &inp.cpu;
    // The corruption schedule sets the dataset size (runs that crash early
    // yield fewer snapshots), so it stays at the exp-* seed to keep the
    // work per pass fixed; the run seed drives the MLP's init and shuffle.
    let mut rng = Rng::from_seed(ANOMALY_SEED);
    let clean = rec.try_call("arch.snapshots", || snapshots(&program, cfg, None))?;
    let mut rows: Vec<Vec<f64>> = clean.iter().map(to_row).collect();
    let mut labels = vec![0.0; rows.len()];
    let golden_cycles = rec.call("arch.golden", || run_golden(&program, cfg)).cycles;
    for _ in 0..ANOMALY_CORRUPTIONS {
        let reg = rng.below(8) as u8;
        let bit = rng.below(32) as u8;
        let at = rng.below(golden_cycles.max(2) / 2) + 4;
        let snaps = rec.try_call("arch.snapshots", || {
            snapshots(&program, cfg, Some((reg, bit, at)))
        })?;
        for (i, s) in snaps.iter().enumerate() {
            if i as u64 * ANOMALY_STRIDE > at {
                rows.push(to_row(s));
                labels.push(1.0);
            }
        }
    }
    let raw = rec.try_call("ml.dataset", || Dataset::from_rows(rows, labels))?;
    let scaler = rec.try_call("ml.scale", || StandardScaler::fit(&raw))?;
    let ds = scaler.transform(&raw);
    let (train, test) = rec.try_call("ml.split", || ds.split(0.7, &mut rng))?;

    let mut mlp_cfg = MlpConfig::classifier(2);
    mlp_cfg.hidden = vec![16, 16];
    mlp_cfg.seed = mlp_cfg.seed.wrapping_add(inp.seed);
    let mlp = rec.try_call("ml.detector.fit", || Mlp::fit(&train, &mlp_cfg))?;
    rec.add(
        "ml.detector.row_epochs",
        (train.len() * mlp_cfg.epochs) as f64,
    );
    let truth = test.class_targets();
    let preds = rec.call("ml.predict", || mlp.predict_batch(test.features()));
    let r = rec.ok("ml.metrics", recall(&truth, &preds, 1))?;
    let p = rec.ok("ml.metrics", precision(&truth, &preds, 1))?;
    let f1 = rec.ok("ml.metrics", f1_score(&truth, &preds, 1))?;
    rec.digest.all([r, p, f1]);
    rec.check("anomaly: detector recall above 0.9", r > 0.9);
    let metrics = json::obj([
        ("experiment", json::str("exp-anomaly-detection")),
        ("seed", ANOMALY_SEED.to_string()),
        ("test_samples", test.len().to_string()),
        ("recall", json::num(r)),
        ("precision", json::num(p)),
        ("f1", json::num(f1)),
        ("detector_parameters", mlp.parameter_count().to_string()),
    ]);
    rec.export("exp-anomaly-detection.metrics.json", metrics);
    Some(())
}

fn replication(rec: &mut Recorder, inp: &Inputs) -> Option<()> {
    let cfg = &inp.cpu;
    let trials_per_instr = 24;
    for program in &inp.programs {
        let ds = rec.try_call("arch.campaign", || {
            instruction_sdc_dataset(
                program,
                cfg,
                trials_per_instr,
                0.15,
                inp.seed.wrapping_add(1),
            )
        })?;
        rec.add("arch.injections", (program.len() * trials_per_instr) as f64);
        let classes = ds.class_targets();
        let selection: Vec<usize> =
            match rec.call("ml.fit.svm", || LinearSvm::fit(&ds, &SvmConfig::default())) {
                Ok(svm) => rec.call("ml.predict", || {
                    (0..program.len())
                        .filter(|&i| svm.predict(&ds.features()[i]) == 1)
                        .collect()
                }),
                // exp-selective-replication falls back to the labels when they
                // are all one class.
                Err(_) => (0..program.len()).filter(|&i| classes[i] == 1).collect(),
            };
        let selective = rec.try_call("arch.protection", || {
            Protection::for_instructions(program, selection.iter().copied())
        })?;
        for prot in [Protection::none(), selective, Protection::full(program)] {
            let report = rec.try_call("arch.campaign", || {
                evaluate_protection(
                    program,
                    cfg,
                    &prot,
                    REPLICATION_TRIALS,
                    inp.seed.wrapping_add(2),
                )
            })?;
            rec.add("arch.injections", REPLICATION_TRIALS as f64);
            rec.digest.all([
                report.overhead(),
                report.sdc_rate(),
                report.detection_rate(),
            ]);
        }
    }
    Some(())
}

/// exp-warningnet's oracle: does matmul, run on inputs perturbed by
/// `noise`, drift past the tolerance?
fn run_perturbed(noise: &[i64]) -> bool {
    let clean = workload::matmul();
    let golden = run_golden(&clean, &CpuConfig::default());
    let mut perturbed = clean.clone();
    for (w, &n) in perturbed.data.iter_mut().zip(noise) {
        *w = (i64::from(*w) + n).clamp(0, 4096) as u32;
    }
    let out = run_golden(&perturbed, &CpuConfig::default());
    golden
        .output
        .iter()
        .zip(&out.output)
        .any(|(&a, &b)| a.abs_diff(b) > WARNING_TOLERANCE)
}

fn warningnet(rec: &mut Recorder, inp: &Inputs) -> Option<()> {
    let ys: Vec<f64> = rec.call("arch.label", || {
        inp.warning_noise
            .iter()
            .map(|noise| f64::from(u8::from(run_perturbed(noise))))
            .collect()
    });
    let xs: Vec<Vec<f64>> = inp
        .warning_noise
        .iter()
        .map(|noise| noise.iter().map(|&n| n as f64).collect())
        .collect();
    let raw = rec.try_call("ml.dataset", || Dataset::from_rows(xs, ys))?;
    let scaler = rec.try_call("ml.scale", || StandardScaler::fit(&raw))?;
    let ds = scaler.transform(&raw);
    let mut rng = inp.warning_rng.clone();
    let (train, test) = rec.try_call("ml.split", || ds.split(0.7, &mut rng))?;
    let mut cfg = MlpConfig::classifier(2);
    cfg.hidden = vec![12, 12];
    let net = rec.try_call("ml.warningnet.fit", || Mlp::fit(&train, &cfg))?;
    let truth = test.class_targets();
    let preds = rec.call("ml.predict", || net.predict_batch(test.features()));
    let r = rec.ok("ml.metrics", recall(&truth, &preds, 1))?;
    let p = rec.ok("ml.metrics", precision(&truth, &preds, 1))?;
    rec.digest.all([r, p]);

    // exp-warningnet's cost comparison: warning queries vs task runs.
    let q = test.features().first()?.clone();
    rec.call("ml.predict", || {
        for _ in 0..1000 {
            std::hint::black_box(net.predict(&q));
        }
    });
    rec.call("arch.golden", || {
        for _ in 0..200 {
            std::hint::black_box(run_golden(&workload::matmul(), &CpuConfig::default()));
        }
    });
    Some(())
}
