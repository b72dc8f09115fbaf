//! `perfbench pass`: one timed pass of one benchmark workload.
//!
//! ```text
//! perfbench pass --workload <surrogate-flow|fault-learning|system-sim>
//!                [--seed <n>] [--threads <n>] [--setup-only] [--traced]
//!                [--trace-out <file>] [--export <dir>]
//! ```
//!
//! The pass builds its inputs from the seed (`--setup-only` stops here),
//! then runs the workload's exp-* science once by calling the library
//! crates directly. It prints one JSON record on
//! stdout: wall and setup times, `model_err`, op counts, shape checks, an
//! output digest, and — with `--traced` — the per-layer metrics of the
//! traced run. `run.py` drives passes and aggregates them.

mod fault;
mod json;
mod surrogate;
mod system;
mod trace;

use std::time::Instant;
use trace::{Recorder, COUNTERS};

const WORKLOADS: [&str; 3] = ["surrogate-flow", "fault-learning", "system-sim"];

struct Args {
    workload: String,
    seed: u64,
    threads: usize,
    traced: bool,
    setup_only: bool,
    trace_out: Option<String>,
    export: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    if it.next().as_deref() != Some("pass") {
        return Err("usage: perfbench pass --workload <name> [options]".into());
    }
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        traced: false,
        setup_only: false,
        trace_out: None,
        export: None,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--traced" => args.traced = true,
            "--setup-only" => args.setup_only = true,
            _ => {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
                match flag.as_str() {
                    "--workload" => args.workload = value,
                    "--seed" => args.seed = num(&value)?,
                    "--threads" => args.threads = num(&value)?.max(1) as usize,
                    "--trace-out" => args.trace_out = Some(value),
                    "--export" => args.export = Some(value),
                    other => return Err(format!("unknown flag {other}")),
                }
            }
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Builds the inputs, then (unless `setup_only`) runs the pass. Returns
/// (setup seconds, pass wall seconds, model_err).
fn timed<I>(
    rec: &mut Recorder,
    setup_only: bool,
    setup: impl FnOnce() -> Result<I, String>,
    run: impl FnOnce(&mut Recorder, &I) -> f64,
) -> Result<(f64, f64, f64), String> {
    let t = Instant::now();
    let inputs = std::hint::black_box(setup()?);
    let setup_s = t.elapsed().as_secs_f64();
    if setup_only {
        return Ok((setup_s, 0.0, 0.0));
    }
    let t = Instant::now();
    let model_err = run(rec, &inputs);
    Ok((setup_s, t.elapsed().as_secs_f64(), model_err))
}

type Metrics = Vec<(&'static str, f64)>;

/// The per-layer metrics of a traced pass, split into exact counts (which
/// must repeat across passes and thread counts) and timings.
fn layer_metrics(rec: &Recorder) -> (Metrics, Metrics) {
    let s = |name| rec.self_secs(name);
    let total = |counter| rec.counter_in(None, counter);
    let count = |name| rec.counts.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let golden_s = s("circuit.golden");
    let golden_steps = rec.counter_in(Some("circuit.golden"), "circuit.transient.steps");
    let ns_per_step = ratio(golden_s * 1e9, golden_steps);
    let train_s = s("circuit.mlchar.train");
    let train_steps = rec.counter_in(Some("circuit.mlchar.train"), "circuit.transient.steps");
    let (hits, misses) = (total("cache.hits"), total("cache.misses"));

    let counts = vec![
        ("circuit.mlchar.models", count("circuit.mlchar.models")),
        ("circuit.mlchar.train.golden_steps", train_steps),
        (
            "circuit.golden.sims",
            rec.counter_in(Some("circuit.golden"), "cache.misses"),
        ),
        ("circuit.golden.transient_steps", golden_steps),
        ("circuit.sta.instances", total("circuit.sta.instances")),
        ("circuit.sta.retimed", total("circuit.sta.retimed")),
        ("cache.hits", hits),
        ("cache.misses", misses),
        ("cache.hit_rate", ratio(hits, hits + misses)),
        ("ml.cv.fits", count("ml.cv.fits")),
        ("arch.injections", count("arch.injections")),
        ("ftsched.mc_runs", count("ftsched.mc_runs")),
        ("ftsched.rollbacks", total("ftsched.rollbacks")),
        ("ftsched.deadline_misses", total("ftsched.deadline_misses")),
        ("sys.dvfs.actuations", total("sys.dvfs.actuations")),
        ("sys.mapping.evaluations", total("sys.mapping.evaluations")),
        ("hdc.classifications", count("hdc.classifications")),
    ];
    let times = vec![
        ("circuit.characterize.s", s("circuit.characterize")),
        ("circuit.netlist.s", s("circuit.netlist")),
        ("circuit.sta.s", s("circuit.sta")),
        ("circuit.mlchar.train.s", train_s),
        (
            "circuit.mlchar.train.fit_est_s",
            train_s - train_steps * ns_per_step * 1e-9,
        ),
        ("circuit.golden.s", golden_s),
        ("circuit.golden.ns_per_step", ns_per_step),
        ("circuit.mlchar.predict.s", s("circuit.mlchar.predict")),
        (
            "circuit.ml_speedup",
            ratio(golden_s, s("circuit.mlchar.predict")),
        ),
        ("circuit.she_flow.s", s("circuit.she_flow")),
        ("circuit.aging.s", s("circuit.aging")),
        ("ml.fit.nb.s", s("ml.fit.nb")),
        ("ml.fit.knn.s", s("ml.fit.knn")),
        ("ml.fit.svm.s", s("ml.fit.svm")),
        ("ml.fit.tree.s", s("ml.fit.tree")),
        ("ml.fit.mlp.s", s("ml.fit.mlp")),
        ("ml.fit.adaboost.s", s("ml.fit.adaboost")),
        ("ml.fit.gboost.s", s("ml.fit.gboost")),
        ("ml.predict.s", s("ml.predict")),
        ("ml.detector.fit.s", s("ml.detector.fit")),
        (
            "ml.detector.row_epochs_per_s",
            ratio(count("ml.detector.row_epochs"), s("ml.detector.fit")),
        ),
        ("ml.warningnet.fit.s", s("ml.warningnet.fit")),
        ("ml.rl.train.s", s("ml.rl.train")),
        ("ml.mwtf.fit.s", s("ml.mwtf.fit")),
        ("arch.campaign.s", s("arch.campaign")),
        (
            "arch.injections_per_s",
            ratio(count("arch.injections"), s("arch.campaign")),
        ),
        ("arch.snapshots.s", s("arch.snapshots")),
        ("arch.label.s", s("arch.label")),
        ("ftsched.sweep.s", s("ftsched.sweep")),
        (
            "ftsched.mc_runs_per_s",
            ratio(count("ftsched.mc_runs"), s("ftsched.sweep")),
        ),
        ("ftsched.wall.s", s("ftsched.wall")),
        ("ftsched.budgets.s", s("ftsched.budgets")),
        ("sys.sched.s", s("sys.sched")),
        ("sys.mixed_criticality.s", s("sys.mixed_criticality")),
        ("sys.replication.s", s("sys.replication")),
        ("sys.mapping.s", s("sys.mapping") + s("sys.mapping.samples")),
        ("sys.rl.evaluate.s", s("sys.rl.evaluate")),
        ("hdc.fit.s", s("hdc.fit")),
        ("hdc.noise_sweep.s", s("hdc.noise_sweep")),
        ("hdc.regressor.fit.s", s("hdc.regressor.fit")),
        ("hdc.regressor.predict.s", s("hdc.regressor.predict")),
    ];
    (counts, times)
}

fn metric_obj(ms: &Metrics) -> String {
    json::obj(ms.iter().map(|(k, v)| (*k, json::num(*v))))
}

/// The in-memory span list, written when the pass ends.
fn trace_json(rec: &Recorder, context: &str) -> String {
    let spans = rec.spans.iter().map(|sp| {
        let counters = COUNTERS
            .iter()
            .zip(&sp.counters)
            .filter(|(_, d)| **d > 0)
            .map(|(c, d)| (*c, d.to_string()));
        json::obj([
            ("name", json::str(sp.name)),
            ("parent", sp.parent.map_or("null".into(), |p| p.to_string())),
            ("start_ns", sp.start_ns.to_string()),
            ("end_ns", sp.end_ns.to_string()),
            ("counters", json::obj(counters)),
        ])
    });
    let spans: Vec<String> = spans.collect();
    json::obj([
        ("context", context.to_owned()),
        ("spans", format!("[\n{}\n]", spans.join(",\n"))),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let par = lori_par::Parallelism::new(args.threads);
    let seed = args.seed;
    let mut rec = Recorder::new(args.traced);
    let only = args.setup_only;
    let result = match args.workload.as_str() {
        "surrogate-flow" => timed(
            &mut rec,
            only,
            || Ok(surrogate::setup(seed)),
            |r, i| surrogate::run(r, i, par),
        ),
        "fault-learning" => timed(
            &mut rec,
            only,
            || Ok(fault::setup(seed)),
            |r, i| fault::run(r, i, par),
        ),
        _ => timed(
            &mut rec,
            only,
            || system::setup(seed),
            |r, i| system::run(r, i, par),
        ),
    };
    let (setup_s, wall_s, model_err) = match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: setup failed: {e}");
            std::process::exit(1);
        }
    };
    if args.setup_only {
        println!("{}", json::obj([("setup_s", json::num(setup_s))]));
        return;
    }
    if !model_err.is_finite() {
        rec.check("model_err is finite", false);
    }

    let context = json::obj([
        ("workload", json::str(&args.workload)),
        ("seed", seed.to_string()),
        (
            "cores",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("threads", args.threads.to_string()),
        ("global_threads", lori_par::global().threads().to_string()),
        ("cache_mode", json::str("mem, cold per exp-* step")),
    ]);
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, trace_json(&rec, &context)) {
            eprintln!("perfbench: trace not written to {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(dir) = &args.export {
        for (file, body) in &rec.exports {
            let path = std::path::Path::new(dir).join(file);
            if let Err(e) = std::fs::write(&path, format!("{body}\n")) {
                eprintln!("perfbench: {} not written: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    let (counts, times) = if args.traced {
        layer_metrics(&rec)
    } else {
        (Vec::new(), Vec::new())
    };
    let checks = rec.checks.iter().map(|(name, ok)| (*name, ok.to_string()));
    let steps = rec.spans.iter().filter(|sp| sp.parent.is_none()).map(|sp| {
        let counters = COUNTERS
            .iter()
            .zip(&sp.counters)
            .map(|(c, d)| (*c, d.to_string()));
        (sp.name, json::obj(counters))
    });
    let record = json::obj([
        ("context", context),
        ("setup_s", json::num(setup_s)),
        ("wall_s", json::num(wall_s)),
        ("model_err", json::num(model_err)),
        ("attempted", rec.attempted.to_string()),
        ("failed", rec.failed.to_string()),
        ("checks", json::obj(checks)),
        ("errors", json::strs(&rec.errors)),
        ("digest", json::str(&rec.digest.hex())),
        ("absent_counters", json::strs(Recorder::absent_counters())),
        ("step_counters", json::obj(steps)),
        ("layer_counts", metric_obj(&counts)),
        ("layer_times", metric_obj(&times)),
    ]);
    println!("{record}");
}
