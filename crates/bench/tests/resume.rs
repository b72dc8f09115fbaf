//! End-to-end robustness tests for the crash-safe sweep pipeline:
//! WAL-based resume is byte-identical, injected panics quarantine exactly
//! one point, a stale WAL never leaks into fresh results, and the
//! `exp-fig5` artifact is byte-identical across thread counts.
//!
//! The in-process tests mutate process-global state (`LORI_RESULTS_DIR`,
//! `LORI_RECOVERY`, the armed fault plan, the installed recorder), so each
//! one holds the shared lock for its whole body.

use lori_bench::resume::resumable_sweep;
use lori_bench::{Harness, SweepOutcome};
use lori_ftsched::montecarlo::SweepConfig;
use lori_ftsched::workload::adpcm_reference_trace;
use lori_obs::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, MutexGuard, OnceLock};

const AXIS: [f64; 5] = [1e-8, 1e-7, 1e-6, 5e-6, 1e-5];

fn quick_config() -> SweepConfig {
    SweepConfig {
        runs: 20,
        ..SweepConfig::paper()
    }
}

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lori-resume-{tag}-{}", std::process::id()))
}

/// One full experiment invocation against `dir`, like an `exp-*` binary.
fn run_in(dir: &Path, name: &str, config: &SweepConfig) -> SweepOutcome {
    std::env::set_var("LORI_RESULTS_DIR", dir);
    let trace = adpcm_reference_trace();
    let mut h = Harness::new(name, "T0", "resume integration test");
    let out = resumable_sweep(&mut h, &AXIS, &trace, config).expect("sweep");
    h.finish().expect("manifest written");
    std::env::remove_var("LORI_RESULTS_DIR");
    out
}

fn read_points(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(format!("{name}.points.json"))).expect("points artifact")
}

#[test]
fn killed_run_resumes_byte_identical() {
    let _serial = lock();
    let base = scratch("kill");
    let full_dir = base.join("full");
    let resumed_dir = base.join("resumed");
    let config = quick_config();

    // Reference: one uninterrupted run.
    let out = run_in(&full_dir, "exp-resume", &config);
    assert!(out.is_complete());
    assert_eq!(out.replayed, 0);
    let reference = read_points(&full_dir, "exp-resume");

    // Forge the on-disk state of a run killed after two points: complete a
    // run, then truncate its WAL to the header plus two entries and remove
    // the final artifact.
    let out = run_in(&resumed_dir, "exp-resume", &config);
    assert!(out.is_complete());
    let wal = resumed_dir.join("exp-resume.wal.jsonl");
    let text = std::fs::read_to_string(&wal).expect("wal");
    assert_eq!(
        text.lines().count(),
        1 + AXIS.len(),
        "header + one entry per point"
    );
    let kept: Vec<&str> = text.lines().take(3).collect();
    std::fs::write(&wal, format!("{}\n", kept.join("\n"))).unwrap();
    std::fs::remove_file(resumed_dir.join("exp-resume.points.json")).unwrap();

    // Restart: two points replay, three recompute, bytes match.
    let out = run_in(&resumed_dir, "exp-resume", &config);
    assert!(out.is_complete());
    assert_eq!(out.replayed, 2);
    assert_eq!(read_points(&resumed_dir, "exp-resume"), reference);

    // A rerun over a complete WAL recomputes nothing and rewrites the
    // same bytes.
    let out = run_in(&resumed_dir, "exp-resume", &config);
    assert_eq!(out.replayed, AXIS.len());
    assert_eq!(read_points(&resumed_dir, "exp-resume"), reference);

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn stale_wal_is_discarded_on_config_change() {
    let _serial = lock();
    let base = scratch("stale");
    let out = run_in(&base, "exp-stale", &quick_config());
    assert!(out.is_complete());

    // Same experiment name, different Monte Carlo depth: the fingerprint
    // header no longer matches, so nothing may replay.
    let changed = SweepConfig {
        runs: 10,
        ..SweepConfig::paper()
    };
    let out = run_in(&base, "exp-stale", &changed);
    assert!(out.is_complete());
    assert_eq!(out.replayed, 0, "stale WAL must not splice into new config");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn injected_panic_quarantines_one_point_and_spares_the_rest() {
    let _serial = lock();
    let base = scratch("quarantine");
    let clean_dir = base.join("clean");
    let faulted_dir = base.join("faulted");
    let config = quick_config();

    let out = run_in(&clean_dir, "exp-quar", &config);
    assert!(out.is_complete());

    std::env::set_var("LORI_RECOVERY", "quarantine:1");
    let plan = lori_fault::FaultPlan::parse("panic@sweep.point:2").unwrap();
    let guard = lori_fault::activate(&plan);
    let out = run_in(&faulted_dir, "exp-quar", &config);
    drop(guard);
    std::env::remove_var("LORI_RECOVERY");

    assert_eq!(out.failures.len(), 1);
    let failure = &out.failures[0];
    assert_eq!(failure.index, 2, "axis index, not missing-slice index");
    assert_eq!(failure.attempts, 2, "one retry before quarantine");
    assert!(
        failure.message.contains("sweep.point[2]"),
        "{}",
        failure.message
    );
    assert!(out.points[2].is_none());

    // Every surviving point is bit-identical to the clean run.
    let clean = Value::parse(&String::from_utf8(read_points(&clean_dir, "exp-quar")).unwrap())
        .expect("clean artifact parses");
    let faulted = Value::parse(&String::from_utf8(read_points(&faulted_dir, "exp-quar")).unwrap())
        .expect("faulted artifact parses");
    let clean_points = clean.get("points").and_then(Value::as_arr).unwrap();
    let faulted_points = faulted.get("points").and_then(Value::as_arr).unwrap();
    assert_eq!(clean_points.len(), AXIS.len());
    assert_eq!(faulted_points.len(), AXIS.len());
    for (i, (c, f)) in clean_points.iter().zip(faulted_points).enumerate() {
        if i == 2 {
            assert!(matches!(f, Value::Null), "quarantined slot must be null");
        } else {
            assert_eq!(c.to_json(), f.to_json(), "point {i} diverged");
        }
    }

    // The manifest names the quarantined point and the active policy.
    let manifest =
        std::fs::read_to_string(faulted_dir.join("exp-quar.manifest.json")).expect("manifest");
    let manifest = Value::parse(&manifest).expect("manifest parses");
    let cfg = manifest.get("config").expect("config block");
    let quarantined = cfg
        .get("quarantined_points")
        .and_then(Value::as_arr)
        .expect("quarantined_points recorded");
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].as_f64(), Some(2.0));
    let recovery = cfg.get("recovery").and_then(Value::as_str).unwrap_or("");
    assert!(recovery.contains("Quarantine"), "{recovery}");

    std::fs::remove_dir_all(&base).ok();
}

/// Inherited `LORI_*` knobs stripped from the spawned `exp-fig5` so the
/// test's own settings are the whole story.
const STRIPPED_KNOBS: [&str; 4] = [
    "LORI_THREADS",
    "LORI_FAULT_PLAN",
    "LORI_RECOVERY",
    "LORI_OBS",
];

#[test]
fn points_are_byte_identical_across_thread_counts() {
    let base = scratch("threads");
    let mut artifacts = Vec::new();
    for threads in ["1", "4"] {
        let dir = base.join(format!("threads-{threads}"));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp-fig5"));
        for knob in STRIPPED_KNOBS {
            cmd.env_remove(knob);
        }
        let out = cmd
            .env("LORI_RESULTS_DIR", &dir)
            .env("LORI_RUNS", "20")
            .env("LORI_THREADS", threads)
            .output()
            .expect("spawn exp-fig5");
        assert!(
            out.status.success(),
            "exp-fig5 at LORI_THREADS={threads} failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        artifacts.push(read_points(&dir, "exp-fig5"));
    }
    assert_eq!(
        artifacts[0], artifacts[1],
        "points.json diverged between LORI_THREADS=1 and 4"
    );

    std::fs::remove_dir_all(&base).ok();
}
