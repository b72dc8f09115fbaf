//! End-to-end tests of the `lori-report` binary: real process, real files,
//! real exit codes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_lori-report")
}

fn run(args: &[&str], dir: &Path) -> Output {
    Command::new(bin())
        .args(args)
        .args(["--results-dir", dir.to_str().unwrap()])
        .output()
        .expect("spawn lori-report")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lori-report-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const EVENTS: &str = concat!(
    "{\"ev\":\"enter\",\"name\":\"sweep\",\"t_ns\":1000,\"tid\":0,\"depth\":0}\n",
    "{\"ev\":\"enter\",\"name\":\"point\",\"t_ns\":1500,\"tid\":0,\"depth\":1,\"attr\":0.5}\n",
    "{\"ev\":\"exit\",\"name\":\"point\",\"t_ns\":4000,\"tid\":0,\"depth\":1,\"dur_ns\":2500}\n",
    "{\"ev\":\"enter\",\"name\":\"point\",\"t_ns\":4100,\"tid\":1,\"depth\":0}\n",
    "{\"ev\":\"gauge\",\"name\":\"loss\",\"t_ns\":4200,\"value\":0.25}\n",
    "{\"ev\":\"exit\",\"name\":\"point\",\"t_ns\":5000,\"tid\":1,\"depth\":0,\"dur_ns\":900}\n",
    "{\"ev\":\"exit\",\"name\":\"sweep\",\"t_ns\":9000,\"tid\":0,\"depth\":0,\"dur_ns\":8000}\n",
);

#[test]
fn profile_writes_deterministic_artifacts() {
    let dir = tmp_dir("profile");
    std::fs::write(dir.join("exp-unit.events.jsonl"), EVENTS).unwrap();

    let out1 = run(&["profile", "exp-unit"], &dir);
    assert!(out1.status.success(), "stderr: {}", text(&out1.stderr));
    let profile1 = std::fs::read(dir.join("exp-unit.profile.json")).unwrap();
    let folded1 = std::fs::read_to_string(dir.join("exp-unit.folded")).unwrap();

    let out2 = run(&["profile", "exp-unit"], &dir);
    assert!(out2.status.success());
    let profile2 = std::fs::read(dir.join("exp-unit.profile.json")).unwrap();
    let folded2 = std::fs::read_to_string(dir.join("exp-unit.folded")).unwrap();

    assert_eq!(profile1, profile2, "profile output must be byte-identical");
    assert_eq!(folded1, folded2);

    // Folded format: `stack self_ns` lines, semicolon-joined frames —
    // exactly what inferno/speedscope ingest.
    for line in folded1.lines() {
        let (stack, n) = line.rsplit_once(' ').expect("stack <space> number");
        assert!(!stack.is_empty());
        n.parse::<u64>().expect("self time is an integer");
    }
    assert!(folded1.contains("sweep;point "));
    // Self time of 'sweep' excludes its nested point: 8000 - 2500 = 5500.
    assert!(
        folded1.lines().any(|l| l == "sweep 5500"),
        "folded:\n{folded1}"
    );

    let json = text(&profile1);
    assert!(json.contains("\"critical_path\""));
    assert!(json.contains("\"sweep\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_rejects_corrupt_stream_with_line_number() {
    let dir = tmp_dir("corrupt");
    std::fs::write(
        dir.join("exp-bad.events.jsonl"),
        "{\"ev\":\"exit\",\"name\":\"x\",\"t_ns\":1,\"tid\":0,\"depth\":0,\"dur_ns\":1}\n",
    )
    .unwrap();
    let out = run(&["profile", "exp-bad"], &dir);
    assert_eq!(out.status.code(), Some(2));
    let err = text(&out.stderr);
    assert!(err.contains("line 1"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_record(wall_s: f64, per_s: f64) -> String {
    format!(
        "{{\"bench\":\"fault_throughput\",\"cores\":4,\"version\":\"test\",\
         \"cases\":{{\"lane_wall_s\":{wall_s},\"lane_injections_per_s\":{per_s}}}}}"
    )
}

#[test]
fn diff_gate_fails_on_regression_and_passes_on_identical() {
    let dir = tmp_dir("diff");
    let base = dir.join("base.json");
    let same = dir.join("same.json");
    let slow = dir.join("slow.json");
    std::fs::write(&base, bench_record(2.0, 6.5)).unwrap();
    std::fs::write(&same, bench_record(2.0, 6.5)).unwrap();
    std::fs::write(&slow, bench_record(4.0, 3.25)).unwrap();

    let ok = run(
        &[
            "diff",
            base.to_str().unwrap(),
            same.to_str().unwrap(),
            "--gate",
            "25",
        ],
        &dir,
    );
    assert!(ok.status.success(), "stdout: {}", text(&ok.stdout));

    let fail = run(
        &[
            "diff",
            base.to_str().unwrap(),
            slow.to_str().unwrap(),
            "--gate",
            "25",
        ],
        &dir,
    );
    assert_eq!(
        fail.status.code(),
        Some(1),
        "stdout: {}",
        text(&fail.stdout)
    );
    assert!(text(&fail.stdout).contains("FAIL gate"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_without_gate_never_fails() {
    let dir = tmp_dir("diff-nogate");
    let base = dir.join("base.json");
    let slow = dir.join("slow.json");
    std::fs::write(&base, bench_record(2.0, 6.5)).unwrap();
    std::fs::write(&slow, bench_record(40.0, 0.3)).unwrap();
    let out = run(
        &["diff", base.to_str().unwrap(), slow.to_str().unwrap()],
        &dir,
    );
    assert!(out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_flags_the_corrupt_rollbacks_class() {
    let dir = tmp_dir("check");
    // The impossibility that motivated this subcommand: the value from the
    // pre-fix exp-fig5 manifest, ~5e16 counted events per second.
    std::fs::write(
        dir.join("exp-unit.manifest.json"),
        "{\"name\":\"exp-unit\",\"version\":\"test\",\"seed\":0,\"config\":{},\
         \"phases\":[{\"name\":\"sweep\",\"wall_ms\":7.0}],\"wall_ms\":7.618048,\
         \"metrics\":{\"ftsched.rollbacks\":368266406769412}}",
    )
    .unwrap();
    let out = run(&["check", "exp-unit"], &dir);
    assert_eq!(out.status.code(), Some(1));
    assert!(text(&out.stdout).contains("physically impossible"));

    std::fs::write(
        dir.join("exp-sane.manifest.json"),
        "{\"name\":\"exp-sane\",\"version\":\"test\",\"seed\":0,\"config\":{},\
         \"phases\":[{\"name\":\"sweep\",\"wall_ms\":7.0}],\"wall_ms\":7.618048,\
         \"metrics\":{\"ftsched.rollbacks\":120287}}",
    )
    .unwrap();
    let out = run(&["check", "exp-sane"], &dir);
    assert!(out.status.success(), "stdout: {}", text(&out.stdout));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_2() {
    let out = Command::new(bin()).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(bin()).args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(bin())
        .args(["diff", "a.json"]) // missing second file
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}
