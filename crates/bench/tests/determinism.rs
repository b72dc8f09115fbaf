//! Experiment artifacts are byte-identical across thread counts: each
//! binary below runs at `LORI_THREADS=1` and `4`, and the two copies of its
//! deterministic artifact must match byte for byte.
//!
//! - `exp-fig5`/`exp-fig6`: the Fig. 5/6 sweep points;
//! - `exp-ff-vulnerability`: the lane-engine injection campaign behind the
//!   kNN/SVM table.

use std::process::Command;

/// `(binary, executable, artifact)`, the artifact named relative to the
/// results dir. `LORI_RUNS` below shrinks only the two sweeps.
const CASES: [(&str, &str, &str); 3] = [
    (
        "exp-fig5",
        env!("CARGO_BIN_EXE_exp-fig5"),
        "exp-fig5.points.json",
    ),
    (
        "exp-fig6",
        env!("CARGO_BIN_EXE_exp-fig6"),
        "exp-fig6.points.json",
    ),
    (
        "exp-ff-vulnerability",
        env!("CARGO_BIN_EXE_exp-ff-vulnerability"),
        "exp-ff-vulnerability.table.json",
    ),
];

#[test]
fn artifacts_are_byte_identical_across_thread_counts() {
    let base = std::env::temp_dir().join(format!("lori-determinism-{}", std::process::id()));
    for (name, exe, artifact) in CASES {
        let mut copies = Vec::new();
        for threads in ["1", "4"] {
            let dir = base.join(format!("{name}-threads-{threads}"));
            let mut cmd = Command::new(exe);
            // Strip every inherited knob so the test's own settings are
            // the whole story.
            for (key, _) in std::env::vars_os() {
                if key.to_string_lossy().starts_with("LORI_") {
                    cmd.env_remove(key);
                }
            }
            let out = cmd
                .env("LORI_RESULTS_DIR", &dir)
                .env("LORI_RUNS", "20")
                .env("LORI_THREADS", threads)
                .output()
                .unwrap_or_else(|err| panic!("spawn {name}: {err}"));
            assert!(
                out.status.success(),
                "{name} at LORI_THREADS={threads} failed ({}):\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            copies.push(std::fs::read(dir.join(artifact)).expect("artifact written"));
        }
        assert_eq!(
            copies[0], copies[1],
            "{name}: {artifact} diverged between LORI_THREADS=1 and 4"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}
