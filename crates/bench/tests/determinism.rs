//! The Fig. 5/6 points artifacts are byte-identical across thread counts:
//! each `exp-*` sweep binary runs at `LORI_THREADS=1` and `4` and the two
//! `results/<name>.points.json` files must match byte for byte.

use std::process::Command;

/// Inherited `LORI_*` knobs stripped from the spawned binaries so the
/// test's own settings are the whole story.
const STRIPPED_KNOBS: [&str; 2] = ["LORI_THREADS", "LORI_OBS"];

#[test]
fn points_are_byte_identical_across_thread_counts() {
    let base = std::env::temp_dir().join(format!("lori-determinism-{}", std::process::id()));
    for (name, exe) in [
        ("exp-fig5", env!("CARGO_BIN_EXE_exp-fig5")),
        ("exp-fig6", env!("CARGO_BIN_EXE_exp-fig6")),
    ] {
        let mut artifacts = Vec::new();
        for threads in ["1", "4"] {
            let dir = base.join(format!("{name}-threads-{threads}"));
            let mut cmd = Command::new(exe);
            for knob in STRIPPED_KNOBS {
                cmd.env_remove(knob);
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
            let points = dir.join(format!("{name}.points.json"));
            artifacts.push(std::fs::read(&points).expect("points artifact"));
        }
        assert_eq!(
            artifacts[0], artifacts[1],
            "{name}: points.json diverged between LORI_THREADS=1 and 4"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}
