//! The one machine-readable performance record every bench writes.
//!
//! A [`BenchRecord`] is a bench name plus an ordered list of named `f64`
//! cases. [`BenchRecord::write`] emits
//! `{"bench", "cores", "version", "cases": {name: value}}` to
//! `<dir>/BENCH_<bench>.json`, where `<bench>` is the cargo bench target
//! name. Case names carry their unit as a suffix (`*_wall_s`, `*_per_s`,
//! `*_pct`, bare counts), which is all `lori-report diff` needs to pick a
//! gate direction, so every bench is gated through one code path.

use lori_obs::fsio::atomic_write;
use lori_obs::Value;
use std::path::{Path, PathBuf};

/// One bench run's measurements, in the order they were taken.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    bench: String,
    cases: Vec<(String, f64)>,
}

impl BenchRecord {
    /// An empty record for the cargo bench target `bench`.
    #[must_use]
    pub fn new(bench: impl Into<String>) -> Self {
        BenchRecord {
            bench: bench.into(),
            cases: Vec::new(),
        }
    }

    /// Appends one case.
    pub fn case(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.cases.push((name.into(), value));
        self
    }

    /// Appends `name` = `count / wall_s` (0 for a zero-length pass); the
    /// name should end in `_per_s`.
    #[allow(clippy::cast_precision_loss)]
    pub fn rate(&mut self, name: impl Into<String>, count: usize, wall_s: f64) -> &mut Self {
        let per_s = if wall_s > 0.0 {
            count as f64 / wall_s
        } else {
            0.0
        };
        self.case(name, per_s)
    }

    /// Writes `<dir>/BENCH_<bench>.json` atomically, so a gate never sees
    /// a half-written record from a killed run. Returns the path written.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created or the file cannot be
    /// written — a perf record that silently fails to persist is worse
    /// than a loud failure in a bench run.
    pub fn write(&self, dir: &Path) -> PathBuf {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let doc = Value::Obj(vec![
            ("bench".to_owned(), Value::from(self.bench.as_str())),
            ("cores".to_owned(), Value::from(cores as u64)),
            (
                "version".to_owned(),
                Value::from(lori_obs::version_string()),
            ),
            (
                "cases".to_owned(),
                Value::Obj(
                    self.cases
                        .iter()
                        .map(|(name, v)| (name.clone(), Value::from(*v)))
                        .collect(),
                ),
            ),
        ]);
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = dir.join(format!("BENCH_{}.json", self.bench));
        atomic_write(&path, format!("{}\n", doc.to_json()).as_bytes())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_record_round_trips() {
        let dir = std::env::temp_dir().join(format!("lori-perf-{}", std::process::id()));
        let mut record = BenchRecord::new("fault_throughput");
        record
            .case("lanes", 64.0)
            .case("ff_vulnerability_lane_wall_s", 0.25)
            .rate("ff_vulnerability_lane_injections_per_s", 10_240, 0.25)
            .rate("idle_per_s", 5, 0.0);
        let path = record.write(&dir);
        assert_eq!(path, dir.join("BENCH_fault_throughput.json"));
        let text = std::fs::read_to_string(&path).expect("record written");
        let v = Value::parse(&text).expect("valid json");
        assert_eq!(
            v.get("bench").and_then(Value::as_str),
            Some("fault_throughput")
        );
        assert!(v.get("cores").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);
        assert!(v.get("version").and_then(Value::as_str).is_some());
        let cases = v.get("cases").expect("cases map");
        let case = |name: &str| cases.get(name).and_then(Value::as_f64);
        assert_eq!(case("lanes"), Some(64.0));
        assert_eq!(case("ff_vulnerability_lane_wall_s"), Some(0.25));
        assert_eq!(
            case("ff_vulnerability_lane_injections_per_s"),
            Some(40_960.0)
        );
        assert_eq!(case("idle_per_s"), Some(0.0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
