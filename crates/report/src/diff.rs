//! Metric diffing and perf-regression gating between two JSON records
//! (`BENCH_<bench>.json` perf records or run manifests).
//!
//! Both documents are flattened to `dotted.path -> f64` maps and compared
//! key by key. The gate is *ratio-based*: a key regresses when it moves
//! past `threshold_pct` in its bad direction — higher for wall-time keys,
//! lower for throughput keys. Because wall time is only comparable across
//! equal hardware, the gate consults the records' `cores` fields and
//! downgrades failures to warnings only when the machines differ: equal
//! core counts gate hard, including 1-core runners, whose wall times are
//! just as reproducible against a 1-core baseline. (Parallel *speedup* on
//! one core is still ~1.0 on both sides, so it cannot trip a ratio gate.)

use lori_obs::Value;
use std::collections::BTreeMap;

/// One compared metric.
#[derive(Debug, Clone)]
pub struct DiffLine {
    /// Flattened dotted path of the metric.
    pub key: String,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub cur: f64,
    /// Relative change in percent (`(cur - base) / |base| * 100`);
    /// infinite when the baseline is zero and the value moved.
    pub delta_pct: f64,
}

/// The full comparison of two records.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Metrics present in both documents, sorted by key.
    pub lines: Vec<DiffLine>,
    /// Keys only in the baseline.
    pub only_base: Vec<String>,
    /// Keys only in the current record.
    pub only_cur: Vec<String>,
    /// Gate violations (non-empty fails the gate).
    pub gate_failures: Vec<String>,
    /// Gate violations downgraded to warnings (core counts differ or are
    /// missing).
    pub gate_warnings: Vec<String>,
}

impl DiffReport {
    /// `true` when no gate failure was recorded.
    #[must_use]
    pub fn gate_ok(&self) -> bool {
        self.gate_failures.is_empty()
    }
}

/// Flattens a JSON document to `dotted.path -> f64`.
///
/// Arrays index as `path.0`, `path.1`, …; booleans map to 0/1; strings and
/// nulls are skipped (they have no meaningful delta), as is any member
/// named `version` — version strings differ between any two honest runs
/// and must never trip a gate.
#[must_use]
pub fn flatten(doc: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    walk(doc, String::new(), &mut out);
    out
}

fn walk(v: &Value, path: String, out: &mut BTreeMap<String, f64>) {
    match v {
        Value::Num(n) => {
            out.insert(path, *n);
        }
        Value::Bool(b) => {
            out.insert(path, if *b { 1.0 } else { 0.0 });
        }
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                walk(item, join(&path, &i.to_string()), out);
            }
        }
        Value::Obj(members) => {
            for (k, item) in members {
                if k == "version" {
                    continue;
                }
                walk(item, join(&path, k), out);
            }
        }
        Value::Null | Value::Str(_) => {}
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_owned()
    } else {
        format!("{path}.{key}")
    }
}

/// The gate direction of a metric, judged by its key suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Wall-time-like: bigger is worse.
    LowerIsBetter,
    /// Throughput-like: smaller is worse.
    HigherIsBetter,
    /// Not gated.
    Ungated,
}

fn direction(key: &str) -> Direction {
    let leaf = key.rsplit('.').next().unwrap_or(key);
    if leaf.ends_with("wall_s") || leaf.ends_with("wall_ms") || leaf.ends_with("wall_ns") {
        Direction::LowerIsBetter
    } else if leaf.ends_with("per_s") {
        Direction::HigherIsBetter
    } else {
        Direction::Ungated
    }
}

/// Compares two records; when `gate_pct` is set, also evaluates the
/// regression gate at that threshold.
#[must_use]
pub fn diff(base: &Value, cur: &Value, gate_pct: Option<f64>) -> DiffReport {
    let base_map = flatten(base);
    let cur_map = flatten(cur);
    let mut report = DiffReport::default();

    // Wall-time comparisons only mean something on equal hardware: consult
    // the records' own `cores` fields (recorded at bench time exactly for
    // this) and demote failures to warnings when they disagree. Equal
    // counts — including 1 == 1 — gate hard: a slowdown measured on the
    // same-shaped machine is a real regression.
    let base_cores = base_map.get("cores").copied();
    let cur_cores = cur_map.get("cores").copied();
    let comparable = match (base_cores, cur_cores) {
        (Some(b), Some(c)) => b == c,
        _ => false,
    };

    for (key, &b) in &base_map {
        match cur_map.get(key) {
            None => report.only_base.push(key.clone()),
            Some(&c) => {
                let delta_pct = if b == 0.0 {
                    if c == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY.copysign(c)
                    }
                } else {
                    (c - b) / b.abs() * 100.0
                };
                if let Some(pct) = gate_pct {
                    let factor = pct / 100.0;
                    let violated = match direction(key) {
                        Direction::LowerIsBetter => c > b * (1.0 + factor),
                        Direction::HigherIsBetter => c < b * (1.0 - factor),
                        Direction::Ungated => false,
                    };
                    if violated {
                        let msg = format!("{key}: {b} -> {c} ({delta_pct:+.1}%, threshold {pct}%)");
                        if comparable {
                            report.gate_failures.push(msg);
                        } else {
                            report.gate_warnings.push(msg);
                        }
                    }
                }
                report.lines.push(DiffLine {
                    key: key.clone(),
                    base: b,
                    cur: c,
                    delta_pct,
                });
            }
        }
    }
    for key in cur_map.keys() {
        if !base_map.contains_key(key) {
            report.only_cur.push(key.clone());
        }
    }
    report
}

/// Renders the report as human-readable lines (one metric per line,
/// gated violations annotated).
#[must_use]
pub fn render(report: &DiffReport) -> String {
    let mut out = String::new();
    for line in &report.lines {
        out.push_str(&format!(
            "{:<40} {:>16.6} -> {:>16.6}  {:+8.2}%\n",
            line.key, line.base, line.cur, line.delta_pct
        ));
    }
    for key in &report.only_base {
        out.push_str(&format!("{key:<40} (removed)\n"));
    }
    for key in &report.only_cur {
        out.push_str(&format!("{key:<40} (added)\n"));
    }
    for warn in &report.gate_warnings {
        out.push_str(&format!("WARN gate (not comparable): {warn}\n"));
    }
    for fail in &report.gate_failures {
        out.push_str(&format!("FAIL gate: {fail}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `BENCH_<bench>.json` record in the schema every bench writes.
    fn bench(cores: u64, wall_s: f64, per_s: f64) -> Value {
        Value::Obj(vec![
            ("bench".to_owned(), Value::from("fault_throughput")),
            ("cores".to_owned(), Value::from(cores)),
            ("version".to_owned(), Value::from("abc-dirty")),
            (
                "cases".to_owned(),
                Value::Obj(vec![
                    ("lane_wall_s".to_owned(), Value::from(wall_s)),
                    ("lane_injections_per_s".to_owned(), Value::from(per_s)),
                ]),
            ),
        ])
    }

    #[test]
    fn flatten_produces_dotted_paths_and_skips_version() {
        let map = flatten(&bench(4, 2.0, 6.5));
        assert_eq!(map.get("cores"), Some(&4.0));
        assert_eq!(map.get("cases.lane_wall_s"), Some(&2.0));
        assert_eq!(map.get("cases.lane_injections_per_s"), Some(&6.5));
        assert!(!map.contains_key("version"));
        assert!(!map.contains_key("bench"), "strings are not diffable");
    }

    #[test]
    fn gate_passes_on_identical_records() {
        let b = bench(4, 2.0, 6.5);
        let report = diff(&b, &b.clone(), Some(25.0));
        assert!(report.gate_ok());
        assert!(report.gate_warnings.is_empty());
        assert!(report.lines.iter().all(|l| l.delta_pct == 0.0));
    }

    #[test]
    fn gate_fails_on_2x_slower_run() {
        let base = bench(4, 2.0, 6.5);
        let cur = bench(4, 4.0, 3.25);
        let report = diff(&base, &cur, Some(25.0));
        assert!(!report.gate_ok());
        // Both the wall-time increase and the throughput drop trip.
        assert_eq!(report.gate_failures.len(), 2);
    }

    #[test]
    fn matching_single_core_runners_gate_hard() {
        // A 1-core baseline against a 1-core candidate is honest,
        // like-for-like hardware: regressions must fail, not warn.
        let base = bench(1, 2.0, 6.5);
        let cur = bench(1, 4.0, 3.25);
        let report = diff(&base, &cur, Some(25.0));
        assert!(!report.gate_ok(), "equal core counts gate hard");
        assert_eq!(report.gate_failures.len(), 2);
        assert!(report.gate_warnings.is_empty());
    }

    #[test]
    fn missing_cores_field_demotes_to_warning() {
        let base = Value::parse(r#"{"cases": {"lane_wall_s": 2.0}}"#).unwrap();
        let cur = Value::parse(r#"{"cases": {"lane_wall_s": 9.0}}"#).unwrap();
        let report = diff(&base, &cur, Some(25.0));
        assert!(report.gate_ok(), "unknown hardware cannot hard-fail");
        assert_eq!(report.gate_warnings.len(), 1);
    }

    #[test]
    fn gate_warns_only_on_core_mismatch() {
        let base = bench(8, 2.0, 6.5);
        let cur = bench(4, 4.0, 3.25);
        let report = diff(&base, &cur, Some(25.0));
        assert!(report.gate_ok());
        assert_eq!(report.gate_warnings.len(), 2);
    }

    #[test]
    fn improvements_never_trip_the_gate() {
        let base = bench(4, 4.0, 3.25);
        let cur = bench(4, 2.0, 6.5);
        let report = diff(&base, &cur, Some(25.0));
        assert!(report.gate_ok());
        assert!(report.gate_warnings.is_empty());
    }

    #[test]
    fn within_threshold_noise_passes() {
        let base = bench(4, 2.0, 6.5);
        let cur = bench(4, 2.4, 5.5); // +20% / -15%, under the 25% gate
        let report = diff(&base, &cur, Some(25.0));
        assert!(report.gate_ok());
        assert!(report.gate_warnings.is_empty());
    }

    #[test]
    fn added_and_removed_keys_are_reported() {
        let base = Value::parse(r#"{"a": 1, "b": 2}"#).unwrap();
        let cur = Value::parse(r#"{"a": 1, "c": 3}"#).unwrap();
        let report = diff(&base, &cur, None);
        assert_eq!(report.only_base, vec!["b".to_owned()]);
        assert_eq!(report.only_cur, vec!["c".to_owned()]);
        assert_eq!(report.lines.len(), 1);
    }

    #[test]
    fn zero_baseline_reports_infinite_delta() {
        let base = Value::parse(r#"{"x": 0}"#).unwrap();
        let cur = Value::parse(r#"{"x": 5}"#).unwrap();
        let report = diff(&base, &cur, None);
        assert!(report.lines[0].delta_pct.is_infinite());
    }

    #[test]
    fn render_mentions_failures() {
        let base = bench(4, 2.0, 6.5);
        let cur = bench(4, 9.0, 1.0);
        let text = render(&diff(&base, &cur, Some(25.0)));
        assert!(text.contains("FAIL gate"));
        assert!(text.contains("cases.lane_wall_s"));
    }
}
