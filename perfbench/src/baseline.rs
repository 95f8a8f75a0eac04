//! Self-check against the committed counter baselines.
//!
//! The repository commits deterministic `mrtpl-bench` reports as
//! `BENCH_<n>.json` at its root.  On the default seed the benchmark must
//! reproduce, case by case, the counters of the newest of them that covers
//! the workload's suite and scale: that proves it runs the same program as
//! the committed trajectory.

use crate::workload::{Quality, Workload};
use std::fs;
use std::path::Path;
use tpl_harness::json::JsonValue;

/// The newest `BENCH_<n>.json` in `dir` for the workload's suite and scale.
pub struct Baseline {
    pub file: String,
    records: Vec<JsonValue>,
}

impl Baseline {
    /// Loads the baseline, or says why there is none.
    pub fn load(dir: &Path, workload: &Workload) -> Result<Baseline, String> {
        let entries = fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let mut numbered: Vec<(u64, String)> = entries
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                let n = name
                    .strip_prefix("BENCH_")?
                    .strip_suffix(".json")?
                    .parse()
                    .ok()?;
                Some((n, name))
            })
            .collect();
        numbered.sort();
        for (_, file) in numbered.into_iter().rev() {
            let text = fs::read_to_string(dir.join(&file)).map_err(|e| format!("{file}: {e}"))?;
            let report = JsonValue::parse(&text).map_err(|e| format!("{file}: {e}"))?;
            let suite = report.get("suite").and_then(JsonValue::as_str);
            let scale = report.get("scale").and_then(JsonValue::as_f64);
            if suite == Some(workload.suite.name()) && scale == Some(workload.scale) {
                let records = report
                    .get("records")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| format!("{file}: no records array"))?
                    .to_vec();
                return Ok(Baseline { file, records });
            }
        }
        Err(format!(
            "no BENCH_<n>.json for suite {} at scale {} in {}",
            workload.suite.name(),
            workload.scale,
            dir.display()
        ))
    }

    /// Compares one case's counters with the baseline record of the same
    /// method and case; `Some` describes the first mismatch.
    pub fn mismatch(&self, method: &str, case: &str, q: &Quality) -> Option<String> {
        let Some(record) = self.records.iter().find(|r| {
            r.get("method").and_then(JsonValue::as_str) == Some(method)
                && r.get("case").and_then(JsonValue::as_str) == Some(case)
        }) else {
            return Some(format!("{}: no {method} record", self.file));
        };
        // Only Mr.TPL reports search nodes; the baselines record 0 for the
        // other methods, as does `Quality`.
        let fields = [
            ("conflicts", q.conflicts as f64),
            ("stitches", q.stitches as f64),
            ("wirelength", q.wirelength as f64),
            ("vias", q.vias as f64),
            ("search_nodes", q.search_nodes as f64),
        ];
        fields.iter().find_map(|&(key, ours)| {
            let theirs = record.get(key).and_then(JsonValue::as_f64);
            (theirs != Some(ours)).then(|| format!("{key} {ours} != {theirs:?} in {}", self.file))
        })
    }
}
