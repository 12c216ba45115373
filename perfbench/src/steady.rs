//! The steadiness report: per workload and metric, the median,
//! quartiles, range and spread over repeated runs, with two-mode
//! metrics flagged instead of summarised as one.
//!
//! Input is the saved standard output of runs: each run's
//! `run_record {...}` line names its workload, and the result line
//! that follows carries its metrics. Both are read with the strict
//! `skyline_serve::parse_json`.

use std::collections::BTreeMap;

use skyline_serve::{parse_json, Json};

use crate::stats::Summary;

/// `(workload, traced)` → metric → (unit, values in run order).
type Table = BTreeMap<(String, bool), BTreeMap<String, (String, Vec<f64>)>>;

/// Collects every run in `text` into `table`.
fn collect(text: &str, table: &mut Table) -> Result<(), String> {
    let mut current: Option<(String, bool)> = None;
    for line in text.lines() {
        if let Some(record) = line.strip_prefix("run_record ") {
            let json = parse_json(record).map_err(|e| format!("bad run record: {e}"))?;
            let workload = json
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("run record without workload")?;
            let traced = json.get("traced").and_then(Json::as_bool).unwrap_or(false);
            current = Some((workload.to_string(), traced));
        } else if line.starts_with("{\"correct\"") {
            let key = current
                .take()
                .ok_or("result line without a run record before it")?;
            let json = parse_json(line).map_err(|e| format!("bad result line: {e}"))?;
            let Some(Json::Obj(metrics)) = json.get("metrics") else {
                return Err("result line without metrics".into());
            };
            let runs = table.entry(key).or_default();
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("metric without value")?;
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                runs.entry(name.clone())
                    .or_insert_with(|| (unit.to_string(), Vec::new()))
                    .1
                    .push(value);
            }
        }
    }
    Ok(())
}

/// The report lines for `table`.
fn report(table: &Table) -> Vec<String> {
    let mut out = Vec::new();
    for ((workload, traced), metrics) in table {
        for (name, (unit, values)) in metrics {
            let s = Summary::of(values);
            out.push(format!(
                "steady workload={workload} traced={} metric={name} unit={unit} runs={} median={} q1={} q3={} min={} max={} spread={:.4}{}",
                u8::from(*traced),
                s.runs,
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.spread(),
                if s.bimodal { " BIMODAL" } else { "" }
            ));
        }
    }
    out
}

/// Reads the files and prints the report; errors name the problem.
pub fn run(files: &[String]) -> Result<(), String> {
    if files.is_empty() {
        return Err("steady needs at least one saved run output".into());
    }
    let mut table = Table::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        collect(&text, &mut table).map_err(|e| format!("{f}: {e}"))?;
    }
    for line in report(&table) {
        println!("{line}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_grouped_by_workload_and_bimodal_metrics_flagged() {
        let mut text = String::new();
        for (i, ms) in [19.0, 20.0, 21.0, 480.0, 700.0, 780.0, 20.5, 520.0]
            .iter()
            .enumerate()
        {
            text.push_str("run_record {\"workload\":\"w\",\"traced\":false}\n");
            text.push_str(&format!(
                "{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\"query_p50_ms\":{{\"value\":{ms},\"unit\":\"ms\"}},\"setup_s\":{{\"value\":{},\"unit\":\"s\"}}}}}}\n",
                1.0 + i as f64 * 0.01
            ));
        }
        let mut table = Table::new();
        collect(&text, &mut table).expect("parses");
        let lines = report(&table);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("metric=query_p50_ms") && lines[0].ends_with("BIMODAL"));
        assert!(lines[1].contains("metric=setup_s") && !lines[1].contains("BIMODAL"));
        assert!(lines[1].contains("runs=8"));
    }

    #[test]
    fn a_result_without_its_run_record_is_an_error() {
        let mut table = Table::new();
        assert!(collect(
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}",
            &mut table
        )
        .is_err());
    }
}
