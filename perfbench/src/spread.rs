//! `itesp-perfbench spread LOG...`: the run-to-run spread of every
//! metric across saved runs. Each LOG is one run's stdout; runs are
//! grouped by the workload named on their first line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, quartiles, rel_spread};

/// `(name, value, unit)` of every metric in a result line.
pub fn parse_result(line: &str) -> Option<Vec<(String, f64, String)>> {
    let Ok(serde_json::Value::Obj(metrics)) =
        serde_json::from_str(line).ok()?.field("metrics").cloned()
    else {
        return None;
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.field("value").ok()?.as_f64().ok()?;
            let unit = m.field("unit").ok()?.as_str().ok()?;
            Some((name.clone(), value, unit.to_owned()))
        })
        .collect()
}

/// `(name, value, unit)` of a readable `  name value unit` line.
fn parse_figure(line: &str) -> Option<(String, f64, String)> {
    let rest = line.strip_prefix("  ")?;
    let mut f = rest.split_whitespace();
    let (name, value, unit) = (f.next()?, f.next()?, f.next()?);
    if f.next().is_some() {
        return None;
    }
    Some((name.to_owned(), value.parse().ok()?, unit.to_owned()))
}

/// The spread table for a set of run logs.
///
/// # Errors
/// A log that cannot be read or holds no result line.
pub fn report(paths: &[String]) -> Result<String, String> {
    // workload -> metric -> (unit, values)
    let mut runs: BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>> = BTreeMap::new();
    for p in paths {
        let body = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        let workload = body
            .lines()
            .find_map(|l| l.strip_prefix("workload "))
            .and_then(|l| l.split_whitespace().next())
            .ok_or_else(|| format!("{p}: no `workload` line"))?;
        let mut metrics = body
            .lines()
            .rev()
            .find_map(parse_result)
            .ok_or_else(|| format!("{p}: no result line"))?;
        // Workload-only figures are printed as `  name value unit`.
        for (name, value, unit) in body.lines().filter_map(parse_figure) {
            if !metrics.iter().any(|m| m.0 == name) {
                metrics.push((name, value, unit));
            }
        }
        let w = runs.entry(workload.to_owned()).or_default();
        for (name, value, unit) in metrics {
            w.entry(name)
                .or_insert_with(|| (unit, Vec::new()))
                .1
                .push(value);
        }
    }
    let mut s = format!(
        "{:<16} {:<28} {:>3} {:>14} {:>14} {:>14} {:>8}\n",
        "workload", "metric", "n", "median", "q1", "q3", "spread"
    );
    for (workload, metrics) in &runs {
        for (name, (unit, xs)) in metrics {
            let (q1, q3) = quartiles(xs);
            let _ = writeln!(
                s,
                "{workload:<16} {name:<28} {:>3} {:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}% {unit}",
                xs.len(),
                median(xs),
                100.0 * rel_spread(xs)
            );
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_result_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
                    \"dram.reqs\": {\"value\": 12.0, \"unit\": \"count\"}}}";
        assert_eq!(
            parse_result(line),
            Some(vec![
                ("setup_s".to_owned(), 0.5, "s".to_owned()),
                ("dram.reqs".to_owned(), 12.0, "count".to_owned()),
            ])
        );
        assert_eq!(parse_result("workload serve seed 1"), None);
    }

    #[test]
    fn parses_readable_figures_only() {
        assert_eq!(
            parse_figure("  serve_p99_ms                  61.020595 ms"),
            Some(("serve_p99_ms".to_owned(), 61.020595, "ms".to_owned()))
        );
        assert_eq!(parse_figure("  setup_s  -0.010396 s (-30.63%)"), None);
        assert_eq!(parse_figure("workload serve seed 1 (25 s, trace 0)"), None);
    }
}
