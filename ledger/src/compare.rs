//! `ledger compare A.json B.json`: hold two `ledger all` documents against
//! the end-to-end bounds.

use crate::harness::{bound, END_TO_END};
use crate::json::Json;
use std::fmt::Write as _;

/// Compare baseline `a` with candidate `b`, one row per (workload, metric).
/// Returns the table and the number of breaches: a metric worse than the
/// baseline by more than the pair's [`bound`], an op that failed in `b`, a
/// validity rule `b` broke, or a workload or metric `b` lacks.
pub fn compare(a: &Json, b: &Json) -> (String, usize) {
    let mut table = String::new();
    let mut breaches = 0;
    let _ = writeln!(
        table,
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict (B/A, base A)",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for (workload, base) in a.get("workloads").map_or(&[][..], Json::members) {
        let candidate = b.get("workloads").and_then(|w| w.get(workload));
        let failed = candidate
            .and_then(|c| c.get("failed"))
            .and_then(Json::as_f64);
        if failed != Some(0.0) {
            breaches += 1;
            let _ = writeln!(table, "{workload:<14} failed ops in B: {failed:?}  BREACH");
        }
        // Not a verdict, but what a reader needs to read the timing rows: how
        // fast each run's core was, by the reference kernel timed beside the
        // ops.  Single-threaded work follows it one to one.
        let core = |doc: Option<&Json>| {
            doc?.get("untraced_diagnostics")?
                .get("ref_kernel_p50_ms")?
                .as_f64()
        };
        if let (Some(ka), Some(kb)) = (core(Some(base)), core(candidate)) {
            if (kb / ka - 1.0).abs() > 0.05 {
                let _ = writeln!(
                    table,
                    "{workload:<14} note: the reference kernel took {ka:.3} ms in A and {kb:.3} ms \
                     in B: B's core ran at {:.2} of A's speed",
                    ka / kb
                );
            }
        }
        for broken in candidate
            .and_then(|c| c.get("violations"))
            .map_or(&[][..], Json::elements)
        {
            breaches += 1;
            let broken = broken.as_str().unwrap_or("?");
            let _ = writeln!(table, "{workload:<14} B is invalid: {broken}  BREACH");
        }
        for (metric, _, better, _) in END_TO_END {
            let bound = bound(metric, workload);
            let value =
                |doc: Option<&Json>| doc?.get("end_to_end")?.get(metric)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(Some(base)), value(candidate)) else {
                breaches += 1;
                let _ = writeln!(table, "{workload:<14} {metric:<18} missing  BREACH");
                continue;
            };
            let worse_by = match better {
                "lower" => (vb - va) / va,
                _ => (va - vb) / va,
            };
            let breach = worse_by > bound;
            breaches += usize::from(breach);
            let _ = writeln!(
                table,
                "{workload:<14} {metric:<18} {va:>14.4} {vb:>14.4} {:>8.4} {bound:>6.2}  {}",
                vb / va,
                if breach { "BREACH" } else { "ok" }
            );
        }
    }
    (table, breaches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(p50: f64, wire: f64, failed: f64, violations: &[&str]) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::Num(v))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "migrate_cold",
                Json::obj([
                    ("failed", Json::Num(failed)),
                    (
                        "violations",
                        Json::Arr(violations.iter().copied().map(Json::str).collect()),
                    ),
                    (
                        "end_to_end",
                        Json::obj([
                            ("setup_s", metric(1.0)),
                            ("op_p50_ms", metric(p50)),
                            ("cpu_ms_per_op", metric(5.0)),
                            ("wire_bytes_per_op", metric(wire)),
                            ("peak_rss_mib", metric(40.0)),
                        ]),
                    ),
                ]),
            )]),
        )])
    }

    #[test]
    fn bounds_apply_per_metric_and_workload() {
        let base = doc(5.0, 1000.0, 0.0, &[]);
        let limit = 5.0 * (1.0 + bound("op_p50_ms", "migrate_cold"));
        assert_eq!(compare(&base, &doc(limit - 0.01, 1000.0, 0.0, &[])).1, 0);
        assert_eq!(compare(&base, &doc(4.0, 1000.0, 0.0, &[])).1, 0);
        assert_eq!(compare(&base, &doc(limit + 0.01, 1000.0, 0.0, &[])).1, 1);
        assert_eq!(compare(&base, &doc(5.0, 1020.0, 0.0, &[])).1, 1);
        assert_eq!(compare(&base, &doc(5.0, 1000.0, 2.0, &[])).1, 1);
        let invalid = doc(5.0, 1000.0, 0.0, &["7 timed ops, fewer than 100"]);
        assert_eq!(compare(&base, &invalid).1, 1);
        assert_eq!(
            compare(&base, &Json::obj([("workloads", Json::Obj(vec![]))])).1,
            6
        );
    }
}
