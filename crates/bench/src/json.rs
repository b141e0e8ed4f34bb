//! Machine-readable coverage output of the `dfck` sweeper (`BENCH_dfck.json`).
//!
//! The one committed baseline of the workspace: every row is one sweep and
//! every field of a row is an exact count, so `benchmarks/regress.py --dfck`
//! gates a fresh run against the committed file field for field. The schema
//! is documented in the README ("Machine-readable benchmark output"); the
//! writer is hand-rolled because the workspace builds offline (no serde).
//!
//! Emission is opt-in through the `DF_JSON` environment variable:
//!
//! * unset — no JSON is written (stdout tables only),
//! * `DF_JSON=1` — write `BENCH_<name>.json` into the current directory,
//! * `DF_JSON=<dir>` — write `BENCH_<name>.json` into `<dir>` (created if needed).

use std::path::PathBuf;

/// Schema identifier stamped into every emitted document. Bump only on breaking
/// changes to the layout; additions of new fields keep the same identifier.
/// v2: rows carry integer counts only (v1 rows also had `mops`,
/// `flushes_per_op` and `fences_per_op`, which coverage rows filled with 0).
pub const SCHEMA: &str = "delayfree-bench-v2";

/// One row of a JSON report: a series label, the thread count and the row's
/// counts, rendered as integers in order.
#[derive(Clone, Debug)]
pub struct JsonRow {
    /// Series label (`variant/workload[/tN]…`, see the `dfck` binary).
    pub variant: String,
    /// Worker-thread count the row was measured with.
    pub threads: usize,
    /// The row's counts (`crash_points`, `crashes_injected`, …).
    pub counts: Vec<(&'static str, u64)>,
}

/// The count that says whether a row verified anything: a sweep that
/// injected no crash checked nothing. Parameter-like counts (`crash_points`,
/// …) are deliberately not accepted in its place: they are non-zero by
/// construction, so a broken replay loop would still pass.
const NONZERO_METRIC_KEY: &str = "crashes_injected";

/// Reject a report that verified nothing: no rows at all (a filter that
/// matched nothing), or a row whose [`NONZERO_METRIC_KEY`] count is missing
/// or zero.
pub fn require_nonzero(rows: &[JsonRow]) -> Result<(), String> {
    if rows.is_empty() {
        return Err("no rows: the run verified nothing".to_string());
    }
    for row in rows {
        let signal = row.counts.iter().any(|&(k, v)| k == NONZERO_METRIC_KEY && v > 0);
        if !signal {
            return Err(format!(
                "{} @ {} threads injected no crash: the sweep verified nothing",
                row.variant, row.threads
            ));
        }
    }
    Ok(())
}

/// Where JSON output should go, given the value of `DF_JSON`: `None` when it
/// is unset, empty or `0` (emission disabled).
fn json_dir_from(raw: Option<&str>) -> Option<PathBuf> {
    match raw? {
        "" | "0" => None,
        "1" => Some(PathBuf::from(".")),
        dir => Some(PathBuf::from(dir)),
    }
}

/// Where JSON output should go: `None` when `DF_JSON` is unset (emission disabled).
fn json_dir() -> Option<PathBuf> {
    json_dir_from(std::env::var("DF_JSON").ok().as_deref())
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a report as a JSON document (pretty-printed, trailing newline).
pub fn render(bench: &str, params: &[(&str, u64)], wall_clock_secs: f64, rows: &[JsonRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{}\",\n", escape(SCHEMA)));
    out.push_str(&format!("  \"bench\": \"{}\",\n", escape(bench)));
    out.push_str("  \"params\": {");
    for (i, (k, v)) in params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {}", escape(k), v));
    }
    out.push_str("},\n");
    out.push_str(&format!("  \"wall_clock_secs\": {wall_clock_secs:.6},\n"));
    out.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let mut counts = String::new();
        for (k, v) in &row.counts {
            counts.push_str(&format!(", \"{}\": {}", escape(k), v));
        }
        out.push_str(&format!(
            "    {{\"variant\": \"{}\", \"threads\": {}{}}}{}\n",
            escape(&row.variant),
            row.threads,
            counts,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write `BENCH_<name>.json` if `DF_JSON` is set; returns the path written.
pub fn emit(bench: &str, params: &[(&str, u64)], wall_clock_secs: f64, rows: &[JsonRow]) -> Option<PathBuf> {
    let dir = json_dir()?;
    std::fs::create_dir_all(&dir).expect("creating DF_JSON output directory");
    let path = dir.join(format!("BENCH_{bench}.json"));
    let doc = render(bench, params, wall_clock_secs, rows);
    std::fs::write(&path, doc).expect("writing BENCH json file");
    eprintln!("# wrote {}", path.display());
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(variant: &str, crashes: u64) -> JsonRow {
        JsonRow {
            variant: variant.to_string(),
            threads: 2,
            counts: vec![("crash_points", 7), ("crashes_injected", crashes)],
        }
    }

    #[test]
    fn render_produces_well_formed_json() {
        let rows = [row("MSQ/pair", 3), row("LogQueue/pair", 2)];
        let doc = render("dfck", &[("seed", 42), ("multi_ops", 8)], 1.25, &rows);
        // Structural checks (no JSON parser in the offline workspace): balanced
        // braces/brackets, schema string, both rows, no trailing comma.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        assert!(doc.contains("\"schema\": \"delayfree-bench-v2\""));
        assert!(doc.contains("\"bench\": \"dfck\""));
        assert!(doc.contains("\"seed\": 42"));
        assert!(doc.contains("\"variant\": \"MSQ/pair\""));
        assert!(doc.contains("\"variant\": \"LogQueue/pair\""));
        assert!(!doc.contains(",\n  ]"));
        assert!(doc.contains("\"wall_clock_secs\": 1.250000"));
    }

    #[test]
    fn render_appends_extra_fields_per_row() {
        let r = JsonRow {
            variant: "General/pair".to_string(),
            threads: 1,
            counts: vec![("crash_points", 321), ("oracle_failures", 0)],
        };
        let doc = render("dfck", &[("ops", 2)], 0.5, &[r]);
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        // Counts render as integers, in order, after the fixed fields.
        assert!(
            doc.contains(
                "{\"variant\": \"General/pair\", \"threads\": 1, \"crash_points\": 321, \"oracle_failures\": 0}"
            ),
            "{doc}"
        );
        assert!(!doc.contains("mops"));
    }

    #[test]
    fn render_escapes_strings() {
        let doc = render("x\"y", &[], 0.0, &[row("a\\b", 1)]);
        assert!(doc.contains("\"bench\": \"x\\\"y\""));
        assert!(doc.contains("\"variant\": \"a\\\\b\""));
    }

    #[test]
    fn require_nonzero_rejects_an_empty_row_set_and_signal_free_rows() {
        let err = require_nonzero(&[]).unwrap_err();
        assert!(err.contains("no rows"), "{err}");
        require_nonzero(&[row("General/pair", 3)]).unwrap();
        let err = require_nonzero(&[row("General/pair", 3), row("LogQueue/pair", 0)]).unwrap_err();
        assert!(err.contains("LogQueue/pair"), "{err}");
        // A parameter-like count is no signal.
        let params_only = JsonRow {
            variant: "General/pair".to_string(),
            threads: 1,
            counts: vec![("crash_points", 9)],
        };
        assert!(require_nonzero(&[params_only]).is_err());
    }

    #[test]
    fn json_dir_parses_the_env_convention() {
        assert_eq!(json_dir_from(None), None);
        assert_eq!(json_dir_from(Some("")), None);
        assert_eq!(json_dir_from(Some("0")), None);
        assert_eq!(json_dir_from(Some("1")), Some(PathBuf::from(".")));
        assert_eq!(json_dir_from(Some("out/dfck")), Some(PathBuf::from("out/dfck")));
    }
}
