//! Machine-readable benchmark output (`BENCH_*.json`).
//!
//! Every figure binary (and the instruction-overhead microbench) can emit its
//! results as a small JSON document so that the perf trajectory of the simulator
//! can be tracked across PRs by diffing/plotting the files instead of scraping
//! stdout tables. The schema is documented in the README ("Machine-readable
//! benchmark output"); the writer is hand-rolled because the workspace builds
//! offline (no serde).
//!
//! Emission is opt-in through the `DF_JSON` environment variable:
//!
//! * unset — no JSON is written (stdout tables only),
//! * `DF_JSON=1` — write `BENCH_<name>.json` into the current directory,
//! * `DF_JSON=<dir>` — write `BENCH_<name>.json` into `<dir>` (created if needed).

use std::path::PathBuf;

use crate::Measurement;

/// Schema identifier stamped into every emitted document. Bump only on breaking
/// changes to the layout; additions of new fields keep the same identifier.
pub const SCHEMA: &str = "delayfree-bench-v1";

/// One row of a JSON benchmark report. Mirrors [`Measurement`] but with a free-form
/// series label so that benchmarks without a variant (e.g. the
/// instruction-overhead microbench) can use the same schema.
#[derive(Clone, Debug)]
pub struct JsonRow {
    /// Series label (queue variant name, or `"read/disarmed"`-style for micro runs).
    pub variant: String,
    /// Worker-thread count the row was measured with.
    pub threads: usize,
    /// Throughput in million operations per second.
    pub mops: f64,
    /// Cache-line flushes per operation.
    pub flushes_per_op: f64,
    /// Fences per operation.
    pub fences_per_op: f64,
    /// Additional benchmark-specific key/value pairs appended to the row object
    /// (e.g. `crash_points` for the `dfck` coverage report). Additive with
    /// respect to the schema: readers of `delayfree-bench-v1` that only know
    /// the fixed fields keep working.
    pub extra: Vec<(&'static str, f64)>,
}

impl JsonRow {
    /// A row with the fixed fields set and no extras.
    pub fn new(variant: impl Into<String>, threads: usize, mops: f64) -> JsonRow {
        JsonRow {
            variant: variant.into(),
            threads,
            mops,
            flushes_per_op: 0.0,
            fences_per_op: 0.0,
            extra: Vec::new(),
        }
    }

    /// Append a benchmark-specific key/value pair.
    pub fn with(mut self, key: &'static str, value: f64) -> JsonRow {
        self.extra.push((key, value));
        self
    }
}

impl From<&Measurement> for JsonRow {
    fn from(m: &Measurement) -> JsonRow {
        JsonRow {
            variant: m.variant.label().to_string(),
            threads: m.threads,
            mops: m.mops,
            flushes_per_op: m.flushes_per_op,
            fences_per_op: m.fences_per_op,
            // Additive field (schema stays delayfree-bench-v1): only
            // throughput rows carry the duplicate-flush rate.
            extra: vec![("duplicate_flushes_per_op", m.duplicate_flushes_per_op)],
        }
    }
}

/// Where JSON output should go: `None` when `DF_JSON` is unset (emission disabled).
pub fn json_dir() -> Option<PathBuf> {
    let raw = std::env::var("DF_JSON").ok()?;
    if raw.is_empty() || raw == "0" {
        return None;
    }
    if raw == "1" {
        Some(PathBuf::from("."))
    } else {
        Some(PathBuf::from(raw))
    }
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

/// Format a float as a JSON number (JSON has no NaN/Inf; those become 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.0".to_string()
    }
}

/// Render a benchmark report as a JSON document (pretty-printed, trailing newline).
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
    out.push_str(&format!("  \"wall_clock_secs\": {},\n", number(wall_clock_secs)));
    out.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let mut extras = String::new();
        for (k, v) in &row.extra {
            extras.push_str(&format!(", \"{}\": {}", escape(k), number(*v)));
        }
        out.push_str(&format!(
            "    {{\"variant\": \"{}\", \"threads\": {}, \"mops\": {}, \"flushes_per_op\": {}, \"fences_per_op\": {}{}}}{}\n",
            escape(&row.variant),
            row.threads,
            number(row.mops),
            number(row.flushes_per_op),
            number(row.fences_per_op),
            extras,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The extra-field key that counts as a *measured* signal for the
/// `DF_REQUIRE_NONZERO` guard. Parameter-like extras (`crash_points`, …) are
/// deliberately excluded: they are non-zero by construction, so accepting
/// them would let a broken measurement upload a "green" baseline — the exact
/// failure the guard exists to stop.
const NONZERO_METRIC_KEY: &str = "crashes_injected";

/// The `DF_REQUIRE_NONZERO` check: every row must report a measured signal —
/// positive throughput or, for rows that carry benchmark-specific `extra`
/// metrics instead of a throughput (the dfck coverage report), a positive
/// [`NONZERO_METRIC_KEY`] extra — and there must be rows at all: a run whose
/// filters matched nothing measured nothing.
fn require_nonzero(bench: &str, rows: &[JsonRow]) -> Result<(), String> {
    if rows.is_empty() {
        return Err(format!("DF_REQUIRE_NONZERO: {bench} produced no rows"));
    }
    for row in rows {
        let has_signal = row.mops > 0.0
            || row
                .extra
                .iter()
                .any(|(k, v)| *k == NONZERO_METRIC_KEY && *v > 0.0);
        if !has_signal {
            return Err(format!(
                "DF_REQUIRE_NONZERO: {} @ {} threads reported {} Mops/s and no non-zero metric extra",
                row.variant, row.threads, row.mops
            ));
        }
    }
    Ok(())
}

/// Write `BENCH_<name>.json` if `DF_JSON` is set; returns the path written.
///
/// When `DF_REQUIRE_NONZERO` is set, panics instead if [`require_nonzero`]
/// rejects the rows. The CI bench-smoke job uses this as its pass/fail
/// criterion so a silently broken variant — or a filter that silently matched
/// nothing — cannot upload a "green" baseline.
pub fn emit(bench: &str, params: &[(&str, u64)], wall_clock_secs: f64, rows: &[JsonRow]) -> Option<PathBuf> {
    if std::env::var_os("DF_REQUIRE_NONZERO").is_some() {
        if let Err(e) = require_nonzero(bench, rows) {
            panic!("{e}");
        }
    }
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

    fn row(variant: &str, mops: f64) -> JsonRow {
        JsonRow {
            variant: variant.to_string(),
            threads: 2,
            mops,
            flushes_per_op: 1.5,
            fences_per_op: 0.5,
            extra: Vec::new(),
        }
    }

    #[test]
    fn render_produces_well_formed_json() {
        let doc = render("fig7", &[("pairs", 500), ("prefill", 100)], 1.25, &[row("MSQ", 10.0), row("LogQueue", 2.0)]);
        // Structural checks (no JSON parser in the offline workspace): balanced
        // braces/brackets, schema string, both rows, no trailing comma.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        assert!(doc.contains("\"schema\": \"delayfree-bench-v1\""));
        assert!(doc.contains("\"bench\": \"fig7\""));
        assert!(doc.contains("\"pairs\": 500"));
        assert!(doc.contains("\"variant\": \"MSQ\""));
        assert!(doc.contains("\"variant\": \"LogQueue\""));
        assert!(!doc.contains(",\n  ]"));
        assert!(doc.contains("\"wall_clock_secs\": 1.250000"));
    }

    #[test]
    fn render_appends_extra_fields_per_row() {
        let r = JsonRow::new("General/pair", 1, 2.5)
            .with("crash_points", 321.0)
            .with("oracle_failures", 0.0);
        let doc = render("dfck", &[("ops", 2)], 0.5, &[r]);
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert!(doc.contains("\"crash_points\": 321.000000"));
        assert!(doc.contains("\"oracle_failures\": 0.000000"));
        assert!(doc.contains("\"variant\": \"General/pair\""));
    }

    #[test]
    fn render_escapes_strings_and_sanitises_floats() {
        let doc = render("x\"y", &[], f64::NAN, &[row("a\\b", f64::INFINITY)]);
        assert!(doc.contains("\"bench\": \"x\\\"y\""));
        assert!(doc.contains("\"variant\": \"a\\\\b\""));
        assert!(!doc.contains("NaN"));
        assert!(!doc.contains("inf"));
    }

    #[test]
    fn require_nonzero_rejects_an_empty_row_set_and_signal_free_rows() {
        let err = require_nonzero("dfck", &[]).unwrap_err();
        assert!(err.contains("no rows"), "{err}");
        require_nonzero("fig7", &[row("MSQ", 1.0)]).unwrap();
        assert!(require_nonzero("fig7", &[row("MSQ", 0.0)]).is_err());
        let coverage = |crashes| JsonRow::new("General/pair", 1, 0.0).with("crashes_injected", crashes);
        require_nonzero("dfck", &[coverage(3.0)]).unwrap();
        assert!(require_nonzero("dfck", &[coverage(0.0)]).is_err());
    }

    #[test]
    fn json_dir_parses_the_env_convention() {
        // Can't mutate the process environment safely in parallel tests; just
        // exercise the pure parts via render/escape above and the row conversion.
        let m = crate::Measurement {
            variant: crate::dfck::Variant::Msq,
            threads: 3,
            mops: 1.0,
            flushes_per_op: 0.0,
            fences_per_op: 0.0,
            duplicate_flushes_per_op: 0.0,
        };
        let r = JsonRow::from(&m);
        assert_eq!(r.variant, "MSQ");
        assert_eq!(r.threads, 3);
    }
}
