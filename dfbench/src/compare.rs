//! `dfbench compare A.json B.json`: apply the regression bounds to two
//! `result.json` files — two runs of one commit (the A/A criterion) or a
//! parent and a change.

use crate::metrics::{Better, Bound, END_TO_END};
use crate::util::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Better than the baseline by more than the bound (or at all, if exact).
    Better,
    /// Worse by more than the bound, and the repetitions' interquartile
    /// ranges do not overlap: a regression.
    Worse,
    /// The medians differ by more than the bound but the interquartile ranges
    /// overlap: the runs cannot tell. Not "unchanged".
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

struct Sample {
    value: f64,
    q1: f64,
    q3: f64,
}

fn sample(metric: &Json) -> Option<Sample> {
    let num = |k: &str| metric.get(k).and_then(Json::as_f64);
    let value = num("value")?;
    Some(Sample {
        value,
        q1: num("q1").unwrap_or(value),
        q3: num("q3").unwrap_or(value),
    })
}

fn judge(a: &Sample, b: &Sample, better: Better, bound: Bound) -> (f64, Verdict) {
    // Positive = worse, as a share of the baseline.
    let worse_by = match better {
        Better::Lower => (b.value - a.value) / a.value.abs(),
        Better::Higher => (a.value - b.value) / a.value.abs(),
    };
    let verdict = match bound {
        Bound::Exact if a.value.to_bits() == b.value.to_bits() => Verdict::Ok,
        Bound::Exact if worse_by > 0.0 => Verdict::Worse,
        Bound::Exact => Verdict::Better,
        Bound::Within(limit) if worse_by.abs() <= limit => Verdict::Ok,
        Bound::Within(_) if a.q1 <= b.q3 && b.q1 <= a.q3 => Verdict::Unresolved,
        Bound::Within(_) if worse_by > 0.0 => Verdict::Worse,
        Bound::Within(_) => Verdict::Better,
    };
    (worse_by, verdict)
}

/// One row of the comparison.
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub worse_by: f64,
    pub bound: Bound,
    pub verdict: Verdict,
}

/// Compare every (workload, end-to-end metric) both files hold. A pairing
/// present in `a` and missing from `b` is an error: a metric must not vanish.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .map(|w| w.fields().to_vec())
            .ok_or("no \"workloads\" object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (name, da) in &wa {
        let db = &wb
            .iter()
            .find(|(n, _)| n == name)
            .ok_or(format!("workload {name} is missing from the second file"))?
            .1;
        for m in &END_TO_END {
            let get = |d: &Json| {
                d.get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(sample)
            };
            let (Some(sa), sb) = (get(da), get(db)) else {
                continue;
            };
            let sb = sb.ok_or(format!(
                "{name}: {} is missing from the second file",
                m.name
            ))?;
            let (worse_by, verdict) = judge(&sa, &sb, m.better, m.bound);
            rows.push(Row {
                workload: name.clone(),
                metric: m.name,
                a: sa.value,
                b: sb.value,
                worse_by,
                bound: m.bound,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the files share no metric".into());
    }
    Ok(rows)
}

/// The table `compare` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in rows {
        let bound = match r.bound {
            Bound::Exact => "exact".to_string(),
            Bound::Within(b) => format!("{:.0}%", b * 100.0),
        };
        out += &format!(
            "{:<16} {:<28} {:>14.6} {:>14.6} {:>8.2}% {:>7}  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            bound,
            r.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    out += &format!(
        "{} ok, {} better, {} unresolved, {} worse\n",
        count(Verdict::Ok),
        count(Verdict::Better),
        count(Verdict::Unresolved),
        count(Verdict::Worse)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, q1: f64, q3: f64) -> Sample {
        Sample { value, q1, q3 }
    }

    #[test]
    fn exact_metrics_must_be_bit_equal() {
        let v = |a, b| judge(&s(a, a, a), &s(b, b, b), Better::Lower, Bound::Exact).1;
        assert_eq!(v(3.5, 3.5), Verdict::Ok);
        assert_eq!(v(3.5, 3.500001), Verdict::Worse);
        assert_eq!(v(3.5, 3.0), Verdict::Better);
    }

    #[test]
    fn bounded_metrics_resolve_only_when_quartiles_separate() {
        let within = Bound::Within(0.10);
        // 5% slower: inside the bound.
        assert_eq!(
            judge(
                &s(10.0, 9.9, 10.1),
                &s(9.5, 9.4, 9.6),
                Better::Higher,
                within
            )
            .1,
            Verdict::Ok
        );
        // 20% slower, quartiles apart: a regression.
        assert_eq!(
            judge(
                &s(10.0, 9.9, 10.1),
                &s(8.0, 7.9, 8.1),
                Better::Higher,
                within
            )
            .1,
            Verdict::Worse
        );
        // 20% slower but the spreads overlap: cannot tell.
        assert_eq!(
            judge(
                &s(10.0, 7.5, 10.5),
                &s(8.0, 7.0, 9.0),
                Better::Higher,
                within
            )
            .1,
            Verdict::Unresolved
        );
        // 20% faster, quartiles apart.
        assert_eq!(
            judge(
                &s(10.0, 9.9, 10.1),
                &s(12.0, 11.9, 12.1),
                Better::Higher,
                within
            )
            .1,
            Verdict::Better
        );
        // Lower-is-better metrics read the other way round.
        assert_eq!(
            judge(
                &s(10.0, 9.9, 10.1),
                &s(12.0, 11.9, 12.1),
                Better::Lower,
                within
            )
            .1,
            Verdict::Worse
        );
    }
}
