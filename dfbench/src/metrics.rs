//! The metric tables: every end-to-end and per-layer metric by name, with its
//! unit, direction and regression bound. `BENCHMARK.json`, `dfbench list`,
//! `dfbench compare` and the README glossary all derive from these.

use crate::structures::Construction;
use crate::util::Json;
use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen before `compare` calls it a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Counted by the program at a fixed seed: must repeat bit for bit.
    Exact,
    /// Share of the baseline's median.
    Within(f64),
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The bound `compare` applies between two runs with the same seed.
    pub bound: Bound,
    /// The bound in `BENCHMARK.json`. The acceptance driver compares medians
    /// over runs with *different* seeds and accepts a metric only if that
    /// cross-seed spread stays inside the bound, on a sandbox whose speed
    /// drifts by the quarter-hour. So a count that is exact per seed still
    /// needs a small positive bound there, and the wall-clock bounds are the
    /// widest the driver allows.
    pub driver_bound: f64,
    pub what: &'static str,
}

const fn wall(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    driver_bound: f64,
    what: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound: Bound::Within(bound),
        driver_bound,
        what,
    }
}

const fn counted(name: &'static str, unit: &'static str, what: &'static str) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        bound: Bound::Exact,
        driver_bound: 0.04,
        what,
    }
}

use Better::{Higher, Lower};

/// Every workload reports every one of these.
pub const END_TO_END: [EndToEnd; 14] = [
    wall("setup_s", "s", Lower, 0.25, 0.25, "median per-repetition construct + prefill + persist_everything, summed over the three constructions"),
    wall("original_mops", "Mops", Higher, 0.10, 0.25, "timed pass, untransformed program: the control, only a pmem-level change may move it"),
    wall("general_mops", "Mops", Higher, 0.10, 0.25, "timed pass, capsules + CAS-Read transformation"),
    wall("normalized_mops", "Mops", Higher, 0.10, 0.25, "timed pass, normalized transformation"),
    wall("general_vs_original", "ratio", Higher, 0.10, 0.25, "median over rounds of general / original throughput in the same round: what persistence costs (Fig. 7), with the host's speed divided out"),
    wall("normalized_vs_original", "ratio", Higher, 0.10, 0.25, "median over rounds of normalized / original throughput in the same round"),
    counted("general_flushes_per_op", "count", "count pass: cache-line flushes per operation"),
    counted("general_fences_per_op", "count", "count pass: fences per operation"),
    counted("normalized_flushes_per_op", "count", "count pass: cache-line flushes per operation"),
    counted("normalized_fences_per_op", "count", "count pass: fences per operation"),
    counted("general_delay_x", "ratio", "count pass: simulated instructions per op, general / original - the paper's computational delay (Def. 3.1)"),
    counted("normalized_delay_x", "ratio", "count pass: simulated instructions per op, normalized / original"),
    wall("general_recovery_steps", "instr/crash", Lower, 0.05, 0.08, "faulty pass: Stats::recovery_steps / Stats::crashes - the paper's recovery delay"),
    wall("normalized_recovery_steps", "instr/crash", Lower, 0.05, 0.08, "faulty pass: Stats::recovery_steps / Stats::crashes"),
];

/// One per-layer metric.
#[derive(Clone, Debug)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Defined by every workload, so listed in `BENCHMARK.json` (whose runner
    /// expects every listed metric from every workload). The rest appear in
    /// `dfbench traced` for the workloads that define them.
    pub universal: bool,
}

fn layer(name: impl Into<String>, unit: &'static str, better: Better, universal: bool) -> PerLayer {
    PerLayer {
        name: name.into(),
        unit,
        better,
        universal,
    }
}

/// Every per-layer metric the traced run can emit.
pub fn per_layer() -> Vec<PerLayer> {
    let mut v = Vec::new();
    for op in ["read", "write", "cas", "flush", "fence", "alloc"] {
        v.push(layer(format!("pmem.{op}_ns"), "ns", Lower, true));
    }
    for c in Construction::ALL.map(Construction::label) {
        for (m, unit) in [
            ("reads_per_op", "count"),
            ("writes_per_op", "count"),
            ("cas_per_op", "count"),
            ("cas_fail_frac", "fraction"),
            ("dup_flushes_per_op", "count"),
            ("words_alloc_per_op", "count"),
            ("seg_resolves_per_kop", "count"),
            ("est_ns_per_op", "ns"),
        ] {
            v.push(layer(format!("pmem.{c}.{m}"), unit, Lower, true));
        }
    }
    for m in ["cas_ns", "cas_evidence_ns", "read_ns", "recover_ns"] {
        v.push(layer(format!("rcas.{m}"), "ns", Lower, true));
    }
    for m in ["cas_instr", "cas_flushes", "cas_fences", "cas_raw_cas"] {
        v.push(layer(format!("rcas.{m}"), "count", Lower, true));
    }
    v.push(layer("rcas.cas_fail_frac_2t", "fraction", Lower, true));
    for m in ["boundary_ns.general", "boundary_ns.compact", "empty_op_ns"] {
        v.push(layer(format!("capsules.{m}"), "ns", Lower, true));
    }
    for m in ["boundary_flushes", "boundary_fences", "boundary_writes"] {
        v.push(layer(format!("capsules.{m}"), "count", Lower, true));
    }
    for c in Construction::DETECTABLE.map(Construction::label) {
        v.push(layer(
            format!("rcas.{c}.cas_per_op_est"),
            "count",
            Lower,
            true,
        ));
        v.push(layer(
            format!("rcas.{c}.self_est_ns_per_op"),
            "ns",
            Lower,
            true,
        ));
        v.push(layer(
            format!("capsules.{c}.boundaries_per_op"),
            "count",
            Lower,
            true,
        ));
        v.push(layer(
            format!("capsules.{c}.capsules_per_op"),
            "count",
            Lower,
            true,
        ));
        v.push(layer(
            format!("capsules.{c}.fast_op_frac"),
            "fraction",
            Higher,
            true,
        ));
        v.push(layer(
            format!("capsules.{c}.demotions_per_kop"),
            "count",
            Lower,
            true,
        ));
        v.push(layer(
            format!("capsules.{c}.self_est_ns_per_op"),
            "ns",
            Lower,
            true,
        ));
        for m in ["recoveries", "entry_retries", "recovery_crashes"] {
            v.push(layer(format!("capsules.{c}.{m}"), "count", Lower, true));
        }
    }
    for sim in ["constant_delay", "cas_read", "normalized"] {
        v.push(layer(format!("core.{sim}.ns_per_op"), "ns", Lower, true));
        v.push(layer(
            format!("core.{sim}.instr_per_op"),
            "count",
            Lower,
            true,
        ));
        v.push(layer(format!("core.{sim}.delay_x"), "ratio", Lower, true));
    }
    for c in Construction::ALL.map(Construction::label) {
        for (m, unit, universal) in [
            ("update_ns_p50", "ns", true),
            ("update_ns_p99", "ns", true),
            ("update_flushes", "count", true),
            ("update_fences", "count", true),
            ("span_ns_mean", "ns", true),
            ("self_ns_per_op", "ns", true),
            ("read_ns_p50", "ns", false),
            ("read_flushes", "count", false),
            ("read_fences", "count", false),
        ] {
            v.push(layer(format!("structure.{c}.{m}"), unit, Lower, universal));
        }
    }
    for rate in ["r20k", "r40k", "r80k"] {
        for p in ["p50_us", "p99_us", "p999_us"] {
            v.push(layer(format!("service.{rate}.{p}"), "us", Lower, false));
        }
    }
    for (m, unit, better) in [
        ("submit_ns_p50", "ns", Lower),
        ("max_rate_kops", "kops", Higher),
        ("saturation_kops", "kops", Higher),
        ("queue_wait_est_us", "us", Lower),
        ("gen_late_p99_us", "us", Lower),
        ("gen_late_max_us", "us", Lower),
        ("recovery_ms", "ms", Lower),
        ("detect_ms", "ms", Lower),
        ("replay_ms", "ms", Lower),
        ("system_recovery_ms", "ms", Lower),
        ("kills_mid_op", "count", Higher),
        ("resumed_ops", "count", Higher),
        ("reexecuted_ops", "count", Higher),
        ("healthy_ops_during_outage", "count", Higher),
        ("retries_per_kreq", "count", Lower),
        ("refused_frac", "fraction", Lower),
    ] {
        v.push(layer(format!("service.{m}"), unit, better, false));
    }
    v.push(layer("trace.overhead_frac", "fraction", Lower, true));
    for m in ["nproc", "loadavg1", "seed"] {
        v.push(layer(format!("run.{m}"), "count", Lower, true));
    }
    v
}

/// The `run_seconds` of `BENCHMARK.json` and the default of `run`/`traced`.
pub const RUN_SECONDS: u64 = 15;

/// `BENCHMARK.json`, generated so it cannot drift from the tables.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--manifest-path",
                "dfbench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["dfbench"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.driver_bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .filter(|m| m.universal)
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name.clone())),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `dfbench list`: names, units, bounds and the workloads.
pub fn list() -> String {
    let mut out = String::from("workloads\n");
    for w in &WORKLOADS {
        out += &format!("  {:<16} {}\n", w.name, w.why);
    }
    out += "\nend-to-end metrics (every workload reports every one; bound: same-seed compare / BENCHMARK.json)\n";
    for m in &END_TO_END {
        let bound = match m.bound {
            Bound::Exact => "exact".to_string(),
            Bound::Within(b) => format!("{:.0}%", b * 100.0),
        };
        let driver = format!("{:.0}%", m.driver_bound * 100.0);
        out += &format!(
            "  {:<26} {:<12} {:<7} {:>5} / {:<4} {}\n",
            m.name,
            m.unit,
            m.better.label(),
            bound,
            driver,
            m.what
        );
    }
    out += "\nper-layer metrics (traced run; * = every workload, listed in BENCHMARK.json)\n";
    for m in per_layer() {
        let mark = if m.universal { '*' } else { ' ' };
        out += &format!(
            "  {mark} {:<40} {:<9} {}\n",
            m.name,
            m.unit,
            m.better.label()
        );
    }
    out
}
