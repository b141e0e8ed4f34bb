//! One workload, start to finish: the untraced run that produces the
//! end-to-end metrics and the traced run that produces the per-layer ones.

use std::time::Instant;

use crate::layers::{
    traced_pass, CapsuleCosts, CoreCosts, PmemCosts, RcasCosts, SimulatorCost, Traced,
};
use crate::metrics::{per_layer, PerLayer, END_TO_END};
use crate::passes::{
    count_pass, faulty_pass, latency_pass, plain_pass, restart_rep, timed_rep, Counted, Faulted,
};
use crate::service_load::{serve, Load, Served};
use crate::structures::Construction;
use crate::util::{loadavg1, median, peak_rss_mb, quantile_ns, Json, Summary};
use crate::workloads::{ModelFault, ServiceSpec, Shape, Spec};
use structs::StructOp;

/// Faults the faulty pass must inject per construction for its mean to count.
const MIN_CRASHES: u64 = 100;
/// Measured rounds of the timed pass, whatever the time budget.
const MIN_ROUNDS: usize = 3;
/// Repetitions of the restart (crash the general construction, boot, answer).
const RESTART_REPS: usize = 3;
/// Spans per construction written to the trace file (all are summarised).
const TRACE_FILE_SPANS: usize = 20_000;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    pub traced: bool,
    /// Checker self-test: compare against a deliberately wrong model.
    pub break_model: Option<ModelFault>,
}

/// One named number with its repetitions summarised.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

/// The result of one workload run.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub options: Options,
    /// Operations, requests and drills whose outcome was checked.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
    /// Facts about the run that are not metrics (sample counts, faults
    /// injected, generator lateness, elements lost across a restart…).
    pub info: Vec<(String, f64)>,
    /// Why `failed` is not zero, for people.
    pub complaints: Vec<String>,
    /// Checks that tripped on a defect already written up (README, "Known
    /// findings"): reported, not counted as failed.
    pub known_defects: Vec<(String, u64)>,
    /// The traced run's spans.
    pub trace: Option<Json>,
    /// The per-layer table, built once (units and the listed names come from it).
    layers: Vec<PerLayer>,
}

impl Outcome {
    fn new(spec: &Spec, options: Options) -> Outcome {
        Outcome {
            workload: spec.name,
            options,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            info: Vec::new(),
            complaints: Vec::new(),
            known_defects: Vec::new(),
            trace: None,
            layers: per_layer(),
        }
    }

    fn push(&mut self, name: impl Into<String>, summary: Summary) {
        let name = name.into();
        let unit = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.unit)
            .or_else(|| self.layers.iter().find(|m| m.name == name).map(|m| m.unit))
            .unwrap_or_else(|| panic!("metric {name} is not in the tables"));
        self.metrics.push(Measured {
            name,
            unit,
            summary,
        });
    }

    fn exact(&mut self, name: impl Into<String>, value: f64) {
        self.push(name, Summary::exact(value));
    }

    fn note(&mut self, name: impl Into<String>, value: f64) {
        self.info.push((name.into(), value));
    }

    /// Record `attempted` checked outcomes of which `failed` were wrong.
    fn check(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.fail(failed, what);
    }

    /// Record failures among outcomes already counted as attempted.
    fn fail(&mut self, failed: u64, what: impl FnOnce() -> String) {
        self.failed += failed;
        if failed > 0 {
            self.complaints.push(format!("{failed} × {}", what()));
        }
    }

    /// Sort wrong outcomes that a defect the README already describes ("Known
    /// findings") may explain: where the rule `applies` they are tallied under
    /// the defect and none is left to count as failed; elsewhere all are.
    fn quarantine(&mut self, applies: bool, hits: u64, which: &str) -> u64 {
        if !applies {
            return hits;
        }
        if hits > 0 {
            match self.known_defects.iter_mut().find(|(k, _)| k == which) {
                Some((_, n)) => *n += hits,
                None => self.known_defects.push((which.to_string(), hits)),
            }
        }
        0
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.summary.median.is_finite())
    }

    pub fn metric(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line result the acceptance driver reads: exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`, and of the metrics exactly
    /// those `BENCHMARK.json` lists for this kind of run.
    pub fn contract_line(&self) -> String {
        let listed: Vec<&str> = if self.options.traced {
            self.layers
                .iter()
                .filter(|m| m.universal)
                .map(|m| m.name.as_str())
                .collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let metrics = listed.iter().filter_map(|name| {
            let m = self.metric(name)?;
            Some((
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(m.summary.median)),
                    ("unit", Json::str(m.unit)),
                ]),
            ))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// Everything measured, for `result.json` and `compare`.
    pub fn detail(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let s = &m.summary;
            (
                m.name.clone(),
                Json::obj([
                    ("value", Json::Num(s.median)),
                    ("unit", Json::str(m.unit)),
                    ("samples", Json::Num(s.samples as f64)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("min", Json::Num(s.min)),
                    ("max", Json::Num(s.max)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.options.seed as f64)),
            ("seconds", Json::Num(self.options.seconds)),
            ("traced", Json::Bool(self.options.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "complaints",
                Json::Arr(self.complaints.iter().map(Json::str).collect()),
            ),
            (
                "known_defects",
                Json::obj(
                    self.known_defects
                        .iter()
                        .map(|(k, n)| (k.clone(), Json::Num(*n as f64))),
                ),
            ),
            ("metrics", Json::obj(metrics)),
            (
                "info",
                Json::obj(self.info.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
            ),
        ])
    }
}

/// Run `spec` once.
pub fn run_workload(spec: &Spec, options: Options) -> Outcome {
    let mut out = Outcome::new(spec, options);
    if options.traced {
        traced_run(spec, &mut out);
    } else {
        untraced_run(spec, &mut out);
    }
    out
}

fn per_op(count: u64, ops: u64) -> f64 {
    count as f64 / ops as f64
}

/// The count pass of all three constructions, model-checked.
fn counted(spec: &Spec, out: &mut Outcome) -> [Counted; 3] {
    let stream = spec.stream(out.options.seed, 0, spec.count_ops);
    Construction::ALL.map(|c| {
        let k = count_pass(spec, c, &stream, out.options.break_model);
        out.check(k.ops, k.mismatches, || {
            format!(
                "count pass, {}: return that disagrees with the model",
                c.label()
            )
        });
        k
    })
}

/// The faulty pass of both detectable constructions, model-checked.
fn faulted(spec: &Spec, out: &mut Outcome) -> [Faulted; 2] {
    let stream = spec.stream(out.options.seed, 0, spec.faulty_ops);
    Construction::DETECTABLE.map(|c| {
        let f = faulty_pass(spec, c, &stream, out.options.seed);
        out.check(f.ops, f.mismatches, || {
            format!(
                "faulty pass, {}: return that disagrees with the model",
                c.label()
            )
        });
        out.fail((f.crashes < MIN_CRASHES) as u64, || {
            format!(
                "faulty pass, {}: only {} faults injected",
                c.label(),
                f.crashes
            )
        });
        out.note(format!("{}_faults_injected", c.label()), f.crashes as f64);
        f
    })
}

fn untraced_run(spec: &Spec, out: &mut Outcome) {
    let (seed, seconds) = (out.options.seed, out.options.seconds);

    // The service's own sessions take a third of the window where there are any.
    let budget = if spec.service.is_some() {
        seconds * 2.0 / 3.0
    } else {
        seconds
    };
    let streams: Vec<_> = (0..spec.threads)
        .map(|pid| spec.stream(seed, pid, spec.ops_per_thread))
        .collect();
    let began = Instant::now();
    let mut setups = Vec::new();
    let mut mops: [Vec<f64>; 3] = Default::default();
    let mut vs_original: [Vec<f64>; 2] = Default::default();
    // Round-robin over the constructions, so a burst from a noisy neighbour
    // lands on all three; round 0 warms up and is discarded.
    for round in 0.. {
        if round > MIN_ROUNDS && began.elapsed().as_secs_f64() >= budget {
            break;
        }
        let reps = Construction::ALL.map(|c| timed_rep(spec, c, &streams));
        for (c, rep) in Construction::ALL.iter().zip(&reps) {
            // README, "Known findings": two clients crossing a map resize can
            // leave the element count off.
            let counted = out.quarantine(
                spec.shape == Shape::Map && spec.threads > 1,
                rep.count_violations,
                "map under two clients: element count off after a timed repetition",
            );
            out.check(rep.ops, counted + rep.contents_violations, || {
                format!("timed pass, {}: conservation violation", c.label())
            });
        }
        if round == 0 {
            continue;
        }
        setups.push(reps.iter().map(|r| r.setup_s).sum());
        for (samples, rep) in mops.iter_mut().zip(&reps) {
            samples.push(rep.mops);
        }
        for (samples, rep) in vs_original.iter_mut().zip(&reps[1..]) {
            samples.push(rep.mops / reps[0].mops);
        }
    }
    for (c, samples) in Construction::ALL.iter().zip(&mops) {
        out.push(format!("{}_mops", c.label()), Summary::of(samples));
    }
    for (c, samples) in Construction::DETECTABLE.iter().zip(&vs_original) {
        out.push(format!("{}_vs_original", c.label()), Summary::of(samples));
    }
    out.push("setup_s", Summary::of(&setups));
    out.note("timed_rounds", setups.len() as f64);

    let restarts = [(); RESTART_REPS].map(|()| restart_rep(spec, Construction::General, &streams));
    out.note("restart_ms", median(&restarts.map(|r| r.ms)));
    // README, "Known findings": with two clients, flush coalescing leaves
    // acknowledged operations unflushed, so a full-system crash loses them.
    let unsound: u64 = restarts
        .iter()
        .map(|r| r.lost + r.resurrected + r.contents_violations)
        .sum();
    let unsound = out.quarantine(
        spec.threads > 1,
        unsound,
        "two clients: a full-system crash did not preserve what was acknowledged",
    );
    out.check(restarts.len() as u64, unsound, || {
        "restart: the restarted structure does not hold what was acknowledged".into()
    });

    let [original, general, normalized] = counted(spec, out);
    for (c, k) in [("general", &general), ("normalized", &normalized)] {
        out.exact(
            format!("{c}_flushes_per_op"),
            per_op(k.stats.flushes, k.ops),
        );
        out.exact(format!("{c}_fences_per_op"), per_op(k.stats.fences, k.ops));
        out.exact(
            format!("{c}_delay_x"),
            k.stats.total_instructions() as f64 / original.stats.total_instructions() as f64,
        );
    }
    for (c, f) in Construction::DETECTABLE.iter().zip(faulted(spec, out)) {
        out.exact(
            format!("{}_recovery_steps", c.label()),
            per_op(f.recovery_steps, f.crashes.max(1)),
        );
    }

    let stream = spec.stream(seed, 0, spec.count_ops);
    let latency = latency_pass(spec, Construction::General, &stream);
    out.note("req_p50_us", latency.p50_ns / 1e3);
    out.note("req_p99_us", latency.p99_ns / 1e3);

    // With tracing off the service runs for its checks: nothing refused, the
    // shards' exactly-once oracles clean, every drill recovered in time. Its
    // latency and recovery times are per-layer numbers (README, "Demoted").
    if let Some(svc) = spec.service {
        let paced = serve(
            spec,
            seed,
            Load::Paced {
                rate: svc.rate,
                secs: seconds / 6.0,
            },
            false,
        );
        service_checks(out, &paced);
        out.note("service_p50_us", paced.latency.p50_ns as f64 / 1e3);
        out.note("service_gen_late_p99_us", paced.gen_late_p99_us);
        let drilled = serve(
            spec,
            seed,
            Load::PacedThroughDrills { rate: svc.rate },
            false,
        );
        service_checks(out, &drilled);
        drill_checks(out, &svc, &drilled);
    }
    out.note("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
}

/// One round of the layer probes: every unit cost, then the traced pass of
/// each construction with its split by layer. Returns the named values and
/// the traced passes (their spans).
fn layer_round(spec: &Spec, stream: &[StructOp]) -> (Vec<(String, f64)>, Vec<Traced>) {
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut put = |name: String, v: f64| values.push((name, v));
    let pmem = PmemCosts::measure();
    let rcas = RcasCosts::measure(&pmem);
    let caps = CapsuleCosts::measure(&pmem);
    let core = CoreCosts::measure();
    for (name, v) in [
        ("pmem.read_ns", pmem.read_ns),
        ("pmem.write_ns", pmem.write_ns),
        ("pmem.cas_ns", pmem.cas_ns),
        ("pmem.flush_ns", pmem.flush_ns),
        ("pmem.fence_ns", pmem.fence_ns),
        ("pmem.alloc_ns", pmem.alloc_ns),
        ("rcas.cas_ns", rcas.cas_ns),
        ("rcas.cas_evidence_ns", rcas.cas_evidence_ns),
        ("rcas.read_ns", rcas.read_ns),
        ("rcas.recover_ns", rcas.recover_ns),
        ("rcas.cas_instr", rcas.cas_instr),
        ("rcas.cas_flushes", rcas.cas_flushes),
        ("rcas.cas_fences", rcas.cas_fences),
        ("rcas.cas_raw_cas", rcas.cas_raw_cas),
        ("rcas.cas_fail_frac_2t", rcas.cas_fail_frac_2t),
        ("capsules.boundary_ns.general", caps.boundary_ns_general),
        ("capsules.boundary_ns.compact", caps.boundary_ns_compact),
        ("capsules.empty_op_ns", caps.empty_op_ns),
        ("capsules.boundary_flushes", caps.boundary_flushes),
        ("capsules.boundary_fences", caps.boundary_fences),
        ("capsules.boundary_writes", caps.boundary_writes),
    ] {
        put(name.to_string(), v);
    }
    for (
        sim,
        SimulatorCost {
            ns_per_op,
            instr_per_op,
            delay_x,
        },
    ) in [
        ("constant_delay", core.constant_delay),
        ("cas_read", core.cas_read),
        ("normalized", core.normalized),
    ] {
        put(format!("core.{sim}.ns_per_op"), ns_per_op);
        put(format!("core.{sim}.instr_per_op"), instr_per_op);
        put(format!("core.{sim}.delay_x"), delay_x);
    }

    let mut trace = Vec::new();
    for c in Construction::ALL {
        let traced = traced_pass(spec, c, stream);
        let ops = traced.spans.len() as u64;
        let label = c.label();
        let s = &traced.stats;
        put(format!("pmem.{label}.reads_per_op"), per_op(s.reads, ops));
        put(format!("pmem.{label}.writes_per_op"), per_op(s.writes, ops));
        put(format!("pmem.{label}.cas_per_op"), per_op(s.cas, ops));
        put(
            format!("pmem.{label}.cas_fail_frac"),
            1.0 - per_op(s.cas_success, s.cas.max(1)),
        );
        put(
            format!("pmem.{label}.dup_flushes_per_op"),
            per_op(s.duplicate_flushes, ops),
        );
        put(
            format!("pmem.{label}.words_alloc_per_op"),
            per_op(s.words_allocated, ops),
        );
        put(
            format!("pmem.{label}.seg_resolves_per_kop"),
            per_op(s.seg_resolves, ops) * 1e3,
        );
        let pmem_est = pmem.estimate_ns(s) / ops as f64;
        put(format!("pmem.{label}.est_ns_per_op"), pmem_est);

        // The mean span splits into instructions at their unit cost, the
        // capsule runtime's and the recoverable CAS's own time on top of
        // their instructions, and a residual (taken in `traced_run`).
        let span_mean = traced
            .spans
            .iter()
            .map(|sp| (sp.end_ns - sp.start_ns) as f64)
            .sum::<f64>()
            / ops as f64;
        if let Some(m) = traced.capsules {
            let rcas_per_op = per_op(s.cas, ops) / rcas.cas_raw_cas;
            let rcas_self = rcas_per_op * rcas.cas_self_ns;
            let caps_self = per_op(m.boundaries, ops) * caps.boundary_self_ns + caps.empty_op_ns;
            put(format!("rcas.{label}.cas_per_op_est"), rcas_per_op);
            put(format!("rcas.{label}.self_est_ns_per_op"), rcas_self);
            put(
                format!("capsules.{label}.boundaries_per_op"),
                per_op(m.boundaries, ops),
            );
            put(
                format!("capsules.{label}.capsules_per_op"),
                per_op(m.capsules, ops),
            );
            put(
                format!("capsules.{label}.fast_op_frac"),
                per_op(m.fast_ops, ops),
            );
            put(
                format!("capsules.{label}.demotions_per_kop"),
                per_op(m.demotions, ops) * 1e3,
            );
            put(format!("capsules.{label}.self_est_ns_per_op"), caps_self);
        }
        put(format!("structure.{label}.span_ns_mean"), span_mean);

        for (kind, read) in [("update", false), ("read", true)] {
            let of_kind: Vec<_> = traced.spans.iter().filter(|sp| sp.read == read).collect();
            if of_kind.is_empty() {
                continue;
            }
            let n = of_kind.len() as f64;
            let mut ns: Vec<u32> = of_kind
                .iter()
                .map(|sp| (sp.end_ns - sp.start_ns).min(u32::MAX as u64) as u32)
                .collect();
            put(
                format!("structure.{label}.{kind}_ns_p50"),
                quantile_ns(&mut ns, 0.50),
            );
            if !read {
                put(
                    format!("structure.{label}.{kind}_ns_p99"),
                    quantile_ns(&mut ns, 0.99),
                );
            }
            put(
                format!("structure.{label}.{kind}_flushes"),
                of_kind.iter().map(|sp| sp.flushes as f64).sum::<f64>() / n,
            );
            put(
                format!("structure.{label}.{kind}_fences"),
                of_kind.iter().map(|sp| sp.fences as f64).sum::<f64>() / n,
            );
        }
        if c == Construction::General {
            let traced_mops = ops as f64 / traced.secs / 1e6;
            put(
                "trace.overhead_frac".to_string(),
                1.0 - traced_mops / plain_pass(spec, c, stream),
            );
        }
        trace.push(traced);
    }
    (values, trace)
}

fn traced_run(spec: &Spec, out: &mut Outcome) {
    let (seed, seconds) = (out.options.seed, out.options.seconds);
    // Outputs are checked here too; the traced pass itself checks nothing,
    // so that a span holds the handle call alone.
    counted(spec, out);
    for (c, f) in Construction::DETECTABLE.iter().zip(faulted(spec, out)) {
        let c = c.label();
        out.exact(
            format!("capsules.{c}.recoveries"),
            f.capsules.recoveries as f64,
        );
        out.exact(
            format!("capsules.{c}.entry_retries"),
            f.capsules.entry_retries as f64,
        );
        out.exact(
            format!("capsules.{c}.recovery_crashes"),
            f.capsules.recovery_crashes as f64,
        );
    }

    // Rounds of the layer probes until the window is used (the service's
    // sessions take five sixths of it where there are any); every value is
    // the median over the rounds, and the counts are the same in each.
    let budget = if spec.service.is_some() {
        seconds / 6.0
    } else {
        seconds
    };
    let stream = spec.stream(seed, 0, spec.count_ops);
    let began = Instant::now();
    let mut rounds: Vec<Vec<(String, f64)>> = Vec::new();
    while rounds.is_empty() || began.elapsed().as_secs_f64() < budget {
        let (values, traced) = layer_round(spec, &stream);
        rounds.push(values);
        // The first round's spans are the ones written out.
        out.trace
            .get_or_insert_with(|| Json::Arr(traced.iter().map(|t| trace_json(spec, t)).collect()));
    }
    for (i, (name, _)) in rounds[0].iter().enumerate() {
        let samples: Vec<f64> = rounds.iter().map(|round| round[i].1).collect();
        out.push(name.clone(), Summary::of(&samples));
    }
    out.note("layer_rounds", rounds.len() as f64);
    // What the layers below do not explain: the structure's own time plus
    // whatever the unit costs miss (the span's clock reads, cache misses).
    // Taken from the reported values, so the four parts add up to the span.
    for c in Construction::ALL.map(Construction::label) {
        let value = |name: String| out.metric(&name).map_or(0.0, |m| m.summary.median);
        let explained = value(format!("pmem.{c}.est_ns_per_op"))
            + value(format!("capsules.{c}.self_est_ns_per_op"))
            + value(format!("rcas.{c}.self_est_ns_per_op"));
        let residual = value(format!("structure.{c}.span_ns_mean")) - explained;
        out.exact(format!("structure.{c}.self_ns_per_op"), residual);
    }
    let general_update_p50_ns = out
        .metric("structure.general.update_ns_p50")
        .map_or(f64::NAN, |m| m.summary.median);

    if let Some(svc) = spec.service {
        let secs = seconds / 6.0;
        let mut max_rate = 0.0;
        for (rate, tag) in svc.ladder.iter().zip(["r20k", "r40k", "r80k"]) {
            let w = serve(spec, seed, Load::Paced { rate: *rate, secs }, true);
            service_checks(out, &w);
            let us = |ns: u64| ns as f64 / 1e3;
            out.exact(format!("service.{tag}.p50_us"), us(w.latency.p50_ns));
            out.exact(format!("service.{tag}.p99_us"), us(w.latency.p99_ns));
            out.exact(format!("service.{tag}.p999_us"), us(w.latency.p999_ns));
            if us(w.latency.p50_ns) <= 100.0 && w.refused == 0 && w.drain_ms <= 50.0 {
                max_rate = f64::max(max_rate, *rate as f64 / 1e3);
            }
            if *rate == svc.rate {
                out.exact("service.submit_ns_p50", w.submit_ns_p50.unwrap_or(f64::NAN));
                out.exact(
                    "service.queue_wait_est_us",
                    us(w.latency.p50_ns) - general_update_p50_ns / 1e3,
                );
                out.exact("service.gen_late_p99_us", w.gen_late_p99_us);
                out.exact("service.gen_late_max_us", w.gen_late_max_us);
            }
        }
        out.exact("service.max_rate_kops", max_rate);
        let flood = serve(spec, seed, Load::Flood { secs }, true);
        service_checks(out, &flood);
        out.exact(
            "service.saturation_kops",
            flood.completed as f64 / flood.load_secs / 1e3,
        );

        let d = serve(
            spec,
            seed,
            Load::PacedThroughDrills { rate: svc.rate },
            true,
        );
        service_checks(out, &d);
        drill_checks(out, &svc, &d);
        let of = |full: bool, f: fn(&crate::service_load::Drill) -> f64| -> Vec<f64> {
            d.drills
                .iter()
                .filter(|x| x.full_system == full)
                .map(f)
                .collect()
        };
        if d.drills.iter().any(|x| !x.full_system) && d.drills.iter().any(|x| x.full_system) {
            out.exact("service.recovery_ms", median(&of(false, |x| x.total_ms)));
            out.exact("service.detect_ms", median(&of(false, |x| x.detect_ms)));
            out.exact("service.replay_ms", median(&of(false, |x| x.replay_ms)));
            out.exact(
                "service.system_recovery_ms",
                median(&of(true, |x| x.total_ms)),
            );
        }
        out.exact("service.kills_mid_op", d.kills_mid_op as f64);
        out.exact("service.resumed_ops", d.resumed_ops as f64);
        out.exact("service.reexecuted_ops", d.reexecuted_ops as f64);
        out.exact(
            "service.healthy_ops_during_outage",
            d.drills
                .iter()
                .map(|x| x.healthy_ops_during_outage as f64)
                .sum(),
        );
        out.exact(
            "service.retries_per_kreq",
            d.retries as f64 / d.issued as f64 * 1e3,
        );
        out.exact("service.refused_frac", d.refused as f64 / d.issued as f64);
    }

    out.exact(
        "run.nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    out.exact("run.loadavg1", loadavg1().unwrap_or(0.0));
    out.exact("run.seed", seed as f64);
}

/// The drill session's own checks: every drill ran, and the shards that were
/// not killed kept serving. An outage can be shorter than the gap between two
/// requests, so that claim is about the drills together, as in `service`'s
/// own test.
fn drill_checks(out: &mut Outcome, svc: &ServiceSpec, s: &Served) {
    out.check(
        svc.drills as u64,
        (svc.drills - s.drills.len()) as u64,
        || "drill did not run".into(),
    );
    let healthy: u64 = s.drills.iter().map(|d| d.healthy_ops_during_outage).sum();
    out.fail((healthy == 0) as u64, || {
        "healthy shards served nothing during any shard-local outage".into()
    });
}

/// The checks every service session gets: nothing refused for good, no
/// exactly-once violation in the shards' own oracles, every drill in time.
fn service_checks(out: &mut Outcome, s: &Served) {
    out.check(s.issued, s.refused, || {
        "request refused past the retry budget".into()
    });
    out.fail(s.violations.len() as u64, || {
        format!("service violation: {}", s.violations.join("; "))
    });
    out.fail(
        s.drills.iter().filter(|d| !d.within_deadline).count() as u64,
        || "drill past the recovery deadline".into(),
    );
}

/// The spans of one construction's traced pass: the pass is the parent span,
/// each handle call a child `[read, start_ns, end_ns, flushes, fences]`.
fn trace_json(spec: &Spec, traced: &Traced) -> Json {
    let spans = traced.spans.iter().take(TRACE_FILE_SPANS).map(|sp| {
        Json::Arr(
            [
                sp.read as u64 as f64,
                sp.start_ns as f64,
                sp.end_ns as f64,
                sp.flushes as f64,
                sp.fences as f64,
            ]
            .map(Json::Num)
            .to_vec(),
        )
    });
    Json::obj([
        (
            "name",
            Json::str(format!(
                "{}/traced/{}",
                spec.name,
                traced.construction.label()
            )),
        ),
        ("layer", Json::str(spec.shape.layer())),
        ("start_ns", Json::Num(0.0)),
        ("end_ns", Json::Num(traced.secs * 1e9)),
        ("spans_total", Json::Num(traced.spans.len() as f64)),
        (
            "child_fields",
            Json::Arr(
                ["read", "start_ns", "end_ns", "flushes", "fences"]
                    .map(Json::str)
                    .to_vec(),
            ),
        ),
        ("children", Json::Arr(spans.collect())),
    ])
}
