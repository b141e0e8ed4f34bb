//! `dfck` — exhaustive crash-point sweep over every variant of every shape.
//!
//! For each swept [`Variant`] — the queues MSQ-Izraelevitz, General, General-Opt,
//! Normalized, Normalized-Opt and LogQueue, plus the Treiber stack, the
//! linked-list set and the bucketed hash map, each as Izraelevitz / General /
//! Normalized — runs the shape's pair workload (for the maps, the
//! resize-crossing window on a [`structs::MapConfig::tiny`] bucket array) and
//! a seeded multi-op workload once per possible crash point (count taken from
//! [`pmem::Stats::crash_points`], never hard-coded) under *both* crash
//! flavours — per-process faults (the PPM model) and full-system power
//! failures (`/system`: unflushed cache lines roll back, verifying flush
//! placement) — plus a nested sweep that injects a second crash inside the
//! recovery triggered by the first. Every replay runs with the
//! [`pmem::HbAnalyzer`] armed and is checked against the shape's
//! exactly-once / durable-linearizability oracle. Exits non-zero on any
//! oracle violation or happens-before flag, and on a run that verified
//! nothing: no rows at all, or a row that injected no crash. The
//! per-crash-point replays fan out across worker threads (one per core, at
//! most 8), keeping the full matrix inside the CI budget.
//!
//! On top of the single-threaded matrix, the binary sweeps the **interleaved**
//! dimension: the same engine driven by 2 deterministic cooperative threads
//! under the [`pmem::ThreadScheduler`], enumerating (interleaving seed ×
//! victim crash point) with the oracle generalized to linearization checking
//! over the scheduler's global instruction clock. Every queue variant and
//! every detectable stack / set / map variant runs concurrently by default
//! (`DF_DFCK_CONC_VARIANTS` narrows the set for bounded CI jobs).
//!
//! ```text
//! cargo run -p bench --release --bin dfck
//! DF_DFCK_OPS=12 DF_DFCK_SEED=7 cargo run -p bench --release --bin dfck
//! DF_JSON=1 cargo run -p bench --release --bin dfck   # also write BENCH_dfck.json
//! DF_DFCK_CONC_ONLY=1 DF_DFCK_CONC_SEEDS=2 cargo run -p bench --release --bin dfck
//! ```
//!
//! A value that does not parse (or a zero `DF_DFCK_OPS`) ends the run with
//! exit code 2, as does a `DF_DFCK_CONC_VARIANTS` label the matrix lacks.
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `DF_DFCK_OPS`  | operations in the seeded multi-op workload (≥ 1) | 8 |
//! | `DF_DFCK_SEED` | seed of the multi-op workload | 42 |
//! | `DF_DFCK_CONC_SEEDS` | interleaving seeds per concurrent sweep (0 = skip) | 8 |
//! | `DF_DFCK_CONC_ONLY` | non-zero: run only the interleaved matrix | 0 |
//! | `DF_DFCK_CONC_VARIANTS` | comma list of variant labels to sweep concurrently | all |

use std::time::Instant;

use bench::dfck::{
    sweep, sweep_interleaved, sweep_interleaved_multi, sweep_system, ConcWorkload, Shape, Variant,
    Workload,
};
use bench::json::{emit, require_nonzero, JsonRow};
use bench::sweep::Report;
use bench::{env_u64, env_u64_in};

/// Crash-point gap of the nested (crash-during-recovery) rows: the second
/// crash lands on the first instruction of the recovery the first triggered.
const NESTED_GAP: u64 = 0;
/// Co-victim crash gap of the multi-victim (`/mv`) rows.
const MV_GAP: u64 = 3;
/// Scheduled worker pids per concurrent replay (the map's `/mv` row runs 3).
const CONC_THREADS: usize = 2;

/// The sweep's display/JSON label, shared by the console table and the
/// emitted rows so the committed baseline can be cross-referenced with CI
/// logs: `variant/workload[/tN][/nestedG][/mv][/system]` (`/tN` = interleaved
/// over N scheduled pids; `/mv` = multi-victim: a co-victim pid crashes in the
/// same replay).
fn label(r: &Report) -> String {
    let mut label = format!("{}/{}", r.variant.label(), r.workload);
    if let Some(threads) = r.threads {
        label.push_str(&format!("/t{threads}"));
    }
    if !r.nested.is_empty() {
        let gaps: Vec<String> = r.nested.iter().map(|g| g.to_string()).collect();
        label.push_str(&format!("/nested{}", gaps.join("-")));
    }
    if r.covictim_gap.is_some() {
        label.push_str("/mv");
    }
    if r.system {
        label.push_str("/system");
    }
    label
}

/// The JSON row of one sweep: its counts. `crashes_injected` is zero exactly
/// when the sweep verified nothing ([`require_nonzero`]). Interleaved rows
/// additionally carry the seed-set and co-victim fields.
fn row(r: &Report) -> JsonRow {
    let interleaved = r.threads.is_some();
    let mut fields = Vec::new();
    if interleaved {
        fields.push(("seeds", r.seeds.len() as u64));
        fields.push(("distinct_interleavings", r.distinct_interleavings));
    }
    fields.extend([
        ("crash_points", r.crash_points),
        ("replays", r.replays),
        ("crashes_injected", r.crashes_injected),
    ]);
    if interleaved {
        fields.push(("covictim_crashes", r.covictim_crashes));
    }
    fields.extend([
        ("recoveries", r.recoveries),
        ("entry_retries", r.entry_retries),
        ("recovery_crashes", r.recovery_crashes),
        ("fast_ops", r.fast_ops),
        ("demotions", r.demotions),
        ("hb_flags", r.hb_flags),
        ("oracle_failures", r.violations.len() as u64),
    ]);
    JsonRow {
        variant: label(r),
        threads: r.threads.unwrap_or(1),
        counts: fields,
    }
}

/// Print `reports` as one table (interleaved sweeps fill the seeds /
/// interleavings columns, single-threaded ones the nested-crash column), log
/// every violation, append the JSON rows and return the violation count.
fn print_table(reports: &[Report], rows: &mut Vec<JsonRow>) -> usize {
    if reports.is_empty() {
        return 0;
    }
    println!(
        "{:<46} {:>7} {:>13} {:>12} {:>9} {:>9} {:>11} {:>9} {:>5} {:>10}",
        "sweep",
        "seeds",
        "interleavings",
        "crash pts",
        "replays",
        "crashes",
        "recoveries",
        "nested",
        "hb",
        "violations"
    );
    let dash_unless_interleaved = |r: &Report, v: u64| match r.threads {
        Some(_) => v.to_string(),
        None => "-".to_string(),
    };
    for r in reports {
        let label = label(r);
        println!(
            "{:<46} {:>7} {:>13} {:>12} {:>9} {:>9} {:>11} {:>9} {:>5} {:>10}",
            label,
            dash_unless_interleaved(r, r.seeds.len() as u64),
            dash_unless_interleaved(r, r.distinct_interleavings),
            r.crash_points,
            r.replays,
            r.crashes_injected,
            r.recoveries + r.entry_retries,
            r.recovery_crashes,
            r.hb_flags,
            r.violations.len()
        );
        for v in &r.violations {
            eprintln!("VIOLATION [{label}]: {v}");
        }
        rows.push(row(r));
    }
    reports.iter().map(|r| r.violations.len()).sum()
}

/// Whether the interleaved matrix sweeps `variant`: every queue, and the
/// detectable constructions of the other shapes (the non-detectable
/// Izraelevitz discipline is swept concurrently on the MSQ, where
/// interrupted-operation ambiguity is the interesting case; the structure
/// rows concentrate on the exactly-once claim under contention).
fn swept_interleaved(variant: &Variant) -> bool {
    variant.shape() == Shape::Fifo || variant.detectable()
}

/// `DF_DFCK_CONC_VARIANTS`: the interleaved matrix's variants, narrowed to the
/// listed labels. A label that names none of them is an error, not an empty
/// filter — a typo must not silently drop coverage.
fn interleaved_variants() -> Result<Vec<Variant>, String> {
    let all: Vec<Variant> = Variant::swept().into_iter().filter(swept_interleaved).collect();
    let Ok(list) = std::env::var("DF_DFCK_CONC_VARIANTS") else {
        return Ok(all);
    };
    let mut wanted = Vec::new();
    for label in list.split(',').map(str::trim).filter(|l| !l.is_empty()) {
        match Variant::from_label(label).filter(|v| all.contains(v)) {
            Some(v) => wanted.push(v),
            None => {
                let valid: Vec<&str> = all.iter().map(|v| v.label()).collect();
                return Err(format!(
                    "DF_DFCK_CONC_VARIANTS: {label:?} is not a variant of the interleaved \
                     matrix, which sweeps: {}",
                    valid.join(", ")
                ));
            }
        }
    }
    // Matrix order, whatever order the list came in.
    Ok(all.into_iter().filter(|v| wanted.contains(v)).collect())
}

fn main() {
    let ops = env_u64_in("DF_DFCK_OPS", 8, 1..=u64::MAX) as usize;
    let seed = env_u64("DF_DFCK_SEED", 42);
    let conc_seeds = env_u64("DF_DFCK_CONC_SEEDS", 8);
    let conc_only = env_u64("DF_DFCK_CONC_ONLY", 0) != 0;
    let conc_variants = interleaved_variants().unwrap_or_else(|e| {
        eprintln!("dfck: {e}");
        std::process::exit(2);
    });

    println!(
        "# dfck — exhaustive crash-point sweep (multi-op seed {seed}, {ops} ops, nested gap {NESTED_GAP})"
    );

    let wall = Instant::now();
    let mut rows = Vec::new();
    let mut failures = 0usize;
    let mut reports: Vec<Report> = Vec::new();
    if !conc_only {
        for variant in Variant::swept() {
            // Per shape: the pair workload (for maps, its analogue crossing a
            // bucket-array resize inside the swept window) and a seeded
            // multi-op one (maps share the set's generator — same op
            // alphabet — on the tiny bucket array).
            let workloads = match variant.shape() {
                Shape::Fifo | Shape::Lifo => [Workload::pair(), Workload::seeded(seed, ops)],
                Shape::Set => [Workload::set_pair(), Workload::set_seeded(seed, ops)],
                Shape::Map => [Workload::map_resize(), Workload::set_seeded(seed, ops)],
            };
            for workload in &workloads {
                for nested in [None, Some(NESTED_GAP)] {
                    // Per-process (PPM) sweeps, then the full-system sweeps that
                    // additionally roll unflushed lines back — every variant's
                    // flush discipline is complete (DESIGN.md §7), so the whole
                    // matrix runs under both crash flavours.
                    reports.push(sweep(variant, workload, nested));
                    reports.push(sweep_system(variant, workload, nested));
                }
            }
            // The adaptive fast path is on by default, and an uncontended
            // single-threaded replay never demotes — so the rows above crash
            // the fast path at every point. These extra rows pin the replayed
            // structures to the full simulator so the slow path keeps dedicated
            // single-threaded crash coverage too.
            if variant.adaptive_capable() {
                for workload in &workloads {
                    let slow = workload.clone().slow_path();
                    reports.push(sweep(variant, &slow, None));
                    reports.push(sweep_system(variant, &slow, None));
                }
            }
        }
    }
    failures += print_table(&reports, &mut rows);

    // The interleaved matrix: (interleaving seed × victim crash point) over the
    // scheduled concurrent pair workloads, under single + nested schedules and
    // both crash flavours.
    let seeds: Vec<u64> = (1..=conc_seeds).collect();
    let mut conc_reports: Vec<Report> = Vec::new();
    if !seeds.is_empty() {
        let workload_for = |variant: Variant, threads: usize| match variant.shape() {
            Shape::Fifo | Shape::Lifo => ConcWorkload::pair(threads),
            Shape::Set => ConcWorkload::set_pair(threads),
            Shape::Map => ConcWorkload::map_pair(threads),
        };
        for &variant in &conc_variants {
            let w = workload_for(variant, CONC_THREADS);
            for nested in [&[] as &[u64], &[NESTED_GAP]] {
                conc_reports.push(sweep_interleaved(variant, &w, &seeds, nested, false));
                conc_reports.push(sweep_interleaved(variant, &w, &seeds, nested, true));
            }
            // The queues' multi-victim row: the same (seed × crash point)
            // matrix, but every scripted replay also crashes a co-victim pid,
            // so one process's recovery races a peer that is itself
            // recovering.
            if variant.shape() == Shape::Fifo {
                conc_reports.push(sweep_interleaved_multi(
                    variant, &w, &seeds, &[], MV_GAP, false,
                ));
            }
            // The sensitized adaptive rows: trip threshold 1, so the scheduled
            // contention demotes fast-path operations inside the swept window
            // and the crash-point enumeration covers the fast→slow demotion
            // boundary plus the slow-path helping that follows a fast-path
            // success (the production threshold of 2 consecutive lost CASes
            // never trips inside these short scheduled windows).
            if variant.adaptive_capable() {
                let sens = w.clone().sensitized();
                conc_reports.push(sweep_interleaved(variant, &sens, &seeds, &[], false));
                conc_reports.push(sweep_interleaved(variant, &sens, &seeds, &[], true));
            }
        }
        // A wider map row: three scheduled pids race the resize trigger while
        // the victim *and* a co-victim crash in the same replay.
        if conc_variants.contains(&Variant::MapGeneral) {
            let w3 = workload_for(Variant::MapGeneral, 3);
            conc_reports.push(sweep_interleaved_multi(
                Variant::MapGeneral,
                &w3,
                &seeds,
                &[],
                MV_GAP,
                false,
            ));
        }
    }
    if !conc_reports.is_empty() {
        println!("# interleaved sweeps — {conc_seeds} seeds × {CONC_THREADS} scheduled threads");
    }
    failures += print_table(&conc_reports, &mut rows);

    if let Err(e) = require_nonzero(&rows) {
        eprintln!("dfck: {e}");
        std::process::exit(1);
    }
    emit(
        "dfck",
        &[
            ("multi_ops", ops as u64),
            ("seed", seed),
            ("nested_gap", NESTED_GAP),
            ("conc_seeds", conc_seeds),
            ("conc_threads", CONC_THREADS as u64),
        ],
        wall.elapsed().as_secs_f64(),
        &rows,
    );

    if failures > 0 {
        eprintln!("dfck: {failures} oracle violation(s)");
        std::process::exit(1);
    }
    println!(
        "# all sweeps passed the exactly-once / durable-linearizability / linearization oracles (0 violations, 0 hb flags)"
    );
}
