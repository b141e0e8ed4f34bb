//! Sharded-service kill-restart drill runner.
//!
//! Brings up N shards over simulated persistent arenas, drives seeded Zipfian
//! traffic through the router, and executes a kill-restart drill schedule
//! (round-robin shard kills, periodically a full-system crash) while
//! measuring recovery time and tail latency. Exits nonzero on any
//! exactly-once violation or missed recovery deadline, so CI can gate on it.
//!
//! Knobs (all optional, sensible defaults):
//!
//! | variable                  | meaning                                   |
//! |---------------------------|-------------------------------------------|
//! | `DF_SERVICE_SHARDS`       | shard count                               |
//! | `DF_SERVICE_WORKERS`      | worker pids per shard                     |
//! | `DF_SERVICE_CLIENTS`      | open-loop client threads                  |
//! | `DF_SERVICE_KEYS`         | keyspace size                             |
//! | `DF_SERVICE_ZIPF`         | Zipfian theta (float, `[0,1)`)            |
//! | `DF_SERVICE_READS`        | read percentage of the mix                |
//! | `DF_SERVICE_OPS`          | minimum requests per client               |
//! | `DF_SERVICE_KILLS`        | kill-restart drills to run                |
//! | `DF_SERVICE_SYSTEM_EVERY` | every Nth drill is full-system (0=never)  |
//! | `DF_SERVICE_DEADLINE_MS`  | recovery deadline per drill               |
//! | `DF_SERVICE_SPACING_MS`   | serving time between drills               |
//! | `DF_SERVICE_SEED`         | master seed                               |
//!
//! With `DF_JSON` set, emits `BENCH_service.json` (schema
//! `delayfree-bench-v1`): one row per shard, one aggregate row, and one row
//! per drill with recovery timings as extras.

use std::process::ExitCode;
use std::time::Duration;

use bench::env_u64;
use bench::json::{emit, JsonRow};
use pmem::install_quiet_crash_hook;
use service::{run_service, DrillKind, Percentiles, ServiceConfig, ServiceReport};

/// A float knob, held to the contract of [`bench::env_u64`]: a value that does
/// not parse ends the run with exit code 2 naming the knob.
fn env_f64(name: &str, default: f64) -> f64 {
    let Ok(raw) = std::env::var(name) else { return default };
    raw.trim().parse().unwrap_or_else(|_| {
        eprintln!("error: {name}={raw:?} is not a number");
        std::process::exit(2);
    })
}

fn config_from_env() -> ServiceConfig {
    let defaults = ServiceConfig::default();
    ServiceConfig {
        shards: env_u64("DF_SERVICE_SHARDS", defaults.shards as u64) as usize,
        workers_per_shard: env_u64("DF_SERVICE_WORKERS", defaults.workers_per_shard as u64) as usize,
        clients: env_u64("DF_SERVICE_CLIENTS", defaults.clients as u64) as usize,
        keys: env_u64("DF_SERVICE_KEYS", defaults.keys),
        zipf_theta: env_f64("DF_SERVICE_ZIPF", defaults.zipf_theta),
        read_pct: env_u64("DF_SERVICE_READS", defaults.read_pct as u64) as u32,
        ops_per_client: env_u64("DF_SERVICE_OPS", defaults.ops_per_client),
        kills: env_u64("DF_SERVICE_KILLS", defaults.kills as u64) as usize,
        full_system_every: env_u64("DF_SERVICE_SYSTEM_EVERY", defaults.full_system_every as u64) as usize,
        recovery_deadline: Duration::from_millis(env_u64(
            "DF_SERVICE_DEADLINE_MS",
            defaults.recovery_deadline.as_millis() as u64,
        )),
        kill_spacing: Duration::from_millis(env_u64(
            "DF_SERVICE_SPACING_MS",
            defaults.kill_spacing.as_millis() as u64,
        )),
        seed: env_u64("DF_SERVICE_SEED", defaults.seed),
        ..defaults
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn print_report(cfg: &ServiceConfig, report: &ServiceReport) {
    println!(
        "# service drill: {} shards x {} workers, {} clients, {} keys (theta {}), {}% reads",
        cfg.shards, cfg.workers_per_shard, cfg.clients, cfg.keys, cfg.zipf_theta, cfg.read_pct
    );
    println!(
        "{:<8} {:>10} {:>8} {:>6} {:>10} {:>10} {:>10}",
        "shard", "completed", "kills", "incarn", "p50_us", "p99_us", "p999_us"
    );
    for sh in &report.shards {
        let p = sh.latency.percentiles();
        println!(
            "{:<8} {:>10} {:>8} {:>6} {:>10.1} {:>10.1} {:>10.1}",
            format!("shard{}", sh.id),
            sh.completed,
            sh.kills_mid_op,
            sh.incarnations,
            p.p50_ns as f64 / 1e3,
            p.p99_ns as f64 / 1e3,
            p.p999_ns as f64 / 1e3,
        );
    }
    let agg = report.aggregate_percentiles();
    let wall = report.wall.as_secs_f64();
    println!(
        "aggregate: {} ops in {:.2}s ({:.0} ops/s), p50 {:.1}us p99 {:.1}us p999 {:.1}us max {:.1}ms",
        report.completed(),
        wall,
        report.completed() as f64 / wall,
        agg.p50_ns as f64 / 1e3,
        agg.p99_ns as f64 / 1e3,
        agg.p999_ns as f64 / 1e3,
        agg.max_ns as f64 / 1e6,
    );
    println!(
        "router: {} accepted, {} degraded, {} retries",
        report.router.accepted, report.router.degraded, report.router.retries
    );
    if !report.drills.is_empty() {
        println!(
            "{:<8} {:>8} {:>8} {:>12} {:>12} {:>12} {:>14} {:>8}",
            "drill", "kind", "victim", "detect_ms", "replay_ms", "total_ms", "healthy_ops", "ontime"
        );
        for d in &report.drills {
            println!(
                "{:<8} {:>8} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>14} {:>8}",
                d.index,
                d.kind.label(),
                d.victim,
                ms(d.detect),
                ms(d.replay),
                ms(d.total),
                d.healthy_ops_during_outage,
                if d.within_deadline { "yes" } else { "MISS" },
            );
        }
    }
    for v in report.all_violations() {
        println!("VIOLATION: {v}");
    }
}

fn json_rows(cfg: &ServiceConfig, report: &ServiceReport) -> Vec<JsonRow> {
    let wall = report.wall.as_secs_f64().max(1e-9);
    let lat = |p: &Percentiles, row: JsonRow| {
        row.with("p50_ns", p.p50_ns as f64)
            .with("p99_ns", p.p99_ns as f64)
            .with("p999_ns", p.p999_ns as f64)
            .with("max_ns", p.max_ns as f64)
    };
    let mut rows = Vec::new();
    for sh in &report.shards {
        let p = sh.latency.percentiles();
        rows.push(
            lat(
                &p,
                JsonRow::new(format!("shard{}", sh.id), cfg.workers_per_shard, sh.completed as f64 / wall / 1e6),
            )
            .with("incarnations", sh.incarnations as f64)
            .with("kills_mid_op", sh.kills_mid_op as f64)
            .with("resumed_ops", sh.resumed_ops as f64)
            .with("reexecuted_ops", sh.reexecuted_ops as f64),
        );
    }
    let agg = report.aggregate_percentiles();
    rows.push(
        lat(
            &agg,
            JsonRow::new("aggregate", cfg.shards * cfg.workers_per_shard, report.completed() as f64 / wall / 1e6),
        )
        .with("degraded", report.router.degraded as f64)
        .with("retries", report.router.retries as f64),
    );
    for d in &report.drills {
        rows.push(
            JsonRow::new(format!("drill/{}", d.kind.label()), cfg.workers_per_shard, 0.0)
                .with("crashes_injected", if d.kind == DrillKind::FullSystem { cfg.shards as f64 } else { 1.0 })
                .with("detect_ms", ms(d.detect))
                .with("replay_ms", ms(d.replay))
                .with("recovery_ms", ms(d.total))
                .with("healthy_ops_during_outage", d.healthy_ops_during_outage as f64)
                .with("within_deadline", if d.within_deadline { 1.0 } else { 0.0 }),
        );
    }
    rows
}

fn main() -> ExitCode {
    install_quiet_crash_hook();
    let cfg = config_from_env();
    let report = run_service(&cfg);
    print_report(&cfg, &report);
    let params = [
        ("shards", cfg.shards as u64),
        ("workers", cfg.workers_per_shard as u64),
        ("clients", cfg.clients as u64),
        ("keys", cfg.keys),
        ("zipf_centi_theta", (cfg.zipf_theta * 100.0) as u64),
        ("read_pct", cfg.read_pct as u64),
        ("ops_per_client", cfg.ops_per_client),
        ("kills", cfg.kills as u64),
        ("system_every", cfg.full_system_every as u64),
        ("deadline_ms", cfg.recovery_deadline.as_millis() as u64),
        ("seed", cfg.seed),
    ];
    emit("service", &params, report.wall.as_secs_f64(), &json_rows(&cfg, &report));
    if report.ok() {
        println!("# service drill clean: {} drills, 0 violations", report.drills.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("# service drill FAILED: {} violations", report.all_violations().len());
        ExitCode::FAILURE
    }
}
