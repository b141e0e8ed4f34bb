//! Supplementary table S1: flushes and fences per operation for every queue
//! variant. §10 repeatedly explains throughput differences by flush counts
//! ("queues that contain less flushes perform better"); this table makes the counts
//! explicit.
//!
//! ```text
//! cargo run -p bench --release --bin flush_table
//! ```

use std::time::Instant;

use bench::dfck::{Shape, Variant};
use bench::json::{emit, JsonRow};
use bench::{run_workload, WorkloadConfig};

fn main() {
    let cfg = WorkloadConfig {
        threads: 1,
        pairs_per_thread: bench::env_u64_in("DF_PAIRS", 20_000, 1..=u64::MAX),
        prefill: bench::env_u64("DF_PREFILL", 1_000),
    };
    let wall = Instant::now();
    let mut rows = Vec::new();
    println!("# Table S1 — persistence instructions per operation (single thread)");
    println!(
        "{:<28} {:>12} {:>12} {:>12}",
        "variant", "flushes/op", "fences/op", "dup-flush/op"
    );
    for variant in Variant::all().into_iter().filter(|v| v.shape() == Shape::Fifo) {
        let m = run_workload(variant, &cfg);
        println!(
            "{:<28} {:>12.2} {:>12.2} {:>12.2}",
            variant.label(),
            m.flushes_per_op,
            m.fences_per_op,
            m.duplicate_flushes_per_op
        );
        rows.push(JsonRow::from(&m));
    }
    emit(
        "flush_table",
        &[
            ("pairs_per_thread", cfg.pairs_per_thread),
            ("prefill", cfg.prefill),
            ("max_threads", 1),
        ],
        wall.elapsed().as_secs_f64(),
        &rows,
    );
}
