//! Figure 6: transformed queues with manual (hand-placed) flushes compared to prior
//! work — the LogQueue and the Romulus-style durable TM.
//!
//! Series: General, General-Opt, Normalized, Normalized-Opt, LogQueue, Romulus;
//! threads 1..=max.
//!
//! ```text
//! cargo run -p bench --release --bin fig6
//! ```

fn main() {
    bench::run_figure(
        "fig6",
        "Figure 6 — manually flushed transformed queues vs prior work",
        &bench::dfck::Variant::figure6(),
    );
}
