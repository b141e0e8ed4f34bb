//! Figure 5: throughput of the transformed queues under the Izraelevitz
//! construction (automatic flush-after-every-access durability).
//!
//! Series: MSQ-Izraelevitz (upper bound), General, Normalized; threads 1..=max.
//!
//! ```text
//! cargo run -p bench --release --bin fig5
//! DF_PAIRS=200000 DF_PREFILL=1000000 cargo run -p bench --release --bin fig5   # paper-scale
//! ```

fn main() {
    bench::run_figure(
        "Figure 5 — transformed queues with the Izraelevitz construction",
        &bench::dfck::Variant::figure5(),
    );
}
