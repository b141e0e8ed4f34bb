//! Figure 7: persistent queues compared to the original (non-persistent)
//! Michael–Scott queue, showing the inherent cost of persistence.
//!
//! ```text
//! cargo run -p bench --release --bin fig7
//! ```

fn main() {
    bench::run_figure(
        "fig7",
        "Figure 7 — persistent queues vs the original Michael-Scott queue",
        &bench::dfck::Variant::figure7(),
    );
}
