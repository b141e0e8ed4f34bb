//! `fig_struct` — throughput sweep over the structure family (Treiber stack +
//! linked-list set, Izraelevitz/General/Normalized variants).
//!
//! The queues' figure binaries reproduce the paper's plots; this one extends
//! the same methodology to the shapes the paper's construction promises to
//! cover but never measures. Same knobs (`DF_PAIRS`, `DF_PREFILL`,
//! `DF_MAX_THREADS`), same table.
//!
//! ```text
//! cargo run -p bench --release --bin fig_struct
//! DF_PAIRS=2000 cargo run -p bench --release --bin fig_struct
//! ```

fn main() {
    let _ = bench::structs_bench::run_struct_figure();
}
