//! `dfbench` — the repository's measuring stick: five seeded workloads, the
//! end-to-end metrics of an untraced run, the per-layer metrics of a traced
//! run, output checks, and the bounds that turn two runs into a verdict.
//! See `README.md`.

pub mod compare;
pub mod layers;
pub mod metrics;
pub mod passes;
pub mod run;
pub mod service_load;
pub mod structures;
pub mod util;
pub mod workloads;
