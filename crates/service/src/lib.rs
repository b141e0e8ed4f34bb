//! A sharded service over the delay-free persistent structures, built to be
//! killed: crash a live shard under traffic, recover it over its surviving
//! arena, keep serving, and never lose or repeat an acknowledged request.
//!
//! This crate turns the repo's simulated-pmem machinery into something shaped
//! like a small keyed service. Processes die at arbitrary simulated
//! instructions and come back with only their persistent state, as the
//! paper's model says a faulty machine would:
//!
//! - [`shard`]: one shard = one arena, one detectable [`structs::GeneralSet`]
//!   and a worker pool, living through kill-restart *incarnations* over the
//!   same surviving arena. A ticketed exactly-once protocol settles the
//!   request a kill interrupted (resumed, read back, or
//!   provably-never-started and re-executed), checked by a per-key balance
//!   oracle at shutdown.
//! - [`generator`]: seeded open-loop traffic — splitmix64 streams, YCSB-style
//!   Zipfian keys over keyspaces of millions, configurable read/write mix, and
//!   the key hash that routes a request to its shard.
//! - [`metrics`]: mergeable log-linear latency histograms.
//!
//! The crate reads no environment. `dfbench`'s `service_paced` workload drives
//! it: open-loop paced clients, kill-restart drills (shard-local, every fourth
//! one full-system) timed against a recovery deadline, and a `failed` count
//! for every exactly-once, deadline or progress check a drill can miss.

pub mod generator;
pub mod metrics;
pub mod shard;

pub use generator::{hash_key, RequestGen, SplitMix64, Zipfian};
pub use metrics::{LatencyHistogram, Percentiles};
pub use shard::{run_shard, EnqueueError, Request, ShardReport, ShardShared};
