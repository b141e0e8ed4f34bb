//! # `queues` — the data structures evaluated in §10
//!
//! The paper evaluates its transformations by applying them to the Michael–Scott
//! lock-free queue and comparing against two competitors. This crate contains every
//! queue that appears in Figures 5–7:
//!
//! | name in the paper | type here | construction |
//! |---|---|---|
//! | MSQ (original, not persistent) | [`MsQueue`] | plain CAS on the simulated memory |
//! | Izraelevitz queue | [`MsQueue`] run with [`pmem::ThreadOptions`]`{ izraelevitz: true }` | automatic flush-after-every-access |
//! | General | [`GeneralQueue`] = [`CapsuleQueue`]`<CasReadSimulator>` (`BoundaryStyle::General`) | Low-Computation-Delay (CAS-Read) simulator, §6 |
//! | General-Opt | [`GeneralQueue`] (`BoundaryStyle::Compact`, fence elision) | hand-optimised §9 tricks |
//! | Normalized | [`NormalizedQueue`] = [`CapsuleQueue`]`<NormalizedSimulator>` (`BoundaryStyle::General`) | Persistent Normalized Simulator, §7 |
//! | Normalized-Opt | [`NormalizedQueue`] (`BoundaryStyle::Compact`, inline CAS list) | hand-optimised §9 tricks |
//! | LogQueue | [`LogQueue`] | Friedman et al.'s durable, detectable queue (hand-tuned competitor) |
//! | Romulus queue | `romulus::RomulusQueue` (separate crate) | durable transactional memory competitor |
//!
//! The four capsule-transformed rows are one declaration: enqueue and dequeue,
//! each written once, placed by the simulator of the [`CapsuleQueue`].
//!
//! Durability in the shared-cache model comes either from hand-placed flushes
//! ([`Durability::Manual`], the Figure 6 configuration) or from the Izraelevitz
//! construction applied by the thread options (the Figure 5 configuration); in the
//! private-cache model ([`Durability::None`] + `Mode::PrivateCache`) no flushes are
//! needed at all.
//!
//! Every queue handle answers the family-wide `delayfree::StructHandle`
//! (`Push` = enqueue, `Pop` = dequeue), which is what the benchmark harness and
//! the crash-point sweeper drive; [`QueueHandle`] is the same two operations
//! under their queue names for the examples and the integration tests.

#![warn(missing_docs)]

pub mod api;
mod general; // the General queue's tests (`CapsuleQueue` is in `normalized`)
pub mod log_queue;
pub mod msq;
pub mod node;
pub mod normalized;

pub use api::{Durability, QueueHandle};
pub use log_queue::{LogQueue, LogQueueHandle, RecoveredOp};
pub use msq::{MsQueue, MsqHandle};
pub use normalized::{
    CapsuleQueue, GeneralQueue, GeneralQueueHandle, NormalizedQueue, NormalizedQueueHandle,
};
