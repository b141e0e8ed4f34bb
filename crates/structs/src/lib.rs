//! # `structs` — detectable persistent structures beyond queues
//!
//! The paper's construction is structure-agnostic: *any* normalized lock-free
//! object gains delay-free detectable recovery. The `queues` crate exercises it
//! on the Michael–Scott FIFO queue only; this crate grows the family with the
//! two shapes the detectability literature treats as canonical (kaist-cp's
//! memento ships exactly this test set): a **Treiber-style stack** (push/pop)
//! and a **sorted linked-list set** (insert/remove/contains, Harris–Michael
//! marked-pointer scheme).
//!
//! Each structure comes in the same variant matrix as the queues:
//!
//! | variant | stack | set | construction |
//! |---|---|---|---|
//! | Izraelevitz | [`TreiberStack`] | [`ListSet`] | plain CASes; durability from [`pmem::ThreadOptions`]`{ izraelevitz: true }`; **not** detectable |
//! | General | [`GeneralStack`] | [`GeneralSet`] | CAS-Read capsules + recoverable CAS (§6), detectable |
//! | Normalized | [`NormalizedStack`] | [`NormalizedSet`] | Persistent Normalized Simulator (§7), detectable |
//!
//! The shapes stress different proof obligations than the queue ("The Path to
//! Durable Linearizability" separates them per structure): the stack's single
//! contended word makes every operation a one-CAS capsule, while the set's
//! remove is a *two*-CAS protocol (logical mark, then physical unlink) whose
//! linearization point — the mark — is the only CAS that needs exactly-once
//! recovery; unlinks are parallelizable helping and use the anonymous CAS
//! exactly as §7 prescribes for generator/wrap-up CASes.
//!
//! Every handle presents the uniform [`StructHandle`] face (word-encoded
//! returns plus the bounded `drain_up_to` quiescent history hook) so the
//! `bench::dfck` exhaustive crash-point sweeper can drive the whole
//! family through one driver.

#![warn(missing_docs)]

pub mod api;
pub mod map;
pub mod map_general;
pub mod map_normalized;
pub mod node;
pub mod set;
pub mod set_general;
pub mod set_normalized;
pub mod stack;
pub mod stack_general;
pub mod stack_normalized;

pub use api::{Capsuled, Handle, StructHandle, StructOp};
pub use map::{map_bucket_of, map_mix64, DetMap, DetMapHandle, MapConfig, MAP_RCAS_LAYOUT};
pub use map_general::{GeneralDetMap, GeneralDetMapHandle, MAP_GENERAL_LOCALS};
pub use map_normalized::{NormalizedDetMap, NormalizedDetMapHandle, MAP_NORMALIZED_LOCALS};
pub use set::{ListSet, ListSetHandle};
pub use set_general::{GeneralSet, GeneralSetHandle, Resumption};
pub use set_normalized::{NormalizedSet, NormalizedSetHandle};
pub use stack::{TreiberStack, TreiberStackHandle};
pub use stack_general::{GeneralStack, GeneralStackHandle};
pub use stack_normalized::{NormalizedStack, NormalizedStackHandle};
