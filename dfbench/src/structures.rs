//! The three constructions of each structure family behind one handle trait,
//! built and configured through the crates' public API exactly as the
//! repository's figure harnesses do, so per-op counts line up with the
//! committed `benchmarks/BENCH_*.json`.

use capsules::{BoundaryStyle, CapsuleMetrics};
use pmem::{PMem, PThread, ThreadOptions};
use queues::{Durability, GeneralQueue, MsQueue, NormalizedQueue, QueueHandle};
use structs::api::Drain;
use structs::{
    DetMap, GeneralDetMap, GeneralSet, GeneralStack, ListSet, MapConfig, NormalizedDetMap,
    NormalizedSet, NormalizedStack, StructHandle, StructOp, TreiberStack,
};

use crate::workloads::{Mix, Shape, Spec};

/// How a structure is made persistent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Construction {
    /// The untransformed program: no capsules, no flushes. The control.
    Original,
    /// Capsules + CAS-Read transformation (§6), manual flushes.
    General,
    /// The normalized-structure transformation (§7), manual flushes.
    Normalized,
}

impl Construction {
    pub const ALL: [Construction; 3] = [
        Construction::Original,
        Construction::General,
        Construction::Normalized,
    ];

    /// The two constructions that survive faults.
    pub const DETECTABLE: [Construction; 2] = [Construction::General, Construction::Normalized];

    pub fn label(self) -> &'static str {
        match self {
            Construction::Original => "original",
            Construction::General => "general",
            Construction::Normalized => "normalized",
        }
    }
}

/// Thread options of every pass: the structures flush by hand, never through
/// the Izraelevitz construction.
pub const THREAD_OPTIONS: ThreadOptions = ThreadOptions { izraelevitz: false };

/// How a handle's capsule boundaries are configured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Boundaries {
    /// As the figure harnesses run: the queue's per-operation entry and final
    /// boundaries are elided (`bench::run_workload`), `structs` handles keep
    /// their defaults (`bench::structs_bench`).
    AsMeasured,
    /// Library defaults: every boundary on, so any fault is recoverable.
    Detectable,
}

/// The uniform face of a per-thread handle.
pub trait Handle {
    /// Apply one operation (`Push`/`Pop` mean enqueue/dequeue on a queue);
    /// results use the `StructHandle::apply` encoding.
    fn apply(&mut self, op: StructOp) -> Option<u64>;
    /// The capsule runtime's counters; `None` for the original program.
    fn capsule_metrics(&mut self) -> Option<CapsuleMetrics>;
    /// Quiescent bounded read-out of the contents.
    fn drain_up_to(&mut self, max: usize) -> Drain;
}

struct QueueFace<H> {
    handle: H,
    metrics: fn(&mut H) -> Option<CapsuleMetrics>,
}

impl<H: QueueHandle> Handle for QueueFace<H> {
    #[inline]
    fn apply(&mut self, op: StructOp) -> Option<u64> {
        match op {
            StructOp::Push(v) => {
                self.handle.enqueue(v);
                None
            }
            StructOp::Pop => self.handle.dequeue(),
            other => panic!("queue workloads issue pairs only, got {other:?}"),
        }
    }

    fn capsule_metrics(&mut self) -> Option<CapsuleMetrics> {
        (self.metrics)(&mut self.handle)
    }

    fn drain_up_to(&mut self, max: usize) -> Drain {
        let items = self.handle.drain_up_to(max);
        let truncated = max > 0 && items.len() == max;
        Drain { items, truncated }
    }
}

struct StructFace<H> {
    handle: H,
    metrics: fn(&mut H) -> Option<CapsuleMetrics>,
}

impl<H: StructHandle> Handle for StructFace<H> {
    #[inline]
    fn apply(&mut self, op: StructOp) -> Option<u64> {
        self.handle.apply(op)
    }

    fn capsule_metrics(&mut self) -> Option<CapsuleMetrics> {
        (self.metrics)(&mut self.handle)
    }

    fn drain_up_to(&mut self, max: usize) -> Drain {
        self.handle.drain_up_to(max)
    }
}

/// One built structure.
pub enum Built {
    Msq(MsQueue),
    GeneralQueue(GeneralQueue),
    NormalizedQueue(NormalizedQueue),
    Treiber(TreiberStack),
    GeneralStack(GeneralStack),
    NormalizedStack(NormalizedStack),
    Map(DetMap),
    GeneralMap(GeneralDetMap),
    NormalizedMap(NormalizedDetMap),
    Set(ListSet),
    GeneralSet(GeneralSet),
    NormalizedSet(NormalizedSet),
}

impl Built {
    /// Build `spec`'s structure in construction `c` for `nprocs` processes.
    /// The queue's normalized construction is Normalized-Opt, the paper's
    /// best; everything else is the un-optimised General boundary style.
    pub fn new(spec: &Spec, c: Construction, t: &PThread<'_>, nprocs: usize) -> Built {
        use Construction::*;
        let map_cfg = match spec.mix {
            Mix::Keyed { buckets, .. } if spec.shape == Shape::Map => MapConfig::new(buckets, 8),
            _ => MapConfig::default(),
        };
        match (spec.shape, c) {
            (Shape::Queue, Original) => Built::Msq(MsQueue::new(t)),
            (Shape::Queue, General) => Built::GeneralQueue(GeneralQueue::new(
                t,
                nprocs,
                Durability::Manual,
                BoundaryStyle::General,
            )),
            (Shape::Queue, Normalized) => {
                Built::NormalizedQueue(NormalizedQueue::new(t, nprocs, Durability::Manual, true))
            }
            (Shape::Stack, Original) => Built::Treiber(TreiberStack::new(t)),
            (Shape::Stack, General) => {
                Built::GeneralStack(GeneralStack::new(t, nprocs, true, BoundaryStyle::General))
            }
            (Shape::Stack, Normalized) => {
                Built::NormalizedStack(NormalizedStack::new(t, nprocs, true, false))
            }
            (Shape::Map, Original) => Built::Map(DetMap::new(t, map_cfg)),
            (Shape::Map, General) => Built::GeneralMap(GeneralDetMap::new(
                t,
                nprocs,
                map_cfg,
                true,
                BoundaryStyle::General,
            )),
            (Shape::Map, Normalized) => {
                Built::NormalizedMap(NormalizedDetMap::new(t, nprocs, map_cfg, true, false))
            }
            (Shape::Set, Original) => Built::Set(ListSet::new(t)),
            (Shape::Set, General) => {
                Built::GeneralSet(GeneralSet::new(t, nprocs, true, BoundaryStyle::General))
            }
            (Shape::Set, Normalized) => {
                Built::NormalizedSet(NormalizedSet::new(t, nprocs, true, false))
            }
        }
    }

    /// The calling thread's handle (allocates its capsule frame).
    pub fn handle<'a, 'm: 'a>(
        &'a self,
        t: &'a PThread<'m>,
        boundaries: Boundaries,
    ) -> Box<dyn Handle + 'a> {
        /// A capsule handle of `queues`: boundaries as asked, metrics from the runtime.
        macro_rules! capsule_queue {
            ($q:expr) => {{
                let mut handle = $q.handle(t);
                if boundaries == Boundaries::AsMeasured {
                    handle.set_entry_boundary(false);
                    handle.runtime_mut().set_final_boundary(false);
                }
                Box::new(QueueFace {
                    handle,
                    metrics: |h| Some(h.runtime_mut().metrics()),
                })
            }};
        }
        /// A capsule handle of `structs`: library defaults in both modes.
        macro_rules! capsule_struct {
            ($s:expr) => {
                Box::new(StructFace {
                    handle: $s.handle(t),
                    metrics: |h| Some(h.runtime_mut().metrics()),
                })
            };
        }
        match self {
            Built::Msq(q) => Box::new(QueueFace {
                handle: q.handle(t),
                metrics: |_| None,
            }),
            Built::GeneralQueue(q) => capsule_queue!(q),
            Built::NormalizedQueue(q) => capsule_queue!(q),
            Built::Treiber(s) => Box::new(StructFace {
                handle: s.handle(t),
                metrics: |_| None,
            }),
            Built::GeneralStack(s) => capsule_struct!(s),
            Built::NormalizedStack(s) => capsule_struct!(s),
            Built::Map(m) => Box::new(StructFace {
                handle: m.handle(t),
                metrics: |_| None,
            }),
            Built::GeneralMap(m) => capsule_struct!(m),
            Built::NormalizedMap(m) => capsule_struct!(m),
            Built::Set(s) => Box::new(StructFace {
                handle: s.handle(t),
                metrics: |_| None,
            }),
            Built::GeneralSet(s) => capsule_struct!(s),
            Built::NormalizedSet(s) => capsule_struct!(s),
        }
    }

    /// Element count by a quiescent walk (the keyed structures' conservation
    /// check; queues and stacks are drained instead).
    pub fn len(&self, t: &PThread<'_>) -> usize {
        match self {
            Built::Msq(q) => q.len(t),
            Built::GeneralQueue(q) => q.len(t),
            Built::NormalizedQueue(q) => q.len(t),
            Built::Treiber(s) => s.len(t),
            Built::GeneralStack(s) => s.len(t),
            Built::NormalizedStack(s) => s.len(t),
            Built::Map(m) => m.len(t),
            Built::GeneralMap(m) => m.len(t),
            Built::NormalizedMap(m) => m.len(t),
            Built::Set(s) => s.len(t),
            Built::GeneralSet(s) => s.len(t),
            Built::NormalizedSet(s) => s.len(t),
        }
    }
}

/// A fresh machine and `spec`'s structure in construction `c`, still empty.
pub fn build(spec: &Spec, c: Construction, nprocs: usize) -> (PMem, Built) {
    let mem = PMem::new(pmem::MemConfig::new(nprocs).mode(pmem::Mode::SharedCache));
    let built = Built::new(spec, c, &mem.thread_with(0, THREAD_OPTIONS), nprocs);
    (mem, built)
}

/// A fresh machine, the structure, the prefill, and everything made durable:
/// the state every repetition starts from.
pub fn set_up(spec: &Spec, c: Construction, nprocs: usize) -> (PMem, Built) {
    let (mem, built) = build(spec, c, nprocs);
    {
        let t = mem.thread_with(0, THREAD_OPTIONS);
        let mut h = built.handle(&t, Boundaries::AsMeasured);
        for op in spec.prefill_ops() {
            h.apply(op);
        }
    }
    mem.persist_everything();
    (mem, built)
}
