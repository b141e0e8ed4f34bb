//! `dfck` — the deterministic, exhaustive crash-point sweeper, one engine for
//! every variant of every shape.
//!
//! The paper's correctness claim (Definition 2.2, Theorems 5.1/6.1/7.1) is that
//! capsule re-execution is *invisible at every possible crash point*. Random
//! crash-torture (`CrashPolicy::Random`) only samples that space; this engine
//! enumerates it: it runs a seeded workload once crash-free to learn the total
//! number of crash points `N` (from [`pmem::Stats::crash_points`] — never
//! hard-coded), then replays the identical workload once per crash point
//! `k = 0..N` with a scripted [`CrashPlan`] that crashes exactly there — and, in
//! nested mode, crashes *again* a fixed number of crash points later, which lands
//! inside the recovery code the first crash triggered.
//!
//! One [`Variant`] enum names every structure the harness knows — the FIFO
//! queues and the stack / list-set / hash-map family in three constructions
//! each, [`Variant::swept`] being the sweeper's matrix — and one op alphabet
//! ([`StructOp`]) drives them all through the family's one handle trait
//! ([`StructHandle`]: a queue answers `Push`/`Pop` as enqueue/dequeue).
//! [`build`] is the single table from a variant to its structure and
//! [`Built::handle`] the single table to its boxed per-thread handle (the
//! throughput runner, [`crate::run_throughput`], builds through the same two).
//! A replay then runs every operation through one of exactly **three
//! op-runners**, picked by variant:
//!
//! * **non-detectable** (the Izraelevitz constructions): no recovery protocol —
//!   [`catch_crash`] unwinds to the driver, which records the operation as
//!   [`OpOutcome::Interrupted`]; the oracle forks applied/not-applied;
//! * **capsule** (General / Normalized, every shape): the capsule runtime
//!   absorbs the crash inside the operation, which completes with its exact
//!   result; recovery counters are the delta of the handle's
//!   [`StructHandle::capsule_metrics`];
//! * **LogQueue**: the driver runs the queue's detectable-recovery protocol
//!   (`log_queue_op`) until the operation's exact result is known.
//!
//! After every replay the engine drains the structure (bounded by the replay's
//! maximum possible survivors, so a corrupted cyclic chain is a violation, not
//! a hang) and checks the full observable history — every return value plus the
//! final contents — against the shape's sequential `Model` (FIFO, LIFO or
//! ordered set; maps share the set's):
//!
//! * **exactly-once** for the detectable variants: the history must be
//!   *identical* to the crash-free run's at every crash point;
//! * **durable linearizability** for the non-detectable ones: consistent with
//!   some choice of applied/not-applied for each interrupted operation.
//!
//! The sweep engine itself (baseline, fan-out, report assembly, the oracle
//! machinery) lives in [`crate::sweep`].
//!
//! ## Interleaved sweeps: (schedule × crash point)
//!
//! [`sweep_interleaved`] extends the enumeration with a second axis: a
//! deterministic cooperative interleaving of 2+ worker processes driving *one
//! shared structure* under [`pmem::ThreadScheduler`]. Each scheduler seed picks
//! a distinct instruction-level interleaving (reproducible bit-for-bit from the
//! seed), a victim pid sweeps every crash point of its scheduled window, and
//! the oracle generalizes from "identical to the crash-free history" to
//! "consistent with *some* valid linearization of the concurrent history"
//! ([`sweep::check_linearizable`]), with timestamps taken from the scheduler's
//! global instruction clock.

use std::cell::Cell;
use std::sync::Arc;

use capsules::{BoundaryStyle, CapsuleMetrics, ContentionMeasure};
use pmem::{
    catch_crash, CrashPlan, MemConfig, Mode, PMem, PThread, SchedConfig, Stats, ThreadOptions,
    ThreadScheduler,
};
use delayfree::handle::{apply_stack, drain_by_pops};
use delayfree::{Drain, StructHandle, StructOp};
use queues::{Durability, GeneralQueue, MsQueue, NormalizedQueue, RecoveredOp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use romulus::{RomulusQueue, RomulusQueueHandle};
use structs::{
    DetMap, GeneralDetMap, GeneralSet, GeneralStack, ListSet, MapConfig, NormalizedDetMap,
    NormalizedSet, NormalizedStack, TreiberStack,
};

use crate::sweep::{self, Model, OpOutcome, ReplayCounts, ReplayRecord, Report, TimedOp, TurnGate};

/// The abstract data type a [`Variant`] implements: it picks the sequential
/// model the oracle checks against, the op alphabet, and the workload table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// FIFO queue: `Push` = enqueue, `Pop` = dequeue.
    Fifo,
    /// LIFO stack.
    Lifo,
    /// Ordered set (`Insert` / `Remove` / `Contains`).
    Set,
    /// Hash map: the set's alphabet and oracle, swept on a
    /// [`MapConfig::tiny`] bucket array so crash windows cross the resize
    /// protocol.
    Map,
}

impl Shape {
    /// The operation that puts `v` into a structure of this shape before the
    /// swept window.
    pub(crate) fn prefill_op(self, v: u64) -> StructOp {
        match self {
            Shape::Fifo | Shape::Lifo => StructOp::Push(v),
            Shape::Set | Shape::Map => StructOp::Insert(v),
        }
    }
}

/// Every structure the harness knows: the queue variants, one per recovery
/// discipline (plus the hand-optimised capsule configurations, whose compact
/// single-copy frames have their own flush-ordering obligations), each
/// non-queue shape as Izraelevitz flush-everything (durable, not detectable),
/// General capsules and the Normalized simulator (both detectable), and the
/// four entries only the paper's figures measure ([`Variant::swept`] leaves
/// them out).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The original Michael–Scott queue, no persistence (Figure 7 baseline;
    /// figures only).
    Msq,
    /// MSQ + Izraelevitz construction: durably linearizable, *not* detectable
    /// (Figure 5's upper bound).
    IzraelevitzMsq,
    /// General queue with durability from the Izraelevitz construction
    /// (Figure 5; figures only).
    GeneralIzraelevitz,
    /// Normalized queue with durability from the Izraelevitz construction
    /// (Figure 5; figures only).
    NormalizedIzraelevitz,
    /// The CAS-Read (General) transformation: detectable via capsules.
    General,
    /// General with compact frames (the paper's General-Opt configuration).
    GeneralOpt,
    /// The Normalized transformation: detectable via capsules.
    Normalized,
    /// Normalized with compact frames + inline CAS lists (Normalized-Opt).
    NormalizedOpt,
    /// Friedman et al.'s LogQueue: detectable via its operation log.
    LogQueue,
    /// The Romulus-style durable-TM queue (Figure 6; figures only).
    Romulus,
    /// Treiber stack + Izraelevitz construction.
    StackIzraelevitz,
    /// Treiber stack through the CAS-Read (General) transformation.
    StackGeneral,
    /// Treiber stack through the Persistent Normalized Simulator.
    StackNormalized,
    /// Harris–Michael list set + Izraelevitz construction.
    SetIzraelevitz,
    /// List set through the CAS-Read (General) transformation.
    SetGeneral,
    /// List set through the Persistent Normalized Simulator.
    SetNormalized,
    /// Bucketed hash map + Izraelevitz construction.
    MapIzraelevitz,
    /// Hash map through the CAS-Read (General) transformation.
    MapGeneral,
    /// Hash map through the Persistent Normalized Simulator.
    MapNormalized,
}

impl Variant {
    /// Every variant, queues first.
    pub fn all() -> [Variant; 19] {
        use Variant::*;
        [
            Msq,
            IzraelevitzMsq,
            GeneralIzraelevitz,
            NormalizedIzraelevitz,
            General,
            GeneralOpt,
            Normalized,
            NormalizedOpt,
            LogQueue,
            Romulus,
            StackIzraelevitz,
            StackGeneral,
            StackNormalized,
            SetIzraelevitz,
            SetGeneral,
            SetNormalized,
            MapIzraelevitz,
            MapGeneral,
            MapNormalized,
        ]
    }

    /// The crash-point sweeper's matrix: every variant that claims a crash
    /// discipline of its own. The plain MSQ claims none, the capsule queues
    /// under the Izraelevitz construction are the swept capsule code with
    /// other flushes, and Romulus is a baseline outside the family.
    pub fn swept() -> Vec<Variant> {
        use Variant::*;
        let figures_only = [Msq, GeneralIzraelevitz, NormalizedIzraelevitz, Romulus];
        Variant::all().into_iter().filter(|v| !figures_only.contains(v)).collect()
    }

    /// The series of Figure 5 (queues under the Izraelevitz construction).
    pub fn figure5() -> Vec<Variant> {
        use Variant::*;
        vec![IzraelevitzMsq, GeneralIzraelevitz, NormalizedIzraelevitz]
    }

    /// The series of Figure 6 (manual flushes vs prior work).
    pub fn figure6() -> Vec<Variant> {
        use Variant::*;
        vec![General, GeneralOpt, Normalized, NormalizedOpt, LogQueue, Romulus]
    }

    /// The series of Figure 7 (persistent queues vs the original MSQ).
    pub fn figure7() -> Vec<Variant> {
        use Variant::*;
        vec![Msq, IzraelevitzMsq, General, NormalizedOpt, LogQueue, Romulus]
    }

    /// Short label for tables and JSON rows.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Msq => "MSQ",
            Variant::IzraelevitzMsq => "MSQ-Izraelevitz",
            Variant::GeneralIzraelevitz => "General (Izraelevitz)",
            Variant::NormalizedIzraelevitz => "Normalized (Izraelevitz)",
            Variant::General => "General",
            Variant::GeneralOpt => "General-Opt",
            Variant::Normalized => "Normalized",
            Variant::NormalizedOpt => "Normalized-Opt",
            Variant::LogQueue => "LogQueue",
            Variant::Romulus => "Romulus",
            Variant::StackIzraelevitz => "Stack-Izraelevitz",
            Variant::StackGeneral => "Stack-General",
            Variant::StackNormalized => "Stack-Normalized",
            Variant::SetIzraelevitz => "Set-Izraelevitz",
            Variant::SetGeneral => "Set-General",
            Variant::SetNormalized => "Set-Normalized",
            Variant::MapIzraelevitz => "Map-Izraelevitz",
            Variant::MapGeneral => "Map-General",
            Variant::MapNormalized => "Map-Normalized",
        }
    }

    /// The variant with this [`label`](Variant::label), if any.
    pub fn from_label(label: &str) -> Option<Variant> {
        Variant::all().into_iter().find(|v| v.label() == label)
    }

    /// The abstract data type the variant implements.
    pub fn shape(&self) -> Shape {
        use Variant::*;
        match self {
            StackIzraelevitz | StackGeneral | StackNormalized => Shape::Lifo,
            SetIzraelevitz | SetGeneral | SetNormalized => Shape::Set,
            MapIzraelevitz | MapGeneral | MapNormalized => Shape::Map,
            _ => Shape::Fifo,
        }
    }

    /// Whether the variant's thread handles apply the Izraelevitz
    /// construction (a flush after every shared access).
    fn izraelevitz(&self) -> bool {
        use Variant::*;
        matches!(
            self,
            IzraelevitzMsq
                | GeneralIzraelevitz
                | NormalizedIzraelevitz
                | StackIzraelevitz
                | SetIzraelevitz
                | MapIzraelevitz
        )
    }

    /// Whether the variant guarantees exactly-once (detectable) semantics, i.e.
    /// whether the strict oracle applies: the capsule constructions and the
    /// LogQueue.
    pub fn detectable(&self) -> bool {
        use Variant::*;
        !matches!(
            self,
            Msq | IzraelevitzMsq | Romulus | StackIzraelevitz | SetIzraelevitz | MapIzraelevitz
        )
    }

    /// Whether the variant has a contention-adaptive fast path (the swept
    /// capsule queues, stacks and maps — every one-CAS structure; the list set
    /// does not run it yet). Only these get the extra slow-path-pinned sweep
    /// rows — the fast path is the default, so the simulator-only route would
    /// otherwise lose single-threaded crash coverage.
    pub fn adaptive_capable(&self) -> bool {
        use Variant::*;
        matches!(
            self,
            General | GeneralOpt | Normalized | NormalizedOpt | StackGeneral | StackNormalized
                | MapGeneral | MapNormalized
        )
    }

    /// The options every thread handle driving this variant is created with.
    pub fn thread_options(&self) -> ThreadOptions {
        ThreadOptions {
            izraelevitz: self.izraelevitz(),
        }
    }
}

/// `Push`/`Insert` operations in `ops`: how many elements they can add.
fn additions<'a>(ops: impl IntoIterator<Item = &'a StructOp>) -> usize {
    ops.into_iter()
        .filter(|op| matches!(op, StructOp::Push(_) | StructOp::Insert(_)))
        .count()
}

/// A deterministic workload: prefilled contents plus a fixed operation
/// sequence. The ops must match the swept variant's [`Shape`] (`Push`/`Pop`
/// for FIFO and LIFO, the membership alphabet for sets and maps).
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name used in reports ("pair", "multi", …).
    pub name: &'static str,
    /// Contents before the swept window starts: enqueued / pushed in order, or
    /// (sets and maps) inserted as distinct keys.
    pub prefill: Vec<u64>,
    /// The operations executed inside the swept window.
    pub ops: Vec<StructOp>,
    /// Whether replayed capsule structures keep their contention-adaptive
    /// fast path (the default). [`Workload::slow_path`] pins it off so the matrix
    /// retains dedicated simulator-route crash coverage — an uncontended
    /// adaptive replay never demotes, so without these rows the slow path
    /// would only ever be crashed through interleaved sweeps.
    pub adaptive: bool,
}

impl Workload {
    /// The canonical single-op-pair workload of the queues and stacks: one
    /// enqueue/push followed by one dequeue/pop on a lightly prefilled
    /// structure (so the removal hits a non-trivial head).
    pub fn pair() -> Workload {
        Workload {
            name: "pair",
            prefill: (0..4).map(|i| 10_000 + i).collect(),
            ops: vec![StructOp::Push(1), StructOp::Pop],
            adaptive: true,
        }
    }

    /// The canonical set pair: one insert that lands mid-list, one remove of a
    /// prefilled key — both protocol paths (link CAS, mark + unlink) swept.
    pub fn set_pair() -> Workload {
        Workload {
            name: "pair",
            prefill: vec![10, 20, 30],
            ops: vec![StructOp::Insert(15), StructOp::Remove(20)],
            adaptive: true,
        }
    }

    /// The canonical map workload: the same membership paths as
    /// [`Workload::set_pair`] *plus* a bucket-array resize inside the swept
    /// window — map replays build with [`MapConfig::tiny`] (2 buckets,
    /// `max_chain` 3), so the sixth insert's trigger fires mid-window and
    /// every crash point of the freeze/copy/promote migration is enumerated.
    pub fn map_resize() -> Workload {
        Workload {
            name: "map-resize",
            prefill: vec![10, 20, 30],
            ops: vec![
                StructOp::Insert(15),
                StructOp::Insert(25),
                StructOp::Insert(15),
                StructOp::Remove(10),
                StructOp::Contains(15),
                StructOp::Remove(99),
            ],
            adaptive: true,
        }
    }

    /// A seeded multi-op queue/stack workload: `nops` operations, each
    /// independently an enqueue/push (fresh value) or a dequeue/pop, drawn
    /// from a reproducible RNG.
    pub fn seeded(seed: u64, nops: usize) -> Workload {
        Workload::seeded_full(seed, nops, 3, 0)
    }

    /// The fully parameterised seeded queue/stack generator (the surface the
    /// property-based tests sample): `nops` operations on a structure
    /// prefilled with `prefill` values, with every value offset by
    /// `value_base` so distinct property cases produce disjoint value ranges.
    /// `seeded(seed, n)` is `seeded_full(seed, n, 3, 0)`.
    pub fn seeded_full(seed: u64, nops: usize, prefill: usize, value_base: u64) -> Workload {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut next_value = value_base + 1;
        let ops = (0..nops)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    let v = next_value;
                    next_value += 1;
                    StructOp::Push(v)
                } else {
                    StructOp::Pop
                }
            })
            .collect();
        Workload {
            name: "multi",
            prefill: (0..prefill as u64).map(|i| value_base + 10_000 + i).collect(),
            ops,
            adaptive: true,
        }
    }

    /// Seeded multi-op set/map workload (`set_seeded_full` with the default
    /// prefill).
    pub fn set_seeded(seed: u64, nops: usize) -> Workload {
        Workload::set_seeded_full(seed, nops, 3, 0)
    }

    /// Fully parameterised seeded set/map workload: keys are drawn from a
    /// small range around `key_base` (every other key prefilled) so inserts,
    /// removes and membership tests all hit both their *true* and *false*
    /// paths.
    pub fn set_seeded_full(seed: u64, nops: usize, prefill: usize, key_base: u64) -> Workload {
        let mut rng = SmallRng::seed_from_u64(seed);
        let span = (2 * prefill as u64 + 4).max(6);
        let ops = (0..nops)
            .map(|_| {
                let k = key_base + rng.gen_range(0..span);
                match rng.gen_range(0..3u64) {
                    0 => StructOp::Insert(k),
                    1 => StructOp::Remove(k),
                    _ => StructOp::Contains(k),
                }
            })
            .collect();
        Workload {
            name: "multi",
            prefill: (0..prefill as u64).map(|i| key_base + 2 * i).collect(),
            ops,
            adaptive: true,
        }
    }

    /// Pin the replayed structures to the full simulator (adaptive fast path
    /// off), relabelling the workload so reports and JSON rows stay
    /// distinguishable from their adaptive twins.
    pub fn slow_path(mut self) -> Workload {
        self.adaptive = false;
        self.name = match self.name {
            "pair" => "pair-slow",
            "multi" => "multi-slow",
            "map-resize" => "map-resize-slow",
            other => other,
        };
        self
    }

    /// Upper bound on the elements a replay can leave behind: the prefill
    /// plus every addition in the swept window (whether or not it completed —
    /// an interrupted one may still have applied). Draining is bounded by
    /// this figure so a cyclic next-pointer chain produced by a recovery bug
    /// terminates the replay with an over-long drain (an oracle violation
    /// carrying the offending schedule) instead of hanging the sweep.
    pub fn drain_bound(&self) -> usize {
        self.prefill.len() + additions(&self.ops)
    }
}

/// A concurrent workload: per-pid operation sequences over one shared
/// structure.
#[derive(Clone, Debug)]
pub struct ConcWorkload {
    /// Name used in reports ("conc-pair", "conc-multi", "conc-map").
    pub name: &'static str,
    /// Contents before the scheduled window starts (see [`Workload::prefill`]).
    pub prefill: Vec<u64>,
    /// Per-pid operation sequences; `per_pid.len()` is the process count.
    pub per_pid: Vec<Vec<StructOp>>,
    /// Contention-trip-threshold override for the adaptive capsule variants
    /// (`None` = the production policy). The sensitized demotion sweeps set
    /// this to 1 so *any* lost fast-path CAS demotes the operation, making
    /// the fast→slow demotion boundary deterministically reachable under the
    /// scheduled interleavings.
    pub trip_threshold: Option<u32>,
}

impl ConcWorkload {
    /// The canonical concurrent queue/stack pair: every pid enqueues/pushes
    /// one distinctive value and dequeues/pops once, on a lightly prefilled
    /// structure.
    pub fn pair(threads: usize) -> ConcWorkload {
        ConcWorkload {
            name: "conc-pair",
            prefill: (0..4).map(|i| 10_000 + i).collect(),
            per_pid: (0..threads as u64)
                .map(|p| vec![StructOp::Push(100 + p), StructOp::Pop])
                .collect(),
            trip_threshold: None,
        }
    }

    /// The canonical concurrent set pair: every pid inserts a fresh mid-list
    /// key and removes a (for up to 3 pids) prefilled one.
    pub fn set_pair(threads: usize) -> ConcWorkload {
        ConcWorkload {
            name: "conc-pair",
            prefill: vec![10, 20, 30],
            per_pid: (0..threads as u64)
                .map(|p| vec![StructOp::Insert(11 + 2 * p), StructOp::Remove(10 * (p + 1))])
                .collect(),
            trip_threshold: None,
        }
    }

    /// The canonical concurrent map workload: distinct inserts per pid on a
    /// [`MapConfig::tiny`] map, so the pids race the resize trigger and the
    /// migration helping paths against each other (and against the scripted
    /// crashes) while the removes exercise tombstoning under contention.
    pub fn map_pair(threads: usize) -> ConcWorkload {
        ConcWorkload {
            name: "conc-map",
            prefill: vec![10, 20, 30],
            per_pid: (0..threads as u64)
                .map(|p| {
                    vec![
                        StructOp::Insert(11 + 2 * p),
                        StructOp::Insert(40 + p),
                        StructOp::Remove(10 * (p + 1)),
                    ]
                })
                .collect(),
            trip_threshold: None,
        }
    }

    /// A seeded concurrent queue/stack workload: every pid runs its own
    /// reproducible operation sequence with a disjoint value range.
    pub fn seeded(seed: u64, threads: usize, nops_per_pid: usize) -> ConcWorkload {
        ConcWorkload {
            name: "conc-multi",
            prefill: (0..3).map(|i| 10_000 + i).collect(),
            per_pid: (0..threads as u64)
                .map(|p| {
                    Workload::seeded_full(seed ^ (p + 1), nops_per_pid, 0, (p + 1) << 32).ops
                })
                .collect(),
            trip_threshold: None,
        }
    }

    /// Sensitize the adaptive capsule variants' contention policy: a trip
    /// threshold of 1 makes every lost fast-path CAS demote its operation,
    /// so the interleaved sweeps crash the demotion boundary rather than
    /// hoping the production streak (2 consecutive losses) ever trips inside
    /// a short scheduled window. Relabels the workload for reports.
    pub fn sensitized(mut self) -> ConcWorkload {
        self.trip_threshold = Some(1);
        self.name = match self.name {
            "conc-pair" => "conc-pair-trip1",
            "conc-multi" => "conc-multi-trip1",
            "conc-map" => "conc-map-trip1",
            other => other,
        };
        self
    }

    /// The number of scheduled processes.
    pub fn threads(&self) -> usize {
        self.per_pid.len()
    }

    /// Upper bound on the elements a replay can leave behind (see
    /// [`Workload::drain_bound`]): the prefill plus every addition of every
    /// pid.
    pub fn drain_bound(&self) -> usize {
        self.prefill.len() + additions(self.per_pid.iter().flatten())
    }
}

/// Romulus is a baseline outside the family (it depends on `pmem` alone), so
/// its handle is given the family's face here: the one handle adaptor of the
/// harness.
struct RomulusFifo<'q, 't, 'm>(RomulusQueueHandle<'q, 't, 'm>);

impl StructHandle for RomulusFifo<'_, '_, '_> {
    fn apply(&mut self, op: StructOp) -> Option<u64> {
        apply_stack(&mut self.0, op, RomulusQueueHandle::enqueue, RomulusQueueHandle::dequeue)
    }

    fn drain_up_to(&mut self, max: usize) -> Drain {
        drain_by_pops(max, || self.0.dequeue())
    }
}

/// A constructed structure of any [`Variant`] (see [`build`]).
pub enum Built {
    /// [`Variant::Msq`] / [`Variant::IzraelevitzMsq`].
    Msq(MsQueue),
    /// The General queue, any durability and frame style.
    GeneralQueue(GeneralQueue),
    /// The Normalized queue, any durability and frame style.
    NormalizedQueue(NormalizedQueue),
    /// [`Variant::LogQueue`].
    Log(queues::LogQueue),
    /// [`Variant::Romulus`].
    Romulus(RomulusQueue),
    /// [`Variant::StackIzraelevitz`].
    Stack(TreiberStack),
    /// [`Variant::StackGeneral`].
    GeneralStack(GeneralStack),
    /// [`Variant::StackNormalized`].
    NormalizedStack(NormalizedStack),
    /// [`Variant::SetIzraelevitz`].
    Set(ListSet),
    /// [`Variant::SetGeneral`].
    GeneralSet(GeneralSet),
    /// [`Variant::SetNormalized`].
    NormalizedSet(NormalizedSet),
    /// [`Variant::MapIzraelevitz`].
    Map(DetMap),
    /// [`Variant::MapGeneral`].
    GeneralMap(GeneralDetMap),
    /// [`Variant::MapNormalized`].
    NormalizedMap(NormalizedDetMap),
}

/// The one table from a [`Variant`] to its structure, shared by the sweeper's
/// replays and the throughput runner. `t` allocates the structure for `nprocs`
/// processes; `map` sizes the map variants' bucket array; `nodes` bounds the
/// elements ever added (Romulus sizes its region up front; nothing else looks);
/// `adaptive` and `trip_threshold` configure the contention-adaptive fast path
/// of the variants that have one ([`Variant::adaptive_capable`]; `None` keeps
/// the production contention policy) and mean nothing to the others.
pub fn build(
    variant: Variant,
    t: &PThread<'_>,
    nprocs: usize,
    map: MapConfig,
    nodes: u64,
    adaptive: bool,
    trip_threshold: Option<u32>,
) -> Built {
    use Variant::*;
    let policy = ContentionMeasure::new();
    let policy = trip_threshold.map_or(policy, |n| policy.with_threshold(n));
    let general = BoundaryStyle::General;
    let durability = match variant {
        GeneralIzraelevitz | NormalizedIzraelevitz => Durability::None,
        _ => Durability::Manual,
    };
    // The fast-path configuration of the variants that have one.
    macro_rules! tuned {
        ($s:expr) => {
            $s.with_adaptive(adaptive).with_contention(policy)
        };
    }
    match variant {
        Msq | IzraelevitzMsq => Built::Msq(MsQueue::new(t)),
        GeneralIzraelevitz | General | GeneralOpt => {
            let style = BoundaryStyle::opt(variant == GeneralOpt);
            Built::GeneralQueue(tuned!(GeneralQueue::new(t, nprocs, durability, style)))
        }
        NormalizedIzraelevitz | Normalized | NormalizedOpt => {
            let optimised = variant == NormalizedOpt;
            Built::NormalizedQueue(tuned!(NormalizedQueue::new(t, nprocs, durability, optimised)))
        }
        LogQueue => Built::Log(queues::LogQueue::new(t, nprocs)),
        Romulus => Built::Romulus(RomulusQueue::new(t, nodes)),
        StackIzraelevitz => Built::Stack(TreiberStack::new(t)),
        StackGeneral => Built::GeneralStack(tuned!(GeneralStack::new(t, nprocs, true, general))),
        StackNormalized => {
            Built::NormalizedStack(tuned!(NormalizedStack::new(t, nprocs, true, false)))
        }
        SetIzraelevitz => Built::Set(ListSet::new(t)),
        SetGeneral => Built::GeneralSet(GeneralSet::new(t, nprocs, true, general)),
        SetNormalized => Built::NormalizedSet(NormalizedSet::new(t, nprocs, true, false)),
        MapIzraelevitz => Built::Map(DetMap::new(t, map)),
        MapGeneral => Built::GeneralMap(tuned!(GeneralDetMap::new(t, nprocs, map, true, general))),
        MapNormalized => {
            Built::NormalizedMap(tuned!(NormalizedDetMap::new(t, nprocs, map, true, false)))
        }
    }
}

impl Built {
    /// The one table from a built structure to thread `t`'s boxed handle.
    pub fn handle<'a>(&'a self, t: &'a PThread<'a>) -> Box<dyn StructHandle + 'a> {
        match self {
            Built::Msq(q) => Box::new(q.handle(t)),
            Built::GeneralQueue(q) => Box::new(q.handle(t)),
            Built::NormalizedQueue(q) => Box::new(q.handle(t)),
            Built::Log(q) => Box::new(q.handle(t)),
            Built::Romulus(q) => Box::new(RomulusFifo(q.handle(t))),
            Built::Stack(s) => Box::new(s.handle(t)),
            Built::GeneralStack(s) => Box::new(s.handle(t)),
            Built::NormalizedStack(s) => Box::new(s.handle(t)),
            Built::Set(s) => Box::new(s.handle(t)),
            Built::GeneralSet(s) => Box::new(s.handle(t)),
            Built::NormalizedSet(s) => Box::new(s.handle(t)),
            Built::Map(m) => Box::new(m.handle(t)),
            Built::GeneralMap(m) => Box::new(m.handle(t)),
            Built::NormalizedMap(m) => Box::new(m.handle(t)),
        }
    }
}

/// Run one operation through the LogQueue's detectable-recovery protocol
/// (documented on `LogQueue::logged_seq`), retrying through crashes — nested
/// ones included — until the operation's exact result is known. Crashes are
/// applied kill-aware via [`sweep::apply_driver_crash`].
fn log_queue_op(
    q: &queues::LogQueue,
    t: &PThread<'_>,
    h: &mut dyn StructHandle,
    op: StructOp,
    system: bool,
    recoveries: &Cell<u64>,
    recovery_crashes: &Cell<u64>,
) -> Option<u64> {
    // Single site for the per-crash bookkeeping (stats, machine fault flag)
    // so every catch in the driver accounts identically.
    let crashed = |during_recovery: bool| {
        if during_recovery {
            recovery_crashes.set(recovery_crashes.get() + 1);
        }
        sweep::apply_driver_crash(t, system);
    };
    // The restart/recovery code itself executes simulated instructions, so a
    // (nested) crash can land inside it too. Every read-only step of the
    // driver protocol is therefore retried until it completes — safe because
    // those steps never write.
    let read_only = |f: &dyn Fn() -> u64, during_recovery: bool| loop {
        match catch_crash(f) {
            Ok(v) => break v,
            Err(_) => {
                crashed(during_recovery);
                // Restarting the protocol read is itself the recovery action
                // for a crash that lands between operations.
                recoveries.set(recoveries.get() + 1);
            }
        }
    };
    loop {
        let seq_before = read_only(&|| q.logged_seq(t), false);
        match catch_crash(|| h.apply(op)) {
            Ok(ret) => break ret,
            Err(_) => {
                crashed(false);
                // Recovery itself passes crash points; a nested schedule
                // element may interrupt it. Recovery only reads, so retrying
                // from scratch is safe.
                let verdict = loop {
                    match catch_crash(|| q.recover(t)) {
                        Ok(v) => break v,
                        Err(_) => crashed(true),
                    }
                };
                recoveries.set(recoveries.get() + 1);
                if read_only(&|| q.logged_seq(t), true) == seq_before {
                    // log_begin never completed: the queue is untouched;
                    // re-run the operation from scratch.
                    continue;
                }
                match verdict {
                    RecoveredOp::None => {
                        // The log entry is marked done: the operation
                        // completed before the crash.
                        break match op {
                            StructOp::Push(_) => None,
                            _ => loop {
                                match catch_crash(|| q.logged_result(t)) {
                                    Ok(r) => break r,
                                    Err(_) => crashed(true),
                                }
                            },
                        };
                    }
                    RecoveredOp::EnqueueApplied => break None,
                    RecoveredOp::DequeueApplied(v) => break Some(v),
                    RecoveredOp::EnqueueNotApplied | RecoveredOp::DequeueNotApplied => continue,
                }
            }
        }
    }
}

/// One process driving one built structure: the thread's boxed handle plus
/// the three op-runners (module docs) and the recovery bookkeeping they
/// share. Used verbatim by the single-threaded and the scheduled replays.
struct Driver<'a> {
    variant: Variant,
    built: &'a Built,
    t: &'a PThread<'a>,
    h: Box<dyn StructHandle + 'a>,
    system: bool,
    /// The handle's capsule metrics when the swept window opened.
    base: CapsuleMetrics,
    /// LogQueue protocol recoveries / crashes inside them (driver-counted;
    /// the capsule variants count theirs in the runtime's metrics).
    recoveries: Cell<u64>,
    recovery_crashes: Cell<u64>,
}

impl<'a> Driver<'a> {
    fn new(variant: Variant, built: &'a Built, t: &'a PThread<'a>, system: bool) -> Driver<'a> {
        let mut h = built.handle(t);
        h.set_system_crashes(system);
        Driver {
            variant,
            built,
            t,
            h,
            system,
            base: CapsuleMetrics::default(),
            recoveries: Cell::new(0),
            recovery_crashes: Cell::new(0),
        }
    }

    /// Open the swept window: recovery counters are deltas from here.
    fn open_window(&mut self) {
        self.base = self.h.capsule_metrics().unwrap_or_default();
    }

    /// Run one operation through the variant's op-runner.
    fn run(&mut self, op: StructOp) -> OpOutcome {
        match self.built {
            Built::Log(q) => OpOutcome::Completed(log_queue_op(
                q,
                self.t,
                self.h.as_mut(),
                op,
                self.system,
                &self.recoveries,
                &self.recovery_crashes,
            )),
            // The capsule runtime absorbs every crash inside the operation:
            // it completes with its exact result no matter where the schedule
            // fires. That completion *is* the detectability claim the oracle
            // then verifies against the crash-free history.
            _ if self.variant.detectable() => OpOutcome::Completed(self.h.apply(op)),
            // No recovery protocol: a crash unwinds to here, and the process
            // cannot tell whether the interrupted operation took effect (that
            // is the point of Figure 5's comparison). Record the ambiguity
            // for the forked-model oracle and move on.
            _ => match catch_crash(|| self.h.apply(op)) {
                Ok(ret) => OpOutcome::Completed(ret),
                Err(_) => {
                    sweep::apply_driver_crash(self.t, self.system);
                    OpOutcome::Interrupted
                }
            },
        }
    }

    /// Recovery counters since [`open_window`](Driver::open_window), in the
    /// matching [`CapsuleMetrics`] fields (the others stay zero).
    fn window_metrics(&mut self) -> CapsuleMetrics {
        let m = self.h.capsule_metrics().unwrap_or_default();
        CapsuleMetrics {
            recoveries: m.recoveries - self.base.recoveries + self.recoveries.get(),
            entry_retries: m.entry_retries - self.base.entry_retries,
            recovery_crashes: m.recovery_crashes - self.base.recovery_crashes
                + self.recovery_crashes.get(),
            fast_ops: m.fast_ops - self.base.fast_ops,
            demotions: m.demotions - self.base.demotions,
            ..CapsuleMetrics::default()
        }
    }
}

/// Run one replay of `workload` on `variant` with the given crash script
/// (a disarmed/empty plan ⇒ crash-free baseline). `system` selects full-system
/// crash semantics (see [`sweep::apply_driver_crash`] and [`sweep`]).
///
/// Every replay runs with the [`pmem::FlushAuditor`] and the
/// [`pmem::HbAnalyzer`] armed (handles pick the armed bits up at
/// construction): on top of the history oracle, any flush-ordering or
/// synchronization-discipline violation is caught *at the faulting
/// instruction* and reported with the replay (all swept variants claim a
/// complete flush discipline, so both must stay silent).
pub(crate) fn replay(
    variant: Variant,
    workload: &Workload,
    plan: &CrashPlan,
    system: bool,
) -> ReplayRecord {
    pmem::install_quiet_crash_hook();
    let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
    mem.flush_auditor().arm();
    mem.hb().arm();
    let bound = workload.drain_bound();
    let t = mem.thread_with(0, variant.thread_options());
    let built = build(variant, &t, 1, MapConfig::tiny(), bound as u64, workload.adaptive, None);
    let mut d = Driver::new(variant, &built, &t, system);
    for &v in &workload.prefill {
        let _ = d.h.apply(variant.shape().prefill_op(v));
    }
    mem.persist_everything();
    d.open_window();
    let _ = t.take_stats();
    if plan.remaining() > 0 {
        t.set_crash_schedule(plan.clone());
    }
    let outcomes = workload.ops.iter().map(|&op| d.run(op)).collect();
    let window = t.stats();
    t.disarm_crashes();
    // `bound + 1` visits are enough to prove a corrupted (cyclic) chain
    // without ever spinning on it; `truncated` also covers the
    // marked-node-cycle case, where the walk hits the cap without collecting
    // an over-long key list.
    let drained = d.h.drain_up_to(bound + 1);
    let m = d.window_metrics();
    ReplayRecord {
        outcomes,
        drain_overflow: drained.truncated || drained.items.len() > bound,
        drained: drained.items,
        crash_points: window.crash_points,
        counts: ReplayCounts {
            crashes: window.crashes,
            covictim_crashes: 0,
            recoveries: m.recoveries,
            entry_retries: m.entry_retries,
            recovery_crashes: m.recovery_crashes,
            fast_ops: m.fast_ops,
            demotions: m.demotions,
            audit_flags: mem.flush_auditor().flags(),
            audit_reports: mem.flush_auditor().take_reports(),
            hb_flags: mem.hb().flags(),
            hb_reports: mem.hb().take_reports(),
        },
    }
}

/// Check one replayed history against the oracle: the shape's [`Model`]
/// driven through the shared forked-model checker
/// ([`sweep::check_sequential`]). For every interrupted operation
/// (non-detectable variants only) the model forks into "applied" and "not
/// applied" branches, and the replay passes iff at least one branch
/// reproduces every completed operation's return value *and* the final
/// drained contents.
pub(crate) fn check_history(
    shape: Shape,
    workload: &Workload,
    r: &ReplayRecord,
) -> Result<(), String> {
    if r.drain_overflow {
        return Err(format!(
            "drain returned {} elements but at most {} could have survived the \
             replay — corrupted (cyclic?) next-pointer chain",
            r.drained.len(),
            workload.drain_bound()
        ));
    }
    sweep::check_sequential(
        Model::initial(shape, &workload.prefill),
        &workload.ops,
        &r.outcomes,
        &r.drained,
    )
}

/// Sweep every crash point of `workload` on `variant` with per-process crash
/// semantics (the PPM model of §2.1: the thread's volatile state is lost, the
/// shared cache survives) — the crash flavour the paper's detectability
/// theorems quantify over.
///
/// `nested_gap = None` injects exactly one crash per replay (at point `k`);
/// `Some(gap)` injects a second crash `gap` crash points after the first, which
/// for `gap` near zero lands inside the recovery triggered by the first crash —
/// the crash-during-recovery schedules of the issue's Definition 2.2 argument.
pub fn sweep(variant: Variant, workload: &Workload, nested_gap: Option<u64>) -> Report {
    let nested: Vec<u64> = nested_gap.into_iter().collect();
    sweep_plan(variant, workload, &nested, false)
}

/// Like [`sweep`] but with *full-system* crashes: every injected crash also
/// rolls unflushed cache lines back to their durable contents, so the sweep
/// additionally verifies the variant's flush placement. Sound for every
/// variant since the recoverable-CAS layer adopted the durable-announcement
/// flush discipline ([`rcas::RcasSpace::with_durability`], DESIGN.md §7) —
/// before that, the capsule variants failed exactly here (a rollback zeroed
/// published-but-unflushed announcement state and `check_recovery` re-applied
/// the CAS, duplicating an element).
pub fn sweep_system(variant: Variant, workload: &Workload, nested_gap: Option<u64>) -> Report {
    let nested: Vec<u64> = nested_gap.into_iter().collect();
    sweep_plan(variant, workload, &nested, true)
}

/// The general sweep entry point: replay once per crash point `k`, each replay
/// running the scripted schedule `[k, nested[0], nested[1], …]` — so `nested =
/// [m]` is the crash-during-recovery sweep and `nested = [m, n]` the depth-2
/// crash-during-recovery-of-recovery sweep. `system` selects full-system crash
/// semantics (every crash also rolls unflushed cache lines back).
///
/// The per-`k` replays are independent (each builds a fresh machine), so the
/// sweep fans them out across OS threads ([`sweep::sweep_workers`]). Results
/// are merged in `k` order, so reports are deterministic regardless of the
/// worker count.
pub fn sweep_plan(variant: Variant, workload: &Workload, nested: &[u64], system: bool) -> Report {
    sweep::run_sweep(variant, workload, nested, system, None)
}

/// Run one *scheduled* replay: the workload's pids drive one shared structure
/// under the deterministic [`ThreadScheduler`] seeded with `sched_seed`;
/// `plans` assigns each victim/co-victim pid its crash schedule, and
/// full-system crashes kill the scheduled peers through the scheduler. Public
/// so the determinism tests can compare fingerprints and timed histories
/// across runs; sweeps go through [`sweep_interleaved`].
pub fn conc_replay(
    variant: Variant,
    w: &ConcWorkload,
    sched_seed: u64,
    plans: &sweep::VictimPlans,
    system: bool,
) -> sweep::ConcReplayRecord {
    pmem::install_quiet_crash_hook();
    let threads = w.threads();
    let victim = plans.victim();
    assert!(plans.max_pid() < threads, "victim pid out of range");
    // Pids 0..threads run the scheduled window; one extra *helper* pid does
    // the prefill and the post-join drain. The helper must not share a pid
    // with any worker: pid-indexed recovery state (the rcas announcement
    // slot, the log row) assumes sequence numbers are unique per pid, and a
    // fresh handle restarts its sequence counter — a worker recovering over a
    // triple installed by a same-pid prefill handle would false-positively
    // conclude its own interrupted CAS already took effect.
    let helper = threads;
    let nprocs = threads + 1;
    let mem = PMem::new(MemConfig::new(nprocs).mode(Mode::SharedCache));
    // Unlike the flush auditor (left disarmed — see below), the
    // happens-before analyzer stays armed in scheduled replays: its model is
    // schedule-aware (baton handovers draw no edges, crashes are barriers),
    // so the interleaved sweeps double as race checks over every enumerated
    // interleaving.
    mem.hb().arm();
    // The flush auditor encodes the Izraelevitz flush-before-publish reader
    // discipline, which only cross-pid reads can violate — and every swept
    // variant legitimately departs from it once real concurrency is in play.
    // MSQ and LogQueue publish first and let readers help (the reader
    // flushes). The capsule variants persist the *announcement* lines before
    // the publishing CAS and flush the CAS target afterwards: a peer may read
    // the published-but-unflushed word in that gap, which is safe because the
    // word is its own flush unit — any later persist of that line (the
    // reader's own CAS+flush included) makes the predecessor's value durable
    // with it, and a full-system crash rolls the reader's dependent state back
    // together with it. The single-threaded sweeps (where no cross-pid read
    // exists and the discipline is exact) keep the auditor armed; the
    // scheduled replays leave it disarmed and rely on the linearization oracle
    // plus the /system rollback semantics to catch real durability bugs.
    let opts = variant.thread_options();
    let bound = w.drain_bound();

    // Build and prefill from the helper pid, unscheduled and crash-free, then
    // make the prefill durable so it survives any later rollback.
    let built = {
        let t = mem.thread_with(helper, opts);
        let built =
            build(variant, &t, nprocs, MapConfig::tiny(), bound as u64, true, w.trip_threshold);
        let mut h = built.handle(&t);
        for &v in &w.prefill {
            let _ = h.apply(variant.shape().prefill_op(v));
        }
        drop(h);
        built
    };
    mem.persist_everything();

    let sched = ThreadScheduler::new(SchedConfig::new(threads, sched_seed));
    let gate = TurnGate::default();
    struct PidOut {
        history: Vec<TimedOp>,
        window: Stats,
        metrics: CapsuleMetrics,
    }
    let outs: Vec<PidOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|pid| {
                let sched = Arc::clone(&sched);
                let (mem, built, gate) = (&mem, &built, &gate);
                let ops: &[StructOp] = &w.per_pid[pid];
                s.spawn(move || {
                    let t = mem.thread_with(pid, opts);
                    // Handle construction allocates: serialise it in pid
                    // order so equal seeds reproduce the same layout.
                    gate.wait_for(pid);
                    let mut d = Driver::new(variant, built, &t, system);
                    gate.advance(pid);
                    d.open_window();
                    let (history, window) =
                        sweep::run_scheduled_window(&t, &sched, pid, plans, ops, |op| d.run(op));
                    let metrics = d.window_metrics();
                    PidOut { history, window, metrics }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scheduled dfck worker panicked"))
            .collect()
    });

    // Drain from a fresh, unscheduled helper-pid handle after every worker
    // joined.
    let drained = built.handle(&mem.thread_with(helper, opts)).drain_up_to(bound + 1);
    let sum = |f: &dyn Fn(&PidOut) -> u64| outs.iter().map(f).sum::<u64>();
    let v = &outs[victim];
    sweep::ConcReplayRecord {
        history: outs.iter().flat_map(|o| o.history.iter().copied()).collect(),
        drain_overflow: drained.truncated || drained.items.len() > bound,
        drained: drained.items,
        fingerprint: sched.fingerprint(),
        victim_crash_points: v.window.crash_points,
        victim_crashes: v.window.crashes,
        victim_recovery_actions: v.metrics.recoveries + v.metrics.entry_retries,
        counts: ReplayCounts {
            crashes: sum(&|o| o.window.crashes),
            covictim_crashes: plans.covictim_pids().map(|p| outs[p].window.crashes).sum(),
            recoveries: sum(&|o| o.metrics.recoveries),
            entry_retries: sum(&|o| o.metrics.entry_retries),
            recovery_crashes: sum(&|o| o.metrics.recovery_crashes),
            fast_ops: sum(&|o| o.metrics.fast_ops),
            demotions: sum(&|o| o.metrics.demotions),
            audit_flags: 0,
            audit_reports: Vec::new(),
            hb_flags: mem.hb().flags(),
            hb_reports: mem.hb().take_reports(),
        },
    }
}

/// The interleaved sweep: enumerate (interleaving seed × crash point) for one
/// variant. For every seed, the crash-free scheduled baseline learns how many
/// crash points the victim pid (`seed % threads`, rotating across the seed
/// set) passes, then every one of them is replayed with the scripted schedule
/// `[k, nested…]` — under per-process (`system = false`) or full-system
/// (`system = true`) crash semantics. Histories are checked with the
/// linearization oracle ([`sweep::check_linearizable`]); detectable variants
/// must additionally complete every operation exactly-once and run a recovery
/// action on the victim for every injected crash.
pub fn sweep_interleaved(
    variant: Variant,
    w: &ConcWorkload,
    seeds: &[u64],
    nested: &[u64],
    system: bool,
) -> Report {
    sweep::run_conc_sweep(variant, w, seeds, nested, None, system, None)
}

/// The multi-victim interleaved sweep: like [`sweep_interleaved`], but every
/// scripted replay *also* arms the pid after the victim with the independent
/// single-crash plan [`CrashPlan::once`]`(covictim_gap)` — two pids crash in
/// one scheduled replay, so one pid's recovery (helping, announcement
/// re-reads, frame replay) races a peer that is itself crashing and
/// recovering. The report's `covictim_crashes` counts how often the second
/// schedule actually fired; the engine fails the sweep if it never did.
pub fn sweep_interleaved_multi(
    variant: Variant,
    w: &ConcWorkload,
    seeds: &[u64],
    nested: &[u64],
    covictim_gap: u64,
    system: bool,
) -> Report {
    sweep::run_conc_sweep(variant, w, seeds, nested, Some(covictim_gap), system, None)
}

#[cfg(test)]
mod tests {

    use super::*;
    use std::collections::BTreeSet;

    fn crash_free() -> CrashPlan {
        CrashPlan::new(Vec::new())
    }

    #[test]
    fn variant_labels_are_unique_and_round_trip() {
        let labels: BTreeSet<&str> = Variant::all().iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), Variant::all().len(), "duplicate label in Variant::all()");
        for v in Variant::all() {
            assert_eq!(Variant::from_label(v.label()), Some(v));
        }
        assert_eq!(Variant::from_label("Stack-Generl"), None);
    }

    /// A slow-path enqueue under a full-system crash that lands between the
    /// E_LINK boundary's flush and its fence — the window where the compact
    /// frame could persist without the node it references. This was a real
    /// flag the analyzer raised against the `-Opt` fence elision (the node
    /// persist preceded a *boundary*, not a CAS); pinned here against the
    /// fixed discipline.
    #[test]
    fn generalopt_slow_path_boundary_crash_runs_hb_clean() {
        let w = Workload::pair().slow_path();
        let r = replay(Variant::GeneralOpt, &w, &CrashPlan::once(15), true);
        assert_eq!(r.counts.hb_flags, 0, "{:?}", r.counts.hb_reports);
    }

    /// The crash-free pair replay of every variant of `shape` passes crash
    /// points and satisfies the shape's oracle.
    fn baseline_pair_is_consistent(fifo: bool) {
        for variant in Variant::swept() {
            if (variant.shape() == Shape::Fifo) != fifo {
                continue;
            }
            let w = match variant.shape() {
                Shape::Fifo | Shape::Lifo => Workload::pair(),
                Shape::Set => Workload::set_pair(),
                Shape::Map => Workload::map_resize(),
            };
            let r = replay(variant, &w, &crash_free(), false);
            assert_eq!(r.counts.crashes, 0);
            assert!(r.crash_points > 0, "{variant:?}: workload passed no crash points");
            check_history(variant.shape(), &w, &r).unwrap();
        }
    }

    #[test]
    fn baseline_pair_history_is_consistent() {
        baseline_pair_is_consistent(true);
    }

    /// Lost, duplicated and reordered drains plus an over-long one must all
    /// fail the oracle of `variant`'s shape.
    fn oracle_rejects_corrupted_drains(variant: Variant) -> ReplayRecord {
        let (w, shape) = (Workload::pair(), variant.shape());
        let good = replay(variant, &w, &crash_free(), false);
        check_history(shape, &w, &good).unwrap();
        // Lost element: drop the first drained value.
        let mut lost = good.clone();
        lost.drained.remove(0);
        assert!(check_history(shape, &w, &lost).is_err());
        // Duplicated element: drain reports a value twice.
        let mut dup = good.clone();
        let v = dup.drained[0];
        dup.drained.insert(0, v);
        assert!(check_history(shape, &w, &dup).is_err());
        // The other shape's drain order (FIFO vs LIFO).
        let mut reversed = good.clone();
        reversed.drained.reverse();
        assert!(check_history(shape, &w, &reversed).is_err());
        // Over-long drain is diagnosed as a cycle.
        let mut cycled = good.clone();
        cycled.drain_overflow = true;
        let err = check_history(shape, &w, &cycled).unwrap_err();
        assert!(err.contains("cyclic"), "diagnosis missing from: {err}");
        good
    }

    #[test]
    fn oracle_rejects_lost_and_duplicated_elements() {
        let mut wrong = oracle_rejects_corrupted_drains(Variant::General);
        // Wrong dequeue return.
        for o in &mut wrong.outcomes {
            if let OpOutcome::Completed(Some(v)) = o {
                *v += 1;
            }
        }
        assert!(check_history(Shape::Fifo, &Workload::pair(), &wrong).is_err());
    }

    /// An interrupted addition of 42 to a structure holding 7 may or may not
    /// have applied; both final states must be accepted, `corrupt` rejected.
    fn oracle_accepts_interrupted_addition_either_way(shape: Shape, corrupt: Vec<u64>) {
        let w = Workload {
            name: "ambig",
            prefill: vec![7],
            ops: vec![shape.prefill_op(42)],
            adaptive: true,
        };
        let base = ReplayRecord {
            outcomes: vec![OpOutcome::Interrupted],
            drained: vec![7, 42],
            crash_points: 1,
            counts: ReplayCounts { crashes: 1, ..ReplayCounts::default() },
            ..ReplayRecord::default()
        };
        check_history(shape, &w, &base).unwrap();
        let not_applied = ReplayRecord { drained: vec![7], ..base.clone() };
        check_history(shape, &w, &not_applied).unwrap();
        let corrupt = ReplayRecord { drained: corrupt, ..base };
        assert!(check_history(shape, &w, &corrupt).is_err());
    }

    #[test]
    fn oracle_accepts_ambiguous_interrupted_op_either_way() {
        oracle_accepts_interrupted_addition_either_way(Shape::Fifo, vec![42, 7]);
    }

    // The full pair sweeps (single + nested, every variant) live in the
    // integration tests (`tests/`); duplicating the multi-thousand-replay
    // runs here would double the cost of every `cargo test` for identical
    // coverage.

    /// Deterministic regression for the bounded-drain oracle path: an
    /// artificially cycled queue (the shape a buggy recovery could splice)
    /// must terminate the drain at the bound and fail the oracle — never hang.
    #[test]
    fn cyclic_next_chain_is_reported_as_violation_not_hang() {
        use queues::node::next_addr;
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread(0);
        let q = MsQueue::new(&t);
        let mut h = q.handle(&t);
        for v in [1, 2, 3] {
            h.apply(StructOp::Push(v));
        }
        // Walk sentinel -> n1 -> n2 -> n3 and splice n3.next back to n1.
        let sentinel = pmem::PAddr::from_raw(t.read(q.head_addr()));
        let n1 = pmem::PAddr::from_raw(t.read(next_addr(sentinel)));
        let n2 = pmem::PAddr::from_raw(t.read(next_addr(n1)));
        let n3 = pmem::PAddr::from_raw(t.read(next_addr(n2)));
        assert!(!n3.is_null());
        t.write(next_addr(n3), n1.to_raw());
        let w = Workload {
            name: "cycled",
            prefill: Vec::new(),
            ops: vec![StructOp::Push(1), StructOp::Push(2), StructOp::Push(3)],
            adaptive: true,
        };
        let bound = w.drain_bound();
        assert_eq!(bound, 3);
        // The bounded drain stops after bound + 1 dequeues despite the cycle…
        let drained = h.drain_up_to(bound + 1);
        assert_eq!(drained.items.len(), bound + 1, "drain must stop at the bound");
        // …and the oracle rejects the over-long history with the cycle diagnosis.
        let r = ReplayRecord {
            outcomes: vec![OpOutcome::Completed(None); 3],
            drain_overflow: drained.truncated,
            drained: drained.items,
            ..ReplayRecord::default()
        };
        let err = check_history(Shape::Fifo, &w, &r).unwrap_err();
        assert!(err.contains("cyclic"), "diagnosis missing from: {err}");
    }

    #[test]
    fn drain_bound_counts_prefill_plus_enqueues() {
        let w = Workload::pair();
        assert_eq!(w.drain_bound(), w.prefill.len() + 1);
        let all_deq = Workload {
            name: "deq",
            prefill: vec![1, 2],
            ops: vec![StructOp::Pop, StructOp::Pop],
            adaptive: true,
        };
        assert_eq!(all_deq.drain_bound(), 2);
    }

    #[test]
    fn seeded_workload_is_reproducible_and_mixed() {
        let a = Workload::seeded(9, 12);
        let b = Workload::seeded(9, 12);
        assert_eq!(a.ops, b.ops);
        assert!(a.ops.iter().any(|o| matches!(o, StructOp::Push(_))));
        assert!(a.ops.iter().any(|o| matches!(o, StructOp::Pop)));
        assert_ne!(Workload::seeded(10, 12).ops, a.ops);
    }

    #[test]
    fn seeded_full_offsets_values_and_prefill() {
        let w = Workload::seeded_full(9, 12, 5, 1_000_000);
        assert_eq!(w.prefill.len(), 5);
        assert!(w.prefill.iter().all(|&v| v >= 1_000_000));
        assert!(w
            .ops
            .iter()
            .all(|o| !matches!(o, StructOp::Push(v) if *v <= 1_000_000)));
        // Same seed/ops as the plain generator, just shifted ranges.
        assert_eq!(w.ops.len(), Workload::seeded(9, 12).ops.len());
    }

    /// The fan-out must not change what is verified: the same sweep with one
    /// worker and with several yields the same report, field for field.
    fn parallel_sweep_matches_sequential(variant: Variant) {
        let w = Workload::pair();
        let seq = sweep::run_sweep(variant, &w, &[0], false, Some(1));
        let par = sweep::run_sweep(variant, &w, &[0], false, Some(4));
        assert_eq!(seq, par);
        assert!(seq.passed());
    }

    #[test]
    fn parallel_sweep_matches_sequential_sweep() {
        parallel_sweep_matches_sequential(Variant::General);
    }

    #[test]
    fn opt_variants_are_swept_and_pass_the_pair_sweep() {
        for variant in [Variant::GeneralOpt, Variant::NormalizedOpt] {
            let report = sweep(variant, &Workload::pair(), None);
            assert!(report.passed(), "{variant:?}: {:?}", report.violations);
            assert!(report.crash_points > 0);
        }
    }

    #[test]
    fn conc_workload_generators_are_sane() {
        let pair = ConcWorkload::pair(3);
        assert_eq!(pair.threads(), 3);
        assert_eq!(pair.drain_bound(), 4 + 3);
        // Per-pid value ranges are disjoint.
        let a = ConcWorkload::seeded(7, 2, 6);
        assert_eq!(a.threads(), 2);
        assert_eq!(a.per_pid, ConcWorkload::seeded(7, 2, 6).per_pid);
        assert_ne!(a.per_pid[0], a.per_pid[1]);
    }

    #[test]
    fn parallel_interleaved_sweep_matches_sequential_sweep() {
        // Same discipline as the sequential sweeps, under the
        // (seed × crash point) dimension: the fan-out worker count must not
        // change any aggregate of the merged report.
        let w = ConcWorkload::pair(2);
        let run = |workers| {
            sweep::run_conc_sweep(Variant::General, &w, &[1, 2], &[], None, false, Some(workers))
        };
        let (seq, par) = (run(1), run(4));
        assert_eq!(seq, par);
        assert!(seq.passed(), "{:?}", seq.violations);
    }

    /// The stack / set / map side of the in-module tests (the former
    /// structure sweeper's), on the same engine and helpers.
    mod structs {
        use super::*;

        #[test]
        fn baseline_pair_histories_are_consistent() {
            baseline_pair_is_consistent(false);
        }

        #[test]
        fn stack_oracle_rejects_corrupted_histories() {
            oracle_rejects_corrupted_drains(Variant::StackGeneral);
        }

        #[test]
        fn set_oracle_rejects_wrong_membership_answers() {
            let w = Workload::set_pair();
            let good = replay(Variant::SetGeneral, &w, &crash_free(), false);
            check_history(Shape::Set, &w, &good).unwrap();
            assert_eq!(good.drained, vec![10, 15, 30]);
            // A flipped insert return (claims the key was present).
            let mut flipped = good.clone();
            flipped.outcomes[0] = OpOutcome::Completed(Some(0));
            assert!(check_history(Shape::Set, &w, &flipped).is_err());
            // A remove that "succeeded" but left the key behind.
            let mut stale = good.clone();
            stale.drained = vec![10, 15, 20, 30];
            assert!(check_history(Shape::Set, &w, &stale).is_err());
        }

        #[test]
        fn set_oracle_accepts_interrupted_ops_either_way() {
            oracle_accepts_interrupted_addition_either_way(Shape::Set, vec![42]);
        }

        #[test]
        fn seeded_workloads_are_reproducible_and_mixed() {
            let a = Workload::seeded(9, 12);
            assert_eq!(a.ops, Workload::seeded(9, 12).ops);
            assert!(a.ops.iter().any(|o| matches!(o, StructOp::Push(_))));
            assert!(a.ops.iter().any(|o| matches!(o, StructOp::Pop)));
            let s = Workload::set_seeded(9, 24);
            assert_eq!(s.ops, Workload::set_seeded(9, 24).ops);
            assert!(s.ops.iter().any(|o| matches!(o, StructOp::Insert(_))));
            assert!(s.ops.iter().any(|o| matches!(o, StructOp::Remove(_))));
            assert!(s.ops.iter().any(|o| matches!(o, StructOp::Contains(_))));
            // Offsets shift the key/value ranges so property cases stay disjoint.
            let shifted = Workload::set_seeded_full(9, 24, 3, 1_000_000);
            assert!(shifted.prefill.iter().all(|&k| k >= 1_000_000));
        }

        #[test]
        fn parallel_sweep_matches_sequential_sweep() {
            parallel_sweep_matches_sequential(Variant::StackGeneral);
        }

        #[test]
        fn conc_struct_workload_generators_are_sane() {
            let sp = ConcWorkload::pair(2);
            assert_eq!(sp.threads(), 2);
            assert_eq!(sp.drain_bound(), 4 + 2);
            let tp = ConcWorkload::set_pair(3);
            assert_eq!(tp.threads(), 3);
            // Inserted keys are distinct across pids; removed keys are prefilled.
            assert_eq!(tp.drain_bound(), 3 + 3);
        }
    }
}
