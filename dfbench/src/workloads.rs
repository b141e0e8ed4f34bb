//! The five workloads: what each drives, how large it is, the seeded
//! operation streams, and the sequential models outputs are checked against.

use std::collections::{HashSet, VecDeque};

use service::{hash_key, RequestGen, Zipfian};
use structs::StructOp;

/// Which structure family a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Michael–Scott queue family (`queues`).
    Queue,
    /// Treiber stack family (`structs`).
    Stack,
    /// Hash map family (`structs`).
    Map,
    /// Sorted linked-list set family (`structs`), the structure under `service`.
    Set,
}

impl Shape {
    /// The crate that implements the family: the per-layer metrics of the
    /// structure layer are about this crate.
    pub fn layer(self) -> &'static str {
        match self {
            Shape::Queue => "queues",
            _ => "structs",
        }
    }
}

/// The operation mix of a workload.
#[derive(Clone, Copy, Debug)]
pub enum Mix {
    /// Insert–remove pairs (enqueue–dequeue or push–pop), 100% updates.
    Pairs,
    /// Zipf-skewed keyed operations: `read_pct`% `Contains`, the rest split
    /// evenly between `Insert` and `Remove`.
    Keyed {
        keys: u64,
        read_pct: u32,
        /// Initial buckets of the map (ignored by the set).
        buckets: u64,
    },
}

/// Zipfian skew of every keyed workload (YCSB's default).
pub const THETA: f64 = 0.99;

/// The open-loop half of `service_paced`.
#[derive(Clone, Copy, Debug)]
pub struct ServiceSpec {
    pub shards: usize,
    pub workers_per_shard: usize,
    pub queue_cap: usize,
    /// The rate of the paced session and of the load under the drills (req/s).
    pub rate: u64,
    /// The traced run's rate ladder (req/s).
    pub ladder: [u64; 3],
    /// Kill drills; every `full_system_every`-th is a full-system crash.
    pub drills: usize,
    pub full_system_every: usize,
    pub drill_spacing_ms: u64,
    pub recovery_deadline_ms: u64,
}

/// One workload: shape, sizes and the reason it exists.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub mix: Mix,
    /// Closed-loop clients of the timed pass (one thread each).
    pub threads: usize,
    pub prefill: u64,
    /// Operations each client issues per timed repetition. Fixed, not timed:
    /// nodes are never recycled, so throughput depends on run length and two
    /// commits must do identical work.
    pub ops_per_thread: u64,
    /// Operations of the one-thread count, latency and traced passes.
    pub count_ops: u64,
    /// Operations of the one-thread faulty pass.
    pub faulty_ops: u64,
    /// Per-instruction fault probability of the faulty pass. A capsule that
    /// is interrupted restarts from its beginning, so the rate must keep
    /// rate × (longest capsule) well below 1 or the pass never ends: 0.002
    /// suits the one-CAS pairs, a set traversal runs hundreds of
    /// instructions, and publishing a map generation tens of thousands.
    pub fault_prob: f64,
    pub service: Option<ServiceSpec>,
}

const MAP_KEYS: u64 = 1 << 17;

/// The benchmark's workloads, in the order they run.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "queue_pairs",
        why: "One recoverable CAS per op with the fast capsule on and two contending threads: capsules, rcas and queues do the work, structs and service do nothing.",
        shape: Shape::Queue,
        mix: Mix::Pairs,
        threads: 2,
        prefill: 10_000,
        ops_per_thread: 200_000,
        count_ops: 100_000,
        faulty_ops: 200_000,
        fault_prob: 0.002,
        service: None,
    },
    Spec {
        name: "stack_pairs",
        why: "The same one-CAS shape through structs' hand-rolled state machine with no fast path and no contention: where one capsule-op layer would show.",
        shape: Shape::Stack,
        mix: Mix::Pairs,
        threads: 1,
        prefill: 1_000,
        ops_per_thread: 400_000,
        count_ops: 100_000,
        faulty_ops: 60_000,
        fault_prob: 0.002,
        service: None,
    },
    Spec {
        name: "map_read_heavy",
        why: "95% Contains on 2^17 Zipf keys, nodes larger than L2: reads dominate and pay for persistence, so flush-free reads must show here.",
        shape: Shape::Map,
        mix: Mix::Keyed { keys: MAP_KEYS, read_pct: 95, buckets: 1 << 12 },
        threads: 2,
        prefill: MAP_KEYS / 2,
        ops_per_thread: 100_000,
        count_ops: 100_000,
        faulty_ops: 600_000,
        fault_prob: 0.00002,
        service: None,
    },
    Spec {
        name: "map_write_heavy",
        why: "Same map, keys and skew at 10% Contains: crosses resizes and tombstone purges, so a read-side trick that taxes writes shows as a loss here.",
        shape: Shape::Map,
        mix: Mix::Keyed { keys: MAP_KEYS, read_pct: 10, buckets: 1 << 12 },
        threads: 2,
        prefill: MAP_KEYS / 2,
        ops_per_thread: 25_000,
        count_ops: 100_000,
        faulty_ops: 100_000,
        fault_prob: 0.00002,
        service: None,
    },
    Spec {
        name: "service_paced",
        why: "The list set under the service's request stream, then open-loop paced requests through router, queues, shard workers and kill-restart drills: the only workload with service on the path.",
        shape: Shape::Set,
        mix: Mix::Keyed { keys: 4096, read_pct: 50, buckets: 0 },
        threads: 1,
        prefill: 2048,
        ops_per_thread: 60_000,
        count_ops: 60_000,
        faulty_ops: 20_000,
        fault_prob: 0.0002,
        service: Some(ServiceSpec {
            shards: 2,
            workers_per_shard: 1,
            queue_cap: 8192,
            rate: 40_000,
            ladder: [20_000, 40_000, 80_000],
            drills: 12,
            full_system_every: 4,
            drill_spacing_ms: 150,
            recovery_deadline_ms: 2_000,
        }),
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// The same workload at a fraction of its size (smoke tests).
    pub fn shrunk(&self, div: u64) -> Spec {
        let mut s = *self;
        s.prefill = (s.prefill / div).max(8);
        s.ops_per_thread = (s.ops_per_thread / div).max(64);
        s.count_ops = (s.count_ops / div).max(64);
        // The faulty pass keeps its length: it must still inject its faults.
        if let Mix::Keyed {
            keys,
            read_pct,
            buckets,
        } = s.mix
        {
            let keys = (keys / div).max(32);
            s.prefill = keys / 2;
            s.mix = Mix::Keyed {
                keys,
                read_pct,
                buckets: (buckets / div).max(2).next_power_of_two(),
            };
        }
        s
    }

    /// The operations that build the initial contents: values `0..prefill` for
    /// queues and stacks, the even keys for keyed structures (so half of the
    /// Zipfian head is present and every operation exercises both outcomes).
    pub fn prefill_ops(&self) -> impl Iterator<Item = StructOp> + '_ {
        (0..self.prefill).map(move |i| match self.mix {
            Mix::Pairs => StructOp::Push(i),
            Mix::Keyed { .. } => StructOp::Insert(2 * i),
        })
    }

    /// The seeded operation stream of client `pid`: the first `n` operations.
    /// Every construction, repetition and pass replays the same stream.
    pub fn stream(&self, seed: u64, pid: usize, n: u64) -> Vec<StructOp> {
        match self.mix {
            Mix::Pairs => {
                // Values above every prefill value and disjoint between clients.
                let base = (pid as u64 + 1) << 40;
                (0..n)
                    .map(|i| {
                        if i % 2 == 0 {
                            StructOp::Push(base + i / 2)
                        } else {
                            StructOp::Pop
                        }
                    })
                    .collect()
            }
            Mix::Keyed { keys, read_pct, .. } => {
                let zipf = Zipfian::new(keys, THETA);
                // Hash the run seed so client 1 of seed s is not client 0 of s+1.
                let mut gen =
                    RequestGen::new(hash_key(seed).wrapping_add(pid as u64), zipf, read_pct);
                (0..n).map(|_| gen.next_op()).collect()
            }
        }
    }
}

/// A deliberately wrong model, to show the checker fails in the right
/// direction (`--break-model`, used by the smoke suite only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelFault {
    /// The model expects every removed value to be one larger than it is.
    PopOffByOne,
    /// The model forgets the first successful insert.
    DroppedInsert,
}

impl ModelFault {
    pub fn parse(s: &str) -> Option<ModelFault> {
        match s {
            "pop-off-by-one" => Some(ModelFault::PopOffByOne),
            "dropped-insert" => Some(ModelFault::DroppedInsert),
            _ => None,
        }
    }
}

enum Contents {
    Fifo(VecDeque<u64>),
    Lifo(Vec<u64>),
    Keys(HashSet<u64>),
}

/// The sequential reference every return value is checked against.
pub struct Model {
    contents: Contents,
    fault: Option<ModelFault>,
    dropped: bool,
}

impl Model {
    /// The model of `spec`'s structure holding the prefill.
    pub fn new(spec: &Spec, fault: Option<ModelFault>) -> Model {
        let mut m = Model {
            contents: match spec.shape {
                Shape::Queue => Contents::Fifo(VecDeque::new()),
                Shape::Stack => Contents::Lifo(Vec::new()),
                Shape::Map | Shape::Set => Contents::Keys(HashSet::new()),
            },
            fault: None,
            dropped: false,
        };
        for op in spec.prefill_ops() {
            m.apply(op);
        }
        m.fault = fault;
        m
    }

    /// Apply `op` to the model and return what a correct structure returns
    /// (the `StructHandle::apply` encoding).
    pub fn apply(&mut self, op: StructOp) -> Option<u64> {
        let off_by_one = self.fault == Some(ModelFault::PopOffByOne);
        match (&mut self.contents, op) {
            (Contents::Fifo(q), StructOp::Push(v)) => {
                q.push_back(v);
                None
            }
            (Contents::Fifo(q), StructOp::Pop) => q.pop_front().map(|v| v + off_by_one as u64),
            (Contents::Lifo(s), StructOp::Push(v)) => {
                s.push(v);
                None
            }
            (Contents::Lifo(s), StructOp::Pop) => s.pop().map(|v| v + off_by_one as u64),
            (Contents::Keys(set), StructOp::Insert(k)) => {
                if self.fault == Some(ModelFault::DroppedInsert)
                    && !self.dropped
                    && !set.contains(&k)
                {
                    self.dropped = true;
                    return Some(1);
                }
                Some(set.insert(k) as u64)
            }
            (Contents::Keys(set), StructOp::Remove(k)) => Some(set.remove(&k) as u64),
            (Contents::Keys(set), StructOp::Contains(k)) => Some(set.contains(&k) as u64),
            (_, op) => panic!("operation {op:?} does not fit the workload's shape"),
        }
    }

    /// The contents in the order a quiescent drain reports them: FIFO for
    /// queues, top-down for stacks, ascending keys for sets and maps.
    pub fn drained(&self) -> Vec<u64> {
        match &self.contents {
            Contents::Fifo(q) => q.iter().copied().collect(),
            Contents::Lifo(s) => s.iter().rev().copied().collect(),
            Contents::Keys(k) => {
                let mut v: Vec<u64> = k.iter().copied().collect();
                v.sort_unstable();
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let spec = find("map_write_heavy").unwrap().shrunk(64);
        assert_eq!(spec.stream(42, 0, 200), spec.stream(42, 0, 200));
        assert_ne!(spec.stream(42, 0, 200), spec.stream(7, 0, 200));
        assert_ne!(spec.stream(42, 0, 200), spec.stream(42, 1, 200));
        // Client 1 of one seed must not replay client 0 of the next.
        assert_ne!(spec.stream(42, 1, 200), spec.stream(43, 0, 200));
    }

    #[test]
    fn models_follow_their_shapes() {
        let q = find("queue_pairs").unwrap().shrunk(1000);
        let mut m = Model::new(&q, None);
        assert_eq!(m.drained().len() as u64, q.prefill);
        assert_eq!(m.apply(StructOp::Pop), Some(0));
        let s = find("stack_pairs").unwrap().shrunk(100);
        let mut m = Model::new(&s, None);
        assert_eq!(m.apply(StructOp::Pop), Some(s.prefill - 1));
        let k = find("service_paced").unwrap().shrunk(64);
        let mut m = Model::new(&k, None);
        assert_eq!(m.apply(StructOp::Contains(2)), Some(1));
        assert_eq!(m.apply(StructOp::Insert(3)), Some(1));
        assert_eq!(m.apply(StructOp::Remove(3)), Some(1));
        assert_eq!(m.apply(StructOp::Contains(3)), Some(0));
        assert!(m.drained().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn broken_models_disagree_with_correct_ones() {
        let s = find("stack_pairs").unwrap().shrunk(100);
        let (mut good, mut bad) = (
            Model::new(&s, None),
            Model::new(&s, Some(ModelFault::PopOffByOne)),
        );
        assert_ne!(good.apply(StructOp::Pop), bad.apply(StructOp::Pop));
        let k = find("map_read_heavy").unwrap().shrunk(1024);
        let (mut good, mut bad) = (
            Model::new(&k, None),
            Model::new(&k, Some(ModelFault::DroppedInsert)),
        );
        assert_eq!(
            good.apply(StructOp::Insert(1)),
            bad.apply(StructOp::Insert(1))
        );
        assert_ne!(
            good.apply(StructOp::Contains(1)),
            bad.apply(StructOp::Contains(1))
        );
    }
}
