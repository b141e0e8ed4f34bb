//! Algorithm 8: M *writable* CAS objects from O(M + P²) plain CAS objects.
//!
//! §8 of the paper: most shared writes can simply be replaced by a CAS, but a write
//! that races with a CAS on the same location cannot (the write must win even if its
//! expected value is stale). The fix is a level of indirection — the value of
//! logical object `j` lives in `B[Ptr[j]]`, reads and CASes dereference `Ptr[j]`,
//! and a write installs its value in a *fresh* location of `B` and swings `Ptr[j]`
//! to it. The writer and the CASer therefore never touch the same low-level word,
//! eliminating the race, and every remaining update is a CAS which the recoverable
//! CAS machinery can handle.
//!
//! Reclaiming locations of `B` uses the announcement (hazard-pointer-like) scheme of
//! Aghazadeh, Golab and Woelfel: `getObjectIdx` announces which logical object the
//! process is about to access (with a `help` bit so that sluggish announcements are
//! completed by others); a writer recycles the location it just unlinked only after
//! scanning the announcements and skipping any location that is still protected.
//! Each process owns a disjoint pool of spare locations, so a `Write` finds a free
//! location in amortised constant time (the scan is O(P) and happens at most once
//! per Θ(P) writes).

use pmem::{PAddr, PThread, LINE_WORDS};

use crate::SHARD_PIDS;

/// The shared, persistent part of the construction: the backing array `B`, the
/// per-object pointers `Ptr`, the per-process announcements `A` and the per-location
/// ownership/announced `status` array.
#[derive(Clone, Copy, Debug)]
pub struct WritableCasArray {
    b_base: PAddr,
    ptr_base: PAddr,
    ann_base: PAddr,
    status_base: PAddr,
    /// Number of logical writable CAS objects.
    m: usize,
    /// Number of processes.
    p: usize,
    /// Spare locations owned by each process.
    per_proc: usize,
    /// Shared-cache flush discipline: flush (and fence) a freshly written backing
    /// location before the `Ptr[j]` CAS publishes it, so a full-system crash can
    /// never leave a durable pointer to a value that rolled back to garbage —
    /// the same publish-last rule as
    /// [`RcasSpace::with_durability`](crate::RcasSpace::with_durability).
    durable: bool,
}

// --- packing helpers --------------------------------------------------------

fn pack_ann(index: u64, seq: u64, help: bool) -> u64 {
    debug_assert!(index < (1 << 32));
    debug_assert!(seq < (1 << 31));
    (index << 32) | (seq << 1) | help as u64
}

fn unpack_ann(word: u64) -> (u64, u64, bool) {
    (word >> 32, (word >> 1) & ((1 << 31) - 1), word & 1 == 1)
}

fn pack_status(pid: usize, announced: bool) -> u64 {
    ((pid as u64) << 1) | announced as u64
}

fn unpack_status(word: u64) -> (usize, bool) {
    ((word >> 1) as usize, word & 1 == 1)
}

impl WritableCasArray {
    /// Build `m` writable CAS objects (all initialised to 0) for `p` processes.
    pub fn new(thread: &PThread<'_>, m: usize, p: usize) -> WritableCasArray {
        assert!(m >= 1 && p >= 1);
        // 2P + 2 spare locations per process: enough that the announcement scan can
        // never pin every retired location at once (see module docs).
        let per_proc = 2 * p + 2;
        let b_len = m + p * per_proc;
        // The announcement array is the construction's hottest cross-process
        // state: every read/CAS/write announces. One cache line per pid —
        // grouped into the same per-pid-group shard blocks as `RcasSpace`
        // (padding line between groups) — so announcing never false-shares
        // with another process's slot and the reclamation scan walks whole
        // shard lines at a time.
        let ann_groups = p.div_ceil(SHARD_PIDS) as u64;
        let ann_stride = (SHARD_PIDS as u64 + 1) * LINE_WORDS;
        let arr = WritableCasArray {
            b_base: thread.alloc(b_len as u64),
            ptr_base: thread.alloc(m as u64),
            ann_base: thread.alloc_aligned(ann_groups * ann_stride),
            status_base: thread.alloc(b_len as u64),
            m,
            p,
            per_proc,
            durable: false,
        };
        // Ptr[j] = j: object j initially lives in B[j].
        for j in 0..m {
            thread.write(arr.ptr_addr(j), j as u64);
        }
        arr
    }

    /// Enable (or disable) the durable-write flush discipline: each `Write`
    /// flushes + fences the fresh backing location before swinging `Ptr[j]` to
    /// it. Only the *published value* is covered — the announcement/status
    /// reclamation metadata is volatile bookkeeping that is rebuilt on restart.
    pub fn with_durability(mut self, durable: bool) -> WritableCasArray {
        self.durable = durable;
        self
    }

    /// Whether the durable-write flush discipline is enabled.
    pub fn durable(&self) -> bool {
        self.durable
    }

    /// Number of logical objects.
    pub fn len(&self) -> usize {
        self.m
    }

    /// True if the array holds no logical objects (never the case after `new`).
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    fn b_addr(&self, idx: u64) -> PAddr {
        debug_assert!((idx as usize) < self.m + self.p * self.per_proc);
        self.b_base.offset(idx)
    }

    fn ptr_addr(&self, j: usize) -> PAddr {
        debug_assert!(j < self.m);
        self.ptr_base.offset(j as u64)
    }

    fn ann_addr(&self, pid: usize) -> PAddr {
        debug_assert!(pid < self.p);
        let group = (pid / SHARD_PIDS) as u64;
        let slot = (pid % SHARD_PIDS) as u64;
        let stride = (SHARD_PIDS as u64 + 1) * LINE_WORDS;
        self.ann_base.offset(group * stride + slot * LINE_WORDS)
    }

    fn status_addr(&self, idx: u64) -> PAddr {
        self.status_base.offset(idx)
    }

    /// Directly set the initial value of object `j` (before concurrent use begins).
    pub fn init_value(&self, thread: &PThread<'_>, j: usize, value: u64) {
        let idx = thread.read(self.ptr_addr(j));
        thread.write(self.b_addr(idx), value);
    }

    /// Create the per-process volatile handle for the calling thread.
    pub fn handle(&self, thread: &PThread<'_>) -> WritableCasHandle {
        let pid = thread.pid();
        assert!(pid < self.p, "pid {pid} out of range for this WritableCasArray");
        let first = (self.m + pid * self.per_proc) as u64;
        let free_ptr = first;
        let free_list = ((first + 1)..(first + self.per_proc as u64)).collect();
        WritableCasHandle {
            arr: *self,
            free_ptr,
            free_list,
            retired_list: Vec::new(),
        }
    }
}

/// The per-process, volatile part of the construction: the spare-location pool.
///
/// A handle must only be used by the process (thread) that created it, and only one
/// handle per process may exist at a time — otherwise two writers would share the
/// same spare-location pool. The handle is intentionally not `Clone`.
#[derive(Debug)]
pub struct WritableCasHandle {
    arr: WritableCasArray,
    free_ptr: u64,
    free_list: Vec<u64>,
    retired_list: Vec<u64>,
}

impl WritableCasHandle {
    /// `getObjectIdx(j)`: announce the access (so the location cannot be recycled
    /// under us) and resolve the logical object to its current backing location.
    fn get_object_idx(&self, thread: &PThread<'_>, j: usize) -> u64 {
        let arr = &self.arr;
        let me = thread.pid();
        let ann = arr.ann_addr(me);
        let current = thread.read(ann);
        let (_, seq, _) = unpack_ann(current);
        let new_seq = (seq + 1) & ((1 << 31) - 1);
        // "This CAS cannot fail": our help bit is currently 0, so no helper touches
        // our slot; only we write it.
        let announced = pack_ann(j as u64, new_seq, true);
        let ok = thread.cas(ann, current, announced);
        debug_assert!(ok, "announcement CAS lost a race it cannot lose");
        let ptr = thread.read(arr.ptr_addr(j));
        // Try to complete our own announcement; a helper may already have done so.
        let _ = thread.cas(ann, announced, pack_ann(ptr, new_seq, false));
        let (index, _, _) = unpack_ann(thread.read(ann));
        index
    }

    /// `read(j)`: the current value of logical object `j`.
    pub fn read(&self, thread: &PThread<'_>, j: usize) -> u64 {
        let idx = self.get_object_idx(thread, j);
        thread.read(self.arr.b_addr(idx))
    }

    /// `CAS(j, old, new)`: compare-and-swap on logical object `j`.
    pub fn cas(&self, thread: &PThread<'_>, j: usize, old: u64, new: u64) -> bool {
        let idx = self.get_object_idx(thread, j);
        thread.cas(self.arr.b_addr(idx), old, new)
    }

    /// `Write(j, value)`: unconditionally set logical object `j` to `value`. The
    /// write is linearized at the successful swing of `Ptr[j]`, or immediately
    /// before the competing write that beat it (§8).
    pub fn write(&mut self, thread: &PThread<'_>, j: usize, value: u64) {
        let arr = self.arr;
        let new_ptr = self.free_ptr;
        // Nobody references B[new_ptr]: we own it and it is not linked from Ptr.
        thread.write(arr.b_addr(new_ptr), value);
        if arr.durable {
            // The value must be durable before the pointer swing can make it
            // reachable (publish-last; see `with_durability`).
            thread.persist(arr.b_addr(new_ptr));
        }
        let old_ptr = thread.read(arr.ptr_addr(j));
        if thread.cas(arr.ptr_addr(j), old_ptr, new_ptr) {
            self.free_ptr = self.recycle(thread, old_ptr);
        }
        // If the CAS failed, another write swung the pointer first; our value is
        // linearized immediately before it and B[new_ptr] stays ours for next time.
    }

    /// `recycle(ptr)`: retire a location we just unlinked and return a location that
    /// is safe to reuse for the next write.
    fn recycle(&mut self, thread: &PThread<'_>, ptr: u64) -> u64 {
        let arr = self.arr;
        let me = thread.pid();
        self.retired_list.push(ptr);
        // Take ownership of the retired location ("cannot fail": single writer).
        let cur = thread.read(arr.status_addr(ptr));
        let ok = thread.cas(arr.status_addr(ptr), cur, pack_status(me, false));
        debug_assert!(ok);

        if self.free_list.is_empty() {
            let mut ann_list: Vec<u64> = Vec::with_capacity(arr.p);
            // Walk the announcement array shard by shard, own group first:
            // every pid is still visited (any process can protect one of our
            // locations, so correctness needs the full scan), but the memory
            // order follows the shard blocks — each group's lines are read
            // together, and the scan's hot start is the group the scanner
            // already shares lines-of-interest with.
            let groups = arr.p.div_ceil(SHARD_PIDS);
            let my_group = me / SHARD_PIDS;
            let group_ordered = (0..groups)
                .map(|gi| (my_group + gi) % groups)
                .flat_map(|g| g * SHARD_PIDS..((g + 1) * SHARD_PIDS).min(arr.p));
            for q in group_ordered {
                // Help slow announcements complete, then record which of our
                // locations are protected.
                let a_word = thread.read(arr.ann_addr(q));
                let (index, seq, help) = unpack_ann(a_word);
                if help {
                    let ptr_now = thread.read(arr.ptr_addr(index as usize));
                    let _ = thread.cas(arr.ann_addr(q), a_word, pack_ann(ptr_now, seq, false));
                }
                let a_word = thread.read(arr.ann_addr(q));
                let (index, _, help) = unpack_ann(a_word);
                if !help {
                    let (owner, _) = unpack_status(thread.read(arr.status_addr(index)));
                    if owner == me {
                        ann_list.push(index);
                        let cur = thread.read(arr.status_addr(index));
                        let _ = thread.cas(arr.status_addr(index), cur, pack_status(me, true));
                    }
                }
            }
            let mut still_retired = Vec::with_capacity(self.retired_list.len());
            for &r in &self.retired_list {
                let (_, announced) = unpack_status(thread.read(arr.status_addr(r)));
                if announced {
                    still_retired.push(r);
                } else {
                    self.free_list.push(r);
                }
            }
            self.retired_list = still_retired;
            for &a in &ann_list {
                let cur = thread.read(arr.status_addr(a));
                let _ = thread.cas(arr.status_addr(a), cur, pack_status(me, false));
            }
        }
        self.free_list
            .pop()
            .expect("writable-CAS spare pool exhausted: a location leaked or a handle was shared across threads")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PMem;

    #[test]
    fn single_thread_read_write_cas() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let arr = WritableCasArray::new(&t, 4, 1);
        let mut h = arr.handle(&t);
        assert_eq!(h.read(&t, 0), 0);
        h.write(&t, 0, 10);
        assert_eq!(h.read(&t, 0), 10);
        assert!(h.cas(&t, 0, 10, 11));
        assert!(!h.cas(&t, 0, 10, 12));
        assert_eq!(h.read(&t, 0), 11);
        // Other objects are independent.
        assert_eq!(h.read(&t, 3), 0);
        h.write(&t, 3, 99);
        assert_eq!(h.read(&t, 3), 99);
        assert_eq!(h.read(&t, 0), 11);
    }

    #[test]
    fn many_writes_force_recycling_without_exhaustion() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let arr = WritableCasArray::new(&t, 2, 1);
        let mut h = arr.handle(&t);
        // Far more writes than the spare pool size: recycling must kick in.
        for i in 0..10_000u64 {
            h.write(&t, (i % 2) as usize, i);
            assert_eq!(h.read(&t, (i % 2) as usize), i);
        }
        assert_eq!(h.read(&t, 0), 9_998);
        assert_eq!(h.read(&t, 1), 9_999);
    }

    #[test]
    fn init_value_sets_starting_state() {
        let mem = PMem::with_threads(2);
        let t = mem.thread(0);
        let arr = WritableCasArray::new(&t, 3, 2);
        arr.init_value(&t, 1, 55);
        let h = arr.handle(&t);
        assert_eq!(h.read(&t, 1), 55);
        assert_eq!(h.read(&t, 0), 0);
    }

    #[test]
    fn readers_never_observe_recycled_garbage() {
        // A single writer stores strictly increasing values; concurrent readers must
        // only ever see monotonically non-decreasing values. Any use-after-recycle
        // of a B location would surface as a value going backwards (or a wild value).
        let mem = PMem::with_threads(4);
        let t0 = mem.thread(0);
        let arr = WritableCasArray::new(&t0, 1, 4);
        const WRITES: u64 = 20_000;
        std::thread::scope(|s| {
            {
                let mem = &mem;
                let arr = &arr;
                s.spawn(move || {
                    let t = mem.thread(0);
                    let mut h = arr.handle(&t);
                    for i in 1..=WRITES {
                        h.write(&t, 0, i);
                    }
                });
            }
            for pid in 1..4 {
                let mem = &mem;
                let arr = &arr;
                s.spawn(move || {
                    let t = mem.thread(pid);
                    let h = arr.handle(&t);
                    let mut last = 0;
                    for _ in 0..20_000 {
                        let v = h.read(&t, 0);
                        assert!(v <= WRITES, "read a value that was never written: {v}");
                        assert!(v >= last, "monotonic writer but read went backwards: {last} -> {v}");
                        last = v;
                    }
                });
            }
        });
        let t = mem.thread(0);
        let h = arr.handle(&t);
        assert_eq!(h.read(&t, 0), WRITES);
    }

    #[test]
    fn concurrent_cas_counter_with_interfering_writes_keeps_register_semantics() {
        // Threads 1..3 increment object 0 via CAS; thread 0 occasionally resets it
        // to a large base value with Write. Whatever interleaving happens, the final
        // value must be explainable: at least the last reset base, at most base plus
        // all increments.
        let mem = PMem::with_threads(4);
        let t0 = mem.thread(0);
        let arr = WritableCasArray::new(&t0, 1, 4);
        const INCS_PER_THREAD: u64 = 3_000;
        const BASE: u64 = 1_000_000;
        std::thread::scope(|s| {
            {
                let mem = &mem;
                let arr = &arr;
                s.spawn(move || {
                    let t = mem.thread(0);
                    let mut h = arr.handle(&t);
                    for k in 1..=5u64 {
                        h.write(&t, 0, k * BASE);
                        std::thread::yield_now();
                    }
                });
            }
            for pid in 1..4 {
                let mem = &mem;
                let arr = &arr;
                s.spawn(move || {
                    let t = mem.thread(pid);
                    let h = arr.handle(&t);
                    for _ in 0..INCS_PER_THREAD {
                        loop {
                            let v = h.read(&t, 0);
                            if h.cas(&t, 0, v, v + 1) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        let t = mem.thread(0);
        let h = arr.handle(&t);
        let v = h.read(&t, 0);
        assert!(v >= 5 * BASE, "final value lost the last write: {v}");
        assert!(
            v <= 5 * BASE + 3 * INCS_PER_THREAD,
            "final value has phantom increments: {v}"
        );
    }

    #[test]
    fn durable_write_survives_full_system_crash_where_relaxed_does_not() {
        use pmem::{MemConfig, Mode};
        // Publish-last in action: a durable Write persists the fresh backing
        // location before swinging Ptr[j], so once the caller persists the
        // pointer word the value survives a power failure; the relaxed mode
        // leaves the backing location to roll back to garbage under the same
        // sequence. The happens-before analyzer confirms the discipline at
        // instruction level: the post-crash read of the lost value is flagged.
        let run = |durable: bool| -> (u64, u64) {
            let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
            mem.hb().arm();
            let t = mem.thread(0);
            // m = 8 spreads B and Ptr across distinct cache lines; with a tiny
            // array they pack onto one line and the pointer persist below would
            // accidentally cover the value, hiding the difference under test.
            let arr = WritableCasArray::new(&t, 8, 1).with_durability(durable);
            mem.persist_everything();
            let mut h = arr.handle(&t);
            h.write(&t, 0, 77);
            let idx = t.read(arr.ptr_addr(0));
            assert_ne!(
                arr.b_addr(idx).line_base(),
                arr.ptr_addr(0).line_base(),
                "test geometry: the value and the pointer must not share a line"
            );
            // The pointer swing's own durability is the caller's post-publish
            // responsibility, as for every CAS target in this crate.
            t.persist(arr.ptr_addr(0));
            mem.crash_all();
            let idx = t.read(arr.ptr_addr(0));
            (t.read(arr.b_addr(idx)), mem.hb().flags())
        };
        assert_eq!(run(true), (77, 0), "durable write + silent analyzer");
        let (value, flags) = run(false);
        assert_eq!(value, 0, "relaxed mode rolls the published value back");
        assert!(flags > 0, "the analyzer must flag the read of the lost value");
    }

    #[test]
    #[should_panic]
    fn out_of_range_pid_handle_panics() {
        let mem = PMem::with_threads(2);
        let t = mem.thread(1);
        let arr = WritableCasArray::new(&t, 1, 1); // built for 1 process
        let _ = arr.handle(&t); // pid 1 out of range
    }
}
