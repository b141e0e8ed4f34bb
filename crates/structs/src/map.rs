//! The detectable hash map: bucketed Harris–Michael chains behind a
//! recoverable-CAS-published **bucket-array generation**, with crash-safe
//! resize. This module holds the protocol core shared by all three
//! constructions, the plain/Izraelevitz [`DetMap`], and the detectable
//! [`CapsuleMap`] — generic over its simulator, with [`GeneralDetMap`] (§6)
//! and [`NormalizedDetMap`] (§7) as its instances — whose operations run the
//! same routines through the [`SharedMem`] face of their simulator.
//!
//! ## Layout
//!
//! The map is one *directory* word pointing at the current generation. A
//! generation is a contiguous header:
//!
//! ```text
//! word 0        : nbuckets (plain, immutable)
//! word 1        : next     (formatted; base of the successor generation, 0 = none)
//! word 2        : cursor   (formatted; lowest bucket index not yet known-migrated)
//! word 3 + b        : head[b]  (formatted; bucket chain head, map encoding)
//! word 3 + nb + b   : state[b] (formatted; LIVE = 0, DONE = 1)
//! ```
//!
//! Chains reuse the two-word nodes of [`node`](crate::node) but with a
//! **two-bit** mark in the next word: bit 0 is the logical-delete tombstone
//! (`DEL`), bit 1 the migration freeze (`FRZ`):
//!
//! ```text
//! next = (successor_word_index << 2) | marks
//! ```
//!
//! ## The resize protocol
//!
//! A grow publishes a half-initialised successor into the old generation's
//! `next` word (helping CAS — the loser's allocation leaks harmlessly). From
//! then on every *update* routes through [`route_update`]: it migrates the
//! key's own old bucket if needed, helps advance the migration cursor a
//! bounded amount, and operates in the new generation. Migrating a bucket is
//! a **freeze pass** (mark every clean next word `FRZ`, in path order — an
//! insert needs an unmarked predecessor word, so the walk can never miss a
//! node) followed by a **copy pass** over the now-immutable chain
//! ([`copy_insert`] is an idempotent insert-if-never-present), then a `DONE`
//! CAS on the bucket's state. When the cursor reaches `nbuckets` every bucket
//! is `DONE` and the directory is promoted.
//!
//! ## The two invariants everything rests on
//!
//! 1. **Marked words are never CASed.** Inserts target clean predecessor
//!    words; a remove marks a clean word; freeze skips tombstones. This makes
//!    marked words final, which is what lets the freeze walk and the copy
//!    pass treat the chain as stable, and every migration CAS be
//!    repetition-safe.
//! 2. **Tombstones are never unlinked.** A remove is a single marking CAS;
//!    dead nodes are purged only by the next resize's copy pass (which copies
//!    live nodes only — resize doubles as garbage collection). Keeping
//!    tombstones reachable is what makes [`copy_insert`] idempotent across
//!    laggard migrators: a copier that was suspended across a completed
//!    migration *and* a user remove still finds the tombstone in the
//!    full-chain scan it makes after taking its insert window, and stands
//!    down, so a removed key can never be resurrected by a late copy.
//!
//! Exactly-once recovery therefore needs to protect only two CASes per
//! operation family — the insert's link and the remove's mark, the
//! linearization points — which the detectable variants run through the
//! recoverable CAS. Everything the migration does (freeze marks, copy
//! inserts, `next`/cursor/state/directory installs) is helping-class and safe
//! to repeat from any crash point.
//!
//! ## The detectable operations
//!
//! [`CapsuleMap`]'s operations are declared once, in normalized form: the
//! **generator** routes (performing any migration the route owes) and searches
//! the bucket; the single linearizing CAS — the insert's link, the remove's
//! tombstone mark — is the recoverable one; the **wrap-up** reports, a
//! successful insert's also running the resize trigger (helping, so
//! repetition-safe) on the chain measure riding the CAS's `aux` word.
//! `contains` proposes no CAS and answers from a read-only routed traversal.
//! Under §6 the frame keeps the insert's whole CAS and the remove's target and
//! expected encoding; a crash between the two capsules replays against that
//! *persisted window*, and if a resize froze its bucket meanwhile the
//! recoverable CAS simply fails (invariant 1) and the retry re-routes.

use capsules::{BoundaryStyle, CapsuleRuntime};
use delayfree::{
    CasDesc, CasFrame, CasList, CasReadSimulator, NormalizedCtx, NormalizedOp, NormalizedSimulator,
    SharedMem, Simulator, WrapUp,
};
use pmem::{PAddr, PThread, LINE_WORDS};
use rcas::{RcasLayout, RcasSpace};

use crate::api::StructOp::{Contains, Insert, Remove};
use crate::api::{
    adaptive_builders, apply_keyed, bool_ret, capsule_handles, general_simulator,
    normalized_simulator, single_cas_outcome, Capsuled, Drain, StructHandle, StructOp,
};
use crate::node::{next_addr, value_addr, NODE_WORDS};

/// The recoverable-CAS packing used by the detectable map variants: the
/// two-bit mark pushes encodings to `index << 2`, and the million-key
/// workload outruns the default 26-bit sequence field, so the map trades
/// value width for a `LONG_RUN`-style 28-bit sequence space (268M capsules
/// per process) — see the rcas satellite in DESIGN.md §12.
pub const MAP_RCAS_LAYOUT: RcasLayout = RcasLayout {
    value_bits: 30,
    pid_bits: 6,
    seq_bits: 28,
};

/// Tombstone mark: the node is logically deleted (bit 0 of the next word).
pub(crate) const DEL: u64 = 1;
/// Freeze mark: the word belongs to a bucket under migration (bit 1).
const FRZ: u64 = 2;
/// Both mark bits.
const MBITS: u64 = 3;

// Generation header word offsets.
const G_NBUCKETS: u64 = 0;
const G_NEXT: u64 = 1;
const G_CURSOR: u64 = 2;
/// First bucket-head word; states follow at `G_HEADER + nbuckets`.
const G_HEADER: u64 = 3;

const STATE_LIVE: u64 = 0;
const STATE_DONE: u64 = 1;

/// How many cursor buckets one routing pass helps migrate. Spreads the
/// untouched-bucket migration across operations (no per-op O(nbuckets) scan)
/// while keeping promotion detection O(1) once the cursor reaches the end.
const CURSOR_HELP: u64 = 8;

/// Encode a successor address plus mark bits into a map next word.
#[inline]
pub(crate) fn menc(succ: PAddr, marks: u64) -> u64 {
    (succ.to_raw() << 2) | marks
}

/// The successor address of a map next word.
#[inline]
fn menc_addr(word: u64) -> PAddr {
    PAddr::from_raw(word >> 2)
}

/// splitmix64 finalizer — the bucket mix. Public so workload builders can
/// pick deliberately colliding keys for resize-window crash rows.
pub fn map_mix64(k: u64) -> u64 {
    let mut z = k.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The bucket index of key `k` in a generation of `nbuckets` (a power of two).
pub fn map_bucket_of(k: u64, nbuckets: u64) -> u64 {
    map_mix64(k) & (nbuckets - 1)
}

/// Sizing knobs shared by every map variant.
#[derive(Clone, Copy, Debug)]
pub struct MapConfig {
    /// Buckets in the first generation (must be a power of two).
    pub initial_buckets: u64,
    /// A successful insert that walked a chain longer than this triggers a
    /// resize. The *total* chain (tombstones included) starts one — resize is
    /// the only tombstone purge — but only a *live* chain this long doubles
    /// the bucket count (see [`maybe_grow`](crate::map)).
    pub max_chain: usize,
}

impl MapConfig {
    /// Validated constructor.
    pub fn new(initial_buckets: u64, max_chain: usize) -> MapConfig {
        assert!(initial_buckets >= 1 && initial_buckets.is_power_of_two());
        assert!(max_chain >= 1);
        MapConfig {
            initial_buckets,
            max_chain,
        }
    }

    /// The sweep configuration: 2 buckets, resize after a 3-chain — small
    /// enough that a handful of scripted operations crosses a resize window.
    pub fn tiny() -> MapConfig {
        MapConfig::new(2, 3)
    }
}

impl Default for MapConfig {
    fn default() -> MapConfig {
        MapConfig::new(8, 8)
    }
}

fn gen_head(g: PAddr, b: u64) -> PAddr {
    g.offset(G_HEADER + b)
}

fn gen_state(g: PAddr, nbuckets: u64, b: u64) -> PAddr {
    g.offset(G_HEADER + nbuckets + b)
}

/// Allocate and format a generation of `nbuckets`, fully persisted before the
/// caller may publish it.
pub(crate) fn alloc_gen<M: SharedMem>(m: &M, nbuckets: u64) -> PAddr {
    let words = G_HEADER + 2 * nbuckets;
    let g = m.alloc(words);
    m.write_plain(g.offset(G_NBUCKETS), nbuckets);
    m.init_word(g.offset(G_NEXT), 0);
    m.init_word(g.offset(G_CURSOR), 0);
    for b in 0..nbuckets {
        m.init_word(gen_head(g, b), 0);
        m.init_word(gen_state(g, nbuckets, b), STATE_LIVE);
    }
    let last = g.offset(words - 1).line_base();
    let mut line = g.line_base();
    loop {
        m.flush_line(line);
        if line == last {
            break;
        }
        line = line.offset(LINE_WORDS);
    }
    m.fence();
    g
}

/// A search window in map encoding: the clean word an insert/mark CASes, its
/// expected encoding, and the first *live* node with `key >= k`.
pub(crate) struct MapWindow {
    pub pred_addr: PAddr,
    pub pred_enc: u64,
    /// First live node with `key >= k` (null at the end of the chain).
    pub curr: PAddr,
    /// `curr`'s clean next encoding at observation time (0 when curr is null).
    pub curr_enc: u64,
    pub found: bool,
}

/// Outcome of [`find_in`].
enum FindRes {
    /// A usable window.
    Win(MapWindow),
    /// The chain is being frozen by a migration: re-route and retry.
    Frozen,
}

/// Chain measure a search took: `total` counts every visited node (tombstones
/// included — the purge trigger), `live` only unmarked ones (the doubling
/// trigger). See [`maybe_grow`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ChainLen {
    pub total: usize,
    pub live: usize,
}

impl ChainLen {
    /// Pack into one persistable word (both components fit 32 bits by far).
    pub fn pack(self) -> u64 {
        ((self.live as u64) << 32) | self.total as u64
    }

    /// Inverse of [`pack`](Self::pack).
    pub fn unpack(word: u64) -> ChainLen {
        ChainLen {
            total: (word & 0xffff_ffff) as usize,
            live: (word >> 32) as usize,
        }
    }

    /// The chain as the inserter leaves it: one more live node.
    pub fn plus_inserted(self) -> ChainLen {
        ChainLen {
            total: self.total + 1,
            live: self.live + 1,
        }
    }
}

/// Tombstone-skipping search: the window's predecessor only ever advances to
/// *live* nodes (tombstones are walked over, never unlinked — invariant 2),
/// so the CAS target is always a clean word and an insert lands in front of
/// whatever tombstone run follows the predecessor. The live-key subsequence
/// stays sorted; the returned [`ChainLen`] is the resize trigger's measure.
fn find_in<M: SharedMem>(m: &M, head: PAddr, k: u64) -> (FindRes, ChainLen) {
    let mut len = ChainLen::default();
    let mut pred_addr = head;
    let mut pred_enc = m.read(head);
    if pred_enc & FRZ != 0 {
        return (FindRes::Frozen, len);
    }
    let mut node = menc_addr(pred_enc);
    loop {
        if node.is_null() {
            let w = MapWindow {
                pred_addr,
                pred_enc,
                curr: PAddr::NULL,
                curr_enc: 0,
                found: false,
            };
            return (FindRes::Win(w), len);
        }
        len.total += 1;
        let ne = m.read(next_addr(node));
        if ne & FRZ != 0 {
            return (FindRes::Frozen, len);
        }
        if ne & DEL != 0 {
            // Tombstone: walk over it (its key proves nothing about order).
            node = menc_addr(ne);
            continue;
        }
        len.live += 1;
        let ck = m.read_plain(value_addr(node));
        if ck >= k {
            let w = MapWindow {
                pred_addr,
                pred_enc,
                curr: node,
                curr_enc: ne,
                found: ck == k,
            };
            return (FindRes::Win(w), len);
        }
        pred_addr = next_addr(node);
        pred_enc = ne;
        node = menc_addr(ne);
    }
}

/// Membership walk from a bucket head. Freeze marks are ignored — a frozen
/// live node is still a member (the old bucket stays the authority for reads
/// until its state turns `DONE`, and the read-only route below guarantees
/// the freeze happened inside the operation's interval).
fn contains_at<M: SharedMem>(m: &M, head: PAddr, k: u64) -> bool {
    let mut node = menc_addr(m.read(head));
    while !node.is_null() {
        let ne = m.read(next_addr(node));
        if ne & DEL == 0 {
            let ck = m.read_plain(value_addr(node));
            if ck == k {
                return true;
            }
            if ck > k {
                return false;
            }
        }
        node = menc_addr(ne);
    }
    false
}

/// Idempotent insert-if-never-present into the *new* generation, the copy
/// pass's workhorse. It takes its insert window first, then scans the full
/// chain (no sorted early exit — tombstones may sit out of live order) and
/// treats any node with key `k`, live or tombstone, as "the obligation is
/// settled": either the key was already copied, or a user operation in the
/// new generation superseded the copy. The order is what makes a late copy
/// safe: the window's predecessor is the last live key below `k`, so any copy
/// or insert of `k` after the window was taken changes that word and fails
/// the CAS, while one before it is in the chain the scan walks (a scan taken
/// *before* the window could miss a `k` copied and removed while the copier
/// stalled, and the CAS would put a live `k` back). A freeze mark in the
/// target means the *next* resize already promoted — then every old bucket
/// is `DONE` and `k`'s fate was settled by whoever got there first, so the
/// copier stands down rather than spin on frozen words.
fn copy_insert<M: SharedMem>(m: &M, n: PAddr, n_nbuckets: u64, k: u64) {
    let head = gen_head(n, map_bucket_of(k, n_nbuckets));
    loop {
        let w = match find_in(m, head, k) {
            (FindRes::Frozen, _) => return,
            (FindRes::Win(w), _) if w.found => return,
            (FindRes::Win(w), _) => w,
        };
        let he = m.read(head);
        if he & FRZ != 0 {
            return;
        }
        let mut node = menc_addr(he);
        while !node.is_null() {
            let ne = m.read(next_addr(node));
            if ne & FRZ != 0 || m.read_plain(value_addr(node)) == k {
                return;
            }
            node = menc_addr(ne);
        }
        let fresh = m.alloc(NODE_WORDS);
        m.write_plain(value_addr(fresh), k);
        m.init_word(next_addr(fresh), w.pred_enc);
        m.flush_line(fresh);
        m.fence();
        if m.help_cas_flush(w.pred_addr, w.pred_enc, menc(fresh, 0)) {
            return;
        }
        // Lost a race (another copier or a user insert): retake the window
        // and rescan — the winner's node is now in the chain.
    }
}

/// Migrate old bucket `b` of generation `g` into `n`: freeze, copy, `DONE`.
/// Every step is helping-class — safe to repeat from any crash point, safe to
/// run concurrently with other migrators of the same bucket.
fn migrate_bucket<M: SharedMem>(m: &M, g: PAddr, nbuckets: u64, n: PAddr, n_nbuckets: u64, b: u64) {
    let st = gen_state(g, nbuckets, b);
    if m.read(st) == STATE_DONE {
        return;
    }
    let head = gen_head(g, b);
    // Freeze pass: mark the head, then every clean next word in path order.
    // An insert needs a clean predecessor word, so once a word is frozen no
    // new node can ever appear behind it — the walk cannot miss nodes.
    loop {
        let w = m.read(head);
        if w & FRZ != 0 {
            break;
        }
        if m.help_cas_flush(head, w, w | FRZ) {
            break;
        }
    }
    let mut node = menc_addr(m.read(head));
    while !node.is_null() {
        let na = next_addr(node);
        let ne = loop {
            let w = m.read(na);
            if w & MBITS != 0 {
                // Frozen already, or a tombstone — both are final (invariant 1).
                break w;
            }
            if m.help_cas_flush(na, w, w | FRZ) {
                break w | FRZ;
            }
        };
        node = menc_addr(ne);
    }
    m.fence();
    // Copy pass over the now-immutable chain: live keys only (tombstones are
    // purged here — resize doubles as garbage collection).
    let mut node = menc_addr(m.read(head));
    while !node.is_null() {
        let ne = m.read(next_addr(node));
        if ne & DEL == 0 {
            let k = m.read_plain(value_addr(node));
            copy_insert(m, n, n_nbuckets, k);
        }
        node = menc_addr(ne);
    }
    // Order every copy's flush before the DONE mark: a durable DONE must
    // imply durable copies.
    m.fence();
    if m.read(st) == STATE_LIVE {
        m.help_cas_flush(st, STATE_LIVE, STATE_DONE);
    }
}

/// Bounded cursor help: migrate up to [`CURSOR_HELP`] buckets at the shared
/// cursor and promote the directory once the cursor clears the bucket count.
/// The cursor only ever advances past `DONE` buckets, so promotion at
/// `cursor == nbuckets` proves every bucket migrated.
fn advance_cursor<M: SharedMem>(
    m: &M,
    dir: PAddr,
    g: PAddr,
    nbuckets: u64,
    n: PAddr,
    n_nbuckets: u64,
) {
    let cursor = g.offset(G_CURSOR);
    for _ in 0..CURSOR_HELP {
        let c = m.read(cursor);
        if c >= nbuckets {
            m.fence();
            if m.help_cas_flush(dir, g.to_raw(), n.to_raw()) {
                m.fence();
            }
            return;
        }
        migrate_bucket(m, g, nbuckets, n, n_nbuckets, c);
        m.help_cas_flush(cursor, c, c + 1);
    }
}

/// Route an update (insert/remove) to its bucket head: if a resize is in
/// flight, migrate the key's own old bucket, help the cursor along, and
/// descend to the successor generation — repeating down the chain until a
/// generation with no successor owns the key.
fn route_update<M: SharedMem>(m: &M, dir: PAddr, k: u64) -> PAddr {
    let mut g = PAddr::from_raw(m.read(dir));
    loop {
        let nbuckets = m.read_plain(g.offset(G_NBUCKETS));
        let b = map_bucket_of(k, nbuckets);
        let nraw = m.read(g.offset(G_NEXT));
        if nraw == 0 {
            return gen_head(g, b);
        }
        let n = PAddr::from_raw(nraw);
        let n_nbuckets = m.read_plain(n.offset(G_NBUCKETS));
        migrate_bucket(m, g, nbuckets, n, n_nbuckets, b);
        advance_cursor(m, dir, g, nbuckets, n, n_nbuckets);
        g = n;
    }
}

/// Route a read: no helping, no migration — descend past buckets whose state
/// is `DONE` (their keys now live in the successor) and stop at the first
/// generation that still owns the key's bucket. Sound even mid-freeze: a
/// non-`DONE` bucket's membership cannot change between its freeze and the
/// first post-`DONE` operation in the successor, and that window provably
/// overlaps the reader's interval.
fn route_read<M: SharedMem>(m: &M, dir: PAddr, k: u64) -> PAddr {
    let mut g = PAddr::from_raw(m.read(dir));
    loop {
        let nbuckets = m.read_plain(g.offset(G_NBUCKETS));
        let b = map_bucket_of(k, nbuckets);
        let nraw = m.read(g.offset(G_NEXT));
        if nraw == 0 || m.read(gen_state(g, nbuckets, b)) != STATE_DONE {
            return gen_head(g, b);
        }
        g = PAddr::from_raw(nraw);
    }
}

/// The update-side search every construction runs: route to the owning
/// generation (performing any migration the route owes) and search its bucket,
/// re-routing past freezes.
pub(crate) fn find_routed<M: SharedMem>(m: &M, dir: PAddr, k: u64) -> (MapWindow, ChainLen) {
    loop {
        let head = route_update(m, dir, k);
        if let (FindRes::Win(w), len) = find_in(m, head, k) {
            return (w, len);
        }
    }
}

/// The read-side search every construction runs: read-only routing, then the
/// membership walk.
pub(crate) fn contains_routed<M: SharedMem>(m: &M, dir: PAddr, k: u64) -> bool {
    let head = route_read(m, dir, k);
    contains_at(m, head, k)
}

/// Resize trigger, run after a successful insert that left a chain measuring
/// `observed`: publish a successor generation unless one is already in
/// flight. The *total* chain (tombstones included) exceeding `max_chain`
/// starts a resize — the copy pass is the only tombstone purge, so churn
/// alone must force one — but the bucket count only **doubles** when the
/// *live* chain exceeds the bound. A tombstone-heavy chain with few live
/// keys gets a same-size purge generation instead: under sustained
/// remove/insert churn the map re-purges at a bounded size rather than
/// doubling forever. Helping-class throughout (a crash replay re-runs it
/// harmlessly; a lost publish CAS just leaks the loser's allocation into the
/// bump arena).
pub(crate) fn maybe_grow<M: SharedMem>(m: &M, dir: PAddr, observed: ChainLen, max_chain: usize) {
    if observed.total <= max_chain {
        return;
    }
    let g = PAddr::from_raw(m.read(dir));
    if m.read(g.offset(G_NEXT)) != 0 {
        return;
    }
    let nbuckets = m.read_plain(g.offset(G_NBUCKETS));
    let new_buckets = if observed.live > max_chain {
        nbuckets * 2
    } else {
        nbuckets
    };
    let n = alloc_gen(m, new_buckets);
    if m.help_cas_flush(g.offset(G_NEXT), 0, n.to_raw()) {
        m.fence();
    }
}

/// Quiescent bounded snapshot of the whole map, in ascending key order.
///
/// Walks the generation chain: buckets whose state is `DONE` are skipped
/// (the successor owns their keys); every other bucket contributes its
/// non-tombstone keys. Cross-generation duplicates (a key both in a
/// non-`DONE` old bucket and partially copied into the successor) collapse in
/// the set union. The walk budget is **per bucket** (`max` visits each — a
/// mid-resize map legitimately holds originals plus copies, so a global
/// budget would spuriously truncate), and `truncated` aggregates across
/// buckets: one cyclic bucket among healthy ones must fail the whole drain.
pub(crate) fn drain_map<M: SharedMem>(m: &M, dir: PAddr, max: usize) -> Drain {
    let mut keys = std::collections::BTreeSet::new();
    let mut truncated = false;
    let mut g = PAddr::from_raw(m.read(dir));
    loop {
        let nbuckets = m.read_plain(g.offset(G_NBUCKETS));
        let nraw = m.read(g.offset(G_NEXT));
        for b in 0..nbuckets {
            if nraw != 0 && m.read(gen_state(g, nbuckets, b)) == STATE_DONE {
                continue;
            }
            let mut node = menc_addr(m.read(gen_head(g, b)));
            let mut visited = 0usize;
            while !node.is_null() && visited < max {
                visited += 1;
                let ne = m.read(next_addr(node));
                if ne & DEL == 0 {
                    keys.insert(m.read_plain(value_addr(node)));
                }
                node = menc_addr(ne);
            }
            if !node.is_null() {
                truncated = true;
            }
        }
        if nraw == 0 {
            break;
        }
        g = PAddr::from_raw(nraw);
    }
    Drain {
        items: keys.into_iter().collect(),
        truncated,
    }
}

/// Live-key count (diagnostic; not linearizable).
pub(crate) fn map_len<M: SharedMem>(m: &M, dir: PAddr) -> usize {
    drain_map(m, dir, usize::MAX).items.len()
}

/// The plain detectable-map shell: plain CASes, no capsules, no flushes.
/// Running its operations through a thread with
/// [`pmem::ThreadOptions`]`{ izraelevitz: true }` yields the durably
/// linearizable (but **not** detectable) Izraelevitz map.
#[derive(Clone, Copy, Debug)]
pub struct DetMap {
    dir: PAddr,
    cfg: MapConfig,
}

impl DetMap {
    /// Create an empty map.
    pub fn new(thread: &PThread<'_>, cfg: MapConfig) -> DetMap {
        let g = alloc_gen(thread, cfg.initial_buckets);
        let dir = thread.alloc(1);
        thread.write(dir, g.to_raw());
        DetMap { dir, cfg }
    }

    /// Address of the directory word (tests and corruption harnesses).
    pub fn dir_addr(&self) -> PAddr {
        self.dir
    }

    /// Create this thread's operation handle.
    pub fn handle<'q, 't, 'm>(&'q self, thread: &'t PThread<'m>) -> DetMapHandle<'q, 't, 'm> {
        DetMapHandle { map: self, thread }
    }

    /// Live-key count (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        map_len(thread, self.dir)
    }

    /// Bucket count of the *current* generation (diagnostic).
    pub fn current_buckets(&self, thread: &PThread<'_>) -> u64 {
        let g = PAddr::from_raw(thread.read(self.dir));
        thread.read(g.offset(G_NBUCKETS))
    }
}

/// Per-thread handle for the plain map.
#[derive(Debug)]
pub struct DetMapHandle<'q, 't, 'm> {
    map: &'q DetMap,
    thread: &'t PThread<'m>,
}

impl DetMapHandle<'_, '_, '_> {
    /// Insert `k`; returns whether it was absent.
    pub fn insert(&mut self, k: u64) -> bool {
        let m = self.thread;
        loop {
            let (w, len) = find_routed(m, self.map.dir, k);
            if w.found {
                return false;
            }
            let node = m.alloc(NODE_WORDS);
            m.write_plain(value_addr(node), k);
            m.init_word(next_addr(node), w.pred_enc);
            if m.help_cas(w.pred_addr, w.pred_enc, menc(node, 0)) {
                maybe_grow(m, self.map.dir, len.plus_inserted(), self.map.cfg.max_chain);
                return true;
            }
        }
    }

    /// Remove `k`; returns whether it was present. A single marking CAS —
    /// tombstones stay linked until the next resize purges them.
    pub fn remove(&mut self, k: u64) -> bool {
        let m = self.thread;
        loop {
            let (w, _) = find_routed(m, self.map.dir, k);
            if !w.found {
                return false;
            }
            if m.help_cas(next_addr(w.curr), w.curr_enc, w.curr_enc | DEL) {
                return true;
            }
        }
    }

    /// Membership test (read-only: no helping, no migration).
    pub fn contains(&mut self, k: u64) -> bool {
        contains_routed(self.thread, self.map.dir, k)
    }
}

impl StructHandle for DetMapHandle<'_, '_, '_> {
    fn apply(&mut self, op: StructOp) -> Option<u64> {
        apply_keyed(self, op, Self::insert, Self::remove, Self::contains)
    }

    fn drain_up_to(&mut self, max: usize) -> Drain {
        drain_map(self.thread, self.map.dir, max)
    }
}

// The §6 frame of a map handle (user locals).
const L_KEY: usize = 0; // the key (entry)
const L_PRED: usize = 1; // insert: the link's target
const L_PRED_ENC: usize = 2; // insert: its expected (clean) encoding
const L_NODE: usize = 3; // insert: the new node's encoding
const L_CURR_NEXT: usize = 4; // remove: the victim's next word (the mark's target)
const L_CURR_ENC: usize = 5; // remove: its expected encoding
const L_LEN: usize = 6; // insert: the packed ChainLen the search observed (the CAS's aux)
const GENERAL_LOCALS: usize = 7;

/// The capsule-transformed map (see "The detectable operations"), generic
/// over the simulator that runs its operations.
#[derive(Clone, Copy, Debug)]
pub struct CapsuleMap<S> {
    pub(crate) dir: PAddr,
    cfg: MapConfig,
    pub(crate) sim: S,
}

/// The "General" map: placed by the CAS-Read simulator of §6.
pub type GeneralDetMap = CapsuleMap<CasReadSimulator>;
/// The "Normalized" map: run by the Persistent Normalized Simulator of §7.
pub type NormalizedDetMap = CapsuleMap<NormalizedSimulator>;

impl GeneralDetMap {
    /// Create an empty map for `nprocs` processes. `manual` selects the
    /// hand-placed flush discipline (fresh nodes and generations persisted
    /// before publication, CAS targets persisted after, durable announcements
    /// in the rcas layer).
    pub fn new(
        thread: &PThread<'_>,
        nprocs: usize,
        cfg: MapConfig,
        manual: bool,
        style: BoundaryStyle,
    ) -> Self {
        let space = RcasSpace::new(thread, nprocs, MAP_RCAS_LAYOUT).with_durability(manual);
        Self::create(thread, cfg, general_simulator(space, manual, style, true))
    }
}

impl NormalizedDetMap {
    /// Create an empty map for `nprocs` processes. `manual` selects the
    /// hand-placed flush discipline; `optimised` the compact-frame style.
    pub fn new(
        thread: &PThread<'_>,
        nprocs: usize,
        cfg: MapConfig,
        manual: bool,
        optimised: bool,
    ) -> Self {
        let space = RcasSpace::new(thread, nprocs, MAP_RCAS_LAYOUT).with_durability(manual);
        Self::create(
            thread,
            cfg,
            normalized_simulator(space, manual, optimised, true),
        )
    }
}

capsule_handles!(GeneralDetMap, GeneralDetMapHandle);
capsule_handles!(NormalizedDetMap, NormalizedDetMapHandle);
adaptive_builders!(GeneralDetMap);
adaptive_builders!(NormalizedDetMap);

impl<S: Simulator> CapsuleMap<S> {
    /// An empty map run by `sim`.
    fn create(thread: &PThread<'_>, cfg: MapConfig, sim: S) -> Self {
        let m = sim.mem(thread);
        let g = alloc_gen(&m, cfg.initial_buckets);
        let dir = thread.alloc(1);
        m.init_word(dir, g.to_raw());
        m.flush_line(dir);
        m.fence();
        CapsuleMap { dir, cfg, sim }
    }

    /// Live-key count (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        map_len(&self.sim.mem(thread), self.dir)
    }
}

/// One keyed operation of a [`CapsuleMap`], declared once.
pub(crate) struct MapOp<'s, S>(pub(crate) &'s CapsuleMap<S>, pub(crate) StructOp);

/// First pcs of the writing operations in a §6 frame (`contains` has none:
/// it runs outside the frame).
const INSERT: u32 = 0;
const REMOVE: u32 = 10;

impl<S> NormalizedOp for MapOp<'_, S> {
    type Input = ();
    type Output = bool;

    /// An empty list means the answer is `false` (insert: present; remove:
    /// absent) or, for the read-only `contains`, that the wrap-up will answer.
    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, _: &()) -> CasList {
        let (dir, m) = (self.0.dir, ctx.mem());
        match self.1 {
            Insert(k) => {
                let (w, len) = find_routed(&m, dir, k);
                if w.found {
                    return Vec::new();
                }
                let node = m.alloc(NODE_WORDS);
                m.write_plain(value_addr(node), k);
                m.init_word(next_addr(node), w.pred_enc);
                ctx.persist(node);
                vec![CasDesc::new(w.pred_addr, w.pred_enc, menc(node, 0)).with_aux(len.pack())]
            }
            Remove(k) => {
                let (w, _) = find_routed(&m, dir, k);
                if !w.found {
                    return Vec::new();
                }
                vec![CasDesc::new(
                    next_addr(w.curr),
                    w.curr_enc,
                    w.curr_enc | DEL,
                )]
            }
            _ => Vec::new(),
        }
    }

    fn wrap_up(
        &self,
        ctx: &mut NormalizedCtx<'_, '_, '_>,
        _: &(),
        cas_list: &CasList,
        executed: usize,
    ) -> WrapUp<bool> {
        let (map, m) = (self.0, ctx.mem());
        match (self.1, single_cas_outcome(cas_list, executed)) {
            (Contains(k), _) => WrapUp::Done(contains_routed(&m, map.dir, k)),
            (Insert(_), WrapUp::Done(true)) => {
                let len = ChainLen::unpack(cas_list[0].aux).plus_inserted();
                maybe_grow(&m, map.dir, len, map.cfg.max_chain);
                WrapUp::Done(true)
            }
            (_, outcome) => outcome,
        }
    }

    /// The insert keeps its whole CAS; the remove keeps the mark's target and
    /// expected encoding (the marked one is rebuilt).
    fn frame(&self) -> CasFrame {
        let (pc, obj, expected, new, aux) = match self.1 {
            Insert(_) => (
                INSERT,
                Some(L_PRED),
                Some(L_PRED_ENC),
                Some(L_NODE),
                Some(L_LEN),
            ),
            Remove(_) => (REMOVE, Some(L_CURR_NEXT), Some(L_CURR_ENC), None, None),
            op => unreachable!("{op:?} runs outside the frame"),
        };
        let entry = Some((L_KEY, self.1.key()));
        CasFrame {
            pc,
            entry,
            obj,
            expected,
            new,
            aux,
            out: 0,
        }
    }

    fn rebuild(&self, mut kept: CasDesc) -> CasDesc {
        if let Remove(_) = self.1 {
            kept.new = kept.expected | DEL;
        }
        kept
    }

    fn read_only(&self) -> bool {
        matches!(self.1, Contains(_))
    }
}

impl<S: Simulator> Capsuled for CapsuleMap<S> {
    const LOCALS: usize = GENERAL_LOCALS;
    type Sim = S;
    fn sim(&self) -> &S {
        &self.sim
    }

    fn apply(&self, rt: &mut CapsuleRuntime<'_, '_>, op: StructOp) -> Option<u64> {
        op.key(); // a stack operation is a driver bug
        bool_ret(self.sim.run(rt, &MapOp(self, op), &()))
    }

    fn drain_up_to(&self, rt: &mut CapsuleRuntime<'_, '_>, max: usize) -> Drain {
        drain_map(&self.sim.mem(rt.thread()), self.dir, max)
    }
}

/// Whether a map created with `initial_buckets` has published a resize yet
/// (test diagnostic).
#[cfg(test)]
pub(crate) fn resize_published<M: SharedMem>(m: &M, dir: PAddr, initial_buckets: u64) -> bool {
    let g = PAddr::from_raw(m.read(dir));
    m.read_plain(g.offset(G_NBUCKETS)) != initial_buckets || m.read(g.offset(G_NEXT)) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{MemConfig, Mode, PMem, ThreadOptions};

    #[test]
    fn layout_fits_the_two_bit_encoding() {
        let l = RcasLayout::new(
            MAP_RCAS_LAYOUT.value_bits,
            MAP_RCAS_LAYOUT.pid_bits,
            MAP_RCAS_LAYOUT.seq_bits,
        );
        assert_eq!(l, MAP_RCAS_LAYOUT);
        // Word indices below 2^28, shifted by the two mark bits, fit the
        // 30-bit value field.
        let max_index = (1u64 << 28) - 1;
        assert!(menc(PAddr::from_raw(max_index), MBITS) <= l.max_value());
        // The sequence field must outlast the million-key workload.
        assert!(l.max_seq() > 1 << 27);
    }

    #[test]
    fn bucket_mix_spreads_and_is_stable() {
        assert_eq!(map_bucket_of(7, 8), map_bucket_of(7, 8));
        let mut hit = [false; 8];
        for k in 0..64 {
            hit[map_bucket_of(k, 8) as usize] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 keys must touch all 8 buckets");
    }

    #[test]
    fn insert_remove_contains_single_thread() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let map = DetMap::new(&t, MapConfig::new(4, 64));
        let mut h = map.handle(&t);
        assert!(!h.contains(5));
        assert!(h.insert(5));
        assert!(h.insert(3));
        assert!(h.insert(9));
        assert!(!h.insert(5), "duplicate insert must fail");
        assert!(h.contains(3) && h.contains(5) && h.contains(9));
        assert!(!h.contains(4));
        assert_eq!(h.drain_up_to(64).items, vec![3, 5, 9], "ascending snapshot");
        assert!(h.remove(5));
        assert!(!h.remove(5), "double remove must fail");
        assert!(!h.contains(5));
        assert_eq!(h.drain_up_to(64).items, vec![3, 9]);
        assert_eq!(map.len(&t), 2);
        // Re-insert after remove: the tombstone stays linked, a fresh live
        // node carries the key.
        assert!(h.insert(5));
        assert!(h.contains(5));
        assert_eq!(h.drain_up_to(64).items, vec![3, 5, 9]);
    }

    #[test]
    fn growth_migrates_every_key_and_purges_tombstones() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let map = DetMap::new(&t, MapConfig::tiny());
        let mut h = map.handle(&t);
        let mut expect = std::collections::BTreeSet::new();
        for k in 0..200u64 {
            assert!(h.insert(k), "insert {k}");
            expect.insert(k);
            if k % 3 == 0 {
                assert!(h.remove(k), "remove {k}");
                expect.remove(&k);
            }
        }
        assert!(
            map.current_buckets(&t) > 2,
            "200 keys over tiny() must have grown the bucket array"
        );
        for k in 0..200u64 {
            assert_eq!(h.contains(k), expect.contains(&k), "contains({k})");
        }
        let d = h.drain_up_to(100_000);
        assert!(!d.truncated);
        assert_eq!(d.items, expect.iter().copied().collect::<Vec<u64>>());
    }

    #[test]
    fn boundary_keys_zero_and_max() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let map = DetMap::new(&t, MapConfig::tiny());
        let mut h = map.handle(&t);
        assert!(h.insert(0));
        assert!(h.insert(u64::MAX));
        assert!(h.contains(0) && h.contains(u64::MAX));
        assert_eq!(h.drain_up_to(64).items, vec![0, u64::MAX]);
        assert!(h.remove(0));
        assert_eq!(h.drain_up_to(64).items, vec![u64::MAX]);
    }

    #[test]
    fn concurrent_disjoint_key_ranges_all_land_across_resizes() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 300;
        let mem = PMem::with_threads(THREADS);
        let map = DetMap::new(&mem.thread(0), MapConfig::new(2, 6));
        std::thread::scope(|sc| {
            for pid in 0..THREADS {
                let mem = &mem;
                let map = &map;
                sc.spawn(move || {
                    let t = mem.thread(pid);
                    let mut h = map.handle(&t);
                    for i in 0..PER_THREAD {
                        assert!(h.insert(i * THREADS as u64 + pid as u64));
                    }
                });
            }
        });
        let t = mem.thread(0);
        let mut h = map.handle(&t);
        let d = h.drain_up_to(1_000_000);
        assert!(!d.truncated);
        assert_eq!(d.items.len(), THREADS * PER_THREAD as usize);
        assert!(d.items.windows(2).all(|w| w[0] < w[1]));
        assert!(map.current_buckets(&t) > 2, "the sweep must have resized");
    }

    #[test]
    fn concurrent_same_key_contention_is_exact() {
        const THREADS: usize = 3;
        const ROUNDS: u64 = 300;
        let mem = PMem::with_threads(THREADS);
        let map = DetMap::new(&mem.thread(0), MapConfig::tiny());
        let counts: Vec<(u64, u64)> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..THREADS)
                .map(|pid| {
                    let mem = &mem;
                    let map = &map;
                    sc.spawn(move || {
                        let t = mem.thread(pid);
                        let mut h = map.handle(&t);
                        let (mut ins, mut rem) = (0, 0);
                        for r in 0..ROUNDS {
                            let k = r % 7;
                            if h.insert(k) {
                                ins += 1;
                            }
                            if h.remove(k) {
                                rem += 1;
                            }
                        }
                        (ins, rem)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total_ins: u64 = counts.iter().map(|c| c.0).sum();
        let total_rem: u64 = counts.iter().map(|c| c.1).sum();
        let t = mem.thread(0);
        let mut h = map.handle(&t);
        let d = h.drain_up_to(1_000_000);
        assert!(!d.truncated);
        assert_eq!(
            total_ins,
            total_rem + d.items.len() as u64,
            "every successful insert is matched by a successful remove or survives"
        );
    }

    #[test]
    fn izraelevitz_option_makes_contents_durable_across_a_resize() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread_with(0, ThreadOptions { izraelevitz: true });
        let map = DetMap::new(&t, MapConfig::tiny());
        {
            let mut h = map.handle(&t);
            for k in 0..40u64 {
                assert!(h.insert(k));
            }
            assert!(h.remove(17));
        }
        assert!(
            map.current_buckets(&t) > 2,
            "the workload must have resized"
        );
        mem.crash_all();
        let t = mem.thread(0);
        let mut h = map.handle(&t);
        let d = h.drain_up_to(10_000);
        assert!(!d.truncated);
        let expect: Vec<u64> = (0..40).filter(|&k| k != 17).collect();
        assert_eq!(d.items, expect);
    }

    /// Satellite regression (drain): one artificially cycled bucket among
    /// healthy ones must mark the *whole map's* drain truncated, while the
    /// healthy buckets' keys still come back.
    #[test]
    fn drain_flags_a_single_cycled_bucket_among_healthy_ones() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        // Generous max_chain: no resize, one stable generation of 4 buckets.
        let map = DetMap::new(&t, MapConfig::new(4, 1_000));
        let mut h = map.handle(&t);
        // Two keys that collide into one bucket, plus keys elsewhere.
        let mut colliders = Vec::new();
        let mut healthy = Vec::new();
        for k in 0..64u64 {
            if map_bucket_of(k, 4) == 0 && colliders.len() < 2 {
                colliders.push(k);
            } else if map_bucket_of(k, 4) != 0 && healthy.len() < 3 {
                healthy.push(k);
            }
        }
        assert_eq!(colliders.len(), 2);
        for &k in colliders.iter().chain(&healthy) {
            assert!(h.insert(k));
        }
        // Corrupt bucket 0 into a cycle: second.next -> first.
        let g = PAddr::from_raw(t.read(map.dir_addr()));
        let head0 = g.offset(G_HEADER);
        let first = menc_addr(t.read(head0));
        let second = menc_addr(t.read(next_addr(first)));
        assert!(!second.is_null(), "both colliders must share bucket 0");
        t.write(next_addr(second), menc(first, 0));
        let d = h.drain_up_to(10);
        assert!(
            d.truncated,
            "a cycle in one bucket must mark the whole map drain truncated"
        );
        for &k in &healthy {
            assert!(
                d.items.contains(&k),
                "healthy buckets must still be collected (missing {k})"
            );
        }
    }

    /// Regression: remove/insert churn on a handful of keys accumulates
    /// tombstones, and the total-chain trigger fires constantly. The resize
    /// it starts must be a same-size *purge* unless live chains actually
    /// overflow — the old always-double policy grew the bucket array
    /// exponentially under churn (gigabytes of generations for 3 keys).
    #[test]
    fn sustained_churn_purges_at_a_bounded_size_instead_of_doubling_forever() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let map = DetMap::new(&t, MapConfig::tiny());
        let mut h = map.handle(&t);
        for round in 0..500u64 {
            let k = round % 3;
            h.insert(k);
            h.remove(k);
        }
        let nb = map.current_buckets(&t);
        assert!(
            nb <= 8,
            "3-key churn must stay near the initial size, got {nb} buckets"
        );
        let d = h.drain_up_to(10_000);
        assert!(!d.truncated);
        assert!(d.items.is_empty(), "everything was removed: {:?}", d.items);
    }

    /// A `Contains` killed at each of its crash points — both simulators,
    /// both frame styles, per-process and full-system crashes — answers
    /// right, recovers nothing (the retry is its recovery) and leaves the
    /// frame word for word as the operation before it left it.
    #[test]
    fn a_contains_killed_at_any_point_answers_right_and_leaves_the_frame_alone() {
        use crate::api::Handle;
        use pmem::{install_quiet_crash_hook, CrashPlan};
        fn sweep<S: Capsuled>(label: &str, build: impl Fn(&PThread<'_>) -> S) {
            for (key, want) in [(20, Some(1)), (25, Some(0))] {
                for system in [false, true] {
                    let label = format!("{label} key={key} system={system}");
                    for k in 0.. {
                        let config = MemConfig::new(1).mode(Mode::SharedCache);
                        let mem = PMem::new(config.system_crashes(system));
                        let t = mem.thread(0);
                        let s = build(&t);
                        let mut h = Handle::new(&s, &t);
                        for op in [Insert(10), Insert(20), Insert(30), Remove(10)] {
                            h.apply(op);
                        }
                        mem.persist_everything();
                        let rt = h.runtime_mut();
                        let f = *rt.frame();
                        let span = match f.style() {
                            BoundaryStyle::General => 1 + 2 * f.slots() as u64,
                            BoundaryStyle::Compact => LINE_WORDS,
                        };
                        let frame = || -> Vec<u64> {
                            (0..span).map(|i| t.read(f.base().offset(i))).collect()
                        };
                        let (before, m0) = ((rt.pc(), frame()), rt.metrics());
                        t.set_crash_schedule(CrashPlan::once(k));
                        let got = h.apply(Contains(key));
                        t.disarm_crashes();
                        if t.stats().crashes == 0 {
                            assert!(k > 0, "{label}: no crash point");
                            break;
                        }
                        let (rt, label) = (h.runtime_mut(), format!("{label} k={k}"));
                        assert_eq!(got, want, "{label}");
                        assert_eq!((rt.pc(), frame()), before, "{label}: the frame moved");
                        let m = rt.metrics();
                        assert_eq!(m.recoveries, 0, "{label}");
                        assert_eq!(m.boundaries, m0.boundaries, "{label}");
                        assert_eq!(m.entry_retries - m0.entry_retries, 1, "{label}");
                    }
                }
            }
        }
        install_quiet_crash_hook();
        let cfg = MapConfig::new(4, 64);
        for compact in [false, true] {
            sweep(&format!("General compact={compact}"), |t| {
                GeneralDetMap::new(t, 1, cfg, true, BoundaryStyle::opt(compact))
            });
            sweep(&format!("Normalized compact={compact}"), |t| {
                NormalizedDetMap::new(t, 1, cfg, true, compact)
            });
        }
    }

    #[test]
    fn struct_handle_face_matches_direct_calls() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let map = DetMap::new(&t, MapConfig::tiny());
        let mut h = map.handle(&t);
        assert_eq!(h.apply(StructOp::Insert(4)), Some(1));
        assert_eq!(h.apply(StructOp::Insert(4)), Some(0));
        assert_eq!(h.apply(StructOp::Contains(4)), Some(1));
        assert_eq!(h.apply(StructOp::Remove(4)), Some(1));
        assert_eq!(h.apply(StructOp::Remove(4)), Some(0));
        assert_eq!(h.apply(StructOp::Contains(4)), Some(0));
    }
}
