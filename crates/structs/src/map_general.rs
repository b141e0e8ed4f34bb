//! The "General" detectable map: the bucketed protocol of [`map`](crate::map)
//! transformed by the Low-Computation-Delay (CAS-Read) simulator of §6.
//!
//! Only two CASes in the whole protocol are linearization points that need
//! exactly-once recovery — the insert's link and the remove's tombstone mark —
//! and only those head CAS-Read capsules with the simulator's
//! [`capsule_cas`](CasReadSimulator::capsule_cas). Everything
//! else the map does under the hood (routing, bucket freezes, copy inserts,
//! cursor/`next`/state/directory installs — the entire resize machinery) is
//! parallelizable helping, executed with the *anonymous* CAS inside the search
//! capsule exactly as §7 prescribes for generator/wrap-up CASes: repetition
//! after a crash re-runs only operations whose repetition is invisible. The
//! no-unlink tombstone policy (see the map module docs) is what keeps the
//! remove a single-CAS protocol here — there is no unlink pc at all. Being
//! single-CAS, an uncontended insert or remove runs as one fast capsule
//! ([`CasReadSimulator::fast_capsule`]; on by default,
//! [`with_adaptive`](GeneralDetMap::with_adaptive)).
//!
//! A crash between the search capsule and the CAS capsule replays against a
//! *persisted window*; if a concurrent resize froze the window's bucket in
//! the meantime, the recoverable CAS simply fails (the expected clean
//! encoding no longer matches a frozen word — invariant 1 says marked words
//! are final) and the retry pc re-routes through the migration. Crash-safety
//! of the resize itself needs no capsule help.

use capsules::{BoundaryStyle, CapsuleRuntime, CapsuleStep, ContentionMeasure};
use delayfree::{CasDesc, CasReadSimulator, Proposal, SharedMem};
use pmem::{PAddr, PThread};
use rcas::RcasSpace;

use crate::api::{bool_ret, adaptive_builders, capsule_handles, Capsuled, Drain, StructOp};
use crate::map::{
    alloc_gen, contains_routed, drain_map, find_routed, map_len, maybe_grow, menc, ChainLen,
    MapConfig, DEL, MAP_RCAS_LAYOUT,
};
use crate::node::{next_addr, value_addr, NODE_WORDS};

// Persisted local slots (user indices).
const L_KEY: usize = 0;
const L_PRED_ADDR: usize = 1; // the word the insert link / remove mark CAS targets
const L_PRED_ENC: usize = 2; // insert: its expected (clean) encoding
const L_NODE: usize = 3; // insert: the freshly allocated node
const L_CURR_NEXT: usize = 4; // remove: address of the victim's next word
const L_CURR_ENC: usize = 5; // remove: its expected encoding / contains: result
const L_LEN: usize = 6; // insert: packed ChainLen the search observed (resize trigger)
/// Number of user locals a map handle's capsule runtime uses.
pub const MAP_GENERAL_LOCALS: usize = 7;

// Insert program counters.
const I_FIND: u32 = 0;
const I_CAS: u32 = 1;
const I_DONE_TRUE: u32 = 2;
const I_DONE_FALSE: u32 = 3;
/// Contention-adaptive fast insert: the whole operation in one capsule.
const F_INSERT: u32 = 4;
// Remove program counters.
const R_FIND: u32 = 10;
const R_MARK: u32 = 11;
const R_DONE_TRUE: u32 = 12;
const R_DONE_FALSE: u32 = 13;
/// Contention-adaptive fast remove: the whole operation in one capsule.
const F_REMOVE: u32 = 14;
// Contains program counters.
const C_FIND: u32 = 20;
const C_DONE: u32 = 21;

/// The shared, persistent part of the transformed map.
#[derive(Clone, Copy, Debug)]
pub struct GeneralDetMap {
    dir: PAddr,
    cfg: MapConfig,
    sim: CasReadSimulator,
}

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
    ) -> GeneralDetMap {
        let space = RcasSpace::new(thread, nprocs, MAP_RCAS_LAYOUT).with_durability(manual);
        let sim = CasReadSimulator::new(space)
            .with_durable(manual)
            .with_style(style)
            .with_adaptive(true);
        let g = alloc_gen(&sim.mem(thread), cfg.initial_buckets);
        let dir = thread.alloc(1);
        space.init_word(thread, dir, g.to_raw());
        if manual {
            thread.persist(dir);
        }
        GeneralDetMap { dir, cfg, sim }
    }

    /// The recoverable-CAS space used by this map.
    pub fn space(&self) -> &RcasSpace {
        self.sim.space()
    }

    /// Live-key count (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        map_len(&self.sim.mem(thread), self.dir)
    }

    // ----- capsule bodies --------------------------------------------------------

    /// One insert capsule (entry pc [`I_FIND`], or [`F_INSERT`] on the fast path).
    fn insert_step(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CapsuleStep<bool> {
        let sim = &self.sim;
        let m = sim.mem(rt.thread());
        match rt.pc() {
            // Fast capsule: the search's ChainLen rides the evidence's aux
            // word, so a post-CAS crash still runs the (helping-class,
            // repetition-safe) resize trigger.
            F_INSERT => sim.fast_capsule(
                rt,
                I_FIND,
                |rt| {
                    let k = rt.local(L_KEY);
                    let (w, len) = find_routed(&m, self.dir, k);
                    if w.found {
                        rt.finish_boundary(I_DONE_FALSE);
                        return Proposal::Done(false);
                    }
                    let node = m.alloc(NODE_WORDS);
                    m.write_plain(value_addr(node), k);
                    m.init_word(next_addr(node), w.pred_enc);
                    sim.persist_line(rt.thread(), node);
                    let link = CasDesc::new(w.pred_addr, w.pred_enc, menc(node, 0));
                    Proposal::Cas(link.with_aux(len.pack()))
                },
                |rt, cas, _| {
                    let len = ChainLen::unpack(cas.aux).plus_inserted();
                    maybe_grow(&m, self.dir, len, self.cfg.max_chain);
                    rt.finish_boundary(I_DONE_TRUE);
                    true
                },
            ),
            // Search capsule (reads + anonymous helping, including any resize
            // migration work the route owes): locate the window, allocate and
            // initialise the node.
            I_FIND => {
                let k = rt.local(L_KEY);
                let (w, len) = find_routed(&m, self.dir, k);
                if w.found {
                    rt.finish_boundary(I_DONE_FALSE);
                    return CapsuleStep::Done(false);
                }
                let node = m.alloc(NODE_WORDS);
                m.write_plain(value_addr(node), k);
                m.init_word(next_addr(node), w.pred_enc);
                // The I_CAS boundary (not a CAS) publishes the node pointer
                // next, so the fence cannot be elided here.
                sim.persist_line_before_boundary(rt.thread(), node);
                rt.set_local_addr(L_PRED_ADDR, w.pred_addr);
                rt.set_local(L_PRED_ENC, w.pred_enc);
                rt.set_local_addr(L_NODE, node);
                rt.set_local(L_LEN, len.pack());
                rt.boundary(I_CAS);
                CapsuleStep::Continue
            }
            // CAS-Read capsule: link the node — the linearization point.
            I_CAS => {
                let pred_addr = rt.local_addr(L_PRED_ADDR);
                let expected = rt.local(L_PRED_ENC);
                let node = rt.local_addr(L_NODE);
                let len = ChainLen::unpack(rt.local(L_LEN));
                if sim.capsule_cas(rt, pred_addr, expected, menc(node, 0)) {
                    // Helping-class grow trigger: repetition-safe, so a crash
                    // replay of this capsule re-running it is harmless.
                    maybe_grow(&m, self.dir, len.plus_inserted(), self.cfg.max_chain);
                    rt.finish_boundary(I_DONE_TRUE);
                    CapsuleStep::Done(true)
                } else {
                    rt.boundary(I_FIND);
                    CapsuleStep::Continue
                }
            }
            I_DONE_TRUE => CapsuleStep::Done(true),
            I_DONE_FALSE => CapsuleStep::Done(false),
            pc => unreachable!("general map insert: unexpected pc {pc}"),
        }
    }

    /// One remove capsule (entry pc [`R_FIND`], or [`F_REMOVE`] on the fast
    /// path). Single-CAS protocol: the tombstone mark is the linearization
    /// point and the whole story — the node stays linked until a resize
    /// purges it.
    fn remove_step(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CapsuleStep<bool> {
        match rt.pc() {
            F_REMOVE => self.sim.fast_capsule(
                rt,
                R_FIND,
                |rt| {
                    let k = rt.local(L_KEY);
                    let (w, _) = find_routed(&self.sim.mem(rt.thread()), self.dir, k);
                    if !w.found {
                        rt.finish_boundary(R_DONE_FALSE);
                        return Proposal::Done(false);
                    }
                    Proposal::Cas(CasDesc::new(next_addr(w.curr), w.curr_enc, w.curr_enc | DEL))
                },
                |rt, _, _| {
                    rt.finish_boundary(R_DONE_TRUE);
                    true
                },
            ),
            R_FIND => {
                let k = rt.local(L_KEY);
                let (w, _) = find_routed(&self.sim.mem(rt.thread()), self.dir, k);
                if !w.found {
                    rt.finish_boundary(R_DONE_FALSE);
                    return CapsuleStep::Done(false);
                }
                rt.set_local_addr(L_CURR_NEXT, next_addr(w.curr));
                rt.set_local(L_CURR_ENC, w.curr_enc);
                rt.boundary(R_MARK);
                CapsuleStep::Continue
            }
            // CAS-Read capsule: the tombstone mark.
            R_MARK => {
                let curr_next = rt.local_addr(L_CURR_NEXT);
                let curr_enc = rt.local(L_CURR_ENC);
                if self.sim.capsule_cas(rt, curr_next, curr_enc, curr_enc | DEL) {
                    rt.finish_boundary(R_DONE_TRUE);
                    CapsuleStep::Done(true)
                } else {
                    rt.boundary(R_FIND);
                    CapsuleStep::Continue
                }
            }
            R_DONE_TRUE => CapsuleStep::Done(true),
            R_DONE_FALSE => CapsuleStep::Done(false),
            pc => unreachable!("general map remove: unexpected pc {pc}"),
        }
    }

    /// One contains capsule (entry pc [`C_FIND`]): read-only routing, no
    /// helping, single capsule.
    fn contains_step(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CapsuleStep<bool> {
        match rt.pc() {
            C_FIND => {
                let k = rt.local(L_KEY);
                let found = contains_routed(&self.sim.mem(rt.thread()), self.dir, k);
                rt.set_local(L_CURR_ENC, found as u64);
                rt.finish_boundary(C_DONE);
                CapsuleStep::Done(found)
            }
            C_DONE => CapsuleStep::Done(rt.local(L_CURR_ENC) != 0),
            pc => unreachable!("general map contains: unexpected pc {pc}"),
        }
    }
}

impl Capsuled for GeneralDetMap {
    const LOCALS: usize = MAP_GENERAL_LOCALS;
    fn style(&self) -> BoundaryStyle {
        self.sim.style()
    }
    fn contention(&self) -> ContentionMeasure {
        self.sim.contention()
    }

    fn apply(&self, rt: &mut CapsuleRuntime<'_, '_>, op: StructOp) -> Option<u64> {
        rt.set_local(L_KEY, op.key());
        bool_ret(match op {
            StructOp::Insert(_) => {
                let entry = self.sim.enter(rt, F_INSERT, I_FIND);
                rt.run_op(entry, |rt| self.insert_step(rt))
            }
            StructOp::Remove(_) => {
                let entry = self.sim.enter(rt, F_REMOVE, R_FIND);
                rt.run_op(entry, |rt| self.remove_step(rt))
            }
            _ => {
                // One capsule either way; entered like the others so a read
                // pays down the contention measure's probation, as it does
                // in the Normalized construction.
                let entry = self.sim.enter(rt, C_FIND, C_FIND);
                rt.run_op(entry, |rt| self.contains_step(rt))
            }
        })
    }

    fn drain_up_to(&self, rt: &mut CapsuleRuntime<'_, '_>, max: usize) -> Drain {
        drain_map(&self.sim.mem(rt.thread()), self.dir, max)
    }
}

capsule_handles!(GeneralDetMap, GeneralDetMapHandle);
adaptive_builders!(GeneralDetMap);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{testkit, StructHandle};
    use crate::map::resize_published;
    use StructOp::{Contains, Insert, Remove};

    fn styled(t: &PThread<'_>, cfg: MapConfig, compact: bool) -> GeneralDetMap {
        GeneralDetMap::new(t, 1, cfg, true, BoundaryStyle::opt(compact))
    }

    #[test]
    fn insert_remove_contains_single_thread_both_styles() {
        testkit::keyed_single_thread(|t, flag| styled(t, MapConfig::new(4, 64), flag), GeneralDetMap::len);
    }

    #[test]
    fn growth_migrates_every_key_under_capsules() {
        testkit::keyed_growth(|t| styled(t, MapConfig::tiny(), false));
    }

    #[test]
    fn operations_survive_random_crashes_across_resizes() {
        let build = |t: &PThread<'_>, flag| styled(t, MapConfig::tiny(), flag);
        testkit::keyed_random_crashes(build, &[false], 43, (400, 7, 29));
    }

    #[test]
    fn manual_durability_survives_full_system_crash_mid_growth() {
        let ops: Vec<StructOp> = (0..30).map(Insert).chain([Remove(11)]).collect();
        let expect: Vec<u64> = (0..30).filter(|&k| k != 11).collect();
        let build = |t: &PThread<'_>| styled(t, MapConfig::tiny(), false);
        testkit::survives_full_system_crash(build, &ops, &expect, false);
    }

    /// The scripted window *crosses a resize* (tiny config: the inserts push
    /// the chain past max_chain = 3), so crash points land in the migration
    /// too — through the fast capsules (the default), then the slow machine.
    #[test]
    fn exhaustive_crash_point_sweep_is_exact_across_a_resize() {
        for adaptive in [true, false] {
            testkit::exhaustive_crash_point_sweep(
                |t| styled(t, MapConfig::tiny(), false).with_adaptive(adaptive),
                &[Insert(10), Insert(20), Insert(30)],
                &[Insert(15), Insert(25), Insert(15), Remove(10), Contains(15), Remove(99)],
                (
                    vec![Some(1), Some(1), Some(0), Some(1), Some(1), Some(0)],
                    vec![15, 20, 25, 30],
                ),
            );
        }
    }

    /// Kill a fast insert — the one whose chain measure calls for a resize —
    /// at each of its crash points and look at the machine as recovery finds
    /// it (both frame styles and crash flavours): the key is linked exactly
    /// once, reported `true` once, and the resize is published even when the
    /// crash fell between the link CAS and the final boundary, where the
    /// `ChainLen` survives only in the evidence's `aux` word.
    #[test]
    fn fast_insert_killed_at_any_point_links_once_and_still_triggers_its_resize() {
        let tiny = MapConfig::tiny();
        let published = |s: &GeneralDetMap, t: &PThread<'_>| {
            resize_published(&s.sim.mem(t), s.dir, tiny.initial_buckets)
        };
        // The first key whose insert publishes a resize, found by a dry run.
        let trigger = {
            let mem = pmem::PMem::with_threads(1);
            let t = mem.thread(0);
            let s = styled(&t, tiny, false);
            let mut h = s.handle(&t);
            (1..).find(|&k| h.apply(Insert(k)) == Some(1) && published(&s, &t)).unwrap()
        };
        // Ends on a `Contains`, so a frame that never entered the insert is
        // told apart from a completed one by its pc.
        let prefill: Vec<StructOp> = (1..trigger).map(Insert).chain([Contains(1)]).collect();
        for (compact, system) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut after_cas = 0;
            for k in 0.. {
                let build = |t: &PThread<'_>| styled(t, tiny, compact);
                let seen = testkit::die_at(build, system, &prefill, Insert(trigger), k, |s, t, h| {
                    let pc = h.runtime_mut().pc();
                    let linked = contains_routed(&s.sim.mem(t), s.dir, trigger);
                    let got = match pc {
                        C_DONE => h.apply(Insert(trigger)),
                        _ => bool_ret(h.runtime_mut().resume_op(|rt| s.insert_step(rt))),
                    };
                    assert_eq!(got, Some(1), "compact={compact} system={system} k={k} pc={pc}");
                    assert!(published(s, t), "k={k} pc={pc}: the resize trigger was lost");
                    let again = [Insert(trigger), Remove(trigger), Remove(trigger)].map(|op| h.apply(op));
                    assert_eq!(again, [Some(0), Some(1), Some(0)], "k={k}: linked exactly once");
                    (pc, linked)
                });
                match seen {
                    None => break,
                    Some(window) => after_cas += (window == (F_INSERT, true)) as u32,
                }
            }
            assert!(after_cas > 0, "compact={compact} system={system}");
        }
    }

    /// Two scheduled pids insert at the head of one chain through a trip-1
    /// policy: every lost fast CAS demotes its insert, which must re-enter
    /// `I_FIND`, abandon the fast node and still link exactly once.
    #[test]
    fn trip1_demotion_reenters_the_slow_insert_and_abandons_the_fast_node() {
        let trip1 = ContentionMeasure::new().with_threshold(1);
        // Descending keys: every insert's window is the bucket head.
        let keys = |pid: u64| (0..6).map(move |i| 1000 - 2 * i - pid);
        let ops = |pid: u64| keys(pid).map(Insert).collect::<Vec<_>>();
        let mut demotions = 0;
        for seed in 1..=6 {
            let build = |t: &PThread<'_>, n| {
                let cfg = MapConfig::new(1, 64);
                GeneralDetMap::new(t, n, cfg, true, BoundaryStyle::General).with_contention(trip1)
            };
            let (pids, left) = testkit::scheduled_pair(build, ops, seed);
            let mut expect: Vec<u64> = keys(0).chain(keys(1)).collect();
            expect.sort_unstable();
            assert_eq!(left.items, expect, "seed {seed}");
            for pid in &pids {
                testkit::assert_demotions_reentered_the_slow_machine(pid, NODE_WORDS);
                demotions += pid.0.demotions;
            }
        }
        assert!(demotions > 0, "the scheduled interleavings must lose a fast CAS");
    }
}
