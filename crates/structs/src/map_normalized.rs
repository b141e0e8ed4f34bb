//! The "Normalized" detectable map: the bucketed protocol of
//! [`map`](crate::map) in Timnat & Petrank's three-part normalized form, run
//! through the Persistent Normalized Simulator of §7.
//!
//! The decomposition assigns each part exactly the role §7 prescribes:
//!
//! * the **generator** routes to the owning generation (performing any resize
//!   migration the route owes — freezes, copy inserts, cursor and directory
//!   installs are all parallelizable helping through the ctx's [`SharedMem`] face)
//!   and searches the bucket;
//! * the **executor** performs the operation's single linearizing CAS — the
//!   window link for an insert, the tombstone mark for a remove — with the
//!   recoverable CAS; always a one-entry list, so the inline-list optimisation
//!   applies;
//! * the **wrap-up** reports the result; a successful insert's wrap-up also
//!   runs the resize trigger (helping again — repetition-safe).
//!
//! The no-unlink tombstone policy (see the map module docs) means the remove
//! needs no unlink helping in its wrap-up, unlike the list set's.
//!
//! `contains` is a pure parallelizable method: its generator proposes an
//! empty CAS list and the wrap-up answers from a read-only routed traversal.

use capsules::{BoundaryStyle, CapsuleRuntime, ContentionMeasure};
use delayfree::{
    CasDesc, CasList, NormalizedCtx, NormalizedOp, NormalizedSimulator, SharedMem, WrapUp,
};
use pmem::{PAddr, PThread};
use rcas::RcasSpace;

use crate::api::{
    bool_ret, adaptive_builders, capsule_handles, normalized_simulator, single_cas_outcome, Capsuled, Drain, StructOp,
};
use crate::map::{
    alloc_gen, contains_routed, drain_map, find_routed, map_len, maybe_grow, menc, ChainLen,
    MapConfig, DEL, MAP_RCAS_LAYOUT,
};
use crate::node::{next_addr, value_addr, NODE_WORDS};

/// Number of user locals the handle's capsule runtime needs (inline CAS lists:
/// every map operation proposes at most one CAS).
pub const MAP_NORMALIZED_LOCALS: usize = delayfree::NORMALIZED_INLINE_LOCALS;

/// The shared, persistent part of the normalized map.
#[derive(Clone, Copy, Debug)]
pub struct NormalizedDetMap {
    dir: PAddr,
    cfg: MapConfig,
    sim: NormalizedSimulator,
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
    ) -> NormalizedDetMap {
        let space = RcasSpace::new(thread, nprocs, MAP_RCAS_LAYOUT).with_durability(manual);
        let sim = normalized_simulator(space, manual, optimised, true);
        let g = alloc_gen(&sim.mem(thread), cfg.initial_buckets);
        let dir = thread.alloc(1);
        space.init_word(thread, dir, g.to_raw());
        if manual {
            thread.persist(dir);
        }
        NormalizedDetMap { dir, cfg, sim }
    }

    /// The recoverable-CAS space used by this map.
    pub fn space(&self) -> &RcasSpace {
        self.sim.space()
    }

    /// Live-key count (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        map_len(&self.sim.mem(thread), self.dir)
    }
}

/// The normalized insert: the generator routes, searches and allocates the
/// node; the executor links it; the wrap-up reports and runs the resize
/// trigger. An empty CAS list means the key was already present.
struct MapInsertOp<'q>(&'q NormalizedDetMap);

impl NormalizedOp for MapInsertOp<'_> {
    type Input = u64;
    type Output = bool;

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, k: &u64) -> CasList {
        let m = ctx.mem();
        let (w, len) = find_routed(&m, self.0.dir, *k);
        if w.found {
            return Vec::new();
        }
        let node = m.alloc(NODE_WORDS);
        m.write_plain(value_addr(node), *k);
        m.init_word(next_addr(node), w.pred_enc);
        ctx.persist(node);
        vec![CasDesc::new(w.pred_addr, w.pred_enc, menc(node, 0)).with_aux(len.pack())]
    }

    fn wrap_up(
        &self,
        ctx: &mut NormalizedCtx<'_, '_, '_>,
        _k: &u64,
        cas_list: &CasList,
        executed: usize,
    ) -> WrapUp<bool> {
        let outcome = single_cas_outcome(cas_list, executed);
        if outcome == WrapUp::Done(true) {
            // Resize trigger (helping, repetition-safe): the chain measure rides
            // in the descriptor's aux word.
            let len = ChainLen::unpack(cas_list[0].aux);
            maybe_grow(&ctx.mem(), self.0.dir, len.plus_inserted(), self.0.cfg.max_chain);
        }
        outcome
    }
}

/// The normalized remove: the executor performs the tombstone mark — the
/// linearization point and, under the no-unlink policy, the whole protocol.
struct MapRemoveOp<'q>(&'q NormalizedDetMap);

impl NormalizedOp for MapRemoveOp<'_> {
    type Input = u64;
    type Output = bool;

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, k: &u64) -> CasList {
        let (w, _) = find_routed(&ctx.mem(), self.0.dir, *k);
        if !w.found {
            return Vec::new();
        }
        vec![CasDesc::new(next_addr(w.curr), w.curr_enc, w.curr_enc | DEL)]
    }

    fn wrap_up(
        &self,
        _ctx: &mut NormalizedCtx<'_, '_, '_>,
        _k: &u64,
        cas_list: &CasList,
        executed: usize,
    ) -> WrapUp<bool> {
        single_cas_outcome(cas_list, executed)
    }
}

/// The normalized contains: a pure parallelizable method (empty CAS list; the
/// wrap-up routes read-only and answers).
struct MapContainsOp<'q>(&'q NormalizedDetMap);

impl NormalizedOp for MapContainsOp<'_> {
    type Input = u64;
    type Output = bool;

    fn generator(&self, _ctx: &mut NormalizedCtx<'_, '_, '_>, _k: &u64) -> CasList {
        Vec::new()
    }

    fn wrap_up(
        &self,
        ctx: &mut NormalizedCtx<'_, '_, '_>,
        k: &u64,
        _cas_list: &CasList,
        _executed: usize,
    ) -> WrapUp<bool> {
        WrapUp::Done(contains_routed(&ctx.mem(), self.0.dir, *k))
    }
}

impl Capsuled for NormalizedDetMap {
    const LOCALS: usize = MAP_NORMALIZED_LOCALS;
    fn style(&self) -> BoundaryStyle {
        self.sim.style()
    }
    fn contention(&self) -> ContentionMeasure {
        self.sim.contention()
    }

    fn apply(&self, rt: &mut CapsuleRuntime<'_, '_>, op: StructOp) -> Option<u64> {
        let k = op.key();
        bool_ret(match op {
            StructOp::Insert(_) => self.sim.run(rt, &MapInsertOp(self), &k),
            StructOp::Remove(_) => self.sim.run(rt, &MapRemoveOp(self), &k),
            _ => self.sim.run(rt, &MapContainsOp(self), &k),
        })
    }

    fn drain_up_to(&self, rt: &mut CapsuleRuntime<'_, '_>, max: usize) -> Drain {
        drain_map(&self.sim.mem(rt.thread()), self.dir, max)
    }
}

capsule_handles!(NormalizedDetMap, NormalizedDetMapHandle);
adaptive_builders!(NormalizedDetMap);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::testkit;
    use StructOp::{Contains, Insert, Remove};

    fn styled(t: &PThread<'_>, cfg: MapConfig, optimised: bool) -> NormalizedDetMap {
        NormalizedDetMap::new(t, 1, cfg, true, optimised)
    }

    #[test]
    fn insert_remove_contains_single_thread_both_variants() {
        testkit::keyed_single_thread(|t, flag| styled(t, MapConfig::new(4, 64), flag), NormalizedDetMap::len);
    }

    #[test]
    fn growth_migrates_every_key_under_the_simulator() {
        testkit::keyed_growth(|t| styled(t, MapConfig::tiny(), false));
    }

    #[test]
    fn operations_survive_random_crashes_across_resizes() {
        let build = |t: &PThread<'_>, flag| styled(t, MapConfig::tiny(), flag);
        testkit::keyed_random_crashes(build, &[false, true], 53, (300, 11, 23));
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
}
