//! The "General" set: the Harris–Michael list transformed by the
//! Low-Computation-Delay (CAS-Read) simulator of §6.
//!
//! The shape differs from every other structure in the workspace: a remove is
//! a **two-CAS protocol**. Only the first CAS — the logical mark, the
//! operation's linearization point — needs exactly-once recovery, so only it
//! heads a CAS-Read capsule with the simulator's [`capsule_cas`]. The physical
//! unlink (and every unlink a traversal performs over marked nodes it walks) is
//! parallelizable helping: safe to repeat, harmless to lose, so it uses the
//! *anonymous* CAS exactly as §7 prescribes for generator/wrap-up CASes — it
//! neither consumes a sequence number nor clobbers the notification owed to a
//! competing executor CAS on the same word. Anonymous helping CASes inside the
//! read-only search capsules are sound for the same reason repetitions of
//! parallelizable methods are: re-executing the capsule after a crash re-runs
//! only operations whose repetition is invisible.
//!
//! The marked-pointer encodings occupy 33 bits, so the recoverable-CAS words
//! use [`SET_RCAS_LAYOUT`](crate::node::SET_RCAS_LAYOUT) rather than the
//! default 32-bit-value layout.
//!
//! [`capsule_cas`]: CasReadSimulator::capsule_cas

use capsules::{BoundaryStyle, CapsuleRuntime, CapsuleStep};
use delayfree::{CasReadSimulator, SharedMem};
use pmem::{PAddr, PThread};
use rcas::RcasSpace;

use crate::api::{bool_ret, capsule_handles, Capsuled, Drain, StructOp};
use crate::node::{enc, next_addr, value_addr, NODE_WORDS, SET_RCAS_LAYOUT};
use crate::set::{contains_in, find, len_of, snapshot_up_to};

// Persisted local slots (user indices).
const L_KEY: usize = 0;
const L_PRED_ADDR: usize = 1; // the word the insert/unlink CAS targets
const L_PRED_ENC: usize = 2; // its expected encoding (decodes to curr, unmarked)
const L_CURR_NEXT: usize = 3; // remove: address of curr's next word (mark target)
const L_CURR_ENC: usize = 4; // remove: curr's next encoding (unmarked) / contains: result
const L_NODE: usize = 5; // insert: the new node
const L_TICKET: usize = 6; // caller-supplied operation ticket (see `set_ticket`)
/// Number of user locals a handle's capsule runtime uses.
pub const SET_GENERAL_LOCALS: usize = 7;

// Insert program counters.
const I_FIND: u32 = 0;
const I_CAS: u32 = 1;
const I_DONE_TRUE: u32 = 2;
const I_DONE_FALSE: u32 = 3;
// Remove program counters.
const R_FIND: u32 = 10;
const R_MARK: u32 = 11;
const R_UNLINK: u32 = 12;
const R_DONE_TRUE: u32 = 13;
const R_DONE_FALSE: u32 = 14;
// Contains program counters.
const C_FIND: u32 = 20;
const C_DONE: u32 = 21;

/// The shared, persistent part of the transformed set.
#[derive(Clone, Copy, Debug)]
pub struct GeneralSet {
    head: PAddr,
    sim: CasReadSimulator,
}

impl GeneralSet {
    /// Create an empty set for `nprocs` processes. `manual` selects the
    /// hand-placed flush discipline (node persisted before publication, CAS
    /// targets persisted after, durable announcements in the rcas layer).
    pub fn new(thread: &PThread<'_>, nprocs: usize, manual: bool, style: BoundaryStyle) -> GeneralSet {
        let space = RcasSpace::new(thread, nprocs, SET_RCAS_LAYOUT).with_durability(manual);
        let head = thread.alloc(1);
        space.init_word(thread, head, 0);
        if manual {
            thread.persist(head);
        }
        let sim = CasReadSimulator::new(space).with_durable(manual).with_style(style);
        GeneralSet { head, sim }
    }

    /// The recoverable-CAS space used by this set.
    pub fn space(&self) -> &RcasSpace {
        self.sim.space()
    }

    /// Count the unmarked keys (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        len_of(&self.sim.mem(thread), self.head)
    }

    // ----- capsule bodies --------------------------------------------------------
    //
    // One function per operation, dispatching on the runtime's pc. Kept as named
    // methods (rather than closures inside insert/remove/contains) so that
    // `resume_interrupted` can re-enter the same state machine from whatever pc a
    // previous incarnation persisted.

    /// One insert capsule (entry pc [`I_FIND`]).
    fn insert_step(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CapsuleStep<bool> {
        let sim = &self.sim;
        match rt.pc() {
            // Search capsule (reads + anonymous helping): locate the window,
            // allocate and initialise the node.
            I_FIND => {
                let k = rt.local(L_KEY);
                let m = sim.mem(rt.thread());
                let w = find(&m, self.head, k);
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
                rt.boundary(I_CAS);
                CapsuleStep::Continue
            }
            // CAS-Read capsule: link the node into the window.
            I_CAS => {
                let pred_addr = rt.local_addr(L_PRED_ADDR);
                let expected = rt.local(L_PRED_ENC);
                let node = rt.local_addr(L_NODE);
                if sim.capsule_cas(rt, pred_addr, expected, enc(node, false)) {
                    rt.finish_boundary(I_DONE_TRUE);
                    CapsuleStep::Done(true)
                } else {
                    rt.boundary(I_FIND);
                    CapsuleStep::Continue
                }
            }
            I_DONE_TRUE => CapsuleStep::Done(true),
            I_DONE_FALSE => CapsuleStep::Done(false),
            pc => unreachable!("general set insert: unexpected pc {pc}"),
        }
    }

    /// One remove capsule (entry pc [`R_FIND`]).
    fn remove_step(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CapsuleStep<bool> {
        let sim = &self.sim;
        match rt.pc() {
            // Search capsule: locate the victim's window.
            R_FIND => {
                let k = rt.local(L_KEY);
                let w = find(&sim.mem(rt.thread()), self.head, k);
                if !w.found {
                    rt.finish_boundary(R_DONE_FALSE);
                    return CapsuleStep::Done(false);
                }
                rt.set_local_addr(L_PRED_ADDR, w.pred_addr);
                rt.set_local(L_PRED_ENC, w.pred_enc);
                rt.set_local_addr(L_CURR_NEXT, next_addr(w.curr));
                rt.set_local(L_CURR_ENC, w.curr_enc);
                rt.boundary(R_MARK);
                CapsuleStep::Continue
            }
            // CAS-Read capsule: the logical mark — the linearization point,
            // and the only CAS of the protocol that needs exactly-once
            // recovery.
            R_MARK => {
                let curr_next = rt.local_addr(L_CURR_NEXT);
                let curr_enc = rt.local(L_CURR_ENC);
                if sim.capsule_cas(rt, curr_next, curr_enc, curr_enc | 1) {
                    rt.boundary(R_UNLINK);
                } else {
                    rt.boundary(R_FIND);
                }
                CapsuleStep::Continue
            }
            // Helping capsule: best-effort physical unlink (anonymous CAS —
            // repetition-safe, loss-tolerant; traversals finish the job).
            R_UNLINK => {
                let pred_addr = rt.local_addr(L_PRED_ADDR);
                let pred_enc = rt.local(L_PRED_ENC);
                let curr_enc = rt.local(L_CURR_ENC);
                sim.mem(rt.thread()).help_cas_flush(pred_addr, pred_enc, curr_enc);
                rt.finish_boundary(R_DONE_TRUE);
                CapsuleStep::Done(true)
            }
            R_DONE_TRUE => CapsuleStep::Done(true),
            R_DONE_FALSE => CapsuleStep::Done(false),
            pc => unreachable!("general set remove: unexpected pc {pc}"),
        }
    }

    /// One contains capsule (entry pc [`C_FIND`]).
    fn contains_step(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CapsuleStep<bool> {
        match rt.pc() {
            C_FIND => {
                let k = rt.local(L_KEY);
                let found = contains_in(&self.sim.mem(rt.thread()), self.head, k);
                rt.set_local(L_CURR_ENC, found as u64);
                rt.finish_boundary(C_DONE);
                CapsuleStep::Done(found)
            }
            C_DONE => CapsuleStep::Done(rt.local(L_CURR_ENC) != 0),
            pc => unreachable!("general set contains: unexpected pc {pc}"),
        }
    }
}

impl Capsuled for GeneralSet {
    const LOCALS: usize = SET_GENERAL_LOCALS;
    fn style(&self) -> BoundaryStyle {
        self.sim.style()
    }

    fn apply(&self, rt: &mut CapsuleRuntime<'_, '_>, op: StructOp) -> Option<u64> {
        rt.set_local(L_KEY, op.key());
        bool_ret(match op {
            StructOp::Insert(_) => rt.run_op(I_FIND, |rt| self.insert_step(rt)),
            StructOp::Remove(_) => rt.run_op(R_FIND, |rt| self.remove_step(rt)),
            _ => rt.run_op(C_FIND, |rt| self.contains_step(rt)),
        })
    }

    fn drain_up_to(&self, rt: &mut CapsuleRuntime<'_, '_>, max: usize) -> Drain {
        snapshot_up_to(&self.sim.mem(rt.thread()), self.head, max)
    }
}

capsule_handles!(GeneralSet, GeneralSetHandle);

impl GeneralSet {
    /// Stamp the next operation of the handle owning `rt` with a caller-chosen
    /// ticket. The ticket is a persisted local like the key: the operation's
    /// entry boundary makes it durable together with the arguments, and it
    /// survives in the frame until a later operation's entry boundary
    /// overwrites it. A harness that tags every request with a unique nonzero
    /// ticket can therefore tell, after a kill, *which* request the frame's
    /// state belongs to — the disambiguation
    /// [`resume_interrupted`](Self::resume_interrupted) reports back.
    pub fn set_ticket(&self, rt: &mut CapsuleRuntime<'_, '_>, ticket: u64) {
        rt.set_local(L_TICKET, ticket);
    }

    /// After [`GeneralSet::attach_handle`], finish whatever the previous
    /// incarnation left in the handle's frame (`rt` is the handle's
    /// [`runtime_mut`](delayfree::Handle::runtime_mut)).
    ///
    /// Reads the persisted program counter and dispatches:
    /// * mid-operation pc → drives the interrupted operation to completion with
    ///   [`CapsuleRuntime::resume_op`] (`resumed == true`);
    /// * result pc → the operation completed before the crash but its result may
    ///   never have been delivered; the persisted result is read back
    ///   (`resumed == false`);
    /// * virgin frame (nothing ever ran: pc at the insert entry with a zero
    ///   ticket) → `None`.
    ///
    /// Exactly-once falls out of the capsule machinery: a resumed operation
    /// takes effect once no matter how far it had progressed, and a completed
    /// one is only *read*, never re-applied. The caller matches the returned
    /// ticket against its own in-flight record to decide whether the resumption
    /// answers an outstanding request or predates it.
    pub fn resume_interrupted(&self, rt: &mut CapsuleRuntime<'_, '_>) -> Option<Resumption> {
        let pc = rt.pc();
        let ticket = rt.local(L_TICKET);
        let key = rt.local(L_KEY);
        if pc == I_FIND && ticket == 0 {
            // A frame in its initial state: entry pc, never stamped. (Callers
            // that never use tickets get `insert(key)` resumed via the arm
            // below only when they opt in by stamping a nonzero ticket.)
            return None;
        }
        let (op, result, resumed) = match pc {
            I_FIND | I_CAS => {
                let r = rt.resume_op(|rt| self.insert_step(rt));
                (StructOp::Insert(key), r, true)
            }
            R_FIND | R_MARK | R_UNLINK => {
                let r = rt.resume_op(|rt| self.remove_step(rt));
                (StructOp::Remove(key), r, true)
            }
            C_FIND => {
                let r = rt.resume_op(|rt| self.contains_step(rt));
                (StructOp::Contains(key), r, true)
            }
            I_DONE_TRUE | I_DONE_FALSE => (StructOp::Insert(key), pc == I_DONE_TRUE, false),
            R_DONE_TRUE | R_DONE_FALSE => (StructOp::Remove(key), pc == R_DONE_TRUE, false),
            C_DONE => (StructOp::Contains(key), rt.local(L_CURR_ENC) != 0, false),
            pc => unreachable!("general set resume: unexpected persisted pc {pc}"),
        };
        Some(Resumption {
            ticket,
            op,
            result,
            resumed,
        })
    }
}

/// What [`GeneralSet::resume_interrupted`] found in a re-attached frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resumption {
    /// The ticket the operation's entry boundary persisted (`0` if the caller
    /// never stamped one).
    pub ticket: u64,
    /// The operation the frame describes.
    pub op: StructOp,
    /// Its exactly-once result.
    pub result: bool,
    /// `true` if the operation was still in flight and was driven to completion
    /// here; `false` if it had already completed and only its persisted result
    /// was read back.
    pub resumed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{testkit, StructHandle};
    use pmem::{install_quiet_crash_hook, CrashPolicy, MemConfig, Mode, PMem};
    use StructOp::{Contains, Insert, Remove};

    fn styled(t: &PThread<'_>, nprocs: usize, compact: bool) -> GeneralSet {
        GeneralSet::new(t, nprocs, true, BoundaryStyle::opt(compact))
    }

    #[test]
    fn insert_remove_contains_single_thread_both_styles() {
        testkit::keyed_single_thread(|t, compact| styled(t, 1, compact), GeneralSet::len);
    }

    #[test]
    fn concurrent_same_key_contention_is_exact() {
        testkit::keyed_contention(|t, nprocs| styled(t, nprocs, false));
    }

    #[test]
    fn operations_survive_random_crashes() {
        testkit::keyed_random_crashes(|t, c| styled(t, 1, c), &[false], 41, (400, 7, 13));
    }

    #[test]
    fn manual_durability_survives_full_system_crash() {
        let ops = [Insert(9), Insert(2), Insert(6), Remove(6)];
        testkit::survives_full_system_crash(|t| styled(t, 1, false), &ops, &[2, 9], true);
    }

    #[test]
    fn kill_mid_operation_then_resume_in_next_incarnation_is_exactly_once() {
        install_quiet_crash_hook();
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t0 = mem.thread(0);
        let s = GeneralSet::new(&t0, 1, true, BoundaryStyle::General);
        drop(t0);
        // Incarnation 1: one completed op, then an insert killed mid-flight.
        {
            let t = mem.thread(0);
            let mut h = s.handle(&t);
            s.set_ticket(h.runtime_mut(), 1);
            assert_eq!(h.apply(Insert(40)), Some(1));
            h.runtime_mut().set_unwind_on_crash(true);
            s.set_ticket(h.runtime_mut(), 2);
            t.set_crash_policy(CrashPolicy::Countdown(20));
            let died = pmem::catch_crash(std::panic::AssertUnwindSafe(|| h.apply(Insert(41))));
            assert!(died.is_err(), "the kill must unwind out of the insert");
        }
        mem.crash_all();
        // Incarnation 2: re-attach, finish the interrupted insert exactly once.
        {
            let t = mem.thread(0);
            let mut h = s.attach_handle(&t);
            let r = s.resume_interrupted(h.runtime_mut()).expect("an operation was in flight");
            assert_eq!(r.ticket, 2);
            assert_eq!(r.op, StructOp::Insert(41));
            assert!(r.result, "41 was absent, the resumed insert must report true");
            assert!(r.resumed);
            assert_eq!(h.drain_up_to(8).items, vec![40, 41]);
        }
        // Incarnation 3: nothing in flight — the frame shows the *completed*
        // resumed insert; its persisted result reads back without re-applying.
        mem.crash_all();
        let t = mem.thread(0);
        let mut h = s.attach_handle(&t);
        let r = s.resume_interrupted(h.runtime_mut()).expect("frame holds the completed op");
        assert_eq!(r.ticket, 2);
        assert_eq!(r.op, StructOp::Insert(41));
        assert!(r.result && !r.resumed);
        assert_eq!(h.drain_up_to(8).items, vec![40, 41], "readback must not re-insert");
    }

    /// Exercises both the one-CAS insert and the two-CAS remove protocols.
    #[test]
    fn exhaustive_crash_point_sweep_is_exact() {
        testkit::exhaustive_crash_point_sweep(
            |t| styled(t, 1, false),
            &[Insert(10), Insert(20)],
            &[Insert(15), Insert(15), Remove(10), Contains(15), Remove(99)],
            (vec![Some(1), Some(0), Some(1), Some(1), Some(0)], vec![15, 20]),
        );
    }
}
