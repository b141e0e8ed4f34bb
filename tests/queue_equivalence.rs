//! Cross-crate integration test: every FIFO variant of the harness — the plain
//! MSQ and its Izraelevitz construction, both transformations (their -Opt
//! configurations and their Izraelevitz-construction queues), the LogQueue and
//! the Romulus queue — is observationally equivalent to the reference FIFO
//! model on the same operation scripts.

use bench::dfck::{build, Shape, Variant};
use bench::sweep::Model;
use capsules::BoundaryStyle;
use pmem::{MemConfig, Mode, PMem};
use queues::{Durability, GeneralQueue, QueueHandle};
use structs::{MapConfig, StructOp};

/// A deterministic pseudo-random script mixing enqueues and dequeues.
fn random_script(len: usize, seed: u64) -> Vec<StructOp> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..len)
        .map(|i| {
            if next() % 3 == 0 {
                StructOp::Pop
            } else {
                StructOp::Push(i as u64)
            }
        })
        .collect()
}

fn scripts() -> Vec<Vec<StructOp>> {
    use StructOp::{Pop, Push};
    vec![
        vec![Pop, Push(1), Push(2), Pop, Pop, Pop],
        (1..=100).map(Push).chain((0..120).map(|_| Pop)).collect(),
        random_script(2_000, 7),
        random_script(2_000, 1234),
    ]
}

/// Builds each variant through the harness's one table with the variant's own
/// thread options and checks that it answers every operation of every script
/// as the model does.
fn assert_matches_model(variants: &[Variant]) {
    for &variant in variants {
        assert_eq!(variant.shape(), Shape::Fifo, "{}", variant.label());
        for (i, script) in scripts().iter().enumerate() {
            let mem = PMem::with_threads(1);
            let t = mem.thread_with(0, variant.thread_options());
            let nodes = script.len() as u64 + 8;
            let built = build(variant, &t, 1, MapConfig::tiny(), nodes, true, None);
            let mut h = built.handle(&t);
            let mut model = Model::initial(Shape::Fifo, &[]);
            for (k, &op) in script.iter().enumerate() {
                let label = variant.label();
                assert_eq!(
                    h.apply(op),
                    model.apply(op),
                    "{label}: script {i}, op {k} ({op:?})"
                );
            }
        }
    }
}

const MSQ: &[Variant] = &[Variant::Msq];
const IZRAELEVITZ_MSQ: &[Variant] = &[Variant::IzraelevitzMsq];
const GENERAL: &[Variant] = &[Variant::General, Variant::GeneralOpt];
const NORMALIZED: &[Variant] = &[Variant::Normalized, Variant::NormalizedOpt];
const IZRAELEVITZ_CAPSULES: &[Variant] =
    &[Variant::GeneralIzraelevitz, Variant::NormalizedIzraelevitz];
const LOG_QUEUE: &[Variant] = &[Variant::LogQueue];
const ROMULUS: &[Variant] = &[Variant::Romulus];

#[test]
fn msq_matches_model() {
    assert_matches_model(MSQ);
}

#[test]
fn izraelevitz_msq_matches_model() {
    assert_matches_model(IZRAELEVITZ_MSQ);
}

#[test]
fn general_and_general_opt_match_model() {
    assert_matches_model(GENERAL);
}

#[test]
fn normalized_and_normalized_opt_match_model() {
    assert_matches_model(NORMALIZED);
}

#[test]
fn izraelevitz_capsule_queues_match_model() {
    assert_matches_model(IZRAELEVITZ_CAPSULES);
}

#[test]
fn log_queue_matches_model() {
    assert_matches_model(LOG_QUEUE);
}

#[test]
fn romulus_queue_matches_model() {
    assert_matches_model(ROMULUS);
}

/// The tests above, together, check every FIFO entry of `Variant::all()`.
#[test]
fn every_fifo_variant_is_checked() {
    let checked: Vec<Variant> = [
        MSQ,
        IZRAELEVITZ_MSQ,
        GENERAL,
        NORMALIZED,
        IZRAELEVITZ_CAPSULES,
        LOG_QUEUE,
        ROMULUS,
    ]
    .concat();
    let fifo: Vec<Variant> = Variant::all()
        .into_iter()
        .filter(|v| v.shape() == Shape::Fifo)
        .collect();
    for v in &fifo {
        assert!(checked.contains(v), "{} has no model test", v.label());
    }
    assert_eq!(checked.len(), fifo.len());
}

#[test]
fn private_cache_model_needs_no_data_flushes_for_correctness() {
    // In the private-cache PPM model every store is immediately durable, so even
    // Durability::None queues (which issue no data-structure flushes at all — the
    // only flushes left are the capsule boundaries' own, which are no-ops in this
    // model) survive a crash with their full contents.
    let mem = PMem::new(MemConfig::new(1).mode(Mode::PrivateCache));
    let t = mem.thread(0);
    let q = GeneralQueue::new(&t, 1, Durability::None, BoundaryStyle::General);
    {
        let mut h = q.handle(&t);
        for i in 1..=50 {
            h.enqueue(i);
        }
    }
    let flushes_without_manual_durability = t.stats().flushes;
    mem.crash_all();
    let t = mem.thread(0);
    let mut h = q.handle(&t);
    for i in 1..=50 {
        assert_eq!(h.dequeue(), Some(i));
    }
    assert_eq!(h.dequeue(), None);
    // Sanity: the manual-durability configuration issues strictly more flushes for
    // the same work (the ones this model made unnecessary).
    let mem2 = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
    let t2 = mem2.thread(0);
    let q2 = GeneralQueue::new(&t2, 1, Durability::Manual, BoundaryStyle::General);
    {
        let mut h = q2.handle(&t2);
        for i in 1..=50 {
            h.enqueue(i);
        }
    }
    assert!(t2.stats().flushes > flushes_without_manual_durability);
}
