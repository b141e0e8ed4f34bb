//! The per-operation cost table of the structure family, pinned exactly.
//!
//! Every queue, stack, set and map operation, in both detectable
//! constructions, on the fast path and pinned to the slow path
//! (`with_adaptive(false)`; the list set has only the slow path), on one
//! thread with the operation boundaries on: flushes, fences, capsule
//! boundaries and pmem instructions (reads, writes, CASes, flushes and
//! fences) of each operation of a fixed script.
//! The counts are deterministic, so a driver refactor that moves a single
//! instruction fails here, in tier 1, rather than only in a `dfck` or
//! `dfbench` run.
//!
//! A second table pins the figure workload of every variant of the harness
//! (`bench::run_workload`, one thread): flushes, fences and duplicate flushes
//! per operation — supplementary table S1, the counts §10 explains its
//! throughput gaps by, and the PPM model's cost measure.
//!
//! A third table pins the design-choice ablations of DESIGN.md §4
//! (`bench::ablation`, the loops `instr_overhead` times): recoverable-CAS
//! encodings, boundary styles and writable CAS objects against plain words.

use bench::dfck::Variant;
use bench::{run_workload, WorkloadConfig};
use capsules::BoundaryStyle;
use pmem::{MemConfig, Mode, PMem, PThread};
use queues::{Durability, GeneralQueue, NormalizedQueue};
use structs::{
    GeneralDetMap, GeneralSet, GeneralStack, MapConfig, NormalizedDetMap, NormalizedSet,
    NormalizedStack, StructHandle, StructOp,
};
use StructOp::{Contains, Insert, Pop, Push, Remove};

const PUSH_POP: &[StructOp] = &[Push(1), Push(2), Pop, Pop, Pop];
const KEYED: &[StructOp] = &[
    Insert(5),
    Insert(3),
    Insert(5),
    Contains(5),
    Contains(4),
    Remove(5),
    Remove(5),
    Insert(5),
];

/// One table line per operation of `script` run on `h`.
fn rows(label: &str, t: &PThread<'_>, h: &mut dyn StructHandle, script: &[StructOp]) -> String {
    let mut out = String::new();
    for &op in script {
        let (s0, m0) = (t.stats(), h.capsule_metrics().unwrap());
        h.apply(op);
        let (s, m) = (t.stats().since(&s0), h.capsule_metrics().unwrap());
        let b = m.boundaries - m0.boundaries;
        out.push_str(&format!(
            "{label:<26} {:<12} flushes {:>2} fences {:>2} boundaries {} instr {:>3}\n",
            format!("{op:?}"),
            s.flushes,
            s.fences,
            b,
            s.steps()
        ));
    }
    out
}

/// Append the rows of `script` run on a fresh one-thread machine by a handle of
/// the structure `$build` makes on thread `$t`.
macro_rules! block {
    ($out:ident, $label:expr, $script:expr, |$t:ident| $build:expr) => {{
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let $t = mem.thread(0);
        let s = $build;
        $out.push_str(&rows(&$label, &$t, &mut s.handle(&$t), $script));
    }};
}

/// The whole table, one block per structure configuration.
fn table() -> String {
    let mut out = String::new();
    let map = MapConfig::new(4, 64);
    for (opt, style) in [
        ("", BoundaryStyle::General),
        ("-Opt", BoundaryStyle::Compact),
    ] {
        let compact = style == BoundaryStyle::Compact;
        for (slow, adaptive) in [("", true), ("-slow", false)] {
            block!(out, format!("Stack-General{opt}{slow}"), PUSH_POP, |t| {
                GeneralStack::new(&t, 1, true, style).with_adaptive(adaptive)
            });
            block!(out, format!("Stack-Normalized{opt}{slow}"), PUSH_POP, |t| {
                NormalizedStack::new(&t, 1, true, compact).with_adaptive(adaptive)
            });
            block!(out, format!("Map-General{opt}{slow}"), KEYED, |t| {
                GeneralDetMap::new(&t, 1, map, true, style).with_adaptive(adaptive)
            });
            block!(out, format!("Map-Normalized{opt}{slow}"), KEYED, |t| {
                NormalizedDetMap::new(&t, 1, map, true, compact).with_adaptive(adaptive)
            });
        }
        block!(
            out,
            format!("Set-General{opt}"),
            KEYED,
            |t| GeneralSet::new(&t, 1, true, style)
        );
        block!(out, format!("Set-Normalized{opt}"), KEYED, |t| {
            NormalizedSet::new(&t, 1, true, compact)
        });
    }
    for (opt, style) in [
        ("", BoundaryStyle::General),
        ("-Opt", BoundaryStyle::Compact),
    ] {
        let compact = style == BoundaryStyle::Compact;
        for (slow, adaptive) in [("", true), ("-slow", false)] {
            block!(out, format!("Queue-General{opt}{slow}"), PUSH_POP, |t| {
                GeneralQueue::new(&t, 1, Durability::Manual, style).with_adaptive(adaptive)
            });
            block!(out, format!("Queue-Normalized{opt}{slow}"), PUSH_POP, |t| {
                NormalizedQueue::new(&t, 1, Durability::Manual, compact).with_adaptive(adaptive)
            });
        }
    }
    out
}

#[test]
fn every_operation_costs_exactly_its_pinned_counts() {
    let table = table();
    for (i, (got, want)) in table.lines().zip(EXPECTED.lines()).enumerate() {
        assert_eq!(got, want, "row {i} of the cost table moved");
    }
    assert_eq!(table.lines().count(), EXPECTED.lines().count());
}

/// The per-variant table: each variant's figure workload (queues and stacks
/// enqueue–dequeue / push–pop pairs, sets and maps insert–contains–remove
/// rounds; queue handles elide their operation boundaries as §10 measures
/// them) on one thread, 2000 rounds over a 500-element prefill. Six decimals
/// tell apart any two per-op values over 4000 or 6000 operations.
fn variant_table() -> String {
    let cfg = WorkloadConfig {
        threads: 1,
        pairs_per_thread: 2000,
        prefill: 500,
    };
    let mut out = String::new();
    for variant in Variant::all() {
        let m = run_workload(variant, &cfg);
        out.push_str(&format!(
            "{:<26} flushes/op {:>9.6} fences/op {:>9.6} dup-flushes/op {:.6}\n",
            variant.label(),
            m.flushes_per_op,
            m.fences_per_op,
            m.duplicate_flushes_per_op
        ));
    }
    out
}

#[test]
fn every_variant_costs_exactly_its_pinned_counts_per_op() {
    let table = variant_table();
    assert!(
        table == EXPECTED_PER_VARIANT,
        "a variant's per-op counts moved; the table now reads:\n{table}"
    );
}

/// The pinned per-variant table. The ten queue rows are table S1: with their
/// boundaries elided the capsule queues pay about 3.5 flushes per operation,
/// the durable MSQ 6 and the LogQueue 5; the stack, set and map rows keep
/// their boundaries.
const EXPECTED_PER_VARIANT: &str = "\
MSQ                        flushes/op  0.000000 fences/op  0.000000 dup-flushes/op 0.000000
MSQ-Izraelevitz            flushes/op  6.000000 fences/op  2.000000 dup-flushes/op 1.750500
General (Izraelevitz)      flushes/op 13.001500 fences/op  9.001000 dup-flushes/op 1.750250
Normalized (Izraelevitz)   flushes/op 13.001750 fences/op  9.001000 dup-flushes/op 1.750250
General                    flushes/op  3.500750 fences/op  2.500750 dup-flushes/op 0.000000
General-Opt                flushes/op  3.500500 fences/op  1.500750 dup-flushes/op 0.000000
Normalized                 flushes/op  3.501000 fences/op  2.500750 dup-flushes/op 0.000000
Normalized-Opt             flushes/op  3.500500 fences/op  2.500750 dup-flushes/op 0.000000
LogQueue                   flushes/op  5.000000 fences/op  4.000000 dup-flushes/op 0.000000
Romulus                    flushes/op 10.000000 fences/op  6.000000 dup-flushes/op 0.000000
Stack-Izraelevitz          flushes/op  4.000000 fences/op  2.000000 dup-flushes/op 0.500000
Stack-General              flushes/op  5.501000 fences/op  4.000750 dup-flushes/op 0.000000
Stack-Normalized           flushes/op  5.501000 fences/op  4.000500 dup-flushes/op 0.000000
Set-Izraelevitz            flushes/op 67.282667 fences/op  1.666667 dup-flushes/op 43.832167
Set-General                flushes/op  7.678167 fences/op  6.667167 dup-flushes/op 0.000000
Set-Normalized             flushes/op  8.511500 fences/op  6.667167 dup-flushes/op 0.000000
Map-Izraelevitz            flushes/op 25.782833 fences/op  7.363167 dup-flushes/op 8.444167
Map-General                flushes/op  8.297000 fences/op  4.658000 dup-flushes/op 0.000000
Map-Normalized             flushes/op  7.630333 fences/op  4.657833 dup-flushes/op 0.000000
";

/// The pinned table. Each operation is declared once and placed by both
/// simulators, so the General and Normalized rows differ only where the
/// placements do: the §6 read-only + CAS-Read capsules keep the CAS's fields
/// in the frame, Algorithm 4 keeps the CAS list inline, and the General set's
/// `Remove` unlinks inside its mark capsule. A map `Contains` is read-only and
/// runs outside the frame under both: no boundary, no flush, its search alone.
/// The set's `Contains` still pays its boundaries. A fast operation whose CAS
/// took effect pays its entry boundary alone: its evidence stands for its
/// result until the next entry boundary retires it, which then persists the
/// sequence number it advanced (an empty `Pop` right after a `Pop` pays that
/// slot's flush and fence in the General frame). The queue's operations are
/// declared the same way: its tail is a plain word advanced by the wrap-up's
/// (and the generator's) helping, never by a capsule of its own, so a slow
/// General operation takes the same three boundaries as a Normalized one. A
/// push, enqueue or insert flushes its new node with no fence of its own: the
/// fence its placement issues anyway orders it (the announcement's before a
/// fast CAS, a General boundary's before its control store), so only the
/// Compact slow rows pay one for it.
const EXPECTED: &str = "\
Stack-General              Push(1)      flushes  5 fences  4 boundaries 1 instr  23
Stack-General              Push(2)      flushes  6 fences  4 boundaries 1 instr  26
Stack-General              Pop          flushes  5 fences  4 boundaries 1 instr  24
Stack-General              Pop          flushes  5 fences  4 boundaries 1 instr  24
Stack-General              Pop          flushes  3 fences  3 boundaries 2 instr  12
Stack-Normalized           Push(1)      flushes  4 fences  3 boundaries 1 instr  20
Stack-Normalized           Push(2)      flushes  6 fences  4 boundaries 1 instr  25
Stack-Normalized           Pop          flushes  5 fences  4 boundaries 1 instr  24
Stack-Normalized           Pop          flushes  5 fences  4 boundaries 1 instr  24
Stack-Normalized           Pop          flushes  4 fences  4 boundaries 2 instr  15
Map-General                Insert(5)    flushes  5 fences  4 boundaries 1 instr  26
Map-General                Insert(3)    flushes  6 fences  4 boundaries 1 instr  28
Map-General                Insert(5)    flushes  4 fences  3 boundaries 2 instr  19
Map-General                Contains(5)  flushes  0 fences  0 boundaries 0 instr   6
Map-General                Contains(4)  flushes  0 fences  0 boundaries 0 instr   6
Map-General                Remove(5)    flushes  4 fences  4 boundaries 1 instr  25
Map-General                Remove(5)    flushes  3 fences  3 boundaries 2 instr  17
Map-General                Insert(5)    flushes  6 fences  4 boundaries 1 instr  29
Map-Normalized             Insert(5)    flushes  4 fences  3 boundaries 1 instr  23
Map-Normalized             Insert(3)    flushes  5 fences  4 boundaries 1 instr  26
Map-Normalized             Insert(5)    flushes  4 fences  4 boundaries 2 instr  20
Map-Normalized             Contains(5)  flushes  0 fences  0 boundaries 0 instr   6
Map-Normalized             Contains(4)  flushes  0 fences  0 boundaries 0 instr   6
Map-Normalized             Remove(5)    flushes  3 fences  3 boundaries 1 instr  22
Map-Normalized             Remove(5)    flushes  4 fences  4 boundaries 2 instr  19
Map-Normalized             Insert(5)    flushes  5 fences  3 boundaries 1 instr  26
Stack-General-slow         Push(1)      flushes 10 fences  8 boundaries 3 instr  34
Stack-General-slow         Push(2)      flushes 10 fences  8 boundaries 3 instr  35
Stack-General-slow         Pop          flushes  9 fences  7 boundaries 3 instr  33
Stack-General-slow         Pop          flushes  8 fences  7 boundaries 3 instr  32
Stack-General-slow         Pop          flushes  2 fences  2 boundaries 2 instr   9
Stack-Normalized-slow      Push(1)      flushes  9 fences  7 boundaries 3 instr  36
Stack-Normalized-slow      Push(2)      flushes 10 fences  7 boundaries 3 instr  38
Stack-Normalized-slow      Pop          flushes  9 fences  7 boundaries 3 instr  37
Stack-Normalized-slow      Pop          flushes  9 fences  7 boundaries 3 instr  37
Stack-Normalized-slow      Pop          flushes  5 fences  5 boundaries 3 instr  20
Map-General-slow           Insert(5)    flushes 10 fences  8 boundaries 3 instr  39
Map-General-slow           Insert(3)    flushes 10 fences  8 boundaries 3 instr  39
Map-General-slow           Insert(5)    flushes  3 fences  3 boundaries 2 instr  17
Map-General-slow           Contains(5)  flushes  0 fences  0 boundaries 0 instr   6
Map-General-slow           Contains(4)  flushes  0 fences  0 boundaries 0 instr   6
Map-General-slow           Remove(5)    flushes  8 fences  8 boundaries 3 instr  35
Map-General-slow           Remove(5)    flushes  3 fences  3 boundaries 2 instr  16
Map-General-slow           Insert(5)    flushes 11 fences  8 boundaries 3 instr  42
Map-Normalized-slow        Insert(5)    flushes  9 fences  7 boundaries 3 instr  39
Map-Normalized-slow        Insert(3)    flushes  9 fences  7 boundaries 3 instr  39
Map-Normalized-slow        Insert(5)    flushes  5 fences  5 boundaries 3 instr  25
Map-Normalized-slow        Contains(5)  flushes  0 fences  0 boundaries 0 instr   6
Map-Normalized-slow        Contains(4)  flushes  0 fences  0 boundaries 0 instr   6
Map-Normalized-slow        Remove(5)    flushes 10 fences  7 boundaries 3 instr  40
Map-Normalized-slow        Remove(5)    flushes  5 fences  5 boundaries 3 instr  24
Map-Normalized-slow        Insert(5)    flushes 10 fences  7 boundaries 3 instr  42
Set-General                Insert(5)    flushes  9 fences  8 boundaries 3 instr  34
Set-General                Insert(3)    flushes 10 fences  8 boundaries 3 instr  38
Set-General                Insert(5)    flushes  3 fences  3 boundaries 2 instr  16
Set-General                Contains(5)  flushes  3 fences  3 boundaries 2 instr  16
Set-General                Contains(4)  flushes  3 fences  3 boundaries 2 instr  16
Set-General                Remove(5)    flushes  9 fences  8 boundaries 3 instr  38
Set-General                Remove(5)    flushes  3 fences  3 boundaries 2 instr  14
Set-General                Insert(5)    flushes 10 fences  8 boundaries 3 instr  37
Set-Normalized             Insert(5)    flushes  9 fences  7 boundaries 3 instr  36
Set-Normalized             Insert(3)    flushes 10 fences  7 boundaries 3 instr  40
Set-Normalized             Insert(5)    flushes  5 fences  5 boundaries 3 instr  24
Set-Normalized             Contains(5)  flushes  5 fences  5 boundaries 3 instr  24
Set-Normalized             Contains(4)  flushes  5 fences  5 boundaries 3 instr  24
Set-Normalized             Remove(5)    flushes 11 fences  7 boundaries 3 instr  42
Set-Normalized             Remove(5)    flushes  5 fences  5 boundaries 3 instr  22
Set-Normalized             Insert(5)    flushes  9 fences  7 boundaries 3 instr  38
Stack-General-Opt          Push(1)      flushes  4 fences  3 boundaries 1 instr  21
Stack-General-Opt          Push(2)      flushes  5 fences  3 boundaries 1 instr  22
Stack-General-Opt          Pop          flushes  4 fences  3 boundaries 1 instr  20
Stack-General-Opt          Pop          flushes  4 fences  3 boundaries 1 instr  20
Stack-General-Opt          Pop          flushes  2 fences  2 boundaries 2 instr   8
Stack-Normalized-Opt       Push(1)      flushes  4 fences  3 boundaries 1 instr  20
Stack-Normalized-Opt       Push(2)      flushes  5 fences  3 boundaries 1 instr  21
Stack-Normalized-Opt       Pop          flushes  4 fences  3 boundaries 1 instr  20
Stack-Normalized-Opt       Pop          flushes  4 fences  3 boundaries 1 instr  20
Stack-Normalized-Opt       Pop          flushes  2 fences  2 boundaries 2 instr   9
Map-General-Opt            Insert(5)    flushes  4 fences  3 boundaries 1 instr  24
Map-General-Opt            Insert(3)    flushes  4 fences  3 boundaries 1 instr  23
Map-General-Opt            Insert(5)    flushes  2 fences  2 boundaries 2 instr  14
Map-General-Opt            Contains(5)  flushes  0 fences  0 boundaries 0 instr   6
Map-General-Opt            Contains(4)  flushes  0 fences  0 boundaries 0 instr   6
Map-General-Opt            Remove(5)    flushes  3 fences  3 boundaries 1 instr  23
Map-General-Opt            Remove(5)    flushes  2 fences  2 boundaries 2 instr  13
Map-General-Opt            Insert(5)    flushes  5 fences  3 boundaries 1 instr  27
Map-Normalized-Opt         Insert(5)    flushes  4 fences  3 boundaries 1 instr  23
Map-Normalized-Opt         Insert(3)    flushes  4 fences  3 boundaries 1 instr  22
Map-Normalized-Opt         Insert(5)    flushes  2 fences  2 boundaries 2 instr  14
Map-Normalized-Opt         Contains(5)  flushes  0 fences  0 boundaries 0 instr   6
Map-Normalized-Opt         Contains(4)  flushes  0 fences  0 boundaries 0 instr   6
Map-Normalized-Opt         Remove(5)    flushes  3 fences  3 boundaries 1 instr  22
Map-Normalized-Opt         Remove(5)    flushes  2 fences  2 boundaries 2 instr  13
Map-Normalized-Opt         Insert(5)    flushes  5 fences  3 boundaries 1 instr  26
Stack-General-Opt-slow     Push(1)      flushes  6 fences  5 boundaries 3 instr  25
Stack-General-Opt-slow     Push(2)      flushes  7 fences  5 boundaries 3 instr  27
Stack-General-Opt-slow     Pop          flushes  6 fences  4 boundaries 3 instr  25
Stack-General-Opt-slow     Pop          flushes  6 fences  4 boundaries 3 instr  25
Stack-General-Opt-slow     Pop          flushes  2 fences  2 boundaries 2 instr   9
Stack-Normalized-Opt-slow  Push(1)      flushes  6 fences  6 boundaries 3 instr  30
Stack-Normalized-Opt-slow  Push(2)      flushes  7 fences  6 boundaries 3 instr  32
Stack-Normalized-Opt-slow  Pop          flushes  6 fences  5 boundaries 3 instr  30
Stack-Normalized-Opt-slow  Pop          flushes  6 fences  5 boundaries 3 instr  30
Stack-Normalized-Opt-slow  Pop          flushes  3 fences  3 boundaries 3 instr  16
Map-General-Opt-slow       Insert(5)    flushes  6 fences  5 boundaries 3 instr  30
Map-General-Opt-slow       Insert(3)    flushes  6 fences  5 boundaries 3 instr  30
Map-General-Opt-slow       Insert(5)    flushes  2 fences  2 boundaries 2 instr  15
Map-General-Opt-slow       Contains(5)  flushes  0 fences  0 boundaries 0 instr   6
Map-General-Opt-slow       Contains(4)  flushes  0 fences  0 boundaries 0 instr   6
Map-General-Opt-slow       Remove(5)    flushes  5 fences  4 boundaries 3 instr  26
Map-General-Opt-slow       Remove(5)    flushes  2 fences  2 boundaries 2 instr  14
Map-General-Opt-slow       Insert(5)    flushes  7 fences  5 boundaries 3 instr  33
Map-Normalized-Opt-slow    Insert(5)    flushes  6 fences  6 boundaries 3 instr  33
Map-Normalized-Opt-slow    Insert(3)    flushes  6 fences  6 boundaries 3 instr  33
Map-Normalized-Opt-slow    Insert(5)    flushes  3 fences  3 boundaries 3 instr  21
Map-Normalized-Opt-slow    Contains(5)  flushes  0 fences  0 boundaries 0 instr   6
Map-Normalized-Opt-slow    Contains(4)  flushes  0 fences  0 boundaries 0 instr   6
Map-Normalized-Opt-slow    Remove(5)    flushes  5 fences  5 boundaries 3 instr  31
Map-Normalized-Opt-slow    Remove(5)    flushes  3 fences  3 boundaries 3 instr  20
Map-Normalized-Opt-slow    Insert(5)    flushes  7 fences  6 boundaries 3 instr  36
Set-General-Opt            Insert(5)    flushes  6 fences  5 boundaries 3 instr  26
Set-General-Opt            Insert(3)    flushes  7 fences  5 boundaries 3 instr  30
Set-General-Opt            Insert(5)    flushes  2 fences  2 boundaries 2 instr  14
Set-General-Opt            Contains(5)  flushes  2 fences  2 boundaries 2 instr  14
Set-General-Opt            Contains(4)  flushes  2 fences  2 boundaries 2 instr  14
Set-General-Opt            Remove(5)    flushes  6 fences  4 boundaries 3 instr  29
Set-General-Opt            Remove(5)    flushes  2 fences  2 boundaries 2 instr  12
Set-General-Opt            Insert(5)    flushes  6 fences  5 boundaries 3 instr  28
Set-Normalized-Opt         Insert(5)    flushes  6 fences  6 boundaries 3 instr  30
Set-Normalized-Opt         Insert(3)    flushes  7 fences  6 boundaries 3 instr  34
Set-Normalized-Opt         Insert(5)    flushes  3 fences  3 boundaries 3 instr  20
Set-Normalized-Opt         Contains(5)  flushes  3 fences  3 boundaries 3 instr  20
Set-Normalized-Opt         Contains(4)  flushes  3 fences  3 boundaries 3 instr  20
Set-Normalized-Opt         Remove(5)    flushes  6 fences  5 boundaries 3 instr  33
Set-Normalized-Opt         Remove(5)    flushes  3 fences  3 boundaries 3 instr  18
Set-Normalized-Opt         Insert(5)    flushes  6 fences  6 boundaries 3 instr  32
Queue-General              Push(1)      flushes  6 fences  5 boundaries 1 instr  27
Queue-General              Push(2)      flushes  6 fences  5 boundaries 1 instr  28
Queue-General              Pop          flushes  4 fences  4 boundaries 1 instr  23
Queue-General              Pop          flushes  5 fences  4 boundaries 1 instr  25
Queue-General              Pop          flushes  3 fences  3 boundaries 2 instr  14
Queue-Normalized           Push(1)      flushes  5 fences  4 boundaries 1 instr  24
Queue-Normalized           Push(2)      flushes  6 fences  5 boundaries 1 instr  27
Queue-Normalized           Pop          flushes  4 fences  4 boundaries 1 instr  23
Queue-Normalized           Pop          flushes  5 fences  4 boundaries 1 instr  25
Queue-Normalized           Pop          flushes  4 fences  4 boundaries 2 instr  17
Queue-General-slow         Push(1)      flushes 11 fences  9 boundaries 3 instr  38
Queue-General-slow         Push(2)      flushes 10 fences  9 boundaries 3 instr  37
Queue-General-slow         Pop          flushes  8 fences  7 boundaries 3 instr  32
Queue-General-slow         Pop          flushes  8 fences  7 boundaries 3 instr  33
Queue-General-slow         Pop          flushes  2 fences  2 boundaries 2 instr  11
Queue-Normalized-slow      Push(1)      flushes 10 fences  8 boundaries 3 instr  40
Queue-Normalized-slow      Push(2)      flushes 10 fences  8 boundaries 3 instr  40
Queue-Normalized-slow      Pop          flushes  8 fences  7 boundaries 3 instr  36
Queue-Normalized-slow      Pop          flushes  9 fences  7 boundaries 3 instr  38
Queue-Normalized-slow      Pop          flushes  5 fences  5 boundaries 3 instr  22
Queue-General-Opt          Push(1)      flushes  5 fences  4 boundaries 1 instr  25
Queue-General-Opt          Push(2)      flushes  5 fences  4 boundaries 1 instr  24
Queue-General-Opt          Pop          flushes  3 fences  3 boundaries 1 instr  19
Queue-General-Opt          Pop          flushes  4 fences  3 boundaries 1 instr  21
Queue-General-Opt          Pop          flushes  2 fences  2 boundaries 2 instr  10
Queue-Normalized-Opt       Push(1)      flushes  5 fences  4 boundaries 1 instr  24
Queue-Normalized-Opt       Push(2)      flushes  5 fences  4 boundaries 1 instr  23
Queue-Normalized-Opt       Pop          flushes  3 fences  3 boundaries 1 instr  19
Queue-Normalized-Opt       Pop          flushes  4 fences  3 boundaries 1 instr  21
Queue-Normalized-Opt       Pop          flushes  2 fences  2 boundaries 2 instr  11
Queue-General-Opt-slow     Push(1)      flushes  7 fences  6 boundaries 3 instr  29
Queue-General-Opt-slow     Push(2)      flushes  7 fences  6 boundaries 3 instr  29
Queue-General-Opt-slow     Pop          flushes  5 fences  4 boundaries 3 instr  24
Queue-General-Opt-slow     Pop          flushes  6 fences  4 boundaries 3 instr  26
Queue-General-Opt-slow     Pop          flushes  2 fences  2 boundaries 2 instr  11
Queue-Normalized-Opt-slow  Push(1)      flushes  7 fences  7 boundaries 3 instr  34
Queue-Normalized-Opt-slow  Push(2)      flushes  7 fences  7 boundaries 3 instr  34
Queue-Normalized-Opt-slow  Pop          flushes  5 fences  5 boundaries 3 instr  29
Queue-Normalized-Opt-slow  Pop          flushes  6 fences  5 boundaries 3 instr  31
Queue-Normalized-Opt-slow  Pop          flushes  3 fences  3 boundaries 3 instr  18
";

/// Operations per ablation row: the counts below are totals over this many.
const ABLATION_OPS: u64 = 1000;

/// The ablation table: each loop of `bench::ablation::ALL` run
/// `ABLATION_OPS` times on a fresh one-thread machine, its object's set-up
/// not counted.
fn ablation_table() -> String {
    let mut out = String::new();
    for (label, ablation) in bench::ablation::ALL {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let s = ablation(&mem.thread(0), ABLATION_OPS);
        out.push_str(&format!(
            "{:<26} instr {:>5} reads {:>5} writes {:>5} cas {:>5} flushes {:>5} fences {:>5}\n",
            label,
            s.steps(),
            s.reads,
            s.writes,
            s.cas,
            s.flushes,
            s.fences
        ));
    }
    out
}

#[test]
fn every_ablation_costs_exactly_its_pinned_counts() {
    let table = ablation_table();
    assert!(
        table == EXPECTED_ABLATIONS,
        "an ablation's counts moved; the table now reads:\n{table}"
    );
}

/// The pinned ablation table (totals over 1000 operations). Algorithm 1 pays
/// a read, an announcement write and the CAS, plus the notify CAS on the
/// previous winner's announcement from the second operation on; its durable
/// discipline adds the announcement's and the previous winner's flushes and
/// one fence. The Attiya object notifies by a plain write into its matrix.
/// The indirect encoding allocates and writes a three-word record per CAS.
/// A General boundary flushes and fences twice (the slot copies, then the
/// control word), a Compact one once. Algorithm 8's `Write` writes a fresh
/// location, swings the pointer and takes the unlinked location back, with a
/// periodic scan of the announcements; its durable discipline persists the
/// fresh location. Its `CAS` (announce, dereference, CAS) writes no location,
/// so the discipline costs it nothing.
const EXPECTED_ABLATIONS: &str = "\
cas/plain                  instr  1000 reads     0 writes     0 cas  1000 flushes     0 fences     0
cas/algorithm1             instr  3999 reads  1000 writes  1000 cas  1999 flushes     0 fences     0
cas/algorithm1-durable     instr  6998 reads  1000 writes  1000 cas  1999 flushes  1999 fences  1000
cas/attiya                 instr  2999 reads  1000 writes   999 cas  1000 flushes     0 fences     0
cas/indirect               instr  9999 reads  4000 writes  4000 cas  1999 flushes     0 fences     0
cas/indirect-durable       instr 13998 reads  4000 writes  4000 cas  1999 flushes  2999 fences  1000
boundary/general           instr  8000 reads  1000 writes  3000 cas     0 flushes  2000 fences  2000
boundary/compact           instr  6000 reads  1000 writes  3000 cas     0 flushes  1000 fences  1000
write/plain                instr  1000 reads     0 writes  1000 cas     0 flushes     0 fences     0
write/algorithm8           instr  8663 reads  4997 writes  1000 cas  2666 flushes     0 fences     0
write/algorithm8-durable   instr 10663 reads  4997 writes  1000 cas  2666 flushes  1000 fences  1000
cas/algorithm8             instr  6000 reads  3000 writes     0 cas  3000 flushes     0 fences     0
cas/algorithm8-durable     instr  6000 reads  3000 writes     0 cas  3000 flushes     0 fences     0
";
