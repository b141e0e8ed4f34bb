//! Instruction-overhead microbench: tight loops of raw simulated instructions
//! (read / write / CAS / flush / fence) through the `PThread` layer, with and
//! without a crash policy armed, then the design-choice ablations of
//! DESIGN.md §4 ([`bench::ablation::ALL`]), disarmed.
//!
//! Every algorithm in the workspace funnels through this layer, so its
//! per-instruction overhead is the ceiling on how close the harness can get to
//! paper-scale runs. This binary prints that overhead as a table (ns per
//! simulated instruction or ablated operation). The rows are wall-clock
//! numbers of one short run, so compare them within a run; the instruction
//! counts of the ablation loops are pinned exactly by `tests/op_counts.rs`.
//!
//! ```text
//! cargo run -p bench --release --bin instr_overhead
//! DF_INSTR_ITERS=50000000 cargo run -p bench --release --bin instr_overhead
//! ```
//!
//! The `armed` rows install [`CrashPolicy::AtStep`]`(u64::MAX)` — a policy that is
//! armed (so the crash-point check cannot be short-circuited) but never fires —
//! measuring what crash-torture runs pay. The `disarmed` rows use the default
//! [`CrashPolicy::Never`], the configuration of every throughput benchmark.
//! The `hb` rows arm the [`pmem::HbAnalyzer`] (what `DF_HB=1` runs pay).

use std::hint::black_box;
use std::time::Instant;

use bench::env_u64_in;
use pmem::{CrashPolicy, MemConfig, Mode, PAddr, PMem, PThread};

/// Most operations per ablation loop: the indirect family allocates a
/// descriptor record per CAS (1M records are 64 MB of simulated arena), and
/// Algorithm 1's sequence numbers must stay inside their 26-bit field.
const ABLATION_OPS_MAX: u64 = 1_000_000;

/// Time `body` — `iters` operations — on a fresh thread handle (crash policy
/// armed if `armed`) and print its row.
fn run(mem: &PMem, label: &str, iters: u64, armed: bool, body: impl FnOnce(&PThread<'_>)) {
    let t = mem.thread(0);
    if armed {
        t.set_crash_policy(CrashPolicy::AtStep(u64::MAX));
    }
    let _ = t.take_stats();
    let start = Instant::now();
    body(&t);
    let secs = start.elapsed().as_secs_f64();
    let stats = t.take_stats();
    assert!(
        stats.total_instructions() >= iters,
        "{label}: accounting lost instructions ({} counted, {} issued)",
        stats.total_instructions(),
        iters
    );
    let mops = iters as f64 / secs / 1e6;
    let ns = secs * 1e9 / iters as f64;
    println!("{label:<26} {mops:>12.3} {ns:>10.2}");
}

/// [`run`] `iters` calls of `op` on a line of its own, so flush loops touch
/// exactly one allocated line.
fn raw(
    mem: &PMem,
    label: &str,
    iters: u64,
    armed: bool,
    mut op: impl FnMut(&PThread<'_>, PAddr, u64),
) {
    run(mem, label, iters, armed, |t| {
        let a = t.alloc(pmem::LINE_WORDS);
        for i in 0..iters {
            op(t, a, i);
        }
    });
}

fn main() {
    let iters = env_u64_in("DF_INSTR_ITERS", 10_000_000, 1..=u64::MAX);
    let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));

    println!("# instruction-overhead microbench — {iters} iterations per loop");
    println!("{:<26} {:>12} {:>10}", "loop", "Mops/s", "ns/op");

    // `false` twice: the first pass is the plain disarmed baseline, the second
    // re-runs it with the happens-before analyzer armed (`run` creates a fresh
    // thread handle per row, so arming between passes takes effect).
    for (armed, hb) in [(false, false), (true, false), (false, true)] {
        let sfx = if hb {
            mem.hb().arm();
            "hb"
        } else {
            mem.hb().disarm();
            if armed {
                "armed"
            } else {
                "disarmed"
            }
        };
        raw(&mem, &format!("read/{sfx}"), iters, armed, |t, a, _| {
            black_box(t.read(a));
        });
        raw(&mem, &format!("write/{sfx}"), iters, armed, |t, a, i| {
            t.write(a, i);
        });
        raw(&mem, &format!("cas/{sfx}"), iters, armed, |t, a, i| {
            black_box(t.cas(a, i, i + 1));
        });
        raw(&mem, &format!("flush/{sfx}"), iters, armed, |t, a, _| {
            t.flush(a);
        });
        raw(&mem, &format!("fence/{sfx}"), iters, armed, |t, _, _| {
            t.fence();
        });
        // The shape of a typical transformed-queue step: read, update, persist.
        raw(&mem, &format!("mixed/{sfx}"), iters, armed, |t, a, i| {
            let v = t.read(a);
            black_box(t.cas(a, v, i));
            t.write(a.offset(1), i);
            t.flush(a);
            t.fence();
        });
    }

    let ops = iters.min(ABLATION_OPS_MAX);
    println!("# design-choice ablations (DESIGN.md §4), disarmed — {ops} operations per loop");
    for (label, ablation) in bench::ablation::ALL {
        // A machine per ablation, so no row keeps another's records alive.
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        mem.hb().disarm();
        run(&mem, label, ops, false, |t| {
            ablation(t, ops);
        });
    }
}
