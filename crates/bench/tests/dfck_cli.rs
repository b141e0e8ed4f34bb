//! The harness binaries' command-line contract: a filter that names no known
//! variant, or a knob whose value does not parse, is an error — never a
//! silently empty or silently different (and therefore green) run.

use std::process::Command;

/// A misspelt label in `DF_DFCK_CONC_VARIANTS` used to match nothing: the run
/// wrote zero rows, printed "all sweeps passed" and exited 0, so a typo in a
/// CI job's list dropped coverage while staying green. It must exit 2 naming
/// the label and the valid ones.
#[test]
fn misspelt_conc_variant_label_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_dfck"))
        .env("DF_DFCK_CONC_ONLY", "1")
        .env("DF_DFCK_CONC_VARIANTS", "MSQ-Izraelevitz,Stack-Generl")
        .env_remove("DF_JSON")
        .output()
        .expect("running the dfck binary");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"Stack-Generl\""), "{stderr}");
    assert!(stderr.contains("Stack-General"), "valid labels missing from: {stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("all sweeps passed"));
}

/// A run that sweeps nothing verified nothing: with the single-threaded
/// matrix skipped and no interleaving seeds, `dfck` must fail rather than
/// print "all sweeps passed" (it used to, unless a separate knob asked it to
/// check).
#[test]
fn a_run_that_sweeps_nothing_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_dfck"))
        .env("DF_DFCK_CONC_ONLY", "1")
        .env("DF_DFCK_CONC_SEEDS", "0")
        .env_remove("DF_JSON")
        .output()
        .expect("running the dfck binary");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no rows"), "{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("all sweeps passed"));
}

/// Integer `DF_*` knobs used to fall back to their defaults when the value did
/// not parse (`DF_MAX_THREADS=8x`, `DF_DFCK_OPS=six` ran the default matrix and
/// reported green), and `DF_MAX_THREADS=0` swept nothing. `DF_MAX_THREADS`
/// also accepted any count, but every figure has a capsule variant whose
/// recoverable-CAS layout reserves its largest pid for anonymous CASes: the
/// 63-thread point panicked in `RcasSpace::new`, after the 62 points before
/// it had run. Each must exit 2 naming the knob, before any work is done.
/// The run-length knobs are tiny, so a binary that accepted a value would
/// still end quickly and fail the exit-code check.
#[test]
fn unparsable_or_out_of_range_knobs_are_rejected() {
    assert_eq!(bench::dfck::max_nprocs(), 62);
    let dfck = env!("CARGO_BIN_EXE_dfck");
    let fig5 = env!("CARGO_BIN_EXE_fig5");
    let fig7 = env!("CARGO_BIN_EXE_fig7");
    for (bin, knob, value) in [
        (dfck, "DF_DFCK_OPS", "six"),
        (dfck, "DF_DFCK_OPS", "0"),
        (dfck, "DF_DFCK_CONC_SEEDS", "-1"),
        (fig5, "DF_MAX_THREADS", "8x"),
        (fig5, "DF_MAX_THREADS", "0"),
        (fig7, "DF_MAX_THREADS", "63"),
        (fig5, "DF_PAIRS", ""),
    ] {
        let out = Command::new(bin)
            .env("DF_PAIRS", "1")
            .env("DF_PREFILL", "0")
            .env(knob, value)
            .env_remove("DF_JSON")
            .output()
            .expect("running the binary");
        assert_eq!(out.status.code(), Some(2), "{knob}={value:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(knob), "{knob}={value:?} not named in: {stderr}");
        assert!(out.stdout.is_empty(), "{knob}={value:?} ran anyway: {out:?}");
    }
}

