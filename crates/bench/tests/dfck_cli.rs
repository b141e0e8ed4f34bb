//! The `dfck` binary's command-line contract: a filter that names no known
//! variant is an error, never a silently empty (and therefore green) sweep.

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
        .env("DF_REQUIRE_NONZERO", "1")
        .env_remove("DF_JSON")
        .output()
        .expect("running the dfck binary");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"Stack-Generl\""), "{stderr}");
    assert!(stderr.contains("Stack-General"), "valid labels missing from: {stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("all sweeps passed"));
}
