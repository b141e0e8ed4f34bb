//! Smoke suite: tiny sizes, the whole path. Checks that counts repeat
//! exactly, that the checker fails in the right direction, and that the
//! program, `dfbench list` and `BENCHMARK.json` agree on every metric.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use dfbench::metrics::{benchmark_json, list};
use dfbench::passes::count_pass;
use dfbench::structures::Construction;
use dfbench::util::Json;
use dfbench::workloads::{ModelFault, WORKLOADS};

const BIN: &str = env!("CARGO_BIN_EXE_dfbench");
/// Every workload at 1/200 of its size.
const SHRINK: &str = "200";

fn benchmark_file() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
        .unwrap()
}

fn names(doc: &Json, key: &str) -> BTreeSet<String> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("no {key} array")
    };
    items
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// Run one workload the way the acceptance driver does; parse its last line.
fn driver_run(workload: &str, trace: &str) -> Json {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.3",
            "--trace",
            trace,
            "--shrink",
            SHRINK,
        ])
        .env("DF_COALESCE", "0") // must be scrubbed, not obeyed
        .output()
        .expect("run dfbench");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    Json::parse(stdout.lines().last().expect("a result line")).unwrap()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dfbench-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn count_passes_repeat_exactly_and_seeds_change_the_stream() {
    for spec in WORKLOADS.iter().map(|w| w.shrunk(200)) {
        let stream = spec.stream(7, 0, spec.count_ops);
        for c in Construction::ALL {
            let (a, b) = (
                count_pass(&spec, c, &stream, None),
                count_pass(&spec, c, &stream, None),
            );
            assert_eq!(
                a, b,
                "{} {:?}: the count pass must repeat exactly",
                spec.name, c
            );
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_eq!(a.mismatches, 0, "{} {:?}", spec.name, c);
        }
        // Pair workloads have one stream; keyed ones draw theirs from the seed.
        if spec
            .stream(7, 0, 64)
            .iter()
            .any(|op| matches!(op, structs::StructOp::Contains(_)))
        {
            assert_ne!(stream, spec.stream(8, 0, spec.count_ops), "{}", spec.name);
        }
    }
}

#[test]
fn a_wrong_model_is_caught_and_fails_the_run() {
    for (workload, fault) in [
        ("stack_pairs", "pop-off-by-one"),
        ("map_write_heavy", "dropped-insert"),
    ] {
        let spec = WORKLOADS
            .iter()
            .find(|w| w.name == workload)
            .unwrap()
            .shrunk(200);
        let stream = spec.stream(7, 0, spec.count_ops);
        let broken = count_pass(
            &spec,
            Construction::General,
            &stream,
            ModelFault::parse(fault),
        );
        assert!(broken.mismatches > 0, "{workload}: {fault} went unnoticed");

        let dir = scratch_dir(workload);
        let status = Command::new(BIN)
            .args([
                "run",
                "--only",
                workload,
                "--seconds",
                "0.3",
                "--shrink",
                SHRINK,
                "--break-model",
                fault,
            ])
            .arg("--out")
            .arg(&dir)
            .status()
            .expect("run dfbench");
        assert!(
            !status.success(),
            "{workload}: a run with failed checks must exit non-zero"
        );
        let result =
            Json::parse(&std::fs::read_to_string(dir.join("result.json")).unwrap()).unwrap();
        let w = result
            .get("workloads")
            .and_then(|ws| ws.get(workload))
            .unwrap();
        assert!(w.get("failed").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(w.get("correct").and_then(Json::as_bool), Some(false));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn benchmark_json_is_the_generated_one_and_within_the_contract_limits() {
    let file = benchmark_file();
    assert_eq!(
        file,
        benchmark_json(),
        "regenerate with `dfbench list --benchmark-json > BENCHMARK.json`"
    );
    let listing = list();
    for key in ["end_to_end", "per_layer"] {
        for name in names(&file, key) {
            assert!(
                listing.contains(&name),
                "{name} is missing from `dfbench list`"
            );
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }
    assert!((1..=16).contains(&names(&file, "end_to_end").len()));
    assert!((1..=128).contains(&names(&file, "per_layer").len()));
    let Some(Json::Arr(workloads)) = file.get("workloads") else {
        panic!()
    };
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let Some(Json::Arr(e2e)) = file.get("end_to_end") else {
        panic!()
    };
    for m in e2e {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
        let unit = m.get("unit").and_then(Json::as_str).unwrap();
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
    }
    assert!(names(&file, "end_to_end").contains("setup_s"));
}

#[test]
fn every_workload_reports_every_listed_metric_with_real_values() {
    let file = benchmark_file();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let listed = names(&file, key);
        for w in &WORKLOADS {
            let result = driver_run(w.name, trace);
            let keys: BTreeSet<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                BTreeSet::from(["attempted", "correct", "failed", "metrics"])
            );
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{} trace {trace}",
                w.name
            );
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = result.get("metrics").unwrap();
            let reported: BTreeSet<String> =
                metrics.fields().iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(reported, listed, "{} trace {trace}", w.name);
            for (name, m) in metrics.fields() {
                // A non-finite value has no JSON form and would have parsed as null.
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{name} has no value"));
                assert!(value.is_finite(), "{} {name}", w.name);
                // An end-to-end metric is never zero; a per-layer count may
                // honestly be (no duplicate flushes, no demotions).
                assert!(trace == "1" || value != 0.0, "{} {name} is zero", w.name);
            }
        }
    }
}

#[test]
fn traced_writes_spans_and_the_layer_split_adds_up() {
    let dir = scratch_dir("traced");
    let status = Command::new(BIN)
        .args([
            "traced",
            "--only",
            "service_paced",
            "--seconds",
            "0.6",
            "--shrink",
            SHRINK,
        ])
        .arg("--out")
        .arg(&dir)
        .status()
        .expect("run dfbench");
    assert!(status.success());
    let traced = Json::parse(&std::fs::read_to_string(dir.join("traced.json")).unwrap()).unwrap();
    let metrics = traced
        .get("workloads")
        .and_then(|w| w.get("service_paced"))
        .and_then(|w| w.get("metrics"))
        .unwrap();
    let value = |name: &str| {
        metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name}"))
    };
    for c in ["general", "normalized"] {
        let parts = value(&format!("pmem.{c}.est_ns_per_op"))
            + value(&format!("capsules.{c}.self_est_ns_per_op"))
            + value(&format!("rcas.{c}.self_est_ns_per_op"))
            + value(&format!("structure.{c}.self_ns_per_op"));
        let span = value(&format!("structure.{c}.span_ns_mean"));
        assert!(
            (parts - span).abs() <= 1e-6 * span,
            "{c}: {parts} vs {span}"
        );
    }
    // The service's own layer, and the reads only keyed workloads have.
    for name in [
        "service.r40k.p50_us",
        "service.recovery_ms",
        "service.saturation_kops",
        "structure.general.read_flushes",
    ] {
        assert!(value(name).is_finite());
    }
    let spans =
        Json::parse(&std::fs::read_to_string(dir.join("trace-service_paced.json")).unwrap())
            .unwrap();
    let Json::Arr(passes) = spans else {
        panic!("one parent span per construction")
    };
    assert_eq!(passes.len(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}
