//! `dfbench` command line. See `README.md`.
//!
//! ```text
//! dfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one JSON line
//! dfbench run    [--seed n] [--seconds s] [--only name] [--out dir]  every workload, tracing off
//! dfbench traced [--seed n] [--seconds s] [--only name] [--out dir]  every workload, per-layer
//! dfbench compare A.json B.json                                      apply the bounds
//! dfbench list [--benchmark-json]                                    names, units, bounds
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use dfbench::compare::{compare, render, Verdict};
use dfbench::metrics::{benchmark_json, list, RUN_SECONDS};
use dfbench::run::{run_workload, Options};
use dfbench::util::{environment, loadavg1, scrub_df_env, Json};
use dfbench::workloads::{find, ModelFault, WORKLOADS};

const DEFAULT_SEED: u64 = 42;
/// Above this one-minute load average a run starts with a warning.
const QUIET_LOADAVG: f64 = 0.5;

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or(format!("expected a --flag, got '{flag}'"))?;
            let value = it.next().ok_or(format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: '{v}' is not a number"))
            })
            .transpose()
    }

    fn known(&self, names: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !names.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

/// One workload in this process: the form the acceptance driver calls.
fn one_workload(flags: &Flags) -> Result<ExitCode, String> {
    flags.known(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "detail",
        "break-model",
        "shrink",
    ])?;
    let scrubbed = scrub_df_env();
    if !scrubbed.is_empty() {
        eprintln!(
            "dfbench: ignoring {} (they change what pmem and capsules do)",
            scrubbed.join(", ")
        );
    }
    let name = flags.get("workload").ok_or("--workload is required")?;
    let spec = find(name).ok_or(format!("no workload '{name}' (see `dfbench list`)"))?;
    let seconds: f64 = flags.number("seconds")?.unwrap_or(RUN_SECONDS as f64);
    if !(0.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let options = Options {
        seed: flags.number("seed")?.unwrap_or(DEFAULT_SEED),
        seconds,
        traced: match flags.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
        },
        break_model: match flags.get("break-model") {
            None => None,
            Some(f) => Some(ModelFault::parse(f).ok_or(format!("unknown model fault '{f}'"))?),
        },
    };
    // Smoke tests only: the same workload at a fraction of its size.
    let spec = match flags.number::<u64>("shrink")? {
        Some(div) if div > 1 => spec.shrunk(div),
        _ => *spec,
    };
    let outcome = run_workload(&spec, options);
    for complaint in &outcome.complaints {
        eprintln!("dfbench: {}: {complaint}", spec.name);
    }
    for (which, hits) in &outcome.known_defects {
        eprintln!(
            "dfbench: {}: known defect, not counted as failed: {hits} × {which}",
            spec.name
        );
    }
    if let Some(path) = flags.get("detail") {
        let mut detail = outcome.detail();
        if let (Json::Obj(fields), Some(trace)) = (&mut detail, &outcome.trace) {
            fields.push(("trace".to_string(), trace.clone()));
        }
        std::fs::write(path, detail.render()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.contract_line());
    Ok(ExitCode::SUCCESS)
}

/// Every workload, each in its own child process, so peak memory is the
/// workload's own (the child drops every `DF_*` variable as it starts).
fn all_workloads(traced: bool, flags: &Flags) -> Result<ExitCode, String> {
    flags.known(&["seed", "seconds", "only", "out", "break-model", "shrink"])?;
    let seed: u64 = flags.number("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = flags.number("seconds")?.unwrap_or(RUN_SECONDS as f64);
    let out_dir = flags.get("out").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    );
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let env = environment(seed);
    if let Some(load) = loadavg1().filter(|&l| l > QUIET_LOADAVG) {
        eprintln!("dfbench: warning: 1-minute load average is {load:.2}; wall-clock metrics will be noisy");
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let kind = if traced { "traced" } else { "run" };
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for spec in WORKLOADS
        .iter()
        .filter(|w| flags.get("only").is_none_or(|only| only == w.name))
    {
        let detail_path = out_dir.join(format!("{kind}-{}.json", spec.name));
        let mut child = Command::new(&exe);
        child
            .args([
                "--workload",
                spec.name,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--detail")
            .arg(&detail_path)
            .stdout(Stdio::null());
        for pass_on in ["break-model", "shrink"] {
            if let Some(v) = flags.get(pass_on) {
                child.args([format!("--{pass_on}"), v.to_string()]);
            }
        }
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!(
                "{}: workload process ended with {status}",
                spec.name
            ));
        }
        let text = std::fs::read_to_string(&detail_path)
            .map_err(|e| format!("{}: {e}", detail_path.display()))?;
        let mut detail = Json::parse(&text)?;
        for (name, m) in detail.get("metrics").map(Json::fields).unwrap_or_default() {
            let num = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            let spread = if num("samples") > 1.0 {
                format!(
                    "   [q1 {} q3 {} min {} max {} n {}]",
                    num("q1"),
                    num("q3"),
                    num("min"),
                    num("max"),
                    num("samples")
                )
            } else {
                String::new()
            };
            println!(
                "{} {name} {} {}{spread}",
                spec.name,
                num("value"),
                m.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
        let num = |k: &str| detail.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let correct = detail
            .get("correct")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        println!(
            "{} attempted {} failed {} correct {correct}",
            spec.name,
            num("attempted"),
            num("failed")
        );
        all_correct &= correct;
        if let Json::Obj(fields) = &mut detail {
            if let Some(at) = fields.iter().position(|(k, _)| k == "trace") {
                let (_, trace) = fields.remove(at);
                let path = out_dir.join(format!("trace-{}.json", spec.name));
                std::fs::write(&path, trace.render())
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
        std::fs::remove_file(&detail_path)
            .map_err(|e| format!("{}: {e}", detail_path.display()))?;
        workloads.push((spec.name, detail));
    }
    if workloads.is_empty() {
        return Err("--only names no workload".into());
    }
    let result = Json::obj([
        ("schema", Json::str("dfbench-v1")),
        ("kind", Json::str(kind)),
        ("env", env),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = out_dir.join(if traced { "traced.json" } else { "result.json" });
    std::fs::write(&path, result.render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("dfbench: wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: dfbench compare A.json B.json".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&load(a)?, &load(b)?)?;
    print!("{}", render(&rows));
    Ok(if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => all_workloads(false, &Flags::parse(&args[1..])?),
        Some("traced") => all_workloads(true, &Flags::parse(&args[1..])?),
        Some("compare") => compare_files(&args[1..]),
        Some("list") => {
            match args.get(1).map(String::as_str) {
                None => print!("{}", list()),
                Some("--benchmark-json") => print!("{}", benchmark_json().render_pretty()),
                Some(other) => return Err(format!("unknown flag {other}")),
            }
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => one_workload(&Flags::parse(args)?),
        _ => Err("usage: dfbench run|traced|compare|list, or --workload <name> --seed <n> --seconds <s> --trace <0|1>".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|message| {
        eprintln!("dfbench: {message}");
        ExitCode::from(2)
    })
}
