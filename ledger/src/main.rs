//! `ledger` — the benchmark's command line.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ledger all [--seed <n>] [--seconds <s>]
//! ledger compare <A.json> <B.json>
//! ```
//!
//! The first form is one run: its last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`); the line before it holds diagnostics.  `all` makes both
//! runs of every workload, each in a child process of its own so that peak
//! memory and allocator state are per run, and prints one document on
//! standard output (progress goes to standard error).

use mojave_ledger::compare::compare;
use mojave_ledger::harness::{
    bound, run_traced, run_untraced, violations, RunReport, END_TO_END, PER_LAYER, RUN_SECONDS,
};
use mojave_ledger::inputs::on_deep_stack;
use mojave_ledger::json::Json;
use mojave_ledger::measure::nproc;
use mojave_ledger::workloads::{mcc_path, CkptStream, Grid, MigrateCold, Workload, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
  ledger all [--seed <n>] [--seconds <s>]
  ledger compare <A.json> <B.json>
workloads: grid_compute grid_recover grid_served migrate_cold ckpt_stream";

/// `--flag value` pairs.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = iter
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            pairs.push((name.to_owned(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, value)) => value
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value `{value}` for --{name}")),
        }
    }
}

fn run<W: Workload>(
    name: &str,
    make: impl Fn() -> Result<W, String>,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunReport, String> {
    if traced {
        run_traced(name, make, seed, seconds)
    } else {
        run_untraced(make, seconds)
    }
}

fn run_one(flags: &Flags) -> Result<bool, String> {
    let workload: String = flags.get("workload")?.ok_or("--workload is required")?;
    let seed: u64 = flags.get("seed")?.ok_or("--seed is required")?;
    let seconds: f64 = flags.get("seconds")?.ok_or("--seconds is required")?;
    let traced = match flags.get::<u8>("trace")?.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    // The grids keep two worker threads busy; on one core their op time
    // measures the scheduler, not the system.
    let cores = nproc();
    if cores < 2 {
        return Err(format!(
            "the benchmark needs 2 cores, this machine has {cores}"
        ));
    }
    let name = workload.as_str();
    let report = match name {
        "grid_compute" => run(name, || Ok(Grid::compute(seed)), seed, seconds, traced),
        "grid_recover" => run(name, || Ok(Grid::recover(seed)), seed, seconds, traced),
        "grid_served" => run(name, || Grid::served(seed), seed, seconds, traced),
        "migrate_cold" => run(name, || MigrateCold::new(seed), seed, seconds, traced),
        "ckpt_stream" => run(name, || CkptStream::new(seed), seed, seconds, traced),
        _ => return Err(format!("unknown workload `{name}`")),
    }?;
    println!(
        "{}",
        Json::obj([("diagnostics", report.diagnostics.clone())])
    );
    // A run that produced a result exits 0 even when the result is
    // `correct: false`; the reader of the line decides what that means.
    println!("{}", report.result_line());
    Ok(true)
}

/// One child run: `(diagnostics, result)` from its last two output lines.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: u8) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot re-execute ledger: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload} --trace {trace} printed nothing"))
        .and_then(Json::parse)?;
    let diagnostics = lines
        .next()
        .and_then(|line| Json::parse(line).ok())
        .and_then(|doc| doc.get("diagnostics").cloned())
        .unwrap_or(Json::Null);
    Ok((diagnostics, result))
}

fn run_all(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.get("seed")?.unwrap_or(12);
    let seconds: f64 = flags.get("seconds")?.unwrap_or(RUN_SECONDS);
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_owned());
    let mut all_pass = true;
    let mut workloads = Vec::new();
    // The layer probes do not depend on the workload: the document carries
    // the first traced run's readings for every workload, so that it holds
    // one value of each.
    let mut probes: Option<(&str, Json)> = None;
    for workload in WORKLOADS {
        if workload == "grid_served" && mcc_path().is_none() {
            eprintln!("ledger: skipping grid_served: no `mcc` binary beside `ledger`");
            continue;
        }
        eprintln!("ledger: {workload}: untraced run, {seconds} s");
        let (untraced_notes, untraced) = child_run(workload, seed, seconds, 0)?;
        eprintln!("ledger: {workload}: traced run");
        let (traced_notes, traced) = child_run(workload, seed, seconds, 1)?;
        let sum = |key: &str| -> f64 {
            [&untraced, &traced]
                .iter()
                .filter_map(|r| r.get(key)?.as_f64())
                .sum()
        };
        let correct = [&untraced, &traced]
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        let measured = traced.get("metrics").cloned().unwrap_or(Json::Null);
        let (_, probed) = probes.get_or_insert((workload, measured.clone()));
        let per_layer = Json::obj(PER_LAYER.iter().filter_map(|m| {
            let from = if m.probe { &*probed } else { &measured };
            Some((m.name, from.get(m.name)?.clone()))
        }));
        let timed_ops = untraced_notes
            .get("samples")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let broken = violations(
            workload,
            timed_ops,
            |name| per_layer.get(name)?.get("value")?.as_f64(),
            |name| traced_notes.get(name)?.as_f64(),
        );
        // A window shorter than the benchmark's own is a smoke run: its
        // rules are listed all the same, but only ops that failed fail it.
        all_pass &= correct && (broken.is_empty() || seconds < RUN_SECONDS);
        workloads.push((
            workload,
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(sum("attempted"))),
                ("failed", Json::Num(sum("failed"))),
                ("fail_share", Json::Num(sum("failed") / sum("attempted"))),
                (
                    "violations",
                    Json::Arr(broken.into_iter().map(Json::Str).collect()),
                ),
                (
                    "end_to_end",
                    untraced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                ("per_layer", per_layer),
                ("untraced_diagnostics", untraced_notes),
                ("traced_diagnostics", traced_notes),
            ]),
        ));
    }
    let doc = Json::obj([
        ("schema", Json::str("mojave-ledger/2")),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", Json::Str(rustc)),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, better, _)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str(better)),
                            (
                                "bound",
                                Json::obj(WORKLOADS.map(|w| (w, Json::Num(bound(name, w))))),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("layer", Json::str(m.layer())),
                            ("moves", Json::str(m.moves)),
                            ("probe", Json::Bool(m.probe)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "probes_measured_in",
            probes.map_or(Json::Null, |(workload, _)| Json::str(workload)),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    println!("{}", doc.pretty());
    Ok(all_pass)
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err(USAGE.to_owned());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read `{path}`: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("`{path}`: {e}")))
    };
    let (table, breaches) = compare(&load(a)?, &load(b)?);
    print!("{table}");
    println!("{breaches} breach(es)");
    Ok(breaches == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = on_deep_stack(|| match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => Err(USAGE.to_owned()),
        Some("all") => Flags::parse(&args[1..]).and_then(|flags| run_all(&flags)),
        Some("compare") => run_compare(&args[1..]),
        Some(_) => Flags::parse(&args).and_then(|flags| run_one(&flags)),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}
