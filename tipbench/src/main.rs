//! `tipbench` — the repository's one benchmark.
//!
//! ```text
//! tipbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!          [--repeat N] [--smoke] [--out FILE]
//! tipbench --compare BEFORE.json AFTER.json
//! ```
//!
//! Builds each workload's database from the seed, drives it with two
//! closed-loop clients over TCP for `--seconds`, checks the answers and
//! prints every metric by name with its unit. `--trace 0` makes only
//! the untraced run (end-to-end metrics), `--trace 1` only the traced
//! run (per-layer metrics); without `--trace` both run. The last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` beside this
//! package's manifest.

mod host;
mod json;
mod metrics;
mod run;
mod spans;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{Verdict, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Scale;

fn usage() -> ExitCode {
    eprintln!(
        "usage: tipbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
         [--repeat N] [--smoke] [--out FILE]\n       \
         tipbench --compare BEFORE.json AFTER.json\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    );
    ExitCode::from(2)
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: untraced only; `Some(true)`: traced only; `None`: both.
    trace: Option<bool>,
    repeat: usize,
    smoke: bool,
    out: Option<PathBuf>,
}

/// Where build outputs go is where run outputs go: the scratch
/// databases, the traces and the result file.
fn output_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("tipbench")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, before, after] => compare(Path::new(before), Path::new(after)),
            _ => usage(),
        };
    }
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 15.0,
        trace: None,
        repeat: 1,
        smoke: false,
        out: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let ok = match flag.as_str() {
            "--smoke" => {
                args.smoke = true;
                args.seconds = 0.5;
                true
            }
            "--workload" => it
                .next()
                .filter(|w| workloads::NAMES.contains(&w.as_str()))
                .map(|w| args.workloads.push(w))
                .is_some(),
            "--seed" => it
                .next()
                .and_then(|v| v.parse().ok())
                .map(|v| args.seed = v)
                .is_some(),
            "--seconds" => it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|s: &f64| *s > 0.0 && s.is_finite())
                .map(|v| args.seconds = v)
                .is_some(),
            "--trace" => match it.next().as_deref() {
                Some("0") => {
                    args.trace = Some(false);
                    true
                }
                Some("1") => {
                    args.trace = Some(true);
                    true
                }
                _ => false,
            },
            "--repeat" => it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|n| *n >= 1)
                .map(|v| args.repeat = v)
                .is_some(),
            "--out" => it.next().map(|v| args.out = Some(v.into())).is_some(),
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    if args.workloads.is_empty() {
        args.workloads = workloads::NAMES.iter().map(|s| (*s).to_owned()).collect();
    }
    match bench(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tipbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The values one metric took across `--repeat` runs.
fn metric_json(unit: &str, higher: bool, bound: Option<f64>, values: &[f64]) -> Json {
    let (q1, median, q3) = stats::quartiles(values);
    let mut pairs = vec![
        ("unit", Json::str(unit)),
        ("better", Json::str(if higher { "higher" } else { "lower" })),
    ];
    if let Some(b) = bound {
        pairs.push(("bound", Json::Num(b)));
    }
    pairs.extend([
        ("median", Json::Num(median)),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("values", Json::nums(values)),
    ]);
    Json::obj(pairs)
}

/// What the runs of one workload measured: one value per run and metric.
struct Acc {
    /// In `END_TO_END` order; empty without an untraced run.
    e2e: Vec<Vec<f64>>,
    /// In `PER_LAYER` order; empty without a traced run.
    layers: Vec<Vec<f64>>,
    /// `(class, p50_us per run)`.
    classes: Vec<(String, Vec<f64>)>,
    samples: Vec<f64>,
    /// Fewest samples beyond the p99 in any run.
    beyond_p99: f64,
    attempted: u64,
    failed: u64,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            e2e: vec![Vec::new(); END_TO_END.len()],
            layers: vec![Vec::new(); PER_LAYER.len()],
            classes: Vec::new(),
            samples: Vec::new(),
            beyond_p99: f64::INFINITY,
            attempted: 0,
            failed: 0,
        }
    }

    fn class(&mut self, name: &str) -> &mut Vec<f64> {
        let at = match self.classes.iter().position(|(c, _)| c == name) {
            Some(at) => at,
            None => {
                self.classes.push((name.to_owned(), Vec::new()));
                self.classes.len() - 1
            }
        };
        &mut self.classes[at].1
    }

    fn add_untraced(&mut self, r: &run::Untraced) {
        for (all, v) in self.e2e.iter_mut().zip(r.end_to_end) {
            all.push(v);
        }
        for (class, p50) in &r.classes {
            self.class(class).push(*p50);
        }
        self.samples.push(r.samples as f64);
        self.beyond_p99 = self.beyond_p99.min(r.beyond_p99 as f64);
        self.attempted += r.attempted;
        self.failed += r.failed;
    }

    fn add_traced(&mut self, r: &trace::Traced) {
        for (all, v) in self.layers.iter_mut().zip(&r.per_layer) {
            all.push(*v);
        }
        self.attempted += r.attempted;
        self.failed += r.failed;
    }

    /// Adds what a child process wrote with [`Acc::to_json`].
    fn add_json(&mut self, w: &Json) {
        let values = |block: &str, metric: &str| -> Vec<f64> {
            w.get(block)
                .and_then(|b| b.get(metric)?.get("values")?.as_arr())
                .map_or_else(Vec::new, |a| a.iter().filter_map(Json::as_f64).collect())
        };
        for (all, m) in self.e2e.iter_mut().zip(&END_TO_END) {
            all.extend(values("end_to_end", m.name));
        }
        for (all, m) in self.layers.iter_mut().zip(&PER_LAYER) {
            all.extend(values("per_layer", m.name));
        }
        let diag = |key: &str| w.get("diagnostics").and_then(|d| d.get(key));
        let nums = |j: &Json| -> Vec<f64> {
            j.as_arr()
                .map_or_else(Vec::new, |a| a.iter().filter_map(Json::as_f64).collect())
        };
        if let Some(Json::Obj(classes)) = diag("class_p50_us") {
            for (class, v) in classes {
                self.class(class).extend(nums(v));
            }
        }
        self.samples
            .extend(diag("samples").map_or_else(Vec::new, nums));
        if let Some(b) = diag("samples_beyond_p99").and_then(Json::as_f64) {
            self.beyond_p99 = self.beyond_p99.min(b);
        }
        self.attempted += diag("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        self.failed += diag("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    }

    fn to_json(&self, name: &str) -> Json {
        let untraced = !self.samples.is_empty();
        let mut diag = vec![
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "error_rate",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
        ];
        if untraced {
            diag.push(("samples", Json::nums(&self.samples)));
            diag.push(("samples_beyond_p99", Json::Num(self.beyond_p99)));
            diag.push((
                "class_p50_us",
                Json::Obj(
                    self.classes
                        .iter()
                        .map(|(c, v)| (c.clone(), Json::nums(v)))
                        .collect(),
                ),
            ));
        }
        Json::obj(vec![
            ("why", Json::str(workloads::why(name))),
            (
                "end_to_end",
                Json::obj(
                    END_TO_END
                        .iter()
                        .zip(&self.e2e)
                        .filter(|(_, v)| !v.is_empty())
                        .map(|(m, v)| {
                            let j = metric_json(m.unit, m.higher_is_better, Some(m.bound), v);
                            (m.name, j)
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::obj(
                    PER_LAYER
                        .iter()
                        .zip(&self.layers)
                        .filter(|(_, v)| !v.is_empty())
                        .map(|(m, v)| (m.name, metric_json(m.unit, m.higher_is_better, None, v)))
                        .collect(),
                ),
            ),
            ("diagnostics", Json::obj(diag)),
        ])
    }

    /// Prints every metric's median by name with its unit and returns the
    /// `(name, median, unit)` triples for the last line.
    fn report(&self, name: &str) -> Vec<(&'static str, f64, &'static str)> {
        let mut out = Vec::new();
        let e2e = END_TO_END.iter().map(|m| (m.name, m.unit)).zip(&self.e2e);
        let layers = PER_LAYER.iter().map(|m| (m.name, m.unit)).zip(&self.layers);
        for ((metric, unit), values) in e2e.chain(layers).filter(|(_, v)| !v.is_empty()) {
            let median = stats::median(values);
            println!("{name:<15} {metric:<34} {median:>14.4} {unit}");
            out.push((metric, median, unit));
        }
        for (class, values) in &self.classes {
            let (metric, median) = (format!("class.{class}.p50_us"), stats::median(values));
            println!("{name:<15} {metric:<34} {median:>14.4} us");
        }
        if self.beyond_p99 < 10.0 {
            println!(
                "{name:<15} p99_us is not valid: only {} samples beyond it (need 10)",
                self.beyond_p99
            );
        }
        out
    }
}

/// Runs one workload one way in a process of its own, as the acceptance
/// driver does, so that `rss_peak_mb` (a high-water mark of the whole
/// process) and allocator state are those of that run alone. Returns
/// the workload's block of the child's result file.
fn run_in_child(args: &Args, name: &str, traced: bool, file: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    if args.smoke {
        cmd.arg("--smoke");
    }
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(file)
        .stdout(std::process::Stdio::null());
    // Waits for the child. A nonzero exit is a failed check: the child
    // still wrote its file, and its counts are added like any other.
    cmd.status().map_err(|e| format!("start child: {e}"))?;
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let _ = std::fs::remove_file(file);
    Json::parse(&text)?
        .get("workloads")
        .and_then(|w| w.get(name))
        .cloned()
        .ok_or_else(|| format!("{}: no result for {name}", file.display()))
}

fn bench(args: &Args) -> Result<ExitCode, String> {
    let out_dir = output_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let load = host::load();
    let host = host::facts(&out_dir, load);
    // One run is made here; several are made one per child process.
    let single = args.workloads.len() == 1 && args.repeat == 1 && args.trace.is_some();
    if let (true, Some((average, runnable))) = (single, load) {
        if runnable > 1 {
            eprintln!(
                "tipbench: warning: {} other runnable tasks on {} cores at start (load average \
                 {average:.2}) — something else is using them; expect noisy numbers",
                runnable - 1,
                host::nproc()
            );
        }
    }
    let modes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last_line: Vec<(String, Json)> = Vec::new();
    let mut result_workloads: Vec<(String, Json)> = Vec::new();
    for name in &args.workloads {
        let mut acc = Acc::new();
        if single {
            let scale = Scale(if args.smoke { 20 } else { 1 });
            let w = workloads::build(name, args.seed, scale).expect("names were checked");
            let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
            std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
            let failures = if modes[0] {
                let file = out_dir.join(format!("trace-{name}.json"));
                let r = trace::run_traced(w.as_ref(), args.seconds, &scratch, &file);
                r.map(|r| {
                    acc.add_traced(&r);
                    r.failures
                })
            } else {
                run::run_untraced(w.as_ref(), args.seconds, &scratch).map(|r| {
                    acc.add_untraced(&r);
                    println!("{name}: set-up runs {:?} s", r.setup_runs);
                    r.failures
                })
            };
            let _ = std::fs::remove_dir_all(&scratch);
            for f in failures.map_err(|e| e.to_string())? {
                eprintln!("tipbench: {name}: FAILED {f}");
            }
        } else {
            for rep in 0..args.repeat {
                for &traced in modes {
                    let file = out_dir.join(format!("run-{}.json", std::process::id()));
                    acc.add_json(&run_in_child(args, name, traced, &file)?);
                    eprintln!(
                        "tipbench: {name} run {}/{} {} done",
                        rep + 1,
                        args.repeat,
                        if traced { "traced" } else { "untraced" }
                    );
                }
            }
        }
        attempted += acc.attempted;
        failed += acc.failed;
        for (metric, median, unit) in acc.report(name) {
            let key = if args.workloads.len() > 1 {
                format!("{name}.{metric}")
            } else {
                metric.to_owned()
            };
            let value = Json::obj(vec![
                ("value", Json::Num(median)),
                ("unit", Json::str(unit)),
            ]);
            last_line.push((key, value));
        }
        result_workloads.push((name.clone(), acc.to_json(name)));
    }

    let result = Json::obj(vec![
        ("schema", Json::str("tipbench/1")),
        ("host", host),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("repeat", Json::Num(args.repeat as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("clients", Json::Num(workloads::CLIENTS as f64)),
        ("setup_repeats", Json::Num(run::SETUP_REPS as f64)),
        ("workloads", Json::Obj(result_workloads)),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("result.json"));
    match std::fs::write(&out, result.pretty()) {
        Ok(()) => println!("tipbench: wrote {}", out.display()),
        Err(e) => eprintln!("tipbench: cannot write {}: {e}", out.display()),
    }

    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::Obj(last_line)),
        ])
        .compact()
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One row per workload and end-to-end metric: `better`, `same` or
/// `worse` against the metric's bound, `unresolved` when either side's
/// run-to-run spread is wider than the bound. Fails on any `worse` and
/// on a higher error rate.
fn compare(before: &Path, after: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
            .map_err(|e| eprintln!("tipbench: {}: {e}", p.display()))
    };
    let (Ok(a), Ok(b)) = (load(before), load(after)) else {
        return ExitCode::from(2);
    };
    let values = |doc: &Json, w: &str, m: &str| -> Option<Vec<f64>> {
        let arr = doc
            .get("workloads")?
            .get(w)?
            .get("end_to_end")?
            .get(m)?
            .get("values")?
            .as_arr()?;
        Some(arr.iter().filter_map(Json::as_f64).collect())
    };
    let error_rate = |doc: &Json, w: &str| {
        doc.get("workloads")
            .and_then(|ws| ws.get(w)?.get("diagnostics")?.get("error_rate")?.as_f64())
    };
    let mut regressed = false;
    println!(
        "{:<15} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "before", "after", "change", "bound"
    );
    for w in workloads::NAMES {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (values(&a, w, m.name), values(&b, w, m.name)) else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = metrics::verdict(m, &va, &vb);
            regressed |= verdict == Verdict::Worse;
            println!(
                "{w:<15} {:<12} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {}",
                m.name,
                stats::median(&va),
                stats::median(&vb),
                (stats::median(&vb) / stats::median(&va) - 1.0) * 100.0,
                m.bound * 100.0,
                verdict.as_str()
            );
        }
        if let (Some(ea), Some(eb)) = (error_rate(&a, w), error_rate(&b, w)) {
            if eb > ea {
                println!("{w:<15} error_rate rose from {ea} to {eb}: worse");
                regressed = true;
            }
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
