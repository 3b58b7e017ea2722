//! Command-line entry point of the benchmark harness; `run.sh` builds and
//! calls it.
//!
//! ```text
//! ssg-benchmark run --workload W --seed N --seconds S --trace 0|1 --ssg PATH --out DIR
//! ssg-benchmark workloads
//! ssg-benchmark summarize DIR --spec BENCHMARK.json
//! ssg-benchmark compare BASE_DIR NEW_DIR --spec BENCHMARK.json
//! ```
//!
//! `run` prints its metrics by name, then one JSON result line. Exit
//! codes: 0 all checks passed; 1 a correctness check failed (the result
//! line says so); 2 usage error; 3 the run could not be measured (server
//! failure, or a load generator that fell behind its schedule) and
//! reports no numbers.

use ssg_benchmark::report::RunReport;
use ssg_benchmark::summary;
use ssg_benchmark::workload::Workload;
use ssg_benchmark::{churn, layers, serve};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    ssg: PathBuf,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut ssg, mut out) =
        (None, None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            "--ssg" => ssg = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(RunArgs {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.unwrap_or(false),
        ssg: ssg.ok_or_else(|| missing("--ssg"))?,
        out: out.ok_or_else(|| missing("--out"))?,
    })
}

fn measure(a: &RunArgs) -> Result<RunReport, String> {
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    // Absolute, because the server runs with `--out` as its directory.
    let ssg = std::fs::canonicalize(&a.ssg).map_err(|e| format!("{}: {e}", a.ssg.display()))?;
    match (a.workload, a.trace) {
        (w, true) => layers::run(&ssg, &a.out, w, a.seed, a.seconds),
        (Workload::Churn, false) => churn::run(a.seed, a.seconds),
        (w, false) => serve::run(&ssg, &a.out, w, a.seed, a.seconds),
    }
}

fn spec_arg(args: &[String]) -> Result<PathBuf, String> {
    match args {
        [flag, path] if flag == "--spec" => Ok(PathBuf::from(path)),
        _ => Err("expected --spec BENCHMARK.json".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = |msg: String| {
        eprintln!("ssg-benchmark: {msg}");
        ExitCode::from(2)
    };
    match args.first().map(String::as_str) {
        Some("run") => {
            let a = match parse_run(&args[1..]) {
                Ok(a) => a,
                Err(e) => return usage(e),
            };
            match measure(&a) {
                Ok(report) => {
                    print!("{}", report.to_text());
                    println!("{}", report.to_json().render());
                    if report.correct() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("ssg-benchmark: {} seed {}: {e}", a.workload.name(), a.seed);
                    ExitCode::from(3)
                }
            }
        }
        Some("workloads") => {
            for w in Workload::ALL {
                println!("{}", w.name());
            }
            ExitCode::SUCCESS
        }
        Some("summarize") if args.len() == 4 => {
            let result = spec_arg(&args[2..])
                .and_then(|spec| summary::load_spec(&spec))
                .and_then(|spec| summary::summarize(Path::new(&args[1]), &spec));
            match result {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => usage(e),
            }
        }
        Some("compare") if args.len() == 5 => {
            let result = spec_arg(&args[3..])
                .and_then(|spec| summary::load_spec(&spec))
                .and_then(|spec| summary::compare(Path::new(&args[1]), Path::new(&args[2]), &spec));
            match result {
                Ok((text, regressed)) => {
                    print!("{text}");
                    if regressed {
                        ExitCode::from(1)
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => usage(e),
            }
        }
        _ => usage(
            "usage: ssg-benchmark run --workload W --seed N --seconds S --trace 0|1 --ssg PATH \
             --out DIR | workloads | summarize DIR --spec FILE | compare BASE NEW --spec FILE"
                .into(),
        ),
    }
}
