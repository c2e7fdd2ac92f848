//! Command-line entry point of the chromata benchmark; see the library
//! documentation and `README.md`.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use chromata_perfbench::compare::compare;
use chromata_perfbench::{run, Plan, Workload};

const USAGE: &str = "usage:
  chromata-bench run --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
                     [--spans <path>] [--record <path>]
  chromata-bench compare <A.jsonl> <B.jsonl> [--benchmark <BENCHMARK.json>]
workloads: library-cold, mutant-stream, serve-replay, decide-verify";

/// Options of the `run` subcommand.
struct RunArgs {
    workload: Workload,
    plan: Plan,
    spans: Option<PathBuf>,
    record: Option<PathBuf>,
}

fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut plan = Plan {
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut spans = None;
    let mut record = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                plan.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_owned())?;
            }
            "--seconds" => {
                plan.seconds = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                plan.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            "--spans" => spans = Some(PathBuf::from(value(&mut it, flag)?)),
            "--record" => record = Some(PathBuf::from(value(&mut it, flag)?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        plan,
        spans,
        record,
    })
}

fn append_record(path: &PathBuf, args: &RunArgs, result: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        file,
        r#"{{"workload":"{}","seed":{},"trace":{},"result":{result}}}"#,
        args.workload.name(),
        args.plan.seed,
        u8::from(args.plan.trace)
    )
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run(args)?;
    let (report, tracer) = run(args.workload, &args.plan)?;
    let _ = std::fs::remove_dir(&args.plan.work_dir);
    if let Some(path) = &args.spans {
        tracer
            .write_jsonl(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let result = report.result_line(args.plan.trace);
    if let Some(path) = &args.record {
        append_record(path, &args, &result)
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    }
    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        args.workload.name(),
        args.plan.seed,
        args.plan.seconds,
        u8::from(args.plan.trace)
    );
    print!("{}", report.table());
    println!("{result}");
    Ok(if report.correct(args.plan.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = PathBuf::from(value(&mut it, arg)?);
        } else {
            files.push(arg);
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare needs two record files".to_owned());
    };
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let comparison = compare(&read(a.as_ref())?, &read(b.as_ref())?, &read(&benchmark)?)?;
    print!("{}", comparison.table);
    Ok(if comparison.regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") => compare_command(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
