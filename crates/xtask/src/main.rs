//! The `xtask` binary: `cargo xtask lint` / `cargo xtask deny`.

use std::io::Write as _;
use std::process::ExitCode;

use chromata_xtask::{deny, lint_workspace, workspace, Config, Severity};

const USAGE: &str = "\
usage: cargo xtask <command> [options]

commands:
  lint   run the workspace static-analysis rules
         -D <rule>|all   deny a rule (non-zero exit on violation)
         -W <rule>|all   downgrade a rule to a warning
         -A <rule>       suppress a rule entirely
         --format <human|json>  output format (default human)
         --quiet         print only the summary line
  graph  dump the workspace call graph (sorted `caller -> callee` lines)
         --dot           emit Graphviz DOT instead
  deny   run the supply-chain checks (licenses, duplicate versions,
         offline advisory snapshot) against deny.toml and Cargo.lock
  help   show this message

rules: D1 hash-order, D2 clock-env, D3 fs-confine, D4 net-confine,
       D5 digest-taint, P1 panic, P2 index (advisory), P3 panic-reach,
       L1 lock-unwrap, L2 lock-order, A1 bad-allow, U1 unused-allow
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("graph") => run_graph(&args[1..]),
        Some("deny") => run_deny(),
        Some("help") | None => emit("help", USAGE, ExitCode::SUCCESS),
        Some(other) => {
            eprintln!("unknown xtask command `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut config = Config::default();
    let mut quiet = false;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, severity) = match arg.as_str() {
            "-D" | "--deny" => ("-D", Severity::Deny),
            "-W" | "--warn" => ("-W", Severity::Warn),
            "-A" | "--allow" => ("-A", Severity::Allow),
            "--quiet" | "-q" => {
                quiet = true;
                continue;
            }
            "--format" => {
                match it.next().map(String::as_str) {
                    Some("json") => json = true,
                    Some("human") => json = false,
                    other => {
                        eprintln!(
                            "--format needs `human` or `json`, got {:?}",
                            other.unwrap_or("nothing")
                        );
                        return ExitCode::FAILURE;
                    }
                }
                continue;
            }
            other => {
                eprintln!("unknown lint option `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        };
        let Some(rule) = it.next() else {
            eprintln!("{flag} needs a rule name (or `all`)");
            return ExitCode::FAILURE;
        };
        if rule == "all" {
            // `all` covers the primary rules; advisory rules (P2, U1)
            // must be named explicitly to change level.
            for r in chromata_xtask::rules::PRIMARY_RULES {
                config.overrides.push(((*r).to_owned(), severity));
            }
        } else {
            config.overrides.push((rule.clone(), severity));
        }
    }
    let Some(root) = current_root() else {
        return ExitCode::FAILURE;
    };
    match lint_workspace(&root, &config) {
        Ok(report) => {
            let text = if json {
                format!("{}\n", report.to_json())
            } else if quiet {
                format!(
                    "{} file(s) scanned: {} error(s), {} warning(s)\n",
                    report.files_scanned,
                    report.errors(),
                    report.warnings()
                )
            } else {
                format!("{report}\n")
            };
            emit("lint", &text, status_of(report.failed()))
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_graph(args: &[String]) -> ExitCode {
    let mut dot = false;
    for arg in args {
        match arg.as_str() {
            "--dot" => dot = true,
            other => {
                eprintln!("unknown graph option `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(root) = current_root() else {
        return ExitCode::FAILURE;
    };
    match chromata_xtask::graph_workspace(&root, dot) {
        Ok(dump) => emit("graph", &dump, ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("xtask graph: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_deny() -> ExitCode {
    let Some(root) = current_root() else {
        return ExitCode::FAILURE;
    };
    match deny::run(&root) {
        Ok(report) => emit("deny", &format!("{report}\n"), status_of(report.failed())),
        Err(e) => {
            eprintln!("xtask deny: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The exit status of a check that `failed` or passed.
fn status_of(failed: bool) -> ExitCode {
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Writes a command's whole output to stdout, then exits with `status`.
/// A reader that closes early (`| head`) ends the output, not the
/// command: `BrokenPipe` keeps `status`, and any other write error fails.
fn emit(command: &str, text: &str, status: ExitCode) -> ExitCode {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => status,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => status,
        Err(e) => {
            eprintln!("xtask {command}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn current_root() -> Option<std::path::PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    let root = workspace::find_root(&cwd);
    if root.is_none() {
        eprintln!("xtask: no workspace root found above {}", cwd.display());
    }
    root
}
