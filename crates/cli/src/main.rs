//! The `chromata` binary: parse, run, print, exit.

fn main() {
    // chromata-lint: allow(D2): process entry point — argv is the CLI's input, read exactly once
    let args: Vec<String> = std::env::args().skip(1).collect();
    let printed = chromata_cli::parse(&args)
        .and_then(chromata_cli::run)
        .and_then(|out| chromata_cli::write_stdout(&out));
    if let Err(e) = printed {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
