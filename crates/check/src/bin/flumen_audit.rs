//! CLI for the cross-crate determinism audit.
//!
//! ```text
//! flumen-audit [--root <dir>] [--deny] [--json <file>]
//! ```
//!
//! Prints one line per finding (`file:line: [lint] message`). With
//! `--deny`, any finding makes the process exit 1 — the mode CI runs.
//! `--json` writes the findings as a JSON artifact. A finding is fixed
//! or justified in-line with `// flumen-check: allow(<lint>)`; nothing
//! is parked.

use flumen_check::audit;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut deny = false;
    let mut json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage_err("--root needs a directory argument"),
            },
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => return usage_err("--json needs a file argument"),
            },
            "--help" | "-h" => {
                println!("usage: flumen-audit [--root <dir>] [--deny] [--json <file>]");
                return ExitCode::SUCCESS;
            }
            other => return usage_err(&format!("unknown argument `{other}` (try --help)")),
        }
    }

    let findings = match flumen_check::audit_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, audit::render_json(&findings)) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    for fd in &findings {
        println!("{fd}");
    }

    if findings.is_empty() {
        eprintln!("flumen-audit: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "flumen-audit: {} finding{}{}",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" },
            if deny { " (denied)" } else { "" }
        );
        if deny {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}
