//! CLI for the cross-crate determinism audit.
//!
//! ```text
//! flumen-audit [--root <dir>] [--deny] [--json <file>]
//!              [--baseline <file>] [--write-baseline] [--no-baseline]
//! ```
//!
//! Prints one line per finding (`file:line: [lint] message`), with
//! baselined findings marked. With `--deny`, any **non-baselined**
//! finding makes the process exit 1 — the mode CI runs. `--json` writes
//! the full diagnostic set (new + baselined, with status) as a JSON
//! artifact. `--write-baseline` rewrites the baseline file to exactly
//! the current findings; `--no-baseline` ignores the baseline entirely.
//! The default baseline path is `<root>/flumen-audit.baseline.txt`.
//!
//! Stale baseline entries (keys no longer produced by the pass) are
//! reported on stderr so the baseline shrinks monotonically; they do
//! not affect the exit code.

use flumen_check::audit;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut deny = false;
    let mut json_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut no_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--write-baseline" => write_baseline = true,
            "--no-baseline" => no_baseline = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage_err("--root needs a directory argument"),
            },
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => return usage_err("--json needs a file argument"),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage_err("--baseline needs a file argument"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: flumen-audit [--root <dir>] [--deny] [--json <file>]\n\
                     \x20                   [--baseline <file>] [--write-baseline] [--no-baseline]"
                );
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

    let baseline_file = baseline_path.unwrap_or_else(|| root.join("flumen-audit.baseline.txt"));

    if write_baseline {
        let mut text = String::from(
            "# flumen-audit baseline — one `file|lint|message` key per line.\n\
             # Entries park known findings so `--deny` only fails on regressions;\n\
             # prefer fixing or `// flumen-check: allow(...)`-justifying over parking.\n",
        );
        for fd in &findings {
            text.push_str(&audit::baseline_key(fd));
            text.push('\n');
        }
        if let Err(e) = std::fs::write(&baseline_file, text) {
            eprintln!("error: cannot write {}: {e}", baseline_file.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "flumen-audit: wrote {} entr{} to {}",
            findings.len(),
            if findings.len() == 1 { "y" } else { "ies" },
            baseline_file.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = if no_baseline {
        Default::default()
    } else {
        match audit::load_baseline(&baseline_file) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let (fresh, parked, stale) = audit::partition_baseline(findings, &baseline);

    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, audit::render_json(&fresh, &parked)) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    for fd in &fresh {
        println!("{fd}");
    }
    for fd in &parked {
        println!("{fd} (baselined)");
    }
    for key in &stale {
        eprintln!("flumen-audit: stale baseline entry `{key}` — remove it");
    }

    if fresh.is_empty() {
        eprintln!(
            "flumen-audit: clean{}",
            if parked.is_empty() {
                String::new()
            } else {
                format!(" ({} baselined)", parked.len())
            }
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "flumen-audit: {} new finding{}{}",
            fresh.len(),
            if fresh.len() == 1 { "" } else { "s" },
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
