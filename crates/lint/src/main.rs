//! `ssd-lint` CLI: lints the workspace and exits nonzero on violations.
//!
//! ```text
//! ssd-lint [--root DIR] [--rule NAME]... [--list-rules] [--quiet]
//! ```
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage or I/O error.
//! With no `--root`, the workspace root is found by walking up from the
//! current directory to the first `Cargo.toml` containing `[workspace]`.

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]

use ssd_lint::{lint_workspace, RuleId};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: Option<PathBuf>,
    rules: Vec<RuleId>,
    list_rules: bool,
    quiet: bool,
}

fn usage() -> String {
    let mut s = String::from(
        "usage: ssd-lint [--root DIR] [--rule NAME]... [--list-rules] [--quiet]\n\
         \n\
         Enforces the workspace's determinism, rng-discipline, and hermeticity\n\
         invariants (panic-freedom, casts and docs are clippy/rustc lints).\n\
         Exit codes: 0 clean, 1 violations, 2 usage/io error.\n\
         \n\
         rules:\n",
    );
    for rule in RuleId::ALL {
        s.push_str(&format!("  {:<18} {}\n", rule.name(), rule.description()));
    }
    s
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        rules: Vec::new(),
        list_rules: false,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let Some(dir) = it.next() else {
                    return Err("--root requires a directory".to_string());
                };
                opts.root = Some(PathBuf::from(dir));
            }
            "--rule" => {
                let Some(name) = it.next() else {
                    return Err("--rule requires a rule name".to_string());
                };
                let Some(rule) = RuleId::parse(name) else {
                    return Err(format!(
                        "unknown rule `{name}` (try --list-rules)"
                    ));
                };
                opts.rules.push(rule);
            }
            "--list-rules" => opts.list_rules = true,
            "--quiet" | "-q" => opts.quiet = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Walks up from the current directory to the first `[workspace]` manifest.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("ssd-lint: {msg}");
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in RuleId::ALL {
            println!("{:<18} {}", rule.name(), rule.description());
        }
        return ExitCode::SUCCESS;
    }

    let Some(root) = opts.root.or_else(find_workspace_root) else {
        eprintln!("ssd-lint: no workspace root found (pass --root)");
        return ExitCode::from(2);
    };

    // Selecting a rule implies its allow comments must still parse.
    let mut rules = if opts.rules.is_empty() {
        RuleId::ALL.to_vec()
    } else {
        opts.rules
    };
    if !rules.contains(&RuleId::AllowGrammar) {
        rules.push(RuleId::AllowGrammar);
    }

    match lint_workspace(&root, &rules) {
        Ok(diags) => {
            if diags.is_empty() {
                if !opts.quiet {
                    println!(
                        "ssd-lint: clean ({} rules over {})",
                        rules.len(),
                        root.display()
                    );
                }
            } else {
                for d in &diags {
                    println!("{d}");
                }
            }
            if diags.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!("ssd-lint: {} violation(s)", diags.len());
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("ssd-lint: {e}");
            ExitCode::from(2)
        }
    }
}
