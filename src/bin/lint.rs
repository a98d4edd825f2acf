//! `sim-lint` — workspace source lints, run by `scripts/ci.sh`.
//!
//! A std-only text analyzer over the repository's own sources (no syn, no
//! regex — the build environment is offline). Three rules:
//!
//! * **SIM-L001** — `unwrap()` / `expect(` on user-reachable paths: the
//!   query paths (`crates/query/src`, `crates/core/src`) and the storage
//!   decoders (`crates/storage/src`). Neither one malformed statement nor
//!   one damaged page may panic an embedding application; return a typed
//!   error. Suppress a deliberate use with a same-line
//!   `sim-lint: allow(unwrap)` marker.
//! * **SIM-L002** — every metric-shaped string literal
//!   (`"storage.…"`, `"luc.…"`, `"query.…"`, `"obs.…"`) in non-test code
//!   must appear in the central registry `crates/obs/src/names.rs::ALL`,
//!   and the registry itself must be sorted and duplicate-free.
//! * **SIM-L003** — every `SIM-S…`/`SIM-Q…`/`SIM-P…` diagnostic code
//!   defined in `crates/check/src/diag.rs` is unique and documented in
//!   DESIGN.md's lint catalog, and every catalog row names a defined code
//!   (the in-process twin of `tests/doc_sync.rs`).
//!
//! Test code is skipped with a deliberate coarse heuristic: everything at
//! or below a `#[cfg(test)]` line is test code (this repository keeps test
//! modules at the end of each file). Exit codes: `0` clean, `1` findings,
//! `2` internal error (unreadable tree).

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A rule violation at a file/line.
struct Finding {
    code: &'static str,
    file: String,
    line: usize,
    message: String,
}

impl Finding {
    fn render(&self) -> String {
        if self.line == 0 {
            format!("{} {}: {}", self.code, self.file, self.message)
        } else {
            format!("{} {}:{}: {}", self.code, self.file, self.line, self.message)
        }
    }
}

fn main() -> ExitCode {
    let Some(root) = repo_root() else {
        eprintln!("sim-lint: cannot locate the workspace root (no Cargo.toml upward)");
        return ExitCode::from(2);
    };
    let mut findings = Vec::new();
    let mut broken = Vec::new();

    lint_unwraps(&root, &mut findings, &mut broken);
    lint_metric_names(&root, &mut findings, &mut broken);
    lint_diag_codes(&root, &mut findings, &mut broken);

    for b in &broken {
        eprintln!("sim-lint: {b}");
    }
    if !broken.is_empty() {
        return ExitCode::from(2);
    }
    for f in &findings {
        println!("{}", f.render());
    }
    if findings.is_empty() {
        println!("sim-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("sim-lint: {} finding(s)", findings.len());
        ExitCode::from(1)
    }
}

/// Walk upward from the current directory to the workspace root (the
/// directory holding a `Cargo.toml` and a `crates/` subtree).
fn repo_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Every `.rs` file under `dir`, recursively, sorted for stable output.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>, broken: &mut Vec<String>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            broken.push(format!("read_dir {}: {e}", dir.display()));
            return;
        }
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rs_files(&p, out, broken);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// The non-test prefix of a source file: everything above the first
/// `#[cfg(test)]` line.
fn non_test_lines(source: &str) -> impl Iterator<Item = (usize, &str)> {
    source
        .lines()
        .enumerate()
        .take_while(|(_, l)| !l.trim_start().starts_with("#[cfg(test)]"))
        .map(|(i, l)| (i + 1, l))
}

fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") // covers `//`, `///`, `//!`
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root).unwrap_or(p).display().to_string()
}

// ----- SIM-L001: no unwrap/expect on user-reachable paths --------------------

const USER_REACHABLE: &[&str] = &["crates/query/src", "crates/core/src", "crates/storage/src"];
const ALLOW_MARKER: &str = "sim-lint: allow(unwrap)";

fn lint_unwraps(root: &Path, findings: &mut Vec<Finding>, broken: &mut Vec<String>) {
    for sub in USER_REACHABLE {
        let mut files = Vec::new();
        rs_files(&root.join(sub), &mut files, broken);
        for path in files {
            let Ok(source) = fs::read_to_string(&path) else {
                broken.push(format!("read {}", path.display()));
                continue;
            };
            for (line_no, line) in non_test_lines(&source) {
                if is_comment(line) || line.contains(ALLOW_MARKER) {
                    continue;
                }
                let hit = line.contains(".expect(")
                    || line
                        .match_indices(".unwrap")
                        .any(|(i, _)| line[i + ".unwrap".len()..].starts_with("()"));
                if hit {
                    findings.push(Finding {
                        code: "SIM-L001",
                        file: rel(root, &path),
                        line: line_no,
                        message: "unwrap()/expect() on a user-reachable path; return a typed \
                                  error (or mark `sim-lint: allow(unwrap)` with a safety \
                                  argument)"
                            .into(),
                    });
                }
            }
        }
    }
}

// ----- SIM-L002: metric names match the central registry ---------------------

const METRIC_PREFIXES: &[&str] = &["storage.", "luc.", "query.", "obs.", "server."];

/// Whether a string literal's contents look like a metric name.
fn is_metric_shaped(s: &str) -> bool {
    METRIC_PREFIXES.iter().any(|p| {
        s.strip_prefix(p).is_some_and(|rest| {
            !rest.is_empty()
                && rest.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
    })
}

/// The double-quoted string literals on one line (escapes honored enough
/// for Rust source: `\"` does not terminate, `\\` does not escape a quote).
fn string_literals(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '"' {
            continue;
        }
        let mut lit = String::new();
        let mut escaped = false;
        for c in chars.by_ref() {
            if escaped {
                escaped = false;
                lit.push(c);
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                break;
            } else {
                lit.push(c);
            }
        }
        out.push(lit);
    }
    out
}

/// Parse `names::ALL` out of the registry source, textually.
fn registry_names(root: &Path, broken: &mut Vec<String>) -> Vec<String> {
    let path = root.join("crates/obs/src/names.rs");
    let Ok(source) = fs::read_to_string(&path) else {
        broken.push(format!("read {}", path.display()));
        return Vec::new();
    };
    let mut names = Vec::new();
    let mut in_all = false;
    for line in source.lines() {
        if line.contains("pub const ALL") {
            in_all = true;
            continue;
        }
        if in_all {
            if line.trim_start().starts_with("];") {
                break;
            }
            names.extend(string_literals(line));
        }
    }
    names
}

fn lint_metric_names(root: &Path, findings: &mut Vec<Finding>, broken: &mut Vec<String>) {
    let registry = registry_names(root, broken);
    for w in registry.windows(2) {
        if w[0] >= w[1] {
            findings.push(Finding {
                code: "SIM-L002",
                file: "crates/obs/src/names.rs".into(),
                line: 0,
                message: format!(
                    "registry ALL must be sorted and unique: {:?} precedes {:?}",
                    w[0], w[1]
                ),
            });
        }
    }
    let mut files = Vec::new();
    rs_files(&root.join("crates"), &mut files, broken);
    for path in files {
        let rel_path = rel(root, &path);
        if rel_path == "crates/obs/src/names.rs" {
            continue; // the registry itself
        }
        let Ok(source) = fs::read_to_string(&path) else {
            broken.push(format!("read {}", path.display()));
            continue;
        };
        for (line_no, line) in non_test_lines(&source) {
            if is_comment(line) {
                continue;
            }
            for lit in string_literals(line) {
                if is_metric_shaped(&lit) && !registry.iter().any(|n| n == &lit) {
                    findings.push(Finding {
                        code: "SIM-L002",
                        file: rel_path.clone(),
                        line: line_no,
                        message: format!(
                            "metric name {lit:?} is not in the central registry \
                             crates/obs/src/names.rs::ALL"
                        ),
                    });
                }
            }
        }
    }
}

// ----- SIM-L003: diagnostic codes unique and documented ----------------------

/// Every `SIM-<letters><digits>` token in `text`, in order.
fn sim_codes(text: &str, letters: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(pos) = text[i..].find("SIM-") {
        let start = i + pos;
        let mut end = start + 4;
        if end < bytes.len() && letters.contains(bytes[end] as char) {
            end += 1;
            let digits_start = end;
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
            if end - digits_start == 3 {
                out.push(text[start..end].to_string());
            }
        }
        i = start + 4;
    }
    out
}

fn lint_diag_codes(root: &Path, findings: &mut Vec<Finding>, broken: &mut Vec<String>) {
    let diag_path = root.join("crates/check/src/diag.rs");
    let design_path = root.join("DESIGN.md");
    let (Ok(diag), Ok(design)) = (fs::read_to_string(&diag_path), fs::read_to_string(&design_path))
    else {
        broken.push("read crates/check/src/diag.rs or DESIGN.md".into());
        return;
    };

    // Defined codes: string literals in diag.rs (the `as_str` wire forms),
    // excluding the test module's fixture literals.
    let mut defined = Vec::new();
    for (_, line) in non_test_lines(&diag) {
        if is_comment(line) {
            continue;
        }
        for lit in string_literals(line) {
            defined.extend(sim_codes(&lit, "SQP"));
        }
    }
    let mut seen = Vec::new();
    for code in &defined {
        if seen.contains(code) {
            findings.push(Finding {
                code: "SIM-L003",
                file: "crates/check/src/diag.rs".into(),
                line: 0,
                message: format!("diagnostic code {code} is defined more than once"),
            });
        } else {
            seen.push(code.clone());
        }
    }

    // Documented codes: DESIGN.md lint-catalog table rows (`| SIM-… |`).
    let mut documented = Vec::new();
    for line in design.lines() {
        let t = line.trim_start();
        if t.starts_with("| SIM-") {
            documented.extend(sim_codes(t, "SQPL"));
        }
    }
    for code in &seen {
        let count = documented.iter().filter(|d| *d == code).count();
        if count != 1 {
            let mut message = String::new();
            let _ = write!(
                message,
                "diagnostic code {code} appears {count} time(s) in DESIGN.md's lint catalog \
                 (must be exactly 1)"
            );
            findings.push(Finding { code: "SIM-L003", file: "DESIGN.md".into(), line: 0, message });
        }
    }
    for code in &documented {
        let is_lint_rule = code.starts_with("SIM-L");
        if !is_lint_rule && !seen.contains(code) {
            findings.push(Finding {
                code: "SIM-L003",
                file: "DESIGN.md".into(),
                line: 0,
                message: format!("catalog documents {code}, which crates/check does not define"),
            });
        }
    }
    // sim-lint's own rules must be documented too.
    for rule in ["SIM-L001", "SIM-L002", "SIM-L003"] {
        if !documented.iter().any(|d| d == rule) {
            findings.push(Finding {
                code: "SIM-L003",
                file: "DESIGN.md".into(),
                line: 0,
                message: format!("lint rule {rule} is missing from DESIGN.md's lint catalog"),
            });
        }
    }
}
