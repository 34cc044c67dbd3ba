//! `ptherm-lint` — workspace-aware static analysis for the ptherm
//! workspace.
//!
//! The engine's headline guarantees are *structural*: typed errors
//! instead of worker panics (fault tolerance), bitwise-deterministic
//! results across threads and backends, a small audited unsafe
//! surface. Tests sample those properties; this crate enforces them by
//! analysis of the source itself, as a hard CI gate. See
//! [`rules`] for the rule table and `docs/ARCHITECTURE.md` ("Static
//! analysis") for the workflow.
//!
//! Dependency-free on purpose (no `syn` in the offline vendor set, and
//! the lint must run even when the crates it audits do not build):
//! [`lexer`] is a purpose-built string/char/comment/raw-string aware
//! tokenizer with `#[cfg(test)]` awareness.

pub mod lexer;
pub mod rules;

pub use rules::{analyze_source, RuleSet, Violation, RULES};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where the unsafe inventory manifest lives, workspace-relative.
pub const UNSAFE_INVENTORY: &str = "ci/unsafe_inventory.json";

/// Directories never scanned: third-party stand-ins, build output,
/// and the lint's own deliberately-bad fixture corpus.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "fixtures"];

/// Maps a workspace-relative path (forward slashes) to the rules that
/// apply to it. R3 (`unsafe-hygiene`) applies to every scanned file
/// and is not part of the set.
///
/// * R1 `panic-freedom`: the job hot path — `core/src/cosim/*`
///   (which includes the seeded sweeps, the biased power law and
///   the envelope bisector), `core/src/thermal/image_sum.rs` (the
///   image sums both operator builds run on a cache miss),
///   `fleet/src/engine.rs`, `fleet/src/cache.rs`,
///   `fleet/src/server.rs`, `par/src/*`. A panic here kills a worker
///   mid-fleet-run (or a serve-mode connection thread).
/// * R2 `determinism`: fingerprint, protocol and result-rendering
///   modules — `floorplan/src/fingerprint.rs`, `fleet/src/jobs.rs`
///   (home of `steady_result_fingerprint`, the delta result-cache
///   key), `fleet/src/json.rs`. Nondeterminism here breaks
///   replayability and delta cache-hit identity.
/// * R4 `float-compare`: both of the above sets.
pub fn rules_for(rel: &str) -> RuleSet {
    let hot_path = rel.starts_with("crates/core/src/cosim/")
        || rel == "crates/core/src/thermal/image_sum.rs"
        || rel == "crates/fleet/src/engine.rs"
        || rel == "crates/fleet/src/cache.rs"
        || rel == "crates/fleet/src/server.rs"
        || rel.starts_with("crates/par/src/");
    let determinism = matches!(
        rel,
        "crates/floorplan/src/fingerprint.rs"
            | "crates/fleet/src/jobs.rs"
            | "crates/fleet/src/json.rs"
    );
    RuleSet {
        panic_freedom: hot_path,
        determinism,
        float_compare: hot_path || determinism,
    }
}

/// Recursively collects every `.rs` file under `root`, skipping
/// `SKIP_DIRS` (`target`, `vendor`, `.git`, `fixtures`), sorted by
/// workspace-relative path so reports and the inventory are stable
/// across filesystems.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The workspace-relative path with forward slashes, for diagnostics
/// and manifest keys.
pub fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Result of a whole-workspace run.
pub struct WorkspaceReport {
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
    /// Per-file unsafe counts (only files with at least one site).
    pub unsafe_inventory: BTreeMap<String, usize>,
}

/// Lints every source under `root`: per-file rules plus the
/// workspace-level unsafe inventory check against
/// `root/ci/unsafe_inventory.json` (a missing manifest pins the
/// inventory to empty, so any unsafe is flagged until the manifest is
/// checked in).
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let sources = collect_sources(root)?;
    let mut violations = Vec::new();
    let mut inventory = BTreeMap::new();
    for path in &sources {
        let rel = relative(root, path);
        let src = std::fs::read_to_string(path)?;
        let analysis = analyze_source(&rel, &src, rules_for(&rel));
        violations.extend(analysis.violations);
        if analysis.unsafe_count > 0 {
            inventory.insert(rel, analysis.unsafe_count);
        }
    }

    let manifest = load_inventory(&root.join(UNSAFE_INVENTORY)).unwrap_or_default();
    for (file, &count) in &inventory {
        let pinned = manifest.get(file).copied().unwrap_or(0);
        if count != pinned {
            violations.push(Violation {
                file: file.clone(),
                line: 1,
                col: 1,
                rule: "unsafe-hygiene",
                message: format!(
                    "unsafe inventory drift: {count} site(s) found, manifest pins \
                     {pinned} — adding unsafe is a reviewed diff, update {UNSAFE_INVENTORY}"
                ),
            });
        }
    }
    for (file, &pinned) in &manifest {
        if pinned > 0 && !inventory.contains_key(file) {
            violations.push(Violation {
                file: file.clone(),
                line: 1,
                col: 1,
                rule: "unsafe-hygiene",
                message: format!(
                    "unsafe inventory drift: manifest pins {pinned} site(s) but none \
                     found — update {UNSAFE_INVENTORY}"
                ),
            });
        }
    }

    violations.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Ok(WorkspaceReport {
        violations,
        files_scanned: sources.len(),
        unsafe_inventory: inventory,
    })
}

/// Parses the inventory manifest. The format is JSON
/// (`{"files": {"<path>": <count>, ...}}`) but read with a
/// purpose-built scanner: every `"<path>.rs": <integer>` pair is a
/// file pin, which is exactly the subset the manifest uses (the
/// `total` field is derived, not a pin).
pub fn load_inventory(path: &Path) -> Option<BTreeMap<String, usize>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut map = BTreeMap::new();
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == '"' {
            let mut key = String::new();
            i += 1;
            while i < bytes.len() && bytes[i] != '"' {
                if bytes[i] == '\\' && i + 1 < bytes.len() {
                    i += 1;
                }
                key.push(bytes[i]);
                i += 1;
            }
            i += 1;
            while i < bytes.len() && bytes[i].is_whitespace() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == ':' {
                i += 1;
                while i < bytes.len() && bytes[i].is_whitespace() {
                    i += 1;
                }
                let mut num = String::new();
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    num.push(bytes[i]);
                    i += 1;
                }
                if let Ok(n) = num.parse::<usize>() {
                    if key.ends_with(".rs") {
                        map.insert(key, n);
                    }
                }
            }
            continue;
        }
        i += 1;
    }
    Some(map)
}

/// Renders the manifest for `--write-inventory`: stable order, one
/// file per line, a `total` for quick human diffing.
pub fn render_inventory(inventory: &BTreeMap<String, usize>) -> String {
    let mut out = String::from("{\n  \"files\": {\n");
    let entries: Vec<String> = inventory
        .iter()
        .map(|(file, count)| format!("    \"{file}\": {count}"))
        .collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  },\n");
    out.push_str(&format!(
        "  \"total\": {}\n}}\n",
        inventory.values().sum::<usize>()
    ));
    out
}

/// Baseline format: one `file:line:rule` per line (`#` comments
/// allowed). Line-number based on purpose — a baseline is a temporary
/// ratchet for landing the lint on a dirty tree, not a permanent
/// suppression mechanism, and it goes stale loudly when lines move.
pub fn load_baseline(path: &Path) -> std::io::Result<Vec<(String, usize, String)>> {
    let text = std::fs::read_to_string(path)?;
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.rsplitn(3, ':');
        let rule = parts.next().unwrap_or("").to_string();
        let lineno = parts.next().and_then(|n| n.parse::<usize>().ok());
        let file = parts.next().unwrap_or("").to_string();
        if let Some(lineno) = lineno {
            if !file.is_empty() && !rule.is_empty() {
                out.push((file, lineno, rule));
            }
        }
    }
    Ok(out)
}

/// Renders violations in baseline format for `--write-baseline`.
pub fn render_baseline(violations: &[Violation]) -> String {
    let mut out =
        String::from("# ptherm-lint baseline: file:line:rule, regenerate with --write-baseline\n");
    for v in violations {
        out.push_str(&format!("{}:{}:{}\n", v.file, v.line, v.rule));
    }
    out
}

/// Minimal JSON string escaping for the machine-readable report.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `--json` report: violations plus scan metadata.
pub fn render_json(report: &WorkspaceReport, shown: &[Violation]) -> String {
    let mut out = String::from("{\n  \"violations\": [");
    let items: Vec<String> = shown
        .iter()
        .map(|v| {
            format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                escape(&v.file),
                v.line,
                v.col,
                v.rule,
                escape(&v.message)
            )
        })
        .collect();
    out.push_str(&items.join(","));
    if !items.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str(&format!("  \"count\": {},\n", shown.len()));
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!(
        "  \"unsafe_total\": {},\n",
        report.unsafe_inventory.values().sum::<usize>()
    ));
    out.push_str(&format!(
        "  \"rules\": [{}]\n",
        RULES
            .iter()
            .map(|r| format!("\"{r}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("}\n");
    out
}

/// Human-readable report lines: `file:line:col rule message`.
pub fn render_human(shown: &[Violation]) -> String {
    let mut out = String::new();
    for v in shown {
        out.push_str(&format!(
            "{}:{}:{} {} {}\n",
            v.file, v.line, v.col, v.rule, v.message
        ));
    }
    out
}

/// Finds the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
