//! The check driver: walks a root, runs every rule family, applies waivers,
//! and enforces the lock-order manifest and the waiver budget.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::LexedFile;
use crate::manifest;
use crate::report::{Finding, Report, Rule};
use crate::rules::{self, FileScope, LockUse};
use crate::waivers;

/// Directory names the walker never descends into. `fixtures` holds the
/// lint's own negative test inputs — intentionally dirty files that must
/// not count against the real tree.
const SKIP_DIRS: [&str; 5] = ["target", ".git", ".github", ".claude", "fixtures"];

/// The committed waiver-budget file at the checked root.
pub const BUDGET_FILE: &str = "LINT_BUDGET.toml";
/// The committed lock-order manifest at the checked root.
pub const LOCK_ORDER_FILE: &str = "LOCK_ORDER.md";

/// Runs the full check rooted at `root` and returns the report.
pub fn check_root(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut lock_uses: Vec<LockUse> = Vec::new();
    let mut used_waivers: Vec<(Rule, usize)> = Vec::new();

    let mut rs_files = Vec::new();
    let mut manifests = Vec::new();
    walk(root, root, &mut rs_files, &mut manifests)?;
    rs_files.sort();
    manifests.sort();

    for rel in &rs_files {
        let text = fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let (mut findings, uses, used) = check_source(&rel_str, &text);
        report.files_scanned += 1;
        lock_uses.extend(uses);
        merge_counts(&mut used_waivers, used);
        report.findings.append(&mut findings);
    }

    for rel in &manifests {
        let text = fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if rel_str == "Cargo.toml" {
            report
                .findings
                .extend(manifest::check_workspace_manifest(&text));
        } else {
            report
                .findings
                .extend(manifest::check_crate_manifest(&rel_str, &text));
        }
    }

    // Rule paths are workspace-relative; fixture trees are partial
    // workspaces without a root manifest and are not held to them.
    let is_workspace = fs::read_to_string(root.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.contains("[workspace]"));
    if is_workspace {
        report
            .findings
            .extend(rules::missing_configured_paths(|path| {
                root.join(path).is_file()
            }));
    }

    lock_uses.sort();
    let lock_manifest = manifest::read_optional(&root.join(LOCK_ORDER_FILE));
    report.findings.extend(manifest::check_lock_order(
        lock_manifest.as_deref(),
        &lock_uses,
    ));

    let budget = manifest::read_optional(&root.join(BUDGET_FILE));
    report
        .findings
        .extend(manifest::check_budget(budget.as_deref(), &used_waivers));
    report.waivers_used = used_waivers;

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Runs every source-level rule family on one file, applies its waivers,
/// and returns `(findings, lock uses, used waiver counts)`. Exposed so
/// fixture tests can drive single files without a filesystem tree.
pub fn check_source(
    rel_path: &str,
    text: &str,
) -> (Vec<Finding>, Vec<LockUse>, Vec<(Rule, usize)>) {
    let lexed = LexedFile::lex(text);
    let scope = FileScope::of(rel_path);

    let mut findings = Vec::new();
    findings.extend(rules::layering_use(rel_path, &scope, &lexed));
    findings.extend(rules::session_discipline(rel_path, &scope, &lexed));
    findings.extend(rules::panic_audit(rel_path, &scope, &lexed));
    findings.extend(rules::determinism(rel_path, &lexed));
    let lock_uses = rules::collect_lock_uses(rel_path, &lexed);

    let file_waivers = waivers::collect_waivers(rel_path, &lexed);
    let (unused, used) = waivers::apply_waivers(rel_path, &file_waivers, &mut findings);
    findings.extend(unused);
    findings.extend(file_waivers.malformed);
    (findings, lock_uses, used)
}

fn merge_counts(into: &mut Vec<(Rule, usize)>, from: Vec<(Rule, usize)>) {
    for (rule, n) in from {
        match into.iter_mut().find(|(r, _)| *r == rule) {
            Some((_, total)) => *total += n,
            None => into.push((rule, n)),
        }
    }
}

/// Recursively collects `.rs` files and `Cargo.toml` manifests under
/// `dir`, as paths relative to `root`.
fn walk(
    root: &Path,
    dir: &Path,
    rs_files: &mut Vec<PathBuf>,
    manifests: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(root, &path, rs_files, manifests)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            if name == "Cargo.toml" {
                manifests.push(rel);
            } else {
                rs_files.push(rel);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_source_waives_and_counts() {
        let src =
            "fn f() {\n    x.unwrap() // dhlint: allow(panic) — key inserted two lines up\n}\n";
        let (findings, _, used) = check_source("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].waived);
        assert_eq!(used, vec![(Rule::Panic, 1)]);
    }

    #[test]
    fn check_source_reports_unwaived() {
        let src = "fn f() { x.unwrap() }\n";
        let (findings, _, used) = check_source("crates/lsm/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].waived);
        assert!(used.is_empty());
    }
}
