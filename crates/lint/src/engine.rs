//! The driver: walk the workspace, parse every `.rs` file in scope,
//! run the per-file rules, assemble the call graph, run the
//! call-graph analyses, and fold everything into a [`Report`].
//!
//! Linting is two-phase (DESIGN.md §14). Phase one runs the token
//! rules of [`crate::rules`] file by file and filters them through
//! inline suppressions. Phase two builds the [`CallGraph`] over the
//! [`crate::parse`](mod@crate::parse) output and runs the interprocedural analyses of
//! [`crate::taint`], which consult the same suppression set as
//! certifications — a suppressed panic site is not may-panic for its
//! callers. Suppressions that never fire in either phase surface in
//! [`Report::unused_suppressions`].

use std::fs;
use std::path::{Path, PathBuf};

use crate::callgraph::{CallGraph, CrateDeps};
use crate::config::{path_in, Config};
use crate::diag::{Diagnostic, Severity};
use crate::error::LintError;
use crate::parse::{self, ParsedFile};
use crate::rules::all_rules;
use crate::source::SourceFile;
use crate::suppress::{Suppressions, UnusedSuppression};
use crate::taint::{self, GlobalContext};

/// The outcome of a lint run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Non-suppressed findings, ordered by (file, line, column, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// How many findings inline suppressions silenced or certified.
    pub suppressed: usize,
    /// How many files were scanned.
    pub files_scanned: usize,
    /// Suppression comments that silenced or certified nothing, in
    /// (file, line) order.
    pub unused_suppressions: Vec<UnusedSuppression>,
}

impl Report {
    /// Whether the run found nothing actionable.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Counts of (errors, warnings) among the kept diagnostics.
    pub fn counts(&self) -> (usize, usize) {
        let errors = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        (errors, self.diagnostics.len() - errors)
    }
}

/// Lints an in-memory file set: both phases, suppressions applied.
/// `deps` restricts cross-crate call edges to dependency direction
/// (`None` for single-file and fixture runs).
pub fn lint_files(cfg: &Config, files: &[SourceFile], deps: Option<&CrateDeps>) -> Report {
    let parsed: Vec<ParsedFile> = files.iter().map(parse::parse).collect();
    let mut sup = Suppressions::collect(files, &parsed);
    let mut diagnostics = Vec::new();
    // Phase one: per-file token rules.
    for (f, file) in files.iter().enumerate() {
        let mut diags = Vec::new();
        for rule in all_rules() {
            if rule.applies(cfg, &file.path) {
                rule.check(cfg, file, &mut diags);
            }
        }
        diagnostics.extend(sup.apply(f, diags));
    }
    // Phase two: call-graph analyses, certifying through `sup`.
    let graph = CallGraph::build(files, &parsed, deps);
    let ctx = GlobalContext {
        cfg,
        files,
        parsed: &parsed,
        graph: &graph,
    };
    taint::check_global(&ctx, &mut sup, &mut diagnostics);
    diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Report {
        diagnostics,
        suppressed: sup.hits,
        files_scanned: files.len(),
        unused_suppressions: sup.unused(files),
    }
}

/// Lints several in-memory sources given as `(path, text)` pairs —
/// the unit the multi-file call-graph fixture tests drive.
pub fn check_sources(cfg: &Config, sources: &[(&str, &str)]) -> Report {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(path, text)| SourceFile::new(*path, *text))
        .collect();
    lint_files(cfg, &files, None)
}

/// Lints a single file's text as if it lived at `rel_path`, returning
/// the kept diagnostics and the suppressed count. This is the unit the
/// single-file fixture tests drive directly.
pub fn check_source(cfg: &Config, rel_path: &str, text: &str) -> (Vec<Diagnostic>, usize) {
    let report = check_sources(cfg, &[(rel_path, text)]);
    (report.diagnostics, report.suppressed)
}

/// Lints every `.rs` file under the configured include roots of
/// `root`, skipping excluded prefixes. Cross-crate call edges follow
/// the dependency direction parsed from the workspace manifests.
///
/// # Errors
///
/// [`LintError::Io`] when a directory or file cannot be read.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Result<Report, LintError> {
    let mut paths = Vec::new();
    for inc in &cfg.include {
        let dir = root.join(inc);
        if dir.exists() {
            walk(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let rel = relative_path(root, &path);
        if path_in(&rel, &cfg.exclude) {
            continue;
        }
        let text = fs::read_to_string(&path).map_err(|e| LintError::Io {
            path: rel.clone(),
            message: e.to_string(),
        })?;
        files.push(SourceFile::new(rel, text));
    }
    let deps = CrateDeps::load(root);
    Ok(lint_files(cfg, &files, Some(&deps)))
}

/// Recursively collects `.rs` files, visiting entries in sorted order
/// so reports are byte-identical across runs and platforms.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let read = |p: &Path| -> Result<Vec<PathBuf>, LintError> {
        let mut entries = Vec::new();
        let iter = fs::read_dir(p).map_err(|e| LintError::Io {
            path: p.display().to_string(),
            message: e.to_string(),
        })?;
        for entry in iter {
            let entry = entry.map_err(|e| LintError::Io {
                path: p.display().to_string(),
                message: e.to_string(),
            })?;
            entries.push(entry.path());
        }
        entries.sort();
        Ok(entries)
    };
    for path in read(dir)? {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated regardless of platform.
fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_for(paths: &[&str]) -> Config {
        Config {
            no_panic_paths: paths.iter().map(|s| s.to_string()).collect(),
            ..Config::default()
        }
    }

    #[test]
    fn check_source_applies_scoped_rules_only() {
        let cfg = cfg_for(&["scoped"]);
        let bad = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let (in_scope, _) = check_source(&cfg, "scoped/a.rs", bad);
        assert_eq!(in_scope.len(), 1);
        assert_eq!(in_scope[0].rule, "no-panic");
        let (out_of_scope, _) = check_source(&cfg, "other/a.rs", bad);
        assert!(out_of_scope.is_empty());
    }

    #[test]
    fn diagnostics_are_ordered_and_suppressions_counted() {
        let cfg = cfg_for(&["s"]);
        let src = "fn g(x: Option<u32>) {\n    x.clone().unwrap(); // lint: allow(no-panic)\n    panic!(\"b\");\n    todo!();\n}\n";
        let (kept, suppressed) = check_source(&cfg, "s/a.rs", src);
        assert_eq!(suppressed, 1);
        let lines: Vec<u32> = kept.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![3, 4]);
    }

    #[test]
    fn reports_carry_unused_suppressions() {
        let cfg = cfg_for(&["s"]);
        let src = "fn g() -> u32 { 1 } // lint: allow(no-panic) — stale\n";
        let report = check_sources(&cfg, &[("s/a.rs", src)]);
        assert!(report.is_clean());
        assert_eq!(report.unused_suppressions.len(), 1);
        assert_eq!(report.unused_suppressions[0].file, "s/a.rs");
        assert_eq!(report.unused_suppressions[0].line, 1);
    }
}
