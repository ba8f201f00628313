//! `bisect-lint` — the workspace's invariant-enforcement engine.
//!
//! PR 1 made every experiment bit-identical at any thread count and
//! PR 2 replaced panics with typed errors; this crate *enforces* those
//! invariants statically, in the spirit of the assertion/sanitizer
//! tiers of the large partitioner codebases (METIS, KaHyPar). It is
//! fully self-contained — a hand-rolled lexer, item parser, config
//! parser, and JSON writer, like the workspace's
//! rand/proptest/criterion shims — and ships six rule families:
//!
//! | family        | rules                                          | analysis |
//! |---------------|------------------------------------------------|----------|
//! | determinism   | `determinism-hash`, `determinism-time`, `determinism-entropy` | per-file |
//! | determinism   | `determinism-taint`                            | call graph |
//! | no-panic      | `no-panic`                                     | call graph |
//! | zero-alloc    | `zero-alloc`                                   | call graph |
//! | par-safety    | `par-safety-sync`, `par-safety-thread`         | call graph |
//! | unsafe        | `unsafe-hygiene`                               | per-file |
//! | API hygiene   | `api-docs`                                     | per-file |
//!
//! The call-graph rules ([`taint`]) run over a workspace call graph
//! ([`callgraph`]) assembled from a lightweight item parser
//! ([`parse`](mod@parse)): allocation and panics are banned *transitively* from
//! the hot-path entry points, nondeterminism may not leak into the
//! guarded crates through a return value, and `crates/par` consumers
//! may not smuggle in shared state or ad-hoc threads.
//!
//! Scopes come from `lint.toml` at the workspace root; individual
//! findings are silenced inline with `// lint: allow(<rule>) — reason`
//! (see [`suppress`]), which for the call-graph rules also *certifies*
//! the site so the property stops propagating to callers. Unused
//! suppressions are reported (and `--suppressions` fails on them), and
//! `--baseline` diffs findings against a committed snapshot
//! ([`baseline`]). The `bisect-lint` binary exits nonzero on anything
//! actionable:
//!
//! ```text
//! cargo run -p bisect-lint -- --json lint.json --suppressions \
//!     --baseline lint_baseline.json
//! ```
//!
//! See DESIGN.md §9 for the rule catalogue and §14 for the call-graph
//! architecture.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod config;
pub mod diag;
pub mod engine;
pub mod error;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod source;
pub mod suppress;
pub mod taint;

pub use baseline::Baseline;
pub use callgraph::{CallGraph, CrateDeps};
pub use config::Config;
pub use diag::{Diagnostic, Severity};
pub use engine::{check_source, check_sources, lint_files, lint_workspace, Report};
pub use error::LintError;
pub use lexer::{lex, Token, TokenKind};
pub use parse::{parse, ParsedFile};
pub use source::SourceFile;
pub use suppress::{Suppressions, UnusedSuppression};
