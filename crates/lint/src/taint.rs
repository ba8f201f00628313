//! The call-graph analyses: panic reachability, zero-alloc
//! reachability, determinism taint, and the par-safety discipline.
//!
//! All four share one machinery (DESIGN.md §14): collect *seed*
//! effects per function from the [`crate::parse`](mod@crate::parse) output, propagate
//! over the [`crate::callgraph`] edges to a fixpoint (a reverse BFS
//! that records, per function, the next hop toward a witnessing
//! seed), and report only at the *boundary* — the first call site
//! where guarded code reaches the property. Inline suppressions act
//! interprocedurally: a suppressed seed is *certified* and never
//! propagates, so one `// lint: allow(no-panic) — invariant` at the
//! panic site clears every transitive caller, and deleting the panic
//! later surfaces the comment in the unused-suppressions report.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::config::{path_in, Config};
use crate::diag::{Diagnostic, Severity};
use crate::parse::{Effect, EffectKind, FnItem, ParsedFile};
use crate::source::SourceFile;
use crate::suppress::Suppressions;

/// Everything the global analyses need to see at once.
pub struct GlobalContext<'a> {
    /// The active configuration.
    pub cfg: &'a Config,
    /// Every scanned file.
    pub files: &'a [SourceFile],
    /// The files' parsed items, parallel to `files`.
    pub parsed: &'a [ParsedFile],
    /// The workspace call graph over `parsed`.
    pub graph: &'a CallGraph,
}

/// Where a witnessing seed effect sits, for diagnostic messages.
#[derive(Debug, Clone)]
struct SeedSite {
    what: String,
    file: String,
    line: u32,
}

impl<'a> GlobalContext<'a> {
    fn path_of(&self, node: usize) -> &str {
        &self.files[self.graph.nodes[node].file].path
    }

    fn file_of(&self, node: usize) -> usize {
        self.graph.nodes[node].file
    }

    fn fn_of(&self, node: usize) -> &'a FnItem {
        let n = self.graph.nodes[node];
        &self.parsed[n.file].fns[n.fn_idx]
    }

    /// The `from`-to-seed witness chain as `` `a` → `b` → `c` ``,
    /// elided in the middle past five hops.
    fn chain(&self, witness: &[Option<usize>], from: usize) -> String {
        let mut names = Vec::new();
        let mut at = from;
        loop {
            names.push(self.fn_of(at).name.clone());
            match witness[at] {
                Some(next) if next != at && names.len() <= self.graph.nodes.len() => at = next,
                _ => break,
            }
        }
        let parts: Vec<String> = if names.len() > 5 {
            let mut v: Vec<String> = names[..2].to_vec();
            v.push("…".to_string());
            v.extend_from_slice(&names[names.len() - 2..]);
            v
        } else {
            names
        };
        parts
            .iter()
            .map(|n| format!("`{n}`"))
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

/// Runs every call-graph rule, appending findings to `out`.
/// Certification queries go through `sup`, so a fired suppression both
/// silences the local site and stops propagation.
pub fn check_global(ctx: &GlobalContext<'_>, sup: &mut Suppressions, out: &mut Vec<Diagnostic>) {
    let rev = reverse_edges(ctx.graph);
    no_panic(ctx, &rev, sup, out);
    zero_alloc(ctx, sup, out);
    determinism_taint(ctx, &rev, sup, out);
    par_safety(ctx, sup, out);
}

/// Caller lists per node (the reverse adjacency of the call graph).
fn reverse_edges(graph: &CallGraph) -> Vec<Vec<usize>> {
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); graph.nodes.len()];
    for (caller, edges) in graph.edges.iter().enumerate() {
        for e in edges {
            rev[e.callee].push(caller);
        }
    }
    rev
}

/// Reverse-BFS propagation: `witness[n]` is the next hop from `n`
/// toward a seed (`Some(n)` for seeds themselves), `None` when `n`
/// cannot reach any seed. Seeds are visited in id order, so the
/// witness choice — and every diagnostic path built from it — is
/// deterministic.
fn witness_up(rev: &[Vec<usize>], seeds: &[usize]) -> Vec<Option<usize>> {
    let mut witness: Vec<Option<usize>> = vec![None; rev.len()];
    let mut queue: Vec<usize> = Vec::new();
    for &s in seeds {
        if witness[s].is_none() {
            witness[s] = Some(s);
            queue.push(s);
        }
    }
    let mut at = 0;
    while at < queue.len() {
        let n = queue[at];
        at += 1;
        for &caller in &rev[n] {
            if witness[caller].is_none() {
                witness[caller] = Some(n);
                queue.push(caller);
            }
        }
    }
    witness
}

/// The seed at the end of `from`'s witness chain.
fn seed_of(witness: &[Option<usize>], from: usize) -> usize {
    let mut at = from;
    let mut steps = 0usize;
    while let Some(next) = witness[at] {
        if next == at || steps > witness.len() {
            break;
        }
        at = next;
        steps += 1;
    }
    at
}

/// Panic reachability. Direct `unwrap`/`expect`/panic-macro (and,
/// when configured, indexing) sites in guarded files are flagged as
/// before; additionally, a guarded function calling an *unguarded*
/// function that can transitively panic is flagged at the call site —
/// the violation PR 3's per-file scanner could not see.
fn no_panic(
    ctx: &GlobalContext<'_>,
    rev: &[Vec<usize>],
    sup: &mut Suppressions,
    out: &mut Vec<Diagnostic>,
) {
    let guarded = &ctx.cfg.no_panic_paths;
    if guarded.is_empty() {
        return;
    }
    let is_panic = |e: &Effect| {
        e.kind == EffectKind::Panic || (ctx.cfg.index_panics && e.kind == EffectKind::Index)
    };
    let suggestion = "return a typed error (GraphError/BisectError/GenError); for an \
                      invariant that cannot fail, suppress with `// lint: allow(no-panic)` \
                      and state the invariant";
    // Seeds: functions with at least one uncertified panic site.
    let mut seeds: Vec<usize> = Vec::new();
    let mut seed_sites: BTreeMap<usize, SeedSite> = BTreeMap::new();
    let mut direct: Vec<Vec<&Effect>> = vec![Vec::new(); ctx.graph.nodes.len()];
    for (node, slot) in direct.iter_mut().enumerate() {
        let file = ctx.file_of(node);
        for e in ctx.fn_of(node).effects.iter().filter(|e| is_panic(e)) {
            if sup.covers(file, "no-panic", e.line) {
                continue;
            }
            slot.push(e);
        }
        if let Some(first) = slot.first() {
            seeds.push(node);
            seed_sites.insert(
                node,
                SeedSite {
                    what: first.what.clone(),
                    file: ctx.path_of(node).to_string(),
                    line: first.line,
                },
            );
        }
    }
    let witness = witness_up(rev, &seeds);
    // Direct sites (and top-level effects) in guarded files.
    for (node, effects) in direct.iter().enumerate() {
        if !path_in(ctx.path_of(node), guarded) {
            continue;
        }
        for e in effects {
            out.push(panic_diag(ctx.path_of(node), e, suggestion));
        }
    }
    for (f, parsed) in ctx.parsed.iter().enumerate() {
        if !path_in(&ctx.files[f].path, guarded) {
            continue;
        }
        for e in parsed.top_effects.iter().filter(|e| is_panic(e)) {
            if sup.covers(f, "no-panic", e.line) {
                continue;
            }
            out.push(panic_diag(&ctx.files[f].path, e, suggestion));
        }
    }
    // Boundary call sites: guarded caller → unguarded may-panic callee.
    for caller in 0..ctx.graph.nodes.len() {
        if !path_in(ctx.path_of(caller), guarded) {
            continue;
        }
        let caller_file = ctx.file_of(caller);
        for edge in &ctx.graph.edges[caller] {
            if witness[edge.callee].is_none() || path_in(ctx.path_of(edge.callee), guarded) {
                continue;
            }
            if sup.covers(caller_file, "no-panic", edge.line) {
                continue;
            }
            let seed = seed_of(&witness, edge.callee);
            let site = &seed_sites[&seed];
            out.push(Diagnostic {
                rule: "no-panic",
                severity: Severity::Error,
                file: ctx.path_of(caller).to_string(),
                line: edge.line,
                col: edge.col,
                message: format!(
                    "call into `{}` can panic: `{}` at {}:{} (via {})",
                    ctx.fn_of(edge.callee).name,
                    site.what,
                    site.file,
                    site.line,
                    ctx.chain(&witness, edge.callee),
                ),
                suggestion: Some(
                    "make the callee return a typed error, or certify the call site with \
                     `// lint: allow(no-panic)` stating why the input cannot trigger it"
                        .into(),
                ),
            });
        }
    }
}

fn panic_diag(path: &str, e: &Effect, suggestion: &str) -> Diagnostic {
    let message = if e.kind == EffectKind::Index {
        "slice indexing can panic in non-test code".to_string()
    } else {
        format!("`{}` in non-test code", e.what)
    };
    Diagnostic {
        rule: "no-panic",
        severity: Severity::Error,
        file: path.to_string(),
        line: e.line,
        col: e.col,
        message,
        suggestion: Some(suggestion.to_string()),
    }
}

/// Zero-alloc reachability. With `[reachability] alloc_roots`
/// configured, allocation is banned in every function reachable from
/// the named hot entry points (minus the sanctioned `alloc_allow`
/// arena files) — wherever those functions live. Without roots it
/// falls back to the PR-3 semantics: every function in a `hot_paths`
/// file is a root.
fn zero_alloc(ctx: &GlobalContext<'_>, sup: &mut Suppressions, out: &mut Vec<Diagnostic>) {
    let cfg = ctx.cfg;
    if cfg.hot_paths.is_empty() && cfg.alloc_roots.is_empty() {
        return;
    }
    let suggestion = "reuse a Workspace arena buffer; for one-time warm-up allocation, \
                      suppress with `// lint: allow(zero-alloc)`";
    let mut roots: Vec<usize> = Vec::new();
    if cfg.alloc_roots.is_empty() {
        for node in 0..ctx.graph.nodes.len() {
            if path_in(ctx.path_of(node), &cfg.hot_paths) {
                roots.push(node);
            }
        }
    } else {
        for spec in &cfg.alloc_roots {
            let matches: Vec<usize> = (0..ctx.graph.nodes.len())
                .filter(|&n| {
                    let f = ctx.fn_of(n);
                    match spec.split_once("::") {
                        Some((ty, name)) => f.self_type.as_deref() == Some(ty) && f.name == name,
                        None => f.self_type.is_none() && f.name == *spec,
                    }
                })
                .collect();
            if matches.is_empty() {
                // A renamed entry point must fail loudly, not silently
                // stop guarding the hot path.
                out.push(Diagnostic {
                    rule: "zero-alloc",
                    severity: Severity::Error,
                    file: "lint.toml".to_string(),
                    line: 1,
                    col: 1,
                    message: format!(
                        "[reachability] alloc_roots entry `{spec}` does not match any function"
                    ),
                    suggestion: Some(
                        "update alloc_roots to the renamed hot-path entry point".into(),
                    ),
                });
            }
            roots.extend(matches);
        }
    }
    let parent = ctx.graph.reach_from(&roots);
    for node in 0..ctx.graph.nodes.len() {
        if parent[node].is_none() {
            continue;
        }
        let path = ctx.path_of(node);
        if path_in(path, &cfg.alloc_allow) {
            continue;
        }
        let file = ctx.file_of(node);
        let in_hot_file = path_in(path, &cfg.hot_paths);
        for e in ctx.fn_of(node).effects.iter() {
            if e.kind != EffectKind::Alloc {
                continue;
            }
            if sup.covers(file, "zero-alloc", e.line) {
                continue;
            }
            let message =
                if cfg.alloc_roots.is_empty() || (in_hot_file && parent[node] == Some(node)) {
                    format!("`{}` in a zero-alloc hot path", e.what)
                } else {
                    format!(
                        "`{}` allocates in a function reachable from a hot entry (path {})",
                        e.what,
                        chain_down(ctx, &parent, node),
                    )
                };
            out.push(Diagnostic {
                rule: "zero-alloc",
                severity: Severity::Error,
                file: path.to_string(),
                line: e.line,
                col: e.col,
                message,
                suggestion: Some(suggestion.to_string()),
            });
        }
    }
    // Top-level allocation effects in hot-path files (item
    // initializers) stay banned in both modes.
    for (f, parsed) in ctx.parsed.iter().enumerate() {
        if !path_in(&ctx.files[f].path, &cfg.hot_paths) {
            continue;
        }
        for e in &parsed.top_effects {
            if e.kind != EffectKind::Alloc || sup.covers(f, "zero-alloc", e.line) {
                continue;
            }
            out.push(Diagnostic {
                rule: "zero-alloc",
                severity: Severity::Error,
                file: ctx.files[f].path.clone(),
                line: e.line,
                col: e.col,
                message: format!("`{}` in a zero-alloc hot path", e.what),
                suggestion: Some(suggestion.to_string()),
            });
        }
    }
}

/// The root-to-`node` chain under a forward reachability parent map.
fn chain_down(ctx: &GlobalContext<'_>, parent: &[Option<usize>], node: usize) -> String {
    let names = ctx.graph.path_to(ctx.parsed, parent, node);
    let parts: Vec<&str> = if names.len() > 5 {
        let mut v = names[..2].to_vec();
        v.push("…");
        v.extend_from_slice(&names[names.len() - 2..]);
        v
    } else {
        names
    };
    parts
        .iter()
        .map(|n| format!("`{n}`"))
        .collect::<Vec<_>>()
        .join(" → ")
}

/// Determinism taint. Sources are nondeterminism that is *legal where
/// it sits* — `HashMap` iteration outside the guarded crates, clock
/// reads in sanctioned timing modules, entropy inside the rand shim —
/// but must not flow into determinism-critical code through a call.
/// The per-file `determinism-*` rules already ban the illegal sites;
/// this rule guards the boundary.
fn determinism_taint(
    ctx: &GlobalContext<'_>,
    rev: &[Vec<usize>],
    sup: &mut Suppressions,
    out: &mut Vec<Diagnostic>,
) {
    let cfg = ctx.cfg;
    if cfg.determinism_paths.is_empty() {
        return;
    }
    let source_what = |path: &str, e: &Effect| -> Option<String> {
        match e.kind {
            EffectKind::Hash if !path_in(path, &cfg.determinism_paths) => {
                Some(format!("`{}` iteration order", e.what))
            }
            EffectKind::Time
                if !path_in(path, &cfg.timing_paths) || path_in(path, &cfg.timing_allow) =>
            {
                Some(format!("wall-clock `{}`", e.what))
            }
            EffectKind::Entropy if path_in(path, &cfg.entropy_allow) => {
                Some(format!("entropy source `{}`", e.what))
            }
            _ => None,
        }
    };
    let mut seeds: Vec<usize> = Vec::new();
    let mut seed_sites: BTreeMap<usize, SeedSite> = BTreeMap::new();
    for node in 0..ctx.graph.nodes.len() {
        let path = ctx.path_of(node);
        let file = ctx.file_of(node);
        for e in &ctx.fn_of(node).effects {
            let Some(what) = source_what(path, e) else {
                continue;
            };
            if sup.covers(file, "determinism-taint", e.line) {
                continue;
            }
            if let std::collections::btree_map::Entry::Vacant(slot) = seed_sites.entry(node) {
                seeds.push(node);
                slot.insert(SeedSite {
                    what,
                    file: path.to_string(),
                    line: e.line,
                });
            }
        }
    }
    let witness = witness_up(rev, &seeds);
    for caller in 0..ctx.graph.nodes.len() {
        if !path_in(ctx.path_of(caller), &cfg.determinism_paths) {
            continue;
        }
        let caller_file = ctx.file_of(caller);
        for edge in &ctx.graph.edges[caller] {
            if witness[edge.callee].is_none()
                || path_in(ctx.path_of(edge.callee), &cfg.determinism_paths)
            {
                continue;
            }
            if sup.covers(caller_file, "determinism-taint", edge.line) {
                continue;
            }
            let seed = seed_of(&witness, edge.callee);
            let site = &seed_sites[&seed];
            out.push(Diagnostic {
                rule: "determinism-taint",
                severity: Severity::Error,
                file: ctx.path_of(caller).to_string(),
                line: edge.line,
                col: edge.col,
                message: format!(
                    "call into `{}` leaks nondeterminism into guarded code: {} at {}:{} (via {})",
                    ctx.fn_of(edge.callee).name,
                    site.what,
                    site.file,
                    site.line,
                    ctx.chain(&witness, edge.callee),
                ),
                suggestion: Some(
                    "sort or fingerprint the data before it crosses into determinism-critical \
                     code, or certify the call site with `// lint: allow(determinism-taint)` \
                     stating why the order/time/entropy cannot escape"
                        .into(),
                ),
            });
        }
    }
}

/// The par-safety family. `par-safety-thread` bans ad-hoc threading
/// primitives outside the sanctioned parallel runtime.
/// `par-safety-sync` bans interior-mutability/shared-state types in
/// the parallel-consumer paths directly, and — through the call graph
/// — anywhere reachable from a consumer that invokes a sanctioned
/// parallel entry point (`par_map` closures must stay disjoint-range
/// pure). Per-thread `thread_local!` state is exempt at parse level.
fn par_safety(ctx: &GlobalContext<'_>, sup: &mut Suppressions, out: &mut Vec<Diagnostic>) {
    let cfg = ctx.cfg;
    if cfg.par_sanctioned.is_empty() && cfg.par_consumers.is_empty() {
        return;
    }
    // Thread primitives outside the sanctioned runtime.
    let flag_thread =
        |path: &str, file: usize, e: &Effect, out: &mut Vec<Diagnostic>, sup: &mut Suppressions| {
            if e.kind != EffectKind::ThreadSpawn || path_in(path, &cfg.par_sanctioned) {
                return;
            }
            if sup.covers(file, "par-safety-thread", e.line) {
                return;
            }
            out.push(Diagnostic {
                rule: "par-safety-thread",
                severity: Severity::Error,
                file: path.to_string(),
                line: e.line,
                col: e.col,
                message: format!("`{}` outside the sanctioned parallel runtime", e.what),
                suggestion: Some(
                    "route parallelism through bisect-par's par_map/par_map_with so thread \
                 count and merge order stay deterministic"
                        .into(),
                ),
            });
        };
    for node in 0..ctx.graph.nodes.len() {
        let path = ctx.path_of(node).to_string();
        let file = ctx.file_of(node);
        for e in &ctx.fn_of(node).effects {
            flag_thread(&path, file, e, out, sup);
        }
    }
    for (f, parsed) in ctx.parsed.iter().enumerate() {
        let path = ctx.files[f].path.clone();
        for e in &parsed.top_effects {
            flag_thread(&path, f, e, out, sup);
        }
    }
    // Shared-state types directly in consumer paths.
    let sync_suggestion = "parallel consumers must share state only via bisect-par's \
                           disjoint-range entry points; move the cell behind the runtime \
                           or suppress with `// lint: allow(par-safety-sync)` stating why \
                           it cannot race";
    let direct_sync = |path: &str| path_in(path, &cfg.par_consumers);
    for node in 0..ctx.graph.nodes.len() {
        let path = ctx.path_of(node).to_string();
        if !direct_sync(&path) {
            continue;
        }
        let file = ctx.file_of(node);
        for e in &ctx.fn_of(node).effects {
            if e.kind != EffectKind::InteriorMut || sup.covers(file, "par-safety-sync", e.line) {
                continue;
            }
            out.push(sync_diag(&path, e, sync_suggestion, None));
        }
    }
    for (f, parsed) in ctx.parsed.iter().enumerate() {
        let path = ctx.files[f].path.clone();
        if !direct_sync(&path) {
            continue;
        }
        for e in &parsed.top_effects {
            if e.kind != EffectKind::InteriorMut || sup.covers(f, "par-safety-sync", e.line) {
                continue;
            }
            out.push(sync_diag(&path, e, sync_suggestion, None));
        }
    }
    // Shared state reachable from a consumer's parallel entry call.
    if cfg.par_entry_points.is_empty() {
        return;
    }
    let calls_entry = |node: usize| {
        ctx.fn_of(node).calls.iter().any(|c| {
            let name = match &c.target {
                crate::parse::CallTarget::Free(n)
                | crate::parse::CallTarget::Method(n)
                | crate::parse::CallTarget::Qualified(_, n) => n,
                crate::parse::CallTarget::Macro(_) => return false,
            };
            cfg.par_entry_points.iter().any(|e| e == name)
        })
    };
    let par_callers: Vec<usize> = (0..ctx.graph.nodes.len())
        .filter(|&n| direct_sync(ctx.path_of(n)) && calls_entry(n))
        .collect();
    let mut reported: BTreeSet<(usize, u32, u32)> = BTreeSet::new();
    for &root in &par_callers {
        let parent = ctx.graph.reach_from(&[root]);
        for node in 0..ctx.graph.nodes.len() {
            if parent[node].is_none() {
                continue;
            }
            let path = ctx.path_of(node);
            if path_in(path, &cfg.par_consumers) || path_in(path, &cfg.par_sanctioned) {
                continue;
            }
            let file = ctx.file_of(node);
            for e in &ctx.fn_of(node).effects {
                if e.kind != EffectKind::InteriorMut || !reported.insert((file, e.line, e.col)) {
                    continue;
                }
                if sup.covers(file, "par-safety-sync", e.line) {
                    continue;
                }
                let via = format!(
                    "reachable from parallel consumer `{}` (path {})",
                    ctx.fn_of(root).name,
                    chain_down(ctx, &parent, node),
                );
                out.push(sync_diag(path, e, sync_suggestion, Some(&via)));
            }
        }
    }
}

fn sync_diag(path: &str, e: &Effect, suggestion: &str, via: Option<&str>) -> Diagnostic {
    let message = match via {
        Some(via) => format!("`{}` shared-state type {via}", e.what),
        None => format!(
            "`{}` (interior mutability) in a parallel-consumer path",
            e.what
        ),
    };
    Diagnostic {
        rule: "par-safety-sync",
        severity: Severity::Error,
        file: path.to_string(),
        line: e.line,
        col: e.col,
        message,
        suggestion: Some(suggestion.to_string()),
    }
}
