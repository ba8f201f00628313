//! The workspace call graph: one node per non-test `fn`, edges from
//! heuristic name resolution over the [`crate::parse`](mod@crate::parse) output.
//!
//! Resolution is tiered — same module, same file, same crate, then
//! dependency-allowed workspace crates — and links a call to *every*
//! candidate in the first non-empty tier. That over-approximates
//! (several `impl` blocks may define a `gain` method), which is the
//! right direction for the reachability rules: a spurious edge can at
//! worst demand a justified suppression, while a missing edge would
//! let a real violation hide behind a call. The crate-dependency map
//! parsed from the workspace `Cargo.toml`s keeps cross-crate edges
//! pointed along actual dependency direction, so a `bench` helper
//! cannot taint `core` through a name collision.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::parse::{CallTarget, ParsedFile};
use crate::source::SourceFile;

/// One call-graph node: a function, addressed by file and item index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRef {
    /// Index into the scanned file list.
    pub file: usize,
    /// Index into that file's [`ParsedFile::fns`].
    pub fn_idx: usize,
}

/// One resolved call edge with its source position.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// The callee node id.
    pub callee: usize,
    /// 1-based line of the call site.
    pub line: u32,
    /// 1-based column of the call site.
    pub col: u32,
}

/// The assembled graph. Node ids index both `nodes` and `edges`; the
/// order is (file, item) order, so graphs over the same inputs are
/// identical across runs.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every non-test function, in (file, item) order.
    pub nodes: Vec<NodeRef>,
    /// Outgoing edges per node, deduplicated, in callee-id order.
    pub edges: Vec<Vec<Edge>>,
    ids: BTreeMap<(usize, usize), usize>,
}

/// Which workspace crates each crate may call into, from the
/// `Cargo.toml` dependency declarations (transitively closed).
/// Dev-dependencies only extend the reach of leaf files (integration
/// tests, examples, benches) — library code cannot grow an edge into a
/// crate its `[dependencies]` never named.
#[derive(Debug, Default, Clone)]
pub struct CrateDeps {
    normal: BTreeMap<String, BTreeSet<String>>,
    with_dev: BTreeMap<String, BTreeSet<String>>,
}

/// The crate key of a workspace-relative path: `crates/graph/src/…` is
/// `graph`, everything else (`src`, `tests`, `examples`) is the root
/// package, keyed `""`.
pub fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// Whether a path holds integration tests, examples, or benches —
/// leaves of the dependency graph that library code never calls into.
fn is_leaf_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.starts_with("benches/")
        || path.contains("/tests/")
        || path.contains("/examples/")
        || path.contains("/benches/")
}

impl CrateDeps {
    /// Parses the dependency direction from the workspace manifests
    /// under `root`. Missing or unparseable manifests degrade to an
    /// empty map, which [`CrateDeps::allows`] treats permissively.
    pub fn load(root: &Path) -> CrateDeps {
        let read = |p: &Path| std::fs::read_to_string(p).unwrap_or_default();
        // `[workspace.dependencies]` maps dep names to paths.
        let root_toml = read(&root.join("Cargo.toml"));
        let mut name_to_key: BTreeMap<String, String> = BTreeMap::new();
        for (name, entry) in section_entries(&root_toml, "workspace.dependencies") {
            if let Some(path) = toml_path_value(&entry) {
                name_to_key.insert(name, crate_of(&path).to_string());
            }
        }
        let mut deps = CrateDeps::default();
        let mut manifests = vec![(String::new(), root_toml.clone())];
        if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
            let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
            dirs.sort();
            for dir in dirs {
                let toml = dir.join("Cargo.toml");
                if toml.exists() {
                    let key = dir
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_default();
                    manifests.push((key, read(&toml)));
                }
            }
        }
        for (key, toml) in &manifests {
            for (map, sections) in [
                (&mut deps.normal, &["dependencies"][..]),
                (
                    &mut deps.with_dev,
                    &["dependencies", "dev-dependencies"][..],
                ),
            ] {
                let mut allowed: BTreeSet<String> = BTreeSet::new();
                allowed.insert(key.clone());
                for section in sections {
                    for (name, entry) in section_entries(toml, section) {
                        let dep_key = match toml_path_value(&entry) {
                            Some(path) => crate_of(&path).to_string(),
                            None => match name_to_key.get(&name) {
                                Some(k) => k.clone(),
                                None => continue,
                            },
                        };
                        allowed.insert(dep_key);
                    }
                }
                map.insert(key.clone(), allowed);
            }
        }
        // Transitive closure: a dev-dependency's own reach is its
        // normal one (its tests are not linked in).
        close(&mut deps.normal, None);
        let normal = deps.normal.clone();
        close(&mut deps.with_dev, Some(&normal));
        deps
    }

    /// Whether code in crate `caller` may depend on crate `callee`.
    /// Leaf callers (integration tests, examples, benches) also reach
    /// dev-dependencies. Crates absent from the map (fixture files,
    /// ad-hoc tests) are unconstrained.
    pub fn allows(&self, caller: &str, callee: &str, caller_is_leaf: bool) -> bool {
        let map = if caller_is_leaf {
            &self.with_dev
        } else {
            &self.normal
        };
        caller == callee
            || match map.get(caller) {
                Some(set) => set.contains(callee),
                None => true,
            }
    }
}

/// Transitively closes a dependency relation in place. Indirect hops
/// resolve through `via` when given (dev-deps close over normal deps),
/// otherwise through the map itself.
fn close(
    map: &mut BTreeMap<String, BTreeSet<String>>,
    via: Option<&BTreeMap<String, BTreeSet<String>>>,
) {
    loop {
        let mut grew = false;
        let keys: Vec<String> = map.keys().cloned().collect();
        for key in &keys {
            let reachable: BTreeSet<String> = {
                let lookup = via.unwrap_or(&*map);
                map[key]
                    .iter()
                    .filter_map(|d| lookup.get(d))
                    .flatten()
                    .cloned()
                    .collect()
            };
            let set = map.get_mut(key).expect("key from keys()");
            for r in reachable {
                grew |= set.insert(r);
            }
        }
        if !grew {
            return;
        }
    }
}

/// `key = value` entries of a `[section]` in a TOML text, tolerant of
/// anything it does not understand.
fn section_entries(toml: &str, section: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut in_section = false;
    for line in toml.lines() {
        let line = line.trim();
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            in_section = header.trim() == section;
            continue;
        }
        if !in_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            // `bisect-graph.workspace = true` keys carry a dotted
            // suffix; the dep name is the first segment.
            let name = key.trim().split('.').next().unwrap_or("").to_string();
            if !name.is_empty() {
                out.push((name, value.trim().to_string()));
            }
        }
    }
    out
}

/// Extracts `path = "…"` from an inline-table dependency value.
fn toml_path_value(entry: &str) -> Option<String> {
    let at = entry.find("path")?;
    let rest = entry[at + "path".len()..].trim_start();
    let rest = rest.strip_prefix('=')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// A resolution-time view of one node.
struct NodeInfo<'a> {
    name: &'a str,
    self_type: Option<&'a str>,
    generics: &'a [String],
    module: &'a [String],
    file: usize,
    krate: &'a str,
    leaf: bool,
}

impl CallGraph {
    /// Builds the graph over every non-test function of `parsed`.
    /// `deps` restricts cross-crate edges to dependency direction;
    /// `None` leaves them unconstrained (single-file and fixture use).
    pub fn build(
        files: &[SourceFile],
        parsed: &[ParsedFile],
        deps: Option<&CrateDeps>,
    ) -> CallGraph {
        let mut graph = CallGraph::default();
        for (file, p) in parsed.iter().enumerate() {
            for (fn_idx, f) in p.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                let id = graph.nodes.len();
                graph.nodes.push(NodeRef { file, fn_idx });
                graph.ids.insert((file, fn_idx), id);
            }
        }
        let infos: Vec<NodeInfo> = graph
            .nodes
            .iter()
            .map(|n| {
                let f = &parsed[n.file].fns[n.fn_idx];
                NodeInfo {
                    name: &f.name,
                    self_type: f.self_type.as_deref(),
                    generics: &f.generics,
                    module: &f.module,
                    file: n.file,
                    krate: crate_of(&files[n.file].path),
                    leaf: is_leaf_path(&files[n.file].path),
                }
            })
            .collect();
        // Name → node-id indexes, candidate lists in node-id order.
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut typed: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, info) in infos.iter().enumerate() {
            match info.self_type {
                None => free_by_name.entry(info.name).or_default().push(id),
                Some(ty) => {
                    methods_by_name.entry(info.name).or_default().push(id);
                    typed.entry((ty, info.name)).or_default().push(id);
                }
            }
        }
        graph.edges = vec![Vec::new(); graph.nodes.len()];
        for caller in 0..graph.nodes.len() {
            let n = graph.nodes[caller];
            let caller_info = &infos[caller];
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            for call in &parsed[n.file].fns[n.fn_idx].calls {
                let candidates: &[usize] = match &call.target {
                    CallTarget::Free(name) => {
                        free_by_name.get(name.as_str()).map_or(&[], Vec::as_slice)
                    }
                    CallTarget::Method(name) => methods_by_name
                        .get(name.as_str())
                        .map_or(&[], Vec::as_slice),
                    CallTarget::Qualified(q, name) => {
                        let ty = if q == "Self" {
                            caller_info.self_type.unwrap_or(q.as_str())
                        } else {
                            q.as_str()
                        };
                        match typed.get(&(ty, name.as_str())) {
                            Some(c) => c.as_slice(),
                            // A call through a type parameter, `L::cut(…)`,
                            // may reach any impl: resolve it as method syntax.
                            None if caller_info.generics.contains(q) => methods_by_name
                                .get(name.as_str())
                                .map_or(&[], Vec::as_slice),
                            // A module-qualified free call: `special::path(…)`.
                            None => free_by_name.get(name.as_str()).map_or(&[], Vec::as_slice),
                        }
                    }
                    CallTarget::Macro(_) => &[],
                };
                let resolved = resolve_tiered(caller, caller_info, candidates, &infos, deps);
                for callee in resolved {
                    if callee != caller && seen.insert(callee) {
                        graph.edges[caller].push(Edge {
                            callee,
                            line: call.line,
                            col: call.col,
                        });
                    }
                }
            }
            graph.edges[caller].sort_by_key(|e| e.callee);
        }
        graph
    }

    /// The node id of `(file, fn_idx)`, when it is in the graph.
    pub fn node_id(&self, file: usize, fn_idx: usize) -> Option<usize> {
        self.ids.get(&(file, fn_idx)).copied()
    }

    /// Forward reachability from `roots`: `parent[n]` is `Some(n)` for
    /// a root, `Some(p)` for a node first reached from `p`, `None` for
    /// unreached nodes. BFS in node-id order keeps parents (and so
    /// diagnostic paths) deterministic.
    pub fn reach_from(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if parent[r].is_none() {
                parent[r] = Some(r);
                queue.push(r);
            }
        }
        let mut at = 0usize;
        while at < queue.len() {
            let n = queue[at];
            at += 1;
            for e in &self.edges[n] {
                if parent[e.callee].is_none() {
                    parent[e.callee] = Some(n);
                    queue.push(e.callee);
                }
            }
        }
        parent
    }

    /// The root-to-`node` call chain under a [`CallGraph::reach_from`]
    /// parent map, as function names.
    pub fn path_to<'a>(
        &self,
        parsed: &'a [ParsedFile],
        parent: &[Option<usize>],
        node: usize,
    ) -> Vec<&'a str> {
        let mut chain = Vec::new();
        let mut at = node;
        loop {
            let n = self.nodes[at];
            chain.push(parsed[n.file].fns[n.fn_idx].name.as_str());
            match parent[at] {
                Some(p) if p != at && chain.len() <= self.nodes.len() => at = p,
                _ => break,
            }
        }
        chain.reverse();
        chain
    }
}

/// Applies the resolution tiers to a candidate list: same file + same
/// module, same file, same crate, then dependency-allowed crates. All
/// candidates of the first non-empty tier are returned.
fn resolve_tiered(
    caller: usize,
    caller_info: &NodeInfo<'_>,
    candidates: &[usize],
    infos: &[NodeInfo<'_>],
    deps: Option<&CrateDeps>,
) -> Vec<usize> {
    let _ = caller;
    let allowed = |id: usize| -> bool {
        if infos[id].leaf && !caller_info.leaf {
            return false;
        }
        match deps {
            Some(d) => d.allows(caller_info.krate, infos[id].krate, caller_info.leaf),
            None => true,
        }
    };
    let same_file = |id: usize| infos[id].file == caller_info.file;
    let same_crate = |id: usize| infos[id].krate == caller_info.krate && !infos[id].leaf;
    let tiers: [&dyn Fn(usize) -> bool; 4] = [
        &|id| same_file(id) && infos[id].module == caller_info.module && allowed(id),
        &|id| same_file(id) && allowed(id),
        &|id| same_crate(id) && allowed(id),
        &|id| allowed(id),
    ];
    for tier in tiers {
        let hits: Vec<usize> = candidates.iter().copied().filter(|&id| tier(id)).collect();
        if !hits.is_empty() {
            return hits;
        }
    }
    Vec::new()
}
