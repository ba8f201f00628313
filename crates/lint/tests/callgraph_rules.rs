//! Call-graph analysis fixtures: each interprocedural rule catching a
//! transitive violation the per-file token rules cannot see, with
//! (rule, line)-exact assertions; certification semantics at the
//! boundary; crate-dependency direction; and a property test that the
//! call graph is invariant under item reordering.

use std::collections::BTreeSet;
use std::path::Path;

use bisect_lint::{check_sources, parse, CallGraph, Config, CrateDeps, Report, SourceFile};
use proptest::prelude::*;

const ALLOC_ENTRY: &str = include_str!("fixtures/callgraph/alloc_entry.rs");
const ALLOC_HELPER: &str = include_str!("fixtures/callgraph/alloc_helper.rs");
const PANIC_GUARDED: &str = include_str!("fixtures/callgraph/panic_guarded.rs");
const PANIC_HELPER: &str = include_str!("fixtures/callgraph/panic_helper.rs");
const TAINT_GUARDED: &str = include_str!("fixtures/callgraph/taint_guarded.rs");
const TAINT_HELPER: &str = include_str!("fixtures/callgraph/taint_helper.rs");
const PAR_CONSUMER: &str = include_str!("fixtures/callgraph/par_consumer.rs");
const PAR_SHARED: &str = include_str!("fixtures/callgraph/par_shared.rs");
const PAR_THREAD: &str = include_str!("fixtures/callgraph/par_thread.rs");
const GENERIC_QUALIFIED: &str = include_str!("fixtures/callgraph/generic_qualified.rs");

fn config(toml: &str) -> Config {
    Config::from_toml(toml).expect("fixture config parses")
}

/// The `(file, line, rule)` triples of a report, in report order.
fn sites(report: &Report) -> Vec<(String, u32, &'static str)> {
    report
        .diagnostics
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect()
}

#[test]
fn zero_alloc_reaches_an_allocation_two_calls_deep() {
    let cfg = config(
        r#"
        [zero_alloc]
        hot_paths = ["crates/core/src/kl.rs"]

        [reachability]
        alloc_roots = ["hot_entry"]
        "#,
    );
    let report = check_sources(
        &cfg,
        &[
            ("crates/core/src/kl.rs", ALLOC_ENTRY),
            ("crates/core/src/scratch.rs", ALLOC_HELPER),
        ],
    );
    // `build` lives outside every hot-path file, so the per-file rule
    // of PR 3 never sees it; only reachability from `hot_entry` does.
    assert_eq!(
        sites(&report),
        [("crates/core/src/scratch.rs".to_string(), 11, "zero-alloc")]
    );
    let msg = &report.diagnostics[0].message;
    assert!(
        msg.contains("reachable from a hot entry")
            && msg.contains("`hot_entry`")
            && msg.contains("`build`"),
        "message must carry the root and the call path, got: {msg}"
    );
}

#[test]
fn unresolved_alloc_root_is_a_config_error() {
    let cfg = config(
        r#"
        [reachability]
        alloc_roots = ["Missing::entry"]
        "#,
    );
    let report = check_sources(&cfg, &[("crates/core/src/kl.rs", ALLOC_ENTRY)]);
    assert_eq!(sites(&report), [("lint.toml".to_string(), 1, "zero-alloc")]);
    assert!(report.diagnostics[0]
        .message
        .contains("does not match any function"));
}

#[test]
fn no_panic_flags_the_boundary_call_into_a_panicking_helper() {
    let cfg = config(
        r#"
        [no_panic]
        paths = ["crates/core/src"]
        "#,
    );
    let report = check_sources(
        &cfg,
        &[
            ("crates/core/src/algo.rs", PANIC_GUARDED),
            ("crates/util/src/help.rs", PANIC_HELPER),
        ],
    );
    // The panic sits behind `summarize` in an unguarded crate; the
    // finding lands on the guarded call site, naming the real source.
    assert_eq!(
        sites(&report),
        [("crates/core/src/algo.rs".to_string(), 5, "no-panic")]
    );
    let msg = &report.diagnostics[0].message;
    assert!(
        msg.contains("call into `summarize` can panic")
            && msg.contains(".unwrap()")
            && msg.contains("crates/util/src/help.rs:11"),
        "message must point at the transitive panic site, got: {msg}"
    );
}

#[test]
fn certifying_the_panic_source_clears_the_boundary_finding() {
    let cfg = config(
        r#"
        [no_panic]
        paths = ["crates/core/src"]
        "#,
    );
    let certified = PANIC_HELPER.replace(
        "v.first().copied().unwrap()",
        "v.first().copied().unwrap() // lint: allow(no-panic) — callers pass non-empty slices",
    );
    let report = check_sources(
        &cfg,
        &[
            ("crates/core/src/algo.rs", PANIC_GUARDED),
            ("crates/util/src/help.rs", &certified),
        ],
    );
    // A certified site is not may-panic for its callers: suppression
    // stops the propagation, and the waiver counts as used.
    assert!(report.is_clean(), "found {:?}", report.diagnostics);
    assert_eq!(report.suppressed, 1);
    assert!(report.unused_suppressions.is_empty());
}

#[test]
fn determinism_taint_crosses_on_a_laundered_return_value() {
    let cfg = config(
        r#"
        [determinism]
        paths = ["crates/core/src"]
        "#,
    );
    let report = check_sources(
        &cfg,
        &[
            ("crates/core/src/order.rs", TAINT_GUARDED),
            ("crates/bench/src/table.rs", TAINT_HELPER),
        ],
    );
    // `lookup` returns a plain Vec, so no type mentions HashMap on the
    // guarded side — only the call edge carries the taint.
    assert_eq!(
        sites(&report),
        [(
            "crates/core/src/order.rs".to_string(),
            5,
            "determinism-taint"
        )]
    );
    let msg = &report.diagnostics[0].message;
    assert!(
        msg.contains("call into `lookup` leaks nondeterminism")
            && msg.contains("`HashMap` iteration order"),
        "message must name the source, got: {msg}"
    );
}

#[test]
fn par_safety_flags_shared_state_reachable_from_a_parallel_consumer() {
    let cfg = config(
        r#"
        [par_safety]
        sanctioned = ["crates/par/src"]
        consumer_paths = ["crates/core/src"]
        entry_points = ["par_map"]
        "#,
    );
    let report = check_sources(
        &cfg,
        &[
            ("crates/core/src/driver.rs", PAR_CONSUMER),
            ("crates/stats/src/agg.rs", PAR_SHARED),
        ],
    );
    // `tally` is outside both the consumer and sanctioned paths, so no
    // per-file rule covers it; it is flagged because `drive` calls the
    // parallel entry point and reaches it.
    assert_eq!(
        sites(&report),
        [("crates/stats/src/agg.rs".to_string(), 6, "par-safety-sync")]
    );
    let msg = &report.diagnostics[0].message;
    assert!(
        msg.contains("`Mutex`") && msg.contains("parallel consumer `drive`"),
        "message must name the consumer root, got: {msg}"
    );
}

#[test]
fn par_safety_without_an_entry_point_call_keeps_the_helper_legal() {
    let cfg = config(
        r#"
        [par_safety]
        sanctioned = ["crates/par/src"]
        consumer_paths = ["crates/core/src"]
        entry_points = ["par_map"]
        "#,
    );
    let sequential = PAR_CONSUMER.replace("let parts = par_map(n, work);", "let parts = n;");
    let report = check_sources(
        &cfg,
        &[
            ("crates/core/src/driver.rs", &sequential),
            ("crates/stats/src/agg.rs", PAR_SHARED),
        ],
    );
    assert!(report.is_clean(), "found {:?}", report.diagnostics);
}

#[test]
fn par_safety_flags_ad_hoc_threading_outside_the_runtime() {
    let cfg = config(
        r#"
        [par_safety]
        sanctioned = ["crates/par/src"]
        consumer_paths = ["crates/core/src"]
        entry_points = ["par_map"]
        "#,
    );
    let report = check_sources(&cfg, &[("crates/core/src/spawn.rs", PAR_THREAD)]);
    assert_eq!(
        sites(&report),
        [(
            "crates/core/src/spawn.rs".to_string(),
            5,
            "par-safety-thread"
        )]
    );
}

#[test]
fn calls_through_a_type_parameter_reach_the_impls() {
    // `L::scratch(…)` names no type: it must resolve as method syntax
    // does, or the `vec!` in the impl hides from the root.
    for root in ["drive", "Driver::run"] {
        let cfg = config(&format!(
            r#"
            [reachability]
            alloc_roots = ["{root}"]
            "#
        ));
        let report = check_sources(&cfg, &[("crates/core/src/level.rs", GENERIC_QUALIFIED)]);
        assert_eq!(
            sites(&report),
            [("crates/core/src/level.rs".to_string(), 12, "zero-alloc")],
            "root {root}"
        );
        let msg = &report.diagnostics[0].message;
        assert!(msg.contains("`scratch`"), "root {root}: {msg}");
    }
    // A module-qualified call still links to free fns only.
    let cfg = config(
        r#"
        [reachability]
        alloc_roots = ["via_module"]
        "#,
    );
    let report = check_sources(&cfg, &[("crates/core/src/level.rs", GENERIC_QUALIFIED)]);
    assert_eq!(sites(&report), []);
}

#[test]
fn same_file_candidates_shadow_same_crate_ones() {
    let files = vec![
        SourceFile::new(
            "crates/core/src/a.rs",
            "fn caller() { helper(); }\nfn helper() {}\n",
        ),
        SourceFile::new("crates/core/src/b.rs", "fn helper() {}\n"),
    ];
    let parsed: Vec<_> = files.iter().map(parse).collect();
    let graph = CallGraph::build(&files, &parsed, None);
    // Nodes are in (file, item) order: caller, a::helper, b::helper.
    assert_eq!(graph.edges[0].len(), 1);
    assert_eq!(graph.edges[0][0].callee, 1);
}

#[test]
fn crate_deps_point_along_dependency_direction() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let deps = CrateDeps::load(&root);
    // bench depends on core, never the reverse.
    assert!(deps.allows("bench", "core", false));
    assert!(!deps.allows("core", "bench", false));
    // proptest is a dev-dependency of graph: reachable from leaf files
    // (integration tests) only, not from library code.
    assert!(!deps.allows("graph", "proptest", false));
    assert!(deps.allows("graph", "proptest", true));
}

#[test]
fn cross_crate_edges_respect_the_dependency_map() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let deps = CrateDeps::load(&root);
    let files = vec![
        SourceFile::new("crates/core/src/x.rs", "fn caller() { helper(); }\n"),
        SourceFile::new("crates/bench/src/y.rs", "pub fn helper() {}\n"),
    ];
    let parsed: Vec<_> = files.iter().map(parse).collect();
    // core does not depend on bench: the name must not resolve.
    let constrained = CallGraph::build(&files, &parsed, Some(&deps));
    assert!(constrained.edges[0].is_empty());
    // Without the map the same call resolves permissively.
    let permissive = CallGraph::build(&files, &parsed, None);
    assert_eq!(permissive.edges[0].len(), 1);
}

/// Item bodies for the reordering property: a small web of free
/// functions calling each other by name.
const ITEMS: [&str; 6] = [
    "pub fn alpha() { beta(); gamma(); }\n",
    "pub fn beta() { delta(); }\n",
    "pub fn gamma() { beta(); }\n",
    "pub fn delta() {}\n",
    "pub fn epsilon() { alpha(); delta(); }\n",
    "pub fn zeta() { zeta(); }\n",
];

/// The call graph of `src`, as a name-level edge set.
fn name_edges(src: &str) -> BTreeSet<(String, String)> {
    let files = vec![SourceFile::new("crates/core/src/m.rs", src)];
    let parsed: Vec<_> = files.iter().map(parse).collect();
    let graph = CallGraph::build(&files, &parsed, None);
    let name = |id: usize| {
        let n = graph.nodes[id];
        parsed[n.file].fns[n.fn_idx].name.clone()
    };
    let mut out = BTreeSet::new();
    for (caller, edges) in graph.edges.iter().enumerate() {
        for e in edges {
            out.insert((name(caller), name(e.callee)));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Resolution must depend on names and scopes, never on item
    /// order: any permutation of the items yields the same edges.
    #[test]
    fn call_graph_is_stable_under_item_reordering(
        keys in proptest::collection::vec(any::<u32>(), ITEMS.len()),
    ) {
        let baseline: String = ITEMS.concat();
        let mut order: Vec<usize> = (0..ITEMS.len()).collect();
        order.sort_by_key(|&i| (keys[i], i));
        let shuffled: String = order.iter().map(|&i| ITEMS[i]).collect();
        prop_assert_eq!(name_edges(&baseline), name_edges(&shuffled));
    }
}
