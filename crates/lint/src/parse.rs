//! A lightweight item-level parser on top of the loss-free lexer.
//!
//! The call-graph rules (DESIGN.md §14) need to know which functions a
//! file defines, which impl/mod scopes they sit in, what they call, and
//! which invariant-relevant constructs (allocation, panics, entropy,
//! interior mutability, …) appear in each body. None of that needs a
//! full expression grammar: a single forward walk over the token stream
//! with a brace-matched scope stack recovers items and call sites with
//! line-exact positions, and degrades gracefully on malformed input —
//! like the lexer, it never panics and never errors.

use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// The invariant-relevant construct classes a function body can
/// contain. Rules select the classes they care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectKind {
    /// An allocator entry point (`Vec::new`, `vec!`, `Box::new`,
    /// `.collect()`, `.clone()`).
    Alloc,
    /// A panicking construct (`.unwrap()`, `.expect(…)`, `panic!` and
    /// friends).
    Panic,
    /// A slice/array index expression (`x[i]`), which panics when out
    /// of range. Reported only when `index_panics` is enabled.
    Index,
    /// A randomly seeded hash container (`HashMap`/`HashSet`).
    Hash,
    /// A wall-clock read (`Instant::now`, `SystemTime::now`).
    Time,
    /// An ambient entropy source (`thread_rng`, `OsRng`, …).
    Entropy,
    /// A shared-state / interior-mutability type (`RefCell`, `Mutex`,
    /// atomics, `static mut`). `thread_local!` bodies are exempt —
    /// per-thread state is not shared.
    InteriorMut,
    /// An ad-hoc threading primitive (`thread::spawn`, `thread::scope`,
    /// `thread::Builder`).
    ThreadSpawn,
}

/// One invariant-relevant construct at a precise position.
#[derive(Debug, Clone)]
pub struct Effect {
    /// Which class of construct.
    pub kind: EffectKind,
    /// Human-readable spelling for diagnostics (e.g. `Vec::new`).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// How a call site names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// `foo(…)` — an unqualified call.
    Free(String),
    /// `Seg::foo(…)` — the last qualifying segment plus the name
    /// (`Seg` may be a type, a module, or `Self`).
    Qualified(String, String),
    /// `.foo(…)` — a method call on an unknown receiver.
    Method(String),
    /// `foo!(…)` — a macro invocation.
    Macro(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// What the call names.
    pub target: CallTarget,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One `fn` item: its identity, scope, body extent, and everything the
/// analyses need to know about its body.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The self type of the enclosing `impl` block, when any (the
    /// first path segment of the implemented type).
    pub self_type: Option<String>,
    /// The type parameters in scope: the item's own, then those of the
    /// enclosing `impl` block.
    pub generics: Vec<String>,
    /// The in-file `mod` nesting the item sits under.
    pub module: Vec<String>,
    /// Whether the item lies in `#[cfg(test)]` code.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index where the item starts (first leading attribute or
    /// visibility token), for attaching item-scope suppressions.
    pub item_start: usize,
    /// 1-based line range `[first, last]` covered by the item,
    /// including its body.
    pub line_range: (u32, u32),
    /// Call sites inside the body, in source order.
    pub calls: Vec<Call>,
    /// Invariant-relevant constructs inside the body, in source order.
    pub effects: Vec<Effect>,
}

/// A parsed file: its functions plus constructs outside any function
/// (const/static initializers, macro definitions).
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// Effects found outside any `fn` body.
    pub top_effects: Vec<Effect>,
}

/// Keywords that look like call targets when followed by `(` but are
/// control flow or binding forms.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "static", "struct", "super", "trait", "true", "type", "union",
    "unsafe", "use", "where", "while", "yield",
];

/// Identifiers that signal ambient entropy (mirrors the determinism
/// rule family).
pub const ENTROPY_SOURCES: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "RandomState",
    "OsRng",
    "getrandom",
];

/// Interior-mutability / shared-state type names for the par-safety
/// family.
const INTERIOR_MUT: &[&str] = &[
    "RefCell",
    "Cell",
    "UnsafeCell",
    "OnceCell",
    "Mutex",
    "RwLock",
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicPtr",
];

/// The panicking macros (mirrors the no-panic rule).
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

struct Scope {
    /// Brace depth at which this scope was opened.
    depth: usize,
    kind: ScopeKind,
}

enum ScopeKind {
    Module(String),
    /// An `impl` block: its self type and type parameters.
    Impl(Option<String>, Vec<String>),
    Fn {
        fn_idx: usize,
    },
    Block,
}

/// Parses `file` into items, calls, and effects.
pub fn parse(file: &SourceFile) -> ParsedFile {
    let tl_ranges = macro_body_ranges(file, "thread_local");
    let mut out = ParsedFile::default();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut depth = 0usize;
    // The `fn` item whose signature has started but whose body `{` has
    // not yet been seen, with the bracket nesting at its `fn`.
    let mut pending_fn: Option<(usize, usize)> = None;
    // Open `(` and `[` brackets: a `;` inside them (`[i64; 2]` in a
    // parameter type) does not end a signature.
    let mut nest = 0usize;
    let mut pending_mod: Option<String> = None;
    let mut pending_impl: Option<(Option<String>, Vec<String>)> = None;

    let mut i = 0usize;
    while i < file.tokens.len() {
        let t = file.tokens[i];
        if t.is_trivia() {
            i += 1;
            continue;
        }
        let text = file.tok(i);
        if t.kind == TokenKind::Punct {
            match text {
                "(" | "[" => nest += 1,
                ")" | "]" => nest = nest.saturating_sub(1),
                _ => {}
            }
        }
        match (t.kind, text) {
            (TokenKind::Punct, "{") => {
                depth += 1;
                let kind = if let Some((fn_idx, _)) = pending_fn.take() {
                    ScopeKind::Fn { fn_idx }
                } else if let Some(name) = pending_mod.take() {
                    ScopeKind::Module(name)
                } else if let Some((ty, generics)) = pending_impl.take() {
                    ScopeKind::Impl(ty, generics)
                } else {
                    ScopeKind::Block
                };
                scopes.push(Scope { depth, kind });
            }
            (TokenKind::Punct, "}") => {
                if scopes.last().is_some_and(|s| s.depth == depth) {
                    if let Some(Scope {
                        kind: ScopeKind::Fn { fn_idx },
                        ..
                    }) = scopes.pop()
                    {
                        out.fns[fn_idx].line_range.1 = t.line;
                    }
                }
                depth = depth.saturating_sub(1);
            }
            (TokenKind::Punct, ";") => {
                // `fn f(…);` (trait method declaration) or `mod m;`:
                // the pending item has no body in this file.
                if let Some((fn_idx, at)) = pending_fn {
                    if at == nest {
                        out.fns[fn_idx].line_range.1 = t.line;
                        pending_fn = None;
                    }
                }
                pending_mod = None;
            }
            (TokenKind::Ident, "mod") => {
                if let Some(n) = file.next_code(i + 1) {
                    if file.tokens[n].kind == TokenKind::Ident {
                        pending_mod = Some(file.tok(n).to_string());
                        i = n + 1;
                        continue;
                    }
                }
            }
            (TokenKind::Ident, "impl") => {
                // Scan the header up to its `{` to find the self type:
                // the first identifier after a top-level `for` when one
                // exists, otherwise the first identifier after the
                // (possibly generic-bracketed) `impl` keyword.
                let mut ty: Option<String> = None;
                let mut after_for = false;
                let mut saw_for = false;
                let mut j = i + 1;
                let mut angle = 0i32;
                while let Some(k) = file.next_code(j) {
                    let s = file.tok(k);
                    match s {
                        "{" | ";" => break,
                        "<" => angle += 1,
                        // The `>` of a `->` closes nothing.
                        ">" if file.tok(k - 1) != "-" => angle -= 1,
                        "for" if angle == 0 => {
                            saw_for = true;
                            after_for = true;
                            ty = None;
                        }
                        _ if file.tokens[k].kind == TokenKind::Ident
                            && angle == 0
                            && ty.is_none()
                            && (!saw_for || after_for)
                            && !matches!(s, "dyn" | "mut" | "const" | "unsafe") =>
                        {
                            ty = Some(s.to_string());
                        }
                        _ => {}
                    }
                    j = k + 1;
                }
                pending_impl = Some((ty, type_params(file, i + 1)));
            }
            (TokenKind::Ident, "fn") => {
                if let Some(n) = file.next_code(i + 1) {
                    if file.tokens[n].kind == TokenKind::Ident {
                        let module = scopes
                            .iter()
                            .filter_map(|s| match &s.kind {
                                ScopeKind::Module(m) => Some(m.clone()),
                                _ => None,
                            })
                            .collect();
                        let enclosing = scopes.iter().rev().find_map(|s| match &s.kind {
                            ScopeKind::Impl(ty, generics) => Some((ty.clone(), generics)),
                            _ => None,
                        });
                        let mut generics = type_params(file, n + 1);
                        if let Some((_, outer)) = &enclosing {
                            generics.extend(outer.iter().cloned());
                        }
                        let self_type = enclosing.and_then(|(ty, _)| ty);
                        let item_start = item_start(file, i);
                        let fn_idx = out.fns.len();
                        out.fns.push(FnItem {
                            name: file.tok(n).to_string(),
                            self_type,
                            generics,
                            module,
                            is_test: file.in_test_code(i),
                            line: t.line,
                            item_start,
                            line_range: (file.tokens[item_start].line, t.line),
                            calls: Vec::new(),
                            effects: Vec::new(),
                        });
                        pending_fn = Some((fn_idx, nest));
                        i = n + 1;
                        continue;
                    }
                }
            }
            _ => {
                let current_fn = scopes.iter().rev().find_map(|s| match s.kind {
                    ScopeKind::Fn { fn_idx } => Some(fn_idx),
                    _ => None,
                });
                scan_token(file, i, &tl_ranges, &mut out, current_fn);
            }
        }
        i += 1;
    }
    // Unterminated items run to the end of the file.
    while let Some(scope) = scopes.pop() {
        if let ScopeKind::Fn { fn_idx } = scope.kind {
            if let Some(last) = file.tokens.last() {
                out.fns[fn_idx].line_range.1 = last.line;
            }
        }
    }
    out
}

/// The type parameters of the generic list that opens at the first
/// code token from `from`, if that token is `<`: the first identifier
/// of each top-level parameter. Lifetimes and `const` parameters are
/// skipped, and the `>` of a `->` closes nothing.
fn type_params(file: &SourceFile, from: usize) -> Vec<String> {
    let mut out = Vec::new();
    match file.next_code(from) {
        Some(open) if file.tok(open) == "<" => {}
        _ => return out,
    }
    let mut depth = 0usize;
    let mut starts_param = false;
    let mut j = from;
    while let Some(k) = file.next_code(j) {
        let s = file.tok(k);
        let arrow = s == ">" && k > 0 && file.tok(k - 1) == "-";
        match s {
            "<" => {
                depth += 1;
                starts_param = depth == 1;
            }
            ">" if !arrow => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => starts_param = true,
            "{" | ";" => break,
            _ if starts_param => {
                starts_param = false;
                if file.tokens[k].kind == TokenKind::Ident && s != "const" {
                    out.push(s.to_string());
                }
            }
            _ => {}
        }
        j = k + 1;
    }
    out
}

/// Walks back from the `fn` keyword over attributes, visibility, and
/// modifiers to the first token of the item.
fn item_start(file: &SourceFile, fn_kw: usize) -> usize {
    let mut start = fn_kw;
    let mut j = fn_kw;
    while let Some(k) = file.prev_code(j) {
        let s = file.tok(k);
        match s {
            "pub" | "const" | "async" | "unsafe" | "extern" => {
                start = k;
                j = k;
            }
            ")" => {
                // The `(crate)` of `pub(crate)`; walk to its `(`.
                let mut depth = 0usize;
                let mut m = k;
                loop {
                    match file.tok(m) {
                        ")" => depth += 1,
                        "(" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    match file.prev_code(m) {
                        Some(p) => m = p,
                        None => break,
                    }
                }
                start = m;
                j = m;
            }
            "]" => {
                // A `#[…]` attribute; walk to its `#`.
                let mut depth = 0usize;
                let mut m = k;
                loop {
                    match file.tok(m) {
                        "]" => depth += 1,
                        "[" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    match file.prev_code(m) {
                        Some(p) => m = p,
                        None => break,
                    }
                }
                match file.prev_code(m) {
                    Some(h) if file.tok(h) == "#" => {
                        start = h;
                        j = h;
                    }
                    _ => break,
                }
            }
            _ if file.tokens[k].kind == TokenKind::Str => {
                // The ABI string of `extern "C"`.
                j = k;
            }
            _ => break,
        }
    }
    start
}

/// Detects calls and effects at token `i`, appending to the enclosing
/// function (or the file's top-level effects).
fn scan_token(
    file: &SourceFile,
    i: usize,
    tl_ranges: &[(usize, usize)],
    out: &mut ParsedFile,
    current_fn: Option<usize>,
) {
    // Test code is out of scope for every analysis (test `fn` items
    // are also excluded from the call graph).
    if file.in_test_code(i) {
        return;
    }
    let t = file.tokens[i];
    let (line, col) = (t.line, t.col);
    let mut effects: Vec<Effect> = Vec::new();
    let mut calls: Vec<Call> = Vec::new();
    let push_effect = |effects: &mut Vec<Effect>, kind: EffectKind, what: &str| {
        effects.push(Effect {
            kind,
            what: what.to_string(),
            line,
            col,
        });
    };

    if t.kind == TokenKind::Punct && file.tok(i) == "[" {
        // An index expression: `expr[…]`. The previous code token of an
        // index is the tail of an expression — an identifier, a closing
        // bracket, or `?`. Types (`[u32; 4]`), attributes (`#[…]`), and
        // slice literals follow other tokens.
        if let Some(p) = file.prev_code(i) {
            let prev = file.tok(p);
            let is_expr_tail = (file.tokens[p].kind == TokenKind::Ident
                && !KEYWORDS.contains(&prev))
                || prev == ")"
                || prev == "]"
                || prev == "?";
            if is_expr_tail {
                push_effect(&mut effects, EffectKind::Index, "indexing `[…]`");
            }
        }
    }

    if t.kind == TokenKind::Ident {
        let name = file.tok(i);
        let called = is_called(file, i);
        let is_method = called && file.prev_code(i).is_some_and(|p| file.tok(p) == ".");
        let qualifier = if is_method { None } else { qualifier(file, i) };
        let is_macro = macro_bang(file, i);

        // Effects.
        match name {
            "Vec" | "Box" if file.matches_seq(i, &[name, ":", ":", "new"]).is_some() => {
                push_effect(
                    &mut effects,
                    EffectKind::Alloc,
                    if name == "Vec" {
                        "Vec::new"
                    } else {
                        "Box::new"
                    },
                );
            }
            "vec" if is_macro => push_effect(&mut effects, EffectKind::Alloc, "vec!"),
            "collect" | "clone" if is_method => {
                push_effect(
                    &mut effects,
                    EffectKind::Alloc,
                    if name == "collect" {
                        ".collect()"
                    } else {
                        ".clone()"
                    },
                );
            }
            "unwrap" | "expect" if is_method => {
                push_effect(&mut effects, EffectKind::Panic, &format!(".{name}()"));
            }
            _ if PANIC_MACROS.contains(&name) && is_macro => {
                push_effect(&mut effects, EffectKind::Panic, &format!("{name}!"));
            }
            "HashMap" | "HashSet" => push_effect(&mut effects, EffectKind::Hash, name),
            "Instant" | "SystemTime" if file.matches_seq(i, &[name, ":", ":", "now"]).is_some() => {
                push_effect(&mut effects, EffectKind::Time, &format!("{name}::now"));
            }
            "thread" => {
                if let Some(m) = ["spawn", "scope", "Builder"]
                    .iter()
                    .copied()
                    .find(|m| file.matches_seq(i, &["thread", ":", ":", m]).is_some())
                {
                    push_effect(
                        &mut effects,
                        EffectKind::ThreadSpawn,
                        &format!("thread::{m}"),
                    );
                }
            }
            "static" if file.matches_seq(i, &["static", "mut"]).is_some() => {
                push_effect(&mut effects, EffectKind::InteriorMut, "static mut");
            }
            _ if ENTROPY_SOURCES.contains(&name) => {
                push_effect(&mut effects, EffectKind::Entropy, name);
            }
            _ if INTERIOR_MUT.contains(&name) => {
                let in_thread_local = tl_ranges.iter().any(|&(s, e)| i >= s && i < e);
                // Importing a type is not using it; the construction
                // site gets flagged instead.
                if !in_thread_local && !in_use_decl(file, i) {
                    push_effect(&mut effects, EffectKind::InteriorMut, name);
                }
            }
            _ => {}
        }

        // Calls.
        if is_macro {
            calls.push(Call {
                target: CallTarget::Macro(name.to_string()),
                line,
                col,
            });
        } else if called && !KEYWORDS.contains(&name) {
            let target = if is_method {
                CallTarget::Method(name.to_string())
            } else if let Some(q) = qualifier {
                CallTarget::Qualified(q, name.to_string())
            } else {
                CallTarget::Free(name.to_string())
            };
            calls.push(Call { target, line, col });
        }
    }

    match current_fn {
        Some(f) => {
            out.fns[f].effects.append(&mut effects);
            out.fns[f].calls.append(&mut calls);
        }
        None => out.top_effects.append(&mut effects),
    }
}

/// Whether token `i` sits inside a `use` declaration, walking back to
/// the statement head. A `{` continues the walk only as the group of a
/// `use a::{B, C}` import (preceded by `:`), so the scan never leaves
/// the enclosing statement.
fn in_use_decl(file: &SourceFile, i: usize) -> bool {
    let mut j = i;
    for _ in 0..64 {
        let Some(p) = file.prev_code(j) else {
            return false;
        };
        match file.tok(p) {
            "use" => return true,
            ";" | "}" => return false,
            "{" => {
                let before = file.prev_code(p);
                if before.is_none_or(|b| file.tok(b) != ":") {
                    return false;
                }
                j = p;
            }
            _ => j = p,
        }
    }
    false
}

/// Whether the identifier at `i` is directly invoked: followed by `(`,
/// optionally with a `::<…>` turbofish in between.
fn is_called(file: &SourceFile, i: usize) -> bool {
    let Some(a) = file.next_code(i + 1) else {
        return false;
    };
    if file.tok(a) == "(" {
        return true;
    }
    // `name::<T>(…)`.
    if file.tok(a) != ":" {
        return false;
    }
    let Some(b) = file.next_code(a + 1) else {
        return false;
    };
    if file.tok(b) != ":" {
        return false;
    }
    let Some(c) = file.next_code(b + 1) else {
        return false;
    };
    if file.tok(c) != "<" {
        return false;
    }
    let mut angle = 0i32;
    let mut j = c;
    for _ in 0..64 {
        match file.tok(j) {
            "<" => angle += 1,
            ">" => {
                angle -= 1;
                if angle == 0 {
                    return file.next_code(j + 1).is_some_and(|k| file.tok(k) == "(");
                }
            }
            _ => {}
        }
        match file.next_code(j + 1) {
            Some(k) => j = k,
            None => return false,
        }
    }
    false
}

/// The `Seg` of `Seg::name` at the identifier `i` holding `name`, when
/// the call is path-qualified.
fn qualifier(file: &SourceFile, i: usize) -> Option<String> {
    let a = file.prev_code(i)?;
    if file.tok(a) != ":" {
        return None;
    }
    let b = file.prev_code(a)?;
    if file.tok(b) != ":" {
        return None;
    }
    let q = file.prev_code(b)?;
    (file.tokens[q].kind == TokenKind::Ident).then(|| file.tok(q).to_string())
}

/// Whether the identifier at `i` is a macro name (followed by `!` that
/// is not part of `!=`).
fn macro_bang(file: &SourceFile, i: usize) -> bool {
    let Some(a) = file.next_code(i + 1) else {
        return false;
    };
    if file.tok(a) != "!" {
        return false;
    }
    // `!=` lexes as `!` then `=` with nothing between.
    !(a + 1 < file.tokens.len() && file.tok(a + 1) == "=")
}

/// Token ranges of `name! { … }` / `name! ( … )` macro bodies, for
/// exempting `thread_local!` declarations from shared-state effects.
fn macro_body_ranges(file: &SourceFile, name: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    for i in 0..file.tokens.len() {
        if file.tokens[i].kind != TokenKind::Ident || file.tok(i) != name || !macro_bang(file, i) {
            continue;
        }
        let Some(bang) = file.next_code(i + 1) else {
            continue;
        };
        let Some(open) = file.next_code(bang + 1) else {
            continue;
        };
        let (o, c) = match file.tok(open) {
            "{" => ("{", "}"),
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            _ => continue,
        };
        let mut depth = 0usize;
        let mut j = open;
        loop {
            let s = file.tok(j);
            if s == o {
                depth += 1;
            } else if s == c {
                depth -= 1;
                if depth == 0 {
                    ranges.push((i, j + 1));
                    break;
                }
            }
            match file.next_code(j + 1) {
                Some(k) => j = k,
                None => {
                    ranges.push((i, file.tokens.len()));
                    break;
                }
            }
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(src: &str) -> ParsedFile {
        parse(&SourceFile::new("x.rs", src))
    }

    fn fn_named<'a>(p: &'a ParsedFile, name: &str) -> &'a FnItem {
        p.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn `{name}` in {:?}", p.fns))
    }

    #[test]
    fn finds_fns_with_impl_and_module_scopes() {
        let src = r#"
fn free() {}
struct Foo;
impl Foo {
    pub fn method(&self) {}
}
impl Clone for Foo {
    fn clone(&self) -> Foo { Foo }
}
mod inner {
    pub fn nested() {}
}
"#;
        let p = parsed(src);
        assert_eq!(fn_named(&p, "free").self_type, None);
        assert_eq!(fn_named(&p, "method").self_type.as_deref(), Some("Foo"));
        assert_eq!(fn_named(&p, "clone").self_type.as_deref(), Some("Foo"));
        assert_eq!(fn_named(&p, "nested").module, vec!["inner"]);
    }

    #[test]
    fn an_array_type_in_a_signature_does_not_end_it() {
        let src = r#"
trait T {
    fn declared(&self, visit: impl FnMut([i64; 2]));
}
impl T for S {
    fn declared(&self, mut visit: impl FnMut([i64; 2])) {
        visit([0; 2]);
        helper();
    }
}
"#;
        let p = parsed(src);
        let body = p
            .fns
            .iter()
            .find(|f| f.self_type.as_deref() == Some("S"))
            .expect("the impl fn");
        let targets: Vec<_> = body.calls.iter().map(|c| &c.target).collect();
        assert!(targets.contains(&&CallTarget::Free("helper".into())));
        assert_eq!(body.line_range, (6, 9));
    }

    #[test]
    fn records_the_type_parameters_in_scope() {
        let src = r#"
fn plain() {}
fn generic<'a, L: Cells<Part: Clone>, const N: usize, F: Fn(u32) -> u32>(x: &'a L) {}
impl<T: Fn() -> u32, U> Pair<T, U> {
    fn method<V>(&self) {}
}
"#;
        let p = parsed(src);
        assert!(fn_named(&p, "plain").generics.is_empty());
        assert_eq!(fn_named(&p, "generic").generics, ["L", "F"]);
        let method = fn_named(&p, "method");
        assert_eq!(method.generics, ["V", "T", "U"]);
        assert_eq!(method.self_type.as_deref(), Some("Pair"));
    }

    #[test]
    fn collects_calls_of_every_shape() {
        let src = r#"
fn caller() {
    helper();
    Foo::build();
    x.method();
    it.collect::<Vec<u32>>();
    log!("hi");
    if cond() { loop {} }
}
"#;
        let p = parsed(src);
        let calls = &fn_named(&p, "caller").calls;
        let targets: Vec<&CallTarget> = calls.iter().map(|c| &c.target).collect();
        assert!(targets.contains(&&CallTarget::Free("helper".into())));
        assert!(targets.contains(&&CallTarget::Qualified("Foo".into(), "build".into())));
        assert!(targets.contains(&&CallTarget::Method("method".into())));
        assert!(targets.contains(&&CallTarget::Method("collect".into())));
        assert!(targets.contains(&&CallTarget::Macro("log".into())));
        assert!(targets.contains(&&CallTarget::Free("cond".into())));
        // Control-flow keywords are not calls.
        assert!(!targets
            .iter()
            .any(|t| matches!(t, CallTarget::Free(n) if n == "if" || n == "loop")));
    }

    #[test]
    fn collects_effects_with_positions() {
        let src = "fn f(o: Option<u32>, s: &[u32]) -> u32 {\n    let v = Vec::<u32>::new();\n    o.unwrap() + s[0]\n}\n";
        let p = parsed(src);
        let f = fn_named(&p, "f");
        let kinds: Vec<(EffectKind, u32)> = f.effects.iter().map(|e| (e.kind, e.line)).collect();
        assert!(kinds.contains(&(EffectKind::Panic, 3)));
        assert!(kinds.contains(&(EffectKind::Index, 3)));
    }

    #[test]
    fn index_effects_skip_types_attributes_and_literals() {
        let src = r#"
#[derive(Debug)]
struct S { a: [u32; 4] }
fn f(s: &S, i: usize) -> u32 {
    let lit = [1, 2, 3];
    let slice: &[u32] = &lit;
    s.a[i] + slice[0]
}
"#;
        let p = parsed(src);
        let f = fn_named(&p, "f");
        let idx: Vec<u32> = f
            .effects
            .iter()
            .filter(|e| e.kind == EffectKind::Index)
            .map(|e| e.line)
            .collect();
        assert_eq!(idx, vec![7, 7]);
        assert!(p.top_effects.is_empty());
    }

    #[test]
    fn thread_local_interior_mutability_is_exempt() {
        let src = r#"
thread_local! {
    static W: RefCell<u32> = RefCell::new(0);
}
fn shared() {
    let m = Mutex::new(0);
}
"#;
        let p = parsed(src);
        assert!(p
            .top_effects
            .iter()
            .all(|e| e.kind != EffectKind::InteriorMut));
        let f = fn_named(&p, "shared");
        assert_eq!(f.effects.len(), 1);
        assert_eq!(f.effects[0].what, "Mutex");
    }

    #[test]
    fn test_code_is_marked() {
        let src = r#"
fn live() {}
#[cfg(test)]
mod tests {
    #[test]
    fn check() {}
}
"#;
        let p = parsed(src);
        assert!(!fn_named(&p, "live").is_test);
        assert!(fn_named(&p, "check").is_test);
    }

    #[test]
    fn line_ranges_cover_attributes_and_bodies() {
        let src = "\n#[inline]\npub fn f() {\n    body();\n}\n";
        let p = parsed(src);
        let f = fn_named(&p, "f");
        assert_eq!(f.line_range, (2, 5));
    }

    #[test]
    fn survives_malformed_input() {
        for src in [
            "fn",
            "fn (",
            "impl {",
            "fn f( {",
            "mod m { fn g() {",
            "}}}",
            "fn f() { x[ }",
        ] {
            let _ = parsed(src);
        }
    }
}
