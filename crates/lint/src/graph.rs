//! The workspace call graph: one node per parsed `fn`, one edge per
//! resolved call site, plus the *sinks* (allocating / panicking /
//! clock-reading / default-hashing calls) each function contains.
//!
//! ## Name resolution is best-effort, biased toward precision
//!
//! Without types, a token-level resolver cannot be complete. The rules
//! (in resolution order) are:
//!
//! - **Bare calls** `f(…)`: a `use` alias in the same file expands to a
//!   path call; otherwise a unique free fn named `f` in the same file,
//!   then a unique one in the same crate. Never across crates — a bare
//!   call cannot reach another crate without an import.
//! - **Path calls** `a::b::f(…)`: the leading segment is mapped
//!   (`crate`/`self`/`super` → the caller's crate, `bct_x` → crate `x`,
//!   `bandwidth_tree_scheduling` → the root facade, a `use` alias → its
//!   full path); `std`/`core`/`alloc` paths are external. A
//!   `Type::method` tail resolves against `impl Type` methods (unique
//!   in the target crate, then unique in the workspace). A plain tail
//!   resolves against free fns by module path first: an absolute path
//!   (`crate::`, `bct_x::`, the facade) names the fn's full id
//!   (`crate::mod::f`), `self::` and `super::` start at the caller's
//!   module or its parent, and any other path is tried under the
//!   caller's module, then under its crate root. Only when no fn has
//!   that id does the tail fall back to a unique free fn of that name
//!   in the target crate, so same-name fns in sibling modules
//!   (`prio::s_volume_excl`, `prio::naive::s_volume_excl`) stay apart.
//! - **Method calls** `.m(…)`: resolved only when the name is not a
//!   common `std` method (see `STD_METHODS` — a `.len()` must never
//!   create an edge to some workspace `len`), preferring a unique
//!   method in the same file, then a unique one in the whole
//!   workspace. There is deliberately no crate tier: a receiver
//!   routinely comes from another crate, so crate-local uniqueness is
//!   not evidence of the target.
//!
//! In every tier, a caller outside test code never resolves to a
//! test-only fn (`#[test]` or inside a `#[cfg(test)]` item): that fn is
//! not compiled into the caller's build, so it is not a candidate and
//! cannot make a production name ambiguous. Test callers see both.
//!
//! A call that resolves to nothing produces **no edge**: the
//! reachability rules (a2/p2/d4) err toward missing a chain rather than
//! inventing one, because a false transitive finding would force a
//! bogus allow. Trait-dispatched calls (`T::default()`, `dyn` methods)
//! are therefore out of reach by design; DESIGN.md §16 records this.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{self, Lexed, TokKind, Token};
use crate::parser::{self, is_punct, CallTarget, ParsedFn};
use crate::policy;
use crate::rules::AllowRecord;

/// What kind of contract-relevant call a sink is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkKind {
    /// Allocating call (the a1 pattern set).
    Alloc,
    /// `unwrap`/`expect`/`panic!` (the p1 pattern set).
    Panic,
    /// Slice/array indexing (may panic); collected in wire files only.
    Index,
    /// `Instant::now`/`SystemTime` (the d2 pattern set).
    Clock,
    /// `HashMap`/`HashSet` (the d1 pattern set).
    Hash,
}

impl SinkKind {
    /// Rule ids an `allow` may name to justify a sink of this kind —
    /// the local rule that owns the token plus the transitive rule
    /// that can reach it.
    pub fn allow_rules(self) -> &'static [&'static str] {
        match self {
            SinkKind::Alloc => &["a1", "a2"],
            SinkKind::Panic => &["p1", "p2"],
            SinkKind::Index => &["p2"],
            SinkKind::Clock => &["d2", "d4"],
            SinkKind::Hash => &["d1", "d4"],
        }
    }
}

/// One contract-relevant call inside a function body.
#[derive(Clone, Debug)]
pub struct Sink {
    pub kind: SinkKind,
    /// Human name of the call (`collect`, `Vec::new`, `panic!`, …).
    pub what: String,
    /// 1-based position of the sink token.
    pub line: u32,
    pub col: u32,
    /// Is the sink already owned by a *local* rule in this file (a1
    /// region for allocs, p1 audit for panics, d1/d2 policy for
    /// hash/clock)? Local findings are never re-reported transitively.
    pub locally_ruled: bool,
    /// Line of an `allow` directive justifying this sink (one naming a
    /// rule from `kind.allow_rules()` on the sink's line or the line
    /// above), if any.
    pub allow_line: Option<u32>,
}

/// One function node.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// `crate::module_path::Scope::name` — the diagnostic identity.
    pub id: String,
    /// Workspace-relative file.
    pub file: String,
    /// Crate directory name (`sim`, `core`, …; `root` for `src/`).
    pub krate: String,
    /// Bare fn name.
    pub name: String,
    /// `impl`/`trait` self-type, if a method.
    pub impl_type: Option<String>,
    pub line: u32,
    pub col: u32,
    pub is_test: bool,
    pub no_alloc: bool,
    /// Sinks in this fn's body (empty for test fns — tests may panic,
    /// allocate and time freely).
    pub sinks: Vec<Sink>,
}

/// The resolved workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// Sorted by (id, file, line).
    pub nodes: Vec<FnNode>,
    /// `(caller, callee)` node indices, sorted and deduplicated.
    pub edges: Vec<(usize, usize)>,
}

/// `.m(…)` names that std types own: never resolved to workspace
/// methods, because a single workspace method named e.g. `len` would
/// otherwise absorb every `.len()` call in the repo as a false edge.
const STD_METHODS: &[&str] = &[
    "abs", "all", "and_then", "any", "as_bytes", "as_mut", "as_ref", "as_slice", "as_str",
    "binary_search", "bytes", "ceil", "chain", "chars", "clear", "clone", "cloned", "cmp",
    "collect", "contains", "contains_key", "copied", "count", "dedup", "default", "drain",
    "ends_with", "entry", "enumerate", "eq", "expect", "extend", "filter", "filter_map", "find",
    "first", "flat_map", "flatten", "floor", "flush", "fmt", "fold", "get", "get_mut", "hash",
    "insert", "into", "into_iter", "is_empty", "is_some", "is_none", "iter", "iter_mut", "join",
    "keys", "last", "len", "lines", "map", "max", "min", "next", "parse", "partial_cmp",
    "position", "pow", "powf", "powi", "product", "push", "push_str", "pop", "read", "remove",
    "replace", "retain", "rev", "round", "skip", "sort", "sort_by", "sort_by_key",
    "sort_unstable", "sort_unstable_by", "split", "sqrt", "starts_with", "sum", "take",
    "to_owned", "to_string", "to_vec", "trim", "try_from", "try_into", "unwrap", "unwrap_or",
    "unwrap_or_default", "unwrap_or_else", "values", "windows", "write", "zip",
];

struct FileEntry {
    rel: String,
    krate: String,
    mod_path: String,
    fns: Vec<ParsedFn>,
    sinks_per_fn: Vec<Vec<Sink>>,
    imports: Vec<(String, Vec<String>)>,
}

/// Accumulates per-file parse results, then resolves the graph.
#[derive(Default)]
pub struct GraphBuilder {
    files: Vec<FileEntry>,
    crates: BTreeSet<String>,
}

impl GraphBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one already-lexed file. `allows` are the file's directives
    /// (used to pre-compute per-sink justification).
    pub fn add_file(&mut self, rel: &str, src: &str, lexed: &Lexed, allows: &[AllowRecord]) {
        let parsed = parser::parse_fns(src, lexed);
        let krate = policy::crate_of(rel).to_string();
        let pol = policy::policy_for(rel);
        let wire = policy::is_wire_file(rel);
        let bodies: Vec<Option<(usize, usize)>> = parsed.fns.iter().map(|f| f.body).collect();
        let sinks_per_fn = parsed
            .fns
            .iter()
            .enumerate()
            .map(|(fi, f)| {
                if f.is_test {
                    return Vec::new();
                }
                collect_sinks(src, &lexed.tokens, f, fi, &bodies, wire, pol, allows)
            })
            .collect();
        self.crates.insert(krate.clone());
        self.files.push(FileEntry {
            rel: rel.to_string(),
            krate,
            mod_path: mod_path(rel),
            fns: parsed.fns,
            sinks_per_fn,
            imports: parsed.imports,
        });
    }

    /// Resolve everything into a graph.
    pub fn build(self) -> Graph {
        // Materialize nodes first (stable file order comes from the
        // walker, which visits files sorted).
        let mut nodes: Vec<FnNode> = Vec::new();
        for fe in self.files.iter() {
            for (j, f) in fe.fns.iter().enumerate() {
                let mut id = fe.krate.clone();
                for part in [fe.mod_path.as_str(), f.scope.as_str(), f.name.as_str()] {
                    if !part.is_empty() {
                        id.push_str("::");
                        id.push_str(part);
                    }
                }
                nodes.push(FnNode {
                    id,
                    file: fe.rel.clone(),
                    krate: fe.krate.clone(),
                    name: f.name.clone(),
                    impl_type: f.impl_type.clone(),
                    line: f.line,
                    col: f.col,
                    is_test: f.is_test,
                    no_alloc: f.no_alloc,
                    sinks: fe.sinks_per_fn[j].clone(),
                });
            }
        }

        // Resolution indices. BTreeMap keeps every lookup order
        // deterministic (this crate holds itself to its own d1 bar).
        let mut file_free: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut file_meth: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut crate_free: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free_id: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut ws_meth: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut crate_type_meth: BTreeMap<(&str, &str, &str), Vec<usize>> = BTreeMap::new();
        let mut ws_type_meth: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (ni, n) in nodes.iter().enumerate() {
            match &n.impl_type {
                None => {
                    file_free.entry((&n.file, &n.name)).or_default().push(ni);
                    crate_free.entry((&n.krate, &n.name)).or_default().push(ni);
                    free_id.entry(&n.id).or_default().push(ni);
                }
                Some(ty) => {
                    file_meth.entry((&n.file, &n.name)).or_default().push(ni);
                    ws_meth.entry(&n.name).or_default().push(ni);
                    crate_type_meth.entry((&n.krate, ty, &n.name)).or_default().push(ni);
                    ws_type_meth.entry((ty, &n.name)).or_default().push(ni);
                }
            }
        }
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut ni = 0usize;
        for fe in &self.files {
            for f in &fe.fns {
                let caller = ni;
                ni += 1;
                let n = &nodes[caller];
                let unique = |v: Option<&Vec<usize>>| unique_candidate(v, n.is_test, &nodes);
                for call in &f.calls {
                    // Expand a leading import alias, then resolve.
                    let target = expand_alias(&call.target, &fe.imports);
                    let callee = match &target {
                        CallTarget::Method(m) => {
                            // Same-file unique, else workspace unique.
                            // No crate tier: a receiver routinely comes
                            // from another crate, so "the only `submit`
                            // in MY crate" is not evidence.
                            if STD_METHODS.contains(&m.as_str()) {
                                None
                            } else {
                                unique(file_meth.get(&(n.file.as_str(), m.as_str())))
                                    .or_else(|| unique(ws_meth.get(&m.as_str())))
                            }
                        }
                        CallTarget::Bare(f) => {
                            unique(file_free.get(&(n.file.as_str(), f.as_str())))
                                .or_else(|| unique(crate_free.get(&(n.krate.as_str(), f.as_str()))))
                        }
                        CallTarget::Path(segs) => resolve_path(
                            segs,
                            n,
                            &self.crates,
                            &free_id,
                            &crate_free,
                            &crate_type_meth,
                            &ws_type_meth,
                            unique,
                        ),
                    };
                    if let Some(callee) = callee {
                        if callee != caller {
                            edges.insert((caller, callee));
                        }
                    }
                }
            }
        }

        // Sort nodes by identity and remap the edges.
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by(|&a, &b| {
            (&nodes[a].id, &nodes[a].file, nodes[a].line)
                .cmp(&(&nodes[b].id, &nodes[b].file, nodes[b].line))
        });
        let mut rank = vec![0usize; nodes.len()];
        for (new, &old) in order.iter().enumerate() {
            rank[old] = new;
        }
        let mut sorted_nodes: Vec<FnNode> = order.iter().map(|&o| nodes[o].clone()).collect();
        // ids can collide (cfg twins, same-name fns in sibling scopes);
        // the sort above makes any collision adjacent and deterministic.
        for n in &mut sorted_nodes {
            n.sinks.sort_by_key(|s| (s.line, s.col));
        }
        let edges: Vec<(usize, usize)> =
            edges.into_iter().map(|(a, b)| (rank[a], rank[b])).collect::<BTreeSet<_>>()
                .into_iter().collect();
        Graph { nodes: sorted_nodes, edges }
    }
}

/// The module a fn is defined in, as an id prefix: its id without the
/// fn name and, for a method, without the impl type (`sim::engine`).
fn module_of(n: &FnNode) -> &str {
    let strip = |id: &'_ str, tail: &str| -> Option<usize> {
        id.strip_suffix(tail)
            .and_then(|m| m.strip_suffix("::"))
            .map(str::len)
    };
    let mut end = strip(&n.id, &n.name).unwrap_or(n.id.len());
    if let Some(ty) = &n.impl_type {
        end = strip(&n.id[..end], ty).unwrap_or(end);
    }
    &n.id[..end]
}

/// The one candidate in `v` a caller can reach, if exactly one: a
/// non-test caller (`caller_test == false`) does not see test-only fns.
fn unique_candidate(v: Option<&Vec<usize>>, caller_test: bool, nodes: &[FnNode]) -> Option<usize> {
    let mut seen = v?.iter().copied().filter(|&c| caller_test || !nodes[c].is_test);
    match (seen.next(), seen.next()) {
        (Some(c), None) => Some(c),
        _ => None,
    }
}

/// Replace a leading `use`-alias segment with its full path.
fn expand_alias(target: &CallTarget, imports: &[(String, Vec<String>)]) -> CallTarget {
    let expand = |head: &str, rest: &[String]| -> Option<CallTarget> {
        let (_, full) = imports.iter().find(|(name, _)| name == head)?;
        let mut segs = full.clone();
        segs.extend(rest.iter().cloned());
        Some(CallTarget::Path(segs))
    };
    match target {
        CallTarget::Path(segs) if !segs.is_empty() => {
            expand(&segs[0], &segs[1..]).unwrap_or_else(|| target.clone())
        }
        CallTarget::Bare(f) => expand(f, &[]).unwrap_or_else(|| target.clone()),
        other => other.clone(),
    }
}

/// Resolve a path call (post alias expansion). See the module docs for
/// the exact rules.
#[allow(clippy::too_many_arguments)]
fn resolve_path(
    segs: &[String],
    caller: &FnNode,
    crates: &BTreeSet<String>,
    free_id: &BTreeMap<&str, Vec<usize>>,
    crate_free: &BTreeMap<(&str, &str), Vec<usize>>,
    crate_type_meth: &BTreeMap<(&str, &str, &str), Vec<usize>>,
    ws_type_meth: &BTreeMap<(&str, &str), Vec<usize>>,
    unique: impl Fn(Option<&Vec<usize>>) -> Option<usize>,
) -> Option<usize> {
    let mut segs = segs;
    let mut krate: Option<&str> = None;
    let module = module_of(caller);
    // Module id prefixes the free-fn tail is tried under, in order.
    let mut bases: Vec<&str> = Vec::new();
    match segs.first().map(|s| s.as_str()) {
        Some("std") | Some("core") | Some("alloc") => return None,
        Some(first @ ("crate" | "self" | "super")) => {
            krate = Some(&caller.krate);
            segs = &segs[1..];
            bases.push(match first {
                "crate" => &caller.krate,
                "self" => module,
                _ => module
                    .rsplit_once("::")
                    .map_or(module, |(parent, _)| parent),
            });
        }
        Some("bandwidth_tree_scheduling") => {
            krate = Some("root");
            segs = &segs[1..];
            bases.push("root");
        }
        Some("Self") => {
            // `Self::helper(…)` — a method/assoc fn of the caller's own
            // impl type.
            let ty = caller.impl_type.as_deref()?;
            let name = segs.get(1)?;
            return unique(crate_type_meth.get(&(caller.krate.as_str(), ty, name.as_str())))
                .or_else(|| unique(ws_type_meth.get(&(ty, name.as_str()))));
        }
        Some(first) => match first
            .strip_prefix("bct_")
            .filter(|dir| crates.contains(*dir))
        {
            Some(dir) => {
                krate = Some(dir);
                segs = &segs[1..];
                bases.push(dir);
            }
            None => bases.extend([module, caller.krate.as_str()]),
        },
        None => return None,
    }
    let name = segs.last()?.as_str();
    // `…::Type::method` — resolve against impl blocks of `Type`.
    if segs.len() >= 2 {
        let ty = segs[segs.len() - 2].as_str();
        if ty.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            return match krate {
                Some(k) => unique(crate_type_meth.get(&(k, ty, name)))
                    .or_else(|| unique(ws_type_meth.get(&(ty, name)))),
                None => unique(ws_type_meth.get(&(ty, name))),
            };
        }
    }
    // Plain path to a free fn: by module path, else by name alone in
    // the mapped crate (a relative path like `helpers::f()`: the
    // caller's crate).
    let tail = segs.join("::");
    bases
        .iter()
        .find_map(|base| unique(free_id.get(format!("{base}::{tail}").as_str())))
        .or_else(|| unique(crate_free.get(&(krate.unwrap_or(&caller.krate), name))))
}

/// Scan one fn body for sinks, skipping nested fn bodies.
#[allow(clippy::too_many_arguments)]
fn collect_sinks(
    src: &str,
    toks: &[Token],
    f: &ParsedFn,
    fi: usize,
    bodies: &[Option<(usize, usize)>],
    wire: bool,
    pol: crate::policy::Policy,
    allows: &[AllowRecord],
) -> Vec<Sink> {
    let Some((open, close)) = f.body else {
        return Vec::new();
    };
    let mut skip: Vec<(usize, usize)> = bodies
        .iter()
        .enumerate()
        .filter(|&(oi, b)| oi != fi && b.is_some_and(|(o, c)| o > open && c <= close))
        .map(|(_, b)| b.unwrap())
        .collect();
    skip.sort_unstable();

    let mut out = Vec::new();
    let mut push = |kind: SinkKind, what: &str, t: &Token| {
        let allow_line = allows
            .iter()
            .find(|a| {
                (a.line == t.line || a.line + 1 == t.line)
                    && a.rules.iter().any(|r| kind.allow_rules().contains(&r.as_str()))
            })
            .map(|a| a.line);
        let locally_ruled = match kind {
            SinkKind::Alloc => f.no_alloc,
            SinkKind::Panic => pol.p1,
            SinkKind::Clock => pol.d2,
            SinkKind::Hash => pol.d1,
            SinkKind::Index => false,
        };
        out.push(Sink {
            kind,
            what: what.to_string(),
            line: t.line,
            col: t.col,
            locally_ruled,
            allow_line,
        });
    };

    let mut i = open + 1;
    while i < close {
        if let Some(&(_, c)) = skip.iter().find(|&&(o, _)| o == i) {
            i = c + 1;
            continue;
        }
        let t = &toks[i];
        let txt = lexer::text(src, t);
        let prev_dot = i > 0 && is_punct(src, toks, i - 1, ".");
        match (t.kind, txt) {
            (TokKind::Ident, "to_vec" | "collect" | "clone") if prev_dot => {
                push(SinkKind::Alloc, txt, t)
            }
            (TokKind::Ident, "Vec" | "Box" | "String")
                if is_punct(src, toks, i + 1, "::")
                    && matches!(
                        (txt, toks.get(i + 2).map(|n| lexer::text(src, n))),
                        ("Vec", Some("new")) | ("Box", Some("new")) | ("String", Some("from"))
                    ) =>
            {
                push(SinkKind::Alloc, &format!("{txt}::{}", lexer::text(src, &toks[i + 2])), t)
            }
            (TokKind::Ident, "vec" | "format") if is_punct(src, toks, i + 1, "!") => {
                push(SinkKind::Alloc, &format!("{txt}!"), t)
            }
            (TokKind::Ident, "unwrap" | "expect") if prev_dot => push(SinkKind::Panic, txt, t),
            (TokKind::Ident, "panic") if is_punct(src, toks, i + 1, "!") => {
                push(SinkKind::Panic, "panic!", t)
            }
            (TokKind::Ident, "Instant")
                if is_punct(src, toks, i + 1, "::")
                    && toks.get(i + 2).is_some_and(|n| lexer::text(src, n) == "now") =>
            {
                push(SinkKind::Clock, "Instant::now", t)
            }
            (TokKind::Ident, "SystemTime") => push(SinkKind::Clock, "SystemTime", t),
            (TokKind::Ident, "HashMap" | "HashSet") => push(SinkKind::Hash, txt, t),
            (TokKind::Punct, "[")
                if wire
                    && i > 0
                    && (toks[i - 1].kind == TokKind::Ident
                        || is_punct(src, toks, i - 1, ")")
                        || is_punct(src, toks, i - 1, "]")) =>
            {
                push(SinkKind::Index, "[]-indexing", t)
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Module path of a file inside its crate: `crates/x/src/a/b.rs` →
/// `a::b`; `lib.rs`/`main.rs` → empty; `a/mod.rs` → `a`.
fn mod_path(rel: &str) -> String {
    let p = rel.strip_prefix("./").unwrap_or(rel);
    let tail = if let Some(rest) = p.strip_prefix("crates/") {
        rest.splitn(2, "/src/").nth(1).unwrap_or("")
    } else {
        p.strip_prefix("src/").unwrap_or("")
    };
    let tail = tail.strip_suffix(".rs").unwrap_or(tail);
    let tail = tail.strip_suffix("/mod").unwrap_or(tail);
    if tail == "lib" || tail == "main" || tail == "mod" {
        return String::new();
    }
    tail.replace('/', "::")
}

/// Serialize the graph to deterministic JSON (edges by node index into
/// the sorted `nodes` array).
pub fn render_graph(g: &Graph) -> String {
    use crate::diag::escape_json;
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\"tool\":\"bct-lint\",\"graph_version\":1,");
    let _ = write!(out, "\"nodes\":[");
    for (i, n) in g.nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":\"{}\",\"file\":\"{}\",\"line\":{},\"test\":{},\"no_alloc\":{},\"sinks\":[",
            escape_json(&n.id),
            escape_json(&n.file),
            n.line,
            n.is_test,
            n.no_alloc,
        );
        for (j, s) in n.sinks.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let kind = match s.kind {
                SinkKind::Alloc => "alloc",
                SinkKind::Panic => "panic",
                SinkKind::Index => "index",
                SinkKind::Clock => "clock",
                SinkKind::Hash => "hash",
            };
            let _ = write!(
                out,
                "{{\"kind\":\"{}\",\"what\":\"{}\",\"line\":{},\"justified\":{}}}",
                kind,
                escape_json(&s.what),
                s.line,
                s.allow_line.is_some(),
            );
        }
        out.push_str("]}");
    }
    out.push_str("],\"edges\":[");
    for (i, (a, b)) in g.edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{a},{b}]");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn graph_of(files: &[(&str, &str)]) -> Graph {
        let mut b = GraphBuilder::new();
        for (rel, src) in files {
            let lexed = lex(src);
            let rep = crate::rules::check_src(rel, src, crate::policy::policy_for(rel));
            b.add_file(rel, src, &lexed, &rep.allows);
        }
        b.build()
    }

    fn edge_ids(g: &Graph) -> Vec<(String, String)> {
        g.edges
            .iter()
            .map(|&(a, b)| (g.nodes[a].id.clone(), g.nodes[b].id.clone()))
            .collect()
    }

    #[test]
    fn bare_and_path_calls_resolve_within_crate() {
        let g = graph_of(&[(
            "crates/sim/src/engine.rs",
            "
            fn helper() {}
            fn step() { helper(); crate::engine::helper(); }
            ",
        )]);
        assert_eq!(
            edge_ids(&g),
            [("sim::engine::step".to_string(), "sim::engine::helper".to_string())]
        );
    }

    #[test]
    fn cross_crate_calls_resolve_via_bct_paths_and_imports() {
        let g = graph_of(&[
            ("crates/core/src/tree.rs", "pub fn depth() -> u32 { 1 }"),
            (
                "crates/sim/src/engine.rs",
                "
                use bct_core::tree::depth;
                fn a() { bct_core::tree::depth(); }
                fn b() { depth(); }
                ",
            ),
        ]);
        assert_eq!(
            edge_ids(&g),
            [
                ("sim::engine::a".to_string(), "core::tree::depth".to_string()),
                ("sim::engine::b".to_string(), "core::tree::depth".to_string()),
            ]
        );
    }

    #[test]
    fn method_calls_resolve_unless_std_named() {
        let g = graph_of(&[(
            "crates/sim/src/agg.rs",
            "
            struct Agg;
            impl Agg {
                fn rebuild(&mut self) {}
            }
            fn tick(a: &mut Agg, xs: &[u32]) {
                a.rebuild();
                xs.len();
                Agg::rebuild(a);
                Self::missing();
            }
            ",
        )]);
        // `.len()` is std-named: no edge. `Self::` outside an impl: no
        // edge. `.rebuild()` and `Agg::rebuild` both resolve.
        assert_eq!(
            edge_ids(&g),
            [("sim::agg::tick".to_string(), "sim::agg::Agg::rebuild".to_string())]
        );
    }

    #[test]
    fn ambiguous_methods_produce_no_edge_but_same_file_wins() {
        let files = [
            (
                "crates/sim/src/a.rs",
                "struct A; impl A { fn refresh(&self) {} }",
            ),
            (
                "crates/sim/src/b.rs",
                "struct B; impl B { fn refresh(&self) {} }
                 fn go(x: &B) { x.refresh(); }",
            ),
            ("crates/sim/src/c.rs", "fn tick() { thing.refresh(); }"),
        ];
        let g = graph_of(&files);
        // In c.rs, two same-crate `refresh` candidates: ambiguous, no
        // edge. In b.rs the same-file rule disambiguates to B::refresh.
        assert_eq!(
            edge_ids(&g),
            [("sim::b::go".to_string(), "sim::b::B::refresh".to_string())]
        );
    }

    #[test]
    fn test_only_fns_are_no_candidates_outside_tests() {
        let files = [
            ("crates/sim/src/a.rs", "struct A; impl A { fn refresh(&self) {} }"),
            (
                "crates/sim/src/b.rs",
                "struct B; #[cfg(test)] impl B { fn refresh(&self) {} }",
            ),
            (
                "crates/sim/src/c.rs",
                "fn tick(x: &A) { x.refresh(); }
                 #[test] fn t(x: &A) { x.refresh(); }",
            ),
        ];
        let g = graph_of(&files);
        // `tick` is not test code, so the cfg(test) `B::refresh` is not
        // compiled into its build: `A::refresh` is its one candidate.
        // The test fn sees both, so its call stays ambiguous.
        assert_eq!(
            edge_ids(&g),
            [("sim::c::tick".to_string(), "sim::a::A::refresh".to_string())]
        );
    }

    #[test]
    fn path_calls_resolve_same_name_free_fns_by_module_path() {
        let files = [
            ("crates/sim/src/a.rs", "pub fn f() {}"),
            ("crates/sim/src/b.rs", "pub fn f() {}"),
            ("crates/sim/src/c.rs", "fn go() { crate::a::f(); crate::b::f(); }"),
            (
                "crates/policies/src/prio.rs",
                "pub fn volume() {}
                 pub mod naive {
                     pub fn volume() {}
                     pub fn check() { super::volume(); }
                 }
                 pub fn oracle() { naive::volume(); }",
            ),
            (
                "crates/sched/src/cost.rs",
                "use bct_policies::prio;
                 fn f_term() { prio::volume(); }
                 fn f_oracle() { bct_policies::prio::naive::volume(); }",
            ),
        ];
        let g = graph_of(&files);
        // Each crate has two free fns per name, in sibling files or in a
        // module and its child, so the name alone is ambiguous: every
        // call resolves by its module path.
        let expected = [
            ("policies::prio::naive::check", "policies::prio::volume"),
            ("policies::prio::oracle", "policies::prio::naive::volume"),
            ("sched::cost::f_oracle", "policies::prio::naive::volume"),
            ("sched::cost::f_term", "policies::prio::volume"),
            ("sim::c::go", "sim::a::f"),
            ("sim::c::go", "sim::b::f"),
        ];
        let expected: Vec<(String, String)> =
            expected.iter().map(|&(a, b)| (a.to_string(), b.to_string())).collect();
        assert_eq!(edge_ids(&g), expected);
    }

    #[test]
    fn sinks_carry_kind_justification_and_local_ownership() {
        let g = graph_of(&[(
            "crates/sim/src/engine.rs",
            "
            fn a() { let v: Vec<u32> = xs.iter().collect(); }
            fn b(x: Option<u32>) -> u32 {
                // bct-lint: allow(p2) -- checked by caller
                x.unwrap()
            }
            #[test]
            fn t() { panic!(\"fine in tests\"); }
            ",
        )]);
        let a = g.nodes.iter().find(|n| n.name == "a").unwrap();
        assert_eq!(a.sinks.len(), 1);
        assert_eq!(a.sinks[0].kind, SinkKind::Alloc);
        assert!(!a.sinks[0].locally_ruled, "fn a is not no_alloc");
        let b = g.nodes.iter().find(|n| n.name == "b").unwrap();
        assert_eq!(b.sinks[0].kind, SinkKind::Panic);
        assert!(b.sinks[0].locally_ruled, "sim is p1-audited");
        assert_eq!(b.sinks[0].allow_line, Some(4));
        let t = g.nodes.iter().find(|n| n.name == "t").unwrap();
        assert!(t.sinks.is_empty(), "test fns have no sinks");
    }

    #[test]
    fn index_sinks_only_in_wire_files() {
        let wire = graph_of(&[(
            "crates/serve/src/protocol.rs",
            "fn decode(buf: &[u8]) -> u8 { buf[0] }",
        )]);
        assert_eq!(wire.nodes[0].sinks.len(), 1);
        assert_eq!(wire.nodes[0].sinks[0].kind, SinkKind::Index);

        let not_wire = graph_of(&[(
            "crates/sim/src/engine.rs",
            "fn peek(buf: &[u8]) -> u8 { buf[0] }",
        )]);
        assert!(not_wire.nodes[0].sinks.is_empty());
    }

    #[test]
    fn graph_json_is_deterministic_and_sorted() {
        let files = [
            ("crates/sim/src/z.rs", "pub fn zz() { crate::a::aa(); }"),
            ("crates/sim/src/a.rs", "pub fn aa() {}"),
        ];
        let j1 = render_graph(&graph_of(&files));
        let j2 = render_graph(&graph_of(&files));
        assert_eq!(j1, j2);
        let a_pos = j1.find("sim::a::aa").unwrap();
        let z_pos = j1.find("sim::z::zz").unwrap();
        assert!(a_pos < z_pos, "nodes sorted by id");
    }

    #[test]
    fn mod_paths_normalize() {
        assert_eq!(mod_path("crates/sim/src/engine.rs"), "engine");
        assert_eq!(mod_path("crates/sim/src/lib.rs"), "");
        assert_eq!(mod_path("crates/sim/src/sub/mod.rs"), "sub");
        assert_eq!(mod_path("crates/sim/src/sub/deep.rs"), "sub::deep");
        assert_eq!(mod_path("src/main.rs"), "");
    }
}
