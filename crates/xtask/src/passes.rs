//! The interprocedural passes: P3 (transitive panic-reachability), D5
//! (determinism taint) and L2 (lock-order / lock-across-I/O).
//!
//! All three run over the workspace call graph built by `callgraph.rs`.
//! Reachability uses breadth-first search with parent pointers, so every
//! diagnostic carries the *shortest* call chain from a root to the
//! offending site, rendered as a `note:` line. Like the token rules, the
//! passes over-approximate (name-based call resolution can introduce
//! phantom edges); the escape hatch is the same justified allow, checked
//! at the *site* the diagnostic points at.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::{Graph, Span, TaintKind};
use crate::rules::{Finding, Role};

/// What the passes know about each file in the engine's file list.
pub(crate) struct FileInfo {
    pub(crate) rel: String,
    pub(crate) role: Role,
}

/// Runs every interprocedural pass; returns findings keyed by the index
/// of the file they belong to.
pub(crate) fn run(graph: &Graph, files: &[FileInfo]) -> Vec<(usize, Finding)> {
    let mut out = Vec::new();
    pass_p3(graph, files, &mut out);
    pass_d5(graph, files, &mut out);
    pass_l2(graph, files, &mut out);
    out
}

/// Multi-source BFS over `graph` restricted to nodes satisfying
/// `allowed`; returns parent pointers (`None` marks a root). Iteration
/// order is deterministic: roots in index order, edges in extraction
/// order.
fn bfs(
    graph: &Graph,
    roots: &[usize],
    allowed: &dyn Fn(usize) -> bool,
) -> BTreeMap<usize, Option<usize>> {
    let mut parents: BTreeMap<usize, Option<usize>> = BTreeMap::new();
    let mut queue = VecDeque::new();
    for &r in roots {
        if allowed(r) && !parents.contains_key(&r) {
            parents.insert(r, None);
            queue.push_back(r);
        }
    }
    while let Some(n) = queue.pop_front() {
        for e in &graph.edges[n] {
            if allowed(e.callee) && !parents.contains_key(&e.callee) {
                parents.insert(e.callee, Some(n));
                queue.push_back(e.callee);
            }
        }
    }
    parents
}

/// The root→…→node chain, rendered as one `note:` line.
fn chain_note(
    graph: &Graph,
    files: &[FileInfo],
    parents: &BTreeMap<usize, Option<usize>>,
    node: usize,
) -> (usize, String) {
    let mut path = vec![node];
    let mut cur = node;
    while let Some(Some(p)) = parents.get(&cur) {
        cur = *p;
        path.push(cur);
    }
    path.reverse();
    let hops: Vec<String> = path
        .iter()
        .map(|&k| {
            let n = &graph.nodes[k];
            format!("`{}` ({}:{})", n.qual, files[n.file].rel, n.line)
        })
        .collect();
    (path[0], format!("call chain: {}", hops.join(" -> ")))
}

/// P3: any public API of a verdict-path crate that can reach a
/// panic-family or indexing site through the call graph. P1/P2 stay the
/// per-site rules; P3 closes the chains — a private helper's `unwrap()`
/// is an error as soon as some public entry point can reach it.
fn pass_p3(graph: &Graph, files: &[FileInfo], out: &mut Vec<(usize, Finding)>) {
    let roots: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| {
            let n = &graph.nodes[i];
            n.is_pub && files[n.file].role.verdict_path
        })
        .collect();
    // Chains stay inside verdict-path crates: a phantom name-collision
    // edge into the CLI or the runtime (which core does not link) must
    // not drag foreign panic sites into this contract — P1 already
    // polices those per site.
    let allowed = |i: usize| files[graph.nodes[i].file].role.verdict_path;
    let parents = bfs(graph, &roots, &allowed);
    for &n in parents.keys() {
        let node = &graph.nodes[n];
        for site in &node.sites.panics {
            let (root, note) = chain_note(graph, files, &parents, n);
            let root_qual = &graph.nodes[root].qual;
            let mut f = Finding::new(
                "P3",
                site.span.line,
                site.span.col,
                site.span.len,
                format!(
                    "{} reachable from public verdict-path API `{root_qual}`",
                    site.what
                ),
                "break the chain with a structured error along the path, or \
                 annotate the site `// chromata-lint: allow(P3): <why this \
                 site cannot fire>`"
                    .to_owned(),
            );
            f.notes.push(note);
            // The per-site rule's allow makes the same soundness claim,
            // so it silences the chain too.
            f.covered_by = Some(if site.index { "P2" } else { "P1" });
            out.push((node.file, f));
        }
    }
}

/// The entry points whose transitive callees must be deterministic:
/// digest construction and the public analyze family.
const ANALYZE_ROOTS: &[&str] = &["analyze", "analyze_governed", "analyze_batch"];

/// D5: clock/env/RNG/hash-order sources reachable from a determinism
/// root. The alias-aware source extractor sees through `use ... as`
/// renames that the token rules D1/D2 cannot.
fn pass_d5(graph: &Graph, files: &[FileInfo], out: &mut Vec<(usize, Finding)>) {
    let roots: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| {
            let n = &graph.nodes[i];
            n.name == "deterministic_digest"
                || ANALYZE_ROOTS.contains(&n.name.as_str())
                || (n.name == "run" && files[n.file].rel.starts_with("crates/core/src/stages/"))
        })
        .collect();
    let allowed = |i: usize| files[graph.nodes[i].file].role.library;
    let parents = bfs(graph, &roots, &allowed);
    for &n in parents.keys() {
        let node = &graph.nodes[n];
        let role = files[node.file].role;
        for site in &node.sites.taints {
            match site.kind {
                // `govern.rs` is the sanctioned clock boundary: budgets
                // derived there are deterministic inputs by contract.
                TaintKind::Clock | TaintKind::Env if role.clock_exempt => continue,
                // On the verdict path D1 already owns hash containers
                // (deny, per site); D5 adds the rule only where D1 does
                // not look.
                TaintKind::Hash if role.verdict_path => continue,
                _ => {}
            }
            let (root, note) = chain_note(graph, files, &parents, n);
            let root_qual = &graph.nodes[root].qual;
            let mut f = Finding::new(
                "D5",
                site.span.line,
                site.span.col,
                site.span.len,
                format!(
                    "{} reachable from determinism root `{root_qual}`: digests \
                     and verdicts must not observe nondeterministic state",
                    site.what
                ),
                "hoist the nondeterminism out of the digest path (`govern.rs` \
                 is the sanctioned clock boundary) or annotate the site \
                 `// chromata-lint: allow(D5): <why the value cannot reach a \
                 digest>`"
                    .to_owned(),
            );
            f.notes.push(note);
            if site.kind == TaintKind::Hash {
                f.covered_by = Some("D1");
            }
            out.push((node.file, f));
        }
    }
}

/// The concurrency-bearing modules L2 analyzes. Suffix-matched so
/// fixtures can opt in with a matching relative path.
const L2_SCOPE: &[&str] = &[
    "src/serve.rs",
    "src/stages/cache.rs",
    "src/stages/persist.rs",
];

/// Where one acquisition-order edge was observed, for diagnostics.
struct EdgeSite {
    file: usize,
    span: Span,
    note: String,
}

/// L2: lock-order cycles and locks held across I/O. Lock identity is the
/// receiver's field name — coarse, but it makes the acquisition-order
/// graph small enough to review by hand (`cargo xtask graph`).
fn pass_l2(graph: &Graph, files: &[FileInfo], out: &mut Vec<(usize, Finding)>) {
    let n = graph.nodes.len();
    let in_scope = |f: usize| L2_SCOPE.iter().any(|s| files[f].rel.ends_with(s));

    // Transitive lock and I/O sets per function (fixpoint over the
    // cyclic graph; sets are tiny). Base sites are seeded from the L2
    // scope files only: a `write_tmp` or `bind` *name* in an algebra
    // crate is not the `PersistIo` seam, and counting it would let every
    // name-collision edge poison the analysis.
    let mut sub_locks: Vec<BTreeSet<String>> = graph
        .nodes
        .iter()
        .map(|node| {
            if in_scope(node.file) {
                node.sites.locks.iter().map(|l| l.name.clone()).collect()
            } else {
                BTreeSet::new()
            }
        })
        .collect();
    let mut sub_io: Vec<Option<String>> = graph
        .nodes
        .iter()
        .map(|node| {
            if in_scope(node.file) {
                node.sites.ios.first().map(|s| s.what.clone())
            } else {
                None
            }
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            // Only scope-file functions carry transitive state: a chain
            // that detours through a pure-computation crate (where a
            // bare name like `len` or `insert` collides with half the
            // workspace) must not smuggle I/O back in.
            if !in_scope(graph.nodes[i].file) {
                continue;
            }
            let mut add: Vec<String> = Vec::new();
            let mut io_add: Option<String> = None;
            for e in &graph.edges[i] {
                if e.callee == i {
                    continue;
                }
                for l in &sub_locks[e.callee] {
                    if !sub_locks[i].contains(l) {
                        add.push(l.clone());
                    }
                }
                if sub_io[i].is_none() && io_add.is_none() && sub_io[e.callee].is_some() {
                    io_add = Some(format!(
                        "a call into `{}`, which performs I/O",
                        graph.nodes[e.callee].qual
                    ));
                }
            }
            if !add.is_empty() {
                sub_locks[i].extend(add);
                changed = true;
            }
            if let Some(io) = io_add {
                sub_io[i] = Some(io);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Acquisition-order edges and held-across-I/O findings, from lock
    // sites in scope files only. At most one held-across-I/O finding
    // per acquisition site: the first (earliest) I/O it covers.
    let mut order: BTreeMap<(String, String), EdgeSite> = BTreeMap::new();
    let mut seen: BTreeSet<(usize, u32, u32)> = BTreeSet::new();
    for (ni, node) in graph.nodes.iter().enumerate() {
        if !in_scope(node.file) {
            continue;
        }
        let mut by_idx: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for e in &graph.edges[ni] {
            by_idx.entry(e.idx).or_default().push(e.callee);
        }
        for a in &node.sites.locks {
            let (hs, he) = a.held;
            let covers = |idx: usize| idx > hs && idx < he;
            // Nested acquisitions inside this function.
            for b in &node.sites.locks {
                // Same-name pairs are excluded: under name-based lock
                // identity a `cache -> cache` edge is always a cycle
                // and says nothing about cross-thread ordering.
                if covers(b.held.0) && a.held.0 != b.held.0 && a.name != b.name {
                    order
                        .entry((a.name.clone(), b.name.clone()))
                        .or_insert_with(|| EdgeSite {
                            file: node.file,
                            span: b.span,
                            note: format!(
                                "`{}` acquired at {}:{} while `{}` (acquired at line {}) \
                                 is still held, in `{}`",
                                b.name,
                                files[node.file].rel,
                                b.span.line,
                                a.name,
                                a.span.line,
                                node.qual
                            ),
                        });
                }
            }
            // Direct I/O inside the held range.
            for s in &node.sites.ios {
                if covers(s.idx) {
                    let key = (node.file, a.span.line, a.span.col);
                    if seen.insert(key) {
                        out.push((
                            node.file,
                            held_across_io(a, &s.what, s.span.line, node, files),
                        ));
                    }
                }
            }
            // Calls inside the held range: inherit the callee's
            // transitive locks (order edges) and I/O (held-across).
            for c in &node.sites.calls {
                if !covers(c.idx) {
                    continue;
                }
                let Some(callees) = by_idx.get(&c.idx) else {
                    continue;
                };
                for &g in callees {
                    for m in &sub_locks[g] {
                        if *m == a.name {
                            continue; // a self-edge only counts when acquired directly
                        }
                        order
                            .entry((a.name.clone(), m.clone()))
                            .or_insert_with(|| EdgeSite {
                                file: node.file,
                                span: a.span,
                                note: format!(
                                    "`{}` held at {}:{} across a call to `{}`, which \
                                     (transitively) acquires `{m}`",
                                    a.name, files[node.file].rel, a.span.line, graph.nodes[g].qual
                                ),
                            });
                    }
                    if let Some(io_what) = &sub_io[g] {
                        let what = format!("a call to `{}` ({io_what})", graph.nodes[g].qual);
                        let key = (node.file, a.span.line, a.span.col);
                        if seen.insert(key) {
                            out.push((node.file, held_across_io(a, &what, c.line, node, files)));
                        }
                    }
                }
            }
        }
    }

    // Cycles in the acquisition-order graph: mutual reachability over
    // the lock names, one finding per strongly connected component.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (x, y) in order.keys() {
        adj.entry(x.as_str()).or_default().insert(y.as_str());
        adj.entry(y.as_str()).or_default();
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut stack = vec![from];
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        while let Some(x) = stack.pop() {
            if let Some(next) = adj.get(x) {
                for &y in next {
                    if y == to {
                        return true;
                    }
                    if visited.insert(y) {
                        stack.push(y);
                    }
                }
            }
        }
        false
    };
    let names: Vec<&str> = adj.keys().copied().collect();
    let cyclic: Vec<&str> = names.iter().copied().filter(|x| reaches(x, x)).collect();
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    for &name in &cyclic {
        if reported.contains(name) {
            continue;
        }
        let scc: Vec<&str> = cyclic
            .iter()
            .copied()
            .filter(|&other| other == name || (reaches(name, other) && reaches(other, name)))
            .collect();
        reported.extend(&scc);
        // Anchor at the site of the smallest edge inside the component.
        let member = |s: &str| scc.contains(&s);
        let Some(((x, y), site)) = order
            .iter()
            .find(|((x, y), _)| member(x.as_str()) && member(y.as_str()))
        else {
            continue;
        };
        let display: Vec<String> = scc.iter().map(|s| format!("`{s}`")).collect();
        let mut f = Finding::new(
            "L2",
            site.span.line,
            site.span.col,
            site.span.len,
            format!(
                "lock acquisition-order cycle among {}: two threads taking \
                 them in opposite order deadlock",
                display.join(", ")
            ),
            "acquire the locks in one global order everywhere, or annotate \
             the acquisition `// chromata-lint: allow(L2): <why the cycle \
             cannot deadlock>`"
                .to_owned(),
        );
        f.notes.push(site.note.clone());
        if x != y {
            if let Some(back) = order.get(&(y.clone(), x.clone())) {
                f.notes.push(back.note.clone());
            }
        }
        out.push((site.file, f));
    }
}

/// Builds one held-across-I/O finding anchored at the acquisition site.
fn held_across_io(
    a: &crate::callgraph::LockSite,
    what: &str,
    io_line: u32,
    node: &crate::callgraph::Node,
    files: &[FileInfo],
) -> Finding {
    let mut f = Finding::new(
        "L2",
        a.span.line,
        a.span.col,
        a.span.len,
        format!(
            "lock `{}` held across {what}: a stalled peer extends the \
             critical section indefinitely",
            a.name
        ),
        "drop the guard before the I/O (scope it in a block or call \
         `drop(..)`), or annotate the acquisition \
         `// chromata-lint: allow(L2): <why the I/O is bounded>`"
            .to_owned(),
    );
    f.notes.push(format!(
        "guard acquired in `{}` ({}:{}) is still held at the I/O on line {io_line}",
        node.qual, files[node.file].rel, a.span.line
    ));
    f
}
