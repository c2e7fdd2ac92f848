//! A lightweight item parser on top of the lexer.
//!
//! The interprocedural passes (P3/D5/L2) need to know *which function a
//! token belongs to*, *what a bare identifier resolves to through `use`
//! aliases*, and *which methods a trait declares* — none of which the
//! flat token stream provides. This module recovers exactly that much
//! structure with a single linear scan and an explicit scope stack:
//!
//! * `use` declarations, including groups (`use a::{b, c as d}`) and
//!   renames (`use std::time::Instant as Clock`) — the alias table is
//!   what lets rule D2 see through the `as Clock` evasion;
//! * `fn` items with their `pub`-ness, enclosing `impl`/`trait`/`mod`
//!   container and the token range of their body (nested functions get
//!   their own item; closures attribute to the enclosing function);
//! * `trait` items with their method names (the L2 pass derives the
//!   `PersistIo` I/O vocabulary from these).
//!
//! Like the lexer, the parser is *sound for linting*, not a full Rust
//! grammar: it over-approximates where the two differ, and every
//! downstream finding can be silenced with a justified allow.

use crate::lexer::{Tok, TokKind};

/// One name introduced by a `use` declaration.
#[derive(Clone, Debug)]
pub struct UseAlias {
    /// The identifier visible in this file (`Clock`).
    pub alias: String,
    /// The full imported path, `::`-joined (`std::time::Instant`).
    pub target: String,
    /// Line of the `use` declaration (alias lookups skip their own
    /// declaration line so the base token rules keep ownership there).
    pub line: u32,
}

/// One `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Bare name (`helper`).
    pub name: String,
    /// Display name qualified by its container (`StageCache::helper`,
    /// `faults::helper`).
    pub qual: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub container: Option<String>,
    /// Whether the item carries a `pub` (any visibility restriction
    /// included: `pub(crate)` is public enough to be an API root).
    pub is_pub: bool,
    /// 1-based line/column of the function *name*.
    pub line: u32,
    pub col: u32,
    /// Half-open range of body tokens (indices into the comment-free
    /// code token slice, excluding the braces). `None` for bodyless
    /// declarations (trait methods, `extern` items).
    pub body: Option<(usize, usize)>,
}

/// One `trait` item and the methods it declares.
#[derive(Clone, Debug, Default)]
pub struct TraitItem {
    pub name: String,
    pub methods: Vec<String>,
}

/// Everything the parser recovers from one file.
#[derive(Clone, Debug, Default)]
pub struct FileSymbols {
    pub aliases: Vec<UseAlias>,
    pub fns: Vec<FnItem>,
    pub traits: Vec<TraitItem>,
}

impl FileSymbols {
    /// Resolves `ident` through the alias table, skipping the alias's
    /// own declaration line (the base rules already police what a `use`
    /// names; alias resolution polices what the rest of the file does
    /// with it).
    #[must_use]
    pub fn alias_target(&self, ident: &str, line: u32) -> Option<&str> {
        self.aliases
            .iter()
            .find(|a| a.alias == ident && a.line != line)
            .map(|a| a.target.as_str())
    }

    /// The function whose body contains code-token index `idx`, picking
    /// the innermost (latest-starting) body when functions nest.
    #[must_use]
    pub fn enclosing_fn(&self, idx: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (k, f) in self.fns.iter().enumerate() {
            if let Some((start, end)) = f.body {
                if idx >= start && idx < end {
                    let tighter = match best {
                        None => true,
                        Some(b) => {
                            let (bs, _) = self.fns[b].body.unwrap_or((0, usize::MAX));
                            start >= bs
                        }
                    };
                    if tighter {
                        best = Some(k);
                    }
                }
            }
        }
        best
    }
}

/// What kind of scope a `{` opened.
#[derive(Clone, Debug)]
enum ScopeKind {
    Mod(String),
    Impl(String),
    Trait(usize),
    Fn(usize),
    Block,
}

/// Parses the comment-free code token slice of one file.
#[must_use]
pub fn parse(code: &[&Tok]) -> FileSymbols {
    let mut out = FileSymbols::default();
    let mut scopes: Vec<ScopeKind> = Vec::new();
    let mut pending_pub = false;
    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        if t.kind != TokKind::Ident {
            match t.kind {
                TokKind::Punct('{') => scopes.push(ScopeKind::Block),
                TokKind::Punct('}') => close_scope(&mut scopes, &mut out, i),
                _ => {}
            }
            pending_pub = false;
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "pub" => {
                pending_pub = true;
                i += 1;
                // Skip a `pub(crate)` / `pub(in path)` restriction.
                if code.get(i).is_some_and(|t| t.is_punct('(')) {
                    i = skip_balanced(code, i, '(', ')');
                }
                continue;
            }
            // Modifiers between `pub` and the item keyword.
            "unsafe" | "const" | "async" | "extern" | "default" => {
                i += 1;
                continue;
            }
            "use" => {
                i = parse_use(code, i + 1, &mut out);
                pending_pub = false;
                continue;
            }
            "mod" if next_is_ident(code, i) => {
                let name = code[i + 1].text.clone();
                i += 2;
                if code.get(i).is_some_and(|t| t.is_punct('{')) {
                    scopes.push(ScopeKind::Mod(name));
                    i += 1;
                }
                pending_pub = false;
                continue;
            }
            "impl" if item_position(code, i) => {
                let (name, at) = parse_impl_header(code, i + 1);
                i = at;
                if code.get(i).is_some_and(|t| t.is_punct('{')) {
                    scopes.push(ScopeKind::Impl(name));
                    i += 1;
                }
                pending_pub = false;
                continue;
            }
            "trait" if next_is_ident(code, i) => {
                let name = code[i + 1].text.clone();
                let mut j = i + 2;
                while j < code.len() && !code[j].is_punct('{') && !code[j].is_punct(';') {
                    j += 1;
                }
                if code.get(j).is_some_and(|t| t.is_punct('{')) {
                    out.traits.push(TraitItem {
                        name,
                        methods: Vec::new(),
                    });
                    scopes.push(ScopeKind::Trait(out.traits.len() - 1));
                    j += 1;
                }
                i = j;
                pending_pub = false;
                continue;
            }
            "fn" if next_is_ident(code, i) => {
                let name_tok = code[i + 1];
                let name = name_tok.text.clone();
                if let Some(ScopeKind::Trait(tid)) = innermost_item_scope(&scopes) {
                    out.traits[*tid].methods.push(name.clone());
                }
                let container = match innermost_item_scope(&scopes) {
                    Some(ScopeKind::Impl(c)) => Some(c.clone()),
                    Some(ScopeKind::Trait(tid)) => Some(out.traits[*tid].name.clone()),
                    _ => None,
                };
                let qual = match &container {
                    Some(c) => format!("{c}::{name}"),
                    None => {
                        let mods: Vec<&str> = scopes
                            .iter()
                            .filter_map(|s| match s {
                                ScopeKind::Mod(m) => Some(m.as_str()),
                                _ => None,
                            })
                            .collect();
                        if mods.is_empty() {
                            name.clone()
                        } else {
                            format!("{}::{}", mods.join("::"), name)
                        }
                    }
                };
                // Scan the signature to the body `{` or a bodyless `;`.
                let mut j = i + 2;
                let mut paren = 0i32;
                while j < code.len() {
                    match code[j].kind {
                        TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
                        TokKind::Punct(')') | TokKind::Punct(']') => paren -= 1,
                        TokKind::Punct('{') if paren == 0 => break,
                        TokKind::Punct(';') if paren == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let fid = out.fns.len();
                out.fns.push(FnItem {
                    name,
                    qual,
                    container,
                    is_pub: pending_pub,
                    line: name_tok.line,
                    col: name_tok.col,
                    body: None,
                });
                if code.get(j).is_some_and(|t| t.is_punct('{')) {
                    out.fns[fid].body = Some((j + 1, j + 1)); // end patched on close
                    scopes.push(ScopeKind::Fn(fid));
                    j += 1;
                }
                i = j;
                pending_pub = false;
                continue;
            }
            _ => {
                pending_pub = false;
                i += 1;
            }
        }
    }
    // Unterminated scopes (lexer never fails, so neither do we): close
    // every function body at end-of-file.
    while !scopes.is_empty() {
        close_scope(&mut scopes, &mut out, code.len());
    }
    out
}

/// Pops one scope; a function scope records its body end.
fn close_scope(scopes: &mut Vec<ScopeKind>, out: &mut FileSymbols, idx: usize) {
    if let Some(ScopeKind::Fn(fid)) = scopes.pop() {
        if let Some((start, _)) = out.fns[fid].body {
            out.fns[fid].body = Some((start, idx));
        }
    }
}

/// The innermost non-`Block` scope, for container resolution.
fn innermost_item_scope(scopes: &[ScopeKind]) -> Option<&ScopeKind> {
    scopes.iter().rev().find(|s| !matches!(s, ScopeKind::Block))
}

fn next_is_ident(code: &[&Tok], i: usize) -> bool {
    code.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
}

/// Whether `impl` at `i` starts an item (vs `-> impl Trait` / `(impl
/// Trait` in type position): true at a statement boundary.
fn item_position(code: &[&Tok], i: usize) -> bool {
    match i.checked_sub(1).and_then(|p| code.get(p)) {
        None => true,
        Some(prev) => {
            matches!(
                prev.kind,
                TokKind::Punct(';')
                    | TokKind::Punct('{')
                    | TokKind::Punct('}')
                    | TokKind::Punct(']')
            ) || (prev.kind == TokKind::Ident && matches!(prev.text.as_str(), "unsafe" | "default"))
        }
    }
}

/// Parses an `impl` header starting just past the `impl` keyword:
/// returns the self-type name (the last path segment of the type after
/// `for`, or of the inherent type) and the index of the body `{`.
fn parse_impl_header(code: &[&Tok], i: usize) -> (String, usize) {
    let mut name = String::from("?");
    let mut angle = 0i32;
    let mut j = i;
    while j < code.len() {
        let t = code[j];
        match &t.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => {
                // `->` does not close a generic argument list.
                let arrow = j > 0 && code[j - 1].is_punct('-');
                if !arrow {
                    angle = (angle - 1).max(0);
                }
            }
            TokKind::Punct('{') if angle == 0 => return (name, j),
            TokKind::Punct(';') if angle == 0 => return (name, j),
            TokKind::Ident if angle == 0 => match t.text.as_str() {
                "where" => {
                    // Skip the where clause to the body.
                    while j < code.len() && !code[j].is_punct('{') && !code[j].is_punct(';') {
                        j += 1;
                    }
                    return (name, j);
                }
                "for" => name = String::from("?"),
                "dyn" => {}
                other => name = other.to_owned(),
            },
            _ => {}
        }
        j += 1;
    }
    (name, j)
}

/// Skips a balanced `open`...`close` group starting at `i` (which must
/// point at `open`); returns the index just past the matching close.
fn skip_balanced(code: &[&Tok], i: usize, open: char, close: char) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < code.len() {
        if code[j].is_punct(open) {
            depth += 1;
        } else if code[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Parses a `use` declaration starting just past the `use` keyword;
/// returns the index just past the terminating `;`.
fn parse_use(code: &[&Tok], i: usize, out: &mut FileSymbols) -> usize {
    let mut j = i;
    let mut prefix: Vec<String> = Vec::new();
    parse_use_tree(code, &mut j, &mut prefix, out);
    while j < code.len() && !code[j].is_punct(';') {
        j += 1;
    }
    j.saturating_add(1)
}

/// Parses one use-tree node (`a::b`, `a::{..}`, `a as b`, `*`),
/// appending aliases to `out`. `prefix` holds the segments parsed so
/// far on this branch.
fn parse_use_tree(code: &[&Tok], j: &mut usize, prefix: &mut Vec<String>, out: &mut FileSymbols) {
    let depth_reset = prefix.len();
    // Whether this element already bound an explicit `as Alias` (which
    // suppresses the implicit last-segment import).
    let mut renamed = false;
    while let Some(t) = code.get(*j) {
        match &t.kind {
            TokKind::Ident => {
                if t.text == "as" {
                    // `path as Alias`
                    if let Some(alias_tok) = code.get(*j + 1) {
                        if alias_tok.kind == TokKind::Ident {
                            push_alias(out, &alias_tok.text, prefix, alias_tok.line);
                            renamed = true;
                            *j += 2;
                            continue;
                        }
                    }
                    *j += 1;
                } else {
                    prefix.push(t.text.clone());
                    *j += 1;
                }
            }
            TokKind::Punct(':') => {
                *j += 1; // both colons of `::`
            }
            TokKind::Punct('{') => {
                // A group: parse each comma-separated element against
                // the current prefix. Each recursive call emits and
                // truncates its own element.
                *j += 1;
                loop {
                    parse_use_tree(code, j, prefix, out);
                    match code.get(*j).map(|t| &t.kind) {
                        Some(TokKind::Punct(',')) => {
                            *j += 1;
                        }
                        Some(TokKind::Punct('}')) => {
                            *j += 1;
                            break;
                        }
                        _ => break,
                    }
                }
                prefix.truncate(depth_reset);
                return;
            }
            TokKind::Punct('}') | TokKind::Punct(',') | TokKind::Punct(';') => {
                // End of this element: a bare `a::b` import aliases its
                // last segment (unless `as` already renamed it).
                if prefix.len() > depth_reset && !renamed {
                    emit_plain(out, prefix, code, *j);
                }
                prefix.truncate(depth_reset);
                return;
            }
            TokKind::Punct('*') => {
                // Glob: nothing nameable.
                *j += 1;
                prefix.truncate(depth_reset);
                return;
            }
            _ => {
                *j += 1;
            }
        }
    }
    prefix.truncate(depth_reset);
}

/// Emits the implicit alias of a plain import: `use std::time::Instant;`
/// makes `Instant` mean `std::time::Instant`.
fn emit_plain(out: &mut FileSymbols, prefix: &[String], code: &[&Tok], j: usize) {
    let Some(last) = prefix.last() else { return };
    if last == "self" {
        // `use a::b::{self}`: `b` means `a::b`.
        if prefix.len() >= 2 {
            let alias = prefix[prefix.len() - 2].clone();
            let target = prefix[..prefix.len() - 1].to_vec();
            let line = code.get(j.saturating_sub(1)).map_or(0, |t| t.line);
            push_alias(out, &alias, &target, line);
        }
        return;
    }
    let line = code.get(j.saturating_sub(1)).map_or(0, |t| t.line);
    let alias = last.clone();
    push_alias(out, &alias, prefix, line);
}

fn push_alias(out: &mut FileSymbols, alias: &str, segments: &[String], line: u32) {
    if segments.is_empty() {
        return;
    }
    out.aliases.push(UseAlias {
        alias: alias.to_owned(),
        target: segments.join("::"),
        line,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn symbols(src: &str) -> FileSymbols {
        let toks = lex(src);
        let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
        parse(&code)
    }

    #[test]
    fn use_alias_and_plain_imports() {
        let s = symbols(
            "use std::time::Instant as Clock;\n\
             use std::collections::BTreeMap;\n\
             use std::sync::{Arc, Mutex as Mx};\n",
        );
        let find = |a: &str| {
            s.aliases
                .iter()
                .find(|e| e.alias == a)
                .map(|e| e.target.clone())
        };
        assert_eq!(find("Clock"), Some("std::time::Instant".to_owned()));
        assert_eq!(
            find("BTreeMap"),
            Some("std::collections::BTreeMap".to_owned())
        );
        assert_eq!(find("Arc"), Some("std::sync::Arc".to_owned()));
        assert_eq!(find("Mx"), Some("std::sync::Mutex".to_owned()));
    }

    #[test]
    fn alias_lookup_skips_its_own_declaration_line() {
        let s = symbols("use std::time::Instant as Clock;\nfn f() { Clock::now(); }\n");
        assert!(s.alias_target("Clock", 1).is_none());
        assert_eq!(s.alias_target("Clock", 2), Some("std::time::Instant"));
    }

    #[test]
    fn fns_record_container_and_visibility() {
        let s = symbols(
            "pub fn free() {}\n\
             struct S;\n\
             impl S { pub(crate) fn method(&self) {} fn private(&self) {} }\n\
             pub trait T { fn decl(&self); fn with_default(&self) {} }\n",
        );
        let f = |n: &str| s.fns.iter().find(|f| f.name == n).expect(n);
        assert!(f("free").is_pub && f("free").container.is_none());
        assert_eq!(f("method").qual, "S::method");
        assert!(f("method").is_pub);
        assert!(!f("private").is_pub);
        assert_eq!(f("decl").container.as_deref(), Some("T"));
        assert!(f("decl").body.is_none());
        assert!(f("with_default").body.is_some());
    }

    #[test]
    fn trait_methods_are_collected() {
        let s = symbols(
            "pub trait PersistIo { fn write_tmp(&self); fn sync_dir(&self); }\n\
             pub trait Probe: Send { fn exchange(&self) -> bool; }\n",
        );
        let t = |n: &str| s.traits.iter().find(|t| t.name == n).expect(n);
        assert_eq!(t("PersistIo").methods, vec!["write_tmp", "sync_dir"]);
        assert_eq!(t("Probe").methods, vec!["exchange"]);
    }

    #[test]
    fn nested_items_scope_correctly() {
        let s = symbols(
            "mod outer {\n\
               pub fn api() {\n\
                 fn inner() {}\n\
                 let f = |x: u32| { helper(x) };\n\
                 f(1);\n\
               }\n\
               struct T;\n\
               impl T { fn m(&self) { impl T { } } }\n\
             }\n",
        );
        let api = s.fns.iter().find(|f| f.name == "api").expect("api");
        assert_eq!(api.qual, "outer::api");
        let inner = s.fns.iter().find(|f| f.name == "inner").expect("inner");
        // The nested fn's body nests inside the outer body.
        let (as_, ae) = api.body.expect("api body");
        let (is_, ie) = inner.body.expect("inner body");
        assert!(as_ < is_ && ie <= ae);
        // A token inside the closure body attributes to `api`, not to a
        // phantom closure item.
        let m = s.fns.iter().find(|f| f.name == "m").expect("m");
        assert_eq!(m.container.as_deref(), Some("T"));
    }

    #[test]
    fn impl_in_return_position_is_not_an_item() {
        let s = symbols("fn f() -> impl Iterator<Item = u32> { (0..3).map(|x| x) }\n");
        assert_eq!(s.fns.len(), 1);
        assert!(s.fns[0].container.is_none());
    }

    #[test]
    fn impl_trait_for_type_names_the_type() {
        let s = symbols(
            "struct Wrapper;\n\
             impl std::fmt::Display for Wrapper {\n\
               fn fmt(&self) -> bool { true }\n\
             }\n",
        );
        let f = s.fns.iter().find(|f| f.name == "fmt").expect("fmt");
        assert_eq!(f.container.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn enclosing_fn_picks_the_innermost_body() {
        let src = "fn outer() { fn inner() { mark(); } inner(); }\n";
        let toks = lex(src);
        let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
        let s = parse(&code);
        let mark_idx = code
            .iter()
            .position(|t| t.is_ident("mark"))
            .expect("mark token");
        let owner = s.enclosing_fn(mark_idx).expect("owner");
        assert_eq!(s.fns[owner].name, "inner");
    }
}
