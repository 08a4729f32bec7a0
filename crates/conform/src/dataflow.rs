//! Intraprocedural dataflow layer: rules R16–R19.
//!
//! The lexical layer sees lines, the structural layer sees call edges;
//! neither sees *paths*. This module builds small, purpose-specific
//! def-use and obligation chains directly on the token trees of
//! [`crate::syntax`] and checks the four invariants that PR 5 (snapshot /
//! resume) and PR 6 (pooled allocation-free rounds) introduced but nothing
//! machine-enforced:
//!
//! * **R16 pool pairing** — every `RoundBuffers::take_*` /
//!   `take_arena_parts` call acquires an obligation that must be discharged
//!   by the matching `retire_*` / `retire` before any early `return` / `?`
//!   exit, or escape into a return value, struct literal, or field store.
//! * **R17 snapshot parity** — for each `impl Execution`, the ordered
//!   sequence of `SnapshotWriter` calls in `save` must mirror the ordered
//!   sequence of `read_*` / `expect_*` calls in `restore` (same widths,
//!   same order, same identity expressions for `expect_*` fields).
//! * **R18 observer purity** — methods of `RoundObserver` impls must not
//!   reach `RoundLedger` charging or `Round` mutation through the call
//!   graph: observers are diagnostics-only.
//! * **R19 shard isolation** — closures handed to the `par_nodes` shard
//!   helpers may only index captured state through their shard-provided
//!   slice arguments.
//!
//! All four analyses are deliberately *linear* approximations: trees are
//! walked in textual order, branches are not path-split (a discharge in one
//! `match` arm counts for all arms), and helper inlining stops at depth
//! one. Every approximation errs toward false negatives; DESIGN.md §12
//! documents the known shapes.

use crate::callgraph::{CallGraph, FnNode};
use crate::diag::Finding;
use crate::rules::in_sim_core;
use crate::scanner::SourceFile;
use crate::syntax::{
    group_of, ident_of, line_of, punct_of, FileSyntax, FnSpan, Group, Tok, Token, Tree,
};
use std::collections::BTreeSet;

/// Runs the dataflow rules over the parsed workspace.
pub fn check(
    sources: &[SourceFile],
    syntaxes: &[FileSyntax],
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
) {
    check_r16(syntaxes, findings);
    check_r17(sources, syntaxes, findings);
    check_r18(syntaxes, graph, findings);
    check_r19(syntaxes, findings);
}

// ---------------------------------------------------------------------------
// Shared token-tree helpers
// ---------------------------------------------------------------------------

/// A call site located inside a sibling slice, turbofish-aware (unlike
/// [`crate::syntax::calls_in`], which skips `take_outbox::<M>(…)` calls).
pub(crate) struct CallAt<'a> {
    pub(crate) name: &'a str,
    /// True for `.name(…)` method calls; `recv` is then the identifier
    /// directly before the dot, if there is one.
    pub(crate) method: bool,
    pub(crate) recv: Option<&'a str>,
    pub(crate) args: &'a Group,
    pub(crate) line: usize,
    /// Index just past the argument group.
    pub(crate) after: usize,
}

/// Matches `ident [::<…>] (args)` at `i`, rejecting `fn` definitions,
/// keywords, and macro names.
pub(crate) fn call_at<'a>(trees: &'a [Tree], i: usize) -> Option<CallAt<'a>> {
    let name = ident_of(&trees[i])?;
    if crate::syntax::is_keyword(name) || name.starts_with('\'') {
        return None;
    }
    if i > 0 && ident_of(&trees[i - 1]) == Some("fn") {
        return None;
    }
    let mut j = i + 1;
    // Turbofish: `::<…>` between the name and the argument list.
    if punct_of(trees.get(j)?) == Some(':') && punct_of(trees.get(j + 1)?) == Some(':') {
        if punct_of(trees.get(j + 2)?) != Some('<') {
            return None; // a path segment, not a call
        }
        j = skip_angles(trees, j + 2);
    }
    let args = match trees.get(j) {
        Some(Tree::Group(g)) if g.delim == '(' => g,
        _ => return None,
    };
    let method = i > 0 && punct_of(&trees[i - 1]) == Some('.');
    let recv = if method && i >= 2 {
        ident_of(&trees[i - 2])
    } else {
        None
    };
    Some(CallAt {
        name,
        method,
        recv,
        args,
        line: line_of(&trees[i]),
        after: j + 1,
    })
}

/// Local copy of the syntax layer's generic-run skipper (it is private
/// there): returns the index just past the `>` matching the `<` at `i`.
fn skip_angles(trees: &[Tree], mut i: usize) -> usize {
    let mut depth = 0i32;
    let mut prev = ' ';
    while i < trees.len() {
        match punct_of(&trees[i]) {
            Some('<') => depth += 1,
            Some('>') if prev != '-' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        prev = punct_of(&trees[i]).unwrap_or(' ');
        i += 1;
    }
    i
}

/// Renders trees as a normalized single-line expression (tokens joined by
/// one space, string/char literals as `""`). Used to compare `save`-side
/// write arguments against `restore`-side `expect_*` expressions.
pub(crate) fn render(trees: &[Tree]) -> String {
    let mut out = String::new();
    render_into(trees, &mut out);
    out.trim().to_string()
}

fn render_into(trees: &[Tree], out: &mut String) {
    for t in trees {
        if !out.is_empty() && !out.ends_with(' ') {
            out.push(' ');
        }
        match t {
            Tree::Leaf(Token { tok, .. }) => match tok {
                Tok::Ident(s) => out.push_str(s),
                Tok::Punct(c) => out.push(*c),
                Tok::Num(s) => out.push_str(s),
                Tok::Lit => out.push_str("\"\""),
            },
            Tree::Group(g) => {
                out.push(g.delim);
                render_into(&g.children, out);
                out.push(' ');
                out.push(match g.delim {
                    '(' => ')',
                    '[' => ']',
                    _ => '}',
                });
            }
        }
    }
}

/// True if `name` occurs as an identifier anywhere under `trees`.
pub(crate) fn contains_ident(trees: &[Tree], name: &str) -> bool {
    trees.iter().any(|t| match t {
        Tree::Leaf(_) => ident_of(t) == Some(name),
        Tree::Group(g) => contains_ident(&g.children, name),
    })
}

/// Splits a sibling slice on top-level commas.
pub(crate) fn split_commas(trees: &[Tree]) -> Vec<&[Tree]> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, t) in trees.iter().enumerate() {
        if punct_of(t) == Some(',') {
            out.push(&trees[start..i]);
            start = i + 1;
        }
    }
    if start < trees.len() {
        out.push(&trees[start..]);
    }
    out
}

/// Binding identifiers of a pattern slice: every identifier before the
/// first top-level `:` (type ascription), recursing into tuple/struct
/// pattern groups, excluding keywords (`mut`, `ref`, …) and `_`.
pub(crate) fn pattern_idents(trees: &[Tree], out: &mut Vec<String>) {
    let upto = trees
        .iter()
        .position(|t| punct_of(t) == Some(':'))
        .unwrap_or(trees.len());
    for t in &trees[..upto] {
        match t {
            Tree::Leaf(_) => {
                if let Some(id) = ident_of(t) {
                    if !crate::syntax::is_keyword(id) && id != "_" && !id.starts_with('\'') {
                        out.push(id.to_string());
                    }
                }
            }
            Tree::Group(g) => {
                for seg in split_commas(&g.children) {
                    pattern_idents(seg, out);
                }
            }
        }
    }
}

/// A `impl Trait for Type { … }` block located by token scan (the syntax
/// layer records the self type on each `FnSpan` but drops the trait name).
pub(crate) struct TraitImpl {
    pub(crate) self_type: String,
    pub(crate) open_line: usize,
    pub(crate) close_line: usize,
}

pub(crate) fn trait_impls(fs: &FileSyntax, trait_name: &str) -> Vec<TraitImpl> {
    let mut out = Vec::new();
    scan_trait_impls(&fs.roots, trait_name, &mut out);
    out
}

fn scan_trait_impls(trees: &[Tree], trait_name: &str, out: &mut Vec<TraitImpl>) {
    let mut i = 0;
    while i < trees.len() {
        if ident_of(&trees[i]) == Some("impl") {
            let mut j = i + 1;
            if punct_of(trees.get(j).unwrap_or(&trees[i])) == Some('<') {
                j = skip_angles(trees, j);
            }
            let mut saw_trait = false;
            let mut after_for = false;
            let mut in_where = false;
            let mut ty: Option<String> = None;
            while j < trees.len() {
                if let Some(g) = group_of(&trees[j]) {
                    if g.delim == '{' {
                        if saw_trait && after_for {
                            if let Some(t) = ty.take() {
                                out.push(TraitImpl {
                                    self_type: t,
                                    open_line: g.open_line,
                                    close_line: g.close_line,
                                });
                            }
                        }
                        break;
                    }
                    j += 1;
                    continue;
                }
                if punct_of(&trees[j]) == Some('<') {
                    j = skip_angles(trees, j);
                    continue;
                }
                match ident_of(&trees[j]) {
                    Some(id) if id == trait_name && !after_for => saw_trait = true,
                    Some("for") => after_for = true,
                    // A `where` clause ends the self-type position: bound
                    // idents after it must not overwrite the type name.
                    Some("where") => in_where = true,
                    Some(id) if after_for && !in_where && !crate::syntax::is_keyword(id) => {
                        ty = Some(id.to_string());
                    }
                    _ => {}
                }
                if punct_of(&trees[j]) == Some(';') {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else if let Some(g) = group_of(&trees[i]) {
            scan_trait_impls(&g.children, trait_name, out);
            i += 1;
        } else {
            i += 1;
        }
    }
}

/// Parameter names of `f`'s signature, in order, excluding `self` — found
/// by walking back from the body group to the `fn` keyword and reading the
/// first paren group after the name.
pub(crate) fn fn_param_names(fs: &FileSyntax, f: &FnSpan) -> Vec<String> {
    let mut trees: &[Tree] = &fs.roots;
    for &idx in &f.path[..f.path.len().saturating_sub(1)] {
        match trees.get(idx) {
            Some(Tree::Group(g)) => trees = &g.children,
            _ => return Vec::new(),
        }
    }
    let Some(&body_idx) = f.path.last() else {
        return Vec::new();
    };
    let Some(fn_kw) = trees[..body_idx.min(trees.len())]
        .iter()
        .rposition(|t| ident_of(t) == Some("fn"))
    else {
        return Vec::new();
    };
    let mut j = fn_kw + 1;
    while j < body_idx {
        if let Some(g) = group_of(&trees[j]) {
            if g.delim == '(' {
                let mut out = Vec::new();
                for seg in split_commas(&g.children) {
                    if contains_ident(seg, "self") {
                        continue;
                    }
                    pattern_idents(seg, &mut out);
                }
                return out;
            }
        }
        if punct_of(&trees[j]) == Some('<') {
            j = skip_angles(trees, j);
            continue;
        }
        j += 1;
    }
    Vec::new()
}

// ---------------------------------------------------------------------------
// R16 — pool take/retire obligation pairing
// ---------------------------------------------------------------------------

const TAKE_PAIRS: [(&str, &str); 4] = [
    ("take_sparse", "retire_sparse"),
    ("take_outbox", "retire_outbox"),
    ("take_arena_parts", "retire"),
    ("take_frame", "retire_frame"),
];

/// An open pooled-buffer obligation: a binding that holds a taken buffer
/// and has not yet been retired or moved out of the function.
struct Obligation {
    binding: String,
    take: &'static str,
    retire: &'static str,
    line: usize,
}

fn check_r16(syntaxes: &[FileSyntax], findings: &mut Vec<Finding>) {
    for fs in syntaxes {
        if !in_sim_core(&fs.effective) {
            continue;
        }
        for f in &fs.fns {
            if f.is_test {
                continue;
            }
            let mut open: Vec<Obligation> = Vec::new();
            r16_walk(fs.body_of(f), &mut open, &fs.effective, &f.name, findings);
            for ob in open {
                findings.push(Finding::new(
                    &fs.effective,
                    ob.line,
                    "R16",
                    format!(
                        "`{}` takes a pooled buffer via `{}` (binding `{}`) that is never \
                         retired with `{}` or moved out: the buffer leaks from the pool \
                         and the next round re-allocates",
                        f.name, ob.take, ob.binding, ob.retire
                    ),
                ));
            }
        }
    }
}

/// Linear in-order walk emitting take / retire / escape / exit events.
fn r16_walk(
    trees: &[Tree],
    open: &mut Vec<Obligation>,
    path: &str,
    fn_name: &str,
    findings: &mut Vec<Finding>,
) {
    let mut i = 0;
    while i < trees.len() {
        // Macro bodies are opaque, as everywhere else in the linter.
        if let Some(g) = group_of(&trees[i]) {
            if i > 0 && punct_of(&trees[i - 1]) == Some('!') {
                i += 1;
                continue;
            }
            // Struct literal `Type { … }` moving a binding discharges it.
            if i > 0 {
                if let Some(prev) = ident_of(&trees[i - 1]) {
                    if g.delim == '{'
                        && prev.chars().next().is_some_and(char::is_uppercase)
                        && !open.is_empty()
                    {
                        open.retain(|ob| !contains_ident(&g.children, &ob.binding));
                    }
                }
            }
            r16_walk(&g.children, open, path, fn_name, findings);
            i += 1;
            continue;
        }
        if let Some(call) = call_at(trees, i) {
            if let Some(&(take, retire)) = TAKE_PAIRS.iter().find(|(t, _)| *t == call.name) {
                let mut bindings = Vec::new();
                if let Some(pat) = let_pattern_before(trees, i) {
                    pattern_idents(pat, &mut bindings);
                }
                for b in bindings {
                    open.push(Obligation {
                        binding: b,
                        take,
                        retire,
                        line: call.line,
                    });
                }
                // An unbound take (argument / field-value / return position)
                // escapes immediately: ownership moved at the call site.
                i = call.after;
                continue;
            }
            if call.name.starts_with("retire") {
                open.retain(|ob| {
                    !((call.name == ob.retire || call.name == "retire")
                        && contains_ident(&call.args.children, &ob.binding))
                });
            }
        }
        if ident_of(&trees[i]) == Some("return") && !open.is_empty() {
            // The returned expression moves its bindings out; anything else
            // still open leaks past this exit.
            let stmt_end = trees[i + 1..]
                .iter()
                .position(|t| punct_of(t) == Some(';'))
                .map_or(trees.len(), |p| i + 1 + p);
            let returned = &trees[i + 1..stmt_end];
            open.retain(|ob| !contains_ident(returned, &ob.binding));
            flag_exits(open, path, fn_name, line_of(&trees[i]), "return", findings);
        }
        if punct_of(&trees[i]) == Some('?') && !open.is_empty() && is_try_suffix(trees, i) {
            flag_exits(open, path, fn_name, line_of(&trees[i]), "`?`", findings);
        }
        // Plain field store `… = binding ;` moves the binding out.
        if punct_of(&trees[i]) == Some('=')
            && punct_of(trees.get(i + 1).unwrap_or(&trees[i])) != Some('=')
            && (i == 0 || !"=!<>+-*/%&|^".contains(punct_of(&trees[i - 1]).unwrap_or(' ')))
        {
            if let Some(rhs) = trees.get(i + 1).and_then(ident_of) {
                let ends = trees.get(i + 2).is_none_or(|t| punct_of(t) == Some(';'));
                if ends {
                    open.retain(|ob| ob.binding != rhs);
                }
            }
        }
        i += 1;
    }
}

/// Drains all open obligations into findings at an early-exit site.
fn flag_exits(
    open: &mut Vec<Obligation>,
    path: &str,
    fn_name: &str,
    line: usize,
    exit: &str,
    findings: &mut Vec<Finding>,
) {
    for ob in open.drain(..) {
        findings.push(Finding::new(
            path,
            line,
            "R16",
            format!(
                "`{}` exits via {exit} while `{}` (taken with `{}` at line {}) is still \
                 unretired: every exit path must `{}` the buffer or move it out first",
                fn_name, ob.binding, ob.take, ob.line, ob.retire
            ),
        ));
    }
}

/// True if the `?` at `i` is the try operator (postfix on an expression),
/// not a `?Sized` bound.
fn is_try_suffix(trees: &[Tree], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    match &trees[i - 1] {
        Tree::Group(_) => true,
        t => {
            matches!(
                t,
                Tree::Leaf(Token {
                    tok: Tok::Ident(_) | Tok::Num(_) | Tok::Lit,
                    ..
                })
            ) && ident_of(t).is_none_or(|s| !crate::syntax::is_keyword(s))
        }
    }
}

/// If the call at `i` sits on the right-hand side of a `let` in the same
/// statement, returns the pattern slice between `let` and `=`.
fn let_pattern_before(trees: &[Tree], i: usize) -> Option<&[Tree]> {
    let mut j = i;
    let mut eq: Option<usize> = None;
    while j > 0 {
        j -= 1;
        match punct_of(&trees[j]) {
            Some(';') => return None,
            Some('=') if eq.is_none() => eq = Some(j),
            _ => {}
        }
        if ident_of(&trees[j]) == Some("let") {
            return eq.map(|e| &trees[j + 1..e]);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// R17 — save/restore snapshot parity
// ---------------------------------------------------------------------------

/// One element of a save/restore operation sequence.
#[derive(Clone)]
pub(crate) enum OpNode {
    /// A writer/reader call: `kind` is the name with its `write_` /
    /// `read_` / `expect_` prefix stripped, so the two sides compare
    /// generically. `expr` carries the written / expected value expression
    /// where one exists; `field` the `expect_*` field name recovered from
    /// the raw source line.
    Op {
        raw: String,
        kind: String,
        expect: bool,
        expr: Option<String>,
        field: Option<String>,
        line: usize,
    },
    /// A helper that consumes the writer/reader wholesale (`e.save(w)`):
    /// matches any `Opaque` on the other side.
    Opaque { line: usize },
    /// Ops inside a `for`/`while`/`loop` body.
    Loop { body: Vec<OpNode>, line: usize },
    /// Ops split across `match` / `if` arms.
    Branch { arms: Vec<Vec<OpNode>>, line: usize },
}

impl OpNode {
    fn line(&self) -> usize {
        match self {
            OpNode::Op { line, .. }
            | OpNode::Opaque { line }
            | OpNode::Loop { line, .. }
            | OpNode::Branch { line, .. } => *line,
        }
    }

    fn describe(&self) -> String {
        match self {
            OpNode::Op { raw, field, .. } => match field {
                Some(name) => format!("`{raw}` (field \"{name}\")"),
                None => format!("`{raw}`"),
            },
            OpNode::Opaque { .. } => "a writer/reader hand-off".to_string(),
            OpNode::Loop { .. } => "a loop of snapshot ops".to_string(),
            OpNode::Branch { .. } => "a conditional snapshot block".to_string(),
        }
    }
}

fn check_r17(sources: &[SourceFile], syntaxes: &[FileSyntax], findings: &mut Vec<Finding>) {
    for (fi, fs) in syntaxes.iter().enumerate() {
        let impls = trait_impls(fs, "Execution");
        if impls.is_empty() {
            continue;
        }
        let src = &sources[fi];
        for im in &impls {
            let find_fn = |name: &str| {
                fs.fns.iter().find(|f| {
                    f.name == name
                        && !f.is_test
                        && f.self_type.as_deref() == Some(im.self_type.as_str())
                        && f.start_line >= im.open_line
                        && f.end_line <= im.close_line
                })
            };
            let (Some(save), Some(restore)) = (find_fn("save"), find_fn("restore")) else {
                continue;
            };
            let save_seq = normalize(extract_ops(
                fs.body_of(save),
                &fn_param_names(fs, save),
                fs,
                src,
                1,
            ));
            let restore_seq = normalize(extract_ops(
                fs.body_of(restore),
                &fn_param_names(fs, restore),
                fs,
                src,
                1,
            ));
            if let Some((line, msg)) = diff_seqs(&save_seq, &restore_seq, restore.start_line) {
                findings.push(Finding::new(
                    &fs.effective,
                    line,
                    "R17",
                    format!(
                        "`impl Execution for {}`: save/restore snapshot sequences disagree — \
                         {msg}; a resumed run would read the wrong bytes (or fail with \
                         `SnapshotError::Mismatch` at best)",
                        im.self_type
                    ),
                ));
            }
        }
    }
}

/// Extracts the ordered writer/reader op sequence from a fn body.
/// `handles` are the bindings that carry the `SnapshotWriter` /
/// `SnapshotReader` (the non-self params); `depth` bounds same-file helper
/// inlining.
pub(crate) fn extract_ops(
    trees: &[Tree],
    handles: &[String],
    fs: &FileSyntax,
    src: &SourceFile,
    depth: usize,
) -> Vec<OpNode> {
    let mut out = Vec::new();
    extract_into(trees, handles, fs, src, depth, &mut out);
    out
}

fn extract_into(
    trees: &[Tree],
    handles: &[String],
    fs: &FileSyntax,
    src: &SourceFile,
    depth: usize,
    out: &mut Vec<OpNode>,
) {
    let mut pending_loop = false;
    let mut pending_branch = false; // `if` or `match` header seen
    let mut i = 0;
    while i < trees.len() {
        match &trees[i] {
            Tree::Leaf(t) => {
                if let Tok::Ident(s) = &t.tok {
                    match s.as_str() {
                        "for" | "while" | "loop" => pending_loop = true,
                        "if" | "match" => pending_branch = true,
                        _ => {}
                    }
                }
                if t.tok == Tok::Punct(';') {
                    pending_loop = false;
                    pending_branch = false;
                }
            }
            Tree::Group(g) => {
                if i > 0 && punct_of(&trees[i - 1]) == Some('!') {
                    i += 1;
                    continue; // macro body
                }
                if g.delim == '{' && pending_loop {
                    pending_loop = false;
                    pending_branch = false;
                    let body = extract_ops(&g.children, handles, fs, src, depth);
                    out.push(OpNode::Loop {
                        body,
                        line: g.open_line,
                    });
                    i += 1;
                    continue;
                }
                if g.delim == '{' && pending_branch {
                    pending_branch = false;
                    let mut arms = Vec::new();
                    if group_is_match_body(&g.children) {
                        arms = split_match_arms(&g.children, handles, fs, src, depth);
                    } else {
                        // `if` arm; chase `else` / `else if` blocks.
                        arms.push(extract_ops(&g.children, handles, fs, src, depth));
                        let mut j = i + 1;
                        loop {
                            if ident_of(trees.get(j).unwrap_or(&trees[i])) != Some("else") {
                                break;
                            }
                            // `else {` or `else if cond {` — find the block.
                            let mut k = j + 1;
                            while k < trees.len() {
                                if let Some(bg) = group_of(&trees[k]) {
                                    if bg.delim == '{' {
                                        break;
                                    }
                                }
                                k += 1;
                            }
                            let Some(bg) = trees.get(k).and_then(group_of) else {
                                break;
                            };
                            arms.push(extract_ops(&bg.children, handles, fs, src, depth));
                            j = k + 1;
                        }
                        if arms.len() == 1 {
                            arms.push(Vec::new()); // implicit empty else
                        }
                        out.push(OpNode::Branch {
                            arms,
                            line: g.open_line,
                        });
                        i = j;
                        continue;
                    }
                    out.push(OpNode::Branch {
                        arms,
                        line: g.open_line,
                    });
                    i += 1;
                    continue;
                }
                // Any other group: plain recursion, in order. Only a brace
                // group consumes pending loop/branch headers (`for x in
                // foo(y) { … }` keeps its pending flag across `(y)`).
                if g.delim == '{' {
                    pending_loop = false;
                    pending_branch = false;
                }
                extract_into(&g.children, handles, fs, src, depth, out);
                i += 1;
                continue;
            }
        }
        if let Some(call) = call_at(trees, i) {
            let on_handle = call.recv.is_some_and(|r| handles.iter().any(|h| h == r));
            let prefix = ["write_", "read_", "expect_"]
                .iter()
                .find(|p| call.name.starts_with(**p))
                .copied();
            if on_handle {
                if let Some(prefix) = prefix {
                    let expect = prefix == "expect_";
                    let args = split_commas(&call.args.children);
                    let expr = if expect {
                        args.get(1).copied().map(render)
                    } else if prefix == "write_" && !call.args.children.is_empty() {
                        Some(render(&call.args.children))
                    } else {
                        None
                    };
                    let field = if expect {
                        quoted_on_line(src, call.line)
                    } else {
                        None
                    };
                    out.push(OpNode::Op {
                        raw: call.name.to_string(),
                        kind: call.name[prefix.len()..].to_string(),
                        expect,
                        expr,
                        field,
                        line: call.line,
                    });
                } else {
                    // Unknown method on the writer/reader itself.
                    out.push(OpNode::Opaque { line: call.line });
                }
                i = call.after;
                continue;
            }
            let handle_in_args = handles
                .iter()
                .any(|h| contains_ident(&call.args.children, h));
            if handle_in_args && !args_contain_ops(&call.args.children, handles) {
                // The handle is passed on without direct ops: inline a
                // same-file helper one level, otherwise mark opaque.
                if !call.method && depth > 0 {
                    if let Some(helper) =
                        fs.fns.iter().find(|f2| f2.name == call.name && !f2.is_test)
                    {
                        let helper_handles = fn_param_names(fs, helper);
                        extract_into(fs.body_of(helper), &helper_handles, fs, src, depth - 1, out);
                        i = call.after;
                        continue;
                    }
                }
                out.push(OpNode::Opaque { line: call.line });
                i = call.after;
                continue;
            }
            // Plain call: fall through so the argument group is recursed
            // like any other (nested `r.read_u64()?` inside `seek(…)`).
        }
        i += 1;
    }
}

/// True if a `{` group body is a `match` body (contains a top-level `=>`).
fn group_is_match_body(children: &[Tree]) -> bool {
    children
        .windows(2)
        .any(|w| punct_of(&w[0]) == Some('=') && punct_of(&w[1]) == Some('>'))
}

/// Splits a match body into per-arm op sequences. Patterns (everything
/// before each `=>`) are skipped; arm bodies are either the brace group
/// right after the arrow or the expression up to the next top-level comma.
fn split_match_arms(
    children: &[Tree],
    handles: &[String],
    fs: &FileSyntax,
    src: &SourceFile,
    depth: usize,
) -> Vec<Vec<OpNode>> {
    let mut arms = Vec::new();
    let mut i = 0;
    while i < children.len() {
        // Find the next `=>`.
        let Some(arrow) = (i..children.len().saturating_sub(1)).find(|&k| {
            punct_of(&children[k]) == Some('=') && punct_of(&children[k + 1]) == Some('>')
        }) else {
            break;
        };
        let body_start = arrow + 2;
        match children.get(body_start) {
            Some(Tree::Group(g)) if g.delim == '{' => {
                arms.push(extract_ops(&g.children, handles, fs, src, depth));
                i = body_start + 1;
            }
            _ => {
                let end = (body_start..children.len())
                    .find(|&k| punct_of(&children[k]) == Some(','))
                    .unwrap_or(children.len());
                arms.push(extract_ops(
                    &children[body_start..end],
                    handles,
                    fs,
                    src,
                    depth,
                ));
                i = end + 1;
            }
        }
    }
    arms
}

/// True if any `handle.write_* / read_* / expect_*` call occurs under
/// `trees` — used to tell "passes the reader on" from "consumes a value
/// read inline" (`self.cursor.seek(r.read_u64()?)`).
fn args_contain_ops(trees: &[Tree], handles: &[String]) -> bool {
    for (i, t) in trees.iter().enumerate() {
        if let Some(g) = group_of(t) {
            if args_contain_ops(&g.children, handles) {
                return true;
            }
            continue;
        }
        if let Some(name) = ident_of(t) {
            if (name.starts_with("write_")
                || name.starts_with("read_")
                || name.starts_with("expect_"))
                && i >= 2
                && punct_of(&trees[i - 1]) == Some('.')
                && ident_of(&trees[i - 2]).is_some_and(|r| handles.iter().any(|h| h == r))
            {
                return true;
            }
        }
    }
    false
}

/// The first `"…"`-quoted string on a raw source line (the scanner blanks
/// string contents in the code channel, so `expect_*` field names are
/// recovered from the raw text).
fn quoted_on_line(src: &SourceFile, line: usize) -> Option<String> {
    let raw = &src.lines.get(line.checked_sub(1)?)?.raw;
    let start = raw.find('"')? + 1;
    let end = start + raw[start..].find('"')?;
    Some(raw[start..end].to_string())
}

/// Drops empty loops/branches and collapses branches whose arms agree.
pub(crate) fn normalize(nodes: Vec<OpNode>) -> Vec<OpNode> {
    let mut out = Vec::new();
    for n in nodes {
        match n {
            OpNode::Op { .. } | OpNode::Opaque { .. } => out.push(n),
            OpNode::Loop { body, line } => {
                let body = normalize(body);
                if !body.is_empty() {
                    out.push(OpNode::Loop { body, line });
                }
            }
            OpNode::Branch { arms, line } => {
                let arms: Vec<Vec<OpNode>> = arms.into_iter().map(normalize).collect();
                if arms.iter().all(Vec::is_empty) {
                    continue;
                }
                if arms.len() > 1 && arms.windows(2).all(|w| seq_struct_eq(&w[0], &w[1])) {
                    // All arms perform the same op sequence: collapse,
                    // dropping expressions that differ across arms (the
                    // dispatcher writes `0` in one arm, `1` in the other).
                    out.extend(merge_arms(&arms));
                } else {
                    out.push(OpNode::Branch { arms, line });
                }
            }
        }
    }
    out
}

fn seq_struct_eq(a: &[OpNode], b: &[OpNode]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| node_struct_eq(x, y))
}

fn node_struct_eq(a: &OpNode, b: &OpNode) -> bool {
    match (a, b) {
        (OpNode::Op { kind: ka, .. }, OpNode::Op { kind: kb, .. }) => ka == kb,
        (OpNode::Opaque { .. }, OpNode::Opaque { .. }) => true,
        (OpNode::Loop { body: ba, .. }, OpNode::Loop { body: bb, .. }) => seq_struct_eq(ba, bb),
        (OpNode::Branch { arms: aa, .. }, OpNode::Branch { arms: ab, .. }) => {
            aa.len() == ab.len() && aa.iter().zip(ab).all(|(x, y)| seq_struct_eq(x, y))
        }
        _ => false,
    }
}

/// Merges structurally equal arms into one sequence, keeping only the
/// expressions/fields every arm agrees on.
fn merge_arms(arms: &[Vec<OpNode>]) -> Vec<OpNode> {
    let mut out = arms[0].clone();
    for other in &arms[1..] {
        for (slot, o) in out.iter_mut().zip(other) {
            merge_node(slot, o);
        }
    }
    out
}

fn merge_node(slot: &mut OpNode, other: &OpNode) {
    match (slot, other) {
        (
            OpNode::Op { expr, field, .. },
            OpNode::Op {
                expr: oe,
                field: of,
                ..
            },
        ) => {
            if expr.as_deref() != oe.as_deref() {
                *expr = None;
            }
            if field.as_deref() != of.as_deref() {
                *field = None;
            }
        }
        (OpNode::Loop { body, .. }, OpNode::Loop { body: ob, .. }) => {
            for (s, o) in body.iter_mut().zip(ob) {
                merge_node(s, o);
            }
        }
        _ => {}
    }
}

/// First divergence between the save and restore sequences, if any.
fn diff_seqs(save: &[OpNode], restore: &[OpNode], restore_line: usize) -> Option<(usize, String)> {
    let n = save.len().max(restore.len());
    for k in 0..n {
        match (save.get(k), restore.get(k)) {
            (Some(s), None) => {
                return Some((
                    restore_line,
                    format!(
                        "save writes {} (line {}) that restore never reads",
                        s.describe(),
                        s.line()
                    ),
                ));
            }
            (None, Some(r)) => {
                return Some((
                    r.line(),
                    format!(
                        "restore reads {} past the end of save's writes",
                        r.describe()
                    ),
                ));
            }
            (Some(s), Some(r)) => {
                if let Some(found) = diff_nodes(s, r) {
                    return Some(found);
                }
            }
            (None, None) => {}
        }
    }
    None
}

fn diff_nodes(s: &OpNode, r: &OpNode) -> Option<(usize, String)> {
    match (s, r) {
        (
            OpNode::Op {
                kind: ks, expr: es, ..
            },
            OpNode::Op {
                kind: kr,
                expect,
                expr: er,
                ..
            },
        ) => {
            if ks != kr {
                return Some((
                    r.line(),
                    format!(
                        "save writes {} (line {}) where restore reads {}",
                        s.describe(),
                        s.line(),
                        r.describe()
                    ),
                ));
            }
            if *expect {
                if let (Some(es), Some(er)) = (es, er) {
                    if es != er {
                        return Some((
                            r.line(),
                            format!(
                                "identity field drift: save writes `{es}` (line {}) but \
                                 restore expects `{er}`",
                                s.line()
                            ),
                        ));
                    }
                }
            }
            None
        }
        (OpNode::Loop { body: bs, .. }, OpNode::Loop { body: br, .. }) => {
            diff_seqs(bs, br, r.line())
        }
        (OpNode::Branch { arms: ars, .. }, OpNode::Branch { arms: arr, .. }) => {
            if ars.len() != arr.len() {
                return Some((
                    r.line(),
                    format!(
                        "conditional snapshot blocks have {} save arm(s) but {} restore arm(s)",
                        ars.len(),
                        arr.len()
                    ),
                ));
            }
            for (a, b) in ars.iter().zip(arr) {
                if let Some(found) = diff_seqs(a, b, r.line()) {
                    return Some(found);
                }
            }
            None
        }
        (OpNode::Opaque { .. }, OpNode::Opaque { .. }) => None,
        _ => Some((
            r.line(),
            format!(
                "save performs {} (line {}) where restore performs {}",
                s.describe(),
                s.line(),
                r.describe()
            ),
        )),
    }
}

// ---------------------------------------------------------------------------
// R18 — observer purity
// ---------------------------------------------------------------------------

/// `Round`/`RoundCore` mutators an observer must not reach (beyond any
/// direct `.charge_*` call, which is flagged unconditionally).
const ROUND_MUTATORS: [&str; 6] = [
    "send",
    "deliver",
    "begin_round",
    "finish",
    "flush_charges",
    "set_enforcement",
];

fn check_r18(syntaxes: &[FileSyntax], graph: &CallGraph, findings: &mut Vec<Finding>) {
    let mut seeds: BTreeSet<usize> = BTreeSet::new();
    for (fi, fs) in syntaxes.iter().enumerate() {
        for im in trait_impls(fs, "RoundObserver") {
            for (ni, node) in graph.nodes.iter().enumerate() {
                if node.file == fi
                    && !node.is_test
                    && node.start_line >= im.open_line
                    && node.end_line <= im.close_line
                {
                    seeds.insert(ni);
                }
            }
        }
    }
    if seeds.is_empty() {
        return;
    }
    let admit = |n: &FnNode| !n.is_test;
    let reach = graph.closure(seeds.iter().copied(), false, true, admit);
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &ni in &reach {
        let node = &graph.nodes[ni];
        let via = if seeds.contains(&ni) {
            "a RoundObserver impl method"
        } else {
            "code reachable from a RoundObserver impl"
        };
        for call in &node.calls {
            let charges = call.method && call.name.starts_with("charge_");
            let mutates = ROUND_MUTATORS.contains(&call.name.as_str())
                && graph.resolve(ni, call).iter().any(|&t| {
                    let tn = &graph.nodes[t];
                    syntaxes[tn.file].effective == "crates/sim/src/runtime.rs"
                        && matches!(tn.self_type.as_deref(), Some("Round" | "RoundCore"))
                });
            if (charges || mutates) && seen.insert((ni, call.line)) {
                findings.push(Finding::new(
                    &syntaxes[node.file].effective,
                    call.line,
                    "R18",
                    format!(
                        "`{}` ({via}) calls `{}`: observers are diagnostics-only and must \
                         not reach ledger charging or round mutation, or --trace would \
                         perturb the golden ledgers",
                        node.name, call.name
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R19 — shard isolation in par_nodes closures
// ---------------------------------------------------------------------------

/// The deterministic-parallelism helpers and whether their closures get
/// exclusive shard slices (`true`) or per-node indices (`false`). Shard
/// closures may not index *any* captured state; per-node map closures may
/// read captured slices but not index-write them.
const PAR_HELPERS: [(&str, bool); 3] = [
    ("par_scatter_shards", true),
    ("par_zip_shards", true),
    ("par_map_nodes", false),
];

fn check_r19(syntaxes: &[FileSyntax], findings: &mut Vec<Finding>) {
    for fs in syntaxes {
        for f in &fs.fns {
            if f.is_test {
                continue;
            }
            r19_walk(fs.body_of(f), &fs.effective, findings);
        }
    }
}

fn r19_walk(trees: &[Tree], path: &str, findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i < trees.len() {
        if let Some(g) = group_of(&trees[i]) {
            if i > 0 && punct_of(&trees[i - 1]) == Some('!') {
                i += 1;
                continue;
            }
            r19_walk(&g.children, path, findings);
            i += 1;
            continue;
        }
        if let Some(call) = call_at(trees, i) {
            if let Some(&(_, shard)) = PAR_HELPERS.iter().find(|(n, _)| *n == call.name) {
                check_closure_arg(&call.args.children, shard, path, findings);
                i = call.after;
                continue;
            }
        }
        i += 1;
    }
}

/// Analyzes the closure argument of one par-helper call site.
fn check_closure_arg(args: &[Tree], shard: bool, path: &str, findings: &mut Vec<Finding>) {
    // Locate the closure: the first top-level `|…|`.
    let Some(a) = args.iter().position(|t| punct_of(t) == Some('|')) else {
        return;
    };
    let Some(rel) = args[a + 1..].iter().position(|t| punct_of(t) == Some('|')) else {
        return;
    };
    let b = a + 1 + rel;
    let mut sanctioned: Vec<String> = Vec::new();
    for seg in split_commas(&args[a + 1..b]) {
        pattern_idents(seg, &mut sanctioned);
    }
    let body = &args[b + 1..];
    collect_locals(body, &mut sanctioned);
    let mut offenders: Vec<(usize, String)> = Vec::new();
    collect_index_offenses(body, &sanctioned, shard, &mut offenders);
    if let Some(&(line, _)) = offenders.iter().min_by_key(|(l, _)| *l) {
        let mut roots: Vec<&str> = offenders.iter().map(|(_, r)| r.as_str()).collect();
        roots.sort_unstable();
        roots.dedup();
        let what = if shard {
            "indexes captured state"
        } else {
            "index-writes captured state"
        };
        findings.push(Finding::new(
            path,
            line,
            "R19",
            format!(
                "par-shard closure {what} ({}) outside its shard-provided arguments: \
                 cross-shard indexing races once shards run on different threads — go \
                 through the closure's slice parameters, or carry a justified allow(R19) \
                 for an audited disjointness argument",
                roots.join(", ")
            ),
        ));
    }
}

/// Adds `let`-bound and `for`-pattern identifiers declared inside the
/// closure body to the sanctioned set.
fn collect_locals(trees: &[Tree], out: &mut Vec<String>) {
    let mut i = 0;
    while i < trees.len() {
        if let Some(g) = group_of(&trees[i]) {
            collect_locals(&g.children, out);
            i += 1;
            continue;
        }
        match ident_of(&trees[i]) {
            Some("let") => {
                let end = trees[i + 1..]
                    .iter()
                    .position(|t| punct_of(t) == Some('=') || punct_of(t) == Some(';'))
                    .map_or(trees.len(), |p| i + 1 + p);
                pattern_idents(&trees[i + 1..end], out);
                i = end;
            }
            Some("for") => {
                let end = trees[i + 1..]
                    .iter()
                    .position(|t| ident_of(t) == Some("in"))
                    .map_or(trees.len(), |p| i + 1 + p);
                pattern_idents(&trees[i + 1..end], out);
                i = end;
            }
            _ => i += 1,
        }
    }
}

/// Finds `root[…]` indexing (and, when `writes_only`, only index-writes)
/// whose chain root is not a sanctioned identifier.
fn collect_index_offenses(
    trees: &[Tree],
    sanctioned: &[String],
    any_index: bool,
    out: &mut Vec<(usize, String)>,
) {
    for i in 0..trees.len() {
        if let Some(g) = group_of(&trees[i]) {
            let indexes = g.delim == '['
                && i > 0
                && ident_of(&trees[i - 1])
                    .is_some_and(|s| !crate::syntax::is_keyword(s) || matches!(s, "self" | "Self"));
            if indexes {
                if let Some(root) = chain_root(trees, i - 1) {
                    let ok = sanctioned.iter().any(|s| s == root);
                    if !ok && (any_index || is_index_write(trees, i)) {
                        out.push((g.open_line, root.to_string()));
                    }
                }
            }
            collect_index_offenses(&g.children, sanctioned, any_index, out);
        }
    }
}

/// The identifier at the start of a `a.b.c[…]` chain ending at `i` (the
/// tree just before the index group). Returns `None` when the chain starts
/// at a call/group result rather than a place.
fn chain_root(trees: &[Tree], mut i: usize) -> Option<&str> {
    loop {
        ident_of(&trees[i])?;
        if i >= 2 && punct_of(&trees[i - 1]) == Some('.') {
            if ident_of(&trees[i - 2]).is_some() {
                i -= 2;
                continue;
            }
            return None; // chain hangs off a group/call result
        }
        return ident_of(&trees[i]);
    }
}

/// True if the index group at `i` is the target of an assignment
/// (`x[…] = v`, `x[…] += v`, `x[…].f = v`, shifts included).
fn is_index_write(trees: &[Tree], i: usize) -> bool {
    let mut j = i + 1;
    // Skip further place projections: `.field`, nested `[…]`.
    while j < trees.len() {
        if punct_of(&trees[j]) == Some('.') && trees.get(j + 1).and_then(ident_of).is_some() {
            j += 2;
            continue;
        }
        if group_of(&trees[j]).is_some_and(|g| g.delim == '[') {
            j += 1;
            continue;
        }
        break;
    }
    let p1 = punct_of(trees.get(j).unwrap_or(&trees[i])).unwrap_or(' ');
    let p2 = trees.get(j + 1).and_then(punct_of).unwrap_or(' ');
    let p3 = trees.get(j + 2).and_then(punct_of).unwrap_or(' ');
    if p1 == '=' && p2 != '=' {
        return true;
    }
    if "+-*/%^&|".contains(p1) && p2 == '=' {
        return true;
    }
    "<>".contains(p1) && p2 == p1 && p3 == '='
}
