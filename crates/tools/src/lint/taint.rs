//! Intraprocedural wire-taint analysis (`taint-alloc` / `taint-arith`).
//!
//! Values read from untrusted compressed streams — [`ByteReader::get_len`],
//! `get_count`, `get_u16/u32/u64`, `get_dims`, `from_le_bytes`,
//! `read_u16/u32/u64` — are *tainted*: a hostile stream controls them
//! completely (`get_geometry` / `get_dims_of` are clean: what they return
//! has been through `checked_geometry`). The fuzz harness (PR 2) showed what
//! happens when a tainted
//! value reaches an allocation before validation: the `sz` decoder briefly
//! allocated 34 GB for a corrupt header's declared geometry. This pass turns
//! that bug class into a compile-time (well, lint-time) guarantee:
//!
//! * **`taint-alloc`** — a tainted value flows into an allocation site
//!   (`Vec::with_capacity`, `vec![x; n]`, `.reserve(n)`, `.resize(n, ..)`,
//!   `.with_capacity(n)`) without a dominating bounds check.
//! * **`taint-arith`** — a tainted value feeds an unchecked `*`, `+`, or
//!   `<<` (the classic length-overflow shapes) without a dominating check;
//!   a wrapped product that later sizes a buffer or indexes a slice is the
//!   same bug wearing overflow clothing.
//!
//! The analysis is intraprocedural and flow-ordered over each function's
//! token tree (see [`super::tokens`]): `let` bindings propagate taint,
//! rebinding a name to a clean expression clears it, and two forms
//! *sanitize* a value —
//!
//! 1. binding through a guarded expression: `checked_geometry(..)`,
//!    `bytes_to_elements(..)`, `.min(..)` / `.clamp(..)`, `try_into()`,
//!    `checked_mul` / `checked_add` / `checked_sub` / `checked_shl`,
//!    `saturating_*`, or comparison against `MAX_DECODE_BYTES`;
//! 2. a dominating guard statement: an `if`/`if let` whose condition
//!    compares the tainted name (`<`, `>`, `<=`, `>=`, `!=`; being unequal
//!    to one value bounds nothing) against something the stream does not
//!    control, and whose body exits (`return` / `Err` / `break` /
//!    `continue`) — the `if n > payload.len() * 8 { return Err(..) }` idiom.
//!    A comparison whose other side is itself wire-derived is no bound:
//!    `if n == 0 || n > dims[0] { return Err(..) }` let four decoders
//!    reserve for a count of four billion, `dims` being out of the same
//!    header. Wire-derived is wider than tainted — a geometry that passed
//!    `checked_geometry` may size the one buffer it describes, and still
//!    bounds nothing else.
//!
//! `Data::owned(dtype, dims)` is a sink like `vec![..; n]`; `Data::alloc_output`,
//! `alloc::try_reserve` and `alloc::try_zeroed_vec` (checked, charged,
//! fallible) are not.
//!
//! The walk is token-order, which for the straight-line decode functions
//! this rule targets coincides with domination; pathological control flow
//! can fool it in both directions, which is the accepted price of a
//! dependency-light linter. Findings that prove intentional are waived in
//! `lint-allow.txt` with a written justification — but the intended fix is
//! a real bound, and PR 6 fixed every in-tree finding instead of waiving.

use std::collections::HashSet;

use super::tokens::{functions, Kind, Node, Tok};

/// Wire-read calls whose results are attacker-controlled.
const SOURCES: &[&str] = &[
    "get_len",
    "get_count",
    "get_dims",
    "get_u16",
    "get_u32",
    "get_u64",
    "get_i64",
    "from_le_bytes",
    "read_u16",
    "read_u32",
    "read_u64",
];

/// Wire reads whose results are checked as they are read: not tainted, but
/// still wire-derived — no bound for another wire value.
const CHECKED_SOURCES: &[&str] = &["get_geometry", "get_dims_of"];

/// Idents that sanitize an expression they appear in (bounded conversion,
/// checked arithmetic, explicit caps).
const SANITIZERS: &[&str] = &[
    "checked_geometry",
    "bytes_to_elements",
    "try_into",
    "try_from",
    "min",
    "clamp",
    "MAX_DECODE_BYTES",
    // The length of a materialized container is bounded by memory the
    // process already owns — `.len()` / dtype `.size()` results are not
    // attacker-amplifiable even when the container itself is tainted.
    "len",
    "size",
];

/// Allocation sinks: `<recv>.NAME(len, ..)` or `Path::NAME(len)` (`owned` is
/// `Data::owned(dtype, dims)`).
const ALLOC_SINKS: &[&str] = &["with_capacity", "reserve", "resize", "reserve_exact", "owned"];

/// One raw taint finding: which rule, where, and why.
#[derive(Debug)]
pub struct TaintFinding {
    /// `taint-alloc` or `taint-arith` (rule ids owned by `super`).
    pub alloc: bool,
    /// 0-based line index of the sink.
    pub line_idx: usize,
    /// Human-readable cause, appended to the snippet.
    pub why: String,
}

/// Run the taint pass over a parsed file. `is_test_line` masks
/// `#[cfg(test)]` regions (0-based line index).
pub fn scan(nodes: &[Node], is_test_line: &dyn Fn(usize) -> bool) -> Vec<TaintFinding> {
    let mut findings = Vec::new();
    for f in functions(nodes) {
        if f.line == 0 || is_test_line(f.line - 1) {
            continue;
        }
        let mut st = State {
            tainted: HashSet::new(),
            wire: HashSet::new(),
            findings: &mut findings,
        };
        st.scan_block(f.body);
    }
    // One report per (rule, line): compound expressions like `nz * ny * nx`
    // hit several op sites on the same line.
    let mut seen = HashSet::new();
    findings.retain(|f| seen.insert((f.alloc, f.line_idx)));
    findings
}

struct State<'a> {
    tainted: HashSet<String>,
    /// Every name whose value came off the wire, sanitized or not: a
    /// superset of `tainted` that guards and sanitizers do not shrink.
    wire: HashSet<String>,
    findings: &'a mut Vec<TaintFinding>,
}

impl State<'_> {
    /// Does this expression *read* taint: a source call, or a tainted name?
    fn expr_tainted(&self, nodes: &[Node]) -> Option<String> {
        let mut found = None;
        walk_until(nodes, &mut |n| {
            if let Some(t) = n.tok() {
                if t.kind == Kind::Ident {
                    if SOURCES.contains(&t.text.as_str()) {
                        found = Some(format!("wire read `{}`", t.text));
                        return true;
                    }
                    if self.tainted.contains(&t.text) {
                        found = Some(format!("tainted `{}`", t.text));
                        return true;
                    }
                }
            }
            false
        });
        found
    }

    /// Does this expression read anything the stream controls, checked or
    /// not — `except` (a guard's own subject, which a field of the same name
    /// may echo) aside? The length of a materialized container is memory the
    /// process already owns, so an expression through `len` / `size` does not.
    fn reads_wire(&self, nodes: &[Node], except: &str) -> bool {
        let mut wire = false;
        let mut owned = false;
        walk_until(nodes, &mut |n| {
            if let Some(t) = n.tok().filter(|t| t.kind == Kind::Ident) {
                let name = t.text.as_str();
                owned |= matches!(name, "len" | "size");
                wire |= SOURCES.contains(&name)
                    || CHECKED_SOURCES.contains(&name)
                    || (name != except && self.wire.contains(name));
            }
            false
        });
        wire && !owned
    }

    /// The tainted names a guard condition bounds: those some `||` / `&&`
    /// clause compares (`<`, `>`, `<=`, `>=`, `!=`) against a side that reads
    /// nothing off the wire, or passes through a checked helper.
    fn bounded_by(&self, cond: &[Node]) -> Vec<String> {
        let mut bounded = Vec::new();
        for clause in cond.split(|n| n.is_punct('|') || n.is_punct('&')) {
            let sides = bounding_comparison(clause).map(|at| clause.split_at(at));
            for name in &self.tainted {
                let hit = match sides {
                    Some((lhs, rhs)) => {
                        (mentions_ident(lhs, name) && !self.reads_wire(rhs, name))
                            || (mentions_ident(rhs, name) && !self.reads_wire(lhs, name))
                    }
                    None => mentions_ident(clause, name) && self.expr_sanitized(clause),
                };
                if hit {
                    bounded.push(name.clone());
                }
            }
        }
        bounded
    }

    /// Does this expression contain a sanitizer?
    fn expr_sanitized(&self, nodes: &[Node]) -> bool {
        let mut yes = false;
        walk_until(nodes, &mut |n| {
            if let Some(t) = n.tok() {
                if t.kind == Kind::Ident
                    && (SANITIZERS.contains(&t.text.as_str())
                        || t.text.starts_with("checked_")
                        || t.text.starts_with("saturating_"))
                {
                    yes = true;
                    return true;
                }
            }
            false
        });
        yes
    }

    /// Names bound by a `let` pattern (plain, tuple, `mut`, type-annotated).
    fn pattern_names(pat: &[Node]) -> Vec<String> {
        let mut names = Vec::new();
        let mut stop = false;
        walk_until(pat, &mut |n| {
            if n.is_punct(':') || n.is_punct('=') {
                stop = true;
            }
            if stop {
                return true;
            }
            if let Some(t) = n.tok() {
                if t.kind == Kind::Ident && !matches!(t.text.as_str(), "mut" | "ref" | "_") {
                    names.push(t.text.clone());
                }
            }
            false
        });
        names
    }

    /// Statement-ordered walk of one block.
    fn scan_block(&mut self, nodes: &[Node]) {
        let mut i = 0;
        while i < nodes.len() {
            if nodes[i].is_ident("let") {
                // let <pat> (: ty)? = <expr> ;   (or let-else)
                let eq = find_punct(nodes, i, '=');
                let end = find_punct(nodes, i, ';').unwrap_or(nodes.len());
                if let Some(eq) = eq.filter(|&e| e < end) {
                    let pat = &nodes[i + 1..eq];
                    let expr = &nodes[eq + 1..end];
                    self.scan_expr(expr, statement_guarded(expr));
                    let names = Self::pattern_names(pat);
                    let dirty = self.expr_tainted(expr).is_some() && !self.expr_sanitized(expr);
                    let wire = self.reads_wire(expr, "");
                    for name in names {
                        if wire {
                            self.wire.insert(name.clone());
                        } else {
                            self.wire.remove(&name);
                        }
                        if dirty {
                            self.tainted.insert(name);
                        } else {
                            self.tainted.remove(&name);
                        }
                    }
                }
                i = end + 1;
                continue;
            }
            if nodes[i].is_ident("if") || nodes[i].is_ident("while") {
                // Guard statement: `if <cond involving tainted + cmp> {
                // <exits> }` sanitizes the mentioned names.
                let body_at = nodes[i + 1..]
                    .iter()
                    .position(|n| n.group('{').is_some())
                    .map(|p| p + i + 1);
                if let Some(body_at) = body_at {
                    let cond = &nodes[i + 1..body_at];
                    let body = nodes[body_at].group('{').unwrap_or(&[]);
                    let bounded = self.bounded_by(cond);
                    // The guard body still gets scanned either way (it may
                    // allocate an error message — harmless — or do real
                    // work).
                    self.scan_expr(cond, statement_guarded(cond));
                    self.scan_block(body);
                    if block_exits(body) {
                        for name in bounded {
                            self.tainted.remove(&name);
                        }
                    }
                    i = body_at + 1;
                    continue;
                }
            }
            // Any other statement: gather tokens up to the `;` at this
            // level and scan as an expression. A fallible sanitizer
            // statement — `checked_geometry(dtype, &dims)?;` and friends —
            // dominates every later use of the names it mentions.
            let end = find_punct(nodes, i, ';').unwrap_or(nodes.len());
            let stmt = &nodes[i..end];
            self.scan_expr(stmt, statement_guarded(stmt));
            if self.expr_sanitized(stmt) && stmt.iter().any(|n| n.is_punct('?')) {
                let mentioned: Vec<String> = self
                    .tainted
                    .iter()
                    .filter(|name| mentions_ident(stmt, name))
                    .cloned()
                    .collect();
                for name in mentioned {
                    self.tainted.remove(&name);
                }
            }
            i = end + 1;
        }
    }

    /// Expression scan: sinks + arithmetic, recursing into groups (closure
    /// bodies inside become nested blocks). `guarded` carries the enclosing
    /// statement's bounds-check context into nested argument groups.
    fn scan_expr(&mut self, nodes: &[Node], guarded: bool) {
        let guarded = guarded || statement_guarded(nodes);
        let mut i = 0;
        while i < nodes.len() {
            match &nodes[i] {
                Node::Group {
                    delim: '{',
                    children,
                    ..
                } => self.scan_block(children),
                _ => self.scan_at(nodes, i, guarded),
            }
            i += 1;
        }
    }

    /// Check sink/arith patterns anchored at `nodes[i]`, recursing into
    /// non-block groups.
    fn scan_at(&mut self, nodes: &[Node], i: usize, guarded: bool) {
        // Allocation sinks: NAME ( args ).
        if let Some(t) = nodes[i].tok() {
            if t.kind == Kind::Ident && ALLOC_SINKS.contains(&t.text.as_str()) {
                if let Some(args) = nodes.get(i + 1).and_then(|n| n.group('(')) {
                    if let Some(why) = self.expr_tainted(args) {
                        if !self.expr_sanitized(args) {
                            self.findings.push(TaintFinding {
                                alloc: true,
                                line_idx: t.line.saturating_sub(1),
                                why: format!("`{}` sized by {}", t.text, why),
                            });
                        }
                    }
                }
            }
            // vec![ x ; n ] macro sink.
            if t.kind == Kind::Ident
                && t.text == "vec"
                && nodes.get(i + 1).map(|n| n.is_punct('!')).unwrap_or(false)
            {
                if let Some(body) = nodes.get(i + 2).and_then(|n| n.group('[')) {
                    if let Some(semi) = body.iter().position(|n| n.is_punct(';')) {
                        let len_expr = &body[semi + 1..];
                        if let Some(why) = self.expr_tainted(len_expr) {
                            if !self.expr_sanitized(len_expr) {
                                self.findings.push(TaintFinding {
                                    alloc: true,
                                    line_idx: t.line.saturating_sub(1),
                                    why: format!("`vec![..; n]` sized by {}", why),
                                });
                            }
                        }
                    }
                }
            }
        }
        // Arithmetic sinks: tainted operand adjacent to binary * + <<.
        if let Some(t) = nodes[i].tok() {
            if t.kind == Kind::Punct {
                let c = t.text.as_bytes().first().copied().unwrap_or(b' ') as char;
                let is_shift = c == '<'
                    && nodes.get(i + 1).map(|n| n.is_punct('<')).unwrap_or(false)
                    && !nodes.get(i + 2).map(|n| n.is_punct('=')).unwrap_or(false);
                let is_mul_add = matches!(c, '*' | '+');
                if is_mul_add || is_shift {
                    // Binary position: the previous node must be a value
                    // (ident, number, or closing group), not an operator —
                    // otherwise `*x` is a deref / `+` a bound.
                    let prev_value = i > 0
                        && match &nodes[i - 1] {
                            Node::Group { .. } => true,
                            Node::Tok(p) => p.kind != Kind::Punct,
                        };
                    // Float arithmetic cannot wrap into an allocation size
                    // or index — `pred + qi as f64 * two_eb` is math, not a
                    // length computation.
                    let float_ctx = nodes.iter().any(|n| n.is_ident("f64") || n.is_ident("f32"));
                    if prev_value && !guarded && !float_ctx {
                        let next_at = if is_shift { i + 2 } else { i + 1 };
                        let left = operand_ident(nodes.get(i.wrapping_sub(1)));
                        let right = operand_ident(nodes.get(next_at));
                        for name in [left, right].into_iter().flatten() {
                            if self.tainted.contains(name) {
                                self.findings.push(TaintFinding {
                                    alloc: false,
                                    line_idx: t.line.saturating_sub(1),
                                    why: format!(
                                        "unchecked `{}` on tainted `{}`",
                                        if is_shift { "<<" } else { &t.text },
                                        name
                                    ),
                                });
                                break;
                            }
                        }
                    }
                }
            }
        }
        // Recurse into call-argument groups for nested sinks.
        if let Node::Group {
            delim, children, ..
        } = &nodes[i]
        {
            if *delim != '{' {
                self.scan_expr(children, guarded);
            }
        }
    }
}

/// The ident directly at an operand position (method names and field names
/// qualify — they are never tainted, which keeps `x.len() * 8` quiet).
fn operand_ident(node: Option<&Node>) -> Option<&str> {
    match node {
        Some(Node::Tok(Tok {
            kind: Kind::Ident,
            text,
            ..
        })) => Some(text.as_str()),
        _ => None,
    }
}

/// Does this statement-level slice carry a comparison (guard shape)?
fn has_comparison(nodes: &[Node]) -> bool {
    for (i, n) in nodes.iter().enumerate() {
        if n.is_punct('<') || n.is_punct('>') {
            // `<<`/`>>` are shifts, `->` is an arrow; single angles compare.
            let prev_same = i > 0 && (nodes[i - 1].is_punct('<') || nodes[i - 1].is_punct('-'));
            let next_same = nodes
                .get(i + 1)
                .map(|m| m.is_punct('<') || m.is_punct('>'))
                .unwrap_or(false);
            if !prev_same && !next_same {
                return true;
            }
        }
        if (n.is_punct('=') || n.is_punct('!'))
            && nodes.get(i + 1).map(|m| m.is_punct('=')).unwrap_or(false)
        {
            return true;
        }
    }
    false
}

/// Index of the first comparison in `nodes` that can bound a value — `<`,
/// `>`, `<=`, `>=`, `!=` — skipping shifts, arrows and `==` (being unequal to
/// one value bounds nothing).
fn bounding_comparison(nodes: &[Node]) -> Option<usize> {
    nodes.iter().enumerate().position(|(i, n)| {
        let next_is = |c| nodes.get(i + 1).is_some_and(|m: &Node| m.is_punct(c));
        if n.is_punct('<') || n.is_punct('>') {
            let prev_same = i > 0 && ['<', '>', '-'].iter().any(|&c| nodes[i - 1].is_punct(c));
            !prev_same && !next_is('<') && !next_is('>')
        } else {
            n.is_punct('!') && next_is('=')
        }
    })
}

/// Is the op's statement guarded? True when the *enclosing statement slice*
/// (up to the nearest `;` on both sides) carries a comparison or a checked
/// helper — `if out.len() + n > expect` or `n.checked_mul(8)` shapes.
fn statement_guarded(nodes: &[Node]) -> bool {
    has_comparison(nodes)
        || nodes.iter().any(|n| {
            n.tok().is_some_and(|t| {
                t.kind == Kind::Ident
                    && (t.text.starts_with("checked_")
                        || t.text.starts_with("saturating_")
                        || SANITIZERS.contains(&t.text.as_str())
                        || t.text == "get")
            })
        })
}

/// Does a guard body exit the enclosing function/loop?
fn block_exits(body: &[Node]) -> bool {
    let mut yes = false;
    walk_until(body, &mut |n| {
        if let Some(t) = n.tok() {
            if t.kind == Kind::Ident
                && matches!(
                    t.text.as_str(),
                    "return" | "Err" | "break" | "continue" | "bail"
                )
            {
                yes = true;
                return true;
            }
        }
        false
    });
    yes
}

/// Index of the first `c` punct at this level, at or after `from`.
fn find_punct(nodes: &[Node], from: usize, c: char) -> Option<usize> {
    nodes[from..]
        .iter()
        .position(|n| n.is_punct(c))
        .map(|p| p + from)
}

fn mentions_ident(nodes: &[Node], name: &str) -> bool {
    let mut yes = false;
    walk_until(nodes, &mut |n| {
        if n.is_ident(name) {
            yes = true;
            return true;
        }
        false
    });
    yes
}

/// Depth-first walk aborting when `f` returns true.
fn walk_until(nodes: &[Node], f: &mut impl FnMut(&Node) -> bool) -> bool {
    for n in nodes {
        if f(n) {
            return true;
        }
        if let Node::Group { children, .. } = n {
            if walk_until(children, f) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::super::tokens::parse_source;
    use super::*;

    fn run(src: &str) -> Vec<TaintFinding> {
        scan(&parse_source(src), &|_| false)
    }

    #[test]
    fn unchecked_wire_allocation_flagged() {
        let f = run("fn d(r: &mut ByteReader) -> Result<()> {\n\
                     let n = r.get_len()?;\n\
                     let mut out = Vec::with_capacity(n);\n\
                     Ok(())\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].alloc);
        assert_eq!(f[0].line_idx, 2);
        assert!(f[0].why.contains("tainted `n`"), "{}", f[0].why);
    }

    #[test]
    fn direct_source_in_sink_flagged() {
        let f = run("fn d(r: &mut ByteReader) {\n\
                     let mut v = Vec::with_capacity(r.get_u32()? as usize);\n}\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].why.contains("wire read"), "{}", f[0].why);
    }

    #[test]
    fn vec_macro_and_reserve_and_resize_flagged() {
        let f = run("fn d(r: &mut ByteReader) {\n\
                     let n = r.get_len()?;\n\
                     let a = vec![0u8; n];\n\
                     let mut b = Vec::new();\n\
                     b.reserve(n);\n\
                     b.resize(n, 0);\n}\n");
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.alloc));
    }

    #[test]
    fn dominating_guard_sanitizes() {
        // The huffman decode_serial idiom: check against payload bits, then
        // allocate.
        let f = run("fn d(r: &mut ByteReader, payload: &[u8]) -> Result<()> {\n\
                     let n = r.get_len()?;\n\
                     if n > payload.len().saturating_mul(8) {\n\
                         return Err(Error::corrupt(\"too many symbols\"));\n\
                     }\n\
                     let mut out = Vec::with_capacity(n);\n\
                     Ok(())\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn a_wire_value_is_no_bound_for_another() {
        // The count against a dimension out of the same header — checked as
        // a geometry, read by `get_geometry`, or raw — or against zero alone:
        // flagged. Against the bytes present (the shared container): clean.
        let decoder = |dims: &str, guard: &str| {
            run(&format!(
                "fn d(r: &mut ByteReader, max: usize) -> Result<()> {{\n{dims}\n\
                 let n = r.get_count()?;\n\
                 if {guard} {{ return Err(Error::corrupt(\"count\")); }}\n\
                 let bodies = Vec::with_capacity(n);\nOk(())\n}}\n"
            ))
            .len()
        };
        let by_dim = "n == 0 || n > dims.first().copied().unwrap_or(1).max(1)";
        assert_eq!(decoder("let dims = r.get_dims()?;\nchecked_geometry(dtype, &dims)?;", by_dim), 1);
        assert_eq!(decoder("let (dtype, dims) = r.get_geometry()?;", by_dim), 1);
        assert_eq!(decoder("let dims = r.get_dims()?;", by_dim), 1);
        assert_eq!(decoder("", "n == 0"), 1);
        assert_eq!(decoder("", "n == 0 || n > max || n > r.remaining() / 8"), 0);
    }

    #[test]
    fn data_owned_is_a_sink_and_get_geometry_a_clean_source() {
        let shape = |body: &str| {
            run(&format!("fn d(r: &mut ByteReader, output: &mut Data) {{\n{body}\n}}\n")).len()
        };
        assert_eq!(shape("let dims = r.get_dims()?;\n*output = Data::owned(dtype, dims);"), 1);
        assert_eq!(shape("let dims = r.get_dims()?;\n*output = Data::alloc_output(dtype, dims)?;"), 0);
        assert_eq!(shape("let (dtype, dims) = r.get_geometry()?;\nlet v = vec![0u8; dims[0]];"), 0);
    }

    #[test]
    fn guard_split_across_lines_still_dominates() {
        let f = run("fn d(r: &mut ByteReader, total: usize) -> Result<()> {\n\
                     let m = r.get_len()?;\n\
                     let n = r.get_len()?;\n\
                     if m.checked_mul(n)\n\
                         != Some(total)\n\
                     {\n\
                         return Err(Error::corrupt(\"bad geometry\"));\n\
                     }\n\
                     let mut u = Vec::with_capacity(m);\n\
                     let mut v = Vec::with_capacity(n);\n\
                     Ok(())\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn sanitizing_binding_clears_taint() {
        for clean in [
            "let n = r.get_u64()?.min(MAX_DECODE_BYTES) as usize;",
            "let n: usize = r.get_u64()?.try_into().map_err(bad)?;",
            "let n = checked_geometry(dtype, &dims)?;",
            "let n = r.get_u32()?.clamp(0, 4096) as usize;",
        ] {
            let src = format!(
                "fn d(r: &mut ByteReader) {{\n{clean}\nlet v = Vec::with_capacity(n);\n}}\n"
            );
            assert!(run(&src).is_empty(), "{clean}");
        }
    }

    #[test]
    fn rebinding_clean_value_clears_taint() {
        let f = run("fn d(r: &mut ByteReader, buf: &[u8]) {\n\
                     let n = r.get_len()?;\n\
                     let n = buf.len();\n\
                     let v = Vec::with_capacity(n);\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unchecked_product_of_wire_dims_flagged() {
        // The seeded sz regression shape: three wire dims multiplied raw.
        let f = run("fn d(r: &mut ByteReader) -> Result<()> {\n\
                     let nz = r.get_len()?;\n\
                     let ny = r.get_len()?;\n\
                     let nx = r.get_len()?;\n\
                     let n = nz * ny * nx;\n\
                     let out = vec![0.0f64; n];\n\
                     Ok(())\n}\n");
        let arith = f.iter().filter(|x| !x.alloc).count();
        let alloc = f.iter().filter(|x| x.alloc).count();
        assert!(arith >= 1, "{f:?}");
        assert_eq!(alloc, 1, "{f:?}");
    }

    #[test]
    fn shift_on_tainted_length_flagged() {
        let f = run("fn d(r: &mut ByteReader) {\n\
                     let bits = r.get_u32()? as usize;\n\
                     let n = 1usize << bits;\n}\n");
        assert_eq!(f.iter().filter(|x| !x.alloc).count(), 1, "{f:?}");
    }

    #[test]
    fn comparison_context_suppresses_arith() {
        let f = run(
            "fn d(r: &mut ByteReader, expect: usize, out: &[u8]) -> Result<()> {\n\
                     let n = r.get_len()?;\n\
                     if out.len() + n > expect {\n\
                         return Err(Error::corrupt(\"overrun\"));\n\
                     }\n\
                     Ok(())\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn untainted_arithmetic_quiet() {
        let f = run("fn d(payload: &[u8]) {\n\
                     let n = payload.len() * 8;\n\
                     let v = Vec::with_capacity(n);\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_modules_masked() {
        let src = "fn d(r: &mut ByteReader) {\nlet n = r.get_len().unwrap();\nlet v = Vec::with_capacity(n);\n}\n";
        let all = scan(&parse_source(src), &|_| false);
        assert_eq!(all.len(), 1);
        let masked = scan(&parse_source(src), &|_| true);
        assert!(masked.is_empty());
    }
}
