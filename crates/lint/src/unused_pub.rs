//! `unused-pub`: a `pub` item that no other crate names is not public API.
//! An item is used when its name is an identifier (a) in the code of a
//! `.rs` file outside its crate's `src/`, (b) in a doc-comment code block,
//! or (c) in the signature of another `pub` item of its crate (rustc's
//! `private_interfaces` keeps it public). Names, not paths: no resolution.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::Line;

const KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "const", "static", "type"];

/// The crate a root-relative label belongs to (`netfi` for the root
/// package), and whether the file sits in that crate's `src/`.
fn owner(label: &str) -> (&str, bool) {
    let split = label.strip_prefix("crates/").and_then(|r| r.split_once('/'));
    let (krate, rest) = split.unwrap_or(("netfi", label));
    (krate, rest.starts_with("src/"))
}

/// The crate of a library source (`src/` of any crate but `bench`).
pub(crate) fn library_crate(label: &str) -> Option<&str> {
    let (krate, in_src) = owner(label);
    (in_src && krate != "bench").then_some(krate)
}

fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// Every `pub` item of a library file in `files` that no clause names, as
/// (file index, line, name), in file order.
pub(crate) fn unused_pub(files: &[(&str, Vec<Line>)]) -> Vec<(usize, usize, String)> {
    // Name → the crates whose `src/` code names it; "" (a file outside
    // every `src/`, or a doc example) counts for every crate.
    let mut uses: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (label, lines) in files {
        let (krate, in_src) = owner(label);
        let mut fence: Option<bool> = None;
        for line in lines {
            let doc = line.code.trim().is_empty() && line.comment.starts_with(['/', '!']);
            let text = line.comment.get(1..).unwrap_or_default().trim_start();
            let (code, tag) = match text.strip_prefix("```").filter(|_| doc) {
                Some(info) => {
                    fence = fence.xor(Some(info.trim() != "text"));
                    continue;
                }
                None if doc && fence == Some(true) => (text, ""),
                None => (line.code.as_str(), if in_src { krate } else { "" }),
            };
            for w in idents(code) {
                uses.entry(w).or_default().insert(tag);
            }
        }
    }

    let mut items: Vec<(usize, usize, &str, &str)> = Vec::new();
    for (f, (label, lines)) in files.iter().enumerate() {
        let Some(krate) = library_crate(label) else {
            continue;
        };
        // The type of the `impl` block being walked, and the depth it opened at.
        let (mut depth, mut self_ty) = (0, None);
        for (at, line) in lines.iter().enumerate().filter(|(_, l)| !l.in_test) {
            let code = line.code.trim_start();
            if code.starts_with("impl ") || code.starts_with("impl<") {
                let h = code.split('{').next().unwrap_or_default();
                let ty = h.split(" for ").nth(1).or(h.split_once('>').map(|t| t.1));
                let ty = ty.unwrap_or(h).split('<').next().unwrap_or_default();
                self_ty = idents(ty).last().map(|name| (name, depth));
            }
            depth += line.code.matches('{').count() as i32 - line.code.matches('}').count() as i32;
            if self_ty.is_some_and(|(_, open)| depth <= open && line.code.contains('}')) {
                self_ty = None;
            }
            let Some(rest) = code.strip_prefix("pub ") else {
                continue;
            };
            let lines = lines.get(at..).unwrap_or_default();
            if rest.starts_with("use ") {
                for l in lines {
                    for piece in l.code.split([',', '{', '}', ';']) {
                        let path = piece.trim_end().ends_with("::");
                        let leaf = idents(piece).last().filter(|w| *w != "self" && !path);
                        items.extend(leaf.map(|name| (f, l.number, krate, name)));
                    }
                    if l.code.contains(';') {
                        break;
                    }
                }
                continue;
            }
            let skip = ["unsafe", "async", "extern", "mut"];
            let words: Vec<&str> = idents(rest).filter(|w| !skip.contains(w)).take(3).collect();
            let (keyword, name) = match words[..] {
                ["const", "fn", name, ..] => ("fn", name),
                [keyword, name, ..] if KEYWORDS.contains(&keyword) => (keyword, name),
                _ => continue,
            };
            items.push((f, line.number, krate, name));
            // Clause (c), tagged for every crate: for any other crate, the
            // name's being in this crate's code already counts under (a).
            let mut prev = "";
            for w in signature(lines, keyword).into_iter().flat_map(idents) {
                // A trait's method names are declarations, not uses.
                if prev != "fn" && w != name && Some(w) != self_ty.map(|t| t.0) {
                    uses.entry(w).or_default().insert("");
                }
                prev = w;
            }
        }
    }
    items
        .into_iter()
        .filter(|(_, _, krate, name)| !uses.get(name).is_some_and(|t| t.iter().any(|t| t != krate)))
        .map(|(f, line, _, name)| (f, line, name.to_string()))
        .collect()
}

/// The code of the item whose declaration starts `lines`: a `fn`,
/// `const`, `static` or `type` header up to its body or `;`; a struct's
/// header and `pub` fields; an enum's or trait's whole body.
fn signature<'a>(lines: &'a [Line], keyword: &str) -> Vec<&'a str> {
    let body = matches!(keyword, "struct" | "enum" | "trait");
    // Open `(`/`[` and, in a body, open `{`.
    let (mut nest, mut open, mut out) = (0, 0, Vec::new());
    for (k, line) in lines.iter().enumerate().filter(|(_, l)| !l.in_test) {
        let code = &line.code;
        let end = code.char_indices().find(|&(_, c)| {
            match c {
                '(' | '[' => nest += 1,
                ')' | ']' => nest -= 1,
                '{' if body => open += 1,
                '}' => open -= 1,
                _ => {}
            }
            (c == '{' && !body) || (c == ';' && nest == 0 && open == 0) || (c == '}' && open == 0)
        });
        if keyword != "struct" || k == 0 || code.trim_start().starts_with("pub ") {
            out.push(&code[..end.map_or(code.len(), |e| e.0)]);
        }
        if end.is_some() {
            break;
        }
    }
    out
}
