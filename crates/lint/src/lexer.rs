//! A minimal line-oriented lexer for Rust source.
//!
//! The rule engine does not need a parse tree — every invariant it checks
//! is visible at token granularity. What it *does* need is to never match
//! rule patterns inside string literals, char literals or comments, and to
//! know which comment text sits on which line (allow-comments and the
//! deny-marker are comments). So the lexer classifies each
//! physical line into a *code* part (string/char contents blanked,
//! comments removed) and a *comment* part, and marks lines that belong to
//! `#[cfg(test)]`-gated items so test code is exempt from library rules.

/// One physical source line, split into its code and comment parts.
#[derive(Debug, Clone, Default)]
pub(crate) struct Line {
    /// 1-based line number.
    pub number: usize,
    /// Code with comments removed and string/char contents blanked.
    pub code: String,
    /// Comment text on the line (line and block comments, concatenated).
    pub comment: String,
    /// True when the line is inside an item gated behind `#[cfg(test)]`.
    pub in_test: bool,
}

enum State {
    /// Ordinary code.
    Normal,
    /// Inside `"..."` or `b"..."`.
    Str,
    /// Inside `r#"..."#` with this many hashes.
    RawStr(usize),
    /// Inside `/* ... */`, at this nesting depth.
    Block(usize),
    /// Inside `// ...` until end of line.
    LineComment,
}

/// Splits `source` into classified [`Line`]s.
pub(crate) fn lex(source: &str) -> Vec<Line> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut number = 1usize;
    let mut state = State::Normal;
    let mut i = 0usize;

    while let Some(&c) = chars.get(i) {
        if c == '\n' {
            if matches!(state, State::LineComment) {
                state = State::Normal;
            }
            lines.push(Line {
                number,
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                in_test: false,
            });
            number += 1;
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    // A space keeps `a/* */b` from fusing into one ident.
                    code.push(' ');
                    state = State::Block(1);
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    state = State::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
                    match string_prefix(&chars, i) {
                        Some(Prefix::Raw(after, hashes)) => {
                            code.push('"');
                            state = State::RawStr(hashes);
                            i = after;
                        }
                        Some(Prefix::Byte(after)) => {
                            code.push('"');
                            state = State::Str;
                            i = after;
                        }
                        Some(Prefix::ByteChar(after)) => {
                            code.push_str("''");
                            i = after;
                        }
                        None => {
                            code.push(c);
                            i += 1;
                        }
                    }
                } else if c == '\'' {
                    match char_literal_end(&chars, i) {
                        Some(after) => {
                            code.push_str("''");
                            i = after;
                        }
                        None => {
                            // A lifetime: keep the tick, idents follow as code.
                            code.push('\'');
                            i += 1;
                        }
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Never swallow a newline: `"a\` + newline is a line
                    // continuation, and skipping past the `\n` here would
                    // drop a physical line and shift every later line
                    // number (desyncing item tracking and diagnostics).
                    if chars.get(i + 1) == Some(&'\n') {
                        i += 1;
                    } else {
                        i += 2;
                    }
                } else if c == '"' {
                    code.push('"');
                    state = State::Normal;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && tail_hashes(&chars, i + 1, hashes) {
                    code.push('"');
                    state = State::Normal;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
            }
            State::Block(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::Block(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth > 1 {
                        State::Block(depth - 1)
                    } else {
                        State::Normal
                    };
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                comment.push(c);
                i += 1;
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        lines.push(Line {
            number,
            code,
            comment,
            in_test: false,
        });
    }
    mark_test_items(&mut lines);
    lines
}

enum Prefix {
    /// `r"`, `r#"`, `br#"` …: (index after the opening quote, hash count).
    Raw(usize, usize),
    /// `b"`: index after the opening quote.
    Byte(usize),
    /// `b'x'`: index after the closing quote.
    ByteChar(usize),
}

fn string_prefix(chars: &[char], i: usize) -> Option<Prefix> {
    match chars.get(i).copied()? {
        'r' => raw_prefix(chars, i + 1).map(|(after, n)| Prefix::Raw(after, n)),
        'b' => match chars.get(i + 1).copied()? {
            '"' => Some(Prefix::Byte(i + 2)),
            'r' => raw_prefix(chars, i + 2).map(|(after, n)| Prefix::Raw(after, n)),
            '\'' => char_literal_end(chars, i + 1).map(Prefix::ByteChar),
            _ => None,
        },
        _ => None,
    }
}

/// From the position after `r`, consumes `#*` and the opening quote.
fn raw_prefix(chars: &[char], mut j: usize) -> Option<(usize, usize)> {
    let mut hashes = 0usize;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some((j + 1, hashes))
}

/// Distinguishes a char literal from a lifetime at a `'`.
///
/// Returns the index just past the closing quote for `'a'` / `'\n'`
/// forms, `None` for lifetimes.
fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1).copied()? {
        '\\' => {
            // Escaped char: scan (bounded) for the closing quote.
            let mut j = i + 2;
            let mut escaped = true;
            while let Some(&c) = chars.get(j) {
                if j > i + 12 || c == '\n' {
                    return None;
                }
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '\'' {
                    return Some(j + 1);
                }
                j += 1;
            }
            None
        }
        _ => (chars.get(i + 2) == Some(&'\'')).then_some(i + 3),
    }
}

fn tail_hashes(chars: &[char], from: usize, hashes: usize) -> bool {
    (0..hashes).all(|k| chars.get(from + k) == Some(&'#'))
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0
        && chars
            .get(i - 1)
            .is_some_and(|c| c.is_alphanumeric() || *c == '_')
}

/// Marks every line of each `#[cfg(test)]`-gated item.
///
/// Brace counting on the *code* part only — strings and comments are
/// already stripped, so `{` in a message cannot unbalance the scan. An
/// attribute followed by a braceless item (`#[cfg(test)] use x;`) ends at
/// the first `;` at depth zero; a gated field or variant ends at its `,`,
/// or at the `}` that closes the enclosing item.
fn mark_test_items(lines: &mut [Line]) {
    let mut i = 0usize;
    while i < lines.len() {
        let is_gate = lines.get(i).is_some_and(|l| {
            let compact: String = l.code.chars().filter(|c| !c.is_whitespace()).collect();
            compact.contains("#[cfg(test)]")
        });
        if !is_gate {
            i += 1;
            continue;
        }
        let (mut depth, mut nest): (i64, i64) = (0, 0);
        let mut seen_brace = false;
        let mut j = i;
        while j < lines.len() {
            let mut closed = false;
            let mut semi_at_top = false;
            if let Some(line) = lines.get(j) {
                for ch in line.code.chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            seen_brace = true;
                        }
                        '}' => {
                            depth -= 1;
                            if (seen_brace && depth <= 0) || depth < 0 {
                                closed = true;
                            }
                        }
                        '(' | '[' => nest += 1,
                        ')' | ']' => nest -= 1,
                        ';' | ',' if !seen_brace && depth == 0 && nest == 0 => semi_at_top = true,
                        _ => {}
                    }
                }
            }
            if let Some(line) = lines.get_mut(j) {
                line.in_test = true;
            }
            if closed || semi_at_top {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn strips_line_and_block_comments() {
        let lines = lex("let a = 1; // trailing\n/* block */ let b = 2;\n");
        assert_eq!(lines[0].code.trim_end(), "let a = 1;");
        assert_eq!(lines[0].comment, " trailing");
        assert_eq!(lines[1].code.trim(), "let b = 2;");
        assert_eq!(lines[1].comment, " block ");
    }

    #[test]
    fn nested_block_comments() {
        let lines = lex("/* a /* b */ c */ let x = 3;\n");
        assert_eq!(lines[0].code.trim(), "let x = 3;");
        assert!(lines[0].comment.contains('b'));
    }

    #[test]
    fn blanks_string_contents() {
        let got = code_of("let s = \".unwrap() panic!\"; s.len();\n");
        assert_eq!(got[0], "let s = \"\"; s.len();");
    }

    #[test]
    fn raw_and_byte_strings() {
        let got = code_of("let r = r#\"no \" escape .unwrap()\"#;\nlet b = b\"panic!\";\n");
        assert_eq!(got[0], "let r = \"\";");
        assert_eq!(got[1], "let b = \"\";");
    }

    #[test]
    fn multiline_string_spans_lines() {
        let got = code_of("let s = \"one\ntwo.unwrap()\";\nlet t = 4;\n");
        assert_eq!(got[0], "let s = \"");
        assert_eq!(got[1], "\";");
        assert_eq!(got[2], "let t = 4;");
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let got = code_of("let c = 'x'; let n = '\\n'; fn f<'a>(v: &'a str) {}\n");
        assert_eq!(got[0], "let c = ''; let n = ''; fn f<'a>(v: &'a str) {}");
        let got = code_of("let q = b'\"';\n");
        assert_eq!(got[0], "let q = '';");
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}\n";
        let lines = lex(src);
        let flags: Vec<bool> = lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_braceless_item() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn lib() {}\n";
        let lines = lex(src);
        assert!(lines[0].in_test && lines[1].in_test);
        assert!(!lines[2].in_test);
    }

    #[test]
    fn cfg_test_on_a_field_ends_at_its_comma_or_the_closing_brace() {
        let src = "S {\n    #[cfg(test)]\n    a: f(1, 2),\n    b: 0,\n    #[cfg(test)]\n    c: 0\n}\nfn lib() {}\n";
        let flags: Vec<bool> = lex(src).iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, false, true, true, true, false]);
    }

    #[test]
    fn string_line_continuation_keeps_line_numbers() {
        let src = "let s = \"one \\\n    two\";\nstruct After { x: u8 }\n";
        let lines = lex(src);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[2].number, 3);
        assert_eq!(lines[2].code, "struct After { x: u8 }");
    }
}
