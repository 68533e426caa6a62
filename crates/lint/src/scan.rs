//! A lightweight Rust *token surface* scanner: splits a source file
//! into per-line code, comment, and string-literal channels without a
//! full parser (no `syn`, no crates.io).
//!
//! The scanner understands exactly the lexical forms that can hide a
//! token from a naive `grep`: line comments (`//`, `///`, `//!`),
//! nested block comments (`/* /* */ */`), string literals with escape
//! sequences, raw strings with any `#` arity (`r#"…"#`), byte and
//! byte-raw strings, char/byte-char literals, and the `'a` lifetime vs
//! `'a'` char ambiguity. Everything a lint rule matches against comes
//! from the **code** channel, where string and char contents have been
//! blanked out (the delimiters remain, so shape-sensitive patterns like
//! `"" =>` still work); comment text is preserved separately so rules
//! can look for `SAFETY:` / `ordering:` / `lint:allow` annotations.
//!
//! A second pass over the code channel tracks brace depth to recover
//! two pieces of structure the rules need: the enclosing `mod` path of
//! every line (for module-scoped allowlists like `gemm::profile`) and
//! whether a line sits inside a `#[cfg(test)] mod … { … }` region (test
//! code is exempt from the production-only rules).

/// One source line, split into its lexical channels.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Code with comments removed and string/char contents blanked.
    pub code: String,
    /// Concatenated comment text appearing on this line (markers
    /// stripped; doc and regular comments are not distinguished).
    pub comment: String,
    /// Contents of string literals that *start* on this line.
    pub strings: Vec<String>,
    /// `mod` path enclosing the line's first token (`""` = file root,
    /// nested modules join with `::`).
    pub module: String,
    /// Whether the line is inside a `#[cfg(test)]`-gated module.
    pub in_test: bool,
}

/// A scanned file: 0-indexed lines (report as `index + 1`).
#[derive(Debug, Default)]
pub struct Scanned {
    /// The per-line channels, one entry per source line.
    pub lines: Vec<Line>,
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Splits `src` into code/comment/string channels (pass 1) and
/// annotates module paths and test regions (pass 2).
pub fn scan(src: &str) -> Scanned {
    let mut out = split_channels(src);
    annotate_structure(&mut out);
    out
}

fn split_channels(src: &str) -> Scanned {
    let chars: Vec<char> = src.chars().collect();
    let mut lines: Vec<Line> = vec![Line::default()];
    let mut cur = 0usize; // current line index
    let mut i = 0usize;

    macro_rules! newline {
        () => {{
            lines.push(Line::default());
            cur += 1;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            newline!();
            i += 1;
            continue;
        }
        // Line comment (//, ///, //!): rest of the line is comment.
        if c == '/' && next == Some('/') {
            i += 2;
            while i < chars.len() && chars[i] != '\n' {
                lines[cur].comment.push(chars[i]);
                i += 1;
            }
            continue;
        }
        // Block comment, possibly nested and multi-line.
        if c == '/' && next == Some('*') {
            i += 2;
            let mut depth = 1usize;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    lines[cur].comment.push_str("/*");
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    if depth > 0 {
                        lines[cur].comment.push_str("*/");
                    }
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        newline!();
                    } else {
                        lines[cur].comment.push(chars[i]);
                    }
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and byte-raw) strings: r"…", r#"…"#, br##"…"##. A raw
        // *identifier* (r#match) has no quote after its hashes. The
        // prefix must not continue an identifier (`var` vs `r"…"`).
        let prev_ident = i > 0 && is_ident(chars[i - 1]);
        if !prev_ident && (c == 'r' || (c == 'b' && next == Some('r'))) {
            let at = if c == 'b' { i + 2 } else { i + 1 };
            let mut hashes = 0usize;
            while chars.get(at + hashes) == Some(&'#') {
                hashes += 1;
            }
            if chars.get(at + hashes) == Some(&'"') {
                let start_line = cur;
                for k in i..at + hashes {
                    lines[cur].code.push(chars[k]);
                }
                lines[cur].code.push('"');
                i = at + hashes + 1;
                let mut content = String::new();
                'raw: while i < chars.len() {
                    if chars[i] == '"' {
                        let mut ok = true;
                        for h in 0..hashes {
                            if chars.get(i + 1 + h) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            i += 1 + hashes;
                            lines[cur].code.push('"');
                            for _ in 0..hashes {
                                lines[cur].code.push('#');
                            }
                            break 'raw;
                        }
                    }
                    if chars[i] == '\n' {
                        newline!();
                    }
                    content.push(chars[i]);
                    i += 1;
                }
                lines[start_line].strings.push(content);
                continue;
            }
            // Raw identifier or plain `r`/`b…`: fall through as code.
        }
        // Regular (and byte) string literal.
        if c == '"' || (c == 'b' && next == Some('"') && !prev_ident) {
            let start_line = cur;
            if c == 'b' {
                lines[cur].code.push('b');
                i += 1;
            }
            lines[cur].code.push('"');
            i += 1;
            let mut content = String::new();
            while i < chars.len() {
                match chars[i] {
                    '\\' => {
                        content.push('\\');
                        if let Some(&e) = chars.get(i + 1) {
                            content.push(e);
                            if e == '\n' {
                                newline!();
                            }
                        }
                        i += 2;
                    }
                    '"' => {
                        lines[cur].code.push('"');
                        i += 1;
                        break;
                    }
                    '\n' => {
                        content.push('\n');
                        newline!();
                        i += 1;
                    }
                    other => {
                        content.push(other);
                        i += 1;
                    }
                }
            }
            lines[start_line].strings.push(content);
            continue;
        }
        // Char / byte-char literal vs lifetime. A lifetime is `'ident`
        // NOT followed by a closing quote (`'a'` is a char, `'a` is a
        // lifetime; `'\n'` is always a char).
        if c == '\'' || (c == 'b' && next == Some('\'') && !prev_ident) {
            let q = if c == 'b' { i + 1 } else { i };
            let first = chars.get(q + 1).copied();
            let is_lifetime = c != 'b'
                && first.is_some_and(|f| is_ident(f) || f == '_')
                && first != Some('\\')
                && {
                    // Scan the identifier; a lifetime has no closing '.
                    let mut k = q + 1;
                    while chars.get(k).copied().is_some_and(is_ident) {
                        k += 1;
                    }
                    chars.get(k) != Some(&'\'') || k == q + 1
                };
            if is_lifetime {
                lines[cur].code.push('\'');
                i += 1;
                continue;
            }
            if c == 'b' {
                lines[cur].code.push('b');
                i += 1;
            }
            lines[cur].code.push('\'');
            i += 1; // past opening quote
            if chars.get(i) == Some(&'\\') {
                i += 2; // escape + escaped char
                while i < chars.len() && chars[i] != '\'' {
                    i += 1; // \u{…} and friends
                }
            } else if i < chars.len() {
                i += 1; // the char itself
            }
            if chars.get(i) == Some(&'\'') {
                lines[cur].code.push('\'');
                i += 1;
            }
            continue;
        }
        lines[cur].code.push(c);
        i += 1;
    }
    Scanned { lines }
}

/// Pass 2: brace-depth walk over the code channel, recovering the
/// enclosing `mod` path and `#[cfg(test)]` regions per line.
fn annotate_structure(scanned: &mut Scanned) {
    struct Frame {
        name: String,
        depth_at_entry: usize,
        is_test: bool,
    }
    let mut depth = 0usize;
    let mut frames: Vec<Frame> = Vec::new();
    // Set by a `#[cfg(test)]` attribute, consumed by the next item; any
    // non-attribute item other than `mod … {` clears it.
    let mut pending_cfg_test = false;
    // `Some(name)` once `mod name` was seen and we await its `{`.
    let mut pending_mod: Option<String> = None;

    for li in 0..scanned.lines.len() {
        scanned.lines[li].module = frames
            .iter()
            .map(|f| f.name.as_str())
            .collect::<Vec<_>>()
            .join("::");
        scanned.lines[li].in_test = frames.iter().any(|f| f.is_test);

        let code = scanned.lines[li].code.clone();
        let trimmed = code.trim();
        // Attribute lines keep any pending cfg(test) flag alive: their
        // tokens must not count as "the item the attribute decorates".
        let is_attr = trimmed.starts_with("#[") || trimmed.starts_with("#![");
        if is_attr && trimmed.contains("cfg(test)") {
            pending_cfg_test = true;
        }

        let tokens = tokenize_words(&code);
        let mut t = 0usize;
        while t < tokens.len() {
            match tokens[t].as_str() {
                "{" => {
                    if let Some(name) = pending_mod.take() {
                        frames.push(Frame {
                            name,
                            depth_at_entry: depth,
                            is_test: pending_cfg_test,
                        });
                        pending_cfg_test = false;
                        // Lines after the opening brace are inside; the
                        // opening line itself keeps the outer path.
                    }
                    depth += 1;
                }
                "}" => {
                    depth = depth.saturating_sub(1);
                    if frames.last().is_some_and(|f| f.depth_at_entry == depth) {
                        frames.pop();
                    }
                }
                "mod" => {
                    if let Some(name) = tokens.get(t + 1) {
                        if name.chars().all(is_ident) && !name.is_empty() {
                            pending_mod = Some(name.clone());
                        }
                    }
                }
                ";" => {
                    // `mod x;` or any other item terminator.
                    pending_mod = None;
                    pending_cfg_test = false;
                }
                // Any substantive token that is not part of a
                // `mod name {` sequence consumes the cfg(test)
                // pending flag (it belonged to this item).
                word if !word.starts_with('#')
                    && !is_attr
                    && pending_mod.is_none()
                    && !matches!(word, "pub" | "(" | ")" | "crate" | "in" | "super") =>
                {
                    pending_cfg_test = false;
                }
                _ => {}
            }
            t += 1;
        }
    }
}

/// Splits a code line into identifier words and single-char punctuation
/// tokens (whitespace dropped).
fn tokenize_words(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut word = String::new();
    for c in code.chars() {
        if is_ident(c) {
            word.push(c);
        } else {
            if !word.is_empty() {
                out.push(std::mem::take(&mut word));
            }
            if !c.is_whitespace() {
                out.push(c.to_string());
            }
        }
    }
    if !word.is_empty() {
        out.push(word);
    }
    out
}

/// Whether `hay` contains `needle` as a whole word (neither neighbor is
/// an identifier character). Used for keyword matches like `unsafe`.
pub fn contains_word(hay: &str, needle: &str) -> bool {
    find_word(hay, needle).is_some()
}

/// Byte offset of the first whole-word occurrence of `needle`.
pub fn find_word(hay: &str, needle: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !hay[..at].chars().next_back().is_some_and(is_ident);
        let after = at + needle.len();
        let after_ok = after >= hay.len() || !hay[after..].chars().next().is_some_and(is_ident);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + needle.len().max(1);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_leave_the_code_channel() {
        let s = scan("let x = 1; // unsafe here\n/// unsafe doc\nfn f() {}\n");
        assert_eq!(s.lines[0].code.trim(), "let x = 1;");
        assert!(s.lines[0].comment.contains("unsafe here"));
        assert!(s.lines[1].code.trim().is_empty());
        assert!(s.lines[1].comment.contains("unsafe doc"));
        assert!(!contains_word(&s.lines[0].code, "unsafe"));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let s = scan("a /* x /* y */ z */ b\nunsafe {}\n");
        assert_eq!(s.lines[0].code.replace(' ', ""), "ab");
        assert!(s.lines[0].comment.contains('y'));
        assert!(contains_word(&s.lines[1].code, "unsafe"));
    }

    #[test]
    fn strings_are_blanked_but_recorded() {
        let s = scan("let a = \"unsafe { // }\"; let b = 2;\n");
        assert!(!contains_word(&s.lines[0].code, "unsafe"));
        assert!(!s.lines[0].code.contains("//"));
        assert_eq!(s.lines[0].strings, vec!["unsafe { // }".to_string()]);
        assert!(s.lines[0].code.contains("let b = 2;"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let s = scan(r#"let a = "x\"unsafe\"y"; unsafe {}"#);
        assert_eq!(s.lines[0].strings.len(), 1);
        assert!(s.lines[0].strings[0].contains("unsafe"));
        // The real one after the string is still visible.
        assert!(contains_word(&s.lines[0].code, "unsafe"));
    }

    #[test]
    fn raw_strings_with_hashes_span_lines() {
        let src = "let a = r#\"line1 \" unsafe\nline2\"# ; unsafe {}\n";
        let s = scan(src);
        assert_eq!(s.lines[0].strings.len(), 1);
        assert!(s.lines[0].strings[0].contains("unsafe"));
        assert!(s.lines[0].strings[0].contains("line2"));
        assert!(!contains_word(&s.lines[0].code, "unsafe"));
        assert!(contains_word(&s.lines[1].code, "unsafe"));
    }

    #[test]
    fn byte_and_raw_byte_strings_are_strings() {
        let s = scan("let m = *b\"RCNB\"; let r = br#\"x\"#;\n");
        assert_eq!(
            s.lines[0].strings,
            vec!["RCNB".to_string(), "x".to_string()]
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = scan(
            "fn f<'a>(x: &'a str) -> &'static str { x }\nlet c = 'y'; let n = '\\n'; unsafe {}\n",
        );
        assert!(s.lines[0].code.contains("&'a str"));
        assert!(s.lines[0].code.contains("'static"));
        // Char contents blanked; the trailing unsafe still visible.
        assert!(!s.lines[1].code.contains('y'));
        assert!(contains_word(&s.lines[1].code, "unsafe"));
    }

    #[test]
    fn raw_identifiers_are_code_not_strings() {
        let s = scan("let r#type = 1; let b = r#type;\n");
        assert!(s.lines[0].strings.is_empty());
        assert!(s.lines[0].code.contains("r#type"));
    }

    #[test]
    fn module_paths_and_test_regions_annotate() {
        let src = "\
pub mod profile {
    pub fn inc() {}
    mod inner {
        fn f() {}
    }
}
#[cfg(test)]
mod tests {
    fn t() {}
}
fn top() {}
";
        let s = scan(src);
        assert_eq!(s.lines[1].module, "profile");
        assert_eq!(s.lines[3].module, "profile::inner");
        assert!(!s.lines[1].in_test);
        assert!(s.lines[8].in_test, "inside #[cfg(test)] mod tests");
        assert_eq!(s.lines[8].module, "tests");
        assert!(!s.lines[10].in_test);
        assert_eq!(s.lines[10].module, "");
    }

    #[test]
    fn cfg_test_does_not_leak_past_a_non_mod_item() {
        let src = "\
#[cfg(test)]
fn helper() {}
mod real {
    fn f() {}
}
";
        let s = scan(src);
        assert!(!s.lines[3].in_test, "cfg(test) fn must not mark mod real");
    }

    #[test]
    fn word_boundaries_respect_identifiers() {
        assert!(contains_word("eprintln!(\"\")", "eprintln"));
        assert!(!contains_word("eprintln!(x)", "println"));
        assert!(contains_word("println!(x)", "println"));
        assert!(!contains_word("my_unsafe_fn()", "unsafe"));
        assert!(contains_word("unsafe impl Send for X {}", "unsafe"));
    }
}
