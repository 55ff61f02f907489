//! A lightweight Rust source tokenizer: comment-, string-, and
//! char-literal-aware, line-tracked, and panic-free.
//!
//! This is deliberately *not* a full lexer for the Rust grammar — the
//! audit rules only need to see identifiers and punctuation with the
//! noise (comments, string contents, char literals, numbers) stripped
//! out, so a banned name inside a string literal or a doc comment never
//! counts as a violation. The subtle cases it does handle exactly:
//!
//! * nested block comments (`/* /* */ */`);
//! * raw strings with any hash depth (`r#"…"#`, `br##"…"##`);
//! * byte strings and byte chars (`b"…"`, `b'x'`);
//! * char literals vs. lifetimes (`'a'` vs. `'a`), including escaped
//!   quotes (`'\''`);
//! * raw identifiers (`r#type`).

/// One lexed token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// An identifier or keyword.
    Ident(String),
    /// A single punctuation character (multi-char operators arrive as
    /// consecutive tokens, e.g. `::` is two `Punct(':')`).
    Punct(char),
    /// A numeric literal (value discarded — rules never need it).
    Num,
}

/// A token with the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based line number.
    pub line: u32,
}

/// Tokenizes Rust source, noise stripped. Total: accepts arbitrary (even
/// invalid) input and never panics — unterminated constructs simply end
/// at EOF.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer { bytes: src.as_bytes(), pos: 0, line: 1, out: Vec::new() }.run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Byte length of the UTF-8 scalar whose leading byte is `b`. Invalid
/// leading bytes report 1 so the lexer always makes progress.
fn utf8_len(b: u8) -> usize {
    match b {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        while let Some(b) = self.peek(0) {
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b if b.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                b'0'..=b'9' => self.number(),
                b if is_ident_start(b) => self.ident_or_prefixed_literal(),
                _ => {
                    self.out.push(Token { tok: Tok::Punct(b as char), line: self.line });
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte, keeping the line counter honest.
    fn bump(&mut self) {
        if self.peek(0) == Some(b'\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn line_comment(&mut self) {
        self.pos += 2;
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.pos += 1;
        }
    }

    fn block_comment(&mut self) {
        self.pos += 2;
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (Some(_), _) => self.bump(),
                (None, _) => break,
            }
        }
    }

    /// A regular `"…"` string (escape-aware). The contents are discarded.
    fn string(&mut self) {
        self.pos += 1;
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => {
                    self.bump();
                    if self.peek(0).is_some() {
                        self.bump();
                    }
                }
                b'"' => {
                    self.pos += 1;
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// A raw string starting at the current `r`/`br` position: `r#*"…"#*`.
    /// Returns false (position untouched) if the lookahead is not actually
    /// a raw string opener.
    fn try_raw_string(&mut self, prefix_len: usize) -> bool {
        let mut hashes = 0usize;
        while self.peek(prefix_len + hashes) == Some(b'#') {
            hashes += 1;
        }
        if self.peek(prefix_len + hashes) != Some(b'"') {
            return false;
        }
        self.pos += prefix_len + hashes + 1;
        // Scan for `"` followed by `hashes` hash marks.
        while let Some(b) = self.peek(0) {
            if b == b'"' {
                let mut k = 0usize;
                while k < hashes && self.peek(1 + k) == Some(b'#') {
                    k += 1;
                }
                if k == hashes {
                    self.pos += 1 + hashes;
                    return true;
                }
            }
            self.bump();
        }
        true
    }

    /// `'a'`, `'\n'`, `b'x'` char literals vs. `'a` lifetimes. Called with
    /// the cursor on the opening quote.
    fn char_or_lifetime(&mut self) {
        match self.peek(1) {
            // Escaped char literal: consume through the closing quote.
            Some(b'\\') => {
                self.pos += 2;
                if self.peek(0).is_some() {
                    self.bump(); // the escaped character itself
                }
                while let Some(b) = self.peek(0) {
                    // Multi-char escapes (`'\u{1F600}'`, `'\x7f'`) run to
                    // the closing quote.
                    self.bump();
                    if b == b'\'' {
                        break;
                    }
                }
            }
            // `'a` / `'static` lifetime: an identifier follows with no
            // closing quote right after one *character* — measured in
            // UTF-8 bytes, so `'é'` (a 2-byte scalar) is a char literal,
            // not a lifetime that would desynchronize on the stray quote.
            Some(b)
                if is_ident_start(b)
                    && self.peek(1 + utf8_len(b)) != Some(b'\'') =>
            {
                self.pos += 2;
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.pos += 1;
                }
            }
            // Plain char literal `'x'` (possibly multi-byte UTF-8).
            Some(_) => {
                self.pos += 1;
                while let Some(b) = self.peek(0) {
                    self.bump();
                    if b == b'\'' {
                        break;
                    }
                }
            }
            None => self.pos += 1,
        }
    }

    /// A numeric literal; the exact value is irrelevant to every rule, so
    /// digits, type suffixes, and a single decimal point are consumed into
    /// one `Num`. `1..n` stops before the range dots.
    fn number(&mut self) {
        let line = self.line;
        let mut seen_dot = false;
        while let Some(b) = self.peek(0) {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else if b == b'.'
                && !seen_dot
                && self.peek(1).is_some_and(|n| n.is_ascii_digit())
            {
                seen_dot = true;
                self.pos += 1;
            } else {
                break;
            }
        }
        self.out.push(Token { tok: Tok::Num, line });
    }

    /// An identifier — or a string literal with an `r`/`b`/`br` prefix, or
    /// a raw identifier `r#name`.
    fn ident_or_prefixed_literal(&mut self) {
        let line = self.line;
        let start = self.pos;
        while self.peek(0).is_some_and(is_ident_continue) {
            self.pos += 1;
        }
        let ident = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        let prefix_len = self.pos - start;
        match ident.as_str() {
            // `b'x'` byte char.
            "b" if self.peek(0) == Some(b'\'') => self.char_or_lifetime(),
            // `b"…"` byte string — escape-aware, unlike the raw forms.
            "b" if self.peek(0) == Some(b'"') => self.string(),
            // `r"…"` and `br#"…"#` raw string forms. `try_raw_string`
            // leaves the position alone when this is a plain identifier
            // followed by `#` (e.g. a raw identifier).
            "r" | "br" => {
                self.pos = start;
                if self.try_raw_string(prefix_len) {
                    return;
                }
                self.pos = start + prefix_len;
                // `r#type` raw identifier: skip the hash, lex the name.
                if ident == "r" && self.peek(0) == Some(b'#') {
                    let name_start = self.pos + 1;
                    if self.peek(1).is_some_and(is_ident_start) {
                        self.pos += 1;
                        while self.peek(0).is_some_and(is_ident_continue) {
                            self.pos += 1;
                        }
                        let name =
                            String::from_utf8_lossy(&self.bytes[name_start..self.pos]).into_owned();
                        self.out.push(Token { tok: Tok::Ident(name), line });
                        return;
                    }
                }
                self.out.push(Token { tok: Tok::Ident(ident), line });
            }
            _ => self.out.push(Token { tok: Tok::Ident(ident), line }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = r##"
            // HashMap in a comment
            /* Instant in /* a nested */ block */
            let x = "HashMap::new() Instant";
            let y = r#"SystemTime"# ;
            let z = 'I';
        "##;
        let ids = idents(src);
        assert_eq!(ids, ["let", "x", "let", "y", "let", "z"]);
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(ids.contains(&"str".to_string()));
        assert!(!ids.contains(&"a".to_string()), "{ids:?}");
    }

    #[test]
    fn char_literals_with_escapes() {
        let ids = idents(r"let q = '\''; let n = '\n'; let u = '\u{1F600}'; after");
        assert!(ids.contains(&"after".to_string()), "{ids:?}");
    }

    #[test]
    fn raw_identifiers_and_byte_strings() {
        let ids = idents(r##"let r#type = b"bytes"; let b = br#"raw"#; r"plain";"##);
        assert_eq!(ids, ["let", "type", "let", "b"]);
    }

    #[test]
    fn line_numbers_track_through_multiline_constructs() {
        let src = "let a = \"x\ny\";\nlet b = 1;\n/* c\nd */ let e = 2;";
        let tokens = lex(src);
        let b = tokens.iter().find(|t| t.tok == Tok::Ident("b".into())).unwrap();
        assert_eq!(b.line, 3);
        let e = tokens.iter().find(|t| t.tok == Tok::Ident("e".into())).unwrap();
        assert_eq!(e.line, 5);
    }

    #[test]
    fn numbers_do_not_eat_range_operators() {
        let puncts: Vec<char> = lex("for i in 0..n { a[i] = 1.5e-3; }")
            .iter()
            .filter_map(|t| match t.tok {
                Tok::Punct(c) => Some(c),
                _ => None,
            })
            .collect();
        assert!(puncts.windows(2).any(|w| w == ['.', '.']), "{puncts:?}");
    }

    /// Regression: a quote *inside* a raw string must not desynchronize
    /// masking — everything after the true closing delimiter is code.
    #[test]
    fn raw_strings_with_inner_quotes_do_not_desync() {
        let cases = [
            "let y = r#\"a \" b\"#; let t = Instant::now();",
            "let y = r\"a\\\"; let t = Instant::now();", // `\` is literal in raw strings
            "let y = br##\"x \"# y\"##; let t = Instant::now();",
            "let s = r#\"/* \"#; let t = Instant::now();", // comment opener inside raw string
            "let s = r#\"\"#; let t = Instant::now();",    // empty raw string
        ];
        for src in cases {
            assert!(idents(src).contains(&"Instant".to_string()), "desync on {src:?}");
        }
        // And the converse: contents of a raw string never leak as tokens.
        assert!(!idents("let y = r##\"Instant SystemTime\"##;").contains(&"Instant".to_string()));
    }

    /// Regression: inner `/* */` pairs inside block comments nest like
    /// rustc's, and quotes inside comments do not open strings.
    #[test]
    fn nested_block_comments_do_not_desync() {
        let cases = [
            "/* a /* b */ c */ let t = Instant::now();",
            "/* \" */ let t = Instant::now(); /* \" */",
            "/* /*/ */ */ let t = Instant::now();",
            "/** doc /* inner */ still doc */ let t = Instant::now();",
        ];
        for src in cases {
            let ids = idents(src);
            assert!(ids.contains(&"Instant".to_string()), "desync on {src:?}");
            assert!(!ids.contains(&"a".to_string()) && !ids.contains(&"doc".to_string()));
        }
        // Unbalanced inner opener comments out the rest of the file.
        assert!(!idents("/* a /* b */ let t = Instant::now();").contains(&"Instant".to_string()));
    }

    /// Regression: a multi-byte char literal is a char literal, not a
    /// lifetime — the old byte-offset check misread `'é'` as `'é` + a
    /// stray quote that swallowed the rest of the line.
    #[test]
    fn multibyte_char_literals_are_not_lifetimes() {
        let ids = idents("let c = 'é'; let t = Instant::now();");
        assert!(ids.contains(&"Instant".to_string()), "{ids:?}");
        let ids = idents("let c = '\u{1F600}'; let t = Instant::now();");
        assert!(ids.contains(&"Instant".to_string()), "{ids:?}");
        // Lifetimes still lex as lifetimes, including non-ASCII ones.
        let ids = idents("fn f<'é>(x: &'é str) -> &'é str { x } Instant");
        assert!(ids.contains(&"Instant".to_string()), "{ids:?}");
    }

    #[test]
    fn garbage_never_panics() {
        for bad in ["\"unterminated", "/* open", "'", "r#\"open", "b'", "1.", "'\\", "r#"] {
            let _ = lex(bad);
        }
    }
}
