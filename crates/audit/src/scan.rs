//! Per-file scanning: test-region detection, the determinism rules, the
//! per-body pattern and panic-site scans the closure rules run, and the
//! panic-site counters behind the ratchet.
//!
//! Everything here operates on the lexed token stream of one file. Test
//! code — `#[cfg(test)]` modules and `#[test]`/`#[bench]` functions — is
//! excluded from every rule: the invariants protect the *shipped* engine,
//! and tests legitimately panic, allocate, and use hash containers.

use crate::lexer::{Tok, Token};

/// One file, lexed and pre-processed for rule scans.
#[derive(Debug, Clone)]
pub struct FileScan {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The raw source (kept for substring checks on schema-tag strings).
    pub raw: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Whether each token sits inside test-only code (parallel to
    /// `tokens`).
    in_test: Vec<bool>,
}

impl FileScan {
    /// Lexes and pre-processes one source file.
    pub fn new(path: impl Into<String>, source: &str) -> FileScan {
        let tokens = crate::lexer::lex(source);
        let in_test = test_mask(&tokens);
        FileScan { path: path.into(), raw: source.to_string(), tokens, in_test }
    }

    /// Whether the token at `idx` is inside `#[cfg(test)]` / `#[test]`
    /// code.
    pub fn is_test(&self, idx: usize) -> bool {
        self.in_test.get(idx).copied().unwrap_or(false)
    }

    fn ident(&self, idx: usize) -> Option<&str> {
        match self.tokens.get(idx).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s),
            _ => None,
        }
    }

    fn punct(&self, idx: usize) -> Option<char> {
        match self.tokens.get(idx).map(|t| &t.tok) {
            Some(Tok::Punct(c)) => Some(*c),
            _ => None,
        }
    }
}

/// Marks every token inside test-only code. Detected shapes:
///
/// * `#[cfg(test)] mod name { … }` (and `cfg(all(test, …))` etc. — any
///   attribute whose tokens contain both `cfg` and `test`);
/// * `#[test] fn name() { … }` and `#[bench]` likewise;
/// * attribute stacks: intervening attributes/doc comments between the
///   marker attribute and the item are handled.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    let mut pending_test_attr = false;
    while i < tokens.len() {
        if matches!(&tokens[i].tok, Tok::Punct('#'))
            && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
        {
            // Scan the attribute's bracket-balanced token range.
            let attr_start = i + 2;
            let mut depth = 1i32;
            let mut j = attr_start;
            let mut saw_cfg = false;
            let mut saw_test = false;
            let mut saw_not = false;
            while j < tokens.len() && depth > 0 {
                match &tokens[j].tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => depth -= 1,
                    Tok::Ident(s) => match s.as_str() {
                        "cfg" => saw_cfg = true,
                        "test" | "bench" => saw_test = true,
                        "not" => saw_not = true,
                        _ => {}
                    },
                    _ => {}
                }
                j += 1;
            }
            // `#[test]` / `#[bench]` alone, or `#[cfg(… test …)]` — but
            // `#[cfg(not(test))]` guards *production* code and must stay
            // scanned (conservative: any `not` disqualifies the marker).
            let is_marker = saw_test && !saw_not && (saw_cfg || j == attr_start + 2);
            if is_marker {
                pending_test_attr = true;
                // The attribute tokens themselves are test-only too.
                for m in mask.iter_mut().take(j).skip(i) {
                    *m = true;
                }
            }
            i = j;
            continue;
        }
        if pending_test_attr {
            // Mark everything from here through the end of the item the
            // attribute is attached to: either a braced body or a
            // semicolon-terminated item, whichever comes first at depth 0.
            let start = i;
            let mut j = i;
            let mut end = tokens.len();
            while j < tokens.len() {
                match &tokens[j].tok {
                    Tok::Punct(';') => {
                        end = j + 1;
                        break;
                    }
                    Tok::Punct('{') => {
                        end = matching_brace(tokens, j).map_or(tokens.len(), |e| e + 1);
                        break;
                    }
                    _ => j += 1,
                }
            }
            for m in mask.iter_mut().take(end).skip(start) {
                *m = true;
            }
            pending_test_attr = false;
            i = end;
            continue;
        }
        i += 1;
    }
    mask
}

/// The index just past the `}` matching the `{` at `open` (which must be
/// a `{` token), or `None` if unbalanced.
fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// A banned-identifier hit: `(line, identifier)`.
pub type IdentHit = (u32, String);

/// Finds non-test occurrences of any identifier in `banned`.
pub fn find_banned_idents(scan: &FileScan, banned: &[&str]) -> Vec<IdentHit> {
    let mut hits = Vec::new();
    for (i, t) in scan.tokens.iter().enumerate() {
        if scan.is_test(i) {
            continue;
        }
        if let Tok::Ident(s) = &t.tok {
            if banned.contains(&s.as_str()) {
                hits.push((t.line, s.clone()));
            }
        }
    }
    hits
}

/// Per-file panic-site counts feeding the ratchet. Each field counts
/// *non-test* occurrences.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PanicCounts {
    /// `.unwrap()` calls.
    pub unwrap: usize,
    /// `.expect(…)` calls.
    pub expect: usize,
    /// `panic!`, `todo!`, `unimplemented!` invocations.
    pub panic: usize,
    /// `unreachable!` invocations.
    pub unreachable: usize,
    /// Direct index expressions `x[…]` (including slices `x[a..b]`).
    pub index: usize,
}

impl PanicCounts {
    /// Sum of all categories.
    pub fn total(&self) -> usize {
        self.unwrap + self.expect + self.panic + self.unreachable + self.index
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &PanicCounts) {
        self.unwrap += other.unwrap;
        self.expect += other.expect;
        self.panic += other.panic;
        self.unreachable += other.unreachable;
        self.index += other.index;
    }

    /// Whether any category of `self` exceeds the same category of
    /// `budget`.
    pub fn exceeds(&self, budget: &PanicCounts) -> Option<String> {
        let pairs = [
            ("unwrap", self.unwrap, budget.unwrap),
            ("expect", self.expect, budget.expect),
            ("panic", self.panic, budget.panic),
            ("unreachable", self.unreachable, budget.unreachable),
            ("index", self.index, budget.index),
        ];
        let over: Vec<String> = pairs
            .iter()
            .filter(|(_, actual, allowed)| actual > allowed)
            .map(|(name, actual, allowed)| format!("{name} {actual} > {allowed}"))
            .collect();
        if over.is_empty() {
            None
        } else {
            Some(over.join(", "))
        }
    }
}

/// Keywords that can directly precede a `[` that opens an array *literal*
/// rather than an index expression (`return [a, b]`, `as [u8; 2]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "in", "return", "break", "mut", "ref", "where", "if", "else", "match", "move", "dyn",
    "impl", "fn", "let", "const", "static", "type", "use", "pub", "crate", "self", "super",
    "while", "loop", "for", "yield",
];

/// Counts the file's non-test panic sites.
pub fn count_panic_sites(scan: &FileScan) -> PanicCounts {
    let mut counts = PanicCounts::default();
    if scan.tokens.is_empty() {
        return counts;
    }
    for (_, category) in panic_sites_in(scan, 0, scan.tokens.len() - 1) {
        counts.bump(category);
    }
    counts
}

/// A banned pattern for hot-path bodies, parsed from its policy string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BannedPattern {
    /// `.name` — a method call, e.g. `.collect`.
    Method(String),
    /// `name!` — a macro invocation, e.g. `vec!`, `format!`.
    Macro(String),
    /// `A::b` — a two-segment path, e.g. `Vec::new`, `Box::new`.
    Path(String, String),
}

impl BannedPattern {
    /// Parses the policy spelling: `.collect`, `vec!`, or `Vec::new`.
    pub fn parse(s: &str) -> Option<BannedPattern> {
        if let Some(name) = s.strip_prefix('.') {
            return Some(BannedPattern::Method(name.to_string()));
        }
        if let Some(name) = s.strip_suffix('!') {
            return Some(BannedPattern::Macro(name.to_string()));
        }
        let (a, b) = s.split_once("::")?;
        Some(BannedPattern::Path(a.to_string(), b.to_string()))
    }

    /// The policy spelling back.
    pub fn display(&self) -> String {
        match self {
            BannedPattern::Method(m) => format!(".{m}"),
            BannedPattern::Macro(m) => format!("{m}!"),
            BannedPattern::Path(a, b) => format!("{a}::{b}"),
        }
    }

    fn matches_at(&self, scan: &FileScan, i: usize) -> bool {
        match self {
            BannedPattern::Method(name) => {
                scan.punct(i.wrapping_sub(1)) == Some('.') && scan.ident(i) == Some(name)
            }
            BannedPattern::Macro(name) => {
                scan.ident(i) == Some(name) && scan.punct(i + 1) == Some('!')
            }
            BannedPattern::Path(a, b) => {
                scan.ident(i) == Some(a)
                    && scan.punct(i + 1) == Some(':')
                    && scan.punct(i + 2) == Some(':')
                    && scan.ident(i + 3) == Some(b)
            }
        }
    }
}

/// Finds non-test occurrences of any identifier in `banned` within the
/// inclusive token range — the closure rules scan one function body at
/// a time instead of the whole file.
pub fn find_banned_idents_in(
    scan: &FileScan,
    open: usize,
    close: usize,
    banned: &[&str],
) -> Vec<IdentHit> {
    let mut hits = Vec::new();
    for i in open..=close.min(scan.tokens.len().saturating_sub(1)) {
        if scan.is_test(i) {
            continue;
        }
        if let Tok::Ident(s) = &scan.tokens[i].tok {
            if banned.contains(&s.as_str()) {
                hits.push((scan.tokens[i].line, s.clone()));
            }
        }
    }
    hits
}

/// Finds banned-pattern matches within the inclusive token range:
/// `(line, pattern spelling)` pairs in source order.
pub fn find_banned_patterns_in(
    scan: &FileScan,
    open: usize,
    close: usize,
    banned: &[BannedPattern],
) -> Vec<(u32, String)> {
    let mut hits = Vec::new();
    for i in open..=close.min(scan.tokens.len().saturating_sub(1)) {
        for pat in banned {
            if pat.matches_at(scan, i) {
                hits.push((scan.tokens[i].line, pat.display()));
            }
        }
    }
    hits
}

/// One panic site within a token range: `(token index, category)`. The
/// token index (not the line) identifies the site, so overlapping
/// function bodies — a nested `fn` inside another — never double-count
/// when a closure contains both.
pub type PanicSite = (usize, &'static str);

/// Lists the non-test panic sites within the inclusive token range.
pub fn panic_sites_in(scan: &FileScan, open: usize, close: usize) -> Vec<PanicSite> {
    let mut sites = Vec::new();
    for i in open..=close.min(scan.tokens.len().saturating_sub(1)) {
        if scan.is_test(i) {
            continue;
        }
        match &scan.tokens[i].tok {
            Tok::Ident(s) => {
                let method_call = scan.punct(i.wrapping_sub(1)) == Some('.')
                    && scan.punct(i + 1) == Some('(');
                let macro_call = scan.punct(i + 1) == Some('!');
                match s.as_str() {
                    "unwrap" if method_call => sites.push((i, "unwrap")),
                    "expect" if method_call => sites.push((i, "expect")),
                    "panic" | "todo" | "unimplemented" if macro_call => {
                        sites.push((i, "panic"));
                    }
                    "unreachable" if macro_call => sites.push((i, "unreachable")),
                    _ => {}
                }
            }
            Tok::Punct('[') if i > 0 => {
                let is_index = match &scan.tokens[i - 1].tok {
                    Tok::Ident(s) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
                    Tok::Punct(')') | Tok::Punct(']') => true,
                    _ => false,
                };
                if is_index {
                    sites.push((i, "index"));
                }
            }
            _ => {}
        }
    }
    sites
}

impl PanicCounts {
    /// Adds one categorized site (as produced by [`panic_sites_in`]).
    pub fn bump(&mut self, category: &str) {
        match category {
            "unwrap" => self.unwrap += 1,
            "expect" => self.expect += 1,
            "panic" => self.panic += 1,
            "unreachable" => self.unreachable += 1,
            "index" => self.index += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> FileScan {
        FileScan::new("test.rs", src)
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let src = "
            fn real() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { y.unwrap(); z.unwrap(); }
            }
        ";
        let counts = count_panic_sites(&scan(src));
        assert_eq!(counts.unwrap, 1, "only the non-test unwrap counts");
    }

    #[test]
    fn test_attr_functions_are_masked_outside_modules() {
        let src = "
            #[test]
            fn standalone() { HashMap::new(); }
            fn real(m: &HashMap<u32, u32>) {}
        ";
        let hits = find_banned_idents(&scan(src), &["HashMap"]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 4);
    }

    #[test]
    fn cfg_test_on_use_item_masks_only_that_item() {
        let src = "
            #[cfg(test)]
            use std::collections::HashSet;
            fn real() { let t = Instant::now(); }
        ";
        let hits = find_banned_idents(&scan(src), &["HashSet", "Instant"]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, "Instant");
    }

    #[test]
    fn panic_counting_distinguishes_categories() {
        let src = r#"
            fn f(v: &[u32], o: Option<u32>) -> u32 {
                let a = v[0];
                let b = o.unwrap();
                let c = o.expect("msg");
                if a > 9 { panic!("no") }
                match a { 0 => unreachable!(), _ => {} }
                let s = &v[1..3];
                b + c + s[0]
            }
        "#;
        let counts = count_panic_sites(&scan(src));
        assert_eq!(
            counts,
            PanicCounts { unwrap: 1, expect: 1, panic: 1, unreachable: 1, index: 3 }
        );
    }

    #[test]
    fn index_heuristic_skips_literals_attrs_and_types() {
        let src = "
            #[derive(Clone)]
            struct S { xs: [f64; 4] }
            fn f() -> [u8; 2] { return [1, 2]; }
            fn g(s: &S) -> f64 { s.xs[0] }
            fn h(m: &Vec<Vec<u8>>) -> u8 { m[0][1] }
        ";
        let counts = count_panic_sites(&scan(src));
        assert_eq!(counts.index, 3, "s.xs[0], m[0], [0][1]");
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap_or(3) + o.unwrap_or_default() }";
        assert_eq!(count_panic_sites(&scan(src)).unwrap, 0);
    }

    #[test]
    fn hot_path_scan_flags_only_listed_functions() {
        let src = r#"
            fn hot(&mut self) {
                let v: Vec<u32> = xs.iter().collect();
                let w = vec![1, 2];
                let s = format!("x");
            }
            fn cold(&mut self) { let v = vec![9]; }
        "#;
        let banned: Vec<BannedPattern> =
            [".collect", "vec!", "format!", "Vec::new"].iter().map(|s| BannedPattern::parse(s).unwrap()).collect();
        let scan = scan(src);
        // `hot`'s body: from its opening brace to the matching one.
        let open = (0..scan.tokens.len()).find(|&i| scan.punct(i) == Some('{')).unwrap();
        let close = matching_brace(&scan.tokens, open).unwrap();
        let hits = find_banned_patterns_in(&scan, open, close, &banned);
        assert_eq!(hits.len(), 3, "{hits:?}");
        assert!(hits.iter().all(|(line, _)| (3..=5).contains(line)), "{hits:?}");
    }
}
