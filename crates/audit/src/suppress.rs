//! The suppression-comment grammar: `// audit: allow(<rule>) -- <reason>`.
//!
//! A suppression silences matching violations **on its own line or the
//! line directly below it** (trailing-comment and line-above placement).
//! The reason is mandatory — a suppression without one is itself a
//! violation — and so is being *used*: a suppression that silences
//! nothing is reported as stale, so allow-comments can never outlive the
//! code they excuse.

use crate::lexer::LineComment;
use std::fmt;

/// The rules a suppression comment may name. `closure-determinism` also
/// honors the matching per-file rule's suppression at the same line
/// (`determinism-time`/`-hash`) so one allow-comment keeps silencing both
/// layers; the closure *budget* rules are deliberately not suppressible —
/// the budget itself is the escape hatch.
pub const SUPPRESSIBLE_RULES: &[&str] = &[
    "determinism-time",
    "determinism-hash",
    "enum-exhaustive",
    "closure-alloc",
    "closure-determinism",
    "reassociation-boundary",
];

/// One parsed `audit: allow` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// The rule being allowed (one of [`SUPPRESSIBLE_RULES`]).
    pub rule: String,
    /// The mandatory justification after `--`.
    pub reason: String,
}

impl Suppression {
    /// Whether this suppression covers a violation reported on
    /// `violation_line`.
    pub fn covers(&self, violation_line: u32) -> bool {
        violation_line == self.line || violation_line == self.line + 1
    }
}

impl fmt::Display for Suppression {
    /// The canonical comment form (without the leading `//`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, " audit: allow({}) -- {}", self.rule, self.reason)
    }
}

/// Why an `audit:`-prefixed comment failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuppressError {
    /// The text after `audit:` is not `allow(<rule>)`.
    BadSyntax,
    /// The named rule is not one the analyzer knows.
    UnknownRule(String),
    /// The ` -- <reason>` tail is missing or empty.
    MissingReason,
}

impl fmt::Display for SuppressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuppressError::BadSyntax => {
                write!(f, "expected `audit: allow(<rule>) -- <reason>`")
            }
            SuppressError::UnknownRule(r) => {
                write!(f, "unknown rule `{r}` (known: {})", SUPPRESSIBLE_RULES.join(", "))
            }
            SuppressError::MissingReason => {
                write!(f, "suppression needs a ` -- <reason>` justification")
            }
        }
    }
}

/// Parses one line comment's text (the part after `//`).
///
/// Returns `None` for ordinary comments, `Some(Ok)` for a well-formed
/// suppression, and `Some(Err)` for a comment that *claims* to be an
/// audit directive but is malformed — those are violations, never
/// silently ignored. Total: never panics on any input.
pub fn parse_comment(c: &LineComment) -> Option<Result<Suppression, SuppressError>> {
    let text = c.text.trim_start_matches(['/', '!']).trim();
    let rest = text.strip_prefix("audit:")?.trim_start();
    Some(parse_directive(rest).map(|(rule, reason)| Suppression {
        line: c.line,
        rule,
        reason,
    }))
}

fn parse_directive(rest: &str) -> Result<(String, String), SuppressError> {
    let rest = rest.strip_prefix("allow").ok_or(SuppressError::BadSyntax)?.trim_start();
    let rest = rest.strip_prefix('(').ok_or(SuppressError::BadSyntax)?;
    let close = rest.find(')').ok_or(SuppressError::BadSyntax)?;
    let rule = rest[..close].trim();
    if !SUPPRESSIBLE_RULES.contains(&rule) {
        return Err(SuppressError::UnknownRule(rule.to_string()));
    }
    let tail = rest[close + 1..].trim_start();
    let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
    if reason.is_empty() {
        return Err(SuppressError::MissingReason);
    }
    Ok((rule.to_string(), reason.to_string()))
}

/// Extracts every suppression from a file's comments, splitting malformed
/// directives out as `(line, error)` pairs.
pub fn collect(
    comments: &[LineComment],
) -> (Vec<Suppression>, Vec<(u32, SuppressError)>) {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        match parse_comment(c) {
            Some(Ok(s)) => ok.push(s),
            Some(Err(e)) => bad.push((c.line, e)),
            None => {}
        }
    }
    (ok, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(text: &str) -> LineComment {
        LineComment { line: 7, text: text.to_string() }
    }

    #[test]
    fn well_formed_suppression_parses() {
        let s = parse_comment(&comment(" audit: allow(determinism-time) -- deadline escape hatch"))
            .unwrap()
            .unwrap();
        assert_eq!(s.rule, "determinism-time");
        assert_eq!(s.reason, "deadline escape hatch");
        assert!(s.covers(7) && s.covers(8) && !s.covers(9) && !s.covers(6));
    }

    #[test]
    fn canonical_form_round_trips() {
        let s = Suppression {
            line: 7,
            rule: "closure-alloc".into(),
            reason: "pool refill, amortized".into(),
        };
        let back = parse_comment(&comment(&s.to_string())).unwrap().unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn ordinary_comments_are_not_directives() {
        for text in [" normal comment", "/ doc comment", "! inner doc", " auditing notes: x"] {
            assert_eq!(parse_comment(&comment(text)), None, "{text:?}");
        }
    }

    #[test]
    fn malformed_directives_are_errors_not_ignored() {
        use SuppressError::*;
        let cases = [
            (" audit: allow(determinism-time)", MissingReason),
            (" audit: allow(determinism-time) --   ", MissingReason),
            (" audit: allow(no-such-rule) -- x", UnknownRule("no-such-rule".into())),
            (" audit: allow determinism-time -- x", BadSyntax),
            (" audit: deny(determinism-time) -- x", BadSyntax),
            (" audit: allow(determinism-time -- x", BadSyntax),
        ];
        for (text, want) in cases {
            assert_eq!(parse_comment(&comment(text)), Some(Err(want)), "{text:?}");
        }
    }

    #[test]
    fn collect_splits_good_from_bad() {
        let comments = vec![
            comment(" audit: allow(determinism-hash) -- emission is sorted downstream"),
            comment(" plain"),
            comment(" audit: allow(bogus) -- why"),
        ];
        let (ok, bad) = collect(&comments);
        assert_eq!(ok.len(), 1);
        assert_eq!(bad.len(), 1);
    }
}
