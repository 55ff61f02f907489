//! The machine-readable rule policy (`audit.policy.json` at the
//! workspace root, schema `netmax-audit/policy/v2`).
//!
//! The policy is data, not code, so a reviewer can see every allowlist
//! entry, closure root set, and panic budget in one committed JSON
//! document — and so the ratchet (budgets that may only decrease) is a
//! one-line diff when a panic site is removed.
//!
//! The call-graph layer is declared as named **root sets** from which
//! the analyzer computes reachability closures, each with an optional
//! panic budget over its closure, plus the `reassociation` boundary
//! configuration for the `strict_numerics` closure. This is the only
//! schema: a document with another tag, or with a top-level or
//! `determinism` field this module does not define, is rejected.

use crate::scan::PanicCounts;
use netmax_json::{FromJson, Json, JsonError, ToJson};

/// Schema tag of the current policy document.
pub const POLICY_SCHEMA: &str = "netmax-audit/policy/v2";

/// Every top-level field of a policy document; anything else is an
/// error, so a retired or misspelled key is never silently ignored.
const POLICY_FIELDS: &[&str] = &[
    "schema",
    "exclude",
    "determinism",
    "hot_path_banned",
    "panic_budgets",
    "enums",
    "required_text",
    "root_sets",
    "reassociation",
];

/// Every field of the `determinism` object, held to the same rule.
const DETERMINISM_FIELDS: &[&str] = &["time_banned", "time_allowlist", "hash_banned"];

/// The determinism rule's configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterminismPolicy {
    /// Identifiers banned as real-time clocks (`Instant`, `SystemTime`).
    pub time_banned: Vec<String>,
    /// Files (exact path) or directories (trailing `/`) where real-time
    /// clocks are legitimate: bench timing, CLI deadlines.
    pub time_allowlist: Vec<String>,
    /// Identifiers banned as iteration-order-nondeterministic containers
    /// in every library source file.
    pub hash_banned: Vec<String>,
}

/// One root-set (or prune-set) entry: functions named by file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootEntry {
    /// Workspace-relative file path.
    pub file: String,
    /// Bare function names: every `fn` in the file with that name is
    /// selected — trait defaults and impls alike.
    pub functions: Vec<String>,
}

/// One crate's committed panic budget — the ratchet state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicBudget {
    /// The crate's source directory, e.g. `crates/core`.
    pub crate_dir: String,
    /// Allowed `.unwrap()` count.
    pub unwrap: usize,
    /// Allowed `.expect(…)` count.
    pub expect: usize,
    /// Allowed `panic!`/`todo!`/`unimplemented!` count.
    pub panic: usize,
    /// Allowed `unreachable!` count.
    pub unreachable: usize,
    /// Allowed direct-index-expression count.
    pub index: usize,
}

/// One enum exhaustiveness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumCheck {
    /// The enum's name.
    pub name: String,
    /// The file declaring it.
    pub decl: String,
    /// Files in which **every** variant must appear qualified
    /// (`Enum::Variant`; `Self::Variant` also counts in the decl file).
    pub each: Vec<String>,
    /// Files whose **union** must cover every variant (test coverage may
    /// be spread across suites).
    pub union: Vec<String>,
}

/// One named closure root set. The closure is everything reachable from
/// `roots` through the call graph, never entering `prune` — prunes are
/// the policy-visible escape hatch for conservative false edges (a cold
/// function that merely shares a method name with a hot one), reviewed
/// in the committed policy instead of hidden in analyzer code.
///
/// Set names carry the rule semantics: `hot_path` gets the allocation
/// ban, `step_loop` gets the closure panic ratchet, `strict_numerics`
/// gets the reassociation boundary; every set gets the determinism ban.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootSet {
    /// The set's name (`hot_path`, `step_loop`, `strict_numerics`, …).
    pub name: String,
    /// Functions the closure starts from.
    pub roots: Vec<RootEntry>,
    /// Functions the traversal must never enter.
    pub prune: Vec<RootEntry>,
    /// Panic budget ratcheted over this set's closure; any set may carry
    /// one. The `step_loop` set's is the ratchet on everything
    /// `Session::step` can reach, finer than the per-crate budgets
    /// because cold code does not dilute it.
    pub budget: Option<PanicCounts>,
}

/// The reassociation-boundary configuration: the `strict_numerics`
/// closure may only call numeric helpers from the approved list — the
/// seam a future reassociated fast-math tier plugs into without any
/// bitwise-pinned kernel noticing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reassociation {
    /// Files whose functions count as numeric helpers: any call from
    /// the closure into these modules must be approved.
    pub modules: Vec<String>,
    /// Float-intrinsic method names (`exp`, `mul_add`, …): unresolved
    /// calls with these names must be approved too.
    pub intrinsics: Vec<String>,
    /// The approved callee names.
    pub approved: Vec<String>,
}

/// A raw-text requirement: `needle` must appear somewhere in `file`
/// (string literals included — this is how schema-tag coverage is
/// pinned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequiredText {
    /// Workspace-relative file path.
    pub file: String,
    /// Substring that must occur in the file's raw text.
    pub needle: String,
}

/// The complete audit policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Policy {
    /// Directory prefixes excluded from every scan (fixture trees).
    pub exclude: Vec<String>,
    /// Determinism rule configuration.
    pub determinism: DeterminismPolicy,
    /// Allocation patterns (`.collect`, `vec!`, `Vec::new` spellings)
    /// banned in every body of the `hot_path` closure.
    pub hot_path_banned: Vec<String>,
    /// Per-crate panic budgets.
    pub panic_budgets: Vec<PanicBudget>,
    /// Named closure root sets.
    pub root_sets: Vec<RootSet>,
    /// Reassociation-boundary configuration for `strict_numerics`.
    pub reassociation: Option<Reassociation>,
    /// Enum exhaustiveness checks.
    pub enums: Vec<EnumCheck>,
    /// Raw-text requirements.
    pub required_text: Vec<RequiredText>,
}

impl Policy {
    /// Whether `path` matches an allowlist: exact entries match the whole
    /// path, entries with a trailing `/` match as directory prefixes.
    pub fn allowlisted(list: &[String], path: &str) -> bool {
        list.iter().any(|entry| {
            if let Some(dir) = entry.strip_suffix('/') {
                path.strip_prefix(dir).is_some_and(|rest| rest.starts_with('/'))
            } else {
                entry == path
            }
        })
    }
}

fn string_vec(v: &Json, key: &str) -> Result<Vec<String>, JsonError> {
    Vec::<String>::from_json(v.field(key)?)
}

fn entry_vec(v: &Json, key: &str) -> Result<Vec<RootEntry>, JsonError> {
    // `prune` may be omitted from a root set entirely.
    let Some(arr) = v.get(key) else { return Ok(Vec::new()) };
    arr.as_arr()?
        .iter()
        .map(|e| {
            Ok(RootEntry {
                file: String::from_json(e.field("file")?)?,
                functions: string_vec(e, "functions")?,
            })
        })
        .collect()
}

/// Rejects an object field outside `known`.
fn known_fields(v: &Json, known: &[&str], what: &str) -> Result<(), JsonError> {
    if let Json::Obj(pairs) = v {
        if let Some((key, _)) = pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            return Err(JsonError::schema(format!("unknown field `{key}` in {what}")));
        }
    }
    Ok(())
}

fn counts_from(v: &Json) -> Result<PanicCounts, JsonError> {
    Ok(PanicCounts {
        unwrap: v.field("unwrap")?.as_usize()?,
        expect: v.field("expect")?.as_usize()?,
        panic: v.field("panic")?.as_usize()?,
        unreachable: v.field("unreachable")?.as_usize()?,
        index: v.field("index")?.as_usize()?,
    })
}

impl FromJson for Policy {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let schema = v.field("schema")?.as_str()?;
        if schema != POLICY_SCHEMA {
            return Err(JsonError::schema(format!(
                "unsupported policy schema `{schema}` (expected `{POLICY_SCHEMA}`)"
            )));
        }
        known_fields(v, POLICY_FIELDS, "policy")?;
        let det = v.field("determinism")?;
        known_fields(det, DETERMINISM_FIELDS, "policy determinism")?;
        Ok(Policy {
            exclude: string_vec(v, "exclude")?,
            determinism: DeterminismPolicy {
                time_banned: string_vec(det, "time_banned")?,
                time_allowlist: string_vec(det, "time_allowlist")?,
                hash_banned: string_vec(det, "hash_banned")?,
            },
            hot_path_banned: string_vec(v, "hot_path_banned")?,
            panic_budgets: v
                .field("panic_budgets")?
                .as_arr()?
                .iter()
                .map(|e| {
                    Ok(PanicBudget {
                        crate_dir: String::from_json(e.field("crate")?)?,
                        unwrap: e.field("unwrap")?.as_usize()?,
                        expect: e.field("expect")?.as_usize()?,
                        panic: e.field("panic")?.as_usize()?,
                        unreachable: e.field("unreachable")?.as_usize()?,
                        index: e.field("index")?.as_usize()?,
                    })
                })
                .collect::<Result<_, JsonError>>()?,
            root_sets: v
                .field("root_sets")?
                .as_arr()?
                .iter()
                .map(|e| {
                    Ok(RootSet {
                        name: String::from_json(e.field("name")?)?,
                        roots: entry_vec(e, "roots")?,
                        prune: entry_vec(e, "prune")?,
                        budget: e.get("budget").map(counts_from).transpose()?,
                    })
                })
                .collect::<Result<_, JsonError>>()?,
            reassociation: match v.get("reassociation") {
                None => None,
                Some(r) => Some(Reassociation {
                    modules: string_vec(r, "modules")?,
                    intrinsics: string_vec(r, "intrinsics")?,
                    approved: string_vec(r, "approved")?,
                }),
            },
            enums: v
                .field("enums")?
                .as_arr()?
                .iter()
                .map(|e| {
                    Ok(EnumCheck {
                        name: String::from_json(e.field("enum")?)?,
                        decl: String::from_json(e.field("decl")?)?,
                        each: string_vec(e, "each")?,
                        union: string_vec(e, "union")?,
                    })
                })
                .collect::<Result<_, JsonError>>()?,
            required_text: v
                .field("required_text")?
                .as_arr()?
                .iter()
                .map(|e| {
                    Ok(RequiredText {
                        file: String::from_json(e.field("file")?)?,
                        needle: String::from_json(e.field("needle")?)?,
                    })
                })
                .collect::<Result<_, JsonError>>()?,
        })
    }
}

fn entries_json(entries: &[RootEntry]) -> Json {
    Json::Arr(
        entries
            .iter()
            .map(|e| {
                Json::obj([("file", e.file.to_json()), ("functions", e.functions.to_json())])
            })
            .collect(),
    )
}

fn counts_to(c: &PanicCounts) -> Json {
    Json::obj([
        ("unwrap", c.unwrap.to_json()),
        ("expect", c.expect.to_json()),
        ("panic", c.panic.to_json()),
        ("unreachable", c.unreachable.to_json()),
        ("index", c.index.to_json()),
    ])
}

impl ToJson for Policy {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::Str(POLICY_SCHEMA.into())),
            ("exclude", self.exclude.to_json()),
            (
                "determinism",
                Json::obj([
                    ("time_banned", self.determinism.time_banned.to_json()),
                    ("time_allowlist", self.determinism.time_allowlist.to_json()),
                    ("hash_banned", self.determinism.hash_banned.to_json()),
                ]),
            ),
            ("hot_path_banned", self.hot_path_banned.to_json()),
            (
                "panic_budgets",
                Json::Arr(
                    self.panic_budgets
                        .iter()
                        .map(|b| {
                            Json::obj([
                                ("crate", b.crate_dir.to_json()),
                                ("unwrap", b.unwrap.to_json()),
                                ("expect", b.expect.to_json()),
                                ("panic", b.panic.to_json()),
                                ("unreachable", b.unreachable.to_json()),
                                ("index", b.index.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "enums",
                Json::Arr(
                    self.enums
                        .iter()
                        .map(|e| {
                            Json::obj([
                                ("enum", e.name.to_json()),
                                ("decl", e.decl.to_json()),
                                ("each", e.each.to_json()),
                                ("union", e.union.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "required_text",
                Json::Arr(
                    self.required_text
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("file", r.file.to_json()),
                                ("needle", r.needle.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "root_sets",
                Json::Arr(
                    self.root_sets
                        .iter()
                        .map(|s| {
                            let mut set_fields = vec![
                                ("name", s.name.to_json()),
                                ("roots", entries_json(&s.roots)),
                                ("prune", entries_json(&s.prune)),
                            ];
                            if let Some(b) = &s.budget {
                                set_fields.push(("budget", counts_to(b)));
                            }
                            Json::obj(set_fields)
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(r) = &self.reassociation {
            fields.push((
                "reassociation",
                Json::obj([
                    ("modules", r.modules.to_json()),
                    ("intrinsics", r.intrinsics.to_json()),
                    ("approved", r.approved.to_json()),
                ]),
            ));
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_round_trips_through_json() {
        let p = Policy {
            exclude: vec!["crates/audit/tests/fixtures/".into()],
            determinism: DeterminismPolicy {
                time_banned: vec!["Instant".into(), "SystemTime".into()],
                time_allowlist: vec!["crates/bench/src/bin/".into(), "x/y.rs".into()],
                hash_banned: vec!["HashMap".into(), "HashSet".into()],
            },
            hot_path_banned: vec![".collect".into(), "vec!".into(), "Vec::new".into()],
            panic_budgets: vec![PanicBudget {
                crate_dir: "crates/json".into(),
                unwrap: 0,
                expect: 1,
                panic: 2,
                unreachable: 3,
                index: 44,
            }],
            enums: vec![EnumCheck {
                name: "StepEvent".into(),
                decl: "a.rs".into(),
                each: vec!["a.rs".into()],
                union: vec!["b.rs".into(), "c.rs".into()],
            }],
            required_text: vec![RequiredText { file: "d.rs".into(), needle: "v1".into() }],
            root_sets: vec![RootSet {
                name: "hot_path".into(),
                roots: vec![RootEntry {
                    file: "crates/ml/src/model.rs".into(),
                    functions: vec!["loss_fleet".into()],
                }],
                prune: vec![RootEntry {
                    file: "crates/core/src/engine/gossip.rs".into(),
                    functions: vec!["start".into()],
                }],
                budget: Some(PanicCounts { unwrap: 1, ..PanicCounts::default() }),
            }],
            reassociation: Some(Reassociation {
                modules: vec!["crates/ml/src/params.rs".into()],
                intrinsics: vec!["exp".into(), "mul_add".into()],
                approved: vec!["axpy".into(), "exp".into(), "mul_add".into()],
            }),
        };
        let text = p.to_json().pretty();
        let back = Policy::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn schema_tag_is_enforced() {
        let doc = Json::parse(r#"{"schema":"netmax-audit/policy/v0"}"#).unwrap();
        assert!(Policy::from_json(&doc).is_err());
    }

    /// A minimal current-schema document with `extra` spliced in as one
    /// more top-level field and `det_extra` as one more `determinism`
    /// field.
    fn minimal_doc(schema: &str, extra: &str, det_extra: &str) -> Json {
        Json::parse(&format!(
            r#"{{
                "schema": "{schema}",
                "exclude": [],
                "determinism": {{
                    "time_banned": [], "time_allowlist": [], "hash_banned": []
                    {det_extra}
                }},
                "hot_path_banned": [],
                "panic_budgets": [],
                "enums": [],
                "required_text": [],
                "root_sets": [{{"name": "hot_path",
                               "roots": [{{"file": "src/a.rs", "functions": ["hot"]}}]}}]
                {extra}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn v1_documents_are_an_unsupported_schema() {
        // The previous tag is a typed error, and so is any top-level key
        // this schema does not define (which is what the keys only v1
        // defined now are) — nothing loads with defaults or is ignored.
        let v1 = POLICY_SCHEMA.replace("/v2", "/v1");
        let e = Policy::from_json(&minimal_doc(&v1, "", "")).unwrap_err();
        assert!(e.to_string().contains("unsupported policy schema"), "{e}");
        let e = Policy::from_json(&minimal_doc(POLICY_SCHEMA, r#", "retired_key": []"#, ""))
            .unwrap_err();
        assert!(e.to_string().contains("unknown field `retired_key`"), "{e}");
        // The retired container allowlist is refused the same way.
        let e = Policy::from_json(&minimal_doc(POLICY_SCHEMA, "", r#", "hash_allowlist": []"#))
            .unwrap_err();
        assert!(e.to_string().contains("unknown field `hash_allowlist`"), "{e}");
        assert!(Policy::from_json(&minimal_doc(POLICY_SCHEMA, "", "")).is_ok());
    }

    #[test]
    fn prune_may_be_omitted_from_a_root_set() {
        let p = Policy::from_json(&minimal_doc(POLICY_SCHEMA, "", "")).unwrap();
        assert_eq!(p.root_sets.len(), 1);
        assert!(p.root_sets[0].prune.is_empty());
    }

    #[test]
    fn allowlist_matches_exact_and_prefix() {
        let list = vec!["crates/bench/src/bin/".to_string(), "src/lib.rs".to_string()];
        assert!(Policy::allowlisted(&list, "crates/bench/src/bin/netmax-bench.rs"));
        assert!(Policy::allowlisted(&list, "src/lib.rs"));
        assert!(!Policy::allowlisted(&list, "crates/bench/src/binary.rs"));
        assert!(!Policy::allowlisted(&list, "src/lib.rs.bak"));
    }
}
