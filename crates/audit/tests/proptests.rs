//! Property tests for the analyzer front end: the lexer, scanner, item
//! parser and graph are total — arbitrary byte soup never panics them.

use netmax_audit::enums::enum_variants;
use netmax_audit::graph::CallGraph;
use netmax_audit::items::parse_items;
use netmax_audit::lexer::lex;
use netmax_audit::scan::{count_panic_sites, FileScan};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The whole front end is total: lexing, test-mask construction,
    /// panic counting, and enum extraction accept arbitrary
    /// (lossily-decoded) byte strings without panicking.
    #[test]
    fn analyzer_never_panics_on_arbitrary_input(raw in vec(0u16..256, 0..400)) {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        prop_assert!(lex(&text).len() <= text.len() + 1);
        let scan = FileScan::new("fuzz.rs", &text);
        let counts = count_panic_sites(&scan);
        prop_assert!(counts.total() <= scan.tokens.len());
        let _ = enum_variants(&scan, "E");
    }

    /// The item parser is total on arbitrary byte soup, and every item it
    /// extracts is internally consistent: a body span inside the token
    /// stream, and call sites on real lines.
    #[test]
    fn item_parser_never_panics_and_is_consistent(raw in vec(0u16..256, 0..400)) {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let scan = FileScan::new("fuzz.rs", &text);
        let items = parse_items(&scan);
        for f in &items {
            prop_assert!(!f.name.is_empty());
            if let Some((open, close)) = f.body {
                prop_assert!(open <= close);
                prop_assert!(close < scan.tokens.len());
            }
            for site in &f.calls {
                prop_assert!(site.line >= 1);
                prop_assert!(!site.call.name().is_empty());
            }
        }
        // Graph construction and closure are total over whatever the
        // parser produced, and a closure from all roots stays inside
        // the function set.
        let graph = CallGraph::build(items);
        let roots = (0..graph.fns.len()).collect();
        let closure = graph.closure(&roots, &Default::default());
        prop_assert!(closure.len() <= graph.fns.len());
        let _ = graph.dump();
    }

    /// Closures are monotone: adding a root never shrinks the closure,
    /// and pruning a function never grows it.
    #[test]
    fn closures_are_monotone_in_roots_and_antitone_in_prunes(
        raw in vec(0u16..256, 0..300),
        pick in 0usize..8,
    ) {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let graph = CallGraph::build(parse_items(&FileScan::new("fuzz.rs", &text)));
        if graph.fns.is_empty() {
            return Ok(());
        }
        let chosen = pick % graph.fns.len();
        let small: std::collections::BTreeSet<usize> = [chosen].into();
        let all: std::collections::BTreeSet<usize> = (0..graph.fns.len()).collect();
        let none = Default::default();
        let c_small = graph.closure(&small, &none);
        let c_all = graph.closure(&all, &none);
        prop_assert!(c_small.is_subset(&c_all));
        let c_pruned = graph.closure(&all, &small);
        prop_assert!(c_pruned.is_subset(&c_all));
    }
}
