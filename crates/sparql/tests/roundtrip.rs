//! Property-based round-trip: printer output always re-parses to the same
//! AST, for arbitrary queries in the supported fragment.

mod generated;

use amber_sparql::{parse_select, to_sparql};
use generated::arb_query;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn printed_query_reparses_identically(query in arb_query()) {
        let text = to_sparql(&query);
        let reparsed = parse_select(&text)
            .unwrap_or_else(|e| panic!("printer produced unparseable text: {e}\n{text}"));
        prop_assert_eq!(reparsed, query);
    }

    /// The tokenizer's position tracking never panics on arbitrary input
    /// (errors are fine, crashes are not).
    #[test]
    fn parser_never_panics(input in "[ -~\\n]{0,120}") {
        let _ = parse_select(&input);
    }
}
