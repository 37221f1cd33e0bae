//! Arbitrary queries in the supported fragment, shared by the round-trip
//! and scanner suites.

use amber_sparql::{Projection, SelectQuery, TermPattern, TriplePattern};
use proptest::prelude::*;
use rdf_model::{Iri, Literal};

fn arb_var() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_]{0,6}".prop_map(|s| s)
}

fn arb_iri() -> impl Strategy<Value = String> {
    "[a-z]{1,8}(/[a-zA-Z0-9_.-]{1,10}){1,2}".prop_map(|path| format!("http://{path}"))
}

fn arb_literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        // printable strings without control characters
        "[ -~]{0,12}".prop_map(Literal::plain),
        ("[ -~]{0,8}", "[a-z]{2}(-[A-Z]{2})?").prop_map(|(l, tag)| Literal::lang(l, tag)),
        ("[ -~]{0,8}", arb_iri()).prop_map(|(l, dt)| Literal::typed(l, Iri::new(dt))),
    ]
}

fn arb_subject() -> impl Strategy<Value = TermPattern> {
    prop_oneof![
        arb_var().prop_map(TermPattern::var),
        arb_iri().prop_map(TermPattern::iri),
    ]
}

fn arb_object() -> impl Strategy<Value = TermPattern> {
    prop_oneof![
        arb_var().prop_map(TermPattern::var),
        arb_iri().prop_map(TermPattern::iri),
        arb_literal().prop_map(TermPattern::Literal),
    ]
}

fn arb_pattern() -> impl Strategy<Value = TriplePattern> {
    (arb_subject(), arb_iri(), arb_object())
        .prop_map(|(s, p, o)| TriplePattern::new(s, TermPattern::iri(p), o))
}

pub fn arb_query() -> impl Strategy<Value = SelectQuery> {
    (prop::collection::vec(arb_pattern(), 1..12), any::<bool>()).prop_map(|(patterns, distinct)| {
        // Projection: Star, or a prefix of the pattern variables.
        let query = SelectQuery {
            projection: Projection::Star,
            distinct,
            patterns,
        };
        let vars: Vec<Box<str>> = query
            .pattern_variables()
            .into_iter()
            .map(Into::into)
            .collect();
        let projection = if vars.is_empty() {
            Projection::Star
        } else {
            Projection::Variables(vars.into_iter().take(3).collect())
        };
        SelectQuery {
            projection,
            ..query
        }
    })
}
