//! Query canonicalization of an AST — variables renamed to first-occurrence
//! indices.
//!
//! The request path no longer goes through this module: the query compiler
//! (`amber_multigraph::CompiledQuery`) numbers variables in first-occurrence
//! order as the scanner delivers them and keys the plan and result caches
//! on those numbers plus dictionary ids. This module stays as an AST
//! utility — the benchmark's pool admission deduplicates generated queries
//! with it — and applies the same rule to a [`SelectQuery`]:
//!
//! * every variable is renamed to its **first-occurrence index** over the
//!   WHERE patterns (`?city` → `?0`, `?person` → `?1`, …), scanning
//!   subject-then-object within each pattern in pattern order;
//! * `SELECT *` is expanded to the explicit variable list it denotes (the
//!   pattern variables in first-occurrence order), so `SELECT *` and the
//!   equivalent explicit projection canonicalize alike;
//! * projection-only variables (legal in the AST, they just never bind) are
//!   assigned fresh indices after the pattern variables, in projection order.
//!
//! The result is itself a [`SelectQuery`] — renaming is a bijection per
//! query, so two queries canonicalize identically **iff** they are equal up
//! to variable names. Nothing else is normalized on purpose: reordered
//! triple patterns produce a different form, and constants are never
//! touched — `?x <p> "v"` and `?x <p> <v>` must never alias.

use crate::ast::{Projection, SelectQuery, TermPattern, TriplePattern};
use std::collections::HashMap;

/// Canonicalize a parsed query (see module docs): variables renamed to
/// first-occurrence indices, `SELECT *` expanded. The output is
/// semantically identical to the input up to variable names.
pub fn canonicalize(query: &SelectQuery) -> SelectQuery {
    let mut renamer = Renamer::default();
    // Pass 1: fix the pattern-variable numbering (first occurrence wins).
    for pattern in &query.patterns {
        for var in pattern.variables() {
            renamer.name_of(var);
        }
    }
    let pattern_vars = renamer.assigned();

    let patterns = query
        .patterns
        .iter()
        .map(|p| TriplePattern {
            subject: renamer.term(&p.subject),
            predicate: renamer.term(&p.predicate),
            object: renamer.term(&p.object),
        })
        .collect();

    // `SELECT *` denotes the pattern variables in first-occurrence order —
    // exactly the numbering above, so the expansion is `?0 ?1 …`.
    let projection = match &query.projection {
        Projection::Star => Projection::Variables(pattern_vars),
        Projection::Variables(vars) => {
            Projection::Variables(vars.iter().map(|v| renamer.name_of(v)).collect())
        }
    };

    SelectQuery {
        projection,
        distinct: query.distinct,
        patterns,
    }
}

/// First-occurrence variable renamer (`?whatever` → `?<index>`).
#[derive(Default)]
struct Renamer {
    names: HashMap<Box<str>, Box<str>>,
    order: Vec<Box<str>>,
}

impl Renamer {
    fn name_of(&mut self, var: &str) -> Box<str> {
        if let Some(canonical) = self.names.get(var) {
            return canonical.clone();
        }
        let canonical: Box<str> = self.names.len().to_string().into();
        self.names.insert(var.into(), canonical.clone());
        self.order.push(canonical.clone());
        canonical
    }

    /// The canonical names assigned so far, in assignment order.
    fn assigned(&self) -> Vec<Box<str>> {
        self.order.clone()
    }

    fn term(&mut self, term: &TermPattern) -> TermPattern {
        match term {
            TermPattern::Variable(v) => TermPattern::Variable(self.name_of(v)),
            constant => constant.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_select;

    fn canon(text: &str) -> SelectQuery {
        canonicalize(&parse_select(text).expect("test query parses"))
    }

    #[test]
    fn whitespace_and_variable_names_are_erased() {
        let a = canon("SELECT * WHERE { ?person <http://p/born> ?city . }");
        let b = canon("SELECT *   WHERE {\n  ?x <http://p/born>\t?y .\n}");
        assert_eq!(a, b);
    }

    #[test]
    fn star_expands_to_equivalent_explicit_projection() {
        let star = canon("SELECT * WHERE { ?a <http://p/e> ?b . }");
        let explicit = canon("SELECT ?a ?b WHERE { ?a <http://p/e> ?b . }");
        assert_eq!(star, explicit);
        // But a *reordered* projection is a different query.
        let swapped = canon("SELECT ?b ?a WHERE { ?a <http://p/e> ?b . }");
        assert_ne!(star, swapped);
    }

    #[test]
    fn renaming_is_consistent_across_patterns() {
        let a = canon("SELECT ?x WHERE { ?x <http://p/e> ?y . ?y <http://p/f> ?x . }");
        let b = canon("SELECT ?u WHERE { ?u <http://p/e> ?w . ?w <http://p/f> ?u . }");
        assert_eq!(a, b);
    }

    #[test]
    fn variable_swap_is_not_erased() {
        // Swapping the *roles* of two variables changes the query (the
        // projection now targets the other end of the edge).
        let a = canon("SELECT ?x WHERE { ?x <http://p/e> ?y . }");
        let b = canon("SELECT ?y WHERE { ?x <http://p/e> ?y . }");
        assert_ne!(a, b);
    }

    #[test]
    fn adversarial_names_cannot_collide_with_canonical_ones() {
        // A user query already using the canonical names `?0`/`?1` — but in
        // swapped positions — must not canonicalize to the identity.
        let tricky = canon("SELECT * WHERE { ?1 <http://p/e> ?0 . }");
        let straight = canon("SELECT * WHERE { ?0 <http://p/e> ?1 . }");
        assert_eq!(
            tricky, straight,
            "both rename to first-occurrence order regardless of spelling"
        );
        let self_edge = canon("SELECT * WHERE { ?0 <http://p/e> ?0 . }");
        assert_ne!(tricky, self_edge, "distinct vars never merge");
    }

    #[test]
    fn constants_are_never_rewritten() {
        let iri = canon("SELECT * WHERE { ?a <http://p/e> <http://x/v> . }");
        let lit = canon("SELECT * WHERE { ?a <http://p/e> \"http://x/v\" . }");
        assert_ne!(iri, lit, "IRI and literal constants must not alias");
        let var = canon("SELECT * WHERE { ?a <http://p/e> ?v . }");
        assert_ne!(iri, var);
    }

    #[test]
    fn pattern_order_is_part_of_the_key() {
        // Reordered triples are semantically equal but keyed separately (a
        // cold miss, never a wrong hit) — documented behaviour.
        let ab = canon("SELECT * WHERE { ?a <http://p/e> ?b . ?b <http://p/f> ?c . }");
        let ba = canon("SELECT * WHERE { ?b <http://p/f> ?c . ?a <http://p/e> ?b . }");
        assert_ne!(ab, ba);
    }

    #[test]
    fn duplicate_patterns_are_preserved() {
        let once = canon("SELECT * WHERE { ?a <http://p/e> ?b . }");
        let twice = canon("SELECT * WHERE { ?a <http://p/e> ?b . ?a <http://p/e> ?b . }");
        assert_ne!(once, twice);
    }

    #[test]
    fn distinct_is_part_of_the_key() {
        let plain = canon("SELECT ?a WHERE { ?a <http://p/e> ?b . }");
        let distinct = canon("SELECT DISTINCT ?a WHERE { ?a <http://p/e> ?b . }");
        assert_ne!(plain, distinct);
    }

    #[test]
    fn projection_only_variables_number_after_pattern_variables() {
        use crate::ast::Projection;
        // The parser may reject unbound projection vars; build the AST
        // directly to pin the numbering rule.
        let query = SelectQuery {
            projection: Projection::Variables(vec!["ghost".into(), "a".into()]),
            distinct: false,
            patterns: vec![TriplePattern::new(
                TermPattern::var("a"),
                TermPattern::iri("http://p/e"),
                TermPattern::var("b"),
            )],
        };
        let canonical = canonicalize(&query);
        assert_eq!(
            canonical.projection,
            Projection::Variables(vec!["2".into(), "0".into()]),
            "pattern vars take 0..n; projection-only vars follow"
        );
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let once =
            canon("SELECT DISTINCT ?p WHERE { ?p <http://p/born> ?c . ?c <http://p/in> ?x . }");
        assert_eq!(canonicalize(&once), once);
    }
}
