//! Single-variable stars anchored only by constants, drawn from generated
//! data: the seed vertex has no typed edge to another variable, so the
//! component is seeded from `ProcessVertex`'s whitelist and the synopses.

use rdf_model::{Object, Subject, Triple};
use std::collections::HashSet;

/// `SELECT * WHERE { ?x <p> <o> . ?x <q> "lit" . }`, one per subject of
/// `triples` that has both an IRI object and a literal object (in the
/// order their first literal appears): each query has answers, and `?x`
/// is constrained by constants alone.
pub fn constant_stars(triples: &[Triple]) -> impl Iterator<Item = String> + '_ {
    let mut seen = HashSet::<&Subject>::new();
    triples
        .iter()
        .filter(|t| matches!(t.object, Object::Literal(_)))
        .filter(move |literal| seen.insert(&literal.subject))
        .filter_map(|literal| {
            let resource = triples
                .iter()
                .find(|t| t.subject == literal.subject && matches!(t.object, Object::Iri(_)))?;
            Some(format!(
                "SELECT * WHERE {{ ?x {} {} . ?x {} {} . }}",
                resource.predicate, resource.object, literal.predicate, literal.object
            ))
        })
}
