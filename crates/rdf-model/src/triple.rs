//! The RDF triple record.

use crate::term::{BlankNode, Iri, Object, ObjectRef, Subject, SubjectRef};
use std::fmt;

/// An RDF triple `<subject, predicate, object>` (paper §2.1).
///
/// Predicates are always IRIs, per the W3C model and the paper's query
/// fragment ("the predicate is always instantiated as an IRI", §2.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject: IRI or blank node.
    pub subject: Subject,
    /// Predicate IRI.
    pub predicate: Iri,
    /// Object: IRI, blank node, or literal.
    pub object: Object,
}

impl Triple {
    /// Assemble a triple.
    pub fn new(
        subject: impl Into<Subject>,
        predicate: impl Into<Iri>,
        object: impl Into<Object>,
    ) -> Self {
        Self {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.into(),
        }
    }

    /// Shorthand for an IRI → IRI triple.
    pub fn resource(subject: &str, predicate: &str, object: &str) -> Self {
        Self::new(Iri::new(subject), Iri::new(predicate), Iri::new(object))
    }

    /// Shorthand for an IRI → plain-literal triple.
    pub fn literal(subject: &str, predicate: &str, lexical: &str) -> Self {
        Self::new(
            Iri::new(subject),
            Iri::new(predicate),
            crate::term::Literal::plain(lexical),
        )
    }
}

impl fmt::Display for Triple {
    /// N-Triples statement syntax (terminated by ` .`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

/// A triple whose terms borrow their text: from the document being scanned
/// (see [`NtScanner`](crate::ntriples::NtScanner)) or from an owned
/// [`Triple`]. The multigraph builder consumes this form, so both routes
/// share one code path and neither copies a term just to hash it.
#[derive(Debug, Clone, Copy)]
pub struct TripleRef<'a> {
    /// Subject: IRI or blank node.
    pub subject: SubjectRef<'a>,
    /// Predicate IRI text, without angle brackets.
    pub predicate: &'a str,
    /// Object: IRI, blank node, or literal.
    pub object: ObjectRef<'a>,
}

impl TripleRef<'_> {
    /// Copy into an owned [`Triple`].
    pub fn to_triple(&self) -> Triple {
        Triple {
            subject: match self.subject {
                SubjectRef::Iri(iri) => Subject::Iri(Iri::new(iri)),
                SubjectRef::Blank(label) => Subject::Blank(BlankNode::new(label)),
            },
            predicate: Iri::new(self.predicate),
            object: match self.object {
                ObjectRef::Iri(iri) => Object::Iri(Iri::new(iri)),
                ObjectRef::Blank(label) => Object::Blank(BlankNode::new(label)),
                ObjectRef::Literal(literal) => Object::Literal(literal.to_literal()),
            },
        }
    }
}

impl<'a> From<&'a Triple> for TripleRef<'a> {
    fn from(triple: &'a Triple) -> Self {
        Self {
            subject: (&triple.subject).into(),
            predicate: triple.predicate.as_str(),
            object: (&triple.object).into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;

    #[test]
    fn display_is_ntriples() {
        let t = Triple::resource("http://x/London", "http://y/isPartOf", "http://x/England");
        assert_eq!(
            t.to_string(),
            "<http://x/London> <http://y/isPartOf> <http://x/England> ."
        );
    }

    #[test]
    fn literal_shorthand() {
        let t = Triple::literal("http://x/W", "http://y/hasCapacityOf", "90000");
        assert_eq!(t.object, Object::Literal(Literal::plain("90000")));
        assert_eq!(
            t.to_string(),
            "<http://x/W> <http://y/hasCapacityOf> \"90000\" ."
        );
    }

    #[test]
    fn triples_are_ordered_and_hashable() {
        let a = Triple::resource("http://a", "http://p", "http://b");
        let b = Triple::resource("http://a", "http://p", "http://c");
        assert!(a < b);
        let set: std::collections::HashSet<_> = [a.clone(), a.clone(), b].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
