//! Abstract syntax for the SELECT/WHERE fragment (paper §2.2, Fig. 2a).

use rdf_model::Literal;
use std::fmt;

/// A term in a triple pattern position.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TermPattern {
    /// An unknown variable `?X` whose bindings are sought in the data.
    Variable(Box<str>),
    /// A constant IRI (stored fully expanded).
    Iri(Box<str>),
    /// A constant literal (only valid in object position).
    Literal(Literal),
}

impl TermPattern {
    /// Build a variable pattern.
    pub fn var(name: impl Into<Box<str>>) -> Self {
        TermPattern::Variable(name.into())
    }

    /// Build an IRI pattern.
    pub fn iri(iri: impl Into<Box<str>>) -> Self {
        TermPattern::Iri(iri.into())
    }

    /// The variable name, if this is one.
    pub fn as_variable(&self) -> Option<&str> {
        match self {
            TermPattern::Variable(v) => Some(v),
            _ => None,
        }
    }

    /// `true` for [`TermPattern::Variable`].
    pub fn is_variable(&self) -> bool {
        matches!(self, TermPattern::Variable(_))
    }
}

impl fmt::Display for TermPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermPattern::Variable(v) => write!(f, "?{v}"),
            TermPattern::Iri(iri) => write!(f, "<{iri}>"),
            TermPattern::Literal(lit) => lit.fmt(f),
        }
    }
}

/// One `subject predicate object` pattern of the WHERE clause.
///
/// The predicate is constrained to a constant IRI by the parser (the paper's
/// fragment); the field still uses [`TermPattern`] so the printer and tests
/// can express the full shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    /// Subject: variable or IRI.
    pub subject: TermPattern,
    /// Predicate: constant IRI (invariant enforced at parse time).
    pub predicate: TermPattern,
    /// Object: variable, IRI, or literal.
    pub object: TermPattern,
}

impl TriplePattern {
    /// Assemble a pattern.
    pub fn new(subject: TermPattern, predicate: TermPattern, object: TermPattern) -> Self {
        Self {
            subject,
            predicate,
            object,
        }
    }

    /// Iterate the variables of this pattern (with duplicates).
    pub fn variables(&self) -> impl Iterator<Item = &str> {
        [&self.subject, &self.predicate, &self.object]
            .into_iter()
            .filter_map(|t| t.as_variable())
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

/// The SELECT projection: `*` or an explicit variable list.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Projection {
    /// `SELECT *` — every variable of the pattern, in first-occurrence order.
    #[default]
    Star,
    /// `SELECT ?a ?b …`.
    Variables(Vec<Box<str>>),
}

/// A parsed `SELECT … WHERE { … }` query.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SelectQuery {
    /// Projection list.
    pub projection: Projection,
    /// `true` for `SELECT DISTINCT`.
    pub distinct: bool,
    /// The basic graph pattern.
    pub patterns: Vec<TriplePattern>,
}

impl SelectQuery {
    /// All distinct variables appearing in the WHERE clause, in
    /// first-occurrence order.
    pub fn pattern_variables(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for pattern in &self.patterns {
            for v in pattern.variables() {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
        }
        seen
    }

    /// The variables the query answers with: the explicit projection, or all
    /// pattern variables for `SELECT *`.
    pub fn output_variables(&self) -> Vec<&str> {
        match &self.projection {
            Projection::Star => self.pattern_variables(),
            Projection::Variables(vars) => vars.iter().map(AsRef::as_ref).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(s: &str, p: &str, o: TermPattern) -> TriplePattern {
        TriplePattern::new(TermPattern::var(s), TermPattern::iri(p), o)
    }

    #[test]
    fn pattern_variables_in_first_occurrence_order() {
        let q = SelectQuery {
            projection: Projection::Star,
            distinct: false,
            patterns: vec![
                pat("b", "http://p", TermPattern::var("a")),
                pat("a", "http://q", TermPattern::var("c")),
            ],
        };
        assert_eq!(q.pattern_variables(), vec!["b", "a", "c"]);
        assert_eq!(q.output_variables(), vec!["b", "a", "c"]);
    }

    #[test]
    fn explicit_projection_wins() {
        let q = SelectQuery {
            projection: Projection::Variables(vec!["a".into()]),
            distinct: false,
            patterns: vec![pat("b", "http://p", TermPattern::var("a"))],
        };
        assert_eq!(q.output_variables(), vec!["a"]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(TermPattern::var("X0").to_string(), "?X0");
        assert_eq!(TermPattern::iri("http://x/a").to_string(), "<http://x/a>");
        let p = pat("s", "http://p", TermPattern::Literal(Literal::plain("v")));
        assert_eq!(p.to_string(), "?s <http://p> \"v\" .");
    }

    #[test]
    fn variables_iterator_skips_constants() {
        let p = pat("s", "http://p", TermPattern::iri("http://o"));
        assert_eq!(p.variables().collect::<Vec<_>>(), vec!["s"]);
    }
}
