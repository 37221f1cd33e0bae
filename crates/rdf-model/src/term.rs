//! RDF terms: IRIs, blank nodes, literals, and the position types
//! ([`Subject`], [`Object`]) that constrain where each may appear.

use std::fmt;

/// An IRI (Internationalized Resource Identifier), stored in full form.
///
/// Prefixed names such as `x:London` are expanded by
/// [`PrefixMap`](crate::prefix::PrefixMap) before reaching this type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iri(Box<str>);

impl Iri {
    /// Wrap a full IRI string.
    pub fn new(iri: impl Into<Box<str>>) -> Self {
        Self(iri.into())
    }

    /// The IRI text, without angle brackets.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl From<&str> for Iri {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

impl From<String> for Iri {
    fn from(s: String) -> Self {
        Self::new(s)
    }
}

/// A blank node, identified by its label (without the `_:` sigil).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlankNode(Box<str>);

impl BlankNode {
    /// Wrap a blank node label.
    pub fn new(label: impl Into<Box<str>>) -> Self {
        Self(label.into())
    }

    /// The label, without the `_:` sigil.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

/// The tail of a literal: plain, language-tagged, or datatyped.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum LiteralSuffix {
    /// A plain literal (`"90000"`).
    #[default]
    None,
    /// A language-tagged string (`"London"@en`).
    Lang(Box<str>),
    /// A typed literal (`"90000"^^<http://www.w3.org/2001/XMLSchema#integer>`).
    Datatype(Iri),
}

/// An RDF literal: lexical form plus optional language tag or datatype.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    lexical: Box<str>,
    suffix: LiteralSuffix,
}

impl Literal {
    /// A plain literal.
    pub fn plain(lexical: impl Into<Box<str>>) -> Self {
        Self {
            lexical: lexical.into(),
            suffix: LiteralSuffix::None,
        }
    }

    /// A language-tagged literal.
    pub fn lang(lexical: impl Into<Box<str>>, lang: impl Into<Box<str>>) -> Self {
        Self {
            lexical: lexical.into(),
            suffix: LiteralSuffix::Lang(lang.into()),
        }
    }

    /// A datatyped literal.
    pub fn typed(lexical: impl Into<Box<str>>, datatype: Iri) -> Self {
        Self {
            lexical: lexical.into(),
            suffix: LiteralSuffix::Datatype(datatype),
        }
    }

    /// The lexical form, unescaped.
    pub fn lexical(&self) -> &str {
        &self.lexical
    }

    /// The suffix (language tag / datatype).
    pub fn suffix(&self) -> &LiteralSuffix {
        &self.suffix
    }
}

impl fmt::Display for Literal {
    /// N-Triples syntax, with escaping.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::with_capacity(self.lexical.len() + 2);
        LiteralRef::from(self).write_ntriples(&mut out);
        f.write_str(&out)
    }
}

/// Append a literal's lexical form, escaped for N-Triples output (`"`, `\\`,
/// `\n`, `\r`, `\t`): clean runs are copied in bulk, and every byte that
/// needs an escape is ASCII, so multi-byte characters pass through untouched.
fn escape_literal_into(out: &mut String, s: &str) {
    let mut clean_from = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            _ => continue,
        };
        out.push_str(&s[clean_from..i]);
        out.push_str(escape);
        clean_from = i + 1;
    }
    out.push_str(&s[clean_from..]);
}

/// A borrowed literal: what the N-Triples scanner yields and what the
/// multigraph builder consumes, so a load never owns a term it only hashes.
#[derive(Debug, Clone, Copy)]
pub struct LiteralRef<'a> {
    lexical: &'a str,
    suffix: LiteralSuffixRef<'a>,
    /// The source token, kept only when it already *is* the canonical
    /// N-Triples form (no escape sequence, no raw control character).
    canonical: Option<&'a str>,
}

/// The tail of a [`LiteralRef`] (see [`LiteralSuffix`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiteralSuffixRef<'a> {
    /// A plain literal.
    None,
    /// A language tag, without the `@`.
    Lang(&'a str),
    /// A datatype IRI, without angle brackets.
    Datatype(&'a str),
}

impl<'a> LiteralRef<'a> {
    /// A borrowed literal from its unescaped lexical form and suffix.
    pub fn new(lexical: &'a str, suffix: LiteralSuffixRef<'a>) -> Self {
        Self {
            lexical,
            suffix,
            canonical: None,
        }
    }

    /// As [`Self::new`], with the source token the scanner read it from;
    /// the caller vouches that `source` equals the canonical form.
    pub(crate) fn with_canonical_source(mut self, source: &'a str) -> Self {
        self.canonical = Some(source);
        self
    }

    /// The lexical form, unescaped.
    pub fn lexical(&self) -> &'a str {
        self.lexical
    }

    /// The suffix (language tag / datatype).
    pub fn suffix(&self) -> LiteralSuffixRef<'a> {
        self.suffix
    }

    /// Append the canonical N-Triples form (what `Literal`'s `Display`
    /// prints): the key literals are stored under in the dictionaries.
    pub fn write_ntriples(&self, out: &mut String) {
        if let Some(source) = self.canonical {
            out.push_str(source);
            return;
        }
        out.push('"');
        escape_literal_into(out, self.lexical);
        out.push('"');
        match self.suffix {
            LiteralSuffixRef::None => {}
            LiteralSuffixRef::Lang(lang) => {
                out.push('@');
                out.push_str(lang);
            }
            LiteralSuffixRef::Datatype(datatype) => {
                out.push_str("^^<");
                out.push_str(datatype);
                out.push('>');
            }
        }
    }

    /// Copy into an owned [`Literal`].
    pub fn to_literal(&self) -> Literal {
        Literal {
            lexical: self.lexical.into(),
            suffix: match self.suffix {
                LiteralSuffixRef::None => LiteralSuffix::None,
                LiteralSuffixRef::Lang(lang) => LiteralSuffix::Lang(lang.into()),
                LiteralSuffixRef::Datatype(datatype) => LiteralSuffix::Datatype(Iri::new(datatype)),
            },
        }
    }
}

impl<'a> From<&'a Literal> for LiteralRef<'a> {
    fn from(literal: &'a Literal) -> Self {
        Self::new(
            &literal.lexical,
            match &literal.suffix {
                LiteralSuffix::None => LiteralSuffixRef::None,
                LiteralSuffix::Lang(lang) => LiteralSuffixRef::Lang(lang),
                LiteralSuffix::Datatype(datatype) => LiteralSuffixRef::Datatype(datatype.as_str()),
            },
        )
    }
}

/// A borrowed [`Subject`].
#[derive(Debug, Clone, Copy)]
pub enum SubjectRef<'a> {
    /// IRI text, without angle brackets.
    Iri(&'a str),
    /// Blank node label, without the `_:` sigil.
    Blank(&'a str),
}

impl<'a> From<&'a Subject> for SubjectRef<'a> {
    fn from(subject: &'a Subject) -> Self {
        match subject {
            Subject::Iri(iri) => SubjectRef::Iri(iri.as_str()),
            Subject::Blank(blank) => SubjectRef::Blank(blank.as_str()),
        }
    }
}

/// A borrowed [`Object`].
#[derive(Debug, Clone, Copy)]
pub enum ObjectRef<'a> {
    /// IRI text, without angle brackets.
    Iri(&'a str),
    /// Blank node label, without the `_:` sigil.
    Blank(&'a str),
    /// A literal.
    Literal(LiteralRef<'a>),
}

impl<'a> From<&'a Object> for ObjectRef<'a> {
    fn from(object: &'a Object) -> Self {
        match object {
            Object::Iri(iri) => ObjectRef::Iri(iri.as_str()),
            Object::Blank(blank) => ObjectRef::Blank(blank.as_str()),
            Object::Literal(literal) => ObjectRef::Literal(literal.into()),
        }
    }
}

/// A term allowed in subject position: an IRI or a blank node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Subject {
    /// An IRI subject.
    Iri(Iri),
    /// A blank node subject.
    Blank(BlankNode),
}

impl Subject {
    /// The dictionary key for this subject (IRI text or `_:label`).
    pub fn dictionary_key(&self) -> String {
        match self {
            Subject::Iri(iri) => iri.as_str().to_owned(),
            Subject::Blank(b) => format!("_:{}", b.as_str()),
        }
    }
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Iri(iri) => iri.fmt(f),
            Subject::Blank(b) => b.fmt(f),
        }
    }
}

impl From<Iri> for Subject {
    fn from(iri: Iri) -> Self {
        Subject::Iri(iri)
    }
}

/// A term allowed in object position: IRI, blank node, or literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Object {
    /// An IRI object — becomes a multigraph vertex (paper §2.1.1).
    Iri(Iri),
    /// A blank node object — treated like an IRI vertex.
    Blank(BlankNode),
    /// A literal object — folded into a `<predicate, literal>` vertex
    /// attribute of the subject (paper §2.1.1).
    Literal(Literal),
}

impl Object {
    /// `true` when the object becomes a vertex (IRI or blank node).
    pub fn is_resource(&self) -> bool {
        !matches!(self, Object::Literal(_))
    }

    /// The dictionary key when this object is a resource vertex.
    pub fn resource_key(&self) -> Option<String> {
        match self {
            Object::Iri(iri) => Some(iri.as_str().to_owned()),
            Object::Blank(b) => Some(format!("_:{}", b.as_str())),
            Object::Literal(_) => None,
        }
    }

    /// The literal, when this object is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Object::Literal(lit) => Some(lit),
            _ => None,
        }
    }
}

impl fmt::Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Object::Iri(iri) => iri.fmt(f),
            Object::Blank(b) => b.fmt(f),
            Object::Literal(lit) => lit.fmt(f),
        }
    }
}

impl From<Iri> for Object {
    fn from(iri: Iri) -> Self {
        Object::Iri(iri)
    }
}

impl From<Literal> for Object {
    fn from(lit: Literal) -> Self {
        Object::Literal(lit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_display_brackets() {
        assert_eq!(Iri::new("http://x/a").to_string(), "<http://x/a>");
    }

    #[test]
    fn blank_display_sigil() {
        assert_eq!(BlankNode::new("b0").to_string(), "_:b0");
    }

    #[test]
    fn literal_display_variants() {
        assert_eq!(Literal::plain("90000").to_string(), "\"90000\"");
        assert_eq!(Literal::lang("London", "en").to_string(), "\"London\"@en");
        assert_eq!(
            Literal::typed("5", Iri::new("http://www.w3.org/2001/XMLSchema#integer")).to_string(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }

    #[test]
    fn literal_display_escapes() {
        assert_eq!(
            Literal::plain("a\"b\\c\nd\te\r").to_string(),
            "\"a\\\"b\\\\c\\nd\\te\\r\""
        );
    }

    #[test]
    fn bulk_escape_matches_the_per_character_rule() {
        for s in [
            "",
            "plain",
            "\"",
            "a\"b\\c\nd\te\r",
            "é\t日本\\",
            "\u{1}\u{8}\u{c}x",
        ] {
            let expected: String = s
                .chars()
                .map(|c| match c {
                    '"' => "\\\"".to_string(),
                    '\\' => "\\\\".to_string(),
                    '\n' => "\\n".to_string(),
                    '\r' => "\\r".to_string(),
                    '\t' => "\\t".to_string(),
                    other => other.to_string(),
                })
                .collect();
            let mut out = String::new();
            escape_literal_into(&mut out, s);
            assert_eq!(out, expected, "escaping {s:?}");
        }
    }

    #[test]
    fn subject_dictionary_keys_disambiguate() {
        // A blank node labelled like an IRI must not collide with that IRI.
        let iri = Subject::Iri(Iri::new("b0"));
        let blank = Subject::Blank(BlankNode::new("b0"));
        assert_ne!(iri.dictionary_key(), blank.dictionary_key());
    }

    #[test]
    fn object_resource_classification() {
        assert!(Object::Iri(Iri::new("http://x/a")).is_resource());
        assert!(Object::Blank(BlankNode::new("b")).is_resource());
        assert!(!Object::Literal(Literal::plain("x")).is_resource());
        assert_eq!(Object::Literal(Literal::plain("x")).resource_key(), None);
        assert_eq!(
            Object::Iri(Iri::new("http://x/a")).resource_key().unwrap(),
            "http://x/a"
        );
    }

    #[test]
    fn literal_equality_depends_on_suffix() {
        assert_ne!(Literal::plain("a"), Literal::lang("a", "en"));
        assert_ne!(
            Literal::lang("a", "en"),
            Literal::typed("a", Iri::new("http://t"))
        );
    }
}
