//! SPARQL query-results serialization: the SPARQL 1.1 Query Results JSON
//! format and the TSV format.
//!
//! Both serializers stream straight off the outcome's `Arc`-shared
//! [`Bindings`](amber::Bindings) rows — they borrow every term and never
//! call `to_vec()`, so serving a cached result copies **zero** result
//! bytes (the serving layer's `result_hit_copied_bytes == 0` pin extends
//! through the wire format).
//!
//! They are also pure: they never read or set the body memo on those rows
//! (the benchmark and the tests use them as the oracle for memo-served
//! bodies). The connection thread does that around them: a repeat of a
//! cached answer whose body the rows have memoized is neither copied nor
//! re-serialized, but written to the socket from the memo
//! ([`amber::QueryOutcome::wire_body`]).
//!
//! Bound terms arrive in the engine's dictionary surface form:
//!
//! * literals start with `"` and keep their N-Triples escaping, followed
//!   by an optional `@lang` or `^^<datatype-iri>` suffix;
//! * blank nodes are `_:label`;
//! * everything else is a bare IRI.

use amber::QueryOutcome;
use amber_util::http::json_escape_into;

/// Undo the N-Triples string escapes (`\" \\ \n \r \t`) the dictionary
/// stores literal bodies with, producing the raw value.
fn unescape_literal(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some(c) => out.push(c), // \" and \\ (and anything else, verbatim)
            None => out.push('\\'),
        }
    }
    out
}

/// What one row's terms are expected to serialize to, extrapolated from
/// the first row (an answer's rows bind the same variables to the same
/// kind of term). Each term counts a few spare bytes for delimiters and
/// the odd escape, and is clamped so one huge leading literal cannot
/// multiply into an absurd reservation; a low guess only costs amortized
/// growth.
///
/// Summing every row exactly (`Bindings::approx_heap_bytes`) was measured
/// first: that second walk over all row headers costs 6-7 ns/row, which
/// is 15 % of the JSON serializer and doubles the TSV one.
fn typical_row_bytes(outcome: &QueryOutcome) -> usize {
    outcome.bindings.first().map_or(0, |row| {
        row.iter().map(|term| term.len().min(256) + 8).sum()
    })
}

/// The constant bytes that open one column's cell, per term kind — key
/// (escaped once per response, not once per cell), `type`, and the opening
/// quote of `value`: `"x":{"type":"uri","value":"`, with a leading `,` on
/// every column but the first.
struct ColumnTemplate<'a> {
    uri: &'a str,
    bnode: &'a str,
    literal: &'a str,
}

/// Every column's three openings (uri, bnode, literal) back to back in one
/// buffer, and where each ends — two allocations per response however many
/// columns, which is what keeps a one-row answer from paying more for its
/// templates than for its row.
fn template_text(variables: &[Box<str>]) -> (String, Vec<usize>) {
    let mut text = String::with_capacity(variables.len() * 128);
    let mut ends = Vec::with_capacity(variables.len() * 3);
    for (i, var) in variables.iter().enumerate() {
        let key_start = text.len();
        text.push_str(if i == 0 { "\"" } else { ",\"" });
        json_escape_into(&mut text, var);
        text.push_str("\":{\"type\":\"");
        let key = key_start..text.len();
        for (k, kind) in ["uri", "bnode", "literal"].into_iter().enumerate() {
            if k > 0 {
                text.extend_from_within(key.clone());
            }
            text.push_str(kind);
            text.push_str("\",\"value\":\"");
            ends.push(text.len());
        }
    }
    (text, ends)
}

/// Serialize an outcome as SPARQL 1.1 Query Results JSON
/// (`application/sparql-results+json`):
///
/// ```json
/// {"head":{"vars":["x"]},"results":{"bindings":[
///   {"x":{"type":"uri","value":"http://example/a"}}
/// ]}}
/// ```
pub fn sparql_json(outcome: &QueryOutcome) -> String {
    let mut out = String::new();
    sparql_json_into(&mut out, outcome);
    out
}

/// [`sparql_json`] appended to a caller-owned buffer (the connection
/// thread reuses one across requests).
pub fn sparql_json_into(out: &mut String, outcome: &QueryOutcome) {
    let (text, ends) = template_text(&outcome.variables);
    let mut start = 0;
    let templates: Vec<ColumnTemplate> = ends
        .chunks_exact(3)
        .map(|ends| {
            let column = ColumnTemplate {
                uri: &text[start..ends[0]],
                bnode: &text[ends[0]..ends[1]],
                literal: &text[ends[1]..ends[2]],
            };
            start = ends[2];
            column
        })
        .collect();
    // One reservation for the whole body: per row, the constant bytes
    // (`,{`, `}`, each cell's longest opening and its `"}`) plus the
    // terms; the spare row covers the head's variable list.
    let row_constant: usize = 3 + templates.iter().map(|t| t.literal.len() + 2).sum::<usize>();
    out.reserve(64 + (row_constant + typical_row_bytes(outcome)) * (1 + outcome.bindings.len()));
    out.push_str("{\"head\":{\"vars\":[");
    for (i, var) in outcome.variables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape_into(out, var);
        out.push('"');
    }
    out.push_str("]},\"results\":{\"bindings\":[");
    for (ri, row) in outcome.bindings.iter().enumerate() {
        out.push_str(if ri > 0 { ",{" } else { "{" });
        for (template, term) in templates.iter().zip(row.iter()) {
            json_cell_into(out, template, term);
        }
        out.push('}');
    }
    out.push_str("]}}");
}

/// One `"var":{…}` cell. The dictionary surface form is classified by its
/// first byte(s): `"` opens a literal, `_:` a blank node, anything else
/// is a bare IRI.
#[inline]
fn json_cell_into(out: &mut String, template: &ColumnTemplate, term: &str) {
    match term.as_bytes() {
        [b'"', ..] => json_literal_into(out, template.literal, &term[1..]),
        [b'_', b':', ..] => {
            out.push_str(template.bnode);
            json_escape_into(out, &term[2..]);
            out.push_str("\"}");
        }
        _ => {
            out.push_str(template.uri);
            json_escape_into(out, term);
            out.push_str("\"}");
        }
    }
}

/// A literal cell; `after` is the surface form past its opening quote:
/// the N-Triples-escaped body, the closing quote, then an optional
/// `@lang` or `^^<datatype-iri>` suffix.
fn json_literal_into(out: &mut String, open: &str, after: &str) {
    // Find the closing quote, honoring backslash escapes. The scan only
    // ever stops on ASCII bytes, so the slices below stay on char
    // boundaries even through multi-byte text.
    let bytes = after.as_bytes();
    let mut escaped = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                escaped = true;
                i += 2;
            }
            b'"' => break,
            _ => i += 1,
        }
    }
    let body = &after[..i.min(after.len())];
    let suffix = after.get(i + 1..).unwrap_or("");
    out.push_str(open);
    if escaped {
        json_escape_into(out, &unescape_literal(body));
    } else {
        // No backslash: the stored body already is the raw value.
        json_escape_into(out, body);
    }
    out.push('"');
    if let Some(lang) = suffix.strip_prefix('@') {
        out.push_str(",\"xml:lang\":\"");
        json_escape_into(out, lang);
        out.push('"');
    } else if let Some(dt) = suffix.strip_prefix("^^<").and_then(|s| s.strip_suffix('>')) {
        out.push_str(",\"datatype\":\"");
        json_escape_into(out, dt);
        out.push('"');
    }
    out.push('}');
}

/// Serialize an outcome as SPARQL 1.1 Query Results TSV
/// (`text/tab-separated-values`): a `?var`-header line, then one row per
/// binding with terms in N-Triples syntax. Literals and blank nodes are
/// already in that syntax in the dictionary (tabs/newlines arrive
/// pre-escaped), so they pass through verbatim; IRIs gain their `<>`.
pub fn sparql_tsv(outcome: &QueryOutcome) -> String {
    let mut out = String::new();
    sparql_tsv_into(&mut out, outcome);
    out
}

/// [`sparql_tsv`] appended to a caller-owned buffer.
pub fn sparql_tsv_into(out: &mut String, outcome: &QueryOutcome) {
    // The spare bytes `typical_row_bytes` counts per term cover the `<`,
    // `>` and separator a cell adds.
    let header: usize = outcome.variables.iter().map(|var| var.len() + 2).sum();
    out.reserve(1 + header + typical_row_bytes(outcome) * outcome.bindings.len());
    for (i, var) in outcome.variables.iter().enumerate() {
        if i > 0 {
            out.push('\t');
        }
        out.push('?');
        out.push_str(var);
    }
    out.push('\n');
    for row in outcome.bindings.iter() {
        for (i, term) in row.iter().enumerate() {
            if i > 0 {
                out.push('\t');
            }
            // Same first-byte classification as the JSON cells; nothing
            // here needs the literal's parts.
            match term.as_bytes() {
                [b'"', ..] | [b'_', b':', ..] => out.push_str(term),
                _ => {
                    out.push('<');
                    out.push_str(term);
                    out.push('>');
                }
            }
        }
        out.push('\n');
    }
}

/// The serializers this module's fast path replaced — a term classified
/// into an enum, every piece pushed on its own, every character escaped
/// on its own — kept as the oracle the differential tests hold it to.
#[cfg(test)]
mod reference {
    use super::unescape_literal;
    use amber::QueryOutcome;

    enum Term<'a> {
        Iri(&'a str),
        BNode(&'a str),
        Literal {
            body: &'a str,
            lang: Option<&'a str>,
            datatype: Option<&'a str>,
        },
    }

    fn classify(term: &str) -> Term<'_> {
        if let Some(label) = term.strip_prefix("_:") {
            return Term::BNode(label);
        }
        let Some(after) = term.strip_prefix('"') else {
            return Term::Iri(term);
        };
        let bytes = after.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => break,
                _ => i += 1,
            }
        }
        let body = &after[..i.min(after.len())];
        let suffix = after.get(i + 1..).unwrap_or("");
        let (lang, datatype) = if let Some(l) = suffix.strip_prefix('@') {
            (Some(l), None)
        } else if let Some(dt) = suffix.strip_prefix("^^<").and_then(|s| s.strip_suffix('>')) {
            (None, Some(dt))
        } else {
            (None, None)
        };
        Term::Literal {
            body,
            lang,
            datatype,
        }
    }

    fn json_escape_into(out: &mut String, s: &str) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
    }

    pub fn sparql_json(outcome: &QueryOutcome) -> String {
        let mut out = String::new();
        out.push_str("{\"head\":{\"vars\":[");
        for (i, var) in outcome.variables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape_into(&mut out, var);
            out.push('"');
        }
        out.push_str("]},\"results\":{\"bindings\":[");
        for (ri, row) in outcome.bindings.iter().enumerate() {
            if ri > 0 {
                out.push(',');
            }
            out.push('{');
            for (ci, (var, term)) in outcome.variables.iter().zip(row.iter()).enumerate() {
                if ci > 0 {
                    out.push(',');
                }
                out.push('"');
                json_escape_into(&mut out, var);
                out.push_str("\":");
                json_term_into(&mut out, term);
            }
            out.push('}');
        }
        out.push_str("]}}");
        out
    }

    fn json_term_into(out: &mut String, term: &str) {
        match classify(term) {
            Term::Iri(iri) => {
                out.push_str("{\"type\":\"uri\",\"value\":\"");
                json_escape_into(out, iri);
                out.push_str("\"}");
            }
            Term::BNode(label) => {
                out.push_str("{\"type\":\"bnode\",\"value\":\"");
                json_escape_into(out, label);
                out.push_str("\"}");
            }
            Term::Literal {
                body,
                lang,
                datatype,
            } => {
                out.push_str("{\"type\":\"literal\",\"value\":\"");
                json_escape_into(out, &unescape_literal(body));
                out.push('"');
                if let Some(lang) = lang {
                    out.push_str(",\"xml:lang\":\"");
                    json_escape_into(out, lang);
                    out.push('"');
                }
                if let Some(dt) = datatype {
                    out.push_str(",\"datatype\":\"");
                    json_escape_into(out, dt);
                    out.push('"');
                }
                out.push('}');
            }
        }
    }

    pub fn sparql_tsv(outcome: &QueryOutcome) -> String {
        let mut out = String::new();
        for (i, var) in outcome.variables.iter().enumerate() {
            if i > 0 {
                out.push('\t');
            }
            out.push('?');
            out.push_str(var);
        }
        out.push('\n');
        for row in &outcome.bindings {
            for (i, term) in row.iter().enumerate() {
                if i > 0 {
                    out.push('\t');
                }
                match classify(term) {
                    Term::Iri(iri) => {
                        out.push('<');
                        out.push_str(iri);
                        out.push('>');
                    }
                    Term::BNode(_) | Term::Literal { .. } => out.push_str(term),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber::{Bindings, QueryStatus};
    use proptest::prelude::*;
    use std::time::Duration;

    fn outcome(vars: &[&str], rows: &[&[&str]]) -> QueryOutcome {
        QueryOutcome {
            status: QueryStatus::Completed,
            embedding_count: rows.len() as u128,
            variables: vars.iter().map(|v| Box::from(*v)).collect(),
            bindings: rows
                .iter()
                .map(|row| row.iter().map(|t| Box::from(*t)).collect())
                .collect::<Bindings>(),
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn json_golden_bytes() {
        let o = outcome(
            &["s", "o"],
            &[
                &["http://x/a", "\"hi\"@en"],
                &["_:b0", "\"1\"^^<http://www.w3.org/2001/XMLSchema#integer>"],
                &["http://x/b", "\"line\\nbreak \\\"q\\\"\""],
            ],
        );
        assert_eq!(
            sparql_json(&o),
            concat!(
                "{\"head\":{\"vars\":[\"s\",\"o\"]},\"results\":{\"bindings\":[",
                "{\"s\":{\"type\":\"uri\",\"value\":\"http://x/a\"},",
                "\"o\":{\"type\":\"literal\",\"value\":\"hi\",\"xml:lang\":\"en\"}},",
                "{\"s\":{\"type\":\"bnode\",\"value\":\"b0\"},",
                "\"o\":{\"type\":\"literal\",\"value\":\"1\",",
                "\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\"}},",
                "{\"s\":{\"type\":\"uri\",\"value\":\"http://x/b\"},",
                "\"o\":{\"type\":\"literal\",\"value\":\"line\\nbreak \\\"q\\\"\"}}",
                "]}}"
            )
        );
    }

    #[test]
    fn tsv_golden_bytes() {
        let o = outcome(
            &["s", "o"],
            &[&["http://x/a", "\"hi\"@en"], &["_:b0", "\"tab\\there\""]],
        );
        assert_eq!(
            sparql_tsv(&o),
            "?s\t?o\n<http://x/a>\t\"hi\"@en\n_:b0\t\"tab\\there\"\n"
        );
    }

    #[test]
    fn empty_results_keep_their_shape() {
        let o = outcome(&["x"], &[]);
        assert_eq!(
            sparql_json(&o),
            "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[]}}"
        );
        assert_eq!(sparql_tsv(&o), "?x\n");
    }

    #[test]
    fn malformed_literals_degrade_instead_of_panicking() {
        // An unterminated stored literal (cannot come out of the parser,
        // but the serializer must not index out of bounds on it).
        let o = outcome(&["x"], &[&["\"dangling"]]);
        assert!(sparql_json(&o).contains("dangling"));
        assert!(sparql_tsv(&o).contains("dangling"));
    }

    #[test]
    fn serialization_borrows_the_shared_rows() {
        let o = outcome(&["x"], &[&["http://x/a"]]);
        let clone = o.clone();
        let _ = sparql_json(&o);
        let _ = sparql_tsv(&o);
        assert!(
            o.bindings.shares_rows(&clone.bindings),
            "serializers must not detach the shared row allocation"
        );
    }

    /// Both formats against the retained reference, through the wrappers
    /// and appended behind existing content in a reused buffer.
    fn assert_matches_reference(o: &QueryOutcome) {
        let json = reference::sparql_json(o);
        let tsv = reference::sparql_tsv(o);
        assert_eq!(sparql_json(o), json, "json of {o:?}");
        assert_eq!(sparql_tsv(o), tsv, "tsv of {o:?}");
        let mut buf = String::from("kept:");
        sparql_json_into(&mut buf, o);
        assert_eq!(buf, format!("kept:{json}"));
        buf.truncate(5);
        sparql_tsv_into(&mut buf, o);
        assert_eq!(buf, format!("kept:{tsv}"));
    }

    #[test]
    fn specials_at_every_word_offset_in_every_term_kind() {
        // The raw special sits in an IRI, a blank-node label and a
        // variable name (none of which the dictionary would hold, all of
        // which must escape as before), and N-Triples-escaped in a literal
        // body, a language tag and a datatype — at every offset relative
        // to the 8-byte word, behind ASCII and behind multi-byte text.
        for special in (0u8..0x20).chain([b'"', b'\\']) {
            let special = special as char;
            for pad in ["a", "é", "€a"] {
                for offset in 0..16 {
                    let before: String = pad.chars().cycle().take(offset).collect();
                    let raw = format!("{before}{special}tail-é");
                    let stored = format!("{before}\\{special}tail-é");
                    let terms = [
                        format!("http://x/{raw}"),
                        format!("_:{raw}"),
                        format!("\"{stored}\""),
                        format!("\"{stored}\"@{raw}"),
                        format!("\"{stored}\"^^<http://dt/{raw}>"),
                        // Unterminated, and a lone trailing backslash.
                        format!("\"{raw}"),
                        format!("\"{before}\\"),
                    ];
                    let row: Vec<&str> = terms.iter().map(String::as_str).collect();
                    let vars: Vec<String> = (0..row.len()).map(|i| format!("{raw}{i}")).collect();
                    let vars: Vec<&str> = vars.iter().map(String::as_str).collect();
                    assert_matches_reference(&outcome(&vars, &[&row, &row]));
                }
            }
        }
    }

    #[test]
    fn degenerate_shapes_match_the_reference() {
        // No variables (with and without rows), no rows, empty terms, and
        // rows narrower and wider than the variable list.
        assert_matches_reference(&outcome(&[], &[]));
        assert_matches_reference(&outcome(&[], &[&[], &[]]));
        assert_matches_reference(&outcome(&["x", "y"], &[]));
        assert_matches_reference(&outcome(&["x", "y"], &[&["", ""], &["\"\"", "_:"]]));
        assert_matches_reference(&outcome(&["x", "y"], &[&["http://x/a"], &[]]));
        assert_matches_reference(&outcome(&["x"], &[&["http://x/a", "http://x/b"]]));
        assert_matches_reference(&outcome(&["x"], &[&["_"], &["_x"], &["\""], &["\\"]]));
    }

    /// Pieces a term is assembled from: term-kind openers, the bytes both
    /// formats escape, N-Triples escape sequences, literal suffix syntax,
    /// and multi-byte text.
    const PIECES: &[&str] = &[
        "a",
        "z",
        "/",
        " ",
        "http://x/",
        "_:",
        "_",
        ":",
        "\"",
        "\\",
        "\\\"",
        "\\\\",
        "\\n",
        "\\t",
        "\\u",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{1}",
        "\u{1f}",
        "\u{7f}",
        "@",
        "@en",
        "^^<",
        ">",
        "^^<http://dt/i>",
        "é",
        "€",
        "😀",
    ];

    fn term() -> impl Strategy<Value = String> {
        prop::collection::vec(0..PIECES.len(), 0..14)
            .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        #[test]
        fn serializers_match_the_reference_on_adversarial_terms(
            vars in prop::collection::vec(term(), 0..4),
            rows in prop::collection::vec(prop::collection::vec(term(), 0..4), 0..5),
        ) {
            let vars: Vec<&str> = vars.iter().map(String::as_str).collect();
            let rows: Vec<Vec<&str>> = rows
                .iter()
                .map(|row| row.iter().map(String::as_str).collect())
                .collect();
            let rows: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
            assert_matches_reference(&outcome(&vars, &rows));
        }

        #[test]
        fn memoized_bodies_equal_the_serializers(
            vars in prop::collection::vec(term(), 0..4),
            rows in prop::collection::vec(prop::collection::vec(term(), 0..4), 0..5),
        ) {
            let vars: Vec<&str> = vars.iter().map(String::as_str).collect();
            let rows: Vec<Vec<&str>> = rows
                .iter()
                .map(|row| row.iter().map(String::as_str).collect())
                .collect();
            let rows: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
            assert_memo_matches_serializers(&outcome(&vars, &rows));
        }
    }

    /// What the connection's answer path puts on the wire for `o`, and
    /// whether it came from the memo on `o`'s rows.
    fn served(o: &QueryOutcome, format: crate::Format) -> (String, bool) {
        let (mut out, mut memo) = (String::new(), None);
        crate::answer_body(o, format, &mut out, &mut memo);
        match memo {
            Some(body) => (body.to_string(), true),
            None => (out, false),
        }
    }

    /// JSON three times (serialized, serialized and memoized, memo), TSV
    /// twice (serialized both times: the one slot is JSON's), then a twin
    /// with renamed variables sharing the rows — every body equal to the
    /// pure serializers of the outcome it answers.
    fn assert_memo_matches_serializers(o: &QueryOutcome) {
        // Keep the process-wide body counters to the socket tests.
        let _off = amber_obs::force_enabled(false);
        use crate::Format::{Json, Tsv};
        let (json, tsv) = (sparql_json(o), sparql_tsv(o));
        let sources: Vec<bool> = (0..3)
            .map(|_| {
                let (body, memo) = served(o, Json);
                assert_eq!(body, json, "json of {o:?}");
                memo
            })
            .collect();
        assert_eq!(sources, [false, false, true]);
        for _ in 0..2 {
            assert_eq!(served(o, Tsv), (tsv.clone(), false), "tsv of {o:?}");
        }
        let twin = QueryOutcome {
            variables: o.variables.iter().map(|v| format!("{v}_").into()).collect(),
            ..o.clone()
        };
        assert!(twin.bindings.shares_rows(&o.bindings));
        let (body, memo) = served(&twin, Json);
        assert_eq!(body, sparql_json(&twin), "the twin's own header");
        assert_eq!(memo, twin.variables == o.variables);
        assert_eq!(
            served(o, Json),
            (json, true),
            "the memo is still the original's"
        );
    }

    #[test]
    fn memoized_bodies_hold_every_term_kind_and_escape() {
        for special in (0u8..0x20).chain([b'"', b'\\']) {
            let special = special as char;
            let raw = format!("a{special}é");
            let stored = format!("a\\{special}é");
            let terms = [
                format!("http://x/{raw}"),
                format!("_:{raw}"),
                format!("\"{stored}\""),
                format!("\"{stored}\"@{raw}"),
                format!("\"{stored}\"^^<http://dt/{raw}>"),
            ];
            let row: Vec<&str> = terms.iter().map(String::as_str).collect();
            let vars: Vec<String> = (0..row.len()).map(|i| format!("{raw}{i}")).collect();
            let vars: Vec<&str> = vars.iter().map(String::as_str).collect();
            assert_memo_matches_serializers(&outcome(&vars, &[&row, &row]));
        }
        assert_memo_matches_serializers(&outcome(&[], &[]));
        assert_memo_matches_serializers(&outcome(&["x"], &[]));
    }

    #[test]
    fn a_body_over_the_retention_ceiling_is_served_but_not_memoized() {
        let _off = amber_obs::force_enabled(false);
        let iri = format!("http://x/{}", "p".repeat(100));
        let row = [iri.as_str()];
        let rows = vec![&row[..]; 70_000];
        let o = outcome(&["x"], &rows);
        let json = sparql_json(&o);
        assert!(
            json.len() > crate::MAX_RETAINED_BODY_BYTES,
            "{}",
            json.len()
        );
        for _ in 0..3 {
            let (body, memo) = served(&o, crate::Format::Json);
            assert!(!memo && body == json, "{} bytes", body.len());
        }
        assert!(o.wire_body(crate::Format::Json as u8).is_none());
    }
}
