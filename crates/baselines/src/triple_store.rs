//! The relational triple-store baseline (x-RDF-3X / Virtuoso stand-in).
//!
//! Architecture reproduced from the paper's description of the competitors
//! (§6): RDF triples in one big ID-encoded three-column table, *exhaustively
//! indexed* — all six sort permutations (SPO, SOP, PSO, POS, OSP, OPS) are
//! materialized as sorted arrays, so any bound-position combination resolves
//! to a binary-search range scan. Query evaluation picks a greedy join
//! order from range-size selectivity estimates (the "statistics over the
//! data" of x-RDF-3X) and pipelines index nested-loop joins depth-first.
//!
//! Literal-object triples live in a separate `(attribute, vertex)` table,
//! mirroring the dictionary-compressed string handling of the real systems
//! and keeping the semantics aligned with the multigraph model (see the
//! crate docs).

use crate::common::{RowCollector, UNBOUND};
use amber::{EngineError, ExecOptions, QueryOutcome, SparqlEngine};
use amber_multigraph::RdfGraph;
use amber_sparql::{SelectQuery, TermPattern};
use amber_util::{Deadline, FxHashMap, Stopwatch};
use std::sync::Arc;

/// Column orders of the six permutations.
const PERMUTATIONS: [[usize; 3]; 6] = [
    [0, 1, 2], // SPO
    [0, 2, 1], // SOP
    [1, 0, 2], // PSO
    [1, 2, 0], // POS
    [2, 0, 1], // OSP
    [2, 1, 0], // OPS
];

/// Index into [`PERMUTATIONS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Perm {
    Spo = 0,
    Pso = 2,
    Pos = 3,
}

/// A slot of an ID pattern: variable (by slot index) or constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Var(usize),
    Const(u32),
}

impl Slot {
    fn value(self, assignment: &[u32]) -> Option<u32> {
        match self {
            Slot::Const(c) => Some(c),
            Slot::Var(i) => {
                let v = assignment[i];
                (v != UNBOUND).then_some(v)
            }
        }
    }
}

/// One compiled triple pattern.
#[derive(Debug, Clone)]
enum IdPattern {
    /// Resource triple pattern; the predicate is always a constant id.
    Edge { s: Slot, p: u32, o: Slot },
    /// Attribute pattern (`?s <p> "lit"` folded through `Ma`).
    Attr { s: Slot, attr: u32 },
}

/// The six-permutation triple store.
pub struct TripleStoreEngine {
    rdf: Arc<RdfGraph>,
    /// Six copies of the resource triples, each stored *in permuted column
    /// order* and sorted lexicographically.
    perms: [Vec<[u32; 3]>; 6],
    /// `(attr, vertex)` sorted — scan by attribute.
    attr_by_attr: Vec<[u32; 2]>,
    /// `(vertex, attr)` sorted — existence checks.
    attr_by_vertex: Vec<[u32; 2]>,
}

impl TripleStoreEngine {
    /// Build the exhaustive permutation indexes from a loaded graph.
    pub fn new(rdf: Arc<RdfGraph>) -> Self {
        let graph = rdf.graph();
        let mut base: Vec<[u32; 3]> = Vec::with_capacity(graph.edge_instance_count());
        for v in graph.vertices() {
            for entry in graph.out_edges(v) {
                base.push([v.0, entry.edge_type().0, entry.neighbor.0]);
            }
        }
        let perms = PERMUTATIONS.map(|order| {
            let mut rows: Vec<[u32; 3]> = base
                .iter()
                .map(|t| [t[order[0]], t[order[1]], t[order[2]]])
                .collect();
            rows.sort_unstable();
            rows
        });
        let mut attr_by_attr: Vec<[u32; 2]> = Vec::new();
        for v in graph.vertices() {
            for &a in graph.attributes(v) {
                attr_by_attr.push([a.0, v.0]);
            }
        }
        attr_by_attr.sort_unstable();
        let mut attr_by_vertex: Vec<[u32; 2]> = attr_by_attr.iter().map(|p| [p[1], p[0]]).collect();
        attr_by_vertex.sort_unstable();
        Self {
            rdf,
            perms,
            attr_by_attr,
            attr_by_vertex,
        }
    }

    /// Total triples in the base table (diagnostics).
    pub fn triple_count(&self) -> usize {
        self.perms[0].len()
    }

    /// Range of rows in permutation `perm` matching the bound prefix.
    fn range(&self, perm: Perm, prefix: &[u32]) -> &[[u32; 3]] {
        let rows = &self.perms[perm as usize];
        let lo = rows.partition_point(|r| r[..prefix.len()] < *prefix);
        let hi = rows.partition_point(|r| r[..prefix.len()] <= *prefix);
        &rows[lo..hi]
    }

    /// Cardinality estimate for a pattern given which slots are bound.
    fn estimate(&self, pattern: &IdPattern, bound: &[bool]) -> usize {
        let is_bound = |slot: &Slot| match slot {
            Slot::Const(_) => true,
            Slot::Var(i) => bound[*i],
        };
        match pattern {
            IdPattern::Edge { s, p, o } => {
                // Base: range of the predicate (always known exactly).
                let base = self.range(Perm::Pso, &[*p]).len();
                // Every additionally bound position is assumed to cut the
                // range by a constant factor (a classic textbook estimate).
                let mut est = base;
                if is_bound(s) {
                    est /= 20;
                }
                if is_bound(o) {
                    est /= 20;
                }
                est.max(1)
            }
            IdPattern::Attr { s, attr } => {
                let lo = self.attr_by_attr.partition_point(|r| r[0] < *attr);
                let hi = self.attr_by_attr.partition_point(|r| r[0] <= *attr);
                let base = hi - lo;
                if is_bound(s) {
                    (base / 20).max(1)
                } else {
                    base.max(1)
                }
            }
        }
    }

    /// Greedy join order: repeatedly pick the cheapest remaining pattern
    /// under the current bound-variable set, preferring connected patterns.
    fn plan(&self, patterns: &[IdPattern], var_count: usize) -> Vec<usize> {
        let mut bound = vec![false; var_count];
        let mut remaining: Vec<usize> = (0..patterns.len()).collect();
        let mut order = Vec::with_capacity(patterns.len());
        while !remaining.is_empty() {
            let connected =
                |idx: usize| -> bool { pattern_vars(&patterns[idx]).iter().any(|&v| bound[v]) };
            let any_connected = order.is_empty() || remaining.iter().any(|&i| connected(i));
            let (pos, &best) = remaining
                .iter()
                .enumerate()
                .filter(|(_, &i)| !any_connected || order.is_empty() || connected(i))
                .min_by_key(|(_, &i)| self.estimate(&patterns[i], &bound))
                .expect("remaining is non-empty");
            let _ = pos;
            remaining.retain(|&i| i != best);
            for v in pattern_vars(&patterns[best]) {
                bound[v] = true;
            }
            order.push(best);
        }
        order
    }

    /// Depth-first index-nested-loop evaluation.
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        &self,
        patterns: &[IdPattern],
        order: &[usize],
        depth: usize,
        assignment: &mut Vec<u32>,
        collector: &mut RowCollector,
        deadline: &Deadline,
        timed_out: &mut bool,
    ) {
        if *timed_out || deadline.exceeded() {
            *timed_out = true;
            return;
        }
        let Some(&idx) = order.get(depth) else {
            collector.record(assignment);
            return;
        };
        match &patterns[idx] {
            IdPattern::Edge { s, p, o } => {
                let sv = s.value(assignment);
                let ov = o.value(assignment);
                match (sv, ov) {
                    (Some(sv), Some(ov)) => {
                        // Fully bound: existence probe in SPO.
                        if !self.range(Perm::Spo, &[sv, *p, ov]).is_empty() {
                            self.recurse(
                                patterns,
                                order,
                                depth + 1,
                                assignment,
                                collector,
                                deadline,
                                timed_out,
                            );
                        }
                    }
                    (Some(sv), None) => {
                        let Slot::Var(oi) = *o else { unreachable!() };
                        for row in self.range(Perm::Pso, &[*p, sv]) {
                            assignment[oi] = row[2];
                            self.recurse(
                                patterns,
                                order,
                                depth + 1,
                                assignment,
                                collector,
                                deadline,
                                timed_out,
                            );
                            if *timed_out {
                                return;
                            }
                        }
                        assignment[oi] = UNBOUND;
                    }
                    (None, Some(ov)) => {
                        let Slot::Var(si) = *s else { unreachable!() };
                        for row in self.range(Perm::Pos, &[*p, ov]) {
                            assignment[si] = row[2];
                            self.recurse(
                                patterns,
                                order,
                                depth + 1,
                                assignment,
                                collector,
                                deadline,
                                timed_out,
                            );
                            if *timed_out {
                                return;
                            }
                        }
                        assignment[si] = UNBOUND;
                    }
                    (None, None) => {
                        let (Slot::Var(si), Slot::Var(oi)) = (*s, *o) else {
                            unreachable!()
                        };
                        if si == oi {
                            // `?x p ?x`: scan the predicate, keep loops.
                            for row in self.range(Perm::Pso, &[*p]) {
                                if row[1] != row[2] {
                                    continue;
                                }
                                assignment[si] = row[1];
                                self.recurse(
                                    patterns,
                                    order,
                                    depth + 1,
                                    assignment,
                                    collector,
                                    deadline,
                                    timed_out,
                                );
                                if *timed_out {
                                    return;
                                }
                            }
                            assignment[si] = UNBOUND;
                        } else {
                            for row in self.range(Perm::Pso, &[*p]) {
                                assignment[si] = row[1];
                                assignment[oi] = row[2];
                                self.recurse(
                                    patterns,
                                    order,
                                    depth + 1,
                                    assignment,
                                    collector,
                                    deadline,
                                    timed_out,
                                );
                                if *timed_out {
                                    return;
                                }
                            }
                            assignment[si] = UNBOUND;
                            assignment[oi] = UNBOUND;
                        }
                    }
                }
            }
            IdPattern::Attr { s, attr } => match s.value(assignment) {
                Some(sv) => {
                    if self.attr_by_vertex.binary_search(&[sv, *attr]).is_ok() {
                        self.recurse(
                            patterns,
                            order,
                            depth + 1,
                            assignment,
                            collector,
                            deadline,
                            timed_out,
                        );
                    }
                }
                None => {
                    let Slot::Var(si) = *s else { unreachable!() };
                    let lo = self.attr_by_attr.partition_point(|r| r[0] < *attr);
                    let hi = self.attr_by_attr.partition_point(|r| r[0] <= *attr);
                    for row in &self.attr_by_attr[lo..hi] {
                        assignment[si] = row[1];
                        self.recurse(
                            patterns,
                            order,
                            depth + 1,
                            assignment,
                            collector,
                            deadline,
                            timed_out,
                        );
                        if *timed_out {
                            return;
                        }
                    }
                    assignment[si] = UNBOUND;
                }
            },
        }
    }
}

fn pattern_vars(pattern: &IdPattern) -> Vec<usize> {
    let mut vars = Vec::new();
    let mut push = |slot: &Slot| {
        if let Slot::Var(i) = slot {
            vars.push(*i);
        }
    };
    match pattern {
        IdPattern::Edge { s, o, .. } => {
            push(s);
            push(o);
        }
        IdPattern::Attr { s, .. } => push(s),
    }
    vars
}

/// Compilation result: patterns + variable table, or proof of emptiness.
enum Compiled {
    Patterns {
        patterns: Vec<IdPattern>,
        variables: Vec<Box<str>>,
    },
    /// Some constant is absent from the dictionaries, or a ground pattern
    /// is false: zero answers.
    Empty,
}

impl TripleStoreEngine {
    fn compile(&self, query: &SelectQuery) -> Result<Compiled, EngineError> {
        let mut variables: Vec<Box<str>> = Vec::new();
        let var_slot = |name: &str, variables: &mut Vec<Box<str>>| -> usize {
            match variables.iter().position(|v| v.as_ref() == name) {
                Some(i) => i,
                None => {
                    variables.push(name.into());
                    variables.len() - 1
                }
            }
        };
        let mut patterns = Vec::with_capacity(query.patterns.len());
        for p in &query.patterns {
            let pred = match &p.predicate {
                TermPattern::Iri(iri) => iri,
                TermPattern::Variable(v) => {
                    return Err(EngineError::QueryGraph(
                        amber_multigraph::query_graph::QueryGraphError::VariablePredicate(
                            v.clone(),
                        ),
                    ))
                }
                TermPattern::Literal(_) => {
                    return Err(EngineError::QueryGraph(
                        amber_multigraph::query_graph::QueryGraphError::LiteralPredicate,
                    ))
                }
            };
            let subject = match &p.subject {
                TermPattern::Variable(v) => Slot::Var(var_slot(v, &mut variables)),
                TermPattern::Iri(iri) => match self.rdf.vertex_by_key(iri) {
                    Some(v) => Slot::Const(v.0),
                    None => return Ok(Compiled::Empty),
                },
                TermPattern::Literal(_) => {
                    return Err(EngineError::QueryGraph(
                        amber_multigraph::query_graph::QueryGraphError::LiteralSubject,
                    ))
                }
            };
            match &p.object {
                TermPattern::Literal(lit) => {
                    let Some(attr) = self.rdf.dictionaries().attribute(pred, lit) else {
                        return Ok(Compiled::Empty);
                    };
                    patterns.push(IdPattern::Attr {
                        s: subject,
                        attr: attr.0,
                    });
                }
                object => {
                    let Some(pid) = self.rdf.edge_type_by_iri(pred) else {
                        return Ok(Compiled::Empty);
                    };
                    let object = match object {
                        TermPattern::Variable(v) => Slot::Var(var_slot(v, &mut variables)),
                        TermPattern::Iri(iri) => match self.rdf.vertex_by_key(iri) {
                            Some(v) => Slot::Const(v.0),
                            None => return Ok(Compiled::Empty),
                        },
                        TermPattern::Literal(_) => unreachable!("matched above"),
                    };
                    patterns.push(IdPattern::Edge {
                        s: subject,
                        p: pid.0,
                        o: object,
                    });
                }
            }
        }
        Ok(Compiled::Patterns {
            patterns,
            variables,
        })
    }
}

impl SparqlEngine for TripleStoreEngine {
    fn name(&self) -> &'static str {
        "TripleStore"
    }

    fn execute_query(
        &self,
        query: &SelectQuery,
        options: &ExecOptions,
    ) -> Result<QueryOutcome, EngineError> {
        let sw = Stopwatch::start();
        let output_vars: Vec<Box<str>> = query
            .output_variables()
            .into_iter()
            .map(Into::into)
            .collect();

        let (patterns, variables) = match self.compile(query)? {
            Compiled::Empty => {
                return Ok(QueryOutcome::empty(output_vars, sw.elapsed()));
            }
            Compiled::Patterns {
                patterns,
                variables,
            } => (patterns, variables),
        };

        let order = self.plan(&patterns, variables.len());
        let slot_of: FxHashMap<&str, usize> = variables
            .iter()
            .enumerate()
            .map(|(i, v)| (v.as_ref(), i))
            .collect();
        let output_slots: Vec<usize> = output_vars
            .iter()
            .map(|v| *slot_of.get(v.as_ref()).expect("projection validated"))
            .collect();

        let mut collector = RowCollector::new(
            output_slots,
            options.max_results,
            query.distinct,
            options.count_only,
        );
        let deadline = Deadline::new(options.timeout);
        let mut assignment = vec![UNBOUND; variables.len()];
        let mut timed_out = false;
        self.recurse(
            &patterns,
            &order,
            0,
            &mut assignment,
            &mut collector,
            &deadline,
            &mut timed_out,
        );
        Ok(collector.into_outcome(output_vars, timed_out, sw.elapsed(), &self.rdf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::{paper_graph, paper_query_text, PREFIX_X, PREFIX_Y};

    fn engine() -> TripleStoreEngine {
        TripleStoreEngine::new(Arc::new(paper_graph()))
    }

    #[test]
    fn permutations_hold_all_resource_triples() {
        let e = engine();
        assert_eq!(e.triple_count(), 13); // 16 triples − 3 literal triples
        for perm in &e.perms {
            assert_eq!(perm.len(), 13);
            assert!(perm.windows(2).all(|w| w[0] <= w[1]), "sorted");
        }
    }

    #[test]
    fn paper_query_counts_two() {
        let out = engine()
            .execute_sparql(&paper_query_text(), &ExecOptions::default())
            .unwrap();
        assert_eq!(out.embedding_count, 2);
    }

    #[test]
    fn range_scans() {
        let e = engine();
        // livedIn = t3 has 3 instances (Nolan→England, Amy→US, Blake→US).
        assert_eq!(e.range(Perm::Pso, &[3]).len(), 3);
        // (p=livedIn, o=United_States) = 2.
        assert_eq!(e.range(Perm::Pos, &[3, 5]).len(), 2);
    }

    #[test]
    fn bound_subject_query() {
        let q = format!("SELECT ?x WHERE {{ <{PREFIX_X}Amy_Winehouse> <{PREFIX_Y}livedIn> ?x . }}");
        let out = engine()
            .execute_sparql(&q, &ExecOptions::default())
            .unwrap();
        assert_eq!(out.embedding_count, 1);
        assert_eq!(
            out.bindings[0][0].as_ref(),
            format!("{PREFIX_X}United_States")
        );
    }

    #[test]
    fn attribute_pattern() {
        let q = format!("SELECT ?b WHERE {{ ?b <{PREFIX_Y}hasName> \"MCA_Band\" . }}");
        let out = engine()
            .execute_sparql(&q, &ExecOptions::default())
            .unwrap();
        assert_eq!(out.embedding_count, 1);
        assert_eq!(out.bindings[0][0].as_ref(), format!("{PREFIX_X}Music_Band"));
    }

    #[test]
    fn unknown_constants_yield_empty() {
        let out = engine()
            .execute_sparql(
                "SELECT * WHERE { ?a <http://nope/p> ?b . }",
                &ExecOptions::default(),
            )
            .unwrap();
        assert_eq!(out.embedding_count, 0);
    }

    #[test]
    fn ground_pattern_filters() {
        let good = format!(
            "SELECT ?p WHERE {{ <{PREFIX_X}London> <{PREFIX_Y}isPartOf> <{PREFIX_X}England> . \
             ?p <{PREFIX_Y}wasBornIn> <{PREFIX_X}London> . }}"
        );
        assert_eq!(
            engine()
                .execute_sparql(&good, &ExecOptions::default())
                .unwrap()
                .embedding_count,
            2
        );
        let bad = format!(
            "SELECT ?p WHERE {{ <{PREFIX_X}England> <{PREFIX_Y}isPartOf> <{PREFIX_X}London> . \
             ?p <{PREFIX_Y}wasBornIn> <{PREFIX_X}London> . }}"
        );
        assert_eq!(
            engine()
                .execute_sparql(&bad, &ExecOptions::default())
                .unwrap()
                .embedding_count,
            0
        );
    }

    #[test]
    fn plan_starts_with_most_selective() {
        let e = engine();
        // hasName "MCA_Band" (1 row) should be planned before wasBornIn (2 rows)
        // and livedIn (3 rows).
        let query = amber_sparql::parse_select(&format!(
            "SELECT * WHERE {{ ?p <{PREFIX_Y}livedIn> ?x . ?b <{PREFIX_Y}hasName> \"MCA_Band\" . }}"
        ))
        .unwrap();
        let Compiled::Patterns {
            patterns,
            variables,
        } = e.compile(&query).unwrap()
        else {
            panic!("compiles");
        };
        let order = e.plan(&patterns, variables.len());
        assert!(matches!(patterns[order[0]], IdPattern::Attr { .. }));
    }
}
