//! The paper's running example (Fig. 1 and Fig. 2) as a reusable fixture.
//!
//! The RDF tripleset of Fig. 1a, interned so that vertex / edge-type /
//! attribute identifiers match Table 2 *exactly* (`v0` = Music_Band, `t0` =
//! isPartOf, `a0` = `<hasCapacityOf, "90000">`, …). Downstream crates test
//! their index structures and the matcher against the worked examples of
//! §4 and §5 using this fixture.
//!
//! Two inconsistencies in the paper's figures are resolved in favour of a
//! satisfiable example (the walkthrough in §4.3 and Fig. 2c confirm the
//! intent):
//!
//! * Fig. 2a writes `?X0 y:livedIn ?X1` but Fig. 2c and the §4.3 example use
//!   the edge type `t5` (wasBornIn) between `u0` and `u1` — we use
//!   `wasBornIn`;
//! * Fig. 2a writes `"1934"` for the founding year while Fig. 1a and
//!   Table 2c carry `"1994"` — we use `"1994"` (attribute `a1`).

use crate::builder::{GraphBuilder, RdfGraph};
use rdf_model::{Literal, Triple};

/// Namespace of entity IRIs (`x:` in the paper).
pub const PREFIX_X: &str = "http://dbpedia.org/resource/";
/// Namespace of predicate IRIs (`y:` in the paper).
pub const PREFIX_Y: &str = "http://dbpedia.org/ontology/";

/// Number of homomorphic embeddings of the running-example query in the
/// running-example data (`?X0 ∈ {Amy_Winehouse, Christopher_Nolan}`, all
/// other variables forced).
pub const PAPER_QUERY_EMBEDDINGS: usize = 2;

fn x(local: &str) -> String {
    format!("{PREFIX_X}{local}")
}

fn y(local: &str) -> String {
    format!("{PREFIX_Y}{local}")
}

/// The 16 triples of Fig. 1a (canonical predicate spellings).
pub fn paper_triples() -> Vec<Triple> {
    vec![
        Triple::resource(&x("London"), &y("isPartOf"), &x("England")),
        Triple::resource(&x("England"), &y("hasCapital"), &x("London")),
        Triple::resource(&x("Christopher_Nolan"), &y("wasBornIn"), &x("London")),
        Triple::resource(&x("Christopher_Nolan"), &y("livedIn"), &x("England")),
        Triple::resource(
            &x("Christopher_Nolan"),
            &y("isPartOf"),
            &x("Dark_Knight_Trilogy"),
        ),
        Triple::resource(&x("London"), &y("hasStadium"), &x("WembleyStadium")),
        Triple::literal(&x("WembleyStadium"), &y("hasCapacityOf"), "90000"),
        Triple::resource(&x("Amy_Winehouse"), &y("wasBornIn"), &x("London")),
        Triple::resource(&x("Amy_Winehouse"), &y("diedIn"), &x("London")),
        Triple::resource(&x("Amy_Winehouse"), &y("wasPartOf"), &x("Music_Band")),
        Triple::literal(&x("Music_Band"), &y("hasName"), "MCA_Band"),
        Triple::literal(&x("Music_Band"), &y("wasFoundedIn"), "1994"),
        Triple::resource(&x("Music_Band"), &y("wasFormedIn"), &x("London")),
        Triple::resource(&x("Amy_Winehouse"), &y("livedIn"), &x("United_States")),
        Triple::resource(
            &x("Amy_Winehouse"),
            &y("wasMarriedTo"),
            &x("Blake_Fielder-Civil"),
        ),
        Triple::resource(
            &x("Blake_Fielder-Civil"),
            &y("livedIn"),
            &x("United_States"),
        ),
    ]
}

/// Vertex dictionary order of Table 2a (`v0` … `v8`).
pub const VERTEX_ORDER: [&str; 9] = [
    "Music_Band",
    "Amy_Winehouse",
    "London",
    "England",
    "WembleyStadium",
    "United_States",
    "Blake_Fielder-Civil",
    "Christopher_Nolan",
    "Dark_Knight_Trilogy",
];

/// Edge-type dictionary order of Table 2b (`t0` … `t8`).
pub const EDGE_TYPE_ORDER: [&str; 9] = [
    "isPartOf",
    "hasCapital",
    "hasStadium",
    "livedIn",
    "diedIn",
    "wasBornIn",
    "wasFormedIn",
    "wasPartOf",
    "wasMarriedTo",
];

/// The data multigraph of Fig. 1c with Table 2's exact id assignment.
pub fn paper_graph() -> RdfGraph {
    let mut builder = GraphBuilder::new();
    for local in VERTEX_ORDER {
        builder.declare_vertex(&x(local));
    }
    for local in EDGE_TYPE_ORDER {
        builder.declare_edge_type(&y(local));
    }
    // Table 2c: a0, a1, a2.
    builder.declare_attribute(&y("hasCapacityOf"), &Literal::plain("90000"));
    builder.declare_attribute(&y("wasFoundedIn"), &Literal::plain("1994"));
    builder.declare_attribute(&y("hasName"), &Literal::plain("MCA_Band"));
    let triples = paper_triples();
    builder.add_triples(&triples);
    builder.finish()
}

/// The running-example SPARQL query (Fig. 2a, consistent variant).
pub fn paper_query_text() -> String {
    format!(
        r#"PREFIX x: <{PREFIX_X}>
PREFIX y: <{PREFIX_Y}>
SELECT ?X0 ?X1 ?X2 ?X3 ?X4 ?X5 ?X6 WHERE {{
  ?X0 y:wasBornIn ?X1 .
  ?X1 y:isPartOf ?X2 .
  ?X2 y:hasCapital ?X1 .
  ?X1 y:hasStadium ?X4 .
  ?X3 y:wasBornIn ?X1 .
  ?X3 y:diedIn ?X1 .
  ?X3 y:wasMarriedTo ?X6 .
  ?X3 y:wasPartOf ?X5 .
  ?X5 y:wasFormedIn ?X1 .
  ?X4 y:hasCapacityOf "90000" .
  ?X5 y:hasName "MCA_Band" .
  ?X5 y:wasFoundedIn "1994" .
  ?X3 y:livedIn x:United_States .
}}"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{QVertexId, VertexId};
    use crate::query_graph::QueryGraph;
    use crate::signature::{Synopsis, VertexSignature};
    use amber_sparql::parse_select;

    #[test]
    fn table_2a_vertex_ids() {
        let rdf = paper_graph();
        for (i, local) in VERTEX_ORDER.iter().enumerate() {
            assert_eq!(
                rdf.vertex_by_key(&x(local)),
                Some(VertexId(i as u32)),
                "vertex {local} should be v{i}"
            );
        }
    }

    #[test]
    fn table_2b_edge_type_ids() {
        let rdf = paper_graph();
        for (i, local) in EDGE_TYPE_ORDER.iter().enumerate() {
            assert_eq!(rdf.edge_type_by_iri(&y(local)).unwrap().0, i as u32);
        }
    }

    #[test]
    fn table_2c_attribute_ids() {
        let rdf = paper_graph();
        let dicts = rdf.dictionaries();
        assert_eq!(
            dicts
                .attribute(&y("hasCapacityOf"), &Literal::plain("90000"))
                .unwrap()
                .0,
            0
        );
        assert_eq!(
            dicts
                .attribute(&y("wasFoundedIn"), &Literal::plain("1994"))
                .unwrap()
                .0,
            1
        );
        assert_eq!(
            dicts
                .attribute(&y("hasName"), &Literal::plain("MCA_Band"))
                .unwrap()
                .0,
            2
        );
    }

    #[test]
    fn figure_1c_statistics() {
        let rdf = paper_graph();
        let stats = rdf.stats();
        assert_eq!(stats.triples, 16);
        assert_eq!(stats.vertices, 9);
        assert_eq!(stats.edges, 12); // directed pairs (Amy→London merges 2 types)
        assert_eq!(stats.edge_types, 9);
        assert_eq!(stats.attributes, 3);
    }

    /// Every synopsis row of Table 3, verbatim.
    #[test]
    fn table_3_synopses() {
        let rdf = paper_graph();
        let g = rdf.graph();
        let expected: [[i64; 8]; 9] = [
            [1, 1, -7, 7, 1, 1, -6, 6], // v0 Music_Band
            [0, 0, 0, 0, 2, 5, -3, 8],  // v1 Amy_Winehouse
            [2, 4, -1, 6, 1, 2, 0, 2],  // v2 London
            [1, 2, 0, 3, 1, 1, -1, 1],  // v3 England
            [1, 1, -2, 2, 0, 0, 0, 0],  // v4 WembleyStadium
            [1, 1, -3, 3, 0, 0, 0, 0],  // v5 United_States
            [1, 1, -8, 8, 1, 1, -3, 3], // v6 Blake_Fielder-Civil
            [0, 0, 0, 0, 1, 3, 0, 5],   // v7 Christopher_Nolan
            [1, 1, 0, 0, 0, 0, 0, 0],   // v8 Dark_Knight_Trilogy
        ];
        for (i, row) in expected.iter().enumerate() {
            let syn = VertexSignature::of_data_vertex(g, VertexId(i as u32)).synopsis();
            assert_eq!(
                syn,
                Synopsis(*row),
                "synopsis mismatch for v{i} ({})",
                rdf.vertex_name(VertexId(i as u32))
            );
        }
    }

    #[test]
    fn figure_2c_query_graph_shape() {
        let rdf = paper_graph();
        let query = parse_select(&paper_query_text()).unwrap();
        let qg = QueryGraph::build(&query, &rdf).unwrap();
        assert!(!qg.is_unsatisfiable());
        assert_eq!(qg.vertex_count(), 7);

        let u = |name: &str| qg.vertex_by_name(name).unwrap();
        // Degrees (variable neighbours): X1 = {X0,X2,X4,X3,X5} = 5, X3 = 3,
        // X5 = 2, satellites = 1.
        assert_eq!(qg.degree(u("X1")), 5);
        assert_eq!(qg.degree(u("X3")), 3);
        assert_eq!(qg.degree(u("X5")), 2);
        for sat in ["X0", "X2", "X4", "X6"] {
            assert_eq!(qg.degree(u(sat)), 1, "{sat} must be a satellite");
        }

        // u5 carries {a1, a2} (Fig. 2c), u4 carries {a0}.
        assert_eq!(
            qg.vertex(u("X5")).attrs,
            vec![crate::ids::AttrId(1), crate::ids::AttrId(2)]
        );
        assert_eq!(qg.vertex(u("X4")).attrs, vec![crate::ids::AttrId(0)]);

        // X3 has the United_States IRI vertex with an outgoing livedIn edge.
        let x3 = qg.vertex(u("X3"));
        assert_eq!(x3.iri_constraints.len(), 1);
        let c = &x3.iri_constraints[0];
        assert_eq!(rdf.vertex_name(c.data_vertex), x("United_States"));
        assert_eq!(c.direction, crate::data_graph::Direction::Outgoing);
        assert_eq!(qg.types(c.types), &[crate::ids::EdgeTypeId(3)]);

        // The X3→X1 multi-edge merges diedIn (t4) and wasBornIn (t5).
        let m = qg.multi_edge(u("X3"), u("X1")).unwrap();
        assert_eq!(m, &[crate::ids::EdgeTypeId(4), crate::ids::EdgeTypeId(5)]);

        // Everything is one connected component.
        assert_eq!(qg.connected_components().len(), 1);
        let _ = QVertexId(0); // silence unused import lint in some cfgs
    }

    #[test]
    fn query_vertex_signatures_match_figure_2c() {
        let rdf = paper_graph();
        let query = parse_select(&paper_query_text()).unwrap();
        let qg = QueryGraph::build(&query, &rdf).unwrap();
        let u = |name: &str| qg.vertex_by_name(name).unwrap();

        // §4.2: σ_u0 = {-t5} → synopsis [0,0,0,0,1,1,-5,5], except that
        // the query side reads f3 of an empty half as i64::MIN (see
        // `VertexSignature::query_synopsis`).
        let scratch = &mut Vec::new();
        assert_eq!(
            qg.query_synopsis(u("X0"), scratch),
            Synopsis([0, 0, i64::MIN, 0, 1, 1, -5, 5])
        );
        // u5: incoming {t7} (from X3), outgoing {t6} (to X1).
        assert_eq!(
            qg.query_synopsis(u("X5"), scratch),
            Synopsis([1, 1, -7, 7, 1, 1, -6, 6])
        );
    }
}
