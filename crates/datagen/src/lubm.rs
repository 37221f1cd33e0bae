//! LUBM-like generator (paper §7.1: "LUBM provides a standard RDF benchmark
//! … we create LUBM100 where the number represents the scaling factor").
//!
//! LUBM (the Lehigh University Benchmark) is itself a synthetic generator
//! over a university schema, so unlike DBPEDIA/YAGO this is a
//! re-implementation rather than a stand-in: universities contain
//! departments; departments employ professors who advise students, teach
//! courses and write publications. The schema uses exactly **13 resource
//! predicates** (matching Table 4's edge-type count for LUBM100) plus
//! literal predicates (name, email, telephone) that the multigraph folds
//! into vertex attributes.
//!
//! `scale` is the number of universities, mirroring LUBM's scaling factor.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdf_model::{Iri, Literal, Triple};

/// Ontology namespace (predicates and classes).
pub const UB: &str = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";
/// Entity namespace.
pub const DATA: &str = "http://www.lubm-data.org/";

/// The 13 resource predicates.
const PREDICATES: [&str; 13] = [
    "rdf_type",
    "subOrganizationOf",
    "undergraduateDegreeFrom",
    "mastersDegreeFrom",
    "doctoralDegreeFrom",
    "memberOf",
    "worksFor",
    "advisor",
    "teacherOf",
    "takesCourse",
    "publicationAuthor",
    "headOf",
    "teachingAssistantOf",
];

fn pred(name: &str) -> Iri {
    debug_assert!(PREDICATES.contains(&name));
    Iri::new(format!("{UB}{name}"))
}

fn class(name: &str) -> Iri {
    Iri::new(format!("{UB}{name}"))
}

/// Generate `scale` universities worth of data.
pub fn generate(scale: u32, seed: u64) -> Vec<Triple> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut triples = Vec::new();
    let universities = scale.max(1) as usize;

    for u in 0..universities {
        let univ = Iri::new(format!("{DATA}University{u}"));
        triples.push(Triple::new(
            univ.clone(),
            pred("rdf_type"),
            class("University"),
        ));
        triples.push(Triple::new(
            univ.clone(),
            Iri::new(format!("{UB}name")),
            Literal::plain(format!("University {u}")),
        ));

        let departments = rng.gen_range(3..=8);
        for d in 0..departments {
            let dept = Iri::new(format!("{DATA}University{u}/Department{d}"));
            triples.push(Triple::new(
                dept.clone(),
                pred("rdf_type"),
                class("Department"),
            ));
            triples.push(Triple::new(
                dept.clone(),
                pred("subOrganizationOf"),
                univ.clone(),
            ));

            // Professors.
            let professors = rng.gen_range(5..=12);
            let mut professor_iris = Vec::with_capacity(professors);
            let mut courses = Vec::new();
            for p in 0..professors {
                let prof = Iri::new(format!("{DATA}University{u}/Department{d}/Professor{p}"));
                let rank = match p {
                    0 => "FullProfessor",
                    _ if p % 3 == 0 => "AssociateProfessor",
                    _ => "AssistantProfessor",
                };
                triples.push(Triple::new(prof.clone(), pred("rdf_type"), class(rank)));
                triples.push(Triple::new(prof.clone(), pred("worksFor"), dept.clone()));
                triples.push(Triple::new(
                    prof.clone(),
                    Iri::new(format!("{UB}name")),
                    Literal::plain(format!("Professor {u}-{d}-{p}")),
                ));
                triples.push(Triple::new(
                    prof.clone(),
                    Iri::new(format!("{UB}emailAddress")),
                    Literal::plain(format!("prof{p}@dept{d}.univ{u}.edu")),
                ));
                // Degrees from random universities (creates inter-university
                // links, LUBM's signature cross-referencing).
                for degree in [
                    "undergraduateDegreeFrom",
                    "mastersDegreeFrom",
                    "doctoralDegreeFrom",
                ] {
                    let from = rng.gen_range(0..universities);
                    triples.push(Triple::new(
                        prof.clone(),
                        pred(degree),
                        Iri::new(format!("{DATA}University{from}")),
                    ));
                }
                if p == 0 {
                    triples.push(Triple::new(prof.clone(), pred("headOf"), dept.clone()));
                }

                // Courses taught.
                let course_count = rng.gen_range(1..=3);
                for c in 0..course_count {
                    let course =
                        Iri::new(format!("{DATA}University{u}/Department{d}/Course{p}_{c}"));
                    triples.push(Triple::new(
                        course.clone(),
                        pred("rdf_type"),
                        class("Course"),
                    ));
                    triples.push(Triple::new(prof.clone(), pred("teacherOf"), course.clone()));
                    courses.push(course);
                }

                // Publications.
                let pubs = rng.gen_range(2..=8);
                for pb in 0..pubs {
                    let publication = Iri::new(format!(
                        "{DATA}University{u}/Department{d}/Publication{p}_{pb}"
                    ));
                    triples.push(Triple::new(
                        publication.clone(),
                        pred("rdf_type"),
                        class("Publication"),
                    ));
                    triples.push(Triple::new(
                        publication,
                        pred("publicationAuthor"),
                        prof.clone(),
                    ));
                }
                professor_iris.push(prof);
            }

            // Students.
            let students = rng.gen_range(20..=60);
            for s in 0..students {
                let student = Iri::new(format!("{DATA}University{u}/Department{d}/Student{s}"));
                let is_grad = s % 4 == 0;
                triples.push(Triple::new(
                    student.clone(),
                    pred("rdf_type"),
                    class(if is_grad {
                        "GraduateStudent"
                    } else {
                        "UndergraduateStudent"
                    }),
                ));
                triples.push(Triple::new(student.clone(), pred("memberOf"), dept.clone()));
                triples.push(Triple::new(
                    student.clone(),
                    Iri::new(format!("{UB}telephone")),
                    Literal::plain(format!("+1-555-{u:02}{d:02}-{s:04}")),
                ));
                // Courses taken.
                if !courses.is_empty() {
                    let take = rng.gen_range(1..=3.min(courses.len()));
                    for _ in 0..take {
                        let course = &courses[rng.gen_range(0..courses.len())];
                        triples.push(Triple::new(
                            student.clone(),
                            pred("takesCourse"),
                            course.clone(),
                        ));
                    }
                }
                // Graduate students have advisors and may TA.
                if is_grad {
                    let advisor = &professor_iris[rng.gen_range(0..professor_iris.len())];
                    triples.push(Triple::new(
                        student.clone(),
                        pred("advisor"),
                        advisor.clone(),
                    ));
                    if s % 8 == 0 && !courses.is_empty() {
                        let course = &courses[rng.gen_range(0..courses.len())];
                        triples.push(Triple::new(
                            student.clone(),
                            pred("teachingAssistantOf"),
                            course.clone(),
                        ));
                    }
                }
            }
        }
    }
    triples
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::RdfGraph;

    #[test]
    fn exactly_13_resource_predicates() {
        let rdf = RdfGraph::from_triples(&generate(2, 3));
        assert_eq!(
            rdf.stats().edge_types,
            13,
            "Table 4: LUBM has 13 edge types"
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate(1, 9), generate(1, 9));
        assert_ne!(generate(1, 9), generate(1, 10));
    }

    #[test]
    fn departments_are_hubs() {
        // Departments accumulate memberOf/worksFor/subOrganizationOf edges:
        // enough incident triples for size-50 star queries.
        let rdf = RdfGraph::from_triples(&generate(1, 3));
        let g = rdf.graph();
        let max_incident = g
            .vertices()
            .map(|v| g.out_edges(v).len() + g.in_edges(v).len())
            .max()
            .unwrap();
        assert!(max_incident >= 50, "largest hub has {max_incident} triples");
    }

    #[test]
    fn schema_relations_hold() {
        let rdf = RdfGraph::from_triples(&generate(1, 3));
        let g = rdf.graph();
        // every department is subOrganizationOf some university
        let sub = rdf
            .edge_type_by_iri(&format!("{UB}subOrganizationOf"))
            .unwrap();
        let dept_class = rdf.vertex_by_key(&format!("{UB}Department")).unwrap();
        let type_pred = rdf.edge_type_by_iri(&format!("{UB}rdf_type")).unwrap();
        for entry in g.in_edges(dept_class) {
            if entry.edge_type() != type_pred {
                continue;
            }
            let dept = entry.neighbor;
            let has_parent = g.out_edges(dept).iter().any(|e| e.edge_type() == sub);
            assert!(has_parent, "department without university");
        }
    }

    #[test]
    fn scale_is_university_count() {
        let rdf = RdfGraph::from_triples(&generate(3, 1));
        let count = (0..10)
            .filter(|u| rdf.vertex_by_key(&format!("{DATA}University{u}")).is_some())
            .count();
        assert_eq!(count, 3);
    }
}
