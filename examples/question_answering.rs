//! Question-answering scenario: machine-generated complex queries.
//!
//! ```sh
//! cargo run --release --example question_answering
//! ```
//!
//! The paper's second motivating workload (§1) is question answering:
//! systems like QAKiS translate natural-language questions into SPARQL
//! whose *size and structure cannot be bounded* — the DBpedia SPARQL
//! benchmark contains queries with more than 50 triple patterns. This
//! example simulates that pipeline on the LUBM-like university graph:
//! hand-written "questions" (fixed SPARQL templates over the university
//! schema) plus machine-generated complex-shaped queries of growing size.

use amber::{AmberEngine, ExecOptions};
use amber_datagen::{lubm, Benchmark, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::RdfGraph;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    println!("Generating LUBM-like data (3 universities)…");
    let triples = Benchmark::Lubm.generate(3, 1);
    let rdf = Arc::new(RdfGraph::from_triples(&triples));
    println!("{} triples loaded\n", rdf.stats().triples);
    let engine = AmberEngine::from_graph(Arc::clone(&rdf));
    let options = ExecOptions::default().with_timeout(Duration::from_secs(10));

    // --- Hand-written "questions" over the university schema --------------
    let ub = lubm::UB;
    let questions = [
        (
            "Who heads a department, and which university does it belong to?",
            format!(
                "SELECT ?head ?dept ?univ WHERE {{ \
                 ?head <{ub}headOf> ?dept . \
                 ?dept <{ub}subOrganizationOf> ?univ . }}"
            ),
        ),
        (
            "Which graduate students take a course taught by their own advisor?",
            format!(
                "SELECT ?student ?prof ?course WHERE {{ \
                 ?student <{ub}advisor> ?prof . \
                 ?prof <{ub}teacherOf> ?course . \
                 ?student <{ub}takesCourse> ?course . }}"
            ),
        ),
        (
            "Which professors got their doctorate from University0 and work in one of its departments?",
            format!(
                "SELECT ?prof ?dept WHERE {{ \
                 ?prof <{ub}doctoralDegreeFrom> <http://www.lubm-data.org/University0> . \
                 ?prof <{ub}worksFor> ?dept . \
                 ?dept <{ub}subOrganizationOf> <http://www.lubm-data.org/University0> . }}"
            ),
        ),
    ];

    for (question, sparql) in &questions {
        let outcome = engine.execute(sparql, &options).expect("valid query");
        println!("Q: {question}");
        println!(
            "A: {} answers in {:.2?}",
            outcome.embedding_count, outcome.elapsed
        );
        for row in outcome.bindings.iter().take(3) {
            let short: Vec<&str> = row
                .iter()
                .map(|iri| iri.rsplit('/').next().unwrap_or(iri))
                .collect();
            println!("   {}", short.join(" · "));
        }
        if outcome.bindings.len() > 3 {
            println!("   … and {} more", outcome.bindings.len() - 3);
        }
        println!();
    }

    // --- Machine-generated complex queries (the unbounded tail) -----------
    println!("Machine-generated complex queries (QA translation simulation):");
    let mut generator = WorkloadGenerator::new(&rdf, 99);
    let count_options = ExecOptions::benchmark(Duration::from_secs(10));
    for size in [10, 25, 50] {
        let Some(generated) = generator.generate(&WorkloadConfig::new(QueryShape::Complex, size))
        else {
            continue;
        };
        let outcome = engine
            .execute_parsed(&generated.query, &count_options)
            .expect("generated query executes");
        println!(
            "  {size:>2} triple patterns → {} embeddings in {:.2?}{}",
            outcome.embedding_count,
            outcome.elapsed,
            if outcome.timed_out() {
                " (timeout)"
            } else {
                ""
            }
        );
    }
}
