//! The paper's Section 1 example in depth: the father–son database.
//!
//! Builds a genealogy, runs the paper's M(x) ("more than one son") and
//! G(x, z) ("grandfather") queries through the pipeline, demonstrates
//! why M ∨ G is *unsafe* exactly when someone has at least two sons
//! (the paper's footnote 4), and shows the planner compiling the safe
//! queries into relational algebra (Codd's theorem).
//!
//! ```sh
//! cargo run --example genealogy
//! ```

use finite_queries::query::{DomainId, Executor, QueryPlan};
use finite_queries::relational::{Schema, State, Value};

fn person(n: u64) -> Value {
    Value::Nat(n)
}

fn main() {
    let schema = Schema::new().with_relation("F", 2);

    // A three-generation family: 1 fathered 2 and 3; 2 fathered 4; 4
    // fathered 5.
    let state = State::new(schema.clone())
        .with_tuple("F", vec![person(1), person(2)])
        .with_tuple("F", vec![person(1), person(3)])
        .with_tuple("F", vec![person(2), person(4)])
        .with_tuple("F", vec![person(4), person(5)]);

    let m = "exists y z. y != z & F(x, y) & F(x, z)";
    let g = "exists y. F(x, y) & F(y, z)";
    let m_or_g = "(exists y. exists w. y != w & F(x, y) & F(x, w)) | (exists y. F(x, y) & F(y, z))";

    println!("state: {} father–son facts", state.size());

    let exec = Executor::default();

    // Answer the two safe queries through the pipeline.
    let m_out = exec.execute(&state, m, DomainId::Eq).unwrap();
    println!("M(x)  — fathers of ≥2 sons: {:?}", m_out.rows);
    let g_out = exec.execute(&state, g, DomainId::Eq).unwrap();
    println!("G(x,z) — grandfather pairs: {:?}", g_out.rows);

    // The planner agrees with the syntactic test: M and G compile to
    // algebra, M ∨ G cannot.
    for (name, src) in [("M", m), ("G", g), ("M∨G", m_or_g)] {
        let (planned, _) = exec.plan(&state, src, DomainId::Eq).unwrap();
        println!("{name:<4} strategy: {}", planned.plan.strategy());
    }

    // The paper's footnote: "M(x) ∨ G(x, z) only gives an infinite answer
    // if there is a person who parented two or more sons".
    println!(
        "M∨G finite in this state (someone has 2 sons): {}",
        exec.relative_safety(&state, m_or_g, DomainId::Eq)
            .unwrap()
            .unwrap()
    );
    let single_sons = State::new(schema.clone())
        .with_tuple("F", vec![person(1), person(2)])
        .with_tuple("F", vec![person(2), person(4)]);
    println!(
        "M∨G finite in a single-son state:              {}",
        exec.relative_safety(&single_sons, m_or_g, DomainId::Eq)
            .unwrap()
            .unwrap()
    );

    // Codd's theorem, as the planner applies it: the safe query's plan
    // carries the compiled algebra expression.
    let (planned, _) = exec.plan(&state, g, DomainId::Eq).unwrap();
    if let QueryPlan::Algebra { expr, .. } = &planned.plan {
        let rel = expr.eval(&state).unwrap();
        println!(
            "G compiled to algebra: attrs {:?}, {} tuples",
            rel.attrs,
            rel.tuples.len()
        );
        assert_eq!(rel.tuples.len(), g_out.rows.len());
    }
}
