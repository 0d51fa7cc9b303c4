//! A database of computational experiments over the trace domain **T**.
//!
//! The paper's conclusion suggests T "is arguably a natural choice in
//! several applications related to storing results of computations, for
//! example in databases of computational experiments." This example
//! stores traces of several machines, queries them with the ternary
//! predicate `P` and the Reach-theory functions `w`/`m`, and uses the
//! Theorem A.3 decision procedure to answer pure-domain questions.
//!
//! ```sh
//! cargo run --example trace_database
//! ```

use finite_queries::query::{DomainId, Executor};
use finite_queries::relational::{Schema, StateBuilder, Value};
use finite_queries::turing::trace::trace_string;
use finite_queries::turing::{builders, encode_machine};

fn main() {
    // Scheme: one unary relation holding experiment logs (traces).
    // Generated corpora load through the batch ingestion path: stage
    // every row in a StateBuilder, merge once in finish().
    let schema = Schema::new().with_relation("Log", 1);
    let mut builder = StateBuilder::new(schema);

    // Run two machines on a few inputs and store every trace prefix.
    let scanner = builders::scan_right_halt_on_blank();
    let eraser = builders::erase_and_halt();
    for machine in [&scanner, &eraser] {
        for word in ["1", "11", "1&1"] {
            let mut k = 1;
            while let Some(t) = trace_string(machine, word, k) {
                builder.row("Log", vec![Value::Str(t)]);
                k += 1;
            }
        }
    }
    let state = builder.finish();
    println!("stored {} traces", state.size());

    let exec = Executor::default();

    // Which logged strings are traces of the scanner in word "11"? The
    // safe-range query compiles to algebra: a scan of `Log` and a
    // selection that evaluates `P` with the trace-domain operations.
    let enc = encode_machine(&scanner);
    let q = format!("Log(p) & P(\"{enc}\", \"11\", p)");
    let out = exec.execute(&state, &q, DomainId::Traces).unwrap();
    println!("scanner traces in \"11\": {}", out.rows.len());

    // Group logs by input word using the Reach function w(·).
    let out = exec
        .execute(&state, "Log(p) & w(p) = \"1&1\"", DomainId::Traces)
        .unwrap();
    println!("logs with input word \"1&1\": {}", out.rows.len());

    // Pure-domain questions, decided by the Theorem A.3 quantifier
    // elimination (no state involved):
    let decide = |s: &str| exec.decide(DomainId::Traces, s).unwrap();

    // "Does the scanner have more than three traces in '111'?" — it halts
    // after 3 steps there, so it has exactly 4.
    println!(
        "D_4(scanner, \"111\") = {}",
        decide(&format!("D(4, \"{enc}\", \"111\")"))
    );
    println!(
        "D_5(scanner, \"111\") = {}",
        decide(&format!("D(5, \"{enc}\", \"111\")"))
    );

    // "Is there a machine that halts instantly on '11' but runs at least
    // 4 steps on '&&&&'?" — Lemma A.2 says yes (prefixes diverge).
    println!(
        "∃x (E_1(x,\"11\") ∧ D_4(x,\"&&&&\")) = {}",
        decide("exists x. E(1, x, \"11\") & D(4, x, \"&&&&\")")
    );

    // "Every trace's machine and word satisfy P" — a theorem of T.
    println!(
        "∀p (T(p) → P(m(p), w(p), p)) = {}",
        decide("forall p. T(p) -> P(m(p), w(p), p)")
    );

    // "Some machine has unboundedly many traces in some word" cannot be
    // stated in FO — but for a concrete divergent machine, every bound is
    // exceeded:
    let looper = encode_machine(&builders::looper());
    println!(
        "D_50(looper, \"1\") = {}",
        decide(&format!("D(50, \"{looper}\", \"1\")"))
    );
}
