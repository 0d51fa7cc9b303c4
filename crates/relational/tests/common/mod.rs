//! The state and query generators the relational property suites share.

use fq_logic::{Formula, Term};
use fq_relational::schema::Schema;
use fq_relational::state::{State, Value};
use proptest::prelude::*;

pub fn schema() -> Schema {
    Schema::new().with_relation("R", 2).with_relation("S", 1)
}

pub fn arb_state() -> impl Strategy<Value = State> {
    (
        proptest::collection::btree_set((0u64..5, 0u64..5), 0..6),
        proptest::collection::btree_set(0u64..5, 0..4),
    )
        .prop_map(|(r, s)| {
            let mut state = State::new(schema());
            for (a, b) in r {
                state.insert("R", vec![Value::Nat(a), Value::Nat(b)]);
            }
            for a in s {
                state.insert("S", vec![Value::Nat(a)]);
            }
            state
        })
}

/// Random queries: range-giving atoms (`R`, `S`, `x = k`, `x = c + d`,
/// `R(x, y')`), domain atoms (`x < y`, `x <= y`, `x + c = y`, `y = x'`),
/// conjunction, same-variable disjunction, negation and existentials.
/// Many draws are not safe-range; the properties filter them.
pub fn arb_query() -> impl Strategy<Value = Formula> {
    let v = || prop_oneof![Just("x"), Just("y"), Just("z")].prop_map(Term::var);
    let nat = |range: std::ops::Range<u64>| range.prop_map(Term::Nat);
    let plus = |a: Term, b: Term| Term::app2("+", a, b);
    let atom = prop_oneof![
        3 => (v(), v()).prop_map(|(a, b)| Formula::pred("R", vec![a, b])),
        2 => v().prop_map(|a| Formula::pred("S", vec![a])),
        2 => (v(), nat(0..5)).prop_map(|(a, k)| Formula::eq(a, k)),
        1 => (v(), nat(0..3), nat(0..3)).prop_map(move |(a, c, d)| Formula::eq(a, plus(c, d))),
        1 => (v(), v()).prop_map(|(a, b)| Formula::pred("R", vec![a, b.succ()])),
        1 => (v(), v()).prop_map(|(a, b)| Formula::lt(a, b)),
        1 => (v(), v()).prop_map(|(a, b)| Formula::pred("<=", vec![a, b])),
        1 => (v(), nat(1..3), v()).prop_map(move |(a, c, b)| Formula::eq(plus(a, c), b)),
        1 => (v(), v()).prop_map(|(a, b)| Formula::eq(b, a.succ())),
    ];
    atom.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            3 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::And(vec![a, b])),
            // Same-variable union: a | a-variant keeps attributes equal.
            1 => inner.clone().prop_map(|a| Formula::Or(vec![a.clone(), a])),
            // Negation under a conjunction; whether its variables are
            // bound is left to the safe-range filter.
            2 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Formula::And(vec![a, Formula::Not(Box::new(b))])),
            2 => (prop_oneof![Just("x"), Just("y"), Just("z")], inner.clone())
                .prop_map(|(v, b)| Formula::exists(v, b)),
        ]
    })
}
