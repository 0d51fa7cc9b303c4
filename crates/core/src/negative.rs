//! The Theorem 3.1 reduction: effective syntax ⟹ enumeration of the
//! total Turing machines.
//!
//! The proof of Theorem 3.1: suppose φ₁(x), φ₂(x), … is a recursive
//! enumeration of finite formulas covering every finite query. "Given a
//! machine M_k and a formula φ_r(x), consider the formula
//!
//! ```text
//! (∀z)(∀x)( M_k(x)[z/c] ↔ φ_r(x)[z/c] )
//! ```
//!
//! … because \[of\] the decidability of the theory, we can check whether it
//! is true or not. Now if it happens to be true, we know that M_k is a
//! total machine … Hence, by continuously analyzing all pairs of k and r,
//! we can establish a recursive enumeration of all total Turing machines.
//! But this is known to be impossible."
//!
//! This module implements the reduction *literally*: a
//! [`CandidateSyntax`] plugs in, [`certify_total`] runs the displayed
//! sentence through the Theorem A.3 decision procedure, and
//! [`TotalityEnumerator`] dovetails over pairs. Running it against a
//! concrete candidate syntax exhibits the failure the theorem predicts:
//! the candidate certifies only machines of a special shape, and an
//! explicit total machine outside that shape (its totality query *is*
//! finite) is never covered — see [`refute_candidate_syntax`].

use crate::safety::totality_query_open;
use fq_domains::{DecidableTheory, DomainError, TraceDomain};
use fq_logic::{substitute_const, Formula, Term};
use fq_turing::{encode_machine, Machine, MachineEnumerator};

/// A candidate effective syntax for the finite queries of **T**: an
/// enumerable family of formulas with free variable `x` over the scheme
/// with the single constant `c`, every member of which is finite.
pub trait CandidateSyntax {
    /// Human-readable name for reports.
    fn name(&self) -> String;

    /// The `r`-th candidate formula (0-based); `None` when the family is
    /// finite and exhausted.
    fn candidate(&self, r: usize) -> Option<Formula>;
}

/// The natural candidate: `Φ_{k,j}(x) := P(M_k, c, x) ∧ E_j(M_k, c)`,
/// dovetailed over the machine enumeration and `j ≥ 1`.
///
/// Every member is finite: in a state where `E_j(M_k, c)` holds, `M_k`
/// halts on the state's word and `P` has exactly `j` answers; otherwise
/// the answer is empty. But the family only captures totality queries of
/// machines whose running time is *the same on every input* — a total
/// machine with input-dependent running time (e.g. the right-scanner) is
/// missed, which is the concrete face of Theorem 3.1.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactRuntimeSyntax;

impl ExactRuntimeSyntax {
    /// The candidate naming this very machine with `j = 1` — used by the
    /// benches to time one certification-sentence decision without
    /// dovetailing through the enumeration.
    pub fn default_candidate_for(machine: &Machine) -> Formula {
        let enc = encode_machine(machine);
        Formula::and([
            Formula::pred(
                "P",
                vec![Term::Str(enc.clone()), Term::named("c"), Term::var("x")],
            ),
            Formula::pred("E", vec![Term::Nat(1), Term::Str(enc), Term::named("c")]),
        ])
    }
}

impl CandidateSyntax for ExactRuntimeSyntax {
    fn name(&self) -> String {
        "Φ_{k,j}(x) = P(M_k, c, x) ∧ E_j(M_k, c)".to_string()
    }

    fn candidate(&self, r: usize) -> Option<Formula> {
        let (k, j) = cantor_unpair(r);
        let machine = MachineEnumerator::new().nth(k)?;
        let enc = encode_machine(&machine);
        Some(Formula::and([
            Formula::pred(
                "P",
                vec![Term::Str(enc.clone()), Term::named("c"), Term::var("x")],
            ),
            Formula::pred(
                "E",
                vec![Term::Nat(j as u64 + 1), Term::Str(enc), Term::named("c")],
            ),
        ]))
    }
}

/// A second, even more naive candidate: the *finite-list* syntax
/// `Ψ_S(x) := ⋁_{t ∈ S} x = t` over explicit finite sets of domain
/// strings. Every member is trivially finite (its answer is a subset of
/// `S` in every state), but it captures only queries whose answer is the
/// same finite set in **every** state — so it certifies *no* machine at
/// all: even the halter's totality query has state-dependent answers
/// (the traces embed the state's word). Contrast with
/// [`ExactRuntimeSyntax`], which certifies exactly the constant-runtime
/// machines: different candidate syntaxes fail in different ways, but by
/// Theorem 3.1 they all must fail.
#[derive(Clone, Copy, Debug, Default)]
pub struct FiniteListSyntax;

impl CandidateSyntax for FiniteListSyntax {
    fn name(&self) -> String {
        "Ψ_S(x) = ⋁_{t ∈ S} x = t (explicit finite sets)".to_string()
    }

    fn candidate(&self, r: usize) -> Option<Formula> {
        // The r-th finite set: the binary expansion of r + 1 selects
        // strings from the canonical enumeration.
        let selector = r + 1;
        let strings = fq_domains::traces::enumerate_strings(usize::BITS as usize);
        let disjuncts: Vec<Formula> = (0..usize::BITS as usize)
            .filter(|bit| selector & (1 << bit) != 0)
            .map(|bit| Formula::eq(Term::var("x"), Term::Str(strings[bit].clone())))
            .collect();
        Some(Formula::or(disjuncts))
    }
}

/// Inverse of the Cantor pairing: `r ↦ (k, j)`.
pub fn cantor_unpair(r: usize) -> (usize, usize) {
    let w = ((((8 * r + 1) as f64).sqrt() as usize).saturating_sub(1)) / 2;
    let w = if (w + 1) * (w + 2) / 2 <= r { w + 1 } else { w };
    let t = w * (w + 1) / 2;
    let j = r - t;
    let k = w - j;
    (k, j)
}

/// The Theorem 3.1 sentence for a machine and a candidate formula:
/// `∀z∀x (M(x)[z/c] ↔ φ(x)[z/c])`.
pub fn certification_sentence(machine: &Machine, candidate: &Formula) -> Formula {
    let m_open = totality_query_open(machine, "z");
    let phi_open = substitute_const(candidate, "c", &Term::var("z"));
    Formula::forall_many(["z", "x"], Formula::iff(m_open, phi_open))
}

/// Try to certify a machine total via the first `max_candidates` members
/// of a candidate syntax. Returns the index and formula of the first
/// matching candidate. Certification is *sound*: a match proves the
/// totality query finite in every state, hence the machine total.
pub fn certify_total<S: CandidateSyntax>(
    machine: &Machine,
    syntax: &S,
    max_candidates: usize,
) -> Result<Option<(usize, Formula)>, DomainError> {
    for r in 0..max_candidates {
        let Some(phi) = syntax.candidate(r) else {
            break;
        };
        if TraceDomain.decide(&certification_sentence(machine, &phi))? {
            return Ok(Some((r, phi)));
        }
    }
    Ok(None)
}

/// The enumeration of total machines induced by a candidate syntax:
/// dovetail over (machine k, candidate r) pairs and yield each machine
/// whose certification sentence is true.
pub struct TotalityEnumerator<S: CandidateSyntax> {
    syntax: S,
    pair: usize,
    max_pairs: usize,
}

impl<S: CandidateSyntax> TotalityEnumerator<S> {
    /// Enumerate certified machines among the first `max_pairs`
    /// (machine, candidate) pairs.
    pub fn new(syntax: S, max_pairs: usize) -> Self {
        TotalityEnumerator {
            syntax,
            pair: 0,
            max_pairs,
        }
    }
}

impl<S: CandidateSyntax> Iterator for TotalityEnumerator<S> {
    type Item = (Machine, usize);

    fn next(&mut self) -> Option<(Machine, usize)> {
        while self.pair < self.max_pairs {
            let r = self.pair;
            self.pair += 1;
            let (k, c) = cantor_unpair(r);
            let Some(machine) = MachineEnumerator::new().nth(k) else {
                continue;
            };
            let Some(phi) = self.syntax.candidate(c) else {
                continue;
            };
            let sentence = certification_sentence(&machine, &phi);
            if TraceDomain.decide(&sentence).unwrap_or(false) {
                return Some((machine, r));
            }
        }
        None
    }
}

/// A bounded refutation of a candidate syntax: a machine whose totality
/// query is finite (the machine is total by construction) but which no
/// candidate among the first `candidates_checked` matches.
#[derive(Clone, Debug)]
pub struct SyntaxRefutation {
    pub machine: Machine,
    pub machine_str: String,
    pub candidates_checked: usize,
}

/// Search the provided family of known-total machines for one the
/// candidate syntax fails to cover within the budget.
pub fn refute_candidate_syntax<S: CandidateSyntax>(
    syntax: &S,
    total_witnesses: &[Machine],
    max_candidates: usize,
) -> Result<Option<SyntaxRefutation>, DomainError> {
    for machine in total_witnesses {
        if certify_total(machine, syntax, max_candidates)?.is_none() {
            return Ok(Some(SyntaxRefutation {
                machine: machine.clone(),
                machine_str: encode_machine(machine),
                candidates_checked: max_candidates,
            }));
        }
    }
    Ok(None)
}

/// A family of machines total by construction, used as refutation
/// witnesses. The right-scanner and the eraser have input-dependent
/// running time; `run_exactly` machines do not.
pub fn total_witnesses() -> Vec<Machine> {
    vec![
        fq_turing::builders::halter(),
        fq_turing::builders::run_exactly(1),
        fq_turing::builders::run_exactly(2),
        fq_turing::builders::scan_right_halt_on_blank(),
        fq_turing::builders::erase_and_halt(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_turing::builders;

    #[test]
    fn cantor_unpair_is_a_bijection_prefix() {
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..100 {
            let pair = cantor_unpair(r);
            assert!(seen.insert(pair), "duplicate {pair:?} at r={r}");
        }
        // Hits the corners.
        assert!(seen.contains(&(0, 0)));
        assert!(seen.contains(&(0, 1)));
        assert!(seen.contains(&(1, 0)));
    }

    #[test]
    fn halter_is_certified_by_its_own_candidate() {
        // The halter halts after 0 steps on every input: E_1 everywhere.
        let m = builders::halter();
        let found = certify_total(&m, &ExactRuntimeSyntax, 40).unwrap();
        let (r, phi) = found.expect("halter must be certified");
        assert!(phi.to_string().contains("E(1"));
        // And the certificate is an early candidate.
        assert!(r < 40);
    }

    #[test]
    fn run_exactly_machines_are_certified() {
        // run_exactly(1) halts after exactly 1 step everywhere: E_2. Its
        // machine index in the enumeration is larger, so allow a bigger
        // candidate budget.
        let m = builders::run_exactly(1);
        // Build the certificate directly instead of dovetailing far: the
        // candidate with this very machine and j = 2 must verify.
        let enc = encode_machine(&m);
        let phi = Formula::and([
            Formula::pred(
                "P",
                vec![Term::Str(enc.clone()), Term::named("c"), Term::var("x")],
            ),
            Formula::pred("E", vec![Term::Nat(2), Term::Str(enc), Term::named("c")]),
        ]);
        let sentence = certification_sentence(&m, &phi);
        assert!(TraceDomain.decide(&sentence).unwrap());
    }

    #[test]
    fn looper_is_never_certified() {
        // The looper is not total; no candidate may match it (soundness).
        let m = builders::looper();
        let found = certify_total(&m, &ExactRuntimeSyntax, 60).unwrap();
        assert!(found.is_none());
    }

    #[test]
    fn scanner_refutes_the_exact_runtime_syntax() {
        // The right-scanner is total but has input-dependent runtime: no
        // E_j candidate can be equivalent to its totality query.
        let m = builders::scan_right_halt_on_blank();
        let found = certify_total(&m, &ExactRuntimeSyntax, 60).unwrap();
        assert!(found.is_none(), "scanner wrongly certified: {found:?}");
        let refutation =
            refute_candidate_syntax(&ExactRuntimeSyntax, &total_witnesses(), 60).unwrap();
        assert!(refutation.is_some());
    }

    #[test]
    fn certification_sentence_shape() {
        let m = builders::halter();
        let phi = ExactRuntimeSyntax.candidate(0).unwrap();
        let s = certification_sentence(&m, &phi);
        assert!(s.is_sentence());
        assert!(s.named_constants().is_empty(), "c must be replaced by z");
    }

    #[test]
    fn totality_enumerator_yields_only_total_machines() {
        // Every machine the oracle certifies must halt on sample inputs —
        // the soundness direction of the reduction, checked empirically.
        let mut count = 0;
        for (machine, _) in TotalityEnumerator::new(ExactRuntimeSyntax, 45) {
            count += 1;
            for w in ["", "1", "11", "1&1"] {
                assert!(
                    fq_turing::exec::halts_within(&machine, w, 10_000),
                    "certified machine fails to halt on {w:?}"
                );
            }
        }
        assert!(
            count >= 1,
            "the enumerator should certify at least the halter"
        );
    }

    #[test]
    fn finite_list_syntax_certifies_nothing() {
        // Even the halter has state-dependent answers, so no explicit
        // finite set is equivalent to its totality query.
        for machine in [builders::halter(), builders::looper()] {
            assert!(
                certify_total(&machine, &FiniteListSyntax, 30)
                    .unwrap()
                    .is_none(),
                "finite-list syntax must certify nothing"
            );
        }
        // And therefore every total witness refutes it immediately.
        let refutation =
            refute_candidate_syntax(&FiniteListSyntax, &total_witnesses(), 30).unwrap();
        assert!(refutation.is_some());
    }

    #[test]
    fn finite_list_candidates_are_finite_sets() {
        for r in 0..10 {
            let phi = FiniteListSyntax.candidate(r).unwrap();
            // Shape: a disjunction of equalities with string constants.
            phi.visit(&mut |f| match f {
                Formula::Or(_) | Formula::Eq(..) => {}
                Formula::Pred(..) | Formula::Not(_) | Formula::And(_) => {
                    panic!("unexpected connective in {phi}")
                }
                _ => {}
            });
        }
    }

    #[test]
    fn wrong_machine_candidate_rejected() {
        // Certifying the halter against a candidate naming the looper
        // must fail (their trace sets differ).
        let halter = builders::halter();
        let looper_enc = encode_machine(&builders::looper());
        let phi = Formula::and([
            Formula::pred(
                "P",
                vec![
                    Term::Str(looper_enc.clone()),
                    Term::named("c"),
                    Term::var("x"),
                ],
            ),
            Formula::pred(
                "E",
                vec![Term::Nat(1), Term::Str(looper_enc), Term::named("c")],
            ),
        ]);
        let sentence = certification_sentence(&halter, &phi);
        assert!(!TraceDomain.decide(&sentence).unwrap());
    }
}
