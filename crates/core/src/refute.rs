//! Refuting plain equivalence by finding a separating EDB.
//!
//! Plain equivalence is undecidable (§V), so no procedure can be complete
//! in both directions. The paper's §X–§XI machinery is a *sound prover* of
//! equivalence; this module is its complement — a *sound refuter*: search
//! small extensional databases for one on which the two programs disagree.
//! A hit is a definite counterexample (with the offending EDB returned as a
//! witness); exhausting the budget proves nothing.
//!
//! The search runs exhaustively over tiny universes (domain size 1 and 2,
//! when the vocabulary is small enough to enumerate), then samples random
//! EDBs of growing size. Many inequivalent program pairs differ already on
//! one or two atoms, so the exhaustive prefix does most of the work in
//! practice.

use datalog_ast::{Const, Database, GroundAtom, Pred, Program};
use datalog_engine::evaluate;
use std::collections::BTreeSet;

/// A counterexample to `P1 ≡ P2`.
#[derive(Clone, Debug)]
pub struct SeparatingEdb {
    /// The extensional database on which the outputs differ.
    pub edb: Database,
    /// An atom in one output and not the other.
    pub witness: GroundAtom,
    /// `true` if the witness is produced by `p1` only, `false` if by `p2`
    /// only.
    pub in_first: bool,
}

/// The extensional vocabulary of a pair of programs: predicates extensional
/// in *both* (a predicate intentional in either program is not free input).
fn shared_edb_vocabulary(p1: &Program, p2: &Program) -> Vec<(Pred, usize)> {
    let idb: BTreeSet<Pred> = p1.intentional().union(&p2.intentional()).copied().collect();
    let mut arities = p1.arities();
    arities.extend(p2.arities());
    arities
        .into_iter()
        .filter(|(p, _)| !idb.contains(p))
        .collect()
}

/// Compare outputs on one EDB; returns a witness if they differ.
fn compare(p1: &Program, p2: &Program, edb: &Database) -> Option<(GroundAtom, bool)> {
    let run = |p| {
        evaluate(p, edb)
            .expect("the programs compared are positive")
            .0
    };
    let (o1, o2) = (run(p1), run(p2));
    if let Some(w) = o1.iter().find(|a| !o2.contains(a)) {
        return Some((w, true));
    }
    if let Some(w) = o2.iter().find(|a| !o1.contains(a)) {
        return Some((w, false));
    }
    None
}

/// All ground atoms over `vocab` with constants `0..domain`.
fn universe(vocab: &[(Pred, usize)], domain: i64) -> Vec<GroundAtom> {
    let mut out = Vec::new();
    for &(p, arity) in vocab {
        let mut tuple = vec![0i64; arity];
        loop {
            out.push(GroundAtom {
                pred: p,
                tuple: tuple.iter().map(|&i| Const::Int(i)).collect(),
            });
            if arity == 0 {
                break;
            }
            let mut k = 0;
            loop {
                if k == arity {
                    break;
                }
                tuple[k] += 1;
                if tuple[k] < domain {
                    break;
                }
                tuple[k] = 0;
                k += 1;
            }
            if k == arity {
                break;
            }
        }
    }
    out
}

/// Search for an EDB separating `p1` and `p2`.
///
/// * Exhaustive over domain sizes 1 and 2 while the universe has ≤ 12
///   atoms (≤ 4096 candidate EDBs; subsets are enumerated smallest-first so
///   minimal counterexamples are found early).
/// * Then `samples` random EDBs over growing domains.
///
/// `None` means no counterexample found within the budget — NOT a proof of
/// equivalence.
pub fn find_separating_edb(p1: &Program, p2: &Program, samples: u64) -> Option<SeparatingEdb> {
    let vocab = shared_edb_vocabulary(p1, p2);
    if vocab.is_empty() {
        // No extensional input: the only EDB is the empty one.
        return compare(p1, p2, &Database::new()).map(|(witness, in_first)| SeparatingEdb {
            edb: Database::new(),
            witness,
            in_first,
        });
    }

    // Exhaustive phase.
    for domain in [1i64, 2] {
        let uni = universe(&vocab, domain);
        if uni.len() > 12 {
            break;
        }
        let n = uni.len();
        // Enumerate subsets ordered by popcount (smallest EDBs first).
        let mut masks: Vec<u32> = (0..(1u32 << n)).collect();
        masks.sort_by_key(|m| m.count_ones());
        for mask in masks {
            let edb = Database::from_atoms(
                uni.iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, a)| a.clone()),
            );
            if let Some((witness, in_first)) = compare(p1, p2, &edb) {
                return Some(SeparatingEdb {
                    edb,
                    witness,
                    in_first,
                });
            }
        }
    }

    // Random phase. A local xorshift keeps `datalog-optimizer` free of
    // runtime dependencies; determinism matters more than distribution
    // quality here.
    let mut state = 0x5a61_7669_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..samples {
        let domain = 2 + (round % 4) as i64; // domains 2..5
        let atoms = 2 + (round % 7) as usize * 2;
        let mut edb = Database::new();
        for _ in 0..atoms {
            let (p, arity) = vocab[(next() % vocab.len() as u64) as usize];
            let tuple: Vec<Const> = (0..arity)
                .map(|_| Const::Int((next() % domain as u64) as i64))
                .collect();
            edb.insert(GroundAtom {
                pred: p,
                tuple: tuple.into(),
            });
        }
        if let Some((witness, in_first)) = compare(p1, p2, &edb) {
            return Some(SeparatingEdb {
                edb,
                witness,
                in_first,
            });
        }
    }
    None
}

/// The combined equivalence analyzer: prove or refute `P1 ≡ P2` with the
/// tools this crate has, reporting how the verdict was reached.
#[derive(Clone, Debug, PartialEq)]
pub enum EquivVerdict {
    /// Uniformly equivalent (hence equivalent) — decided, §VI.
    UniformlyEquivalent,
    /// Equivalent, certified through the §X–§XI tgd pipeline: the two
    /// programs optimize to a common uniform-equivalence class.
    CertifiedEquivalent,
    /// Definitely not equivalent; carries the separating EDB.
    NotEquivalent(Box<SeparatingEdb>),
    /// Neither proved nor refuted within the budget (the undecidability
    /// gap, §V).
    Unknown,
}

impl PartialEq for SeparatingEdb {
    fn eq(&self, other: &Self) -> bool {
        self.edb == other.edb && self.witness == other.witness && self.in_first == other.in_first
    }
}

/// Analyze `P1 ≡ P2`:
///
/// 1. decide uniform equivalence (§VI) — if yes, done;
/// 2. search for a separating EDB (sound refutation);
/// 3. try to *prove* equivalence by optimizing both programs with the
///    §X–§XI pipeline and testing the results for uniform equivalence —
///    sound because each optimization step preserves plain equivalence.
/// ```
/// use datalog_ast::parse_program;
/// use datalog_optimizer::{analyze_equivalence, EquivVerdict};
///
/// let p1 = parse_program("g(X) :- a(X, Y).").unwrap();
/// let p2 = parse_program("g(Y) :- a(X, Y).").unwrap();
/// match analyze_equivalence(&p1, &p2, 1_000, 50).unwrap() {
///     EquivVerdict::NotEquivalent(sep) => assert!(!sep.edb.is_empty()),
///     other => panic!("expected a refutation, got {other:?}"),
/// }
/// ```
pub fn analyze_equivalence(
    p1: &Program,
    p2: &Program,
    fuel: u64,
    refute_samples: u64,
) -> Result<EquivVerdict, crate::containment::ContainmentError> {
    if crate::containment::uniformly_equivalent(p1, p2)? {
        return Ok(EquivVerdict::UniformlyEquivalent);
    }
    if let Some(sep) = find_separating_edb(p1, p2, refute_samples) {
        return Ok(EquivVerdict::NotEquivalent(Box::new(sep)));
    }
    let (o1, _, _) = crate::equivalence::optimize(p1, fuel)?;
    let (o2, _, _) = crate::equivalence::optimize(p2, fuel)?;
    if crate::containment::uniformly_equivalent(&o1, &o2)? {
        return Ok(EquivVerdict::CertifiedEquivalent);
    }
    Ok(EquivVerdict::Unknown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::parse_program;

    #[test]
    fn refutes_genuinely_different_programs() {
        let p1 = parse_program("g(X, Z) :- a(X, Z).").unwrap();
        let p2 = parse_program("g(X, Z) :- a(Z, X).").unwrap();
        let sep = find_separating_edb(&p1, &p2, 100).expect("separable");
        // Minimal counterexample: a single non-symmetric atom.
        assert!(sep.edb.len() <= 2, "minimal-ish witness: {}", sep.edb);
        let o1 = evaluate(&p1, &sep.edb).unwrap().0;
        let o2 = evaluate(&p2, &sep.edb).unwrap().0;
        assert_ne!(o1, o2);
        if sep.in_first {
            assert!(o1.contains(&sep.witness) && !o2.contains(&sep.witness));
        } else {
            assert!(o2.contains(&sep.witness) && !o1.contains(&sep.witness));
        }
    }

    #[test]
    fn does_not_refute_equivalent_programs() {
        // Example 4: doubling vs left-linear — equivalent, so no EDB
        // separates them (the search must come up empty).
        let p1 = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let p2 = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
        assert!(find_separating_edb(&p1, &p2, 200).is_none());
    }

    #[test]
    fn verdict_uniform() {
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let q = parse_program("g(U, W) :- a(U, W). g(U, W) :- g(U, V), g(V, W).").unwrap();
        assert_eq!(
            analyze_equivalence(&p, &q, 1000, 50).unwrap(),
            EquivVerdict::UniformlyEquivalent
        );
    }

    #[test]
    fn verdict_certified_for_example18() {
        // Guarded vs clean doubling TC: not uniformly equivalent, no
        // separating EDB exists, but the §X–§XI pipeline certifies it.
        let p1 =
            parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
        let p2 = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        assert_eq!(
            analyze_equivalence(&p1, &p2, 10_000, 60).unwrap(),
            EquivVerdict::CertifiedEquivalent
        );
    }

    #[test]
    fn verdict_not_equivalent() {
        let p1 = parse_program("g(X) :- a(X, Y).").unwrap();
        let p2 = parse_program("g(Y) :- a(X, Y).").unwrap();
        match analyze_equivalence(&p1, &p2, 1000, 100).unwrap() {
            EquivVerdict::NotEquivalent(sep) => {
                assert!(!sep.edb.is_empty());
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn verdict_example4_pair_is_certified_or_unknown() {
        // Doubling vs left-linear: equivalent but NOT uniformly; the
        // optimizer cannot rewrite one into the other (no redundant atoms),
        // so the honest verdict is Unknown.
        let p1 = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap();
        let p2 = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
        let verdict = analyze_equivalence(&p1, &p2, 5_000, 60).unwrap();
        assert_eq!(verdict, EquivVerdict::Unknown);
    }

    #[test]
    fn zero_arity_predicates_are_handled() {
        let p1 = parse_program("win :- move(X).").unwrap();
        let p2 = parse_program("win :- move(X), move(Y).").unwrap();
        // Equivalent (Y can reuse X's value): must not be refuted.
        assert!(find_separating_edb(&p1, &p2, 60).is_none());
    }
}
