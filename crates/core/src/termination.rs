//! Chase-termination analysis — the paper's first open problem (§XII).
//!
//! > "First, it is important to characterize cases in which the procedures
//! > for testing (1) and (2) are guaranteed to terminate."
//!
//! Two sufficient conditions are implemented:
//!
//! * **Full tgds** (§VIII): no existential variables means no labelled
//!   nulls, so the chase stays inside the finite domain of the input
//!   database and must saturate.
//! * **Weak acyclicity** (Fagin, Kolaitis, Miller, Popa — *Data Exchange:
//!   Semantics and Query Answering*, ICDT 2003): build a graph over
//!   predicate *positions*; for each tgd and each universal variable `x`
//!   occurring in the rhs, every lhs position `p` of `x` gets a *regular*
//!   edge to each rhs position of `x`, and a *special* edge to each rhs
//!   position of each existential variable. If no cycle passes through a
//!   special edge, every chase sequence terminates (in polynomially many
//!   steps in the data).
//!
//! Weak acyclicity is a property of every rule set the chase runs, so a
//! program's rules enter the graph as full tgds (body → head): a tgd that
//! only feeds the rules, and the rules feed it back, can chase forever
//! although the tgd alone is weakly acyclic.
//!
//! The analysis is consulted by the §X–XI equivalence optimizer: when the
//! chase a condition runs is provably terminating, it runs without a fuel
//! cutoff, so no certifiable deletion is ever lost to `OutOfFuel`.

use datalog_ast::{Pred, Program, Tgd};
use std::collections::{BTreeMap, BTreeSet};

/// A predicate position `(predicate, argument index)`.
pub type Position = (Pred, usize);

/// Why chase termination is (or is not) guaranteed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaseTermination {
    /// Every tgd is full: no nulls are ever introduced.
    AllFull,
    /// The set is weakly acyclic; chase length is polynomial in the data.
    WeaklyAcyclic,
    /// No implemented criterion applies; the chase may diverge and a fuel
    /// bound is required.
    Unknown,
}

impl ChaseTermination {
    /// Is termination guaranteed?
    pub fn is_guaranteed(&self) -> bool {
        !matches!(self, ChaseTermination::Unknown)
    }
}

/// The position-dependency graph of a tgd set.
#[derive(Clone, Debug, Default)]
pub struct PositionGraph {
    /// Regular edges (value propagation).
    pub regular: BTreeSet<(Position, Position)>,
    /// Special edges (null creation).
    pub special: BTreeSet<(Position, Position)>,
}

impl PositionGraph {
    /// Build the dependency graph per Fagin et al.
    pub fn build(tgds: &[Tgd]) -> PositionGraph {
        let mut g = PositionGraph::default();
        for tgd in tgds {
            let existential = tgd.existential_vars();
            // Positions of each universal variable in the lhs.
            let mut lhs_positions: BTreeMap<datalog_ast::Var, Vec<Position>> = BTreeMap::new();
            for atom in &tgd.lhs {
                for (i, t) in atom.terms.iter().enumerate() {
                    if let Some(v) = t.as_var() {
                        lhs_positions.entry(v).or_default().push((atom.pred, i));
                    }
                }
            }
            // Positions of variables in the rhs.
            let mut rhs_positions: BTreeMap<datalog_ast::Var, Vec<Position>> = BTreeMap::new();
            for atom in &tgd.rhs {
                for (i, t) in atom.terms.iter().enumerate() {
                    if let Some(v) = t.as_var() {
                        rhs_positions.entry(v).or_default().push((atom.pred, i));
                    }
                }
            }
            let existential_rhs: Vec<Position> = existential
                .iter()
                .flat_map(|y| rhs_positions.get(y).into_iter().flatten().copied())
                .collect();
            for (x, lps) in &lhs_positions {
                let Some(rps) = rhs_positions.get(x) else {
                    continue; // x does not occur in the rhs
                };
                for &p in lps {
                    for &q in rps {
                        g.regular.insert((p, q));
                    }
                    for &q in &existential_rhs {
                        g.special.insert((p, q));
                    }
                }
            }
        }
        g
    }

    /// All positions mentioned by the graph.
    fn positions(&self) -> BTreeSet<Position> {
        self.regular
            .iter()
            .chain(self.special.iter())
            .flat_map(|&(p, q)| [p, q])
            .collect()
    }

    /// Is there a cycle through at least one special edge?
    ///
    /// Method: compute strongly connected components of the combined graph;
    /// a special edge inside one SCC closes a cycle through it.
    pub fn has_special_cycle(&self) -> bool {
        let nodes: Vec<Position> = self.positions().into_iter().collect();
        let index: BTreeMap<Position, usize> =
            nodes.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for &(p, q) in self.regular.iter().chain(self.special.iter()) {
            succ[index[&p]].push(index[&q]);
        }
        let scc_of = sccs(&succ);
        self.special
            .iter()
            .any(|&(p, q)| scc_of[index[&p]] == scc_of[index[&q]])
    }
}

/// Iterative Tarjan over an adjacency list; returns each node's component
/// id. Components are not ordered (only identity matters here).
fn sccs(succ: &[Vec<usize>]) -> Vec<usize> {
    let n = succ.len();
    let mut index_of = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![usize::MAX; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut next_comp = 0usize;

    for root in 0..n {
        if index_of[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            if *pos == 0 {
                index_of[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succ[v].get(*pos) {
                *pos += 1;
                if index_of[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index_of[w]);
                }
            } else {
                if lowlink[v] == index_of[v] {
                    loop {
                        let w = stack.pop().expect("scc stack");
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
            }
        }
    }
    comp
}

/// Is the tgd set weakly acyclic?
pub fn is_weakly_acyclic(tgds: &[Tgd]) -> bool {
    !PositionGraph::build(tgds).has_special_cycle()
}

/// Classify the chase-termination guarantee of `[program, tgds]`.
pub fn analyze(program: &Program, tgds: &[Tgd]) -> ChaseTermination {
    let rules = (program.rules.iter())
        .map(|r| Tgd::new(r.positive_body().cloned().collect(), vec![r.head.clone()]));
    if tgds.iter().all(Tgd::is_full) {
        ChaseTermination::AllFull
    } else if is_weakly_acyclic(&rules.chain(tgds.iter().cloned()).collect::<Vec<_>>()) {
        ChaseTermination::WeaklyAcyclic
    } else {
        ChaseTermination::Unknown
    }
}

/// The fuel budget to use for a chase of `[program, tgds]`: effectively
/// unlimited when termination is guaranteed, the caller's `default`
/// otherwise.
pub fn fuel_for(program: &Program, tgds: &[Tgd], default: u64) -> u64 {
    if analyze(program, tgds).is_guaranteed() {
        u64::MAX
    } else {
        default
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_program, parse_tgd, parse_tgds};

    #[test]
    fn full_tgds_always_terminate() {
        let t = parse_tgds("a(X, Y) -> b(Y, X). a(X, Y) & b(Y, Z) -> a(X, Z).").unwrap();
        assert_eq!(analyze(&Program::empty(), &t), ChaseTermination::AllFull);
        assert!(
            is_weakly_acyclic(&t),
            "full sets are trivially weakly acyclic"
        );
    }

    #[test]
    fn example11_tgd_is_weakly_acyclic() {
        // g(X,Z) → a(X,W): the special edge g.0 → a.1 enters a.1, and P1's
        // rules carry a.1 only to g.1 (g(X, Z) :- a(X, Z), and the doubling
        // rule keeps Z in g.1), which has no edge to g.0: no special cycle,
        // with or without P1. This is why every chase in Examples 11/14/18
        // terminated.
        let t = parse_tgds("g(X, Z) -> a(X, W).").unwrap();
        let p1 =
            parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).").unwrap();
        assert_eq!(
            analyze(&Program::empty(), &t),
            ChaseTermination::WeaklyAcyclic
        );
        assert_eq!(analyze(&p1, &t), ChaseTermination::WeaklyAcyclic);
    }

    #[test]
    fn rules_close_a_special_cycle() {
        // g(X, Y) → a(Y, W) alone is weakly acyclic, but the rule
        // g(X, Z) :- a(X, Z) carries the null in a.1 back to g.1, the
        // position the special edge leaves: [P, T] chases forever.
        let t = parse_tgds("g(X, Y) -> a(Y, W).").unwrap();
        let p = parse_program("g(X, Z) :- a(X, Z).").unwrap();
        assert_eq!(
            analyze(&Program::empty(), &t),
            ChaseTermination::WeaklyAcyclic
        );
        assert_eq!(analyze(&p, &t), ChaseTermination::Unknown);
        assert_eq!(fuel_for(&p, &t, 50), 50);
    }

    #[test]
    fn diverging_tgd_is_not_weakly_acyclic() {
        // g(X,Y) → a(X,W) ∧ g(W,Y): W lands back in g.0, giving a special
        // self-loop on g.0 — exactly the tgd whose chase ran out of fuel in
        // the chase tests.
        let t = parse_tgds("g(X, Y) -> a(X, W) & g(W, Y).").unwrap();
        assert_eq!(analyze(&Program::empty(), &t), ChaseTermination::Unknown);
        assert!(!is_weakly_acyclic(&t));
    }

    #[test]
    fn two_tgd_cycle_detected() {
        // Individually acyclic, jointly cyclic: nulls flow a → b → a.
        let t = parse_tgds(
            "a(X) -> b(X, W).
             b(X, Y) -> a(Y).",
        )
        .unwrap();
        assert!(!is_weakly_acyclic(&t));
        // Each alone is fine.
        assert!(is_weakly_acyclic(&t[..1]));
        assert!(is_weakly_acyclic(&t[1..]));
    }

    #[test]
    fn regular_only_cycle_is_fine() {
        // Symmetry: b(X,Y) → b(Y,X) cycles through regular edges only.
        let t = parse_tgds("b(X, Y) -> b(Y, X).").unwrap();
        assert_eq!(analyze(&Program::empty(), &t), ChaseTermination::AllFull);
        let g = PositionGraph::build(&t);
        assert!(!g.has_special_cycle());
        assert!(!g.regular.is_empty());
    }

    #[test]
    fn example16_tgd_weakly_acyclic() {
        let t = vec![parse_tgd("g(Y, Z) -> g(Y, W) & c(W).").unwrap()];
        // W lands in g.1 and c.0; the universal Y occupies g.0 on both
        // sides → regular self-edge on g.0, special edges g.0→g.1, g.0→c.0.
        // Is there a special cycle? g.1 has no outgoing edges (Z does not
        // occur in the rhs), so no.
        assert!(is_weakly_acyclic(&t));
    }

    #[test]
    fn fuel_selection() {
        let acyclic = parse_tgds("g(X, Z) -> a(X, W).").unwrap();
        assert_eq!(fuel_for(&Program::empty(), &acyclic, 100), u64::MAX);
        let cyclic = parse_tgds("g(X, Y) -> a(X, W) & g(W, Y).").unwrap();
        assert_eq!(fuel_for(&Program::empty(), &cyclic, 100), 100);
    }

    #[test]
    fn position_graph_shape_example11() {
        let t = parse_tgds("g(X, Z) -> a(X, W).").unwrap();
        let g = PositionGraph::build(&t);
        let gp = |i| (Pred::new("g"), i);
        let ap = |i| (Pred::new("a"), i);
        assert!(g.regular.contains(&(gp(0), ap(0))));
        assert!(g.special.contains(&(gp(0), ap(1))));
        // Z does not occur in the rhs: no edges from g.1.
        assert!(!g.regular.iter().any(|&(p, _)| p == gp(1)));
        assert!(!g.special.iter().any(|&(p, _)| p == gp(1)));
    }
}
