//! Seeded input generators: graphs, the points-to / CFG fact base, and the
//! optimizer corpus. Shapes whose cost the metrics depend on (closure
//! size, number of derived atoms, corpus composition) are fixed by the
//! sizes; the seed chooses labels, positions and draws, so that runs with
//! different seeds measure the same amount of work.

use crate::reference::{AnalysisFacts, Planted};
use crate::rng::{SplitMix, Zipf};
use datalog_bench::{guarded_tc, portable_source, wide_rule};
use datalog_generate::{bloated_tc, inject, random_program, RandomProgramSpec};
use std::collections::BTreeSet;
use std::fmt::Write as _;

pub type Edges = BTreeSet<(u32, u32)>;

/// A seeded permutation of `0..n`, used to relabel nodes so that generated
/// structure does not line up with constant order.
pub fn permutation(rng: &mut SplitMix, n: usize) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// Erdős–Rényi digraph `G(n, m)`: exactly `edges` distinct edges, no
/// self-loops. The count is fixed, not drawn, so that the evaluation cost
/// does not move with the seed.
pub fn erdos_renyi(rng: &mut SplitMix, n: usize, edges: usize) -> Edges {
    assert!(edges <= n * (n - 1), "more edges than ordered pairs");
    let mut set = Edges::new();
    while set.len() < edges {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        if u != v {
            set.insert((u, v));
        }
    }
    set
}

/// A sparse digraph whose closure is chain-like, over positions `0..n`:
/// the path `0 -> 1 -> ... -> n-1` and, from every fourth position, an edge
/// that jumps three places. The closure is `n(n-1)/2` pairs.
pub fn chain_shape(n: usize) -> Vec<(u32, u32)> {
    let n = n as u32;
    let path = (1..n).map(|i| (i - 1, i));
    let skips = (0..n).step_by(4).filter(|i| i + 3 < n).map(|i| (i, i + 3));
    path.chain(skips).collect()
}

/// One strongly connected lump over positions `0..n`: the ring and, from
/// every third position, a chord to the opposite side. The closure is all
/// `n * n` pairs.
pub fn ring_shape(n: usize) -> Vec<(u32, u32)> {
    let n = n as u32;
    let ring = (0..n).map(|i| (i, (i + 1) % n));
    let chords = (0..n).step_by(3).map(|i| (i, (i + n / 2) % n));
    ring.chain(chords).collect()
}

/// A shape under a relabelling of its positions.
pub fn relabel(shape: &[(u32, u32)], label: &[u32]) -> Edges {
    shape
        .iter()
        .map(|&(u, v)| (label[u as usize], label[v as usize]))
        .collect()
}

/// [`chain_shape`] under a seeded relabelling: the same graph whatever the
/// seed, with other constants.
pub fn chain_like(rng: &mut SplitMix, n: usize) -> Edges {
    relabel(&chain_shape(n), &permutation(rng, n))
}

/// `pred(u, v).` lines in sorted order.
pub fn edge_facts(pred: &str, edges: &Edges) -> String {
    let mut out = String::with_capacity(edges.len() * 16);
    for (u, v) in edges {
        let _ = writeln!(out, "{pred}({u}, {v}).");
    }
    out
}

/// The analysis program: Andersen points-to (`pts`/`heap`) with the two
/// artefacts of `examples/points_to.rs` (a guarded copy of the base rule
/// and the subsumed one-step copy rule), an alias report over candidate
/// pairs, CFG reachability, and two negated reports.
pub const ANALYSIS_RULES: &str = "\
pts(V, O) :- address_of(V, O).
pts(V, O) :- address_of(V, O), var(V).
pts(V, O) :- assign(V, W), pts(W, O).
pts(V, O) :- assign(V, W), address_of(W, O).
pts(V, O) :- load(V, P), pts(P, Q), heap(Q, O).
heap(Q, O) :- store(P, W), pts(P, Q), pts(W, O).
alias(V, W) :- cand(V, W), pts(V, O), pts(W, O).
reach(B) :- entry(B).
reach(B) :- reach(A), succ(A, B).
";

/// The two stratified reports; the daemon refuses negation, so the serve
/// phase installs [`ANALYSIS_RULES`] alone.
pub const ANALYSIS_REPORTS: &str = "\
dead(B) :- block(B), !reach(B).
noalias(V, W) :- cand(V, W), !alias(V, W).
";

/// What `datalog minimize` must leave of rules + reports: both artefacts
/// gone (9 rules, 19 body atoms).
pub const ANALYSIS_PLANTED: Planted = Planted {
    max_rules: Some(9),
    max_width: Some(19),
};

/// Shape of the synthetic program under analysis: `modules` functions,
/// each with its own variables and allocation sites and so many statements
/// of each kind.
#[derive(Clone, Copy, Debug)]
pub struct AnalysisSize {
    pub modules: usize,
    pub vars: usize,
    pub objects: usize,
    pub address_of: usize,
    pub assign: usize,
    pub load: usize,
    pub store: usize,
    pub cand: usize,
    pub blocks: usize,
    pub succ_extra: usize,
}

impl AnalysisSize {
    pub fn total_vars(&self) -> usize {
        self.modules * self.vars
    }

    pub fn total_objects(&self) -> usize {
        self.modules * self.objects
    }
}

/// A synthetic program. Within a module, left-hand sides are uniform and
/// right-hand sides Zipf-chosen, so a few variables are copied, loaded
/// through and stored through very often and the join fan-out is skewed.
/// Statements stay inside their module. Without that locality the copy,
/// load and store edges percolate into one component in which every
/// variable points to every object (30 000 x 3 000 atoms at the full size);
/// with even one copy per module crossing over, how many modules merge
/// varies with the seed and the derived atoms with it by a fifth. The CFG is a spanning tree over most blocks plus
/// extra edges, with the remaining blocks left unreachable.
pub fn analysis_facts(rng: &mut SplitMix, size: &AnalysisSize) -> AnalysisFacts {
    let total_vars = size.total_vars();
    let mut facts = AnalysisFacts {
        var: (0..total_vars as u32).collect(),
        block: (0..size.blocks as u32).collect(),
        ..AnalysisFacts::default()
    };
    let hot = Zipf::new(size.vars, 0.9);
    for module in 0..size.modules {
        let var0 = (module * size.vars) as u32;
        let obj0 = (module * size.objects) as u32;
        let rank_to_var = permutation(rng, size.vars);
        let uniform = |rng: &mut SplitMix| var0 + rng.below(size.vars) as u32;
        let skewed = |rng: &mut SplitMix| var0 + rank_to_var[hot.sample(rng)];
        let fill =
            |rng: &mut SplitMix, set: &mut BTreeSet<(u32, u32)>, count: usize, swap: bool| {
                let target = set.len() + count;
                while set.len() < target {
                    let (left, right) = (uniform(rng), skewed(rng));
                    if left != right {
                        set.insert(if swap { (right, left) } else { (left, right) });
                    }
                }
            };
        fill(rng, &mut facts.assign, size.assign, false);
        fill(rng, &mut facts.load, size.load, false);
        fill(rng, &mut facts.store, size.store, true);
        fill(rng, &mut facts.cand, size.cand, true);
        let target = facts.address_of.len() + size.address_of;
        while facts.address_of.len() < target {
            facts
                .address_of
                .insert((uniform(rng), obj0 + rng.below(size.objects) as u32));
        }
    }
    // Blocks 0..live form a tree rooted at the entry block 0; the rest
    // only have edges among themselves, so `dead` is not empty.
    let live = size.blocks - size.blocks / 8;
    facts.entry.insert(0);
    for b in 1..live {
        facts.succ.insert((rng.below(b) as u32, b as u32));
    }
    for _ in 0..size.succ_extra {
        let a = rng.below(size.blocks);
        let b = if a < live {
            rng.below(live)
        } else {
            live + rng.below(size.blocks - live)
        };
        facts.succ.insert((a as u32, b as u32));
    }
    facts
}

impl AnalysisFacts {
    /// The same program with other names for its variables and objects.
    pub fn relabel(&self, var: &[u32], object: &[u32]) -> AnalysisFacts {
        let vv = |set: &BTreeSet<(u32, u32)>| {
            set.iter()
                .map(|&(a, b)| (var[a as usize], var[b as usize]))
                .collect()
        };
        AnalysisFacts {
            var: self.var.iter().map(|&v| var[v as usize]).collect(),
            address_of: self
                .address_of
                .iter()
                .map(|&(v, o)| (var[v as usize], object[o as usize]))
                .collect(),
            assign: vv(&self.assign),
            load: vv(&self.load),
            store: vv(&self.store),
            cand: vv(&self.cand),
            block: self.block.clone(),
            entry: self.entry.clone(),
            succ: self.succ.clone(),
        }
    }

    /// The EDB as fact lines, one relation after another.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.for_each_fact(|line| {
            out.push_str(line);
            out.push_str(".\n");
        });
        out
    }

    /// Every EDB fact as `pred(args)`, without the closing period.
    pub fn for_each_fact(&self, mut f: impl FnMut(&str)) {
        let mut line = String::new();
        let mut emit = |args: std::fmt::Arguments<'_>| {
            line.clear();
            let _ = line.write_fmt(args);
            f(&line);
        };
        for v in &self.var {
            emit(format_args!("var(v{v})"));
        }
        for (v, o) in &self.address_of {
            emit(format_args!("address_of(v{v}, o{o})"));
        }
        for (v, w) in &self.assign {
            emit(format_args!("assign(v{v}, v{w})"));
        }
        for (v, p) in &self.load {
            emit(format_args!("load(v{v}, v{p})"));
        }
        for (p, w) in &self.store {
            emit(format_args!("store(v{p}, v{w})"));
        }
        for (v, w) in &self.cand {
            emit(format_args!("cand(v{v}, v{w})"));
        }
        for b in &self.block {
            emit(format_args!("block(b{b})"));
        }
        for b in &self.entry {
            emit(format_args!("entry(b{b})"));
        }
        for (a, b) in &self.succ {
            emit(format_args!("succ(b{a}, b{b})"));
        }
    }

    pub fn len(&self) -> usize {
        self.var.len()
            + self.address_of.len()
            + self.assign.len()
            + self.load.len()
            + self.store.len()
            + self.cand.len()
            + self.block.len()
            + self.entry.len()
            + self.succ.len()
    }
}

impl crate::reference::AnalysisResult {
    /// Every derived atom as `pred(args)`; `reports` adds the two negated
    /// relations.
    pub fn for_each_atom(&self, reports: bool, mut f: impl FnMut(&str)) {
        let mut line = String::new();
        let mut emit = |args: std::fmt::Arguments<'_>| {
            line.clear();
            let _ = line.write_fmt(args);
            f(&line);
        };
        for (v, o) in &self.pts {
            emit(format_args!("pts(v{v}, o{o})"));
        }
        for (q, o) in &self.heap {
            emit(format_args!("heap(o{q}, o{o})"));
        }
        for (v, w) in &self.alias {
            emit(format_args!("alias(v{v}, v{w})"));
        }
        for b in &self.reach {
            emit(format_args!("reach(b{b})"));
        }
        if reports {
            for b in &self.dead {
                emit(format_args!("dead(b{b})"));
            }
            for (v, w) in &self.noalias {
                emit(format_args!("noalias(v{v}, v{w})"));
            }
        }
    }
}

/// `bloated_tc(k, seed)` in parseable surface syntax.
pub fn bloated_tc_source(k: usize, seed: u64) -> String {
    portable_source(&bloated_tc(k, seed))
}

/// The transitive-closure program `eval-tc` evaluates and `serve-mixed`
/// serves: `bloated_tc(6, 1)`, three rules of four body atoms each.
///
/// The program does not vary with `--seed`, and neither do the corpus
/// programs below. What `bloated_tc` and `inject` plant decides the cost of
/// evaluating and of optimizing a program, and that cost is heavy-tailed in
/// their seed: of `bloated_tc(6, 0..12)` six evaluate a 200-node graph in
/// 0.6 to 2.9 s and six not within 20 s; `bloated_tc(20, s)` optimizes in
/// 2 ms to 6.7 s. A draw per run would compare different programs, not
/// different builds. The seed decides all data: graphs, fact bases, the
/// order of the corpus, and every request of the serve script.
pub fn tc_program() -> String {
    bloated_tc_source(6, 1)
}

/// One program of the optimizer corpus.
#[derive(Clone, Debug)]
pub struct CorpusProgram {
    pub name: String,
    pub source: String,
    pub planted: Planted,
    /// A small EDB over the program's extensional predicates, on which the
    /// raw and the optimized program must print the same fixpoint.
    pub edb: String,
    /// Edges of `a` when the program computes the closure of `a` into `g`,
    /// so the output also has a graph-search reference.
    pub closure_of: Option<Edges>,
}

/// Which programs a corpus holds.
#[derive(Clone, Copy, Debug)]
pub struct CorpusSize {
    /// `guarded_tc(k)` for every `k` of the range: the equivalence phase
    /// (tgd chase and Fig. 3), about twenty times dearer per step of `k`.
    pub guarded: (usize, usize),
    /// `wide_rule(w)` for each width: one rule, long Fig. 1 sweeps.
    pub wide: &'static [usize],
    /// `bloated_tc(k, i)` for `i` below the count.
    pub bloated: (usize, usize),
    /// `random_program` instances `i` below the count, of
    /// `rules.0 + i * rules.1` rules, each carrying as many injections as it
    /// has rules, which about doubles it.
    pub random_count: usize,
    pub random_rules: (usize, usize),
}

/// The corpus. The programs are fixed by the size (see [`tc_program`] for
/// why); the seed shuffles their order and draws the small fact bases on
/// which each optimized program must reproduce the original's fixpoint.
pub fn corpus(rng: &mut SplitMix, size: &CorpusSize) -> Vec<CorpusProgram> {
    let mut programs = Vec::new();
    // Two or three facts per relation: a rule that carries a dozen widened
    // copies of an atom joins that many copies of the relation.
    let small_graph = |rng: &mut SplitMix| chain_like(rng, 4);
    for k in size.guarded.0..=size.guarded.1 {
        let edges = small_graph(rng);
        programs.push(CorpusProgram {
            name: format!("guarded_tc-{k}"),
            source: guarded_tc(k).to_string(),
            planted: Planted::GUARDED_TC,
            edb: edge_facts("a", &edges),
            closure_of: Some(edges),
        });
    }
    for &w in size.wide {
        programs.push(CorpusProgram {
            name: format!("wide_rule-{w}"),
            source: wide_rule(w).to_string(),
            planted: Planted::WIDE_RULE,
            // `wide_rule` has no initialization rule: over `a` alone both
            // programs print the EDB back.
            edb: edge_facts("a", &small_graph(rng)),
            closure_of: None,
        });
    }
    for i in 0..size.bloated.1 {
        let edges = small_graph(rng);
        programs.push(CorpusProgram {
            name: format!("bloated_tc-{}-{i}", size.bloated.0),
            source: bloated_tc_source(size.bloated.0, i as u64),
            planted: Planted::BLOATED_TC,
            edb: edge_facts("a", &edges),
            closure_of: Some(edges),
        });
    }
    for i in 0..size.random_count {
        let spec = RandomProgramSpec {
            rules: size.random_rules.0 + i * size.random_rules.1,
            ..RandomProgramSpec::default()
        };
        let base = random_program(&spec, i as u64);
        let (bloated, _) = inject(&base, spec.rules, 300 + i as u64);
        let mut edb = String::new();
        for pred in ["a", "b"] {
            for _ in 0..3 {
                let _ = writeln!(edb, "{pred}({}, {}).", rng.below(3), rng.below(3));
            }
        }
        let _ = writeln!(edb, "c({}).", rng.below(3));
        programs.push(CorpusProgram {
            name: format!("random-{i}-{}", spec.rules),
            source: portable_source(&bloated),
            // The base program may hold redundancy of its own; what was
            // injected on top of it must all go.
            planted: Planted {
                max_rules: Some(base.len()),
                max_width: Some(base.total_width()),
            },
            edb,
            closure_of: None,
        });
    }
    for i in (1..programs.len()).rev() {
        programs.swap(i, rng.below(i + 1));
    }
    programs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::tc_closure;

    #[test]
    fn shapes_have_the_closures_they_promise() {
        for seed in 0..5 {
            let edges = chain_like(&mut SplitMix::new(seed), 30);
            assert_eq!(edges.len(), 29 + 7);
            assert_eq!(tc_closure(&edges).len(), 30 * 29 / 2, "seed {seed}");
        }
        let ring = relabel(&ring_shape(12), &permutation(&mut SplitMix::new(1), 12));
        assert_eq!(ring.len(), 12 + 4);
        assert_eq!(tc_closure(&ring).len(), 12 * 12);
    }

    #[test]
    fn erdos_renyi_has_exactly_the_asked_edges() {
        let edges = erdos_renyi(&mut SplitMix::new(1), 200, 1600);
        assert_eq!(edges.len(), 1600);
        assert!(edges.iter().all(|(u, v)| u != v && *u < 200 && *v < 200));
    }

    #[test]
    fn analysis_facts_have_the_asked_sizes_and_dead_blocks() {
        let size = AnalysisSize {
            modules: 5,
            vars: 60,
            objects: 8,
            address_of: 24,
            assign: 50,
            load: 12,
            store: 10,
            cand: 16,
            blocks: 64,
            succ_extra: 30,
        };
        let facts = analysis_facts(&mut SplitMix::new(5), &size);
        assert_eq!(facts.assign.len(), 250);
        assert_eq!(facts.render().lines().count(), facts.len());
        let result = crate::reference::andersen(&facts);
        assert!(!result.dead.is_empty() && !result.reach.is_empty());
        assert!(!result.pts.is_empty());
    }

    #[test]
    fn corpus_programs_parse() {
        let size = CorpusSize {
            guarded: (2, 3),
            wide: &[8],
            bloated: (6, 2),
            random_count: 2,
            random_rules: (4, 2),
        };
        for p in corpus(&mut SplitMix::new(9), &size) {
            datalog_ast::parse_program(&p.source)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", p.name, p.source));
            datalog_ast::parse_database(&p.edb).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }
}
