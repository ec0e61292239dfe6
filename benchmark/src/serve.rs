//! The serve phase: what is installed, preloaded, asked and changed, and a
//! model of the view's base facts that gives every reply its reference.
//!
//! A script is an endless seeded sequence of rounds, consumed until the
//! phase's time is up. One round is
//!
//! 1. one `insert` of [`INSERT_BATCH`] fresh transient facts (after a round
//!    with a `remove`, the long-lived fact it took out goes back first, in a
//!    request of its own that is timed apart: half the inserts would
//!    otherwise carry a fact with many consequences and half not, and the
//!    median of such a mix falls between its two halves);
//! 2. [`FIRST_QUERIES`] distinct adorned queries — each is the first ask of
//!    its atom after the write in step 1, which invalidated whatever was
//!    cached for it;
//! 3. [`REPEAT_QUERIES`] repeats: an atom of step 2 again, or a bound-bound
//!    instance of one;
//! 4. every second round, one `remove`: a long-lived fact (alternately a
//!    tail and an interior one) together with the transient facts of all but
//!    the last two inserts. The transient facts go out in the same request
//!    so that the view stays the same size however long the script runs
//!    while the number of delete-and-rederive passes, which is what a
//!    `remove` costs, stays at one per two rounds.
//!
//! Query classes are positions in this script, never the server's `cache`
//! field.

use crate::gen::{permutation, relabel, Edges, ANALYSIS_RULES};
use crate::reference::{andersen, tc_closure, AnalysisFacts};
use crate::rng::{SplitMix, Zipf};
use std::collections::{BTreeSet, VecDeque};

pub const INSERT_BATCH: usize = 8;
pub const FIRST_QUERIES: usize = 4;
pub const REPEAT_QUERIES: usize = 32;
/// Name the view is installed under.
pub const VIEW: &str = "view";

/// One base fact: a relation of the domain and up to two ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fact {
    pub rel: usize,
    pub args: (u32, u32),
}

/// A query atom over a binary predicate; `None` is the free position,
/// printed as the variable `X`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Query {
    pub pred: &'static str,
    pub args: [Option<String>; 2],
}

impl Query {
    pub fn render(&self) -> String {
        let arg = |a: &Option<String>| a.clone().unwrap_or_else(|| "X".into());
        format!(
            "{}({}, {})",
            self.pred,
            arg(&self.args[0]),
            arg(&self.args[1])
        )
    }

    /// Does the rendered ground atom `pred(a, b)` answer this query?
    pub fn matches(&self, atom: &str) -> bool {
        let Some((pred, rest)) = atom.split_once('(') else {
            return false;
        };
        let Some((a, b)) = rest.trim_end_matches(')').split_once(", ") else {
            return false;
        };
        pred == self.pred
            && self.args[0].as_deref().is_none_or(|c| c == a)
            && self.args[1].as_deref().is_none_or(|c| c == b)
    }

    /// The reference answer: the matching atoms of a fixpoint.
    pub fn answers(&self, derived: &BTreeSet<String>) -> BTreeSet<String> {
        derived
            .iter()
            .filter(|a| self.matches(a))
            .cloned()
            .collect()
    }
}

/// A served program with a model of its base facts.
pub trait Domain {
    /// Source of the program to install, as written (not minimized).
    fn rules(&self) -> &str;
    fn render(&self, fact: Fact) -> String;
    /// The facts loaded before the script starts.
    fn preload(&self) -> Vec<Fact>;
    fn contains(&self, fact: Fact) -> bool;
    fn base_len(&self) -> usize;
    fn apply(&mut self, insert: bool, facts: &[Fact]);
    /// Every derived atom of the current base, rendered, computed by the
    /// reference solver.
    fn derived(&self) -> BTreeSet<String>;
    /// A transient fact that is not in the base.
    fn fresh(&self, rng: &mut SplitMix) -> Fact;
    /// A preloaded fact still in the base: an interior one, whose removal
    /// cuts derivations through the middle, or a tail one.
    fn long_lived(&self, rng: &mut SplitMix, interior: bool) -> Fact;
    /// An adorned query, its constant drawn from a Zipf pool.
    fn query(&self, rng: &mut SplitMix) -> Query;
    /// A constant for the free position of `query`.
    fn binding(&self, rng: &mut SplitMix, query: &Query) -> String;
    /// The predicate whose whole relation the final scan reads back.
    fn scan_pred(&self) -> &'static str;
}

/// The planner of rounds. The caller sends each step and applies it to the
/// domain before asking for the next, so picks see the state they act on.
pub struct Script {
    rng: SplitMix,
    round: u64,
    removals: u64,
    reinsert: Option<Fact>,
    transient: VecDeque<Vec<Fact>>,
}

impl Script {
    /// The script of one segment of a run.
    pub fn new(seed: u64, segment: u64) -> Script {
        Script {
            rng: SplitMix::fork(seed.wrapping_add(segment << 32), "script"),
            round: 0,
            removals: 0,
            reinsert: None,
            transient: VecDeque::new(),
        }
    }

    /// The long-lived fact the last `remove` took out, to be put back
    /// before this round's insert.
    pub fn reinsert(&mut self) -> Option<Fact> {
        self.reinsert.take()
    }

    pub fn insert_batch(&mut self, domain: &dyn Domain) -> Vec<Fact> {
        self.round += 1;
        let mut fresh: Vec<Fact> = Vec::new();
        while fresh.len() < INSERT_BATCH {
            let fact = domain.fresh(&mut self.rng);
            if !fresh.contains(&fact) {
                fresh.push(fact);
            }
        }
        self.transient.push_back(fresh.clone());
        fresh
    }

    /// The round's first-time queries and its repeats.
    pub fn queries(&mut self, domain: &dyn Domain) -> (Vec<Query>, Vec<Query>) {
        let mut first: Vec<Query> = Vec::new();
        while first.len() < FIRST_QUERIES {
            let q = domain.query(&mut self.rng);
            if !first.contains(&q) {
                first.push(q);
            }
        }
        let repeats = (0..REPEAT_QUERIES)
            .map(|_| {
                let mut q = first[self.rng.below(first.len())].clone();
                if self.rng.chance(0.25) {
                    let binding = domain.binding(&mut self.rng, &q);
                    let free = q
                        .args
                        .iter()
                        .position(Option::is_none)
                        .expect("adorned query");
                    q.args[free] = Some(binding);
                }
                q
            })
            .collect();
        (first, repeats)
    }

    /// The facts this round's `remove` takes out, on every second round.
    pub fn remove_batch(&mut self, domain: &dyn Domain) -> Option<Vec<Fact>> {
        if !self.round.is_multiple_of(2) {
            return None;
        }
        let victim = domain.long_lived(&mut self.rng, self.removals % 2 == 1);
        self.removals += 1;
        self.reinsert = Some(victim);
        let mut batch = vec![victim];
        while self.transient.len() > 2 {
            batch.extend(self.transient.pop_front().expect("non-empty"));
        }
        Some(batch)
    }
}

/// Transitive closure of `a` into `g`, whatever the rules that compute it.
pub struct TcDomain {
    rules: String,
    core: usize,
    leaves: usize,
    preload: Edges,
    base: Edges,
    popular: Zipf,
    rank_to_node: Vec<u32>,
}

impl TcDomain {
    /// `shape` is a graph over positions `0..core`. Its structure, and which
    /// positions are asked about most, are the same for every seed; the seed
    /// only decides which constant names which position. The view is small,
    /// so a graph drawn per seed would be a different workload per seed.
    /// Transient edges also use `leaves` further node ids.
    pub fn new(rules: String, core: usize, shape: &[(u32, u32)], seed: u64) -> TcDomain {
        let label = permutation(&mut SplitMix::fork(seed, "tc-labels"), core);
        let edges = relabel(shape, &label);
        // Popularity rank r sits at position r * stride: spread along the
        // shape, not bunched at its start.
        let gcd = |mut a: usize, mut b: usize| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let stride = (core / 3 + 1..)
            .find(|&k| gcd(k, core) == 1)
            .expect("a coprime exists");
        TcDomain {
            rules,
            core,
            leaves: 8 * INSERT_BATCH,
            base: edges.clone(),
            preload: edges,
            popular: Zipf::new(core, 1.0),
            rank_to_node: (0..core).map(|r| label[r * stride % core]).collect(),
        }
    }

    pub fn base(&self) -> &Edges {
        &self.base
    }
}

impl Domain for TcDomain {
    fn rules(&self) -> &str {
        &self.rules
    }

    fn render(&self, fact: Fact) -> String {
        format!("a({}, {})", fact.args.0, fact.args.1)
    }

    fn preload(&self) -> Vec<Fact> {
        self.preload
            .iter()
            .map(|&args| Fact { rel: 0, args })
            .collect()
    }

    fn contains(&self, fact: Fact) -> bool {
        self.base.contains(&fact.args)
    }

    fn base_len(&self) -> usize {
        self.base.len()
    }

    fn apply(&mut self, insert: bool, facts: &[Fact]) {
        for fact in facts {
            if insert {
                self.base.insert(fact.args);
            } else {
                self.base.remove(&fact.args);
            }
        }
    }

    fn derived(&self) -> BTreeSet<String> {
        tc_closure(&self.base)
            .into_iter()
            .map(|(u, v)| format!("g({u}, {v})"))
            .collect()
    }

    /// Three in four transient edges hang a leaf off a popular node; the
    /// fourth joins two core nodes in either direction, so now and then a
    /// cycle appears and goes again.
    fn fresh(&self, rng: &mut SplitMix) -> Fact {
        loop {
            let from = self.rank_to_node[self.popular.sample(rng)];
            let to = if rng.chance(0.75) {
                let leaf = (self.core + rng.below(self.leaves)) as u32;
                if self.base.iter().any(|&(_, v)| v == leaf) {
                    continue;
                }
                leaf
            } else {
                rng.below(self.core) as u32
            };
            if from != to && !self.base.contains(&(from, to)) {
                return Fact {
                    rel: 0,
                    args: (from, to),
                };
            }
        }
    }

    fn long_lived(&self, rng: &mut SplitMix, interior: bool) -> Fact {
        let present: Vec<(u32, u32)> = self.preload.intersection(&self.base).copied().collect();
        let has_successor = |node: u32| {
            self.base
                .range((node, 0)..=(node, u32::MAX))
                .next()
                .is_some()
        };
        let of_kind: Vec<(u32, u32)> = present
            .iter()
            .copied()
            .filter(|&(_, v)| has_successor(v) == interior)
            .collect();
        let pool = if of_kind.is_empty() {
            &present
        } else {
            &of_kind
        };
        Fact {
            rel: 0,
            args: pool[rng.below(pool.len())],
        }
    }

    fn query(&self, rng: &mut SplitMix) -> Query {
        let c = Some(self.rank_to_node[self.popular.sample(rng)].to_string());
        Query {
            pred: "g",
            // Seven in ten ask forwards. The two directions cost differently,
            // and the median of an even mix would fall between them.
            args: if rng.chance(0.7) {
                [c, None]
            } else {
                [None, c]
            },
        }
    }

    fn binding(&self, rng: &mut SplitMix, _query: &Query) -> String {
        rng.below(self.core + self.leaves).to_string()
    }

    fn scan_pred(&self) -> &'static str {
        "g"
    }
}

/// The positive rules of the analysis over a small synthetic program.
pub struct AnalysisDomain {
    preload: AnalysisFacts,
    base: AnalysisFacts,
    popular: Zipf,
    /// Popularity rank to variable.
    rank_to_var: Vec<u32>,
    objects: usize,
}

const ADDRESS_OF: usize = 0;
const ASSIGN: usize = 1;
const LOAD: usize = 2;
const STORE: usize = 3;
const CAND: usize = 4;
const VAR: usize = 5;
const BLOCK: usize = 6;
const ENTRY: usize = 7;
const SUCC: usize = 8;

impl AnalysisDomain {
    /// `shape` is a small program whose structure is the same for every
    /// seed (see [`TcDomain::new`]); the seed renames its variables and
    /// objects.
    pub fn new(shape: &AnalysisFacts, objects: usize, seed: u64) -> AnalysisDomain {
        let mut rng = SplitMix::fork(seed, "analysis-labels");
        let rank_to_var = permutation(&mut rng, shape.var.len());
        let facts = shape.relabel(&rank_to_var, &permutation(&mut rng, objects));
        AnalysisDomain {
            base: facts.clone(),
            preload: facts,
            popular: Zipf::new(rank_to_var.len(), 0.9),
            rank_to_var,
            objects,
        }
    }

    fn any_var(&self, rng: &mut SplitMix) -> u32 {
        rng.below(self.rank_to_var.len()) as u32
    }

    fn popular_var(&self, rng: &mut SplitMix) -> u32 {
        self.rank_to_var[self.popular.sample(rng)]
    }

    fn pairs(facts: &AnalysisFacts, rel: usize) -> &BTreeSet<(u32, u32)> {
        match rel {
            ADDRESS_OF => &facts.address_of,
            ASSIGN => &facts.assign,
            LOAD => &facts.load,
            STORE => &facts.store,
            CAND => &facts.cand,
            SUCC => &facts.succ,
            _ => unreachable!("relation {rel} is unary"),
        }
    }

    fn pairs_mut(facts: &mut AnalysisFacts, rel: usize) -> &mut BTreeSet<(u32, u32)> {
        match rel {
            ADDRESS_OF => &mut facts.address_of,
            ASSIGN => &mut facts.assign,
            LOAD => &mut facts.load,
            STORE => &mut facts.store,
            CAND => &mut facts.cand,
            SUCC => &mut facts.succ,
            _ => unreachable!("relation {rel} is unary"),
        }
    }
}

impl Domain for AnalysisDomain {
    fn rules(&self) -> &str {
        ANALYSIS_RULES
    }

    fn render(&self, fact: Fact) -> String {
        let (a, b) = fact.args;
        match fact.rel {
            ADDRESS_OF => format!("address_of(v{a}, o{b})"),
            ASSIGN => format!("assign(v{a}, v{b})"),
            LOAD => format!("load(v{a}, v{b})"),
            STORE => format!("store(v{a}, v{b})"),
            CAND => format!("cand(v{a}, v{b})"),
            VAR => format!("var(v{a})"),
            BLOCK => format!("block(b{a})"),
            ENTRY => format!("entry(b{a})"),
            SUCC => format!("succ(b{a}, b{b})"),
            rel => unreachable!("no relation {rel}"),
        }
    }

    fn preload(&self) -> Vec<Fact> {
        let p = &self.preload;
        let unary = |rel, set: &BTreeSet<u32>| {
            set.iter()
                .map(move |&a| Fact { rel, args: (a, 0) })
                .collect::<Vec<_>>()
        };
        let mut facts = Vec::new();
        for rel in [ADDRESS_OF, ASSIGN, LOAD, STORE, CAND, SUCC] {
            facts.extend(Self::pairs(p, rel).iter().map(|&args| Fact { rel, args }));
        }
        facts.extend(unary(VAR, &p.var));
        facts.extend(unary(BLOCK, &p.block));
        facts.extend(unary(ENTRY, &p.entry));
        facts
    }

    fn contains(&self, fact: Fact) -> bool {
        match fact.rel {
            VAR => self.base.var.contains(&fact.args.0),
            BLOCK => self.base.block.contains(&fact.args.0),
            ENTRY => self.base.entry.contains(&fact.args.0),
            rel => Self::pairs(&self.base, rel).contains(&fact.args),
        }
    }

    fn base_len(&self) -> usize {
        self.base.len()
    }

    fn apply(&mut self, insert: bool, facts: &[Fact]) {
        for fact in facts {
            let set = Self::pairs_mut(&mut self.base, fact.rel);
            if insert {
                set.insert(fact.args);
            } else {
                set.remove(&fact.args);
            }
        }
    }

    fn derived(&self) -> BTreeSet<String> {
        let mut atoms = BTreeSet::new();
        andersen(&self.base).for_each_atom(false, |atom| {
            atoms.insert(atom.to_string());
        });
        atoms
    }

    fn fresh(&self, rng: &mut SplitMix) -> Fact {
        loop {
            let (v, w) = (self.any_var(rng), self.popular_var(rng));
            let fact = match rng.below(10) {
                0..=5 => Fact {
                    rel: ASSIGN,
                    args: (v, w),
                },
                6..=7 => Fact {
                    rel: ADDRESS_OF,
                    args: (v, rng.below(self.objects) as u32),
                },
                8 => Fact {
                    rel: LOAD,
                    args: (v, w),
                },
                _ => Fact {
                    rel: STORE,
                    args: (w, v),
                },
            };
            let self_copy = fact.rel == ASSIGN && v == w;
            if !self_copy && !self.contains(fact) {
                return fact;
            }
        }
    }

    /// Interior: a copy edge, which derivations flow through. Tail: an
    /// `address_of`, where they start.
    fn long_lived(&self, rng: &mut SplitMix, interior: bool) -> Fact {
        let rel = if interior { ASSIGN } else { ADDRESS_OF };
        let present: Vec<(u32, u32)> = Self::pairs(&self.preload, rel)
            .intersection(Self::pairs(&self.base, rel))
            .copied()
            .collect();
        Fact {
            rel,
            args: present[rng.below(present.len())],
        }
    }

    fn query(&self, rng: &mut SplitMix) -> Query {
        let v = Some(format!("v{}", self.popular_var(rng)));
        match rng.below(10) {
            0..=5 => Query {
                pred: "pts",
                args: [v, None],
            },
            6..=7 => Query {
                pred: "alias",
                args: [v, None],
            },
            _ => Query {
                pred: "pts",
                args: [None, Some(format!("o{}", rng.below(self.objects)))],
            },
        }
    }

    fn binding(&self, rng: &mut SplitMix, query: &Query) -> String {
        match (query.pred, query.args[0].is_some()) {
            ("pts", true) => format!("o{}", rng.below(self.objects)),
            _ => format!("v{}", self.any_var(rng)),
        }
    }

    fn scan_pred(&self) -> &'static str {
        "pts"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::chain_shape;

    fn tc_domain(seed: u64) -> TcDomain {
        TcDomain::new("g(X, Z) :- a(X, Z).".into(), 20, &chain_shape(20), seed)
    }

    /// Drive a script against the model alone and render every request.
    fn transcript(seed: u64, rounds: usize) -> Vec<String> {
        let mut domain = tc_domain(seed);
        let mut script = Script::new(seed, 0);
        let mut lines = Vec::new();
        for _ in 0..rounds {
            if let Some(back) = script.reinsert() {
                assert!(!domain.contains(back));
                domain.apply(true, &[back]);
                lines.push(format!("+{}", domain.render(back)));
            }
            let insert = script.insert_batch(&domain);
            assert_eq!(insert.len(), INSERT_BATCH);
            assert!(insert.iter().all(|&f| !domain.contains(f)));
            domain.apply(true, &insert);
            lines.extend(insert.iter().map(|&f| format!("+{}", domain.render(f))));
            let (first, repeats) = script.queries(&domain);
            assert_eq!(
                (first.len(), repeats.len()),
                (FIRST_QUERIES, REPEAT_QUERIES)
            );
            lines.extend(first.iter().chain(&repeats).map(Query::render));
            if let Some(remove) = script.remove_batch(&domain) {
                assert!(remove.iter().all(|&f| domain.contains(f)));
                domain.apply(false, &remove);
                lines.extend(remove.iter().map(|&f| format!("-{}", domain.render(f))));
            }
        }
        lines
    }

    #[test]
    fn same_seed_same_script_and_another_seed_another() {
        assert_eq!(transcript(11, 12), transcript(11, 12));
        assert_ne!(transcript(11, 12), transcript(12, 12));
    }

    #[test]
    fn the_view_stays_bounded() {
        let mut domain = tc_domain(4);
        let mut script = Script::new(4, 0);
        let start = domain.base_len();
        for _ in 0..60 {
            if let Some(back) = script.reinsert() {
                domain.apply(true, &[back]);
            }
            let insert = script.insert_batch(&domain);
            domain.apply(true, &insert);
            script.queries(&domain);
            if let Some(remove) = script.remove_batch(&domain) {
                domain.apply(false, &remove);
            }
            assert!(domain.base_len() <= start + 4 * INSERT_BATCH);
        }
    }

    #[test]
    fn repeats_are_earlier_atoms_or_their_instances() {
        let domain = tc_domain(2);
        let (first, repeats) = Script::new(2, 0).queries(&domain);
        for r in &repeats {
            assert!(first.iter().any(|f| {
                f == r
                    || (f.pred == r.pred
                        && (0..2).all(|i| f.args[i].is_none() || f.args[i] == r.args[i]))
            }));
        }
        assert!(repeats.iter().any(|r| r.args.iter().all(Option::is_some)));
    }

    #[test]
    fn query_matching() {
        let q = Query {
            pred: "g",
            args: [Some("3".into()), None],
        };
        assert_eq!(q.render(), "g(3, X)");
        assert!(q.matches("g(3, 17)"));
        assert!(!q.matches("g(13, 3)"));
        assert!(!q.matches("a(3, 17)"));
        let derived: BTreeSet<String> = ["g(3, 1)", "g(3, 2)", "g(4, 1)"].map(String::from).into();
        assert_eq!(q.answers(&derived).len(), 2);
    }
}
