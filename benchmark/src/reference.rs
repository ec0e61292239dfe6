//! Reference answers that do not come from the engine under test: plain
//! graph search for every transitive-closure result, a worklist Andersen
//! solver plus set differences for the points-to analysis, and the planted
//! redundancy targets of the optimizer corpus. None of this calls into
//! `crates/`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// All pairs `(u, v)` with a non-empty path from `u` to `v`: one BFS per
/// source node.
pub fn tc_closure(edges: &BTreeSet<(u32, u32)>) -> BTreeSet<(u32, u32)> {
    let mut succ: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &(u, v) in edges {
        succ.entry(u).or_default().push(v);
    }
    let mut closure = BTreeSet::new();
    for &source in succ.keys() {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<u32> = succ[&source].iter().copied().collect();
        while let Some(node) = queue.pop_front() {
            if seen.insert(node) {
                if let Some(next) = succ.get(&node) {
                    queue.extend(next.iter().copied());
                }
            }
        }
        closure.extend(seen.into_iter().map(|v| (source, v)));
    }
    closure
}

/// The EDB of the points-to / CFG analysis, as ids. Variables render as
/// `v<id>`, allocation sites as `o<id>`, basic blocks as `b<id>`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisFacts {
    pub var: BTreeSet<u32>,
    /// `address_of(V, O)`: v = &o
    pub address_of: BTreeSet<(u32, u32)>,
    /// `assign(V, W)`: v = w
    pub assign: BTreeSet<(u32, u32)>,
    /// `load(V, P)`: v = *p
    pub load: BTreeSet<(u32, u32)>,
    /// `store(P, W)`: *p = w
    pub store: BTreeSet<(u32, u32)>,
    /// `cand(V, W)`: a pair of pointers the alias report is asked about
    pub cand: BTreeSet<(u32, u32)>,
    pub block: BTreeSet<u32>,
    pub entry: BTreeSet<u32>,
    pub succ: BTreeSet<(u32, u32)>,
}

/// What the analysis program derives.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisResult {
    pub pts: BTreeSet<(u32, u32)>,
    pub heap: BTreeSet<(u32, u32)>,
    pub alias: BTreeSet<(u32, u32)>,
    pub reach: BTreeSet<u32>,
    pub dead: BTreeSet<u32>,
    pub noalias: BTreeSet<(u32, u32)>,
}

/// Inclusion-based points-to by difference propagation over a constraint
/// graph whose nodes are variables and heap cells (one per allocation
/// site), with the load/store edges added as pointer targets are
/// discovered; then reachability from the entry blocks, and the two
/// negated reports as set differences.
pub fn andersen(facts: &AnalysisFacts) -> AnalysisResult {
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Node {
        Var(u32),
        Cell(u32),
    }
    let mut sets: BTreeMap<Node, BTreeSet<u32>> = BTreeMap::new();
    // copy[n] = nodes whose set must include n's set
    let mut copy: BTreeMap<Node, BTreeSet<Node>> = BTreeMap::new();
    let mut loads_from: BTreeMap<u32, Vec<u32>> = BTreeMap::new(); // p -> [v] for v = *p
    let mut stores_to: BTreeMap<u32, Vec<u32>> = BTreeMap::new(); // p -> [w] for *p = w
    for &(v, w) in &facts.assign {
        copy.entry(Node::Var(w)).or_default().insert(Node::Var(v));
    }
    for &(v, p) in &facts.load {
        loads_from.entry(p).or_default().push(v);
    }
    for &(p, w) in &facts.store {
        stores_to.entry(p).or_default().push(w);
    }
    let mut work: VecDeque<(Node, u32)> = facts
        .address_of
        .iter()
        .map(|&(v, o)| (Node::Var(v), o))
        .collect();
    while let Some((node, obj)) = work.pop_front() {
        if !sets.entry(node).or_default().insert(obj) {
            continue;
        }
        if let Some(targets) = copy.get(&node) {
            work.extend(targets.iter().map(|&t| (t, obj)));
        }
        // `node` is a pointer that now points to `obj`: its loads read the
        // cell of `obj`, its stores write it.
        if let Node::Var(p) = node {
            let cell = Node::Cell(obj);
            let mut new_edges = Vec::new();
            for &v in loads_from.get(&p).into_iter().flatten() {
                new_edges.push((cell, Node::Var(v)));
            }
            for &w in stores_to.get(&p).into_iter().flatten() {
                new_edges.push((Node::Var(w), cell));
            }
            for (from, to) in new_edges {
                if copy.entry(from).or_default().insert(to) {
                    if let Some(known) = sets.get(&from) {
                        work.extend(known.iter().map(|&o| (to, o)));
                    }
                }
            }
        }
    }
    let mut result = AnalysisResult::default();
    for (node, objs) in &sets {
        match *node {
            Node::Var(v) => result.pts.extend(objs.iter().map(|&o| (v, o))),
            Node::Cell(q) => result.heap.extend(objs.iter().map(|&o| (q, o))),
        }
    }
    let empty = BTreeSet::new();
    let pts_of = |v: u32| sets.get(&Node::Var(v)).unwrap_or(&empty);
    for &(v, w) in &facts.cand {
        if pts_of(v).intersection(pts_of(w)).next().is_some() {
            result.alias.insert((v, w));
        } else {
            result.noalias.insert((v, w));
        }
    }
    let mut succ: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &(a, b) in &facts.succ {
        succ.entry(a).or_default().push(b);
    }
    let mut queue: VecDeque<u32> = facts.entry.iter().copied().collect();
    while let Some(b) = queue.pop_front() {
        if result.reach.insert(b) {
            queue.extend(succ.get(&b).into_iter().flatten().copied());
        }
    }
    result.dead = facts.block.difference(&result.reach).copied().collect();
    result
}

/// The size a corpus program must shrink to: what was planted is what must
/// come out. `None` leaves that dimension unchecked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Planted {
    pub max_rules: Option<usize>,
    pub max_width: Option<usize>,
}

impl Planted {
    /// `bloated_tc`: every injection is redundant, so the doubling program
    /// (2 rules, 3 body atoms) is the target.
    pub const BLOATED_TC: Planted = Planted {
        max_rules: Some(2),
        max_width: Some(3),
    };
    /// `guarded_tc(k)`: all `k` guards fall (the last one only to the
    /// equivalence phase), leaving 3 body atoms.
    pub const GUARDED_TC: Planted = Planted {
        max_rules: Some(2),
        max_width: Some(3),
    };
    /// `wide_rule(w)`: the Example 7 core of 4 body atoms.
    pub const WIDE_RULE: Planted = Planted {
        max_rules: Some(1),
        max_width: Some(4),
    };

    pub fn recovered(&self, rules: usize, width: usize) -> bool {
        self.max_rules.is_none_or(|m| rules <= m) && self.max_width.is_none_or(|m| width <= m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_of_a_chain_and_a_cycle() {
        let chain: BTreeSet<(u32, u32)> = [(0, 1), (1, 2), (2, 3)].into();
        assert_eq!(tc_closure(&chain).len(), 6);
        assert!(tc_closure(&chain).contains(&(0, 3)));
        assert!(!tc_closure(&chain).contains(&(3, 0)));
        let cycle: BTreeSet<(u32, u32)> = [(0, 1), (1, 2), (2, 0)].into();
        assert_eq!(tc_closure(&cycle).len(), 9);
    }

    #[test]
    fn andersen_on_the_points_to_example() {
        // p = &x; q = &y; r = p; *p = q; s = *r;   (vars p,q,r,s = 0..3; x,y = 0,1)
        let facts = AnalysisFacts {
            var: [0, 1, 2, 3].into(),
            address_of: [(0, 0), (1, 1)].into(),
            assign: [(2, 0)].into(),
            store: [(0, 1)].into(),
            load: [(3, 2)].into(),
            cand: [(0, 2), (0, 1), (3, 1)].into(),
            block: [0, 1, 2].into(),
            entry: [0].into(),
            succ: [(0, 1)].into(),
        };
        let r = andersen(&facts);
        assert_eq!(r.pts, [(0, 0), (1, 1), (2, 0), (3, 1)].into());
        assert_eq!(r.heap, [(0, 1)].into());
        assert_eq!(r.alias, [(0, 2), (3, 1)].into());
        assert_eq!(r.noalias, [(0, 1)].into());
        assert_eq!(r.reach, [0, 1].into());
        assert_eq!(r.dead, [2].into());
    }

    #[test]
    fn planted_targets() {
        assert!(Planted::BLOATED_TC.recovered(2, 3));
        assert!(!Planted::BLOATED_TC.recovered(3, 3));
        assert!(!Planted::WIDE_RULE.recovered(1, 5));
    }
}
