//! The four workloads. Each is an application — programs, a fact base and a
//! live slice to serve — taken through the same journey: optimize with the
//! CLI, evaluate the original and the optimized program with the CLI, then
//! serve through the daemon. They differ in where the time goes; sizes were
//! tuned once on the 2-core reference host and are recorded here and in the
//! README.

use crate::gen::{
    analysis_facts, chain_shape, corpus, edge_facts, erdos_renyi, permutation, relabel, ring_shape,
    tc_program, AnalysisSize, CorpusSize, Edges, ANALYSIS_PLANTED, ANALYSIS_REPORTS,
    ANALYSIS_RULES,
};
use crate::reference::{andersen, tc_closure, AnalysisFacts, Planted};
use crate::rng::SplitMix;
use crate::serve::{AnalysisDomain, Domain, TcDomain};
use datalog_bench::guarded_tc;

pub const WORKLOADS: [&str; 4] = ["eval-tc", "eval-analysis", "optimize-corpus", "serve-mixed"];

/// Where the reference output of a batch evaluation comes from.
pub enum Reference {
    /// `g` is the closure of these `a` edges: one graph search per node.
    Closure(Edges),
    /// The worklist Andersen solver and set-difference reports.
    Analysis(Box<AnalysisFacts>),
    /// No independent solver for this program; the optimized program must
    /// still print what the original prints.
    RawOnly,
}

/// One program of the batch phase with its fact base and its checks.
pub struct Case {
    pub name: String,
    pub source: String,
    /// `datalog optimize`, or `datalog minimize` where negation rules the
    /// equivalence phase out.
    pub optimizer: &'static str,
    /// `--engine` for `datalog eval`; `None` is the CLI default.
    pub engine: Option<&'static str>,
    pub edb: String,
    pub planted: Planted,
    pub reference: Reference,
}

impl Case {
    /// What `datalog eval` must print, as sorted lines; `None` for
    /// [`Reference::RawOnly`].
    pub fn expected_output(&self) -> Option<Vec<String>> {
        let mut lines: Vec<String> = self.edb.lines().map(str::to_string).collect();
        match &self.reference {
            Reference::Closure(edges) => {
                lines.extend(
                    tc_closure(edges)
                        .iter()
                        .map(|(u, v)| format!("g({u}, {v}).")),
                );
            }
            Reference::Analysis(facts) => {
                andersen(facts).for_each_atom(true, |atom| lines.push(format!("{atom}.")));
            }
            Reference::RawOnly => return None,
        }
        lines.sort_unstable();
        Some(lines)
    }
}

pub struct App {
    pub cases: Vec<Case>,
    pub domain: Box<dyn Domain>,
    /// Share of the measured seconds given to the batch phase; the serve
    /// phase gets the rest.
    pub batch_share: f64,
}

/// Seed of every drawn structure: the Erdős–Rényi graph of `eval-tc`, the
/// synthetic program of `eval-analysis` and its small sibling that is
/// served. A run's seed renames the constants of these structures (and
/// draws the serve script); it does not draw new ones. How long a closure
/// takes depends on the graph's diameter, how long a `remove` takes on what
/// hangs off the removed fact: with a structure per seed, runs with
/// different seeds measured different workloads (spreads of 15 to 60 %).
const SHAPE: u64 = 0x5eed;

struct Sizes {
    tc_nodes: usize,
    tc_edges: usize,
    tc_slice_nodes: usize,
    analysis: AnalysisSize,
    analysis_slice: AnalysisSize,
    corpus: CorpusSize,
    corpus_slice_nodes: usize,
    serve_nodes: usize,
}

const FULL: Sizes = Sizes {
    tc_nodes: 160,
    tc_edges: 1280,
    tc_slice_nodes: 12,
    analysis: AnalysisSize {
        modules: 500,
        vars: 60,
        objects: 6,
        address_of: 24,
        assign: 60,
        load: 30,
        store: 24,
        cand: 24,
        blocks: 6_000,
        succ_extra: 4_000,
    },
    analysis_slice: AnalysisSize {
        modules: 2,
        vars: 20,
        objects: 5,
        address_of: 12,
        assign: 15,
        load: 4,
        store: 3,
        cand: 8,
        blocks: 12,
        succ_extra: 6,
    },
    corpus: CorpusSize {
        guarded: (5, 7),
        wide: &[64, 80, 96],
        bloated: (16, 4),
        random_count: 8,
        random_rules: (32, 4),
    },
    corpus_slice_nodes: 12,
    serve_nodes: 16,
};

/// `--smoke`: the same shapes, a few seconds in all.
const SMOKE: Sizes = Sizes {
    tc_nodes: 60,
    tc_edges: 240,
    tc_slice_nodes: 8,
    analysis: AnalysisSize {
        modules: 25,
        vars: 60,
        objects: 6,
        address_of: 24,
        assign: 48,
        load: 16,
        store: 12,
        cand: 24,
        blocks: 300,
        succ_extra: 200,
    },
    analysis_slice: AnalysisSize {
        modules: 2,
        vars: 10,
        objects: 3,
        address_of: 6,
        assign: 7,
        load: 2,
        store: 2,
        cand: 4,
        blocks: 6,
        succ_extra: 3,
    },
    corpus: CorpusSize {
        guarded: (3, 4),
        wide: &[16],
        bloated: (8, 2),
        random_count: 2,
        random_rules: (8, 4),
    },
    corpus_slice_nodes: 10,
    serve_nodes: 14,
};

/// Generate the named workload's inputs from the seed.
pub fn build(name: &str, seed: u64, smoke: bool) -> Result<App, String> {
    let sizes = if smoke { &SMOKE } else { &FULL };
    let mut rng = SplitMix::fork(seed, name);
    Ok(match name {
        "eval-tc" => {
            let program = tc_program();
            let shape: Vec<(u32, u32)> =
                erdos_renyi(&mut SplitMix::new(SHAPE), sizes.tc_nodes, sizes.tc_edges)
                    .into_iter()
                    .collect();
            let edges = relabel(&shape, &permutation(&mut rng, sizes.tc_nodes));
            // The slice to serve is, like the big graph, one strongly
            // connected lump, the worst case for delete-and-rederive, at a
            // size where a `remove` still returns.
            let slice = ring_shape(sizes.tc_slice_nodes);
            App {
                cases: vec![Case {
                    name: "bloated_tc".into(),
                    source: program.clone(),
                    optimizer: "optimize",
                    engine: None,
                    edb: edge_facts("a", &edges),
                    planted: Planted::BLOATED_TC,
                    reference: Reference::Closure(edges),
                }],
                domain: Box::new(TcDomain::new(program, sizes.tc_slice_nodes, &slice, seed)),
                batch_share: 0.8,
            }
        }
        "eval-analysis" => {
            let facts = analysis_facts(&mut SplitMix::new(SHAPE), &sizes.analysis).relabel(
                &permutation(&mut rng, sizes.analysis.total_vars()),
                &permutation(&mut rng, sizes.analysis.total_objects()),
            );
            let slice = analysis_facts(&mut SplitMix::new(SHAPE), &sizes.analysis_slice);
            App {
                cases: vec![Case {
                    name: "points_to".into(),
                    source: format!("{ANALYSIS_RULES}{ANALYSIS_REPORTS}"),
                    optimizer: "minimize",
                    // Without it `datalog eval` panics on a negated program.
                    engine: Some("stratified"),
                    edb: facts.render(),
                    planted: ANALYSIS_PLANTED,
                    reference: Reference::Analysis(Box::new(facts)),
                }],
                domain: Box::new(AnalysisDomain::new(
                    &slice,
                    sizes.analysis_slice.total_objects(),
                    seed,
                )),
                batch_share: 0.8,
            }
        }
        "optimize-corpus" => {
            let cases = corpus(&mut rng, &sizes.corpus)
                .into_iter()
                .map(|p| Case {
                    name: p.name,
                    source: p.source,
                    optimizer: "optimize",
                    engine: None,
                    edb: p.edb,
                    planted: p.planted,
                    reference: p.closure_of.map_or(Reference::RawOnly, Reference::Closure),
                })
                .collect();
            // Served: the corpus's own guarded closure, whose last guard
            // survives minimize-on-install, so the view is maintained
            // through a 3-atom recursive rule.
            App {
                cases,
                domain: Box::new(TcDomain::new(
                    guarded_tc(sizes.corpus.guarded.0).to_string(),
                    sizes.corpus_slice_nodes,
                    &chain_shape(sizes.corpus_slice_nodes),
                    seed,
                )),
                batch_share: 0.8,
            }
        }
        "serve-mixed" => {
            let program = tc_program();
            let domain = TcDomain::new(
                program.clone(),
                sizes.serve_nodes,
                &chain_shape(sizes.serve_nodes),
                seed,
            );
            // The batch phase evaluates what the daemon is preloaded with.
            let edges = domain.base().clone();
            App {
                cases: vec![Case {
                    name: "bloated_tc".into(),
                    source: program.clone(),
                    optimizer: "optimize",
                    engine: None,
                    edb: edge_facts("a", &edges),
                    planted: Planted::BLOATED_TC,
                    reference: Reference::Closure(edges),
                }],
                domain: Box::new(domain),
                batch_share: 0.1,
            }
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything the program under test is given for a workload, as bytes.
    fn inputs(name: &str, seed: u64) -> String {
        let app = build(name, seed, true).unwrap();
        let mut all = String::new();
        for case in &app.cases {
            all.push_str(&case.source);
            all.push_str(&case.edb);
        }
        all.push_str(app.domain.rules());
        for fact in app.domain.preload() {
            all.push_str(&app.domain.render(fact));
        }
        all
    }

    #[test]
    fn one_seed_gives_identical_inputs_and_another_seed_different_ones() {
        for name in WORKLOADS {
            assert_eq!(inputs(name, 3), inputs(name, 3), "{name}");
            assert_ne!(inputs(name, 3), inputs(name, 4), "{name}");
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(build("nope", 1, true).is_err());
    }

    #[test]
    fn references_cover_the_edb_and_the_derived_atoms() {
        let app = build("eval-tc", 1, true).unwrap();
        let expected = app.cases[0].expected_output().unwrap();
        assert!(expected.iter().any(|l| l.starts_with("a(")));
        assert!(expected.iter().any(|l| l.starts_with("g(")));
        assert!(expected.windows(2).all(|w| w[0] < w[1]));
    }
}
