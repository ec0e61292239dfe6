//! `Containment` compiles a program once and is edited in step with Fig. 2
//! (`replace` a rule by its shrunken copy, `remove` a redundant rule), and
//! each compiled plan keeps the join scripts compiled from it for every
//! later test. The edits must invalidate exactly what they change: a kept
//! script answers for the rule it was compiled from, so one that outlived
//! its rule would test the old program.
//!
//! Fig. 2 runs here in random consideration orders over the programs the
//! optimizer benchmark draws from — guarded and bloated transitive closure,
//! wide rules, injected random programs — and every test it makes is
//! decided twice: by the edited `Containment`, and by one built from
//! scratch on the program as it stands. Fig. 2's edits only shrink rules,
//! so each rule is then also replaced by another rule of the same width,
//! and back, with every test of the program decided twice again.

use datalog_ast::Program;
use datalog_bench::{guarded_tc, wide_rule};
use datalog_generate::{bloated_tc, inject, random_program, RandomProgramSpec};
use datalog_optimizer::{minimize_program_in_order, Containment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn corpus() -> Vec<(String, Program)> {
    let mut programs = vec![
        ("guarded_tc(4)".to_string(), guarded_tc(4)),
        ("wide_rule(12)".to_string(), wide_rule(12)),
    ];
    for seed in 0..3 {
        programs.push((format!("bloated_tc(5, {seed})"), bloated_tc(5, seed)));
    }
    for seed in 0..6u64 {
        let spec = RandomProgramSpec {
            rules: 3 + seed as usize,
            ..RandomProgramSpec::default()
        };
        let (bloated, _) = inject(&random_program(&spec, seed), spec.rules, 300 + seed);
        programs.push((format!("random({seed})"), bloated));
    }
    programs
}

fn shuffled(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// Decide `r ⊑u current` (without rule `without`, if given) on the edited
/// `containment` and on a fresh one; they must agree.
fn decide(
    containment: &Containment,
    current: &Program,
    r: &datalog_ast::Rule,
    without: Option<usize>,
    what: &str,
) -> bool {
    let fresh = Containment::new(current);
    let (edited, scratch) = match without {
        None => (containment.holds(r), fresh.holds(r)),
        Some(i) => (containment.holds_without(r, i), fresh.holds_without(r, i)),
    };
    assert_eq!(edited, scratch, "{what}: `{r}` against\n{current}");
    edited
}

/// Fig. 2 in the given order (as `minimize_program_in_order` runs it), with
/// every test decided twice. Returns the minimized program.
fn fig2_twice(
    program: &Program,
    rule_order: &[usize],
    atom_orders: &[Vec<usize>],
    what: &str,
) -> Program {
    let mut current = program.clone();
    let mut containment = Containment::new(&current);
    for (rule_idx, atom_order) in atom_orders.iter().enumerate() {
        let mut remaining: Vec<usize> = (0..program.rules[rule_idx].width()).collect();
        for &atom in atom_order {
            let pos = remaining
                .iter()
                .position(|&o| o == atom)
                .expect("a permutation");
            let candidate = current.rules[rule_idx].without_body_atom(pos);
            if decide(&containment, &current, &candidate, None, what) {
                containment.replace(rule_idx, &candidate);
                current.rules[rule_idx] = candidate;
                remaining.remove(pos);
            }
        }
    }
    let mut live: Vec<usize> = (0..current.len()).collect();
    for &rule in rule_order {
        let pos = live.iter().position(|&o| o == rule).expect("a permutation");
        let r = current.rules[pos].clone();
        if decide(&containment, &current, &r, Some(pos), what) {
            containment.remove(pos);
            current.rules.remove(pos);
            live.remove(pos);
        }
    }
    current
}

#[test]
fn fig2_edits_leave_every_test_as_from_scratch() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for (name, program) in corpus() {
        for round in 0..3 {
            let rule_order = shuffled(&mut rng, program.len());
            let atom_orders: Vec<Vec<usize>> = program
                .rules
                .iter()
                .map(|r| shuffled(&mut rng, r.width()))
                .collect();
            let what = format!("{name}, order {round}");
            let minimized = fig2_twice(&program, &rule_order, &atom_orders, &what);
            let (expected, _) =
                minimize_program_in_order(&program, &rule_order, &atom_orders).unwrap();
            assert_eq!(minimized, expected, "{what}");
        }
    }
}

#[test]
fn same_width_replacements_leave_every_test_as_from_scratch() {
    for (name, program) in corpus() {
        let mut current = program.clone();
        let mut containment = Containment::new(&current);
        for i in 0..program.len() {
            let width = program.rules[i].width();
            let Some(other) = (0..program.len()).find(|&j| {
                j != i && program.rules[j].width() == width && program.rules[j] != program.rules[i]
            }) else {
                continue;
            };
            for edit in [&program.rules[other], &program.rules[i]] {
                containment.replace(i, edit);
                current.rules[i] = edit.clone();
                let what = format!("{name}, rule {i} replaced by `{edit}`");
                for r in &program.rules {
                    decide(&containment, &current, r, None, &what);
                }
                for (k, r) in current.rules.iter().enumerate() {
                    decide(&containment, &current, r, Some(k), &what);
                }
            }
        }
    }
}
