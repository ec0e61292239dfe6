//! Property tests for the concrete syntax: printing any well-formed AST
//! and re-parsing it must give the same AST back, and the parser must never
//! panic on arbitrary input. A database printed as a fact file reads back
//! as the same database, and `parse_database` — which reads facts straight
//! into rows — accepts exactly the inputs `parse_unit` reads as ground facts
//! only.

use datalog_ast::{
    atom, parse_atom, parse_database, parse_program, parse_rule, parse_tgd, parse_unit, Atom,
    Const, Database, GroundAtom, Literal, Program, Rule, Term, Tgd,
};
use proptest::prelude::*;

/// Parser-compatible predicate names.
fn pred_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["a", "b", "c", "edge", "g", "p", "q", "reach", "sg"])
        .prop_map(str::to_owned)
}

/// Parser-compatible variable names (uppercase first letter).
fn var_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["X", "Y", "Z", "W", "V0", "V1", "Who", "_u"]).prop_map(str::to_owned)
}

/// Parser-compatible named constants.
fn const_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["john", "ann", "n1", "leaf"]).prop_map(str::to_owned)
}

fn term() -> impl Strategy<Value = Term> {
    prop_oneof![
        var_name().prop_map(|v| Term::var(&v)),
        any::<i32>().prop_map(|i| Term::int(i as i64)),
        const_name().prop_map(|c| Term::sym(&c)),
    ]
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    (pred_name(), prop::collection::vec(term(), 0..4)).prop_map(|(p, terms)| atom(&p, terms))
}

fn arb_rule() -> impl Strategy<Value = Rule> {
    (
        arb_atom(),
        prop::collection::vec((arb_atom(), any::<bool>()), 0..4),
    )
        .prop_map(|(head, body)| {
            Rule::new(
                head,
                body.into_iter()
                    .map(|(a, neg)| {
                        if neg {
                            Literal::neg(a)
                        } else {
                            Literal::pos(a)
                        }
                    })
                    .collect(),
            )
        })
}

fn arb_program() -> impl Strategy<Value = Program> {
    prop::collection::vec(arb_rule(), 0..6).prop_map(Program::new)
}

/// Any `i64` (the extremes drawn on purpose) or a named constant.
fn arb_const() -> impl Strategy<Value = Const> {
    prop_oneof![
        any::<i64>().prop_map(Const::Int),
        prop::sample::select(vec![i64::MIN, i64::MAX, -1, 0]).prop_map(Const::Int),
        const_name().prop_map(|c| Const::from(c.as_str())),
    ]
}

/// Facts of arity 0 to 3 under a few predicate names, so one predicate
/// often holds rows of two arities.
fn arb_database() -> impl Strategy<Value = Database> {
    prop::collection::vec(
        (pred_name(), prop::collection::vec(arb_const(), 0..4)),
        0..16,
    )
    .prop_map(|facts| {
        facts
            .into_iter()
            .map(|(pred, tuple)| GroundAtom::new(pred.as_str(), tuple))
            .collect()
    })
}

/// `parse_database` accepts `src` exactly when `parse_unit` reads nothing
/// but ground facts from it, and then both read the same database.
fn check_against_parse_unit(src: &str) -> Result<(), TestCaseError> {
    let db = parse_database(src);
    match parse_unit(src) {
        Ok(unit) if unit.program.is_empty() && unit.tgds.is_empty() && unit.schemas.is_empty() => {
            prop_assert_eq!(db, Ok(Database::from_atoms(unit.facts)), "{:?}", src);
        }
        _ => prop_assert!(db.is_err(), "{:?} read as {:?}", src, db),
    }
    Ok(())
}

fn arb_tgd() -> impl Strategy<Value = Tgd> {
    (
        prop::collection::vec(arb_atom(), 1..3),
        prop::collection::vec(arb_atom(), 1..3),
    )
        .prop_map(|(lhs, rhs)| Tgd::new(lhs, rhs))
}

// The printer emits facts (empty-body rules) as `head.`; the parser
// classifies them back as rules. Bodiless rules round-trip exactly.
proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn atom_roundtrip(a in arb_atom()) {
        // Zero-arity atoms print as `p()`... no: Display prints `p()`.
        let printed = a.to_string();
        let reparsed = parse_atom(&printed).unwrap();
        prop_assert_eq!(a, reparsed);
    }

    #[test]
    fn rule_roundtrip(r in arb_rule()) {
        let printed = r.to_string();
        let reparsed = parse_rule(&printed).unwrap();
        prop_assert_eq!(r, reparsed);
    }

    #[test]
    fn program_roundtrip(p in arb_program()) {
        let printed = p.to_string();
        let reparsed = parse_program(&printed).unwrap();
        prop_assert_eq!(p, reparsed);
    }

    #[test]
    fn tgd_roundtrip(t in arb_tgd()) {
        let printed = t.to_string();
        let reparsed = parse_tgd(&printed).unwrap();
        prop_assert_eq!(t, reparsed);
    }

    #[test]
    fn database_roundtrip(db in arb_database()) {
        let printed = db.facts().to_string();
        let atoms: String = db.iter().map(|a| format!("{a}.\n")).collect();
        prop_assert_eq!(&printed, &atoms);
        prop_assert_eq!(parse_database(&printed).unwrap(), db);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "\\PC*") {
        // Any result is fine; crashing is not.
        let _ = parse_program(&s);
        let _ = parse_atom(&s);
        let _ = parse_tgd(&s);
        let _ = datalog_ast::parse_database(&s);
        let _ = datalog_ast::parse_unit(&s);
    }

    #[test]
    fn parser_never_panics_on_almost_valid_input(
        base in arb_program(),
        db in arb_database(),
        cut in any::<prop::sample::Index>(),
        junk in "[a-zX,():.%&!-]{0,6}",
    ) {
        // Truncate a valid program at an arbitrary byte boundary and append
        // junk — exercises every error path in the parser.
        let printed = base.to_string();
        let mut idx = cut.index(printed.len().max(1)).min(printed.len());
        while !printed.is_char_boundary(idx) {
            idx -= 1;
        }
        let mangled = format!("{}{}", &printed[..idx], junk);
        let _ = parse_program(&mangled);
        let _ = datalog_ast::parse_unit(&mangled);
        check_against_parse_unit(&mangled)?;

        // The same for a printed database.
        let printed = db.facts().to_string();
        let mut idx = cut.index(printed.len().max(1)).min(printed.len());
        while !printed.is_char_boundary(idx) {
            idx -= 1;
        }
        check_against_parse_unit(&format!("{}{}", &printed[..idx], junk))?;
    }
}

/// `parse_database` errors pinned by line, column and message, one error per
/// input: the statement that is not a ground fact is named from its first
/// token, a lexical error where the lexer stops.
#[test]
fn parse_database_errors() {
    let cases: [(&str, (usize, usize, &str)); 8] = [
        (
            "a(1, 2).\nb(X, 3).\n",
            (2, 1, "fact `b(X, 3)` is not ground"),
        ),
        (
            "a(1).\n  g(X) :- a(X).\n",
            (2, 3, "expected a ground fact, found a rule with a body"),
        ),
        (
            "a(1).\ng(X, Z) -> a(X, W).\n",
            (2, 1, "expected a ground fact, found a tgd"),
        ),
        (
            "@decl edge(int, int).\n",
            (1, 1, "expected a ground fact, found a declaration"),
        ),
        ("a(1, 2).\na(3, $).\n", (2, 6, "unexpected character `$`")),
        (
            "a(1).\na(99999999999999999999).\n",
            (2, 23, "integer `99999999999999999999` out of range"),
        ),
        (
            "a(1, 2)\na(3, 4).\n",
            (
                2,
                1,
                "expected `.`, `:-`, `&`, or `->`, found identifier `a`",
            ),
        ),
        ("a(1, 2.\n", (1, 7, "expected `)`, found `.`")),
    ];
    for (src, (line, col, message)) in cases {
        let err = parse_database(src).unwrap_err();
        assert_eq!(
            (err.line, err.col, err.message.as_str()),
            (line, col, message),
            "{src:?}"
        );
    }
}

/// With a syntax error before a lexical one, the syntax error is reported:
/// nothing past the first error is lexed.
#[test]
fn the_first_error_in_source_order_is_reported() {
    for parse in [
        |s: &str| parse_database(s).map(drop),
        |s: &str| parse_program(s).map(drop),
        |s: &str| parse_unit(s).map(drop),
    ] {
        let err = parse("a(1 2).\nb($).\n").unwrap_err();
        assert_eq!((err.line, err.col), (1, 5), "{err}");
        assert_eq!(err.message, "expected `)`, found integer `2`");
    }
}
