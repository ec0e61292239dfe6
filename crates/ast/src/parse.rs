//! Concrete syntax: lexer and recursive-descent parser.
//!
//! The syntax follows Prolog conventions:
//!
//! * **Variables** start with an uppercase letter or `_`: `X`, `Who`, `_y`.
//! * **Predicates and named constants** are lowercase identifiers: `edge`,
//!   `john`.
//! * **Integer constants**: `42`, `-3`.
//! * **Rules**: `g(X, Z) :- a(X, Z).` — facts are rules with a ground head
//!   and no body: `a(1, 2).`
//! * **Negated literals** (stratified extension): `p(X) :- q(X), !r(X).`
//! * **Tgds** (§VIII): `g(X, Z) -> a(X, W).` and
//!   `g(X, Y) & g(Y, Z) -> a(Y, W).`
//! * **Schema declarations** (opt-in typing): `@decl edge(int, int).`
//!   with column types `int`, `sym`, `any` — see [`crate::schema`].
//! * **Comments**: `% …` or `// …` to end of line.
//!
//! The paper writes predicates uppercase and variables lowercase; in this
//! concrete syntax the paper's `G(x, z) :- A(x, z)` is written
//! `g(X, Z) :- a(X, Z)`. Programmatic construction via [`crate::atom::Atom`]
//! is unrestricted.

use crate::atom::{Atom, GroundAtom, Literal};
use crate::database::Database;
use crate::program::Program;
use crate::rule::Rule;
use crate::schema::{ColType, Schema, SchemaSet};
use crate::span::{RuleSpans, Span};
use crate::symbol::{Pred, Sym, Var};
use crate::term::{Const, Term};
use crate::tgd::Tgd;
use std::collections::HashMap;
use std::fmt;

/// Position-annotated parse error.
///
/// When an input holds several errors, the first in source order is the one
/// reported: the lexer produces tokens only as the parser asks for them, so
/// nothing past the first error is ever read.
#[derive(Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub col: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl fmt::Debug for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for ParseError {}

/// A token; identifiers borrow their text from the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tok<'a> {
    LowerIdent(&'a str),
    UpperIdent(&'a str),
    Int(i64),
    LParen,
    RParen,
    Comma,
    Dot,
    Bang,
    Ampersand,
    At,
    ColonDash, // :-
    Arrow,     // ->
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::LowerIdent(s) => write!(f, "identifier `{s}`"),
            Tok::UpperIdent(s) => write!(f, "variable `{s}`"),
            Tok::Int(i) => write!(f, "integer `{i}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Bang => write!(f, "`!`"),
            Tok::Ampersand => write!(f, "`&`"),
            Tok::At => write!(f, "`@`"),
            Tok::ColonDash => write!(f, "`:-`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A cursor over the source that produces one token per call. It is cheap
/// to clone, which is how a parser rewinds to the start of a statement.
#[derive(Clone)]
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    /// Advance past the bytes `more` accepts, none of which is a newline.
    fn eat_while(&mut self, more: impl Fn(u8) -> bool) {
        let start = self.pos;
        while self.peek_byte().is_some_and(&more) {
            self.pos += 1;
        }
        self.col += self.pos - start;
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek_byte() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'%') => self.eat_while(|b| b != b'\n'),
                Some(b'/') if self.src.as_bytes().get(self.pos + 1) == Some(&b'/') => {
                    self.eat_while(|b| b != b'\n')
                }
                _ => break,
            }
        }
    }

    fn next_token(&mut self) -> Result<(Tok<'a>, usize, usize), ParseError> {
        self.skip_trivia();
        let (line, col) = (self.line, self.col);
        let Some(b) = self.peek_byte() else {
            return Ok((Tok::Eof, line, col));
        };
        let punct = match b {
            b'(' => Some(Tok::LParen),
            b')' => Some(Tok::RParen),
            b',' => Some(Tok::Comma),
            b'.' => Some(Tok::Dot),
            b'!' => Some(Tok::Bang),
            b'&' => Some(Tok::Ampersand),
            b'@' => Some(Tok::At),
            _ => None,
        };
        if let Some(tok) = punct {
            self.bump();
            return Ok((tok, line, col));
        }
        let tok = match b {
            b':' => {
                self.bump();
                if self.peek_byte() == Some(b'-') {
                    self.bump();
                    Tok::ColonDash
                } else {
                    return Err(self.error("expected `:-`"));
                }
            }
            b'-' => match self.src.as_bytes().get(self.pos + 1) {
                Some(b'>') => {
                    self.bump();
                    self.bump();
                    Tok::Arrow
                }
                Some(d) if d.is_ascii_digit() => Tok::Int(self.lex_int()?),
                _ => {
                    self.bump();
                    return Err(self.error("expected `->` or a negative integer"));
                }
            },
            d if d.is_ascii_digit() => Tok::Int(self.lex_int()?),
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                self.eat_while(|b| b.is_ascii_alphanumeric() || b == b'_');
                // ASCII bytes only, so both ends are char boundaries.
                let s = &self.src[start..self.pos];
                if c.is_ascii_uppercase() || c == b'_' {
                    Tok::UpperIdent(s)
                } else {
                    Tok::LowerIdent(s)
                }
            }
            other => {
                return Err(self.error(format!("unexpected character `{}`", other as char)));
            }
        };
        Ok((tok, line, col))
    }

    /// An integer literal. The sign is lexed with the digits, so
    /// `-9223372036854775808` (`i64::MIN`) is in range.
    fn lex_int(&mut self) -> Result<i64, ParseError> {
        let start = self.pos;
        if self.peek_byte() == Some(b'-') {
            self.bump();
        }
        self.eat_while(|b| b.is_ascii_digit());
        let text = &self.src[start..self.pos];
        text.parse::<i64>()
            .map_err(|_| self.error(format!("integer `{text}` out of range")))
    }
}

/// A recursive-descent parser with one token of lookahead, read from the
/// lexer only when the previous one is taken.
#[derive(Clone)]
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token and where it starts.
    tok: Tok<'a>,
    line: usize,
    col: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Parser<'a>, ParseError> {
        let mut lexer = Lexer::new(src);
        let (tok, line, col) = lexer.next_token()?;
        Ok(Parser {
            lexer,
            tok,
            line,
            col,
        })
    }

    fn peek(&self) -> Tok<'a> {
        self.tok
    }

    fn here(&self) -> (usize, usize) {
        (self.line, self.col)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    /// Take the current token and lex the next one (end of input repeats).
    fn bump(&mut self) -> Result<Tok<'a>, ParseError> {
        let tok = self.tok;
        (self.tok, self.line, self.col) = self.lexer.next_token()?;
        Ok(tok)
    }

    fn expect(&mut self, want: Tok<'_>) -> Result<(), ParseError> {
        if self.tok == want {
            self.bump()?;
            Ok(())
        } else {
            Err(self.error(format!("expected {want}, found {}", self.tok)))
        }
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        match self.bump()? {
            Tok::UpperIdent(name) => Ok(Term::Var(Var::new(name))),
            Tok::LowerIdent(name) => Ok(Term::Const(Const::from(name))),
            Tok::Int(i) => Ok(Term::Const(Const::Int(i))),
            other => Err(self.error(format!("expected a term, found {other}"))),
        }
    }

    fn parse_atom(&mut self) -> Result<Atom, ParseError> {
        let name = match self.bump()? {
            Tok::LowerIdent(name) => name,
            other => {
                return Err(self.error(format!(
                    "expected a predicate name (lowercase identifier), found {other}"
                )))
            }
        };
        let mut terms = Vec::new();
        if self.peek() == Tok::LParen {
            self.bump()?;
            if self.peek() != Tok::RParen {
                terms.push(self.parse_term()?);
                while self.peek() == Tok::Comma {
                    self.bump()?;
                    terms.push(self.parse_term()?);
                }
            }
            self.expect(Tok::RParen)?;
        }
        Ok(Atom::new(Pred::new(name), terms))
    }

    fn parse_literal(&mut self) -> Result<Literal, ParseError> {
        if self.peek() == Tok::Bang {
            self.bump()?;
            Ok(Literal::neg(self.parse_atom()?))
        } else {
            Ok(Literal::pos(self.parse_atom()?))
        }
    }

    /// Read a statement of the form `pred(c1, …, cn).` (or `pred.`) with
    /// constant arguments, leaving its arguments in `row` and returning the
    /// predicate. `Ok(None)` as soon as the statement turns out to be
    /// anything else; the parser is then somewhere inside it, and the caller
    /// rewinds.
    fn ground_fact(
        &mut self,
        names: &mut Names<'a>,
        row: &mut Vec<Const>,
    ) -> Result<Option<Pred>, ParseError> {
        let Tok::LowerIdent(name) = self.peek() else {
            return Ok(None);
        };
        self.bump()?;
        row.clear();
        if self.peek() == Tok::LParen {
            self.bump()?;
            if self.peek() != Tok::RParen {
                loop {
                    row.push(match self.bump()? {
                        Tok::LowerIdent(s) => Const::Sym(names.intern(s)),
                        Tok::Int(i) => Const::Int(i),
                        _ => return Ok(None),
                    });
                    match self.peek() {
                        Tok::Comma => self.bump()?,
                        Tok::RParen => break,
                        _ => return Ok(None),
                    };
                }
            }
            self.bump()?;
        }
        if self.peek() != Tok::Dot {
            return Ok(None);
        }
        self.bump()?;
        Ok(Some(Pred(names.intern(name))))
    }

    /// Parse one statement: a rule/fact (ends with `.`), a tgd, or an
    /// `@decl` schema declaration.
    fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        if self.peek() == Tok::At {
            return self.parse_decl();
        }
        let (head_line, head_col) = self.here();
        let head_span = Span::new(head_line, head_col);
        let head = self.parse_atom()?;
        match self.peek() {
            Tok::Dot => {
                self.bump()?;
                let mut rule = Rule::new(head, Vec::new());
                rule.spans = Some(RuleSpans {
                    rule: head_span,
                    head: head_span,
                    body: Vec::new(),
                });
                Ok(Statement::Rule(rule))
            }
            Tok::ColonDash => {
                self.bump()?;
                let mut body_spans = vec![{
                    let (l, c) = self.here();
                    Span::new(l, c)
                }];
                let mut body = vec![self.parse_literal()?];
                while self.peek() == Tok::Comma {
                    self.bump()?;
                    let (l, c) = self.here();
                    body_spans.push(Span::new(l, c));
                    body.push(self.parse_literal()?);
                }
                self.expect(Tok::Dot)?;
                let mut rule = Rule::new(head, body);
                rule.spans = Some(RuleSpans {
                    rule: head_span,
                    head: head_span,
                    body: body_spans,
                });
                Ok(Statement::Rule(rule))
            }
            Tok::Ampersand | Tok::Arrow => {
                let mut lhs = vec![head];
                while self.peek() == Tok::Ampersand {
                    self.bump()?;
                    lhs.push(self.parse_atom()?);
                }
                self.expect(Tok::Arrow)?;
                let mut rhs = vec![self.parse_atom()?];
                while self.peek() == Tok::Ampersand {
                    self.bump()?;
                    rhs.push(self.parse_atom()?);
                }
                self.expect(Tok::Dot)?;
                Ok(Statement::Tgd(Tgd::new(lhs, rhs)))
            }
            other => Err(self.error(format!("expected `.`, `:-`, `&`, or `->`, found {other}"))),
        }
    }

    /// `@decl pred(type, …).` with types `int`, `sym`, `any`.
    fn parse_decl(&mut self) -> Result<Statement, ParseError> {
        self.expect(Tok::At)?;
        match self.bump()? {
            Tok::LowerIdent("decl") => {}
            other => return Err(self.error(format!("expected `decl` after `@`, found {other}"))),
        }
        let name = match self.bump()? {
            Tok::LowerIdent(name) => name,
            other => return Err(self.error(format!("expected a predicate name, found {other}"))),
        };
        let mut columns = Vec::new();
        self.expect(Tok::LParen)?;
        if self.peek() != Tok::RParen {
            loop {
                match self.bump()? {
                    Tok::LowerIdent("int") => columns.push(ColType::Int),
                    Tok::LowerIdent("sym") => columns.push(ColType::Sym),
                    Tok::LowerIdent("any") => columns.push(ColType::Any),
                    other => {
                        return Err(self.error(format!(
                            "expected a column type (int, sym, any), found {other}"
                        )))
                    }
                }
                if self.peek() == Tok::Comma {
                    self.bump()?;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::Dot)?;
        Ok(Statement::Decl(Schema {
            pred: Pred::new(name),
            columns,
        }))
    }

    fn at_eof(&self) -> bool {
        self.peek() == Tok::Eof
    }
}

enum Statement {
    Rule(Rule),
    Tgd(Tgd),
    Decl(Schema),
}

/// The names one parse has interned, so that a name the input repeats
/// costs a hash probe instead of a turn at the global interner's lock. The
/// names come from outside the program, so the map keeps the default
/// (collision-resistant) hasher.
#[derive(Default)]
struct Names<'a>(HashMap<&'a str, Sym>);

impl<'a> Names<'a> {
    fn intern(&mut self, name: &'a str) -> Sym {
        *self.0.entry(name).or_insert_with(|| Sym::new(name))
    }
}

/// Parse a program: a sequence of rules and facts. Tgds are rejected here —
/// use [`parse_unit`] for mixed input.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut p = Parser::new(src)?;
    let mut rules = Vec::new();
    while !p.at_eof() {
        match p.parse_statement()? {
            Statement::Rule(r) => rules.push(r),
            Statement::Tgd(_) => {
                return Err(p.error("tgd not allowed in a program; use parse_unit"))
            }
            Statement::Decl(_) => {
                return Err(p.error("@decl not allowed in a program; use parse_unit"))
            }
        }
    }
    Ok(Program::new(rules))
}

/// Parse a single rule (or fact).
pub fn parse_rule(src: &str) -> Result<Rule, ParseError> {
    let mut p = Parser::new(src)?;
    match p.parse_statement()? {
        Statement::Rule(r) if p.at_eof() => Ok(r),
        Statement::Rule(_) => Err(p.error("trailing input after rule")),
        Statement::Tgd(_) => Err(p.error("expected a rule, found a tgd")),
        Statement::Decl(_) => Err(p.error("expected a rule, found a declaration")),
    }
}

/// Parse a single atom, e.g. `g(X, 3)`.
pub fn parse_atom(src: &str) -> Result<Atom, ParseError> {
    let mut p = Parser::new(src)?;
    let a = p.parse_atom()?;
    if !p.at_eof() {
        return Err(p.error("trailing input after atom"));
    }
    Ok(a)
}

/// Parse a single tgd, e.g. `g(X, Z) -> a(X, W).`
pub fn parse_tgd(src: &str) -> Result<Tgd, ParseError> {
    let mut p = Parser::new(src)?;
    match p.parse_statement()? {
        Statement::Tgd(t) if p.at_eof() => Ok(t),
        Statement::Tgd(_) => Err(p.error("trailing input after tgd")),
        Statement::Rule(_) => Err(p.error("expected a tgd (with `->`), found a rule")),
        Statement::Decl(_) => Err(p.error("expected a tgd, found a declaration")),
    }
}

/// Parse a set of tgds.
pub fn parse_tgds(src: &str) -> Result<Vec<Tgd>, ParseError> {
    let mut p = Parser::new(src)?;
    let mut tgds = Vec::new();
    while !p.at_eof() {
        match p.parse_statement()? {
            Statement::Tgd(t) => tgds.push(t),
            Statement::Rule(_) => return Err(p.error("expected a tgd (with `->`), found a rule")),
            Statement::Decl(_) => return Err(p.error("expected a tgd, found a declaration")),
        }
    }
    Ok(tgds)
}

/// Parse a database: ground facts only, e.g. `a(1,2). a(1,4). g(4,1).`
///
/// Each fact is read straight into a row of its relation; no atom is built.
/// A statement that is not a ground fact goes to the statement parser from
/// its first token, which says what it is instead.
pub fn parse_database(src: &str) -> Result<Database, ParseError> {
    let mut p = Parser::new(src)?;
    let mut db = Database::new();
    let mut names = Names::default();
    let mut row = Vec::new();
    while !p.at_eof() {
        let start = p.clone();
        if let Some(pred) = p.ground_fact(&mut names, &mut row)? {
            db.insert_row(pred, &row);
            continue;
        }
        // `ground_fact` reads every ground fact the statement parser would,
        // so what is left is a syntax error or a statement of another kind.
        p = start;
        let (line, col) = p.here();
        let found = match p.parse_statement()? {
            Statement::Rule(r) if r.body.is_empty() => format!("fact `{}` is not ground", r.head),
            Statement::Rule(_) => "expected a ground fact, found a rule with a body".into(),
            Statement::Tgd(_) => "expected a ground fact, found a tgd".into(),
            Statement::Decl(_) => "expected a ground fact, found a declaration".into(),
        };
        return Err(ParseError {
            line,
            col,
            message: found,
        });
    }
    Ok(db)
}

/// A parsed source unit: rules, ground facts, tgds, and schema
/// declarations in any order.
#[derive(Clone, Debug, Default)]
pub struct Unit {
    pub program: Program,
    pub facts: Vec<GroundAtom>,
    pub tgds: Vec<Tgd>,
    pub schemas: SchemaSet,
}

impl Unit {
    /// Validate the unit's program and facts against its declarations.
    pub fn check_schemas(&self) -> Result<(), Vec<crate::schema::SchemaError>> {
        self.schemas.check_program(&self.program)?;
        let db = crate::database::Database::from_atoms(self.facts.iter().cloned());
        self.schemas.check_database(&db)
    }
}

/// Parse a mixed unit: rules with bodies become the program, ground
/// bodiless heads become facts, tgds collect separately.
pub fn parse_unit(src: &str) -> Result<Unit, ParseError> {
    let mut p = Parser::new(src)?;
    let mut unit = Unit::default();
    while !p.at_eof() {
        match p.parse_statement()? {
            Statement::Rule(r) => {
                if r.body.is_empty() {
                    match r.head.to_ground() {
                        Some(g) => unit.facts.push(g),
                        None => unit.program.rules.push(r),
                    }
                } else {
                    unit.program.rules.push(r);
                }
            }
            Statement::Tgd(t) => unit.tgds.push(t),
            Statement::Decl(schema) => {
                if let Err(e) = unit.schemas.declare(schema) {
                    let (line, col) = p.here();
                    return Err(ParseError {
                        line,
                        col,
                        message: e.to_string(),
                    });
                }
            }
        }
    }
    Ok(unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_example1_program() {
        let p = parse_program(
            "g(X, Z) :- a(X, Z).\n\
             g(X, Z) :- g(X, Y), g(Y, Z).",
        )
        .unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.rules[0].to_string(), "g(X, Z) :- a(X, Z).");
        assert_eq!(p.rules[1].to_string(), "g(X, Z) :- g(X, Y), g(Y, Z).");
    }

    #[test]
    fn parse_facts_and_constants() {
        let db = parse_database("a(1, 2). a(1, 4). a(4, 1). person(john).").unwrap();
        assert_eq!(db.len(), 4);
        assert!(db.contains_tuple(Pred::new("person"), &[Const::from("john")]));
    }

    #[test]
    fn parse_negative_integers() {
        let a = parse_atom("p(-5, 3)").unwrap();
        assert_eq!(a.terms[0], Term::int(-5));
    }

    /// The sign is part of the literal: `i64::MIN` has no positive twin to
    /// negate, and a fixpoint that holds it must read back.
    #[test]
    fn parse_i64_extremes() {
        let a = parse_atom("p(-9223372036854775808, 9223372036854775807)").unwrap();
        assert_eq!(a.terms, [Term::int(i64::MIN), Term::int(i64::MAX)]);
        let db = parse_database("p(-9223372036854775808).").unwrap();
        assert!(db.contains_tuple(Pred::new("p"), &[Const::Int(i64::MIN)]));
        let err = parse_atom("p(-9223372036854775809)").unwrap_err();
        assert_eq!(err.message, "integer `-9223372036854775809` out of range");
    }

    #[test]
    fn parse_zero_arity() {
        let p = parse_program("ok :- check(X). check(1).").unwrap();
        assert_eq!(p.rules[0].head.arity(), 0);
        let q = parse_program("win() :- move(X).").unwrap();
        assert_eq!(q.rules[0].head.arity(), 0);
    }

    #[test]
    fn parse_negated_literal() {
        let r = parse_rule("p(X) :- q(X), !r(X).").unwrap();
        assert!(!r.is_positive());
        assert_eq!(r.to_string(), "p(X) :- q(X), !r(X).");
    }

    #[test]
    fn parse_tgd_example11() {
        let t = parse_tgd("g(X, Z) -> a(X, W).").unwrap();
        assert!(!t.is_full());
        assert_eq!(t.to_string(), "g(X, Z) -> a(X, W).");
    }

    #[test]
    fn parse_tgd_multi_atom() {
        // Example 15: G(x,y) ∧ G(y,z) → A(y,w)
        let t = parse_tgd("g(X, Y) & g(Y, Z) -> a(Y, W).").unwrap();
        assert_eq!(t.lhs.len(), 2);
        assert_eq!(t.rhs.len(), 1);
        assert_eq!(t.existential_vars().len(), 1);
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse_program(
            "% transitive closure\n\
             g(X, Z) :- a(X, Z). // base\n\
             g(X, Z) :- g(X, Y), g(Y, Z). % step",
        )
        .unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_program("g(X Z) :- a(X, Z).").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("expected"), "{}", err.message);

        let err = parse_program("g(X, Z) :-\n a(X, Z)").unwrap_err();
        assert_eq!(err.line, 2, "missing dot reported on line 2: {err}");
    }

    #[test]
    fn error_on_uppercase_predicate() {
        let err = parse_program("G(X) :- a(X).").unwrap_err();
        assert!(err.message.contains("predicate"), "{}", err.message);
    }

    #[test]
    fn error_on_nonground_fact_in_database() {
        let err = parse_database("a(X, 2).").unwrap_err();
        assert!(err.message.contains("not ground"), "{}", err.message);
    }

    #[test]
    fn error_on_tgd_in_program() {
        let err = parse_program("g(X) -> a(X).").unwrap_err();
        assert!(err.message.contains("tgd"), "{}", err.message);
    }

    #[test]
    fn parse_unit_mixes_everything() {
        let u = parse_unit(
            "g(X, Z) :- a(X, Z).\n\
             a(1, 2).\n\
             g(X, Z) -> a(X, W).",
        )
        .unwrap();
        assert_eq!(u.program.len(), 1);
        assert_eq!(u.facts.len(), 1);
        assert_eq!(u.tgds.len(), 1);
    }

    #[test]
    fn round_trip_program_display_parse() {
        let src = "g(X, Z) :- a(X, Z).\ng(X, Z) :- g(X, Y), g(Y, Z), a(Y, W).\n";
        let p = parse_program(src).unwrap();
        let printed = p.to_string();
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(p, reparsed);
    }

    #[test]
    fn int_overflow_is_an_error() {
        let err = parse_atom("p(99999999999999999999999)").unwrap_err();
        assert!(err.message.contains("out of range"), "{}", err.message);
    }

    #[test]
    fn underscore_variables() {
        let r = parse_rule("p(X) :- q(X, _y).").unwrap();
        assert_eq!(r.body[0].atom.terms[1], Term::var("_y"));
    }
}

#[cfg(test)]
mod decl_tests {
    use super::*;
    use crate::schema::ColType;

    #[test]
    fn parse_decl_in_unit() {
        let u = parse_unit(
            "@decl edge(int, int).
             @decl person(sym).
             @decl flag().
             path(X, Y) :- edge(X, Y).
             edge(1, 2).",
        )
        .unwrap();
        assert_eq!(u.schemas.len(), 3);
        let edge = u.schemas.get(Pred::new("edge")).unwrap();
        assert_eq!(edge.columns, vec![ColType::Int, ColType::Int]);
        assert_eq!(u.schemas.get(Pred::new("flag")).unwrap().arity(), 0);
        assert!(u.check_schemas().is_ok());
    }

    #[test]
    fn schema_violation_detected_via_unit() {
        let u = parse_unit(
            "@decl edge(int, int).
             path(X) :- edge(X).",
        )
        .unwrap();
        assert!(u.check_schemas().is_err());

        let u2 = parse_unit(
            "@decl person(sym).
             person(42).",
        )
        .unwrap();
        assert!(u2.check_schemas().is_err());
    }

    #[test]
    fn conflicting_decls_rejected_at_parse_time() {
        let err = parse_unit(
            "@decl edge(int, int).
             @decl edge(sym, sym).",
        )
        .unwrap_err();
        assert!(err.message.contains("declared twice"), "{err}");
    }

    #[test]
    fn decl_rejected_outside_units() {
        assert!(parse_program("@decl edge(int, int).").is_err());
        assert!(parse_database("@decl edge(int, int).").is_err());
        assert!(parse_tgds("@decl edge(int, int).").is_err());
    }

    #[test]
    fn bad_decl_syntax() {
        let err = parse_unit("@decl edge(float).").unwrap_err();
        assert!(err.message.contains("column type"), "{err}");
        let err = parse_unit("@foo edge(int).").unwrap_err();
        assert!(err.message.contains("expected `decl`"), "{err}");
    }
}
