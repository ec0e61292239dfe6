//! Global string interner and typed symbol identifiers.
//!
//! Predicates, variables, and named constants are all interned into `u32`
//! identifiers so that atoms and rules are small, hashable, and cheap to
//! compare. Interning is global (process-wide): the same name always maps to
//! the same id, which guarantees that two independently-parsed programs agree
//! on predicate identities — a prerequisite for the containment tests of
//! Sagiv's algorithms, which compare programs over a common vocabulary.
//!
//! The interner is append-only and guarded by an `RwLock`; interning happens
//! at parse/construction time, never in evaluation hot loops.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string. The `u32` payload indexes the global interner.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

struct Interner {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            names: Vec::new(),
            ids: HashMap::new(),
        }
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(Interner::new()))
}

impl Sym {
    /// Intern `name`, returning its stable symbol id.
    pub fn new(name: &str) -> Sym {
        // Fast path: read lock only.
        {
            let guard = interner().read().expect("interner lock poisoned");
            if let Some(&id) = guard.ids.get(name) {
                return Sym(id);
            }
        }
        let mut guard = interner().write().expect("interner lock poisoned");
        Sym(guard.intern(name))
    }

    /// The interned string for this symbol, as an owned copy. Prefer
    /// [`Sym::with_str`] in hot paths — this clones on every call.
    pub fn as_str(&self) -> String {
        self.with_str(str::to_owned)
    }

    /// Run `f` on the interned string without cloning it. The read lock is
    /// held while `f` runs, so `f` must not intern new symbols (interning
    /// takes the write lock and would deadlock); keep `f` small.
    pub fn with_str<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        let guard = interner().read().expect("interner lock poisoned");
        f(&guard.names[self.0 as usize])
    }

    /// Raw id; stable within a process run.
    pub fn id(&self) -> u32 {
        self.0
    }
}

/// Symbol names read under one interner read lock (see [`with_names`]).
pub(crate) struct Names<'a>(&'a Interner);

impl Names<'_> {
    pub(crate) fn get(&self, s: Sym) -> &str {
        &self.0.names[s.0 as usize]
    }
}

/// Run `f` with every symbol's name readable under one read lock: what a
/// loop of [`Sym::with_str`] calls reads, for one lock instead of one per
/// call. As there, `f` must not intern new symbols.
pub(crate) fn with_names<R>(f: impl FnOnce(&Names<'_>) -> R) -> R {
    let guard = interner().read().expect("interner lock poisoned");
    f(&Names(&guard))
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_str(|s| write!(f, "Sym({s:?})"))
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_str(|s| f.write_str(s))
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

/// A predicate symbol (relation name). Arity is carried by atoms, not here;
/// [`crate::validate::validate`] checks arity consistency across a program.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred(pub Sym);

impl Pred {
    pub fn new(name: &str) -> Pred {
        Pred(Sym::new(name))
    }

    /// Owned copy of the predicate name. Prefer [`Pred::with_name`] in hot
    /// display/lint paths.
    pub fn name(&self) -> String {
        self.0.as_str()
    }

    /// Run `f` on the predicate name without cloning it.
    pub fn with_name<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        self.0.with_str(f)
    }
}

impl fmt::Debug for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.with_str(|s| write!(f, "Pred({s:?})"))
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Pred {
    fn from(s: &str) -> Pred {
        Pred::new(s)
    }
}

/// A variable symbol.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub Sym);

impl Var {
    pub fn new(name: &str) -> Var {
        Var(Sym::new(name))
    }

    /// Owned copy of the variable name. Prefer [`Var::with_name`] in hot
    /// display paths.
    pub fn name(&self) -> String {
        self.0.as_str()
    }

    /// Run `f` on the variable name without cloning it.
    pub fn with_name<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        self.0.with_str(f)
    }

    /// A variable guaranteed distinct from any source-level variable:
    /// source variables never contain `'$'`.
    pub fn fresh(tag: &str, n: usize) -> Var {
        Var(Sym::new(&format!("{tag}${n}")))
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.with_str(|s| write!(f, "Var({s:?})"))
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Var {
        Var::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::new("edge");
        let b = Sym::new("edge");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "edge");
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let a = Sym::new("alpha-test-unique-1");
        let b = Sym::new("alpha-test-unique-2");
        assert_ne!(a, b);
    }

    #[test]
    fn preds_and_vars_compare_by_name() {
        assert_eq!(Pred::new("g"), Pred::new("g"));
        assert_ne!(Pred::new("g"), Pred::new("a"));
        assert_eq!(Var::new("X"), Var::new("X"));
        assert_ne!(Var::new("X"), Var::new("Y"));
    }

    #[test]
    fn fresh_vars_cannot_collide_with_source_vars() {
        let f = Var::fresh("x", 0);
        assert!(f.name().contains('$'));
        assert_ne!(f, Var::new("x0"));
    }

    #[test]
    fn display_round_trip() {
        let p = Pred::new("ancestor");
        assert_eq!(p.to_string(), "ancestor");
        let v = Var::new("Who");
        assert_eq!(v.to_string(), "Who");
    }

    #[test]
    fn interning_is_thread_safe() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut syms = Vec::new();
                    for j in 0..100 {
                        syms.push(Sym::new(&format!("t{}", (i * 7 + j) % 50)));
                    }
                    syms
                })
            })
            .collect();
        let all: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Same name interned on different threads yields the same id.
        for row in &all {
            for s in row {
                assert_eq!(*s, Sym::new(&s.as_str()));
            }
        }
    }
}
