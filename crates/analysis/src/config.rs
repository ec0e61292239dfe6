//! Per-run lint configuration: enable/disable, deny, and the fuel budget
//! for semantic (saturation-based) checks.

use std::collections::BTreeSet;

/// Configuration for one lint run.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Lint codes to skip entirely (e.g. `"L203"`).
    pub disabled: BTreeSet<String>,
    /// Lint codes promoted to [`crate::Severity::Error`], making the CLI
    /// exit non-zero (`--deny`).
    pub deny: BTreeSet<String>,
    /// Budget for semantic lints, in §VI freeze+saturate tests. Each
    /// uniform-containment test costs one unit; structural lints are free.
    /// Below Σ body widths + rules, `L201`/`L202` are skipped whole.
    pub fuel: u64,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        LintConfig {
            disabled: BTreeSet::new(),
            deny: BTreeSet::new(),
            fuel: 10_000,
        }
    }
}

impl LintConfig {
    /// Disable a lint by code.
    pub fn disable(mut self, code: impl Into<String>) -> LintConfig {
        self.disabled.insert(code.into());
        self
    }

    /// Deny a lint by code (promote to error). `--deny all` denies every
    /// code.
    pub fn deny(mut self, code: impl Into<String>) -> LintConfig {
        self.deny.insert(code.into());
        self
    }

    /// Set the semantic-lint fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> LintConfig {
        self.fuel = fuel;
        self
    }

    pub fn is_denied(&self, code: &str) -> bool {
        self.deny.contains(code) || self.deny.contains("all")
    }
}
