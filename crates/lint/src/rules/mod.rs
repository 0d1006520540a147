//! The rule catalog.
//!
//! Every rule targets one repo-wide invariant that earlier PRs enforce only
//! at runtime (or by reviewer vigilance); see `docs/LINTING.md` for the
//! prose catalog. Per-file rules receive the shared
//! [`SourceFile`](crate::source::SourceFile) model; `domain-drift` runs once
//! per scan over the configured workspace files.

pub mod determinism;
pub mod domain_drift;
pub mod exit_code;
pub mod no_alloc;
pub mod unsafe_audit;

/// Rule ids accepted by `allow(...)` suppressions, in catalog order. The
/// meta rule `suppression` is deliberately absent: findings about the
/// suppression mechanism cannot themselves be suppressed.
pub const RULES: [&str; 5] = [
    no_alloc::RULE,
    determinism::RULE,
    unsafe_audit::RULE,
    domain_drift::RULE,
    exit_code::RULE,
];

/// Whether `name` is a suppressible rule id.
pub fn is_known_rule(name: &str) -> bool {
    RULES.contains(&name)
}
