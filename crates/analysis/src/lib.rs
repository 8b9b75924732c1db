#![forbid(unsafe_code)]
//! # collopt-analysis — static soundness analysis for collective pipelines
//!
//! The rewrite engine of [`collopt_core`] applies the paper's eleven
//! fusion rules on the strength of *declared* operator properties
//! (associativity, commutativity, distributivity). Declarations can lie
//! in both directions: an **over-claim** makes the engine apply a wrong
//! rule (silent wrong answers), an **under-claim** makes it skip a legal
//! fusion (silent slow answers). This crate is the correctness tooling
//! around that trust boundary — three passes, no external dependencies:
//!
//! * [`audit`] — verify every declared property by exhaustive
//!   small-domain enumeration plus seeded randomized search, shrinking
//!   counterexamples to minimal witnesses; float operators are classified
//!   tolerance-approximate rather than exact.
//! * [`certify`] — re-validate the precondition [`Certificate`]s the
//!   engine attaches to every applied rewrite, structurally (does the
//!   certificate carry the law kinds the rule demands?) and semantically
//!   (do the laws actually hold?).
//! * [`lint`] — analyze whole pipelines for missed fusions, unsound
//!   declarations, cost regressions, redundant collectives, distribution
//!   mismatches and divisibility hazards, emitting structured
//!   diagnostics (`COL001`..`COL012`) with byte spans, a human caret
//!   renderer, and byte-stable JSON. Surfaced on the command line as
//!   `collopt lint`.
//! * [`distflow`] — the distribution-state abstract interpreter behind
//!   `COL007`/`COL011`, over the lattice of [`collopt_core::dist`].
//! * [`schedule`] — the static communication-schedule verifier behind
//!   `collopt check`: per-rank schedules, read off traced runs by
//!   `collopt_collectives::schedule`, are abstractly executed to prove
//!   deadlock-freedom (`COL008`), message-match completeness (`COL009`)
//!   and round optimality against the cost model's closed forms and the
//!   `⌈log₂ p⌉` influence bounds (`COL010`).
//!
//! [`Certificate`]: collopt_core::rewrite::Certificate

pub mod audit;
pub mod certify;
pub mod distflow;
pub mod lint;
pub mod schedule;

pub use audit::{
    audit_builtin_table, audit_operator, builtin_table, domain_of_builtin, law_counterexample,
    law_memo_len, samples_for_domain, AuditConfig, Domain, Exactness, OpAudit, OverClaim,
    UnderClaim, LAW_MEMO_CAP,
};
pub use certify::{required_kinds, validate_result, validate_step, CertificateIssue};
pub use distflow::{dist_trace, distflow_pass};
pub use lint::{lint_program, lint_source, Diagnostic, LintConfig, LintReport, Severity};
pub use schedule::{
    render_reports_human, render_reports_json, verify_planted, verify_registry, verify_schedule,
    verify_variant, ScheduleReport,
};
