//! Operators without a built-in id never touch the law-verdict memo.
//!
//! A test binary of its own: the memo is process-wide, so the entry
//! counts asserted here are only meaningful with no other test linting
//! concurrently.

use collopt_analysis::{law_memo_len, lint_program, LintConfig};
use collopt_analysis::{Domain, Severity};
use collopt_core::op::{lib, BinOp};
use collopt_core::term::Program;
use collopt_core::value::Value;

#[test]
fn user_operators_neither_read_nor_write_the_memo() {
    let cfg = LintConfig {
        fallback_domain: Some(Domain::Int),
        ..LintConfig::default()
    };
    // Built-in names, user-built functions: no built-in id.
    let lying_add = BinOp::new("add", |a, b| Value::Int(a.as_int() - b.as_int())).commutative();
    let honest_max = BinOp::new("max", |a, b| Value::Int(a.as_int().max(b.as_int()))).commutative();
    let user = Program::new()
        .scan(lying_add.clone())
        .reduce(lying_add)
        .allreduce(honest_max);

    assert_eq!(law_memo_len(), 0);
    let cold = lint_program(&user, None, &cfg);
    assert_eq!(law_memo_len(), 0, "a user operator wrote the memo");
    assert!(cold
        .diagnostics
        .iter()
        .any(|d| d.code == "COL002" && d.severity == Severity::Error));

    // Warm the memo with the real built-ins of the same names.
    let builtin = Program::new()
        .scan(lib::add())
        .reduce(lib::add())
        .allreduce(lib::max());
    lint_program(&builtin, None, &cfg);
    let warm_entries = law_memo_len();
    assert!(warm_entries > 0);

    let warm = lint_program(&user, None, &cfg);
    assert_eq!(
        law_memo_len(),
        warm_entries,
        "a user operator wrote the memo"
    );
    assert_eq!(warm.render_json(), cold.render_json());
}
