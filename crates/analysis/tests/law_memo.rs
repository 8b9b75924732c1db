//! The process-wide law-verdict memo behind `law_counterexample`.
//!
//! Verdicts about built-in operators are computed once per process and
//! shared by the operator audit and lint's fusion gate. These tests pin
//! the three properties that make that safe:
//!
//! * **soundness** — an operator without a built-in id never reads the
//!   memo, even when it borrows a built-in's name;
//! * **determinism** — lint output is byte-identical whether the memo is
//!   cold, warm, or filled concurrently from several threads;
//! * **boundedness** — the memo never holds more than `LAW_MEMO_CAP`
//!   verdicts.

use std::path::{Path, PathBuf};

use collopt_analysis::{
    builtin_table, law_counterexample, law_memo_len, lint_program, lint_source, AuditConfig,
    Domain, LintConfig, LAW_MEMO_CAP,
};
use collopt_core::op::{lib, BinOp, RequiredLaw};
use collopt_core::term::Program;
use collopt_core::value::Value;

/// Subtraction under the name `add`, falsely declared commutative.
fn lying_add() -> BinOp {
    BinOp::new("add", |a, b| Value::Int(a.as_int() - b.as_int())).commutative()
}

#[test]
fn lying_add_is_caught_after_the_memo_knows_add() {
    // Warm: the real `add` verifies associative and commutative.
    let warm = lint_source("scan(add) ; reduce(add)", &LintConfig::default()).unwrap();
    assert_eq!(warm.errors(), 0, "{:#?}", warm.diagnostics);
    assert!(warm.diagnostics.iter().any(|d| d.code == "COL001"));
    assert!(law_memo_len() > 0);

    let cfg = LintConfig {
        fallback_domain: Some(Domain::Int),
        ..LintConfig::default()
    };
    let prog = Program::new().scan(lying_add()).reduce(lying_add());
    let report = lint_program(&prog, None, &cfg);
    let col002: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == "COL002")
        .collect();
    assert!(!col002.is_empty(), "{:#?}", report.diagnostics);
    assert!(
        col002.iter().any(|d| d.message.contains("of add")),
        "{col002:#?}"
    );
    assert!(
        report.diagnostics.iter().all(|d| d.code != "COL001"),
        "a fusion was suggested on the strength of the lie: {:#?}",
        report.diagnostics
    );
}

#[test]
fn memoized_verdicts_match_fresh_searches() {
    let cfg = AuditConfig::default();
    for (op, domain) in builtin_table() {
        let fresh = |law: &RequiredLaw| {
            let rtol = if domain == Domain::Float {
                cfg.tolerance
            } else {
                0.0
            };
            let samples = collopt_analysis::samples_for_domain(domain, &cfg);
            law.counterexample_with(&samples, rtol)
                .map(|c| c.to_string())
        };
        for law in [
            RequiredLaw::Associative(op.clone()),
            RequiredLaw::Commutative(op.clone()),
            RequiredLaw::DistributesOver(op.clone(), op.clone()),
        ] {
            // Twice: the first call may fill the memo, the second reads it.
            for _ in 0..2 {
                let memo = law_counterexample(&law, domain, &cfg).map(|c| c.to_string());
                assert_eq!(memo, fresh(&law), "{}", law.describe());
            }
        }
    }
}

fn pipeline_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read corpus dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            pipeline_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "pipeline") {
            out.push(path);
        }
    }
}

fn lint_corpus(files: &[(PathBuf, String)]) -> Vec<String> {
    files
        .iter()
        .map(|(path, src)| {
            lint_source(src, &LintConfig::default())
                .unwrap_or_else(|e| panic!("{}: {}", path.display(), e.render(src)))
                .render_json()
        })
        .collect()
}

#[test]
fn corpus_lint_is_identical_cold_warm_and_concurrent() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/pipelines");
    let mut paths = Vec::new();
    pipeline_files(&root, &mut paths);
    paths.sort();
    assert!(paths.len() >= 10, "corpus shrank: {paths:?}");
    let files: Vec<(PathBuf, String)> = paths
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("read pipeline");
            (p, src.trim().to_string())
        })
        .collect();

    let first = lint_corpus(&files);
    let second = lint_corpus(&files);
    assert_eq!(first, second);

    let concurrent: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|_| s.spawn(|| lint_corpus(&files))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for run in concurrent {
        assert_eq!(run, first);
    }
}

#[test]
fn memo_stays_bounded_past_its_cap() {
    // Every seed is a distinct key; a quarter more than the cap forces
    // at least one clear.
    let law = RequiredLaw::Associative(lib::add());
    for seed in 0..(LAW_MEMO_CAP + LAW_MEMO_CAP / 4) as u64 {
        let cfg = AuditConfig {
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            random_trials: 0,
            ..AuditConfig::default()
        };
        assert!(law_counterexample(&law, Domain::Int, &cfg).is_none());
        assert!(law_memo_len() <= LAW_MEMO_CAP);
    }
}
