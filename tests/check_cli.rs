//! Golden-file tests for `collopt check --json` registry output, and the
//! usage errors `collopt` gives for malformed flags.
//!
//! The registry report is the verifier's public interface: it names every
//! shipped lowering with its measured and promised round counts, message
//! count and total words at one `(p, m)` point. These tests run the real
//! binary and pin its stdout byte-for-byte, so any change in how a
//! schedule is obtained must reproduce every figure exactly — including
//! the `words=` totals of asymmetric exchanges. The `m = 10^12` point
//! also guards against an extraction path whose cost grows with `m`.
//!
//! Regenerate a golden with e.g. `collopt check --json --p 16 --m 97 >
//! tests/golden/check_registry_p16_m97.json` after checking the new
//! output by eye.

use std::process::{Command, Output};

fn collopt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_collopt"))
        .args(args)
        .output()
        .expect("spawn collopt")
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden file {path}: {e}"))
}

fn assert_registry_pinned(p: &str, m: &str) {
    let out = collopt(&["check", "--json", "--p", p, "--m", m]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert_eq!(stdout, golden(&format!("check_registry_p{p}_m{m}.json")));
}

#[test]
fn registry_report_single_rank_is_pinned() {
    assert_registry_pinned("1", "4");
}

#[test]
fn registry_report_power_of_two_is_pinned() {
    assert_registry_pinned("16", "97");
}

#[test]
fn registry_report_non_power_of_two_is_pinned() {
    assert_registry_pinned("48", "97");
}

#[test]
fn registry_report_huge_block_is_pinned() {
    assert_registry_pinned("13", "1000000000000");
}

#[test]
fn malformed_flags_are_usage_errors() {
    for args in [
        ["check", "--p", "abc"],
        ["check", "--p", "0"],
        ["check", "--m", "nan"],
        ["check", "--m", "-5"],
        ["check", "--m", "1e30"],
        ["lint", "--p", "0"],
        ["saturate", "--p", "0"],
    ] {
        let out = collopt(&[args[0], "scan(add)", args[1], args[2]]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(args[1]), "{args:?}: {stderr}");
    }
}
