//! Static communication-schedule verification.
//!
//! Input: a per-rank [`Schedule`] that `collopt_collectives::schedule`
//! reads off a traced run of the lowering — no payloads, just who sends
//! what to whom in which order. The verifier executes the schedule
//! *abstractly* over the machine's channel semantics (directed per-pair
//! FIFOs, non-blocking sends, blocking receives, full-machine clock
//! barriers) and proves, from the schedule alone:
//!
//! * **deadlock-freedom** — the abstract execution drains every rank to
//!   completion; a stall is diagnosed as a wait-for cycle or a barrier
//!   inconsistency (`COL008`);
//! * **match completeness** — every message sent is consumed exactly
//!   once and every receive has a live sender; orphan receives and
//!   unconsumed messages are `COL009`;
//! * **round optimality** — the measured critical-path round count must
//!   not exceed the closed form the cost model promises (an error-level
//!   `COL010`: the cost tables are lying about this lowering), and a
//!   lowering whose critical path exceeds the `⌈log₂ p⌉` influence lower
//!   bound (Träff, arXiv 2410.14234) gets a note-level `COL010` — legal,
//!   but provably suboptimal in start-ups.
//!
//! Rounds are counted on the store-and-forward critical path: a send
//! extends its rank's path by one round and stamps the message; a
//! receive joins the sender's stamped path (`max(own + 1, stamp)`); the
//! receive half of an exchange completes in the send's round
//! (`max(own, stamp)` after the push), which is what makes a butterfly
//! exchange cost one round where a send + receive pair costs two.

use std::collections::{HashMap, VecDeque};

use collopt_collectives::schedule::{
    planted_variants, shipped_variants, CollectiveKind, SchedOp, Schedule, Variant,
};
use collopt_cost::bounds::{min_rounds, BoundKind};
use collopt_machine::Json;

use crate::lint::{Diagnostic, Severity};

/// Map the registry's collective family onto the lower-bound table's.
/// (The two enums are deliberately distinct so `collopt-cost` stays
/// dependency-free.)
pub fn bound_kind(kind: CollectiveKind) -> BoundKind {
    match kind {
        CollectiveKind::Bcast => BoundKind::Bcast,
        CollectiveKind::Reduce => BoundKind::Reduce,
        CollectiveKind::AllReduce => BoundKind::AllReduce,
        CollectiveKind::Scan => BoundKind::Scan,
        CollectiveKind::ExScan => BoundKind::ExScan,
        CollectiveKind::Gather => BoundKind::Gather,
        CollectiveKind::Scatter => BoundKind::Scatter,
        CollectiveKind::AllGather => BoundKind::AllGather,
        CollectiveKind::ReduceScatter => BoundKind::ReduceScatter,
        CollectiveKind::AllToAll => BoundKind::AllToAll,
        CollectiveKind::Barrier => BoundKind::Barrier,
        CollectiveKind::Comcast => BoundKind::Comcast,
    }
}

/// The verifier's verdict on one lowering at one `(p, m)` point.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// Lowering name (from the registry).
    pub variant: &'static str,
    /// Machine size verified at.
    pub p: usize,
    /// Block size verified at.
    pub m: u64,
    /// Measured critical-path rounds (0 when the schedule stalls).
    pub rounds: u64,
    /// The closed-form round count the cost model promises.
    pub expected_rounds: u64,
    /// The `⌈log₂ p⌉` influence lower bound for this collective family.
    pub lower_bound: u64,
    /// Point-to-point messages in the schedule.
    pub messages: u64,
    /// Total words on the wire.
    pub words: u64,
    /// Findings; empty means a fully clean verification.
    pub diagnostics: Vec<Diagnostic>,
}

impl ScheduleReport {
    /// Did the schedule verify (no error-severity findings)? Notes —
    /// including the suboptimality note `COL010` — never fail a variant.
    pub fn ok(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error)
    }
}

/// One rank-level micro-op after desugaring exchanges into their
/// send + receive halves on the same directed channels.
#[derive(Debug, Clone, Copy)]
enum Micro {
    Send {
        to: usize,
        words: u64,
    },
    /// `exchange_half` marks the receive that completes an exchange:
    /// its round joins the send's instead of opening a new one.
    Recv {
        from: usize,
        exchange_half: bool,
    },
    Barrier,
}

fn desugar(ops: &[SchedOp]) -> Vec<Micro> {
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        match *op {
            SchedOp::Send { to, words } => out.push(Micro::Send { to, words }),
            SchedOp::Recv { from } => out.push(Micro::Recv {
                from,
                exchange_half: false,
            }),
            SchedOp::Exchange { peer, words } => {
                out.push(Micro::Send { to: peer, words });
                out.push(Micro::Recv {
                    from: peer,
                    exchange_half: true,
                });
            }
            SchedOp::Barrier => out.push(Micro::Barrier),
        }
    }
    out
}

fn diag(code: &'static str, severity: Severity, message: String) -> Diagnostic {
    Diagnostic {
        code,
        severity,
        message,
        stage: 0,
        len: 1,
        span: None,
        suggestion: None,
    }
}

/// Abstractly execute `sched` and verify it; `name` labels diagnostics,
/// `kind` selects the lower bound, `expected_rounds` is the cost model's
/// promise.
pub fn verify_schedule(
    name: &'static str,
    kind: CollectiveKind,
    sched: &Schedule,
    expected_rounds: u64,
    m: u64,
) -> ScheduleReport {
    let p = sched.p;
    let progs: Vec<Vec<Micro>> = sched.ranks.iter().map(|ops| desugar(ops)).collect();
    let mut pc = vec![0usize; p];
    let mut depth = vec![0u64; p];
    // Directed per-(from, to) FIFO of (words, sender round stamp).
    let mut channels: HashMap<(usize, usize), VecDeque<(u64, u64)>> = HashMap::new();
    let mut diagnostics = Vec::new();

    let finished = |pc: &[usize], rank: usize| pc[rank] >= progs[rank].len();
    loop {
        let mut progressed = false;
        for rank in 0..p {
            while pc[rank] < progs[rank].len() {
                match progs[rank][pc[rank]] {
                    Micro::Send { to, words } => {
                        depth[rank] += 1;
                        channels
                            .entry((rank, to))
                            .or_default()
                            .push_back((words, depth[rank]));
                        pc[rank] += 1;
                        progressed = true;
                    }
                    Micro::Recv {
                        from,
                        exchange_half,
                    } => {
                        let Some((_, stamp)) =
                            channels.get_mut(&(from, rank)).and_then(|q| q.pop_front())
                        else {
                            break;
                        };
                        depth[rank] = if exchange_half {
                            depth[rank].max(stamp)
                        } else {
                            (depth[rank] + 1).max(stamp)
                        };
                        pc[rank] += 1;
                        progressed = true;
                    }
                    Micro::Barrier => break,
                }
            }
        }
        // The clock barrier completes only when *every* rank is at one.
        let at_barrier =
            |pc: &[usize], rank: usize| matches!(progs[rank].get(pc[rank]), Some(Micro::Barrier));
        if p > 0 && (0..p).all(|r| at_barrier(&pc, r)) {
            let sync = depth.iter().copied().max().unwrap_or(0);
            for rank in 0..p {
                depth[rank] = sync;
                pc[rank] += 1;
            }
            progressed = true;
        }
        if (0..p).all(|r| finished(&pc, r)) {
            break;
        }
        if progressed {
            continue;
        }
        // Stall: classify.
        let waiting_at_barrier: Vec<usize> = (0..p).filter(|&r| at_barrier(&pc, r)).collect();
        if !waiting_at_barrier.is_empty() {
            let absent: Vec<usize> = (0..p).filter(|&r| !at_barrier(&pc, r)).collect();
            diagnostics.push(diag(
                "COL008",
                Severity::Error,
                format!(
                    "{name}: barrier inconsistency — ranks {waiting_at_barrier:?} wait at a \
                     clock barrier that ranks {absent:?} never reach"
                ),
            ));
            return finish(name, sched, m, kind, expected_rounds, 0, diagnostics);
        }
        // Every stuck rank sits at a plain receive. If its source has
        // terminated, the receive is an orphan; otherwise every stuck
        // rank waits on another stuck rank and the wait-for graph has a
        // cycle.
        let mut waits_on: HashMap<usize, usize> = HashMap::new();
        for rank in 0..p {
            if finished(&pc, rank) {
                continue;
            }
            if let Micro::Recv { from, .. } = progs[rank][pc[rank]] {
                if finished(&pc, from) {
                    diagnostics.push(diag(
                        "COL009",
                        Severity::Error,
                        format!(
                            "{name}: orphan receive — rank {rank} waits for a message from \
                             rank {from}, which terminated without sending one"
                        ),
                    ));
                } else {
                    waits_on.insert(rank, from);
                }
            }
        }
        if diagnostics.is_empty() {
            // All waits point at blocked ranks: follow the edges from the
            // lowest blocked rank until a rank repeats — that loop is the
            // deadlock cycle.
            let start = *waits_on.keys().min().expect("a stall blocks some rank");
            let mut seen = Vec::new();
            let mut cur = start;
            while !seen.contains(&cur) {
                seen.push(cur);
                cur = waits_on[&cur];
            }
            let cycle_start = seen.iter().position(|&r| r == cur).unwrap();
            let mut cycle: Vec<usize> = seen[cycle_start..].to_vec();
            cycle.push(cur);
            let cycle_str = cycle
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(" -> ");
            diagnostics.push(diag(
                "COL008",
                Severity::Error,
                format!(
                    "{name}: deadlock — wait-for cycle {cycle_str}: every rank in the cycle \
                     blocks on a receive its predecessor can only satisfy after its own \
                     receive completes"
                ),
            ));
        }
        return finish(name, sched, m, kind, expected_rounds, 0, diagnostics);
    }

    // Drained: any message still in a channel was sent and never received.
    let mut leftovers: Vec<(usize, usize, usize)> = channels
        .iter()
        .filter(|(_, q)| !q.is_empty())
        .map(|(&(from, to), q)| (from, to, q.len()))
        .collect();
    leftovers.sort_unstable();
    for (from, to, n) in leftovers {
        diagnostics.push(diag(
            "COL009",
            Severity::Error,
            format!(
                "{name}: unconsumed message{} — rank {from} sent {n} message{} to rank {to} \
                 that rank {to} never receives",
                if n > 1 { "s" } else { "" },
                if n > 1 { "s" } else { "" },
            ),
        ));
    }

    let rounds = depth.iter().copied().max().unwrap_or(0);
    if diagnostics.is_empty() {
        if rounds > expected_rounds {
            diagnostics.push(diag(
                "COL010",
                Severity::Error,
                format!(
                    "{name}: measured critical path is {rounds} rounds but the cost model \
                     promises {expected_rounds} at p = {p}, m = {m} — the closed form \
                     under-counts this lowering"
                ),
            ));
        }
        let bound = min_rounds(bound_kind(kind), p);
        if expected_rounds.max(rounds) > bound && rounds > bound {
            diagnostics.push(diag(
                "COL010",
                Severity::Note,
                format!(
                    "{name}: {rounds} rounds where the one-ported influence bound is {bound} \
                     (Traeff 2410.14234) — correct, but provably suboptimal in start-ups"
                ),
            ));
        }
    }
    finish(name, sched, m, kind, expected_rounds, rounds, diagnostics)
}

fn finish(
    name: &'static str,
    sched: &Schedule,
    m: u64,
    kind: CollectiveKind,
    expected_rounds: u64,
    rounds: u64,
    diagnostics: Vec<Diagnostic>,
) -> ScheduleReport {
    ScheduleReport {
        variant: name,
        p: sched.p,
        m,
        rounds,
        expected_rounds,
        lower_bound: min_rounds(bound_kind(kind), sched.p),
        messages: sched.message_count(),
        words: sched.total_words(),
        diagnostics,
    }
}

/// Extract and verify one registry variant at `(p, m)`.
///
/// # Panics
/// Panics if the variant is not applicable at this point; gate on
/// `(variant.applicable)(p, m)` first.
pub fn verify_variant(v: &Variant, p: usize, m: u64) -> ScheduleReport {
    assert!(
        (v.applicable)(p, m),
        "{} is not applicable at p = {p}, m = {m}",
        v.name
    );
    let sched = (v.extract)(p, m);
    verify_schedule(v.name, v.kind, &sched, (v.expected_rounds)(p, m), m)
}

/// Verify every applicable shipped lowering at `(p, m)`.
pub fn verify_registry(p: usize, m: u64) -> Vec<ScheduleReport> {
    shipped_variants()
        .iter()
        .filter(|v| (v.applicable)(p, m))
        .map(|v| verify_variant(v, p, m))
        .collect()
}

/// Verify every applicable planted-bug lowering at `(p, m)`, pairing
/// each report with the lint code the verifier is required to raise.
pub fn verify_planted(p: usize, m: u64) -> Vec<(ScheduleReport, &'static str)> {
    planted_variants()
        .iter()
        .filter(|pv| (pv.variant.applicable)(p, m))
        .map(|pv| (verify_variant(&pv.variant, p, m), pv.expected_code))
        .collect()
}

/// Render verification reports for humans, one line per clean variant
/// and full diagnostics for dirty ones, ending with the same summary
/// line format the linter uses.
pub fn render_reports_human(reports: &[ScheduleReport]) -> String {
    let mut out = String::new();
    let (mut errors, mut warnings, mut notes) = (0usize, 0usize, 0usize);
    for r in reports {
        let verdict = if r.ok() { "ok" } else { "FAIL" };
        out.push_str(&format!(
            "{verdict:>4}  {name:<28} p={p:<3} m={m:<6} rounds={rounds} (expected {exp}, bound {lb})  msgs={msgs} words={words}\n",
            name = r.variant,
            p = r.p,
            m = r.m,
            rounds = r.rounds,
            exp = r.expected_rounds,
            lb = r.lower_bound,
            msgs = r.messages,
            words = r.words,
        ));
        for d in &r.diagnostics {
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
                Severity::Note => notes += 1,
            }
            out.push_str(&format!(
                "      {}[{}]: {}\n",
                d.severity, d.code, d.message
            ));
        }
    }
    out.push_str(&format!(
        "summary: {errors} error(s), {warnings} warning(s), {notes} note(s)\n"
    ));
    out
}

/// Render verification reports as compact, byte-stable JSON.
pub fn render_reports_json(reports: &[ScheduleReport], p: usize, m: u64) -> String {
    let (mut errors, mut warnings, mut notes) = (0usize, 0usize, 0usize);
    let items: Vec<Json> = reports
        .iter()
        .map(|r| {
            let diags: Vec<Json> = r
                .diagnostics
                .iter()
                .map(|d| {
                    match d.severity {
                        Severity::Error => errors += 1,
                        Severity::Warning => warnings += 1,
                        Severity::Note => notes += 1,
                    }
                    Json::Obj(vec![
                        ("code".into(), Json::Str(d.code.to_string())),
                        ("severity".into(), Json::Str(d.severity.to_string())),
                        ("message".into(), Json::Str(d.message.clone())),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("variant".into(), Json::Str(r.variant.to_string())),
                ("ok".into(), Json::Bool(r.ok())),
                ("rounds".into(), Json::Num(r.rounds as f64)),
                (
                    "expected_rounds".into(),
                    Json::Num(r.expected_rounds as f64),
                ),
                ("lower_bound".into(), Json::Num(r.lower_bound as f64)),
                ("messages".into(), Json::Num(r.messages as f64)),
                ("words".into(), Json::Num(r.words as f64)),
                ("diagnostics".into(), Json::Arr(diags)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("version".into(), Json::Num(1.0)),
        (
            "point".into(),
            Json::Obj(vec![
                ("p".into(), Json::Num(p as f64)),
                ("m".into(), Json::Num(m as f64)),
            ]),
        ),
        ("variants".into(), Json::Arr(items)),
        (
            "summary".into(),
            Json::Obj(vec![
                ("errors".into(), Json::Num(errors as f64)),
                ("warnings".into(), Json::Num(warnings as f64)),
                ("notes".into(), Json::Num(notes as f64)),
            ]),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shipped_variant_verifies_at_representative_points() {
        for p in [2usize, 3, 4, 6, 8, 13, 16] {
            for m in [1u64, 2, 32, 97] {
                for r in verify_registry(p, m) {
                    assert!(
                        r.ok(),
                        "{} failed at p = {p}, m = {m}:\n{}",
                        r.variant,
                        render_reports_human(std::slice::from_ref(&r))
                    );
                }
            }
        }
    }

    #[test]
    fn planted_bugs_are_rejected_with_their_expected_codes() {
        for (p, m) in [(4usize, 8u64), (5, 10), (8, 3)] {
            let rejected = verify_planted(p, m);
            assert!(!rejected.is_empty());
            for (report, code) in rejected {
                assert!(!report.ok(), "{} must fail at p = {p}", report.variant);
                assert!(
                    report.diagnostics.iter().any(|d| d.code == code),
                    "{} must raise {code}, got {:?}",
                    report.variant,
                    report.diagnostics
                );
            }
        }
    }

    #[test]
    fn butterfly_meets_the_lower_bound_exactly() {
        let v = shipped_variants()
            .into_iter()
            .find(|v| v.name == "allreduce_butterfly")
            .unwrap();
        for log in 1..=6u32 {
            let p = 1usize << log;
            let r = verify_variant(&v, p, 16);
            assert!(r.ok());
            assert_eq!(r.rounds, u64::from(log));
            assert_eq!(r.rounds, r.lower_bound);
            assert!(r.diagnostics.is_empty(), "no suboptimality note: {r:?}");
        }
    }

    #[test]
    fn ring_gets_the_suboptimality_note() {
        let v = shipped_variants()
            .into_iter()
            .find(|v| v.name == "allreduce_ring")
            .unwrap();
        let r = verify_variant(&v, 8, 64);
        assert!(r.ok());
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.code == "COL010" && d.severity == Severity::Note),
            "{r:?}"
        );
    }

    #[test]
    fn json_rendering_is_stable() {
        let a = render_reports_json(&verify_registry(6, 14), 6, 14);
        let b = render_reports_json(&verify_registry(6, 14), 6, 14);
        assert_eq!(a, b);
        assert!(a.contains("\"variant\":\"bcast_binomial\""));
    }
}
