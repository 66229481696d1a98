//! Pass 8: bounded schedule-space exploration (predictive analysis).
//!
//! The recorded trace is *one* point in the space of schedules the
//! program admits: every wildcard receive could have resolved to any
//! envelope-compatible, happens-before-concurrent sender. Pass 4 proves
//! single swaps exist and stops; this pass walks the space those swaps
//! open up, DPOR-style:
//!
//! * **Seeding.** The frontier starts from the pass-4 candidate
//!   enumeration over the recorded matching — including alternates whose
//!   recorded consumer is a *specific* receive, which pass 4 must skip
//!   (they are not single-swap witnesses) but which are exactly where
//!   alternate-schedule deadlocks hide: force the wildcard anyway and
//!   the pinned receive starves.
//! * **Exploration.** Each frontier entry is a [`MatchPlan`]; it is
//!   replayed by forking the recorded prefix ([`Forker`], field-for-field
//!   the from-scratch [`forced_replay`](crate::forced_replay)) and
//!   classified. A completed alternate is branched further: new
//!   candidates are enumerated *on the alternate matching* and appended,
//!   up to the depth bound.
//! * **Pruning.** A sleep set over canonical plan keys kills every
//!   rediscovery of an already-scheduled resolution set (two discovery
//!   orders of the same swaps are the same schedule). A persistent-set
//!   restriction only branches on receives at or after the deepest
//!   already-forced receive in the current match order — swaps at
//!   earlier receives commute with the suffix and are covered by the
//!   sibling branch seeded at shallower depth. Pruning can only cost
//!   *coverage*, never soundness: every emitted finding is validated by
//!   its own concrete forced replay.
//! * **Honest coverage.** [`ExploreStats`] counts schedules replayed,
//!   plans pruned, and — when the budget runs out or a cancel token
//!   fires — exactly how many frontier entries went unexplored. The
//!   report renders this always; truncation is never silent.
//!
//! Two rules come out: `MPG-MAY-DEADLOCK` when a forced replay reaches a
//! wait-for cycle (the finding names the full forced match sequence, so
//! anyone can re-replay it), and `MPG-SCHEDULE-DIVERGENCE` when a
//! completed alternate shifts the estimated makespan past a threshold —
//! quantifying how schedule-sensitive the paper's replay predictions
//! are. Deeper-than-seed branching reuses the *recorded* happens-before
//! index as a concurrency over-approximation; that is fine for the same
//! reason pruning is: candidates are hypotheses, replays are proof.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::hb_races::wildcard_candidates;
use crate::progress::{Forker, Matching};
use crate::LintContext;
use mpg_core::forced::{ForcedOutcome, MatchPlan};
use mpg_core::{CancelReason, CancelToken};
use mpg_trace::{sort_diagnostics, Diagnostic, EventKind, MemTrace, Rank, Rule, Seq, Severity};

/// Tunables of the schedule-space explorer.
#[derive(Debug, Clone, Default)]
pub struct ExploreOptions {
    /// Maximum number of forced replays. `0` disables the pass entirely —
    /// the pass-manager default, so plain `lint_full` output is
    /// bit-identical to pre-explorer builds.
    pub budget: u64,
    /// Maximum forced-match decisions per plan (exploration depth).
    pub depth: usize,
    /// `MPG-SCHEDULE-DIVERGENCE` fires when an alternate schedule shifts
    /// the estimated makespan by more than this percentage.
    pub divergence_pct: f64,
    /// Deterministic rotation of the seed frontier: different seeds visit
    /// the space in a different order under small budgets.
    pub seed: u64,
    /// Optional cooperative-cancellation token, polled between replays.
    /// Never part of the configuration fingerprint.
    pub cancel: Option<CancelToken>,
}

impl ExploreOptions {
    /// The CLI/service defaults (`mpgtool explore` without flags):
    /// budget 64, depth 3, 10% divergence threshold, seed 0.
    pub fn cli_default() -> Self {
        ExploreOptions {
            budget: 64,
            depth: 3,
            divergence_pct: 10.0,
            seed: 0,
            ..ExploreOptions::default()
        }
    }

    /// Set the budget (builder).
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Configuration fingerprint for frontier-checkpoint cache keys:
    /// exactly the knobs that change the explored set. The cancel token
    /// is deliberately excluded.
    pub fn fingerprint(&self) -> String {
        format!(
            "budget={};depth={};div={};seed={}",
            self.budget, self.depth, self.divergence_pct, self.seed
        )
    }
}

/// Coverage accounting of one exploration run. Rendered in every report
/// so truncation is never silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Forced replays actually executed.
    pub explored: u64,
    /// Of those, plans whose forcing wedged without a wait-for cycle
    /// (infeasible forcings; no finding derived).
    pub infeasible: u64,
    /// Frontier extensions dropped by sleep-set or persistent-set
    /// pruning.
    pub pruned: u64,
    /// Frontier entries left unexplored when the budget ran out or the
    /// run was cancelled (`0` means the frontier was exhausted).
    pub frontier_unexplored: u64,
    /// Deepest plan explored (forced-match decisions).
    pub max_depth: u64,
    /// True when the loop stopped on the budget, not on an empty
    /// frontier.
    pub budget_exhausted: bool,
    /// Why the run was cut short, when a cancel token fired mid-walk.
    pub cancelled: Option<CancelReason>,
}

impl ExploreStats {
    /// One-line coverage clause for report text.
    pub fn coverage(&self) -> String {
        if let Some(reason) = self.cancelled {
            format!(
                "coverage incomplete: cancelled ({reason}), {} frontier schedule(s) unexplored",
                self.frontier_unexplored
            )
        } else if self.budget_exhausted {
            format!(
                "coverage incomplete: budget exhausted, {} frontier schedule(s) unexplored",
                self.frontier_unexplored
            )
        } else {
            "coverage complete: frontier exhausted".to_string()
        }
    }

    /// Hand-rolled JSON object (matches the workspace's dependency-free
    /// style).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"explored\":{},\"infeasible\":{},\"pruned\":{},\"frontier_unexplored\":{},\
             \"max_depth\":{},\"budget_exhausted\":{},\"cancelled\":{}}}",
            self.explored,
            self.infeasible,
            self.pruned,
            self.frontier_unexplored,
            self.max_depth,
            self.budget_exhausted,
            match self.cancelled {
                Some(r) => format!("\"{r}\""),
                None => "null".to_string(),
            }
        )
    }
}

/// What a finding claims about its plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ExploreFindingKind {
    /// The forced replay reached a wait-for cycle among these ranks.
    MayDeadlock {
        /// Ranks on the wait-for cycle.
        cycle: Vec<Rank>,
    },
    /// The forced replay completed with a shifted makespan estimate.
    Divergence {
        /// Estimated makespan of the recorded matching (cycles).
        base: u64,
        /// Estimated makespan of the alternate matching (cycles).
        alt: u64,
        /// Relative shift, percent.
        pct: f64,
    },
}

/// One witness-validated explorer finding: the forced-match plan plus
/// what re-replaying it does. Feeding `plan` back through
/// [`forced_replay`](crate::forced_replay) reproduces the claim independently.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreFinding {
    /// The forced-match sequence (re-replayable).
    pub plan: MatchPlan,
    /// The seed wildcard receive the plan pivots on (diagnostic span).
    pub recv: (Rank, Seq),
    /// The validated claim.
    pub kind: ExploreFindingKind,
}

impl ExploreFinding {
    /// Render as a diagnostic.
    fn to_diag(&self) -> Diagnostic {
        match &self.kind {
            ExploreFindingKind::MayDeadlock { cycle } => Diagnostic::new(
                Rule::MayDeadlock,
                format!(
                    "recorded run completed, but the alternate wildcard matching \
                     [{}] replays to a wait-for cycle among ranks {cycle:?}; re-replay \
                     by forcing each listed receive onto its listed source",
                    self.plan
                ),
            )
            .at(self.recv.0, self.recv.1)
            .involving(cycle.iter().copied()),
            ExploreFindingKind::Divergence { base, alt, pct } => Diagnostic::new(
                Rule::ScheduleDivergence,
                format!(
                    "alternate wildcard matching [{}] completes but shifts the estimated \
                     makespan by {pct:.1}% ({base} -> {alt} cycles)",
                    self.plan
                ),
            )
            .at(self.recv.0, self.recv.1)
            .involving(self.plan.forced().iter().map(|f| f.source)),
        }
    }
}

/// Findings + coverage of one exploration over a built [`LintContext`].
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Witness-validated findings, in discovery order.
    pub findings: Vec<ExploreFinding>,
    /// Coverage accounting.
    pub stats: ExploreStats,
}

impl ExploreReport {
    /// The findings rendered as diagnostics.
    pub fn diags(&self) -> Vec<Diagnostic> {
        self.findings.iter().map(ExploreFinding::to_diag).collect()
    }
}

/// The pass-8 entry point over a shared context. Requires a completed
/// recorded matching and a happens-before index; degrades to an empty
/// report otherwise (the progress/causality passes already own those
/// failures). A zero budget does no work at all.
pub fn explore(ctx: &LintContext<'_>, opts: &ExploreOptions) -> ExploreReport {
    let mut report = ExploreReport::default();
    if opts.budget == 0 || !ctx.progress.matching.completed {
        return report;
    }
    let Some(hb) = ctx.hb.as_ref() else {
        return report;
    };
    let trace = ctx.trace;
    let base = matching_makespan(trace, &ctx.progress.matching);
    let stats = &mut report.stats;

    // Built on the first replay, so an empty frontier costs nothing.
    let mut forker: Option<Forker<'_>> = None;
    // Sleep set: canonical keys of every plan ever scheduled.
    let mut sleep: HashSet<String> = HashSet::new();
    let mut frontier: VecDeque<(MatchPlan, usize)> = VecDeque::new();

    // Seed from the recorded matching, pinned-consumer alternates
    // included. The seed rotation makes small budgets sample different
    // neighborhoods deterministically.
    let mut seeds = extensions(trace, &ctx.progress.matching, hb, &MatchPlan::new());
    if !seeds.is_empty() {
        let rot = (opts.seed as usize) % seeds.len();
        seeds.rotate_left(rot);
    }
    for plan in seeds {
        if sleep.insert(plan.canonical_key()) {
            frontier.push_back((plan, 1));
        } else {
            stats.pruned += 1;
        }
    }

    while let Some((plan, depth)) = frontier.pop_front() {
        if let Some(token) = &opts.cancel {
            if let Some(reason) = token.fired() {
                stats.cancelled = Some(reason);
                stats.frontier_unexplored = frontier.len() as u64 + 1;
                break;
            }
        }
        if stats.explored >= opts.budget {
            stats.budget_exhausted = true;
            stats.frontier_unexplored = frontier.len() as u64 + 1;
            break;
        }
        stats.explored += 1;
        stats.max_depth = stats.max_depth.max(depth as u64);
        let seed_recv = plan.forced()[0].recv;
        let rep = forker
            .get_or_insert_with(|| Forker::new(trace))
            .replay(&plan);
        match rep.outcome {
            ForcedOutcome::Deadlocked => {
                // Tarjan already named the cycle; take the first cycle's
                // ranks as the finding's subject.
                let cycle = rep
                    .diags
                    .iter()
                    .find(|d| d.rule == Rule::Deadlock)
                    .map(|d| d.ranks.clone())
                    .unwrap_or_default();
                report.findings.push(ExploreFinding {
                    plan,
                    recv: seed_recv,
                    kind: ExploreFindingKind::MayDeadlock { cycle },
                });
            }
            ForcedOutcome::Completed => {
                if let (Some(b), Some(alt)) = (base, matching_makespan(trace, &rep.matching)) {
                    if b > 0 {
                        let pct = (alt.abs_diff(b)) as f64 * 100.0 / b as f64;
                        if pct > opts.divergence_pct {
                            report.findings.push(ExploreFinding {
                                plan: plan.clone(),
                                recv: seed_recv,
                                kind: ExploreFindingKind::Divergence { base: b, alt, pct },
                            });
                        }
                    }
                }
                if depth < opts.depth {
                    for next in extensions(trace, &rep.matching, hb, &plan) {
                        if sleep.insert(next.canonical_key()) {
                            frontier.push_back((next, depth + 1));
                        } else {
                            stats.pruned += 1;
                        }
                    }
                }
            }
            // The forcing wedged without a cycle: the forced message was
            // pinned elsewhere in a way that starves the plan without
            // mutual blocking. Not a witness of anything; counted so the
            // coverage line stays honest.
            ForcedOutcome::Stuck => stats.infeasible += 1,
        }
    }
    report
}

/// Extensions of `plan` from the candidates of `matching` (the matching
/// its forced replay established). Implements the persistent-set
/// restriction: only branch on wildcard receives whose pair position in
/// the current match order is at or after the deepest already-forced
/// receive — earlier swaps commute with this suffix and belong to the
/// sibling branch that forced them first. Conflicting forcings (a
/// receive or its displaced partner already pinned by the plan) are
/// skipped.
fn extensions(
    trace: &MemTrace,
    matching: &Matching,
    hb: &mpg_core::HbIndex,
    plan: &MatchPlan,
) -> Vec<MatchPlan> {
    let pos: HashMap<(Rank, Seq), usize> = matching
        .pairs
        .iter()
        .enumerate()
        .map(|(i, p)| (p.recv, i))
        .collect();
    let floor = plan
        .forced()
        .iter()
        .filter_map(|f| pos.get(&f.recv).copied())
        .max()
        .unwrap_or(0);
    let mut out = Vec::new();
    for (pair, candidates) in wildcard_candidates(trace, matching, hb, true) {
        if plan.forces(pair.recv) || pos.get(&pair.recv).copied().unwrap_or(0) < floor {
            continue;
        }
        for w in candidates {
            if w.displaced.is_some_and(|d| plan.forces(d)) {
                continue;
            }
            let mut next = plan.clone().force(w.recv, w.alternate.0);
            if let Some(displaced) = w.displaced {
                next = next.force(displaced, w.matched.0);
            }
            out.push(next);
        }
    }
    out
}

/// Estimated makespan of a matching: a timed lockstep pass over the
/// trace that keeps every event's *recorded duration* but re-wires the
/// cross-rank ordering to `matching`'s pairs — receive completions wait
/// for their matched send's finish time, collectives wait for the
/// latest arrival. Comparing the recorded and an alternate matching
/// through the same estimator isolates exactly the schedule's
/// contribution to the makespan. Returns `None` if the pass cannot run
/// every rank to the end (never the case for a completed matching).
pub fn matching_makespan(trace: &MemTrace, matching: &Matching) -> Option<u64> {
    let p = trace.num_ranks();
    if p == 0 {
        return Some(0);
    }
    // (recv rank, completion seq) -> sends that must finish first.
    let mut deps: HashMap<(Rank, Seq), Vec<(Rank, Seq)>> = HashMap::new();
    for pair in &matching.pairs {
        deps.entry((pair.recv.0, pair.completion))
            .or_default()
            .push(pair.send);
    }
    let mut send_end: HashMap<(Rank, Seq), u64> = HashMap::new();
    let mut clock = vec![0u64; p];
    let mut pc = vec![0usize; p];
    // Collective epochs: (count per rank, per-epoch arrivals + max entry).
    let mut coll_count = vec![0u64; p];
    let mut epochs: HashMap<u64, (usize, u64)> = HashMap::new();
    let mut arrived = vec![false; p];

    let mut progressed = true;
    while progressed {
        progressed = false;
        for r in 0..p {
            loop {
                let events = trace.rank(r);
                let Some(ev) = events.get(pc[r]) else { break };
                let dur = ev.t_end.saturating_sub(ev.t_start);
                if ev.kind.is_collective() {
                    if !arrived[r] {
                        arrived[r] = true;
                        let k = coll_count[r];
                        coll_count[r] += 1;
                        let slot = epochs.entry(k).or_insert((0, 0));
                        slot.0 += 1;
                        slot.1 = slot.1.max(clock[r]);
                    }
                    let k = coll_count[r] - 1;
                    let &(n, entry_max) = epochs.get(&k).expect("arrived epoch");
                    if n < p {
                        break;
                    }
                    clock[r] = entry_max + dur;
                    arrived[r] = false;
                } else {
                    let mut start = clock[r];
                    if let Some(sends) = deps.get(&(ev.rank, ev.seq)) {
                        let mut ready = true;
                        for s in sends {
                            match send_end.get(s) {
                                Some(&t) => start = start.max(t),
                                None => {
                                    ready = false;
                                    break;
                                }
                            }
                        }
                        if !ready {
                            break;
                        }
                    }
                    let end = start + dur;
                    if matches!(ev.kind, EventKind::Send { .. } | EventKind::Isend { .. }) {
                        send_end.insert((ev.rank, ev.seq), end);
                    }
                    clock[r] = end;
                }
                pc[r] += 1;
                progressed = true;
            }
        }
    }
    if (0..p).any(|r| pc[r] < trace.rank(r).len()) {
        return None;
    }
    Some(clock.into_iter().max().unwrap_or(0))
}

/// Full lint plus exploration: validation, the pass manager, then the
/// explorer's findings merged in, with the coverage stats alongside.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Merged, sorted diagnostics (full lint + explore findings).
    pub diags: Vec<Diagnostic>,
    /// The explorer's structured findings (re-replayable plans).
    pub findings: Vec<ExploreFinding>,
    /// Coverage accounting.
    pub stats: ExploreStats,
    /// Why the run was cut short, when it was (context build or
    /// exploration).
    pub cancelled: Option<CancelReason>,
}

/// Runs the full lint with the explorer enabled at `opts`. With
/// `opts.budget == 0` the diagnostics are exactly [`crate::lint_full`]'s
/// (bit-identical; the explorer never runs).
pub fn lint_explore(trace: &MemTrace, opts: &ExploreOptions) -> ExploreOutcome {
    lint_explore_with(trace, opts, None)
}

/// [`lint_explore`] with the graph and happens-before artifacts memoized
/// through a [`CacheStore`](mpg_core::CacheStore) (see
/// [`LintContext::build_cached`]).
pub fn lint_explore_with(
    trace: &MemTrace,
    opts: &ExploreOptions,
    cache: Option<(&mpg_core::CacheStore, &str)>,
) -> ExploreOutcome {
    let mut diags = mpg_trace::validate_trace_diagnostics(trace);
    if diags.iter().any(|d| d.severity == Severity::Error) {
        sort_diagnostics(&mut diags);
        return ExploreOutcome {
            diags,
            findings: Vec::new(),
            stats: ExploreStats::default(),
            cancelled: None,
        };
    }
    let (ctx, build_cancelled) = match (&opts.cancel, cache) {
        (Some(token), _) => LintContext::build_cancellable(trace, token),
        (None, Some((store, key))) => (LintContext::build_cached(trace, store, key), None),
        (None, None) => (LintContext::build(trace), None),
    };
    let report = explore(&ctx, opts);
    let (mut diags, pass_cancelled) = crate::lint_over_context(diags, ctx, opts.cancel.as_ref());
    diags.extend(report.diags());
    sort_diagnostics(&mut diags);
    let cancelled = build_cancelled
        .or(report.stats.cancelled)
        .or(pass_cancelled);
    ExploreOutcome {
        diags,
        findings: report.findings,
        stats: report.stats,
        cancelled,
    }
}

// ---- frontier checkpoints ---------------------------------------------

/// Schema byte of the frontier-checkpoint payload; bump on layout change
/// so stale checkpoints miss instead of misparsing.
const FRONTIER_SCHEMA: u8 = 1;

/// Serializes an explore outcome as an explored-frontier checkpoint for
/// the artifact cache: the merged diagnostics, the coverage stats, and
/// the trace dimensions a warm run needs to re-render byte-identically.
/// Cancelled runs should not be checkpointed (partial coverage).
pub fn encode_frontier(out: &ExploreOutcome, total_events: u64, num_ranks: u32) -> Vec<u8> {
    let mut bytes = vec![FRONTIER_SCHEMA];
    bytes.extend_from_slice(&total_events.to_le_bytes());
    bytes.extend_from_slice(&num_ranks.to_le_bytes());
    let s = &out.stats;
    bytes.extend_from_slice(&s.explored.to_le_bytes());
    bytes.extend_from_slice(&s.infeasible.to_le_bytes());
    bytes.extend_from_slice(&s.pruned.to_le_bytes());
    bytes.extend_from_slice(&s.frontier_unexplored.to_le_bytes());
    bytes.extend_from_slice(&s.max_depth.to_le_bytes());
    bytes.push(s.budget_exhausted as u8);
    bytes.extend_from_slice(&(out.diags.len() as u32).to_le_bytes());
    for d in &out.diags {
        put_str(&mut bytes, d.rule.code());
        bytes.push(match d.severity {
            Severity::Info => 0,
            Severity::Warning => 1,
            Severity::Error => 2,
        });
        put_str(&mut bytes, &d.message);
        bytes.extend_from_slice(&(d.ranks.len() as u32).to_le_bytes());
        for &r in &d.ranks {
            bytes.extend_from_slice(&r.to_le_bytes());
        }
        match d.span {
            Some((rank, seq)) => {
                bytes.push(1);
                bytes.extend_from_slice(&rank.to_le_bytes());
                bytes.extend_from_slice(&seq.to_le_bytes());
            }
            None => bytes.push(0),
        }
    }
    bytes
}

/// Decodes a frontier checkpoint; `None` on any truncation, unknown
/// schema, or unknown rule code (a silent cache miss, like every other
/// artifact).
pub fn decode_frontier(bytes: &[u8]) -> Option<(Vec<Diagnostic>, ExploreStats, u64, u32)> {
    use mpg_core::forced::{read_u32, read_u64};
    let mut pos = 0usize;
    if *bytes.first()? != FRONTIER_SCHEMA {
        return None;
    }
    pos += 1;
    let total_events = read_u64(bytes, &mut pos)?;
    let num_ranks = read_u32(bytes, &mut pos)?;
    let mut stats = ExploreStats {
        explored: read_u64(bytes, &mut pos)?,
        infeasible: read_u64(bytes, &mut pos)?,
        pruned: read_u64(bytes, &mut pos)?,
        frontier_unexplored: read_u64(bytes, &mut pos)?,
        max_depth: read_u64(bytes, &mut pos)?,
        ..ExploreStats::default()
    };
    stats.budget_exhausted = match bytes.get(pos)? {
        0 => false,
        1 => true,
        _ => return None,
    };
    pos += 1;
    let n = read_u32(bytes, &mut pos)? as usize;
    let mut diags = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let rule = Rule::from_code(&get_str(bytes, &mut pos)?)?;
        let severity = match bytes.get(pos)? {
            0 => Severity::Info,
            1 => Severity::Warning,
            2 => Severity::Error,
            _ => return None,
        };
        pos += 1;
        let message = get_str(bytes, &mut pos)?;
        let nranks = read_u32(bytes, &mut pos)? as usize;
        if nranks > bytes.len().saturating_sub(pos) / 4 {
            return None;
        }
        let mut ranks = Vec::with_capacity(nranks);
        for _ in 0..nranks {
            ranks.push(read_u32(bytes, &mut pos)?);
        }
        let span = match bytes.get(pos)? {
            0 => {
                pos += 1;
                None
            }
            1 => {
                pos += 1;
                let rank = read_u32(bytes, &mut pos)?;
                let seq = read_u64(bytes, &mut pos)?;
                Some((rank, seq))
            }
            _ => return None,
        };
        diags.push(Diagnostic {
            rule,
            severity,
            message,
            ranks,
            span,
        });
    }
    if pos != bytes.len() {
        return None;
    }
    Some((diags, stats, total_events, num_ranks))
}

fn put_str(bytes: &mut Vec<u8>, s: &str) {
    bytes.extend_from_slice(&(s.len() as u32).to_le_bytes());
    bytes.extend_from_slice(s.as_bytes());
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    let len = mpg_core::forced::read_u32(bytes, pos)? as usize;
    let b = bytes.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    String::from_utf8(b.to_vec()).ok()
}

/// JSON body shared by `mpgtool explore --json` and any future service
/// surface: diagnostics plus the coverage stats object.
pub fn explore_json(diags: &[Diagnostic], stats: &ExploreStats) -> String {
    let mut out = String::from("{\"diagnostics\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&d.to_json());
    }
    out.push_str("],\"explore\":");
    out.push_str(&stats.to_json());
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_coverage_text() {
        let complete = ExploreStats::default();
        assert_eq!(complete.coverage(), "coverage complete: frontier exhausted");
        let exhausted = ExploreStats {
            budget_exhausted: true,
            frontier_unexplored: 3,
            ..ExploreStats::default()
        };
        assert!(exhausted.coverage().contains("budget exhausted"));
        assert!(exhausted.coverage().contains("3 frontier schedule(s)"));
        let cancelled = ExploreStats {
            cancelled: Some(CancelReason::DeadlineExceeded),
            frontier_unexplored: 1,
            ..ExploreStats::default()
        };
        assert!(cancelled.coverage().contains("cancelled"));
    }

    #[test]
    fn frontier_roundtrip() {
        let out = ExploreOutcome {
            diags: vec![
                Diagnostic::new(Rule::MayDeadlock, "cycle under [rank 0 seq 1 <- rank 2]")
                    .at(0, 1)
                    .involving([0, 1]),
                Diagnostic::new(Rule::WildRace, "advisory"),
            ],
            findings: Vec::new(),
            stats: ExploreStats {
                explored: 9,
                infeasible: 1,
                pruned: 4,
                frontier_unexplored: 2,
                max_depth: 3,
                budget_exhausted: true,
                cancelled: None,
            },
            cancelled: None,
        };
        let bytes = encode_frontier(&out, 120, 8);
        let (diags, stats, events, ranks) = decode_frontier(&bytes).unwrap();
        assert_eq!(diags, out.diags);
        assert_eq!(stats, out.stats);
        assert_eq!((events, ranks), (120, 8));
        // Any corruption or truncation is a clean miss.
        assert!(decode_frontier(&bytes[..bytes.len() - 1]).is_none());
        let mut bad = bytes.clone();
        bad[0] = 99;
        assert!(decode_frontier(&bad).is_none());
    }

    #[test]
    fn options_fingerprint_excludes_token() {
        let a = ExploreOptions::cli_default();
        let mut b = ExploreOptions::cli_default();
        b.cancel = Some(CancelToken::new());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), a.clone().budget(7).fingerprint());
    }
}
