//! Pass 4: per-trace wildcard race detection on the happens-before index.
//!
//! A trace records *one* resolution of every wildcard receive, but the
//! program admits any resolution consistent with the happens-before
//! relation of the recorded graph. For each wildcard receive `R` that
//! matched send `S`, this pass enumerates every envelope-compatible send
//! `S'` whose issue is **concurrent** with `S` — by the HB relation
//! neither must precede the other, so an execution exists in which `S'`
//! arrives first. (Sends from `S`'s own source are never alternates:
//! MPI's non-overtaking rule orders them behind `S` on the channel.)
//!
//! Concurrency alone over-approximates: the surrounding program can pin a
//! concurrent message elsewhere (e.g. a later receive that *specifically*
//! names that source has no other way to complete). Every candidate is
//! therefore validated by **witness replay**: the progress simulation is
//! re-run under a witness `MatchPolicy` that forces `R` onto `S'`'s
//! source (and the wildcard receive that originally consumed `S'` onto
//! `S`'s source, swapping the two messages). Only candidates whose forced
//! schedule runs every rank to completion are reported, so each
//! `MPG-WILD-RACE` diagnostic carries a concrete, replayable alternate
//! match — never a hypothetical one. The witness replays fork from one
//! shared recorded prefix ([`Forker`]), in fork-point order.

use crate::progress::{forced_replay, Forker, MatchPair, Matching};
use mpg_core::forced::MatchPlan;
use mpg_core::{CancelReason, CancelToken, HbIndex, CHECK_INTERVAL};
use mpg_trace::{Diagnostic, EventKind, MemTrace, Rank, Rule, Seq, ANY_TAG};
use std::collections::{BTreeMap, HashMap};

/// One validated alternate match for a racy wildcard receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceWitness {
    /// The wildcard receive, `(rank, seq)`.
    pub recv: (Rank, Seq),
    /// The send the trace recorded as matched.
    pub matched: (Rank, Seq),
    /// The concurrent, envelope-compatible send `recv` could have taken.
    pub alternate: (Rank, Seq),
    /// The wildcard receive that consumed `alternate` in the recorded
    /// schedule (swapped onto `matched` during witness replay); `None`
    /// when `alternate` went unmatched.
    pub displaced: Option<(Rank, Seq)>,
}

/// One wildcard receive with at least one validated alternate match.
#[derive(Debug, Clone)]
pub struct RaceFinding {
    /// The wildcard receive, `(rank, seq)`.
    pub recv: (Rank, Seq),
    /// The recorded match.
    pub matched: (Rank, Seq),
    /// Tag of the matched message.
    pub tag: mpg_trace::Tag,
    /// Every validated alternate, one per alternate source, ascending.
    pub witnesses: Vec<RaceWitness>,
}

/// The forced-match plan a witness describes: the racy receive onto the
/// alternate source, and the displaced wildcard (if any) onto the
/// recorded source — the two messages swap.
pub fn witness_plan(w: &RaceWitness) -> MatchPlan {
    let mut plan = MatchPlan::new().force(w.recv, w.alternate.0);
    if let Some(displaced) = w.displaced {
        plan = plan.force(displaced, w.matched.0);
    }
    plan
}

/// Replays the progress simulation with the witness's matching forced,
/// through the shared [`forced_replay`] path. Returns the resulting
/// [`Matching`] when the forced schedule completes *and* the racy
/// receive really did take the alternate source; `None` when the witness
/// is infeasible.
pub fn witness_matching(trace: &MemTrace, w: &RaceWitness) -> Option<Matching> {
    let rep = forced_replay(trace, &witness_plan(w));
    witness_holds(w, &rep.matching).then_some(rep.matching)
}

/// Did the forced schedule complete with the racy receive on the
/// alternate source?
fn witness_holds(w: &RaceWitness, m: &Matching) -> bool {
    m.completed
        && m.pairs
            .iter()
            .any(|p| p.recv == w.recv && p.send.0 == w.alternate.0)
}

/// The receive's *posted* tag pattern (traces record the matched tag for
/// the diagnostic text, but compatibility is against the pattern).
fn posted_tag(trace: &MemTrace, recv: (Rank, Seq)) -> Option<mpg_trace::Tag> {
    match trace.rank(recv.0 as usize).get(recv.1 as usize)?.kind {
        EventKind::Recv { tag, .. } | EventKind::Irecv { tag, .. } => Some(tag),
        _ => None,
    }
}

/// Enumerates the unvalidated alternate-match candidates of every
/// wildcard pair in `matching`: envelope-compatible sends concurrent
/// with the recorded match, earliest per alternate source (the
/// non-overtaking rule hands a forced pattern the earliest unconsumed
/// message of that source, so later ones are subsumed). With
/// `include_pinned` false, alternates whose recorded consumer is a
/// *specific* (non-wildcard) receive are skipped — swapping them would
/// need a cascade of reassignments, so they are not single-swap
/// alternates for pass 4. The pass-8 explorer sets it true: forcing the
/// wildcard anyway and watching the specific receive starve is exactly
/// how alternate-schedule deadlocks are found.
pub(crate) fn wildcard_candidates(
    trace: &MemTrace,
    matching: &Matching,
    hb: &HbIndex,
    include_pinned: bool,
) -> Vec<(MatchPair, Vec<RaceWitness>)> {
    let consumer_of: HashMap<(Rank, Seq), &MatchPair> =
        matching.pairs.iter().map(|p| (p.send, p)).collect();
    let mut out = Vec::new();
    for pair in matching.pairs.iter().filter(|p| p.posted_any) {
        let (recv, matched) = (pair.recv, pair.send);
        let Some(tag_pattern) = posted_tag(trace, recv) else {
            continue;
        };
        let mut candidates: BTreeMap<Rank, RaceWitness> = BTreeMap::new();
        for s in &matching.sends {
            if s.src == matched.0
                || s.dst != recv.0
                || (tag_pattern != ANY_TAG && s.tag != tag_pattern)
                || !hb.concurrent((s.src, s.seq), matched)
            {
                continue;
            }
            let displaced = match consumer_of.get(&(s.src, s.seq)) {
                Some(p) if !p.posted_any => {
                    if !include_pinned {
                        continue;
                    }
                    // The specific receive cannot be re-pointed; force
                    // only the wildcard and let the replay decide.
                    None
                }
                Some(p) => Some(p.recv),
                None => None,
            };
            let w = RaceWitness {
                recv,
                matched,
                alternate: (s.src, s.seq),
                displaced,
            };
            candidates
                .entry(s.src)
                .and_modify(|held| {
                    if s.seq < held.alternate.1 {
                        *held = w;
                    }
                })
                .or_insert(w);
        }
        if !candidates.is_empty() {
            out.push((*pair, candidates.into_values().collect()));
        }
    }
    out
}

/// Finds every wildcard receive with a validated concurrent alternate.
pub fn find_races(trace: &MemTrace, matching: &Matching, hb: &HbIndex) -> Vec<RaceFinding> {
    find_races_cancellable(trace, matching, hb, None).expect("no token to fire")
}

/// [`find_races`] under an optional [`CancelToken`]. Witnesses are
/// validated in fork-point order through one [`Forker`], so the whole
/// pass costs about one progress simulation plus a suffix per witness.
/// The token is polled between groups of witnesses that share a fork
/// point, once per [`CHECK_INTERVAL`] simulated events; a fired token
/// returns its reason and no findings at all, never a partial list.
pub(crate) fn find_races_cancellable(
    trace: &MemTrace,
    matching: &Matching,
    hb: &HbIndex,
    cancel: Option<&CancelToken>,
) -> Result<Vec<RaceFinding>, CancelReason> {
    let groups = wildcard_candidates(trace, matching, hb, false);
    let plans: Vec<(usize, usize, MatchPlan)> = groups
        .iter()
        .enumerate()
        .flat_map(|(g, (_, ws))| {
            ws.iter()
                .enumerate()
                .map(move |(i, w)| (g, i, witness_plan(w)))
        })
        .collect();
    if plans.is_empty() {
        return Ok(Vec::new());
    }
    let mut forker = Forker::new(trace);
    // Plans whose receives are never offered replay the whole recorded
    // run, so they go last.
    let mut order: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .map(|(k, (_, _, plan))| (forker.fork_point(plan).unwrap_or(usize::MAX), k))
        .collect();
    order.sort_unstable();
    let mut holds: Vec<Vec<bool>> = groups.iter().map(|(_, ws)| vec![false; ws.len()]).collect();
    let mut group_fork = None;
    let mut polled_at = None;
    for (fork, k) in order {
        let group_start = group_fork != Some(fork);
        group_fork = Some(fork);
        let due = polled_at.is_none_or(|at| forker.steps() - at >= CHECK_INTERVAL);
        if group_start && due {
            polled_at = Some(forker.steps());
            if let Some(reason) = cancel.and_then(CancelToken::fired) {
                return Err(reason);
            }
        }
        let (g, i, plan) = &plans[k];
        let w = &groups[*g].1[*i];
        holds[*g][*i] = witness_holds(w, &forker.replay(plan).matching);
    }
    Ok(groups
        .into_iter()
        .zip(holds)
        .filter_map(|((pair, candidates), holds)| {
            let witnesses: Vec<RaceWitness> = candidates
                .into_iter()
                .zip(holds)
                .filter_map(|(w, ok)| ok.then_some(w))
                .collect();
            (!witnesses.is_empty()).then_some(RaceFinding {
                recv: pair.recv,
                matched: pair.send,
                tag: pair.tag,
                witnesses,
            })
        })
        .collect())
}

/// Pass 4 entry point: renders [`find_races`] as diagnostics.
pub fn lint_races(trace: &MemTrace, matching: &Matching, hb: &HbIndex) -> Vec<Diagnostic> {
    race_diags(find_races(trace, matching, hb))
}

/// Renders race findings as `MPG-WILD-RACE` diagnostics.
pub(crate) fn race_diags(findings: Vec<RaceFinding>) -> Vec<Diagnostic> {
    findings
        .into_iter()
        .map(|f| {
            let alts = f
                .witnesses
                .iter()
                .map(|w| format!("rank {} seq {}", w.alternate.0, w.alternate.1))
                .collect::<Vec<_>>()
                .join(", ");
            Diagnostic::new(
                Rule::WildRace,
                format!(
                    "wildcard receive (tag {}) matched the send from rank {} seq {}, but \
                     {alts} {} concurrent and envelope-compatible; forcing the alternate \
                     match replays to completion, so the resolution depends on arrival \
                     timing",
                    f.tag,
                    f.matched.0,
                    f.matched.1,
                    if f.witnesses.len() == 1 { "is" } else { "are" },
                ),
            )
            .at(f.recv.0, f.recv.1)
            .involving(
                f.witnesses
                    .iter()
                    .map(|w| w.alternate.0)
                    .chain([f.matched.0]),
            )
        })
        .collect()
}
