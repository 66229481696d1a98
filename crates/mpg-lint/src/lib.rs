#![warn(missing_docs)]

//! Static defect analysis of message-passing traces (`mpg-lint`).
//!
//! The replay engine of `mpg-core` assumes its input traces describe a
//! correct, completed run (§4.1: every message event has a counterpart;
//! §4.3: "the program did run correctly"). This crate checks that
//! assumption *before* replay, reporting structured [`Diagnostic`]s with
//! stable `MPG-*` rule codes through the same reporting path as
//! `mpg_trace::validate`:
//!
//! | pass | defects | rules |
//! |------|---------|-------|
//! | 0 (validate) | per-rank structure | `MPG-CLOCK-NONMONO`, `MPG-BAD-SEQ`, `MPG-MISSING-INIT`, `MPG-MISSING-FINALIZE`, `MPG-WRONG-RANK`, `MPG-DUP-REQUEST`, `MPG-UNKNOWN-REQUEST`, `MPG-LEAKED-REQUEST`, `MPG-SELF-MESSAGE` |
//! | 1 (match) | cross-rank match resolution | `MPG-UNMATCHED-SEND`, `MPG-UNMATCHED-RECV`, `MPG-TAG-MISMATCH`, `MPG-COUNT-MISMATCH`, `MPG-BAD-PEER` |
//! | 2 (deadlock) | wait-for-graph cycles | `MPG-DEADLOCK` |
//! | 3 (causality) | recorded-graph sanity | `MPG-CYCLE`, `MPG-CAUSALITY` |
//! | 4 (race) | nondeterministic matching | `MPG-WILD-RACE` |
//! | 5 (collective) | collective consistency | `MPG-COLLECTIVE-SKEW` |
//! | 6 (performance) | wait-state & slack analysis | `MPG-LATE-SENDER`, `MPG-COLLECTIVE-IMBALANCE`, `MPG-SERIAL-CHAIN` |
//! | 7 (sync) | removable/overloaded synchronization | `MPG-REDUNDANT-SYNC`, `MPG-BUFFER-WATERMARK` |
//! | 8 (explore) | schedule-space exploration | `MPG-MAY-DEADLOCK`, `MPG-SCHEDULE-DIVERGENCE` |
//!
//! # Pass manager
//!
//! [`lint_full`] runs the passes over a shared [`LintContext`] holding the
//! expensive artifacts exactly once:
//!
//! * the **progress outcome** — diagnostics plus the send/receive
//!   [`Matching`] from the lockstep simulation ([`progress::run_progress`]),
//! * the **recorded graph** — one quiet recording replay
//!   ([`Replayer`]), and
//! * the **happens-before index** — [`HbIndex`] built from that graph.
//!
//! The progress simulation and the recording replay are independent, so
//! the context builds them on two threads; passes declare which artifacts
//! they need ([`LintPass::needs`]) and the independent passes then run in
//! parallel over the immutable context. Passes 4 and 7 are the
//! happens-before consumers: [`hb_races`] upgrades the wildcard-race
//! heuristic to exact concurrent-alternate enumeration with replayable
//! witnesses, and [`sync`] reports removable barriers and eager-buffer
//! high-water marks. Pass 8 ([`explore`](mod@explore)) generalizes pass 4 from single
//! swaps to a bounded walk of the schedule space; it ships disabled
//! (budget 0) in [`lint_full`] and is driven with a real budget through
//! [`lint_explore`] / `mpgtool explore`.
//!
//! Passes 1, 2 and 5 run off one lockstep progress simulation that reuses
//! the simulator's [`EnvelopeMatcher`](mpg_sim::EnvelopeMatcher) — the
//! lint and the runtime share a single implementation of the MPI matching
//! rules. Pass 3 ([`graphcheck::lint_graph`]) inspects the recorded
//! [`EventGraph`].
//!
//! [`replay_gate`] packages [`lint_trace`] as a
//! [`TraceGate`] so `Replayer::run` can refuse traces
//! with error-severity defects.

mod envelope;
pub mod explore;
pub mod graphcheck;
pub mod hb_races;
pub mod progress;
pub mod slack;
pub mod sync;
pub mod waitstate;

pub use explore::{
    decode_frontier, encode_frontier, explore, explore_json, lint_explore, lint_explore_with,
    matching_makespan, ExploreFinding, ExploreFindingKind, ExploreOptions, ExploreOutcome,
    ExploreReport, ExploreStats,
};
pub use graphcheck::lint_graph;
pub use hb_races::{
    find_races, lint_races, witness_matching, witness_plan, RaceFinding, RaceWitness,
};
pub use progress::{
    forced_replay, lint_progress, run_progress, ForcedReplay, Forker, MatchPair, MatchPolicy,
    Matching, ProgressOutcome, SendRec,
};
pub use slack::{lint_chains, rank_chains, ChainSummary};
pub use sync::{lint_sync, SyncOptions};
pub use waitstate::{
    analyze_graph, lint_waitstates, CollectiveWait, KeyedWait, PerfReport, PerfThresholds,
    RankBreakdown, WaitClass, WaitInterval,
};

use mpg_core::{
    cached_hb_index, cached_recorded_graph, CacheStore, CancelReason, CancelToken, EventGraph,
    HbIndex, PerturbationModel, ReplayConfig, Replayer, TraceGate,
};
use mpg_trace::{sort_diagnostics, Diagnostic, MemTrace, Rule, Severity};

/// The quiet recording-replay configuration behind every lint context —
/// one definition so the cold and cached builds can never diverge.
///
/// `ack_arm(false)`: model standard sends as eager. The default
/// acknowledgement arm would order every send after its matching receive —
/// sound for conservative *timing*, but wrong for *happens-before*: it
/// would suppress legitimate wildcard races and all eager-buffer pile-up.
/// Synchronous sends keep their acknowledgement coupling.
fn lint_replay_config() -> ReplayConfig {
    ReplayConfig::new(PerturbationModel::quiet("lint"))
        .seed(0)
        .ack_arm(false)
        .record_graph(true)
}

/// Fingerprint of the lint rule set and its tunables, for report-level
/// cache keys: a cached lint report is only valid while the passes, their
/// default thresholds, and the replay configuration are all unchanged.
pub fn ruleset_fingerprint() -> String {
    let passes: Vec<&str> = PASSES.iter().map(|p| p.name).collect();
    format!(
        "passes={};thresholds={:?};sync={:?};replay={}",
        passes.join(","),
        PerfThresholds::default(),
        SyncOptions::default(),
        lint_replay_config().fingerprint(),
    )
}

/// Lints an in-memory trace: validation (pass 0) plus the progress-
/// simulation passes (1, 2, 5). Diagnostics come back sorted worst first
/// ([`sort_diagnostics`]). The graph-backed passes (3, 4, 6, 7) need a
/// recording replay and therefore run only under [`lint_full`].
pub fn lint_trace(trace: &MemTrace) -> Vec<Diagnostic> {
    let mut diags = mpg_trace::validate_trace_diagnostics(trace);
    diags.extend(lint_progress(trace));
    sort_diagnostics(&mut diags);
    diags
}

/// Which artifacts a [`LintPass`] reads from the [`LintContext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Needs(u8);

impl Needs {
    /// The progress simulation's [`ProgressOutcome`].
    pub const PROGRESS: Needs = Needs(1);
    /// The recorded [`EventGraph`] from the quiet replay.
    pub const GRAPH: Needs = Needs(2);
    /// The [`HbIndex`] over that graph.
    pub const HB: Needs = Needs(4);

    /// Union of two requirement sets.
    pub const fn and(self, other: Needs) -> Needs {
        Needs(self.0 | other.0)
    }

    /// Does `self` include every requirement in `other`?
    pub fn includes(self, other: Needs) -> bool {
        self.0 & other.0 == other.0
    }
}

/// Shared artifacts every graph-backed pass reads. Built once per lint
/// run; immutable afterwards so independent passes can run in parallel.
pub struct LintContext<'t> {
    /// The trace under analysis.
    pub trace: &'t MemTrace,
    /// Diagnostics + matching from the lockstep progress simulation.
    pub progress: ProgressOutcome,
    /// The recorded graph, when the quiet replay succeeded.
    pub graph: Option<EventGraph>,
    /// Why the graph is absent, when it is.
    pub graph_error: Option<String>,
    /// Happens-before index over `graph`.
    pub hb: Option<HbIndex>,
}

impl<'t> LintContext<'t> {
    /// Builds the artifacts: the progress simulation and the quiet
    /// recording replay run concurrently (they are independent), then the
    /// happens-before index is derived from the graph.
    pub fn build(trace: &'t MemTrace) -> Self {
        let (progress, replayed) = std::thread::scope(|scope| {
            let graph_thread = scope.spawn(|| Replayer::new(lint_replay_config()).run(trace));
            let progress = run_progress(trace, &MatchPolicy::Recorded);
            (progress, graph_thread.join().expect("replay panicked"))
        });
        let (graph, graph_error) = match replayed {
            Ok(report) => (report.graph, None),
            Err(e) => (None, Some(e.to_string())),
        };
        let hb = graph.as_ref().map(HbIndex::build);
        LintContext {
            trace,
            progress,
            graph,
            graph_error,
            hb,
        }
    }

    /// Like [`LintContext::build`], but with the expensive artifacts
    /// memoized through a [`CacheStore`]: the recorded graph loads from
    /// its MPGA artifact when cached (skipping the recording replay) and
    /// the happens-before index from its clock blob (skipping the clock
    /// propagation). `trace_key` must be the trace's content-fingerprint
    /// key. Artifacts produced cold are published for the next run.
    /// Output is identical to the cold build by construction — the cache
    /// stores exactly what the cold path computes.
    pub fn build_cached(trace: &'t MemTrace, store: &CacheStore, trace_key: &str) -> Self {
        let cfg = lint_replay_config();
        let (progress, replayed) = std::thread::scope(|scope| {
            let graph_thread =
                scope.spawn(|| cached_recorded_graph(store, trace_key, trace, cfg.clone()));
            let progress = run_progress(trace, &MatchPolicy::Recorded);
            (progress, graph_thread.join().expect("replay panicked"))
        });
        let (graph, graph_error) = match replayed {
            Ok((graph, _hit)) => (Some(graph), None),
            Err(e) => (None, Some(e.to_string())),
        };
        let hb = graph
            .as_ref()
            .map(|g| cached_hb_index(store, trace_key, &cfg.fingerprint(), g).0);
        LintContext {
            trace,
            progress,
            graph,
            graph_error,
            hb,
        }
    }

    /// Like [`LintContext::build`], but cooperatively cancellable: the
    /// token is installed into the recording replay (checked every
    /// [`CHECK_INTERVAL`](mpg_core::CHECK_INTERVAL) events) and into the
    /// happens-before construction. When the token fires mid-build the
    /// partial graph is *discarded* — a half-stitched graph would make the
    /// graph-backed passes report phantom defects — and the context
    /// degrades to the salvage shape (progress artifacts only), exactly as
    /// if the graph could not be built. The second return value reports
    /// whether (and why) the build was cut short.
    pub fn build_cancellable(
        trace: &'t MemTrace,
        cancel: &CancelToken,
    ) -> (Self, Option<CancelReason>) {
        let cfg = lint_replay_config().cancel_token(cancel.clone());
        let (progress, replayed) = std::thread::scope(|scope| {
            let graph_thread = scope.spawn(|| Replayer::new(cfg).run(trace));
            let progress = run_progress(trace, &MatchPolicy::Recorded);
            (progress, graph_thread.join().expect("replay panicked"))
        });
        let (graph, graph_error, mut cancelled) = match replayed {
            Ok(report) => match report.cancelled {
                Some(reason) => (None, None, Some(reason)),
                None => (report.graph, None, None),
            },
            Err(e) => (None, Some(e.to_string()), None),
        };
        let hb = match (&graph, cancelled) {
            (Some(g), None) => match HbIndex::build_cancellable(g, cancel) {
                Ok(hb) => Some(hb),
                Err(reason) => {
                    cancelled = Some(reason);
                    None
                }
            },
            _ => None,
        };
        // A fired token invalidates the graph for pass scheduling too.
        let graph = if cancelled.is_some() { None } else { graph };
        (
            LintContext {
                trace,
                progress,
                graph,
                graph_error,
                hb,
            },
            cancelled,
        )
    }

    /// The artifacts this context actually has.
    fn available(&self) -> Needs {
        let mut n = Needs::PROGRESS;
        if self.graph.is_some() {
            n = n.and(Needs::GRAPH);
        }
        if self.hb.is_some() {
            n = n.and(Needs::HB);
        }
        n
    }
}

/// One lint pass: a name, the artifacts it declares, and its runner. A
/// pass whose needs are not satisfied (e.g. the graph could not be
/// stitched) is skipped.
pub struct LintPass {
    /// Short pass label (matches [`Rule::pass`](mpg_trace::Rule::pass)).
    pub name: &'static str,
    /// Artifacts the pass reads.
    pub needs: Needs,
    /// Runs the pass over the shared context. A long pass polls the
    /// optional token and returns its reason when it fires.
    pub run: fn(&LintContext<'_>, Option<&CancelToken>) -> Result<Vec<Diagnostic>, CancelReason>,
}

/// The graph-era passes [`lint_full`] schedules over one [`LintContext`].
/// (Pass 0, validation, runs before the context is built; the progress
/// diagnostics of passes 1/2/5 are computed during the build and surfaced
/// by the `progress` entry here.)
pub const PASSES: &[LintPass] = &[
    LintPass {
        name: "progress",
        needs: Needs::PROGRESS,
        run: |ctx, _| Ok(ctx.progress.diags.clone()),
    },
    LintPass {
        name: "causality",
        needs: Needs::GRAPH,
        run: |ctx, _| Ok(lint_graph(ctx.graph.as_ref().expect("needs GRAPH"))),
    },
    LintPass {
        name: "race",
        needs: Needs::PROGRESS.and(Needs::HB),
        run: |ctx, cancel| {
            hb_races::find_races_cancellable(
                ctx.trace,
                &ctx.progress.matching,
                ctx.hb.as_ref().expect("needs HB"),
                cancel,
            )
            .map(hb_races::race_diags)
        },
    },
    LintPass {
        name: "perf",
        needs: Needs::GRAPH,
        run: |ctx, _| {
            Ok(lint_perf(
                ctx.trace,
                ctx.graph.as_ref().expect("needs GRAPH"),
                &PerfThresholds::default(),
            ))
        },
    },
    LintPass {
        name: "sync",
        needs: Needs::PROGRESS.and(Needs::GRAPH).and(Needs::HB),
        run: |ctx, _| {
            Ok(lint_sync(
                ctx.trace,
                ctx.graph.as_ref().expect("needs GRAPH"),
                ctx.hb.as_ref().expect("needs HB"),
                &ctx.progress.matching,
                &SyncOptions::default(),
            ))
        },
    },
    // Pass 8 ships with a zero budget: registered (so the ruleset
    // fingerprint and `--rules` advertise it) but inert under plain
    // `lint_full`, whose output stays bit-identical. `lint_explore`
    // drives it with a real budget.
    LintPass {
        name: "explore",
        needs: Needs::PROGRESS.and(Needs::HB),
        run: |ctx, _| Ok(explore::explore(ctx, &ExploreOptions::default()).diags()),
    },
];

/// Full lint: validation, then the pass manager over a shared
/// [`LintContext`].
///
/// Error-severity validation findings short-circuit (the trace cannot be
/// simulated faithfully); error-severity progress findings (deadlock,
/// unmatched traffic, …) suppress the graph-backed passes, since the
/// recording replay of a defective trace would only echo the same defect
/// as an unhelpful `MPG-CYCLE`. When the earlier passes are clean but the
/// replayer still rejects the trace, that *is* reported as `MPG-CYCLE`.
/// Passes with satisfied needs run in parallel over the immutable context.
pub fn lint_full(trace: &MemTrace) -> Vec<Diagnostic> {
    lint_full_impl(trace, None)
}

/// [`lint_full`] with the graph and happens-before artifacts memoized
/// through a [`CacheStore`] (see [`LintContext::build_cached`]).
/// Diagnostics are identical to the cold path; only the artifact
/// construction is skipped on a warm cache.
pub fn lint_full_cached(trace: &MemTrace, store: &CacheStore, trace_key: &str) -> Vec<Diagnostic> {
    lint_full_impl(trace, Some((store, trace_key)))
}

/// Result of a cancellable full lint ([`lint_full_cancellable`]).
///
/// `cancelled: Some(_)` means the run was cut short: `diags` still carries
/// everything computed before the cut — validation plus, when the progress
/// simulation finished, the progress-pass findings — but the graph-backed
/// passes (3, 4, 6, 7) were skipped or their results dropped. The rule set
/// is deliberately *not* extended with a "cancelled" diagnostic: a
/// cut-short lint is an incomplete answer, not a defect in the trace.
#[derive(Debug, Clone)]
pub struct LintOutcome {
    /// Diagnostics found before the cut (sorted worst first).
    pub diags: Vec<Diagnostic>,
    /// Why the run was cut short, when it was.
    pub cancelled: Option<CancelReason>,
}

/// [`lint_full`] under a [`CancelToken`]: deadline- and cancel-aware for
/// supervised (service) runs. The token is polled while the context is
/// built and by the race pass's witness replays. A fired token degrades
/// the output to the salvage path — validation and progress findings
/// only — rather than erroring; see [`LintOutcome`].
pub fn lint_full_cancellable(trace: &MemTrace, cancel: &CancelToken) -> LintOutcome {
    let mut diags = mpg_trace::validate_trace_diagnostics(trace);
    if diags.iter().any(|d| d.severity == Severity::Error) {
        sort_diagnostics(&mut diags);
        return LintOutcome {
            diags,
            cancelled: None,
        };
    }
    let (ctx, build_cancelled) = LintContext::build_cancellable(trace, cancel);
    let (diags, pass_cancelled) = lint_over_context(diags, ctx, Some(cancel));
    LintOutcome {
        diags,
        cancelled: build_cancelled.or(pass_cancelled),
    }
}

fn lint_full_impl(trace: &MemTrace, cache: Option<(&CacheStore, &str)>) -> Vec<Diagnostic> {
    let mut diags = mpg_trace::validate_trace_diagnostics(trace);
    if diags.iter().any(|d| d.severity == Severity::Error) {
        sort_diagnostics(&mut diags);
        return diags;
    }
    let ctx = match cache {
        Some((store, trace_key)) => LintContext::build_cached(trace, store, trace_key),
        None => LintContext::build(trace),
    };
    lint_over_context(diags, ctx, None).0
}

/// Shared back half of [`lint_full_impl`] and [`lint_full_cancellable`]:
/// progress-error short-circuit, graph-stitch reporting, then the parallel
/// pass schedule over whatever artifacts the context has. When `cancel`
/// fires inside a pass, every pass result is dropped and the salvage
/// shape (validation plus progress findings) comes back with the reason.
fn lint_over_context(
    mut diags: Vec<Diagnostic>,
    ctx: LintContext<'_>,
    cancel: Option<&CancelToken>,
) -> (Vec<Diagnostic>, Option<CancelReason>) {
    let progress_errors = ctx
        .progress
        .diags
        .iter()
        .any(|d| d.severity == Severity::Error);
    if progress_errors {
        diags.extend(ctx.progress.diags);
        sort_diagnostics(&mut diags);
        return (diags, None);
    }
    let available = ctx.available();
    if let Some(e) = &ctx.graph_error {
        diags.push(Diagnostic::new(
            Rule::Cycle,
            format!("event graph could not be stitched: {e}"),
        ));
    }
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = PASSES
            .iter()
            .filter(|pass| available.includes(pass.needs))
            .map(|pass| scope.spawn(|| (pass.run)(&ctx, cancel)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lint pass panicked"))
            .collect::<Result<Vec<_>, CancelReason>>()
    });
    let cancelled = match results {
        Ok(results) => {
            diags.extend(results.into_iter().flatten());
            None
        }
        Err(reason) => {
            diags.extend(ctx.progress.diags);
            Some(reason)
        }
    };
    sort_diagnostics(&mut diags);
    (diags, cancelled)
}

/// Lints a trace recovered by the salvage reader
/// ([`FileTraceSet::load_salvage`](mpg_trace::FileTraceSet::load_salvage)),
/// merging the salvage findings (`MPG-TRUNCATED-TRACE`, `MPG-MISSING-RANK`)
/// into the static-analysis output. The salvage rules default to warning
/// severity so a recovered trace still lints; pass them to `--deny` (or
/// escalate them before gating) to make salvaged input a hard failure.
pub fn lint_salvaged(trace: &MemTrace, salvage: &mpg_trace::SalvageReport) -> Vec<Diagnostic> {
    let mut diags = salvage.diagnostics();
    diags.extend(lint_full(trace));
    sort_diagnostics(&mut diags);
    diags
}

/// Pass 6 on its own: runs the wait-state/slack analysis over a recorded
/// graph and returns the threshold-gated performance findings
/// (`MPG-LATE-SENDER`, `MPG-COLLECTIVE-IMBALANCE`, `MPG-SERIAL-CHAIN`).
/// Used by [`lint_full`] and by `mpgtool analyze` (which also renders the
/// underlying [`PerfReport`]).
pub fn lint_perf(
    trace: &MemTrace,
    graph: &mpg_core::EventGraph,
    thresholds: &PerfThresholds,
) -> Vec<Diagnostic> {
    let report = analyze_graph(trace, graph);
    let mut diags = lint_waitstates(&report, thresholds);
    diags.extend(lint_chains(&report, thresholds));
    diags
}

/// A [`TraceGate`] that runs [`lint_trace`]; install it with
/// [`ReplayConfig::gate`](mpg_core::ReplayConfig::gate) to make
/// `Replayer::run` fail with `ReplayError::Gated` on error-severity
/// diagnostics instead of replaying a defective trace.
pub fn replay_gate() -> TraceGate {
    TraceGate::new(lint_trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpg_trace::{EventKind, EventRecord};

    fn one_rank_trace(kinds: Vec<EventKind>) -> MemTrace {
        let mut mt = MemTrace::new(1);
        for (i, kind) in kinds.into_iter().enumerate() {
            let t = i as u64 * 10;
            mt.push(EventRecord {
                rank: 0,
                seq: i as u64,
                t_start: t,
                t_end: t + 10,
                kind,
            });
        }
        mt
    }

    #[test]
    fn trivial_trace_is_clean() {
        let mt = one_rank_trace(vec![
            EventKind::Init,
            EventKind::Compute { work: 10 },
            EventKind::Finalize,
        ]);
        assert!(lint_trace(&mt).is_empty());
        assert!(lint_full(&mt).is_empty());
    }

    #[test]
    fn context_builds_all_artifacts_on_clean_trace() {
        let mt = one_rank_trace(vec![
            EventKind::Init,
            EventKind::Compute { work: 10 },
            EventKind::Finalize,
        ]);
        let ctx = LintContext::build(&mt);
        assert!(ctx.graph.is_some());
        assert!(ctx.hb.is_some());
        assert!(ctx.graph_error.is_none());
        assert!(ctx.progress.matching.completed);
        let available = ctx.available();
        for pass in PASSES {
            assert!(
                available.includes(pass.needs),
                "pass {} should be runnable on a clean trace",
                pass.name
            );
        }
    }

    #[test]
    fn cached_lint_matches_cold_on_miss_and_hit() {
        let mt = {
            let mut t = MemTrace::new(2);
            let mut push = |rank, seq, t0, kind| {
                t.push(mpg_trace::EventRecord {
                    rank,
                    seq,
                    t_start: t0,
                    t_end: t0 + 10,
                    kind,
                })
            };
            push(0, 0, 0, EventKind::Init);
            push(0, 1, 10, EventKind::Compute { work: 10 });
            push(0, 2, 20, EventKind::Finalize);
            push(1, 0, 0, EventKind::Init);
            push(1, 1, 10, EventKind::Compute { work: 10 });
            push(1, 2, 20, EventKind::Finalize);
            t
        };
        let dir = std::env::temp_dir().join(format!("mpg-lint-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CacheStore::open(&dir).unwrap();
        let cold = lint_full(&mt);
        let miss = lint_full_cached(&mt, &store, "unit-key");
        let hit = lint_full_cached(&mt, &store, "unit-key");
        assert_eq!(cold, miss);
        assert_eq!(cold, hit);
        assert!(
            !store.ls().is_empty(),
            "cached lint should publish artifacts"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancellable_lint_matches_and_degrades() {
        let mt = one_rank_trace(vec![
            EventKind::Init,
            EventKind::Compute { work: 10 },
            EventKind::Finalize,
        ]);
        // Live token: identical to the plain full lint.
        let live = CancelToken::new();
        let out = lint_full_cancellable(&mt, &live);
        assert!(out.cancelled.is_none());
        assert_eq!(out.diags, lint_full(&mt));
        // Pre-fired token: degrades to the salvage shape (progress-only),
        // reports the cut, and never invents diagnostics.
        let fired = CancelToken::new();
        fired.cancel();
        let out = lint_full_cancellable(&mt, &fired);
        assert_eq!(out.cancelled, Some(CancelReason::Cancelled));
        assert_eq!(out.diags, lint_trace(&mt));
    }

    /// Four ranks; rank 0 drains three wildcard receives, so the race
    /// pass has witnesses to replay.
    fn gather_any_trace() -> MemTrace {
        mpg_sim::Simulation::new(4, mpg_noise::PlatformSignature::quiet("cancel-race"))
            .ideal_clocks()
            .seed(3)
            .run(|ctx| {
                if ctx.rank() == 0 {
                    for _ in 1..4 {
                        ctx.recv(mpg_trace::ANY_SOURCE, 0);
                    }
                } else {
                    ctx.send(0, 0, 64);
                }
            })
            .expect("gather simulates")
            .trace
    }

    #[test]
    fn token_firing_inside_the_race_pass_degrades_to_salvage() {
        let mt = gather_any_trace();
        let full = lint_full(&mt);
        assert!(full.iter().any(|d| d.rule == Rule::WildRace), "{full:?}");
        // Polls the context build makes on its own.
        let probe = CancelToken::new();
        let (_ctx, cut) = LintContext::build_cancellable(&mt, &probe);
        assert!(cut.is_none());
        let build_polls = probe.checks();
        // A live token sees the build's polls plus the race pass's.
        let live = CancelToken::new();
        let out = lint_full_cancellable(&mt, &live);
        assert!(out.cancelled.is_none());
        assert_eq!(out.diags, full);
        assert!(live.checks() > build_polls, "the race pass must poll");
        // Fire on the first poll after the build: inside the witness loop.
        let token = CancelToken::new();
        token.fire_after_checks(build_polls + 1);
        let out = lint_full_cancellable(&mt, &token);
        assert_eq!(out.cancelled, Some(CancelReason::Cancelled));
        assert_eq!(token.checks(), build_polls + 1);
        assert_eq!(
            out.diags,
            lint_trace(&mt),
            "salvage shape, no partial race list"
        );
        // The explore verb carries the same token into the pass manager.
        let token = CancelToken::new();
        token.fire_after_checks(build_polls + 1);
        let opts = ExploreOptions {
            cancel: Some(token),
            ..ExploreOptions::default()
        };
        let out = lint_explore(&mt, &opts);
        assert_eq!(out.cancelled, Some(CancelReason::Cancelled));
        assert_eq!(out.diags, lint_trace(&mt));
    }

    #[test]
    fn needs_algebra() {
        let both = Needs::PROGRESS.and(Needs::GRAPH);
        assert!(both.includes(Needs::PROGRESS));
        assert!(both.includes(Needs::GRAPH));
        assert!(!both.includes(Needs::HB));
        assert!(both.includes(both));
    }

    #[test]
    fn salvaged_lint_merges_salvage_findings() {
        use mpg_trace::{RankSalvage, SalvageReport};
        // A clean single-rank trace, but the salvage report says rank 1's
        // file was missing: the lint output must carry MPG-MISSING-RANK so
        // `--deny MPG-MISSING-RANK` can reject salvaged input.
        let mt = one_rank_trace(vec![
            EventKind::Init,
            EventKind::Compute { work: 10 },
            EventKind::Finalize,
        ]);
        let salvage = SalvageReport {
            ranks: vec![RankSalvage::missing(1)],
        };
        let diags = lint_salvaged(&mt, &salvage);
        assert!(
            diags.iter().any(|d| d.rule == Rule::MissingRank),
            "{diags:?}"
        );
    }

    #[test]
    fn gate_rejects_defective_trace() {
        // Missing Init/Finalize: two error diagnostics from pass 0.
        let mt = one_rank_trace(vec![EventKind::Compute { work: 10 }]);
        let gate = replay_gate();
        let errors: Vec<_> = gate
            .check(&mt)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(!errors.is_empty());
    }
}
