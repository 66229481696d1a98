//! Property tests for the pass-8 schedule-space explorer.
//!
//! Random SPMD programs heavy on wildcard receives are simulated, then
//! explored under a real budget. Two invariants:
//!
//! 1. **Every finding re-replays to its claimed outcome.** An
//!    `MPG-MAY-DEADLOCK` plan, fed back through the shared forced-replay
//!    path, must deadlock again; an `MPG-SCHEDULE-DIVERGENCE` plan must
//!    complete and reproduce the claimed makespan shift. The explorer
//!    can miss; it cannot lie.
//! 2. **A zero budget is a no-op.** `lint_explore` at budget 0 must be
//!    bit-identical to plain `lint_full` — the pass ships registered but
//!    inert, and pre-explorer output never changes.
//! 3. **Forking is exact.** A [`Forker`] replay of any plan — including
//!    plans that fork behind its driver or name receives the recorded run
//!    never offers — equals the from-scratch `forced_replay` field for
//!    field.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use mpg_core::forced::{ForcedOutcome, MatchPlan};
use mpg_lint::{
    forced_replay, lint_explore, lint_full, matching_makespan, ExploreFindingKind, ExploreOptions,
    Forker, LintContext,
};
use mpg_noise::PlatformSignature;
use mpg_sim::RankCtx;
use mpg_trace::{EventKind, ANY_SOURCE};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Round {
    Compute(u64),
    /// Everyone sends to the root; the root drains `p − 1` wildcards.
    GatherAny {
        root: u32,
        tag: u32,
        bytes: u64,
    },
    /// Ring where every receive is a wildcard.
    RingAny {
        tag: u32,
        bytes: u64,
    },
    /// The root drains one wildcard and then one *specific* receive —
    /// the pinned-consumer shape where may-deadlocks hide.
    GatherPinned {
        root: u32,
        tag: u32,
        bytes: u64,
    },
    Barrier,
}

fn run_round(ctx: &mut RankCtx, round: &Round) {
    let p = ctx.size();
    let me = ctx.rank();
    match *round {
        Round::Compute(work) => ctx.compute(work),
        Round::GatherAny { root, tag, bytes } => {
            let root = root % p;
            if me == root {
                for _ in 1..p {
                    ctx.recv(ANY_SOURCE, tag);
                }
            } else {
                ctx.send(root, tag, bytes);
            }
        }
        Round::RingAny { tag, bytes } => {
            let r = ctx.irecv(ANY_SOURCE, tag);
            let s = ctx.isend((me + 1) % p, tag, bytes);
            ctx.waitall(&[r, s]);
        }
        Round::GatherPinned { root, tag, bytes } => {
            let root = root % p;
            let pinned = (root + 1) % p;
            if me == root {
                ctx.recv(ANY_SOURCE, tag);
                ctx.recv(pinned, tag);
            } else if me == pinned {
                ctx.send(root, tag, bytes);
                ctx.send(root, tag, bytes);
            }
        }
        Round::Barrier => ctx.barrier(),
    }
}

fn round_strategy() -> impl Strategy<Value = Round> {
    prop_oneof![
        (1u64..10_000).prop_map(Round::Compute),
        (0u32..8, 0u32..3, 1u64..2_048).prop_map(|(root, tag, bytes)| Round::GatherAny {
            root,
            tag,
            bytes
        }),
        (0u32..3, 1u64..2_048).prop_map(|(tag, bytes)| Round::RingAny { tag, bytes }),
        (0u32..8, 0u32..3, 1u64..2_048).prop_map(|(root, tag, bytes)| Round::GatherPinned {
            root,
            tag,
            bytes
        }),
        Just(Round::Barrier),
    ]
}

fn trace_of(p: u32, sim_seed: u64, rounds: &[Round]) -> mpg_trace::MemTrace {
    mpg_sim::Simulation::new(p, PlatformSignature::quiet("prop-explore"))
        .ideal_clocks()
        .seed(sim_seed)
        .run(|ctx| {
            for round in rounds {
                run_round(ctx, round);
            }
        })
        .expect("generated program simulates")
        .trace
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn every_finding_rereplays_to_its_claimed_outcome(
        p in 2u32..6,
        sim_seed in 0u64..1_000,
        explore_seed in 0u64..8,
        rounds in prop::collection::vec(round_strategy(), 1..5),
    ) {
        let trace = trace_of(p, sim_seed, &rounds);
        let opts = ExploreOptions {
            budget: 24,
            depth: 2,
            divergence_pct: 10.0,
            seed: explore_seed,
            cancel: None,
        };
        let out = lint_explore(&trace, &opts);
        prop_assert!(out.stats.explored <= opts.budget);
        if !out.stats.budget_exhausted && out.stats.cancelled.is_none() {
            prop_assert_eq!(out.stats.frontier_unexplored, 0,
                "drained frontier must report zero unexplored");
        }
        let ctx = LintContext::build(&trace);
        let base = matching_makespan(&trace, &ctx.progress.matching);
        for f in &out.findings {
            let rep = forced_replay(&trace, &f.plan);
            match &f.kind {
                ExploreFindingKind::MayDeadlock { cycle } => {
                    prop_assert_eq!(rep.outcome, ForcedOutcome::Deadlocked,
                        "may-deadlock plan must deadlock on re-replay: {:?}", f.plan);
                    prop_assert!(!cycle.is_empty(), "cycle names its ranks");
                }
                ExploreFindingKind::Divergence { base: b, alt, pct } => {
                    prop_assert_eq!(rep.outcome, ForcedOutcome::Completed,
                        "divergence plan must complete on re-replay: {:?}", f.plan);
                    prop_assert_eq!(Some(*b), base, "claimed baseline is the recorded one");
                    let re_alt = matching_makespan(&trace, &rep.matching)
                        .expect("completed matching has a makespan");
                    prop_assert_eq!(re_alt, *alt, "claimed alternate makespan reproduces");
                    prop_assert!(*pct > opts.divergence_pct);
                }
            }
        }
    }

    #[test]
    fn budget_zero_is_bit_identical_to_lint_full(
        p in 2u32..6,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(), 1..5),
    ) {
        let trace = trace_of(p, sim_seed, &rounds);
        let out = lint_explore(&trace, &ExploreOptions::default());
        prop_assert_eq!(out.diags, lint_full(&trace));
        prop_assert!(out.findings.is_empty());
        prop_assert_eq!(out.stats, mpg_lint::ExploreStats::default());
    }
}

/// A plan's raw draw: per forced receive, which receive event (taken
/// modulo the trace's receive count), the forced source, and a 1-in-8
/// chance of naming a receive that does not exist (never offered).
type PlanDraw = Vec<(usize, u32, u8)>;

fn plan_of(draw: &PlanDraw, recvs: &[(u32, u64)], p: u32) -> MatchPlan {
    draw.iter()
        .fold(MatchPlan::new(), |plan, (pick, src, ghost)| {
            let (rank, seq) = recvs[pick % recvs.len()];
            let seq = if *ghost == 0 { seq + 1_000 } else { seq };
            plan.force((rank, seq), src % p)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn forked_replay_equals_from_scratch_replay(
        p in 2u32..6,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(), 1..5),
        draws in prop::collection::vec(
            prop::collection::vec((0usize..1_000, 0u32..8, 0u8..8), 1..4),
            1..6,
        ),
    ) {
        let trace = trace_of(p, sim_seed, &rounds);
        let recvs: Vec<(u32, u64)> = (0..trace.num_ranks())
            .flat_map(|r| trace.rank(r))
            .filter(|ev| matches!(ev.kind, EventKind::Recv { .. } | EventKind::Irecv { .. }))
            .map(|ev| (ev.rank, ev.seq))
            .collect();
        let plans: Vec<MatchPlan> = if recvs.is_empty() {
            Vec::new()
        } else {
            draws.iter().map(|d| plan_of(d, &recvs, p)).collect()
        };
        let mut forker = Forker::new(&trace);
        // The drawn order, then latest fork point first: the second pass
        // keeps forking behind the driver.
        let mut latest_first = plans.clone();
        latest_first.sort_by_key(|plan| Reverse(forker.fork_point(plan)));
        for plan in plans.iter().chain(&latest_first) {
            let forked = forker.replay(plan);
            let scratch = forced_replay(&trace, plan);
            prop_assert_eq!(forked.outcome, scratch.outcome, "plan [{}]", plan);
            prop_assert_eq!(&forked.matching.sends, &scratch.matching.sends);
            prop_assert_eq!(&forked.matching.pairs, &scratch.matching.pairs);
            prop_assert_eq!(forked.matching.completed, scratch.matching.completed);
            prop_assert_eq!(&forked.diags, &scratch.diags);
        }
        let forks: BTreeSet<usize> = plans.iter().filter_map(|plan| forker.fork_point(plan)).collect();
        if forks.len() >= 2 {
            prop_assert!(forker.restarts() > 0, "a fork behind the driver must restart it");
        }
    }
}
