//! Property tests tying the static slack analyzer to the dynamic replay
//! engine.
//!
//! Random deadlock-free SPMD programs (the same round shapes the lane and
//! scheduler proptests use) are simulated on ideal clocks and quiet-replayed
//! into a recorded graph; three families of properties must then hold:
//!
//! 1. **Schedule fidelity** — the zero-drift forward sweep under effective
//!    costs reproduces every observed subevent time exactly
//!    (`retime_mismatches == 0`) with no causality clamps.
//! 2. **Exact slack semantics** — for *every* edge, inflating its effective
//!    cost by exactly `slack(e)` leaves the makespan unchanged, and by
//!    `slack(e) + 1` grows it by exactly 1: slack is the maximum absorbable
//!    delay, not an approximation.
//! 3. **Static ⇄ dynamic equivalence** — for constant perturbation models,
//!    [`predicted_graph`] must equal a real recording replay edge-for-edge
//!    (structure, classes *and* sampled deltas), so the predicted critical
//!    path equals the replayed one; and every edge on the replayed binding
//!    chain has zero drift-slack.
//! 4. **Chain table** — the one-pass chain table (`SlackSweep::chain_table`
//!    and `mpg_lint::rank_chains` on top of it) equals independent
//!    per-anchor [`SlackSweep::chain_from`] walks, field for field and in
//!    the same order, including `ranks_touched` where chains share long
//!    suffixes and revisit ranks.

use std::collections::HashMap;

use mpg_core::{
    critical_path, drift_slack, predicted_graph, ChainTotals, Cycles, EventGraph, NodeId,
    PerturbationModel, Point, ReplayConfig, Replayer, SlackSweep,
};
use mpg_lint::{rank_chains, ChainSummary};
use mpg_noise::{Dist, PlatformSignature};
use mpg_sim::RankCtx;
use proptest::prelude::*;

/// One deadlock-free communication round; every rank executes the same
/// sequence, so blocking calls always have a matching partner.
#[derive(Debug, Clone)]
enum Round {
    Compute(u64),
    /// Nonblocking ring: irecv from the left, isend to the right, waitall.
    Ring {
        tag: u32,
        bytes: u64,
    },
    /// Blocking sendrecv shifted by `shift` ranks.
    Shift {
        shift: u32,
        tag: u32,
        bytes: u64,
    },
    /// Even/odd paired blocking exchange (odd rank out sits idle).
    Pair {
        tag: u32,
        bytes: u64,
    },
    Barrier,
    Allreduce {
        bytes: u64,
    },
    Bcast {
        root: u32,
        bytes: u64,
    },
}

fn run_round(ctx: &mut RankCtx, round: &Round) {
    let p = ctx.size();
    let me = ctx.rank();
    match *round {
        Round::Compute(work) => ctx.compute(work),
        Round::Ring { tag, bytes } => {
            let r = ctx.irecv((me + p - 1) % p, tag);
            let s = ctx.isend((me + 1) % p, tag, bytes);
            ctx.waitall(&[r, s]);
        }
        Round::Shift { shift, tag, bytes } => {
            let shift = 1 + shift % (p - 1).max(1);
            ctx.sendrecv((me + shift) % p, tag, bytes, (me + p - shift) % p, tag);
        }
        Round::Pair { tag, bytes } => {
            if me.is_multiple_of(2) {
                if me + 1 < p {
                    ctx.send(me + 1, tag, bytes);
                    ctx.recv(me + 1, tag);
                }
            } else {
                ctx.recv(me - 1, tag);
                ctx.send(me - 1, tag, bytes);
            }
        }
        Round::Barrier => ctx.barrier(),
        Round::Allreduce { bytes } => ctx.allreduce(bytes),
        Round::Bcast { root, bytes } => ctx.bcast(root % p, bytes),
    }
}

fn round_strategy() -> impl Strategy<Value = Round> {
    prop_oneof![
        (1u64..20_000).prop_map(Round::Compute),
        (0u32..4, 1u64..4_096).prop_map(|(tag, bytes)| Round::Ring { tag, bytes }),
        (0u32..8, 0u32..4, 1u64..4_096).prop_map(|(shift, tag, bytes)| Round::Shift {
            shift,
            tag,
            bytes
        }),
        (0u32..4, 1u64..4_096).prop_map(|(tag, bytes)| Round::Pair { tag, bytes }),
        Just(Round::Barrier),
        (1u64..2_048).prop_map(|bytes| Round::Allreduce { bytes }),
        (0u32..8, 1u64..2_048).prop_map(|(root, bytes)| Round::Bcast { root, bytes }),
    ]
}

/// Simulates a random program on ideal clocks and quiet-replays it into a
/// recorded event graph.
fn record(p: u32, sim_seed: u64, rounds: &[Round]) -> EventGraph {
    record_program(p, sim_seed, |ctx| {
        for round in rounds {
            run_round(ctx, round);
        }
    })
}

/// [`record`] for an arbitrary per-rank program.
fn record_program(p: u32, sim_seed: u64, program: impl Fn(&mut RankCtx) + Sync) -> EventGraph {
    let trace = mpg_sim::Simulation::new(p, PlatformSignature::quiet("prop"))
        .ideal_clocks()
        .seed(sim_seed)
        .run(program)
        .expect("generated program simulates")
        .trace;
    Replayer::new(
        ReplayConfig::new(PerturbationModel::quiet("record"))
            .seed(0)
            .record_graph(true),
    )
    .run(&trace)
    .expect("quiet replay succeeds")
    .graph
    .expect("graph recorded")
}

/// The per-rank final end subevents whose max earliest time is the
/// makespan — recomputed here independently of the sweep.
fn final_ends(graph: &EventGraph) -> Vec<NodeId> {
    let mut finals: HashMap<u32, NodeId> = HashMap::new();
    for (node, _) in graph.nodes() {
        if node.hub || node.point != Point::End {
            continue;
        }
        let slot = finals.entry(node.rank).or_insert(node);
        if node.seq > slot.seq {
            *slot = node;
        }
    }
    finals.into_values().collect()
}

/// The chain-table oracle: one independent [`SlackSweep::chain_from`] walk
/// per rank's final end subevent, summarized and sorted the way
/// [`rank_chains`] documents (finish descending, then rank).
fn rank_chains_oracle(graph: &EventGraph, sweep: &SlackSweep) -> Vec<ChainSummary> {
    let mut chains: Vec<ChainSummary> = final_ends(graph)
        .into_iter()
        .map(|anchor| {
            let path = sweep.chain_from(graph, anchor);
            ChainSummary {
                rank: anchor.rank,
                finish: path.finish,
                steps: path.edges.len(),
                message_hops: path.message_hops,
                ranks_touched: path.ranks_touched,
                wait_cycles: path.wait_cycles,
            }
        })
        .collect();
    chains.sort_by(|a, b| b.finish.cmp(&a.finish).then_with(|| a.rank.cmp(&b.rank)));
    chains
}

/// Every labeled node as an anchor, in graph order: start nodes, interior
/// end nodes and ends whose chains merge early, so the table's forest is
/// far denser than with one anchor per rank.
fn all_anchor_table_matches_walks(graph: &EventGraph, sweep: &SlackSweep) -> Result<(), String> {
    let anchors: Vec<NodeId> = graph.nodes().map(|(n, _)| n).collect();
    let table = sweep.chain_table(graph, &anchors);
    let walks: Vec<ChainTotals> = anchors
        .iter()
        .map(|&a| ChainTotals::from(&sweep.chain_from(graph, a)))
        .collect();
    if table == walks {
        Ok(())
    } else {
        Err(format!(
            "chain table {table:?}\n!= per-anchor walks {walks:?}"
        ))
    }
}

/// Independent forward sweep with one edge's cost inflated by `extra`.
fn makespan_with(graph: &EventGraph, sweep: &SlackSweep, on: usize, extra: Cycles) -> Cycles {
    let mut earliest: HashMap<NodeId, Cycles> = HashMap::new();
    for (i, e) in graph.edges().enumerate() {
        let c = sweep.cost(i) + if i == on { extra } else { 0 };
        let cand = earliest.get(&e.src).copied().unwrap_or(0) + c;
        let slot = earliest.entry(e.dst).or_insert(0);
        *slot = (*slot).max(cand);
    }
    final_ends(graph)
        .iter()
        .map(|n| earliest.get(n).copied().unwrap_or(0))
        .max()
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Properties 1 and 2: the sweep reproduces the ideal-clock schedule
    /// exactly, and every edge's slack is the exact maximum absorbable
    /// delay (brute-forced by re-running the forward sweep per edge).
    #[test]
    fn sweep_is_exact_and_slack_is_max_absorbable_delay(
        p in 2u32..7,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(), 1..7),
    ) {
        let graph = record(p, sim_seed, &rounds);
        let sweep = SlackSweep::sweep(&graph);

        // Ideal clocks: re-timing is exact, no causality violations, and
        // the forward sweep lands every node on its observed time.
        prop_assert_eq!(sweep.retime_mismatches, 0);
        prop_assert_eq!(sweep.causality_clamps, 0);

        // The static critical path is a chain of zero-slack edges from the
        // makespan anchor back to time zero.
        let path = sweep.static_critical_path(&graph).expect("nonempty graph");
        prop_assert_eq!(path.finish, sweep.makespan);
        for &i in &path.edges {
            prop_assert_eq!(sweep.slack(i), 0, "edge {} on the critical path", i);
        }

        // Brute-force oracle, every edge: +slack keeps the makespan,
        // +slack+1 grows it by exactly one cycle.
        for i in 0..graph.edge_count() {
            let sl = sweep.slack(i);
            prop_assert_eq!(
                makespan_with(&graph, &sweep, i, sl),
                sweep.makespan,
                "edge {} absorbs its slack {}",
                i, sl
            );
            prop_assert_eq!(
                makespan_with(&graph, &sweep, i, sl + 1),
                sweep.makespan + 1,
                "edge {} slack {} must be maximal",
                i, sl
            );
        }
    }

    /// Property 4: the one-pass chain table equals independent per-anchor
    /// walks — `rank_chains` field for field and in order, and the raw
    /// table for every labeled node as an anchor.
    #[test]
    fn chain_table_matches_per_anchor_walks(
        p in 2u32..9,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(), 1..9),
    ) {
        let graph = record(p, sim_seed, &rounds);
        let sweep = SlackSweep::sweep(&graph);
        prop_assert_eq!(rank_chains(&graph, &sweep), rank_chains_oracle(&graph, &sweep));
        if let Err(msg) = all_anchor_table_matches_walks(&graph, &sweep) {
            prop_assert!(false, "{}", msg);
        }
    }

    /// Property 3: for constant models the static prediction equals the
    /// dynamic replay — same graph, same deltas, same critical path — and
    /// the replayed binding chain is exactly the zero-drift-slack chain.
    #[test]
    fn constant_model_prediction_matches_replay(
        p in 2u32..7,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(), 1..7),
        os_const in 0u32..400,
        lat_const in 0u32..400,
        replay_seed in 0u64..1_000,
    ) {
        let trace = mpg_sim::Simulation::new(p, PlatformSignature::quiet("prop"))
            .ideal_clocks()
            .seed(sim_seed)
            .run(|ctx| {
                for round in &rounds {
                    run_round(ctx, round);
                }
            })
            .expect("generated program simulates")
            .trace;

        let mut model = PerturbationModel::quiet("const");
        if os_const > 0 {
            model.os_local = Dist::Constant(f64::from(os_const)).into();
        }
        if lat_const > 0 {
            model.latency = Dist::Constant(f64::from(lat_const)).into();
        }

        // Quiet recording replay -> static prediction.
        let base = Replayer::new(
            ReplayConfig::new(PerturbationModel::quiet("record"))
                .seed(0)
                .record_graph(true),
        )
        .run(&trace)
        .expect("quiet replay succeeds")
        .graph
        .expect("graph recorded");
        let predicted = predicted_graph(&base, &model).expect("constant model is predictable");

        // Real recording replay under the same model.
        let real = Replayer::new(
            ReplayConfig::new(model).seed(replay_seed).record_graph(true),
        )
        .run(&trace)
        .expect("constant replay succeeds")
        .graph
        .expect("graph recorded");

        // Edge-for-edge equality, sampled deltas included.
        prop_assert_eq!(
            predicted.edges().collect::<Vec<_>>(),
            real.edges().collect::<Vec<_>>()
        );
        let pred_labels: HashMap<_, _> = predicted.nodes().collect();
        let real_labels: HashMap<_, _> = real.nodes().collect();
        prop_assert_eq!(pred_labels, real_labels);
        prop_assert_eq!(predicted.final_drifts(), real.final_drifts());

        // The statically predicted critical path IS the replayed one.
        let cp_pred = critical_path(&predicted);
        let cp_real = critical_path(&real);
        prop_assert_eq!(&cp_pred, &cp_real);

        // Zero drift-slack exactly along the binding chain.
        let ds = drift_slack(&real);
        prop_assert_eq!(cp_real.is_some(), ds.is_some());
        if let (Some(cp), Some(ds)) = (cp_real, ds) {
            for step in &cp.steps {
                let i = real
                    .edges()
                    .position(|e| e == step.edge)
                    .expect("critical step is a graph edge");
                prop_assert_eq!(
                    ds.slack[i],
                    Some(0),
                    "binding-chain edge {} has zero drift-slack",
                    i
                );
            }
        }
    }
}

/// A blocking token ring: the token laps the ring several times, so every
/// rank's final chain runs back through the same long suffix of hops and
/// passes through each rank more than once. Memoising `steps` down the
/// shared suffix is then essential, and an additive `ranks_touched` would
/// count every rank once per lap.
#[test]
fn token_ring_chains_share_suffixes_and_revisit_ranks() {
    const P: u32 = 6;
    const LAPS: u32 = 4;
    let graph = record_program(P, 3, |ctx| {
        let (me, p) = (ctx.rank(), ctx.size());
        for _ in 0..LAPS {
            if me == 0 {
                ctx.compute(5_000);
                ctx.send(1, 0, 64);
                ctx.recv(p - 1, 0);
            } else {
                ctx.recv(me - 1, 0);
                ctx.compute(5_000);
                ctx.send((me + 1) % p, 0, 64);
            }
        }
    });
    let sweep = SlackSweep::sweep(&graph);
    let chains = rank_chains(&graph, &sweep);
    assert_eq!(chains, rank_chains_oracle(&graph, &sweep));
    all_anchor_table_matches_walks(&graph, &sweep).unwrap();

    assert_eq!(chains.len(), P as usize);
    for c in &chains {
        // Every chain laps the ring: it touches each rank, but through
        // more hops than there are ranks.
        assert_eq!(c.ranks_touched, P as usize, "{c:?}");
        assert!(c.message_hops > P as usize, "{c:?}");
    }
    // The chains overlap: their steps sum to more than the distinct edges
    // they cover, so the table really shares suffixes.
    let mut covered = std::collections::BTreeSet::new();
    for anchor in final_ends(&graph) {
        covered.extend(sweep.chain_from(&graph, anchor).edges);
    }
    let total: usize = chains.iter().map(|c| c.steps).sum();
    assert!(
        total > 2 * covered.len(),
        "steps {total}, distinct {}",
        covered.len()
    );
}
