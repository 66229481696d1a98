//! The lockstep progress simulation behind lint passes 1, 2 and 5.
//!
//! §4.1 assumes traces describe a *completed* run: "every message event has
//! a counterpart". This module checks that assumption constructively by
//! re-executing the traced program under conservative MPI semantics —
//! standard/buffered/ready sends complete eagerly, synchronous sends and
//! receives block until matched, waits block until their receive requests
//! resolve, collectives block until every rank arrives — and reports every
//! way the schedule fails to exist:
//!
//! * leftover unmatched envelopes (`MPG-UNMATCHED-SEND`/`-RECV`), refined
//!   to `MPG-TAG-MISMATCH` when a leftover pair agrees on the channel but
//!   not the tag;
//! * matched pairs disagreeing on payload size (`MPG-COUNT-MISMATCH`);
//! * peers outside the communicator (`MPG-BAD-PEER`);
//! * cycles in the wait-for graph at quiescence (`MPG-DEADLOCK`, Tarjan
//!   SCC, naming the ranks and blocked operations on the cycle);
//! * ranks disagreeing on the collective sequence (`MPG-COLLECTIVE-SKEW`).
//!
//! Beyond diagnostics, the simulation returns the [`Matching`] it
//! computed — every offered send and every matched send/receive pair with
//! its completion point — which the happens-before passes (`hb_races`,
//! `sync`) consume. A [`MatchPolicy`] can force chosen wildcard receives
//! onto alternate sources: re-running under such a policy and checking
//! [`Matching::completed`] is how a race witness is validated as a real
//! alternate schedule. [`Forker`] runs many such replays off one shared
//! recorded prefix.
//!
//! Matching reuses the simulator's [`EnvelopeMatcher`] so the lint passes
//! and the runtime share one implementation of the non-overtaking,
//! posted-order, wildcard-arbitration rules.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

use crate::envelope::{LintRecv, LintSend};
use mpg_core::forced::{ForcedOutcome, MatchPlan};
use mpg_sim::EnvelopeMatcher;
use mpg_trace::{
    Diagnostic, EventKind, EventRecord, MemTrace, Rank, ReqId, Rule, SendProtocol, Seq, Tag,
    ANY_SOURCE, ANY_TAG,
};

/// How the simulation resolves receive patterns.
#[derive(Debug, Clone, Default)]
pub enum MatchPolicy {
    /// Every receive posts its recorded (matched) source — the schedule
    /// the trace itself describes.
    #[default]
    Recorded,
    /// The receives named by the [`MatchPlan`] post their forced source
    /// pattern instead of the recorded one; all other receives stay
    /// recorded. Used to replay a race witness: force the racy wildcard
    /// onto its alternate sender (and the receive that originally
    /// consumed that sender onto the displaced one) and see whether the
    /// program still runs to completion.
    Witness(MatchPlan),
}

impl MatchPolicy {
    fn src_pattern(&self, rank: Rank, seq: Seq, recorded: Rank) -> Rank {
        match self {
            MatchPolicy::Recorded => recorded,
            MatchPolicy::Witness(plan) => plan.source_for((rank, seq), recorded),
        }
    }
}

/// One send the simulation offered to the matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendRec {
    /// Sending rank.
    pub src: Rank,
    /// Sequence number of the send event.
    pub seq: Seq,
    /// Destination rank.
    pub dst: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Payload size.
    pub bytes: u64,
    /// True when the send completes without a rendezvous (standard /
    /// buffered / ready blocking sends and every isend): the message can
    /// sit in the receiver's eager buffer until consumed.
    pub eager: bool,
}

/// One matched send/receive pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchPair {
    /// `(rank, seq)` of the send event.
    pub send: (Rank, Seq),
    /// `(rank, seq)` of the receive event (the irecv for nonblocking).
    pub recv: (Rank, Seq),
    /// Sequence number, on the receiving rank, of the event that
    /// *completed* the receive: the recv itself when blocking, the wait
    /// that resolved the request when nonblocking.
    pub completion: Seq,
    /// Tag of the matched message.
    pub tag: Tag,
    /// True when the receive was posted with `MPI_ANY_SOURCE`.
    pub posted_any: bool,
}

/// The communication structure the simulation established.
#[derive(Debug, Clone, Default)]
pub struct Matching {
    /// Every send offered to the matcher, in issue order.
    pub sends: Vec<SendRec>,
    /// Every matched pair, in match order.
    pub pairs: Vec<MatchPair>,
    /// True when every rank ran its program to the end (no rank stuck at
    /// quiescence). Witness replays key off this.
    pub completed: bool,
}

/// Diagnostics plus the matching they were derived from.
#[derive(Debug, Clone, Default)]
pub struct ProgressOutcome {
    /// Findings of passes 1, 2 and 5.
    pub diags: Vec<Diagnostic>,
    /// The send/receive structure, for the happens-before passes.
    pub matching: Matching,
}

/// Runs passes 1, 2 and 5 over an in-memory trace (diagnostics only).
pub fn lint_progress(trace: &MemTrace) -> Vec<Diagnostic> {
    run_progress(trace, &MatchPolicy::Recorded).diags
}

/// Runs the progress simulation under `policy`, returning diagnostics and
/// the matching.
pub fn run_progress(trace: &MemTrace, policy: &MatchPolicy) -> ProgressOutcome {
    if trace.num_ranks() == 0 {
        return ProgressOutcome::default();
    }
    let mut sim = Sim::new(Rc::new(Prep::new(trace)), policy.clone());
    sim.run_until(None);
    sim.finish()
}

/// Result of re-replaying the trace under a forced-match plan: the
/// matching the forced schedule established plus its classified
/// [`ForcedOutcome`].
#[derive(Debug, Clone)]
pub struct ForcedReplay {
    /// What the forced schedule did.
    pub outcome: ForcedOutcome,
    /// The matching the forced replay established.
    pub matching: Matching,
    /// Diagnostics the forced replay raised (deadlock cycles, leftover
    /// envelopes). For a `Deadlocked` outcome the `MPG-DEADLOCK` entries
    /// name the concrete wait-for cycle.
    pub diags: Vec<Diagnostic>,
}

impl ForcedReplay {
    fn classify(out: ProgressOutcome) -> Self {
        let outcome = if out.matching.completed {
            ForcedOutcome::Completed
        } else if out.diags.iter().any(|d| d.rule == Rule::Deadlock) {
            ForcedOutcome::Deadlocked
        } else {
            ForcedOutcome::Stuck
        };
        ForcedReplay {
            outcome,
            matching: out.matching,
            diags: out.diags,
        }
    }
}

/// The single forced-replay contract: re-executes the trace under `plan`
/// from scratch and classifies what happened. Pass 4's witness
/// validation and the pass-8 explorer get the same answer through
/// [`Forker`], so a forced-match sequence printed by any finding
/// re-replays identically here.
pub fn forced_replay(trace: &MemTrace, plan: &MatchPlan) -> ForcedReplay {
    ForcedReplay::classify(run_progress(trace, &MatchPolicy::Witness(plan.clone())))
}

/// Forced replays that share the recorded prefix.
///
/// A forced run is identical to the recorded run until the first forced
/// receive is *offered*: the policy is read only then
/// ([`MatchPolicy`] picks the posted source pattern), and everything
/// before it — program counters, matcher queues, the round-robin cursor —
/// evolves exactly as in the recorded run. So the forker keeps one
/// recorded "driver" simulation that only moves forward. For each plan it
/// advances the driver to the plan's *fork point* (its earliest-offered
/// forced receive, in the recorded run's offer order), clones it, switches
/// the clone to the plan, and runs the clone to quiescence. The result is
/// field-for-field what [`forced_replay`] computes from scratch.
///
/// Visiting plans in fork-point order never rewinds; a plan that forks
/// behind the driver restarts it from scratch. At most the driver and one
/// clone are live at a time.
pub struct Forker<'a> {
    prep: Rc<Prep<'a>>,
    /// Every receive offer of the recorded run, in offer order, as
    /// (rank index, event index).
    offers: Vec<(usize, usize)>,
    /// Position in `offers` of each receive's first offer.
    first_offer: HashMap<(Rank, Seq), usize>,
    driver: Sim<'a>,
    restarts: u64,
    steps: u64,
}

impl<'a> Forker<'a> {
    /// Prescans `trace` once and runs one recorded simulation to learn
    /// the receive offer order.
    pub fn new(trace: &'a MemTrace) -> Self {
        let prep = Rc::new(Prep::new(trace));
        let mut order = Sim::new(prep.clone(), MatchPolicy::Recorded);
        order.offer_log = Some(Vec::new());
        order.run_until(None);
        let offers = order.offer_log.take().unwrap_or_default();
        let mut first_offer = HashMap::with_capacity(offers.len());
        for (pos, &(r, i)) in offers.iter().enumerate() {
            let ev = &trace.rank(r)[i];
            first_offer.entry((ev.rank, ev.seq)).or_insert(pos);
        }
        Forker {
            driver: Sim::new(prep.clone(), MatchPolicy::Recorded),
            prep,
            offers,
            first_offer,
            restarts: 0,
            steps: 0,
        }
    }

    /// Where `plan` leaves the recorded run: the offer position of its
    /// earliest-offered forced receive. `None` when the recorded run never
    /// offers any of them (say, a skipped bad-peer receive) — the forced
    /// run is then the recorded run.
    pub fn fork_point(&self, plan: &MatchPlan) -> Option<usize> {
        plan.forced()
            .iter()
            .filter_map(|f| self.first_offer.get(&f.recv).copied())
            .min()
    }

    /// [`forced_replay`] of `plan`, forked from the shared prefix.
    pub fn replay(&mut self, plan: &MatchPlan) -> ForcedReplay {
        if self.prep.p == 0 {
            return ForcedReplay::classify(ProgressOutcome::default());
        }
        let fork = self.fork_point(plan);
        if fork.is_some_and(|f| self.driver.recv_offers > f) {
            self.driver = Sim::new(self.prep.clone(), MatchPolicy::Recorded);
            self.restarts += 1;
        }
        let start = self.driver.steps;
        self.driver.run_until(fork.map(|f| self.offers[f]));
        let mut sim = self.driver.clone();
        sim.policy = MatchPolicy::Witness(plan.clone());
        sim.run_until(None);
        self.steps += sim.steps - start;
        ForcedReplay::classify(sim.finish())
    }

    /// How many times a plan forked behind the driver and forced a
    /// restart from scratch.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Events simulated so far (driver advances plus forked suffixes) —
    /// the work measure cancellation polling is amortized over.
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }
}

/// State of one nonblocking request during the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqState {
    /// An isend: completes locally under the eager assumption.
    SendDone,
    /// An irecv posted at `seq`, expecting a message from `src`.
    RecvPending {
        /// Expected source (the recorded matched peer).
        src: Rank,
        /// Sequence number of the initiating irecv.
        seq: Seq,
    },
    /// An irecv whose message arrived; `pair` indexes the matching's pair
    /// list so the resolving wait can stamp the completion point.
    RecvDone {
        /// Index into `Sim::pairs`, when the irecv actually matched.
        pair: Option<usize>,
    },
}

/// Signature a rank presents when arriving at a collective epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CollSig {
    kind: &'static str,
    root: Option<Rank>,
    bytes: Option<u64>,
    comm_size: u32,
}

impl fmt::Display for CollSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.kind)?;
        if let Some(root) = self.root {
            write!(f, "root={root}, ")?;
        }
        if let Some(bytes) = self.bytes {
            write!(f, "{bytes}B, ")?;
        }
        write!(f, "comm={})", self.comm_size)
    }
}

fn coll_sig(kind: &EventKind) -> Option<CollSig> {
    let (name, root, bytes, comm_size) = match *kind {
        EventKind::Barrier { comm_size } => ("barrier", None, None, comm_size),
        EventKind::Bcast {
            root,
            bytes,
            comm_size,
        } => ("bcast", Some(root), Some(bytes), comm_size),
        EventKind::Reduce {
            root,
            bytes,
            comm_size,
        } => ("reduce", Some(root), Some(bytes), comm_size),
        EventKind::Allreduce { bytes, comm_size } => ("allreduce", None, Some(bytes), comm_size),
        EventKind::Scatter {
            root,
            bytes,
            comm_size,
        } => ("scatter", Some(root), Some(bytes), comm_size),
        EventKind::Gather {
            root,
            bytes,
            comm_size,
        } => ("gather", Some(root), Some(bytes), comm_size),
        EventKind::Allgather { bytes, comm_size } => ("allgather", None, Some(bytes), comm_size),
        EventKind::Alltoall { bytes, comm_size } => ("alltoall", None, Some(bytes), comm_size),
        _ => return None,
    };
    Some(CollSig {
        kind: name,
        root,
        bytes,
        comm_size,
    })
}

/// One collective epoch: the k-th collective event on each rank (the same
/// grouping the replayer uses — sub-communicator collectives are expanded
/// to point-to-point traffic by the tracer, so traced collectives are
/// always world-sized).
#[derive(Clone)]
struct EpochSlot {
    sig: CollSig,
    first: (Rank, Seq),
    arrived: Vec<(Rank, Seq)>,
    skews: Vec<String>,
}

/// A set of `(rank, seq)` ids as a dense per-rank column: one flag per
/// id whose seq lies inside its rank's event count, and a hash set for
/// the rest (only damaged traces have any). Cloning it is a memcpy.
#[derive(Debug, Clone)]
struct IdSet {
    dense: Vec<bool>,
    extra: HashSet<(Rank, Seq)>,
}

impl IdSet {
    fn new(len: usize) -> Self {
        IdSet {
            dense: vec![false; len],
            extra: HashSet::new(),
        }
    }

    fn insert(&mut self, slot: Option<usize>, id: (Rank, Seq)) {
        match slot {
            Some(i) => self.dense[i] = true,
            None => {
                self.extra.insert(id);
            }
        }
    }

    fn contains(&self, slot: Option<usize>, id: (Rank, Seq)) -> bool {
        match slot {
            Some(i) => self.dense[i],
            None => self.extra.contains(&id),
        }
    }
}

/// What every simulation of one trace shares read-only: the trace, the
/// layout of the dense `(rank, seq)` columns, and the prescan's results.
struct Prep<'a> {
    trace: &'a MemTrace,
    p: usize,
    /// `base[r]..base[r + 1]` is rank `r`'s run of a dense column.
    base: Vec<usize>,
    /// Events the simulation treats as local no-ops.
    skip: IdSet,
    /// The prescan's `MPG-BAD-PEER` findings.
    diags: Vec<Diagnostic>,
}

impl<'a> Prep<'a> {
    /// Pass over every event flagging peers outside the communicator
    /// (`MPG-BAD-PEER`) and marking events the simulation must treat as
    /// local no-ops (bad peers would never match; self-messages are
    /// already reported by validation).
    fn new(trace: &'a MemTrace) -> Self {
        let p = trace.num_ranks();
        let mut base = Vec::with_capacity(p + 1);
        base.push(0);
        for r in 0..p {
            base.push(base[r] + trace.rank(r).len());
        }
        let mut prep = Prep {
            trace,
            p,
            skip: IdSet::new(base[p]),
            base,
            diags: Vec::new(),
        };
        for r in 0..p {
            for ev in trace.rank(r) {
                let (peer, what) = match ev.kind {
                    EventKind::Send { peer, .. } | EventKind::Isend { peer, .. } => {
                        (Some(peer), "send names destination")
                    }
                    EventKind::Recv { peer, .. } | EventKind::Irecv { peer, .. } => {
                        (Some(peer), "receive names source")
                    }
                    EventKind::Bcast { root, .. }
                    | EventKind::Reduce { root, .. }
                    | EventKind::Scatter { root, .. }
                    | EventKind::Gather { root, .. } => (Some(root), "collective names root"),
                    _ => (None, ""),
                };
                let Some(peer) = peer else { continue };
                let id = (ev.rank, ev.seq);
                if peer as usize >= p {
                    prep.diags.push(
                        Diagnostic::new(
                            Rule::BadPeer,
                            format!("{what} rank {peer} but the trace has {p} ranks"),
                        )
                        .at(ev.rank, ev.seq),
                    );
                    if !ev.kind.is_collective() {
                        prep.skip.insert(prep.slot(id), id);
                    }
                } else if peer == ev.rank && !ev.kind.is_collective() {
                    // Self-messages are a validate-pass finding
                    // (MPG-SELF-MESSAGE); skip them here so the matcher
                    // never sees a rank-local channel.
                    prep.skip.insert(prep.slot(id), id);
                }
            }
        }
        prep
    }

    /// Dense-column slot of `id`, when it has one.
    fn slot(&self, (rank, seq): (Rank, Seq)) -> Option<usize> {
        let r = rank as usize;
        if r < self.p && seq < (self.base[r + 1] - self.base[r]) as u64 {
            Some(self.base[r] + seq as usize)
        } else {
            None
        }
    }

    fn skipped(&self, id: (Rank, Seq)) -> bool {
        self.skip.contains(self.slot(id), id)
    }
}

/// The lockstep progress simulation. Its polling loop visits ranks round
/// robin; the cursor and the sweep's progress flag are part of the state,
/// so a clone taken mid-run resumes in exactly the order the original
/// would have continued in.
#[derive(Clone)]
struct Sim<'a> {
    prep: Rc<Prep<'a>>,
    policy: MatchPolicy,
    pc: Vec<usize>,
    offered: Vec<bool>,
    matcher: EnvelopeMatcher<LintSend, LintRecv>,
    issue: u64,
    /// Receives offered so far: the offer position of the next one.
    recv_offers: usize,
    /// Events executed so far.
    steps: u64,
    /// When set, records every receive offer as (rank index, event index).
    offer_log: Option<Vec<(usize, usize)>>,
    matched: IdSet,
    reqs: HashMap<(usize, ReqId), ReqState>,
    coll_count: Vec<u64>,
    epochs: BTreeMap<u64, EpochSlot>,
    sends: Vec<SendRec>,
    pairs: Vec<MatchPair>,
    diags: Vec<Diagnostic>,
    /// Next rank the round-robin loop visits.
    cursor: usize,
    /// Whether the current round-robin sweep advanced any rank.
    progressed: bool,
}

impl<'a> Sim<'a> {
    fn new(prep: Rc<Prep<'a>>, policy: MatchPolicy) -> Self {
        let p = prep.p;
        Sim {
            policy,
            pc: vec![0; p],
            offered: vec![false; p],
            matcher: EnvelopeMatcher::new(),
            issue: 0,
            recv_offers: 0,
            steps: 0,
            offer_log: None,
            matched: IdSet::new(prep.base[p]),
            reqs: HashMap::new(),
            coll_count: vec![0; p],
            epochs: BTreeMap::new(),
            sends: Vec::new(),
            pairs: Vec::new(),
            diags: prep.diags.clone(),
            // A finished sweep that progressed: the first call starts a
            // fresh sweep at rank 0.
            cursor: p,
            progressed: true,
            prep,
        }
    }

    /// Runs the round-robin loop — sweep every rank, advancing each as
    /// far as it can, until a sweep advances none — and returns false at
    /// quiescence. With `stop = Some((r, i))` it returns true instead just
    /// before rank `r` offers its receive at event index `i`; a later call
    /// resumes from there.
    fn run_until(&mut self, stop: Option<(usize, usize)>) -> bool {
        loop {
            if self.cursor == self.prep.p {
                if !self.progressed {
                    return false;
                }
                self.progressed = false;
                self.cursor = 0;
                continue;
            }
            let r = self.cursor;
            if stop == Some((r, self.pc[r])) && !self.offered[r] {
                return true;
            }
            if self.step(r) {
                self.progressed = true;
                self.steps += 1;
            } else {
                self.cursor += 1;
            }
        }
    }

    fn is_matched(&self, id: (Rank, Seq)) -> bool {
        self.matched.contains(self.prep.slot(id), id)
    }

    /// Offers receive `env` (rank index `r`, event index `i`) under the
    /// policy's source pattern for it.
    fn offer_recv_at(&mut self, r: usize, i: usize, mut env: LintRecv) {
        env.src_pattern = self.policy.src_pattern(env.dst, env.seq, env.src_pattern);
        self.recv_offers += 1;
        if let Some(log) = &mut self.offer_log {
            log.push((r, i));
        }
        self.offer_recv(env);
    }

    fn next_issue(&mut self) -> u64 {
        let i = self.issue;
        self.issue += 1;
        i
    }

    fn offer_send(&mut self, env: LintSend) {
        if let Some((s, pr)) = self.matcher.post_send(env) {
            self.on_match(s, pr);
        }
    }

    fn offer_recv(&mut self, env: LintRecv) {
        if let Some((s, pr)) = self.matcher.post_recv(env) {
            self.on_match(s, pr);
        }
    }

    fn on_match(&mut self, s: LintSend, r: LintRecv) {
        if s.bytes != r.bytes {
            self.diags.push(
                Diagnostic::new(
                    Rule::CountMismatch,
                    format!(
                        "matched pair disagrees on payload: rank {} seq {} sends {} byte(s), \
                         rank {} seq {} expects {}",
                        s.src, s.seq, s.bytes, r.dst, r.seq, r.bytes
                    ),
                )
                .at(r.dst, r.seq)
                .involving([s.src]),
            );
        }
        for id in [(s.src, s.seq), (r.dst, r.seq)] {
            self.matched.insert(self.prep.slot(id), id);
        }
        let pair = self.pairs.len();
        self.pairs.push(MatchPair {
            send: (s.src, s.seq),
            recv: (r.dst, r.seq),
            completion: r.seq,
            tag: s.tag,
            posted_any: r.posted_any,
        });
        if let Some(req) = r.req {
            if let Some(st) = self.reqs.get_mut(&(r.dst as usize, req)) {
                *st = ReqState::RecvDone { pair: Some(pair) };
            }
        }
    }

    /// A wait at `seq` resolved `req`: stamp the completion point on the
    /// irecv's pair (if it matched) and drop the request.
    fn resolve_req(&mut self, r: usize, req: &ReqId, seq: Seq) {
        if let Some(ReqState::RecvDone { pair: Some(idx) }) = self.reqs.remove(&(r, *req)) {
            self.pairs[idx].completion = seq;
        }
    }

    fn req_pending(&self, r: usize, req: &ReqId) -> Option<(Rank, Seq)> {
        match self.reqs.get(&(r, *req)) {
            Some(ReqState::RecvPending { src, seq }) => Some((*src, *seq)),
            _ => None,
        }
    }

    /// Executes the current event of rank `r` if its blocking condition is
    /// satisfied. Returns true when the rank advanced.
    fn step(&mut self, r: usize) -> bool {
        let events = self.prep.trace.rank(r);
        let i = self.pc[r];
        if i >= events.len() {
            return false;
        }
        let ev = &events[i];
        let rank = ev.rank;
        let seq = ev.seq;
        let advance = match &ev.kind {
            EventKind::Init | EventKind::Finalize | EventKind::Compute { .. } => true,
            EventKind::Test { req, completed } => {
                if *completed {
                    self.resolve_req(r, req, seq);
                }
                true
            }
            EventKind::Send {
                peer,
                tag,
                bytes,
                protocol,
            } => {
                if self.prep.skipped((rank, seq)) {
                    true
                } else {
                    if !self.offered[r] {
                        self.offered[r] = true;
                        let issue = self.next_issue();
                        self.sends.push(SendRec {
                            src: rank,
                            seq,
                            dst: *peer,
                            tag: *tag,
                            bytes: *bytes,
                            eager: *protocol != SendProtocol::Synchronous,
                        });
                        let env = LintSend {
                            src: rank,
                            dst: *peer,
                            tag: *tag,
                            bytes: *bytes,
                            seq,
                            issue,
                        };
                        self.offer_send(env);
                    }
                    // Only the synchronous form waits for the match; the
                    // eager assumption keeps head-to-head standard sends
                    // from reporting false deadlocks.
                    *protocol != SendProtocol::Synchronous || self.is_matched((rank, seq))
                }
            }
            EventKind::Recv {
                peer,
                tag,
                bytes,
                posted_any,
            } => {
                if self.prep.skipped((rank, seq)) {
                    true
                } else {
                    if !self.offered[r] {
                        self.offered[r] = true;
                        let env = LintRecv {
                            dst: rank,
                            src_pattern: *peer,
                            tag_pattern: *tag,
                            bytes: *bytes,
                            seq,
                            posted_any: *posted_any,
                            req: None,
                        };
                        self.offer_recv_at(r, i, env);
                    }
                    self.is_matched((rank, seq))
                }
            }
            EventKind::Isend {
                peer,
                tag,
                bytes,
                req,
            } => {
                self.reqs.insert((r, *req), ReqState::SendDone);
                if !self.prep.skipped((rank, seq)) {
                    let issue = self.next_issue();
                    self.sends.push(SendRec {
                        src: rank,
                        seq,
                        dst: *peer,
                        tag: *tag,
                        bytes: *bytes,
                        eager: true,
                    });
                    let env = LintSend {
                        src: rank,
                        dst: *peer,
                        tag: *tag,
                        bytes: *bytes,
                        seq,
                        issue,
                    };
                    self.offer_send(env);
                }
                true
            }
            EventKind::Irecv {
                peer,
                tag,
                bytes,
                req,
                posted_any,
            } => {
                if self.prep.skipped((rank, seq)) {
                    self.reqs
                        .insert((r, *req), ReqState::RecvDone { pair: None });
                } else {
                    self.reqs
                        .insert((r, *req), ReqState::RecvPending { src: *peer, seq });
                    let env = LintRecv {
                        dst: rank,
                        src_pattern: *peer,
                        tag_pattern: *tag,
                        bytes: *bytes,
                        seq,
                        posted_any: *posted_any,
                        req: Some(*req),
                    };
                    self.offer_recv_at(r, i, env);
                }
                true
            }
            EventKind::Wait { req } => {
                if self.req_pending(r, req).is_some() {
                    false
                } else {
                    self.resolve_req(r, req, seq);
                    true
                }
            }
            EventKind::WaitAll { reqs } => {
                if reqs.iter().any(|q| self.req_pending(r, q).is_some()) {
                    false
                } else {
                    for q in reqs {
                        self.resolve_req(r, q, seq);
                    }
                    true
                }
            }
            EventKind::WaitSome { completed, .. } => {
                if completed.iter().any(|q| self.req_pending(r, q).is_some()) {
                    false
                } else {
                    for q in completed {
                        self.resolve_req(r, q, seq);
                    }
                    true
                }
            }
            kind if kind.is_collective() => {
                if !self.offered[r] {
                    self.offered[r] = true;
                    self.arrive_collective(r, ev);
                }
                let k = self.coll_count[r] - 1;
                self.epochs
                    .get(&k)
                    .is_some_and(|s| s.arrived.len() == self.prep.p)
            }
            _ => true,
        };
        if advance {
            self.pc[r] += 1;
            self.offered[r] = false;
        }
        advance
    }

    fn arrive_collective(&mut self, r: usize, ev: &EventRecord) {
        let rank = ev.rank;
        let sig = coll_sig(&ev.kind).expect("collective event");
        let k = self.coll_count[r];
        self.coll_count[r] += 1;
        let world_bad = sig.comm_size as usize != self.prep.p;
        let slot = self.epochs.entry(k).or_insert_with(|| EpochSlot {
            sig: sig.clone(),
            first: (rank, ev.seq),
            arrived: Vec::new(),
            skews: Vec::new(),
        });
        if !slot.arrived.is_empty() && slot.sig != sig {
            slot.skews.push(format!(
                "rank {} calls {} but rank {} calls {}",
                slot.first.0, slot.sig, rank, sig
            ));
        }
        if world_bad {
            slot.skews.push(format!(
                "rank {rank} names comm size {} but the trace has {} ranks",
                sig.comm_size, self.prep.p
            ));
        }
        slot.arrived.push((rank, ev.seq));
    }

    /// Wait-for edges of a rank stuck at quiescence: which ranks could
    /// unblock it.
    fn wait_edges(&self, r: usize) -> Vec<Rank> {
        let ev = &self.prep.trace.rank(r)[self.pc[r]];
        match &ev.kind {
            EventKind::Send { peer, .. } | EventKind::Recv { peer, .. } => vec![*peer],
            EventKind::Wait { req } => self
                .req_pending(r, req)
                .map(|(src, _)| src)
                .into_iter()
                .collect(),
            EventKind::WaitAll { reqs } => reqs
                .iter()
                .filter_map(|q| self.req_pending(r, q))
                .map(|(src, _)| src)
                .collect(),
            EventKind::WaitSome { completed, .. } => completed
                .iter()
                .filter_map(|q| self.req_pending(r, q))
                .map(|(src, _)| src)
                .collect(),
            kind if kind.is_collective() => {
                let k = self.coll_count[r] - 1;
                let arrived: HashSet<Rank> = self
                    .epochs
                    .get(&k)
                    .map(|s| s.arrived.iter().map(|&(rank, _)| rank).collect())
                    .unwrap_or_default();
                (0..self.prep.p as Rank)
                    .filter(|rank| !arrived.contains(rank))
                    .collect()
            }
            _ => Vec::new(),
        }
    }

    /// The envelope-bearing `(rank, seq)` ops a stuck rank contributes to a
    /// deadlock cycle (its blocked event, plus the irecvs a wait covers) —
    /// used to suppress redundant unmatched-envelope diagnostics.
    fn blocked_ops(&self, r: usize) -> Vec<(Rank, Seq)> {
        let ev = &self.prep.trace.rank(r)[self.pc[r]];
        let mut ops = vec![(ev.rank, ev.seq)];
        let reqs: &[ReqId] = match &ev.kind {
            EventKind::Wait { req } => std::slice::from_ref(req),
            EventKind::WaitAll { reqs } => reqs,
            EventKind::WaitSome { completed, .. } => completed,
            _ => &[],
        };
        for q in reqs {
            if let Some((_, seq)) = self.req_pending(r, q) {
                ops.push((ev.rank, seq));
            }
        }
        ops
    }

    fn finish(mut self) -> ProgressOutcome {
        let p = self.prep.p;
        let stuck: Vec<usize> = (0..p)
            .filter(|&r| self.pc[r] < self.prep.trace.rank(r).len())
            .collect();
        let completed = stuck.is_empty();

        // Pass 2: wait-for graph over the stuck ranks, Tarjan SCC.
        let mut cycle_ops: HashSet<(Rank, Seq)> = HashSet::new();
        if !stuck.is_empty() {
            let mut adj: HashMap<Rank, Vec<Rank>> = HashMap::new();
            for &r in &stuck {
                let mut targets = self.wait_edges(r);
                targets.sort_unstable();
                targets.dedup();
                adj.insert(r as Rank, targets);
            }
            for comp in cyclic_sccs(&adj) {
                let members: HashSet<Rank> = comp.iter().copied().collect();
                let mut parts = Vec::new();
                for &rank in &comp {
                    let r = rank as usize;
                    let ev = &self.prep.trace.rank(r)[self.pc[r]];
                    let within: Vec<Rank> = self
                        .wait_edges(r)
                        .into_iter()
                        .filter(|t| members.contains(t))
                        .collect();
                    parts.push(format!(
                        "rank {rank} blocked at {} (seq {}) waiting on {:?}",
                        ev.kind.name(),
                        ev.seq,
                        within
                    ));
                    for op in self.blocked_ops(r) {
                        cycle_ops.insert(op);
                    }
                }
                let span = {
                    let r = comp[0] as usize;
                    (comp[0], self.prep.trace.rank(r)[self.pc[r]].seq)
                };
                self.diags.push(
                    Diagnostic::new(
                        Rule::Deadlock,
                        format!("wait-for cycle among ranks {comp:?}: {}", parts.join("; ")),
                    )
                    .at(span.0, span.1)
                    .involving(comp),
                );
            }
        }

        // Pass 5: collective epoch consistency.
        for (k, slot) in &self.epochs {
            let arrived_ranks: Vec<Rank> = slot.arrived.iter().map(|&(r, _)| r).collect();
            if !slot.skews.is_empty() {
                self.diags.push(
                    Diagnostic::new(
                        Rule::CollectiveSkew,
                        format!("collective epoch {k}: {}", slot.skews.join("; ")),
                    )
                    .at(slot.first.0, slot.first.1)
                    .involving(arrived_ranks.iter().copied()),
                );
            }
            if slot.arrived.len() < p {
                let missing: Vec<Rank> = (0..p as Rank)
                    .filter(|r| !arrived_ranks.contains(r))
                    .collect();
                self.diags.push(
                    Diagnostic::new(
                        Rule::CollectiveSkew,
                        format!(
                            "collective epoch {k} ({}): ranks {missing:?} never reach it",
                            slot.sig
                        ),
                    )
                    .at(slot.first.0, slot.first.1)
                    .involving(arrived_ranks.iter().copied().chain(missing.iter().copied())),
                );
            }
        }

        // Pass 1 residue: leftover envelopes, refined into tag mismatches
        // where a send/receive pair agrees on the channel.
        let (sends, recvs) = std::mem::take(&mut self.matcher).into_unmatched();
        let sends: Vec<LintSend> = sends
            .into_iter()
            .filter(|s| !cycle_ops.contains(&(s.src, s.seq)))
            .collect();
        let recvs: Vec<LintRecv> = recvs
            .into_iter()
            .filter(|r| !cycle_ops.contains(&(r.dst, r.seq)))
            .collect();
        let mut send_used = vec![false; sends.len()];
        for rv in &recvs {
            let hit = sends.iter().enumerate().position(|(i, s)| {
                !send_used[i]
                    && s.dst == rv.dst
                    && (rv.src_pattern == ANY_SOURCE || s.src == rv.src_pattern)
                    && rv.tag_pattern != ANY_TAG
                    && s.tag != rv.tag_pattern
            });
            if let Some(i) = hit {
                send_used[i] = true;
                let s = &sends[i];
                self.diags.push(
                    Diagnostic::new(
                        Rule::TagMismatch,
                        format!(
                            "rank {} sends tag {} to rank {} (seq {}) but the receive on \
                             rank {} (seq {}) expects tag {}",
                            s.src, s.tag, s.dst, s.seq, rv.dst, rv.seq, rv.tag_pattern
                        ),
                    )
                    .at(rv.dst, rv.seq)
                    .involving([s.src]),
                );
            } else {
                let mut d = Diagnostic::new(
                    Rule::UnmatchedRecv,
                    format!(
                        "receive posted for src {} tag {} is never satisfied",
                        fmt_rank(rv.src_pattern),
                        fmt_tag(rv.tag_pattern)
                    ),
                )
                .at(rv.dst, rv.seq);
                if (rv.src_pattern as usize) < p {
                    d = d.involving([rv.src_pattern]);
                }
                self.diags.push(d);
            }
        }
        for (i, s) in sends.iter().enumerate() {
            if !send_used[i] {
                self.diags.push(
                    Diagnostic::new(
                        Rule::UnmatchedSend,
                        format!(
                            "send to rank {} (tag {}, {} byte(s)) is never received",
                            s.dst, s.tag, s.bytes
                        ),
                    )
                    .at(s.src, s.seq)
                    .involving([s.dst]),
                );
            }
        }

        ProgressOutcome {
            diags: self.diags,
            matching: Matching {
                sends: self.sends,
                pairs: self.pairs,
                completed,
            },
        }
    }
}

fn fmt_rank(r: Rank) -> String {
    if r == ANY_SOURCE {
        "ANY".to_string()
    } else {
        r.to_string()
    }
}

fn fmt_tag(t: Tag) -> String {
    if t == ANY_TAG {
        "ANY".to_string()
    } else {
        t.to_string()
    }
}

/// Tarjan's strongly-connected components over the wait-for graph,
/// returning only the cyclic components (size ≥ 2; self-loops cannot occur
/// because self-messages are excluded upstream). Components and their
/// members are returned in ascending rank order for determinism.
fn cyclic_sccs(adj: &HashMap<Rank, Vec<Rank>>) -> Vec<Vec<Rank>> {
    struct State<'g> {
        adj: &'g HashMap<Rank, Vec<Rank>>,
        index: HashMap<Rank, usize>,
        low: HashMap<Rank, usize>,
        on_stack: HashSet<Rank>,
        stack: Vec<Rank>,
        next: usize,
        out: Vec<Vec<Rank>>,
    }

    fn visit(st: &mut State<'_>, v: Rank) {
        st.index.insert(v, st.next);
        st.low.insert(v, st.next);
        st.next += 1;
        st.stack.push(v);
        st.on_stack.insert(v);
        for &w in st.adj.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
            if !st.index.contains_key(&w) {
                if st.adj.contains_key(&w) {
                    visit(st, w);
                    let lw = st.low[&w];
                    let lv = st.low.get_mut(&v).unwrap();
                    *lv = (*lv).min(lw);
                }
                // Edges to ranks that are not blocked can never close a
                // cycle; ignore them.
            } else if st.on_stack.contains(&w) {
                let iw = st.index[&w];
                let lv = st.low.get_mut(&v).unwrap();
                *lv = (*lv).min(iw);
            }
        }
        if st.low[&v] == st.index[&v] {
            let mut comp = Vec::new();
            while let Some(w) = st.stack.pop() {
                st.on_stack.remove(&w);
                comp.push(w);
                if w == v {
                    break;
                }
            }
            if comp.len() >= 2 {
                comp.sort_unstable();
                st.out.push(comp);
            }
        }
    }

    let mut nodes: Vec<Rank> = adj.keys().copied().collect();
    nodes.sort_unstable();
    let mut st = State {
        adj,
        index: HashMap::new(),
        low: HashMap::new(),
        on_stack: HashSet::new(),
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    for v in nodes {
        if !st.index.contains_key(&v) {
            visit(&mut st, v);
        }
    }
    st.out.sort();
    st.out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(ranks: Vec<Vec<EventKind>>) -> MemTrace {
        let mut mt = MemTrace::new(ranks.len());
        for (r, kinds) in ranks.into_iter().enumerate() {
            for (i, kind) in kinds.into_iter().enumerate() {
                let t = i as u64 * 10;
                mt.push(EventRecord {
                    rank: r as Rank,
                    seq: i as Seq,
                    t_start: t,
                    t_end: t + 10,
                    kind,
                });
            }
        }
        mt
    }

    fn recv(peer: Rank, posted_any: bool) -> EventKind {
        EventKind::Recv {
            peer,
            tag: 0,
            bytes: 8,
            posted_any,
        }
    }

    fn send(peer: Rank) -> EventKind {
        EventKind::Send {
            peer,
            tag: 0,
            bytes: 8,
            protocol: SendProtocol::Standard,
        }
    }

    fn assert_same(a: &ForcedReplay, b: &ForcedReplay) {
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.matching.sends, b.matching.sends);
        assert_eq!(a.matching.pairs, b.matching.pairs);
        assert_eq!(a.matching.completed, b.matching.completed);
        assert_eq!(a.diags, b.diags);
    }

    #[test]
    fn plan_on_a_never_offered_receive_replays_the_recorded_run() {
        // Rank 0's seq-1 receive names rank 9 of 3: a bad peer the
        // simulation skips, so the recorded run never offers it.
        let t = trace_of(vec![
            vec![
                EventKind::Init,
                recv(9, false),
                recv(1, true),
                recv(2, true),
                EventKind::Finalize,
            ],
            vec![EventKind::Init, send(0), EventKind::Finalize],
            vec![EventKind::Init, send(0), EventKind::Finalize],
        ]);
        let mut forker = Forker::new(&t);
        let skipped = MatchPlan::new().force((0, 1), 2);
        assert_eq!(forker.fork_point(&skipped), None);
        let forked = forker.replay(&skipped);
        assert_same(&forked, &forced_replay(&t, &skipped));
        let recorded = run_progress(&t, &MatchPolicy::Recorded);
        assert_eq!(forked.matching.pairs, recorded.matching.pairs);
        assert_eq!(forked.diags, recorded.diags);
        assert!(forked.diags.iter().any(|d| d.rule == Rule::BadPeer));

        // Real forks behind the run-to-the-end driver restart it.
        let swap = MatchPlan::new().force((0, 2), 2).force((0, 3), 1);
        assert_eq!(forker.fork_point(&swap), Some(0));
        let forked = forker.replay(&swap);
        assert_same(&forked, &forced_replay(&t, &swap));
        assert_eq!(forked.outcome, ForcedOutcome::Completed);
        assert_eq!(forker.restarts(), 1);
        let late = MatchPlan::new().force((0, 3), 1);
        assert_eq!(forker.fork_point(&late), Some(1));
        assert_same(&forker.replay(&late), &forced_replay(&t, &late));
        assert_eq!(forker.restarts(), 1, "forward forks reuse the driver");
    }

    #[test]
    fn forker_on_an_empty_trace_matches_forced_replay() {
        let t = MemTrace::new(0);
        let plan = MatchPlan::new().force((0, 0), 1);
        assert_same(&Forker::new(&t).replay(&plan), &forced_replay(&t, &plan));
    }

    #[test]
    fn scc_finds_two_cycles() {
        let mut adj = HashMap::new();
        adj.insert(0, vec![1]);
        adj.insert(1, vec![0]);
        adj.insert(2, vec![3]);
        adj.insert(3, vec![2]);
        adj.insert(4, vec![0]); // blocked on the cycle but not in it
        let comps = cyclic_sccs(&adj);
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn scc_ignores_edges_to_unblocked_ranks() {
        let mut adj = HashMap::new();
        adj.insert(0, vec![7]); // rank 7 is not blocked (absent from adj)
        assert!(cyclic_sccs(&adj).is_empty());
    }

    #[test]
    fn coll_sig_display() {
        let sig = coll_sig(&EventKind::Bcast {
            root: 2,
            bytes: 64,
            comm_size: 4,
        })
        .unwrap();
        assert_eq!(sig.to_string(), "bcast(root=2, 64B, comm=4)");
        assert_eq!(
            coll_sig(&EventKind::Barrier { comm_size: 8 })
                .unwrap()
                .to_string(),
            "barrier(comm=8)"
        );
        assert!(coll_sig(&EventKind::Init).is_none());
    }
}
