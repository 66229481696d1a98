//! MPI message-matching engine.
//!
//! Implements the envelope-matching rules the analyzer later relies on
//! (§4.1: every message event in a completed run has a counterpart):
//!
//! * **Non-overtaking**: messages from one sender to one receiver that match
//!   the same receive pattern are matched in send order.
//! * **Posted-receive order**: an arriving send matches the *earliest posted*
//!   receive whose `(source, tag)` pattern accepts it.
//! * **Wildcard receives** (`ANY_SOURCE`) choose among candidate messages by
//!   earliest arrival time (ties broken by source rank) — a deterministic
//!   stand-in for "whichever message got there first".
//!
//! The semantics live in the generic [`EnvelopeMatcher`], parameterized
//! over anything implementing [`SendEnvelope`]/[`RecvEnvelope`], so other
//! consumers (notably `mpg-lint`'s static match-resolution pass) reuse the
//! exact same matching rules on their own lightweight envelope types. The
//! simulator's [`MatchEngine`] is a thin wrapper instantiated with
//! [`MsgInFlight`]/[`PostedRecv`].

use std::collections::{HashMap, VecDeque};

use crate::message::{MsgInFlight, PostedRecv};
use mpg_trace::{Rank, Tag, ANY_SOURCE, ANY_TAG};

/// The send side of a message envelope, as the matcher sees it.
pub trait SendEnvelope {
    /// Sender rank.
    fn src(&self) -> Rank;
    /// Destination rank.
    fn dst(&self) -> Rank;
    /// Message tag.
    fn tag(&self) -> Tag;
    /// Arrival stamp used to order wildcard candidates (any monotone
    /// quantity; the simulator uses global arrival time).
    fn arrival(&self) -> u64;
}

/// The receive side of a message envelope, as the matcher sees it.
pub trait RecvEnvelope {
    /// Receiver rank.
    fn dst(&self) -> Rank;
    /// Source pattern (`ANY_SOURCE` allowed).
    fn src_pattern(&self) -> Rank;
    /// Tag pattern (`ANY_TAG` allowed).
    fn tag_pattern(&self) -> Tag;

    /// Does this receive accept a message with `(src, tag)`?
    fn accepts(&self, src: Rank, tag: Tag) -> bool {
        (self.src_pattern() == ANY_SOURCE || self.src_pattern() == src)
            && (self.tag_pattern() == ANY_TAG || self.tag_pattern() == tag)
    }
}

impl SendEnvelope for MsgInFlight {
    fn src(&self) -> Rank {
        self.src
    }

    fn dst(&self) -> Rank {
        self.dst
    }

    fn tag(&self) -> Tag {
        self.tag
    }

    fn arrival(&self) -> u64 {
        self.arrival
    }
}

impl RecvEnvelope for PostedRecv {
    fn dst(&self) -> Rank {
        self.dst
    }

    fn src_pattern(&self) -> Rank {
        self.src_pattern
    }

    fn tag_pattern(&self) -> Tag {
        self.tag_pattern
    }
}

/// Pure matching state over generic envelopes: in-flight (unexpected)
/// messages and posted receives.
#[derive(Debug, Clone)]
pub struct EnvelopeMatcher<S, R> {
    /// Unmatched sends, FIFO per (src, dst) channel.
    in_flight: HashMap<(Rank, Rank), VecDeque<S>>,
    /// Unmatched posted receives per destination, in post order.
    posted: HashMap<Rank, Vec<R>>,
    next_order: u64,
}

impl<S, R> Default for EnvelopeMatcher<S, R> {
    fn default() -> Self {
        EnvelopeMatcher {
            in_flight: HashMap::new(),
            posted: HashMap::new(),
            next_order: 0,
        }
    }
}

impl<S: SendEnvelope, R: RecvEnvelope> EnvelopeMatcher<S, R> {
    /// Creates an empty matcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Monotone order stamp for posted receives.
    pub fn next_post_order(&mut self) -> u64 {
        let o = self.next_order;
        self.next_order += 1;
        o
    }

    /// Offers a send to the matcher. If a posted receive accepts it, the
    /// matched pair is returned; otherwise the message is queued.
    pub fn post_send(&mut self, msg: S) -> Option<(S, R)> {
        if let Some(posted) = self.posted.get_mut(&msg.dst()) {
            if let Some(i) = posted
                .iter()
                .position(|pr| pr.accepts(msg.src(), msg.tag()))
            {
                let pr = posted.remove(i);
                if posted.is_empty() {
                    self.posted.remove(&msg.dst());
                }
                return Some((msg, pr));
            }
        }
        self.in_flight
            .entry((msg.src(), msg.dst()))
            .or_default()
            .push_back(msg);
        None
    }

    /// Offers a posted receive. If an in-flight message matches, the matched
    /// pair is returned; otherwise the receive is queued.
    pub fn post_recv(&mut self, pr: R) -> Option<(S, R)> {
        if pr.src_pattern() == ANY_SOURCE {
            // Candidate = first pattern-matching message per source channel;
            // choose the earliest arrival (then lowest source) for
            // determinism.
            let mut best: Option<(u64, Rank, usize)> = None;
            for (&(src, dst), q) in &self.in_flight {
                if dst != pr.dst() {
                    continue;
                }
                if let Some(i) = q.iter().position(|m| pr.accepts(m.src(), m.tag())) {
                    let key = (q[i].arrival(), src, i);
                    if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                        best = Some(key);
                    }
                }
            }
            if let Some((_, src, i)) = best {
                let q = self.in_flight.get_mut(&(src, pr.dst())).unwrap();
                let msg = q.remove(i).unwrap();
                if q.is_empty() {
                    self.in_flight.remove(&(src, pr.dst()));
                }
                return Some((msg, pr));
            }
        } else if let Some(q) = self.in_flight.get_mut(&(pr.src_pattern(), pr.dst())) {
            if let Some(i) = q.iter().position(|m| pr.accepts(m.src(), m.tag())) {
                let msg = q.remove(i).unwrap();
                if q.is_empty() {
                    self.in_flight.remove(&(pr.src_pattern(), pr.dst()));
                }
                return Some((msg, pr));
            }
        }
        self.posted.entry(pr.dst()).or_default().push(pr);
        None
    }

    /// Distinct source ranks with an in-flight message this receive would
    /// accept, sorted ascending. For a wildcard receive, two or more
    /// feasible sources at match time is exactly the nondeterminism the
    /// `MPG-WILD-RACE` lint reports.
    pub fn candidate_sources(&self, pr: &R) -> Vec<Rank> {
        let mut srcs: Vec<Rank> = self
            .in_flight
            .iter()
            .filter(|(&(_, dst), q)| {
                dst == pr.dst() && q.iter().any(|m| pr.accepts(m.src(), m.tag()))
            })
            .map(|(&(src, _), _)| src)
            .collect();
        srcs.sort_unstable();
        srcs
    }

    /// Number of unmatched in-flight messages (bounded-memory accounting for
    /// the windowed analyzer and for leak checks at finalize).
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.values().map(VecDeque::len).sum()
    }

    /// Number of unmatched posted receives.
    pub fn posted_count(&self) -> usize {
        self.posted.values().map(Vec::len).sum()
    }

    /// Every unmatched in-flight message, channel by channel.
    pub fn iter_in_flight(&self) -> impl Iterator<Item = &S> {
        self.in_flight.values().flatten()
    }

    /// Every unmatched posted receive.
    pub fn iter_posted(&self) -> impl Iterator<Item = &R> {
        self.posted.values().flatten()
    }

    /// Consume the matcher, returning the leftover unmatched sends and
    /// receives in deterministic order (sends by channel then FIFO,
    /// receives by destination then post order).
    pub fn into_unmatched(self) -> (Vec<S>, Vec<R>) {
        let mut channels: Vec<((Rank, Rank), VecDeque<S>)> = self.in_flight.into_iter().collect();
        channels.sort_by_key(|&(ch, _)| ch);
        let sends = channels.into_iter().flat_map(|(_, q)| q).collect();
        let mut dests: Vec<(Rank, Vec<R>)> = self.posted.into_iter().collect();
        dests.sort_by_key(|&(d, _)| d);
        let recvs = dests.into_iter().flat_map(|(_, q)| q).collect();
        (sends, recvs)
    }
}

/// The simulator's matching state over [`MsgInFlight`]/[`PostedRecv`].
#[derive(Debug, Default)]
pub struct MatchEngine {
    inner: EnvelopeMatcher<MsgInFlight, PostedRecv>,
}

impl MatchEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Monotone order stamp for posted receives.
    pub fn next_post_order(&mut self) -> u64 {
        self.inner.next_post_order()
    }

    /// Offers a send to the engine. If a posted receive accepts it, the
    /// matched pair is returned; otherwise the message is queued.
    pub fn post_send(&mut self, msg: MsgInFlight) -> Option<(MsgInFlight, PostedRecv)> {
        self.inner.post_send(msg)
    }

    /// Offers a posted receive. If an in-flight message matches, the matched
    /// pair is returned; otherwise the receive is queued.
    pub fn post_recv(&mut self, pr: PostedRecv) -> Option<(MsgInFlight, PostedRecv)> {
        self.inner.post_recv(pr)
    }

    /// Number of unmatched in-flight messages (bounded-memory accounting for
    /// the windowed analyzer and for leak checks at finalize).
    pub fn in_flight_count(&self) -> usize {
        self.inner.in_flight_count()
    }

    /// Number of unmatched posted receives.
    pub fn posted_count(&self) -> usize {
        self.inner.posted_count()
    }

    /// Human-readable dump of unmatched state (deadlock diagnostics).
    pub fn dump(&self) -> String {
        let mut counts: HashMap<(Rank, Rank), usize> = HashMap::new();
        for m in self.inner.iter_in_flight() {
            *counts.entry((m.src, m.dst)).or_default() += 1;
        }
        let mut parts = Vec::new();
        for ((s, d), n) in counts {
            parts.push(format!("{n} unmatched msg(s) {s}->{d}"));
        }
        for pr in self.inner.iter_posted() {
            parts.push(format!(
                "recv posted on {} for src={} tag={}",
                pr.dst, pr.src_pattern, pr.tag_pattern
            ));
        }
        parts.sort();
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Party;
    use mpg_trace::{ANY_SOURCE, ANY_TAG};

    fn msg(src: Rank, dst: Rank, tag: u32, arrival: u64) -> MsgInFlight {
        MsgInFlight {
            src,
            dst,
            tag,
            bytes: 8,
            send_enter: 0,
            arrival,
            ack_latency: 0,
            sender: Party::Blocking,
            sender_done: false,
        }
    }

    fn recv(dst: Rank, src: Rank, tag: u32, order: u64) -> PostedRecv {
        PostedRecv {
            dst,
            src_pattern: src,
            tag_pattern: tag,
            posted_at: 0,
            receiver: Party::Blocking,
            order,
        }
    }

    #[test]
    fn send_then_recv_matches() {
        let mut e = MatchEngine::new();
        assert!(e.post_send(msg(0, 1, 5, 100)).is_none());
        let (m, _) = e.post_recv(recv(1, 0, 5, 0)).expect("should match");
        assert_eq!(m.tag, 5);
        assert_eq!(e.in_flight_count(), 0);
        assert_eq!(e.posted_count(), 0);
    }

    #[test]
    fn recv_then_send_matches() {
        let mut e = MatchEngine::new();
        assert!(e.post_recv(recv(1, 0, 5, 0)).is_none());
        let (_, pr) = e.post_send(msg(0, 1, 5, 100)).expect("should match");
        assert_eq!(pr.tag_pattern, 5);
    }

    #[test]
    fn non_overtaking_same_pattern() {
        let mut e = MatchEngine::new();
        e.post_send(msg(0, 1, 5, 300)); // first sent, arrives later
        e.post_send(msg(0, 1, 5, 100));
        let (m, _) = e.post_recv(recv(1, 0, 5, 0)).unwrap();
        // Send order wins over arrival order within a channel.
        assert_eq!(m.arrival, 300);
    }

    #[test]
    fn tag_selectivity_skips_non_matching() {
        let mut e = MatchEngine::new();
        e.post_send(msg(0, 1, 3, 100));
        e.post_send(msg(0, 1, 5, 200));
        let (m, _) = e.post_recv(recv(1, 0, 5, 0)).unwrap();
        assert_eq!(m.tag, 5);
        assert_eq!(e.in_flight_count(), 1); // tag-3 message still queued
    }

    #[test]
    fn posted_receive_order_respected() {
        let mut e = MatchEngine::new();
        e.post_recv(recv(1, 0, ANY_TAG, 0));
        e.post_recv(recv(1, 0, 5, 1));
        let (_, pr) = e.post_send(msg(0, 1, 5, 100)).unwrap();
        // Earliest posted matching receive (the ANY_TAG one) wins.
        assert_eq!(pr.order, 0);
    }

    #[test]
    fn any_source_picks_earliest_arrival() {
        let mut e = MatchEngine::new();
        e.post_send(msg(2, 1, 5, 500));
        e.post_send(msg(3, 1, 5, 200));
        let (m, _) = e.post_recv(recv(1, ANY_SOURCE, 5, 0)).unwrap();
        assert_eq!(m.src, 3);
        // Next wildcard gets the remaining one.
        let (m2, _) = e.post_recv(recv(1, ANY_SOURCE, 5, 1)).unwrap();
        assert_eq!(m2.src, 2);
    }

    #[test]
    fn any_source_tie_breaks_by_rank() {
        let mut e = MatchEngine::new();
        e.post_send(msg(7, 1, 5, 100));
        e.post_send(msg(2, 1, 5, 100));
        let (m, _) = e.post_recv(recv(1, ANY_SOURCE, 5, 0)).unwrap();
        assert_eq!(m.src, 2);
    }

    #[test]
    fn wrong_destination_never_matches() {
        let mut e = MatchEngine::new();
        e.post_send(msg(0, 2, 5, 100));
        assert!(e.post_recv(recv(1, 0, 5, 0)).is_none());
        assert_eq!(e.in_flight_count(), 1);
        assert_eq!(e.posted_count(), 1);
    }

    #[test]
    fn dump_mentions_leftovers() {
        let mut e = MatchEngine::new();
        e.post_send(msg(0, 2, 5, 100));
        e.post_recv(recv(1, 0, 5, 0));
        let d = e.dump();
        assert!(d.contains("0->2"));
        assert!(d.contains("recv posted on 1"));
    }

    #[test]
    fn candidate_sources_reports_feasible_senders() {
        let mut e = EnvelopeMatcher::<MsgInFlight, PostedRecv>::new();
        e.post_send(msg(3, 1, 5, 100));
        e.post_send(msg(2, 1, 5, 200));
        e.post_send(msg(4, 1, 9, 300)); // wrong tag
        e.post_send(msg(5, 0, 5, 400)); // wrong destination
        let pr = recv(1, ANY_SOURCE, 5, 0);
        assert_eq!(e.candidate_sources(&pr), vec![2, 3]);
        let specific = recv(1, 2, 5, 1);
        assert_eq!(e.candidate_sources(&specific), vec![2]);
    }

    #[test]
    fn into_unmatched_is_deterministic() {
        let mut e = EnvelopeMatcher::<MsgInFlight, PostedRecv>::new();
        e.post_send(msg(2, 1, 5, 200));
        e.post_send(msg(0, 1, 5, 100));
        e.post_recv(recv(3, 0, 7, 0));
        let (sends, recvs) = e.into_unmatched();
        let chans: Vec<(Rank, Rank)> = sends.iter().map(|m| (m.src, m.dst)).collect();
        assert_eq!(chans, vec![(0, 1), (2, 1)]);
        assert_eq!(recvs.len(), 1);
        assert_eq!(recvs[0].dst, 3);
    }

    #[test]
    fn sends_never_leave_empty_posted_queues() {
        let mut m: EnvelopeMatcher<MsgInFlight, PostedRecv> = EnvelopeMatcher::new();
        for dst in 1..64 {
            assert!(m.post_send(msg(0, dst, 0, u64::from(dst))).is_none());
        }
        assert!(
            m.posted.is_empty(),
            "unmatched sends must not add posted keys"
        );
        let o = m.next_post_order();
        assert!(m.post_recv(recv(5, 0, 7, o)).is_none());
        assert!(m.post_send(msg(0, 5, 7, 100)).is_some());
        assert!(
            m.posted.is_empty(),
            "matching the last posted receive drops its queue"
        );
    }
}
