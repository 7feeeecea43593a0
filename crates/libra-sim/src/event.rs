//! The discrete-event queue.
//!
//! A binary min-heap keyed by `(time, sequence)`. The monotonically increasing
//! sequence number breaks ties deterministically in insertion order (or, for
//! an event pushed under a [reserved](EventQueue::reserve) number, in the
//! order of the reservation), which makes every simulation run
//! bit-reproducible for a given trace and seed.
//!
//! Completion events must be *rescheduled* whenever a running invocation's
//! allocation changes (harvest, acceleration, preemptive release, timeliness
//! revocation). Rather than deleting heap entries, each invocation carries a
//! generation counter: stale `Finish` events whose generation no longer
//! matches are ignored when popped. This is the standard lazy-deletion
//! technique for reschedulable timers.

use crate::fault::FaultKind;
use crate::ids::{InvocationId, NodeId};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Everything that can happen in the simulated cluster.
///
/// Trace arrivals are *not* events: the engine streams them from the sorted
/// trace, admitting each one when its arrival time is due, so the queue only
/// ever holds the dynamic future — its size tracks in-flight work, not trace
/// length.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A sharded scheduler finished its decision service time for the
    /// invocation at the head of its queue.
    DecisionDone {
        /// Scheduler shard index.
        shard: usize,
    },
    /// A container (warm or freshly cold-started) begins executing. Carries
    /// the attempt epoch it was scheduled under; after a crash requeue the
    /// epoch advances and stale starts are discarded.
    StartExec {
        /// The invocation entering execution.
        inv: InvocationId,
        /// Attempt epoch at scheduling time (lazy cancellation token).
        attempt: u32,
    },
    /// A running invocation finishes. Carries the generation it was scheduled
    /// under; stale generations are discarded.
    Finish {
        /// The finishing invocation.
        inv: InvocationId,
        /// Generation at scheduling time (lazy cancellation token).
        generation: u64,
    },
    /// Periodic per-invocation resource-usage check (the safeguard's cgroup
    /// monitor window, §5.2). Attempt-stamped like [`Event::StartExec`] so a
    /// pre-crash monitor loop dies with its attempt. Scheduled only for
    /// platforms whose
    /// [`overheads().monitor`](crate::platform::PlatformOverheads::monitor)
    /// is set.
    MonitorTick {
        /// The monitored invocation.
        inv: InvocationId,
        /// Attempt epoch the monitor loop belongs to.
        attempt: u32,
    },
    /// Periodic per-node health ping carrying the harvest pool status
    /// piggyback (§6.4).
    HealthPing(NodeId),
    /// Periodic cluster-wide utilization sample (for Figs 7 and 11).
    UtilizationSample,
    /// Re-run blocked scheduler queues after capacity was released.
    RetryBlocked {
        /// Scheduler shard index.
        shard: usize,
    },
    /// An injected fault fires, carrying the fault itself — the engine does
    /// not need to keep the whole [`FaultPlan`](crate::fault::FaultPlan)
    /// alive to look it up by index.
    Fault(FaultKind),
    /// A crash/abort victim's backoff expired; re-admit it to a scheduler.
    Requeue(InvocationId),
    /// A keep-alive policy's prewarm directive fires: spin up a warm
    /// container for the function at its last execution site (if the node
    /// is alive and the slice has room). Only pushed when
    /// [`Platform::prewarm_after_arrival`](crate::platform::Platform::prewarm_after_arrival)
    /// returns `Some` — the default policy never schedules one, keeping
    /// event sequence numbers (and therefore golden traces) unchanged.
    Prewarm {
        /// Function to prewarm.
        func: crate::ids::FunctionId,
        /// Node to place the warm container on.
        node: NodeId,
        /// Scheduler shard whose slice carries the pin.
        shard: usize,
    },
}

#[derive(Clone, Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic future-event list.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
    pushes: u64,
    pops: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.reserve();
        self.push_reserved(at, seq, event);
    }

    /// Hand out the next sequence number without scheduling anything, for
    /// an event that keeps an earlier heap entry but must break ties as if
    /// it had been pushed now.
    pub fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at `at` under a sequence number from [`reserve`](Self::reserve).
    pub fn push_reserved(&mut self, at: SimTime, seq: u64, event: Event) {
        debug_assert!(seq < self.next_seq, "sequence number {seq} was never reserved");
        self.pushes += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Pop the earliest event with its sequence number, if any.
    pub fn pop(&mut self) -> Option<(SimTime, u64, Event)> {
        let popped = self.heap.pop().map(|s| (s.at, s.seq, s.event));
        self.pops += u64::from(popped.is_some());
        popped
    }

    /// Whether the next event is due at `at` and sorts before `seq`.
    pub fn next_precedes(&self, at: SimTime, seq: u64) -> bool {
        self.heap.peek().is_some_and(|s| s.at == at && s.seq < seq)
    }

    /// Lifetime operation counters `(pushes, pops)` — the denominator for
    /// the benchmark's events/sec figure. Both count heap operations only;
    /// reserved sequence numbers are not pushes.
    pub fn ops(&self) -> (u64, u64) {
        (self.pushes, self.pops)
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv(n: u32) -> InvocationId {
        InvocationId(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), Event::Requeue(inv(3)));
        q.push(SimTime::from_millis(10), Event::Requeue(inv(1)));
        q.push(SimTime::from_millis(20), Event::Requeue(inv(2)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(t, ..)| t.as_micros()).collect();
        assert_eq!(order, vec![10_000, 20_000, 30_000]);
        assert_eq!(q.ops(), (3, 3));
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.push(t, Event::Requeue(inv(i)));
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(.., e)| match e {
                Event::Requeue(i) => i.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_secs(1), Event::UtilizationSample);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        let (t, _, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(1));
        assert_eq!(e, Event::UtilizationSample);
        assert!(q.pop().is_none());
    }

    #[test]
    fn reserved_sequence_numbers_break_ties_at_reservation_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.push(t, Event::Requeue(inv(0)));
        q.push(t, Event::Requeue(inv(1)));
        let late = q.reserve();
        q.push(t, Event::Requeue(inv(3)));
        let (_, first, _) = q.pop().unwrap();
        assert!(!q.next_precedes(t, first), "nothing queued sorts before the popped event");
        assert!(q.next_precedes(t, late), "inv 1 was pushed before the reservation");
        assert!(!q.next_precedes(SimTime::from_millis(4), late), "inv 1 is due later");
        q.push_reserved(t, late, Event::Requeue(inv(2)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(.., e)| e).collect();
        let want: Vec<_> = (1..4).map(|i| Event::Requeue(inv(i))).collect();
        assert_eq!(order, want);
        assert_eq!(q.ops(), (4, 4), "a reservation is not a push");
    }
}
