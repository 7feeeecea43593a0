//! Invocation traces.
//!
//! A trace is simply a time-ordered list of `(arrival, function, input)`
//! triples. Generators that mimic the Azure Functions trace statistics live
//! in `libra-workloads`; this module only defines the exchange format.

use crate::demand::InputMeta;
use crate::ids::FunctionId;
use crate::time::SimTime;

/// One invocation request in a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Arrival time at the front end.
    pub at: SimTime,
    /// Which function is invoked.
    pub func: FunctionId,
    /// Its input data metadata.
    pub input: InputMeta,
}

/// A full trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Entries; [`Trace::sorted`] normalizes to arrival order.
    pub entries: Vec<TraceEntry>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Append an entry.
    pub fn push(&mut self, at: SimTime, func: FunctionId, input: InputMeta) {
        self.entries.push(TraceEntry { at, func, input });
    }

    /// Number of invocations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the trace has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sort entries by arrival time (stable, preserving insertion order for
    /// simultaneous arrivals).
    pub fn sorted(mut self) -> Self {
        self.entries.sort_by_key(|e| e.at);
        self
    }

    /// Duration from first to last arrival.
    pub fn span(&self) -> Option<(SimTime, SimTime)> {
        let first = self.entries.iter().map(|e| e.at).min()?;
        let last = self.entries.iter().map(|e| e.at).max()?;
        Some((first, last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_orders_by_arrival_stably() {
        let mut t = Trace::new();
        t.push(SimTime::from_secs(2), FunctionId(0), InputMeta::new(1, 0));
        t.push(SimTime::from_secs(1), FunctionId(1), InputMeta::new(2, 0));
        t.push(SimTime::from_secs(1), FunctionId(2), InputMeta::new(3, 0));
        let t = t.sorted();
        assert_eq!(t.entries[0].func, FunctionId(1));
        assert_eq!(t.entries[1].func, FunctionId(2));
        assert_eq!(t.entries[2].func, FunctionId(0));
    }

    #[test]
    fn span_covers_first_to_last() {
        let mut t = Trace::new();
        assert!(t.span().is_none());
        t.push(SimTime::from_secs(5), FunctionId(0), InputMeta::new(1, 0));
        t.push(SimTime::from_secs(1), FunctionId(0), InputMeta::new(1, 0));
        assert_eq!(t.span(), Some((SimTime::from_secs(1), SimTime::from_secs(5))));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
