//! CUDA streams: FIFO execution lanes inside a context.

use std::collections::VecDeque;
use std::fmt;

use crate::{ContextId, WorkItemId};

/// Identifier of a CUDA stream on the simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub(crate) u32);

impl StreamId {
    /// Index of the stream in creation order (0-based, global across
    /// contexts).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Internal mutable stream record.
#[derive(Debug, Clone)]
pub(crate) struct Stream {
    pub(crate) context: ContextId,
    /// FIFO of pending work items (front = currently active item).
    pub(crate) queue: VecDeque<WorkItemId>,
}

impl Stream {
    pub(crate) fn new(context: ContextId) -> Self {
        Stream { context, queue: VecDeque::new() }
    }

    pub(crate) fn active_item(&self) -> Option<WorkItemId> {
        self.queue.front().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(StreamId(2).to_string(), "s2");
        assert_eq!(StreamId(2).index(), 2);
    }

    #[test]
    fn fifo_order() {
        let mut s = Stream::new(ContextId(0));
        assert!(s.active_item().is_none());
        s.queue.push_back(WorkItemId(1));
        s.queue.push_back(WorkItemId(2));
        assert_eq!(s.active_item(), Some(WorkItemId(1)));
        s.queue.pop_front();
        assert_eq!(s.active_item(), Some(WorkItemId(2)));
    }
}
