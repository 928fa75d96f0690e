//! MPS contexts: SM quota owners.

use std::fmt;

/// Identifier of an MPS context on the simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextId(pub(crate) u32);

impl ContextId {
    /// Index of the context in creation order (0-based).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx{}", self.0)
    }
}

/// Internal context record.
#[derive(Debug, Clone)]
pub(crate) struct Context {
    pub(crate) sm_quota: u32,
}

impl Context {
    pub(crate) fn new(sm_quota: u32) -> Self {
        Context { sm_quota }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        let id = ContextId(5);
        assert_eq!(id.to_string(), "ctx5");
        assert_eq!(id.index(), 5);
    }

    #[test]
    fn context_keeps_its_quota() {
        assert_eq!(Context::new(34).sm_quota, 34);
    }
}
