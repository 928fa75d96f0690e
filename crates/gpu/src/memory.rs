//! A simple device-memory pool.
//!
//! The DARIS paper keeps every DNN resident on the GPU (weights are loaded
//! once per model, not per job), so memory acts as a static capacity
//! constraint rather than a dynamic bottleneck. [`MemoryPool`] models exactly
//! that: named allocations against a fixed capacity, with explicit errors
//! when a task set would not fit on the device.

use std::collections::BTreeMap;

use crate::GpuError;

/// Aggregate statistics of a [`MemoryPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryStats {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Bytes currently allocated.
    pub allocated: u64,
    /// Number of live allocations.
    pub allocations: usize,
    /// High-water mark of allocated bytes.
    pub peak_allocated: u64,
}

/// A fixed-capacity device-memory pool with named allocations.
///
/// ```
/// use daris_gpu::MemoryPool;
/// # fn main() -> Result<(), daris_gpu::GpuError> {
/// let mut pool = MemoryPool::new(1024);
/// let weights = pool.alloc("resnet18.weights", 512)?;
/// assert_eq!(pool.stats().allocated, 512);
/// pool.free(weights)?;
/// assert_eq!(pool.stats().allocated, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MemoryPool {
    capacity: u64,
    allocated: u64,
    peak: u64,
    next_handle: u64,
    live: BTreeMap<u64, (String, u64)>,
}

impl MemoryPool {
    /// Creates a pool with `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        MemoryPool { capacity, allocated: 0, peak: 0, next_handle: 1, live: BTreeMap::new() }
    }

    /// Allocates `bytes` under a human-readable label, returning an opaque
    /// handle.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfMemory`] when the allocation does not fit.
    pub fn alloc(&mut self, label: impl Into<String>, bytes: u64) -> Result<u64, GpuError> {
        let available = self.capacity - self.allocated;
        if bytes > available {
            return Err(GpuError::OutOfMemory { requested: bytes, available });
        }
        let handle = self.next_handle;
        self.next_handle += 1;
        self.allocated += bytes;
        self.peak = self.peak.max(self.allocated);
        self.live.insert(handle, (label.into(), bytes));
        Ok(handle)
    }

    /// Frees a previous allocation.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownAllocation`] for a handle that was never
    /// allocated or was already freed.
    pub fn free(&mut self, handle: u64) -> Result<(), GpuError> {
        match self.live.remove(&handle) {
            Some((_, bytes)) => {
                self.allocated -= bytes;
                Ok(())
            }
            None => Err(GpuError::UnknownAllocation(handle)),
        }
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.capacity - self.allocated
    }

    /// Snapshot of pool statistics.
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            capacity: self.capacity,
            allocated: self.allocated,
            allocations: self.live.len(),
            peak_allocated: self.peak,
        }
    }

    /// Iterates over live allocations as `(label, bytes)` pairs in
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.live.values().map(|(label, bytes)| (label.as_str(), *bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut pool = MemoryPool::new(100);
        let a = pool.alloc("a", 40).unwrap();
        let b = pool.alloc("b", 40).unwrap();
        assert_eq!(pool.available(), 20);
        assert!(pool.alloc("c", 30).is_err());
        pool.free(a).unwrap();
        assert_eq!(pool.available(), 60);
        let stats = pool.stats();
        assert_eq!(stats.peak_allocated, 80);
        assert_eq!(stats.allocations, 1);
        pool.free(b).unwrap();
        assert_eq!(pool.stats().allocated, 0);
    }

    #[test]
    fn double_free_is_an_error() {
        let mut pool = MemoryPool::new(10);
        let a = pool.alloc("a", 5).unwrap();
        pool.free(a).unwrap();
        assert_eq!(pool.free(a), Err(GpuError::UnknownAllocation(a)));
    }

    #[test]
    fn out_of_memory_reports_availability() {
        let mut pool = MemoryPool::new(10);
        pool.alloc("a", 8).unwrap();
        match pool.alloc("b", 5) {
            Err(GpuError::OutOfMemory { requested, available }) => {
                assert_eq!(requested, 5);
                assert_eq!(available, 2);
            }
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn labels_are_tracked() {
        let mut pool = MemoryPool::new(100);
        pool.alloc("weights", 10).unwrap();
        pool.alloc("activations", 20).unwrap();
        let mut labels: Vec<_> = pool.iter().map(|(l, _)| l.to_owned()).collect();
        labels.sort();
        assert_eq!(labels, vec!["activations", "weights"]);
    }
}
