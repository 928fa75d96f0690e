//! [`Slab`]: in-flight records keyed by dense, increasing `u64` keys.

use std::collections::VecDeque;

/// Records keyed by the order they were inserted in. Keys are handed out
/// densely from 0, so a deque of slots offset by the oldest live key replaces
/// a map: a lookup is an index, and removed records leave holes that are
/// trimmed once they reach the front. The engine files its in-flight items
/// here by id, and the schedulers file their in-flight work by GPU tag.
#[derive(Debug)]
pub struct Slab<T> {
    /// Key of `slots[0]`; `base + slots.len()` is the next key.
    base: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { base: 0, slots: VecDeque::new() }
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab whose first key is 0.
    pub fn new() -> Self {
        Slab::default()
    }

    /// The key the next [`insert`](Self::insert) files its record under.
    pub fn next_key(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    fn slot(&self, key: u64) -> Option<usize> {
        usize::try_from(key.checked_sub(self.base)?).ok()
    }

    /// The live record under `key`.
    pub fn get(&self, key: u64) -> Option<&T> {
        self.slots.get(self.slot(key)?)?.as_ref()
    }

    /// The live record under `key`, mutably.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let slot = self.slot(key)?;
        self.slots.get_mut(slot)?.as_mut()
    }

    /// Files `value` under the next key and returns that key.
    pub fn insert(&mut self, value: T) -> u64 {
        let key = self.next_key();
        self.slots.push_back(Some(value));
        key
    }

    /// Removes and returns the record under `key`, if it is live.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let slot = self.slot(key)?;
        let value = self.slots.get_mut(slot)?.take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        value
    }

    /// The live records with their keys, in increasing key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| Some((base + i as u64, slot.as_ref()?)))
    }
}
