//! A bounded memo for per-run work that a process can do once: values
//! that are pure functions of their key, such as a benchmark's input
//! ([`crate::Benchmark::build_task_scaled`]) or a campaign's golden
//! references.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Entries one [`Memo`] keeps. Keys can come off the wire (`serve` takes
/// scales and base configs from a spec), so a memo is bounded.
pub const MEMO_CAPACITY: usize = 64;

/// Values keyed by whatever they are a pure function of, oldest first,
/// at most [`MEMO_CAPACITY`] of them.
///
/// Keys need only `PartialEq` (lookup is a linear scan, so configs
/// holding floats qualify), and values are cheap clones, such as an
/// `Arc`. A value is computed outside the lock, and the key is checked
/// again before the insert, so two threads that miss on one key both
/// compute it and share whichever lands first. Every update is one push
/// or one remove, so a lock poisoned by a panicking caller (`serve`
/// survives those) still guards a consistent list and is recovered, not
/// passed on to every later caller.
///
/// ```
/// use chunkpoint_workloads::Memo;
///
/// static SQUARES: Memo<u32, u64> = Memo::new();
/// assert_eq!(SQUARES.get_or_compute(12, |&n| u64::from(n) * u64::from(n)), 144);
/// assert_eq!(SQUARES.get_or_compute(12, |_| unreachable!("remembered")), 144);
/// ```
#[derive(Debug)]
pub struct Memo<K, V>(Mutex<Vec<(K, V)>>);

impl<K, V> Memo<K, V> {
    /// An empty memo; `const`, so it can be a `static`.
    #[must_use]
    pub const fn new() -> Self {
        Self(Mutex::new(Vec::new()))
    }

    fn entries(&self) -> MutexGuard<'_, Vec<(K, V)>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: PartialEq, V: Clone> Memo<K, V> {
    /// The value under `key`: remembered, or `compute(&key)` remembered,
    /// evicting the oldest entry at capacity.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce(&K) -> V) -> V {
        let find = |entries: &[(K, V)]| {
            entries
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, value)| value.clone())
        };
        if let Some(hit) = find(&self.entries()) {
            return hit;
        }
        let fresh = compute(&key);
        let mut entries = self.entries();
        if let Some(hit) = find(&entries) {
            return hit;
        }
        if entries.len() == MEMO_CAPACITY {
            entries.remove(0);
        }
        entries.push((key, fresh.clone()));
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn memo_stays_at_capacity_and_evicts_the_oldest() {
        let memo: Memo<u32, Arc<u32>> = Memo::new();
        let first = memo.get_or_compute(0, |&k| Arc::new(k));
        assert!(Arc::ptr_eq(
            &first,
            &memo.get_or_compute(0, |&k| Arc::new(k))
        ));
        let past = MEMO_CAPACITY as u32 + 2;
        for key in 1..past {
            memo.get_or_compute(key, |&k| Arc::new(k));
        }
        assert_eq!(memo.entries().len(), MEMO_CAPACITY);
        let newest = memo.get_or_compute(past - 1, |&k| Arc::new(k));
        assert_eq!(memo.entries().len(), MEMO_CAPACITY);
        assert!(Arc::ptr_eq(&newest, &memo.entries()[MEMO_CAPACITY - 1].1));
        // The oldest was evicted: asking again computes it afresh.
        let again = memo.get_or_compute(0, |&k| Arc::new(k));
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(first, again);
    }

    #[test]
    fn a_poisoned_memo_still_serves() {
        let memo: Memo<u32, Arc<u32>> = Memo::new();
        memo.get_or_compute(1, |&k| Arc::new(k));
        let held = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _entries = memo.entries();
            panic!("a caller panicked while holding the memo");
        }));
        assert!(held.is_err() && memo.0.is_poisoned());
        assert_eq!(*memo.get_or_compute(1, |_| unreachable!("remembered")), 1);
        assert_eq!(*memo.get_or_compute(2, |&k| Arc::new(k)), 2);
        assert_eq!(memo.entries().len(), 2);
    }
}
