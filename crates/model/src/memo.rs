//! The concurrent memo table behind the prepared estimators.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::RwLock;

/// A concurrent memo table of values that are pure functions of their
/// keys.
///
/// A hit is a read under the read lock. A miss computes its value outside
/// the lock, so the table stays available to other threads while a slow
/// miss runs, and the first insert of a key wins. A racing duplicate
/// computation yields an equal value, so no result depends on evaluation
/// order or thread count.
///
/// ```
/// use optimus_model::Memo;
///
/// let squares: Memo<u64, u64> = Memo::default();
/// assert_eq!(squares.get_or_insert_with(7, || 49), 49);
/// // A hit never runs the computation.
/// assert_eq!(squares.get_or_insert_with(7, || unreachable!()), 49);
/// assert_eq!(squares.len(), 1);
/// ```
#[derive(Debug)]
pub struct Memo<K, V> {
    table: RwLock<HashMap<K, V>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self {
            table: RwLock::new(HashMap::new()),
        }
    }
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// The value of `key`, computed by `compute` and published on a miss.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(hit) = self.table.read().expect("memo table poisoned").get(&key) {
            return hit.clone();
        }
        let computed = compute();
        self.table
            .write()
            .expect("memo table poisoned")
            .entry(key)
            .or_insert_with(|| computed.clone());
        computed
    }

    /// Number of distinct keys filled so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.read().expect("memo table poisoned").len()
    }

    /// `true` while no key has been filled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
