//! Shared scaffolding for delta-evaluated problems: snapshot-based undo
//! logs over cached per-server aggregates.
//!
//! Incrementally updated floating-point aggregates cannot be undone by
//! inverse arithmetic (`(a + x) - x ≠ a` in general), so reverting a
//! move must restore *recorded old values* to be bit-for-bit exact. A
//! [`SnapLog`] records, once per transaction, the pre-move value of
//! every touched slot of an aggregate array; rolling back replays those
//! snapshots. Epoch stamps make "already recorded this slot?" O(1)
//! without clearing a bitmap between transactions.

/// Where a search state is within the evaluate/apply/revert protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum TxnStatus {
    /// No transaction: state and caches are consistent and settled.
    #[default]
    Idle,
    /// A move has been tentatively applied by `evaluate_move` and
    /// awaits `apply` (commit) or `revert` (rollback).
    Tentative,
    /// The last move was committed; its undo log is still intact so a
    /// differential harness may still `revert` it.
    Committed,
}

/// First-touch snapshot log for one aggregate array.
#[derive(Debug, Clone, Default)]
pub(crate) struct SnapLog<T: Copy> {
    entries: Vec<(u32, T)>,
    stamp: Vec<u32>,
    id: u32,
}

impl<T: Copy> SnapLog<T> {
    /// Opens a new transaction over an array of `len` slots, discarding
    /// any previous snapshots.
    pub(crate) fn begin(&mut self, len: usize) {
        self.entries.clear();
        if self.stamp.len() != len {
            self.stamp = vec![0; len];
            self.id = 0;
        }
        self.id = self.id.wrapping_add(1);
        if self.id == 0 {
            // Stamp wrap-around: reset so stale stamps can't collide.
            self.stamp.fill(0);
            self.id = 1;
        }
    }

    /// Records `current` as slot `i`'s pre-transaction value, first
    /// touch only.
    #[inline]
    pub(crate) fn touch(&mut self, i: usize, current: T) {
        if self.stamp[i] != self.id {
            self.stamp[i] = self.id;
            self.entries.push((i as u32, current));
        }
    }

    /// Restores every touched slot of `target` to its recorded
    /// pre-transaction value and clears the log.
    pub(crate) fn rollback(&mut self, target: &mut [T]) {
        for (i, old) in self.entries.drain(..) {
            target[i as usize] = old;
        }
        self.id = self.id.wrapping_add(1);
        if self.id == 0 {
            self.stamp.fill(0);
            self.id = 1;
        }
    }
}

/// Inserts `v` into a sorted vector, keeping it sorted. The hosted-video
/// lists this maintains are the proposal candidate lists: keeping them
/// in ascending video order makes an index draw over them pick the same
/// video the clone-path reference's filter-in-index-order scan would.
pub(crate) fn sorted_insert(list: &mut Vec<u32>, v: u32) {
    let pos = list.partition_point(|&x| x < v);
    debug_assert!(list.get(pos) != Some(&v), "duplicate hosted entry");
    list.insert(pos, v);
}

/// Removes `v` from a sorted vector.
pub(crate) fn sorted_remove(list: &mut Vec<u32>, v: u32) {
    let pos = list.partition_point(|&x| x < v);
    debug_assert_eq!(list.get(pos), Some(&v), "missing hosted entry");
    list.remove(pos);
}

/// The `pick`-th (0-based) value in ascending order among
/// `0..universe` that is *not* in the sorted list `present`.
///
/// This is how a proposal draws a random video absent from a server
/// without materializing the complement: `gen_range(0..absent_count)`
/// then rank-select. Binary search over "absent values below
/// `present[j]`" (= `present[j] - j`, non-decreasing).
pub(crate) fn nth_absent(present: &[u32], pick: usize) -> u32 {
    let mut lo = 0usize;
    let mut hi = present.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if present[mid] as usize - mid <= pick {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (pick + lo) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snaplog_restores_first_touch_values() {
        let mut log = SnapLog::default();
        let mut arr = vec![1.0f64, 2.0, 3.0];
        log.begin(arr.len());
        log.touch(1, arr[1]);
        arr[1] = 20.0;
        log.touch(1, arr[1]); // second touch must not overwrite snapshot
        arr[1] = 30.0;
        log.touch(0, arr[0]);
        arr[0] = -1.0;
        log.rollback(&mut arr);
        assert_eq!(arr, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn snaplog_transactions_are_independent() {
        let mut log = SnapLog::default();
        let mut arr = vec![5u64, 6];
        log.begin(arr.len());
        log.touch(0, arr[0]);
        arr[0] = 50;
        // Commit by simply beginning the next transaction.
        log.begin(arr.len());
        log.touch(0, arr[0]);
        arr[0] = 500;
        log.rollback(&mut arr);
        assert_eq!(arr, vec![50, 6]);
    }

    #[test]
    fn nth_absent_selects_complement_in_order() {
        // universe 0..6, present {2, 3}: absent = [0, 1, 4, 5].
        let present = vec![2u32, 3];
        let absent: Vec<u32> = (0..4).map(|i| nth_absent(&present, i)).collect();
        assert_eq!(absent, vec![0, 1, 4, 5]);
        // Empty present: identity.
        assert_eq!(nth_absent(&[], 3), 3);
        // Everything below present.
        assert_eq!(nth_absent(&[0, 1, 2], 0), 3);
    }

    #[test]
    fn sorted_insert_remove_roundtrip() {
        let mut list = vec![1u32, 4, 9];
        sorted_insert(&mut list, 6);
        assert_eq!(list, vec![1, 4, 6, 9]);
        sorted_insert(&mut list, 0);
        assert_eq!(list, vec![0, 1, 4, 6, 9]);
        sorted_remove(&mut list, 4);
        assert_eq!(list, vec![0, 1, 6, 9]);
    }
}
