//! MVCC visibility machinery: the snapshot-epoch watermark and pin
//! registry.
//!
//! Commit epochs are allocated at the log-position-fix points in
//! [`crate::group_commit`] (or locally for non-durable databases). A
//! committed epoch becomes *visible* only once every smaller epoch has
//! also been published — epochs can be stamped out of allocation order by
//! concurrent committers, and a reader that pinned snapshot `S` must see
//! the effects of **every** epoch `<= S`, so the watermark advances
//! gap-free. Readers pin the current watermark; the background vacuum
//! reclaims row versions no pinned snapshot can still reach.
//!
//! The snapshot contract (what a pinned epoch does and does not promise)
//! is specified in DESIGN.md §7.5.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Per-database MVCC state: the visibility watermark and the set of
/// pinned snapshot epochs.
#[derive(Debug, Default)]
pub struct MvccState {
    /// Largest epoch `V` such that every epoch `<= V` has been published.
    /// Readers pin this value; a load is the whole snapshot-begin cost.
    visible: AtomicU64,
    /// Published epochs waiting for their predecessors (min-heap).
    published: Mutex<BinaryHeap<Reverse<u64>>>,
    /// Pinned snapshot epochs with pin counts — the vacuum horizon is the
    /// smallest key. Small (bounded by concurrent readers), so a BTreeMap
    /// beats anything fancier.
    pins: Mutex<BTreeMap<u64, usize>>,
}

impl MvccState {
    fn published_lock(&self) -> std::sync::MutexGuard<'_, BinaryHeap<Reverse<u64>>> {
        self.published.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn pins_lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, usize>> {
        self.pins.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current snapshot watermark.
    pub fn visible(&self) -> u64 {
        self.visible.load(Ordering::Acquire)
    }

    /// Publish epoch `e`: all of its row stamps are in place, so it may
    /// become visible. The watermark advances only when the published set
    /// is contiguous, so every allocated epoch must eventually be
    /// published — including failed or empty ones — or the watermark (and
    /// with it every new snapshot) stalls.
    pub fn publish(&self, e: u64) {
        let mut heap = self.published_lock();
        heap.push(Reverse(e));
        let mut visible = self.visible.load(Ordering::Relaxed);
        while heap.peek().is_some_and(|Reverse(top)| *top <= visible + 1) {
            let Reverse(top) = heap.pop().expect("peeked");
            visible = visible.max(top);
        }
        // Store under the heap lock: publishers serialize here, so the
        // watermark never moves backwards.
        self.visible.store(visible, Ordering::Release);
    }

    /// Register a pin at the current watermark, returning the pinned
    /// epoch. Pair with [`MvccState::unpin`].
    pub fn pin(&self) -> u64 {
        let mut pins = self.pins_lock();
        let e = self.visible();
        *pins.entry(e).or_insert(0) += 1;
        e
    }

    /// Drop one pin at epoch `e`.
    pub fn unpin(&self, e: u64) {
        let mut pins = self.pins_lock();
        if let Some(n) = pins.get_mut(&e) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&e);
            }
        }
    }

    /// The vacuum horizon: the oldest pinned snapshot, or the watermark
    /// when nothing is pinned. A version whose committed end epoch is
    /// `<= horizon` is invisible to every current and future snapshot.
    pub fn horizon(&self) -> u64 {
        let pins = self.pins_lock();
        pins.keys().next().copied().unwrap_or_else(|| self.visible())
    }

    /// Number of currently pinned snapshots (test/stats hook).
    pub fn pinned(&self) -> usize {
        self.pins_lock().values().sum()
    }
}

/// A pinned snapshot epoch; unpins on drop. Holding one keeps the vacuum
/// horizon at or below [`SnapshotPin::epoch`], so every row version that
/// snapshot can reach stays reclaimable-free until the pin drops.
#[derive(Debug)]
pub struct SnapshotPin {
    state: Arc<MvccState>,
    epoch: u64,
}

impl SnapshotPin {
    pub(crate) fn new(state: Arc<MvccState>) -> SnapshotPin {
        let epoch = state.pin();
        SnapshotPin { state, epoch }
    }

    /// The pinned snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Clone for SnapshotPin {
    /// A second pin at the same epoch: the horizon is already held there.
    fn clone(&self) -> SnapshotPin {
        *self.state.pins_lock().entry(self.epoch).or_insert(0) += 1;
        SnapshotPin { state: Arc::clone(&self.state), epoch: self.epoch }
    }
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        self.state.unpin(self.epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_advances_only_contiguously() {
        let s = MvccState::default();
        assert_eq!(s.visible(), 0);
        s.publish(2);
        assert_eq!(s.visible(), 0, "epoch 1 missing: 2 must wait");
        s.publish(1);
        assert_eq!(s.visible(), 2, "gap filled: both become visible");
        s.publish(4);
        s.publish(5);
        assert_eq!(s.visible(), 2);
        s.publish(3);
        assert_eq!(s.visible(), 5);
    }

    #[test]
    fn pins_hold_the_horizon() {
        let state = Arc::new(MvccState::default());
        s_publish(&state, 1..=3);
        let pin = SnapshotPin::new(Arc::clone(&state));
        assert_eq!(pin.epoch(), 3);
        s_publish(&state, 4..=6);
        assert_eq!(state.visible(), 6);
        assert_eq!(state.horizon(), 3, "pinned snapshot holds the horizon");
        drop(pin);
        assert_eq!(state.horizon(), 6);
        assert_eq!(state.pinned(), 0);
    }

    fn s_publish(s: &MvccState, r: std::ops::RangeInclusive<u64>) {
        for e in r {
            s.publish(e);
        }
    }

    #[test]
    fn overlapping_pins() {
        let state = Arc::new(MvccState::default());
        state.publish(1);
        let a = SnapshotPin::new(Arc::clone(&state));
        state.publish(2);
        let b = SnapshotPin::new(Arc::clone(&state));
        assert_eq!((a.epoch(), b.epoch()), (1, 2));
        assert_eq!(state.horizon(), 1);
        drop(a);
        assert_eq!(state.horizon(), 2);
        drop(b);
    }
}
