//! Footprint-based concurrent window admission: the staging step of the
//! one commit pipeline (`pipeline.rs`) that both serving tiers run.
//!
//! Every closed window is *staged* (WAL-appended unsynced, its post-commit
//! counters predicted, a reservation held) and later *drained* (one fsync
//! for the group, then execution and per-window epoch publication in
//! `window_seq` order). The in-flight depth decides how many windows a
//! group may hold. **Depth 1 is the serial pipeline**: every window stages
//! into an empty group and drains at once, so its footprint is never
//! compared with anything and is not computed.
//!
//! At depth 2 and above, a one-part session computes each
//! window's [`Footprint`] (the vertices its updates plus their k-hop
//! affected cones can touch) against the current topology and checks it
//! against every in-flight reservation. Windows whose footprints are
//! pairwise disjoint stage together, and the whole group executes as one
//! merged engine pass.
//!
//! The state machine per window:
//!
//! ```text
//!           footprint computed      WAL appended,           applied +
//!           against live topology   reservation held        epoch published
//!  (closed) ---------------------> Pending -----------> Reserved -----------> Committed
//!                                     |                    ^
//!                                     | conflict with      | staged group drains
//!                                     | in-flight set      | first, then this
//!                                     +--------------------+ window stages alone
//! ```
//!
//! A window that intersects the in-flight set is **serialized**: the staged
//! group commits ahead of it (the conflict is counted), and only then does
//! the conflicting window reserve — so the commit order readers observe is
//! always the WAL's `window_seq` order, and every observable embedding is
//! bit-identical to the serial pipeline at any concurrency level. Disjoint
//! windows that join a non-empty group are counted as **merged**; every
//! window committed from a group of two or more counts toward
//! **admitted_concurrent**.
//!
//! The invariant the controller maintains is simple and load-bearing: the
//! staged set is pairwise footprint-disjoint at all times. Everything else
//! (merged-pass bit-identity, per-window epoch reconstruction from the
//! merged dirty set, group fsync) leans on it.
//!
//! A session of more parts uses the same controller as a plain **group
//! commit**: its windows stage with [`Footprint::empty`] and a drained
//! group still executes window by window, in order, so no footprint is
//! needed and no window ever conflicts. The depth there only sets how many
//! windows share one fsync.

use ripple_core::Footprint;
use std::time::{Duration, Instant};

/// Lifecycle of one window moving through the admission pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowState {
    /// Closed (and footprinted, above depth 1), but not yet reserved (not
    /// WAL-logged).
    Pending,
    /// WAL-logged and holding a reservation in the in-flight set.
    Reserved,
    /// Applied and published; the reservation is released.
    Committed,
}

/// One window travelling through admission: its sequence number, its
/// footprint reservation, and whatever bookkeeping the caller needs to
/// commit it later (`P`).
#[derive(Debug)]
pub struct StagedWindow<P> {
    seq: u64,
    footprint: Footprint,
    state: WindowState,
    /// Caller-owned commit bookkeeping (batch, predicted counters, lag
    /// instants, …).
    pub payload: P,
}

impl<P> StagedWindow<P> {
    /// A freshly closed window in the [`WindowState::Pending`] state.
    pub fn pending(seq: u64, footprint: Footprint, payload: P) -> Self {
        StagedWindow {
            seq,
            footprint,
            state: WindowState::Pending,
            payload,
        }
    }

    /// The window's logged sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The window's read/write footprint.
    pub fn footprint(&self) -> &Footprint {
        &self.footprint
    }

    /// Where the window is in the Pending → Reserved → Committed lifecycle.
    pub fn state(&self) -> WindowState {
        self.state
    }

    /// Marks the window committed (its epoch published). Must currently be
    /// Reserved — the pipeline never commits a window it has not logged.
    pub fn commit(&mut self) {
        debug_assert_eq!(self.state, WindowState::Reserved, "commit before reserve");
        self.state = WindowState::Committed;
    }
}

/// The in-flight reservation set: at most `max_inflight` staged windows
/// whose footprints are pairwise disjoint, waiting to execute as one merged
/// group. Commit order is staging order, which is `window_seq` order.
#[derive(Debug)]
pub struct AdmissionController<P> {
    max_inflight: usize,
    staged: Vec<StagedWindow<P>>,
    /// Instant the oldest currently staged window was reserved, bounding
    /// how long an admitted window may wait for co-travellers.
    staged_since: Option<Instant>,
}

impl<P> AdmissionController<P> {
    /// An empty controller admitting up to `max_inflight` windows.
    pub fn new(max_inflight: usize) -> Self {
        AdmissionController {
            max_inflight: max_inflight.max(1),
            staged: Vec::new(),
            staged_since: None,
        }
    }

    /// The in-flight depth: how many windows one staged group may hold
    /// (1 is the serial pipeline).
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Number of in-flight (reserved) windows.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// Whether no window is currently reserved.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Whether the staged group has reached the in-flight cap (the caller
    /// must drain before staging more).
    pub fn is_full(&self) -> bool {
        self.staged.len() >= self.max_inflight
    }

    /// Whether `footprint` is disjoint from every in-flight reservation —
    /// i.e. whether a window with this footprint may join the staged group
    /// without being observable. An empty group admits anything.
    pub fn admits(&self, footprint: &Footprint) -> bool {
        self.staged.iter().all(|w| w.footprint.disjoint(footprint))
    }

    /// Reserves `window`: transitions it Pending → Reserved and adds it to
    /// the in-flight set. The caller must have WAL-logged the window and
    /// checked [`AdmissionController::admits`] (debug-asserted here — a
    /// conflicting reservation would break bit-identity, not just perf).
    pub fn reserve(&mut self, mut window: StagedWindow<P>) {
        debug_assert_eq!(window.state, WindowState::Pending, "double reserve");
        debug_assert!(
            self.admits(&window.footprint),
            "reserving a conflicting window"
        );
        debug_assert!(!self.is_full(), "reserving past the in-flight cap");
        debug_assert!(
            self.staged
                .last()
                .map(|w| w.seq < window.seq)
                .unwrap_or(true),
            "reservations must stage in window_seq order"
        );
        window.state = WindowState::Reserved;
        self.staged_since.get_or_insert_with(Instant::now);
        self.staged.push(window);
    }

    /// The most recently reserved window, if any — the one whose predicted
    /// post-commit counters the next reservation chains from.
    pub fn last(&self) -> Option<&StagedWindow<P>> {
        self.staged.last()
    }

    /// The staged group, in staging (= `window_seq`) order.
    pub(crate) fn staged(&self) -> &[StagedWindow<P>] {
        &self.staged
    }

    /// Takes the whole staged group for execution, in staging (=
    /// `window_seq`) order, emptying the in-flight set.
    pub fn take_group(&mut self) -> Vec<StagedWindow<P>> {
        self.staged_since = None;
        std::mem::take(&mut self.staged)
    }

    /// The instant by which the staged group must drain so no admitted
    /// window waits longer than `max_delay` for co-travellers.
    pub fn deadline(&self, max_delay: Duration) -> Option<Instant> {
        self.staged_since.map(|t| t + max_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_graph::VertexId;

    fn fp(vertices: &[u32]) -> Footprint {
        Footprint::from_writes(vertices.iter().map(|&v| VertexId(v)).collect())
    }

    #[test]
    fn disjoint_windows_stage_until_the_cap() {
        let mut ctl: AdmissionController<()> = AdmissionController::new(2);
        assert!(ctl.admits(&fp(&[1, 2])));
        ctl.reserve(StagedWindow::pending(1, fp(&[1, 2]), ()));
        assert!(ctl.admits(&fp(&[3])));
        assert!(!ctl.admits(&fp(&[2, 3])), "overlap on vertex 2");
        ctl.reserve(StagedWindow::pending(2, fp(&[3]), ()));
        assert!(ctl.is_full(), "cap of 2 reached");
        let group = ctl.take_group();
        assert_eq!(group.len(), 2);
        assert!(ctl.is_empty());
        assert_eq!(
            group.iter().map(StagedWindow::seq).collect::<Vec<_>>(),
            vec![1, 2],
            "groups drain in window_seq order"
        );
        assert!(group.iter().all(|w| w.state() == WindowState::Reserved));
    }

    #[test]
    fn window_state_machine_advances_in_order() {
        let mut ctl: AdmissionController<u8> = AdmissionController::new(4);
        let w = StagedWindow::pending(7, fp(&[5]), 42u8);
        assert_eq!(w.state(), WindowState::Pending);
        ctl.reserve(w);
        let mut group = ctl.take_group();
        assert_eq!(group[0].state(), WindowState::Reserved);
        group[0].commit();
        assert_eq!(group[0].state(), WindowState::Committed);
        assert_eq!(group[0].payload, 42);
    }

    #[test]
    fn empty_footprints_always_coexist() {
        let mut ctl: AdmissionController<()> = AdmissionController::new(4);
        ctl.reserve(StagedWindow::pending(1, Footprint::empty(), ()));
        assert!(ctl.admits(&Footprint::empty()));
        assert!(ctl.admits(&fp(&[0, 1, 2])));
    }

    #[test]
    fn deadline_tracks_the_oldest_reservation() {
        let mut ctl: AdmissionController<()> = AdmissionController::new(4);
        assert!(ctl.deadline(Duration::from_millis(5)).is_none());
        ctl.reserve(StagedWindow::pending(1, fp(&[1]), ()));
        let d1 = ctl.deadline(Duration::from_millis(5)).unwrap();
        ctl.reserve(StagedWindow::pending(2, fp(&[2]), ()));
        let d2 = ctl.deadline(Duration::from_millis(5)).unwrap();
        assert_eq!(d1, d2, "later reservations do not extend the deadline");
        ctl.take_group();
        assert!(ctl.deadline(Duration::from_millis(5)).is_none());
    }
}
