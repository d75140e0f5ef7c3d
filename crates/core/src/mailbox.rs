//! Per-hop mailboxes accumulating delta messages.
//!
//! Every vertex conceptually owns `L` mailboxes, one per hop (paper §4.3).
//! Because linear aggregators are commutative and associative, messages from
//! different senders can be *pre-accumulated* in the mailbox in any order;
//! the apply phase then needs exactly one vector addition per affected vertex
//! regardless of how many in-neighbours changed.
//!
//! Each hop's mailbox is dense and slot-indexed. A slot table maps a vertex
//! id to the row holding its pending delta (`u32::MAX` while it has none),
//! and the rows sit back to back in one flat buffer, in first-deposit order.
//! A deposit is one slot lookup plus one `axpy` into that row: no hashing,
//! and once the buffers have reached their steady-state size, no heap
//! allocation. The price is the slot table, 4 B per vertex per hop, grown on
//! demand up to the largest target id seen; a reset touches only the slots
//! that received mail.

use crate::message::DeltaMessage;
use ripple_graph::VertexId;
use ripple_tensor::axpy;

/// Slot-table marker of a vertex with no pending mail.
const EMPTY: u32 = u32::MAX;

/// One hop's mailbox: a dense slot table over vertex ids plus the pending
/// delta rows of the vertices that received mail.
#[derive(Debug, Clone, Default)]
struct HopBox {
    /// `slot[v]` is the row index of `v`'s pending delta, or [`EMPTY`].
    slot: Vec<u32>,
    /// The vertices holding mail, in first-deposit order until
    /// [`MailboxSet::sorted_hop`] sorts them. Sorting never moves a row, so
    /// rows are always found through `slot`.
    targets: Vec<VertexId>,
    /// Row-major delta rows, `width` floats each, in first-deposit order.
    rows: Vec<f32>,
    /// Width of every row, fixed by the first deposit after a reset.
    width: usize,
}

impl HopBox {
    fn deposit(&mut self, hop: usize, target: VertexId, coeff: f32, delta: &[f32]) {
        if self.targets.is_empty() {
            self.width = delta.len();
        } else {
            assert_eq!(
                delta.len(),
                self.width,
                "hop {hop} mail is {}-wide, got a {}-wide delta for {target}",
                self.width,
                delta.len()
            );
        }
        let v = target.index();
        if v >= self.slot.len() {
            self.slot.resize(v + 1, EMPTY);
        }
        let start = match self.slot[v] {
            EMPTY => {
                let row = u32::try_from(self.targets.len()).expect("fewer rows than vertex ids");
                self.slot[v] = row;
                self.targets.push(target);
                let start = self.rows.len();
                // The first deposit starts from zero, like a fresh slot.
                self.rows.resize(start + self.width, 0.0);
                start
            }
            row => row as usize * self.width,
        };
        axpy(&mut self.rows[start..start + self.width], coeff, delta);
    }

    fn get(&self, v: VertexId) -> Option<&[f32]> {
        match self.slot.get(v.index()) {
            Some(&row) if row != EMPTY => {
                let start = row as usize * self.width;
                Some(&self.rows[start..start + self.width])
            }
            _ => None,
        }
    }

    fn clear(&mut self) {
        for v in &self.targets {
            self.slot[v.index()] = EMPTY;
        }
        self.targets.clear();
        self.rows.clear();
        self.width = 0;
    }

    fn memory_bytes(&self) -> usize {
        self.slot.capacity() * std::mem::size_of::<u32>()
            + self.targets.capacity() * std::mem::size_of::<VertexId>()
            + self.rows.capacity() * std::mem::size_of::<f32>()
    }
}

/// A read view of one hop's pending mail.
#[derive(Debug, Clone, Copy)]
pub struct HopMail<'a> {
    hop: &'a HopBox,
}

impl<'a> HopMail<'a> {
    /// The vertices holding mail: ascending when the view came from
    /// [`MailboxSet::sorted_hop`], first-deposit order otherwise.
    pub fn targets(&self) -> &'a [VertexId] {
        &self.hop.targets
    }

    /// The accumulated delta of `v`, if it holds mail.
    pub fn get(&self, v: VertexId) -> Option<&'a [f32]> {
        self.hop.get(v)
    }

    /// `(vertex, delta)` pairs in [`HopMail::targets`] order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &'a [f32])> + 'a {
        let hop = self.hop;
        hop.targets
            .iter()
            .map(move |&v| (v, hop.get(v).expect("every target holds a row")))
    }
}

/// The per-hop mailboxes of one engine. An engine keeps one set for its
/// whole life and [`MailboxSet::clear`]s it at the start of every batch, so
/// the slot tables and row buffers are allocated once and then reused.
#[derive(Debug, Clone, Default)]
pub struct MailboxSet {
    /// `hops[l-1]` holds the pending deltas for hop-`l` aggregates.
    hops: Vec<HopBox>,
}

impl MailboxSet {
    /// Creates mailboxes for an `L`-layer model.
    pub fn new(num_hops: usize) -> Self {
        MailboxSet {
            hops: vec![HopBox::default(); num_hops],
        }
    }

    /// Number of hops covered.
    pub fn num_hops(&self) -> usize {
        self.hops.len()
    }

    /// Deposits `coeff * delta` into the hop-`hop` mailbox of `target`. The
    /// first deposit for a target since the last reset starts its row from
    /// zero at the hop's width.
    ///
    /// # Panics
    ///
    /// Panics if `hop` is 0 or greater than [`Self::num_hops`], or if the
    /// hop already holds mail of a different width.
    pub fn deposit(&mut self, hop: usize, target: VertexId, coeff: f32, delta: &[f32]) {
        assert!(hop >= 1 && hop <= self.hops.len(), "hop {hop} out of range");
        self.hops[hop - 1].deposit(hop, target, coeff, delta);
    }

    /// Deposits a pre-built [`DeltaMessage`] (used when receiving remote halo
    /// messages in the distributed runtime).
    pub fn deposit_message(&mut self, message: &DeltaMessage) {
        self.deposit(message.hop, message.target, 1.0, &message.delta);
    }

    /// A view of the hop-`hop` mail, targets in the order they stand.
    ///
    /// # Panics
    ///
    /// Panics if `hop` is out of range.
    pub fn hop(&self, hop: usize) -> HopMail<'_> {
        HopMail {
            hop: &self.hops[hop - 1],
        }
    }

    /// Sorts the hop-`hop` targets ascending and returns a view of the mail:
    /// the canonical order the apply phase walks. Sorting moves no row.
    ///
    /// # Panics
    ///
    /// Panics if `hop` is out of range.
    pub fn sorted_hop(&mut self, hop: usize) -> HopMail<'_> {
        let hop_box = &mut self.hops[hop - 1];
        hop_box.targets.sort_unstable();
        HopMail { hop: hop_box }
    }

    /// Number of vertices with pending mail at hop `hop`.
    ///
    /// # Panics
    ///
    /// Panics if `hop` is out of range.
    pub fn len(&self, hop: usize) -> usize {
        self.hops[hop - 1].targets.len()
    }

    /// Returns `true` if no mailbox at any hop holds mail.
    pub fn is_empty(&self) -> bool {
        self.hops.iter().all(|h| h.targets.is_empty())
    }

    /// Empties every mailbox, resetting only the slots that held mail and
    /// keeping every buffer's capacity.
    pub fn clear(&mut self) {
        for hop in &mut self.hops {
            hop.clear();
        }
    }

    /// Heap memory retained by the slot tables and row buffers, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.hops.iter().map(HopBox::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(m: &MailboxSet, hop: usize, v: u32) -> Vec<f32> {
        m.hop(hop).get(VertexId(v)).expect("pending mail").to_vec()
    }

    #[test]
    fn deposits_accumulate() {
        let mut m = MailboxSet::new(2);
        m.deposit(1, VertexId(3), 1.0, &[1.0, 2.0]);
        m.deposit(1, VertexId(3), 0.5, &[4.0, 4.0]);
        assert_eq!(row(&m, 1, 3), vec![3.0, 4.0]);
        assert_eq!(m.hop(1).get(VertexId(2)), None);
        assert_eq!(m.hop(1).get(VertexId(900)), None, "past the slot table");
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn deposits_are_order_independent() {
        let deltas = [
            (1.0, vec![1.0, -1.0]),
            (2.0, vec![0.5, 0.5]),
            (-1.0, vec![3.0, 0.0]),
        ];
        let mut forward = MailboxSet::new(1);
        let mut backward = MailboxSet::new(1);
        for (c, d) in &deltas {
            forward.deposit(1, VertexId(0), *c, d);
        }
        for (c, d) in deltas.iter().rev() {
            backward.deposit(1, VertexId(0), *c, d);
        }
        assert_eq!(row(&forward, 1, 0), row(&backward, 1, 0));
    }

    #[test]
    fn hops_are_independent() {
        let mut m = MailboxSet::new(3);
        m.deposit(1, VertexId(0), 1.0, &[1.0]);
        m.deposit(3, VertexId(0), 1.0, &[2.0, 2.0]);
        assert_eq!(m.len(1), 1);
        assert_eq!(m.len(2), 0);
        assert_eq!(m.len(3), 1);
        assert_eq!(m.hop(1).targets(), &[VertexId(0)]);
        assert_eq!(row(&m, 3, 0), vec![2.0, 2.0]);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.hops[2].width, 0);
    }

    #[test]
    fn deposit_message_routes_by_hop_and_target() {
        let mut m = MailboxSet::new(2);
        m.deposit_message(&DeltaMessage::new(VertexId(7), 2, vec![1.0, 1.0]));
        m.deposit_message(&DeltaMessage::new(VertexId(7), 2, vec![0.5, -1.0]));
        assert_eq!(row(&m, 2, 7), vec![1.5, 0.0]);
        assert_eq!(m.len(1), 0);
    }

    #[test]
    fn num_hops_reported() {
        assert_eq!(MailboxSet::new(4).num_hops(), 4);
    }

    #[test]
    fn sorted_hop_orders_targets_without_moving_rows() {
        let mut m = MailboxSet::new(2);
        m.deposit(1, VertexId(9), 1.0, &[1.0, 0.0]);
        m.deposit(1, VertexId(2), 1.0, &[2.0, 2.0]);
        m.deposit(1, VertexId(9), 0.5, &[2.0, 2.0]);
        assert_eq!(m.hop(1).targets(), &[VertexId(9), VertexId(2)]);
        let mail = m.sorted_hop(1);
        assert_eq!(mail.targets(), &[VertexId(2), VertexId(9)]);
        let pairs: Vec<(VertexId, Vec<f32>)> = mail.iter().map(|(v, d)| (v, d.to_vec())).collect();
        assert_eq!(
            pairs,
            vec![(VertexId(2), vec![2.0, 2.0]), (VertexId(9), vec![2.0, 1.0])]
        );
        assert!(m.memory_bytes() > 0);
    }

    #[test]
    fn empty_hop_yields_an_empty_view() {
        let mut m = MailboxSet::new(2);
        m.deposit(1, VertexId(0), 1.0, &[1.0]);
        let mail = m.sorted_hop(2);
        assert!(mail.targets().is_empty());
        assert_eq!(mail.iter().count(), 0);
        assert_eq!(mail.get(VertexId(0)), None);
    }

    #[test]
    fn clear_resets_touched_slots_only_and_keeps_capacity() {
        let mut m = MailboxSet::new(1);
        for v in (0..64u32).rev() {
            m.deposit(1, VertexId(v), 1.0, &[1.0, 2.0]);
        }
        let (slots, rows, targets) = {
            let h = &m.hops[0];
            (h.slot.capacity(), h.rows.capacity(), h.targets.capacity())
        };
        assert!(slots >= 64 && rows >= 128 && targets >= 64);
        m.clear();
        assert!(m.hops[0].slot.iter().all(|&s| s == EMPTY));
        // Refill the same population: no buffer grows, no stale row leaks.
        for v in 0..64u32 {
            m.deposit(1, VertexId(v), 0.5, &[2.0, 2.0]);
        }
        let h = &m.hops[0];
        assert_eq!(h.slot.capacity(), slots);
        assert_eq!(h.rows.capacity(), rows);
        assert_eq!(h.targets.capacity(), targets);
        assert_eq!(row(&m, 1, 0), vec![1.0, 1.0]);
        assert_eq!(row(&m, 1, 63), vec![1.0, 1.0]);
    }

    #[test]
    fn slot_table_grows_on_demand() {
        let mut m = MailboxSet::new(1);
        m.deposit(1, VertexId(3), 1.0, &[1.0]);
        assert_eq!(m.hops[0].slot.len(), 4);
        m.deposit(1, VertexId(1000), 1.0, &[2.0]);
        assert!(m.hops[0].slot.len() > 1000);
        assert_eq!(row(&m, 1, 3), vec![1.0]);
        assert_eq!(row(&m, 1, 1000), vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "wide")]
    fn width_mismatch_panics() {
        let mut m = MailboxSet::new(1);
        m.deposit(1, VertexId(0), 1.0, &[1.0, 2.0]);
        m.deposit(1, VertexId(1), 1.0, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hop_zero_panics() {
        let mut m = MailboxSet::new(2);
        m.deposit(0, VertexId(0), 1.0, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hop_beyond_layers_panics() {
        let mut m = MailboxSet::new(2);
        m.deposit(3, VertexId(0), 1.0, &[1.0]);
    }
}
