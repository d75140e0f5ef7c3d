//! Delta messages exchanged between vertices (and, in the distributed
//! runtime, between workers).
//!
//! A message's purpose (paper §4.3.1) is to *nullify* the contribution of a
//! sender's old embedding to a receiver's aggregate and replace it with the
//! new one. For every linear aggregator that boils down to a single vector
//! `delta = α·h_new − α·h_old` that the receiver adds to its stored raw
//! aggregate. Edge additions are the special case `h_old = 0`; deletions the
//! special case `h_new = 0`.

use ripple_graph::{PartitionId, VertexId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A delta message destined for one vertex's hop-`hop` mailbox.
///
/// Inside a single machine the engine deposits deltas straight into the
/// mailbox without materialising this struct; it exists as the unit of
/// *remote* communication (halo messages) and for tests/benchmarks that need
/// to reason about individual messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaMessage {
    /// The vertex whose mailbox receives the delta.
    pub target: VertexId,
    /// The hop (layer) the delta applies to, in `1..=L`.
    pub hop: usize,
    /// The accumulated delta to add to the target's raw aggregate for that
    /// hop.
    pub delta: Vec<f32>,
}

impl DeltaMessage {
    /// Creates a message.
    pub fn new(target: VertexId, hop: usize, delta: Vec<f32>) -> Self {
        DeltaMessage { target, hop, delta }
    }

    /// Builds the delta that replaces `old` with `new` under edge coefficient
    /// `coeff` (`delta = coeff·(new − old)`).
    ///
    /// # Panics
    ///
    /// Panics if `old` and `new` have different lengths.
    pub fn replacing(target: VertexId, hop: usize, coeff: f32, old: &[f32], new: &[f32]) -> Self {
        assert_eq!(old.len(), new.len(), "old/new embedding width mismatch");
        let delta = new
            .iter()
            .zip(old.iter())
            .map(|(n, o)| coeff * (n - o))
            .collect();
        DeltaMessage { target, hop, delta }
    }

    /// Builds the delta for a newly added edge contribution (`h_old = 0`).
    pub fn adding(target: VertexId, hop: usize, coeff: f32, new: &[f32]) -> Self {
        DeltaMessage {
            target,
            hop,
            delta: new.iter().map(|n| coeff * n).collect(),
        }
    }

    /// Builds the delta for a removed edge contribution (`h_new = 0`).
    pub fn removing(target: VertexId, hop: usize, coeff: f32, old: &[f32]) -> Self {
        DeltaMessage {
            target,
            hop,
            delta: old.iter().map(|o| -coeff * o).collect(),
        }
    }

    /// Approximate wire size of the message in bytes (vertex id + hop +
    /// payload), used by the simulated network's byte accounting — the
    /// quantity behind the paper's "70× lower communication" claim.
    pub fn wire_bytes(&self) -> usize {
        4 + 8 + 4 * self.delta.len()
    }
}

/// Pre-accumulated outgoing halo deltas of one shard, grouped per
/// receiving partition.
///
/// The unit of cross-partition communication of every [`crate::ShardEngine`]
/// — the threaded sharded serving tier (`ripple-serve`) and the simulated
/// BSP runtime (`ripple-dist`) alike: a deposit whose target the shard owns
/// goes straight into its own [`crate::MailboxSet`]; anything else
/// accumulates here — one slot per (receiver, hop, target) — until a flush
/// window or superstep boundary drains the slots as one [`DeltaMessage`]
/// each. Accumulation is a scaled add (`slot += coeff * delta`), which is
/// lossless for every linear aggregator, and slots are kept in `BTreeMap`
/// order so drains (and therefore downstream float accumulation) are
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct HaloStubs {
    /// `parts[p]` holds the pending stubs for receiving partition `p`,
    /// keyed by (hop, target).
    parts: Vec<BTreeMap<(usize, VertexId), Vec<f32>>>,
}

impl HaloStubs {
    /// A stub pool with `num_parts` partition slots.
    pub fn new(num_parts: usize) -> Self {
        HaloStubs {
            parts: vec![BTreeMap::new(); num_parts],
        }
    }

    /// Number of partition slots.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Accumulates `coeff * delta` into partition `part`'s stub for
    /// (`hop`, `target`).
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range.
    pub fn deposit(
        &mut self,
        part: PartitionId,
        hop: usize,
        target: VertexId,
        coeff: f32,
        delta: &[f32],
    ) {
        let slot = self.parts[part.index()]
            .entry((hop, target))
            .or_insert_with(|| vec![0.0; delta.len()]);
        ripple_tensor::axpy(slot, coeff, delta);
    }

    /// Total pending stubs across all partition slots.
    pub fn pending(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// `true` when no stub is pending anywhere.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.is_empty())
    }

    /// Drains every pending stub, partition-major then (hop, target) order.
    pub fn drain(&mut self) -> Vec<(PartitionId, DeltaMessage)> {
        let mut out = Vec::with_capacity(self.pending());
        for (p, stubs) in self.parts.iter_mut().enumerate() {
            let part = PartitionId(p as u32);
            out.extend(
                std::mem::take(stubs)
                    .into_iter()
                    .map(|((hop, target), delta)| (part, DeltaMessage { target, hop, delta })),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halo_stubs_accumulate_and_drain_in_order() {
        let mut stubs = HaloStubs::new(2);
        assert!(stubs.is_empty());
        stubs.deposit(PartitionId(1), 2, VertexId(9), 1.0, &[1.0, 0.0]);
        stubs.deposit(PartitionId(1), 1, VertexId(3), 2.0, &[0.5, 0.5]);
        stubs.deposit(PartitionId(1), 2, VertexId(9), -1.0, &[0.0, 2.0]);
        stubs.deposit(PartitionId(0), 1, VertexId(7), 1.0, &[4.0]);
        assert_eq!(stubs.pending(), 3);

        let drained = stubs.drain();
        assert!(stubs.is_empty());
        assert_eq!(drained.len(), 3);
        // Partition-major, then (hop, target) ascending.
        assert_eq!(drained[0].0, PartitionId(0));
        assert_eq!(drained[0].1, DeltaMessage::new(VertexId(7), 1, vec![4.0]));
        assert_eq!(drained[1].0, PartitionId(1));
        assert_eq!(
            drained[1].1,
            DeltaMessage::new(VertexId(3), 1, vec![1.0, 1.0])
        );
        // Same (hop, target) slot accumulated with coefficients applied.
        assert_eq!(
            drained[2].1,
            DeltaMessage::new(VertexId(9), 2, vec![1.0, -2.0])
        );
    }

    #[test]
    fn replacing_encodes_difference() {
        let m = DeltaMessage::replacing(VertexId(3), 2, 1.0, &[1.0, 2.0], &[3.0, 1.0]);
        assert_eq!(m.delta, vec![2.0, -1.0]);
        assert_eq!(m.target, VertexId(3));
        assert_eq!(m.hop, 2);
    }

    #[test]
    fn replacing_applies_coefficient() {
        let m = DeltaMessage::replacing(VertexId(0), 1, 0.5, &[2.0], &[6.0]);
        assert_eq!(m.delta, vec![2.0]);
    }

    #[test]
    fn adding_is_replacing_from_zero() {
        let new = vec![1.5, -2.0];
        let a = DeltaMessage::adding(VertexId(1), 1, 2.0, &new);
        let r = DeltaMessage::replacing(VertexId(1), 1, 2.0, &[0.0, 0.0], &new);
        assert_eq!(a, r);
    }

    #[test]
    fn removing_is_replacing_to_zero() {
        let old = vec![1.5, -2.0];
        let d = DeltaMessage::removing(VertexId(1), 1, 1.0, &old);
        let r = DeltaMessage::replacing(VertexId(1), 1, 1.0, &old, &[0.0, 0.0]);
        assert_eq!(d, r);
    }

    #[test]
    fn wire_bytes_scales_with_width() {
        let narrow = DeltaMessage::new(VertexId(0), 1, vec![0.0; 4]);
        let wide = DeltaMessage::new(VertexId(0), 1, vec![0.0; 128]);
        assert!(wide.wire_bytes() > narrow.wire_bytes());
        assert_eq!(narrow.wire_bytes(), 4 + 8 + 16);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn replacing_width_mismatch_panics() {
        let _ = DeltaMessage::replacing(VertexId(0), 1, 1.0, &[1.0], &[1.0, 2.0]);
    }
}
