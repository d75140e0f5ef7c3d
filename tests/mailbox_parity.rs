//! Property suite for the dense mailbox apply path: depositing into the
//! slot-indexed [`MailboxSet`] and folding each hop's rows, in ascending
//! target order, into the aggregate tables must be **bit-identical** — not
//! merely within tolerance — to the `HashMap` walk this suite keeps as its
//! oracle (one zero-initialised `Vec` per (hop, target) slot, `axpy` per
//! deposit, then one `add_assign` per slot in hash order), for any deposit
//! pattern. Each delta targets its own store row, so only the iteration order
//! differs between the paths, and addition into disjoint rows is
//! order-insensitive at the bit level; these tests pin that contract, in the
//! same style as `tests/kernel_parity.rs` pins the GEMM kernels.

use proptest::prelude::*;
use ripple::core::MailboxSet;
use ripple::prelude::*;
use ripple::tensor::{add_assign, axpy};
use std::collections::HashMap;

/// One deposit: `(hop, target, coeff, delta)`.
type Deposit = (usize, u32, f32, Vec<f32>);

/// The oracle: one `HashMap` per hop, a fresh zeroed `Vec` per slot.
struct MapMailboxes {
    hops: Vec<HashMap<VertexId, Vec<f32>>>,
}

impl MapMailboxes {
    fn new(num_hops: usize) -> Self {
        MapMailboxes {
            hops: vec![HashMap::new(); num_hops],
        }
    }

    fn deposit(&mut self, hop: usize, target: VertexId, coeff: f32, delta: &[f32]) {
        let slot = self.hops[hop - 1]
            .entry(target)
            .or_insert_with(|| vec![0.0; delta.len()]);
        axpy(slot, coeff, delta);
    }

    /// Drains hop `hop` into the stored raw aggregates, in hash order.
    fn apply(&mut self, store: &mut EmbeddingStore, hop: usize) -> usize {
        let mail = std::mem::take(&mut self.hops[hop - 1]);
        for (&v, delta) in &mail {
            add_assign(store.aggregate_mut(hop, v), delta);
        }
        mail.len()
    }
}

/// The engine's apply: sort the hop's targets, add each row in place.
fn apply_dense(boxes: &mut MailboxSet, store: &mut EmbeddingStore, hop: usize) -> usize {
    let mail = boxes.sorted_hop(hop);
    assert!(
        mail.targets().windows(2).all(|w| w[0] < w[1]),
        "hop {hop} targets sorted and deduplicated"
    );
    for (v, row) in mail.iter() {
        add_assign(store.aggregate_mut(hop, v), row);
    }
    mail.targets().len()
}

/// Asserts two equal-length f32 slices are identical bit for bit.
fn assert_bits_eq(a: &[f32], b: &[f32], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: width mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: element {i} differs ({x} vs {y})"
        );
    }
}

/// A zeroed store whose hop-`l` aggregates are `dims[l-1]` wide.
fn zeroed_store(num_vertices: usize, dims: &[usize]) -> EmbeddingStore {
    let model = GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, dims, 1).unwrap();
    EmbeddingStore::zeroed(&model, num_vertices)
}

/// Replays `deposits` through both paths into stores shaped by `dims`,
/// applies every hop, and asserts the aggregate tables match bit for bit.
/// Leaves `boxes` holding the applied mail, as the engine does until its
/// next batch.
fn check_parity(boxes: &mut MailboxSet, deposits: &[Deposit], num_vertices: usize, dims: &[usize]) {
    let hops = dims.len() - 1;
    let mut oracle = MapMailboxes::new(hops);
    for (hop, v, coeff, delta) in deposits {
        oracle.deposit(*hop, VertexId(*v), *coeff, delta);
        boxes.deposit(*hop, VertexId(*v), *coeff, delta);
    }
    let mut map_store = zeroed_store(num_vertices, dims);
    let mut dense_store = zeroed_store(num_vertices, dims);
    for hop in 1..=hops {
        let map_slots = oracle.apply(&mut map_store, hop);
        let dense_slots = apply_dense(boxes, &mut dense_store, hop);
        assert_eq!(map_slots, dense_slots, "hop {hop}: one add per slot");
        assert_bits_eq(
            dense_store.aggregates(hop).as_slice(),
            map_store.aggregates(hop).as_slice(),
            &format!("hop-{hop} aggregates"),
        );
    }
}

/// Deposits derived from a SplitMix-style walk, so a case is fully
/// determined by its seed. Hops draw from `1..=hops`, widths from `dims`.
fn random_deposits(seed: u64, count: usize, num_vertices: u32, dims: &[usize]) -> Vec<Deposit> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = || {
        state ^= state >> 30;
        state = state.wrapping_mul(0xbf58476d1ce4e5b9);
        state ^= state >> 27;
        state
    };
    let hops = dims.len() as u64 - 1;
    (0..count)
        .map(|_| {
            let hop = (next() % hops) as usize + 1;
            let v = (next() % u64::from(num_vertices)) as u32;
            let coeff = ((next() % 2000) as f32 - 1000.0) / 256.0;
            let delta: Vec<f32> = (0..dims[hop - 1])
                .map(|_| ((next() % 2000) as f32 - 1000.0) / 128.0)
                .collect();
            (hop, v, coeff, delta)
        })
        .collect()
}

#[test]
fn arena_apply_matches_map_apply_on_a_fixed_churn_pattern() {
    // Repeated slots, negative coefficients, a mix of magnitudes.
    let deposits = vec![
        (1, 3u32, 1.0f32, vec![1.0, 2.0, -3.0, 0.5]),
        (1, 0, -0.5, vec![4.0, 0.0, 1.0, 1.0]),
        (1, 3, 0.25, vec![-8.0, 1e-3, 7.5, 2.0]),
        (1, 7, 1.0, vec![0.1, 0.2, 0.3, 0.4]),
        (1, 0, 2.0, vec![1e6, -1e6, 3.0, 0.125]),
        (1, 5, -1.0, vec![0.0, 0.0, 0.0, 0.0]),
    ];
    check_parity(&mut MailboxSet::new(1), &deposits, 10, &[4, 4]);
}

/// `dense_stream`'s shape: hop 1 carries 100-wide feature deltas and hop 2
/// 128-wide hidden deltas, with deposits to the two hops interleaved.
#[test]
fn interleaved_hops_of_different_widths_match_the_map() {
    let dims = [100, 128, 47];
    let deposits = random_deposits(7, 600, 64, &dims);
    assert!(deposits.iter().any(|d| d.0 == 1) && deposits.iter().any(|d| d.0 == 2));
    check_parity(&mut MailboxSet::new(2), &deposits, 64, &dims);
}

/// Targets past the current slot table grow it; earlier rows survive the
/// growth untouched.
#[test]
fn targets_past_the_slot_table_grow_it() {
    let dims = [5, 5];
    let mut deposits = Vec::new();
    for &v in &[2u32, 1, 40, 3, 999, 2, 40, 1500, 0, 999] {
        deposits.push((
            1,
            v,
            0.5 + v as f32 / 7.0,
            vec![v as f32, 1.0, -2.0, 0.25, 1e-3],
        ));
    }
    check_parity(&mut MailboxSet::new(1), &deposits, 1501, &dims);
}

/// One mailbox set reused across batches, as the engine reuses its own:
/// after a reset no stale row or slot survives, and the next batch matches
/// a fresh oracle bit for bit.
#[test]
fn reuse_across_batches_leaves_no_stale_mail() {
    let dims = [6, 9, 3];
    let mut boxes = MailboxSet::new(2);
    let mut previous: Vec<u32> = Vec::new();
    for batch in 0..5u64 {
        // Later batches touch fewer, partly overlapping targets.
        let vertices = 80 - 15 * batch as u32;
        let deposits = random_deposits(100 + batch, 200, vertices, &dims);
        boxes.clear();
        assert!(boxes.is_empty(), "batch {batch}: reset left mail");
        for hop in 1..=2 {
            for &v in &previous {
                assert_eq!(boxes.hop(hop).get(VertexId(v)), None, "stale slot {v}");
            }
        }
        check_parity(&mut boxes, &deposits, 80, &dims);
        previous = deposits.iter().map(|d| d.1).collect();
    }
}

#[test]
#[should_panic(expected = "wide")]
fn width_mismatch_within_a_hop_panics() {
    let mut boxes = MailboxSet::new(2);
    boxes.deposit(1, VertexId(0), 1.0, &[1.0; 100]);
    boxes.deposit(2, VertexId(0), 1.0, &[1.0; 128]);
    boxes.deposit(1, VertexId(4), 1.0, &[1.0; 128]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Randomized deposit patterns: arbitrary target churn, coefficients and
    /// delta values never let the two apply paths diverge by a single bit.
    #[test]
    fn arena_apply_matches_map_apply_on_random_deposits(
        seed in 0u64..1_000,
        num_deposits in 1usize..120,
    ) {
        let deposits = random_deposits(seed, num_deposits, 24, &[3, 5, 3]);
        check_parity(&mut MailboxSet::new(2), &deposits, 24, &[3, 5, 3]);
    }
}
