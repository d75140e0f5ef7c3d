//! Halo (boundary replica) computation, mirroring DistDGL's halo vertices.
//!
//! Each worker owns the embeddings of its *local* vertices. When a local
//! vertex's embedding changes, messages must reach its out-neighbours — some
//! of which live on other workers. Rather than addressing remote vertices
//! directly, each worker keeps a *stub mailbox* for every remote vertex that
//! is an out-neighbour of one of its local vertices (an **outgoing halo**),
//! fills those stubs during the compute phase, and ships them to the owning
//! worker during the communication phase of each BSP superstep (§5.3).

use super::Partitioning;
use crate::dynamic::DynamicGraph;
use crate::ids::{PartitionId, VertexId};
use std::collections::{BTreeMap, BTreeSet};

/// Halo information for every partition of a partitioned graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloInfo {
    /// For each partition `p`: the remote vertices that local vertices of `p`
    /// have out-edges to, grouped by the partition that owns them.
    outgoing: Vec<BTreeMap<PartitionId, BTreeSet<VertexId>>>,
}

impl HaloInfo {
    /// Computes halo sets for every partition.
    pub fn compute(graph: &DynamicGraph, partitioning: &Partitioning) -> Self {
        let k = partitioning.num_parts();
        let mut outgoing: Vec<BTreeMap<PartitionId, BTreeSet<VertexId>>> = vec![BTreeMap::new(); k];
        for (src, dst, _w) in graph.iter_edges() {
            let ps = partitioning.part_of(src);
            let pd = partitioning.part_of(dst);
            if ps != pd {
                outgoing[ps.index()].entry(pd).or_default().insert(dst);
            }
        }
        HaloInfo { outgoing }
    }

    /// Total number of halo replicas across all partitions — a proxy for the
    /// replication memory overhead of the distributed deployment.
    pub fn total_halo_replicas(&self) -> usize {
        self.outgoing
            .iter()
            .map(|m| m.values().map(BTreeSet::len).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{HashPartitioner, LdgPartitioner, Partitioner};
    use crate::synth::DatasetSpec;

    fn two_part_line() -> (DynamicGraph, Partitioning) {
        // 0 -> 1 -> 2 -> 3, split 0,1 | 2,3.
        let mut g = DynamicGraph::new(4, 1);
        for i in 0..3u32 {
            g.add_edge(VertexId(i), VertexId(i + 1), 1.0).unwrap();
        }
        let p = Partitioning::from_assignment(
            vec![
                PartitionId(0),
                PartitionId(0),
                PartitionId(1),
                PartitionId(1),
            ],
            2,
        )
        .unwrap();
        (g, p)
    }

    #[test]
    fn halos_on_split_line() {
        let (g, p) = two_part_line();
        let halos = HaloInfo::compute(&g, &p);
        // Partition 0 has the cut edge 1 -> 2, so vertex 2 is an outgoing halo
        // of partition 0 owned by partition 1.
        let out0 = &halos.outgoing[0];
        assert_eq!(out0.len(), 1);
        assert!(out0[&PartitionId(1)].contains(&VertexId(2)));
        // Partition 1 has no outgoing cut edges.
        assert!(halos.outgoing[1].is_empty());
        assert_eq!(halos.total_halo_replicas(), 1);
    }

    #[test]
    fn no_halos_for_single_partition() {
        let g = DatasetSpec::custom(50, 4.0, 2, 2).generate(0).unwrap();
        let p = LdgPartitioner::new().partition(&g, 1).unwrap();
        let halos = HaloInfo::compute(&g, &p);
        assert_eq!(halos.total_halo_replicas(), 0);
    }

    #[test]
    fn halo_count_tracks_edge_cut() {
        let g = DatasetSpec::custom(200, 6.0, 2, 2).generate(5).unwrap();
        let hash = HashPartitioner::new().partition(&g, 4).unwrap();
        let ldg = LdgPartitioner::new().partition(&g, 4).unwrap();
        let hash_halos = HaloInfo::compute(&g, &hash).total_halo_replicas();
        let ldg_halos = HaloInfo::compute(&g, &ldg).total_halo_replicas();
        // Halo replicas are bounded above by the edge cut (duplicate sinks collapse).
        assert!(hash_halos <= hash.edge_cut(&g));
        assert!(ldg_halos <= ldg.edge_cut(&g));
    }

    #[test]
    fn every_outgoing_halo_is_remote() {
        let g = DatasetSpec::custom(120, 5.0, 2, 2).generate(9).unwrap();
        let p = LdgPartitioner::new().partition(&g, 3).unwrap();
        let halos = HaloInfo::compute(&g, &p);
        for part in 0..3u32 {
            let pid = PartitionId(part);
            for (owner, verts) in &halos.outgoing[pid.index()] {
                assert_ne!(*owner, pid);
                for v in verts {
                    assert_eq!(p.part_of(*v), *owner);
                }
            }
        }
    }
}
