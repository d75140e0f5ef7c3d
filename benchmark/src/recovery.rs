//! Restart time of a durable workload, and the gate that a recovered
//! session is bit-identical to the live one.

use crate::stats::median;
use crate::tier::{serve_config, Scratch};
use crate::workloads::WorkloadSpec;
use ripple_core::RippleEngine;
use ripple_gnn::EmbeddingStore;
use ripple_graph::VertexId;
use ripple_serve::durability::recover;
use ripple_serve::spawn;
use std::path::Path;
use std::time::Instant;

/// Fresh copies of the WAL directory recovered per run.
const COPIES: usize = 5;

/// What recovering the live session's durability directory measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// `spawn(bootstrap engine, same durable config)` → first read on a
    /// fresh copy of the directory: median of the copies, ms.
    pub recovery_ms: f64,
    /// `recover(dir)` alone (checkpoint load + WAL scan): median, ms.
    pub scan_ms: f64,
    /// WAL frames replayed on top of the checkpoint.
    pub replayed_windows: u64,
    /// Every recovered store, graph and epoch equalled the live engine's.
    pub identical: bool,
    /// What differed, if anything did.
    pub detail: String,
}

/// Whether two stores hold the same bits in every embedding and aggregate
/// table.
pub fn stores_identical(a: &EmbeddingStore, b: &EmbeddingStore) -> bool {
    let same = |x: &[f32], y: &[f32]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.num_layers() == b.num_layers()
        && (0..=a.num_layers())
            .all(|l| same(a.embeddings(l).as_slice(), b.embeddings(l).as_slice()))
        && (1..=a.num_layers())
            .all(|l| same(a.aggregates(l).as_slice(), b.aggregates(l).as_slice()))
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Recovers [`COPIES`] fresh copies of `live_dir` (the directory of a session
/// that has been `shutdown()`), timing each, and compares what comes back
/// with `live` bit for bit.
pub fn measure(
    spec: &WorkloadSpec,
    bootstrap: &RippleEngine,
    live_dir: &Path,
    live: &RippleEngine,
    live_epoch: u64,
    scratch: &Scratch,
) -> Result<Recovery, String> {
    let mut recovery_ms = Vec::with_capacity(COPIES);
    let mut scan_ms = Vec::with_capacity(COPIES);
    let mut replayed_windows = 0;
    let mut differences = Vec::new();
    for copy in 0..COPIES {
        let dir = scratch.dir(&format!("recover-{copy}"));
        copy_dir(live_dir, &dir).map_err(|e| format!("copying the WAL directory: {e}"))?;
        let engine = bootstrap.clone();
        let config = serve_config(spec, &dir, false);
        let started = Instant::now();
        let handle = spawn(engine, config).map_err(|e| format!("recovery spawn: {e}"))?;
        let first = handle
            .query_service()
            .read_label(VertexId(0))
            .map_err(|e| format!("first read after recovery: {e}"))?;
        recovery_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let report = handle
            .recovery_report()
            .ok_or("a durable session carries a recovery report")?;
        replayed_windows = report.replayed_windows;
        let recovered = handle
            .shutdown()
            .map_err(|e| format!("recovered session shutdown: {e}"))?;
        if first.epoch != live_epoch || report.resumed_epoch != live_epoch {
            differences.push(format!(
                "copy {copy} resumed at epoch {} (first read {}), live was {live_epoch}",
                report.resumed_epoch, first.epoch
            ));
        }
        if !stores_identical(recovered.store(), live.store()) {
            differences.push(format!("copy {copy}: recovered store differs"));
        }
        if recovered.graph() != live.graph() || recovered.topology_epoch() != live.topology_epoch()
        {
            differences.push(format!("copy {copy}: recovered graph differs"));
        }
        let started = Instant::now();
        recover(&dir).map_err(|e| format!("recover scan: {e}"))?;
        scan_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok(Recovery {
        recovery_ms: median(&recovery_ms),
        scan_ms: median(&scan_ms),
        replayed_windows,
        identical: differences.is_empty(),
        detail: differences.join("; "),
    })
}
