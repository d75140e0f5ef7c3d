//! Durability for the serving tier: a write-ahead log of accepted update
//! windows, epoch-consistent checkpoints, and bit-identical crash recovery.
//!
//! The unit of durability is the coalesced flush window — exactly what the
//! scheduler already records as a `FlushRecord`. Every window the scheduler
//! accepts is appended to the WAL *before* the engine applies it, stamped
//! with the post-flush counters (`window_seq`, epoch, applied sequence,
//! topology epoch). Because the engines are deterministic functions of
//! (starting state, window sequence), replaying the logged windows from the
//! latest checkpoint reconstructs the exact pre-crash state: same embedding
//! bits, same adjacency order, same topology epoch. The repo's determinism
//! contracts (`serve_consistency`, `parallel_determinism`) are what make
//! that a testable property rather than a marketing claim.
//!
//! On-disk layout (one directory per engine; the sharded tier uses one
//! subdirectory per shard, `shard-{p}/`):
//!
//! ```text
//! wal-{seq:020}.log   an 8-byte format tag ([`WAL_MAGIC`]) followed by
//!                     length-prefixed, CRC-checksummed frames; the name is
//!                     the window_seq of the segment's first frame; segments
//!                     rotate at `segment_bytes`
//! ckpt-{seq:020}.bin  full graph + embedding store at window_seq == seq,
//!                     written to a temp file and atomically renamed
//! ```
//!
//! A frame is `[len: u32][crc32(payload): u32][payload]`. A torn or
//! truncated tail (short header, short payload, or checksum mismatch) marks
//! the end of the durable prefix: everything before it is replayed,
//! everything from it on is dropped, and the writer truncates the torn
//! bytes before appending again. Checkpoints validate the same way; a
//! corrupt newest checkpoint falls back to the previous one (the WAL is
//! only pruned up to the *retained* checkpoint horizon).
//!
//! Both encodings are versioned: the segment tag and the checkpoint magic
//! change whenever the payload shape changes, and readers *refuse* data
//! carrying a recognised-but-retired tag instead of misparsing it as a
//! torn tail. Durable state from an older binary is never silently
//! discarded as corruption — recovery fails loudly and names the file.
//!
//! Crash injection for the crash tests goes through [`FailPoints`]: the
//! WAL append, checkpoint and post-publish paths consult a shared registry
//! so kills land *between* and *inside* the critical sections (including a
//! deliberately torn half-written frame).

use crate::scheduler::ServeError;
use ripple_core::DeltaMessage;
use ripple_gnn::EmbeddingStore;
use ripple_graph::{DynamicGraph, GraphUpdate, PartitionId, UpdateBatch, VertexId};
use ripple_tensor::Matrix;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Fail point consulted immediately before a WAL append writes any bytes:
/// the window is lost entirely (never became durable).
pub const FP_WAL_BEFORE_APPEND: &str = "wal.append.before";
/// Fail point that tears the frame mid-write: the header and roughly half
/// the payload reach the file, then the append fails. Recovery must detect
/// the torn frame by checksum and drop it.
pub const FP_WAL_TORN_APPEND: &str = "wal.append.torn";
/// Fail point consulted after the frame is appended (durable up to the
/// fsync policy) but before the engine applies the window: recovery must
/// replay a window the crashed process never published.
pub const FP_WAL_AFTER_APPEND: &str = "wal.append.after";
/// Fail point consulted after the epoch is published but before a due
/// checkpoint is taken (kills between the publish and checkpoint sections).
pub const FP_AFTER_PUBLISH: &str = "publish.after";
/// Fail point that abandons a checkpoint half-written: the temp file is
/// left behind and never renamed, so recovery must ignore it.
pub const FP_CKPT_MID: &str = "checkpoint.mid";

/// When the WAL writer calls `fsync` (well, `fdatasync`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Sync after every appended frame: a window acknowledged to the log is
    /// durable against power loss, at the cost of one sync per flush.
    #[default]
    Always,
    /// Never sync explicitly; durability is limited to what the OS page
    /// cache has written back. Survives process kills (the crash tests'
    /// threat model) but not power loss.
    Never,
}

/// Shared, armable crash-injection registry. Cloning shares the registry;
/// a crash test holds one side and the serving session's WAL,
/// checkpoint and publish paths consult the other.
///
/// A site armed with `after_hits = n` lets `n` calls pass and fires on call
/// `n + 1`; firing disarms the site, so a recovered session does not
/// immediately die at the same point.
#[derive(Debug, Clone, Default)]
pub struct FailPoints {
    inner: Arc<Mutex<HashMap<&'static str, u64>>>,
}

impl FailPoints {
    /// Creates an empty (never-firing) registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `site` to fire after letting `after_hits` consultations pass.
    pub fn arm(&self, site: &'static str, after_hits: u64) {
        self.lock().insert(site, after_hits);
    }

    /// Disarms every site.
    pub fn disarm_all(&self) {
        self.lock().clear();
    }

    /// Whether any site is currently armed.
    pub fn armed(&self) -> bool {
        !self.lock().is_empty()
    }

    /// Consults `site`: returns `true` exactly when the armed hit count is
    /// exhausted (and disarms it). Unarmed sites always return `false`.
    pub fn fire(&self, site: &'static str) -> bool {
        let mut map = self.lock();
        match map.get_mut(site) {
            Some(0) => {
                map.remove(site);
                true
            }
            Some(hits) => {
                *hits -= 1;
                false
            }
            None => false,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<&'static str, u64>> {
        // A panic while holding this lock cannot leave the map
        // inconsistent (single-key updates), so poisoning is ignorable.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Durability configuration carried inside `ServeConfig`. Equality ignores
/// the fail-point registry (it is test-only plumbing, not configuration).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments and checkpoints. The sharded tier
    /// appends `shard-{p}/` per shard.
    pub dir: PathBuf,
    /// Take a checkpoint every this many logged windows (each logged window
    /// publishes exactly one epoch). `0` disables checkpoints: recovery
    /// then replays the WAL from the bootstrap state.
    pub checkpoint_every: u64,
    /// Fsync policy for WAL appends and checkpoint files.
    pub fsync: FsyncPolicy,
    /// Rotate to a fresh WAL segment once the current one reaches this many
    /// bytes.
    pub segment_bytes: u64,
    /// Crash-injection hooks (no-ops unless armed).
    pub fail_points: FailPoints,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with defaults: checkpoint every 64
    /// windows, fsync on every flush, 8 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_every: 64,
            fsync: FsyncPolicy::default(),
            segment_bytes: 8 << 20,
            fail_points: FailPoints::new(),
        }
    }

    /// Sets the checkpoint cadence (in logged windows; `0` = never).
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Sets the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Sets the WAL segment rotation threshold in bytes.
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(1);
        self
    }

    /// Installs a shared crash-injection registry.
    pub fn fail_points(mut self, points: FailPoints) -> Self {
        self.fail_points = points;
        self
    }

    /// The per-shard durability directory used by the sharded tier.
    pub fn shard_dir(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard}"))
    }

    /// This configuration re-rooted at shard `shard`'s subdirectory.
    pub fn for_shard(&self, shard: usize) -> Self {
        let mut config = self.clone();
        config.dir = self.shard_dir(shard);
        config
    }
}

impl PartialEq for DurabilityConfig {
    fn eq(&self, other: &Self) -> bool {
        self.dir == other.dir
            && self.checkpoint_every == other.checkpoint_every
            && self.fsync == other.fsync
            && self.segment_bytes == other.segment_bytes
    }
}

/// One durable flush window: the post-flush counters plus the coalesced
/// batch (and, on the sharded tier, the halo deltas consumed with it).
///
/// The counters are the values the session holds *after* applying this
/// window — recovery resumes them from the last replayed frame. A frame
/// with an empty batch is a fully-cancelled window: it still advances
/// `window_seq` and publishes an epoch, which is exactly the ambiguity
/// `window_seq` exists to resolve (an absent sequence number is a skipped
/// flush; an empty batch is a logged one).
#[derive(Debug, Clone, PartialEq)]
pub struct WalFrame {
    /// Monotone index of this logged window (1-based).
    pub window_seq: u64,
    /// Epoch published for this window.
    pub epoch: u64,
    /// Raw updates accepted through the end of this window.
    pub applied_seq: u64,
    /// Secondary (replicated halo-owner) updates through this window.
    pub applied_secondary: u64,
    /// Topology epoch after this window.
    pub topology_epoch: u64,
    /// Raw updates coalesced into this window.
    pub raw: u64,
    /// The coalesced updates, in application order.
    pub batch: UpdateBatch,
    /// Halo deltas applied with this window (sharded tier only).
    pub halos: Vec<DeltaMessage>,
    /// Provenance runs over `halos`: which sender shard shipped each
    /// consecutive run of deltas, and under which sender-side window
    /// sequence. Recovery rebuilds the receiver's per-sender dedup
    /// watermarks from these runs so a crashed sender re-shipping an
    /// in-flight window applies exactly once.
    pub halo_sources: Vec<HaloSource>,
}

/// One run of halo deltas inside a [`WalFrame`]: `count` consecutive
/// entries of `frame.halos` that arrived from shard `from` tagged with the
/// sender's `window_seq`. Runs appear in the same order as the deltas they
/// describe and their counts sum to `frame.halos.len()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloSource {
    /// Shard that produced the deltas.
    pub from: PartitionId,
    /// The sender's window sequence for the flush that produced them.
    pub window_seq: u64,
    /// Number of consecutive `halos` entries in this run.
    pub count: u32,
}

const FRAME_HEADER_BYTES: usize = 8;
/// Format tag opening every WAL segment. Version 2 added the
/// `halo_sources` provenance section to the frame payload; segments
/// without this tag (including v1 segments, which began directly with a
/// frame header) are rejected loudly rather than parsed as torn.
const WAL_MAGIC: &[u8; 8] = b"RPLWAL02";
const WAL_HEADER_BYTES: usize = 8;
/// Checkpoint magic. Version 2 added the `halo_watermarks` section.
const CKPT_MAGIC: &[u8; 8] = b"RPLCKPT2";
/// Magic of the retired v1 checkpoint encoding (no halo watermark
/// section). Recognised only so recovery can fail loudly instead of
/// skipping a durable checkpoint as corrupt.
const CKPT_MAGIC_V1: &[u8; 8] = b"RPLCKPT1";

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables (Kounavis & Berry, ISCC 2005):
/// `CRC_TABLES[0]` is the classic byte-at-a-time table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight table lookups fold eight input bytes into the state at once.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected) — hand-rolled because the offline shim
/// set has no checksum crate. Table-driven (slicing-by-8): every checkpoint
/// write, checkpoint load, WAL frame encode and WAL scan checksums its
/// whole payload, and a bitwise loop made this the larger part of a
/// multi-megabyte checkpoint's write and load time.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// Incremental CRC-32 state update (state starts at `0xFFFF_FFFF`, finish
/// with a bitwise NOT). Lets the streaming checkpoint writer checksum
/// without buffering the whole payload.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// The definition the tables implement: one shift-xor step per bit.
#[cfg(test)]
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// A `Write` adapter that checksums everything passing through it. The
/// streaming checkpoint path writes straight to a `BufWriter<File>` through
/// this, so no payload-sized buffer ever exists in memory.
struct CrcWriter<W: Write> {
    inner: W,
    crc: u32,
}

impl<W: Write> CrcWriter<W> {
    fn new(inner: W) -> Self {
        CrcWriter {
            inner,
            crc: 0xFFFF_FFFF,
        }
    }

    fn finish_crc(&self) -> u32 {
        !self.crc
    }
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc = crc32_update(self.crc, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `values` as little-endian IEEE-754 words: one resize, then one
/// pass over the new bytes.
fn put_f32s(buf: &mut Vec<u8>, values: &[f32]) {
    let start = buf.len();
    buf.resize(start + values.len() * 4, 0);
    for (dst, x) in buf[start..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
}

/// The little-endian `u32` in the first 4 bytes of `bytes`; callers pass
/// slices already length-checked to hold them.
fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

/// Bounds-checked little-endian reader over a byte slice. Every decode
/// failure is reported as `None` and treated as corruption by callers.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(le_u32)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// `N` consecutive `u32`s, length-checked once.
    fn u32s<const N: usize>(&mut self) -> Option<[u32; N]> {
        let bytes = self.take(N * 4)?;
        Some(std::array::from_fn(|i| le_u32(&bytes[4 * i..])))
    }

    fn f32_vec(&mut self, len: usize) -> Option<Vec<f32>> {
        // A corrupt length fails here, before anything is allocated.
        let bytes = self.take(len.checked_mul(4)?)?;
        Some(
            bytes
                .chunks_exact(4)
                .map(|b| f32::from_bits(le_u32(b)))
                .collect(),
        )
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn put_update(buf: &mut Vec<u8>, update: &GraphUpdate) {
    match update {
        GraphUpdate::AddEdge { src, dst, weight } => {
            buf.push(0);
            put_u32(buf, src.0);
            put_u32(buf, dst.0);
            put_u32(buf, weight.to_bits());
        }
        GraphUpdate::DeleteEdge { src, dst } => {
            buf.push(1);
            put_u32(buf, src.0);
            put_u32(buf, dst.0);
        }
        GraphUpdate::UpdateFeature { vertex, features } => {
            buf.push(2);
            put_u32(buf, vertex.0);
            put_u32(buf, features.len() as u32);
            put_f32s(buf, features);
        }
    }
}

fn read_update(cur: &mut Cursor<'_>) -> Option<GraphUpdate> {
    match cur.u8()? {
        0 => {
            let [src, dst, weight] = cur.u32s()?;
            Some(GraphUpdate::AddEdge {
                src: VertexId(src),
                dst: VertexId(dst),
                weight: f32::from_bits(weight),
            })
        }
        1 => {
            let [src, dst] = cur.u32s()?;
            Some(GraphUpdate::DeleteEdge {
                src: VertexId(src),
                dst: VertexId(dst),
            })
        }
        2 => {
            let [vertex, len] = cur.u32s()?;
            let features = cur.f32_vec(len as usize)?;
            Some(GraphUpdate::UpdateFeature {
                vertex: VertexId(vertex),
                features,
            })
        }
        _ => None,
    }
}

fn read_matrix(cur: &mut Cursor<'_>) -> Option<Matrix> {
    let rows = cur.u32()? as usize;
    let cols = cur.u32()? as usize;
    let data = cur.f32_vec(rows.checked_mul(cols)?)?;
    Matrix::from_flat(rows, cols, data).ok()
}

/// Appends a frame's payload (everything the checksum covers) to `buf`.
fn encode_payload(buf: &mut Vec<u8>, frame: &WalFrame) {
    put_u64(buf, frame.window_seq);
    put_u64(buf, frame.epoch);
    put_u64(buf, frame.applied_seq);
    put_u64(buf, frame.applied_secondary);
    put_u64(buf, frame.topology_epoch);
    put_u64(buf, frame.raw);
    put_u32(buf, frame.batch.len() as u32);
    for update in frame.batch.iter() {
        put_update(buf, update);
    }
    put_u32(buf, frame.halos.len() as u32);
    for halo in &frame.halos {
        put_u32(buf, halo.target.0);
        put_u32(buf, halo.hop as u32);
        put_u32(buf, halo.delta.len() as u32);
        put_f32s(buf, &halo.delta);
    }
    put_u32(buf, frame.halo_sources.len() as u32);
    for source in &frame.halo_sources {
        put_u32(buf, source.from.0);
        put_u64(buf, source.window_seq);
        put_u32(buf, source.count);
    }
}

fn decode_payload(payload: &[u8]) -> Option<WalFrame> {
    let mut cur = Cursor::new(payload);
    let window_seq = cur.u64()?;
    let epoch = cur.u64()?;
    let applied_seq = cur.u64()?;
    let applied_secondary = cur.u64()?;
    let topology_epoch = cur.u64()?;
    let raw = cur.u64()?;
    let n_updates = cur.u32()? as usize;
    let mut updates = Vec::with_capacity(n_updates.min(payload.len()));
    for _ in 0..n_updates {
        updates.push(read_update(&mut cur)?);
    }
    let n_halos = cur.u32()? as usize;
    let mut halos = Vec::with_capacity(n_halos.min(payload.len()));
    for _ in 0..n_halos {
        let [target, hop, len] = cur.u32s()?;
        let delta = cur.f32_vec(len as usize)?;
        halos.push(DeltaMessage::new(VertexId(target), hop as usize, delta));
    }
    let n_sources = cur.u32()? as usize;
    let mut halo_sources = Vec::with_capacity(n_sources.min(payload.len()));
    let mut covered = 0u64;
    for _ in 0..n_sources {
        let source = HaloSource {
            from: PartitionId(cur.u32()?),
            window_seq: cur.u64()?,
            count: cur.u32()?,
        };
        covered += source.count as u64;
        halo_sources.push(source);
    }
    // Provenance runs must tile the halo list exactly; anything else is a
    // corrupt frame.
    if covered != halos.len() as u64 {
        return None;
    }
    if !cur.done() {
        return None;
    }
    Some(WalFrame {
        window_seq,
        epoch,
        applied_seq,
        applied_secondary,
        topology_epoch,
        raw,
        batch: UpdateBatch::from_updates(updates),
        halos,
        halo_sources,
    })
}

/// Encodes a frame exactly as it appears on disk: `[len][crc][payload]`.
/// Exposed so the torn-write tests can compute frame boundaries.
pub fn encode_frame(frame: &WalFrame) -> Vec<u8> {
    // The payload is encoded in place behind a reserved header, which is
    // patched once its length and checksum are known.
    let mut buf = Vec::with_capacity(FRAME_HEADER_BYTES + 64 + frame.batch.len() * 16);
    buf.resize(FRAME_HEADER_BYTES, 0);
    encode_payload(&mut buf, frame);
    let (header, payload) = buf.split_at_mut(FRAME_HEADER_BYTES);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    buf
}

fn wal_err(context: &str, e: std::io::Error) -> ServeError {
    ServeError::Wal(format!("{context}: {e}"))
}

/// Rejects a segment whose leading bytes carry a format tag other than
/// [`WAL_MAGIC`]. A file shorter than the tag passes — that is a header
/// write torn at segment creation (no frame was ever durable in it), which
/// callers handle as an ordinary torn tail. A *wrong* tag means data from
/// a different encoding (e.g. a pre-versioned v1 segment, which began
/// directly with a frame header) and must fail loudly: truncating it as
/// corruption would silently discard durable state.
fn check_segment_format(path: &Path, bytes: &[u8]) -> crate::Result<()> {
    if bytes.len() >= WAL_HEADER_BYTES && &bytes[..WAL_HEADER_BYTES] != WAL_MAGIC {
        return Err(ServeError::Wal(format!(
            "WAL segment {} does not start with format tag {} — it was \
             written by an incompatible (likely older) version; refusing to \
             recover rather than drop durable frames as corruption",
            path.display(),
            String::from_utf8_lossy(WAL_MAGIC),
        )));
    }
    Ok(())
}

fn segment_path(dir: &Path, start_seq: u64) -> PathBuf {
    dir.join(format!("wal-{start_seq:020}.log"))
}

fn checkpoint_path(dir: &Path, window_seq: u64) -> PathBuf {
    dir.join(format!("ckpt-{window_seq:020}.bin"))
}

/// Lists files in `dir` matching `prefix`/`suffix`, sorted ascending by
/// name (which sorts by sequence number thanks to the zero padding).
fn list_sorted(dir: &Path, prefix: &str, suffix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| n.starts_with(prefix) && n.ends_with(suffix))
                    .unwrap_or(false)
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    out.sort();
    out
}

/// Appends length-prefixed, checksummed frames to rotating segments.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    file: File,
    written: u64,
    segment_bytes: u64,
    fsync: FsyncPolicy,
    fail: FailPoints,
    syncs: u64,
}

impl WalWriter {
    /// Opens the WAL in `dir` for appending, with `next_seq` the sequence
    /// the next logged window will carry. If the newest existing segment
    /// ends in a torn frame, the torn bytes are truncated away so the next
    /// append starts on a clean frame boundary.
    pub fn open(
        dir: &Path,
        next_seq: u64,
        segment_bytes: u64,
        fsync: FsyncPolicy,
        fail: FailPoints,
    ) -> crate::Result<Self> {
        fs::create_dir_all(dir).map_err(|e| wal_err("creating WAL directory", e))?;
        let segments = list_sorted(dir, "wal-", ".log");
        let (file, written) = match segments.last() {
            Some(path) => {
                let bytes = fs::read(path).map_err(|e| wal_err("reading WAL segment", e))?;
                check_segment_format(path, &bytes)?;
                // Fewer than 8 bytes can only be a header write torn by a
                // crash at segment creation (no frame fit yet): restart the
                // segment. Otherwise resume after the last whole frame.
                let valid = if bytes.len() < WAL_HEADER_BYTES {
                    0
                } else {
                    WAL_HEADER_BYTES + valid_prefix(&bytes[WAL_HEADER_BYTES..]).1
                };
                let file = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| wal_err("opening WAL segment", e))?;
                file.set_len(valid as u64)
                    .map_err(|e| wal_err("truncating torn WAL tail", e))?;
                let mut file = file;
                use std::io::Seek;
                file.seek(std::io::SeekFrom::End(0))
                    .map_err(|e| wal_err("seeking WAL segment", e))?;
                if valid == 0 {
                    file.write_all(WAL_MAGIC)
                        .map_err(|e| wal_err("writing WAL segment header", e))?;
                    (file, WAL_HEADER_BYTES as u64)
                } else {
                    (file, valid as u64)
                }
            }
            None => {
                let mut file = File::create(segment_path(dir, next_seq))
                    .map_err(|e| wal_err("creating WAL segment", e))?;
                file.write_all(WAL_MAGIC)
                    .map_err(|e| wal_err("writing WAL segment header", e))?;
                (file, WAL_HEADER_BYTES as u64)
            }
        };
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            file,
            written,
            segment_bytes: segment_bytes.max(1),
            fsync,
            fail,
            syncs: 0,
        })
    }

    /// Appends one frame and makes it durable per the fsync policy: one
    /// frame, one (conditional) sync. Test-only shorthand for
    /// [`WalWriter::append_unsynced`] then [`WalWriter::sync`], which is how
    /// both serving tiers log.
    #[cfg(test)]
    pub fn append(&mut self, frame: &WalFrame) -> crate::Result<()> {
        self.append_unsynced(frame)?;
        self.sync()
    }

    /// Appends one frame *without* syncing, honouring any armed fail
    /// points. Both serving tiers log every staged window through here and
    /// then issue a single [`WalWriter::sync`] when the staged group drains
    /// — one fsync covers every frame queued since the last sync (one per
    /// window at depth 1).
    pub fn append_unsynced(&mut self, frame: &WalFrame) -> crate::Result<()> {
        if self.fail.fire(FP_WAL_BEFORE_APPEND) {
            return Err(ServeError::Wal(format!(
                "fail point {FP_WAL_BEFORE_APPEND} fired before window {}",
                frame.window_seq
            )));
        }
        if self.written >= self.segment_bytes {
            // Close out the old segment durably before rotating: a group
            // sync after rotation only reaches the new file descriptor.
            if self.fsync == FsyncPolicy::Always {
                self.file
                    .sync_data()
                    .map_err(|e| wal_err("syncing rotated WAL segment", e))?;
            }
            let mut file = File::create(segment_path(&self.dir, frame.window_seq))
                .map_err(|e| wal_err("rotating WAL segment", e))?;
            file.write_all(WAL_MAGIC)
                .map_err(|e| wal_err("writing WAL segment header", e))?;
            self.file = file;
            self.written = WAL_HEADER_BYTES as u64;
        }
        let bytes = encode_frame(frame);
        if self.fail.fire(FP_WAL_TORN_APPEND) {
            // Simulate a crash mid-write: half the frame reaches the disk.
            let torn = &bytes[..FRAME_HEADER_BYTES + (bytes.len() - FRAME_HEADER_BYTES) / 2];
            self.file
                .write_all(torn)
                .and_then(|_| self.file.sync_data())
                .map_err(|e| wal_err("tearing WAL frame", e))?;
            self.written += torn.len() as u64;
            return Err(ServeError::Wal(format!(
                "fail point {FP_WAL_TORN_APPEND} tore window {}",
                frame.window_seq
            )));
        }
        self.file
            .write_all(&bytes)
            .map_err(|e| wal_err("appending WAL frame", e))?;
        self.written += bytes.len() as u64;
        if self.fail.fire(FP_WAL_AFTER_APPEND) {
            return Err(ServeError::Wal(format!(
                "fail point {FP_WAL_AFTER_APPEND} fired after window {} was appended",
                frame.window_seq
            )));
        }
        Ok(())
    }

    /// Makes every frame appended since the last sync durable. A no-op
    /// under [`FsyncPolicy::Never`].
    pub fn sync(&mut self) -> crate::Result<()> {
        if self.fsync == FsyncPolicy::Always {
            self.file
                .sync_data()
                .map_err(|e| wal_err("syncing WAL frame", e))?;
            self.syncs += 1;
        }
        Ok(())
    }

    /// Number of explicit `fdatasync` calls issued (group commit batches
    /// several appends behind one of these).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

/// The longest prefix of `bytes` that parses as whole, checksummed frames:
/// its frames in order and its length.
fn valid_prefix(bytes: &[u8]) -> (Vec<WalFrame>, usize) {
    let mut frames = Vec::new();
    let mut pos = 0;
    loop {
        let Some(header) = bytes.get(pos..pos + FRAME_HEADER_BYTES) else {
            return (frames, pos);
        };
        let (len, crc) = (le_u32(&header[0..4]), le_u32(&header[4..8]));
        let end = pos + FRAME_HEADER_BYTES + len as usize;
        let Some(payload) = bytes.get(pos + FRAME_HEADER_BYTES..end) else {
            return (frames, pos);
        };
        if crc32(payload) != crc {
            return (frames, pos);
        }
        let Some(frame) = decode_payload(payload) else {
            return (frames, pos);
        };
        frames.push(frame);
        pos = end;
    }
}

/// Result of scanning a WAL directory: the durable frames in order, plus
/// how many trailing bytes were dropped as torn/corrupt.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Valid frames, in log order.
    pub frames: Vec<WalFrame>,
    /// Bytes discarded at the tail (torn frame, short header, bad crc).
    pub dropped_tail_bytes: u64,
    /// Number of segment files scanned.
    pub segments: usize,
}

/// Reads every WAL segment in `dir` in order, stopping at the first
/// invalid frame (everything after a corruption point is untrusted).
pub fn read_wal(dir: &Path) -> crate::Result<WalScan> {
    let mut scan = WalScan::default();
    for path in list_sorted(dir, "wal-", ".log") {
        scan.segments += 1;
        let mut bytes = Vec::new();
        File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| wal_err("reading WAL segment", e))?;
        check_segment_format(&path, &bytes)?;
        if bytes.len() < WAL_HEADER_BYTES {
            // Header write torn at segment creation: no frame in it was
            // ever durable, so this is an ordinary torn tail.
            scan.dropped_tail_bytes += bytes.len() as u64;
            break;
        }
        let body = &bytes[WAL_HEADER_BYTES..];
        let (frames, valid) = valid_prefix(body);
        scan.frames.extend(frames);
        if valid < body.len() {
            scan.dropped_tail_bytes += (body.len() - valid) as u64;
            break;
        }
    }
    Ok(scan)
}

/// An epoch-consistent snapshot of one engine's durable state, taken at a
/// window boundary: the full dynamic graph (both adjacency orders encoded
/// verbatim — edge replay cannot reproduce `swap_remove` list order), the
/// embedding store, and the counters the session holds at that boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Window sequence this checkpoint covers (frames with larger
    /// sequences replay on top of it).
    pub window_seq: u64,
    /// Published epoch at the boundary.
    pub epoch: u64,
    /// Raw updates applied through the boundary.
    pub applied_seq: u64,
    /// Secondary updates applied through the boundary (sharded tier).
    pub applied_secondary: u64,
    /// Topology epoch at the boundary.
    pub topology_epoch: u64,
    /// The engine's graph (for shards: the halo-restricted local graph).
    pub graph: DynamicGraph,
    /// The engine's embedding store.
    pub store: EmbeddingStore,
    /// Per-sender halo dedup watermarks at the boundary (sharded tier):
    /// the highest sender `window_seq` whose deltas are folded into this
    /// state, per peer shard. Restored so re-shipped in-flight deltas from
    /// a recovering peer are recognised as already applied even after the
    /// WAL frames carrying their provenance have been pruned.
    pub halo_watermarks: Vec<(PartitionId, u64)>,
}

/// A borrowed checkpoint: same fields as [`Checkpoint`] but referencing the
/// engine's live (quiesced) graph and store instead of owning clones. The
/// scheduler checkpoints through this so the store — by far the largest
/// object in the session — is streamed to disk without ever being cloned.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointRef<'a> {
    /// Window sequence this checkpoint covers.
    pub window_seq: u64,
    /// Published epoch at the boundary.
    pub epoch: u64,
    /// Raw updates applied through the boundary.
    pub applied_seq: u64,
    /// Secondary updates applied through the boundary (sharded tier).
    pub applied_secondary: u64,
    /// Topology epoch at the boundary.
    pub topology_epoch: u64,
    /// The engine's graph.
    pub graph: &'a DynamicGraph,
    /// The engine's embedding store.
    pub store: &'a EmbeddingStore,
    /// Per-sender halo dedup watermarks.
    pub halo_watermarks: &'a [(PartitionId, u64)],
}

/// Bytes the checkpoint encoder gathers before each `write_all`.
const BLOCK_BYTES: usize = 4096;

/// Encodes little-endian words into a fixed [`BLOCK_BYTES`] block and hands
/// the inner writer one `write_all` per full block, so the per-call cost of
/// the writer chain (checksum, buffering) is paid per block, not per value,
/// and no payload-sized buffer ever exists.
struct BlockWriter<'a, W: Write> {
    inner: &'a mut W,
    block: [u8; BLOCK_BYTES],
    len: usize,
}

impl<'a, W: Write> BlockWriter<'a, W> {
    fn new(inner: &'a mut W) -> Self {
        BlockWriter {
            inner,
            block: [0; BLOCK_BYTES],
            len: 0,
        }
    }

    /// Writes the buffered bytes out.
    fn drain(&mut self) -> std::io::Result<()> {
        self.inner.write_all(&self.block[..self.len])?;
        self.len = 0;
        Ok(())
    }

    /// Buffers at most 8 bytes, draining first if they do not fit.
    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if self.len + bytes.len() > BLOCK_BYTES {
            self.drain()?;
        }
        self.block[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        Ok(())
    }

    fn u32(&mut self, v: u32) -> std::io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn u64(&mut self, v: u64) -> std::io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn f32s(&mut self, mut values: &[f32]) -> std::io::Result<()> {
        while !values.is_empty() {
            if self.len + 4 > BLOCK_BYTES {
                self.drain()?;
            }
            let fit = ((BLOCK_BYTES - self.len) / 4).min(values.len());
            let (now, rest) = values.split_at(fit);
            for (dst, x) in self.block[self.len..].chunks_exact_mut(4).zip(now) {
                dst.copy_from_slice(&x.to_le_bytes());
            }
            self.len += fit * 4;
            values = rest;
        }
        Ok(())
    }

    fn matrix(&mut self, m: &Matrix) -> std::io::Result<()> {
        self.u32(m.rows() as u32)?;
        self.u32(m.cols() as u32)?;
        self.f32s(m.as_slice())
    }

    /// One adjacency section: per vertex, its degree, then `(id, weight)`
    /// pairs.
    fn adjacency<'g>(
        &mut self,
        lists: impl Iterator<Item = (&'g [VertexId], &'g [f32])>,
    ) -> std::io::Result<()> {
        for (neighbors, weights) in lists {
            self.u32(neighbors.len() as u32)?;
            for (id, weight) in neighbors.iter().zip(weights) {
                self.u32(id.0)?;
                self.u32(weight.to_bits())?;
            }
        }
        Ok(())
    }
}

/// Streams the checkpoint payload (everything the trailer checksum covers)
/// straight into `w`. This is the no-clone path: the graph and store are
/// borrowed, the matrices are walked in place, and the only buffering is
/// one fixed [`BLOCK_BYTES`] block plus whatever `w` itself does (a
/// `BufWriter` in practice).
fn write_checkpoint_payload<W: Write>(w: &mut W, ckpt: &CheckpointRef<'_>) -> std::io::Result<()> {
    let mut out = BlockWriter::new(w);
    out.u64(ckpt.window_seq)?;
    out.u64(ckpt.epoch)?;
    out.u64(ckpt.applied_seq)?;
    out.u64(ckpt.applied_secondary)?;
    out.u64(ckpt.topology_epoch)?;
    let graph = ckpt.graph;
    let vertices = || (0..graph.num_vertices() as u32).map(VertexId);
    out.u32(graph.num_vertices() as u32)?;
    out.matrix(graph.features())?;
    out.u64(graph.num_edges() as u64)?;
    out.adjacency(vertices().map(|v| (graph.out_neighbors(v), graph.out_weights(v))))?;
    out.adjacency(vertices().map(|v| (graph.in_neighbors(v), graph.in_weights(v))))?;
    let layers = ckpt.store.num_layers();
    out.u32((layers + 1) as u32)?;
    for l in 0..=layers {
        out.matrix(ckpt.store.embeddings(l))?;
    }
    out.u32(layers as u32)?;
    for l in 1..=layers {
        out.matrix(ckpt.store.aggregates(l))?;
    }
    out.u32(ckpt.halo_watermarks.len() as u32)?;
    for (peer, seq) in ckpt.halo_watermarks {
        out.u32(peer.0)?;
        out.u64(*seq)?;
    }
    out.drain()
}

fn decode_checkpoint(payload: &[u8]) -> Option<Checkpoint> {
    let mut cur = Cursor::new(payload);
    let window_seq = cur.u64()?;
    let epoch = cur.u64()?;
    let applied_seq = cur.u64()?;
    let applied_secondary = cur.u64()?;
    let topology_epoch = cur.u64()?;
    let n = cur.u32()? as usize;
    let features = read_matrix(&mut cur)?;
    let num_edges = cur.u64()? as usize;
    type AdjacencyLists = (Vec<Vec<VertexId>>, Vec<Vec<f32>>);
    let read_adjacency = |cur: &mut Cursor<'_>| -> Option<AdjacencyLists> {
        let mut ids = Vec::with_capacity(n);
        let mut weights = Vec::with_capacity(n);
        for _ in 0..n {
            let len = cur.u32()? as usize;
            // `take` refuses a corrupt degree before anything is allocated.
            let pairs = cur.take(len.checked_mul(8)?)?.chunks_exact(8);
            ids.push(pairs.clone().map(|p| VertexId(le_u32(p))).collect());
            weights.push(pairs.map(|p| f32::from_bits(le_u32(&p[4..]))).collect());
        }
        Some((ids, weights))
    };
    let (out, out_weights) = read_adjacency(&mut cur)?;
    let (inn, in_weights) = read_adjacency(&mut cur)?;
    let graph = DynamicGraph::from_adjacency(out, out_weights, inn, in_weights, features).ok()?;
    if graph.num_edges() != num_edges {
        return None;
    }
    let n_embeddings = cur.u32()? as usize;
    let mut embeddings = Vec::with_capacity(n_embeddings.min(payload.len()));
    for _ in 0..n_embeddings {
        embeddings.push(read_matrix(&mut cur)?);
    }
    let n_aggregates = cur.u32()? as usize;
    let mut aggregates = Vec::with_capacity(n_aggregates.min(payload.len()));
    for _ in 0..n_aggregates {
        aggregates.push(read_matrix(&mut cur)?);
    }
    let n_watermarks = cur.u32()? as usize;
    let mut halo_watermarks = Vec::with_capacity(n_watermarks.min(payload.len()));
    for _ in 0..n_watermarks {
        let peer = PartitionId(cur.u32()?);
        let seq = cur.u64()?;
        halo_watermarks.push((peer, seq));
    }
    if !cur.done() {
        return None;
    }
    let store = EmbeddingStore::from_parts(embeddings, aggregates).ok()?;
    Some(Checkpoint {
        window_seq,
        epoch,
        applied_seq,
        applied_secondary,
        topology_epoch,
        graph,
        store,
        halo_watermarks,
    })
}

/// Writes a checkpoint durably from *borrowed* state: temp file, streamed
/// payload with a checksum trailer, fsync, atomic rename. Retains the
/// previous checkpoint as a fallback and prunes older ones plus any WAL
/// segments wholly covered by the retained horizon.
///
/// The payload is streamed through a CRC-tracking `BufWriter`, so the
/// scheduler can checkpoint its quiesced engine without cloning the graph
/// or the embedding store and without materialising a payload-sized buffer.
pub fn write_checkpoint_ref(
    dir: &Path,
    ckpt: &CheckpointRef<'_>,
    fsync: FsyncPolicy,
    fail: &FailPoints,
) -> crate::Result<()> {
    fs::create_dir_all(dir).map_err(|e| wal_err("creating checkpoint directory", e))?;
    let tmp = dir.join(format!("ckpt-{:020}.tmp", ckpt.window_seq));
    if fail.fire(FP_CKPT_MID) {
        // Crash mid-checkpoint: a torn temp file exists, no rename.
        let _ = fs::write(&tmp, CKPT_MAGIC);
        return Err(ServeError::Wal(format!(
            "fail point {FP_CKPT_MID} abandoned checkpoint {}",
            ckpt.window_seq
        )));
    }
    let file = File::create(&tmp).map_err(|e| wal_err("creating checkpoint temp file", e))?;
    let mut writer = CrcWriter::new(BufWriter::new(file));
    // The magic goes around the checksum, not under it.
    writer
        .inner
        .write_all(CKPT_MAGIC)
        .and_then(|_| write_checkpoint_payload(&mut writer, ckpt))
        .map_err(|e| wal_err("writing checkpoint", e))?;
    let crc = writer.finish_crc();
    let mut buffered = writer.inner;
    buffered
        .write_all(&crc.to_le_bytes())
        .map_err(|e| wal_err("writing checkpoint trailer", e))?;
    let file = buffered
        .into_inner()
        .map_err(|e| wal_err("flushing checkpoint", e.into_error()))?;
    if fsync == FsyncPolicy::Always {
        file.sync_data()
            .map_err(|e| wal_err("syncing checkpoint", e))?;
    }
    drop(file);
    fs::rename(&tmp, checkpoint_path(dir, ckpt.window_seq))
        .map_err(|e| wal_err("publishing checkpoint", e))?;
    prune(dir);
    Ok(())
}

/// Keeps the two newest checkpoints (newest + fallback), deletes older
/// ones, stale temp files, and WAL segments whose every frame is covered by
/// the *older* retained checkpoint. Best-effort: pruning failures are not
/// durability failures.
fn prune(dir: &Path) {
    let checkpoints = list_sorted(dir, "ckpt-", ".bin");
    if checkpoints.len() > 2 {
        for path in &checkpoints[..checkpoints.len() - 2] {
            let _ = fs::remove_file(path);
        }
    }
    for tmp in list_sorted(dir, "ckpt-", ".tmp") {
        let _ = fs::remove_file(tmp);
    }
    let floor = match checkpoints.iter().rev().nth(1).and_then(|p| file_seq(p)) {
        Some(seq) => seq,
        None => return,
    };
    let segments = list_sorted(dir, "wal-", ".log");
    for pair in segments.windows(2) {
        // Segment `pair[0]` only holds frames below `pair[1]`'s start; if
        // those are all <= floor the checkpoint fallback never needs them.
        match file_seq(&pair[1]) {
            Some(next_start) if next_start <= floor + 1 => {
                let _ = fs::remove_file(&pair[0]);
            }
            _ => {}
        }
    }
}

/// Extracts the zero-padded sequence number from a `wal-*.log` /
/// `ckpt-*.bin` file name.
fn file_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.split('-').nth(1)?.split('.').next()?;
    digits.parse().ok()
}

/// Loads the newest checkpoint that validates (magic, checksum, and a
/// fully consistent decode), falling back to older ones on corruption.
/// A checkpoint carrying a recognised *retired* magic is an error, not a
/// fallback: it is durable state from an incompatible binary, and skipping
/// it would silently recover an older world.
pub fn load_latest_checkpoint(dir: &Path) -> crate::Result<Option<Checkpoint>> {
    for path in list_sorted(dir, "ckpt-", ".bin").iter().rev() {
        let Ok(bytes) = fs::read(path) else { continue };
        if bytes.starts_with(CKPT_MAGIC_V1) {
            return Err(ServeError::Wal(format!(
                "checkpoint {} uses the retired {} encoding (no halo \
                 watermark section); refusing to skip durable state — \
                 recover it with the matching binary or remove it explicitly",
                path.display(),
                String::from_utf8_lossy(CKPT_MAGIC_V1),
            )));
        }
        let Some(rest) = bytes.strip_prefix(CKPT_MAGIC.as_slice()) else {
            continue;
        };
        if rest.len() < 4 {
            continue;
        }
        let (payload, crc_bytes) = rest.split_at(rest.len() - 4);
        if le_u32(crc_bytes) != crc32(payload) {
            continue;
        }
        if let Some(ckpt) = decode_checkpoint(payload) {
            return Ok(Some(ckpt));
        }
    }
    Ok(None)
}

/// Everything recovery needs: the newest valid checkpoint (if any) and the
/// WAL frames that extend past it, in replay order.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// Latest valid checkpoint, if one exists.
    pub checkpoint: Option<Checkpoint>,
    /// Frames with `window_seq` beyond the checkpoint, strictly increasing.
    pub frames: Vec<WalFrame>,
    /// Torn/corrupt bytes dropped from the WAL tail.
    pub dropped_tail_bytes: u64,
}

impl RecoveredState {
    /// `true` when the directory held no durable state at all.
    pub fn is_empty(&self) -> bool {
        self.checkpoint.is_none() && self.frames.is_empty()
    }

    /// The window sequence recovery resumes after (0 = fresh start).
    pub fn resumed_window_seq(&self) -> u64 {
        self.frames
            .last()
            .map(|f| f.window_seq)
            .or_else(|| self.checkpoint.as_ref().map(|c| c.window_seq))
            .unwrap_or(0)
    }
}

/// Scans a durability directory: latest valid checkpoint plus the WAL tail
/// beyond it. Returns an empty state for a missing/fresh directory.
pub fn recover(dir: &Path) -> crate::Result<RecoveredState> {
    if !dir.exists() {
        return Ok(RecoveredState::default());
    }
    let checkpoint = load_latest_checkpoint(dir)?;
    let scan = read_wal(dir)?;
    let floor = checkpoint.as_ref().map(|c| c.window_seq).unwrap_or(0);
    let mut frames = Vec::new();
    let mut last = floor;
    for frame in scan.frames {
        // Frames at or below the checkpoint are already folded in; a
        // non-monotone sequence would mean a corrupt log we failed to
        // detect, so refuse to replay it.
        if frame.window_seq <= last {
            continue;
        }
        if frame.window_seq != last + 1 && last != floor {
            return Err(ServeError::Wal(format!(
                "WAL gap: window {} follows window {last}",
                frame.window_seq
            )));
        }
        last = frame.window_seq;
        frames.push(frame);
    }
    Ok(RecoveredState {
        checkpoint,
        frames,
        dropped_tail_bytes: scan.dropped_tail_bytes,
    })
}

/// What a recovered session did to get back to its pre-crash state.
/// Available from the serve handles via `recovery_report()`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Whether a checkpoint was restored (vs replay from bootstrap).
    pub from_checkpoint: bool,
    /// Window sequence of the restored checkpoint (0 if none).
    pub checkpoint_seq: u64,
    /// WAL frames replayed on top of the checkpoint.
    pub replayed_windows: u64,
    /// Window sequence the session resumed at.
    pub resumed_window_seq: u64,
    /// Epoch the session resumed publishing from.
    pub resumed_epoch: u64,
    /// Torn/corrupt bytes dropped from the WAL tail.
    pub dropped_tail_bytes: u64,
    /// Wall-clock time spent restoring + replaying.
    pub recovery_time: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(seq: u64, updates: Vec<GraphUpdate>) -> WalFrame {
        WalFrame {
            window_seq: seq,
            epoch: seq,
            applied_seq: seq * 3,
            applied_secondary: 0,
            topology_epoch: seq,
            raw: updates.len() as u64 + 1,
            batch: UpdateBatch::from_updates(updates),
            halos: vec![DeltaMessage::new(VertexId(2), 1, vec![0.5, -0.25])],
            halo_sources: vec![HaloSource {
                from: PartitionId(1),
                window_seq: seq,
                count: 1,
            }],
        }
    }

    fn sample_updates() -> Vec<GraphUpdate> {
        vec![
            GraphUpdate::add_weighted_edge(VertexId(0), VertexId(1), 0.75),
            GraphUpdate::delete_edge(VertexId(1), VertexId(2)),
            GraphUpdate::update_feature(VertexId(3), vec![1.0, -2.0, 0.125]),
        ]
    }

    #[test]
    fn frame_round_trips_bit_exactly() {
        let f = frame(7, sample_updates());
        let bytes = encode_frame(&f);
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        assert_eq!(len + FRAME_HEADER_BYTES, bytes.len());
        let decoded = decode_payload(&bytes[FRAME_HEADER_BYTES..]).expect("valid frame");
        assert_eq!(decoded, f);
    }

    #[test]
    fn crc_matches_known_vector() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
    }

    /// `n` bytes from a SplitMix64 stream.
    fn seeded_bytes(n: usize, mut seed: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn table_crc_matches_the_bitwise_definition() {
        let bytes = seeded_bytes(1024, 7);
        for len in 0..=bytes.len() {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_bitwise(&bytes[..len]),
                "length {len}"
            );
        }
        let big = seeded_bytes(3 << 20, 11);
        assert_eq!(crc32(&big), crc32_bitwise(&big));
    }

    #[test]
    fn crc_writer_is_split_invariant() {
        let bytes = seeded_bytes(257, 13);
        for split in 0..=bytes.len() {
            let mut writer = CrcWriter::new(Vec::new());
            writer.write_all(&bytes[..split]).unwrap();
            writer.write_all(&bytes[split..]).unwrap();
            assert_eq!(writer.finish_crc(), crc32(&bytes), "split at {split}");
            assert_eq!(writer.inner, bytes);
        }
    }

    #[test]
    fn corrupt_byte_is_rejected() {
        let f = frame(1, sample_updates());
        for pos in 0..encode_frame(&f).len() {
            let mut bytes = encode_frame(&f);
            bytes[pos] ^= 0x40;
            assert_eq!(
                valid_prefix(&bytes).1,
                0,
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn torn_tail_is_dropped_cleanly() {
        let frames: Vec<WalFrame> = (1..=3).map(|s| frame(s, sample_updates())).collect();
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&encode_frame(f));
        }
        let last_len = encode_frame(&frames[2]).len();
        let boundary = bytes.len() - last_len;
        for cut in 0..bytes.len() {
            let valid = valid_prefix(&bytes[..cut]).1;
            if cut < boundary + last_len {
                assert!(valid <= boundary, "cut {cut} kept a torn frame");
            } else {
                assert_eq!(valid, bytes.len());
            }
        }
    }

    #[test]
    fn fail_points_count_down_and_disarm() {
        let points = FailPoints::new();
        assert!(!points.fire(FP_WAL_BEFORE_APPEND));
        points.arm(FP_WAL_BEFORE_APPEND, 2);
        assert!(!points.fire(FP_WAL_BEFORE_APPEND));
        assert!(!points.fire(FP_WAL_BEFORE_APPEND));
        assert!(points.fire(FP_WAL_BEFORE_APPEND));
        // Fired points disarm themselves.
        assert!(!points.fire(FP_WAL_BEFORE_APPEND));
        let clone = points.clone();
        clone.arm(FP_CKPT_MID, 0);
        assert!(points.armed(), "registry is shared across clones");
        assert!(points.fire(FP_CKPT_MID));
    }

    #[test]
    fn writer_rotates_segments_and_reader_reassembles() {
        let dir = test_dir("rotate");
        let mut writer =
            WalWriter::open(&dir, 1, 64, FsyncPolicy::Never, FailPoints::new()).unwrap();
        let frames: Vec<WalFrame> = (1..=9).map(|s| frame(s, sample_updates())).collect();
        for f in &frames {
            writer.append(f).unwrap();
        }
        let scan = read_wal(&dir).unwrap();
        assert_eq!(scan.frames, frames);
        assert_eq!(scan.dropped_tail_bytes, 0);
        assert!(scan.segments >= 3, "64-byte segments must rotate");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_issues_one_fsync_per_group() {
        let dir = test_dir("group-sync");
        let mut writer =
            WalWriter::open(&dir, 1, u64::MAX, FsyncPolicy::Always, FailPoints::new()).unwrap();
        for seq in 1..=4 {
            writer
                .append_unsynced(&frame(seq, sample_updates()))
                .unwrap();
        }
        assert_eq!(writer.syncs(), 0, "staged appends must not sync one by one");
        writer.sync().unwrap();
        assert_eq!(writer.syncs(), 1, "one fsync covers the whole staged group");
        writer.append(&frame(5, sample_updates())).unwrap();
        assert_eq!(writer.syncs(), 2, "the serial path still syncs per window");
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 5);

        let never = test_dir("group-sync-never");
        let mut writer =
            WalWriter::open(&never, 1, u64::MAX, FsyncPolicy::Never, FailPoints::new()).unwrap();
        writer.append(&frame(1, sample_updates())).unwrap();
        writer.sync().unwrap();
        assert_eq!(writer.syncs(), 0, "Never policy issues no fsyncs at all");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&never);
    }

    #[test]
    fn reopened_writer_truncates_torn_tail() {
        let dir = test_dir("reopen");
        let points = FailPoints::new();
        let mut writer =
            WalWriter::open(&dir, 1, 1 << 20, FsyncPolicy::Always, points.clone()).unwrap();
        writer.append(&frame(1, sample_updates())).unwrap();
        points.arm(FP_WAL_TORN_APPEND, 0);
        assert!(matches!(
            writer.append(&frame(2, sample_updates())),
            Err(ServeError::Wal(_))
        ));
        drop(writer);
        let scan = read_wal(&dir).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert!(scan.dropped_tail_bytes > 0);
        // Reopening truncates the torn bytes and appends cleanly after.
        let mut writer =
            WalWriter::open(&dir, 2, 1 << 20, FsyncPolicy::Always, FailPoints::new()).unwrap();
        writer.append(&frame(2, sample_updates())).unwrap();
        let scan = read_wal(&dir).unwrap();
        assert_eq!(
            scan.frames.iter().map(|f| f.window_seq).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(scan.dropped_tail_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ripple-durability-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A segment whose leading bytes are not the format tag — e.g. one
    /// written by the pre-versioned encoding, which began directly with a
    /// frame header — must fail recovery loudly, never be truncated away
    /// as a torn tail.
    #[test]
    fn unversioned_wal_segment_is_rejected_not_truncated() {
        let dir = test_dir("legacy-wal");
        fs::create_dir_all(&dir).unwrap();
        // Old-format layout: frames from byte 0, no segment tag.
        fs::write(
            segment_path(&dir, 1),
            encode_frame(&frame(1, sample_updates())),
        )
        .unwrap();
        let err = read_wal(&dir).expect_err("legacy segment must not scan");
        assert!(
            err.to_string().contains("incompatible"),
            "error must name the format mismatch: {err}"
        );
        recover(&dir).expect_err("recovery must surface the rejection");
        WalWriter::open(&dir, 2, u64::MAX, FsyncPolicy::Never, FailPoints::new())
            .expect_err("the writer must not truncate a legacy segment");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A header write torn at segment creation (fewer than tag-size bytes,
    /// no frame ever durable) is an ordinary torn tail: scanned as empty
    /// and reinitialised by the writer, not an error.
    #[test]
    fn torn_segment_header_is_recovered_as_empty() {
        let dir = test_dir("torn-header");
        fs::create_dir_all(&dir).unwrap();
        fs::write(segment_path(&dir, 1), &WAL_MAGIC[..3]).unwrap();
        let scan = read_wal(&dir).unwrap();
        assert!(scan.frames.is_empty());
        assert_eq!(scan.dropped_tail_bytes, 3);
        let mut writer =
            WalWriter::open(&dir, 1, u64::MAX, FsyncPolicy::Never, FailPoints::new()).unwrap();
        writer.append(&frame(1, sample_updates())).unwrap();
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checkpoint carrying the retired v1 magic is durable state from an
    /// incompatible binary: recovery must error, not fall back past it.
    #[test]
    fn v1_checkpoint_is_rejected_not_skipped() {
        let dir = test_dir("legacy-ckpt");
        fs::create_dir_all(&dir).unwrap();
        let mut bytes = CKPT_MAGIC_V1.to_vec();
        bytes.extend_from_slice(&[0u8; 32]);
        fs::write(checkpoint_path(&dir, 5), &bytes).unwrap();
        let err = load_latest_checkpoint(&dir).expect_err("v1 checkpoint must not be skipped");
        assert!(
            err.to_string().contains("retired"),
            "error must name the retired encoding: {err}"
        );
        recover(&dir).expect_err("recovery must surface the rejection");
        let _ = fs::remove_dir_all(&dir);
    }

    /// FNV-1a-64 over a file's bytes.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A `rows × cols` table of small exactly-representable values, so the
    /// golden depends on the encoding alone and not on any model's numerics.
    fn pattern(rows: usize, cols: usize, salt: u32) -> Matrix {
        let data = (0..(rows * cols) as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) ^ salt) % 1024)
            .map(|x| x as f32 / 64.0 - 8.0)
            .collect();
        Matrix::from_flat(rows, cols, data).unwrap()
    }

    /// Pins the on-disk bytes of a checkpoint and of a two-frame WAL
    /// segment. The constants were computed with the bitwise CRC and the
    /// per-value encoders, before the table CRC and the bulk encoders
    /// replaced them: a mismatch means the format changed and its magic
    /// must be bumped.
    #[test]
    fn on_disk_bytes_match_the_golden() {
        use ripple_graph::synth::DatasetSpec;
        let graph = DatasetSpec::custom(1500, 4.0, 16, 4).generate(21).unwrap();
        let n = graph.num_vertices();
        let store = EmbeddingStore::from_parts(
            vec![graph.features().clone(), pattern(n, 8, 1), pattern(n, 4, 2)],
            vec![pattern(n, 16, 3), pattern(n, 8, 4)],
        )
        .unwrap();
        let dir = test_dir("golden");
        let watermarks = [(PartitionId(0), 3u64), (PartitionId(1), 5)];
        let ckpt = CheckpointRef {
            window_seq: 7,
            epoch: 7,
            applied_seq: 40,
            applied_secondary: 2,
            topology_epoch: 3,
            graph: &graph,
            store: &store,
            halo_watermarks: &watermarks,
        };
        write_checkpoint_ref(&dir, &ckpt, FsyncPolicy::Never, &FailPoints::new()).unwrap();
        let mut wal =
            WalWriter::open(&dir, 8, u64::MAX, FsyncPolicy::Never, FailPoints::new()).unwrap();
        let features: Vec<f32> = (0..16).map(|i| i as f32 * 0.375 - 2.5).collect();
        wal.append(&frame(8, sample_updates())).unwrap();
        let mut second = frame(
            9,
            vec![GraphUpdate::update_feature(VertexId(11), features.clone())],
        );
        second.halos = vec![
            DeltaMessage::new(VertexId(5), 1, features[..8].to_vec()),
            DeltaMessage::new(VertexId(6), 2, features[8..].to_vec()),
        ];
        second.halo_sources = vec![HaloSource {
            from: PartitionId(1),
            window_seq: 4,
            count: 2,
        }];
        wal.append(&second).unwrap();
        drop(wal);
        let ckpt_bytes = fs::read(checkpoint_path(&dir, 7)).unwrap();
        let wal_bytes = fs::read(segment_path(&dir, 8)).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(ckpt_bytes.len(), 516_148);
        assert_eq!(
            fnv1a64(&ckpt_bytes),
            0xe18e_64f0_a36d_81a7,
            "checkpoint bytes moved"
        );
        assert_eq!(wal_bytes.len(), 400);
        assert_eq!(
            fnv1a64(&wal_bytes),
            0x666e_0b3a_7581_53dd,
            "WAL segment bytes moved"
        );
    }
}
