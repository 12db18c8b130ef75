//! Content-addressed store of parsed [`LeanGraph`] artifacts.
//!
//! Pangenome references are multi-gigabyte GFA documents shared across
//! many layout requests; re-shipping and re-parsing the text for every
//! request wastes exactly the time the paper's fast layout kernel saves.
//! This module makes parsed graphs **first-class artifacts**:
//!
//! * [`ContentHash`] — the workspace's 128-bit FNV-1a content hash. The
//!   same hash addresses a graph here, keys the service's layout cache,
//!   and names spill files on disk, so every tier agrees on identity.
//! * [`lean_to_bytes`] / [`lean_from_bytes`] — a compact binary codec
//!   for [`LeanGraph`] (the `.lean` spill format), so a parsed graph
//!   can be reloaded without ever touching GFA text again.
//! * [`GraphStore`] — an LRU of `Arc<LeanGraph>` keyed by content hash,
//!   with an optional disk tier: evicted or restarted stores reload
//!   spilled graphs instead of re-parsing.
//! * [`evict_dir_to_cap`] — oldest-first size-capped eviction for spill
//!   directories, shared by the graph tier and the layout-cache tier.
//!
//! Like the service's layout cache, the store is driven through
//! lock-splitting primitives ([`GraphStore::lookup`],
//! [`GraphStore::disk_path`], [`GraphStore::record_disk_hit`],
//! [`GraphStore::insert`], …): a caller holding the store behind a
//! mutex performs parsing and file I/O *outside* the lock and reports
//! outcomes back. There is deliberately no all-in-one convenience path —
//! one driving implementation (the service's) means one set of
//! semantics to maintain.

use crate::lean::LeanGraph;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// 128-bit content hash (two independent FNV-1a streams): the identity
/// of a graph (hash of its GFA bytes) and the key space of every cache
/// tier in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(u64, u64);

impl ContentHash {
    /// Stable 32-hex-digit rendering: the wire form of a graph id and
    /// the stem of its spill file.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }

    /// Parse the 32-hex-digit rendering back (e.g. from a URL).
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let a = u64::from_str_radix(&s[..16], 16).ok()?;
        let b = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Self(a, b))
    }

    /// The 16 little-endian bytes of the hash, for feeding into further
    /// hashing (how the layout cache mixes a graph id into its key).
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.0.to_le_bytes());
        out[8..].copy_from_slice(&self.1.to_le_bytes());
        out
    }
}

/// Content hash of one byte string.
pub fn content_hash(bytes: &[u8]) -> ContentHash {
    content_hash_parts(&[bytes])
}

/// Content hash of a sequence of parts. Each part is length-prefixed
/// into the stream, so part lists whose concatenations coincide cannot
/// collide (`["ab","c"]` ≠ `["a","bc"]`).
pub fn content_hash_parts(parts: &[&[u8]]) -> ContentHash {
    let mut a = FNV_OFFSET_A;
    let mut b = FNV_OFFSET_B;
    for part in parts {
        let len = (part.len() as u64).to_le_bytes();
        a = fnv1a(fnv1a(a, &len), part);
        b = fnv1a(fnv1a(b, &len), part);
    }
    ContentHash(a, b)
}

// ---------------------------------------------------------------------------
// LeanGraph binary codec (`.lean` spill files)
// ---------------------------------------------------------------------------

const LEAN_MAGIC: &[u8; 8] = b"PGLEAN\x01\0";

fn put_u32s(out: &mut Vec<u8>, vals: &[u32]) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_u64s(out: &mut Vec<u8>, vals: &[u64]) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Serialize a [`LeanGraph`] to the `.lean` binary form (little-endian;
/// magic, three u64 counts, then the six arrays in declaration order).
pub fn lean_to_bytes(g: &LeanGraph) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + g.footprint_bytes() as usize);
    out.extend_from_slice(LEAN_MAGIC);
    out.extend_from_slice(&(g.node_len.len() as u64).to_le_bytes());
    out.extend_from_slice(&(g.path_nuc_len.len() as u64).to_le_bytes());
    out.extend_from_slice(&(g.step_node.len() as u64).to_le_bytes());
    put_u32s(&mut out, &g.node_len);
    put_u32s(&mut out, &g.step_offset);
    put_u32s(&mut out, &g.step_node);
    out.extend(g.step_rev.iter().map(|&r| r as u8));
    put_u64s(&mut out, &g.step_pos);
    put_u64s(&mut out, &g.path_nuc_len);
    out
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("lean codec: {msg}"),
    )
}

struct Cursor<'a> {
    data: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> std::io::Result<&'a [u8]> {
        if self.data.len() < n {
            return Err(invalid("truncated"));
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    fn u64(&mut self) -> std::io::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn u32s(&mut self, count: usize) -> std::io::Result<Vec<u32>> {
        let b = self.take(
            count
                .checked_mul(4)
                .ok_or_else(|| invalid("count overflow"))?,
        )?;
        Ok(b.chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn u64s(&mut self, count: usize) -> std::io::Result<Vec<u64>> {
        let b = self.take(
            count
                .checked_mul(8)
                .ok_or_else(|| invalid("count overflow"))?,
        )?;
        Ok(b.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

/// Decode a `.lean` buffer back into a [`LeanGraph`], validating the
/// structural invariants the layout engines rely on (offset table shape
/// and monotonicity, node-id bounds), so a corrupt spill file surfaces
/// as an error instead of a panic deep inside a kernel.
pub fn lean_from_bytes(data: &[u8]) -> std::io::Result<LeanGraph> {
    let mut c = Cursor { data };
    if c.take(8)? != LEAN_MAGIC {
        return Err(invalid("bad magic"));
    }
    let nodes = c.u64()? as usize;
    let paths = c.u64()? as usize;
    let steps = c.u64()? as usize;
    // Cheap plausibility bound before allocating anything: every count
    // must fit in the remaining payload.
    let need = nodes
        .checked_mul(4)
        .and_then(|n| n.checked_add(paths.checked_mul(12)?.checked_add(4)?))
        .and_then(|n| n.checked_add(steps.checked_mul(13)?))
        .ok_or_else(|| invalid("count overflow"))?;
    if c.data.len() < need {
        return Err(invalid("truncated"));
    }
    let node_len = c.u32s(nodes)?;
    let step_offset = c.u32s(paths + 1)?;
    let step_node = c.u32s(steps)?;
    let step_rev: Vec<bool> = c.take(steps)?.iter().map(|&b| b != 0).collect();
    let step_pos = c.u64s(steps)?;
    let path_nuc_len = c.u64s(paths)?;
    if step_offset.first() != Some(&0) || *step_offset.last().unwrap() as usize != steps {
        return Err(invalid("offset table does not span the steps"));
    }
    if step_offset.windows(2).any(|w| w[0] > w[1]) {
        return Err(invalid("offset table not monotone"));
    }
    if step_node.iter().any(|&n| n as usize >= nodes) {
        return Err(invalid("step references node out of range"));
    }
    Ok(LeanGraph {
        node_len,
        step_offset,
        step_node,
        step_rev,
        step_pos,
        path_nuc_len,
    })
}

/// Write `bytes` to `path` atomically: write a hidden temp file in the
/// same directory (named with the process id and a process-wide
/// sequence number, so concurrent writers of one path never share a
/// temp file), then rename it over `path`. Readers of a shared spill
/// directory therefore never observe a torn file, and a crash mid-write
/// leaves only a stray hidden temp file. Returns whether `path` now
/// holds `bytes`.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> bool {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let (Some(dir), Some(name)) = (path.parent(), path.file_name()) else {
        return false;
    };
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{seq}",
        name.to_string_lossy(),
        std::process::id()
    ));
    let ok = std::fs::write(&tmp, bytes).is_ok() && std::fs::rename(&tmp, path).is_ok();
    if !ok {
        let _ = std::fs::remove_file(&tmp);
    }
    ok
}

/// Spill `graph` to `path` as a `.lean` file, atomically
/// ([`write_atomic`]).
pub fn write_graph_spill(graph: &LeanGraph, path: &Path) -> bool {
    write_atomic(path, &lean_to_bytes(graph))
}

/// Load a `.lean` spill file.
pub fn load_graph_spill(path: &Path) -> std::io::Result<LeanGraph> {
    lean_from_bytes(&std::fs::read(path)?)
}

/// Oldest-first eviction of a spill directory down to `max_bytes`:
/// regular `<stem>.<ext>` files are sized, sorted by modification time,
/// and the oldest are removed until the directory fits. Hidden files
/// (in-flight temp spills and the [`DiskIndex`] file start with `.`)
/// are never touched. Returns the content hashes of the removed spills
/// (so callers can update their [`DiskIndex`]; files whose stem is not
/// a content hash are still removed but not reported). A `max_bytes` of
/// 0 disables the cap.
pub fn evict_dir_to_cap(dir: &Path, max_bytes: u64, ext: &str) -> Vec<ContentHash> {
    if max_bytes == 0 {
        return Vec::new();
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<(std::time::SystemTime, u64, PathBuf)> = entries
        .filter_map(|e| e.ok())
        .filter(|e| {
            let p = e.path();
            p.extension().is_some_and(|x| x == ext)
                && !p
                    .file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with('.'))
        })
        .filter_map(|e| {
            let meta = e.metadata().ok()?;
            if !meta.is_file() {
                return None;
            }
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            Some((mtime, meta.len(), e.path()))
        })
        .collect();
    let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
    if total <= max_bytes {
        return Vec::new();
    }
    files.sort_by_key(|(mtime, _, _)| *mtime);
    let mut removed = Vec::new();
    for (_, len, path) in files {
        if total <= max_bytes {
            break;
        }
        if std::fs::remove_file(&path).is_ok() {
            total = total.saturating_sub(len);
            if let Some(id) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(ContentHash::from_hex)
            {
                removed.push(id);
            }
        }
    }
    removed
}

/// Age-based eviction of a spill directory: regular `<stem>.<ext>`
/// files whose modification time is older than `ttl` ago are removed.
/// Hidden files (temp spills, the [`DiskIndex`] log) are never touched.
/// Returns the content hashes of the removed spills, like
/// [`evict_dir_to_cap`]. A zero `ttl` disables the sweep.
///
/// This complements the byte cap: the cap bounds *space*, the TTL
/// bounds *staleness* — a shared cache directory stops serving (and
/// storing) month-old layouts even when it never fills.
pub fn evict_dir_to_ttl(dir: &Path, ttl: std::time::Duration, ext: &str) -> Vec<ContentHash> {
    if ttl.is_zero() {
        return Vec::new();
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let Some(cutoff) = std::time::SystemTime::now().checked_sub(ttl) else {
        return Vec::new();
    };
    let mut removed = Vec::new();
    for e in entries.filter_map(|e| e.ok()) {
        let path = e.path();
        let named_spill = path.extension().is_some_and(|x| x == ext)
            && !path
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with('.'));
        if !named_spill {
            continue;
        }
        let Ok(meta) = e.metadata() else { continue };
        if !meta.is_file() {
            continue;
        }
        let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        if mtime >= cutoff {
            continue;
        }
        if std::fs::remove_file(&path).is_ok() {
            if let Some(id) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(ContentHash::from_hex)
            {
                removed.push(id);
            }
        }
    }
    removed
}

// ---------------------------------------------------------------------------
// DiskIndex
// ---------------------------------------------------------------------------

/// In-memory membership index of a spill directory, persisted as an
/// append-only ops log (`<dir>/.pgl-index-<ext>`).
///
/// Without it, every cache/store **miss** pays a filesystem probe
/// (`open` → `ENOENT`) against the spill directory — on a huge cache
/// directory under request load, that is a per-miss metadata round trip
/// for a question ("is this hash spilled?") whose answer is a hash-set
/// lookup. The index answers membership from memory; the persisted log
/// means a restarted process recovers the answer set by replaying one
/// small file instead of `readdir`-ing millions of spills.
///
/// Format: a header line (`pgl-disk-index/1 <ext>`), then one `+<hex>` /
/// `-<hex>` op per line. The log is compacted (rewritten as a snapshot,
/// temp + rename) when it grows past a multiple of the live set. If the
/// file is missing or unreadable, the directory is scanned once and a
/// fresh snapshot written — so directories created by older versions
/// (or populated out-of-band) index correctly on first open.
///
/// The index is authoritative for *this* process plus whatever existed
/// at open time. A sibling process writing the same directory
/// concurrently appends to the same log (its entries land at the next
/// open); until then its new spills read as absent here — a recompute,
/// never a correctness failure. A spill the index believes present but
/// a sibling has evicted surfaces as `ENOENT` on the actual read;
/// callers report that back via their store's `record_disk_gone` and
/// the entry self-heals.
/// Operation counters for one [`DiskIndex`], exported on `/metrics`:
/// how often the index appended to its log, compacted it into a
/// snapshot, and had to rebuild by scanning the directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskIndexOps {
    /// Log lines appended (`+`/`-` ops).
    pub appends: u64,
    /// Log compactions (snapshot rewrites), including the one after a
    /// rebuild scan.
    pub snapshots: u64,
    /// Full directory scans because no usable log existed at open.
    pub rebuild_scans: u64,
}

#[derive(Debug)]
pub struct DiskIndex {
    path: PathBuf,
    ext: String,
    present: std::collections::HashSet<ContentHash>,
    /// Ops lines in the on-disk log (replayed + appended); drives
    /// compaction.
    log_lines: usize,
    /// Lifetime operation counters (observability only).
    ops: DiskIndexOps,
}

impl DiskIndex {
    fn header(ext: &str) -> String {
        format!("pgl-disk-index/1 {ext}\n")
    }

    /// Open (or build) the index for `<dir>/*.{ext}`. Never fails:
    /// degraded I/O falls back to an empty index, which only costs
    /// recomputation.
    pub fn open(dir: &Path, ext: &str) -> Self {
        let path = dir.join(format!(".pgl-index-{ext}"));
        let mut index = Self {
            path,
            ext: ext.to_string(),
            present: std::collections::HashSet::new(),
            log_lines: 0,
            ops: DiskIndexOps::default(),
        };
        let header = Self::header(ext);
        match std::fs::read_to_string(&index.path) {
            Ok(text) if text.starts_with(header.trim_end()) => {
                for line in text.lines().skip(1) {
                    index.log_lines += 1;
                    let (op, hex) = line.split_at(line.len().min(1));
                    match (op, ContentHash::from_hex(hex)) {
                        ("+", Some(id)) => {
                            index.present.insert(id);
                        }
                        ("-", Some(id)) => {
                            index.present.remove(&id);
                        }
                        // Torn or foreign line (e.g. a concurrent append
                        // cut mid-write): skip — worst case a spurious
                        // recompute or one self-healing ENOENT.
                        _ => {}
                    }
                }
            }
            _ => {
                // No usable index: scan the directory once and snapshot.
                index.ops.rebuild_scans += 1;
                if let Ok(entries) = std::fs::read_dir(dir) {
                    for e in entries.filter_map(|e| e.ok()) {
                        let p = e.path();
                        if p.extension().is_some_and(|x| x == ext) {
                            if let Some(id) = p
                                .file_stem()
                                .and_then(|s| s.to_str())
                                .and_then(ContentHash::from_hex)
                            {
                                index.present.insert(id);
                            }
                        }
                    }
                }
                index.snapshot();
            }
        }
        index
    }

    /// Is `id` spilled, as far as the index knows? Pure memory — this is
    /// the probe that replaces the per-miss `open()`.
    pub fn contains(&self, id: ContentHash) -> bool {
        self.present.contains(&id)
    }

    /// Number of indexed spills.
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// Record a spill write.
    pub fn insert(&mut self, id: ContentHash) {
        if self.present.insert(id) {
            self.append('+', id);
        }
    }

    /// Record a spill removal (deletion, cap eviction, or an `ENOENT`
    /// observed by a reader — the self-heal path).
    pub fn remove(&mut self, id: ContentHash) {
        if self.present.remove(&id) {
            self.append('-', id);
        }
    }

    /// Lifetime operation counters.
    pub fn ops(&self) -> DiskIndexOps {
        self.ops
    }

    fn append(&mut self, op: char, id: ContentHash) {
        self.log_lines += 1;
        self.ops.appends += 1;
        if self.log_lines > 4 * self.present.len() + 64 {
            self.snapshot();
            return;
        }
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(&self.path) {
            let _ = writeln!(f, "{op}{}", id.hex());
        }
    }

    /// Rewrite the log as a compact snapshot (temp + rename, so readers
    /// never observe a torn index).
    fn snapshot(&mut self) {
        self.ops.snapshots += 1;
        let mut text = Self::header(&self.ext);
        for id in &self.present {
            text.push('+');
            text.push_str(&id.hex());
            text.push('\n');
        }
        self.log_lines = self.present.len();
        let tmp = self
            .path
            .with_extension(format!("tmp{}", std::process::id()));
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, &self.path);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

// ---------------------------------------------------------------------------
// GraphStore
// ---------------------------------------------------------------------------

/// Public description of one stored graph (`GET /graphs`).
#[derive(Debug, Clone)]
pub struct GraphMeta {
    /// Content hash of the source GFA bytes: the graph's identity.
    pub id: ContentHash,
    /// Node count.
    pub nodes: usize,
    /// Path count.
    pub paths: usize,
    /// Total path steps.
    pub steps: usize,
    /// Lean-structure footprint in bytes.
    pub bytes: u64,
    /// Whether the parsed form is resident in memory right now (as
    /// opposed to only reachable through the disk tier).
    pub resident: bool,
}

impl GraphMeta {
    fn of(id: ContentHash, g: &LeanGraph) -> Self {
        Self {
            id,
            nodes: g.node_count(),
            paths: g.path_count(),
            steps: if g.step_offset.is_empty() {
                0
            } else {
                g.total_steps()
            },
            bytes: g.footprint_bytes(),
            resident: true,
        }
    }
}

/// Monotonic counters for store observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphStoreStats {
    /// Times a GFA document was actually parsed. The whole point of the
    /// store: this stays at one per distinct graph no matter how many
    /// layout requests reference it.
    pub parses: u64,
    /// Lookups answered from the memory tier.
    pub hits: u64,
    /// Memory misses answered by the disk tier.
    pub disk_hits: u64,
    /// Lookups answered by neither tier.
    pub misses: u64,
    /// Graphs inserted into the memory tier (including disk promotions).
    pub insertions: u64,
    /// Graphs evicted from the memory tier to respect the capacity.
    pub evictions: u64,
    /// Graphs explicitly deleted.
    pub deletes: u64,
    /// Graphs spilled to the disk tier.
    pub disk_writes: u64,
    /// Disk-tier read/write failures.
    pub disk_errors: u64,
    /// Spill files removed by the disk-tier byte cap.
    pub disk_cap_evictions: u64,
    /// Spill files removed because they outlived the disk-tier TTL.
    pub disk_ttl_evictions: u64,
    /// Graphs interned by a startup preload pass
    /// (`pgl serve --preload-graphs`).
    pub preloaded: u64,
}

struct Entry {
    graph: Arc<LeanGraph>,
    last_used: u64,
}

/// Content-addressed LRU of parsed graphs over an optional disk tier.
///
/// `capacity` bounds the memory tier in *entries* (0 ⇒ unbounded; a
/// layout server's graphs are its working set, so unbounded is a
/// legitimate choice for batch runs). With a disk tier, evicted graphs
/// remain reachable as `.lean` spill files; without one, eviction is
/// final and a later reference misses.
pub struct GraphStore {
    capacity: usize,
    tick: u64,
    resident: HashMap<ContentHash, Entry>,
    /// Every graph this store knows about (resident or spilled), for
    /// listing. Eviction keeps catalog entries only when the disk tier
    /// can still produce the graph.
    catalog: HashMap<ContentHash, GraphMeta>,
    stats: GraphStoreStats,
    disk: Option<PathBuf>,
    max_disk_bytes: u64,
    /// Membership index of the disk tier: answers "is this hash
    /// spilled?" from memory, so misses never pay an `open()` probe.
    index: Option<DiskIndex>,
}

impl GraphStore {
    /// A memory-only store holding up to `capacity` parsed graphs
    /// (0 ⇒ unbounded).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            resident: HashMap::new(),
            catalog: HashMap::new(),
            stats: GraphStoreStats::default(),
            disk: None,
            max_disk_bytes: 0,
            index: None,
        }
    }

    /// A store with a disk tier under `dir` (created if absent): every
    /// insert is spilled as `<dir>/<hash-hex>.lean`, memory misses fall
    /// back to the directory, and the directory is evicted oldest-first
    /// to `max_disk_bytes` (0 ⇒ unbounded). A [`DiskIndex`] over the
    /// directory is loaded (or built) so misses answer from memory.
    pub fn with_disk(capacity: usize, dir: &Path, max_disk_bytes: u64) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            disk: Some(dir.to_path_buf()),
            max_disk_bytes,
            index: Some(DiskIndex::open(dir, "lean")),
            ..Self::new(capacity)
        })
    }

    /// Where `id`'s spill file lives, when a disk tier is configured —
    /// the **write-side** path helper (spills). Readers use
    /// [`GraphStore::probe_path`], which consults the index first.
    /// Callers holding the store behind a mutex perform the file I/O
    /// outside the lock and report back via [`GraphStore::record_disk_hit`]
    /// / [`GraphStore::record_miss`] / [`GraphStore::record_spill`].
    pub fn disk_path(&self, id: ContentHash) -> Option<PathBuf> {
        self.disk
            .as_ref()
            .map(|d| d.join(format!("{}.lean", id.hex())))
    }

    /// The **read-side** path helper: `Some` only when the disk index
    /// says `id` is spilled, so a definite miss costs a hash-set lookup
    /// instead of an `open()` → `ENOENT` round trip.
    pub fn probe_path(&self, id: ContentHash) -> Option<PathBuf> {
        if self.disk_contains(id) {
            self.disk_path(id)
        } else {
            None
        }
    }

    /// Does the disk tier hold `id`, per the index? No filesystem
    /// access.
    pub fn disk_contains(&self, id: ContentHash) -> bool {
        self.index.as_ref().is_some_and(|ix| ix.contains(id))
    }

    /// The disk tier directory and byte cap, when eviction applies —
    /// for callers running [`evict_dir_to_cap`] outside the store lock.
    pub fn disk_cap(&self) -> Option<(PathBuf, u64)> {
        match (&self.disk, self.max_disk_bytes) {
            (Some(dir), max) if max > 0 => Some((dir.clone(), max)),
            _ => None,
        }
    }

    /// Memory-tier lookup, refreshing recency and counting a hit. A
    /// `None` counts nothing: the caller either probes the disk tier or
    /// calls [`GraphStore::record_miss`].
    pub fn lookup(&mut self, id: ContentHash) -> Option<Arc<LeanGraph>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.resident.get_mut(&id)?;
        entry.last_used = tick;
        self.stats.hits += 1;
        Some(Arc::clone(&entry.graph))
    }

    /// A disk probe (performed by the caller) produced `graph`: count
    /// the disk hit and promote it into the memory tier.
    pub fn record_disk_hit(&mut self, id: ContentHash, graph: &Arc<LeanGraph>) {
        self.stats.disk_hits += 1;
        self.place(id, Arc::clone(graph));
    }

    /// Neither tier produced the graph.
    pub fn record_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// A GFA document was actually parsed (the counter `POST /graphs`
    /// exists to keep at one per graph).
    pub fn record_parse(&mut self) {
        self.stats.parses += 1;
    }

    /// A disk-tier read or write failed.
    pub fn record_disk_error(&mut self) {
        self.stats.disk_errors += 1;
    }

    /// A spill the index believed present read back `ENOENT` (a sibling
    /// process evicted it): self-heal the index so the next miss is
    /// answered from memory again.
    pub fn record_disk_gone(&mut self, id: ContentHash) {
        if let Some(ix) = &mut self.index {
            ix.remove(id);
        }
    }

    /// The caller wrote `id`'s spill file (`ok` = write succeeded).
    pub fn record_spill(&mut self, id: ContentHash, ok: bool) {
        if ok {
            self.stats.disk_writes += 1;
            if let Some(ix) = &mut self.index {
                ix.insert(id);
            }
        } else {
            self.stats.disk_errors += 1;
        }
    }

    /// The caller's [`evict_dir_to_cap`] pass removed these spills.
    pub fn record_cap_evictions(&mut self, removed: &[ContentHash]) {
        self.stats.disk_cap_evictions += removed.len() as u64;
        if let Some(ix) = &mut self.index {
            for &id in removed {
                ix.remove(id);
            }
        }
    }

    /// The caller's [`evict_dir_to_ttl`] sweep removed these spills.
    pub fn record_ttl_evictions(&mut self, removed: &[ContentHash]) {
        self.stats.disk_ttl_evictions += removed.len() as u64;
        if let Some(ix) = &mut self.index {
            for &id in removed {
                ix.remove(id);
            }
        }
    }

    /// The disk-tier directory, when one is configured — for callers
    /// running TTL sweeps outside the store lock.
    pub fn disk_dir(&self) -> Option<PathBuf> {
        self.disk.clone()
    }

    /// A startup preload pass interned one graph.
    pub fn record_preload(&mut self) {
        self.stats.preloaded += 1;
    }

    /// Insert a parsed graph into the memory tier (no disk I/O; see
    /// [`GraphStore::disk_path`] for the spill side).
    pub fn insert(&mut self, id: ContentHash, graph: Arc<LeanGraph>) {
        self.place(id, graph);
    }

    /// Does the store know this graph (resident or catalogued)? Disk
    /// spills from *previous* processes are not covered — probe
    /// [`GraphStore::disk_path`] for those.
    pub fn contains(&self, id: ContentHash) -> bool {
        self.resident.contains_key(&id) || self.catalog.contains_key(&id)
    }

    /// Delete a graph from every tier. In-flight borrowers holding an
    /// `Arc` keep their data; only the store forgets it. Returns whether
    /// anything was removed.
    pub fn remove(&mut self, id: ContentHash) -> bool {
        let had_mem = self.resident.remove(&id).is_some();
        let had_meta = self.catalog.remove(&id).is_some();
        let had_disk = self
            .disk_path(id)
            .map(|p| std::fs::remove_file(p).is_ok())
            .unwrap_or(false);
        if let Some(ix) = &mut self.index {
            ix.remove(id);
        }
        let removed = had_mem || had_meta || had_disk;
        if removed {
            self.stats.deletes += 1;
        }
        removed
    }

    /// Metadata for one known graph.
    pub fn meta(&self, id: ContentHash) -> Option<GraphMeta> {
        let mut m = self.catalog.get(&id)?.clone();
        m.resident = self.resident.contains_key(&id);
        Some(m)
    }

    /// Every graph this store knows about, newest ids last by no
    /// particular order (callers sort for display).
    pub fn list(&self) -> Vec<GraphMeta> {
        let mut out: Vec<GraphMeta> = self
            .catalog
            .values()
            .map(|m| {
                let mut m = m.clone();
                m.resident = self.resident.contains_key(&m.id);
                m
            })
            .collect();
        out.sort_by_key(|m| m.id);
        out
    }

    /// Graphs resident in memory.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// `true` when the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Resident lean-structure bytes.
    pub fn bytes(&self) -> u64 {
        self.resident
            .values()
            .map(|e| e.graph.footprint_bytes())
            .sum()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> GraphStoreStats {
        self.stats
    }

    /// Disk-index operation counters (`None` without a disk tier).
    pub fn index_ops(&self) -> Option<DiskIndexOps> {
        self.index.as_ref().map(|i| i.ops())
    }

    fn place(&mut self, id: ContentHash, graph: Arc<LeanGraph>) {
        self.tick += 1;
        self.catalog.insert(id, GraphMeta::of(id, &graph));
        self.resident.insert(
            id,
            Entry {
                graph,
                last_used: self.tick,
            },
        );
        self.stats.insertions += 1;
        while self.capacity > 0 && self.resident.len() > self.capacity {
            let Some(oldest) = self
                .resident
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            self.resident.remove(&oldest);
            self.stats.evictions += 1;
            // Without a disk copy the graph is gone for good: forget it.
            // The index answers this without a `stat`.
            if !self.disk_contains(oldest) {
                self.catalog.remove(&oldest);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::fig1_graph;
    use crate::write_gfa;

    const TOY: &str = "S\t1\tAA\nS\t2\tT\nS\t3\tGC\nL\t1\t+\t2\t+\t0M\nP\tp\t1+,2+,3+\t*\n";
    const TOY2: &str = "S\ta\tACGT\nS\tb\tC\nL\ta\t+\tb\t+\t0M\nP\tq\ta+,b+\t*\n";

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pgl_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The canonical two-tier fetch a store driver implements with the
    /// primitives (memory, then disk probe, reporting outcomes back).
    fn fetch(s: &mut GraphStore, id: ContentHash) -> Option<Arc<LeanGraph>> {
        if let Some(g) = s.lookup(id) {
            return Some(g);
        }
        match s.probe_path(id).map(|p| load_graph_spill(&p)) {
            Some(Ok(g)) => {
                let g = Arc::new(g);
                s.record_disk_hit(id, &g);
                Some(g)
            }
            Some(Err(e)) => {
                if e.kind() == std::io::ErrorKind::NotFound {
                    s.record_disk_gone(id);
                } else {
                    s.record_disk_error();
                }
                s.record_miss();
                None
            }
            None => {
                s.record_miss();
                None
            }
        }
    }

    /// The canonical intern flow: fetch, else parse once + spill + insert.
    fn intern(s: &mut GraphStore, gfa: &str) -> (ContentHash, Arc<LeanGraph>) {
        let id = content_hash(gfa.as_bytes());
        if let Some(g) = fetch(s, id) {
            return (id, g);
        }
        let g = Arc::new(LeanGraph::from_graph(&crate::parse_gfa(gfa).unwrap()));
        s.record_parse();
        if let Some(path) = s.disk_path(id) {
            let ok = write_graph_spill(&g, &path);
            s.record_spill(id, ok);
            if let Some((dir, max)) = s.disk_cap() {
                let removed = evict_dir_to_cap(&dir, max, "lean");
                s.record_cap_evictions(&removed);
            }
        }
        s.insert(id, Arc::clone(&g));
        (id, g)
    }

    #[test]
    fn content_hashes_are_stable_and_distinct() {
        let a = content_hash(b"hello");
        assert_eq!(a, content_hash(b"hello"));
        assert_ne!(a, content_hash(b"hellp"));
        assert_ne!(
            content_hash_parts(&[b"ab", b"c"]),
            content_hash_parts(&[b"a", b"bc"]),
            "length prefixing prevents concatenation collisions"
        );
    }

    #[test]
    fn hex_round_trips() {
        let h = content_hash(b"x");
        assert_eq!(h.hex().len(), 32);
        assert_eq!(ContentHash::from_hex(&h.hex()), Some(h));
        assert_eq!(ContentHash::from_hex("nope"), None);
        assert_eq!(ContentHash::from_hex(&"f".repeat(31)), None);
        assert_eq!(ContentHash::from_hex(&"g".repeat(32)), None);
    }

    #[test]
    fn lean_codec_round_trips() {
        let lean = LeanGraph::from_graph(&fig1_graph());
        let bytes = lean_to_bytes(&lean);
        let back = lean_from_bytes(&bytes).unwrap();
        assert_eq!(back.node_len, lean.node_len);
        assert_eq!(back.step_offset, lean.step_offset);
        assert_eq!(back.step_node, lean.step_node);
        assert_eq!(back.step_rev, lean.step_rev);
        assert_eq!(back.step_pos, lean.step_pos);
        assert_eq!(back.path_nuc_len, lean.path_nuc_len);
    }

    #[test]
    fn lean_codec_rejects_corruption() {
        let lean = LeanGraph::from_graph(&fig1_graph());
        let bytes = lean_to_bytes(&lean);
        assert!(lean_from_bytes(b"garbage").is_err(), "bad magic");
        assert!(
            lean_from_bytes(&bytes[..bytes.len() - 3]).is_err(),
            "truncated"
        );
        let mut absurd = bytes.clone();
        absurd[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(lean_from_bytes(&absurd).is_err(), "absurd node count");
        // Flip a step_node entry out of range.
        let mut oob = bytes.clone();
        let nodes = lean.node_len.len();
        let paths = lean.path_nuc_len.len();
        let at = 32 + nodes * 4 + (paths + 1) * 4;
        oob[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(lean_from_bytes(&oob).is_err(), "node id out of range");
    }

    #[test]
    fn intern_parses_once_per_distinct_graph() {
        let mut s = GraphStore::new(8);
        let (id1, g1) = intern(&mut s, TOY);
        let (id2, g2) = intern(&mut s, TOY);
        assert_eq!(id1, id2);
        assert!(Arc::ptr_eq(&g1, &g2), "same resident artifact");
        let (id3, _) = intern(&mut s, TOY2);
        assert_ne!(id1, id3);
        let st = s.stats();
        assert_eq!(st.parses, 2, "one parse per distinct graph");
        assert_eq!(st.hits, 1);
        assert_eq!(s.len(), 2);
        assert!(s.bytes() > 0);
    }

    #[test]
    fn contains_tracks_both_tiers() {
        let dir = tmp_dir("contains");
        let mut s = GraphStore::with_disk(1, &dir, 0).unwrap();
        let (a, _) = intern(&mut s, TOY);
        assert!(s.contains(a));
        let (b, _) = intern(&mut s, TOY2); // evicts a from memory
        assert!(s.contains(a), "catalogued via its disk spill");
        assert!(s.contains(b));
        assert!(s.remove(a));
        assert!(!s.contains(a));
        assert!(!s.contains(content_hash(b"never seen")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_without_disk_is_final() {
        let mut s = GraphStore::new(1);
        let (a, _) = intern(&mut s, TOY);
        let (_b, _) = intern(&mut s, TOY2);
        assert_eq!(s.stats().evictions, 1);
        assert_eq!(s.len(), 1);
        assert!(fetch(&mut s, a).is_none(), "evicted graph is gone");
        assert_eq!(s.list().len(), 1, "catalog forgets unreachable graphs");
    }

    #[test]
    fn disk_tier_reloads_evicted_and_restarted_graphs() {
        let dir = tmp_dir("disk");
        let a = {
            let mut s = GraphStore::with_disk(1, &dir, 0).unwrap();
            let (a, _) = intern(&mut s, TOY);
            let _ = intern(&mut s, TOY2); // evicts a from memory
            assert_eq!(s.stats().evictions, 1);
            let g = fetch(&mut s, a).expect("reloaded from disk");
            assert_eq!(g.node_count(), 3);
            assert_eq!(s.stats().disk_hits, 1);
            assert_eq!(s.stats().parses, 2, "reload is not a parse");
            a
        };
        // A fresh store over the same directory still serves the graph.
        let mut s2 = GraphStore::with_disk(4, &dir, 0).unwrap();
        let (id, _) = intern(&mut s2, TOY);
        assert_eq!(id, a);
        assert_eq!(s2.stats().parses, 0, "restart reuses the spill");
        assert_eq!(s2.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_deletes_every_tier_but_borrowers_keep_their_arc() {
        let dir = tmp_dir("remove");
        let mut s = GraphStore::with_disk(4, &dir, 0).unwrap();
        let (id, g) = intern(&mut s, TOY);
        let spill = s.disk_path(id).unwrap();
        assert!(spill.exists());
        assert!(s.remove(id));
        assert!(!spill.exists());
        assert!(fetch(&mut s, id).is_none());
        assert!(s.meta(id).is_none());
        assert!(!s.remove(id), "second delete is a no-op");
        assert_eq!(g.node_count(), 3, "borrowed Arc still valid");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_reports_residency() {
        let dir = tmp_dir("list");
        let mut s = GraphStore::with_disk(1, &dir, 0).unwrap();
        let (a, _) = intern(&mut s, TOY);
        let (b, _) = intern(&mut s, TOY2);
        let listed = s.list();
        assert_eq!(listed.len(), 2);
        let find = |id| listed.iter().find(|m| m.id == id).unwrap();
        assert!(!find(a).resident, "evicted to disk");
        assert!(find(b).resident);
        assert_eq!(find(a).nodes, 3);
        assert_eq!(find(b).steps, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_cap_evicts_oldest_first() {
        let dir = tmp_dir("cap");
        std::fs::create_dir_all(&dir).unwrap();
        for (i, name) in ["old.lean", "mid.lean", "new.lean"].iter().enumerate() {
            std::fs::write(dir.join(name), vec![0u8; 100]).unwrap();
            let t =
                std::time::SystemTime::now() - std::time::Duration::from_secs(300 - i as u64 * 100);
            std::fs::File::options()
                .append(true)
                .open(dir.join(name))
                .unwrap()
                .set_modified(t)
                .unwrap();
        }
        std::fs::write(dir.join("other.lay"), vec![0u8; 1000]).unwrap();
        std::fs::write(dir.join(".tmp.lean"), vec![0u8; 1000]).unwrap();
        assert!(
            evict_dir_to_cap(&dir, 0, "lean").is_empty(),
            "0 disables the cap"
        );
        evict_dir_to_cap(&dir, 250, "lean");
        assert!(!dir.join("old.lean").exists(), "oldest went first");
        assert!(dir.join("mid.lean").exists());
        assert!(dir.join("new.lean").exists());
        assert!(dir.join("other.lay").exists(), "other extensions untouched");
        assert!(dir.join(".tmp.lean").exists(), "temp files untouched");
        evict_dir_to_cap(&dir, 100, "lean");
        assert!(!dir.join("mid.lean").exists());
        assert!(dir.join("new.lean").exists());
        // Hash-named spills are reported back for index maintenance;
        // non-hash names (above) are removed but unreported.
        let id = content_hash(b"reported");
        std::fs::write(dir.join(format!("{}.lean", id.hex())), vec![0u8; 500]).unwrap();
        let old = std::time::SystemTime::now() - std::time::Duration::from_secs(900);
        std::fs::File::options()
            .append(true)
            .open(dir.join(format!("{}.lean", id.hex())))
            .unwrap()
            .set_modified(old)
            .unwrap();
        let removed = evict_dir_to_cap(&dir, 100, "lean");
        assert_eq!(removed, vec![id], "hash stems come back for the index");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_ttl_sweep_removes_only_expired_spills() {
        let dir = tmp_dir("ttl");
        std::fs::create_dir_all(&dir).unwrap();
        let stale = content_hash(b"stale");
        let fresh = content_hash(b"fresh");
        for (id, age_s) in [(stale, 900u64), (fresh, 1)] {
            let path = dir.join(format!("{}.lean", id.hex()));
            std::fs::write(&path, vec![0u8; 64]).unwrap();
            let t = std::time::SystemTime::now() - std::time::Duration::from_secs(age_s);
            std::fs::File::options()
                .append(true)
                .open(&path)
                .unwrap()
                .set_modified(t)
                .unwrap();
        }
        std::fs::write(dir.join(".tmp.lean"), vec![0u8; 64]).unwrap();
        std::fs::write(dir.join("other.lay"), vec![0u8; 64]).unwrap();
        assert!(
            evict_dir_to_ttl(&dir, std::time::Duration::ZERO, "lean").is_empty(),
            "zero TTL disables the sweep"
        );
        let removed = evict_dir_to_ttl(&dir, std::time::Duration::from_secs(600), "lean");
        assert_eq!(removed, vec![stale], "only the expired spill reported");
        assert!(!dir.join(format!("{}.lean", stale.hex())).exists());
        assert!(dir.join(format!("{}.lean", fresh.hex())).exists());
        assert!(dir.join(".tmp.lean").exists(), "temp files untouched");
        assert!(dir.join("other.lay").exists(), "other extensions untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_index_tracks_membership_and_survives_reopen() {
        let dir = tmp_dir("index");
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b, c) = (content_hash(b"a"), content_hash(b"b"), content_hash(b"c"));
        let mut ix = DiskIndex::open(&dir, "lean");
        assert!(ix.is_empty());
        ix.insert(a);
        ix.insert(b);
        ix.remove(b);
        assert!(ix.contains(a) && !ix.contains(b) && !ix.contains(c));
        assert_eq!(ix.len(), 1);
        // A fresh open replays the persisted ops log.
        let ix2 = DiskIndex::open(&dir, "lean");
        assert!(ix2.contains(a) && !ix2.contains(b));
        // Without an index file, opening scans the directory: spills
        // written by older versions (or out-of-band) are found.
        std::fs::remove_file(dir.join(".pgl-index-lean")).unwrap();
        std::fs::write(dir.join(format!("{}.lean", c.hex())), b"x").unwrap();
        std::fs::write(dir.join("not-a-hash.lean"), b"x").unwrap();
        let ix3 = DiskIndex::open(&dir, "lean");
        assert!(ix3.contains(c), "scan found the out-of-band spill");
        assert!(!ix3.contains(a), "a's spill file never existed");
        assert_eq!(ix3.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_index_compacts_its_log() {
        let dir = tmp_dir("index_compact");
        std::fs::create_dir_all(&dir).unwrap();
        let mut ix = DiskIndex::open(&dir, "lay");
        // Churn one entry far past the compaction threshold.
        for i in 0..300u64 {
            let id = content_hash(&i.to_le_bytes());
            ix.insert(id);
            ix.remove(id);
        }
        let keep = content_hash(b"keeper");
        ix.insert(keep);
        let text = std::fs::read_to_string(dir.join(".pgl-index-lay")).unwrap();
        assert!(
            text.lines().count() < 200,
            "log compacted, not {} lines",
            text.lines().count()
        );
        let ix2 = DiskIndex::open(&dir, "lay");
        assert!(ix2.contains(keep));
        assert_eq!(ix2.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_path_answers_misses_without_filesystem_access() {
        let dir = tmp_dir("probe");
        let mut s = GraphStore::with_disk(1, &dir, 0).unwrap();
        let (a, _) = intern(&mut s, TOY);
        let never = content_hash(b"never spilled");
        assert!(s.probe_path(a).is_some(), "spilled graph probes");
        assert!(s.disk_contains(a));
        assert!(
            s.probe_path(never).is_none(),
            "definite miss without touching the directory"
        );
        assert!(!s.disk_contains(never));
        // Self-heal: a sibling evicts the spill behind our back; the
        // reader observes ENOENT and reports it, after which the index
        // answers absent from memory.
        std::fs::remove_file(s.disk_path(a).unwrap()).unwrap();
        assert!(s.probe_path(a).is_some(), "index is stale until told");
        s.record_disk_gone(a);
        assert!(s.probe_path(a).is_none(), "healed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbounded_capacity_never_evicts() {
        let mut s = GraphStore::new(0);
        for i in 0..20 {
            let gfa = format!("S\tn{i}\tACGT\nP\tp\tn{i}+\t*\n");
            intern(&mut s, &gfa);
        }
        assert_eq!(s.len(), 20);
        assert_eq!(s.stats().evictions, 0);
    }

    #[test]
    fn graphs_written_via_write_gfa_round_trip_through_the_store() {
        let mut s = GraphStore::new(4);
        let text = write_gfa(&fig1_graph());
        let (_, g) = intern(&mut s, &text);
        let lean = LeanGraph::from_graph(&fig1_graph());
        assert_eq!(g.node_len, lean.node_len);
        assert_eq!(g.step_pos, lean.step_pos);
    }
}
