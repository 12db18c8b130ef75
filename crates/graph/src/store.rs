//! Building blocks for content-addressed storage of parsed graphs and
//! layouts.
//!
//! Pangenome references are multi-gigabyte GFA documents shared across
//! many layout requests; re-shipping and re-parsing the text for every
//! request wastes exactly the time the paper's fast layout kernel saves.
//! The service's two-tier store (`pgl_service::cache`) keeps parsed
//! graphs and finished layouts as **first-class artifacts**, built from
//! these pieces:
//!
//! * [`ContentHash`] — the workspace's 128-bit FNV-1a content hash. The
//!   same hash addresses a graph, keys the layout cache, and names spill
//!   files on disk, so every tier agrees on identity.
//! * [`lean_to_bytes`] / [`lean_from_bytes`] — a compact binary codec
//!   for [`LeanGraph`] (the `.lean` spill format), so a parsed graph
//!   can be reloaded without ever touching GFA text again.
//! * [`write_atomic`] — torn-write-free spill files.
//! * [`evict_dir`] — one walk that bounds a spill directory by bytes
//!   (oldest first) and by age.

use crate::lean::LeanGraph;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

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

/// The spills one [`evict_dir`] walk removed, by the bound that removed
/// them. Only spills named by a content hash are listed; other
/// `<stem>.<ext>` files are removed but not reported.
#[derive(Debug, Default)]
pub struct Evicted {
    /// Removed oldest first to bring the directory under its byte cap.
    pub capped: Vec<ContentHash>,
    /// Removed because they outlived the TTL.
    pub expired: Vec<ContentHash>,
}

/// Bound a spill directory in one walk: regular `<stem>.<ext>` files
/// are sized and sorted by modification time, the oldest are removed
/// until the rest fit in `max_bytes`, and then the remaining files
/// older than `ttl` are removed. Hidden files (in-flight temp spills
/// start with `.`) are never touched. A `max_bytes` of 0 disables the
/// cap and a zero `ttl` the age limit; with both off the directory is
/// not read.
///
/// The cap bounds *space*, the TTL *staleness*: a shared cache
/// directory stops serving (and storing) month-old layouts even when
/// it never fills.
pub fn evict_dir(dir: &Path, max_bytes: u64, ttl: Duration, ext: &str) -> Evicted {
    let mut evicted = Evicted::default();
    if max_bytes == 0 && ttl.is_zero() {
        return evicted;
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return evicted;
    };
    let mut files: Vec<(SystemTime, u64, PathBuf)> = entries
        .filter_map(|e| {
            let e = e.ok()?;
            let path = e.path();
            let hidden = e.file_name().to_string_lossy().starts_with('.');
            if hidden || path.extension().is_none_or(|x| x != ext) {
                return None;
            }
            let meta = e.metadata().ok().filter(|m| m.is_file())?;
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            Some((mtime, meta.len(), path))
        })
        .collect();
    files.sort_by_key(|(mtime, _, _)| *mtime);
    let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
    let cutoff = SystemTime::now()
        .checked_sub(ttl)
        .filter(|_| !ttl.is_zero());
    for (mtime, len, path) in files {
        // Oldest first: once a file is within both bounds, so is the rest.
        let removed = if max_bytes > 0 && total > max_bytes {
            &mut evicted.capped
        } else if cutoff.is_some_and(|cutoff| mtime < cutoff) {
            &mut evicted.expired
        } else {
            break;
        };
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
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::fig1_graph;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pgl_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
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

    /// Write `len` zero bytes to `path`, last modified `age_s` seconds ago.
    fn write_aged(path: &Path, len: usize, age_s: u64) {
        std::fs::write(path, vec![0u8; len]).unwrap();
        std::fs::File::options()
            .append(true)
            .open(path)
            .unwrap()
            .set_modified(SystemTime::now() - Duration::from_secs(age_s))
            .unwrap();
    }

    #[test]
    fn dir_cap_evicts_oldest_first() {
        let dir = tmp_dir("cap");
        std::fs::create_dir_all(&dir).unwrap();
        for (i, name) in ["old.lean", "mid.lean", "new.lean"].iter().enumerate() {
            write_aged(&dir.join(name), 100, 300 - i as u64 * 100);
        }
        std::fs::write(dir.join("other.lay"), vec![0u8; 1000]).unwrap();
        std::fs::write(dir.join(".tmp.lean"), vec![0u8; 1000]).unwrap();
        assert!(
            evict_dir(&dir, 0, Duration::ZERO, "lean").capped.is_empty(),
            "0 disables the cap"
        );
        evict_dir(&dir, 250, Duration::ZERO, "lean");
        assert!(!dir.join("old.lean").exists(), "oldest went first");
        assert!(dir.join("mid.lean").exists());
        assert!(dir.join("new.lean").exists());
        assert!(dir.join("other.lay").exists(), "other extensions untouched");
        assert!(dir.join(".tmp.lean").exists(), "temp files untouched");
        evict_dir(&dir, 100, Duration::ZERO, "lean");
        assert!(!dir.join("mid.lean").exists());
        assert!(dir.join("new.lean").exists());
        // Hash-named spills are reported back for index maintenance;
        // non-hash names (above) are removed but unreported.
        let id = content_hash(b"reported");
        write_aged(&dir.join(format!("{}.lean", id.hex())), 500, 900);
        let removed = evict_dir(&dir, 100, Duration::ZERO, "lean").capped;
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
            write_aged(&dir.join(format!("{}.lean", id.hex())), 64, age_s);
        }
        std::fs::write(dir.join(".tmp.lean"), vec![0u8; 64]).unwrap();
        std::fs::write(dir.join("other.lay"), vec![0u8; 64]).unwrap();
        assert!(
            evict_dir(&dir, 0, Duration::ZERO, "lean")
                .expired
                .is_empty(),
            "zero TTL disables the sweep"
        );
        let removed = evict_dir(&dir, 0, Duration::from_secs(600), "lean").expired;
        assert_eq!(removed, vec![stale], "only the expired spill reported");
        assert!(!dir.join(format!("{}.lean", stale.hex())).exists());
        assert!(dir.join(format!("{}.lean", fresh.hex())).exists());
        assert!(dir.join(".tmp.lean").exists(), "temp files untouched");
        assert!(dir.join("other.lay").exists(), "other extensions untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_cap_applies_before_the_ttl() {
        let dir = tmp_dir("both");
        std::fs::create_dir_all(&dir).unwrap();
        let ids: Vec<ContentHash> = (0..4u8).map(|i| content_hash(&[i])).collect();
        for (id, age_s) in ids.iter().zip([900, 800, 700, 10]) {
            write_aged(&dir.join(format!("{}.lean", id.hex())), 100, age_s);
        }
        // The cap takes the two oldest, though both are past the TTL
        // too; the TTL then takes the one expired spill that is left.
        let evicted = evict_dir(&dir, 250, Duration::from_secs(600), "lean");
        assert_eq!(evicted.capped, ids[..2]);
        assert_eq!(evicted.expired, ids[2..3]);
        assert!(dir.join(format!("{}.lean", ids[3].hex())).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
