//! Content-addressed layout cache: an in-memory LRU tier over an
//! optional disk tier.
//!
//! A layout is fully determined by the graph, the engine, and the
//! layout configuration (all engines are seeded and deterministic for a
//! fixed thread count — and even Hogwild races only perturb, not change,
//! the keyed inputs). The cache therefore keys on the workspace's
//! 128-bit content hash ([`pangraph::store::ContentHash`]) of
//! `(engine, batch size, canonical config, graph content hash)`. The
//! graph is represented by **its hash, not its text**: a layout request
//! that references an already-uploaded graph never rehashes gigabytes
//! of GFA, and the layout tier and the graph store agree on identity.
//!
//! The **disk tier** ([`LayoutCache::with_disk`]) writes every inserted
//! layout through to `<dir>/<key-hex>.lay` (the workspace's binary
//! format, via `pgio`), and lazily reloads on a memory miss. Because the
//! key is content-addressed and deterministic across processes, a
//! restarted server still hits on every layout it — or any sibling
//! pointed at the same directory — ever computed. Eviction from the
//! memory tier never deletes the disk copy; the entry just becomes a
//! disk hit instead of a memory hit. The directory itself is bounded by
//! `max_disk_bytes` (see [`pangraph::store::evict_dir_to_cap`]): when a
//! spill pushes it past the cap, the oldest `.lay` files are removed.

use layout_core::LayoutConfig;
use pangraph::store::{
    content_hash_parts, evict_dir_to_cap, write_atomic, ContentHash, DiskIndex, DiskIndexOps,
};
use pangraph::Layout2D;
use pgio::{load_lay, write_lay};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Spill `layout` to `path` as a `.lay` file, atomically
/// ([`write_atomic`]): a crash mid-write never leaves a corrupt cache
/// entry.
pub fn write_spill(layout: &Layout2D, path: &Path) -> bool {
    write_atomic(path, &write_lay(layout))
}

/// Cache keys are the workspace-wide 128-bit content hash.
pub type CacheKey = ContentHash;

/// Canonical, order-stable fingerprint of every field that affects the
/// resulting layout. New `LayoutConfig` fields must be added here — the
/// destructuring below fails to compile if one is forgotten.
fn config_fingerprint(cfg: &LayoutConfig) -> String {
    let LayoutConfig {
        iter_max,
        steps_per_path_node,
        eps,
        eta_max,
        cooling_start,
        zipf_theta,
        zipf_space_max,
        zipf_quant,
        threads,
        seed,
        data_layout,
        precision,
        term_block,
        pair_selection,
        init_jitter,
        simd,
        write_shard,
    } = cfg;
    format!(
        "iter_max={iter_max};steps={steps_per_path_node};eps={eps};eta_max={eta_max:?};\
         cool={cooling_start};theta={zipf_theta};zmax={zipf_space_max};zq={zipf_quant};\
         threads={threads};seed={seed};layout={data_layout:?};prec={precision:?};\
         block={term_block};pairs={pair_selection:?};jitter={init_jitter};\
         simd={simd:?};shard={write_shard:?}"
    )
}

/// Compute the content-addressed key for one layout request. The graph
/// enters as its content hash, so keying a by-reference request costs
/// O(config), not O(graph bytes).
pub fn cache_key(
    engine: &str,
    cfg: &LayoutConfig,
    batch_size: usize,
    graph: ContentHash,
) -> CacheKey {
    let meta = format!("{engine};batch={batch_size};{}", config_fingerprint(cfg));
    content_hash_parts(&[meta.as_bytes(), &graph.to_bytes()])
}

/// Cache observability counters (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a layout.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to respect the capacity.
    pub evictions: u64,
    /// Entries ever inserted into the memory tier (including disk-tier
    /// promotions).
    pub insertions: u64,
    /// Memory misses answered by the disk tier.
    pub disk_hits: u64,
    /// Layouts spilled to the disk tier.
    pub disk_writes: u64,
    /// Disk-tier I/O or decode failures (treated as misses).
    pub disk_errors: u64,
    /// Spill files removed by the disk-tier byte cap.
    pub disk_cap_evictions: u64,
    /// Spill files removed because they outlived the disk-tier TTL.
    pub disk_ttl_evictions: u64,
}

struct Entry {
    layout: Arc<Layout2D>,
    last_used: u64,
    bytes: usize,
}

/// Two-tier cache of finished layouts: in-memory LRU over an optional
/// disk directory.
///
/// Recency is tracked with a monotonic tick; eviction scans for the
/// minimum, which is O(entries) — fine for the few-hundred-entry
/// capacities this service runs with.
pub struct LayoutCache {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, Entry>,
    stats: CacheStats,
    disk: Option<PathBuf>,
    max_disk_bytes: u64,
    /// Membership index of the disk tier ([`DiskIndex`]): misses are
    /// answered from memory instead of paying an `open()` → `ENOENT`
    /// probe per miss against a potentially huge cache directory.
    index: Option<DiskIndex>,
}

impl LayoutCache {
    /// A memory-only cache holding up to `capacity` layouts (0 disables
    /// the memory tier; the disk tier, when configured, still operates).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            map: HashMap::new(),
            stats: CacheStats::default(),
            disk: None,
            max_disk_bytes: 0,
            index: None,
        }
    }

    /// A cache with a disk tier under `dir` (created if absent): every
    /// insert is written through as `<dir>/<key-hex>.lay`, and memory
    /// misses fall back to the directory before counting as misses.
    /// `max_disk_bytes` bounds the directory (0 ⇒ unbounded): when a
    /// spill pushes it past the cap, the oldest `.lay` files go first.
    /// A [`DiskIndex`] over the directory is loaded (or built by one
    /// startup scan) so definite misses never touch the filesystem.
    pub fn with_disk(capacity: usize, dir: &Path, max_disk_bytes: u64) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            disk: Some(dir.to_path_buf()),
            max_disk_bytes,
            index: Some(DiskIndex::open(dir, "lay")),
            ..Self::new(capacity)
        })
    }

    /// The disk-tier directory, when one is configured.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_deref()
    }

    /// The disk tier directory and byte cap, when a cap applies — for
    /// callers running the eviction scan outside the cache lock.
    pub fn disk_cap(&self) -> Option<(PathBuf, u64)> {
        match (&self.disk, self.max_disk_bytes) {
            (Some(dir), max) if max > 0 => Some((dir.clone(), max)),
            _ => None,
        }
    }

    /// Where `key`'s spill file lives, when a disk tier is configured —
    /// the **write-side** helper. Readers use [`LayoutCache::probe_path`].
    ///
    /// Public so callers holding the cache behind a mutex (the service)
    /// can perform the actual file I/O *outside* the lock and report
    /// back via [`LayoutCache::record_disk_hit`] /
    /// [`LayoutCache::record_miss`] / [`LayoutCache::record_spill`].
    pub fn disk_path(&self, key: CacheKey) -> Option<PathBuf> {
        self.disk
            .as_ref()
            .map(|d| d.join(format!("{}.lay", key.hex())))
    }

    /// The **read-side** helper: `Some` only when the disk index says
    /// the spill exists, so a definite miss is a hash-set lookup, not an
    /// `open()` → `ENOENT` round trip.
    pub fn probe_path(&self, key: CacheKey) -> Option<PathBuf> {
        if self.index.as_ref().is_some_and(|ix| ix.contains(key)) {
            self.disk_path(key)
        } else {
            None
        }
    }

    /// Memory-tier-only lookup, refreshing recency and counting a hit.
    /// A `None` counts nothing: the caller either probes the disk tier
    /// (reporting the outcome back) or calls [`LayoutCache::record_miss`].
    pub fn lookup(&mut self, key: CacheKey) -> Option<Arc<Layout2D>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(&key)?;
        entry.last_used = tick;
        self.stats.hits += 1;
        Some(Arc::clone(&entry.layout))
    }

    /// A disk probe (performed by the caller) found `layout`: count the
    /// disk hit and promote it into the memory tier.
    pub fn record_disk_hit(&mut self, key: CacheKey, layout: &Arc<Layout2D>) {
        self.stats.disk_hits += 1;
        if self.capacity > 0 {
            self.tick += 1;
            self.place(key, Arc::clone(layout));
        }
    }

    /// Neither tier had the layout.
    pub fn record_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// A disk-tier read or write failed (unreadable/corrupt spill).
    pub fn record_disk_error(&mut self) {
        self.stats.disk_errors += 1;
    }

    /// A spill the index believed present read back `ENOENT` (a sibling
    /// process evicted it): self-heal the index.
    pub fn record_disk_gone(&mut self, key: CacheKey) {
        if let Some(ix) = &mut self.index {
            ix.remove(key);
        }
    }

    /// The caller wrote `key`'s spill file for a fresh insert (`ok` =
    /// write succeeded).
    pub fn record_spill(&mut self, key: CacheKey, ok: bool) {
        if ok {
            self.stats.disk_writes += 1;
            if let Some(ix) = &mut self.index {
                ix.insert(key);
            }
        } else {
            self.stats.disk_errors += 1;
        }
    }

    /// The caller's cap-eviction pass removed these spill files.
    pub fn record_cap_evictions(&mut self, removed: &[CacheKey]) {
        self.stats.disk_cap_evictions += removed.len() as u64;
        if let Some(ix) = &mut self.index {
            for &key in removed {
                ix.remove(key);
            }
        }
    }

    /// The caller's TTL sweep removed these spill files.
    pub fn record_ttl_evictions(&mut self, removed: &[CacheKey]) {
        self.stats.disk_ttl_evictions += removed.len() as u64;
        if let Some(ix) = &mut self.index {
            for &key in removed {
                ix.remove(key);
            }
        }
    }

    /// Insert into the memory tier only (no disk write-through) —
    /// the counterpart of [`LayoutCache::disk_path`] for callers doing
    /// their own spill I/O.
    pub fn insert_memory(&mut self, key: CacheKey, layout: Arc<Layout2D>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        self.place(key, layout);
    }

    /// Look up a layout, refreshing its recency. Memory misses consult
    /// the disk tier and promote any hit back into memory.
    ///
    /// Convenience two-tier path for standalone use; note the disk read
    /// happens under `&mut self` (the service drives the primitives
    /// directly so file I/O stays outside its cache lock).
    pub fn get(&mut self, key: CacheKey) -> Option<Arc<Layout2D>> {
        if let Some(hit) = self.lookup(key) {
            return Some(hit);
        }
        match self.probe_path(key).map(|p| load_lay(&p)) {
            Some(Ok(layout)) => {
                let layout = Arc::new(layout);
                self.record_disk_hit(key, &layout);
                Some(layout)
            }
            Some(Err(e)) => {
                if e.kind() == std::io::ErrorKind::NotFound {
                    // Index said present but the file is gone (sibling
                    // eviction): self-heal and miss.
                    self.record_disk_gone(key);
                } else {
                    // Unreadable or corrupt spill: treat as a miss so
                    // the layout is recomputed, and count it.
                    self.record_disk_error();
                }
                self.record_miss();
                None
            }
            None => {
                self.record_miss();
                None
            }
        }
    }

    /// Insert a layout: write it through to the disk tier (even when the
    /// memory tier is disabled), enforce the disk byte cap, and place it
    /// in memory, evicting least-recently-used entries as needed.
    pub fn insert(&mut self, key: CacheKey, layout: Arc<Layout2D>) {
        if let Some(path) = self.disk_path(key) {
            let ok = write_spill(&layout, &path);
            self.record_spill(key, ok);
            if let Some((dir, max)) = self.disk_cap() {
                let removed = evict_dir_to_cap(&dir, max, "lay");
                self.record_cap_evictions(&removed);
            }
        }
        self.insert_memory(key, layout);
    }

    /// Memory-tier bookkeeping shared by insert and disk promotion.
    fn place(&mut self, key: CacheKey, layout: Arc<Layout2D>) {
        let bytes = layout.node_count() * 32;
        self.map.insert(
            key,
            Entry {
                layout,
                last_used: self.tick,
                bytes,
            },
        );
        self.stats.insertions += 1;
        while self.map.len() > self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
    }

    /// Number of cached layouts.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate resident payload size.
    pub fn bytes(&self) -> usize {
        self.map.values().map(|e| e.bytes).sum()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Disk-index operation counters (`None` without a disk tier).
    pub fn index_ops(&self) -> Option<DiskIndexOps> {
        self.index.as_ref().map(|i| i.ops())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangraph::store::content_hash;

    fn layout(n: usize) -> Arc<Layout2D> {
        Arc::new(Layout2D::zeros(n))
    }

    fn key(tag: &str) -> CacheKey {
        cache_key(
            "cpu",
            &LayoutConfig::default(),
            0,
            content_hash(tag.as_bytes()),
        )
    }

    #[test]
    fn distinct_inputs_get_distinct_keys() {
        let cfg = LayoutConfig::default();
        let g1 = content_hash(b"S\t1\t*\n");
        let g2 = content_hash(b"S\t2\t*\n");
        let base = cache_key("cpu", &cfg, 0, g1);
        assert_ne!(base, cache_key("gpu", &cfg, 0, g1), "engine must key");
        assert_ne!(base, cache_key("cpu", &cfg, 0, g2), "graph must key");
        let mut cfg2 = cfg.clone();
        cfg2.iter_max += 1;
        assert_ne!(base, cache_key("cpu", &cfg2, 0, g1), "config must key");
        assert_ne!(
            cache_key("batch", &cfg, 512, g1),
            cache_key("batch", &cfg, 1024, g1),
            "batch size must key"
        );
        assert_eq!(base, cache_key("cpu", &cfg.clone(), 0, g1), "stable");
    }

    #[test]
    fn get_hits_and_misses_are_counted() {
        let mut c = LayoutCache::new(4);
        assert!(c.get(key("a")).is_none());
        c.insert(key("a"), layout(3));
        assert!(c.get(key("a")).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(c.bytes(), 96);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let mut c = LayoutCache::new(2);
        c.insert(key("a"), layout(1));
        c.insert(key("b"), layout(1));
        assert!(c.get(key("a")).is_some()); // refresh a; b is now LRU
        c.insert(key("c"), layout(1));
        assert_eq!(c.len(), 2);
        assert!(c.get(key("b")).is_none(), "b was evicted");
        assert!(c.get(key("a")).is_some());
        assert!(c.get(key("c")).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LayoutCache::new(0);
        c.insert(key("a"), layout(1));
        assert!(c.is_empty());
        assert!(c.get(key("a")).is_none());
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pgl_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_tier_survives_a_new_cache_instance() {
        let dir = tmp_dir("restart");
        {
            let mut c = LayoutCache::with_disk(4, &dir, 0).unwrap();
            c.insert(key("a"), layout(3));
            assert_eq!(c.stats().disk_writes, 1);
            assert!(dir.join(format!("{}.lay", key("a").hex())).exists());
        }
        // A fresh instance (empty memory tier) still hits via disk.
        let mut c2 = LayoutCache::with_disk(4, &dir, 0).unwrap();
        let hit = c2.get(key("a")).expect("disk tier answers");
        assert_eq!(hit.node_count(), 3);
        let s = c2.stats();
        assert_eq!((s.hits, s.disk_hits, s.misses), (0, 1, 0));
        // The promotion made it a memory entry: the next get is a memory hit.
        assert!(c2.get(key("a")).is_some());
        assert_eq!(c2.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evicted_entries_remain_reachable_through_disk() {
        let dir = tmp_dir("evict");
        let mut c = LayoutCache::with_disk(1, &dir, 0).unwrap();
        c.insert(key("a"), layout(2));
        c.insert(key("b"), layout(2)); // evicts a from memory
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get(key("a")).is_some(), "a comes back from disk");
        assert_eq!(c.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_capacity_with_disk_tier_is_a_disk_only_cache() {
        let dir = tmp_dir("diskonly");
        let mut c = LayoutCache::with_disk(0, &dir, 0).unwrap();
        c.insert(key("a"), layout(2));
        assert!(c.is_empty(), "memory tier stays disabled");
        assert_eq!(c.stats().disk_writes, 1, "spill still written");
        // Every get is served from disk, never promoted.
        assert!(c.get(key("a")).is_some());
        assert!(c.get(key("a")).is_some());
        assert!(c.is_empty());
        let s = c.stats();
        assert_eq!((s.hits, s.disk_hits, s.misses), (0, 2, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_a_counted_miss() {
        let dir = tmp_dir("corrupt");
        // The corrupt spill exists before the cache opens, so the
        // startup scan indexes it and the probe actually reads it.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("{}.lay", key("a").hex())), b"garbage").unwrap();
        let mut c = LayoutCache::with_disk(4, &dir, 0).unwrap();
        assert!(c.get(key("a")).is_none());
        let s = c.stats();
        assert_eq!((s.disk_errors, s.misses), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn definite_misses_never_touch_the_spill_directory() {
        let dir = tmp_dir("indexmiss");
        // Disk-only (capacity 0), so every get exercises the disk path.
        let mut c = LayoutCache::with_disk(0, &dir, 0).unwrap();
        c.insert(key("a"), layout(2));
        assert!(c.probe_path(key("a")).is_some(), "write indexed the spill");
        assert!(
            c.probe_path(key("never")).is_none(),
            "unknown key answered from the index, no filesystem probe"
        );
        // Remove the directory wholesale: lookups of unknown keys still
        // work (they never touch the filesystem), and the stale entry
        // self-heals through record_disk_gone when actually read.
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(c.get(key("b")).is_none(), "miss with no directory at all");
        assert!(c.get(key("a")).is_none(), "stale index entry misses");
        assert!(
            c.probe_path(key("a")).is_none(),
            "ENOENT self-healed the index"
        );
        let s = c.stats();
        assert_eq!(s.disk_errors, 0, "ENOENT is not an error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_byte_cap_evicts_oldest_spills() {
        let dir = tmp_dir("cap");
        // Each 3-node spill is 16 + 32·3 = 112 bytes; cap at ~2 files.
        let mut c = LayoutCache::with_disk(8, &dir, 240).unwrap();
        c.insert(key("a"), layout(3));
        // Backdate a's spill so the eviction order is unambiguous.
        let old = std::time::SystemTime::now() - std::time::Duration::from_secs(600);
        std::fs::File::options()
            .append(true)
            .open(c.disk_path(key("a")).unwrap())
            .unwrap()
            .set_modified(old)
            .unwrap();
        c.insert(key("b"), layout(3));
        assert_eq!(c.stats().disk_cap_evictions, 0, "under the cap");
        c.insert(key("c"), layout(3)); // 3 × 112 > 240 → oldest evicted
        assert!(c.stats().disk_cap_evictions >= 1, "{:?}", c.stats());
        assert!(!c.disk_path(key("a")).unwrap().exists(), "oldest went");
        assert!(c.disk_path(key("c")).unwrap().exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_keys_render_as_stable_hex() {
        let k = key("a");
        assert_eq!(k.hex().len(), 32);
        assert_eq!(k.hex(), key("a").hex());
        assert_ne!(k.hex(), key("b").hex());
        assert!(k.hex().chars().all(|c| c.is_ascii_hexdigit()));
    }
}
