//! Two-tier content-addressed storage: the service's layout cache and
//! its graph store are one [`TieredStore`], an in-memory LRU over an
//! optional disk tier of spill files.
//!
//! Both tiers key on the workspace's 128-bit content hash
//! ([`pangraph::store::ContentHash`]). A parsed graph is keyed by the
//! hash of its GFA bytes; a layout by [`cache_key`], the hash of
//! `(engine, batch size, canonical config, graph content hash)`. The
//! graph enters a layout key as **its hash, not its text**: a layout
//! request that references an already-uploaded graph never rehashes
//! gigabytes of GFA, and the two tiers agree on identity.
//!
//! The **disk tier** ([`TieredStore::with_disk`]) writes every value
//! through to `<dir>/<key-hex>.<ext>` (`.lay` layouts via `pgio`, `.lean`
//! graphs via `pangraph::store`) and reloads it on a memory miss.
//! Because keys are content-addressed and deterministic across
//! processes, a restarted server — or any sibling pointed at the same
//! directory — still hits on everything ever spilled there. Eviction
//! from memory never deletes the disk copy. The directory is bounded by
//! a byte cap and a TTL, both applied by one walk after each spill
//! ([`pangraph::store::evict_dir`]). The directory is the only record
//! of what is spilled: the tier scans it once when it opens and then
//! keeps the set of spilled keys in memory, so a definite miss never
//! touches the filesystem.
//!
//! Every store is used through one pair of functions, [`get`] and
//! [`put`]. Callers keep a store behind a mutex; decoding, encoding and
//! every file operation run outside it, so reloading a multi-gigabyte
//! spill never serializes other requests behind one file read.

use layout_core::LayoutConfig;
use pangraph::store::{
    content_hash_parts, evict_dir, lean_from_bytes, lean_to_bytes, write_atomic, ContentHash,
};
use pangraph::{Layout2D, LeanGraph};
use pgio::{read_lay, write_lay};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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
        pair_selection,
        init_jitter,
    } = cfg;
    // The fixed `block=256;…;simd=Auto;shard=Auto` text once named three
    // removed knobs (256 is `TERM_BLOCK`). Keeping the text keeps every
    // key, so a cache directory written before their removal still hits:
    // single-thread layouts are bit-identical, and Hogwild runs above
    // one thread were never bit-pinned.
    format!(
        "iter_max={iter_max};steps={steps_per_path_node};eps={eps};eta_max={eta_max:?};\
         cool={cooling_start};theta={zipf_theta};zmax={zipf_space_max};zq={zipf_quant};\
         threads={threads};seed={seed};layout={data_layout:?};prec={precision:?};\
         block=256;pairs={pair_selection:?};jitter={init_jitter};\
         simd=Auto;shard=Auto"
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

/// What differs between the values a [`TieredStore`] holds: the spill
/// format, the resident footprint and the listing metadata.
pub trait TierValue: Sized {
    /// Spill file extension (`<key-hex>.<EXT>`).
    const EXT: &'static str;
    /// Listing metadata the store keeps for every key it can produce.
    type Meta: Clone;
    /// The spill file's bytes.
    fn encode(&self) -> impl AsRef<[u8]>;
    /// Decode a spill file; corrupt bytes are an error, never a panic.
    fn decode(bytes: &[u8]) -> std::io::Result<Self>;
    /// Approximate resident payload bytes.
    fn footprint(&self) -> u64;
    /// Listing metadata for this value stored under `key`.
    fn meta(&self, key: ContentHash) -> Self::Meta;
}

/// Public description of one stored graph (`GET /v1/graphs`).
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

impl TierValue for LeanGraph {
    const EXT: &'static str = "lean";
    type Meta = GraphMeta;

    fn encode(&self) -> impl AsRef<[u8]> {
        lean_to_bytes(self)
    }

    fn decode(bytes: &[u8]) -> std::io::Result<Self> {
        lean_from_bytes(bytes)
    }

    fn footprint(&self) -> u64 {
        self.footprint_bytes()
    }

    fn meta(&self, id: ContentHash) -> GraphMeta {
        GraphMeta {
            id,
            nodes: self.node_count(),
            paths: self.path_count(),
            steps: self.total_steps(),
            bytes: self.footprint_bytes(),
            resident: true,
        }
    }
}

impl TierValue for Layout2D {
    const EXT: &'static str = "lay";
    type Meta = ();

    fn encode(&self) -> impl AsRef<[u8]> {
        write_lay(self)
    }

    fn decode(bytes: &[u8]) -> std::io::Result<Self> {
        read_lay(bytes).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    fn footprint(&self) -> u64 {
        self.node_count() as u64 * 32
    }

    fn meta(&self, _: ContentHash) {}
}

/// Monotonic counters of one tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups answered from the memory tier.
    pub hits: u64,
    /// Lookups answered by neither tier.
    pub misses: u64,
    /// Memory misses answered by the disk tier.
    pub disk_hits: u64,
    /// Values placed in the memory tier (including disk promotions).
    pub insertions: u64,
    /// Values evicted from the memory tier to respect its capacity.
    pub evictions: u64,
    /// Keys explicitly deleted.
    pub deletes: u64,
    /// Values spilled to the disk tier.
    pub disk_writes: u64,
    /// Disk-tier write failures, and reads that failed or did not
    /// decode (those also count as misses).
    pub disk_errors: u64,
    /// Spill files removed by the disk-tier byte cap.
    pub disk_cap_evictions: u64,
    /// Spill files removed because they outlived the disk-tier TTL.
    pub disk_ttl_evictions: u64,
}

/// The finished-layout cache, keyed by [`cache_key`].
pub type LayoutCache = TieredStore<Layout2D>;

/// The parsed-graph store, keyed by the content hash of the GFA bytes.
pub type GraphStore = TieredStore<LeanGraph>;

struct Entry<V> {
    value: Arc<V>,
    last_used: u64,
}

/// The disk tier: where spills live, what bounds them, and which keys
/// are spilled.
struct Disk {
    dir: PathBuf,
    /// Byte cap on the spill files (0 ⇒ unbounded).
    max_bytes: u64,
    /// Age cap on the spill files (zero ⇒ kept forever).
    ttl: Duration,
    /// Keys with a spill file, as far as this process knows.
    spills: HashSet<ContentHash>,
}

fn spill_path<V: TierValue>(dir: &Path, key: ContentHash) -> PathBuf {
    dir.join(format!("{}.{}", key.hex(), V::EXT))
}

/// Content-addressed LRU of `Arc<V>` over an optional disk tier, driven
/// through [`get`] and [`put`].
///
/// The memory tier holds up to `capacity` values: `None` is unbounded
/// and `Some(0)` turns it off, leaving a disk-only store. Recency is a
/// monotonic tick and eviction scans for the minimum, which is
/// O(entries) — fine for the capacities this service runs with. The
/// catalog keeps listing metadata for every key this process placed, for
/// as long as the store can still produce it: a key leaves the catalog
/// once it is neither resident nor spilled.
pub struct TieredStore<V: TierValue> {
    capacity: Option<usize>,
    tick: u64,
    resident: HashMap<ContentHash, Entry<V>>,
    catalog: HashMap<ContentHash, V::Meta>,
    stats: TierStats,
    disk: Option<Disk>,
}

impl<V: TierValue> TieredStore<V> {
    /// A memory-only store of up to `capacity` values.
    pub fn new(capacity: Option<usize>) -> Self {
        Self {
            capacity,
            tick: 0,
            resident: HashMap::new(),
            catalog: HashMap::new(),
            stats: TierStats::default(),
            disk: None,
        }
    }

    /// A store with a disk tier under `dir` (created if absent): every
    /// [`put`] spills to `<dir>/<key-hex>.<ext>`, then evicts the oldest
    /// spills beyond `max_bytes` (0 ⇒ unbounded) and spills older than
    /// `ttl` (zero ⇒ kept forever). The spills already in `dir` are
    /// found by one scan of it.
    pub fn with_disk(
        capacity: Option<usize>,
        dir: &Path,
        max_bytes: u64,
        ttl: Duration,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let spills = std::fs::read_dir(dir)?
            .filter_map(|e| {
                let path = e.ok()?.path();
                if path.extension()? != V::EXT {
                    return None;
                }
                ContentHash::from_hex(path.file_stem()?.to_str()?)
            })
            .collect();
        Ok(Self {
            disk: Some(Disk {
                dir: dir.to_path_buf(),
                max_bytes,
                ttl,
                spills,
            }),
            ..Self::new(capacity)
        })
    }

    /// Where `key`'s spill file lives, when a disk tier is configured.
    fn disk_path(&self, key: ContentHash) -> Option<PathBuf> {
        self.disk.as_ref().map(|d| spill_path::<V>(&d.dir, key))
    }

    /// Can the store produce `key`: resident, or spilled? No filesystem
    /// access.
    pub fn contains(&self, key: ContentHash) -> bool {
        self.resident.contains_key(&key) || self.spilled(key)
    }

    fn spilled(&self, key: ContentHash) -> bool {
        self.disk.as_ref().is_some_and(|d| d.spills.contains(&key))
    }

    /// Listing metadata for `key`, and whether it is resident.
    pub fn meta(&self, key: ContentHash) -> Option<(V::Meta, bool)> {
        let meta = self.catalog.get(&key)?.clone();
        Some((meta, self.resident.contains_key(&key)))
    }

    /// Every catalogued key's metadata and residency, ordered by key.
    pub fn list(&self) -> Vec<(V::Meta, bool)> {
        let mut keys: Vec<ContentHash> = self.catalog.keys().copied().collect();
        keys.sort();
        keys.into_iter().filter_map(|key| self.meta(key)).collect()
    }

    /// Delete `key` from every tier. Borrowers holding an `Arc` keep
    /// their data; only the store forgets it. Returns whether anything
    /// was removed.
    pub fn remove(&mut self, key: ContentHash) -> bool {
        let had_mem = self.resident.remove(&key).is_some();
        let had_meta = self.catalog.remove(&key).is_some();
        let had_disk = self
            .disk_path(key)
            .is_some_and(|path| std::fs::remove_file(path).is_ok());
        if let Some(d) = &mut self.disk {
            d.spills.remove(&key);
        }
        let removed = had_mem || had_meta || had_disk;
        if removed {
            self.stats.deletes += 1;
        }
        removed
    }

    /// Values resident in memory.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// `true` when the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Resident payload bytes.
    pub fn bytes(&self) -> u64 {
        self.resident.values().map(|e| e.value.footprint()).sum()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// Catalogue `key` and place it in the memory tier, evicting the
    /// least recently used values beyond the capacity.
    fn place(&mut self, key: ContentHash, value: Arc<V>) {
        self.catalog.insert(key, value.meta(key));
        if self.capacity != Some(0) {
            self.tick += 1;
            let last_used = self.tick;
            self.resident.insert(key, Entry { value, last_used });
            self.stats.insertions += 1;
            while self.capacity.is_some_and(|cap| self.resident.len() > cap) {
                if let Some(oldest) = self
                    .resident
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                {
                    self.resident.remove(&oldest);
                    self.stats.evictions += 1;
                    self.forget_if_unreachable(oldest);
                }
            }
        }
        self.forget_if_unreachable(key);
    }

    /// The spill files of `keys` are gone: drop them from the spilled
    /// set, and forget the keys the store can no longer produce.
    fn unspill(&mut self, keys: &[ContentHash]) {
        for &key in keys {
            if let Some(d) = &mut self.disk {
                d.spills.remove(&key);
            }
            self.forget_if_unreachable(key);
        }
    }

    fn forget_if_unreachable(&mut self, key: ContentHash) {
        if !self.contains(key) {
            self.catalog.remove(&key);
        }
    }
}

/// Two-tier lookup: the memory tier, then — outside the lock — the disk
/// tier, promoting a disk hit into memory. A spill that reads back
/// `ENOENT` (a sibling process evicted it) leaves the spilled set; one that
/// fails otherwise or does not decode is a counted disk error. Both are
/// misses, so the caller recomputes.
pub fn get<V: TierValue>(store: &Mutex<TieredStore<V>>, key: ContentHash) -> Option<Arc<V>> {
    let spill = {
        let mut guard = store.lock().unwrap();
        let s = &mut *guard;
        s.tick += 1;
        if let Some(entry) = s.resident.get_mut(&key) {
            entry.last_used = s.tick;
            s.stats.hits += 1;
            return Some(Arc::clone(&entry.value));
        }
        // A definite miss never touches the spill directory.
        if s.spilled(key) {
            s.disk_path(key)
        } else {
            None
        }
    };
    let loaded = spill.map(|path| std::fs::read(path).and_then(|bytes| V::decode(&bytes)));
    let mut s = store.lock().unwrap();
    match loaded {
        Some(Ok(value)) => {
            let value = Arc::new(value);
            s.stats.disk_hits += 1;
            s.place(key, Arc::clone(&value));
            return Some(value);
        }
        Some(Err(e)) if e.kind() == std::io::ErrorKind::NotFound => s.unspill(&[key]),
        Some(Err(_)) => s.stats.disk_errors += 1,
        None => {}
    }
    s.stats.misses += 1;
    None
}

/// Insert `value` under `key`: spill it and bound the disk tier outside
/// the lock, then place it in the memory tier.
pub fn put<V: TierValue>(store: &Mutex<TieredStore<V>>, key: ContentHash, value: &Arc<V>) {
    let disk = {
        let s = store.lock().unwrap();
        s.disk.as_ref().map(|d| (d.dir.clone(), d.max_bytes, d.ttl))
    };
    let spilled = disk.map(|(dir, max_bytes, ttl)| {
        let ok = write_atomic(&spill_path::<V>(&dir, key), value.encode().as_ref());
        (ok, evict_dir(&dir, max_bytes, ttl, V::EXT))
    });
    let mut s = store.lock().unwrap();
    if let Some((ok, evicted)) = spilled {
        if ok {
            s.stats.disk_writes += 1;
            if let Some(d) = &mut s.disk {
                d.spills.insert(key);
            }
        } else {
            s.stats.disk_errors += 1;
        }
        s.stats.disk_cap_evictions += evicted.capped.len() as u64;
        s.stats.disk_ttl_evictions += evicted.expired.len() as u64;
        s.unspill(&evicted.capped);
        s.unspill(&evicted.expired);
    }
    s.place(key, Arc::clone(value));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangraph::store::content_hash;
    use pangraph::{fig1_graph, parse_gfa, write_gfa};

    const TOY: &str = "S\t1\tAA\nS\t2\tT\nS\t3\tGC\nL\t1\t+\t2\t+\t0M\nP\tp\t1+,2+,3+\t*\n";
    const TOY2: &str = "S\ta\tACGT\nS\tb\tC\nL\ta\t+\tb\t+\t0M\nP\tq\ta+,b+\t*\n";

    fn layout(n: usize) -> Arc<Layout2D> {
        Arc::new(Layout2D::zeros(n))
    }

    fn lean(gfa: &str) -> Arc<LeanGraph> {
        Arc::new(LeanGraph::from_graph(&parse_gfa(gfa).unwrap()))
    }

    fn key(tag: &str) -> CacheKey {
        cache_key(
            "cpu",
            &LayoutConfig::default(),
            0,
            content_hash(tag.as_bytes()),
        )
    }

    fn memory(capacity: Option<usize>) -> Mutex<LayoutCache> {
        Mutex::new(TieredStore::new(capacity))
    }

    fn on_disk<V: TierValue>(
        capacity: Option<usize>,
        dir: &Path,
        max_bytes: u64,
    ) -> Mutex<TieredStore<V>> {
        Mutex::new(TieredStore::with_disk(capacity, dir, max_bytes, Duration::ZERO).unwrap())
    }

    fn stats<V: TierValue>(store: &Mutex<TieredStore<V>>) -> TierStats {
        store.lock().unwrap().stats()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pgl_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
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
    fn cache_keys_match_the_ones_existing_cache_dirs_were_written_with() {
        use layout_core::{DataLayout, Precision};
        let graph = content_hash(b"S\t1\t*\n");
        let default = cache_key("cpu", &LayoutConfig::default(), 1024, graph);
        assert_eq!(default.hex(), "b6550b1e8975a293910ef201d996db18");
        let cfg = LayoutConfig {
            threads: 2,
            precision: Precision::F32,
            data_layout: DataLayout::OriginalSoa,
            ..Default::default()
        };
        let tuned = cache_key("batch", &cfg, 512, graph);
        assert_eq!(tuned.hex(), "64a3e953c1618c09417aa19d2787959e");
    }

    #[test]
    fn get_hits_and_misses_are_counted() {
        let c = memory(Some(4));
        assert!(get(&c, key("a")).is_none());
        put(&c, key("a"), &layout(3));
        assert!(get(&c, key("a")).is_some());
        let s = stats(&c);
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(c.lock().unwrap().bytes(), 96);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let c = memory(Some(2));
        put(&c, key("a"), &layout(1));
        put(&c, key("b"), &layout(1));
        assert!(get(&c, key("a")).is_some()); // refresh a; b is now LRU
        put(&c, key("c"), &layout(1));
        assert_eq!(c.lock().unwrap().len(), 2);
        assert!(get(&c, key("b")).is_none(), "b was evicted");
        assert!(get(&c, key("a")).is_some());
        assert!(get(&c, key("c")).is_some());
        assert_eq!(stats(&c).evictions, 1);
    }

    #[test]
    fn lru_eviction_without_disk_is_final() {
        let c = memory(Some(1));
        put(&c, key("a"), &layout(1));
        put(&c, key("b"), &layout(1));
        assert!(get(&c, key("a")).is_none(), "evicted value is gone");
        let c = c.lock().unwrap();
        assert!(!c.contains(key("a")));
        assert_eq!(c.list().len(), 1, "catalog forgets unreachable keys");
    }

    #[test]
    fn unbounded_capacity_never_evicts() {
        let c = memory(None);
        for i in 0..20 {
            put(&c, key(&i.to_string()), &layout(1));
        }
        assert_eq!(c.lock().unwrap().len(), 20);
        assert_eq!(stats(&c).evictions, 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = memory(Some(0));
        put(&c, key("a"), &layout(1));
        assert!(c.lock().unwrap().is_empty());
        assert!(get(&c, key("a")).is_none());
    }

    #[test]
    fn disk_tier_survives_a_new_cache_instance() {
        let dir = tmp_dir("restart");
        {
            let c = on_disk(Some(4), &dir, 0);
            put(&c, key("a"), &layout(3));
            assert_eq!(stats(&c).disk_writes, 1);
            assert!(dir.join(format!("{}.lay", key("a").hex())).exists());
        }
        // A fresh instance (empty memory tier) still hits via disk.
        let c2 = on_disk::<Layout2D>(Some(4), &dir, 0);
        let hit = get(&c2, key("a")).expect("disk tier answers");
        assert_eq!(hit.node_count(), 3);
        let s = stats(&c2);
        assert_eq!((s.hits, s.disk_hits, s.misses), (0, 1, 0));
        // The promotion made it a memory entry: the next get is a memory hit.
        assert!(get(&c2, key("a")).is_some());
        assert_eq!(stats(&c2).hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evicted_entries_remain_reachable_through_disk() {
        let dir = tmp_dir("evict");
        let c = on_disk(Some(1), &dir, 0);
        put(&c, key("a"), &layout(2));
        put(&c, key("b"), &layout(2)); // evicts a from memory
        assert_eq!(stats(&c).evictions, 1);
        assert!(get(&c, key("a")).is_some(), "a comes back from disk");
        assert_eq!(stats(&c).disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contains_tracks_both_tiers() {
        let dir = tmp_dir("contains");
        let c = on_disk(Some(1), &dir, 0);
        put(&c, key("a"), &layout(1));
        put(&c, key("b"), &layout(1)); // evicts a from memory
        let mut c = c.lock().unwrap();
        assert!(c.contains(key("a")), "reachable through its disk spill");
        assert!(c.contains(key("b")));
        assert!(c.remove(key("a")));
        assert!(!c.contains(key("a")));
        assert!(!c.contains(key("never seen")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_deletes_every_tier_but_borrowers_keep_their_arc() {
        let dir = tmp_dir("remove");
        let c = on_disk(Some(4), &dir, 0);
        let borrowed = layout(3);
        put(&c, key("a"), &borrowed);
        let spill = c.lock().unwrap().disk_path(key("a")).unwrap();
        assert!(spill.exists());
        assert!(c.lock().unwrap().remove(key("a")));
        assert!(!spill.exists());
        assert!(get(&c, key("a")).is_none());
        assert!(c.lock().unwrap().meta(key("a")).is_none());
        assert!(
            !c.lock().unwrap().remove(key("a")),
            "second delete is a no-op"
        );
        assert_eq!(borrowed.node_count(), 3, "borrowed Arc still valid");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_reports_residency() {
        let dir = tmp_dir("list");
        let s = on_disk(Some(1), &dir, 0);
        let (a, b) = (content_hash(TOY.as_bytes()), content_hash(TOY2.as_bytes()));
        put(&s, a, &lean(TOY));
        put(&s, b, &lean(TOY2)); // evicts a from memory
        let listed = s.lock().unwrap().list();
        assert_eq!(listed.len(), 2);
        let find = |id| listed.iter().find(|(m, _)| m.id == id).unwrap();
        assert!(!find(a).1, "evicted to disk");
        assert!(find(b).1);
        assert_eq!(find(a).0.nodes, 3);
        assert_eq!(find(b).0.steps, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn graphs_written_via_write_gfa_round_trip_through_the_store() {
        let dir = tmp_dir("gfa");
        // Disk-only, so the get below decodes the `.lean` spill.
        let s = on_disk(Some(0), &dir, 0);
        let text = write_gfa(&fig1_graph());
        let id = content_hash(text.as_bytes());
        put(&s, id, &lean(&text));
        let g = get(&s, id).expect("decoded from the spill");
        assert_eq!(stats(&s).disk_hits, 1);
        let direct = LeanGraph::from_graph(&fig1_graph());
        assert_eq!(g.node_len, direct.node_len);
        assert_eq!(g.step_pos, direct.step_pos);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_capacity_with_disk_tier_is_a_disk_only_cache() {
        let dir = tmp_dir("diskonly");
        let c = on_disk(Some(0), &dir, 0);
        put(&c, key("a"), &layout(2));
        assert!(c.lock().unwrap().is_empty(), "memory tier stays disabled");
        assert_eq!(stats(&c).disk_writes, 1, "spill still written");
        // Every get is served from disk, never promoted.
        assert!(get(&c, key("a")).is_some());
        assert!(get(&c, key("a")).is_some());
        assert!(c.lock().unwrap().is_empty());
        let s = stats(&c);
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
        let c = on_disk::<Layout2D>(Some(4), &dir, 0);
        assert!(get(&c, key("a")).is_none());
        let s = stats(&c);
        assert_eq!((s.disk_errors, s.misses), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spills_beside_a_stale_index_log_are_found() {
        let dir = tmp_dir("stalelog");
        std::fs::create_dir_all(&dir).unwrap();
        // A header-only membership log, as older versions kept beside
        // their spills and trusted over the directory, so spill files
        // copied in next to it stayed invisible.
        std::fs::write(dir.join(".pgl-index-lay"), "pgl-disk-index/1 lay\n").unwrap();
        let keys = [key("a"), key("b"), key("c")];
        for (n, &k) in keys.iter().enumerate() {
            let bytes = write_lay(&Layout2D::zeros(n + 1));
            std::fs::write(spill_path::<Layout2D>(&dir, k), bytes).unwrap();
        }
        let c = on_disk::<Layout2D>(Some(4), &dir, 0);
        for (n, &k) in keys.iter().enumerate() {
            assert_eq!(get(&c, k).expect("spill found").node_count(), n + 1);
        }
        assert_eq!(stats(&c).disk_hits, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn definite_misses_never_touch_the_spill_directory() {
        let dir = tmp_dir("indexmiss");
        // Disk-only (capacity 0), so every get exercises the disk path.
        let c = on_disk(Some(0), &dir, 0);
        put(&c, key("a"), &layout(2));
        assert!(
            c.lock().unwrap().spilled(key("a")),
            "write indexed the spill"
        );
        assert!(
            !c.lock().unwrap().spilled(key("never")),
            "unknown key answered from the index, no filesystem probe"
        );
        // Remove the directory wholesale: lookups of unknown keys still
        // work (they never touch the filesystem), and the stale entry
        // self-heals on ENOENT when actually read.
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(get(&c, key("b")).is_none(), "miss with no directory at all");
        assert!(get(&c, key("a")).is_none(), "stale index entry misses");
        assert!(
            !c.lock().unwrap().spilled(key("a")),
            "ENOENT self-healed the index"
        );
        assert_eq!(stats(&c).disk_errors, 0, "ENOENT is not an error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_byte_cap_evicts_oldest_spills() {
        let dir = tmp_dir("cap");
        // Each 3-node spill is 16 + 32·3 = 112 bytes; cap at ~2 files.
        let c = on_disk(Some(8), &dir, 240);
        put(&c, key("a"), &layout(3));
        // Backdate a's spill so the eviction order is unambiguous.
        let old = std::time::SystemTime::now() - Duration::from_secs(600);
        let spill = |k| c.lock().unwrap().disk_path(k).unwrap();
        std::fs::File::options()
            .append(true)
            .open(spill(key("a")))
            .unwrap()
            .set_modified(old)
            .unwrap();
        put(&c, key("b"), &layout(3));
        assert_eq!(stats(&c).disk_cap_evictions, 0, "under the cap");
        put(&c, key("c"), &layout(3)); // 3 × 112 > 240 → oldest evicted
        assert!(stats(&c).disk_cap_evictions >= 1, "{:?}", stats(&c));
        assert!(!spill(key("a")).exists(), "oldest went");
        assert!(spill(key("c")).exists());
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
