//! Cross-point memoization for design-space sweeps.
//!
//! Most sweep axes leave whole stages of the estimation pipeline untouched:
//! a packaging sweep never changes the chiplet outlines, a volume or lifetime
//! sweep never changes manufacturing, a node sweep only perturbs the chiplets
//! it retargets. [`SweepContext`] caches the two expensive stage results —
//! floorplans (keyed by the full outline set) and per-die manufacturing CFP
//! (keyed by `(node, area)` plus the model parameters) — so points that share
//! a stage input share its result. The caches are guarded by mutexes, which
//! lets the [`SweepEngine`](crate::sweep::SweepEngine) share one context
//! across its worker threads.
//!
//! Because the cache stores the *exact* value the stage computed, memoized
//! runs are bit-for-bit identical to cold runs. The same exactness carries
//! across processes: [`SweepContext::save_to`] / [`SweepContext::load_from`]
//! persist the memo as versioned JSON keyed by a model fingerprint, and JSON
//! floats round-trip bit-for-bit (shortest-representation formatting), so a
//! restored memo serves the exact values the original run computed. A memo
//! whose format version or fingerprint does not match is *rejected* with a
//! typed error, never silently reused.
//!
//! # Bounded memos for service deployments
//!
//! A long-running service's key space grows without limit (every new outline
//! set and `(node, area)` pair adds an entry), so
//! [`SweepContext::with_capacity`] bounds each cache to a maximum entry
//! count with least-recently-used eviction: every hit refreshes an entry's
//! age stamp, and an insert into a full cache evicts the stalest entry
//! first. Eviction only discards work — results stay bit-for-bit identical,
//! evicted entries are simply recomputed on their next use — and the
//! [`SweepStats`] eviction counters make the churn observable.
//!
//! For incremental persistence, the context tracks how many entries were
//! inserted since the last save ([`SweepContext::dirty_entries`]);
//! [`SweepContext::save_to`] writes atomically (temp file + rename) so a
//! crash mid-save never corrupts the previous memo.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use ecochip_floorplan::{ChipletOutline, Floorplan, FloorplanConfig};
use ecochip_techdb::{Area, TechNode};

use crate::error::EcoChipError;
use crate::manufacturing::{ChipletManufacturing, ManufacturingModel};

/// Format version of the persisted memo JSON; bumped on breaking layout
/// changes so old files are rejected with [`EcoChipError::MemoFormat`].
pub const MEMO_FORMAT_VERSION: u32 = 1;

/// FNV-1a offset basis (the standard 64-bit parameters).
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a prime (the standard 64-bit parameters).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hasher for the memo caches.
///
/// Memo keys are a small fixed shape — a handful of packed `u64` bit
/// patterns plus short chiplet names — hashed on *every* estimator point,
/// so the default SipHash (keyed, HashDoS-resistant) pays for a robustness
/// the closed key space never needs. FNV-1a folds each input in one
/// xor-multiply instead. Word-sized writes fold the whole word at once
/// rather than byte-at-a-time: the hash never leaves the process (persisted
/// memos are sorted by [`Ord`], not hash order), so it only has to be fast
/// and well mixed, not match any external FNV digest.
#[derive(Debug, Clone, Copy)]
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut acc = self.0;
        for &byte in bytes {
            acc = (acc ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        self.0 = acc;
    }

    fn write_u8(&mut self, value: u8) {
        self.0 = (self.0 ^ u64::from(value)).wrapping_mul(FNV_PRIME);
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0 ^ value).wrapping_mul(FNV_PRIME);
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

/// A memo cache: a [`HashMap`] of [`Cached`] values under the packed-key
/// [`FnvHasher`] instead of the default SipHash.
type MemoMap<K, V> = HashMap<K, Cached<V>, BuildHasherDefault<FnvHasher>>;

/// Cache key for a floorplan: the floorplanner configuration plus the ordered
/// outline set (names, exact area bits, exact aspect-ratio bits).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
struct FloorplanKey {
    spacing_bits: u64,
    margin_bits: u64,
    outlines: Vec<(String, u64, u64)>,
}

impl FloorplanKey {
    fn new(config: &FloorplanConfig, outlines: &[ChipletOutline]) -> Self {
        Self {
            spacing_bits: config.chiplet_spacing.mm().to_bits(),
            margin_bits: config.edge_margin.mm().to_bits(),
            outlines: outlines
                .iter()
                .map(|o| {
                    (
                        o.name.clone(),
                        o.area.mm2().to_bits(),
                        o.aspect_ratio.to_bits(),
                    )
                })
                .collect(),
        }
    }
}

/// Cache key for a per-die manufacturing result: `(node, area)` plus the
/// model fingerprint of [`ManufacturingModel::memo_bits`] (node parameters,
/// wafer, fab energy source, wastage accounting).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
struct ManufacturingKey {
    node: TechNode,
    area_bits: u64,
    model_bits: u64,
}

/// On-disk layout of a persisted memo: format version, model fingerprint and
/// the two caches as flat entry lists (JSON objects cannot key on structs).
#[derive(Debug, Serialize, Deserialize)]
struct MemoFile {
    version: u32,
    fingerprint: u64,
    floorplans: Vec<(FloorplanKey, Floorplan)>,
    manufacturing: Vec<(ManufacturingKey, ChipletManufacturing)>,
}

/// A cached stage result plus the last-use age stamp LRU eviction keys on.
#[derive(Debug)]
struct Cached<V> {
    value: V,
    stamp: u64,
}

/// Hit/miss/eviction counters of a [`SweepContext`], for tests, benches,
/// service dashboards and tuning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Floorplans served from the cache.
    pub floorplan_hits: usize,
    /// Floorplans computed by the floorplanner.
    pub floorplan_misses: usize,
    /// Floorplans evicted to respect the capacity bound.
    pub floorplan_evictions: usize,
    /// Per-die manufacturing results served from the cache.
    pub manufacturing_hits: usize,
    /// Per-die manufacturing results computed by the model.
    pub manufacturing_misses: usize,
    /// Per-die manufacturing results evicted to respect the capacity bound.
    pub manufacturing_evictions: usize,
}

/// Shared memo for the cacheable estimator stages.
///
/// Create one per sweep with [`SweepContext::new`] (unbounded) or
/// [`SweepContext::with_capacity`] (bounded, LRU eviction) and pass it to
/// [`EcoChip::estimate_with`](crate::EcoChip::estimate_with); the plain
/// [`EcoChip::estimate`](crate::EcoChip::estimate) entry point uses a
/// [`SweepContext::disabled`] context and caches nothing.
#[derive(Debug, Default)]
pub struct SweepContext {
    enabled: bool,
    /// Maximum entries *per cache* (`None` = unbounded).
    capacity: Option<usize>,
    /// Floorplans sit behind a `Box`: a table keeps up to twice as many
    /// slots as entries, and an empty slot then costs a pointer rather than
    /// a whole floorplan.
    floorplans: Mutex<MemoMap<FloorplanKey, Box<Floorplan>>>,
    manufacturing: Mutex<MemoMap<ManufacturingKey, ChipletManufacturing>>,
    /// Monotonic age counter; every hit or insert stamps the entry touched.
    tick: AtomicU64,
    /// Entries inserted since the last successful [`SweepContext::save_to`].
    dirty: AtomicUsize,
    /// Serializes concurrent saves: two threads writing the same temp
    /// sibling would interleave bytes and rename a corrupt snapshot over
    /// the good memo.
    save_lock: Mutex<()>,
    floorplan_hits: AtomicUsize,
    floorplan_misses: AtomicUsize,
    floorplan_evictions: AtomicUsize,
    manufacturing_hits: AtomicUsize,
    manufacturing_misses: AtomicUsize,
    manufacturing_evictions: AtomicUsize,
}

impl SweepContext {
    /// A context that memoizes floorplan and manufacturing stage results,
    /// without any size bound.
    pub fn new() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// A memoizing context holding at most `max_entries` results *per
    /// cache* (floorplans and manufacturing results are bounded
    /// independently). When a cache is full, inserting a new entry evicts
    /// the least-recently-used one — results stay bit-for-bit identical,
    /// eviction only trades recomputation for memory. A capacity of zero
    /// caches nothing (every insert is dropped immediately).
    ///
    /// Eviction scans the full cache for the stalest stamp, an
    /// `O(max_entries)` walk under the cache mutex — but it only runs on a
    /// *miss* at capacity, which already paid for a floorplan or
    /// manufacturing computation that dwarfs the scan by orders of
    /// magnitude. Revisit with a stamp index if capacities ever reach the
    /// many-millions range.
    pub fn with_capacity(max_entries: usize) -> Self {
        Self {
            enabled: true,
            capacity: Some(max_entries),
            ..Self::default()
        }
    }

    /// A context that caches nothing (every stage recomputes).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether this context memoizes anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The per-cache entry bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Change the per-cache entry bound (`None` = unbounded), evicting the
    /// least-recently-used entries of any cache already above the new bound.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
        let Some(cap) = capacity else { return };
        Self::shrink_to(
            &mut self.floorplans.lock().expect("floorplan cache"),
            cap,
            &self.floorplan_evictions,
        );
        Self::shrink_to(
            &mut self.manufacturing.lock().expect("manufacturing cache"),
            cap,
            &self.manufacturing_evictions,
        );
    }

    /// Evict least-recently-used entries until `map` holds at most `cap`.
    fn shrink_to<K: Eq + Hash + Clone, V>(
        map: &mut MemoMap<K, V>,
        cap: usize,
        evictions: &AtomicUsize,
    ) {
        while map.len() > cap {
            let Some(stalest) = map
                .iter()
                .min_by_key(|(_, cached)| cached.stamp)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            map.remove(&stalest);
            evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Insert under the capacity bound: evict the least-recently-used entry
    /// first when the cache is full, and count the insert as dirty.
    fn insert_bounded<K: Eq + Hash + Clone, V>(
        &self,
        map: &mut MemoMap<K, V>,
        key: K,
        value: V,
        evictions: &AtomicUsize,
    ) {
        if let Some(cap) = self.capacity {
            if cap == 0 {
                // A zero-capacity cache stores nothing.
                evictions.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if map.len() >= cap && !map.contains_key(&key) {
                Self::shrink_to(map, cap - 1, evictions);
                if map.len() == map.capacity() {
                    // Evictions leave tombstones, and a table whose free
                    // slots are all tombstones doubles on the next insert
                    // (hashbrown rehashes in place only below half load).
                    // Rebuilding into the same allocation clears them, so
                    // a cache at its bound keeps the table its bound needs.
                    let entries: Vec<_> = map.drain().collect();
                    map.extend(entries);
                }
            }
        }
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
        map.insert(key, Cached { value, stamp });
        self.dirty.fetch_add(1, Ordering::Relaxed);
    }

    /// Merge another context's entries into this one, keeping existing
    /// entries (and their recency stamps) untouched. Returns how many
    /// `(floorplan, manufacturing)` imported entries are *retained* after
    /// the merge — on a capacity-bounded cache an import larger than the
    /// bound churns through eviction, so the count reflects what the cache
    /// actually holds, not how many inserts were attempted.
    ///
    /// This is the cross-server memo-sharing primitive: a warm peer's
    /// exported memo is absorbed into a cold worker without discarding
    /// whatever the worker already computed. Inserts respect the capacity
    /// bound (LRU eviction) and count as dirty, so autosave persists them.
    /// Absorbing entries never changes results — both sides computed them
    /// under the same model fingerprint, so the values are identical.
    pub fn absorb(&self, other: SweepContext) -> (usize, usize) {
        if !self.enabled {
            return (0, 0);
        }
        /// Merge `imported` into `map` under the capacity bound, returning
        /// how many imported keys survived the merge (later inserts may
        /// evict earlier ones on a bounded cache).
        fn merge<K: Eq + Hash + Clone, V>(
            context: &SweepContext,
            map: &mut MemoMap<K, V>,
            imported: MemoMap<K, V>,
            evictions: &AtomicUsize,
        ) -> usize {
            let mut inserted = Vec::new();
            for (key, cached) in imported {
                if map.contains_key(&key) {
                    continue;
                }
                context.insert_bounded(map, key.clone(), cached.value, evictions);
                inserted.push(key);
            }
            inserted.iter().filter(|key| map.contains_key(*key)).count()
        }
        let absorbed_floorplans = merge(
            self,
            &mut self.floorplans.lock().expect("floorplan cache"),
            other
                .floorplans
                .into_inner()
                .expect("absorbed floorplan cache"),
            &self.floorplan_evictions,
        );
        let absorbed_manufacturing = merge(
            self,
            &mut self.manufacturing.lock().expect("manufacturing cache"),
            other
                .manufacturing
                .into_inner()
                .expect("absorbed manufacturing cache"),
            &self.manufacturing_evictions,
        );
        (absorbed_floorplans, absorbed_manufacturing)
    }

    /// Number of floorplans currently memoized.
    pub fn floorplan_entries(&self) -> usize {
        self.floorplans.lock().expect("floorplan cache").len()
    }

    /// Number of per-die manufacturing results currently memoized.
    pub fn manufacturing_entries(&self) -> usize {
        self.manufacturing
            .lock()
            .expect("manufacturing cache")
            .len()
    }

    /// Number of entries inserted since the last successful
    /// [`SweepContext::save_to`] (or since creation). Incremental savers
    /// ([`EcoChipService::save_memo_every`](crate::EcoChipService::save_memo_every))
    /// persist the memo whenever this crosses their threshold.
    pub fn dirty_entries(&self) -> usize {
        self.dirty.load(Ordering::Relaxed)
    }

    /// Serialize the memo to versioned JSON, stamped with `fingerprint`
    /// (use [`EcoChip::memo_fingerprint`](crate::EcoChip::memo_fingerprint)
    /// for the estimator the memo was filled by).
    ///
    /// Entries are written in a deterministic (sorted-key) order so the same
    /// memo always produces the same bytes.
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError::MemoFormat`] if a cached value cannot be
    /// serialized (e.g. a non-finite float).
    pub fn to_json(&self, fingerprint: u64) -> Result<String, EcoChipError> {
        let mut floorplans: Vec<(FloorplanKey, Floorplan)> = self
            .floorplans
            .lock()
            .expect("floorplan cache")
            .iter()
            .map(|(k, cached)| (k.clone(), Floorplan::clone(&cached.value)))
            .collect();
        floorplans.sort_by(|a, b| a.0.cmp(&b.0));
        let mut manufacturing: Vec<(ManufacturingKey, ChipletManufacturing)> = self
            .manufacturing
            .lock()
            .expect("manufacturing cache")
            .iter()
            .map(|(k, cached)| (k.clone(), cached.value))
            .collect();
        manufacturing.sort_by(|a, b| a.0.cmp(&b.0));
        let file = MemoFile {
            version: MEMO_FORMAT_VERSION,
            fingerprint,
            floorplans,
            manufacturing,
        };
        serde_json::to_string(&file).map_err(|e| EcoChipError::MemoFormat(e.to_string()))
    }

    /// Reconstruct a memoizing context from [`SweepContext::to_json`]
    /// output, verifying the format version and the model fingerprint.
    ///
    /// The restored context is unbounded; apply a bound afterwards with
    /// [`SweepContext::set_capacity`].
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError::MemoFormat`] for malformed JSON or an
    /// incompatible format version, and [`EcoChipError::StaleMemo`] when the
    /// stored fingerprint differs from `fingerprint` — a memo produced under
    /// different model parameters must never be reused.
    pub fn from_json(json: &str, fingerprint: u64) -> Result<Self, EcoChipError> {
        let file: MemoFile =
            serde_json::from_str(json).map_err(|e| EcoChipError::MemoFormat(e.to_string()))?;
        if file.version != MEMO_FORMAT_VERSION {
            return Err(EcoChipError::MemoFormat(format!(
                "memo format version {} is not the supported version {MEMO_FORMAT_VERSION}",
                file.version
            )));
        }
        if file.fingerprint != fingerprint {
            return Err(EcoChipError::StaleMemo(format!(
                "memo fingerprint {:#018x} does not match the estimator's {:#018x}",
                file.fingerprint, fingerprint
            )));
        }
        let context = Self::new();
        {
            let mut floorplans = context.floorplans.lock().expect("floorplan cache");
            for (key, value) in file.floorplans {
                let stamp = context.tick.fetch_add(1, Ordering::Relaxed);
                floorplans.insert(
                    key,
                    Cached {
                        value: Box::new(value),
                        stamp,
                    },
                );
            }
        }
        {
            let mut manufacturing = context.manufacturing.lock().expect("manufacturing cache");
            for (key, value) in file.manufacturing {
                let stamp = context.tick.fetch_add(1, Ordering::Relaxed);
                manufacturing.insert(key, Cached { value, stamp });
            }
        }
        Ok(context)
    }

    /// Persist the memo to `path` as versioned, fingerprinted JSON.
    ///
    /// The write is atomic — the JSON goes to a temporary sibling file
    /// which is then renamed over `path`, and concurrent saves are
    /// serialized behind an internal lock — so a crash mid-save (or a
    /// racing saver) leaves the previous memo intact instead of a
    /// truncated or interleaved file. A successful save subtracts the
    /// snapshot's share from [`SweepContext::dirty_entries`]; entries
    /// inserted by other threads *during* the save stay counted as dirty.
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError::Io`] when the file cannot be written and
    /// [`EcoChipError::MemoFormat`] when serialization fails.
    pub fn save_to(&self, path: &Path, fingerprint: u64) -> Result<(), EcoChipError> {
        let _guard = self.save_lock.lock().expect("memo save lock");
        // Snapshot the dirty share this save covers *before* serializing:
        // inserts racing with the save may or may not make the snapshot,
        // and keeping them dirty at worst re-saves them (safe), while
        // clearing them could lose them until the next threshold (unsafe).
        let covered = self.dirty.load(Ordering::Relaxed);
        let json = self.to_json(fingerprint)?;
        let tmp = Self::temp_sibling(path)?;
        std::fs::write(&tmp, &json)
            .map_err(|e| EcoChipError::Io(format!("writing memo {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            // Clean up the orphaned temp file; the rename error is what matters.
            let _ = std::fs::remove_file(&tmp);
            EcoChipError::Io(format!("renaming memo into {}: {e}", path.display()))
        })?;
        self.dirty.fetch_sub(covered, Ordering::Relaxed);
        Ok(())
    }

    /// The temporary sibling `save_to` stages its atomic write in. The name
    /// is unique per writer (pid + counter): the internal lock serializes
    /// saves within one process, but separate *processes* sharing a memo
    /// file (the documented multi-shard workflow) must never stage into the
    /// same temp path, or interleaved writes could publish a corrupt
    /// snapshot.
    fn temp_sibling(path: &Path) -> Result<PathBuf, EcoChipError> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let Some(name) = path.file_name() else {
            return Err(EcoChipError::Io(format!(
                "memo path {} has no file name",
                path.display()
            )));
        };
        let mut tmp_name = name.to_os_string();
        tmp_name.push(format!(
            ".{}.{}.tmp",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        Ok(path.with_file_name(tmp_name))
    }

    /// Load a memo persisted by [`SweepContext::save_to`], verifying the
    /// format version and the model fingerprint.
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError::Io`] when the file cannot be read,
    /// [`EcoChipError::MemoFormat`] for malformed or incompatible files and
    /// [`EcoChipError::StaleMemo`] for fingerprint mismatches.
    pub fn load_from(path: &Path, fingerprint: u64) -> Result<Self, EcoChipError> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| EcoChipError::Io(format!("reading memo {}: {e}", path.display())))?;
        Self::from_json(&json, fingerprint)
    }

    /// A snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> SweepStats {
        SweepStats {
            floorplan_hits: self.floorplan_hits.load(Ordering::Relaxed),
            floorplan_misses: self.floorplan_misses.load(Ordering::Relaxed),
            floorplan_evictions: self.floorplan_evictions.load(Ordering::Relaxed),
            manufacturing_hits: self.manufacturing_hits.load(Ordering::Relaxed),
            manufacturing_misses: self.manufacturing_misses.load(Ordering::Relaxed),
            manufacturing_evictions: self.manufacturing_evictions.load(Ordering::Relaxed),
        }
    }

    /// Floorplan `outlines` under `config`, reusing a cached result when the
    /// same outline set was already planned.
    pub(crate) fn floorplan<F>(
        &self,
        config: &FloorplanConfig,
        outlines: &[ChipletOutline],
        compute: F,
    ) -> Result<Floorplan, EcoChipError>
    where
        F: FnOnce() -> Result<Floorplan, EcoChipError>,
    {
        if !self.enabled {
            return compute();
        }
        let key = FloorplanKey::new(config, outlines);
        if let Some(cached) = self
            .floorplans
            .lock()
            .expect("floorplan cache")
            .get_mut(&key)
        {
            cached.stamp = self.tick.fetch_add(1, Ordering::Relaxed);
            self.floorplan_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Floorplan::clone(&cached.value));
        }
        // Computed outside the lock so other workers make progress; a rare
        // duplicate computation of the same key is benign (same value).
        let plan = compute()?;
        self.floorplan_misses.fetch_add(1, Ordering::Relaxed);
        self.insert_bounded(
            &mut self.floorplans.lock().expect("floorplan cache"),
            key,
            Box::new(plan.clone()),
            &self.floorplan_evictions,
        );
        Ok(plan)
    }

    /// Manufacturing CFP of one die, reusing a cached result when the same
    /// `(node, area)` was already evaluated under an identical model.
    pub(crate) fn manufacturing(
        &self,
        model: &ManufacturingModel<'_>,
        area: Area,
        node: TechNode,
    ) -> Result<ChipletManufacturing, EcoChipError> {
        if !self.enabled {
            return model.chiplet_cfp(area, node);
        }
        let key = ManufacturingKey {
            node,
            area_bits: area.mm2().to_bits(),
            model_bits: model.memo_bits(node)?,
        };
        if let Some(cached) = self
            .manufacturing
            .lock()
            .expect("manufacturing cache")
            .get_mut(&key)
        {
            cached.stamp = self.tick.fetch_add(1, Ordering::Relaxed);
            self.manufacturing_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(cached.value);
        }
        let result = model.chiplet_cfp(area, node)?;
        self.manufacturing_misses.fetch_add(1, Ordering::Relaxed);
        self.insert_bounded(
            &mut self.manufacturing.lock().expect("manufacturing cache"),
            key,
            result,
            &self.manufacturing_evictions,
        );
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecochip_techdb::{EnergySource, TechDb};
    use ecochip_yield::Wafer;

    #[test]
    fn fnv_hasher_matches_the_reference_byte_vectors() {
        // Byte-stream writes follow the published 64-bit FNV-1a vectors;
        // word writes fold whole words and intentionally diverge.
        let digest = |bytes: &[u8]| {
            let mut hasher = FnvHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_eq!(digest(b""), 0xcbf29ce484222325);
        assert_eq!(digest(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(digest(b"foobar"), 0x85944171f73967e8);
        // A packed u64 write mixes the whole word in one fold.
        let mut packed = FnvHasher::default();
        packed.write_u64(0xdead_beef_0bad_f00d);
        assert_eq!(
            packed.finish(),
            (FNV_OFFSET ^ 0xdead_beef_0bad_f00d).wrapping_mul(FNV_PRIME)
        );
        // Different keys disperse; equal keys agree (HashMap's contract).
        let mut other = FnvHasher::default();
        other.write_u64(0xdead_beef_0bad_f00e);
        assert_ne!(packed.finish(), other.finish());
    }

    #[test]
    fn disabled_context_never_caches() {
        let db = TechDb::default();
        let model = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        let ctx = SweepContext::disabled();
        assert!(!ctx.is_enabled());
        for _ in 0..3 {
            ctx.manufacturing(&model, Area::from_mm2(100.0), TechNode::N7)
                .unwrap();
        }
        assert_eq!(ctx.stats(), SweepStats::default());
    }

    #[test]
    fn manufacturing_cache_hits_on_repeated_inputs() {
        let db = TechDb::default();
        let model = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        let ctx = SweepContext::new();
        let area = Area::from_mm2(123.0);
        let first = ctx.manufacturing(&model, area, TechNode::N7).unwrap();
        let second = ctx.manufacturing(&model, area, TechNode::N7).unwrap();
        assert_eq!(first, second);
        let stats = ctx.stats();
        assert_eq!(stats.manufacturing_misses, 1);
        assert_eq!(stats.manufacturing_hits, 1);
        // A different node misses again.
        ctx.manufacturing(&model, area, TechNode::N14).unwrap();
        assert_eq!(ctx.stats().manufacturing_misses, 2);
    }

    #[test]
    fn manufacturing_cache_distinguishes_model_parameters() {
        let db = TechDb::default();
        let coal = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        let wind = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Wind);
        let no_wastage = coal.without_wastage();
        let ctx = SweepContext::new();
        let area = Area::from_mm2(100.0);
        let a = ctx.manufacturing(&coal, area, TechNode::N7).unwrap();
        let b = ctx.manufacturing(&wind, area, TechNode::N7).unwrap();
        let c = ctx.manufacturing(&no_wastage, area, TechNode::N7).unwrap();
        assert_eq!(ctx.stats().manufacturing_misses, 3);
        assert!(b.total().kg() < a.total().kg());
        assert_eq!(c.wastage_cfp.kg(), 0.0);
    }

    #[test]
    fn manufacturing_cache_distinguishes_techdbs() {
        // A context shared across estimators with different technology
        // databases must never serve one database's result for the other.
        let default_db = TechDb::default();
        let tweaked = default_db
            .node(TechNode::N7)
            .unwrap()
            .to_builder()
            .defect_density(0.29)
            .build()
            .unwrap();
        let dirty = default_db.to_builder().insert(tweaked).build();
        let a = ManufacturingModel::new(&default_db, Wafer::standard_450mm(), EnergySource::Coal);
        let b = ManufacturingModel::new(&dirty, Wafer::standard_450mm(), EnergySource::Coal);
        let ctx = SweepContext::new();
        let area = Area::from_mm2(300.0);
        let from_a = ctx.manufacturing(&a, area, TechNode::N7).unwrap();
        let from_b = ctx.manufacturing(&b, area, TechNode::N7).unwrap();
        assert_eq!(ctx.stats().manufacturing_misses, 2);
        assert_eq!(ctx.stats().manufacturing_hits, 0);
        assert!(from_b.total().kg() > from_a.total().kg());
        assert_eq!(from_a, a.chiplet_cfp(area, TechNode::N7).unwrap());
        assert_eq!(from_b, b.chiplet_cfp(area, TechNode::N7).unwrap());
    }

    fn filled_context() -> SweepContext {
        use ecochip_floorplan::SlicingFloorplanner;
        let db = TechDb::default();
        let model = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        let ctx = SweepContext::new();
        ctx.manufacturing(&model, Area::from_mm2(123.0), TechNode::N7)
            .unwrap();
        ctx.manufacturing(&model, Area::from_mm2(45.0), TechNode::N14)
            .unwrap();
        let config = FloorplanConfig::default();
        let outlines = vec![
            ChipletOutline::new("a", Area::from_mm2(100.0)),
            ChipletOutline::new("b", Area::from_mm2(50.0)),
        ];
        ctx.floorplan(&config, &outlines, || {
            SlicingFloorplanner::new(config)
                .floorplan(&outlines)
                .map_err(EcoChipError::from)
        })
        .unwrap();
        ctx
    }

    #[test]
    fn memo_json_roundtrip_restores_every_entry() {
        let ctx = filled_context();
        assert_eq!(ctx.manufacturing_entries(), 2);
        assert_eq!(ctx.floorplan_entries(), 1);
        let json = ctx.to_json(0xfeed).unwrap();
        let restored = SweepContext::from_json(&json, 0xfeed).unwrap();
        assert!(restored.is_enabled());
        assert_eq!(restored.manufacturing_entries(), 2);
        assert_eq!(restored.floorplan_entries(), 1);
        // Restored entries hit, and serve the exact cached values.
        let db = TechDb::default();
        let model = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        let original = ctx
            .manufacturing(&model, Area::from_mm2(123.0), TechNode::N7)
            .unwrap();
        let served = restored
            .manufacturing(&model, Area::from_mm2(123.0), TechNode::N7)
            .unwrap();
        assert_eq!(restored.stats().manufacturing_hits, 1);
        assert_eq!(restored.stats().manufacturing_misses, 0);
        assert_eq!(
            original.total().kg().to_bits(),
            served.total().kg().to_bits()
        );
        // Saving the restored context reproduces the same bytes.
        assert_eq!(restored.to_json(0xfeed).unwrap(), json);
    }

    #[test]
    fn memo_with_wrong_fingerprint_or_version_is_rejected() {
        let ctx = filled_context();
        let json = ctx.to_json(1).unwrap();
        assert!(matches!(
            SweepContext::from_json(&json, 2),
            Err(EcoChipError::StaleMemo(_))
        ));
        let future = json.replacen(
            &format!("\"version\":{MEMO_FORMAT_VERSION}"),
            "\"version\":99",
            1,
        );
        assert_ne!(future, json, "version field not found in memo JSON");
        assert!(matches!(
            SweepContext::from_json(&future, 1),
            Err(EcoChipError::MemoFormat(_))
        ));
        assert!(matches!(
            SweepContext::from_json("not json", 1),
            Err(EcoChipError::MemoFormat(_))
        ));
    }

    #[test]
    fn memo_file_save_and_load() {
        let ctx = filled_context();
        let path =
            std::env::temp_dir().join(format!("ecochip-memo-unit-{}.json", std::process::id()));
        ctx.save_to(&path, 7).unwrap();
        let restored = SweepContext::load_from(&path, 7).unwrap();
        assert_eq!(restored.floorplan_entries(), ctx.floorplan_entries());
        assert!(matches!(
            SweepContext::load_from(&path, 8),
            Err(EcoChipError::StaleMemo(_))
        ));
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            SweepContext::load_from(&path, 7),
            Err(EcoChipError::Io(_))
        ));
    }

    #[test]
    fn save_is_atomic_and_resets_the_dirty_counter() {
        let ctx = filled_context();
        assert_eq!(ctx.dirty_entries(), 3);
        let path =
            std::env::temp_dir().join(format!("ecochip-memo-atomic-{}.json", std::process::id()));
        ctx.save_to(&path, 7).unwrap();
        assert_eq!(ctx.dirty_entries(), 0);
        // No temp sibling (`<name>.<pid>.<n>.tmp`) is left behind.
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(Result::ok)
            .map(|entry| entry.file_name().to_string_lossy().into_owned())
            .filter(|file| file.starts_with(&name) && file.ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        // New inserts dirty the context again.
        let db = TechDb::default();
        let model = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        ctx.manufacturing(&model, Area::from_mm2(999.0), TechNode::N7)
            .unwrap();
        assert_eq!(ctx.dirty_entries(), 1);
        // A save into a directory that does not exist fails with Io and
        // leaves no temp file where the memo should go.
        let bad = std::env::temp_dir().join("ecochip-definitely-missing-dir/memo.json");
        assert!(matches!(ctx.save_to(&bad, 7), Err(EcoChipError::Io(_))));
        std::fs::remove_file(&path).unwrap();
        // A path with no file name is rejected.
        assert!(matches!(
            ctx.save_to(Path::new("/"), 7),
            Err(EcoChipError::Io(_))
        ));
    }

    #[test]
    fn concurrent_saves_never_corrupt_the_memo() {
        let ctx = filled_context();
        let path = std::env::temp_dir().join(format!(
            "ecochip-memo-concurrent-{}.json",
            std::process::id()
        ));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..5 {
                        ctx.save_to(&path, 7).unwrap();
                    }
                });
            }
        });
        // Whatever interleaving happened, the final file is a valid,
        // complete snapshot.
        let restored = SweepContext::load_from(&path, 7).unwrap();
        assert_eq!(restored.floorplan_entries(), ctx.floorplan_entries());
        assert_eq!(
            restored.manufacturing_entries(),
            ctx.manufacturing_entries()
        );
        assert_eq!(ctx.dirty_entries(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let db = TechDb::default();
        let model = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        let ctx = SweepContext::with_capacity(2);
        assert_eq!(ctx.capacity(), Some(2));
        let a = Area::from_mm2(10.0);
        let b = Area::from_mm2(20.0);
        let c = Area::from_mm2(30.0);
        ctx.manufacturing(&model, a, TechNode::N7).unwrap();
        ctx.manufacturing(&model, b, TechNode::N7).unwrap();
        // Touch `a` so `b` is the least recently used.
        ctx.manufacturing(&model, a, TechNode::N7).unwrap();
        // Inserting `c` into the full cache evicts `b`.
        ctx.manufacturing(&model, c, TechNode::N7).unwrap();
        assert_eq!(ctx.manufacturing_entries(), 2);
        assert_eq!(ctx.stats().manufacturing_evictions, 1);
        // `a` and `c` still hit; `b` was evicted and misses again.
        let hits_before = ctx.stats().manufacturing_hits;
        ctx.manufacturing(&model, a, TechNode::N7).unwrap();
        ctx.manufacturing(&model, c, TechNode::N7).unwrap();
        assert_eq!(ctx.stats().manufacturing_hits, hits_before + 2);
        let misses_before = ctx.stats().manufacturing_misses;
        ctx.manufacturing(&model, b, TechNode::N7).unwrap();
        assert_eq!(ctx.stats().manufacturing_misses, misses_before + 1);
        // Eviction never changes values, only recomputes them.
        let bounded = ctx.manufacturing(&model, b, TechNode::N7).unwrap();
        let unbounded = SweepContext::new()
            .manufacturing(&model, b, TechNode::N7)
            .unwrap();
        assert_eq!(
            bounded.total().kg().to_bits(),
            unbounded.total().kg().to_bits()
        );
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let db = TechDb::default();
        let model = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        let ctx = SweepContext::with_capacity(0);
        for _ in 0..3 {
            ctx.manufacturing(&model, Area::from_mm2(50.0), TechNode::N7)
                .unwrap();
        }
        assert_eq!(ctx.manufacturing_entries(), 0);
        assert_eq!(ctx.stats().manufacturing_hits, 0);
        assert_eq!(ctx.stats().manufacturing_misses, 3);
        assert_eq!(ctx.stats().manufacturing_evictions, 3);
    }

    #[test]
    fn a_cache_at_its_bound_keeps_its_table_under_eviction_churn() {
        let ctx = SweepContext::with_capacity(1000);
        let evictions = AtomicUsize::new(0);
        let mut map: MemoMap<u64, ()> = MemoMap::default();
        let mut state = 0u64;
        let mut next_key = || {
            // splitmix64: well-spread keys, like real memo keys.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..1000 {
            ctx.insert_bounded(&mut map, next_key(), (), &evictions);
        }
        let full = map.capacity();
        // Each LRU eviction frees a slot or leaves a tombstone; the table
        // must clear tombstones rather than double to make room for them.
        for step in 0..30_000 {
            ctx.insert_bounded(&mut map, next_key(), (), &evictions);
            assert!(
                map.capacity() <= full,
                "step {step}: the table grew from {full} to {}",
                map.capacity()
            );
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(evictions.load(Ordering::Relaxed), 30_000);
    }

    #[test]
    fn set_capacity_shrinks_existing_caches() {
        let db = TechDb::default();
        let model = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        let mut ctx = SweepContext::new();
        for mm2 in [10.0, 20.0, 30.0, 40.0] {
            ctx.manufacturing(&model, Area::from_mm2(mm2), TechNode::N7)
                .unwrap();
        }
        assert_eq!(ctx.manufacturing_entries(), 4);
        ctx.set_capacity(Some(2));
        assert_eq!(ctx.manufacturing_entries(), 2);
        assert_eq!(ctx.stats().manufacturing_evictions, 2);
        // The survivors are the two most recently inserted areas.
        let hits_before = ctx.stats().manufacturing_hits;
        ctx.manufacturing(&model, Area::from_mm2(30.0), TechNode::N7)
            .unwrap();
        ctx.manufacturing(&model, Area::from_mm2(40.0), TechNode::N7)
            .unwrap();
        assert_eq!(ctx.stats().manufacturing_hits, hits_before + 2);
        // Lifting the bound keeps everything.
        ctx.set_capacity(None);
        assert_eq!(ctx.capacity(), None);
    }

    #[test]
    fn absorb_merges_only_missing_entries() {
        let db = TechDb::default();
        let model = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        let warm = filled_context();
        let warm_entries = warm.manufacturing_entries();

        // A cold context absorbs everything, and the absorbed entries hit.
        let cold = SweepContext::new();
        let (floorplans, manufacturing) =
            cold.absorb(SweepContext::from_json(&warm.to_json(1).unwrap(), 1).unwrap());
        assert_eq!(floorplans, 1);
        assert_eq!(manufacturing, warm_entries);
        cold.manufacturing(&model, Area::from_mm2(123.0), TechNode::N7)
            .unwrap();
        assert_eq!(cold.stats().manufacturing_hits, 1);
        assert_eq!(cold.stats().manufacturing_misses, 0);
        // Absorbed entries count as dirty so autosave persists them.
        assert_eq!(cold.dirty_entries(), 1 + warm_entries);

        // A context that already holds an entry keeps it and absorbs only
        // the rest.
        let partial = SweepContext::new();
        partial
            .manufacturing(&model, Area::from_mm2(123.0), TechNode::N7)
            .unwrap();
        let (_, absorbed) = partial.absorb(filled_context());
        assert_eq!(absorbed, warm_entries - 1);
        assert_eq!(partial.manufacturing_entries(), warm_entries);

        // Absorbing into a bounded cache respects the bound, and the count
        // reports only the entries *retained* (an import larger than the
        // bound churns through eviction; claiming more would overstate
        // what the cache holds).
        let bounded = SweepContext::with_capacity(1);
        let (_, absorbed) = bounded.absorb(filled_context());
        assert_eq!(absorbed, 1, "two imports into a 1-bounded cache retain 1");
        assert_eq!(bounded.manufacturing_entries(), 1);
        let none = SweepContext::with_capacity(0);
        assert_eq!(none.absorb(filled_context()), (0, 0));
        let disabled = SweepContext::disabled();
        assert_eq!(disabled.absorb(filled_context()), (0, 0));
    }

    #[test]
    fn floorplan_cache_keys_on_outline_set() {
        use ecochip_floorplan::SlicingFloorplanner;
        let config = FloorplanConfig::default();
        let outlines = vec![
            ChipletOutline::new("a", Area::from_mm2(100.0)),
            ChipletOutline::new("b", Area::from_mm2(50.0)),
        ];
        let ctx = SweepContext::new();
        let compute = || {
            SlicingFloorplanner::new(config)
                .floorplan(&outlines)
                .map_err(EcoChipError::from)
        };
        let first = ctx.floorplan(&config, &outlines, compute).unwrap();
        let second = ctx.floorplan(&config, &outlines, compute).unwrap();
        assert_eq!(first, second);
        assert_eq!(ctx.stats().floorplan_hits, 1);
        assert_eq!(ctx.stats().floorplan_misses, 1);
        // A different outline set misses.
        let other = vec![ChipletOutline::new("a", Area::from_mm2(101.0))];
        ctx.floorplan(&config, &other, || {
            SlicingFloorplanner::new(config)
                .floorplan(&other)
                .map_err(EcoChipError::from)
        })
        .unwrap();
        assert_eq!(ctx.stats().floorplan_misses, 2);
    }
}
