//! The bucketed LSM-tree used for primary indexes (Section IV).
//!
//! Each extendible-hashing bucket is stored as a separate LSM-tree (storage
//! Option 3 of the paper): moving a bucket during a rebalance only touches
//! that bucket's components, and splitting/dropping buckets is cheap. The
//! buckets of a partition are coordinated by a [`LocalDirectory`].
//!
//! The type also implements the destination-side machinery of the rebalance
//! data-movement phase: *pending* (received) buckets hold bulk-loaded
//! components plus replicated concurrent writes and stay invisible to
//! queries until the rebalance commits.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::bucket::{hash_key, BucketId};
use crate::component::{Component, ComponentSource};
use crate::directory::LocalDirectory;
use crate::entry::{Entry, Key, Op, Value};
use crate::iterator::kmerge_disjoint;
use crate::metrics::StorageMetrics;
use crate::tree::{LsmConfig, LsmTree};
use crate::{Result, StorageError};

/// Configuration of a bucketed LSM-tree.
#[derive(Clone, Debug)]
pub struct BucketedConfig {
    /// Per-bucket LSM configuration.
    pub lsm: LsmConfig,
    /// Maximum bucket size in bytes before the bucket is split (DynaHash).
    /// `None` disables dynamic splitting (StaticHash behaviour).
    pub max_bucket_size_bytes: Option<usize>,
    /// Hard cap on bucket depth.
    pub max_depth: u8,
}

impl Default for BucketedConfig {
    fn default() -> Self {
        BucketedConfig {
            lsm: LsmConfig::default(),
            max_bucket_size_bytes: None,
            max_depth: 20,
        }
    }
}

/// How a primary-key range scan over all buckets should be executed
/// (Section IV, "Data Ingestion and Query Processing").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanOrder {
    /// Scan each bucket separately; results are not globally key-ordered.
    /// This is the default because it avoids the merge-sort overhead.
    Unordered,
    /// Merge-sort the per-bucket results with a priority queue so the output
    /// is ordered by primary key (needed when a downstream operator requires
    /// primary-key order, e.g. TPC-H q18's group-by on a key prefix).
    Ordered,
}

/// A primary index whose buckets are separate LSM-trees.
#[derive(Debug)]
pub struct BucketedLsmTree {
    config: BucketedConfig,
    directory: LocalDirectory,
    buckets: BTreeMap<BucketId, LsmTree>,
    /// Received buckets (rebalance destination), invisible to queries.
    pending: BTreeMap<BucketId, LsmTree>,
    metrics: Arc<StorageMetrics>,
    splits_enabled: bool,
}

impl BucketedLsmTree {
    /// Creates a bucketed tree owning the given initial buckets.
    pub fn new(
        config: BucketedConfig,
        initial_buckets: impl IntoIterator<Item = BucketId>,
        metrics: Arc<StorageMetrics>,
    ) -> Self {
        let mut directory = LocalDirectory::new();
        let mut buckets = BTreeMap::new();
        for b in initial_buckets {
            // dhlint: allow(panic) — constructor contract: initial buckets are disjoint
            directory.add(b).expect("initial buckets must not overlap");
            buckets.insert(b, LsmTree::new(config.lsm.clone(), Arc::clone(&metrics)));
        }
        BucketedLsmTree {
            config,
            directory,
            buckets,
            pending: BTreeMap::new(),
            metrics,
            splits_enabled: true,
        }
    }

    /// The shared metrics instance.
    pub fn metrics(&self) -> &Arc<StorageMetrics> {
        &self.metrics
    }

    /// The local directory of owned buckets.
    pub fn directory(&self) -> &LocalDirectory {
        &self.directory
    }

    /// The configuration.
    pub fn config(&self) -> &BucketedConfig {
        &self.config
    }

    /// Buckets owned by this partition (visible to queries).
    pub fn bucket_ids(&self) -> Vec<BucketId> {
        self.directory.buckets().collect()
    }

    /// Number of visible buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Pending (received but not yet installed) bucket ids.
    pub fn pending_bucket_ids(&self) -> Vec<BucketId> {
        self.pending.keys().copied().collect()
    }

    // ----------------------------------------------------------------- writes

    /// Routes a write to the bucket owning the key. Errors if this partition
    /// does not own a bucket for the key (a routing bug upstream).
    pub fn insert(&mut self, key: impl Into<Key>, value: impl Into<Value>) -> Result<()> {
        self.apply(Entry::put(key, value))
    }

    /// Deletes a key.
    pub fn delete(&mut self, key: impl Into<Key>) -> Result<()> {
        self.apply(Entry::delete(key))
    }

    /// Applies an entry to the owning bucket and splits the bucket afterwards
    /// if it exceeded its maximum size.
    pub fn apply(&mut self, entry: Entry) -> Result<()> {
        let bucket = self
            .directory
            .lookup_key(&entry.key)
            .ok_or_else(|| StorageError::UnknownBucket(BucketId::of_key(&entry.key, 0)))?;
        self.buckets
            .get_mut(&bucket)
            .ok_or(StorageError::UnknownBucket(bucket))?
            .apply(entry);
        self.maybe_split(bucket)?;
        Ok(())
    }

    // ------------------------------------------------------------------ reads

    /// Point lookup: only the target bucket (located via the local directory)
    /// is searched.
    pub fn get(&self, key: &Key) -> Option<Value> {
        let bucket = self.directory.lookup_key(key)?;
        self.buckets.get(&bucket)?.get(key)
    }

    /// Full scan of all buckets.
    ///
    /// * [`ScanOrder::Unordered`] concatenates per-bucket scans (each bucket
    ///   internally ordered).
    /// * [`ScanOrder::Ordered`] merge-sorts the per-bucket results.
    pub fn scan(&self, order: ScanOrder) -> Vec<Entry> {
        self.scan_range(None, None, order)
    }

    /// Range scan over `[lo, hi)` with the requested output order. The
    /// ordered path is a k-way merge over the buckets' lazy component
    /// iterators (bucket key sets are disjoint), so the globally ordered
    /// output is materialised exactly once instead of collecting a
    /// `Vec<Entry>` per bucket and merging the copies.
    pub fn scan_range(&self, lo: Option<&Key>, hi: Option<&Key>, order: ScanOrder) -> Vec<Entry> {
        match order {
            ScanOrder::Unordered => {
                let mut out = Vec::new();
                for tree in self.buckets.values() {
                    out.extend(tree.scan(lo, hi));
                }
                out
            }
            ScanOrder::Ordered => {
                let iters: Vec<_> = self.buckets.values().map(|t| t.iter_live(lo, hi)).collect();
                let out = kmerge_disjoint(iters);
                let bytes: usize = out.iter().map(|e| e.size_bytes()).sum();
                StorageMetrics::add(&self.metrics.bytes_query_read, bytes as u64);
                out
            }
        }
    }

    /// Total number of live records across all visible buckets.
    pub fn live_len(&self) -> usize {
        self.buckets.values().map(|t| t.live_len()).sum()
    }

    /// Total number of disk components across visible buckets (the quantity
    /// that grows after splits and drives merge-sort overhead for ordered
    /// scans).
    pub fn num_components(&self) -> usize {
        self.buckets.values().map(|t| t.num_components()).sum()
    }

    /// Per-bucket logical sizes in bytes (memtable + visible disk data).
    pub fn bucket_sizes(&self) -> Vec<(BucketId, usize)> {
        self.buckets
            .iter()
            .map(|(b, t)| (*b, t.logical_size_bytes()))
            .collect()
    }

    /// Total storage bytes across visible buckets.
    pub fn storage_bytes(&self) -> usize {
        self.buckets.values().map(|t| t.storage_bytes()).sum()
    }

    /// Total logical bytes across visible buckets (reference components count
    /// their visible share; used by balancing and split decisions).
    pub fn logical_size_bytes(&self) -> usize {
        self.buckets.values().map(|t| t.logical_size_bytes()).sum()
    }

    // ------------------------------------------------------- flush/merge/split

    /// Flushes every bucket's memory component.
    pub fn flush_all(&mut self) {
        for tree in self.buckets.values_mut() {
            tree.flush();
        }
    }

    /// Runs the merge policy in every bucket. Returns total merges performed.
    pub fn run_merges(&mut self) -> usize {
        self.buckets.values_mut().map(|t| t.run_merges()).sum()
    }

    /// Memory accounting over every resident entry: all memtables plus each
    /// distinct underlying disk run. Reference components created by bucket
    /// splits share their parent's allocation, so runs are deduplicated on
    /// [`Component::data_token`] — the totals reflect what is actually held
    /// in memory, not the sum over handles.
    pub fn storage_footprint(&self) -> crate::entry::StorageFootprint {
        let mut seen = std::collections::BTreeSet::new();
        let mut acc = crate::entry::StorageFootprint::default();
        for tree in self.buckets.values() {
            acc.absorb(&tree.memtable().footprint());
            for c in tree.components() {
                if seen.insert(c.data_token()) {
                    acc.absorb(&c.raw_footprint());
                }
            }
        }
        acc
    }

    /// Enables or disables dynamic bucket splits (splits are disabled for the
    /// duration of a rebalance, Section V-A).
    pub fn set_splits_enabled(&mut self, enabled: bool) {
        self.splits_enabled = enabled;
    }

    /// True if dynamic splits are currently enabled.
    pub fn splits_enabled(&self) -> bool {
        self.splits_enabled
    }

    fn maybe_split(&mut self, bucket: BucketId) -> Result<()> {
        let Some(max) = self.config.max_bucket_size_bytes else {
            return Ok(());
        };
        if !self.splits_enabled {
            return Ok(());
        }
        // A single write can at most trigger one split of its own bucket, but
        // the children may immediately exceed the limit under heavy skew, so
        // loop until the owning bucket is within bounds or at max depth.
        let mut current = bucket;
        loop {
            let size = match self.buckets.get(&current) {
                Some(t) => t.logical_size_bytes(),
                None => return Ok(()),
            };
            if size <= max || current.depth >= self.config.max_depth {
                return Ok(());
            }
            let (lo, hi) = self.split_bucket(current)?;
            // Continue with whichever child is larger.
            let lo_size = self
                .buckets
                .get(&lo)
                .map(|t| t.logical_size_bytes())
                .unwrap_or(0);
            let hi_size = self
                .buckets
                .get(&hi)
                .map(|t| t.logical_size_bytes())
                .unwrap_or(0);
            current = if lo_size >= hi_size { lo } else { hi };
        }
    }

    /// Splits a bucket into its two children following Algorithm 1:
    ///
    /// 1. pause merges and flush the bucket's memory component,
    /// 2. create two child buckets whose disk components are *reference
    ///    components* pointing at the parent's components,
    /// 3. update the local directory (the metadata force-to-disk of the
    ///    paper) and drop the parent bucket.
    ///
    /// The data rewrite is postponed to the children's next merges.
    pub fn split_bucket(&mut self, bucket: BucketId) -> Result<(BucketId, BucketId)> {
        if !self.splits_enabled {
            return Err(StorageError::SplitsDisabled);
        }
        if bucket.depth >= self.config.max_depth {
            return Err(StorageError::MaxDepthReached(bucket));
        }
        let mut parent = self
            .buckets
            .remove(&bucket)
            .ok_or(StorageError::UnknownBucket(bucket))?;
        // Algorithm 1, lines 3-7: stop merges, flush the memory component so
        // that all data lives in immutable disk components.
        parent.pause_merges();
        parent.flush();
        let (lo, hi) = bucket.split();
        let mut lo_tree = LsmTree::new(self.config.lsm.clone(), Arc::clone(&self.metrics));
        let mut hi_tree = LsmTree::new(self.config.lsm.clone(), Arc::clone(&self.metrics));
        let lo_comps: Vec<Component> = parent
            .components()
            .iter()
            .map(|c| c.restrict_to_bucket(lo))
            .collect();
        let hi_comps: Vec<Component> = parent
            .components()
            .iter()
            .map(|c| c.restrict_to_bucket(hi))
            .collect();
        lo_tree.set_components(lo_comps);
        hi_tree.set_components(hi_comps);
        // Line 9: force the directory metadata; in the simulation this is the
        // in-memory directory update, which is the recovery point.
        self.directory.split(&bucket)?;
        self.buckets.insert(lo, lo_tree);
        self.buckets.insert(hi, hi_tree);
        StorageMetrics::add(&self.metrics.split_count, 1);
        Ok((lo, hi))
    }

    // ------------------------------------------------- rebalance source side

    /// Prepares a bucket for being moved: flushes its memory component so an
    /// immutable snapshot of all writes before the rebalance start exists
    /// ("the flush time is treated as the rebalance start time").
    /// Returns clones of the bucket's disk components.
    pub fn snapshot_bucket(&mut self, bucket: BucketId) -> Result<Vec<Component>> {
        let tree = self
            .buckets
            .get_mut(&bucket)
            .ok_or(StorageError::UnknownBucket(bucket))?;
        tree.flush();
        Ok(tree.components().to_vec())
    }

    /// Scans all live records of a bucket (the source-side data movement
    /// read). Charges the bytes to the rebalance-read metric.
    pub fn scan_bucket(&self, bucket: BucketId) -> Result<Vec<Entry>> {
        let tree = self
            .buckets
            .get(&bucket)
            .ok_or(StorageError::UnknownBucket(bucket))?;
        let entries = tree.scan_all();
        let bytes: usize = entries.iter().map(|e| e.size_bytes()).sum();
        StorageMetrics::add(&self.metrics.bytes_rebalance_read, bytes as u64);
        Ok(entries)
    }

    /// Ships a bucket as sealed components (Section IV: disk components are
    /// immutable, so moving a bucket is moving its component files). The
    /// bucket's memory component is flushed first, then every component is
    /// handed out as a cheap `Arc`-clone marked [`Component::is_shipped`] —
    /// Bloom filters, sorted runs, and any bucket/lazy-cleanup filters travel
    /// with the handle, and no `restrict_to_bucket` copy is made: every
    /// component of a bucket's tree already exposes only that bucket's
    /// entries. Components are returned newest first, the tree's own order.
    pub fn ship_bucket(&mut self, bucket: BucketId) -> Result<Vec<Component>> {
        let tree = self
            .buckets
            .get_mut(&bucket)
            .ok_or(StorageError::UnknownBucket(bucket))?;
        tree.flush();
        let comps: Vec<Component> = tree
            .components()
            .iter()
            .map(|c| c.clone_shipped())
            .collect();
        let bytes: usize = comps.iter().map(|c| c.visible_size_bytes()).sum();
        StorageMetrics::add(&self.metrics.bytes_rebalance_shipped, bytes as u64);
        StorageMetrics::add(&self.metrics.components_shipped, comps.len() as u64);
        Ok(comps)
    }

    /// Drops a moved bucket after a committed rebalance: it is removed from
    /// the local directory so new queries cannot see it. Reference counting
    /// (Arc) keeps the components alive for readers that still hold them.
    pub fn drop_bucket(&mut self, bucket: BucketId) -> Result<()> {
        if !self.directory.remove(&bucket) {
            // Idempotent: dropping a non-existent bucket is a no-op (Case 4).
            return Ok(());
        }
        self.buckets.remove(&bucket);
        Ok(())
    }

    // -------------------------------------------- rebalance destination side

    /// Registers a new pending (received) bucket at a destination partition.
    /// Pending buckets are invisible to queries until installed. Merges are
    /// paused on the pending tree until the install: the loaded/shipped base
    /// components and the replicated-write flushes must survive as-is so
    /// recovery can tell a healthy pending bucket from one whose transfer a
    /// crash wiped ([`BucketedLsmTree::pending_has_base_data`]).
    pub fn create_pending_bucket(&mut self, bucket: BucketId) -> Result<()> {
        if self.pending.contains_key(&bucket) {
            return Err(StorageError::PendingBucketExists(bucket));
        }
        let mut tree = LsmTree::new(self.config.lsm.clone(), Arc::clone(&self.metrics));
        tree.pause_merges();
        self.pending.insert(bucket, tree);
        Ok(())
    }

    /// Bulk-loads scanned records into a pending bucket as disk components
    /// that are strictly older than any replicated writes.
    pub fn load_into_pending(&mut self, bucket: BucketId, entries: Vec<Entry>) -> Result<()> {
        let tree = self
            .pending
            .get_mut(&bucket)
            .ok_or(StorageError::UnknownPendingBucket(bucket))?;
        let comp = Component::from_unsorted(entries, ComponentSource::Loaded);
        StorageMetrics::add(
            &self.metrics.bytes_rebalance_loaded,
            comp.size_bytes() as u64,
        );
        tree.append_oldest_components(vec![comp]);
        Ok(())
    }

    /// Installs components shipped whole from a source partition into a
    /// pending bucket. The handles are appended as the **oldest** data of the
    /// pending tree — replicated writes applied afterwards (or already
    /// sitting in the pending memory component) stay newer, exactly as the
    /// record-level `load_into_pending` path orders its bulk-loaded
    /// component. The components keep their internal newest-first order.
    pub fn install_shipped(&mut self, bucket: BucketId, comps: Vec<Component>) -> Result<()> {
        let tree = self
            .pending
            .get_mut(&bucket)
            .ok_or(StorageError::UnknownPendingBucket(bucket))?;
        let bytes: usize = comps.iter().map(|c| c.visible_size_bytes()).sum();
        StorageMetrics::add(&self.metrics.bytes_rebalance_loaded, bytes as u64);
        tree.append_oldest_components(comps);
        Ok(())
    }

    /// True if a pending (received, not yet installed) bucket exists.
    pub fn has_pending_bucket(&self, bucket: &BucketId) -> bool {
        self.pending.contains_key(bucket)
    }

    /// True if the pending bucket holds its base data — shipped or
    /// bulk-loaded components, as opposed to only replicated writes
    /// accumulated after a crash wiped the uncommitted transfer. Recovery
    /// re-ships the bucket from its source when this is false.
    pub fn pending_has_base_data(&self, bucket: &BucketId) -> bool {
        self.pending
            .get(bucket)
            .map(|t| {
                t.components()
                    .iter()
                    .any(|c| c.is_shipped() || c.source() == ComponentSource::Loaded)
            })
            .unwrap_or(false)
    }

    /// Applies a replicated log record (a concurrent write captured at the
    /// source) to a pending bucket's memory component. The pending bucket
    /// must exist — a replicated write to an unregistered bucket is a
    /// routing bug upstream. (After a destination crash wiped an uncommitted
    /// transfer, the cluster's replication path re-creates the pending
    /// bucket explicitly for buckets of the active rebalance before
    /// applying; see `Cluster::ingest`.)
    pub fn apply_replicated(&mut self, bucket: BucketId, entry: Entry) -> Result<()> {
        let tree = self
            .pending
            .get_mut(&bucket)
            .ok_or(StorageError::UnknownPendingBucket(bucket))?;
        tree.apply(entry);
        Ok(())
    }

    /// Flushes the memory components of pending buckets (the prepare-phase
    /// requirement that replicated writes are persisted before voting yes).
    pub fn flush_pending(&mut self) {
        for tree in self.pending.values_mut() {
            tree.flush();
        }
    }

    /// Installs a pending bucket, making it visible to queries (commit phase:
    /// "add the loaded disk components to the component lists").
    /// Idempotent if the bucket is already installed.
    pub fn install_pending(&mut self, bucket: BucketId) -> Result<()> {
        let Some(mut tree) = self.pending.remove(&bucket) else {
            if self.directory.contains(&bucket) {
                return Ok(()); // already installed (recovery retries are idempotent)
            }
            return Err(StorageError::UnknownPendingBucket(bucket));
        };
        // Merges were paused while the bucket was pending; the installed
        // bucket compacts normally again.
        tree.resume_merges();
        self.directory.add(bucket)?;
        self.buckets.insert(bucket, tree);
        Ok(())
    }

    /// Discards a pending bucket (abort path). Idempotent: discarding an
    /// unknown bucket is a no-op, as required by failure Case 1.
    pub fn drop_pending(&mut self, bucket: BucketId) {
        self.pending.remove(&bucket);
    }

    /// Discards all pending buckets (abort path).
    pub fn drop_all_pending(&mut self) {
        self.pending.clear();
    }

    /// Storage bytes held by pending buckets (intermediate rebalance state).
    pub fn pending_storage_bytes(&self) -> usize {
        self.pending.values().map(|t| t.storage_bytes()).sum()
    }

    /// Read-only access to a bucket's tree (for inspection in tests and the
    /// cost model).
    pub fn bucket_tree(&self, bucket: &BucketId) -> Option<&LsmTree> {
        self.buckets.get(bucket)
    }

    /// Checks internal consistency: directory and bucket map agree and the
    /// directory has no overlaps.
    pub fn is_consistent(&self) -> bool {
        self.directory.is_consistent()
            && self.directory.len() == self.buckets.len()
            && self
                .directory
                .buckets()
                .all(|b| self.buckets.contains_key(&b))
    }

    /// Looks up which visible bucket a key belongs to.
    pub fn bucket_of_key(&self, key: &Key) -> Option<BucketId> {
        self.directory.lookup_key(key)
    }

    /// Looks up which visible bucket a hash belongs to.
    pub fn bucket_of_hash(&self, hash: u64) -> Option<BucketId> {
        self.directory.lookup_hash(hash)
    }

    /// Convenience: the hash of a key (re-exported for callers that need to
    /// route without a directory).
    pub fn hash_of(key: &Key) -> u64 {
        hash_key(key)
    }

    /// Returns live entries of a bucket grouped for tests (bucket must exist).
    pub fn bucket_entries(&self, bucket: &BucketId) -> Result<Vec<Entry>> {
        self.buckets
            .get(bucket)
            .map(|t| t.scan_all())
            .ok_or(StorageError::UnknownBucket(*bucket))
    }

    /// Applies lazy-cleanup metadata to a bucket's components; used by
    /// secondary indexes through [`crate::secondary::SecondaryIndex`], and
    /// exposed here for ablation experiments on primary indexes.
    pub fn mark_bucket_invalid_everywhere(&mut self, moved: BucketId) {
        for tree in self.buckets.values_mut() {
            tree.mark_bucket_invalid(moved);
        }
    }

    /// Returns the latest operation for a key searching **only** the given
    /// bucket (used to validate routing in tests).
    pub fn get_in_bucket(&self, bucket: &BucketId, key: &Key) -> Option<Op> {
        let tree = self.buckets.get(bucket)?;
        let found = tree.scan_all().into_iter().find(|e| &e.key == key)?;
        Some(found.op)
    }

    // -------------------------------------------------------- bucket merging

    /// Merges the two children of `parent` back into a single bucket — the
    /// inverse of [`BucketedLsmTree::split_bucket`], used when deletions
    /// shrink the dataset (dynamic bucketing adjusts the bucket count in both
    /// directions, Section II-A).
    ///
    /// Both children must currently be owned by this partition. Their disk
    /// components are simply re-attached to the merged bucket: their key sets
    /// are disjoint by construction, so no data rewrite is needed.
    pub fn merge_buckets(&mut self, parent: BucketId) -> Result<BucketId> {
        if !self.splits_enabled {
            return Err(StorageError::SplitsDisabled);
        }
        let (lo, hi) = parent.split();
        if !self.directory.contains(&lo) || !self.directory.contains(&hi) {
            return Err(StorageError::UnknownBucket(parent));
        }
        let mut lo_tree = self
            .buckets
            .remove(&lo)
            .ok_or(StorageError::UnknownBucket(lo))?;
        let Some(mut hi_tree) = self.buckets.remove(&hi) else {
            // Undo the lo removal so a malformed call leaves state intact.
            self.buckets.insert(lo, lo_tree);
            return Err(StorageError::UnknownBucket(hi));
        };
        lo_tree.flush();
        hi_tree.flush();
        let mut merged = LsmTree::new(self.config.lsm.clone(), Arc::clone(&self.metrics));
        let mut comps = lo_tree.components().to_vec();
        comps.extend(hi_tree.components().iter().cloned());
        merged.set_components(comps);
        self.directory.remove(&lo);
        self.directory.remove(&hi);
        self.directory.add(parent)?;
        self.buckets.insert(parent, merged);
        Ok(parent)
    }

    /// Merges sibling buckets whose combined logical size has fallen below
    /// `min_combined_bytes` (e.g. half the dynamic-split threshold). Returns
    /// the number of merges performed. Splits/merges must be enabled.
    pub fn shrink_buckets(&mut self, min_combined_bytes: usize) -> usize {
        if !self.splits_enabled {
            return 0;
        }
        let mut merges = 0;
        loop {
            let mut candidate = None;
            for b in self.directory.buckets() {
                let Some(parent) = b.parent() else { continue };
                let (lo, hi) = parent.split();
                if !self.directory.contains(&lo) || !self.directory.contains(&hi) {
                    continue;
                }
                let combined = self
                    .buckets
                    .get(&lo)
                    .map(|t| t.logical_size_bytes())
                    .unwrap_or(0)
                    + self
                        .buckets
                        .get(&hi)
                        .map(|t| t.logical_size_bytes())
                        .unwrap_or(0);
                if combined < min_combined_bytes {
                    candidate = Some(parent);
                    break;
                }
            }
            match candidate {
                Some(parent) => {
                    if self.merge_buckets(parent).is_ok() {
                        merges += 1;
                    } else {
                        break;
                    }
                }
                None => break,
            }
        }
        merges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::Bytes;

    fn cfg(max_bucket: Option<usize>) -> BucketedConfig {
        BucketedConfig {
            lsm: LsmConfig::with_memtable_budget(1 << 14),
            max_bucket_size_bytes: max_bucket,
            max_depth: 16,
        }
    }

    fn tree_with_depth(depth: u8, max_bucket: Option<usize>) -> BucketedLsmTree {
        let buckets = (0..(1u32 << depth)).map(|b| BucketId::new(b, depth));
        BucketedLsmTree::new(cfg(max_bucket), buckets, StorageMetrics::new_shared())
    }

    fn val(n: usize) -> Bytes {
        Bytes::from(vec![3u8; n])
    }

    #[test]
    fn writes_route_to_owning_bucket() {
        let mut t = tree_with_depth(2, None);
        for i in 0..200u64 {
            t.insert(i, val(8)).unwrap();
        }
        assert_eq!(t.live_len(), 200);
        for i in 0..200u64 {
            let key = Key::from_u64(i);
            let b = t.bucket_of_key(&key).unwrap();
            assert!(b.contains_key(&key));
            assert!(t.get(&key).is_some());
        }
        assert!(t.is_consistent());
    }

    #[test]
    fn unowned_keys_are_rejected() {
        let mut t = BucketedLsmTree::new(
            cfg(None),
            [BucketId::new(0, 1)],
            StorageMetrics::new_shared(),
        );
        let mut rejected = 0;
        for i in 0..100u64 {
            if t.insert(i, val(4)).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "keys hashing to bucket 1 must be rejected");
    }

    #[test]
    fn ordered_scan_is_sorted_unordered_is_complete() {
        let mut t = tree_with_depth(3, None);
        for i in (0..500u64).rev() {
            t.insert(i, val(4)).unwrap();
        }
        let ordered = t.scan(ScanOrder::Ordered);
        let keys: Vec<u64> = ordered.iter().map(|e| e.key.as_u64()).collect();
        let expected: Vec<u64> = (0..500).collect();
        assert_eq!(keys, expected);
        let unordered = t.scan(ScanOrder::Unordered);
        assert_eq!(unordered.len(), 500);
        let mut un_keys: Vec<u64> = unordered.iter().map(|e| e.key.as_u64()).collect();
        un_keys.sort_unstable();
        assert_eq!(un_keys, expected);
    }

    #[test]
    fn split_preserves_data_and_routing() {
        let mut t = tree_with_depth(1, None);
        for i in 0..300u64 {
            t.insert(i, val(16)).unwrap();
        }
        let target = BucketId::new(0, 1);
        let before = t.live_len();
        let (lo, hi) = t.split_bucket(target).unwrap();
        assert!(t.is_consistent());
        assert_eq!(t.live_len(), before, "no records may be lost by a split");
        // children partition the parent's records
        let lo_entries = t.bucket_entries(&lo).unwrap();
        let hi_entries = t.bucket_entries(&hi).unwrap();
        assert!(lo_entries.iter().all(|e| lo.contains_key(&e.key)));
        assert!(hi_entries.iter().all(|e| hi.contains_key(&e.key)));
        assert!(!lo_entries.is_empty() && !hi_entries.is_empty());
        // reference components occupy no extra storage until merged
        assert!(t
            .bucket_tree(&lo)
            .unwrap()
            .components()
            .iter()
            .all(|c| c.is_reference()));
        assert_eq!(t.metrics().snapshot().split_count, 1);
        // reads still work after the split
        for i in 0..300u64 {
            assert!(t.get(&Key::from_u64(i)).is_some());
        }
    }

    #[test]
    fn dynamic_splits_trigger_on_max_bucket_size() {
        let mut t = BucketedLsmTree::new(
            BucketedConfig {
                lsm: LsmConfig::with_memtable_budget(1 << 12),
                max_bucket_size_bytes: Some(4 * 1024),
                max_depth: 10,
            },
            [BucketId::root()],
            StorageMetrics::new_shared(),
        );
        for i in 0..2000u64 {
            t.insert(i, val(32)).unwrap();
        }
        assert!(t.num_buckets() > 1, "bucket should have split dynamically");
        assert!(t.is_consistent());
        assert_eq!(t.live_len(), 2000);
        // every bucket respects the size bound reasonably (allow slack for
        // the memtable that has not flushed yet)
        for (b, _size) in t.bucket_sizes() {
            assert!(b.depth <= 10);
        }
    }

    #[test]
    fn splits_disabled_prevents_splitting() {
        let mut t = tree_with_depth(0, Some(128));
        t.set_splits_enabled(false);
        for i in 0..500u64 {
            t.insert(i, val(64)).unwrap();
        }
        assert_eq!(t.num_buckets(), 1);
        assert!(matches!(
            t.split_bucket(BucketId::root()),
            Err(StorageError::SplitsDisabled)
        ));
    }

    #[test]
    fn pending_buckets_are_invisible_until_installed() {
        let mut t = tree_with_depth(1, None);
        let incoming = BucketId::new(0, 1);
        // simulate a destination partition that owns bucket 1 and receives bucket 0
        let mut dest = BucketedLsmTree::new(
            cfg(None),
            [BucketId::new(1, 1)],
            StorageMetrics::new_shared(),
        );
        for i in 0..200u64 {
            t.insert(i, val(8)).unwrap();
        }
        let moved_entries = t.scan_bucket(incoming).unwrap();
        let moved_count = moved_entries.len();
        assert!(moved_count > 0);

        dest.create_pending_bucket(incoming).unwrap();
        dest.load_into_pending(incoming, moved_entries).unwrap();
        // a replicated concurrent write that updates a moved key
        let some_key = t
            .bucket_entries(&incoming)
            .unwrap()
            .first()
            .unwrap()
            .key
            .clone();
        dest.apply_replicated(
            incoming,
            Entry::put(some_key.clone(), Bytes::from_static(b"newer")),
        )
        .unwrap();

        // still invisible
        assert_eq!(dest.get(&some_key), None);
        assert_eq!(dest.live_len(), 0);

        dest.flush_pending();
        dest.install_pending(incoming).unwrap();
        assert!(dest.is_consistent());
        assert_eq!(dest.live_len(), moved_count);
        // the replicated write must win over the bulk-loaded record
        assert_eq!(dest.get(&some_key).unwrap(), Bytes::from_static(b"newer"));
        // idempotent install (Case 4/5 retries)
        dest.install_pending(incoming).unwrap();
        assert_eq!(dest.live_len(), moved_count);
    }

    #[test]
    fn drop_pending_and_drop_bucket_are_idempotent() {
        let mut t = tree_with_depth(1, None);
        for i in 0..50u64 {
            t.insert(i, val(8)).unwrap();
        }
        let b = BucketId::new(0, 1);
        t.drop_bucket(b).unwrap();
        t.drop_bucket(b).unwrap(); // no-op
        assert!(t.bucket_of_hash(0).is_none());
        t.drop_pending(b); // never existed: no-op
        assert!(t.is_consistent());
    }

    #[test]
    fn ship_bucket_moves_sealed_components_without_copying() {
        let mut src = tree_with_depth(1, None);
        let mut dst = BucketedLsmTree::new(
            cfg(None),
            [BucketId::new(1, 1)],
            StorageMetrics::new_shared(),
        );
        for i in 0..300u64 {
            src.insert(i, val(16)).unwrap();
        }
        let moving = BucketId::new(0, 1);
        let expected = src.bucket_entries(&moving).unwrap();
        let comps = src.ship_bucket(moving).unwrap();
        assert!(!comps.is_empty());
        assert!(comps.iter().all(|c| c.is_shipped()));
        // the shipped handles share the source's data (no copy was made)
        let src_ids: Vec<_> = src
            .bucket_tree(&moving)
            .unwrap()
            .components()
            .iter()
            .map(|c| c.id())
            .collect();
        assert_eq!(comps.iter().map(|c| c.id()).collect::<Vec<_>>(), src_ids);
        let snap = src.metrics().snapshot();
        assert_eq!(snap.components_shipped, comps.len() as u64);
        assert!(snap.bytes_rebalance_shipped > 0);

        dst.create_pending_bucket(moving).unwrap();
        // a replicated concurrent write applied before the transfer lands
        // must stay newer than the shipped base data
        let overwritten = expected[0].key.clone();
        dst.apply_replicated(moving, Entry::put(overwritten.clone(), val(1)))
            .unwrap();
        dst.flush_pending();
        dst.install_shipped(moving, comps).unwrap();
        assert!(dst.pending_has_base_data(&moving));
        assert_eq!(dst.live_len(), 0, "pending data must stay invisible");
        dst.install_pending(moving).unwrap();
        assert_eq!(dst.live_len(), expected.len());
        assert_eq!(dst.get(&overwritten).unwrap(), val(1));
        for e in &expected[1..] {
            assert_eq!(dst.get(&e.key).as_ref(), e.op.value());
        }
    }

    #[test]
    fn pending_merges_stay_paused_so_base_provenance_survives_heavy_feeds() {
        let mut src = tree_with_depth(1, None);
        for i in 0..200u64 {
            src.insert(i, val(16)).unwrap();
        }
        let moving = BucketId::new(0, 1);
        let comps = src.ship_bucket(moving).unwrap();
        let mut dst = BucketedLsmTree::new(
            cfg(None), // 16 KiB memtable budget, auto flush + merge on
            [BucketId::new(1, 1)],
            StorageMetrics::new_shared(),
        );
        dst.create_pending_bucket(moving).unwrap();
        dst.install_shipped(moving, comps).unwrap();
        // A replicated feed far above the memtable budget flushes the
        // pending tree repeatedly; without paused merges a size-tiered merge
        // would rewrite the shipped base components (erasing the provenance
        // that crash recovery checks) and force a spurious re-ship.
        for i in 0..600u64 {
            if moving.contains_key(&Key::from_u64(i)) {
                dst.apply_replicated(moving, Entry::put(Key::from_u64(i), val(64)))
                    .unwrap();
            }
        }
        assert!(
            dst.pending_has_base_data(&moving),
            "shipped base components must survive replicated-feed flushes"
        );
        dst.install_pending(moving).unwrap();
        assert!(!dst.bucket_tree(&moving).unwrap().merges_paused());
        assert_eq!(dst.live_len(), dst.bucket_entries(&moving).unwrap().len());
    }

    #[test]
    fn apply_replicated_requires_a_registered_pending_bucket() {
        let mut dst = tree_with_depth(1, None);
        let b = BucketId::new(0, 2);
        dst.create_pending_bucket(b).unwrap();
        dst.drop_pending(b); // crash wiped the uncommitted transfer
        assert!(!dst.has_pending_bucket(&b));
        // a misrouted replicated write surfaces as an error, not a silent
        // fresh pending tree
        assert!(matches!(
            dst.apply_replicated(b, Entry::put(Key::from_u64(8), val(4))),
            Err(StorageError::UnknownPendingBucket(_))
        ));
        // the recovery path re-creates the pending bucket explicitly; the
        // re-created bucket holds only replicated records until re-shipped
        dst.create_pending_bucket(b).unwrap();
        dst.apply_replicated(b, Entry::put(Key::from_u64(8), val(4)))
            .unwrap();
        assert!(
            !dst.pending_has_base_data(&b),
            "a recreated pending bucket holds only replicated records"
        );
    }

    #[test]
    fn snapshot_bucket_flushes_memtable_first() {
        let mut t = tree_with_depth(1, None);
        for i in 0..100u64 {
            t.insert(i, val(8)).unwrap();
        }
        let b = BucketId::new(1, 1);
        let comps = t.snapshot_bucket(b).unwrap();
        assert!(!comps.is_empty());
        // everything the bucket holds is now in immutable components
        assert!(t.bucket_tree(&b).unwrap().memtable().is_empty());
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;
    use crate::bytes::Bytes;

    fn tree(max_bucket: Option<usize>) -> BucketedLsmTree {
        BucketedLsmTree::new(
            BucketedConfig {
                lsm: LsmConfig::with_memtable_budget(4 * 1024),
                max_bucket_size_bytes: max_bucket,
                max_depth: 12,
            },
            [BucketId::new(0, 1), BucketId::new(1, 1)],
            StorageMetrics::new_shared(),
        )
    }

    #[test]
    fn split_then_merge_roundtrips_data_and_directory() {
        let mut t = tree(None);
        for i in 0..400u64 {
            t.insert(i, Bytes::from(vec![1u8; 32])).unwrap();
        }
        let before = t.live_len();
        let parent = BucketId::new(0, 1);
        t.split_bucket(parent).unwrap();
        assert_eq!(t.num_buckets(), 3);
        assert_eq!(t.live_len(), before);

        let merged = t.merge_buckets(parent).unwrap();
        assert_eq!(merged, parent);
        assert_eq!(t.num_buckets(), 2);
        assert!(t.is_consistent());
        assert_eq!(t.live_len(), before);
        for i in 0..400u64 {
            assert!(t.get(&Key::from_u64(i)).is_some());
        }
        // merging again fails: the children no longer exist
        assert!(t.merge_buckets(parent).is_err());
    }

    #[test]
    fn shrink_buckets_merges_small_siblings_after_deletions() {
        let mut t = tree(Some(2 * 1024));
        for i in 0..2000u64 {
            t.insert(i, Bytes::from(vec![2u8; 64])).unwrap();
        }
        let grown = t.num_buckets();
        assert!(grown > 2, "ingestion should have split buckets");
        // delete most of the data, then shrink
        for i in 0..2000u64 {
            if i % 10 != 0 {
                t.delete(Key::from_u64(i)).unwrap();
            }
        }
        let live = t.live_len();
        let merges = t.shrink_buckets(64 * 1024);
        assert!(merges > 0, "shrinking should merge some sibling buckets");
        assert!(t.num_buckets() < grown);
        assert!(t.is_consistent());
        assert_eq!(t.live_len(), live, "merging must not change the data");
    }

    #[test]
    fn merge_requires_both_children_and_enabled_splits() {
        let mut t = tree(None);
        // bucket (0,1) was never split, so its children do not exist and the
        // merge is rejected
        assert!(t.merge_buckets(BucketId::new(0, 1)).is_err());
        t.set_splits_enabled(false);
        assert!(matches!(
            t.merge_buckets(BucketId::root()),
            Err(StorageError::SplitsDisabled)
        ));
        assert_eq!(t.shrink_buckets(1 << 20), 0);
    }
}
