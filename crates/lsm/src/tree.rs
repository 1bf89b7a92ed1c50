//! A single LSM-tree: one memory component plus a list of immutable disk
//! components ordered newest first.
//!
//! This is the building block used both for individual buckets of the
//! bucketed primary index and for secondary indexes. It follows the classic
//! out-of-place design: writes go to the memory component, flushes create
//! immutable disk components, and a merge policy periodically combines disk
//! components.

use std::sync::Arc;

use crate::component::{Component, ComponentSource};
use crate::entry::{Entry, Key, Value};
use crate::iterator::{reconcile_point, LazyMergeIter, RefSource};
use crate::memtable::MemTable;
use crate::merge_policy::{MergePolicy, SizeTieredPolicy};
use crate::metrics::StorageMetrics;

/// Configuration of a single LSM-tree.
#[derive(Clone)]
pub struct LsmConfig {
    /// Memory-component budget in bytes; exceeding it triggers a flush when
    /// `auto_flush` is set.
    pub memtable_budget_bytes: usize,
    /// The merge policy (AsterixDB default: size-tiered with ratio 1.2).
    pub merge_policy: Arc<dyn MergePolicy>,
    /// Automatically flush when the memory component exceeds its budget.
    pub auto_flush: bool,
    /// Automatically run merges after each flush.
    pub auto_merge: bool,
}

impl std::fmt::Debug for LsmConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmConfig")
            .field("memtable_budget_bytes", &self.memtable_budget_bytes)
            .field("merge_policy", &self.merge_policy.name())
            .field("auto_flush", &self.auto_flush)
            .field("auto_merge", &self.auto_merge)
            .finish()
    }
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_budget_bytes: 4 * 1024 * 1024,
            merge_policy: Arc::new(SizeTieredPolicy::default()),
            auto_flush: true,
            auto_merge: true,
        }
    }
}

impl LsmConfig {
    /// Convenience constructor with a specific memtable budget.
    pub fn with_memtable_budget(budget: usize) -> Self {
        LsmConfig {
            memtable_budget_bytes: budget,
            ..Default::default()
        }
    }
}

/// A single LSM-tree index.
#[derive(Debug)]
pub struct LsmTree {
    config: LsmConfig,
    memtable: MemTable,
    /// Disk components ordered newest first.
    components: Vec<Component>,
    metrics: Arc<StorageMetrics>,
    /// When true, new merges are not scheduled (used while a bucket is being
    /// split or moved).
    merges_paused: bool,
}

impl LsmTree {
    /// Creates an empty tree.
    pub fn new(config: LsmConfig, metrics: Arc<StorageMetrics>) -> Self {
        LsmTree {
            config,
            memtable: MemTable::new(),
            components: Vec::new(),
            metrics,
            merges_paused: false,
        }
    }

    /// Creates an empty tree with default configuration and private metrics.
    pub fn new_default() -> Self {
        Self::new(LsmConfig::default(), StorageMetrics::new_shared())
    }

    /// The tree's configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.config
    }

    /// The shared metrics instance.
    pub fn metrics(&self) -> &Arc<StorageMetrics> {
        &self.metrics
    }

    // ----------------------------------------------------------------- writes

    /// Inserts or updates a record.
    pub fn put(&mut self, key: impl Into<Key>, value: impl Into<Value>) {
        self.apply(Entry::put(key, value));
    }

    /// Deletes a record (writes a tombstone).
    pub fn delete(&mut self, key: impl Into<Key>) {
        self.apply(Entry::delete(key));
    }

    /// Applies an entry (used by log replay and replication).
    pub fn apply(&mut self, entry: Entry) {
        StorageMetrics::add(&self.metrics.records_written, 1);
        self.memtable.apply(entry);
        if self.config.auto_flush && self.memtable.size_bytes() >= self.config.memtable_budget_bytes
        {
            self.flush();
            if self.config.auto_merge {
                self.run_merges();
            }
        }
    }

    // ------------------------------------------------------------------ reads

    /// Point lookup: searches the memory component, then disk components from
    /// newest to oldest, stopping at the first match.
    pub fn get(&self, key: &Key) -> Option<Value> {
        let mem = self.memtable.get(key);
        let disk = self.components.iter().map(|c| c.get(key));
        let op = reconcile_point(std::iter::once(mem).chain(disk))?;
        StorageMetrics::add(
            &self.metrics.bytes_query_read,
            Entry::size_of_parts(key, op) as u64,
        );
        op.value().cloned()
    }

    /// A lazy, reconciling k-way merge over `[lo, hi)` of the memory
    /// component and every disk component's `range()` iterator, newest
    /// first. Tombstoned keys are skipped; nothing is materialised until the
    /// caller consumes the iterator.
    pub fn iter_live<'a>(&'a self, lo: Option<&'a Key>, hi: Option<&'a Key>) -> LazyMergeIter<'a> {
        let mut sources: Vec<RefSource<'a>> = Vec::with_capacity(self.components.len() + 1);
        sources.push(Box::new(self.memtable.range(lo, hi)));
        for c in &self.components {
            sources.push(Box::new(c.range(lo, hi).map(|e| (&e.key, &e.op))));
        }
        LazyMergeIter::new(sources, false)
    }

    /// Range scan over `[lo, hi)` returning live entries in key order. The
    /// merge pulls lazily from the component iterators and materialises the
    /// reconciled output exactly once.
    pub fn scan(&self, lo: Option<&Key>, hi: Option<&Key>) -> Vec<Entry> {
        let out: Vec<Entry> = self.iter_live(lo, hi).collect();
        let bytes: usize = out.iter().map(|e| e.size_bytes()).sum();
        StorageMetrics::add(&self.metrics.bytes_query_read, bytes as u64);
        out
    }

    /// Scans every live entry in key order.
    pub fn scan_all(&self) -> Vec<Entry> {
        self.scan(None, None)
    }

    /// Number of live records (reconciled). Linear in the data size, but it
    /// only counts: no entry is cloned and nothing is charged as a query
    /// read.
    pub fn live_len(&self) -> usize {
        let mut merge = self.iter_live(None, None);
        std::iter::from_fn(|| merge.next_ref()).count()
    }

    // ------------------------------------------------------- flush and merge

    /// Flushes the memory component into a new disk component (no-op when the
    /// memory component is empty). Returns the new component if one was made.
    pub fn flush(&mut self) -> Option<Component> {
        if self.memtable.is_empty() {
            return None;
        }
        let entries = self.memtable.drain_sorted();
        let comp = Component::from_sorted(entries, ComponentSource::Flush);
        StorageMetrics::add(&self.metrics.bytes_flushed, comp.size_bytes() as u64);
        StorageMetrics::add(&self.metrics.flush_count, 1);
        self.components.insert(0, comp.clone());
        Some(comp)
    }

    /// Pauses scheduling of new merges (Algorithm 1, line 3).
    pub fn pause_merges(&mut self) {
        self.merges_paused = true;
    }

    /// Resumes scheduling of merges (Algorithm 1, line 11).
    pub fn resume_merges(&mut self) {
        self.merges_paused = false;
    }

    /// True if merges are currently paused.
    pub fn merges_paused(&self) -> bool {
        self.merges_paused
    }

    /// Runs merges according to the policy until it no longer selects one.
    /// Returns the number of merge operations performed.
    pub fn run_merges(&mut self) -> usize {
        let mut merges = 0;
        while self.maybe_merge() {
            merges += 1;
        }
        merges
    }

    /// Performs one policy-selected merge if any. Returns true if a merge ran.
    pub fn maybe_merge(&mut self) -> bool {
        if self.merges_paused {
            return false;
        }
        let Some((start, end)) = self.config.merge_policy.select_merge(&self.components) else {
            return false;
        };
        self.merge_range(start, end);
        true
    }

    /// Merges every disk component into one (major compaction). No-op with
    /// fewer than two components unless a single component carries filters.
    pub fn force_merge_all(&mut self) {
        if self.components.len() >= 2 || self.components.iter().any(|c| c.needs_compaction()) {
            self.merge_range(0, self.components.len());
        }
    }

    fn merge_range(&mut self, start: usize, end: usize) {
        if start >= end || end > self.components.len() {
            return;
        }
        let merged_slice = &self.components[start..end];
        let includes_oldest = end == self.components.len();
        let read_bytes: usize = merged_slice.iter().map(|c| c.size_bytes()).sum();
        let sources: Vec<RefSource<'_>> = merged_slice
            .iter()
            .map(|c| Box::new(c.iter().map(|e| (&e.key, &e.op))) as RefSource<'_>)
            .collect();
        // A merge that does not include the oldest component must keep
        // tombstones so that deletes still shadow older data. Merges realise
        // reference-component filtering and lazy cleanup because they only
        // read *visible* entries.
        let merged_entries: Vec<Entry> = LazyMergeIter::new(sources, !includes_oldest).collect();
        let new_comp = Component::from_sorted(merged_entries, ComponentSource::Merge);
        StorageMetrics::add(&self.metrics.bytes_merge_read, read_bytes as u64);
        StorageMetrics::add(&self.metrics.bytes_merged, new_comp.size_bytes() as u64);
        StorageMetrics::add(&self.metrics.merge_count, 1);
        self.components.splice(start..end, [new_comp]);
    }

    // ----------------------------------------------------- component plumbing

    /// The disk components, newest first.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Replaces the component list (used by bucket splits and tests).
    pub fn set_components(&mut self, components: Vec<Component>) {
        self.components = components;
    }

    /// Registers already-built components as the **oldest** data of this tree
    /// (used to install loaded disk components during a rebalance: scanned
    /// records must be strictly older than replicated log records).
    pub fn append_oldest_components(&mut self, comps: Vec<Component>) {
        self.components.extend(comps);
    }

    /// Registers already-built components as the **newest** data of this tree.
    pub fn prepend_newest_components(&mut self, comps: Vec<Component>) {
        let mut new_list = comps;
        new_list.append(&mut self.components);
        self.components = new_list;
    }

    /// Marks a bucket invalid in every disk component (lazy cleanup of a
    /// moved bucket). Entries of that bucket disappear from reads immediately
    /// and are physically dropped by the next merge.
    pub fn mark_bucket_invalid(&mut self, bucket: crate::bucket::BucketId) {
        for c in self.components.iter_mut() {
            *c = c.mark_bucket_invalid(bucket);
        }
    }

    /// Marks a bucket invalid in every **current** disk component of a
    /// secondary index: keys are composite (secondary, primary) and the
    /// bucket of an entry is the bucket of its primary part. Components added
    /// later (e.g. buckets received back by a future rebalance) are not
    /// affected, exactly as the paper's per-component metadata behaves.
    pub fn mark_bucket_invalid_secondary(&mut self, bucket: crate::bucket::BucketId) {
        for c in self.components.iter_mut() {
            *c = c.mark_bucket_invalid_as(bucket, crate::component::KeyLayout::SecondaryComposite);
        }
    }

    /// Direct read access to the memory component.
    pub fn memtable(&self) -> &MemTable {
        &self.memtable
    }

    /// Number of disk components.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Total bytes of all disk data reachable from this tree (reference
    /// components report their base size).
    pub fn disk_size_bytes(&self) -> usize {
        self.components.iter().map(|c| c.size_bytes()).sum()
    }

    /// Bytes of storage actually occupied (reference components count as 0).
    pub fn storage_bytes(&self) -> usize {
        self.components
            .iter()
            .map(|c| c.storage_bytes())
            .sum::<usize>()
            + self.memtable.size_bytes()
    }

    /// Logical bytes of data reachable through this tree: visible bytes of
    /// every component (reference components count their filtered share) plus
    /// the memory component. This is the size the balancing algorithm and the
    /// dynamic-split threshold reason about.
    pub fn logical_size_bytes(&self) -> usize {
        self.components
            .iter()
            .map(|c| c.visible_size_bytes())
            .sum::<usize>()
            + self.memtable.size_bytes()
    }

    /// True if the tree holds no data at all.
    pub fn is_empty(&self) -> bool {
        self.memtable.is_empty() && self.components.iter().all(|c| c.visible_len() == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::Bytes;
    use crate::merge_policy::NoMergePolicy;

    fn small_tree(budget: usize) -> LsmTree {
        LsmTree::new(
            LsmConfig::with_memtable_budget(budget),
            StorageMetrics::new_shared(),
        )
    }

    fn val(tag: &str) -> Bytes {
        Bytes::from(tag.as_bytes().to_vec())
    }

    #[test]
    fn put_get_across_flushes() {
        let mut t = small_tree(1 << 20);
        for i in 0..100u64 {
            t.put(i, val(&format!("v{i}")));
        }
        t.flush();
        for i in 100..200u64 {
            t.put(i, val(&format!("v{i}")));
        }
        for i in 0..200u64 {
            assert_eq!(t.get(&Key::from_u64(i)).unwrap(), val(&format!("v{i}")));
        }
        assert!(t.get(&Key::from_u64(999)).is_none());
    }

    #[test]
    fn updates_and_deletes_are_reconciled() {
        let mut t = small_tree(1 << 20);
        t.put(1u64, val("a"));
        t.flush();
        t.put(1u64, val("b"));
        t.flush();
        assert_eq!(t.get(&Key::from_u64(1)).unwrap(), val("b"));
        t.delete(1u64);
        assert_eq!(t.get(&Key::from_u64(1)), None);
        t.flush();
        assert_eq!(t.get(&Key::from_u64(1)), None);
        assert!(t.scan_all().is_empty());
    }

    /// Regression for the op-tag accounting: the memtable's running size,
    /// the flushed component's byte total, and the query-read metric must
    /// all agree with `Entry::size_bytes` (key + value + op tag) — including
    /// after overwrites and for tombstones, which the old hand-rolled
    /// `key + value` formulas silently under-charged.
    #[test]
    fn size_accounting_matches_component_totals() {
        let mut t = small_tree(1 << 20);
        for i in 0..50u64 {
            t.put(i, Bytes::from(vec![1u8; 10]));
        }
        // Overwrites with a different value length exercise the memtable's
        // replacement accounting; deletes leave op-tag-only tombstones.
        for i in 0..20u64 {
            t.put(i, Bytes::from(vec![2u8; 33]));
        }
        for i in 40..50u64 {
            t.delete(i);
        }
        let expected: usize = t
            .memtable()
            .range(None, None)
            .map(|(k, op)| Entry::size_of_parts(k, op))
            .sum();
        assert_eq!(t.memtable().size_bytes(), expected);
        let comp = t.flush().expect("non-empty memtable flushes");
        let from_entries: usize = comp.iter().map(|e| e.size_bytes()).sum();
        assert_eq!(comp.size_bytes(), from_entries);
        assert_eq!(comp.size_bytes(), expected);
        // A tombstone weighs key + op tag, never zero.
        let tomb = Entry::delete(Key::from_u64(40));
        assert_eq!(tomb.size_bytes(), 8 + crate::entry::OP_TAG_BYTES);
        // Point reads charge exactly size_of_parts: key + value + op tag.
        let before = t.metrics().snapshot().bytes_query_read;
        assert!(t.get(&Key::from_u64(3)).is_some());
        let after = t.metrics().snapshot().bytes_query_read;
        assert_eq!(after - before, (8 + 33 + crate::entry::OP_TAG_BYTES) as u64);
    }

    #[test]
    fn live_len_counts_without_a_query_read() {
        let mut t = LsmTree::new(
            LsmConfig {
                memtable_budget_bytes: 1 << 20,
                merge_policy: Arc::new(NoMergePolicy),
                auto_flush: false,
                auto_merge: false,
            },
            StorageMetrics::new_shared(),
        );
        for i in 0..60u64 {
            t.put(i, val("old"));
        }
        t.flush();
        // Overwrites, fresh keys and tombstones spread over newer layers.
        for i in 30..90u64 {
            t.put(i, val("new"));
        }
        for i in (0..60u64).step_by(3) {
            t.delete(i);
        }
        t.flush();
        for i in (1..90u64).step_by(7) {
            t.delete(i);
        }
        t.put(3u64, val("revived"));
        t.put(200u64, val("mem"));
        assert_eq!(t.num_components(), 2);
        assert!(!t.memtable().is_empty());
        let before = t.metrics().snapshot().bytes_query_read;
        let counted = t.live_len();
        assert_eq!(t.metrics().snapshot().bytes_query_read, before);
        assert_eq!(counted, t.scan_all().len());
        assert!(t.metrics().snapshot().bytes_query_read > before);
    }

    #[test]
    fn footprint_agrees_with_size_accounting() {
        let mut t = small_tree(1 << 20);
        for i in 0..100u64 {
            t.put(i, Bytes::from(vec![7u8; 24]));
        }
        t.delete(5u64);
        let mem_fp = t.memtable().footprint();
        assert_eq!(mem_fp.records, 100);
        assert_eq!(mem_fp.logical_bytes as usize, t.memtable().size_bytes());
        assert_eq!(mem_fp.inline_keys, 100, "u64 keys must stay inline");
        assert_eq!(mem_fp.key_heap_bytes, 0);
        let comp = t.flush().unwrap();
        let fp = comp.raw_footprint();
        assert_eq!(fp.records, 100);
        assert_eq!(fp.logical_bytes as usize, comp.size_bytes());
        assert!(fp.resident_bytes() < fp.legacy_resident_bytes());
        assert_eq!(
            fp.legacy_resident_bytes() - fp.resident_bytes(),
            fp.key_bytes,
            "inline keys save exactly their heap allocation"
        );
    }

    #[test]
    fn auto_flush_triggers_on_budget() {
        let mut t = small_tree(256);
        for i in 0..100u64 {
            t.put(i, Bytes::from(vec![0u8; 16]));
        }
        assert!(t.num_components() > 0, "expected at least one auto flush");
        let snap = t.metrics().snapshot();
        assert!(snap.flush_count > 0);
        assert_eq!(snap.records_written, 100);
    }

    #[test]
    fn scan_is_sorted_and_complete() {
        let mut t = small_tree(128);
        let mut keys: Vec<u64> = (0..500).map(|i| (i * 7919) % 1000).collect();
        for &k in &keys {
            t.put(k, val("x"));
        }
        keys.sort_unstable();
        keys.dedup();
        let scanned: Vec<u64> = t.scan_all().iter().map(|e| e.key.as_u64()).collect();
        assert_eq!(scanned, keys);
        let lo = Key::from_u64(100);
        let hi = Key::from_u64(200);
        let bounded = t.scan(Some(&lo), Some(&hi));
        assert!(bounded.iter().all(|e| {
            let k = e.key.as_u64();
            (100..200).contains(&k)
        }));
    }

    #[test]
    fn merges_reduce_component_count() {
        let mut t = LsmTree::new(
            LsmConfig {
                memtable_budget_bytes: 1 << 20,
                merge_policy: Arc::new(SizeTieredPolicy::new(1.2)),
                auto_flush: false,
                auto_merge: false,
            },
            StorageMetrics::new_shared(),
        );
        for round in 0..6u64 {
            for i in 0..50u64 {
                t.put(round * 1000 + i, val("x"));
            }
            t.flush();
        }
        assert_eq!(t.num_components(), 6);
        let merges = t.run_merges();
        assert!(merges > 0);
        assert!(t.num_components() < 6);
        assert_eq!(t.live_len(), 300);
        assert!(t.metrics().snapshot().bytes_merged > 0);
    }

    #[test]
    fn force_merge_all_collapses_to_one() {
        let mut t = small_tree(1 << 20);
        for round in 0..4u64 {
            t.put(round, val("x"));
            t.flush();
        }
        t.force_merge_all();
        assert_eq!(t.num_components(), 1);
        assert_eq!(t.live_len(), 4);
    }

    #[test]
    fn paused_merges_do_not_run() {
        let mut t = LsmTree::new(
            LsmConfig {
                memtable_budget_bytes: 64,
                merge_policy: Arc::new(SizeTieredPolicy::new(0.1)),
                auto_flush: true,
                auto_merge: true,
            },
            StorageMetrics::new_shared(),
        );
        t.pause_merges();
        for i in 0..200u64 {
            t.put(i, Bytes::from(vec![0u8; 32]));
        }
        assert_eq!(t.metrics().snapshot().merge_count, 0);
        t.resume_merges();
        t.run_merges();
        assert!(t.metrics().snapshot().merge_count > 0);
    }

    #[test]
    fn tombstones_survive_partial_merges() {
        // A merge that excludes the oldest component must keep the tombstone.
        let mut t = LsmTree::new(
            LsmConfig {
                memtable_budget_bytes: 1 << 20,
                merge_policy: Arc::new(NoMergePolicy),
                auto_flush: false,
                auto_merge: false,
            },
            StorageMetrics::new_shared(),
        );
        t.put(1u64, val("live"));
        t.flush(); // oldest component holds key 1
        t.delete(1u64);
        t.flush();
        t.put(2u64, val("x"));
        t.flush();
        assert_eq!(t.num_components(), 3);
        // merge only the two newest components
        t.merge_range(0, 2);
        assert_eq!(t.num_components(), 2);
        assert_eq!(
            t.get(&Key::from_u64(1)),
            None,
            "tombstone must still hide key 1"
        );
        // a full merge finally drops both tombstone and shadowed entry
        t.force_merge_all();
        assert_eq!(t.num_components(), 1);
        assert_eq!(t.live_len(), 1);
    }

    #[test]
    fn loaded_components_are_older_than_replicated_ones() {
        // Mirrors the rebalance data-movement rule: scanned records loaded as
        // the oldest components, replicated writes as newer data.
        let mut t = small_tree(1 << 20);
        let loaded = Component::from_unsorted(
            vec![Entry::put(Key::from_u64(1), val("scanned"))],
            ComponentSource::Loaded,
        );
        let replicated = Component::from_unsorted(
            vec![Entry::put(Key::from_u64(1), val("replicated"))],
            ComponentSource::Replicated,
        );
        t.prepend_newest_components(vec![replicated]);
        t.append_oldest_components(vec![loaded]);
        assert_eq!(t.get(&Key::from_u64(1)).unwrap(), val("replicated"));
    }

    #[test]
    fn mark_bucket_invalid_hides_and_merge_removes() {
        let mut t = small_tree(1 << 20);
        for i in 0..64u64 {
            t.put(i, val("x"));
        }
        t.flush();
        let moved = crate::bucket::BucketId::new(0, 1);
        t.mark_bucket_invalid(moved);
        let visible_before_merge = t.live_len();
        assert!(visible_before_merge < 64);
        t.force_merge_all();
        assert_eq!(t.live_len(), visible_before_merge);
        assert!(!t.components()[0].needs_compaction());
    }
}
