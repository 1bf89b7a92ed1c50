//! Merging iterators over multiple LSM components.
//!
//! A range query over an LSM-tree must reconcile entries with identical keys
//! coming from several components: entries from newer components override
//! those from older components. [`MergingIter`] performs a k-way merge using
//! a priority queue, exactly as described in Section II-B of the paper.
//! Sources are ordered newest first; for duplicate keys the entry from the
//! source with the smallest index wins.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::entry::{Entry, Key, Op};

/// One sorted input to the merge: an already-materialised, key-ordered list
/// of entries (memtable snapshot or visible component entries).
pub type SortedSource = Vec<Entry>;

struct HeapItem {
    key: Key,
    source: usize,
    pos: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.source == other.source
    }
}
impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to get the smallest key first,
        // breaking ties in favour of the newest (lowest-index) source.
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.source.cmp(&self.source))
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A reconciling k-way merge iterator.
pub struct MergingIter {
    sources: Vec<SortedSource>,
    heap: BinaryHeap<HeapItem>,
    include_tombstones: bool,
}

impl MergingIter {
    /// Creates a merge over the given sources, **newest source first**.
    ///
    /// If `include_tombstones` is false, reconciled deletes are skipped
    /// (normal query behaviour); if true they are emitted (used by merges
    /// that must retain tombstones).
    pub fn new(sources: Vec<SortedSource>, include_tombstones: bool) -> Self {
        let mut heap = BinaryHeap::new();
        for (i, s) in sources.iter().enumerate() {
            if let Some(e) = s.first() {
                heap.push(HeapItem {
                    key: e.key.clone(),
                    source: i,
                    pos: 0,
                });
            }
        }
        MergingIter {
            sources,
            heap,
            include_tombstones,
        }
    }

    fn advance(&mut self, source: usize, pos: usize) {
        let next = pos + 1;
        if let Some(e) = self.sources[source].get(next) {
            self.heap.push(HeapItem {
                key: e.key.clone(),
                source,
                pos: next,
            });
        }
    }
}

impl Iterator for MergingIter {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        loop {
            let top = self.heap.pop()?;
            let winner = self.sources[top.source][top.pos].clone();
            self.advance(top.source, top.pos);
            // Drop all other occurrences of the same key (they are older).
            while self.heap.peek().is_some_and(|peek| peek.key == winner.key) {
                let Some(dup) = self.heap.pop() else { break };
                self.advance(dup.source, dup.pos);
            }
            if winner.op.is_delete() && !self.include_tombstones {
                continue;
            }
            return Some(winner);
        }
    }
}

/// Merges the sources and returns only live (non-tombstone) entries.
pub fn merge_live(sources: Vec<SortedSource>) -> Vec<Entry> {
    MergingIter::new(sources, false).collect()
}

/// Merges the sources keeping reconciled tombstones (used when the merge
/// result does not include the oldest component, so deletes must survive).
pub fn merge_keep_tombstones(sources: Vec<SortedSource>) -> Vec<Entry> {
    MergingIter::new(sources, true).collect()
}

/// Reconciles a point-lookup result across sources ordered newest first:
/// the first source containing the key decides.
pub fn reconcile_point<'a>(mut lookups: impl Iterator<Item = Option<&'a Op>>) -> Option<&'a Op> {
    lookups.find_map(|op| op)
}

// --------------------------------------------------------- lazy k-way merge

/// A lazily-consumed sorted input to [`LazyMergeIter`]: key-ordered
/// `(key, op)` pairs borrowed from a memtable or a component's `range()`
/// iterator. Nothing is materialised up front.
pub type RefSource<'a> = Box<dyn Iterator<Item = (&'a Key, &'a Op)> + 'a>;

struct RefHeapItem<'a> {
    key: &'a Key,
    source: usize,
}

impl PartialEq for RefHeapItem<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.source == other.source
    }
}
impl Eq for RefHeapItem<'_> {}

impl Ord for RefHeapItem<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Smallest key first; ties go to the newest (lowest-index) source.
        other
            .key
            .cmp(self.key)
            .then_with(|| other.source.cmp(&self.source))
    }
}
impl PartialOrd for RefHeapItem<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A reconciling k-way merge that pulls lazily from borrowed sources (newest
/// source first) and clones only the winning entries. This is the
/// allocation-light replacement for collecting every source into its own
/// `Vec<Entry>` before merging: the output is materialised exactly once.
pub struct LazyMergeIter<'a> {
    sources: Vec<RefSource<'a>>,
    /// The current (unconsumed) head of each source; its key is in the heap.
    heads: Vec<Option<(&'a Key, &'a Op)>>,
    heap: BinaryHeap<RefHeapItem<'a>>,
    include_tombstones: bool,
}

impl<'a> LazyMergeIter<'a> {
    /// Creates a merge over the given sources, **newest source first**. With
    /// `include_tombstones` false, reconciled deletes are skipped (query
    /// behaviour); with true they are emitted (partial-merge behaviour).
    pub fn new(sources: Vec<RefSource<'a>>, include_tombstones: bool) -> Self {
        let mut it = LazyMergeIter {
            heads: (0..sources.len()).map(|_| None).collect(),
            sources,
            heap: BinaryHeap::new(),
            include_tombstones,
        };
        for i in 0..it.sources.len() {
            it.pull(i);
        }
        it
    }

    fn pull(&mut self, source: usize) {
        if let Some((k, op)) = self.sources[source].next() {
            self.heap.push(RefHeapItem { key: k, source });
            self.heads[source] = Some((k, op));
        } else {
            self.heads[source] = None;
        }
    }

    /// Advances the merge by one reconciled entry and borrows it from its
    /// source instead of cloning it — the step [`Iterator::next`] is built
    /// on, and all a caller that only counts or inspects entries needs.
    pub(crate) fn next_ref(&mut self) -> Option<(&'a Key, &'a Op)> {
        loop {
            let top = self.heap.pop()?;
            // dhlint: allow(panic) — heap invariant: a popped entry always has a live head
            let (key, op) = self.heads[top.source].take().expect("head in heap");
            self.pull(top.source);
            // Drop all other occurrences of the same key (they are older).
            while self.heap.peek().is_some_and(|peek| peek.key == key) {
                let Some(dup) = self.heap.pop() else { break };
                self.heads[dup.source].take();
                self.pull(dup.source);
            }
            if op.is_delete() && !self.include_tombstones {
                continue;
            }
            return Some((key, op));
        }
    }
}

impl Iterator for LazyMergeIter<'_> {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        self.next_ref().map(|(key, op)| Entry {
            key: key.clone(),
            op: op.clone(),
        })
    }
}

/// K-way merge of already-reconciled, key-ordered entry iterators whose key
/// sets are pairwise disjoint (per-bucket scans: every key lives in exactly
/// one bucket). The output is materialised exactly once, in key order; the
/// heap owns each source's head entry directly, so no per-entry key clone
/// is made.
pub fn kmerge_disjoint<I>(iters: Vec<I>) -> Vec<Entry>
where
    I: Iterator<Item = Entry>,
{
    struct OwnedHeapItem {
        entry: Entry,
        source: usize,
    }
    impl PartialEq for OwnedHeapItem {
        fn eq(&self, other: &Self) -> bool {
            self.entry.key == other.entry.key && self.source == other.source
        }
    }
    impl Eq for OwnedHeapItem {}
    impl Ord for OwnedHeapItem {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .entry
                .key
                .cmp(&self.entry.key)
                .then_with(|| other.source.cmp(&self.source))
        }
    }
    impl PartialOrd for OwnedHeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut iters = iters;
    let mut heap = BinaryHeap::with_capacity(iters.len());
    for (i, it) in iters.iter_mut().enumerate() {
        if let Some(entry) = it.next() {
            heap.push(OwnedHeapItem { entry, source: i });
        }
    }
    let mut out = Vec::new();
    while let Some(top) = heap.pop() {
        if let Some(entry) = iters[top.source].next() {
            heap.push(OwnedHeapItem {
                entry,
                source: top.source,
            });
        }
        debug_assert!(
            out.last()
                .map(|p: &Entry| p.key < top.entry.key)
                .unwrap_or(true),
            "kmerge_disjoint sources must hold pairwise-disjoint sorted keys"
        );
        out.push(top.entry);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::Bytes;

    fn put(k: u64, tag: &str) -> Entry {
        Entry::put(Key::from_u64(k), Bytes::from(tag.as_bytes().to_vec()))
    }

    fn del(k: u64) -> Entry {
        Entry::delete(Key::from_u64(k))
    }

    fn values(entries: &[Entry]) -> Vec<(u64, String)> {
        entries
            .iter()
            .map(|e| {
                (
                    e.key.as_u64(),
                    match &e.op {
                        Op::Put(v) => String::from_utf8_lossy(v).to_string(),
                        Op::Delete => "<del>".to_string(),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn newer_source_wins() {
        let newer = vec![put(1, "new1"), put(3, "new3")];
        let older = vec![put(1, "old1"), put(2, "old2"), put(3, "old3")];
        let merged = merge_live(vec![newer, older]);
        assert_eq!(
            values(&merged),
            vec![(1, "new1".into()), (2, "old2".into()), (3, "new3".into())]
        );
    }

    #[test]
    fn tombstones_hide_older_entries() {
        let newer = vec![del(2)];
        let older = vec![put(1, "a"), put(2, "b"), put(3, "c")];
        let merged = merge_live(vec![newer, older]);
        assert_eq!(values(&merged), vec![(1, "a".into()), (3, "c".into())]);
    }

    #[test]
    fn tombstones_kept_when_requested() {
        let newer = vec![del(2)];
        let older = vec![put(2, "b")];
        let merged = merge_keep_tombstones(vec![newer, older]);
        assert_eq!(values(&merged), vec![(2, "<del>".into())]);
    }

    #[test]
    fn output_is_sorted_and_unique() {
        let a = vec![put(1, "a1"), put(4, "a4"), put(9, "a9")];
        let b = vec![put(2, "b2"), put(4, "b4"), put(8, "b8")];
        let c = vec![put(1, "c1"), put(9, "c9"), put(10, "c10")];
        let merged = merge_live(vec![a, b, c]);
        let keys: Vec<u64> = merged.iter().map(|e| e.key.as_u64()).collect();
        assert_eq!(keys, vec![1, 2, 4, 8, 9, 10]);
        // key 4 resolved from source a (newer than b)
        assert_eq!(values(&merged)[2], (4, "a4".into()));
    }

    #[test]
    fn empty_sources_are_fine() {
        assert!(merge_live(vec![]).is_empty());
        assert!(merge_live(vec![vec![], vec![]]).is_empty());
    }

    fn ref_sources(sources: &[Vec<Entry>]) -> Vec<RefSource<'_>> {
        sources
            .iter()
            .map(|s| Box::new(s.iter().map(|e| (&e.key, &e.op))) as RefSource<'_>)
            .collect()
    }

    #[test]
    fn lazy_merge_matches_materialized_merge() {
        let newer = vec![del(2), put(3, "new3")];
        let older = vec![put(1, "old1"), put(2, "old2"), put(3, "old3")];
        let expected = merge_live(vec![newer.clone(), older.clone()]);
        let lazy: Vec<Entry> =
            LazyMergeIter::new(ref_sources(&[newer.clone(), older.clone()]), false).collect();
        assert_eq!(values(&lazy), values(&expected));
        let expected_t = merge_keep_tombstones(vec![newer.clone(), older.clone()]);
        let lazy_t: Vec<Entry> = LazyMergeIter::new(ref_sources(&[newer, older]), true).collect();
        assert_eq!(values(&lazy_t), values(&expected_t));
    }

    #[test]
    fn lazy_merge_handles_empty_sources() {
        let lazy: Vec<Entry> = LazyMergeIter::new(Vec::new(), false).collect();
        assert!(lazy.is_empty());
        let lazy: Vec<Entry> =
            LazyMergeIter::new(ref_sources(&[vec![], vec![put(1, "a")], vec![]]), false).collect();
        assert_eq!(values(&lazy), vec![(1, "a".into())]);
    }

    #[test]
    fn kmerge_disjoint_orders_across_sources() {
        let a = vec![put(1, "a"), put(5, "a"), put(9, "a")];
        let b = vec![put(2, "b"), put(4, "b")];
        let c = vec![put(3, "c"), put(8, "c")];
        let merged = kmerge_disjoint(vec![a.into_iter(), b.into_iter(), c.into_iter()]);
        let keys: Vec<u64> = merged.iter().map(|e| e.key.as_u64()).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5, 8, 9]);
        assert!(kmerge_disjoint(Vec::<std::vec::IntoIter<Entry>>::new()).is_empty());
    }

    /// A merge whose every surviving entry is a tombstone — the shape of an
    /// all-deleted bucket mid-rebalance. Live mode must produce nothing;
    /// partial-merge mode must keep every tombstone exactly once.
    #[test]
    fn all_tombstone_sources_reconcile_to_nothing_live() {
        let newer = vec![del(1), del(3)];
        let older = vec![del(1), del(2), del(3)];
        let live: Vec<Entry> =
            LazyMergeIter::new(ref_sources(&[newer.clone(), older.clone()]), false).collect();
        assert!(live.is_empty(), "all-tombstone merge leaked {live:?}");
        let kept: Vec<Entry> = LazyMergeIter::new(ref_sources(&[newer, older]), true).collect();
        assert_eq!(
            values(&kept),
            vec![
                (1, "<del>".into()),
                (2, "<del>".into()),
                (3, "<del>".into())
            ]
        );
    }

    /// A single source must pass through unchanged in both modes (the
    /// degenerate merge after a bucket compacts to one component).
    #[test]
    fn lazy_merge_single_source_passes_through() {
        let only = vec![put(1, "a"), del(2), put(3, "c")];
        let live: Vec<Entry> =
            LazyMergeIter::new(ref_sources(std::slice::from_ref(&only)), false).collect();
        assert_eq!(values(&live), vec![(1, "a".into()), (3, "c".into())]);
        let kept: Vec<Entry> = LazyMergeIter::new(ref_sources(&[only]), true).collect();
        assert_eq!(
            values(&kept),
            vec![(1, "a".into()), (2, "<del>".into()), (3, "c".into())]
        );
    }

    /// The same key in *every* source at once: only the newest op survives
    /// and each older head is consumed (no duplicate emission, no stall).
    #[test]
    fn lazy_merge_key_present_in_all_sources() {
        let s0 = vec![put(5, "v0")];
        let s1 = vec![del(5)];
        let s2 = vec![put(5, "v2")];
        let merged: Vec<Entry> = LazyMergeIter::new(ref_sources(&[s0, s1, s2]), true).collect();
        assert_eq!(values(&merged), vec![(5, "v0".into())]);
    }

    #[test]
    fn kmerge_disjoint_single_and_empty_runs() {
        // Single run passes through verbatim (tombstones included — inputs
        // are already reconciled).
        let only = vec![put(1, "a"), del(2), put(3, "c")];
        let merged = kmerge_disjoint(vec![only.clone().into_iter()]);
        assert_eq!(values(&merged), values(&only));
        // Empty runs interleaved with live ones contribute nothing.
        let a = vec![put(4, "a")];
        let merged = kmerge_disjoint(vec![
            Vec::new().into_iter(),
            a.into_iter(),
            Vec::new().into_iter(),
        ]);
        assert_eq!(values(&merged), vec![(4, "a".into())]);
        // All-empty input produces an empty output.
        let empty: Vec<std::vec::IntoIter<Entry>> = vec![Vec::new().into_iter(); 3];
        assert!(kmerge_disjoint(empty).is_empty());
    }

    /// All-tombstone disjoint runs: kmerge is reconciliation-free, so the
    /// tombstones must come through sorted and complete (a merge of fully
    /// deleted buckets still has to ship its tombstones).
    #[test]
    fn kmerge_disjoint_all_tombstone_runs() {
        let a = vec![del(1), del(4)];
        let b = vec![del(2)];
        let merged = kmerge_disjoint(vec![a.into_iter(), b.into_iter()]);
        assert_eq!(
            values(&merged),
            vec![
                (1, "<del>".into()),
                (2, "<del>".into()),
                (4, "<del>".into())
            ]
        );
    }

    #[test]
    fn reconcile_point_takes_first_hit() {
        let newer = Op::Delete;
        let older = Op::Put(Bytes::from_static(b"x"));
        let got = reconcile_point([None, Some(&newer), Some(&older)].into_iter());
        assert!(matches!(got, Some(Op::Delete)));
        assert!(reconcile_point([None, None].into_iter()).is_none());
    }
}
