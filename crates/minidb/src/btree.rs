//! B+tree indices.
//!
//! "In order to speed up seeks on files, Inversion maintains a Btree index
//! on the chunk number attribute", and "various Btree indices on the naming
//! table speed up \[pathname\] operations". Because the heap never overwrites,
//! an index accumulates entries for *every version* of a key — "the
//! appropriate historical version of a file is constructed using an index on
//! all of the file's available data, including both old and current blocks".
//! Readers filter index hits through tuple visibility.
//!
//! Structure: the root is block 0 of the index relation for the life of
//! the index — there is no meta page, and a probe reads nothing to find
//! where to start. Internal nodes hold `(min_key, min_tid, child)` fence
//! entries; leaves hold `(key, tid)` and are chained left-to-right for range
//! scans. A full root moves both its halves to new pages and becomes, in
//! place, the internal node over them. Deletion is lazy (no rebalancing);
//! the vacuum cleaner builds each index anew on the storage it moves a
//! relation to.
//!
//! Entries are totally ordered by `(key, tid)`, ascending: the heap tid an
//! entry points at breaks ties between equal keys, in leaves, at splits and
//! in the fences a split propagates. The heap only ever appends, so a key's
//! versions form one run in insertion order — a new version lands after its
//! predecessors — and the newest version is the run's last entry, wherever
//! leaf boundaries fall. [`BTree::scan_key_newest_first`] walks a run from
//! that end, so a reader that needs only the version visible to it stops
//! after one heap fetch however long the run is; [`BTree::contains`] and
//! [`BTree::delete`] descend straight to one entry.
//!
//! Wherever in a node an insert lands it is one [`page::insert_at`], logged
//! as slot + item; page images are for splits and lazy deletes.
//!
//! Search compares in place. Every walk — `slot_for` for an insert, the
//! descent, the leaf walk behind [`BTree::scan`], [`BTree::contains`] and
//! [`BTree::scan_key_newest_first`], and [`BTree::delete`] — binary-searches
//! a node's slot array (dead slots included: they were placed in order and
//! never move) and compares each item against the probe with
//! `datum::cmp_encoded_row`, which reads text and bytes as borrowed slices
//! and scalars on the stack. A key is decoded only where a caller receives
//! one (`scan`), at a split (its fence key) and in the verifier.

use crate::buffer::BufferPool;
use crate::datum::{cmp_encoded_row, decode_row, encode_row, Datum};
use crate::error::{DbError, DbResult};
use crate::ids::{DeviceId, RelId, Tid};
use crate::page;
use crate::smgr::Smgr;
use crate::stats::StatsRegistry;
use std::cmp::Ordering;

/// Special-area layout for B-tree node pages.
pub(crate) const SPECIAL_SIZE: usize = 12;
const LEAF_FLAG: u8 = 1;

/// The root's block, for the life of the index.
const ROOT: u64 = 0;

/// A key is a sequence of datums compared lexicographically.
pub type Key = Vec<Datum>;

fn cmp_keys(a: &[Datum], b: &[Datum]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        match x.cmp_total(y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

/// A position in the index's total order: a key, then the tid that breaks
/// ties among equal keys. `tid: None` sorts before every real tid (the
/// start of a key's run); `Some(Tid::MAX)` is its end.
#[derive(Clone, Copy)]
struct Pos<'k> {
    key: &'k [Datum],
    tid: Option<Tid>,
}

impl Pos<'_> {
    /// Before every entry: the empty key is a prefix of all others.
    const FIRST: Pos<'static> = Pos { key: &[], tid: None };
}

/// A [`Pos`] that owns its key: where a decoded item sits.
type OwnedPos = (Key, Option<Tid>);

fn cmp_pos(key: &[Datum], tid: Option<Tid>, to: Pos<'_>) -> Ordering {
    cmp_keys(key, to.key).then_with(|| tid.cmp(&to.tid))
}

/// The largest tid below `tid`, if there is one.
fn tid_before(tid: Tid) -> Option<Tid> {
    match (tid.blkno, tid.slot) {
        (0, 0) => None,
        (b, 0) => Some(Tid::new(b - 1, u16::MAX)),
        (b, s) => Some(Tid::new(b, s - 1)),
    }
}

struct NodeMeta {
    leaf: bool,
    right: u64, // 0 = none (block 0 is the root, which is nobody's sibling).
}

fn read_node_meta(data: &[u8]) -> DbResult<NodeMeta> {
    let sp = page::special(data);
    if sp.len() < SPECIAL_SIZE {
        return Err(DbError::Corrupt(format!(
            "btree node special area too small: {} < {SPECIAL_SIZE}",
            sp.len()
        )));
    }
    Ok(NodeMeta {
        leaf: sp[0] & LEAF_FLAG != 0,
        right: crate::bytes::le_u64(sp, 4)?,
    })
}

fn write_node_meta(data: &mut [u8], meta: &NodeMeta) {
    let sp = page::special_mut(data);
    sp[0] = if meta.leaf { LEAF_FLAG } else { 0 };
    sp[1..4].fill(0);
    sp[4..12].copy_from_slice(&meta.right.to_le_bytes());
}

/// Encodes one index item: `[klen u16][key][payload]`.
fn encode_item(key: &[Datum], payload: &[u8]) -> Vec<u8> {
    let kbytes = encode_row(key);
    let mut out = Vec::with_capacity(2 + kbytes.len() + payload.len());
    out.extend_from_slice(&(kbytes.len() as u16).to_le_bytes());
    out.extend_from_slice(&kbytes);
    out.extend_from_slice(payload);
    out
}

/// An index item's encoded key and its payload.
fn split_item(item: &[u8]) -> DbResult<(&[u8], &[u8])> {
    let klen = crate::bytes::le_u16(item, 0)
        .map_err(|_| DbError::Corrupt("index item too short".into()))? as usize;
    let kbytes = item
        .get(2..2 + klen)
        .ok_or_else(|| DbError::Corrupt("index item key truncated".into()))?;
    Ok((kbytes, &item[2 + klen..]))
}

fn decode_item(item: &[u8]) -> DbResult<(Key, &[u8])> {
    let (kbytes, payload) = split_item(item)?;
    Ok((decode_row(kbytes)?, payload))
}

/// Where an item sits against `to`, compared in place: equal to
/// [`cmp_pos`] on the decoded item, with nothing decoded onto the heap.
fn cmp_item(item: &[u8], leaf: bool, to: Pos<'_>) -> DbResult<Ordering> {
    let (kbytes, payload) = split_item(item)?;
    Ok(cmp_encoded_row(kbytes, to.key)?.then_with(|| payload_tid(payload, leaf).cmp(&to.tid)))
}

/// A fence: the position of the first entry under `child` — its key, then a
/// payload of the child block and that entry's tid. The leftmost fence of a
/// level carries the empty key and no tid, and sorts first.
fn encode_fence(first: Pos<'_>, child: u64) -> Vec<u8> {
    let mut payload = child.to_le_bytes().to_vec();
    if let Some(tid) = first.tid {
        payload.extend_from_slice(&tid.encode());
    }
    encode_item(first.key, &payload)
}

/// The tid an item's payload sorts by: a leaf entry's heap tid, or the
/// separator tid after a fence's child pointer.
fn payload_tid(payload: &[u8], leaf: bool) -> Option<Tid> {
    Tid::decode(if leaf { payload } else { payload.get(8..)? })
}

/// Where [`BTree::descend`] ended up.
struct Descent {
    /// The leaf whose range holds the target position.
    leaf: u64,
    /// The internal blocks walked, root first.
    path: Vec<u64>,
    /// The leaf's fence item in its parent, as stored — the lower bound of
    /// its range. `None` when the root is the leaf.
    lower: Option<Vec<u8>>,
}

/// A handle binding a B-tree index relation to its machinery.
pub struct BTree<'a> {
    /// The shared buffer cache.
    pub pool: &'a BufferPool,
    /// The device manager switch.
    pub smgr: &'a Smgr,
    /// Device the index lives on.
    pub dev: DeviceId,
    /// The index relation.
    pub rel: RelId,
    /// Where search/insert/split counts go.
    pub stats: &'a StatsRegistry,
    /// The write-ahead log every change is logged to.
    pub wal: &'a crate::wal::Wal,
}

impl<'a> BTree<'a> {
    /// Logs a full after-image of `data` (structure changes — splits, root
    /// and meta updates, lazy deletes) and stamps its page LSN.
    fn log_image(&self, data: &mut [u8], blkno: u64) -> DbResult<()> {
        let end = self.wal.append(&crate::wal::WalRecord::PageImage {
            dev: self.dev,
            rel: self.rel,
            blkno,
            image: data.to_vec(),
        })?;
        page::set_lsn(data, end);
        Ok(())
    }

    /// Logs `page::insert_at(data, slot, item)` — the bytes that changed,
    /// wherever in the node the item went — and stamps the page LSN.
    fn log_insert(&self, data: &mut [u8], blkno: u64, slot: u16, item: &[u8]) -> DbResult<()> {
        let end = self.wal.append(&crate::wal::WalRecord::Insert {
            dev: self.dev,
            rel: self.rel,
            blkno,
            slot,
            tuple: item.to_vec(),
        })?;
        page::set_lsn(data, end);
        Ok(())
    }

    /// Initializes `data` as a node holding `items` in order, logs its
    /// image and stamps its page LSN.
    fn write_node<'i>(
        &self,
        data: &mut [u8],
        blkno: u64,
        meta: NodeMeta,
        items: impl IntoIterator<Item = &'i [u8]>,
    ) -> DbResult<()> {
        page::init(data, SPECIAL_SIZE);
        write_node_meta(data, &meta);
        for item in items {
            page::insert(data, item)?;
        }
        self.log_image(data, blkno)
    }

    /// Appends a page to the index and writes a node into it.
    fn new_node<'i>(
        &self,
        meta: NodeMeta,
        items: impl IntoIterator<Item = &'i [u8]>,
    ) -> DbResult<u64> {
        let (blkno, pref) = self.pool.new_page(self.smgr, self.dev, self.rel)?;
        let _order = crate::lock::order::token(crate::lock::order::BTREE_PAGE);
        self.write_node(pref.write().data_mut(), blkno, meta, items)?;
        Ok(blkno)
    }

    /// Initializes an empty index: one page, the empty leaf root.
    pub fn create(&self) -> DbResult<()> {
        if self.smgr.with(self.dev, |m| m.nblocks(self.rel))? != 0 {
            return Err(DbError::Invalid(
                "index relation not empty at create".into(),
            ));
        }
        let root = self.new_node(
            NodeMeta {
                leaf: true,
                right: 0,
            },
            [],
        )?;
        debug_assert_eq!(root, ROOT);
        Ok(())
    }

    /// Descends from the root to the leaf whose range holds `to`: at each
    /// level, the last child whose fence is at or below it (an entry equal
    /// to a fence is the first one under that fence).
    fn descend(&self, to: Pos<'_>) -> DbResult<Descent> {
        let mut blk = ROOT;
        let mut path = Vec::new();
        let mut lower = None;
        loop {
            let pref = self.pool.get_page(self.smgr, self.dev, self.rel, blk)?;
            let _order = crate::lock::order::token(crate::lock::order::BTREE_PAGE);
            let pbuf = pref.read();
            let data = pbuf.data();
            if read_node_meta(data)?.leaf {
                return Ok(Descent {
                    leaf: blk,
                    path,
                    lower,
                });
            }
            // The last fence at or below `to`, found by `slot_for`'s binary
            // search (an internal node has no dead slots); the first child
            // stands in when every fence is above it.
            let slot = Self::slot_for(data, false, to)?.saturating_sub(1);
            let item = page::item(data, slot)
                .ok_or_else(|| DbError::Corrupt("internal node with no children".into()))?;
            path.push(blk);
            blk = crate::bytes::le_u64(split_item(item)?.1, 0)?;
            lower = Some(item.to_vec());
        }
    }

    /// Inserts `(key, tid)`. Duplicate keys are allowed; they sort by tid.
    pub fn insert(&self, key: &[Datum], tid: Tid) -> DbResult<()> {
        self.stats.btree.inserts.bump();
        let at = Pos {
            key,
            tid: Some(tid),
        };
        let item = encode_item(key, &tid.encode());
        let Descent { leaf, path, .. } = self.descend(at)?;
        self.insert_into_node(leaf, path, at, &item)
    }

    /// Inserts an encoded item into a node at position `at`, splitting
    /// upward as needed.
    fn insert_into_node(
        &self,
        blk: u64,
        mut path: Vec<u64>,
        at: Pos<'_>,
        item: &[u8],
    ) -> DbResult<()> {
        let pref = self.pool.get_page(self.smgr, self.dev, self.rel, blk)?;
        let _order = crate::lock::order::token(crate::lock::order::BTREE_PAGE);
        let mut pbuf = pref.write();
        let data = pbuf.data_mut();
        let meta = read_node_meta(data)?;
        if page::fits(data, item.len()) {
            let slot = Self::slot_for(data, meta.leaf, at)?;
            page::insert_at(data, slot, item)?;
            return self.log_insert(data, blk, slot, item);
        }
        // Split: collect all items (plus the new one) in order. The fence
        // for the upper half is the position of its first entry, tid
        // included, so that a run of one key that spans the split is still
        // found on the correct side.
        self.stats.btree.splits.bump();
        let items = Self::items_with(data, meta.leaf, at, item)?;
        let mid = items.len() / 2;
        let lower = items[..mid].iter().map(Vec::as_slice);
        let upper = items[mid..].iter().map(Vec::as_slice);
        // The one key a split decodes: its fence goes to the parent.
        let (split_key, payload) = decode_item(&items[mid])?;
        let split_at = Pos {
            key: &split_key,
            tid: payload_tid(payload, meta.leaf),
        };
        let Some(parent) = path.pop() else {
            // The root stays where it is: both halves move to new pages and
            // block 0 becomes the internal node over them. Its image is
            // logged last, so a log that ends inside the split replays to
            // the unsplit root and two pages nothing points at.
            let right = self.new_node(
                NodeMeta {
                    leaf: meta.leaf,
                    right: 0,
                },
                upper,
            )?;
            let left = self.new_node(
                NodeMeta {
                    leaf: meta.leaf,
                    right,
                },
                lower,
            )?;
            let fences = [encode_fence(Pos::FIRST, left), encode_fence(split_at, right)];
            return self.write_node(
                data,
                blk,
                NodeMeta {
                    leaf: false,
                    right: 0,
                },
                fences.iter().map(Vec::as_slice),
            );
        };
        // Keep the lower half here, move the upper half to a fresh right
        // sibling, and hand the parent its fence.
        let right = self.new_node(
            NodeMeta {
                leaf: meta.leaf,
                right: meta.right,
            },
            upper,
        )?;
        self.write_node(
            data,
            blk,
            NodeMeta {
                leaf: meta.leaf,
                right,
            },
            lower,
        )?;
        drop(pbuf);
        self.insert_into_node(parent, path, split_at, &encode_fence(split_at, right))
    }

    /// Every live item of a node, in order, with `item` added at position
    /// `at`: after everything at or below it.
    fn items_with(data: &[u8], leaf: bool, at: Pos<'_>, item: &[u8]) -> DbResult<Vec<Vec<u8>>> {
        let slot = Self::slot_for(data, leaf, at)?;
        let mut items = Vec::with_capacity(page::nslots(data) as usize + 1);
        let mut pos = 0;
        for (s, it) in page::iter(data) {
            pos += usize::from(s < slot);
            items.push(it.to_vec());
        }
        items.insert(pos, item.to_vec());
        Ok(items)
    }

    /// The slot at which an item at position `at` keeps a node's slot array
    /// in `(key, tid)` order: after everything at or below it.
    fn slot_for(data: &[u8], leaf: bool, at: Pos<'_>) -> DbResult<u16> {
        Self::partition(data, leaf, at, |o| o != Ordering::Greater)
    }

    /// A leaf's first slot, dead or live, at or after `at`.
    fn first_from(data: &[u8], at: Pos<'_>) -> DbResult<u16> {
        Self::partition(data, true, at, |o| o == Ordering::Less)
    }

    /// The first slot whose item's place against `at` is not `before`.
    /// Dead slots were placed in order too and never move relative to their
    /// neighbours, so the whole slot array is sorted and this is a binary
    /// search, each step comparing one item in place.
    fn partition(
        data: &[u8],
        leaf: bool,
        at: Pos<'_>,
        before: impl Fn(Ordering) -> bool,
    ) -> DbResult<u16> {
        let (mut lo, mut hi) = (0, page::nslots(data));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let item = page::item_even_dead(data, mid)
                .ok_or_else(|| DbError::Corrupt(format!("index slot {mid} unreadable")))?;
            if before(cmp_item(item, leaf, at)?) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Structurally verifies the whole tree, returning findings plus every
    /// live leaf entry (for the caller's heap cross-reference).
    ///
    /// Checked invariants: block 0 is a node with no sibling (the root);
    /// every node passes [`page::verify`]; levels are uniform (no leaf mixed
    /// into an internal level); items are in `(key, tid)` order — a leaf
    /// entry's heap tid, a fence's separator tid — within each node *and*
    /// across each level's sibling chain, and every node's items lie at or
    /// above its own fence in the parent and below its right sibling's;
    /// sibling links terminate without cycles; internal payloads are valid
    /// child pointers and leaf payloads are valid tuple ids.
    pub fn check(&self, name: &str) -> (Vec<crate::check::Finding>, Vec<(Key, Tid)>) {
        use crate::check::Finding;
        let mut out = Vec::new();
        let mut entries = Vec::new();
        let nblocks = match self.smgr.with(self.dev, |m| m.nblocks(self.rel)) {
            Ok(n) => n,
            Err(e) => {
                out.push(Finding::new(
                    name,
                    "check-error",
                    format!("cannot size index: {e}"),
                ));
                return (out, entries);
            }
        };
        if nblocks == 0 {
            out.push(Finding::new(name, "btree-root", "index has no root page"));
            return (out, entries);
        }
        let mut visited = std::collections::HashSet::new();
        let mut level_start = ROOT;
        // Child block -> the fence its parent holds for it, one level up.
        let mut fences: std::collections::HashMap<u64, OwnedPos> = Default::default();
        for _depth in 0..64 {
            // Walk one level left-to-right along the sibling chain, then
            // descend to the first node's first child.
            let mut next = Some(level_start);
            let mut level_leaf: Option<bool> = None;
            let mut next_level: Option<u64> = None;
            let mut prev: Option<OwnedPos> = None;
            let mut first_node = true;
            let mut child_fences = std::collections::HashMap::new();
            'chain: while let Some(blk) = next {
                if blk >= nblocks {
                    out.push(Finding::new(
                        name,
                        "btree-link-range",
                        format!("sibling/child link to block {blk} outside [1, {nblocks})"),
                    ));
                    break 'chain;
                }
                if !visited.insert(blk) {
                    out.push(
                        Finding::new(
                            name,
                            "btree-link-cycle",
                            format!("block {blk} reached twice"),
                        )
                        .on_page(blk),
                    );
                    break 'chain;
                }
                let pref = match self.pool.get_page(self.smgr, self.dev, self.rel, blk) {
                    Ok(p) => p,
                    Err(e) => {
                        out.push(
                            Finding::new(name, "check-error", format!("node unreadable: {e}"))
                                .on_page(blk),
                        );
                        break 'chain;
                    }
                };
                let _order = crate::lock::order::token(crate::lock::order::BTREE_PAGE);
                let pbuf = pref.read();
                let data = pbuf.data();
                if !page::is_initialized(data) {
                    out.push(
                        Finding::new(name, "btree-uninitialized-node", "linked node is blank")
                            .on_page(blk),
                    );
                    break 'chain;
                }
                for v in page::verify(data) {
                    out.push(Finding::new(name, "page-invariant", v).on_page(blk));
                }
                let meta = match read_node_meta(data) {
                    Ok(m) => m,
                    Err(e) => {
                        out.push(
                            Finding::new(name, "btree-node-meta", e.to_string()).on_page(blk),
                        );
                        break 'chain;
                    }
                };
                match level_leaf {
                    None => level_leaf = Some(meta.leaf),
                    Some(l) if l != meta.leaf => {
                        out.push(
                            Finding::new(
                                name,
                                "btree-mixed-level",
                                "leaf and internal nodes on one level",
                            )
                            .on_page(blk),
                        );
                        break 'chain;
                    }
                    Some(_) => {}
                }
                let disorder =
                    |detail: String| Finding::new(name, "btree-key-order", detail).on_page(blk);
                let fence = fences.get(&blk);
                if let (Some((fk, ft)), Some((pk, pt))) = (fence, &prev) {
                    // The left sibling's items must all lie below this
                    // node's fence, or a descent looks for them here.
                    if cmp_pos(pk, *pt, Pos { key: fk, tid: *ft }) != Ordering::Less {
                        out.push(disorder(format!(
                            "fence ({fk:?}, {ft:?}) is not above the left sibling's last \
                             item ({pk:?}, {pt:?})"
                        )));
                    }
                }
                for slot in 0..page::nslots(data) {
                    let Some(item) = page::item(data, slot) else {
                        continue; // Dead (lazily deleted) or reported by verify.
                    };
                    let (key, payload) = match decode_item(item) {
                        Ok(kp) => kp,
                        Err(e) => {
                            out.push(
                                Finding::new(name, "btree-item-undecodable", e.to_string())
                                    .on_page(blk)
                                    .on_slot(slot),
                            );
                            continue;
                        }
                    };
                    let tid = payload_tid(payload, meta.leaf);
                    let here = Pos { key: &key, tid };
                    if let Some((pk, pt)) = &prev {
                        if cmp_pos(pk, *pt, here) == Ordering::Greater {
                            out.push(
                                disorder(format!(
                                    "({key:?}, {tid:?}) sorts before its predecessor \
                                     ({pk:?}, {pt:?})"
                                ))
                                .on_slot(slot),
                            );
                        }
                    }
                    if let Some((fk, ft)) = fence {
                        if cmp_pos(fk, *ft, here) == Ordering::Greater {
                            out.push(
                                disorder(format!(
                                    "({key:?}, {tid:?}) sorts before its node's fence \
                                     ({fk:?}, {ft:?}): a descent cannot reach it"
                                ))
                                .on_slot(slot),
                            );
                        }
                    }
                    prev = Some((key.clone(), tid));
                    if meta.leaf {
                        match Tid::decode(payload) {
                            Some(tid) => entries.push((key, tid)),
                            None => out.push(
                                Finding::new(
                                    name,
                                    "btree-bad-leaf-payload",
                                    format!("{} payload bytes, want 6", payload.len()),
                                )
                                .on_page(blk)
                                .on_slot(slot),
                            ),
                        }
                    } else {
                        match crate::bytes::le_u64(payload, 0) {
                            Ok(child) => {
                                if child == 0 || child >= nblocks {
                                    out.push(
                                        Finding::new(
                                            name,
                                            "btree-link-range",
                                            format!(
                                                "child pointer {child} outside [1, {nblocks})"
                                            ),
                                        )
                                        .on_page(blk)
                                        .on_slot(slot),
                                    );
                                } else {
                                    if first_node && next_level.is_none() {
                                        next_level = Some(child);
                                    }
                                    child_fences.insert(child, (key, tid));
                                }
                            }
                            Err(_) => out.push(
                                Finding::new(
                                    name,
                                    "btree-bad-child-payload",
                                    format!("{} payload bytes, want 8 or 14", payload.len()),
                                )
                                .on_page(blk)
                                .on_slot(slot),
                            ),
                        }
                    }
                }
                if blk == ROOT && meta.right != 0 {
                    out.push(
                        Finding::new(
                            name,
                            "btree-root",
                            format!("the root has a right sibling, block {}", meta.right),
                        )
                        .on_page(ROOT),
                    );
                    break 'chain;
                }
                first_node = false;
                next = (meta.right != 0).then_some(meta.right);
            }
            fences = child_fences;
            match (level_leaf, next_level) {
                (Some(true), _) | (None, _) => return (out, entries),
                (Some(false), Some(next)) => level_start = next,
                (Some(false), None) => {
                    out.push(Finding::new(
                        name,
                        "btree-no-children",
                        "internal level has no usable child pointer",
                    ));
                    return (out, entries);
                }
            }
        }
        out.push(Finding::new(
            name,
            "btree-depth",
            "tree deeper than 64 levels (probable pointer loop)",
        ));
        (out, entries)
    }

    /// Returns every tuple id stored under exactly `key`, oldest first.
    pub fn search(&self, key: &[Datum]) -> DbResult<Vec<Tid>> {
        let mut out = Vec::new();
        self.scan(Some(key), Some(key), |_, tid| {
            out.push(tid);
            Ok(true)
        })?;
        Ok(out)
    }

    /// Scans keys in `[lo, hi]` (both inclusive; `None` = unbounded),
    /// calling `f(key, tid)` in `(key, tid)` order. `f` returns `false` to
    /// stop.
    pub fn scan(
        &self,
        lo: Option<&[Datum]>,
        hi: Option<&[Datum]>,
        mut f: impl FnMut(&[Datum], Tid) -> DbResult<bool>,
    ) -> DbResult<()> {
        self.stats.btree.searches.bump();
        let lo = lo.map_or(Pos::FIRST, |key| Pos { key, tid: None });
        let hi = hi.map(|key| Pos {
            key,
            tid: Some(Tid::MAX),
        });
        let from = self.descend(lo)?.leaf;
        let take = |kbytes: &[u8], tid| Ok((decode_row(kbytes)?, tid));
        self.walk(from, lo, hi, take, |hits| {
            for (k, tid) in hits {
                if !f(&k, tid)? {
                    return Ok(false);
                }
            }
            Ok(true)
        })
    }

    /// Calls `f(tid)` for every entry stored under exactly `key`, newest
    /// (largest tid) first; `f` returns `false` to stop.
    ///
    /// Descends to the end of the key's run and yields that leaf's part of
    /// it backwards. There are no left links: when the leaf's own fence lies
    /// inside the run, the rest is to the left, and the walk descends again
    /// to just below that fence. Like [`BTree::scan`] it holds no latch
    /// while `f` runs.
    pub fn scan_key_newest_first(
        &self,
        key: &[Datum],
        mut f: impl FnMut(Tid) -> DbResult<bool>,
    ) -> DbResult<()> {
        self.stats.btree.searches.bump();
        let mut upto = Tid::MAX;
        loop {
            let end = Pos {
                key,
                tid: Some(upto),
            };
            let d = self.descend(end)?;
            let mut run = Vec::new();
            let take = |_: &[u8], tid| Ok(tid);
            self.walk(d.leaf, Pos { key, tid: None }, Some(end), take, |hits| {
                run.extend(hits);
                Ok(true)
            })?;
            for tid in run.into_iter().rev() {
                if !f(tid)? {
                    return Ok(());
                }
            }
            let Some(fence) = d.lower else {
                return Ok(());
            };
            let (fence_key, payload) = split_item(&fence)?;
            let fence_tid = match payload_tid(payload, false) {
                Some(t) if cmp_encoded_row(fence_key, key)? == Ordering::Equal => t,
                _ => return Ok(()),
            };
            match tid_before(fence_tid) {
                Some(t) => upto = t,
                None => return Ok(()),
            }
        }
    }

    /// Whether the entry `(key, tid)` is present: one descent, however many
    /// versions the key has.
    pub fn contains(&self, key: &[Datum], tid: Tid) -> DbResult<bool> {
        self.stats.btree.searches.bump();
        let at = Pos {
            key,
            tid: Some(tid),
        };
        let mut found = false;
        let take = |_: &[u8], tid| Ok(tid);
        self.walk(self.descend(at)?.leaf, at, Some(at), take, |hits| {
            found |= !hits.is_empty();
            Ok(true)
        })?;
        Ok(found)
    }

    /// Walks leaves rightward from `from`, handing `batch` each leaf's live
    /// entries within `[lo, hi]`, each as `take(encoded key, tid)` makes it,
    /// until an entry sorts after `hi`, the chain ends, or `batch` returns
    /// `false`. In each leaf it starts at the binary-searched first slot at
    /// or after `lo` and compares entries in place, so only `take` decodes
    /// a key. It always looks one leaf past the last entry at or below
    /// `hi`, so a split that moved entries right between the caller's
    /// descent and this read loses nothing; a root that split in that
    /// window is descended again, to `lo`.
    fn walk<T>(
        &self,
        from: u64,
        lo: Pos<'_>,
        hi: Option<Pos<'_>>,
        mut take: impl FnMut(&[u8], Tid) -> DbResult<T>,
        mut batch: impl FnMut(Vec<T>) -> DbResult<bool>,
    ) -> DbResult<()> {
        let mut blk = from;
        loop {
            let pref = self.pool.get_page(self.smgr, self.dev, self.rel, blk)?;
            let mut hits = Vec::new();
            let right;
            let mut past_hi = false;
            {
                let _order = crate::lock::order::token(crate::lock::order::BTREE_PAGE);
                let pbuf = pref.read();
                let data = pbuf.data();
                let meta = read_node_meta(data)?;
                if !meta.leaf {
                    // Only the root changes kind, and only under a reader
                    // that takes no relation lock: it split, in place,
                    // between that reader's descent and this read.
                    drop(pbuf);
                    blk = self.descend(lo)?.leaf;
                    continue;
                }
                right = meta.right;
                for slot in Self::first_from(data, lo)?..page::nslots(data) {
                    let Some(item) = page::item(data, slot) else {
                        continue; // Dead (lazily deleted).
                    };
                    if let Some(hi) = hi {
                        if cmp_item(item, true, hi)? == Ordering::Greater {
                            past_hi = true;
                            break;
                        }
                    }
                    let (kbytes, payload) = split_item(item)?;
                    let tid = payload_tid(payload, true)
                        .ok_or_else(|| DbError::Corrupt("bad tid in leaf".into()))?;
                    hits.push(take(kbytes, tid)?);
                }
            }
            // The callback fetches heap pages, so it must run with the
            // btree latch released (heap-page ranks below btree-page).
            if !batch(hits)? || past_hi || right == 0 {
                return Ok(());
            }
            blk = right;
        }
    }

    /// Removes the entry `(key, tid)` if present; returns whether it was.
    pub fn delete(&self, key: &[Datum], tid: Tid) -> DbResult<bool> {
        let at = Pos {
            key,
            tid: Some(tid),
        };
        let mut blk = self.descend(at)?.leaf;
        loop {
            let pref = self.pool.get_page(self.smgr, self.dev, self.rel, blk)?;
            let _order = crate::lock::order::token(crate::lock::order::BTREE_PAGE);
            let mut pbuf = pref.write();
            let data = pbuf.data_mut();
            let meta = read_node_meta(data)?;
            // The first live entry at or after `at` is it, or it is absent.
            for s in Self::first_from(data, at)?..page::nslots(data) {
                let Some(item) = page::item(data, s) else {
                    continue;
                };
                if cmp_item(item, true, at)? != Ordering::Equal {
                    return Ok(false);
                }
                page::set_dead(data, s)?;
                self.log_image(data, blk)?;
                return Ok(true);
            }
            if meta.right == 0 {
                return Ok(false);
            }
            blk = meta.right;
        }
    }

    /// Total live entries (walks every leaf; for tests and vacuum stats).
    pub fn len(&self) -> DbResult<usize> {
        let mut n = 0;
        self.scan(None, None, |_, _| {
            n += 1;
            Ok(true)
        })?;
        Ok(n)
    }

    /// Whether the index has no live entries.
    pub fn is_empty(&self) -> DbResult<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Oid;
    use crate::xact::rig::Rig;

    struct Fixture {
        rig: Rig,
        rel: RelId,
        stats: StatsRegistry,
    }

    impl Fixture {
        fn new() -> Fixture {
            let rig = Rig::new(1 << 10);
            let rel = Oid(60);
            rig.smgr.with(DeviceId::DEFAULT, |m| m.create_rel(rel)).unwrap();
            let fx = Fixture {
                rig,
                rel,
                stats: StatsRegistry::new(),
            };
            fx.btree().create().unwrap();
            fx
        }

        fn btree(&self) -> BTree<'_> {
            BTree {
                wal: &self.rig.wal,
                pool: &self.rig.pool,
                smgr: &self.rig.smgr,
                dev: DeviceId::DEFAULT,
                rel: self.rel,
                stats: &self.stats,
            }
        }
    }

    fn ikey(n: i32) -> Key {
        vec![Datum::Int4(n)]
    }

    /// Datums of every kind from small value spaces, so that equal keys,
    /// mixed-numeric ties (`Int4(1)`, `Int8(1)`, `Float8(1.0)`) and
    /// cross-type pairs (text against the same bytes) all come up.
    fn datum() -> impl proptest::strategy::Strategy<Value = Datum> {
        use proptest::prelude::*;
        let text = |v: Vec<u8>| v.into_iter().map(|b| ['a', 'b', 'é'][usize::from(b)]).collect();
        prop_oneof![
            Just(Datum::Null),
            prop::bool::ANY.prop_map(Datum::Bool),
            (-2..3i32).prop_map(Datum::Int4),
            (-2..3i64).prop_map(Datum::Int8),
            (-4..5i32).prop_map(|v| Datum::Float8(f64::from(v) / 2.0)),
            Just(Datum::Float8(f64::NAN)),
            (0..3u32).prop_map(Datum::Oid),
            (0..3u64).prop_map(Datum::Time),
            prop::collection::vec(0..3u8, 0..3).prop_map(move |v| Datum::Text(text(v))),
            prop::collection::vec(0..3u8, 0..3)
                .prop_map(|v| Datum::Bytes(v.into_iter().map(|b| b"ab\xc3"[usize::from(b)]).collect())),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        #[test]
        fn comparing_in_place_equals_comparing_decoded(
            row in proptest::prop::collection::vec(datum(), 0..4),
            other in proptest::prop::collection::vec(datum(), 0..4),
            prefix in (proptest::prop::bool::ANY, 0..4usize),
            tids in (0..3u32, 0..3u32),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            // Half the probes are a prefix of the row, as a range bound is.
            let key = if prefix.0 { row[..prefix.1.min(row.len())].to_vec() } else { other };
            let enc = encode_row(&row);
            prop_assert_eq!(cmp_encoded_row(&enc, &key).unwrap(), cmp_keys(&row, &key));
            for len in 0..enc.len() {
                let cut = cmp_encoded_row(&enc[..len], &key);
                prop_assert!(matches!(cut, Err(DbError::Corrupt(_))), "cut at {}: {:?}", len, cut);
            }
            let tid = Tid::new(tids.0, 0);
            let item = encode_item(&row, &tid.encode());
            let key_end = item.len() - tid.encode().len();
            for at_tid in [None, Some(Tid::new(tids.1, 0)), Some(Tid::MAX)] {
                let at = Pos { key: &key, tid: at_tid };
                prop_assert_eq!(cmp_item(&item, true, at).unwrap(), cmp_pos(&row, Some(tid), at));
                // A cut into the key is corrupt; a cut tid reads as none,
                // as it does decoded.
                for len in 0..item.len() {
                    let cut = cmp_item(&item[..len], true, at);
                    if len < key_end {
                        prop_assert!(matches!(cut, Err(DbError::Corrupt(_))), "cut at {}: {:?}", len, cut);
                    } else {
                        prop_assert_eq!(cut.unwrap(), cmp_pos(&row, None, at));
                    }
                }
            }
        }
    }

    #[test]
    fn empty_tree_finds_nothing() {
        let fx = Fixture::new();
        let bt = fx.btree();
        assert!(bt.search(&ikey(5)).unwrap().is_empty());
        assert!(bt.is_empty().unwrap());
    }

    #[test]
    fn insert_and_point_lookup() {
        let fx = Fixture::new();
        let bt = fx.btree();
        for i in 0..100 {
            bt.insert(&ikey(i), Tid::new(i as u32, 0)).unwrap();
        }
        for i in 0..100 {
            let hits = bt.search(&ikey(i)).unwrap();
            assert_eq!(hits, vec![Tid::new(i as u32, 0)], "key {i}");
        }
        assert!(bt.search(&ikey(100)).unwrap().is_empty());
        assert_eq!(bt.len().unwrap(), 100);
    }

    #[test]
    fn survives_many_splits_sequential() {
        let fx = Fixture::new();
        let bt = fx.btree();
        let n = 5000;
        for i in 0..n {
            bt.insert(&ikey(i), Tid::new(i as u32, (i % 7) as u16))
                .unwrap();
        }
        assert_eq!(bt.len().unwrap(), n as usize);
        for i in (0..n).step_by(97) {
            assert_eq!(
                bt.search(&ikey(i)).unwrap(),
                vec![Tid::new(i as u32, (i % 7) as u16)]
            );
        }
    }

    #[test]
    fn survives_many_splits_random_order() {
        let fx = Fixture::new();
        let bt = fx.btree();
        // Deterministic pseudo-random permutation of 0..4000.
        let n = 4000u32;
        let mut keys: Vec<u32> = (0..n).map(|i| i.wrapping_mul(2654435761) % n).collect();
        keys.sort_unstable();
        keys.dedup();
        let inserted = keys.clone();
        for &k in &inserted {
            bt.insert(&ikey(k as i32), Tid::new(k, 1)).unwrap();
        }
        for &k in inserted.iter().step_by(53) {
            assert_eq!(bt.search(&ikey(k as i32)).unwrap(), vec![Tid::new(k, 1)]);
        }
        assert_eq!(bt.len().unwrap(), inserted.len());
    }

    #[test]
    fn op_counters_track_inserts_searches_splits() {
        let fx = Fixture::new();
        let bt = fx.btree();
        for i in 0..2000 {
            bt.insert(&ikey(i), Tid::new(i as u32, 0)).unwrap();
        }
        assert_eq!(fx.stats.btree.inserts.get(), 2000);
        assert!(fx.stats.btree.splits.get() > 0, "2000 keys must split");
        let before = fx.stats.btree.searches.get();
        bt.search(&ikey(7)).unwrap();
        assert_eq!(fx.stats.btree.searches.get(), before + 1);
    }

    #[test]
    fn duplicates_all_returned() {
        let fx = Fixture::new();
        let bt = fx.btree();
        for v in 0..20u16 {
            bt.insert(&ikey(7), Tid::new(100, v)).unwrap();
        }
        bt.insert(&ikey(6), Tid::new(1, 0)).unwrap();
        bt.insert(&ikey(8), Tid::new(2, 0)).unwrap();
        let hits = bt.search(&ikey(7)).unwrap();
        assert_eq!(hits.len(), 20);
    }

    #[test]
    fn duplicates_across_page_splits() {
        let fx = Fixture::new();
        let bt = fx.btree();
        // Enough duplicates of one key to span several leaves.
        for v in 0..2000u32 {
            bt.insert(&ikey(42), Tid::new(v, 0)).unwrap();
        }
        assert_eq!(bt.search(&ikey(42)).unwrap().len(), 2000);
        assert!(bt.search(&ikey(41)).unwrap().is_empty());
        assert!(bt.search(&ikey(43)).unwrap().is_empty());
    }

    fn newest_first(bt: &BTree<'_>, key: &Key) -> Vec<Tid> {
        let mut out = Vec::new();
        bt.scan_key_newest_first(key, |tid| {
            out.push(tid);
            Ok(true)
        })
        .unwrap();
        out
    }

    #[test]
    fn a_long_run_stays_tid_ordered_across_leaf_splits() {
        let fx = Fixture::new();
        let bt = fx.btree();
        // Neighbours on both sides, then 2 000 versions of one key, oldest
        // first as the heap hands them out: the run splits many times.
        bt.insert(&ikey(41), Tid::new(0, 0)).unwrap();
        bt.insert(&ikey(43), Tid::new(0, 1)).unwrap();
        let tids: Vec<Tid> = (0..2000u32).map(|v| Tid::new(1 + v / 4, (v % 4) as u16)).collect();
        for &tid in &tids {
            bt.insert(&ikey(42), tid).unwrap();
        }
        assert!(fx.stats.btree.splits.get() >= 4, "the run must span leaves");
        assert_eq!(bt.search(&ikey(42)).unwrap(), tids, "ascending tid order");
        let (findings, entries) = bt.check("t");
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(entries.len(), 2002);
        assert!(entries.windows(2).all(|w| {
            let (k, t) = &w[1];
            cmp_pos(&w[0].0, Some(w[0].1), Pos { key: k, tid: Some(*t) }) == Ordering::Less
        }));
    }

    #[test]
    fn newest_first_crosses_leaves_and_stops_on_request() {
        let fx = Fixture::new();
        let bt = fx.btree();
        let tids: Vec<Tid> = (0..2000u32).map(|v| Tid::new(v, 0)).collect();
        for &tid in &tids {
            bt.insert(&ikey(42), tid).unwrap();
        }
        let mut want = tids.clone();
        want.reverse();
        assert_eq!(newest_first(&bt, &ikey(42)), want);
        assert!(newest_first(&bt, &ikey(41)).is_empty());
        assert!(newest_first(&bt, &ikey(43)).is_empty());
        // Stopping at the first entry reads one leaf, not the run.
        let accesses = || {
            let s = fx.rig.pool.stats();
            s.hits + s.misses
        };
        let before = accesses();
        let mut seen = Vec::new();
        bt.scan_key_newest_first(&ikey(42), |tid| {
            seen.push(tid);
            Ok(false)
        })
        .unwrap();
        assert_eq!(seen, [Tid::new(1999, 0)]);
        let pages = accesses() - before;
        assert!(pages <= 3, "root, then the leaf for the descent and the walk, not {pages} pages");
    }

    #[test]
    fn newest_first_goes_on_left_of_a_leaf_whose_part_of_the_run_is_deleted() {
        let fx = Fixture::new();
        let bt = fx.btree();
        for v in 0..2000u32 {
            bt.insert(&ikey(42), Tid::new(v, 0)).unwrap();
        }
        // Lazily delete the newest 700 entries: at least one whole leaf of
        // the run is now empty, and the walk must still find what is left.
        for v in 1300..2000u32 {
            assert!(bt.delete(&ikey(42), Tid::new(v, 0)).unwrap());
        }
        let want: Vec<Tid> = (0..1300u32).rev().map(|v| Tid::new(v, 0)).collect();
        assert_eq!(newest_first(&bt, &ikey(42)), want);
    }

    #[test]
    fn interleaved_keys_keep_to_their_own_runs() {
        let fx = Fixture::new();
        let bt = fx.btree();
        // Versions of 40 keys arrive round-robin, as overwrites of a file's
        // chunks do; every run ends up interleaved with the others' splits.
        let mut want: Vec<Vec<Tid>> = vec![Vec::new(); 40];
        for v in 0..4000u32 {
            let k = (v * 7) % 40;
            let tid = Tid::new(v, (v % 3) as u16);
            bt.insert(&ikey(k as i32), tid).unwrap();
            want[k as usize].push(tid);
        }
        for (k, run) in want.iter().enumerate() {
            assert_eq!(&bt.search(&ikey(k as i32)).unwrap(), run, "key {k}");
            let mut newest = run.clone();
            newest.reverse();
            assert_eq!(newest_first(&bt, &ikey(k as i32)), newest, "key {k}");
            for &tid in run.iter().step_by(17) {
                assert!(bt.contains(&ikey(k as i32), tid).unwrap());
                assert!(!bt.contains(&ikey(k as i32 + 1), tid).unwrap());
            }
        }
        assert!(!bt.contains(&ikey(3), Tid::MAX).unwrap());
        let (findings, _) = bt.check("t");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn check_reports_a_run_out_of_tid_order() {
        let fx = Fixture::new();
        let bt = fx.btree();
        for v in 0..10u32 {
            bt.insert(&ikey(7), Tid::new(v, 0)).unwrap();
        }
        assert!(bt.check("t").0.is_empty());
        // Append a version whose tid is below the run's last, behind
        // `insert`'s back: equal keys, so only the tiebreak can object.
        let pref = fx.rig.pool.get_page(&fx.rig.smgr, DeviceId::DEFAULT, fx.rel, ROOT).unwrap();
        page::insert(
            pref.write().data_mut(),
            &encode_item(&ikey(7), &Tid::new(3, 1).encode()),
        )
        .unwrap();
        let (findings, _) = bt.check("t");
        assert!(
            findings.iter().any(|f| f.code == "btree-key-order"),
            "{findings:?}"
        );
    }

    #[test]
    fn check_reports_a_fence_that_hides_entries() {
        let fx = Fixture::new();
        let bt = fx.btree();
        for v in 0..2000u32 {
            bt.insert(&ikey(42), Tid::new(v, 0)).unwrap();
        }
        assert!(bt.check("t").0.is_empty());
        // Drop the tids from the root's fences: every fence of the run now
        // sorts below the entries of the leaf to its left.
        let pref = fx.rig.pool.get_page(&fx.rig.smgr, DeviceId::DEFAULT, fx.rel, ROOT).unwrap();
        {
            let mut pbuf = pref.write();
            let data = pbuf.data_mut();
            let meta = read_node_meta(data).unwrap();
            assert!(!meta.leaf);
            let fences: Vec<Vec<u8>> = page::iter(data)
                .map(|(_, it)| {
                    let (k, payload) = decode_item(it).unwrap();
                    encode_item(&k, &payload[..8])
                })
                .collect();
            page::init(data, SPECIAL_SIZE);
            write_node_meta(data, &meta);
            for f in &fences {
                page::insert(data, f).unwrap();
            }
        }
        let (findings, _) = bt.check("t");
        assert!(
            findings.iter().any(|f| f.code == "btree-key-order"),
            "{findings:?}"
        );
        assert!(!bt.contains(&ikey(42), Tid::new(10, 0)).unwrap());
    }

    #[test]
    fn range_scan_in_order() {
        let fx = Fixture::new();
        let bt = fx.btree();
        for i in (0..1000).rev() {
            bt.insert(&ikey(i), Tid::new(i as u32, 0)).unwrap();
        }
        let mut seen = Vec::new();
        bt.scan(Some(&ikey(100)), Some(&ikey(199)), |k, _| {
            seen.push(k[0].as_int().unwrap());
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen.len(), 100);
        assert!(seen.windows(2).all(|w| w[0] <= w[1]), "sorted order");
        assert_eq!(*seen.first().unwrap(), 100);
        assert_eq!(*seen.last().unwrap(), 199);
    }

    #[test]
    fn unbounded_scans() {
        let fx = Fixture::new();
        let bt = fx.btree();
        for i in 0..50 {
            bt.insert(&ikey(i), Tid::new(i as u32, 0)).unwrap();
        }
        let mut below = Vec::new();
        bt.scan(None, Some(&ikey(9)), |k, _| {
            below.push(k[0].as_int().unwrap());
            Ok(true)
        })
        .unwrap();
        assert_eq!(below, (0..10).collect::<Vec<_>>());
        let mut above = Vec::new();
        bt.scan(Some(&ikey(45)), None, |k, _| {
            above.push(k[0].as_int().unwrap());
            Ok(true)
        })
        .unwrap();
        assert_eq!(above, (45..50).collect::<Vec<_>>());
    }

    #[test]
    fn scan_early_stop() {
        let fx = Fixture::new();
        let bt = fx.btree();
        for i in 0..100 {
            bt.insert(&ikey(i), Tid::new(i as u32, 0)).unwrap();
        }
        let mut n = 0;
        bt.scan(None, None, |_, _| {
            n += 1;
            Ok(n < 5)
        })
        .unwrap();
        assert_eq!(n, 5);
    }

    #[test]
    fn delete_specific_entry_among_duplicates() {
        let fx = Fixture::new();
        let bt = fx.btree();
        for v in 0..5u16 {
            bt.insert(&ikey(7), Tid::new(1, v)).unwrap();
        }
        assert!(bt.delete(&ikey(7), Tid::new(1, 2)).unwrap());
        let hits = bt.search(&ikey(7)).unwrap();
        assert_eq!(hits.len(), 4);
        assert!(!hits.contains(&Tid::new(1, 2)));
        // Deleting again: not found.
        assert!(!bt.delete(&ikey(7), Tid::new(1, 2)).unwrap());
        assert!(!bt.delete(&ikey(99), Tid::new(0, 0)).unwrap());
    }

    #[test]
    fn composite_keys() {
        let fx = Fixture::new();
        let bt = fx.btree();
        let key = |p: u32, name: &str| vec![Datum::Oid(p), Datum::Text(name.into())];
        bt.insert(&key(810, "passwd"), Tid::new(1, 0)).unwrap();
        bt.insert(&key(810, "group"), Tid::new(2, 0)).unwrap();
        bt.insert(&key(811, "passwd"), Tid::new(3, 0)).unwrap();
        assert_eq!(
            bt.search(&key(810, "passwd")).unwrap(),
            vec![Tid::new(1, 0)]
        );
        assert_eq!(bt.search(&key(810, "group")).unwrap(), vec![Tid::new(2, 0)]);
        // Prefix range scan over parent 810.
        let mut names = Vec::new();
        bt.scan(
            Some(&[Datum::Oid(810)]),
            Some(&[Datum::Oid(810), Datum::Text("\u{10FFFF}".into())]),
            |k, _| {
                names.push(k[1].as_text().unwrap().to_string());
                Ok(true)
            },
        )
        .unwrap();
        assert_eq!(names, vec!["group", "passwd"]);
    }

    #[test]
    fn text_keys_sort_lexicographically() {
        let fx = Fixture::new();
        let bt = fx.btree();
        for name in ["zebra", "alpha", "monkey", "aardvark"] {
            bt.insert(&[Datum::Text(name.into())], Tid::new(0, 0))
                .unwrap();
        }
        let mut seen = Vec::new();
        bt.scan(None, None, |k, _| {
            seen.push(k[0].as_text().unwrap().to_string());
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen, vec!["aardvark", "alpha", "monkey", "zebra"]);
    }

    #[test]
    fn interleaved_insert_search_delete() {
        let fx = Fixture::new();
        let bt = fx.btree();
        let mut live = std::collections::HashSet::new();
        for round in 0..1000u32 {
            let k = (round * 37) % 257;
            if round % 3 == 2 && live.contains(&k) {
                assert!(bt.delete(&ikey(k as i32), Tid::new(k, 0)).unwrap());
                live.remove(&k);
            } else if !live.contains(&k) {
                bt.insert(&ikey(k as i32), Tid::new(k, 0)).unwrap();
                live.insert(k);
            }
        }
        for k in 0..257u32 {
            let hits = bt.search(&ikey(k as i32)).unwrap();
            assert_eq!(hits.len(), usize::from(live.contains(&k)), "key {k}");
        }
    }
}
