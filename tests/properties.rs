//! Property-based tests: the Inversion file API against an in-memory model,
//! plus invariants on the codec and chunk layers.

mod common;

use common::Devices;
use inversion::{compress, CreateMode, InversionFs, OpenMode, SeekWhence, CHUNK_SIZE};
use proptest::prelude::*;

/// Operations the model understands.
#[derive(Debug, Clone)]
enum Op {
    Write { offset: u64, data: Vec<u8> },
    Read { offset: u64, len: usize },
    Seal, // Commit and reopen the file.
}

fn op_strategy(max_file: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..max_file, prop::collection::vec(any::<u8>(), 1..2000))
            .prop_map(|(offset, data)| Op::Write { offset, data }),
        (0..max_file, 1..3000usize).prop_map(|(offset, len)| Op::Read { offset, len }),
        Just(Op::Seal),
    ]
}

/// A trivial reference model: a growable byte vector.
#[derive(Default)]
struct Model {
    bytes: Vec<u8>,
}

impl Model {
    fn write(&mut self, offset: u64, data: &[u8]) {
        let end = offset as usize + data.len();
        if self.bytes.len() < end {
            self.bytes.resize(end, 0);
        }
        self.bytes[offset as usize..end].copy_from_slice(data);
    }

    fn read(&self, offset: u64, len: usize) -> Vec<u8> {
        let off = offset as usize;
        if off >= self.bytes.len() {
            return Vec::new();
        }
        self.bytes[off..(off + len).min(self.bytes.len())].to_vec()
    }
}

fn run_ops_against_model(ops: Vec<Op>, compressed: bool) {
    let fs = InversionFs::format(Devices::new().format()).unwrap();
    let mut c = fs.client();
    let mode = if compressed {
        CreateMode::default().compressed()
    } else {
        CreateMode::default()
    };
    c.p_begin().unwrap();
    let mut fd = c.p_creat("/model", mode).unwrap();
    let mut model = Model::default();

    for op in ops {
        match op {
            Op::Write { offset, data } => {
                c.p_lseek(fd, offset as i64, SeekWhence::Set).unwrap();
                c.p_write(fd, &data).unwrap();
                model.write(offset, &data);
            }
            Op::Read { offset, len } => {
                c.p_lseek(fd, offset as i64, SeekWhence::Set).unwrap();
                let mut buf = vec![0u8; len];
                let n = c.p_read(fd, &mut buf).unwrap();
                assert_eq!(
                    &buf[..n],
                    &model.read(offset, len)[..],
                    "read at {offset}+{len}"
                );
            }
            Op::Seal => {
                c.p_close(fd).unwrap();
                c.p_commit().unwrap();
                c.p_begin().unwrap();
                fd = c.p_open("/model", OpenMode::ReadWrite, None).unwrap();
            }
        }
    }
    // Final full-file comparison after commit.
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();
    let all = c.read_to_vec("/model", None).unwrap();
    assert_eq!(all, model.bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn file_api_matches_byte_vector_model(
        ops in prop::collection::vec(op_strategy(3 * CHUNK_SIZE as u64), 1..25)
    ) {
        run_ops_against_model(ops, false);
    }

    #[test]
    fn compressed_files_match_model_too(
        ops in prop::collection::vec(op_strategy(2 * CHUNK_SIZE as u64), 1..15)
    ) {
        run_ops_against_model(ops, true);
    }

    #[test]
    fn compression_roundtrips_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..9000)) {
        let c = compress::compress(&data);
        let d = compress::decompress(&c);
        prop_assert_eq!(d.as_deref(), Some(&data[..]));
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        let _ = compress::decompress(&data);
    }

    #[test]
    fn split_range_partitions_exactly(offset in 0u64..10_000_000, len in 0usize..100_000) {
        let parts = inversion::chunk::split_range(inversion::CHUNK_SIZE, offset, len);
        // Lengths sum to the request.
        prop_assert_eq!(parts.iter().map(|p| p.2).sum::<usize>(), len);
        // Pieces are contiguous and in order.
        let mut pos = offset;
        for (chunkno, start, take) in parts {
            prop_assert_eq!(chunkno as u64 * CHUNK_SIZE as u64 + start as u64, pos);
            prop_assert!(start + take <= CHUNK_SIZE);
            pos += take as u64;
        }
    }

    #[test]
    fn row_codec_roundtrips(
        ints in prop::collection::vec(any::<i64>(), 0..6),
        text in ".{0,80}",
        blob in prop::collection::vec(any::<u8>(), 0..500),
    ) {
        let mut row: Vec<minidb::Datum> = ints.into_iter().map(minidb::Datum::Int8).collect();
        row.push(minidb::Datum::Text(text));
        row.push(minidb::Datum::Bytes(blob));
        row.push(minidb::Datum::Null);
        let enc = minidb::encode_row(&row);
        prop_assert_eq!(minidb::decode_row(&enc).unwrap(), row);
    }

    #[test]
    fn btree_agrees_with_sorted_map(keys in prop::collection::vec(0i32..500, 1..120)) {
        let db = minidb::Db::open_in_memory().unwrap();
        let rel = db.create_table(
            "t",
            minidb::Schema::new([("k", minidb::TypeId::INT4)]),
        ).unwrap();
        let idx = db.create_index("t_k", rel, &["k"]).unwrap();
        let mut s = db.begin().unwrap();
        let mut counts = std::collections::BTreeMap::new();
        for k in &keys {
            s.insert(rel, vec![minidb::Datum::Int4(*k)]).unwrap();
            *counts.entry(*k).or_insert(0usize) += 1;
        }
        for (k, n) in counts {
            let hits = s.index_scan_eq(idx, &[minidb::Datum::Int4(k)]).unwrap();
            prop_assert_eq!(hits.len(), n, "key {}", k);
        }
        s.commit().unwrap();
    }
}

// A B-tree's root never moves: wide keys (seven or so to a node) make a few
// hundred inserts, with lazy deletes among them, split the root at least
// twice, and after every split the verifier must find the whole tree —
// every entry, in order — by starting from block 0.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn the_root_is_block_0_through_every_split(
        ops in prop::collection::vec((0u16..300, 0u8..4), 350..450),
    ) {
        use minidb::btree::BTree;
        use minidb::buffer::BufferPool;
        use minidb::smgr::{shared_device, GenericManager, Smgr};
        use minidb::stats::StatsRegistry;
        use minidb::{page, Datum, DeviceId, Oid, Tid};
        use simdev::{DiskProfile, MagneticDisk, SimClock};

        let (dev, rel) = (DeviceId::DEFAULT, Oid(42));
        let disk = shared_device(MagneticDisk::new(
            "prop", SimClock::new(), DiskProfile::tiny_for_tests(4096),
        ));
        let mut smgr = Smgr::new();
        smgr.register(dev, Box::new(GenericManager::format(disk).unwrap())).unwrap();
        smgr.with(dev, |m| m.create_rel(rel)).unwrap();
        let (pool, stats) = (BufferPool::new(64), StatsRegistry::new());
        let log = shared_device(MagneticDisk::new(
            "log", SimClock::new(), DiskProfile::tiny_for_tests(1 << 10),
        ));
        let wal = minidb::Wal::create(log, Default::default()).unwrap();
        let bt = BTree { pool: &pool, smgr: &smgr, dev, rel, stats: &stats, wal: &wal };
        bt.create().unwrap();
        let nblocks = || smgr.with(dev, |m| m.nblocks(rel)).unwrap();
        prop_assert_eq!(nblocks(), 1, "an empty index is its root and nothing else");

        let key = |k: u16| vec![Datum::Text(format!("{k:0>1000}"))];
        let mut model = std::collections::BTreeSet::new();
        for (i, (k, kill)) in ops.into_iter().enumerate() {
            let splits = stats.btree.splits.get();
            let tid = Tid::new(i as u32, 0);
            bt.insert(&key(k), tid).unwrap();
            model.insert((k, tid));
            if kill == 0 {
                // Lazily delete the entry at or after this one's key.
                let victim = *model.range((k, Tid::new(0, 0))..).next().unwrap();
                prop_assert!(bt.delete(&key(victim.0), victim.1).unwrap());
                model.remove(&victim);
            }
            if stats.btree.splits.get() > splits {
                let (findings, entries) = bt.check("t");
                prop_assert!(findings.is_empty(), "after split {}: {:?}", splits + 1, findings);
                let found: Vec<(Vec<Datum>, Tid)> = model.iter().map(|&(k, t)| (key(k), t)).collect();
                prop_assert_eq!(entries, found);
                // Each key's run, newest first, wherever the splits cut it.
                let keys: std::collections::BTreeSet<u16> = model.iter().map(|&(k, _)| k).collect();
                for k in keys {
                    let mut newest = Vec::new();
                    bt.scan_key_newest_first(&key(k), |tid| {
                        newest.push(tid);
                        Ok(true)
                    })
                    .unwrap();
                    let run = model.range((k, Tid::new(0, 0))..=(k, Tid::MAX));
                    let want: Vec<Tid> = run.rev().map(|&(_, t)| t).collect();
                    prop_assert_eq!(newest, want, "key {}", k);
                }
            }
        }
        // A split of the root adds two pages, any other split one.
        let root_splits = nblocks() - 1 - stats.btree.splits.get();
        prop_assert!(root_splits >= 2, "{} root splits", root_splits);
        let root = pool.get_page(&smgr, dev, rel, 0).unwrap();
        prop_assert_eq!(page::special(root.read().data())[0] & 1, 0, "block 0 is the internal root");
        for &(k, tid) in &model {
            prop_assert!(bt.contains(&key(k), tid).unwrap(), "({}, {})", k, tid);
        }
    }
}

#[test]
fn the_chunk_index_of_a_one_chunk_file_is_one_page() {
    let fs = InversionFs::format(Devices::new().format()).unwrap();
    let mut c = fs.client();
    c.write_all("/small", CreateMode::default(), &[7u8; 4096]).unwrap();
    let stat = c.p_stat("/small", None).unwrap();
    assert_eq!(fs.db().relation_pages(stat.chunkidx).unwrap(), 1);
}

// `page::insert_at` against the page rebuild it replaced (decode every live
// item, re-initialise the page, re-insert them in order with the new one in
// its place): the same live items in the same order, a page `verify`
// accepts — lazily deleted slots included, which the rebuild dropped and
// `insert_at` carries along — and a log of `Insert { slot, item }` records
// whose replay reproduces the page byte for byte.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn insert_at_equals_the_page_rebuild_and_replays_exactly(
        ops in prop::collection::vec(
            (any::<u16>(), prop::collection::vec(any::<u8>(), 1..300), 0u8..4),
            1..80,
        )
    ) {
        use minidb::{page, DeviceId, Oid, WalRecord};
        let addr = (DeviceId::DEFAULT, Oid(7), 3u64);
        let mut live = vec![0u8; page::PAGE_SIZE];
        page::init(&mut live, 12); // a B-tree node's special area
        let mut log = vec![WalRecord::PageInit {
            dev: addr.0, rel: addr.1, blkno: addr.2, special_size: 12,
        }];
        // What the rebuild would hold: the live items, in slot order.
        let mut rebuilt: Vec<Vec<u8>> = Vec::new();
        for (at, item, kill) in ops {
            if !page::fits(&live, item.len()) {
                continue;
            }
            let slot = at % (page::nslots(&live) + 1);
            let live_before = (0..slot).filter(|&s| !page::is_dead(&live, s)).count();
            page::insert_at(&mut live, slot, &item).unwrap();
            log.push(WalRecord::Insert {
                dev: addr.0, rel: addr.1, blkno: addr.2, slot, tuple: item.clone(),
            });
            rebuilt.insert(live_before, item);
            if kill == 0 {
                // A lazy delete, logged as the B-tree logs it: an image.
                let victim = at % page::nslots(&live);
                if !page::is_dead(&live, victim) {
                    let nth = (0..victim).filter(|&s| !page::is_dead(&live, s)).count();
                    rebuilt.remove(nth);
                    page::set_dead(&mut live, victim).unwrap();
                    log.push(WalRecord::PageImage {
                        dev: addr.0, rel: addr.1, blkno: addr.2, image: live.clone(),
                    });
                }
            }
            prop_assert!(page::verify(&live).is_empty(), "{:?}", page::verify(&live));
        }
        let items: Vec<Vec<u8>> = page::iter(&live).map(|(_, it)| it.to_vec()).collect();
        prop_assert_eq!(items, rebuilt);
        let mut replayed = vec![0u8; page::PAGE_SIZE];
        for rec in &log {
            rec.redo(&mut replayed).unwrap();
        }
        prop_assert!(replayed == live, "replay diverged from the live page");
    }
}

/// One transaction against a table `(k, v)` whose index on `k` is declared
/// unique; each keeps `k` unique by looking before it writes.
#[derive(Debug, Clone)]
enum KeyOp {
    /// Set `k` to `v`: replace the visible row, or insert the first one.
    Put { k: i32, v: i32, commit: bool },
    /// Set `k` twice in one transaction: the first new version dies with
    /// the transaction that made it.
    PutTwice { k: i32, v: i32, commit: bool },
    /// Delete `k`'s row, if it has one.
    Delete { k: i32, commit: bool },
    /// Archive every dead version (the system is quiescent between ops).
    Vacuum,
}

fn key_op_strategy() -> impl Strategy<Value = KeyOp> {
    let k = || 0i32..5;
    prop_oneof![
        (k(), any::<i32>(), any::<bool>()).prop_map(|(k, v, commit)| KeyOp::Put { k, v, commit }),
        (k(), any::<i32>(), any::<bool>()).prop_map(|(k, v, commit)| KeyOp::Put { k, v, commit }),
        (k(), any::<i32>(), any::<bool>()).prop_map(|(k, v, commit)| KeyOp::Put { k, v, commit }),
        (k(), any::<i32>(), any::<bool>())
            .prop_map(|(k, v, commit)| KeyOp::PutTwice { k, v, commit }),
        (k(), any::<bool>()).prop_map(|(k, commit)| KeyOp::Delete { k, commit }),
        Just(KeyOp::Vacuum),
    ]
}

// The unique lookup (newest version first, stop at the first visible one,
// skip the archive when the heap answered) against its definition: scan
// the heap and the archive under the same snapshot and keep the rows whose
// key matches. Under every snapshot there is at most one, and the lookup
// returns exactly it — after aborted newest versions, versions created and
// replaced inside one transaction, deletions, and vacuums that moved the
// answer to the archive. A writer's check before its insert is that same
// ordinary lookup: under the table's lock it sees every committed version.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unique_lookup_equals_filtering_every_version(
        ops in prop::collection::vec(key_op_strategy(), 1..40)
    ) {
        use minidb::Datum;
        let db = minidb::Db::open_in_memory().unwrap();
        let rel = db.create_table(
            "t",
            minidb::Schema::new([("k", minidb::TypeId::INT4), ("v", minidb::TypeId::INT4)]),
        ).unwrap();
        let idx = db.create_unique_index("t_k", rel, &["k"]).unwrap();
        let row = |k: i32, v: i32| vec![Datum::Int4(k), Datum::Int4(v)];
        let put = |s: &mut minidb::Session, k: i32, v: i32| {
            match s.index_lookup_unique(idx, &[Datum::Int4(k)]).unwrap() {
                Some((tid, _)) => s.update(rel, tid, row(k, v)).unwrap(),
                None => s.insert(rel, row(k, v)).unwrap(),
            };
        };
        let mut stamps = vec![db.now()];
        for op in &ops {
            let mut s = db.begin().unwrap();
            let commit = match *op {
                KeyOp::Put { k, v, commit } => {
                    put(&mut s, k, v);
                    commit
                }
                KeyOp::PutTwice { k, v, commit } => {
                    put(&mut s, k, v);
                    put(&mut s, k, v.wrapping_add(1));
                    commit
                }
                KeyOp::Delete { k, commit } => {
                    if let Some(tid) = s.index_lookup_unique_tid(idx, &[Datum::Int4(k)]).unwrap() {
                        s.delete(rel, tid).unwrap();
                    }
                    commit
                }
                KeyOp::Vacuum => {
                    s.abort().unwrap();
                    minidb::vacuum::vacuum(&db, rel, minidb::DeviceId::DEFAULT).unwrap();
                    continue;
                }
            };
            if commit { s.commit().unwrap() } else { s.abort().unwrap() }
            stamps.push(db.now());
        }
        // A writer still in progress holds the newest version of key 0:
        // readers of the past take no locks and must fall through it.
        let mut writer = db.begin().unwrap();
        put(&mut writer, 0, 424242);
        stamps.push(db.now());

        for t in stamps {
            let mut h = db.snapshot_at(t);
            let all = h.seq_scan(rel).unwrap();
            for k in 0..5 {
                let want: Vec<_> =
                    all.iter().filter(|(_, r)| r[0] == Datum::Int4(k)).map(|(_, r)| r.clone()).collect();
                prop_assert!(want.len() <= 1, "key {} has {} rows as of {}", k, want.len(), t);
                let got = h.index_lookup_unique(idx, &[Datum::Int4(k)]).unwrap();
                prop_assert_eq!(got.map(|(_, r)| r), want.into_iter().next(), "key {} as of {}", k, t);
            }
        }
        writer.abort().unwrap();
        // The present, through a current snapshot.
        let mut s = db.begin().unwrap();
        let all = s.seq_scan(rel).unwrap();
        for k in 0..5 {
            let want = all.iter().find(|(_, r)| r[0] == Datum::Int4(k)).cloned();
            let got = s.index_lookup_unique(idx, &[Datum::Int4(k)]).unwrap();
            prop_assert_eq!(got, want, "key {} now", k);
        }
        s.commit().unwrap();
        prop_assert_eq!(db.check_all(), vec![]);
    }
}

/// Operations for the buffer-pool model check.
#[derive(Debug, Clone)]
enum PoolOp {
    /// Read a block and compare against the shadow.
    Get { blk: u8 },
    /// Read a block and overwrite it with fresh bytes (dirties the frame).
    Dirty { blk: u8, fill: u8 },
    /// Write every dirty page back.
    Flush,
    /// Flush then drop the entire cache.
    FlushClear,
    /// Drop one relation's pages without writeback.
    Discard,
    /// Discard the relation's pages, drop and re-create it on the device,
    /// and grow it back with fresh bytes — what a drop and a create do.
    /// Whatever the cache held describes blocks that no longer exist.
    Regrow { fill: u8 },
}

fn pool_op_strategy(nblocks: u8) -> impl Strategy<Value = PoolOp> {
    // The shim's `prop_oneof!` has no weights; repeating the read/write
    // arms biases the mix toward them.
    prop_oneof![
        (0..nblocks).prop_map(|blk| PoolOp::Get { blk }),
        (0..nblocks).prop_map(|blk| PoolOp::Get { blk }),
        (0..nblocks, any::<u8>()).prop_map(|(blk, fill)| PoolOp::Dirty { blk, fill }),
        (0..nblocks, any::<u8>()).prop_map(|(blk, fill)| PoolOp::Dirty { blk, fill }),
        Just(PoolOp::Flush),
        Just(PoolOp::FlushClear),
        Just(PoolOp::Discard),
        any::<u8>().prop_map(|fill| PoolOp::Regrow { fill }),
    ]
}

// Model-checks the buffer pool against a flat shadow map: whatever
// interleaving of get/dirty/flush/clear/discard/regrow runs (with a pool far
// smaller than the block set, so evictions are constant and every frame is
// refilled in place over and over), a read must never serve a stale byte —
// in particular never one of a page cached before its relation was
// truncated or dropped, nor of the page its frame held before — and a
// flush must never lose a dirty page.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn buffer_pool_matches_shadow_map(
        ops in prop::collection::vec(pool_op_strategy(24), 1..60),
        capacity in 4usize..10,
    ) {
        use minidb::buffer::BufferPool;
        use minidb::smgr::{shared_device, GenericManager, Smgr};
        use minidb::{DeviceId, Oid};
        use simdev::{DiskProfile, MagneticDisk, SimClock};

        const NBLOCKS: u8 = 24;
        let dev = DeviceId::DEFAULT;
        let rel = Oid(42);
        let clock = SimClock::new();
        let disk = shared_device(MagneticDisk::new(
            "prop", clock, DiskProfile::tiny_for_tests(4096),
        ));
        let mut smgr = Smgr::new();
        smgr.register(dev, Box::new(GenericManager::format(disk).unwrap())).unwrap();
        smgr.with(dev, |m| m.create_rel(rel)).unwrap();

        let pool = BufferPool::new(capacity);
        // The shadows: `mem` is what a reader through the pool must see,
        // `disk_shadow` what the device may hold — the last flushed value
        // plus every value dirtied since, any of which an eviction may have
        // written back. A flush narrows it to `mem`.
        let mut mem: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        let mut disk_shadow: std::collections::HashMap<u64, Vec<u8>> =
            std::collections::HashMap::new();
        for b in 0..NBLOCKS as u64 {
            let (_, pin) = pool.new_page(&smgr, dev, rel).unwrap();
            pin.write().data_mut().fill(b as u8);
            mem.insert(b, b as u8);
            disk_shadow.insert(b, vec![b as u8]);
        }
        pool.flush_all(&smgr).unwrap();
        let flushed = |mem: &std::collections::HashMap<u64, u8>| {
            mem.iter().map(|(&b, &v)| (b, vec![v])).collect()
        };

        let mut accesses = 0u64;
        for op in ops {
            match op {
                PoolOp::Get { blk } => {
                    let blk = blk as u64;
                    let pin = pool.get_page(&smgr, dev, rel, blk).unwrap();
                    accesses += 1;
                    // Every byte: a frame refilled in place must not show
                    // its previous page anywhere.
                    let want = mem[&blk];
                    let stale = pin.read().data().iter().position(|&b| b != want);
                    prop_assert_eq!(stale, None, "stale read of block {}", blk);
                }
                PoolOp::Dirty { blk, fill } => {
                    let blk = blk as u64;
                    let pin = pool.get_page(&smgr, dev, rel, blk).unwrap();
                    accesses += 1;
                    let want = mem[&blk];
                    prop_assert!(pin.read().data().iter().all(|&b| b == want));
                    pin.write().data_mut().fill(fill);
                    mem.insert(blk, fill);
                    disk_shadow.entry(blk).or_default().push(fill);
                }
                PoolOp::Flush => {
                    pool.flush_all(&smgr).unwrap();
                    disk_shadow = flushed(&mem);
                }
                PoolOp::FlushClear => {
                    pool.flush_and_clear(&smgr).unwrap();
                    disk_shadow = flushed(&mem);
                }
                PoolOp::Discard => {
                    // Dropping the cache without writeback: unflushed
                    // dirties are lost, but evicted-and-written-back pages
                    // may have reached the device already — any shadowed
                    // value is a legal next observation. Re-seed both from
                    // what the device actually holds.
                    pool.discard_rel(rel);
                    let mut page = vec![0u8; minidb::page::PAGE_SIZE];
                    for b in 0..NBLOCKS as u64 {
                        smgr.with(dev, |m| m.read(rel, b, &mut page)).unwrap();
                        let on_disk = page[0];
                        prop_assert!(
                            disk_shadow[&b].contains(&on_disk),
                            "block {} on device is {}, expected one of {:?} (flushed, then evicted)",
                            b, on_disk, disk_shadow[&b]
                        );
                        mem.insert(b, on_disk);
                        disk_shadow.insert(b, vec![on_disk]);
                    }
                }
                PoolOp::Regrow { fill } => {
                    pool.discard_rel(rel);
                    smgr.with(dev, |m| {
                        m.drop_rel(rel)?;
                        m.create_rel(rel)
                    })
                    .unwrap();
                    for b in 0..NBLOCKS as u64 {
                        let (blk, pin) = pool.new_page(&smgr, dev, rel).unwrap();
                        prop_assert_eq!(blk, b);
                        // A new block is blank, whatever its frame held.
                        prop_assert!(pin.read().data().iter().all(|&b| b == 0));
                        pin.write().data_mut().fill(fill);
                        mem.insert(b, fill);
                        // A reborn block is blank on the device until its
                        // frame is written back.
                        disk_shadow.insert(b, vec![0, fill]);
                    }
                }
            }
            prop_assert_eq!(pool.check_consistency(), Vec::<String>::new());
            prop_assert!(pool.len() <= capacity);
        }
        // Invariants at the end of every interleaving: accounting balances
        // and a final flush makes memory and device agree everywhere.
        let s = pool.stats();
        prop_assert_eq!(s.hits + s.misses, accesses, "accounting: {:?}", s);
        pool.flush_all(&smgr).unwrap();
        let mut page = vec![0u8; minidb::page::PAGE_SIZE];
        for b in 0..NBLOCKS as u64 {
            smgr.with(dev, |m| m.read(rel, b, &mut page)).unwrap();
            let want = mem[&b];
            prop_assert!(page.iter().all(|&v| v == want), "block {} lost after flush", b);
        }
    }
}

/// Actions for the commit-path crash test: up to one open transaction per
/// table, interleaved freely, with power failures anywhere in between.
#[derive(Debug, Clone)]
enum CrashOp {
    Begin(u8),
    Insert(u8),
    Commit(u8),
    Abort(u8),
    Crash,
    /// Drive a full checkpoint cycle (drain dirty pages, truncate the log).
    Checkpoint,
    /// Fail the data device after `n` more writes, attempt a checkpoint,
    /// then pull the plug: the cycle dies mid-drain with the log intact.
    CrashDuringCheckpoint(u64),
    /// Fail the log device after `fuse` more writes, commit table `t`'s
    /// transaction, then pull the plug: the commit's log force tears
    /// partway through its destage.
    CrashDuringCommit { t: u8, fuse: u64 },
    /// About 1 100 read-only transactions and as many oids: past a raise
    /// of either ceiling, so crash points land on both sides of one.
    Burn,
}

fn crash_op_strategy() -> impl Strategy<Value = CrashOp> {
    prop_oneof![
        (0u8..2).prop_map(CrashOp::Begin),
        (0u8..2).prop_map(CrashOp::Insert),
        (0u8..2).prop_map(CrashOp::Insert),
        (0u8..2).prop_map(CrashOp::Commit),
        (0u8..2).prop_map(CrashOp::Abort),
        Just(CrashOp::Crash),
        Just(CrashOp::Checkpoint),
        (1u64..8).prop_map(CrashOp::CrashDuringCheckpoint),
        (0u8..2, 1u64..5).prop_map(|(t, fuse)| CrashOp::CrashDuringCommit { t, fuse }),
        Just(CrashOp::Burn),
    ]
}

/// The largest xid and oid that anything a crash left behind carries: the
/// tuple headers on the data and catalog devices, the relations their maps
/// list, and the outcomes and tuples in the durable log. (No relation here
/// has an index, so every logged `Insert` is a heap tuple.)
fn surviving_ids(rig: &common::CrashRig) -> (minidb::XactId, minidb::Oid) {
    use minidb::smgr::DeviceManager;
    use minidb::{page, WalRecord, XactId};
    let mut xids = vec![XactId::FROZEN];
    let mut oids = vec![minidb::Oid(0)];
    let headers = |item: &[u8], xids: &mut Vec<XactId>| {
        let h = minidb::xact::TupleHeader::decode(item).unwrap();
        xids.extend([h.xmin, h.xmax]);
    };
    let mut buf = vec![0u8; page::PAGE_SIZE];
    for dev in [&rig.data, &rig.catalog] {
        let mut mgr = minidb::GenericManager::attach(dev.clone()).unwrap();
        for rel in mgr.relations() {
            oids.push(rel);
            for blkno in 0..mgr.nblocks(rel).unwrap() {
                mgr.read(rel, blkno, &mut buf).unwrap();
                if page::is_initialized(&buf) {
                    for slot in 0..page::nslots(&buf) {
                        headers(page::item_even_dead(&buf, slot).unwrap(), &mut xids);
                    }
                }
            }
        }
    }
    let (_, records) = minidb::Wal::recover(rig.log.clone(), Default::default()).unwrap();
    for (_, rec) in records {
        match rec {
            WalRecord::Commit { xid, .. } | WalRecord::Abort { xid } => xids.push(xid),
            WalRecord::Insert { tuple, .. } => headers(&tuple, &mut xids),
            WalRecord::Overwrite { offset: 4, bytes, .. } => {
                xids.push(XactId(u32::from_le_bytes(bytes[..4].try_into().unwrap())));
            }
            _ => {}
        }
    }
    (xids.into_iter().max().unwrap(), oids.into_iter().max().unwrap())
}

/// The process dies: leak open sessions, forbid every checkpoint, the
/// final one included, drop the volatile caches, reattach. No id that
/// something surviving the crash carries may be handed out again, of
/// either kind.
fn crash_and_reopen(
    rig: &common::CrashRig,
    db: minidb::Db,
    sessions: &mut [Option<minidb::Session>; 2],
    pending: &mut [Vec<i64>; 2],
) -> minidb::Db {
    for slot in sessions.iter_mut() {
        if let Some(s) = slot.take() {
            std::mem::forget(s);
        }
    }
    *pending = [Vec::new(), Vec::new()];
    db.simulate_crash();
    rig.power_cut();
    drop(db);
    let (xid, oid) = surviving_ids(rig);
    let db = rig.open(false);
    let named = db.catalog().relations().map(|e| e.id).max().unwrap();
    let mut s = db.begin().unwrap();
    let new = s.xid().unwrap();
    assert!(new > xid, "xid {new} handed out again: a survivor carries {xid}");
    s.commit().unwrap();
    let new = db.alloc_oid().unwrap();
    let oid = oid.max(named);
    assert!(new > oid, "oid {new} handed out again: a survivor names {oid}");
    db
}

/// Runs one interleaving and checks, after every crash and at the end,
/// that acknowledged commits are visible, unacknowledged work is not, and
/// the structural verifier finds nothing wrong. A commit whose log force
/// failed partway is *indeterminate* until the next crash resolves it: the
/// table must then show either exactly the acknowledged rows or exactly
/// those plus the whole limbo transaction — never a fraction of it.
fn run_crash_ops(ops: Vec<CrashOp>) {
    let rig = common::CrashRig::new();
    let mut db = rig.open(true);
    for t in 0..2 {
        db.create_table(&format!("t{t}"), minidb::Schema::new([("v", minidb::TypeId::INT8)]))
            .unwrap();
    }
    db.flush_caches().unwrap(); // Setup must survive the first crash.

    let rels = |db: &minidb::Db| {
        [db.relation_id("t0").unwrap(), db.relation_id("t1").unwrap()]
    };
    let verify = |db: &minidb::Db,
                  committed: &mut [Vec<i64>; 2],
                  indeterminate: &mut [Vec<i64>; 2]| {
        assert!(db.check_all().is_empty(), "verifier: {:?}", db.check_all());
        let rel = rels(db);
        let mut s = db.begin().unwrap();
        for t in 0..2 {
            let mut got: Vec<i64> = s
                .seq_scan(rel[t])
                .unwrap()
                .into_iter()
                .map(|(_, row)| match row[0] {
                    minidb::Datum::Int8(v) => v,
                    ref other => panic!("bad datum {other:?}"),
                })
                .collect();
            got.sort_unstable();
            let mut want = committed[t].clone();
            want.sort_unstable();
            if indeterminate[t].is_empty() {
                assert_eq!(
                    got, want,
                    "table t{t}: acknowledged commits must be exactly the visible rows"
                );
            } else {
                let mut with_limbo = want.clone();
                with_limbo.extend_from_slice(&indeterminate[t]);
                with_limbo.sort_unstable();
                assert!(
                    got == want || got == with_limbo,
                    "table t{t}: a torn commit must be all-or-nothing; \
                     got {got:?}, acknowledged {want:?}, limbo {:?}",
                    indeterminate[t]
                );
                // The crash resolved the limbo transaction one way or the
                // other; what is visible now is the durable truth.
                committed[t] = got.clone();
                indeterminate[t].clear();
            }
        }
        s.commit().unwrap();
    };

    let mut sessions: [Option<minidb::Session>; 2] = [None, None];
    let mut committed: [Vec<i64>; 2] = [Vec::new(), Vec::new()];
    let mut pending: [Vec<i64>; 2] = [Vec::new(), Vec::new()];
    let mut indeterminate: [Vec<i64>; 2] = [Vec::new(), Vec::new()];
    let mut next = 0i64;

    for op in ops {
        match op {
            CrashOp::Begin(t) => {
                let t = t as usize;
                if sessions[t].is_none() {
                    sessions[t] = Some(db.begin().unwrap());
                }
            }
            CrashOp::Insert(t) => {
                let t = t as usize;
                if let Some(s) = sessions[t].as_mut() {
                    next += 1;
                    s.insert(rels(&db)[t], vec![minidb::Datum::Int8(next)]).unwrap();
                    pending[t].push(next);
                }
            }
            CrashOp::Commit(t) => {
                let t = t as usize;
                if let Some(mut s) = sessions[t].take() {
                    s.commit().unwrap();
                    committed[t].append(&mut pending[t]);
                }
            }
            CrashOp::Abort(t) => {
                let t = t as usize;
                if let Some(mut s) = sessions[t].take() {
                    s.abort().unwrap();
                    pending[t].clear();
                }
            }
            CrashOp::Crash => {
                db = crash_and_reopen(&rig, db, &mut sessions, &mut pending);
                verify(&db, &mut committed, &mut indeterminate);
            }
            CrashOp::Checkpoint => {
                db.checkpoint().unwrap();
            }
            CrashOp::Burn => {
                for _ in 0..1100 {
                    db.begin().unwrap().commit().unwrap();
                    db.alloc_oid().unwrap();
                }
            }
            CrashOp::CrashDuringCheckpoint(fuse) => {
                // The cycle dies mid-drain: some data pages destage, the
                // rest are lost, and the log is never truncated. Recovery
                // must replay over whatever mix landed.
                rig.data_faults.fail_after_writes(fuse);
                let _ = db.checkpoint();
                rig.data_faults.clear_write_fault();
                db = crash_and_reopen(&rig, db, &mut sessions, &mut pending);
                verify(&db, &mut committed, &mut indeterminate);
            }
            CrashOp::CrashDuringCommit { t, fuse } => {
                let t = t as usize;
                if let Some(mut s) = sessions[t].take() {
                    rig.log_faults.fail_after_writes(fuse);
                    match s.commit() {
                        Ok(()) => committed[t].append(&mut pending[t]),
                        Err(_) => {
                            // The force tore partway through its destage:
                            // whether the commit record became durable is
                            // unknown until recovery looks.
                            indeterminate[t].append(&mut pending[t]);
                            std::mem::forget(s);
                        }
                    }
                    rig.log_faults.clear_write_fault();
                    db = crash_and_reopen(&rig, db, &mut sessions, &mut pending);
                    verify(&db, &mut committed, &mut indeterminate);
                }
            }
        }
    }
    for slot in sessions.iter_mut() {
        if let Some(mut s) = slot.take() {
            s.abort().unwrap();
        }
    }
    verify(&db, &mut committed, &mut indeterminate);
}

// The commit path's whole durability contract: it must never acknowledge
// a commit the devices can lose, and must never resurrect work that was
// aborted or in flight at the crash — in particular by handing its xid to
// a new transaction. 64 cases: a crash must land after a `Burn` crossed a
// raise and before a checkpoint wrote status page 0, with a writer's
// rows durable in between.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn acknowledged_commits_survive_crashes(
        ops in prop::collection::vec(crash_op_strategy(), 1..40),
    ) {
        run_crash_ops(ops);
    }
}

// ---------------------------------------------------------------------------
// Differential query oracle: the cost-based planner + push executor
// against the retained reference interpreter
// (`minidb::query::reference`), over randomly generated POSTQUEL.

/// A self-contained xorshift generator so query shapes are derived from one
/// proptest-supplied seed (the vendored proptest shim has no recursive or
/// flat-mapped strategies).
struct Qrng(u64);

impl Qrng {
    fn new(seed: u64) -> Qrng {
        Qrng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// The oracle's fixed schema: three small tables, B-tree indexes on `t1.a`
/// and `t2.k` so the planner's index choices are actually on the table.
const ORACLE_TABLES: [(&str, &[(&str, bool)]); 3] = [
    ("t1", &[("a", true), ("b", true), ("s", false)]),
    ("t2", &[("k", true), ("v", false)]),
    ("t3", &[("x", true), ("y", true)]),
];

const ORACLE_WORDS: [&str; 4] = ["red", "blue", "green", ""];

fn oracle_db(seed: u64) -> minidb::Db {
    use minidb::{Datum, Schema, TypeId};
    let db = minidb::Db::open_in_memory().unwrap();
    for (name, cols) in ORACLE_TABLES {
        let schema = Schema::new(
            cols.iter()
                .map(|(c, int)| (*c, if *int { TypeId::INT4 } else { TypeId::TEXT }))
                .collect::<Vec<_>>(),
        );
        db.create_table(name, schema).unwrap();
    }
    let t1 = db.relation_id("t1").unwrap();
    let t2 = db.relation_id("t2").unwrap();
    db.create_index("t1_a", t1, &["a"]).unwrap();
    db.create_index("t2_k", t2, &["k"]).unwrap();

    // Collision-heavy small values with occasional nulls, so joins match,
    // groups repeat, and index probes return several rows.
    let mut rng = Qrng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut s = db.begin().unwrap();
    for (name, cols) in ORACLE_TABLES {
        let rel = db.relation_id(name).unwrap();
        let nrows = 3 + rng.below(6);
        for _ in 0..nrows {
            let row: Vec<Datum> = cols
                .iter()
                .map(|(_, int)| {
                    if rng.chance(12) {
                        Datum::Null
                    } else if *int {
                        Datum::Int4(rng.below(6) as i32)
                    } else {
                        Datum::Text(rng.pick(&ORACLE_WORDS).to_string())
                    }
                })
                .collect();
            s.insert(rel, row).unwrap();
        }
    }
    s.commit().unwrap();
    db
}

/// One generated range variable: `rN in <table>`.
struct OracleVar {
    var: String,
    table: usize,
}

fn gen_vars(rng: &mut Qrng) -> Vec<OracleVar> {
    let n = 1 + rng.below(3) as usize; // 1..=3 range variables
    (0..n)
        .map(|i| OracleVar {
            var: format!("r{i}"),
            table: rng.below(3) as usize,
        })
        .collect()
}

fn int_col(rng: &mut Qrng, v: &OracleVar) -> String {
    let cols = ORACLE_TABLES[v.table].1;
    let ints: Vec<&str> = cols.iter().filter(|(_, i)| *i).map(|(c, _)| *c).collect();
    format!("{}.{}", v.var, rng.pick(&ints))
}

fn text_col(v: &OracleVar) -> Option<String> {
    let cols = ORACLE_TABLES[v.table].1;
    cols.iter()
        .find(|(_, int)| !*int)
        .map(|(c, _)| format!("{}.{}", v.var, c))
}

/// One comparison that can never raise an evaluation error (the planner
/// reorders conjunct evaluation, so error-capable predicates would make
/// error *ordering* observable — that divergence is documented, not hidden).
fn gen_comparison(rng: &mut Qrng, vars: &[OracleVar]) -> String {
    let ops = ["=", "!=", "<", "<=", ">", ">="];
    let v = rng.pick(vars);
    match rng.below(10) {
        // Int column vs small literal: the planner's index-pin bread and
        // butter (t1.a / t2.k hit the indexes).
        0..=4 => format!(
            "{} {} {}",
            int_col(rng, v),
            rng.pick(&ops),
            rng.below(6)
        ),
        // Cross-type literal pins: floats and an out-of-int4-range value,
        // exercising the "exact coercion or no index" guard in both paths.
        5 => format!("{} = {}", int_col(rng, v), rng.pick(&["2.0", "3.5", "5000000000"])),
        // Int column vs int column (possibly cross-variable: a join pred).
        6..=7 => {
            let w = rng.pick(vars);
            format!("{} {} {}", int_col(rng, v), rng.pick(&ops), int_col(rng, w))
        }
        // Text equality against the vocabulary.
        _ => match text_col(v) {
            Some(c) => format!("{c} = \"{}\"", rng.pick(&ORACLE_WORDS)),
            None => format!("{} >= {}", int_col(rng, v), rng.below(6)),
        },
    }
}

fn gen_qual(rng: &mut Qrng, vars: &[OracleVar]) -> Option<String> {
    let n = rng.below(4); // 0..=3 conjuncts
    if n == 0 {
        return None;
    }
    let mut parts: Vec<String> = (0..n).map(|_| gen_comparison(rng, vars)).collect();
    if rng.chance(20) {
        let i = rng.below(parts.len() as u64) as usize;
        parts[i] = format!("not ({})", parts[i]);
    }
    // Mostly `and` (exercises conjunct pushdown); occasionally an `or`
    // pair, which must stay above the scans as a residual filter.
    if parts.len() >= 2 && rng.chance(25) {
        let b = parts.pop().unwrap();
        let a = parts.pop().unwrap();
        parts.push(format!("({a} or {b})"));
    }
    Some(parts.join(" and "))
}

/// Plain targets: named columns and simple arithmetic.
fn gen_targets(rng: &mut Qrng, vars: &[OracleVar]) -> Vec<(String, String)> {
    let n = 1 + rng.below(3);
    (0..n)
        .map(|i| {
            let v = rng.pick(vars);
            match rng.below(4) {
                0 => {
                    let e = format!("{} + {}", int_col(rng, v), rng.below(4));
                    (format!("c{i}"), e)
                }
                1 => match text_col(v) {
                    Some(c) => (format!("c{i}"), c),
                    None => (format!("c{i}"), int_col(rng, v)),
                },
                _ => (format!("c{i}"), int_col(rng, v)),
            }
        })
        .collect()
}

/// Aggregate targets: `sum`/`avg` only over int columns (float addition
/// order would otherwise be observable), `count`/`min`/`max` over anything.
fn gen_agg_targets(rng: &mut Qrng, vars: &[OracleVar]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    if rng.chance(50) {
        // A group key makes it an implicit GroupAggregate.
        let v = rng.pick(vars);
        out.push(("g".to_string(), int_col(rng, v)));
    }
    let n = 1 + rng.below(2);
    for i in 0..n {
        let v = rng.pick(vars);
        let e = match rng.below(5) {
            0 => "count()".to_string(),
            1 => format!("count({})", int_col(rng, v)),
            2 => format!("sum({})", int_col(rng, v)),
            3 => format!("avg({})", int_col(rng, v)),
            _ => format!("min({})", int_col(rng, v)),
        };
        out.push((format!("a{i}"), e));
    }
    out
}

struct OracleQuery {
    source: String,
    sort_keys: Vec<(String, bool)>,
    /// The sort covers every output column, so even a `limit` cut is
    /// deterministic (ties are full-row duplicates).
    fully_sorted: bool,
    limited: bool,
}

fn gen_retrieve(rng: &mut Qrng) -> OracleQuery {
    let vars = gen_vars(rng);
    let targets = if rng.chance(25) {
        gen_agg_targets(rng, &vars)
    } else {
        gen_targets(rng, &vars)
    };
    let qual = gen_qual(rng, &vars);

    let names: Vec<String> = targets.iter().map(|(n, _)| n.clone()).collect();
    let mut sort_keys: Vec<(String, bool)> = Vec::new();
    if rng.chance(60) {
        let mut pool = names.clone();
        let take = 1 + rng.below(pool.len() as u64);
        for _ in 0..take {
            let i = rng.below(pool.len() as u64) as usize;
            sort_keys.push((pool.remove(i), rng.chance(40)));
        }
    }
    let fully_sorted = sort_keys.len() == names.len() && !names.is_empty();
    let limited = fully_sorted && rng.chance(40);

    let mut q = String::from("retrieve (");
    q.push_str(
        &targets
            .iter()
            .map(|(n, e)| format!("{n} = {e}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    q.push_str(") from ");
    q.push_str(
        &vars
            .iter()
            .map(|v| format!("{} in {}", v.var, ORACLE_TABLES[v.table].0))
            .collect::<Vec<_>>()
            .join(", "),
    );
    if let Some(w) = &qual {
        q.push_str(&format!(" where {w}"));
    }
    if !sort_keys.is_empty() {
        let keys: Vec<String> = sort_keys
            .iter()
            .map(|(k, desc)| if *desc { format!("{k} desc") } else { k.clone() })
            .collect();
        q.push_str(&format!(" sort by {}", keys.join(", ")));
    }
    if limited {
        q.push_str(&format!(" limit {}", rng.below(6)));
    }
    OracleQuery {
        source: q,
        sort_keys,
        fully_sorted,
        limited,
    }
}

fn canon(rows: &[Vec<minidb::Datum>]) -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = rows.iter().map(|r| minidb::encode_row(r)).collect();
    keys.sort();
    keys
}

fn assert_sorted_by(
    rows: &[Vec<minidb::Datum>],
    columns: &[String],
    keys: &[(String, bool)],
    q: &str,
) {
    let idx: Vec<(usize, bool)> = keys
        .iter()
        .map(|(k, d)| (columns.iter().position(|c| c == k).unwrap(), *d))
        .collect();
    for w in rows.windows(2) {
        for &(i, desc) in &idx {
            let ord = w[0][i].cmp_total(&w[1][i]);
            let ord = if desc { ord.reverse() } else { ord };
            match ord {
                std::cmp::Ordering::Less => break,
                std::cmp::Ordering::Equal => continue,
                std::cmp::Ordering::Greater => panic!("output not sorted for {q}"),
            }
        }
    }
}

fn check_retrieve_oracle(seed: u64) {
    let db = oracle_db(seed);
    let mut rng = Qrng::new(seed);
    // Several queries per database amortize the setup and let index and
    // heap paths see identical data.
    for _ in 0..4 {
        let gen = gen_retrieve(&mut rng);
        let q = &gen.source;
        let mut s = db.begin().unwrap();
        let planned = s.query(q);
        let reference = minidb::query::reference::query(&mut s, q);
        s.commit().unwrap();
        match (planned, reference) {
            (Ok(p), Ok(r)) => {
                assert_eq!(p.columns, r.columns, "columns diverge for {q}");
                if gen.fully_sorted {
                    // Fully sorted output (even under limit) is one exact
                    // sequence: total order over every column.
                    assert_eq!(p.rows, r.rows, "sorted rows diverge for {q}");
                } else {
                    assert!(!gen.limited, "limit requires a full sort");
                    assert_eq!(canon(&p.rows), canon(&r.rows), "multisets diverge for {q}");
                }
                if !gen.sort_keys.is_empty() {
                    assert_sorted_by(&p.rows, &p.columns, &gen.sort_keys, q);
                    assert_sorted_by(&r.rows, &r.columns, &gen.sort_keys, q);
                }
            }
            (Err(pe), Err(re)) => {
                assert_eq!(
                    std::mem::discriminant(&pe),
                    std::mem::discriminant(&re),
                    "error kinds diverge for {q}: planned {pe}, reference {re}"
                );
            }
            (p, r) => panic!(
                "paths diverge for {q}: planned {:?}, reference {:?}",
                p.map(|x| x.rows.len()),
                r.map(|x| x.rows.len())
            ),
        }
    }
}

/// One mutation statement rendered to source.
fn gen_mutation(rng: &mut Qrng) -> String {
    let t = rng.below(3) as usize;
    let (name, cols) = ORACLE_TABLES[t];
    let var = OracleVar {
        var: "m".into(),
        table: t,
    };
    match rng.below(3) {
        0 => {
            // Append with a random subset of columns set.
            let mut sets: Vec<String> = Vec::new();
            for (c, int) in cols {
                if !rng.chance(70) {
                    continue;
                }
                if *int {
                    sets.push(format!("{c} = {}", rng.below(6)));
                } else {
                    sets.push(format!("{c} = \"{}\"", rng.pick(&ORACLE_WORDS)));
                }
            }
            if sets.is_empty() {
                format!("append {name} ({} = {})", cols[0].0, 1)
            } else {
                format!("append {name} ({})", sets.join(", "))
            }
        }
        1 => {
            let qual = gen_qual(rng, std::slice::from_ref(&var))
                .map(|w| format!(" where {w}"))
                .unwrap_or_default();
            format!("delete m from m in {name}{qual}")
        }
        _ => {
            let (c, int) = *rng.pick(cols);
            let set = if int {
                format!("{c} = {}", rng.below(6))
            } else {
                format!("{c} = \"{}\"", rng.pick(&ORACLE_WORDS))
            };
            let qual = gen_qual(rng, std::slice::from_ref(&var))
                .map(|w| format!(" where {w}"))
                .unwrap_or_default();
            format!("replace m ({set}) from m in {name}{qual}")
        }
    }
}

/// Mutations run against two identically seeded databases — planned on
/// one, reference on the other — and every table must end up identical.
fn check_mutation_oracle(seed: u64) {
    let planned_db = oracle_db(seed);
    let reference_db = oracle_db(seed);
    let mut rng = Qrng::new(seed.rotate_left(17));
    for _ in 0..6 {
        let q = gen_mutation(&mut rng);
        let mut ps = planned_db.begin().unwrap();
        let mut rs = reference_db.begin().unwrap();
        let p = ps.query(&q);
        let r = minidb::query::reference::query(&mut rs, &q);
        ps.commit().unwrap();
        rs.commit().unwrap();
        match (p, r) {
            (Ok(p), Ok(r)) => assert_eq!(p.affected, r.affected, "affected diverges for {q}"),
            (Err(pe), Err(re)) => assert_eq!(
                std::mem::discriminant(&pe),
                std::mem::discriminant(&re),
                "error kinds diverge for {q}"
            ),
            (p, r) => panic!("paths diverge for {q}: planned {p:?}, reference {r:?}"),
        }
    }
    for (name, _) in ORACLE_TABLES {
        let rel = planned_db.relation_id(name).unwrap();
        let mut ps = planned_db.begin().unwrap();
        let mut rs = reference_db.begin().unwrap();
        let p: Vec<_> = ps.seq_scan(rel).unwrap().into_iter().map(|(_, r)| r).collect();
        let rel_r = reference_db.relation_id(name).unwrap();
        let r: Vec<_> = rs.seq_scan(rel_r).unwrap().into_iter().map(|(_, r)| r).collect();
        ps.commit().unwrap();
        rs.commit().unwrap();
        assert_eq!(canon(&p), canon(&r), "table {name} diverges after mutations");
    }
}

// The differential oracle proper: 256 retrieve cases (each running four
// generated queries) and 64 mutation schedules. Any divergence between the
// cost-based pipeline and the reference interpreter fails with the exact
// POSTQUEL source that triggered it.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn planned_executor_matches_reference_interpreter(seed in any::<u64>()) {
        check_retrieve_oracle(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn planned_mutations_match_reference_interpreter(seed in any::<u64>()) {
        check_mutation_oracle(seed);
    }
}

#[test]
fn coalescer_equivalence_small_vs_large_writes() {
    // Writing N bytes as many small sequential writes must produce exactly
    // the same file as one large write.
    let sizes = [1usize, 7, 64, 255, 1000];
    let total = CHUNK_SIZE + 777;
    let data: Vec<u8> = (0..total).map(|i| (i % 249) as u8).collect();
    let fs = InversionFs::format(Devices::new().format()).unwrap();
    let mut c = fs.client();
    c.write_all("/whole", CreateMode::default(), &data).unwrap();
    for (i, sz) in sizes.iter().enumerate() {
        let path = format!("/pieces{i}");
        c.p_begin().unwrap();
        let fd = c.p_creat(&path, CreateMode::default()).unwrap();
        for chunk in data.chunks(*sz) {
            c.p_write(fd, chunk).unwrap();
        }
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        assert_eq!(c.read_to_vec(&path, None).unwrap(), data, "piece size {sz}");
    }
}

// ---------------------------------------------------------------------------
// A bulk read against the per-chunk path. `api::read_range` walks the chunk
// index once per range (or probes each chunk's key, as of an instant) and
// copies each chunk's bytes straight from its heap page; `api::fetch_chunk`
// probes one chunk and decodes it. Over files with holes (sparse writes),
// version chains (overwrites, some inside the writing transaction), and
// every chunk layout, the two must read the same bytes: in the writing
// transaction, after its commit, and as of an instant before a second
// transaction, once the vacuum cleaner has archived what that one replaced.

/// `(offset, len, salt)` of one write.
type Write = (u64, usize, u8);

fn write_strategy() -> impl Strategy<Value = Vec<Write>> {
    prop::collection::vec((0u64..60_000, 1usize..20_000, any::<u8>()), 1..6)
}

fn salted(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 253) as u8 ^ salt).collect()
}

/// Reads every window both ways and compares.
fn read_range_agrees(
    fs: &InversionFs,
    s: &mut minidb::Session,
    stat: &inversion::FileStat,
    windows: &[(u64, usize)],
) {
    use inversion::api::{fetch_chunk, read_range};
    for &(offset, len) in windows {
        // Not zeros: a byte the read leaves alone shows.
        let mut got = vec![0xEE; len];
        read_range(fs, s, stat, offset, &mut got).unwrap();
        let mut want = Vec::with_capacity(len);
        for (chunkno, start, take) in inversion::chunk::split_range(stat.chunk_size(), offset, len) {
            let content = fetch_chunk(fs, s, stat, chunkno).unwrap().unwrap_or_default();
            let src = content.get(start..).unwrap_or_default();
            let have = src.len().min(take);
            want.extend_from_slice(&src[..have]);
            want.resize(want.len() + take - have, 0);
        }
        let at = s.as_of();
        assert!(got == want, "as of {at:?}: window {offset}+{len} differs from the per-chunk read");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn read_range_equals_the_per_chunk_path(
        layout in (any::<bool>(), any::<bool>()),
        first in write_strategy(),
        overwrites in write_strategy(),
        second in write_strategy(),
        windows in prop::collection::vec((0u64..70_000, 0usize..30_000), 1..8),
    ) {
        use inversion::LargeObject;
        use minidb::DeviceId;
        let fs = InversionFs::open_in_memory().unwrap();
        let mut mode = CreateMode::default();
        if layout.0 {
            mode = mode.compressed();
        }
        if layout.1 {
            mode = mode.self_identifying();
        }
        let write = |s: &mut minidb::Session, lo: &LargeObject, writes: &[Write]| {
            for &(offset, len, salt) in writes {
                lo.write_at(s, offset, &salted(len, salt)).unwrap();
            }
        };
        let mut s = fs.db().begin().unwrap();
        let lo = LargeObject::create(&fs, &mut s, &mode).unwrap();
        write(&mut s, &lo, &first);
        write(&mut s, &lo, &overwrites);
        let stat = lo.stat(&mut s).unwrap();
        read_range_agrees(&fs, &mut s, &stat, &windows);
        s.commit().unwrap();
        let before = fs.db().now();

        let mut s = fs.db().begin().unwrap();
        write(&mut s, &lo, &second);
        s.commit().unwrap();
        let mut s = fs.db().begin().unwrap();
        read_range_agrees(&fs, &mut s, &stat, &windows);
        s.commit().unwrap();

        minidb::vacuum::vacuum(fs.db(), stat.datarel, DeviceId::DEFAULT).unwrap();
        let mut s = fs.db().begin().unwrap();
        read_range_agrees(&fs, &mut fs.db().snapshot_at(before), &stat, &windows);
        read_range_agrees(&fs, &mut s, &stat, &windows);
        s.commit().unwrap();
    }
}
