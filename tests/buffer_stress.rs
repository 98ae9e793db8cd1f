//! Concurrency stress for the sharded buffer manager: many threads hammer a
//! pool sized far below the working set with mixed point reads, sequential
//! scans, and appends. The suite proves the accounting invariant
//! (`hits + misses == accesses`), the absence of deadlock, and that every
//! committed write is durable after `flush_all`.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use minidb::buffer::BufferPool;
use minidb::smgr::{shared_device, GenericManager, Smgr};
use minidb::{DeviceId, Oid, RelId};
use simdev::{DiskProfile, MagneticDisk, SimClock};

const DEV: DeviceId = DeviceId::DEFAULT;

/// A registered smgr with `nrels` relations of `blocks_per_rel` blocks each,
/// every block stamped with a recognizable header.
fn setup(nrels: u32, blocks_per_rel: u64) -> (Arc<Smgr>, Vec<RelId>) {
    let clock = SimClock::new();
    let dev = shared_device(MagneticDisk::new(
        "stress",
        clock,
        DiskProfile::tiny_for_tests(1 << 14),
    ));
    let mut smgr = Smgr::new();
    smgr.register(DEV, Box::new(GenericManager::format(dev).unwrap()))
        .unwrap();
    let rels: Vec<RelId> = (0..nrels).map(|i| Oid(100 + i)).collect();
    for &rel in &rels {
        smgr.with(DEV, |m| m.create_rel(rel)).unwrap();
        let mut page = vec![0u8; minidb::page::PAGE_SIZE];
        for blk in 0..blocks_per_rel {
            stamp(&mut page, rel, blk, 0);
            smgr.with(DEV, |m| m.extend(rel, &page).map(|_| ())).unwrap();
        }
    }
    (Arc::new(smgr), rels)
}

/// Stamps a page with its identity and a version counter so readers can
/// detect both torn pages and stale bytes.
fn stamp(page: &mut [u8], rel: RelId, blkno: u64, version: u64) {
    page[0..4].copy_from_slice(&rel.0.to_le_bytes());
    page[4..12].copy_from_slice(&blkno.to_le_bytes());
    page[12..20].copy_from_slice(&version.to_le_bytes());
    // Mirror the version at the tail: a torn read would disagree.
    let n = page.len();
    page[n - 8..].copy_from_slice(&version.to_le_bytes());
}

/// `get_page` with backpressure: a transiently exhausted shard (every frame
/// pinned by other threads) is retried, since pins are short-lived here. A
/// bounded retry count keeps a genuine deadlock or leak detectable.
fn get_retry(pool: &BufferPool, smgr: &Smgr, rel: RelId, blk: u64) -> minidb::PinnedPage {
    for _ in 0..100_000 {
        match pool.get_page(smgr, DEV, rel, blk) {
            Ok(pin) => return pin,
            Err(_) => std::thread::yield_now(),
        }
    }
    panic!("pool stayed exhausted: pins are leaking");
}

/// `new_page` with the same backpressure handling.
fn new_retry(pool: &BufferPool, smgr: &Smgr, rel: RelId) -> (u64, minidb::PinnedPage) {
    for _ in 0..100_000 {
        match pool.new_page(smgr, DEV, rel) {
            Ok(r) => return r,
            Err(_) => std::thread::yield_now(),
        }
    }
    panic!("pool stayed exhausted: pins are leaking");
}

fn read_stamp(page: &[u8]) -> (u32, u64, u64, u64) {
    let rel = u32::from_le_bytes(page[0..4].try_into().unwrap());
    let blk = u64::from_le_bytes(page[4..12].try_into().unwrap());
    let ver = u64::from_le_bytes(page[12..20].try_into().unwrap());
    let tail = u64::from_le_bytes(page[page.len() - 8..].try_into().unwrap());
    (rel, blk, ver, tail)
}

/// 12 threads, a 16-frame pool, a 160-block working set: point reads,
/// sequential scans, version-bumping writes, and appends, all interleaved.
/// Each block is write-owned by one thread (readers are unrestricted), so
/// every observed version must be one the owner actually wrote.
#[test]
fn mixed_workload_accounting_and_durability() {
    const THREADS: u32 = 12;
    const BLOCKS: u64 = 40;
    const ROUNDS: u64 = 60;
    let (smgr, rels) = setup(4, BLOCKS);
    let pool = Arc::new(BufferPool::with_shards(16, 4));
    pool.set_prefetch_window(0); // Exact accounting: demand fetches only.
    let accesses = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let smgr = Arc::clone(&smgr);
            let pool = Arc::clone(&pool);
            let accesses = Arc::clone(&accesses);
            let rels = rels.clone();
            std::thread::spawn(move || {
                let mut my_versions = vec![0u64; (rels.len() as u64 * BLOCKS) as usize];
                let mut rng = 0x9e37_79b9_u64.wrapping_mul(t as u64 + 1) | 1;
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                for round in 0..ROUNDS {
                    let rel = rels[(next() % rels.len() as u64) as usize];
                    match round % 4 {
                        // Point reads of random blocks.
                        0 => {
                            for _ in 0..8 {
                                let blk = next() % BLOCKS;
                                let pin = get_retry(&pool, &smgr, rel, blk);
                                accesses.fetch_add(1, Ordering::SeqCst);
                                let (r, b, v, tail) = read_stamp(pin.read().data());
                                assert_eq!((r, b), (rel.0, blk), "page identity");
                                assert_eq!(v, tail, "torn page");
                            }
                        }
                        // A short sequential scan.
                        1 => {
                            let start = next() % BLOCKS;
                            for blk in start..(start + 8).min(BLOCKS) {
                                let pin = get_retry(&pool, &smgr, rel, blk);
                                accesses.fetch_add(1, Ordering::SeqCst);
                                assert_eq!(read_stamp(pin.read().data()).1, blk);
                            }
                        }
                        // Writes to blocks this thread owns (blk % THREADS == t).
                        2 => {
                            for _ in 0..4 {
                                let blk = {
                                    let raw = next() % BLOCKS;
                                    raw - (raw % THREADS as u64) + t as u64
                                };
                                if blk >= BLOCKS {
                                    continue;
                                }
                                let ri = rels.iter().position(|&r| r == rel).unwrap();
                                let slot = ri as u64 * BLOCKS + blk;
                                my_versions[slot as usize] += 1;
                                let pin = get_retry(&pool, &smgr, rel, blk);
                                accesses.fetch_add(1, Ordering::SeqCst);
                                let mut page = pin.write();
                                stamp(page.data_mut(), rel, blk, my_versions[slot as usize]);
                            }
                        }
                        // Appends: fresh pages under pool pressure.
                        _ => {
                            let (blk, pin) = new_retry(&pool, &smgr, rel);
                            let mut page = pin.write();
                            stamp(page.data_mut(), rel, blk, u64::MAX);
                        }
                    }
                }
                my_versions
            })
        })
        .collect();

    let mut owned_versions: Vec<Vec<u64>> = Vec::new();
    for h in handles {
        owned_versions.push(h.join().expect("worker panicked (deadlock or assert)"));
    }

    // Accounting: every demand access is exactly one hit or one miss.
    let s = pool.stats();
    let total = accesses.load(Ordering::SeqCst);
    assert_eq!(s.hits + s.misses, total, "accounting drift: {s:?}");
    assert!(s.misses > 0 && s.evictions > 0, "pool was under pressure: {s:?}");
    assert!(pool.len() <= 16, "capacity respected");
    assert_eq!(pool.check_consistency(), Vec::<String>::new());

    // Durability: flush everything, then read straight from the device and
    // check each owned block carries the owner's final version.
    pool.flush_all(&smgr).unwrap();
    let mut page = vec![0u8; minidb::page::PAGE_SIZE];
    for (ri, &rel) in rels.iter().enumerate() {
        for blk in 0..BLOCKS {
            smgr.with(DEV, |m| m.read(rel, blk, &mut page)).unwrap();
            let (r, b, v, tail) = read_stamp(&page);
            assert_eq!((r, b), (rel.0, blk), "identity on device");
            assert_eq!(v, tail, "torn page on device");
            let owner = (blk % THREADS as u64) as usize;
            let expect = owned_versions[owner][ri as u64 as usize * BLOCKS as usize + blk as usize];
            assert_eq!(
                v, expect,
                "rel {rel} blk {blk}: device has version {v}, owner wrote {expect}"
            );
        }
    }
}

/// Heavy sharing: every thread reads the same tiny hot set plus a cold tail,
/// with read-ahead enabled. Accounting must still balance — prefetched pages
/// count as `prefetches`, never as demand misses.
#[test]
fn shared_hot_set_with_readahead_balances_books() {
    const THREADS: u32 = 8;
    const BLOCKS: u64 = 64;
    let (smgr, rels) = setup(1, BLOCKS);
    let rel = rels[0];
    let pool = Arc::new(BufferPool::with_shards(32, 4));
    let accesses = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let smgr = Arc::clone(&smgr);
            let pool = Arc::clone(&pool);
            let accesses = Arc::clone(&accesses);
            std::thread::spawn(move || {
                // Each thread alternates a full sequential scan with a
                // burst of point reads on the first 8 blocks.
                for blk in 0..BLOCKS {
                    let pin = get_retry(&pool, &smgr, rel, blk);
                    accesses.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(read_stamp(pin.read().data()).1, blk);
                }
                for i in 0..32u64 {
                    let blk = (i + t as u64) % 8;
                    let pin = get_retry(&pool, &smgr, rel, blk);
                    accesses.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(read_stamp(pin.read().data()).1, blk);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    let s = pool.stats();
    assert_eq!(
        s.hits + s.misses,
        accesses.load(Ordering::SeqCst),
        "accounting drift: {s:?}"
    );
    assert!(s.prefetches > 0, "sequential scans should prefetch: {s:?}");
    assert_eq!(pool.check_consistency(), Vec::<String>::new());
}

/// Pin storms: threads repeatedly pin several pages at once while others
/// force evictions. No deadlock, and pinned pages always survive.
///
/// 8 threads × 3 simultaneous pins can demand 24 frames from a 16-frame
/// pool, so batch acquisition MUST release what it holds before retrying —
/// threads that spin on the third pin while holding two starve each other
/// (the pin-wait analogue of lock-ordering deadlock). The all-or-nothing
/// retry below is the discipline real multi-page callers need.
#[test]
fn pin_storm_under_eviction_pressure() {
    const THREADS: u32 = 8;
    const BLOCKS: u64 = 48;
    let (smgr, rels) = setup(1, BLOCKS);
    let rel = rels[0];
    let pool = Arc::new(BufferPool::with_shards(16, 4));
    pool.set_prefetch_window(0);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let smgr = Arc::clone(&smgr);
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                for round in 0..50u64 {
                    let base = (t as u64 * 5 + round) % (BLOCKS - 3);
                    let mut attempts = 0u64;
                    let pins: Vec<_> = loop {
                        let acquired: Result<Vec<_>, _> = (base..base + 3)
                            .map(|b| pool.get_page(&smgr, DEV, rel, b))
                            .collect();
                        match acquired {
                            Ok(pins) => break pins,
                            // Exhausted: drop any partial batch (the Err
                            // already released it) and yield so holders
                            // can finish their round.
                            Err(_) => {
                                attempts += 1;
                                assert!(attempts < 1_000_000, "pin storm livelocked");
                                std::thread::yield_now();
                            }
                        }
                    };
                    // While pinned, the frames must keep their identity even
                    // as other threads churn the rest of the pool.
                    for (i, pin) in pins.iter().enumerate() {
                        assert_eq!(read_stamp(pin.read().data()).1, base + i as u64);
                    }
                    let clone = pins[0].clone();
                    drop(pins);
                    assert_eq!(read_stamp(clone.read().data()).1, base);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    assert_eq!(pool.check_consistency(), Vec::<String>::new());
    assert!(pool.len() <= 16);
}

/// The flush-vs-split deadlock. A B-tree split holds its node's write latch
/// while it asks the pool for a fresh page; a flush that has pinned every
/// cached frame up front and then parks on that latch leaves the split no
/// evictable frame, and neither can move — the pool's stall cap turned
/// that into "buffer pool exhausted: every page is pinned". Pins are not
/// in the lock hierarchy, so the flush must hold only one at a time: then
/// parking on the latch costs the pool one frame, and the split proceeds.
#[test]
fn flush_parked_on_a_latched_page_leaves_the_pool_usable() {
    let (smgr, rels) = setup(1, 4);
    let rel = rels[0];
    let pool = Arc::new(BufferPool::with_shards(4, 1));
    pool.set_prefetch_window(0);
    // Four dirty pages fill the pool. Keep the last one pinned and latched,
    // as a splitting node is.
    let mut pins: Vec<_> = (0..4u64)
        .map(|blk| {
            let pin = pool.get_page(&smgr, DEV, rel, blk).unwrap();
            stamp(pin.write().data_mut(), rel, blk, 1);
            pin
        })
        .collect();
    let node = pins.pop().unwrap();
    drop(pins);
    let latch = node.write();

    let flusher = {
        let (pool, smgr) = (Arc::clone(&pool), Arc::clone(&smgr));
        std::thread::spawn(move || pool.flush_all(&smgr))
    };
    // The sweep runs in key order: once blocks 0..3 are clean it is parked
    // on block 3's latch, or about to be. (A flush that pins everything
    // first never gets this far; `new_page` below shows what that costs.)
    common::wait_until(|| {
        (0..3u64).all(|blk| !pool.get_page(&smgr, DEV, rel, blk).unwrap().read().is_dirty())
    });
    let fresh = pool.new_page(&smgr, DEV, rel);

    drop(latch);
    assert_eq!(flusher.join().expect("flusher panicked"), Ok(4));
    let (blkno, _pin) = fresh.expect("a parked flush must not starve the pool of frames");
    assert_eq!(blkno, 4);
    assert!(!node.read().is_dirty(), "the flush resumed and wrote the node");
    assert_eq!(pool.check_consistency(), Vec::<String>::new());
}
