//! Extent layout vs. block-at-a-time allocation — Ablation 6 of the
//! `ablations` bin.
//!
//! Four clients grow four relations concurrently (round-robin extends, the
//! allocation pattern a multi-user server produces), then each scans its own
//! relation sequentially from a cold cache. Under the old bump allocator
//! every relation's blocks interleave on the platter, so every read seeks;
//! with extent allocation each relation owns runs of contiguous blocks, and
//! the I/O scheduler's elevator turns four interleaved demand streams back
//! into sequential device access via the prefetch window.
//!
//! Like the rest of the crate, the result is virtual time on the rz58
//! profile: the measured loop drives the real `Smgr` read path (prefetch
//! submission, C-SCAN pick order, ticket claims) and the device's own seek
//! model prices the layouts.

use std::sync::Arc;

use minidb::page::PAGE_SIZE;
use minidb::smgr::{shared_device, GenericManager, Smgr};
use minidb::{DeviceId, Oid, RelId, StatsRegistry};
use simdev::{DiskProfile, MagneticDisk, SimClock};

/// Pages each client scans; small enough that setup stays fast, large
/// enough that seek-vs-sequential pricing dominates fixed costs.
const PAGES_PER_CLIENT: u64 = 64;
/// Demand-stream read-ahead, submitted through the scheduler per phase.
const WINDOW: u64 = 16;
/// Pages a client appends per growth turn — the burst a write-behind
/// flush produces, so the bump allocator interleaves *runs* of blocks
/// that never line up with a later block-by-block concurrent scan.
const GROWTH_BURST: u64 = 4;

/// One measured layout configuration.
#[derive(Debug, Clone)]
pub struct ExtentRun {
    pub threads: usize,
    pub pages_per_client: u64,
    pub virtual_secs: f64,
    pub mb_per_sec: f64,
    /// Requests the elevator served adjacent to their predecessor.
    pub batched_neighbors: u64,
    pub elevator_passes: u64,
}

/// Grows `threads` relations round-robin under `extent_size`, then scans
/// them concurrently and returns the aggregate cold-read bandwidth.
fn measure_layout(extent_size: u64, depth: usize, threads: usize) -> ExtentRun {
    let threads = threads.max(1);
    let clock = SimClock::new();
    let dev = shared_device(MagneticDisk::new(
        "rz58",
        clock.clone(),
        DiskProfile::rz58(),
    ));
    let mut smgr = Smgr::new();
    smgr.register(DeviceId::DEFAULT, Box::new(GenericManager::format(dev).unwrap()))
        .unwrap();
    let stats = Arc::new(StatsRegistry::new());
    smgr.attach_stats(clock.clone(), Arc::clone(&stats));
    smgr.with(DeviceId::DEFAULT, |m| {
        m.set_extent_size(extent_size);
        Ok(())
    })
    .unwrap();

    let rels: Vec<RelId> = (0..threads as u32).map(|c| Oid(200 + c)).collect();
    for &rel in &rels {
        smgr.with(DeviceId::DEFAULT, |m| m.create_rel(rel)).unwrap();
    }
    // Concurrent growth in bursts: the extends interleave, so the bump
    // allocator scatters each relation's blocks while extents keep them
    // in relation-owned runs.
    let page = vec![0x5au8; PAGE_SIZE];
    let mut grown = 0;
    while grown < PAGES_PER_CLIENT {
        for &rel in &rels {
            for _ in 0..GROWTH_BURST.min(PAGES_PER_CLIENT - grown) {
                smgr.with(DeviceId::DEFAULT, |m| m.extend(rel, &page).map(|_| ()))
                    .unwrap();
            }
        }
        grown += GROWTH_BURST;
    }
    smgr.start_io(depth);

    // The measured scan: each phase, every client submits its prefetch
    // window (queued while the worker is paused so the elevator sees the
    // whole batch, as a loaded queue would), the scheduler drains it in
    // sweep order, and the clients consume their tickets.
    let mut buf = vec![0u8; PAGE_SIZE];
    let t0 = clock.now();
    let mut blk = 0;
    while blk < PAGES_PER_CLIENT {
        let hi = (blk + WINDOW).min(PAGES_PER_CLIENT);
        if smgr.io_active() {
            smgr.io_pause(true);
            for b in blk..hi {
                for &rel in &rels {
                    smgr.prefetch_page(DeviceId::DEFAULT, rel, b);
                }
            }
            smgr.io_pause(false);
            smgr.sync_devices(&[DeviceId::DEFAULT]).unwrap();
        }
        for b in blk..hi {
            for &rel in &rels {
                smgr.read_page(DeviceId::DEFAULT, rel, b, &mut buf).unwrap();
            }
        }
        blk = hi;
    }
    let secs = clock.now().since(t0).as_secs_f64().max(1e-9);

    let io = stats.device(DeviceId::DEFAULT);
    let total_bytes = threads as u64 * PAGES_PER_CLIENT * PAGE_SIZE as u64;
    ExtentRun {
        threads,
        pages_per_client: PAGES_PER_CLIENT,
        virtual_secs: secs,
        mb_per_sec: total_bytes as f64 / (1 << 20) as f64 / secs,
        batched_neighbors: io.io_batched_neighbors.get(),
        elevator_passes: io.io_elevator_passes.get(),
    }
}

/// Measures the fragmented synchronous baseline (extent size 1, no
/// scheduler) against extents plus the elevator, `threads` clients each.
pub fn measure_extent_speedup(threads: usize) -> (ExtentRun, ExtentRun) {
    (measure_layout(1, 0, threads), measure_layout(16, 64, threads))
}

/// Prints the pair as a small table with the bandwidth ratio.
pub fn print_extent_speedup(base: &ExtentRun, ext: &ExtentRun) {
    println!(
        "{:<24} {:>8} {:>12} {:>12} {:>10} {:>8}",
        "layout", "clients", "MB/s", "virtual s", "batched", "passes"
    );
    println!("{}", "-".repeat(80));
    for (name, run) in [("block-at-a-time, sync", base), ("extents + elevator", ext)] {
        println!(
            "{:<24} {:>8} {:>12.3} {:>12.4} {:>10} {:>8}",
            name, run.threads, run.mb_per_sec, run.virtual_secs,
            run.batched_neighbors, run.elevator_passes
        );
    }
    let speedup = ext.mb_per_sec / base.mb_per_sec;
    println!();
    println!(
        "sequential read bandwidth with extents + elevator: {speedup:.2}x the \
         fragmented synchronous layout ({} clients, {} pages each, cold cache)",
        ext.threads, ext.pages_per_client
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extents_and_elevator_beat_the_fragmented_layout() {
        let (base, ext) = measure_extent_speedup(4);
        let speedup = ext.mb_per_sec / base.mb_per_sec;
        assert!(
            speedup >= 1.3,
            "extents + elevator must win >= 1.3x, got {speedup:.2}x \
             ({:.3} vs {:.3} MB/s)",
            ext.mb_per_sec,
            base.mb_per_sec
        );
        assert!(ext.batched_neighbors > 0, "the elevator never batched neighbors");
        assert_eq!(base.batched_neighbors, 0, "the baseline must not use the scheduler");
    }
}
