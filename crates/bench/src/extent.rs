//! Extent layout vs. block-at-a-time allocation — Ablation 6 of the
//! `ablations` bin.
//!
//! Four clients grow four relations concurrently (round-robin extends, the
//! allocation pattern a multi-user server produces), then the relations are
//! scanned from a cold cache. Under the old bump allocator every relation's
//! blocks interleave on the platter, so a scan seeks at every growth burst;
//! with extent allocation each relation owns runs of contiguous blocks.
//!
//! Like the rest of the crate, the result is virtual time on the rz58
//! profile. The measured loop is the read path that ships —
//! [`BufferPool::get_page`], reading each block on demand on the caller's
//! thread — and the device's own seek model prices the layouts.

use minidb::buffer::{BufferPool, BERKELEY_BUFFERS};
use minidb::page::PAGE_SIZE;
use minidb::smgr::{shared_device, GenericManager, Smgr};
use minidb::{DeviceId, Oid, RelId};
use simdev::{DiskProfile, MagneticDisk, SimClock};

/// Pages each client scans; small enough that setup stays fast, large
/// enough that seek-vs-sequential pricing dominates fixed costs.
const PAGES_PER_CLIENT: u64 = 64;
/// Pages a client appends per growth turn — the burst a flush produces,
/// so the bump allocator interleaves *runs* of blocks.
const GROWTH_BURST: u64 = 4;

/// The order the cold scan visits the relations' blocks in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scan {
    /// Each relation front to back, one after the other.
    Sequential,
    /// Block by block, round-robin over the relations: four demand streams
    /// sharing the disk arm.
    Interleaved,
}

/// One measured layout configuration.
#[derive(Debug, Clone)]
pub struct ExtentRun {
    pub threads: usize,
    pub pages_per_client: u64,
    pub virtual_secs: f64,
    pub mb_per_sec: f64,
}

/// Grows `threads` relations round-robin under `extent_size`, then scans
/// them cold in `scan` order and returns the aggregate read bandwidth.
fn measure_layout(extent_size: u64, threads: usize, scan: Scan) -> ExtentRun {
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

    let pool = BufferPool::new(BERKELEY_BUFFERS);
    let order: Vec<(RelId, u64)> = match scan {
        Scan::Sequential => rels
            .iter()
            .flat_map(|&rel| (0..PAGES_PER_CLIENT).map(move |b| (rel, b)))
            .collect(),
        Scan::Interleaved => (0..PAGES_PER_CLIENT)
            .flat_map(|b| rels.iter().map(move |&rel| (rel, b)))
            .collect(),
    };
    let t0 = clock.now();
    for (rel, b) in order {
        pool.get_page(&smgr, DeviceId::DEFAULT, rel, b).unwrap();
    }
    let secs = clock.now().since(t0).as_secs_f64().max(1e-9);

    let total_bytes = threads as u64 * PAGES_PER_CLIENT * PAGE_SIZE as u64;
    ExtentRun {
        threads,
        pages_per_client: PAGES_PER_CLIENT,
        virtual_secs: secs,
        mb_per_sec: total_bytes as f64 / (1 << 20) as f64 / secs,
    }
}

/// Measures the fragmented baseline (extent size 1) against 16-block
/// extents, `threads` relations scanned in `scan` order.
pub fn measure_extent_speedup(threads: usize, scan: Scan) -> (ExtentRun, ExtentRun) {
    (measure_layout(1, threads, scan), measure_layout(16, threads, scan))
}

/// Prints both scan orders as a small table with the bandwidth ratios.
pub fn print_extent_speedup(threads: usize) {
    println!(
        "{:<16} {:<14} {:>8} {:>12} {:>12}",
        "layout", "scan", "clients", "MB/s", "virtual s"
    );
    println!("{}", "-".repeat(66));
    let mut ratios = Vec::new();
    for (scan, label) in [(Scan::Sequential, "sequential"), (Scan::Interleaved, "interleaved")] {
        let (base, ext) = measure_extent_speedup(threads, scan);
        for (name, run) in [("block-at-a-time", &base), ("16-block extents", &ext)] {
            println!(
                "{:<16} {:<14} {:>8} {:>12.3} {:>12.4}",
                name, label, run.threads, run.mb_per_sec, run.virtual_secs
            );
        }
        ratios.push(ext.mb_per_sec / base.mb_per_sec);
    }
    println!();
    println!(
        "cold read bandwidth with extents: {:.2}x the fragmented layout scanning \
         each relation front to back, {:.2}x with the {threads} scans interleaved \
         block by block ({PAGES_PER_CLIENT} pages each, buffer pool read path)",
        ratios[0], ratios[1]
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extents_beat_the_fragmented_layout_on_the_shipping_read_path() {
        let (base, ext) = measure_extent_speedup(4, Scan::Sequential);
        let speedup = ext.mb_per_sec / base.mb_per_sec;
        assert!(
            speedup >= 1.15,
            "extents must win >= 1.15x on a sequential cold scan, got {speedup:.2}x \
             ({:.3} vs {:.3} MB/s)",
            ext.mb_per_sec,
            base.mb_per_sec
        );
    }
}
