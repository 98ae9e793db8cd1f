//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. eager index write-through under buffer pressure (the paper's
//!    create-time penalty) on vs off;
//! 2. buffer cache size (64 as shipped, 300 as deployed, 1024);
//! 3. PRESTOserve board size for NFS random writes (the Figure 6 effect);
//! 4. chunk compression on vs off (storage + random access cost);
//! 5. write coalescing: 256-byte writes inside one transaction vs
//!    auto-committed;
//! 6. extent allocation vs block-at-a-time allocation (cold scans of
//!    concurrently grown relations through the buffer pool).

use bench::extent;
use bench::report::{human_bytes, print_header};
use bench::testbed::{InversionTestbed, NfsTestbed};
use bench::workload::{measure_create, measure_write_ops, BenchFs, InversionLocal, UltrixNfs, MB};
use inversion::{CreateMode, OpenMode, SeekWhence};

fn main() {
    print_header("Ablation 1: eager index write-through (25 MB create, in-process)");
    for eager in [true, false] {
        let mut sys = InversionLocal::new(InversionTestbed::with_config(300, eager));
        let t = measure_create(&mut sys, 25 * MB);
        println!("  eager_index_writes = {eager:<5} -> create = {t:.1}s");
    }
    println!("  (the interleaved-index penalty the paper blames for slow creation)");

    print_header("Ablation 2: buffer cache size (rereading a 2 MB working set)");
    // Cold costs are cache-independent; the pool size decides how much of a
    // working set *stays* resident. Read 2 MB of random pages twice: with
    // 64 frames (512 KB) the second pass misses again; with 300+ frames the
    // set fits and the second pass is nearly free.
    for buffers in [64usize, 300, 1024] {
        let tb = InversionTestbed::with_config(buffers, true);
        let clock = tb.clock.clone();
        let mut sys = InversionLocal::new(tb);
        measure_create(&mut sys, 25 * MB);
        sys.flush_caches();
        let unit = sys.page_unit();
        let mut page = vec![0u8; unit];
        let pass = |sys: &mut InversionLocal, page: &mut Vec<u8>| {
            for i in 0..256usize {
                sys.read_at(((i * 7919) % 256 * unit) as u64, page);
            }
        };
        let t0 = clock.now();
        pass(&mut sys, &mut page);
        let cold = clock.now().since(t0).as_secs_f64();
        let t0 = clock.now();
        pass(&mut sys, &mut page);
        let warm = clock.now().since(t0).as_secs_f64();
        println!("  {buffers:>5} buffers -> first pass {cold:.2}s, second pass {warm:.3}s");
    }

    print_header("Ablation 3: PRESTOserve size (1 MB random page writes over NFS)");
    for blocks in [0u64, 16, 128, 512] {
        let nvram = if blocks == 0 { None } else { Some(blocks) };
        let mut sys = UltrixNfs::new(NfsTestbed::with_nvram_blocks(nvram));
        measure_create(&mut sys, 25 * MB);
        let (_, _, rand) = measure_write_ops(&mut sys, 25 * MB);
        println!(
            "  NVRAM {:>8} -> random 1 MB write = {rand:.2}s",
            if blocks == 0 {
                "none".to_string()
            } else {
                human_bytes(blocks * 8192)
            }
        );
    }
    println!("  (1 MB fits a 128-block board: no disk writes at all — the Figure 6 cliff)");

    print_header("Ablation 4: chunk compression (4 MB of troff-like text)");
    {
        let text = inversion::types::make_troff_document(7, &["storage"], 40_000).into_bytes();
        let data = &text[..(4 * MB as usize).min(text.len())];
        for compressed in [false, true] {
            let tb = InversionTestbed::paper();
            let clock = tb.clock.clone();
            let mut c = tb.fs.client();
            let mode = if compressed {
                CreateMode::default().compressed()
            } else {
                CreateMode::default()
            };
            let t0 = clock.now();
            c.write_all("/doc", mode, data).unwrap();
            let write_t = clock.now().since(t0).as_secs_f64();
            // Stored bytes.
            let stat = c.p_stat("/doc", None).unwrap();
            let mut s = tb.fs.db().begin().unwrap();
            let stored: usize = s
                .seq_scan(stat.datarel)
                .unwrap()
                .iter()
                .map(|(_, r)| r[1].as_bytes().unwrap().len())
                .sum();
            s.commit().unwrap();
            tb.fs.db().flush_caches().unwrap();
            // Random access cost on the compressed representation.
            let fd = c.p_open("/doc", OpenMode::Read, None).unwrap();
            let t0 = clock.now();
            let mut buf = [0u8; 64];
            for i in 0..32u64 {
                c.p_lseek(
                    fd,
                    ((i * 7919 * 8128) % (data.len() as u64 - 64)) as i64,
                    SeekWhence::Set,
                )
                .unwrap();
                c.p_read(fd, &mut buf).unwrap();
            }
            let rand_t = clock.now().since(t0).as_secs_f64() / 32.0;
            c.p_close(fd).unwrap();
            println!(
                "  compressed = {compressed:<5} -> stored {:>8}, write {write_t:.2}s, random 64-byte read {:.1} ms",
                human_bytes(stored as u64),
                rand_t * 1e3
            );
        }
    }

    print_header("Ablation 5: write coalescing (64 KB in 256-byte writes, in-process)");
    {
        // Inside one transaction: sequential small writes coalesce to chunks.
        let tb = InversionTestbed::paper();
        let clock = tb.clock.clone();
        let mut c = tb.fs.client();
        let t0 = clock.now();
        c.p_begin().unwrap();
        let fd = c.p_creat("/coalesced", CreateMode::default()).unwrap();
        for _ in 0..256 {
            c.p_write(fd, &[7u8; 256]).unwrap();
        }
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        let coalesced = clock.now().since(t0).as_secs_f64();

        let tb = InversionTestbed::paper();
        let clock = tb.clock.clone();
        let mut c = tb.fs.client();
        let t0 = clock.now();
        let fd = c.p_creat("/uncoalesced", CreateMode::default()).unwrap();
        for _ in 0..256 {
            c.p_write(fd, &[7u8; 256]).unwrap(); // Auto-commits each write.
        }
        c.p_close(fd).unwrap();
        let uncoalesced = clock.now().since(t0).as_secs_f64();
        println!("  one transaction (coalesced):      {coalesced:.3}s");
        println!("  auto-commit per write (no coalescing): {uncoalesced:.3}s");
        println!(
            "  (\"multiple small sequential writes during a single transaction are coalesced\")"
        );
    }

    print_header("Ablation 6: extent layout (cold scans of 4 concurrently grown relations)");
    extent::print_extent_speedup(4);
}
