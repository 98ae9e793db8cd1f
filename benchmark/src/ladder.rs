//! The layer ladder: two fixed scripts — `read_1mb` (open, read 1 MB,
//! close) and `write8_commit` (begin, open, 8 × seek + 8 KB write, close,
//! commit) — entered at each public boundary on the way down. Adjacent rungs
//! subtract to what the layer between them costs.
//!
//! Rungs, top to bottom: `tcp` (the real script over loopback), `tcp_null`
//! (as many frames, pipelined the same way, each a `stat("/")`), `codec`
//! (the frames through the encoders and decoders alone), `api` (`InvClient`
//! in process), `session` (`Session` index scans / updates on a chunk-shaped
//! table), `buffer` (`BufferPool::get_page` on resident pages), `smgr`
//! (`Smgr::read_page`/`write_page`), `device` (`CountingRamDisk` itself).

use std::time::Instant;

use inversion::server::Request;
use inversion::OpenMode;
use minidb::{Datum, DeviceId, Schema, TypeId};
use simdev::{BlockDevice, BLOCK_SIZE};

use crate::device::CountingRamDisk;
use crate::exec::FsCalls;
use crate::rig::{DeviceKind, Rig};
use crate::rng::pattern;
use crate::summary::median;
use crate::trace::{codec_pass, frames_of, scratch_pool};
use crate::workload::{Op, MB};

const FILE: &str = "/ladder";
/// Chunks in the 1 MB file, and so pages touched on the lower read rungs.
const CHUNKS: usize = MB.div_ceil(inversion::CHUNK_SIZE);
const WRITES: usize = 8;
const ROUNDS: usize = 15;

/// Median microseconds per call of `f` over [`ROUNDS`] calls (after one
/// unmeasured call to warm caches).
fn time_us(mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    f()?;
    let mut samples = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        f()?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&samples))
}

fn fs_err(e: inversion::InvError) -> String {
    format!("ladder: {e}")
}

fn db_err(e: minidb::DbError) -> String {
    format!("ladder: {e}")
}

fn read_1mb(c: &mut impl FsCalls) -> Result<(), String> {
    let fd = c.open(FILE, OpenMode::Read).map_err(fs_err)?;
    let got = c.read_bulk(fd, MB).map_err(fs_err)?;
    c.close(fd).map_err(fs_err)?;
    if got.len() != MB {
        return Err(format!("ladder: read {} of {MB} bytes", got.len()));
    }
    Ok(())
}

fn write8_commit(c: &mut impl FsCalls, round: &mut u64) -> Result<(), String> {
    c.begin().map_err(fs_err)?;
    let fd = c.open(FILE, OpenMode::ReadWrite).map_err(fs_err)?;
    for i in 0..WRITES {
        *round += 1;
        let chunk = (*round as usize * 13 + i * 17) % (CHUNKS - 2);
        c.lseek(fd, (chunk * inversion::CHUNK_SIZE) as u64)
            .map_err(fs_err)?;
        c.write_bulk(fd, &pattern(8192, *round)).map_err(fs_err)?;
    }
    c.close(fd).map_err(fs_err)?;
    c.commit().map_err(fs_err)
}

fn load_file(c: &mut impl FsCalls) -> Result<(), String> {
    c.begin().map_err(fs_err)?;
    let fd = c.creat(FILE).map_err(fs_err)?;
    c.write_bulk(fd, &pattern(MB, 42)).map_err(fs_err)?;
    c.close(fd).map_err(fs_err)?;
    c.commit().map_err(fs_err)
}

/// Both scripts at every rung: `(script, rung, microseconds per script)`.
pub fn ladder() -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let mut out = Vec::new();
    let mut both = |rung: &'static str, read: f64, write: f64| {
        out.push(("read_1mb", rung, read));
        out.push(("write8_commit", rung, write));
    };
    let read_op = Op::Read {
        file: 0,
        len: MB as u32,
        stat: false,
    };
    let write_op = Op::TxnWrite {
        file: 0,
        len: 8192,
        writes: (0..WRITES as u32).map(|i| (i * 9, 0)).collect(),
    };
    let (read_frames, write_frames) = (frames_of(&read_op), frames_of(&write_op));

    // tcp, tcp_null: one rig, one connection.
    {
        let rig = Rig::build(&DeviceKind::Ram)?;
        let mut c = rig.connect()?;
        load_file(&mut c)?;
        rig.fs.db().checkpoint().map_err(db_err)?;
        let mut round = 0;
        let read = time_us(|| read_1mb(&mut c))?;
        let write = time_us(|| write8_commit(&mut c, &mut round))?;
        both("tcp", read, write);
        // The bulk read pipelines its segment requests; everything else is
        // one round trip per frame.
        let null = Request::Stat("/".into());
        let read_null = time_us(|| {
            c.call(&null).map_err(fs_err)?;
            for _ in 0..read_frames.len() - 2 {
                c.send(&null).map_err(fs_err)?;
            }
            for _ in 0..read_frames.len() - 2 {
                c.recv().map_err(fs_err)?;
            }
            c.call(&null).map(|_| ()).map_err(fs_err)
        })?;
        let write_null = time_us(|| {
            for _ in 0..write_frames.len() {
                c.call(&null).map_err(fs_err)?;
            }
            Ok(())
        })?;
        both("tcp_null", read_null, write_null);
    }

    let read_codec = time_us(|| {
        std::hint::black_box(codec_pass(&read_frames));
        Ok(())
    })?;
    let write_codec = time_us(|| {
        std::hint::black_box(codec_pass(&write_frames));
        Ok(())
    })?;
    both("codec", read_codec, write_codec);

    // api: the same calls with no wire and no pool in between.
    {
        let rig = Rig::build(&DeviceKind::Ram)?;
        let mut c = rig.fs.client();
        load_file(&mut c)?;
        rig.fs.db().checkpoint().map_err(db_err)?;
        let mut round = 0;
        let read = time_us(|| read_1mb(&mut c))?;
        let write = time_us(|| write8_commit(&mut c, &mut round))?;
        both("api", read, write);
    }

    // session: a table shaped like a file's chunk table, driven directly.
    {
        let rig = Rig::build(&DeviceKind::Ram)?;
        let db = rig.fs.db();
        let schema = Schema::new([("chunkno", TypeId::INT4), ("data", TypeId::BYTES)]);
        let table = db.create_table("ladder_chunks", schema).map_err(db_err)?;
        let index = db
            .create_index("ladder_chunks_idx", table, &["chunkno"])
            .map_err(db_err)?;
        let mut s = db.begin().map_err(db_err)?;
        for k in 0..CHUNKS {
            let row = vec![
                Datum::Int4(k as i32),
                Datum::Bytes(pattern(inversion::CHUNK_SIZE, k as u64)),
            ];
            s.insert(table, row).map_err(db_err)?;
        }
        s.commit().map_err(db_err)?;
        db.checkpoint().map_err(db_err)?;
        let read = time_us(|| {
            let mut s = db.begin().map_err(db_err)?;
            for k in 0..CHUNKS {
                let hits = s
                    .index_scan_eq(index, &[Datum::Int4(k as i32)])
                    .map_err(db_err)?;
                std::hint::black_box(&hits);
            }
            s.commit().map_err(db_err)
        })?;
        let mut round = 0u64;
        let write = time_us(|| {
            let mut s = db.begin().map_err(db_err)?;
            for i in 0..WRITES {
                round += 1;
                let k = ((round as usize * 13 + i * 17) % (CHUNKS - 2)) as i32;
                let hits = s.index_scan_eq(index, &[Datum::Int4(k)]).map_err(db_err)?;
                let (tid, _) = hits.first().ok_or("ladder: chunk row missing")?;
                let row = vec![
                    Datum::Int4(k),
                    Datum::Bytes(pattern(inversion::CHUNK_SIZE, round)),
                ];
                s.update(table, *tid, row).map_err(db_err)?;
            }
            s.commit().map_err(db_err)
        })?;
        both("session", read, write);
    }

    // buffer, smgr: a standalone pool over a scratch device.
    {
        let (pool, smgr, rel) = scratch_pool(CHUNKS as u64)?;
        let dev = DeviceId::DEFAULT;
        let read = time_us(|| {
            for k in 0..CHUNKS as u64 {
                let page = pool.get_page(&smgr, dev, rel, k).map_err(db_err)?;
                std::hint::black_box(page.read().data()[0]);
            }
            Ok(())
        })?;
        let write = time_us(|| {
            for k in 0..WRITES as u64 {
                let page = pool.get_page(&smgr, dev, rel, k * 9).map_err(db_err)?;
                page.write().data_mut()[0] ^= 1;
            }
            Ok(())
        })?;
        both("buffer", read, write);
        pool.flush_all(&smgr).map_err(db_err)?;
        let mut buf = vec![0u8; BLOCK_SIZE];
        let read = time_us(|| {
            for k in 0..CHUNKS as u64 {
                smgr.read_page(dev, rel, k, &mut buf).map_err(db_err)?;
            }
            Ok(())
        })?;
        let page = pattern(BLOCK_SIZE, 3);
        let write = time_us(|| {
            for k in 0..WRITES as u64 {
                smgr.write_page(dev, rel, k * 9, &page).map_err(db_err)?;
            }
            smgr.sync_all().map_err(db_err)
        })?;
        both("smgr", read, write);
    }

    // device: the RAM disk with nothing above it.
    {
        let (mut disk, _) = CountingRamDisk::new("bare", 1 << 10);
        let page = pattern(BLOCK_SIZE, 4);
        for k in 0..CHUNKS as u64 {
            disk.write_block(k, &page).map_err(|e| e.to_string())?;
        }
        let mut buf = vec![0u8; BLOCK_SIZE];
        let read = time_us(|| {
            for k in 0..CHUNKS as u64 {
                disk.read_block(k, &mut buf).map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        let write = time_us(|| {
            for k in 0..WRITES as u64 {
                disk.write_block(k * 9, &page).map_err(|e| e.to_string())?;
            }
            disk.sync().map_err(|e| e.to_string())
        })?;
        both("device", read, write);
    }
    Ok(out)
}
