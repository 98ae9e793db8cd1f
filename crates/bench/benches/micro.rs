//! Criterion micro-benchmarks: wall-clock performance of the real data
//! structures (the simulated-time harnesses measure *modeled* time; these
//! measure the implementation itself).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use inversion::{
    chunk::Coalescer, compress, types::SatelliteImage, CreateMode, InversionFs, OpenMode,
    SeekWhence,
};
use minidb::{decode_row, encode_row, Datum, Db, Schema, TypeId};

fn bench_page(c: &mut Criterion) {
    c.bench_function("page/insert_100b_items", |b| {
        let mut buf = vec![0u8; minidb::page::PAGE_SIZE];
        b.iter(|| {
            minidb::page::init(&mut buf, 0);
            while minidb::page::fits(&buf, 100) {
                minidb::page::insert(&mut buf, &[7u8; 100]).unwrap();
            }
            black_box(minidb::page::nslots(&buf))
        })
    });
}

/// Appending one heap-insert record to the log: encode, copy into the
/// append buffer, count. Nothing forces, so nothing touches the device;
/// when the epoch is full the log is thrown away for a fresh one.
fn bench_wal(c: &mut Criterion) {
    let fresh_log = || {
        let disk = simdev::MagneticDisk::new(
            "log",
            simdev::SimClock::new(),
            simdev::DiskProfile::tiny_for_tests(1 << 12),
        );
        minidb::Wal::create(minidb::shared_device(disk), Default::default()).unwrap()
    };
    for (name, len) in [("64", 64), ("8k", 8000)] {
        c.bench_function(&format!("wal_append/{name}"), |b| {
            let mut wal = fresh_log();
            let rec = minidb::WalRecord::Insert {
                dev: minidb::DeviceId::DEFAULT,
                rel: minidb::Oid(7),
                blkno: 0,
                slot: 0,
                tuple: vec![7u8; len],
            };
            b.iter(|| {
                if wal.append(&rec).is_err() {
                    wal = fresh_log();
                    wal.append(&rec).unwrap();
                }
                black_box(wal.next_lsn())
            })
        });
    }
}

fn bench_datum(c: &mut Criterion) {
    let row = vec![
        Datum::Int4(42),
        Datum::Text("the quick brown fox".into()),
        Datum::Oid(23114),
        Datum::Bytes(vec![9u8; 1024]),
    ];
    c.bench_function("datum/encode_row", |b| {
        b.iter(|| black_box(encode_row(&row)))
    });
    let enc = encode_row(&row);
    c.bench_function("datum/decode_row", |b| {
        b.iter(|| black_box(decode_row(&enc).unwrap()))
    });
}

fn bench_btree(c: &mut Criterion) {
    c.bench_function("db/indexed_insert_1k_rows", |b| {
        b.iter(|| {
            let db = Db::open_in_memory().unwrap();
            let rel = db
                .create_table("t", Schema::new([("k", TypeId::INT4), ("v", TypeId::TEXT)]))
                .unwrap();
            db.create_index("t_k", rel, &["k"]).unwrap();
            let mut s = db.begin().unwrap();
            for i in 0..1000 {
                s.insert(rel, vec![Datum::Int4(i), Datum::Text("x".into())])
                    .unwrap();
            }
            s.commit().unwrap();
        })
    });
    c.bench_function("db/index_point_lookup", |b| {
        let db = Db::open_in_memory().unwrap();
        let rel = db
            .create_table("t", Schema::new([("k", TypeId::INT4)]))
            .unwrap();
        let idx = db.create_index("t_k", rel, &["k"]).unwrap();
        let mut s = db.begin().unwrap();
        for i in 0..10_000 {
            s.insert(rel, vec![Datum::Int4(i)]).unwrap();
        }
        s.commit().unwrap();
        let mut s = db.begin().unwrap();
        let mut k = 0;
        b.iter(|| {
            k = (k + 4999) % 10_000;
            black_box(s.index_scan_eq(idx, &[Datum::Int4(k)]).unwrap())
        });
    });
    // One probe of a key with 1, 10 and 100 versions. The index holds
    // 3 200 entries each time (3 200, 320 or 32 keys), so the tree is the
    // same shape and only the chain length differs: flat, since the probe
    // stops at the newest version.
    for chain in [1, 10, 100] {
        c.bench_function(&format!("index_probe/chain_{chain}"), |b| {
            let db = Db::open_in_memory().unwrap();
            let rel = db
                .create_table("t", Schema::new([("k", TypeId::INT4), ("v", TypeId::BYTES)]))
                .unwrap();
            let idx = db.create_unique_index("t_k", rel, &["k"]).unwrap();
            let keys = 3200 / chain;
            let row = |k: i32| vec![Datum::Int4(k), Datum::Bytes(vec![k as u8; 64])];
            let mut s = db.begin().unwrap();
            let mut tids: Vec<_> = (0..keys).map(|k| s.insert(rel, row(k)).unwrap()).collect();
            for _ in 1..chain {
                for (k, tid) in tids.iter_mut().enumerate() {
                    *tid = s.update(rel, *tid, row(k as i32)).unwrap();
                }
            }
            s.commit().unwrap();
            let mut s = db.begin().unwrap();
            let mut k = 0;
            b.iter(|| {
                k = (k + 37) % keys;
                black_box(s.index_lookup_unique(idx, &[Datum::Int4(k)]).unwrap())
            });
        });
    }
}

fn bench_query(c: &mut Criterion) {
    c.bench_function("query/parse_retrieve", |b| {
        b.iter(|| {
            black_box(
                minidb::query::parse(
                    r#"retrieve (snow(file), filename) where filetype(file) = "tm"
                       and snow(file) / size(file) > 0.5 and month_of(file) = "April""#,
                )
                .unwrap(),
            )
        })
    });
    c.bench_function("query/exec_filtered_scan", |b| {
        let db = Db::open_in_memory().unwrap();
        let rel = db
            .create_table(
                "emp",
                Schema::new([("name", TypeId::TEXT), ("age", TypeId::INT4)]),
            )
            .unwrap();
        let mut s = db.begin().unwrap();
        for i in 0..500 {
            s.insert(rel, vec![Datum::Text(format!("p{i}")), Datum::Int4(i % 70)])
                .unwrap();
        }
        s.commit().unwrap();
        let mut s = db.begin().unwrap();
        b.iter(|| {
            black_box(
                s.query("retrieve (e.name) from e in emp where e.age > 65")
                    .unwrap(),
            )
        });
    });
}

fn bench_inversion(c: &mut Criterion) {
    c.bench_function("inversion/write_read_64k", |b| {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut client = fs.client();
        let data = vec![0xA5u8; 64 * 1024];
        let mut i = 0;
        b.iter(|| {
            i += 1;
            let path = format!("/f{i}");
            client
                .write_all(&path, CreateMode::default(), &data)
                .unwrap();
            black_box(client.read_to_vec(&path, None).unwrap())
        });
    });
    // The server's share of one `read_bulk` window: a 256 KB `p_read` of a
    // 1 MB file whose pages are all in the pool.
    c.bench_function("read_range/window_256k", |b| {
        const WINDOW: usize = 256 << 10;
        let config = minidb::DbConfig {
            buffers: minidb::BERKELEY_BUFFERS,
            ..Default::default()
        };
        let fs = InversionFs::format(Db::open_in_memory_with(config).unwrap()).unwrap();
        let mut client = fs.client();
        let data: Vec<u8> = (0..4 * WINDOW).map(|i| (i % 251) as u8).collect();
        client.write_all("/f", CreateMode::default(), &data).unwrap();
        let fd = client.p_open("/f", OpenMode::Read, None).unwrap();
        let mut buf = vec![0u8; WINDOW];
        let mut at = 0;
        b.iter(|| {
            client.p_lseek(fd, at, SeekWhence::Set).unwrap();
            at = (at + WINDOW as i64) % data.len() as i64;
            black_box(client.p_read(fd, &mut buf).unwrap())
        });
    });
    c.bench_function("inversion/coalescer_64k_in_256b", |b| {
        let data = [7u8; 256];
        b.iter(|| {
            let mut co = Coalescer::new(inversion::CHUNK_SIZE);
            let mut off = 0u64;
            let mut flushed = 0usize;
            for _ in 0..256 {
                let mut done = 0;
                while done < data.len() {
                    let n = co.absorb(off + done as u64, &data[done..]);
                    if n == 0 {
                        flushed += co.take().unwrap().2.len();
                        continue;
                    }
                    done += n;
                }
                off += data.len() as u64;
            }
            if let Some((_, _, buf)) = co.take() {
                flushed += buf.len();
            }
            black_box(flushed)
        });
    });
}

fn bench_compress(c: &mut Criterion) {
    let text = inversion::types::make_troff_document(3, &["storage"], 200).into_bytes();
    let chunk = &text[..8128.min(text.len())];
    c.bench_function("compress/chunk_text", |b| {
        b.iter(|| black_box(compress::compress(chunk)))
    });
    let comp = compress::compress(chunk);
    c.bench_function("compress/decompress_chunk_text", |b| {
        b.iter(|| black_box(compress::decompress(&comp).unwrap()))
    });
    let img = SatelliteImage::generate(1, 64, 64, 5, 4, 0.5).encode();
    c.bench_function("compress/satellite_image_16k", |b| {
        b.iter(|| black_box(compress::compress(&img[..16384.min(img.len())])))
    });
}

criterion_group!(
    benches,
    bench_page,
    bench_wal,
    bench_datum,
    bench_btree,
    bench_query,
    bench_inversion,
    bench_compress
);
criterion_main!(benches);
