//! Scenario tests lifted directly from the paper's text: Table 1, the
//! example queries, the services list, and the client/server vs NFS
//! equivalence of stored data.

mod common;

use common::Devices;
use inversion::{CreateMode, InvServer, InversionFs, LargeObject, SimLink, WireClient};
use minidb::Datum;
use simdev::{CpuModel, Endpoint, NetProfile, Network};

fn fresh_fs() -> InversionFs {
    InversionFs::format(Devices::new().format()).unwrap()
}

#[test]
fn table1_naming_entries_for_etc_passwd() {
    // Table 1: three rows chained root -> etc -> passwd via parentid.
    let fs = fresh_fs();
    let mut c = fs.client();
    c.p_mkdir("/etc").unwrap();
    c.write_all("/etc/passwd", CreateMode::default(), b"root:0:0\n")
        .unwrap();

    let mut s = fs.db().begin().unwrap();
    let r = s
        .query("retrieve (n.filename, n.parentid, n.file) from n in naming")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    let by_name = |name: &str| {
        r.rows
            .iter()
            .find(|row| row[0] == Datum::Text(name.into()))
            .unwrap_or_else(|| panic!("no row for {name}"))
            .clone()
    };
    let root = by_name("/");
    let etc = by_name("etc");
    let passwd = by_name("passwd");
    assert_eq!(root[1], Datum::Oid(0), "root's parent is the invalid oid");
    assert_eq!(etc[1], root[2], "etc's parentid is root's file oid");
    assert_eq!(passwd[1], etc[2], "passwd's parentid is etc's file oid");

    // "The name of the POSTGRES table storing data chunks for /etc/passwd
    // would be inv23114" — inv<oid> in our installation.
    let oid = passwd[2].as_oid().unwrap();
    assert!(fs.db().relation_id(&format!("inv{oid}")).is_ok());
    s.commit().unwrap();
}

#[test]
fn metadata_join_reconstructs_everything() {
    // "A simple two-way table join of naming and fileatt can construct all
    // the metadata for a given Inversion file."
    let fs = fresh_fs();
    let mut c = fs.client();
    c.write_all(
        "/data.bin",
        CreateMode::default().owned_by("mao"),
        &vec![1u8; 4096],
    )
    .unwrap();
    let mut s = fs.db().begin().unwrap();
    let r = s
        .query(
            r#"retrieve (n.filename, a.owner, a.size)
               from n in naming, a in fileatt
               where n.file = a.file and n.filename = "data.bin""#,
        )
        .unwrap();
    s.commit().unwrap();
    assert_eq!(
        r.rows,
        vec![vec![
            Datum::Text("data.bin".into()),
            Datum::Text("mao".into()),
            Datum::Int8(4096),
        ]]
    );
}

#[test]
fn remote_clients_and_direct_clients_share_one_database() {
    // "The same files can be used simultaneously by dynamically-loaded code
    // and by the more conventional client/server architecture."
    let fs = fresh_fs();
    let clock = fs.db().clock().clone();
    let net = Network::ethernet_10mbit(clock.clone());
    let mut remote = WireClient::new(SimLink::connect(
        &fs,
        Endpoint::new(net, NetProfile::tcp_1993()),
        CpuModel::decsystem5900(clock),
    ));

    remote.begin().unwrap();
    let fd = remote.creat("/shared", CreateMode::default()).unwrap();
    remote.write_bulk(fd, b"written remotely").unwrap();
    remote.close(fd).unwrap();
    remote.commit().unwrap();

    let mut local = fs.client();
    assert_eq!(
        local.read_to_vec("/shared", None).unwrap(),
        b"written remotely"
    );

    // And a server-side dispatcher shares the same files again.
    let mut srv = InvServer::new(&fs);
    let out = srv
        .handle(inversion::server::Request::Stat("/shared".into()))
        .unwrap();
    match out {
        inversion::server::Response::Stat(st) => assert_eq!(st.size, 16),
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn blobs_are_inversion_files() {
    // "POSTGRES supports large object storage by creating Inversion files
    // to store object data."
    let fs = fresh_fs();
    let oid;
    {
        let mut s = fs.db().begin().unwrap();
        let lo = LargeObject::create(&fs, &mut s, &CreateMode::default()).unwrap();
        lo.write_at(&mut s, 0, b"blob bytes").unwrap();
        lo.link(&mut s, "/from_database").unwrap();
        oid = lo.oid();
        s.commit().unwrap();
    }
    let mut c = fs.client();
    assert_eq!(
        c.read_to_vec("/from_database", None).unwrap(),
        b"blob bytes"
    );
    // The blob's data table is an ordinary inv<oid> relation, queryable.
    let mut s = fs.db().begin().unwrap();
    let rel = fs.db().relation_id(&format!("inv{}", oid.0)).unwrap();
    let rows = s.seq_scan(rel).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].1[0], Datum::Int4(0)); // chunkno 0
    s.commit().unwrap();
}

#[test]
fn indices_can_be_added_at_user_discretion() {
    // "indices may be defined to make file system operations run faster, at
    // the user's discretion."
    let fs = fresh_fs();
    let mut c = fs.client();
    for i in 0..50 {
        c.write_all(
            &format!("/f{i:02}"),
            CreateMode::default().owned_by(if i % 2 == 0 { "mao" } else { "sue" }),
            b"x",
        )
        .unwrap();
    }
    let fileatt = fs.db().relation_id("fileatt").unwrap();
    fs.db()
        .create_index("fileatt_owner", fileatt, &["owner"])
        .unwrap();
    let mut s = fs.db().begin().unwrap();
    let idx = fs
        .db()
        .find_index(fileatt, &[1]) // owner is column 1
        .expect("index registered");
    let hits = s.index_scan_eq(idx, &[Datum::Text("mao".into())]).unwrap();
    assert_eq!(hits.len(), 25);
    s.commit().unwrap();
}

#[test]
fn seventeen_terabyte_offsets_are_addressable() {
    // "POSTGRES supports storage of objects up to 17.6TBytes in size" — the
    // API must accept seeks anywhere in that range (the devices here are
    // sparse, so a probe write near the limit actually works).
    let fs = fresh_fs();
    let mut c = fs.client();
    let fd = c.p_creat("/sparse17tb", CreateMode::default()).unwrap();
    let far = 17_000_000_000_000i64; // 17 TB.
    assert_eq!(
        c.p_lseek(fd, far, inversion::SeekWhence::Set).unwrap(),
        far as u64
    );
    // Note: we only check the seek; materializing a chunk there is valid
    // but would allocate a 17 TB-offset chunk number.
    let chunkno = far as u64 / inversion::CHUNK_SIZE as u64;
    assert!(chunkno < i32::MAX as u64, "chunk number still fits int4");
    c.p_close(fd).unwrap();
}

#[test]
fn query_language_defines_run_end_to_end() {
    // `define type`, `define function`, and a query using both — the full
    // extensibility loop from the paper's "Exploiting Type and Function
    // Extensibility" section.
    let fs = fresh_fs();
    fs.db().functions().register("test.first_byte", {
        let fs2 = fs.clone();
        move |s, args| {
            let oid = minidb::Oid(args[0].as_oid()?);
            let bytes = fs2
                .read_file(s, oid)
                .map_err(|e| minidb::DbError::Eval(e.to_string()))?;
            Ok(Datum::Int4(bytes.first().copied().unwrap_or(0) as i32))
        }
    });
    let mut c = fs.client();
    c.write_all("/hdf1", CreateMode::default(), &[42u8, 1, 2])
        .unwrap();
    let mut s = fs.db().begin().unwrap();
    s.query("define type hdf").unwrap();
    s.query(r#"define function first_byte (1) returns int4 as "test.first_byte" for hdf"#)
        .unwrap();
    let r = s
        .query(r#"retrieve (v = first_byte(n.file)) from n in naming where n.filename = "hdf1""#)
        .unwrap();
    assert_eq!(r.rows[0][0], Datum::Int4(42));
    s.commit().unwrap();
}
