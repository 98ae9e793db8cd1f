//! Remote sessions: the Inversion server over a real wire.
//!
//! The paper measures Inversion as a server process clients speak a
//! protocol to. This example stands up `InvServerPool`, connects two
//! clients over in-memory byte streams, and shows the session properties
//! the protocol battery tests: per-session descriptor tables and
//! transaction scopes, pipelined bulk transfer, a disconnect that aborts
//! an open transaction, and the `pg_stat_net` counters that watch it all.
//!
//! Run with: `cargo run --example remote_sessions`

use inversion::server::Request;
use inversion::{
    CreateMode, InvServerPool, InversionFs, OpenMode, PoolConfig, WireClient,
};
use simdev::duplex_pair;
use std::time::{Duration, Instant};

fn main() {
    let fs = InversionFs::open_in_memory().unwrap();
    let pool = InvServerPool::new(&fs, PoolConfig::default());

    // Two connections, two server-side sessions.
    let (alice_end, srv_a) = duplex_pair();
    let (bob_end, srv_b) = duplex_pair();
    pool.serve_duplex(srv_a);
    pool.serve_duplex(srv_b);
    let mut alice = WireClient::new(alice_end);
    let mut bob = WireClient::new(bob_end);

    // 1. Bulk transfer: write_bulk pipelines one frame per 256 KB window.
    println!("== pipelined bulk write over the wire ==");
    let report: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
    alice.mkdir("/shared").unwrap();
    let fd = alice
        .creat("/shared/report", CreateMode::default().owned_by("alice"))
        .unwrap();
    let frames_before = alice.stats().frames_out.get();
    let n = alice.write_bulk(fd, &report).unwrap();
    let frames = alice.stats().frames_out.get() - frames_before;
    alice.close(fd).unwrap();
    assert_eq!(frames, 1, "50 000 bytes fit one 256 KB window");
    println!("alice streamed {n} bytes in {frames} frame");

    // 2. Descriptor tables are session state: bob cannot use alice's fd.
    println!("\n== per-session descriptor isolation ==");
    let alice_fd = alice
        .open("/shared/report", OpenMode::Read, None)
        .unwrap();
    match bob.call(&Request::Read(alice_fd, 16)) {
        Err(e) => println!("bob using alice's fd {alice_fd}: {e}"),
        Ok(_) => unreachable!("descriptor leaked across sessions"),
    }
    let bob_fd = bob.open("/shared/report", OpenMode::Read, None).unwrap();
    let head = bob.read_bulk(bob_fd, 8).unwrap();
    println!("bob's own fd {bob_fd} reads fine: {head:?}");
    bob.close(bob_fd).unwrap();
    alice.close(alice_fd).unwrap();

    // 3. A client that vanishes mid-transaction leaves nothing behind.
    println!("\n== disconnect aborts the in-flight transaction ==");
    bob.begin().unwrap();
    let doomed = bob.creat("/shared/draft", CreateMode::default()).unwrap();
    bob.call(&Request::Write(doomed, b"never committed".to_vec()))
        .unwrap();
    drop(bob); // The wire goes dead; the server aborts and cleans up.
    let deadline = Instant::now() + Duration::from_secs(10);
    while fs.stats().net_disconnect_aborts.get() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    println!(
        "/shared/draft after the disconnect: {:?}",
        alice.stat("/shared/draft").err().map(|e| e.to_string())
    );

    // 4. The wire has counters, queryable like everything else.
    println!("\n== pg_stat_net ==");
    let mut s = fs.db().begin().unwrap();
    let rows = s
        .query(
            "retrieve (n.session, n.state, n.frames_in, n.frames_out, \
             n.bytes_in, n.bytes_out, n.disconnect_aborts) from n in pg_stat_net",
        )
        .unwrap();
    s.commit().unwrap();
    for row in &rows.rows {
        println!("{row:?}");
    }

    drop(alice);
    pool.shutdown();
    println!(
        "\nsessions opened={} closed={}, all locks released: {}",
        fs.stats().sessions_opened.get(),
        fs.stats().sessions_closed.get(),
        fs.db().held_lock_count() == 0
    );
}
