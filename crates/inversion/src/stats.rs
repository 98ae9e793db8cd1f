//! File system operation statistics: the `inv_stat` system relation.
//!
//! Every [`crate::InvClient`] entry point, the chunk storage layer, and the
//! client/server dispatcher report into one [`InvStats`] shared by all
//! clients of an [`crate::InversionFs`]. The registry is registered with the
//! database as a virtual relation named `inv_stat` with schema
//! `(op = text, count = int8)`, so the counters are queryable from POSTQUEL
//! exactly like the storage manager's own `pg_stat_*` relations:
//!
//! ```text
//! retrieve (s.op, s.count) from s in inv_stat
//! ```

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

use minidb::stats::{all, Counter};
use minidb::{stat_table, Datum, Db, Row, Schema, TypeId};
use parking_lot::Mutex;

stat_table! {
    /// Counters for every file system operation, chunk-level I/O, and the
    /// client/server protocol. All updates are relaxed atomics — cheap
    /// enough to leave on permanently, readable concurrently with any
    /// workload. Each counter is one `inv_stat` row, named by its label.
    live InvStats {
        /// Per-session network counters, queryable as `pg_stat_net`.
        pub net: NetRegistry,
    };
    #[derive(Copy)]
    frozen InvCounts;
    /// `p_creat` calls.
    creats as "creat": Counter,
    /// `p_open` calls.
    opens as "open": Counter,
    /// `p_close` calls.
    closes as "close": Counter,
    /// `p_read` calls.
    reads as "read": Counter,
    /// `p_write` calls.
    writes as "write": Counter,
    /// `p_lseek` calls.
    seeks as "lseek": Counter,
    /// `p_stat` + `p_fstat` calls.
    stat_calls as "stat": Counter,
    /// `p_mkdir` calls.
    mkdirs as "mkdir": Counter,
    /// `p_readdir` calls.
    readdirs as "readdir": Counter,
    /// `p_unlink` calls.
    unlinks as "unlink": Counter,
    /// `p_rename` calls.
    renames as "rename": Counter,
    /// `p_slice` calls (WTF-style file composition).
    slices as "slice": Counter,
    /// Bytes returned by `p_read`.
    bytes_read: Counter,
    /// Bytes accepted by `p_write`.
    bytes_written: Counter,
    /// Chunk records fetched from the database.
    chunk_reads: Counter,
    /// Chunk records stored (inserted or updated) in the database.
    chunk_writes: Counter,
    /// Chunk records shared by `p_slice` — stored rows copied between chunk
    /// tables without decoding or re-encoding the payload (zero-copy).
    chunks_shared: Counter,
    /// Write calls absorbed into an already-active coalescing buffer
    /// ("multiple small sequential writes ... are coalesced").
    chunks_coalesced: Counter,
    /// Coalescing-buffer flushes that actually wrote a chunk.
    coalesce_flushes: Counter,
    /// Closes of a descriptor that was only read: the access time went to
    /// the mount's pending map and `fileatt` was not touched (lazytime).
    atimes_deferred: Counter,
    /// `flush_atimes` calls that wrote at least one row.
    atime_flushes: Counter,
    /// `fileatt` rows `flush_atimes` wrote. Deferred access times not
    /// counted here rode along with a real metadata write of their file,
    /// were overtaken by a later read of it, or are still pending.
    atimes_written: Counter,
    /// Requests executed by the client/server dispatcher.
    rpcs: Counter,
    /// Request bytes received by the server (wire sizes).
    rpc_bytes_in: Counter,
    /// Response bytes sent by the server (wire sizes).
    rpc_bytes_out: Counter,
    /// Connections accepted by the session pool.
    sessions_opened: Counter,
    /// Sessions torn down (clean close or disconnect).
    sessions_closed: Counter,
    /// Frames read off the wire across all sessions.
    net_frames_in: Counter,
    /// Frames written to the wire across all sessions.
    net_frames_out: Counter,
    /// Bytes read off the wire across all sessions.
    net_bytes_in: Counter,
    /// Bytes written to the wire across all sessions.
    net_bytes_out: Counter,
    /// Frames that failed to decode (bad opcode, checksum, malformed body).
    net_decode_errors: Counter,
    /// Times a reader blocked because its session queue was full.
    net_queue_full: Counter,
    /// In-flight transactions aborted because the client disconnected.
    net_disconnect_aborts: Counter,
}

impl InvStats {
    /// A zeroed registry.
    pub fn new() -> InvStats {
        InvStats::default()
    }

    /// Every counter as `(name, value)`, in `inv_stat` row order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let names = InvCounts::LABELS.iter().copied();
        // Every `inv_stat` metric is a counter, so every cell is an int8.
        let counts = self.freeze().datums(&all).into_iter().map(|d| match d {
            Datum::Int8(n) => n as u64,
            _ => 0,
        });
        names.zip(counts).collect()
    }

    /// The counters as `inv_stat` rows.
    pub fn rows(&self) -> Vec<Row> {
        self.snapshot()
            .into_iter()
            .map(|(op, n)| vec![Datum::Text(op.into()), Datum::Int8(n as i64)])
            .collect()
    }

    /// The counters as a JSON object (for bench reports).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .snapshot()
            .into_iter()
            .map(|(op, n)| format!("\"{op}\": {n}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

stat_table! {
    /// Wire-level counters for one server-side session, published while the
    /// connection lives and retained (marked closed) afterwards so
    /// post-mortem queries still see the totals.
    live SessionNetStats {
        /// Pool-assigned session number.
        pub session: u64,
        closed: AtomicBool,
    };
    frozen SessionNetCounts [
        /// Pool-assigned session number.
        session: u64,
        /// `open`, or `closed` once the session is torn down.
        state: String,
    ];
    /// Frames read from this connection.
    frames_in: Counter,
    /// Frames written to this connection.
    frames_out: Counter,
    /// Bytes read from this connection (headers + payloads).
    bytes_in: Counter,
    /// Bytes written to this connection.
    bytes_out: Counter,
    /// Frames that arrived but failed to decode.
    decode_errors: Counter,
    /// Times the reader blocked on a full request queue (backpressure).
    queue_full: Counter,
    /// 1 if the session's transaction was aborted by a disconnect.
    disconnect_aborts: Counter,
}

impl SessionNetStats {
    /// Marks the session torn down.
    pub fn mark_closed(&self) {
        self.closed.store(true, Relaxed);
    }

    /// Whether the session has been torn down.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Relaxed)
    }
}

/// The live list of per-session counters behind `pg_stat_net`.
#[derive(Debug, Default)]
pub struct NetRegistry {
    sessions: Mutex<Vec<Arc<SessionNetStats>>>,
}

impl NetRegistry {
    /// Adds a session's counters to the registry.
    pub fn register(&self, session: u64) -> Arc<SessionNetStats> {
        let st = Arc::new(SessionNetStats {
            session,
            ..SessionNetStats::default()
        });
        self.sessions.lock().push(Arc::clone(&st));
        st
    }

    /// The registry as `pg_stat_net` rows: every session ever registered,
    /// open and closed.
    pub fn rows(&self) -> Vec<Row> {
        let sessions = self.sessions.lock().clone();
        sessions
            .iter()
            .map(|s| {
                let state = if s.is_closed() { "closed" } else { "open" };
                s.freeze(s.session, state.into()).datums(&all)
            })
            .collect()
    }
}

/// Registers `stats` with `db` as the virtual relations `inv_stat`
/// (`(op = text, count = int8)`, one row per counter) and `pg_stat_net`
/// (one row per server session).
pub(crate) fn register_inv_stat(db: &Db, stats: &Arc<InvStats>) {
    let st = Arc::clone(stats);
    let schema = Schema::new([("op", TypeId::TEXT), ("count", TypeId::INT8)]);
    db.register_virtual("inv_stat", schema, move |_| st.rows());
    let st = Arc::clone(stats);
    let schema = Schema {
        columns: SessionNetCounts::columns(&all),
    };
    db.register_virtual("pg_stat_net", schema, move |_| st.net.rows());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_follow_snapshot_order() {
        let st = InvStats::new();
        st.reads.bump();
        st.bytes_read.add(4096);
        let rows = st.rows();
        assert_eq!(rows.len(), st.snapshot().len());
        let read_row = rows
            .iter()
            .find(|r| r[0] == Datum::Text("read".into()))
            .unwrap();
        assert_eq!(read_row[1], Datum::Int8(1));
        let bytes_row = rows
            .iter()
            .find(|r| r[0] == Datum::Text("bytes_read".into()))
            .unwrap();
        assert_eq!(bytes_row[1], Datum::Int8(4096));
    }

    #[test]
    fn inv_stat_queryable_from_postquel() {
        let fs = crate::InversionFs::open_in_memory().unwrap();
        let mut c = fs.client();
        c.write_all("/f", crate::CreateMode::default(), b"hello")
            .unwrap();
        assert_eq!(c.read_to_vec("/f", None).unwrap(), b"hello");
        assert!(fs.stats().creats.get() >= 1);
        assert!(fs.stats().writes.get() >= 1);
        assert!(fs.stats().chunk_writes.get() >= 1);
        assert!(fs.stats().chunk_reads.get() >= 1);
        assert_eq!(fs.stats().bytes_written.get(), 5);

        let mut s = fs.db().begin().unwrap();
        let res = s
            .query("retrieve (x.op, x.count) from x in inv_stat")
            .unwrap();
        s.commit().unwrap();
        let creat = res
            .rows
            .iter()
            .find(|r| r[0] == Datum::Text("creat".into()))
            .expect("creat row");
        assert!(matches!(creat[1], Datum::Int8(n) if n >= 1));
        assert_eq!(res.rows.len(), fs.stats().snapshot().len());
    }

    #[test]
    fn server_counts_rpcs_and_bytes() {
        use crate::fs::CreateMode;
        use crate::server::{InvServer, Request, Response};

        let fs = crate::InversionFs::open_in_memory().unwrap();
        let mut srv = InvServer::new(&fs);
        srv.handle(Request::Begin).unwrap();
        let Response::Fd(fd) = srv
            .handle(Request::Creat("/r".into(), CreateMode::default()))
            .unwrap()
        else {
            panic!()
        };
        srv.handle(Request::Write(fd, vec![7u8; 1000])).unwrap();
        srv.handle(Request::Close(fd)).unwrap();
        srv.handle(Request::Commit).unwrap();
        let st = fs.stats();
        assert_eq!(st.rpcs.get(), 5);
        assert!(st.rpc_bytes_in.get() > 1000, "write payload counted");
        assert!(
            st.rpc_bytes_out.get() >= 5 * crate::wire::HEADER_LEN as u64,
            "response headers counted"
        );
    }

    #[test]
    fn json_lists_every_counter() {
        let st = InvStats::new();
        st.rpcs.add(7);
        let json = st.to_json();
        assert!(json.contains("\"rpcs\": 7"), "{json}");
        for (name, _) in st.snapshot() {
            assert!(json.contains(&format!("\"{name}\"")), "{name} missing");
        }
    }
}
