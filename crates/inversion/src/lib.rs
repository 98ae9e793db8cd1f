//! The Inversion file system.
//!
//! A from-scratch reproduction of *The Design and Implementation of the
//! Inversion File System* (Michael A. Olson, USENIX Winter 1993). Inversion
//! is a file system built **on top of a database system**: files are
//! decomposed into chunks stored as records in per-file database tables, the
//! namespace and per-file attributes are ordinary tables, and every service
//! the paper advertises falls out of the storage manager underneath
//! ([`minidb`], our POSTGRES 4.0.1 stand-in):
//!
//! * transaction protection for file data *and* metadata
//!   ([`InvClient::p_begin`] / [`InvClient::p_commit`] / [`InvClient::p_abort`]);
//! * fine-grained **time travel** — [`InvClient::p_open`] takes a timestamp
//!   and opens the file exactly as it was at that instant;
//! * essentially instantaneous crash recovery (no fsck — reopening the
//!   database *is* recovery);
//! * location-transparent storage across magnetic disk, NVRAM, a WORM
//!   optical jukebox, and tape via the device manager switch;
//! * typed files with user-defined functions runnable *inside* the data
//!   manager and callable from the query language ([`types`]);
//! * 17.6 TB files (32-bit chunk numbers x ~8 KB chunks);
//! * chunk-level compression with efficient random access ([`compress`]);
//! * rule-driven file migration across the storage hierarchy ([`migrate`]);
//! * ad-hoc queries over names, attributes, and file contents;
//! * per-operation statistics queryable as the `inv_stat` system relation
//!   ([`stats`]).
//!
//! # Quick start
//!
//! ```
//! use inversion::{InversionFs, CreateMode, OpenMode};
//!
//! let fs = InversionFs::open_in_memory().unwrap();
//! let mut c = fs.client();
//!
//! c.p_begin().unwrap();
//! c.p_mkdir("/etc").unwrap();
//! let fd = c.p_creat("/etc/passwd", CreateMode::default()).unwrap();
//! c.p_write(fd, b"root:0:0:/root\n").unwrap();
//! c.p_close(fd).unwrap();
//! c.p_commit().unwrap();
//!
//! let t_then = fs.db().now();
//!
//! c.p_begin().unwrap();
//! let fd = c.p_open("/etc/passwd", OpenMode::ReadWrite, None).unwrap();
//! c.p_write(fd, b"toor:0:0:/root\n").unwrap();
//! c.p_close(fd).unwrap();
//! c.p_commit().unwrap();
//!
//! // Time travel: the file exactly as it was before the overwrite.
//! let fd = c.p_open("/etc/passwd", OpenMode::Read, Some(t_then)).unwrap();
//! let mut buf = [0u8; 15];
//! c.p_read(fd, &mut buf).unwrap();
//! assert_eq!(&buf, b"root:0:0:/root\n");
//! c.p_close(fd).unwrap();
//! ```

pub mod api;
pub mod chunk;
pub mod client;
pub mod compress;
pub mod fs;
pub mod inproc;
pub mod largeobj;
pub mod maintenance;
pub mod migrate;
pub mod naming;
pub mod nfsfront;
pub mod server;
pub mod pool;
pub mod stats;
pub mod types;
pub mod wire;

pub use api::{Fd, InvClient, OpenMode, SeekWhence};
pub use chunk::CHUNK_SIZE;
pub use client::SimLink;
pub use fs::{CreateMode, FileKind, FileStat, InvError, InvResult, InversionFs, SliceRange};
pub use largeobj::LargeObject;
pub use nfsfront::{NfsFront, NfsHandle};
pub use pool::{InvServerPool, PoolConfig, WireClient};
pub use server::InvServer;
pub use stats::InvStats;
pub use wire::{FrameEvent, WireError};
