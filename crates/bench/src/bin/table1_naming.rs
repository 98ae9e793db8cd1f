//! Table 1 — "naming table entries for /etc/passwd".
//!
//! The paper's example rows:
//!
//! ```text
//! filename  parentid  file
//! /         0         810
//! etc       810       1076
//! passwd    1076      23114
//! ```
//!
//! Object identifiers differ per installation; the *structure* — each
//! entry's parentid equals its parent's file oid — is what the table shows.

use inversion::{CreateMode, InversionFs};

fn main() {
    let fs = InversionFs::open_in_memory().unwrap();
    let mut c = fs.client();
    c.p_begin().unwrap();
    c.p_mkdir("/etc").unwrap();
    let fd = c.p_creat("/etc/passwd", CreateMode::default()).unwrap();
    c.p_write(fd, b"root:*:0:0:System Administrator:/:/bin/csh\n")
        .unwrap();
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();

    println!("Table 1: naming table entries for \"/etc/passwd\"");
    println!();
    let mut s = fs.db().begin().unwrap();
    let r = s
        .query("retrieve (n.filename, n.parentid, n.file) from n in naming")
        .unwrap();
    print!("{}", r.to_table());
    s.commit().unwrap();

    println!();
    println!("(paper's example oids: / = 810, etc = 1076, passwd = 23114)");
    println!("The data table for passwd is named inv<oid>:");
    let mut s = fs.db().begin().unwrap();
    let oid = fs.resolve(&mut s, "/etc/passwd").unwrap();
    s.commit().unwrap();
    let name = format!("inv{}", oid.0);
    assert!(fs.db().relation_id(&name).is_ok());
    println!("  {name} (exists: yes)");
}
