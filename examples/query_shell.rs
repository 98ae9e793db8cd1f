//! An interactive POSTQUEL query monitor over a demo file system.
//!
//! "Users may run the query language monitor program to execute arbitrarily
//! complex queries." Pipe queries in, pass one as an argument, or run with
//! no input for a scripted demo.
//!
//! ```text
//! cargo run --example query_shell                       # scripted demo
//! cargo run --example query_shell 'retrieve (n.filename) from n in naming'
//! echo 'retrieve (1 + 1)' | cargo run --example query_shell -
//! ```
//!
//! In shell mode, `\stats` dumps every statistics relation (`pg_stat_*` and
//! `inv_stat`) and `\q` quits.

use std::io::{BufRead, Write};

use inversion::types::{make_troff_document, register_standard, SatelliteImage};
use inversion::{CreateMode, InversionFs};

fn build_demo_fs() -> InversionFs {
    let fs = InversionFs::open_in_memory().unwrap();
    register_standard(&fs).unwrap();
    let tm = fs.db().catalog().type_by_name("tm").unwrap();
    let troff = fs.db().catalog().type_by_name("troff").unwrap();
    let mut c = fs.client();
    c.p_mkdir("/users").unwrap();
    c.p_mkdir("/users/mao").unwrap();
    c.write_all(
        "/users/mao/risc_paper.t",
        CreateMode::default().with_type(troff).owned_by("mao"),
        make_troff_document(1, &["RISC", "pipelining"], 40).as_bytes(),
    )
    .unwrap();
    c.write_all(
        "/users/mao/fs_paper.t",
        CreateMode::default().with_type(troff).owned_by("mao"),
        make_troff_document(2, &["filesystem", "database"], 40).as_bytes(),
    )
    .unwrap();
    for (i, (month, snow)) in [(4u8, 0.7), (4, 0.2), (7, 0.05)].iter().enumerate() {
        c.write_all(
            &format!("/users/mao/tm_{i}.img"),
            CreateMode::default().with_type(tm).owned_by("mao"),
            &SatelliteImage::generate(i as u64, 64, 64, 5, *month, *snow).encode(),
        )
        .unwrap();
    }
    fs
}

fn run_query(fs: &InversionFs, q: &str) {
    let mut s = fs.db().begin().unwrap();
    match s.query(q) {
        Ok(r) => {
            print!("{}", r.to_table());
            s.commit().unwrap();
        }
        Err(e) => {
            println!("error: {e}");
            let _ = s.abort();
        }
    }
}

/// `\stats`: dump every registered statistics relation through the query
/// language, its target list built from the relation's schema. `pg_check`
/// is skipped: it is a full verifier run, not a counter.
fn show_stats(fs: &InversionFs) {
    let db = fs.db();
    for rel in db.virtual_names().iter().filter(|rel| *rel != "pg_check") {
        let Some(table) = db.virtual_table(rel) else {
            continue;
        };
        let targets: Vec<String> = table
            .schema
            .columns
            .iter()
            .map(|c| format!("s.{}", c.name))
            .collect();
        println!("-- {rel}");
        run_query(
            fs,
            &format!("retrieve ({}) from s in {rel}", targets.join(", ")),
        );
    }
}

fn main() {
    let fs = build_demo_fs();
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a != "-") {
        for q in args.iter().filter(|a| *a != "-") {
            run_query(&fs, q);
        }
        return;
    }

    let interactive = args.is_empty();
    if interactive {
        // Scripted demo when no input was provided.
        let demo = [
            r#"retrieve (n.filename, o = owner(n.file), s = size(n.file)) from n in naming where size(n.file) > 0"#,
            r#"retrieve (n.filename) from n in naming where "RISC" in keywords(n.file)"#,
            r#"retrieve (snowpix = snow(n.file), n.filename) from n in naming
               where filetype(n.file) = "tm" and snow(n.file) * 2 > pixelcount(n.file)
                 and month_of(n.file) = "April""#,
            r#"retrieve (n.filename, d = dir(n.file)) from n in naming where owner(n.file) = "mao" and size(n.file) > 0"#,
            r#"explain retrieve (n.filename) from n in naming where size(n.file) > 0 sort by filename"#,
        ];
        println!("POSTQUEL query monitor (scripted demo; pipe queries to stdin for shell mode)\n");
        for q in demo {
            println!("> {}", q.split_whitespace().collect::<Vec<_>>().join(" "));
            run_query(&fs, q);
            println!();
        }
        return;
    }

    // Shell mode: one query per line from stdin.
    let stdin = std::io::stdin();
    print!("postquel> ");
    std::io::stdout().flush().unwrap();
    for line in stdin.lock().lines() {
        let line = line.unwrap();
        let q = line.trim();
        if q.is_empty() || q == "\\q" {
            break;
        }
        if q == "\\stats" {
            show_stats(&fs);
            print!("postquel> ");
            std::io::stdout().flush().unwrap();
            continue;
        }
        run_query(&fs, q);
        print!("postquel> ");
        std::io::stdout().flush().unwrap();
    }
}
