//! The Sequoia 2000 scenario that motivated Inversion: physical scientists
//! managing satellite imagery as typed files, querying file *contents* from
//! the query language.
//!
//! "Inversion currently stores several hundred satellite images from the
//! Thematic Mapper satellite ... A function has been written to find snow
//! in these images." This example stores a season of synthetic TM scenes,
//! registers the `snow` function, and runs the paper's April-snow query.
//! It asserts each query's rows, so a change in what the executor returns
//! makes it fail.
//!
//! Run with: `cargo run --example satellite_archive`

use inversion::types::{register_standard, SatelliteImage};
use inversion::{CreateMode, InversionFs};

fn main() {
    let fs = InversionFs::open_in_memory().unwrap();
    register_standard(&fs).unwrap();
    let tm = fs.db().catalog().type_by_name("tm").unwrap();
    let mut c = fs.client();

    // A year of scenes over one study site: snowy through spring, bare in
    // summer. Month and snow cover are baked into each synthetic image.
    c.p_mkdir("/tm").unwrap();
    c.p_mkdir("/tm/site42").unwrap();
    println!("ingesting 12 monthly Thematic Mapper scenes ...");
    c.p_begin().unwrap();
    for month in 1..=12u8 {
        let snow_fraction = match month {
            1 | 2 | 3 | 12 => 0.85,
            4 => 0.55,
            5 | 11 => 0.30,
            _ => 0.05,
        };
        let img = SatelliteImage::generate(month as u64, 128, 128, 5, month, snow_fraction);
        let path = format!("/tm/site42/scene_{month:02}.tm");
        let fd = c
            .p_creat(&path, CreateMode::default().with_type(tm).owned_by("frew"))
            .unwrap();
        c.p_write(fd, &img.encode()).unwrap();
        c.p_close(fd).unwrap();
    }
    c.p_commit().unwrap();

    // The paper's query: April images that are more than half snow. The
    // `snow` function runs *inside* the data manager, reading each file's
    // chunks without any copies out of the server.
    println!("\nquery: TM scenes from April with more than 50% snow cover");
    let mut s = fs.db().begin().unwrap();
    let r = s
        .query(
            r#"retrieve (snowpix = snow(n.file), n.filename)
               from n in naming
               where filetype(n.file) = "tm"
                 and snow(n.file) * 2 > pixelcount(n.file)
                 and month_of(n.file) = "April""#,
        )
        .unwrap();
    print!("{}", r.to_table());
    let april: Vec<(i64, &str)> = r
        .rows
        .iter()
        .map(|row| (row[0].as_int().unwrap(), row[1].as_text().unwrap()))
        .collect();
    assert_eq!(april, [(9068, "scene_04.tm")], "April snow");

    // Deep-winter survey: every scene at least 80% snow, any month.
    println!("query: scenes with at least 80% snow cover");
    let r = s
        .query(
            r#"retrieve (n.filename, m = month_of(n.file))
               from n in naming
               where filetype(n.file) = "tm"
                 and snow(n.file) * 5 >= pixelcount(n.file) * 4"#,
        )
        .unwrap();
    print!("{}", r.to_table());
    let months: Vec<&str> = r.rows.iter().map(|row| row[1].as_text().unwrap()).collect();
    assert_eq!(
        months,
        ["January", "February", "March", "December"],
        "80 % cover"
    );

    // Band statistics through getband — per-scene radiometry without an
    // application program.
    println!("query: mean band-2 radiance of the June scene");
    let r = s
        .query(
            r#"retrieve (b2 = getband(n.file, 2))
               from n in naming where n.filename = "scene_06.tm""#,
        )
        .unwrap();
    print!("{}", r.to_table());
    let b2: Vec<f64> = r
        .rows
        .iter()
        .map(|row| row[0].as_float().unwrap())
        .collect();
    assert_eq!(b2, [105.72064208984375], "June band-2 mean");
    s.commit().unwrap();

    // File system and database views of the same data coexist: list the
    // directory the ordinary way.
    println!("directory listing of /tm/site42:");
    let entries = c.p_readdir("/tm/site42", None).unwrap();
    for (name, oid) in entries {
        let stat = c.p_stat(&format!("/tm/site42/{name}"), None).unwrap();
        println!("  {name}  oid={oid}  {} bytes", stat.size);
    }
}
