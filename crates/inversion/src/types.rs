//! Typed files, the Table 2 functions, and synthetic Sequoia 2000 data.
//!
//! "Inversion supports typing of user files. ... Functions that operate on a
//! particular type may also be registered with the database system ...
//! invoked from the query language, and their results examined." Table 2 of
//! the paper lists the installed examples, all implemented here:
//!
//! | file type | functions |
//! |---|---|
//! | ASCII document | `linecount` |
//! | troff document | `keywords`, `wordcount`, `linecount`, `fonts`, `sizes` |
//! | CZCS (Coastal Zone Color Scanner) image | `pixelavg`, `pixelcount`, `getpixel` |
//! | AVHRR / TM satellite image | `snow`, `pixelcount`, `pixelavg`, `getpixel`, `getband` |
//!
//! plus the metadata helpers the paper's example queries use: `owner`,
//! `size`, `filetype`, `dir`, and `month_of`.
//!
//! The paper's data (Thematic Mapper scenes, troff sources) are not
//! available, so deterministic synthetic generators produce stand-ins that
//! exercise the same code paths: a five-band image format with a
//! controllable snow fraction, and troff-like documents with `.KW`, `.ft`,
//! and `.ps` macros.

use minidb::{Datum, DbError, Oid, TypeId};

use crate::fs::{InvError, InvResult, InversionFs};

/// Magic for the synthetic satellite image format.
pub const IMAGE_MAGIC: &[u8; 4] = b"SEQ1";

/// A decoded synthetic satellite image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatelliteImage {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Number of spectral bands ("a device which records five spectral
    /// bands for each image").
    pub bands: u8,
    /// Acquisition month, 1–12.
    pub month: u8,
    /// Band-major pixel data: `bands * width * height` bytes.
    pub data: Vec<u8>,
}

/// Pixel brightness at or above this value in band 0 counts as snow.
pub const SNOW_THRESHOLD: u8 = 200;

impl SatelliteImage {
    /// Deterministically generates an image with approximately
    /// `snow_fraction` of its pixels snow-covered.
    pub fn generate(
        seed: u64,
        width: u32,
        height: u32,
        bands: u8,
        month: u8,
        snow_fraction: f64,
    ) -> Self {
        let n = (width * height) as usize;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut data = vec![0u8; n * bands as usize];
        for p in 0..n {
            let snowy = (next() % 10_000) < (snow_fraction * 10_000.0) as u64;
            for b in 0..bands as usize {
                let v = if snowy {
                    SNOW_THRESHOLD + (next() % (256 - SNOW_THRESHOLD as u64)) as u8
                } else {
                    (next() % SNOW_THRESHOLD as u64) as u8
                };
                data[b * n + p] = v;
            }
        }
        SatelliteImage {
            width,
            height,
            bands,
            month,
            data,
        }
    }

    /// Serializes to the on-disk format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.data.len());
        out.extend_from_slice(IMAGE_MAGIC);
        out.extend_from_slice(&self.width.to_le_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.push(self.bands);
        out.push(self.month);
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(&self.data);
        out
    }

    /// Parses the on-disk format.
    pub fn decode(bytes: &[u8]) -> InvResult<SatelliteImage> {
        if bytes.len() < 16 || &bytes[..4] != IMAGE_MAGIC {
            return Err(InvError::Invalid("not a satellite image".into()));
        }
        let width = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let height = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let bands = bytes[12];
        let month = bytes[13];
        let expect = (width as usize) * (height as usize) * bands as usize;
        let data = bytes
            .get(16..16 + expect)
            .ok_or_else(|| InvError::Invalid("truncated satellite image".into()))?
            .to_vec();
        Ok(SatelliteImage {
            width,
            height,
            bands,
            month,
            data,
        })
    }

    /// Number of pixels per band.
    pub fn pixelcount(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Band-0 value at `(x, y)`.
    pub fn pixel(&self, x: u32, y: u32) -> Option<u8> {
        if x >= self.width || y >= self.height {
            return None;
        }
        Some(self.data[(y * self.width + x) as usize])
    }

    /// Mean value of one band.
    pub fn band_avg(&self, band: u8) -> Option<f64> {
        if band >= self.bands {
            return None;
        }
        let n = self.pixelcount() as usize;
        let slice = &self.data[band as usize * n..(band as usize + 1) * n];
        Some(slice.iter().map(|&b| b as u64).sum::<u64>() as f64 / n as f64)
    }

    /// "The snow function returns a count of the number of pixels that
    /// contain snow in the image."
    pub fn snow_count(&self) -> u64 {
        let n = self.pixelcount() as usize;
        self.data[..n]
            .iter()
            .filter(|&&v| v >= SNOW_THRESHOLD)
            .count() as u64
    }

    /// English month name ("April").
    pub fn month_name(&self) -> &'static str {
        month_name(self.month)
    }
}

/// English month name for 1–12 (empty string otherwise).
pub fn month_name(m: u8) -> &'static str {
    match m {
        1 => "January",
        2 => "February",
        3 => "March",
        4 => "April",
        5 => "May",
        6 => "June",
        7 => "July",
        8 => "August",
        9 => "September",
        10 => "October",
        11 => "November",
        12 => "December",
        _ => "",
    }
}

/// Generates a deterministic ASCII document of roughly `lines` lines.
pub fn make_ascii_document(seed: u64, lines: usize) -> String {
    let words = [
        "storage",
        "manager",
        "transaction",
        "snapshot",
        "jukebox",
        "sequoia",
        "climate",
        "database",
        "inversion",
        "recovery",
        "index",
        "chunk",
    ];
    let mut state = seed | 1;
    let mut out = String::new();
    for i in 0..lines {
        let mut line = String::new();
        let n = 4 + (state as usize + i) % 8;
        for k in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if k > 0 {
                line.push(' ');
            }
            line.push_str(words[(state >> 33) as usize % words.len()]);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Generates a troff-like document with `.KW` keyword, `.ft` font, and
/// `.ps` point-size macros.
pub fn make_troff_document(seed: u64, keywords: &[&str], body_lines: usize) -> String {
    let mut out = String::new();
    for kw in keywords {
        out.push_str(&format!(".KW {kw}\n"));
    }
    out.push_str(".ft R\n.ps 10\n");
    out.push_str(&make_ascii_document(seed, body_lines / 2));
    out.push_str(".ft B\n.ps 12\n");
    out.push_str(&make_ascii_document(
        seed.wrapping_add(1),
        body_lines - body_lines / 2,
    ));
    out
}

fn troff_macro_values(text: &str, mac: &str) -> Vec<String> {
    let prefix = format!(".{mac} ");
    let mut out = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(&prefix) {
            let v = rest.trim().to_string();
            if !v.is_empty() && !out.contains(&v) {
                out.push(v);
            }
        }
    }
    out
}

/// Extracts `.KW` keywords from a troff document as a comma-separated list
/// (what `"RISC" in keywords(file)` matches against).
pub fn extract_keywords(text: &str) -> String {
    troff_macro_values(text, "KW").join(", ")
}

/// Distinct `.ft` font names.
pub fn extract_fonts(text: &str) -> String {
    troff_macro_values(text, "ft").join(", ")
}

/// Distinct `.ps` point sizes.
pub fn extract_sizes(text: &str) -> String {
    troff_macro_values(text, "ps").join(", ")
}

/// Lines that are not macro lines.
pub fn linecount(text: &str) -> u64 {
    text.lines().filter(|l| !l.starts_with('.')).count() as u64
}

/// Whitespace-separated words outside macro lines.
pub fn wordcount(text: &str) -> u64 {
    text.lines()
        .filter(|l| !l.starts_with('.'))
        .map(|l| l.split_whitespace().count() as u64)
        .sum()
}

/// The standard type names registered by [`register_standard`].
pub const TYPE_NAMES: [&str; 5] = ["ascii", "troff", "czcs", "avhrr", "tm"];

/// Registers the standard Sequoia 2000 file types and every Table 2
/// function (implementations *and* catalog definitions) on `fs`'s database.
///
/// Idempotent: re-registering after recovery relinks implementations to the
/// persisted catalog entries, exactly as a POSTGRES site reinstalled its
/// dynamically loaded objects.
pub fn register_standard(fs: &InversionFs) -> InvResult<()> {
    let db = fs.db();
    for t in TYPE_NAMES {
        match db.define_type(t) {
            Ok(_) | Err(DbError::AlreadyExists(_)) => {}
            Err(e) => return Err(e.into()),
        }
    }

    // "would find all the files stored by Inversion *for which the keywords
    // function was defined*": a function registered for particular file
    // types returns null on files of any other type (and on directories),
    // so qualifications simply filter them out. Calling it on a file that
    // *claims* the right type but is malformed is still a hard error.
    let image_types: Vec<TypeId> = ["czcs", "avhrr", "tm"]
        .iter()
        .map(|t| db.catalog().type_by_name(t))
        .collect::<Result<_, _>>()?;
    let text_types: Vec<TypeId> = ["ascii", "troff"]
        .iter()
        .map(|t| db.catalog().type_by_name(t))
        .collect::<Result<_, _>>()?;
    let troff_type = db.catalog().type_by_name("troff")?;

    // The helpers and the registered functions take the mount as a
    // parameter; see `InversionFs::register_function` for why none of them
    // may capture one.
    let image_of = {
        let allowed = image_types.clone();
        move |fs: &InversionFs,
              s: &mut minidb::Session,
              oid: u32|
              -> Result<Option<SatelliteImage>, DbError> {
            let stat = fs
                .stat_oid(s, Oid(oid), None)
                .map_err(|e| DbError::Eval(e.to_string()))?;
            match stat.ftype {
                Some(t) if allowed.contains(&t) => {}
                _ => return Ok(None),
            }
            let bytes = fs
                .read_file(s, Oid(oid), None)
                .map_err(|e| DbError::Eval(e.to_string()))?;
            SatelliteImage::decode(&bytes)
                .map(Some)
                .map_err(|e| DbError::Eval(e.to_string()))
        }
    };
    let text_of = {
        let allowed = text_types.clone();
        move |fs: &InversionFs,
              s: &mut minidb::Session,
              oid: u32|
              -> Result<Option<String>, DbError> {
            let stat = fs
                .stat_oid(s, Oid(oid), None)
                .map_err(|e| DbError::Eval(e.to_string()))?;
            match stat.ftype {
                Some(t) if allowed.contains(&t) => {}
                _ => return Ok(None),
            }
            let bytes = fs
                .read_file(s, Oid(oid), None)
                .map_err(|e| DbError::Eval(e.to_string()))?;
            String::from_utf8(bytes)
                .map(Some)
                .map_err(|_| DbError::Eval("file is not text".into()))
        }
    };
    let troff_of = {
        let t = text_of.clone();
        move |fs: &InversionFs,
              s: &mut minidb::Session,
              oid: u32|
              -> Result<Option<String>, DbError> {
            let stat = fs
                .stat_oid(s, Oid(oid), None)
                .map_err(|e| DbError::Eval(e.to_string()))?;
            if stat.ftype != Some(troff_type) {
                return Ok(None);
            }
            t(fs, s, oid)
        }
    };

    {
        let img = image_of.clone();
        fs.register_function("inversion.snow", move |fs, s, a| {
            let Some(im) = img(fs, s, a[0].as_oid()?)? else {
                return Ok(Datum::Null);
            };
            Ok(Datum::Int8(im.snow_count() as i64))
        });
    }
    {
        let img = image_of.clone();
        fs.register_function("inversion.pixelcount", move |fs, s, a| {
            let Some(im) = img(fs, s, a[0].as_oid()?)? else {
                return Ok(Datum::Null);
            };
            Ok(Datum::Int8(im.pixelcount() as i64))
        });
    }
    {
        let img = image_of.clone();
        fs.register_function("inversion.pixelavg", move |fs, s, a| {
            let Some(im) = img(fs, s, a[0].as_oid()?)? else {
                return Ok(Datum::Null);
            };
            im.band_avg(0)
                .map(Datum::Float8)
                .ok_or_else(|| DbError::Eval("image has no bands".into()))
        });
    }
    {
        let img = image_of.clone();
        fs.register_function("inversion.getpixel", move |fs, s, a| {
            let Some(im) = img(fs, s, a[0].as_oid()?)? else {
                return Ok(Datum::Null);
            };
            let (x, y) = (a[1].as_int()? as u32, a[2].as_int()? as u32);
            im.pixel(x, y)
                .map(|v| Datum::Int4(v as i32))
                .ok_or_else(|| DbError::Eval(format!("pixel ({x}, {y}) out of range")))
        });
    }
    {
        let img = image_of.clone();
        fs.register_function("inversion.getband", move |fs, s, a| {
            let Some(im) = img(fs, s, a[0].as_oid()?)? else {
                return Ok(Datum::Null);
            };
            let b = a[1].as_int()? as u8;
            im.band_avg(b)
                .map(Datum::Float8)
                .ok_or_else(|| DbError::Eval(format!("band {b} out of range")))
        });
    }
    {
        let img = image_of.clone();
        fs.register_function("inversion.month_of", move |fs, s, a| {
            let Some(im) = img(fs, s, a[0].as_oid()?)? else {
                return Ok(Datum::Null);
            };
            Ok(Datum::Text(im.month_name().to_string()))
        });
    }
    {
        let t = troff_of.clone();
        fs.register_function("inversion.keywords", move |fs, s, a| {
            let Some(text) = t(fs, s, a[0].as_oid()?)? else {
                return Ok(Datum::Null);
            };
            Ok(Datum::Text(extract_keywords(&text)))
        });
    }
    {
        let t = troff_of.clone();
        fs.register_function("inversion.fonts", move |fs, s, a| {
            let Some(text) = t(fs, s, a[0].as_oid()?)? else {
                return Ok(Datum::Null);
            };
            Ok(Datum::Text(extract_fonts(&text)))
        });
    }
    {
        let t = troff_of.clone();
        fs.register_function("inversion.sizes", move |fs, s, a| {
            let Some(text) = t(fs, s, a[0].as_oid()?)? else {
                return Ok(Datum::Null);
            };
            Ok(Datum::Text(extract_sizes(&text)))
        });
    }
    {
        let t = text_of.clone();
        fs.register_function("inversion.linecount", move |fs, s, a| {
            let Some(text) = t(fs, s, a[0].as_oid()?)? else {
                return Ok(Datum::Null);
            };
            Ok(Datum::Int8(linecount(&text) as i64))
        });
    }
    {
        let t = text_of.clone();
        fs.register_function("inversion.wordcount", move |fs, s, a| {
            let Some(text) = t(fs, s, a[0].as_oid()?)? else {
                return Ok(Datum::Null);
            };
            Ok(Datum::Int8(wordcount(&text) as i64))
        });
    }
    // Metadata helpers used by the paper's example queries.
    fs.register_function("inversion.owner", |fs, s, a| {
        let stat = fs
            .stat_oid(s, Oid(a[0].as_oid()?), None)
            .map_err(|e| DbError::Eval(e.to_string()))?;
        Ok(Datum::Text(stat.owner))
    });
    fs.register_function("inversion.size", |fs, s, a| {
        let stat = fs
            .stat_oid(s, Oid(a[0].as_oid()?), None)
            .map_err(|e| DbError::Eval(e.to_string()))?;
        Ok(Datum::Int8(stat.size as i64))
    });
    fs.register_function("inversion.filetype", |fs, s, a| {
        let stat = fs
            .stat_oid(s, Oid(a[0].as_oid()?), None)
            .map_err(|e| DbError::Eval(e.to_string()))?;
        match stat.ftype {
            Some(t) => Ok(Datum::Text(s.db().catalog().type_name(t)?)),
            None => Ok(Datum::Text(String::new())),
        }
    });
    fs.register_function("inversion.dir", |fs, s, a| {
        let oid = Oid(a[0].as_oid()?);
        // The directory containing the file: parent of its naming entry.
        let hits = s.index_scan_eq(fs.rels.naming_file_idx, &[Datum::Oid(oid.0)])?;
        let Some((_, row)) = hits.into_iter().next() else {
            return Err(DbError::Eval(format!("no naming entry for oid {oid}")));
        };
        let parent = Oid(row[crate::fs::N_PARENTID].as_oid()?);
        fs.path_of(s, parent, None)
            .map(Datum::Text)
            .map_err(|e| DbError::Eval(e.to_string()))
    });

    let defs: [(&str, usize, TypeId, &str, Option<&str>); 15] = [
        ("snow", 1, TypeId::INT8, "inversion.snow", Some("tm")),
        ("pixelcount", 1, TypeId::INT8, "inversion.pixelcount", None),
        ("pixelavg", 1, TypeId::FLOAT8, "inversion.pixelavg", None),
        ("getpixel", 3, TypeId::INT4, "inversion.getpixel", None),
        (
            "getband",
            2,
            TypeId::FLOAT8,
            "inversion.getband",
            Some("avhrr"),
        ),
        (
            "month_of",
            1,
            TypeId::TEXT,
            "inversion.month_of",
            Some("tm"),
        ),
        (
            "keywords",
            1,
            TypeId::TEXT,
            "inversion.keywords",
            Some("troff"),
        ),
        ("fonts", 1, TypeId::TEXT, "inversion.fonts", Some("troff")),
        ("sizes", 1, TypeId::TEXT, "inversion.sizes", Some("troff")),
        ("linecount", 1, TypeId::INT8, "inversion.linecount", None),
        ("wordcount", 1, TypeId::INT8, "inversion.wordcount", None),
        ("owner", 1, TypeId::TEXT, "inversion.owner", None),
        ("size", 1, TypeId::INT8, "inversion.size", None),
        ("filetype", 1, TypeId::TEXT, "inversion.filetype", None),
        ("dir", 1, TypeId::TEXT, "inversion.dir", None),
    ];
    for (name, nargs, ret, key, for_type) in defs {
        let operates_on = match for_type {
            Some(t) => Some(db.catalog().type_by_name(t)?),
            None => None,
        };
        match db.define_function(name, nargs, ret, key, operates_on) {
            Ok(()) | Err(DbError::AlreadyExists(_)) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::CreateMode;

    #[test]
    fn image_roundtrips_and_counts_snow() {
        let img = SatelliteImage::generate(7, 64, 48, 5, 4, 0.5);
        assert_eq!(img.pixelcount(), 64 * 48);
        let dec = SatelliteImage::decode(&img.encode()).unwrap();
        assert_eq!(dec, img);
        let frac = img.snow_count() as f64 / img.pixelcount() as f64;
        assert!((0.4..0.6).contains(&frac), "snow fraction {frac}");
        assert_eq!(img.month_name(), "April");
        // Snow pixels are bright across bands; determinism.
        let again = SatelliteImage::generate(7, 64, 48, 5, 4, 0.5);
        assert_eq!(again, img);
    }

    #[test]
    fn image_accessors_bounds() {
        let img = SatelliteImage::generate(1, 8, 8, 2, 12, 0.0);
        assert!(img.pixel(7, 7).is_some());
        assert!(img.pixel(8, 0).is_none());
        assert!(img.band_avg(1).is_some());
        assert!(img.band_avg(2).is_none());
        assert_eq!(img.snow_count(), 0);
        assert_eq!(img.month_name(), "December");
        assert!(SatelliteImage::decode(b"nope").is_err());
    }

    #[test]
    fn troff_extraction() {
        let doc = make_troff_document(3, &["RISC", "pipeline"], 20);
        assert_eq!(extract_keywords(&doc), "RISC, pipeline");
        assert_eq!(extract_fonts(&doc), "R, B");
        assert_eq!(extract_sizes(&doc), "10, 12");
        assert!(linecount(&doc) >= 18);
        assert!(wordcount(&doc) > linecount(&doc));
    }

    #[test]
    fn paper_risc_query_end_to_end() {
        // "retrieve (filename) where "RISC" in keywords(file)".
        let fs = InversionFs::open_in_memory().unwrap();
        register_standard(&fs).unwrap();
        let troff = fs.db().catalog().type_by_name("troff").unwrap();
        let mut c = fs.client();
        c.write_all(
            "/doc_risc",
            CreateMode::default().with_type(troff),
            make_troff_document(1, &["RISC", "cache"], 10).as_bytes(),
        )
        .unwrap();
        c.write_all(
            "/doc_other",
            CreateMode::default().with_type(troff),
            make_troff_document(2, &["filesystem"], 10).as_bytes(),
        )
        .unwrap();

        let mut s = fs.db().begin().unwrap();
        let r = s
            .query(r#"retrieve (n.filename) from n in naming where "RISC" in keywords(n.file)"#)
            .unwrap();
        s.commit().unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Datum::Text("doc_risc".into()));
    }

    #[test]
    fn paper_snow_query_end_to_end() {
        // "retrieve (snow(file), filename) where filetype(file) = "tm" and
        //  snow(file)/size(file) > 0.5 and month_of(file) = "April"" —
        // normalized: we compare the snow *fraction of pixels* instead of
        // bytes, which is what the paper's prose describes.
        let fs = InversionFs::open_in_memory().unwrap();
        register_standard(&fs).unwrap();
        let tm = fs.db().catalog().type_by_name("tm").unwrap();
        let mut c = fs.client();
        let snowy = SatelliteImage::generate(1, 32, 32, 5, 4, 0.8);
        let bare = SatelliteImage::generate(2, 32, 32, 5, 4, 0.1);
        let summer = SatelliteImage::generate(3, 32, 32, 5, 7, 0.9);
        c.write_all(
            "/tm_snowy",
            CreateMode::default().with_type(tm),
            &snowy.encode(),
        )
        .unwrap();
        c.write_all(
            "/tm_bare",
            CreateMode::default().with_type(tm),
            &bare.encode(),
        )
        .unwrap();
        c.write_all(
            "/tm_summer",
            CreateMode::default().with_type(tm),
            &summer.encode(),
        )
        .unwrap();

        let mut s = fs.db().begin().unwrap();
        let r = s
            .query(
                r#"retrieve (s = snow(n.file), n.filename)
                   from n in naming
                   where filetype(n.file) = "tm"
                     and snow(n.file) * 2 > pixelcount(n.file)
                     and month_of(n.file) = "April""#,
            )
            .unwrap();
        s.commit().unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[1 - 1][1], Datum::Text("tm_snowy".into()));
        assert_eq!(r.rows[0][0], Datum::Int8(snowy.snow_count() as i64));
    }

    #[test]
    fn paper_owner_dir_query_end_to_end() {
        // "retrieve (filename) where owner(file) = "mao" and ... and
        //  dir(file) = "/users/mao"".
        let fs = InversionFs::open_in_memory().unwrap();
        register_standard(&fs).unwrap();
        let mut c = fs.client();
        c.p_mkdir("/users").unwrap();
        c.p_mkdir("/users/mao").unwrap();
        c.write_all(
            "/users/mao/movie1",
            CreateMode::default().owned_by("mao"),
            b"m",
        )
        .unwrap();
        c.write_all(
            "/users/mao/note",
            CreateMode::default().owned_by("sue"),
            b"n",
        )
        .unwrap();
        c.write_all("/elsewhere", CreateMode::default().owned_by("mao"), b"e")
            .unwrap();

        let mut s = fs.db().begin().unwrap();
        let r = s
            .query(
                r#"retrieve (n.filename) from n in naming
                   where owner(n.file) = "mao" and dir(n.file) = "/users/mao""#,
            )
            .unwrap();
        s.commit().unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Datum::Text("movie1".into()));
    }

    #[test]
    fn functions_survive_recovery_with_reregistration() {
        let fs = InversionFs::open_in_memory().unwrap();
        register_standard(&fs).unwrap();
        // Simulate a fresh process: definitions persist in the catalog;
        // implementations must be re-registered (idempotent).
        register_standard(&fs).unwrap();
        assert!(fs.db().resolve_function("snow").is_ok());
        assert!(fs.db().catalog().proc("keywords").is_ok());
    }

    #[test]
    fn type_checking_catalog_metadata() {
        let fs = InversionFs::open_in_memory().unwrap();
        register_standard(&fs).unwrap();
        let cat = fs.db().catalog();
        let snow = cat.proc("snow").unwrap();
        assert_eq!(snow.operates_on, Some(cat.type_by_name("tm").unwrap()));
        assert_eq!(snow.ret, TypeId::INT8);
        let kw = cat.proc("keywords").unwrap();
        assert_eq!(kw.operates_on, Some(cat.type_by_name("troff").unwrap()));
    }

    #[test]
    fn wrong_typed_file_yields_null_not_error() {
        // "would find all the files stored by Inversion for which the
        // keywords function was defined": other files filter out quietly.
        let fs = InversionFs::open_in_memory().unwrap();
        register_standard(&fs).unwrap();
        let mut c = fs.client();
        c.write_all("/notimage", CreateMode::default(), b"plain text")
            .unwrap();
        let mut s = fs.db().begin().unwrap();
        let r = s
            .query(r#"retrieve (v = snow(n.file)) from n in naming where n.filename = "notimage""#)
            .unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Null]]);
        // And a qualification over it is simply false.
        let r = s
            .query(r#"retrieve (n.filename) from n in naming where snow(n.file) > 0"#)
            .unwrap();
        assert!(r.rows.is_empty());
        s.commit().unwrap();
    }

    #[test]
    fn malformed_file_of_claimed_type_is_a_hard_error() {
        let fs = InversionFs::open_in_memory().unwrap();
        register_standard(&fs).unwrap();
        let tm = fs.db().catalog().type_by_name("tm").unwrap();
        let mut c = fs.client();
        c.write_all(
            "/liar",
            CreateMode::default().with_type(tm),
            b"not an image",
        )
        .unwrap();
        let mut s = fs.db().begin().unwrap();
        let err = s
            .query(r#"retrieve (v = snow(n.file)) from n in naming where n.filename = "liar""#)
            .unwrap_err();
        s.abort().unwrap();
        assert!(matches!(err, DbError::Eval(_)));
    }
}
