//! Paper-versus-measured reporting, as text tables and (with `--json`)
//! machine-readable `BENCH_<name>.json` files that pair the simulated
//! seconds with storage-manager counter deltas from [`minidb::stats`].

use std::io::Write;
use std::path::PathBuf;

/// One row of a comparison: the paper's number next to ours.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Row label (the paper's operation name).
    pub label: String,
    /// The paper's measurements, one per system column.
    pub paper: Vec<f64>,
    /// Our simulated measurements, one per system column.
    pub measured: Vec<f64>,
}

impl Comparison {
    /// Creates a row.
    pub fn new(label: &str, paper: &[f64], measured: &[f64]) -> Comparison {
        Comparison {
            label: label.to_string(),
            paper: paper.to_vec(),
            measured: measured.to_vec(),
        }
    }
}

/// Prints a section banner.
pub fn print_header(title: &str) {
    println!();
    println!("{}", "=".repeat(title.len().max(60)));
    println!("{title}");
    println!("{}", "=".repeat(title.len().max(60)));
}

/// Prints a comparison table. Each system gets a `paper` and a `measured`
/// column (seconds); a final column compares the paper's ratio between the
/// first two systems with ours, which is the reproduction target ("the
/// shape — who wins, by roughly what factor").
pub fn print_comparison(systems: &[&str], rows: &[Comparison]) {
    print!("{:<38}", "operation");
    for s in systems {
        print!("{:>14} {:>14}", format!("{s}"), "(measured)");
    }
    if systems.len() >= 2 {
        print!("{:>22}", "ratio paper / ours");
    }
    println!();
    let width = 38 + systems.len() * 29 + if systems.len() >= 2 { 22 } else { 0 };
    println!("{}", "-".repeat(width));
    for row in rows {
        print!("{:<38}", row.label);
        for i in 0..systems.len() {
            let p = row.paper.get(i).copied().unwrap_or(f64::NAN);
            let m = row.measured.get(i).copied().unwrap_or(f64::NAN);
            print!("{} {}", cell(p, 13, 3, 's'), cell(m, 13, 3, 's'));
        }
        if systems.len() >= 2 {
            let paper_ratio = row.paper[0] / row.paper[1];
            let our_ratio = row.measured[0] / row.measured[1];
            print!("{} {}", cell(paper_ratio, 11, 2, 'x'), cell(our_ratio, 9, 2, 'x'));
        }
        println!();
    }
}

/// `v` right-aligned in `width` columns with `prec` decimals and `unit`
/// after it, or `-` in their place when there is no number (a cell the
/// paper does not give).
fn cell(v: f64, width: usize, prec: usize, unit: char) -> String {
    match v.is_finite() {
        true => format!("{v:>width$.prec$}{unit}"),
        false => format!("{:>w$}", "-", w = width + 1),
    }
}

/// Whether the process was invoked with `--json` (emit a `BENCH_*.json`
/// report next to the text table).
pub fn wants_json() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Renders the comparison rows as a JSON array (paper and measured seconds
/// keyed by system name).
pub fn comparison_json(systems: &[&str], rows: &[Comparison]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|row| {
            let pair = |vals: &[f64]| {
                let fields: Vec<String> = systems
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        let v = vals.get(i).copied().unwrap_or(f64::NAN);
                        if v.is_finite() {
                            format!("\"{s}\": {v:.6}")
                        } else {
                            format!("\"{s}\": null")
                        }
                    })
                    .collect();
                format!("{{{}}}", fields.join(", "))
            };
            format!(
                "{{\"label\": \"{}\", \"paper_seconds\": {}, \"measured_seconds\": {}}}",
                row.label,
                pair(&row.paper),
                pair(&row.measured)
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// Assembles a full benchmark report document: the comparison rows plus any
/// extra `(key, json-value)` sections — typically the [`minidb::stats`]
/// snapshot delta for the run and the file system's `inv_stat` counters.
pub fn bench_json(
    name: &str,
    systems: &[&str],
    rows: &[Comparison],
    extra: &[(&str, String)],
) -> String {
    let mut fields = vec![
        format!("\"name\": \"{name}\""),
        "\"unit\": \"simulated_seconds\"".to_string(),
        format!("\"rows\": {}", comparison_json(systems, rows)),
    ];
    for (key, value) in extra {
        fields.push(format!("\"{key}\": {value}"));
    }
    format!("{{{}}}", fields.join(", "))
}

/// Writes `BENCH_<name>.json` in the current directory.
pub fn write_bench_json(name: &str, body: &str) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(body.as_bytes())?;
    if !body.ends_with('\n') {
        f.write_all(b"\n")?;
    }
    eprintln!("wrote {}", path.display());
    Ok(path)
}

/// Formats a byte count human-readably.
pub fn human_bytes(n: u64) -> String {
    if n >= 1 << 30 {
        format!("{:.1} GB", n as f64 / (1u64 << 30) as f64)
    } else if n >= 1 << 20 {
        format!("{:.1} MB", n as f64 / (1u64 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1} KB", n as f64 / 1024.0)
    } else {
        format!("{n} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KB");
        assert_eq!(human_bytes(25 << 20), "25.0 MB");
        assert_eq!(human_bytes(3 << 30), "3.0 GB");
    }

    #[test]
    fn bench_json_document_shape() {
        let rows = [Comparison::new("create", &[141.5, 50.6], &[100.0, 45.0])];
        let doc = bench_json(
            "fig3_create",
            &["Inversion", "NFS"],
            &rows,
            &[("minidb_stats_delta", "{\"x\": 1}".into())],
        );
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"name\": \"fig3_create\""));
        assert!(doc.contains("\"paper_seconds\": {\"Inversion\": 141.500000"));
        assert!(doc.contains("\"minidb_stats_delta\": {\"x\": 1}"));
    }

    #[test]
    fn comparison_construction() {
        let c = Comparison::new("create", &[141.5, 50.6], &[100.0, 45.0]);
        assert_eq!(c.paper.len(), 2);
        // Printing must not panic even with mismatched columns.
        print_comparison(&["Inversion", "NFS"], &[c]);
        print_header("test");
    }
}
