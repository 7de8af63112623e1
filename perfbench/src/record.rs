//! The recorded output digests, one file per workload under
//! `perfbench/digests/`, compiled into the binary.
//!
//! Each non-comment line is `<input seed> <digest>...`: one 8-hex-digit
//! digest per cell of `Workload::cells`, then per cell of
//! `Workload::probe_cells`, in order. `perfbench --record <workload>`
//! rewrites a file from a fresh run; do that only for a change meant to
//! alter simulation output, and say so where the change is described.

use crate::workload::Workload;

/// The recorded digest file of a workload.
pub fn table(w: Workload) -> &'static str {
    match w {
        Workload::Sweep16 => include_str!("../digests/sweep16.txt"),
        Workload::Grid64 => include_str!("../digests/grid64.txt"),
        Workload::Seeds16 => include_str!("../digests/seeds16.txt"),
    }
}

/// The recorded digests for one input seed, if the table has that seed.
pub fn expected(table: &str, seed: u64) -> Result<Option<Vec<u32>>, String> {
    for (n, line) in table.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let s: u64 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("digest line {}: bad seed", n + 1))?;
        if s != seed {
            continue;
        }
        return fields
            .map(|f| {
                u32::from_str_radix(f, 16)
                    .map_err(|_| format!("digest line {}: bad digest {f:?}", n + 1))
            })
            .collect::<Result<Vec<u32>, String>>()
            .map(Some);
    }
    Ok(None)
}

/// Renders a digest file.
pub fn render(w: Workload, rows: &[(u64, Vec<u32>)]) -> String {
    let mut out = format!(
        "# {} cell digests: <input seed>, then one per workload cell and one per probe cell\n",
        w.name()
    );
    for (seed, digests) in rows {
        out.push_str(&seed.to_string());
        for d in digests {
            out.push_str(&format!(" {d:08x}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_covers_every_recorded_seed() {
        for w in Workload::ALL {
            let cells = w.cells(0).len() + w.probe_cells(0).len();
            for seed in crate::workload::recorded_seeds() {
                let row = expected(table(w), seed).expect("table parses");
                assert_eq!(
                    row.map(|r| r.len()),
                    Some(cells),
                    "{} seed {seed}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let rows = vec![(0, vec![1, 0xdead_beef]), (2010, vec![7, 8])];
        let text = render(Workload::Grid64, &rows);
        assert_eq!(expected(&text, 0), Ok(Some(vec![1, 0xdead_beef])));
        assert_eq!(expected(&text, 2010), Ok(Some(vec![7, 8])));
        assert_eq!(expected(&text, 5), Ok(None));
        assert!(expected("x 00000001\n", 0).is_err());
        assert!(expected("0 zz\n", 0).is_err());
    }
}
