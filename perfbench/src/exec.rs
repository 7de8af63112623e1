//! The benchmark's executor: one pass over a workload's cells on the
//! repository's work-stealing executor (`fsoi_sim::par::sweep`), with
//! every call into a layer timed from here and every cell's panic caught
//! here.
//!
//! A pass decomposes its cells the way `fsoi_cmp::batch::run_batch_forked`
//! does: cells that differ only by seed share one unrun template built by
//! `CmpSystem::new` and are served by `CmpSystem::fork`; every other cell
//! is built cold. The traced run checks that the library's own
//! `run_batch_forked` yields the same digests.

use fsoi_cmp::batch::{self, BatchCell};
use fsoi_cmp::cache::fnv1a64;
use fsoi_cmp::metrics::RunReport;
use fsoi_cmp::system::CmpSystem;
use fsoi_sim::det::DetMap;
use fsoi_sim::par;
use std::panic::{self, AssertUnwindSafe};
use std::thread::ThreadId;
use std::time::Instant;

use crate::workload::cell_label;

/// Host timings of one cell.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// Whether `CmpSystem::fork` (rather than `CmpSystem::new`) built it.
    pub forked: bool,
    /// Host ms in `CmpSystem::new` or `CmpSystem::fork`.
    pub build_ms: f64,
    /// Host ms in `CmpSystem::run` (up to the panic for a failed cell).
    pub run_ms: f64,
    /// The worker thread that ran the cell.
    pub worker: ThreadId,
    /// When the cell returned, in seconds after the sweep started.
    pub end_s: f64,
}

impl CellTiming {
    /// Host ms of the whole cell: construction plus run.
    pub fn cell_ms(&self) -> f64 {
        self.build_ms + self.run_ms
    }
}

/// One pass over a cell list.
#[derive(Debug)]
pub struct Pass {
    /// Worker threads the pass used.
    pub threads: usize,
    /// Host seconds of the whole pass: templates, cells and merge.
    pub wall_s: f64,
    /// Host ms building fork templates with `CmpSystem::new`.
    pub template_ms: f64,
    /// Host seconds inside `par::sweep`.
    pub sweep_s: f64,
    /// Host ms in `batch::merge_reports`.
    pub merge_ms: f64,
    /// Host ms rendering the merged registry with `Registry::to_jsonl`.
    pub jsonl_ms: f64,
    /// Per-cell timings, in cell order.
    pub timings: Vec<CellTiming>,
    /// Every cell's report, or its panic message, in cell order.
    pub outcomes: Vec<Result<RunReport, String>>,
}

impl Pass {
    /// Cells whose run panicked.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_err()).count()
    }

    /// Cells served by `CmpSystem::fork`.
    pub fn forked(&self) -> usize {
        self.timings.iter().filter(|t| t.forked).count()
    }

    /// The reports of the cells that completed, in cell order.
    pub fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.outcomes.iter().filter_map(|o| o.as_ref().ok())
    }

    /// Host seconds between the first and the last worker running out of
    /// cells; workers that ran no cell ran out when the sweep started.
    pub fn tail_s(&self) -> f64 {
        let mut last_end: Vec<(ThreadId, f64)> = Vec::new();
        for t in &self.timings {
            match last_end.iter_mut().find(|(w, _)| *w == t.worker) {
                Some((_, end)) => *end = end.max(t.end_s),
                None => last_end.push((t.worker, t.end_s)),
            }
        }
        let latest = last_end.iter().map(|&(_, e)| e).fold(0.0, f64::max);
        let earliest = if last_end.len() < self.threads {
            0.0
        } else {
            last_end
                .iter()
                .map(|&(_, e)| e)
                .fold(f64::INFINITY, f64::min)
        };
        latest - earliest
    }
}

/// Runs every cell once on up to `threads` workers. A cell that panics
/// is recorded as failed with its message; the other cells still run.
pub fn run_pass(cells: &[BatchCell], threads: usize, max_cycles: u64) -> Pass {
    let t0 = Instant::now();
    let (template_of, templates) = build_templates(cells);
    let template_ms = ms(t0.elapsed().as_secs_f64());
    let sweep_start = Instant::now();
    let results = par::sweep(cells.len(), threads, |i| {
        run_cell(
            &cells[i],
            template_of[i].map(|t| &templates[t]),
            max_cycles,
            sweep_start,
        )
    });
    let sweep_s = sweep_start.elapsed().as_secs_f64();
    let (timings, outcomes): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    let ok: Vec<RunReport> = outcomes
        .iter()
        .filter_map(|o| o.as_ref().ok().cloned())
        .collect();
    let t_merge = Instant::now();
    let merged = batch::merge_reports(&ok);
    let merge_ms = ms(t_merge.elapsed().as_secs_f64());
    let t_jsonl = Instant::now();
    std::hint::black_box(merged.to_jsonl());
    let jsonl_ms = ms(t_jsonl.elapsed().as_secs_f64());
    Pass {
        threads,
        wall_s: t0.elapsed().as_secs_f64(),
        template_ms,
        sweep_s,
        merge_ms,
        jsonl_ms,
        timings,
        outcomes,
    }
}

/// Groups cells that differ only by seed, exactly as
/// `batch::run_batch_forked` does, and builds one template per group of
/// two or more.
fn build_templates(cells: &[BatchCell]) -> (Vec<Option<usize>>, Vec<CmpSystem>) {
    let mut groups: DetMap<String, Vec<usize>> = DetMap::new();
    for (i, cell) in cells.iter().enumerate() {
        let key = format!("{:?}|{:?}", cell.config.clone().with_seed(0), cell.app);
        groups.entry(key).or_default().push(i);
    }
    let mut template_of = vec![None; cells.len()];
    let mut templates = Vec::new();
    for members in groups.values().filter(|m| m.len() >= 2) {
        let first = &cells[members[0]];
        templates.push(CmpSystem::new(first.config.clone(), first.app));
        for &i in members {
            template_of[i] = Some(templates.len() - 1);
        }
    }
    (template_of, templates)
}

fn run_cell(
    cell: &BatchCell,
    template: Option<&CmpSystem>,
    max_cycles: u64,
    sweep_start: Instant,
) -> (CellTiming, Result<RunReport, String>) {
    let start = Instant::now();
    let mut built = None;
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut sys = match template {
            Some(t) => t.fork(cell.config.seed),
            None => CmpSystem::new(cell.config.clone(), cell.app),
        };
        built = Some(Instant::now());
        sys.run(max_cycles)
    }));
    let end = Instant::now();
    let built = built.unwrap_or(end);
    let timing = CellTiming {
        forked: template.is_some(),
        build_ms: ms((built - start).as_secs_f64()),
        run_ms: ms((end - built).as_secs_f64()),
        worker: std::thread::current().id(),
        end_s: (end - sweep_start).as_secs_f64(),
    };
    let result = result.map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into());
        format!("{}: {msg}", cell_label(cell))
    });
    (timing, result)
}

/// A cell's output digest: its exported registry and its cycle count,
/// hashed with the cell cache's FNV-1a and folded to 32 bits.
pub fn digest(report: &RunReport) -> u32 {
    let text = format!("{}cycles={}\n", report.registry().to_jsonl(), report.cycles);
    let h = fnv1a64(text.as_bytes());
    (h ^ (h >> 32)) as u32
}

/// Every completed cell's digest, in cell order (`None` for a failed cell).
pub fn digests(pass: &Pass) -> Vec<Option<u32>> {
    pass.outcomes
        .iter()
        .map(|o| o.as_ref().ok().map(digest))
        .collect()
}

/// Checks completed cells against expected digests and names the first
/// cell that differs. Failed cells are counted elsewhere, not here.
pub fn check(
    cells: &[BatchCell],
    got: &[Option<u32>],
    want: &[u32],
    what: &str,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} cells, expected {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if let Some(g) = g {
            if g != w {
                return Err(format!(
                    "{what}: first differing cell {} (index {i}): digest {g:08x}, expected {w:08x}",
                    cell_label(&cells[i])
                ));
            }
        }
    }
    Ok(())
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn tiny_cells() -> Vec<BatchCell> {
        let mut cells: Vec<BatchCell> = Workload::Seeds16.cells(1).into_iter().take(3).collect();
        for c in &mut cells {
            c.app.ops_per_core = 20;
        }
        cells
    }

    #[test]
    fn perturbed_report_fails_the_digest_check() {
        let cells = tiny_cells();
        let pass = run_pass(&cells, 1, 1_000_000);
        let want: Vec<u32> = digests(&pass)
            .into_iter()
            .map(|d| d.expect("cell ran"))
            .collect();
        assert_eq!(check(&cells, &digests(&pass), &want, "serial"), Ok(()));

        let mut report = pass.outcomes[1].clone().expect("cell ran");
        report.packets_sent[0] += 1;
        let mut got = digests(&pass);
        got[1] = Some(digest(&report));
        let err = check(&cells, &got, &want, "serial").expect_err("perturbed report");
        assert!(err.contains(&cell_label(&cells[1])), "{err}");

        let mut report = pass.outcomes[2].clone().expect("cell ran");
        report.cycles += 1;
        got = digests(&pass);
        got[2] = Some(digest(&report));
        let err = check(&cells, &got, &want, "serial").expect_err("perturbed cycles");
        assert!(err.contains(&cell_label(&cells[2])), "{err}");
    }

    #[test]
    fn panicking_cell_is_counted_not_propagated() {
        let cells = tiny_cells();
        let full = run_pass(&cells, 1, 1_000_000);
        // Too few cycles to drain: `CmpSystem::run` panics in every cell.
        for threads in [1, 2] {
            let pass = run_pass(&cells, threads, 5);
            assert_eq!(pass.failed(), cells.len());
            let msg = pass.outcomes[0].as_ref().expect_err("panicked");
            assert!(msg.contains("did not drain"), "{msg}");
            assert!(msg.starts_with(&cell_label(&cells[0])), "{msg}");
        }
        // One bad cell among good ones: the others still complete.
        let mut mixed = cells.clone();
        mixed[1].app.ops_per_core = 400_000;
        let pass = run_pass(&mixed, 2, 200_000);
        assert_eq!(pass.failed(), 1);
        assert!(pass.outcomes[1].is_err());
        assert_eq!(digests(&pass)[0], digests(&full)[0]);
        assert_eq!(digests(&pass)[2], digests(&full)[2]);
    }

    #[test]
    fn forked_cells_match_cold_cells_and_the_library_batch() {
        let mut cells = tiny_cells();
        let mut twin = cells[0].clone();
        twin.config = twin.config.with_seed(99);
        cells.push(twin);
        let pass = run_pass(&cells, 2, 1_000_000);
        assert_eq!(pass.forked(), 2, "the seed twins share a template");
        let library = batch::run_batch(&cells, 1, 1_000_000);
        let want: Vec<u32> = library.iter().map(digest).collect();
        assert_eq!(check(&cells, &digests(&pass), &want, "forked"), Ok(()));
    }
}
