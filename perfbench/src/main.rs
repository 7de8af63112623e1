//! `perfbench`: the repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <sweep16|grid64|seeds16> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --record <workload>
//! ```
//!
//! The untraced run (`--trace 0`) reports the end-to-end metrics; the
//! traced run (`--trace 1`) reports the per-layer ones. Either checks
//! every cell's output digest against the recorded one before it reports,
//! and prints its result as one JSON object on the last line of stdout.

mod catalog;
mod exec;
mod record;
mod stats;
mod workload;

use exec::Pass;
use fsoi_bench::runner::MAX_CYCLES;
use fsoi_cmp::batch::{self, BatchCell};
use fsoi_cmp::cache::CellCache;
use fsoi_cmp::metrics::RunReport;
use fsoi_cmp::system::CmpSystem;
use fsoi_sim::telemetry::{self, Phase};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

/// Timed rounds per run at the least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

/// Cache hits timed by the `cache.hit_us` probe.
const CACHE_HITS: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <sweep16|grid64|seeds16> [--seed N] [--seconds S] [--trace 0|1]\n       \
     perfbench --record <sweep16|grid64|seeds16>"
        .into()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut record = false;
    let mut seed = workload::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" | "--record" => {
                workload = Some(Workload::parse(value).ok_or_else(bad)?);
                record = flag == "--record";
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed,
        seconds,
        trace,
        record,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Timed runs keep the cell cache off; the knob must not leak in.
    std::env::remove_var("FSOI_CACHE");
    let result = if args.record {
        record_digests(args.workload)
    } else {
        run(&args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pass bookkeeping shared by both run kinds: attempted and failed
/// cells, and the first digest mismatch.
struct Checker<'a> {
    cells: &'a [BatchCell],
    want: &'a [u32],
    attempted: usize,
    failed: usize,
    mismatch: Option<String>,
}

impl Checker<'_> {
    /// Counts a pass over the workload's cells and checks its digests.
    fn pass(&mut self, pass: &Pass, what: &str) {
        self.pass_over(pass, self.cells, self.want, what);
    }

    /// Counts a pass over `cells` and checks its digests against `want`.
    fn pass_over(&mut self, pass: &Pass, cells: &[BatchCell], want: &[u32], what: &str) {
        self.attempted += cells.len();
        self.failed += pass.failed();
        for msg in pass.outcomes.iter().filter_map(|o| o.as_ref().err()) {
            println!("failed cell ({what}): {msg}");
        }
        self.note(exec::check(cells, &exec::digests(pass), want, what));
    }

    /// Keeps the first mismatch.
    fn note(&mut self, checked: Result<(), String>) {
        if self.mismatch.is_none() {
            self.mismatch = checked.err();
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload;
    let seed = workload::input_seed(args.seed);
    let threads = host_threads();
    println!(
        "perfbench: workload {} seed {} (input seed {seed}), {threads} worker threads, {} run",
        w.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );

    let t = Instant::now();
    let SetUp {
        cells,
        probe,
        want,
        warm,
    } = set_up(w, seed)?;
    let setup_s = t.elapsed().as_secs_f64();
    let (want, want_probe) = want.split_at(cells.len());
    let mut checker = Checker {
        cells: &cells,
        want,
        attempted: 0,
        failed: 0,
        mismatch: None,
    };
    checker.pass_over(&warm, &cells[..1], &want[..1], "set-up");

    let budget = Duration::from_secs_f64(args.seconds);
    let values = if args.trace {
        traced(threads, budget, &probe, want_probe, &mut checker)?
    } else {
        untraced(w, seed, setup_s, threads, budget, &mut checker)?
    };

    let correct = checker.mismatch.is_none();
    if let Some(m) = &checker.mismatch {
        println!("OUTPUT CHECK FAILED: {m}");
        eprintln!("perfbench: output check failed: {m}");
    }
    let catalog = if args.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    // An incorrect run reports no numbers.
    let (catalog, values) = if correct {
        (catalog, values.as_slice())
    } else {
        (&[][..], &[][..])
    };
    for (name, unit) in catalog {
        if let Some((_, v)) = values.iter().find(|(n, _)| n == name) {
            println!("  {name:<26} {v:>16.6} {unit}");
        }
    }
    let line = catalog::result_line(correct, checker.attempted, checker.failed, catalog, values)?;
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// A workload's inputs for one input seed, their recorded digests (the
/// cells', then the probe cells'), and the warm-up pass over the first cell.
struct SetUp {
    cells: Vec<BatchCell>,
    probe: Vec<BatchCell>,
    want: Vec<u32>,
    warm: Pass,
}

/// Makes the inputs from the seed, loads the recorded digests and runs
/// the first cell once to warm the process.
fn set_up(w: Workload, seed: u64) -> Result<SetUp, String> {
    let cells = w.cells(seed);
    let probe = w.probe_cells(seed);
    let want = record::expected(record::table(w), seed)?
        .ok_or_else(|| format!("no recorded digests for {} input seed {seed}", w.name()))?;
    if want.len() != cells.len() + probe.len() {
        return Err(format!(
            "{} input seed {seed}: {} recorded digests for {} cells",
            w.name(),
            want.len(),
            cells.len() + probe.len()
        ));
    }
    let warm = exec::run_pass(&cells[..1], 1, MAX_CYCLES);
    Ok(SetUp {
        cells,
        probe,
        want,
        warm,
    })
}

/// Whether to start another timed round: always below `min_rounds`,
/// and otherwise only if a round of the mean length so far still ends
/// within the budget.
fn another_round(start: Instant, rounds: usize, min_rounds: usize, budget: Duration) -> bool {
    if rounds < min_rounds {
        return true;
    }
    let spent = start.elapsed();
    spent + spent / rounds as u32 <= budget
}

/// Rounds of (serial pass, `threads` pass, set-up) until the budget is
/// spent, at least [`MIN_ROUNDS`], and until every cell has run at least
/// twice as often as it adds to the cell pool. `setup_s` is the median
/// of the run's first set-up and the one after each round, which spreads
/// the set-ups over the run like the passes.
///
/// The cell figures time each cell by its fastest runs over both passes
/// of every round. Other tenants of a shared host only ever add time,
/// and they slow it for tens of seconds at a stretch, which a median
/// over a run's rounds does not remove; and a serial pass sees only the
/// one CPU it runs on, which can run far slower than the other for
/// minutes. `sim_cycles_per_s` takes each cell's fastest run; the
/// percentiles pool each cell's `k` fastest runs, `k` being the fewest
/// that give p90 its ten samples beyond it.
fn untraced(
    w: Workload,
    seed: u64,
    first_setup_s: f64,
    threads: usize,
    budget: Duration,
    checker: &mut Checker,
) -> Result<Vec<(&'static str, f64)>, String> {
    let cells = checker.cells;
    let mut setup_s = vec![first_setup_s];
    let k = stats::samples_needed(0.9).div_ceil(cells.len());
    let min_rounds = MIN_ROUNDS.max(k);
    let start = Instant::now();
    let (mut cps, mut speedup) = (vec![], vec![]);
    // Per cell: simulated cycles, and the host ms of every completed run.
    let mut runs: Vec<(u64, Vec<f64>)> = vec![(0, vec![]); cells.len()];
    let mut rounds = 0;
    while another_round(start, rounds, min_rounds, budget) {
        let serial = exec::run_pass(cells, 1, MAX_CYCLES);
        checker.pass(&serial, "serial pass");
        let par = exec::run_pass(cells, threads, MAX_CYCLES);
        checker.pass(&par, "parallel pass");
        for pass in [&serial, &par] {
            let done = pass.timings.iter().zip(&pass.outcomes);
            for ((t, o), (cycles, ms)) in done.zip(&mut runs) {
                if let Ok(r) = o {
                    *cycles = r.cycles;
                    ms.push(t.cell_ms());
                }
            }
        }
        cps.push((cells.len() - par.failed()) as f64 / par.wall_s);
        speedup.push(serial.wall_s / par.wall_s);

        let t = Instant::now();
        let again = set_up(w, seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        checker.pass_over(&again.warm, &cells[..1], &checker.want[..1], "set-up");
        println!(
            "  round {rounds}: serial pass {:.3} s, {threads}-thread pass {:.3} s, set-up {:.3} s",
            serial.wall_s,
            par.wall_s,
            setup_s[rounds + 1]
        );
        rounds += 1;
    }
    let (cycles, best_s, pool) = fastest_runs(&mut runs, k);
    let p50 = stats::percentile(&pool, 0.5).ok_or("too few completed cells for p50")?;
    let p90 = stats::percentile(&pool, 0.9).ok_or("too few completed cells for p90")?;
    println!(
        "  {rounds} rounds in {:.1} s; cell_ms over {} runs, each cell's fastest {k} ({} beyond p90)",
        start.elapsed().as_secs_f64(),
        pool.len(),
        pool.iter().filter(|&&c| c > p90).count()
    );
    let med = |v: &[f64]| stats::median(v).expect("at least one round");
    Ok(vec![
        ("cells_per_s", med(&cps)),
        ("sim_cycles_per_s", cycles as f64 / best_s),
        ("speedup", med(&speedup)),
        ("cell_ms_p50", p50),
        ("cell_ms_p90", p90),
        ("setup_s", med(&setup_s)),
        ("peak_rss_mb", peak_rss_mb()?),
    ])
}

/// Folds each cell's simulated cycles and the host ms of its completed
/// runs into: the cycles of every cell that completed at least once, the
/// sum of those cells' fastest host seconds, and the pool of each cell's
/// `k` fastest ms.
fn fastest_runs(runs: &mut [(u64, Vec<f64>)], k: usize) -> (u64, f64, Vec<f64>) {
    let (mut cycles, mut best_s, mut pool) = (0, 0.0, vec![]);
    for (c, ms) in runs {
        ms.sort_by(f64::total_cmp);
        if let Some(fastest) = ms.first() {
            cycles += *c;
            best_s += fastest / 1e3;
        }
        pool.extend(ms.iter().take(k));
    }
    (cycles, best_s, pool)
}

/// Per-round layer figures of the traced run.
#[derive(Default)]
struct LayerRounds {
    new_ms: Vec<f64>,
    fork_ms: Vec<f64>,
    build_network_us: Vec<f64>,
    net_ms: Vec<f64>,
    events_ms: Vec<f64>,
    cores_ms: Vec<f64>,
    loop_other_ms: Vec<f64>,
    us_per_cycle: Vec<f64>,
    ns_per_event: Vec<f64>,
    busy_frac: Vec<f64>,
    idle_ms: Vec<f64>,
    tail_ms: Vec<f64>,
    merge_ms: Vec<f64>,
    jsonl_ms: Vec<f64>,
    overhead: Vec<f64>,
    /// Untraced serial cell ms, per cell, one entry per round.
    cell_ms: Vec<Vec<f64>>,
}

/// Rounds of (untraced serial pass, traced serial pass, traced
/// `threads` pass) until the budget is spent, then the probes: the
/// `probe` cells (cost networks the workload does not run), forks when
/// the workload forks nothing, `run_batch_forked` and the cache hit path.
fn traced(
    threads: usize,
    budget: Duration,
    probe: &[BatchCell],
    want_probe: &[u32],
    checker: &mut Checker,
) -> Result<Vec<(&'static str, f64)>, String> {
    let cells = checker.cells;
    let start = Instant::now();
    let mut l = LayerRounds::default();
    let mut work = None;
    let mut forked = 0;
    let mut cached = None;
    while another_round(start, l.overhead.len(), 1, budget) {
        let plain = exec::run_pass(cells, 1, MAX_CYCLES);
        checker.pass(&plain, "untraced serial pass");

        telemetry::reset();
        telemetry::set_enabled(true);
        let serial = exec::run_pass(cells, 1, MAX_CYCLES);
        let snap = telemetry::snapshot();
        telemetry::reset();
        let par = exec::run_pass(cells, threads, MAX_CYCLES);
        let par_snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        checker.pass(&serial, "traced serial pass");
        checker.pass(&par, "traced parallel pass");

        let ms_of = |p: Phase| snap.phase_ns[p as usize] as f64 / 1e6;
        let (net, events, cores) = (
            ms_of(Phase::SimNet),
            ms_of(Phase::SimEvents),
            ms_of(Phase::SimCores),
        );
        let built = |forked: bool| -> f64 {
            let ms = serial
                .timings
                .iter()
                .filter(|t| t.forked == forked)
                .map(|t| t.build_ms);
            ms.fold(0.0, |a, b| a + b)
        };
        let run_ms: f64 = serial.timings.iter().map(|t| t.run_ms).sum();
        let w = Work::of(&serial);
        l.new_ms.push(serial.template_ms + built(false));
        l.fork_ms.push(built(true));
        l.net_ms.push(net);
        l.events_ms.push(events);
        l.cores_ms.push(cores);
        l.loop_other_ms.push(run_ms - net - events - cores);
        l.us_per_cycle.push(run_ms * 1e3 / w.cycles.max(1) as f64);
        l.ns_per_event.push(run_ms * 1e6 / w.events.max(1) as f64);
        let busy_ns: u64 = par_snap.workers.iter().map(|s| s.busy_ns).sum();
        let idle_ns: u64 = par_snap.workers.iter().map(|s| s.idle_ns).sum();
        l.busy_frac
            .push(busy_ns as f64 / 1e9 / (par.threads as f64 * par.sweep_s));
        l.idle_ms.push(idle_ns as f64 / 1e6);
        l.tail_ms.push(par.tail_s() * 1e3);
        l.merge_ms.push(serial.merge_ms);
        l.jsonl_ms.push(serial.jsonl_ms);
        l.overhead
            .push((serial.wall_s - plain.wall_s) / plain.wall_s);
        l.cell_ms
            .push(plain.timings.iter().map(|t| t.cell_ms()).collect());
        l.build_network_us.push(build_network_us(cells));
        forked = serial.forked();
        work.get_or_insert(w);
        if cached.is_none() {
            cached = plain
                .outcomes
                .iter()
                .enumerate()
                .find_map(|(i, o)| o.as_ref().ok().map(|r| (i, r.clone())));
        }
    }
    let rounds = l.overhead.len();
    let work = work.expect("at least one round");

    let probe_pass = exec::run_pass(probe, 1, MAX_CYCLES);
    checker.pass_over(&probe_pass, probe, want_probe, "network-cost probe");
    let fork_ms = if forked > 0 {
        stats::median(&l.fork_ms).expect("at least one round")
    } else {
        fork_probe_ms(cells)
    };

    let t = Instant::now();
    let library = std::panic::catch_unwind(|| batch::run_batch_forked(cells, threads, MAX_CYCLES));
    let run_forked_ms = t.elapsed().as_secs_f64() * 1e3;
    checker.attempted += cells.len();
    match library {
        Ok(reports) => {
            let got: Vec<Option<u32>> = reports.iter().map(|r| Some(exec::digest(r))).collect();
            checker.note(exec::check(cells, &got, checker.want, "run_batch_forked"));
        }
        Err(_) => {
            println!("failed: batch::run_batch_forked panicked; all its cells count as failed");
            checker.failed += cells.len();
        }
    }
    let (i, report) = cached.ok_or("no cell completed, so the cache probe has no entry")?;
    let hit_us = cache_hit_us(i, report, checker)?;
    println!(
        "  {rounds} traced rounds in {:.1} s, then the run_batch_forked and cache probes",
        start.elapsed().as_secs_f64()
    );

    let med = |v: &[f64]| stats::median(v).expect("at least one round");
    // Median host ms of each cell across rounds, then each probe cell's.
    let mut cell_ms: Vec<f64> = (0..cells.len())
        .map(|i| med(&l.cell_ms.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect();
    cell_ms.extend(probe_pass.timings.iter().map(|t| t.cell_ms()));
    let costed: Vec<BatchCell> = cells.iter().chain(probe).cloned().collect();
    let mut values = vec![
        ("cmp.new_ms", med(&l.new_ms)),
        ("cmp.fork_ms", fork_ms),
        ("cmp.build_network_us", med(&l.build_network_us)),
        ("sim.net_ms", med(&l.net_ms)),
        ("sim.events_ms", med(&l.events_ms)),
        ("sim.cores_ms", med(&l.cores_ms)),
        ("sim.loop_other_ms", med(&l.loop_other_ms)),
        ("sim.us_per_cycle", med(&l.us_per_cycle)),
        ("sim.ns_per_event", med(&l.ns_per_event)),
        ("work.sim_cycles", work.cycles as f64),
        ("work.ticks", work.ticks as f64),
        ("work.events", work.events as f64),
        ("work.ff_jumps", work.ff_jumps as f64),
        (
            "work.ff_skip_frac",
            work.ff_skipped as f64 / work.cycles.max(1) as f64,
        ),
        ("work.packets", work.packets as f64),
        (
            "work.fsoi_collision_frac",
            work.fsoi_collided as f64 / work.fsoi_data.max(1) as f64,
        ),
        ("work.cells_forked", forked as f64),
        ("par.busy_frac", med(&l.busy_frac)),
        ("par.idle_ms", med(&l.idle_ms)),
        ("par.tail_ms", med(&l.tail_ms)),
        ("batch.merge_ms", med(&l.merge_ms)),
        ("batch.run_forked_ms", run_forked_ms),
        ("metrics.to_jsonl_ms", med(&l.jsonl_ms)),
        ("cache.hit_us", hit_us),
        ("trace.overhead_frac", med(&l.overhead)),
    ];
    values.extend(network_costs(&costed, &cell_ms));
    Ok(values)
}

/// `net.l0.cell_ms`, and per cost network `net.<kind>.cell_ms` and
/// `net.<kind>.cost_ms`: host ms summed over that network's cells, and
/// that sum minus the `L0` sum. Together with the probe cells, every
/// cost network runs exactly the (app, seed) pairs that `L0` runs, so
/// each difference is over the same applications and seeds.
fn network_costs(cells: &[BatchCell], cell_ms: &[f64]) -> Vec<(&'static str, f64)> {
    let sum = |kind: &str| -> f64 {
        let ms = cells
            .iter()
            .zip(cell_ms)
            .filter(|(c, _)| c.config.network.name() == kind);
        ms.map(|(_, ms)| ms).sum()
    };
    let l0 = sum("L0");
    let mut out = vec![("net.l0.cell_ms", l0)];
    for (kind, cell_name, cost_name) in [
        ("fsoi", "net.fsoi.cell_ms", "net.fsoi.cost_ms"),
        ("mesh", "net.mesh.cell_ms", "net.mesh.cost_ms"),
        ("crossbar", "net.crossbar.cell_ms", "net.crossbar.cost_ms"),
        ("Lr1", "net.lr1.cell_ms", "net.lr1.cost_ms"),
        ("Lr2", "net.lr2.cell_ms", "net.lr2.cost_ms"),
    ] {
        let ms = sum(kind);
        out.push((cell_name, ms));
        out.push((cost_name, ms - l0));
    }
    out
}

/// Exact work counts of one pass, summed over its completed cells.
struct Work {
    cycles: u64,
    ticks: u64,
    events: u64,
    ff_jumps: u64,
    ff_skipped: u64,
    packets: u64,
    fsoi_collided: u64,
    fsoi_data: u64,
}

impl Work {
    fn of(pass: &Pass) -> Work {
        let mut w = Work {
            cycles: 0,
            ticks: 0,
            events: 0,
            ff_jumps: 0,
            ff_skipped: 0,
            packets: 0,
            fsoi_collided: 0,
            fsoi_data: 0,
        };
        for r in pass.reports() {
            w.cycles += r.cycles;
            w.ticks += r.profile.get("sim/ticks");
            w.events += r.profile.get("sim/events");
            w.ff_jumps += r.profile.get("sim/ff/jumps");
            w.ff_skipped += r.profile.get("sim/ff/cycles_skipped");
            w.packets += r.packets_sent.iter().sum::<u64>();
            if r.network == "fsoi" {
                // Data packets that collided at least once, of those delivered.
                w.fsoi_collided += r.collided_by_kind[..3].iter().sum::<u64>();
                w.fsoi_data += r.data_by_kind.iter().sum::<u64>();
            }
        }
        w
    }
}

/// Host ms to fork every cell once from a freshly built system of its
/// own; the forked system is dropped outside the timing, as in a pass.
fn fork_probe_ms(cells: &[BatchCell]) -> f64 {
    let mut ms = 0.0;
    for c in cells {
        let template = CmpSystem::new(c.config.clone(), c.app);
        let t = Instant::now();
        let forked = template.fork(c.config.seed);
        ms += t.elapsed().as_secs_f64() * 1e3;
        drop(forked);
    }
    ms
}

/// Mean host µs of one `SystemConfig::build_network` call over the
/// workload's cell configurations.
fn build_network_us(cells: &[BatchCell]) -> f64 {
    let t = Instant::now();
    for c in cells {
        std::hint::black_box(c.config.build_network());
    }
    t.elapsed().as_secs_f64() * 1e6 / cells.len() as f64
}

/// Median host µs of a `CellCache::run_or` hit on cell `i`, whose
/// completed `report` seeds a scratch cache directory under the working
/// directory that is removed afterwards. Every hit must reproduce the
/// cell's recorded digest.
fn cache_hit_us(i: usize, report: RunReport, checker: &mut Checker) -> Result<f64, String> {
    let cell = &checker.cells[i];
    let dir = Path::new(".bench_tmp").join(format!("perfbench-cache-{}", std::process::id()));
    let cache = CellCache::at(&dir);
    cache.run_or(&cell.config, &cell.app, MAX_CYCLES, || report);
    let mut hits = Vec::with_capacity(CACHE_HITS);
    let mut digests = Vec::with_capacity(CACHE_HITS);
    if cache.contains(&cell.config, &cell.app, MAX_CYCLES) {
        for _ in 0..CACHE_HITS {
            let t = Instant::now();
            let hit = cache.run_or(&cell.config, &cell.app, MAX_CYCLES, || {
                unreachable!("the entry was just found intact")
            });
            hits.push(t.elapsed().as_secs_f64() * 1e6);
            digests.push(Some(exec::digest(&hit)));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_tmp");
    let want = vec![checker.want[i]; digests.len()];
    let cells = vec![cell.clone(); digests.len()];
    checker.note(exec::check(&cells, &digests, &want, "cache hit"));
    stats::median(&hits)
        .ok_or_else(|| format!("cache probe: could not store an entry in {}", dir.display()))
}

/// Peak resident memory of this process, MB, from `getrusage`.
fn peak_rss_mb() -> Result<f64, String> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn getrusage(who: i32, usage: *mut i64) -> i32;
        }
        // `struct rusage` on 64-bit Linux: two `timeval`s (four longs),
        // then fourteen longs, the first of which is `ru_maxrss` in KiB.
        let mut usage = [0i64; 18];
        // SAFETY: `usage` is a writable buffer of exactly
        // `sizeof(struct rusage)` (144 bytes) on 64-bit Linux, suitably
        // aligned for its longs; RUSAGE_SELF (0) is a valid `who`.
        let rc = unsafe { getrusage(0, usage.as_mut_ptr()) };
        if rc != 0 {
            return Err("getrusage failed".into());
        }
        Ok(usage[4] as f64 / 1024.0)
    }
    #[cfg(not(target_os = "linux"))]
    Err("peak_rss_mb is measured on Linux only".into())
}

/// Records every recorded input seed's digests for a workload into
/// `perfbench/digests/<workload>.txt`.
fn record_digests(w: Workload) -> Result<ExitCode, String> {
    let threads = host_threads();
    let mut rows = Vec::new();
    for seed in workload::recorded_seeds() {
        let mut cells = w.cells(seed);
        cells.extend(w.probe_cells(seed));
        let pass = exec::run_pass(&cells, threads, MAX_CYCLES);
        if pass.failed() > 0 {
            return Err(format!(
                "{} seed {seed}: {} cells failed",
                w.name(),
                pass.failed()
            ));
        }
        let digests = exec::digests(&pass)
            .into_iter()
            .map(|d| d.expect("no cell failed"))
            .collect();
        rows.push((seed, digests));
        eprintln!("recorded {} seed {seed}", w.name());
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("digests")
        .join(format!("{}.txt", w.name()));
    std::fs::write(&path, record::render(w, &rows))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::fastest_runs;

    #[test]
    fn fastest_runs_take_each_cells_fastest() {
        let mut runs = vec![
            (100, vec![3.0, 1.0, 2.0]),
            (50, vec![5.0, 4.0]),
            // A cell that never completed adds nothing.
            (0, vec![]),
        ];
        let (cycles, best_s, mut pool) = fastest_runs(&mut runs, 2);
        assert_eq!(cycles, 150);
        assert!((best_s - 0.005).abs() < 1e-12, "{best_s}");
        pool.sort_by(f64::total_cmp);
        assert_eq!(pool, vec![1.0, 2.0, 4.0, 5.0]);
        // A cell with fewer runs than `k` adds all it has.
        let (_, _, pool) = fastest_runs(&mut runs, 3);
        assert_eq!(pool.len(), 5);
    }
}
