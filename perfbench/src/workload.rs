//! The benchmark's workloads: which simulation cells each one runs, made
//! from the workload seed alone.
//!
//! Every workload is a closed loop. Each worker starts its next cell only
//! when the previous one returns, so a slower simulator receives less
//! load rather than a growing queue.

use fsoi_bench::runner::{network_by_name, CellSpec, SweepOptions};
use fsoi_cmp::batch::BatchCell;
use fsoi_cmp::workload::AppProfile;
use fsoi_sim::par::derive_seed;

/// Input seeds with a recorded output digest (see [`input_seed`]).
pub const RECORDED_SEEDS: u64 = 32;

/// The benchmark's default workload seed.
pub const DEFAULT_SEED: u64 = 2010;

/// Seed variants per (app, network) pair in [`Workload::Seeds16`].
const SEEDS16_VARIANTS: u64 = 4;

/// Operations per core in [`Workload::Seeds16`]: short enough that
/// construction is about half of a cell's host time.
const SEEDS16_OPS_PER_CORE: u64 = 50;

/// The networks whose cost against `L0` the traced run reports.
pub const COST_NETWORKS: [&str; 5] = ["fsoi", "mesh", "crossbar", "Lr1", "Lr2"];

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The standard sweep: 16 apps × {mesh, fsoi, L0, Lr1, Lr2} at 16
    /// nodes. The event loop dominates; mesh cells are about a third of
    /// the time; cells cost about the same.
    Sweep16,
    /// 64-node grid: {ba, oc, mp, fft} × {fsoi, mesh, crossbar, L0} with
    /// the phase-array transmitter. Network engines dominate, cell cost
    /// varies ~7×, and the memory footprint is the largest.
    Grid64,
    /// 16 apps × {fsoi, L0} at several derived seeds and 50 ops/core.
    /// The only workload whose cells are forked from shared templates;
    /// construction, fork, harness and merge do most of the work.
    Seeds16,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Sweep16, Workload::Grid64, Workload::Seeds16];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep16 => "sweep16",
            Workload::Grid64 => "grid64",
            Workload::Seeds16 => "seeds16",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The networks every app runs on, in cell order.
    pub fn networks(self) -> &'static [&'static str] {
        match self {
            Workload::Sweep16 => &["mesh", "fsoi", "L0", "Lr1", "Lr2"],
            Workload::Grid64 => &["fsoi", "mesh", "crossbar", "L0"],
            Workload::Seeds16 => &["fsoi", "L0"],
        }
    }

    /// The workload's cells for an input seed, app-major.
    pub fn cells(self, seed: u64) -> Vec<BatchCell> {
        let specs = |apps: Vec<AppProfile>, opts: SweepOptions| -> Vec<BatchCell> {
            apps.into_iter()
                .flat_map(|app| {
                    self.networks()
                        .iter()
                        .map(move |net| CellSpec::new(app, net, opts).to_batch_cell())
                })
                .collect()
        };
        match self {
            Workload::Sweep16 => specs(
                AppProfile::suite(),
                SweepOptions {
                    seed,
                    ..SweepOptions::quick_16()
                },
            ),
            Workload::Grid64 => {
                let apps = ["ba", "oc", "mp", "fft"]
                    .iter()
                    .map(|n| AppProfile::by_name(n).expect("grid64 apps are suite apps"))
                    .collect();
                specs(
                    apps,
                    SweepOptions {
                        seed,
                        ..SweepOptions::quick_64()
                    },
                )
            }
            Workload::Seeds16 => (0..SEEDS16_VARIANTS)
                .flat_map(|k| {
                    let opts = SweepOptions {
                        seed: derive_seed(seed, k),
                        ops_per_core: SEEDS16_OPS_PER_CORE,
                        ..SweepOptions::quick_16()
                    };
                    specs(AppProfile::suite(), opts)
                })
                .collect(),
        }
    }

    /// The cells the traced run adds so that every network of
    /// [`COST_NETWORKS`] is costed on every workload: each (app, seed)
    /// pair the workload runs on `L0`, on each cost network the workload
    /// itself does not run.
    pub fn probe_cells(self, seed: u64) -> Vec<BatchCell> {
        let absent: Vec<&str> = COST_NETWORKS
            .into_iter()
            .filter(|k| !self.networks().contains(k))
            .collect();
        self.cells(seed)
            .into_iter()
            .filter(|c| c.config.network.name() == "L0")
            .flat_map(|l0| {
                absent.iter().map(move |k| {
                    let mut cell = l0.clone();
                    cell.config.network = network_by_name(k, cell.config.nodes);
                    cell
                })
            })
            .collect()
    }
}

/// The input seed a workload seed selects: itself when its digests are
/// recorded (`0..RECORDED_SEEDS` and [`DEFAULT_SEED`]), else folded into
/// that range. Every run is thereby checked against a recorded digest,
/// and the same workload seed always gives the same inputs.
pub fn input_seed(seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        seed
    } else {
        seed % RECORDED_SEEDS
    }
}

/// Every input seed with recorded digests, in file order.
pub fn recorded_seeds() -> Vec<u64> {
    (0..RECORDED_SEEDS).chain([DEFAULT_SEED]).collect()
}

/// `app/network/seed` — how reports and errors name a cell.
pub fn cell_label(cell: &BatchCell) -> String {
    format!(
        "{}/{}/{}",
        cell.app.name,
        cell.config.network.name(),
        cell.config.seed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes() {
        assert_eq!(Workload::Sweep16.cells(7).len(), 80);
        assert_eq!(Workload::Grid64.cells(7).len(), 16);
        assert_eq!(Workload::Seeds16.cells(7).len(), 128);
        assert_eq!(Workload::Sweep16.probe_cells(7).len(), 16, "crossbar");
        assert_eq!(Workload::Grid64.probe_cells(7).len(), 8, "Lr1, Lr2");
        assert_eq!(
            Workload::Seeds16.probe_cells(7).len(),
            256,
            "mesh, crossbar, Lr1, Lr2"
        );
        assert!(Workload::Grid64
            .cells(7)
            .iter()
            .all(|c| c.config.nodes == 64));
    }

    #[test]
    fn probe_cells_differ_from_their_l0_cell_only_by_network() {
        for w in Workload::ALL {
            let cells = w.cells(5);
            for p in w.probe_cells(5) {
                let mut as_l0 = p.clone();
                as_l0.config.network = network_by_name("L0", p.config.nodes);
                assert!(cells.contains(&as_l0), "{}", cell_label(&p));
                assert!(!w.networks().contains(&p.config.network.name()));
            }
        }
    }

    #[test]
    fn same_seed_same_cells_other_seed_other_cells() {
        for w in Workload::ALL {
            assert_eq!(w.cells(3), w.cells(3), "{}", w.name());
            assert_ne!(w.cells(3), w.cells(4), "{}", w.name());
        }
    }

    #[test]
    fn every_seed_maps_to_a_recorded_one() {
        let recorded = recorded_seeds();
        for s in [0, 5, 31, 32, 2010, 2011, u64::MAX] {
            assert!(recorded.contains(&input_seed(s)), "seed {s}");
        }
        assert_eq!(input_seed(5), 5);
        assert_eq!(input_seed(DEFAULT_SEED), DEFAULT_SEED);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("sweep"), None);
    }
}
