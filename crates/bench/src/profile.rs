//! Experiment profiles: the paper's full parameter grid vs a quick
//! laptop-scale grid with the same shape.

/// How large the experiment grid is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Minimal sizes for unit/integration tests and smoke runs
    /// (seconds even in debug builds).
    Smoke,
    /// Reduced sizes (graphs of ~500-1000 vertices, fewer settings);
    /// the whole suite runs in minutes. Default.
    #[default]
    Quick,
    /// The paper's sizes (2000- and 5000-vertex random graphs, special
    /// graphs up to 5000 vertices). Hours with SA, as in 1989.
    Paper,
    /// Million-vertex feasibility runs (the `huge` experiment:
    /// streaming generation, BFS reordering, parallel multilevel
    /// refinement). The paper-grid experiments keep their `Quick`
    /// sizes at this scale; only [`Profile::huge_vertices`] grows.
    Huge,
    /// The CI-sized version of [`Scale::Huge`]: 10^5-vertex instances
    /// that finish in well under a minute.
    HugeSmoke,
}

impl Scale {
    /// Stable lowercase name, used in reports and parsed by the
    /// [`FromStr`](std::str::FromStr) impl.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
            Scale::Huge => "huge",
            Scale::HugeSmoke => "huge-smoke",
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Scale, String> {
        match s {
            "smoke" => Ok(Scale::Smoke),
            "quick" => Ok(Scale::Quick),
            "paper" => Ok(Scale::Paper),
            "huge" => Ok(Scale::Huge),
            "huge-smoke" => Ok(Scale::HugeSmoke),
            other => Err(format!(
                "unknown profile `{other}` (expected `smoke`, `quick`, `paper`, `huge`, or \
                 `huge-smoke`)"
            )),
        }
    }
}

/// The run protocol of an experiment batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Grid scale.
    pub scale: Scale,
    /// Random starts per algorithm per graph (paper: 2; cut = best of
    /// starts, time = total across starts).
    pub starts: usize,
    /// Random graphs per parameter setting for `Gbreg`/`G2set`
    /// (paper: 3); `Gnp` uses `2×replicates + 1` (paper: 7).
    pub replicates: usize,
    /// Base seed; every graph and every run derives its own stream
    /// deterministically from it.
    pub seed: u64,
}

impl Default for Profile {
    fn default() -> Profile {
        Profile::quick()
    }
}

impl Profile {
    /// The quick profile: paper protocol (2 starts), scaled-down grid,
    /// 1 replicate.
    pub fn quick() -> Profile {
        Profile {
            scale: Scale::Quick,
            starts: 2,
            replicates: 1,
            seed: 1989,
        }
    }

    /// The smoke profile: minimal sizes, 1 start, 1 replicate — used by
    /// the test suites.
    pub fn smoke() -> Profile {
        Profile {
            scale: Scale::Smoke,
            starts: 1,
            replicates: 1,
            seed: 1989,
        }
    }

    /// The paper profile: 2 starts, 3 replicates, full sizes.
    pub fn paper() -> Profile {
        Profile {
            scale: Scale::Paper,
            starts: 2,
            replicates: 3,
            seed: 1989,
        }
    }

    /// The huge profile: one start, one replicate, million-vertex
    /// instances for the `huge` feasibility experiment.
    pub fn huge() -> Profile {
        Profile {
            scale: Scale::Huge,
            starts: 1,
            replicates: 1,
            seed: 1989,
        }
    }

    /// The huge-smoke profile: the CI-sized [`Profile::huge`]
    /// (10^5-vertex instances, well under a minute end to end).
    pub fn huge_smoke() -> Profile {
        Profile {
            scale: Scale::HugeSmoke,
            starts: 1,
            replicates: 1,
            seed: 1989,
        }
    }

    /// Vertex count of the `huge` experiment's instances.
    pub fn huge_vertices(&self) -> usize {
        match self.scale {
            Scale::Smoke => 2_000,
            Scale::Quick => 10_000,
            Scale::Paper => 1_000_000,
            Scale::Huge => 1_000_000,
            Scale::HugeSmoke => 100_000,
        }
    }

    /// Vertex counts for the random-model tables (the paper's 2000 and
    /// 5000).
    pub fn random_model_sizes(&self) -> Vec<usize> {
        match self.scale {
            Scale::Smoke => vec![64],
            Scale::Quick | Scale::Huge | Scale::HugeSmoke => vec![500, 1000],
            Scale::Paper => vec![2000, 5000],
        }
    }

    /// Planted bisection widths `b` swept in the `Gbreg` tables (even
    /// values so every degree parity is feasible).
    pub fn gbreg_widths(&self) -> Vec<usize> {
        match self.scale {
            Scale::Smoke => vec![2, 4],
            Scale::Quick | Scale::Huge | Scale::HugeSmoke => vec![2, 8, 16],
            Scale::Paper => vec![2, 8, 16, 32, 64],
        }
    }

    /// Cross-edge counts swept in the `G2set` tables.
    pub fn g2set_widths(&self) -> Vec<usize> {
        match self.scale {
            Scale::Smoke => vec![2, 4],
            Scale::Quick | Scale::Huge | Scale::HugeSmoke => vec![4, 16, 32],
            Scale::Paper => vec![4, 16, 64, 128],
        }
    }

    /// Average degrees swept in the `Gnp` tables.
    pub fn gnp_degrees(&self) -> Vec<f64> {
        match self.scale {
            Scale::Smoke => vec![2.5, 4.0],
            _ => vec![2.0, 2.5, 3.0, 3.5, 4.0],
        }
    }

    /// Average degrees of the `G2set` family sub-tables (the paper has
    /// one sub-table per degree).
    pub fn g2set_degrees(&self) -> Vec<f64> {
        match self.scale {
            Scale::Smoke => vec![2.5, 4.0],
            _ => vec![2.5, 3.0, 3.5, 4.0],
        }
    }

    /// Side lengths of the grid-graph table (`N×N` grids).
    pub fn grid_sides(&self) -> Vec<usize> {
        match self.scale {
            Scale::Smoke => vec![4, 6],
            Scale::Quick | Scale::Huge | Scale::HugeSmoke => vec![8, 12, 16, 22],
            Scale::Paper => vec![10, 16, 22, 32, 45, 70],
        }
    }

    /// Rung counts of the ladder-graph table (ladders have `2k`
    /// vertices).
    pub fn ladder_rungs(&self) -> Vec<usize> {
        match self.scale {
            Scale::Smoke => vec![8, 12],
            Scale::Quick | Scale::Huge | Scale::HugeSmoke => vec![32, 64, 128, 250],
            Scale::Paper => vec![50, 150, 500, 1250, 2500],
        }
    }

    /// Vertex counts of the binary-tree table.
    pub fn tree_sizes(&self) -> Vec<usize> {
        match self.scale {
            Scale::Smoke => vec![14, 30],
            Scale::Quick | Scale::Huge | Scale::HugeSmoke => vec![62, 126, 254, 510],
            Scale::Paper => vec![126, 510, 1022, 2046, 4094],
        }
    }

    /// Replicates used for `Gnp` settings (paper: 7 when replicates=3).
    pub fn gnp_replicates(&self) -> usize {
        2 * self.replicates + 1
    }

    /// Shape of the `huge-netlist` experiment's Rent-style netlists:
    /// `(cells, nets)` — the hypergraph analogue of
    /// [`Profile::huge_vertices`], with ~1.4 nets per cell as in real
    /// standard-cell designs.
    pub fn huge_netlist_shape(&self) -> (usize, usize) {
        match self.scale {
            Scale::Smoke => (2_000, 2_800),
            Scale::Quick => (10_000, 14_000),
            Scale::Paper | Scale::Huge => (1_000_000, 1_400_000),
            Scale::HugeSmoke => (100_000, 140_000),
        }
    }

    /// Shape of the `placement` experiment's Rent-style netlists:
    /// `(cells, nets, parts, instances)`.
    pub fn placement_shape(&self) -> (usize, usize, usize, usize) {
        match self.scale {
            Scale::Smoke => (240, 320, 4, 1),
            // The huge scales keep the quick-sized analysis experiments.
            Scale::Quick | Scale::Huge | Scale::HugeSmoke => (800, 1100, 8, 2),
            Scale::Paper => (2400, 3400, 16, 3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scale() {
        assert_eq!("quick".parse::<Scale>().unwrap(), Scale::Quick);
        assert_eq!("paper".parse::<Scale>().unwrap(), Scale::Paper);
        assert_eq!("huge".parse::<Scale>().unwrap(), Scale::Huge);
        assert_eq!("huge-smoke".parse::<Scale>().unwrap(), Scale::HugeSmoke);
        assert!("fast".parse::<Scale>().is_err());
    }

    #[test]
    fn scale_names_round_trip() {
        for scale in [
            Scale::Smoke,
            Scale::Quick,
            Scale::Paper,
            Scale::Huge,
            Scale::HugeSmoke,
        ] {
            assert_eq!(scale.name().parse::<Scale>().unwrap(), scale);
        }
    }

    #[test]
    fn huge_profiles_scale_only_the_huge_experiment() {
        let h = Profile::huge();
        let q = Profile::quick();
        assert_eq!(h.huge_vertices(), 1_000_000);
        assert_eq!(Profile::huge_smoke().huge_vertices(), 100_000);
        assert_eq!(h.starts, 1);
        // The paper-grid sizes stay quick-sized at the huge scales.
        assert_eq!(h.random_model_sizes(), q.random_model_sizes());
        assert_eq!(h.grid_sides(), q.grid_sides());
        assert_eq!(h.gbreg_widths(), q.gbreg_widths());
    }

    #[test]
    fn paper_profile_matches_protocol() {
        let p = Profile::paper();
        assert_eq!(p.starts, 2);
        assert_eq!(p.replicates, 3);
        assert_eq!(p.gnp_replicates(), 7);
        assert_eq!(p.random_model_sizes(), vec![2000, 5000]);
    }

    #[test]
    fn quick_profile_is_smaller() {
        let q = Profile::quick();
        let p = Profile::paper();
        assert!(q.random_model_sizes().iter().max() < p.random_model_sizes().iter().max());
        assert!(q.gbreg_widths().len() <= p.gbreg_widths().len());
    }

    #[test]
    fn gbreg_widths_are_even() {
        for profile in [Profile::quick(), Profile::paper()] {
            assert!(profile.gbreg_widths().iter().all(|b| b % 2 == 0));
        }
    }
}
