//! Synthetic netlists with a Rent's-rule-flavored structure — the
//! hypergraph counterpart of [`crate::geometric`] for placement-style
//! experiments.
//!
//! Real circuit netlists have two statistical signatures the graph
//! models in this crate lack:
//!
//! 1. **Power-law net sizes.** Most nets are 2–3 pins, a few fan out
//!    widely; the size histogram follows `P(k) ∝ k^(−γ)` truncated to
//!    `[2, max_net_size]` (γ ≈ 2–3 empirically).
//! 2. **Locality.** Rent's rule (`pins ∝ cells^p`, p < 1) implies
//!    connectivity is mostly short-range: a region's external pin count
//!    grows sublinearly in its cell count. We induce this by laying the
//!    cells on a line and drawing each net's pins from a window of
//!    `locality · num_cells` cells around a uniformly random anchor —
//!    small windows give grid-like separators, `locality = 1` degrades
//!    to uniform (Gnp-like) connectivity.
//!
//! Generation *streams*: nets are drawn one at a time and appended to a
//! [`NetlistBuilder`], which sorts each into place in the netlist's
//! final net-major arrays, so the working set beyond the netlist under
//! construction is O(max net size). Sampling is deterministic given the
//! RNG state.

use bisect_graph::hypergraph::{Netlist, NetlistBuilder};
use rand::Rng;

use crate::GenError;

/// Parameters of the Rent-style random netlist model.
#[derive(Debug, Clone, PartialEq)]
pub struct RentNetlistParams {
    /// Number of cells.
    pub num_cells: usize,
    /// Number of nets.
    pub num_nets: usize,
    /// Largest net size; sizes are drawn from `[2, max_net_size]`.
    pub max_net_size: usize,
    /// Net-size power-law exponent γ ≥ 0: `P(k) ∝ k^(−γ)`. Larger γ
    /// concentrates mass on 2-pin nets; `γ = 0` is uniform.
    pub gamma: f64,
    /// Pin window as a fraction of the cell count, in `(0, 1]`: each
    /// net's pins are drawn from `⌈locality · num_cells⌉` consecutive
    /// cells around a random anchor. `1.0` disables locality.
    pub locality: f64,
}

impl RentNetlistParams {
    /// Validates and constructs the parameters.
    ///
    /// # Errors
    ///
    /// [`GenError::InvalidParameter`] if `num_cells < 2`, `num_cells`
    /// or `num_nets` exceeds `u32::MAX` (the cell and net id range),
    /// `max_net_size` falls outside `[2, num_cells]`, `gamma` is not a
    /// finite non-negative number, or `locality` is outside `(0, 1]`.
    pub fn new(
        num_cells: usize,
        num_nets: usize,
        max_net_size: usize,
        gamma: f64,
        locality: f64,
    ) -> Result<RentNetlistParams, GenError> {
        if num_cells < 2 {
            return Err(GenError::InvalidParameter(format!(
                "need at least 2 cells, got {num_cells}"
            )));
        }
        GenError::check_id_range("num_cells", num_cells)?;
        GenError::check_id_range("num_nets", num_nets)?;
        if max_net_size < 2 || max_net_size > num_cells {
            return Err(GenError::InvalidParameter(format!(
                "max net size must be in [2, {num_cells}], got {max_net_size}"
            )));
        }
        if !gamma.is_finite() || gamma < 0.0 {
            return Err(GenError::InvalidParameter(format!(
                "gamma must be finite and non-negative, got {gamma}"
            )));
        }
        if !locality.is_finite() || locality <= 0.0 || locality > 1.0 {
            return Err(GenError::InvalidParameter(format!(
                "locality must be in (0, 1], got {locality}"
            )));
        }
        Ok(RentNetlistParams {
            num_cells,
            num_nets,
            max_net_size,
            gamma,
            locality,
        })
    }
}

/// Draws one net's distinct pins into `pins`, consuming exactly the
/// randomness the net needs (size draw, anchor, rejection attempts).
fn draw_net<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    weights: &[f64],
    total: f64,
    window: usize,
    max_net_size: usize,
    pins: &mut Vec<u32>,
) {
    // Net size by CDF inversion.
    let mut draw = rng.gen::<f64>() * total;
    let mut size = max_net_size;
    for (i, &w) in weights.iter().enumerate() {
        draw -= w;
        if draw < 0.0 {
            size = i + 2;
            break;
        }
    }
    // Window of `window` consecutive cells around a random anchor,
    // clamped inside [0, n).
    let anchor = rng.gen_range(0..n);
    let lo = anchor.saturating_sub(window / 2).min(n - window);
    // Distinct pins by rejection; windows are much larger than nets
    // in practice, so collisions are rare. A deterministic sweep
    // from the anchor finishes off pathological cases (tiny window,
    // near-full net) without risking an unbounded loop.
    pins.clear();
    let mut attempts = 0usize;
    while pins.len() < size && attempts < 16 * size {
        attempts += 1;
        let c = (lo + rng.gen_range(0..window)) as u32;
        if !pins.contains(&c) {
            pins.push(c);
        }
    }
    let mut sweep = 0usize;
    while pins.len() < size {
        let c = (lo + sweep) as u32;
        sweep += 1;
        if !pins.contains(&c) {
            pins.push(c);
        }
    }
}

/// Samples a Rent-style random netlist; see the [module docs](self)
/// for the model. One pass: each net is drawn and handed to a
/// [`NetlistBuilder`], which stores it straight in the final pin array,
/// so peak memory beyond the finished CSR is O(max net size).
pub fn sample_streamed<R: Rng + ?Sized>(rng: &mut R, params: &RentNetlistParams) -> Netlist {
    let n = params.num_cells;
    // Cumulative size distribution over [2, max_net_size]: sizes are
    // few (≤ n), so CDF inversion by linear scan is exact and cheap.
    let weights: Vec<f64> = (2..=params.max_net_size)
        .map(|k| (k as f64).powf(-params.gamma))
        .collect();
    let total: f64 = weights.iter().sum();
    // Pin window: at least max_net_size wide so every size fits, and
    // never wider than the netlist.
    let window = ((params.locality * n as f64).ceil() as usize)
        .max(params.max_net_size)
        .min(n);
    let mut builder = NetlistBuilder::new(n);
    let mut pins: Vec<u32> = Vec::with_capacity(params.max_net_size);
    for _ in 0..params.num_nets {
        draw_net(
            rng,
            n,
            &weights,
            total,
            window,
            params.max_net_size,
            &mut pins,
        );
        builder
            .add_net(&pins)
            // lint: allow(no-panic) — pins are distinct in-range cells and size ≥ 2
            .expect("distinct in-range pins");
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_counts_beyond_the_id_range() {
        let too_many = u32::MAX as usize + 1;
        for (cells, nets) in [(too_many, 10), (100, too_many)] {
            assert!(matches!(
                RentNetlistParams::new(cells, nets, 4, 1.8, 1.0),
                Err(GenError::InvalidParameter(_))
            ));
        }
        assert!(RentNetlistParams::new(u32::MAX as usize, u32::MAX as usize, 4, 1.8, 1.0).is_ok());
    }

    fn params(
        cells: usize,
        nets: usize,
        max: usize,
        gamma: f64,
        locality: f64,
    ) -> RentNetlistParams {
        RentNetlistParams::new(cells, nets, max, gamma, locality).unwrap()
    }

    #[test]
    fn params_validate() {
        assert!(RentNetlistParams::new(1, 5, 2, 2.0, 0.5).is_err());
        assert!(RentNetlistParams::new(10, 5, 1, 2.0, 0.5).is_err());
        assert!(RentNetlistParams::new(10, 5, 11, 2.0, 0.5).is_err());
        assert!(RentNetlistParams::new(10, 5, 4, -1.0, 0.5).is_err());
        assert!(RentNetlistParams::new(10, 5, 4, f64::NAN, 0.5).is_err());
        assert!(RentNetlistParams::new(10, 5, 4, 2.0, 0.0).is_err());
        assert!(RentNetlistParams::new(10, 5, 4, 2.0, 1.5).is_err());
        assert!(RentNetlistParams::new(10, 5, 4, 2.0, 1.0).is_ok());
    }

    #[test]
    fn shape_matches_parameters() {
        let p = params(100, 150, 6, 2.5, 0.2);
        let nl = sample_streamed(&mut StdRng::seed_from_u64(1), &p);
        assert_eq!(nl.num_cells(), 100);
        assert_eq!(nl.num_nets(), 150);
        for n in nl.net_ids() {
            let pins = nl.pins(n);
            assert!(pins.len() >= 2 && pins.len() <= 6, "size {}", pins.len());
            let mut sorted: Vec<u32> = pins.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), pins.len(), "duplicate pin in net");
            assert!(sorted.iter().all(|&c| (c as usize) < 100));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let p = params(80, 120, 5, 2.0, 0.3);
        let a = sample_streamed(&mut StdRng::seed_from_u64(7), &p);
        let b = sample_streamed(&mut StdRng::seed_from_u64(7), &p);
        assert_eq!(a, b);
    }

    #[test]
    fn gamma_skews_sizes_small() {
        // γ = 3 should give a much smaller mean net size than γ = 0
        // (uniform over [2, 8]).
        let skewed = sample_streamed(
            &mut StdRng::seed_from_u64(2),
            &params(200, 400, 8, 3.0, 1.0),
        );
        let uniform = sample_streamed(
            &mut StdRng::seed_from_u64(2),
            &params(200, 400, 8, 0.0, 1.0),
        );
        assert!(
            skewed.average_net_size() + 1.0 < uniform.average_net_size(),
            "skewed {} vs uniform {}",
            skewed.average_net_size(),
            uniform.average_net_size()
        );
    }

    #[test]
    fn locality_bounds_net_span() {
        // Every net's pins fit inside one window of consecutive cells.
        let p = params(1000, 300, 4, 2.0, 0.05);
        let nl = sample_streamed(&mut StdRng::seed_from_u64(3), &p);
        let window = (0.05f64 * 1000.0).ceil() as u32;
        for n in nl.net_ids() {
            let pins = nl.pins(n);
            let span = pins.iter().max().unwrap() - pins.iter().min().unwrap();
            assert!(span < window, "span {span} exceeds window {window}");
        }
    }

    #[test]
    fn streamed_sample_uses_compact_offsets() {
        let p = params(500, 800, 6, 2.5, 0.1);
        let nl = sample_streamed(&mut StdRng::seed_from_u64(11), &p);
        assert!(nl.uses_compact_offsets());
    }

    #[test]
    fn full_nets_on_tiny_windows_terminate() {
        // max_net_size == window size forces the deterministic sweep.
        let p = params(8, 20, 8, 0.0, 0.1);
        let nl = sample_streamed(&mut StdRng::seed_from_u64(4), &p);
        assert_eq!(nl.num_nets(), 20);
        for n in nl.net_ids() {
            assert!(nl.pins(n).len() <= 8);
        }
    }
}
