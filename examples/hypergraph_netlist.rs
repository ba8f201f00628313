//! Hypergraph-native bisection vs the clique approximation.
//!
//! Real netlists have multi-pin nets; the graph abstraction the paper
//! (and this library's core) uses replaces each k-pin net with a clique,
//! which distorts the objective: a cut net is charged up to
//! `⌊k/2⌋·⌈k/2⌉` clique edges instead of 1. This example builds a
//! block-structured netlist with 3-6 pin nets, bisects it both ways —
//! native netlist FM (`NetlistPipeline::flat_fm`) on the hypergraph,
//! KL/CKL on the clique expansion — and scores *everything* by the true
//! metric (nets cut).
//!
//! ```text
//! cargo run --release --example hypergraph_netlist
//! ```

use bisect_core::bisector::{best_of, Bisector};
use bisect_core::kl::KernighanLin;
use bisect_core::netlist::{NetlistBisection, NetlistPipeline};
use bisect_core::pipeline::Pipeline;
use bisect_gen::rng::LaggedFibonacci;
use bisect_graph::hypergraph::{Netlist, NetlistBuilder};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A block-structured netlist: `blocks` clusters of `cells` cells;
/// most nets stay inside a block, a few straddle two blocks.
fn synthesize(rng: &mut impl Rng, blocks: usize, cells: usize, nets_per_block: usize) -> Netlist {
    let mut b = NetlistBuilder::new(blocks * cells);
    for block in 0..blocks {
        let base = (block * cells) as u32;
        for _ in 0..nets_per_block {
            let size = rng.gen_range(3..=6usize);
            let mut pins: Vec<u32> = (base..base + cells as u32).collect();
            pins.shuffle(rng);
            b.add_net(&pins[..size]).expect("pins valid");
        }
    }
    // Global nets between adjacent blocks.
    for block in 0..blocks.saturating_sub(1) {
        for _ in 0..3 {
            let size = rng.gen_range(3..=4usize);
            let mut pins = Vec::with_capacity(size);
            for _ in 0..size {
                let which = block + rng.gen_range(0..2usize);
                pins.push((which * cells + rng.gen_range(0..cells)) as u32);
            }
            b.add_net(&pins).expect("pins valid");
        }
    }
    b.build()
}

fn main() {
    let mut rng = LaggedFibonacci::seed_from_u64(1989);
    let netlist = synthesize(&mut rng, 8, 40, 60);
    println!(
        "netlist: {} cells, {} nets, average net size {:.2}",
        netlist.num_cells(),
        netlist.num_nets(),
        netlist.average_net_size()
    );

    // Native hypergraph FM, best of two starts, scored in nets.
    let fm = NetlistPipeline::flat_fm();
    let native = best_of(&fm, &netlist, 2, &mut rng);
    println!("hypergraph FM:        {} nets cut", native.cut());

    // Clique expansion + graph algorithms, re-scored in nets.
    let clique = netlist.to_clique_graph();
    for algo in [
        Box::new(KernighanLin::new()) as Box<dyn Bisector>,
        Box::new(Pipeline::ckl()),
    ] {
        let p = best_of(algo.as_ref(), &clique, 2, &mut rng);
        let rescored =
            NetlistBisection::from_sides(&netlist, p.sides().to_vec()).expect("same cell count");
        println!(
            "clique + {:>4}:        {} nets cut (clique-edge cut was {})",
            algo.name(),
            rescored.cut(),
            p.cut()
        );
    }
    println!(
        "\nThe clique-edge objective overweights big nets; the native\n\
         hypergraph objective is what placement actually minimizes."
    );
}
