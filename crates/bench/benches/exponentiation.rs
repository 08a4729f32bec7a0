//! Microbenchmarks of the Lemma 2.14 gathering primitive.

use cc_mis_bench::harness::Harness;
use cc_mis_core::exponentiation::gather_balls;
use cc_mis_graph::generators;
use cc_mis_sim::bits::standard_bandwidth;
use cc_mis_sim::clique::CliqueEngine;

fn main() {
    let mut h = Harness::new("gather_balls");
    for radius in [2usize, 4, 8] {
        let n = 512;
        let g = generators::random_regular(n, 4, 2);
        h.bench(&format!("regular4_n512/r{radius}"), || {
            let mut engine = CliqueEngine::strict(n, standard_bandwidth(n));
            gather_balls(&mut engine, &g, &vec![true; n], radius, 24)
        });
    }
    // Saturating: the balls grow to the whole graph, so the last step
    // routes every node's ball to every other node in one batch (~1M
    // packets) — the gather the low-degree fast path runs at this size.
    let n = 1024;
    let g = generators::random_regular(n, 4, 1);
    h.bench("regular4_n1024/r16", || {
        let mut engine = CliqueEngine::strict(n, standard_bandwidth(n));
        gather_balls(&mut engine, &g, &vec![true; n], 16, 24)
    });
    for n in [256usize, 1024] {
        let g = generators::cycle(n);
        h.bench(&format!("cycle_r8/n{n}"), || {
            let mut engine = CliqueEngine::strict(n, standard_bandwidth(n));
            gather_balls(&mut engine, &g, &vec![true; n], 8, 24)
        });
    }
    h.finish();
}
