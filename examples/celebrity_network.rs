//! The paper's Figure 1 celebrity argument, step by step.
//!
//! Builds the Twitter-like comment network where celebrities A and B both
//! interact with celebrity C while fans X and Y merely follow C, and shows
//! why only the structure-subgraph view can tell the pairs apart.
//!
//! Run: `cargo run --release --example celebrity_network`

use ssf_repro::baselines::local;
use ssf_repro::dyngraph::DynamicNetwork;
use ssf_repro::ssf_core::{
    HopSubgraph, PatternSignature, SsfConfig, SsfExtractor, StructureSubgraph,
};

fn main() {
    let (a, b, c, x, y) = (0u32, 1, 2, 3, 4);
    let mut g = DynamicNetwork::new();
    // Celebrities comment on each other repeatedly and recently.
    for t in [6, 7, 8, 9] {
        g.add_link(a, c, t);
        g.add_link(b, c, t);
    }
    // Fans X, Y commented on C a few times, earlier.
    for t in [1, 2, 3, 4] {
        g.add_link(x, c, t);
        g.add_link(y, c, t);
    }
    // Fan crowds around each celebrity.
    let mut fan = 5u32;
    for celeb in [a, b, c] {
        for _ in 0..8 {
            g.add_link(celeb, fan, 1 + fan % 9);
            fan += 1;
        }
    }
    let stat = g.to_static();

    println!("Will A-B emerge? Will X-Y? The local indices cannot tell:");
    for (name, f) in local::ALL {
        println!(
            "  {:<5} A-B = {:>7.3}   X-Y = {:>7.3}",
            name,
            f(&stat, a, b),
            f(&stat, x, y)
        );
    }

    // Walk the SSF pipeline for A-B.
    println!("\nSSF pipeline for A-B:");
    let hop = HopSubgraph::extract(&g, a, b, 1);
    println!(
        "  1-hop subgraph: {} nodes, {} distinct links",
        hop.node_count(),
        hop.link_count()
    );
    let s = StructureSubgraph::combine(&hop);
    println!(
        "  structure subgraph: {} structure nodes (fans merged)",
        s.node_count()
    );
    for sn in 0..s.node_count() {
        let members: Vec<u32> =
            s.members(sn).iter().map(|&i| hop.global_id(i)).collect();
        println!(
            "    N{} = {:?} (distance {})",
            sn + 1,
            members,
            s.distance(sn)
        );
    }

    let ex = SsfExtractor::new(SsfConfig::new(6));
    let fab = ex.extract(&g, a, b, 10);
    let fxy = ex.extract(&g, x, y, 10);
    println!("\nSSF(A-B) != SSF(X-Y): {}", fab.values() != fxy.values());

    let (ks_ab, _, _) = ex.k_structure(&g, a, b);
    let (ks_xy, _, _) = ex.k_structure(&g, x, y);
    println!("\nK-structure pattern around A-B:");
    println!("{}", PatternSignature::of(&ks_ab));
    println!("K-structure pattern around X-Y:");
    println!("{}", PatternSignature::of(&ks_xy));
}
