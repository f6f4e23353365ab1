//! Experiment E9 (ablation, ours) — why planarize the backbone with the
//! localized Delaunay graph rather than the cheaper Gabriel or RNG
//! filters? Compares `LDel(ICDS)`, `GG(ICDS)` and `RNG(ICDS)` as the
//! planar backbone: all three are plane graphs, but the Delaunay-based
//! one keeps the spanning ratios small — the paper's core design choice.
//!
//! ```text
//! cargo run -p geospan-bench --release --bin ablation_planarizer -- [--trials N] [--seed S] [--out DIR]
//! ```

use geospan_bench::{measure_stretch, CliArgs, Scenario};
use geospan_cds::{build_cds, ClusterRank};
use geospan_graph::planarity::is_plane_embedding;
use geospan_graph::stats::degree_stats_over;
use geospan_graph::Graph;
use geospan_topology::{gabriel, ldel, relative_neighborhood};

/// Turns an ICDS into a planar backbone.
type Planarizer = fn(&Graph) -> Graph;

fn main() {
    let cli = CliArgs::parse();
    let scenario = cli.apply(Scenario::table1());
    println!(
        "Ablation E9 (backbone planarizer), n={}, R={}, {} instances\n",
        scenario.n, scenario.radius, scenario.trials
    );
    println!(
        "{:<12} {:>7} {:>12} {:>9} {:>10} {:>10} {:>9} {:>9}",
        "planarizer", "planar", "backbone deg", "edges", "len avg", "len max", "hop avg", "hop max"
    );

    let mut csv =
        String::from("planarizer,planar,backbone_deg_max,edges,len_avg,len_max,hop_avg,hop_max\n");
    let instances = scenario.instances();
    let planarizers: [(&str, Planarizer); 3] = [
        ("LDel", |g| ldel::planarized(g).graph),
        ("GG", gabriel),
        ("RNG", relative_neighborhood),
    ];
    for (name, planarize) in planarizers {
        let mut planar = true;
        let mut deg_max = 0usize;
        let mut edges = 0.0;
        let (mut la, mut lm, mut ha, mut hm) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (_pts, udg) in &instances {
            let cds = build_cds(udg, &ClusterRank::LowestId);
            let backbone = planarize(&cds.icds);
            planar &= is_plane_embedding(&backbone);
            let nodes = cds.backbone_nodes();
            deg_max = deg_max.max(degree_stats_over(&backbone, nodes).max);
            edges += backbone.edge_count() as f64;
            // Re-attach the dominatee edges to measure spanning ratios.
            let mut prime = backbone.clone();
            for (w, doms) in cds.dominators_of.iter().enumerate() {
                for &d in doms {
                    prime.add_edge(w, d);
                }
            }
            let r = measure_stretch(udg, &prime, scenario.radius);
            la += r.length_avg;
            lm = lm.max(r.length_max);
            ha += r.hop_avg;
            hm = hm.max(r.hop_max);
        }
        let t = instances.len() as f64;
        println!(
            "{:<12} {:>7} {:>12} {:>9.1} {:>10.3} {:>10.3} {:>9.3} {:>9.3}",
            name,
            planar,
            deg_max,
            edges / t,
            la / t,
            lm,
            ha / t,
            hm
        );
        csv.push_str(&format!(
            "{},{},{},{:.2},{:.4},{:.4},{:.4},{:.4}\n",
            name,
            planar,
            deg_max,
            edges / t,
            la / t,
            lm,
            ha / t,
            hm
        ));
    }
    cli.write_artifact("ablation_planarizer.csv", &csv);
}
