//! `build_central` and `build_distributed`: the paper's pipeline (UDG →
//! clustering → connectors → ICDS → `LDel(ICDS)` → `LDel(ICDS')`) built
//! by `BackboneBuilder`, centralized at n = 10⁵ and by message passing
//! at n = 10⁴.

use geospan_cds::{assemble, cluster, find_connectors, protocol::run_cds, ClusterRank, Role};
use geospan_core::{Backbone, BackboneBuilder, BackboneConfig};
use geospan_graph::gen::{uniform_points, UnitDiskBuilder};
use geospan_graph::planarity::is_plane_embedding;
use geospan_graph::{Graph, Point};
use geospan_sim::MessageStats;
use geospan_topology::distributed::run_ldel;
use geospan_topology::ldel::{ldel1, planarize};

use crate::host::Digest;
use crate::metrics::Recorder;
use crate::{timed, Run, Timings};

/// Transmission radius of every deployment (the paper's Table I).
pub(crate) const RADIUS: f64 = 60.0;

/// Side of the square field holding `n` nodes at Table I density (100
/// nodes on a 200 × 200 field).
pub(crate) fn table1_side(n: usize) -> f64 {
    200.0 * (n as f64 / 100.0).sqrt()
}

/// `(seed, digest of roles and LDel(ICDS) edges)` of the full-size
/// centralized build. Seeds outside the table are checked for
/// planarity, repeatability and (distributed) agreement only.
const CENTRAL_PINS: &[(u64, u64)] = &[
    (0, 0x8c14f4b1deb826a8),
    (1, 0xe9c2e4c919ae613c),
    (2, 0xde910fd006a45a80),
    (3, 0xe351ea2944d06fcc),
    (4, 0x2b96a1f422dfa4b7),
    (5, 0xd9a1d0a8d79e39ac),
    (6, 0xc99a3e7c0f5b24b3),
    (7, 0x925b9afcf9057c20),
    (8, 0xea59c69d87eeff29),
    (9, 0x36663b2d7d38a8d1),
    (10, 0x3a644430262eefb6),
    (11, 0x7fb75161c7a2d9ef),
    (12, 0xb9f55e71e5f6105b),
    (13, 0x5887ac03c4a7e3ad),
    (14, 0xfc9a56395b7ca145),
    (15, 0xad435f74bf88b32f),
    (16, 0xd7f82ad68c9296d8),
    (17, 0x6e09ce56d0dbeb8a),
    (18, 0x723396852cb9df9d),
    (19, 0x24151afbc34f71af),
    (20, 0x3e11cf60dc54fe46),
    (21, 0xf1ce217a5ea3cdf0),
    (22, 0x00d3aa79a26ac322),
    (23, 0xd30f5a2c48d290ea),
    (24, 0x16d17df374f60521),
    (25, 0xada1a3db6487fc7d),
    (26, 0x5e097b4849c27ee9),
    (27, 0xfc6572ceeb63e82a),
    (28, 0x68a573e794a521ee),
    (29, 0x3c8078a5ebc93ac6),
    (30, 0xc647a7d4cbb7e8e5),
    (31, 0x2e33d6ff407397a8),
];

/// `(seed, digest of per-kind message counts)` of the full-size
/// distributed build.
const DISTRIBUTED_PINS: &[(u64, u64)] = &[
    (0, 0x8dd9ab53671bb267),
    (1, 0xae71559cef9222ce),
    (2, 0xf5e47b06b1a51189),
    (3, 0xa3d2e1d9b36a6bc8),
    (4, 0xcf641e42ea65756b),
    (5, 0x11f6b66a104820f8),
    (6, 0x4b3dab96c2bd271e),
    (7, 0x5f8781ba9d9a8f41),
    (8, 0xd947e9e79397ff5f),
    (9, 0x3e27703ee19dd922),
    (10, 0x846d098a3273f4c3),
    (11, 0x7dc7ba5ba9131e77),
    (12, 0x0cd5690d1e84562b),
    (13, 0x3723c60c6517a791),
    (14, 0x240a5c30d23d77ed),
    (15, 0x23fe8ed73aa6c446),
    (16, 0xae56b4bca6cfbce1),
    (17, 0xdc65dc9f6f04feee),
    (18, 0x74a1c3f3da9a2fda),
    (19, 0xf65c3d336657c7e1),
    (20, 0x65337dec32e13f03),
    (21, 0x779764b4b522b407),
    (22, 0x6270b431cbd87eae),
    (23, 0x754dfd3def7446bb),
    (24, 0xc72057c3190dc82c),
    (25, 0xed1bfd485208b4ba),
    (26, 0x2a1f0788f90c1211),
    (27, 0x10301efdd333f962),
    (28, 0x4f97b64eb3b2d0c1),
    (29, 0x8ccb05031d3f131e),
    (30, 0x3b34f97202038715),
    (31, 0x817d5b45f7dcfae7),
];

fn role_code(r: Role) -> u64 {
    match r {
        Role::Dominator => 0,
        Role::Dominatee => 1,
        Role::Connector => 2,
    }
}

/// Edges as sorted `(min, max)` pairs, independent of storage order.
fn sorted_edges(g: &Graph) -> Vec<(usize, usize)> {
    let mut e: Vec<(usize, usize)> = g.edges().map(|(u, v)| (u.min(v), u.max(v))).collect();
    e.sort_unstable();
    e
}

/// Digest of the roles and the `LDel(ICDS)` edges.
fn structure_digest(roles: &[Role], ldel: &Graph) -> u64 {
    let mut d = Digest::default();
    d.word(roles.len() as u64);
    for &r in roles {
        d.word(role_code(r));
    }
    for (u, v) in sorted_edges(ldel) {
        d.word(u as u64).word(v as u64);
    }
    d.finish()
}

/// Digest of per-kind message counts of both protocol stages.
fn kinds_digest(cds: &MessageStats, ldel: &MessageStats) -> u64 {
    let mut d = Digest::default();
    for (stage, stats) in [("cds", cds), ("ldel", ldel)] {
        d.text(stage);
        for (kind, count) in stats.per_kind() {
            d.text(kind).word(*count as u64);
        }
    }
    d.finish()
}

fn points_digest(points: &[Point]) -> u64 {
    let mut d = Digest::default();
    for p in points {
        d.word(p.x.to_bits()).word(p.y.to_bits());
    }
    d.finish()
}

fn pinned(table: &[(u64, u64)], seed: u64) -> Option<u64> {
    table.iter().find(|(s, _)| *s == seed).map(|(_, d)| *d)
}

/// Set-up shared by both builds: points and UDG, timed as `setup_s`,
/// the UDG alone as `graph.udg_build_s`.
fn deploy(run: &mut Run, n: usize) -> Graph {
    let side = table1_side(n);
    let seed = run.opts.seed;
    run.param("n", n);
    run.param("side", side);
    run.param("radius", RADIUS);
    let (points, udg) = run.setup(|rec| {
        let points = uniform_points(n, side, seed);
        let (udg, secs) = timed(|| UnitDiskBuilder::new(RADIUS).build(&points));
        rec.sample("graph.udg_build_s", secs);
        (points, udg)
    });
    run.param("input_digest", format!("{:016x}", points_digest(&points)));
    run.param("udg_edges", udg.edge_count());
    udg
}

/// The first connected Table I deployment at or after `seed`, as
/// `connected_unit_disk` finds it, with each UDG build timed as
/// `graph.udg_build_s`. Returns the points, the UDG and the seed used.
pub(crate) fn connected_deployment(
    rec: &mut Recorder,
    n: usize,
    side: f64,
    seed: u64,
) -> (Vec<Point>, Graph, u64) {
    let builder = UnitDiskBuilder::new(RADIUS);
    let mut s = seed;
    loop {
        let points = uniform_points(n, side, s);
        let (udg, secs) = timed(|| builder.build(&points));
        rec.sample("graph.udg_build_s", secs);
        if udg.is_connected() {
            return (points, udg, s);
        }
        s += 1;
    }
}

fn record_structure(rec: &mut Recorder, b: &Backbone) {
    let g = b.cds_graphs();
    rec.set("cds.dominators", g.dominators.len() as f64);
    rec.set("cds.connectors", g.connectors.len() as f64);
    rec.set("topology.ldel_edges", b.ldel_icds().edge_count() as f64);
    rec.set(
        "topology.triangles",
        b.ldel_icds_full().triangles.len() as f64,
    );
}

/// `build_central`: the centralized pipeline at n = 10⁵.
pub(crate) fn central(run: &mut Run) {
    let n = if run.opts.quick { 3_000 } else { 100_000 };
    let udg = deploy(run, n);
    let builder = BackboneBuilder::new(BackboneConfig::new(RADIUS));
    run.param(
        "config",
        "BackboneConfig::new(radius), centralized, LowestId",
    );
    let pin = (!run.opts.quick)
        .then(|| pinned(CENTRAL_PINS, run.opts.seed))
        .flatten();
    run.param("pinned", pin.is_some());

    let mut first: Option<u64> = None;
    let mut verify = |run: &mut Run, b: &Backbone| {
        let digest = structure_digest(b.roles(), b.ldel_icds());
        match first {
            None => {
                first = Some(digest);
                run.param("output_digest", format!("{digest:016x}"));
                run.check(is_plane_embedding(b.ldel_icds()), || {
                    "LDel(ICDS) is not a plane embedding".to_string()
                });
                if let Some(want) = pin {
                    run.check(digest == want, || {
                        format!("roles/edges digest {digest:016x} != pinned {want:016x}")
                    });
                }
                record_structure(&mut run.rec, b);
            }
            Some(d) => run.check(d == digest, || {
                "build output differs between repetitions".into()
            }),
        }
    };

    let untraced = time_builds(run, &builder, &udg, &mut verify);
    if let Some(t) = run.record_run_s(&untraced) {
        run.rec.set("goodput_pps", n as f64 / t);
    }
    if !run.opts.trace {
        return;
    }

    let rank = ClusterRank::LowestId;
    let mut traced = Timings::new(1);
    run.cycle_traced(1, |run, _| {
        let tr = run.tracer.as_mut().expect("traced run");
        let (res, build_s) = tr.time("core.build", || builder.build(&udg));
        let replay = tr.enter("replay");
        let (clustering, cluster_s) = tr.time("cds.cluster", || cluster(&udg, &rank));
        let (conn, conn_s) = tr.time("cds.connectors", || find_connectors(&udg, &clustering));
        let (graphs, asm_s) = tr.time("cds.assemble", || assemble(&udg, &clustering, &conn));
        let (raw, ldel1_s) = tr.time("topology.ldel1", || ldel1(&graphs.icds));
        let (planar, plan_s) = tr.time("topology.planarize", || planarize(&graphs.icds, raw));
        tr.exit(replay);
        run.attempt();
        let Ok(b) = res else {
            run.check(false, || "traced build failed".to_string());
            return;
        };
        verify(run, &b);
        run.check(
            graphs.roles == b.roles() && sorted_edges(&planar.graph) == sorted_edges(b.ldel_icds()),
            || "stage replay disagrees with BackboneBuilder::build".to_string(),
        );
        traced.push(0, build_s);
        let rec = &mut run.rec;
        rec.sample("trace.run_s", build_s);
        rec.sample("cds.cluster_s", cluster_s);
        rec.sample("cds.connectors_s", conn_s);
        rec.sample("cds.assemble_s", asm_s);
        rec.sample("topology.ldel1_s", ldel1_s);
        rec.sample("topology.planarize_s", plan_s);
        rec.sample(
            "core.build_other_s",
            build_s - (cluster_s + conn_s + asm_s + ldel1_s + plan_s),
        );
    });
    crate::record_overhead(&mut run.rec, &traced, &untraced);
}

/// `build_distributed`: the message-passing pipeline at n = 10⁴.
pub(crate) fn distributed(run: &mut Run) {
    let n = if run.opts.quick { 800 } else { 10_000 };
    let udg = deploy(run, n);
    let builder = BackboneBuilder::new(BackboneConfig::new(RADIUS).distributed());
    run.param(
        "config",
        "BackboneConfig::new(radius).distributed(), LowestId",
    );
    let pin = (!run.opts.quick)
        .then(|| pinned(DISTRIBUTED_PINS, run.opts.seed))
        .flatten();
    run.param("pinned", pin.is_some());

    // The centralized build on the same UDG is the reference the
    // message-passing construction must reproduce (untimed).
    let reference = BackboneBuilder::new(BackboneConfig::new(RADIUS)).build(&udg);
    let reference = match reference {
        Ok(b) => Some((b.roles().to_vec(), sorted_edges(b.ldel_icds()))),
        Err(e) => {
            run.check(false, || format!("centralized reference build failed: {e}"));
            None
        }
    };

    let mut first: Option<(u64, u64)> = None;
    let mut verify = |run: &mut Run, b: &Backbone| {
        let Some(stats) = b.stats() else {
            run.check(false, || {
                "distributed build carries no message stats".into()
            });
            return;
        };
        let digests = (
            structure_digest(b.roles(), b.ldel_icds()),
            kinds_digest(&stats.cds, &stats.ldel),
        );
        if let Some(d) = first {
            run.check(d == digests, || {
                "build output differs between repetitions".into()
            });
            return;
        }
        first = Some(digests);
        run.param("output_digest", format!("{:016x}", digests.0));
        run.param("kinds_digest", format!("{:016x}", digests.1));
        if let Some((roles, edges)) = &reference {
            run.check(roles.as_slice() == b.roles(), || {
                "distributed roles differ from the centralized build".into()
            });
            run.check(*edges == sorted_edges(b.ldel_icds()), || {
                "distributed LDel(ICDS) differs from the centralized build".into()
            });
        }
        run.check(is_plane_embedding(b.ldel_icds()), || {
            "LDel(ICDS) is not a plane embedding".to_string()
        });
        if let Some(want) = pin {
            run.check(digests.1 == want, || {
                format!(
                    "per-kind message digest {:016x} != pinned {want:016x}",
                    digests.1
                )
            });
        }
        let per_node = stats.total_per_node();
        let total: usize = per_node.iter().sum();
        run.rec.set(
            "msgs_per_node_avg",
            total as f64 / per_node.len().max(1) as f64,
        );
        run.rec.set(
            "msgs_per_node_max",
            per_node.iter().copied().max().unwrap_or(0) as f64,
        );
        record_structure(&mut run.rec, b);
    };

    let untraced = time_builds(run, &builder, &udg, &mut verify);
    if let Some(t) = run.record_run_s(&untraced) {
        run.rec.set("goodput_pps", n as f64 / t);
    }
    if !run.opts.trace {
        return;
    }

    let rank = ClusterRank::LowestId;
    let mut traced = Timings::new(1);
    run.cycle_traced(1, |run, _| {
        let tr = run.tracer.as_mut().expect("traced run");
        let (res, build_s) = tr.time("core.build", || builder.build(&udg));
        let replay = tr.enter("replay");
        let (cds, cds_s) = tr.time("cds.protocol", || run_cds(&udg, &rank));
        let ldel = match &cds {
            Ok((g, _)) => Some(tr.time("topology.distributed", || run_ldel(&g.icds, RADIUS))),
            Err(_) => None,
        };
        tr.exit(replay);
        run.attempt();
        let (Ok(b), Ok((graphs, cds_stats)), Some((Ok(ldel), ldel_s))) = (res, cds, ldel) else {
            run.check(false, || "traced distributed build failed".to_string());
            return;
        };
        verify(run, &b);
        run.check(
            graphs.roles == b.roles()
                && sorted_edges(&ldel.ldel.graph) == sorted_edges(b.ldel_icds())
                && b.stats().is_some_and(|s| {
                    kinds_digest(&s.cds, &s.ldel) == kinds_digest(&cds_stats, &ldel.stats)
                }),
            || "protocol replay disagrees with BackboneBuilder::build".to_string(),
        );
        traced.push(0, build_s);
        let rec = &mut run.rec;
        rec.sample("trace.run_s", build_s);
        rec.sample("cds.protocol_s", cds_s);
        rec.sample("topology.distributed_s", ldel_s);
        rec.sample("core.build_other_s", build_s - cds_s - ldel_s);
        let total = cds_stats.total_sent() + ldel.stats.total_sent();
        rec.set("sim.msgs_total", total as f64);
        rec.sample("sim.msgs_per_s", total as f64 / (cds_s + ldel_s));
        record_kinds(rec, "cds.msgs.", &cds_stats);
        record_kinds(rec, "topology.msgs.", &ldel.stats);
    });
    crate::record_overhead(&mut run.rec, &traced, &untraced);
}

/// Times `builder.build(udg)` untraced, checking each output.
fn time_builds(
    run: &mut Run,
    builder: &BackboneBuilder,
    udg: &Graph,
    verify: &mut impl FnMut(&mut Run, &Backbone),
) -> Timings {
    let mut times = Timings::new(1);
    run.cycle_untraced(1, |run, _| {
        let (res, secs) = timed(|| builder.build(udg));
        run.attempt();
        match res {
            Ok(b) => {
                times.push(0, secs);
                verify(run, &b);
            }
            Err(e) => run.check(false, || format!("build failed: {e}")),
        }
    });
    times
}

/// Per-kind message counts under `prefix`; kinds the catalogue does not
/// list are skipped (the pinned digest still covers them).
fn record_kinds(rec: &mut Recorder, prefix: &str, stats: &MessageStats) {
    for (kind, count) in stats.per_kind() {
        let name = format!("{prefix}{kind}");
        if let Some(def) = crate::metrics::def(&name) {
            rec.set(def.name, *count as f64);
        }
    }
}
