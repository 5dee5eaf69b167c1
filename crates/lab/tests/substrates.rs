//! Scenario execution per substrate, through the one driver — the
//! tests that used to live next to each per-substrate scenario module,
//! now parameterized over the unified seam wherever the assertion is
//! substrate-agnostic.

use polystyrene::prelude::PolystyreneConfig;
use polystyrene_lab::{
    build_substrate, run_experiment, run_experiment_with_traffic, LabConfig, Substrate,
    SubstrateKind, TrafficLoad,
};
use polystyrene_membership::NodeId;
use polystyrene_netsim::{NetRoundMetrics, NetSim, NetSimConfig};
use polystyrene_protocol::{PaperScenario, Scenario, ScenarioEvent};
use polystyrene_sim::prelude::*;
use polystyrene_space::prelude::*;
use polystyrene_space::shapes;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_lab_config(seed: u64) -> LabConfig {
    let p = PaperScenario::small();
    let mut cfg = LabConfig::default();
    cfg.area = p.area();
    cfg.seed = seed;
    cfg.tman.view_cap = 30;
    cfg.tman.m = 10;
    cfg
}

fn small_substrate(kind: SubstrateKind, seed: u64) -> Box<dyn Substrate<[f64; 2]>> {
    let p = PaperScenario::small();
    let (w, h) = p.extents();
    build_substrate(
        kind,
        Torus2::new(w, h),
        shapes::torus_grid(p.cols, p.rows, 1.0),
        &small_lab_config(seed),
    )
}

/// A 4×4 in-process cluster at 2 ms ticks with K = 3.
fn live_cluster(seed: u64) -> Box<dyn Substrate<[f64; 2]>> {
    let mut cfg = LabConfig::default();
    cfg.area = 16.0;
    cfg.seed = seed;
    cfg.tick = Duration::from_millis(2);
    cfg.poly = PolystyreneConfig::builder().replication(3).build();
    cfg.round_timeout = Duration::from_secs(5);
    build_substrate(
        SubstrateKind::Cluster,
        Torus2::new(4.0, 4.0),
        shapes::torus_grid(4, 4, 1.0),
        &cfg,
    )
}

#[test]
fn paper_script_population_arithmetic_on_deterministic_substrates() {
    let p = PaperScenario::small();
    for kind in [SubstrateKind::Engine, SubstrateKind::Netsim] {
        let mut substrate = small_substrate(kind, 1);
        let trace = run_experiment(substrate.as_mut(), &p.script());
        let alive = trace.populations();
        assert_eq!(alive.len(), p.total_rounds as usize, "{kind}");
        assert_eq!(alive[(p.failure_round - 1) as usize], 200, "{kind}");
        assert_eq!(alive[p.failure_round as usize], 100, "{kind}");
        let ir = p.inject_round.expect("small scenario has phase 3") as usize;
        assert_eq!(alive[ir], 200, "{kind}");
    }
}

#[test]
fn churn_window_drains_population_identically() {
    let scenario: Scenario<[f64; 2]> = Scenario::new(6).at(
        2,
        ScenarioEvent::Churn {
            rate: 0.1,
            rounds: 3,
        },
    );
    for kind in [SubstrateKind::Engine, SubstrateKind::Netsim] {
        let mut substrate = small_substrate(kind, 4);
        let trace = run_experiment(substrate.as_mut(), &scenario);
        assert_eq!(
            trace.populations(),
            vec![200, 200, 180, 162, 146, 146],
            "{kind}"
        );
    }
}

#[test]
fn fail_nodes_event_applies_on_the_engine() {
    let mut substrate = small_substrate(SubstrateKind::Engine, 2);
    let scenario: Scenario<[f64; 2]> = Scenario::new(3).at(
        1,
        ScenarioEvent::FailNodes(vec![NodeId::new(0), NodeId::new(1)]),
    );
    let trace = run_experiment(substrate.as_mut(), &scenario);
    assert_eq!(trace.populations(), vec![200, 198, 198]);
}

#[test]
fn region_failure_uses_the_shared_selection_on_netsim() {
    let mut substrate = small_substrate(SubstrateKind::Netsim, 6);
    let scenario: Scenario<[f64; 2]> = Scenario::new(3).at(
        1,
        ScenarioEvent::FailOriginalRegion(Arc::new(|p: &[f64; 2]| p[0] < 10.0)),
    );
    let trace = run_experiment(substrate.as_mut(), &scenario);
    assert_eq!(trace.populations()[0], 200);
    assert_eq!(trace.populations()[1], 100, "half the 20×10 grid");
}

#[test]
fn reshaping_only_variant_recovers_on_the_engine() {
    let p = PaperScenario::reshaping_only(16, 8, 10, 30);
    assert_eq!(p.total_rounds, 40);
    assert_eq!(p.script().event_rounds(), vec![10]);
    let (w, h) = p.extents();
    let mut cfg = LabConfig::default();
    cfg.area = p.area();
    cfg.seed = 3;
    cfg.tman.view_cap = 30;
    cfg.tman.m = 10;
    let mut substrate = build_substrate(
        SubstrateKind::Engine,
        Torus2::new(w, h),
        shapes::torus_grid(p.cols, p.rows, 1.0),
        &cfg,
    );
    let trace = run_experiment(substrate.as_mut(), &p.script());
    assert!(
        trace.reshaping_rounds().is_some(),
        "small torus failed to reshape in 30 rounds"
    );
}

#[test]
fn pre_run_engine_traces_cover_only_their_own_rounds() {
    let p = PaperScenario::small();
    let (w, h) = p.extents();
    let mut e_cfg = EngineConfig::default();
    e_cfg.area = p.area();
    e_cfg.seed = 5;
    e_cfg.tman.view_cap = 30;
    e_cfg.tman.m = 10;
    let mut engine = Engine::new(
        Torus2::new(w, h),
        shapes::torus_grid(p.cols, p.rows, 1.0),
        e_cfg,
    );
    engine.run(3);
    let scenario: Scenario<[f64; 2]> = Scenario::new(2);
    let trace = run_experiment(&mut engine, &scenario);
    assert_eq!(trace.observations.len(), 2);
    assert_eq!(engine.history().len(), 5);
    assert_eq!(trace.observations[0].round, 4);
}

#[test]
fn partition_script_cuts_and_heals_the_netsim_fabric() {
    // Converge, isolate a corner of founders for 3 rounds, observe.
    // Drop counters are netsim-internal, so this drives the kernel
    // directly — through the same unified driver.
    let p = PaperScenario::small();
    let (w, h) = p.extents();
    let mut cfg = NetSimConfig::default();
    cfg.area = p.area();
    cfg.seed = 5;
    cfg.tman.view_cap = 30;
    cfg.tman.m = 10;
    let mut sim = NetSim::new(Torus2::new(w, h), p.shape(), cfg);
    let minority: Vec<NodeId> = (0..20).map(NodeId::new).collect();
    let scenario: Scenario<[f64; 2]> = Scenario::new(16).at(
        6,
        ScenarioEvent::Partition {
            groups: vec![minority],
            rounds: 3,
        },
    );
    let trace = run_experiment(&mut sim, &scenario);
    // Nobody crashes in a partition.
    assert!(trace.populations().iter().all(|&n| n == 200));
    let metrics: Vec<NetRoundMetrics> = sim.history().to_vec();
    // Cross-partition traffic was dropped during the window…
    let during = metrics[8].dropped_messages - metrics[5].dropped_messages;
    assert!(during > 0, "partition dropped no traffic");
    // …and stops being dropped once healed.
    let after = metrics[15].dropped_messages - metrics[11].dropped_messages;
    assert_eq!(after, 0, "healed fabric must not drop");
}

#[test]
fn injected_netsim_nodes_attract_points() {
    let p = PaperScenario::small();
    let (w, h) = p.extents();
    let mut cfg = NetSimConfig::default();
    cfg.area = p.area();
    cfg.seed = 7;
    cfg.tman.view_cap = 30;
    cfg.tman.m = 10;
    let mut sim = NetSim::new(Torus2::new(w, h), p.shape(), cfg);
    sim.run(10);
    sim.fail_original_region(&shapes::in_right_half(20.0));
    sim.run(10);
    let fresh = sim.inject(&shapes::torus_grid_offset(10, 10, 1.0));
    assert_eq!(fresh.len(), 100);
    sim.run(15);
    let with_points = fresh
        .iter()
        .filter(|&&id| !sim.poly_state(id).expect("alive").guests.is_empty())
        .count();
    assert!(
        with_points > fresh.len() / 2,
        "only {with_points}/100 injected nodes acquired data points"
    );
}

#[test]
fn scripted_kill_and_inject_apply_on_the_live_cluster() {
    let mut substrate = live_cluster(1);
    let scenario: Scenario<[f64; 2]> = Scenario::new(8)
        .at(
            2,
            ScenarioEvent::FailNodes(vec![NodeId::new(0), NodeId::new(1)]),
        )
        .at(
            5,
            ScenarioEvent::Inject(vec![[0.5, 0.5], [1.5, 0.5], [2.5, 0.5]]),
        );
    let trace = run_experiment(substrate.as_mut(), &scenario);
    let alive = trace.populations();
    assert_eq!(alive.len(), 8);
    assert_eq!(alive[2], 14);
    assert_eq!(*alive.last().unwrap(), 17);
}

#[test]
fn churn_window_shrinks_the_live_cluster() {
    let mut substrate = live_cluster(2);
    let scenario: Scenario<[f64; 2]> = Scenario::new(6).at(
        1,
        ScenarioEvent::Churn {
            rate: 0.25,
            rounds: 2,
        },
    );
    let trace = run_experiment(substrate.as_mut(), &scenario);
    let alive = trace.populations();
    assert_eq!(alive[0], 16);
    assert_eq!(alive[1], 12); // 16 - 25%
    assert_eq!(alive[2], 9); // 12 - 25%
    assert_eq!(*alive.last().unwrap(), 9);
}

#[test]
fn traffic_load_serves_queries_on_the_deterministic_substrates() {
    // Quiet convergence first, then a region kill mid-script: queries
    // must flow every round, and every offer must be accounted as
    // delivered or dropped by the end-of-round drain (the engine routes
    // atomically; netsim expires stragglers lazily, so its last rounds
    // may still carry a small in-flight tail — hence the per-run, not
    // per-round, accounting check).
    let p = PaperScenario::small();
    let scenario: Scenario<[f64; 2]> = Scenario::new(20).at(
        10,
        ScenarioEvent::FailOriginalRegion(Arc::new(shapes::in_right_half(20.0))),
    );
    for kind in [SubstrateKind::Engine, SubstrateKind::Netsim] {
        let mut substrate = small_substrate(kind, 9);
        let mut load = TrafficLoad::new(p.shape(), 16, 0.9, 8, 9);
        let trace = run_experiment_with_traffic(substrate.as_mut(), &scenario, Some(&mut load));
        let offered: u64 = trace.observations.iter().map(|o| o.traffic.offered).sum();
        let resolved: u64 = trace
            .observations
            .iter()
            .map(|o| o.traffic.delivered + o.traffic.dropped)
            .sum();
        assert_eq!(offered, 16 * 20, "{kind}: every round offers its batch");
        assert!(resolved <= offered, "{kind}");
        assert!(
            resolved >= offered - 16,
            "{kind}: more than one round's worth of queries unaccounted \
             ({resolved}/{offered})"
        );
        // A converged fabric serves essentially everything it is offered.
        let settled = &trace.observations[5..10];
        for o in settled {
            assert!(
                o.traffic.availability() >= 0.99,
                "{kind}: converged availability {} below the gate",
                o.traffic.availability()
            );
            assert!(o.traffic.mean_hops <= 8.0, "{kind}");
        }
    }
}

#[test]
fn traffic_load_does_not_perturb_the_scenario_plane() {
    // The tentpole invariant at the lab layer: switching the workload on
    // must leave the protocol's evolution untouched — same populations,
    // same homogeneity trajectory, same cost — on both deterministic
    // substrates (the netsim kernel additionally proves byte-identical
    // history in its own tests).
    let scenario: Scenario<[f64; 2]> = Scenario::new(12).at(
        5,
        ScenarioEvent::FailOriginalRegion(Arc::new(shapes::in_right_half(20.0))),
    );
    for kind in [SubstrateKind::Engine, SubstrateKind::Netsim] {
        let mut quiet_sub = small_substrate(kind, 13);
        let quiet = run_experiment(quiet_sub.as_mut(), &scenario);
        let mut loaded_sub = small_substrate(kind, 13);
        let mut load = TrafficLoad::new(PaperScenario::small().shape(), 24, 0.5, 8, 13);
        let loaded = run_experiment_with_traffic(loaded_sub.as_mut(), &scenario, Some(&mut load));
        assert_eq!(quiet.populations(), loaded.populations(), "{kind}");
        for (q, l) in quiet.observations.iter().zip(&loaded.observations) {
            assert_eq!(q.homogeneity, l.homogeneity, "{kind}");
            assert_eq!(q.cost_units, l.cost_units, "{kind}");
        }
    }
}

#[test]
fn traffic_load_flows_on_the_live_cluster() {
    let mut substrate = live_cluster(3);
    let scenario: Scenario<[f64; 2]> = Scenario::new(10);
    let mut load = TrafficLoad::new(shapes::torus_grid(4, 4, 1.0), 8, 0.8, 6, 3);
    let trace = run_experiment_with_traffic(substrate.as_mut(), &scenario, Some(&mut load));
    // A round awaits ticks, not the offers: the last rounds' injections
    // may still sit in gateway mailboxes, unpublished. Quiet rounds, with
    // no new offers, run until the slowest node is ten ticks further on,
    // so the nodes handle their mailboxes and publish before the totals
    // are read.
    let settle_to = substrate.observe().ticks + 10;
    let deadline = Instant::now() + Duration::from_secs(20);
    while substrate.observe().ticks < settle_to && Instant::now() < deadline {
        substrate.step();
    }
    let settled = substrate.drain_traffic();
    let (mut offered, mut delivered, mut dropped) =
        (settled.offered, settled.delivered, settled.dropped);
    for t in trace.observations.iter().map(|o| &o.traffic) {
        offered += t.offered;
        delivered += t.delivered;
        dropped += t.dropped;
    }
    assert!(offered >= 8 * 9, "wall-clock rounds lag offers: {offered}");
    assert!(delivered + dropped <= offered);
    assert!(
        delivered >= offered.saturating_sub(8 + dropped) * 4 / 5,
        "live availability collapsed: {delivered}/{offered} ({dropped} dropped)"
    );
}

/// The cycle engine on the small paper torus at `small_lab_config(seed)`.
fn small_engine(seed: u64) -> Engine<Torus2> {
    let p = PaperScenario::small();
    let (w, h) = p.extents();
    let lab = small_lab_config(seed);
    let mut e = EngineConfig::default();
    e.tman = lab.tman;
    e.area = lab.area;
    e.seed = lab.seed;
    Engine::new(Torus2::new(w, h), p.shape(), e)
}

/// The same set-up on the netsim kernel (default ideal links).
fn small_kernel(seed: u64) -> NetSim<Torus2> {
    let p = PaperScenario::small();
    let (w, h) = p.extents();
    let lab = small_lab_config(seed);
    let mut n = NetSimConfig::default();
    n.tman = lab.tman;
    n.area = lab.area;
    n.seed = lab.seed;
    NetSim::new(Torus2::new(w, h), p.shape(), n)
}

/// FNV-1a over eight loaded rounds after a 6-round warm-up: each
/// round's `(offered, delivered, dropped)` and its sorted `(hops,
/// latency)` samples. Engine and NetSim share the inherent traffic
/// surface but no trait, so the drive loop is a macro.
macro_rules! traffic_fingerprint {
    ($sub:expr, $label:expr) => {{
        let mut sub = $sub;
        sub.run(6);
        let mut load = TrafficLoad::new(PaperScenario::small().shape(), 32, 0.9, 8, 17);
        let mut samples = Vec::new();
        let mut hash: u64 = 0xcbf29ce484222325;
        let mut mix = |v: u64| {
            hash ^= v;
            hash = hash.wrapping_mul(0x100000001b3);
        };
        for round in 0..8 {
            let ttl = load.ttl();
            sub.offer_traffic(load.next_round(), ttl);
            sub.step();
            samples.clear();
            let (offered, delivered, dropped) = sub.drain_traffic(&mut samples);
            assert!(delivered > 0, "{} round {round}: nothing delivered", $label);
            samples.sort_unstable();
            for v in [offered, delivered, dropped] {
                mix(v);
            }
            for &(hops, latency) in &samples {
                mix(u64::from(hops));
                mix(latency);
            }
        }
        hash
    }};
}

#[test]
fn engine_traffic_fingerprint_is_pinned() {
    // Pins every round's outcome set of the query forwarding path on
    // the cycle engine; any change to forwarding, batching or gateway
    // accounting that moves a single hop or latency shows up here.
    assert_eq!(
        traffic_fingerprint!(small_engine(17), "engine"),
        0x24ebfe0652d59cb6,
        "engine traffic fingerprint moved"
    );
}

#[test]
fn netsim_traffic_fingerprint_is_pinned() {
    assert_eq!(
        traffic_fingerprint!(small_kernel(17), "netsim"),
        0x7648024c5b9c62eb,
        "netsim traffic fingerprint moved"
    );
}

#[test]
fn lossless_links_charge_the_engine_and_kernel_identically() {
    // The paper's cost model (Sec. IV-A) is charged at each substrate's
    // own send boundary, so on ideal links — no loss, no latency, every
    // exchange completing inside its round — the T-Man bucket must be
    // *identical*, not merely similar: in steady state every alive node
    // sends one m-descriptor request and answers one m-descriptor reply,
    // and RPS traffic is free by the paper's convention. That structural
    // determinism is what makes Fig. 7b's headline (T-Man dominating the
    // overhead) reproducible on every substrate. The migration bucket is
    // the one place real asynchrony leaks in: the kernel's interleaved
    // activations busy-bounce a few migration exchanges per round that
    // the engine's atomic exchanges never can, so the *total* is only
    // near-equal — bounded here at 1%.
    let scenario: Scenario<[f64; 2]> = Scenario::new(8);
    let mut totals: Vec<Vec<f64>> = Vec::new();
    for kind in [SubstrateKind::Engine, SubstrateKind::Netsim] {
        let mut substrate = small_substrate(kind, 11);
        let trace = run_experiment(substrate.as_mut(), &scenario);
        totals.push(
            trace
                .observations
                .iter()
                .map(|o| o.cost_units)
                .collect::<Vec<f64>>(),
        );
    }
    let (engine, netsim) = (&totals[0], &totals[1]);
    assert!(
        engine[2] > 0.0,
        "engine must charge nonzero units in steady state"
    );
    for (r, (e, n)) in engine.iter().zip(netsim).enumerate() {
        assert!(
            (e - n).abs() <= 0.01 * e,
            "round {r}: engine {e} vs netsim {n} diverged beyond the \
             busy-bounce margin\n  engine {engine:?}\n  netsim {netsim:?}"
        );
    }

    // The exact leg, off the raw metrics (the unified observation keeps
    // one cost figure; the per-bucket split lives on each substrate's
    // native metrics): identical T-Man units per node, every round.
    let mut engine = small_engine(11);
    let mut kernel = small_kernel(11);
    for round in 0..6 {
        let em = engine.step();
        let nm = kernel.step();
        let e_tman = em.cost_per_node * em.tman_cost_share;
        let n_tman = nm.cost_per_node * nm.tman_cost_share;
        assert!(
            (e_tman - n_tman).abs() < 1e-9,
            "round {round}: T-Man units per node must match exactly on \
             ideal links: engine {e_tman} vs netsim {n_tman}"
        );
        assert!(e_tman > 0.0, "round {round}: T-Man traffic cannot be free");
    }
}
