//! The named workloads and the loop that drives them.
//!
//! Every workload runs the same round, through the public
//! [`Substrate`] seam: scheduled events (`lab.kill`, `lab.inject`), then
//! `workload.next_round` → `lab.offer` → `lab.step` → `lab.drain` →
//! `lab.observe`. The load is open-loop within a round: a fixed number
//! of queries is offered before every `step`, whatever became of the
//! previous batch, and rounds are paced by protocol progress.

use crate::probe;
use crate::trace::{AllocTally, Tracer};
use polystyrene::prelude::PolystyreneConfig;
use polystyrene_lab::{
    ExperimentTrace, LabConfig, LiveSubstrate, RoundObservation, Substrate, TrafficDist,
    TrafficLoad, TrafficStats,
};
use polystyrene_netsim::{NetSim, NetSimConfig};
use polystyrene_routing::kv::key_position;
use polystyrene_runtime::Cluster;
use polystyrene_sim::engine::{Engine, EngineConfig};
use polystyrene_space::shapes;
use polystyrene_space::torus::Torus2;
use polystyrene_transport::{TcpCluster, TcpConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Sec. IV-A scenario on the cycle engine.
    ReshapeEngine,
    /// Zipf query serving on netsim through a quarter kill.
    ServeNetsim,
    /// Uniform query serving on the in-process thread cluster.
    ServeCluster,
    /// Zipf query serving on the TCP loopback cluster.
    ServeTcp,
}

impl Workload {
    /// Every workload, in canonical order.
    pub const ALL: [Workload; 4] = [
        Workload::ReshapeEngine,
        Workload::ServeNetsim,
        Workload::ServeCluster,
        Workload::ServeTcp,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReshapeEngine => "reshape_engine",
            Workload::ServeNetsim => "serve_netsim",
            Workload::ServeCluster => "serve_cluster",
            Workload::ServeTcp => "serve_tcp",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the substrate is wall-clock driven (not bit-reproducible).
    pub fn is_live(self) -> bool {
        matches!(self, Workload::ServeCluster | Workload::ServeTcp)
    }

    /// The workload's inputs at their default sizes.
    pub fn plan(self) -> Plan {
        let base = Plan {
            workload: self,
            cols: 8,
            rows: 8,
            rate: 0,
            dist: TrafficDist::Zipf(0.99),
            rounds: None,
            kill: None,
            inject_at: None,
        };
        match self {
            // Scenario rounds 0–19 are set-up; the timed script is rounds
            // 20–199: the right half dies before round 20 and 1 600
            // fresh nodes arrive before round 100.
            Workload::ReshapeEngine => Plan {
                cols: 80,
                rows: 40,
                rounds: Some(180),
                kill: Some((0, Region::RightHalf)),
                inject_at: Some(80),
                ..base
            },
            Workload::ServeNetsim => Plan {
                cols: 64,
                rows: 64,
                rate: 4000,
                rounds: Some(40),
                kill: Some((10, Region::UpperRightQuarter)),
                ..base
            },
            Workload::ServeCluster => Plan {
                rate: 1024,
                dist: TrafficDist::Uniform,
                ..base
            },
            Workload::ServeTcp => Plan {
                rows: 4,
                rate: 64,
                ..base
            },
        }
    }
}

/// A correlated regional failure, over the founding positions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// `x ≥ w/2` — the paper's half-torus crash.
    RightHalf,
    /// `x ≥ w/2 ∧ y ≥ h/2`.
    UpperRightQuarter,
}

impl Region {
    fn contains(self, p: &[f64; 2], width: f64, height: f64) -> bool {
        match self {
            Region::RightHalf => p[0] >= width / 2.0,
            Region::UpperRightQuarter => p[0] >= width / 2.0 && p[1] >= height / 2.0,
        }
    }
}

/// One workload's inputs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// Torus grid columns (one founding node per cell).
    pub cols: usize,
    /// Torus grid rows.
    pub rows: usize,
    /// Queries offered per round.
    pub rate: usize,
    /// Key popularity.
    pub dist: TrafficDist,
    /// Fixed timed-script length of a deterministic workload; `None`
    /// for the live workloads, which run rounds for the whole budget.
    pub rounds: Option<u32>,
    /// Timed-round index and region of the kill, if any.
    pub kill: Option<(u32, Region)>,
    /// Timed-round index of the re-injection of `cols/2 × rows` fresh
    /// nodes, if any.
    pub inject_at: Option<u32>,
}

/// Size of the hashed key universe.
const KEYS: usize = 1024;

/// Convergence rounds before the timed phase (part of set-up); on
/// `reshape_engine` these are the paper's 20 pre-failure rounds.
const SETUP_ROUNDS: u32 = 20;

/// Read share of the generated queries (the repository's default; the
/// overlay routes reads and writes alike).
const READ_FRACTION: f64 = 0.9;

impl Plan {
    /// Founding population.
    pub fn nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// Hop budget: half the torus on each axis plus greedy detours.
    pub fn ttl(&self) -> u32 {
        (self.cols / 2 + self.rows / 2 + 4) as u32
    }

    fn key_universe(&self) -> Vec<[f64; 2]> {
        (0..KEYS)
            .map(|i| key_position(&format!("key:{i}"), self.cols as f64, self.rows as f64))
            .collect()
    }

    fn lab_config(&self, seeds: Seeds) -> LabConfig {
        let mut cfg = LabConfig::default();
        cfg.seed = seeds.protocol;
        cfg.area = self.nodes() as f64;
        cfg.poly = PolystyreneConfig::builder().replication(4).build();
        if self.workload.is_live() {
            // The live settings of the traffic-scale figure.
            cfg.tman.view_cap = 20;
            cfg.tman.m = 8;
            cfg.tick = Duration::from_millis(8);
            cfg.round_timeout = Duration::from_secs(5);
        }
        cfg
    }
}

/// The program-side seeds, derived from the workload seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// Protocol entropy of the substrate.
    pub protocol: u64,
    /// Query-key stream.
    pub traffic: u64,
    /// Victim selection of the live adapter.
    pub victims: u64,
}

impl Seeds {
    /// Derives independent streams from one workload seed.
    pub fn derive(seed: u64) -> Self {
        Self {
            protocol: splitmix64(seed ^ 0x7072_6f74),
            traffic: splitmix64(seed ^ 0x7472_6166),
            victims: splitmix64(seed ^ 0x7669_6374),
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One substrate, concretely typed so the benchmark can read the
/// counters each backend exposes beside the seam.
enum Fabric {
    Engine(Engine<Torus2>),
    Netsim(NetSim<Torus2>),
    Cluster(LiveSubstrate<Cluster<Torus2>>),
    Tcp(LiveSubstrate<TcpCluster<Torus2>>),
}

impl Fabric {
    fn build(plan: &Plan, seeds: Seeds) -> Self {
        let cfg = plan.lab_config(seeds);
        let space = Torus2::new(plan.cols as f64, plan.rows as f64);
        let shape = shapes::torus_grid(plan.cols, plan.rows, 1.0);
        match plan.workload {
            Workload::ReshapeEngine => {
                let mut e = EngineConfig::default();
                e.tman = cfg.tman;
                e.poly = cfg.poly;
                e.area = cfg.area;
                e.seed = cfg.seed;
                Fabric::Engine(Engine::new(space, shape, e))
            }
            Workload::ServeNetsim => {
                let mut n = NetSimConfig::default();
                n.tman = cfg.tman;
                n.poly = cfg.poly;
                n.area = cfg.area;
                n.seed = cfg.seed;
                n.link = cfg.link;
                Fabric::Netsim(NetSim::new(space, shape, n))
            }
            Workload::ServeCluster => Fabric::Cluster(LiveSubstrate::new(
                Cluster::spawn(space, shape, cfg.runtime()),
                seeds.victims,
                cfg.round_timeout,
            )),
            Workload::ServeTcp => {
                let mut t = TcpConfig::default();
                t.runtime = cfg.runtime();
                Fabric::Tcp(LiveSubstrate::new(
                    TcpCluster::spawn(space, shape, t),
                    seeds.victims,
                    cfg.round_timeout,
                ))
            }
        }
    }

    fn substrate(&mut self) -> &mut dyn Substrate<[f64; 2]> {
        match self {
            Fabric::Engine(s) => s,
            Fabric::Netsim(s) => s,
            Fabric::Cluster(s) => s,
            Fabric::Tcp(s) => s,
        }
    }

    fn observe(&self) -> RoundObservation {
        match self {
            Fabric::Engine(s) => Substrate::observe(s),
            Fabric::Netsim(s) => Substrate::observe(s),
            Fabric::Cluster(s) => Substrate::observe(s),
            Fabric::Tcp(s) => Substrate::observe(s),
        }
    }

    /// Alive population as the substrate itself counts it.
    fn alive(&self) -> usize {
        match self {
            Fabric::Engine(s) => s.alive_count(),
            Fabric::Netsim(s) => s.alive_count(),
            Fabric::Cluster(s) => s.cluster().alive_ids().len(),
            Fabric::Tcp(s) => s.cluster().alive_ids().len(),
        }
    }

    /// Netsim's cumulative `(sent, dropped)` message counters.
    fn kernel_messages(&self) -> (u64, u64) {
        match self {
            Fabric::Netsim(s) => s
                .history()
                .last()
                .map_or((0, 0), |m| (m.sent_messages, m.dropped_messages)),
            _ => (0, 0),
        }
    }

    /// Netsim's queue depths: `(protocol, traffic)` messages in flight.
    fn in_flight(&self) -> (usize, usize) {
        match self {
            Fabric::Netsim(s) => (s.in_flight(), s.traffic_in_flight()),
            _ => (0, 0),
        }
    }

    /// Frames the TCP deployment has written so far.
    fn sent_frames(&self) -> u64 {
        match self {
            Fabric::Tcp(s) => s.cluster().sent_frames(),
            _ => 0,
        }
    }

    /// Runs the observation pass of a deterministic substrate once (the
    /// live substrates have none to call).
    fn compute_metrics(&self) {
        match self {
            Fabric::Engine(s) => {
                black_box(s.compute_metrics());
            }
            Fabric::Netsim(s) => {
                black_box(s.compute_metrics());
            }
            _ => {}
        }
    }
}

/// The per-call names whose allocations the traced binary attributes.
pub const CALLS: [&str; 4] = ["lab.step", "lab.offer", "lab.drain", "lab.observe"];

/// Every observation pass is sampled at this round stride in traced runs.
const COMPUTE_METRICS_STRIDE: usize = 8;

/// Quiet rounds a deterministic substrate gets to resolve in-flight
/// queries after the timed phase.
const MAX_QUIET_ROUNDS: u32 = 64;

/// Quiet rounds a live substrate gets to settle its stragglers.
const LIVE_SETTLE_ROUNDS: u32 = 2;

/// What one set-up plus timed script produced.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Wall time of construction plus convergence rounds.
    pub setup_s: f64,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// Process CPU time during the timed phase.
    pub cpu_s: f64,
    /// Offer + step + drain wall time of each timed round, in ms.
    pub round_ms: Vec<f64>,
    /// The `step` observation of each timed round.
    pub observations: Vec<RoundObservation>,
    /// The drained traffic of each timed round.
    pub traffic: Vec<TrafficStats>,
    /// Traffic drained during the quiet tail.
    pub tail: TrafficStats,
    /// Timed-round index of the kill.
    pub kill_round: Option<usize>,
    /// Rounds from the kill until homogeneity drops below reference.
    pub reshape_rounds: Option<u32>,
    /// Wall time over those rounds, kill included.
    pub reshape_s: Option<f64>,
    /// Founding population.
    pub founding: usize,
    /// Nodes crashed by the kill.
    pub killed: usize,
    /// Nodes injected.
    pub injected: usize,
    /// Alive population the substrate reports at the end.
    pub alive_end: usize,
    /// Rounds whose observed population broke founding − killed + injected.
    pub population_breaks: u64,
    /// Whether offered = delivered + dropped after the quiet tail
    /// (deterministic substrates only).
    pub accounting_closed: Option<bool>,
    /// Netsim `(sent, dropped)` messages over the timed phase.
    pub messages: (u64, u64),
    /// Netsim queue depths at the end of the timed phase.
    pub in_flight_end: (usize, usize),
    /// TCP frames written during the timed phase.
    pub frames: u64,
    /// Process threads at the end of the timed phase.
    pub threads: u64,
    /// Allocation tallies of [`CALLS`] over the timed phase.
    pub allocs: [AllocTally; 4],
}

impl Rep {
    /// Timed rounds.
    pub fn rounds(&self) -> usize {
        self.round_ms.len()
    }

    /// Traffic over the timed phase plus the quiet tail.
    pub fn traffic_total(&self) -> TrafficStats {
        let mut total = self.tail;
        for t in &self.traffic {
            total.merge(t);
        }
        total
    }

    /// Delivered-weighted mean hops over timed rounds `range`.
    pub fn hops_mean(&self, range: std::ops::Range<usize>) -> f64 {
        let mut delivered = 0u64;
        let mut hops = 0.0;
        for t in &self.traffic[range] {
            delivered += t.delivered;
            hops += t.mean_hops * t.delivered as f64;
        }
        if delivered == 0 {
            0.0
        } else {
            hops / delivered as f64
        }
    }

    /// Mean per-node cost units per timed round.
    pub fn cost_per_node(&self) -> f64 {
        let n = self.observations.len().max(1) as f64;
        self.observations.iter().map(|o| o.cost_units).sum::<f64>() / n
    }

    /// The values that must repeat exactly between two scripts with one
    /// seed on a deterministic substrate.
    pub fn exact_counts(&self) -> Vec<(&'static str, f64)> {
        let total = self.traffic_total();
        let mut counts = vec![
            (
                "reshape_rounds",
                self.reshape_rounds.map_or(-1.0, f64::from),
            ),
            (
                "surviving_points",
                self.observations.last().map_or(0.0, |o| o.surviving_points),
            ),
            ("cost_per_node", self.cost_per_node()),
            ("query_hops_mean", self.hops_mean(0..self.traffic.len())),
            ("queries_offered", total.offered as f64),
            ("queries_delivered", total.delivered as f64),
            ("queries_dropped", total.dropped as f64),
            ("netsim.sent_messages", self.messages.0 as f64),
            ("netsim.dropped_messages", self.messages.1 as f64),
        ];
        for (name, tally) in CALLS.iter().zip(self.allocs) {
            counts.push((name, tally.allocs as f64));
        }
        counts
    }
}

/// Builds the substrate and runs its convergence rounds.
fn set_up(plan: &Plan, seeds: Seeds) -> (Fabric, f64) {
    let started = Instant::now();
    let mut fabric = Fabric::build(plan, seeds);
    for _ in 0..SETUP_ROUNDS {
        fabric.substrate().step();
    }
    (fabric, started.elapsed().as_secs_f64())
}

/// Measures one set-up and drops the substrate.
pub fn set_up_only(plan: &Plan, seeds: Seeds) -> f64 {
    set_up(plan, seeds).1
}

/// One set-up plus one timed script. Live workloads run rounds until
/// `budget` has passed; deterministic ones run their fixed script.
pub fn run_rep(plan: &Plan, seeds: Seeds, budget: Duration, tracer: &mut Tracer) -> Rep {
    let (mut fabric, setup_s) = set_up(plan, seeds);
    let founding = plan.nodes();
    let mut rep = Rep {
        setup_s,
        founding,
        ..Rep::default()
    };
    let mut load = TrafficLoad::with_dist(
        plan.key_universe(),
        plan.rate,
        READ_FRACTION,
        plan.ttl(),
        seeds.traffic,
        plan.dist,
    );
    let ttl = load.ttl();
    let serving = plan.rate > 0;
    let deterministic = !plan.workload.is_live();
    let (width, height) = (plan.cols as f64, plan.rows as f64);
    let inject_positions = shapes::torus_grid_offset(plan.cols / 2, plan.rows, 1.0);
    let allocs_before = CALLS.map(|c| tracer.alloc_tally(c));
    let mut round_ends: Vec<Instant> = Vec::new();
    let mut kill_start = None;
    // Wall and CPU time spent on the traced run's sampled observation
    // passes; taken out of the timed phase, so traced round rates carry
    // only the cost of the spans and the counting allocator.
    let (mut sampled_wall, mut sampled_cpu) = (Duration::ZERO, Duration::ZERO);

    let messages_before = fabric.kernel_messages();
    let frames_before = fabric.sent_frames();
    let cpu_before = probe::process_cpu();
    let started = Instant::now();
    for r in 0.. {
        let done = match plan.rounds {
            Some(n) => r >= n as usize,
            None => started.elapsed() - sampled_wall >= budget,
        };
        if done {
            break;
        }
        if let Some((at, region)) = plan.kill {
            if at as usize == r {
                kill_start = Some(Instant::now() - sampled_wall);
                let predicate = move |p: &[f64; 2]| region.contains(p, width, height);
                let killed = tracer.call("lab.kill", None, || {
                    fabric.substrate().kill_region(&predicate)
                });
                rep.killed += killed.len();
                rep.kill_round = Some(r);
            }
        }
        if plan.inject_at.map(|at| at as usize) == Some(r) {
            let injected = tracer.call("lab.inject", None, || {
                fabric.substrate().inject(&inject_positions)
            });
            rep.injected += injected.len();
        }

        let round = tracer.open("round", None);
        let keys = if serving {
            let load = &mut load;
            tracer.call("workload.next_round", round, move || load.next_round())
        } else {
            &[]
        };
        let call_start = Instant::now();
        if serving {
            tracer.call("lab.offer", round, || {
                fabric.substrate().offer_traffic(keys, ttl)
            });
        }
        let obs = tracer.call("lab.step", round, || fabric.substrate().step());
        let traffic = if serving {
            tracer.call("lab.drain", round, || fabric.substrate().drain_traffic())
        } else {
            TrafficStats::default()
        };
        rep.round_ms.push(call_start.elapsed().as_secs_f64() * 1e3);
        tracer.call("lab.observe", round, || black_box(fabric.observe()));
        tracer.close(round);
        round_ends.push(Instant::now() - sampled_wall);

        if tracer.enabled() && deterministic && r % COMPUTE_METRICS_STRIDE == 0 {
            let (wall, cpu) = (Instant::now(), probe::process_cpu());
            tracer.call("observe.compute_metrics", None, || fabric.compute_metrics());
            sampled_cpu += probe::process_cpu() - cpu;
            sampled_wall += wall.elapsed();
        }
        if deterministic && obs.alive_nodes != founding - rep.killed + rep.injected {
            rep.population_breaks += 1;
        }
        rep.observations.push(obs);
        rep.traffic.push(traffic);
    }
    rep.wall_s = (started.elapsed() - sampled_wall).as_secs_f64();
    rep.cpu_s = (probe::process_cpu() - cpu_before - sampled_cpu).as_secs_f64();
    let messages_after = fabric.kernel_messages();
    rep.messages = (
        messages_after.0 - messages_before.0,
        messages_after.1 - messages_before.1,
    );
    rep.frames = fabric.sent_frames() - frames_before;
    rep.in_flight_end = fabric.in_flight();
    rep.threads = probe::threads().unwrap_or(0);
    for (i, call) in CALLS.iter().enumerate() {
        let after = tracer.alloc_tally(call);
        rep.allocs[i] = AllocTally {
            allocs: after.allocs - allocs_before[i].allocs,
            bytes: after.bytes - allocs_before[i].bytes,
        };
    }

    if let Some(kill_round) = rep.kill_round {
        let trace = ExperimentTrace {
            observations: rep.observations.clone(),
            failure_round: Some(kill_round as u32),
            kill_tick: None,
        };
        rep.reshape_rounds = trace.reshaping_rounds();
        if let (Some(rounds), Some(start)) = (rep.reshape_rounds, kill_start) {
            let end = round_ends[kill_round + rounds as usize - 1];
            rep.reshape_s = Some((end - start).as_secs_f64());
        }
    }

    // Untimed quiet tail: let in-flight queries resolve so the
    // accounting can close (deterministic) or stragglers land (live).
    if serving {
        let timed = rep.traffic_total();
        let quiet_rounds = if deterministic {
            MAX_QUIET_ROUNDS
        } else {
            LIVE_SETTLE_ROUNDS
        };
        for _ in 0..quiet_rounds {
            let obs = fabric.substrate().step();
            let drained = fabric.substrate().drain_traffic();
            rep.tail.merge(&drained);
            if deterministic && obs.alive_nodes != founding - rep.killed + rep.injected {
                rep.population_breaks += 1;
            }
            let offered = timed.offered + rep.tail.offered;
            let resolved = timed.delivered + timed.dropped + rep.tail.delivered + rep.tail.dropped;
            if deterministic && offered == resolved && fabric.in_flight().1 == 0 {
                break;
            }
        }
    }
    if deterministic {
        let total = rep.traffic_total();
        rep.accounting_closed = Some(total.offered == total.delivered + total.dropped);
    }
    rep.alive_end = fabric.alive();
    rep
}
