//! The live-cluster suite: every behaviour of [`LiveCluster`] checked
//! once, generically, and instantiated for both fabrics — the in-process
//! [`Registry`] and the TCP loopback [`TcpFabric`]. A behaviour that
//! passes on one fabric and fails on the other is a fabric bug by
//! construction.

use polystyrene::prelude::PolystyreneConfig;
use polystyrene_membership::NodeId;
use polystyrene_runtime::{
    ClusterFabric, LiveCluster, Registry, RoundObservation, RuntimeConfig, GATEWAY_INGRESS_BOUND,
};
use polystyrene_space::prelude::*;
use polystyrene_transport::{TcpConfig, TcpFabric};
use std::time::{Duration, Instant};

/// Safety timeout of every wait below. Waits return as soon as their
/// condition holds; the bound only matters on a loaded CI box (the whole
/// workspace tests in parallel), where thread scheduling can stretch
/// the detection and recovery pipelines severalfold.
const WAIT: Duration = Duration::from_secs(20);

/// How the suite configures each fabric.
trait TestFabric: ClusterFabric<[f64; 2]> {
    /// Whether the fabric writes frames to sockets.
    const SOCKETS: bool;

    /// A fast-ticking K = 3 configuration, after `tweak` adjusts its
    /// runtime slice.
    fn config(tweak: impl FnOnce(&mut RuntimeConfig)) -> Self::Config;
}

fn fast_runtime(tick_ms: u64) -> RuntimeConfig {
    let mut c = RuntimeConfig::default();
    c.tick = Duration::from_millis(tick_ms);
    c.poly = PolystyreneConfig::builder().replication(3).build();
    c
}

impl TestFabric for Registry<[f64; 2]> {
    const SOCKETS: bool = false;

    fn config(tweak: impl FnOnce(&mut RuntimeConfig)) -> RuntimeConfig {
        let mut c = fast_runtime(2);
        tweak(&mut c);
        c
    }
}

impl TestFabric for TcpFabric {
    const SOCKETS: bool = true;

    fn config(tweak: impl FnOnce(&mut RuntimeConfig)) -> TcpConfig {
        let mut c = TcpConfig::default();
        c.runtime = fast_runtime(4);
        c.reader_poll = Duration::from_millis(50);
        tweak(&mut c.runtime);
        c
    }
}

fn spawn<F: TestFabric>(
    cols: usize,
    rows: usize,
    tweak: impl FnOnce(&mut RuntimeConfig),
) -> LiveCluster<Torus2, F> {
    LiveCluster::spawn(
        Torus2::new(cols as f64, rows as f64),
        shapes::torus_grid(cols, rows, 1.0),
        F::config(tweak),
    )
}

/// Polls `cluster` until `done` holds or [`WAIT`] runs out; returns the
/// last observation.
fn poll_until<F: TestFabric>(
    cluster: &LiveCluster<Torus2, F>,
    done: impl Fn(&RoundObservation) -> bool,
) -> RoundObservation {
    let deadline = Instant::now() + WAIT;
    loop {
        let obs = cluster.observe();
        if done(&obs) || Instant::now() > deadline {
            return obs;
        }
        cluster.run_for(Duration::from_millis(20));
    }
}

fn spawns_replicates_and_reports<F: TestFabric>() {
    let cluster = spawn::<F>(4, 4, |_| {});
    cluster.await_ticks(10, WAIT);
    let obs = cluster.observe();
    assert_eq!(obs.alive_nodes, 16);
    assert!(obs.ticks >= 10);
    // Migrations may have points in flight at snapshot time; replicas
    // keep them alive, so survival stays (near) perfect.
    assert!(
        obs.surviving_points >= 0.95,
        "points vanished: {}",
        obs.surviving_points
    );
    // Every node hosts its own point plus K=3 replicas of others.
    assert!(
        obs.points_per_node > 3.0,
        "replication never took hold: {} points/node",
        obs.points_per_node
    );
    assert_eq!(
        cluster.sent_frames() > 0,
        F::SOCKETS,
        "frames cross the sockets, and only there"
    );
    cluster.shutdown();
}

fn kill_is_crash_stop_and_final<F: TestFabric>() {
    let cluster = spawn::<F>(4, 4, |_| {});
    cluster.await_ticks(4, WAIT);
    // A backlog in every mailbox keeps the victim busy (and publishing)
    // after its kill: the crash contract may not wait for it.
    let keys: Vec<[f64; 2]> = (0..64).map(|i| [f64::from(i % 4) + 0.5, 1.5]).collect();
    cluster.offer_traffic(&keys, 32);
    let victim = NodeId::new(0);
    assert!(cluster.kill(victim));
    // Right after the kill the victim is gone from every view.
    assert_eq!(cluster.observe().alive_nodes, 15);
    assert!(!cluster.is_alive(victim));
    assert!(!cluster.alive_ids().contains(&victim));
    assert!(!cluster.kill(victim), "second kill must be a no-op");
    // It never reappears, while the survivors keep making progress
    // without the dead peer.
    let before = cluster.observe().ticks;
    let obs = poll_until(&cluster, |obs| {
        assert_eq!(obs.alive_nodes, 15, "a killed node was observed again");
        assert!(!cluster.alive_ids().contains(&victim));
        obs.ticks >= before + 5
    });
    assert!(obs.ticks >= before + 5);
    cluster.shutdown();
}

fn catastrophic_failure_recovers_points<F: TestFabric>() {
    let cluster = spawn::<F>(8, 4, |_| {});
    // Let replication converge first.
    cluster.await_ticks(12, WAIT);
    let killed = cluster.kill_region(shapes::in_right_half(8.0));
    assert_eq!(killed.len(), 16);
    // Wait for heartbeat timeouts + recovery + migration.
    let obs = poll_until(&cluster, |obs| {
        obs.surviving_points > 0.75 && obs.homogeneity < 2.0
    });
    assert_eq!(obs.alive_nodes, 16);
    // K=3 over a 50% failure ⇒ ~94% of points expected to survive;
    // leave slack for heartbeat-detection races.
    assert!(
        obs.surviving_points > 0.75,
        "too many points lost: {}",
        obs.surviving_points
    );
    // And the survivors spread back over the shape.
    assert!(
        obs.homogeneity < 2.0,
        "shape not recovered: homogeneity {}",
        obs.homogeneity
    );
    cluster.shutdown();
}

fn injection_spawns_empty_joiners<F: TestFabric>() {
    let cluster = spawn::<F>(3, 3, |_| {});
    cluster.await_ticks(5, WAIT);
    let id = cluster.inject([0.5, 0.5]);
    assert!(id.as_u64() >= 9);
    // Returns once the joiner has published too.
    cluster.await_ticks(1, WAIT);
    assert_eq!(cluster.observe().alive_nodes, 10);
    cluster.shutdown();
}

fn lossy_cluster_still_replicates_and_counts_drops<F: TestFabric>() {
    let cluster = spawn::<F>(4, 4, |c| c.link.loss = 0.10);
    cluster.await_ticks(12, WAIT);
    let obs = cluster.observe();
    assert_eq!(obs.alive_nodes, 16);
    assert!(
        cluster.injected_drops() > 0,
        "a 10% lossy fabric that dropped nothing is not lossy"
    );
    // The protocol absorbs the loss: replication still takes hold and
    // no point is destroyed (loss can only duplicate, never destroy).
    assert!(
        obs.points_per_node > 2.5,
        "replication never took hold under loss: {} points/node",
        obs.points_per_node
    );
    assert!(
        obs.surviving_points >= 0.95,
        "points vanished under transit loss: {}",
        obs.surviving_points
    );
    cluster.shutdown();
}

fn traffic_queries_resolve<F: TestFabric>() {
    let cluster = spawn::<F>(4, 4, |_| {});
    cluster.await_ticks(10, WAIT);
    let keys: Vec<[f64; 2]> = (0..4).map(|i| [f64::from(i) + 0.5, 1.5]).collect();
    for _ in 0..10 {
        cluster.offer_traffic(&keys, 32);
        cluster.run_for(Duration::from_millis(10));
    }
    // Every offered query eventually resolves or expires.
    let obs = poll_until(&cluster, |obs| {
        obs.traffic.offered >= 40
            && obs.traffic.delivered + obs.traffic.dropped >= obs.traffic.offered
    });
    assert!(
        obs.traffic.offered >= 40,
        "gateways must register offered queries: {:?}",
        obs.traffic
    );
    assert!(
        obs.traffic.availability() > 0.8,
        "a healthy cluster must serve most queries: {:?}",
        obs.traffic
    );
    cluster.shutdown();
}

fn oversized_offer_is_shed_at_the_gateway<F: TestFabric>() {
    // One node ⇒ one gateway: a single offer larger than the ingress
    // bound must be refused whole, deterministically (the gauge cannot
    // admit it no matter how fast the node drains).
    let cluster = spawn::<F>(1, 1, |_| {});
    cluster.await_ticks(2, WAIT);
    let oversized = GATEWAY_INGRESS_BOUND + 44;
    let keys = vec![[0.5, 0.5]; oversized];
    cluster.offer_traffic(&keys, 8);
    assert_eq!(cluster.shed_queries(), oversized as u64);
    assert_eq!(cluster.observe().traffic.shed, oversized as u64);
    // A batch that fits is admitted and eventually registers.
    cluster.offer_traffic(&keys[..8], 8);
    let obs = poll_until(&cluster, |obs| obs.traffic.offered >= 8);
    assert!(
        obs.traffic.offered >= 8,
        "an in-bound batch must be admitted: {:?}",
        obs.traffic
    );
    assert_eq!(
        obs.traffic.shed, oversized as u64,
        "admission must not shed"
    );
    cluster.shutdown();
}

fn gateway_injection_bypasses_transit_loss<F: TestFabric>() {
    // Every protocol message is lost in transit, but a query entering at
    // its gateway is not network traffic: a one-node cluster must admit,
    // register and serve all of them, over more rounds than the ingress
    // bound would allow if injections leaked into the loss model.
    let cluster = spawn::<F>(1, 1, |c| c.link.loss = 1.0);
    cluster.await_ticks(1, WAIT);
    let batches = 2 * GATEWAY_INGRESS_BOUND / 8;
    let keys = vec![[0.5, 0.5]; 8];
    for round in 0..batches as u64 {
        cluster.offer_traffic(&keys, 8);
        cluster.await_ticks(round + 2, WAIT);
    }
    let sent = (batches * keys.len()) as u64;
    let obs = poll_until(&cluster, |obs| obs.traffic.delivered >= sent);
    assert_eq!(obs.traffic.shed, 0, "{:?}", obs.traffic);
    assert_eq!(obs.traffic.offered, sent, "{:?}", obs.traffic);
    assert_eq!(obs.traffic.delivered, sent, "{:?}", obs.traffic);
    cluster.shutdown();
}

fn shutdown_is_idempotent_and_drop_safe<F: TestFabric>() {
    let cluster = spawn::<F>(2, 2, |_| {});
    cluster.shutdown();
    cluster.shutdown();
    drop(cluster); // Drop must not panic on an empty cluster
}

/// Instantiates every listed generic test once per fabric.
macro_rules! suite {
    ($($test:ident),* $(,)?) => {
        mod registry {
            type Fabric = polystyrene_runtime::Registry<[f64; 2]>;
            $(#[test] fn $test() { super::$test::<Fabric>(); })*
        }
        mod tcp {
            type Fabric = polystyrene_transport::TcpFabric;
            $(#[test] fn $test() { super::$test::<Fabric>(); })*
        }
    };
}

suite!(
    spawns_replicates_and_reports,
    kill_is_crash_stop_and_final,
    catastrophic_failure_recovers_points,
    injection_spawns_empty_joiners,
    lossy_cluster_still_replicates_and_counts_drops,
    traffic_queries_resolve,
    oversized_offer_is_shed_at_the_gateway,
    gateway_injection_bypasses_transit_loss,
    shutdown_is_idempotent_and_drop_safe,
);
