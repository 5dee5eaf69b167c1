//! The live deployment: spawns node threads over a [`ClusterFabric`],
//! injects crashes and fresh joiners, offers traffic, observes global
//! health, and shuts everything down — one implementation for every
//! fabric.
//!
//! The crash contract is the same on every fabric. [`LiveCluster::kill`]
//! removes the node from the node table, detaches it from the fabric,
//! sends it `Shutdown` and clears its board entry, then returns without
//! waiting for its threads: a crash-stop victim gets no say in how long
//! its crash takes (a node mid-write to another dead peer can take a
//! full socket timeout to notice), so killing a region costs
//! milliseconds while the survivors' clocks run. The dying threads are
//! joined at [`LiveCluster::shutdown`]. Until they exit they may publish
//! one last report, so [`LiveCluster::observe`] and
//! [`LiveCluster::await_ticks`] count registered nodes only.

use crate::config::RuntimeConfig;
use crate::fabric::ClusterFabric;
use crate::message::Message;
use crate::node::NodeRuntime;
use crate::observe::{observe, NodeReport, ObservationBoard};
use crate::registry::Registry;
use crate::traffic::GatewayTraffic;
use crossbeam::channel::Sender;
use parking_lot::Mutex;
use polystyrene::prelude::{DataPoint, PointId};
use polystyrene_membership::{Descriptor, NodeId};
use polystyrene_protocol::observe::RoundObservation;
use polystyrene_protocol::{sample_bootstrap_contacts, select_region_victims};
use polystyrene_space::MetricSpace;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The in-process deployment: mailboxes through the shared [`Registry`].
pub type Cluster<S> = LiveCluster<S, Registry<<S as MetricSpace>::Point>>;

/// Everything the deployment keeps per alive node.
struct LiveNode<P> {
    mailbox: Sender<Message<P>>,
    /// Admission gauge shared with the node thread: queries offered into
    /// the mailbox but not yet handled, bounding gateway ingress.
    ingress: Arc<AtomicUsize>,
    /// The node thread plus any thread the fabric started for the node.
    threads: Vec<JoinHandle<()>>,
}

/// A running Polystyrene deployment: one thread per node, messages
/// carried by the fabric `F`.
///
/// See the crate-level docs for an end-to-end example.
pub struct LiveCluster<S: MetricSpace, F: ClusterFabric<S::Point>> {
    space: S,
    config: RuntimeConfig,
    fabric: Arc<F>,
    board: Arc<ObservationBoard<S::Point>>,
    original_points: Vec<DataPoint<S::Point>>,
    nodes: Mutex<HashMap<NodeId, LiveNode<S::Point>>>,
    /// Threads of killed nodes, joined at shutdown.
    graveyard: Mutex<Vec<JoinHandle<()>>>,
    next_id: AtomicU64,
    /// Bootstrap-contact entropy for founders and joiners.
    rng: Mutex<StdRng>,
    /// Traffic-plane offer state: the dedicated gateway-draw stream,
    /// the qid counter, the cumulative shed count and the batching
    /// scratch.
    traffic: Mutex<GatewayTraffic>,
}

impl<S: MetricSpace, F: ClusterFabric<S::Point>> LiveCluster<S, F> {
    /// Spawns one node per position of `shape`, each founding the data
    /// point at its position.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty, the configuration is invalid, or the
    /// fabric cannot attach a node (e.g. no loopback listener to bind).
    pub fn spawn(space: S, shape: Vec<S::Point>, config: F::Config) -> Self {
        assert!(!shape.is_empty(), "cannot spawn an empty cluster");
        let fabric = Arc::new(F::build(&config));
        let config = F::runtime(&config);
        let original_points: Vec<DataPoint<S::Point>> = shape
            .iter()
            .enumerate()
            .map(|(i, p)| DataPoint::new(PointId::new(i as u64), p.clone()))
            .collect();
        let cluster = Self {
            space,
            config,
            fabric,
            board: ObservationBoard::new(),
            original_points,
            nodes: Mutex::new(HashMap::new()),
            graveyard: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(shape.len() as u64),
            rng: Mutex::new(StdRng::seed_from_u64(config.seed)),
            traffic: Mutex::new(GatewayTraffic::new(config.seed)),
        };
        for (i, origin) in cluster.original_points.iter().enumerate() {
            let contacts = contacts_from_shape(
                &shape,
                i,
                config.bootstrap_contacts,
                &mut cluster.rng.lock(),
            );
            cluster.spawn_node(
                NodeId::new(i as u64),
                Some(origin.clone()),
                origin.pos.clone(),
                contacts,
            );
        }
        cluster
    }

    fn spawn_node(
        &self,
        id: NodeId,
        origin: Option<DataPoint<S::Point>>,
        position: S::Point,
        contacts: Vec<Descriptor<S::Point>>,
    ) {
        let (tx, rx) = crossbeam::channel::unbounded();
        // Attach before the node runs: a peer that learns of this node
        // can reach it from the first tick.
        let (link, fabric_thread) = F::attach(&self.fabric, id, tx.clone());
        let ingress = Arc::new(AtomicUsize::new(0));
        let node = NodeRuntime::new(
            id,
            self.space.clone(),
            self.config,
            origin,
            position,
            contacts,
            link,
            Arc::clone(&self.board),
            rx,
            Arc::clone(&ingress),
        );
        let node_thread = std::thread::Builder::new()
            .name(format!("poly-{id}"))
            .spawn(move || node.run())
            .expect("failed to spawn node thread");
        self.nodes.lock().insert(
            id,
            LiveNode {
                mailbox: tx,
                ingress,
                threads: std::iter::once(node_thread).chain(fabric_thread).collect(),
            },
        );
    }

    /// Ids currently registered (alive).
    pub fn alive_ids(&self) -> Vec<NodeId> {
        self.nodes.lock().keys().copied().collect()
    }

    /// Whether `id` is currently alive (registered).
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes.lock().contains_key(&id)
    }

    /// Protocol messages lost in transit by the injected link faults
    /// (zero on an ideal link).
    pub fn injected_drops(&self) -> u64 {
        self.fabric.injected_drops()
    }

    /// Protocol frames written to a socket so far (zero on a fabric
    /// without sockets).
    pub fn sent_frames(&self) -> u64 {
        self.fabric.sent_frames()
    }

    /// Hard-crashes a node: deregisters it, sends it `Shutdown` and
    /// removes it from the observation board, without waiting for its
    /// threads (see the module docs). No goodbye messages — peers must
    /// notice via failed deliveries and heartbeat timeouts. Sends to the
    /// node fail from now on; what was already queued in its mailbox is
    /// handled before the `Shutdown`. Returns whether the node was alive.
    pub fn kill(&self, id: NodeId) -> bool {
        let Some(node) = self.nodes.lock().remove(&id) else {
            return false;
        };
        // Detach first: probes and delivery reports turn negative before
        // the node even stops.
        self.fabric.detach(id);
        let _ = node.mailbox.send(Message::Shutdown);
        self.graveyard.lock().extend(node.threads);
        self.board.remove(id);
        true
    }

    /// Crashes every founding node whose original data point satisfies
    /// `predicate` — the paper's correlated regional failure, with
    /// victim selection shared with every other substrate through
    /// [`select_region_victims`]. Returns the crashed ids.
    pub fn kill_region(&self, predicate: impl Fn(&S::Point) -> bool + Send + Sync) -> Vec<NodeId> {
        let victims =
            select_region_victims(&self.original_points, &predicate, &|id| self.is_alive(id));
        victims.into_iter().filter(|&id| self.kill(id)).collect()
    }

    /// Injects a fresh node with no data points at `position`
    /// (the paper's Phase 3 joiners), bootstrapped from alive contacts.
    /// Returns its id.
    pub fn inject(&self, position: S::Point) -> NodeId {
        let id = NodeId::new(self.next_id.fetch_add(1, Ordering::Relaxed));
        let contacts = contacts_from_board(
            &self.alive_ids(),
            &self.board.snapshot(),
            self.config.bootstrap_contacts,
            &mut self.rng.lock(),
        );
        self.spawn_node(id, None, position, contacts);
        id
    }

    /// Lets the cluster run for a wall-clock duration.
    pub fn run_for(&self, duration: Duration) {
        std::thread::sleep(duration);
    }

    /// Offers one application query per key, each issued through a
    /// uniformly random alive gateway. Keys that draw the same gateway
    /// share one self-addressed
    /// [`polystyrene_protocol::Wire::QueryBatch`], put straight into the
    /// gateway's mailbox: a query entering at its gateway is not network
    /// traffic, so it costs no socket and the transit-loss hook never
    /// sees it. Every forwarding hop then rides the fabric like any
    /// other protocol message. Admission is bounded per gateway
    /// ([`crate::GATEWAY_INGRESS_BOUND`]); batches refused at a full
    /// gateway are *shed* — counted in the observation plane's
    /// `traffic.shed`, separate from queries that expired in flight.
    pub fn offer_traffic(&self, keys: &[S::Point], ttl: u32) {
        let nodes = self.nodes.lock();
        let alive: Vec<NodeId> = nodes.keys().copied().collect();
        self.traffic.lock().offer(
            keys,
            ttl,
            &alive,
            |id| nodes.get(&id).map(|n| Arc::clone(&n.ingress)),
            |gateway, wire| {
                let _ = nodes[&gateway].mailbox.send(Message::Protocol {
                    from: gateway,
                    wire,
                });
            },
        );
    }

    /// Queries shed at gateway ingress so far (cumulative).
    pub fn shed_queries(&self) -> u64 {
        self.traffic.lock().shed()
    }

    /// Blocks until every alive node has executed at least `ticks` local
    /// rounds (with a safety timeout of `max_wait`).
    pub fn await_ticks(&self, ticks: u64, max_wait: Duration) {
        let deadline = Instant::now() + max_wait;
        loop {
            let obs = self.observe();
            // Every registered node must have published and progressed —
            // counting only publishers would return before slow starters
            // ever appear on the board.
            let registered = self.nodes.lock().len();
            if obs.alive_nodes >= registered && obs.alive_nodes > 0 && obs.ticks >= ticks {
                return;
            }
            if Instant::now() > deadline {
                return;
            }
            std::thread::sleep(self.config.tick);
        }
    }

    /// Measures cluster health from the observation plane, reported as
    /// the unified [`RoundObservation`] record, over registered nodes
    /// only: a killed node's last report never counts. The traffic
    /// counters are cumulative (node threads publish running totals),
    /// including the offer-side shed count stamped here.
    pub fn observe(&self) -> RoundObservation {
        let mut snapshot = self.board.snapshot();
        {
            let nodes = self.nodes.lock();
            snapshot.retain(|id, _| nodes.contains_key(id));
        }
        let mut obs = observe(
            &self.space,
            &self.original_points,
            &snapshot,
            self.config.area,
        );
        obs.traffic.shed = self.traffic.lock().shed();
        obs
    }

    /// Orderly shutdown: kills every node, then joins every thread the
    /// deployment started, including those of previously killed nodes.
    /// Threads a fabric does not hand back (per-connection socket
    /// readers) wind down on their own once their node is detached.
    pub fn shutdown(&self) {
        let ids = self.alive_ids();
        for id in ids {
            self.kill(id);
        }
        let handles: Vec<JoinHandle<()>> = self.graveyard.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl<S: MetricSpace, F: ClusterFabric<S::Point>> Drop for LiveCluster<S, F> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Draws up to `count` distinct bootstrap contacts for founding node
/// `own` from the target shape: the contact set every founder's gossip
/// layers start from.
fn contacts_from_shape<P: Clone>(
    shape: &[P],
    own: usize,
    count: usize,
    rng: &mut StdRng,
) -> Vec<Descriptor<P>> {
    let n = shape.len();
    let mut contacts = Vec::new();
    for _ in 0..count * 2 {
        if contacts.len() >= count {
            break;
        }
        let j = rng.random_range(0..n);
        if j != own && !contacts.iter().any(|d: &Descriptor<P>| d.id.index() == j) {
            contacts.push(Descriptor::new(NodeId::new(j as u64), shape[j].clone()));
        }
    }
    contacts
}

/// Draws `count` bootstrap contacts for a fresh joiner from the alive
/// population, with positions resolved through the observation board —
/// a board-backed view over the one shared sampling path
/// ([`sample_bootstrap_contacts`]), so what "inject" bootstraps (and
/// how much entropy it consumes) cannot drift from the deterministic
/// substrates.
fn contacts_from_board<P: Clone>(
    alive: &[NodeId],
    snapshot: &HashMap<NodeId, NodeReport<P>>,
    count: usize,
    rng: &mut StdRng,
) -> Vec<Descriptor<P>> {
    sample_bootstrap_contacts(
        alive,
        &|id| snapshot.get(&id).map(|r| r.pos.clone()),
        count,
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_contacts_exclude_self_and_duplicates() {
        let shape: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let contacts = contacts_from_shape(&shape, 3, 5, &mut rng);
        assert!(contacts.len() <= 5);
        assert!(contacts.iter().all(|d| d.id.index() != 3));
        let mut ids: Vec<usize> = contacts.iter().map(|d| d.id.index()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), contacts.len(), "no duplicate contacts");
    }

    #[test]
    fn board_contacts_resolve_positions_from_reports() {
        let mut snapshot: HashMap<NodeId, NodeReport<f64>> = HashMap::new();
        snapshot.insert(
            NodeId::new(4),
            NodeReport {
                pos: 4.5,
                guest_ids: Vec::new(),
                ghost_ids: Vec::new(),
                parked_ids: Vec::new(),
                stored_points: 0,
                ticks: 1,
                cost_units: 0,
                traffic_offered: 0,
                traffic_delivered: 0,
                traffic_dropped: 0,
                traffic_samples: Vec::new(),
            },
        );
        let mut rng = StdRng::seed_from_u64(2);
        // Node 9 never published: draws landing on it are skipped.
        let alive = vec![NodeId::new(4), NodeId::new(9)];
        let contacts = contacts_from_board(&alive, &snapshot, 8, &mut rng);
        assert!(!contacts.is_empty());
        assert!(contacts.iter().all(|d| d.id == NodeId::new(4)));
        assert!(contacts.iter().all(|d| d.pos == 4.5));
        assert!(contacts_from_board(&[], &snapshot, 4, &mut rng).is_empty());
    }
}
