//! The transport seams of a live deployment.
//!
//! [`crate::node::NodeRuntime`] is a mailbox-and-timer driver around the
//! sans-IO `ProtocolNode`; everything transport-specific sits behind two
//! traits. [`NodeFabric`] is one node's sending half: how a wire message
//! actually travels, and how the address book answers a reachability
//! probe. [`ClusterFabric`] is the deployment's side: attaching a node
//! to the fabric and detaching it on a crash. The in-process deployment
//! implements both with the shared [`Registry`] ([`RegistryFabric`] is
//! its sending half); the TCP substrate (`polystyrene-transport`)
//! implements them with framed sockets and a per-peer connection cache.
//! The node loop and [`crate::LiveCluster`] are byte-for-byte the same
//! over both, and so is the transit-loss hook, [`TransitLoss`].

use crate::config::RuntimeConfig;
use crate::message::Message;
use crate::registry::Registry;
use crossbeam::channel::Sender;
use parking_lot::Mutex;
use polystyrene_membership::NodeId;
use polystyrene_protocol::{Channel, Fate, FaultyNetwork, LinkProfile, NetworkModel, Wire};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One node's view of the deployment's message fabric.
///
/// Methods take `&mut self` because a fabric may own per-node mutable
/// state (a connection cache, buffered writers); each node thread owns
/// its fabric exclusively.
pub trait NodeFabric<P>: Send {
    /// Delivers `wire` from this node to `to`. Returns `false` only for
    /// an *observable* delivery failure (unknown destination, dead
    /// mailbox, refused or reset connection) — the crash-stop signal the
    /// node surfaces as `Event::PeerUnreachable`. Silent transit loss
    /// must return `true`.
    fn send(&mut self, to: NodeId, wire: Wire<P>) -> bool;

    /// Whether `id` is currently reachable according to the fabric's
    /// address book — the answer to a protocol reachability probe.
    fn contains(&mut self, id: NodeId) -> bool;
}

/// The deployment-level half of a message fabric: what
/// [`crate::LiveCluster`] needs to put a node on the network and take it
/// off again. Everything else a live deployment does — the node table,
/// the observation board, crash and offer bookkeeping — is shared.
pub trait ClusterFabric<P>: Send + Sync + Sized + 'static {
    /// The deployment configuration: the node-loop [`RuntimeConfig`]
    /// plus whatever this fabric adds.
    type Config: Copy;

    /// The node-loop slice of `config`.
    fn runtime(config: &Self::Config) -> RuntimeConfig;

    /// Builds the shared fabric, with the [`TransitLoss`] hook the
    /// runtime configuration's `link` asks for.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    fn build(config: &Self::Config) -> Self;

    /// Registers node `id`, whose inbound messages go to `mailbox`, and
    /// returns its sending half plus any thread the fabric started on
    /// its behalf (joined when the deployment shuts down).
    fn attach(
        fabric: &Arc<Self>,
        id: NodeId,
        mailbox: Sender<Message<P>>,
    ) -> (Box<dyn NodeFabric<P>>, Option<JoinHandle<()>>);

    /// Deregisters node `id`: probes for it turn negative and sends to
    /// it fail from now on.
    fn detach(&self, id: NodeId);

    /// Protocol messages the transit-loss hook dropped so far.
    fn injected_drops(&self) -> u64;

    /// Protocol frames written to a socket so far; zero on a fabric
    /// without sockets.
    fn sent_frames(&self) -> u64 {
        0
    }
}

/// The transit-loss hook both fabrics send through: the same fault
/// model as the discrete-event simulator ([`FaultyNetwork`]), honoring
/// the loss probability only. Latency would need timers the live
/// fabrics do not have, and no live code path installs a partition
/// mask — scripted `ScenarioEvent::Partition` windows are the
/// discrete-event simulator's domain and a documented no-op here.
///
/// A dropped message vanishes silently: the sender still reports
/// success when the destination is alive, because loss in flight is not
/// observable — only a dead peer is.
pub struct TransitLoss {
    /// Installed only when the profile can drop something, so a
    /// lossless deployment's send path takes no lock. The mutex keeps
    /// the model's one entropy stream from interleaving racily across
    /// the sending threads.
    model: Option<Mutex<FaultyNetwork>>,
    dropped: AtomicU64,
}

impl TransitLoss {
    /// The hook for `link`, its loss draws seeded off the deployment
    /// seed (decoupled from the node rngs by a fixed tag).
    pub fn new(link: LinkProfile, seed: u64) -> Self {
        Self {
            model: (link.loss > 0.0)
                .then(|| Mutex::new(FaultyNetwork::new(link, seed ^ 0x6c6f_7373))),
            dropped: AtomicU64::new(0),
        }
    }

    /// Draws the fate of one protocol message; `true` means it is lost
    /// in transit (and counted).
    pub fn drops(&self, from: NodeId, to: NodeId, channel: Channel) -> bool {
        let dropped = self
            .model
            .as_ref()
            .is_some_and(|model| matches!(model.lock().route(from, to, channel, 0), Fate::Drop));
        if dropped {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        dropped
    }

    /// Protocol messages dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The in-process fabric: sends become mailbox messages through the
/// shared [`Registry`].
pub struct RegistryFabric<P> {
    id: NodeId,
    registry: Arc<Registry<P>>,
}

impl<P> RegistryFabric<P> {
    /// A fabric view for node `id` over the shared registry.
    pub fn new(id: NodeId, registry: Arc<Registry<P>>) -> Self {
        Self { id, registry }
    }
}

impl<P: Clone + Send> NodeFabric<P> for RegistryFabric<P> {
    fn send(&mut self, to: NodeId, wire: Wire<P>) -> bool {
        if self.registry.loss().drops(self.id, to, wire.channel()) {
            return self.registry.contains(to);
        }
        self.registry.send(
            to,
            Message::Protocol {
                from: self.id,
                wire,
            },
        )
    }

    fn contains(&mut self, id: NodeId) -> bool {
        self.registry.contains(id)
    }
}

impl<P: Clone + Send + Sync + 'static> ClusterFabric<P> for Registry<P> {
    type Config = RuntimeConfig;

    fn runtime(config: &RuntimeConfig) -> RuntimeConfig {
        *config
    }

    fn build(config: &RuntimeConfig) -> Self {
        config.validate();
        Registry::with_loss(TransitLoss::new(config.link, config.seed))
    }

    fn attach(
        fabric: &Arc<Self>,
        id: NodeId,
        mailbox: Sender<Message<P>>,
    ) -> (Box<dyn NodeFabric<P>>, Option<JoinHandle<()>>) {
        fabric.register(id, mailbox);
        (Box::new(RegistryFabric::new(id, Arc::clone(fabric))), None)
    }

    fn detach(&self, id: NodeId) {
        self.deregister(id);
    }

    fn injected_drops(&self) -> u64 {
        self.loss().dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    #[test]
    fn registry_fabric_wraps_sends_with_the_sender_id() {
        let registry: Arc<Registry<f64>> = Arc::new(Registry::default());
        let (tx, rx) = unbounded();
        registry.register(NodeId::new(2), tx);
        let mut fabric = RegistryFabric::new(NodeId::new(1), Arc::clone(&registry));
        assert!(fabric.contains(NodeId::new(2)));
        assert!(!fabric.contains(NodeId::new(9)));
        assert!(fabric.send(NodeId::new(2), Wire::Heartbeat));
        match rx.recv().unwrap() {
            Message::Protocol { from, wire } => {
                assert_eq!(from, NodeId::new(1));
                assert_eq!(wire, Wire::Heartbeat);
            }
            other => panic!("expected a protocol message, got {other:?}"),
        }
        assert!(!fabric.send(NodeId::new(9), Wire::Heartbeat));
    }

    #[test]
    fn lossless_hook_never_drops() {
        let loss = TransitLoss::new(LinkProfile::ideal(), 0);
        assert!(!loss.drops(NodeId::new(0), NodeId::new(1), Channel::Heartbeat));
        assert_eq!(loss.dropped(), 0);
    }

    #[test]
    fn injected_loss_is_silent_but_counted() {
        let registry: Arc<Registry<f64>> = Arc::new(Registry::with_loss(TransitLoss::new(
            LinkProfile {
                loss: 1.0,
                ..LinkProfile::ideal()
            },
            0,
        )));
        let (tx, rx) = unbounded();
        registry.register(NodeId::new(1), tx);
        let mut fabric = RegistryFabric::new(NodeId::new(0), Arc::clone(&registry));
        assert!(
            fabric.send(NodeId::new(1), Wire::Heartbeat),
            "transit loss must be invisible to the sender (the mailbox exists)"
        );
        assert_eq!(registry.injected_drops(), 1);
        assert!(rx.try_recv().is_err(), "the message must not arrive");
        // Crash-stop reporting stays exact: a dead mailbox is observable
        // even while the model is dropping everything.
        assert!(!fabric.send(NodeId::new(9), Wire::Heartbeat));
        // Control messages bypass the model entirely.
        assert!(registry.send(NodeId::new(1), Message::Shutdown));
        assert!(matches!(rx.recv().unwrap(), Message::Shutdown));
    }

    #[test]
    fn crash_stop_reporting_is_consistent_under_injected_loss() {
        let registry: Arc<Registry<f64>> = Arc::new(Registry::with_loss(TransitLoss::new(
            LinkProfile {
                loss: 1.0,
                ..LinkProfile::ideal()
            },
            0,
        )));
        let (tx, rx) = unbounded();
        registry.register(NodeId::new(1), tx);
        drop(rx); // crashed without deregistering: still in the book
        let mut fabric = RegistryFabric::new(NodeId::new(0), Arc::clone(&registry));
        // Reachability probes: registered-but-dead is dead.
        assert!(
            !fabric.contains(NodeId::new(1)),
            "a probe must not report a crashed node reachable while sends report it dead"
        );
        // The injected-drop path must report the same verdict as the real
        // send path, not mere registration (which would say `true` and
        // suppress the PeerUnreachable feedback the failure detector
        // relies on).
        assert!(
            !fabric.send(NodeId::new(1), Wire::Heartbeat),
            "a crashed-but-registered node must be reported dead on the drop path too"
        );
        assert_eq!(registry.injected_drops(), 1);
    }
}
