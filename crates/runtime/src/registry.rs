//! Shared address book: node id → mailbox sender.
//!
//! Plays the role of the network fabric for the in-process deployment.
//! Senders are cloned out of the registry per message; sending to a
//! crashed node (receiver dropped or deregistered) silently loses the
//! message, like a TCP connection reset under crash-stop. Transit loss
//! on top of that is the shared [`TransitLoss`] hook, applied by each
//! node's [`crate::RegistryFabric`] before it reaches the registry.

use crate::fabric::TransitLoss;
use crate::message::Message;
use crossbeam::channel::Sender;
use parking_lot::RwLock;
use polystyrene_membership::NodeId;
use polystyrene_protocol::LinkProfile;
use std::collections::HashMap;

/// Thread-safe address book shared by every node of an in-process
/// [`crate::Cluster`].
pub struct Registry<P> {
    inner: RwLock<HashMap<NodeId, Sender<Message<P>>>>,
    loss: TransitLoss,
}

impl<P> Default for Registry<P> {
    /// A lossless, empty registry.
    fn default() -> Self {
        Self::with_loss(TransitLoss::new(LinkProfile::ideal(), 0))
    }
}

impl<P> Registry<P> {
    /// An empty registry whose nodes send through `loss`.
    pub fn with_loss(loss: TransitLoss) -> Self {
        Self {
            inner: RwLock::new(HashMap::new()),
            loss,
        }
    }

    /// The transit-loss hook the registry's nodes send through.
    pub fn loss(&self) -> &TransitLoss {
        &self.loss
    }

    /// Registers a node's mailbox.
    pub fn register(&self, id: NodeId, sender: Sender<Message<P>>) {
        self.inner.write().insert(id, sender);
    }

    /// Removes a node (crash or shutdown). Subsequent sends to it are
    /// dropped.
    pub fn deregister(&self, id: NodeId) {
        self.inner.write().remove(&id);
    }

    /// Sends `message` to `to`; returns `false` if the destination is
    /// unknown or its mailbox is gone (message lost, crash-stop style).
    pub fn send(&self, to: NodeId, message: Message<P>) -> bool {
        let sender = self.inner.read().get(&to).cloned();
        match sender {
            Some(s) => s.send(message).is_ok(),
            None => false,
        }
    }

    /// Whether `id` currently has a registered, *live* mailbox — the
    /// runtime's answer to a protocol reachability probe. A node whose
    /// receiver is gone (crashed without deregistering) is dead to the
    /// send paths, so probes must agree — crash-stop observability
    /// cannot depend on which path asks.
    pub fn contains(&self, id: NodeId) -> bool {
        self.inner
            .read()
            .get(&id)
            .is_some_and(|s| !s.is_disconnected())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    #[test]
    fn register_send_deregister() {
        let registry: Registry<f64> = Registry::default();
        let (tx, rx) = unbounded();
        registry.register(NodeId::new(1), tx);
        assert!(registry.contains(NodeId::new(1)));
        assert!(!registry.contains(NodeId::new(2)));
        assert!(registry.send(NodeId::new(1), Message::Shutdown));
        assert!(matches!(rx.recv().unwrap(), Message::Shutdown));
        registry.deregister(NodeId::new(1));
        assert!(!registry.contains(NodeId::new(1)));
        assert!(!registry.send(NodeId::new(1), Message::Shutdown));
    }

    #[test]
    fn send_to_dropped_receiver_reports_loss() {
        let registry: Registry<f64> = Registry::default();
        let (tx, rx) = unbounded();
        registry.register(NodeId::new(1), tx);
        drop(rx); // the node crashed without deregistering
        assert!(!registry.send(NodeId::new(1), Message::Shutdown));
        assert!(!registry.contains(NodeId::new(1)));
    }
}
