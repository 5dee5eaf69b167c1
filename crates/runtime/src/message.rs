//! Mailbox messages of the threaded deployment.
//!
//! The protocol payloads themselves are the transport-agnostic
//! [`Wire`] values of `polystyrene-protocol`; this module merely wraps
//! them with a sender id for the mailbox, plus the harness-level
//! shutdown signal. Channels are reliable and in-order (the TCP stand-in
//! of the paper's system model); a crashed node's mailbox is dropped,
//! losing whatever was in flight — crash-stop semantics.

use polystyrene_membership::NodeId;
use polystyrene_protocol::Wire;

/// Everything that can cross a node's mailbox.
#[derive(Clone, Debug)]
pub enum Message<P> {
    /// A protocol payload from another node.
    Protocol {
        /// The sender.
        from: NodeId,
        /// The sans-IO payload.
        wire: Wire<P>,
    },
    /// Orderly termination (sent by [`crate::LiveCluster`], not the protocol).
    Shutdown,
}
