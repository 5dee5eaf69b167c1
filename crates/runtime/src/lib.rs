//! Live message-passing deployment of the Polystyrene stack.
//!
//! The paper's system model is "a set of message-passing nodes that
//! communicate over reliable channels (e.g. TCP)" with "a (possibly
//! imperfect) failure detector" implemented by "a reactive ping mechanism,
//! or heartbeats" (Sec. III-A). The simulator abstracts all of that into
//! synchronous rounds; this crate drives the *same* sans-IO state machine
//! (`polystyrene_protocol::ProtocolNode` — one implementation of RPS,
//! T-Man and the Polystyrene pipeline for every substrate) asynchronously,
//! as one deployment, [`LiveCluster`]:
//!
//! * one OS thread per node, with a crossbeam channel as its mailbox;
//! * a wall-clock tick driving gossip initiation, so rounds are only
//!   loosely synchronized across nodes;
//! * a heartbeat failure detector along the backup relationships (origins
//!   heartbeat their backups and vice versa), with a configurable timeout;
//! * crash injection that kills a node mid-flight, losing whatever was in
//!   its mailbox — exactly the crash-stop model;
//! * gateway traffic offered straight into the nodes' mailboxes, with
//!   bounded admission ([`GatewayTraffic`]).
//!
//! What carries the messages between nodes is a [`ClusterFabric`]. This
//! crate ships the in-process one, the shared [`Registry`] of mailboxes
//! ([`Cluster`] is the deployment over it); `polystyrene-transport` adds
//! framed TCP sockets (`TcpCluster`). Both send through the same
//! transit-loss hook ([`TransitLoss`]), and the node loop, crash
//! contract and observation plane are identical over both.
//!
//! # Example
//!
//! ```
//! use polystyrene_runtime::{Cluster, RuntimeConfig};
//! use polystyrene_space::prelude::*;
//!
//! let mut config = RuntimeConfig::default();
//! config.tick = std::time::Duration::from_millis(4);
//! let shape = shapes::torus_grid(4, 4, 1.0);
//! let cluster = Cluster::spawn(Torus2::new(4.0, 4.0), shape, config);
//! cluster.run_for(std::time::Duration::from_millis(80));
//! let m = cluster.observe();
//! assert_eq!(m.alive_nodes, 16);
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod fabric;
pub mod message;
pub mod node;
pub mod observe;
pub mod registry;
pub mod traffic;

pub use cluster::{Cluster, LiveCluster};
pub use config::RuntimeConfig;
pub use fabric::{ClusterFabric, NodeFabric, RegistryFabric, TransitLoss};
pub use message::Message;
pub use polystyrene_protocol::observe::RoundObservation;
pub use registry::Registry;
pub use traffic::{GatewayTraffic, GATEWAY_INGRESS_BOUND};
