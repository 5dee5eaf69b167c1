//! TCP deployment of the Polystyrene stack — the fourth execution
//! substrate: the pinned byte codec (`polystyrene_protocol::codec`),
//! length-framed ([`framing`]), over real loopback sockets
//! ([`fabric::TcpFabric`]).
//!
//! The other three substrates move Rust values — through synchronous
//! calls (cycle engine), a discrete-event queue (netsim), or in-process
//! channels (runtime). This one moves *bytes*: every protocol message is
//! encoded, framed, written to a `TcpStream`, reassembled from partial
//! reads on the far side, and decoded — so framing bugs, decoder
//! fragility against corrupt input, and inconsistent delivery reporting
//! become reachable by tests instead of lying latent until a real
//! deployment.
//!
//! This crate holds only what differs from the in-process fabric: the
//! framing, [`TcpConfig`], and [`TcpFabric`] with its per-node
//! connection cache and accept/reader threads. The deployment itself —
//! node loop, spawn, crash, offer and observe — is
//! `polystyrene-runtime`'s `LiveCluster`, and [`TcpCluster`] is that
//! cluster over this fabric. A scenario script that runs on the
//! in-process cluster runs unchanged here:
//!
//! ```
//! use polystyrene_transport::{TcpCluster, TcpConfig};
//! use polystyrene_space::prelude::*;
//!
//! let mut config = TcpConfig::default();
//! config.runtime.tick = std::time::Duration::from_millis(4);
//! let shape = shapes::torus_grid(3, 3, 1.0);
//! let cluster = TcpCluster::spawn(Torus2::new(3.0, 3.0), shape, config);
//! cluster.await_ticks(3, std::time::Duration::from_secs(10));
//! assert_eq!(cluster.observe().alive_nodes, 9);
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod framing;

pub use fabric::{TcpCluster, TcpConfig, TcpFabric};
pub use framing::{read_frame_into, write_frame_into, FrameStatus};
