//! Protocol-level configuration shared by every driver.

use polystyrene::prelude::PolystyreneConfig;
use polystyrene_topology::TManConfig;

/// Parameters of one node's protocol stack, independent of how it is
/// driven (cycle engine or threaded runtime).
///
/// The tick-denominated fields only matter to asynchronous drivers: a
/// cycle driver resolves every exchange within the round it starts in, so
/// its pending-exchange and heartbeat timeouts never fire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProtocolConfig {
    /// T-Man parameters (view cap 100, m = 20, ψ = 5 in the paper).
    pub tman: TManConfig,
    /// Polystyrene parameters (K, split strategy, projection, …).
    pub poly: PolystyreneConfig,
    /// RPS view capacity.
    pub rps_view_cap: usize,
    /// Descriptors exchanged per RPS shuffle.
    pub rps_shuffle_len: usize,
    /// Ticks without a heartbeat after which a monitored peer is suspected
    /// by the node's built-in detector (asynchronous drivers only;
    /// [`u32::MAX`] disables the detector *and* its per-message liveness
    /// bookkeeping for drivers with an external detector).
    pub heartbeat_timeout_ticks: u32,
    /// Ticks an initiated migration may stay unanswered before the
    /// initiator gives up and unlocks (asynchronous drivers only).
    pub migration_timeout_ticks: u32,
    /// Ticks a gateway waits for a query's answer (an item of a
    /// [`crate::wire::Wire::QueryReplyBatch`]) before writing the query
    /// off as dropped-in-hole. Expiry is lazy
    /// (checked when traffic counters are drained), so the timeout never
    /// touches the protocol phases or their entropy.
    pub query_timeout_ticks: u32,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            tman: TManConfig::default(),
            poly: PolystyreneConfig::default(),
            rps_view_cap: 20,
            rps_shuffle_len: 8,
            heartbeat_timeout_ticks: 4,
            migration_timeout_ticks: 3,
            query_timeout_ticks: 8,
        }
    }
}

impl ProtocolConfig {
    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics if any sub-configuration is invalid or a zero timeout is
    /// given.
    pub fn validate(&self) {
        self.tman.validate();
        self.poly.validate();
        assert!(
            self.heartbeat_timeout_ticks > 0,
            "heartbeat timeout must be at least one tick"
        );
        assert!(
            self.migration_timeout_ticks > 0,
            "migration timeout must be at least one tick"
        );
        assert!(
            self.query_timeout_ticks > 0,
            "query timeout must be at least one tick"
        );
        // rps_view_cap / rps_shuffle_len are validated by PeerSampling::new.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ProtocolConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "migration timeout")]
    fn zero_migration_timeout_rejected() {
        let mut c = ProtocolConfig::default();
        c.migration_timeout_ticks = 0;
        c.validate();
    }
}
