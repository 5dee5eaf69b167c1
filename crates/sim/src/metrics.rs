//! The paper's five evaluation metrics (Sec. IV-A).
//!
//! * **proximity** — mean distance between a node and its `k` closest
//!   topology neighbors (lower is better; T-Man's own metric);
//! * **homogeneity** — mean distance between each *initial* data point and
//!   the nearest node hosting it as a guest (or the nearest node overall
//!   if the point was lost); lower is better;
//! * **reference homogeneity `H`** — the ideal-distribution bound
//!   `H = 1/2 · sqrt(A/|N|)` used to define the **reshaping time**;
//! * **data points per node** — memory overhead (guests + ghosts);
//! * **message cost** — see [`polystyrene_protocol::cost`].

/// All per-round observables the experiment harness records.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoundMetrics {
    /// Simulation round the sample was taken at (after the round ran).
    pub round: u32,
    /// Number of alive nodes.
    pub alive_nodes: usize,
    /// Mean distance to the k closest topology neighbors.
    pub proximity: f64,
    /// Mean distance from each initial data point to its nearest holder.
    pub homogeneity: f64,
    /// Reference homogeneity `H` for the current population.
    pub reference_homogeneity: f64,
    /// Mean stored data points per node (guests + ghosts).
    pub points_per_node: f64,
    /// Message cost per node this round (paper units).
    pub cost_per_node: f64,
    /// T-Man's share of this round's traffic, in `[0, 1]`.
    pub tman_cost_share: f64,
    /// Fraction of the initial data points that still have at least one
    /// alive holder (guest or ghost copy) — Table II's "Reliability".
    pub surviving_points: f64,
}

pub use polystyrene_protocol::observe::reference_homogeneity;

/// Detects the reshaping time from a homogeneity series (Sec. IV-A): the
/// number of rounds after `failure_round` until homogeneity first drops
/// below the reference value, or `None` if it never does.
///
/// Only rounds *strictly after* the failure round are considered: the
/// sample labeled with the failure round was measured before the failure
/// was injected (events fire at the start of the following round), so its
/// healthy pre-failure homogeneity must not count as a recovery.
pub fn reshaping_time(series: &[RoundMetrics], failure_round: u32) -> Option<u32> {
    series
        .iter()
        .filter(|m| m.round > failure_round)
        .find(|m| m.homogeneity < m.reference_homogeneity)
        .map(|m| m.round - failure_round)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_values_match_paper() {
        assert!((reference_homogeneity(3200.0, 3200) - 0.5).abs() < 1e-12);
        let h1600 = reference_homogeneity(3200.0, 1600);
        assert!((h1600 - std::f64::consts::SQRT_2 / 2.0).abs() < 1e-12);
        assert_eq!(reference_homogeneity(3200.0, 0), f64::INFINITY);
    }

    fn m(round: u32, homogeneity: f64, h: f64) -> RoundMetrics {
        RoundMetrics {
            round,
            homogeneity,
            reference_homogeneity: h,
            ..Default::default()
        }
    }

    #[test]
    fn reshaping_time_first_crossing() {
        let series = vec![
            m(19, 0.1, 0.5), // pre-failure, ignored
            m(20, 0.1, 0.5), // measured just before the failure: ignored
            m(21, 2.0, 0.71),
            m(22, 0.6, 0.71), // first crossing, 2 rounds after failure
            m(23, 0.5, 0.71),
        ];
        assert_eq!(reshaping_time(&series, 20), Some(2));
    }

    #[test]
    fn reshaping_time_none_when_never_recovers() {
        let series = vec![m(20, 0.1, 0.5), m(21, 5.0, 0.71), m(22, 5.0, 0.71)];
        assert_eq!(reshaping_time(&series, 20), None);
    }

    #[test]
    fn reshaping_time_ignores_the_failure_round_sample() {
        // Round 20's sample predates the crash; even though it is below
        // the reference it must not count.
        let series = vec![m(20, 0.1, 0.71), m(21, 0.2, 0.71)];
        assert_eq!(reshaping_time(&series, 20), Some(1));
    }
}
