//! Turns the reps of one run into the named metrics and output checks.

use crate::probe;
use crate::stats::{self, failed_frac, median};
use crate::trace::{self_times, Tracer};
use crate::workload::{Plan, Rep, CALLS};

/// One named, unit-carrying number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the docs.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How it was taken, where a value alone is ambiguous.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// Everything one invocation measured.
pub struct Run {
    /// The inputs.
    pub plan: Plan,
    /// Set-up or timed scripts, in order.
    pub reps: Vec<Rep>,
    /// Wall time of every set-up made in the run.
    pub setup_samples: Vec<f64>,
}

/// The end-to-end metrics `BENCHMARK.json` gates; every workload
/// reports them. `round_ms_p50` and `round_ms_tail` are printed but not
/// gated: on the CPU-bound workloads their run-to-run spread is the
/// widest of the timings.
pub const GATED: [&str; 5] = [
    "setup_s",
    "rounds_per_s",
    "cpu_ms_per_round",
    "peak_rss_mb",
    "cost_per_node",
];

/// The per-layer metrics of a traced run, with their units. Metrics of
/// a layer the workload does not exercise read 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("lab.step_ms_p50", "ms"),
    ("lab.step_ms_tail", "ms"),
    ("lab.offer_ms_p50", "ms"),
    ("lab.drain_ms_p50", "ms"),
    ("lab.observe_ms_p50", "ms"),
    ("lab.kill_ms", "ms"),
    ("lab.inject_ms", "ms"),
    ("workload.next_round_ms_p50", "ms"),
    ("observe.compute_metrics_ms", "ms"),
    ("netsim.sent_messages_per_round", "count"),
    ("netsim.dropped_messages_per_round", "count"),
    ("netsim.in_flight_end", "count"),
    ("netsim.traffic_in_flight_end", "count"),
    ("protocol.hops_mean_before_kill", "hops"),
    ("protocol.hops_mean_after_kill", "hops"),
    ("protocol.queries_dropped", "count"),
    ("protocol.queries_shed", "count"),
    ("protocol.points_per_node_end", "points"),
    ("protocol.parked_points_max", "points"),
    ("runtime.ticks_per_round", "ticks"),
    ("runtime.threads", "count"),
    ("transport.frames_per_round", "count"),
    ("lab.step_allocs_per_round", "count"),
    ("lab.offer_allocs_per_round", "count"),
    ("lab.drain_allocs_per_round", "count"),
    ("lab.observe_allocs_per_round", "count"),
    ("lab.step_alloc_bytes_per_round", "bytes"),
    ("lab.offer_alloc_bytes_per_round", "bytes"),
    ("lab.drain_alloc_bytes_per_round", "bytes"),
    ("lab.observe_alloc_bytes_per_round", "bytes"),
    ("trace.round_self_ms_p50", "ms"),
    ("trace.rounds_per_s", "1/s"),
    ("trace.overhead_rounds_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Queries the live workloads must serve, as a share of those presented.
/// Healthy runs on a 2-vCPU box read 0.86–0.996 (host stalls make
/// queries expire in bursts); the collapse past the live knee reads
/// 0.39–0.50, well below.
pub const LIVE_AVAILABILITY_FLOOR: f64 = 0.75;

impl Run {
    fn rounds(&self) -> usize {
        self.reps.iter().map(Rep::rounds).sum()
    }

    fn wall_s(&self) -> f64 {
        self.reps.iter().map(|r| r.wall_s).sum()
    }

    fn round_ms(&self) -> Vec<f64> {
        self.reps
            .iter()
            .flat_map(|r| r.round_ms.iter().copied())
            .collect()
    }

    /// The script whose deterministic outcome the run reports.
    fn first(&self) -> &Rep {
        &self.reps[0]
    }

    /// Timed rounds per wall second, over every script.
    pub fn rounds_per_s(&self) -> f64 {
        self.rounds() as f64 / self.wall_s()
    }

    /// Every end-to-end metric that applies to the workload.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let first = self.first();
        let mut out = vec![
            metric(
                "setup_s",
                median(&self.setup_samples).expect("a run sets up at least once"),
                "s",
            ),
            metric("rounds_per_s", self.rounds_per_s(), "1/s"),
        ];
        let round_ms = self.round_ms();
        let (q1, q3) = stats::quartiles(&round_ms).unwrap_or((f64::NAN, f64::NAN));
        out.push(Metric {
            note: format!("quartiles {q1:.3}–{q3:.3}"),
            ..metric(
                "round_ms_p50",
                median(&round_ms).expect("a run times at least one round"),
                "ms",
            )
        });
        let tail = stats::tail(&round_ms).expect("a run times at least one round");
        out.push(Metric {
            note: format!("p{} of {} rounds", tail.percentile, tail.samples),
            ..metric("round_ms_tail", tail.value, "ms")
        });
        let cpu_s: f64 = self.reps.iter().map(|r| r.cpu_s).sum();
        out.push(metric(
            "cpu_ms_per_round",
            cpu_s * 1e3 / self.rounds() as f64,
            "ms",
        ));
        out.push(metric(
            "peak_rss_mb",
            probe::peak_rss_mb().unwrap_or(0.0),
            "MB",
        ));
        if first.kill_round.is_some() {
            out.push(metric(
                "reshape_rounds",
                first.reshape_rounds.map_or(0.0, f64::from),
                "rounds",
            ));
            let reshape: Vec<f64> = self.reps.iter().filter_map(|r| r.reshape_s).collect();
            out.push(metric("reshape_s", median(&reshape).unwrap_or(0.0), "s"));
        }
        out.push(metric(
            "surviving_points",
            first
                .observations
                .last()
                .map_or(0.0, |o| o.surviving_points),
            "fraction",
        ));
        let costs: Vec<f64> = self.reps.iter().map(Rep::cost_per_node).collect();
        out.push(metric(
            "cost_per_node",
            costs.iter().sum::<f64>() / costs.len() as f64,
            "units/node/round",
        ));
        let total = first.traffic_total();
        if self.plan.rate > 0 {
            out.push(metric(
                "query_availability",
                total.availability(),
                "fraction",
            ));
            let delivered: u64 = self
                .reps
                .iter()
                .flat_map(|r| r.traffic.iter().map(|t| t.delivered))
                .sum();
            out.push(metric(
                "queries_per_s",
                delivered as f64 / self.wall_s(),
                "1/s",
            ));
            out.push(metric(
                "query_hops_mean",
                first.hops_mean(0..first.traffic.len()),
                "hops",
            ));
            let served = || {
                self.reps
                    .iter()
                    .flat_map(|r| r.traffic.iter())
                    .filter(|t| t.delivered > 0)
            };
            let p50: Vec<f64> = served().map(|t| t.latency_p50).collect();
            let p99: Vec<f64> = served().map(|t| t.latency_p99).collect();
            out.push(Metric {
                note: "median over rounds of the round's p50".into(),
                ..metric(
                    "query_latency_p50_ticks",
                    median(&p50).unwrap_or(0.0),
                    "ticks",
                )
            });
            out.push(Metric {
                note: "median over rounds of the round's p99".into(),
                ..metric(
                    "query_latency_p99_ticks",
                    median(&p99).unwrap_or(0.0),
                    "ticks",
                )
            });
            out.push(Metric {
                note: format!(
                    "({} dropped + {} shed) / ({} offered + {} shed)",
                    total.dropped, total.shed, total.offered, total.shed
                ),
                ..metric(
                    "failed_frac",
                    failed_frac(total.offered, total.dropped, total.shed),
                    "fraction",
                )
            });
        } else {
            let lost = 1.0
                - first
                    .observations
                    .last()
                    .map_or(1.0, |o| o.surviving_points);
            out.push(Metric {
                note: "founding points lost".into(),
                ..metric("failed_frac", lost, "fraction")
            });
        }
        out
    }

    /// Every per-layer metric, from the traced run's spans and the
    /// substrates' public counters. `untraced_rounds_per_s` is the
    /// untraced run's figure, if known, for the tracing overhead.
    pub fn per_layer(&self, tracer: &Tracer, untraced_rounds_per_s: Option<f64>) -> Vec<Metric> {
        let first = self.first();
        let last = self.reps.last().expect("a run has a script");
        let rounds = self.rounds() as f64;
        let p50 = |name: &str| median(&tracer.durations_ms(name)).unwrap_or(0.0);
        let selfs = self_times(tracer.spans());
        let self_p50 = |name: &str| {
            let own: Vec<f64> = tracer
                .spans()
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == name)
                .map(|(_, &ns)| ns as f64 / 1e6)
                .collect();
            median(&own).unwrap_or(0.0)
        };
        let sum = |f: &dyn Fn(&Rep) -> f64| self.reps.iter().map(f).sum::<f64>();
        let kill = first.kill_round;
        let total = first.traffic_total();
        let obs = &first.observations;
        let ticks_per_round = match (obs.first(), obs.last()) {
            (Some(a), Some(b)) if obs.len() > 1 => {
                (b.ticks - a.ticks) as f64 / (obs.len() - 1) as f64
            }
            _ => 0.0,
        };
        let traced_rps = self.rounds_per_s();
        let (overhead, overhead_pct) = match untraced_rounds_per_s {
            Some(untraced) => (
                traced_rps - untraced,
                (untraced - traced_rps) / untraced * 100.0,
            ),
            None => (0.0, 0.0),
        };
        let mut values: Vec<f64> = vec![
            p50("lab.step"),
            stats::tail(&tracer.durations_ms("lab.step")).map_or(0.0, |t| t.value),
            p50("lab.offer"),
            p50("lab.drain"),
            p50("lab.observe"),
            p50("lab.kill"),
            p50("lab.inject"),
            p50("workload.next_round"),
            p50("observe.compute_metrics"),
            sum(&|r| r.messages.0 as f64) / rounds,
            sum(&|r| r.messages.1 as f64) / rounds,
            last.in_flight_end.0 as f64,
            last.in_flight_end.1 as f64,
            first.hops_mean(0..kill.unwrap_or(first.traffic.len())),
            kill.map_or(0.0, |k| first.hops_mean(k..first.traffic.len())),
            total.dropped as f64,
            total.shed as f64,
            obs.last().map_or(0.0, |o| o.points_per_node),
            obs.iter().map(|o| o.parked_points).max().unwrap_or(0) as f64,
            ticks_per_round,
            last.threads as f64,
            sum(&|r| r.frames as f64) / rounds,
        ];
        for i in 0..CALLS.len() {
            values.push(sum(&|r| r.allocs[i].allocs as f64) / rounds);
        }
        for i in 0..CALLS.len() {
            values.push(sum(&|r| r.allocs[i].bytes as f64) / rounds);
        }
        values.extend([self_p50("round"), traced_rps, overhead, overhead_pct]);
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| metric(name, value, unit))
            .collect()
    }

    /// The output checks, as `(check, passed)`.
    pub fn checks(&self) -> Vec<(String, bool)> {
        let mut out = Vec::new();
        for (i, rep) in self.reps.iter().enumerate() {
            let expected = rep.founding - rep.killed + rep.injected;
            out.push((
                format!(
                    "script {i}: alive population {} = founding {} - killed {} + injected {}",
                    rep.alive_end, rep.founding, rep.killed, rep.injected
                ),
                rep.alive_end == expected,
            ));
            if !self.plan.workload.is_live() {
                out.push((
                    format!("script {i}: every round's observed population matches"),
                    rep.population_breaks == 0,
                ));
                let total = rep.traffic_total();
                out.push((
                    format!(
                        "script {i}: query accounting closes: offered {} = delivered {} + dropped {}",
                        total.offered, total.delivered, total.dropped
                    ),
                    rep.accounting_closed == Some(true),
                ));
                if rep.kill_round.is_some() {
                    out.push((
                        format!("script {i}: the shape re-forms after the kill"),
                        rep.reshape_rounds.is_some(),
                    ));
                }
            } else {
                let availability = rep.traffic_total().availability();
                out.push((
                    format!(
                        "script {i}: query availability {availability:.4} >= {LIVE_AVAILABILITY_FLOOR}"
                    ),
                    availability >= LIVE_AVAILABILITY_FLOOR,
                ));
            }
        }
        if !self.plan.workload.is_live() {
            let reference = self.first().exact_counts();
            for (i, rep) in self.reps.iter().enumerate().skip(1) {
                for ((name, a), (_, b)) in reference.iter().zip(rep.exact_counts()) {
                    out.push((
                        format!("script {i} repeats script 0 exactly: {name} {b} = {a}"),
                        a.to_bits() == b.to_bits(),
                    ));
                }
            }
        }
        out
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and the chosen metrics.
pub fn result_json(correct: bool, attempted: usize, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level list of `BENCHMARK.json`.
    fn listed_names(json: &str, list: &str) -> Vec<String> {
        let start = json.find(&format!("\"{list}\"")).expect("list present");
        let body = &json[start..];
        let end = body.find(']').expect("list closes");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        assert_eq!(listed_names(&json, "end_to_end"), GATED);
        let layers: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
        assert_eq!(listed_names(&json, "per_layer"), layers);
    }

    #[test]
    fn result_json_has_the_four_keys() {
        let m = metric("setup_s", 0.5, "s");
        assert_eq!(
            result_json(true, 3, 0, &[m]),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
