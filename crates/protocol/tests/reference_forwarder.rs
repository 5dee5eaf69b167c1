//! Reference forwarder: the greedy query rule restated one query at a
//! time, independently of the batching code, and checked against what
//! [`ProtocolNode`]s actually do with [`Wire::QueryBatch`]es.
//!
//! Each case builds a random `Euclidean2` population whose T-Man views
//! may name ids that have no node (crashed peers) and may carry stale
//! positions, injects one batch per gateway, and delivers every send
//! FIFO until the population is quiet, dropping sends to absent ids. The
//! reference walks each query by hand: from the gateway, take the strict
//! argmin of the view entries strictly closer to the key than the node
//! itself, and stop when there is none or `hops == ttl`. Every query's
//! path, fate and hop count must match its walk, and every gateway's
//! offered, delivered and pending counts must follow from the walks.
//! Every envelope in flight must carry the queries of one origin, and
//! every reply envelope must go to that origin.
//!
//! A second proptest drives one node through random view, position and
//! query operations and checks that its memoized next hop always equals
//! a fresh scan.

use polystyrene::prelude::PolyState;
use polystyrene_membership::{Descriptor, NodeId};
use polystyrene_protocol::{
    Effect, EffectSink, Event, ProtocolConfig, ProtocolNode, QueryItem, Wire,
};
use polystyrene_space::prelude::*;
use polystyrene_topology::TopologyConstruction;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};

type Pos = [f64; 2];
type Population = BTreeMap<NodeId, ProtocolNode<Euclidean2>>;

/// How one query ended.
#[derive(Clone, Debug, PartialEq)]
enum Fate {
    /// Terminal away from its gateway, answered back to it.
    Replied { by: NodeId, hops: u32 },
    /// Terminal at its own gateway, recorded there without a message.
    AtGateway { hops: u32 },
    /// Forwarded to an id with no node: still pending at its gateway.
    Lost { to: NodeId },
}

fn random_pos(rng: &mut StdRng) -> Pos {
    [rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)]
}

/// `present` nodes with ids `0..present`, each viewing up to eight
/// random ids of `0..present + absent`; half the entries carry a stale
/// position instead of the peer's true one.
fn population(rng: &mut StdRng, present: usize, absent: usize) -> Population {
    let total = present + absent;
    let truth: Vec<Pos> = (0..total).map(|_| random_pos(rng)).collect();
    let mut config = ProtocolConfig::default();
    config.tman.view_cap = 8;
    config.tman.m = 4;
    config.tman.psi = 2;
    (0..present)
        .map(|i| {
            let contacts: Vec<Descriptor<Pos>> = (0..rng.random_range(0..=8))
                .map(|_| {
                    let j = rng.random_range(0..total);
                    let pos = if rng.random_bool(0.5) {
                        truth[j]
                    } else {
                        random_pos(rng)
                    };
                    Descriptor::new(NodeId::new(j as u64), pos)
                })
                .collect();
            let id = NodeId::new(i as u64);
            let node = ProtocolNode::new(
                id,
                Euclidean2,
                config,
                PolyState::empty_at(truth[i]),
                contacts.clone(),
                contacts,
            );
            (id, node)
        })
        .collect()
}

/// The greedy rule by hand: the first view entry at the least distance
/// to `key`, among those strictly closer to it than the node itself.
fn next_hop(node: &ProtocolNode<Euclidean2>, key: &Pos) -> Option<NodeId> {
    let own = Euclidean2.distance(&node.poly.pos, key);
    let mut best: Option<(NodeId, f64)> = None;
    for entry in node.tman.view_entries() {
        let d = Euclidean2.distance(&entry.pos, key);
        if d < own && best.is_none_or(|(_, bd)| d < bd) {
            best = Some((entry.id, d));
        }
    }
    best.map(|(id, _)| id)
}

/// Walks one query from its gateway: the nodes it visits, in order,
/// and how it ends.
fn walk(nodes: &Population, query: &QueryItem<Pos>) -> (Vec<NodeId>, Fate) {
    let mut path = vec![query.origin];
    let mut at = query.origin;
    let mut hops = 0;
    loop {
        match next_hop(&nodes[&at], &query.key) {
            Some(next) if hops < query.ttl => {
                if !nodes.contains_key(&next) {
                    return (path, Fate::Lost { to: next });
                }
                at = next;
                hops += 1;
                path.push(at);
            }
            _ if at == query.origin => return (path, Fate::AtGateway { hops }),
            _ => return (path, Fate::Replied { by: at, hops }),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn batched_forwarding_matches_the_reference_walk(
        seed in 0..u64::MAX,
        present in 1..14usize,
        absent in 0..5usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nodes = population(&mut rng, present, absent);

        // Up to five queries per gateway; a hop budget of 0 terminates
        // at the gateway whatever its view holds.
        let mut batches: Vec<(NodeId, Vec<QueryItem<Pos>>)> = Vec::new();
        let mut qid = 0;
        for &gateway in nodes.keys() {
            if !rng.random_bool(0.7) {
                continue;
            }
            let queries = (0..rng.random_range(1..=5))
                .map(|_| {
                    qid += 1;
                    QueryItem {
                        qid,
                        origin: gateway,
                        key: random_pos(&mut rng),
                        ttl: rng.random_range(0..6),
                        hops: 0,
                    }
                })
                .collect();
            batches.push((gateway, queries));
        }
        let expected: BTreeMap<u64, (NodeId, Vec<NodeId>, Fate)> = batches
            .iter()
            .flat_map(|(_, queries)| queries)
            .map(|q| {
                let (path, fate) = walk(&nodes, q);
                (q.qid, (q.origin, path, fate))
            })
            .collect();

        // Inject, then deliver FIFO until quiet, recording what every
        // query does on the way.
        let mut paths: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
        let mut fates: BTreeMap<u64, Fate> = BTreeMap::new();
        let mut queue: VecDeque<(NodeId, NodeId, Wire<Pos>)> = batches
            .into_iter()
            .map(|(gateway, queries)| (gateway, gateway, Wire::QueryBatch { queries }))
            .collect();
        let mut sink = EffectSink::new();
        while let Some((from, to, wire)) = queue.pop_front() {
            // Every envelope carries the queries of one origin, and a
            // reply envelope goes to exactly that origin: a node keeps one
            // reply buffer per envelope it handles.
            match &wire {
                Wire::QueryBatch { queries } => {
                    let origin = queries.first().map(|q| q.origin);
                    prop_assert!(
                        queries.iter().all(|q| Some(q.origin) == origin),
                        "batch to {:?} mixes origins",
                        to
                    );
                }
                Wire::QueryReplyBatch { replies } => {
                    prop_assert!(!replies.is_empty(), "empty reply batch to {:?}", to);
                    for r in replies {
                        prop_assert_eq!(to, expected[&r.qid].0, "qid {} answered to a non-gateway", r.qid);
                    }
                }
                other => prop_assert!(false, "unexpected wire {:?}", other),
            }
            if !nodes.contains_key(&to) {
                if let Wire::QueryBatch { queries } = &wire {
                    for q in queries {
                        fates.insert(q.qid, Fate::Lost { to });
                    }
                }
                continue;
            }
            match &wire {
                Wire::QueryBatch { queries } => {
                    for q in queries {
                        let path = paths.entry(q.qid).or_default();
                        prop_assert_eq!(path.len(), q.hops as usize, "qid {} hop count", q.qid);
                        path.push(to);
                    }
                }
                Wire::QueryReplyBatch { replies } => {
                    for r in replies {
                        prop_assert_eq!(r.pos, nodes[&from].poly.pos);
                        fates.insert(r.qid, Fate::Replied { by: from, hops: r.hops });
                    }
                }
                _ => unreachable!("rejected above"),
            }
            let node = nodes.get_mut(&to).expect("present");
            node.on_event_into(Event::Message { from, wire }, &mut rng, &mut sink);
            for effect in sink.drain() {
                match effect {
                    Effect::Send { to: next, wire } => queue.push_back((to, next, wire)),
                    Effect::Probe { .. } => prop_assert!(false, "query handling probed"),
                }
            }
        }

        for (qid, (_, path, fate)) in &expected {
            let seen = &paths[qid];
            prop_assert_eq!(seen, path, "qid {} path", qid);
            let hops = seen.len() as u32 - 1;
            let seen_fate = fates.get(qid).cloned().unwrap_or(Fate::AtGateway { hops });
            prop_assert_eq!(&seen_fate, fate, "qid {} fate", qid);
        }
        for (&gateway, node) in nodes.iter_mut() {
            let mine: Vec<&Fate> = expected
                .values()
                .filter(|(origin, _, _)| *origin == gateway)
                .map(|(_, _, fate)| fate)
                .collect();
            let mut want: Vec<(u32, u64)> = mine
                .iter()
                .filter_map(|fate| match fate {
                    Fate::Replied { hops, .. } | Fate::AtGateway { hops } => Some((*hops, 0)),
                    Fate::Lost { .. } => None,
                })
                .collect();
            let lost = mine.len() - want.len();
            let mut samples = Vec::new();
            let totals = node.take_traffic(&mut samples);
            prop_assert_eq!(totals, (mine.len() as u64, want.len() as u64, 0), "gateway {:?}", gateway);
            prop_assert_eq!(node.pending_query_count(), lost, "gateway {:?} pending", gateway);
            samples.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(samples, want, "gateway {:?} samples", gateway);
        }
    }
}

/// Where `node` sends a one-query batch for `key` with one hop of budget
/// left: the next hop it forwards to, or `None` if it answers instead.
fn routed_hop(node: &mut ProtocolNode<Euclidean2>, key: Pos, rng: &mut StdRng) -> Option<NodeId> {
    let gateway = NodeId::new(u64::MAX);
    let queries = vec![QueryItem {
        qid: 1,
        origin: gateway,
        key,
        ttl: 1,
        hops: 0,
    }];
    let mut sink = EffectSink::new();
    let wire = Wire::QueryBatch { queries };
    node.on_event_into(
        Event::Message {
            from: gateway,
            wire,
        },
        rng,
        &mut sink,
    );
    match sink.effects() {
        [Effect::Send {
            to,
            wire: Wire::QueryBatch { .. },
        }] => Some(*to),
        [Effect::Send {
            to,
            wire: Wire::QueryReplyBatch { .. },
        }] if *to == gateway => None,
        other => panic!("unexpected effects {other:?}"),
    }
}

/// A point on a coarse grid half the time, so exact distance ties
/// between entries, and between an entry and the node, are common.
fn tie_prone_pos(rng: &mut StdRng) -> Pos {
    if rng.random_bool(0.5) {
        [rng.random_range(0..5) as f64, rng.random_range(0..5) as f64]
    } else {
        random_pos(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The node's next-hop memo never answers differently from a plain
    /// scan of the view, whatever happens to the view and the node's own
    /// position between queries, and however often keys repeat.
    #[test]
    fn memoized_next_hop_matches_a_fresh_scan(seed in 0..u64::MAX, ops in 1..200usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let id = NodeId::new(0);
        let mut truth: BTreeMap<NodeId, Pos> = (1..24)
            .map(|i| (NodeId::new(i), tie_prone_pos(&mut rng)))
            .collect();
        let mut config = ProtocolConfig::default();
        config.tman.view_cap = 8;
        let mut node = ProtocolNode::new(
            id,
            Euclidean2,
            config,
            PolyState::empty_at(tie_prone_pos(&mut rng)),
            Vec::new(),
            Vec::new(),
        );
        let keys: Vec<Pos> = (0..4).map(|_| tie_prone_pos(&mut rng)).collect();
        let peer = |rng: &mut StdRng| NodeId::new(rng.random_range(1..24));
        for _ in 0..ops {
            match rng.random_range(0..10) {
                0 => {
                    let p = peer(&mut rng);
                    let d = Descriptor::new(p, truth[&p]);
                    node.tman.integrate(id, &node.poly.pos, &[d]);
                }
                1 => {
                    let incoming: Vec<Descriptor<Pos>> = (0..rng.random_range(2..8))
                        .map(|_| {
                            let p = peer(&mut rng);
                            Descriptor::with_age(p, tie_prone_pos(&mut rng), rng.random_range(0..3))
                        })
                        .collect();
                    node.tman.integrate(id, &node.poly.pos, &incoming);
                }
                2 => {
                    let failed = peer(&mut rng);
                    node.tman.purge_failed(&|p| p == failed);
                }
                3 => {
                    let p = peer(&mut rng);
                    truth.insert(p, tie_prone_pos(&mut rng));
                    node.tman.refresh_positions(|p| truth.get(&p));
                }
                4 => node.tman.begin_round(),
                5 => node.poly.pos = tie_prone_pos(&mut rng),
                _ => {
                    let key = if rng.random_bool(0.8) {
                        keys[rng.random_range(0..keys.len())]
                    } else {
                        tie_prone_pos(&mut rng)
                    };
                    let want = next_hop(&node, &key);
                    prop_assert_eq!(routed_hop(&mut node, key, &mut rng), want, "key {:?}", key);
                }
            }
        }
    }
}
