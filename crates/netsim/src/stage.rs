//! Analytic per-stage timing model.
//!
//! Collective algorithms are programs of synchronized stages; within a stage
//! all messages fly concurrently and the stage completes when the slowest
//! message lands (the algorithms in this workspace all have per-stage data
//! dependencies, so stage barriers are the faithful abstraction).
//!
//! Per message: `t = overhead + Σₕ α(h) + bytes · maxₕ (n(h) / β(h))` where
//! `n(h)` is the number of stage messages crossing hop `h` — the standard
//! max-congestion extension of the Hockney/LogGP model. The serialization
//! term uses the most contended hop of the path: on a blocking fat-tree this
//! is what produces the 5:1 uplink penalty that the paper's cyclic layouts
//! suffer from.
//!
//! Hops are counted on the cluster's dense link namespace
//! ([`Cluster::link_ranges`]): a path is a run of `u32` link ids, loads live
//! in a reused per-thread vector, and a link's channel constants come from
//! its id range.

use crate::fxhash::FxHashMap;
use crate::memcpy::MemcpyModel;
use crate::message::Message;
use crate::params::{LinkChannels, NetParams};
use std::cell::RefCell;
use tarr_topo::{Cluster, CoreId};

/// Analytic stage-timing model bound to a cluster and parameter set.
#[derive(Debug, Clone)]
pub struct StageModel<'a> {
    cluster: &'a Cluster,
    params: NetParams,
    /// `params` resolved onto the cluster's link ids.
    channels: LinkChannels,
}

/// Per-thread buffers the routing kernel reuses across calls and models, so
/// a warmed-up thread prices a stage without allocating.
#[derive(Default)]
struct StageScratch {
    /// Link ids of every message's path, back to back.
    ids: Vec<u32>,
    /// Per message, the end of its path in `ids`.
    ends: Vec<u32>,
    /// Messages crossing each link id; zero outside `touched`.
    load: Vec<u32>,
    /// Link ids whose `load` is non-zero.
    touched: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<StageScratch> = RefCell::default();
}

impl<'a> StageModel<'a> {
    /// Create a model over `cluster` with the given channel constants. Link
    /// overrides are resolved to link ids here, once; the cost does not
    /// grow with the cluster.
    ///
    /// # Panics
    /// Panics if the parameters are invalid.
    pub fn new(cluster: &'a Cluster, params: NetParams) -> Self {
        params.validate().expect("invalid network parameters");
        let channels = LinkChannels::new(cluster, &params);
        StageModel {
            cluster,
            params,
            channels,
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        self.cluster
    }

    /// The channel constants.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Completion time (seconds) of one synchronized stage of messages.
    ///
    /// Messages with `src == dst` are priced as local copies. An empty stage
    /// costs nothing.
    ///
    /// Contention is counted on the cluster's dense link ids
    /// ([`Cluster::route_into`]) in per-thread buffers that persist across
    /// calls: the load vector is sized to the largest link namespace the
    /// thread has priced and is reset from the list of links the previous
    /// stage touched, so a call allocates only while those buffers grow —
    /// nothing per message, nothing per stage once warm, and no hashing.
    pub fn stage_time(&self, msgs: &[Message]) -> f64 {
        tarr_trace::counter_add!("netsim.stage.calls", 1);
        tarr_trace::counter_add!("netsim.stage.msgs", msgs.len() as u64);
        if msgs.is_empty() {
            return 0.0;
        }
        let ends = |i: usize| (msgs[i].src, msgs[i].dst);
        SCRATCH.with_borrow_mut(|s| {
            self.route_stage(msgs.len(), ends, s, 0.0f64, |worst, i, path| {
                let bytes = msgs[i].bytes;
                let t = match path {
                    None => self.params.memcpy.copy_time(bytes),
                    Some((alpha, inv_rate)) => alpha + bytes as f64 * inv_rate,
                };
                if t > worst {
                    t
                } else {
                    worst
                }
            })
        })
    }

    /// Route one stage of size-free messages once and keep what pricing it
    /// at any unit size needs: a [`StageProfile`]. Its
    /// [`time`](StageProfile::time) at `unit` is bit-identical to
    /// [`stage_time`](Self::stage_time) of the same messages carrying
    /// `blocks · unit + raw` bytes each.
    ///
    /// Routing and contention counting are [`stage_time`](Self::stage_time)'s
    /// own pass. Each remote message then reduces to its latency sum `α` and
    /// its bottleneck seconds per byte `ρ`, and only the Pareto frontier of
    /// `(α, ρ)` per distinct `(blocks, raw)` is kept: a message no slower in
    /// either term than another with the same payload can never be the
    /// stage's slowest at any size.
    ///
    /// The `n` messages are read in place: message `i` runs
    /// `ends(i) = (src, dst)` and carries `payload(i) = (blocks, raw)`.
    pub fn stage_profile(
        &self,
        n: usize,
        ends: impl Fn(usize) -> (CoreId, CoreId),
        payload: impl Fn(usize) -> (u64, u64),
    ) -> StageProfile {
        tarr_trace::counter_add!("netsim.stage.profiles", 1);
        tarr_trace::counter_add!("netsim.stage.msgs", n as u64);
        let mut groups: Vec<ProfileGroup> = Vec::new();
        let mut index: FxHashMap<(u64, u64), usize> = FxHashMap::default();
        let mut local: Vec<(u64, u64)> = Vec::new();
        if n > 0 {
            SCRATCH.with_borrow_mut(|s| {
                self.route_stage(n, ends, s, (), |(), i, path| {
                    let payload = payload(i);
                    let Some((alpha, rho)) = path else {
                        if !local.contains(&payload) {
                            local.push(payload);
                        }
                        return;
                    };
                    let g = match groups.last() {
                        Some(g) if g.payload == payload => groups.len() - 1,
                        _ => *index.entry(payload).or_insert_with(|| {
                            groups.push(ProfileGroup {
                                payload,
                                frontier: Vec::new(),
                            });
                            groups.len() - 1
                        }),
                    };
                    groups[g].insert(alpha, rho);
                });
            });
        }
        StageProfile {
            remote: groups
                .into_iter()
                .flat_map(|g| {
                    let (blocks, raw) = g.payload;
                    g.frontier.into_iter().map(move |(alpha, rho)| RemoteTerm {
                        blocks,
                        raw,
                        alpha,
                        rho,
                    })
                })
                .collect(),
            local,
            memcpy: self.params.memcpy,
        }
    }

    /// The routing kernel every stage pricing shares. Routes the `n`
    /// messages `ends(i) = (src, dst)`, counts per-link loads, then folds
    /// `visit(acc, i, None)` over a local copy (`src == dst`) and
    /// `visit(acc, i, Some((α, ρ)))` over a remote message, in message
    /// order: `α` is the software overhead plus the link latencies summed
    /// in path order, `ρ` the largest load/bandwidth over the path (seconds
    /// per byte on the bottleneck link).
    fn route_stage<T>(
        &self,
        n: usize,
        ends: impl Fn(usize) -> (CoreId, CoreId),
        s: &mut StageScratch,
        init: T,
        mut visit: impl FnMut(T, usize, Option<(f64, f64)>) -> T,
    ) -> T {
        let StageScratch {
            ids,
            ends: path_ends,
            load,
            touched,
        } = s;
        // Clear the previous stage's counts first, so a stage that unwound
        // mid-way cannot leave stale loads behind.
        for &id in touched.iter() {
            load[id as usize] = 0;
        }
        touched.clear();
        ids.clear();
        path_ends.clear();
        let links = self.cluster.link_count();
        if load.len() < links {
            load.resize(links, 0);
        }

        for i in 0..n {
            let (src, dst) = ends(i);
            let start = ids.len();
            if src != dst {
                self.cluster.route_into(src, dst, ids);
            }
            for &id in &ids[start..] {
                let l = &mut load[id as usize];
                if *l == 0 {
                    touched.push(id);
                }
                *l += 1;
            }
            path_ends.push(ids.len() as u32);
        }

        let mut acc = init;
        let mut start = 0usize;
        for (i, &end) in path_ends.iter().enumerate() {
            let path = &ids[start..end as usize];
            start = end as usize;
            // Only a local copy has an empty path.
            if path.is_empty() {
                acc = visit(acc, i, None);
                continue;
            }
            let mut alpha = self.params.sw_overhead_s;
            let mut inv_rate = 0.0f64; // seconds per byte on the bottleneck hop
            for &id in path {
                let ch = self.channels.get(id);
                alpha += ch.latency_s;
                let contended = load[id as usize] as f64 / ch.bandwidth_bps;
                if contended > inv_rate {
                    inv_rate = contended;
                }
            }
            acc = visit(acc, i, Some((alpha, inv_rate)));
        }
        acc
    }

    /// Total time of a sequence of synchronized stages.
    pub fn stages_time<I>(&self, stages: I) -> f64
    where
        I: IntoIterator,
        I::Item: AsRef<[Message]>,
    {
        stages
            .into_iter()
            .map(|s| self.stage_time(s.as_ref()))
            .sum()
    }
}

/// One remote term of a [`StageProfile`]: a message with payload
/// `(blocks, raw)`, latency sum `alpha` and bottleneck seconds per byte
/// `rho`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RemoteTerm {
    blocks: u64,
    raw: u64,
    alpha: f64,
    rho: f64,
}

/// The remote messages of one payload while a profile is built: the
/// `(α, ρ)` pairs no other message of the payload matches or exceeds in
/// both terms.
struct ProfileGroup {
    payload: (u64, u64),
    frontier: Vec<(f64, f64)>,
}

impl ProfileGroup {
    /// Add `(alpha, rho)` unless a kept pair is at least as large in both
    /// terms; drop the kept pairs it is at least as large as in both.
    fn insert(&mut self, alpha: f64, rho: f64) {
        if self.frontier.iter().any(|&(a, r)| a >= alpha && r >= rho) {
            return;
        }
        self.frontier.retain(|&(a, r)| !(alpha >= a && rho >= r));
        self.frontier.push((alpha, rho));
    }
}

/// One stage, routed once, priced at any unit size: its messages in
/// size-free form, each carrying `blocks` units plus `raw` literal bytes,
/// turned into bytes only when the profile is priced.
///
/// Built by [`StageModel::stage_profile`]. [`time`](Self::time) evaluates
/// `α + (blocks · unit + raw) · ρ` for every kept remote term and the copy
/// time of every distinct local payload, and returns the largest: the same
/// floating-point operations [`StageModel::stage_time`] performs per
/// message, over a subset that always contains its maximum. Float rounding
/// is monotone, so a term no larger in `α` and `ρ` than another of the
/// same payload never prices above it.
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Per distinct remote payload, its Pareto frontier of `(α, ρ)`.
    remote: Vec<RemoteTerm>,
    /// The distinct `(blocks, raw)` payloads of local copies.
    local: Vec<(u64, u64)>,
    memcpy: MemcpyModel,
}

impl StageProfile {
    /// Completion time (seconds) of the stage when one unit is `unit`
    /// bytes. An empty stage costs nothing.
    pub fn time(&self, unit: u64) -> f64 {
        let mut worst = 0.0f64;
        for r in &self.remote {
            let t = r.alpha + (r.blocks * unit + r.raw) as f64 * r.rho;
            if t > worst {
                worst = t;
            }
        }
        for &(blocks, raw) in &self.local {
            let t = self.memcpy.copy_time(blocks * unit + raw);
            if t > worst {
                worst = t;
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tarr_topo::CoreId;

    fn model(cluster: &Cluster) -> StageModel<'_> {
        StageModel::new(cluster, NetParams::default())
    }

    #[test]
    fn empty_stage_is_free() {
        let c = Cluster::gpc(2);
        assert_eq!(model(&c).stage_time(&[]), 0.0);
    }

    #[test]
    fn intra_socket_beats_inter_node() {
        let c = Cluster::gpc(2);
        let m = model(&c);
        let local = m.stage_time(&[Message::new(CoreId(0), CoreId(1), 4096)]);
        let remote = m.stage_time(&[Message::new(CoreId(0), CoreId(8), 4096)]);
        assert!(local < remote, "local {local} remote {remote}");
    }

    #[test]
    fn cross_socket_between_intra_and_inter() {
        let c = Cluster::gpc(2);
        let m = model(&c);
        let same_socket = m.stage_time(&[Message::new(CoreId(0), CoreId(1), 65536)]);
        let cross_socket = m.stage_time(&[Message::new(CoreId(0), CoreId(4), 65536)]);
        let inter_node = m.stage_time(&[Message::new(CoreId(0), CoreId(8), 65536)]);
        assert!(same_socket < cross_socket);
        assert!(cross_socket < inter_node);
    }

    #[test]
    fn contention_slows_shared_links() {
        // Two nodes on the same leaf: node 0's HCA-up link is shared when two
        // cores of node 0 send to node 1 simultaneously.
        let c = Cluster::gpc(2);
        let m = model(&c);
        let bytes = 1 << 20;
        let solo = m.stage_time(&[Message::new(CoreId(0), CoreId(8), bytes)]);
        let duo = m.stage_time(&[
            Message::new(CoreId(0), CoreId(8), bytes),
            Message::new(CoreId(1), CoreId(9), bytes),
        ]);
        assert!(duo > 1.5 * solo, "solo {solo} duo {duo}");
    }

    #[test]
    fn disjoint_messages_do_not_interfere() {
        let c = Cluster::gpc(4);
        let m = model(&c);
        let bytes = 1 << 20;
        // node0→node1 and node2→node3 share no channel (same leaf, distinct
        // HCAs).
        let solo = m.stage_time(&[Message::new(CoreId(0), CoreId(8), bytes)]);
        let pair = m.stage_time(&[
            Message::new(CoreId(0), CoreId(8), bytes),
            Message::new(CoreId(16), CoreId(24), bytes),
        ]);
        assert!((pair - solo).abs() < 1e-12);
    }

    #[test]
    fn latency_dominates_small_messages() {
        let c = Cluster::gpc(2);
        let m = model(&c);
        let t1 = m.stage_time(&[Message::new(CoreId(0), CoreId(8), 1)]);
        let t2 = m.stage_time(&[Message::new(CoreId(0), CoreId(8), 64)]);
        // 64× the payload should cost well under 2× at 1-byte scale.
        assert!(t2 < 1.5 * t1);
    }

    #[test]
    fn bandwidth_dominates_large_messages() {
        let c = Cluster::gpc(2);
        let m = model(&c);
        let t1 = m.stage_time(&[Message::new(CoreId(0), CoreId(8), 1 << 20)]);
        let t2 = m.stage_time(&[Message::new(CoreId(0), CoreId(8), 1 << 21)]);
        assert!(t2 > 1.8 * t1 && t2 < 2.2 * t1);
    }

    #[test]
    fn local_message_priced_as_memcpy() {
        let c = Cluster::gpc(1);
        let m = model(&c);
        let t = m.stage_time(&[Message::new(CoreId(0), CoreId(0), 4096)]);
        assert_eq!(t, NetParams::default().memcpy.copy_time(4096));
    }

    #[test]
    fn stages_time_sums() {
        let c = Cluster::gpc(2);
        let m = model(&c);
        let s1 = vec![Message::new(CoreId(0), CoreId(1), 1024)];
        let s2 = vec![Message::new(CoreId(0), CoreId(8), 1024)];
        let total = m.stages_time([&s1[..], &s2[..]]);
        assert!((total - (m.stage_time(&s1) + m.stage_time(&s2))).abs() < 1e-15);
    }

    #[test]
    fn degraded_hca_slows_only_affected_flows() {
        // Failure injection: node 0's HCA drops to a tenth of its bandwidth;
        // flows out of node 0 slow ~10x, flows between other nodes are
        // untouched.
        let c = Cluster::gpc(4);
        let mut params = NetParams::default();
        let healthy = StageModel::new(&c, params.clone());
        let bytes = 1 << 20;
        let affected = [Message::new(CoreId(0), CoreId(8), bytes)];
        let unaffected = [Message::new(CoreId(16), CoreId(24), bytes)];
        let t_ok = healthy.stage_time(&affected);
        let t_other = healthy.stage_time(&unaffected);

        params.override_link(
            tarr_topo::Hop::HcaUp {
                node: tarr_topo::NodeId(0),
            },
            crate::params::ChannelParams::us_gbs(0.55, 0.32),
        );
        let degraded = StageModel::new(&c, params);
        assert!(
            degraded.stage_time(&affected) > 5.0 * t_ok,
            "degraded link must dominate"
        );
        assert!((degraded.stage_time(&unaffected) - t_other).abs() < 1e-15);
    }

    #[test]
    fn invalid_override_rejected() {
        let mut params = NetParams::default();
        params.override_link(
            tarr_topo::Hop::HcaUp {
                node: tarr_topo::NodeId(0),
            },
            crate::params::ChannelParams {
                latency_s: 0.0,
                bandwidth_bps: 0.0,
            },
        );
        assert!(params.validate().is_err());
    }

    #[test]
    fn uplink_blocking_penalizes_many_cross_leaf_flows() {
        // 60 nodes = 2 leaves. All 30 nodes of leaf 0 send to leaf 1:
        // 30 flows share 6 uplinks (5:1), vs 6 flows that fit 1:1.
        let c = Cluster::gpc(60);
        let m = model(&c);
        let bytes = 1 << 20;
        let mk = |n: usize| -> Vec<Message> {
            (0..n)
                .map(|i| {
                    Message::new(
                        c.core_id(tarr_topo::NodeId::from_idx(i), 0),
                        c.core_id(tarr_topo::NodeId::from_idx(30 + i), 0),
                        bytes,
                    )
                })
                .collect()
        };
        let light = m.stage_time(&mk(2));
        let heavy = m.stage_time(&mk(30));
        assert!(heavy > 2.0 * light, "light {light} heavy {heavy}");
    }

    /// A stage message in size-free form: `(src, dst, blocks, raw)`.
    type UnitMsg = (u32, u32, u64, u64);

    /// `stage_profile(..).time(unit)` against `stage_time` of the resolved
    /// messages, bit for bit.
    fn assert_profile_matches(m: &StageModel<'_>, msgs: &[UnitMsg]) {
        let profile = m.stage_profile(
            msgs.len(),
            |i| (CoreId(msgs[i].0), CoreId(msgs[i].1)),
            |i| (msgs[i].2, msgs[i].3),
        );
        for unit in [0u64, 1, 1023, 1024, 65536, 1 << 24] {
            let resolved: Vec<Message> = msgs
                .iter()
                .map(|&(src, dst, blocks, raw)| {
                    Message::new(CoreId(src), CoreId(dst), blocks * unit + raw)
                })
                .collect();
            assert_eq!(
                profile.time(unit).to_bits(),
                m.stage_time(&resolved).to_bits(),
                "unit {unit}"
            );
        }
    }

    #[test]
    fn profile_prices_like_stage_time() {
        let c = Cluster::gpc(60);
        let m = model(&c);
        let p = c.total_cores() as u32;
        assert_profile_matches(&m, &[]);
        // A ring mixing intra-socket, cross-socket, same-leaf and
        // cross-leaf hops, with uneven payloads and local copies.
        let msgs: Vec<UnitMsg> = (0..p)
            .map(|i| match i % 7 {
                0 => (i, i, 2, 0),
                1 => (i, (i + 37) % p, 1, 16),
                _ => (i, (i + 1 + 8 * (i % 5)) % p, 1 + u64::from(i % 3), 0),
            })
            .collect();
        assert_profile_matches(&m, &msgs);
        // Every node of leaf 0 sends to leaf 1: contended uplinks.
        let fan: Vec<UnitMsg> = (0..30).map(|n| (n * 8, (30 + n) * 8, 1, 0)).collect();
        assert_profile_matches(&m, &fan);
    }
}
