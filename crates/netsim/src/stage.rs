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

use crate::message::Message;
use crate::params::{LinkChannels, NetParams};
use std::cell::RefCell;
use tarr_topo::Cluster;

/// Analytic stage-timing model bound to a cluster and parameter set.
#[derive(Debug, Clone)]
pub struct StageModel<'a> {
    cluster: &'a Cluster,
    params: NetParams,
    /// `params` resolved onto the cluster's link ids.
    channels: LinkChannels,
}

/// Per-thread buffers [`StageModel::stage_time`] reuses across calls and
/// models, so a warmed-up thread prices a stage without allocating.
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
        SCRATCH.with_borrow_mut(|s| self.stage_time_in(msgs, s))
    }

    fn stage_time_in(&self, msgs: &[Message], s: &mut StageScratch) -> f64 {
        let StageScratch {
            ids,
            ends,
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
        ends.clear();
        let links = self.cluster.link_count();
        if load.len() < links {
            load.resize(links, 0);
        }

        for m in msgs {
            let start = ids.len();
            if !m.is_local() {
                self.cluster.route_into(m.src, m.dst, ids);
            }
            for &id in &ids[start..] {
                let l = &mut load[id as usize];
                if *l == 0 {
                    touched.push(id);
                }
                *l += 1;
            }
            ends.push(ids.len() as u32);
        }

        let mut worst = 0.0f64;
        let mut start = 0usize;
        for (m, &end) in msgs.iter().zip(ends.iter()) {
            let path = &ids[start..end as usize];
            start = end as usize;
            let t = if m.is_local() {
                self.params.memcpy.copy_time(m.bytes)
            } else {
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
                alpha + m.bytes as f64 * inv_rate
            };
            if t > worst {
                worst = t;
            }
        }
        worst
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
}
