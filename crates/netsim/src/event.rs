//! Discrete-event fluid-flow simulator.
//!
//! Active flows share every link **max-min fairly** (progressive filling);
//! events fire when a flow's latency phase expires or its transfer drains.
//! Between events all rates are constant, so the simulation is exact for the
//! fluid model.
//!
//! The engine is deliberately policy-free: callers register links as
//! [`LinkIdx`]es, start flows, and pump [`FlowEngine::next_completions`].
//! [`FlowLinks`] registers a cluster's physical channels on first use, keyed
//! by their dense link ids; [`fluid_stage_time`] and the asynchronous
//! schedule executor in `tarr-mpi` (which adds rank-level dependency
//! handling) both build their flows through it.

use crate::message::Message;
use crate::params::{LinkChannels, NetParams};
use tarr_topo::{Cluster, CoreId};

/// Index of a link registered with a [`FlowEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkIdx(pub usize);

/// Identifier of a flow, returned by [`FlowEngine::start_flow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(pub usize);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Pipeline-fill latency before bytes start moving.
    Latency {
        until: f64,
    },
    /// Bytes draining at the current max-min rate.
    Transferring {
        remaining: f64,
        rate: f64,
    },
    Done,
}

#[derive(Debug, Clone)]
struct Flow {
    path: Vec<LinkIdx>,
    bytes: f64,
    phase: Phase,
}

/// The fluid-flow engine.
#[derive(Debug, Default)]
pub struct FlowEngine {
    capacity: Vec<f64>,
    flows: Vec<Flow>,
    now: f64,
    /// Cumulative bytes injected per link (every flow charges its full byte
    /// count to every link on its path) — the congestion signal consumers
    /// like a contention-aware mapper read back via [`FlowEngine::top_links`].
    link_bytes: Vec<f64>,
    events: u64,
}

impl FlowEngine {
    /// An empty engine at time zero.
    pub fn new() -> Self {
        FlowEngine::default()
    }

    /// Current simulation time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Register a link with the given capacity (bytes/second).
    ///
    /// # Panics
    /// Panics if the capacity is not positive.
    pub fn add_link(&mut self, bandwidth_bps: f64) -> LinkIdx {
        assert!(bandwidth_bps > 0.0, "link capacity must be positive");
        self.capacity.push(bandwidth_bps);
        self.link_bytes.push(0.0);
        LinkIdx(self.capacity.len() - 1)
    }

    /// Start a flow at the current time: it idles for `latency_s`, then
    /// drains `bytes` through `path` at the max-min fair rate.
    ///
    /// # Panics
    /// Panics if `path` is empty (local copies are not flows) or references
    /// an unknown link.
    pub fn start_flow(&mut self, path: Vec<LinkIdx>, bytes: u64, latency_s: f64) -> FlowId {
        assert!(!path.is_empty(), "a flow must traverse at least one link");
        for l in &path {
            assert!(l.0 < self.capacity.len(), "unknown link {l:?}");
        }
        let id = FlowId(self.flows.len());
        for l in &path {
            self.link_bytes[l.0] += bytes as f64;
        }
        self.flows.push(Flow {
            path,
            bytes: bytes as f64,
            phase: Phase::Latency {
                until: self.now + latency_s.max(0.0),
            },
        });
        id
    }

    /// The `k` most heavily loaded links, by cumulative injected bytes,
    /// heaviest first.
    pub fn top_links(&self, k: usize) -> Vec<(LinkIdx, f64)> {
        let mut loads: Vec<(LinkIdx, f64)> = self
            .link_bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0.0)
            .map(|(i, &b)| (LinkIdx(i), b))
            .collect();
        loads.sort_by(|a, b| b.1.total_cmp(&a.1));
        loads.truncate(k);
        loads
    }

    /// Flush engine statistics to the trace recorder: flow/event/link
    /// counters plus one `netsim.link_load` instant per top-4 congested
    /// link. No-op while tracing is disabled.
    pub fn trace_flush(&self) {
        if !tarr_trace::enabled() {
            return;
        }
        tarr_trace::counter_add!("netsim.flows", self.flows.len() as u64);
        tarr_trace::counter_add!("netsim.events", self.events);
        tarr_trace::counter_add!("netsim.links", self.capacity.len() as u64);
        for (rank, (l, bytes)) in self.top_links(4).into_iter().enumerate() {
            tarr_trace::instant("netsim.link_load")
                .arg("rank", rank)
                .arg("link", l.0)
                .arg("bytes", bytes)
                .emit();
        }
    }

    /// Advance to the next flow completion(s); returns the completion time
    /// and the completed flow ids (several if they tie). Returns `None` when
    /// no flows remain.
    pub fn next_completions(&mut self) -> Option<(f64, Vec<FlowId>)> {
        self.events += 1;
        // Rates may be stale if flows were started since the last event.
        self.recompute_rates();
        loop {
            let mut t_next = f64::INFINITY;
            for f in &self.flows {
                match f.phase {
                    Phase::Latency { until } => t_next = t_next.min(until),
                    Phase::Transferring { remaining, rate } => {
                        debug_assert!(rate > 0.0, "transferring flow with zero rate");
                        t_next = t_next.min(self.now + remaining / rate);
                    }
                    Phase::Done => {}
                }
            }
            if !t_next.is_finite() {
                return None;
            }

            let dt = (t_next - self.now).max(0.0);
            self.now = t_next;
            let eps = 1e-12;

            let mut completed = Vec::new();
            for (i, f) in self.flows.iter_mut().enumerate() {
                match &mut f.phase {
                    Phase::Latency { until } => {
                        if *until <= self.now + eps {
                            if f.bytes <= 0.0 {
                                f.phase = Phase::Done;
                                completed.push(FlowId(i));
                            } else {
                                f.phase = Phase::Transferring {
                                    remaining: f.bytes,
                                    rate: 0.0, // fixed by recompute_rates below
                                };
                            }
                        }
                    }
                    Phase::Transferring { remaining, rate } => {
                        *remaining -= *rate * dt;
                        if *remaining <= *rate * eps {
                            f.phase = Phase::Done;
                            completed.push(FlowId(i));
                        }
                    }
                    Phase::Done => {}
                }
            }

            self.recompute_rates();
            if !completed.is_empty() {
                return Some((self.now, completed));
            }
            // Only latency expiries happened — keep stepping.
        }
    }

    /// Recompute max-min fair rates over all transferring flows
    /// (progressive filling).
    fn recompute_rates(&mut self) {
        let nl = self.capacity.len();
        let mut residual = self.capacity.clone();
        let mut users: Vec<u32> = vec![0; nl];
        let mut unfixed: Vec<usize> = Vec::new();
        for (i, f) in self.flows.iter().enumerate() {
            if matches!(f.phase, Phase::Transferring { .. }) {
                unfixed.push(i);
                for l in &f.path {
                    users[l.0] += 1;
                }
            }
        }

        while !unfixed.is_empty() {
            // Bottleneck link: minimal fair share among used links.
            let mut best_link = usize::MAX;
            let mut best_share = f64::INFINITY;
            for (l, &u) in users.iter().enumerate() {
                if u > 0 {
                    let share = residual[l] / u as f64;
                    if share < best_share {
                        best_share = share;
                        best_link = l;
                    }
                }
            }
            debug_assert_ne!(best_link, usize::MAX);

            // Fix every unfixed flow through the bottleneck at that share.
            let mut still = Vec::with_capacity(unfixed.len());
            for &i in &unfixed {
                let through = self.flows[i].path.iter().any(|l| l.0 == best_link);
                if through {
                    if let Phase::Transferring { rate, .. } = &mut self.flows[i].phase {
                        *rate = best_share;
                    }
                    for l in &self.flows[i].path {
                        residual[l.0] = (residual[l.0] - best_share).max(0.0);
                        users[l.0] -= 1;
                    }
                } else {
                    still.push(i);
                }
            }
            debug_assert!(still.len() < unfixed.len(), "progressive filling stuck");
            unfixed = still;
        }
    }
}

/// A cluster's physical channels as [`FlowEngine`] links: each dense link
/// id ([`Cluster::route_into`]) is registered with the engine the first
/// time a path crosses it, so links are numbered in first-seen order and
/// two flows share a link exactly when their paths share a channel.
#[derive(Debug)]
pub struct FlowLinks<'a> {
    cluster: &'a Cluster,
    channels: LinkChannels,
    sw_overhead_s: f64,
    /// Engine link of each link id, once registered.
    link_of: Vec<Option<LinkIdx>>,
    /// Route scratch.
    ids: Vec<u32>,
}

impl<'a> FlowLinks<'a> {
    /// No links registered yet; `params` supplies the channel constants.
    pub fn new(cluster: &'a Cluster, params: &NetParams) -> Self {
        FlowLinks {
            cluster,
            channels: LinkChannels::new(cluster, params),
            sw_overhead_s: params.sw_overhead_s,
            link_of: vec![None; cluster.link_count()],
            ids: Vec::new(),
        }
    }

    /// Engine path of a message from `src` to `dst` and its latency phase
    /// (software overhead plus every hop's latency, summed in path order),
    /// registering links `engine` has not seen yet. A self-send has an
    /// empty path.
    pub fn flow_path(
        &mut self,
        engine: &mut FlowEngine,
        src: CoreId,
        dst: CoreId,
    ) -> (Vec<LinkIdx>, f64) {
        self.ids.clear();
        self.cluster.route_into(src, dst, &mut self.ids);
        let mut alpha = self.sw_overhead_s;
        let mut path = Vec::with_capacity(self.ids.len());
        for &id in &self.ids {
            let ch = self.channels.get(id);
            alpha += ch.latency_s;
            let link =
                *self.link_of[id as usize].get_or_insert_with(|| engine.add_link(ch.bandwidth_bps));
            path.push(link);
        }
        (path, alpha)
    }
}

/// Price one synchronized stage with the fluid model: all messages start at
/// t = 0 and the stage completes when the last flow drains. Local messages
/// are priced as memory copies (they do not contend with flows).
pub fn fluid_stage_time(cluster: &Cluster, params: &NetParams, msgs: &[Message]) -> f64 {
    let mut sim = FlowEngine::new();
    let mut links = FlowLinks::new(cluster, params);
    let mut worst_local = 0.0f64;

    for m in msgs {
        if m.is_local() {
            worst_local = worst_local.max(params.memcpy.copy_time(m.bytes));
            continue;
        }
        let (path, alpha) = links.flow_path(&mut sim, m.src, m.dst);
        sim.start_flow(path, m.bytes, alpha);
    }

    let mut end = 0.0f64;
    while let Some((t, _)) = sim.next_completions() {
        end = t;
    }
    sim.trace_flush();
    end.max(worst_local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::StageModel;
    use tarr_topo::CoreId;

    #[test]
    fn single_flow_time_is_latency_plus_transfer() {
        let mut sim = FlowEngine::new();
        let l = sim.add_link(1e9);
        sim.start_flow(vec![l], 1_000_000, 1e-6);
        let (t, done) = sim.next_completions().unwrap();
        assert_eq!(done.len(), 1);
        // 1e-6 latency + 1e6 bytes / 1e9 B/s = 1.001 ms
        assert!((t - 1.001e-3).abs() < 1e-9, "t = {t}");
        assert!(sim.next_completions().is_none());
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let mut sim = FlowEngine::new();
        let l = sim.add_link(1e9);
        sim.start_flow(vec![l], 1_000_000, 0.0);
        sim.start_flow(vec![l], 1_000_000, 0.0);
        let (t, done) = sim.next_completions().unwrap();
        // Both drain at 0.5 GB/s and tie at 2 ms.
        assert_eq!(done.len(), 2);
        assert!((t - 2.0e-3).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn short_flow_releases_bandwidth_to_long_flow() {
        let mut sim = FlowEngine::new();
        let l = sim.add_link(1e9);
        sim.start_flow(vec![l], 500_000, 0.0); // short
        sim.start_flow(vec![l], 1_500_000, 0.0); // long
        let (t1, d1) = sim.next_completions().unwrap();
        assert_eq!(d1, vec![FlowId(0)]);
        assert!((t1 - 1.0e-3).abs() < 1e-9); // 0.5 MB at 0.5 GB/s
        let (t2, d2) = sim.next_completions().unwrap();
        assert_eq!(d2, vec![FlowId(1)]);
        // Long flow: 0.5 MB in the first ms, remaining 1 MB at full rate.
        assert!((t2 - 2.0e-3).abs() < 1e-9, "t2 = {t2}");
    }

    #[test]
    fn bottleneck_is_max_min_fair() {
        // A uses links 1+2, B uses link 2, C uses link 1; both links 1 GB/s.
        // Max-min: everyone gets 0.5 GB/s.
        let mut sim = FlowEngine::new();
        let l1 = sim.add_link(1e9);
        let l2 = sim.add_link(1e9);
        sim.start_flow(vec![l1, l2], 500_000, 0.0);
        sim.start_flow(vec![l2], 500_000, 0.0);
        sim.start_flow(vec![l1], 500_000, 0.0);
        let (t, done) = sim.next_completions().unwrap();
        assert_eq!(done.len(), 3);
        assert!((t - 1.0e-3).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn unshared_flow_gets_leftover_bandwidth() {
        // A uses links 1+2 with B on link 1 and C on link 2 — A is limited to
        // 0.5 GB/s; B and C each get 0.5 GB/s; nothing is wasted.
        let mut sim = FlowEngine::new();
        let l1 = sim.add_link(1e9);
        let l2 = sim.add_link(2e9);
        sim.start_flow(vec![l1], 1_000_000, 0.0); // shares l1 with next
        sim.start_flow(vec![l1, l2], 1_000_000, 0.0); // bottlenecked on l1
        let (t1, d1) = sim.next_completions().unwrap();
        // Both drain l1 at 0.5 GB/s → tie at 2 ms (l2 has spare capacity).
        assert_eq!(d1.len(), 2);
        assert!((t1 - 2.0e-3).abs() < 1e-9, "t1 = {t1}");
    }

    #[test]
    fn zero_byte_flow_completes_after_latency() {
        let mut sim = FlowEngine::new();
        let l = sim.add_link(1e9);
        sim.start_flow(vec![l], 0, 5e-6);
        let (t, done) = sim.next_completions().unwrap();
        assert_eq!(done, vec![FlowId(0)]);
        assert!((t - 5e-6).abs() < 1e-12);
    }

    #[test]
    fn staggered_starts_are_supported() {
        let mut sim = FlowEngine::new();
        let l = sim.add_link(1e9);
        sim.start_flow(vec![l], 1_000_000, 0.0);
        let (t1, _) = sim.next_completions().unwrap();
        assert!((t1 - 1.0e-3).abs() < 1e-9);
        // Second flow starts at t1, runs alone at full rate.
        sim.start_flow(vec![l], 1_000_000, 0.0);
        let (t2, _) = sim.next_completions().unwrap();
        assert!((t2 - 2.0e-3).abs() < 1e-9, "t2 = {t2}");
    }

    #[test]
    fn fluid_and_analytic_agree_without_contention() {
        let c = Cluster::gpc(2);
        let params = NetParams::default();
        let msgs = [Message::new(CoreId(0), CoreId(8), 1 << 16)];
        let fluid = fluid_stage_time(&c, &params, &msgs);
        let analytic = StageModel::new(&c, params).stage_time(&msgs);
        assert!(
            (fluid - analytic).abs() / analytic < 1e-9,
            "fluid {fluid} analytic {analytic}"
        );
    }

    #[test]
    fn fluid_never_exceeds_analytic_under_contention() {
        // The analytic model charges the whole transfer at the bottleneck
        // share; the fluid model lets flows speed up as others finish, so it
        // is a lower bound (for equal-start stages).
        let c = Cluster::gpc(4);
        let params = NetParams::default();
        let msgs: Vec<Message> = (0..8)
            .map(|i| Message::new(CoreId(i), CoreId(8 + i), (1 + i as u64) << 14))
            .collect();
        let fluid = fluid_stage_time(&c, &params, &msgs);
        let analytic = StageModel::new(&c, params.clone()).stage_time(&msgs);
        assert!(
            fluid <= analytic * (1.0 + 1e-9),
            "fluid {fluid} analytic {analytic}"
        );
        // And they agree within 2× (same contention mechanisms).
        assert!(fluid > analytic / 2.0);
    }

    #[test]
    fn local_messages_do_not_contend() {
        let c = Cluster::gpc(1);
        let params = NetParams::default();
        let msgs = [Message::new(CoreId(0), CoreId(0), 1 << 20)];
        let t = fluid_stage_time(&c, &params, &msgs);
        assert_eq!(t, params.memcpy.copy_time(1 << 20));
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn empty_path_rejected() {
        let mut sim = FlowEngine::new();
        sim.start_flow(vec![], 10, 0.0);
    }
}
