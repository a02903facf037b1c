//! Calibrated channel constants.
//!
//! Values are representative of the paper's GPC platform (Intel Xeon E5540
//! nodes, Mellanox ConnectX QDR InfiniBand) and of published microbenchmark
//! numbers for such hardware. The *shape* of the results — who wins and where
//! crossovers fall — depends on the ratios between channels and on
//! contention, not on the absolute constants; all constants are nevertheless
//! configurable.

use crate::memcpy::MemcpyModel;
use serde::{Deserialize, Serialize};
use tarr_topo::{Cluster, Hop, HopKind};

/// Latency/bandwidth pair of one channel class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelParams {
    /// One-way traversal latency contribution, seconds.
    pub latency_s: f64,
    /// Sustained bandwidth, bytes/second.
    pub bandwidth_bps: f64,
}

impl ChannelParams {
    /// Construct from microseconds and GB/s (10⁹ bytes/s), the units
    /// datasheets use.
    pub fn us_gbs(latency_us: f64, bandwidth_gbs: f64) -> Self {
        ChannelParams {
            latency_s: latency_us * 1e-6,
            bandwidth_bps: bandwidth_gbs * 1e9,
        }
    }
}

/// Full parameter set of the network model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetParams {
    /// Per-message software overhead (MPI stack), seconds.
    pub sw_overhead_s: f64,
    /// Intra-socket shared-memory channel.
    pub shm: ChannelParams,
    /// Inter-socket (QPI) link.
    pub qpi: ChannelParams,
    /// Node HCA link (each direction).
    pub hca: ChannelParams,
    /// Leaf↔line fabric link.
    pub leaf_link: ChannelParams,
    /// Line↔spine fabric link.
    pub spine_link: ChannelParams,
    /// One directed torus link (BlueGene-class fabrics).
    pub torus_link: ChannelParams,
    /// One directed switch-to-switch link of an ingested irregular fabric.
    pub switch_link: ChannelParams,
    /// Local memory copies (buffer shuffles, self-sends).
    pub memcpy: MemcpyModel,
    /// Per-link overrides for what-if studies and failure injection: a
    /// specific physical channel (e.g. one node's HCA, one leaf uplink) can
    /// be degraded or upgraded independently of its class. Checked before
    /// the per-kind defaults.
    pub link_overrides: Vec<(Hop, ChannelParams)>,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            // MVAPICH2-era software overhead per message.
            sw_overhead_s: 0.4e-6,
            // Shared L3 / local DRAM: sub-microsecond latency, high bandwidth.
            shm: ChannelParams::us_gbs(0.3, 8.0),
            // QPI: slightly slower, and a shared ~5 GB/s per-direction link.
            qpi: ChannelParams::us_gbs(0.5, 5.0),
            // QDR InfiniBand HCA: ~1.3 µs end-to-end is split between the two
            // HCA hops and the switch hops below.
            hca: ChannelParams::us_gbs(0.55, 3.2),
            // Per-switch-hop store-and-forward latency ~0.1 µs; QDR 4x links.
            leaf_link: ChannelParams::us_gbs(0.1, 3.2),
            spine_link: ChannelParams::us_gbs(0.1, 3.2),
            // BG/P-class torus links: ~0.1 us per hop, ~1.7 GB/s per
            // direction (narrower than IB, but six of them per node).
            torus_link: ChannelParams::us_gbs(0.1, 1.7),
            // Irregular fabrics are ingested IB subnets, so a switch hop
            // costs the same as the ideal fat-tree's switch links.
            switch_link: ChannelParams::us_gbs(0.1, 3.2),
            memcpy: MemcpyModel::default(),
            link_overrides: Vec::new(),
        }
    }
}

impl NetParams {
    /// Degrade (or upgrade) one specific physical link.
    pub fn override_link(&mut self, hop: Hop, params: ChannelParams) {
        self.link_overrides.push((hop, params));
    }

    /// Channel parameters for a hop class.
    #[inline]
    pub fn channel(&self, kind: HopKind) -> ChannelParams {
        match kind {
            HopKind::Shm => self.shm,
            HopKind::Qpi => self.qpi,
            HopKind::HcaUp | HopKind::HcaDown => self.hca,
            HopKind::LeafUp | HopKind::LeafDown => self.leaf_link,
            HopKind::LineUp | HopKind::LineDown => self.spine_link,
            HopKind::TorusLink => self.torus_link,
            HopKind::SwitchLink => self.switch_link,
        }
    }

    /// Sanity-check the parameter set.
    pub fn validate(&self) -> Result<(), String> {
        let chans = [
            self.shm,
            self.qpi,
            self.hca,
            self.leaf_link,
            self.spine_link,
            self.torus_link,
            self.switch_link,
        ];
        for c in chans {
            let bw_ok = c.bandwidth_bps.is_finite() && c.bandwidth_bps > 0.0;
            if c.latency_s.is_nan() || c.latency_s < 0.0 || !bw_ok {
                return Err(format!("invalid channel parameters: {c:?}"));
            }
        }
        if self.sw_overhead_s.is_nan() || self.sw_overhead_s < 0.0 {
            return Err("negative software overhead".into());
        }
        for (h, c) in &self.link_overrides {
            let bw_ok = c.bandwidth_bps.is_finite() && c.bandwidth_bps > 0.0;
            if c.latency_s.is_nan() || c.latency_s < 0.0 || !bw_ok {
                return Err(format!("invalid override for {h:?}: {c:?}"));
            }
        }
        Ok(())
    }
}

/// [`NetParams`] resolved onto one cluster's dense link namespace
/// ([`Cluster::link_ranges`]): the channel constants of any link id, with
/// no per-hop hashing or override scan.
///
/// Built in O(kinds + overrides), independent of the link count: per-kind
/// constants are kept as runs of ids, and `link_overrides` are resolved to
/// ids once. An override naming a link the cluster lacks is dropped (no
/// path can cross it); of several overrides naming one link the first
/// registered wins.
#[derive(Debug, Clone)]
pub(crate) struct LinkChannels {
    /// `(end, channel)` per maximal run of ids with equal class constants,
    /// ascending by `end`.
    runs: Vec<(u32, ChannelParams)>,
    /// Resolved overrides `(id, channel)`, ascending by id.
    overrides: Vec<(u32, ChannelParams)>,
}

impl LinkChannels {
    /// Resolve `params` onto `cluster`'s link ids.
    pub(crate) fn new(cluster: &Cluster, params: &NetParams) -> Self {
        let mut runs: Vec<(u32, ChannelParams)> = Vec::new();
        for (kind, ids) in cluster.link_ranges() {
            let ch = params.channel(kind);
            match runs.last_mut() {
                Some((end, last)) if *last == ch => *end = ids.end,
                _ if ids.is_empty() => {}
                _ => runs.push((ids.end, ch)),
            }
        }
        let mut overrides: Vec<(u32, ChannelParams)> = params
            .link_overrides
            .iter()
            .filter_map(|(h, c)| Some((cluster.link_id(h)?, *c)))
            .collect();
        // Stable: among equal ids the first registration stays first.
        overrides.sort_by_key(|&(id, _)| id);
        overrides.dedup_by_key(|&mut (id, _)| id);
        LinkChannels { runs, overrides }
    }

    /// Channel constants of link `id`.
    #[inline]
    pub(crate) fn get(&self, id: u32) -> ChannelParams {
        if !self.overrides.is_empty() {
            if let Ok(i) = self.overrides.binary_search_by_key(&id, |&(o, _)| o) {
                return self.overrides[i].1;
            }
        }
        for &(end, ch) in &self.runs {
            if id < end {
                return ch;
            }
        }
        panic!("link id {id} outside the cluster's namespace")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_validate() {
        NetParams::default().validate().unwrap();
    }

    #[test]
    fn unit_conversion() {
        let c = ChannelParams::us_gbs(2.0, 3.0);
        assert!((c.latency_s - 2e-6).abs() < 1e-12);
        assert!((c.bandwidth_bps - 3e9).abs() < 1.0);
    }

    #[test]
    fn channel_lookup_covers_all_kinds() {
        let p = NetParams::default();
        for kind in [
            HopKind::Shm,
            HopKind::Qpi,
            HopKind::HcaUp,
            HopKind::HcaDown,
            HopKind::LeafUp,
            HopKind::LeafDown,
            HopKind::LineUp,
            HopKind::LineDown,
        ] {
            assert!(p.channel(kind).bandwidth_bps > 0.0);
        }
    }

    #[test]
    fn intra_node_is_faster_than_network() {
        let p = NetParams::default();
        assert!(p.shm.latency_s < p.hca.latency_s);
        assert!(p.shm.bandwidth_bps > p.hca.bandwidth_bps);
        assert!(p.qpi.latency_s < p.hca.latency_s);
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = NetParams::default();
        p.qpi.bandwidth_bps = 0.0;
        assert!(p.validate().is_err());
    }
}
