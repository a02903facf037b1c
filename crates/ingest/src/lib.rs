//! # tarr-ingest — real-topology ingestion
//!
//! Everything upstream of the mapping pipeline works on a [`Cluster`] model.
//! This crate builds that model from what real machines export:
//!
//! * **hwloc XML** (`lstopo --of xml`) → [`tarr_topo::NodeTopology`] via
//!   [`parse_hwloc`], with graceful degradation when a machine does not
//!   report NUMA domains, packages or L2 groups;
//! * **`ibnetdiscover` dumps** → a switch-port graph via [`parse_ibnet`],
//!   classified by [`classify()`] into either the ideal leaf/line/spine
//!   fat-tree (when the wiring matches the model exactly) or a general
//!   [`tarr_topo::IrregularFabric`];
//! * both combined → a [`Cluster`] via [`ingest_cluster`], and a versioned
//!   on-disk [`ClusterSnapshot`] the `topo-ingest` CLI writes and the bench
//!   binaries load with `--cluster`.
//!
//! Synthetic renderers ([`render_hwloc_xml`], [`render_ibnetdiscover`])
//! close the loop for differential testing: a rendered-then-ingested GPC
//! cluster is bit-identical to `Cluster::gpc`, so every mapping heuristic
//! produces the same ranks on ingested and synthetic topologies.
//!
//! All parsing is hand-rolled (no external dependencies) and every failure
//! is a typed [`IngestError`] — malformed input never panics.
//!
//! ```
//! use tarr_ingest::{ingest_cluster, render_hwloc_xml, render_ibnetdiscover};
//! use tarr_topo::Cluster;
//!
//! let gpc = Cluster::gpc(64);
//! let xml = render_hwloc_xml(gpc.node_topology());
//! let ibnet = render_ibnetdiscover(&gpc).unwrap();
//! let ingested = ingest_cluster(&xml, &ibnet).unwrap();
//! assert_eq!(ingested.cluster, gpc);
//! assert!(ingested.warnings.is_empty());
//! ```

pub mod classify;
pub mod error;
pub mod hwloc;
pub mod ibnet;
pub mod render;
pub mod snapshot;
pub mod xml;

pub use classify::{classify, Classification, ClassifiedFabric};
pub use error::IngestError;
pub use hwloc::parse_hwloc;
pub use ibnet::{parse_ibnet, IbGraph, IbHost, IbPeer, IbSwitch};
pub use render::{render_hwloc_xml, render_ibnetdiscover};
pub use snapshot::{ClusterSnapshot, FabricSpec};

use tarr_topo::{Cluster, Fabric, FatTree, IrregularFabric};

/// The result of a full ingestion: the cluster plus everything a human
/// should know about how it was derived.
#[derive(Debug, Clone)]
pub struct Ingested {
    /// The reconstructed cluster.
    pub cluster: Cluster,
    /// Host display names in node order.
    pub node_names: Vec<String>,
    /// Degradation and classification warnings, in discovery order.
    pub warnings: Vec<String>,
}

/// Ingest a full cluster from an hwloc XML document and an `ibnetdiscover`
/// dump.
pub fn ingest_cluster(hwloc_xml: &str, ibnet_dump: &str) -> Result<Ingested, IngestError> {
    let (node, mut warnings) = parse_hwloc(hwloc_xml)?;
    let graph = parse_ibnet(ibnet_dump)?;

    let mut span = tarr_trace::span("ingest.build");
    let cls = classify(&graph)?;
    warnings.extend(cls.warnings.iter().cloned());
    let fabric = match cls.fabric {
        ClassifiedFabric::FatTree(cfg) => Fabric::FatTree(FatTree::new(cfg, cls.num_nodes)),
        ClassifiedFabric::Irregular(cfg) => Fabric::Irregular(IrregularFabric::new(cfg)?),
    };
    let cluster = Cluster::from_parts(node, fabric, cls.num_nodes)?;
    span.record("nodes", cluster.num_nodes());
    span.record("cores", cluster.total_cores());
    drop(span);

    Ok(Ingested {
        cluster,
        node_names: cls.node_names,
        warnings,
    })
}

/// Convenience: ingest and snapshot in one step.
pub fn ingest_snapshot(
    hwloc_xml: &str,
    ibnet_dump: &str,
) -> Result<(ClusterSnapshot, Vec<String>), IngestError> {
    let ingested = ingest_cluster(hwloc_xml, ibnet_dump)?;
    Ok((
        ClusterSnapshot::from_cluster(&ingested.cluster),
        ingested.warnings,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingests_rendered_gpc_cluster_identically() {
        let gpc = Cluster::gpc(64);
        let xml = render_hwloc_xml(gpc.node_topology());
        let ibnet = render_ibnetdiscover(&gpc).unwrap();
        let ingested = ingest_cluster(&xml, &ibnet).unwrap();
        assert_eq!(ingested.cluster, gpc);
        assert!(ingested.warnings.is_empty(), "{:?}", ingested.warnings);
        assert_eq!(ingested.node_names.len(), 64);
    }

    #[test]
    fn emits_the_documented_trace_shape() {
        tarr_trace::reset();
        tarr_trace::set_enabled(true);
        let gpc = Cluster::gpc(30);
        let xml = render_hwloc_xml(gpc.node_topology());
        let ibnet = render_ibnetdiscover(&gpc).unwrap();
        ingest_cluster(&xml, &ibnet).unwrap();
        tarr_trace::set_enabled(false);
        let path = std::env::temp_dir().join("tarr_ingest_trace_shape.jsonl");
        tarr_trace::export_jsonl(&path).unwrap();
        tarr_trace::reset();
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let report = tarr_trace::validate_jsonl(
            &json,
            &tarr_trace::Expectations {
                spans: ["ingest.parse.xml", "ingest.parse.ibnet", "ingest.build"]
                    .map(String::from)
                    .to_vec(),
                counters: ["ingest.xml.elements", "ingest.ibnet.ports"]
                    .map(String::from)
                    .to_vec(),
                instants: ["ingest.classified"].map(String::from).to_vec(),
                ..Default::default()
            },
        );
        assert!(report.is_ok(), "{report:?}");
    }
}
