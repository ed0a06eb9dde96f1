//! A 2-D torus composed from `RouterNode`s on credit channels.
//!
//! Wrap-around links give the torus half the mesh's average hop count at
//! equal radix; dimension-order routing plus the routers' bubble rule
//! keep every unidirectional ring deadlock-free. The entire topology is
//! the channel grid, one `RouterNode` per node, and the routing
//! closure below — state equality and tracing come from
//! [`ComposedFabric`], not from this file.

use super::graph::{ComposedFabric, Endpoint, FabricBuilder};
use super::router::{RouterNode, RouterTiming, DIM_LOCAL};
use crate::routed::RoutedConfig;
use crate::Result;

/// In/out port order per router: `+X, -X, +Y, -Y`, then local.
const DIMS: [usize; 4] = [0, 0, 1, 1];

/// Dimension-order route: correct X first (shorter wrap direction, ties
/// break toward `+`), then Y, then eject. Port indices follow [`DIMS`].
fn dor(at: usize, dst: usize, width: usize, height: usize) -> usize {
    let (ax, ay) = (at % width, at / width);
    let (dx, dy) = (dst % width, dst / width);
    if ax != dx {
        let fwd = (dx + width - ax) % width;
        if fwd <= width / 2 {
            0
        } else {
            1
        }
    } else if ay != dy {
        let fwd = (dy + height - ay) % height;
        if fwd <= height / 2 {
            2
        } else {
            3
        }
    } else {
        4
    }
}

/// Builds a `width × height` torus with dimension-order routing from
/// [`RoutedConfig`] timing parameters.
///
/// # Errors
///
/// Returns [`NocError::InvalidTopology`](crate::NocError::InvalidTopology)
/// for shapes smaller than 2×2.
pub fn torus(width: usize, height: usize, cfg: &RoutedConfig) -> Result<ComposedFabric> {
    if width < 2 || height < 2 {
        return Err(crate::NocError::InvalidTopology {
            reason: "torus needs ≥ 2×2".into(),
        });
    }
    let n = width * height;
    let timing = RouterTiming {
        link_bits_per_cycle: cfg.link_bits_per_cycle,
        router_delay: cfg.router_delay,
        input_queue_pkts: cfg.input_queue_pkts,
    };
    let mut b = FabricBuilder::new();
    // One channel per directed link, landing on the receiver's in port:
    // `into[node][d]` carries traffic arriving at `node` on port `d`.
    let into: Vec<Vec<_>> = (0..n)
        .map(|_| {
            (0..4)
                .map(|_| b.channel(cfg.link_latency, cfg.input_queue_pkts))
                .collect()
        })
        .collect();
    let endpoints: Vec<Endpoint> = (0..n)
        .map(|_| Endpoint {
            ingress: b.channel(1, 2),
            egress: b.channel(1, 4),
        })
        .collect();
    for node in 0..n {
        let (x, y) = (node % width, node / width);
        let xp = y * width + (x + 1) % width; // +X neighbor
        let xm = y * width + (x + width - 1) % width; // -X neighbor
        let yp = ((y + 1) % height) * width + x; // +Y neighbor
        let ym = ((y + height - 1) % height) * width + x; // -Y neighbor
                                                          // A flit moving +X leaves toward `xp` and arrives there on the
                                                          // port facing -X traffic's origin — port 0 by convention: the
                                                          // in-port index encodes the direction of travel, not the side.
        let outs = vec![into[xp][0], into[xm][1], into[yp][2], into[ym][3]];
        let ins: Vec<_> = (0..4).map(|d| into[node][d]).collect();
        let mut in_ports = ins;
        in_ports.push(endpoints[node].ingress);
        let mut out_ports = outs;
        out_ports.push(endpoints[node].egress);
        let mut dims = DIMS.to_vec();
        dims.push(DIM_LOCAL);
        let route = move |dst: usize| dor(node, dst, width, height);
        b.add(RouterNode::new(
            node,
            timing,
            in_ports,
            out_ports,
            dims.clone(),
            dims,
            route,
        ));
    }
    b.build(endpoints)
}

/// A 4×4 torus with Table 1 electrical parameters.
pub fn torus_4x4() -> ComposedFabric {
    // flumen-check: allow(no-panic-hot-path) — fixed 4×4 shape, valid by construction
    torus(4, 4, &RoutedConfig::default()).expect("4x4 torus is valid")
}
