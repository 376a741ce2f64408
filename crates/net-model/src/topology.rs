//! Network topology: flat single-switch (the paper's testbed) and
//! hierarchical fat-tree (the petaflops-class target scale).
//!
//! A topology compiles, for a given node count and edge-link capacity,
//! into a [`LinkTable`]: a flat array of directed link capacities plus
//! the routing needed to enumerate the links on any flow's path. The
//! link numbering is chosen so the flat case degenerates *exactly* to
//! the historical per-node up/down solver:
//!
//! * link `2·v`   — node `v`'s uplink (host → leaf switch);
//! * link `2·v+1` — node `v`'s downlink (leaf switch → host);
//! * trunk links (switch → parent uplink, parent → switch downlink)
//!   are numbered from `2·nodes` upward, one pair per non-root switch,
//!   level by level.
//!
//! A linear scan over link ids `0..2·nodes` therefore visits capacities
//! in the same order as the historical `for node { uplink; downlink }`
//! loop, which keeps the generalized solver bit-identical to the flat
//! one when no trunks exist (single switch: `radix >= nodes`, or
//! [`Topology::Flat`]).
//!
//! Trunk capacities encode oversubscription: the trunk above a switch
//! spanning `h` hosts at level `l` carries `edge_capacity · h / oversub^l`
//! in each direction. With `oversub = 1` the fabric is non-blocking.

/// Shape of the interconnect fabric.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Topology {
    /// One non-blocking switch; every flow crosses exactly its source
    /// uplink and destination downlink. The paper's Catalyst 2950.
    #[default]
    Flat,
    /// A fat-tree of switches with `radix` downward ports each and an
    /// `oversub : 1` capacity taper per level going up.
    FatTree {
        /// Hosts (or child switches) per switch.
        radix: usize,
        /// Oversubscription ratio per level; `1.0` is non-blocking.
        oversub: f64,
    },
}

impl Topology {
    /// Parse a CLI/engine spec string.
    ///
    /// Accepted forms: `flat`, `fat-tree`,
    /// `fat-tree:radix=16,oversub=2` (either key optional, any order).
    pub fn parse(spec: &str) -> Result<Topology, String> {
        let spec = spec.trim();
        if spec == "flat" {
            return Ok(Topology::Flat);
        }
        let rest = if spec == "fat-tree" {
            ""
        } else if let Some(rest) = spec.strip_prefix("fat-tree:") {
            rest
        } else {
            return Err(format!(
                "unknown topology '{spec}' (expected 'flat' or 'fat-tree[:radix=R,oversub=S]')"
            ));
        };
        let mut radix = 16usize;
        let mut oversub = 1.0f64;
        for part in rest.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("malformed topology option '{part}' (want key=value)"))?;
            match key.trim() {
                "radix" => {
                    radix = value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| format!("bad radix '{value}'"))?;
                    if radix < 2 {
                        return Err("radix must be at least 2".into());
                    }
                }
                "oversub" => {
                    oversub = value
                        .trim()
                        .parse::<f64>()
                        .map_err(|_| format!("bad oversub '{value}'"))?;
                    if !(oversub >= 1.0 && oversub.is_finite()) {
                        return Err("oversub must be a finite ratio >= 1".into());
                    }
                }
                other => return Err(format!("unknown topology option '{other}'")),
            }
        }
        Ok(Topology::FatTree { radix, oversub })
    }

    /// Compile the topology for `nodes` hosts with per-host full-duplex
    /// edge links of `edge_capacity` (any unit).
    pub(crate) fn link_table(&self, nodes: usize, edge_capacity: f64) -> LinkTable {
        assert!(nodes > 0, "topology needs at least one node");
        assert!(
            edge_capacity > 0.0 && edge_capacity.is_finite(),
            "edge capacity must be positive"
        );
        let mut caps = Vec::with_capacity(2 * nodes);
        for _ in 0..nodes {
            caps.push(edge_capacity); // uplink
            caps.push(edge_capacity); // downlink
        }
        let mut levels = Vec::new();
        if let Topology::FatTree { radix, oversub } = *self {
            // Build trunk levels bottom-up until a single (root) switch
            // spans everything; the root itself has no uplink.
            let mut span = radix; // hosts per switch at this level
            let mut taper = oversub;
            while span < nodes {
                let switches = nodes.div_ceil(span);
                let first_link = caps.len() as u32;
                for s in 0..switches {
                    let hosts = span.min(nodes - s * span);
                    let cap = edge_capacity * hosts as f64 / taper;
                    caps.push(cap); // up-trunk
                    caps.push(cap); // down-trunk
                }
                levels.push(Level {
                    first_link,
                    span: span as u32,
                });
                span = match span.checked_mul(radix) {
                    Some(s) => s,
                    None => break,
                };
                taper *= oversub;
            }
        }
        LinkTable {
            nodes,
            caps,
            levels,
        }
    }
}

/// One trunk level of a compiled fat-tree: switches spanning `span`
/// hosts each, with up/down trunk pairs starting at `first_link`.
#[derive(Debug, Clone)]
struct Level {
    first_link: u32,
    span: u32,
}

/// A compiled topology: per-link capacities and flow routing.
#[derive(Debug, Clone)]
pub(crate) struct LinkTable {
    nodes: usize,
    caps: Vec<f64>,
    levels: Vec<Level>,
}

impl LinkTable {
    /// Hosts in the fabric.
    #[cfg(test)]
    pub(crate) fn nodes(&self) -> usize {
        self.nodes
    }

    /// Total directed links (edges then trunks).
    pub(crate) fn num_links(&self) -> usize {
        self.caps.len()
    }

    /// Capacity of link `id`.
    pub(crate) fn capacity(&self, id: usize) -> f64 {
        self.caps[id]
    }

    /// All link capacities, indexed by link id.
    pub(crate) fn capacities(&self) -> &[f64] {
        &self.caps
    }

    /// Node `v`'s uplink id.
    pub(crate) fn uplink(&self, v: usize) -> u32 {
        (2 * v) as u32
    }

    /// Node `v`'s downlink id.
    pub(crate) fn downlink(&self, v: usize) -> u32 {
        (2 * v + 1) as u32
    }

    /// Scale both directions of node `v`'s edge link by `factor` — the
    /// degraded-link fault hook, re-expressed per-link.
    pub(crate) fn scale_edge_capacity(&mut self, v: usize, factor: f64) {
        assert!(v < self.nodes, "node out of range");
        assert!(
            factor > 0.0 && factor <= 1.0,
            "bandwidth factor must be in (0, 1]"
        );
        self.caps[2 * v] *= factor;
        self.caps[2 * v + 1] *= factor;
    }

    /// Append the link ids on `src → dst`'s path to `out`, in order:
    /// source uplink, up-trunks toward the lowest common switch,
    /// down-trunks back toward the destination, destination downlink.
    /// Loopback (`src == dst`) contributes no links.
    pub(crate) fn push_path(&self, src: usize, dst: usize, out: &mut Vec<u32>) {
        assert!(
            src < self.nodes && dst < self.nodes,
            "flow endpoint out of range"
        );
        if src == dst {
            return;
        }
        out.push(self.uplink(src));
        // Climb while the endpoints sit under different switches.
        let mut climb = 0;
        for level in &self.levels {
            let span = level.span as usize;
            if src / span == dst / span {
                break;
            }
            out.push(level.first_link + 2 * (src / span) as u32);
            climb += 1;
        }
        for level in self.levels[..climb].iter().rev() {
            let span = level.span as usize;
            out.push(level.first_link + 2 * (dst / span) as u32 + 1);
        }
        out.push(self.downlink(dst));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_specs() {
        assert_eq!(Topology::parse("flat").unwrap(), Topology::Flat);
        assert_eq!(
            Topology::parse("fat-tree:radix=16,oversub=2").unwrap(),
            Topology::FatTree {
                radix: 16,
                oversub: 2.0
            }
        );
        assert_eq!(
            Topology::parse("fat-tree").unwrap(),
            Topology::FatTree {
                radix: 16,
                oversub: 1.0
            }
        );
        assert_eq!(
            Topology::parse("fat-tree:oversub=1.5").unwrap(),
            Topology::FatTree {
                radix: 16,
                oversub: 1.5
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Topology::parse("torus").is_err());
        assert!(Topology::parse("fat-tree:radix=1").is_err());
        assert!(Topology::parse("fat-tree:oversub=0.5").is_err());
        assert!(Topology::parse("fat-tree:radix=abc").is_err());
        assert!(Topology::parse("fat-tree:color=blue").is_err());
        assert!(Topology::parse("fat-tree:radix").is_err());
    }

    #[test]
    fn flat_table_has_only_edges() {
        let t = Topology::Flat.link_table(4, 100.0);
        assert_eq!(t.num_links(), 8);
        let mut path = Vec::new();
        t.push_path(1, 3, &mut path);
        assert_eq!(path, vec![2, 7]);
    }

    #[test]
    fn wide_fat_tree_degenerates_to_flat() {
        // radix >= nodes: a single leaf switch, no trunks.
        let t = Topology::FatTree {
            radix: 16,
            oversub: 2.0,
        }
        .link_table(8, 100.0);
        assert_eq!(t.num_links(), 16);
    }

    #[test]
    fn two_level_tree_routes_through_trunks() {
        // 8 hosts, radix 2: leaves span 2, then 4, then root spans 8.
        let t = Topology::FatTree {
            radix: 2,
            oversub: 2.0,
        }
        .link_table(8, 100.0);
        // Edges: 16 links. Level 1: 4 switches (span 2) = 8 trunks.
        // Level 2: 2 switches (span 4) = 4 trunks. Root: none.
        assert_eq!(t.num_links(), 16 + 8 + 4);
        // Trunk capacity tapers: span-2 switch carries 2*100/2 = 100,
        // span-4 switch carries 4*100/4 = 100.
        assert_eq!(t.capacity(16), 100.0);
        assert_eq!(t.capacity(24), 100.0);

        let mut path = Vec::new();
        // Same leaf (0,1): edges only.
        t.push_path(0, 1, &mut path);
        assert_eq!(path, vec![0, 3]);
        // Adjacent leaves (0,2): one trunk level each way.
        path.clear();
        t.push_path(0, 2, &mut path);
        assert_eq!(path, vec![0, 16, 16 + 2 + 1, 5]);
        // Across the root (0,7): both trunk levels.
        path.clear();
        t.push_path(0, 7, &mut path);
        assert_eq!(path, vec![0, 16, 24, 24 + 2 + 1, 16 + 6 + 1, 15]);
        // Loopback: no links.
        path.clear();
        t.push_path(5, 5, &mut path);
        assert!(path.is_empty());
    }

    #[test]
    fn partial_subtree_capacity_uses_actual_hosts() {
        // 5 hosts, radix 2: last leaf switch holds a single host.
        let t = Topology::FatTree {
            radix: 2,
            oversub: 1.0,
        }
        .link_table(5, 100.0);
        // Level 1: 3 switches spanning 2,2,1 hosts.
        assert_eq!(t.capacity(10), 200.0);
        assert_eq!(t.capacity(14), 100.0); // the lone-host leaf
    }

    #[test]
    fn degraded_edge_scales_both_directions() {
        let mut t = Topology::Flat.link_table(3, 100.0);
        t.scale_edge_capacity(1, 0.5);
        assert_eq!(t.capacity(2), 50.0);
        assert_eq!(t.capacity(3), 50.0);
        assert_eq!(t.capacity(0), 100.0);
    }
}
