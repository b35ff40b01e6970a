//! 2D-mesh network-on-chip with dimension-ordered (X-Y) routing.
//!
//! Vaults inside a cube communicate through NoC routers on the base logic
//! die (Section II-C); cubes are themselves connected in a memory network
//! (Figure 3(a)). Both levels reuse this mesh model. Following Section V-C,
//! NoC traffic is measured as *packet size × hop distance* because inter-node
//! latency is distance-dependent, unlike the uniform-latency TSVs.

use crate::link::Link;
use crate::Cycle;

/// A 2D mesh of routers with X-Y routing and per-link bandwidth contention.
///
/// Nodes are linear ids in row-major order: node `n` sits at
/// `(n % width, n / width)`.
///
/// # Example
///
/// ```
/// use spacea_sim::noc::MeshNoc;
///
/// let mut noc = MeshNoc::new(4, 4, 3, 16);
/// assert_eq!(noc.hops(0, 15), 6);
/// let done = noc.send(0, 0, 5, 32);
/// assert!(done > 0);
/// assert_eq!(noc.byte_hops(), 32 * 2);
/// ```
#[derive(Debug, Clone)]
pub struct MeshNoc {
    width: usize,
    height: usize,
    /// One link per directed edge: `node * 4 + direction`
    /// (0 = +x, 1 = -x, 2 = +y, 3 = -y).
    links: Vec<Link>,
    byte_hops: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    XPlus = 0,
    XMinus = 1,
    YPlus = 2,
    YMinus = 3,
}

impl MeshNoc {
    /// Creates a `width × height` mesh whose links add `hop_latency` cycles
    /// per hop and carry `bytes_per_cycle` each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize, hop_latency: Cycle, bytes_per_cycle: usize) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        let links =
            (0..width * height * 4).map(|_| Link::new(hop_latency, bytes_per_cycle)).collect();
        MeshNoc { width, height, links, byte_hops: 0 }
    }

    /// Accumulated traffic in bytes × hops (the paper's NoC traffic metric).
    pub fn byte_hops(&self) -> u64 {
        self.byte_hops
    }

    fn coords(&self, node: usize) -> (usize, usize) {
        debug_assert!(node < self.width * self.height, "node id out of range");
        (node % self.width, node / self.width)
    }

    /// Manhattan (X-Y route) hop count between two nodes.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if either node id is out of range.
    pub fn hops(&self, src: usize, dst: usize) -> u32 {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        (sx.abs_diff(dx) + sy.abs_diff(dy)) as u32
    }

    fn link_mut(&mut self, node: usize, dir: Dir) -> &mut Link {
        &mut self.links[node * 4 + dir as usize]
    }

    /// Sends a `bytes`-byte packet from `src` to `dst`, starting no earlier
    /// than `earliest`; returns the arrival cycle of the whole packet.
    ///
    /// The packet traverses X first, then Y, occupying each directed link in
    /// turn (store-and-forward at router granularity). A `src == dst` send
    /// completes immediately at `earliest`.
    pub fn send(&mut self, earliest: Cycle, src: usize, dst: usize, bytes: usize) -> Cycle {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut t = earliest;
        let mut x = sx;
        let mut y = sy;
        while x != dx {
            let (dir, nx) = if x < dx { (Dir::XPlus, x + 1) } else { (Dir::XMinus, x - 1) };
            let node = y * self.width + x;
            t = self.link_mut(node, dir).transfer(t, bytes);
            x = nx;
        }
        while y != dy {
            let (dir, ny) = if y < dy { (Dir::YPlus, y + 1) } else { (Dir::YMinus, y - 1) };
            let node = y * self.width + x;
            t = self.link_mut(node, dir).transfer(t, bytes);
            y = ny;
        }
        let hops = self.hops(src, dst) as u64;
        self.byte_hops += bytes as u64 * hops;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_counts() {
        let noc = MeshNoc::new(4, 4, 1, 16);
        assert_eq!(noc.hops(0, 0), 0);
        assert_eq!(noc.hops(0, 3), 3);
        assert_eq!(noc.hops(0, 12), 3);
        assert_eq!(noc.hops(0, 15), 6);
        assert_eq!(noc.hops(5, 6), 1);
    }

    #[test]
    fn local_send_is_free() {
        let mut noc = MeshNoc::new(2, 2, 5, 16);
        assert_eq!(noc.send(42, 1, 1, 64), 42);
        assert_eq!(noc.byte_hops(), 0);
    }

    #[test]
    fn latency_scales_with_distance() {
        let mut noc = MeshNoc::new(4, 1, 2, 16);
        let one_hop = noc.send(0, 0, 1, 16);
        let mut noc2 = MeshNoc::new(4, 1, 2, 16);
        let three_hops = noc2.send(0, 0, 3, 16);
        assert_eq!(one_hop, 2 + 1);
        assert_eq!(three_hops, 3 * (2 + 1));
    }

    #[test]
    fn byte_hops_metric() {
        let mut noc = MeshNoc::new(4, 4, 1, 16);
        noc.send(0, 0, 15, 32);
        assert_eq!(noc.byte_hops(), 32 * 6);
    }

    #[test]
    fn contended_link_queues() {
        let mut noc = MeshNoc::new(2, 1, 1, 8);
        let d1 = noc.send(0, 0, 1, 32); // 4 cycles serialization
        let d2 = noc.send(0, 0, 1, 8);
        assert!(d2 > d1, "second packet must queue behind the first");
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let mut noc = MeshNoc::new(4, 1, 1, 8);
        let d1 = noc.send(0, 0, 1, 64);
        let d2 = noc.send(0, 2, 3, 64);
        assert_eq!(d1, d2, "packets on disjoint links must not interfere");
    }

    #[test]
    fn xy_routing_is_deterministic() {
        let mut a = MeshNoc::new(4, 4, 1, 16);
        let mut b = MeshNoc::new(4, 4, 1, 16);
        for (s, d) in [(0, 15), (3, 12), (5, 10)] {
            assert_eq!(a.send(0, s, d, 16), b.send(0, s, d, 16));
        }
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dim_panics() {
        MeshNoc::new(0, 4, 1, 16);
    }
}
