//! K-structure subgraph selection (Definition 7 of the paper).
//!
//! Once the h-hop structure subgraph has at least `K` structure nodes and a
//! Palette-WL order, the `K` lowest-order structure nodes (the endpoints are
//! always orders 1 and 2) and the structure links among them form the
//! *K-structure subgraph*, whose `K×K` adjacency matrix is uniform across
//! target links. If the whole component holds fewer than `K` structure
//! nodes, the remaining slots stay unoccupied and the matrix is zero-padded
//! (the paper leaves this case unspecified; zero-padding matches WLNM).

use dyngraph::{GraphView, NodeId, Timestamp};

use crate::hop::HopSubgraph;
use crate::structure::StructureSubgraph;

/// The selected top-`K` structure nodes of a target link, indexed by
/// *slot* = Palette-WL order − 1 (slot 0 = endpoint `a`, slot 1 = `b`).
///
/// Links and their timestamp multisets are stored flat — a sorted slot-pair
/// key list with a timestamp CSR — so the encoding stage probes links with
/// a binary search over contiguous memory instead of hashing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KStructureSubgraph {
    k: usize,
    /// `selected[slot]` = structure-subgraph node id, `None` when padded.
    selected: Vec<Option<usize>>,
    /// Slot-pair link keys `(m, n)` with `m < n`, sorted ascending.
    link_keys: Vec<(usize, usize)>,
    /// Timestamp CSR row bounds: link `link_keys[e]` owns
    /// `ts[ts_offsets[e]..ts_offsets[e + 1]]`.
    ts_offsets: Vec<usize>,
    /// Flat timestamps of all underlying links, sorted per link.
    ts: Vec<Timestamp>,
    /// Hop distance to the target link per slot (`u32::MAX` when padded).
    dist: Vec<u32>,
}

impl KStructureSubgraph {
    /// Selects the `K` structure nodes with Palette-WL order ≤ `K` and
    /// gathers the timestamps of the links among them.
    ///
    /// `order[x]` is the 1-based order of structure node `x`, as produced by
    /// [`crate::palette::palette_wl`]; `s` was combined from `hop`, which
    /// was extracted from `g`. Timestamps enter the pipeline only here
    /// (Definition 8 needs them for these links alone): every link of `g`
    /// between members of two selected structure nodes contributes its
    /// timestamp to their slot pair, except the target pair's own history
    /// (slots 0 and 1 hold exactly the endpoints). Each link's timestamps
    /// are sorted ascending — the multiset and order Definition 5 gives
    /// the structure link.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, if `order.len() != s.node_count()`, or if the
    /// endpoints (structure nodes 0 and 1) do not hold orders 1 and 2.
    pub fn select<G: GraphView + ?Sized>(
        g: &G,
        hop: &HopSubgraph,
        s: &StructureSubgraph,
        order: &[usize],
        k: usize,
    ) -> Self {
        assert!(k >= 2, "k must be at least 2 (the two endpoints)");
        assert_eq!(order.len(), s.node_count(), "order length mismatch");
        assert_eq!(order.first(), Some(&1), "endpoint a must have order 1");
        assert_eq!(order.get(1), Some(&2), "endpoint b must have order 2");

        let mut selected = vec![None; k];
        let mut dist = vec![u32::MAX; k];
        // (global id, slot) of every member of a selected structure node,
        // sorted by id for lookup.
        let mut slot_of: Vec<(NodeId, usize)> = Vec::new();
        for (x, &ord) in order.iter().enumerate() {
            if ord <= k {
                selected[ord - 1] = Some(x);
                dist[ord - 1] = s.distance(x);
                slot_of.extend(
                    s.members(x).iter().map(|&i| (hop.global_id(i), ord - 1)),
                );
            }
        }
        slot_of.sort_unstable();
        // Every link among selected members, seen once from its smaller
        // endpoint, as a (slot pair, timestamp) triple.
        let mut triples: Vec<(usize, usize, Timestamp)> = Vec::new();
        for &(u, m) in &slot_of {
            for (v, t) in g.incident_links(u) {
                if u >= v {
                    continue;
                }
                if let Ok(p) = slot_of.binary_search_by_key(&v, |&(w, _)| w) {
                    let key = (m.min(slot_of[p].1), m.max(slot_of[p].1));
                    if key != (0, 1) {
                        triples.push((key.0, key.1, t));
                    }
                }
            }
        }
        triples.sort_unstable();
        let mut link_keys = Vec::new();
        let mut ts_offsets = Vec::new();
        let mut ts = Vec::with_capacity(triples.len());
        for &(m, n, t) in &triples {
            if link_keys.last() != Some(&(m, n)) {
                link_keys.push((m, n));
                ts_offsets.push(ts.len());
            }
            ts.push(t);
        }
        ts_offsets.push(ts.len());
        debug_assert_eq!(
            link_keys,
            {
                let slot = |x: usize| (order[x] <= k).then(|| order[x] - 1);
                let mut want: Vec<(usize, usize)> = s
                    .links()
                    .filter_map(|(x, y)| Some((slot(x)?, slot(y)?)))
                    .map(|(m, n)| (m.min(n), m.max(n)))
                    .collect();
                want.sort_unstable();
                want
            },
            "g must be the view the structure subgraph was extracted from"
        );
        KStructureSubgraph {
            k,
            selected,
            link_keys,
            ts_offsets,
            ts,
            dist,
        }
    }

    /// An all-padding subgraph with `k` unoccupied slots; the fixture the
    /// cache tests use for slot-independent bookkeeping checks.
    #[cfg(test)]
    pub(crate) fn empty(k: usize) -> Self {
        KStructureSubgraph {
            k,
            selected: vec![None; k],
            link_keys: Vec::new(),
            ts_offsets: vec![0],
            ts: Vec::new(),
            dist: vec![u32::MAX; k],
        }
    }

    /// The configured `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of occupied slots (`min(K, |V_S|)`).
    pub fn occupied_count(&self) -> usize {
        self.selected.iter().flatten().count()
    }

    /// `true` if slot `m` holds a structure node (not padding).
    ///
    /// # Panics
    ///
    /// Panics if `m >= k`.
    pub fn is_occupied(&self, m: usize) -> bool {
        self.selected[m].is_some()
    }

    /// The structure-subgraph node id in slot `m`, if occupied.
    ///
    /// # Panics
    ///
    /// Panics if `m >= k`.
    pub fn structure_node(&self, m: usize) -> Option<usize> {
        self.selected[m]
    }

    /// Hop distance of slot `m` to the target link (`u32::MAX` if padded).
    ///
    /// # Panics
    ///
    /// Panics if `m >= k`.
    pub fn slot_distance(&self, m: usize) -> u32 {
        self.dist[m]
    }

    /// `true` if a structure link connects slots `m` and `n`.
    pub fn has_link(&self, m: usize, n: usize) -> bool {
        self.link_keys.binary_search(&(m.min(n), m.max(n))).is_ok()
    }

    /// Timestamps of the structure link between slots `m` and `n`
    /// (empty if absent).
    pub fn timestamps_between(&self, m: usize, n: usize) -> &[Timestamp] {
        match self.link_keys.binary_search(&(m.min(n), m.max(n))) {
            Ok(e) => &self.ts[self.ts_offsets[e]..self.ts_offsets[e + 1]],
            Err(_) => &[],
        }
    }

    /// Iterates existing structure links once as slot pairs `(m, n)` with
    /// `m < n`, in ascending order.
    pub fn links(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.link_keys.iter().copied()
    }
}

/// Test fixtures shared by the hop, structure and K-structure unit tests:
/// the pipeline up to selection at a fixed radius.
#[cfg(test)]
pub(crate) mod testing {
    use dyngraph::{DynamicNetwork, NodeId};

    use super::KStructureSubgraph;
    use crate::hop::HopSubgraph;
    use crate::palette::palette_wl;
    use crate::structure::StructureSubgraph;

    /// Extracts, combines, ranks and selects target `(a, b)` at radius `h`.
    pub(crate) fn pipeline(
        g: &DynamicNetwork,
        a: NodeId,
        b: NodeId,
        h: u32,
        k: usize,
    ) -> (HopSubgraph, StructureSubgraph, KStructureSubgraph) {
        let hop = HopSubgraph::extract(g, a, b, h);
        let s = StructureSubgraph::combine(&hop);
        let adj: Vec<Vec<usize>> = (0..s.node_count())
            .map(|x| s.neighbors(x).to_vec())
            .collect();
        let dist: Vec<u32> =
            (0..s.node_count()).map(|x| s.distance(x)).collect();
        let tiebreak: Vec<u64> = (0..s.node_count())
            .map(|x| s.members(x)[0] as u64)
            .collect();
        let order = palette_wl(&adj, &dist, (0, 1), &tiebreak);
        let ks = KStructureSubgraph::select(g, &hop, &s, &order, k);
        (hop, s, ks)
    }

    /// The slot holding the structure node that global node `n` merged
    /// into.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a member of a selected structure node.
    pub(crate) fn slot_of(
        hop: &HopSubgraph,
        s: &StructureSubgraph,
        ks: &KStructureSubgraph,
        n: NodeId,
    ) -> usize {
        (0..ks.k())
            .find(|&m| {
                ks.structure_node(m).is_some_and(|x| {
                    s.members(x).iter().any(|&i| hop.global_id(i) == n)
                })
            })
            .expect("node is in a selected slot")
    }
}

#[cfg(test)]
mod tests {
    use super::testing::pipeline;
    use dyngraph::DynamicNetwork;

    fn bowtie() -> DynamicNetwork {
        // target (0,1); 0-2, 1-2, 0-3, 3-4, pendants 5,6 on 0.
        [
            (0, 2, 1),
            (1, 2, 2),
            (0, 3, 3),
            (3, 4, 4),
            (0, 5, 5),
            (0, 6, 5),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn endpoints_occupy_first_slots() {
        let g = bowtie();
        let (_, s, ks) = pipeline(&g, 0, 1, 2, 4);
        assert_eq!(ks.structure_node(0), Some(0));
        assert_eq!(ks.structure_node(1), Some(1));
        assert_eq!(s.members(0), &[0]);
        assert_eq!(ks.slot_distance(0), 0);
    }

    #[test]
    fn selection_truncates_to_k() {
        let g = bowtie();
        let (_, s, ks) = pipeline(&g, 0, 1, 2, 3);
        assert!(s.node_count() > 3);
        assert_eq!(ks.k(), 3);
        assert_eq!(ks.occupied_count(), 3);
    }

    #[test]
    fn padding_when_component_small() {
        let g: DynamicNetwork = [(0, 1, 1), (0, 2, 1)].into_iter().collect();
        let (_, _, ks) = pipeline(&g, 0, 1, 3, 6);
        assert_eq!(ks.occupied_count(), 3);
        assert!(!ks.is_occupied(5));
        assert_eq!(ks.slot_distance(5), u32::MAX);
        assert!(!ks.has_link(4, 5));
    }

    #[test]
    fn links_restricted_to_selected() {
        let g = bowtie();
        // k=3 keeps slots for {0},{1} and one distance-1 structure node; the
        // far node 4 and its link 3-4 must not appear.
        let (_, _, ks) = pipeline(&g, 0, 1, 2, 3);
        for (m, n) in ks.links() {
            assert!(m < 3 && n < 3);
        }
    }

    #[test]
    fn links_iterate_sorted() {
        let g = bowtie();
        let (_, _, ks) = pipeline(&g, 0, 1, 2, 5);
        let links: Vec<_> = ks.links().collect();
        assert!(links.windows(2).all(|w| w[0] < w[1]));
        assert!(links.iter().all(|&(m, n)| m < n));
    }

    #[test]
    fn timestamps_carried_over() {
        let g: DynamicNetwork =
            [(0, 2, 3), (0, 2, 7), (1, 2, 5)].into_iter().collect();
        let (_, _, ks) = pipeline(&g, 0, 1, 1, 3);
        assert_eq!(ks.timestamps_between(0, 2), &[3, 7]);
        assert_eq!(ks.timestamps_between(2, 0), &[3, 7]);
        assert_eq!(ks.timestamps_between(1, 2), &[5]);
        assert!(!ks.has_link(0, 1)); // target slot pair has no history here
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn k_less_than_two_rejected() {
        let g = bowtie();
        let _ = pipeline(&g, 0, 1, 1, 1);
    }
}
