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

/// Slot marker of a hop node whose structure node was not selected.
const UNSELECTED: usize = usize::MAX;

/// Reusable buffers for K-selection: the slot and owner key of every hop
/// node, one member's owned partners, and the `(slot, slot, t)` triples.
///
/// Like [`crate::HopScratch`], reuse never changes output: a fresh scratch
/// and a warm one select identical subgraphs.
#[derive(Debug, Clone, Default)]
pub struct SelectScratch {
    /// Slot of each hop node, `UNSELECTED` outside the top `K`.
    slot: Vec<usize>,
    /// `(multi-degree, global id)` of each selected hop node: of two
    /// linked members, the smaller key owns the link.
    owner_key: Vec<(usize, NodeId)>,
    /// `(global id, slot)` of the partners one member owns, sorted by id.
    owned: Vec<(NodeId, usize)>,
    /// `(slot, slot, timestamp)` of every link among selected members.
    triples: Vec<(usize, usize, Timestamp)>,
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
        Self::select_with_scratch(
            g,
            hop,
            s,
            order,
            k,
            &mut SelectScratch::default(),
        )
    }

    /// [`KStructureSubgraph::select`] with caller-provided reusable
    /// buffers; identical output, amortized allocations.
    ///
    /// The hop subgraph's local CSR already says which selected members
    /// are linked, so only those pairs' timestamps are read from `g`, each
    /// from the link's *owner*: the endpoint with the smaller
    /// `(multi-degree, global id)`. A member's incident links are scanned
    /// only if it owns a link, and each is matched against its short owned
    /// list, so a hub is scanned only when it owns a link to a member of
    /// even higher multi-degree.
    ///
    /// # Panics
    ///
    /// Same conditions as [`KStructureSubgraph::select`].
    pub fn select_with_scratch<G: GraphView + ?Sized>(
        g: &G,
        hop: &HopSubgraph,
        s: &StructureSubgraph,
        order: &[usize],
        k: usize,
        scratch: &mut SelectScratch,
    ) -> Self {
        assert!(k >= 2, "k must be at least 2 (the two endpoints)");
        assert_eq!(order.len(), s.node_count(), "order length mismatch");
        assert_eq!(order.first(), Some(&1), "endpoint a must have order 1");
        assert_eq!(order.get(1), Some(&2), "endpoint b must have order 2");
        let SelectScratch {
            slot,
            owner_key,
            owned,
            triples,
        } = scratch;

        let mut selected = vec![None; k];
        let mut dist = vec![u32::MAX; k];
        slot.clear();
        slot.resize(hop.node_count(), UNSELECTED);
        owner_key.resize(hop.node_count(), (0, 0));
        for (x, &ord) in order.iter().enumerate() {
            if ord <= k {
                selected[ord - 1] = Some(x);
                dist[ord - 1] = s.distance(x);
                for &i in s.members(x) {
                    let u = hop.global_id(i);
                    slot[i] = ord - 1;
                    owner_key[i] = (g.multi_degree(u), u);
                }
            }
        }
        // Every link among selected members, read once from its owner's
        // incident links as a (slot pair, timestamp) triple. The hop CSR
        // excludes the target pair, the one pair with slots (0, 1).
        triples.clear();
        for &x in selected.iter().flatten() {
            for &i in s.members(x) {
                owned.clear();
                for &j in hop.neighbors(i) {
                    let j = j as usize;
                    if slot[j] != UNSELECTED && owner_key[i] < owner_key[j] {
                        owned.push((owner_key[j].1, slot[j]));
                    }
                }
                if owned.is_empty() {
                    continue;
                }
                owned.sort_unstable();
                let m = slot[i];
                for (v, t) in g.incident_links(owner_key[i].1) {
                    if let Ok(p) = owned.binary_search_by_key(&v, |&(w, _)| w) {
                        let n = owned[p].1;
                        triples.push((m.min(n), m.max(n), t));
                    }
                }
            }
        }
        triples.sort_unstable();
        let mut link_keys = Vec::new();
        let mut ts_offsets = Vec::new();
        let mut ts = Vec::with_capacity(triples.len());
        for &(m, n, t) in triples.iter() {
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
    use super::testing::{pipeline, slot_of};
    use super::KStructureSubgraph;
    use crate::hop::HopSubgraph;
    use crate::reference;
    use crate::structure::StructureSubgraph;
    use dyngraph::{DynamicNetwork, Timestamp};

    type SlotLinks = Vec<((usize, usize), Vec<Timestamp>)>;

    /// The selected links with their timestamps, as the oracle lists them.
    fn gathered(ks: &KStructureSubgraph) -> SlotLinks {
        ks.links()
            .map(|(m, n)| ((m, n), ks.timestamps_between(m, n).to_vec()))
            .collect()
    }

    /// The per-member incident scan over the same selection.
    fn oracle(
        g: &DynamicNetwork,
        hop: &HopSubgraph,
        s: &StructureSubgraph,
        ks: &KStructureSubgraph,
    ) -> SlotLinks {
        let mut order = vec![ks.k() + 1; s.node_count()];
        for m in 0..ks.k() {
            if let Some(x) = ks.structure_node(m) {
                order[x] = m + 1;
            }
        }
        reference::select_links(g, hop, s, &order, ks.k())
    }

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
    fn equal_multi_degrees_owner_decided_by_id() {
        // Target (0, 1); 2 and 3 both have multi-degree 3, so the smaller
        // id owns their double link. Swapping the labels of 2 and 3 moves
        // the ownership and must not move a timestamp.
        for (p, q) in [(2, 3), (3, 2)] {
            let g: DynamicNetwork =
                [(0, p, 1), (1, q, 2), (p, q, 5), (q, p, 6)]
                    .into_iter()
                    .collect();
            assert_eq!(g.multi_degree(p), g.multi_degree(q));
            let (hop, s, ks) = pipeline(&g, 0, 1, 1, 4);
            assert_eq!(ks.occupied_count(), 4);
            let (sp, sq) =
                (slot_of(&hop, &s, &ks, p), slot_of(&hop, &s, &ks, q));
            assert_eq!(ks.timestamps_between(sp, sq), &[5, 6]);
            assert_eq!(ks.timestamps_between(0, sp), &[1]);
            assert_eq!(ks.timestamps_between(1, sq), &[2]);
            assert_eq!(gathered(&ks), oracle(&g, &hop, &s, &ks));
        }
    }

    #[test]
    fn multi_links_on_a_hub_endpoint() {
        // Hub 0 is endpoint a: a triple link to the common neighbour 2,
        // and a double link to each of eight pendant fans, which merge
        // into one structure node. The hub owns none of these links; each
        // is read from the fan or from 2.
        let mut links = vec![(0, 2, 5), (0, 2, 3), (1, 2, 9), (0, 2, 4)];
        for f in 3..11 {
            links.extend([(0, f, f), (f, 0, 20 + f)]);
        }
        let g: DynamicNetwork = links.into_iter().collect();
        let (hop, s, ks) = pipeline(&g, 0, 1, 1, 4);
        let common = slot_of(&hop, &s, &ks, 2);
        let fans = slot_of(&hop, &s, &ks, 3);
        assert_eq!(ks.timestamps_between(0, common), &[3, 4, 5]);
        assert_eq!(ks.timestamps_between(1, common), &[9]);
        let mut want: Vec<Timestamp> = (3..11).chain(23..31).collect();
        want.sort_unstable();
        assert_eq!(ks.timestamps_between(0, fans), want.as_slice());
        assert_eq!(gathered(&ks), oracle(&g, &hop, &s, &ks));
    }

    #[test]
    fn target_pair_history_stays_excluded() {
        // The endpoints share a double link and have the smallest
        // multi-degrees, so either would own it if it were selectable.
        let g: DynamicNetwork = [
            (0, 1, 1),
            (0, 1, 2),
            (0, 2, 3),
            (1, 2, 4),
            (2, 3, 5),
            (2, 4, 6),
            (2, 5, 7),
        ]
        .into_iter()
        .collect();
        let (hop, s, ks) = pipeline(&g, 0, 1, 2, 4);
        assert!(!ks.has_link(0, 1));
        assert!(ks.timestamps_between(1, 0).is_empty());
        let common = slot_of(&hop, &s, &ks, 2);
        assert_eq!(ks.timestamps_between(0, common), &[3]);
        assert_eq!(gathered(&ks), oracle(&g, &hop, &s, &ks));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn k_less_than_two_rejected() {
        let g = bowtie();
        let _ = pipeline(&g, 0, 1, 1, 1);
    }
}
