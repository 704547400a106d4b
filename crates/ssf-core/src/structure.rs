//! Structure combination (Definition 4–6, Algorithm 1 of the paper).
//!
//! Nodes of the h-hop subgraph that have *identical neighbor sets* (twins)
//! play the same topological role and are merged into a single *structure
//! node*. The two endpoints of the target link are always kept as
//! singleton structure nodes (Definition 4).
//!
//! Algorithm 1 repeats the merge until no two structure nodes share a
//! neighbor set. Under strict Γ-equality the first merge already reaches
//! that fixpoint: merging twins leaves a graph with no twins. Take
//! non-endpoint `x`, `y` in different classes and `p ∈ N(x) \ N(y)`. If
//! `N(x)` and `N(y)` mapped to the same set of classes, some `p′ ≠ p` in
//! `N(y)` would share `p`'s class, so `N(p′) = N(p)` (endpoints are
//! singleton classes, so neither is `p`); then `y ∈ N(p′)` gives
//! `p ∈ N(y)`, a contradiction. Graphs reject self-loops, so twins are
//! never adjacent and no structure node links to itself.
//! `crate::reference` keeps the literal repeat loop, and
//! `tests/kernels.rs` pins the equivalence.
//!
//! The kernel is therefore one pass. Non-endpoint hop nodes are keyed by
//! a fixed 64-bit hash of their distinct-neighbor CSR row and sorted by
//! `(hash, id)`; twins hash equal, so every twin class lies inside one run
//! of equal hashes. Only a run longer than one compares rows: it splits by
//! row equality, so a hash collision costs comparisons, never a wrong
//! merge. Each class's adjacency row is its first member's row mapped to
//! class ids (twins share the row, so one member's row is the whole
//! class's row), sorted and deduplicated only when the mapped ids are not
//! already strictly increasing (a row with no merged neighbor never needs
//! it). Classes are numbered by smallest member, which is the canonical
//! `(distance, smallest member)` order because hop-local ids are sorted by
//! distance, so the output is bit-identical to `crate::reference`.
//!
//! This stage consumes only the re-indexed [`HopSubgraph`], so it is
//! automatically independent of the graph representation the subgraph was
//! extracted from ([`dyngraph::GraphView`] — mutable network, frozen CSR,
//! or overlay): the bit-identity of the whole pipeline across views is
//! decided outside this module, at hop extraction and at K-selection
//! (which reads the link timestamps).

use crate::hop::HopSubgraph;

/// The h-hop *structure subgraph* `G_{S_h→e_t}` of a target link.
///
/// Structure node 0 is always the singleton `{a}` and structure node 1 the
/// singleton `{b}`. The subgraph is topology only: members, distances and
/// distinct structure links. Definition 5's timestamp multisets are needed
/// only for the links among the top-K structure nodes, so
/// [`crate::KStructureSubgraph::select`] gathers them from the graph for
/// those links alone. All state is flat CSR — members and adjacency are
/// slices into shared arrays, so downstream stages read contiguous memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructureSubgraph {
    /// Member CSR row bounds: structure node `x` owns
    /// `mem_ids[mem_offsets[x]..mem_offsets[x + 1]]`.
    mem_offsets: Vec<usize>,
    /// Flat sorted hop-local member ids.
    mem_ids: Vec<usize>,
    /// Adjacency CSR row bounds over `adj_ids`.
    adj_offsets: Vec<usize>,
    /// Flat sorted distinct structure-node neighbors.
    adj_ids: Vec<usize>,
    /// `dist[x]` = hop distance of structure node `x` to the target link
    /// (the distance of its smallest member, which all members share).
    dist: Vec<u32>,
}

/// Reusable buffers for Algorithm 1's merge: the twin-class map and the
/// row-hash keys that find the classes. One round is the whole merge (see
/// the module docs for why a second round never merges anything).
///
/// Like [`crate::HopScratch`], reuse never changes output: a fresh scratch
/// and a warm one produce identical structure subgraphs.
#[derive(Debug, Clone, Default)]
pub struct StructureScratch {
    /// Structure node of each hop node.
    group_of: Vec<usize>,
    /// `(row hash, hop id)` of every non-endpoint hop node, sorted so
    /// that twins form runs.
    keys: Vec<(u64, u32)>,
    /// Member-CSR fill positions, one per structure node.
    cursor: Vec<usize>,
}

impl StructureSubgraph {
    /// Runs Algorithm 1 on an h-hop subgraph.
    ///
    /// # Panics
    ///
    /// Panics if `hop` has fewer than 2 nodes (no target endpoints).
    pub fn combine(hop: &HopSubgraph) -> Self {
        Self::combine_with_scratch(hop, &mut StructureScratch::default())
    }

    /// [`StructureSubgraph::combine`] with caller-provided reusable buffers;
    /// identical output, amortized allocations.
    ///
    /// # Panics
    ///
    /// Same conditions as [`StructureSubgraph::combine`].
    pub fn combine_with_scratch(
        hop: &HopSubgraph,
        scratch: &mut StructureScratch,
    ) -> Self {
        Self::combine_with_row_key(hop, scratch, row_hash)
    }

    /// [`StructureSubgraph::combine_with_scratch`] with the row hash that
    /// keys the twin merge replaced by `key`. The output does not depend
    /// on `key`: a constant key makes every row collide, which runs the
    /// full row comparison. Not API — a seam for the collision tests.
    ///
    /// # Panics
    ///
    /// Same conditions as [`StructureSubgraph::combine`].
    #[doc(hidden)]
    pub fn combine_with_row_key(
        hop: &HopSubgraph,
        scratch: &mut StructureScratch,
        key: impl Fn(&[u32]) -> u64,
    ) -> Self {
        let n = hop.node_count();
        assert!(n >= 2, "hop subgraph must contain both target endpoints");
        let StructureScratch {
            group_of,
            keys,
            cursor,
        } = scratch;
        let count = merge_round(hop, keys, group_of, key);

        // Member CSR via counting sort: hop ids ascend within each group,
        // so a group's first member is its smallest.
        let mut mem_offsets = vec![0usize; count + 1];
        for &x in group_of.iter() {
            mem_offsets[x + 1] += 1;
        }
        for x in 0..count {
            mem_offsets[x + 1] += mem_offsets[x];
        }
        cursor.clear();
        cursor.extend_from_slice(&mem_offsets[..count]);
        let mut mem_ids = vec![0usize; n];
        for (i, &x) in group_of.iter().enumerate() {
            mem_ids[cursor[x]] = i;
            cursor[x] += 1;
        }
        let first = |x: usize| mem_ids[mem_offsets[x]];
        let dist: Vec<u32> =
            (0..count).map(|x| hop.distance(first(x))).collect();
        debug_assert!(
            dist.windows(2).all(|w| w[0] <= w[1]),
            "smallest-member order is (distance, smallest member) order"
        );

        // Adjacency CSR: twins share their neighbor row, so a group's row
        // is its first member's row mapped to group ids. Group ids ascend
        // with smallest member, so the mapped row is already strictly
        // increasing unless it holds two members of one group; only then
        // is it sorted and deduplicated (twins collapse to one entry).
        let mut adj_offsets = Vec::with_capacity(count + 1);
        let mut adj_ids = Vec::with_capacity(2 * hop.link_count());
        adj_offsets.push(0);
        for x in 0..count {
            let start = adj_ids.len();
            adj_ids.extend(
                hop.neighbors(first(x))
                    .iter()
                    .map(|&j| group_of[j as usize]),
            );
            if !adj_ids[start..].is_sorted_by(|p, q| p < q) {
                adj_ids[start..].sort_unstable();
                let mut w = start;
                for r in start..adj_ids.len() {
                    if w == start || adj_ids[w - 1] != adj_ids[r] {
                        adj_ids[w] = adj_ids[r];
                        w += 1;
                    }
                }
                adj_ids.truncate(w);
            }
            adj_offsets.push(adj_ids.len());
        }
        let s = StructureSubgraph {
            mem_offsets,
            mem_ids,
            adj_offsets,
            adj_ids,
            dist,
        };
        debug_assert!(s.is_twin_free(), "one merge round reaches the fixpoint");
        s
    }

    /// Algorithm 1's stopping condition: no two non-endpoint structure
    /// nodes have equal neighbor rows.
    fn is_twin_free(&self) -> bool {
        let mut rows: Vec<&[usize]> =
            (2..self.node_count()).map(|x| self.neighbors(x)).collect();
        rows.sort_unstable();
        rows.windows(2).all(|w| w[0] != w[1])
    }

    /// Number of structure nodes `|V_S|`.
    pub fn node_count(&self) -> usize {
        self.dist.len()
    }

    /// Number of structure links `|E_S|`.
    pub fn link_count(&self) -> usize {
        self.adj_ids.len() / 2
    }

    /// Sorted hop-local node ids merged into structure node `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn members(&self, x: usize) -> &[usize] {
        &self.mem_ids[self.mem_offsets[x]..self.mem_offsets[x + 1]]
    }

    /// Sorted structure-node neighbors of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn neighbors(&self, x: usize) -> &[usize] {
        &self.adj_ids[self.adj_offsets[x]..self.adj_offsets[x + 1]]
    }

    /// Hop distance of structure node `x` to the target link.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn distance(&self, x: usize) -> u32 {
        self.dist[x]
    }

    /// Iterates structure links once as `(x, y)` with `x < y`, in ascending
    /// order.
    pub fn links(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.node_count()).flat_map(move |x| {
            self.neighbors(x)
                .iter()
                .filter(move |&&y| x < y)
                .map(move |&y| (x, y))
        })
    }
}

/// Twin-merge key of a distinct-neighbor row: a fixed 64-bit hash seeded
/// with the row length, folding two ids per word, with the splitmix64
/// finalizer. Twins have equal rows and therefore equal keys; unequal
/// rows that collide cost one row comparison in [`merge_round`], so the
/// hash needs no secret seed.
fn row_hash(row: &[u32]) -> u64 {
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(MUL);
    let mut words = row.chunks_exact(2);
    let mut h = fold(0, row.len() as u64);
    for w in &mut words {
        h = fold(h, u64::from(w[0]) | u64::from(w[1]) << 32);
    }
    if let [last] = words.remainder() {
        h = fold(h, u64::from(*last));
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Algorithm 1's merge, done once: non-endpoint hop nodes with equal
/// distinct-neighbor rows form one group. Fills `group_of` with each hop
/// node's group, numbered by smallest member (the endpoints are groups 0
/// and 1), and returns the group count.
///
/// Nodes are sorted by `(key(row), id)`. Twins share a key, so a group
/// never spans two runs of equal keys; a run of one is a singleton group,
/// and a longer run is split by row equality. Only a run whose rows differ
/// (a key collision) is sorted by row.
fn merge_round(
    hop: &HopSubgraph,
    keys: &mut Vec<(u64, u32)>,
    group_of: &mut Vec<usize>,
    key: impl Fn(&[u32]) -> u64,
) -> usize {
    let n = hop.node_count();
    let row = |i: u32| hop.neighbors(i as usize);
    keys.clear();
    keys.extend((2..n as u32).map(|i| (key(row(i)), i)));
    keys.sort_unstable();
    group_of.clear();
    group_of.extend(0..n);
    for run in keys.chunk_by_mut(|x, y| x.0 == y.0) {
        if run.len() == 1 {
            continue;
        }
        // Ids ascend within a run, so a twin class's leader comes first.
        let lead = run[0].1;
        if run[1..].iter().all(|&(_, i)| row(i) == row(lead)) {
            for &(_, i) in &run[1..] {
                group_of[i as usize] = lead as usize;
            }
            continue;
        }
        run.sort_unstable_by(|x, y| row(x.1).cmp(row(y.1)).then(x.1.cmp(&y.1)));
        for group in run.chunk_by(|x, y| row(x.1) == row(y.1)) {
            for &(_, i) in group {
                group_of[i as usize] = group[0].1 as usize;
            }
        }
    }
    // Number the groups by smallest member. A group's smallest member
    // precedes the others, so its id is assigned before they look it up.
    let mut count = 0;
    for i in 0..n {
        let leader = group_of[i];
        group_of[i] = if leader == i {
            count += 1;
            count - 1
        } else {
            group_of[leader]
        };
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kstructure::testing::{pipeline, slot_of};
    use dyngraph::DynamicNetwork;

    fn structure_of(
        g: &DynamicNetwork,
        a: u32,
        b: u32,
        h: u32,
    ) -> StructureSubgraph {
        StructureSubgraph::combine(&HopSubgraph::extract(g, a, b, h))
    }

    /// Figure 3 of the paper: A has pendant fans G,H,I; B has D,E,F… the
    /// essence: pendant nodes hanging off the same anchor merge.
    #[test]
    fn pendant_fan_merges() {
        // A=0, B=1; pendants 2,3,4 on A; pendants 5,6 on B; A-C-B with C=7.
        let g: DynamicNetwork = [
            (0, 2, 1),
            (0, 3, 1),
            (0, 4, 2),
            (1, 5, 2),
            (1, 6, 3),
            (0, 7, 3),
            (1, 7, 4),
        ]
        .into_iter()
        .collect();
        let s = structure_of(&g, 0, 1, 1);
        // Structure nodes: {A}, {B}, {2,3,4}, {5,6}, {7} = 5.
        assert_eq!(s.node_count(), 5);
        let sizes: Vec<usize> = (0..5).map(|x| s.members(x).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 8);
        assert!(sizes.contains(&3)); // {2,3,4}
        assert!(sizes.contains(&2)); // {5,6}
        assert_eq!(s.members(0), &[0]);
        assert_eq!(s.members(1), &[1]);
    }

    #[test]
    fn endpoints_never_merge_even_with_twins() {
        // a and c are structural twins (both only adjacent to z), but a is an
        // endpoint and must stay singleton.
        let g: DynamicNetwork =
            [(0, 2, 1), (3, 2, 1), (1, 2, 2)].into_iter().collect();
        // target (0,1): a=0 adjacent {2}; c=3 adjacent {2}; b=1 adjacent {2}.
        let s = structure_of(&g, 0, 1, 2);
        assert_eq!(s.members(0), &[0]);
        assert_eq!(s.members(1), &[1]);
        // node 3 (some local id) stays its own structure node because its
        // only potential twins are the pinned endpoints.
        assert_eq!(s.node_count(), 4);
    }

    /// Each structure node's members as global ids, and its neighbor
    /// row, in structure-node order.
    fn partition(
        g: &DynamicNetwork,
        a: u32,
        b: u32,
        h: u32,
    ) -> (Vec<Vec<u32>>, Vec<Vec<usize>>) {
        let hop = HopSubgraph::extract(g, a, b, h);
        let s = StructureSubgraph::combine(&hop);
        (0..s.node_count())
            .map(|x| {
                let members =
                    s.members(x).iter().map(|&i| hop.global_id(i)).collect();
                (members, s.neighbors(x).to_vec())
            })
            .unzip()
    }

    #[test]
    fn twins_of_twins_need_one_round() {
        // x=2 and y=3 both link a, b, w1=4 and w2=5, so they are twins;
        // w1 and w2 both link exactly {x, y}, so they are twins too. Both
        // classes form in the first merge. The merged graph has rows
        // {xy}, {xy}, {a, b, w}, {xy}: no two non-endpoint rows are equal,
        // so a second round would merge nothing.
        let g: DynamicNetwork = [
            (0, 2, 1),
            (1, 2, 1),
            (0, 3, 1),
            (1, 3, 1),
            (2, 4, 2),
            (3, 4, 2),
            (2, 5, 2),
            (3, 5, 2),
        ]
        .into_iter()
        .collect();
        let (members, rows) = partition(&g, 0, 1, 2);
        assert_eq!(members, vec![vec![0], vec![1], vec![2, 3], vec![4, 5]]);
        assert_eq!(rows, vec![vec![2], vec![2], vec![0, 1, 3], vec![2]]);
    }

    #[test]
    fn pendants_keep_their_anchors_apart() {
        // x=2 and y=3 both link a and b, but x carries pendant u=4 and y
        // carries pendant v=5: Γ(x) = {a, b, u} and Γ(y) = {a, b, v}
        // differ, and so do Γ(u) = {x} and Γ(v) = {y}. Strict Γ-equality
        // merges nothing, and every node stays a singleton.
        let g: DynamicNetwork = [
            (0, 2, 1),
            (1, 2, 1),
            (0, 3, 1),
            (1, 3, 1),
            (4, 2, 2),
            (5, 3, 2),
        ]
        .into_iter()
        .collect();
        let (members, rows) = partition(&g, 0, 1, 2);
        assert_eq!(
            members,
            vec![vec![0], vec![1], vec![2], vec![3], vec![4], vec![5]]
        );
        assert_eq!(
            rows,
            vec![
                vec![2, 3],
                vec![2, 3],
                vec![0, 1, 4],
                vec![0, 1, 5],
                vec![2],
                vec![3],
            ]
        );
    }

    #[test]
    fn endpoint_twin_stays_singleton() {
        // a=0, b=1, c=2 and d=3 all link only the hub z=4: all four are
        // twins. The endpoints stay singletons; c and d merge.
        let g: DynamicNetwork = [(0, 4, 1), (1, 4, 1), (2, 4, 2), (3, 4, 3)]
            .into_iter()
            .collect();
        let (members, rows) = partition(&g, 0, 1, 2);
        assert_eq!(members, vec![vec![0], vec![1], vec![4], vec![2, 3]]);
        assert_eq!(rows, vec![vec![2], vec![2], vec![0, 1, 3], vec![2]]);
    }

    #[test]
    fn structure_links_aggregate_timestamps() {
        // pendants 2,3 on node 0 with different timestamps merge; their
        // structure link to {0} carries both timestamps.
        // The multiset reaches the K-structure subgraph, which reads it
        // from the graph at selection time.
        let g: DynamicNetwork =
            [(0, 2, 5), (0, 3, 9), (0, 1, 1)].into_iter().collect();
        let (hop, s, ks) = pipeline(&g, 0, 1, 1, 3);
        // nodes: {0}, {1}, {2,3}
        assert_eq!(s.node_count(), 3);
        let fan = slot_of(&hop, &s, &ks, 2);
        assert_eq!(fan, slot_of(&hop, &s, &ks, 3));
        assert_eq!(ks.timestamps_between(0, fan), &[5, 9]);
        // The 0-1 history link is the target pair: excluded by extraction.
        assert_eq!(ks.timestamps_between(0, 1), &[] as &[u32]);
        assert_eq!(ks.timestamps_between(1, fan), &[] as &[u32]);
    }

    #[test]
    fn multi_links_all_collected() {
        let g: DynamicNetwork = [(0, 2, 1), (0, 2, 3), (0, 2, 3), (0, 1, 1)]
            .into_iter()
            .collect();
        let (hop, s, ks) = pipeline(&g, 0, 1, 1, 3);
        assert_eq!(s.link_count(), 1, "one distinct structure link");
        let two = slot_of(&hop, &s, &ks, 2);
        assert_eq!(ks.timestamps_between(0, two), &[1, 3, 3]);
    }

    #[test]
    fn distances_inherited_from_members() {
        let g: DynamicNetwork =
            [(0, 1, 1), (0, 2, 1), (2, 3, 1)].into_iter().collect();
        let s = structure_of(&g, 0, 1, 2);
        assert_eq!(s.distance(0), 0);
        assert_eq!(s.distance(1), 0);
        let far = (0..s.node_count())
            .find(|&x| s.members(x).iter().any(|&i| i >= 3))
            .unwrap();
        assert_eq!(s.distance(far), 2);
    }

    #[test]
    fn neighbor_lists_are_sorted_and_symmetric() {
        let g: DynamicNetwork =
            [(0, 1, 1), (0, 2, 1), (1, 2, 2), (2, 3, 3), (2, 4, 3)]
                .into_iter()
                .collect();
        let s = structure_of(&g, 0, 1, 2);
        for x in 0..s.node_count() {
            let nbrs = s.neighbors(x);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            for &y in nbrs {
                assert!(s.neighbors(y).contains(&x));
            }
        }
    }

    #[test]
    fn links_iterate_sorted_with_x_less_than_y() {
        let g: DynamicNetwork = [(0, 2, 1), (2, 3, 2), (1, 3, 3), (0, 1, 4)]
            .into_iter()
            .collect();
        let s = structure_of(&g, 0, 1, 2);
        let links: Vec<_> = s.links().collect();
        assert!(links.windows(2).all(|w| w[0] < w[1]));
        assert!(links.iter().all(|&(x, y)| x < y));
        assert_eq!(links.len(), s.link_count());
    }
}
