//! The Palette-WL ordering (Algorithm 2 of the paper, after Zhang & Chen,
//! KDD'17).
//!
//! A Weisfeiler–Lehman color refinement that assigns every structure node a
//! unique order: colors start from the distance to the target link, then are
//! iteratively refined by hashing each node's color together with its
//! neighbors' colors through prime logarithms:
//!
//! ```text
//! h(N_x) = C(N_x) + Σ_{N_p ∈ Γ(N_x)} ln P(C(N_p)) / |Σ_{N_q} ln P(C(N_q))|
//! ```
//!
//! where `P(n)` is the n-th prime. The fractional hash term is strictly less
//! than 1, so refinement only ever splits color classes ("palette"
//! property), and the two endpoints of the target link keep orders 1 and 2.
//!
//! Refinement is hash-free per round: nodes are bucketed by current color
//! with a counting sort, the neighbor-color log sums accumulate in
//! ascending-color order (bit-identical to summing each node's *sorted*
//! neighbor multiset — the addends arrive in the same sequence), and new
//! dense color ids are assigned class-locally, guarded by the palette
//! property that refinement only splits classes. If float rounding ever
//! violates that guard the round falls back to the reference global
//! ranking, so the output is bit-identical to `crate::reference` either way
//! (proven by `tests/kernels.rs`).
//!
//! Refinement runs on the structure subgraph's local adjacency, never on
//! the source graph, so the ordering is identical for every
//! [`dyngraph::GraphView`] representation upstream (mutable network, frozen
//! CSR, delta overlay) — the canonical local ids fixed at hop extraction
//! carry the determinism through.

/// Returns the first `n` primes (`P(1) = 2`).
///
/// Trial division; intended for the small `n` (≤ a few thousand) that
/// structure subgraphs produce.
pub fn first_primes(n: usize) -> Vec<u64> {
    let mut primes: Vec<u64> = Vec::with_capacity(n);
    extend_primes(&mut primes, n);
    primes
}

/// Grows `primes`, which must hold the first `primes.len()` primes, to the
/// first `n`, continuing the trial division after the last known prime.
fn extend_primes(primes: &mut Vec<u64>, n: usize) {
    let mut cand = primes.last().map_or(2, |&p| p + 1);
    while primes.len() < n {
        if primes
            .iter()
            .take_while(|&&p| p * p <= cand)
            .all(|&p| !cand.is_multiple_of(p))
        {
            primes.push(cand);
        }
        cand += 1;
    }
}

/// Reusable Palette-WL buffers: the trial-division prime table with its
/// cached logarithms (the dominant per-call cost when thousands of
/// subgraphs are refined in a batch) plus every per-round working array, so
/// a warm refinement allocates only the two color vectors.
///
/// Like [`crate::HopScratch`], reuse never changes output: a fresh scratch
/// and a warm one produce bit-identical orders.
#[derive(Debug, Clone, Default)]
pub struct WlScratch {
    primes: Vec<u64>,
    /// `lnp[c - 1] = ln P(c)`, cached alongside the primes.
    lnp: Vec<f64>,
    /// Neighbor-color log-sum accumulator of the current round.
    acc: Vec<f64>,
    /// Hash values of the current refinement round.
    hash: Vec<f64>,
    /// Node ids bucketed by current color (counting sort).
    by_color: Vec<u32>,
    /// Bucket start offsets per color.
    starts: Vec<usize>,
    cursor: Vec<usize>,
}

impl WlScratch {
    /// Extends the prime table and its logarithms to at least `n` entries;
    /// a larger subgraph only adds the missing primes.
    fn ensure_primes(&mut self, n: usize) {
        let known = self.primes.len();
        if known < n {
            extend_primes(&mut self.primes, n);
            self.lnp
                .extend(self.primes[known..].iter().map(|&p| (p as f64).ln()));
        }
    }
}

/// Runs Palette-WL color refinement and returns a unique 1-based order per
/// node.
///
/// * `adj` — distinct-neighbor adjacency lists.
/// * `init_key` — initial color key per node (the paper uses the distance to
///   the target link); smaller keys rank earlier.
/// * `pinned` — the `(a, b)` node indices forced to orders 1 and 2.
/// * `tiebreak` — deterministic secondary key used to break the remaining
///   ties (automorphic nodes) after refinement converges.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `adj.len()` or a pinned index
/// is out of range.
pub fn palette_wl(
    adj: &[Vec<usize>],
    init_key: &[u32],
    pinned: (usize, usize),
    tiebreak: &[u64],
) -> Vec<usize> {
    palette_wl_with_scratch(
        adj,
        init_key,
        pinned,
        tiebreak,
        &mut WlScratch::default(),
    )
}

/// [`palette_wl`] with caller-provided reusable buffers; bit-identical
/// output, amortized allocations.
///
/// # Panics
///
/// Same conditions as [`palette_wl`].
pub fn palette_wl_with_scratch(
    adj: &[Vec<usize>],
    init_key: &[u32],
    pinned: (usize, usize),
    tiebreak: &[u64],
    scratch: &mut WlScratch,
) -> Vec<usize> {
    palette_wl_csr(
        adj.len(),
        |i| adj[i].as_slice(),
        init_key,
        pinned,
        tiebreak,
        scratch,
    )
}

/// [`palette_wl_with_scratch`] over any slice-yielding adjacency accessor,
/// letting CSR-backed graphs (e.g. the structure subgraph) refine without
/// materializing `Vec<Vec<usize>>` rows.
///
/// # Panics
///
/// Same conditions as [`palette_wl`].
pub fn palette_wl_csr<'a, F>(
    n: usize,
    adj: F,
    init_key: &[u32],
    pinned: (usize, usize),
    tiebreak: &[u64],
    scratch: &mut WlScratch,
) -> Vec<usize>
where
    F: Fn(usize) -> &'a [usize],
{
    assert_eq!(init_key.len(), n, "init_key length mismatch");
    assert_eq!(tiebreak.len(), n, "tiebreak length mismatch");
    assert!(pinned.0 < n && pinned.1 < n, "pinned index out of range");
    assert_ne!(pinned.0, pinned.1, "pinned indices must differ");
    if n == 0 {
        return Vec::new();
    }

    // Initial colors: dense rank of the init key, endpoints forced lowest.
    let sort_key = |i: usize| -> (u8, u32) {
        if i == pinned.0 {
            (0, 0)
        } else if i == pinned.1 {
            (1, 0)
        } else {
            (2, init_key[i])
        }
    };
    let mut colors = dense_rank_by(n, |i, j| sort_key(i).cmp(&sort_key(j)));
    let mut new_colors = vec![0usize; n];
    let mut num_classes = colors.iter().copied().max().unwrap_or(0);

    scratch.ensure_primes(n);
    let WlScratch {
        lnp,
        acc,
        hash,
        by_color,
        starts,
        cursor,
        ..
    } = scratch;

    // Refine until stable. Each non-trivial round strictly splits at least
    // one color class, so n rounds suffice; the cap guards regressions.
    for _ in 0..n + 2 {
        // Global normalizer, summed in node-index order (the reference
        // addition sequence).
        let total: f64 = (0..n).map(|i| lnp[colors[i] - 1]).sum::<f64>().abs();
        // Bucket nodes by current color (counting sort, colors are 1-based
        // dense ids).
        starts.clear();
        starts.resize(num_classes + 2, 0);
        for &c in colors.iter() {
            starts[c + 1] += 1;
        }
        for c in 1..starts.len() {
            starts[c] += starts[c - 1];
        }
        cursor.clear();
        cursor.extend_from_slice(starts);
        by_color.resize(n, 0);
        for (i, &c) in colors.iter().enumerate() {
            by_color[cursor[c]] = i as u32;
            cursor[c] += 1;
        }
        // Neighbor log-sum accumulation in ascending-color order: for every
        // node `i`, the values landing in `acc[i]` arrive exactly as if its
        // neighbor colors had been sorted ascending and summed — equal
        // addends within one class commute bit-exactly — so `acc[i]`
        // reproduces the reference's sorted-multiset sum.
        acc.clear();
        acc.resize(n, 0.0);
        for c in 1..=num_classes {
            let lp = lnp[c - 1];
            for &j in &by_color[starts[c]..starts[c + 1]] {
                for &i in adj(j as usize) {
                    acc[i] += lp;
                }
            }
        }
        hash.clear();
        hash.extend((0..n).map(|i| colors[i] as f64 + acc[i] / total));
        // Class-local dense re-ranking. The palette property says classes
        // only split (hash = color + frac with frac ∈ [0, 1)), so ranking
        // each class's nodes independently — classes visited in ascending
        // color — concatenates into the global hash order. The boundary
        // guard verifies exactly that; float pathology falls back to the
        // reference global ranking. The pinned endpoints are singleton
        // classes 1 and 2 by construction.
        let mut fast = num_classes >= 2
            && colors[pinned.0] == 1
            && colors[pinned.1] == 2
            && starts[2] - starts[1] == 1
            && starts[3] - starts[2] == 1;
        if fast {
            new_colors[pinned.0] = 1;
            new_colors[pinned.1] = 2;
            let mut rank = 2usize;
            let mut prev: Option<f64> = None;
            for c in 3..=num_classes {
                let seg = &mut by_color[starts[c]..starts[c + 1]];
                seg.sort_unstable_by(|&x, &y| {
                    hash[x as usize].total_cmp(&hash[y as usize])
                });
                if let Some(p) = prev {
                    if hash[seg[0] as usize].total_cmp(&p)
                        != std::cmp::Ordering::Greater
                    {
                        fast = false;
                        break;
                    }
                }
                for pos in 0..seg.len() {
                    if pos == 0
                        || hash[seg[pos - 1] as usize]
                            .total_cmp(&hash[seg[pos] as usize])
                            == std::cmp::Ordering::Less
                    {
                        rank += 1;
                    }
                    new_colors[seg[pos] as usize] = rank;
                }
                prev = seg.last().map(|&i| hash[i as usize]);
            }
        }
        if !fast {
            // Reference ranking: global sort over (tier, hash).
            let hkey = |i: usize| -> (u8, f64) {
                if i == pinned.0 {
                    (0, 0.0)
                } else if i == pinned.1 {
                    (1, 0.0)
                } else {
                    (2, hash[i])
                }
            };
            new_colors = dense_rank_by(n, |i, j| {
                let (ti, hi) = hkey(i);
                let (tj, hj) = hkey(j);
                ti.cmp(&tj).then(hi.total_cmp(&hj))
            });
        }
        if new_colors == colors {
            break;
        }
        std::mem::swap(&mut colors, &mut new_colors);
        num_classes = colors.iter().copied().max().unwrap_or(0);
    }

    // Unique total order: converged color, then caller tiebreak, then index.
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| (colors[i], tiebreak[i], i));
    let mut order = vec![0usize; n];
    for (rank, &i) in idx.iter().enumerate() {
        order[i] = rank + 1;
    }
    order
}

/// Dense ranking (1-based): equal elements share a rank, the next distinct
/// element gets the previous rank + 1.
///
/// The result depends only on the comparator's equivalence classes and
/// order, never on sort stability: equal elements share a rank by
/// definition, so any permutation within a class yields identical ranks.
pub(crate) fn dense_rank_by(
    n: usize,
    mut cmp: impl FnMut(usize, usize) -> std::cmp::Ordering,
) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| cmp(a, b));
    let mut ranks = vec![0usize; n];
    let mut rank = 0;
    for (pos, &i) in idx.iter().enumerate() {
        if pos == 0 || cmp(idx[pos - 1], i) == std::cmp::Ordering::Less {
            rank += 1;
        }
        ranks[i] = rank;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primes_start_correctly() {
        assert_eq!(first_primes(8), vec![2, 3, 5, 7, 11, 13, 17, 19]);
        assert!(first_primes(0).is_empty());
    }

    #[test]
    fn prime_table_grows_to_the_rebuilt_table() {
        let bits =
            |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut scratch = WlScratch::default();
        for n in [1, 7, 40, 41, 300] {
            scratch.ensure_primes(n);
            let want = first_primes(n);
            let want_ln: Vec<f64> =
                want.iter().map(|&p| (p as f64).ln()).collect();
            assert_eq!(scratch.primes, want, "primes at n = {n}");
            assert_eq!(bits(&scratch.lnp), bits(&want_ln), "logs at n = {n}");
        }
        // A smaller subgraph keeps the larger table.
        scratch.ensure_primes(40);
        assert_eq!(scratch.primes, first_primes(300));
    }

    #[test]
    fn endpoints_get_orders_one_and_two() {
        // path: 2 - 0 - 1 - 3, target (0, 1)
        let adj = vec![vec![1, 2], vec![0, 3], vec![0], vec![1]];
        let order = palette_wl(&adj, &[0, 0, 1, 1], (0, 1), &[0, 1, 2, 3]);
        assert_eq!(order[0], 1);
        assert_eq!(order[1], 2);
    }

    #[test]
    fn orders_are_a_permutation() {
        let adj =
            vec![vec![1, 2, 3], vec![0, 2], vec![0, 1, 4], vec![0], vec![2]];
        let order = palette_wl(&adj, &[0, 0, 1, 1, 2], (0, 1), &[0; 5]);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn closer_nodes_rank_earlier() {
        // star around 0 with one far node: 0-1 target, 0-2, 2-3
        let adj = vec![vec![1, 2], vec![0], vec![0, 3], vec![2]];
        let order = palette_wl(&adj, &[0, 0, 1, 2], (0, 1), &[0; 4]);
        assert!(order[2] < order[3], "distance-1 node before distance-2");
    }

    #[test]
    fn refinement_splits_same_distance_nodes_by_connectivity() {
        // target (0,1); nodes 2 and 3 both at distance 1, but 2 is adjacent
        // to both endpoints while 3 touches only endpoint 0.
        let adj = vec![
            vec![1, 2, 3], // 0: endpoint a
            vec![0, 2],    // 1: endpoint b
            vec![0, 1],    // 2: adjacent to both
            vec![0],       // 3: adjacent to a only
        ];
        let order = palette_wl(&adj, &[0, 0, 1, 1], (0, 1), &[0; 4]);
        assert_ne!(order[2], order[3]);
        // Same tiebreak, so the split must come from refinement itself:
        // re-running with swapped tiebreaks must not change the order.
        let order2 = palette_wl(&adj, &[0, 0, 1, 1], (0, 1), &[9, 9, 9, 9]);
        assert_eq!(order, order2);
    }

    #[test]
    fn automorphic_nodes_broken_by_tiebreak() {
        // 2 and 3 are perfectly symmetric pendants of endpoint 0.
        let adj = vec![vec![1, 2, 3], vec![0], vec![0], vec![0]];
        let order = palette_wl(&adj, &[0, 0, 1, 1], (0, 1), &[0, 0, 5, 1]);
        assert!(order[3] < order[2], "smaller tiebreak ranks earlier");
    }

    #[test]
    fn deterministic_across_runs() {
        let adj = vec![
            vec![1, 2, 3, 4],
            vec![0, 2],
            vec![0, 1, 3],
            vec![0, 2, 4],
            vec![0, 3],
        ];
        let a = palette_wl(&adj, &[0, 0, 1, 1, 1], (0, 1), &[0, 1, 2, 3, 4]);
        let b = palette_wl(&adj, &[0, 0, 1, 1, 1], (0, 1), &[0, 1, 2, 3, 4]);
        assert_eq!(a, b);
    }

    #[test]
    fn two_node_graph() {
        let adj = vec![vec![], vec![]];
        let order = palette_wl(&adj, &[0, 0], (0, 1), &[0, 0]);
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn warm_scratch_is_bit_identical_to_fresh() {
        let adj = vec![
            vec![1, 2, 3, 4],
            vec![0, 2],
            vec![0, 1, 3],
            vec![0, 2, 4],
            vec![0, 3],
        ];
        let mut scratch = WlScratch::default();
        // Warm on a larger graph so the reused prime table is oversized.
        let ring: Vec<Vec<usize>> =
            (0..10).map(|i| vec![(i + 1) % 10, (i + 9) % 10]).collect();
        let keys: Vec<u32> = (0..10).map(|i| i / 2).collect();
        let _ = palette_wl_with_scratch(
            &ring,
            &keys,
            (0, 1),
            &[0; 10],
            &mut scratch,
        );
        let warm = palette_wl_with_scratch(
            &adj,
            &[0, 0, 1, 1, 1],
            (0, 1),
            &[0, 1, 2, 3, 4],
            &mut scratch,
        );
        let fresh =
            palette_wl(&adj, &[0, 0, 1, 1, 1], (0, 1), &[0, 1, 2, 3, 4]);
        assert_eq!(warm, fresh);
    }

    #[test]
    fn csr_accessor_matches_vec_adjacency() {
        let adj = vec![
            vec![1, 2, 3, 4],
            vec![0, 2],
            vec![0, 1, 3],
            vec![0, 2, 4],
            vec![0, 3],
        ];
        let flat: Vec<usize> = adj.iter().flatten().copied().collect();
        let mut offsets = vec![0usize];
        for row in &adj {
            offsets.push(offsets.last().copied().unwrap_or(0) + row.len());
        }
        let mut scratch = WlScratch::default();
        let via_csr = palette_wl_csr(
            adj.len(),
            |i| &flat[offsets[i]..offsets[i + 1]],
            &[0, 0, 1, 1, 1],
            (0, 1),
            &[0, 1, 2, 3, 4],
            &mut scratch,
        );
        let via_vec =
            palette_wl(&adj, &[0, 0, 1, 1, 1], (0, 1), &[0, 1, 2, 3, 4]);
        assert_eq!(via_csr, via_vec);
    }

    #[test]
    #[should_panic(expected = "pinned indices must differ")]
    fn pinned_must_differ() {
        let adj = vec![vec![], vec![]];
        let _ = palette_wl(&adj, &[0, 0], (0, 0), &[0, 0]);
    }
}
