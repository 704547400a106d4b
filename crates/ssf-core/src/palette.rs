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
//! The converged colors are dense `1..=C`, so the final order is one more
//! counting sort by color; only classes with several members are sorted,
//! by `(tiebreak, index)`. The prime logarithms come from one
//! process-wide table that grows to the largest subgraph refined, so a
//! fresh scratch never rebuilds it.
//!
//! Refinement runs on the structure subgraph's local adjacency, never on
//! the source graph, so the ordering is identical for every
//! [`dyngraph::GraphView`] representation upstream (mutable network, frozen
//! CSR, delta overlay) — the canonical local ids fixed at hop extraction
//! carry the determinism through.

use std::sync::{Arc, LazyLock, PoisonError, RwLock};

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

/// The first primes and their logarithms, shared by every refinement in
/// the process through [`prime_table`].
#[derive(Debug, Default)]
struct PrimeTable {
    primes: Vec<u64>,
    /// `lnp[c - 1] = ln P(c)`.
    lnp: Vec<f64>,
}

/// Primes in the table the first refinement builds: every subgraph up to
/// this many structure nodes refines without growing it.
const FIRST_ALLOCATION: usize = 1024;

/// The process-wide prime table. It only grows, and a grown table is a
/// new `Arc`, so a snapshot a refinement holds never changes under it.
static PRIMES: LazyLock<RwLock<Arc<PrimeTable>>> =
    LazyLock::new(Default::default);

/// A snapshot of the shared prime table holding at least the first `n`
/// primes. The table grows under the write lock only when `n` exceeds it,
/// to at least twice its size, so it holds at most twice the largest
/// subgraph refined so far (16 B per prime). The primes come from
/// [`first_primes`]'s trial division and the logs from `f64::ln`, so every
/// entry is bit-equal to a per-call rebuild.
fn prime_table(n: usize) -> Arc<PrimeTable> {
    {
        let table = PRIMES.read().unwrap_or_else(PoisonError::into_inner);
        if table.primes.len() >= n {
            return Arc::clone(&table);
        }
    }
    // A poisoned lock still holds a whole table: it is replaced only by
    // assigning a finished `Arc`.
    let mut table = PRIMES.write().unwrap_or_else(PoisonError::into_inner);
    let known = table.primes.len();
    if known < n {
        let len = n.max(2 * known).max(FIRST_ALLOCATION);
        let mut primes = Vec::with_capacity(len);
        primes.extend_from_slice(&table.primes);
        extend_primes(&mut primes, len);
        let mut lnp = Vec::with_capacity(len);
        lnp.extend_from_slice(&table.lnp);
        lnp.extend(primes[known..].iter().map(|&p| (p as f64).ln()));
        *table = Arc::new(PrimeTable { primes, lnp });
    }
    Arc::clone(&table)
}

/// Reusable Palette-WL buffers: every per-round working array, so a warm
/// refinement allocates only the two color vectors and the order. The
/// prime logarithms live in one process-wide table, not here.
///
/// Like [`crate::HopScratch`], reuse never changes output: a fresh scratch
/// and a warm one produce bit-identical orders.
#[derive(Debug, Clone, Default)]
pub struct WlScratch {
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

/// Counting-sorts nodes `0..colors.len()` by their dense 1-based color:
/// color `c`'s nodes land in `by_color[starts[c]..starts[c + 1]]`, in
/// ascending index order.
fn bucket_by_color(
    colors: &[usize],
    num_classes: usize,
    starts: &mut Vec<usize>,
    cursor: &mut Vec<usize>,
    by_color: &mut Vec<u32>,
) {
    starts.clear();
    starts.resize(num_classes + 2, 0);
    for &c in colors {
        starts[c + 1] += 1;
    }
    for c in 1..starts.len() {
        starts[c] += starts[c - 1];
    }
    cursor.clear();
    cursor.extend_from_slice(starts);
    by_color.resize(colors.len(), 0);
    for (i, &c) in colors.iter().enumerate() {
        by_color[cursor[c]] = i as u32;
        cursor[c] += 1;
    }
}

/// The unique 1-based order of converged dense colors `1..=num_classes`:
/// by color, then `tiebreak`, then index. Buckets come out of the
/// counting sort in index order, so only classes with several members are
/// sorted. Equal to [`crate::reference::order_by_color`] for every input.
fn order_by_color(
    colors: &[usize],
    num_classes: usize,
    tiebreak: &[u64],
    scratch: &mut WlScratch,
) -> Vec<usize> {
    let WlScratch {
        by_color,
        starts,
        cursor,
        ..
    } = scratch;
    bucket_by_color(colors, num_classes, starts, cursor, by_color);
    let mut order = vec![0usize; colors.len()];
    for c in 1..=num_classes {
        let class = &mut by_color[starts[c]..starts[c + 1]];
        if class.len() > 1 {
            class.sort_unstable_by_key(|&i| (tiebreak[i as usize], i));
        }
        for (pos, &i) in class.iter().enumerate() {
            order[i as usize] = starts[c] + pos + 1;
        }
    }
    order
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

    let primes = prime_table(n);
    let lnp = primes.lnp.as_slice();
    let WlScratch {
        acc,
        hash,
        by_color,
        starts,
        cursor,
    } = &mut *scratch;

    // Refine until stable. Each non-trivial round strictly splits at least
    // one color class, so n rounds suffice; the cap guards regressions.
    for _ in 0..n + 2 {
        // Global normalizer, summed in node-index order (the reference
        // addition sequence).
        let total: f64 = (0..n).map(|i| lnp[colors[i] - 1]).sum::<f64>().abs();
        // Bucket nodes by current color (colors are 1-based dense ids).
        bucket_by_color(&colors, num_classes, starts, cursor, by_color);
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
    order_by_color(&colors, num_classes, tiebreak, scratch)
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

    /// Asserts that `table` holds at least `n` primes and that every
    /// prime and log is bit-equal to a rebuild of its length.
    fn assert_rebuilt(table: &PrimeTable, n: usize) {
        let bits =
            |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let len = table.primes.len();
        assert!(len >= n, "table of {len} primes serves n = {n}");
        let want = first_primes(len);
        let want_ln: Vec<f64> = want.iter().map(|&p| (p as f64).ln()).collect();
        assert_eq!(table.primes, want, "primes at n = {n}");
        assert_eq!(bits(&table.lnp), bits(&want_ln), "logs at n = {n}");
    }

    #[test]
    fn prime_table_grows_to_the_rebuilt_table() {
        let past_first = 3 * FIRST_ALLOCATION + 1;
        for n in [1, 7, 40, 41, 300, past_first] {
            assert_rebuilt(&prime_table(n), n);
        }
        // A smaller subgraph keeps the larger table.
        assert!(prime_table(40).primes.len() >= past_first);
    }

    #[test]
    fn concurrent_growth_reads_identical_prefixes() {
        let sizes = [5_000, 9_000, 7_000, 12_000];
        let want = first_primes(12_000);
        std::thread::scope(|scope| {
            for &n in &sizes {
                let want = &want;
                scope.spawn(move || {
                    for m in [n / 4, n / 2, n] {
                        let table = prime_table(m);
                        assert!(table.primes.len() >= m);
                        let k = table.primes.len().min(want.len());
                        assert_eq!(table.primes[..k], want[..k]);
                        assert_eq!(table.lnp.len(), table.primes.len());
                    }
                });
            }
        });
        assert_rebuilt(&prime_table(12_000), 12_000);
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
