//! Retained naive reference implementation of the full SSF extraction
//! pipeline (Algorithm 3) — the differential-testing oracle for the
//! optimized kernels in [`hop`](crate::hop), [`structure`](crate::structure),
//! [`palette`](crate::palette) and [`feature`](crate::feature).
//!
//! This module deliberately re-implements every stage with the simplest
//! possible data structures (`HashMap` set operations, per-call `Vec`
//! allocations, full-graph Dijkstra) and is **never** optimized: it is the
//! executable specification the fast kernels must match *bit for bit*, on
//! every [`EntryEncoding`], forever. `tests/kernels.rs` holds the
//! differential suite; a divergence there means the optimized path changed
//! semantics, not that this module is out of date.
//!
//! Float-sensitive details are mirrored exactly:
//!
//! * Palette-WL sums neighbor prime-logs in ascending color order and
//!   divides by the whole-graph prime-log sum taken in node-index order.
//! * Influence sums fold timestamps left-to-right from 0.0 in sorted order.
//! * Reciprocal-distance runs a binary-heap Dijkstra whose result is
//!   relaxation-order independent for non-negative weights, so the
//!   optimized early-exit variant lands on the same bits.

use std::collections::HashMap;

use dyngraph::{traversal, GraphView, NodeId, Timestamp};

use crate::error::ExtractError;
use crate::feature::{EntryEncoding, SsfConfig};
use crate::hop::HopSubgraph;
use crate::structure::StructureSubgraph;

/// Bounded BFS ball of `src`: `(node, distance)` in breadth-first
/// discovery order, the source first at distance 0.
fn ball<G: GraphView + ?Sized>(
    g: &G,
    src: NodeId,
    h: u32,
) -> Vec<(NodeId, u32)> {
    let mut dist: HashMap<NodeId, u32> = HashMap::new();
    dist.insert(src, 0);
    let mut out = vec![(src, 0)];
    let mut frontier = vec![src];
    let mut depth = 0;
    while !frontier.is_empty() && depth < h {
        depth += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in g.distinct_neighbors(u) {
                if let std::collections::hash_map::Entry::Vacant(e) =
                    dist.entry(v)
                {
                    e.insert(depth);
                    out.push((v, depth));
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    out
}

/// The naive h-hop subgraph: dense local ids with endpoints at 0 and 1,
/// the rest in `(distance, global id)` order.
struct RefHop {
    dist: Vec<u32>,
    /// Mirrored `(neighbor, timestamp)` incidences per local node.
    adj: Vec<Vec<(usize, Timestamp)>>,
    node_count: usize,
}

fn hop_subgraph<G: GraphView + ?Sized>(
    g: &G,
    a: NodeId,
    b: NodeId,
    h: u32,
) -> RefHop {
    let mut merged: HashMap<NodeId, u32> = HashMap::new();
    for (n, d) in ball(g, a, h).into_iter().chain(ball(g, b, h)) {
        merged
            .entry(n)
            .and_modify(|cur| *cur = (*cur).min(d))
            .or_insert(d);
    }
    let mut rest: Vec<(u32, NodeId)> = merged
        .iter()
        .filter(|&(&n, _)| n != a && n != b)
        .map(|(&n, &d)| (d, n))
        .collect();
    rest.sort_unstable();
    let mut global = vec![a, b];
    let mut dist = vec![0, 0];
    for &(d, n) in &rest {
        global.push(n);
        dist.push(d);
    }
    let local_of: HashMap<NodeId, usize> =
        global.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut adj = vec![Vec::new(); global.len()];
    for (i, &u) in global.iter().enumerate() {
        for (v, t) in g.incident_links(u) {
            if u < v {
                if let Some(&j) = local_of.get(&v) {
                    if (u == a && v == b) || (u == b && v == a) {
                        continue; // target pair history excluded
                    }
                    adj[i].push((j, t));
                    adj[j].push((i, t));
                }
            }
        }
    }
    RefHop {
        node_count: global.len(),
        dist,
        adj,
    }
}

/// The naive structure subgraph after Algorithm 1's fixpoint merge.
struct RefStructure {
    members: Vec<Vec<usize>>,
    adj: Vec<Vec<usize>>,
    timestamps: HashMap<(usize, usize), Vec<Timestamp>>,
    dist: Vec<u32>,
}

/// Algorithm 1 as written: merge twins, then repeat until a round merges
/// nothing. The optimized kernel runs one round, which is the same
/// partition (see [`crate::structure`]); this loop is the check.
fn combine(hop: &RefHop) -> RefStructure {
    let n = hop.node_count;
    assert!(n >= 2, "hop subgraph must contain both target endpoints");
    let mut group_of: Vec<usize> = (0..n).collect();
    let mut group_count = n;
    loop {
        // Sorted distinct neighbor set of each current group.
        let mut nbrs: Vec<Vec<usize>> = vec![Vec::new(); group_count];
        for i in 0..n {
            for &(j, _) in &hop.adj[i] {
                nbrs[group_of[i]].push(group_of[j]);
            }
        }
        for nb in &mut nbrs {
            nb.sort_unstable();
            nb.dedup();
        }
        // Merge non-endpoint groups with identical neighbor sets;
        // new ids are assigned by first occurrence.
        let (ga, gb) = (group_of[0], group_of[1]);
        let mut sig_to_new: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut new_of_group = vec![usize::MAX; group_count];
        let mut next = 0;
        for (gid, nb) in nbrs.iter().enumerate() {
            if gid == ga || gid == gb {
                new_of_group[gid] = next;
                next += 1;
                continue;
            }
            let id = *sig_to_new.entry(nb.clone()).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            new_of_group[gid] = id;
        }
        if next == group_count {
            break;
        }
        for gref in &mut group_of {
            *gref = new_of_group[*gref];
        }
        group_count = next;
    }

    // Canonical renumbering: endpoints first, then (distance, smallest
    // member id).
    let mut members_raw: Vec<Vec<usize>> = vec![Vec::new(); group_count];
    for (i, &gid) in group_of.iter().enumerate() {
        members_raw[gid].push(i);
    }
    let mut order: Vec<usize> = (0..group_count).collect();
    let key = |gid: usize| {
        let m = &members_raw[gid];
        let d = m.iter().map(|&i| hop.dist[i]).min().unwrap_or(u32::MAX);
        (d, m.first().copied().unwrap_or(usize::MAX))
    };
    order.sort_by_key(|&gid| key(gid));
    let mut new_id = vec![usize::MAX; group_count];
    for (rank, &gid) in order.iter().enumerate() {
        new_id[gid] = rank;
    }
    let mut members = vec![Vec::new(); group_count];
    let mut dist = vec![u32::MAX; group_count];
    for (gid, m) in members_raw.into_iter().enumerate() {
        let x = new_id[gid];
        dist[x] = m.iter().map(|&i| hop.dist[i]).min().unwrap_or(u32::MAX);
        members[x] = m;
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); group_count];
    let mut timestamps: HashMap<(usize, usize), Vec<Timestamp>> =
        HashMap::new();
    for i in 0..n {
        let x = new_id[group_of[i]];
        for &(j, t) in &hop.adj[i] {
            if i < j {
                let y = new_id[group_of[j]];
                timestamps.entry((x.min(y), x.max(y))).or_default().push(t);
            }
        }
    }
    for (&(x, y), ts) in &mut timestamps {
        ts.sort_unstable();
        adj[x].push(y);
        adj[y].push(x);
    }
    for row in &mut adj {
        row.sort_unstable();
    }
    RefStructure {
        members,
        adj,
        timestamps,
        dist,
    }
}

/// Naive trial-division primes, `P(1) = 2`.
fn first_primes(n: usize) -> Vec<u64> {
    let mut primes: Vec<u64> = Vec::with_capacity(n);
    let mut cand = 2u64;
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
    primes
}

/// 1-based dense ranking by an arbitrary comparator.
fn dense_rank_by(
    n: usize,
    mut cmp: impl FnMut(usize, usize) -> std::cmp::Ordering,
) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&x, &y| cmp(x, y));
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

/// Naive Palette-WL: per-round float hash `color + Σ ln P(neighbor colors)
/// (sorted ascending) / |Σ ln P(all colors)|`, global re-sort every round,
/// and the converged colors ordered by [`order_by_color`]. This is the
/// oracle for [`crate::palette::palette_wl`], with the same arguments.
pub fn palette_wl(
    adj: &[Vec<usize>],
    init_key: &[u32],
    pinned: (usize, usize),
    tiebreak: &[u64],
) -> Vec<usize> {
    let n = adj.len();
    if n == 0 {
        return Vec::new();
    }
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
    let primes = first_primes(n);
    let ln_p = |c: usize| -> f64 { (primes[c - 1] as f64).ln() };
    for _ in 0..n + 2 {
        let total: f64 =
            (1..=n).map(|i| ln_p(colors[i - 1])).sum::<f64>().abs();
        let mut hash = Vec::with_capacity(n);
        for (i, row) in adj.iter().enumerate() {
            let mut neigh: Vec<usize> =
                row.iter().map(|&j| colors[j]).collect();
            neigh.sort_unstable();
            let frac: f64 = neigh.iter().map(|&c| ln_p(c)).sum::<f64>() / total;
            hash.push(colors[i] as f64 + frac);
        }
        let hkey = |i: usize| -> (u8, f64) {
            if i == pinned.0 {
                (0, 0.0)
            } else if i == pinned.1 {
                (1, 0.0)
            } else {
                (2, hash[i])
            }
        };
        let new_colors = dense_rank_by(n, |i, j| {
            let (ti, hi) = hkey(i);
            let (tj, hj) = hkey(j);
            ti.cmp(&tj).then(hi.total_cmp(&hj))
        });
        if new_colors == colors {
            break;
        }
        colors = new_colors;
    }
    order_by_color(&colors, tiebreak)
}

/// The unique 1-based order of converged Palette-WL colors by one global
/// sort on `(color, tiebreak, index)`: the oracle for the kernel's
/// bucketed output order.
///
/// # Panics
///
/// Panics if `tiebreak` is shorter than `colors`.
pub fn order_by_color(colors: &[usize], tiebreak: &[u64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..colors.len()).collect();
    idx.sort_by_key(|&i| (colors[i], tiebreak[i], i));
    let mut order = vec![0usize; colors.len()];
    for (rank, &i) in idx.iter().enumerate() {
        order[i] = rank + 1;
    }
    order
}

/// Timestamps per selected slot pair `(m, n)`, `m < n`.
type SlotLinks = HashMap<(usize, usize), Vec<Timestamp>>;

/// Definition 7: the `K` lowest-order structure nodes and their links.
fn select(s: &RefStructure, order: &[usize], k: usize) -> SlotLinks {
    let mut slot_of: HashMap<usize, usize> = HashMap::new();
    for (x, &ord) in order.iter().enumerate() {
        if ord <= k {
            slot_of.insert(x, ord - 1);
        }
    }
    let mut out = SlotLinks::new();
    for (&(x, y), ts) in &s.timestamps {
        if let (Some(&m), Some(&n)) = (slot_of.get(&x), slot_of.get(&y)) {
            out.insert((m.min(n), m.max(n)), ts.clone());
        }
    }
    out
}

/// Eq. 2/3: left-to-right influence sum over sorted timestamps.
fn normalized_influence(ts: &[Timestamp], l_t: Timestamp, theta: f64) -> f64 {
    ts.iter()
        .map(|&l_s| {
            if l_s >= l_t {
                1.0
            } else {
                (-theta * (l_t - l_s) as f64).exp()
            }
        })
        .sum()
}

/// Eq. 4 for one non-concatenated encoding, row-major `K×K`.
fn adjacency_matrix(
    links: &SlotLinks,
    k: usize,
    l_t: Timestamp,
    theta: f64,
    encoding: EntryEncoding,
) -> Vec<f64> {
    let mut a = vec![0.0; k * k];
    for (&(m, n), ts) in links {
        let v = match encoding {
            EntryEncoding::NormalizedInfluence => {
                normalized_influence(ts, l_t, theta)
            }
            EntryEncoding::LogInfluence => {
                const LAMBDA: f64 = 30.0;
                let raw = normalized_influence(ts, l_t, theta);
                if raw > 0.0 {
                    (1.0 + raw.ln() / LAMBDA).max(0.0)
                } else {
                    0.0
                }
            }
            EntryEncoding::LinkCount => ts.len() as f64,
            EntryEncoding::Binary => 1.0,
            EntryEncoding::ReciprocalDistance => 0.0, // filled below
            EntryEncoding::InfluenceAndStructure => {
                unreachable!("concatenated encoding split by caller")
            }
        };
        a[m * k + n] = v;
        a[n * k + m] = v;
    }
    if encoding == EntryEncoding::ReciprocalDistance {
        let mut wadj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); k];
        for (&(m, n), ts) in links {
            let lt = normalized_influence(ts, l_t, theta);
            if lt > 0.0 {
                let len = 1.0 / lt;
                wadj[m].push((n, len));
                wadj[n].push((m, len));
            }
        }
        let da = traversal::dijkstra(&wadj, 0);
        let db = traversal::dijkstra(&wadj, 1);
        for &(m, n) in links.keys() {
            let dm = da[m].min(db[m]);
            let dn = da[n].min(db[n]);
            let v = 1.0 / (1.0 + dm.min(dn));
            a[m * k + n] = v;
            a[n * k + m] = v;
        }
    }
    a[1] = 0.0;
    a[k] = 0.0;
    a
}

/// Eq. 5: upper triangle by column, minus the target entry `A(1,2)`.
fn unfold(matrix: &[f64], k: usize, out: &mut Vec<f64>) {
    for n in 2..k {
        for m in 0..n {
            out.push(matrix[m * k + n]);
        }
    }
}

/// Runs the full naive pipeline for target `(a, b)` at prediction time
/// `l_t`, returning `(feature values, h_used, structure node count)` —
/// the oracle the optimized [`SsfExtractor`](crate::SsfExtractor) must
/// reproduce bit for bit.
///
/// # Errors
///
/// Same degenerate-target conditions as
/// [`SsfExtractor::try_extract`](crate::SsfExtractor::try_extract).
pub fn try_extract<G: GraphView + ?Sized>(
    g: &G,
    a: NodeId,
    b: NodeId,
    l_t: Timestamp,
    config: &SsfConfig,
) -> Result<(Vec<f64>, u32, usize), ExtractError> {
    if a == b {
        return Err(ExtractError::DegenerateTarget { node: a });
    }
    for node in [a, b] {
        if node as usize >= g.node_count() {
            return Err(ExtractError::UnknownEndpoint {
                node,
                node_count: g.node_count(),
            });
        }
    }
    let k = config.k;
    let mut h = 1;
    let mut hop = hop_subgraph(g, a, b, h);
    let mut s = combine(&hop);
    while s.members.len() < k && h < config.max_h {
        h += 1;
        let grown = hop_subgraph(g, a, b, h);
        if grown.node_count == hop.node_count {
            break; // component exhausted
        }
        hop = grown;
        s = combine(&hop);
    }
    // Refined init colors: distance doubled, +1 unless the structure node
    // is adjacent to both endpoints (see `SsfExtractor::compute_pair`).
    let dist: Vec<u32> = (0..s.members.len())
        .map(|x| {
            let d = s.dist[x];
            let both = s.adj[x].contains(&0) && s.adj[x].contains(&1);
            2 * d + u32::from(d >= 1 && !both)
        })
        .collect();
    let tiebreak: Vec<u64> = (0..s.members.len())
        .map(|x| s.members[x][0] as u64)
        .collect();
    let order = palette_wl(&s.adj, &dist, (0, 1), &tiebreak);
    let links = select(&s, &order, k);
    let theta = config.decay.theta();
    let mut values = Vec::with_capacity(config.feature_dim());
    match config.encoding {
        EntryEncoding::InfluenceAndStructure => {
            let infl = adjacency_matrix(
                &links,
                k,
                l_t,
                theta,
                EntryEncoding::LogInfluence,
            );
            unfold(&infl, k, &mut values);
            let bin =
                adjacency_matrix(&links, k, l_t, theta, EntryEncoding::Binary);
            unfold(&bin, k, &mut values);
        }
        enc => {
            let matrix = adjacency_matrix(&links, k, l_t, theta, enc);
            unfold(&matrix, k, &mut values);
        }
    }
    Ok((values, h, s.members.len()))
}

/// Algorithm 1 alone on the h-hop subgraph of `(a, b)`: each structure
/// node's hop-local members, its sorted neighbor row and its distance, in
/// canonical structure-node order. This is the stage-level oracle for
/// [`StructureSubgraph::combine`](crate::StructureSubgraph::combine).
///
/// # Panics
///
/// Panics if `a == b` or either endpoint is outside `g`.
pub fn structure<G: GraphView + ?Sized>(
    g: &G,
    a: NodeId,
    b: NodeId,
    h: u32,
) -> Vec<(Vec<usize>, Vec<usize>, u32)> {
    assert!(a != b, "degenerate target ({a}, {b})");
    assert!(
        (a.max(b) as usize) < g.node_count(),
        "endpoint outside the graph"
    );
    let s = combine(&hop_subgraph(g, a, b, h));
    s.members
        .into_iter()
        .zip(s.adj)
        .zip(s.dist)
        .map(|((m, adj), d)| (m, adj, d))
        .collect()
}

/// K-selection's timestamp gathering by the literal per-member scan: every
/// incident link of every member of a selected structure node, kept once
/// from its smaller endpoint when the other end is a selected member too,
/// minus the target slot pair (0, 1). Returns each slot pair `(m, n)`,
/// `m < n`, ascending, with its sorted timestamps. This is the
/// stage-level oracle for
/// [`KStructureSubgraph::select`](crate::KStructureSubgraph::select),
/// which reads each link from one owning endpoint instead.
///
/// `hop`, `s` and `order` are the optimized pipeline's stages on `g`, as
/// `select` takes them.
pub fn select_links<G: GraphView + ?Sized>(
    g: &G,
    hop: &HopSubgraph,
    s: &StructureSubgraph,
    order: &[usize],
    k: usize,
) -> Vec<((usize, usize), Vec<Timestamp>)> {
    let mut slot_of: HashMap<NodeId, usize> = HashMap::new();
    for (x, &ord) in order.iter().enumerate() {
        if ord <= k {
            for &i in s.members(x) {
                slot_of.insert(hop.global_id(i), ord - 1);
            }
        }
    }
    let mut links: HashMap<(usize, usize), Vec<Timestamp>> = HashMap::new();
    for (&u, &m) in &slot_of {
        for (v, t) in g.incident_links(u) {
            if u >= v {
                continue;
            }
            if let Some(&n) = slot_of.get(&v) {
                let key = (m.min(n), m.max(n));
                if key != (0, 1) {
                    links.entry(key).or_default().push(t);
                }
            }
        }
    }
    let mut out: Vec<((usize, usize), Vec<Timestamp>)> = links
        .into_iter()
        .map(|(key, mut ts)| {
            ts.sort_unstable();
            (key, ts)
        })
        .collect();
    out.sort_unstable();
    out
}

/// Panicking wrapper over [`try_extract`] for tests and tools.
///
/// # Panics
///
/// Panics on the [`try_extract`] error conditions.
pub fn extract<G: GraphView + ?Sized>(
    g: &G,
    a: NodeId,
    b: NodeId,
    l_t: Timestamp,
    config: &SsfConfig,
) -> (Vec<f64>, u32, usize) {
    match try_extract(g, a, b, l_t, config) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use dyngraph::DynamicNetwork;

    use super::*;
    use crate::feature::SsfExtractor;

    fn sample() -> DynamicNetwork {
        [
            (0, 2, 8),
            (1, 2, 9),
            (1, 3, 5),
            (3, 4, 6),
            (0, 5, 7),
            (0, 6, 7),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn reference_matches_extractor_on_all_encodings() {
        let g = sample();
        for enc in [
            EntryEncoding::NormalizedInfluence,
            EntryEncoding::LogInfluence,
            EntryEncoding::ReciprocalDistance,
            EntryEncoding::InfluenceAndStructure,
            EntryEncoding::LinkCount,
            EntryEncoding::Binary,
        ] {
            let cfg = SsfConfig::new(5).with_encoding(enc);
            let (vals, h, sn) = extract(&g, 0, 1, 10, &cfg);
            let f = SsfExtractor::new(cfg).extract(&g, 0, 1, 10);
            let bits =
                |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&vals), bits(f.values()), "{enc:?}");
            assert_eq!(h, f.radius());
            assert_eq!(sn, f.structure_node_count());
        }
    }

    #[test]
    fn reference_reports_degenerate_targets() {
        let g = sample();
        let cfg = SsfConfig::new(4);
        assert!(matches!(
            try_extract(&g, 1, 1, 5, &cfg),
            Err(ExtractError::DegenerateTarget { node: 1 })
        ));
        assert!(matches!(
            try_extract(&g, 0, 99, 5, &cfg),
            Err(ExtractError::UnknownEndpoint { node: 99, .. })
        ));
    }
}
