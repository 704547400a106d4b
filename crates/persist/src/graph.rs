//! `FrozenGraph` ⇄ snapshot sections.
//!
//! The on-disk layout mirrors [`FrozenGraph`]'s in-memory CSR arrays
//! exactly, one section per flat array plus a small meta section with
//! the counters: `graph.offsets`/`graph.nbr_offsets` as `u64`, ids and
//! timestamps as raw `u32` (the format-version-1 layout, unchanged
//! since).
//!
//! Decoding funnels the arrays through [`FrozenGraph::try_from_parts`],
//! so a graph that loads is a graph whose every structural invariant
//! has been re-proven — checksums catch flipped bits, the validator
//! catches a consistent-looking but internally wrong CSR. A payload
//! without these sections — such as the varint-packed `graph.c32.*`
//! layout some version-2 and version-3 files carry — is refused as
//! [`PersistError::Corrupt`].

use dyngraph::{FrozenGraph, FrozenGraphParts, GraphView, NodeId};

use crate::codec::{put_u32, put_u64, put_usize, Cursor};
use crate::error::{corrupt, PersistError};
use crate::snapshot::{SnapshotReader, SnapshotWriter};

/// Section names for the graph payload.
pub const SEC_GRAPH_META: &str = "graph.meta";
/// Incident-link row bounds, `u64` each.
pub const SEC_GRAPH_OFFSETS: &str = "graph.offsets";
/// Flat neighbor ids, `u32` each.
pub const SEC_GRAPH_NEIGHBORS: &str = "graph.neighbors";
/// Flat timestamps, `u32` each, parallel to the neighbors.
pub const SEC_GRAPH_TIMESTAMPS: &str = "graph.timestamps";
/// Distinct-neighbor row bounds, `u64` each.
pub const SEC_GRAPH_NBR_OFFSETS: &str = "graph.nbr_offsets";
/// Flat distinct-neighbor ids, `u32` each.
pub const SEC_GRAPH_NBR_IDS: &str = "graph.nbr_ids";

/// Writes `g` into `w` as `graph.*` sections, reading the rows through
/// its [`GraphView`] in node order.
pub fn encode_graph(g: &FrozenGraph, w: &mut SnapshotWriter) {
    let (min_ts, max_ts) = g.raw_timestamp_bounds();
    let mut meta = Vec::with_capacity(8 * 3 + 4 * 2);
    put_u64(&mut meta, g.link_count() as u64);
    put_u64(&mut meta, g.node_count() as u64);
    put_u64(&mut meta, g.revision());
    put_u32(&mut meta, min_ts);
    put_u32(&mut meta, max_ts);
    w.section(SEC_GRAPH_META, meta);

    let n = g.node_count();
    let slots = 2 * g.link_count();
    let mut offsets = Vec::with_capacity(8 * (n + 1));
    let mut neighbors = Vec::with_capacity(4 * slots);
    let mut timestamps = Vec::with_capacity(4 * slots);
    let mut nbr_offsets = Vec::with_capacity(8 * (n + 1));
    let mut nbr_ids = Vec::new();
    let (mut slot_end, mut nbr_end) = (0usize, 0usize);
    put_usize(&mut offsets, 0);
    put_usize(&mut nbr_offsets, 0);
    for u in 0..n as NodeId {
        for (v, t) in g.incident_links(u) {
            put_u32(&mut neighbors, v);
            put_u32(&mut timestamps, t);
        }
        slot_end += g.multi_degree(u);
        put_usize(&mut offsets, slot_end);
        let row = g.distinct_neighbors(u);
        for &v in row {
            put_u32(&mut nbr_ids, v);
        }
        nbr_end += row.len();
        put_usize(&mut nbr_offsets, nbr_end);
    }
    w.section(SEC_GRAPH_OFFSETS, offsets);
    w.section(SEC_GRAPH_NEIGHBORS, neighbors);
    w.section(SEC_GRAPH_TIMESTAMPS, timestamps);
    w.section(SEC_GRAPH_NBR_OFFSETS, nbr_offsets);
    w.section(SEC_GRAPH_NBR_IDS, nbr_ids);
}

/// Reads the `graph.*` sections of `r` back into a validated
/// [`FrozenGraph`].
///
/// # Errors
///
/// Returns [`PersistError::Corrupt`] if any section is missing,
/// malformed, or the reassembled CSR violates a structural invariant.
pub fn decode_graph(r: &SnapshotReader) -> Result<FrozenGraph, PersistError> {
    let mut meta = Cursor::new(SEC_GRAPH_META, r.require(SEC_GRAPH_META)?);
    let num_links = meta.usize()?;
    let node_count = meta.usize()?;
    let revision = meta.u64()?;
    let min_ts = meta.u32()?;
    let max_ts = meta.u32()?;
    meta.finish()?;

    let read_usizes = |name: &'static str, count: usize| {
        let mut c = Cursor::new(name, r.require(name)?);
        let out = c.usizes(count)?;
        c.finish()?;
        Ok::<_, PersistError>(out)
    };
    let read_u32s = |name: &'static str, count: usize| {
        let mut c = Cursor::new(name, r.require(name)?);
        let out = c.u32s(count)?;
        c.finish()?;
        Ok::<_, PersistError>(out)
    };

    // Both counts come off the disk: derive the array lengths with
    // checked arithmetic, and let the bounds-checked reads refuse any
    // length the section bytes do not back.
    let rows = node_count
        .checked_add(1)
        .ok_or_else(|| corrupt(SEC_GRAPH_META, "node count overflows"))?;
    let slots = num_links
        .checked_mul(2)
        .ok_or_else(|| corrupt(SEC_GRAPH_META, "link count overflows"))?;
    let offsets = read_usizes(SEC_GRAPH_OFFSETS, rows)?;
    let neighbors = read_u32s(SEC_GRAPH_NEIGHBORS, slots)?;
    let timestamps = read_u32s(SEC_GRAPH_TIMESTAMPS, slots)?;
    let nbr_offsets = read_usizes(SEC_GRAPH_NBR_OFFSETS, rows)?;
    let nbr_count = *nbr_offsets.last().unwrap_or(&0);
    let nbr_ids = read_u32s(SEC_GRAPH_NBR_IDS, nbr_count)?;

    FrozenGraph::try_from_parts(FrozenGraphParts {
        offsets,
        neighbors,
        timestamps,
        nbr_offsets,
        nbr_ids,
        num_links,
        min_ts,
        max_ts,
        revision,
    })
    .map_err(|e| PersistError::Corrupt {
        section: "graph".to_string(),
        detail: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use dyngraph::DynamicNetwork;

    use super::*;
    use crate::snapshot::SnapshotReader;

    fn network() -> DynamicNetwork {
        let mut g = DynamicNetwork::new();
        g.add_link(0, 1, 3);
        g.add_link(1, 2, 5);
        g.add_link(0, 1, 4);
        g.add_link(3, 1, 2);
        g.ensure_node(6);
        g
    }

    fn sample() -> FrozenGraph {
        FrozenGraph::from_view(&network())
    }

    fn round_trip(g: &FrozenGraph) -> FrozenGraph {
        let mut w = SnapshotWriter::new();
        encode_graph(g, &mut w);
        let r = SnapshotReader::from_bytes(&w.to_bytes()).unwrap();
        decode_graph(&r).unwrap()
    }

    #[test]
    fn graph_round_trips_bit_identically() {
        let g = sample();
        assert_eq!(round_trip(&g), g);
        let empty = FrozenGraph::empty();
        assert_eq!(round_trip(&empty), empty);
    }

    /// A graph payload in the varint-packed `graph.c32.*` layout that
    /// format versions 2 and 3 wrote for compact graphs (the fixture is
    /// such a file, holding the `network()` graph). The container still
    /// opens — the version is in range and every checksum holds — but
    /// the graph is refused with a typed error, never a panic.
    #[test]
    fn compact_layout_payload_is_refused_as_corrupt() {
        let bytes = include_bytes!("../fixtures/compact_graph_v3.ssf1");
        let r = SnapshotReader::from_bytes(bytes).unwrap();
        assert!(r.section_names().any(|n| n == "graph.c32.arena"));
        assert!(r.section(SEC_GRAPH_OFFSETS).is_none());
        match decode_graph(&r) {
            Err(PersistError::Corrupt { section, .. }) => {
                assert_eq!(section, SEC_GRAPH_OFFSETS);
            }
            other => panic!("expected a Corrupt refusal, got {other:?}"),
        }
    }

    #[test]
    fn payload_corruption_is_typed_not_panicking() {
        let g = sample();
        let mut w = SnapshotWriter::new();
        encode_graph(&g, &mut w);
        let bytes = w.to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] = bad[i].wrapping_add(1);
            let outcome =
                SnapshotReader::from_bytes(&bad).and_then(|r| decode_graph(&r));
            match outcome {
                Err(PersistError::Corrupt { .. }) => {}
                Err(other) => panic!("byte {i}: unexpected {other}"),
                Ok(got) => {
                    assert_eq!(got, g, "byte {i} silently changed the graph")
                }
            }
        }
    }

    /// `g`'s snapshot with its `graph.meta` counts replaced: every
    /// section still checksums, but the meta lies about the arrays.
    fn with_counts(g: &FrozenGraph, links: u64, nodes: u64) -> SnapshotReader {
        let mut w = SnapshotWriter::new();
        encode_graph(g, &mut w);
        let r = SnapshotReader::from_bytes(&w.to_bytes()).unwrap();
        let (min_ts, max_ts) = g.raw_timestamp_bounds();
        let mut meta = Vec::new();
        put_u64(&mut meta, links);
        put_u64(&mut meta, nodes);
        put_u64(&mut meta, g.revision());
        put_u32(&mut meta, min_ts);
        put_u32(&mut meta, max_ts);
        let mut lying = SnapshotWriter::new();
        lying.section(SEC_GRAPH_META, meta);
        for name in r.section_names() {
            if name != SEC_GRAPH_META {
                lying.section(name, r.require(name).unwrap().to_vec());
            }
        }
        SnapshotReader::from_bytes(&lying.to_bytes()).unwrap()
    }

    #[test]
    fn cross_section_lies_are_caught_by_the_validator() {
        // Sections that each checksum fine but disagree with each
        // other: claim one fewer link than the arrays hold.
        let g = sample();
        let r =
            with_counts(&g, g.link_count() as u64 - 1, g.node_count() as u64);
        assert!(matches!(
            decode_graph(&r),
            Err(PersistError::Corrupt { .. })
        ));
    }

    /// Counts no section can back are refused before anything is
    /// allocated for them: 2^40 links would ask for 8.8 TB, `i64::MAX`
    /// links overflow a `Vec` capacity and `u64::MAX` nodes the row
    /// count.
    #[test]
    fn hostile_counts_are_corrupt_not_an_abort() {
        let g = sample();
        let nodes = g.node_count() as u64;
        let links = g.link_count() as u64;
        for (links, nodes) in [
            (1 << 40, nodes),
            (i64::MAX as u64, nodes),
            (u64::MAX, nodes),
            (links, u64::MAX),
            (links, 1 << 40),
        ] {
            match decode_graph(&with_counts(&g, links, nodes)) {
                Err(PersistError::Corrupt { .. }) => {}
                other => panic!("({links}, {nodes}): {other:?}"),
            }
        }
    }
}
