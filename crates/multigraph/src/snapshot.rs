#![forbid(unsafe_code)]
//! Binary snapshots of the offline stage.
//!
//! The paper's offline stage is run once and its output reused across
//! queries (Table 5 reports the stored database size). This module
//! serializes a loaded [`RdfGraph`] — dictionaries plus multigraph — into a
//! versioned, length-prefixed binary image and restores it without
//! re-parsing the original N-Triples. Index structures are *not* stored:
//! they rebuild in linear time from the graph (also how the paper accounts
//! them separately).
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic  "AMBR"            4 bytes
//! version u32              currently 1
//! flags   u8               bit 0 = literals_as_vertices
//! triple_count u64
//! 3 × dictionary           u32 count, then count × (u32 len, utf-8 bytes);
//!                          Mv, Me, then Ma with each key spelled
//!                          `predicate \0 literal`
//! vertex_count u32
//! per vertex: out-adjacency u32 entries, then per entry:
//!             u32 neighbor, u32 type_count, type_count × u32
//! per vertex: u32 attr_count, attr_count × u32
//! ```
//!
//! The incoming adjacency is reconstructed from the outgoing lists, which
//! halves the image size at a small load cost.
//!
//! Restoring treats the image as untrusted input. Each dictionary is read
//! into one arena and its probe table built in one pass (an `Ma` key is
//! split at its first `\0`, its predicate interned and the key re-spelled
//! by the predicate's id, as the builder spells it); the adjacency and
//! attribute sections are read into the same flat id tuples the triple
//! builder produces and go through the same `DataGraph::assemble`. No count
//! or length field sizes an allocation — vectors grow by what was actually
//! read — and an image that would restore into a graph the engine could
//! misread (a repeated dictionary key, an `Ma` key without a `\0`, a
//! literal key spelled with an `xsd:string` datatype the canonical form
//! omits, a multi-edge without types, neighbours out of order, an id past
//! its table) ends in [`SnapshotError::CorruptIds`].

use crate::builder::{GraphConfig, RdfGraph};
use crate::data_graph::{DataGraph, Direction};
use crate::dictionary::{write_attribute_prefix, Dictionaries, Dictionary};
use crate::ids::{AttrId, EdgeTypeId, VertexId};
use rdf_model::XSD_STRING;
use std::fmt;

const MAGIC: &[u8; 4] = b"AMBR";
const VERSION: u32 = 1;

/// Snapshot decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Missing/incorrect magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The image ended prematurely or a length field overruns it.
    Truncated,
    /// A dictionary entry is not valid UTF-8.
    BadUtf8,
    /// The image is well-formed but inconsistent: an id references past
    /// its table, a dictionary key repeats, an `Ma` key has no `\0`, a
    /// literal key carries the `xsd:string` datatype its canonical form
    /// omits, a multi-edge has no types, or a vertex's neighbours are not
    /// strictly ascending.
    CorruptIds,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an AMbER snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot is truncated or corrupt"),
            SnapshotError::BadUtf8 => write!(f, "snapshot dictionary contains invalid UTF-8"),
            SnapshotError::CorruptIds => {
                write!(f, "snapshot ids, keys or adjacency are inconsistent")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// One dictionary section: the key count, then each key, written from
/// its parts, as its length and bytes.
fn put_keys<'k, const PARTS: usize>(
    buf: &mut Vec<u8>,
    count: usize,
    keys: impl Iterator<Item = [&'k str; PARTS]>,
) {
    put_u32(buf, count as u32);
    for parts in keys {
        put_u32(
            buf,
            parts.iter().map(|part| part.len()).sum::<usize>() as u32,
        );
        for part in parts {
            buf.extend_from_slice(part.as_bytes());
        }
    }
}

fn put_dictionary(buf: &mut Vec<u8>, dict: &Dictionary) {
    put_keys(buf, dict.len(), dict.iter().map(|(_, key)| [key]));
}

/// A read cursor over an image: every read checks what remains first.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `len` bytes, or `Truncated` when fewer remain.
    fn take(&mut self, len: usize) -> Result<&'a [u8], SnapshotError> {
        if self.rest.len() < len {
            return Err(SnapshotError::Truncated);
        }
        let (head, rest) = self.rest.split_at(len);
        self.rest = rest;
        Ok(head)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        self.take_array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        self.take_array().map(u64::from_le_bytes)
    }

    fn dictionary(&mut self) -> Result<Dictionary, SnapshotError> {
        self.dictionary_with(|arena, key| {
            arena.push_str(key);
            Ok(())
        })
    }

    /// A dictionary section whose keys `push` appends to the arena in
    /// their in-memory spelling.
    fn dictionary_with(
        &mut self,
        mut push: impl FnMut(&mut String, &str) -> Result<(), SnapshotError>,
    ) -> Result<Dictionary, SnapshotError> {
        let count = self.u32()? as usize;
        // Every entry occupies at least its four length bytes.
        let mut ends = Vec::with_capacity(count.min(self.remaining() / 4));
        let mut arena = String::new();
        for _ in 0..count {
            let len = self.u32()? as usize;
            let key = std::str::from_utf8(self.take(len)?).map_err(|_| SnapshotError::BadUtf8)?;
            push(&mut arena, key)?;
            ends.push(u32::try_from(arena.len()).map_err(|_| SnapshotError::CorruptIds)?);
        }
        arena.shrink_to_fit();
        Dictionary::from_arena(arena, ends).ok_or(SnapshotError::CorruptIds)
    }

    /// The `Ma` section: each `predicate \0 literal` key re-spelled by its
    /// predicate's id in `predicates`, which it interns.
    fn attributes(&mut self, predicates: &mut Dictionary) -> Result<Dictionary, SnapshotError> {
        self.dictionary_with(|arena, key| {
            // An empty predicate is kept: no reader accepts `<>` any more,
            // but an image written while the Turtle reader did may hold one.
            let (predicate, literal) = key.split_once('\u{0}').ok_or(SnapshotError::CorruptIds)?;
            if is_unnormalized_literal(literal) {
                return Err(SnapshotError::CorruptIds);
            }
            write_attribute_prefix(arena, predicates.intern(predicate))
                .ok_or(SnapshotError::CorruptIds)?;
            arena.push_str(literal);
            Ok(())
        })
    }
}

/// Is `key` a literal spelled with an `xsd:string` datatype? The builder
/// never composes one (the canonical form omits that datatype), so a query
/// could never reach it.
fn is_unnormalized_literal(key: &str) -> bool {
    key.starts_with('"')
        && key
            .strip_suffix('>')
            .and_then(|rest| rest.strip_suffix(XSD_STRING))
            .is_some_and(|rest| rest.ends_with("\"^^<"))
}

impl RdfGraph {
    /// Serialize to a binary image.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let graph = self.graph();
        let mut buf = Vec::with_capacity(64 + 16 * graph.edge_pair_count());
        buf.extend_from_slice(MAGIC);
        put_u32(&mut buf, VERSION);
        buf.push(u8::from(self.config().literals_as_vertices));
        buf.extend_from_slice(&(self.triple_count() as u64).to_le_bytes());
        put_dictionary(&mut buf, &self.dictionaries().vertices);
        put_dictionary(&mut buf, &self.dictionaries().edge_types);
        let dicts = self.dictionaries();
        let attributes = (0..dicts.attributes.len() as u32).map(|attr| {
            let (predicate, literal) = dicts
                .resolve_attribute(AttrId(attr))
                .expect("attribute id from this graph");
            [predicate, "\u{0}", literal]
        });
        put_keys(&mut buf, dicts.attributes.len(), attributes);

        put_u32(&mut buf, graph.vertex_count() as u32);
        for v in graph.vertices() {
            // One record per multi-edge: its neighbour, then its types.
            let multi_edges = || graph.multi_edges(v, Direction::Outgoing);
            put_u32(&mut buf, multi_edges().count() as u32);
            for run in multi_edges() {
                put_u32(&mut buf, run[0].neighbor.0);
                put_u32(&mut buf, run.len() as u32);
                for entry in run {
                    put_u32(&mut buf, entry.edge_type().0);
                }
            }
        }
        for v in graph.vertices() {
            let attrs = graph.attributes(v);
            put_u32(&mut buf, attrs.len() as u32);
            for a in attrs {
                put_u32(&mut buf, a.0);
            }
        }
        buf
    }

    /// Restore from a binary image.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let buf = &mut Reader { rest: bytes };
        if buf.take(MAGIC.len()).ok() != Some(&MAGIC[..]) {
            return Err(SnapshotError::BadMagic);
        }
        let version = buf.u32()?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let flags = buf.take(1)?[0];
        let config = GraphConfig {
            literals_as_vertices: flags & 1 != 0,
        };
        let triple_count = buf.u64()? as usize;

        let vertices = buf.dictionary()?;
        let edge_types = buf.dictionary()?;
        let mut attribute_predicates = Dictionary::new();
        let attributes = buf.attributes(&mut attribute_predicates)?;
        attribute_predicates.shrink_to_fit();
        let dicts = Dictionaries {
            vertices,
            edge_types,
            attributes,
            attribute_predicates,
        };

        let literal_vertices = config.literals_as_vertices.then_some(&dicts.vertices);
        let unnormalized = literal_vertices
            .into_iter()
            .flat_map(|d| d.iter().map(|(_, key)| key))
            .any(is_unnormalized_literal);
        if unnormalized {
            return Err(SnapshotError::CorruptIds);
        }

        let vertex_count = buf.u32()? as usize;
        if vertex_count != dicts.vertices.len() {
            return Err(SnapshotError::CorruptIds);
        }
        let mut edges = Vec::new();
        for from in 0..vertex_count as u32 {
            let entries = buf.u32()?;
            let mut previous = None;
            for _ in 0..entries {
                let neighbor = buf.u32()?;
                // The lists are binary-searched: strictly ascending or bust.
                if neighbor as usize >= vertex_count || previous.is_some_and(|p| p >= neighbor) {
                    return Err(SnapshotError::CorruptIds);
                }
                previous = Some(neighbor);
                let type_count = buf.u32()?;
                if type_count == 0 {
                    return Err(SnapshotError::CorruptIds);
                }
                for _ in 0..type_count {
                    let t = buf.u32()?;
                    if t as usize >= dicts.edge_types.len() {
                        return Err(SnapshotError::CorruptIds);
                    }
                    edges.push((VertexId(from), VertexId(neighbor), EdgeTypeId(t)));
                }
            }
        }
        let mut attrs = Vec::new();
        for vertex in 0..vertex_count as u32 {
            let count = buf.u32()?;
            for _ in 0..count {
                let a = buf.u32()?;
                if a as usize >= dicts.attributes.len() {
                    return Err(SnapshotError::CorruptIds);
                }
                attrs.push((VertexId(vertex), AttrId(a)));
            }
        }
        if buf.remaining() > 0 {
            return Err(SnapshotError::Truncated); // trailing garbage
        }
        let graph = DataGraph::assemble(vertex_count, edges, attrs, dicts.edge_types.len());
        Ok(Self::from_restored(graph, dicts, triple_count, config))
    }

    /// Write a snapshot file.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_snapshot())
    }

    /// Read a snapshot file.
    pub fn load_snapshot(
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, Box<dyn std::error::Error + Send + Sync>> {
        let bytes = std::fs::read(path)?;
        Ok(Self::from_snapshot(&bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::paper::{paper_graph, paper_triples};
    use crate::reference::{encode_image, Adjacency, Attributes};

    fn assert_graphs_equal(a: &RdfGraph, b: &RdfGraph) {
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.config(), b.config());
        let (ga, gb) = (a.graph(), b.graph());
        for v in ga.vertices() {
            assert_eq!(a.vertex_name(v), b.vertex_name(v));
            assert_eq!(ga.out_edges(v), gb.out_edges(v));
            assert_eq!(ga.in_edges(v), gb.in_edges(v));
            assert_eq!(ga.attributes(v), gb.attributes(v));
        }
        for (id, key) in a.dictionaries().edge_types.iter() {
            assert_eq!(b.dictionaries().edge_types.resolve(id), Some(key));
        }
        for (id, key) in a.dictionaries().attributes.iter() {
            assert_eq!(b.dictionaries().attributes.resolve(id), Some(key));
        }
    }

    #[test]
    fn round_trips_the_paper_graph() {
        let original = paper_graph();
        let image = original.to_snapshot();
        let restored = RdfGraph::from_snapshot(&image).expect("valid image");
        assert_graphs_equal(&original, &restored);
    }

    #[test]
    fn round_trips_extension_mode() {
        let mut builder = GraphBuilder::with_config(GraphConfig {
            literals_as_vertices: true,
        });
        let triples = paper_triples();
        builder.add_triples(&triples);
        let original = builder.finish();
        let restored = RdfGraph::from_snapshot(&original.to_snapshot()).unwrap();
        assert!(restored.config().literals_as_vertices);
        assert_graphs_equal(&original, &restored);
    }

    #[test]
    fn round_trips_empty_graph() {
        let original = RdfGraph::from_triples([]);
        let restored = RdfGraph::from_snapshot(&original.to_snapshot()).unwrap();
        assert_graphs_equal(&original, &restored);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert_eq!(
            RdfGraph::from_snapshot(b"NOPE").unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut image = paper_graph().to_snapshot();
        image[4] = 99; // version field
        assert_eq!(
            RdfGraph::from_snapshot(&image).unwrap_err(),
            SnapshotError::BadVersion(99)
        );
    }

    #[test]
    fn rejects_truncation_at_every_prefix_length() {
        let image = paper_graph().to_snapshot();
        // every strict prefix must fail cleanly, never panic
        for len in 0..image.len() {
            assert!(
                RdfGraph::from_snapshot(&image[..len]).is_err(),
                "prefix of {len} bytes decoded successfully?!"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut image = paper_graph().to_snapshot();
        image.extend_from_slice(b"extra");
        assert_eq!(
            RdfGraph::from_snapshot(&image).unwrap_err(),
            SnapshotError::Truncated
        );
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("amber_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("paper.amber");
        let original = paper_graph();
        original.save_snapshot(&path).unwrap();
        let restored = RdfGraph::load_snapshot(&path).unwrap();
        assert_graphs_equal(&original, &restored);
        std::fs::remove_file(&path).ok();
    }

    /// A small valid image, as tables: v0 -{t0,t1}-> v1, v0 -{t0}-> v2,
    /// v2 -{t1}-> v2; v0 carries a0, v2 carries a0 and a1.
    fn tables() -> (Adjacency, Attributes) {
        (
            vec![
                vec![(1, vec![0, 1]), (2, vec![0])],
                vec![],
                vec![(2, vec![1])],
            ],
            vec![vec![0], vec![], vec![0, 1]],
        )
    }
    /// `Ma` keys as images spell them: `predicate \0 literal`.
    const DICTS: [&[&str]; 3] = [
        &["v0", "v1", "v2"],
        &["t0", "t1"],
        &["p\u{0}\"0\"", "p\u{0}\"1\""],
    ];

    fn restore(
        dicts: [&[&str]; 3],
        adjacency: &Adjacency,
        attrs: &Attributes,
    ) -> Result<RdfGraph, SnapshotError> {
        RdfGraph::from_snapshot(&encode_image(false, 4, dicts, adjacency, attrs))
    }

    #[test]
    fn hand_encoded_image_restores_and_re_encodes() {
        let (adjacency, attrs) = tables();
        let image = encode_image(false, 4, DICTS, &adjacency, &attrs);
        let rdf = RdfGraph::from_snapshot(&image).unwrap();
        assert_eq!(rdf.to_snapshot(), image);
        let g = rdf.graph();
        assert_eq!(g.in_edges(VertexId(2)).len(), 2);
        assert_eq!(g.in_edges(VertexId(2))[0].neighbor, VertexId(0));
        assert_eq!((g.edge_pair_count(), g.edge_instance_count()), (3, 4));
        assert_eq!(rdf.vertex_by_key("v1"), Some(VertexId(1)));
    }

    #[test]
    fn unordered_types_and_attributes_are_normalized() {
        let (mut adjacency, mut attrs) = tables();
        adjacency[0][0].1 = vec![1, 0, 1];
        attrs[2] = vec![1, 0, 1];
        let rdf = restore(DICTS, &adjacency, &attrs).unwrap();
        let (adjacency, attrs) = tables();
        assert_eq!(
            rdf.to_snapshot(),
            encode_image(false, 4, DICTS, &adjacency, &attrs)
        );
    }

    #[test]
    fn rejects_a_repeated_dictionary_key() {
        // Interning used to hand the repeat its first id, shifting every
        // later id by one against the adjacency section.
        let (adjacency, attrs) = tables();
        for which in 0..3 {
            let mut dicts = DICTS;
            let repeated: &[&str] = match which {
                0 => &["v0", "v1", "v0"],
                1 => &["t0", "t0"],
                _ => &[DICTS[2][1], DICTS[2][1]],
            };
            dicts[which] = repeated;
            assert_eq!(
                restore(dicts, &adjacency, &attrs).unwrap_err(),
                SnapshotError::CorruptIds
            );
        }
    }

    #[test]
    fn rejects_an_attribute_key_that_is_not_one_pair() {
        // Restoring splits each `Ma` key at its first `\0` and interns the
        // halves: a key that does not split into a predicate and a literal
        // has no in-memory spelling, and two keys for one pair would merge.
        let (adjacency, attrs) = tables();
        let pair = DICTS[2][0];
        for attributes in [
            &["p\"0\"", DICTS[2][1]][..], // no `\0`
            &[DICTS[2][0], "p\"1\""],     // no `\0` in a later key
            &[pair, "q\u{0}\"0\"", pair], // one pair twice, apart
        ] {
            let dicts = [DICTS[0], DICTS[1], attributes];
            assert_eq!(
                restore(dicts, &adjacency, &attrs).unwrap_err(),
                SnapshotError::CorruptIds,
                "{attributes:?}"
            );
        }
        // A `\0` after the first belongs to the literal, and one literal
        // may sit under two predicates. One may be the empty IRI: every
        // reader refuses `<>`, but an image saved while the Turtle reader
        // accepted it still loads.
        let attributes: &[&str] = &["p\u{0}\"0\u{0}\"", "\u{0}\"0\u{0}\""];
        let image = encode_image(
            false,
            4,
            [DICTS[0], DICTS[1], attributes],
            &adjacency,
            &attrs,
        );
        let rdf = RdfGraph::from_snapshot(&image).unwrap();
        assert_eq!(rdf.to_snapshot(), image);
        let dicts = rdf.dictionaries();
        assert_eq!(dicts.resolve_attribute(AttrId(1)), Some(("", "\"0\u{0}\"")));
        assert_eq!(dicts.attribute_predicates.len(), 2);
    }

    #[test]
    fn rejects_a_literal_key_spelled_with_xsd_string() {
        let (adjacency, attrs) = tables();
        let spelled = "p\u{0}\"x\"^^<http://www.w3.org/2001/XMLSchema#string>";
        for (attribute, expected) in [
            (spelled, Err(SnapshotError::CorruptIds)),
            ("p\u{0}\"x\"", Ok(())),
            (
                "p\u{0}\"x\"^^<http://www.w3.org/2001/XMLSchema#integer>",
                Ok(()),
            ),
            (
                "p\u{0}\"x^^<http://www.w3.org/2001/XMLSchema#string>\"",
                Ok(()),
            ),
        ] {
            let dicts = [DICTS[0], DICTS[1], &[attribute, DICTS[2][1]]];
            let restored = restore(dicts, &adjacency, &attrs).map(|_| ());
            assert_eq!(restored, expected, "{attribute:?}");
        }
        // A literal vertex, in the mode that makes literals vertices.
        let vertices: &[&str] = &[
            "v0",
            "\"x\"^^<http://www.w3.org/2001/XMLSchema#string>",
            "v2",
        ];
        for (literals_as_vertices, expected) in
            [(true, Err(SnapshotError::CorruptIds)), (false, Ok(()))]
        {
            let image = encode_image(
                literals_as_vertices,
                4,
                [vertices, DICTS[1], DICTS[2]],
                &adjacency,
                &attrs,
            );
            assert_eq!(RdfGraph::from_snapshot(&image).map(|_| ()), expected);
        }
    }

    #[test]
    fn rejects_inconsistent_adjacency() {
        let corrupt = |edit: fn(&mut Adjacency, &mut Attributes)| {
            let (mut adjacency, mut attrs) = tables();
            edit(&mut adjacency, &mut attrs);
            restore(DICTS, &adjacency, &attrs).unwrap_err()
        };
        // a multi-edge without types
        assert_eq!(
            corrupt(|adj, _| adj[0][1].1.clear()),
            SnapshotError::CorruptIds
        );
        // neighbours out of order, and repeated
        assert_eq!(
            corrupt(|adj, _| adj[0].swap(0, 1)),
            SnapshotError::CorruptIds
        );
        assert_eq!(corrupt(|adj, _| adj[0][1].0 = 1), SnapshotError::CorruptIds);
        // ids past their tables
        assert_eq!(corrupt(|adj, _| adj[0][1].0 = 3), SnapshotError::CorruptIds);
        assert_eq!(
            corrupt(|adj, _| adj[2][0].1[0] = 2),
            SnapshotError::CorruptIds
        );
        assert_eq!(
            corrupt(|_, attrs| attrs[1].push(2)),
            SnapshotError::CorruptIds
        );
        // a vertex count that disagrees with the dictionary
        assert_eq!(
            corrupt(|adj, attrs| {
                adj.pop();
                attrs.pop();
            }),
            SnapshotError::CorruptIds
        );
    }

    #[test]
    fn length_fields_do_not_size_allocations() {
        // Each edit turns one count into u32::MAX. Were the count trusted
        // for a `with_capacity`, the restore would ask the allocator for
        // 16 GiB or more and abort the process; instead the loop runs out
        // of bytes.
        let (adjacency, attrs) = tables();
        let image = encode_image(false, 4, DICTS, &adjacency, &attrs);
        let header = 4 + 4 + 1 + 8;
        let vertex_dictionary = 4 + 3 * (4 + 2);
        let dictionaries = vertex_dictionary + (4 + 2 * (4 + 2)) + (4 + 2 * (4 + 5));
        use SnapshotError::{CorruptIds, Truncated};
        for (at, expected) in [
            (header, Truncated),     // vertex dictionary entry count
            (header + 4, Truncated), // first key length
            // v0's adjacency entry count: the next list is read as entries
            (header + dictionaries + 4, CorruptIds),
            (header + dictionaries + 4 + 8, CorruptIds), // first multi-edge's type count
            (image.len() - 12, Truncated),               // v2's attribute count
        ] {
            let mut hostile = image.clone();
            hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(
                RdfGraph::from_snapshot(&hostile).unwrap_err(),
                expected,
                "count at byte {at}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// Truncate, flip and extend a real image: a typed error or a
        /// graph that re-encodes, never a panic.
        #[test]
        fn mutated_images_fail_typed_or_restore(
            cut in 0..600usize,
            at in 0..600usize,
            byte in 0..=255u8,
            extra in proptest::prop::collection::vec(0..=255u8, 0..6),
        ) {
            let image = paper_graph().to_snapshot();
            let mut mutated = image.clone();
            mutated[at % image.len()] = byte;
            let mut extended = image.clone();
            extended.extend_from_slice(&extra);
            for candidate in [&image[..cut % image.len()], &mutated[..], &extended[..]] {
                if let Ok(rdf) = RdfGraph::from_snapshot(candidate) {
                    let again = RdfGraph::from_snapshot(&rdf.to_snapshot()).expect("own image");
                    assert_graphs_equal(&rdf, &again);
                }
            }
        }
    }
}
