//! The offline transformation as first written, for tests: owned keys,
//! an ordered map per vertex pair and a set per vertex ([`Model`]),
//! encoded by an image writer of its own. The builder, fed the text or the
//! owned triples, must produce the same snapshot bytes, and the data
//! graph's adjacency must read back the model's pairs.
//!
//! The crate's unit tests use it as a module, and the root
//! `tests/load_path.rs` and `tests/adjacency_reference.rs` include this
//! file by path (the text route at the benchmark's scale; the adjacency
//! and the indexes built on it), so it uses nothing but `rdf_model` and
//! `std`.

use rdf_model::{Object, Triple};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Per vertex, its `(neighbor, types)` entries.
pub type Adjacency = Vec<Vec<(u32, Vec<u32>)>>;
/// Per vertex, its attribute ids.
pub type Attributes = Vec<Vec<u32>>;

/// The transformation's tables, built the slow and obvious way: ids in
/// first-seen order, one ordered type set per vertex pair and one
/// attribute set per vertex.
pub struct Model {
    vertices: Keys,
    edge_types: Keys,
    attributes: Keys,
    /// Per `(from, to)` pair carrying an edge, its edge types.
    pub pairs: BTreeMap<(u32, u32), BTreeSet<u32>>,
    owned: BTreeMap<u32, BTreeSet<u32>>,
}

impl Model {
    /// Transform `triples`.
    pub fn of(triples: &[Triple], literals_as_vertices: bool) -> Self {
        let (mut vertices, mut edge_types, mut attributes) =
            (Keys::default(), Keys::default(), Keys::default());
        let mut pairs: BTreeMap<(u32, u32), BTreeSet<u32>> = BTreeMap::new();
        let mut owned: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for triple in triples {
            let subject = vertices.intern(triple.subject.dictionary_key());
            match &triple.object {
                Object::Literal(literal) if !literals_as_vertices => {
                    let key = format!("{}\u{0}{literal}", triple.predicate.as_str());
                    owned
                        .entry(subject)
                        .or_default()
                        .insert(attributes.intern(key));
                }
                object => {
                    let key = object.resource_key().unwrap_or_else(|| object.to_string());
                    let object = vertices.intern(key);
                    let edge_type = edge_types.intern(triple.predicate.as_str().to_owned());
                    pairs
                        .entry((subject, object))
                        .or_default()
                        .insert(edge_type);
                }
            }
        }
        Self {
            vertices,
            edge_types,
            attributes,
            pairs,
            owned,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.keys.len()
    }
}

/// The snapshot image of `triples`, built the slow and obvious way.
pub fn reference_snapshot(triples: &[Triple], literals_as_vertices: bool) -> Vec<u8> {
    let model = Model::of(triples, literals_as_vertices);
    let vertex_count = model.vertex_count();
    let Model {
        vertices,
        edge_types,
        attributes,
        pairs,
        mut owned,
    } = model;
    let mut adjacency = vec![Vec::new(); vertex_count];
    for ((from, to), types) in pairs {
        adjacency[from as usize].push((to, types.into_iter().collect()));
    }
    let attrs: Attributes = (0..vertex_count as u32)
        .map(|v| owned.remove(&v).into_iter().flatten().collect())
        .collect();
    encode_image(
        literals_as_vertices,
        triples.len() as u64,
        [
            &vertices.borrowed(),
            &edge_types.borrowed(),
            &attributes.borrowed(),
        ],
        &adjacency,
        &attrs,
    )
}

/// Keys in first-seen order, found again by hash.
#[derive(Default)]
struct Keys {
    keys: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Keys {
    fn intern(&mut self, key: String) -> u32 {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.keys.len() as u32;
        self.ids.insert(key.clone(), id);
        self.keys.push(key);
        id
    }

    fn borrowed(&self) -> Vec<&str> {
        self.keys.iter().map(String::as_str).collect()
    }
}

/// A second, independent writer of the image format: encodes exactly the
/// tables it is given, valid or not.
pub fn encode_image(
    literals_as_vertices: bool,
    triple_count: u64,
    dictionaries: [&[&str]; 3],
    adjacency: &Adjacency,
    attrs: &Attributes,
) -> Vec<u8> {
    let mut image = b"AMBR".to_vec();
    let put = |image: &mut Vec<u8>, n: u32| image.extend_from_slice(&n.to_le_bytes());
    put(&mut image, 1);
    image.push(u8::from(literals_as_vertices));
    image.extend_from_slice(&triple_count.to_le_bytes());
    for keys in dictionaries {
        put(&mut image, keys.len() as u32);
        for key in keys {
            put(&mut image, key.len() as u32);
            image.extend_from_slice(key.as_bytes());
        }
    }
    put(&mut image, adjacency.len() as u32);
    for entries in adjacency {
        put(&mut image, entries.len() as u32);
        for (neighbor, types) in entries {
            put(&mut image, *neighbor);
            put(&mut image, types.len() as u32);
            types.iter().for_each(|&t| put(&mut image, t));
        }
    }
    for list in attrs {
        put(&mut image, list.len() as u32);
        list.iter().for_each(|&a| put(&mut image, a));
    }
    image
}
