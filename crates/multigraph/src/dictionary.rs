#![forbid(unsafe_code)]
//! Interning dictionaries (paper §2.1.1, Table 2).
//!
//! Three dictionaries map RDF entities to dense identifiers: vertices
//! (subjects / IRI objects), edge types (predicates) and attributes
//! (`<predicate, literal>` tuples). Each is a [`Dictionary`] — a string
//! interner with O(1) forward (`Mv`, `Me`, `Ma`) and inverse (`Mv⁻¹`, …)
//! lookup.
//!
//! # Layout
//!
//! Every key is stored once, in one append-only `String` arena; `ends[id]`
//! is where key `id` stops, so the inverse lookup is two loads and a slice.
//! The forward lookup is an open-addressing table (linear probing, a power
//! of two of slots, load ≤ ½) whose slots hold `(id + 1, 32-bit tag)`: a
//! probe compares the tag first and touches the arena only on a tag match.
//! The table owns no key bytes — it hashes the arena slice.
//!
//! # Hash quality
//!
//! Keys here share long prefixes and differ in their last bytes
//! (`http://dbpedia.org/resource/…`). The word-at-a-time Fx mix only carries
//! entropy *upward* — the last word's bytes reach just the top bits of the
//! raw hash — so indexing a table by its low or middle bits sends such keys
//! to a handful of slots. On the 100,000 keys of
//! `probe_lengths_stay_short_on_prefix_sharing_keys`, the raw hash costs
//! 1.1 × 10⁹ probe steps beyond the home slot; finished with an avalanche
//! step (`mix`) before the slot index (low bits) and the tag (high 32
//! bits) are cut from it, the same keys cost 3.0 × 10⁴. The test pins it.

use amber_util::{FxHasher, HeapSize};
use rdf_model::{Literal, LiteralRef};
use std::hash::Hasher;

/// A string ↔ dense-id interner.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    /// Every key, concatenated in id order.
    arena: String,
    /// `ends[id]`: the arena offset one past key `id`.
    ends: Vec<u32>,
    /// Open-addressing table over the ids; empty or a power of two ≥ 2 × len.
    table: Vec<Slot>,
}

/// One table slot; all-zero is "empty", so a fresh table is one zeroed
/// allocation.
#[derive(Debug, Default, Clone, Copy)]
struct Slot {
    id_plus_one: u32,
    /// High half of the key's mixed hash.
    tag: u32,
}

/// The table size that keeps `len` keys at load ≤ ½.
fn slots_for(len: usize) -> usize {
    match len {
        0 => 0,
        _ => (2 * len).next_power_of_two().max(8),
    }
}

/// The 64-bit hash of a key: Fx over its bytes, then the murmur3 finalizer
/// so every input bit reaches every output bit (see the module docs).
fn mix(key: &str) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(key.as_bytes());
    let mut h = hasher.finish();
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a dictionary from its keys in id order: the arena they are
    /// concatenated in and each key's end offset, the last one being the
    /// arena's length. `None` when two keys are equal.
    pub(crate) fn from_arena(arena: String, ends: Vec<u32>) -> Option<Self> {
        debug_assert!(ends.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(ends.last().map_or(0, |&end| end as usize), arena.len());
        let mut dict = Self {
            arena,
            ends,
            table: Vec::new(),
        };
        dict.rebuild_table(slots_for(dict.len())).then_some(dict)
    }

    /// Key `id`, which must be interned.
    fn key(&self, id: u32) -> &str {
        let start = match id {
            0 => 0,
            _ => self.ends[id as usize - 1] as usize,
        };
        &self.arena[start..self.ends[id as usize] as usize]
    }

    /// Walk `key`'s probe sequence: its id, or the empty slot it would
    /// take. The table must not be empty.
    fn probe(&self, key: &str, hash: u64) -> Result<u32, usize> {
        let mask = self.table.len() - 1;
        let tag = (hash >> 32) as u32;
        let mut slot = hash as usize & mask;
        loop {
            let Slot {
                id_plus_one,
                tag: t,
            } = self.table[slot];
            if id_plus_one == 0 {
                return Err(slot);
            }
            if t == tag && self.key(id_plus_one - 1) == key {
                return Ok(id_plus_one - 1);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Seat every key in a fresh table of `slots`; `false` when two keys
    /// are equal (possible only for keys that did not come through
    /// [`Self::intern`]).
    fn rebuild_table(&mut self, slots: usize) -> bool {
        self.table = vec![Slot::default(); slots];
        for id in 0..self.len() as u32 {
            let hash = mix(self.key(id));
            match self.probe(self.key(id), hash) {
                Ok(_) => return false,
                Err(slot) => self.table[slot] = Slot::new(id, hash),
            }
        }
        true
    }

    /// Intern `key`, returning its (possibly fresh) id.
    pub fn intern(&mut self, key: &str) -> u32 {
        if 2 * (self.len() + 1) > self.table.len() {
            let unique = self.rebuild_table(slots_for(self.len() + 1));
            debug_assert!(unique, "interned keys are distinct");
        }
        let hash = mix(key);
        match self.probe(key, hash) {
            Ok(id) => id,
            Err(slot) => {
                assert!(
                    self.len() < u32::MAX as usize,
                    "dictionary exceeded u32 ids"
                );
                let id = self.len() as u32;
                self.arena.push_str(key);
                let end = u32::try_from(self.arena.len()).expect("dictionary exceeded 4 GiB");
                self.ends.push(end);
                self.table[slot] = Slot::new(id, hash);
                id
            }
        }
    }

    /// Forward lookup without interning.
    pub fn get(&self, key: &str) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        self.probe(key, mix(key)).ok()
    }

    /// Inverse lookup (`M⁻¹`).
    pub fn resolve(&self, id: u32) -> Option<&str> {
        ((id as usize) < self.len()).then(|| self.key(id))
    }

    /// Number of interned entries.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterate `(id, key)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        (0..self.len() as u32).map(|id| (id, self.key(id)))
    }

    /// Give back the arena's and offset table's growth slack. (The probe
    /// table is always the smallest power of two that keeps load ≤ ½.)
    pub fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

impl Slot {
    fn new(id: u32, hash: u64) -> Self {
        Self {
            id_plus_one: id + 1,
            tag: (hash >> 32) as u32,
        }
    }
}

impl HeapSize for Dictionary {
    fn heap_size(&self) -> usize {
        self.arena.capacity()
            + self.ends.capacity() * std::mem::size_of::<u32>()
            + self.table.capacity() * std::mem::size_of::<Slot>()
    }
}

/// The canonical dictionary key of an attribute `<predicate, literal>` pair.
///
/// The literal is rendered in N-Triples syntax so that plain, language-tagged
/// and datatyped literals with equal lexical forms stay distinct; `\u{0}`
/// separates the two halves (it cannot occur in an IRI).
pub fn attribute_key(predicate: &str, literal: &Literal) -> String {
    let mut key = String::new();
    write_attribute_key(&mut key, predicate, literal.into());
    key
}

/// Append [`attribute_key`]'s output for a borrowed literal to `out` (the
/// builder composes every key in one reused buffer).
pub fn write_attribute_key(out: &mut String, predicate: &str, literal: LiteralRef<'_>) {
    out.push_str(predicate);
    out.push('\u{0}');
    literal.write_ntriples(out);
}

/// The three dictionaries of Table 2 plus their mapping helpers.
#[derive(Debug, Default, Clone)]
pub struct Dictionaries {
    /// `Mv`: subject / IRI-object → vertex id (Table 2a).
    pub vertices: Dictionary,
    /// `Me`: predicate → edge type id (Table 2b).
    pub edge_types: Dictionary,
    /// `Ma`: `<predicate, literal>` → attribute id (Table 2c).
    pub attributes: Dictionary,
}

impl Dictionaries {
    /// Forward-map an attribute pair without interning.
    pub fn attribute(&self, predicate: &str, literal: &Literal) -> Option<crate::AttrId> {
        self.attributes
            .get(&attribute_key(predicate, literal))
            .map(crate::AttrId)
    }

    /// Inverse-map an attribute id back to `(predicate, literal-ntriples)`.
    pub fn resolve_attribute(&self, attr: crate::AttrId) -> Option<(&str, &str)> {
        let key = self.attributes.resolve(attr.0)?;
        key.split_once('\u{0}')
    }
}

impl HeapSize for Dictionaries {
    fn heap_size(&self) -> usize {
        self.vertices.heap_size() + self.edge_types.heap_size() + self.attributes.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Iri;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("http://x/London");
        let b = d.intern("http://x/London");
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("a"), 0);
        assert_eq!(d.intern("b"), 1);
        assert_eq!(d.intern("c"), 2);
    }

    #[test]
    fn inverse_resolves() {
        let mut d = Dictionary::new();
        let id = d.intern("http://y/isPartOf");
        assert_eq!(d.resolve(id), Some("http://y/isPartOf"));
        assert_eq!(d.resolve(id + 1), None);
    }

    #[test]
    fn get_does_not_intern() {
        let d = Dictionary::new();
        assert_eq!(d.get("missing"), None);
        assert!(d.is_empty());
    }

    #[test]
    fn iter_in_id_order() {
        let mut d = Dictionary::new();
        d.intern("x");
        d.intern("y");
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs, vec![(0, "x"), (1, "y")]);
    }

    /// Total probe steps beyond the home slot over a successful lookup of
    /// every key: each key's displacement from where its hash points.
    fn total_displacement(d: &Dictionary) -> usize {
        let mask = d.table.len() - 1;
        d.table
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.id_plus_one != 0)
            .map(|(at, slot)| {
                let home = mix(d.key(slot.id_plus_one - 1)) as usize & mask;
                at.wrapping_sub(home) & mask
            })
            .sum()
    }

    #[test]
    fn probe_lengths_stay_short_on_prefix_sharing_keys() {
        // The keys of a real load: one long common prefix, the difference
        // in the last bytes. Without the finalizer in `mix` these pile up
        // on a few slots (hundreds of steps per key); at load ≤ ½ a
        // well-spread table averages about half a step.
        let mut d = Dictionary::new();
        for i in 0..50_000u32 {
            d.intern(&format!("http://dbpedia.org/resource/Entity_{i}"));
            d.intern(&format!("http://dbpedia.org/ontology/prop\u{0}\"{i}\""));
        }
        assert!(d.table.len() >= 2 * d.len(), "load factor above 1/2");
        let steps = total_displacement(&d);
        assert!(
            steps < d.len(),
            "{steps} extra probe steps for {} keys",
            d.len()
        );
    }

    /// Keys from a small space (so repeats and absent lookups both occur),
    /// the empty key and long shared prefixes among them.
    fn model_key(n: usize) -> String {
        match n % 4 {
            0 => format!("{}", n / 4),
            1 => format!("http://a.very.long.shared/prefix/for/every/key/{}", n / 4),
            2 => "x".repeat(n / 4),
            _ => format!("é{}\u{0}", n / 4),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn agrees_with_a_hash_map_model(
            ops in proptest::prop::collection::vec((0..600usize, proptest::prelude::any::<bool>()), 0..1500)
        ) {
            let mut dict = Dictionary::new();
            let mut model: std::collections::HashMap<String, u32> = Default::default();
            let mut order: Vec<String> = Vec::new();
            for (n, insert) in ops {
                let k = model_key(n);
                if insert {
                    let next = model.len() as u32;
                    let expected = *model.entry(k.clone()).or_insert_with(|| {
                        order.push(k.clone());
                        next
                    });
                    assert_eq!(dict.intern(&k), expected);
                } else {
                    assert_eq!(dict.get(&k), model.get(&k).copied(), "get {k:?}");
                }
                assert_eq!(dict.len(), model.len());
            }
            let listed: Vec<(u32, &str)> = dict.iter().collect();
            assert_eq!(listed.len(), order.len());
            for (id, k) in order.iter().enumerate() {
                assert_eq!(listed[id], (id as u32, k.as_str()));
                assert_eq!(dict.resolve(id as u32), Some(k.as_str()));
                assert_eq!(dict.get(k), Some(id as u32));
            }
            assert_eq!(dict.resolve(order.len() as u32), None);
            // A clone and a restore from the arena answer alike.
            let restored = Dictionary::from_arena(dict.arena.clone(), dict.ends.clone())
                .expect("interned keys are distinct");
            for twin in [dict.clone(), restored] {
                assert!(twin.iter().eq(dict.iter()));
                assert!(order.iter().all(|k| twin.get(k) == dict.get(k)));
            }
        }
    }

    #[test]
    fn restoring_rejects_a_repeated_key() {
        assert!(Dictionary::from_arena("abab".into(), vec![2, 4]).is_none());
        assert!(Dictionary::from_arena("ab".into(), vec![0, 0, 2]).is_none()); // "" twice
        let d = Dictionary::from_arena("abba".into(), vec![2, 4]).unwrap();
        assert_eq!(
            (d.get("ab"), d.get("ba"), d.get("abba")),
            (Some(0), Some(1), None)
        );
        assert!(Dictionary::from_arena(String::new(), Vec::new())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn heap_size_counts_each_key_once() {
        let mut d = Dictionary::new();
        let keys: Vec<String> = (0..1000).map(|i| format!("http://x/entity/{i}")).collect();
        keys.iter().for_each(|k| {
            d.intern(k);
        });
        d.shrink_to_fit();
        let key_bytes: usize = keys.iter().map(String::len).sum();
        assert_eq!(
            d.heap_size(),
            key_bytes + 4 * keys.len() + 8 * d.table.len()
        );
        assert_eq!(d.table.len(), 2048);
    }

    #[test]
    fn attribute_keys_distinguish_literal_kinds() {
        let plain = attribute_key("http://y/name", &Literal::plain("A"));
        let lang = attribute_key("http://y/name", &Literal::lang("A", "en"));
        let typed = attribute_key("http://y/name", &Literal::typed("A", Iri::new("http://t")));
        assert_ne!(plain, lang);
        assert_ne!(plain, typed);
        assert_ne!(lang, typed);
    }

    #[test]
    fn attribute_round_trip() {
        let mut dicts = Dictionaries::default();
        let lit = Literal::plain("90000");
        let key = attribute_key("http://y/hasCapacityOf", &lit);
        let id = crate::AttrId(dicts.attributes.intern(&key));
        assert_eq!(dicts.attribute("http://y/hasCapacityOf", &lit), Some(id));
        let (pred, lit_nt) = dicts.resolve_attribute(id).unwrap();
        assert_eq!(pred, "http://y/hasCapacityOf");
        assert_eq!(lit_nt, "\"90000\"");
    }

    #[test]
    fn heap_size_is_nonzero_after_interning() {
        let mut d = Dictionary::new();
        d.intern("some reasonably long dictionary key");
        assert!(d.heap_size() > 0);
    }
}
