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
//! The forward lookup is an open-addressing table (linear probing, 2^k
//! slots, load ≤ ½) of one `u32` per slot: the low k bits hold `id + 1`
//! (load ≤ ½ keeps it below 2^k; 0 is an empty slot) and the high 32 − k
//! bits are a tag, the top 32 − k bits of the key's hash. The slot index is
//! the hash's low k bits, so tag and index never share a bit; a probe
//! compares the tag first and touches the arena only on a tag match. A
//! table that grows is rebuilt at the new k. The table owns no key bytes —
//! it hashes the arena slice — and a dictionary holds at most 2^31 keys,
//! the most a table of 2^32 slots seats at load ≤ ½.
//!
//! An attribute `<predicate, literal>` is keyed by its predicate's *id*,
//! not its text: the predicates of `Ma` have a small dictionary of their
//! own (`Dictionaries::attribute_predicates`), and an `Ma` key is that
//! id spelled as one `char` (ids 0–127 take one byte; the surrogate gap is
//! stepped over) followed by the literal's N-Triples form. Each predicate's
//! text is stored once however many literals it carries, and the plain
//! [`Dictionary`] hashes, stores and compares these keys like any other.
//! Snapshot images keep spelling an `Ma` key `predicate \0 literal`.
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
//! step (`mix`) before the slot index (low bits) and the tag (high bits)
//! are cut from it, the same keys cost 3.0 × 10⁴. The test pins it.

use amber_util::{FxHasher, HeapSize};
use rdf_model::{Literal, LiteralRef};
use std::hash::Hasher;

/// The most keys one dictionary holds (see the module docs).
const MAX_KEYS: usize = 1 << 31;

/// A string ↔ dense-id interner.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    /// Every key, concatenated in id order.
    arena: String,
    /// `ends[id]`: the arena offset one past key `id`.
    ends: Vec<u32>,
    /// Open-addressing table over the ids, one packed slot each (see the
    /// module docs); empty or a power of two ≥ 2 × len.
    table: Vec<u32>,
}

/// The table size that keeps `len` keys at load ≤ ½.
fn slots_for(len: usize) -> usize {
    match len {
        0 => 0,
        _ => (2 * len).next_power_of_two().max(8),
    }
}

/// The bits of a slot that hold `id + 1` in a table of `slots` slots (a
/// power of two): the low k bits, for 2^k slots.
fn id_bits(slots: usize) -> u32 {
    (slots - 1) as u32
}

/// The tag a key with `hash` carries in a table whose id bits are
/// `id_bits`: the top 32 − k bits of the hash, in the slot's high bits.
fn tag(hash: u64, id_bits: u32) -> u32 {
    (hash >> 32) as u32 & !id_bits
}

/// The slot of key `id` with `hash`.
fn pack(id: u32, hash: u64, id_bits: u32) -> u32 {
    debug_assert!(id < id_bits, "load ≤ ½ leaves id + 1 in the id bits");
    tag(hash, id_bits) | (id + 1)
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
    /// arena's length. `None` when two keys are equal or there are more
    /// than 2^31 of them.
    pub(crate) fn from_arena(arena: String, ends: Vec<u32>) -> Option<Self> {
        debug_assert!(ends.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(ends.last().map_or(0, |&end| end as usize), arena.len());
        if ends.len() > MAX_KEYS {
            return None;
        }
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
        let ids = id_bits(self.table.len());
        let tag = tag(hash, ids);
        let mut at = hash as usize & mask;
        loop {
            let slot = self.table[at];
            if slot == 0 {
                return Err(at);
            }
            if slot & !ids == tag {
                let id = (slot & ids) - 1;
                if self.key(id) == key {
                    return Ok(id);
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Seat every key in a fresh table of `slots`; `false` when two keys
    /// are equal (possible only for keys that did not come through
    /// [`Self::intern`]).
    fn rebuild_table(&mut self, slots: usize) -> bool {
        self.table = vec![0; slots];
        let ids = match slots {
            0 => 0,
            _ => id_bits(slots),
        };
        for id in 0..self.len() as u32 {
            let hash = mix(self.key(id));
            match self.probe(self.key(id), hash) {
                Ok(_) => return false,
                Err(at) => self.table[at] = pack(id, hash, ids),
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
            Err(at) => {
                assert!(self.len() < MAX_KEYS, "dictionary exceeded 2^31 ids");
                let id = self.len() as u32;
                self.arena.push_str(key);
                let end = u32::try_from(self.arena.len()).expect("dictionary exceeded 4 GiB");
                self.ends.push(end);
                self.table[at] = pack(id, hash, id_bits(self.table.len()));
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

impl HeapSize for Dictionary {
    fn heap_size(&self) -> usize {
        self.arena.capacity()
            + self.ends.capacity() * std::mem::size_of::<u32>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }
}

/// The first code point of the surrogate gap: no `char` spells it.
const GAP_START: u32 = 0xD800;
/// The gap's width: predicate ids from `GAP_START` on are spelled this
/// many code points higher.
const GAP: u32 = 0xE000 - GAP_START;

/// The `char` that spells attribute predicate `id` at the head of an `Ma`
/// key: the code point `id`, stepped over the surrogate gap. `None` past
/// the last code point (more than 1,112,064 attribute predicates).
fn predicate_char(id: u32) -> Option<char> {
    let code = if id < GAP_START {
        id
    } else {
        id.checked_add(GAP)?
    };
    char::from_u32(code)
}

/// The attribute predicate id a [`predicate_char`] spells.
fn predicate_id(c: char) -> u32 {
    let code = c as u32;
    if code < GAP_START {
        code
    } else {
        code - GAP
    }
}

/// Append the part of an `Ma` key that depends on the predicate only: its
/// id's `char`. The literal's N-Triples form completes the key. `None`
/// when no `char` spells the id.
pub(crate) fn write_attribute_prefix(out: &mut String, predicate: u32) -> Option<()> {
    out.push(predicate_char(predicate)?);
    Some(())
}

/// The three dictionaries of Table 2 plus their mapping helpers.
#[derive(Debug, Default, Clone)]
pub struct Dictionaries {
    /// `Mv`: subject / IRI-object → vertex id (Table 2a).
    pub vertices: Dictionary,
    /// `Me`: predicate → edge type id (Table 2b).
    pub edge_types: Dictionary,
    /// `Ma`: `<predicate, literal>` → attribute id (Table 2c). A key is
    /// the predicate's id among the attribute predicates as one `char`,
    /// then the literal's N-Triples form (see the module docs); read pairs
    /// through [`Self::attribute`] and [`Self::resolve_attribute`].
    pub attributes: Dictionary,
    /// The predicates of `Ma`'s pairs, each stored once. Apart from `Me`,
    /// so that a predicate with only literal objects is no edge type.
    pub(crate) attribute_predicates: Dictionary,
}

impl Dictionaries {
    /// Intern an attribute pair, composing its `Ma` key in `key` (a
    /// reused buffer).
    pub(crate) fn intern_attribute(
        &mut self,
        key: &mut String,
        predicate: &str,
        literal: LiteralRef<'_>,
    ) -> crate::AttrId {
        let predicate = self.attribute_predicates.intern(predicate);
        key.clear();
        write_attribute_prefix(key, predicate).expect("more than 1,112,064 attribute predicates");
        literal.write_ntriples(key);
        crate::AttrId(self.attributes.intern(key))
    }

    /// Forward-map an attribute pair without interning.
    pub fn attribute(&self, predicate: &str, literal: &Literal) -> Option<crate::AttrId> {
        let mut key = String::new();
        write_attribute_prefix(&mut key, self.attribute_predicates.get(predicate)?)?;
        LiteralRef::from(literal).write_ntriples(&mut key);
        self.attributes.get(&key).map(crate::AttrId)
    }

    /// Inverse-map an attribute id back to `(predicate, literal-ntriples)`.
    pub fn resolve_attribute(&self, attr: crate::AttrId) -> Option<(&str, &str)> {
        let key = self.attributes.resolve(attr.0)?;
        let prefix = key.chars().next()?;
        let predicate = self.attribute_predicates.resolve(predicate_id(prefix))?;
        Some((predicate, &key[prefix.len_utf8()..]))
    }
}

impl HeapSize for Dictionaries {
    fn heap_size(&self) -> usize {
        self.vertices.heap_size()
            + self.edge_types.heap_size()
            + self.attributes.heap_size()
            + self.attribute_predicates.heap_size()
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
        let ids = id_bits(d.table.len());
        d.table
            .iter()
            .enumerate()
            .filter(|(_, &slot)| slot != 0)
            .map(|(at, &slot)| {
                let home = mix(d.key((slot & ids) - 1)) as usize & mask;
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
            let predicate = predicate_char(i % 120).unwrap();
            d.intern(&format!("{predicate}\"{i}\""));
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
            key_bytes + 4 * keys.len() + 4 * d.table.len()
        );
        assert_eq!(d.table.len(), 2048);
    }

    #[test]
    fn slots_pack_an_id_and_the_rest_of_the_hash() {
        // 8 slots, the benchmark graph's 2^17, and the largest table: the
        // one that seats `MAX_KEYS` keys at load ≤ ½.
        assert_eq!(slots_for(MAX_KEYS), 1 << 32);
        for (slots, k) in [(8usize, 3u32), (1 << 17, 17), (slots_for(MAX_KEYS), 32)] {
            let ids = id_bits(slots);
            assert_eq!(ids.count_ones(), k);
            let top = (slots / 2 - 1) as u32; // the last id at load ½
            for id in [0, 1, top / 2, top] {
                for hash in [0, u64::MAX, 0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210] {
                    let slot = pack(id, hash, ids);
                    assert_ne!(slot, 0, "an occupied slot reads as empty");
                    assert_eq!((slot & ids) - 1, id);
                    // The tag is the hash's top 32 − k bits, above the id.
                    let tag_bits = (hash >> 32).checked_shr(k).unwrap_or(0) as u32;
                    assert_eq!(slot.checked_shr(k).unwrap_or(0), tag_bits);
                    assert_eq!(slot & !ids, tag(hash, ids));
                }
            }
        }
    }

    #[test]
    fn predicate_ids_round_trip_through_their_char() {
        let last = 0x10_FFFF - GAP;
        for (id, code, bytes) in [
            (0, 0, 1),
            (127, 127, 1),
            (128, 128, 2),
            (0xD7FF, 0xD7FF, 3),
            (0xD800, 0xE000, 3), // the first id past the surrogate gap
            (last, 0x10_FFFF, 4),
        ] {
            let c = predicate_char(id).unwrap();
            assert_eq!((c as u32, c.len_utf8()), (code, bytes), "id {id:#x}");
            assert_eq!(predicate_id(c), id);
        }
        assert_eq!(predicate_char(last + 1), None);
        assert_eq!(predicate_char(u32::MAX), None);
    }

    #[test]
    fn attribute_keys_distinguish_literal_kinds() {
        let mut dicts = Dictionaries::default();
        let mut key = String::new();
        let name = "http://y/name";
        let literals = [
            Literal::plain("A"),
            Literal::lang("A", "en"),
            Literal::typed("A", Iri::new("http://t")),
        ];
        for (id, literal) in literals.iter().enumerate() {
            let attr = dicts.intern_attribute(&mut key, name, literal.into());
            assert_eq!(attr, crate::AttrId(id as u32));
        }
        // The predicate is stored once, not once per literal.
        assert_eq!(dicts.attribute_predicates.len(), 1);
        assert_eq!(key, "\u{0}\"A\"^^<http://t>");
    }

    #[test]
    fn attribute_round_trip() {
        let mut dicts = Dictionaries::default();
        let lit = Literal::plain("90000");
        let id =
            dicts.intern_attribute(&mut String::new(), "http://y/hasCapacityOf", (&lit).into());
        assert_eq!(dicts.attribute("http://y/hasCapacityOf", &lit), Some(id));
        assert_eq!(dicts.attribute("http://y/other", &lit), None);
        let (pred, lit_nt) = dicts.resolve_attribute(id).unwrap();
        assert_eq!(pred, "http://y/hasCapacityOf");
        assert_eq!(lit_nt, "\"90000\"");
        assert_eq!(dicts.resolve_attribute(crate::AttrId(1)), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// `attribute`/`resolve_attribute` against a map of pairs: more
        /// than 128 predicates, so prefixes of one and two bytes occur,
        /// and few literals, so one literal sits under many predicates.
        #[test]
        fn attributes_agree_with_a_pair_model(
            ops in proptest::prop::collection::vec((0..400u32, 0..12u32, proptest::prelude::any::<bool>()), 400..1200)
        ) {
            let literal = |n: u32| match n % 3 {
                0 => Literal::plain(format!("{n}")),
                1 => Literal::lang(format!("{}", n / 3), "en"),
                _ => Literal::typed(format!("{}", n / 3), Iri::new("http://t")),
            };
            let mut dicts = Dictionaries::default();
            let mut model: std::collections::HashMap<(String, String), u32> = Default::default();
            let mut key = String::new();
            for (p, l, insert) in ops {
                let predicate = format!("http://p/{p}");
                let literal = literal(l);
                let pair = (predicate.clone(), literal.to_string());
                if insert {
                    let next = model.len() as u32;
                    let expected = *model.entry(pair).or_insert(next);
                    let id = dicts.intern_attribute(&mut key, &predicate, (&literal).into());
                    assert_eq!(id.0, expected);
                } else {
                    let expected = model.get(&pair).copied().map(crate::AttrId);
                    assert_eq!(dicts.attribute(&predicate, &literal), expected);
                }
            }
            assert_eq!(dicts.attributes.len(), model.len());
            for ((predicate, literal), id) in &model {
                let resolved = dicts.resolve_attribute(crate::AttrId(*id));
                assert_eq!(resolved, Some((predicate.as_str(), literal.as_str())));
            }
            let predicates: std::collections::HashSet<&str> =
                model.keys().map(|(p, _)| p.as_str()).collect();
            assert_eq!(dicts.attribute_predicates.len(), predicates.len());
            assert!(predicates.len() > 128, "only {} predicates", predicates.len());
        }
    }

    #[test]
    fn heap_size_is_nonzero_after_interning() {
        let mut d = Dictionary::new();
        d.intern("some reasonably long dictionary key");
        assert!(d.heap_size() > 0);
    }
}
