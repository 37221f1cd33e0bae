//! Compressed sparse rows: many short lists in one exact-size pool.
//!
//! A [`Csr`] holds `rows` lists back to back in one item pool, with
//! `rows + 1` `u32` offsets: row `r` is `items[offsets[r]..offsets[r + 1]]`.
//! This is the layout of every per-vertex, per-attribute and per-type list
//! of the offline stage — adjacency, attribute sets, the attribute index and
//! both levels of the OTIL. It costs two allocations per structure instead
//! of one per list, no list carries growth slack, and consecutive rows are
//! consecutive in memory, so a build pass that walks them streams.
//!
//! Two builders fill a pool at its final size:
//!
//! * [`CsrBuilder`] appends items in row order and closes each row — for
//!   lists that come out of a sorted input already grouped by row.
//! * [`CsrScatter`] places items into rows whose lengths were counted
//!   first (a counting sort) — for transposes, where items arrive in the
//!   order of another key. Items keep their arrival order within a row.
//!
//! Offsets are `u32`; a pool past `u32::MAX` items panics with a message
//! instead of wrapping.

use crate::heap_size::HeapSize;
use std::ops::Range;

/// `rows` lists in one exact-size pool (see the module docs).
#[derive(Debug, Clone)]
pub struct Csr<T> {
    /// `rows + 1` ascending offsets into `items`, starting at 0.
    offsets: Box<[u32]>,
    items: Box<[T]>,
}

impl<T> Default for Csr<T> {
    /// No rows.
    fn default() -> Self {
        Self {
            offsets: Box::new([0]),
            items: Box::new([]),
        }
    }
}

/// A pool position as a `u32` offset.
fn offset(position: usize) -> u32 {
    u32::try_from(position).expect("CSR pool exceeds u32 offsets")
}

impl<T> Csr<T> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The pool range of `row`.
    #[inline]
    pub fn range(&self, row: usize) -> Range<usize> {
        self.offsets[row] as usize..self.offsets[row + 1] as usize
    }

    /// The items of `row`.
    #[inline]
    pub fn row(&self, row: usize) -> &[T] {
        &self.items[self.range(row)]
    }

    /// The items of `rows` back to back (one contiguous run of the pool).
    #[inline]
    pub fn span(&self, rows: Range<usize>) -> &[T] {
        &self.items[self.offsets[rows.start] as usize..self.offsets[rows.end] as usize]
    }

    /// The whole pool, in row order.
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

impl<T: HeapSize> HeapSize for Csr<T> {
    fn heap_size(&self) -> usize {
        self.offsets.heap_size() + self.items.heap_size()
    }
}

/// Fills a [`Csr`] in row order: [`push`](Self::push) a row's items, then
/// [`end_row`](Self::end_row).
#[derive(Debug)]
pub struct CsrBuilder<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> CsrBuilder<T> {
    /// A builder sized for exactly `rows` rows and `items` items; sized
    /// right, [`finish`](Self::finish) hands the buffers over without a
    /// reallocation.
    pub fn with_capacity(rows: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            offsets,
            items: Vec::with_capacity(items),
        }
    }

    /// Append one item to the open row.
    #[inline]
    pub fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// Close the open row.
    #[inline]
    pub fn end_row(&mut self) {
        self.offsets.push(offset(self.items.len()));
    }

    /// The pool. Every pushed item must be in a closed row.
    pub fn finish(self) -> Csr<T> {
        assert_eq!(
            self.offsets.last().map(|&end| end as usize),
            Some(self.items.len()),
            "items pushed after the last closed row"
        );
        Csr {
            offsets: self.offsets.into_boxed_slice(),
            items: self.items.into_boxed_slice(),
        }
    }
}

/// Fills a [`Csr`] by counting sort: the row lengths come first, then each
/// item is [`place`](Self::place)d at its row's next free slot.
#[derive(Debug)]
pub struct CsrScatter<T> {
    offsets: Vec<u32>,
    /// Per row, the next free slot.
    cursors: Vec<u32>,
    items: Vec<T>,
}

impl<T: Clone> CsrScatter<T> {
    /// Rows of the given lengths, every slot holding `fill` until placed.
    pub fn new(lengths: impl IntoIterator<Item = usize>, fill: T) -> Self {
        let lengths = lengths.into_iter();
        let mut offsets = Vec::with_capacity(lengths.size_hint().0 + 1);
        let mut total = 0usize;
        offsets.push(0);
        for length in lengths {
            total += length;
            offsets.push(offset(total));
        }
        Self {
            cursors: offsets[..offsets.len() - 1].to_vec(),
            items: vec![fill; total],
            offsets,
        }
    }

    /// Place `item` at the next free slot of `row`. Panics when the row
    /// is already full.
    #[inline]
    pub fn place(&mut self, row: usize, item: T) {
        let slot = &mut self.cursors[row];
        assert!(*slot < self.offsets[row + 1], "row {row} overfilled");
        self.items[*slot as usize] = item;
        *slot += 1;
    }

    /// The pool. Every row must be full.
    pub fn finish(self) -> Csr<T> {
        assert!(
            self.cursors.iter().eq(&self.offsets[1..]),
            "a row was left short of its counted length"
        );
        Csr {
            offsets: self.offsets.into_boxed_slice(),
            items: self.items.into_boxed_slice(),
        }
    }
}

impl<T: Copy + Ord> CsrScatter<T> {
    /// The pool with every row sorted and its repeats dropped. Rows that
    /// lose items are moved down the pool in place, and the pool is then
    /// shrunk to its new length: no second buffer is allocated. Every row
    /// must be full.
    pub fn finish_sorted_sets(self) -> Csr<T> {
        let Csr { mut offsets, items } = self.finish();
        let mut items = items.into_vec();
        let (mut start, mut kept) = (0, 0);
        for r in 0..offsets.len() - 1 {
            let end = offsets[r + 1] as usize;
            items[start..end].sort_unstable();
            for i in start..end {
                // `items[i - 1]` is still unmoved here: `kept` never passes `i`.
                if i == start || items[i] != items[i - 1] {
                    items[kept] = items[i];
                    kept += 1;
                }
            }
            offsets[r + 1] = offset(kept);
            start = end;
        }
        items.truncate(kept);
        Csr {
            offsets,
            items: items.into_boxed_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rows_and_spans() {
        let mut b = CsrBuilder::with_capacity(3, 4);
        b.push(1u32);
        b.push(2);
        b.end_row();
        b.end_row();
        b.push(3);
        b.push(4);
        b.end_row();
        let csr = b.finish();
        assert_eq!(csr.rows(), 3);
        assert_eq!(csr.row(0), [1, 2]);
        assert!(csr.row(1).is_empty());
        assert_eq!(csr.row(2), [3, 4]);
        assert_eq!(csr.span(0..3), [1, 2, 3, 4]);
        assert_eq!(csr.span(1..3), [3, 4]);
        assert_eq!(csr.range(2), 2..4);
        // Exact size: 4 offsets and 4 items.
        assert_eq!(csr.heap_size(), 4 * 4 + 4 * 4);
    }

    #[test]
    fn scatter_is_a_stable_counting_sort() {
        let pairs = [(2usize, 'a'), (0, 'b'), (2, 'c'), (0, 'd'), (1, 'e')];
        let mut lengths = [0usize; 4];
        for &(row, _) in &pairs {
            lengths[row] += 1;
        }
        let mut scatter = CsrScatter::new(lengths, ' ');
        for (row, item) in pairs {
            scatter.place(row, item);
        }
        let csr = scatter.finish();
        assert_eq!(csr.rows(), 4);
        assert_eq!(csr.row(0), ['b', 'd']);
        assert_eq!(csr.row(1), ['e']);
        assert_eq!(csr.row(2), ['a', 'c']);
        assert!(csr.row(3).is_empty());
    }

    #[test]
    fn sorted_sets_drop_repeats_in_place() {
        let pairs = [
            (1usize, 5u32),
            (0, 3),
            (1, 2),
            (1, 5),
            (0, 3),
            (2, 9),
            (1, 2),
        ];
        let mut lengths = [0usize; 4];
        for &(row, _) in &pairs {
            lengths[row] += 1;
        }
        let mut scatter = CsrScatter::new(lengths, 0);
        for (row, item) in pairs {
            scatter.place(row, item);
        }
        let csr = scatter.finish_sorted_sets();
        assert_eq!(csr.rows(), 4);
        assert_eq!(csr.row(0), [3]);
        assert_eq!(csr.row(1), [2, 5]);
        assert_eq!(csr.row(2), [9]);
        assert!(csr.row(3).is_empty());
        // Exact size after the shrink: 5 offsets and 4 items.
        assert_eq!(csr.heap_size(), 5 * 4 + 4 * 4);
    }

    proptest::proptest! {
        #[test]
        fn sorted_sets_equal_a_full_sort_and_dedup(
            pairs in proptest::prop::collection::vec((0..7usize, 0..5u32), 0..60)
        ) {
            let mut expected = pairs.clone();
            expected.sort_unstable();
            expected.dedup();
            let mut lengths = [0usize; 7];
            for &(row, _) in &pairs {
                lengths[row] += 1;
            }
            let mut scatter = CsrScatter::new(lengths, 0);
            for &(row, item) in &pairs {
                scatter.place(row, item);
            }
            let csr = scatter.finish_sorted_sets();
            let rows: Vec<(usize, u32)> = (0..7)
                .flat_map(|row| csr.row(row).iter().map(move |&item| (row, item)))
                .collect();
            assert_eq!(rows, expected);
            assert_eq!(csr.items().len(), expected.len());
        }
    }

    #[test]
    #[should_panic(expected = "overfilled")]
    fn scatter_rejects_an_overfull_row() {
        let mut scatter = CsrScatter::new([1usize], 0u8);
        scatter.place(0, 1);
        scatter.place(0, 2);
    }

    #[test]
    #[should_panic(expected = "left short")]
    fn scatter_rejects_a_short_row() {
        let mut scatter = CsrScatter::new([2usize], 0u8);
        scatter.place(0, 1);
        let _ = scatter.finish();
    }

    #[test]
    fn default_has_no_rows() {
        let csr = Csr::<u32>::default();
        assert_eq!(csr.rows(), 0);
        assert!(csr.items().is_empty());
    }
}
