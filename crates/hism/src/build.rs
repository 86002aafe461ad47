//! Building HiSM matrices from COO and flattening them back.

use crate::matrix::{BlockData, HismBlock, HismMatrix, LeafEntry, NodeEntry};
use std::ops::Range;
use stm_sparse::coo::Triplet;
use stm_sparse::{Coo, FormatError, Value};

/// Number of hierarchy levels for an `rows x cols` matrix at section size
/// `s`: `q = max(⌈log_s rows⌉, ⌈log_s cols⌉)`, at least 1 (the paper pads
/// the matrix with zeros to `s^q x s^q`).
pub fn levels_for(rows: usize, cols: usize, s: usize) -> usize {
    assert!(s >= 2);
    let dim = rows.max(cols).max(1);
    let mut q = 1usize;
    let mut span = s;
    while span < dim {
        span *= s;
        q += 1;
    }
    q
}

/// Builds a HiSM matrix from a COO matrix with section size `s`
/// (2 ..= 256, since in-block positions are stored in 8 bits).
///
/// The input is canonicalized first (duplicates summed, zeros dropped) —
/// or borrowed as is when it already is canonical. Children are emitted
/// into the arena before their parents (post-order), so the root is always
/// the last block — the same order the memory-image serializer uses.
///
/// Linear in nnz: one stable bucket pass per level above the leaves puts
/// the row-major entries in block-major order, and one stack pass emits
/// the blocks (see DESIGN.md, "The host write path").
///
/// ```
/// use stm_sparse::Coo;
/// let coo = Coo::from_triplets(100, 100, vec![(0, 0, 1.0), (99, 99, 2.0)]).unwrap();
/// let h = stm_hism::build::from_coo(&coo, 64).unwrap();
/// assert_eq!(h.levels(), 2);          // 100 > 64 → two levels
/// assert_eq!(h.get(99, 99), Some(2.0));
/// assert_eq!(stm_hism::build::to_coo(&h), coo);
/// ```
pub fn from_coo(coo: &Coo, s: usize) -> Result<HismMatrix, FormatError> {
    if !(2..=256).contains(&s) {
        return Err(FormatError::Parse(format!(
            "section size {s} outside the supported 2..=256 range"
        )));
    }
    let canon = coo.canonical();
    // Entries outside the declared shape would silently truncate when the
    // in-block coordinates are narrowed to 8 bits below — reject them here
    // with the typed bounds error instead.
    canon.validate(false)?;
    let (rows, cols) = canon.shape();
    let levels = levels_for(rows, cols, s);
    let steps: Vec<usize> = std::iter::successors(Some(1usize), |p| Some(p.saturating_mul(s)))
        .take(levels + 1)
        .collect();
    let (blocks, root) = hierarchy(canon.entries(), levels, Radix { s, steps: &steps });
    let m = HismMatrix {
        s,
        rows,
        cols,
        levels,
        blocks,
        root,
        nnz: canon.nnz(),
    };
    debug_assert_eq!(m.validate(), Ok(()));
    Ok(m)
}

/// The arena (post-order) and root index of the hierarchy over
/// canonical, in-bounds entries.
fn hierarchy(entries: &[Triplet], levels: usize, radix: Radix) -> (Vec<HismBlock>, usize) {
    if levels == 1 {
        // One leaf holds the whole matrix, already in row-major order.
        let leaf = entries.iter().map(|&e| leaf_entry((0, 0), e));
        let root = HismBlock {
            level: 0,
            data: BlockData::Leaf(leaf.collect()),
        };
        return (vec![root], 0);
    }
    // A top-level row band is contiguous in both row-major and block-major
    // order, so each band is ordered on its own and the scratch stays
    // cache-resident.
    let mut builder = Builder::new(radix, levels);
    let mut rest = entries;
    while let Some(&(r, _, _)) = rest.first() {
        let rows = radix.cell(r, levels - 1);
        let (band, tail) = rest.split_at(rest.partition_point(|e| e.0 < rows.end));
        builder.add_band(band);
        rest = tail;
    }
    builder.emit.finish()
}

/// Base-`s` digit arithmetic of the paper's coordinate decomposition
/// `i = i_0 + i_1 s + … + i_(q-1) s^(q-1)`. Divisions by a run-time `s`
/// are slow, so the per-entry loops divide at most once per level and
/// test cell membership by range instead (see [`Builder`]).
#[derive(Clone, Copy)]
struct Radix<'a> {
    /// The section size `s`.
    s: usize,
    /// `s^level` for `level` in `0 ..= levels` (saturating).
    steps: &'a [usize],
}

impl Radix<'_> {
    /// `x / s^level`: the index of the level-`level` cell `x` falls in.
    fn band(self, x: usize, level: usize) -> usize {
        x / self.steps[level]
    }

    /// The level-`level` digit of `x`: its position inside the block of
    /// that level.
    fn digit(self, x: usize, level: usize) -> u8 {
        (self.band(x, level) % self.s) as u8
    }

    /// The coordinates the level-`level` cell holding `x` spans.
    fn cell(self, x: usize, level: usize) -> Range<usize> {
        let start = x - x % self.steps[level];
        start..start.saturating_add(self.steps[level])
    }
}

/// The leaf entry of `(r, c, value)` in the leaf at `origin`.
fn leaf_entry(origin: (usize, usize), (r, c, value): Triplet) -> LeafEntry {
    LeafEntry {
        row: (r - origin.0) as u8,
        col: (c - origin.1) as u8,
        value,
    }
}

/// Runs at most this long are bucketed by insertion sort: the counting
/// sort's `s` counters would cost more than the run itself.
const SHORT_RUN: usize = 32;

/// Builds the hierarchy of a matrix with two or more levels, one
/// top-level row band at a time.
///
/// The band's entries arrive row-major; the hierarchy needs them in
/// *block-major* order, by `(r_(q-1), c_(q-1), …, r_0, c_0)` — the
/// depth-first order with every blockarray row-major. Row-major order
/// already sorts the row digits, so each level above the leaves needs one
/// stable bucket pass by its column digit, taken separately inside every
/// run of equal row digit (and equal higher digits). Going top-down, the
/// pass at level `ℓ` turns `(…, r_ℓ, r_(ℓ-1)…r_0, c_ℓ…c_0)` into
/// `(…, r_ℓ, c_ℓ, r_(ℓ-1)…r_0, c_(ℓ-1)…c_0)`. The last pass, at level 1,
/// cuts each run's buckets straight into leaves, which the stack pass
/// ([`Emitter`]) files under their parents. Every pass reads each entry
/// once, tests it against its run's cells by range and divides once for
/// its digit; it is linear in its run lengths: short runs are
/// insertion-sorted, long ones counting-sorted over `s` buckets. The
/// buffers are reused from band to band.
struct Builder<'a> {
    radix: Radix<'a>,
    levels: usize,
    /// The band's entry indices in the order of the passes so far.
    order: Vec<usize>,
    next: Vec<usize>,
    /// Column digit at the current level, per position of `order`.
    digits: Vec<u8>,
    /// The current run's positions of `order`, stably sorted by digit.
    sorted: Vec<usize>,
    /// Bucket offsets (`s + 1`).
    count: Vec<usize>,
    emit: Emitter<'a>,
}

impl<'a> Builder<'a> {
    fn new(radix: Radix<'a>, levels: usize) -> Builder<'a> {
        Builder {
            radix,
            levels,
            order: Vec::new(),
            next: Vec::new(),
            digits: Vec::new(),
            sorted: Vec::new(),
            count: vec![0; radix.s + 1],
            emit: Emitter::new(levels, radix),
        }
    }

    /// Adds one top-level row band (row-major, in bounds).
    fn add_band(&mut self, band: &[Triplet]) {
        let n = band.len();
        self.order.clear();
        self.order.extend(0..n);
        self.digits.resize(n, 0);
        for level in (2..self.levels).rev() {
            self.next.clear();
            let mut i = 0;
            while i < n {
                let (j, _) = self.sort_run(band, level, i);
                let order = &self.order;
                self.next.extend(self.sorted.iter().map(|&p| order[p]));
                i = j;
            }
            std::mem::swap(&mut self.order, &mut self.next);
        }
        let s = self.radix.s;
        let mut i = 0;
        while i < n {
            let (j, (row0, col0)) = self.sort_run(band, 1, i);
            let (order, digits) = (&self.order, &self.digits);
            for group in self.sorted.chunk_by(|&a, &b| digits[a] == digits[b]) {
                let origin = (row0, col0 + digits[group[0]] as usize * s);
                let leaf = group.iter().map(|&p| leaf_entry(origin, band[order[p]]));
                self.emit
                    .push_leaf(origin.0 / s, origin.1 / s, leaf.collect());
            }
            i = j;
        }
    }

    /// Stable-sorts the run of `order` that starts at position `i` by
    /// column digit at `level`: records the digits, leaves the run's
    /// positions in digit order in `sorted`, and returns where the run
    /// ends and the top-left corner of its cells. A run shares its row
    /// cell at `level` and its column cell one level up — every digit
    /// above `c_level`, and `r_level`.
    fn sort_run(&mut self, band: &[Triplet], level: usize, i: usize) -> (usize, (usize, usize)) {
        let radix = self.radix;
        let (r0, c0, _) = band[self.order[i]];
        let (rows, cols) = (radix.cell(r0, level), radix.cell(c0, level + 1));
        let step = radix.steps[level];
        let (mut len, mut in_order, mut last) = (0, true, 0);
        for (&k, digit) in self.order[i..].iter().zip(&mut self.digits[i..]) {
            let (r, c, _) = band[k];
            if !rows.contains(&r) || !cols.contains(&c) {
                break;
            }
            let d = ((c - cols.start) / step) as u8;
            in_order &= d >= last;
            (*digit, last) = (d, d);
            len += 1;
        }
        let digits = &self.digits[i..i + len];
        self.sorted.clear();
        if in_order {
            // Already in digit order: a run inside one column block, or
            // rows that each stay in one.
            self.sorted.extend(i..i + len);
        } else if len <= SHORT_RUN {
            for (m, &d) in digits.iter().enumerate() {
                // Stable insertion: after every earlier position whose
                // digit is not larger.
                let mut h = self.sorted.len();
                while h > 0 && self.digits[self.sorted[h - 1]] > d {
                    h -= 1;
                }
                self.sorted.insert(h, i + m);
            }
        } else {
            let count = &mut self.count;
            count.fill(0);
            for &d in digits {
                count[d as usize + 1] += 1;
            }
            for b in 0..radix.s {
                count[b + 1] += count[b];
            }
            self.sorted.resize(len, 0);
            for (m, &d) in digits.iter().enumerate() {
                self.sorted[count[d as usize]] = i + m;
                count[d as usize] += 1;
            }
        }
        (i + len, (rows.start, cols.start))
    }
}

/// The stack pass: takes the leaves in block-major order and keeps the
/// open node of every level, closing a node into the arena as soon as a
/// leaf falls outside it — deepest first, which is exactly the post-order
/// of a recursive build.
struct Emitter<'a> {
    radix: Radix<'a>,
    levels: usize,
    arena: Vec<HismBlock>,
    /// Child pointers of the open node at each level (index 0 unused).
    nodes: Vec<Vec<NodeEntry>>,
    /// Coordinates `(row / s, col / s)` of the last leaf.
    prev: Option<(usize, usize)>,
}

impl<'a> Emitter<'a> {
    fn new(levels: usize, radix: Radix<'a>) -> Emitter<'a> {
        Emitter {
            radix,
            levels,
            arena: Vec::new(),
            nodes: vec![Vec::new(); levels],
            prev: None,
        }
    }

    /// Files the leaf at leaf coordinates `(lr, lc)` (its global row and
    /// column divided by `s`). The node holding it at level `ℓ` is the
    /// one at `(lr, lc) / s^ℓ`.
    fn push_leaf(&mut self, lr: usize, lc: usize, leaf: Vec<LeafEntry>) {
        if let Some(prev) = self.prev {
            let radix = self.radix;
            let mut level = 1;
            while level + 1 < self.levels
                && (radix.band(lr, level), radix.band(lc, level))
                    != (radix.band(prev.0, level), radix.band(prev.1, level))
            {
                self.close(level, prev);
                level += 1;
            }
        }
        self.arena.push(HismBlock {
            level: 0,
            data: BlockData::Leaf(leaf),
        });
        self.nodes[1].push(NodeEntry {
            row: self.radix.digit(lr, 0),
            col: self.radix.digit(lc, 0),
            child: self.arena.len() - 1,
        });
        self.prev = Some((lr, lc));
    }

    /// Closes the open node at `level` (below the root) into the arena
    /// and points its parent at it; `at` is any leaf below it.
    fn close(&mut self, level: usize, at: (usize, usize)) {
        let node = BlockData::Node(self.nodes[level].to_vec());
        self.nodes[level].clear();
        self.arena.push(HismBlock { level, data: node });
        self.nodes[level + 1].push(NodeEntry {
            row: self.radix.digit(at.0, level),
            col: self.radix.digit(at.1, level),
            child: self.arena.len() - 1,
        });
    }

    /// Closes every open node and the root (which an empty matrix still
    /// gets, empty); returns the arena and the root's index.
    fn finish(mut self) -> (Vec<HismBlock>, usize) {
        let top = self.levels - 1;
        if let Some(last) = self.prev {
            for level in 1..top {
                self.close(level, last);
            }
        }
        let root = BlockData::Node(std::mem::take(&mut self.nodes[top]));
        self.arena.push(HismBlock {
            level: top,
            data: root,
        });
        let root = self.arena.len() - 1;
        (self.arena, root)
    }
}

/// Flattens a HiSM matrix back to canonical COO.
///
/// Linear in nnz: the depth-first walk lists every row's entries in
/// increasing column (blockarrays are row-major at every level), so a
/// counting scatter by row is already canonical. A matrix that breaks
/// that — duplicate positions, explicit zeros, or entries in the padding,
/// all of which only a corrupt decoded image carries — is canonicalized
/// the slow way.
pub fn to_coo(h: &HismMatrix) -> Coo {
    let (rows, cols) = h.shape();
    let mut start = vec![0usize; rows + 1];
    let in_shape = for_each_entry(h, &mut |r, c, _| {
        let ok = r < rows && c < cols;
        if ok {
            start[r + 1] += 1;
        }
        ok
    });
    let mut coo = if in_shape {
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        let mut entries = vec![(0, 0, 0.0); start[rows]];
        for_each_entry(h, &mut |r, c, v| {
            entries[start[r]] = (r, c, v);
            start[r] += 1;
            true
        });
        Coo::from_triplets(rows, cols, entries).expect("every entry was checked in shape")
    } else {
        let mut coo = Coo::new(rows, cols);
        for_each_entry(h, &mut |r, c, v| {
            coo.push(r, c, v);
            true
        });
        coo
    };
    if !coo.is_canonical() {
        coo.canonicalize();
    }
    coo
}

/// Whether `h` holds exactly the canonical transpose of `coo` (same
/// shape swapped, every entry of `coo` canonicalized at its swapped
/// coordinates with an equal value, nothing else): `to_coo(h) ==
/// coo.transpose_canonical()` without materializing either side, and
/// stricter — an entry `to_coo` would fold away (a duplicate position, an
/// explicit zero) is a mismatch here.
///
/// One streaming pass with a cursor per row of `coo`. The depth-first
/// walk of `h` visits blocks in block-major order, so the entries of any
/// one column of `h` come out in increasing row — which is `coo`'s
/// canonical order within the matching row. Every entry must therefore be
/// the next unconsumed one of its row of `coo`.
pub fn matches_transpose(h: &HismMatrix, coo: &Coo) -> bool {
    let canon = coo.canonical();
    let (rows, cols) = canon.shape();
    if h.shape() != (cols, rows) {
        return false;
    }
    let want = canon.entries();
    let mut cursor = vec![0usize; rows];
    for (k, &(r, _, _)) in want.iter().enumerate().rev() {
        cursor[r] = k;
    }
    let mut seen = 0usize;
    let all_match = for_each_entry(h, &mut |r, c, v| {
        if r >= cols || c >= rows {
            return false;
        }
        // A cursor past its row's last entry lands on a later row (or
        // past the end), which the coordinate comparison rejects.
        match want.get(cursor[c]) {
            Some(&(wr, wc, wv)) if (wr, wc) == (c, r) && wv == v => {
                cursor[c] += 1;
                seen += 1;
                true
            }
            _ => false,
        }
    });
    all_match && seen == want.len()
}

/// Calls `f` on every entry of `h` in global coordinates, depth-first
/// with blockarrays in stored order, until it returns `false`; returns
/// whether every call returned `true`. Coordinates saturate rather than
/// overflow on a corrupt decoded hierarchy.
fn for_each_entry(h: &HismMatrix, f: &mut impl FnMut(usize, usize, Value) -> bool) -> bool {
    fn visit(
        h: &HismMatrix,
        block: usize,
        level: usize,
        origin: (usize, usize),
        f: &mut impl FnMut(usize, usize, Value) -> bool,
    ) -> bool {
        match &h.blocks()[block].data {
            BlockData::Leaf(entries) => entries.iter().all(|e| {
                f(
                    origin.0.saturating_add(e.row as usize),
                    origin.1.saturating_add(e.col as usize),
                    e.value,
                )
            }),
            BlockData::Node(entries) => {
                let step = h.section_size().saturating_pow(level as u32);
                entries.iter().all(|e| {
                    let child_origin = (
                        origin
                            .0
                            .saturating_add((e.row as usize).saturating_mul(step)),
                        origin
                            .1
                            .saturating_add((e.col as usize).saturating_mul(step)),
                    );
                    visit(h, e.child, level.saturating_sub(1), child_origin, f)
                })
            }
        }
    }
    visit(h, h.root(), h.levels() - 1, (0, 0), f)
}

/// The recursive builder and the sort-based flatten the linear ones
/// replaced, kept as the references their outputs must equal.
#[cfg(test)]
mod reference {
    use super::*;

    /// The recursive builder: canonicalize, then per block sort the
    /// triplets by their in-block key and recurse into each run.
    pub fn from_coo(coo: &Coo, s: usize) -> HismMatrix {
        let mut canon = coo.clone();
        canon.canonicalize();
        let (rows, cols) = canon.shape();
        let levels = levels_for(rows, cols, s);
        let mut blocks = Vec::new();
        let root = build_block(canon.entries(), levels - 1, (0, 0), s, &mut blocks);
        HismMatrix {
            s,
            rows,
            cols,
            levels,
            blocks,
            root,
            nnz: canon.nnz(),
        }
    }

    fn build_block(
        entries: &[Triplet],
        level: usize,
        origin: (usize, usize),
        s: usize,
        arena: &mut Vec<HismBlock>,
    ) -> usize {
        if level == 0 {
            let mut leaf: Vec<LeafEntry> = entries
                .iter()
                .map(|&(r, c, v)| LeafEntry {
                    row: (r - origin.0) as u8,
                    col: (c - origin.1) as u8,
                    value: v,
                })
                .collect();
            leaf.sort_by_key(|e| (e.row, e.col));
            arena.push(HismBlock {
                level: 0,
                data: BlockData::Leaf(leaf),
            });
            return arena.len() - 1;
        }
        let step = s.pow(level as u32);
        let mut tagged: Vec<((u8, u8), Triplet)> = entries
            .iter()
            .map(|&(r, c, v)| {
                (
                    (((r - origin.0) / step) as u8, ((c - origin.1) / step) as u8),
                    (r, c, v),
                )
            })
            .collect();
        tagged.sort_by_key(|&(key, (r, c, _))| (key, r, c));
        let mut node = Vec::new();
        let mut i = 0;
        while i < tagged.len() {
            let key = tagged[i].0;
            let j = i + tagged[i..].iter().take_while(|t| t.0 == key).count();
            let bucket: Vec<Triplet> = tagged[i..j].iter().map(|&(_, e)| e).collect();
            let origin = (
                origin.0 + key.0 as usize * step,
                origin.1 + key.1 as usize * step,
            );
            let child = build_block(&bucket, level - 1, origin, s, arena);
            node.push(NodeEntry {
                row: key.0,
                col: key.1,
                child,
            });
            i = j;
        }
        arena.push(HismBlock {
            level,
            data: BlockData::Node(node),
        });
        arena.len() - 1
    }

    /// The sort-based flatten: every entry, then `canonicalize`.
    pub fn to_coo(h: &HismMatrix) -> Coo {
        let mut coo = Coo::new(h.rows(), h.cols());
        for (r, c, v) in h.iter() {
            coo.push(r, c, v);
        }
        coo.canonicalize();
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HismImage;
    use stm_sparse::gen;
    use stm_sparse::rng::StdRng;

    const SECTION_SIZES: [usize; 6] = [2, 3, 4, 8, 64, 256];

    /// Asserts the linear builder and flatten agree with the references:
    /// equal matrices, byte-identical images, equal flattened lists.
    fn assert_matches_reference(coo: &Coo, s: usize, what: &str) {
        let h = from_coo(coo, s).unwrap();
        let want = reference::from_coo(coo, s);
        assert_eq!(h, want, "{what}, s={s}: matrix");
        let (img, want_img) = (HismImage::encode(&h), HismImage::encode(&want));
        assert_eq!(img.words, want_img.words, "{what}, s={s}: image words");
        assert_eq!(img.root, want_img.root, "{what}, s={s}: root");
        assert_eq!(img.integrity, want_img.integrity, "{what}, s={s}: seal");
        let flat = to_coo(&h);
        assert_eq!(flat, reference::to_coo(&h), "{what}, s={s}: flatten");
        let t = crate::transpose::transpose(&h);
        assert!(
            matches_transpose(&t, coo),
            "{what}, s={s}: streaming compare"
        );
    }

    #[test]
    fn linear_builder_equals_the_recursive_reference_on_generator_families() {
        let families = [
            gen::structured::tridiagonal(200),
            gen::structured::grid2d_5pt(30, 30),
            gen::structured::grid3d_7pt(7, 6, 5),
            gen::random::uniform(150, 150, 900, 5),
            gen::random::uniform(700, 90, 1500, 8),
            gen::random::power_law(300, 300, 12.0, 0.9, 4),
            gen::blocks::block_dense(128, 16, 6, 0.8, 6),
            gen::blocks::block_band(300, 8, 1, 0.7, 3),
            gen::rmat::rmat(9, 3000, gen::rmat::RmatProbs::default(), 7),
        ];
        for (i, coo) in families.iter().enumerate() {
            for s in SECTION_SIZES {
                assert_matches_reference(coo, s, &format!("family {i}"));
            }
        }
    }

    #[test]
    fn linear_builder_equals_the_recursive_reference_on_dsab_matrices() {
        // The quick catalogue, and the paper's picks small enough for a
        // debug-build test (the release-mode benchmark pins the rest
        // through their image digests).
        let full = stm_dsab::full_catalogue();
        let picks = [
            "rect-100x10000",
            "grid3d-16",
            "blockfill-0.1",
            "blockdense-512-b64",
            "kron-5",
            "powlaw-2048-a16",
            "band-1024-w2",
            "jitter-1024-4",
        ];
        let specs = stm_dsab::quick_catalogue().into_iter().chain(
            full.into_iter()
                .filter(|m| picks.contains(&m.name.as_str())),
        );
        let mut seen = 0;
        for spec in specs {
            let coo = spec.build();
            for s in SECTION_SIZES {
                assert_matches_reference(&coo, s, &spec.name);
            }
            seen += 1;
        }
        assert_eq!(seen, 16 + picks.len(), "a named pick left the catalogue");
    }

    #[test]
    fn non_canonical_inputs_match_the_reference() {
        for seed in 0..6u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let (rows, cols) = (1 + r.gen_range(0..300usize), 1 + r.gen_range(0..300usize));
            let mut entries = Vec::new();
            for _ in 0..r.gen_range(0..1200usize) {
                let (i, j) = (r.gen_range(0..rows), r.gen_range(0..cols));
                // Explicit zeros, duplicates that sum, pairs that cancel.
                match r.gen_range(0..6usize) {
                    0 => entries.push((i, j, 0.0)),
                    1 => entries.extend([(i, j, 1.5), (i, j, -1.5)]),
                    2 => entries.extend([(i, j, 0.25), (i, j, 2.0)]),
                    _ => entries.push((i, j, r.gen_range(1..100usize) as f32)),
                }
            }
            let coo = Coo::from_triplets(rows, cols, entries).unwrap();
            assert!(!coo.is_canonical() || coo.nnz() < 2);
            for s in SECTION_SIZES {
                assert_matches_reference(&coo, s, &format!("messy seed {seed}"));
            }
        }
    }

    #[test]
    fn empty_and_single_level_matrices_match_the_reference() {
        for coo in [
            Coo::new(0, 0),
            Coo::new(100, 100),
            Coo::new(1, 70000),
            Coo::from_triplets(5, 5, vec![(4, 4, 1.0)]).unwrap(),
            Coo::from_triplets(2, 2, vec![(0, 0, 0.0)]).unwrap(),
            Coo::from_triplets(256, 256, vec![(255, 0, 1.0), (0, 255, 2.0)]).unwrap(),
            Coo::from_triplets(1, 1000, (0..1000).map(|c| (0, c, 1.0)).collect()).unwrap(),
            Coo::from_triplets(1000, 1, (0..1000).map(|r| (r, 0, 1.0)).collect()).unwrap(),
        ] {
            for s in SECTION_SIZES {
                assert_matches_reference(&coo, s, &format!("{:?}", coo.shape()));
            }
        }
    }

    #[test]
    fn streaming_compare_rejects_every_difference() {
        let coo = gen::random::uniform(70, 90, 600, 3);
        let t = crate::transpose::transpose(&from_coo(&coo, 8).unwrap());
        assert!(matches_transpose(&t, &coo));
        let edit = |f: &dyn Fn(&mut Vec<Triplet>)| {
            let mut e = coo.entries().to_vec();
            f(&mut e);
            Coo::from_triplets(coo.rows(), coo.cols(), e).unwrap()
        };
        for (what, other) in [
            ("changed value", edit(&|e| e[17].2 += 1.0)),
            ("entry missing from h", edit(&|e| e.push((3, 4, 9.0)))),
            (
                "entry h has in excess",
                edit(&|e| {
                    e.remove(40);
                }),
            ),
            ("moved entry", edit(&|e| e[5].1 = (e[5].1 + 1) % 90)),
        ] {
            assert!(!matches_transpose(&t, &other), "{what}");
        }
        let wider = Coo::from_triplets(70, 91, coo.entries().to_vec()).unwrap();
        assert!(!matches_transpose(&t, &wider), "shape");
    }

    #[test]
    fn levels_formula_matches_paper() {
        // s=64: up to 64 → 1 level; up to 4096 → 2; up to 262144 → 3.
        assert_eq!(levels_for(64, 64, 64), 1);
        assert_eq!(levels_for(65, 1, 64), 2);
        assert_eq!(levels_for(4096, 4096, 64), 2);
        assert_eq!(levels_for(4097, 1, 64), 3);
        assert_eq!(levels_for(1, 1, 64), 1);
    }

    #[test]
    fn round_trip_small() {
        let coo = Coo::from_triplets(7, 13, vec![(0, 12, 1.0), (6, 0, 2.0), (3, 3, 3.0)]).unwrap();
        let h = from_coo(&coo, 4).unwrap();
        h.validate().unwrap();
        let mut orig = coo;
        orig.canonicalize();
        assert_eq!(to_coo(&h), orig);
    }

    #[test]
    fn round_trip_generator_families() {
        for (i, coo) in [
            gen::structured::tridiagonal(200),
            gen::random::uniform(150, 150, 900, 5),
            gen::blocks::block_dense(128, 16, 6, 0.8, 6),
            gen::rmat::rmat(7, 500, gen::rmat::RmatProbs::default(), 7),
        ]
        .into_iter()
        .enumerate()
        {
            for s in [4usize, 8, 64] {
                let h = from_coo(&coo, s).unwrap();
                h.validate().unwrap();
                let mut orig = coo.clone();
                orig.canonicalize();
                assert_eq!(to_coo(&h), orig, "family {i}, s={s}");
            }
        }
    }

    #[test]
    fn empty_matrix_is_representable() {
        let h = from_coo(&Coo::new(100, 100), 8).unwrap();
        assert_eq!(h.nnz(), 0);
        assert_eq!(to_coo(&h).nnz(), 0);
        h.validate().unwrap();
    }

    #[test]
    fn single_level_when_matrix_fits_one_block() {
        let coo = Coo::from_triplets(5, 5, vec![(4, 4, 1.0)]).unwrap();
        let h = from_coo(&coo, 8).unwrap();
        assert_eq!(h.levels(), 1);
        assert_eq!(h.blocks().len(), 1);
    }

    #[test]
    fn rejects_oversized_section() {
        assert!(from_coo(&Coo::new(2, 2), 512).is_err());
        assert!(from_coo(&Coo::new(2, 2), 1).is_err());
    }

    #[test]
    fn builder_revalidates_entry_bounds() {
        // `Coo::push` asserts bounds at insertion, so every in-API COO
        // passes; the builder still revalidates so no future unchecked
        // constructor can smuggle out-of-shape coordinates into the 8-bit
        // narrowing of `build_block`.
        let coo = Coo::from_triplets(10, 10, vec![(9, 9, 1.0)]).unwrap();
        assert!(from_coo(&coo, 8).is_ok());
    }

    #[test]
    fn post_order_children_before_parents() {
        let coo = gen::random::uniform(100, 100, 300, 1);
        let h = from_coo(&coo, 8).unwrap();
        for (i, b) in h.blocks().iter().enumerate() {
            if let BlockData::Node(v) = &b.data {
                for e in v {
                    assert!(e.child < i, "child after parent");
                }
            }
        }
        assert_eq!(h.root(), h.blocks().len() - 1);
    }

    #[test]
    fn three_level_hierarchy() {
        // s=4, dim 70 → q=3 (4^2=16 < 70 <= 64? no: 4^3 = 64 < 70 → q=4).
        assert_eq!(levels_for(70, 70, 4), 4);
        let coo = Coo::from_triplets(70, 70, vec![(69, 69, 1.0), (0, 0, 2.0)]).unwrap();
        let h = from_coo(&coo, 4).unwrap();
        assert_eq!(h.levels(), 4);
        assert_eq!(h.get(69, 69), Some(1.0));
        let mut orig = coo;
        orig.canonicalize();
        assert_eq!(to_coo(&h), orig);
    }
}
