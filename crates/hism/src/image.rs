//! The flat memory image of a HiSM matrix — what the simulated vector
//! processor actually operates on.
//!
//! Layout (32-bit words, addresses are word offsets from the image base):
//!
//! * A blockarray of length `n` occupies `2n` words: entry `k` is the pair
//!   `[payload_k, pos_k]`, where `payload` is the value's bit pattern
//!   (level 0) or the child blockarray's word address (levels ≥ 1), and
//!   `pos = row << 8 | col` packs the 8-bit in-block coordinates.
//! * For levels ≥ 1 the paper's *lengths vector* — `n` words, the k-th
//!   holding the entry count of the k-th child — is stored immediately
//!   after the blockarray (at `addr + 2n`).
//! * Blocks are laid out in post-order (children before parents), so every
//!   pointer refers backwards; the root blockarray is last and is described
//!   by the external [`RootDesc`].
//!
//! The paper packs value + positions into 48 bits; we use two aligned
//! 32-bit words per entry. The cycle model accounts for this via
//! `VpConfig::words_per_entry` (see DESIGN.md, "Deliberate model
//! interpretations").

use crate::error::ImageError;
use crate::matrix::{BlockData, HismBlock, HismMatrix, LeafEntry, NodeEntry};
use stm_sparse::Value;

/// Words per blockarray entry in the image (`[payload, pos]`).
pub const WORDS_PER_ENTRY: u32 = 2;

/// Packs in-block coordinates into a position word (`row << 8 | col`).
pub fn pack_pos(row: u8, col: u8) -> u32 {
    (row as u32) << 8 | col as u32
}

/// Unpacks a position word into `(row, col)`.
pub fn unpack_pos(pos: u32) -> (u8, u8) {
    (((pos >> 8) & 0xff) as u8, (pos & 0xff) as u8)
}

/// Swaps the row/col fields of a position word — the STM's core data
/// transformation.
pub fn swap_pos(pos: u32) -> u32 {
    let (r, c) = unpack_pos(pos);
    pack_pos(c, r)
}

/// The root descriptor the paper keeps outside the image: "the matrix can
/// be referred to in terms of the memory position of the start of the top
/// level s²-blockarray and its length".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootDesc {
    /// Word address of the root blockarray.
    pub addr: u32,
    /// Entry count of the root blockarray.
    pub len: u32,
    /// Number of hierarchy levels `q`.
    pub levels: u32,
    /// Logical rows (pre-padding).
    pub rows: u32,
    /// Logical columns (pre-padding).
    pub cols: u32,
    /// Section size `s`.
    pub s: u32,
}

/// Version of the integrity sidecar header this crate writes.
pub const INTEGRITY_VERSION: u32 = 1;

/// Magic word opening a serialized integrity header (`"HIS" + version
/// marker`), so a stray word vector is never misread as a header.
pub const INTEGRITY_MAGIC: u32 = 0x4849_5349; // "HISI"

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over one word's little-endian bytes. Section checksums XOR
/// these per-word hashes together, so they are order-independent — the
/// simulated STM permutes blockarrays in place, and a permuted-but-intact
/// image must still verify.
fn fnv_word(w: u32) -> u64 {
    let mut h = FNV_OFFSET;
    for b in w.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Order-independent FNV-1a checksums over the four word classes of a
/// HiSM image: leaf values, child pointers, position words, and lengths
/// vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SectionSums {
    /// XOR of per-word hashes over leaf payload (value-bit) words.
    pub values: u64,
    /// XOR of per-word hashes over node payload (child-pointer) words.
    pub pointers: u64,
    /// XOR of per-word hashes over position words (all levels).
    pub positions: u64,
    /// XOR of per-word hashes over lengths-vector words.
    pub lengths: u64,
}

impl SectionSums {
    /// Folds one leaf entry's words (value bits, position) into the sums.
    pub fn add_leaf_entry(&mut self, value: u32, pos: u32) {
        self.values ^= fnv_word(value);
        self.positions ^= fnv_word(pos);
    }

    /// Folds one node entry's words (child pointer, position, and its
    /// lengths-vector word) into the sums.
    pub fn add_node_entry(&mut self, pointer: u32, pos: u32, len: u32) {
        self.pointers ^= fnv_word(pointer);
        self.positions ^= fnv_word(pos);
        self.lengths ^= fnv_word(len);
    }

    /// The first section that disagrees with `other`, as a typed error
    /// (`self` is the header, `other` the recomputed sums).
    fn diff(&self, other: &SectionSums) -> Option<ImageError> {
        let pairs = [
            ("values", self.values, other.values),
            ("pointers", self.pointers, other.pointers),
            ("positions", self.positions, other.positions),
            ("lengths", self.lengths, other.lengths),
        ];
        pairs
            .into_iter()
            .find(|(_, a, b)| a != b)
            .map(|(section, expect, got)| ImageError::Integrity {
                section,
                expect,
                got,
            })
    }
}

/// One leaf payload word, located both in the image (word address) and in
/// the matrix (global coordinates) — the unit of value-targeted fault
/// injection and of weighted site selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueSite {
    /// Word address of the value word inside the image.
    pub addr: u32,
    /// Global row of the entry this word belongs to.
    pub row: u64,
    /// Global column of the entry this word belongs to.
    pub col: u64,
    /// The value currently stored there (bit cast).
    pub value: f32,
}

/// Accumulator for one structural walk over an image.
#[derive(Default)]
struct SectionWalk {
    sums: SectionSums,
    collect_values: bool,
    value_sites: Vec<ValueSite>,
}

/// The versioned sidecar header carrying an image's section checksums.
/// It travels next to the image (never inside the word vector, which
/// stays exactly the hardware layout) and is re-derivable at any time
/// from a structurally valid image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityHeader {
    /// Header format version ([`INTEGRITY_VERSION`]).
    pub version: u32,
    /// The section checksums.
    pub sums: SectionSums,
}

impl IntegrityHeader {
    /// Serialized length in words: magic, version, four 2-word sums.
    pub const WORDS: usize = 10;

    /// Serializes the header to its word form (magic, version, then each
    /// sum as `[lo, hi]`).
    pub fn to_words(&self) -> Vec<u32> {
        let mut w = vec![INTEGRITY_MAGIC, self.version];
        for s in [
            self.sums.values,
            self.sums.pointers,
            self.sums.positions,
            self.sums.lengths,
        ] {
            w.push(s as u32);
            w.push((s >> 32) as u32);
        }
        w
    }

    /// Parses a serialized header. Returns `None` when the magic or
    /// length is wrong — callers treat that as "no header present".
    pub fn from_words(words: &[u32]) -> Option<IntegrityHeader> {
        if words.len() != Self::WORDS || words[0] != INTEGRITY_MAGIC {
            return None;
        }
        let u = |i: usize| words[i] as u64 | (words[i + 1] as u64) << 32;
        Some(IntegrityHeader {
            version: words[1],
            sums: SectionSums {
                values: u(2),
                pointers: u(4),
                positions: u(6),
                lengths: u(8),
            },
        })
    }
}

/// A serialized HiSM matrix: the word image plus its root descriptor and
/// the relocation table (word indices that hold child addresses).
#[derive(Debug, Clone, PartialEq)]
pub struct HismImage {
    /// The image words. Addresses in [`RootDesc`] and in pointer entries
    /// are relative to index 0 of this vector (i.e. the image is linked
    /// for base address 0).
    pub words: Vec<u32>,
    /// Root descriptor.
    pub root: RootDesc,
    /// Word indices that contain child addresses, for [`HismImage::relocate`].
    pub pointer_sites: Vec<u32>,
    /// Section checksums sealed over the current words, when present.
    /// `None` marks a legacy/headerless image — it still loads, but the
    /// consumer counts the absence.
    pub integrity: Option<IntegrityHeader>,
}

impl HismImage {
    /// Serializes a HiSM matrix (blocks are already in post-order in the
    /// arena, so arena order is the layout order) and seals it, summing
    /// each word as it is written.
    pub fn encode(h: &HismMatrix) -> HismImage {
        let (mut leaf_entries, mut node_entries) = (0, 0);
        for b in h.blocks() {
            match &b.data {
                BlockData::Leaf(v) => leaf_entries += v.len(),
                BlockData::Node(v) => node_entries += v.len(),
            }
        }
        let mut words: Vec<u32> = Vec::with_capacity(2 * leaf_entries + 3 * node_entries);
        let mut pointer_sites: Vec<u32> = Vec::with_capacity(node_entries);
        let mut addr_of: Vec<u32> = vec![u32::MAX; h.blocks().len()];
        let mut sums = SectionSums::default();
        for (i, b) in h.blocks().iter().enumerate() {
            let addr = words.len() as u32;
            addr_of[i] = addr;
            match &b.data {
                BlockData::Leaf(entries) => {
                    for e in entries {
                        let (value, pos) = (e.value.to_bits(), pack_pos(e.row, e.col));
                        words.extend([value, pos]);
                        sums.add_leaf_entry(value, pos);
                    }
                }
                BlockData::Node(entries) => {
                    for e in entries {
                        let (ptr, pos) = (addr_of[e.child], pack_pos(e.row, e.col));
                        pointer_sites.push(words.len() as u32);
                        words.extend([ptr, pos]);
                        sums.add_node_entry(ptr, pos, h.blocks()[e.child].len() as u32);
                    }
                    for e in entries {
                        words.push(h.blocks()[e.child].len() as u32);
                    }
                }
            }
        }
        let root = RootDesc {
            addr: addr_of[h.root()],
            len: h.root_block().len() as u32,
            levels: h.levels() as u32,
            rows: h.rows() as u32,
            cols: h.cols() as u32,
            s: h.section_size() as u32,
        };
        let img = HismImage {
            words,
            root,
            pointer_sites,
            integrity: Some(IntegrityHeader {
                version: INTEGRITY_VERSION,
                sums,
            }),
        };
        // Every block of a matrix is reachable from its root exactly once,
        // so the layout-order sums equal the walk's.
        debug_assert_eq!(img.integrity, img.compute_integrity().ok());
        img
    }

    /// Recomputes the section checksums over the current words and walks
    /// the image structure in the process. Fails with the first
    /// structural corruption found, exactly like [`HismImage::decode`]
    /// (minus position-range checks, which are a decode concern).
    pub fn compute_integrity(&self) -> Result<IntegrityHeader, ImageError> {
        let mut walk = SectionWalk::default();
        self.walk_block(
            self.root.addr,
            self.root.len,
            self.root.levels.max(1) - 1,
            (0, 0),
            &mut (self.words.len() as u64 / 2 + 1),
            &mut walk,
        )?;
        Ok(IntegrityHeader {
            version: INTEGRITY_VERSION,
            sums: walk.sums,
        })
    }

    /// Word addresses of every leaf payload (value-bit) word, in layout
    /// order. Empty for an empty matrix. This is the target set for
    /// value-only fault injection: flipping any of these words corrupts
    /// matrix *content* without touching structure.
    pub fn value_sites(&self) -> Result<Vec<u32>, ImageError> {
        Ok(self
            .value_sites_detailed()?
            .iter()
            .map(|s| s.addr)
            .collect())
    }

    /// Every leaf payload word together with its global matrix
    /// coordinates and current value, in layout order. The coordinates
    /// let a fault injector weight sites by how they feed a downstream
    /// computation (e.g. which SpMV input element they multiply).
    pub fn value_sites_detailed(&self) -> Result<Vec<ValueSite>, ImageError> {
        let mut walk = SectionWalk {
            collect_values: true,
            ..SectionWalk::default()
        };
        self.walk_block(
            self.root.addr,
            self.root.len,
            self.root.levels.max(1) - 1,
            (0, 0),
            &mut (self.words.len() as u64 / 2 + 1),
            &mut walk,
        )?;
        Ok(walk.value_sites)
    }

    /// (Re-)seals the integrity header over the current words. A
    /// structurally broken image cannot be summed; it is left headerless.
    pub fn seal_integrity(&mut self) {
        self.integrity = self.compute_integrity().ok();
    }

    /// Re-verifies the sealed checksums against the current words.
    ///
    /// * `Ok(true)` — header present and every section matches.
    /// * `Ok(false)` — no header (or an unknown future version): nothing
    ///   to check; callers count the absence.
    /// * `Err(ImageError::Integrity {..})` — a section disagrees.
    /// * `Err(other)` — the image is too structurally broken to walk.
    pub fn verify_integrity(&self) -> Result<bool, ImageError> {
        let header = match &self.integrity {
            Some(h) if h.version == INTEGRITY_VERSION => h,
            _ => return Ok(false),
        };
        let got = self.compute_integrity()?;
        match header.sums.diff(&got.sums) {
            Some(err) => Err(err),
            None => Ok(true),
        }
    }

    fn walk_block(
        &self,
        addr: u32,
        len: u32,
        level: u32,
        off: (u64, u64),
        budget: &mut u64,
        out: &mut SectionWalk,
    ) -> Result<(), ImageError> {
        let base = addr as usize;
        if (len as u64) > *budget {
            return Err(ImageError::Runaway { addr });
        }
        *budget -= len as u64;
        // Each level-ℓ position addresses an s^ℓ × s^ℓ subblock. The
        // walk runs before decode's section-size guard (the checksum
        // check is the *first* line of defence), so the root descriptor
        // is untrusted here: saturate instead of overflowing on garbage
        // `s`/`levels` — the offsets only matter for valid images.
        let scale = (self.root.s.max(1) as u64).saturating_pow(level);
        if level == 0 {
            for k in 0..len as usize {
                let v = self.word(base + 2 * k)?;
                let p = self.word(base + 2 * k + 1)?;
                out.sums.add_leaf_entry(v, p);
                if out.collect_values {
                    let (r, c) = unpack_pos(p);
                    out.value_sites.push(ValueSite {
                        addr: (base + 2 * k) as u32,
                        row: off.0.saturating_add(r as u64),
                        col: off.1.saturating_add(c as u64),
                        value: f32::from_bits(v),
                    });
                }
            }
        } else {
            let lens_base = base + 2 * len as usize;
            for k in 0..len as usize {
                let child_addr = self.word(base + 2 * k)?;
                let p = self.word(base + 2 * k + 1)?;
                let child_len = self.word(lens_base + k)?;
                out.sums.add_node_entry(child_addr, p, child_len);
                let (r, c) = unpack_pos(p);
                let child_off = (
                    off.0.saturating_add((r as u64).saturating_mul(scale)),
                    off.1.saturating_add((c as u64).saturating_mul(scale)),
                );
                self.walk_block(child_addr, child_len, level - 1, child_off, budget, out)?;
            }
        }
        Ok(())
    }

    /// Rebuilds the host structure from the image. Works on images whose
    /// blockarrays were permuted in place (e.g. by the simulated STM), as
    /// long as the `(pointer, length)` pairing is consistent.
    ///
    /// The image is treated as untrusted input: the first corruption found
    /// (out-of-bounds pointer or length, position outside the block,
    /// runaway total size) is returned as a typed [`ImageError`] carrying
    /// the offending word address — decoding never panics.
    pub fn decode(&self) -> Result<HismMatrix, ImageError> {
        if self.root.levels == 0 {
            return Err(ImageError::ZeroLevels);
        }
        // A sealed image is checked against its checksums before the
        // structural walk, so a flipped bit is reported as the content
        // corruption it is — even when it lands on a word the structural
        // checks would never look at.
        self.verify_integrity()?;
        if !(2..=256).contains(&(self.root.s as usize)) {
            return Err(ImageError::BadSectionSize(self.root.s));
        }
        let mut blocks: Vec<HismBlock> = Vec::new();
        // A valid image never holds more entries than words/2; use that
        // as a runaway guard against cyclic pointer corruption.
        let mut budget = self.words.len() as u64 / 2 + 1;
        let root = self.decode_block(
            self.root.addr,
            self.root.len,
            self.root.levels - 1,
            &mut blocks,
            &mut budget,
        )?;
        let nnz = blocks
            .iter()
            .map(|b| if b.level == 0 { b.len() } else { 0 })
            .sum();
        Ok(HismMatrix {
            s: self.root.s as usize,
            rows: self.root.rows as usize,
            cols: self.root.cols as usize,
            levels: self.root.levels as usize,
            blocks,
            root,
            nnz,
        })
    }

    fn word(&self, addr: usize) -> Result<u32, ImageError> {
        self.words
            .get(addr)
            .copied()
            .ok_or_else(|| ImageError::OutOfBounds {
                addr: addr.min(u32::MAX as usize) as u32,
                len: self.words.len() as u32,
            })
    }

    fn decode_block(
        &self,
        addr: u32,
        len: u32,
        level: u32,
        arena: &mut Vec<HismBlock>,
        budget: &mut u64,
    ) -> Result<usize, ImageError> {
        let base = addr as usize;
        if (len as u64) > *budget {
            return Err(ImageError::Runaway { addr });
        }
        *budget -= len as u64;
        let s = self.root.s as u8;
        let sw = self.root.s;
        let check_pos = |addr: usize, row: u8, col: u8| -> Result<(), ImageError> {
            if (sw as usize) < 256 && (row >= s || col >= s) {
                return Err(ImageError::BadPosition {
                    addr: addr.min(u32::MAX as usize) as u32,
                    row,
                    col,
                    s: sw,
                });
            }
            Ok(())
        };
        if level == 0 {
            let mut leaf: Vec<LeafEntry> = Vec::with_capacity(len as usize);
            for k in 0..len as usize {
                let v = Value::from_bits(self.word(base + 2 * k)?);
                let (row, col) = unpack_pos(self.word(base + 2 * k + 1)?);
                check_pos(base + 2 * k + 1, row, col)?;
                leaf.push(LeafEntry { row, col, value: v });
            }
            leaf.sort_by_key(|e| (e.row, e.col));
            arena.push(HismBlock {
                level: 0,
                data: BlockData::Leaf(leaf),
            });
        } else {
            let lens_base = base + 2 * len as usize;
            let mut node: Vec<NodeEntry> = Vec::with_capacity(len as usize);
            for k in 0..len as usize {
                let child_addr = self.word(base + 2 * k)?;
                let (row, col) = unpack_pos(self.word(base + 2 * k + 1)?);
                check_pos(base + 2 * k + 1, row, col)?;
                let child_len = self.word(lens_base + k)?;
                let child = self.decode_block(child_addr, child_len, level - 1, arena, budget)?;
                node.push(NodeEntry { row, col, child });
            }
            node.sort_by_key(|e| (e.row, e.col));
            arena.push(HismBlock {
                level: level as usize,
                data: BlockData::Node(node),
            });
        }
        Ok(arena.len() - 1)
    }

    /// Total image size in words.
    pub fn len_words(&self) -> usize {
        self.words.len()
    }

    /// Adds `base` to every stored child address and to the root address,
    /// producing an image linked for loading at word address `base`.
    pub fn relocate(&mut self, base: u32) {
        for &site in &self.pointer_sites {
            self.words[site as usize] += base;
        }
        self.root.addr += base;
        // A relocated image is linked for a foreign base address: its
        // words can no longer be walked from index 0, so the sealed sums
        // are unverifiable. Drop the header rather than carry a stale one.
        self.integrity = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;
    use stm_sparse::{gen, Coo};

    #[test]
    fn pos_packing_round_trip() {
        for (r, c) in [(0u8, 0u8), (255, 255), (7, 63), (63, 7)] {
            assert_eq!(unpack_pos(pack_pos(r, c)), (r, c));
        }
        assert_eq!(swap_pos(pack_pos(3, 9)), pack_pos(9, 3));
    }

    #[test]
    fn encode_decode_round_trip() {
        let coo = gen::random::uniform(120, 90, 500, 11);
        let h = build::from_coo(&coo, 8).unwrap();
        let img = HismImage::encode(&h);
        let back = img.decode().unwrap();
        back.validate().unwrap();
        assert_eq!(build::to_coo(&back), build::to_coo(&h));
    }

    #[test]
    fn image_size_accounting() {
        // 3 leaf entries in one block (s=8, 5x5 → 1 level): 6 words.
        let coo = Coo::from_triplets(5, 5, vec![(0, 0, 1.0), (1, 2, 2.0), (4, 4, 3.0)]).unwrap();
        let h = build::from_coo(&coo, 8).unwrap();
        let img = HismImage::encode(&h);
        assert_eq!(img.len_words(), 6);
        assert_eq!(
            img.root,
            RootDesc {
                addr: 0,
                len: 3,
                levels: 1,
                rows: 5,
                cols: 5,
                s: 8
            }
        );
        assert!(img.pointer_sites.is_empty());
    }

    #[test]
    fn two_level_image_has_lengths_vectors() {
        // s=4, 8x8 → 2 levels; two leaves.
        let coo = Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (7, 7, 2.0)]).unwrap();
        let h = build::from_coo(&coo, 4).unwrap();
        let img = HismImage::encode(&h);
        // leaves: 2 + 2 words; root: 2 entries * 2 + 2 lengths = 6 words.
        assert_eq!(img.len_words(), 10);
        assert_eq!(img.pointer_sites.len(), 2);
        // Lengths vector of the root holds 1, 1.
        let root_base = img.root.addr as usize;
        assert_eq!(&img.words[root_base + 4..root_base + 6], &[1, 1]);
    }

    #[test]
    fn pointers_are_backwards() {
        let coo = gen::rmat::rmat(7, 400, gen::rmat::RmatProbs::default(), 5);
        let h = build::from_coo(&coo, 8).unwrap();
        let img = HismImage::encode(&h);
        for &site in &img.pointer_sites {
            assert!(img.words[site as usize] < site);
        }
    }

    #[test]
    fn relocation_shifts_pointers_and_root() {
        let coo = Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (7, 7, 2.0)]).unwrap();
        let h = build::from_coo(&coo, 4).unwrap();
        let mut img = HismImage::encode(&h);
        let before: Vec<u32> = img
            .pointer_sites
            .iter()
            .map(|&s| img.words[s as usize])
            .collect();
        img.relocate(1000);
        let after: Vec<u32> = img
            .pointer_sites
            .iter()
            .map(|&s| img.words[s as usize])
            .collect();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b + 1000, *a);
        }
        assert_eq!(img.root.addr, 1000 + 4); // two 2-word leaves precede root
    }

    #[test]
    fn try_decode_rejects_out_of_bounds_pointer() {
        let coo = Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (7, 7, 2.0)]).unwrap();
        let h = build::from_coo(&coo, 4).unwrap();
        let mut img = HismImage::encode(&h);
        let site = img.pointer_sites[0] as usize;
        img.words[site] = 1_000_000; // dangling child pointer
        assert!(img.decode().is_err());
    }

    #[test]
    fn try_decode_rejects_runaway_length() {
        let coo = Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (7, 7, 2.0)]).unwrap();
        let h = build::from_coo(&coo, 4).unwrap();
        let mut img = HismImage::encode(&h);
        // Corrupt the root lengths vector with an absurd child length.
        let root_base = img.root.addr as usize;
        img.words[root_base + 2 * img.root.len as usize] = u32::MAX;
        assert!(img.decode().is_err());
    }

    #[test]
    fn try_decode_rejects_bad_position() {
        let coo = Coo::from_triplets(4, 4, vec![(0, 0, 1.0)]).unwrap();
        let h = build::from_coo(&coo, 4).unwrap();
        let mut img = HismImage::encode(&h);
        img.words[1] = pack_pos(200, 200); // outside an s=4 block
        assert!(img.decode().is_err());
    }

    #[test]
    fn try_decode_rejects_zero_levels() {
        let coo = Coo::from_triplets(4, 4, vec![(0, 0, 1.0)]).unwrap();
        let h = build::from_coo(&coo, 4).unwrap();
        let mut img = HismImage::encode(&h);
        img.root.levels = 0;
        assert!(img.decode().is_err());
    }

    #[test]
    fn encode_seals_a_verifiable_header() {
        let coo = gen::random::uniform(120, 90, 500, 11);
        let h = build::from_coo(&coo, 8).unwrap();
        let img = HismImage::encode(&h);
        let header = img.integrity.expect("encode must seal");
        assert_eq!(header.version, INTEGRITY_VERSION);
        assert_eq!(img.verify_integrity(), Ok(true));
        // The sidecar word form round-trips.
        assert_eq!(
            IntegrityHeader::from_words(&header.to_words()),
            Some(header)
        );
        assert_eq!(IntegrityHeader::from_words(&[0, 0, 0]), None);
    }

    #[test]
    fn headerless_images_still_load() {
        let coo = gen::random::uniform(50, 50, 200, 7);
        let h = build::from_coo(&coo, 8).unwrap();
        let mut img = HismImage::encode(&h);
        img.integrity = None; // a legacy image
        assert_eq!(img.verify_integrity(), Ok(false));
        assert_eq!(build::to_coo(&img.decode().unwrap()), build::to_coo(&h));
    }

    #[test]
    fn sealed_sums_survive_blockarray_permutation() {
        // The STM permutes blockarrays in place; a permuted-but-intact
        // image must still verify (sums are order-independent per class).
        let coo = Coo::from_triplets(5, 5, vec![(0, 0, 1.0), (1, 2, 2.0), (4, 4, 3.0)]).unwrap();
        let h = build::from_coo(&coo, 8).unwrap();
        let mut img = HismImage::encode(&h);
        img.words.swap(0, 2);
        img.words.swap(1, 3);
        assert_eq!(img.verify_integrity(), Ok(true));
    }

    #[test]
    fn a_value_bit_flip_is_caught_at_decode_by_the_checksum() {
        // A flipped value bit changes no structure — only the checksum
        // can see it.
        let coo = gen::random::uniform(50, 50, 200, 7);
        let h = build::from_coo(&coo, 8).unwrap();
        let mut img = HismImage::encode(&h);
        let site = img.value_sites().unwrap()[3] as usize;
        img.words[site] ^= 1 << 13;
        match img.decode() {
            Err(ImageError::Integrity { section, .. }) => assert_eq!(section, "values"),
            other => panic!("expected integrity error, got {other:?}"),
        }
        assert!(matches!(
            img.verify_integrity(),
            Err(ImageError::Integrity { .. })
        ));
    }

    #[test]
    fn value_sites_are_exactly_the_leaf_payload_words() {
        let coo = Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (7, 7, 2.0)]).unwrap();
        let h = build::from_coo(&coo, 4).unwrap();
        let img = HismImage::encode(&h);
        // Two 1-entry leaves at words 0..2 and 2..4: payloads at 0 and 2.
        assert_eq!(img.value_sites().unwrap(), vec![0, 2]);
    }

    #[test]
    fn relocation_drops_the_unverifiable_header() {
        let coo = Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (7, 7, 2.0)]).unwrap();
        let h = build::from_coo(&coo, 4).unwrap();
        let mut img = HismImage::encode(&h);
        assert!(img.integrity.is_some());
        img.relocate(1000);
        assert!(img.integrity.is_none());
    }

    #[test]
    fn decode_tolerates_permuted_blockarrays() {
        // Swap two entries of a leaf blockarray (with their pos words):
        // decode must still recover the same matrix.
        let coo = Coo::from_triplets(5, 5, vec![(0, 0, 1.0), (1, 2, 2.0), (4, 4, 3.0)]).unwrap();
        let h = build::from_coo(&coo, 8).unwrap();
        let mut img = HismImage::encode(&h);
        img.words.swap(0, 2);
        img.words.swap(1, 3);
        let back = img.decode().unwrap();
        assert_eq!(build::to_coo(&back), build::to_coo(&h));
    }
}
