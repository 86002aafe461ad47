//! Host-native HiSM kernels: in-place hierarchical transposition and
//! SpMV over the flat word image, bit-identical to the simulated
//! `transpose_hism` / `spmv_hism`.
//!
//! Both kernels walk the same untrusted image the simulator walks, with
//! the same defenses: an entry budget of `words/2 + 1` against runaway
//! length words, an address-space check against retargeted pointers,
//! and bounds checks standing in for the simulator's guarded memory.
//! Every defect is a typed [`HostError`], never a panic. The guarded walk
//! is the kernel's own traversal, so each call validates the image once
//! and returns its nnz (the leaf entries it visited).
//!
//! The transposition is in place: each blockarray's `[payload, pos]`
//! pairs are re-sorted row-major by their *swapped* coordinates — the
//! order the s×s STM memory drains in — with the lengths vector of
//! non-leaf blockarrays permuted identically, then children are visited
//! through the rewritten pointer words. The SpMV accumulates leaf
//! products into `y` strictly in hierarchy-walk order, left to right
//! within each strip, exactly like the simulator's sequential
//! scatter-accumulate; only the element-wise gather-multiply is
//! SIMD-dispatched.

use crate::{HostError, HostIsa};
use stm_hism::image::{pack_pos, unpack_pos, HismImage, RootDesc, WORDS_PER_ENTRY};
use stm_sparse::Value;

const WPE: usize = WORDS_PER_ENTRY as usize;

/// The root blockarray's level (`levels - 1`); a zero-level image has no
/// root to walk.
fn root_level(root: &RootDesc) -> Result<u32, HostError> {
    root.levels
        .checked_sub(1)
        .ok_or_else(|| HostError::Corrupt("image with zero levels".into()))
}

/// The guarded walk's state, shared by both kernels: the entry budget
/// (a valid image never holds more than `words/2` entries, so cyclic or
/// runaway length words exhaust it) and the leaf entries visited so far.
struct Guard {
    budget: usize,
    nnz: usize,
}

impl Guard {
    fn new(image: &HismImage) -> Guard {
        Guard {
            budget: image.words.len() / 2 + 1,
            nnz: 0,
        }
    }

    /// Admits one blockarray, with the guards in the simulator's order:
    /// entry budget first (a corrupt length can claim billions of
    /// entries), then the u32 address-space check, then the image
    /// footprint itself.
    fn enter(
        &mut self,
        words_len: usize,
        addr: u32,
        len: usize,
        level: u32,
    ) -> Result<(), HostError> {
        if self.budget < len {
            return Err(HostError::Corrupt(format!(
                "runaway blockarray of {len} entries at word {addr}"
            )));
        }
        self.budget -= len;
        if addr as u64 + (WPE as u64 + 1) * len as u64 > u32::MAX as u64 {
            return Err(HostError::Corrupt(format!(
                "blockarray at word {addr} ({len} entries) exceeds the address space"
            )));
        }
        let footprint = if level > 0 {
            (WPE + 1) * len
        } else {
            WPE * len
        };
        if addr as usize + footprint > words_len {
            return Err(HostError::Corrupt(format!(
                "blockarray at word {addr} ({len} entries) outside the {words_len}-word image"
            )));
        }
        if level == 0 {
            self.nnz += len;
        }
        Ok(())
    }
}

/// Host HiSM transposition, returning the sealed transposed image and
/// the matrix nnz. Scalar on every ISA: the per-blockarray permutation is
/// a sort plus a cursor rewrite, with nothing element-wise to vectorize.
/// `section_size` must match the image's `s` (the same configuration
/// contract the simulated kernel enforces).
pub fn transpose_hism(
    image: &HismImage,
    section_size: usize,
) -> Result<(HismImage, usize), HostError> {
    if image.root.s as usize != section_size {
        return Err(HostError::Config(format!(
            "image section size {} != configured section size {section_size}",
            image.root.s
        )));
    }
    let level = root_level(&image.root)?;
    let s = image.root.s as usize;
    let mut words = image.words.clone();
    let mut guard = Guard::new(image);
    transpose_block(
        &mut words,
        image.root.addr,
        image.root.len as usize,
        level,
        s,
        &mut guard,
    )?;
    if crate::diverge_requested("transpose_hism") {
        diverge(&mut words, &image.root);
    }
    let mut out = HismImage {
        words,
        root: RootDesc {
            rows: image.root.cols,
            cols: image.root.rows,
            ..image.root
        },
        pointer_sites: image.pointer_sites.clone(),
        integrity: None,
    };
    // Transposition rewrites position words, so the input's sums no
    // longer apply: seal the output fresh over the transposed words.
    out.seal_integrity();
    Ok((out, guard.nnz))
}

/// One blockarray of the in-place transposition (Fig. 6's
/// `transpose_block`, minus the cycle accounting).
fn transpose_block(
    words: &mut [u32],
    addr: u32,
    len: usize,
    level: u32,
    s: usize,
    guard: &mut Guard,
) -> Result<(), HostError> {
    if len == 0 {
        return Ok(());
    }
    guard.enter(words.len(), addr, len, level)?;
    let base = addr as usize;

    // The STM memory keyed by position: entries re-emerge sorted
    // row-major by their swapped (row, col). Out-of-block positions and
    // collisions are exactly what the coprocessor's v_stcr rejects.
    // Each element packs `(c, r, k)` into one integer — bits 40.. are the
    // swapped coordinates, the low 32 the source index — so the sort
    // compares plain u64s instead of branchy 16-byte tuples (the sort is
    // the kernel's hot spot; this is ~5x faster and order-identical).
    let mut order: Vec<u64> = Vec::with_capacity(len);
    for k in 0..len {
        let (r, c) = unpack_pos(words[base + WPE * k + 1]);
        if s < 256 && ((r as usize) >= s || (c as usize) >= s) {
            return Err(HostError::Corrupt(format!(
                "v_stcr position ({r},{c}) outside the {s}x{s} block"
            )));
        }
        order.push(((c as u64) << 40) | ((r as u64) << 32) | k as u64);
    }
    order.sort_unstable();
    if let Some(w) = order.windows(2).find(|w| (w[0] >> 32) == (w[1] >> 32)) {
        return Err(HostError::Corrupt(format!(
            "duplicate position ({},{}) in blockarray at word {addr}",
            (w[0] >> 32) & 0xff,
            w[0] >> 40
        )));
    }

    let entries: Vec<u32> = words[base..base + WPE * len].to_vec();
    if level > 0 {
        // Lengths pass first (it needs the pre-transposition positions),
        // permuted by the same drain order as the entries.
        let lens: Vec<u32> = words[base + WPE * len..base + WPE * len + len].to_vec();
        for (j, &key) in order.iter().enumerate() {
            words[base + WPE * len + j] = lens[(key & 0xffff_ffff) as usize];
        }
    }
    for (j, &key) in order.iter().enumerate() {
        let (nr, nc) = ((key >> 40) as u8, ((key >> 32) & 0xff) as u8);
        words[base + WPE * j] = entries[WPE * ((key & 0xffff_ffff) as usize)];
        words[base + WPE * j + 1] = pack_pos(nr, nc);
    }

    if level > 0 {
        // Recurse through the *rewritten* pointer/length pairs.
        for k in 0..len {
            let ptr = words[base + WPE * k];
            let clen = words[base + WPE * len + k] as usize;
            transpose_block(words, ptr, clen, level - 1, s, guard)?;
        }
    }
    Ok(())
}

/// CI self-test divergence: flip the sign bit of the first leaf payload.
/// The hierarchy was just validated, so the unwraps cannot fire; empty
/// matrices have no leaf to perturb and stay unchanged.
fn diverge(words: &mut [u32], root: &RootDesc) {
    fn first_leaf(words: &[u32], addr: u32, len: usize, level: u32) -> Option<usize> {
        if len == 0 {
            return None;
        }
        if level == 0 {
            return Some(addr as usize);
        }
        for k in 0..len {
            let ptr = words[addr as usize + WPE * k];
            let clen = words[addr as usize + WPE * len + k] as usize;
            if let Some(w) = first_leaf(words, ptr, clen, level - 1) {
                return Some(w);
            }
        }
        None
    }
    if let Some(w) = first_leaf(words, root.addr, root.len as usize, root.levels - 1) {
        words[w] ^= 0x8000_0000;
    }
}

/// Host `y = A * x` over a HiSM image, bit-identical to the simulated
/// `spmv_hism`, returning `y` and the matrix nnz: leaf products
/// accumulate into `y` sequentially in hierarchy-walk order (the
/// simulated scatter-accumulate resolves row collisions left to right),
/// and `y` has the simulator's padded length `rows.max(1)`. Only the
/// per-strip gather-multiply dispatches to SIMD.
pub fn spmv_hism(
    image: &HismImage,
    x: &[Value],
    section_size: usize,
    isa: HostIsa,
) -> Result<(Vec<Value>, usize), HostError> {
    if x.len() != image.root.cols as usize {
        return Err(HostError::Config(format!(
            "x length {} != matrix columns {}",
            x.len(),
            image.root.cols
        )));
    }
    let s = image.root.s as usize;
    if section_size != s {
        return Err(HostError::Config(format!(
            "configured section size {section_size} != image section size {s}"
        )));
    }
    let level = root_level(&image.root)?;
    let padded = (image.root.rows as usize).max(1);
    let mut y = vec![0.0f32; padded];
    let mut guard = Guard::new(image);
    let mut scratch = Scratch {
        vals: vec![0.0; s],
        idx: vec![0; s],
        rows: vec![0; s],
        prod: vec![0.0; s],
    };
    walk(
        &image.words,
        image.root.addr,
        image.root.len as usize,
        level,
        (0, 0),
        x,
        &mut y,
        s,
        isa,
        &mut scratch,
        &mut guard,
    )?;
    if isa == HostIsa::Scalar && crate::diverge_requested("spmv_hism") {
        if let Some(v) = y.first_mut() {
            *v = f32::from_bits(v.to_bits() ^ 0x8000_0000);
        }
    }
    Ok((y, guard.nnz))
}

/// Per-strip staging buffers (one `s`-sized set per run, reused).
struct Scratch {
    vals: Vec<f32>,
    idx: Vec<usize>,
    rows: Vec<usize>,
    prod: Vec<f32>,
}

#[allow(clippy::too_many_arguments)]
fn walk(
    words: &[u32],
    addr: u32,
    len: usize,
    level: u32,
    origin: (usize, usize),
    x: &[Value],
    y: &mut [Value],
    s: usize,
    isa: HostIsa,
    scratch: &mut Scratch,
    guard: &mut Guard,
) -> Result<(), HostError> {
    if len == 0 {
        return Ok(());
    }
    guard.enter(words.len(), addr, len, level)?;
    let base = addr as usize;
    if level == 0 {
        let mut off = 0usize;
        while off < len {
            let vl = s.min(len - off);
            for j in 0..vl {
                let w = base + WPE * (off + j);
                let pos = words[w + 1];
                // The simulated unpack is v_srl_imm/v_and_imm: the row
                // shift is NOT masked, so garbage high bits become a
                // huge row index — an OOB fault there, a typed error here.
                let row = origin.0 + (pos >> 8) as usize;
                let col = origin.1 + (pos & 0xff) as usize;
                if col >= x.len() {
                    return Err(HostError::Corrupt(format!(
                        "x gather index {col} outside 0..{}",
                        x.len()
                    )));
                }
                if row >= y.len() {
                    return Err(HostError::Corrupt(format!(
                        "y scatter index {row} outside 0..{}",
                        y.len()
                    )));
                }
                scratch.vals[j] = f32::from_bits(words[w]);
                scratch.idx[j] = col;
                scratch.rows[j] = row;
            }
            crate::simd::gather_products(
                &mut scratch.prod[..vl],
                &scratch.vals[..vl],
                &scratch.idx[..vl],
                x,
                isa,
            );
            for j in 0..vl {
                y[scratch.rows[j]] += scratch.prod[j];
            }
            off += vl;
        }
        return Ok(());
    }
    let step = s.pow(level);
    for k in 0..len {
        let ptr = words[base + WPE * k];
        let pos = words[base + WPE * k + 1];
        let clen = words[base + WPE * len + k] as usize;
        let (br, bc) = unpack_pos(pos);
        let child_origin = (origin.0 + br as usize * step, origin.1 + bc as usize * step);
        walk(
            words,
            ptr,
            clen,
            level - 1,
            child_origin,
            x,
            y,
            s,
            isa,
            scratch,
            guard,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_hism::{build, transpose as href};
    use stm_sparse::{gen, Coo, Csr};

    fn image_of(coo: &Coo, s: usize) -> HismImage {
        HismImage::encode(&build::from_coo(coo, s).unwrap())
    }

    #[test]
    fn transpose_matches_software_reference_word_for_word() {
        for (coo, s) in [
            (gen::random::uniform(50, 50, 300, 17), 8),
            (gen::blocks::block_dense(64, 8, 5, 0.6, 31), 8),
            (gen::random::uniform(200, 70, 400, 23), 4),
            (gen::structured::grid2d_5pt(20, 20), 64),
            (Coo::new(8, 8), 8),
        ] {
            let img = image_of(&coo, s);
            let (out, nnz) = transpose_hism(&img, s).unwrap();
            assert_eq!(nnz, coo.nnz());
            let expected = HismImage::encode(&href::transpose(&build::from_coo(&coo, s).unwrap()));
            assert_eq!(out.words, expected.words);
            assert_eq!(out.root, expected.root);
        }
    }

    #[test]
    fn spmv_is_close_to_csr_oracle_and_isa_independent() {
        for (coo, s) in [
            (gen::random::uniform(8, 8, 30, 3), 8),
            (gen::blocks::block_dense(64, 8, 6, 0.7, 5), 8),
            (gen::structured::grid2d_5pt(12, 12), 64),
        ] {
            let img = image_of(&coo, s);
            let x: Vec<f32> = (0..coo.cols()).map(|i| ((i % 7) as f32) - 3.0).collect();
            let (scalar, _) = spmv_hism(&img, &x, s, HostIsa::Scalar).unwrap();
            let (best, _) = spmv_hism(&img, &x, s, crate::detect_isa()).unwrap();
            for (a, b) in scalar.iter().zip(&best) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            let oracle = Csr::from_coo(&coo).spmv(&x).unwrap();
            for (a, b) in scalar.iter().zip(&oracle) {
                assert!((a - b).abs() < 1e-3, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn corrupt_images_fail_typed_never_panic() {
        let coo = gen::random::uniform(50, 50, 300, 17);
        let img = image_of(&coo, 8);
        let x = vec![1.0f32; 50];
        // Retarget the root out of the image.
        let mut bad = img.clone();
        bad.root.addr = u32::MAX - 2;
        assert!(matches!(
            transpose_hism(&bad, 8),
            Err(HostError::Corrupt(_))
        ));
        assert!(matches!(
            spmv_hism(&bad, &x, 8, HostIsa::Scalar),
            Err(HostError::Corrupt(_))
        ));
        // Runaway root length.
        let mut bad = img.clone();
        bad.root.len = u32::MAX / 4;
        assert!(matches!(
            transpose_hism(&bad, 8),
            Err(HostError::Corrupt(_))
        ));
        // Zero levels.
        let mut bad = img.clone();
        bad.root.levels = 0;
        assert!(matches!(
            transpose_hism(&bad, 8),
            Err(HostError::Corrupt(_))
        ));
        // Section-size mismatch is a configuration error.
        assert!(matches!(
            transpose_hism(&img, 16),
            Err(HostError::Config(_))
        ));
        assert!(matches!(
            spmv_hism(&img, &x, 16, HostIsa::Scalar),
            Err(HostError::Config(_))
        ));
    }

    #[test]
    fn double_transposition_restores_the_image() {
        let coo = gen::rmat::rmat(6, 150, gen::rmat::RmatProbs::default(), 3);
        let img = image_of(&coo, 8);
        let (once, _) = transpose_hism(&img, 8).unwrap();
        let (twice, _) = transpose_hism(&once, 8).unwrap();
        assert_eq!(twice.words, img.words);
        assert_eq!(twice.root, img.root);
    }

    #[test]
    fn nnz_walk_agrees_with_the_matrix() {
        for coo in [gen::random::uniform(90, 60, 500, 7), Coo::new(9, 9)] {
            let img = image_of(&coo, 8);
            assert_eq!(transpose_hism(&img, 8).unwrap().1, coo.nnz());
            let x = vec![1.0; coo.cols()];
            assert_eq!(
                spmv_hism(&img, &x, 8, HostIsa::Scalar).unwrap().1,
                coo.nnz()
            );
        }
    }

    #[test]
    fn transposed_outputs_carry_a_fresh_seal_on_the_quick_catalogue() {
        for spec in stm_dsab::quick_catalogue() {
            let coo = spec.build();
            for s in [4, 64] {
                let (out, _) = transpose_hism(&image_of(&coo, s), s).unwrap();
                let fresh = out.compute_integrity().unwrap();
                assert_eq!(out.integrity, Some(fresh), "{} at s={s}", spec.name);
                out.decode().unwrap();
            }
        }
    }

    #[test]
    fn a_flipped_value_bit_in_the_output_fails_its_seal() {
        let coo = gen::blocks::block_dense(64, 8, 5, 0.6, 31);
        let (mut out, _) = transpose_hism(&image_of(&coo, 8), 8).unwrap();
        let site = out.value_sites().unwrap()[7] as usize;
        out.words[site] ^= 1 << 3;
        assert!(matches!(
            out.decode(),
            Err(stm_hism::ImageError::Integrity {
                section: "values",
                ..
            })
        ));
    }
}
