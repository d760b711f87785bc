//! Intra-frame compression for the client uplink.
//!
//! The paper's clients stream "a pre-recorded … 720p video" — i.e.
//! *encoded* frames — while `primary` decodes and forwards raw pixels.
//! That asymmetry (≈150 KB compressed uplink vs ≈310 KB raw intermediate
//! frames) is what makes the hybrid split of fig. 11 so expensive. This
//! module implements the encoder so the real runtime can exercise the
//! same asymmetry: an 8×8 block DCT with uniform quantization, zig-zag
//! scan, and run-length/varint packing — JPEG's skeleton without the
//! entropy coder.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::image::GrayImage;

const BLOCK: usize = 8;

/// Quality knob: higher = finer quantization = larger/better. 1–100.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality(pub u8);

impl Quality {
    /// Quantization step for coefficient (u, v): a flat base scaled by
    /// frequency (higher frequencies quantized harder).
    fn step(&self, u: usize, v: usize) -> f32 {
        let q = self.0.clamp(1, 100) as f32;
        let base = (101.0 - q) / 60.0; // q=50 → 0.85, q=90 → 0.18
        base * (1.0 + 0.25 * (u + v) as f32)
    }
}

/// 1-D DCT-II on 8 samples (naive; BLOCK is tiny).
fn dct8(input: &[f32; 8]) -> [f32; 8] {
    let mut out = [0f32; 8];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (n, &x) in input.iter().enumerate() {
            acc += x * ((std::f32::consts::PI / 8.0) * (n as f32 + 0.5) * k as f32).cos();
        }
        let scale = if k == 0 {
            (1.0 / 8.0f32).sqrt()
        } else {
            (2.0 / 8.0f32).sqrt()
        };
        *o = acc * scale;
    }
    out
}

/// Inverse of [`dct8`] (DCT-III with the same normalization).
fn idct8(input: &[f32; 8]) -> [f32; 8] {
    let mut out = [0f32; 8];
    for (n, o) in out.iter_mut().enumerate() {
        let mut acc = input[0] * (1.0 / 8.0f32).sqrt();
        for (k, &x) in input.iter().enumerate().skip(1) {
            acc += x
                * (2.0 / 8.0f32).sqrt()
                * ((std::f32::consts::PI / 8.0) * (n as f32 + 0.5) * k as f32).cos();
        }
        *o = acc;
    }
    out
}

/// 2-D DCT of an 8×8 block (rows then columns).
fn dct2d(block: &[[f32; 8]; 8]) -> [[f32; 8]; 8] {
    let mut rows = [[0f32; 8]; 8];
    for (i, row) in block.iter().enumerate() {
        rows[i] = dct8(row);
    }
    let mut out = [[0f32; 8]; 8];
    for j in 0..8 {
        let col: [f32; 8] = std::array::from_fn(|i| rows[i][j]);
        let t = dct8(&col);
        for i in 0..8 {
            out[i][j] = t[i];
        }
    }
    out
}

fn idct2d(block: &[[f32; 8]; 8]) -> [[f32; 8]; 8] {
    let mut cols = [[0f32; 8]; 8];
    for j in 0..8 {
        let col: [f32; 8] = std::array::from_fn(|i| block[i][j]);
        let t = idct8(&col);
        for i in 0..8 {
            cols[i][j] = t[i];
        }
    }
    let mut out = [[0f32; 8]; 8];
    for (i, row) in cols.iter().enumerate() {
        out[i] = idct8(row);
    }
    out
}

/// Zig-zag scan order for an 8×8 block.
fn zigzag() -> [(usize, usize); 64] {
    let mut order = [(0usize, 0usize); 64];
    let mut idx = 0;
    for s in 0..15 {
        let coords: Vec<(usize, usize)> = (0..=s.min(7))
            .filter(|&i| s - i <= 7)
            .map(|i| (i, s - i))
            .collect();
        let iter: Box<dyn Iterator<Item = (usize, usize)>> = if s % 2 == 0 {
            Box::new(coords.into_iter().rev())
        } else {
            Box::new(coords.into_iter())
        };
        for c in iter {
            order[idx] = c;
            idx += 1;
        }
    }
    order
}

fn put_varint(buf: &mut BytesMut, v: i32) {
    // ZigZag-encode sign, then LEB128.
    let mut u = ((v << 1) ^ (v >> 31)) as u32;
    loop {
        let byte = (u & 0x7F) as u8;
        u >>= 7;
        if u == 0 {
            buf.put_u8(byte);
            break;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut Bytes) -> Option<i32> {
    let mut u: u32 = 0;
    let mut shift = 0;
    loop {
        if !buf.has_remaining() || shift > 28 {
            return None;
        }
        let byte = buf.get_u8();
        u |= ((byte & 0x7F) as u32) << shift;
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    Some(((u >> 1) as i32) ^ -((u & 1) as i32))
}

/// Encode a grayscale frame. The stream is
/// `[w u32][h u32][quality u8]` + per block: RLE of zig-zagged quantized
/// coefficients as `(zero-run u8, varint value)` pairs, `0xFF` = end of
/// block.
pub fn encode(img: &GrayImage, quality: Quality) -> Bytes {
    let (w, h) = (img.width(), img.height());
    let order = zigzag();
    let mut buf = BytesMut::with_capacity(w * h / 4);
    buf.put_u32(w as u32);
    buf.put_u32(h as u32);
    buf.put_u8(quality.0);
    let mut block = [[0f32; 8]; 8];
    for by in (0..h).step_by(BLOCK) {
        for bx in (0..w).step_by(BLOCK) {
            for (y, row) in block.iter_mut().enumerate() {
                for (x, px) in row.iter_mut().enumerate() {
                    *px = img.get_clamped((bx + x) as isize, (by + y) as isize) - 0.5;
                }
            }
            let coeffs = dct2d(&block);
            // Quantize + RLE in zig-zag order.
            let mut run = 0u8;
            for &(u, v) in &order {
                let q = (coeffs[u][v] / quality.step(u, v)).round() as i32;
                if q == 0 {
                    run = run.saturating_add(1);
                    continue;
                }
                buf.put_u8(run.min(0xFE));
                put_varint(&mut buf, q);
                run = 0;
            }
            buf.put_u8(0xFF); // end of block
        }
    }
    buf.freeze()
}

/// The `(width, height)` a stream's header declares, read without
/// decoding; `None` when [`decode`] would reject the header.
pub fn dimensions(data: &[u8]) -> Option<(usize, usize)> {
    let mut header = data.get(..9)?;
    let w = header.get_u32() as usize;
    let h = header.get_u32() as usize;
    if w == 0 || h == 0 || w > 16_384 || h > 16_384 {
        return None;
    }
    Some((w, h))
}

/// Decode a stream produced by [`encode`].
pub fn decode(mut data: Bytes) -> Option<GrayImage> {
    let (w, h) = dimensions(&data)?;
    data.advance(8);
    let quality = Quality(data.get_u8());
    let order = zigzag();
    let mut img = GrayImage::new(w, h);
    for by in (0..h).step_by(BLOCK) {
        for bx in (0..w).step_by(BLOCK) {
            let mut coeffs = [[0f32; 8]; 8];
            let mut pos = 0usize;
            loop {
                if !data.has_remaining() {
                    return None;
                }
                let run = data.get_u8();
                if run == 0xFF {
                    break;
                }
                pos += run as usize;
                if pos >= 64 {
                    return None;
                }
                let q = get_varint(&mut data)?;
                let (u, v) = order[pos];
                coeffs[u][v] = q as f32 * quality.step(u, v);
                pos += 1;
            }
            let block = idct2d(&coeffs);
            for (y, row) in block.iter().enumerate() {
                for (x, &px) in row.iter().enumerate() {
                    let (ix, iy) = (bx + x, by + y);
                    if ix < w && iy < h {
                        img.set(ix, iy, (px + 0.5).clamp(0.0, 1.0));
                    }
                }
            }
        }
    }
    Some(img)
}

/// Peak signal-to-noise ratio between two equally-sized images, dB.
pub fn psnr(a: &GrayImage, b: &GrayImage) -> f64 {
    assert_eq!(a.width(), b.width());
    assert_eq!(a.height(), b.height());
    let mse: f64 = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        / a.data().len() as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (1.0 / mse).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::SceneGenerator;

    #[test]
    fn zigzag_is_a_permutation() {
        let order = zigzag();
        let mut seen = [[false; 8]; 8];
        for &(u, v) in &order {
            assert!(!seen[u][v], "duplicate ({u},{v})");
            seen[u][v] = true;
        }
        assert_eq!(order[0], (0, 0));
    }

    #[test]
    fn dct_round_trips() {
        let input = [0.1f32, -0.5, 0.3, 0.9, -0.2, 0.0, 0.7, -0.8];
        let back = idct8(&dct8(&input));
        for (a, b) in input.iter().zip(&back) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn varint_round_trips() {
        let mut buf = BytesMut::new();
        for v in [-1_000_000, -1, 0, 1, 63, 64, 1_000_000] {
            put_varint(&mut buf, v);
        }
        let mut data = buf.freeze();
        for v in [-1_000_000, -1, 0, 1, 63, 64, 1_000_000] {
            assert_eq!(get_varint(&mut data), Some(v));
        }
    }

    #[test]
    fn flat_frame_compresses_to_almost_nothing() {
        let img = GrayImage::from_vec(64, 64, vec![0.5; 4096]);
        let bytes = encode(&img, Quality(80));
        assert!(
            bytes.len() < 64 * 64 / 16,
            "flat frame took {} bytes",
            bytes.len()
        );
        let back = decode(bytes).expect("valid stream");
        assert!(psnr(&img, &back) > 40.0);
    }

    #[test]
    fn scene_frame_round_trips_with_good_quality_and_compression() {
        let g = SceneGenerator::workplace_scaled(1, 256, 144);
        let img = g.frame(0);
        let raw = img.data().len(); // 1 byte/px equivalent
        let bytes = encode(&img, Quality(80));
        let ratio = raw as f64 / bytes.len() as f64;
        let back = decode(bytes).expect("valid stream");
        let q = psnr(&img, &back);
        assert!(ratio > 1.5, "compression ratio {ratio:.2} too poor");
        assert!(q > 24.0, "PSNR {q:.1} dB too lossy");
    }

    #[test]
    fn quality_trades_size_for_psnr() {
        let g = SceneGenerator::workplace_scaled(1, 128, 72);
        let img = g.frame(0);
        let low = encode(&img, Quality(30));
        let high = encode(&img, Quality(95));
        assert!(low.len() < high.len());
        let psnr_low = psnr(&img, &decode(low).expect("valid"));
        let psnr_high = psnr(&img, &decode(high).expect("valid"));
        assert!(psnr_high > psnr_low);
    }

    #[test]
    fn truncated_stream_rejected() {
        let g = SceneGenerator::workplace_scaled(1, 64, 40);
        let bytes = encode(&g.frame(0), Quality(70));
        let truncated = bytes.slice(0..bytes.len() / 2);
        assert!(decode(truncated).is_none());
        assert!(decode(Bytes::from_static(b"xx")).is_none());
    }

    #[test]
    fn non_multiple_of_block_dimensions_handled() {
        let g = SceneGenerator::workplace_scaled(1, 100, 45); // 100, 45 not %8
        let img = g.frame(0);
        let back = decode(encode(&img, Quality(85))).expect("valid");
        assert_eq!(back.width(), 100);
        assert_eq!(back.height(), 45);
        assert!(psnr(&img, &back) > 22.0);
    }
}
