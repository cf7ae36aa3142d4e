//! Minimal Netpbm (PGM/PPM) reading and writing.
//!
//! PGM (`P5`) covers the grayscale pipeline inputs/outputs; PPM (`P6`) is
//! used by the RGB extension example. Implemented from the Netpbm spec so
//! the crate stays dependency-free.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, Write};
use std::path::Path;

use crate::image::ImageU8;
use crate::rgb::RgbImageU8;

/// Upper bound on either image dimension accepted by the readers — a
/// sanity cap so a corrupt header cannot drive a near-`usize::MAX`
/// allocation (the multiplication itself is checked as well).
pub const MAX_DIM: usize = 1 << 20;

/// Parses and validates the `width height maxval` header triple shared by
/// PGM and PPM, returning `(width, height, pixel_count, maxval)` with the
/// product overflow-checked and both dimensions capped at [`MAX_DIM`].
fn read_dims<R: BufRead>(r: &mut R) -> io::Result<(usize, usize, usize, usize)> {
    let width: usize = parse_token(r)?;
    let height: usize = parse_token(r)?;
    let maxval: usize = parse_token(r)?;
    if width == 0 || height == 0 || width > MAX_DIM || height > MAX_DIM {
        return Err(bad_data(format!(
            "unsupported dimensions {width}x{height} (limit {MAX_DIM} per axis)"
        )));
    }
    if maxval == 0 || maxval > 255 {
        return Err(bad_data(format!("unsupported maxval {maxval}")));
    }
    let n = width
        .checked_mul(height)
        .ok_or_else(|| bad_data(format!("dimensions {width}x{height} overflow")))?;
    Ok((width, height, n, maxval))
}

/// Writes a grayscale image as binary PGM (`P5`, maxval 255).
pub fn write_pgm(path: &Path, img: &ImageU8) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write!(w, "P5\n{} {}\n255\n", img.width(), img.height())?;
    w.write_all(img.pixels())?;
    Ok(())
}

/// Writes an RGB image as binary PPM (`P6`, maxval 255).
pub fn write_ppm(path: &Path, img: &RgbImageU8) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write!(w, "P6\n{} {}\n255\n", img.width(), img.height())?;
    w.write_all(img.bytes())?;
    Ok(())
}

/// Reads a PGM image — binary (`P5`) or ASCII (`P2`) — with maxval ≤ 255.
pub fn read_pgm(path: &Path) -> io::Result<ImageU8> {
    let mut r = BufReader::new(File::open(path)?);
    let magic = read_token(&mut r)?;
    if magic != "P5" && magic != "P2" {
        return Err(bad_data(format!("expected P5/P2 magic, got {magic:?}")));
    }
    let (width, height, n, maxval) = read_dims(&mut r)?;
    let data = if magic == "P5" {
        read_samples(&mut r, n, maxval)?
    } else {
        // Every ASCII sample takes at least one digit, and all but the
        // last a separator too.
        if let Some(left) = bytes_left(&mut r)? {
            if (n as u64).saturating_mul(2) - 1 > left {
                return Err(truncated(n, left));
            }
        }
        let mut data = Vec::with_capacity(n);
        for i in 0..n {
            let v = parse_token::<_, u16>(&mut r).map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => {
                    bad_data(format!("truncated payload: {i} of {n} samples"))
                }
                _ => e,
            })?;
            if v as usize > maxval {
                return Err(above_maxval(v, maxval));
            }
            data.push(v as u8);
        }
        data
    };
    Ok(ImageU8::from_vec(width, height, data))
}

/// Reads a binary PPM (`P6`) image with maxval ≤ 255.
pub fn read_ppm(path: &Path) -> io::Result<RgbImageU8> {
    let mut r = BufReader::new(File::open(path)?);
    let magic = read_token(&mut r)?;
    if magic != "P6" {
        return Err(bad_data(format!("expected P6 magic, got {magic:?}")));
    }
    let (width, height, n, maxval) = read_dims(&mut r)?;
    let bytes = n
        .checked_mul(3)
        .ok_or_else(|| bad_data(format!("dimensions {width}x{height} overflow")))?;
    let data = read_samples(&mut r, bytes, maxval)?;
    Ok(RgbImageU8::from_vec(width, height, data))
}

/// The bytes left in `r` when it reads a regular file; `None` for a
/// stream of unknown length (a pipe).
fn bytes_left(r: &mut BufReader<File>) -> io::Result<Option<u64>> {
    let meta = r.get_ref().metadata()?;
    if !meta.is_file() {
        return Ok(None);
    }
    Ok(Some(meta.len().saturating_sub(r.stream_position()?)))
}

/// Reads a binary payload of `n` samples, each at most `maxval`. The
/// header's `n` is checked against the bytes the file actually holds
/// before anything is allocated, so a corrupt or hostile header is an
/// `InvalidData` error, not a terabyte allocation.
fn read_samples(r: &mut BufReader<File>, n: usize, maxval: usize) -> io::Result<Vec<u8>> {
    let left = bytes_left(r)?;
    if let Some(left) = left {
        if n as u64 > left {
            return Err(truncated(n, left));
        }
    }
    // A stream's length is unknown: start small and grow as bytes arrive.
    let mut data = Vec::with_capacity(if left.is_some() { n } else { n.min(1 << 16) });
    r.take(n as u64).read_to_end(&mut data)?;
    if data.len() != n {
        return Err(truncated(n, data.len() as u64));
    }
    // No byte exceeds 255, so only a smaller maxval needs the scan.
    if maxval < 255 {
        if let Some(&v) = data.iter().find(|&&v| usize::from(v) > maxval) {
            return Err(above_maxval(v.into(), maxval));
        }
    }
    Ok(data)
}

fn truncated(want: usize, have: u64) -> io::Error {
    bad_data(format!(
        "truncated payload: header promises {want} bytes, {have} remain"
    ))
}

fn above_maxval(v: u16, maxval: usize) -> io::Error {
    bad_data(format!("sample {v} exceeds maxval {maxval}"))
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads one whitespace-delimited header token, skipping `#` comments.
fn read_token<R: BufRead>(r: &mut R) -> io::Result<String> {
    let mut tok = String::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && !tok.is_empty() => break,
            Err(e) => return Err(e),
        }
        let c = byte[0] as char;
        if c == '#' {
            // Comment to end of line.
            let mut line = String::new();
            r.read_line(&mut line)?;
            continue;
        }
        if c.is_ascii_whitespace() {
            if tok.is_empty() {
                continue;
            }
            break;
        }
        tok.push(c);
    }
    Ok(tok)
}

fn parse_token<R: BufRead, T: std::str::FromStr>(r: &mut R) -> io::Result<T> {
    let tok = read_token(r)?;
    tok.parse::<T>()
        .map_err(|_| bad_data(format!("bad header token {tok:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageU8;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("imagekit-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn pgm_roundtrip() {
        let img = ImageU8::from_vec(3, 2, vec![0, 64, 128, 192, 255, 7]);
        let p = tmpfile("a.pgm");
        write_pgm(&p, &img).unwrap();
        let back = read_pgm(&p).unwrap();
        assert_eq!(back, img);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn ppm_roundtrip() {
        let img = RgbImageU8::from_vec(2, 1, vec![255, 0, 0, 0, 255, 0]);
        let p = tmpfile("b.ppm");
        write_ppm(&p, &img).unwrap();
        let back = read_ppm(&p).unwrap();
        assert_eq!(back.bytes(), img.bytes());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn pgm_with_comments_parses() {
        let p = tmpfile("c.pgm");
        std::fs::write(&p, b"P5\n# a comment\n2 1\n255\n\x10\x20").unwrap();
        let img = read_pgm(&p).unwrap();
        assert_eq!(img.pixels(), &[0x10, 0x20]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn wrong_magic_rejected() {
        let p = tmpfile("d.pgm");
        std::fs::write(&p, b"P6\n2 1\n255\nxxxxxx").unwrap();
        assert!(read_pgm(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn ascii_pgm_parses() {
        let p = tmpfile("f.pgm");
        std::fs::write(&p, b"P2\n# ascii variant\n3 2\n255\n0 64 128\n192 255 7\n").unwrap();
        let img = read_pgm(&p).unwrap();
        assert_eq!(img.pixels(), &[0, 64, 128, 192, 255, 7]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn ascii_pgm_truncated_rejected() {
        let p = tmpfile("g.pgm");
        std::fs::write(&p, b"P2\n3 2\n255\n0 64 128\n").unwrap();
        assert!(read_pgm(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn truncated_body_rejected() {
        let p = tmpfile("e.pgm");
        std::fs::write(&p, b"P5\n4 4\n255\nxx").unwrap();
        assert!(read_pgm(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn ascii_sample_above_maxval_rejected() {
        // The reader used to clamp out-of-range ASCII samples to 255;
        // they must be an InvalidData error instead.
        for (name, body) in [
            ("h1.pgm", &b"P2\n2 1\n255\n0 300\n"[..]),
            ("h2.pgm", &b"P2\n2 1\n100\n0 101\n"[..]),
        ] {
            let p = tmpfile(name);
            std::fs::write(&p, body).unwrap();
            let err = read_pgm(&p).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn oversized_or_degenerate_dims_rejected() {
        let huge = format!("P5\n{} {}\n255\n", usize::MAX / 2, 3);
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("i1.pgm", b"P5\n0 4\n255\n".to_vec()),
            ("i2.pgm", b"P5\n4 0\n255\n".to_vec()),
            (
                "i3.pgm",
                format!("P5\n{} 4\n255\n", MAX_DIM + 1).into_bytes(),
            ),
            ("i4.pgm", huge.into_bytes()),
            ("i5.pgm", b"P5\n4 4\n0\n".to_vec()),
            ("i6.pgm", b"P5\n4 4\n65536\n".to_vec()),
        ];
        for (name, body) in cases {
            let p = tmpfile(name);
            std::fs::write(&p, &body).unwrap();
            let err = read_pgm(&p).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            std::fs::remove_file(&p).ok();
        }
        // Same header validation on the PPM path.
        let p = tmpfile("i7.ppm");
        std::fs::write(&p, format!("P6\n{} 4\n255\n", MAX_DIM + 1)).unwrap();
        assert_eq!(read_ppm(&p).unwrap_err().kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&p).ok();
    }

    /// Reads `p` with the reader its extension names.
    fn read_either(p: &Path) -> io::Result<()> {
        if p.extension().is_some_and(|e| e == "ppm") {
            read_ppm(p).map(|_| ())
        } else {
            read_pgm(p).map(|_| ())
        }
    }

    #[test]
    fn huge_header_over_a_short_payload_is_an_error_not_an_allocation() {
        // 1048576² samples (3.3 TB for P6) promised by a 27-byte file:
        // the readers must refuse before allocating.
        for (name, body) in [
            ("k1.pgm", &b"P5\n1048576 1048576\n255\nabc"[..]),
            ("k2.pgm", &b"P2\n1048576 1048576\n255\n1 2"[..]),
            ("k3.ppm", &b"P6\n1048576 1048576\n255\nabc"[..]),
        ] {
            let p = tmpfile(name);
            std::fs::write(&p, body).unwrap();
            let err = read_either(&p).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}: {err}");
            assert!(err.to_string().contains("truncated"), "{name}: {err}");
            std::fs::remove_file(&p).ok();
        }
        // A payload one byte short is truncated too, for every magic.
        for (name, body) in [
            ("k4.pgm", &b"P5\n2 2\n255\nabc"[..]),
            ("k5.pgm", &b"P2\n2 2\n255\n1 2 3"[..]),
            // Long enough for four samples, but holding only three.
            ("k7.pgm", &b"P2\n2 2\n255\n1 2 3      "[..]),
            ("k6.ppm", &b"P6\n2 1\n255\nabcde"[..]),
        ] {
            let p = tmpfile(name);
            std::fs::write(&p, body).unwrap();
            let err = read_either(&p).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}: {err}");
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn samples_above_maxval_rejected_for_every_magic() {
        for (name, body) in [
            ("l1.pgm", &b"P5\n4 1\n15\n\x00\x10\xff\x05"[..]),
            ("l2.pgm", &b"P2\n4 1\n15\n0 16 255 5\n"[..]),
            ("l3.ppm", &b"P6\n2 1\n15\n\x00\x01\x02\x03\x10\x05"[..]),
        ] {
            let p = tmpfile(name);
            std::fs::write(&p, body).unwrap();
            let err = read_either(&p).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}: {err}");
            assert!(
                err.to_string().contains("exceeds maxval 15"),
                "{name}: {err}"
            );
            std::fs::remove_file(&p).ok();
        }
        // Samples at maxval are fine.
        let p = tmpfile("l4.pgm");
        std::fs::write(&p, b"P5\n2 1\n15\n\x0f\x00").unwrap();
        assert_eq!(read_pgm(&p).unwrap().pixels(), &[15, 0]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn header_corpus_parses() {
        // Comment placement and whitespace variants the spec allows.
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("j1.pgm", b"P5 2 1 255\n\x01\x02".to_vec()),
            (
                "j2.pgm",
                b"P5\n# c1\n# c2\n2\n# between dims\n1\n255\n\x01\x02".to_vec(),
            ),
            ("j3.pgm", b"P2\n2 1\n255\n  1\t2\n".to_vec()),
        ];
        for (name, body) in cases {
            let p = tmpfile(name);
            std::fs::write(&p, &body).unwrap();
            let img = read_pgm(&p).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(img.pixels(), &[1, 2], "{name}");
            std::fs::remove_file(&p).ok();
        }
    }
}
