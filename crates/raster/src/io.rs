//! Binary serialization of fragment streams.
//!
//! Rasterizing a full-scale scene takes far longer than simulating one
//! machine configuration over it, so the harness supports capturing the
//! stream once and replaying it many times — the same role the paper's
//! Mesa-captured triangle traces played. The format is a compact
//! little-endian binary with a magic/version header; it is host-independent
//! because the whole pipeline is deterministic.

use crate::fragment::{Fragment, TriangleRecord};
use crate::stream::{FragmentStream, StreamPartsError};
use sortmid_geom::Rect;
use sortmid_texture::{TexelAddr, TextureId, TEXELS_PER_FRAGMENT};
use std::fmt;
use std::io::{self, Read, Write};

/// Magic bytes of the stream format ("SortMid Fragment Stream").
pub const MAGIC: [u8; 4] = *b"SMFS";
/// Current format version.
pub const VERSION: u32 = 1;

/// Errors from reading a serialized stream.
#[derive(Debug)]
pub enum StreamIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input does not start with the `SMFS` magic.
    BadMagic([u8; 4]),
    /// Unsupported format version.
    BadVersion(u32),
    /// Structurally invalid payload (counts/ranges inconsistent).
    Corrupt(&'static str),
    /// The decoded parts do not form a stream the rasterizer could emit.
    Parts(StreamPartsError),
}

impl fmt::Display for StreamIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamIoError::Io(e) => write!(f, "i/o error: {e}"),
            StreamIoError::BadMagic(m) => write!(f, "bad magic {m:?}, not a fragment stream"),
            StreamIoError::BadVersion(v) => write!(f, "unsupported stream version {v}"),
            StreamIoError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            StreamIoError::Parts(e) => write!(f, "corrupt stream: {e}"),
        }
    }
}

impl std::error::Error for StreamIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamIoError::Io(e) => Some(e),
            StreamIoError::Parts(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StreamIoError {
    fn from(e: io::Error) -> Self {
        StreamIoError::Io(e)
    }
}

fn put_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_i32(w: &mut impl Write, v: i32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn get_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_i32(r: &mut impl Read) -> io::Result<i32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(i32::from_le_bytes(b))
}

fn get_u16(r: &mut impl Read) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

/// Writes `stream` to `w`.
///
/// # Errors
///
/// Propagates I/O errors from the writer. A `&mut` reference can be passed
/// as the writer.
///
/// # Examples
///
/// ```
/// use sortmid_raster::io::{read_stream, write_stream};
/// # use sortmid_geom::{Rect, Triangle, Vertex};
/// # use sortmid_texture::{TextureDesc, TextureRegistry};
/// # use sortmid_raster::rasterize;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mut reg = TextureRegistry::new();
/// # let tex = reg.register(TextureDesc::new(32, 32)?)?;
/// # let tri = Triangle::new(tex.0, [Vertex::new(0.0, 0.0, 0.0, 0.0),
/// #     Vertex::new(8.0, 0.0, 8.0, 0.0), Vertex::new(0.0, 8.0, 0.0, 8.0)]);
/// # let stream = rasterize(&[tri], &reg, Rect::of_size(32, 32));
/// let mut buf = Vec::new();
/// write_stream(&mut buf, &stream)?;
/// let back = read_stream(&mut buf.as_slice())?;
/// assert_eq!(back.fragment_count(), stream.fragment_count());
/// # Ok(())
/// # }
/// ```
pub fn write_stream<W: Write>(mut w: W, stream: &FragmentStream) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    put_u32(&mut w, VERSION)?;
    let screen = stream.screen();
    for v in [screen.x0, screen.y0, screen.x1, screen.y1] {
        put_i32(&mut w, v)?;
    }
    put_u32(&mut w, stream.triangles().len() as u32)?;
    put_u32(&mut w, stream.fragments().len() as u32)?;
    for t in stream.triangles() {
        put_u32(&mut w, t.texture.0)?;
        for v in [t.bbox.x0, t.bbox.y0, t.bbox.x1, t.bbox.y1] {
            put_i32(&mut w, v)?;
        }
        put_u32(&mut w, t.frag_start)?;
        put_u32(&mut w, t.frag_end)?;
    }
    for f in stream.fragments() {
        w.write_all(&f.x.to_le_bytes())?;
        w.write_all(&f.y.to_le_bytes())?;
        for t in &f.texels {
            put_u32(&mut w, t.index())?;
        }
    }
    w.flush()
}

/// Reads a stream previously written by [`write_stream`].
///
/// # Errors
///
/// Returns [`StreamIoError`] on I/O failure, bad magic/version, or a
/// structurally inconsistent payload. A `&mut` reference can be passed as
/// the reader.
pub fn read_stream<R: Read>(mut r: R) -> Result<FragmentStream, StreamIoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(StreamIoError::BadMagic(magic));
    }
    let version = get_u32(&mut r)?;
    if version != VERSION {
        return Err(StreamIoError::BadVersion(version));
    }
    let screen = Rect::new(get_i32(&mut r)?, get_i32(&mut r)?, get_i32(&mut r)?, get_i32(&mut r)?);
    let tri_count = get_u32(&mut r)? as usize;
    let frag_count = get_u32(&mut r)? as usize;
    // Arbitrary sanity bound: 1 GiB of fragments.
    if frag_count > (1 << 30) / 40 || tri_count > 1 << 28 {
        return Err(StreamIoError::Corrupt("implausible counts"));
    }
    let mut triangles = Vec::with_capacity(tri_count);
    for _ in 0..tri_count {
        let texture = TextureId(get_u32(&mut r)?);
        let bbox = Rect::new(get_i32(&mut r)?, get_i32(&mut r)?, get_i32(&mut r)?, get_i32(&mut r)?);
        let frag_start = get_u32(&mut r)?;
        let frag_end = get_u32(&mut r)?;
        if frag_start > frag_end || frag_end as usize > frag_count {
            return Err(StreamIoError::Corrupt("fragment range out of bounds"));
        }
        triangles.push(TriangleRecord {
            texture,
            bbox,
            frag_start,
            frag_end,
        });
    }
    let mut fragments = Vec::with_capacity(frag_count);
    for _ in 0..frag_count {
        let x = get_u16(&mut r)?;
        let y = get_u16(&mut r)?;
        let mut texels = [TexelAddr::from_index(0); TEXELS_PER_FRAGMENT];
        for t in &mut texels {
            *t = TexelAddr::from_index(get_u32(&mut r)?);
        }
        fragments.push(Fragment { x, y, texels });
    }
    FragmentStream::from_parts(screen, triangles, fragments).map_err(StreamIoError::Parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rasterize;
    use sortmid_geom::{Triangle, Vertex};
    use sortmid_texture::{TextureDesc, TextureRegistry};

    fn sample_stream() -> FragmentStream {
        let mut reg = TextureRegistry::new();
        let a = reg.register(TextureDesc::new(64, 64).unwrap()).unwrap();
        let b = reg.register(TextureDesc::new(32, 32).unwrap()).unwrap();
        let tris = vec![
            Triangle::new(
                a.0,
                [
                    Vertex::new(0.0, 0.0, 0.0, 0.0),
                    Vertex::new(20.0, 0.0, 40.0, 0.0),
                    Vertex::new(0.0, 20.0, 0.0, 40.0),
                ],
            ),
            Triangle::new(
                b.0,
                [
                    Vertex::new(100.0, 100.0, 0.0, 0.0), // off screen
                    Vertex::new(120.0, 100.0, 8.0, 0.0),
                    Vertex::new(100.0, 120.0, 0.0, 8.0),
                ],
            ),
            Triangle::new(
                b.0,
                [
                    Vertex::new(10.0, 10.0, 0.0, 0.0),
                    Vertex::new(30.0, 12.0, 16.0, 0.0),
                    Vertex::new(12.0, 30.0, 0.0, 16.0),
                ],
            ),
        ];
        rasterize(&tris, &reg, Rect::of_size(64, 64))
    }

    #[test]
    fn round_trip_preserves_everything() {
        let stream = sample_stream();
        let mut buf = Vec::new();
        write_stream(&mut buf, &stream).unwrap();
        let back = read_stream(buf.as_slice()).unwrap();
        assert_eq!(back.screen(), stream.screen());
        assert_eq!(back.triangles(), stream.triangles());
        assert_eq!(back.fragments(), stream.fragments());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_stream(&b"NOPE...."[..]).unwrap_err();
        assert!(matches!(err, StreamIoError::BadMagic(_)));
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut buf = Vec::new();
        write_stream(&mut buf, &sample_stream()).unwrap();
        buf[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_stream(buf.as_slice()).unwrap_err(),
            StreamIoError::BadVersion(99)
        ));
    }

    #[test]
    fn truncated_input_is_an_io_error() {
        let mut buf = Vec::new();
        write_stream(&mut buf, &sample_stream()).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(matches!(
            read_stream(buf.as_slice()).unwrap_err(),
            StreamIoError::Io(_)
        ));
    }

    #[test]
    fn corrupt_ranges_are_rejected() {
        let stream = sample_stream();
        let mut buf = Vec::new();
        write_stream(&mut buf, &stream).unwrap();
        // Overwrite the first triangle's frag_end (offset: 4 magic + 4
        // version + 16 screen + 8 counts + 4 texture + 16 bbox + 4 start).
        let off = 4 + 4 + 16 + 8 + 4 + 16 + 4;
        buf[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_stream(buf.as_slice()).unwrap_err();
        assert!(matches!(err, StreamIoError::Corrupt(_)), "{err}");
    }

    #[test]
    fn fragments_off_screen_or_outside_their_box_are_rejected() {
        let mut buf = Vec::new();
        write_stream(&mut buf, &sample_stream()).unwrap();
        // The first fragment's x (offset: 32 header bytes + 3 triangle
        // records of 28 bytes); it belongs to the first triangle, whose box
        // is (0, 0)–(20, 20) on a 64×64 screen.
        let off = 32 + 3 * 28;
        for (x, want) in [
            (200u16, StreamPartsError::OffScreen { fragment: 0 }),
            (60, StreamPartsError::OutsideBox { triangle: 0, fragment: 0 }),
        ] {
            let mut bad = buf.clone();
            bad[off..off + 2].copy_from_slice(&x.to_le_bytes());
            let err = read_stream(bad.as_slice()).unwrap_err();
            assert!(matches!(err, StreamIoError::Parts(e) if e == want), "{err}");
        }
    }

    #[test]
    fn replay_after_round_trip_is_identical() {
        // The serialized stream must drive the machine identically; checked
        // here via fragment-level equality of per-triangle slices.
        let stream = sample_stream();
        let mut buf = Vec::new();
        write_stream(&mut buf, &stream).unwrap();
        let back = read_stream(buf.as_slice()).unwrap();
        for (a, b) in stream.triangles().iter().zip(back.triangles()) {
            assert_eq!(stream.fragments_of(a), back.fragments_of(b));
        }
    }
}
