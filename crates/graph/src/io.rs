//! Graph serialization: SNAP-style edge-list text and a compact binary
//! format.

use crate::csr::Csr;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{self, BufRead, Write};
use std::path::Path;

/// Magic bytes of the binary CSR format.
const MAGIC: &[u8; 6] = b"MWCSR1";

/// Errors from decoding graph files.
#[derive(Debug)]
pub enum GraphIoError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Binary header or structure invalid.
    Format(String),
    /// Text edge list malformed at the given 1-based line.
    Parse { line: usize, msg: String },
}

impl std::fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "io error: {e}"),
            GraphIoError::Format(m) => write!(f, "bad graph file: {m}"),
            GraphIoError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for GraphIoError {}

impl From<io::Error> for GraphIoError {
    fn from(e: io::Error) -> Self {
        GraphIoError::Io(e)
    }
}

// ------------------------------------------------------------- edge lists

/// Write a SNAP-style edge list: one `src dst` pair per line, `#` comments.
pub fn write_edge_list<W: Write>(g: &Csr, mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "# maxwarp edge list: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    Ok(())
}

/// Vertices an edge list may name per byte of its text. A vertex costs
/// two `u32`s of CSR, so the graph's size stays within 8 KiB per input
/// byte however sparse its ids are.
const VERTICES_PER_INPUT_BYTE: u64 = 1024;

/// Read a SNAP-style edge list. Vertex count is `max id + 1` unless a
/// larger `min_vertices` is given. A vertex count past both `min_vertices`
/// and 1024 per byte of input is a parse error, so a short file cannot
/// make the reader allocate gigabytes.
pub fn read_edge_list<R: BufRead>(r: R, min_vertices: u32) -> Result<Csr, GraphIoError> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let (mut max_id, mut max_line, mut bytes) = (0u32, 0, 0u64);
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        bytes += line.len() as u64 + 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let parse = |s: Option<&str>| -> Result<u32, GraphIoError> {
            s.ok_or_else(|| GraphIoError::Parse {
                line: i + 1,
                msg: "expected two vertex ids".into(),
            })?
            .parse()
            .map_err(|e| GraphIoError::Parse {
                line: i + 1,
                msg: format!("bad vertex id: {e}"),
            })
        };
        let u = parse(parts.next())?;
        let v = parse(parts.next())?;
        if parts.next().is_some() {
            return Err(GraphIoError::Parse {
                line: i + 1,
                msg: "trailing tokens".into(),
            });
        }
        // `max id + 1` is the vertex count, which must fit in a u32.
        if u.max(v) == u32::MAX {
            return Err(GraphIoError::Parse {
                line: i + 1,
                msg: format!("vertex id {} is out of range", u32::MAX),
            });
        }
        if u.max(v) >= max_id {
            (max_id, max_line) = (u.max(v), i + 1);
        }
        edges.push((u, v));
    }
    if edges.is_empty() || max_id < min_vertices {
        return Ok(Csr::from_edges(min_vertices, &edges));
    }
    let limit = bytes.saturating_mul(VERTICES_PER_INPUT_BYTE);
    if u64::from(max_id) >= limit {
        return Err(GraphIoError::Parse {
            line: max_line,
            msg: format!(
                "vertex id {max_id} needs more than {VERTICES_PER_INPUT_BYTE} vertices \
                 per byte of a {bytes}-byte edge list"
            ),
        });
    }
    Ok(Csr::from_edges(max_id + 1, &edges))
}

// ------------------------------------------------------------- binary CSR

/// Encode to the compact binary CSR format.
pub fn encode_csr(g: &Csr) -> Bytes {
    let n = g.num_vertices();
    let m = g.num_edges();
    let mut buf = BytesMut::with_capacity(MAGIC.len() + 12 + 4 * (n as usize + 1) + 4 * m as usize);
    buf.put_slice(MAGIC);
    buf.put_u32_le(n);
    buf.put_u64_le(m);
    for &o in g.row_offsets() {
        buf.put_u32_le(o);
    }
    for &c in g.col_indices() {
        buf.put_u32_le(c);
    }
    buf.freeze()
}

/// Decode the binary CSR format.
pub fn decode_csr(mut data: &[u8]) -> Result<Csr, GraphIoError> {
    if data.len() < MAGIC.len() + 12 {
        return Err(GraphIoError::Format("truncated header".into()));
    }
    if &data[..MAGIC.len()] != MAGIC {
        return Err(GraphIoError::Format("bad magic".into()));
    }
    data.advance(MAGIC.len());
    let n = data.get_u32_le() as usize;
    let header_m = data.get_u64_le();
    // The header is untrusted: the expected size must not wrap.
    let m = usize::try_from(header_m).unwrap_or(usize::MAX);
    let need = m.checked_add(n + 1).and_then(|words| words.checked_mul(4));
    if need != Some(data.remaining()) {
        return Err(GraphIoError::Format(format!(
            "payload size {} does not match n = {n}, m = {header_m}",
            data.remaining()
        )));
    }
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(data.get_u32_le());
    }
    let mut cols = Vec::with_capacity(m);
    for _ in 0..m {
        cols.push(data.get_u32_le());
    }
    // Re-validate invariants; corrupt files must not panic later.
    if offsets.first() != Some(&0)
        || !offsets.windows(2).all(|w| w[0] <= w[1])
        || offsets.last().map(|&o| o as usize) != Some(m)
        || cols.iter().any(|&c| c as usize >= n)
    {
        return Err(GraphIoError::Format("CSR invariants violated".into()));
    }
    Ok(Csr::from_raw(offsets, cols))
}

/// Save to a file in binary CSR format.
pub fn save_csr(g: &Csr, path: &Path) -> Result<(), GraphIoError> {
    std::fs::write(path, encode_csr(g))?;
    Ok(())
}

/// Load a binary CSR file.
pub fn load_csr(path: &Path) -> Result<Csr, GraphIoError> {
    let data = std::fs::read(path)?;
    decode_csr(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;
    use std::io::BufReader;

    #[test]
    fn edge_list_roundtrip() {
        let g = erdos_renyi(200, 1000, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(BufReader::new(&buf[..]), g.num_vertices()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_comments_and_blank_lines() {
        let text = "# header\n\n0 1\n1 2\n# trailing\n";
        let g = read_edge_list(BufReader::new(text.as_bytes()), 0).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_bad_lines_error() {
        for bad in ["0", "0 1 2", "x y"] {
            let r = read_edge_list(BufReader::new(bad.as_bytes()), 0);
            assert!(matches!(r, Err(GraphIoError::Parse { .. })), "{bad}");
        }
    }

    #[test]
    fn edge_list_rejects_the_id_that_wraps_the_vertex_count() {
        let r = read_edge_list(BufReader::new("4294967295 0\n".as_bytes()), 0);
        assert!(
            matches!(r, Err(GraphIoError::Parse { line: 1, .. })),
            "{r:?}"
        );
    }

    #[test]
    fn edge_list_bounds_the_vertex_count_by_its_size() {
        // 13 bytes naming vertex 4·10⁹ would allocate about 16 GB of CSR.
        let r = read_edge_list(BufReader::new("4000000000 0\n".as_bytes()), 0);
        assert!(
            matches!(r, Err(GraphIoError::Parse { line: 1, .. })),
            "{r:?}"
        );
        // The same id is fine when the caller asks for that many vertices.
        let r = read_edge_list(BufReader::new("40000 0\n".as_bytes()), 40_001);
        assert_eq!(r.map(|g| g.num_vertices()).ok(), Some(40_001));
        // Sparse ids within the ratio still load.
        let g = read_edge_list(BufReader::new("# pad\n6000 0\n".as_bytes()), 0).unwrap();
        assert_eq!(g.num_vertices(), 6001);
    }

    #[test]
    fn empty_edge_list_uses_min_vertices() {
        let g = read_edge_list(BufReader::new("# nothing\n".as_bytes()), 7).unwrap();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn binary_roundtrip() {
        let g = erdos_renyi(333, 2222, 5);
        let bytes = encode_csr(&g);
        let g2 = decode_csr(&bytes).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = erdos_renyi(50, 100, 1);
        let bytes = encode_csr(&g);
        // Truncated.
        assert!(decode_csr(&bytes[..bytes.len() - 4]).is_err());
        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(decode_csr(&bad).is_err());
        // Corrupt a column index to out-of-range.
        let mut bad2 = bytes.to_vec();
        let off = bad2.len() - 4;
        bad2[off..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_csr(&bad2).is_err());
    }

    #[test]
    fn binary_rejects_an_edge_count_that_wraps_the_size_check() {
        // n = 0, m = 2^62: 4 * (n + 1 + m) wraps to 4, the size of the payload.
        let mut bad = MAGIC.to_vec();
        bad.extend_from_slice(&0u32.to_le_bytes());
        bad.extend_from_slice(&(1u64 << 62).to_le_bytes());
        bad.extend_from_slice(&[0; 4]);
        assert_eq!(bad.len(), 22);
        let r = decode_csr(&bad);
        assert!(matches!(r, Err(GraphIoError::Format(_))), "{r:?}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("maxwarp_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mwcsr");
        let g = erdos_renyi(64, 256, 9);
        save_csr(&g, &path).unwrap();
        let g2 = load_csr(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&path).ok();
    }
}
