//! Compact versioned binary edge-list format.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic   8 bytes  b"GGBIN\x00\x00\x01"   (last byte = version)
//! n       8 bytes  u64 vertex count
//! m       8 bytes  u64 edge count
//! flags   1 byte   bit 0 = weighted
//! srcs    4m bytes u32 × m
//! dsts    4m bytes u32 × m
//! weights 4m bytes f32 × m (only when weighted)
//! ```

use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::edge_list::EdgeList;

const MAGIC: [u8; 8] = *b"GGBIN\x00\x00\x01";

/// Writes `el` in the binary format.
pub fn write_binary<P: AsRef<Path>>(el: &EdgeList, path: P) -> Result<(), String> {
    let file = std::fs::File::create(path.as_ref())
        .map_err(|e| format!("create {}: {e}", path.as_ref().display()))?;
    let mut out = BufWriter::new(file);
    let err = |e: std::io::Error| e.to_string();
    out.write_all(&MAGIC).map_err(err)?;
    out.write_all(&(el.num_vertices() as u64).to_le_bytes())
        .map_err(err)?;
    out.write_all(&(el.num_edges() as u64).to_le_bytes())
        .map_err(err)?;
    out.write_all(&[u8::from(el.is_weighted())]).map_err(err)?;
    for &u in el.srcs() {
        out.write_all(&u.to_le_bytes()).map_err(err)?;
    }
    for &v in el.dsts() {
        out.write_all(&v.to_le_bytes()).map_err(err)?;
    }
    if let Some(w) = el.weights() {
        for &x in w {
            out.write_all(&x.to_le_bytes()).map_err(err)?;
        }
    }
    out.flush().map_err(err)
}

/// Bytes before the edge arrays: magic, `n`, `m`, flags.
const HEADER_BYTES: u64 = 8 + 8 + 8 + 1;

/// Reads an edge list written by [`write_binary`].
///
/// The header is untrusted: `m` must fit the bytes the file actually has
/// left and `n` the `u32` id space before anything is allocated for them,
/// and every endpoint is range-checked as it is decoded — a hostile or
/// truncated file is an `Err`, never a panic or an allocation larger than
/// the file.
pub fn read_binary<P: AsRef<Path>>(path: P) -> Result<EdgeList, String> {
    let file = std::fs::File::open(path.as_ref())
        .map_err(|e| format!("open {}: {e}", path.as_ref().display()))?;
    let err = |e: std::io::Error| e.to_string();
    let file_len = file.metadata().map_err(err)?.len();
    let mut inp = BufReader::new(file);

    let mut magic = [0u8; 8];
    inp.read_exact(&mut magic).map_err(err)?;
    if magic != MAGIC {
        return Err("bad magic (not a gg-graph binary edge list?)".into());
    }
    let mut b8 = [0u8; 8];
    inp.read_exact(&mut b8).map_err(err)?;
    let n = u64::from_le_bytes(b8);
    inp.read_exact(&mut b8).map_err(err)?;
    let m = u64::from_le_bytes(b8);
    let mut flags = [0u8; 1];
    inp.read_exact(&mut flags).map_err(err)?;
    let weighted = flags[0] & 1 == 1;

    let n = usize::try_from(n)
        .ok()
        .filter(|&n| n as u64 <= u64::from(u32::MAX) + 1)
        .ok_or_else(|| format!("header claims {n} vertices, beyond the u32 id space"))?;
    let arrays = 2 + u64::from(weighted);
    let payload = file_len.saturating_sub(HEADER_BYTES);
    let m = m
        .checked_mul(4 * arrays)
        .filter(|&need| need <= payload)
        // Fits usize: the edge arrays fit in a file that exists.
        .map(|_| m as usize)
        .ok_or_else(|| format!("header claims {m} edges but only {payload} bytes follow it"))?;

    let mut read_u32s = |what: &str| -> Result<Vec<u32>, String> {
        let mut bytes = vec![0u8; m * 4];
        inp.read_exact(&mut bytes)
            .map_err(|e| format!("reading {what}: {e}"))?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    };
    // Endpoints are checked here because the `EdgeList` constructors
    // below assert on an out-of-range id instead of returning an error.
    let mut read_ids = |what: &str| -> Result<Vec<u32>, String> {
        let ids = read_u32s(what)?;
        match ids.iter().position(|&x| x as usize >= n) {
            Some(i) => Err(format!("{what}[{i}] = {} out of range (n = {n})", ids[i])),
            None => Ok(ids),
        }
    };
    let srcs = read_ids("srcs")?;
    let dsts = read_ids("dsts")?;
    let weights = if weighted {
        Some(
            read_u32s("weights")?
                .into_iter()
                .map(f32::from_bits)
                .collect::<Vec<f32>>(),
        )
    } else {
        None
    };

    let el = match &weights {
        Some(w) => {
            let triples: Vec<(u32, u32, f32)> = (0..m).map(|i| (srcs[i], dsts[i], w[i])).collect();
            EdgeList::from_weighted_edges(n, &triples)
        }
        None => {
            let pairs: Vec<(u32, u32)> = (0..m).map(|i| (srcs[i], dsts[i])).collect();
            EdgeList::from_edges(n, &pairs)
        }
    };
    Ok(el)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("gg_graph_bin_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_unweighted() {
        let el = crate::generators::rmat(8, 500, crate::generators::RmatParams::skewed(), 1);
        let path = tmp("u.bin");
        write_binary(&el, &path).unwrap();
        assert_eq!(read_binary(&path).unwrap(), el);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_weighted() {
        let mut el = crate::generators::erdos_renyi(50, 200, 2);
        crate::weights::attach_uniform(&mut el, 0.0, 1.0, 3);
        let path = tmp("w.bin");
        write_binary(&el, &path).unwrap();
        assert_eq!(read_binary(&path).unwrap(), el);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        let path = tmp("garbage.bin");
        std::fs::write(&path, b"not a graph").unwrap();
        assert!(read_binary(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_roundtrip() {
        let el = EdgeList::new(7);
        let path = tmp("empty.bin");
        write_binary(&el, &path).unwrap();
        let back = read_binary(&path).unwrap();
        assert_eq!(back.num_vertices(), 7);
        assert_eq!(back.num_edges(), 0);
        std::fs::remove_file(&path).ok();
    }

    /// A well-formed header for `(n, m)`, followed by `payload`.
    fn hostile(name: &str, n: u64, m: u64, payload: &[u8]) -> std::path::PathBuf {
        let mut bytes = MAGIC.to_vec();
        bytes.extend(n.to_le_bytes());
        bytes.extend(m.to_le_bytes());
        bytes.push(0);
        bytes.extend(payload);
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn rejects_edge_count_larger_than_the_file() {
        // `u64::MAX * 8` overflows, so the reader must not multiply
        // unchecked; 3 edges is one more than the 16 bytes hold. Neither
        // may allocate from the header.
        for m in [u64::MAX, 3] {
            let path = hostile("huge_m.bin", 4, m, &[0; 16]);
            let e = read_binary(&path).unwrap_err();
            assert!(e.contains("edges but only 16 bytes"), "{e}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn rejects_vertex_count_beyond_the_id_space() {
        let path = hostile("huge_n.bin", 1 << 40, 0, &[]);
        let e = read_binary(&path).unwrap_err();
        assert!(e.contains("beyond the u32 id space"), "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_file_truncated_mid_dsts() {
        let el = crate::generators::erdos_renyi(50, 200, 2);
        let path = tmp("truncated.bin");
        write_binary(&el, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Header + all of srcs + half of dsts.
        std::fs::write(&path, &bytes[..HEADER_BYTES as usize + 200 * 4 + 100 * 4]).unwrap();
        assert!(read_binary(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_out_of_range_id() {
        // One edge (1, 4) over 4 vertices: an error, not the `EdgeList`
        // constructor's assertion.
        let mut payload = 1u32.to_le_bytes().to_vec();
        payload.extend(4u32.to_le_bytes());
        let path = hostile("bad_id.bin", 4, 1, &payload);
        let e = read_binary(&path).unwrap_err();
        assert!(e.contains("dsts[0] = 4 out of range"), "{e}");
        std::fs::remove_file(&path).ok();
    }
}
