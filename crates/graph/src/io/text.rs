//! Plain-text edge lists in the SNAP style: one `src dst [weight]` per
//! line, `#`-prefixed comment lines ignored, whitespace-separated.

use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::edge_list::EdgeList;

/// Parses an edge list from text. The vertex count is the maximum endpoint
/// plus one unless a larger `min_vertices` is given (to keep trailing
/// isolated vertices).
///
/// The input is untrusted: a vertex id of `u32::MAX` is rejected (it would
/// imply `2^32` vertices, which no `VertexId` can count), and so is a
/// weight that is not finite — `NaN`, `inf`, or a literal like `1e39` that
/// overflows `f32`. Every error names its line.
pub fn parse_text(input: &str, min_vertices: usize) -> Result<EdgeList, String> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut weights: Vec<f32> = Vec::new();
    let mut any_weight = false;
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let mut vertex = |what: &str| -> Result<u32, String> {
            let tok = it
                .next()
                .ok_or_else(|| format!("line {}: missing {what}", lineno + 1))?;
            let id: u32 = tok
                .parse()
                .map_err(|e| format!("line {}: bad {what} ({e})", lineno + 1))?;
            if id == u32::MAX {
                return Err(format!(
                    "line {}: {what} {id} exceeds the largest vertex id",
                    lineno + 1
                ));
            }
            Ok(id)
        };
        let u = vertex("src")?;
        let v = vertex("dst")?;
        let w = match it.next() {
            Some(tok) => {
                any_weight = true;
                let w: f32 = tok
                    .parse()
                    .map_err(|e| format!("line {}: bad weight ({e})", lineno + 1))?;
                if !w.is_finite() {
                    return Err(format!("line {}: weight {tok} is not finite", lineno + 1));
                }
                w
            }
            None => 1.0,
        };
        if it.next().is_some() {
            return Err(format!("line {}: trailing tokens", lineno + 1));
        }
        edges.push((u, v));
        weights.push(w);
    }
    let n = crate::types::implied_vertex_count(edges.iter().copied()).max(min_vertices);
    let el = if any_weight {
        let triples: Vec<(u32, u32, f32)> = edges
            .iter()
            .zip(&weights)
            .map(|(&(u, v), &w)| (u, v, w))
            .collect();
        EdgeList::from_weighted_edges(n, &triples)
    } else {
        EdgeList::from_edges(n, &edges)
    };
    el.validate()?;
    Ok(el)
}

/// Reads a text edge list from a file.
pub fn read_text<P: AsRef<Path>>(path: P, min_vertices: usize) -> Result<EdgeList, String> {
    let file = std::fs::File::open(path.as_ref())
        .map_err(|e| format!("open {}: {e}", path.as_ref().display()))?;
    let mut buf = String::new();
    BufReader::new(file)
        .read_to_string(&mut buf)
        .map_err(|e| format!("read: {e}"))?;
    parse_text(&buf, min_vertices)
}

/// Writes a text edge list (with weights when present).
pub fn write_text<P: AsRef<Path>>(el: &EdgeList, path: P) -> Result<(), String> {
    let file = std::fs::File::create(path.as_ref())
        .map_err(|e| format!("create {}: {e}", path.as_ref().display()))?;
    let mut out = BufWriter::new(file);
    writeln!(out, "# gg-graph edge list: {} vertices", el.num_vertices())
        .map_err(|e| e.to_string())?;
    for i in 0..el.num_edges() {
        let (u, v) = el.edge(i);
        if el.is_weighted() {
            writeln!(out, "{u} {v} {}", el.weight(i)).map_err(|e| e.to_string())?;
        } else {
            writeln!(out, "{u} {v}").map_err(|e| e.to_string())?;
        }
    }
    out.flush().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let el = parse_text("# comment\n0 1\n1 2\n\n2 0\n", 0).unwrap();
        assert_eq!(el.num_vertices(), 3);
        assert_eq!(el.num_edges(), 3);
        assert!(!el.is_weighted());
    }

    #[test]
    fn parse_weighted() {
        let el = parse_text("0 1 2.5\n1 0 0.5\n", 0).unwrap();
        assert!(el.is_weighted());
        assert_eq!(el.weight(0), 2.5);
    }

    #[test]
    fn mixed_weights_default_to_one() {
        let el = parse_text("0 1 2.5\n1 0\n", 0).unwrap();
        assert_eq!(el.weight(1), 1.0);
    }

    #[test]
    fn min_vertices_respected() {
        let el = parse_text("0 1\n", 10).unwrap();
        assert_eq!(el.num_vertices(), 10);
    }

    #[test]
    fn errors_are_reported_with_line() {
        let err = parse_text("0 1\nx 2\n", 0).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = parse_text("0\n", 0).unwrap_err();
        assert!(err.contains("missing dst"), "{err}");
        let err = parse_text("0 1 2 3\n", 0).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }

    /// Hostile values that used to parse: `u32::MAX` as an id implies
    /// `n = 2^32`, which every downstream `n as VertexId` wraps to 0, and
    /// non-finite weights poison every reduction they reach.
    #[test]
    fn out_of_range_ids_and_non_finite_weights_are_line_numbered_errors() {
        for bad in ["4294967295 0", "0 4294967295"] {
            let err = parse_text(&format!("0 1\n{bad}\n"), 0).unwrap_err();
            assert!(
                err.contains("line 2") && err.contains("4294967295"),
                "{err}"
            );
        }
        for bad in ["NaN", "nan", "inf", "-inf", "infinity", "1e39"] {
            let err = parse_text(&format!("0 1 1.5\n\n0 1 {bad}\n"), 0).unwrap_err();
            assert!(
                err.contains("line 3") && err.contains("finite"),
                "{bad}: {err}"
            );
        }
        // The largest representable id still parses (n = u32::MAX).
        let el = parse_text("0 4294967294 -0.0\n", 0).unwrap();
        assert_eq!(el.num_vertices(), u32::MAX as usize);
    }

    /// What the line fuzzer splices into otherwise well-formed lines: ids
    /// at and past the `u32` edge, non-finite and overflowing weights,
    /// junk, a comment marker, a dropped field, surplus fields.
    const HOSTILE: [&str; 14] = [
        "4294967294",
        "4294967295",
        "4294967296",
        "-1",
        "1e39",
        "1e-50",
        "NaN",
        "inf",
        "-inf",
        "x",
        "#",
        "",
        "\u{a0}9",
        "0 0 0",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        /// Arbitrary lines — `src dst [weight]`, one line in four with a
        /// field replaced by a [`HOSTILE`] token: `parse_text` never
        /// panics, and `Ok` means a graph whose every id is
        /// `< n <= u32::MAX` and whose every weight is finite.
        #[test]
        fn fuzzed_lines_never_panic_and_ok_is_in_range(
            lines in proptest::collection::vec(
                (0..64u32, 0..64u32, 0..3usize, 0..3 * 4 * HOSTILE.len()),
                0..8usize,
            )
        ) {
            let text: String = lines
                .iter()
                .map(|&(u, v, weight, splice)| {
                    let weight = ["", "2.5", "-0.0"][weight];
                    let mut fields = [u.to_string(), v.to_string(), weight.to_string()];
                    if let Some(tok) = HOSTILE.get(splice / 3) {
                        fields[splice % 3] = tok.to_string();
                    }
                    fields.join(" ") + "\n"
                })
                .collect();
            if let Ok(el) = parse_text(&text, 0) {
                let n = el.num_vertices();
                assert!(n <= u32::MAX as usize, "n = {n} from {text:?}");
                for i in 0..el.num_edges() {
                    let (u, v) = el.edge(i);
                    assert!((u as usize) < n && (v as usize) < n, "{text:?}");
                    assert!(el.weight(i).is_finite(), "{text:?}");
                }
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("gg_graph_text_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let el = crate::generators::erdos_renyi(20, 50, 1);
        write_text(&el, &path).unwrap();
        let back = read_text(&path, el.num_vertices()).unwrap();
        assert_eq!(el, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weighted_file_roundtrip() {
        let dir = std::env::temp_dir().join("gg_graph_text_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gw.txt");
        let mut el = crate::generators::erdos_renyi(10, 30, 2);
        crate::weights::attach_integer(&mut el, 5, 3);
        write_text(&el, &path).unwrap();
        let back = read_text(&path, el.num_vertices()).unwrap();
        assert_eq!(el, back);
        std::fs::remove_file(&path).ok();
    }
}
