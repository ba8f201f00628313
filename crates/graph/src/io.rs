//! Graph and netlist readers and writers.
//!
//! Three formats are supported:
//!
//! * **METIS** `.graph` format — header `n m [fmt]`, then one line per
//!   vertex listing its (1-based) neighbors; `fmt` `1` adds edge
//!   weights, `10` vertex weights, `11` both. Comment lines start
//!   with `%`.
//! * **Edge list** — one `u v [w]` triple per line, 0-based, with `#`
//!   comments; the vertex count is one more than the largest endpoint
//!   unless given explicitly.
//! * **hMETIS** `.hgr` hypergraph format — header `nets cells [fmt]`,
//!   one line of (1-based) pins per net, optional net/cell weights
//!   ([`read_hgr`]/[`write_hgr`]).
//!
//! The METIS and hMETIS readers load their whole input first, so a
//! header count can be checked against the input's size before any
//! buffer is sized from it: a count no input of that many bytes could
//! back is a parse error, not an allocation.

use std::io::{BufRead, BufReader, Read, Write};

use crate::{EdgeWeight, Graph, GraphBuilder, GraphError, VertexId};

/// Reads a graph in METIS `.graph` format.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed input (bad header, wrong
/// line count, out-of-range endpoints, asymmetric adjacency is *not*
/// detected — METIS files are trusted to be symmetric and both copies of
/// each edge merge to one), or [`GraphError::Io`] on read failure. A
/// header count above the input's byte length or the [`VertexId`] range
/// is a parse error.
pub fn read_metis<R: Read>(reader: R) -> Result<Graph, GraphError> {
    let input = read_all(reader)?;
    let mut lines = input.as_slice().lines().enumerate();

    // Header.
    let (header_line_no, header) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('%') {
                    continue;
                }
                break (i + 1, trimmed.to_string());
            }
            None => {
                return Err(GraphError::Parse {
                    line: 1,
                    message: "missing header".into(),
                })
            }
        }
    };
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 2 || fields.len() > 3 {
        return Err(GraphError::Parse {
            line: header_line_no,
            message: format!("header must be `n m [fmt]`, got {} fields", fields.len()),
        });
    }
    let n = parse_count(fields[0], "vertices", input.len(), header_line_no)?;
    let m = parse_count(fields[1], "edges", input.len(), header_line_no)?;
    let fmt = if fields.len() == 3 { fields[2] } else { "0" };
    let (has_vweights, has_eweights) = match fmt {
        "0" | "00" => (false, false),
        "1" | "01" => (false, true),
        "10" => (true, false),
        "11" => (true, true),
        other => {
            return Err(GraphError::Parse {
                line: header_line_no,
                message: format!("unsupported fmt `{other}`"),
            })
        }
    };

    let mut builder = GraphBuilder::new(n);
    builder.reserve_edges(m);
    let mut vertex: usize = 0;
    for (i, line) in lines {
        let line_no = i + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.starts_with('%') {
            continue;
        }
        if vertex >= n {
            if trimmed.is_empty() {
                continue;
            }
            return Err(GraphError::Parse {
                line: line_no,
                message: format!("more than {n} vertex lines"),
            });
        }
        let mut tokens = trimmed.split_whitespace();
        if has_vweights {
            let w: u64 = match tokens.next() {
                Some(t) => parse_num(t, line_no)?,
                None => {
                    return Err(GraphError::Parse {
                        line: line_no,
                        message: "missing vertex weight".into(),
                    })
                }
            };
            if w == 0 {
                return Err(GraphError::Parse {
                    line: line_no,
                    message: "vertex weight must be positive".into(),
                });
            }
            builder
                .set_vertex_weight(vertex as VertexId, w)
                .map_err(|e| parse_wrap(e, line_no))?;
        }
        while let Some(tok) = tokens.next() {
            let nbr1: u64 = parse_num(tok, line_no)?;
            if nbr1 == 0 || nbr1 > n as u64 {
                return Err(GraphError::Parse {
                    line: line_no,
                    message: format!("neighbor {nbr1} out of 1..={n}"),
                });
            }
            let nbr = (nbr1 - 1) as VertexId;
            let w: EdgeWeight = if has_eweights {
                match tokens.next() {
                    Some(t) => parse_num(t, line_no)?,
                    None => {
                        return Err(GraphError::Parse {
                            line: line_no,
                            message: "missing edge weight".into(),
                        })
                    }
                }
            } else {
                1
            };
            // Each undirected edge appears twice in a METIS file; add it
            // only from the smaller endpoint to avoid doubling weights.
            if (vertex as VertexId) < nbr {
                builder
                    .add_weighted_edge(vertex as VertexId, nbr, w)
                    .map_err(|e| parse_wrap(e, line_no))?;
            } else if vertex as VertexId == nbr {
                return Err(GraphError::Parse {
                    line: line_no,
                    message: format!("self loop at vertex {}", nbr1),
                });
            }
        }
        vertex += 1;
    }
    if vertex != n {
        return Err(GraphError::Parse {
            line: 0,
            message: format!("expected {n} vertex lines, found {vertex}"),
        });
    }
    let g = builder.build();
    if g.num_edges() != m {
        return Err(GraphError::Parse {
            line: header_line_no,
            message: format!("header declares {m} edges, file contains {}", g.num_edges()),
        });
    }
    Ok(g)
}

/// Writes `g` in METIS `.graph` format. Weights are emitted only when
/// non-unit (fmt `11`, `10`, `1`, or `0` as appropriate).
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure.
pub fn write_metis<W: Write>(g: &Graph, mut writer: W) -> Result<(), GraphError> {
    let has_vweights = g.vertices().any(|v| g.vertex_weight(v) != 1);
    let has_eweights = g.edges().any(|(_, _, w)| w != 1);
    let fmt = match (has_vweights, has_eweights) {
        (false, false) => "",
        (false, true) => " 1",
        (true, false) => " 10",
        (true, true) => " 11",
    };
    writeln!(writer, "{} {}{fmt}", g.num_vertices(), g.num_edges())?;
    for v in g.vertices() {
        let mut first = true;
        if has_vweights {
            write!(writer, "{}", g.vertex_weight(v))?;
            first = false;
        }
        for (u, w) in g.neighbors_weighted(v) {
            if !first {
                write!(writer, " ")?;
            }
            first = false;
            write!(writer, "{}", u + 1)?;
            if has_eweights {
                write!(writer, " {w}")?;
            }
        }
        writeln!(writer)?;
    }
    Ok(())
}

/// Reads a 0-based edge list (`u v [w]` per line, `#` comments). The
/// vertex count is `max endpoint + 1`, or `num_vertices` if given.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed lines or endpoints beyond
/// an explicit `num_vertices`, and [`GraphError::Io`] on read failure.
pub fn read_edge_list<R: Read>(
    reader: R,
    num_vertices: Option<usize>,
) -> Result<Graph, GraphError> {
    let reader = BufReader::new(reader);
    let mut edges: Vec<(VertexId, VertexId, EdgeWeight)> = Vec::new();
    let mut max_vertex: u64 = 0;
    for (i, line) in reader.lines().enumerate() {
        let line_no = i + 1;
        let line = line?;
        let content = line.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let toks: Vec<&str> = content.split_whitespace().collect();
        if toks.len() != 2 && toks.len() != 3 {
            return Err(GraphError::Parse {
                line: line_no,
                message: format!("expected `u v [w]`, got {} tokens", toks.len()),
            });
        }
        let u: u64 = parse_num(toks[0], line_no)?;
        let v: u64 = parse_num(toks[1], line_no)?;
        let w: EdgeWeight = if toks.len() == 3 {
            parse_num(toks[2], line_no)?
        } else {
            1
        };
        if u > VertexId::MAX as u64 || v > VertexId::MAX as u64 {
            return Err(GraphError::Parse {
                line: line_no,
                message: "vertex id too large".into(),
            });
        }
        max_vertex = max_vertex.max(u).max(v);
        edges.push((u as VertexId, v as VertexId, w));
    }
    let n = num_vertices.unwrap_or(if edges.is_empty() {
        0
    } else {
        max_vertex as usize + 1
    });
    let mut builder = GraphBuilder::new(n);
    for (u, v, w) in edges {
        builder.add_weighted_edge(u, v, w).map_err(|e| match e {
            GraphError::VertexOutOfRange { .. } | GraphError::SelfLoop { .. } => e,
            other => other,
        })?;
    }
    Ok(builder.build())
}

/// Writes `g` as a 0-based edge list, one `u v [w]` per line (`w` only
/// when non-unit).
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure.
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> Result<(), GraphError> {
    for (u, v, w) in g.edges() {
        if w == 1 {
            writeln!(writer, "{u} {v}")?;
        } else {
            writeln!(writer, "{u} {v} {w}")?;
        }
    }
    Ok(())
}

/// Reads a hypergraph netlist in hMETIS `.hgr` format: header
/// `num_nets num_cells [fmt]`, then one line of (1-based) pins per net;
/// `fmt` `1` prefixes each net line with a weight, `10` appends one
/// cell-weight line per cell, `11` both. `%` comments allowed.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed input — including a
/// header count above the input's byte length or the [`VertexId`]
/// range — or [`GraphError::Io`] on read failure.
pub fn read_hgr<R: Read>(reader: R) -> Result<crate::hypergraph::Netlist, GraphError> {
    let input = read_all(reader)?;
    let mut lines = input
        .as_slice()
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l))
        .filter(|(_, l)| match l {
            Ok(text) => {
                let t = text.trim();
                !t.is_empty() && !t.starts_with('%')
            }
            Err(_) => true,
        });

    let (header_no, header) = match lines.next() {
        Some((no, line)) => (no, line?),
        None => {
            return Err(GraphError::Parse {
                line: 1,
                message: "missing header".into(),
            })
        }
    };
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 2 || fields.len() > 3 {
        return Err(GraphError::Parse {
            line: header_no,
            message: format!(
                "header must be `nets cells [fmt]`, got {} fields",
                fields.len()
            ),
        });
    }
    let num_nets = parse_count(fields[0], "nets", input.len(), header_no)?;
    let num_cells = parse_count(fields[1], "cells", input.len(), header_no)?;
    let fmt = if fields.len() == 3 { fields[2] } else { "0" };
    let (has_nweights, has_cweights) = match fmt {
        "0" | "00" => (false, false),
        "1" | "01" => (true, false),
        "10" => (false, true),
        "11" => (true, true),
        other => {
            return Err(GraphError::Parse {
                line: header_no,
                message: format!("unsupported fmt `{other}`"),
            })
        }
    };

    let mut builder = crate::hypergraph::NetlistBuilder::new(num_cells);
    for _ in 0..num_nets {
        let (no, line) = lines.next().ok_or(GraphError::Parse {
            line: header_no,
            message: format!("expected {num_nets} net lines"),
        })?;
        let line = line?;
        let mut tokens = line.split_whitespace();
        let weight: EdgeWeight = if has_nweights {
            parse_num(
                tokens.next().ok_or(GraphError::Parse {
                    line: no,
                    message: "missing net weight".into(),
                })?,
                no,
            )?
        } else {
            1
        };
        let mut pins = Vec::new();
        for tok in tokens {
            let pin1: u64 = parse_num(tok, no)?;
            if pin1 == 0 || pin1 > num_cells as u64 {
                return Err(GraphError::Parse {
                    line: no,
                    message: format!("pin {pin1} out of 1..={num_cells}"),
                });
            }
            pins.push((pin1 - 1) as VertexId);
        }
        builder
            .add_weighted_net(&pins, weight)
            .map_err(|e| parse_wrap(e, no))?;
    }
    if has_cweights {
        for c in 0..num_cells {
            let (no, line) = lines.next().ok_or(GraphError::Parse {
                line: header_no,
                message: format!("expected {num_cells} cell weight lines"),
            })?;
            let line = line?;
            let w: u64 = parse_num(line.trim(), no)?;
            if w == 0 {
                return Err(GraphError::Parse {
                    line: no,
                    message: "cell weight must be positive".into(),
                });
            }
            builder
                .set_cell_weight(c as VertexId, w)
                .map_err(|e| parse_wrap(e, no))?;
        }
    }
    if let Some((no, _)) = lines.next() {
        return Err(GraphError::Parse {
            line: no,
            message: "trailing content".into(),
        });
    }
    Ok(builder.build())
}

/// Writes a netlist in hMETIS `.hgr` format (weights emitted only when
/// non-unit).
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure.
pub fn write_hgr<W: Write>(
    nl: &crate::hypergraph::Netlist,
    mut writer: W,
) -> Result<(), GraphError> {
    let has_nweights = nl.net_ids().any(|n| nl.net_weight(n) != 1);
    let has_cweights = nl.cells().any(|c| nl.cell_weight(c) != 1);
    let fmt = match (has_nweights, has_cweights) {
        (false, false) => "",
        (true, false) => " 1",
        (false, true) => " 10",
        (true, true) => " 11",
    };
    writeln!(writer, "{} {}{fmt}", nl.num_nets(), nl.num_cells())?;
    for n in nl.net_ids() {
        let mut first = true;
        if has_nweights {
            write!(writer, "{}", nl.net_weight(n))?;
            first = false;
        }
        for &p in nl.pins(n) {
            if !first {
                write!(writer, " ")?;
            }
            first = false;
            write!(writer, "{}", p + 1)?;
        }
        writeln!(writer)?;
    }
    if has_cweights {
        for c in nl.cells() {
            writeln!(writer, "{}", nl.cell_weight(c))?;
        }
    }
    Ok(())
}

/// The whole input, so header counts can be checked against its size.
fn read_all<R: Read>(reader: R) -> Result<Vec<u8>, GraphError> {
    let mut input = Vec::new();
    BufReader::new(reader).read_to_end(&mut input)?;
    Ok(input)
}

/// Parses a header count of `what`, rejecting one larger than the
/// `input_len`-byte input or outside the [`VertexId`] range. Vertices,
/// edges and nets each cost a valid file at least one byte; an hMETIS
/// cell that no net names costs none, but a netlist declaring more
/// cells than its file has bytes is rejected as well.
fn parse_count(tok: &str, what: &str, input_len: usize, line: usize) -> Result<usize, GraphError> {
    let count: usize = parse_num(tok, line)?;
    let message = if count > VertexId::MAX as usize {
        format!("header declares {count} {what}, beyond the vertex id range")
    } else if count > input_len {
        format!("header declares {count} {what}, more than the {input_len}-byte input holds")
    } else {
        return Ok(count);
    };
    Err(GraphError::Parse { line, message })
}

fn parse_num<T: std::str::FromStr>(tok: &str, line: usize) -> Result<T, GraphError> {
    tok.parse().map_err(|_| GraphError::Parse {
        line,
        message: format!("invalid number `{tok}`"),
    })
}

fn parse_wrap(err: GraphError, line: usize) -> GraphError {
    GraphError::Parse {
        line,
        message: err.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn metis_roundtrip_simple() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let mut buf = Vec::new();
        write_metis(&g, &mut buf).unwrap();
        let h = read_metis(buf.as_slice()).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn metis_roundtrip_weighted() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 4).unwrap();
        b.add_edge(1, 2).unwrap();
        b.set_vertex_weight(2, 9).unwrap();
        let g = b.build();
        let mut buf = Vec::new();
        write_metis(&g, &mut buf).unwrap();
        let h = read_metis(buf.as_slice()).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn metis_parses_reference_text() {
        let text = "% a comment\n4 3\n2\n1 3\n2 4\n3\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && g.has_edge(2, 3));
    }

    #[test]
    fn metis_rejects_bad_header() {
        assert!(matches!(
            read_metis("4\n".as_bytes()),
            Err(GraphError::Parse { .. })
        ));
        assert!(matches!(
            read_metis("".as_bytes()),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn metis_rejects_wrong_edge_count() {
        let text = "3 5\n2\n1\n\n";
        assert!(matches!(
            read_metis(text.as_bytes()),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn metis_rejects_out_of_range_neighbor() {
        let text = "2 1\n3\n1\n";
        assert!(matches!(
            read_metis(text.as_bytes()),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn metis_rejects_self_loop() {
        let text = "2 1\n1\n2\n";
        assert!(matches!(
            read_metis(text.as_bytes()),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn metis_rejects_too_many_lines() {
        let text = "2 1\n2\n1\n2\n";
        assert!(matches!(
            read_metis(text.as_bytes()),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = Graph::from_edges(5, &[(0, 4), (1, 2), (2, 3)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(buf.as_slice(), Some(5)).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn edge_list_infers_vertex_count() {
        let g = read_edge_list("0 1\n1 7\n".as_bytes(), None).unwrap();
        assert_eq!(g.num_vertices(), 8);
    }

    #[test]
    fn edge_list_comments_and_blanks() {
        let g = read_edge_list("# header\n0 1 # trailing\n\n1 2\n".as_bytes(), None).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_weighted() {
        let g = read_edge_list("0 1 5\n".as_bytes(), None).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(5));
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "0 1 5\n");
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(read_edge_list("0 x\n".as_bytes(), None).is_err());
        assert!(read_edge_list("0\n".as_bytes(), None).is_err());
        assert!(read_edge_list("0 1 2 3\n".as_bytes(), None).is_err());
    }

    #[test]
    fn edge_list_respects_explicit_count() {
        assert!(read_edge_list("0 9\n".as_bytes(), Some(5)).is_err());
    }

    #[test]
    fn hgr_roundtrip_simple() {
        let mut b = crate::hypergraph::NetlistBuilder::new(5);
        b.add_net(&[0, 1, 2]).unwrap();
        b.add_net(&[2, 3, 4]).unwrap();
        b.add_net(&[0, 4]).unwrap();
        let nl = b.build();
        let mut buf = Vec::new();
        write_hgr(&nl, &mut buf).unwrap();
        let back = read_hgr(buf.as_slice()).unwrap();
        assert_eq!(nl, back);
    }

    #[test]
    fn hgr_roundtrip_weighted() {
        let mut b = crate::hypergraph::NetlistBuilder::new(3);
        b.add_weighted_net(&[0, 1], 4).unwrap();
        b.add_net(&[1, 2]).unwrap();
        b.set_cell_weight(2, 9).unwrap();
        let nl = b.build();
        let mut buf = Vec::new();
        write_hgr(&nl, &mut buf).unwrap();
        let back = read_hgr(buf.as_slice()).unwrap();
        assert_eq!(nl, back);
    }

    #[test]
    fn hgr_parses_reference_text() {
        let text = "% comment\n2 4\n1 2\n3 4 2\n";
        let nl = read_hgr(text.as_bytes()).unwrap();
        assert_eq!(nl.num_nets(), 2);
        assert_eq!(nl.num_cells(), 4);
        assert_eq!(nl.pins(0), &[0, 1]);
        assert_eq!(nl.pins(1), &[1, 2, 3]);
    }

    #[test]
    fn hgr_rejects_malformed() {
        assert!(read_hgr("".as_bytes()).is_err()); // no header
        assert!(read_hgr("2 4\n1 2\n".as_bytes()).is_err()); // missing net line
        assert!(read_hgr("1 2\n3\n".as_bytes()).is_err()); // pin out of range
        assert!(read_hgr("1 2\n0 1\n".as_bytes()).is_err()); // pin 0 (1-based)
        assert!(read_hgr("1 2 7\n1 2\n".as_bytes()).is_err()); // bad fmt
        assert!(read_hgr("1 2\n1 2\nextra\n".as_bytes()).is_err()); // trailing
        assert!(read_hgr("1 2 10\n1 2\n0\n1\n".as_bytes()).is_err()); // zero weight
    }

    #[test]
    fn hgr_cell_weights_section() {
        let text = "1 3 10\n1 2 3\n5\n1\n2\n";
        let nl = read_hgr(text.as_bytes()).unwrap();
        assert_eq!(nl.cell_weight(0), 5);
        assert_eq!(nl.cell_weight(2), 2);
    }

    #[test]
    fn huge_header_counts_are_parse_errors() {
        let header = "4000000000000000000 4000000000000000000\n";
        for err in [
            read_metis(header.as_bytes()).unwrap_err(),
            read_hgr(header.as_bytes()).unwrap_err(),
        ] {
            assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
        }
        // One past the vertex id range, on a later header line.
        let err = read_metis("% pad\n4294967296 0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("vertex id range"), "{err}");
        // A count above the input's byte length, on a later header line.
        let err = read_hgr("% comment\n1 99\n1 2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
    }

    /// A header count drawn from the ranges that stress a reader:
    /// tiny, small, around the vertex id limit, and anything at all.
    fn header_count() -> impl Strategy<Value = u64> {
        (0u8..4, any::<u64>()).prop_map(|(kind, raw)| match kind {
            0 => raw % 4,
            1 => raw % 64,
            2 => u64::from(VertexId::MAX) - 2 + raw % 4,
            _ => raw,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn readers_never_panic_on_adversarial_headers(
            n in header_count(),
            m in header_count(),
            fmt in 0usize..6,
            body in proptest::collection::vec(0u64..8, 0..12),
        ) {
            let fmt = ["", " 0", " 1", " 10", " 11", " 7"][fmt];
            let mut text = format!("{n} {m}{fmt}\n");
            for (i, x) in body.iter().enumerate() {
                text.push_str(&x.to_string());
                text.push(if i % 3 == 2 { '\n' } else { ' ' });
            }
            // Ok or Err, never a panic or an allocation failure.
            let _ = read_metis(text.as_bytes());
            let _ = read_hgr(text.as_bytes());
        }
    }

    #[test]
    fn empty_edge_list() {
        let g = read_edge_list("".as_bytes(), None).unwrap();
        assert_eq!(g.num_vertices(), 0);
        let g = read_edge_list("".as_bytes(), Some(3)).unwrap();
        assert_eq!(g.num_vertices(), 3);
    }
}
