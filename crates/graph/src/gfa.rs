//! GFA v1 parsing and writing.
//!
//! The HPRC pangenome graphs the paper evaluates on are distributed as
//! GFA v1 (`.gfa`) files and converted to ODGI's binary format by the
//! artifact's preprocessing script. We support the subset of GFA v1 that
//! variation graphs use:
//!
//! * `H` — header (ignored beyond syntax),
//! * `S <name> <seq>` — segment; `*` sequences require an `LN:i:<len>` tag,
//! * `L <from> <fo> <to> <to> <overlap>` — link (only `0M`/`*` overlaps),
//! * `P <name> <h1{+,-},h2{+,-},…> <overlaps>` — path.
//!
//! Segment names may be arbitrary strings; they are mapped to dense node
//! ids in first-appearance order and preserved for round-tripping.

use crate::model::{GraphBuilder, Handle, VariationGraph};
use std::collections::HashMap;
use std::fmt;
use std::io::BufRead;

/// Errors produced by the GFA parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GfaError {
    /// A line did not have enough tab-separated fields.
    Truncated { line_no: usize, kind: char },
    /// A field that must be non-empty (sequence, path steps) was empty,
    /// or a segment declared zero length.
    Empty { line_no: usize, what: &'static str },
    /// A segment had `*` sequence but no `LN:i:` tag.
    MissingLength { line_no: usize, name: String },
    /// A link or path referenced an unknown segment.
    UnknownSegment { line_no: usize, name: String },
    /// An orientation character was not `+` or `-`.
    BadOrientation { line_no: usize, token: String },
    /// Unparseable numeric field.
    BadNumber { line_no: usize, token: String },
    /// The underlying reader failed (streaming entry point only).
    Io { line_no: usize, message: String },
}

impl fmt::Display for GfaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GfaError::Truncated { line_no, kind } => {
                write!(f, "line {line_no}: truncated {kind} record")
            }
            GfaError::Empty { line_no, what } => {
                write!(f, "line {line_no}: empty {what}")
            }
            GfaError::MissingLength { line_no, name } => {
                write!(
                    f,
                    "line {line_no}: segment {name} has '*' sequence and no LN tag"
                )
            }
            GfaError::UnknownSegment { line_no, name } => {
                write!(f, "line {line_no}: unknown segment {name}")
            }
            GfaError::BadOrientation { line_no, token } => {
                write!(f, "line {line_no}: bad orientation {token:?}")
            }
            GfaError::BadNumber { line_no, token } => {
                write!(f, "line {line_no}: bad number {token:?}")
            }
            GfaError::Io { line_no, message } => {
                write!(f, "line {line_no}: read error: {message}")
            }
        }
    }
}

impl std::error::Error for GfaError {}

/// Parse a GFA v1 document into a variation graph.
pub fn parse_gfa(text: &str) -> Result<VariationGraph, GfaError> {
    parse_gfa_reader(text.as_bytes())
}

/// Streaming parse state: segments build the graph as their lines
/// arrive; link and path lines are deferred (they may reference
/// segments defined later) and replayed once the input is exhausted.
/// Peak memory is therefore the parsed graph plus the link/path text
/// only — the segment lines (sequences dominate GFA size) are never
/// retained, so ingestion does not hold both the raw document and the
/// parsed graph at once.
struct StreamingParser {
    builder: GraphBuilder,
    ids: HashMap<String, u32>,
    /// `(line_no, line)` for L/P records awaiting the segment table.
    deferred: Vec<(usize, String)>,
}

impl StreamingParser {
    fn new() -> Self {
        Self {
            builder: GraphBuilder::new(),
            ids: HashMap::new(),
            deferred: Vec::new(),
        }
    }

    fn segment(&mut self, line: &str, line_no: usize) -> Result<(), GfaError> {
        let mut fields = line.split('\t');
        let _ = fields.next();
        let name = fields
            .next()
            .ok_or(GfaError::Truncated { line_no, kind: 'S' })?;
        let seq = fields
            .next()
            .ok_or(GfaError::Truncated { line_no, kind: 'S' })?;
        if name.is_empty() {
            return Err(GfaError::Empty {
                line_no,
                what: "segment name",
            });
        }
        let id = if seq == "*" {
            let ln = fields
                .find_map(|t| t.strip_prefix("LN:i:"))
                .ok_or_else(|| GfaError::MissingLength {
                    line_no,
                    name: name.to_string(),
                })?;
            let len: u32 = ln.parse().map_err(|_| GfaError::BadNumber {
                line_no,
                token: ln.to_string(),
            })?;
            if len == 0 {
                return Err(GfaError::Empty {
                    line_no,
                    what: "segment length",
                });
            }
            self.builder.add_node_len(len)
        } else {
            if seq.is_empty() {
                return Err(GfaError::Empty {
                    line_no,
                    what: "segment sequence",
                });
            }
            self.builder.add_node_seq(seq.as_bytes())
        };
        self.builder.set_node_name(id, name);
        self.ids.insert(name.to_string(), id);
        Ok(())
    }

    fn line(&mut self, line: &str, line_no: usize) -> Result<(), GfaError> {
        match line.chars().next() {
            Some('S') => self.segment(line, line_no),
            Some('L') | Some('P') => {
                self.deferred.push((line_no, line.to_string()));
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn lookup(&self, name: &str, line_no: usize) -> Result<u32, GfaError> {
        self.ids
            .get(name)
            .copied()
            .ok_or_else(|| GfaError::UnknownSegment {
                line_no,
                name: name.to_string(),
            })
    }

    fn finish(mut self) -> Result<VariationGraph, GfaError> {
        let orient = |tok: &str, line_no: usize| match tok {
            "+" => Ok(false),
            "-" => Ok(true),
            _ => Err(GfaError::BadOrientation {
                line_no,
                token: tok.to_string(),
            }),
        };
        let deferred = std::mem::take(&mut self.deferred);
        for (line_no, line) in deferred {
            match line.chars().next() {
                Some('L') => {
                    let f: Vec<&str> = line.split('\t').collect();
                    if f.len() < 5 {
                        return Err(GfaError::Truncated { line_no, kind: 'L' });
                    }
                    let from = self.lookup(f[1], line_no)?;
                    let fo = orient(f[2], line_no)?;
                    let to = self.lookup(f[3], line_no)?;
                    let to_o = orient(f[4], line_no)?;
                    self.builder
                        .add_edge(Handle::new(from, fo), Handle::new(to, to_o));
                }
                Some('P') => {
                    let f: Vec<&str> = line.split('\t').collect();
                    if f.len() < 3 {
                        return Err(GfaError::Truncated { line_no, kind: 'P' });
                    }
                    let mut steps = Vec::new();
                    for tok in f[2].split(',') {
                        if tok.is_empty() {
                            continue;
                        }
                        // The orientation is the last char, which need
                        // not be one byte: `1é` is a bad orientation.
                        let o_len = tok.chars().next_back().map_or(0, char::len_utf8);
                        let (name, o) = tok.split_at(tok.len() - o_len);
                        if name.is_empty() {
                            return Err(GfaError::Empty {
                                line_no,
                                what: "step name",
                            });
                        }
                        let rev = orient(o, line_no)?;
                        let id = self.lookup(name, line_no)?;
                        steps.push(Handle::new(id, rev));
                    }
                    if steps.is_empty() {
                        return Err(GfaError::Empty {
                            line_no,
                            what: "path steps",
                        });
                    }
                    self.builder.add_path(f[1], steps);
                }
                _ => unreachable!("only L/P lines are deferred"),
            }
        }
        Ok(self.builder.build())
    }
}

/// Parse GFA v1 from any buffered reader — the streaming ingestion
/// entry point. Unlike `parse_gfa(&read_to_string(..))`, this never
/// materializes the whole document: segment lines are consumed as they
/// stream past and only link/path text is buffered until the segment
/// table is complete.
pub fn parse_gfa_reader<R: BufRead>(mut reader: R) -> Result<VariationGraph, GfaError> {
    let mut p = StreamingParser::new();
    let mut line = String::new();
    let mut line_no = 0usize;
    loop {
        line.clear();
        line_no += 1;
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                return Err(GfaError::Io {
                    line_no,
                    message: e.to_string(),
                })
            }
        }
        // Match `str::lines` exactly (the old non-streaming parser):
        // strip the `\n` terminator and a preceding `\r` if present.
        if line.ends_with('\n') {
            line.pop();
            if line.ends_with('\r') {
                line.pop();
            }
        }
        p.line(&line, line_no)?;
    }
    p.finish()
}

/// Serialize a variation graph as GFA v1. Segments without stored bases are
/// written as `*` with an `LN:i:` tag.
pub fn write_gfa(g: &VariationGraph) -> String {
    let mut out = String::new();
    out.push_str("H\tVN:Z:1.0\n");
    for id in 0..g.node_count() as u32 {
        match g.node_seq(id) {
            Some(seq) => {
                out.push_str(&format!(
                    "S\t{}\t{}\n",
                    g.node_name(id),
                    std::str::from_utf8(seq).expect("sequences are ASCII")
                ));
            }
            None => {
                out.push_str(&format!(
                    "S\t{}\t*\tLN:i:{}\n",
                    g.node_name(id),
                    g.node_len(id)
                ));
            }
        }
    }
    for &(a, c) in g.edges() {
        out.push_str(&format!(
            "L\t{}\t{}\t{}\t{}\t0M\n",
            g.node_name(a.id()),
            if a.is_reverse() { '-' } else { '+' },
            g.node_name(c.id()),
            if c.is_reverse() { '-' } else { '+' },
        ));
    }
    for p in g.paths() {
        let steps: Vec<String> = p
            .steps
            .iter()
            .map(|h| {
                format!(
                    "{}{}",
                    g.node_name(h.id()),
                    if h.is_reverse() { '-' } else { '+' }
                )
            })
            .collect();
        out.push_str(&format!("P\t{}\t{}\t*\n", p.name, steps.join(",")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::fig1_graph;

    const TOY: &str = "H\tVN:Z:1.0\n\
S\t1\tAA\n\
S\t2\tT\n\
S\t3\tGC\n\
L\t1\t+\t2\t+\t0M\n\
L\t2\t+\t3\t+\t0M\n\
L\t1\t+\t3\t+\t0M\n\
P\tref\t1+,2+,3+\t*\n\
P\talt\t1+,3+\t*\n";

    #[test]
    fn parse_toy_document() {
        let g = parse_gfa(TOY).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.path_count(), 2);
        assert_eq!(g.node_seq(0).unwrap(), b"AA");
        assert_eq!(g.path(0).name, "ref");
        assert_eq!(g.path(0).steps.len(), 3);
        assert_eq!(g.path(1).steps.len(), 2);
    }

    #[test]
    fn parse_star_sequence_with_ln_tag() {
        let doc = "S\tn1\t*\tLN:i:123\nP\tp\tn1+\t*\n";
        let g = parse_gfa(doc).unwrap();
        assert_eq!(g.node_len(0), 123);
        assert!(g.node_seq(0).is_none());
    }

    #[test]
    fn parse_reverse_orientations() {
        let doc = "S\ta\tAC\nS\tb\tGT\nL\ta\t+\tb\t-\t0M\nP\tp\ta+,b-\t*\n";
        let g = parse_gfa(doc).unwrap();
        assert!(g.path(0).steps[1].is_reverse());
        assert!(g.has_edge(Handle::forward(0), Handle::reverse(1)));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let g = fig1_graph();
        let text = write_gfa(&g);
        let g2 = parse_gfa(&text).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.path_count(), g.path_count());
        for id in 0..g.node_count() as u32 {
            assert_eq!(g2.node_len(id), g.node_len(id));
            assert_eq!(g2.node_seq(id), g.node_seq(id));
        }
        for (p, q) in g.paths().iter().zip(g2.paths()) {
            assert_eq!(p.name, q.name);
            assert_eq!(p.steps, q.steps);
        }
        // And writing again is a fixed point.
        assert_eq!(write_gfa(&g2), text);
    }

    #[test]
    fn error_on_missing_length() {
        let doc = "S\tn1\t*\n";
        match parse_gfa(doc) {
            Err(GfaError::MissingLength { line_no: 1, .. }) => {}
            other => panic!("expected MissingLength, got {other:?}"),
        }
    }

    #[test]
    fn error_on_unknown_segment_in_link() {
        let doc = "S\ta\tA\nL\ta\t+\tzzz\t+\t0M\n";
        match parse_gfa(doc) {
            Err(GfaError::UnknownSegment { name, .. }) => assert_eq!(name, "zzz"),
            other => panic!("expected UnknownSegment, got {other:?}"),
        }
    }

    #[test]
    fn error_on_bad_orientation() {
        let doc = "S\ta\tA\nS\tb\tC\nL\ta\t?\tb\t+\t0M\n";
        assert!(matches!(
            parse_gfa(doc),
            Err(GfaError::BadOrientation { .. })
        ));
    }

    #[test]
    fn error_on_truncated_record() {
        assert!(matches!(
            parse_gfa("S\tonly-name\n"),
            Err(GfaError::Truncated { kind: 'S', .. })
        ));
        assert!(matches!(
            parse_gfa("S\ta\tA\nL\ta\t+\n"),
            Err(GfaError::Truncated { kind: 'L', .. })
        ));
        assert!(matches!(
            parse_gfa("P\tname\n"),
            Err(GfaError::Truncated { kind: 'P', .. })
        ));
    }

    #[test]
    fn segments_referenced_before_definition() {
        // Links may appear before the segments they reference.
        let doc = "L\ta\t+\tb\t+\t0M\nS\ta\tA\nS\tb\tC\nP\tp\ta+,b+\t*\n";
        let g = parse_gfa(doc).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn non_numeric_segment_names_round_trip() {
        let doc = "S\tchr1_node\tACGT\nP\tp\tchr1_node+\t*\n";
        let g = parse_gfa(doc).unwrap();
        assert_eq!(g.node_name(0), "chr1_node");
        let again = parse_gfa(&write_gfa(&g)).unwrap();
        assert_eq!(again.node_name(0), "chr1_node");
    }

    #[test]
    fn streaming_reader_matches_the_string_parser() {
        let g = parse_gfa(TOY).unwrap();
        let via_reader = parse_gfa_reader(std::io::BufReader::new(TOY.as_bytes())).unwrap();
        assert_eq!(via_reader.node_count(), g.node_count());
        assert_eq!(via_reader.edge_count(), g.edge_count());
        assert_eq!(via_reader.path_count(), g.path_count());
        assert_eq!(write_gfa(&via_reader), write_gfa(&g));
        // Errors carry the same line numbers through the streaming path.
        let bad = "S\ta\tA\nL\ta\t+\tzzz\t+\t0M\n";
        assert_eq!(
            parse_gfa_reader(bad.as_bytes()).unwrap_err(),
            parse_gfa(bad).unwrap_err()
        );
        // Missing trailing newline on the last record is fine.
        let no_nl = "S\ta\tACGT\nP\tp\ta+\t*";
        assert_eq!(parse_gfa_reader(no_nl.as_bytes()).unwrap().path_count(), 1);
    }

    #[test]
    fn streaming_reader_surfaces_io_errors() {
        struct Flaky(usize);
        impl std::io::Read for Flaky {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("disk on fire"));
                }
                self.0 -= 1;
                let line = b"S\tx\tA\n";
                buf[..line.len()].copy_from_slice(line);
                Ok(line.len())
            }
        }
        let err = parse_gfa_reader(std::io::BufReader::new(Flaky(2))).unwrap_err();
        match err {
            GfaError::Io { message, .. } => assert!(message.contains("disk on fire")),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn error_display_strings() {
        let e = GfaError::UnknownSegment {
            line_no: 3,
            name: "x".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = GfaError::BadNumber {
            line_no: 9,
            token: "q".into(),
        };
        assert!(e.to_string().contains("bad number"));
    }
}
