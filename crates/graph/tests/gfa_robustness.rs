//! Robustness tests: the GFA parser must return errors, never panic, on
//! arbitrary and adversarial input.

use pangraph::{parse_gfa, write_gfa, GfaError};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (as lossy text) never panic the parser.
    #[test]
    fn arbitrary_text_never_panics(input in ".{0,400}") {
        let _ = parse_gfa(&input);
    }

    /// Arbitrary tab-separated record soup, multi-byte chars included,
    /// never panics.
    #[test]
    fn record_soup_never_panics(
        kinds in prop::collection::vec(prop::sample::select(vec!["S", "L", "P", "H", "#"]), 0..20),
        fields in prop::collection::vec("[A-Za-z0-9+*,éß✓€-]{0,12}", 0..60),
    ) {
        let mut doc = String::new();
        let mut fi = fields.iter();
        for k in kinds {
            doc.push_str(k);
            for _ in 0..4 {
                if let Some(f) = fi.next() {
                    doc.push('\t');
                    doc.push_str(f);
                }
            }
            doc.push('\n');
        }
        let _ = parse_gfa(&doc);
    }

    /// Any graph the parser accepts round-trips through the writer.
    #[test]
    fn accepted_graphs_round_trip(
        n_nodes in 1usize..12,
        seqs in prop::collection::vec("[ACGT]{1,6}", 12),
        path_picks in prop::collection::vec(0usize..12, 1..20),
    ) {
        let mut doc = String::new();
        for (i, seq) in seqs.iter().enumerate().take(n_nodes) {
            doc.push_str(&format!("S\tn{i}\t{seq}\n"));
        }
        let steps: Vec<String> = path_picks
            .iter()
            .map(|&p| format!("n{}+", p % n_nodes))
            .collect();
        doc.push_str(&format!("P\tw\t{}\t*\n", steps.join(",")));
        let g = parse_gfa(&doc).expect("well-formed doc");
        let again = parse_gfa(&write_gfa(&g)).expect("round trip");
        prop_assert_eq!(g.node_count(), again.node_count());
        prop_assert_eq!(g.path(0).steps.len(), again.path(0).steps.len());
    }
}

#[test]
fn pathological_inputs_error_cleanly() {
    // Every one of these must be Err, not panic.
    let cases = [
        "S",                     // bare record type
        "S\t",                   // empty name
        "S\tx",                  // missing sequence
        "S\tx\t",                // empty sequence (fuzz-found)
        "S\t\tACGT",             // empty segment name
        "S\tn\t*\tLN:i:0",       // zero-length segment (fuzz-found)
        "L\ta\t+\tb",            // truncated link
        "P\tp",                  // truncated path
        "P\tp\t\t*",             // empty step list (fuzz-found)
        "P\tp\t,\t*",            // only separators
        "P\tp\tq?\t*",           // bad orientation
        "S\tn\t*\tLN:i:notanum", // bad LN tag
        "P\tp\tmissing+\t*",     // unknown segment
        "S\ta\tAC\nP\tp\t+\t*",  // step with empty name
    ];
    for c in cases {
        assert!(parse_gfa(c).is_err(), "should reject {c:?}");
    }
}

#[test]
fn multi_byte_orientations_are_errors_not_panics() {
    for step in ["1é", "1✓", "1🧬"] {
        let doc = format!("S\t1\tA\nP\tp\t{step}\t*\n");
        assert!(
            matches!(
                parse_gfa(&doc),
                Err(GfaError::BadOrientation { line_no: 2, .. })
            ),
            "{step:?}: {:?}",
            parse_gfa(&doc)
        );
    }
}

#[test]
fn empty_and_comment_only_documents_are_valid_empty_graphs() {
    for doc in ["", "\n\n", "H\tVN:Z:1.0\n", "# just a comment\n"] {
        let g = parse_gfa(doc).expect("empty graph is fine");
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.path_count(), 0);
    }
}

#[test]
fn crlf_and_trailing_whitespace_tolerance() {
    // Windows line endings inside fields would change lengths; the parser
    // treats \r as part of the last field — the graph still builds, and
    // this pins that behaviour.
    let doc = "S\ta\tACGT\nP\tp\ta+\t*\n";
    let g = parse_gfa(doc).unwrap();
    assert_eq!(g.node_len(0), 4);
}
