//! Property tests of the JSON codec: the parser never panics, refuses
//! runaway nesting, and reads back exactly what [`quote`] and integer
//! formatting write.

use pgio::json::MAX_DEPTH;
use pgio::{quote, Json};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte soup never panics the parser.
    #[test]
    fn arbitrary_bytes_never_panic(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Json::parse(&data);
    }

    /// Bytes drawn from JSON's own punctuation reach deeper into the
    /// grammar than uniform bytes do, and still never panic it.
    #[test]
    fn json_shaped_soup_never_panics(
        data in prop::collection::vec(
            prop::sample::select(b"{}[]:,\"\\u0-19.eE+tfnrsal \n".to_vec()),
            0..64,
        ),
    ) {
        let _ = Json::parse(&data);
    }

    /// Any string survives a quote → parse round trip. The strings mix
    /// arbitrary code points with the characters `quote` must escape.
    #[test]
    fn quoted_strings_read_back(codes in prop::collection::vec(any::<u32>(), 0..48)) {
        let s: String = codes
            .iter()
            .filter_map(|&c| match c % 4 {
                0 => char::from_u32(c % 0x11_0000),
                1 => char::from_u32(c % 0x80),
                2 => Some(['"', '\\', '\n', '\u{0}', '\u{1f}', '/'][(c as usize / 4) % 6]),
                _ => char::from_u32(c % 0x800),
            })
            .collect();
        let doc = Json::parse(quote(&s)).map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(doc.str(), Some(s.as_str()));
    }

    /// Integers read back exactly, whatever their size.
    #[test]
    fn integers_read_back_exactly(n in any::<u64>()) {
        let doc = Json::parse(format!("{{\"n\":{n}}}")).unwrap();
        prop_assert_eq!(doc.get("n").and_then(Json::u64), Some(n));
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for depth in [MAX_DEPTH + 1, 10_000, 1_000_000] {
        let doc = "[".repeat(depth);
        assert!(Json::parse(&doc).is_err(), "depth {depth}");
        let closed = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&closed).is_err(), "closed depth {depth}");
    }
}

#[test]
fn u64_max_reads_back_exactly() {
    let doc = Json::parse(format!("[{}]", u64::MAX)).unwrap();
    assert_eq!(doc.at("0").and_then(Json::u64), Some(u64::MAX));
    let over = Json::parse("18446744073709551616").unwrap();
    assert_eq!(over.u64(), None, "one past u64::MAX does not wrap");
}
