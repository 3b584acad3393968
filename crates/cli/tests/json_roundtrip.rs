//! Property coverage for the JSON string writer and parser
//! ([`Value::to_json`], [`parse_json`]): arbitrary strings must
//! round-trip byte-for-byte, including the control characters the
//! writer emits as `\uXXXX` escapes, quotes, backslashes and non-ASCII
//! text. (The parser fix that introduced the `\uXXXX` path had only
//! example-based coverage.)

use mondrian_cli::value::{parse_json, Value};
use proptest::prelude::*;

/// Strings over a deliberately hostile alphabet: C0 control characters
/// (forcing `\uXXXX` escapes), the JSON specials `"` and `\`, ASCII,
/// and multi-byte BMP characters (literal UTF-8 in the output).
fn hostile_string(codes: Vec<u32>) -> String {
    codes
        .into_iter()
        .map(|c| {
            let c = match c % 6 {
                0 => c % 0x20,           // C0 controls → \uXXXX
                1 => u32::from(b'"'),    // quote
                2 => u32::from(b'\\'),   // backslash
                3 => 0x20 + c % 0x5f,    // printable ASCII
                4 => 0xe0 + c % 0x200,   // Latin/Greek supplements
                _ => 0x4e00 + c % 0x100, // CJK (3-byte UTF-8)
            };
            char::from_u32(c).unwrap_or('?')
        })
        .collect()
}

proptest! {
    /// The writer/parser pair round-trips arbitrary BMP strings
    /// byte-for-byte — the `\uXXXX` escapes the writer emits for control
    /// characters parse back to the identical string.
    #[test]
    fn json_string_escapes_round_trip(codes in prop::collection::vec(0u32..0x10000, 0..64)) {
        let original = hostile_string(codes);
        let json = Value::Str(original.clone()).to_json();
        let parsed = parse_json(&json).expect("writer output is valid JSON");
        prop_assert_eq!(parsed.as_str(), Some(original.as_str()));
    }
}
