//! The inputs a peer can put behind a valid checksum that the writer
//! never produces: exponents past `f64`'s range, surrogate escapes that
//! do not pair, and duplicate keys. Each parses to a value or comes back
//! as a typed [`Error`] at its offset — never a panic — and what it
//! becomes is pinned here.

use fedl_json::{Error, Value};

fn parse(text: &str) -> Result<Value, String> {
    Value::parse(text).map_err(|e: Error| e.to_string())
}

#[test]
fn exponents_past_the_f64_range_saturate() {
    // Overflow rounds to the infinity of its sign, underflow to zero:
    // Rust's correctly rounded `f64` parse, no error.
    assert_eq!(parse("1e400"), Ok(Value::Float(f64::INFINITY)));
    assert_eq!(parse("-1e400"), Ok(Value::Float(f64::NEG_INFINITY)));
    assert_eq!(parse("1e-400"), Ok(Value::Float(0.0)));
    assert_eq!(
        parse("-1e-400").map(|v| v.as_f64().map(f64::to_bits)),
        Ok(Some((-0.0f64).to_bits()))
    );
    // An integer too long for `i64` degrades to a float, and past `f64`
    // to infinity.
    assert_eq!(parse(&format!("1{}", "0".repeat(400))), Ok(Value::Float(f64::INFINITY)));
    assert_eq!(
        parse("[1e400,2]"),
        Ok(Value::Arr(vec![Value::Float(f64::INFINITY), Value::Int(2)]))
    );
    // The writer spells a non-finite float as `null`, so an infinity read
    // here does not render back as the number it came from.
    assert_eq!(parse("1e400").unwrap().to_json(), "null");
}

#[test]
fn unpaired_surrogates_are_errors_at_their_offset() {
    for (text, want) in [
        // A high surrogate at the end of the string, and at the end of input.
        (r#""\uD800""#, "lone surrogate at byte 7"),
        (r#""\uD800"#, "lone surrogate at byte 7"),
        // A low surrogate on its own is not a scalar value.
        (r#""\uDC00""#, "invalid codepoint at byte 7"),
        (r#""x\uDFFFy""#, "invalid codepoint at byte 8"),
        // A high surrogate followed by a plain character, and by a `\u`
        // that is not a low surrogate.
        (r#""\uD800A""#, "lone surrogate at byte 7"),
        (r#""\uD800\u0041""#, "lone surrogate at byte 13"),
        (r#""\uDBFF\uD800""#, "lone surrogate at byte 13"),
        (r#""\uD800\uZZZZ""#, "bad \\u escape at byte 9"),
        (r#""\uD800\n""#, "lone surrogate at byte 7"),
    ] {
        assert_eq!(parse(text), Err(want.to_string()), "{text}");
    }
    // The pair itself decodes, in either hex case.
    assert_eq!(parse(r#""\uD83D\uDE00""#), Ok(Value::from("\u{1F600}")));
    assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Value::from("\u{1F600}")));
}

#[test]
fn duplicate_keys_keep_every_pair_and_get_returns_the_first() {
    let v = parse(r#"{"a":1,"b":2,"a":3}"#).unwrap();
    assert_eq!(v.get("a"), Some(&Value::Int(1)));
    assert_eq!(v.get("b"), Some(&Value::Int(2)));
    // Nothing is dropped: the later pair stays in the object and renders.
    let Value::Obj(pairs) = &v else { panic!("an object") };
    assert_eq!(pairs.len(), 3);
    assert_eq!(v.to_json(), r#"{"a":1,"b":2,"a":3}"#);
    assert_eq!(fedl_json::read_field::<usize>(&v, "a"), Ok(1));
}
