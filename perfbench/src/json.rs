//! A JSON writer small enough to read in one sitting: the vendored
//! dependency set has no serde, and the benchmark only ever *writes* JSON.

use std::fmt::Write;

/// A JSON value. Objects keep insertion order so output is diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Whole numbers (counts, span ids, nanoseconds) print without a
    /// fraction.
    Int(u64),
    /// Measurements print with every digit `f64` round-trips; a non-finite
    /// value has no JSON spelling and prints as `null`.
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("writing to a String"),
            Json::Num(x) if x.is_finite() => write!(out, "{x}").expect("writing to a String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_in_insertion_order() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(120)),
            (
                "metrics",
                Json::obj([(
                    "iter_s",
                    Json::obj([("value", Json::Num(0.1203125)), ("unit", Json::str("s"))]),
                )]),
            ),
            ("parent", Json::Null),
        ]);
        assert_eq!(
            v.render(),
            r#"{"correct": true, "attempted": 120, "metrics": {"iter_s": {"value": 0.1203125, "unit": "s"}}, "parent": null}"#
        );
    }

    #[test]
    fn numbers_keep_their_digits_and_non_finite_is_null() {
        assert_eq!(Json::Num(1.0 / 3.0).render(), "0.3333333333333333");
        assert_eq!(Json::Num(2.0).render(), "2");
        assert_eq!(Json::Num(1e-9).render(), "0.000000001");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render(),
            r#""a\"b\\c\nd\u0001""#
        );
    }
}
