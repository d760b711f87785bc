//! A minimal JSON value and writer (the workspace carries no JSON crate).

use std::fmt::Write;

#[derive(Debug, Clone)]
pub enum J {
    Num(f64),
    Int(i64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // Rust's shortest round-trip form is valid JSON for finite
            // values; JSON has no infinities.
            J::Num(x) if x.is_finite() => write!(out, "{x:?}").expect("write to String"),
            J::Num(_) => out.push_str("null"),
            J::Int(n) => write!(out, "{n}").expect("write to String"),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Str(s) => write_str(out, s),
            J::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            J::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let v = J::obj([
            ("a", J::Num(1.5)),
            (
                "b",
                J::Arr(vec![J::Int(-2), J::Bool(true), J::Num(f64::INFINITY)]),
            ),
            ("c\"", J::str("x\ny")),
            ("d", J::Num(3.0)),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a": 1.5, "b": [-2, true, null], "c\"": "x\ny", "d": 3.0}"#
        );
    }
}
