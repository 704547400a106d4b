//! The run's output: a detail object (settings, phase counts, every
//! layer figure) and, as the last line, the result object the contract
//! names — `correct`, `attempted`, `failed` and `metrics`.

use std::fmt::{self, Write as _};

/// A JSON value; enough for this benchmark's output.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number; non-finite values print as `null`.
    Num(f64),
    /// An integer count.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as u64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

/// Builds a [`Json::Obj`] from `(key, value)` pairs.
pub fn obj<I, K, V>(fields: I) -> Json
where
    I: IntoIterator<Item = (K, V)>,
    K: Into<String>,
    V: Into<Json>,
{
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.into(), v.into()))
            .collect(),
    )
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // `{}` on f64 prints the shortest exact decimal, never an
            // exponent, so every digit measured reaches the output.
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Str(s) => write_str(f, s),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result object the benchmark prints as its last line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> String {
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    obj([
                        ("value", Json::Num(m.value)),
                        ("unit", m.unit.into()),
                    ]),
                )
            })
            .collect(),
    );
    obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", metrics),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                metric("latency_ms", 1.2034, "ms"),
                metric("x", f64::NAN, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \
             \"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": \
             \"ms\"}, \"x\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn strings_are_escaped_and_small_numbers_keep_their_digits() {
        let j = obj([("a\"b", Json::Num(1.5e-7))]);
        assert_eq!(j.to_string(), "{\"a\\\"b\": 0.00000015}");
    }
}
