//! Just enough JSON output for pass records and exported artifacts.

/// A finite number in shortest round-trip form; non-finite becomes `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

pub fn str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn arr(vs: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = vs.into_iter().map(num).collect();
    format!("[{}]", items.join(","))
}

pub fn strs<S: AsRef<str>>(ss: impl IntoIterator<Item = S>) -> String {
    let items: Vec<String> = ss.into_iter().map(|s| str(s.as_ref())).collect();
    format!("[{}]", items.join(","))
}

/// An object from `(key, already-encoded value)` pairs, in order.
pub fn obj<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    let items: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", str(k.as_ref())))
        .collect();
    format!("{{{}}}", items.join(","))
}
