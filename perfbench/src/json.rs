//! Just enough JSON to read the metric declarations out of
//! `BENCHMARK.json` for the self-test: string tokens and object braces.

/// The declared metrics: `(name, unit)` of every end-to-end and per-layer
/// entry.
pub struct Declared {
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

/// Reads the metric declarations of a `BENCHMARK.json` document: every
/// object holding both a `name` and a `unit`, filed under the array key
/// (`end_to_end` or `per_layer`) it appears after.
pub fn metric_units(text: &str) -> Result<Declared, String> {
    let mut declared = Declared {
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    let mut section = String::new();
    let mut strings: Vec<String> = Vec::new();
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let s: String = chars.by_ref().take_while(|&c| c != '"').collect();
                if s.contains('\\') {
                    return Err("string escapes are not supported".into());
                }
                if ["end_to_end", "per_layer", "workloads"].contains(&s.as_str()) {
                    section = s.clone();
                }
                strings.push(s);
            }
            '{' => strings.clear(),
            '}' => {
                let value = |key: &str| {
                    let at = strings.iter().position(|s| s == key)?;
                    strings.get(at + 1).cloned()
                };
                if let (Some(name), Some(unit)) = (value("name"), value("unit")) {
                    match section.as_str() {
                        "end_to_end" => declared.end_to_end.push((name, unit)),
                        "per_layer" => declared.per_layer.push((name, unit)),
                        _ => return Err(format!("metric {name} outside a metric list")),
                    }
                }
                strings.clear();
            }
            _ => {}
        }
    }
    if declared.end_to_end.is_empty() {
        return Err("no end_to_end metrics declared".into());
    }
    Ok(declared)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_declarations() {
        let d = metric_units(
            r#"{"run_seconds": 10, "workloads": [{"name": "a", "why": "b"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "bound": 0.25}],
                "per_layer": [{"unit": "ms", "name": "x.y_ms", "better": "lower"}]}"#,
        )
        .expect("valid document");
        assert_eq!(d.end_to_end, vec![("setup_s".into(), "s".into())]);
        assert_eq!(d.per_layer, vec![("x.y_ms".into(), "ms".into())]);
        assert!(metric_units("[1, 2]").is_err());
    }
}
