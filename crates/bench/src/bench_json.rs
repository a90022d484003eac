//! Shared plumbing for the `BENCH_kernels.json` emitters.
//!
//! Two separate bench binaries (`kernels`, `collectives`) maintain sections
//! of one JSON file at the workspace root. [`update_sections`] does a
//! section-wise read-modify-write so each emitter refreshes its own keys
//! without clobbering the other's, and [`measure_ns`] is the
//! criterion-independent timer both use for the recorded numbers.

use std::path::Path;

/// Median ns/iter of `f` over batches sized to ~20 ms each. With
/// `quick` (CI smoke mode) a single shot is taken instead — fast, but the
/// resulting ratios are noise and must not be committed.
pub fn measure_ns(mut f: impl FnMut(), quick: bool) -> f64 {
    use std::time::Instant;
    f(); // warm up
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_nanos().max(1) as f64;
    if quick {
        return once;
    }
    let iters = (20e6 / once).clamp(1.0, 1e6) as u64;
    let samples = 7;
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ns[samples / 2]
}

/// Split a JSON object's source text into ordered `(key, raw value)` pairs
/// at nesting depth 1, preserving each value's exact text. Returns `None`
/// if the text is not a braced object.
fn split_top_level(text: &str) -> Option<Vec<(String, String)>> {
    let t = text.trim();
    let inner = t.strip_prefix('{')?.strip_suffix('}')?;
    let mut pairs = Vec::new();
    let bytes = inner.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // skip whitespace and commas to the next key
        while i < bytes.len() && (bytes[i].is_ascii_whitespace() || bytes[i] == b',') {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        if bytes[i] != b'"' {
            return None;
        }
        let key_start = i + 1;
        let key_end = scan_string_end(inner, key_start)?;
        let key = inner[key_start..key_end].to_string();
        i = key_end + 1;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b':' {
            return None;
        }
        i += 1;
        // scan the value: strings, nested objects/arrays, or scalars
        let val_start = i;
        let mut depth = 0i32;
        while i < bytes.len() {
            match bytes[i] {
                b'"' => i = scan_string_end(inner, i + 1)?,
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                b',' if depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        pairs.push((key, inner[val_start..i].trim().to_string()));
    }
    Some(pairs)
}

/// Index of the closing quote of a string whose content starts at `from`.
fn scan_string_end(s: &str, from: usize) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut i = from;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(i),
            _ => i += 1,
        }
    }
    None
}

/// Replace (or append) the given top-level `(key, raw JSON value)` pairs in
/// the object at `path`, preserving every other section verbatim. Creates
/// the file if missing. Multi-line values are written as given, so callers
/// control their own indentation.
pub fn update_sections(path: &Path, sections: &[(&str, String)]) {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    // A missing/empty file starts fresh; a non-empty file that fails to
    // parse must fail loudly — silently defaulting would rewrite the file
    // with only the caller's sections and drop everyone else's.
    let mut pairs = if text.trim().is_empty() {
        Vec::new()
    } else {
        split_top_level(&text).unwrap_or_else(|| {
            panic!(
                "{} exists but is not a JSON object; refusing to clobber it",
                path.display()
            )
        })
    };
    for (key, value) in sections {
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some(p) => p.1 = value.clone(),
            None => pairs.push((key.to_string(), value.clone())),
        }
    }
    let mut out = String::from("{\n");
    for (i, (k, v)) in pairs.iter().enumerate() {
        let comma = if i + 1 == pairs.len() { "" } else { "," };
        out.push_str(&format!("  \"{k}\": {v}{comma}\n"));
    }
    out.push_str("}\n");
    std::fs::write(path, &out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_untouched_sections() {
        let dir = std::env::temp_dir().join("dchag_bench_json_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("bench.json");
        let _ = std::fs::remove_file(&path);

        update_sections(
            &path,
            &[
                ("description", "\"seed, with {braces} inside\"".to_string()),
                (
                    "kernels",
                    "{\n    \"a\": { \"x\": 1 },\n    \"b\": { \"y\": [1, 2] }\n  }".to_string(),
                ),
            ],
        );
        update_sections(
            &path,
            &[("collectives", "{\n    \"c\": { \"z\": 3 }\n  }".to_string())],
        );
        // refresh one section; others must survive byte-identically
        update_sections(
            &path,
            &[("kernels", "{\n    \"a\": { \"x\": 9 }\n  }".to_string())],
        );

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"x\": 9"), "{text}");
        assert!(text.contains("\"z\": 3"), "{text}");
        assert!(text.contains("with {braces} inside"), "{text}");
        assert!(
            !text.contains("\"y\""),
            "replaced section fully swapped: {text}"
        );
        let pairs = split_top_level(&text).unwrap();
        assert_eq!(
            pairs.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["description", "kernels", "collectives"]
        );
    }

    #[test]
    fn quick_measure_returns_positive() {
        let mut x = 0u64;
        let ns = measure_ns(|| x = x.wrapping_add(1), true);
        assert!(ns > 0.0);
        assert!(x >= 2);
    }
}
