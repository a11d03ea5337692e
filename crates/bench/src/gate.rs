//! The regression gate every `BENCH_*.json` carries: a `"gate"` array of
//! deterministic `key=value` lines (digests and counters, never timings)
//! that CI compares against the committed file. Each benchmark module
//! decides what its lines are (`gate_lines`); writing, parsing and
//! comparing them lives here.

/// Append the `"gate"` member — the last one of every report object — to
/// the JSON being built in `s`.
pub fn write_gate_array(s: &mut String, lines: &[String]) {
    s.push_str("  \"gate\": [\n");
    for (i, l) in lines.iter().enumerate() {
        s.push_str(&format!(
            "    \"{l}\"{}\n",
            if i + 1 < lines.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
}

/// Extract the `gate` array from a committed benchmark JSON file.
pub fn parse_gate(json: &str) -> Vec<String> {
    let Some(start) = json.find("\"gate\"") else {
        return Vec::new();
    };
    let Some(open) = json[start..].find('[') else {
        return Vec::new();
    };
    let Some(close) = json[start + open..].find(']') else {
        return Vec::new();
    };
    json[start + open + 1..start + open + close]
        .split(',')
        .filter_map(|tok| {
            let t = tok.trim().trim_matches('"');
            if t.is_empty() {
                None
            } else {
                Some(t.to_string())
            }
        })
        .collect()
}

/// The `key` of a `key=value` gate line.
fn key_of(line: &str) -> &str {
    line.split('=').next().unwrap_or_default()
}

/// Compare this run's gate lines against a committed baseline file.
/// Returns the list of drift messages (empty = pass): a changed value, a
/// line the baseline lacks, or a baseline line this run did not produce.
pub fn check(current: &[String], committed_json: &str) -> Vec<String> {
    let committed = parse_gate(committed_json);
    if committed.is_empty() {
        return vec!["committed baseline has no gate array".to_string()];
    }
    let mut drift = Vec::new();
    for line in current {
        let key = key_of(line);
        match committed.iter().find(|c| key_of(c) == key) {
            None => drift.push(format!("gate {key} missing from committed baseline")),
            Some(c) if c != line => {
                drift.push(format!("gate drift: committed `{c}` vs current `{line}`"))
            }
            Some(_) => {}
        }
    }
    for c in &committed {
        let key = key_of(c);
        if !current.iter().any(|l| key_of(l) == key) {
            drift.push(format!("gate {key} present in baseline but not produced"));
        }
    }
    drift
}

/// The `--check FILE` step of every `probe` benchmark: [`check`] `current`
/// against the committed file at `path`, print the verdict (`what` names
/// the gated quantity, e.g. `"digests"`), and return whether it passed.
pub fn check_file(path: &str, current: &[String], what: &str) -> bool {
    let committed = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let drift = check(current, &committed);
    for d in &drift {
        eprintln!("gate: {d}");
    }
    if drift.is_empty() {
        println!("gate: all {what} match {path}");
    }
    drift.is_empty()
}
