//! The result of one run: metrics, operation counts and output checks,
//! printed as the final JSON line.

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (optimizer steps, forecasts, requests).
    pub attempted: u64,
    /// Operations that failed (diverged steps, rejected / errored /
    /// deadline-missed requests).
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Output checks that failed; any entry makes the run incorrect.
    failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name, value, unit));
    }

    /// Records an output check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        eprintln!("check {}: {what}", if ok { "ok" } else { "FAILED" });
        if !ok {
            self.failures.push(what);
        }
    }

    /// Counts `n` attempted operations, `failed` of which failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The contract line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(*value),
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite `f64` in JSON, with every digit Rust's shortest round-trip
/// formatting gives.
pub fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.ops(3, 1);
        r.metric("a.b", 1.5, "ms");
        r.metric("n", 2.0, "count");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}, \"n\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
        r.check(false, "x");
        assert!(r.to_json().starts_with("{\"correct\": false"));
        assert_eq!(json_string("q\"\\\n"), "\"q\\\"\\\\\\u000a\"");
    }
}
