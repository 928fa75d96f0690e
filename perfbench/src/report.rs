//! The benchmark's arithmetic and output: medians, pooled deadline-miss
//! rates, the job-conservation check, and the one-line JSON result.

use daris_metrics::PrioritySummary;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name (as listed in `BENCHMARK.json`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty). NaNs sort last.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Deadline-miss and acceptance counts summed over disjoint job
/// populations (devices, grid cells), so a fleet miss rate is a ratio of
/// pooled counts rather than an average of per-device rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pooled {
    /// High-priority accepted jobs that missed their deadline.
    pub hp_missed: u64,
    /// High-priority accepted jobs.
    pub hp_accepted: u64,
    /// Low-priority accepted jobs that missed their deadline.
    pub lp_missed: u64,
    /// Low-priority accepted jobs.
    pub lp_accepted: u64,
}

impl Pooled {
    /// Adds one population's high- and low-priority summaries.
    pub fn add(&mut self, high: &PrioritySummary, low: &PrioritySummary) {
        self.hp_missed += high.deadline_misses as u64;
        self.hp_accepted += high.accepted as u64;
        self.lp_missed += low.deadline_misses as u64;
        self.lp_accepted += low.accepted as u64;
    }

    /// Pooled high-priority miss rate (0 with nothing accepted).
    pub fn hp_dmr(&self) -> f64 {
        ratio(self.hp_missed, self.hp_accepted)
    }

    /// Pooled low-priority miss rate (0 with nothing accepted).
    pub fn lp_dmr(&self) -> f64 {
        ratio(self.lp_missed, self.lp_accepted)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Checks that every job the workload offered is accounted exactly once:
/// the summary's releases equal `offered` (counted by the benchmark from the
/// workload itself), the priority classes add up to the total, and in each
/// class released = completed + rejected + outstanding with
/// outstanding = accepted − completed ≥ 0.
///
/// # Errors
///
/// Returns a description of the first broken equation.
pub fn check_conservation(
    offered: u64,
    high: &PrioritySummary,
    low: &PrioritySummary,
    total: &PrioritySummary,
) -> Result<(), String> {
    if total.released as u64 != offered {
        return Err(format!("released {} != offered {offered}", total.released));
    }
    for field in [
        ("released", high.released + low.released, total.released),
        ("rejected", high.rejected + low.rejected, total.rejected),
        ("completed", high.completed + low.completed, total.completed),
    ] {
        if field.1 != field.2 {
            return Err(format!("{}: high + low = {} != total {}", field.0, field.1, field.2));
        }
    }
    for (class, s) in [("high", high), ("low", low), ("total", total)] {
        let Some(outstanding) = s.accepted.checked_sub(s.completed) else {
            return Err(format!("{class}: completed {} > accepted {}", s.completed, s.accepted));
        };
        if s.completed + s.rejected + outstanding != s.released {
            return Err(format!(
                "{class}: completed {} + rejected {} + outstanding {outstanding} != released {}",
                s.completed, s.rejected, s.released
            ));
        }
    }
    Ok(())
}

/// Correctness checks run and failed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Checks {
    /// Checks run.
    pub attempted: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a check that produced an error message on failure.
    pub fn check_result(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = result {
            self.failures.push(message);
        }
    }

    /// Folds `other` in.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Formats a number for JSON: every digit Rust's shortest round-trip form
/// keeps; non-finite values (which JSON cannot carry) become 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}, ..}}`.
pub fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failures.is_empty(),
        checks.attempted.max(1),
        checks.failures.len(),
        body.join(", ")
    )
}

#[cfg(test)]
pub(crate) mod json {
    //! A minimal JSON reader for the tests: enough to parse back the result
    //! line and `BENCHMARK.json`.

    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(map) => map.get(key),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            self.ws();
            if self.s.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at {}", c as char, self.i))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.ws();
            match self.s.get(self.i).copied() {
                Some(b'{') => {
                    self.i += 1;
                    let mut map = BTreeMap::new();
                    self.ws();
                    if self.s.get(self.i) == Some(&b'}') {
                        self.i += 1;
                        return Ok(Value::Obj(map));
                    }
                    loop {
                        self.ws();
                        let Value::Str(key) = self.value()? else {
                            return Err(format!("object key must be a string at {}", self.i));
                        };
                        self.eat(b':')?;
                        let v = self.value()?;
                        if map.insert(key.clone(), v).is_some() {
                            return Err(format!("duplicate key {key}"));
                        }
                        self.ws();
                        match self.s.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b'}') => {
                                self.i += 1;
                                return Ok(Value::Obj(map));
                            }
                            _ => return Err(format!("bad object at {}", self.i)),
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.s.get(self.i) == Some(&b']') {
                        self.i += 1;
                        return Ok(Value::Arr(items));
                    }
                    loop {
                        items.push(self.value()?);
                        self.ws();
                        match self.s.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b']') => {
                                self.i += 1;
                                return Ok(Value::Arr(items));
                            }
                            _ => return Err(format!("bad array at {}", self.i)),
                        }
                    }
                }
                Some(b'"') => {
                    self.i += 1;
                    let start = self.i;
                    while self.i < self.s.len() && self.s[self.i] != b'"' {
                        if self.s[self.i] == b'\\' {
                            return Err("escapes are not used by these files".into());
                        }
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i])
                        .map_err(|e| e.to_string())?
                        .to_owned();
                    self.eat(b'"')?;
                    Ok(Value::Str(text))
                }
                Some(b't') => self.word("true", Value::Bool(true)),
                Some(b'f') => self.word("false", Value::Bool(false)),
                Some(b'n') => self.word("null", Value::Null),
                Some(_) => {
                    let start = self.i;
                    while self.i < self.s.len()
                        && matches!(self.s[self.i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                    {
                        self.i += 1;
                    }
                    let text =
                        std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                    text.parse().map(Value::Num).map_err(|_| format!("bad number {text:?}"))
                }
                None => Err("unexpected end".into()),
            }
        }

        fn word(&mut self, w: &str, v: Value) -> Result<Value, String> {
            if self.s[self.i..].starts_with(w.as_bytes()) {
                self.i += w.len();
                Ok(v)
            } else {
                Err(format!("bad literal at {}", self.i))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Value};
    use super::*;
    use daris_gpu::SimTime;
    use daris_metrics::MetricsCollector;
    use daris_models::DnnKind;
    use daris_workload::{Priority, TaskSet};

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn class(released: usize, accepted: usize, completed: usize, misses: usize) -> PrioritySummary {
        PrioritySummary {
            released,
            accepted,
            rejected: released - accepted,
            completed,
            deadline_misses: misses,
            ..PrioritySummary::default()
        }
    }

    #[test]
    fn pooled_dmr_is_a_ratio_of_summed_counts() {
        // Device A: 1 of 100 HP jobs missed; device B: 9 of 10. Averaging
        // the per-device rates would give 45.5 %; pooling gives 10/110.
        let mut pooled = Pooled::default();
        pooled.add(&class(100, 100, 100, 1), &class(50, 40, 40, 0));
        pooled.add(&class(10, 10, 10, 9), &class(5, 5, 5, 5));
        assert!((pooled.hp_dmr() - 10.0 / 110.0).abs() < 1e-12);
        assert!((pooled.lp_dmr() - 5.0 / 45.0).abs() < 1e-12);
        assert_eq!(Pooled::default().hp_dmr(), 0.0);
    }

    fn real_summary() -> (u64, daris_metrics::ExperimentSummary) {
        let ts = TaskSet::table2(DnnKind::ResNet18);
        let mut m = MetricsCollector::new();
        let hp = ts.tasks().iter().find(|t| t.priority == Priority::High).unwrap();
        let lp = ts.tasks().iter().find(|t| t.priority == Priority::Low).unwrap();
        let (a, b, c) = (hp.job(0), lp.job(0), lp.job(1));
        m.record_release(&a);
        m.record_completion(&a, a.release + daris_gpu::SimDuration::from_millis(2));
        m.record_rejection(&b);
        m.record_release(&c); // still outstanding at the horizon
        (3, m.summarize(SimTime::from_millis(500)))
    }

    #[test]
    fn conservation_accepts_a_real_summary() {
        let (offered, s) = real_summary();
        assert_eq!(check_conservation(offered, &s.high, &s.low, &s.total), Ok(()));
    }

    #[test]
    fn conservation_rejects_doctored_summaries() {
        let (offered, s) = real_summary();
        // A lost job: the workload offered one more than was accounted.
        assert!(check_conservation(offered + 1, &s.high, &s.low, &s.total).is_err());
        // A job completed that was never accepted.
        let mut total = s.total.clone();
        total.completed = total.accepted + 1;
        assert!(check_conservation(offered, &s.high, &s.low, &total).is_err());
        // Classes that do not add up to the total.
        let mut low = s.low.clone();
        low.rejected += 1;
        low.accepted -= 1;
        assert!(check_conservation(offered, &s.high, &low, &s.total).is_err());
        // One job charged twice: released != completed + rejected + outstanding.
        let mut high = s.high.clone();
        high.rejected += 1;
        let mut total = s.total.clone();
        total.rejected += 1;
        assert!(check_conservation(offered, &high, &s.low, &total).is_err());
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut checks = Checks::default();
        checks.check(true, || unreachable!());
        checks.check(false, || "broken".into());
        checks.check_result(Err("also broken".into()));
        assert_eq!(checks.attempted, 3);
        assert_eq!(checks.failures, vec!["broken".to_owned(), "also broken".to_owned()]);
    }

    #[test]
    fn result_line_parses_back() {
        let mut checks = Checks::default();
        checks.check(true, String::new);
        let metrics = [
            Metric { name: "setup_s", unit: "s", value: 0.812_734_5 },
            Metric { name: "hp_dmr", unit: "ratio", value: 1.0 / 3.0 },
            Metric { name: "bad", unit: "count", value: f64::NAN },
        ];
        let line = result_json(&checks, &metrics);
        let v = parse(&line).expect("result line is JSON");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&Value::Num(1.0)));
        assert_eq!(v.get("failed"), Some(&Value::Num(0.0)));
        let m = v.get("metrics").unwrap();
        let setup = m.get("setup_s").unwrap();
        assert_eq!(setup.get("value"), Some(&Value::Num(0.812_734_5)));
        assert_eq!(setup.get("unit"), Some(&Value::Str("s".into())));
        // Every digit survives the round trip.
        assert_eq!(m.get("hp_dmr").unwrap().get("value"), Some(&Value::Num(1.0 / 3.0)));
        assert_eq!(m.get("bad").unwrap().get("value"), Some(&Value::Num(0.0)));

        checks.check(false, || "x".into());
        let v = parse(&result_json(&checks, &[])).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("failed"), Some(&Value::Num(1.0)));
    }
}
