//! The benchmark's own tests: a quick-size pass of every workload, in
//! both modes, against the metric list in `BENCHMARK.json`.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;

use geospan_perfbench::metrics::{END_TO_END, PER_LAYER};
use geospan_perfbench::{result_line, run, Options, Outcome, Workload};

/// A JSON value, as much of it as the benchmark's files use.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("{other:?} is not an object"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                        out.push(match self.s[self.i] {
                            b'n' => '\n',
                            b't' => '\t',
                            c => c as char,
                        });
                    } else {
                        let len = utf8_len(self.s[self.i]);
                        out.push_str(std::str::from_utf8(&self.s[self.i..self.i + len]).unwrap());
                        self.i += len - 1;
                    }
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(out)
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()), "expected {w}");
        self.i += w.len();
        v
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xf0.. => 4,
        0xe0.. => 3,
        0xc0.. => 2,
        _ => 1,
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Parser::parse(&text)
}

fn quick(workload: Workload, seed: u64, trace: bool) -> Outcome {
    quick_for(workload, seed, trace, 0.0)
}

fn quick_for(workload: Workload, seed: u64, trace: bool, seconds: f64) -> Outcome {
    run(&Options {
        workload,
        seed,
        seconds,
        trace,
        quick: true,
    })
}

fn param<'a>(o: &'a Outcome, key: &str) -> &'a str {
    o.params
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("parameter {key} not echoed"))
}

/// The result line parses, and its metrics are exactly `expected`, each
/// with its unit.
fn assert_emits(o: &Outcome, traced: bool, expected: &[(String, String)]) {
    let line = Parser::parse(&result_line(o, traced));
    let keys: Vec<&str> = line.obj().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line.get("correct"), &Json::Bool(true), "{:?}", o.failures);
    assert!(line.get("attempted").num() >= 1.0);
    assert_eq!(line.get("failed").num(), 0.0);
    let metrics = line.get("metrics").obj();
    assert_eq!(metrics.len(), expected.len());
    for (name, unit) in expected {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} not emitted"));
        assert_eq!(m.get("unit").str(), unit, "unit of {name}");
        let v = m.get("value").num();
        assert!(v.is_finite(), "{name} = {v}");
        if !traced {
            assert!(v > 0.0, "end-to-end metric {name} = {v} must be positive");
        }
    }
}

fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let json = benchmark_json();
    let names: Vec<&str> = json
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let entries = json.get(section).arr();
        assert_eq!(entries.len(), table.len(), "{section} length");
        for (entry, def) in entries.iter().zip(table) {
            assert_eq!(entry.get("name").str(), def.name);
            assert_eq!(entry.get("unit").str(), def.unit, "unit of {}", def.name);
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                entry.get("better").str(),
                better,
                "direction of {}",
                def.name
            );
        }
    }
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        assert_emits(&quick(w, 1, false), false, &end_to_end);
        assert_emits(&quick(w, 1, true), true, &per_layer);
    }
}

#[test]
fn build_central_stages_account_for_run_s() {
    // Many repetitions, so medians hold while other tests share the CPU.
    let o = quick_for(Workload::BuildCentral, 1, true, 3.0);
    assert!(o.failures.is_empty(), "{:?}", o.failures);
    let r = &o.recorder;
    let get = |name: &str| r.get(name).unwrap_or_else(|| panic!("{name} missing"));
    let run_s = get("trace.run_s");
    let stages: f64 = [
        "cds.cluster_s",
        "cds.connectors_s",
        "cds.assemble_s",
        "topology.ldel1_s",
        "topology.planarize_s",
    ]
    .iter()
    .map(|s| get(s))
    .sum();
    let other = get("core.build_other_s");
    assert!(run_s > 0.0 && stages > 0.0);
    // Medians of per-repetition values: stages + other equals run_s up
    // to the median's choice of repetition.
    assert!(
        (stages + other - run_s).abs() <= 0.25 * run_s,
        "stages {stages} + other {other} vs run_s {run_s}"
    );
    // The replayed stages cover the build, not more than it.
    assert!(
        other > -0.25 * run_s,
        "replay exceeds the build: other = {other}"
    );
    let spans = o
        .tracer
        .as_ref()
        .expect("traced run keeps its spans")
        .summary();
    assert!(spans.contains_key("core.build") && spans.contains_key("cds.connectors"));
}

#[test]
fn a_second_seed_gives_different_inputs_that_pass_every_check() {
    for w in Workload::ALL {
        let a = quick(w, 1, false);
        let b = quick(w, 2, false);
        assert!(b.failures.is_empty(), "{}: {:?}", w.name(), b.failures);
        assert_ne!(
            param(&a, "input_digest"),
            param(&b, "input_digest"),
            "{}: seed 2 must change the inputs",
            w.name()
        );
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    for w in Workload::ALL {
        let a = quick(w, 7, false);
        let b = quick(w, 7, false);
        assert_eq!(
            param(&a, "input_digest"),
            param(&b, "input_digest"),
            "{}",
            w.name()
        );
    }
}
