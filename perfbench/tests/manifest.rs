//! The metric lists the runs print match `BENCHMARK.json`, and a report
//! always carries exactly its list.

use llva_perfbench::json::{self, Json};
use llva_perfbench::{Report, END_TO_END, PER_LAYER};

fn manifest_list(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let manifest: Json = json::parse(&text).expect("BENCHMARK.json parses");
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
        .collect()
}

#[test]
fn metric_lists_match_the_manifest() {
    assert_eq!(owned(&END_TO_END), manifest_list("end_to_end"));
    assert_eq!(owned(PER_LAYER), manifest_list("per_layer"));
}

#[test]
fn a_traced_report_prints_every_per_layer_metric() {
    let mut r = Report::new();
    r.attempt();
    r.metric("remainder_ms", 1.5, "ms");
    r.finish(true);
    assert!(r.correct());
    let names: Vec<&str> = r.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    let wanted: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, wanted);
    let zeros = r.metrics.iter().filter(|(_, v, _)| *v == 0.0).count();
    assert_eq!(zeros, PER_LAYER.len() - 1);
}

#[test]
fn an_end_to_end_report_lacking_a_metric_is_broken() {
    let mut r = Report::new();
    r.attempt();
    for (name, unit) in &END_TO_END[1..] {
        r.metric(name, 1.0, unit);
    }
    r.metric("setup_s", 0.5, "s");
    r.finish(false);
    assert!(r.correct());
    assert_eq!(r.metrics[0].0, "setup_s");

    let mut short = Report::new();
    short.attempt();
    short.metric("setup_s", 0.5, "s");
    short.finish(false);
    assert!(!short.correct());

    let mut extra = Report::new();
    extra.attempt();
    for (name, unit) in &END_TO_END {
        extra.metric(name, 1.0, unit);
    }
    extra.metric("call_p50_ms", 1.0, "ms");
    extra.finish(false);
    assert!(!extra.correct());
}
