//! The benchmark's statistics helpers against hand-computed values, and
//! its JSON reader against its own writer.

use llva_perfbench::json;
use llva_perfbench::stats::{median, percentile, quartiles, relative_spread};
use llva_perfbench::Report;

#[test]
fn nearest_rank_percentiles() {
    let v = [15.0, 20.0, 35.0, 40.0, 50.0];
    assert_eq!(percentile(&v, 30.0), Some(20.0));
    assert_eq!(percentile(&v, 40.0), Some(20.0));
    assert_eq!(percentile(&v, 50.0), Some(35.0));
    assert_eq!(percentile(&v, 100.0), Some(50.0));
    // order of the input does not matter
    assert_eq!(
        percentile(&[50.0, 15.0, 40.0, 35.0, 20.0], 50.0),
        Some(35.0)
    );
    let tens: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&tens, 90.0), Some(9.0));
    assert_eq!(percentile(&tens, 91.0), Some(10.0));
    assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn medians() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let tens: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&tens), Some((2.75, 8.25)));
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), Some((1.25, 3.75)));
    // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
    assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
    // statistics.quantiles([5, 1, 9, 7, 3], n=4) == [2.0, 5.0, 8.0]
    assert_eq!(quartiles(&[5.0, 1.0, 9.0, 7.0, 3.0]), Some((2.0, 8.0)));
    assert_eq!(quartiles(&[1.0]), None);
    // (8.25 - 2.75) / 5.5
    assert_eq!(relative_spread(&tens), Some(1.0));
}

#[test]
fn result_line_round_trips() {
    let mut r = Report::new();
    r.attempt();
    r.metric("call_p50_ms", 1.203_412_345_678_9, "ms");
    r.metric("sim_cycles", 363_152_464.0, "cycles");
    let text = r.render();
    let last = text.lines().last().expect("a result line");
    let v = json::parse(last).expect("the result line is JSON");
    assert_eq!(v.get("correct"), Some(&json::Json::Bool(true)));
    assert_eq!(v.get("attempted").and_then(json::Json::as_f64), Some(1.0));
    let m = v
        .get("metrics")
        .and_then(|m| m.get("call_p50_ms"))
        .expect("metric");
    assert_eq!(
        m.get("value").and_then(json::Json::as_f64),
        Some(1.203_412_345_678_9)
    );
    assert_eq!(m.get("unit").and_then(json::Json::as_str), Some("ms"));
    let keys: Vec<&String> = v.as_obj().expect("object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
}

#[test]
fn a_failed_check_makes_the_run_incorrect() {
    let mut r = Report::new();
    r.attempt();
    r.attempt();
    r.fail("wrong value".to_string());
    assert!(!r.correct());
    assert!(r
        .render()
        .lines()
        .last()
        .expect("line")
        .starts_with("{\"correct\": false"));
}
