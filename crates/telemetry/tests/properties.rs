//! Property-style checks for the telemetry crate against a seeded
//! reference: histogram quantiles vs exact sample quantiles, span
//! tree structure, and the JSONL round trip through `fedl-json`.

use fedl_linalg::rng::{Distribution, Exponential, Normal, Rng, Xoshiro256pp};
use fedl_telemetry::{RunLog, Telemetry};

/// Exact quantile of an ascending-sorted sample (nearest-rank).
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

#[test]
fn histogram_quantiles_track_seeded_reference() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5eed);
    let tel = Telemetry::with_sink(Box::new(fedl_telemetry::MemorySink::new().0));
    let hist = tel.histogram("latency");

    // Long-tailed sample, like per-epoch latencies: exp(1) scaled into
    // a milliseconds-to-minutes range.
    let exp = Exponential::new(1.0);
    let mut samples: Vec<f64> = (0..20_000).map(|_| 0.002 + 3.0 * exp.sample(&mut rng)).collect();
    for &s in &samples {
        hist.record(s);
    }
    samples.sort_by(|a, b| a.total_cmp(b));

    assert_eq!(hist.count(), samples.len() as u64);
    let sum: f64 = samples.iter().sum();
    assert!((hist.sum() - sum).abs() < 1e-6 * sum.abs());

    // The log-bucketed layout guarantees ~6% relative error per bucket;
    // allow 7% slack.
    for q in [0.10, 0.50, 0.90, 0.99] {
        let expected = exact_quantile(&samples, q);
        let got = hist.quantile(q).unwrap();
        let rel = (got - expected).abs() / expected;
        assert!(
            rel < 0.07,
            "q={q}: histogram said {got}, reference said {expected} (rel err {rel:.4})"
        );
    }
    // Extremes are clamped to observed bounds, so they are exact.
    assert_eq!(hist.quantile(0.0).unwrap(), samples[0]);
    assert_eq!(hist.quantile(1.0).unwrap(), *samples.last().unwrap());
}

/// The documented accuracy contract: p50/p90/p99 within ~6 % of the
/// exact sample quantiles (7 % asserted, leaving slack for the bucket
/// boundary), checked across three seeded distributions with very
/// different shapes — flat, long-tailed, and multiplicative-spread.
#[test]
#[allow(clippy::type_complexity)]
fn histogram_quantile_accuracy_across_distributions() {
    let cases: [(&str, Box<dyn Fn(&mut Xoshiro256pp) -> f64>); 3] = [
        // Flat: uniform seconds, the shape of evaluate-phase spans.
        ("uniform", Box::new(|rng: &mut Xoshiro256pp| rng.gen_range(0.05..2.0))),
        // Long tail: exponential, the shape of epoch latencies.
        (
            "exponential",
            Box::new(|rng: &mut Xoshiro256pp| 0.001 + Exponential::new(0.5).sample(rng)),
        ),
        // Multiplicative spread: log-normal, the shape of per-client
        // compute times across heterogeneous hardware.
        ("log-normal", Box::new(|rng: &mut Xoshiro256pp| Normal::new(-1.0, 0.8).sample(rng).exp())),
    ];
    for (seed, (name, draw)) in cases.into_iter().enumerate() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xACC0 + seed as u64);
        let tel = Telemetry::with_sink(Box::new(fedl_telemetry::MemorySink::new().0));
        let hist = tel.histogram("h");
        let mut samples: Vec<f64> = (0..20_000).map(|_| draw(&mut rng)).collect();
        for &s in &samples {
            hist.record(s);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        for q in [0.50, 0.90, 0.99] {
            let expected = exact_quantile(&samples, q);
            let got = hist.quantile(q).unwrap();
            let rel = (got - expected).abs() / expected;
            assert!(
                rel < 0.07,
                "{name} q={q}: histogram said {got}, reference said {expected} \
                 (rel err {rel:.4})"
            );
        }
    }
}

#[test]
fn histogram_quantiles_are_monotone_in_q() {
    let mut rng = Xoshiro256pp::seed_from_u64(42);
    let tel = Telemetry::with_sink(Box::new(fedl_telemetry::MemorySink::new().0));
    let hist = tel.histogram("h");
    for _ in 0..5_000 {
        hist.record(rng.gen_range(1e-6..1e3));
    }
    let qs: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
    let values: Vec<f64> = qs.iter().map(|&q| hist.quantile(q).unwrap()).collect();
    for pair in values.windows(2) {
        assert!(pair[0] <= pair[1], "quantiles must be monotone: {values:?}");
    }
}

#[test]
fn span_tree_and_events_round_trip_as_jsonl() {
    let (tel, handle) = Telemetry::in_memory();
    tel.emit(
        "run_start",
        vec![("seed", fedl_json::Value::Int(7)), ("budget", fedl_json::Value::Float(200.0))],
    );
    for _epoch in 0..3 {
        let epoch = tel.span("epoch");
        {
            let _s = epoch.child("select");
        }
        {
            let train = epoch.child("train");
            let _r = train.child("round");
        }
        tel.counter("epochs").incr();
    }
    tel.emit_metrics();
    tel.emit("run_end", vec![("epochs", fedl_json::Value::Int(3))]);

    // Round trip: serialised lines parse back through `fedl-json` and
    // RunLog, and the report layer sees the same structure the live
    // handles saw.
    let events = handle.events().unwrap();
    let log = RunLog::parse(&handle.lines().join("\n"));
    assert!(log.missing_kinds(&["run_start", "span", "metrics", "run_end"]).is_empty());

    let spans: Vec<&fedl_json::Value> =
        events.iter().filter(|e| e.get("kind").unwrap().as_str() == Some("span")).collect();
    assert_eq!(log.spans.len(), spans.len());
    assert_eq!(spans.len(), 12, "3 epochs x (select + round + train + epoch)");
    for span in &spans {
        let name = span.get("name").unwrap().as_str().unwrap();
        let parent = span.get("parent").unwrap().as_str();
        let depth = span.get("depth").unwrap().as_i64().unwrap();
        match name {
            "epoch" => {
                assert!(span.get("parent").unwrap().is_null());
                assert_eq!(depth, 0);
            }
            "select" | "train" => {
                assert_eq!(parent, Some("epoch"));
                assert_eq!(depth, 1);
            }
            "round" => {
                assert_eq!(parent, Some("train"));
                assert_eq!(depth, 2);
            }
            other => panic!("unexpected span {other}"),
        }
        assert!(span.get("secs").unwrap().as_f64().unwrap() >= 0.0);
    }
    // Id linkage agrees with name linkage: every child's parent_id is
    // the span_id of a span carrying the claimed parent name, and all
    // spans share one trace id.
    let id_to_name: std::collections::HashMap<&str, &str> = spans
        .iter()
        .map(|s| {
            (s.get("span_id").unwrap().as_str().unwrap(), s.get("name").unwrap().as_str().unwrap())
        })
        .collect();
    let trace_ids: std::collections::HashSet<&str> =
        spans.iter().map(|s| s.get("trace_id").unwrap().as_str().unwrap()).collect();
    assert_eq!(trace_ids.len(), 1, "one process, one trace");
    for span in &spans {
        if let Some(parent_id) = span.get("parent_id").unwrap().as_str() {
            let claimed = span.get("parent").unwrap().as_str().unwrap();
            assert_eq!(id_to_name.get(parent_id).copied(), Some(claimed));
        }
    }

    let stats = log.phase_stats();
    let epoch = stats.iter().find(|s| s.name == "epoch").unwrap();
    assert_eq!(epoch.count, 3);
    assert!(epoch.p50 <= epoch.p99 && epoch.p99 <= epoch.max);

    // The metrics snapshot in the log matches the live registry.
    let metrics =
        events.iter().find(|e| e.get("kind").unwrap().as_str() == Some("metrics")).unwrap();
    let registry = metrics.get("registry").unwrap();
    assert_eq!(registry.get("counters").unwrap().get("epochs").unwrap().as_i64(), Some(3));
    assert_eq!(
        registry
            .get("histograms")
            .unwrap()
            .get("span.epoch")
            .unwrap()
            .get("count")
            .unwrap()
            .as_i64(),
        Some(3)
    );
}

#[test]
fn sequence_numbers_order_the_log() {
    let (tel, handle) = Telemetry::in_memory();
    for _ in 0..10 {
        tel.emit("tick", vec![]);
    }
    let events = handle.events().unwrap();
    let seqs: Vec<i64> = events.iter().map(|e| e.get("seq").unwrap().as_i64().unwrap()).collect();
    assert_eq!(seqs, (0..10).collect::<Vec<_>>());
}
