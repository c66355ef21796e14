//! Runs the built binary at `--scale smoke` on every workload, in both
//! modes, and checks that what it emits is what `BENCHMARK.json`
//! promises: the workload names, and for each mode exactly the listed
//! metric names with their units.

use std::path::Path;
use std::process::Command;

use fedl_json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root");
    Value::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list of rows")
        .iter()
        .map(|row| {
            let field = |k: &str| row.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn smoke_run_emits_exactly_the_names_in_benchmark_json() {
    let file = benchmark_json();
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let workloads = names_and_units(file.get("workloads").expect("workloads"));
    assert_eq!(workloads.len(), 5);
    for (workload, _) in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])
                .args(["--scale", "smoke", "--out-dir"])
                .arg(&out_dir)
                .output()
                .expect("the benchmark binary starts");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(output.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            let result = Value::parse(last).expect("the last line is JSON");
            let Value::Obj(fields) = &result else { panic!("the result is an object") };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_i64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_i64).unwrap_or(0) >= 1);
            let Some(Value::Obj(metrics)) = result.get("metrics") else { panic!("metrics object") };
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name} has a value");
                    (name.clone(), m.get("unit").and_then(Value::as_str).unwrap_or("").to_string())
                })
                .collect();
            assert_eq!(emitted, names_and_units(file.get(key).expect(key)), "{workload} {key}");
        }
        assert!(out_dir.join(format!("trace_{workload}.json")).exists(), "{workload} trace file");
    }
}
