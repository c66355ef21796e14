//! The serialized text every fingerprint and result-cache key is hashed
//! from, byte for byte: `EnvConfig`'s canonical JSON, each paper panel's
//! `ScenarioConfig::canonical_json` and the default service deployment's
//! `ServeConfig::fingerprint`. Existing checkpoints and cached cells are
//! keyed by exactly this text, so it must not move; the `availability`
//! and `time_varying_channel` keys, which no `EnvConfig` field sets, stay
//! in it as the literals they have always held.

use fedl_bench::experiments::FIGURE_SEED;
use fedl_bench::profile::Profile;
use fedl_data::synth::TaskKind;
use fedl_json::ToJson;
use fedl_serve::cli::{scenario, Args};
use fedl_sim::{EnvConfig, ScaleTier};

/// `EnvConfig::paper_scale(0)`.
const ENV_PAPER_SCALE_0: &str = r#"{"num_clients":100,"cell_radius_m":500.0,"p_available":0.8,"availability":{"kind":"bernoulli"},"p_dropout":0.0,"cost_range":[0.1,12.0],"lambda_range":[20.0,60.0],"tx_power_dbm":10.0,"cpu_hz_range":[500000000.0,2000000000.0],"cycles_per_bit_range":[10.0,30.0],"upload_bits":1000000.0,"time_varying_channel":true,"aggregation":"available","optimal_bandwidth":false,"seed":0}"#;
/// `EnvConfig::scale(ScaleTier::Tier100k, 7)`.
const ENV_TIER_100K_7: &str = r#"{"num_clients":100000,"cell_radius_m":500.0,"p_available":0.8,"availability":{"kind":"bernoulli"},"p_dropout":0.0,"cost_range":[0.1,12.0],"lambda_range":[8.0,24.0],"tx_power_dbm":10.0,"cpu_hz_range":[500000000.0,2000000000.0],"cycles_per_bit_range":[10.0,30.0],"upload_bits":1000000.0,"time_varying_channel":true,"aggregation":"available","optimal_bandwidth":false,"seed":7}"#;
/// The Fig. 2–3 panels at paper scale: `Profile::Paper.scenario(task,
/// iid, figure_budget, FIGURE_SEED)`.
const FMNIST_IID: &str = r#"{"env":{"num_clients":100,"cell_radius_m":500.0,"p_available":0.8,"availability":{"kind":"bernoulli"},"p_dropout":0.0,"cost_range":[0.1,12.0],"lambda_range":[8.0,24.0],"tx_power_dbm":10.0,"cpu_hz_range":[500000000.0,2000000000.0],"cycles_per_bit_range":[10.0,30.0],"upload_bits":1000000.0,"time_varying_channel":true,"aggregation":"available","optimal_bandwidth":false,"seed":20220829},"task":"fmnist-like","dim_override":64,"train_size":6000,"test_size":1000,"partition":{"kind":"iid"},"model":{"kind":"mlp","hidden":[64],"l2":0.0005000000237487257},"dane":{"sigma1":0.10000000149011612,"sigma2":1.0,"lr":0.11999999731779099,"local_steps":6,"batch":32,"clip":10.0,"momentum":0.0},"budget":30000.0,"min_participants":10,"fedl":{"theta":1.0,"rho_max":10.0,"step_scale":1.0,"dual_scale":10.0,"fixed_steps":null,"mean_cost_estimate":6.05,"independent_rounding":false,"fairness_weight":0.0},"max_epochs":500}"#;
const FMNIST_NON_IID: &str = r#"{"env":{"num_clients":100,"cell_radius_m":500.0,"p_available":0.8,"availability":{"kind":"bernoulli"},"p_dropout":0.0,"cost_range":[0.1,12.0],"lambda_range":[8.0,24.0],"tx_power_dbm":10.0,"cpu_hz_range":[500000000.0,2000000000.0],"cycles_per_bit_range":[10.0,30.0],"upload_bits":1000000.0,"time_varying_channel":true,"aggregation":"available","optimal_bandwidth":false,"seed":20220829},"task":"fmnist-like","dim_override":64,"train_size":6000,"test_size":1000,"partition":{"kind":"principal-mix","principal_frac":0.8},"model":{"kind":"mlp","hidden":[64],"l2":0.0005000000237487257},"dane":{"sigma1":0.10000000149011612,"sigma2":1.0,"lr":0.11999999731779099,"local_steps":6,"batch":32,"clip":10.0,"momentum":0.0},"budget":30000.0,"min_participants":10,"fedl":{"theta":1.0,"rho_max":10.0,"step_scale":1.0,"dual_scale":10.0,"fixed_steps":null,"mean_cost_estimate":6.05,"independent_rounding":false,"fairness_weight":0.0},"max_epochs":500}"#;
const CIFAR_IID: &str = r#"{"env":{"num_clients":100,"cell_radius_m":500.0,"p_available":0.8,"availability":{"kind":"bernoulli"},"p_dropout":0.0,"cost_range":[0.1,12.0],"lambda_range":[8.0,24.0],"tx_power_dbm":10.0,"cpu_hz_range":[500000000.0,2000000000.0],"cycles_per_bit_range":[10.0,30.0],"upload_bits":1000000.0,"time_varying_channel":true,"aggregation":"available","optimal_bandwidth":false,"seed":20220829},"task":"cifar-like","dim_override":128,"train_size":6000,"test_size":1000,"partition":{"kind":"iid"},"model":{"kind":"mlp","hidden":[96],"l2":0.0005000000237487257},"dane":{"sigma1":0.10000000149011612,"sigma2":1.0,"lr":0.11999999731779099,"local_steps":6,"batch":32,"clip":10.0,"momentum":0.0},"budget":30000.0,"min_participants":10,"fedl":{"theta":1.6,"rho_max":10.0,"step_scale":1.0,"dual_scale":10.0,"fixed_steps":null,"mean_cost_estimate":6.05,"independent_rounding":false,"fairness_weight":0.0},"max_epochs":500}"#;
const CIFAR_NON_IID: &str = r#"{"env":{"num_clients":100,"cell_radius_m":500.0,"p_available":0.8,"availability":{"kind":"bernoulli"},"p_dropout":0.0,"cost_range":[0.1,12.0],"lambda_range":[8.0,24.0],"tx_power_dbm":10.0,"cpu_hz_range":[500000000.0,2000000000.0],"cycles_per_bit_range":[10.0,30.0],"upload_bits":1000000.0,"time_varying_channel":true,"aggregation":"available","optimal_bandwidth":false,"seed":20220829},"task":"cifar-like","dim_override":128,"train_size":6000,"test_size":1000,"partition":{"kind":"principal-mix","principal_frac":0.8},"model":{"kind":"mlp","hidden":[96],"l2":0.0005000000237487257},"dane":{"sigma1":0.10000000149011612,"sigma2":1.0,"lr":0.11999999731779099,"local_steps":6,"batch":32,"clip":10.0,"momentum":0.0},"budget":30000.0,"min_participants":10,"fedl":{"theta":1.6,"rho_max":10.0,"step_scale":1.0,"dual_scale":10.0,"fixed_steps":null,"mean_cost_estimate":6.05,"independent_rounding":false,"fairness_weight":0.0},"max_epochs":500}"#;
/// The fingerprint of the deployment `fedl-serve` runs with no flags.
const DEFAULT_SERVE_FINGERPRINT: &str = "6a1fd71acfdfcbc1190c141ec9d41444";

fn assert_golden(name: &str, actual: &str, expected: &str) {
    assert!(actual == expected, "{name} moved.\n--- expected\n{expected}\n--- actual\n{actual}");
}

#[test]
fn env_config_json_is_pinned() {
    let text = |config: EnvConfig| config.to_json_value().to_json();
    assert_golden("paper_scale(0)", &text(EnvConfig::paper_scale(0)), ENV_PAPER_SCALE_0);
    let tier = text(EnvConfig::scale(ScaleTier::Tier100k, 7));
    assert_golden("scale(Tier100k, 7)", &tier, ENV_TIER_100K_7);
}

#[test]
fn paper_panel_scenarios_are_pinned() {
    let profile = Profile::Paper;
    let panels = [
        (TaskKind::FmnistLike, true, FMNIST_IID),
        (TaskKind::FmnistLike, false, FMNIST_NON_IID),
        (TaskKind::CifarLike, true, CIFAR_IID),
        (TaskKind::CifarLike, false, CIFAR_NON_IID),
    ];
    for (task, iid, expected) in panels {
        let scenario = profile.scenario(task, iid, profile.figure_budget(), FIGURE_SEED);
        assert_golden(&format!("{task:?}, iid {iid}"), &scenario.canonical_json(), expected);
    }
}

#[test]
fn default_serve_fingerprint_is_pinned() {
    let config = scenario(&Args::default()).expect("the defaults are a deployment");
    assert_eq!(config.fingerprint(), DEFAULT_SERVE_FINGERPRINT);
}
