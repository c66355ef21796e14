//! The columnar population and realization against the scalar oracle
//! they replaced (`oracle/mod.rs`): same population, same draws, bit
//! for bit. And the columnar latency arithmetic against the
//! row-oriented statement of §3.2 in `fedl_net::LatencyModel`.

mod oracle;

use fedl_net::{ChannelModel, ComputeProfile, LatencyModel};
use fedl_sim::{nominal_latency, nominal_split, ClientColumns, EnvConfig};
use oracle::ClientProfile;

fn setup(n: usize, seed: u64) -> (EnvConfig, ChannelModel) {
    (EnvConfig::small(n, seed), ChannelModel::default())
}

fn profiles(config: &EnvConfig, channel: &ChannelModel) -> Vec<ClientProfile> {
    let pools = (0..config.num_clients).map(|k| vec![k]).collect();
    ClientProfile::build_population(config, channel, pools)
}

#[test]
fn columns_match_profile_population() {
    for clients in [1, 100, 10_000] {
        for seed in [11, 12, 0x5EED] {
            let (config, channel) = setup(clients, seed);
            let cols = ClientColumns::build(&config, &channel);
            let profiles = profiles(&config, &channel);
            assert_eq!(cols.len(), profiles.len());
            for (k, p) in profiles.iter().enumerate() {
                let at = format!("M = {clients}, seed {seed}, client {k}");
                assert_eq!(cols.distance_m[k].to_bits(), p.distance_m.to_bits(), "{at}");
                assert_eq!(cols.path_loss_db[k].to_bits(), p.path_loss_db.to_bits(), "{at}");
                assert_eq!(cols.base_gain[k].to_bits(), p.base_gain.to_bits(), "{at}");
                let cycles = p.compute.cycles_per_bit;
                assert_eq!(cols.cycles_per_bit[k].to_bits(), cycles.to_bits(), "{at}");
                assert_eq!(cols.cpu_hz[k].to_bits(), p.compute.cpu_hz.to_bits(), "{at}");
                assert_eq!(cols.lambda[k].to_bits(), p.stream.lambda().to_bits(), "{at}");
                assert_eq!(cols.seed[k], p.seed, "{at}");
            }
            assert_eq!(cols.tx_power_dbm.to_bits(), profiles[0].tx_power_dbm.to_bits());
        }
    }
}

#[test]
fn epoch_columns_match_scalar_views() {
    let (config, channel) = setup(60, 12);
    let cols = ClientColumns::build(&config, &channel);
    let profiles = profiles(&config, &channel);
    for epoch in [0usize, 1, 7, 33] {
        let ec = cols.epoch_columns(epoch, &config, &channel);
        let views = ec.views(&cols);
        for p in &profiles {
            let v = p.epoch_view(epoch, &config, &channel);
            let w = &views[p.id];
            assert_eq!(v.available, w.available);
            assert_eq!(v.cost.to_bits(), w.cost.to_bits());
            assert_eq!(v.radio.gain.to_bits(), w.radio.gain.to_bits());
            assert_eq!(v.data_volume, w.data_volume);
        }
    }
}

#[test]
fn nominal_latency_matches_the_row_oriented_model() {
    let (config, channel) = setup(40, 23);
    let cols = ClientColumns::build(&config, &channel);
    let latency = LatencyModel::paper_defaults(config.upload_bits, 64.0);
    let ec = cols.epoch_columns(2, &config, &channel);
    let ids = ec.available_ids();
    let fast = nominal_latency(&cols, &ec, &latency, 4, &ids);
    let split = nominal_split(&cols, &ec, &latency, 4, &ids);
    let share_model = LatencyModel { bandwidth_hz: latency.bandwidth_hz / 4.0, ..latency };
    for (slot, &k) in ids.iter().enumerate() {
        let radio = ec.radio(&cols, k);
        let compute =
            ComputeProfile { cycles_per_bit: cols.cycles_per_bit[k], cpu_hz: cols.cpu_hz[k] };
        let samples = [ec.data_volume[k] as usize];
        let want = share_model.per_iteration_split(&[&radio], &[&compute], &samples)[0];
        assert_eq!(fast[slot].to_bits(), want.total_secs().to_bits(), "client {k}");
        assert_eq!(split[slot], want, "client {k}");
    }
}
