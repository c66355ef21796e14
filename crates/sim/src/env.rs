//! [`EdgeEnvironment`] — the facade the experiment runner drives.
//!
//! One environment = one federation: a population of clients over a
//! shared wireless cell, a global train/test dataset pair partitioned
//! across the clients, and the server's global model. The environment
//! realizes the paper's stochastic processes deterministically per seed,
//! so two policies evaluated on the same seed face *identical* client
//! availability, costs, data arrivals, and channels.

use std::time::Instant;

use fedl_data::stream::OnlineStream;
use fedl_data::{Dataset, Partition};
use fedl_json::{ToJson, Value};
use fedl_linalg::{ops, Matrix};
use fedl_ml::dane::DaneConfig;
use fedl_ml::model::{Model, ModelScratch};
use fedl_ml::{loss, metrics};
use fedl_net::{ClientRadio, LatencyModel};
use fedl_telemetry::Telemetry;

use crate::columns::{ClientColumns, EpochClientView, EpochColumns};
use crate::config::EnvConfig;
use crate::population::{nominal_latency, nominal_split, Population};
use crate::server::FederatedServer;

/// Outcome of running one epoch (everything FedL's online update needs,
/// plus bookkeeping for the figures).
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch index `t`.
    pub epoch: usize,
    /// Selected client ids.
    pub cohort: Vec<usize>,
    /// Iterations executed (`l_t`).
    pub iterations: usize,
    /// Epoch wall-clock latency `d(E_t)` in simulated seconds
    /// (slowest cohort client × iterations).
    pub latency_secs: f64,
    /// Per-iteration latency of each cohort client, same order as
    /// `cohort`.
    pub per_client_iter_latency: Vec<f64>,
    /// Total rental cost charged this epoch.
    pub cost: f64,
    /// Max measured local accuracy `η̂_{t,k}` per cohort client over the
    /// epoch's iterations (eq. (1) takes the max over iterations).
    pub eta_hats: Vec<f32>,
    /// Global loss `F_t(w_t^{l_t})` over *all available* clients' epoch
    /// data (constraint (3d) is stated on all clients).
    pub global_loss_all: f64,
    /// Loss over the selected cohort only (`F̃_t`).
    pub global_loss_selected: f64,
    /// `J·d_k` per cohort client from the final iteration — the
    /// first-order coefficients of the `h_t⁰` linearization.
    pub grad_dot_delta: Vec<f32>,
    /// Each cohort client's local loss at the last broadcast model
    /// (Pow-d's selection signal).
    pub local_losses: Vec<f32>,
    /// Selected clients that failed mid-epoch (battery death, drop-off;
    /// see [`crate::config::EnvConfig::p_dropout`]). Their rent was
    /// paid but they contributed nothing and produced no observations;
    /// `cohort` holds only the survivors.
    pub failed: Vec<usize>,
}

/// A simulated federated edge-learning deployment: the [`Population`],
/// each client's online data stream over the partitioned training set,
/// and the server holding the global model.
pub struct EdgeEnvironment {
    population: Population,
    /// Client `k`'s data source (partition pool + Poisson arrivals).
    streams: Vec<OnlineStream>,
    train: Dataset,
    test: Dataset,
    /// `test.one_hot_labels()`, built once: the test set never changes.
    test_targets: Matrix,
    server: FederatedServer,
    eval: ClientEvaluation,
    telemetry: Telemetry,
}

/// Rows per evaluation forward. The walk gathers consecutive clients'
/// working sets into chunks of at most this many rows and runs one
/// forward per chunk instead of one per client (each row's logits are
/// the same bits in a batch of any size); the test set is scored in
/// chunks of it too, so no forward workspace outgrows it.
const EVAL_CHUNK_ROWS: usize = 256;

/// The per-epoch walk that scores the epoch-final model on every
/// available client's working set (§3.1's `F_t`, constraint (3d)): the
/// available clients cut into one contiguous run per thread of the team,
/// each run scored in [`EVAL_CHUNK_ROWS`]-row forwards through that
/// thread's own reused workspace, and each walked client's loss and row
/// count recorded by id. Warm, a one-thread walk allocates nothing.
#[derive(Default)]
struct ClientEvaluation {
    /// The clients walked this epoch, ascending.
    ids: Vec<usize>,
    /// One workspace per thread of the team.
    teams: Vec<EvalWorkspace>,
    /// Indexed by client id; only the entries of the clients walked this
    /// epoch are current.
    losses: Vec<f32>,
    rows: Vec<usize>,
    /// `0..|test|`, the test set's rows as one entry.
    test_rows: Vec<usize>,
}

/// One thread's share of the walk: a client's working set, and the
/// chunk its rows are scored in.
#[derive(Default)]
struct EvalWorkspace {
    arrivals: Vec<usize>,
    chunk: Chunk,
}

/// Rows gathered for one forward, the workspaces it runs in, and the
/// entries scored so far: `(key, cross-entropy sum, rows, correct)` —
/// each entry's rows folded in order across the chunks they fall in.
#[derive(Default)]
struct Chunk {
    /// The chunk's rows, entry after entry.
    idx: Vec<usize>,
    /// `(entry, rows)` of each entry's piece of the chunk.
    pieces: Vec<(usize, usize)>,
    x: Matrix,
    y: Matrix,
    ws: ModelScratch,
    lse: Vec<f32>,
    block: Matrix,
    scored: Vec<(usize, f32, usize, usize)>,
}

impl Chunk {
    /// Scores `rows` of `source` as the entry `key`, running a forward
    /// whenever the chunk fills.
    fn push(&mut self, model: &dyn Model, source: &Dataset, key: usize, rows: &[usize]) {
        self.scored.push((key, 0.0, rows.len(), 0));
        let mut rest = rows;
        while !rest.is_empty() {
            let take = (EVAL_CHUNK_ROWS - self.idx.len()).min(rest.len());
            self.idx.extend_from_slice(&rest[..take]);
            self.pieces.push((self.scored.len() - 1, take));
            rest = &rest[take..];
            if self.idx.len() == EVAL_CHUNK_ROWS {
                self.flush(model, source);
            }
        }
    }

    /// One forward over the chunk; each piece's cross-entropy folded onto
    /// its entry's sum and its correct predictions counted. Empties the
    /// chunk.
    fn flush(&mut self, model: &dyn Model, source: &Dataset) {
        if self.idx.is_empty() {
            return;
        }
        source.gather_into(&self.idx, &mut self.x, &mut self.y);
        model.forward_scratch(&self.x, &mut self.ws);
        let (logits, cols) = (self.ws.logits(), self.y.cols());
        let mut at = 0;
        for &(entry, rows) in &self.pieces {
            let (_, sum, _, correct) = &mut self.scored[entry];
            let span = at * cols..(at + rows) * cols;
            let (x, t) = (&logits.as_slice()[span.clone()], &self.y.as_slice()[span]);
            *sum = loss::cross_entropy_fold(*sum, x, t, cols, &mut self.lse, &mut self.block);
            let labels = self.idx[at..at + rows].iter().map(|&i| source.labels[i]);
            *correct += logits
                .row_iter()
                .skip(at)
                .zip(labels)
                .filter(|&(l, y)| ops::argmax(l) == y)
                .count();
            at += rows;
        }
        self.idx.clear();
        self.pieces.clear();
    }

    /// Flushes the last chunk and returns the entries as `(key, loss,
    /// rows, correct)`: the sum over the rows plus the penalty, the bits
    /// of [`Model::loss_scratch`] on the entry's rows alone.
    fn finish(&mut self, model: &dyn Model, source: &Dataset) -> &[(usize, f32, usize, usize)] {
        self.flush(model, source);
        let penalty = model.penalty();
        for (_, loss, rows, _) in &mut self.scored {
            *loss = *loss / *rows as f32 + penalty;
        }
        &self.scored
    }
}

impl ClientEvaluation {
    /// Scores `model` on the epoch working set of each client in `ids`
    /// across the team. Each client's loss is a pure function of the
    /// model and its working set, so the recorded values are the same at
    /// any thread count.
    fn walk(
        &mut self,
        model: &dyn Model,
        streams: &[OnlineStream],
        train: &Dataset,
        epoch: usize,
        ids: impl Iterator<Item = usize>,
    ) {
        self.ids.clear();
        self.ids.extend(ids);
        let team = self.grow_team(fedl_linalg::par::team().min(self.ids.len()));
        // One workspace per piece; a team of one runs inline on the caller.
        let (ids, run) = (&self.ids[..], self.ids.len().div_ceil(team));
        fedl_linalg::par::par_chunks_grained(&mut self.teams[..team], 1, 1, |t, ws| {
            let EvalWorkspace { arrivals, chunk } = &mut ws[0];
            chunk.scored.clear();
            for &k in ids.iter().skip(t * run).take(run) {
                streams[k].arrivals_into(epoch, arrivals);
                chunk.push(model, train, k, arrivals);
            }
            chunk.finish(model, train);
        });
        for &(k, loss, rows, _) in self.teams[..team].iter().flat_map(|ws| &ws.chunk.scored) {
            (self.losses[k], self.rows[k]) = (loss, rows);
        }
    }

    /// Test-set `(accuracy, loss)` of `model`: the whole set as one entry
    /// of a chunk — the values of one forward over the set.
    fn test_metrics(&mut self, model: &dyn Model, test: &Dataset) -> (f64, f64) {
        if test.is_empty() {
            return (0.0, 0.0);
        }
        self.grow_team(1);
        let chunk = &mut self.teams[0].chunk;
        chunk.scored.clear();
        chunk.push(model, test, 0, &self.test_rows);
        let (_, loss, rows, correct) = chunk.finish(model, test)[0];
        (correct as f64 / rows as f64, loss as f64)
    }

    /// Grows the team's workspaces to `size` (at least one); returns the
    /// size.
    fn grow_team(&mut self, size: usize) -> usize {
        let size = size.max(1);
        if self.teams.len() < size {
            self.teams.resize_with(size, EvalWorkspace::default);
        }
        size
    }

    /// Data-volume-weighted loss `Σ θ_k F_k(w)` with `θ_k = D_k / Σ D`
    /// (paper §3.1, "Loss") over the scored clients `ids`, folded in the
    /// order given.
    fn weighted_loss(&self, ids: impl Iterator<Item = usize>) -> f64 {
        let mut total_samples = 0usize;
        let mut acc = 0.0f64;
        for k in ids {
            total_samples += self.rows[k];
            acc += self.losses[k] as f64 * self.rows[k] as f64;
        }
        acc / total_samples as f64
    }
}

/// One online stream per client over its partition pool, arriving at the
/// client's rate `λ_k` from the client's own seed.
///
/// # Panics
/// Panics if `pools.len()` differs from the population size or any pool
/// is empty (every paper client owns data).
fn build_streams(cols: &ClientColumns, pools: Vec<Vec<usize>>) -> Vec<OnlineStream> {
    assert_eq!(pools.len(), cols.len(), "one partition pool per client");
    pools
        .into_iter()
        .enumerate()
        .map(|(id, pool)| {
            assert!(!pool.is_empty(), "client {id} has an empty data pool");
            OnlineStream::new(pool, cols.lambda[id], cols.seed[id])
        })
        .collect()
}

/// Realized per-iteration latency `τ^loc + τ^cm` of each listed client
/// in `now`, the FDMA band shared among exactly those clients: equally,
/// or by the min-makespan allocator under `optimal_bandwidth`.
fn cohort_latency(
    config: &EnvConfig,
    cols: &ClientColumns,
    now: &EpochColumns,
    latency: &LatencyModel,
    ids: &[usize],
) -> Vec<f64> {
    if ids.is_empty() {
        return Vec::new();
    }
    if !config.optimal_bandwidth {
        return nominal_latency(cols, now, latency, ids.len(), ids);
    }
    let radios: Vec<ClientRadio> = ids.iter().map(|&k| now.radio(cols, k)).collect();
    let radios: Vec<&ClientRadio> = radios.iter().collect();
    // τ^loc from the one arithmetic; its equal-share τ^cm is what the
    // allocator replaces.
    let compute_secs: Vec<f64> = nominal_split(cols, now, latency, ids.len(), ids)
        .iter()
        .map(|split| split.compute_secs)
        .collect();
    let n0 = fedl_net::dbm_to_watts(latency.noise_dbm_per_hz);
    let alloc = fedl_net::min_makespan(
        &radios,
        &compute_secs,
        latency.upload_bits,
        latency.bandwidth_hz,
        n0,
    )
    .expect("non-empty cohort");
    radios
        .iter()
        .zip(&compute_secs)
        .zip(&alloc.bandwidth_hz)
        .map(|((r, &t), &b)| t + latency.upload_bits / fedl_net::rate_bps(r, b, n0))
        .collect()
}

impl EdgeEnvironment {
    /// Builds the environment: partitions `train` across
    /// `config.num_clients` clients, places them in the cell, and seats
    /// `model` on the server.
    pub fn new(
        config: EnvConfig,
        train: Dataset,
        test: Dataset,
        partition: Partition,
        model: Box<dyn Model>,
        dane: DaneConfig,
    ) -> Self {
        config.validate();
        assert_eq!(model.input_dim(), train.dim(), "model/dataset dimension mismatch");
        let pools = partition.split(&train, config.num_clients, config.seed);
        let server = FederatedServer::new(model, dane, config.seed);
        let latency = LatencyModel::paper_defaults(config.upload_bits, train.dim() as f64 * 8.0);
        let population = Population::new(config, latency);
        let streams = build_streams(population.columns(), pools);
        let eval = ClientEvaluation {
            losses: vec![0.0; streams.len()],
            rows: vec![0; streams.len()],
            test_rows: (0..test.len()).collect(),
            ..Default::default()
        };
        let test_targets = test.one_hot_labels();
        let telemetry = Telemetry::disabled();
        Self { population, streams, train, test, test_targets, server, eval, telemetry }
    }

    /// Routes the environment's (and its server's) observability through
    /// `telemetry`: every epoch opens a `run-epoch` span over its
    /// `materialize` / `train` / `evaluate-clients` phases, emits a `train`
    /// event, and records `sim.*` metrics; the server adds the
    /// iteration-level spans and `ml.*` metrics.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.server.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The environment configuration.
    pub fn config(&self) -> &EnvConfig {
        self.population.config()
    }

    /// Number of clients `M`.
    pub fn num_clients(&self) -> usize {
        self.population.num_clients()
    }

    /// Read access to the global model.
    pub fn model(&self) -> &dyn Model {
        self.server.model()
    }

    /// Read access to the server (checkpointing reads the model and the
    /// aggregated gradient `J` through this).
    pub fn server(&self) -> &FederatedServer {
        &self.server
    }

    /// Mutable access to the server (offline comparators roll back the
    /// model through this).
    pub fn server_mut(&mut self) -> &mut FederatedServer {
        &mut self.server
    }

    /// The client population: static columns, latency model, and the
    /// realized-epoch window [`Self::run_epoch`] reads.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The population, to [`Population::advance`] it — the runner builds
    /// each epoch's context from the same window the epoch then trains on.
    pub fn population_mut(&mut self) -> &mut Population {
        &mut self.population
    }

    /// Everything the time axis does to every client at epoch `t`
    /// (availability, cost, channel, data volume), as rows. Deterministic
    /// in the environment seed. A one-shot realization, like the three
    /// below: inspection through `&self` that leaves the window alone.
    pub fn views(&self, epoch: usize) -> Vec<EpochClientView> {
        self.population.realize(epoch).views(self.population.columns())
    }

    /// Ids of the clients available at epoch `t` (`E_t`).
    pub fn available(&self, epoch: usize) -> Vec<usize> {
        self.population.realize(epoch).available_ids()
    }

    /// Realized per-iteration latency `τ^loc + τ^cm` of each listed
    /// client at epoch `t`, under FDMA sharing among exactly those
    /// clients — what [`Self::run_epoch`] reports for its cohort.
    pub fn per_iteration_latency(&self, epoch: usize, ids: &[usize]) -> Vec<f64> {
        let p = &self.population;
        cohort_latency(p.config(), p.columns(), &p.realize(epoch), p.latency_model(), ids)
    }

    /// Per-iteration latency of each listed client at epoch `t` assuming
    /// a *nominal* FDMA share of `B / share_count` each
    /// ([`nominal_latency`]). Policies see the *previous* epoch's values
    /// (0-lookahead).
    pub fn latency_with_share(&self, epoch: usize, ids: &[usize], share_count: usize) -> Vec<f64> {
        let p = &self.population;
        nominal_latency(p.columns(), &p.realize(epoch), p.latency_model(), share_count, ids)
    }

    /// Runs epoch `t` with the given cohort for `iterations` global
    /// iterations, mutating the global model, and reports everything the
    /// online algorithm and the figures consume.
    ///
    /// # Panics
    /// Panics if the cohort is empty or contains an unavailable client —
    /// selecting an offline client is a policy bug the simulator surfaces
    /// immediately.
    pub fn run_epoch(&mut self, epoch: usize, cohort: &[usize], iterations: usize) -> EpochReport {
        self.run_epoch_in(epoch, cohort, iterations, None)
    }

    /// [`Self::run_epoch`] with an explicit parent span: the `run-epoch`
    /// timer — and under it `materialize` (the cohort's working sets),
    /// `train` (everything the server nests under it) and
    /// `evaluate-clients` (the loss walk over `E_t`) — becomes a child of
    /// `parent`, so the runner's `epoch` span heads the whole phase tree
    /// in the run log and `run-epoch` minus its three children is what
    /// the epoch spent on everything else here.
    pub fn run_epoch_in(
        &mut self,
        epoch: usize,
        cohort: &[usize],
        iterations: usize,
        parent: Option<&fedl_telemetry::Span>,
    ) -> EpochReport {
        assert!(!cohort.is_empty(), "epoch with empty cohort");
        assert!(iterations > 0, "epoch needs at least one iteration");
        let run_span = match parent {
            Some(p) => p.child("run-epoch"),
            None => self.telemetry.span("run-epoch"),
        };
        let lent = self.population.advance(epoch);
        let (config, cols, now) = (lent.config, lent.cols, lent.now);
        for &k in cohort {
            assert!(k < cols.len(), "unknown client {k}");
            assert!(now.available[k], "client {k} is unavailable at epoch {epoch}");
        }
        // `E_t`, ascending.
        let available_ids = || (0..now.available.len()).filter(|&k| now.available[k]);
        let available_count = available_ids().count();

        // Mid-epoch failures: each selected client independently drops
        // out with probability p_dropout. At least one client survives
        // (a fully dead epoch would stall the FL process; the last
        // selected client is deemed to have completed).
        let full_cohort = cohort;
        let mut failed = Vec::new();
        let mut cohort: Vec<usize> = Vec::with_capacity(full_cohort.len());
        if config.p_dropout > 0.0 {
            use fedl_linalg::rng::Rng;
            for &k in full_cohort {
                let label = (epoch as u64) << 32 | k as u64;
                let mut rng = fedl_linalg::rng::rng_for(
                    fedl_linalg::rng::derive_seed(config.seed, 0xDEAD),
                    label,
                );
                if rng.gen::<f64>() < config.p_dropout {
                    failed.push(k);
                } else {
                    cohort.push(k);
                }
            }
            if cohort.is_empty() {
                let survivor = failed.pop().expect("non-empty cohort");
                cohort.push(survivor);
            }
        } else {
            cohort.extend_from_slice(full_cohort);
        }
        let cohort = &cohort[..];

        // Materialize each cohort client's epoch working set once.
        let materialize = run_span.child("materialize");
        let cohort_data: Vec<(usize, Dataset)> = cohort
            .iter()
            .map(|&k| (k, self.streams[k].epoch_dataset(&self.train, epoch)))
            .collect();
        let cohort_refs: Vec<(usize, &Dataset)> =
            cohort_data.iter().map(|(k, d)| (*k, d)).collect();
        drop(materialize);

        let train_span = run_span.child("train");
        // Busy share of the solver threads: Σ solve time over the team's
        // wall-clock inside `local-train`, from the two running sums.
        let solve_secs = self.telemetry.histogram("ml.solve_secs");
        let local_train_secs = self.telemetry.histogram("span.local-train");
        let (solve_before, wall_before) = (solve_secs.sum(), local_train_secs.sum());
        let mut eta_max = vec![0.0f32; cohort.len()];
        let mut last_deltas = Vec::new();
        let mut local_losses = vec![0.0f32; cohort.len()];
        for it in 0..iterations {
            let stats = self.server.run_iteration_in(
                &cohort_refs,
                available_count,
                config.aggregation,
                epoch,
                it,
                Some(&train_span),
            );
            for (m, &e) in eta_max.iter_mut().zip(&stats.eta_hats) {
                *m = m.max(e);
            }
            if it + 1 == iterations {
                last_deltas = stats.deltas;
                local_losses = stats.losses_at_w;
            }
        }
        drop(train_span);
        let wall = local_train_secs.sum() - wall_before;
        if wall > 0.0 {
            let team = fedl_linalg::par::team().min(cohort.len());
            self.telemetry
                .gauge("sim.local_train_efficiency")
                .set((solve_secs.sum() - solve_before) / (team as f64 * wall));
        }

        // h_t⁰ linearization coefficients: J · d_k on the final iteration.
        let j = self.server.j_agg();
        let grad_dot_delta: Vec<f32> = last_deltas.iter().map(|d| j.dot(d)).collect();

        // Latency and cost are realized from the same epoch columns.
        // Rent is owed for the *full* selection (failures happen after
        // commitment); time is gated by the surviving stragglers.
        let per_client_iter_latency = cohort_latency(config, cols, now, lent.latency, cohort);
        let latency_secs =
            per_client_iter_latency.iter().copied().fold(0.0f64, f64::max) * iterations as f64;
        let cost: f64 = full_cohort.iter().map(|&k| now.cost[k]).sum();

        // Global losses at the epoch-final model: every available client
        // is scored once, across the team; `F_t` folds all of them in id
        // order and `F̃_t` the cohort's entries in cohort order.
        let evaluate = run_span.child("evaluate-clients");
        let evaluate_started = Instant::now();
        let model = self.server.model();
        self.eval.walk(model, &self.streams, &self.train, epoch, available_ids());
        let global_loss_selected = self.eval.weighted_loss(cohort.iter().copied());
        let global_loss_all = self.eval.weighted_loss(available_ids());
        drop(evaluate);
        self.telemetry
            .histogram("sim.evaluate_clients_ms")
            .record(evaluate_started.elapsed().as_secs_f64() * 1e3);

        if self.telemetry.enabled() {
            // Per-client payment attribution: rent is owed for the full
            // selection (failures happen after commitment), so `charged`
            // lists every rented client, survivor or not.
            let charged: Vec<usize> = full_cohort.to_vec();
            let per_client_cost: Vec<f64> = full_cohort.iter().map(|&k| now.cost[k]).collect();
            // Phase split of the realized latencies (equal-share FDMA
            // only; the min-makespan allocator interleaves the phases).
            let splits = if config.optimal_bandwidth {
                Vec::new()
            } else {
                nominal_split(cols, now, lent.latency, cohort.len(), cohort)
            };
            let compute_split: Vec<f64> = splits.iter().map(|s| s.compute_secs).collect();
            let upload_split: Vec<f64> = splits.iter().map(|s| s.upload_secs).collect();
            self.telemetry.emit(
                "train",
                vec![
                    ("epoch", Value::from(epoch)),
                    ("cohort", cohort.to_vec().to_json_value()),
                    ("failed", failed.to_json_value()),
                    ("iterations", Value::from(iterations)),
                    ("latency_secs", Value::Float(latency_secs)),
                    ("per_client_iter_latency", per_client_iter_latency.to_json_value()),
                    ("cost", Value::Float(cost)),
                    ("charged", charged.to_json_value()),
                    ("per_client_cost", per_client_cost.to_json_value()),
                    ("per_client_compute_secs", compute_split.to_json_value()),
                    ("per_client_upload_secs", upload_split.to_json_value()),
                ],
            );
            self.telemetry.histogram("sim.epoch_latency_secs").record(latency_secs);
            let iter_hist = self.telemetry.histogram("sim.client_iter_latency_secs");
            for &l in &per_client_iter_latency {
                iter_hist.record(l);
            }
            self.telemetry.counter("sim.failed_clients").add(failed.len() as u64);
            let compute_hist = self.telemetry.histogram("net.compute_secs");
            let upload_hist = self.telemetry.histogram("net.upload_secs");
            for split in &splits {
                compute_hist.record(split.compute_secs);
                upload_hist.record(split.upload_secs);
            }
        }

        EpochReport {
            epoch,
            cohort: cohort.to_vec(),
            iterations,
            latency_secs,
            per_client_iter_latency,
            cost,
            eta_hats: eta_max,
            global_loss_all,
            global_loss_selected,
            grad_dot_delta,
            local_losses,
            failed,
        }
    }

    /// Test-set `(accuracy, loss)` of the current global model: the
    /// values of one forward pass over the test set, from bounded chunks
    /// through a reused workspace.
    pub fn test_metrics(&mut self) -> (f64, f64) {
        self.eval.test_metrics(self.server.model(), &self.test)
    }

    /// Test-set accuracy of the current global model:
    /// [`Self::test_metrics`]`.0`, for a caller that wants only that (its
    /// own forward pass, no loss reduction).
    pub fn test_accuracy(&self) -> f64 {
        metrics::accuracy(self.server.model(), &self.test)
    }

    /// Test-set loss of the current global model:
    /// [`Self::test_metrics`]`.1`, for a caller that wants only that.
    pub fn test_loss(&self) -> f64 {
        metrics::loss_against(self.server.model(), &self.test, &self.test_targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedl_data::synth::small_fmnist;
    use fedl_ml::model::SoftmaxRegression;

    fn env(seed: u64) -> EdgeEnvironment {
        let (train, test) = small_fmnist(600, 150, seed);
        let model = SoftmaxRegression::new(train.dim(), train.num_classes, 0.001);
        let dane = DaneConfig { local_steps: 6, lr: 0.3, ..Default::default() };
        EdgeEnvironment::new(
            EnvConfig::small(8, seed),
            train,
            test,
            Partition::Iid,
            Box::new(model),
            dane,
        )
    }

    #[test]
    fn construction_and_views() {
        let e = env(1);
        assert_eq!(e.num_clients(), 8);
        let views = e.views(0);
        assert_eq!(views.len(), 8);
        let avail = e.available(0);
        assert!(avail.iter().all(|&k| views[k].available));
    }

    #[test]
    #[should_panic(expected = "one partition pool per client")]
    fn pool_count_mismatch_rejected() {
        let cols = ClientColumns::build(&EnvConfig::small(3, 0), &Default::default());
        let _ = build_streams(&cols, vec![vec![0]]);
    }

    #[test]
    #[should_panic(expected = "client 1 has an empty data pool")]
    fn empty_pool_rejected() {
        let cols = ClientColumns::build(&EnvConfig::small(2, 0), &Default::default());
        let _ = build_streams(&cols, vec![vec![0], vec![]]);
    }

    #[test]
    fn run_epoch_produces_consistent_report() {
        let mut e = env(2);
        let avail = e.available(0);
        assert!(avail.len() >= 2, "seed should give >=2 available clients");
        let cohort = &avail[..2];
        let report = e.run_epoch(0, cohort, 3);
        assert_eq!(report.cohort, cohort);
        assert_eq!(report.iterations, 3);
        assert_eq!(report.per_client_iter_latency.len(), 2);
        assert_eq!(report.eta_hats.len(), 2);
        assert_eq!(report.grad_dot_delta.len(), 2);
        assert!(report.latency_secs > 0.0);
        assert!(report.cost > 0.0);
        let max_iter = report.per_client_iter_latency.iter().copied().fold(0.0f64, f64::max);
        assert!((report.latency_secs - 3.0 * max_iter).abs() < 1e-9);
        assert!(report.global_loss_all.is_finite());
        assert!(report.global_loss_selected.is_finite());
    }

    #[test]
    fn training_improves_accuracy_over_epochs() {
        let mut e = env(3);
        let before = e.test_accuracy();
        for t in 0..12 {
            let avail = e.available(t);
            if avail.is_empty() {
                continue;
            }
            let cohort: Vec<usize> = avail.iter().copied().take(4).collect();
            e.run_epoch(t, &cohort, 3);
        }
        let after = e.test_accuracy();
        assert!(
            after > before + 0.15,
            "federated training should lift accuracy: {before} -> {after}"
        );
    }

    #[test]
    fn same_seed_same_sample_path() {
        let a = env(4).views(5);
        let b = env(4).views(5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.available, y.available);
            assert_eq!(x.cost, y.cost);
            assert_eq!(x.data_volume, y.data_volume);
        }
    }

    #[test]
    #[should_panic(expected = "unavailable at epoch")]
    fn selecting_unavailable_client_panics() {
        let mut e = env(5);
        // Find an unavailable client at some epoch.
        for t in 0..50 {
            let views = e.views(t);
            if let Some(v) = views.iter().find(|v| !v.available) {
                let id = v.id;
                e.run_epoch(t, &[id], 1);
                return; // should have panicked
            }
        }
        panic!("unavailable at epoch (fallback: no unavailable client found)");
    }

    #[test]
    fn dropout_drops_clients_but_still_charges_them() {
        let (train, test) = small_fmnist(400, 100, 44);
        let model = SoftmaxRegression::new(train.dim(), train.num_classes, 0.001);
        let mut config = EnvConfig::small(8, 44);
        config.p_dropout = 0.5;
        let mut e = EdgeEnvironment::new(
            config,
            train,
            test,
            Partition::Iid,
            Box::new(model),
            DaneConfig { local_steps: 3, ..Default::default() },
        );
        let mut saw_failure = false;
        for t in 0..12 {
            let avail = e.available(t);
            if avail.len() < 3 {
                continue;
            }
            let views = e.views(t);
            let cohort = &avail[..3];
            let expected_cost: f64 = cohort.iter().map(|&k| views[k].cost).sum();
            let report = e.run_epoch(t, cohort, 2);
            // Survivors + failures partition the selection.
            assert_eq!(report.cohort.len() + report.failed.len(), 3);
            assert!(!report.cohort.is_empty(), "at least one client survives");
            // Rent is owed for everyone selected.
            assert!((report.cost - expected_cost).abs() < 1e-9);
            // Observation vectors align with the survivors only.
            assert_eq!(report.eta_hats.len(), report.cohort.len());
            assert_eq!(report.per_client_iter_latency.len(), report.cohort.len());
            saw_failure |= !report.failed.is_empty();
        }
        assert!(saw_failure, "p_dropout=0.5 over 12 epochs must fail someone");
    }

    #[test]
    fn optimal_bandwidth_never_slower_than_equal_share() {
        let (train, test) = small_fmnist(300, 50, 45);
        let model = SoftmaxRegression::new(train.dim(), train.num_classes, 0.001);
        let build = |optimal: bool| {
            let mut config = EnvConfig::small(6, 45);
            config.optimal_bandwidth = optimal;
            let m = SoftmaxRegression::new(model.input_dim(), 10, 0.001);
            EdgeEnvironment::new(
                config,
                train.clone(),
                test.clone(),
                Partition::Iid,
                Box::new(m),
                DaneConfig::default(),
            )
        };
        let equal = build(false);
        let optimal = build(true);
        for t in 0..5 {
            let avail = equal.available(t);
            if avail.len() < 3 {
                continue;
            }
            let ids = &avail[..3];
            let slow_eq = equal.per_iteration_latency(t, ids).into_iter().fold(0.0f64, f64::max);
            let slow_opt = optimal.per_iteration_latency(t, ids).into_iter().fold(0.0f64, f64::max);
            assert!(
                slow_opt <= slow_eq * (1.0 + 1e-6),
                "epoch {t}: optimal {slow_opt} > equal {slow_eq}"
            );
        }
    }

    #[test]
    fn zero_dropout_never_fails_anyone() {
        let mut e = env(7);
        for t in 0..6 {
            let avail = e.available(t);
            if avail.len() < 2 {
                continue;
            }
            let report = e.run_epoch(t, &avail[..2], 1);
            assert!(report.failed.is_empty());
            assert_eq!(report.cohort.len(), 2);
        }
    }

    #[test]
    fn telemetry_records_epoch_spans_and_events() {
        use fedl_telemetry::Telemetry;
        let mut e = env(8);
        let (tel, handle) = Telemetry::in_memory();
        e.set_telemetry(tel.clone());
        let avail = e.available(0);
        assert!(avail.len() >= 2);
        let report = e.run_epoch(0, &avail[..2], 3);
        let events = handle.events().unwrap();
        let train = events
            .iter()
            .find(|ev| ev.get("kind").unwrap().as_str() == Some("train"))
            .expect("run_epoch must emit a train event");
        assert_eq!(train.get("epoch").unwrap().as_i64(), Some(0));
        assert_eq!(train.get("iterations").unwrap().as_i64(), Some(3));
        assert_eq!(train.get("latency_secs").unwrap().as_f64(), Some(report.latency_secs));
        assert_eq!(train.get("cohort").unwrap().as_arr().unwrap().len(), 2);
        // 3 iterations => 3 round spans, each with local-train + aggregate.
        assert_eq!(tel.histogram("span.round").count(), 3);
        assert_eq!(tel.histogram("span.local-train").count(), 3);
        assert_eq!(tel.histogram("span.aggregate").count(), 3);
        assert_eq!(tel.histogram("span.train").count(), 1);
        // The epoch's own phases, all under one `run-epoch` span that
        // they (almost) fill.
        let secs = |name: &str| {
            let h = tel.histogram(name);
            assert_eq!(h.count(), 1, "{name}");
            h.sum()
        };
        let phases = secs("span.materialize") + secs("span.train") + secs("span.evaluate-clients");
        assert!(phases <= secs("span.run-epoch"));
        for child in ["materialize", "train", "evaluate-clients"] {
            let span = events
                .iter()
                .find(|ev| ev.get("name").and_then(|n| n.as_str()) == Some(child))
                .unwrap();
            assert_eq!(span.get("parent").unwrap().as_str(), Some("run-epoch"), "{child}");
        }
        assert_eq!(tel.histogram("sim.evaluate_clients_ms").count(), 1);
        let efficiency = tel.gauge("sim.local_train_efficiency").value();
        assert!(efficiency > 0.0 && efficiency <= 1.0, "busy share {efficiency}");
        assert_eq!(tel.counter("sim.iterations").value(), 3);
        // 2 cohort clients x 3 iterations of local solves.
        assert_eq!(tel.counter("ml.local_updates").value(), 6);
        assert_eq!(tel.histogram("sim.epoch_latency_secs").count(), 1);
        assert_eq!(tel.histogram("net.compute_secs").count(), 2);
    }

    #[test]
    fn disabled_telemetry_leaves_results_identical() {
        let mut plain = env(9);
        let mut instrumented = env(9);
        instrumented.set_telemetry(fedl_telemetry::Telemetry::in_memory().0);
        let avail = plain.available(0);
        assert!(avail.len() >= 2);
        let a = plain.run_epoch(0, &avail[..2], 2);
        let b = instrumented.run_epoch(0, &avail[..2], 2);
        assert_eq!(a.eta_hats, b.eta_hats);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.latency_secs, b.latency_secs);
        assert_eq!(a.global_loss_all, b.global_loss_all);
    }

    #[test]
    fn latency_reflects_cohort_size_effects() {
        let e = env(6);
        let avail = e.available(0);
        assert!(avail.len() >= 3);
        let solo = e.per_iteration_latency(0, &avail[..1]);
        let many = e.per_iteration_latency(0, &avail.clone());
        // Same client in a bigger FDMA cohort is never faster.
        assert!(many[0] >= solo[0]);
    }
}
