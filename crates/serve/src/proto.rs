//! Wire messages and framing for the federation service.
//!
//! Every message travels as one *frame*: the UTF-8 text of a
//! `fedl-store` envelope (kind [`FRAME_KIND`]) whose JSON payload is the
//! message object, preceded on the byte stream by a 4-byte big-endian
//! length prefix (the transport layer's job — see [`crate::transport`]).
//! Reusing the checksummed envelope means a corrupt, truncated, or
//! foreign frame surfaces as a typed [`ProtocolError`] long before any
//! field is trusted; the decoder never panics on attacker-shaped bytes.
//!
//! ```text
//! [len: u32 BE] fedl-store v2 kind=serve-msg crc=<16 hex>\n{"type":...}
//! ```
//!
//! The `crc` is `fedl_store::envelope_checksum` of the body. A peer
//! framing another envelope version is refused by the header before any
//! checksum runs — a [`ProtocolError::Envelope`] naming both versions —
//! so an envelope change needs no [`PROTOCOL_VERSION`] bump.
//!
//! The client-facing messages (`Cohort`, `TrainResult`, ...) are small
//! and stay readable JSON all the way down. The `Shard*` data messages
//! between a `fedl-dist` coordinator and its workers carry columns of
//! tens of thousands of rows, and those travel *packed*: each column is
//! one JSON string holding the column's little-endian bytes (`f64`/`f32`
//! as their IEEE bits, ids and volumes as `u32`) in canonical unpadded
//! base64. The frame is still `header\n<one JSON document>` under one
//! checksum and one length cap — there is no second section and no
//! length field to distrust — but a float crosses the wire as its bits,
//! not as text to print and re-parse (docs/DIST.md, "Wire protocol").

use std::fmt;

use fedl_core::columnar::ContextPart;
use fedl_json::{read_field, FromJson, ToJson, Value};
use fedl_store::{decode_envelope, encode_envelope_with, StoreError};
use fedl_telemetry::{SpanContext, Telemetry};

use crate::loadgen::{MemberFeedback, SynthResult};

/// Version of the message schema; both sides send it in [`Message::Hello`]
/// and refuse a peer that advertises any other with
/// [`ProtocolError::Version`].
///
/// v2 added the `Shard*` message kinds spoken between a `fedl-dist`
/// coordinator and its workers (docs/DIST.md); v3 added *optional*
/// trace-context fields (`trace_id`/`span_id`) on the requests that
/// start remote work and the [`Message::Stats`] /
/// [`Message::StatsSnapshot`] live-metrics pair. Every node is built
/// from this repository, so there is no window for older peers; a
/// request without trace fields is still valid (docs/TELEMETRY.md). v4
/// packed the `Vec` columns of `ShardContextPart`, `ShardTrain` and
/// `ShardTrainPart` into base64 strings of raw little-endian cells (the
/// JSON-array form of those columns is gone, not kept beside it), so a v3
/// peer is refused at the handshake like any other.
pub const PROTOCOL_VERSION: u32 = 4;

/// Largest population a sharded deployment may have: client ids ride the
/// packed columns as `u32`.
pub const MAX_SHARD_CLIENTS: usize = u32::MAX as usize;

/// Refuses a population above [`MAX_SHARD_CLIENTS`]. The coordinator asks
/// at construction and a worker at `ShardAssign`, so no id is ever
/// truncated on the wire.
pub fn check_shard_clients(clients: usize) -> Result<(), ProtocolError> {
    if clients > MAX_SHARD_CLIENTS {
        return Err(ProtocolError::Schema {
            detail: format!(
                "a population of {clients} exceeds the {MAX_SHARD_CLIENTS} clients whose ids fit \
                 the wire's u32 id columns"
            ),
        });
    }
    Ok(())
}

/// The listening side of the handshake: echoes a [`Message::Hello`]
/// signed `node` to a peer on our version, refuses any other.
pub fn answer_hello(theirs: u32, node: &str) -> Result<Message, ProtocolError> {
    if theirs != PROTOCOL_VERSION {
        return Err(ProtocolError::Version { ours: PROTOCOL_VERSION, theirs });
    }
    Ok(Message::Hello { protocol_version: PROTOCOL_VERSION, node: node.to_string() })
}

/// Envelope kind tag carried by every frame.
pub const FRAME_KIND: &str = "serve-msg";

/// Hard ceiling on a frame's byte length. A length prefix above this is
/// treated as stream desync ([`ProtocolError::FrameTooLarge`]) rather
/// than an allocation request — million-client cohorts fit comfortably.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Trace context riding on a request message. Optional on the wire:
/// both fields present and valid hex parse to [`Trace::Context`]; both
/// absent (tracing disabled, or a sender with nothing to link) is
/// [`Trace::Absent`]; anything else — one field missing, non-hex
/// garbage, overlong digits — is [`Trace::Invalid`], which the
/// receiver counts (`proto.bad_trace_ids`) and otherwise treats as
/// absent. Trace fields never affect selection: they are observability
/// metadata only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Trace {
    /// No trace fields on the wire.
    #[default]
    Absent,
    /// A valid trace context: link spans under this parent.
    Context {
        /// The originator's trace id.
        trace_id: u64,
        /// The requesting span's id (the remote parent).
        span_id: u64,
    },
    /// Trace fields were present but malformed. Never re-encoded (an
    /// invalid context encodes as absent).
    Invalid,
}

impl Trace {
    /// Wraps a span's context for the wire (`None` — a disabled
    /// telemetry handle — becomes [`Trace::Absent`]).
    pub fn from_context(ctx: Option<SpanContext>) -> Trace {
        match ctx {
            Some(SpanContext { trace_id, span_id }) => Trace::Context { trace_id, span_id },
            None => Trace::Absent,
        }
    }

    /// The parent context to open spans under, if the wire carried a
    /// valid one.
    pub fn to_context(self) -> Option<SpanContext> {
        match self {
            Trace::Context { trace_id, span_id } => Some(SpanContext { trace_id, span_id }),
            Trace::Absent | Trace::Invalid => None,
        }
    }
}

/// One protocol message, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Version handshake; first message on a connection, echoed by the
    /// server.
    Hello {
        /// Sender's [`PROTOCOL_VERSION`].
        protocol_version: u32,
        /// Free-form sender label (`"loadgen"`, `"fedl-serve"`, ...).
        node: String,
    },
    /// Registers client `client` into the selectable population.
    /// Idempotent; acknowledged with [`Message::Snapshot`].
    ClientJoin {
        /// Population id in `0..num_clients`.
        client: usize,
    },
    /// Removes client `client` from the selectable population.
    ClientLeave {
        /// Population id in `0..num_clients`.
        client: usize,
    },
    /// Asks the server to select the cohort for `epoch` (must be the
    /// server's next epoch). Answered with [`Message::Cohort`].
    SelectCohort {
        /// Epoch index `t`.
        epoch: usize,
        /// Optional trace context (v3+).
        trace: Trace,
    },
    /// The server's selection for an epoch.
    Cohort {
        /// Epoch index `t`.
        epoch: usize,
        /// Selected client ids (sorted, deduplicated). Empty when no
        /// registered client was available this epoch.
        cohort: Vec<usize>,
        /// Local iterations `l_t` the cohort should run.
        iterations: usize,
        /// `true` once the budget is exhausted: no training happens and
        /// no [`Message::TrainResult`] is expected.
        done: bool,
    },
    /// The cohort's training feedback for an epoch. On the wire the
    /// feedback's fields sit beside `epoch`, `cohort` and `iterations`
    /// (`latency_secs`, `per_client_iter_latency`, `cost`, `eta_hats`,
    /// `global_loss`, `grad_dot_delta`, `local_losses`); the server reads
    /// it as the report [`SynthResult::to_report`] builds, and
    /// `EpochEngine::settle` decides whether it fits the selection.
    TrainResult {
        /// Epoch index `t`.
        epoch: usize,
        /// The cohort that trained (must equal the served cohort).
        cohort: Vec<usize>,
        /// Iterations executed.
        iterations: usize,
        /// The cohort's feedback, cohort order.
        feedback: SynthResult,
    },
    /// Server state report: the acknowledgement for joins, leaves,
    /// train results, and shutdown, and the reply to a client-sent
    /// `Snapshot` (a status query).
    Snapshot {
        /// The server's next epoch index.
        epoch: usize,
        /// Number of currently registered clients.
        registered: usize,
        /// Cohort selections served so far.
        selections: usize,
        /// Budget remaining in the ledger.
        budget_remaining: f64,
        /// Active selection policy label.
        policy: String,
    },
    /// Asks the server to checkpoint (if configured) and exit its
    /// accept loop. Acknowledged with [`Message::Snapshot`].
    Shutdown,
    /// Coordinator → worker: adopt this scenario and own the contiguous
    /// client shard `[shard_start, shard_end)`. Answered with
    /// [`Message::ShardReady`]. The scenario fields mirror the
    /// `experiments serve` grammar (a `ServeConfig::new` scenario), so
    /// both sides derive the identical environment fingerprint.
    ShardAssign {
        /// Population size `M`.
        clients: usize,
        /// Environment seed.
        seed: u64,
        /// Total rental budget `b`.
        budget: f64,
        /// Minimum cohort size `n`.
        min_participants: usize,
        /// Selection policy label (`PolicyKind::label()` form).
        policy: String,
        /// First client id owned by the worker (inclusive).
        shard_start: usize,
        /// One past the last owned client id (exclusive).
        shard_end: usize,
    },
    /// Worker → coordinator: the shard assignment is in effect and the
    /// population columns are built.
    ShardReady {
        /// Echoed shard start.
        shard_start: usize,
        /// Echoed shard end.
        shard_end: usize,
        /// The worker's scenario fingerprint; the coordinator refuses a
        /// worker whose fingerprint differs from its own.
        fingerprint: String,
    },
    /// Coordinator → worker: realize epoch `epoch` for the worker's
    /// shard and return its context partial. Answered with
    /// [`Message::ShardContextPart`].
    ShardContext {
        /// Epoch index `t`.
        epoch: usize,
        /// Optional trace context (v3+).
        trace: Trace,
    },
    /// Worker → coordinator: the shard's slice of the epoch decision
    /// context. On the wire the part's five packed columns (`available`,
    /// `costs`, `latency_hint`, `true_latency`, `data_volumes`) sit
    /// beside `epoch`.
    ShardContextPart {
        /// Epoch index `t`.
        epoch: usize,
        /// The shard's columns, aligned to its available clients.
        part: ContextPart,
    },
    /// Coordinator → worker: run `iterations` local iterations on the
    /// cohort members that fall in the worker's shard and return their
    /// training feedback. Answered with [`Message::ShardTrainPart`].
    ShardTrain {
        /// Epoch index `t`.
        epoch: usize,
        /// Cohort members owned by this shard (global ids, ascending).
        members: Vec<usize>,
        /// Local iterations `l_t`.
        iterations: usize,
        /// Optional trace context (v3+).
        trace: Trace,
    },
    /// Worker → coordinator: per-member training feedback columns,
    /// aligned to `members`. On the wire the five packed columns
    /// (`per_client_iter_latency`, `costs`, `eta_hats`, `grad_dot_delta`,
    /// `local_losses`) sit beside `epoch` and `members`. The coordinator
    /// concatenates these in fixed shard order and applies the same
    /// scalar combination as the single-process path, so distributed
    /// feedback is bit-identical.
    ShardTrainPart {
        /// Epoch index `t`.
        epoch: usize,
        /// Echoed shard cohort members.
        members: Vec<usize>,
        /// The members' feedback columns.
        feedback: MemberFeedback,
    },
    /// Asks a running service (serve server, dist coordinator, dist
    /// worker) for a live snapshot of its telemetry registry, without
    /// disturbing it. Answered with [`Message::StatsSnapshot`]. v3+.
    Stats,
    /// The live metrics snapshot: the same
    /// `{"counters":…,"gauges":…,"histograms":…}` object a `metrics`
    /// run-log event carries (histograms as count/mean/p50/p90/p99/
    /// min/max summaries). Empty object when telemetry is disabled.
    StatsSnapshot {
        /// The registry snapshot.
        registry: Value,
    },
    /// A typed refusal; `code` is stable (see [`ProtocolError::code`]),
    /// `detail` is human-readable.
    Error {
        /// Stable machine-readable error class.
        code: String,
        /// Human-readable description.
        detail: String,
    },
}

// ---------------------------------------------------------------------------
// Packed columns (the `Shard*` data messages)
// ---------------------------------------------------------------------------

/// One cell of a packed column: a fixed number of little-endian bytes.
trait Cell: Copy {
    const WIDTH: usize;
    /// Both slices are exactly [`Self::WIDTH`] long.
    fn put(self, slot: &mut [u8]);
    fn take(slot: &[u8]) -> Self;
}

impl Cell for f64 {
    const WIDTH: usize = 8;
    fn put(self, slot: &mut [u8]) {
        slot.copy_from_slice(&self.to_le_bytes());
    }
    fn take(slot: &[u8]) -> Self {
        f64::from_le_bytes(slot.try_into().expect("a cell is WIDTH bytes"))
    }
}

impl Cell for f32 {
    const WIDTH: usize = 4;
    fn put(self, slot: &mut [u8]) {
        slot.copy_from_slice(&self.to_le_bytes());
    }
    fn take(slot: &[u8]) -> Self {
        f32::from_le_bytes(slot.try_into().expect("a cell is WIDTH bytes"))
    }
}

/// Client ids and data volumes ride as `u32`.
impl Cell for usize {
    const WIDTH: usize = 4;
    fn put(self, slot: &mut [u8]) {
        // Ids are below the population, which both ends cap at
        // `MAX_SHARD_CLIENTS` before any shard message exists; volumes
        // are `u32` where they are realized.
        let cell = u32::try_from(self).expect("ids and volumes of a sharded run fit u32");
        slot.copy_from_slice(&cell.to_le_bytes());
    }
    fn take(slot: &[u8]) -> Self {
        u32::from_le_bytes(slot.try_into().expect("a cell is WIDTH bytes")) as usize
    }
}

/// Raw bytes per step of the base64 kernels: 16 triples, spelled as
/// [`BLOCK_CHARS`] characters. It is a whole number of cells at every
/// width (6 `f64`, 12 `f32` or `u32`), so [`pack_into`] stages a block of
/// cells on the stack and writes its text straight into the frame, and
/// [`unpack`] decodes each block straight into cells: no byte copy of a
/// column is made either way.
const BLOCK_BYTES: usize = 48;

/// Characters per block: [`BLOCK_BYTES`] spelled in base64.
const BLOCK_CHARS: usize = 64;

/// Sextet `s` (below 64) as its RFC 4648 base64 character — `A`–`Z`,
/// `a`–`z`, `0`–`9`, `+`, `/` — by adding the offset of its range: no
/// table and no branch, so a block of them vectorizes.
fn base64_char(s: u8) -> u8 {
    let from = |at: u8, step: u8| if s >= at { step } else { 0 };
    s.wrapping_add(b'A')
        .wrapping_add(from(26, b'a' - b'A' - 26))
        .wrapping_sub(from(52, b'a' - 26 + 52 - b'0'))
        .wrapping_sub(from(62, b'0' + 10 - b'+'))
        .wrapping_add(from(63, b'/' - b'+' - 1))
}

/// The sextet base64 character `c` spells, or `0xFF` for a byte outside
/// the alphabet: every range's offset is non-zero, so no offset means no
/// range matched. Branch-free, like [`base64_char`].
fn base64_sextet(c: u8) -> u8 {
    let within = |lo: u8, len: u8, offset: u8| if c.wrapping_sub(lo) < len { offset } else { 0 };
    let offset = within(b'A', 26, b'A'.wrapping_neg())
        | within(b'a', 26, (b'a' - 26).wrapping_neg())
        | within(b'0', 10, 52 - b'0')
        | within(b'+', 1, 62 - b'+')
        | within(b'/', 1, 63 - b'/');
    c.wrapping_add(offset) | if offset == 0 { 0xFF } else { 0 }
}

/// One block of raw bytes as its 64 base64 characters. Each output
/// byte is written by its own expression, a lane pattern the compiler
/// vectorizes.
fn encode_block(raw: &[u8; BLOCK_BYTES]) -> [u8; BLOCK_CHARS] {
    let mut text = [0u8; BLOCK_CHARS];
    for (t, q) in raw.chunks_exact(3).zip(text.chunks_exact_mut(4)) {
        q[0] = t[0] >> 2;
        q[1] = (t[0] << 4 | t[1] >> 4) & 63;
        q[2] = (t[1] << 2 | t[2] >> 6) & 63;
        q[3] = t[2] & 63;
    }
    for c in &mut text {
        *c = base64_char(*c);
    }
    text
}

/// One block of 64 base64 characters as its raw bytes, with the OR of
/// every sextet looked up: above 63 iff some character was foreign (the
/// bytes are then meaningless).
fn decode_block(text: &[u8; BLOCK_CHARS]) -> ([u8; BLOCK_BYTES], u8) {
    let mut sextets = [0u8; BLOCK_CHARS];
    for (s, &c) in sextets.iter_mut().zip(text) {
        *s = base64_sextet(c);
    }
    let seen = sextets.iter().fold(0, |seen, &s| seen | s);
    let mut raw = [0u8; BLOCK_BYTES];
    for (q, t) in sextets.chunks_exact(4).zip(raw.chunks_exact_mut(3)) {
        t[0] = q[0] << 2 | q[1] >> 4;
        t[1] = q[1] << 4 | q[2] >> 2;
        t[2] = q[2] << 6 | q[3];
    }
    (raw, seen)
}

/// Up to a block of cells as their little-endian bytes; the bytes they
/// do not fill stay zero.
fn stage<T: Cell>(cells: &[T]) -> [u8; BLOCK_BYTES] {
    let mut raw = [0u8; BLOCK_BYTES];
    for (&cell, slot) in cells.iter().zip(raw.chunks_exact_mut(T::WIDTH)) {
        cell.put(slot);
    }
    raw
}

/// Appends the column to `out` as one JSON string: the cells'
/// little-endian bytes in canonical unpadded base64 (RFC 4648 alphabet,
/// no `=`), a block at a time.
fn pack_into<T: Cell>(column: &[T], out: &mut Vec<u8>) {
    out.push(b'"');
    let mut blocks = column.chunks_exact(BLOCK_BYTES / T::WIDTH);
    for cells in &mut blocks {
        out.extend_from_slice(&encode_block(&stage(cells)));
    }
    // The tail is spelled as a block padded with zero bytes, cut to the
    // characters its bytes need: 3 bytes -> 4 characters, a last 1 (2)
    // -> 2 (3).
    let tail = blocks.remainder();
    let text = encode_block(&stage(tail));
    out.extend_from_slice(&text[..(tail.len() * T::WIDTH * 4).div_ceil(3)]);
    out.push(b'"');
}

/// The length of what [`pack_into`] appends for `rows` cells.
fn packed_len<T: Cell>(rows: usize) -> usize {
    2 + (rows * T::WIDTH * 4).div_ceil(3)
}

/// Reads the packed column `key` of message object `v`. Exactly one text
/// decodes to a given byte string — alphabet only, no padding, no length
/// of 1 mod 4, zero trailing bits — so a retried reply is byte-identical
/// or refused; and the bytes must be whole cells. Every allocation is
/// sized by the string itself, which the frame cap already bounds.
fn unpack<T: Cell>(v: &Value, key: &str) -> Result<Vec<T>, ProtocolError> {
    let bad = |why: &str| ProtocolError::Schema { detail: format!("packed column `{key}`: {why}") };
    let text =
        v.get(key).and_then(Value::as_str).ok_or_else(|| bad("expected a string"))?.as_bytes();
    if text.len() % 4 == 1 {
        return Err(bad("a length of 1 mod 4 is not base64"));
    }
    // 4 characters -> 3 bytes; a tail of 2 (3) characters -> 1 (2).
    let bytes = text.len() * 3 / 4;
    let mut column = Vec::with_capacity(bytes / T::WIDTH);
    let mut seen = 0u8;
    let mut blocks = text.chunks_exact(BLOCK_CHARS);
    for block in &mut blocks {
        let (raw, sextets) = decode_block(block.try_into().expect("chunks_exact(BLOCK_CHARS)"));
        seen |= sextets;
        column.extend(raw.chunks_exact(T::WIDTH).map(T::take));
    }
    // The tail reads as if padded with `A` (sextet 0): the bytes it does
    // not carry must come out zero.
    let tail = blocks.remainder();
    let mut last = [b'A'; BLOCK_CHARS];
    last[..tail.len()].copy_from_slice(tail);
    let (raw, sextets) = decode_block(&last);
    seen |= sextets;
    let (carried, trailing) = raw.split_at(tail.len() * 3 / 4);
    if seen > 63 {
        return Err(bad("a byte outside the base64 alphabet"));
    }
    if trailing.iter().any(|&b| b != 0) {
        return Err(bad("non-zero trailing bits"));
    }
    if !bytes.is_multiple_of(T::WIDTH) {
        return Err(bad(&format!("{bytes} bytes are not whole {}-byte cells", T::WIDTH)));
    }
    column.extend(carried.chunks_exact(T::WIDTH).map(T::take));
    Ok(column)
}

/// One field of a message body as [`encode_frame`] writes it.
enum Field<'a> {
    /// Readable JSON, rendered by `Value::write_json`.
    Json(Value),
    /// A packed column of `f64` cells.
    F64s(&'a [f64]),
    /// A packed column of `f32` cells.
    F32s(&'a [f32]),
    /// A packed column of ids or volumes (`u32` cells).
    Ids(&'a [usize]),
}

impl Field<'_> {
    /// A lower bound on the field's rendered length, exact for a packed
    /// column.
    fn len_hint(&self) -> usize {
        match self {
            Field::Json(value) => value.json_len_hint(),
            Field::F64s(column) => packed_len::<f64>(column.len()),
            Field::F32s(column) => packed_len::<f32>(column.len()),
            Field::Ids(column) => packed_len::<usize>(column.len()),
        }
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Field::Json(value) => value.write_json(out),
            Field::F64s(column) => pack_into(column, out),
            Field::F32s(column) => pack_into(column, out),
            Field::Ids(column) => pack_into(column, out),
        }
    }
}

// ---------------------------------------------------------------------------
// The message table
// ---------------------------------------------------------------------------

/// A message body's fields in wire order, as [`encode_frame`] writes them.
type Fields<'a> = Vec<(&'static str, Field<'a>)>;

/// How a field of type `T` rides the wire under its key: what
/// [`encode_frame`] writes for it, and how [`decode_frame`] reads it back
/// from the message object — a missing or malformed key is a
/// [`ProtocolError::Schema`] that names it.
trait Kind<T> {
    fn encode<'a>(key: &'static str, value: &'a T, out: &mut Fields<'a>);
    fn decode(v: &Value, key: &str) -> Result<T, ProtocolError>;
}

/// Readable JSON, through the type's `ToJson` / `FromJson`.
struct Json;
/// A packed column of `f64` cells.
struct F64s;
/// A packed column of `f32` cells.
struct F32s;
/// A packed column of ids or volumes (`u32` cells).
struct Ids;
/// `protocol_version`: read wide, so that a version past `u32` is refused
/// with its value rather than passing for another.
struct Version;
/// A struct whose keys sit beside the message's own (see `flat!`); a
/// [`Trace`] is its two optional keys.
struct Flat;

fn schema(detail: impl fmt::Display) -> ProtocolError {
    ProtocolError::Schema { detail: detail.to_string() }
}

impl<T: ToJson + FromJson> Kind<T> for Json {
    fn encode<'a>(key: &'static str, value: &'a T, out: &mut Fields<'a>) {
        out.push((key, Field::Json(value.to_json_value())));
    }
    fn decode(v: &Value, key: &str) -> Result<T, ProtocolError> {
        read_field(v, key).map_err(schema)
    }
}

macro_rules! packed {
    ($($kind:ident($cell:ty)),*) => {$(
        impl Kind<Vec<$cell>> for $kind {
            fn encode<'a>(key: &'static str, column: &'a Vec<$cell>, out: &mut Fields<'a>) {
                out.push((key, Field::$kind(column)));
            }
            fn decode(v: &Value, key: &str) -> Result<Vec<$cell>, ProtocolError> {
                unpack(v, key)
            }
        }
    )*};
}
packed!(F64s(f64), F32s(f32), Ids(usize));

impl Kind<u32> for Version {
    fn encode<'a>(key: &'static str, version: &'a u32, out: &mut Fields<'a>) {
        Json::encode(key, version, out);
    }
    fn decode(v: &Value, key: &str) -> Result<u32, ProtocolError> {
        let raw: u64 = Json::decode(v, key)?;
        u32::try_from(raw).map_err(|_| schema(format!("{key} {raw} out of range")))
    }
}

impl Kind<Trace> for Flat {
    fn encode<'a>(_: &'static str, trace: &'a Trace, out: &mut Fields<'a>) {
        if let Trace::Context { trace_id, span_id } = *trace {
            out.push(("trace_id", Field::Json(SpanContext::fmt_id(trace_id).into())));
            out.push(("span_id", Field::Json(SpanContext::fmt_id(span_id).into())));
        }
    }

    /// Lenient parse: absence is normal (tracing off), garbage is
    /// [`Trace::Invalid`], never an error — a bad trace id must not
    /// fail the request it rides on.
    fn decode(v: &Value, _: &str) -> Result<Trace, ProtocolError> {
        let (t, s) = (v.get("trace_id"), v.get("span_id"));
        if t.is_none() && s.is_none() {
            return Ok(Trace::Absent);
        }
        let parse =
            |field: Option<&Value>| field.and_then(Value::as_str).and_then(SpanContext::parse_id);
        Ok(match (parse(t), parse(s)) {
            (Some(trace_id), Some(span_id)) => Trace::Context { trace_id, span_id },
            _ => Trace::Invalid,
        })
    }
}

/// The structs a message carries flattened: each key, in wire order,
/// with its kind.
macro_rules! flat {
    ($($ty:ident { $($key:ident: $kind:ident),+ $(,)? })*) => {$(
        impl Kind<$ty> for Flat {
            fn encode<'a>(_: &'static str, value: &'a $ty, out: &mut Fields<'a>) {
                $(<$kind as Kind<_>>::encode(stringify!($key), &value.$key, out);)+
            }
            fn decode(v: &Value, _: &str) -> Result<$ty, ProtocolError> {
                Ok($ty { $($key: <$kind as Kind<_>>::decode(v, stringify!($key))?),+ })
            }
        }
    )*};
}

flat! {
    SynthResult {
        latency_secs: Json,
        per_client_iter_latency: Json,
        cost: Json,
        eta_hats: Json,
        global_loss: Json,
        grad_dot_delta: Json,
        local_losses: Json,
    }
    ContextPart {
        available: Ids,
        costs: F64s,
        latency_hint: F64s,
        true_latency: F64s,
        data_volumes: Ids,
    }
    MemberFeedback {
        per_client_iter_latency: F64s,
        costs: F64s,
        eta_hats: F32s,
        grad_dot_delta: F32s,
        local_losses: F32s,
    }
}

/// The message table: per variant, its `type` tag, then its keys in
/// wire order with their kinds. [`encode_frame`] and [`decode_frame`]
/// both walk it, so a key is added, renamed or moved here and nowhere
/// else.
macro_rules! messages {
    ($($variant:ident $tag:literal { $($key:ident: $kind:ident),* $(,)? })*) => {
        impl Message {
            /// The wire `type` tag of this message kind.
            pub fn type_tag(&self) -> &'static str {
                match self {
                    $(Message::$variant { .. } => $tag,)*
                }
            }

            /// The message's fields in wire order (`type` first), as
            /// [`encode_frame`] renders them.
            fn fields(&self) -> Fields<'_> {
                let mut out = vec![("type", Field::Json(self.type_tag().into()))];
                match self {
                    $(Message::$variant { $($key),* } => {
                        $(<$kind as Kind<_>>::encode(stringify!($key), $key, &mut out);)*
                    })*
                }
                out
            }

            /// Parses a message object; any shape mismatch is a
            /// [`ProtocolError::Schema`].
            pub fn from_json_value(v: &Value) -> Result<Message, ProtocolError> {
                let tag: String = read_field(v, "type").map_err(schema)?;
                match tag.as_str() {
                    $($tag => Ok(Message::$variant {
                        $($key: <$kind as Kind<_>>::decode(v, stringify!($key))?),*
                    }),)*
                    other => Err(schema(format!("unknown message type {other:?}"))),
                }
            }
        }
    };
}

messages! {
    Hello "hello" { protocol_version: Version, node: Json }
    ClientJoin "client_join" { client: Json }
    ClientLeave "client_leave" { client: Json }
    SelectCohort "select_cohort" { epoch: Json, trace: Flat }
    Cohort "cohort" { epoch: Json, cohort: Json, iterations: Json, done: Json }
    TrainResult "train_result" { epoch: Json, cohort: Json, iterations: Json, feedback: Flat }
    Snapshot "snapshot" {
        epoch: Json,
        registered: Json,
        selections: Json,
        budget_remaining: Json,
        policy: Json,
    }
    Shutdown "shutdown" {}
    // Seeds ride as JSON ints; the CLI's seed grammar keeps them inside
    // i64 range.
    ShardAssign "shard_assign" {
        clients: Json,
        seed: Json,
        budget: Json,
        min_participants: Json,
        policy: Json,
        shard_start: Json,
        shard_end: Json,
    }
    ShardReady "shard_ready" { shard_start: Json, shard_end: Json, fingerprint: Json }
    ShardContext "shard_context" { epoch: Json, trace: Flat }
    ShardContextPart "shard_context_part" { epoch: Json, part: Flat }
    ShardTrain "shard_train" { epoch: Json, members: Ids, iterations: Json, trace: Flat }
    ShardTrainPart "shard_train_part" { epoch: Json, members: Ids, feedback: Flat }
    Stats "stats" {}
    StatsSnapshot "stats_snapshot" { registry: Json }
    Error "error" { code: Json, detail: Json }
}

/// Serializes a message into one frame (envelope text bytes; the
/// transport adds the length prefix). The body is written in place
/// behind the header: readable fields through `Value::write_json`,
/// packed columns as base64 a block at a time — ASCII by construction,
/// so the frame is never re-validated as UTF-8.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let fields = msg.fields();
    // `{}`, and per field `"key":` and a separator.
    let body_len =
        2 + fields.iter().map(|(key, field)| key.len() + 4 + field.len_hint()).sum::<usize>();
    encode_envelope_with(FRAME_KIND, body_len, |out| {
        out.push(b'{');
        for (i, (key, field)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            // Keys are fixed identifiers: nothing in them needs escaping.
            out.push(b'"');
            out.extend_from_slice(key.as_bytes());
            out.extend_from_slice(b"\":");
            field.write(out);
        }
        out.push(b'}');
    })
}

/// Verifies and parses one frame. Non-UTF-8 bytes, header damage,
/// checksum mismatches, and unknown message shapes all come back as
/// typed errors.
pub fn decode_frame(frame: &[u8]) -> Result<Message, ProtocolError> {
    let text = std::str::from_utf8(frame)
        .map_err(|e| ProtocolError::Envelope { detail: format!("frame is not UTF-8: {e}") })?;
    let payload = decode_envelope(text, FRAME_KIND, "frame").map_err(ProtocolError::from)?;
    Message::from_json_value(&payload)
}

/// [`encode_frame`] with wire instrumentation: records the frame's
/// byte length into the `proto.frame_bytes` histogram and the encode
/// time into `proto.encode_ns`, and returns the elapsed nanoseconds so
/// callers can attribute them to the request (`frame` events, the
/// trace report's critical path). No-ops on a disabled handle.
pub fn encode_frame_traced(msg: &Message, telemetry: &Telemetry) -> (Vec<u8>, u64) {
    let start = std::time::Instant::now();
    let frame = encode_frame(msg);
    let ns = start.elapsed().as_nanos() as u64;
    telemetry.histogram("proto.frame_bytes").record(frame.len() as f64);
    telemetry.histogram("proto.encode_ns").record(ns as f64);
    (frame, ns)
}

/// [`decode_frame`] with wire instrumentation: records the frame's
/// byte length into `proto.frame_bytes` and the decode time into
/// `proto.decode_ns`, returning the elapsed nanoseconds alongside the
/// parse result (errors are timed too — rejecting garbage costs real
/// wall clock).
pub fn decode_frame_traced(
    frame: &[u8],
    telemetry: &Telemetry,
) -> (Result<Message, ProtocolError>, u64) {
    let start = std::time::Instant::now();
    let result = decode_frame(frame);
    let ns = start.elapsed().as_nanos() as u64;
    telemetry.histogram("proto.frame_bytes").record(frame.len() as f64);
    telemetry.histogram("proto.decode_ns").record(ns as f64);
    (result, ns)
}

/// Everything that can go wrong between raw bytes and an applied
/// message — always a value, never a panic, mirroring the store's
/// `StoreError` and the run log's lenient parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// Socket-level failure.
    Io {
        /// OS error description.
        detail: String,
    },
    /// The peer produced no bytes (or accepted none) within the
    /// transport's configured I/O deadline (`--io-timeout`). Unlike
    /// [`ProtocolError::Io`] this names a stalled-but-alive peer; the
    /// caller may retry on a fresh connection.
    Timeout {
        /// The deadline that elapsed, in seconds.
        secs: f64,
    },
    /// Length prefix exceeds [`MAX_FRAME_BYTES`]; the stream is
    /// desynchronized and the connection must be dropped.
    FrameTooLarge {
        /// Claimed frame length.
        len: usize,
        /// The enforced ceiling.
        max: usize,
    },
    /// The stream ended inside a frame.
    TruncatedFrame {
        /// Bytes the prefix promised.
        expected: usize,
        /// Bytes actually read.
        got: usize,
    },
    /// Frame bytes are not a valid `serve-msg` envelope (bad magic,
    /// version, kind, checksum, or encoding).
    Envelope {
        /// What the envelope check rejected.
        detail: String,
    },
    /// The envelope verified but its payload is not a known message.
    Schema {
        /// What the message parser rejected.
        detail: String,
    },
    /// Peer speaks a different [`PROTOCOL_VERSION`].
    Version {
        /// Our version.
        ours: u32,
        /// The peer's version.
        theirs: u32,
    },
    /// Client id outside the configured population.
    UnknownClient {
        /// The offending id.
        client: usize,
        /// Population size `num_clients`.
        population: usize,
    },
    /// A request named an epoch other than the server's next.
    BadEpoch {
        /// The server's next epoch.
        expected: usize,
        /// The epoch the peer asked about.
        got: usize,
    },
    /// The message is valid but illegal in the server's current phase
    /// (e.g. a `TrainResult` with no selection pending).
    UnexpectedMessage {
        /// Why the message was refused.
        detail: String,
    },
}

impl ProtocolError {
    /// Stable machine-readable class, carried in [`Message::Error`].
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::Io { .. } => "io",
            ProtocolError::Timeout { .. } => "timeout",
            ProtocolError::FrameTooLarge { .. } => "frame-too-large",
            ProtocolError::TruncatedFrame { .. } => "truncated-frame",
            ProtocolError::Envelope { .. } => "envelope",
            ProtocolError::Schema { .. } => "schema",
            ProtocolError::Version { .. } => "version",
            ProtocolError::UnknownClient { .. } => "unknown-client",
            ProtocolError::BadEpoch { .. } => "bad-epoch",
            ProtocolError::UnexpectedMessage { .. } => "unexpected-message",
        }
    }

    /// The wire form: a [`Message::Error`] carrying [`Self::code`] and
    /// the display text.
    pub fn to_wire(&self) -> Message {
        Message::Error { code: self.code().to_string(), detail: self.to_string() }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io { detail } => write!(f, "transport error: {detail}"),
            ProtocolError::Timeout { secs } => {
                write!(f, "peer stalled past the {secs}s I/O deadline")
            }
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte ceiling")
            }
            ProtocolError::TruncatedFrame { expected, got } => {
                write!(f, "stream ended inside a frame: expected {expected} bytes, got {got}")
            }
            ProtocolError::Envelope { detail } => write!(f, "bad frame envelope: {detail}"),
            ProtocolError::Schema { detail } => write!(f, "bad message payload: {detail}"),
            ProtocolError::Version { ours, theirs } => {
                write!(f, "protocol version mismatch: ours v{ours}, peer v{theirs}")
            }
            ProtocolError::UnknownClient { client, population } => {
                write!(f, "client {client} outside the population of {population}")
            }
            ProtocolError::BadEpoch { expected, got } => {
                write!(f, "epoch {got} requested, server is at epoch {expected}")
            }
            ProtocolError::UnexpectedMessage { detail } => {
                write!(f, "unexpected message: {detail}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<StoreError> for ProtocolError {
    fn from(err: StoreError) -> Self {
        ProtocolError::Envelope { detail: err.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedl_json::obj;
    use fedl_linalg::rng::{rng_for, Rng};

    /// The RFC 4648 alphabet: sextet `i` is spelled `B64_ALPHABET[i]`.
    const B64_ALPHABET: &[u8; 64] =
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

    /// Sextet value per byte; `0xFF` for a byte outside the alphabet.
    const B64_SEXTET: [u8; 256] = {
        let mut table = [0xFF; 256];
        let mut i = 0;
        while i < 64 {
            table[B64_ALPHABET[i] as usize] = i as u8;
            i += 1;
        }
        table
    };

    /// The column's packed text, without the quotes [`pack_into`]
    /// writes around it.
    fn pack<T: Cell>(column: &[T]) -> String {
        let mut text = Vec::new();
        pack_into(column, &mut text);
        assert_eq!(text.len(), packed_len::<T>(column.len()));
        String::from_utf8(text[1..text.len() - 1].to_vec()).expect("base64 is ASCII")
    }

    fn roundtrip(msg: Message) {
        let frame = encode_frame(&msg);
        let back = decode_frame(&frame).expect("frame should decode");
        assert_eq!(back, msg);
    }

    #[test]
    fn every_message_round_trips() {
        roundtrip(Message::Hello { protocol_version: PROTOCOL_VERSION, node: "t".into() });
        roundtrip(Message::ClientJoin { client: 7 });
        roundtrip(Message::ClientLeave { client: 0 });
        roundtrip(Message::SelectCohort { epoch: 3, trace: Trace::Absent });
        roundtrip(Message::SelectCohort {
            epoch: 3,
            trace: Trace::Context { trace_id: 0xdead_beef, span_id: u64::MAX },
        });
        roundtrip(Message::Cohort { epoch: 3, cohort: vec![1, 4, 9], iterations: 5, done: false });
        roundtrip(Message::TrainResult {
            epoch: 3,
            cohort: vec![1, 4],
            iterations: 5,
            feedback: SynthResult {
                latency_secs: 1.25,
                per_client_iter_latency: vec![0.2, 0.25],
                cost: 11.5,
                eta_hats: vec![0.5, 0.75],
                global_loss: 2.302,
                grad_dot_delta: vec![-0.25, -0.5],
                local_losses: vec![2.0, 2.25],
            },
        });
        roundtrip(Message::Snapshot {
            epoch: 4,
            registered: 100,
            selections: 4,
            budget_remaining: 312.5,
            policy: "FedL".into(),
        });
        roundtrip(Message::Shutdown);
        roundtrip(Message::Stats);
        roundtrip(Message::StatsSnapshot {
            registry: obj(vec![
                ("counters", obj(vec![("serve.frames_in", Value::Int(12))])),
                ("gauges", obj(vec![])),
                ("histograms", obj(vec![])),
            ]),
        });
        roundtrip(Message::Error { code: "bad-epoch".into(), detail: "nope".into() });
    }

    #[test]
    fn every_shard_message_round_trips() {
        roundtrip(Message::ShardAssign {
            clients: 100,
            seed: 7,
            budget: 1e6,
            min_participants: 3,
            policy: "FedL".into(),
            shard_start: 50,
            shard_end: 100,
        });
        roundtrip(Message::ShardReady {
            shard_start: 50,
            shard_end: 100,
            fingerprint: "deadbeefdeadbeef".into(),
        });
        roundtrip(Message::ShardContext { epoch: 9, trace: Trace::Absent });
        roundtrip(Message::ShardContext {
            epoch: 9,
            trace: Trace::Context { trace_id: 1, span_id: 0x0123_4567_89ab_cdef },
        });
        roundtrip(Message::ShardContextPart {
            epoch: 9,
            part: ContextPart {
                available: vec![51, 53, 99],
                costs: vec![1.0000000000000002, -0.0, 5e-324],
                latency_hint: vec![0.1, 0.2, 0.30000000000000004],
                true_latency: vec![1.5, 2.5, f64::MIN_POSITIVE],
                data_volumes: vec![10, 0, 3],
            },
        });
        roundtrip(Message::ShardTrain {
            epoch: 9,
            members: vec![51, 99],
            iterations: 4,
            trace: Trace::Absent,
        });
        roundtrip(Message::ShardTrain {
            epoch: 9,
            members: vec![51, 99],
            iterations: 4,
            trace: Trace::Context { trace_id: 0xfeed, span_id: 0xf00d },
        });
        roundtrip(Message::ShardTrainPart {
            epoch: 9,
            members: vec![51, 99],
            feedback: MemberFeedback {
                per_client_iter_latency: vec![0.25, 0.125],
                costs: vec![3.5, 4.5],
                eta_hats: vec![0.5, 0.9],
                grad_dot_delta: vec![-0.25, -0.125],
                local_losses: vec![2.0, 1.75],
            },
        });
    }

    #[test]
    fn packed_columns_carry_every_bit_pattern() {
        // What the JSON-array form lost or bent: `±inf` rendered as
        // `null` and came back NaN, a NaN lost its payload. Packed cells
        // are the bits, whatever they spell.
        let f64s = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_dead_beef_0001),
            -0.0,
            5e-324,
            1.0000000000000002,
            f64::MAX,
        ];
        let f32s = [
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc1_2345),
            -0.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
            0.1,
        ];
        let ids = [0usize, 1, 0xFFFF, 0x1_0000, 0x7FFF_FFFF, 0x8000_0000, u32::MAX as usize];
        let bits64 = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let bits32 = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Row counts 0..=7 walk every base64 tail (bytes mod 3) at both
        // cell widths; each column starts at a different awkward value.
        for rows in 0..=f64s.len() {
            let f64_col = |skip: usize| -> Vec<f64> {
                f64s.iter().cycle().skip(skip).take(rows).copied().collect()
            };
            let f32_col = |skip: usize| -> Vec<f32> {
                f32s.iter().cycle().skip(skip).take(rows).copied().collect()
            };
            let id_col = |skip: usize| -> Vec<usize> {
                ids.iter().cycle().skip(skip).take(rows).copied().collect()
            };

            let sent = ContextPart {
                available: id_col(0),
                costs: f64_col(0),
                latency_hint: f64_col(1),
                true_latency: f64_col(2),
                data_volumes: id_col(3),
            };
            let frame =
                encode_frame(&Message::ShardContextPart { epoch: rows, part: sent.clone() });
            match decode_frame(&frame).expect("frame should decode") {
                Message::ShardContextPart { epoch, part } => {
                    assert_eq!(epoch, rows);
                    assert_eq!(part.available, sent.available);
                    assert_eq!(bits64(&part.costs), bits64(&sent.costs));
                    assert_eq!(bits64(&part.latency_hint), bits64(&sent.latency_hint));
                    assert_eq!(bits64(&part.true_latency), bits64(&sent.true_latency));
                    assert_eq!(part.data_volumes, sent.data_volumes);
                }
                other => panic!("unexpected message {other:?}"),
            }

            let sent = MemberFeedback {
                per_client_iter_latency: f64_col(3),
                costs: f64_col(4),
                eta_hats: f32_col(0),
                grad_dot_delta: f32_col(1),
                local_losses: f32_col(2),
            };
            let frame = encode_frame(&Message::ShardTrainPart {
                epoch: rows,
                members: id_col(1),
                feedback: sent.clone(),
            });
            match decode_frame(&frame).expect("frame should decode") {
                Message::ShardTrainPart { members, feedback: got, .. } => {
                    assert_eq!(members, id_col(1));
                    let (a, b) = (&got.per_client_iter_latency, &sent.per_client_iter_latency);
                    assert_eq!(bits64(a), bits64(b));
                    assert_eq!(bits64(&got.costs), bits64(&sent.costs));
                    assert_eq!(bits32(&got.eta_hats), bits32(&sent.eta_hats));
                    assert_eq!(bits32(&got.grad_dot_delta), bits32(&sent.grad_dot_delta));
                    assert_eq!(bits32(&got.local_losses), bits32(&sent.local_losses));
                }
                other => panic!("unexpected message {other:?}"),
            }
            roundtrip(Message::ShardTrain {
                epoch: rows,
                members: id_col(2),
                iterations: 1,
                trace: Trace::Absent,
            });
        }
    }

    /// Unpadded RFC 4648 base64 the slow way: six bits at a time.
    fn base64_by_bits(raw: &[u8]) -> String {
        let bit = |i: usize| raw.get(i / 8).is_some_and(|b| b >> (7 - i % 8) & 1 == 1);
        (0..(raw.len() * 8).div_ceil(6))
            .map(|c| {
                let sextet = (0..6).fold(0usize, |n, j| n << 1 | usize::from(bit(6 * c + j)));
                B64_ALPHABET[sextet] as char
            })
            .collect()
    }

    /// `column` packed, then read back from a message object.
    fn repacked<T: Cell>(column: &[T]) -> Vec<T> {
        unpack(&obj(vec![("c", Value::from(pack(column)))]), "c").expect("packed text unpacks")
    }

    #[test]
    fn grouped_packing_spells_the_whole_column_s_bytes() {
        // Packing goes a 48-byte block of cells at a time; the text must
        // be the base64 of the column's little-endian bytes laid end to
        // end, at every row count from none through three blocks and
        // seven rows, at each cell width, over random bits.
        let mut rng = rng_for(0xB10C, 48);
        for rows in 0..=3 * BLOCK_BYTES / 8 + 7 {
            let f64s: Vec<f64> = (0..rows).map(|_| f64::from_bits(rng.next_u64())).collect();
            let raw: Vec<u8> = f64s.iter().flat_map(|x| x.to_le_bytes()).collect();
            assert_eq!(pack(&f64s), base64_by_bits(&raw), "{rows} f64 rows");
            let back = repacked(&f64s);
            assert!(back.iter().map(|x| x.to_bits()).eq(f64s.iter().map(|x| x.to_bits())));
        }
        for rows in 0..=3 * BLOCK_BYTES / 4 + 7 {
            let f32s: Vec<f32> = (0..rows).map(|_| f32::from_bits(rng.next_u64() as u32)).collect();
            let raw: Vec<u8> = f32s.iter().flat_map(|x| x.to_le_bytes()).collect();
            assert_eq!(pack(&f32s), base64_by_bits(&raw), "{rows} f32 rows");
            let back = repacked(&f32s);
            assert!(back.iter().map(|x| x.to_bits()).eq(f32s.iter().map(|x| x.to_bits())));

            let ids: Vec<usize> = (0..rows).map(|_| rng.next_u64() as u32 as usize).collect();
            let raw: Vec<u8> = ids.iter().flat_map(|&k| (k as u32).to_le_bytes()).collect();
            assert_eq!(pack(&ids), base64_by_bits(&raw), "{rows} id rows");
            assert_eq!(repacked(&ids), ids);
        }
    }

    #[test]
    fn the_sextet_maps_are_the_alphabet() {
        for (s, &c) in B64_ALPHABET.iter().enumerate() {
            assert_eq!(base64_char(s as u8), c, "sextet {s}");
        }
        for c in 0..=255u8 {
            assert_eq!(base64_sextet(c), B64_SEXTET[c as usize], "byte {c:#04x}");
        }
    }

    #[test]
    fn block_kernels_agree_with_the_tables() {
        let mut rng = rng_for(0xB10C, 64);
        for _ in 0..200 {
            let raw: [u8; BLOCK_BYTES] = std::array::from_fn(|_| rng.next_u64() as u8);
            let text = encode_block(&raw);
            assert_eq!(text.as_slice(), base64_by_bits(&raw).as_bytes());
            assert_eq!(
                decode_block(&text),
                (raw, text.iter().fold(0, |s, &c| s | B64_SEXTET[c as usize]))
            );
            // Any byte, anywhere: foreign bytes set the high bits of the OR.
            let text: [u8; BLOCK_CHARS] = std::array::from_fn(|_| rng.next_u64() as u8);
            let seen = text.iter().fold(0, |s, &c| s | B64_SEXTET[c as usize]);
            assert_eq!(decode_block(&text).1 > 63, seen > 63);
        }
    }

    #[test]
    fn packed_text_is_canonical_base64() {
        // The RFC 4648 vectors that are whole cells, unpadded: "foob" is
        // one f32 (tail of 1 byte), "foobar!?" two (tail of 2).
        let cells = [f32::from_le_bytes(*b"foob"), f32::from_le_bytes(*b"ar!?")];
        assert_eq!(pack(&cells[..1]), "Zm9vYg");
        assert_eq!(pack(&cells), "Zm9vYmFyIT8");
        assert_eq!(pack::<f64>(&[]), "");
        // One text per byte string: every other spelling is refused.
        let col = |text: &str| unpack::<f32>(&obj(vec![("c", Value::from(text))]), "c");
        assert_eq!(col("Zm9vYg").unwrap()[0].to_bits(), cells[0].to_bits());
        for (text, why) in [
            ("Zm9vYg==", "alphabet"),
            ("Zm9vY", "1 mod 4"),
            ("Zm9vYh", "trailing"),
            ("Zm9vYmFyIT9", "trailing"),
            ("Zm9v Yg", "alphabet"),
            ("Zm9vYmFy", "whole"),
            ("Zm9v\u{e9}g", "alphabet"),
        ] {
            match col(text) {
                Err(ProtocolError::Schema { detail }) => {
                    assert!(detail.contains(why), "{text:?}: {detail}")
                }
                other => panic!("{text:?} must be a schema error, got {other:?}"),
            }
        }
        // Not a string at all: the deleted array form included.
        let arr = obj(vec![("c", Value::Arr(vec![Value::Float(0.5)]))]);
        assert!(matches!(unpack::<f32>(&arr, "c"), Err(ProtocolError::Schema { .. })));
        assert!(matches!(unpack::<f32>(&obj(vec![]), "c"), Err(ProtocolError::Schema { .. })));
    }

    #[test]
    fn messages_without_trace_fields_parse_as_absent() {
        // A sender with tracing off encodes select_cohort/shard_context/
        // shard_train with no trace fields at all (`run_loadgen` does) —
        // exactly what Trace::Absent produces.
        for (tag, extra) in [
            ("select_cohort", vec![]),
            ("shard_context", vec![]),
            ("shard_train", vec![("members", Value::from("")), ("iterations", Value::Int(1))]),
        ] {
            let mut fields = vec![("type", Value::from(tag)), ("epoch", Value::Int(5))];
            fields.extend(extra);
            let frame = fedl_store::encode_envelope(FRAME_KIND, &obj(fields));
            let msg = decode_frame(&frame).expect("untraced shape should decode");
            let trace = match msg {
                Message::SelectCohort { trace, .. }
                | Message::ShardContext { trace, .. }
                | Message::ShardTrain { trace, .. } => trace,
                other => panic!("unexpected message {other:?}"),
            };
            assert_eq!(trace, Trace::Absent, "{tag}");
        }
    }

    #[test]
    fn garbage_trace_ids_parse_as_invalid_never_panic() {
        let cases: [(Value, Value); 6] = [
            (Value::from("zzzz"), Value::from("1234")),
            (Value::from(""), Value::from("1234")),
            (Value::from("12345678901234567"), Value::from("1")),
            (Value::Int(42), Value::from("1")),
            (Value::Null, Value::Null),
            (Value::Arr(vec![Value::Int(1)]), Value::from("1")),
        ];
        for (trace_id, span_id) in cases {
            let payload = obj(vec![
                ("type", Value::from("select_cohort")),
                ("epoch", Value::Int(0)),
                ("trace_id", trace_id.clone()),
                ("span_id", span_id.clone()),
            ]);
            let frame = fedl_store::encode_envelope(FRAME_KIND, &payload);
            let msg = decode_frame(&frame).expect("garbage trace must not fail parse");
            assert_eq!(
                msg,
                Message::SelectCohort { epoch: 0, trace: Trace::Invalid },
                "trace_id={trace_id:?} span_id={span_id:?}"
            );
        }
        // One field present, one absent: also invalid, not absent.
        let payload = obj(vec![
            ("type", Value::from("select_cohort")),
            ("epoch", Value::Int(0)),
            ("trace_id", Value::from("abc")),
        ]);
        let frame = fedl_store::encode_envelope(FRAME_KIND, &payload);
        assert_eq!(
            decode_frame(&frame).unwrap(),
            Message::SelectCohort { epoch: 0, trace: Trace::Invalid }
        );
        // An invalid context is never re-encoded: it goes out absent.
        let reencoded = encode_frame(&Message::SelectCohort { epoch: 0, trace: Trace::Invalid });
        assert_eq!(
            decode_frame(&reencoded).unwrap(),
            Message::SelectCohort { epoch: 0, trace: Trace::Absent }
        );
    }

    #[test]
    fn trace_context_round_trips_and_links() {
        let ctx = fedl_telemetry::SpanContext { trace_id: 0xa1b2_c3d4, span_id: 7 };
        let trace = Trace::from_context(Some(ctx));
        let frame = encode_frame(&Message::ShardContext { epoch: 2, trace });
        match decode_frame(&frame).unwrap() {
            Message::ShardContext { trace, .. } => assert_eq!(trace.to_context(), Some(ctx)),
            other => panic!("unexpected message {other:?}"),
        }
        assert_eq!(Trace::from_context(None), Trace::Absent);
        assert_eq!(Trace::Invalid.to_context(), None);
    }

    #[test]
    fn traced_codec_records_wire_histograms() {
        let (tel, _handle) = Telemetry::in_memory();
        let msg = Message::SelectCohort { epoch: 1, trace: Trace::Absent };
        let (frame, encode_ns) = encode_frame_traced(&msg, &tel);
        let (decoded, _decode_ns) = decode_frame_traced(&frame, &tel);
        assert_eq!(decoded.unwrap(), msg);
        let _ = encode_ns;
        assert_eq!(tel.histogram("proto.frame_bytes").count(), 2);
        assert_eq!(tel.histogram("proto.encode_ns").count(), 1);
        assert_eq!(tel.histogram("proto.decode_ns").count(), 1);
        // A frame that fails to decode is still timed and counted.
        let (bad, _) = decode_frame_traced(b"garbage", &tel);
        assert!(bad.is_err());
        assert_eq!(tel.histogram("proto.decode_ns").count(), 2);
        // Disabled telemetry: the codec still works, records nothing.
        let off = Telemetry::disabled();
        let (frame2, _) = encode_frame_traced(&msg, &off);
        assert_eq!(frame2, encode_frame(&msg));
    }

    #[test]
    fn hello_refuses_everything_but_the_current_version() {
        for theirs in [0, 1, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1, u32::MAX] {
            let err = answer_hello(theirs, "node").unwrap_err();
            assert_eq!(err, ProtocolError::Version { ours: PROTOCOL_VERSION, theirs });
        }
        let hello = answer_hello(PROTOCOL_VERSION, "node").unwrap();
        assert_eq!(
            hello,
            Message::Hello { protocol_version: PROTOCOL_VERSION, node: "node".into() }
        );
    }

    #[test]
    fn timeout_error_has_a_stable_code() {
        let err = ProtocolError::Timeout { secs: 2.5 };
        assert_eq!(err.code(), "timeout");
        match err.to_wire() {
            Message::Error { code, detail } => {
                assert_eq!(code, "timeout");
                assert!(detail.contains("2.5"));
            }
            other => panic!("unexpected wire form {other:?}"),
        }
    }

    #[test]
    fn oversized_protocol_version_is_a_schema_error() {
        // 2^32 + 1 must not silently truncate to v1 and pass the
        // handshake; it is refused at parse time.
        let payload = obj(vec![
            ("type", Value::from("hello")),
            ("protocol_version", Value::Int(4_294_967_297)),
            ("node", Value::from("peer")),
        ]);
        let frame = fedl_store::encode_envelope(FRAME_KIND, &payload);
        assert!(matches!(decode_frame(&frame), Err(ProtocolError::Schema { .. })));
    }

    #[test]
    fn a_v1_frame_is_an_envelope_error_naming_both_versions() {
        // A frame as a v1 build sends it: FNV-1a over the same body.
        let hello = encode_frame(&Message::Hello {
            protocol_version: PROTOCOL_VERSION,
            node: "old".into(),
        });
        let body = std::str::from_utf8(&hello).unwrap().split_once('\n').unwrap().1;
        let crc = fedl_store::fnv1a64(body.as_bytes());
        let frame = format!("fedl-store v1 kind={FRAME_KIND} crc={crc:016x}\n{body}");
        match decode_frame(frame.as_bytes()) {
            Err(ProtocolError::Envelope { detail }) => {
                assert!(detail.contains("v1") && detail.contains("v2"), "{detail}")
            }
            other => panic!("expected an envelope error, got {other:?}"),
        }
    }

    #[test]
    fn garbage_and_damage_are_typed_errors() {
        assert!(matches!(
            decode_frame(b"not an envelope at all\n{}"),
            Err(ProtocolError::Envelope { .. })
        ));
        assert!(matches!(decode_frame(&[0xFF, 0xFE, 0x00]), Err(ProtocolError::Envelope { .. })));
        // Valid envelope, wrong payload shape.
        let frame = fedl_store::encode_envelope(FRAME_KIND, &obj(vec![("x", Value::Int(1))]));
        assert!(matches!(decode_frame(&frame), Err(ProtocolError::Schema { .. })));
        // Flipping one payload byte breaks the checksum.
        let mut frame = encode_frame(&Message::SelectCohort { epoch: 1, trace: Trace::Absent });
        let n = frame.len();
        frame[n - 2] ^= 0x01;
        assert!(matches!(decode_frame(&frame), Err(ProtocolError::Envelope { .. })));
    }
}
