//! The `rkrd` wire protocol: newline-delimited JSON, one request and one
//! reply per line.
//!
//! Requests (`op` selects the operation):
//!
//! ```text
//! {"op":"query","node":17,"k":10}            single reverse k-ranks query,
//!     optionally with "cache":false, "strategy":"dynamic-three", "deadline_ms":5
//! {"op":"batch","nodes":[3,17,5],"k":10}     several queries, one round-trip
//! {"op":"update","ops":[["add",3,9,0.5]]}    stage live graph updates
//! {"op":"stats"}                             serving counters + epochs
//! {"op":"metrics"}                           full telemetry registry snapshot
//!                                            (counters, gauges, histograms)
//! {"op":"slow-queries"}                      recent slow-query log records
//! {"op":"flush"}                             commit staged updates now
//! {"op":"checkpoint"}                        persist the serving state as a
//!                                            snapshot bundle
//! {"op":"shutdown"}                          drain and stop the daemon
//! {"op":"hello"}                             peer identity: protocol version,
//!                                            role, shard identity, epoch pair,
//!                                            graph digest
//! ```
//!
//! Replies always carry `"ok"`; failures are `{"ok":false,"error":"..."}`
//! and keep the connection open. Successful shapes:
//!
//! ```text
//! {"ok":true,"result":[[node,rank],...],"cached":false,"epoch":3,"graph_epoch":1}
//! {"ok":true,"results":[[[node,rank],...],...],"cached":2,"epoch":3,"graph_epoch":1}
//! {"ok":true,"stats":{"v":7,"queries":12,"cache_hits":4,...}}
//! {"ok":true,"metrics":[{"name":"rkrd_queries_total","help":"...","type":"counter","value":12},...]}
//! {"ok":true,"slow_queries":[{"node":17,"k":10,"cached":false,...},...]}
//! {"ok":true,"bye":true}                     shutdown
//! {"ok":true,"role":"server","v":7,"epoch":0,"graph_epoch":1,...}   hello
//! {"ok":true,"staged":2,"graph_epoch":1}     update (epoch it was staged at)
//! {"ok":true,"epoch":0,"merged":2}           flush (staged deltas committed)
//! {"ok":true,"checkpointed":true,"epoch":4,"graph_epoch":1}   checkpoint
//! ```
//!
//! # The wire table
//!
//! Each message's shape is stated once, in the [`Request`] and [`Reply`]
//! tables and one table per reply struct below. A row names a field (its
//! wire key, unless the row renames it with `as`), its value shape and
//! its policy: `req` is always sent and must be present; `or_default` is
//! always sent and reads as the default when absent, so a peer predating
//! the field stays readable; `omit` / `omit(d)` is sent only when it
//! differs from its default and reads as that default when absent. A
//! present field of the wrong type is an error naming the field. The
//! tables generate both the writer and the reader, so the daemon and the
//! [`crate::Client`] cannot drift apart. Hand code is left where the
//! format is irregular: `hello`'s `graph_digest` (16 hex digits: a JSON
//! number cannot hold 64 bits) and flattened shard identity, a metric
//! sample's type tag, labels and buckets, a delta's array, and the rule
//! that `nodes` and `ops` are not empty.
//!
//! No `Json` tree stands between a message and its bytes. The writer
//! appends each row's `"key":value` straight onto the line (the reactor's
//! send buffer, or the [`crate::Client`]'s), with the one number rule
//! [`Json::render`] uses. The reader indexes the line's object once,
//! checking all of it as [`Json::parse`] would, picks the request's `op`
//! or the reply's variant from that index in table order, and reads each
//! row's value in place: a number by the same integer rule, a string
//! unescaped only when it holds a `\`, a duplicate key as its first
//! occurrence. [`Request::to_json`] and [`Reply::to_json`] are views: the
//! written line, parsed.
//!
//! # Semantics
//!
//! An `update` batch is validated as a whole (self-loops, negative
//! weights, out-of-range ids, duplicate or unknown edges are one-line
//! errors and stage *nothing*) and takes effect at the daemon's next
//! commit, which bumps `graph_epoch` and retires the rank index. A prompt
//! daemon (`merge_every` > 0, every `rkr serve` daemon) commits the batch
//! before it replies, so the reply's `graph_epoch` is the epoch the batch
//! was staged at and the next request on any connection sees the new
//! graph; on a flush-only daemon (`merge_every` 0) staged updates wait
//! for `flush` or shutdown.
//!
//! `rkrd` serves one strategy, the dynamic search (`dynamic-three`);
//! naming any other is a one-line error ([`crate::check_served`]). A query
//! cut short by its `deadline_ms` answers `"partial":true` with the
//! refined-so-far entries, each rank still exact.
//!
//! `stats` is the fixed counter block ([`StatsReply`]). `metrics` is its
//! superset, every instrument of the daemon's telemetry registry in
//! registration order: a counter or gauge sample carries `value`; a
//! histogram sample carries `count`, `sum` (raw units), `scale` (raw →
//! display multiplier, e.g. `1e-9` for nanoseconds shown as seconds) and
//! `buckets`, the non-empty log-linear `[upper_bound, count]` pairs,
//! ascending. `slow-queries` returns the ring of recent slow queries (see
//! `rkr serve --slow-query-ms`), oldest first.
//!
//! `checkpoint` persists the serving state *as it stands* (committed
//! graph, index, and staged updates as a WAL) without committing first;
//! it is an error on a daemon started without `--snapshot FILE`.

use std::borrow::Cow;

use rkranks_core::{HistogramSnapshot, MetricSample, MetricValue, MetricsSnapshot};
use rkranks_graph::GraphDelta;

use crate::json::{u32_of, u64_of, write_num, write_str, Json, Members, ObjWriter, Parser};

/// The wire name of a graph delta; kept for callers that name it so.
pub use rkranks_graph::GraphDelta as UpdateOp;

/// The protocol generation this build speaks.
///
/// Carried in the `hello` and `stats` replies (`"v"`); bump it on any
/// incompatible wire change. Daemons predating the field decode as
/// version 0, so mixed deployments fail with a one-line mismatch error
/// instead of misparsing each other.
pub const PROTOCOL_VERSION: u64 = 7;

/// Room a line's buffer starts with: a `k = 10` query reply, or any
/// request but a long `batch` or `update`, is written without regrowing.
const LINE_CAPACITY: usize = 256;

/// A value shape that travels as one JSON value.
trait Field: Sized {
    /// Append the value to the line.
    fn write(&self, out: &mut Vec<u8>);
    /// Read the value at `p` (in a line [`Members`] has checked), or say
    /// what it should have been.
    fn read(p: &mut Parser<'_>) -> Result<Self, String>;
}

/// A message whose fields travel flat, as members of one JSON object.
trait Body: Sized {
    fn put(&self, obj: &mut ObjWriter<'_>);
    fn take(m: &Members<'_>) -> Result<Self, String>;
}

/// A nested message travels as its own object.
impl<T: Body> Field for T {
    fn write(&self, out: &mut Vec<u8>) {
        let mut obj = ObjWriter::open(out);
        self.put(&mut obj);
        obj.close();
    }

    fn read(p: &mut Parser<'_>) -> Result<Self, String> {
        T::take(&Members::read(p)?)
    }
}

/// The scalars, each one JSON value: how it is written, how it is read
/// back, and what a wrong value was expected to be.
macro_rules! scalars {
    ($($t:ty: |$x:ident, $out:ident| $write:expr, |$p:ident| $read:expr, $shape:literal;)*) => {$(
        impl Field for $t {
            fn write(&self, $out: &mut Vec<u8>) {
                let $x = self;
                $write
            }

            fn read($p: &mut Parser<'_>) -> Result<Self, String> {
                $read.ok_or_else(|| concat!("not ", $shape).into())
            }
        }
    )*};
}

scalars! {
    u32: |x, out| write_num(out, f64::from(*x)), |p| p.read_num().and_then(u32_of), "a 32-bit integer";
    u64: |x, out| write_num(out, *x as f64), |p| p.read_num().and_then(u64_of), "a non-negative integer";
    f64: |x, out| write_num(out, *x), |p| p.read_num(), "a number";
    bool: |x, out| out.extend_from_slice(if *x { b"true" } else { b"false" }), |p| p.read_bool(), "a boolean";
    String: |x, out| write_str(out, x), |p| p.read_str().map(Cow::into_owned), "a string";
}

/// A pair is a two-element array: `(node, rank)` entries, histogram
/// buckets. An array of any other length is not a pair, whatever its
/// elements hold.
impl<A: Field, B: Field> Field for (A, B) {
    fn write(&self, out: &mut Vec<u8>) {
        out.push(b'[');
        self.0.write(out);
        out.push(b',');
        self.1.write(out);
        out.push(b']');
    }

    fn read(p: &mut Parser<'_>) -> Result<Self, String> {
        if p.peek() != Some(b'[') || p.count_items() != 2 {
            return Err("not a pair".into());
        }
        let (mut a, mut b) = (None, None);
        p.array(|p| {
            match a {
                None => a = Some(A::read(p)?),
                Some(_) => b = Some(B::read(p)?),
            }
            Ok::<_, String>(())
        })?;
        a.zip(b).ok_or_else(|| "not a pair".into())
    }
}

impl<T: Field> Field for Vec<T> {
    fn write(&self, out: &mut Vec<u8>) {
        out.push(b'[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            item.write(out);
        }
        out.push(b']');
    }

    fn read(p: &mut Parser<'_>) -> Result<Self, String> {
        if p.peek() != Some(b'[') {
            return Err("not an array".into());
        }
        let mut items = Vec::with_capacity(p.count_items());
        p.array(|p| {
            items.push(T::read(p)?);
            Ok::<_, String>(())
        })?;
        Ok(items)
    }
}

/// `None` is never sent: an `Option` row's policy is `omit`.
impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => v.write(out),
            None => out.extend_from_slice(b"null"),
        }
    }

    fn read(p: &mut Parser<'_>) -> Result<Self, String> {
        T::read(p).map(Some)
    }
}

/// A delta travels as a small array: `["add",u,v,w]`, `["rm",u,v]`,
/// `["reweight",u,v,w]` or `["add-node"]`.
impl Field for GraphDelta {
    fn write(&self, out: &mut Vec<u8>) {
        let (kind, edge, w) = match *self {
            GraphDelta::AddNode => ("add-node", None, None),
            GraphDelta::AddEdge { u, v, w } => ("add", Some((u, v)), Some(w)),
            GraphDelta::RemoveEdge { u, v } => ("rm", Some((u, v)), None),
            GraphDelta::Reweight { u, v, w } => ("reweight", Some((u, v)), Some(w)),
        };
        out.push(b'[');
        write_str(out, kind);
        if let Some((u, v)) = edge {
            for node in [u, v] {
                out.push(b',');
                node.write(out);
            }
        }
        if let Some(w) = w {
            out.push(b',');
            w.write(out);
        }
        out.push(b']');
    }

    fn read(p: &mut Parser<'_>) -> Result<Self, String> {
        if p.peek() != Some(b'[') {
            return Err("update op is not an array".into());
        }
        // A cursor at each of the first four elements, and how many there are.
        let mut at = [p.clone(), p.clone(), p.clone(), p.clone()];
        let mut len = 0;
        p.array(|p| {
            if let Some(slot) = at.get_mut(len) {
                *slot = p.clone();
            }
            len += 1;
            p.skip_value()
        })?;
        let kind = (len > 0)
            .then(|| at[0].read_str())
            .flatten()
            .ok_or("update op missing its kind tag")?;
        let arity = match &*kind {
            "add-node" => 0,
            "rm" => 2,
            "add" | "reweight" => 3,
            other => return Err(format!("unknown update op '{other}'")),
        };
        if len != arity + 1 {
            return Err(format!(
                "'{kind}' op takes {arity} arguments, got {}",
                len - 1
            ));
        }
        fn arg<T: Field>(kind: &str, at: &[Parser<'_>], i: usize) -> Result<T, String> {
            T::read(&mut at[i].clone()).map_err(|e| format!("'{kind}' op: argument {i} is {e}"))
        }
        let node = |i| arg::<u32>(&kind, &at, i);
        let weight = || arg::<f64>(&kind, &at, 3);
        Ok(match &*kind {
            "add-node" => GraphDelta::AddNode,
            "rm" => GraphDelta::RemoveEdge {
                u: node(1)?,
                v: node(2)?,
            },
            "add" => GraphDelta::AddEdge {
                u: node(1)?,
                v: node(2)?,
                w: weight()?,
            },
            _ => GraphDelta::Reweight {
                u: node(1)?,
                v: node(2)?,
                w: weight()?,
            },
        })
    }
}

/// The metric sample's irregular shape: `type` says which fields follow
/// (`value`, or a histogram's `count`, `sum`, `scale` and `buckets`), and
/// `labels` is an object sent only when there are any.
impl Field for MetricSample {
    fn write(&self, out: &mut Vec<u8>) {
        let mut obj = ObjWriter::open(out);
        let o = &mut obj;
        put(o, "name", &self.name);
        put(o, "help", &self.help);
        if !self.labels.is_empty() {
            let mut labels = ObjWriter::open(o.key("labels"));
            for (k, v) in &self.labels {
                put(&mut labels, k, v);
            }
            labels.close();
        }
        let kind = match &self.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        write_str(o.key("type"), kind);
        match &self.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => put(o, "value", v),
            MetricValue::Histogram(h) => {
                put(o, "count", &h.count);
                put(o, "sum", &h.sum);
                put(o, "scale", &h.scale);
                put(o, "buckets", &h.buckets);
            }
        }
        obj.close();
    }

    fn read(p: &mut Parser<'_>) -> Result<Self, String> {
        let m = Members::read(p)?;
        let labels = match m.get("labels") {
            None => Vec::new(),
            Some(mut p) if p.peek() == Some(b'{') => Members::read(&mut p)?
                .entries()
                .map(|(k, mut v)| {
                    let value = String::read(&mut v).map_err(|e| format!("field '{k}': {e}"))?;
                    Ok((k.into_owned(), value))
                })
                .collect::<Result<_, String>>()?,
            Some(_) => return Err("field 'labels': not an object".into()),
        };
        let value = match take::<String>(&m, "type", None)?.as_str() {
            "counter" => MetricValue::Counter(take(&m, "value", None)?),
            "gauge" => MetricValue::Gauge(take(&m, "value", None)?),
            "histogram" => MetricValue::Histogram(HistogramSnapshot {
                count: take(&m, "count", None)?,
                sum: take(&m, "sum", None)?,
                scale: take(&m, "scale", None)?,
                buckets: take(&m, "buckets", None)?,
            }),
            other => return Err(format!("unknown metric type '{other}'")),
        };
        Ok(MetricSample {
            name: take(&m, "name", None)?,
            labels,
            help: take(&m, "help", None)?,
            value,
        })
    }
}

impl Field for MetricsSnapshot {
    fn write(&self, out: &mut Vec<u8>) {
        self.samples.write(out);
    }

    fn read(p: &mut Parser<'_>) -> Result<Self, String> {
        Ok(MetricsSnapshot {
            samples: Field::read(p)?,
        })
    }
}

fn put<T: Field>(obj: &mut ObjWriter<'_>, key: &str, value: &T) {
    value.write(obj.key(key));
}

/// Field `key` of `m`: `absent` when it is missing (`None`: required),
/// an error naming `key` when it has the wrong shape.
fn take<T: Field>(m: &Members<'_>, key: &str, absent: Option<T>) -> Result<T, String> {
    match m.get(key) {
        Some(mut p) => T::read(&mut p).map_err(|e| format!("field '{key}': {e}")),
        None => absent.ok_or_else(|| format!("missing field '{key}'")),
    }
}

/// `hello`'s `graph_digest`: exactly 16 lowercase hex digits, in quotes.
fn write_digest(out: &mut Vec<u8>, digest: u64) {
    out.push(b'"');
    for shift in (0..16).rev() {
        out.push(b"0123456789abcdef"[(digest >> (4 * shift)) as usize & 0xf]);
    }
    out.push(b'"');
}

/// `hello`'s `graph_digest`: exactly 16 hex digits.
fn read_digest(p: &mut Parser<'_>) -> Result<u64, String> {
    let bad = || "field 'graph_digest': not 16 hex digits".to_string();
    let text = p.read_str().ok_or_else(bad)?;
    if text.len() != 16 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(bad());
    }
    u64::from_str_radix(&text, 16).map_err(|_| bad())
}

/// One table row under its policy: how the field is written onto the
/// object `obj` (`put`) and read back from the index `m` (`take`). `hex`
/// and `flatten` are `hello`'s two irregular rows.
macro_rules! row {
    (put $obj:ident, $key:expr, $val:expr, omit $(($d:expr))?) => {
        if *$val != row!(default $($d)?) {
            put($obj, $key, $val)
        }
    };
    (put $obj:ident, $key:expr, $val:expr, hex) => {
        if let Some(digest) = $val {
            write_digest($obj.key($key), *digest)
        }
    };
    (put $obj:ident, $key:expr, $val:expr, flatten) => {
        if let Some(inner) = $val {
            inner.put($obj)
        }
    };
    (put $obj:ident, $key:expr, $val:expr, $policy:ident) => {
        put($obj, $key, $val)
    };
    (take $m:ident, $key:expr, req) => {
        take($m, $key, None)?
    };
    (take $m:ident, $key:expr, hex) => {
        match $m.get($key) {
            Some(mut p) => Some(read_digest(&mut p)?),
            None => None,
        }
    };
    (take $m:ident, $key:expr, flatten) => {
        match $m.get($key) {
            Some(_) => Some(Body::take($m)?),
            None => None,
        }
    };
    (take $m:ident, $key:expr, $policy:ident $(($d:expr))?) => {
        take($m, $key, Some(row!(default $($d)?)))?
    };
    (default) => {
        Default::default()
    };
    (default $d:expr) => {
        $d
    };
}

/// A row's wire key: the field's name, or the row's `as` rename.
macro_rules! key {
    ($f:ident) => {
        stringify!($f)
    };
    ($f:ident $key:literal) => {
        $key
    };
}

/// A reply struct's table: the struct, and its fields travelling flat in
/// row order.
macro_rules! message {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* $f:ident: $t:ty => $policy:ident $(($d:expr))? $(as $key:literal)?,)*
    }) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $f: $t,)*
        }

        impl Body for $name {
            fn put(&self, obj: &mut ObjWriter<'_>) {
                $(row!(put obj, key!($f $($key)?), &self.$f, $policy $(($d))?);)*
            }

            fn take(m: &Members<'_>) -> Result<Self, String> {
                Ok($name {
                    $($f: row!(take m, key!($f $($key)?), $policy $(($d))?),)*
                })
            }
        }
    };
}

/// The request table: each variant's `op` name, then its rows.
macro_rules! requests {
    ($(#[$meta:meta])* pub enum Request {
        $($(#[$vmeta:meta])* $variant:ident $op:literal $({
            $($(#[$fmeta:meta])* $f:ident: $t:ty => $policy:ident $(($d:expr))?,)*
        })?,)*
    }) => {
        $(#[$meta])*
        pub enum Request {
            $($(#[$vmeta])* $variant $({ $($(#[$fmeta])* $f: $t,)* })?,)*
        }

        impl Request {
            /// Append the request's line, newline included, to `out`.
            pub(crate) fn write_line(&self, out: &mut Vec<u8>) {
                let mut obj = ObjWriter::open(out);
                let o = &mut obj;
                match self {
                    $(Request::$variant $({ $($f),* })? => {
                        write_str(o.key("op"), $op);
                        $($(row!(put o, stringify!($f), $f, $policy $(($d))?);)*)?
                    })*
                }
                obj.close();
                out.push(b'\n');
            }

            fn decode(m: &Members<'_>) -> Result<Request, String> {
                let op = m.get("op").and_then(|mut p| p.read_str());
                Ok(match op.as_deref().ok_or("missing string field 'op'")? {
                    $($op => Request::$variant $({
                        $($f: row!(take m, stringify!($f), $policy $(($d))?),)*
                    })?,)*
                    other => return Err(format!("unknown op '{other}'")),
                })
            }
        }
    };
}

/// The reply table, in decode order: a line is the first variant whose
/// discriminating key it carries. A tuple variant names its payload. `when "k"`: the variant's fields travel
/// flat and `k` is one of them; `under "k"`: the payload is the value of
/// `k`; `marked "k"`: `"k":true` comes first, then the fields.
macro_rules! replies {
    ($(#[$meta:meta])* pub enum Reply {
        $($(#[$vmeta:meta])* $variant:ident $(($body:ident: $payload:ty))? $({
            $($(#[$fmeta:meta])* $f:ident: $t:ty => $policy:ident,)*
        })? $how:ident $key:literal,)*
    }) => {
        $(#[$meta])*
        pub enum Reply {
            $($(#[$vmeta])* $variant $(($payload))? $({ $($(#[$fmeta])* $f: $t,)* })?,)*
            /// The request failed; the connection stays usable.
            Error(String),
        }

        impl Reply {
            /// Append the reply's line, newline included, to `out`.
            pub(crate) fn write_line(&self, out: &mut Vec<u8>) {
                let mut obj = ObjWriter::open(out);
                let o = &mut obj;
                match self {
                    $(Reply::$variant $(($body))? $({ $($f),* })? => {
                        put(o, "ok", &true);
                        how!(put $how $key, o $(, $body)?);
                        $($(row!(put o, stringify!($f), $f, $policy);)*)?
                    })*
                    Reply::Error(msg) => {
                        put(o, "ok", &false);
                        put(o, "error", msg);
                    }
                }
                obj.close();
                out.push(b'\n');
            }

            fn decode(m: &Members<'_>) -> Result<Reply, String> {
                $(if m.get($key).is_some() {
                    return Ok(Reply::$variant $((how!(take $how $key, m, $payload)))? $({
                        $($f: row!(take m, stringify!($f), $policy),)*
                    })?);
                })*
                Err("unrecognized reply shape".into())
            }
        }
    };
}

/// A reply variant's discriminating key: see `replies!`.
macro_rules! how {
    (put when $key:literal, $obj:ident $(, $body:ident)?) => {
        $($body.put($obj))?
    };
    (put under $key:literal, $obj:ident, $body:ident) => {
        put($obj, $key, $body)
    };
    (put marked $key:literal, $obj:ident) => {
        put($obj, $key, &true)
    };
    (take when $key:literal, $m:ident, $t:ty) => {
        <$t as Body>::take($m)?
    };
    (take under $key:literal, $m:ident, $t:ty) => {
        take::<$t>($m, $key, None)?
    };
}

requests! {
    /// A decoded client request.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Request {
        /// One reverse k-ranks query for `node`.
        Query "query" {
            /// The query node id.
            node: u32 => req,
            /// Result size `k`.
            k: u32 => req,
            /// `false` bypasses the result cache for this request (both the
            /// lookup and the insert) — e.g. for measurement traffic.
            cache: bool => omit(true),
            /// Evaluation strategy name ([`rkranks_core::Strategy`] string
            /// form). `None` and the served strategy (dynamic with the
            /// daemon's configured bounds) are answered; any other name gets
            /// an error reply.
            strategy: Option<String> => omit,
            /// Best-effort deadline in milliseconds: when it elapses the
            /// daemon replies with the refined-so-far partial result
            /// ([`QueryReply::partial`]) instead of risking unbounded tail
            /// latency.
            deadline_ms: Option<u64> => omit,
        },
        /// Several queries amortizing one round-trip; each node is answered
        /// (and cached) exactly as a standalone `Query` would be.
        Batch "batch" {
            /// Query node ids, answered in order (at least one).
            nodes: Vec<u32> => req,
            /// Result size `k` shared by the batch.
            k: u32 => req,
        },
        /// Stage live graph updates (validated as a whole; committed before
        /// the reply on a prompt daemon, by the next `flush` otherwise).
        Update "update" {
            /// The deltas, staged atomically in order (at least one).
            ops: Vec<GraphDelta> => req,
        },
        /// Read the serving counters.
        Stats "stats",
        /// Read the full telemetry registry (counters, gauges, latency
        /// histograms) — the superset of `Stats`.
        Metrics "metrics",
        /// Read the slow-query ring buffer (empty unless the daemon runs
        /// with `--slow-query-ms`).
        SlowQueries "slow-queries",
        /// Commit staged graph updates now.
        Flush "flush",
        /// Persist the daemon's serving state as a snapshot bundle (no
        /// implicit commit — staged updates land in the bundle's WAL).
        /// Errors on daemons running without a snapshot path.
        Checkpoint "checkpoint",
        /// Stop the daemon (staged updates are committed first).
        Shutdown "shutdown",
        /// Identify the peer: protocol version, role, shard identity (when
        /// the daemon is one replica of a fleet), and the current epoch
        /// pair. The first thing a coordinator sends on a fresh shard
        /// connection.
        Hello "hello",
    }
}

impl Request {
    /// The request as it travels, terminating newline included.
    pub fn to_line(&self) -> String {
        line(|out| self.write_line(out))
    }

    /// The request's line as a [`Json`] tree, for a caller that wants one
    /// (the wire codec builds none).
    pub fn to_json(&self) -> Json {
        view(&self.to_line())
    }

    /// Decode one request line.
    pub fn from_line(line: &str) -> Result<Request, String> {
        let req = Request::decode(&Members::of_line(line)?)?;
        match &req {
            Request::Batch { nodes, .. } if nodes.is_empty() => {
                Err("'nodes' must contain at least one node".into())
            }
            Request::Update { ops } if ops.is_empty() => {
                Err("'ops' must contain at least one update".into())
            }
            _ => Ok(req),
        }
    }
}

/// A line `write` writes, in a buffer sized for the common messages.
fn line(write: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut out = Vec::with_capacity(LINE_CAPACITY);
    write(&mut out);
    String::from_utf8(out).expect("the writer writes UTF-8")
}

/// A written line read back as a tree. Panics on a message holding a
/// non-finite weight, which has no JSON form.
fn view(line: &str) -> Json {
    Json::parse(line).expect("the writer writes JSON")
}

message! {
    /// A successful single-query answer.
    #[derive(Clone, Debug, PartialEq)]
    pub struct QueryReply {
        /// `(node, rank)` pairs, best rank first.
        entries: Vec<(u32, u32)> => req as "result",
        /// Whether the result came from the cache.
        cached: bool => req,
        /// The index epoch the result was computed (or cached) against.
        epoch: u64 => req,
        /// The graph epoch the result was computed (or cached) against: two
        /// replies with different graph epochs answered against *different
        /// graphs*.
        graph_epoch: u64 => or_default,
        /// `true` when a deadline cut the query short: `entries` is the
        /// refined-so-far set (every rank in it is still exact), not the
        /// complete answer. Partial answers are never cached.
        partial: bool => omit,
    }
}

message! {
    /// A successful batch answer.
    #[derive(Clone, Debug, PartialEq)]
    pub struct BatchReply {
        /// Per-node `(node, rank)` result lists, in request order.
        results: Vec<Vec<(u32, u32)>> => req,
        /// How many of the batch's answers were cache hits.
        cached: u64 => req,
        /// The index epoch every answer saw (`rkrd` answers a batch from one
        /// live state).
        epoch: u64 => req,
        /// The graph epoch every answer saw.
        graph_epoch: u64 => or_default,
    }
}

message! {
    /// The serving counters returned by the `stats` op.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct StatsReply {
        /// Protocol generation the daemon speaks ([`PROTOCOL_VERSION`]).
        /// Decodes as 0 from daemons predating the field, which is exactly
        /// what lets the client turn a mixed deployment into a one-line
        /// version-mismatch error.
        v: u64 => or_default,
        /// Queries answered (batch ops count each node).
        queries: u64 => req,
        /// Result-cache hits: the count of
        /// `rkrd_query_seconds{outcome="hit"}`.
        cache_hits: u64 => req,
        /// Result-cache misses (lookups only; `cache:false` traffic counts
        /// neither a hit nor a miss).
        cache_misses: u64 => req,
        /// Entries currently cached.
        cache_entries: u64 => req,
        /// Entries evicted by LRU capacity pressure.
        cache_evictions: u64 => req,
        /// Entries evicted because their epoch went stale.
        cache_stale_evicted: u64 => req,
        /// Result-cache capacity (0 = caching disabled).
        cache_capacity: u64 => req,
        /// Approximate heap footprint of the cached results, in bytes
        /// (entry payloads plus per-slot bookkeeping).
        cache_bytes: u64 => req,
        /// Current index epoch ([`rkranks_core::RkrIndex::epoch`]).
        epoch: u64 => req,
        /// Commits of staged graph updates (a prompt daemon's `update`,
        /// `flush`, and shutdown): the count of `rkrd_merge_pass_seconds`.
        merges: u64 => req,
        /// Worker threads serving connections.
        workers: u64 => req,
        /// Queries answered with a partial (limit-tripped) result: the
        /// count of `rkrd_query_seconds{outcome="partial"}`.
        partial_results: u64 => req,
        /// Queries whose deadline elapsed before the search finished. The
        /// deadline is `rkrd`'s only limit, so this equals
        /// `partial_results`.
        deadline_exceeded: u64 => req,
        /// Current graph epoch (`rkranks_graph::GraphStore::graph_epoch`):
        /// bumps exactly when a committed update batch changed the graph —
        /// query-only traffic never moves it.
        graph_epoch: u64 => req,
        /// Commits that changed the graph (each bumped `graph_epoch`,
        /// published a fresh snapshot, and retired the index).
        graph_commits: u64 => req,
        /// Effective staged deltas committed into the live graph so far
        /// (staged deltas are not counted until their commit, and a batch's
        /// ops can collapse onto fewer effective deltas — e.g. removing and
        /// re-adding the same edge counts once).
        updates_applied: u64 => req,
        /// Nodes in the current graph snapshot.
        graph_nodes: u64 => req,
        /// Logical edges in the current graph snapshot.
        graph_edges: u64 => req,
        /// Accept-queue drains that ended in a real error — `EMFILE`/`ENFILE`
        /// fd exhaustion above all. Nonzero means clients are being turned
        /// away at the listener; raise the fd limit or shed connections.
        accept_errors: u64 => req,
        /// Completed event-loop wake-ups that surfaced ready work
        /// (`epoll_wait` returned at least one event): the count of
        /// `*_wake_drain_seconds`.
        wakeups: u64 => req,
        /// Times a connection crossed the write high-water mark and had its
        /// reads paused until the backlog drained.
        backpressure_pauses: u64 => req,
        /// Request lines rejected (connection closed) for exceeding the
        /// configured line cap.
        oversize_lines: u64 => req,
    }
}

message! {
    /// The place in a fleet a replica announces in its `hello`.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ShardIdentity {
        /// This daemon's shard index, in `0..shards`.
        index: u32 => req as "shard",
        /// Total shard count in the deployment's node→shard map.
        shards: u32 => req,
        /// The map's seed (all shards and the coordinator must agree).
        seed: u64 => req as "shard_seed",
    }
}

message! {
    /// Answer to a `hello` op: who the peer is and what it speaks.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct HelloReply {
        /// `"shard"` when serving in a fleet, `"coord"` for a
        /// coordinator, `"server"` for a plain single-box daemon.
        role: String => req,
        /// Protocol generation ([`PROTOCOL_VERSION`]).
        v: u64 => or_default,
        /// Current index epoch.
        epoch: u64 => req,
        /// Current graph epoch.
        graph_epoch: u64 => req,
        /// Nodes in the serving graph snapshot.
        nodes: u64 => req,
        /// Logical edges in the serving graph snapshot.
        edges: u64 => req,
        /// [`rkranks_graph::Graph::digest`] of the serving graph snapshot —
        /// what lets a coordinator tell replicas on different graphs apart.
        /// On the wire it is 16 lowercase hex digits (a JSON number cannot
        /// hold 64 bits). A daemon always sends it; a coordinator sends the
        /// digest it last verified across its fleet, and `None` before it
        /// has verified one.
        graph_digest: Option<u64> => hex,
        /// Shard identity, present exactly when `role == "shard"`; its
        /// fields travel flat in the `hello` reply.
        shard: Option<ShardIdentity> => flatten,
    }
}

message! {
    /// One captured slow query, as returned by the `slow-queries` op.
    ///
    /// The daemon records one of these for every query whose end-to-end
    /// service time reaches the `--slow-query-ms` threshold, into a
    /// fixed-size ring buffer (oldest records are overwritten).
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct SlowQueryRecord {
        /// The query node id.
        node: u32 => req,
        /// Result size `k`.
        k: u32 => req,
        /// Whether the answer came from the result cache.
        cached: bool => req,
        /// Index epoch the answer was computed (or cached) against.
        epoch: u64 => req,
        /// Graph epoch the answer was computed (or cached) against.
        graph_epoch: u64 => req,
        /// End-to-end service time in nanoseconds (parse to reply).
        total_ns: u64 => req,
        /// Nanoseconds in the SDS filter stage (0 for cache hits).
        filter_ns: u64 => req,
        /// Nanoseconds in rank refinement (0 for cache hits).
        refine_ns: u64 => req,
        /// Passes of the engine's kRank ladder (0 for cache hits) — with
        /// `k_rank_guess`, the usual answer to "why was this query slow":
        /// its true `kRank` is large.
        sds_passes: u64 => req,
        /// The `kRank` guess the accepted pass ran under (`u32::MAX`: the
        /// unbounded last rung; 0: none, e.g. a partial answer).
        k_rank_guess: u32 => req,
        /// `"complete"` or `"partial"` (deadline or budget tripped).
        completion: String => req,
    }
}

replies! {
    /// A decoded server reply.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Reply {
        /// Answer to a `query` op.
        Query(reply: QueryReply) when "result",
        /// Answer to a `batch` op.
        Batch(reply: BatchReply) when "results",
        /// Answer to a `stats` op.
        Stats(reply: StatsReply) under "stats",
        /// Answer to a `metrics` op: every registered instrument's reading,
        /// in registration order.
        Metrics(reply: MetricsSnapshot) under "metrics",
        /// Answer to a `slow-queries` op: captured records, oldest first.
        SlowQueries(reply: Vec<SlowQueryRecord>) under "slow_queries",
        /// Acknowledgement of a `shutdown` op.
        Shutdown marked "bye",
        /// Answer to a `hello` op: peer identity and protocol version.
        Hello(reply: HelloReply) when "role",
        /// Answer to an `update` op: the batch was validated and staged (a
        /// prompt daemon has committed it before replying; a flush-only one
        /// commits it at the next `flush`).
        Update {
            /// How many deltas this request staged.
            staged: u64 => req,
            /// The graph epoch the batch was staged at, *before* it commits
            /// (the commit publishes `graph_epoch + 1` if the batch changes
            /// the graph).
            graph_epoch: u64 => req,
        } when "staged",
        /// Answer to a `flush` op: the index epoch after the commit and how
        /// many staged graph deltas it committed.
        Flush {
            /// Index epoch after the commit.
            epoch: u64 => req,
            /// Staged graph deltas committed (0 = nothing was staged).
            merged: u64 => req,
        } when "merged",
        /// Answer to a `checkpoint` op: the snapshot bundle on disk now holds
        /// exactly this epoch pair.
        Checkpoint {
            /// Index epoch captured by the bundle.
            epoch: u64 => req,
            /// Graph epoch captured by the bundle.
            graph_epoch: u64 => req,
        } marked "checkpointed",
    }
}

impl Reply {
    /// The reply as it travels, terminating newline included.
    pub fn to_line(&self) -> String {
        line(|out| self.write_line(out))
    }

    /// The reply's line as a [`Json`] tree, for a caller that wants one
    /// (the wire codec builds none).
    pub fn to_json(&self) -> Json {
        view(&self.to_line())
    }

    /// Decode one reply line.
    pub fn from_line(line: &str) -> Result<Reply, String> {
        let m = Members::of_line(line)?;
        match m.get("ok").and_then(|mut p| p.read_bool()) {
            Some(true) => Reply::decode(&m),
            Some(false) => {
                let msg = m.get("error").and_then(|mut p| p.read_str());
                Ok(Reply::Error(msg.map_or_else(
                    || "unspecified server error".into(),
                    Cow::into_owned,
                )))
            }
            None => Err("missing boolean field 'ok'".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let line = req.to_json().render();
        assert_eq!(Request::from_line(&line).unwrap(), req, "line: {line}");
    }

    fn round_trip_reply(reply: Reply) {
        let line = reply.to_json().render();
        assert_eq!(Reply::from_line(&line).unwrap(), reply, "line: {line}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Query {
            node: 17,
            k: 10,
            cache: true,
            strategy: None,
            deadline_ms: None,
        });
        round_trip_request(Request::Query {
            node: 0,
            k: 1,
            cache: false,
            strategy: None,
            deadline_ms: None,
        });
        round_trip_request(Request::Query {
            node: 4,
            k: 3,
            cache: true,
            strategy: Some("dynamic-three".into()),
            deadline_ms: Some(25),
        });
        round_trip_request(Request::Query {
            node: 4,
            k: 3,
            cache: false,
            strategy: Some("naive".into()),
            deadline_ms: Some(0),
        });
        round_trip_request(Request::Batch {
            nodes: vec![3, 17, 5],
            k: 10,
        });
        round_trip_request(Request::Update {
            ops: vec![
                UpdateOp::AddNode,
                UpdateOp::AddEdge { u: 3, v: 9, w: 0.5 },
                UpdateOp::RemoveEdge { u: 1, v: 2 },
                UpdateOp::Reweight {
                    u: 4,
                    v: 5,
                    w: 2.25,
                },
            ],
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::SlowQueries);
        round_trip_request(Request::Flush);
        round_trip_request(Request::Checkpoint);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Hello);
    }

    #[test]
    fn hello_replies_round_trip() {
        round_trip_reply(Reply::Hello(HelloReply {
            v: PROTOCOL_VERSION,
            role: "server".into(),
            shard: None,
            epoch: 3,
            graph_epoch: 1,
            nodes: 150,
            edges: 1043,
            graph_digest: Some(u64::MAX),
        }));
        round_trip_reply(Reply::Hello(HelloReply {
            v: PROTOCOL_VERSION,
            role: "shard".into(),
            shard: Some(ShardIdentity {
                index: 1,
                shards: 4,
                seed: 0xC0FFEE,
            }),
            epoch: 0,
            graph_epoch: 2,
            nodes: 10,
            edges: 9,
            graph_digest: Some(0x0123_4567_89ab_cdef),
        }));
        round_trip_reply(Reply::Hello(HelloReply {
            v: PROTOCOL_VERSION,
            role: "coord".into(),
            shard: None,
            epoch: 0,
            graph_epoch: 0,
            nodes: 0,
            edges: 0,
            graph_digest: None,
        }));
    }

    /// The digest travels as 16 hex digits, leading zeros kept, and a
    /// line whose digest is anything else is refused, not misread.
    #[test]
    fn graph_digests_are_sixteen_hex_digits() {
        let hello = HelloReply {
            v: PROTOCOL_VERSION,
            role: "shard".into(),
            graph_digest: Some(0xbeef),
            ..HelloReply::default()
        };
        let line = Reply::Hello(hello).to_json().render();
        assert!(
            line.contains(r#""graph_digest":"000000000000beef""#),
            "{line}"
        );
        for bad in [
            "beef",
            "000000000000beeg",
            "0000000000000beef",
            "-00000000000beef",
        ] {
            let line = line.replace("000000000000beef", bad);
            assert!(Reply::from_line(&line).is_err(), "{line}");
        }
        let line = line.replace(
            r#""graph_digest":"000000000000beef""#,
            r#""graph_digest":48879"#,
        );
        assert!(Reply::from_line(&line).is_err(), "{line}");
    }

    #[test]
    fn version_skew_decodes_as_v0_not_a_parse_error() {
        // A stats reply from a daemon predating the `v` field: every
        // other counter present, `v` absent ⇒ decodes with v == 0 so
        // the client can render a mismatch error.
        let modern = Reply::Stats(StatsReply {
            v: PROTOCOL_VERSION,
            ..StatsReply::default()
        });
        let full = modern.to_json().render();
        let line = full.replace(&format!("\"v\":{PROTOCOL_VERSION},"), "");
        assert_ne!(line, full, "the version field was not stripped");
        match Reply::from_line(&line).unwrap() {
            Reply::Stats(s) => assert_eq!(s.v, 0),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn update_weights_survive_the_wire_exactly() {
        // weights are genuine floats; the wire must not round them
        let req = Request::Update {
            ops: vec![UpdateOp::AddEdge {
                u: 0,
                v: 1,
                w: 0.123456789,
            }],
        };
        let line = req.to_json().render();
        assert_eq!(Request::from_line(&line).unwrap(), req, "line: {line}");
    }

    #[test]
    fn replies_round_trip() {
        round_trip_reply(Reply::Query(QueryReply {
            entries: vec![(1, 2), (3, 2)],
            cached: true,
            epoch: 7,
            graph_epoch: 2,
            partial: false,
        }));
        round_trip_reply(Reply::Query(QueryReply {
            entries: vec![],
            cached: false,
            epoch: 0,
            graph_epoch: 0,
            partial: false,
        }));
        round_trip_reply(Reply::Query(QueryReply {
            entries: vec![(9, 1)],
            cached: false,
            epoch: 2,
            graph_epoch: 0,
            partial: true,
        }));
        round_trip_reply(Reply::Batch(BatchReply {
            results: vec![vec![(1, 1)], vec![]],
            cached: 1,
            epoch: 3,
            graph_epoch: 1,
        }));
        round_trip_reply(Reply::Stats(StatsReply {
            v: PROTOCOL_VERSION,
            queries: 12,
            cache_hits: 4,
            cache_misses: 8,
            cache_entries: 6,
            cache_evictions: 2,
            cache_stale_evicted: 1,
            cache_capacity: 64,
            cache_bytes: 4096,
            epoch: 3,
            merges: 2,
            workers: 4,
            partial_results: 3,
            deadline_exceeded: 2,
            graph_epoch: 1,
            graph_commits: 1,
            updates_applied: 7,
            graph_nodes: 150,
            graph_edges: 1043,
            accept_errors: 1,
            wakeups: 40,
            backpressure_pauses: 2,
            oversize_lines: 1,
        }));
        round_trip_reply(Reply::Update {
            staged: 3,
            graph_epoch: 1,
        });
        round_trip_reply(Reply::Flush {
            epoch: 4,
            merged: 2,
        });
        round_trip_reply(Reply::Checkpoint {
            epoch: 4,
            graph_epoch: 1,
        });
        round_trip_reply(Reply::Shutdown);
        round_trip_reply(Reply::Error("k = 9 exceeds the index's K = 4".into()));
    }

    #[test]
    fn metrics_replies_round_trip() {
        use rkranks_core::{HistogramSnapshot, MetricSample, MetricValue, MetricsSnapshot};
        round_trip_reply(Reply::Metrics(MetricsSnapshot { samples: vec![] }));
        round_trip_reply(Reply::Metrics(MetricsSnapshot {
            samples: vec![
                MetricSample {
                    name: "rkrd_queries_total".into(),
                    labels: vec![],
                    help: "queries answered".into(),
                    value: MetricValue::Counter(12),
                },
                MetricSample {
                    name: "rkrd_cache_entries".into(),
                    labels: vec![],
                    help: "entries cached".into(),
                    value: MetricValue::Gauge(6),
                },
                MetricSample {
                    name: "rkrd_query_seconds".into(),
                    labels: vec![("outcome".into(), "miss".into())],
                    help: "end-to-end query latency".into(),
                    value: MetricValue::Histogram(HistogramSnapshot {
                        count: 3,
                        sum: 4500,
                        scale: 1e-9,
                        buckets: vec![(95, 1), (223, 2)],
                    }),
                },
            ],
        }));
    }

    #[test]
    fn overflow_bucket_bound_survives_the_wire() {
        use rkranks_core::{HistogramSnapshot, MetricSample, MetricValue, MetricsSnapshot};
        // The histogram's overflow bucket has upper bound u64::MAX; the
        // hand-rolled JSON layer must round-trip it (via saturation).
        round_trip_reply(Reply::Metrics(MetricsSnapshot {
            samples: vec![MetricSample {
                name: "rkrd_conn_backlog_bytes".into(),
                labels: vec![],
                help: "backlog high-water".into(),
                value: MetricValue::Histogram(HistogramSnapshot {
                    count: 1,
                    sum: u64::MAX,
                    scale: 1.0,
                    buckets: vec![(u64::MAX, 1)],
                }),
            }],
        }));
    }

    #[test]
    fn slow_query_replies_round_trip() {
        round_trip_reply(Reply::SlowQueries(vec![]));
        round_trip_reply(Reply::SlowQueries(vec![
            SlowQueryRecord {
                node: 17,
                k: 10,
                cached: false,
                epoch: 3,
                graph_epoch: 1,
                total_ns: 51031,
                filter_ns: 40100,
                refine_ns: 9000,
                sds_passes: 7,
                k_rank_guess: u32::MAX,
                completion: "complete".into(),
            },
            SlowQueryRecord {
                node: 2,
                k: 1,
                cached: true,
                epoch: 0,
                graph_epoch: 0,
                total_ns: 12,
                filter_ns: 0,
                refine_ns: 0,
                sds_passes: 0,
                k_rank_guess: 0,
                completion: "partial".into(),
            },
        ]));
    }

    #[test]
    fn bad_metrics_replies_are_errors() {
        for line in [
            r#"{"ok":true,"metrics":7}"#,
            r#"{"ok":true,"metrics":[{"help":"x","type":"counter","value":1}]}"#,
            r#"{"ok":true,"metrics":[{"name":"x","help":"x","type":"blob","value":1}]}"#,
            r#"{"ok":true,"metrics":[{"name":"x","help":"x","type":"counter"}]}"#,
            r#"{"ok":true,"metrics":[{"name":"x","help":"x","type":"histogram","count":1,"sum":2,"scale":1.0}]}"#,
            r#"{"ok":true,"metrics":[{"name":"x","help":"x","type":"histogram","count":1,"sum":2,"scale":1.0,"buckets":[[1]]}]}"#,
            r#"{"ok":true,"metrics":[{"name":"x","help":"x","labels":[],"type":"counter","value":1}]}"#,
            r#"{"ok":true,"slow_queries":{}}"#,
            r#"{"ok":true,"slow_queries":[{"node":1}]}"#,
        ] {
            assert!(Reply::from_line(line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn missing_optional_query_fields_default() {
        let req = Request::from_line(r#"{"op":"query","node":1,"k":2}"#).unwrap();
        assert_eq!(
            req,
            Request::Query {
                node: 1,
                k: 2,
                cache: true,
                strategy: None,
                deadline_ms: None,
            }
        );
    }

    #[test]
    fn missing_partial_field_defaults_to_complete() {
        // Replies from daemons predating the partial flag stay decodable.
        let reply =
            Reply::from_line(r#"{"ok":true,"result":[[1,2]],"cached":false,"epoch":0}"#).unwrap();
        assert_eq!(
            reply,
            Reply::Query(QueryReply {
                entries: vec![(1, 2)],
                cached: false,
                epoch: 0,
                graph_epoch: 0,
                partial: false,
            })
        );
    }

    #[test]
    fn bad_requests_are_errors() {
        for line in [
            "",
            "not json",
            r#"{"node":1,"k":2}"#,
            r#"{"op":"query","k":2}"#,
            r#"{"op":"query","node":1}"#,
            r#"{"op":"query","node":-1,"k":2}"#,
            r#"{"op":"query","node":1.5,"k":2}"#,
            r#"{"op":"query","node":1,"k":2,"deadline_ms":-4}"#,
            r#"{"op":"query","node":1,"k":2,"deadline_ms":1.5}"#,
            r#"{"op":"query","node":1,"k":2,"strategy":7}"#,
            r#"{"op":"batch","k":2}"#,
            r#"{"op":"batch","nodes":[1,"x"],"k":2}"#,
            r#"{"op":"batch","nodes":[],"k":2}"#,
            r#"{"op":"explode"}"#,
            r#"{"op":"update"}"#,
            r#"{"op":"update","ops":[]}"#,
            r#"{"op":"update","ops":["add"]}"#,
            r#"{"op":"update","ops":[["boom",1,2]]}"#,
            r#"{"op":"update","ops":[["add",1,2]]}"#,
            r#"{"op":"update","ops":[["add",1,2,"x"]]}"#,
            r#"{"op":"update","ops":[["add",-1,2,1.0]]}"#,
            r#"{"op":"update","ops":[["rm",1]]}"#,
            r#"{"op":"update","ops":[["rm",1,2,3]]}"#,
            r#"{"op":"update","ops":[["add-node",1]]}"#,
            r#"{"op":"update","ops":[["reweight",1,2]]}"#,
            // a present field of the wrong type is an error, not its default
            r#"{"op":"query","node":1,"k":5,"cache":0}"#,
            r#"{"op":"query","node":1,"k":5,"cache":"false"}"#,
            r#"{"op":"query","node":1,"k":5,"cache":null}"#,
        ] {
            assert!(Request::from_line(line).is_err(), "accepted {line:?}");
        }
    }

    fn query(node: u32, k: u32) -> Request {
        Request::Query {
            node,
            k,
            cache: true,
            strategy: None,
            deadline_ms: None,
        }
    }

    #[test]
    fn duplicate_keys_read_their_first_occurrence() {
        let req = Request::from_line(r#"{"op":"query","node":1,"k":2,"node":5,"op":"stats"}"#);
        assert_eq!(req, Ok(query(1, 2)));
        let line =
            r#"{"ok":true,"result":[[1,2]],"result":"x","cached":false,"epoch":3,"ok":false}"#;
        match Reply::from_line(line) {
            Ok(Reply::Query(q)) => assert_eq!((q.entries, q.epoch), (vec![(1, 2)], 3)),
            other => panic!("{other:?}"),
        }
        let stats = Reply::Stats(StatsReply {
            queries: 1,
            ..StatsReply::default()
        })
        .to_line();
        let nested = stats.replace(r#""queries":1,"#, r#""queries":1,"queries":"x","#);
        assert_ne!(nested, stats);
        match Reply::from_line(&nested) {
            Ok(Reply::Stats(s)) => assert_eq!(s.queries, 1),
            other => panic!("{other:?}"),
        }
        let sample = r#"{"ok":true,"metrics":[{"name":"a","name":7,"help":"h","type":"gauge","value":4,"value":"x"}]}"#;
        match Reply::from_line(sample) {
            Ok(Reply::Metrics(m)) => {
                assert_eq!(m.samples[0].name, "a");
                assert_eq!(m.samples[0].value, MetricValue::Gauge(4));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_keys_are_skipped_whatever_they_hold() {
        let line = r#"{"x":{"a":[1,{"b":null,"c":[true,false]}],"d":"\"}"},"op":"query","y":[],"node":1,"k":2,"z":-0.5e3}"#;
        assert_eq!(Request::from_line(line), Ok(query(1, 2)));
        let line = r#"{"ok":true,"note":{"x":[[]]},"staged":2,"graph_epoch":1,"more":"y"}"#;
        assert_eq!(
            Reply::from_line(line),
            Ok(Reply::Update {
                staged: 2,
                graph_epoch: 1
            })
        );
    }

    #[test]
    fn whitespace_is_accepted_between_every_pair_of_tokens() {
        let ws = " \t\r\n ";
        let spaced = |tokens: &[&str]| format!("{ws}{}{ws}", tokens.join(ws));
        let req = spaced(&[
            "{",
            r#""op""#,
            ":",
            r#""query""#,
            ",",
            r#""node""#,
            ":",
            "17",
            ",",
            r#""k""#,
            ":",
            "10",
            ",",
            r#""cache""#,
            ":",
            "false",
            "}",
        ]);
        let mut want = query(17, 10);
        if let Request::Query { cache, .. } = &mut want {
            *cache = false;
        }
        assert_eq!(Request::from_line(&req), Ok(want));
        let req = spaced(&[
            "{",
            r#""op""#,
            ":",
            r#""update""#,
            ",",
            r#""ops""#,
            ":",
            "[",
            "[",
            r#""add""#,
            ",",
            "1",
            ",",
            "2",
            ",",
            "0.5",
            "]",
            ",",
            "[",
            r#""add-node""#,
            "]",
            "]",
            "}",
        ]);
        assert_eq!(
            Request::from_line(&req),
            Ok(Request::Update {
                ops: vec![UpdateOp::AddEdge { u: 1, v: 2, w: 0.5 }, UpdateOp::AddNode],
            })
        );
        let reply = spaced(&[
            "{",
            r#""ok""#,
            ":",
            "true",
            ",",
            r#""result""#,
            ":",
            "[",
            "[",
            "1",
            ",",
            "2",
            "]",
            ",",
            "[",
            "3",
            ",",
            "4",
            "]",
            "]",
            ",",
            r#""cached""#,
            ":",
            "true",
            ",",
            r#""epoch""#,
            ":",
            "7",
            "}",
        ]);
        assert_eq!(
            Reply::from_line(&reply),
            Ok(Reply::Query(QueryReply {
                entries: vec![(1, 2), (3, 4)],
                cached: true,
                epoch: 7,
                graph_epoch: 0,
                partial: false,
            }))
        );
    }

    #[test]
    fn escaped_keys_and_strings_read_unescaped() {
        assert_eq!(
            Request::from_line(r#"{"\u006fp":"stats"}"#),
            Ok(Request::Stats)
        );
        assert_eq!(
            Request::from_line(r#"{"\u006f\u0070":"query","n\u006fde":4,"k":1,"node":9}"#),
            Ok(query(4, 1))
        );
        assert_eq!(
            Request::from_line(r#"{"op":"\u0073tats"}"#),
            Ok(Request::Stats)
        );
        let line = r#"{"ok":false,"error":"a\"b\\c\né"}"#;
        assert_eq!(
            Reply::from_line(line),
            Ok(Reply::Error("a\"b\\c\né".into()))
        );
        let line = r#"{"ok":true,"metrics":[{"name":"x","help":"","labels":{"k\u0031":"v\t"},"type":"counter","value":1}]}"#;
        match Reply::from_line(line) {
            Ok(Reply::Metrics(m)) => {
                assert_eq!(m.samples[0].name, "x");
                assert_eq!(m.samples[0].labels, vec![("k1".into(), "v\t".into())]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn integers_read_by_value_not_by_spelling() {
        let read =
            |node: &str| Request::from_line(&format!(r#"{{"op":"query","node":{node},"k":3e0}}"#));
        assert_eq!(read("3.0"), Ok(query(3, 3)));
        assert_eq!(read("3e0"), Ok(query(3, 3)));
        assert_eq!(read("30E-1"), Ok(query(3, 3)));
        assert_eq!(read("4294967295"), Ok(query(u32::MAX, 3)));
        for bad in ["-1", "3.5", "4294967296", "1e10"] {
            let err = read(bad).unwrap_err();
            assert!(err.contains("'node'"), "{bad}: {err}");
        }
    }

    #[test]
    fn unknown_values_obey_the_nesting_cap() {
        // the message object is level 1, so `depth` arrays under it reach
        // level `depth + 1`
        let line = |depth: usize| {
            format!(
                r#"{{"op":"stats","x":{}{}}}"#,
                "[".repeat(depth),
                "]".repeat(depth)
            )
        };
        assert_eq!(Request::from_line(&line(31)), Ok(Request::Stats));
        let err = Request::from_line(&line(32)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let reply = format!(
            r#"{{"ok":true,"bye":true,"x":{}1{}}}"#,
            r#"{"a":"#.repeat(32),
            "}".repeat(32)
        );
        assert!(Reply::from_line(&reply).unwrap_err().contains("nesting"));
    }

    #[test]
    fn a_wrong_typed_field_is_an_error_naming_it() {
        for (line, key) in [
            (r#"{"op":"query","node":"1","k":2}"#, "node"),
            (r#"{"op":"query","node":1,"k":[2]}"#, "k"),
            (
                r#"{"op":"query","node":1,"k":2,"deadline_ms":"5"}"#,
                "deadline_ms",
            ),
            (r#"{"op":"batch","nodes":7,"k":2}"#, "nodes"),
            (r#"{"op":"update","ops":[["add",1,2,"w"]]}"#, "ops"),
        ] {
            let err = Request::from_line(line).unwrap_err();
            assert!(err.contains(&format!("'{key}'")), "{line}: {err}");
        }
        for (line, key) in [
            (
                r#"{"ok":true,"result":[[1,2]],"cached":false,"epoch":"1"}"#,
                "epoch",
            ),
            (
                r#"{"ok":true,"result":{},"cached":false,"epoch":1}"#,
                "result",
            ),
            (r#"{"ok":true,"stats":[]}"#, "stats"),
            (
                r#"{"ok":true,"staged":2,"graph_epoch":null}"#,
                "graph_epoch",
            ),
            (
                r#"{"ok":true,"role":"shard","epoch":0,"graph_epoch":0,"nodes":1,"edges":0,"shard":1,"shards":true,"shard_seed":0}"#,
                "shards",
            ),
        ] {
            let err = Reply::from_line(line).unwrap_err();
            assert!(err.contains(&format!("'{key}'")), "{line}: {err}");
        }
    }

    #[test]
    fn bad_replies_are_errors() {
        for line in [
            "{}",
            r#"{"ok":true}"#,
            r#"{"ok":true,"result":[[1]]}"#,
            // a present field of the wrong type is an error, not its default
            r#"{"ok":true,"result":[[1,2]],"cached":false,"epoch":0,"partial":1}"#,
            r#"{"ok":true,"result":[[1,2]],"cached":false,"epoch":0,"graph_epoch":"3"}"#,
            r#"{"ok":true,"results":[[[1,2]]],"cached":0,"epoch":0,"graph_epoch":"3"}"#,
            r#"{"ok":true,"role":"server","v":"7","epoch":0,"graph_epoch":0,"nodes":1,"edges":0}"#,
        ] {
            assert!(Reply::from_line(line).is_err(), "accepted {line:?}");
        }
    }
}
