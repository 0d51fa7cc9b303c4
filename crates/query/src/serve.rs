//! The serve loop: a long-lived, snapshot-isolated query service.
//!
//! This is the step from *library* to *service*: one shared store
//! ([`SharedState`]), one shared [`Executor`] (whose engine caches are
//! `Sync` and sharded), and a thread-per-connection TCP server speaking
//! a line-delimited JSON protocol. Every request line is one JSON
//! object; every response is one JSON object on one line.
//!
//! Requests (`cmd` selects the verb):
//!
//! * `{"cmd":"query","query":"F(x, y)","domain":"nat"}` — pin the
//!   current snapshot, execute, return rows. `domain` is optional
//!   (inferred from the query's symbols when absent).
//! * `{"cmd":"explain","query":…,"domain":…}` — the plan explanation
//!   plus execution statistics for the pinned snapshot.
//! * `{"cmd":"ingest","relation":"R","rows":[[{"Nat":1},{"Str":"a"}]]}`
//!   — batch-ingest tuples and atomically publish the next epoch.
//! * `{"cmd":"snapshot-info"}` — store identity, epoch, dictionary and
//!   per-relation row counts, shared plan/engine cache counters; on a
//!   durable store also a `durability` object (fsync policy, delta-log
//!   length, last-compaction epoch — see [`wal_info_json`]).
//!
//! Responses carry `"ok":true` plus verb-specific fields, or
//! `"ok":false,"error":…` — a malformed line never kills a connection.
//! Rejected ingests additionally carry structured diagnostics
//! (`error_kind`, the offending relation, the declared and supplied
//! arity), so a loader can repair its batch without parsing prose.
//!
//! When the store was opened durably
//! ([`SharedState::create_durable`] / [`SharedState::open_durable`]),
//! every published epoch is appended to the epoch-delta log *before*
//! it becomes visible to readers, and a SIGKILLed server recovers on
//! restart to the last fully-published epoch with a bit-identical
//! content fingerprint.
//!
//! Isolation contract (proved by `prop_serve`): a query executes
//! against the snapshot pinned when its request arrived; concurrent
//! ingests publish whole batches at new epochs and never perturb
//! in-flight readers. The `epoch` field of each response says exactly
//! which published state the answer is from.

use crate::error::QueryError;
use crate::exec::{Completeness, Executor, QueryOutcome};
use crate::registry::DomainId;
use fq_json::{FromJson, JsonError, ToJson, Value as Json};
use fq_logic::parse_formula;
use fq_relational::{SharedState, Snapshot, StateError, Value, WalInfo};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;

/// The transport-agnostic request handler: one shared store, one shared
/// executor. [`Server`] feeds it TCP lines; tests can call
/// [`QueryService::handle_line`] directly.
#[derive(Clone)]
pub struct QueryService {
    shared: Arc<SharedState>,
    executor: Executor,
}

impl QueryService {
    pub fn new(shared: Arc<SharedState>, executor: Executor) -> Self {
        QueryService { shared, executor }
    }

    /// The store this service answers from.
    pub fn shared(&self) -> &Arc<SharedState> {
        &self.shared
    }

    /// The executor (and thus engine caches) shared by every request.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Handle one request line, returning one response line (no
    /// trailing newline). Never panics on malformed input.
    pub fn handle_line(&self, line: &str) -> String {
        respond(self.handle(line))
    }

    fn handle(&self, line: &str) -> Result<Json, Json> {
        let request =
            fq_json::parse(line).map_err(|e| err_text(format!("malformed request: {e}")))?;
        let cmd = request
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| err_text("missing `cmd`"))?;
        match cmd {
            "query" => self.handle_query(&request),
            "explain" => self.handle_explain(&request),
            "ingest" => self.handle_ingest(&request),
            "snapshot-info" => Ok(self.snapshot_info()),
            other => Err(err_text(format!(
                "unknown cmd `{other}` (expected query|explain|ingest|snapshot-info)"
            ))),
        }
    }

    /// Resolve the query + domain of a request, inferring the domain
    /// from the query's symbols when the field is absent.
    fn query_and_domain(&self, request: &Json) -> Result<(String, DomainId), Json> {
        let source = request
            .get("query")
            .and_then(Json::as_str)
            .ok_or_else(|| err_text("missing `query`"))?
            .to_string();
        let domain = match request.get("domain").and_then(Json::as_str) {
            Some(name) => DomainId::parse(name).map_err(err_text)?,
            None => DomainId::infer(&parse_formula(&source).map_err(err_text)?),
        };
        Ok((source, domain))
    }

    fn handle_query(&self, request: &Json) -> Result<Json, Json> {
        let (source, domain) = self.query_and_domain(request)?;
        let snapshot = self.shared.snapshot();
        let out = self
            .executor
            .execute_snapshot(&snapshot, &source, domain)
            .map_err(|e: QueryError| err_text(e))?;
        Ok(fq_json::object([
            ("epoch", snapshot.epoch().to_json()),
            ("domain", domain.key().to_json()),
            ("strategy", out.plan.strategy().to_json()),
            ("vars", out.vars.to_json()),
            ("rows", out.rows.to_json()),
            ("completeness", completeness_json(&out.completeness)),
            ("plan_cached", out.stats.plan_cached.to_json()),
        ]))
    }

    fn handle_explain(&self, request: &Json) -> Result<Json, Json> {
        let (source, domain) = self.query_and_domain(request)?;
        let snapshot = self.shared.snapshot();
        let (planned, _) = self
            .executor
            .plan(&snapshot, &source, domain)
            .map_err(err_text)?;
        let out = self
            .executor
            .execute_snapshot(&snapshot, &source, domain)
            .map_err(err_text)?;
        Ok(fq_json::object([
            ("epoch", snapshot.epoch().to_json()),
            ("domain", domain.key().to_json()),
            ("strategy", out.plan.strategy().to_json()),
            ("explain", planned.explain().to_json()),
            ("rows", out.rows.len().to_json()),
            ("stats", stats_json(&out)),
        ]))
    }

    fn handle_ingest(&self, request: &Json) -> Result<Json, Json> {
        let relation = request
            .get("relation")
            .and_then(Json::as_str)
            .ok_or_else(|| err_text("missing `relation`"))?;
        let rows: Vec<Vec<Value>> = request
            .get("rows")
            .ok_or_else(|| err_text("missing `rows`"))
            .and_then(|v| {
                FromJson::from_json(v).map_err(|e: JsonError| err_text(format!("bad `rows`: {e}")))
            })?;
        // A rejected ingest surfaces the `StateError` diagnostic
        // verbatim plus its structured fields: a durable-ingest client
        // can see *which* relation and arity went wrong, not just that
        // something did.
        let (added, epoch) = self
            .shared
            .ingest(relation, rows)
            .map_err(|e| state_error_json(&e))?;
        // Report the published state's canonical on-disk size so
        // ingesting clients can track snapshot growth per batch.
        let snapshot = self.shared.snapshot();
        Ok(fq_json::object([
            ("added", added.to_json()),
            ("epoch", epoch.to_json()),
            ("format", Json::Str(fq_relational::FORMAT_ID.to_string())),
            (
                "snapshot_bytes",
                fq_relational::format::snapshot_len(snapshot.state()).to_json(),
            ),
        ]))
    }

    /// The `snapshot-info` payload: identity, storage shape, the
    /// shared-cache counters every connection aggregates into — and,
    /// on a durable store, the `durability` object (fsync policy, log
    /// length, last-compaction epoch).
    pub fn snapshot_info(&self) -> Json {
        let snapshot = self.shared.snapshot();
        let mut info = snapshot_info_json(&snapshot, &self.executor);
        if let Some(wal) = self.shared.wal_info() {
            if let Json::Object(members) = &mut info {
                members.push(("durability".to_string(), wal_info_json(&wal)));
            }
        }
        info
    }
}

/// One response line: `"ok":true` plus the verb's fields, or
/// `"ok":false` plus the error payload, which always carries `error`
/// (the diagnostic, verbatim) and may carry structured fields
/// (`error_kind`, the offending relation/arity, …).
fn respond(result: Result<Json, Json>) -> String {
    let (ok, fields) = match result {
        Ok(fields) => (true, fields),
        Err(error) => (false, error),
    };
    let mut members = vec![("ok".to_string(), Json::Bool(ok))];
    if let Json::Object(fields) = fields {
        members.extend(fields);
    }
    Json::Object(members).to_compact()
}

/// An error payload carrying only the diagnostic text.
fn err_text(message: impl ToString) -> Json {
    fq_json::object([("error", Json::Str(message.to_string()))])
}

/// The structured error payload for a rejected ingest: the
/// [`StateError`] diagnostic verbatim in `error`, a stable machine-
/// readable `error_kind`, and the variant's fields flattened in.
fn state_error_json(error: &StateError) -> Json {
    let mut members = vec![("error".to_string(), Json::Str(error.to_string()))];
    let mut push = |k: &str, v: Json| members.push((k.to_string(), v));
    match error {
        StateError::UnknownRelation { relation } => {
            push("error_kind", Json::Str("unknown_relation".into()));
            push("relation", Json::Str(relation.clone()));
        }
        StateError::ArityMismatch {
            relation,
            expected,
            got,
        } => {
            push("error_kind", Json::Str("arity_mismatch".into()));
            push("relation", Json::Str(relation.clone()));
            push("expected", expected.to_json());
            push("got", got.to_json());
        }
        StateError::UnknownConstant { name } => {
            push("error_kind", Json::Str("unknown_constant".into()));
            push("constant", Json::Str(name.clone()));
        }
        StateError::SnapshotMagic | StateError::SnapshotVersion { .. } => {
            push("error_kind", Json::Str("snapshot_format".into()));
        }
        StateError::SnapshotCorrupt { .. } => {
            push("error_kind", Json::Str("snapshot_corrupt".into()));
        }
        StateError::WalCorrupt { .. } => {
            push("error_kind", Json::Str("wal_corrupt".into()));
        }
        StateError::Io { .. } => {
            push("error_kind", Json::Str("io".into()));
        }
    }
    Json::Object(members)
}

/// The `durability` object of `snapshot-info`: where the log lives,
/// how hard it fsyncs, and how far compaction has folded it.
pub fn wal_info_json(info: &WalInfo) -> Json {
    fq_json::object([
        ("format", Json::Str(fq_relational::DELTA_FORMAT_ID.into())),
        ("policy", Json::Str(info.durability.key().to_string())),
        ("data_dir", Json::Str(info.data_dir.display().to_string())),
        ("base_epoch", info.base_epoch.to_json()),
        (
            "last_compaction_epoch",
            info.last_compaction_epoch.to_json(),
        ),
        ("compactions", info.compactions.to_json()),
        ("segments", info.segments.to_json()),
        ("log_bytes", info.log_bytes.to_json()),
        ("appended", info.appended.to_json()),
        ("compacting", Json::Bool(info.compacting)),
    ])
}

/// The `snapshot-info` fields for one pinned snapshot, shared with the
/// CLI's `fq explain` so both surfaces print identical facts.
///
/// `fingerprint` is the O(1)-amortized content hash plan caches key on,
/// `format`/`snapshot_bytes` describe the canonical on-disk columnar
/// serialization of this snapshot — together they let a client detect
/// a stale local snapshot (fingerprint mismatch) and size a refresh
/// without transferring anything.
pub fn snapshot_info_json(snapshot: &Snapshot, executor: &Executor) -> Json {
    let relations = Json::Object(
        snapshot
            .schema()
            .relations()
            .map(|(name, _)| (name.to_string(), snapshot.relation_size(name).to_json()))
            .collect(),
    );
    let (plan_hits, plan_misses) = executor.plan_cache_stats();
    let (engine_hits, engine_misses) = executor.engine().cache_stats();
    fq_json::object([
        ("store", snapshot.store_id().to_json()),
        ("epoch", snapshot.epoch().to_json()),
        (
            "fingerprint",
            Json::Str(format!("{:#034x}", snapshot.fingerprint())),
        ),
        ("format", Json::Str(fq_relational::FORMAT_ID.to_string())),
        (
            "snapshot_bytes",
            fq_relational::format::snapshot_len(snapshot.state()).to_json(),
        ),
        ("dict_entries", snapshot.dict().len().to_json()),
        ("dict_strings", snapshot.dict().strings().to_json()),
        ("stored_rows", snapshot.size().to_json()),
        ("relations", relations),
        (
            "plan_cache",
            fq_json::object([
                ("hits", plan_hits.to_json()),
                ("misses", plan_misses.to_json()),
            ]),
        ),
        (
            "engine_cache",
            fq_json::object([
                ("hits", engine_hits.to_json()),
                ("misses", engine_misses.to_json()),
            ]),
        ),
    ])
}

fn completeness_json(completeness: &Completeness) -> Json {
    match completeness {
        Completeness::Certified => Json::Str("certified".to_string()),
        Completeness::CertifiedRanf {
            infinite,
            restrictor_rows,
        } => fq_json::object([(
            "certified_ranf",
            fq_json::object([
                ("infinite", infinite.to_json()),
                ("restrictor_rows", restrictor_rows.to_json()),
            ]),
        )]),
        Completeness::Decided { value } => fq_json::object([("decided", value.to_json())]),
        Completeness::Partial {
            candidates_tried,
            max_candidates,
        } => fq_json::object([(
            "partial",
            fq_json::object([
                ("candidates_tried", candidates_tried.to_json()),
                ("max_candidates", max_candidates.to_json()),
            ]),
        )]),
    }
}

fn stats_json(out: &QueryOutcome) -> Json {
    fq_json::object([
        ("plan_cached", out.stats.plan_cached.to_json()),
        ("plan_hits", out.stats.plan_hits.to_json()),
        ("plan_misses", out.stats.plan_misses.to_json()),
        ("engine_hits", out.stats.engine_hits.to_json()),
        ("engine_misses", out.stats.engine_misses.to_json()),
        ("stored_rows", out.stats.stored_rows.to_json()),
        ("threads", out.stats.threads.to_json()),
    ])
}

/// Thread-per-connection TCP server over a [`QueryService`].
pub struct Server {
    listener: TcpListener,
    service: Arc<QueryService>,
}

impl Server {
    /// Bind to `addr` (use port 0 to let the OS pick a free port).
    pub fn bind(service: QueryService, addr: impl ToSocketAddrs) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service: Arc::new(service),
        })
    }

    /// The bound address (the chosen port when bound to port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept connections forever, one thread per connection. Each
    /// connection reads request lines and writes one response line per
    /// request; the thread exits when the client disconnects.
    ///
    /// A failed accept or thread spawn concerns one connection, not the
    /// server: it is reported on stderr and the loop keeps listening,
    /// after a short pause so that a persistent error (EMFILE while
    /// every descriptor is taken) does not spin.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            let service = Arc::clone(&self.service);
            let served = stream.and_then(|stream| {
                std::thread::Builder::new().spawn(move || {
                    let _ = serve_connection(&service, stream);
                })
            });
            if let Err(e) = served {
                eprintln!("fq serve: connection not served: {e}");
                std::thread::sleep(ACCEPT_RETRY_PAUSE);
            }
        }
        Ok(())
    }

    /// [`Server::run`] on a background thread, returning the bound
    /// address — the test and benchmark entry point.
    pub fn spawn(self) -> io::Result<SocketAddr> {
        let addr = self.local_addr()?;
        std::thread::spawn(move || {
            let _ = self.run();
        });
        Ok(addr)
    }
}

/// How long [`Server::run`] pauses after a connection it could not
/// serve.
const ACCEPT_RETRY_PAUSE: std::time::Duration = std::time::Duration::from_millis(50);

/// The longest request line a connection reads (newline excluded). A
/// longer line gets one error response and is skipped up to its newline,
/// so a client that never sends one cannot grow the buffer until
/// allocation fails and aborts the server.
const MAX_LINE_BYTES: usize = 16 << 20;

fn serve_connection(service: &QueryService, stream: TcpStream) -> io::Result<()> {
    // The protocol is strictly request/response, one line each way;
    // Nagle's algorithm would hold every response hostage to the next
    // write (~40 ms per round trip on loopback).
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // Raw lines, so that a line which is not UTF-8 gets an error
    // response like any other malformed request instead of ending the
    // connection.
    let mut line = Vec::new();
    loop {
        line.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        if (&mut reader).take(limit).read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        let text = line.strip_suffix(b"\n").unwrap_or(&line);
        let text = text.strip_suffix(b"\r").unwrap_or(text);
        let response = match std::str::from_utf8(text) {
            _ if text.len() > MAX_LINE_BYTES => {
                reader.skip_until(b'\n')?;
                respond(Err(err_text(format!(
                    "request line exceeds {MAX_LINE_BYTES} bytes"
                ))))
            }
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => service.handle_line(text),
            Err(e) => respond(Err(err_text(format!(
                "request is not UTF-8 (invalid byte at offset {})",
                e.valid_up_to()
            )))),
        };
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
}

/// A minimal blocking client for the line/JSON protocol, used by the
/// integration tests, `bench_serve`, and scripting.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Send one raw request line, wait for the one response line.
    pub fn request_raw(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// Send a request value, parse the response value.
    pub fn request(&mut self, request: &Json) -> io::Result<Json> {
        let response = self.request_raw(&request.to_compact())?;
        fq_json::parse(&response)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// `query` convenience; `domain` falls back to symbol inference.
    pub fn query(&mut self, query: &str, domain: Option<&str>) -> io::Result<Json> {
        let mut members = vec![
            ("cmd".to_string(), Json::Str("query".to_string())),
            ("query".to_string(), Json::Str(query.to_string())),
        ];
        if let Some(d) = domain {
            members.push(("domain".to_string(), Json::Str(d.to_string())));
        }
        self.request(&Json::Object(members))
    }

    /// `ingest` convenience.
    pub fn ingest(&mut self, relation: &str, rows: &[Vec<Value>]) -> io::Result<Json> {
        self.request(&fq_json::object([
            ("cmd", Json::Str("ingest".to_string())),
            ("relation", Json::Str(relation.to_string())),
            ("rows", rows.to_vec().to_json()),
        ]))
    }

    /// `explain` convenience.
    pub fn explain(&mut self, query: &str, domain: Option<&str>) -> io::Result<Json> {
        let mut members = vec![
            ("cmd".to_string(), Json::Str("explain".to_string())),
            ("query".to_string(), Json::Str(query.to_string())),
        ];
        if let Some(d) = domain {
            members.push(("domain".to_string(), Json::Str(d.to_string())));
        }
        self.request(&Json::Object(members))
    }

    /// `snapshot-info` convenience.
    pub fn snapshot_info(&mut self) -> io::Result<Json> {
        self.request(&fq_json::object([(
            "cmd",
            Json::Str("snapshot-info".to_string()),
        )]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_relational::{Schema, State};

    fn service() -> QueryService {
        let schema = Schema::new().with_relation("F", 2);
        let state = State::new(schema)
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)])
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(3)]);
        QueryService::new(Arc::new(SharedState::new(state)), Executor::default())
    }

    #[test]
    fn handle_line_answers_queries_and_rejects_garbage() {
        let svc = service();
        let response = svc.handle_line(r#"{"cmd":"query","query":"F(x, y)","domain":"eq"}"#);
        let json = fq_json::parse(&response).unwrap();
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("epoch").and_then(Json::as_int), Some(0));
        assert_eq!(json.get("rows").and_then(Json::as_array).unwrap().len(), 2);
        assert_eq!(
            json.get("completeness").and_then(Json::as_str),
            Some("certified")
        );

        for bad in [
            "not json at all",
            r#"{"cmd":"no-such-verb"}"#,
            r#"{"cmd":"query"}"#,
            r#"{"cmd":"query","query":"F(x)","domain":"eq"}"#, // arity error
            r#"{"cmd":"ingest","relation":"F","rows":[[{"Nat":1}]]}"#, // arity error
        ] {
            let json = fq_json::parse(&svc.handle_line(bad)).unwrap();
            assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
            assert!(json.get("error").is_some(), "{bad}");
        }
    }

    #[test]
    fn ingest_errors_carry_structured_diagnostics() {
        let svc = service();
        // Arity mismatch: the diagnostic text arrives verbatim, plus
        // machine-readable fields naming the relation and both arities.
        let response = svc.handle_line(r#"{"cmd":"ingest","relation":"F","rows":[[{"Nat":1}]]}"#);
        let json = fq_json::parse(&response).unwrap();
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false));
        let error = json.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("arity mismatch for `F`"), "{error}");
        assert!(error.contains("declares arity 2"), "{error}");
        assert_eq!(
            json.get("error_kind").and_then(Json::as_str),
            Some("arity_mismatch")
        );
        assert_eq!(json.get("relation").and_then(Json::as_str), Some("F"));
        assert_eq!(json.get("expected").and_then(Json::as_int), Some(2));
        assert_eq!(json.get("got").and_then(Json::as_int), Some(1));

        let response =
            svc.handle_line(r#"{"cmd":"ingest","relation":"Nope","rows":[[{"Nat":1}]]}"#);
        let json = fq_json::parse(&response).unwrap();
        assert_eq!(
            json.get("error_kind").and_then(Json::as_str),
            Some("unknown_relation")
        );
        assert_eq!(json.get("relation").and_then(Json::as_str), Some("Nope"));
        // Nothing was published by either rejection.
        let info = fq_json::parse(&svc.handle_line(r#"{"cmd":"snapshot-info"}"#)).unwrap();
        assert_eq!(info.get("epoch").and_then(Json::as_int), Some(0));
    }

    #[test]
    fn durable_service_reports_its_log_in_snapshot_info() {
        use fq_relational::WalOptions;
        let dir = std::env::temp_dir().join(format!("fq-serve-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = Schema::new().with_relation("F", 2);
        let shared =
            SharedState::create_durable(&dir, State::new(schema), WalOptions::default()).unwrap();
        let svc = QueryService::new(Arc::new(shared), Executor::default());

        // Non-durable services have no `durability` object.
        assert!(service().snapshot_info().get("durability").is_none());

        let response =
            svc.handle_line(r#"{"cmd":"ingest","relation":"F","rows":[[{"Nat":1},{"Nat":2}]]}"#);
        let json = fq_json::parse(&response).unwrap();
        assert_eq!(json.get("epoch").and_then(Json::as_int), Some(1));

        let info = svc.snapshot_info();
        let durability = info
            .get("durability")
            .expect("durable store reports its log");
        assert_eq!(
            durability.get("format").and_then(Json::as_str),
            Some(fq_relational::DELTA_FORMAT_ID)
        );
        assert_eq!(
            durability.get("policy").and_then(Json::as_str),
            Some("batch")
        );
        assert_eq!(durability.get("base_epoch").and_then(Json::as_int), Some(0));
        assert_eq!(durability.get("appended").and_then(Json::as_int), Some(1));
        assert!(durability.get("log_bytes").and_then(Json::as_int).unwrap() > 8);
        drop(svc);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A line that is not UTF-8 is a malformed request like any other:
    /// it gets an `ok:false` response and the same connection goes on
    /// to answer a valid query.
    #[test]
    fn non_utf8_line_is_answered_and_keeps_the_connection() {
        let addr = Server::bind(service(), ("127.0.0.1", 0))
            .unwrap()
            .spawn()
            .unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut exchange = |request: &[u8]| {
            writer.write_all(request).unwrap();
            writer.flush().unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            fq_json::parse(response.trim_end()).expect("one JSON response line")
        };
        let rejected = exchange(b"{\"cmd\":\"snap\xff\"}\n");
        assert_eq!(rejected.get("ok").and_then(Json::as_bool), Some(false));
        let error = rejected.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("request is not UTF-8"), "{error}");
        assert!(error.contains("offset 12"), "{error}");
        let answered = exchange(b"{\"cmd\":\"query\",\"query\":\"F(x, y)\",\"domain\":\"eq\"}\r\n");
        assert_eq!(answered.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            answered.get("rows").and_then(Json::as_array).unwrap().len(),
            2
        );
    }

    /// A line longer than the cap gets one error response, the rest of
    /// it is skipped, and the connection goes on to answer a query.
    #[test]
    fn over_long_line_is_answered_and_skipped() {
        let addr = Server::bind(service(), ("127.0.0.1", 0))
            .unwrap()
            .spawn()
            .unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut request = vec![b'x'; MAX_LINE_BYTES + 1];
        request.push(b'\n');
        request.extend_from_slice(b"{\"cmd\":\"query\",\"query\":\"F(x, y)\",\"domain\":\"eq\"}\n");
        let sender = std::thread::spawn(move || writer.write_all(&request));
        let mut reader = BufReader::new(stream);
        let mut response = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            fq_json::parse(line.trim_end()).expect("one JSON response line")
        };
        let rejected = response();
        assert_eq!(rejected.get("ok").and_then(Json::as_bool), Some(false));
        let error = rejected.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("exceeds"), "{error}");
        let answered = response();
        assert_eq!(answered.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            answered.get("rows").and_then(Json::as_array).unwrap().len(),
            2
        );
        sender.join().unwrap().unwrap();
    }

    /// Request lines nested as deep as the two parsers accept are
    /// answered on a thread with the default 2 MiB stack, and one level
    /// deeper is an ordinary parse error — never a stack overflow.
    #[test]
    fn nesting_limits_are_answered_on_a_default_stack() {
        use fq_logic::parser::MAX_NESTING;
        fn wrap(open: &str, inner: &str, close: &str, levels: usize) -> String {
            format!("{}{inner}{}", open.repeat(levels), close.repeat(levels))
        }
        fn query(formula: &str) -> String {
            format!(
                "{{\"cmd\":\"query\",\"query\":{}}}",
                fq_json::to_string(&formula.to_string())
            )
        }
        fn shape(name: &str, n: usize) -> String {
            match name {
                "not" => wrap("!(", "F(x, y)", ")", n),
                "exists" => wrap("(exists z. F(x, z) & ", "F(x, y)", ")", n),
                "and" => wrap("(F(x, y) & ", "F(x, y)", ")", n),
                "paren" => wrap("(", "F(x, y)", ")", n),
                _ => format!("F(x, y) & y = {}", wrap("x + (", "x", ")", n)),
            }
        }
        // Each shape at its deepest accepted level count: `!(`, a group
        // holding a quantifier, and `x + (` open two levels each, a
        // plain group one, and `F(x, y)`'s argument list one more.
        let mut cases = Vec::new();
        for (name, deepest) in [
            ("not", (MAX_NESTING - 1) / 2),
            ("exists", (MAX_NESTING - 1) / 2),
            ("and", MAX_NESTING - 1),
            ("paren", MAX_NESTING - 1),
            ("term", MAX_NESTING / 2),
        ] {
            for (levels, accepted) in [(deepest, true), (deepest + 1, false)] {
                cases.push((
                    format!("{name} x{levels}"),
                    query(&shape(name, levels)),
                    accepted,
                ));
            }
        }
        let json = |levels| {
            format!(
                "{{\"cmd\":\"snapshot-info\",\"pad\":{}}}",
                wrap("[", "", "]", levels)
            )
        };
        // The request object itself is the first level.
        cases.push(("json".into(), json(fq_json::MAX_DEPTH - 1), true));
        cases.push(("json +1".into(), json(fq_json::MAX_DEPTH), false));

        let svc = service();
        let answers = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                cases
                    .into_iter()
                    .map(|(name, line, accepted)| (name, svc.handle_line(&line), accepted))
                    .collect::<Vec<_>>()
            })
            .unwrap()
            .join()
            .expect("no stack overflow");
        for (name, response, accepted) in answers {
            let json = fq_json::parse(&response).unwrap();
            let ok = json.get("ok").and_then(Json::as_bool);
            let error = json.get("error").and_then(Json::as_str).unwrap_or("");
            if accepted {
                assert_eq!(ok, Some(true), "{name}: {response}");
            } else {
                assert_eq!(ok, Some(false), "{name}: {response}");
                assert!(error.contains("nesting deeper than"), "{name}: {error}");
            }
        }
    }

    #[test]
    fn end_to_end_over_tcp() {
        let svc = service();
        let addr = Server::bind(svc, ("127.0.0.1", 0))
            .unwrap()
            .spawn()
            .unwrap();
        let mut client = Client::connect(addr).unwrap();

        let info = client.snapshot_info().unwrap();
        assert_eq!(info.get("epoch").and_then(Json::as_int), Some(0));
        assert_eq!(info.get("stored_rows").and_then(Json::as_int), Some(2));
        assert_eq!(
            info.get("format").and_then(Json::as_str),
            Some(fq_relational::FORMAT_ID)
        );
        let fingerprint = info.get("fingerprint").and_then(Json::as_str).unwrap();
        assert!(
            fingerprint.starts_with("0x") && fingerprint.len() == 34,
            "{fingerprint}"
        );
        let bytes_before = info.get("snapshot_bytes").and_then(Json::as_int).unwrap();
        assert!(bytes_before > 0);

        let out = client.query("F(x, y)", Some("eq")).unwrap();
        assert_eq!(out.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(out.get("rows").and_then(Json::as_array).unwrap().len(), 2);

        let ingested = client
            .ingest("F", &[vec![Value::Nat(7), Value::Nat(8)]])
            .unwrap();
        assert_eq!(ingested.get("added").and_then(Json::as_int), Some(1));
        assert_eq!(ingested.get("epoch").and_then(Json::as_int), Some(1));
        // Growth is visible in the reported on-disk size, and the
        // published snapshot's info fingerprint moved.
        let grown = ingested
            .get("snapshot_bytes")
            .and_then(Json::as_int)
            .unwrap();
        assert!(grown > bytes_before, "{grown} vs {bytes_before}");
        let info = client.snapshot_info().unwrap();
        assert_ne!(
            info.get("fingerprint").and_then(Json::as_str).unwrap(),
            fingerprint
        );

        // A second connection sees the published epoch.
        let mut other = Client::connect(addr).unwrap();
        let out = other.query("F(x, y)", Some("eq")).unwrap();
        assert_eq!(out.get("epoch").and_then(Json::as_int), Some(1));
        assert_eq!(out.get("rows").and_then(Json::as_array).unwrap().len(), 3);

        let explained = client.explain("exists y. F(x, y)", Some("eq")).unwrap();
        assert_eq!(explained.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            explained.get("strategy").and_then(Json::as_str),
            Some("algebra")
        );
        assert!(explained
            .get("explain")
            .and_then(Json::as_str)
            .unwrap()
            .contains("strategy"));

        // Domain inference: `<` forces ⟨ℕ, <⟩ without an explicit domain.
        let inferred = client.query("exists y. F(x, y) & x < y", None).unwrap();
        assert_eq!(inferred.get("domain").and_then(Json::as_str), Some("nat"));
    }
}
