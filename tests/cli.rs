//! Integration tests for the `fq` command-line binary.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

fn fq(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_fq"))
        .args(args)
        .output()
        .expect("fq binary runs");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

/// A scratch directory private to one test (the test's name plus the
/// process id), created empty and removed on drop, so tests that
/// `cargo test` runs in parallel never rewrite each other's files.
struct TestDir(std::path::PathBuf);

impl TestDir {
    fn new(test: &str) -> TestDir {
        let dir = std::env::temp_dir().join(format!("fq-cli-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }

    /// The path of `name` inside the directory, as a CLI argument.
    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().to_string()
    }

    /// Write `contents` to `name` inside the directory; returns its path.
    fn write(&self, name: &str, contents: &str) -> String {
        let path = self.path(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    /// The three-fact fathers state, written into the directory.
    fn fathers_json(&self) -> String {
        self.write(
            "fathers.json",
            r#"{
  "schema": { "relations": { "F": 2 }, "constants": [] },
  "relations": { "F": [[{"Nat":1},{"Nat":2}],[{"Nat":1},{"Nat":3}],[{"Nat":2},{"Nat":4}]] },
  "constants": {}
}"#,
        )
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn check_reports_safe_range() {
    let tmp = TestDir::new("check_reports_safe_range");
    let state = tmp.fathers_json();
    let (out, _, ok) = fq(&["check", &state, "exists y z. y != z & F(x,y) & F(x,z)"]);
    assert!(ok);
    assert!(out.contains("safe-range"));
    let (out, _, ok) = fq(&["check", &state, "!F(x, y)"]);
    assert!(ok);
    assert!(out.contains("NOT safe-range"));
}

#[test]
fn eval_prints_answer_table() {
    let tmp = TestDir::new("eval_prints_answer_table");
    let state = tmp.fathers_json();
    let (out, _, ok) = fq(&["eval", &state, "exists y. F(x, y) & F(y, z)"]);
    assert!(ok);
    assert!(out.contains("x\tz"));
    assert!(out.contains("1\t4"));
}

#[test]
fn safe_distinguishes_domains() {
    let tmp = TestDir::new("safe_distinguishes_domains");
    let state = tmp.fathers_json();
    let (out, _, ok) = fq(&["safe", &state, "!F(x, y)", "eq"]);
    assert!(ok, "{out}");
    assert!(out.contains("INFINITE"));
    let (out, _, ok) = fq(&["safe", &state, "exists y. F(y, x)", "nat"]);
    assert!(ok);
    assert!(out.contains("FINITE"));
}

#[test]
fn decide_runs_every_domain() {
    for (domain, sentence, expect) in [
        ("eq", "forall x y. exists z. z != x & z != y", "true"),
        ("nat", "exists y. forall x. y <= x", "true"),
        ("int", "exists y. forall x. y <= x", "false"),
        ("succ", "forall x. x' != 0", "true"),
        (
            "presburger",
            "forall x. div(2, x, 0) | div(2, x, 1)",
            "true",
        ),
        ("words", "forall x. exists y. llex(x, y)", "true"),
        ("traces", "forall p. T(p) -> M(m(p))", "true"),
    ] {
        let (out, err, ok) = fq(&["decide", domain, sentence]);
        assert!(ok, "domain {domain}: {err}");
        assert_eq!(out.trim(), expect, "domain {domain}");
    }
}

#[test]
fn traces_prints_the_computation() {
    let (out, _, ok) = fq(&["traces", "1&11&11*", "11"]);
    assert!(ok);
    assert!(out.contains("exactly 3 traces"));
    assert!(out.contains("1&11&11*#1#11#"));
}

#[test]
fn traces_reports_divergence() {
    // The looper.
    let (out, _, ok) = fq(&["traces", "1&11&11*1&1&11", "1", "200"]);
    assert!(ok);
    assert!(out.contains("still running"));
}

#[test]
fn machines_lists_the_enumeration() {
    let (out, _, ok) = fq(&["machines", "3"]);
    assert!(ok);
    assert!(out.starts_with("M_0: *"));
    assert_eq!(out.lines().count(), 3);
}

/// The state file shipped in the repo, so the plan/explain tests run
/// against the same data the README walkthrough uses.
fn repo_fathers_json() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/fathers.json").to_string()
}

#[test]
fn plan_prints_a_strategy_per_route() {
    let state = repo_fathers_json();
    for (query, domain, strategy) in [
        ("exists y. F(x, y) & F(y, z)", "eq", "algebra"),
        ("F(x, y) & x < y", "nat", "algebra"),
        ("!F(x, y)", "nat", "ranf"),
        ("!F(x, y) & x < y", "nat", "enumerate-and-ask"),
        ("exists x y. F(x, y)", "nat", "qe-decide"),
    ] {
        let (out, err, ok) = fq(&["plan", &state, query, domain]);
        assert!(ok, "{query}: {err}");
        assert!(
            out.contains(&format!("strategy: {strategy}")),
            "{query} should plan as {strategy}, got:\n{out}"
        );
        assert!(
            out.contains("why:"),
            "{query} must justify its plan:\n{out}"
        );
    }
}

#[test]
fn plan_is_deterministic_across_invocations() {
    let state = repo_fathers_json();
    let run = || fq(&["plan", &state, "!F(x, y)", "nat"]).0;
    let first = run();
    assert_eq!(first, run());
    assert_eq!(first, run());
}

#[test]
fn explain_shows_plan_answer_and_stats() {
    let state = repo_fathers_json();
    let (out, err, ok) = fq(&["explain", &state, "exists y. F(x, y) & F(y, z)", "eq"]);
    assert!(ok, "{err}");
    for needle in [
        "strategy:",
        "why:",
        "certified complete",
        "plan-cache",
        "engine memo",
    ] {
        assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
    }
    // The answer table itself rides along.
    assert!(out.contains("1\t4"));
}

#[test]
fn explain_decides_sentences() {
    let state = repo_fathers_json();
    let (out, _, ok) = fq(&["explain", &state, "exists x y. F(x, y)", "nat"]);
    assert!(ok);
    assert!(out.contains("strategy:   qe-decide"), "{out}");
    assert!(out.contains("decided:    true"), "{out}");
}

#[test]
fn explain_reports_partial_answers_with_budget() {
    // The `x < y` conjunct makes the query non-generic (an interpreted
    // predicate), so RANF is ineligible and the budgeted fallback runs.
    let state = repo_fathers_json();
    let (out, _, ok) = fq(&["explain", &state, "!F(x, y) & x < y", "nat"]);
    assert!(ok);
    assert!(out.contains("PARTIAL"), "{out}");
    assert!(out.contains("candidates tried"), "{out}");
}

#[test]
fn explain_names_the_not_safe_range_culprit() {
    // The diagnostic must carry the offending variables *and* the
    // subformula in which they fail to be range-restricted.
    let state = repo_fathers_json();
    let (out, _, ok) = fq(&["explain", &state, "!F(x, y)", "nat"]);
    assert!(ok);
    assert!(out.contains("not-safe-range:"), "{out}");
    assert!(
        out.contains("\"x\"") && out.contains("\"y\""),
        "diagnostic should name the unrestricted variables:\n{out}"
    );
    assert!(
        out.contains("!F(x, y)"),
        "diagnostic should quote the offending subformula:\n{out}"
    );
    // Quantified case: the scope of the offending ∃ is quoted.
    let (out, _, ok) = fq(&["explain", &state, "F(x, x) & exists y. y = y", "nat"]);
    assert!(ok);
    assert!(
        out.contains("quantified variable `y`"),
        "diagnostic should name the unrestricted quantified variable:\n{out}"
    );
}

#[test]
fn explain_certifies_ranf_answers() {
    let state = repo_fathers_json();
    let (out, _, ok) = fq(&["explain", &state, "!F(x, y)", "nat"]);
    assert!(ok);
    assert!(out.contains("strategy:   ranf"), "{out}");
    assert!(out.contains("certified by RANF"), "{out}");
    assert!(out.contains("INFINITE"), "{out}");
    // Both halves' formulas and operator stats are surfaced.
    assert!(out.contains("generator:"), "{out}");
    assert!(out.contains("restrictor:"), "{out}");
    assert!(out.contains("gen: "), "{out}");
    assert!(out.contains("res: "), "{out}");
    // 4×4 active-domain pairs minus the 3 F-edges.
    assert!(out.contains("13 tuple(s)"), "{out}");
}

#[test]
fn eval_reports_the_ranf_verdict() {
    let state = repo_fathers_json();
    let (out, _, ok) = fq(&["eval", &state, "!F(x, y)", "nat"]);
    assert!(ok);
    assert!(out.contains("EXACT"), "{out}");
    assert!(out.contains("INFINITE"), "{out}");
    assert!(out.contains("2\t2"), "missing a complement row:\n{out}");
    // A finite non-safe-range disjunction gets a finite verdict.
    let (out, _, ok) = fq(&["eval", &state, "F(x, y) | F(x, x)", "nat"]);
    assert!(ok);
    assert!(out.contains("finite"), "{out}");
    assert!(out.contains("restrictor empty"), "{out}");
}

#[test]
fn plan_json_is_machine_readable() {
    let state = repo_fathers_json();
    let (out, err, ok) = fq(&["plan", "--json", &state, "!F(x, y)", "nat"]);
    assert!(ok, "{err}");
    let v: fq_json::Value = fq_json::parse(&out).expect("plan --json emits valid JSON");
    assert_eq!(v.get("strategy").and_then(|s| s.as_str()), Some("ranf"));
    assert_eq!(v.get("query").and_then(|s| s.as_str()), Some("!F(x, y)"));
    assert_eq!(v.get("domain").and_then(|s| s.as_str()), Some("nat"));
    let nsr = v.get("not_safe_range").and_then(|s| s.as_str()).unwrap();
    assert!(nsr.contains("not range-restricted"), "{nsr}");
    let ranf = v.get("ranf").expect("ranf plans carry both halves");
    let gen = ranf.get("generator").unwrap();
    let formula = gen.get("formula").and_then(|s| s.as_str()).unwrap();
    assert!(formula.contains("@ranf_adom"), "{formula}");
    assert!(ranf.get("restrictor").is_some());
    // The flag works in any position and other strategies stay JSON-clean.
    let (out2, err, ok) = fq(&[
        "plan",
        &state,
        "exists y. F(x, y) & F(y, z)",
        "eq",
        "--json",
    ]);
    assert!(ok, "{err}");
    let v2: fq_json::Value = fq_json::parse(&out2).expect("valid JSON");
    assert_eq!(v2.get("strategy").and_then(|s| s.as_str()), Some("algebra"));
    assert!(matches!(v2.get("ranf"), Some(fq_json::Value::Null) | None));
}

#[test]
fn bad_schema_file_reports_both_parse_failures() {
    let tmp = TestDir::new("bad_schema_file_reports_both_parse_failures");
    let path = tmp.write("bad.json", r#"{"neither": "schema nor state"}"#);
    let (_, err, ok) = fq(&["check", &path, "F(x, y)"]);
    assert!(!ok, "a bad schema file must fail the command");
    assert!(
        err.contains("neither a schema nor a state"),
        "diagnostic should name the problem: {err}"
    );
    assert!(
        err.contains("as a schema:") && err.contains("as a state:"),
        "diagnostic should report BOTH parse attempts: {err}"
    );
}

#[test]
fn malformed_arity_state_reports_diagnostic_not_panic() {
    let tmp = TestDir::new("malformed_arity_state_reports_diagnostic_not_panic");
    let path = tmp.write(
        "bad-arity.json",
        r#"{
  "schema": { "relations": { "F": 2 }, "constants": [] },
  "relations": { "F": [[{"Nat":1},{"Nat":2}],[{"Nat":7}]] },
  "constants": {}
}"#,
    );
    let (_, err, ok) = fq(&["eval", &path, "F(x, y)"]);
    assert!(!ok, "a scheme-violating state must fail the command");
    assert!(
        err.contains("arity mismatch") && err.contains("`F`"),
        "diagnostic should name the violation: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "must be a diagnostic, not a panic: {err}"
    );
}

#[test]
fn explain_reports_storage_counters() {
    let state = repo_fathers_json();
    let (out, err, ok) = fq(&["explain", &state, "exists y. F(x, y) & F(y, z)", "eq"]);
    assert!(ok, "{err}");
    assert!(out.contains("storage:"), "{out}");
    assert!(out.contains("3 stored row(s)"), "{out}");
}

#[test]
fn convert_round_trips_and_snapshot_loads_everywhere() {
    let tmp = TestDir::new("convert_round_trips_and_snapshot_loads_everywhere");
    let json_in = tmp.fathers_json();
    let snap = tmp.path("fathers.fqsnap");
    let json_out = tmp.path("fathers-back.json");

    // JSON -> snapshot.
    let (out, err, ok) = fq(&["convert", &json_in, &snap]);
    assert!(ok, "{err}");
    assert!(out.contains("fqsnap-v1"), "{out}");
    assert!(out.contains("3 row(s)"), "{out}");
    let bytes = std::fs::read(&snap).unwrap();
    assert!(
        bytes.starts_with(b"FQSNAP\0"),
        "snapshot must lead with magic"
    );

    // Every <state> argument accepts the snapshot directly.
    let (out, err, ok) = fq(&["eval", &snap, "exists y. F(x, y) & F(y, z)"]);
    assert!(ok, "{err}");
    assert!(out.contains("1\t4"), "{out}");
    let (out, err, ok) = fq(&["check", &snap, "exists y z. y != z & F(x,y) & F(x,z)"]);
    assert!(ok, "{err}");
    assert!(out.contains("safe-range"), "{out}");
    let (out, err, ok) = fq(&["explain", &snap, "exists y. F(x, y) & F(y, z)", "eq"]);
    assert!(ok, "{err}");
    assert!(out.contains("source:     fqsnap-v1"), "{out}");
    assert!(out.contains("fingerprint: 0x"), "{out}");

    // Snapshot -> JSON: the interchange form is the canonical compact
    // serialization, byte-identical to serializing the state directly.
    let (out, err, ok) = fq(&["convert", &snap, &json_out]);
    assert!(ok, "{err}");
    assert!(out.contains("-> "), "{out}");
    let (a, err, ok) = fq(&["eval", &json_out, "exists y. F(x, y) & F(y, z)"]);
    assert!(ok, "{err}");
    let (b, _, _) = fq(&["eval", &json_in, "exists y. F(x, y) & F(y, z)"]);
    assert_eq!(a, b, "round-tripped state must answer identically");
}

#[test]
fn convert_diagnoses_future_version() {
    let tmp = TestDir::new("convert_diagnoses_future_version");
    let json_in = tmp.fathers_json();
    let snap = tmp.path("future.fqsnap");
    let (_, err, ok) = fq(&["convert", &json_in, &snap]);
    assert!(ok, "{err}");
    // Patch the version byte (right after the 7-byte magic) to 99.
    let mut bytes = std::fs::read(&snap).unwrap();
    bytes[7] = 99;
    std::fs::write(&snap, &bytes).unwrap();
    let out = tmp.path("future-out.json");
    let (_, err, ok) = fq(&["convert", &snap, &out]);
    assert!(!ok, "a future-version snapshot must fail the command");
    assert!(
        err.contains("unsupported snapshot format version 99"),
        "diagnostic should name the version: {err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn convert_diagnoses_truncated_snapshot() {
    let tmp = TestDir::new("convert_diagnoses_truncated_snapshot");
    let json_in = tmp.fathers_json();
    let snap = tmp.path("trunc.fqsnap");
    let (_, err, ok) = fq(&["convert", &json_in, &snap]);
    assert!(ok, "{err}");
    let bytes = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, &bytes[..bytes.len() / 2]).unwrap();
    let out = tmp.path("trunc-out.json");
    let (_, err, ok) = fq(&["convert", &snap, &out]);
    assert!(!ok, "a truncated snapshot must fail the command");
    assert!(
        err.contains("corrupt snapshot"),
        "diagnostic should say the snapshot is corrupt: {err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

/// A running `fq serve` subprocess: the child, its bound port, and the
/// startup lines read from stdout (`println!` is line-buffered, so the
/// banner arrives before the server blocks in `run`).
struct ServeProc {
    child: Child,
    port: u16,
    banner: Vec<String>,
}

/// Spawn `fq serve` on an OS-chosen port and wait for the listening
/// line.
fn spawn_serve(extra: &[&str]) -> ServeProc {
    let mut command = Command::new(env!("CARGO_BIN_EXE_fq"));
    command
        .args(["serve"])
        .args(extra)
        .arg("127.0.0.1:0")
        .stderr(Stdio::null());
    start_serve(command)
}

/// Start an `fq serve` command that binds an OS-chosen port, and wait
/// for the listening line.
fn start_serve(mut command: Command) -> ServeProc {
    let mut child = command
        .stdout(Stdio::piped())
        .spawn()
        .expect("fq serve spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut banner = Vec::new();
    let mut port = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("serve stdout is UTF-8");
        if let Some(rest) = line.split("listening on 127.0.0.1:").nth(1) {
            port = Some(rest.trim().parse().expect("port number"));
        }
        let done = port.is_some() && line.starts_with("protocol:");
        banner.push(line);
        if done {
            break;
        }
    }
    ServeProc {
        child,
        port: port.expect("serve printed its listening address"),
        banner,
    }
}

/// One request line → one response line over the serve protocol.
fn serve_request(port: u16, line: &str) -> fq_json::Value {
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect to fq serve");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).expect("one response line");
    fq_json::parse(response.trim_end()).expect("response is JSON")
}

/// The tentpole acceptance path end-to-end: a durable `fq serve`
/// SIGKILLed after publishing epochs recovers on restart to the last
/// published epoch with a bit-identical content fingerprint, and
/// `fq recover` reports the same story offline.
#[test]
fn durable_serve_survives_sigkill_with_identical_fingerprint() {
    let tmp = TestDir::new("durable_serve_survives_sigkill_with_identical_fingerprint");
    let data = tmp.path("data");
    let state = tmp.fathers_json();

    let mut serve = spawn_serve(&[&state, "--data-dir", &data, "--durability", "always"]);
    let ingested = serve_request(
        serve.port,
        r#"{"cmd":"ingest","relation":"F","rows":[[{"Nat":9},{"Nat":10}]]}"#,
    );
    assert_eq!(ingested.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(ingested.get("epoch").and_then(|v| v.as_int()), Some(1));
    let info = serve_request(serve.port, r#"{"cmd":"snapshot-info"}"#);
    let fingerprint = info
        .get("fingerprint")
        .and_then(|v| v.as_str())
        .expect("fingerprint reported")
        .to_string();
    let durability = info
        .get("durability")
        .expect("durable serve reports its log");
    assert_eq!(
        durability.get("policy").and_then(|v| v.as_str()),
        Some("always")
    );
    assert_eq!(
        durability.get("format").and_then(|v| v.as_str()),
        Some("fqsnap-delta")
    );

    // SIGKILL: no flush, no destructor, no goodbye.
    serve.child.kill().expect("kill -9 the server");
    serve.child.wait().unwrap();

    // Restart against the same directory: recovery wins over <state>.
    let mut restarted = spawn_serve(&[&state, "--data-dir", &data]);
    let banner = restarted.banner.join("\n");
    assert!(banner.contains("recovered epoch 1"), "{banner}");
    assert!(banner.contains(&fingerprint), "{banner}");
    let info = serve_request(restarted.port, r#"{"cmd":"snapshot-info"}"#);
    assert_eq!(info.get("epoch").and_then(|v| v.as_int()), Some(1));
    assert_eq!(
        info.get("fingerprint").and_then(|v| v.as_str()),
        Some(fingerprint.as_str()),
        "recovery must restore a bit-identical content fingerprint"
    );
    // The recovered store keeps publishing durably.
    let again = serve_request(
        restarted.port,
        r#"{"cmd":"ingest","relation":"F","rows":[[{"Nat":20},{"Nat":21}]]}"#,
    );
    assert_eq!(again.get("epoch").and_then(|v| v.as_int()), Some(2));
    restarted.child.kill().unwrap();
    restarted.child.wait().unwrap();

    // `fq recover` replays the same directory offline.
    let (out, err, ok) = fq(&["recover", &data]);
    assert!(ok, "{err}");
    assert!(out.contains("recovered:   epoch 2"), "{out}");
    assert!(out.contains("fingerprint: 0x"), "{out}");
    assert!(out.contains("replayed:    2 delta record(s)"), "{out}");
}

/// Rejected ingests must surface the `StateError` diagnostic verbatim
/// plus structured fields — debuggable from the client side.
#[test]
fn serve_ingest_errors_are_structured_over_tcp() {
    let tmp = TestDir::new("serve_ingest_errors_are_structured_over_tcp");
    let state = tmp.fathers_json();
    let mut serve = spawn_serve(&[&state]);
    let response = serve_request(
        serve.port,
        r#"{"cmd":"ingest","relation":"F","rows":[[{"Nat":1}]]}"#,
    );
    assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(false));
    let error = response.get("error").and_then(|v| v.as_str()).unwrap();
    assert!(
        error.contains("arity mismatch for `F`") && error.contains("declares arity 2"),
        "the StateError diagnostic must arrive verbatim: {error}"
    );
    assert_eq!(
        response.get("error_kind").and_then(|v| v.as_str()),
        Some("arity_mismatch")
    );
    assert_eq!(response.get("relation").and_then(|v| v.as_str()), Some("F"));
    assert_eq!(response.get("expected").and_then(|v| v.as_int()), Some(2));
    assert_eq!(response.get("got").and_then(|v| v.as_int()), Some(1));
    // The rejection published nothing.
    let info = serve_request(serve.port, r#"{"cmd":"snapshot-info"}"#);
    assert_eq!(info.get("epoch").and_then(|v| v.as_int()), Some(0));
    serve.child.kill().unwrap();
    serve.child.wait().unwrap();
}

/// A failed accept does not end `fq serve`: with too few descriptors
/// for ten concurrent clients, accepting fails with EMFILE, the failure
/// is reported on stderr, and once the clients close, a fresh
/// connection is answered.
#[test]
fn serve_keeps_accepting_after_running_out_of_descriptors() {
    let tmp = TestDir::new("serve_keeps_accepting_after_running_out_of_descriptors");
    let state = tmp.fathers_json();
    let mut command = Command::new("sh");
    command
        .args(["-c", "ulimit -n 12 && exec \"$0\" serve \"$1\" 127.0.0.1:0"])
        .args([env!("CARGO_BIN_EXE_fq"), state.as_str()])
        .stderr(Stdio::piped());
    let mut serve = start_serve(command);
    let stderr = serve.child.stderr.take().expect("piped stderr");
    let (lines, errors) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            let _ = lines.send(line);
        }
    });
    let clients: Vec<TcpStream> = (0..10)
        .map(|_| TcpStream::connect(("127.0.0.1", serve.port)).expect("connect to fq serve"))
        .collect();
    let error = errors
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("an accept fails under the descriptor limit");
    assert!(error.contains("Too many open files"), "{error}");
    drop(clients);
    let info = serve_request(serve.port, r#"{"cmd":"snapshot-info"}"#);
    assert_eq!(info.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert!(serve.child.try_wait().unwrap().is_none(), "fq serve exited");
    serve.child.kill().unwrap();
    serve.child.wait().unwrap();
    reader.join().unwrap();
}

#[test]
fn recover_compact_folds_the_log() {
    let tmp = TestDir::new("recover_compact_folds_the_log");
    let data = tmp.path("data");
    let state = tmp.fathers_json();

    let mut serve = spawn_serve(&[&state, "--data-dir", &data]);
    for natural in [30, 31] {
        let response = serve_request(
            serve.port,
            &format!(
                r#"{{"cmd":"ingest","relation":"F","rows":[[{{"Nat":{natural}}},{{"Nat":99}}]]}}"#
            ),
        );
        assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(true));
    }
    serve.child.kill().unwrap();
    serve.child.wait().unwrap();

    let (out, err, ok) = fq(&["recover", &data, "--compact"]);
    assert!(ok, "{err}");
    assert!(out.contains("recovered:   epoch 2"), "{out}");
    assert!(out.contains("compacted:"), "{out}");
    // After compaction the log is empty and recovery replays nothing.
    let (out, err, ok) = fq(&["recover", &data]);
    assert!(ok, "{err}");
    assert!(out.contains("replayed:    0 delta record(s)"), "{out}");
    assert!(out.contains("recovered:   epoch 2"), "{out}");
}

#[test]
fn recover_reports_missing_store() {
    let tmp = TestDir::new("recover_reports_missing_store");
    let (_, err, ok) = fq(&["recover", &tmp.path("")]);
    assert!(!ok, "an empty directory is not a durable store");
    assert!(err.contains("no base snapshot"), "{err}");
}

#[test]
fn missing_schema_file_fails_with_path() {
    let (_, err, ok) = fq(&["plan", "/nonexistent/nowhere.json", "F(x, y)"]);
    assert!(!ok);
    assert!(err.contains("nowhere.json"), "{err}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let (_, err, ok) = fq(&[]);
    assert!(!ok);
    assert!(err.contains("usage"));
    let (_, err, ok) = fq(&["decide", "bogus", "true"]);
    assert!(!ok);
    assert!(err.contains("unknown domain"));
}
