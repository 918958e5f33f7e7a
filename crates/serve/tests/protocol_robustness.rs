//! Protocol robustness: a daemon that dies on bad input is not a daemon.
//!
//! Every malformed line — garbage bytes, truncated JSON, unknown fields,
//! oversized payloads, unknown machines or modes, a stream cut mid-line —
//! must produce exactly one structured error response (carrying the
//! request id whenever the scan recovered it, and the underlying error's
//! position information) and leave the server fully able to compile the
//! next request.

use cvliw_serve::testutil::{escape, request_line, TINY_LOOP};
use cvliw_serve::{Server, ServerConfig, ShutdownFlag, MAX_LINE_BYTES};
use proptest::prelude::*;

fn server() -> Server {
    Server::new(ServerConfig {
        jobs: 2,
        ..ServerConfig::default()
    })
}

fn valid_line(id: u64) -> String {
    request_line(id, TINY_LOOP, "4c1b2l64r", "replicate", 1)
}

#[test]
fn malformed_lines_answer_structured_errors_and_daemon_survives() {
    let cases: &[(&str, &str)] = &[
        ("not json at all", "\"kind\":\"json\""),
        ("{", "\"kind\":\"json\""),
        ("{\"id\": 1", "\"kind\":\"json\""),
        ("{\"id\": 1,}", "\"kind\":\"json\""),
        ("[1, 2]", "\"kind\":\"json\""),
        (
            "{\"id\": 1, \"loop\": {\"nested\": 1}}",
            "\"kind\":\"json\"",
        ),
        ("{\"id\": 1, \"loop\": 1.5}", "\"kind\":\"json\""),
        ("{\"id\": 1} trailing", "\"kind\":\"json\""),
        ("{\"frobnicate\": 1}", "\"kind\":\"json\""),
        ("{\"id\": 99999999999999999999999}", "\"kind\":\"json\""),
        ("{\"loop\": \"x\"}", "missing required field `id`"),
        ("{\"id\": 4}", "missing required field `loop`"),
        (
            "{\"id\": 4, \"loop\": \"x\"}",
            "missing required field `machine`",
        ),
        ("{\"id\": 4, \"op\": \"shutdown\"}", "unknown op"),
        (
            "{\"id\": 4, \"loop\": \"x\", \"machine\": \"m\", \"mode\": \"yolo\"}",
            "unknown mode",
        ),
        (
            "{\"id\": 4, \"loop\": \"x\", \"machine\": \"m\", \"seeds\": 0}",
            "at least 1",
        ),
        (
            "{\"id\": 4, \"loop\": \"x\", \"machine\": null}",
            "must not be null",
        ),
    ];
    let mut s = server();
    for (i, (bad, want)) in cases.iter().enumerate() {
        let mut out = String::new();
        s.process_batch(&[bad.to_string(), valid_line(1000 + i as u64)], &mut out);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{bad}: {out}");
        assert!(
            lines[0].contains("\"error\":") && lines[0].contains(want),
            "{bad}: expected `{want}` in {}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"ok\":"),
            "daemon failed to serve after `{bad}`: {}",
            lines[1]
        );
    }
}

#[test]
fn bad_machine_spec_carries_spec_error_details() {
    let mut s = server();
    let mut out = String::new();
    // `4c0b2l64r` parses until the zero bus-latency field; the error body
    // must carry the span of the offending field like `SpecError` does.
    let line = format!(
        "{{\"id\": 7, \"loop\": \"{}\", \"machine\": \"4c1b0l64r\"}}",
        escape(TINY_LOOP)
    );
    s.process_batch(&[line], &mut out);
    assert!(
        out.starts_with("{\"id\":7,\"error\":{\"kind\":\"spec\""),
        "{out}"
    );
    assert!(out.contains("\"span\":["), "{out}");
}

#[test]
fn bad_loop_source_carries_parse_position() {
    let mut s = server();
    let mut out = String::new();
    s.process_batch(
        &[request_line(
            8,
            "loop broken {\n  x: frobnicate y\n}",
            "4c1b2l64r",
            "replicate",
            1,
        )],
        &mut out,
    );
    assert!(
        out.starts_with("{\"id\":8,\"error\":{\"kind\":\"parse\""),
        "{out}"
    );
    assert!(out.contains("\"line\":2"), "{out}");
}

#[test]
fn oversized_lines_are_rejected_unscanned() {
    let mut s = server();
    let huge = format!(
        "{{\"id\": 1, \"loop\": \"{}\", \"machine\": \"4c1b2l64r\"}}",
        "x".repeat(MAX_LINE_BYTES)
    );
    let mut out = String::new();
    s.process_batch(&[huge, valid_line(2)], &mut out);
    let lines: Vec<&str> = out.lines().collect();
    assert!(
        lines[0].starts_with("{\"id\":null,\"error\":{\"kind\":\"oversized\""),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"ok\":"));
    assert_eq!(s.stats().compiles, 1);
}

#[test]
fn mid_stream_eof_on_a_partial_line_is_a_structured_error() {
    let mut s = server();
    let input = format!("{}\n{{\"id\": 5, \"loo", valid_line(1));
    let mut out = Vec::new();
    s.run_jsonl(std::io::Cursor::new(input), &mut out, &ShutdownFlag::new())
        .unwrap();
    let out = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out}");
    assert!(lines[0].contains("\"ok\":"), "{}", lines[0]);
    assert!(
        lines[1].starts_with("{\"id\":5,\"error\":{\"kind\":\"json\""),
        "{}",
        lines[1]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fuzz over truncated valid requests: every prefix of a well-formed
    /// line must be answered (or skipped, when the cut leaves whitespace
    /// only) without poisoning the server — the valid request that
    /// follows on the same stream must always compile.
    #[test]
    fn truncated_valid_requests_never_poison_the_stream(
        id in 0u64..1000,
        cut in 0usize..150,
        seeds in 1u32..4,
    ) {
        let full = request_line(id, TINY_LOOP, "2c1b2l64r", "baseline", seeds);
        let cut = cut.min(full.len());
        prop_assume!(full.is_char_boundary(cut));
        let prefix = &full[..cut];

        let mut s = server();
        let input = format!("{prefix}\n{}", valid_line(id + 1000));
        let mut out = Vec::new();
        s.run_jsonl(std::io::Cursor::new(input), &mut out, &ShutdownFlag::new()).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();

        let expected = if prefix.trim().is_empty() { 1 } else { 2 };
        prop_assert_eq!(lines.len(), expected, "prefix `{}`: {}", prefix, out);
        if expected == 2 {
            let verdict = if cut == full.len() { "\"ok\":" } else { "\"error\":" };
            prop_assert!(
                lines[0].contains(verdict),
                "prefix `{}` answered {}", prefix, lines[0]
            );
        }
        let last = lines.last().expect("valid request answered");
        prop_assert!(last.contains("\"ok\":"), "stream poisoned: {}", last);
    }
}
