"""End-to-end service tests over a real socket: submit, poll, stream.

Covers the service-equivalence acceptance bar — results served over
HTTP are byte-identical to the direct ``run_spec``/``run_plan`` paths —
plus in-flight dedup, SSE delivery, and the error surface.  The request
parser itself is fuzzed over arbitrary byte streams: every stream
parses, reads as a clean EOF, or is refused with a 4xx, and no input
past a framing bound is buffered.
"""

import asyncio
import json
import re
import socket
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentSpec, Plan, SchemeSpec, run_spec
from repro.server import ReproServer, ServerConfig, ServerThread
from repro.server.http import (
    MAX_HEADER_BYTES,
    MAX_REQUEST_LINE,
    HttpError,
    Request,
    read_request,
)

FAST = dict(scale=128.0, n_banks=1, n_intervals=1)


def fast_spec(**overrides):
    fields = dict(scheme=SchemeSpec("drcat"), workload="libq", **FAST)
    fields.update(overrides)
    return ExperimentSpec(**fields)


def get(base, path, timeout=30):
    with urllib.request.urlopen(base + path, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def post(base, path, doc, timeout=30):
    req = urllib.request.Request(
        base + path, data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def wait_done(base, job_id, timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _status, doc = get(base, f"/v1/jobs/{job_id}")
        if doc["status"] in ("done", "failed"):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


@pytest.fixture(scope="module")
def server():
    srv = ReproServer(ServerConfig(port=0, workers=1, driver_threads=2,
                                   max_body=64 * 1024))
    with ServerThread(srv) as base:
        yield srv, base


class TestHealth:
    def test_health_mirrors_the_verify_header(self, server):
        from repro._version import __version__

        _srv, base = server
        status, doc = get(base, "/v1/health")
        assert status == 200
        assert doc["service"] == "repro"
        assert doc["version"] == __version__
        assert doc["wire_version"] == 1
        # The same facts `repro verify` prints in its header line.
        assert set(doc["engines"]) == {"scalar", "batched"}
        assert "trace_store" in doc and "enabled" in doc["trace_store"]
        assert doc["result_cache"]["lock_backend"] in (
            "flock", "msvcrt", "lockdir")
        assert set(doc["jobs"]) == {"queued", "running", "done", "failed"}
        assert "faults" in doc


class TestRunSubmission:
    def test_submit_poll_results_equivalence(self, server):
        srv, base = server
        spec = fast_spec(seed=21)
        status, doc = post(base, "/v1/runs", {"spec": spec.to_dict()})
        assert status == 202
        assert doc["kind"] == "run" and doc["cells"] == 1
        assert doc["content_hash"] == spec.content_hash()
        final = wait_done(base, doc["job"])
        assert final["status"] == "done" and not final["cached"]
        # The acceptance bar: the served result is exactly run_spec's.
        assert final["result"] == run_spec(spec).to_dict()

    def test_resubmit_is_served_from_cache(self, server):
        srv, base = server
        spec = fast_spec(seed=22)
        _status, doc = post(base, "/v1/runs", {"spec": spec.to_dict()})
        wait_done(base, doc["job"])
        hits_before = srv.cache.hits
        status, doc2 = post(base, "/v1/runs", {"spec": spec.to_dict()})
        assert status == 200  # terminal immediately, not 202
        assert doc2["cached"] and doc2["status"] == "done"
        assert doc2["job"] != doc["job"]
        assert srv.cache.hits == hits_before + 1  # provably no rerun
        assert doc2["result"] == run_spec(spec).to_dict()

    def test_inflight_dedup_shares_one_job(self, server):
        srv, base = server
        # Saturate both driver threads so the target job stays queued
        # while the duplicate submission arrives — deterministic, no
        # timing window.
        blockers = [fast_spec(seed=31, n_intervals=4),
                    fast_spec(seed=32, n_intervals=4)]
        for blocker in blockers:
            post(base, "/v1/runs", {"spec": blocker.to_dict()})
        target = fast_spec(seed=33)
        _s1, first = post(base, "/v1/runs", {"spec": target.to_dict()})
        _s2, second = post(base, "/v1/runs", {"spec": target.to_dict()})
        assert second["job"] == first["job"]  # one simulation, two watchers
        assert second["attached"] == 1
        final = wait_done(base, first["job"])
        assert final["status"] == "done"
        assert final["result"] == run_spec(target).to_dict()

    def test_results_can_be_elided_from_status(self, server):
        _srv, base = server
        spec = fast_spec(seed=24)
        _status, doc = post(base, "/v1/runs", {"spec": spec.to_dict()})
        wait_done(base, doc["job"])
        _status, slim = get(base, f"/v1/jobs/{doc['job']}?results=0")
        assert slim["status"] == "done" and "result" not in slim

    def test_jobs_listing_contains_submissions(self, server):
        _srv, base = server
        spec = fast_spec(seed=25)
        _status, doc = post(base, "/v1/runs", {"spec": spec.to_dict()})
        wait_done(base, doc["job"])
        _status, listing = get(base, "/v1/jobs")
        assert doc["job"] in [j["job"] for j in listing["jobs"]]


class TestPlanSubmission:
    def test_plan_equivalence_and_report(self, server):
        from repro.experiments import run_plan

        srv, base = server
        plan = Plan.grid(fast_spec(seed=41), scale=[128.0, 64.0])
        status, doc = post(base, "/v1/plans", {"plan": plan.to_dict()})
        assert status == 202
        assert doc["kind"] == "plan" and doc["cells"] == 2
        assert doc["content_hash"] == plan.content_hash()
        final = wait_done(base, doc["job"])
        assert final["status"] == "done"
        assert [c["status"] for c in final["report"]["cells"]] == \
            ["ok", "ok"]
        direct = run_plan(plan)  # the plain list-returning form
        assert final["results"] == [r.to_dict() for r in direct]

    def test_whole_plan_cache_hit_is_terminal_immediately(self, server):
        _srv, base = server
        plan = Plan.grid(fast_spec(seed=42), seed=[43, 44])
        _status, doc = post(base, "/v1/plans", {"plan": plan.to_dict()})
        wait_done(base, doc["job"])
        status, doc2 = post(base, "/v1/plans", {"plan": plan.to_dict()})
        assert status == 200
        assert doc2["cached"] and doc2["status"] == "done"
        assert len(doc2["results"]) == 2


class TestEventStream:
    def test_sse_stream_orders_and_terminates(self, server):
        _srv, base = server
        spec = fast_spec(seed=51, n_intervals=3)
        _status, doc = post(base, "/v1/runs", {"spec": spec.to_dict()})
        frames = []
        with urllib.request.urlopen(
            base + f"/v1/jobs/{doc['job']}/events", timeout=60
        ) as resp:
            assert resp.headers["Content-Type"].startswith(
                "text/event-stream")
            body = resp.read().decode()  # server closes when job ends
        event = {}
        for line in body.splitlines():
            if not line:
                if event:
                    frames.append(event)
                event = {}
            elif line.startswith("event: "):
                event["name"] = line[7:]
            elif line.startswith("id: "):
                event["id"] = int(line[4:])
            elif line.startswith("data: "):
                event["data"] = json.loads(line[6:])
        names = [f["name"] for f in frames]
        assert "status" in names and "epoch" in names
        epochs = [f["data"]["epoch"] for f in frames
                  if f["name"] == "epoch"]
        assert epochs == sorted(epochs) and epochs[-1] == 3
        ids = [f["id"] for f in frames if "id" in f and f["id"] >= 0]
        assert ids == sorted(ids)  # monotonic delivery
        assert frames[-1]["name"] == "status"
        assert frames[-1]["data"]["status"] == "done"

    def test_stream_of_finished_job_replays_and_closes(self, server):
        _srv, base = server
        spec = fast_spec(seed=52)
        _status, doc = post(base, "/v1/runs", {"spec": spec.to_dict()})
        wait_done(base, doc["job"])
        with urllib.request.urlopen(
            base + f"/v1/jobs/{doc['job']}/events", timeout=30
        ) as resp:
            body = resp.read().decode()  # must not hang
        assert "event: status" in body


class TestErrorSurface:
    def test_unknown_job_is_404(self, server):
        _srv, base = server
        with pytest.raises(urllib.error.HTTPError) as err:
            get(base, "/v1/jobs/j99999-deadbeef")
        assert err.value.code == 404
        assert json.load(err.value)["error"]["code"] == "not-found"

    def test_unknown_path_is_404(self, server):
        _srv, base = server
        with pytest.raises(urllib.error.HTTPError) as err:
            get(base, "/v1/nope")
        assert err.value.code == 404

    def test_wrong_method_is_405(self, server):
        _srv, base = server
        with pytest.raises(urllib.error.HTTPError) as err:
            post(base, "/v1/health", {})
        assert err.value.code == 405

    def test_malformed_json_is_400(self, server):
        _srv, base = server
        req = urllib.request.Request(
            base + "/v1/runs", data=b"{nope",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    def test_invalid_spec_is_400_with_code(self, server):
        _srv, base = server
        with pytest.raises(urllib.error.HTTPError) as err:
            post(base, "/v1/runs", {"spec": {"scheme": {"kind": "nope"}}})
        assert err.value.code == 400
        assert json.load(err.value)["error"]["code"] == "invalid-spec"

    def test_oversized_body_is_413(self, server):
        _srv, base = server
        req = urllib.request.Request(
            base + "/v1/runs", data=b"x" * (64 * 1024 + 1),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 413

    def test_garbage_request_line_is_400(self, server):
        srv, base = server
        with socket.create_connection(
            ("127.0.0.1", srv.bound_port), timeout=30
        ) as sock:
            sock.sendall(b"NOT A REQUEST\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_unparseable_target_is_400(self, server):
        srv, _base = server
        with socket.create_connection(
            ("127.0.0.1", srv.bound_port), timeout=30
        ) as sock:
            sock.sendall(b"GET http://[::1/ HTTP/1.1\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400 ")


#: asyncio.start_server's default StreamReader limit, which the service
#: listens with.
STREAM_LIMIT = 2 ** 16
MAX_BODY = 1024


async def _read(data: bytes, max_body: int):
    reader = asyncio.StreamReader(limit=STREAM_LIMIT)
    reader.feed_data(data)
    reader.feed_eof()
    try:
        return await read_request(reader, max_body), None
    except HttpError as exc:
        return exc, await reader.read()


def parse(data: bytes, max_body: int = MAX_BODY):
    """``(outcome, unread)``: a Request/None, or an HttpError plus the
    bytes the parser left on the stream when it refused."""
    return asyncio.run(_read(data, max_body))


def check_framing(data: bytes, max_body: int = MAX_BODY):
    outcome, _unread = parse(data, max_body)
    if isinstance(outcome, HttpError):
        assert 400 <= outcome.status < 500, outcome.status
    elif outcome is not None:
        assert isinstance(outcome, Request)
        names = []
        for line in data.split(b"\r\n")[1:]:
            if not line.rstrip(b"\r\n"):  # the parser's end of headers
                break
            names.append(line.partition(b":")[0].lower())
        # RFC 9112 §5.1 / §6.3: every accepted field name is a token,
        # and the body length came from at most one Content-Length.
        assert all(re.fullmatch(rb"[!#$%&'*+\-.^_`|~0-9a-z]+", name)
                   for name in names), names
        assert names.count(b"content-length") <= 1, names
        length = outcome.headers.get("content-length")
        if length is not None:
            assert re.fullmatch(r"[0-9]+", length), length
            assert len(outcome.body) == int(length) <= max_body
    return outcome


_TEXT = st.text(
    alphabet=st.sampled_from(
        "aZ09 /?#[]:@%&=+-_.~\t\x00\x0c\x7f\xa0\xb2\xff"
    ),
    max_size=24,
)
_HEADER_NAMES = st.sampled_from(
    ["Content-Length", "content-length", "Transfer-Encoding", "Host", ""]
) | _TEXT
_LENGTHS = st.sampled_from(
    ["0", "5", "+5", "-1", "1_0", " 5", "\x0c5", "5 5", "\xb2", "0x5",
     "1" * 5000, str(MAX_BODY), str(MAX_BODY + 1)]
) | _TEXT


@st.composite
def request_bytes(draw):
    """A request-shaped byte stream: mostly well-framed, perturbed at
    every field, so the fuzz reaches past the request line."""
    method = draw(st.sampled_from(["GET", "POST", "get", ""]) | _TEXT)
    target = draw(st.sampled_from(
        ["/", "/v1/health?x=1", "http://[::1/", "http://[::1]:80/",
         "http://h]/", "//[", "*"]
    ) | _TEXT)
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2"]))
    lines = [f"{method} {target} {version}"]
    for _ in range(draw(st.integers(0, 3))):
        name = draw(_HEADER_NAMES)
        value = draw(_LENGTHS if "length" in name.lower() else _TEXT)
        before = draw(st.sampled_from(["", "", " ", "\t"]))
        after = draw(st.sampled_from(["", " "]))
        lines.append(f"{name}{before}:{after}{value}")
    head = "\r\n".join(lines) + draw(st.sampled_from(["\r\n\r\n", "\r\n", ""]))
    return head.encode("latin-1") + draw(st.binary(max_size=40))


class TestRequestFraming:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.binary(max_size=256) | request_bytes())
    @example(data=b"GET http://[::1/ HTTP/1.1\r\n\r\n")
    @example(data=b"POST /v1/runs HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n"
                  b"0123456789")
    @example(data=b"POST /v1/runs HTTP/1.1\r\nContent-Length: +5\r\n\r\n"
                  b"12345")
    @example(data=b"POST /v1/runs HTTP/1.1\r\nContent-Length : 5\r\n\r\n"
                  b"12345")
    @example(data=b"POST /v1/runs HTTP/1.1\r\nContent-Length: 5\r\n"
                  b"Content-Length: 2\r\n\r\n12345")
    def test_any_stream_parses_or_gets_a_4xx(self, data):
        check_framing(data)

    @pytest.mark.parametrize("value", ["1_0", "+5", "\x0c5", "-1", "5 5",
                                       "\xb2", "1" * 5000])
    def test_content_length_is_ascii_digits_only(self, value):
        data = (f"POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\n"
                ).encode("latin-1") + b"0123456789"
        outcome, _unread = parse(data)
        assert isinstance(outcome, HttpError) and outcome.status == 400

    def test_content_length_allows_optional_whitespace(self):
        outcome, _unread = parse(
            b"POST / HTTP/1.1\r\nContent-Length: \t5 \r\n\r\n12345")
        assert isinstance(outcome, Request) and outcome.body == b"12345"

    @pytest.mark.parametrize("excess", [1, STREAM_LIMIT])
    def test_overlong_request_line_is_400(self, excess):
        data = b"GET /" + b"a" * (MAX_REQUEST_LINE + excess) + b" HTTP/1.1\r\n\r\n"
        outcome, _unread = parse(data)
        assert isinstance(outcome, HttpError) and outcome.status == 400

    @pytest.mark.parametrize("line_bytes", [100, STREAM_LIMIT + 1])
    def test_oversized_header_block_is_400(self, line_bytes):
        filler = b"x-pad: " + b"a" * line_bytes + b"\r\n"
        repeats = MAX_HEADER_BYTES // len(filler) + 1
        data = b"GET / HTTP/1.1\r\n" + filler * repeats + b"\r\n"
        outcome, _unread = parse(data)
        assert isinstance(outcome, HttpError) and outcome.status == 400

    def test_oversized_body_is_refused_unread(self):
        body = b"x" * (MAX_BODY + 1)
        data = (b"POST / HTTP/1.1\r\nContent-Length: "
                + str(len(body)).encode() + b"\r\n\r\n" + body)
        outcome, unread = parse(data)
        assert isinstance(outcome, HttpError) and outcome.status == 413
        assert unread == body  # refused before a byte of it was read
