"""Golden tests of the ``repro serve`` JSON wire schema and routing."""

import json

import pytest

from repro.experiments import ExperimentSpec, Plan, SchemeSpec
from repro.server import WIRE_VERSION, WireError
from repro.server import wire
from repro.server.routes import ROUTES, match

FAST = dict(scale=128.0, n_banks=1, n_intervals=1)


def fast_spec(**overrides):
    fields = dict(scheme=SchemeSpec("drcat"), workload="libq", **FAST)
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestRunRequests:
    def test_bare_spec_document_round_trips(self):
        spec = fast_spec(seed=3)
        parsed = wire.parse_run_request(spec.to_dict())
        assert parsed == spec
        assert parsed.content_hash() == spec.content_hash()

    def test_enveloped_spec_document_round_trips(self):
        spec = fast_spec(seed=4)
        parsed = wire.parse_run_request({"spec": spec.to_dict()})
        assert parsed == spec

    def test_run_body_is_exactly_the_cli_spec_document(self):
        # The wire reuses `repro run --spec` documents verbatim: what
        # to_dict emits is a valid POST /v1/runs body with no extras.
        doc = fast_spec().to_dict()
        body = json.dumps({"spec": doc}).encode()
        assert wire.parse_run_request(wire.parse_json_body(body)) == \
            fast_spec()

    def test_invalid_spec_is_a_422_style_wire_error(self):
        for doc in ({"scheme": {"kind": "bogus"}},
                    dict(fast_spec().to_dict(), engine="jit")):
            with pytest.raises(WireError) as err:
                wire.parse_run_request({"spec": doc})
            assert err.value.status == 400
            assert err.value.code == "invalid-spec"

    def test_non_object_spec_rejected(self):
        with pytest.raises(WireError):
            wire.parse_run_request({"spec": [1, 2]})


class TestPlanRequests:
    def test_plan_document_round_trips(self):
        plan = Plan.grid(fast_spec(), seed=[1, 2, 3])
        parsed = wire.parse_plan_request(plan.to_dict())
        assert parsed.content_hash() == plan.content_hash()
        assert len(parsed) == 3

    def test_enveloped_plan_round_trips(self):
        plan = Plan.grid(fast_spec(), seed=[5, 6])
        parsed = wire.parse_plan_request({"plan": plan.to_dict()})
        assert list(parsed.specs) == list(plan.specs)

    def test_invalid_plan_is_a_wire_error(self):
        with pytest.raises(WireError) as err:
            wire.parse_plan_request({"plan": {"axes": "nope"}})
        assert err.value.code == "invalid-plan"


class TestBodiesAndEnvelopes:
    def test_empty_body_rejected(self):
        with pytest.raises(WireError, match="empty"):
            wire.parse_json_body(b"")

    def test_non_json_body_rejected(self):
        with pytest.raises(WireError, match="not valid JSON"):
            wire.parse_json_body(b"{nope")

    def test_non_object_body_rejected(self):
        with pytest.raises(WireError, match="JSON object"):
            wire.parse_json_body(b"[1, 2]")

    def test_envelope_stamps_wire_version(self):
        assert wire.envelope({"x": 1}) == {"wire_version": WIRE_VERSION,
                                           "x": 1}

    def test_error_doc_carries_code_status_message(self):
        doc = wire.error_doc(WireError("nope", status=404,
                                       code="not-found"))
        assert doc["error"] == {"code": "not-found", "status": 404,
                                "message": "nope"}
        assert doc["wire_version"] == WIRE_VERSION

    def test_generic_exception_becomes_internal_error(self):
        doc = wire.error_doc(RuntimeError("boom"))
        assert doc["error"]["code"] == "internal"
        assert doc["error"]["status"] == 500

    def test_dump_is_canonical(self):
        # Sorted keys + trailing newline: the property the byte-identity
        # assertions (server response vs direct run) rely on.
        a = wire.dump({"b": 1, "a": 2})
        b = wire.dump({"a": 2, "b": 1})
        assert a == b
        assert a.endswith(b"\n")
        assert json.loads(a) == {"a": 2, "b": 1}


class TestSSEFraming:
    def test_event_frame_shape(self):
        frame = wire.sse_event("epoch", 7, {"b": 1, "a": 2}).decode()
        lines = frame.splitlines()
        assert lines[0] == "event: epoch"
        assert lines[1] == "id: 7"
        assert lines[2] == 'data: {"a":2,"b":1}'
        assert frame.endswith("\n\n")

    def test_data_is_one_line(self):
        frame = wire.sse_event("x", 0, {"text": "a\nb"}).decode()
        # JSON escapes the newline; the frame stays single-data-line.
        assert frame.count("data: ") == 1

    def test_comment_frame(self):
        assert wire.sse_comment("keep-alive") == b": keep-alive\n\n"


class TestRouting:
    def test_endpoint_table_is_pinned(self):
        table = {(r.method, "/" + "/".join(r.segments)): r.handler
                 for r in ROUTES}
        assert table == {
            ("GET", "/v1/health"): "health",
            ("POST", "/v1/runs"): "submit_run",
            ("POST", "/v1/plans"): "submit_plan",
            ("GET", "/v1/jobs"): "list_jobs",
            ("GET", "/v1/jobs/<id>"): "job_status",
            ("GET", "/v1/jobs/<id>/events"): "job_events",
        }

    def test_match_binds_path_params(self):
        route, params, known = match("GET", "/v1/jobs/j00001-abc/events")
        assert route.handler == "job_events"
        assert params == {"id": "j00001-abc"}
        assert known

    def test_unknown_path_is_not_known(self):
        route, params, known = match("GET", "/v2/health")
        assert route is None and not known

    def test_method_mismatch_is_known_path(self):
        # Known path + wrong method must be distinguishable (405 vs 404).
        route, _params, known = match("DELETE", "/v1/health")
        assert route is None and known
