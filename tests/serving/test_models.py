"""Typed request/response model validation and the stable error-code table."""

import pytest

from repro.serving.models import (
    ERROR_STATUS,
    ApiError,
    ErrorEnvelope,
    JobSubmitRequest,
    ModelLoadRequest,
    ScoreRequest,
    ScoreResponse,
    SessionCreateRequest,
)


class TestErrorContract:
    def test_stable_codes_map_to_correct_statuses(self):
        # The satellite contract: these codes and statuses are frozen.
        assert ERROR_STATUS["bad_request"] == 400
        assert ERROR_STATUS["model_not_found"] == 404
        assert ERROR_STATUS["job_not_found"] == 404
        assert ERROR_STATUS["session_expired"] == 410
        assert ERROR_STATUS["shutting_down"] == 503
        assert ERROR_STATUS["method_not_allowed"] == 405
        assert ERROR_STATUS["payload_too_large"] == 413

    def test_api_error_carries_code_and_status(self):
        error = ApiError("model_not_found", "no model 'x'", detail={"id": "x"})
        assert error.http_status == 404
        assert error.code == "model_not_found"
        envelope = error.envelope().to_json()
        assert envelope == {"error": {"code": "model_not_found",
                                      "message": "no model 'x'",
                                      "detail": {"id": "x"}}}

    def test_unknown_code_is_a_programming_error(self):
        with pytest.raises(ValueError, match="unknown API error code"):
            ApiError("nope", "message")

    def test_envelope_round_trip(self):
        envelope = ErrorEnvelope(code="bad_request", message="m", detail=[1])
        decoded = ErrorEnvelope.from_json(envelope.to_json())
        assert decoded == envelope


class TestScoreRequest:
    def test_round_trip(self):
        request = ScoreRequest.from_json(
            {"samples": [[1.0, 2.0]], "mode": "replay"})
        assert request.samples == [[1.0, 2.0]]
        assert request.mode == "replay"
        assert ScoreRequest.from_json(request.to_json()) == request

    def test_mode_defaults_to_reference(self):
        assert ScoreRequest.from_json({"samples": [[1]]}).mode == "reference"

    @pytest.mark.parametrize("payload", [
        [],                                # not an object
        {},                                # no samples
        {"samples": []},                   # empty
        {"samples": "nope"},               # wrong type
        {"samples": [[1]], "mode": "x"},   # unknown mode
        {"samples": [[1]], "mode": 3},     # non-string mode
        {"samples": [[1]], "extra": 1},    # unknown field
    ])
    def test_invalid_payloads_raise_bad_request(self, payload):
        with pytest.raises(ApiError) as excinfo:
            ScoreRequest.from_json(payload)
        assert excinfo.value.code == "bad_request"


class TestModelLoadRequest:
    def test_round_trip(self):
        request = ModelLoadRequest.from_json({"path": "m.json",
                                              "model_id": "prod"})
        assert (request.path, request.model_id) == ("m.json", "prod")

    @pytest.mark.parametrize("payload", [
        {},                                 # no path
        {"path": ""},                       # empty path
        {"path": 3},                        # wrong type
        {"path": "m.json", "model_id": ""},
        {"path": "m.json", "nope": 1},
    ])
    def test_invalid(self, payload):
        with pytest.raises(ApiError) as excinfo:
            ModelLoadRequest.from_json(payload)
        assert excinfo.value.code == "bad_request"


class TestJobSubmitRequest:
    def test_round_trip(self):
        request = JobSubmitRequest.from_json(
            {"kind": "replay_dataset", "model_id": "m",
             "params": {"samples": [[1]]}})
        assert request.kind == "replay_dataset"
        assert request.params == {"samples": [[1]]}
        assert JobSubmitRequest.from_json(request.to_json()) == request

    def test_params_default_to_empty(self):
        assert JobSubmitRequest.from_json({"kind": "fit"}).params == {}

    @pytest.mark.parametrize("payload", [
        {},                                   # no kind
        {"kind": "transmogrify"},             # unknown kind
        {"kind": 7},                          # non-string kind
        {"kind": "fit", "params": []},        # params not an object
        {"kind": "fit", "bogus": 1},          # unknown field
    ])
    def test_invalid(self, payload):
        with pytest.raises(ApiError) as excinfo:
            JobSubmitRequest.from_json(payload)
        assert excinfo.value.code == "bad_request"


class TestSessionCreateRequest:
    def test_defaults(self):
        request = SessionCreateRequest.from_json({})
        assert request.mode == "batch"
        assert request.model_id is None
        assert request.ttl_s is None

    def test_dedicated_with_ttl(self):
        request = SessionCreateRequest.from_json(
            {"mode": "dedicated", "ttl_s": 30})
        assert request.mode == "dedicated"
        assert request.ttl_s == 30.0

    @pytest.mark.parametrize("payload", [
        {"mode": "exclusive"},
        {"ttl_s": 0},
        {"ttl_s": -1},
        {"ttl_s": True},
        {"ttl_s": "soon"},
        {"surprise": 1},
    ])
    def test_invalid(self, payload):
        with pytest.raises(ApiError) as excinfo:
            SessionCreateRequest.from_json(payload)
        assert excinfo.value.code == "bad_request"


class TestScoreResponse:
    def test_v1_shape_carries_model_id(self):
        response = ScoreResponse(scores=[1.0], num_runs=2, num_samples=1,
                                 mode="reference", model_id="m",
                                 schema_version=1)
        payload = response.to_json()
        assert payload["model_id"] == "m"
        assert ScoreResponse.from_json(payload) == response
