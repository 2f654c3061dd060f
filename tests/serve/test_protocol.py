"""Wire-protocol unit tests: round trips, validation, canonical payloads."""

import json

import numpy as np
import pytest

from repro.core.diggerbees import run_diggerbees
from repro.errors import ProtocolError
from repro.graphs import generators as gen
from repro.serve.protocol import (
    OPS,
    QUERY_OPS,
    Request,
    Response,
    counters_to_wire,
    decode_request,
    decode_response,
    dfs_result_to_dict,
    encode_request,
    encode_response,
    encode_response_with_raw_result,
    error_response,
)


# ---------------------------------------------------------------------------
# Requests.
# ---------------------------------------------------------------------------

def test_request_roundtrip_all_fields():
    req = Request(op="dfs", id="q-1", graph="g", root=7,
                  config={"seed": 3, "two_level": False}, no_cache=True)
    back = decode_request(encode_request(req))
    assert back == req


def test_request_roundtrip_defaults():
    req = Request(op="ping")
    back = decode_request(encode_request(req))
    assert back == req
    assert back.root == 0 and back.config is None and not back.no_cache


def test_request_unknown_op_rejected():
    with pytest.raises(ProtocolError, match="unknown op"):
        Request(op="explode")


def test_request_query_requires_graph():
    for op in QUERY_OPS:
        with pytest.raises(ProtocolError, match="requires a graph"):
            Request(op=op)


def test_request_root_must_be_int():
    with pytest.raises(ProtocolError, match="root"):
        Request(op="dfs", graph="g", root="zero")
    with pytest.raises(ProtocolError, match="root"):
        Request(op="dfs", graph="g", root=True)  # bools are not roots


def test_request_config_must_be_object():
    with pytest.raises(ProtocolError, match="config"):
        Request(op="dfs", graph="g", config=[1, 2])


@pytest.mark.parametrize("field,value", [("turbo", True),
                                         ("scheduler", "heap"),
                                         ("hive_steal", "scalar"),
                                         ("fastpath", False)])
def test_turbo_and_scheduler_config_fields_fail_the_request(field, value):
    """Deleted knobs are not engine-config fields: a config naming one
    fails its own request with the typed unknown-field error."""
    from repro.serve.exec import ERROR_KEY, execute_query

    out = execute_query(gen.path_graph(8), "dfs", 0,
                        {"seed": 3, field: value})
    assert out[ERROR_KEY]["type"] == "ProtocolError"
    assert f"unknown engine-config field(s) ['{field}']" in \
        out[ERROR_KEY]["message"]


def test_decode_request_rejects_malformed_lines():
    for line in (b"not json\n", b"[1,2,3]\n", b'{"id": 1}\n',
                 b'{"op": "dfs", "graph": "g", "wat": 1}\n',
                 # A truthy non-bool would bypass the cache silently.
                 b'{"op": "dfs", "graph": "g", "no_cache": "false"}\n',
                 b'{"op": "dfs", "graph": ["g"]}\n'):
        with pytest.raises(ProtocolError):
            decode_request(line)


# ---------------------------------------------------------------------------
# Responses.
# ---------------------------------------------------------------------------

def test_response_roundtrip():
    resp = Response(op="dfs", id="q-9", result={"a": [1, 2]}, cached=True,
                    batch=4, elapsed_ms=1.25)
    back = decode_response(encode_response(resp))
    assert back == resp


def test_error_response_carries_type_and_message():
    resp = error_response(Request(op="dfs", graph="g", id="e1"),
                          ValueError("boom"))
    back = decode_response(encode_response(resp))
    assert not back.ok
    assert back.error == {"type": "ValueError", "message": "boom"}
    assert back.id == "e1"


def test_error_response_without_request_uses_fallbacks():
    resp = error_response(None, ProtocolError("bad line"), req_id="x")
    assert resp.op == "?" and resp.id == "x" and not resp.ok


def test_decode_response_rejects_unknown_fields():
    with pytest.raises(ProtocolError):
        decode_response(b'{"op": "dfs", "ok": true, "surprise": 1}\n')


def test_raw_result_splice_is_byte_identical():
    """The cache-hit fast path must emit exactly encode_response bytes."""
    payloads = [
        {"parent": [-1, 0, 1], "n": 3},
        {"empty": {}, "nested": {"k": [1.5, None, True]}},
        {},
    ]
    for result in payloads:
        for rid in ("q-1", 7, None):
            resp = Response(op="dfs", id=rid, result=result, cached=True,
                            batch=2, elapsed_ms=0.5)
            raw = json.dumps(result, separators=(",", ":"))
            assert (encode_response_with_raw_result(resp, raw)
                    == encode_response(resp))


# ---------------------------------------------------------------------------
# Canonical payloads.
# ---------------------------------------------------------------------------

def test_counters_to_wire_string_keys_sorted():
    class C:
        pass

    c = C()
    c.steals = 7
    c.tasks_per_block = {3: 10, 0: 5}
    c.tasks_per_warp = {(1, 2): 4, (0, 1): 9}
    wire = counters_to_wire(c)
    assert wire["steals"] == 7
    assert wire["tasks_per_block"] == {"0": 5, "3": 10}
    assert wire["tasks_per_warp"] == {"0,1": 9, "1,2": 4}
    # JSON-stable: round trip changes nothing.
    assert json.loads(json.dumps(wire)) == wire


def test_dfs_result_to_dict_is_canonical_and_json_safe():
    g = gen.binary_tree(5)
    res = run_diggerbees(g, 0)
    payload = dfs_result_to_dict(res)
    # Pure JSON types, visited sparse, parent dense.
    assert json.loads(json.dumps(payload)) == payload
    assert payload["n_vertices"] == g.n_vertices
    assert len(payload["parent"]) == g.n_vertices
    assert payload["n_visited"] == len(payload["visited"])
    assert payload["root"] == 0
    dense = np.zeros(g.n_vertices, bool)
    dense[payload["visited"]] = True
    assert np.array_equal(dense, res.traversal.visited)


def test_ops_cover_executors():
    from repro.serve.exec import _EXECUTORS

    # dfs queries go through execute_dfs_batch; every other op has one.
    assert set(_EXECUTORS) == set(QUERY_OPS) - {"dfs"}
    assert len(set(OPS)) == len(OPS)
