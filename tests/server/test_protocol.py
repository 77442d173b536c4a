"""The wire protocol: encode/decode and the typed error payloads."""

import json

import pytest

from repro.errors import CompileError, ParseError, PlanError, QueryError
from repro.server import AdmissionRejected, ProtocolError, error_payload
from repro.server.protocol import decode_line, encode


class TestCodec:
    def test_encode_is_one_compact_line(self):
        line = encode({"id": 1, "ok": True, "rows": [[1, 2]]})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        assert b": " not in line  # compact separators
        assert json.loads(line) == {"id": 1, "ok": True, "rows": [[1, 2]]}

    def test_row_tuples_encode_to_the_bytes_row_lists_did(self):
        # The server hands the encoder its row tuples uncopied; the line
        # on the wire is what the per-row list() copies used to produce.
        rows = [(1, "a", None), (2, "bé", 2.5), ()]
        assert encode({"id": 7, "rows": rows}) == encode(
            {"id": 7, "rows": [list(row) for row in rows]}
        )

    def test_encode_stringifies_exotic_values(self):
        line = encode({"value": float("inf").__class__})  # a type object
        assert json.loads(line)  # default=str keeps it serializable

    def test_decode_roundtrip(self):
        message = decode_line(b'{"id": 3, "op": "ping"}\n')
        assert message == {"id": 3, "op": "ping"}

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_line(b"{nope\n")

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_line(b"[1, 2]\n")

    def test_decode_rejects_unknown_ops(self):
        with pytest.raises(ProtocolError, match="unknown op 'drop'"):
            decode_line(b'{"op": "drop"}\n')
        with pytest.raises(ProtocolError, match="unknown op None"):
            decode_line(b'{"q": "select 1"}\n')


class TestErrorPayloads:
    def test_admission_carries_bound_and_budget(self):
        error = AdmissionRejected("too big", bound=512.0, budget=100.0)
        payload = error_payload(error)
        assert payload == {
            "type": "admission",
            "message": "too big",
            "bound": 512.0,
            "budget": 100.0,
        }

    def test_parse_and_compile_carry_positions(self):
        parse = error_payload(
            ParseError("bad", source="select x", line=1, column=8)
        )
        assert parse["type"] == "parse"
        assert (parse["line"], parse["column"]) == (1, 8)
        assert "^" in parse["caret"]
        compile_ = error_payload(
            CompileError("bad", source="select x", line=1, column=8)
        )
        assert compile_["type"] == "compile"

    def test_plan_query_protocol_and_internal(self):
        assert error_payload(PlanError("p"))["type"] == "plan"
        assert error_payload(QueryError("q"))["type"] == "query"
        assert error_payload(ProtocolError("m"))["type"] == "protocol"
        internal = error_payload(ZeroDivisionError("boom"))
        assert internal["type"] == "internal"
        assert "ZeroDivisionError" in internal["message"]

    def test_every_payload_is_json_serializable(self):
        errors = [
            AdmissionRejected("m", bound=1.0, budget=2.0),
            ParseError("m", source="s"),
            ProtocolError("m"),
            QueryError("m"),
            RuntimeError("m"),
        ]
        for error in errors:
            json.dumps(error_payload(error))
