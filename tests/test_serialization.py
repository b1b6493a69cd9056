"""Tests for the record wire encoding."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.provenance.graph import NodeRef
from repro.provenance.records import ProvenanceBundle, ProvenanceRecord
from repro.provenance.serialization import (
    _split_pipes,
    _unescape,
    chunk_encoded,
    decode_record,
    decode_records,
    encode_record,
    encode_records,
)

REF = NodeRef("f-000001", 3)


def _reference_decode(line):
    """The character-loop decoder: every line goes through
    ``_split_pipes``, and subject, attribute and value through
    ``_unescape``; the kind is compared raw."""
    parts = _split_pipes(line)
    if len(parts) != 4:
        raise ValueError(f"malformed record line: {line!r}")
    subject_text, attribute, kind, value_text = parts
    subject = NodeRef.parse(_unescape(subject_text))
    attribute = _unescape(attribute)
    raw_value = _unescape(value_text)
    if kind == "x":
        return ProvenanceRecord(subject, attribute, NodeRef.parse(raw_value))
    if kind == "s":
        return ProvenanceRecord(subject, attribute, raw_value)
    raise ValueError(f"unknown value kind {kind!r} in line {line!r}")


def _outcome(decode, line):
    try:
        return ("record", decode(line))
    except ValueError as exc:
        return ("error", str(exc))


# Wire text biased towards the characters the escaping and the record
# grammar care about, plus arbitrary Unicode.
_wire_char = st.sampled_from(list("\\|pnrxs_0123456789\n")) | st.characters()
_wire_text = st.text(alphabet=_wire_char, max_size=12)
_wire_field = _wire_text | st.sampled_from(
    ["x", "s", "\\x", "\\s", "f-000001_3", "p_0", "a\\", "\\", "\\p"]
)
_wire_line = st.text(alphabet=_wire_char, max_size=40) | st.lists(
    _wire_field, min_size=3, max_size=5
).map("|".join)


class TestEncodeDecode:
    def test_string_record_roundtrip(self):
        record = ProvenanceRecord(REF, "name", "/out/file.txt")
        assert decode_record(encode_record(record)) == record

    def test_xref_record_roundtrip(self):
        record = ProvenanceRecord(REF, "input", NodeRef("p-000002", 1))
        decoded = decode_record(encode_record(record))
        assert decoded == record
        assert decoded.is_xref

    def test_pipes_and_newlines_escaped(self):
        record = ProvenanceRecord(REF, "argv", "a|b\nc\\d|")
        assert decode_record(encode_record(record)) == record

    def test_multi_record_roundtrip(self):
        records = [
            ProvenanceRecord(REF, "type", "file"),
            ProvenanceRecord(REF, "input", NodeRef("x", 0)),
            ProvenanceRecord(NodeRef("p", 9), "env", "PATH=/bin"),
        ]
        assert decode_records(encode_records(records)) == records

    def test_empty(self):
        assert encode_records([]) == ""
        assert decode_records("") == []

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            decode_record("only|three|fields")
        with pytest.raises(ValueError):
            decode_record("a_1|attr|?|value")

    def test_wire_size_matches_encoding(self):
        # For escape-free records, wire_size is exactly the encoded line
        # plus its newline.
        record = ProvenanceRecord(REF, "name", "/some/path")
        assert record.wire_size() == len(encode_record(record)) + 1

    identifier = st.from_regex(r"[a-zA-Z][a-zA-Z0-9\-]{0,10}", fullmatch=True)
    text_value = st.text(max_size=80)

    @given(
        identifier,
        st.integers(min_value=0, max_value=999),
        identifier,
        text_value,
    )
    def test_roundtrip_property(self, uuid, version, attribute, value):
        record = ProvenanceRecord(NodeRef(uuid, version), attribute, value)
        assert decode_record(encode_record(record)) == record

    @given(st.lists(st.tuples(identifier, text_value), max_size=20))
    def test_block_roundtrip_property(self, pairs):
        records = [
            ProvenanceRecord(REF, attribute or "a", value)
            for attribute, value in pairs
        ]
        assert decode_records(encode_records(records)) == records

    @settings(max_examples=500)
    @given(_wire_line)
    @example("f_1|name|s|value\\")
    @example("f_1|name|\\x|p_0")
    @example("f_1|name|\\s|v")
    @example("f_1|name|s")
    @example("f_1|name|s|v|w")
    @example("f_1|na\\pme|x|p\\\\_0")
    @example("\\")
    def test_decode_matches_reference(self, line):
        """Any line — well-formed or not — decodes to the same record, or
        fails with the same message, as the character-loop reference."""
        assert _outcome(decode_record, line) == _outcome(_reference_decode, line)


class TestChunking:
    def _records(self, count):
        return [
            ProvenanceRecord(NodeRef(f"n{i:04d}", 0), "name", f"/path/{i:04d}")
            for i in range(count)
        ]

    def test_chunks_respect_limit(self):
        chunks = chunk_encoded(self._records(100), 256)
        assert all(len(chunk.encode()) <= 256 for chunk in chunks)

    def test_chunks_lose_nothing(self):
        records = self._records(100)
        chunks = chunk_encoded(records, 256)
        reassembled = []
        for chunk in chunks:
            reassembled.extend(decode_records(chunk))
        assert reassembled == records

    def test_records_never_split(self):
        for chunk in chunk_encoded(self._records(50), 100):
            for line in chunk.splitlines():
                decode_record(line)  # every line is a complete record

    def test_oversized_record_rejected(self):
        record = ProvenanceRecord(REF, "argv", "x" * 1000)
        with pytest.raises(ValueError):
            chunk_encoded([record], 128)

    def test_empty_input(self):
        assert chunk_encoded([], 8192) == []

    @given(st.integers(min_value=64, max_value=8192))
    def test_chunk_size_sweep(self, limit):
        records = self._records(30)
        chunks = chunk_encoded(records, limit)
        assert all(len(chunk.encode()) <= limit for chunk in chunks)
        reassembled = [r for chunk in chunks for r in decode_records(chunk)]
        assert reassembled == records


class TestBundle:
    def test_bundle_rejects_foreign_records(self):
        bundle = ProvenanceBundle(uuid="a")
        with pytest.raises(ValueError):
            bundle.add(ProvenanceRecord(NodeRef("b", 0), "type", "file"))

    def test_by_version_grouping(self):
        bundle = ProvenanceBundle(uuid="a")
        bundle.add(ProvenanceRecord(NodeRef("a", 0), "type", "file"))
        bundle.add(ProvenanceRecord(NodeRef("a", 1), "version-of", NodeRef("a", 0)))
        bundle.add(ProvenanceRecord(NodeRef("a", 1), "input", NodeRef("p", 0)))
        grouped = bundle.by_version()
        assert set(grouped) == {0, 1}
        assert len(grouped[1]) == 2
        assert bundle.versions() == [0, 1]

    def test_xrefs(self):
        bundle = ProvenanceBundle(uuid="a")
        bundle.add(ProvenanceRecord(NodeRef("a", 0), "input", NodeRef("p", 2)))
        bundle.add(ProvenanceRecord(NodeRef("a", 0), "name", "/x"))
        assert bundle.xrefs() == [NodeRef("p", 2)]
