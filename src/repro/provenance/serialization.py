"""Wire encoding of provenance records.

One record per line::

    <subject>|<attribute>|<kind>|<value>

where ``kind`` is ``s`` for string values and ``x`` for node references.
Pipes and backslashes inside values are escaped.  The encoding is stable:
``decode(encode(records)) == records`` for every record, a property the
test suite checks with hypothesis.

P1 stores whole encoded bundles as S3 provenance objects, appending new
lines on each flush; P3 splits the encoded stream into 8 KB SQS messages.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.provenance.graph import NodeRef
from repro.provenance.records import ProvenanceRecord


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace("|", "\\p")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def _unescape(text: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == "p":
                out.append("|")
            elif nxt == "n":
                out.append("\n")
            elif nxt == "r":
                out.append("\r")
            else:
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def encode_record(record: ProvenanceRecord) -> str:
    """Encode one record as a single line (no trailing newline)."""
    kind = "x" if record.is_xref else "s"
    return "|".join(
        (
            _escape(str(record.subject)),
            _escape(record.attribute),
            kind,
            _escape(record.value_text()),
        )
    )


def decode_record(line: str) -> ProvenanceRecord:
    """Inverse of :func:`encode_record`."""
    # Escaping turns every raw ``|`` and ``\`` into a backslash pair, so
    # a line without a backslash has pipes only as separators and nothing
    # to unescape: ``str.split`` gives exactly what the loops would.
    escaped = "\\" in line
    parts = _split_pipes(line) if escaped else line.split("|")
    if len(parts) != 4:
        raise ValueError(f"malformed record line: {line!r}")
    subject_text, attribute, kind, raw_value = parts
    if escaped:
        subject_text = _unescape(subject_text)
        attribute = _unescape(attribute)
        raw_value = _unescape(raw_value)
    subject = NodeRef.parse(subject_text)
    if kind == "x":
        return ProvenanceRecord(subject, attribute, NodeRef.parse(raw_value))
    if kind == "s":
        return ProvenanceRecord(subject, attribute, raw_value)
    raise ValueError(f"unknown value kind {kind!r} in line {line!r}")


def _split_pipes(line: str) -> List[str]:
    """Split on unescaped pipes."""
    parts: List[str] = []
    current: List[str] = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "\\" and i + 1 < len(line):
            current.append(ch)
            current.append(line[i + 1])
            i += 2
            continue
        if ch == "|":
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    parts.append("".join(current))
    return parts


def encode_records(records: Sequence[ProvenanceRecord]) -> str:
    """Encode records, one per line, with a trailing newline."""
    if not records:
        return ""
    return "\n".join(encode_record(r) for r in records) + "\n"


def decode_records(text: str) -> List[ProvenanceRecord]:
    """Decode an encoded block back into records.

    Splits on ``\\n`` only (not ``splitlines``): escaped values may
    contain exotic Unicode line separators that are data, not structure.
    """
    return [decode_record(line) for line in text.split("\n") if line]


def chunk_encoded(
    records: Sequence[ProvenanceRecord], chunk_bytes: int
) -> List[str]:
    """Split records into encoded chunks each at most ``chunk_bytes``.

    Records are never split across chunks; a single record longer than
    ``chunk_bytes`` raises (P3 callers must spill oversized values to S3
    before chunking).
    """
    chunks: List[str] = []
    current: List[str] = []
    current_size = 0
    for record in records:
        line = encode_record(record) + "\n"
        size = len(line.encode("utf-8"))
        if size > chunk_bytes:
            raise ValueError(
                f"record of {size} bytes exceeds chunk limit {chunk_bytes}; "
                "spill the value to S3 first"
            )
        if current and current_size + size > chunk_bytes:
            chunks.append("".join(current))
            current = []
            current_size = 0
        current.append(line)
        current_size += size
    if current:
        chunks.append("".join(current))
    return chunks
