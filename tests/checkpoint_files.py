"""Reading and rewriting checkpoint files by hand, independently of
prunekit.checkpoint: an 8-byte little-endian header length, a header of
canonical JSON padded with spaces to 8 bytes, then the arrays' bytes."""

import base64
import json
from pathlib import Path


def header_bytes(doc) -> bytes:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return text + b" " * (-len(text) % 8)


def split(path) -> tuple:
    """The file's header document and the bytes after its header."""
    raw = Path(path).read_bytes()
    start = 8 + int.from_bytes(raw[:8], "little")
    return json.loads(raw[8:start]), bytearray(raw[start:])


def file_bytes(doc, data, header=None) -> bytes:
    """A file of header (by default doc's canonical one), then data."""
    header = header_bytes(doc) if header is None else header
    return len(header).to_bytes(8, "little") + header + bytes(data)


def join(path, doc, data) -> None:
    """Write doc as a canonical header, then data."""
    Path(path).write_bytes(file_bytes(doc, data))


def at(doc, *keys):
    for key in keys:
        doc = doc[key]
    return doc


def stored(path, *keys) -> bytes:
    """The bytes of the array whose header entry is at `keys`."""
    doc, data = split(path)
    entry = at(doc, *keys)
    return bytes(data[entry["offset"]:entry["offset"] + entry["nbytes"]])


def edit_header(path, edit) -> None:
    """Rewrite the file with edit applied to its header document, which it
    changes in place or returns changed, and a canonical header; the bytes
    after the header stay as they are."""
    doc, data = split(path)
    changed = edit(doc)
    join(path, doc if changed is None else changed, data)


def edit_array(path, change, *keys) -> None:
    """Rewrite the file with the bytes of the array at `keys` replaced by
    change(bytes), of the same length, and nothing else changed."""
    doc, data = split(path)
    entry = at(doc, *keys)
    span = slice(entry["offset"], entry["offset"] + entry["nbytes"])
    new = change(bytes(data[span]))
    assert len(new) == entry["nbytes"]
    data[span] = new
    join(path, doc, data)


def format_4_text(path) -> str:
    """The format-4 file of the same state as the format-5 file at path:
    the header document, version 4, with each array entry replaced by
    {"data": base64 of its bytes, "shape"}, "bits" in place of "data" for a
    mask, as canonical JSON plus a newline."""
    doc, data = split(path)

    def array(entry):
        if not isinstance(entry, dict) or sorted(entry) != ["dtype", "nbytes", "offset", "shape"]:
            return entry
        raw = bytes(data[entry["offset"]:entry["offset"] + entry["nbytes"]])
        return {"bits" if entry["dtype"] == "|u1" else "data": base64.b64encode(raw).decode(),
                "shape": entry["shape"]}

    for entries in (doc["layers"], doc["rewind_snapshot"] or ()):
        for fields in entries:
            fields.update({name: array(value) for name, value in fields.items()})
    doc["format_version"] = 4
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
