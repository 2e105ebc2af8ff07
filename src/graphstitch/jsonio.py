"""The package's one JSON writer and one JSON reader: every JSON file the
pipeline writes is to_json's text, and every one it reads, the config
included, goes through read_json."""

import hashlib
import json

from .errors import ConfigError


def to_json(obj, indent=2):
    """obj as JSON with sorted keys and a final newline; indent=None: one line."""
    return json.dumps(obj, indent=indent, sort_keys=True) + "\n"


def _unique_keys(pairs):
    """A JSON object's dict; ValueError naming a key it holds twice."""
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears twice")
        obj[key] = val
    return obj


def read_json(path, what):
    """(object, SHA-256 hex of the file's bytes) of a file holding one JSON
    object in UTF-8, no key repeated; ConfigError naming `what` and the file
    otherwise."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:  # not UTF-8, not JSON, a key twice, or nested deeper than the decoder recurses
        obj = json.loads(blob.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} {path}: expected a JSON object")
    return obj, hashlib.sha256(blob).hexdigest()
