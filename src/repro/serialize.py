"""Fast JSON rendering with a byte-compatible stdlib fallback.

The JSONL trace sink serializes one record per traced event — millions per
long run — and the experiment/bench archives re-render whole sweeps; both
are pure-overhead sites where serializer speed directly widens the traced
vs untraced gap.  When :mod:`orjson` is importable it does the rendering;
otherwise the stdlib :mod:`json` module does.  **The bytes are
identical either way**, so archives and traces diff clean across
environments:

* both arms render compact form with sorted keys, ``(",", ":")``
  separators and raw (non-ascii-escaped) UTF-8, and indented form with
  two-space indent — formats orjson and stdlib agree on byte-for-byte;
* the one rendering divergence between the two libraries is floats whose
  shortest form is scientific notation (``repr`` gives ``1e-07`` /
  ``1e+17``, orjson gives ``1e-7`` / ``1e17``).  Payloads are pre-scanned
  for such floats (plus non-finite values) and routed to the stdlib
  renderer, which defines the canonical bytes.  Plain-decimal floats
  render identically in both libraries (both emit the shortest
  round-tripping form);
* payloads orjson rejects outright (ints beyond 64 bits, non-string
  keys) fall back to the stdlib renderer via ``TypeError``, again
  yielding the canonical bytes.

Parsing (:func:`json_loads`) prefers orjson and falls back to stdlib for
documents orjson cannot represent (e.g. integers beyond 64 bits).
"""

from __future__ import annotations

import json as _json
import math
from typing import Any

try:  # pragma: no cover - exercised indirectly via FAST_JSON_BACKEND
    import orjson as _orjson
except ImportError:  # pragma: no cover - orjson is a soft dependency
    _orjson = None

#: which renderer is active ("orjson" or "json") — surfaced by ``repro info``
FAST_JSON_BACKEND: str = "orjson" if _orjson is not None else "json"

if _orjson is not None:
    _COMPACT_OPTS = _orjson.OPT_SORT_KEYS
    _INDENT_OPTS = _orjson.OPT_SORT_KEYS | _orjson.OPT_INDENT_2


def _has_divergent_float(obj: Any) -> bool:
    """Whether *obj* contains a float the two renderers would disagree on.

    That is exactly the floats whose ``repr`` uses scientific notation
    (``abs(x) >= 1e16`` or ``0 < abs(x) < 1e-4``) plus the non-finite
    values; everything else renders identically in orjson and stdlib.
    """
    t = type(obj)
    if t is float:
        return "e" in float.__repr__(obj) or not math.isfinite(obj)
    if t is dict:
        return any(_has_divergent_float(v) for v in obj.values())
    if t is list or t is tuple:
        return any(_has_divergent_float(v) for v in obj)
    return False


def json_dumps_compact(obj: Any) -> str:
    """Render *obj* as compact JSON: sorted keys, no spaces, raw UTF-8."""
    if _orjson is not None and not _has_divergent_float(obj):
        try:
            return _orjson.dumps(obj, option=_COMPACT_OPTS).decode("utf-8")
        except TypeError:
            pass  # 64-bit int overflow, non-str keys, ... — stdlib handles
    return _json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


def json_dumps_indent2(obj: Any) -> str:
    """Render *obj* as two-space-indented JSON with sorted keys.

    The stable diff-friendly format of the ``BENCH_*.json`` payloads and
    experiment archives (no trailing newline — callers append one).
    """
    if _orjson is not None and not _has_divergent_float(obj):
        try:
            return _orjson.dumps(obj, option=_INDENT_OPTS).decode("utf-8")
        except TypeError:
            pass
    return _json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)


def json_loads(data: str | bytes) -> Any:
    """Parse JSON text, preferring the fast backend.

    Falls back to stdlib for documents orjson cannot represent (integers
    beyond 64 bits); malformed input raises a ``ValueError`` subclass from
    whichever parser rejects it last.
    """
    if _orjson is not None:
        try:
            return _orjson.loads(data)
        except _orjson.JSONDecodeError:
            pass  # e.g. a >64-bit integer literal; stdlib parses it
    return _json.loads(data)
