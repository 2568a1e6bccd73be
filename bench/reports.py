"""Reading chainlearn reports and comparing them with reference reports.

A report compares equal to its reference when metadata keys, columns and row
count are identical, strings and booleans match exactly, and every pair of
numbers satisfies |a - b| <= REL_TOL * max(|a|, |b|) + ABS_TOL.  The
tolerance passes last-bit float changes from reordered arithmetic; it fails
a changed verdict, violation or exceedance count, row count or column set,
because booleans compare exactly and counts differ by at least 1.
"""

from __future__ import annotations

import csv
import io
import json
import math

REL_TOL = 1e-9
ABS_TOL = 1e-12


def parse(text: str, fmt: str) -> dict:
    """A report as {"metadata": {...}, "columns": [...], "rows": [[...]]}.

    CSV cells and metadata stay strings; JSON values keep their JSON types.
    """
    if fmt == "json":
        return json.loads(text)
    meta: dict = {}
    body = []
    for line in text.splitlines(keepends=True):
        if line.startswith("# "):
            key, _, value = line[2:].rstrip("\n").partition("=")
            meta[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("".join(body))))
    return {"metadata": meta, "columns": rows[0] if rows else [], "rows": rows[1:]}


def violations(report: dict) -> int:
    return int(report["metadata"].get("violations", 0))


def _number(v):
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str) and v not in ("true", "false"):
        try:
            return float(v)
        except ValueError:
            return None
    return None


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def differences(got, want, where: str = "report") -> list[str]:
    """Where `got` departs from `want` beyond the stated tolerance."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(set(got) ^ set(want))} differ"]
        out = []
        for k in want:
            out += differences(got[k], want[k], f"{where}.{k}")
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} entries, reference has {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += differences(g, w, f"{where}[{i}]")
        return out
    a, b = _number(got), _number(want)
    if a is not None and b is not None:
        return [] if _close(a, b) else [f"{where}: {got!r} vs reference {want!r}"]
    return [] if got == want else [f"{where}: {got!r} vs reference {want!r}"]


def compare(text: str, reference: str, fmt: str) -> list[str]:
    return differences(parse(text, fmt), parse(reference, fmt))
