"""Matrix and vector file formats: plain CSV and a small JSON schema.

CSV is one row per line with unquoted decimal fields.  JSON is either
{"rows": n, "cols": m, "data": [row-major]} or plain nested lists.  Both
parsers reject ragged input and non-finite entries (nan, inf, NaN, Infinity).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import InputFormatError


def parse_csv_matrix(text):
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise InputFormatError(f"line {lineno}: non-numeric field")
        if not all(math.isfinite(x) for x in row):
            raise InputFormatError(f"line {lineno}: non-finite field")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputFormatError(f"line {lineno}: expected {width} fields, got {len(row)}")
        rows.append(row)
    if not rows:
        raise InputFormatError("empty matrix file")
    return np.array(rows, dtype=float)


def _finite(M):
    if not np.all(np.isfinite(M)):
        raise InputFormatError("matrix data must be finite")
    return M


def parse_json_matrix(obj):
    if isinstance(obj, dict):
        try:
            rows, cols, data = obj["rows"], obj["cols"], obj["data"]
        except KeyError:
            raise InputFormatError('JSON matrix object needs "rows", "cols", "data"')
        if type(rows) is not int or type(cols) is not int:
            raise InputFormatError('"rows" and "cols" must be JSON integers')
        if not isinstance(data, list):
            raise InputFormatError('"data" must be a JSON array')
        if rows <= 0 or cols <= 0:
            raise InputFormatError("matrix dimensions must be positive")
        if len(data) != rows * cols:
            raise InputFormatError(f"expected {rows * cols} entries, got {len(data)}")
        try:
            M = np.array(data, dtype=float).reshape(rows, cols)
        except (TypeError, ValueError):
            raise InputFormatError("matrix data must be numeric")
        return _finite(M)
    if isinstance(obj, list):
        if not obj or not all(isinstance(r, list) for r in obj):
            raise InputFormatError("JSON matrix must be a non-empty list of rows")
        width = len(obj[0])
        if any(len(r) != width for r in obj):
            raise InputFormatError("ragged rows in JSON matrix")
        try:
            M = np.array(obj, dtype=float)
        except (TypeError, ValueError):
            raise InputFormatError("matrix data must be numeric")
        if M.ndim != 2:
            raise InputFormatError("JSON matrix rows must hold numbers, not lists")
        return _finite(M)
    raise InputFormatError("unsupported JSON matrix payload")


def _read_text(path):
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise InputFormatError(f"{path} is not UTF-8 text")


def load_matrix(path):
    path = Path(path)
    if not path.is_file():
        raise InputFormatError(f"no such file: {path}")
    text = _read_text(path)
    if path.suffix.lower() == ".json":
        try:
            return parse_json_matrix(json.loads(text))
        except json.JSONDecodeError as e:
            raise InputFormatError(f"bad JSON in {path}: {e}")
    return parse_csv_matrix(text)


def load_vector(path):
    m = load_matrix(path)
    if 1 not in m.shape:
        raise InputFormatError(f"expected a vector file, got shape {m.shape}")
    return m.reshape(-1)


def load_sequence(path):
    """A directory of matrix files (lexicographic order) or one JSON array of matrices."""
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir()
                       if p.is_file() and p.suffix.lower() in (".csv", ".json"))
        if not files:
            raise InputFormatError(f"no matrix files in directory {path}")
        return [load_matrix(p) for p in files]
    if not path.is_file():
        raise InputFormatError(f"no such file or directory: {path}")
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise InputFormatError(f"bad JSON in {path}: {e}")
    if not isinstance(payload, list) or not payload:
        raise InputFormatError("sequence JSON must be a non-empty array of matrices")
    return [parse_json_matrix(entry) for entry in payload]
