import json

import numpy as np
import pytest

from ergo import InputFormatError
from ergo.matrix_io import load_matrix, load_sequence, load_vector


def test_csv_round_trip(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("0.5,0.5\n0.25,0.75\n")
    M = load_matrix(p)
    assert np.allclose(M, [[0.5, 0.5], [0.25, 0.75]])


def test_csv_ragged_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0.5,0.5\n0.25\n")
    with pytest.raises(InputFormatError):
        load_matrix(p)


def test_csv_non_numeric_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0.5,x\n")
    with pytest.raises(InputFormatError):
        load_matrix(p)


def test_csv_non_finite_rejected(tmp_path):
    for field in ("nan", "inf", "-Infinity", "1e400"):
        p = tmp_path / "bad.csv"
        p.write_text(f"0.5,0.5\n0.5,{field}\n")
        with pytest.raises(InputFormatError, match="line 2"):
            load_matrix(p)


def test_json_object_form(tmp_path):
    p = tmp_path / "a.json"
    p.write_text(json.dumps({"rows": 2, "cols": 2, "data": [0.5, 0.5, 0.25, 0.75]}))
    assert np.allclose(load_matrix(p), [[0.5, 0.5], [0.25, 0.75]])


def test_json_nested_form(tmp_path):
    p = tmp_path / "a.json"
    p.write_text("[[1.0, 0.0], [0.0, 1.0]]")
    assert np.allclose(load_matrix(p), np.eye(2))


def test_json_bad_count(tmp_path):
    p = tmp_path / "a.json"
    p.write_text(json.dumps({"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0]}))
    with pytest.raises(InputFormatError):
        load_matrix(p)


def test_json_ragged(tmp_path):
    p = tmp_path / "a.json"
    p.write_text("[[1.0, 0.0], [0.0]]")
    with pytest.raises(InputFormatError):
        load_matrix(p)


def test_json_non_finite_rejected(tmp_path):
    p = tmp_path / "a.json"
    for text in ("[[0.5, NaN], [0.5, 0.5]]",
                 '{"rows": 1, "cols": 2, "data": [Infinity, 0.0]}'):
        p.write_text(text)
        with pytest.raises(InputFormatError):
            load_matrix(p)
    p.write_text("[[[0.5, 0.5], [-Infinity, 1.0]]]")
    with pytest.raises(InputFormatError):
        load_sequence(p)


def test_load_vector(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("1.0,2.0,3.0\n")
    assert np.allclose(load_vector(p), [1.0, 2.0, 3.0])
    q = tmp_path / "w.csv"
    q.write_text("1.0\n2.0\n")
    assert np.allclose(load_vector(q), [1.0, 2.0])


def test_missing_file():
    with pytest.raises(InputFormatError):
        load_matrix("/nonexistent/never.csv")


def test_sequence_from_directory(tmp_path):
    d = tmp_path / "seq"
    d.mkdir()
    (d / "b.csv").write_text("0.75,0.25\n0.5,0.5\n")
    (d / "a.csv").write_text("0.5,0.5\n0.25,0.75\n")
    seq = load_sequence(d)
    assert len(seq) == 2
    assert np.allclose(seq[0], [[0.5, 0.5], [0.25, 0.75]])  # lexicographic order


def test_sequence_from_json(tmp_path):
    p = tmp_path / "seq.json"
    p.write_text(json.dumps([[[0.5, 0.5], [0.25, 0.75]],
                             {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}]))
    seq = load_sequence(p)
    assert len(seq) == 2
    assert np.allclose(seq[1], np.eye(2))


def test_sequence_empty_directory(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    with pytest.raises(InputFormatError):
        load_sequence(d)
