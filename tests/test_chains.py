import json

import numpy as np
import pytest

from polyosc import (
    boson_chain,
    chain_from_file,
    gaussian_moment_chain,
    hermite_chain,
    krawtchouk_chain,
    resolve_chain,
)


def test_boson_chain_values():
    ch = boson_chain(4)
    assert np.allclose(ch.b, np.sqrt(np.arange(1, 5) / 2.0))
    assert not ch.truncated


def test_hermite_is_the_same_chain_different_label():
    assert np.array_equal(hermite_chain(5).b, boson_chain(5).b)
    assert hermite_chain(5).label != boson_chain(5).label


def test_krawtchouk_chain_closes():
    ch = krawtchouk_chain(0.3, 6)
    assert ch.truncated
    assert ch.valid_depth == 6
    # b_{n-1}^2 = p(1-p) n (N-n+1)
    n = np.arange(1, 7)
    assert np.allclose(ch.b[:6] ** 2, 0.3 * 0.7 * n * (6 - n + 1))


def test_gaussian_moment_chain_matches_unit_normal():
    ch = gaussian_moment_chain(5)
    assert np.allclose(ch.b, np.sqrt(np.arange(1, 6)), rtol=1e-10)


def test_resolve_names():
    assert resolve_chain("boson", depth=4).depth == 4
    assert resolve_chain("hermite", N=7).depth == 8
    assert resolve_chain("hermite", N=7).label == "hermite"
    assert np.array_equal(resolve_chain("boson", N=7).b, resolve_chain("hermite", N=7).b)
    assert resolve_chain("krawtchouk", p=0.5, N=3).valid_depth == 3
    assert resolve_chain("gaussian-moments", depth=4).depth == 4


def test_resolve_krawtchouk_requires_parameters():
    with pytest.raises(ValueError):
        resolve_chain("krawtchouk")


def test_resolve_unknown_name():
    with pytest.raises(ValueError):
        resolve_chain("not-a-chain-name")


def test_file_loading(tmp_path):
    j = tmp_path / "c.json"
    j.write_text(json.dumps({"b": [1.0, 2.0], "a": [0.1, 0.2], "label": "custom"}))
    ch = chain_from_file(str(j))
    assert ch.label == "custom"
    assert not ch.symmetric

    t = tmp_path / "c.txt"
    t.write_text("1.0, 2.0 3.0")
    ch = chain_from_file(str(t))
    assert ch.b.tolist() == [1.0, 2.0, 3.0]


def test_empty_file_rejected(tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("  \n")
    with pytest.raises(ValueError):
        chain_from_file(str(f))


def test_json_without_b_rejected(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"a": [1.0]}))
    with pytest.raises(ValueError):
        chain_from_file(str(f))
