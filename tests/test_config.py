"""Tests for config parsing and emission."""

import json

import numpy as np
import pytest

from pwlcycles import config as cfg
from pwlcycles import cycle_solver as cs
from pwlcycles import plrnn as pl
from pwlcycles.errors import ConfigError

CANONICAL_DOC = """
{"kind": "canonical", "m": 3, "a": 0.4, "d": -4.0, "mu_hat": 0.8,
 "b_vec": [1.0, 0.5, 0.6], "e_vec": [0.5, 1.0, 1.0],
 "A_block": [[0.4, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.6]],
 "h_Y": [1.0, 0.0, 1.0]}
"""

PLRNN_DOC = """
{"kind": "plrnn", "M": 2, "A_diag": [0.5, 0.5],
 "W": [[0.0, 0.0], [0.3, 0.0]], "h": [1.0, 0.0], "relaxed_diagonal": false}
"""


def test_parse_canonical():
    sys = cfg.parse_config(CANONICAL_DOC)
    assert isinstance(sys, cs.CanonicalSystem)
    assert sys.m == 3
    assert sys.a == 0.4
    assert np.array_equal(sys.b_vec, [1.0, 0.5, 0.6])
    assert np.array_equal(sys.A_block, np.diag([0.4, 0.5, 0.6]))


def test_parse_plrnn():
    sys = cfg.parse_config(PLRNN_DOC)
    assert isinstance(sys, pl.PLRNNSystem)
    assert sys.M == 2
    assert not sys.relaxed_diagonal


def test_round_trip_is_exact():
    sys = cfg.parse_config(CANONICAL_DOC)
    text = cfg.config_to_text(sys)
    again = cfg.parse_config(text)
    assert again.a == sys.a and again.d == sys.d and again.mu_hat == sys.mu_hat
    assert np.array_equal(again.b_vec, sys.b_vec)
    assert np.array_equal(again.A_block, sys.A_block)
    # a value with no short decimal form survives exactly
    odd = cs.CanonicalSystem(
        1 / 3, -4.0 - 1e-17, [], [], np.zeros((0, 0)), [], 0.1 + 0.2
    )
    back = cfg.parse_config(cfg.config_to_text(odd))
    assert back.a == odd.a
    assert back.d == odd.d
    assert back.mu_hat == odd.mu_hat


def test_round_trip_plrnn_exact():
    sys = cfg.parse_config(PLRNN_DOC)
    again = cfg.parse_config(cfg.config_to_text(sys))
    assert np.array_equal(again.W, sys.W)
    assert np.array_equal(again.A_diag, sys.A_diag)
    assert again.relaxed_diagonal == sys.relaxed_diagonal


def test_emission_is_deterministic():
    sys = cfg.parse_config(CANONICAL_DOC)
    assert cfg.config_to_text(sys) == cfg.config_to_text(sys)
    assert cfg.config_to_text(sys).endswith("\n")


def test_file_round_trip(tmp_path):
    sys = cfg.parse_config(PLRNN_DOC)
    path = tmp_path / "net.json"
    cfg.write_config(str(path), sys)
    again = cfg.read_config(str(path))
    assert np.array_equal(again.W, sys.W)


def test_parse_errors_report_location():
    with pytest.raises(ConfigError) as info:
        cfg.parse_config('{"kind": "canonical", }')
    assert "line 1" in str(info.value)


def test_parse_rejects_bad_documents():
    with pytest.raises(ConfigError, match="kind"):
        cfg.parse_config('{"m": 0}')
    with pytest.raises(ConfigError, match="kind"):
        cfg.parse_config('{"kind": "other"}')
    with pytest.raises(ConfigError, match="missing"):
        cfg.parse_config('{"kind": "canonical", "m": 0}')
    with pytest.raises(ConfigError, match="unknown"):
        cfg.parse_config(
            '{"kind": "canonical", "m": 0, "a": 0.4, "d": -4.0, "mu_hat": 0.8,'
            ' "b_vec": [], "e_vec": [], "A_block": [], "h_Y": [], "extra": 1}'
        )
    with pytest.raises(ConfigError):
        cfg.parse_config("[1, 2, 3]")


def test_parse_rejects_bad_values():
    base = (
        '{"kind": "canonical", "m": 0, "a": %s, "d": -4.0, "mu_hat": 0.8,'
        ' "b_vec": [], "e_vec": [], "A_block": [], "h_Y": []}'
    )
    with pytest.raises(ConfigError, match="finite"):
        cfg.parse_config(base % "Infinity")
    with pytest.raises(ConfigError, match="number"):
        cfg.parse_config(base % "true")
    with pytest.raises(ConfigError, match="number"):
        cfg.parse_config(base % '"0.4"')


def test_parse_rejects_shape_mismatch():
    with pytest.raises(ConfigError, match="b_vec"):
        cfg.parse_config(
            '{"kind": "canonical", "m": 2, "a": 0.4, "d": -4.0, "mu_hat": 0.8,'
            ' "b_vec": [1.0], "e_vec": [0.0, 0.0],'
            ' "A_block": [[0.5, 0.0], [0.0, 0.5]], "h_Y": [0.0, 0.0]}'
        )
    with pytest.raises(ConfigError, match="A_block"):
        cfg.parse_config(
            '{"kind": "canonical", "m": 2, "a": 0.4, "d": -4.0, "mu_hat": 0.8,'
            ' "b_vec": [0.0, 0.0], "e_vec": [0.0, 0.0],'
            ' "A_block": [[0.5, 0.0]], "h_Y": [0.0, 0.0]}'
        )


def test_strict_diagonal_enforced_at_parse_time():
    doc = (
        '{"kind": "plrnn", "M": 2, "A_diag": [0.5, 0.5],'
        ' "W": [[0.2, 0.0], [0.3, 0.0]], "h": [1.0, 0.0],'
        ' "relaxed_diagonal": false}'
    )
    with pytest.raises(ConfigError, match="W"):
        cfg.parse_config(doc)
    relaxed = doc.replace('"relaxed_diagonal": false', '"relaxed_diagonal": true')
    sys = cfg.parse_config(relaxed)
    assert sys.W[0, 0] == 0.2


# One document per ConfigError message of the parser, each with its
# message in full; a field's checks run in the order these list them.
SMALL_CAN = (
    '{"kind": "canonical", "m": 1, "a": 0.4, "d": -4.0, "mu_hat": 0.8,'
    ' "b_vec": [1.0], "e_vec": [0.5], "A_block": [[0.5]], "h_Y": [0.0]}'
)
SMALL_NET = (
    '{"kind": "plrnn", "M": 2, "A_diag": [0.5, 0.5],'
    ' "W": [[0.0, 0.0], [0.3, 0.0]], "h": [1.0, 0.0]}'
)
MALFORMED = [
    ('{"kind" "canonical"}',
     "not valid JSON: Expecting ':' delimiter (line 1, column 9)"),
    ("[1, 2, 3]", "top-level document must be a JSON object"),
    ('{"m": 0}', "missing field 'kind'"),
    ('{"kind": "other"}',
     "field 'kind' must be 'canonical' or 'plrnn', got 'other'"),
    ('{"kind": ["canonical"]}',
     "field 'kind' must be 'canonical' or 'plrnn', got ['canonical']"),
    (SMALL_CAN[:-1] + ', "extra": 1, "W": []}', "unknown fields: 'W', 'extra'"),
    (SMALL_CAN.replace('"m": 1, ', ""), "missing field 'm'"),
    (SMALL_CAN.replace('"m": 1', '"m": 1.0'), "field 'm' must be an integer, got 1.0"),
    (SMALL_CAN.replace('"m": 1', '"m": true'), "field 'm' must be an integer, got True"),
    (SMALL_CAN.replace('"m": 1', '"m": -1'), "field 'm' must be >= 0, got -1"),
    (SMALL_NET.replace('"M": 2', '"M": 0'), "field 'M' must be >= 1, got 0"),
    (SMALL_CAN.replace('"a": 0.4, ', ""), "missing field 'a'"),
    (SMALL_CAN.replace('"a": 0.4', '"a": "0.4"'),
     "field 'a' must be a number, got '0.4'"),
    (SMALL_CAN.replace('"a": 0.4', '"a": true'), "field 'a' must be a number, got True"),
    (SMALL_CAN.replace('"d": -4.0', '"d": -Infinity'),
     "field 'd' must be finite, got -inf"),
    (SMALL_CAN.replace('"b_vec": [1.0]', '"b_vec": 1.0'),
     "field 'b_vec' must be a list of numbers"),
    (SMALL_CAN.replace('"e_vec": [0.5]', '"e_vec": [0.5, 0.5]'),
     "field 'e_vec' must have length 1, got 2"),
    (SMALL_CAN.replace('"h_Y": [0.0]', '"h_Y": [null]'),
     "field 'h_Y'[0] must be a number, got None"),
    (SMALL_CAN.replace('"h_Y": [0.0]', '"h_Y": [NaN]'), "field 'h_Y'[0] must be finite"),
    # an integer literal too large for a float, in a number field and an entry
    (SMALL_CAN.replace('"a": 0.4', '"a": 1' + "0" * 400), "field 'a' must fit in a float"),
    (SMALL_CAN.replace('"b_vec": [1.0]', '"b_vec": [-1' + "0" * 400 + "]"),
     "field 'b_vec'[0] must fit in a float"),
    (SMALL_CAN.replace('"A_block": [[0.5]]', '"A_block": 0.5'),
     "field 'A_block' must be a list of 1 rows"),
    (SMALL_CAN.replace('"A_block": [[0.5]]', '"A_block": [[0.5], [0.5]]'),
     "field 'A_block' must have 1 rows, got 2"),
    (SMALL_CAN.replace('"A_block": [[0.5]]', '"A_block": [0.5]'),
     "field 'A_block' row 0 must be a list of 1 numbers"),
    (SMALL_CAN.replace('"A_block": [[0.5]]', '"A_block": [[false]]'),
     "field 'A_block'[0][0] must be a number, got False"),
    (SMALL_CAN.replace('"A_block": [[0.5]]', '"A_block": [[Infinity]]'),
     "field 'A_block'[0][0] must be finite"),
    (SMALL_NET[:-1] + ', "relaxed_diagonal": 1}',
     "field 'relaxed_diagonal' must be a boolean, got 1"),
    (SMALL_NET.replace("[[0.0, 0.0], [0.3, 0.0]]", "[[0.2, 0.0], [0.3, 0.0]]"),
     "field 'W': W must have a zero diagonal unless relaxed_diagonal is set"),
    # the first failing field in parse order is the one reported
    (SMALL_CAN.replace('"a": 0.4', '"a": null').replace('"h_Y": [0.0]', '"h_Y": 1'),
     "field 'a' must be a number, got None"),
    (SMALL_CAN.replace('"mu_hat": 0.8', '"mu_hat": null')
     .replace('"h_Y": [0.0]', '"h_Y": 1'), "field 'h_Y' must be a list of numbers"),
    (SMALL_NET.replace("[0.5, 0.5]", "[]")[:-1] + ', "relaxed_diagonal": null}',
     "field 'relaxed_diagonal' must be a boolean, got None"),
    (SMALL_NET.replace('"M": 2', '"zz": 0'), "unknown fields: 'zz'"),
]


@pytest.mark.parametrize("text, message", MALFORMED)
def test_config_error_messages(text, message):
    with pytest.raises(ConfigError) as info:
        cfg.parse_config(text)
    assert str(info.value) == message


def _reference_text(sys):
    """The config document as the per-kind emitter wrote it, key by key."""
    if isinstance(sys, cs.CanonicalSystem):
        doc = {"kind": "canonical", "m": sys.m, "a": sys.a, "d": sys.d,
               "mu_hat": sys.mu_hat, "b_vec": sys.b_vec.tolist(),
               "e_vec": sys.e_vec.tolist(), "A_block": sys.A_block.tolist(),
               "h_Y": sys.h_Y.tolist()}
    else:
        doc = {"kind": "plrnn", "M": sys.M, "A_diag": sys.A_diag.tolist(),
               "W": sys.W.tolist(), "h": sys.h.tolist(),
               "relaxed_diagonal": sys.relaxed_diagonal}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_config_to_text_matches_reference_on_seeded_systems():
    rng = np.random.default_rng(2024)
    systems = []
    for m in (0, 1, 3, 7):
        for _ in range(4):
            scale = 10.0 ** rng.integers(-300, 300)
            systems.append(cs.CanonicalSystem(
                rng.normal() * scale, -rng.normal(), rng.normal(size=m),
                rng.normal(size=m) * scale, rng.normal(size=(m, m)),
                rng.normal(size=m), rng.normal(),
            ))
    for M in (1, 2, 5):
        for relaxed in (False, True):
            W = rng.normal(size=(M, M))
            if not relaxed:
                np.fill_diagonal(W, 0.0)
            systems.append(pl.PLRNNSystem(rng.normal(size=M), W,
                                          rng.normal(size=M), relaxed))
    for sys in systems:
        text = cfg.config_to_text(sys)
        assert text == _reference_text(sys)
        assert cfg.config_to_text(cfg.parse_config(text)) == text


def test_config_to_text_exact_document():
    sys = cfg.parse_config(SMALL_NET)
    assert cfg.config_to_text(sys) == (
        '{\n  "A_diag": [\n    0.5,\n    0.5\n  ],\n  "M": 2,\n  "W": [\n'
        '    [\n      0.0,\n      0.0\n    ],\n    [\n      0.3,\n      0.0\n'
        '    ]\n  ],\n  "h": [\n    1.0,\n    0.0\n  ],\n  "kind": "plrnn",\n'
        '  "relaxed_diagonal": false\n}\n'
    )
    with pytest.raises(TypeError, match="cannot serialize dict"):
        cfg.config_to_text({})
