import json

import numpy as np
import pytest

from helpers import random_pair, random_theta
from srtrkit import fixtures, jsonio
from srtrkit.errors import InvalidInputError
from srtrkit.factorization import lcf_from_srtr
from srtrkit.loop import assemble_closed_loop, rowwise_implementation
from srtrkit.rational import RationalFn
from srtrkit.srtr import nrf_from_srtr, sparsity_pattern
from srtrkit.synthesis import dense_spec


def test_load_json_error(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(InvalidInputError):
        jsonio.load_json(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidInputError):
        jsonio.load_json(str(bad))


def test_system_roundtrip():
    sys = fixtures.ring6_plant()
    d = jsonio.system_to_dict(sys)
    back = jsonio.system_from_dict(json.loads(json.dumps(d)))
    assert np.array_equal(back.A, sys.A)
    assert np.array_equal(back.B, sys.B)
    assert back.domain == sys.domain


def test_partitioned_roundtrip_q_zero():
    bank = fixtures.integrator_bank_pair(2).base
    d = jsonio.partitioned_to_dict(bank)
    back = jsonio.partitioned_from_dict(json.loads(json.dumps(d)))
    assert back.q == 0
    assert back.p == 2
    assert np.array_equal(back.B1, np.eye(2))


def test_pair_roundtrip():
    pair = fixtures.ring6_pair()
    back = jsonio.pair_from_dict(json.loads(json.dumps(jsonio.pair_to_dict(pair))))
    assert np.array_equal(back.K, pair.K)
    assert np.array_equal(back.base.A11, pair.base.A11)
    assert back.domain == "continuous"


def test_nrf_roundtrip():
    rng = np.random.default_rng(12)
    pair = random_pair(rng, 2, 2, 1, stable=True)
    nrf = nrf_from_srtr(pair)
    d = json.loads(json.dumps(jsonio.nrf_to_dict(nrf)))
    assert set(d) == {"Phi", "Gamma", "notes"} and d["notes"] == []
    lam = 0.4 + 0.2j
    for key, want in (("Phi", nrf.eval_phi(lam)), ("Gamma", nrf.eval_gamma(lam))):
        assert np.shape(d[key]) == want.shape
        for i, row in enumerate(d[key]):
            for j, entry in enumerate(row):
                assert set(entry) == {"num", "den"}
                back = RationalFn(entry["num"], entry["den"])
                assert back(lam) == pytest.approx(want[i, j], rel=1e-12, abs=1e-12)


def test_pattern_dict():
    pat = sparsity_pattern(fixtures.ring6_pair())
    d = jsonio.pattern_to_dict(pat)
    assert set(d) == {"maskW", "maskV"}
    assert all(v in (0, 1) for row in d["maskW"] for v in row)


def test_lcf_roundtrip():
    rng = np.random.default_rng(23)
    pair = random_pair(rng, 2, 2, 2, stable=True)
    lcf = lcf_from_srtr(pair, random_theta(2, rng))
    back = jsonio.lcf_from_dict(json.loads(json.dumps(jsonio.lcf_to_dict(lcf))))
    lam = 0.5 + 0.5j
    assert np.allclose(back.eval_mn(lam), lcf.eval_mn(lam), atol=1e-12)
    assert np.array_equal(back.U, lcf.U)


def test_theta_roundtrip():
    rng = np.random.default_rng(29)
    theta = random_theta(3, rng)
    back = jsonio.theta_from_dict(json.loads(json.dumps(jsonio.theta_to_dict(theta))))
    assert np.array_equal(back.Ax, theta.Ax)


def test_spec_roundtrip():
    spec = fixtures.ring6_spec(orders=1)
    back = jsonio.spec_from_dict(json.loads(json.dumps(jsonio.spec_to_dict(spec))))
    assert np.array_equal(back.maskW, spec.maskW)
    assert np.array_equal(back.maskV, spec.maskV)
    assert back.orders == spec.orders
    assert back.extra == spec.extra
    dense = dense_spec(2, 2, 3)
    again = jsonio.spec_from_dict(jsonio.spec_to_dict(dense))
    assert again.extra is None


def test_gain_from_dict_variants():
    K = fixtures.ring6_gain()
    assert np.array_equal(jsonio.gain_from_dict({"K": K.tolist()}), K)
    assert np.array_equal(jsonio.gain_from_dict(K.tolist()), K)
    with pytest.raises(InvalidInputError):
        jsonio.gain_from_dict({"K": [[1.0]]}, p=6, q=6)


def test_closed_loop_roundtrip():
    rows = rowwise_implementation(fixtures.ring6_pair(), orders=[1] * 6)
    cl = assemble_closed_loop(fixtures.ring6_plant(), rows)
    back = jsonio.closed_loop_from_dict(
        json.loads(json.dumps(jsonio.closed_loop_to_dict(cl)))
    )
    assert np.allclose(back.Acl, cl.Acl)
    assert back.n_plant == cl.n_plant and back.n_ctrl == cl.n_ctrl
    assert back.domain == cl.domain


@pytest.mark.parametrize("shift", [-1, 1])
def test_closed_loop_state_split_is_not_negative(shift):
    # the split still sums to the size of Acl, but one side is below 0
    rows = rowwise_implementation(fixtures.ring6_pair(), orders=[1] * 6)
    d = jsonio.closed_loop_to_dict(assemble_closed_loop(fixtures.ring6_plant(), rows))
    n = len(d["Acl"])
    d["nPlant"], d["nCtrl"] = (n + 1, -1) if shift > 0 else (-1, n + 1)
    with pytest.raises(InvalidInputError, match="nPlant"):
        jsonio.closed_loop_from_dict(d)


def test_nonfinite_rejected():
    d = jsonio.system_to_dict(fixtures.ring6_plant())
    d["A"][0][0] = float("nan")
    with pytest.raises(InvalidInputError):
        jsonio.system_from_dict(d)


@pytest.mark.parametrize("value", [6, 6.0])
def test_integer_fields_accept_whole_numbers(value):
    d = jsonio.pair_to_dict(fixtures.ring6_pair())
    d["p"] = value
    assert jsonio.pair_from_dict(d).p == 6
    assert jsonio.integer(value, "p") == 6 and type(jsonio.integer(value, "p")) is int


@pytest.mark.parametrize("value", [1.5, 6.5, True, "6", None, [6], float("nan"), float("inf")])
def test_integer_fields_reject_bools_strings_and_fractions(value):
    with pytest.raises(InvalidInputError):
        jsonio.integer(value, "p")
    d = jsonio.pair_to_dict(fixtures.ring6_pair())
    d["p"] = value
    with pytest.raises(InvalidInputError):
        jsonio.pair_from_dict(d)
    spec = jsonio.spec_to_dict(fixtures.ring6_spec(orders=1))
    spec["orders"][2] = value
    with pytest.raises(InvalidInputError):
        jsonio.spec_from_dict(spec)


@pytest.mark.parametrize("A22", [[[1.0, 2.0], [3.0]], [["a", "b"], ["c", "d"]], "x", 2.0])
def test_malformed_hidden_block_is_invalid_input(A22):
    d = jsonio.partitioned_to_dict(fixtures.ring6_controller_base())
    d["A22"] = A22
    with pytest.raises(InvalidInputError):
        jsonio.partitioned_from_dict(d)
