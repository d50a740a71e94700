import json
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from srtrkit import cli, errors, fixtures, jsonio, loop
from srtrkit.cli import dispatch, run_ring_reproduction
from srtrkit.factorization import ThetaFactor, lcf_from_srtr
from helpers import csv_reference
from srtrkit.loop import assemble_closed_loop, rowwise_implementation, simulate


@pytest.fixture
def ring_files(tmp_path):
    base = tmp_path / "base.json"
    gain = tmp_path / "gain.json"
    pair = tmp_path / "pair.json"
    spec = tmp_path / "spec.json"
    plant = tmp_path / "plant.json"
    base.write_text(jsonio.dumps(jsonio.partitioned_to_dict(fixtures.ring6_controller_base())))
    gain.write_text(jsonio.dumps({"K": fixtures.ring6_gain().tolist()}))
    pair.write_text(jsonio.dumps(jsonio.pair_to_dict(fixtures.ring6_pair())))
    spec.write_text(jsonio.dumps(jsonio.spec_to_dict(fixtures.ring6_spec(orders=1))))
    plant.write_text(jsonio.dumps(jsonio.system_to_dict(fixtures.ring6_plant())))
    return {"base": str(base), "gain": str(gain), "pair": str(pair), "spec": str(spec),
            "plant": str(plant), "dir": tmp_path}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_srtr_build_and_check(ring_files, tmp_path):
    out = tmp_path / "built.json"
    rc = dispatch([
        "srtr", "build", "--base", ring_files["base"], "--gain", ring_files["gain"],
        "-o", str(out),
    ])
    assert rc == 0
    built = jsonio.pair_from_dict(read_json(out))
    assert np.allclose(built.K, fixtures.ring6_gain())
    chk = tmp_path / "check.json"
    rc = dispatch(["srtr", "check", "--in", str(out), "-o", str(chk)])
    assert rc == 0
    report = read_json(chk)
    assert report["stable"] is True
    assert report["flcf"]["coprime"] is True
    assert report["identityResidual"] < 1e-10


def test_srtr_check_fails_on_noncoprime(tmp_path):
    pair = fixtures.noncoprime_pair()
    f = tmp_path / "nc.json"
    f.write_text(jsonio.dumps(jsonio.pair_to_dict(pair)))
    rc = dispatch(["srtr", "check", "--in", str(f)])
    assert rc == 1


def test_srtr_nrf_and_pattern(ring_files, tmp_path):
    out = tmp_path / "nrf.json"
    assert dispatch(["srtr", "nrf", "--in", ring_files["pair"], "-o", str(out)]) == 0
    data = read_json(out)
    assert "Phi" in data and "Gamma" in data
    pat = tmp_path / "pat.json"
    assert dispatch(["srtr", "pattern", "--in", ring_files["pair"], "-o", str(pat)]) == 0
    masks = read_json(pat)
    assert len(masks["maskW"]) == 6


def test_sampling_flags_only_on_commands_that_read_them(ring_files, tmp_path):
    assert dispatch(["srtr", "nrf", "--in", ring_files["pair"], "--seed", "1"]) == 2
    # loop assemble --plant --pair is the one loop builder, and loop
    # stability reads only the loop it writes
    plant = ring_files["plant"]
    cl = tmp_path / "cl.json"
    assemble = ["loop", "assemble", "--plant", plant, "--pair", ring_files["pair"]]
    assert dispatch(assemble + ["-o", str(cl)]) == 0
    assert dispatch(assemble + ["--rows", str(cl)]) == 2
    for flags in (["--plant", plant], ["--pair", ring_files["pair"]],
                  ["--rows", str(cl)], ["--orders", "1"]):
        assert dispatch(["loop", "stability", "--cl", str(cl)] + flags) == 2
        assert dispatch(["loop", "stability"] + flags) == 2
    assert dispatch([
        "srtr", "check", "--in", ring_files["pair"],
        "--seed", "3", "--samples", "4", "--tol", "1e-6",
    ]) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
@pytest.mark.parametrize(
    "argv",
    [
        ["srtr", "check", "--in", "@pair"],
        ["srtr", "pattern", "--in", "@pair"],
        ["synth", "conditions", "--base", "@base", "--gain", "@gain", "--spec", "@spec"],
    ],
    ids=["srtr-check", "srtr-pattern", "synth-conditions"],
)
def test_tol_must_be_finite_and_at_least_0(argv, value, ring_files, capsys):
    argv = [ring_files[a[1:]] if a[0] == "@" else a for a in argv]
    assert dispatch(argv + [f"--tol={value}"]) == 2
    captured = capsys.readouterr()
    assert "argument --tol" in captured.err and captured.out == ""


def test_tol_may_be_0(ring_files):
    assert dispatch(["srtr", "pattern", "--in", ring_files["pair"], "--tol", "0"]) == 0


@pytest.mark.parametrize("command", ["srtr", "lcf"])
@pytest.mark.parametrize("flags", [["--samples", "0"], ["--samples", "-3"], ["--seed", "-1"]])
def test_sampled_checks_reject_empty_counts_and_negative_seeds(
    command, flags, ring_files, tmp_path, capsys
):
    if command == "srtr":
        argv = ["srtr", "check", "--in", ring_files["pair"]]
    else:
        lcf = tmp_path / "lcf.json"
        assert dispatch(["lcf", "from-srtr", "--in", ring_files["pair"], "-o", str(lcf)]) == 0
        argv = ["lcf", "check", "--in", str(lcf), "--source", ring_files["pair"]]
    capsys.readouterr()
    assert dispatch(argv + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ")


@pytest.mark.parametrize("orders", ["a", "1.5", "1,x", "true", "[1]"])
def test_loop_assemble_rejects_malformed_orders(orders, ring_files, capsys):
    argv = ["loop", "assemble", "--plant", ring_files["plant"], "--pair", ring_files["pair"]]
    assert dispatch(argv + ["--orders", orders]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ") and captured.out == ""


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [
        line.split("#", 1)[0].strip()
        for block in re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
        for line in block.splitlines()
    ]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("srtrkit ")]
    assert {argv[0] for argv in commands} == {
        "fixtures", "srtr", "lcf", "riccati", "synth", "loop", "reproduce",
    }
    for argv in commands:
        assert cli.build_parser().parse_args(argv).func.startswith("cmd_")


def test_lcf_pipeline(ring_files, tmp_path):
    lcf_path = tmp_path / "lcf.json"
    rc = dispatch(["lcf", "from-srtr", "--in", ring_files["pair"], "-o", str(lcf_path)])
    assert rc == 0
    rc = dispatch([
        "lcf", "check", "--in", str(lcf_path), "--source", ring_files["pair"],
    ])
    assert rc == 0
    ric = tmp_path / "ric.json"
    assert dispatch(["riccati", "solve", "--in", str(lcf_path), "-o", str(ric)]) == 0
    sol = read_json(ric)
    assert set(sol) >= {"K", "residualNorm", "closedSpectrum", "subspaceCond"}
    assert sol["residualNorm"] <= 1e-10
    back = tmp_path / "back.json"
    assert dispatch(["lcf", "to-srtr", "--in", str(lcf_path), "-o", str(back)]) == 0
    pair2 = jsonio.pair_from_dict(read_json(back))
    pair = fixtures.ring6_pair()
    lam = 0.9 + 0.7j
    assert np.allclose(pair2.response(lam), pair.response(lam), atol=1e-8)


def test_lcf_from_srtr_custom_theta(ring_files, tmp_path):
    theta = ThetaFactor(-2.0 * np.eye(6), np.eye(6), np.eye(6), "continuous")
    tf = tmp_path / "theta.json"
    tf.write_text(jsonio.dumps(jsonio.theta_to_dict(theta)))
    out = tmp_path / "lcf2.json"
    rc = dispatch([
        "lcf", "from-srtr", "--in", ring_files["pair"], "--theta", str(tf),
        "-o", str(out),
    ])
    assert rc == 0
    lcf = jsonio.lcf_from_dict(read_json(out))
    ref = lcf_from_srtr(fixtures.ring6_pair(), theta)
    lam = 1.2 + 0.1j
    assert np.allclose(
        np.hstack(lcf.eval_mn(lam)), np.hstack(ref.eval_mn(lam)), atol=1e-10
    )


def test_synth_commands(ring_files, tmp_path):
    rc = dispatch([
        "synth", "conditions", "--base", ring_files["base"], "--gain", ring_files["gain"],
        "--spec", ring_files["spec"], "--tol", "5e-3",
    ])
    assert rc == 0
    rc = dispatch([
        "synth", "conditions", "--base", ring_files["base"], "--gain", ring_files["gain"],
        "--spec", ring_files["spec"], "--tol", "1e-4",
    ])
    assert rc == 1
    out = tmp_path / "solved.json"
    rc = dispatch([
        "synth", "solve", "--base", ring_files["base"], "--spec", ring_files["spec"],
        "--tol", "5e-3", "-o", str(out),
    ])
    assert rc == 0
    solved = read_json(out)
    assert solved["report"]["passed"] is True
    rc = dispatch([
        "synth", "solve", "--base", ring_files["base"], "--spec", ring_files["spec"],
        "--tol", "1e-9",
    ])
    assert rc == 1
    red = tmp_path / "reduced.json"
    rc = dispatch([
        "synth", "reduce", "--base", ring_files["base"], "--gain", ring_files["gain"],
        "--spec", ring_files["spec"], "-o", str(red),
    ])
    assert rc == 0
    rows = read_json(red)
    assert rows["p"] == 6 and len(rows["rows"]) == 6


def test_loop_commands(ring_files, tmp_path):
    plant = ring_files["plant"]
    kd = tmp_path / "kd.json"
    rc = dispatch(["loop", "kd", "--pair", ring_files["pair"], "-o", str(kd)])
    assert rc == 0
    kd_data = read_json(kd)
    assert kd_data["unstablePoles"] == 6
    cl = tmp_path / "cl.json"
    rc = dispatch([
        "loop", "assemble", "--plant", plant, "--pair", ring_files["pair"],
        "--orders", "1", "-o", str(cl),
    ])
    assert rc == 0
    rc = dispatch(["loop", "stability", "--cl", str(cl)])
    assert rc == 0
    # without --orders every row is exact, and the full-order loop is stable too
    full_cl = tmp_path / "full_cl.json"
    rc = dispatch([
        "loop", "assemble", "--plant", plant, "--pair", ring_files["pair"],
        "-o", str(full_cl),
    ])
    assert rc == 0
    full = tmp_path / "full.json"
    rc = dispatch(["loop", "stability", "--cl", str(full_cl), "-o", str(full)])
    assert rc == 0
    assert read_json(full)["internallyStable"] is True
    csv_path = tmp_path / "traj.csv"
    rc = dispatch([
        "loop", "simulate", "--cl", str(cl), "--horizon", "0.01", "--dt", "0.001",
        "-o", str(csv_path),
    ])
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("t,x0,")
    assert len(lines) == 12  # header + 11 samples


def _ring_loop():
    rows = rowwise_implementation(fixtures.ring6_pair(), orders=[1] * 6)
    return assemble_closed_loop(fixtures.ring6_plant(), rows)


def _ring_loop_file(tmp_path):
    cl = tmp_path / "cl.json"
    cl.write_text(jsonio.dumps(jsonio.closed_loop_to_dict(_ring_loop())))
    return cl


@pytest.mark.parametrize(
    "flag,value",
    [("--dt", "0"), ("--dt", "nan"), ("--horizon", "-1"), ("--horizon", "nan"),
     ("--horizon", "inf"), ("--horizon", "1e300")],
)
def test_loop_simulate_rejects_bad_grid(flag, value, tmp_path, capsys):
    cl = _ring_loop_file(tmp_path)
    # the grid is rejected before any of it is allocated: loading the loop
    # takes a few kB, one second of the ring's trajectory takes 0.6 MB
    tracemalloc.start()
    try:
        rc = dispatch(["loop", "simulate", "--cl", str(cl), flag, value])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < 2**19
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ")
    assert captured.out == ""


@pytest.mark.parametrize("x0", ['{"x": 1}', "[[1, 2], [3]]", '["a"]', "[[1, 2]]", "[NaN]"])
def test_loop_simulate_rejects_malformed_x0(x0, tmp_path, capsys):
    cl = _ring_loop_file(tmp_path)
    x0_file = tmp_path / "x0.json"
    x0_file.write_text(x0)
    rc = dispatch(["loop", "simulate", "--cl", str(cl), "--x0", str(x0_file),
                   "--horizon", "0.01"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: x0 ")
    assert captured.out == ""


def test_loop_simulate_trace_equals_reference(tmp_path, capsys):
    cl = _ring_loop_file(tmp_path)
    x0 = np.random.default_rng(23).normal(size=24)
    x0_file = tmp_path / "x0.json"
    x0_file.write_text(json.dumps(x0.tolist()))
    out = tmp_path / "traj.csv"
    argv = ["loop", "simulate", "--cl", str(cl), "--x0", str(x0_file),
            "--horizon", "2", "--dt", "0.001"]
    assert dispatch(argv + ["-o", str(out)]) == 0
    traj = simulate(_ring_loop(), x0=x0, horizon=2.0, dt=0.001)
    # the trace is streamed in blocks of rows: this one takes five
    assert traj.t.size > 4 * (loop._CSV_BLOCK // 73)
    want = csv_reference(traj)
    assert out.read_bytes() == want.encode("ascii")
    capsys.readouterr()
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == want


def _fail_second_block(monkeypatch):
    """Make the CSV kernel raise on its second block; returns its calls."""
    calls = []
    format_g12 = loop._format_g12

    def failing(*args):
        calls.append(None)
        if len(calls) == 2:
            raise errors.NumericalFailureError("formatting failed")
        return format_g12(*args)

    monkeypatch.setattr(loop, "_format_g12", failing)
    return calls


def test_loop_simulate_removes_partial_trace_on_failure(tmp_path, monkeypatch, capsys):
    cl = _ring_loop_file(tmp_path)
    calls = _fail_second_block(monkeypatch)
    out = tmp_path / "traj.csv"
    rc = dispatch(["loop", "simulate", "--cl", str(cl), "--horizon", "2", "--dt", "0.001",
                   "-o", str(out)])
    assert rc == 3
    assert len(calls) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("numerical failure: formatting failed")


def test_loop_simulate_keeps_a_linked_output_on_failure(tmp_path, monkeypatch):
    # only a regular file is removed: -o /dev/null or a link stays in place
    cl = _ring_loop_file(tmp_path)
    _fail_second_block(monkeypatch)
    target, link = tmp_path / "traj.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    rc = dispatch(["loop", "simulate", "--cl", str(cl), "--horizon", "2", "--dt", "0.001",
                   "-o", str(link)])
    assert rc == 3
    assert link.is_symlink()


def test_reproduce_command(capsys):
    rc = dispatch(["reproduce", "paper-example"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    assert "W_local" in out


def test_reproduce_helper_deterministic():
    lines1, worst1 = run_ring_reproduction()
    lines2, worst2 = run_ring_reproduction()
    assert lines1 == lines2
    assert worst1 == worst2
    assert worst1 <= 0.01


def test_fixture_export_all_names(tmp_path):
    for name in fixtures.FIXTURES:
        out = tmp_path / f"{name}.json"
        assert dispatch(["fixtures", "export", name, "-o", str(out)]) == 0
        assert out.exists()
    assert dispatch(["fixtures", "export", "missing-name"]) == 2


BASE_FIELDS = ["domain", "p", "A11", "A12", "A21", "A22", "B1", "B2"]
SYSTEM_FIELDS = ["domain", "A", "B", "C", "D"]
# the fields of each ring input file, and the command that reads it ("{}"
# stands for the file, "@kind" for the valid ring file of that kind)
INPUT_FILES = {
    "base": (BASE_FIELDS, ["srtr", "build", "--base", "{}", "--gain", "@K"]),
    "K": (["K"], ["srtr", "build", "--base", "@base", "--gain", "{}"]),
    "pair": (BASE_FIELDS + ["K"], ["srtr", "check", "--in", "{}"]),
    "lcf": (BASE_FIELDS + ["F1", "F2", "U"], ["lcf", "check", "--in", "{}"]),
    "spec": (["maskW", "maskV", "orders", "extra"],
             ["synth", "conditions", "--base", "@base", "--gain", "@K", "--spec", "{}",
              "--tol", "5e-3"]),
    "plant": (SYSTEM_FIELDS, ["loop", "assemble", "--plant", "{}", "--pair", "@pair"]),
    "cl": (["domain", "Acl", "Br", "Bw", "Bzeta", "Bdu", "Cu", "Cy", "E", "F", "nPlant",
            "nCtrl"], ["loop", "stability", "--cl", "{}"]),
    "x0": ([None], ["loop", "simulate", "--cl", "@cl", "--x0", "{}", "--horizon", "0.01"]),
}
MALFORMED = {"string": "x", "ragged": [[1, 2], [3]], "scalar": 0.5, "empty": []}
# whole numbers that read as integers but do not fit the file
MISFIT = {("cl", "nPlant"): 999, ("cl", "nCtrl"): -5}


@pytest.fixture(scope="module")
def ring_inputs(tmp_path_factory):
    """Valid ring input files, one per kind of INPUT_FILES, by kind."""
    pair, plant = fixtures.ring6_pair(), fixtures.ring6_plant()
    cl = assemble_closed_loop(plant, rowwise_implementation(pair, orders=[1] * 6))
    contents = {
        "base": jsonio.partitioned_to_dict(pair.base),
        "K": {"K": pair.K.tolist()},
        "pair": jsonio.pair_to_dict(pair),
        "lcf": jsonio.lcf_to_dict(lcf_from_srtr(pair, cli._default_theta(6, pair.domain))),
        "spec": jsonio.spec_to_dict(fixtures.ring6_spec(orders=1)),
        "plant": jsonio.system_to_dict(plant),
        "cl": jsonio.closed_loop_to_dict(cl),
        "x0": np.zeros(cl.n).tolist(),
    }
    root = tmp_path_factory.mktemp("ring_inputs")
    paths = {}
    for kind, data in contents.items():
        paths[kind] = str(root / f"{kind}.json")
        Path(paths[kind]).write_text(json.dumps(data))
    return contents, paths


def _argv(kind, paths, path):
    return [path if a == "{}" else paths[a[1:]] if a[0] == "@" else a
            for a in INPUT_FILES[kind][1]]


@pytest.mark.parametrize("kind", INPUT_FILES)
def test_ring_inputs_are_read_and_cover_every_field(kind, ring_inputs, capsys):
    contents, paths = ring_inputs
    fields = INPUT_FILES[kind][0]
    if fields != [None]:
        assert sorted(contents[kind]) == sorted(fields)
    assert dispatch(_argv(kind, paths, paths[kind])) == 0
    assert "invalid input" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,field,bad",
    [(kind, f, bad) for bad in MALFORMED for kind, (fields, _) in INPUT_FILES.items()
     for f in fields] + [(kind, f, "misfit") for kind, f in MISFIT],
)
def test_malformed_input_field_exits_2(kind, field, bad, ring_inputs, tmp_path, capsys):
    contents, paths = ring_inputs
    value = MISFIT[kind, field] if bad == "misfit" else MALFORMED[bad]
    if field is None:
        data = value
    else:
        data = dict(contents[kind])
        data[field] = value
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    assert dispatch(_argv(kind, paths, str(path))) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid input: "), captured.err
    assert captured.out == ""


def test_exit_codes_for_bad_input(tmp_path):
    assert dispatch(["srtr", "check", "--in", str(tmp_path / "ghost.json")]) == 2
    junk = tmp_path / "junk.json"
    junk.write_text("[1, 2")
    assert dispatch(["srtr", "check", "--in", str(junk)]) == 2
    assert dispatch(["no-such-group"]) == 2
    assert dispatch([]) == 2


def test_numerical_failure_exit_code(tmp_path):
    # CTNARE with no stabilizing solution exits with the numerical code
    from srtrkit.factorization import LcfOverS
    from srtrkit.systems import PartitionedRealization

    blocks = PartitionedRealization(
        A11=np.array([[1.0]]),
        A12=np.array([[0.0]]),
        A21=np.array([[0.0]]),
        A22=np.array([[-1.0]]),
        B1=np.array([[1.0]]),
        B2=np.array([[0.0]]),
        domain="continuous",
    )
    lcf = LcfOverS(blocks, np.zeros((1, 1)), np.zeros((1, 1)), np.eye(1))
    f = tmp_path / "badlcf.json"
    f.write_text(jsonio.dumps(jsonio.lcf_to_dict(lcf)))
    assert dispatch(["riccati", "solve", "--in", str(f)]) == 3


# The documented exit code of every concrete error (README "Command line":
# 1 a check failed, 2 invalid input, 3 numerical failure) and the
# constructor arguments of those that take more than a message.
ERROR_EXIT_CODES = {
    "InvalidInputError": 2, "DimensionError": 2, "NonFiniteError": 2,
    "PreconditionError": 2, "AlgebraicLoopError": 2, "KontrollerFormError": 2,
    "InvalidThetaError": 2, "UnsupportedFeedthroughError": 2,
    "TrivialCaseError": 2, "RegularityViolationError": 2,
    "InfeasibleError": 1, "InexactTruncationError": 1,
    "NumericalFailureError": 3, "NoSolutionError": 3, "PoleEvaluationError": 3,
}
ERROR_ARGS = {
    "KontrollerFormError": ("b", "boom"),
    "InexactTruncationError": ("boom", 0.5),
}
PREFIXES = {1: "check failed: ", 2: "invalid input: ", 3: "numerical failure: "}


def concrete_errors(cls=errors.SrtrKitError):
    subs = cls.__subclasses__()
    return [c for sub in subs for c in concrete_errors(sub)] if subs else [cls]


@pytest.mark.parametrize("cls", concrete_errors(), ids=lambda c: c.__name__)
def test_error_class_exit_code(cls, monkeypatch, capsys):
    def failing(args):
        raise cls(*ERROR_ARGS.get(cls.__name__, ("boom",)))

    monkeypatch.setattr(cli, "cmd_fixtures_export", failing)
    code = ERROR_EXIT_CODES[cls.__name__]
    assert dispatch(["fixtures", "export", "ring6-K"]) == code
    assert capsys.readouterr().err.startswith(PREFIXES[code])


def test_help_exits_zero():
    assert dispatch(["--help"]) == 0
    assert dispatch(["srtr", "--help"]) == 0
