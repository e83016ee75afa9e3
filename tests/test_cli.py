"""Command-line driver: configs in, JSON/CSV envelopes out, exit codes."""

import copy
import csv
import functools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

import diraclab
from diraclab import __version__
from diraclab.cli import main

HARMONIC_SPECTRUM = {"entries": [[0.0, 1]], "symmetric": True}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def spectrum_config(tmp_path, **overrides):
    doc = {
        "profile": {"kind": "exponential", "m": 2, "domain_length": math.pi},
        "spectrum": HARMONIC_SPECTRUM,
        "count": 5,
        "mesh": 1024,
    }
    doc.update(overrides)
    return write_config(tmp_path, doc)


def read_json(out_dir, command):
    return json.loads((out_dir / f"{command}.json").read_text(encoding="utf-8"))


def run_fresh(tmp_path, command, cfg):
    """Run ``command`` in a fresh interpreter that prints every warning, and
    check that it printed no traceback and no numpy ``RuntimeWarning``."""
    src = Path(diraclab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS="default")
    run = subprocess.run([sys.executable, "-m", "diraclab.cli", command,
                          "--config", cfg, "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert "Traceback" not in run.stderr
    assert "RuntimeWarning" not in run.stderr
    return run


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_harmonic_cylinder(tmp_path):
    cfg = spectrum_config(tmp_path)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path, "spectrum")
    assert doc["command"] == "spectrum"
    assert doc["version"] == __version__
    assert doc["seed"] == 0
    assert doc["config"]["count"] == 5
    values = [r["value"] for r in doc["result"]["eigenvalues"]]
    expected = [(n + 1) ** 2 for n in range(5)]
    assert values == pytest.approx(expected, rel=1e-5)
    assert doc["result"]["truncation_safe"] is True


def test_spectrum_csv_output(tmp_path):
    cfg = spectrum_config(tmp_path)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path),
                 "--format", "csv"]) == 0
    with open(tmp_path / "spectrum.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["index", "value"]
    assert float(rows[1][1]) == pytest.approx(1.0, rel=1e-5)
    assert len(rows) == 1 + 5


def test_spectrum_circle_source_and_mesh_override(tmp_path):
    cfg = spectrum_config(
        tmp_path,
        spectrum={"circle": {"length": 2 * math.pi, "delta": 0.0,
                             "truncation": 2}},
        count=3)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path),
                 "--mesh", "256"]) == 0
    doc = read_json(tmp_path, "spectrum")
    assert doc["result"]["mesh_size"] == 256


def test_spectrum_with_a_potential_beyond_float64_exits_two(tmp_path):
    # mu0^2 = 1e400 overflows float64 on both huge branches
    cfg = spectrum_config(tmp_path, spectrum={
        "entries": [[-1e200, 1], [0.0, 1], [1e200, 1]], "symmetric": False},
        count=2, mesh=256)
    run = run_fresh(tmp_path, "spectrum", cfg)
    assert run.returncode == 2
    assert "mu0 = -1e+200" in run.stderr
    assert not (tmp_path / "spectrum.json").exists()


# uneven knots: at order 2 V' jumps at them, and the second value's
# estimate, 7.0e-9, would miss its distance 4.3e-7 to a shooting oracle
ROUGH_PROFILE = {"kind": "sampled", "domain_length": 3.0,
                 "knots": [0.0, 0.4, 0.7, 1.2, 1.9, 2.4, 3.0],
                 "values": [1.0, 1.2, 1.3, 1.0, 0.8, 0.95, 1.1]}


@pytest.mark.parametrize("changes,named", [
    ({"order": 0}, "profile/order: 0 is less than the minimum of 3"),
    ({"order": 1}, "profile/order: 1 is less than the minimum of 3"),
    ({"order": 2}, "profile/order: 2 is less than the minimum of 3"),
    ({"order": 3}, None),
    # an order-3 spline needs four knots
    ({"order": 3, "knots": [0.0, 1.5, 3.0], "values": [1.0, 1.2, 1.1]},
     "profile/knots: [0.0, 1.5, 3.0] is too short")],
    ids=["order-0", "order-1", "order-2", "order-3", "order-3-three-knots"])
def test_spectrum_needs_a_spline_of_order_three(tmp_path, changes, named):
    cfg = write_config(tmp_path, {
        "profile": {**ROUGH_PROFILE, **changes}, "m": 2, "count": 3,
        "spectrum": {"entries": [[-1.0, 1], [0.0, 1], [1.0, 1]],
                     "symmetric": True}})
    run = run_fresh(tmp_path, "spectrum", cfg)
    if named is None:
        assert run.returncode == 0
        assert (tmp_path / "spectrum.json").exists()
    else:
        assert run.returncode == 2
        assert run.stderr.startswith("error: ") and named in run.stderr
        assert run.stderr.count("\n") == 1
        assert not (tmp_path / "spectrum.json").exists()


def test_spectrum_on_a_profile_that_dips_below_zero_exits_two(tmp_path):
    # positive at every knot, the cubic reaches -1.6 at u = 0.56, where the
    # branches came out with negative eigenvalues of D^2 (-12145.7 and
    # -2148.9) and exit 0
    cfg = write_config(tmp_path, {
        "profile": {"kind": "sampled", "domain_length": 3.0, "order": 3,
                    "knots": [0.0, 0.3, 0.35, 1.0, 1.5, 2.0, 3.0],
                    "values": [1.0, 1.0, 0.05, 1.0, 1.0, 1.0, 1.0]},
        "m": 2, "count": 3, "mesh": 256,
        "spectrum": {"entries": [[-1.0, 1], [0.0, 1], [1.0, 1]],
                     "symmetric": True}})
    run = run_fresh(tmp_path, "spectrum", cfg)
    assert run.returncode == 2
    assert run.stderr == ("error: a sampled profile must be positive on "
                          "[0, domain_length], but rho reaches -1.6 at "
                          "u = 0.562345\n")
    assert not (tmp_path / "spectrum.json").exists()


def test_spectrum_on_a_constant_profile_with_a_huge_c_exits_zero(tmp_path):
    # c cancels from the branch solve (it reads rho(0)/rho and H), so a c
    # whose square float64 cannot hold still gives the flat cylinder's values
    results = []
    for c in (1e200, 1.0):
        out = tmp_path / str(c)
        cfg = spectrum_config(tmp_path, profile={
            "kind": "constant", "c": c, "domain_length": math.pi}, m=2,
            count=2, mesh=256)
        assert run_fresh(out, "spectrum", cfg).returncode == 0
        results.append(read_json(out, "spectrum")["result"])
    assert results[0]["eigenvalues"] == results[1]["eigenvalues"]


def test_spectrum_with_a_huge_truncation_gap_is_safe(tmp_path):
    # a gap beyond the finite cap of the tail floor is evaluated at the cap,
    # so a gap of 1e200 gives the verdict and the records of a gap of 1e100
    results = []
    for gap in (1e200, 1e100):
        out = tmp_path / str(gap)
        cfg = spectrum_config(tmp_path, spectrum={
            **HARMONIC_SPECTRUM, "omitted_abs_min": gap}, count=2, mesh=256)
        assert run_fresh(out, "spectrum", cfg).returncode == 0
        results.append(read_json(out, "spectrum")["result"])
    assert results[0]["truncation_safe"] is True
    assert results[0]["eigenvalues"] == results[1]["eigenvalues"]


def test_spectrum_truncation_risk_fails_closed(tmp_path):
    cfg = spectrum_config(
        tmp_path,
        spectrum={"circle": {"length": 40.0, "delta": 0.5, "truncation": 0}},
        count=8)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "spectrum.json").exists()


@pytest.mark.parametrize("config", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_reruns_are_byte_identical(tmp_path, config):
    command = config.split("_")[0]
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main([command, "--config", str(CONFIGS / f"{config}.json"),
                     "--out", str(out), "--seed", "7"]) == 0
        outputs.append((out / f"{command}.json").read_bytes())
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# integers: an integral float such as 1024.0 is the integer 1024
# ---------------------------------------------------------------------------

def _integer_fields(doc, path=()):
    """Paths of the integer fields of a config: an int or a list of ints."""
    if type(doc) is int or (isinstance(doc, list) and doc
                            and all(type(x) is int for x in doc)):
        return [path]
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    return [p for key, value in items for p in _integer_fields(value, path + (key,))]


def _sample_config(config):
    return json.loads((CONFIGS / f"{config}.json").read_text(encoding="utf-8"))


def _with_floats(doc, path):
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = functools.reduce(lambda node, key: node[key], head, doc)
    value = parent[last]
    parent[last] = ([float(x) for x in value] if isinstance(value, list)
                    else float(value))
    return doc


def _sample_result(config, doc):
    """The sample run's result document, as sorted JSON text."""
    command = config.split("_")[0]
    with tempfile.TemporaryDirectory() as out:
        cfg = write_config(Path(out), doc)
        assert main([command, "--config", cfg, "--out", out, "--seed", "7"]) == 0
        return json.dumps(read_json(Path(out), command)["result"], sort_keys=True)


@functools.lru_cache(maxsize=None)
def _integer_sample_result(config):
    return _sample_result(config, _sample_config(config))


SAMPLE_INTEGER_FIELDS = [
    pytest.param(config, path, id=f"{config}-{'/'.join(map(str, path))}")
    for config in sorted(p.stem for p in CONFIGS.glob("*.json"))
    for path in _integer_fields(_sample_config(config))]


@pytest.mark.parametrize("config,path", SAMPLE_INTEGER_FIELDS)
def test_sample_integer_field_reads_an_integral_float(config, path):
    doc = _with_floats(_sample_config(config), path)
    assert _sample_result(config, doc) == _integer_sample_result(config)


@pytest.mark.parametrize("command,config", [
    ("spectrum", "spectrum_harmonic"), ("bracket", "bracket"),
    ("stretch", "stretch")])
def test_mesh_option_zero_exits_two(tmp_path, capsys, command, config):
    assert main([command, "--config", str(CONFIGS / f"{config}.json"),
                 "--out", str(tmp_path), "--mesh", "0"]) == 2
    assert "mesh (interior points) must be an integer >= 64, not 0" in \
        capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


def _circle(truncation):
    return {"circle": {"length": 6.0, "delta": 0.5, "truncation": truncation}}


def _above_terms(path, value):
    return f"at {path}: {value!r} is greater than the maximum of 10000"


@pytest.mark.parametrize("command,config,overrides,argv,message", [
    ("spectrum", "spectrum_harmonic", {"mesh": 1e300}, [],
     "mesh (interior points) must be at most 16777216"),
    ("bracket", "bracket", {"mesh": 1e300}, [],
     "mesh (interior points) must be at most 16777216"),
    ("spectrum", "spectrum_harmonic", {}, ["--mesh", "100000000000000000000"],
     "mesh (interior points) must be at most 16777216"),
    ("flow", "flow", {"n_grid": 1e300}, [],
     "grid size must be at most 16777216"),
    ("vary", "vary", {"n_grid": 1e300}, [],
     "grid size must be at most 16777216"),
    ("spectrum", "spectrum_circle", {"spectrum": _circle(1e9)}, [],
     _above_terms("spectrum/circle/truncation", 1e9)),
    ("stretch", "stretch", {"spectrum": _circle(10001)}, [],
     _above_terms("spectrum/circle/truncation", 10001)),
    ("vary", "vary", {"kappa_degree": 1e300}, [],
     _above_terms("kappa_degree", 1e300)),
    ("vary", "vary", {"kappa_degree": 10001}, [],
     _above_terms("kappa_degree", 10001)),
    ("vary", "vary", {"modes": 1e300}, [], _above_terms("modes", 1e300)),
    ("vary", "vary", {"perturbations": 1e300}, [],
     _above_terms("perturbations", 1e300)),
    ("vary", "vary", {"modes": 101, "perturbations": 100}, [],
     "modes x perturbations must be at most 10000, not 101 x 100"),
    ("bracket", "bracket", {"cases": 1e300}, [], _above_terms("cases", 1e300)),
    ("stretch", "stretch", {"norm_ks": [0, 64]}, [],
     "at norm_ks/1: 64 is greater than the maximum of 32"),
    ("stretch", "stretch", {"growth": {"k_values": [5000],
                                       "t_values": [2.0, 4.0, 8.0, 16.0]}},
     [], "at growth/k_values/0: 5000 is greater than the maximum of 32"),
    ("stretch", "stretch", {"growth": {"k_values": [4],
                                       "t_values": [1e100, 2e100, 4e100,
                                                    1e101]}},
     [], "H^0..H^4 norms at t = 1e+100 are not all finite in float64"),
], ids=["spectrum-mesh", "bracket-mesh", "mesh-option", "flow-n-grid",
        "vary-n-grid", "spectrum-truncation", "stretch-truncation",
        "vary-kappa-degree", "vary-kappa-degree-just-above", "vary-modes",
        "vary-perturbations", "vary-modes-times-perturbations",
        "bracket-cases", "stretch-norm-k", "stretch-growth-k",
        "stretch-growth-overflow"])
def test_size_above_the_bound_exits_two(tmp_path, capsys, command, config,
                                        overrides, argv, message):
    cfg = write_config(tmp_path, {**_sample_config(config), **overrides})
    assert main([command, "--config", cfg, "--out", str(tmp_path), *argv]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize("command", ["vary", "flow", "certify"])
def test_mesh_option_is_refused_where_no_mesh_is_read(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(CONFIGS / f"{command}.json"),
              "--out", str(tmp_path), "--mesh", "256"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# config error paths
# ---------------------------------------------------------------------------

NAN = float("nan")
SAMPLED = {"kind": "sampled", "domain_length": 2.0,
           "knots": [0.0, 0.5, 1.0, 2.0], "values": [1.0, 0.9, 0.8, 0.7],
           "order": 3}
EXPONENTIAL = {"kind": "exponential", "m": 2, "domain_length": 2.0}
INFINITE_LENGTH = json.dumps({
    "profile": {**EXPONENTIAL, "domain_length": math.inf},
    "spectrum": HARMONIC_SPECTRUM, "count": 1})


@pytest.mark.parametrize("command,text", [
    ("spectrum", json.dumps({"profile": {**SAMPLED,
                                         "knots": [0.0, NAN, 1.0, 2.0]},
                             "m": 2, "spectrum": HARMONIC_SPECTRUM, "count": 1})),
    ("spectrum", json.dumps({"profile": {**SAMPLED,
                                         "values": [1.0, NAN, 0.8, 0.7]},
                             "m": 2, "spectrum": HARMONIC_SPECTRUM, "count": 1})),
    ("spectrum", json.dumps({"profile": EXPONENTIAL, "count": 1,
                             "spectrum": {"entries": [[NAN, 1]],
                                          "symmetric": False}})),
    ("spectrum", INFINITE_LENGTH),
    ("spectrum", INFINITE_LENGTH.replace("Infinity", "1e999")),
    ("flow", json.dumps({"delta": 0.5, "n_grid": 256, "steps": 1,
                         "epsilon": NAN})),
], ids=["nan-knot", "nan-value", "nan-mu", "infinite-length",
        "overflowing-length", "nan-epsilon"])
def test_non_finite_numbers_exit_two(tmp_path, capsys, command, text):
    cfg = tmp_path / "config.json"
    cfg.write_text(text, encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "not a finite number" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


HUGE = "1" + "0" * 400      # an integer literal beyond float64
SHOWN = "1000000000000000... (401 characters)"    # the prefix echoed


def _huge(doc, digits=HUGE):
    """``doc`` as JSON text, with the integer literal ``digits`` in place of
    the string "HUGE"."""
    return json.dumps(doc).replace('"HUGE"', digits)


@pytest.mark.parametrize("command,text,shown", [
    ("spectrum", _huge({"profile": EXPONENTIAL, "count": 1, "spectrum": {
        "entries": [[0.0, 1], ["HUGE", 1]], "symmetric": False}}),
     SHOWN),
    ("spectrum", _huge({"profile": EXPONENTIAL, "count": 1, "spectrum": {
        **HARMONIC_SPECTRUM, "omitted_abs_min": "HUGE"}}),
     SHOWN),
    ("spectrum", _huge({"profile": {**SAMPLED, "knots": [0.0, 0.5, 1.0,
                                                         "HUGE"]},
                        "m": 2, "count": 1, "spectrum": HARMONIC_SPECTRUM}),
     SHOWN),
    ("vary", _huge({"f_scale": 0.3, "f_offset": "HUGE"}),
     SHOWN),
    # json.loads itself refuses an integer of more than 4300 digits
    ("certify", _huge({"m": "HUGE"}, "1" + "0" * 4999),
     "1000000000000000... (5000 characters)"),
], ids=["entry", "omitted-abs-min", "knot", "vary-offset", "certify-m"])
def test_integers_beyond_the_float_range_exit_two(tmp_path, command, text,
                                                  shown):
    cfg = tmp_path / "config.json"
    cfg.write_text(text, encoding="utf-8")
    run = run_fresh(tmp_path, command, str(cfg))
    assert run.returncode == 2
    assert run.stderr == (f"error: config {cfg} holds {shown}, which is not "
                          "a finite number\n")
    assert not (tmp_path / f"{command}.json").exists()


def test_the_largest_integer_literals_float64_holds_are_read(tmp_path):
    # the float maximum, 309 digits, is read as the integer it is; one more
    # is refused, compared exactly
    from diraclab.cli import _read_json
    from diraclab.errors import UsageError
    top = int(sys.float_info.max)
    path = tmp_path / "doc.json"
    path.write_text(f"[{top}, {-top}, 12, -0]", encoding="utf-8")
    assert _read_json(path, "doc") == [top, -top, 12, 0]
    path.write_text(f"[{top + 1}]", encoding="utf-8")
    with pytest.raises(UsageError, match="which is not a finite number"):
        _read_json(path, "doc")


def test_json_writer_refuses_a_non_finite_number(tmp_path):
    # NaN and Infinity are not JSON: the writer raises before the file exists
    from diraclab.cli import _write_json
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_json(tmp_path / "out.json", {"ratio": value})
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("profile,fields", [
    ({**EXPONENTIAL, "c": 0.5, "order": 3, "knots": SAMPLED["knots"],
      "values": SAMPLED["values"]}, "c, knots, values, order"),
    ({"kind": "constant", "domain_length": 2.0, "c": 0.7, "m": 3}, "m"),
], ids=["exponential-with-sampled-fields", "constant-with-m"])
def test_profile_fields_foreign_to_the_kind_exit_two(tmp_path, capsys,
                                                      profile, fields):
    cfg = spectrum_config(tmp_path, profile=profile, m=2, count=1)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"profile does not use {fields}" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.json").exists()


def test_spectrum_file_matches_the_inline_listing(tmp_path):
    (tmp_path / "listing.json").write_text(json.dumps(HARMONIC_SPECTRUM))
    cfg = spectrum_config(tmp_path, spectrum={"file": "listing.json"})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    cfg = spectrum_config(tmp_path)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert (read_json(tmp_path / "a", "spectrum")["result"]
            == read_json(tmp_path / "b", "spectrum")["result"])


@pytest.mark.parametrize("listing", [
    {"entries": [["a", 1]], "symmetric": True},
    {"entries": [[0.0, 1]], "symmetric": True, "omitted_abs_min": 0.0},
    {"entries": [[0.0, 1.5]], "symmetric": True},
    {"entries": [[0.0, 1]]},
], ids=["text-mu", "zero-gap", "fractional-multiplicity", "no-symmetric"])
def test_spectrum_file_is_validated_against_the_schema(tmp_path, capsys, listing):
    (tmp_path / "listing.json").write_text(json.dumps(listing))
    cfg = spectrum_config(tmp_path, spectrum={"file": "listing.json"})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "invalid spectrum file" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.json").exists()


def test_malformed_json_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["spectrum", "--config", str(path),
                 "--out", str(tmp_path)]) == 2


def test_missing_config_file(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_schema_rejects_incomplete_config(tmp_path):
    cfg = write_config(tmp_path, {"profile": {"kind": "exponential", "m": 2,
                                              "domain_length": 1.0}})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_non_object_config(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert main(["spectrum", "--config", str(path),
                 "--out", str(tmp_path)]) == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify", "--config", "x.json"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------

def test_bracket_seeded_and_deterministic(tmp_path):
    cfg = write_config(tmp_path, {"cases": 3, "j_count": 3, "mesh": 256})
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["bracket", "--config", cfg, "--out", str(a),
                 "--seed", "11"]) == 0
    assert main(["bracket", "--config", cfg, "--out", str(b),
                 "--seed", "11"]) == 0
    assert main(["bracket", "--config", cfg, "--out", str(c),
                 "--seed", "12"]) == 0
    assert (a / "bracket.json").read_bytes() == (b / "bracket.json").read_bytes()
    assert (a / "bracket.json").read_bytes() != (c / "bracket.json").read_bytes()
    doc = read_json(a, "bracket")
    assert doc["seed"] == 11
    assert doc["result"]["all_passed"] is True
    assert doc["result"]["cases"] == 3


def test_bracket_with_a_piece_mesh_below_j_count_exits_two(tmp_path, capsys):
    # the full mesh of 768 supports 40 values, but a piece of at least
    # 0.08 t may get only the floor of 64 points, which support 30
    cfg = write_config(tmp_path, {"cases": 3, "j_count": 40, "mesh": 768})
    assert main(["bracket", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert re.fullmatch(
        r"error: j_count=40 exceeds what piece \d+ on \[[\d.]+, [\d.]+\] "
        r"supports: its mesh of \d+ interior points gives at most \d+ values\n",
        capsys.readouterr().err)
    assert not (tmp_path / "bracket.json").exists()


# ---------------------------------------------------------------------------
# stretch
# ---------------------------------------------------------------------------

def test_stretch_sweep_with_growth(tmp_path):
    cfg = write_config(tmp_path, {
        "m": 2,
        "t_values": [2.0, 4.0],
        "spectrum": HARMONIC_SPECTRUM,
        "mesh": 256,
        "norm_ks": [0, 1],
        "growth": {"k_values": [0], "t_values": [2.0, 4.0, 8.0, 16.0]},
    })
    assert main(["stretch", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path, "stretch")
    assert doc["result"]["sweep"]["passed"] is True
    assert doc["result"]["growth"][0]["within_limit"] is True


def test_stretch_without_a_doubling_pair_checks_no_quarters(tmp_path):
    # t = 2, 3 double nowhere: the quarter check is null, not true
    doc = json.loads((CONFIGS / "stretch.json").read_text(encoding="utf-8"))
    del doc["growth"]
    cfg = write_config(tmp_path, {**doc, "t_values": [2.0, 3.0]})
    assert main(["stretch", "--config", cfg, "--out", str(tmp_path)]) == 0
    sweep = read_json(tmp_path, "stretch")["result"]["sweep"]
    assert sweep["bounds_quarter_on_doubling"] is None
    assert sweep["passed"] is True


@pytest.mark.parametrize("m", [2, 3])
def test_stretch_cylinder_volume_keeps_falling_at_large_t(tmp_path, m):
    # the rescaled cylinder's scale is e^{-t} itself, not 1 - (1 - e^{-t}),
    # which is 0 in float64 from t = 37.4 on; its volume
    # e^{-tm/2} 2 (1 - e^{-t/2}) keeps falling up to t = 80
    doc = json.loads((CONFIGS / "stretch.json").read_text(encoding="utf-8"))
    cfg = write_config(tmp_path, {**doc, "m": m, "t_values": [20.0, 40.0, 80.0]})
    assert main(["stretch", "--config", cfg, "--out", str(tmp_path)]) == 0
    sweep = read_json(tmp_path, "stretch")["result"]["sweep"]
    assert sweep["cylinder_volume_decreasing"] is True


@pytest.mark.parametrize("overrides,named", [
    ({"t_values": [1e6, 1e7]}, "t = 1000000.0"),     # rho underflows to 0
    ({"t_values": [100.0, 1000.0]}, "t = 1000.0"),   # s^2 = (rho(0)/rho)^2 overflows
    ({"m": 3, "t_values": [400.0, 800.0]}, "t = 800.0"),     # e^{-t} underflows
    # e^{-t} > 0, but the cylinder volume e^{-3t/2} 2 (1 - e^{-t/2}) is 0
    ({"m": 3, "t_values": [600.0, 700.0]}, "cylinder volume at t = 600.0"),
], ids=["underflow", "overflow", "damping-underflow", "volume-underflow"])
def test_stretch_beyond_float64_exits_two(tmp_path, overrides, named):
    doc = json.loads((CONFIGS / "stretch.json").read_text(encoding="utf-8"))
    cfg = write_config(tmp_path, {**doc, **overrides})
    run = run_fresh(tmp_path, "stretch", cfg)
    assert run.returncode == 2
    assert named in run.stderr
    assert not (tmp_path / "stretch.json").exists()


@pytest.mark.parametrize("command,overrides,named", [
    ("spectrum", {"domain_length": 1e-80}, "t = 1e-80 is too short for a mesh of 128"),
    ("spectrum", {"domain_length": 1e-76}, "t = 1e-76 is too short for a mesh of 128"),
    ("spectrum", {"domain_length": 1e-160}, "t = 1e-160 is too short for a mesh of 128"),
    ("stretch", {"t_values": [1e-300, 1e-299]},
     "t = 1e-300 is too short for a mesh of 1024"),
    ("stretch", {"t_values": [1e-80, 2e-80]},
     "t = 1e-80 is too short for a mesh of 1024"),
    ("stretch", {"growth": {"k_values": [0, 1],
                            "t_values": [1e-300, 2e-300, 4e-300, 8e-300]}},
     "cylinder volume at t = 1e-300 underflows to 0.0 in float64; raise t"),
], ids=["spectrum-1e-80", "spectrum-1e-76", "spectrum-1e-160",
        "stretch-1e-300", "stretch-1e-80", "growth-1e-300"])
def test_a_tiny_t_exits_two(tmp_path, command, overrides, named):
    # these crashed in LAPACK dstebz, in pi^2/t^2 or with a growth fit
    # advising a lower t
    if command == "spectrum":
        cfg = spectrum_config(tmp_path, count=6, mesh=128, profile={
            "kind": "exponential", "m": 2, **overrides})
    else:
        doc = json.loads((CONFIGS / "stretch.json").read_text(encoding="utf-8"))
        cfg = write_config(tmp_path, {**doc, **overrides})
    run = run_fresh(tmp_path, command, cfg)
    assert run.returncode == 2
    assert named in run.stderr
    assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize("knots,named", [
    ([0.0, 1.0, 2.0, 3.0, 1e300],
     "the order-3 spline through 5 knots has a singular collocation matrix"),
    ([0.0, 5e-324, 1.0, 2.0, 3.0],
     "the order-3 spline through 5 knots has coefficients that are not "
     "finite in float64"),
], ids=["singular", "not-finite"])
def test_a_spline_the_knots_cannot_carry_exits_two(tmp_path, knots, named):
    # these crashed in the banded solve, or built a NaN spline that was
    # refused only at its first samples
    cfg = write_config(tmp_path, {
        "profile": {"kind": "sampled", "domain_length": 3.0, "order": 3,
                    "knots": knots, "values": [1.0, 0.9, 0.8, 0.7, 0.6]},
        "m": 2, "spectrum": HARMONIC_SPECTRUM, "count": 1})
    run = run_fresh(tmp_path, "spectrum", cfg)
    assert run.returncode == 2
    assert run.stderr == f"error: {named}\n"
    assert not (tmp_path / "spectrum.json").exists()


def test_a_short_t_the_mesh_resolves_exits_zero(tmp_path):
    cfg = spectrum_config(tmp_path, count=6, mesh=128, profile={
        "kind": "exponential", "m": 2, "domain_length": 1e-70})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0


# ---------------------------------------------------------------------------
# vary
# ---------------------------------------------------------------------------

def test_vary_formula_against_fd(tmp_path):
    cfg = write_config(tmp_path, {"n_grid": 1024, "delta": 0.5,
                                  "modes": 2, "perturbations": 2})
    assert main(["vary", "--config", cfg, "--out", str(tmp_path),
                 "--seed", "3"]) == 0
    doc = read_json(tmp_path, "vary")
    assert doc["result"]["all_passed"] is True
    assert len(doc["result"]["records"]) == 4
    for rec in doc["result"]["records"]:
        assert rec["defect"] <= rec["tolerance"]


def test_vary_with_a_non_positive_drawn_density_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n_grid": 64, "modes": 1, "perturbations": 1,
                                  "f_scale": 5.0, "f_offset": 0.1})
    assert main(["vary", "--config", cfg, "--out", str(tmp_path),
                 "--seed", "7"]) == 2
    assert "lower f_scale or raise f_offset" in capsys.readouterr().err
    assert not (tmp_path / "vary.json").exists()


def test_vary_with_an_overflowing_metric_exits_two(tmp_path, capsys):
    # f ~ 1e308 is finite, but its length 2 pi f is not
    cfg = write_config(tmp_path, {"n_grid": 64, "modes": 1, "perturbations": 1,
                                  "f_scale": 1e-10, "f_offset": 1e308})
    assert main(["vary", "--config", cfg, "--out", str(tmp_path),
                 "--seed", "7"]) == 2
    assert "circle length inf is not finite" in capsys.readouterr().err
    assert not (tmp_path / "vary.json").exists()


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def test_flow_ratio_and_monotonicity(tmp_path):
    cfg = write_config(tmp_path, {"delta": 0.5, "n_grid": 256, "steps": 3})
    assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path, "flow")
    steps = doc["result"]["steps"]
    assert len(steps) == 3
    assert doc["result"]["monotone"] is True
    lams = [s["lambda0"] for s in steps] + [doc["result"]["final_lambda0"]]
    for a, b in zip(lams, lams[1:]):
        assert b / a == pytest.approx(1 / math.sqrt(3), abs=1e-9)


def test_flow_without_a_step_direction_exits_one(tmp_path, capsys):
    # lambda0 ~ 2e-81 at step 337, where ||W||^2 underflows to zero
    cfg = write_config(tmp_path, {"delta": 0.5, "n_grid": 64, "steps": 2000,
                                  "epsilon": 1e-300})
    assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invariant violation:")
    assert "step 337" in err and "lambda0 = 2.0085916654863817e-81" in err
    assert not (tmp_path / "flow.json").exists()


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_chain_json(tmp_path):
    cfg = write_config(tmp_path, {"m": 10})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path, "certify")
    assert doc["result"]["chain"] == [10, 9, 8]
    assert doc["result"]["base"]["sphere_dim"] == 7
    assert doc["result"]["base"]["T"] == 8


def test_certify_csv_rows(tmp_path):
    cfg = write_config(tmp_path, {"m": 10})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path),
                 "--format", "csv"]) == 0
    with open(tmp_path / "certify.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["position", "dimension", "note"]
    assert len(rows) == 1 + 3
    assert "Berger zero mode on S^7" in rows[-1][2]


def test_certify_low_dimension_not_applicable(tmp_path):
    cfg = write_config(tmp_path, {"m": 2})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path, "certify")
    assert doc["result"]["applicable"] is False
    assert doc["result"]["reason"]


# ---------------------------------------------------------------------------
# failing verdicts: exit 1, the report is still written
# ---------------------------------------------------------------------------

def _failing(monkeypatch, module, name, spoil):
    """Make ``module.name`` return its real result, spoiled by ``spoil``."""
    original = getattr(module, name)

    def spoiled(*args, **kwargs):
        result = original(*args, **kwargs)
        spoil(result)
        return result

    monkeypatch.setattr(module, name, spoiled)


def _failing_bracket(monkeypatch):
    # a margin floor of -1000 takes 1000 off every tolerance, more than any
    # margin mu_j - lambda_j of the case
    import diraclab.bracketing
    monkeypatch.setattr(diraclab.bracketing, "_MARGIN_FLOOR", -1e3)


def _failing_stretch(monkeypatch):
    # a negative volume tolerance fails normalization_ok on every row
    import diraclab.stretch
    monkeypatch.setattr(diraclab.stretch, "_VOLUME_TOL", -1.0)


def _failing_flow(monkeypatch):
    # the final lambda0 equal to the last step's: a fall of zero fails
    import diraclab.cli
    _failing(monkeypatch, diraclab.cli, "annihilation_flow",
             lambda trace: setattr(trace, "final_lambda0",
                                   trace.steps[-1].lambda0))


# message: a regular expression for the whole error line
@pytest.mark.parametrize("command,config,spoil,message", [
    ("vary", {"n_grid": 256, "delta": 0.5, "modes": 1, "perturbations": 1,
              "rel_tol": 1e-300}, None,
     r"variation formula and finite difference disagree: worst "
     r"defect/tolerance \d\.\d+e\+\d+ at mode 0, case 0"),
    ("bracket", {"cases": 1, "j_count": 2, "mesh": 128}, _failing_bracket,
     r"bracketing inequality violated: worst margin mu_j - lambda_j "
     r"\+ tolerance_j = -\d{3} at case 0, j = 0"),
    ("stretch", {"m": 2, "t_values": [2.0, 4.0], "mesh": 256,
                 "spectrum": HARMONIC_SPECTRUM}, _failing_stretch,
     r"stretch-sweep invariant failed: normalization_ok: worst margin "
     r"-1\.0 - \|vol_normalized - 1\| = -1 at t = 4\.0"),
    ("flow", {"delta": 0.5, "n_grid": 256, "steps": 1}, _failing_flow,
     r"flow failed to decrease the lowest eigenvalue monotonically: worst "
     r"margin lambda0\(step 0\) - lambda0\(step 1\) = 0"),
], ids=["vary", "bracket", "stretch", "flow"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_failed_verdict_exits_one_after_writing(tmp_path, capsys, monkeypatch,
                                                command, config, spoil,
                                                message, fmt):
    if spoil is not None:
        spoil(monkeypatch)
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--format", fmt]) == 1
    path = out / f"{command}.{fmt}"
    captured = capsys.readouterr()
    assert captured.out == f"wrote {path}\n"
    assert re.fullmatch(message + "\n", captured.err)
    assert path.exists()
    if fmt == "json":
        assert read_json(out, command)["command"] == command


def test_a_failed_growth_fit_is_named_with_its_margin(tmp_path, capsys,
                                                      monkeypatch):
    import diraclab.stretch
    real = diraclab.stretch.sobolev_growth_fits
    monkeypatch.setattr(diraclab.stretch, "sobolev_growth_fits",
                        lambda *args: [replace(f, limit=f.slope - 0.5)
                                       if f.k == 1 else f
                                       for f in real(*args)])
    cfg = write_config(tmp_path, {
        "m": 2, "t_values": [2.0, 4.0], "mesh": 256, "norm_ks": [0],
        "spectrum": HARMONIC_SPECTRUM,
        "growth": {"k_values": [0, 1], "t_values": [2.0, 4.0, 8.0, 16.0]}})
    assert main(["stretch", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == ("stretch-sweep invariant failed: growth "
                                       "fit k = 1: margin limit - slope = -0.5\n")


def test_a_failed_bracketing_case_names_its_worst_margin(tmp_path, capsys,
                                                        monkeypatch):
    _failing_bracket(monkeypatch)
    cfg = write_config(tmp_path, {"cases": 3, "j_count": 3, "mesh": 128})
    assert main(["bracket", "--config", cfg, "--out", str(tmp_path)]) == 1
    reports = read_json(tmp_path, "bracket")["result"]["reports"]
    margin, j, case = min((m + tol, j, r["case_index"]) for r in reports
                          for j, (m, tol) in enumerate(zip(r["margins"],
                                                           r["tolerances"])))
    assert margin < 0 and not any(r["passed"] for r in reports)
    assert capsys.readouterr().err == (
        "bracketing inequality violated: worst margin mu_j - lambda_j + "
        f"tolerance_j = {margin:.3g} at case {case}, j = {j}\n")


def test_a_non_monotone_flow_names_its_worst_fall(tmp_path, capsys,
                                                  monkeypatch):
    # the final lambda0 above the last step's: the flow rose on step 2 -> 3
    import diraclab.cli
    _failing(monkeypatch, diraclab.cli, "annihilation_flow",
             lambda trace: setattr(trace, "final_lambda0",
                                   2.0 * trace.steps[-1].lambda0))
    cfg = write_config(tmp_path, {"delta": 0.5, "n_grid": 256, "steps": 3})
    assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == 1
    result = read_json(tmp_path, "flow")["result"]
    assert result["monotone"] is False
    fall = result["steps"][-1]["lambda0"] - result["final_lambda0"]
    assert fall < 0
    assert capsys.readouterr().err == (
        "flow failed to decrease the lowest eigenvalue monotonically: worst "
        f"margin lambda0(step 2) - lambda0(step 3) = {fall:.3g}\n")


def test_a_truncation_risk_names_its_margin(tmp_path, capsys):
    # twelve values of the pi-long m = 2 neck need more than the two
    # branches +-1/2 of a circle truncated at 0; the next |mu| is 3/2
    cfg = spectrum_config(
        tmp_path, count=12, mesh=256,
        spectrum={"circle": {"length": 2 * math.pi, "delta": 0.5,
                             "truncation": 0}})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "spectrum.json").exists()
    assert capsys.readouterr().err == (
        "invariant violation: transverse truncation cannot guarantee the "
        "lowest K=12 eigenvalues: worst margin tail floor + pi^2/t^2 - sigma "
        "= -35.9 at the first omitted |mu| >= 1.5; supply more branches\n")


def test_a_failed_variation_names_its_worst_ratio(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n_grid": 256, "delta": 0.5, "modes": 3,
                                  "perturbations": 2, "rel_tol": 1e-6})
    assert main(["vary", "--config", cfg, "--out", str(tmp_path)]) == 1
    records = read_json(tmp_path, "vary")["result"]["records"]
    worst = max(records, key=lambda r: r["defect"] / r["tolerance"])
    assert worst["defect"] > worst["tolerance"]
    assert capsys.readouterr().err == (
        "variation formula and finite difference disagree: worst "
        f"defect/tolerance {worst['defect'] / worst['tolerance']:.3g} at mode "
        f"{worst['mode']}, case {worst['case']}\n")


# a tolerance of zero never reaches the ratio: JSON reads 1e-330 as 0.0, and
# the schema refuses both; the smallest positive rel_tol makes every ratio
# overflow to inf, and the first failed case is named
@pytest.mark.parametrize("rel_tol,code,message", [
    ("0", 2, "error: invalid vary config at rel_tol: 0 is less than or equal "
             "to the minimum of 0"),
    ("1e-330", 2, "error: invalid vary config at rel_tol: 0.0 is less than or "
                  "equal to the minimum of 0"),
    ("5e-324", 1, "variation formula and finite difference disagree: worst "
                  "defect/tolerance inf at mode 0, case 0"),
], ids=["zero", "underflow", "subnormal"])
def test_a_vanishing_tolerance_never_divides_by_zero(tmp_path, capsys, rel_tol,
                                                     code, message):
    path = tmp_path / "config.json"
    path.write_text('{"n_grid": 256, "delta": 0.5, "modes": 2, '
                    f'"perturbations": 2, "rel_tol": {rel_tol}}}',
                    encoding="utf-8")
    out = tmp_path / "out"
    assert main(["vary", "--config", str(path), "--out", str(out)]) == code
    assert capsys.readouterr().err == message + "\n"
    assert (out / "vary.json").exists() == (code == 1)


# an order-3 spline through 41 knots, with a mu0 != 0 entry so that the
# potential depends on rho
SPLINE_SPECTRUM = {
    "profile": {"kind": "sampled", "domain_length": 2.0, "order": 3,
                "knots": [i / 20 for i in range(41)],
                "values": [1.0 + 0.2 * math.sin(0.1 * i + 0.3) for i in range(41)]},
    "m": 3, "spectrum": {"entries": [[-1.5, 1], [0.0, 1], [1.5, 1]],
                            "symmetric": True},
    "count": 4, "mesh": 256}


def _run_written(command, doc):
    return (f"import json, os\npath = os.path.join(OUT, 'config.json')\n"
            f"with open(path, 'w') as f: f.write({json.dumps(doc)!r})\n"
            f"from diraclab.cli import main; assert main(['{command}', "
            "'--config', path, '--out', OUT]) == 0")


def _run_sample(command, config):
    return (f"from diraclab.cli import main; assert main(['{command}', "
            f"'--config', {str(CONFIGS / config)!r}, '--out', OUT, "
            "'--seed', '7']) == 0")


# each statement runs in a fresh interpreter; none of the listed modules may
# be loaded afterwards
@pytest.mark.parametrize("statement,unloaded", [
    ("import diraclab.cli", ["sympy", "jsonschema"]),
    ("import diraclab", ["numpy", "scipy", "jsonschema"]),
    (_run_sample("certify", "certify.json"), ["scipy", "jsonschema"]),
    (_run_sample("vary", "vary.json"), ["scipy", "jsonschema"]),
    (_run_sample("flow", "flow.json"), ["scipy", "jsonschema"]),
    (_run_sample("spectrum", "spectrum_harmonic.json"),
     ["scipy.linalg", "scipy.interpolate", "jsonschema"]),
    (_run_sample("spectrum", "spectrum_circle.json"),
     ["scipy.linalg", "scipy.interpolate", "jsonschema"]),
    (_run_written("spectrum", SPLINE_SPECTRUM),
     ["scipy.linalg", "scipy.interpolate", "jsonschema"]),
    (_run_sample("bracket", "bracket.json"),
     ["scipy.linalg", "scipy.interpolate", "jsonschema"]),
    (_run_sample("stretch", "stretch.json"),
     ["scipy.linalg", "scipy.interpolate", "jsonschema"]),
    ("from diraclab import discrete_circle_oracle\n"
     "assert discrete_circle_oracle(6.0, 0.5, 64).size == 64",
     ["scipy.linalg"]),
], ids=["cli-import-sympy", "package-import", "certify", "vary", "flow",
        "spectrum-harmonic", "spectrum-circle", "spectrum-spline", "bracket",
        "stretch",
        "circle-oracle"])
def test_fresh_interpreter_leaves_modules_unloaded(tmp_path, statement, unloaded):
    src = Path(diraclab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (f"import sys\nOUT = {str(tmp_path)!r}\n{statement}\n"
            f"print([m for m in {unloaded!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"
