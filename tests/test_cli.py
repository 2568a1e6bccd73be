import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainlearn
from chainlearn import cli
from chainlearn.cli import main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {
    "kind": "contraction",
    "pair_count": 30,
    "decay_n_max": 3,
    "decay_grid": 128,
    "master_seed": 2,
}


def test_cli_audit_contraction(tmp_path, capsys):
    config = write_config(tmp_path, "c.json", BASE)
    out = tmp_path / "audit.csv"
    assert main(["audit-contraction", "--config", config, "--out", str(out)]) == 0
    text = out.read_text()
    assert "row_kind" in text and "decay" in text


def test_cli_stdout_when_no_out(tmp_path, capsys):
    config = write_config(tmp_path, "c.json", {"kind": "lemma", "lemma_probes": 4})
    assert main(["lemma-check", "--config", config]) == 0
    captured = capsys.readouterr()
    assert "passed=true" in captured.out


def test_cli_determinism_byte_identical(tmp_path):
    config = write_config(
        tmp_path,
        "c.json",
        {"kind": "asem", "n": 400, "replications": 5, "net_radius": 0.25, "pi_grid": 256},
    )
    out1, out2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    assert main(["asem", "--config", config, "--out", str(out1)]) == 0
    assert main(["asem", "--config", config, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_seed_override_changes_output(tmp_path):
    config = write_config(
        tmp_path,
        "c.json",
        {"kind": "asem", "n": 400, "replications": 5, "net_radius": 0.25, "pi_grid": 256},
    )
    out1, out2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    assert main(["asem", "--config", config, "--seed", "5", "--out", str(out1)]) == 0
    assert main(["asem", "--config", config, "--seed", "6", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


SEED_RANGE = "config error: master_seed must lie in 0..18446744073709551615\n"
SMALL_ASEM = {"kind": "asem", "n": 50, "replications": 2, "net_radius": 0.25, "pi_grid": 64}


# the streams mask a seed to 64 bits, so 2**64 would replay seed 0 and -1
# seed 2**64 - 1 under another name
@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_cli_rejects_seeds_outside_64_bits_from_config_and_flag(tmp_path, capsys, seed):
    config = write_config(tmp_path, "c.json", {**SMALL_ASEM, "master_seed": seed})
    assert main(["asem", "--config", config]) == 1
    assert capsys.readouterr().err == SEED_RANGE
    config = write_config(tmp_path, "ok.json", SMALL_ASEM)
    assert main(["asem", "--config", config, "--seed", str(seed)]) == 1
    assert capsys.readouterr().err == SEED_RANGE


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_cli_accepts_the_ends_of_the_seed_range(tmp_path, capsys, seed):
    config = write_config(tmp_path, "c.json", {**SMALL_ASEM, "master_seed": seed})
    out1, out2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    assert main(["asem", "--config", config, "--out", str(out1)]) == 0
    config = write_config(tmp_path, "ok.json", SMALL_ASEM)
    assert main(["asem", "--config", config, "--seed", str(seed), "--out", str(out2)]) == 0
    assert capsys.readouterr().err == ""
    assert f"# seed={seed}\n" in out1.read_text()
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_config_error_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, "c.json", {"kind": "asem", "bogus_key": 1})
    assert main(["asem", "--config", config]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_malformed_json_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["asem", "--config", str(path)]) == 1


def test_cli_non_utf8_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"kind": 1}')
    assert main(["concentration", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1
    assert "codec can't decode" in err


def test_cli_missing_config_exit_code(tmp_path):
    assert main(["asem", "--config", str(tmp_path / "absent.json")]) == 1


def test_cli_lemma_violation_exit_code(tmp_path):
    config = write_config(
        tmp_path, "c.json", {"kind": "lemma", "target_name": "tent", "lemma_probes": 6}
    )
    out = tmp_path / "lemma.csv"
    assert main(["lemma-check", "--config", config, "--out", str(out)]) == 2
    assert out.exists()  # report written despite the violation


def test_cli_io_error_exit_code(tmp_path):
    config = write_config(tmp_path, "c.json", {"kind": "lemma", "lemma_probes": 4})
    missing_dir = tmp_path / "no_such_dir" / "x.csv"
    assert main(["lemma-check", "--config", config, "--out", str(missing_dir)]) == 3


def test_cli_json_format(tmp_path):
    config = write_config(tmp_path, "c.json", {"kind": "lemma", "lemma_probes": 4})
    out = tmp_path / "lemma.json"
    assert main(["lemma-check", "--config", config, "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["passed"] is True


def test_cli_poisson_accepts_a_tolerance_equal_to_a_tail(tmp_path, capsys):
    # the closed form gives truncation 9 for this tolerance, but the default
    # model's tail at 9 computes one ulp above it, so 10 is the smallest
    # truncation that meets it
    config = write_config(
        tmp_path, "c.json", {"kind": "poisson", "truncation_tol": 0.4267766952966372}
    )
    out = tmp_path / "poisson.json"
    assert main(["poisson-check", "--config", config, "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    meta = json.loads(out.read_text())["metadata"]
    assert meta["truncation"] == 10


def test_cli_poisson_accepts_a_subnormal_tolerance(tmp_path, capsys):
    # the tail's ratio to this tolerance overflows a float
    payload = {"kind": "poisson", "truncation_tol": 1e-320, "poisson_grid": 2,
               "poisson_rollouts": 1}
    config = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "poisson.json"
    assert main(["poisson-check", "--config", config, "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["metadata"]["truncation"] > 2000


def test_cli_kind_follows_subcommand(tmp_path):
    # the subcommand wins over the config's kind tag
    config = write_config(tmp_path, "c.json", {**BASE, "kind": "lemma"})
    out = tmp_path / "audit.csv"
    assert main(["audit-contraction", "--config", config, "--out", str(out)]) == 0
    assert "sup_ratio" in out.read_text()


KINDS = "contraction, concentration, asem, relative, scaling, bounds, poisson, lemma"


@pytest.mark.parametrize(
    "payload, code, err",
    [
        # rules of the file's kind, which the concentration run does not have
        ({"kind": "scaling", "eps_list": [0.1]}, 0, ""),
        ({"kind": "poisson", "poisson_h_const": 5.0}, 0, ""),
        # the file must name a kind all the same
        ({}, 1, "config error: config needs an experiment 'kind'\n"),
        ({"kind": "bogus"}, 1, f"config error: kind must be one of {KINDS}\n"),
        ({"kind": 5}, 1, "config error: kind must be a string, got 5\n"),
    ],
    ids=["scaling-rule", "poisson-rule", "no-kind", "unknown-kind", "kind-not-a-string"],
)
def test_cli_checks_a_config_once_under_the_subcommand_kind(tmp_path, capsys, payload, code,
                                                            err):
    config = write_config(tmp_path, "c.json", {**payload, "replications": 4, "n_list": [60]})
    assert main(["concentration", "--config", config, "--out", str(tmp_path / "r.csv")]) == code
    assert capsys.readouterr().err == err


TINY = {
    "audit-contraction": BASE,
    "concentration": {"kind": "concentration", "n_list": [60], "replications": 4,
                      "net_radius": 0.25, "pi_grid": 64},
    "asem": {"kind": "asem", "n": 60, "replications": 4, "net_radius": 0.25, "pi_grid": 64},
    "relative": {"kind": "relative", "n": 60, "replications": 4, "net_radius": 0.25,
                 "pi_grid": 64},
    "scaling": {"kind": "scaling", "net_radius": 0.25, "pi_grid": 64},
    "bounds": {"kind": "bounds", "n": 1000, "net_radius": 0.25, "pi_grid": 64},
    "poisson-check": {"kind": "poisson", "poisson_grid": 8, "poisson_rollouts": 200,
                      "pi_grid": 64},
    "lemma-check": {"kind": "lemma", "lemma_probes": 4},
}


@pytest.mark.parametrize("subcommand", sorted(TINY))
def test_cli_json_report_for_every_subcommand(tmp_path, subcommand):
    config = write_config(tmp_path, "c.json", TINY[subcommand])
    out = tmp_path / "report.json"
    code = main([subcommand, "--config", config, "--format", "json", "--out", str(out)])
    assert code in (0, 2)
    payload = json.loads(out.read_text())
    assert set(payload) == {"metadata", "columns", "rows"}
    assert all(len(row) == len(payload["columns"]) for row in payload["rows"])


@pytest.mark.parametrize("bad", [{"n": 0}, {"n_list": [1000, 0]}])
def test_cli_rejects_nonpositive_n(tmp_path, capsys, bad):
    config = write_config(tmp_path, "c.json", {"kind": "concentration", **bad})
    assert main(["concentration", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "at least 1" in err
    assert err.count("\n") == 1


INT_FIELDS = [
    "master_seed", "replications", "pi_grid", "diameter_grid", "n", "pair_count",
    "decay_n_max", "decay_grid", "opt_refinement", "poisson_grid", "poisson_rollouts",
    "holder_d", "lemma_probes", "lemma_grid",
]


@pytest.mark.parametrize(
    "field, value",
    [(f, 5.5) for f in INT_FIELDS]
    + [("n", 100.5), ("replications", True), ("poisson_grid", 8.5), ("n_list", [100.5]),
       ("n_list", [1000, False]), ("pair_count", "10")],
)
def test_cli_rejects_non_integer_int_fields(tmp_path, capsys, field, value):
    config = write_config(tmp_path, "c.json", {"kind": "concentration", field: value})
    assert main(["concentration", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert field in err and "must be an integer" in err


@pytest.mark.parametrize(
    "field, value",
    [("n_list", 5), ("eps_list", 0.1), ("anchor", 1), ("anchor", [0.5]), ("anchor", [[0.5], 0.5]),
     ("anchor", ["0.5", "0.5"]), ("anchor", [True, 0.5]), ("anchor", [0.5, math.nan]),
     ("anchor", {"x": 0.5, "y": 0.5})],
)
def test_cli_rejects_malformed_list_fields(tmp_path, capsys, field, value):
    config = write_config(tmp_path, "c.json", {"kind": "concentration", field: value})
    assert main(["concentration", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert field in err


@pytest.mark.parametrize(
    "subcommand, payload, field",
    [
        ("concentration", {"kind": "concentration", "eps": "0.1"}, "eps"),
        ("concentration", {"kind": "concentration", "eps_list": ["a"]}, "eps_list"),
        ("bounds", {"kind": "bounds", "eps_list": [None]}, "eps_list"),
        ("concentration", {"kind": "concentration", "y_lo": "0"}, "y_lo"),
        ("concentration", {"kind": "concentration", "target_params": 3}, "target_params"),
        ("concentration", {"kind": "concentration", "eta_override": "0.5"}, "eta_override"),
        ("concentration", {"kind": "concentration", "eps": True}, "eps"),
    ],
)
def test_cli_rejects_mistyped_fields(tmp_path, capsys, subcommand, payload, field):
    config = write_config(tmp_path, "c.json", payload)
    assert main([subcommand, "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert field in err


@pytest.mark.parametrize(
    "subcommand, payload, field",
    [
        ("concentration", {"kind": "concentration", "replications": 5, "n_list": [100],
                           "eps_list": [math.nan]}, "eps_list"),
        ("asem", {"kind": "asem", "replications": 2, "n": 10, "eps": math.inf}, "eps"),
        ("bounds", {"kind": "bounds", "eps_list": [math.nan]}, "eps_list"),
        ("concentration", {"kind": "concentration", "eta_override": -math.inf},
         "eta_override"),
    ],
    ids=["concentration-nan-list", "asem-inf", "bounds-nan-list", "optional-minus-inf"],
)
def test_cli_rejects_non_finite_floats(tmp_path, capsys, subcommand, payload, field):
    # json writes these as NaN and Infinity, which json.load accepts
    config = write_config(tmp_path, "c.json", payload)
    assert main([subcommand, "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert field in err and "finite" in err


@pytest.mark.parametrize(
    "subcommand, payload, message",
    [
        ("scaling", {"kind": "scaling", "alpha": 0}, "alpha must be positive"),
        ("scaling", {"kind": "scaling", "alpha": -1}, "alpha must be positive"),
        ("asem", {"kind": "asem", "replications": 2, "n": 10, "delta": -0.1},
         "delta must lie in (0, 1)"),
        ("concentration", {"kind": "concentration", "replications": 2, "n_list": [10],
                           "delta": 2}, "delta must lie in (0, 1)"),
        ("bounds", {"kind": "bounds", "delta": 1}, "delta must lie in (0, 1)"),
        ("relative", {"kind": "relative", "replications": 2, "n_list": [10],
                      "eps_list": [0]}, "every eps_list entry must be positive"),
        ("asem", {"kind": "asem", "replications": 2, "n": 10, "eps": 0},
         "eps must be positive"),
        ("scaling", {"kind": "scaling", "eps_list": [0.1, -0.2]},
         "every eps_list entry must be positive"),
    ],
    ids=["scaling-alpha-0", "scaling-alpha-negative", "asem-delta-negative",
         "concentration-delta-2", "bounds-delta-1", "relative-eps-list-0", "asem-eps-0",
         "scaling-eps-list-negative"],
)
def test_cli_rejects_out_of_range_eps_delta_alpha(tmp_path, capsys, subcommand, payload, message):
    # rejected when the config loads, before any Monte Carlo runs
    config = write_config(tmp_path, "c.json", payload)
    assert main([subcommand, "--config", config]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("grid", [0, 1])
def test_cli_rejects_degenerate_lemma_grid(tmp_path, capsys, grid):
    config = write_config(
        tmp_path, "c.json", {"kind": "lemma", "target_name": "tent", "lemma_grid": grid}
    )
    assert main(["lemma-check", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err == "config error: lemma_grid must be at least 2\n"


@pytest.mark.parametrize(
    "subcommand, payload",
    [
        ("scaling", {"kind": "scaling", "class_kind": "constants", "holder_d": 200}),
        ("scaling", {"kind": "scaling", "class_kind": "constants",
                     "eps_list": [1e-200, 1e-201]}),
        ("asem", {"kind": "asem", "class_kind": "constants", "replications": 2, "n": 10,
                  "eps": 1e-200}),
        ("asem", {"kind": "asem", "replications": 2, "n": 10, "eps": 1e-320}),
        ("bounds", {"kind": "bounds", "n": 10, "eps_list": [1e-320]}),
        ("relative", {"kind": "relative", "replications": 2, "n": 10,
                      "eps_list": [1e-320]}),
    ],
    ids=["holder-d-overflow", "eps-list-overflow", "eps-squared-underflow",
         "asem-covering-overflow", "bounds-covering-overflow", "relative-covering-overflow"],
)
def test_cli_float_range_error_is_one_line(tmp_path, subcommand, payload):
    # run as a separate process so any traceback would reach the real stderr
    config = write_config(tmp_path, "c.json", payload)
    src = os.path.dirname(os.path.dirname(chainlearn.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "chainlearn.cli", subcommand, "--config", config],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "payload",
    [
        {"class_kind": "lipschitz", "lip_bound": 1.0, "net_radius": 3e-3},
        {"class_kind": "lipschitz_anchored", "lip_bound": 1.0, "anchor": [0.5, 0.5],
         "net_radius": 1e-3},
        {"class_kind": "lipschitz", "lip_bound": 1.0, "net_radius": 1e-320},
        {"class_kind": "constants", "net_radius": 1e-13},
    ],
    ids=["lipschitz", "anchored", "lipschitz-underflow", "constants"],
)
def test_cli_oversized_net_rejected_before_enumeration(tmp_path, capsys, payload):
    config = write_config(tmp_path, "c.json", {"kind": "concentration", **payload})
    start = time.perf_counter()
    assert main(["concentration", "--config", config]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "more than 10000000 members" in err


def test_cli_internal_error_is_one_line(tmp_path, capsys, monkeypatch):
    import chainlearn.cli as cli

    def fail(config):
        raise RuntimeError("transportation LP failed:\nsolver status 4")

    monkeypatch.setattr(cli, "run_experiment", fail)
    config = write_config(tmp_path, "c.json", BASE)
    assert main(["audit-contraction", "--config", config]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: transportation LP failed: solver status 4\n"
    assert "Traceback" not in err


def test_cli_rejects_unknown_target_parameter(tmp_path, capsys):
    config = write_config(tmp_path, "c.json", {
        **BASE, "target_name": "affine", "target_params": {"slope": 1.5},
    })
    assert main(["audit-contraction", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "slope" in err


@pytest.mark.parametrize("subcommand", ["asem", "bounds", "concentration", "poisson-check"])
def test_cli_rejects_identically_zero_loss(tmp_path, capsys, subcommand):
    # a one-point class equal to a constant target: the loss is 0 everywhere
    config = write_config(tmp_path, "c.json", {
        "kind": "asem", "target_name": "constant", "target_params": {"c": 0.5},
        "y_lo": 0.5, "y_hi": 0.5, "n": 50, "replications": 2, "pi_grid": 64,
        "poisson_grid": 8, "poisson_rollouts": 50,
    })
    assert main([subcommand, "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "L_bar = 0" in err


RANGE_CASES = [
    ("poisson-check", "poisson_grid", 1, "poisson_grid must be at least 2"),
    ("concentration", "pi_grid", 1, "pi_grid must be at least 2"),
    ("audit-contraction", "diameter_grid", 1, "diameter_grid must be at least 2"),
    ("audit-contraction", "decay_grid", 1, "decay_grid must lie in 2..4096"),
    ("audit-contraction", "decay_grid", 4097, "decay_grid must lie in 2..4096"),
    ("poisson-check", "poisson_rollouts", 0, "poisson_rollouts must be at least 1"),
    ("audit-contraction", "pair_count", 0, "pair_count must be at least 1"),
    ("lemma-check", "lemma_probes", 0, "lemma_probes must be at least 1"),
    ("asem", "opt_refinement", 0, "opt_refinement must be at least 1"),
    ("scaling", "holder_d", 0, "holder_d must be at least 1"),
    ("poisson-check", "truncation_tol", 0.0, "truncation_tol must be positive"),
    ("scaling", "holder_gamma", 0.0, "holder_gamma must lie in (0, 1]"),
    ("scaling", "holder_gamma", math.nextafter(1.0, 2.0), "holder_gamma must lie in (0, 1]"),
    ("scaling", "holder_c", 0.0, "holder_c must be positive"),
    ("lemma-check", "lemma_tolerance", -math.ulp(0.0), "lemma_tolerance must be at least 0"),
]


@pytest.mark.parametrize(
    "subcommand, field, value, message", RANGE_CASES, ids=[f"{c[1]}={c[2]!r}" for c in RANGE_CASES]
)
def test_cli_rejects_each_range_at_load_time(
    tmp_path, capsys, monkeypatch, subcommand, field, value, message
):
    # each at its first invalid value, before any experiment starts
    import chainlearn.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: calls.append(config))
    config = write_config(tmp_path, "c.json", {"kind": "lemma", field: value})
    assert main([subcommand, "--config", config]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert calls == []


@pytest.mark.parametrize(
    "subcommand, payload, message",
    [
        ("scaling", {"kind": "scaling", "holder_c": -1}, "holder_c must be positive"),
        # a slope fitted through one point
        ("scaling", {"kind": "scaling", "eps_list": [0.5]},
         "eps_list must hold at least two distinct values for kind scaling"),
        ("scaling", {"kind": "scaling", "eps_list": [0.5, 0.5]},
         "eps_list must hold at least two distinct values for kind scaling"),
        ("lemma-check", {"kind": "lemma", "lemma_tolerance": -1},
         "lemma_tolerance must be at least 0"),
        ("poisson-check", {"kind": "poisson", "poisson_h_const": 5},
         "poisson_h_const must lie in the class range [y_lo, y_hi] = [0.0, 1.0]"),
        # the subcommand sets the kind, and the changed config is checked again
        ("poisson-check", {"kind": "concentration", "y_lo": 0.6, "y_hi": 0.9},
         "poisson_h_const must lie in the class range [y_lo, y_hi] = [0.6, 0.9]"),
    ],
    ids=["scaling-holder-c", "scaling-one-eps", "scaling-one-distinct-eps",
         "lemma-tolerance", "poisson-h-outside-class",
         "poisson-h-outside-class-after-kind-override"],
)
def test_cli_rejects_configs_without_a_meaningful_verdict(tmp_path, capsys, subcommand,
                                                          payload, message):
    config = write_config(tmp_path, "c.json", payload)
    assert main([subcommand, "--config", config]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_cli_poisson_h_range_binds_only_the_poisson_check(tmp_path):
    # the default h = 0.5 lies outside this class, which only the Poisson check uses h with
    config = write_config(tmp_path, "c.json", {
        "kind": "concentration", "y_lo": 0.6, "y_hi": 0.9, "n_list": [60], "replications": 4,
        "net_radius": 0.25, "pi_grid": 64,
    })
    assert main(["concentration", "--config", config, "--out", str(tmp_path / "r.csv")]) == 0


CLASS_CASES = [
    ({"y_lo": 1.0, "y_hi": 0.0}, "y_hi must be at least y_lo = 1.0"),
    ({"class_kind": "constants", "lip_bound": 2.0},
     "lip_bound must be 0 for class_kind constants"),
    ({"class_kind": "lipschitz"}, "lip_bound must be positive for class_kind lipschitz"),
    ({"class_kind": "lipschitz_anchored", "lip_bound": -1.0},
     "lip_bound must be positive for class_kind lipschitz_anchored"),
    ({"class_kind": "lipschitz_anchored", "lip_bound": 1.0},
     "anchor must be given for class_kind lipschitz_anchored"),
    ({"class_kind": "lipschitz_anchored", "lip_bound": 1.0, "anchor": [0.5, 2.0]},
     "anchor must lie in [0, 1] x [y_lo, y_hi] = [0, 1] x [0.0, 1.0]"),
    ({"class_kind": "lipschitz_anchored", "lip_bound": 1.0, "anchor": [-0.5, 0.5]},
     "anchor must lie in [0, 1] x [y_lo, y_hi] = [0, 1] x [0.0, 1.0]"),
    ({"class_kind": "holder"},
     "class_kind must be one of constants, lipschitz, lipschitz_anchored"),
    ({"anchor": [0.5, 0.5]}, "anchor must not be given for class_kind constants"),
    ({"class_kind": "lipschitz", "lip_bound": 1.0, "anchor": [0.5, 0.5]},
     "anchor must not be given for class_kind lipschitz"),
]


@pytest.mark.parametrize("subcommand", sorted(chainlearn.cli._SUBCOMMANDS))
@pytest.mark.parametrize(
    "payload, message", CLASS_CASES, ids=[f"case{i}" for i in range(len(CLASS_CASES))]
)
def test_cli_rejects_class_fields_against_each_other(tmp_path, capsys, monkeypatch,
                                                     subcommand, payload, message):
    # checked at load time for every subcommand, also those that never build
    # the class, in one line that names the field
    import chainlearn.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: calls.append(config))
    config = write_config(tmp_path, "c.json", {"kind": "lemma", **payload})
    assert main([subcommand, "--config", config]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert calls == []


def test_cli_accepts_a_consistent_anchored_class(tmp_path):
    config = write_config(tmp_path, "c.json", {
        "kind": "lemma", "class_kind": "lipschitz_anchored", "lip_bound": 1.0,
        "anchor": [0.0, 1.0], "lemma_probes": 4,
    })
    assert main(["lemma-check", "--config", config, "--out", str(tmp_path / "r.csv")]) == 0


TARGET_AND_OVERRIDE_CASES = [
    ({"target_name": "constant", "target_params": {"c": math.inf}},
     "every target_params value must be a finite number, got {'c': inf}"),
    ({"target_name": "constant", "target_params": {"c": "0.3"}},
     "every target_params value must be a finite number, got {'c': '0.3'}"),
    ({"target_name": "constant", "target_params": {"c": True}},
     "every target_params value must be a finite number, got {'c': True}"),
    ({"target_name": "affine", "target_params": {"a": 2.0}},
     "target_name 'affine' with target_params {'a': 2.0}: "
     "Lipschitz bound must lie in [0, sqrt(3)), got 2.0"),
    ({"target_name": "sine"},
     "target_name 'sine' with target_params {}: unknown target function 'sine'"),
    ({"eta_override": -1}, "eta_override must lie in (0, 1)"),
    ({"eta_override": 1}, "eta_override must lie in (0, 1)"),
    ({"c1_override": -3}, "c1_override must be positive"),
    ({"m_override": 0.0}, "m_override must be positive"),
    ({"M_override": -1}, "M_override must be positive"),
    ({"m_override": 5, "M_override": 1}, "m_override must be at most M_override = 1.0"),
]


@pytest.mark.parametrize("subcommand", ["lemma-check", "bounds"])
@pytest.mark.parametrize(
    "payload, message",
    TARGET_AND_OVERRIDE_CASES,
    ids=[f"case{i}" for i in range(len(TARGET_AND_OVERRIDE_CASES))],
)
def test_cli_rejects_target_and_overrides_at_load_time(tmp_path, capsys, monkeypatch,
                                                       subcommand, payload, message):
    import chainlearn.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: calls.append(config))
    config = write_config(tmp_path, "c.json", {"kind": "lemma", **payload})
    assert main([subcommand, "--config", config]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert calls == []


LIPSCHITZ_HALF = {"class_kind": "lipschitz", "lip_bound": 1.0, "net_radius": 0.5,
                  "pi_grid": 256, "replications": 3, "n": 200}


@pytest.mark.parametrize(
    "subcommand, payload, bound_cells",
    [
        ("bounds", {"eps_list": [0.8]}, {(0, 3), (1, 3), (2, 3)}),
        ("asem", {"opt_refinement": 1}, set()),
        ("relative", {"eps_list": [0.2]}, {(0, 5)}),
    ],
)
def test_cli_reports_lipschitz_covering_counts_past_the_member_cap(tmp_path, subcommand,
                                                                   payload, bound_cells):
    # the class covering numbers at eps/(4 L_bar) and eps/L_bar pass 10**7,
    # the cap on enumerated members; only the 178-member net is enumerated
    config = write_config(tmp_path, "c.json", {"kind": "lemma", **LIPSCHITZ_HALF, **payload})
    out = tmp_path / "r.json"
    assert main([subcommand, "--config", config, "--out", str(out), "--format", "json"]) == 0
    report = json.loads(out.read_text())
    for row, column in bound_cells:
        assert math.isfinite(report["rows"][row][column])
    if subcommand == "asem":
        assert report["metadata"]["n1_covering"] > 10**7
        assert report["metadata"]["net_size"] == 178


@pytest.mark.parametrize(
    "subcommand, column", [("concentration", "theoretical_bound"),
                           ("relative", "theoretical_bound"), ("bounds", "bound")],
)
def test_cli_bound_of_an_overflowing_exponent_is_zero(tmp_path, capsys, subcommand, column):
    # eps**2 overflows a float at eps = 1e300; the exponent saturates at -inf
    config = write_config(tmp_path, "c.json", {"kind": subcommand, "eps_list": [1e300],
                                               "n_list": [100], "replications": 2})
    assert main([subcommand, "--config", config, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    at = report["columns"].index(column)
    assert report["rows"] and all(row[at] == 0.0 for row in report["rows"])


@pytest.mark.parametrize(
    "subcommand, payload, code",
    [
        ("asem", {"eps": 1e300}, 0),
        ("asem", {"c1_override": 1e300}, 1),
        ("scaling", {"eps_list": [1e300, 1e299]}, 0),
        ("bounds", {"m_override": 1e-300, "M_override": 1e300}, 0),
        ("relative", {"m_override": 1e-300, "M_override": 1e300}, 0),
        ("scaling", {"m_override": 1e-300, "M_override": 1e300}, 1),
    ],
    ids=["asem-eps", "asem-c1", "scaling-eps", "bounds-m-M", "relative-m-M", "scaling-m-M"],
)
def test_cli_closed_forms_past_the_float_range(tmp_path, capsys, subcommand, payload, code):
    # Python's float ** raises OverflowError where * gives inf; each of these
    # exited 4 on a square in `bounds`.  An overflowing denominator sends its
    # term to 0, an overflowing numerator makes the sample size overflow
    config = write_config(tmp_path, "c.json", {"kind": subcommand, **payload})
    assert main([subcommand, "--config", config]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("config error: sample size n") and err.count("\n") == 1
    else:
        assert err == ""


def test_cli_rejects_an_overflowing_n2(tmp_path, capsys):
    config = write_config(tmp_path, "c.json", {"kind": "scaling", "alpha": 1e-300,
                                               "eps_list": [0.1, 0.2]})
    assert main(["scaling", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: sample size n2 overflows at eps=")
    assert err.count("\n") == 1


@pytest.mark.parametrize("subcommand", ["bounds", "relative", "scaling"])
@pytest.mark.parametrize("value", [1e-300, 1e-200, 1e80, 1e160, 1e210, 1e300])
def test_cli_error_range_overrides_past_the_float_range(tmp_path, capsys, subcommand, value):
    # m**4, m**2 and m**1.5 overflow past about 1e77, 1e154 and 1e205, and
    # the denominators underflow below about 1e-77; each exited 4
    config = write_config(tmp_path, "c.json", {
        "kind": subcommand, "m_override": value, "M_override": value,
        "replications": 2, "n_list": [100],
    })
    code = main([subcommand, "--config", config])
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code:
        assert err.startswith("config error: ") and err.count("\n") == 1
    else:
        assert err == ""


HUGE_AFFINE = {"target_name": "affine", "target_params": {"a": 1.0, "b": 1e300}}


@pytest.mark.parametrize(
    "subcommand", ["concentration", "asem", "relative", "scaling", "bounds", "poisson-check"]
)
def test_cli_rejects_an_overflowing_loss_bound_at_load_time(tmp_path, capsys, monkeypatch,
                                                             subcommand):
    # the target's range puts B = D^2 past the float range; the true errors
    # used to be scored first and warn of the overflow
    import chainlearn.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: calls.append(config))
    config = write_config(tmp_path, "c.json", {"kind": "lemma", **HUGE_AFFINE})
    assert main([subcommand, "--config", config]) == 1
    assert capsys.readouterr().err == "config error: B must be finite and nonnegative, got inf\n"
    assert calls == []


def test_cli_audit_reads_no_loss_bound(tmp_path, capsys):
    config = write_config(tmp_path, "c.json", {**BASE, **HUGE_AFFINE})
    assert main(["audit-contraction", "--config", config, "--out", str(tmp_path / "a.csv")]) == 0
    assert capsys.readouterr().err == ""


BIG = "1" + "0" * 400  # an integer literal past the float range


@pytest.mark.parametrize(
    "subcommand, text, field",
    [
        ("asem", '{"kind": "asem", "eps": %s}' % BIG, "eps"),
        ("concentration", '{"kind": "concentration", "target_name": "affine", '
                          '"target_params": {"a": %s}}' % BIG, "target_params"),
        ("bounds", '{"kind": "bounds", "eps_list": [0.1, %s]}' % BIG, "eps_list"),
        ("concentration", '{"kind": "concentration", "class_kind": "lipschitz_anchored", '
                          '"lip_bound": 1.0, "anchor": [%s, 0.5]}' % BIG, "anchor"),
        # past the interpreter's limit on the digits of an integer literal
        ("asem", '{"kind": "asem", "replications": 1%s}' % ("0" * 5000), "4300 digits"),
    ],
    ids=["float-field", "target-param", "float-list-entry", "anchor", "over-long-literal"],
)
def test_cli_rejects_big_integer_literals(tmp_path, capsys, subcommand, text, field):
    # each exited 4: an integer too large for a float raised OverflowError
    # where it was checked, and json.load's ValueError was not caught
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main([subcommand, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert field in err


# per subcommand, a config's integer fields and its float fields spelled as
# integers: every float-typed kind of field (plain, optional, pair, list and
# the target parameters)
SPELLINGS = {
    "bounds": (
        {"kind": "bounds", "n_list": [100]},
        {"eps_list": [1, 2], "y_lo": 0, "y_hi": 1, "target_name": "affine",
         "target_params": {"a": 0, "b": 1}, "class_kind": "lipschitz_anchored",
         "lip_bound": 1, "anchor": [0, 1], "net_radius": 1, "c1_override": 2,
         "m_override": 1, "M_override": 2},
    ),
    "asem": (
        {"kind": "asem", "n": 60, "replications": 4, "pi_grid": 64},
        {"eps": 1, "x0": 1, "net_radius": 1},
    ),
}


@pytest.mark.parametrize("subcommand", sorted(SPELLINGS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_int_and_float_spellings_give_the_same_report(tmp_path, subcommand, fmt):
    # "eps": 1 and "eps": 1.0 make equal configs, so they must hash and
    # render alike; the report carried eps=1 and another config_hash
    ints, as_ints = SPELLINGS[subcommand]
    as_floats = json.loads(json.dumps(as_ints), parse_int=float)
    reports = []
    for name, payload in (("int", {**ints, **as_ints}), ("float", {**ints, **as_floats})):
        config = write_config(tmp_path, f"{name}.json", payload)
        out = tmp_path / f"{name}.{fmt}"
        assert main([subcommand, "--config", config, "--format", fmt, "--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]
    assert "config_hash" in reports[0]


# small configs for the property test below: every subcommand reads the
# fields it needs, at sizes that keep a run to milliseconds, with a constants
# class or a Lipschitz one and its bound
_SMALL_FIELDS = st.fixed_dictionaries(
    {
        "kind": st.just("bounds"),
        "net_radius": st.floats(0.4, 1.0),
        "replications": st.integers(1, 6),
        "pi_grid": st.integers(2, 64),
        "diameter_grid": st.integers(2, 64),
        "n": st.integers(1, 300),
        "pair_count": st.integers(1, 50),
        "decay_n_max": st.integers(1, 5),
        "decay_grid": st.integers(2, 64),
        "opt_refinement": st.integers(1, 2),
        "poisson_grid": st.integers(2, 8),
        "poisson_rollouts": st.integers(1, 40),
        "lemma_probes": st.integers(1, 8),
        "lemma_grid": st.integers(2, 64),
    },
    optional={
        "target_name": st.sampled_from(["identity", "tent", "quadratic", "constant"]),
        "x0_policy": st.sampled_from(["fixed", "uniform", "stationary"]),
        "x0": st.floats(0.0, 1.0),
        "y_lo": st.floats(-0.5, 0.0),
        "y_hi": st.floats(1.0, 1.5),
        "master_seed": st.integers(0, 2**64 - 1),
        "n_list": st.lists(st.integers(1, 300), max_size=3),
        "eps": st.floats(1e-3, 2.0),
        "eps_list": st.lists(st.floats(1e-3, 2.0), max_size=3, unique=True)
        .filter(lambda v: len(v) != 1),
        "delta": st.floats(1e-3, 0.999),
        "alpha": st.floats(0.1, 10.0),
        # certified: eta 0.29 or 0.5, C1 (the diameter) 1 to 1.42
        "eta_override": st.floats(0.01, 0.6),
        "c1_override": st.floats(0.5, 3.0),
        "m_override": st.floats(1e-3, 0.5),
        "poisson_h_const": st.floats(0.0, 1.0),
        "truncation_tol": st.floats(1e-3, 0.5),
        "holder_c": st.floats(0.1, 10.0),
        "holder_d": st.integers(1, 3),
        "holder_gamma": st.floats(0.1, 1.0),
        "lemma_tolerance": st.floats(0.0, 1e-3),
    },
)
_SMALL = st.builds(
    lambda payload, lip: {**payload, **lip},
    _SMALL_FIELDS,
    st.just({})
    | st.fixed_dictionaries({"class_kind": st.just("lipschitz"), "lip_bound": st.floats(0.25, 1.0)}),
)


def _parse(text: str, fmt: str) -> tuple[dict, list, list]:
    """(metadata, columns, rows) of a rendered report."""
    if fmt == "json":
        payload = json.loads(text)
        assert set(payload) == {"metadata", "columns", "rows"}
        return payload["metadata"], payload["columns"], payload["rows"]
    lines = text.splitlines()
    meta = dict(line[2:].partition("=")[::2] for line in lines if line.startswith("# "))
    columns, *rows = csv.reader(line for line in lines if not line.startswith("# "))
    return meta, columns, rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    subcommand=st.sampled_from(sorted(cli._SUBCOMMANDS)),
    fmt=st.sampled_from(["csv", "json"]),
    payload=_SMALL,
)
def test_cli_every_subcommand_and_format_on_small_configs(subcommand, fmt, payload):
    # a run ends in a report or a one-line config error, never a traceback;
    # the report parses with its columns, and exit 2 means violations
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "c.json")
        with open(config, "w") as fh:
            json.dump(payload, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([subcommand, "--config", config, "--format", fmt])
    assert code in (0, 1, 2), err.getvalue()
    assert err.getvalue().count("\n") <= 1
    if code == 1:
        assert err.getvalue().startswith("config error: ")
        return
    meta, columns, rows = _parse(out.getvalue(), fmt)
    assert columns and all(len(row) == len(columns) for row in rows)
    assert (code == 2) == (int(meta.get("violations", 0)) > 0)
