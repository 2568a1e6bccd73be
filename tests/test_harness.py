import csv
import dataclasses
import importlib.util
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlearn import bounds as bd
from chainlearn import parallel
from chainlearn.harness import (
    RUNNERS,
    ConfigError,
    ExperimentConfig,
    Report,
    build_chain,
    build_class,
    covering_count,
    load_config,
    model_constants,
    render_report,
    run_asem_experiment,
    run_bounds_calculator,
    run_concentration_experiment,
    run_contraction_audit,
    run_lemma_check,
    run_poisson_check,
    run_relative_experiment,
    run_scaling_experiment,
    write_report,
)
from chainlearn.learner import DegenerateClassError
from chainlearn.state_space import make_target


def cfg(**kw):
    return ExperimentConfig.from_dict(kw)


def errors_at(net, chain, config, n, pi_hat):
    """The (members, replications) empirical errors at one n: the fold with
    a reduction that keeps them."""
    from chainlearn.harness import _batch_empirical_at

    return _batch_empirical_at(net, chain, config, (n,), pi_hat, lambda errors: errors)[0]


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        cfg(kind="asem", bogus=1)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        cfg(kind="teleport")
    with pytest.raises(ConfigError):
        cfg(kind="asem", x0=1.5)
    with pytest.raises(ConfigError):
        cfg(kind="asem", replications=0)
    with pytest.raises(ConfigError):
        cfg(kind="contraction", decay_n_max=13)


def test_decay_n_max_range_follows_the_atom_cap():
    # P^n(z0, .) has 2^n atoms, so n stops where 2^n passes the solver's cap
    import chainlearn.transport as tr

    assert 2**12 == tr.ATOM_CAP
    assert cfg(kind="contraction", decay_n_max=12).decay_n_max == 12
    for bad in (0, 13):
        with pytest.raises(ConfigError, match=r"^decay_n_max must lie in 1\.\.12$"):
            cfg(kind="contraction", decay_n_max=bad)


@pytest.mark.parametrize("field, value", [("n_list", [1000, 10000]), ("eps_list", [0.1])])
def test_config_made_in_code_takes_a_list_for_a_tuple_field(field, value):
    # a list passed to the class or to `dataclasses.replace` is kept as a
    # tuple, as one read from JSON is, and its entries are checked
    import dataclasses

    made = ExperimentConfig(kind="bounds", **{field: value})
    replaced = dataclasses.replace(ExperimentConfig(kind="bounds"), **{field: value})
    for config in (made, replaced):
        assert getattr(config, field) == tuple(value)
        assert config.digest() == cfg(kind="bounds", **{field: value}).digest()
    with pytest.raises(ConfigError, match=f"^every {field} entry must be"):
        ExperimentConfig(kind="bounds", **{field: [*value, 0]})
    with pytest.raises(ConfigError, match=f"^{field} must be a list, got 5$"):
        dataclasses.replace(made, **{field: 5})


def test_config_hash_stable_and_sensitive():
    a = cfg(kind="asem", n=100)
    b = cfg(kind="asem", n=100)
    c = cfg(kind="asem", n=101)
    assert a.digest() == b.digest() != c.digest()


def test_conservative_override_validation():
    good = cfg(kind="concentration", target_name="affine",
               target_params={"a": 0.1, "b": 0.45}, y_lo=0.45, y_hi=0.55,
               eta_override=1 - math.sqrt(2) / 2, c1_override=math.sqrt(2))
    chain = build_chain(good)
    consts = model_constants(good, chain, build_class(good))
    assert consts.eta == pytest.approx(1 - math.sqrt(2) / 2)
    assert consts.C1 == pytest.approx(math.sqrt(2))
    bad = cfg(kind="concentration", target_name="affine",
              target_params={"a": 0.1, "b": 0.45}, eta_override=0.9)
    with pytest.raises(ConfigError, match="contraction margin"):
        model_constants(bad, build_chain(bad), build_class(bad))


def test_report_rendering_deterministic(tmp_path):
    report = Report({"b": 2, "a": 1.5}, ("x", "y"), [(1, 2.0), (3, 0.1)])
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_report(report, str(p1), "csv")
    write_report(report, str(p2), "csv")
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.startswith("# a=1.5\n# b=2\n")


def test_empty_report_header_only():
    report = Report({}, ("x", "y"), [])
    assert render_report(report, "csv") == "x,y\n"


def csv_oracle(report):
    """The CSV rendering through `csv.writer` that `render_report` replaced."""
    from chainlearn.harness import _fmt_cell

    buf = io.StringIO()
    for key in sorted(report.metadata):
        buf.write(f"# {key}={_fmt_cell(report.metadata[key])}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    cols = [
        col if set(map(type, col)) <= {str, int, float} else list(map(_fmt_cell, col))
        for col in zip(*report.rows, strict=True)
    ]
    writer.writerows(zip(*cols))
    return buf.getvalue()


def bench_workloads():
    """`bench/workloads.py`, loaded by path: `bench` is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads_for_csv", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 20211008])
def test_csv_rendering_is_the_csv_writers_for_every_bench_report(tmp_path, seed):
    wl = bench_workloads()
    for workload in wl.WORKLOADS.values():
        for op, raw in zip(workload.ops, wl.configs(workload, seed, small=True)):
            path = tmp_path / f"{op.subcommand}.json"
            path.write_text(json.dumps(raw))
            report = RUNNERS[raw["kind"]](load_config(str(path)))
            assert render_report(report, "csv") == csv_oracle(report), op.label


# csv.writer quotes a bare carriage return only from Python 3.13; reports
# write it as it is on every version
CR = "cr\rcell" if sys.version_info < (3, 13) else "plain"


@pytest.mark.parametrize(
    "report",
    [
        Report({"note": "a,b", "flag": False, "none": None},
               ("text", "float", "int", "bool", "mixed", "numpy"),
               [("a,b", -0.0, 3, True, None, np.float64(0.1)),
                ('say "hi"', math.nan, -7, False, "x,y", np.int64(2)),
                ("two\nlines", math.inf, 0, True, 1.5, np.bool_(True)),
                (CR, -math.inf, 10**20, False, ("t", 1), np.float32(0.5)),
                ("", 1e-300, 1, True, True, np.int8(-1))]),
        Report({}, ("only",), [("",), ("a",), ('"',), ("",)]),
        Report({}, ("only",), [(None,), (0.5,)]),
        Report({}, ("",), [(1,)]),
        Report({}, ('a"b', "c,d", "e\nf"), [(1, 2, 3)]),
        Report({"k": 1}, ("x", "y"), []),
        Report({}, (), [(), ()]),
    ],
    ids=["cells", "one-column", "one-column-mixed", "empty-header", "quoted-header",
         "no-rows", "no-columns"],
)
def test_csv_rendering_is_the_csv_writers_on_hand_built_reports(report):
    assert render_report(report, "csv") == csv_oracle(report)


def test_csv_writes_a_bare_carriage_return_as_it_is():
    report = Report({}, ("a", "b"), [("x\ry", 1), ("", 2)])
    assert render_report(report, "csv") == "a,b\nx\ry,1\n,2\n"


def test_report_json_roundtrip(tmp_path):
    report = Report({"seed": 1, "flag": True}, ("a", "b"), [(1, 0.25), (2, 0.5)])
    path = tmp_path / "r.json"
    write_report(report, str(path), "json")
    with open(path) as fh:
        payload = json.load(fh)
    rows = [tuple(r) for r in payload["rows"]]
    assert Report(payload["metadata"], tuple(payload["columns"]), rows) == report


def test_contraction_audit_report():
    config = cfg(kind="contraction", pair_count=50, decay_n_max=4, decay_grid=256,
                 master_seed=3)
    report = run_contraction_audit(config)
    assert report.metadata["violations"] == 0
    assert report.metadata["sup_ratio"] <= math.sqrt(2) / 2 + 1e-9
    decay = [r for r in report.rows if r[0] == "decay"]
    assert len(decay) == 4
    for _, n, _, _, w1, bound, ok in decay:
        assert ok and w1 <= bound + report.metadata["decay_tolerance"] + 1e-9


def test_contraction_audit_reports_invariance_defects():
    base = dict(kind="contraction", pair_count=10, decay_n_max=2, decay_grid=128,
                master_seed=3)
    flat = run_contraction_audit(cfg(**base))
    # constant-slope curve: both candidates coincide at the discretization level
    assert flat.metadata["invariance_defect_arc_length"] == pytest.approx(
        flat.metadata["invariance_defect_pushforward"], rel=1e-6
    )
    curved = run_contraction_audit(cfg(**base, target_name="quadratic"))
    pushforward = curved.metadata["invariance_defect_pushforward"]
    # the uniform pushforward is invariant up to discretization ...
    assert pushforward <= math.sqrt(1 + make_target("quadratic").lip ** 2) / 128
    # ... while normalized arc length is not invariant for curved targets
    assert curved.metadata["invariance_defect_arc_length"] > 5 * pushforward


@pytest.mark.parametrize("decay_n_max", [1, 12])
def test_contraction_audit_solves_every_w1_in_one_batch(monkeypatch, decay_n_max):
    # the decay pairs, then the two invariance-defect pairs, in one call
    import chainlearn.transport as transport

    calls = []
    real = transport.wasserstein1_exact_batch

    def spy(pairs):
        calls.append([(len(mu), len(nu)) for mu, nu in pairs])
        return real(pairs)

    monkeypatch.setattr(transport, "wasserstein1_exact_batch", spy)
    run_contraction_audit(cfg(kind="contraction", pair_count=10, decay_n_max=decay_n_max,
                              decay_grid=256, master_seed=3))
    decay = [(2**n, 256) for n in range(1, decay_n_max + 1)]
    assert calls == [decay + [(128, 256), (128, 256)]]


@pytest.mark.parametrize("target, pools", [("identity", []), ("tent", [2])])
def test_contraction_audit_pools_only_its_lp_solves(monkeypatch, target, pools):
    # the identity audit certifies every W1 solve and starts no thread; on the
    # tent the decay LPs share one pool of helpers, and the report does not
    # depend on the number of workers
    import concurrent.futures

    started = []
    real = concurrent.futures.ThreadPoolExecutor

    class Spy(real):
        def __init__(self, workers, *args, **kwargs):
            started.append(workers)
            super().__init__(workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    config = cfg(kind="contraction", target_name=target, pair_count=20, decay_n_max=8,
                 decay_grid=256, master_seed=3)
    reports = []
    for workers in (1, 3):
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(workers)))
        reports.append(render_report(run_contraction_audit(config), "csv"))
    assert started == pools
    assert reports[0] == reports[1]


def test_contraction_decay_matches_exact_rate():
    config = cfg(kind="contraction", pair_count=10, decay_n_max=6, decay_grid=1024,
                 master_seed=3)
    report = run_contraction_audit(config)
    for _, n, _, _, w1, _, _ in (r for r in report.rows if r[0] == "decay"):
        expected = math.sqrt(2) * 2.0 ** -(n + 1)
        assert abs(w1 - expected) <= math.sqrt(2) / 1024 + 1e-9


def test_concentration_report_matches_bounds_module():
    config = cfg(kind="concentration", n=500, eps=0.2, replications=20,
                 net_radius=0.25, pi_grid=512, master_seed=5)
    report = run_concentration_experiment(config)
    chain = build_chain(config)
    cls = build_class(config)
    consts = model_constants(config, chain, cls)
    (n, eps, trials, exceed, freq, bound, valid), = report.rows
    direct = bd.uniform_tail_bound(eps, n, consts, covering_number=report.metadata["net_size"])
    assert bound == direct.value and valid == direct.valid
    assert freq == exceed / trials
    assert trials == 20


def test_concentration_zero_exceedances_when_eps_above_b():
    config = cfg(kind="concentration", target_name="affine",
                 target_params={"a": 0.1, "b": 0.45}, y_lo=0.45, y_hi=0.55,
                 n=200, eps=0.2, replications=25, net_radius=0.01, pi_grid=256,
                 master_seed=7)
    report = run_concentration_experiment(config)
    (_, _, _, exceed, _, _, _), = report.rows
    assert exceed == 0  # deviations are bounded by B = 0.01 << 0.2


def test_asem_report_plumbing():
    config = cfg(kind="asem", n=2000, eps=0.1, replications=10, net_radius=0.05,
                 pi_grid=1024, master_seed=9)
    report = run_asem_experiment(config)
    chain = build_chain(config)
    cls = build_class(config)
    consts = model_constants(config, chain, cls)
    cov = covering_count(cls, config.eps / (4 * consts.L_bar))
    assert report.metadata["n1"] == bd.n1(config.eps, config.delta, consts, covering_number=cov)
    assert report.metadata["n1_covering"] == cov
    assert report.metadata["opt_pi"] == pytest.approx(1 / 12, abs=1e-3)
    assert report.metadata["success_freq"] == 1.0
    assert len(report.rows) == 10


def test_relative_report_metadata():
    config = cfg(kind="relative", n=2000, eps=0.3, replications=10, net_radius=0.01,
                 pi_grid=1024, master_seed=11)
    report = run_relative_experiment(config)
    chain = build_chain(config)
    cls = build_class(config)
    m, M = report.metadata["m"], report.metadata["M"]
    consts = model_constants(config, chain, cls, m=m, M=M)
    xi1, xi2 = bd.xi_constants(m, M, consts)
    assert report.metadata["xi1"] == xi1 and report.metadata["xi2"] == xi2
    (_, eps, _, _, _, bound, _), = report.rows
    cov = covering_count(cls, eps / consts.L_bar)
    assert bound == bd.relative_tail_bound(eps, 2000, consts, covering_number=cov).value


def test_relative_degenerate_class_error():
    # the one member, h = 0.5, is the constant target: its true error is 0
    config = cfg(kind="relative", target_name="constant", target_params={"c": 0.5},
                 net_radius=1.0, n=100, replications=2, pi_grid=128)
    with pytest.raises(DegenerateClassError):
        run_relative_experiment(config)


def test_bounds_with_both_overrides_builds_no_net():
    oversized = {"kind": "bounds", "net_radius": 1e-13, "pi_grid": 256}
    with pytest.raises(ConfigError, match="more than 10000000 members"):
        cfg(**oversized)  # the net a run without both overrides would build
    report = run_bounds_calculator(cfg(**oversized, m_override=1 / 12, M_override=1 / 3))
    assert (report.metadata["m"], report.metadata["M"]) == (1 / 12, 1 / 3)
    assert [r[2] for r in report.rows] == ["single_h", "uniform", "relative"]


@pytest.mark.parametrize(
    "payload, eps",
    [
        # a net of 2,170,216 members, and 2.6e11 in the asem oracle's finer net
        ({"kind": "asem", "class_kind": "lipschitz", "lip_bound": 0.25, "opt_refinement": 2},
         0.025),
        ({"kind": "relative", "class_kind": "lipschitz", "lip_bound": 1.0, "net_radius": 3e-3},
         3e-3),
        ({"kind": "scaling", "net_radius": 1e-13, "M_override": 0.5}, 1e-13),
    ],
    ids=["asem-oracle", "relative", "scaling-one-override"],
)
def test_load_config_rejects_a_net_past_the_cap_without_building_one(
    tmp_path, monkeypatch, payload, eps
):
    import chainlearn.harness as harness

    built = []
    monkeypatch.setattr(harness, "build_epsilon_net", lambda *args: built.append(args))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value) == f"net for eps={eps} would have more than 10000000 members"
    assert built == []


AFFINE = dict(target_name="affine", target_params={"a": 0.1, "b": 0.45}, y_lo=0.45,
              y_hi=0.55, replications=10, net_radius=0.01, pi_grid=256, master_seed=7)


def check_exceedance_rows(report, config, deviation, bound):
    """Rows in (n, eps) order against deviations and bounds computed here."""
    from chainlearn.chain import invariant_measure
    from chainlearn.hypothesis import build_epsilon_net
    from chainlearn.learner import true_errors

    chain = build_chain(config)
    net = build_epsilon_net(build_class(config), config.net_radius)
    pi_hat = invariant_measure(chain, config.pi_grid)
    true = true_errors(net, pi_hat)
    expected = []
    for n in config.n_list:
        devs = deviation(errors_at(net, chain, config, n, pi_hat), true)
        for eps in config.eps_list:
            exceed = int((devs > eps).sum())
            value, valid = bound(eps, n)
            expected.append((n, eps, 10, exceed, exceed / 10, value, valid))
    assert report.rows == expected
    # the one bound below 1e-3 is at the largest n and eps, the last row
    assert report.metadata["low_probability_rows"] == "3"


def test_concentration_rows_match_direct_bounds():
    config = cfg(kind="concentration", n_list=[200, 20000], eps_list=[0.0005, 0.05], **AFFINE)
    report = run_concentration_experiment(config)
    consts = model_constants(config, build_chain(config), build_class(config))
    net_size = report.metadata["net_size"]
    check_exceedance_rows(
        report,
        config,
        lambda emp, true: np.abs(emp - true[:, None]).max(axis=0),
        lambda eps, n: bd.uniform_tail_bound(eps, n, consts, covering_number=net_size),
    )
    assert report.rows[0][3] > 0  # some trial exceeds the smallest eps


def test_relative_rows_match_direct_bounds():
    from chainlearn.hypothesis import build_epsilon_net

    config = cfg(kind="relative", n_list=[200, 5000], eps_list=[0.5, 2.0],
                 m_override=0.01, M_override=0.01, **AFFINE)
    report = run_relative_experiment(config)
    cls = build_class(config)
    consts = model_constants(config, build_chain(config), cls, m=0.01, M=0.01)
    check_exceedance_rows(
        report,
        config,
        lambda emp, true: (np.abs(emp - true[:, None]) / np.sqrt(true)[:, None]).max(axis=0),
        lambda eps, n: bd.relative_tail_bound(
            eps, n, consts, covering_number=len(build_epsilon_net(cls, eps / consts.L_bar))
        ),
    )


def test_scaling_slopes():
    config = cfg(kind="scaling", m_override=1 / 12, M_override=1 / 3, pi_grid=256)
    report = run_scaling_experiment(config)
    assert report.metadata["n1_slope"] == pytest.approx(4.0, rel=0.05)
    assert report.metadata["n3_slope"] == pytest.approx(2.0, rel=0.05)


def test_scaling_slope_with_d_two():
    config = cfg(kind="scaling", m_override=1 / 12, M_override=1 / 3, pi_grid=256,
                 holder_d=2)
    report = run_scaling_experiment(config)
    assert report.metadata["n1_slope"] == pytest.approx(6.0, rel=0.05)


def test_bounds_calculator_report():
    config = cfg(kind="bounds", eps_list=[0.2, 0.4], n_list=[1000, 4000],
                 net_radius=0.1, pi_grid=512)
    report = run_bounds_calculator(config)
    kinds = {r[2] for r in report.rows}
    assert kinds == {"single_h", "uniform", "relative"}
    assert len(report.rows) == 2 * 2 * 3


def test_bounds_calculator_counts_coverings_once_per_eps(monkeypatch):
    import chainlearn.harness as harness

    calls = []

    def counting(cls, radius):
        calls.append(radius)
        return covering_count(cls, radius)

    config = cfg(kind="bounds", eps_list=[0.2, 0.4], n_list=[1000, 2000, 4000],
                 net_radius=0.1, pi_grid=512)
    expected = run_bounds_calculator(config)
    monkeypatch.setattr(harness, "covering_count", counting)
    assert run_bounds_calculator(config) == expected
    # the uniform and the relative radius for each eps, whatever the n grid
    assert len(calls) == 2 * 2


def test_nonfinite_bounds_render_as_strict_json():
    config = cfg(kind="bounds", class_kind="constants", eps_list=[1e-305], n_list=[1000],
                 pi_grid=512)
    report = run_bounds_calculator(config)
    assert math.isinf(report.rows[1][3])  # the uniform bound overflows

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads(render_report(report, "json"), parse_constant=reject)
    json_bounds = [r[3] for r in payload["rows"]]
    assert json_bounds[1:] == ["inf", "inf"]
    csv_rows = render_report(report, "csv").splitlines()[-len(report.rows):]
    csv_bounds = [line.split(",")[3] for line in csv_rows]
    assert [b if isinstance(b, str) else repr(b) for b in json_bounds] == csv_bounds


def test_json_cells_match_csv_for_every_nonfinite_float():
    report = Report({"lo": -math.inf, "bad": math.nan, "ok": 0.5}, ("a", "b"),
                    [(math.inf, 1), (-math.inf, math.nan)])

    def reject(token):
        raise ValueError(token)

    payload = json.loads(render_report(report, "json"), parse_constant=reject)
    assert payload["metadata"] == {"lo": "-inf", "bad": "nan", "ok": 0.5}
    assert payload["rows"] == [["inf", 1], ["-inf", "nan"]]
    csv_text = render_report(report, "csv")
    assert "# bad=nan\n# lo=-inf\n" in csv_text
    assert csv_text.endswith("inf,1\n-inf,nan\n")


def test_poisson_check_report():
    config = cfg(kind="poisson", class_kind="lipschitz", lip_bound=1.0,
                 poisson_grid=16, poisson_rollouts=400, pi_grid=512, master_seed=13)
    report = run_poisson_check(config)
    assert report.metadata["violations"] == 0
    assert report.metadata["norm_ok"] and report.metadata["residual_ok"]
    assert len(report.rows) == 17


def test_lemma_check_reports():
    ok = run_lemma_check(cfg(kind="lemma", lemma_probes=8, master_seed=15))
    assert ok.metadata["passed"] and ok.metadata["violations"] == 0
    bad = run_lemma_check(cfg(kind="lemma", target_name="tent", lemma_probes=8,
                              master_seed=15))
    assert not bad.metadata["passed"]
    assert bad.metadata["worst_violation"] > 0
    assert bad.metadata["violations"] == 1


def test_reports_are_reproducible():
    config = cfg(kind="asem", n=500, replications=5, net_radius=0.25, pi_grid=256,
                 master_seed=21)
    a = render_report(run_asem_experiment(config), "csv")
    b = render_report(run_asem_experiment(config), "csv")
    assert a == b


def test_initial_state_policies():
    from chainlearn.chain import invariant_measure
    from chainlearn.harness import initial_xs

    reps = np.arange(6, dtype=np.uint64)
    base = dict(kind="asem", n=200, replications=6, net_radius=0.25, pi_grid=64,
                master_seed=31)
    chain = build_chain(cfg(**base))
    pi_hat = invariant_measure(chain, 64)

    fixed = initial_xs(cfg(**base, x0_policy="fixed", x0=0.25), pi_hat, reps)
    assert np.all(fixed == 0.25)

    uniform = initial_xs(cfg(**base, x0_policy="uniform"), pi_hat, reps)
    assert len(set(uniform)) == 6
    assert np.array_equal(uniform, initial_xs(cfg(**base, x0_policy="uniform"), pi_hat, reps))

    stationary = initial_xs(cfg(**base, x0_policy="stationary"), pi_hat, reps)
    assert all(x in pi_hat.xs for x in stationary)


def test_experiments_accept_all_policies():
    for policy in ("fixed", "uniform", "stationary"):
        config = cfg(kind="asem", n=300, replications=4, net_radius=0.25,
                     pi_grid=128, master_seed=33, x0_policy=policy)
        out = run_asem_experiment(config)
        assert len(out.rows) == 4


@pytest.mark.parametrize(
    "class_kind, lip, radius", [("constants", 0.0, 0.05), ("lipschitz", 1.0, 0.6)]
)
def test_asem_picks_inside_the_fold(monkeypatch, class_kind, lip, radius):
    import chainlearn.harness as harness
    from chainlearn.chain import invariant_measure
    from chainlearn.hypothesis import build_epsilon_net

    # the fold keeps each replication's pick and its error, two rows, never
    # the (members, replications) errors; they are the argmin of those
    # errors and the element it picks, bit for bit
    config = cfg(kind="asem", n=300, replications=9, class_kind=class_kind, lip_bound=lip,
                 net_radius=radius, x0_policy="uniform", pi_grid=128, opt_refinement=1,
                 master_seed=67)
    kept = []
    fold = harness._batch_empirical_at

    def spy(*args):
        out = fold(*args)
        kept.extend(a.shape for a in out)
        return out

    monkeypatch.setattr(harness, "_batch_empirical_at", spy)
    report = run_asem_experiment(config)
    assert kept == [(2, 9)]

    chain = build_chain(config)
    net = build_epsilon_net(build_class(config), radius)
    assert len(net) > 2
    errors = errors_at(net, chain, config, 300, invariant_measure(chain, 128))
    picks = errors.argmin(axis=0)
    assert [row[1] for row in report.rows] == picks.tolist()
    assert [row[2] for row in report.rows] == errors[picks, range(9)].tolist()


def test_batch_empirical_matches_per_trajectory_learner():
    from chainlearn import rng
    from chainlearn.chain import invariant_measure, simulate_x_blocks
    from chainlearn.harness import initial_xs
    from chainlearn.hypothesis import Hypothesis, build_epsilon_net
    from chainlearn.learner import empirical_error

    for class_kind, lip, radius in (("constants", 0.0, 0.2), ("lipschitz", 1.0, 0.6)):
        # opt_refinement 1: the oracle's net at radius 0.6 / 8 would pass the cap
        config = cfg(kind="asem", n=200, replications=5, net_radius=radius,
                     class_kind=class_kind, lip_bound=lip, pi_grid=128,
                     master_seed=37, opt_refinement=1)
        chain = build_chain(config)
        net = build_epsilon_net(build_class(config), radius)
        pi_hat = invariant_measure(chain, 128)
        batch = errors_at(net, chain, config, 200, pi_hat)
        reps = np.arange(5, dtype=np.uint64)
        stream = rng.derive(config.master_seed, rng.TRAJECTORY)
        blocks = simulate_x_blocks(initial_xs(config, pi_hat, reps), 200, stream, reps)
        xs = np.concatenate(list(blocks), axis=-1)
        for r in range(5):
            ys = np.asarray(chain.space.target(xs[r]), dtype=float)
            for i, v in enumerate(net.values.tolist()):
                assert abs(batch[i, r] - empirical_error(Hypothesis(tuple(v)), xs[r], ys)) <= 1e-12


def test_batch_empirical_independent_of_blocking(monkeypatch):
    import chainlearn.chain as chain_module
    import chainlearn.harness as harness
    from chainlearn.chain import invariant_measure
    from chainlearn.hypothesis import build_epsilon_net

    config = cfg(kind="concentration", replications=7, class_kind="lipschitz",
                 lip_bound=1.0, net_radius=0.6, x0_policy="uniform", master_seed=41)
    chain = build_chain(config)
    net = build_epsilon_net(build_class(config), config.net_radius)
    pi_hat = invariant_measure(chain, 128)
    ref = errors_at(net, chain, config, 300, pi_hat)
    # (replications, steps) per block: harness's budget sets the first
    # through the knot count, the simulator's budget and step block the second
    for rep_block, step_block in ((1, 1), (3, 7), (7, 299), (256, 300), (2, 1000)):
        monkeypatch.setattr(harness, "BUDGET", rep_block * net.knot_count)
        monkeypatch.setattr(chain_module, "BUDGET", rep_block * step_block)
        monkeypatch.setattr(chain_module, "STEP_BLOCK", step_block)
        got = errors_at(net, chain, config, 300, pi_hat)
        assert np.abs(got - ref).max() <= 1e-12


def test_batch_empirical_memory_does_not_grow_with_n():
    import tracemalloc

    from chainlearn.chain import STEP_BLOCK, invariant_measure
    from chainlearn.hypothesis import build_epsilon_net

    config = cfg(kind="concentration", replications=64, class_kind="lipschitz",
                 lip_bound=1.0, net_radius=0.6, master_seed=47)
    chain = build_chain(config)
    net = build_epsilon_net(build_class(config), config.net_radius)
    pi_hat = invariant_measure(chain, 128)
    # sixteen (replications, STEP_BLOCK) blocks of states; the states of
    # all n steps take 100 of them at the larger n
    bound = 16 * config.replications * STEP_BLOCK * 8
    for n in (4 * STEP_BLOCK, 100 * STEP_BLOCK):
        tracemalloc.start()
        try:
            errors_at(net, chain, config, n, pi_hat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (n, peak)


def test_batch_empirical_memory_does_not_grow_with_the_count_of_n(monkeypatch):
    import tracemalloc

    from chainlearn.chain import invariant_measure
    from chainlearn.harness import _batch_empirical_at
    from chainlearn.hypothesis import build_epsilon_net

    # one member over 2001 knots: the moments of 300 replications at one n
    # take 3 x 2001 x 300 cells, past BUDGET, so each part scores them one n
    # at a time and keeps only the errors (holding all four n took 2.7 times
    # the peak).  Run in turn, the parts' peaks do not overlap and four n
    # take the peak of one; on two threads they may overlap, up to twice it.
    parts = 2
    monkeypatch.setattr(parallel, "usable_cpus", lambda: parts)
    config = cfg(kind="concentration", replications=300, class_kind="lipschitz",
                 lip_bound=1.0, y_lo=0.5, y_hi=0.5, net_radius=1e-3, master_seed=3)
    chain = build_chain(config)
    net = build_epsilon_net(build_class(config), config.net_radius)
    pi_hat = invariant_measure(chain, 128)

    def peak(n_values) -> int:
        tracemalloc.start()
        try:
            _batch_empirical_at(net, chain, config, n_values, pi_hat, lambda errors: errors)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    threaded = peak((10, 20, 30, 40))
    with monkeypatch.context() as m:
        m.setattr(parallel, "for_each", lambda work, items: [work(i) for i in items])
        one, four = peak((40,)), peak((10, 20, 30, 40))
    assert four <= 1.15 * one, (one, four)
    assert threaded <= 1.15 * parts * one, (one, threaded)


@pytest.mark.parametrize("bad", [{"n": 0}, {"n": -3}, {"n_list": [100, 0]}])
def test_config_rejects_nonpositive_sample_sizes(bad):
    with pytest.raises(ConfigError, match="at least 1"):
        cfg(kind="concentration", **bad)


def test_report_converts_numpy_scalars():
    report = Report(
        {"ok": np.bool_(True), "count": np.int64(3), "value": np.float64(0.5)},
        ("a", "b"),
        [(np.int32(1), np.bool_(False))],
    )
    assert type(report.metadata["ok"]) is bool
    assert type(report.metadata["count"]) is int
    assert type(report.metadata["value"]) is float
    assert [type(v) for v in report.rows[0]] == [int, bool]
    assert json.loads(render_report(report, "json"))["rows"] == [[1, False]]


@pytest.mark.parametrize("override", ["m_override", "M_override"])
def test_scaling_applies_each_override_alone(override):
    base = run_scaling_experiment(cfg(kind="scaling", pi_grid=256)).metadata
    meta = run_scaling_experiment(cfg(kind="scaling", pi_grid=256, **{override: 0.2})).metadata
    key = override[0]
    other = "M" if key == "m" else "m"
    assert base[key] != 0.2
    assert meta[key] == 0.2
    assert meta[other] == base[other]


def test_batch_empirical_blocks_replications_by_knot_budget(monkeypatch):
    import chainlearn.harness as harness
    from chainlearn.chain import invariant_measure
    from chainlearn.hypothesis import build_epsilon_net

    # one lattice level over 2001 knots: a one-member net with many knots
    config = cfg(kind="concentration", replications=7, class_kind="lipschitz",
                 lip_bound=1.0, y_lo=0.5, y_hi=0.5, net_radius=1e-3,
                 x0_policy="uniform", master_seed=43)
    chain = build_chain(config)
    net = build_epsilon_net(build_class(config), config.net_radius)
    assert net.knot_count == 2001
    pi_hat = invariant_measure(chain, 128)
    ref = errors_at(net, chain, config, 300, pi_hat)

    calls = []
    simulate = harness.simulate_x_blocks

    def spy(x0, n, stream, lanes, *, width):
        calls.append((int(lanes[0]), lanes.size, width))
        return simulate(x0, n, stream, lanes, width=width)

    monkeypatch.setattr(harness, "simulate_x_blocks", spy)
    monkeypatch.setattr(harness, "BUDGET", 3 * 2001 + 5)
    # one part per block on one CPU; two parts of a three-replication block
    # on two, each at the whole block's width
    for cpus, want in ((1, [(0, 3, 512), (3, 3, 512), (6, 1, 512)]),
                       (2, [(0, 1, 512), (1, 2, 512), (3, 1, 512), (4, 2, 512), (6, 1, 512)])):
        calls.clear()
        monkeypatch.setattr(parallel, "usable_cpus", lambda cpus=cpus: cpus)
        got = errors_at(net, chain, config, 300, pi_hat)
        assert sorted(calls) == want
        assert np.abs(got - ref).max() <= 1e-12


@pytest.mark.parametrize(
    "class_kind, lip, radius", [("constants", 0.0, 0.2), ("lipschitz", 1.0, 0.6)]
)
def test_one_pass_fold_matches_a_fold_per_n(monkeypatch, class_kind, lip, radius):
    import chainlearn.chain as chain_module
    import chainlearn.harness as harness
    from chainlearn.chain import invariant_measure
    from chainlearn.hypothesis import build_epsilon_net

    config = cfg(kind="concentration", replications=7, class_kind=class_kind, lip_bound=lip,
                 net_radius=radius, x0_policy="uniform", master_seed=53)
    chain = build_chain(config)
    net = build_epsilon_net(build_class(config), radius)
    pi_hat = invariant_measure(chain, 128)
    # replication blocks of 3, 3 and 1, step blocks of 8: n = 1, 5 inside
    # the first block, 8 and 16 on block ends, 13 and 21 inside later blocks,
    # unsorted and 21 twice
    monkeypatch.setattr(harness, "BUDGET", 3 * net.knot_count)
    monkeypatch.setattr(chain_module, "BUDGET", 3 * 8)
    monkeypatch.setattr(chain_module, "STEP_BLOCK", 8)
    n_values = (21, 1, 13, 5, 16, 21, 8)
    per_n = [errors_at(net, chain, config, n, pi_hat) for n in n_values]

    calls = []
    simulate = harness.simulate_x_blocks

    def spy(x0, n, stream, lanes, *, width):
        calls.append((int(lanes[0]), lanes.size, n, width))
        return simulate(x0, n, stream, lanes, width=width)

    monkeypatch.setattr(harness, "simulate_x_blocks", spy)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    got = harness._batch_empirical_at(net, chain, config, n_values, pi_hat, lambda e: e)
    # one call per block for the one-knot net, one per part of a block
    # otherwise, all to the largest n at the width of 3 replications
    if net.knot_count == 1:
        assert calls == [(0, 3, 21, 8), (3, 3, 21, 8), (6, 1, 21, 8)]
    else:
        assert sorted(calls) == [(0, 1, 21, 8), (1, 2, 21, 8), (3, 1, 21, 8), (4, 2, 21, 8),
                                 (6, 1, 21, 8)]
    assert len(got) == len(n_values)
    for n, one_pass, alone in zip(n_values, got, per_n):
        assert np.array_equal(one_pass, alone), n


def test_exceedance_rows_follow_n_list_from_one_pass(monkeypatch):
    import chainlearn.harness as harness
    from chainlearn.chain import invariant_measure
    from chainlearn.hypothesis import build_epsilon_net
    from chainlearn.learner import true_errors

    config = cfg(kind="concentration", n_list=[300, 40, 300, 512], eps_list=[0.0005, 0.05],
                 **AFFINE)
    chain = build_chain(config)
    net = build_epsilon_net(build_class(config), config.net_radius)
    pi_hat = invariant_measure(chain, config.pi_grid)
    true = true_errors(net, pi_hat)
    expected = []
    for n in config.n_list:
        emp = errors_at(net, chain, config, n, pi_hat)
        devs = np.abs(emp - true[:, None]).max(axis=0)
        expected += [(n, eps, 10, int((devs > eps).sum())) for eps in config.eps_list]

    calls = []
    simulate = harness.simulate_x_blocks

    def spy(x0, n, stream, lanes, *, width):
        calls.append((n, width))
        return simulate(x0, n, stream, lanes, width=width)

    monkeypatch.setattr(harness, "simulate_x_blocks", spy)
    report = run_concentration_experiment(config)
    assert calls == [(512, 512)]  # a one-knot net: one call, whatever the CPU count
    assert [r[:4] for r in report.rows] == expected


# a block of 7, 3, 2 or 1 lanes gets 3, 8, 12 or 16 steps, so a part
# simulated at its own default width would show in the calls
SPLIT_WIDTHS = {7: 3, 3: 8, 2: 12, 1: 16}


@pytest.mark.parametrize(
    "class_kind, lip, radius, knots",
    [("constants", 0.0, 0.2, 1), ("lipschitz", 0.2, 0.5, 2), ("lipschitz", 1.0, 0.6, 5)],
)
@pytest.mark.parametrize("replications", [1, 2, 7])
# harness cells per knot: blocks of 3 replications, each folded one n at a
# time; one block of 7 folded three n at a time; the default, one block
# folded to every n at once
@pytest.mark.parametrize("budget", [3, 63, None])
def test_split_blocks_give_the_same_errors_on_any_cpu_count(
    monkeypatch, class_kind, lip, radius, knots, replications, budget
):
    import chainlearn.chain as chain_module
    import chainlearn.harness as harness
    from chainlearn.chain import invariant_measure
    from chainlearn.hypothesis import build_epsilon_net

    config = cfg(kind="concentration", replications=replications, class_kind=class_kind,
                 lip_bound=lip, net_radius=radius, x0_policy="uniform", master_seed=59)
    chain = build_chain(config)
    net = build_epsilon_net(build_class(config), radius)
    assert net.knot_count == knots
    pi_hat = invariant_measure(chain, 128)
    rep_block = 3 if budget == 3 else replications
    if budget is not None:
        monkeypatch.setattr(harness, "BUDGET", budget * knots)
    monkeypatch.setattr(chain_module, "BUDGET", 24)
    monkeypatch.setattr(chain_module, "STEP_BLOCK", 16)
    # n = 8, 16 and 24 end blocks of 8 steps, 12 and 24 blocks of 12, 16 a
    # block of 16, and 12, 21 and 24 blocks of 3; the others fall inside
    n_values = (21, 1, 8, 5, 16, 13, 12, 24)

    calls = []
    simulate = harness.simulate_x_blocks

    def spy(x0, n, stream, lanes, *, width):
        calls.append((int(lanes[0]), lanes.size, n, width))
        return simulate(x0, n, stream, lanes, width=width)

    monkeypatch.setattr(harness, "simulate_x_blocks", spy)
    got = {}
    for cpus in (1, 2, 3, 5):
        calls.clear()
        monkeypatch.setattr(parallel, "usable_cpus", lambda cpus=cpus: cpus)
        got[cpus] = harness._batch_empirical_at(net, chain, config, n_values, pi_hat, lambda e: e)
        calls.sort()
        for lo in range(0, replications, rep_block):
            size = min(rep_block, replications - lo)
            block = [c for c in calls if lo <= c[0] < lo + size]
            # one call per block for a one-knot net, else one per CPU while
            # each has a replication; contiguous parts within one of each
            # other's size, each to the largest n at the whole block's width
            assert len(block) == (1 if knots == 1 else min(cpus, size))
            assert [c[0] for c in block] == list(itertools.accumulate(
                [lo] + [c[1] for c in block[:-1]]))
            assert sum(c[1] for c in block) == size
            assert max(c[1] for c in block) - min(c[1] for c in block) <= 1
            assert {c[2:] for c in block} == {(24, SPLIT_WIDTHS[size])}
        assert len(calls) == sum(
            1 if knots == 1 else min(cpus, rep_block, replications - lo)
            for lo in range(0, replications, rep_block)
        )
    for cpus in (2, 3, 5):
        for n, split, whole in zip(n_values, got[cpus], got[1]):
            assert np.array_equal(split, whole), (cpus, n)


def test_split_fold_with_more_workers_than_cores_and_fast_switching(monkeypatch):
    import sys

    import chainlearn.harness as harness
    from chainlearn.chain import invariant_measure
    from chainlearn.hypothesis import build_epsilon_net

    # seven one-replication parts on eight workers (blocks of 7 under a
    # harness budget of 7 x 5 cells), each scored at every n: a part folded
    # twice, skipped or joined out of order would change its column
    config = cfg(kind="concentration", replications=7, class_kind="lipschitz", lip_bound=1.0,
                 net_radius=0.6, x0_policy="uniform", master_seed=61)
    chain = build_chain(config)
    net = build_epsilon_net(build_class(config), config.net_radius)
    pi_hat = invariant_measure(chain, 128)
    n_values = (50, 700, 1200)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    want = harness._batch_empirical_at(net, chain, config, n_values, pi_hat, lambda e: e)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
    monkeypatch.setattr(harness, "BUDGET", 7 * net.knot_count)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = harness._batch_empirical_at(net, chain, config, n_values, pi_hat, lambda e: e)
            assert all(map(np.array_equal, got, want))
    finally:
        sys.setswitchinterval(interval)


# numeric fields with no range of their own: the class range, Lipschitz
# bound and anchor are checked against each other by the class, and h against
# the class range for the Poisson check
UNBOUNDED = {"y_lo", "y_hi", "lip_bound", "anchor", "poisson_h_const"}


def test_every_numeric_field_has_a_range_or_is_listed_unbounded():
    from dataclasses import fields

    numeric = {f.name for f in fields(ExperimentConfig) if "int" in f.type or "float" in f.type}
    ranged = {f.name for f in fields(ExperimentConfig) if "range" in f.metadata}
    assert numeric - ranged == UNBOUNDED


_POSITIVE = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)
_VALID = st.fixed_dictionaries(
    {"kind": st.sampled_from(sorted(RUNNERS))},
    optional={
        "x0_policy": st.sampled_from(["fixed", "uniform", "stationary"]),
        "x0": st.floats(0.0, 1.0),
        "y_lo": st.floats(-5.0, 0.0),
        "y_hi": st.floats(1.0, 5.0),
        "net_radius": _POSITIVE,
        "master_seed": st.integers(0, 2**64 - 1),
        "replications": st.integers(1, 10**6),
        "pi_grid": st.integers(2, 10**6),
        "n_list": st.lists(st.integers(1, 10**9), max_size=4),
        "eps": _POSITIVE,
        # kind scaling needs two distinct values, if any
        "eps_list": st.lists(_POSITIVE, max_size=4).filter(lambda v: len(set(v)) != 1),
        "delta": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        "alpha": _POSITIVE,
        "decay_n_max": st.integers(1, 12),
        "eta_override": st.none() | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        "c1_override": st.none() | _POSITIVE,
        "M_override": st.none() | _POSITIVE,
        "poisson_h_const": st.floats(0.0, 1.0),
        "truncation_tol": _POSITIVE,
        "holder_c": _POSITIVE | st.integers(1, 100),
        "holder_gamma": st.floats(0.0, 1.0, exclude_min=True),
        "lemma_tolerance": st.floats(0.0, 1.0),
    },
)
# the class fields, which must agree with each other: constants have
# lip_bound 0, the Lipschitz classes a positive one, and an anchored class an
# anchor inside [0, 1] x [y_lo, y_hi] (every y range drawn above holds [0, 1])
_LIP = st.floats(0.0, 5.0, exclude_min=True)
_ANCHOR = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)
_CLASS = st.one_of(
    st.fixed_dictionaries(
        {}, optional={"class_kind": st.just("constants"), "lip_bound": st.just(0.0)}
    ),
    st.fixed_dictionaries({"class_kind": st.just("lipschitz"), "lip_bound": _LIP}),
    st.fixed_dictionaries(
        {"class_kind": st.just("lipschitz_anchored"), "lip_bound": _LIP, "anchor": _ANCHOR}
    ),
)
# a target and the parameters it takes; an affine slope stays below sqrt(3)
_TARGET = st.one_of(
    st.fixed_dictionaries({}, optional={"target_name": st.sampled_from(["identity", "tent"])}),
    st.fixed_dictionaries(
        {"target_name": st.just("affine")},
        optional={"target_params": st.fixed_dictionaries(
            {}, optional={"a": st.floats(-1.7, 1.7), "b": st.floats(-2, 2)})},
    ),
    st.fixed_dictionaries(
        {"target_name": st.just("constant")},
        optional={"target_params": st.fixed_dictionaries({}, optional={"c": st.floats(-2, 2)})},
    ),
)


def _nets_fit(raw: dict) -> bool:
    """Whether the nets a run of the config builds fit the member cap, which
    the loader checks; any other load error propagates."""
    try:
        cfg(**raw)
    except ConfigError as exc:
        if "would have more than" in str(exc) or "too many lattice points" in str(exc):
            return False
        raise
    return True


_VALID = st.builds(lambda *parts: {k: v for p in parts for k, v in p.items()},
                   _VALID, _CLASS, _TARGET).filter(_nets_fit)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(raw=_VALID)
def test_config_round_trips_with_its_digest(raw):
    config = cfg(**raw)
    fields = dataclasses.asdict(config)
    for again in (cfg(**fields), cfg(**json.loads(json.dumps(fields)))):
        assert again == config
        assert again.digest() == config.digest()


def _count_builds(monkeypatch):
    import chainlearn.harness as harness

    counts = {}
    for name in ("build_chain", "build_epsilon_net", "invariant_measure"):
        def counted(*args, _name=name, _real=getattr(harness, name)):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(harness, name, counted)
    return counts


@pytest.mark.parametrize("run", [run_bounds_calculator, run_scaling_experiment])
def test_runs_with_both_overrides_build_no_measure_and_no_net(monkeypatch, run):
    counts = _count_builds(monkeypatch)
    report = run(cfg(kind="bounds", m_override=1 / 12, M_override=1 / 3))
    assert (report.metadata["m"], report.metadata["M"]) == (1 / 12, 1 / 3)
    assert counts == {"build_chain": 1}


@pytest.mark.parametrize(
    "run", [run_concentration_experiment, run_asem_experiment, run_relative_experiment]
)
def test_monte_carlo_runs_build_chain_net_and_measure_once(monkeypatch, run):
    counts = _count_builds(monkeypatch)
    run(cfg(kind="asem", n_list=[50, 80], n=50, replications=3, net_radius=0.25, pi_grid=64))
    assert counts == {"build_chain": 1, "build_epsilon_net": 1, "invariant_measure": 1}


_SMALL = dict(n=50, replications=2, net_radius=0.25, pi_grid=64, pair_count=10, decay_n_max=2,
              decay_grid=128, poisson_grid=4, poisson_rollouts=10, lemma_probes=2)
_BOTH_ENDS = dict(m_override=1 / 12, M_override=1 / 3)


@pytest.mark.parametrize(
    "kind, extra",
    [(kind, {}) for kind in sorted(RUNNERS)]
    + [("asem", {"opt_refinement": 1}), ("scaling", _BOTH_ENDS), ("bounds", _BOTH_ENDS)],
    ids=sorted(RUNNERS) + ["asem-refinement-1", "scaling-both-ends", "bounds-both-ends"],
)
def test_load_time_count_covers_the_nets_a_run_builds(monkeypatch, kind, extra):
    import chainlearn.harness as harness
    import chainlearn.learner as learner

    radii = []

    def recorded(cls, eps, _real=harness.build_epsilon_net):
        radii.append(eps)
        return _real(cls, eps)

    for module in (harness, learner):
        monkeypatch.setattr(module, "build_epsilon_net", recorded)
    config = cfg(kind=kind, **_SMALL, **extra)
    RUNNERS[kind](config)
    assert sorted(radii) == sorted(config.net_radii())
