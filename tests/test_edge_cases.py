from __future__ import annotations

import inspect
import pickle

import richflow
from richflow import Multigraph, is_rich_flow_admissible, rich_mod_flow, synthesize_rich_flow
from richflow import errors
from richflow.multigraph import find_circuit_chain, validate_circuit_chain
from richflow.cli import run

from conftest import ADMISSIBLE_NAMES, CORPUS, load
from reference_chain import chain_via_backtracking


def test_single_vertex_graph_is_degenerate_but_safe():
    g = Multigraph(1, [])
    assert is_rich_flow_admissible(g).admissible
    cert = synthesize_rich_flow(g)
    assert cert.max_abs == 0
    res = rich_mod_flow(g)
    assert res.chains == ()


def test_readme_entry_points_are_the_package_functions():
    """README's "Library entry points" block runs as written, and names
    every function the package exports; the rest are types and errors."""
    readme = (CORPUS.parent / "README.md").read_text()
    block = readme.split("## Library entry points", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    names: dict = {}
    exec(block, names)
    documented = {name for name in names if not name.startswith("__")}
    exported = {name for name, value in vars(richflow).items() if inspect.isfunction(value)}
    assert documented == exported
    for name, value in vars(richflow).items():
        if not name.startswith("_") and not inspect.ismodule(value):
            assert name in documented or isinstance(value, type), name


def test_two_parallel_edges_rejected():
    g = Multigraph(2, [(0, 1), (0, 1)])
    v = is_rich_flow_admissible(g)
    assert not v.admissible and v.cut_pair == (0, 1)


def test_chain_backtracking_fallback_agrees(bowtie):
    for g, ends in ((bowtie, (0, 4)), (load("c4"), (0, 2)), (load("k4"), (1, 2))):
        reference = chain_via_backtracking(g, *ends)
        assert reference is not None and validate_circuit_chain(g, reference, ends)
        assert validate_circuit_chain(g, find_circuit_chain(g, *ends), ends)
    # With no fallback, a miss would raise InternalDefectError.
    for name in ADMISSIBLE_NAMES:
        g = load(name)
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                assert validate_circuit_chain(g, find_circuit_chain(g, u, v), (u, v))


def test_time_limit_env_validation(monkeypatch, capsys):
    # A NaN or infinite limit would leave every oracle deadline unreachable.
    for raw in ("banana", "-3", "nan", "inf", "-inf"):
        monkeypatch.setenv("RICHFLOW_TIME_LIMIT_S", raw)
        assert run(["exact", str(CORPUS / "t3.graph"), "--kmax", "4"]) == 2, raw
    assert "must be finite" in capsys.readouterr().err
    monkeypatch.setenv("RICHFLOW_TIME_LIMIT_S", "30")
    assert run(["exact", str(CORPUS / "t3.graph"), "--kmax", "4"]) == 0


def test_internal_defect_exit_code(monkeypatch, capsys):
    import richflow.cli as cli
    from richflow.errors import InternalDefectError

    def boom(_):
        raise InternalDefectError("synthetic")

    monkeypatch.setattr(cli, "synthesize_rich_flow", boom)
    assert run(["synth", str(CORPUS / "k4.graph"), "-o", "/tmp/defect.json"]) == 3


def test_every_error_type_survives_pickling():
    verdict = is_rich_flow_admissible(load("c4"))
    types = [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    ]
    assert len(types) == 5
    for cls in types:
        exc = cls(verdict) if cls is errors.AdmissibilityError else cls(f"{cls.__name__} text")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert getattr(back, "verdict", None) == getattr(exc, "verdict", None)
