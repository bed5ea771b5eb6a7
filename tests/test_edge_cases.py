from __future__ import annotations

import pickle

from richflow import (
    Multigraph,
    is_rich_flow_admissible,
    rich_mod_flow,
    synthesize_rich_flow,
    validate_circuit_chain,
)
from richflow import errors
from richflow.cli import run
from richflow.multigraph import _chain_via_backtracking

from conftest import CORPUS, load


def test_single_vertex_graph_is_degenerate_but_safe():
    g = Multigraph(1, [])
    assert is_rich_flow_admissible(g).admissible
    cert = synthesize_rich_flow(g)
    assert cert.max_abs == 0
    res = rich_mod_flow(g)
    assert res.chains == ()


def test_two_parallel_edges_rejected():
    g = Multigraph(2, [(0, 1), (0, 1)])
    v = is_rich_flow_admissible(g)
    assert not v.admissible and v.cut_pair == (0, 1)


def test_chain_backtracking_fallback_agrees(bowtie):
    ch = _chain_via_backtracking(bowtie, 0, 4)
    assert ch is not None and validate_circuit_chain(bowtie, ch, (0, 4))
    c4 = load("c4")
    ch2 = _chain_via_backtracking(c4, 0, 2)
    assert ch2 is not None and validate_circuit_chain(c4, ch2, (0, 2))
    k4 = load("k4")
    ch3 = _chain_via_backtracking(k4, 1, 2)
    assert ch3 is not None and validate_circuit_chain(k4, ch3, (1, 2))


def test_time_limit_env_validation(monkeypatch, capsys):
    monkeypatch.setenv("RICHFLOW_TIME_LIMIT_S", "banana")
    assert run(["exact", str(CORPUS / "t3.graph"), "--kmax", "4"]) == 2
    monkeypatch.setenv("RICHFLOW_TIME_LIMIT_S", "-3")
    assert run(["exact", str(CORPUS / "t3.graph"), "--kmax", "4"]) == 2
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
