"""Command-line front door: admissibility checks, synthesis, verification,
exact search, and batch reporting over a directory of graph files.

Exit codes: 0 success, 1 not admissible (or failed verification), 2 parse or
usage error or an unreadable input or unwritable output path, 3 internal
invariant violation or any other unexpected error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import traceback
from collections.abc import Iterator
from pathlib import Path
from typing import NoReturn

from .errors import (
    AdmissibilityError,
    BudgetExhaustedError,
    GraphInputError,
    InternalDefectError,
    PreconditionError,
)
from .flowalg import GroupTag, read_flow_json, rich_report, verify_flow, write_flow_json
from .multigraph import (
    Multigraph,
    is_rich_flow_admissible,
    parse_multigraph,
)
from .oracle import SearchBudget, brute_force_flow, chromatic_index, exact_rich_flow_number
from .synthesis import synthesize_rich_flow

BATCH_COLUMNS = [
    "graph_path",
    "n",
    "m",
    "delta",
    "admissible",
    "chi_prime",
    "exact_R",
    "synth_bound",
    "synth_max_abs",
    "conj1_bound",
    "conj2_applicable",
    "conj2_bound",
    "status",
    "elapsed_ms",
]

# Seconds of its own rows after which `batch` forks its helper processes.
# Forking one child that finds no row left and joining it took 2.4 ms (median
# of 50; 18 ms for the first, which also imports multiprocessing) in a
# 51 MB process on a 2-vCPU Linux host, and the child then contends with the
# parent for the CPUs. A 24-row directory of small graphs takes about 17 ms
# in all, so it runs here alone; a fork after 0.1 s of rows costs a few
# percent of the work it follows, a fifth at a process's first fork.
FORK_AFTER_S = 0.1


def _time_limit() -> float:
    """RICHFLOW_TIME_LIMIT_S as a number; `SearchBudget` refuses it unless it
    is finite and positive."""
    raw = os.environ.get("RICHFLOW_TIME_LIMIT_S", "60")
    try:
        return float(raw)
    except ValueError:
        raise GraphInputError(f"RICHFLOW_TIME_LIMIT_S is not a number: {raw!r}")


def _load_graph(path: str) -> Multigraph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GraphInputError(f"cannot read {path}: {exc}") from exc
    return parse_multigraph(text)


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    verdict = is_rich_flow_admissible(g)
    print(verdict.describe())
    return 0 if verdict.admissible else 1


def _cmd_synth(args) -> int:
    g = _load_graph(args.graph)
    cert = synthesize_rich_flow(g)
    try:
        Path(args.out).write_text(write_flow_json(cert.flow))
    except OSError as exc:
        raise GraphInputError(f"cannot write {args.out}: {exc}") from exc
    if args.trace:
        for entry in cert.traces:
            print(json.dumps(entry, sort_keys=True))
    print(f"bound = {cert.bound}")
    print(f"max_abs = {cert.max_abs}")
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    try:
        text = Path(args.flow).read_text()
    except OSError as exc:
        raise GraphInputError(f"cannot read {args.flow}: {exc}") from exc
    flow = read_flow_json(text, g)
    results: list[tuple[str, bool]] = []
    if flow.group.kind == "int":
        checks = rich_report(g, flow)
        results.append(("conserved", checks.conserved))
        results.append(("nowhere_zero", checks.nowhere_zero))
        results.append(("bound_ok", checks.bound_ok))
        results.append(("adjacent_abs_distinct", checks.adjacent_abs_distinct))
    else:
        rep = verify_flow(g, flow)
        results.append(("conserved", rep.conserved))
        results.append(("nowhere_zero", rep.nowhere_zero))
    for name, ok in results:
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in results) else 1


def _cmd_exact(args) -> int:
    g = _load_graph(args.graph)
    budget = SearchBudget(
        k_max=args.kmax, node_limit=args.node_limit, time_limit=_time_limit()
    )
    verdict = is_rich_flow_admissible(g)
    result = exact_rich_flow_number(g, budget, verdict=verdict)
    if result.value is None and result.status == "exact":
        # The oracle's only exact empty answer: g is not admissible.
        print(verdict.describe())
        print("R = none")
        return 1
    if result.value is None:
        print(f"R = unknown (budget exhausted up to k_max={args.kmax})")
        return 0
    print(f"R = {result.value}")
    return 0


def _parse_group(spec: str) -> GroupTag:
    if spec == "z2":
        return GroupTag.z2()
    if spec == "z6":
        return GroupTag.z6()
    if spec.startswith("zk:"):
        try:
            k = int(spec[3:])
        except ValueError as exc:
            raise GraphInputError(f"bad group spec {spec!r}") from exc
        try:
            return GroupTag.zk(k)
        except PreconditionError as exc:
            raise GraphInputError(str(exc)) from exc
    raise GraphInputError(f"unknown group {spec!r} (expected z2, z6 or zk:<k>)")


def _cmd_oracle_nz(args) -> int:
    g = _load_graph(args.graph)
    group = _parse_group(args.group)
    budget = SearchBudget(time_limit=_time_limit())
    try:
        flow = brute_force_flow(g, group, budget=budget)
    except BudgetExhaustedError:
        print("search budget exhausted; existence undecided")
        return 0
    if flow is None:
        print("no nowhere-zero flow exists over this group")
        return 1
    print(write_flow_json(flow), end="")
    return 0


def _conj1_bound(delta: int) -> int:
    return (3 * delta) // 2 + 1


def _batch_row(name: str, g: Multigraph, parse_s: float = 0.0) -> dict[str, str]:
    """The CSV row of one parsed graph. It depends only on its arguments, so it
    is the same in a worker process; elapsed_ms counts parse_s plus this call."""
    start = time.perf_counter()
    row = {col: "" for col in BATCH_COLUMNS}
    row["graph_path"] = name
    status: list[str] = []
    delta = g.max_degree()
    row["n"] = str(g.vertex_count)
    row["m"] = str(g.edge_count)
    row["delta"] = str(delta)
    verdict = is_rich_flow_admissible(g)
    row["admissible"] = "true" if verdict.admissible else "false"
    budget = SearchBudget(k_max=8, node_limit=200_000, time_limit=_time_limit())
    chi = chromatic_index(g, budget)
    row["chi_prime"] = "" if chi.value is None else str(chi.value)
    if chi.value is None:
        status.append("chi_exhausted")
    exact_value: int | None = None
    if verdict.admissible:
        exact = exact_rich_flow_number(g, budget, chi_prime=chi.value, verdict=verdict)
        exact_value = exact.value
        row["exact_R"] = "" if exact.value is None else str(exact.value)
        if exact.value is None:
            status.append("R_exhausted")
        cert = synthesize_rich_flow(g, verdict=verdict)
        row["synth_bound"] = str(cert.bound)
        row["synth_max_abs"] = str(cert.max_abs)
        if delta >= 5:
            row["conj1_bound"] = str(_conj1_bound(delta))
            if exact_value is not None and exact_value > _conj1_bound(delta):
                status.append("conj1_violated")
        three_connected = not verdict.two_cuts
        row["conj2_applicable"] = "true" if three_connected else "false"
        if three_connected:
            row["conj2_bound"] = str(delta + 3)
            if exact_value is not None and exact_value > delta + 3:
                status.append("conj2_violated")
        status.insert(0, "ok")
    else:
        status.insert(0, "not_admissible")
    row["status"] = ";".join(status)
    row["elapsed_ms"] = str(int((parse_s + time.perf_counter() - start) * 1000))
    return row


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _claimed(graphs: list, counter) -> Iterator[tuple]:
    """The graphs that no process sharing `counter` has claimed yet, in order."""
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        if index >= len(graphs):
            return
        yield graphs[index]


def _child_rows(graphs: list, counter, write_fd: int) -> NoReturn:
    """A forked child's whole life: claim and compute rows, then send them, or
    the exception that stopped them, as one pickle down `write_fd`. It leaves by
    os._exit, so it never flushes the parent's stdio or runs its exit hooks."""
    import pickle

    code = 1
    try:
        try:
            result = ("rows", [_batch_row(*item) for item in _claimed(graphs, counter)])
        except BaseException as exc:  # re-raised in the parent
            try:
                pickle.loads(pickle.dumps(exc))
                result = ("error", exc)
            except Exception:
                result = ("defect", f"batch worker raised {exc!r}")
        with open(write_fd, "wb") as pipe:
            pickle.dump(result, pipe)
        code = 0
    finally:
        os._exit(code)


def _rows_forked(graphs: list, workers: int) -> list[dict[str, str]]:
    """The rows of `graphs`. This process computes them, most edges first,
    alone until its rows have run for FORK_AFTER_S; if two or more are left
    then, it forks `workers` - 1 children, which inherit the parsed graphs, so
    nothing is pickled on the way in. From then on each process claims the
    next unclaimed graph from a shared counter, which starts where this
    process stopped, until none is left."""
    # Most edges first: a row's cost grows with m, so the last rows to be
    # claimed are small ones.
    graphs = sorted(graphs, key=lambda item: item[1].edge_count, reverse=True)
    rows = []
    start = time.perf_counter()
    while len(rows) < len(graphs) and (
        len(graphs) - len(rows) < 2 or time.perf_counter() - start < FORK_AFTER_S
    ):
        rows.append(_batch_row(*graphs[len(rows)]))
    if len(rows) == len(graphs):
        return rows
    # Imported here, so that the other commands, the library and a batch that
    # never forks do not load them.
    import multiprocessing
    import pickle
    import signal

    counter = multiprocessing.get_context("fork").Value("i", len(rows))
    children: dict[int, int] = {}  # pid -> read end of its result pipe
    results, statuses = [], {}
    try:
        for _ in range(workers - 1):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _child_rows(graphs, counter, write_fd)
            os.close(write_fd)
            children[pid] = read_fd
        rows += [_batch_row(*item) for item in _claimed(graphs, counter)]
        for pid, read_fd in children.items():
            with open(read_fd, "rb", closefd=False) as pipe:
                results.append((pid, pipe.read()))
    finally:
        # On an error, a deadline or an interrupt no row keeps running, and on
        # every exit each child is reaped. A child that has sent its rows is
        # exiting anyway.
        for pid, read_fd in children.items():
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            statuses[pid] = os.waitpid(pid, 0)[1]
    for pid, data in results:
        try:
            kind, payload = pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):
            code = os.waitstatus_to_exitcode(statuses[pid])
            raise InternalDefectError(
                f"batch worker {pid} ended without a result (exit status {code})"
            ) from None
        if kind == "error":
            raise payload
        if kind == "defect":
            raise InternalDefectError(payload)
        rows += payload
    return rows


def _cmd_batch(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise GraphInputError(f"not a directory: {directory}")
    paths = sorted(directory.glob("*.graph"))
    # Files are parsed here, so parse errors never reach a child process.
    rows, graphs = [], []
    for path in paths:
        start = time.perf_counter()
        try:
            g = parse_multigraph(path.read_text())
        except (GraphInputError, OSError) as exc:
            row = {col: "" for col in BATCH_COLUMNS}
            row["graph_path"] = path.name
            row["status"] = f"parse_error: {exc}"
            row["elapsed_ms"] = str(int((time.perf_counter() - start) * 1000))
            rows.append(row)
        else:
            graphs.append((path.name, g, time.perf_counter() - start))
    workers = min(args.jobs, len(graphs), _usable_cpus())
    # Processes, not threads: rows are pure Python and hold the interpreter
    # lock, and a thread pool ran --jobs 2 at 0.81x the rows/s of --jobs 1 on
    # 2 CPUs. Forked lazily: this process computes rows, most edges first,
    # and forks workers - 1 children only once its rows have run for
    # FORK_AFTER_S with two or more rows left, since forking and joining cost
    # more than a small directory's rows. From then on all of them claim rows
    # one at a time, and every child is killed if still running and reaped
    # on any exit. Not spawned: spawned workers import everything afresh.
    # Not a ProcessPoolExecutor: it cost about a third of a 24-row directory
    # at --jobs 2 while this process sat idle. This command starts no threads
    # before it forks. Without os.fork the rows run here, one by one.
    if workers > 1 and hasattr(os, "fork"):
        rows += _rows_forked(graphs, workers)
    else:
        rows += [_batch_row(*item) for item in graphs]
    rows.sort(key=lambda r: r["graph_path"])
    try:
        with open(args.report, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=BATCH_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        raise GraphInputError(f"cannot write {args.report}: {exc}") from exc
    print(f"wrote {len(rows)} rows to {args.report}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="richflow",
        description="Rich nowhere-zero flows: synthesis, verification, exact search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="print the rich-flow-admissibility verdict")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("synth", help="synthesize and write a rich flow certificate")
    p.add_argument("graph")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--trace", action="store_true", help="dump tower and value choices as JSON lines")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", help="re-check a flow certificate against a graph")
    p.add_argument("graph")
    p.add_argument("flow")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("exact", help="exact rich flow number by brute force")
    p.add_argument("graph")
    p.add_argument("--kmax", type=int, default=16)
    p.add_argument("--node-limit", type=int, default=5_000_000)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("oracle-nz", help="exhaustive nowhere-zero flow search")
    p.add_argument("graph")
    p.add_argument("--group", required=True, help="z2 | z6 | zk:<odd k>")
    p.set_defaults(func=_cmd_oracle_nz)

    p = sub.add_parser("batch", help="process every *.graph file in a directory")
    p.add_argument("directory")
    p.add_argument("--report", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_batch)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "jobs", 1) is not None and getattr(args, "jobs", 1) < 1:
            raise GraphInputError("--jobs must be at least 1")
        if getattr(args, "kmax", 2) < 2:
            raise GraphInputError("--kmax must be at least 2")
        return args.func(args)
    except AdmissibilityError as exc:
        print(exc.verdict.describe())
        return 1
    except (GraphInputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalDefectError as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # Exit code 1 means "not admissible", so no other failure may reach it.
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
