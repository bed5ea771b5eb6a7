"""Mutants of the package that the tier-1 tests must kill.

Each entry names a file under src/, an exact anchor that occurs in it exactly
once, the text that replaces the anchor, and the test node that must fail
once the replacement is made. `tests/test_mutants.py` (tier-1) checks only
that every anchor still occurs exactly once and every target still exists,
so a refactor that moves an anchor must update this list.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py [name ...]

It copies the repository's src/, tests/, corpus/ and perfbench/ into a
temporary directory, runs every target there unmutated (they must pass),
then applies each mutant to a fresh copy and runs its target. It prints one
line per mutant and exits 1 if any survives or cannot be applied. A
surviving mutant is a missing test: add the test, never drop the mutant.
Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "corpus", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    anchor: str
    replacement: str
    target: str  # pytest node id, relative to the repository root


SYNTHESIS = "src/richflow/synthesis.py"
MULTIGRAPH = "src/richflow/multigraph.py"
SEYMOUR = "src/richflow/seymour.py"
TOWER_CHECKS = "tests/test_tower_checks.py"
TEST_SYNTHESIS = "tests/test_synthesis.py"
TEST_MULTIGRAPH = "tests/test_multigraph.py"

MUTANTS = (
    Mutant(
        "stage-keeps-step-edges",
        SYNTHESIS,
        "        stage -= added\n",
        "",
        f"{TOWER_CHECKS}::test_local_checks_match_the_full_reference_on_the_corpus",
    ),
    Mutant(
        "stage-copied-per-step",
        SYNTHESIS,
        "        stage -= added\n",
        "        stage = stage - added\n",
        "tests/test_synthesis.py::test_steps_copy_no_stage_and_lifts_check_in_one_pass",
    ),
    Mutant(
        "forbidden-filter-counts-step-edges",
        SYNTHESIS,
        "if f not in stage and f not in added:",
        "if f not in stage:",
        "tests/test_synthesis.py::test_chord_steps_meet_their_cap",
    ),
    Mutant(
        "frozen-edge-test-skipped",
        SYNTHESIS,
        "            if e not in h_edges and e not in added:\n",
        "            if False:\n",
        f"{TOWER_CHECKS}::test_a_changed_frozen_edge_is_refused",
    ),
    Mutant(
        "pair-forbids-one-value",
        SYNTHESIS,
        "        forbidden.add((s_mov * (xf - x)) % k)\n",
        "",
        f"{TOWER_CHECKS}::test_pair_forbidden_reads_no_orientation",
    ),
    Mutant(
        "forest-walk-sign-flipped",
        "src/richflow/cotree.py",
        "from_head.append((t.id, 1 if t.tail == u else -1))",
        "from_head.append((t.id, -1 if t.tail == u else 1))",
        "tests/test_flowalg.py::test_forest_walk_circuits_match_the_tree_bfs_on_the_corpus",
    ),
    Mutant(
        "stage-conservation-ignores-parity",
        SYNTHESIS,
        "net.items() if x % (2 * k)]",
        "net.items() if x % k]",
        f"{TOWER_CHECKS}::test_a_corrupt_stage_is_refused_like_the_full_check",
    ),
    Mutant(
        "tower-base-check-skipped",
        SYNTHESIS,
        "    if not validate_circuit_chain(g, base):\n",
        "    if False:\n",
        f"{TEST_SYNTHESIS}::test_tower_refuses_a_base_that_is_not_a_circuit_chain",
    ),
    Mutant(
        "split-tie-goes-to-vertex-0",
        SYNTHESIS,
        "tuple(sorted(met)), root == roots[0])",
        "tuple(sorted(met)), root != roots[0])",
        f"{TEST_SYNTHESIS}::test_k4_rings_and_chains_match_golden_digest",
    ),
    Mutant(
        "split-counts-cut-edges-as-inner",
        SYNTHESIS,
        "            else:\n                sides[roots[e.tail]][0] += 1\n",
        "            sides[roots[e.tail]][0] += 1\n",
        f"{TEST_SYNTHESIS}::test_k4_rings_and_chains_match_golden_digest",
    ),
    Mutant(
        "split-class-pass-keeps-class-edges",
        SYNTHESIS,
        "for e in g.edges if e.id not in cut)",
        "for e in g.edges)",
        f"{TEST_SYNTHESIS}::test_split_two_k4",
    ),
    Mutant(
        "block-search-union-dropped",
        MULTIGRAPH,
        "                uf.union(*g.edges[eid].ends)\n",
        "                pass\n",
        "tests/test_multigraph.py::test_attachable_block_two_triangles",
    ),
    Mutant(
        "block-search-keeps-bridges",
        MULTIGRAPH,
        "        if len(grp) > 1:\n",
        "        if True:\n",
        "tests/test_multigraph.py::test_attachable_block_leaves_out_the_bridges_between_blocks",
    ),
    Mutant(
        "chain-search-ignores-edge-subset",
        MULTIGRAPH,
        "usage = _min_two_flow(g, u, v, edge_ids)",
        "usage = _min_two_flow(g, u, v)",
        f"{TEST_SYNTHESIS}::test_chain_search_leaving_an_edge_out_matches_the_copy",
    ),
    Mutant(
        "related-pairs-compare-mod-k",
        SYNTHESIS,
        "    order = 2 * k\n",
        "    order = k\n",
        f"{TOWER_CHECKS}::test_related_pairs_match_pair_relation",
    ),
    Mutant(
        "send-on-drops-parity",
        SYNTHESIS,
        "x = c + k * ((c + parity) & 1)",
        "x = c + k * (c & 1)",
        f"{TOWER_CHECKS}::test_send_on_matches_the_pair_reference",
    ),
    Mutant(
        "two-cut-tree-prune-needs-both",
        MULTIGRAPH,
        "if not (i in tree or j in tree):",
        "if not (i in tree and j in tree):",
        "tests/test_multigraph.py::test_c4_two_cuts_are_all_pairs",
    ),
    Mutant(
        "two-cut-bundle-prune-skips-twins",
        MULTIGRAPH,
        "        elif i in twin:\n",
        "        elif False:\n",
        "tests/test_multigraph.py::test_two_cut_enumeration_edge_cases",
    ),
    Mutant(
        "two-cut-enum-ignores-handed-bridges",
        MULTIGRAPH,
        "bridge_set, tree = _dfs_facts(g) if facts is None else facts\n",
        "bridge_set, tree = _dfs_facts(g) if facts is None else (facts[0], frozenset(), facts[2])\n",
        f"{TEST_MULTIGRAPH}::test_handed_dfs_facts_give_the_one_argument_two_cuts",
    ),
    Mutant(
        "z6-accepts-an-inadmissible-verdict",
        SEYMOUR,
        'connected, bridge = verdict.kind != "disconnected", verdict.bridge',
        "connected, bridge = True, None",
        "tests/test_seymour.py::test_z6_rejects_bridge",
    ),
    Mutant(
        "z6-ignores-handed-bridges",
        SEYMOUR,
        "connected, br, _ = _dfs_facts(g) if facts is None else facts\n",
        "connected, br, _ = _dfs_facts(g) if facts is None else (facts[0], frozenset(), facts[2])\n",
        "tests/test_seymour.py::test_z6_rejects_bridge",
    ),
    Mutant(
        "chain-search-verdict-ignores-two-cuts",
        MULTIGRAPH,
        'verdict.kind not in ("disconnected", "bridge") and not any(',
        'verdict.kind not in ("disconnected", "bridge") or not any(',
        f"{TEST_MULTIGRAPH}::test_chain_search_refuses_evidence_of_a_two_edge_cut_or_a_single_edge_block",
    ),
    Mutant(
        "chain-search-accepts-a-single-edge-block",
        MULTIGRAPH,
        " and all(len(grp) > 1 for grp in blocks)",
        "",
        f"{TEST_MULTIGRAPH}::test_chain_search_refuses_evidence_of_a_two_edge_cut_or_a_single_edge_block",
    ),
    Mutant(
        "chain-search-blocks-need-not-span",
        MULTIGRAPH,
        "spanned >= len(vertices) - 1 and ",
        "",
        f"{TEST_MULTIGRAPH}::test_chain_search_refuses_evidence_of_a_two_edge_cut_or_a_single_edge_block",
    ),
    Mutant(
        "attachable-block-hands-bridges",
        MULTIGRAPH,
        "if len(grp) > 1 and g.edges[min(grp)].tail in blk",
        "if g.edges[min(grp)].tail in blk",
        f"{TEST_MULTIGRAPH}::test_attachable_block_leaves_out_the_bridges_between_blocks",
    ),
    Mutant(
        "near-cuts-drop-virtual",
        SYNTHESIS,
        "    near_id[ea] = near_id[eb] = side1.added_edge\n",
        "",
        f"{TEST_SYNTHESIS}::test_near_cuts_are_the_near_sides_cuts_by_brute_force",
    ),
    Mutant(
        "near-cuts-keep-split-cut",
        SYNTHESIS,
        "if (a, b) != (ea, eb) and a in near_id",
        "if a in near_id",
        f"{TEST_SYNTHESIS}::test_near_cuts_are_the_near_sides_cuts_by_brute_force",
    ),
    Mutant(
        "rich-report-bound-inclusive",
        "src/richflow/flowalg.py",
        "max(size, default=0) < flow.group.bound",
        "max(size, default=0) <= flow.group.bound",
        "tests/test_cli.py::test_verify_reads_the_bound_as_strict",
    ),
    Mutant(
        "lift-conservation-check-skipped",
        "src/richflow/flowalg.py",
        "    if any(net):\n",
        "    if False:\n",
        "tests/test_flowalg.py::test_a_wrong_circulation_fails_the_lift_check",
    ),
)


def copy_tree(dest: Path) -> None:
    for part in COPIED:
        src = ROOT / part
        if src.is_dir():
            shutil.copytree(src, dest / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, dest / part)


def run_pytest(root: Path, targets) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *targets]
    return subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)


def outcome(mutant: Mutant) -> str:
    """'killed' when the target fails on the mutated copy, 'survived' when it
    passes, and 'error: ...' when the mutant cannot be applied or run."""
    with tempfile.TemporaryDirectory(prefix="richflow-mutant-") as tmp:
        root = Path(tmp)
        copy_tree(root)
        path = root / mutant.path
        text = path.read_text()
        if text.count(mutant.anchor) != 1:
            return f"error: anchor occurs {text.count(mutant.anchor)} times"
        path.write_text(text.replace(mutant.anchor, mutant.replacement))
        proc = run_pytest(root, [mutant.target])
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 1:  # pytest: some test failed
        return "killed"
    return f"error: pytest exited {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    if not chosen:
        print(f"no mutant named {argv}; known: {[m.name for m in MUTANTS]}")
        return 2
    with tempfile.TemporaryDirectory(prefix="richflow-mutant-") as tmp:
        copy_tree(Path(tmp))
        clean = run_pytest(Path(tmp), sorted({m.target for m in chosen}))
    if clean.returncode != 0:
        print("the targets fail without a mutant:\n" + clean.stdout)
        return 1
    failed = 0
    for mutant in chosen:
        result = outcome(mutant)
        failed += result != "killed"
        print(f"{result:>9}  {mutant.name}  ({mutant.target})")
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
