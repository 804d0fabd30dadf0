"""``src/sre_purity`` holds only what a command runs or a test compares against.

Walking the package's syntax trees from ``cli.main``, a top-level definition
is reached when a reached definition names it, as a bare name or as an
attribute.  Names are not resolved to modules, so a name two modules share
reaches both: the walk can only miss dead code, never report live code as
dead.  Every public top-level function or class must be reached, or be
listed below with the test that uses it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sre_purity"

# name -> a test that uses it
TEST_ONLY = {
    # references the product paths are compared against
    "swap_test_circuit_p0": "test_pipeline.py::_circuit_gamma",
    "hadamard_layer": "test_channels.py::_coherent_circuit",
    "controlled_pauli_power": "test_channels.py::_coherent_circuit",
    "incoherent_sample": "test_channels.py::test_incoherent_pair_overlap_mean_is_a_alpha_over_d",
    "state_overlap": "test_channels.py::test_incoherent_pair_overlap_mean_is_a_alpha_over_d",
    # fixtures that build test inputs
    "apply_pauli": "test_pipeline.py::_circuit_gamma",
    "pure_density": "test_states.py::test_partial_trace_bell_is_maximally_mixed",
}


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _definitions() -> tuple[dict[str, set[str]], set[str]]:
    """(name -> names its top-level statements use, public functions and classes)."""
    uses: dict[str, set[str]] = {}
    public = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
                if not node.name.startswith("_"):
                    public.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in defined:
                uses.setdefault(name, set()).update(_names(node))
    return uses, public


def _reached(uses: dict[str, set[str]]) -> set[str]:
    reached, todo = set(), ["main"]
    while todo:
        name = todo.pop()
        if name in uses and name not in reached:
            reached.add(name)
            todo.extend(uses[name])
    return reached


def test_every_public_definition_is_run_by_a_command_or_listed():
    uses, public = _definitions()
    assert "main" in uses and "run_estimation" in public
    unreached = public - _reached(uses)
    # exact, so that an entry goes when a command starts to use its code
    assert unreached == set(TEST_ONLY)


def test_each_listed_definition_is_used_by_its_test():
    for name, test in TEST_ONLY.items():
        filename, function = test.split("::")
        tree = ast.parse((ROOT / "tests" / filename).read_text())
        bodies = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == function]
        assert len(bodies) == 1, test
        assert name in _names(bodies[0]), (name, test)
