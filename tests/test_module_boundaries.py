"""No module of ``aoi`` reaches into another one's private names.

A name with a leading underscore is private to its module; whatever two
modules share goes through a public name, so each module's private code
can change without breaking another.
"""

import ast
from abc import ABC
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

from aoi import distributions

SRC = Path(__file__).resolve().parent.parent / "src" / "aoi"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_crossings(source: str, own: str) -> list[str]:
    """Every ``from <aoi module> import _name`` and every ``module._name``
    read, where the module is another ``aoi`` module, in ``source`` (the
    text of module ``own``)."""
    modules = {}  # local name -> aoi module it is bound to
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            package = node.module if node.level == 0 else f"aoi.{node.module or ''}"
            package = package.rstrip(".")
            if package == "aoi":  # from . import analytic
                modules.update((a.asname or a.name, a.name) for a in node.names)
            elif package.startswith("aoi.") and package != f"aoi.{own}":
                found += [f"{own}: from {package} import {a.name}"
                          for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Import):
            modules.update((a.asname, a.name.split(".")[1]) for a in node.names
                           if a.name.startswith("aoi.") and a.asname)
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and modules.get(node.value.id, own) != own):
            found.append(f"{own}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_private_name_crosses_modules(path):
    assert private_crossings(path.read_text(encoding="utf-8"), path.stem) == []


def test_checker_flags_both_forms():
    source = ("from . import analytic\n"
              "from .analytic import Pair, _head\n"
              "from aoi.sim import _BLOCK\n"
              "from .bounds import _own_helper\n"
              "import aoi.distributions as dist\n"
              "analytic._lattice_solves(1, 2)\n"
              "dist._panel_quad\n"
              "analytic.__doc__\n")
    assert sorted(private_crossings(source, "bounds")) == [
        "bounds: analytic._lattice_solves",
        "bounds: dist._panel_quad",
        "bounds: from aoi.analytic import _head",
        "bounds: from aoi.sim import _BLOCK",
    ]


def _bound(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds, other than imports."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unread_names(source: str, own: str) -> list[str]:
    """Every module-level private name that ``source`` (the text of module
    ``own``) never reads, and, outside ``__init__``, every name it imports
    and never reads: what a deletion leaves behind."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    found = [f"{own}: {name} is never read" for node in tree.body
             for name in _bound(node) if _private(name) and name not in read]
    if own != "__init__":
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                found += [f"{own}: import {a.asname or a.name} is never used"
                          for a in node.names
                          if (a.asname or a.name.split(".")[0]) not in read]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_private_name_or_import_is_left_unread(path):
    assert unread_names(path.read_text(encoding="utf-8"), path.stem) == []


def test_unread_checker_flags_both_kinds():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import numpy as np\n"
              "from .errors import AoiError, DivergentAge\n"
              "_USED = 1\n"
              "_LEFT, _ALSO = 2, 3\n"
              "def _helper():\n"
              "    return np.zeros(_USED)\n"
              "def public():\n"
              "    raise AoiError\n")
    assert sorted(unread_names(source, "bounds")) == [
        "bounds: _ALSO is never read",
        "bounds: _LEFT is never read",
        "bounds: _helper is never read",
        "bounds: import DivergentAge is never used",
        "bounds: import math is never used",
    ]
    assert unread_names("from .errors import AoiError\n", "__init__") == []


# Only the laws know which of them are shifted mixtures of Erlang blocks;
# the rest of ``aoi`` asks a law for its ``phases()``.
PHASE_LAWS = {"Hyperexponential", "Erlang", "ShiftedExponential"}
KNOWS_PHASE_LAWS = {"distributions", "__init__"}


def phase_law_names(source: str, own: str) -> list[str]:
    """Every import, name or attribute in ``source`` (the text of module
    ``own``) that names the hyperexponential, the Erlang or the shifted
    exponential law's class; strings and docstrings do not count."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"{own}: import {a.name}" for a in node.names
                      if a.name.split(".")[-1] in PHASE_LAWS]
        elif isinstance(node, ast.Name) and node.id in PHASE_LAWS:
            found.append(f"{own}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in PHASE_LAWS:
            found.append(f"{own}: .{node.attr}")
    return found


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.stem not in KNOWS_PHASE_LAWS],
                         ids=lambda p: p.stem)
def test_only_the_laws_name_the_phase_law(path):
    assert phase_law_names(path.read_text(encoding="utf-8"), path.stem) == []


def test_phase_law_checker_flags_every_form():
    source = ('"""A Hyperexponential service is a mixture."""\n'
              "from .distributions import (Erlang, Exponential, Hyperexponential,\n"
              "                            ShiftedExponential)\n"
              "from . import distributions as dist\n"
              "label = 'Hyperexponential'\n"
              "def phases(law):\n"
              "    if isinstance(law, Hyperexponential):\n"
              "        return law.weights\n"
              "    if isinstance(law, Erlang):\n"
              "        return dist.Erlang\n"
              "    if isinstance(law, ShiftedExponential):\n"
              "        return law.shift\n"
              "    return dist.Hyperexponential\n"
              "hyperexponential = law.phases()\n")
    assert sorted(phase_law_names(source, "analytic")) == [
        "analytic: .Erlang",
        "analytic: .Hyperexponential",
        "analytic: Erlang",
        "analytic: Hyperexponential",
        "analytic: ShiftedExponential",
        "analytic: import Erlang",
        "analytic: import Hyperexponential",
        "analytic: import ShiftedExponential",
    ]


# A phase law is its shape: the mixture code reads every descriptor and
# the sampler from ``phases()``, so a phase law's class holds its fields,
# its kind, its parameters' domain (the one check in ``Distribution``
# reads it), H2's check that joins its weights and rates, and its shape,
# and what a frozen dataclass on an abstract base makes of that.
@dataclass(frozen=True)
class _Bare(ABC):
    x: float


@pytest.mark.parametrize("name", sorted(PHASE_LAWS | {"Exponential"}))
def test_a_phase_law_defines_only_its_shape(name):
    cls = getattr(distributions, name)
    own = (set(vars(cls)) - set(vars(_Bare))
           - {f.name for f in fields(cls)} - {"kind", "_domain", "_check_joint", "phases"})
    assert own == set()


# Nothing in ``aoi`` integrates: every law gives its terms in closed form,
# so no module defines or reads a quadrature, a density or SciPy.
def integration_names(source: str, own: str) -> list[str]:
    """Every definition, read or import in ``source`` (the text of module
    ``own``) of a name with a word ``expect`` or ``pdf`` or containing
    ``quad`` or ``legendre``, every SciPy import, and every
    ``"quadrature"`` literal; docstrings and other strings do not count."""
    def integrates(name: str) -> bool:
        name = name.lower()
        return (bool({"expect", "pdf"} & set(name.split("_")))
                or "quad" in name or "legendre" in name)

    found = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Import):
            found += [f"{own}: import {a.name}" for a in node.names
                      if a.name.split(".")[0] == "scipy"]
            names = [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "scipy":
                found.append(f"{own}: from {node.module} import")
            names = [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.arg):
            names = [node.arg]
        elif isinstance(node, ast.Constant) and node.value == "quadrature":
            found.append(f"{own}: 'quadrature'")
        found += [f"{own}: {n}" for n in names if integrates(n)]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_integrates(path):
    assert integration_names(path.read_text(encoding="utf-8"), path.stem) == []


def test_integration_checker_flags_every_form():
    source = ('"""Each expect() call takes one quadrature."""\n'
              "import scipy.integrate\n"
              "from scipy import special\n"
              "from .distributions import expect\n"
              "QUAD_REL_TOL = 1e-9\n"
              "def _gauss_legendre(n):\n"
              "    return law.pdf(n)\n"
              "def _erlang_pdf(quad_points):\n"
              "    return 'quadrature'\n"
              "expected_k, k_pmf = 1, 2\n")
    assert sorted(integration_names(source, "analytic")) == [
        "analytic: 'quadrature'",
        "analytic: QUAD_REL_TOL",
        "analytic: _erlang_pdf",
        "analytic: _gauss_legendre",
        "analytic: expect",
        "analytic: from scipy import",
        "analytic: import scipy.integrate",
        "analytic: pdf",
        "analytic: quad_points",
    ]


# The lattice reads a service by its support and ccdf alone: a point
# mass's atom comes from a support of one point, not from a class.
LATTICE = ("_lattice_cycles", "_level_step", "_points", "_ends_ccdf", "_full",
           "_prefix_survival", "_bracket", "_extrapolated")


def service_class_tests(source: str) -> list[str]:
    """Every ``isinstance(service, ...)`` call in ``source``."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and node.args
            and ast.unparse(node.args[0]) == "service"]


def test_the_lattice_tests_no_service_class():
    tree = ast.parse((SRC / "analytic.py").read_text(encoding="utf-8"))
    defined = {node.name: ast.unparse(node) for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    assert set(LATTICE) <= set(defined)
    assert [t for name in LATTICE
            for t in service_class_tests(defined[name])] == []


def test_service_class_checker_flags_a_test():
    source = ("def solved(service, interarrival):\n"
              "    if isinstance(interarrival, Deterministic):\n"
              "        return 1\n"
              "    return not isinstance(service, (Deterministic, Uniform))\n")
    assert service_class_tests(source) == [
        "isinstance(service, (Deterministic, Uniform))"]


# The lattice's tests read its private names only where they hold the
# discrete renewal kernel's units against long-double direct solves, and
# the lattice's last point at time scales no pair reaches; neither
# contract moves with the lattice's step, levels or transforms.  Every
# other test of the lattice reads what a user sees.
LATTICE_TESTS = Path(__file__).resolve().parent / "test_lattice_oracle.py"
PRIMITIVE_TESTS = {"test_renewal_roundoff_bounds_a_direct_solve",
                   "test_untilted_powers_match_long_double_convolution",
                   "test_totals_are_the_long_double_sums",
                   "test_truncation_point_is_the_first_passing_64th_of_an_octave",
                   "test_truncation_point_rescales_with_time"}


def policy_reads(source: str, primitives: set[str]) -> list[str]:
    """Every read of a private ``analytic`` name, by attribute, import or
    dotted string, and every ``setattr`` on ``analytic`` in ``source``,
    with the module-level definition it lies in (``<module>`` outside
    one), outside the definitions named in ``primitives``."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        if owner in primitives:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and (
                    node.module or "").split(".")[-1] == "analytic":
                found += [f"{owner}: from {node.module} import {a.name}"
                          for a in node.names if _private(a.name)]
            elif (isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "analytic"):
                found.append(f"{owner}: analytic.{node.attr}")
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.startswith("aoi.analytic.")
                  and _private(node.value.split(".")[2])):
                found.append(f"{owner}: {node.value!r}")
            elif (isinstance(node, ast.Call)
                  and ast.unparse(node.func).split(".")[-1] == "setattr"
                  and node.args and ast.unparse(node.args[0]) == "analytic"):
                found.append(f"{owner}: {ast.unparse(node.func)}(analytic)")
    return found


def test_lattice_policy_tests_read_no_private_name():
    source = LATTICE_TESTS.read_text(encoding="utf-8")
    defined = {getattr(top, "name", None) for top in ast.parse(source).body}
    assert PRIMITIVE_TESTS <= defined
    assert policy_reads(source, PRIMITIVE_TESTS) == []


def test_policy_read_checker_flags_every_form():
    # Written through {m} so that CI's grep counts only real reads.
    source = ("from aoi import {m}\n"
              "from aoi.{m} import Pair, _points\n"
              "STEP = {m}._LEVEL_STEPS\n"
              "def test_kernel():\n"
              "    return {m}._survival(1, 2)\n"
              "def test_policy(monkeypatch):\n"
              "    monkeypatch.setattr({m}, '_points', None)\n"
              "    monkeypatch.setattr('aoi.{m}._SNAP', 0.0)\n"
              "    setattr({m}, 'x', 1)\n"
              "    return {m}._level_step(1), {m}.__doc__\n"
              "def helper():\n"
              "    return {m}._cells(1), Pair\n").format(m="analytic")
    assert sorted(policy_reads(source, {"test_kernel"})) == [line.format(
        m="analytic") for line in (
        "<module>: {m}._LEVEL_STEPS",
        "<module>: from aoi.{m} import _points",
        "helper: {m}._cells",
        "test_policy: 'aoi.{m}._SNAP'",
        "test_policy: {m}._level_step",
        "test_policy: monkeypatch.setattr({m})",
        "test_policy: setattr({m})")]
