"""Every declared exception is raised somewhere and named by a test; bad input
raises a typed one."""
from __future__ import annotations

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import kplab
from kplab import errors
from kplab.branches import Branch, branch_of, check_sign
from kplab.darboux import (OneDimDarboux, _hyperbolic, bump_profile, commutation_parts,
                           identity_report, kink_profile, level_shift_parts,
                           minus_kernel_profile, mode_transfer_parts, sample_points, t1_apply,
                           t1_roundtrip)
from kplab.expsum import Carried, ExpSum, log_derivatives, worst_residual
from kplab.jost import JostFamily
from kplab.solitons import SolitonConfig, asymptotic_profile, frame_of, wronskian_tau
from kplab.tanhexp import PanelGrid, based_cumulative, exp_cumulative

SRC = Path(kplab.__file__).resolve().parent


def _raised_names() -> set[str]:
    names: set[str] = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_declared_error_is_raised():
    declared = {name for name, obj in vars(errors).items()
                if isinstance(obj, type) and issubclass(obj, errors.KplabError)
                and obj is not errors.KplabError}
    assert declared
    assert declared - _raised_names() == set()
    tests = [path.read_text() for path in sorted(Path(__file__).parent.rglob("*.py"))]
    unnamed = {name for name in declared
               if not any(re.search(rf"\b{name}\b", text) for text in tests)}
    assert unnamed == set()


@pytest.mark.parametrize("eta", [1j, np.array([0.3, 1j, -0.4])], ids=["scalar", "array"])
def test_eta_on_the_cut_raises(eta):
    # c + i eta = 0.5 - 1 lies on the negative real axis
    with pytest.raises(errors.BranchCutCrossing):
        Branch(0.0, 0.5).gamma(eta)


def _defined_names(tree: ast.Module) -> list[str]:
    """Functions and classes at any depth, and module-level assigned names."""
    names = [node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        names += [leaf.id for target in targets for leaf in ast.walk(target)
                  if isinstance(leaf, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads."""
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_every_defined_name_is_used():
    """Each name src/kplab defines occurs as a word beyond its definitions,
    and each name a src/kplab module imports is read in that module."""
    repo = SRC.parent.parent
    texts = [path.read_text() for folder in ("src", "tests", "kplabbench")
             for path in sorted((repo / folder).rglob("*.py"))]
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    defined: dict[str, int] = {}
    for tree in trees.values():
        for name in _defined_names(tree):
            defined[name] = defined.get(name, 0) + 1
    assert defined
    unused = sorted(name for name, count in defined.items()
                    if sum(len(re.findall(rf"\b{re.escape(name)}\b", text)) for text in texts) <= count)
    assert unused == []
    unread = [f"{module}.{name}" for module, tree in trees.items()
              for name in _unread_imports(tree)]
    assert unread == []


def _stale_exports(tree: ast.Module) -> list[str]:
    """Strings in the module's __all__ that name nothing bound at its top level."""
    bound: set[str] = set()
    exported: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [leaf.id for target in targets for leaf in ast.walk(target)
                     if isinstance(leaf, ast.Name)]
            bound.update(names)
            if "__all__" in names:
                exported = [elt.value for elt in node.value.elts]
    return [name for name in exported if name not in bound]


def test_every_exported_name_is_defined():
    """Each string in a src/kplab module's __all__ names something that module
    defines, so `from module import *` cannot fail on a stale entry."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert any(isinstance(node, ast.Name) and node.id == "__all__"
               for tree in trees.values() for node in ast.walk(tree))
    stale = [f"{module}.{name}" for module, tree in trees.items()
             for name in _stale_exports(tree)]
    assert stale == []
    assert _stale_exports(ast.parse(
        'import numpy as np\nX = 1\n__all__ = ["np", "X", "f", "Gone"]\ndef f(): pass\n')) == ["Gone"]


def _unread_parameters(tree: ast.Module) -> list[str]:
    """function.parameter for each parameter its function's body never reads."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {leaf.id for stmt in body for leaf in ast.walk(stmt)
                if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}.{param}" for param in params if param not in read]
    return unread


def test_every_parameter_is_read():
    """Each parameter of each src/kplab function is read in that function's
    body, so an option that nothing consults any more cannot linger."""
    unread = [f"{path.stem}.{entry}" for path in sorted(SRC.glob("*.py"))
              for entry in _unread_parameters(ast.parse(path.read_text(), filename=str(path)))]
    assert unread == []


def _callee(node: ast.AST) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _integer_maxsize(dec: ast.AST) -> bool:
    """Whether an `lru_cache` decorator or call gives a literal integer maxsize."""
    if not isinstance(dec, ast.Call):
        return False
    given = [kw.value for kw in dec.keywords if kw.arg == "maxsize"] + dec.args[:1]
    size = given[0].value if given and isinstance(given[0], ast.Constant) else None
    return isinstance(size, int) and not isinstance(size, bool)


def _unbounded_caches(tree: ast.Module) -> list[str]:
    """Functions whose `lru_cache` has no integer maxsize, or whose bare
    `cache` memoizes arguments (one entry per distinct call, never evicted),
    and the wrapped function of each `lru_cache(...)(fn)` call without one."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Call)
                and _callee(node.func.func) == "lru_cache" and not _integer_maxsize(node.func)):
            wrapped = ast.unparse(node.args[0]) if node.args else "?"
            out.append(f"{wrapped}: lru_cache call without an integer maxsize")
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            name = _callee(dec.func if isinstance(dec, ast.Call) else dec)
            if name == "lru_cache" and not _integer_maxsize(dec):
                out.append(f"{node.name}: lru_cache without an integer maxsize")
            elif name == "cache":
                args = node.args
                if args.posonlyargs or args.args or args.kwonlyargs or args.vararg or args.kwarg:
                    out.append(f"{node.name}: cache on a function with arguments")
    return out


def test_every_cache_is_bounded():
    """A cache kept across calls holds a bounded number of entries."""
    unbounded = [f"{path.stem}.{entry}" for path in sorted(SRC.glob("*.py"))
                 for entry in _unbounded_caches(ast.parse(path.read_text(), filename=str(path)))]
    assert unbounded == []
    flagged = _unbounded_caches(ast.parse(
        "@lru_cache(maxsize=None)\ndef a(x): pass\n@lru_cache\ndef b(x): pass\n"
        "@functools.cache\ndef c(x): pass\n@cache\ndef d(): pass\n"
        "@lru_cache(maxsize=64)\ndef e(x): pass\n@lru_cache(8)\ndef f(x): pass\n"
        "g = lru_cache(maxsize=None)(f1)\nh = functools.lru_cache()(self.f2)\n"
        "k = lru_cache(maxsize=64)(f3)\nm = lru_cache(8)(f4)\n"))
    assert [entry.split(":")[0] for entry in flagged] == ["a", "b", "c", "f1", "self.f2"]


def _readers(tree: ast.Module, reads) -> list[str]:
    """The innermost function (or <module>) around each node where `reads` holds."""
    found: list[str] = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if reads(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def _reads_random(node: ast.AST) -> bool:
    """A read of numpy's random module: np.random, numpy.random or an import from it."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.random") or (
            module == "numpy" and any(alias.name == "random" for alias in node.names))
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.random") for alias in node.names)
    return False


def _reads_theta_gens(node: ast.AST) -> bool:
    """A load of theta_gens, bare or as an attribute, or an import of it."""
    if isinstance(node, ast.Name):
        return node.id == "theta_gens" and isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.Attribute):
        return node.attr == "theta_gens" and isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "theta_gens" for alias in node.names)
    return False


def _src_readers(reads) -> list[str]:
    return [f"{path.stem}.{owner}" for path in sorted(SRC.glob("*.py"))
            for owner in _readers(ast.parse(path.read_text(), filename=str(path)), reads)]


def test_only_sample_points_draws():
    """src/kplab draws its sample points in one place, `darboux.sample_points`;
    every identity takes its points from the caller."""
    assert _src_readers(_reads_random) == ["darboux.sample_points"]
    assert _readers(ast.parse(
        "import numpy as np\nfrom numpy import random\nimport numpy.random\n"
        "def f():\n    def g():\n        return np.random.default_rng(0)\n"
        "    return np.linalg\nclass C:\n    def h(self):\n"
        "        from numpy.random import default_rng\n"), _reads_random) == [
            "<module>", "<module>", "g", "h"]


def test_only_wronskian_tau_builds_taus():
    """Every tau is a minor expansion: the phase generators are read in
    src/kplab by `solitons.wronskian_tau` alone."""
    assert _src_readers(_reads_theta_gens) == ["solitons.wronskian_tau"]
    assert _readers(ast.parse(
        "from .solitons import theta_gens\ndef f(k):\n    return theta_gens(k)\n"
        "def g(k):\n    return solitons.theta_gens(k)\ndef theta_gens(k):\n"
        "    theta_gens = k\n"), _reads_theta_gens) == ["<module>", "f", "g"]


def _is_kind(node: ast.AST) -> bool:
    """A read of some object's `.kind`, other than a numpy dtype's."""
    return (isinstance(node, ast.Attribute) and node.attr == "kind"
            and not (isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"))


def _branches_on_kind(node: ast.AST) -> bool:
    """A comparison with a `.kind`, or a lookup keyed by one; a `.kind`
    that only fills an f-string field decides nothing."""
    if isinstance(node, ast.Compare):
        return any(map(_is_kind, (node.left, *node.comparators)))
    return isinstance(node, ast.Subscript) and _is_kind(node.slice)


def test_only_soliton_config_branches_on_kind():
    """The kind of a configuration is resolved into its matching once, in
    `SolitonConfig.__post_init__`; every other reader asks the matching."""
    assert set(_src_readers(_branches_on_kind)) == {"solitons.__post_init__"}
    assert _readers(ast.parse(
        "def f(c):\n    return c.kind == 'p_type'\ndef g(c):\n    return T[c.kind]\n"
        "def h(c, eta):\n    raise E(f'{c.kind}') if eta.dtype.kind in 'c' else 0\n"),
        _branches_on_kind) == ["f", "g"]


def _derived_operators(tree: ast.Module) -> list[str]:
    """Class.name for each operator `expsum.Ring` derives that a class body
    defines or assigns."""
    derived = {"__sub__", "__rsub__", "__neg__", "__radd__", "__rmul__", "__truediv__",
               "dx", "dy", "dt", "eval"}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            found += [f"{node.name}.{name}" for name in names if name in derived]
    return found


def test_only_ring_derives_operators():
    """ExpSum and Rational write only __add__, __mul__, _partial and
    eval_scaled; the `Ring` base derives the reflected forms, negation,
    subtraction, scalar division, dx, dy, dt and eval from them."""
    tree = ast.parse((SRC / "expsum.py").read_text())
    assert sorted(_derived_operators(tree)) == [
        f"Ring.{name}" for name in ("__neg__", "__radd__", "__rmul__", "__rsub__",
                                    "__sub__", "__truediv__", "dt", "dx", "dy", "eval")]
    assert _derived_operators(ast.parse(
        "class A:\n    def __add__(self, o): pass\n    def __sub__(self, o): pass\n"
        "def __neg__(x): pass\nclass B(A):\n    __rmul__ = A.__add__\n"
        "    x = 1\n")) == ["A.__sub__", "B.__rmul__"]


# The functions of src/kplab that take an (x, y, t) point triple: the term
# algebra's evaluators and the reducers that evaluate through them.
POINT_TAKERS = {"Ring.eval", "ExpSum.eval_scaled", "Rational.eval_scaled",
                "_points", "log_derivatives", "SolitonField.kpii_residual"}


def _point_takers(tree: ast.Module) -> list[str]:
    """Class.function (or function) for each function whose parameters hold
    x, y, t in a row."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
                if any(names[k:k + 3] == ["x", "y", "t"] for k in range(len(names))):
                    found.append(owner + child.name)
                visit(child, owner + child.name + ".")
            else:
                visit(child, owner)

    visit(tree, "")
    return found


def test_only_evaluators_and_reducers_take_points():
    """Every quantity is built point-free and evaluated by the term algebra:
    no other src/kplab function takes an (x, y, t) triple."""
    takers = {name for path in sorted(SRC.glob("*.py"))
              for name in _point_takers(ast.parse(path.read_text(), filename=str(path)))}
    assert takers == POINT_TAKERS
    assert _point_takers(ast.parse(
        "def f(k, x, y, t): pass\ndef g(x, t, y): pass\nclass C:\n"
        "    def h(self, x, y, t, *, d=0):\n        def i(x, y, t): pass\n"
        "def j(*, x, y, t): pass\n")) == ["f", "C.h", "C.h.i", "j"]


KP = (-2.0, -1.0, 0.5, 3.0)
CP = 0.5625
P = SolitonConfig("p_type", KP)


def test_integral_float_pairs_are_accepted():
    """A pair of integral floats names the same channel as the int pair."""
    line = SolitonConfig("one_line", KP, pair=(1.0, 2.0))
    assert line == SolitonConfig("one_line", KP, pair=(1, 2))
    assert line.pair == (1, 2) and all(type(i) is int for i in line.pair)
    floats, ints = asymptotic_profile(P, (2.0, 3.0), 1), asymptotic_profile(P, (2, 3), 1)
    assert (floats.pair, floats.mu) == (ints.pair, ints.mu)
    assert floats.tau.terms == ints.tau.terms and floats.tau.gens == ints.tau.gens


@pytest.mark.parametrize("build,error", [
    (lambda: SolitonConfig("p_type", KP[:3] + (math.inf,)), errors.RejectedConfig),
    (lambda: SolitonConfig("o_type", (-math.inf,) + KP[1:]), errors.RejectedConfig),
    (lambda: OneDimDarboux(math.nan, 1.0), errors.InvalidBranch),
    (lambda: OneDimDarboux(math.inf, 1.0), errors.InvalidBranch),
    (lambda: minus_kernel_profile(math.nan, 1.0), errors.InvalidBranch),
    (lambda: minus_kernel_profile(math.inf, 1.0), errors.InvalidBranch),
    (lambda: OneDimDarboux(CP, math.nan, alpha=0.3), errors.InadmissibleEta),
    (lambda: OneDimDarboux(CP, complex(0.3, math.nan), alpha=0.3), errors.InadmissibleEta),
    (lambda: minus_kernel_profile(CP, math.nan), errors.InadmissibleEta),
    (lambda: bump_profile(math.nan), errors.InvalidBranch),
    (lambda: bump_profile(math.inf), errors.InvalidBranch),
    (lambda: bump_profile(-1.0), errors.InvalidBranch),
    (lambda: kink_profile(math.nan), errors.InvalidBranch),
    (lambda: kink_profile(math.inf), errors.InvalidBranch),
    (lambda: kink_profile(-1.0), errors.InvalidBranch),
    (lambda: wronskian_tau((0.0, 1.0), np.ones((3, 1))), errors.RejectedConfig),
    (lambda: wronskian_tau((0.0, 1.0), np.eye(2, 3)), errors.RejectedConfig),
    (lambda: wronskian_tau((0.0, 1.0), [[math.nan], [1.0]]), errors.RejectedConfig),
    (lambda: wronskian_tau((0.0, 1.0), [[1.0], [math.inf]]), errors.RejectedConfig),
    (lambda: wronskian_tau((math.nan, 1.0), [[1.0], [1.0]]), errors.RejectedConfig),
    (lambda: wronskian_tau((0.0, math.inf), [[1.0], [1.0]]), errors.RejectedConfig),
    (lambda: SolitonConfig("p_type", KP, pair=(2, 3)), errors.RejectedConfig),
    (lambda: SolitonConfig("one_line", KP), errors.RejectedConfig),
    (lambda: SolitonConfig("vacuum", (), pair=(1, 2)), errors.RejectedConfig),
    (lambda: SolitonConfig("one_line", KP, pair=(1.5, 2)), errors.RejectedConfig),
    (lambda: SolitonConfig("one_line", KP, pair=(1, 2, 3)), errors.RejectedConfig),
    (lambda: SolitonConfig("one_line", KP, pair=("1", 2)), errors.RejectedConfig),
    (lambda: SolitonConfig("one_line", KP, pair=(True, 2)), errors.RejectedConfig),
    (lambda: SolitonConfig("one_line", KP, pair=(1, math.nan)), errors.RejectedConfig),
    (lambda: asymptotic_profile(P, (2.7, 3.2), 1), errors.InvalidBranch),
    (lambda: asymptotic_profile(P, (2, 3, 4), 1), errors.InvalidBranch),
    (lambda: frame_of(SolitonConfig("p_type", (-2.0, -1.0, 1.0, 2.0))), errors.DegenerateFrame),
    (lambda: log_derivatives(ExpSum.constant(0.0), (1, 0, 0), 0.0, 0.0, 0.0), ZeroDivisionError),
    (lambda: OneDimDarboux(CP, 1.0, alpha=math.nan), errors.AlphaOutOfRange),
    (lambda: OneDimDarboux(CP, 1.0, alpha=math.inf), errors.AlphaOutOfRange),
    # gamma = sqrt(c + i eta) vanishes at eta = i c, where the kernels divide by gamma
    (lambda: minus_kernel_profile(1.0, 1j), errors.InadmissibleEta),
    (lambda: t1_apply(OneDimDarboux(1.0, 1j, alpha=1.5), -1, bump_profile(1.0), low=True),
     errors.InadmissibleEta),
    (lambda: t1_apply(OneDimDarboux(1.0, -1j, alpha=1.5), 1, bump_profile(1.0), low=True),
     errors.InadmissibleEta),
    (lambda: sample_points(7, 0), errors.ConfigMismatch),
    (lambda: sample_points(7, -3), errors.ConfigMismatch),
    (lambda: sample_points(7, 2.5), errors.ConfigMismatch),
    (lambda: sample_points(7, True), errors.ConfigMismatch),
    (lambda: sample_points(-1, 16), errors.ConfigMismatch),
    (lambda: identity_report(7, 0), errors.ConfigMismatch),
    (lambda: identity_report(7, 2.5), errors.ConfigMismatch),
    (lambda: identity_report(-1, 16), errors.ConfigMismatch),
    (lambda: JostFamily(P).phi(math.nan), errors.ConfigMismatch),
    (lambda: JostFamily(P).phi_star(math.inf), errors.ConfigMismatch),
    (lambda: JostFamily(P).phi_star(complex(1.0, math.nan)), errors.ConfigMismatch),
    (lambda: level_shift_parts(P, math.nan), errors.ConfigMismatch),
    (lambda: mode_transfer_parts(P, math.nan), errors.InadmissibleEta),
    (lambda: OneDimDarboux(900.0, 1.0, window=1), errors.ConfigMismatch),
    (lambda: commutation_parts(CP, 1.3, math.nan, bump_profile(CP)), errors.ConfigMismatch),
    (lambda: commutation_parts(CP, 1.3, math.inf, bump_profile(CP)), errors.ConfigMismatch),
    (lambda: commutation_parts(CP, 1.3, "0.2", bump_profile(CP)), errors.ConfigMismatch),
    (lambda: OneDimDarboux("0.5", 1.0), errors.InvalidBranch),
    (lambda: bump_profile("0.5"), errors.InvalidBranch),
    (lambda: OneDimDarboux(0.5, 1.0, alpha="0.3"), errors.AlphaOutOfRange),
    (lambda: wronskian_tau((1.0, 2.0), [1.0, 1.0]), errors.RejectedConfig),
    (lambda: mode_transfer_parts(P, math.inf), errors.InadmissibleEta),
    (lambda: worst_residual([ExpSum.constant(1.0)]), errors.ConfigMismatch),
    (lambda: worst_residual([ExpSum.constant(1.0)], [0.0], [0.0]), errors.ConfigMismatch),
    # 0.5 + 1e-13: the (2, 3) line seen at y -> -inf is shifted by mu = -15.2
    (lambda: asymptotic_profile(SolitonConfig("p_type", KP[:3] + (0.5 + 1e-13,)), (2, 3), -1),
     errors.RejectedConfig),
    (lambda: t1_apply(OneDimDarboux(CP, 2.0, alpha=0.3), 1, "abc"), errors.ConfigMismatch),
    (lambda: t1_roundtrip(OneDimDarboux(CP, 2.0, alpha=0.3), -1, "abc"), errors.ConfigMismatch),
    (lambda: OneDimDarboux(CP, 2.0, alpha=0.3).m_apply_sampled(1, "abc"), errors.ConfigMismatch),
    # True equals 1.0 and hashes like it, so a cache keyed by c would answer first
    (lambda: (bump_profile(1.0), bump_profile(True)), errors.InvalidBranch),
    (lambda: (kink_profile(1.0), kink_profile(True)), errors.InvalidBranch),
    (lambda: OneDimDarboux(0.5, "0.3", alpha=0.2), errors.InadmissibleEta),
    (lambda: mode_transfer_parts(P, "0.4"), errors.InadmissibleEta),
    (lambda: SolitonConfig("p_type", ("-2", "-1", "0.5", "3")), errors.RejectedConfig),
    (lambda: SolitonConfig("one_line", (False, True), pair=(1, 2)), errors.RejectedConfig),
    (lambda: wronskian_tau(("a", 1.0), [[1.0], [1.0]]), errors.RejectedConfig),
    (lambda: wronskian_tau((False, True), [[1.0], [1.0]]), errors.RejectedConfig),
    (lambda: JostFamily(P).phi("1.7"), errors.ConfigMismatch),
    (lambda: check_sign(True), errors.InvalidBranch),
    # Re gamma(0.5i) = 0.707 <= sqrt(c) - alpha = 0.8: the based minus form does not apply
    (lambda: t1_apply(OneDimDarboux(1.0, 0.5j, alpha=0.2), -1, bump_profile(1.0), low=True),
     errors.RegionViolation),
    # kappa_{0 - 1} would wrap round to kappa_4
    (lambda: branch_of(P, (0, 2)), errors.InvalidBranch),
    (lambda: branch_of(P, (2, 9)), errors.InvalidBranch),
    (lambda: branch_of(P, (2, 2)), errors.InvalidBranch),
    (lambda: branch_of(P, (3, 2)), errors.InvalidBranch),
    (lambda: branch_of(P, (1, 2)), errors.InvalidBranch),
    (lambda: Branch(0.0, 0.5).gamma("0.3"), errors.InadmissibleEta),
    (lambda: Branch(0.0, 0.5).gamma(True), errors.InadmissibleEta),
    (lambda: Branch(0.0, 0.5).gamma(math.nan), errors.InadmissibleEta),
    (lambda: Branch(0.0, 0.5).gamma(math.inf), errors.InadmissibleEta),
    (lambda: Branch(0.0, 0.5).gamma(np.array([0.3, math.nan])), errors.InadmissibleEta),
    (lambda: Branch(0.0, math.nan).gamma(0.1), errors.InvalidBranch),
    (lambda: Branch(0.0, 0.0), errors.InvalidBranch),
    (lambda: Branch("a", 0.5), errors.InvalidBranch),
    (lambda: exp_cumulative(PanelGrid(-4, 4, per_unit=8), np.ones(64), "0.5", "left"),
     errors.RegionViolation),
    (lambda: exp_cumulative(PanelGrid(-4, 4, per_unit=8), np.ones(64), True, "left"),
     errors.RegionViolation),
    (lambda: based_cumulative(PanelGrid(-4, 4, per_unit=8), np.ones(64), "0.5"),
     errors.RegionViolation),
    # True equals 1 and hashes like it, so the wave kept for pole 1 would answer
    (lambda: [fam.phi_residue(j) for fam in [JostFamily(P)] for j in (1, True)],
     errors.PoleAtKappa),
], ids=["kappa_inf", "kappa_minus_inf", "c_nan", "c_inf", "kernel_c_nan", "kernel_c_inf",
        "eta_nan", "eta_imag_nan", "kernel_eta_nan", "bump_c_nan", "bump_c_inf",
        "bump_c_negative", "kink_c_nan", "kink_c_inf", "kink_c_negative",
        "tau_rows_mismatch", "tau_columns_exceed_phases", "tau_entry_nan", "tau_entry_inf",
        "tau_kappa_nan", "tau_kappa_inf", "p_type_with_pair",
        "one_line_without_pair", "vacuum_with_pair", "pair_fractional", "pair_of_three",
        "pair_string", "pair_bool", "pair_nan", "profile_pair_fractional",
        "profile_pair_of_three", "equal_channel_slopes",
        "log_of_zero_sum", "alpha_nan", "alpha_inf", "kernel_branch_point",
        "minus_inverse_branch_point", "plus_inverse_branch_point", "sample_count_zero",
        "sample_count_negative", "sample_count_fractional", "sample_count_bool",
        "sample_seed_negative", "report_count_zero", "report_count_fractional",
        "report_seed_negative", "wave_at_nan", "dual_at_inf", "dual_at_imag_nan",
        "level_shift_at_nan", "mode_transfer_at_nan", "channel_window_one",
        "commutation_drift_nan", "commutation_drift_inf", "commutation_drift_string",
        "c_string", "bump_c_string", "alpha_string", "tau_one_dim_matrix",
        "mode_transfer_at_inf", "residual_without_points", "residual_with_two_point_arrays",
        "profile_shift_beyond_cutoff", "inverse_of_a_string", "roundtrip_of_a_string",
        "sampled_transform_of_a_string", "bump_c_bool", "kink_c_bool", "eta_string",
        "mode_transfer_at_string", "kappa_strings", "kappa_bools", "tau_kappa_string",
        "tau_kappa_bool", "wave_at_string", "sign_bool", "based_minus_below_its_gate",
        "branch_pair_wraps", "branch_pair_beyond_phases", "branch_pair_repeated",
        "branch_pair_reversed", "branch_pair_not_a_channel", "gamma_string", "gamma_bool",
        "gamma_nan", "gamma_inf", "gamma_array_nan", "branch_c_nan", "branch_c_zero",
        "branch_a_string", "cumulative_rate_string", "cumulative_rate_bool",
        "based_rate_string", "residue_index_bool"])
def test_non_finite_parameters_raise_typed_errors(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("carried", [False, True], ids=["bare", "carried"])
@pytest.mark.parametrize("apply", [
    lambda op, f: t1_apply(op, 1, f),
    lambda op, f: t1_roundtrip(op, -1, f),
    lambda op, f: op.m_apply_sampled(1, f),
], ids=["inverse", "roundtrip", "sampled_transform"])
def test_exact_exp_sum_inputs_read_as_profiles(apply, carried):
    """An ExpSum profile, bare or carried, is read at the nodes like a Rational
    one: the channel's own cosh gives the bytes of its node samples."""
    op = OneDimDarboux(CP, 2.0, alpha=0.3)
    cosh = _hyperbolic(op.root)[2]
    samples = np.array(op._on_grid(cosh))
    got = apply(op, Carried(cosh) if carried else cosh)
    assert np.asarray(got).tobytes() == np.asarray(apply(op, samples)).tobytes()
