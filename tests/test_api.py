"""Public names resolve, the traced benchmark still finds what it wraps, the
settable values of the public API are budgeted, dense solves stay in one
place, Choi blocks are reshuffled on one assembly route, and each CLI
command reads exactly the options it takes."""

import ast
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import pytest

import ncpick

MODULES = ["ncpick"] + [f"ncpick.{m.name}" for m in pkgutil.iter_modules(ncpick.__path__)]
PACKAGE = Path(ncpick.__file__).resolve().parent


def load_tracing() -> types.ModuleType:
    """``bench/tracing.py`` executed from its source, writing no bytecode cache."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    module = types.ModuleType("bench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_traced_names_exist():
    # the traced benchmark binds each wrapped function by module and name
    tracing = load_tracing()
    missing = [f"{layer}.{fname}" for layer, names in tracing.WRAPPED.items()
               for fname in names
               if not callable(getattr(importlib.import_module(f"ncpick.{layer}"), fname, None))]
    assert missing == []


# Every parameter with a default of a public callable (in ``ncpick.__all__`` or a
# module's ``__all__``), keyed by defining module and name.  A setting no caller
# sets belongs in a module constant; adding or removing one means editing this
# table.  30 parameters (53 before the envelope, sampling, extraction, core,
# realization and refuter tolerances became constants, 38 before the full
# envelope became an exact test, 36 before the similarity envelope lost its
# multiplicity bound and seed, 34 before every synthesis set its
# interpolation residual, 33 before the Pick solve's sample count, levels
# and seed became constants).
DEFAULTED_PARAMETERS = {
    "core.NcMatrixPolynomial": ("terms",),
    "envelopes.JordanData": ("ambiguous",),
    "envelopes.jordan_spectral_data": ("cluster_tol",),
    "envelopes.zariski_membership_d1": ("cluster_tol",),
    "interpolation.SolveReport": ("colligation", "interp_residual", "contractivity_samples",
                                  "diagnostics"),
    "interpolation.ltoa_certificate": ("rel_tol",),
    "interpolation.pick_certificate": ("rel_tol",),
    "interpolation.solve_pick": ("tol",),
    "interpolation.stein_dominance_certificate": ("rel_tol",),
    "interpolation.strict_stein_refuter": ("trials", "seed"),
    "kernels.PsdCertificate": ("marginal",),
    "kernels.cp_check_finite": ("rel_tol",),
    "kernels.kolmogorov_factor": ("psd_tol",),
    "kernels.psd_check": ("rel_tol",),
    "realization.Colligation": ("flags",),
    "realization.lurking_isometry_synthesize": ("tol", "completion"),
    "realization.random_contractive_colligation": ("seed", "unitary"),
    "sampling.random_row_poly": ("degree", "terms", "include_constant", "scale"),
    "sampling.random_tuple": ("scale",),
    "sampling.sample_in_domain": ("target",),
    "sampling.scale_into_domain": ("target",),
}


def defaulted_parameters() -> dict[str, tuple[str, ...]]:
    found = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if not callable(obj):
                continue
            try:
                sig = inspect.signature(obj)
            except ValueError:  # exception classes keep the builtin constructor
                continue
            params = tuple(p.name for p in sig.parameters.values()
                           if p.default is not inspect.Parameter.empty)
            if params:
                found[f"{obj.__module__.removeprefix('ncpick.')}.{obj.__qualname__}"] = params
    return found


def test_defaulted_parameters_match_the_budget():
    found = defaulted_parameters()
    assert found == DEFAULTED_PARAMETERS
    assert sum(map(len, found.values())) == 30


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``__all__`` entries count as reads)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in getattr(node.value, "elts", ())
                     if isinstance(elt, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_detected():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == [
        "d (line 2)", "os (line 1)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    # __init__.py is exempt: its imports are the package's re-exports
    assert unused_imports((PACKAGE / path).read_text(encoding="utf-8")) == []


def scoped_sites(source: str, module: str, hit) -> list[str]:
    """``module.function`` (``module`` at top level) of each AST node for which ``hit`` holds."""
    sites, scope = [], [module]

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def generic_visit(self, node):
            if hit(node):
                sites.append(".".join(scope))
            super().generic_visit(node)

    Visitor().visit(ast.parse(source))
    return sites


def solve_sites(source: str, module: str) -> list[str]:
    """The scope of each ``linalg.solve`` use and of each import of ``solve`` from a linalg."""
    def hit(node):
        if isinstance(node, ast.Attribute):
            base = getattr(node.value, "attr", getattr(node.value, "id", None))
            return node.attr == "solve" and base == "linalg"
        return (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
                and "solve" in [alias.name for alias in node.names])

    return scoped_sites(source, module, hit)


def call_sites(source: str, module: str, callee: str) -> list[str]:
    """The scope of each call of ``callee``, by its bare name or as an attribute."""
    return scoped_sites(source, module, lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)) == callee)


def test_solve_sites_detected():
    source = ("import numpy as np\nfrom numpy import linalg\nfrom scipy.linalg import solve\n"
              "def f():\n    def g():\n        return np.linalg.solve(a, b)\n"
              "    return linalg.solve(a, b)\n")
    assert solve_sites(source, "m") == ["m", "m.f.g", "m.f"]


def test_one_identity_minus_solve():
    # every I - Phi and I - G system goes through kernels._stein_solve, and
    # nothing else in the package makes a dense solve
    sites = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in solve_sites(path.read_text(encoding="utf-8"), path.stem)]
    assert sites == ["kernels._stein_solve"]


def test_call_sites_detected():
    source = "def f():\n    def g():\n        return h(1)\n    return m.h(2) + k(h)\nh(4)\n"
    assert call_sites(source, "m", "h") == ["m.f.g", "m.f", "m"]


def test_one_choi_assembly():
    # every Choi block is reshuffled in one of two places: the per-pair
    # assembly of the de Branges-Rovnyak and Szego Choi matrices, and the
    # Choi matrix of a map given whole
    sites = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in call_sites(path.read_text(encoding="utf-8"), path.stem,
                                    "_choi_reshuffle")]
    assert sites == ["kernels._dbr_support", "kernels.map_matrix_to_choi"]


def option_reads(source: str) -> dict[str, set[str]]:
    """The ``args.<name>`` options each ``_cmd_*`` function reads; ``args`` used any
    other way (``getattr(args, ...)``, ``vars(args)``) reads as the name ``args``."""
    reads = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_"):
            nodes = list(ast.walk(node))
            attrs = [n.attr for n in nodes if isinstance(n, ast.Attribute)
                     and isinstance(n.value, ast.Name) and n.value.id == "args"]
            uses = sum(isinstance(n, ast.Name) and n.id == "args" for n in nodes)
            reads[node.name] = set(attrs) | ({"args"} if uses > len(attrs) else set())
    return reads


def test_option_reads_detected():
    source = ("def _cmd_a(obj, args):\n    return args.tol + args.seed + args.tol\n"
              "def _cmd_b(obj, args):\n    return getattr(args, 'tol')\n"
              "def _cmd_c(obj, args):\n    return obj\n"
              "def helper(args):\n    return args.samples\n")
    assert option_reads(source) == {"_cmd_a": {"tol", "seed"}, "_cmd_b": {"args"},
                                    "_cmd_c": set()}


def test_commands_read_exactly_their_options():
    # a command takes and echoes only the options in its _COMMANDS entry, so an
    # option it accepts and never reads, or reads and does not accept, fails here
    cli = importlib.import_module("ncpick.cli")
    declared = {handler.__name__: set(options) for handler, options in cli._COMMANDS.values()}
    assert option_reads((PACKAGE / "cli.py").read_text(encoding="utf-8")) == declared
    assert sum(map(len, declared.values())) == 6
