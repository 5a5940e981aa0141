"""Checks on the package's source text, with the standard library alone."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "covspectra"


def _unused_imports(source: str) -> list[str]:
    """Names an import binds that no expression of the module reads; the
    __future__ import binds none."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_imported_name_is_used():
    # __init__.py imports names to re-export them, so it is left out
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) >= 8
    unused = {path.name: names for path in modules
              if (names := _unused_imports(path.read_text()))}
    assert unused == {}


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd()\n"
    assert _unused_imports(source) == ["b", "os"]


# the model's memory budget: only model.py sizes batches from these
BUDGET_NAMES = {"_CHAIN_BYTES", "_NODE_TEMPORARIES", "_FUNCTIONAL_ROWS", "_per_batch"}


def _names(source: str) -> set[str]:
    """Every name the module's code reads, binds, imports or takes as an
    attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_memory_budget_stays_in_the_model():
    named = {path.name: sorted(BUDGET_NAMES & _names(path.read_text()))
             for path in sorted(SRC.glob("*.py")) if path.name != "model.py"}
    assert {name: found for name, found in named.items() if found} == {}
    assert BUDGET_NAMES <= _names((SRC / "model.py").read_text())


def test_budget_name_is_found():
    source = "from .model import _CHAIN_BYTES as c\nimport m\nm._FUNCTIONAL_ROWS\n"
    assert BUDGET_NAMES & _names(source) == {"_CHAIN_BYTES", "_FUNCTIONAL_ROWS"}


# the resolvent's layout, the p x p LU or Woodbury, is decided once, as the
# model's _lu: only model.py reads the dense stack's rows, and each kernel
# that depends on the layout branches on _lu, never on the dense rows
LAYOUT_KERNELS = ("_rows_within_budget", "class_traces", "factor_inverses", "functional_traces")


def _branch_names(source: str) -> dict[str, set[str]]:
    """For each function of the module, every name its if statements and
    conditional expressions test, as _names reads them."""
    return {fn.name: set().union(*(_names(ast.unparse(node.test)) for node in ast.walk(fn)
                                   if isinstance(node, (ast.If, ast.IfExp))))
            for fn in ast.walk(ast.parse(source)) if isinstance(fn, ast.FunctionDef)}


def test_layout_is_decided_once_in_the_model():
    readers = [path.name for path in sorted(SRC.glob("*.py"))
               if "_dense_rows" in _names(path.read_text())]
    assert readers == ["model.py"]
    branches = _branch_names((SRC / "model.py").read_text())
    assert {name: sorted({"_lu", "_dense_rows"} & branches[name]) for name in LAYOUT_KERNELS} \
        == dict.fromkeys(LAYOUT_KERNELS, ["_lu"])


def test_layout_branch_is_found():
    source = ("def f(self):\n    if self._dense_rows.size:\n        return 1\n"
              "def g(self):\n    return 1 if self._lu else 2\n")
    assert _branch_names(source) == {"f": {"self", "_dense_rows", "size"},
                                     "g": {"self", "_lu"}}


def _budget_calls_with_arguments(source: str) -> tuple[int, list[str]]:
    """How many _rows_within_budget calls the module makes, and, as source
    text, each one that passes an argument: the model sizes a batch from its
    own arrays, so a caller that charges it more has a second batch rule."""
    calls = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).endswith("_rows_within_budget")]
    return len(calls), sorted(ast.unparse(c) for c in calls if c.args or c.keywords)


def test_batch_rule_takes_no_argument():
    found = {path.name: _budget_calls_with_arguments(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert sum(count for count, _ in found.values()) >= 1
    assert {name: given for name, (_, given) in found.items() if given} == {}


def test_budget_call_with_argument_is_found():
    source = "b = model._rows_within_budget(16 * k)\nc = self._rows_within_budget()\n"
    assert _budget_calls_with_arguments(source) == (2, ["model._rows_within_budget(16 * k)"])


def _calls(source: str, *funcs: str) -> list[str]:
    """The enclosing function of each call of one of funcs, outermost first
    and qualified by its class ("" at module level)."""
    return _call_sites(source, lambda call: ast.unparse(call.func) in funcs)


def _call_sites(source: str, match) -> list[str]:
    """The enclosing function, as _calls gives it, of each call that match
    accepts."""
    found = []

    def visit(node: ast.AST, where: str, cls: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and not where:
                visit(child, where, f"{cls}{child.name}.")
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, where or cls + child.name, cls)
                continue
            if isinstance(child, ast.Call) and match(child):
                found.append(where)
            visit(child, where, cls)

    visit(ast.parse(source), "", "")
    return found


def test_one_inverse_converts_a_singular_factor():
    # resolvent_identity_check, the Monte Carlo oracle, inverts its own
    # sample matrices; every other inverse goes through model._inv, and only
    # _inv in model.py turns a singular resolvent factor into a DomainError
    calls = {path.name: found for path in sorted(SRC.glob("*.py"))
             if (found := [f for f in _calls(path.read_text(), "np.linalg.inv")
                           if f != "resolvent_identity_check"])}
    assert calls == {"model.py": ["_inv"]}
    said = [path.name for path in sorted(SRC.glob("*.py"))
            if "singular resolvent factor" in path.read_text()]
    assert said == ["model.py"]


def test_inverse_call_is_found():
    source = ("import numpy as np\nnp.linalg.inv(a)\n"
              "def f(a):\n    def g():\n        return np.linalg.inv(a)\n    return g\n"
              "class C:\n    def m(self):\n        return np.linalg.eigh(self)\n")
    assert _calls(source, "np.linalg.inv") == ["", "f"]
    assert _calls(source, "np.linalg.inv", "np.linalg.eigh") == ["", "f", "C.m"]


def test_eigensolves_stay_where_the_layout_needs_them():
    # the average second moment's p x p eigensolve belongs to the mean field
    # alone: nu_hat solves an r x r secular equation where the resolvent takes
    # Woodbury, and the eigenvalue count reads g, with no identity matrix
    calls = {path.name: found for path in sorted(SRC.glob("*.py"))
             if (found := _calls(path.read_text(), "np.linalg.eigh", "np.linalg.eigvalsh"))}
    assert calls == {"empirical.py": ["_gram_eigh"],
                     "model.py": ["Dense.__post_init__", "EnsembleModel._mean_field",
                                  "EnsembleModel._nu_hat"]}
    assert _calls((SRC / "contour.py").read_text(), "np.eye") == []


def test_rotation_powers_stay_in_the_packed_stack():
    # P^k is realised once per family, when the dense stack is packed; a
    # draw rotates by repeated squaring, so no orbit walk is per draw
    calls = {path.name: sorted(set(found)) for path in sorted(SRC.glob("*.py"))
             if (found := _calls(path.read_text(), "np.linalg.matrix_power", "_orbit"))}
    assert calls == {"model.py": ["EnsembleModel._pack", "_orbit"]}


def _domain_calls(source: str) -> tuple[int, list[str]]:
    """How many _in_domain calls the module makes, and, as source text, each
    one whose first argument takes a subscript, sorted: a slice would judge
    part of the values by the domain rule and leave the rest unjudged."""
    calls = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("_in_domain")]
    return len(calls), sorted(ast.unparse(call) for call in calls
                              if any(isinstance(a, ast.Subscript) for a in ast.walk(call.args[0])))


def test_domain_rule_judges_every_value():
    found = {path.name: _domain_calls(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert sum(count for count, _ in found.values()) >= 5
    assert {name: sliced for name, (_, sliced) in found.items() if sliced} == {}


def test_sliced_domain_call_is_found():
    source = ("f(lambda v, r: _in_domain(v[:, live], z[r], axis=1))\n"
              "_in_domain(x, z, axis=1)\nsemimetric._in_domain(D.values[1:], z)\n")
    assert _domain_calls(source) == (3, ["_in_domain(v[:, live], z[r], axis=1)",
                                         "semimetric._in_domain(D.values[1:], z)"])


def _acceptance_rules(source: str, func: str) -> tuple[int, int]:
    """In func of the module, how many in_domain calls and how many
    residual < prev comparisons it makes."""
    body = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == func)
    nodes = list(ast.walk(body))
    return (sum(isinstance(n, ast.Call) and ast.unparse(n.func) == "in_domain" for n in nodes),
            sum(isinstance(n, ast.Compare) and ast.unparse(n) == "residual < prev"
                for n in nodes))


def test_one_acceptance_rule_for_accelerated_steps():
    # Newton's and Anderson's candidates differ only in how they are formed:
    # one rule, the domain and a fallen residual, judges both
    source = (SRC / "fixedpoint.py").read_text()
    assert _acceptance_rules(source, "_contract") == (1, 1)


def test_forked_acceptance_rule_is_found():
    source = ("def f(x):\n    if a:\n        t = (residual < prev) & in_domain(c, r)\n"
              "    else:\n        t = in_domain(c, r)\n    return residual < tol\n")
    assert _acceptance_rules(source, "f") == (2, 1)


def _isinstance_calls(source: str, func: str) -> int:
    """How many isinstance calls func of the module makes."""
    body = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == func)
    return sum(isinstance(n, ast.Call) and ast.unparse(n.func) == "isinstance"
               for n in ast.walk(body))


def test_each_root_is_written_once():
    # draws and column_root_matvec take one class-wise root, _roots: it alone
    # rotates, and the per-column view does not branch on the covariance kind
    source = (SRC / "model.py").read_text()
    assert _calls(source, "_rotate") == ["EnsembleModel._roots"]
    assert _isinstance_calls(source, "column_root_matvec") == 0


def test_forked_root_is_found():
    source = ("class M:\n    def view(self, i, g):\n        if isinstance(s, R):\n"
              "            return _rotate(P, k, g)\n        return self._roots(i, g)\n"
              "    def _roots(self, c, G):\n        return _rotate(P, k, G)\n")
    assert _calls(source, "_rotate") == ["M.view", "M._roots"]
    assert _isinstance_calls(source, "view") == 1


COVARIANCE_KINDS = {"Dense", "Diagonal", "ScaledIdentity", "RotatedFamily"}


def _kind_readers(source: str) -> list[str]:
    """The enclosing functions, as _calls gives them and sorted, of the
    isinstance calls whose class argument names a covariance kind."""
    return sorted(set(_call_sites(source, lambda call: ast.unparse(call.func) == "isinstance"
                                  and bool(COVARIANCE_KINDS & _names(ast.unparse(call.args[-1]))))))


def test_covariance_kinds_are_read_where_classes_are_built():
    # a new kind, or a kind reshaped, touches the class it forms, the packed
    # row and floor it gives, and its root, and the loader's expansion of an
    # entry: the build's other steps read what those return
    readers = {path.name: found for path in sorted(SRC.glob("*.py"))
               if (found := _kind_readers(path.read_text()))}
    assert readers == {"model.py": ["EnsembleModel._classify", "EnsembleModel._pack",
                                    "EnsembleModel._roots", "_parse_entry"]}


def test_kind_read_elsewhere_is_found():
    source = ("class M:\n    def _pack(self, s):\n        return isinstance(s, Dense)\n"
              "    def floor(self, s):\n        return isinstance(s, (m.Diagonal, int))\n"
              "def f(x):\n    return isinstance(x, dict)\n")
    assert _kind_readers(source) == ["M._pack", "M.floor"]
