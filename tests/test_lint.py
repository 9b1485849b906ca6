"""Static checks on the package source that need no linter: every name a
module imports is used in it (package ``__init__`` files re-export theirs),
every dataclass field is read somewhere in the package or its tests, every
exported name is run by some module of the package, and so is every
function, method and class a module defines. No module reaches the C
allocator's process-wide settings. One definition is the backward-sweep
kernel, and it alone builds a policy; one function builds every decision.
The component models take and return arrays, with no scalar branch. Every
key the scenario schema accepts is set by some shipped scenario."""

import ast
import configparser
import re
from pathlib import Path

import pytest

from phevopt.scenario import SCHEMA

SRC = Path(__file__).resolve().parents[1] / "src" / "phevopt"
SCENARIOS = SRC.parents[1] / "scenarios"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_is_found():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert unused_imports(tree) == ["math", "path"]


def unread_fields(tree: ast.Module, read: set[str]) -> list[str]:
    """``Class.field`` for each field of a ``@dataclass`` in ``tree`` whose
    name is not in ``read``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list):
            out += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read]
    return out


def attributes_read(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in [*SRC.rglob("*.py"), *TESTS]}
    read = set().union(*map(attributes_read, trees.values()))
    assert [name for p, tree in trees.items() if p.is_relative_to(SRC)
            for name in unread_fields(tree, read)] == []


def test_unread_field_is_found():
    tree = ast.parse("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
                     "@dataclass\nclass B:\n    z: float\n"
                     "class C:\n    w: int\n"
                     "print(A(1).x, B(2.0).z)\na.y = 3\n")
    assert unread_fields(tree, attributes_read(tree)) == ["A.y"]


#: Exports that nothing in the package calls, kept as entry points.
ENTRY_POINTS = {
    "evaluate_rule_on_demand": "criterion 6 and the benchmark gate replay the rule with it",
}
#: Exports that are not code to run.
NOT_CODE = {"__version__", "errors"}


def exported(tree: ast.Module) -> list[str]:
    """The names listed in the module's ``__all__``."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


def names_used(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def unrun_exports(inits: list[ast.Module], modules: list[ast.Module]) -> list[str]:
    """Names the ``inits`` export that no name or attribute of ``modules``
    mentions, apart from the entry points and the exports that are not code."""
    used = set().union(*map(names_used, modules))
    return [name for tree in inits for name in exported(tree)
            if name not in used | ENTRY_POINTS.keys() | NOT_CODE]


def test_every_export_is_run():
    inits = [ast.parse(p.read_text(encoding="utf-8"))
             for p in (SRC / "__init__.py", SRC / "dpopt" / "__init__.py")]
    modules = [ast.parse(p.read_text(encoding="utf-8")) for p in MODULES]
    assert unrun_exports(inits, modules) == []


def test_unrun_export_is_found():
    init = ast.parse('__version__ = "1"\nfrom .m import a, b, c, evaluate_rule_on_demand\n'
                     '__all__ = ["__version__", "a", "b", "c", "evaluate_rule_on_demand"]\n')
    module = ast.parse("def a():\n    return 1\nprint(b(), x.c)\n")
    assert unrun_exports([init], [module]) == ["a"]


def unnamed_definitions(modules: list[ast.Module]) -> list[str]:
    """Functions, methods and classes defined in ``modules`` that no name or
    attribute of ``modules`` mentions, apart from dunders and the entry
    points."""
    used = set().union(*map(names_used, modules)) | ENTRY_POINTS.keys()
    return [node.name for tree in modules for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in used
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_every_definition_is_named():
    modules = [ast.parse(p.read_text(encoding="utf-8")) for p in MODULES]
    assert unnamed_definitions(modules) == []


def test_unnamed_definition_is_found():
    module = ast.parse("class A:\n    def __init__(self):\n        self.x = 1\n"
                       "    def m(self):\n        pass\n"
                       "    def n(self):\n        pass\n"
                       "def f():\n    return A().n\n"
                       "def g():\n    pass\n"
                       "def evaluate_rule_on_demand():\n    pass\n"
                       "print(f())\n")
    assert unnamed_definitions([module]) == ["g", "m"]


def allocator_settings(tree: ast.Module) -> list[str]:
    """Names, attributes, imports and strings in ``tree`` that are
    ``mallopt`` or a ``MALLOC_*`` environment variable: settings of the C
    allocator that hold for the whole process, and so for every caller of
    the package in it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            text = node.id
        elif isinstance(node, ast.Attribute):
            text = node.attr
        elif isinstance(node, ast.alias):
            text = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            continue
        if text == "mallopt" or text.startswith("MALLOC_"):
            found.append(text)
    return sorted(found)


def test_no_allocator_settings():
    assert [f"{p.relative_to(SRC)}: {name}" for p in sorted(SRC.rglob("*.py"))
            for name in allocator_settings(ast.parse(p.read_text(encoding="utf-8")))] == []


def test_allocator_setting_is_found():
    tree = ast.parse('import ctypes, os\nlibc = ctypes.CDLL("libc.so.6")\n'
                     'libc.mallopt(-3, 1 << 20)\nos.environ["MALLOC_ARENA_MAX"] = "2"\n'
                     'getattr(libc, "mallopt")\nfrom glibc import mallopt as tune\n'
                     'print(os.environ.get("MALLOCS"), "no mallopt here")\n')
    assert allocator_settings(tree) == ["MALLOC_ARENA_MAX", "mallopt", "mallopt", "mallopt"]


def sweep_kernels(tree: ast.Module) -> list[str]:
    """Functions in ``tree`` that call both ``interp_index`` and
    ``cs_drain`` with ``out=``: each writes a block's transitions and their
    interpolation indices into a workspace, which is what a backward-sweep
    kernel does."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = {getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                      for call in ast.walk(node) if isinstance(call, ast.Call)
                      and any(k.arg == "out" for k in call.keywords)}
            if {"interp_index", "cs_drain"} <= called:
                found.append(node.name)
    return found


def test_one_backward_sweep_kernel():
    assert [f"{p.relative_to(SRC)}: {name}" for p in sorted(SRC.rglob("*.py"))
            for name in sweep_kernels(ast.parse(p.read_text(encoding="utf-8")))] == [
        "dpopt/solver.py: sweep_columns"]


def test_second_sweep_kernel_is_found():
    tree = ast.parse("def sweep(cfg, w, ok):\n"
                     "    cs_drain(cfg, *moves, d, out=(w, ok))\n"
                     "    interp_index(w, lo, step, m, out=(j, jd, w))\n"
                     "class Paired:\n"
                     "    def sweep(self, w):\n"
                     "        problem.cs_drain(self.cfg, *m, d, out=(w, self.ok))\n"
                     "        problem.interp_index(w, 12.0, 0.01, 501, out=self.idx)\n"
                     "def allocating(cfg):\n"
                     "    return interp_index(cs_drain(cfg, *m, d)[0], 12.0, 0.01, 501)\n"
                     "def half(w):\n"
                     "    cs_drain(cfg, *m, d, out=(w, ok))\n"
                     "    interp_inf(v, w, 12.0, 0.01)\n")
    assert sweep_kernels(tree) == ["sweep", "sweep"]


def owners(tree: ast.Module, match) -> list[str]:
    """The innermost function around each node of ``tree`` that ``match``
    accepts, by name (``<module>`` outside any function)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append(owner)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, owner)
    visit(tree, "<module>")
    return found


def policy_builders(tree: ast.Module) -> list[str]:
    """Where ``tree`` calls ``DpPolicy``, by name or attribute: each place
    builds a policy from tables it holds."""
    return owners(tree, lambda node: isinstance(node, ast.Call) and "DpPolicy" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_policies_are_built_by_the_sweep():
    # so a policy's tables come from a sweep of its own config
    assert [f"{p.relative_to(SRC)}: {name}" for p in sorted(SRC.rglob("*.py"))
            for name in policy_builders(ast.parse(p.read_text(encoding="utf-8")))] == [
        "dpopt/solver.py: sweep_columns"]


def test_second_policy_builder_is_found():
    tree = ast.parse("def sweep_columns(d, cfgs):\n"
                     "    return [DpPolicy(c, d, *t) for c, t in zip(cfgs, tables)]\n"
                     "def solve(d, cfg, swept):\n"
                     "    return problem.DpPolicy(cfg, d, *swept)\n"
                     "def check(policy):\n"
                     "    def rebuilt():\n"
                     "        return DpPolicy(policy.cfg, d, c, t)\n"
                     "    return isinstance(policy, DpPolicy)\n"
                     "cached = DpPolicy(cfg, d, c, t)\n")
    assert policy_builders(tree) == ["sweep_columns", "solve", "rebuilt", "<module>"]


def decision_builders(tree: ast.Module) -> list[str]:
    """Where ``tree`` calls ``Decision``, by name or attribute: each place
    makes a decision table entry."""
    return owners(tree, lambda node: isinstance(node, ast.Call) and "Decision" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_decisions_are_built_by_the_table_builder():
    # so every table holds the null first and refuses two decisions one label
    assert [f"{p.relative_to(SRC)}: {name}" for p in sorted(SRC.rglob("*.py"))
            for name in decision_builders(ast.parse(p.read_text(encoding="utf-8")))] == [
        "dpopt/problem.py: decision_table", "dpopt/problem.py: decision_table"]


def test_second_decision_builder_is_found():
    tree = ast.parse("def decision_table(deltas, effs):\n"
                     "    return (Decision(0.0, 100.0), *(Decision(d, e) for d, e in z))\n"
                     "def load(sec):\n"
                     "    return [problem.Decision(d, 31.0) for d in deltas]\n"
                     "def check(dec):\n"
                     "    return isinstance(dec, Decision)\n"
                     "NULL = Decision(0.0, 100.0)\n")
    assert decision_builders(tree) == [
        "decision_table", "decision_table", "load", "<module>"]


def per_value_formatters(tree: ast.Module) -> list[str]:
    """Where ``tree`` applies ``%``, as an operator or in ``%=``: each place
    formats a value on its own."""
    return owners(tree, lambda node: isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Mod))


def test_one_per_value_formatter():
    # every other cell of a CSV file comes from array arithmetic or a constant
    assert per_value_formatters(ast.parse((SRC / "_csv.py").read_text(
        encoding="utf-8"))) == ["_per_value"]


def test_second_per_value_formatter_is_found():
    tree = ast.parse("def _per_value(spec, values):\n"
                     "    return [spec % v for v in values]\n"
                     "def _floats(spec, n, x):\n"
                     "    def cell(v):\n"
                     "        text = spec\n"
                     "        text %= v\n"
                     "        return text\n"
                     "    return [cell(v) for v in x] + ['%.3f' % x[0]]\n"
                     "HEADER = '%s,%s' % ('k', 'v')\n")
    assert per_value_formatters(tree) == ["_per_value", "cell", "_floats", "<module>"]


def dimension_branches(text: str) -> list[str]:
    """Lines of ``text`` that ask whether an input is a scalar (``np.ndim(``
    or ``.ndim == 0``): each gives a model a second face."""
    return [line.strip() for line in text.splitlines()
            if re.search(r"np\.ndim\(|\.ndim == 0", line)]


@pytest.mark.parametrize("name", ["powertrain.py", "dynamics.py"])
def test_models_have_one_face(name):
    # a model's NaN is explained by map_lookup or check_capability instead
    assert dimension_branches((SRC / name).read_text(encoding="utf-8")) == []


def test_dimension_branch_is_found():
    text = ("if np.ndim(torque_nm):\n    eta = lookup(t)\n"
            "return float(x) if x.ndim == 0 else x\n"
            "if axis.ndim != 1 or axis.size < 2:\n    raise ValueError\n")
    assert dimension_branches(text) == [
        "if np.ndim(torque_nm):", "return float(x) if x.ndim == 0 else x"]


def keys_never_set(schema: dict[str, set[str]], texts: list[str]) -> list[str]:
    """``[section] key`` for each key of ``schema`` that none of the
    scenario ``texts`` sets: a setting no caller uses."""
    given = set()
    for text in texts:
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
        cp.read_string(text)
        given |= {(name, key) for name in cp.sections() for key in cp[name]}
    return sorted(f"[{name}] {key}" for name, keys in schema.items() for key in keys
                  if (name, key) not in given)


def test_every_schema_key_is_set_by_a_scenario():
    texts = [p.read_text(encoding="utf-8") for p in sorted(SCENARIOS.glob("*.ini"))]
    assert len(texts) == 3
    assert keys_never_set(SCHEMA, texts) == []


def test_unset_schema_key_is_found():
    schema = {"cycle": {"path", "laps"}, "vehicle": {"m_t", "g"}, "maps": {"motor"}}
    texts = ["[cycle]\npath = a.csv\n[vehicle]\nm_t = 2800\n",
             "[cycle]\nlaps = 3  # a comment\n[maps]\nmotor = synthetic\n"]
    assert keys_never_set(schema, texts) == ["[vehicle] g"]
