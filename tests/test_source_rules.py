"""Rules about the package source itself rather than its behaviour."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from test_formulas import VALUES

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pacreason"


def test_package_checks_do_not_rely_on_assert():
    # `python -O` strips assert statements, so a check written as one vanishes
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders.extend(
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        )
    assert offenders == []


def test_package_imports_only_at_module_level():
    # no package module imports another inside a function: `formulas` and
    # `resolution` import no kernel module, so there is no cycle to break
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        top = set(map(id, tree.body))
        offenders.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        )
    assert offenders == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # every query is one `pacreason` process, so the import is paid per
    # query; `dataclasses` alone pulls in `inspect`, `ast` and `tokenize`,
    # and `formulas.Record` takes the place of the frozen dataclasses;
    # annotations and type aliases use `collections.abc` and `X | Y`, not `typing`
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = (
        "import sys, pacreason.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "[]\n"


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracing.py wraps package functions and methods by name; a
    # renamed one is only listed as missing, and its per-layer metrics vanish
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    script = "import tracing\ntracer = tracing.Tracer()\ntracer.install()\nprint(tracer.missing)"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "[]\n"


def test_only_the_record_loop_numbers_format_lines():
    # `formats._parse_file` walks the lines and prefixes a reader's error with
    # `line N: `; a reader that wrote its own prefix would number a second way
    prefix = re.compile(r"line (\{|\d+:)")
    tree = ast.parse((PACKAGE / "formats.py").read_text(encoding="utf-8"))
    builders = set()
    for func in tree.body:
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, (ast.JoinedStr, ast.Constant)) and prefix.search(ast.unparse(node)):
                    builders.add(func.name)
    assert "_parse_file" in builders
    assert builders <= {"_parse_file", "_header"}


def test_no_decider_calls_a_budget_check():
    # budgets are checked once per run on the unrestricted instance, and a
    # restriction keeps a checked instance valid, so the per-example
    # deciders take checked input and never re-check it
    deciders = {"search_space", "decide_resk_width", "decide_cp", "build_basis", "decide_pc"}
    found, offenders = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in tree.body:
            if isinstance(func, ast.FunctionDef) and func.name in deciders:
                found.add(func.name)
                for node in ast.walk(func):
                    if isinstance(node, ast.Call):
                        callee = getattr(node.func, "id", None) or getattr(node.func, "attr", "")
                        if callee.startswith("check_"):
                            offenders.append(f"{path.name}:{node.lineno} {func.name} calls {callee}")
    assert found == deciders
    assert offenders == []


def test_literals_sort_only_by_literal_bit():
    # `resolution.literal_bit` is the one literal order: by variable, x_v
    # before -x_v.  A sort key built on abs, or an `(abs(l), l < 0)` pair, is
    # a second copy of it
    def literal_key(node):
        if isinstance(node, ast.keyword) and node.arg == "key":
            return any(isinstance(n, ast.Name) and n.id == "abs" for n in ast.walk(node.value))
        return (
            isinstance(node, ast.Tuple)
            and len(node.elts) == 2
            and isinstance(node.elts[0], ast.Call)
            and getattr(node.elts[0].func, "id", None) == "abs"
            and isinstance(node.elts[1], ast.Compare)
        )

    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders.extend(
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if literal_key(node)
        )
    assert offenders == []


def test_value_classes_keep_the_builtin_equality_and_hash():
    # KDnf, LinIneq and PartialAssignment are the frozenset or tuple they
    # subclass: the built-in hash fixes set and dict order, and with it which
    # derivation of a line is offered first, so none may define its own
    values = {"KDnf": "frozenset", "LinIneq": "tuple", "PartialAssignment": "tuple"}
    found, offenders = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in values:
                found[cls.name] = [getattr(base, "id", None) for base in cls.bases]
                names = {}
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        names[node.name] = None
                    elif isinstance(node, ast.Assign):
                        names.update((t.id, ast.unparse(node.value)) for t in node.targets)
                if names.get("__slots__", "missing") != "()":
                    offenders.append(f"{cls.name} has no empty __slots__")
                offenders.extend(
                    f"{cls.name} defines {name}"
                    for name in ("__eq__", "__hash__", "__len__", "__setattr__")
                    if name in names
                )
    assert found == {name: [base] for name, base in values.items()}
    assert offenders == []


def test_every_value_class_has_a_copy_case():
    # tests/test_formulas.py round-trips one instance of each value class
    # through copy, deepcopy and pickle: every Record subclass, also through
    # another one, and the three container values
    bases = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                bases[cls.name] = {getattr(base, "id", None) for base in cls.bases}
    values = {"KDnf", "LinIneq", "PartialAssignment"} & bases.keys() | {"Record"}
    while more := {name for name, of in bases.items() if of & values} - values:
        values |= more
    assert values - {"Record"} == {type(value).__name__ for value in VALUES}
    assert {"Cnf", "KDnf", "LinIneq", "PartialAssignment", "TraceStep"} < values


def test_cli_knows_no_system_by_name():
    # each backend class loads its own instance and names its budget flags,
    # so the command line imports no backend class or budget check and never
    # branches on which system it runs
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            offenders.extend(
                f"cli.py:{node.lineno} imports {alias.name}"
                for alias in node.names
                if alias.name.endswith("Backend") or alias.name.startswith("check_")
            )
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(
                getattr(n, "id", None) == "system" or getattr(n, "attr", None) == "system"
                for operand in operands
                for n in ast.walk(operand)
            ):
                offenders.append(f"cli.py:{node.lineno} compares a system name")
    assert offenders == []


def test_only_the_example_sources_import_partial_assignment():
    # an example reaches every kernel as one int, its true-literal mask; a
    # kernel that imported PartialAssignment could read rho one variable at
    # a time again.  The command line holds no tracked examples, so it needs no
    # `gc.freeze` and imports no gc
    importers, gc_imports = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and "PartialAssignment" in {
                alias.name for alias in node.names
            }:
                importers.add(path.stem)
            if path.stem == "cli" and isinstance(node, ast.Import):
                gc_imports += [alias.name for alias in node.names if alias.name == "gc"]
            if path.stem == "cli" and isinstance(node, ast.ImportFrom) and node.module == "gc":
                gc_imports.append(node.module)
    assert importers <= {"formulas", "sampling", "formats", "__init__"}
    assert "sampling" in importers and "__init__" in importers
    assert gc_imports == []


def test_no_module_imports_a_name_it_does_not_use():
    # a name bound by an import and never read is dead weight that hides
    # which modules a file really depends on; `__init__.py` imports are its
    # re-exports, and `from __future__` imports bind no name
    offenders = []
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            offenders.extend(f"{where} {name}" for name in names if name not in used)
    assert offenders == []


def test_the_per_example_pc_path_names_no_fraction_or_polynomial():
    # pc and pcr restrict, evaluate and search integer rows: the backend's
    # per-example methods and every polycalc function they call, directly or
    # not, name neither Fraction nor Polynomial, as only the example sources
    # name PartialAssignment
    def parse(name):
        return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))

    functions = {f.name: f for f in parse("polycalc.py").body if isinstance(f, ast.FunctionDef)}
    (backend,) = [node for node in parse("backends.py").body
                  if isinstance(node, ast.ClassDef) and node.name == "PolynomialCalculusBackend"]
    methods = {"restrict_query", "restrict_hyps", "is_countermodel", "countermodel_support",
               "decide", "support"}
    pending = [f for f in backend.body if isinstance(f, ast.FunctionDef) and f.name in methods]
    assert {f.name for f in pending} == methods
    reached, offenders = set(), []
    while pending:
        func = pending.pop()
        for node in ast.walk(func):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in ("Fraction", "Polynomial"):
                offenders.append(f"{func.name}:{node.lineno} names {name}")
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions:
                callee = node.func.id
                if callee not in reached:
                    reached.add(callee)
                    pending.append(functions[callee])
    assert reached == {"restrict_rows", "countermodel_rows", "decide_pc", "build_basis",
                       "gaussian_reduce", "_times", "_layout", "row_literals"}
    assert offenders == []
