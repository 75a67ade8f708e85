"""Name guards over `src/ergo`, with the stdlib only (no linter): every global
a function reads must be an attribute of its module or a builtin, every
module-level import must be read in its module, every parameter of a
function must be read in its body, every export but three is read by the
package, the CLI or the benchmark, one function alone imports a private
scipy module, one kernel takes every matrix 2-norm, no code that
`markov.mixing_time` may run reads the weighted-median kernel, one
generator writes the renormalized powers of a chain, the oracles import
from the package only `errors` and `linalg`, `seminorm` calls the
brute-force oracle only for the incidence weight at p = 1, and only the
incidence closed forms dispatch on a weight's kind."""

import ast
import builtins
import importlib
import pathlib
import symtable

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ergo"
PERFBENCH = SRC.parents[1] / "perfbench"


def _nested_scopes(table):
    for child in table.get_children():
        yield child
        yield from _nested_scopes(child)


def test_function_globals_are_defined():
    undefined = []
    for path in sorted(SRC.glob("*.py")):
        name = "ergo" if path.stem == "__init__" else f"ergo.{path.stem}"
        module = importlib.import_module(name)
        table = symtable.symtable(path.read_text(), str(path), "exec")
        for scope in _nested_scopes(table):
            if scope.get_type() != "function":
                continue
            for sym in scope.get_symbols():
                ref = sym.get_name()
                if (sym.is_referenced() and sym.is_global() and not sym.is_declared_global()
                        and not hasattr(module, ref) and not hasattr(builtins, ref)):
                    undefined.append(f"{name}.{scope.get_name()} -> {ref}")
    assert undefined == []


def _dotted(node):
    """'a.b.c' for a chain of attribute reads on a name, None otherwise."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def test_module_imports_are_read():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = _dotted(node)
                if name:
                    # every prefix of a.b.c is read as well
                    parts = name.split(".")
                    read.update(".".join(parts[:k]) for k in range(1, len(parts) + 1))
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                bound = (a.asname or a.name for a in node.names)
                unused.extend(f"{path.stem}.{b}" for b in bound if b not in read)
    assert unused == []


def test_function_parameters_are_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            # a read in a nested function counts
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread.extend(f"{path.stem}.{fn.name}({arg.arg})" for arg in params
                          if arg.arg not in read)
    assert unread == []


#: exports that only the tests call, each kept as a reference leg
TEST_ONLY_EXPORTS = {
    # the LMI route to the l2 seminorm, which acceptance criterion 9 checks
    # against the closed form
    "lmi_l2",
    # the tau_2 < 1 test of acceptance criterion 11
    "tau2_subunit_check",
    # the local-search upper bound on Psi_q that the closed forms must meet
    "oracle_deflation",
}


def test_exported_names_have_a_caller():
    read = set()
    paths = [p for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"]
    for path in paths + sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    ergo = importlib.import_module("ergo")
    uncalled = {name for name in ergo.__all__
                if not isinstance(getattr(ergo, name), type) and name not in read}
    assert uncalled == TEST_ONLY_EXPORTS


def _private_scipy(module):
    parts = module.split(".")
    return parts[0] == "scipy" and any(part.startswith("_") for part in parts[1:])


def test_one_function_imports_private_scipy():
    # HiGHS's model class is private to scipy; `seminorm._highs` imports it
    # and names the scipy release it needs when it is missing
    importers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scopes = [(path.stem, tree)] + [
            (f"{path.stem}.{fn.name}", fn) for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for name, scope in scopes:
            # a scope's own statements, not those of the functions it defines
            stack, modules = list(ast.iter_child_nodes(scope)), []
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(node, ast.Import):
                    modules += [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                    modules += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                stack.extend(ast.iter_child_nodes(node))
            if any(_private_scipy(module) for module in modules):
                importers.append(name)
    assert importers == ["seminorm._highs"]


def test_listed_functions_alone_take_binary_exponents():
    # `ergodicity._scaled` scales every tau and Psi kernel's operands by
    # powers of two; `seminorm._deflate_linf` fixes the box exponent that
    # keeps its LP tolerances relative; `seminorm._unit_anchor` scales a
    # projector's anchor, which is of degree zero in P_v, as `_scaled` does
    # its v; and `oracle.oracle_weighted_seminorm` scales R, as the oracles
    # may not import `_scaled`.  No other function picks a scale
    takers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack = list(ast.iter_child_nodes(fn))
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if (isinstance(node, ast.Call)
                        and (_dotted(node.func) or "").split(".")[-1] == "frexp"):
                    takers.append(f"{path.stem}.{fn.name}")
                    break
                stack.extend(ast.iter_child_nodes(node))
    assert takers == ["ergodicity._scaled", "oracle.oracle_weighted_seminorm",
                      "seminorm._unit_anchor", "seminorm._deflate_linf"]


#: singular-value routines: each one gives a matrix 2-norm
SVD_ROUTINES = {"svd", "svdvals", "cond"}
#: eigenvalue routines, which give a 2-norm on a Gram matrix
EIGEN_ROUTINES = {"eig", "eigh", "eigvals", "eigvalsh", "eigs", "eigsh",
                  "syev", "syevd", "syevr", "syevx", "dsyev", "dsyevd", "dsyevr", "dsyevx"}
#: every function that may take a matrix 2-norm, with its routes
SPECTRAL_NORM_TAKERS = {
    # the one p = 2 kernel: the top eigenvalue of a scaled Gram matrix
    "ergodicity._spectral_norms": {"gram-eigen"},
    # the SVD leg that the tests and `verify` hold the closed forms against
    "linalg.induced_pnorm": {"norm-2"},
    # the definition-level p = 2 oracles, independent legs like
    # `linalg.induced_pnorm`: SVDs on a basis of v-perp and of the kernel
    # complement.  The guard keeps out a second p = 2 closed form, not the
    # oracles that shadow the one there is
    "oracle.oracle_tau": {"svd"},
    "oracle.oracle_weighted_seminorm": {"svd"},
    # these need the smallest singular value, which the Gram matrix cannot
    # resolve: a condition number, or the rank of a weight
    "seminorm.SeminormWeight.factored": {"svd"},
    "linalg._condition": {"svd"},
    "verify.suite_spectral": {"svd"},
    "oracle._weight_rank_check": {"svd"},
}


def test_oracles_import_only_errors_and_linalg():
    # the oracles shadow the closed forms of `ergodicity` and `seminorm`, so
    # they must not come to share code with them: every import from the
    # package, at any depth of `oracle.py`, is of `errors` or `linalg`
    path = SRC / "oracle.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            # `from . import x` names modules; `from .x import y` names module x
            imported |= {a.name for a in node.names} if node.module is None else {node.module}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ergo":
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.split(".")[0] == "ergo"}
    assert imported == {"errors", "linalg"}


def _is_gram(node):
    """X.T @ X or X @ X.T."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
        return False
    for a, b in ((node.left, node.right), (node.right, node.left)):
        if isinstance(a, ast.Attribute) and a.attr == "T" and ast.dump(a.value) == ast.dump(b):
            return True
    return False


def _spectral_routes(fn):
    """The routes by which fn may take a matrix 2-norm.  A `norm` call with
    ord 2 counts even on a vector, where it would be the Euclidean norm;
    the package writes that one without ord."""
    routes = set()
    calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call)]
    for call in calls:
        name = (_dotted(call.func) or "").split(".")[-1]
        if name == "norm":
            orders = call.args[1:2] + [k.value for k in call.keywords if k.arg == "ord"]
            if any(isinstance(o, ast.Constant) and o.value == 2 for o in orders):
                routes.add("norm-2")
        elif name in SVD_ROUTINES:
            routes.add("svd")
    if (any((_dotted(call.func) or "").split(".")[-1] in EIGEN_ROUTINES for call in calls)
            and any(_is_gram(node) for node in ast.walk(fn))):
        routes.add("gram-eigen")
    return routes


def test_one_kernel_takes_the_spectral_norm():
    # a second p = 2 kernel, an SVD or an eigensolve on a Gram matrix,
    # must not creep back in beside `ergodicity._spectral_norms`
    takers = {}
    for module, (functions, classes, _) in _definitions().items():
        scopes = list(functions.items()) + [(f"{cls}.{name}", fn) for cls, methods in classes.items()
                                            for name, fn in methods.items()]
        for name, fn in scopes:
            routes = _spectral_routes(fn)
            if routes:
                takers[f"{module}.{name}"] = routes
    assert takers == SPECTRAL_NORM_TAKERS


def _definitions():
    """Every module of `src/ergo` as (functions, classes, imports): its
    top-level functions by name, its classes as {method name: node} by name,
    and the names it imports from sibling modules as (module, name)."""
    modules = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions, classes, imports = {}, {}, {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                classes[node.name] = {fn.name: fn for fn in node.body
                                      if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))}
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imports.update((a.asname or a.name, (node.module, a.name)) for a in node.names)
        modules[path.stem] = functions, classes, imports
    return modules


def _reachable(modules, module, name):
    """(module, qualified name, node) of every function that the function
    `name` of `module` may run, itself included.

    A name read in a reached body that resolves, in its module or through an
    import, to a function reaches it, and one that resolves to a class
    reaches its constructor methods.  An attribute `.x` reaches every method
    x of every class, properties among them, so reading a report's property
    counts as running it."""
    methods_named = {}
    for mod, (_, classes, _) in modules.items():
        for cls, methods in classes.items():
            for meth, node in methods.items():
                methods_named.setdefault(meth, []).append((mod, f"{cls}.{meth}", node))

    def resolve(mod, ident):
        functions, classes, imports = modules[mod]
        if ident in imports:
            mod, ident = imports[ident]
            functions, classes, _ = modules.get(mod, ({}, {}, {}))
        if ident in functions:
            return [(mod, ident, functions[ident])]
        if ident in classes:
            return [(mod, f"{ident}.{m}", node) for m, node in classes[ident].items()
                    if m in ("__new__", "__init__", "__post_init__")]
        return []

    seen, todo = {}, resolve(module, name)
    while todo:
        mod, qual, fn = todo.pop()
        if (mod, qual) in seen:
            continue
        seen[(mod, qual)] = fn
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                todo += resolve(mod, node.id)
            elif isinstance(node, ast.Attribute):
                todo += methods_named.get(node.attr, [])
    return [(mod, qual, fn) for (mod, qual), fn in seen.items()]


def test_mixing_scan_never_runs_the_median_kernel():
    # mixing_time's report computes identity_residual on its first read; the
    # scan itself must not take a tau_inf coefficient
    modules = _definitions()
    kernels = {"_tau_values", "_column_medians"}

    def reads_kernel(fn):
        return any((isinstance(node, ast.Name) and node.id in kernels)
                   or (isinstance(node, ast.Attribute) and node.attr in kernels)
                   for node in ast.walk(fn))

    scan = _reachable(modules, "markov", "mixing_time")
    names = {f"{mod}.{qual}" for mod, qual, _ in scan}
    assert {"markov.mixing_time", "markov._worst_row_tv", "linalg.dominant_pair",
            "linalg.StochasticMatrix.__init__", "linalg._stochastic_stack"} <= names
    assert [f"{mod}.{qual}" for mod, qual, fn in scan if reads_kernel(fn)] == []
    # the guard sees the kernel where it is: behind the property
    residual = _reachable(modules, "markov", "MixingReport")
    assert not any(qual == "MixingReport.identity_residual" for _, qual, _ in residual)
    assert reads_kernel(modules["markov"][1]["MixingReport"]["identity_residual"])


def _scopes(modules):
    """(qualified name, node) of every top-level function and method."""
    for module, (functions, classes, _) in modules.items():
        yield from ((f"{module}.{name}", fn) for name, fn in functions.items())
        for cls, methods in classes.items():
            yield from ((f"{module}.{cls}.{name}", fn) for name, fn in methods.items())


def test_one_generator_scans_the_powers():
    # `markov._scan` writes A^k = A^(k-1) @ A renormalized once for
    # mixing_time, its identity_residual replay and verify's mixing suite;
    # distance_to_stationarity's squaring is a different route to one power
    modules = _definitions()
    callers = sorted(name for name, fn in _scopes(modules)
                     if any(isinstance(node, ast.Call)
                            and (_dotted(node.func) or "").split(".")[-1] == "_renormalize_rows"
                            for node in ast.walk(fn)))
    assert callers == ["markov._scan", "markov.distance_to_stationarity"]
    functions, classes, _ = modules["markov"]
    for fn in (functions["mixing_time"], classes["MixingReport"]["identity_residual"]):
        assert not any((isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
                       or (isinstance(node, ast.Call)
                           and (_dotted(node.func) or "").split(".")[-1] in ("matmul", "dot"))
                       for node in ast.walk(fn)), fn.name


def test_seminorm_calls_the_oracle_only_for_incidence_p1():
    # A P_k, P_k the projector onto ker R-perp, makes every weight a closed
    # form at every n but the incidence one at p = 1, which only
    # `induced_seminorm` hands to the brute-force oracle; the stacked
    # reduction may run no oracle code at all
    modules = _definitions()
    assert "_off_closed_forms" not in modules["seminorm"][0]
    callers = sorted(name for name, fn in _scopes({"seminorm": modules["seminorm"]})
                     if any(isinstance(node, ast.Call)
                            and (_dotted(node.func) or "").split(".")[-1]
                            == "oracle_weighted_seminorm"
                            for node in ast.walk(fn)))
    assert callers == ["seminorm.induced_seminorm"]
    reduction = _reachable(modules, "seminorm", "_reduced_seminorms")
    assert "seminorm._kernel_projected" in {f"{mod}.{qual}" for mod, qual, _ in reduction}
    assert [f"{mod}.{qual}" for mod, qual, _ in reduction if mod == "oracle"] == []


#: every function that reads a weight's `.kind`: the incidence closed forms,
#: the incidence rows built on read, the oracle's two-level points, the repr
#: and the CLI payloads
KIND_READERS = {"seminorm.vector_seminorm", "seminorm.induced_seminorm",
                "seminorm.SeminormWeight.matrix", "seminorm.SeminormWeight.__repr__",
                "oracle.oracle_weighted_seminorm", "cli.cmd_seminorm", "cli.cmd_certify"}


def test_only_the_incidence_closed_forms_read_the_weight_kind():
    # a weight is the data of R = S Q with its kind a label: the stacked
    # reduction reads the tau problem the weight builds once, and neither
    # reads the kind, builds a weight nor solves with scipy
    modules = _definitions()
    readers = {name for name, fn in _scopes(modules)
               if any(isinstance(node, ast.Attribute) and node.attr == "kind"
                      and isinstance(node.ctx, ast.Load) for node in ast.walk(fn))}
    assert readers == KIND_READERS
    reduction = modules["seminorm"][0]["_reduced_seminorms"]
    names = {_dotted(node) for node in ast.walk(reduction)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert not any(name and (name.split(".")[0] in ("scipy", "SeminormWeight")
                             or name.endswith(".kind")) for name in names)
