"""Undefined-name guard: every global a function in `src/ergo` reads must be
an attribute of its module or a builtin (stdlib `symtable`, no linter)."""

import builtins
import importlib
import pathlib
import symtable

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ergo"


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
