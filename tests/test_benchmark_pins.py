"""Every trajformer name that the benchmark in ``perfbench/`` reaches resolves.

The benchmark runs the parent and the changed tree with its own copy of
``perfbench/``, so a renamed or re-signed function it uses breaks the
benchmark of that change. This reads the names from its source, without
running it: the ``spans.TARGETS`` it wraps, every ``from trajformer... import``,
every attribute read through an imported trajformer module (``m.causal_mask``,
``ad.backward``, ``cli.main``) and the arguments of each call to one of them.
"""

import ast
import importlib
import inspect
from pathlib import Path


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(module: str, name: str):
    """``module.name``, importing it if it is a submodule; None if it is absent."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return None


def _span_targets() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(f"trajformer.{elt.elts[0].value}", elt.elts[1].value)
                    for elt in node.value.elts]
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def _pins():
    """(where, module, name, call or None) for every trajformer name the sources reach."""
    for module, name in _span_targets():
        yield "spans.py TARGETS", module, name, None
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported, modules = {}, {}  # local name -> (module, name); alias -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trajformer"):
                for alias in node.names:
                    local = alias.asname or alias.name
                    imported[local] = (node.module, alias.name)
                    yield f"{path.name} line {node.lineno}", node.module, alias.name, None
                    if inspect.ismodule(_resolve(node.module, alias.name)):
                        modules[local] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            call = node if isinstance(node, ast.Call) else None
            target = node.func if call else node
            if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                    and target.value.id in modules):
                yield (f"{path.name} line {node.lineno}", modules[target.value.id],
                       target.attr, call)
            elif call and isinstance(target, ast.Name) and target.id in imported:
                yield (f"{path.name} line {node.lineno}", *imported[target.id], call)


def test_every_name_perfbench_reaches_resolves():
    pins = list(_pins())
    found = {where.split()[0] for where, *_ in pins}
    assert {"spans.py", "workload.py", "checks.py"} <= found
    assert any(name == "multi_head_attention" and call for _, _, name, call in pins)
    broken = []
    for where, module, name, call in pins:
        obj = _resolve(module, name)
        if obj is None:
            broken.append(f"{where}: {module}.{name} is gone")
        elif call and not any(isinstance(a, ast.Starred) for a in call.args) \
                and all(k.arg for k in call.keywords):
            try:
                inspect.signature(obj).bind(*call.args, **{k.arg: k for k in call.keywords})
            except TypeError as exc:
                broken.append(f"{where}: {module}.{name} no longer takes these arguments ({exc})")
    assert not broken, "\n".join(dict.fromkeys(broken))
