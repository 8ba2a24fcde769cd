import ast
import re
from pathlib import Path

import ensddm


def test_every_export_resolves():
    missing = [name for name in ensddm.__all__ if not hasattr(ensddm, name)]
    assert not missing
    assert len(set(ensddm.__all__)) == len(ensddm.__all__)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so it is left out
    unused = []
    for path in sorted(Path(ensddm.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused


def _references(tree, strings):
    """(name, line) of every name, attribute and, with `strings`, every
    identifier inside a string constant (the benchmark's hook targets)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            for word in re.findall(r"\w+", node.value):
                yield word, node.lineno


def test_every_definition_is_used_outside_the_tests():
    # every function, method and class of the package is referenced outside
    # its own definition, by the package or the benchmark, or is exported
    pkg = sorted(Path(ensddm.__file__).parent.glob("*.py"))
    bench = sorted((Path(ensddm.__file__).parents[2] / "ensbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in pkg + bench}
    refs = [(path, name, line) for path in pkg + bench
            for name, line in _references(trees[path], strings=path in bench)]
    unused = []
    for path in pkg:
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") or node.name in ensddm.__all__:
                continue
            if not any(name == node.name and
                       (where != path or not node.lineno <= line <= node.end_lineno)
                       for where, name, line in refs):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"used only by tests, or not at all: {unused}"


def test_only_the_spaces_and_the_stopping_norm_read_the_velocity_rows():
    # both spaces put velocity rows first; every other module passes whole
    # dof blocks to the spaces' operators
    owners = {"stokes_fem.py", "darcy_fem.py", "interface_state.py"}
    readers = []
    for path in sorted(Path(ensddm.__file__).parent.glob("*.py")):
        if path.name in owners:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "n_velocity"]
    assert not readers


def test_each_element_basis_has_one_source():
    # the spaces evaluate their own fields; no other module builds a basis
    owners = {"mini_basis": "stokes_fem.py", "basis_values": "darcy_fem.py"}
    others = []
    for path in sorted(Path(ensddm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [(node.name, node.lineno) for node in ast.walk(tree)
                   if isinstance(node, ast.alias)]
        others += [f"{path.name}:{line} {name}"
                   for name, line in imports + list(_references(tree, strings=True))
                   if owners.get(name, path.name) != path.name]
    assert not others


def test_only_the_shared_stokes_data_builds_the_element_blocks():
    # every Stokes matrix of a run is the data of the run's StokesElements
    # plus its interface terms; nothing else builds the element blocks
    kernels = {"deformation_element_matrices", "div_element_matrices"}
    others = []
    for path in sorted(Path(ensddm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = [node for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) and node.name == "StokesElements"]
        inside = {(name, line) for node in owner for name, line in _references(node, False)}
        imports = [(node.name, node.lineno) for node in ast.walk(tree)
                   if isinstance(node, ast.alias)]
        others += [f"{path.name}:{line} {name}"
                   for name, line in imports + list(_references(tree, strings=True))
                   if name in kernels and (name, line) not in inside]
    assert not others


def _reads(node, names, scope=()):
    """(enclosing definitions, line, name) of every read of `names` under
    `node`, the definitions joined by dots ("Class.method")."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        elif isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load):
            name = child.id if isinstance(child, ast.Name) else child.attr
            if name in names:
                yield ".".join(scope), child.lineno, name
        yield from _reads(child, names, inner)


def test_the_interface_mass_has_one_source():
    # every interface mass term, Stokes and Darcy, comes from the two
    # interface operators' trace and load; only they make the edge mass
    readers = {"edge_mass": {"interface_mass"},
               "interface_mass": {"StokesInterfaceInfo.__init__", "DarcyInterfaceInfo.__init__"}}
    others = []
    for path in sorted(Path(ensddm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        others += [f"{path.name}:{line} {scope} reads {name}"
                   for scope, line, name in _reads(tree, readers)
                   if scope not in readers[name]]
    assert not others


def test_one_builder_makes_the_sample_right_hand_sides():
    # the set-up and the residual check take each sample's forcing, natural
    # head data and boundary values from the one builder `_sample_rhs`
    builders = {"assemble_stokes_volume_rhs", "assemble_darcy_volume_rhs",
                "add_darcy_natural_head_rhs", "stokes_dirichlet_values"}
    path = Path(ensddm.__file__).parent / "ensemble_driver.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = list(_reads(tree, builders))
    assert {name for _, _, name in reads} == builders
    others = [f"{path.name}:{line} {scope} reads {name}"
              for scope, line, name in reads if scope != "_sample_rhs"]
    assert not others
