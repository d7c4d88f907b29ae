"""How the modules sit beside each other: the import layers numtext <-
records <- io, one function object per public name, and every conversion
between levels and linear powers in model."""

import ast
import re
from pathlib import Path

import innoise
from innoise import io, model, numtext, records


def _innoise_imports(module) -> set[str]:
    """The innoise modules that ``module``'s source imports, by name."""
    found = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {a.name for a in node.names} if node.module is None else {node.module}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("innoise"):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.startswith("innoise")}
    return found


def test_numtext_imports_no_innoise_module_and_records_only_model_and_numtext():
    assert _innoise_imports(numtext) == set()
    assert _innoise_imports(records) == {"model", "numtext"}


def test_io_binds_none_of_the_moved_private_names():
    # so that a patch of io's attribute, which the codec would never look
    # up, raises instead of passing without effect
    moved = [
        name for module in (numtext, records) for name in vars(module)
        if name.startswith("_") and not name.startswith("__")
    ]
    assert "_write_table" in moved and "_CHUNK_CHARS" in moved
    assert [name for name in moved if hasattr(io, name)] == []


def test_record_codec_is_one_function_object_under_every_name():
    # the benchmark's tracer wraps every binding of the same function object
    assert innoise.read_record is io.read_record is records.read_record
    assert innoise.write_record is io.write_record is records.write_record


# numpy's and math's powers, exponentials and logarithms, by name
_POWER_OR_LOG = re.compile(r"(float_)?pow(er)?|exp(2|m1)?|log(2|10|1p|addexp2?)?")


def _powers_and_logarithms(path: Path) -> set[tuple[str, str]]:
    """(function, what) for each call of a numpy or math power, exponential
    or logarithm in ``path``, and each ``**`` with a float literal base."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}".lstrip(".")
        if isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy"):
            found.update((where, f"from {node.module} import {a.name}")
                         for a in node.names if _POWER_OR_LOG.fullmatch(a.name))
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy", "math") and _POWER_OR_LOG.fullmatch(node.attr)):
            found.add((where, f"{node.value.id}.{node.attr}"))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if isinstance(node.left, ast.Constant) and isinstance(node.left.value, float):
                found.add((where, f"{node.left.value!r} **"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


# Where a module other than model may take a power or a logarithm, and why.
POWER_OR_LOG_OUTSIDE_MODEL = {
    # the generator's own array conversion, until ROADMAP item 1 step 1
    # replaces it: model's dB<->mW conversions are scalar, and a scalar call
    # does not always round as numpy's array one does, so going through them
    # would change the records' bytes, and a copy of these calls in model
    # would be a second implementation to keep
    ("synth", "generate_wgn", "np.log1p"),
    ("synth", "generate_wgn", "np.log10"),
}


def test_levels_become_powers_and_powers_levels_only_in_model():
    found = {
        (path.stem, where, what)
        for path in Path(innoise.__file__).parent.glob("*.py") if path.stem != "model"
        for where, what in _powers_and_logarithms(path)
    }
    assert found == POWER_OR_LOG_OUTSIDE_MODEL
    # the check sees model's own conversions
    assert {what for _, what in _powers_and_logarithms(Path(model.__file__))} >= {
        "np.power", "math.log10", "10.0 **"
    }
