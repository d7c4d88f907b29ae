"""How the record codec and the float text sit beside ``io``: the import
layers numtext <- records <- io, and one function object per public name."""

import ast
from pathlib import Path

import innoise
from innoise import io, numtext, records


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
