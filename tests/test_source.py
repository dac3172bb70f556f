"""Source rules of the library, checked on the syntax tree of every module.

- No `assert` statement: `python -O` strips them, so a check written as
  one silently stops checking.
- No recursion: no function calls itself by name, and no method calls
  itself through `self.<name>`, so no answer depends on the recursion limit.
- Zero dependencies: every absolute import names a standard-library module.
- Every name a module imports is used there (`__init__` re-exports, so it
  is exempt).
- `clawmatch.__all__` lists every name `__init__` imports, each once, and
  nothing else.
- A row is decided by the degree count that words it: no module defines or
  names `_end_bits` or `_is_perfect_row`, and in `expansion` only `_rows`
  and `certificate_problems` name `subset_degrees`, each in its error path.
- Rows are ordered and deduplicated in one place: `expansion.certify`
  names neither `sorted` nor `set`, which `_rows` does.
- A mask's bit string has one reader: only `graphs._bit_strings` names
  `bin`, and `_unmask` and `_rows` both go through it.  `_rows` sorts the
  rows with no `key=`, names no `_unmask`, and names `subset_degrees` only
  in `check_each`, which words a bad factor, so no row is unmasked or
  counted one by one: rows pass by the column check.
- Families are lifted whole: no module defines `lift_walk`, no call of
  `lift` sits in a loop or comprehension, and `certify` names no
  `gray_walk` (`_Gadgets` steps it only to name a member on the error path).
- Every `int.from_bytes` call passes its byte order, which has no default
  before Python 3.11 (`pyproject.toml` declares 3.10).
- `counting` imports only `errors` and `graphs` from the package, so the
  oracle stays independent of the machinery it checks.
- The oracle has one search: `counting` defines exactly one `_iter_*`
  function, the matching search, and no module defines `_iter_two_factors`
  or `connected_components`, which `clawmatch.__all__` no longer lists.
- An edge set has one stored form, the int mask of `EdgeSubset`: only
  `graphs` defines `_mask` and `_unmask`, `EdgeSubset`'s fields are `host`
  and `mask`, and no other module reads `.members`.
- No host edge is looked up by its ends outside `graphs`: only `graphs`
  (which defines it) references `edge_between`, and no module defines or
  calls `has_edge`.  The lift tables read every host edge off incidence
  masks: `expansion._Gadgets`, `_string` and `_ring_factors` name neither
  `edge_between` nor `combinations` (K4's pairings, in `certify`, are read
  off its edge list), and `_ring_factors` reads no `.edges`, so it finds a
  ring's joins at its ports, not by a scan of every edge.
- The brute-force references import few private library names: the mask
  helpers, the digit check, and the scans
  of `structure` that their wrappers name, but not the lift tables, so
  `tests/bruteforce.reference_3ec_remark` lifts without them.
- `classify` is the one diamond and string recognizer: no module defines
  `find_diamonds`, `find_strings` or `_require_cubic_claw_free`, and
  `clawmatch.__all__` lists neither finder.
- `classify` takes its claw refusal from its diamond scan: no `structure`
  function reads `find_claw`.
- A cubic graph's 2-factor count is its matching count, so no module
  defines `count_two_factors` and `clawmatch.__all__` does not list it.
- Every error type is raised: each exception class `errors` defines,
  `GraphError` (the base class) aside, is raised as `raise X(...)` by
  some library module, and `ParallelCollision`, for a fault `build`
  cannot produce (it reports one as `NotSimple`), is neither defined nor
  named anywhere, nor listed in `clawmatch.__all__`.
- No module calls `.splitlines`, which also ends a line at a form feed,
  U+2028 and other separators, so documents are read in the lines
  `open()` gives.
- A diamond string is walked in one place: only `structure._group_strings`
  (which records the connectors `classify` contracts) references
  `_leaving`; `structure.string_passages` reads a string's order off those
  connectors and references none of `_leaving`, `_neighbors`, `_incidence`
  or `edge_between`; and `EdgeReplacement` keeps no copy of its base edge's
  ends.
"""

import ast
import dataclasses
import sys
from pathlib import Path

import pytest

import clawmatch
from clawmatch.graphs import EdgeSubset
from clawmatch.structure import EdgeReplacement

SRC = Path(__file__).resolve().parent.parent / "src" / "clawmatch"
MODULES = sorted(SRC.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(parse(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def _self_calls(fn: ast.FunctionDef | ast.AsyncFunctionDef, method: bool) -> list[int]:
    """Lines in fn's body that call fn: by name, or through self.<name> if fn is a method."""
    lines = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if method:
            if (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id == "self"
            ):
                lines.append(node.lineno)
        elif isinstance(f, ast.Name) and f.id == fn.name:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    tree = parse(path)
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    found = [
        (fn.name, line)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for line in _self_calls(fn, id(fn) in methods)
    ]
    assert found == [], f"{path.name}: recursive calls {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_absolute_imports_are_standard_library(path):
    names = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    outside = [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == [], f"{path.name}: imports outside the standard library {outside}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_imported_name_is_used(path):
    tree = parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert unused == [], f"{path.name}: imported but unused {unused}"


def test_all_lists_each_imported_name_once():
    tree = parse(SRC / "__init__.py")
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    (exported,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    duplicates = sorted(name for name in set(exported) if exported.count(name) > 1)
    assert duplicates == [], f"__all__ lists {duplicates} more than once"
    assert set(exported) == imported, (
        f"imported but not in __all__ {sorted(imported - set(exported))}, "
        f"in __all__ but not imported {sorted(set(exported) - imported)}"
    )


def _top_level_readers(name: str) -> list[str]:
    """module.definition for every top-level statement of the library that names name,
    bare or as an attribute."""
    found = []
    for path in MODULES:
        for top in parse(path).body:
            names = {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute)}
            if name in names:
                found.append(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    return sorted(found)


def test_only_rows_and_certificate_problems_check_rows():
    readers = [r for r in _top_level_readers("subset_degrees") if r.startswith("expansion.")]
    assert readers == ["expansion._rows", "expansion.certificate_problems"]


def _definition(path: Path, name: str) -> ast.AST:
    """The top-level definition of name in path."""
    (top,) = [node for node in parse(path).body if getattr(node, "name", None) == name]
    return top


def _names_in(path: Path, definition: str) -> set[str]:
    """The bare names the top-level definition of path reads."""
    top = _definition(path, definition)
    return {node.id for node in ast.walk(top) if isinstance(node, ast.Name)}


def test_rows_are_ordered_and_deduplicated_in_rows_alone():
    assert {"sorted", "set"}.isdisjoint(_names_in(SRC / "expansion.py", "certify"))
    # the scan does find them: _rows sorts and deduplicates the complements
    assert {"sorted", "set"} <= _names_in(SRC / "expansion.py", "_rows")


def test_only_the_bit_string_reads_bin():
    assert _top_level_readers("bin") == ["graphs._bit_strings"]
    assert "graphs._unmask" in _top_level_readers("_bit_strings")
    assert "expansion._rows" in _top_level_readers("_bit_strings")


def _rows_names(name: str) -> tuple[int, int]:
    """How many times expansion._rows names name bare, and how many of those lie in its
    check_each, the per-factor loop that words a bad factor."""
    rows = list(ast.walk(_definition(SRC / "expansion.py", "_rows")))
    (check_each,) = [n for n in rows if isinstance(n, ast.FunctionDef) and n.name == "check_each"]
    inside = set(map(id, ast.walk(check_each)))
    found = [id(n) for n in rows if isinstance(n, ast.Name) and n.id == name]
    return len(found), len(inside.intersection(found))


def test_rows_sort_with_no_key_and_unmask_only_to_word_an_error():
    rows = list(ast.walk(_definition(SRC / "expansion.py", "_rows")))
    calls = [node for node in rows if isinstance(node, ast.Call)]
    # a Name callee has an id (sorted), an Attribute callee an attr (.sort)
    sorts = [
        c for c in calls if getattr(c.func, "id", getattr(c.func, "attr", "")) in ("sorted", "sort")
    ]
    assert sorts, "the scan finds the sort of _rows"
    assert all(keyword.arg != "key" for call in sorts for keyword in call.keywords)
    # not even the error path unmasks: it reads the bad factor's ids off its columns
    assert _rows_names("_unmask") == (0, 0)
    assert _rows_names("compress")[1], "the scan finds the error path's reads"


@pytest.mark.parametrize("name", ["subset_degrees"])
def test_rows_check_by_columns_and_read_end_masks_only_to_word_an_error(name):
    found, inside = _rows_names(name)
    assert found, f"the scan finds {name} in the error path"
    assert inside == found


def _from_bytes_calls(tree: ast.AST) -> list[tuple[int, bool]]:
    """(line, whether it passes its byte order) for every int.from_bytes call in tree,
    called directly or mapped, where a mapped call must map it over a second iterable."""
    found = []
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        if getattr(call.func, "attr", None) == "from_bytes":
            byteorder = any(keyword.arg == "byteorder" for keyword in call.keywords)
            found.append((call.lineno, len(call.args) >= 2 or byteorder))
        elif getattr(call.func, "id", None) == "map" and call.args:
            if getattr(call.args[0], "attr", None) == "from_bytes":
                found.append((call.lineno, len(call.args) >= 3))
    return found


def test_every_int_from_bytes_passes_its_byte_order():
    # the byte order has a default only from Python 3.11
    for path in MODULES:
        assert all(ok for _, ok in _from_bytes_calls(parse(path))), path.stem
    # the scan finds each form, with and without the byte order
    calls = ("int.from_bytes(b, 'big')", "int.from_bytes(b)", "map(int.from_bytes, s, r)")
    sample = "\n".join((*calls, "map(int.from_bytes, s)"))
    assert _from_bytes_calls(ast.parse(sample)) == [(1, True), (2, False), (3, True), (4, False)]


def test_families_are_lifted_whole_not_member_by_member():
    assert [p.name for p in MODULES if "lift_walk" in _functions_defined(p)] == []
    # lift is called on one member, never in a loop or comprehension over members
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    lifted_in_loops = [
        f"{path.stem}: line {node.lineno}"
        for path in MODULES
        for loop in ast.walk(parse(path))
        if isinstance(loop, loops)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "lift"
    ]
    assert lifted_in_loops == []
    assert "expansion._Gadgets" in _top_level_readers("lift"), "the scan finds lift's callers"
    # certify steps no Gray walk: its families are built as columns
    assert "gray_walk" not in _names_in(SRC / "expansion.py", "certify")
    assert "expansion._Gadgets" in _top_level_readers("gray_walk"), "the error path steps it"


def _package_imports(path: Path) -> set[str]:
    """The clawmatch modules path imports from, relative or absolute imports alike."""
    dotted = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("clawmatch" if node.level else "", node.module)))
            dotted += [f"{module}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("clawmatch.")}


def test_oracle_imports_only_errors_and_graphs():
    assert _package_imports(SRC / "counting.py") <= {"errors", "graphs"}
    # the helper does find package imports: the certify machinery imports the oracle
    assert {"counting", "cyclespace", "structure"} <= _package_imports(SRC / "expansion.py")


def _functions_defined(path: Path) -> list[str]:
    """The names of every function path defines, nested ones and methods included."""
    return [
        node.name
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_the_oracle_has_one_search():
    searches = [f for f in _functions_defined(SRC / "counting.py") if f.startswith("_iter_")]
    assert searches == ["_iter_perfect_matchings"]
    gone = {"_iter_two_factors", "connected_components"}
    assert [p.name for p in MODULES if gone & set(_functions_defined(p))] == []
    assert gone.isdisjoint(clawmatch.__all__)
    # the scan does find definitions: the brute-force references define 2-factor searches
    bruteforce = _functions_defined(Path(__file__).with_name("bruteforce.py"))
    assert "recursive_iter_two_factors" in bruteforce


def _members_readers(paths) -> set[str]:
    """The stems of the modules among paths that read an attribute named members."""
    return {
        path.stem
        for path in paths
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute) and node.attr == "members"
    }


def test_edge_sets_have_one_stored_form():
    defined = sorted(
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.FunctionDef) and node.name in ("_mask", "_unmask")
    )
    assert defined == ["graphs._mask", "graphs._unmask"]
    assert [f.name for f in dataclasses.fields(EdgeSubset)] == ["host", "mask"]
    assert _members_readers(MODULES) <= {"graphs"}
    # the scan does find reads: the brute-force references read members
    assert _members_readers([Path(__file__).with_name("bruteforce.py")]) == {"bruteforce"}


def _referencing(paths, name: str) -> set[str]:
    """The stems of the modules among paths that define, name or read an attribute called name."""
    return {
        path.stem
        for path in paths
        for node in ast.walk(parse(path))
        if (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name)
    }


@pytest.mark.parametrize("name", ["_end_bits", "_is_perfect_row"])
def test_no_module_names_the_end_mask_row_test(name):
    # a failed row is decided by the degree count that words it
    assert _referencing(MODULES, name) == set()


def test_edges_are_looked_up_by_their_ends_in_graphs_only():
    assert _referencing(MODULES, "edge_between") == {"graphs"}
    tables = {"expansion._Gadgets", "expansion._string", "expansion._ring_factors"}
    for name in ("edge_between", "combinations"):
        assert tables.isdisjoint(_top_level_readers(name)), name
    assert "expansion._ring_factors" not in _top_level_readers("edges")
    # the scan does find both: certify pairs K4's edges, and the certificate check codes
    # every edge
    assert "expansion.certify" in _top_level_readers("combinations")
    assert "expansion.certificate_problems" in _top_level_readers("edges")
    assert _referencing(MODULES, "has_edge") == set()
    # the scan does find both forms: the brute-force references define and call has_edge
    assert _referencing([Path(__file__).with_name("bruteforce.py")], "has_edge") == {"bruteforce"}


BRUTEFORCE_PRIVATE_IMPORTS = {
    "_group_strings",
    "_is_decimal",
    "_leaving",
    "_mask",
    "_scan_diamonds",
    "_unmask",
    "_verify_cover",
}


def test_the_brute_force_references_import_only_the_listed_private_names():
    imported = {
        alias.name
        for node in ast.walk(parse(Path(__file__).with_name("bruteforce.py")))
        if isinstance(node, ast.ImportFrom) and node.module.startswith("clawmatch")
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert imported <= BRUTEFORCE_PRIVATE_IMPORTS, sorted(imported - BRUTEFORCE_PRIVATE_IMPORTS)
    # the scan does find private imports: the 3EC reference masks its lifts with _mask
    assert "_mask" in imported


def test_diamond_strings_are_walked_in_one_place():
    assert _top_level_readers("_leaving") == ["structure._group_strings"]
    for table in ("_leaving", "_neighbors", "_incidence", "edge_between"):
        assert "structure.string_passages" not in _top_level_readers(table), table
    # the scan does find attribute reads: the diamond scan reads _neighbors
    assert "structure._scan_diamonds" in _top_level_readers("_neighbors")
    assert [f.name for f in dataclasses.fields(EdgeReplacement)] == [
        "corners",
        "string",
        "connectors",
    ]


def test_no_module_splits_lines_with_splitlines():
    assert _referencing(MODULES, "splitlines") == set()
    # the scan does find calls: the CLI tests split captured output with it
    assert _referencing([Path(__file__).with_name("test_cli.py")], "splitlines") == {"test_cli"}


def test_classify_is_the_one_diamond_recognizer():
    gone = {"find_diamonds", "find_strings", "_require_cubic_claw_free"}
    assert [p.name for p in MODULES if gone & set(_functions_defined(p))] == []
    assert gone.isdisjoint(clawmatch.__all__)
    # the scan does find definitions: the brute-force helpers define all three
    assert gone <= set(_functions_defined(Path(__file__).with_name("bruteforce.py")))


def test_every_error_type_is_raised():
    classes = {n.name for n in parse(SRC / "errors.py").body if isinstance(n, ast.ClassDef)}
    raised = {
        node.exc.func.id
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
    }
    assert {"GraphError", "ParseError", "NotSimple"} <= classes
    assert sorted(classes - {"GraphError"} - raised) == []
    defined = {
        node.name
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ClassDef)
    }
    assert "ParallelCollision" not in defined
    assert _referencing(MODULES, "ParallelCollision") == set()
    assert "ParallelCollision" not in clawmatch.__all__


def test_structure_reads_no_claw_scan():
    assert not [r for r in _top_level_readers("find_claw") if r.startswith("structure.")]
    # the scan does find readers: the 3EC remark checks its precondition with find_claw
    assert "expansion.verify_3ec_remark" in _top_level_readers("find_claw")


def test_two_factors_are_not_counted_apart_from_matchings():
    assert _referencing(MODULES, "count_two_factors") == set()
    assert "count_two_factors" not in clawmatch.__all__
    # the scan does find definitions: counting defines the matching count
    assert "count_perfect_matchings" in _functions_defined(SRC / "counting.py")
