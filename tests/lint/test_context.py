"""FileContext plumbing: suppressions, import resolution, AST helpers."""

import ast

import pytest

from repro.lint import FileContext
from repro.lint.context import (
    build_import_table,
    constant_value,
    nested_function_names,
    parse_suppressions,
)


def _expr(source):
    return ast.parse(source, mode="eval").body


class TestParseSuppressions:
    def test_line_numbers_are_one_based(self):
        lines = ["x = 1", "y = 2  # repro: allow[det-uuid] ok"]
        assert parse_suppressions(lines) == {2: {"det-uuid"}}

    def test_several_ids_on_one_line(self):
        lines = ["f()  # repro: allow[det-uuid] a  # repro: allow[det-wallclock] b"]
        assert parse_suppressions(lines) == {1: {"det-uuid", "det-wallclock"}}

    def test_whitespace_around_marker_is_tolerated(self):
        lines = ["f()  #repro:allow[rng-raw-stream]", "g()  #   repro:   allow[det-uuid]"]
        assert parse_suppressions(lines) == {
            1: {"rng-raw-stream"},
            2: {"det-uuid"},
        }

    def test_lines_without_marker_are_absent(self):
        assert parse_suppressions(["# allow[det-uuid]", "# repro: allow"]) == {}


class TestBuildImportTable:
    @pytest.mark.parametrize(
        "source, local, canonical",
        [
            ("import time", "time", "time"),
            ("import datetime as _dt", "_dt", "datetime"),
            ("import os.path", "os", "os"),
            ("import os.path as osp", "osp", "os.path"),
            ("from random import random", "random", "random.random"),
            ("from uuid import uuid4 as make_id", "make_id", "uuid.uuid4"),
            ("from numpy.random import default_rng", "default_rng", "numpy.random.default_rng"),
        ],
    )
    def test_maps_local_name_to_canonical(self, source, local, canonical):
        assert build_import_table(ast.parse(source))[local] == canonical

    def test_relative_imports_are_skipped(self):
        table = build_import_table(ast.parse("from .rng import RandomStream\nfrom . import units"))
        assert table == {}

    def test_imports_inside_functions_are_seen(self):
        tree = ast.parse("def f():\n    import time\n    return time.time()\n")
        assert build_import_table(tree) == {"time": "time"}


class TestDottedName:
    def _ctx(self, source):
        return FileContext.from_source("snippet.py", source)

    def test_alias_resolves_to_canonical_chain(self):
        ctx = self._ctx("import datetime as _dt\n")
        node = _expr("_dt.datetime.now")
        assert ctx.dotted_name(node) == "datetime.datetime.now"

    def test_from_import_resolves(self):
        ctx = self._ctx("from time import time\n")
        assert ctx.dotted_name(_expr("time")) == "time.time"

    def test_unimported_base_resolves_to_none(self):
        ctx = self._ctx("import time\n")
        assert ctx.dotted_name(_expr("self._rng.random")) is None

    def test_call_on_call_result_resolves_to_none(self):
        # The chain base is a Call, not a Name: nothing to resolve.
        ctx = self._ctx("import random\n")
        assert ctx.dotted_name(_expr("random.Random(1).random")) is None

    def test_call_name_uses_the_call_target(self):
        ctx = self._ctx("import uuid\n")
        call = _expr("uuid.uuid4()")
        assert ctx.call_name(call) == "uuid.uuid4"

    def test_is_suppressed_matches_rule_and_line_exactly(self):
        ctx = self._ctx("import uuid\nuuid.uuid4()  # repro: allow[det-uuid] fixture\n")
        assert ctx.is_suppressed("det-uuid", 2)
        assert not ctx.is_suppressed("det-uuid", 1)
        assert not ctx.is_suppressed("det-wallclock", 2)

    def test_from_source_raises_on_bad_syntax(self):
        with pytest.raises(SyntaxError):
            FileContext.from_source("bad.py", "def f(:\n")


class TestNestedFunctionNames:
    def test_top_level_functions_are_not_nested(self):
        assert nested_function_names(ast.parse("def f():\n    pass\n")) == set()

    def test_closure_is_nested(self):
        source = "def outer():\n    def inner():\n        pass\n    return inner\n"
        assert nested_function_names(ast.parse(source)) == {"inner"}

    def test_methods_are_not_nested(self):
        source = "class C:\n    def method(self):\n        pass\n"
        assert nested_function_names(ast.parse(source)) == set()

    def test_function_inside_method_is_nested(self):
        source = (
            "class C:\n"
            "    def method(self):\n"
            "        def helper():\n"
            "            pass\n"
            "        return helper\n"
        )
        assert nested_function_names(ast.parse(source)) == {"helper"}

    def test_async_closure_is_nested(self):
        source = "async def outer():\n    async def inner():\n        pass\n"
        assert nested_function_names(ast.parse(source)) == {"inner"}


class TestConstantValue:
    @pytest.mark.parametrize(
        "source, value",
        [("3", 3.0), ("2.5", 2.5), ("-10", -10.0), ("--4.0", 4.0)],
    )
    def test_numeric_literals(self, source, value):
        assert constant_value(_expr(source)) == value

    @pytest.mark.parametrize("source", ["'dB'", "x", "-x", "1 + 2", "None"])
    def test_non_numeric_gives_none(self, source):
        assert constant_value(_expr(source)) is None
