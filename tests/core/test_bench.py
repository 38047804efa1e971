"""Tests for the parity gate of `repro bench` (`repro.core.bench`)."""

import pytest

from repro.core.bench import PARITY_FLAGS, failed_parity_flags


def _doc(value):
    """A bench document with every parity flag set to ``value``."""
    doc = {}
    for path in PARITY_FLAGS:
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return doc


class TestFailedParityFlags:
    def test_all_true_is_clean(self):
        assert failed_parity_flags(_doc(True)) == []

    def test_every_false_flag_named_in_declared_order(self):
        assert failed_parity_flags(_doc(False)) == [
            ".".join(path) for path in PARITY_FLAGS
        ]

    @pytest.mark.parametrize("value", [None, 1, "true"])
    def test_only_literal_true_passes(self, value):
        assert len(failed_parity_flags(_doc(value))) == len(PARITY_FLAGS)
