"""One list of public names per layer, every name resolves, and the span tracer installs.

``stochint`` re-exports each layer's ``__all__`` and lists no name of its
own but ``__version__``, so a name is added or removed in one place.  In
the same way ``basis._checked_int``, ``_checked_float`` and ``_checked_name``
are the one integer, float and name rule: no other module calls
``operator.index``, imports ``numbers`` or writes a ``"; known: "`` message.

``perfbench/tracer.py``'s ``install`` calls ``getattr`` on each name in the
``__all__`` of every stochint layer and wraps the functions it finds.  A
name that is listed but gone would break every traced benchmark run, so
this test resolves the names and installs the tracer in a fresh
interpreter.  It reads ``perfbench/tracer.py`` and writes nothing under
``perfbench/`` (``-B``: no bytecode).
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stochint
import stochint.cli
from stochint.expansion import _TRIG_KINDS, IndexPattern, draw_noise, trig_milstein

#: The layers the package re-exports, in the order of its ``__all__``.
LAYERS = ("basis", "coeffs", "errors", "expansion", "oracle", "qselect", "tables")

#: Public names that left the package because nothing ran them.
DELETED = {
    "basis": ("Rational",),
    "coeffs": ("trig_coeff",),
    "oracle": ("moment_estimate", "MomentEstimate"),
    "qselect": ("condition_lhs", "min_q_many"),
}

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

CODE = """
import importlib, importlib.util, json, sys
import stochint

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
missing = [name for name in stochint.__all__ if not hasattr(stochint, name)]
for layer in tracer.LAYERS:
    module = importlib.import_module(f"stochint.{layer}")
    missing += [f"{layer}.{name}" for name in module.__all__ if not hasattr(module, name)]
spans = tracer.Tracer()
originals = tracer.install(spans)
stochint.errors.series_error("pair_legendre", 2, 1.0)
print(json.dumps({
    "missing": missing,
    "layers": sorted(tracer.LAYERS),
    "wrapped": sorted(originals),
    "calls": spans.calls["errors.series_error"],
}))
"""


def test_public_names_resolve_and_tracer_installs():
    env = dict(os.environ, PYTHONPATH=str(Path(stochint.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CODE, str(TRACER)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["missing"] == []
    modules = {p.stem for p in Path(stochint.__file__).parent.glob("*.py")} - {"__init__"}
    assert result["layers"] == sorted(modules)
    assert {"errors.exact_error", "expansion.ito_expansion", "oracle.validate_expansion"} <= set(
        result["wrapped"]
    )
    assert result["calls"] == 1


def test_package_names_are_the_layers_names():
    modules = [importlib.import_module(f"stochint.{layer}") for layer in LAYERS]
    union = dict.fromkeys(name for module in modules for name in module.__all__)
    assert stochint.__all__ == ["__version__", *union]
    assert len(set(stochint.__all__)) == len(stochint.__all__)
    for module in modules:
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert getattr(stochint, name) is getattr(module, name), name
    assert "cli" not in stochint.__all__


def test_deleted_names_are_gone():
    lists = [stochint.__all__] + [
        importlib.import_module(f"stochint.{layer}").__all__ for layer in (*LAYERS, "cli")
    ]
    for layer, names in DELETED.items():
        module = importlib.import_module(f"stochint.{layer}")
        for name in names:
            assert not hasattr(module, name), f"{layer}.{name}"
            assert not hasattr(stochint, name), name
            assert not any(name in listed for listed in lists), name


def test_one_integer_rule():
    # A second copy of the rule, as coeffs._checked_order and errors._label were, drifts from it.
    sources = Path(stochint.__file__).parent
    for path in sources.glob("*.py"):
        if path.name != "basis.py":
            assert not re.search(r"\boperator\b", path.read_text()), path.name
    assert "operator.index(value)" in (sources / "basis.py").read_text()
    assert not hasattr(stochint.coeffs, "_checked_order")
    assert not hasattr(stochint.errors, "_label")


def test_one_float_and_name_rule():
    # coeffs._check_interval let a bool, a str or a Decimal through, and each
    # module listed the known names of its registry in its own words.
    sources = Path(stochint.__file__).parent
    for path in sources.glob("*.py"):
        if path.name != "basis.py":
            text = path.read_text()
            assert "; known: " not in text, path.name
            assert not re.search(r"^\s*(import|from) numbers\b", text, re.M), path.name
    assert not hasattr(stochint.coeffs, "_check_interval")
    with pytest.raises(ValueError, match="^unknown kind 'nope'; known: ") as info:
        trig_milstein("nope", IndexPattern((1,)), draw_noise(2, 1, 0), 1, 0.5)
    assert str(info.value).split("; known: ")[1].split(", ") == sorted(_TRIG_KINDS)


def test_src_computes_only_what_it_runs():
    # The exact trigonometric engine and the rational polynomials that built
    # the oracle's basis rows are test references now; a copy left in src/
    # would be a second code path that nothing runs.
    for layer in (*LAYERS, "cli"):
        module = importlib.import_module(f"stochint.{layer}")
        assert not [name for name in vars(module) if name.startswith("_trig_")], layer
    oracle = (Path(stochint.__file__).parent / "oracle.py").read_text()
    for name in stochint.basis.__all__:
        assert not re.search(rf"\b{name}\b", oracle), name
    assert list(inspect.signature(stochint.coeffs._outer_series).parameters) == ["spec", "prefixes"]


def test_each_rule_and_condition_written_once():
    # The CLI kept its own integer and float range checks beside the library's
    # rules, and each q-scan condition named its series through a callable.
    cli = stochint.cli
    for name in ("_ints", "_positive", "_floats", "_int_in", "_known"):
        assert not hasattr(cli, name), name
    assert not re.search(r"^\s*(import|from) math\b", Path(cli.__file__).read_text(), re.M)
    for name in ("_series_lhs", "_SCAN_CAPS"):
        assert not hasattr(stochint.qselect, name), name
    for row in stochint.qselect._CONDITIONS.values():
        assert not any(callable(field) for field in row), row


def test_validation_cases_are_data():
    # Each case carried a theory lambda and a hand-set banded flag, a second
    # copy of the rule by which a q-scan condition names its closed series.
    cases = stochint.oracle.VALIDATION_CASES
    assert [f.name for f in dataclasses.fields(stochint.oracle._Case)] == [
        "spec", "components", "q", "series",
    ]
    for name, case in cases.items():
        assert not any(callable(value) for value in vars(case).values()), name
    kinds = [case.series for case in cases.values()]
    kinds += [row[0] for row in stochint.qselect._CONDITIONS.values()]
    for kind in kinds:
        assert kind is None or kind in stochint.errors.SERIES_KINDS, kind
    oracle = (Path(stochint.__file__).parent / "oracle.py").read_text()
    for name in ("series_error", "triple_legendre_error_constant"):
        assert not re.search(rf"\b{name}\b", oracle), name
