"""The benchmark tracer's view of the package.

``perfbench/tracing.py`` looks each traced name up with ``getattr`` and its
work counters read call arguments by parameter name, so renaming or deleting
one of them breaks the traced benchmark run.  These tests load that file
as it is and check both against the package.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# the parameters each work counter reads, by traced span
HOOK_PARAMETERS = {
    "numerics.gauss_laguerre": ("n", "alpha"),
    "numerics.hyp0f1": ("z",),
    "numerics.integrate_nd": ("rules",),
    "charpoly.sample_spectra": ("count",),
    "charpoly.RatioOracle.build": ("self",),
}


def _traced(span: str):
    """The function the tracer wraps for ``span``, or None if it is gone."""
    layer, name = span.split(".", 1)
    home = importlib.import_module(f"biortho.{layer}")
    if name in tracing._METHODS:
        cls = getattr(home, name.split(".")[0], None)
        return getattr(cls, tracing._METHODS[name], None)
    return getattr(home, name, None)


def test_every_traced_name_exists():
    spans = [f"{layer}.{name}" for layer, names in tracing.LAYERS.items() for name in names]
    assert [s for s in spans if not callable(_traced(s))] == []


def test_hooked_parameters_keep_their_names():
    assert set(tracing.Tracer()._hooks()) == set(HOOK_PARAMETERS)
    missing = [(span, p) for span, params in HOOK_PARAMETERS.items()
               for p in params if p not in inspect.signature(_traced(span)).parameters]
    assert missing == []
