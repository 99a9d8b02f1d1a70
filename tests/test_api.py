"""Shape of the public API: every pointwise function reads the stack
through the wave basis (``basis.stack``), the field-point record built
from it or the temperature profile (``profile.stack``), so a stack passed
beside a basis or a profile cannot disagree with it."""

import inspect

from photonstack import greens, mechanics, scan, spectral, thermo


def _public_callables():
    """(qualified name, callable) for every public function and class of
    the modules, with the public methods of each class."""
    for module in (greens, spectral, mechanics, thermo, scan):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_public_callables_are_found():
    names = {name for name, _ in _public_callables()}
    assert {"photonstack.spectral.ldos", "photonstack.mechanics.PointField",
            "photonstack.greens.WaveBasis.at", "photonstack.scan.run_scan"} <= names


def test_no_function_takes_both_a_stack_and_a_basis():
    both = [name for name, fn in _public_callables()
            if {"stack", "basis"} <= set(inspect.signature(fn).parameters)]
    assert both == []


def test_no_function_takes_both_a_stack_and_a_profile():
    both = [name for name, fn in _public_callables()
            if {"stack", "profile"} <= set(inspect.signature(fn).parameters)]
    assert both == []
