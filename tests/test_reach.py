"""Every function in ``src/axiswirl`` is entered by a CLI run or is listed,
with its role and its user, as one that no CLI run needs."""

import importlib
import inspect
import pkgutil
import sys
import types

import numpy as np

import axiswirl
from axiswirl import reference_k
from axiswirl.cli import _installed_version, main
from axiswirl.oracle import _lapack

# Functions no CLI run enters: (role, user). Each check path names the
# ROADMAP item that will gate it or retire it.
UNREACHED = {
    "fields.evaluate": ("one-field view at (r, t), the public API", "tests"),
    "norms.spatial_L1": ("one-quantity view of the L^1 norms",
                         "tests; item 18 makes it the check path of the L1_f gate"),
    "fields.eval_pressure": ("quadrature check of the closed-form P",
                             "tests and bench/tracer.py, by name until item 6"),
    "fields._pressure_integral": ("eval_pressure's quadrature", "eval_pressure, until item 6"),
    "profiles.SwirlProfile.I": ("profile evaluator patched by name",
                                "bench/tracer.py until item 6"),
    "profiles.SwirlProfile.g_prime": ("profile evaluator patched by name",
                                      "bench/tracer.py until item 6"),
    "profiles.SwirlProfile.phi0_over_r": ("profile evaluator patched by name",
                                          "bench/tracer.py until item 6"),
    "oracle.SwirlStepper.step": ("one theta step, patched by name",
                                 "bench/tracer.py until item 6"),
    "profiles.bump_forcing": ("bump of any amplitude", "test fixtures"),
    "profiles.zero_forcing": ("trivial forcing", "test fixtures"),
    "errors.QuadratureConvergenceError.__init__": ("raised when a quadrature fails",
                                                   "tests"),
    "numerics.QuadratureSpec.__post_init__": (
        "validates the module-level specs at import, before any run", "tests"),
}


def _defined_functions():
    """{dotted name: code object} of every module-level function and method
    defined in the package's source (dataclass-generated methods excluded)."""
    found = {}

    def add(name, fn, module):
        fn = inspect.unwrap(fn)
        if isinstance(fn, types.FunctionType) and fn.__code__.co_filename == module.__file__:
            found[name] = fn.__code__

    for info in pkgutil.iter_modules(axiswirl.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"axiswirl.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    if callable(member):
                        add(f"{info.name}.{name}.{attr}", member, module)
            elif callable(obj):
                add(f"{info.name}.{name}", obj, module)
    return found


def test_every_function_is_entered_by_a_cli_run_or_listed(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("grid_n = 128  # the default\n")
    table = tmp_path / "k.csv"
    r = np.linspace(0.0, 1.0, 33).tolist()
    table.write_text("# the bump on 33 knots\nr,k\n"
                     + "".join(f"{a!r},{b!r}\n" for a, b in zip(r, reference_k()(r).tolist())))
    runs = [["all", "--part", "1"], ["all", "--part", "2"], ["profile", "--k", str(table)]]

    entered = set()
    # so the runs enter the cached functions, whatever ran before
    _installed_version.cache_clear()
    _lapack.cache_clear()

    def on_event(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(on_event)
    try:
        status = [main([*run, "--config", str(config), "--out", str(tmp_path / str(i))])
                  for i, run in enumerate(runs)]
    finally:
        sys.setprofile(previous)
    assert status == [0, 0, 0]

    defined = _defined_functions()
    assert set(UNREACHED) <= set(defined), "a listed name is gone from src"
    missed = sorted(name for name, code in defined.items()
                    if code not in entered and name not in UNREACHED)
    assert missed == []
