"""The benchmark's traced run (``benchmarks/tracing.py``) wraps helmscat
functions and methods by name: a module attribute for each function, and
``Class.__dict__[method]`` for each method.  A refactor that renames or
moves one of them, for instance onto a base class, would break the traced
run; these tests catch it.  Some targets also carry a tag reader that takes
one argument by position or keyword (Jacobi sweeps, multigrid level); a
parameter inserted before it would make the trace read the wrong one."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _tracing().TARGETS


def _resolve(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, attr)


def _argument_readers():
    """(function, position, name) for every target whose tag reader reads
    one argument of the call."""
    found = []
    for module_name, attr, _, tag in _targets():
        if tag is None:
            continue
        bound = inspect.getclosurevars(tag).nonlocals
        if "position" in bound and "name" in bound:
            found.append((_resolve(module_name, attr), bound["position"],
                          bound["name"]))
    return found


def test_tracing_targets_resolve():
    targets = _targets()
    assert targets
    missing = []
    for module_name, attr, _, _ in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_tag_readers_match_signatures():
    readers = _argument_readers()
    assert {fn.__name__ for fn, _, _ in readers} >= {"damped_jacobi",
                                                      "mg_cycle"}
    for fn, position, name in readers:
        params = list(inspect.signature(fn).parameters.values())
        assert len(params) > position, fn.__name__
        assert params[position].name == name, fn.__name__
        assert params[position].kind is \
            inspect.Parameter.POSITIONAL_OR_KEYWORD, fn.__name__
        # parameters added after it are keyword-only
        assert all(p.kind is inspect.Parameter.KEYWORD_ONLY
                   for p in params[position + 1:]), fn.__name__



def test_traced_sizes_of_operator_builds_and_sweeps():
    # the size column is the side of the first grid argument: for an
    # operator build it is read from eta_sq, for a Jacobi sweep from the
    # operator; a 41^2, 3-level hierarchy has sides 41, 21 and 11
    import numpy as np

    import helmscat as hs
    tracing = _tracing()
    eg = hs.build_extended_grid(hs.Grid2D(33, 16.0), 4, 0.15, 3)
    se = eg.points_per_side
    assert se == 41
    tracer = tracing.Tracer()
    with tracer.installed():
        hier = hs.MgHierarchy(hs.assemble(eg, np.ones((se, se)), 0.5), 3)
        hs.mg_cycle(hier, np.ones((se, se), dtype=complex), None)

    def sizes(name):
        return [s[tracing.SIZE] for s in tracer.spans
                if s[tracing.NAME] == name]
    assert sizes("helmholtz.operator_build") == [41, 21, 11]
    assert set(sizes("multigrid.damped_jacobi")) == {41, 21}


def test_traced_models_record_their_incident_wave_stacks():
    # both models build a call's incident waves through plane_wave, so a
    # traced run counts one span per fields() call; its size column reads
    # the stack's view count, the first 2-D array argument
    import numpy as np

    import helmscat as hs
    from helmscat.forward import LisForward
    tracing = _tracing()
    g = hs.Grid2D(33, 16.0, (-8.0, -8.0))
    scene = hs.ScatteringScene(
        g, 1.0, hs.make_circular_geometry(4, 8, 40.0, 10.0))
    f = np.full((33, 33), 0.05)
    cfg = hs.SolverConfig(abl_points=4, beta=0.15, levels=2)
    for model in (hs.HelmholtzForward, LisForward):
        tracer = tracing.Tracer()
        with tracer.installed():
            model(scene, f, cfg).fields(range(4))
        spans = [s for s in tracer.spans
                 if s[tracing.NAME] == "forward.plane_wave"]
        assert len(spans) == 1, model.__name__
        assert spans[0][tracing.SIZE] == 4
