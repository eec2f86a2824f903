"""The case-study builders and the grids they derive, and the guard that every
defaulted public parameter of the package has a caller that sets it."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import microagc as m
from microagc import casestudy as cs, cli

ROOT = Path(__file__).resolve().parent.parent


def test_config_grid_is_the_case_study_grid():
    """detection_demo.cfg's [grid.1] and grid1_spec at q = 10 derive the same
    injections, operating point and plant, bit for bit."""
    sections = cli.parse_config(ROOT / "configs" / "detection_demo.cfg")
    from_file = cli._build_grid(sections["grid"][0], sections)
    from_library = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0))
    assert np.array_equal(from_file.p_injections, from_library.p_injections)
    (op_f, plant_f), (op_l, plant_l) = m.grid_plant(from_file), m.grid_plant(from_library)
    for name in ("delta_star", "p_star"):
        assert np.array_equal(getattr(op_f, name), getattr(op_l, name)), name
    for name in ("a", "b1", "f", "e", "h_red", "f_map"):
        assert np.array_equal(getattr(plant_f, name), getattr(plant_l, name)), name


def _no_load_grid():
    net = m.NetworkSpec.from_branches(n_ibr=2, n_load=0, branches=[(0, 1, 3.333)])
    return m.GridSpec(network=net, ibrs=(m.IbrParams(omega_c=31.41, m_p=9.4e-5),) * 2,
                      loads=())


@pytest.mark.parametrize("grid", [cs.grid1_spec(), cs.grid2_spec(), _no_load_grid()],
                         ids=["grid1", "grid2", "no-load"])
def test_ibrs_share_the_loads_equally(grid):
    n, loads = grid.network.n_ibr, grid.loads
    assert len(loads) == grid.network.n_load
    assert grid.p_injections.tolist() == [sum(loads) / n] * n + [-p for p in loads]


def test_a_grid_takes_one_load_per_load_node():
    grid = cs.grid2_spec()
    with pytest.raises(m.ScenarioError, match="2 loads for 1 load nodes"):
        m.GridSpec(network=grid.network, ibrs=grid.ibrs, loads=(1.0, 2.0))


def _public_callables():
    """(name, called as, function, leading parameters a call skips) of every public
    function and public-class method defined in src/microagc; a class's __init__
    is called by the class's name. Functions a dataclass generates are left out:
    their code is not the module's (Section.build sets their fields by keyword)."""
    for info in pkgutil.iter_modules(m.__path__):
        mod = importlib.import_module(f"microagc.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield name, name, obj, 0
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = inspect.unwrap(getattr(member, "__func__", member))
                    if (inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__
                            and (attr == "__init__" or not attr.startswith("_"))):
                        yield (f"{name}.{attr}", name if attr == "__init__" else attr, fn,
                               0 if isinstance(member, staticmethod) else 1)


def test_every_defaulted_public_parameter_is_set_by_a_caller():
    """A parameter that has a default, of a public function or public-class method
    in src/microagc, is passed, by position or by name, by at least one call in
    src, bench, perfbench or tests: a parameter that no caller sets is a constant."""
    calls = [node for d in ("src", "bench", "perfbench", "tests")
             for path in sorted((ROOT / d).rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)]
    unset = []
    for name, called_as, fn, skip in _public_callables():
        params = list(inspect.signature(fn).parameters.values())[skip:]
        set_by_a_call = set()
        for call in calls:
            if called_as in (getattr(call.func, "id", None), getattr(call.func, "attr", None)):
                set_by_a_call |= {p.name for p in params[:len(call.args)]}
                set_by_a_call |= {k.arg for k in call.keywords}
        unset += [f"{name}({p.name})" for p in params
                  if p.default is not p.empty and p.name not in set_by_a_call]
    assert not unset, unset
