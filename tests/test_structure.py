"""Structure rules: each keeps one path of the package single, read from
the source text alone.

A rule is a function of source texts keyed by their path from the
repository root, and returns what breaks it (an empty list passes).  A
rule that names a file pattern, as ``src/glome/*.py``, reads only the
texts that match it.  The text rules match lines as grep does, comments
included; the others walk the parsed source.  Each rule's test runs it
on the tree, and ``test_a_plant_breaks_its_rule`` runs it on a copy of
the texts with one plant that the rule must reject.
"""

import ast
import functools
import importlib
import pathlib
import posixpath
import sys

import pytest

import glome

ROOT = pathlib.Path(__file__).resolve().parents[1]
GEODESICS = "src/glome/geodesics.py"
# the rules only read the trees, so a text unchanged by a plant is parsed once
_parse = functools.cache(ast.parse)


def _read(pattern: str) -> dict:
    return {p.relative_to(ROOT).as_posix(): p.read_text() for p in sorted(ROOT.glob(pattern))}


@functools.cache
def package() -> dict:
    """The package's source texts, keyed by their path from the repository root."""
    return _read("src/glome/**/*.py")


@functools.cache
def benchmark() -> dict:
    """The benchmark's source texts but selftest.py's, which still reads names
    the package has removed (ROADMAP item 1 (b)), and which nothing runs."""
    return {path: text for path, text in _read("perfbench/*.py").items()
            if path != "perfbench/selftest.py"}


def _top_level(path: str) -> bool:
    """Whether ``path`` matches ``src/glome/*.py``, as a subpackage's module would not."""
    return posixpath.dirname(path) == "src/glome"


def _grep(sources: dict, needle: str, paths) -> list:
    """grep -n: each line holding ``needle`` in the files ``paths`` picks."""
    return [f"{path}:{i}: {line}" for path, text in sources.items() if paths(path)
            for i, line in enumerate(text.splitlines(), 1) if needle in line]


def _calls(tree, names) -> list:
    """The calls of a bare or dotted name in ``names`` under ``tree``."""
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and (
                isinstance(n.func, ast.Name) and n.func.id in names
                or isinstance(n.func, ast.Attribute) and n.func.attr in names)]


def dual_numbers_outside_jetcalc(sources: dict) -> list:
    """Every other module seeds its derivatives through jetcalc.directional
    and jetcalc.value_and_gradn, so ``DualScalar(`` is written only in
    jetcalc.py."""
    return _grep(sources, "DualScalar(",
                 lambda path: _top_level(path) and path != "src/glome/jetcalc.py")


def rk4_stages_outside_the_core(sources: dict) -> list:
    """geodesics._rk4_step takes every RK4 step, a batch's and a lone jet's,
    with the slope as an argument, and _rk4_update forms its weighted
    update; a k2, k3 or k4 named anywhere else in geodesics.py would spell
    out a second copy of the stages.  integrate_batch takes every step in
    one loop, so _rk4_step is called from one place; a second call would be
    a second step loop."""
    names = ("k2", "k3", "k4")
    tree = _parse(sources[GEODESICS])
    core = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
            and n.name in ("_rk4_step", "_rk4_update")]
    allowed = {id(n) for f in core for n in ast.walk(f)}
    bad = [n.lineno for n in ast.walk(tree) if id(n) not in allowed and (
               isinstance(n, ast.Name) and n.id in names
               or isinstance(n, ast.arg) and n.arg in names)]
    broken = []
    if len(core) != 2 or bad:
        broken.append(f"k2, k3 or k4 outside geodesics._rk4_step and _rk4_update at lines {bad}")
    calls = [n.lineno for n in _calls(tree, ("_rk4_step",))]
    if len(calls) != 1:
        broken.append(f"_rk4_step is called at lines {calls} of geodesics.py, not from one place")
    return broken


def stage_stops_built_twice(sources: dict) -> list:
    """geodesics._stage's lone branch builds every stop of an RK4 stage: one
    off-chart DomainExit, one domain-guard DomainExit and one
    SingularSystem.  Its array branch evaluates each stopping column again
    as a lone state, so another such call in _stage, or another read of
    the off-chart message, would be a second copy of a rule."""
    tree = _parse(sources[GEODESICS])
    stages = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_stage"]
    if len(stages) != 1:
        return [f"geodesics.py defines _stage {len(stages)} times, not once"]
    built = {name: sorted(n.lineno for n in ast.walk(stages[0]) if isinstance(n, ast.Call)
                          and isinstance(n.func, ast.Name) and n.func.id == name)
             for name in ("DomainExit", "SingularSystem")}
    reads = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Name)
             and n.id == "_STAGE_OFF_CHART" and isinstance(n.ctx, ast.Load)]
    if len(built["DomainExit"]) != 2 or len(built["SingularSystem"]) != 1 or len(reads) != 1:
        return [f"_stage builds DomainExit at lines {built['DomainExit']} and SingularSystem"
                f" at lines {built['SingularSystem']} of geodesics.py, and _STAGE_OFF_CHART"
                f" is read at lines {reads}; want two, one and one"]
    return []


def generator_factors_outside_factors(sources: dict) -> list:
    """symmetries._Factors forms tan x once per evaluation, and tan y and
    sec y together from one jetcalc.sec_tan, and every generator reads them
    there; a tan, sec or sec_tan named anywhere else in symmetries.py would
    form its own copy."""
    names = ("tan", "sec", "sec_tan")
    tree = _parse(sources["src/glome/symmetries.py"])
    factors = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == "_Factors"]
    allowed = {id(n) for c in factors for n in ast.walk(c)}
    bad = [n.lineno for n in ast.walk(tree) if id(n) not in allowed and (
               isinstance(n, ast.Name) and n.id in names
               or isinstance(n, ast.Attribute) and n.attr in names)]
    if len(factors) != 1 or bad:
        return [f"tan, sec or sec_tan outside symmetries._Factors at lines {bad}"]
    return []


def generated_code_outside_the_recorder(sources: dict) -> list:
    """glome.tape compiles a recorded Wengert list into one function; a
    compile, exec or eval called anywhere else in the package would run
    source that no file holds."""
    return [f"{path}:{n.lineno}" for path, text in sources.items() if path != "src/glome/tape.py"
            for n in _calls(_parse(text), ("compile", "exec", "eval"))]


def kernel_calls_off_the_one_path(sources: dict) -> list:
    """Every _curvatures call, a float state's or a batch's, replays the
    recorded pass, so geodesics.py calls _nested_pass nowhere and names it
    only as the argument of its one tape.record call; and only jetcalc
    hands a traced value to a function recorded as one call (``.apply(``),
    so the tape holds no other untraced code."""
    tree = _parse(sources[GEODESICS])
    records = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
               and isinstance(n.func, ast.Attribute) and n.func.attr == "record"
               and isinstance(n.func.value, ast.Name) and n.func.value.id == "tape"]
    named = [n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.Name) and n.id == "_nested_pass"]
    recorded = [n for r in records for n in r.args
                if isinstance(n, ast.Name) and n.id == "_nested_pass"]
    broken = []
    if len(records) != 1 or len(recorded) != 1 or len(named) != 1:
        broken.append(f"_nested_pass is named at lines {named} of geodesics.py, not only"
                      f" as the argument of its one tape.record call ({len(records)} calls)")
    return broken + _grep(sources, ".apply(", lambda path: path != "src/glome/jetcalc.py")


def seed_tables_beside_grid_seeds(sources: dict) -> list:
    """geodesics._GRID_SEEDS is the one copy of the pass's seed directions: a
    float state's seed rows, a narrow batch's stacked grids and a wide
    batch's broadcast seeds are all cut from it, so the one ``np.eye(`` in
    geodesics.py (its text, comments included) must sit in its assignment,
    and a second would be a second copy.  _curvatures picks the layout and
    replays the tape in one call, so the package calls _kernel_tape nowhere
    else."""
    source = sources[GEODESICS]
    eyes = source.count("np.eye(")
    table = [n for n in _parse(source).body if isinstance(n, ast.Assign)
             and [ast.unparse(t) for t in n.targets] == ["_GRID_SEEDS"]]
    in_table = [c for n in table for c in ast.walk(n) if isinstance(c, ast.Call)
                and ast.unparse(c.func) == "np.eye"]
    inside, calls = [], []
    for path, text in sources.items():
        tree = _parse(text)
        calls += [f"{path}:{n.lineno}" for n in _calls(tree, ("_kernel_tape",))]
        if path == GEODESICS:
            inside += [f"{path}:{c.lineno}" for n in ast.walk(tree)
                       if isinstance(n, ast.FunctionDef) and n.name == "_curvatures"
                       for c in ast.walk(n) if isinstance(c, ast.Call)
                       and isinstance(c.func, ast.Name) and c.func.id == "_kernel_tape"]
    broken = []
    if eyes != 1 or len(table) != 1 or len(in_table) != 1:
        broken.append(f"np.eye( appears {eyes} times in {GEODESICS}, {len(in_table)}"
                      f" of them in {len(table)} assignments to _GRID_SEEDS; want one, in the one")
    if len(inside) != 1 or calls != inside:
        broken.append(f"_kernel_tape is called at {calls}, not once inside _curvatures")
    return broken


def jets_validated_inside_the_package(sources: dict) -> list:
    """chart.jet1 checks the CLI's numbers and make_batch's drawn starts;
    code inside the package reads rows it already validated."""
    outside = ("src/glome/chart.py", "src/glome/cli.py", "src/glome/suites.py")
    return _grep(sources, "jet1(", lambda path: _top_level(path) and path not in outside)


def trajectory_rows_read_one_at_a_time(sources: dict) -> list:
    """The suites read a trajectory's rows through Trajectory.columns and
    geodesics.ambient_state(traj, rows), never one rebuilt jet at a time,
    and ambient positions come only from chart.ambient_coords: no
    ``.jet(`` in suites.py, and no ``embed(`` in the package."""
    return (_grep(sources, ".jet(", lambda path: path == "src/glome/suites.py")
            + _grep(sources, "embed(", lambda path: True))


def _from_glome(name: str):
    """What ``from glome import name`` binds: the package's attribute, else
    its submodule; None where the import would fail."""
    try:
        return getattr(glome, name, None) or importlib.import_module(f"glome.{name}")
    except ImportError:
        return None


def benchmark_reads_missing_from_glome(sources: dict) -> list:
    """Each glome name the benchmark reads that glome lacks: an attribute of
    a name bound by ``import glome`` or ``from glome import ...``, and each
    suite that workloads.SYMMETRY_SUITES names.  The package does not use
    every one of these itself, so only the benchmark would notice one
    deleted."""
    missing = []
    for path, text in sources.items():
        tree = _parse(text)
        bound = {}
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                bound.update((a.asname or a.name, glome) for a in n.names if a.name == "glome")
            elif isinstance(n, ast.ImportFrom) and n.module == "glome" and n.level == 0:
                for a in n.names:
                    bound[a.asname or a.name] = _from_glome(a.name)
                    if bound[a.asname or a.name] is None:
                        missing.append(f"{path}:{n.lineno}: glome.{a.name}")
        missing += [f"{path}:{n.lineno}: {n.value.id}.{n.attr}" for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id in bound and not hasattr(bound[n.value.id], n.attr)]
        for n in tree.body:
            if isinstance(n, ast.Assign) and [ast.unparse(t) for t in n.targets] == ["SYMMETRY_SUITES"]:
                missing += [f"{path}:{n.lineno}: suites.{name}" for name in ast.literal_eval(n.value)
                            if not hasattr(_from_glome("suites"), name)]
    return missing


def imports_beyond_numpy(sources: dict) -> list:
    """The package imports only the standard library, numpy (its one
    dependency in pyproject.toml) and itself, so dual numbers stay its only
    derivative mechanism: no symbolic algebra, no library finite
    differences."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "glome"}
    bad = []
    for path, text in sources.items():
        for n in ast.walk(_parse(text)):
            if isinstance(n, ast.Import):
                names = [a.name for a in n.names]
            elif isinstance(n, ast.ImportFrom) and n.level == 0:
                names = [n.module]
            else:
                continue
            bad += [f"{path}:{n.lineno}: {name}" for name in names
                    if name.partition(".")[0] not in allowed]
    return bad


def test_dual_numbers_are_built_only_in_jetcalc():
    assert dual_numbers_outside_jetcalc(package()) == []


def test_the_rk4_stages_are_written_once():
    assert rk4_stages_outside_the_core(package()) == []


def test_each_stage_stop_is_built_once():
    assert stage_stops_built_twice(package()) == []


def test_the_generators_tan_and_sec_are_formed_only_as_shared_factors():
    assert generator_factors_outside_factors(package()) == []


def test_generated_code_lives_only_in_the_recorder():
    assert generated_code_outside_the_recorder(package()) == []


def test_every_kernel_call_has_one_path():
    assert kernel_calls_off_the_one_path(package()) == []


def test_the_kernels_seed_directions_are_written_once():
    assert seed_tables_beside_grid_seeds(package()) == []


def test_jets_are_validated_only_where_numbers_become_one():
    assert jets_validated_inside_the_package(package()) == []


def test_trajectory_rows_are_read_by_array_passes():
    assert trajectory_rows_read_one_at_a_time(package()) == []


def test_every_glome_name_the_benchmark_reads_exists():
    assert benchmark_reads_missing_from_glome(benchmark()) == []


def test_the_package_imports_only_the_standard_library_and_numpy():
    assert imports_beyond_numpy(package()) == []


def _append(path: str, text: str):
    """A plant that adds ``text`` as the last lines of ``path``."""
    return lambda sources: {**sources, path: sources[path] + text}


def _replace(path: str, old: str, new: str):
    """A plant that writes ``new`` in place of the one ``old`` in ``path``."""
    def plant(sources):
        assert sources[path].count(old) == 1, f"the plant's anchor {old!r} is not once in {path}"
        return {**sources, path: sources[path].replace(old, new)}
    return plant


PLANTS = [
    pytest.param(dual_numbers_outside_jetcalc,
                 _append(GEODESICS, "_ONE = jetcalc.DualScalar(1.0, 0.0)\n"), id="dual_in_geodesics"),
    pytest.param(dual_numbers_outside_jetcalc,
                 _append("src/glome/chart.py", "# DualScalar(x, 1.0)\n"), id="dual_in_a_comment"),
    pytest.param(rk4_stages_outside_the_core,
                 _append(GEODESICS, "\n\ndef _midpoint(k1):\n    k2 = k1\n    return k2\n"),
                 id="k2_outside_the_core"),
    pytest.param(rk4_stages_outside_the_core,
                 _append(GEODESICS, "\n\ndef _lone_loop(x, u, dx, k1):\n"
                                    "    return _rk4_step(el_rhs, x, u, dx, k1)\n"),
                 id="second_rk4_step_call"),
    pytest.param(stage_stops_built_twice,
                 _replace(GEODESICS, "    y, _, y_x, v_x = u\n    k = np.empty_like(u)\n",
                          "    y, _, y_x, v_x = u\n    if not np.all(np.abs(y) < chart.HALF_PI):\n"
                          "        raise DomainExit(float(at[0]), _STAGE_OFF_CHART, str(y))\n"
                          "    k = np.empty_like(u)\n"),
                 id="off_chart_stop_in_the_array_branch"),
    pytest.param(stage_stops_built_twice,
                 _append(GEODESICS, "_CAUSE = _STAGE_OFF_CHART\n"), id="second_message_read"),
    pytest.param(generator_factors_outside_factors,
                 _replace("src/glome/symmetries.py", "-f.tan_x * f.cos_y", "-tan(f.x) * f.cos_y"),
                 id="tan_in_chi3"),
    pytest.param(generator_factors_outside_factors,
                 _replace("src/glome/symmetries.py", "f.sin_v * f.tan_y",
                          "f.sin_v * sec_tan(f.y, 'tan')[1]"), id="sec_tan_in_chi4"),
    pytest.param(generated_code_outside_the_recorder,
                 _append("src/glome/chart.py", "_HALF = eval('0.5')\n"), id="eval_in_chart"),
    pytest.param(kernel_calls_off_the_one_path,
                 _append(GEODESICS, "\n\ndef _direct(*args):\n    return _nested_pass(*args)\n"),
                 id="nested_pass_called"),
    pytest.param(kernel_calls_off_the_one_path,
                 _append("src/glome/chart.py", "_ROOT = lambda u: u.apply(math.sqrt)\n"),
                 id="apply_in_chart"),
    pytest.param(seed_tables_beside_grid_seeds,
                 _append(GEODESICS, "_INNER = np.eye(4)[:, 1:]\n"), id="second_eye"),
    pytest.param(seed_tables_beside_grid_seeds,
                 _replace(GEODESICS, "_GRID_SEEDS = (np.eye(4)[",
                          "_EYE = np.eye(4)\n_GRID_SEEDS = (_EYE["), id="eye_outside_the_table"),
    pytest.param(seed_tables_beside_grid_seeds,
                 _append(GEODESICS, "\n\ndef _replay(*args):\n    return _kernel_tape(*args)\n"),
                 id="kernel_tape_call_in_geodesics"),
    pytest.param(seed_tables_beside_grid_seeds,
                 _append("src/glome/suites.py", "_PARTIALS = geodesics._kernel_tape(0.0)\n"),
                 id="kernel_tape_call_in_suites"),
    pytest.param(jets_validated_inside_the_package,
                 _append(GEODESICS, "_START = chart.jet1(0.0, 0.0, 0.0, 0.4, 0.7)\n"),
                 id="jet1_in_geodesics"),
    pytest.param(trajectory_rows_read_one_at_a_time,
                 _append("src/glome/suites.py", "_FIRST = lambda traj: traj.jet(0)\n"),
                 id="row_jet_in_suites"),
    pytest.param(trajectory_rows_read_one_at_a_time,
                 _append("src/glome/chart.py", "\n\ndef embed(x, y, v):\n"
                                               "    return ambient_coords(x, y, v)\n"),
                 id="embed_in_chart"),
    pytest.param(benchmark_reads_missing_from_glome,
                 _append("perfbench/layers.py", "geodesics.no_such_name\n"), id="missing_attribute"),
    pytest.param(benchmark_reads_missing_from_glome,
                 _replace("perfbench/workloads.py", '    "suite_flow",\n',
                          '    "suite_flow",\n    "suite_no_such_name",\n'), id="missing_suite"),
    pytest.param(imports_beyond_numpy, _append("src/glome/symmetries.py", "import sympy\n"),
                 id="sympy"),
    pytest.param(imports_beyond_numpy,
                 _append("src/glome/jetcalc.py", "from scipy.optimize import approx_fprime\n"),
                 id="scipy_finite_differences"),
]


@pytest.mark.parametrize("rule, plant", PLANTS)
def test_a_plant_breaks_its_rule(rule, plant):
    sources = benchmark() if rule is benchmark_reads_missing_from_glome else package()
    assert rule(plant(sources)) != []
