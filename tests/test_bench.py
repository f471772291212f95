import numpy as np
import pytest

from sldg.bench import (
    PROBLEMS,
    StudyConfig,
    disk_cone_hump,
    fit_slope,
    make_problem,
    order_between,
    run_qualitative,
    run_spatial_study,
    run_temporal_study,
    table_norms,
)
from sldg.core import Mesh2D, norms, project
from sldg.timeint import LinearSolverConfig


DIRECT = LinearSolverConfig("direct")


def pde_residual(problem, npoints: int = 100, h: float = 1e-4,
                 seed: int = 0) -> float:
    """Max finite-difference residual of the registered exact solution."""
    if problem.exact is None:
        raise ValueError(f"problem {problem.name} has no exact solution")
    rng = np.random.default_rng(seed)
    tpts = rng.uniform(0.05, max(problem.T, 0.1), npoints)
    pts = [rng.uniform(lo + 0.1, hi - 0.1, npoints) for lo, hi in problem.bounds]

    def u(x):
        return problem.exact(*x, tpts)

    def flux(x, axis):
        return np.reshape(problem.velocity(*x, tpts), (problem.ndim, -1))[axis] * u(x)

    ut = (problem.exact(*pts, tpts + h) - problem.exact(*pts, tpts - h)) / (2 * h)
    conv = lap = 0.0
    for axis in range(problem.ndim):
        fwd = [p + h if a == axis else p for a, p in enumerate(pts)]
        bwd = [p - h if a == axis else p for a, p in enumerate(pts)]
        conv = conv + (flux(fwd, axis) - flux(bwd, axis)) / (2 * h)
        lap = lap + (u(fwd) - 2 * u(pts) + u(bwd)) / h**2
    gsrc = problem.g(*pts, tpts) if problem.g is not None else 0.0
    return float(np.max(np.abs(ut + conv - problem.eps * lap - gsrc)))


@pytest.mark.parametrize("name", ["ex31", "ex32", "ex33", "ex34"])
def test_exact_solutions_satisfy_pde(name):
    problem = make_problem(name)
    assert pde_residual(problem, npoints=100, h=1e-4) < 1e-5


def test_registry_contents():
    assert set(PROBLEMS) >= {"ex31", "ex32", "ex33", "ex34", "ex35"}
    with pytest.raises(ValueError):
        make_problem("ex99")
    p = make_problem("ex35", T=1.5)
    assert p.exact is None and p.velocity.time_dependent


def test_order_computation_exact():
    # synthetic error sequence with a known power law
    for p in (1.0, 2.5, 3.0):
        e1, e2 = 7.3 * 10.0 ** (-p * 0), 7.3 * 10.0 ** (-p * np.log10(2))
        assert order_between(e1, e2, 10, 20) == pytest.approx(p, abs=1e-12)
    ns = np.array([2.0, 4.0, 8.0, 16.0])
    errs = 3.0 * ns ** (-2.5)
    assert fit_slope(ns, errs) == pytest.approx(-2.5, abs=1e-12)


def test_table_norms_normalization():
    mesh = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 8, 8)
    u = project(lambda x, y: np.zeros_like(x), mesh, 0)
    exact = lambda x, y, t: np.ones_like(x)
    l1, l2, linf = table_norms(u, exact, 0.0, (2 * np.pi) ** 2)
    assert (l1, l2, linf) == pytest.approx((1.0, 1.0, 1.0), rel=1e-12)


def test_spatial_study_orders_and_rows():
    cfg = StudyConfig("ex31", k=1, tableau="dirk2", meshes=(10, 20), cfl=1.0, solver=DIRECT)
    res = run_spatial_study(cfg)
    assert len(res.rows) == 2
    assert res.rows[0].l1_order is None
    assert res.rows[1].l1 < res.rows[0].l1
    assert res.rows[1].l2_order == pytest.approx(2.0, abs=0.5)
    assert res.rows[0].label == "10"


def test_spatial_study_requires_reference_or_exact():
    cfg = StudyConfig("ex35", k=1, meshes=(8, 16), cfl=1.0, solver=DIRECT, T=0.1)
    with pytest.raises(ValueError):
        run_spatial_study(cfg)


def test_spatial_study_against_reference_mesh():
    cfg = StudyConfig(
        "ex35", k=1, tableau="dirk2", meshes=(8, 16), cfl=1.0, solver=DIRECT,
        T=0.05, reference=32,
    )
    res = run_spatial_study(cfg)
    assert res.rows[1].l1 < res.rows[0].l1


def test_temporal_study_flat_when_transport_exact():
    """Pure transport with constant velocity has no temporal error: runs
    with whole-cell steps reduce to exact coefficient rotations and give
    identical errors for any step size."""
    from sldg.characteristics import constant_1d
    from sldg.core import Mesh1D
    from sldg.timeint import Stepper

    mesh = Mesh1D(0.0, 2 * np.pi, 32)
    v = constant_1d(1.0)
    T = 8 * mesh.dx
    errs = []
    for cells_per_step in (1, 2, 4):
        st = Stepper(mesh, 2, v, eps=0.0, tab="dirk2", solver=DIRECT)
        u = project(np.sin, mesh, 2)
        uT = st.run(u, T, cells_per_step * mesh.dx)
        errs.append(norms(uT, lambda x, t: np.sin(x - T), T)[0])
    assert max(errs) - min(errs) < 1e-12 * max(errs)


def test_temporal_study_slope_backward_euler():
    # step counts chosen so the final-step truncation never distorts dt
    dx = 2 * np.pi / 64
    cfls = tuple(1.0 / (m * dx) for m in (24, 12, 6, 3))
    cfg = StudyConfig("ex31", k=2, tableau="be", meshes=(64,), cfl=cfls,
                      solver=DIRECT)
    res = run_temporal_study(cfg)
    assert res.slopes["l1"] == pytest.approx(1.0, abs=0.2)


def test_qualitative_writes_files(tmp_path):
    cfg = StudyConfig(
        "ex35_shapes", k=1, tableau="dirk2", meshes=(16,), cfl=1.0, solver=DIRECT,
        out=str(tmp_path), plot_points=24, cuts=(("x", 0.0), ("y", 1.0)),
    )
    res = run_qualitative(cfg)
    names = sorted(p.name for p in res.files)
    assert any("snapshot" in n for n in names)
    assert sum("cut" in n for n in names) == 2
    assert any("mass" in n for n in names)
    assert any(n.endswith(".gp") for n in names)
    snap = next(p for p in res.files if "snapshot" in p.name)
    header = snap.read_text().splitlines()[0]
    assert header == "x,y,u"
    assert res.rows[0].mass_defect < 1e-9


def test_qualitative_mass_defect_net_of_source():
    # ex34's source removes about 1.5 units of mass; the defect reports what
    # the source does not account for.  Rigid rotation is not periodic, so
    # the upstream cells at the domain edge do not tile it exactly.
    cfg = StudyConfig("ex34", k=2, meshes=(20,), cfl=10.0, solver=DIRECT)
    res = run_qualitative(cfg)
    raw = abs(res.masses[-1][1] - res.masses[0][1])
    assert raw > 1.0
    assert res.rows[0].mass_defect < 1e-4


def test_qualitative_zero_velocity_static(tmp_path):
    from sldg.characteristics import zero_field
    from sldg.bench import Problem
    import sldg.bench as bench_mod

    # static problem: snapshots identical over time
    mesh_n = 12
    cfg = StudyConfig("ex35_shapes", k=1, meshes=(mesh_n,), cfl=1.0, solver=DIRECT)
    problem = make_problem("ex35_shapes")
    static = Problem(
        "static", 2, problem.domain, zero_field(2), 0.0, problem.u0, T=0.5
    )
    mesh = static.mesh(mesh_n)
    u0 = project(static.u0, mesh, 1)
    from sldg.timeint import Stepper

    st = Stepper(mesh, 1, static.velocity, eps=0.0, tab="dirk2")
    uT = st.run(u0, 0.5, 0.1)
    assert np.max(np.abs(uT.coeffs - u0.coeffs)) < 1e-12


def test_swirling_returns_to_initial_under_refinement():
    # the deformation reverses at T: with no diffusion the exact solution
    # returns to the initial data, so the final-time error must shrink
    errs = []
    for n in (12, 24):
        cfg = StudyConfig("ex35_shapes", k=1, tableau="dirk2", meshes=(n,), cfl=2.0,
                          eps=0.0, solver=DIRECT)
        problem = make_problem("ex35_shapes", eps=0.0)
        res = run_qualitative(cfg)
        exact0 = problem.u0
        err = norms(res.field, lambda x, y, t: exact0(x, y), problem.T)[0]
        errs.append(err)
    assert errs[1] < 0.75 * errs[0]


def test_study_config_validation():
    with pytest.raises(ValueError):
        StudyConfig("ex31", meshes=(20, 10))


def test_emit_determinism(tmp_path):
    cfg = StudyConfig("ex31", k=1, tableau="dirk2", meshes=(10, 20), cfl=1.0,
                      solver=DIRECT, out=str(tmp_path / "a"))
    res1 = run_spatial_study(cfg)
    cfg2 = StudyConfig("ex31", k=1, tableau="dirk2", meshes=(10, 20), cfl=1.0,
                       solver=DIRECT, out=str(tmp_path / "b"))
    res2 = run_spatial_study(cfg2)
    # all numeric results identical between runs; wall time excluded
    for r1, r2 in zip(res1.rows, res2.rows):
        assert (r1.l1, r1.l2, r1.linf) == (r2.l1, r2.l2, r2.linf)
        assert r1.l1_order == r2.l1_order
    csv1 = (tmp_path / "a" / "spatial_ex31_k1_dirk2_quad.csv").read_text()
    csv2 = (tmp_path / "b" / "spatial_ex31_k1_dirk2_quad.csv").read_text()
    strip = lambda text: ["," .join(line.split(",")[:-1]) for line in text.splitlines()]
    assert strip(csv1) == strip(csv2)


def test_emit_csv_shape(tmp_path):
    cfg = StudyConfig("ex31", k=0, tableau="be", meshes=(10, 20), cfl=1.0,
                      solver=DIRECT, out=str(tmp_path))
    run_spatial_study(cfg)
    csv = (tmp_path / "spatial_ex31_k0_be_quad.csv").read_text().splitlines()
    assert csv[0] == "mesh,L1,L1_order,L2,L2_order,Linf,Linf_order,seconds"
    first = csv[1].split(",")
    assert first[0] == "10" and first[2] == "" and first[4] == ""
    second = csv[2].split(",")
    assert second[2] != ""
    gp = (tmp_path / "spatial_ex31_k0_be_quad.gp").read_text()
    assert "logscale" in gp


def test_disk_cone_hump_profile():
    u0 = disk_cone_hump(np.pi)
    x = np.array([0.0, 0.0, np.pi / 2, 2.6])
    y = np.array([np.pi / 2, -np.pi / 2, 0.0, 2.6])
    vals = u0(x, y)
    assert vals[1] == pytest.approx(1.0)          # cone peak
    assert vals[2] == pytest.approx(1.0, abs=1e-12)  # hump peak (normalized)
    assert vals[3] == 0.0                          # outside all shapes
    # slot cuts the disk
    assert u0(np.array([0.0]), np.array([np.pi / 2 - 0.1]))[0] in (0.0, 1.0)


def test_cli_verify_and_spatial(tmp_path, capsys):
    from sldg.cli import main

    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out

    code = main([
        "spatial", "--problem", "ex31", "--k", "1", "--meshes", "10,20",
        "--cfl", "1.0", "--solver", "direct", "--tableau", "dirk2",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "spatial_ex31_k1_dirk2_quad.csv").exists()


def test_cli_config_file(tmp_path, capsys):
    from sldg.cli import main

    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("problem = ex31\nk = 1\nmeshes = 10,20\ntableau = dirk2\nsolver = direct\n")
    code = main(["spatial", "--config", str(cfgfile), "--k", "0"])
    assert code == 0
    out = capsys.readouterr().out
    # CLI flag overrides the file: k=0 gives first-order errors
    assert "mesh" in out


def test_cli_bad_config_rejected(tmp_path, capsys):
    from sldg.cli import main

    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("nonsense = 1\n")
    assert main(["spatial", "--config", str(cfgfile)]) == 2
    # a bogus upstream mode is rejected in 1D too, where no 2D remap reads it
    cfgfile.write_text("mode = bogus\nmeshes = 10\nsolver = direct\n")
    assert main(["spatial", "--config", str(cfgfile)]) == 2
    for tol in ("nan", "inf", "0"):
        assert main(["spatial", "--meshes", "10", "--solver", "direct", "--gmres-tol", tol]) == 2
    assert "positive and finite" in capsys.readouterr().err
