"""Grid construction and derivative-operator contracts."""
import numpy as np
import pytest

from fisher_hydro import make_grid
from fisher_hydro.grid import (
    integrate,
    norm_l2,
    spectral_divergence,
    spectral_gradient,
    spectral_laplacian,
)


def test_make_grid_stores_exact_spacing():
    g = make_grid(1, 4096, 200.0)
    assert g.spacing * g.n == g.length
    assert g.spacing == 200.0 / 4096


def test_make_grid_smallest_legal():
    g = make_grid(1, 16, 1.0)
    assert g.n == 16


def test_make_grid_2d_for_vortex_tests():
    g = make_grid(2, 256, 20.0)
    assert g.shape == (256, 256)
    assert g.wavenumbers.shape == (256,)


def test_grids_compare_and_hash_by_shape_and_length():
    # the wavenumber array is derived from (dim, n, length) and takes no part
    # in == or hash
    a, b = make_grid(1, 512, 40.0), make_grid(1, 512, 40.0)
    assert a == b and hash(a) == hash(b)
    assert a != make_grid(1, 256, 40.0) and a != make_grid(1, 512, 20.0) and a != make_grid(2, 512, 40.0)
    assert len({a, b, make_grid(2, 512, 40.0)}) == 2


@pytest.mark.parametrize("bad_n", [15, 17, 100, 12])
def test_make_grid_rejects_non_power_of_two(bad_n):
    with pytest.raises(ValueError):
        make_grid(1, bad_n, 1.0)


@pytest.mark.parametrize("bad_len", [0.0, -1.0])
def test_make_grid_rejects_nonpositive_length(bad_len):
    with pytest.raises(ValueError):
        make_grid(1, 64, bad_len)


def test_wavenumbers_antisymmetric_up_to_nyquist():
    g = make_grid(1, 64, 10.0)
    k = g.wavenumbers
    assert k[0] == 0.0
    # entries 1..n/2-1 pair with entries -1..-(n/2-1)
    assert np.allclose(k[1 : 32], -k[-1 : -32 : -1])


def test_spectral_gradient_single_mode_exact(grid1d):
    x = grid1d.axes[0]
    k = 2 * np.pi / grid1d.length
    err = spectral_gradient(np.sin(k * x), grid1d)[0] - k * np.cos(k * x)
    assert np.max(np.abs(err)) <= 1e-12


def test_spectral_gradient_constant_is_zero(grid1d):
    out = spectral_gradient(np.full(grid1d.shape, 3.7), grid1d)
    assert np.max(np.abs(out)) <= 1e-13


def test_spectral_gradient_gaussian_closed_form(grid1d_fine):
    x = grid1d_fine.axes[0] - 20.0
    sigma = 1.5
    f = np.exp(-(x**2) / sigma**2)
    expected = -(2 * x / sigma**2) * f
    err = spectral_gradient(f, grid1d_fine)[0] - expected
    assert np.max(np.abs(err)) <= 1e-10


def test_spectral_laplacian_plane_wave_exact(grid1d):
    x = grid1d.axes[0]
    k = grid1d.wavenumbers[5]
    f = np.exp(1j * k * x)
    err = spectral_laplacian(f, grid1d) + k**2 * f
    assert np.max(np.abs(err)) <= 1e-11


def test_spectral_laplacian_gaussian_closed_form(grid1d_fine):
    x = grid1d_fine.axes[0] - 20.0
    sigma = 1.5
    f = np.exp(-(x**2) / sigma**2)
    expected = (4 * x**2 / sigma**4 - 2 / sigma**2) * f
    err = spectral_laplacian(f, grid1d_fine) - expected
    assert np.max(np.abs(err)) <= 1e-9


def test_parseval(grid1d):
    r = np.random.default_rng(7)
    f = r.standard_normal(grid1d.shape)
    phys = np.sum(np.abs(f) ** 2) * grid1d.cell_volume
    spec = np.sum(np.abs(np.fft.fft(f)) ** 2) / grid1d.n * grid1d.cell_volume
    assert abs(phys - spec) / phys <= 1e-12


@pytest.mark.parametrize("op", [spectral_gradient, spectral_laplacian])
def test_operators_linear(op, grid1d):
    r = np.random.default_rng(11)
    f = r.standard_normal(grid1d.shape)
    g = r.standard_normal(grid1d.shape)
    lhs = op(2.5 * f - 1.25 * g, grid1d)
    rhs = 2.5 * op(f, grid1d) - 1.25 * op(g, grid1d)
    scale = np.max(np.abs(rhs)) + 1.0
    assert np.max(np.abs(lhs - rhs)) / scale <= 1e-12


@pytest.mark.parametrize("grid_name", ["grid1d", "grid2d"])
def test_divergence_keeps_the_bits_of_the_per_axis_gradients(grid_name, request):
    # the sum over axes of each component's own spectral derivative, added
    # in axis order from zero
    grid = request.getfixturevalue(grid_name)
    vec = np.random.default_rng(5).standard_normal((grid.dim,) + grid.shape)
    expected = np.zeros(grid.shape)
    for axis in range(grid.dim):
        expected += spectral_gradient(vec[axis], grid)[axis]
    assert np.array_equal(spectral_divergence(vec, grid), expected)


def test_integrate_and_norm(grid2d):
    f = np.ones(grid2d.shape)
    assert integrate(f, grid2d) == pytest.approx(grid2d.length**2)
    assert norm_l2(f, grid2d) == pytest.approx(grid2d.length)


def test_shape_mismatch_raises(grid1d):
    with pytest.raises(ValueError):
        spectral_gradient(np.zeros(17), grid1d)
    with pytest.raises(ValueError):
        spectral_divergence(np.zeros((4, 4)), grid1d)


@pytest.mark.parametrize("dim, n", [(1, 512), (2, 64)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_spectral_operators_keep_the_bits_of_the_per_call_formulas(dim, n, kind):
    # the multipliers -k^2 and 1j * k built once per grid, and fft/ifft per
    # grid axis in place of fftn/ifftn, give the bits of the formulas that
    # built them on every call
    g = make_grid(dim, n, 20.0)
    r = np.random.default_rng(7 + dim)
    f = r.standard_normal(g.shape)
    if kind == "complex":
        f = f + 1j * r.standard_normal(g.shape)
    kmesh = [g.wavenumbers] if dim == 1 else [g.wavenumbers[:, None], g.wavenumbers[None, :]]
    k2 = sum(k**2 for k in kmesh)
    fh = np.fft.fftn(f)
    grad = np.empty((dim,) + g.shape, dtype=complex)
    for axis, k in enumerate(kmesh):
        grad[axis] = np.fft.ifftn(1j * k * fh)
    lap = np.fft.ifftn(-k2 * np.fft.fftn(f))
    if kind == "real":
        grad, lap = grad.real.copy(), lap.real.copy()
    assert np.array_equal(spectral_gradient(f, g), grad)
    assert np.array_equal(spectral_laplacian(f, g), lap)


def test_grid_owns_every_transform():
    # the spectral multipliers and the axis order of every transform live in
    # grid.py: no other module slices its k^2 or calls an n-dimensional FFT
    import pathlib
    import re

    import fisher_hydro

    package = pathlib.Path(fisher_hydro.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "grid.py":
            assert not re.search(r"_k2\[|\.i?r?fftn\b", path.read_text()), path.name


def test_only_the_complexifier_reads_the_unwrapped_phase():
    # grad S has one route, m j / rho in polar_decompose (HydroFields.grad_s):
    # no module but fields.py divides j by rho, and no module but
    # stresstests.py, whose complexifier takes exp(i s S), calls
    # unwrapped_phase.  np.divide appears only in fields.py, whose
    # density_quotient is every guarded quotient by rho, and in propagate.py,
    # whose kicks divide by the regularised density.  Strings and comments are
    # not code, so they are dropped.
    import io
    import pathlib
    import re
    import tokenize

    import fisher_hydro

    divides_j = re.compile(
        r"\bj\b(\s*\[[^\]]*\])*\s*/\s*(\w+\s*\.\s*)?rho\b|(divide|density_quotient)\s*\([^,]*\bj\b\s*,[^,]*\brho\b"
    )
    unwraps = re.compile(r"(?<!def )\bunwrapped_phase\s*\(")
    np_divide = re.compile(r"\bnp\s*\.\s*divide\b")
    package = pathlib.Path(fisher_hydro.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        code = " ".join(t.string for t in tokens if t.type not in (tokenize.STRING, tokenize.COMMENT))
        found[path.name] = (bool(divides_j.search(code)), bool(unwraps.search(code)), bool(np_divide.search(code)))
    assert {name for name, (divides, _, _) in found.items() if divides} == {"fields.py"}
    assert {name for name, (_, calls, _) in found.items() if calls} == {"stresstests.py"}
    assert {name for name, (_, _, np_divides) in found.items() if np_divides} == {"fields.py", "propagate.py"}
