"""One input rule for every public entry: counts are integers in range,
arrays are finite, offsets are finite and nonnegative, and a printed volume
does not underflow."""
import math

import numpy as np
import pytest

from gausszonoids.cli import main
from gausszonoids.determinants import FrameSpec, mixed_volume_coeff, mixed_volume_ellipsoids_mc
from gausszonoids.fields import (
    GridSpec,
    ScalarFieldSpec,
    concentration_limit,
    envelope_sandwich,
    section_support,
    section_volume,
    sine_field,
)
from gausszonoids.geometry import (
    BODY_KINDS,
    KINDS,
    GaussianVector,
    RevolutionBody,
    boundary_profile,
    check_inclusion,
    gaussian_support,
    gaussian_volume,
    limit_boundary_radius,
    limit_inradius_grid,
    mean_stretch_matrix,
    sandwich_constant,
    volume,
    volume_asymptote,
    volume_bounds,
)
from gausszonoids.kernels import ball_volume, factorial
from gausszonoids.montecarlo import MCConfig, stream

_EYE2 = GaussianVector(np.eye(2), np.zeros(2))

# (entry, call of one value, parameter name, least value, a valid value)
COUNTS = [
    ("ball_volume", ball_volume, "m", 0, 3),
    ("factorial", factorial, "n", 0, 5),
    ("MCConfig.samples", lambda v: MCConfig(v), "samples", 1, 10),
    ("MCConfig.seed", lambda v: MCConfig(10, v), "seed", 0, 7),
    ("stream.seed", lambda v: stream(v, 0).random(4), "seed", 0, 7),
    ("stream.index", lambda v: stream(0, v).random(4), "index", 0, 7),
    ("RevolutionBody", lambda v: RevolutionBody("gaussian", v, 1.0), "dim", 1, 3),
    ("gaussian_volume", lambda v: gaussian_volume(v, np.array([0.5, 2.0])), "dim", 1, 3),
    *[
        (f"BODY_KINDS[{kind}].volume", lambda v, kind=kind: BODY_KINDS[kind].volume(v, 1.0), "dim", 1, 3)
        for kind in KINDS
    ],
    ("volume_bounds", lambda v: volume_bounds(v, 1.0), "dim", 1, 3),
    ("volume_asymptote", volume_asymptote, "dim", 1, 3),
    (
        "boundary_profile",
        lambda v: boundary_profile(RevolutionBody("gaussian", 2, 1.0), v),
        "n_points",
        2,
        9,
    ),
    ("limit_inradius_grid", limit_inradius_grid, "n", 1, 101),
    ("check_inclusion.dim", lambda v: check_inclusion(v, 1.0, n_dirs=100), "dim", 1, 3),
    ("check_inclusion.n_dirs", lambda v: check_inclusion(3, 1.0, n_dirs=v), "n_dirs", 1, 100),
    ("FrameSpec", lambda v: FrameSpec(v, [_EYE2]), "dim", 1, 2),
    ("mixed_volume_coeff.m", lambda v: mixed_volume_coeff(v, 1), "m", 1, 4),
    ("mixed_volume_coeff.k", lambda v: mixed_volume_coeff(4, v), "k", 1, 2),
    (
        "mixed_volume_ellipsoids_mc",
        lambda v: mixed_volume_ellipsoids_mc([np.eye(3)], v, MCConfig(2000, 1)),
        "dim",
        1,
        3,
    ),
    ("ScalarFieldSpec", lambda v: ScalarFieldSpec(v, np.sin, np.cos), "dim", 1, 2),
    ("sine_field.frequency", lambda v: sine_field(v), "frequency", 1, 3),
    ("sine_field.dim", lambda v: sine_field(2, v), "dim", 1, 2),
    ("GridSpec", GridSpec, "resolution", 16, 64),
    ("concentration_limit", lambda v: concentration_limit(v, 1.0, 1.0), "dim", 1, 3),
]
_IDS = [entry[0] for entry in COUNTS]


def _fingerprint(x):
    """What a result is, to the bit and with the types of its fields."""
    if isinstance(x, ScalarFieldSpec):
        p = np.linspace(0.0, 6.0, 7)[:, None] * np.ones(x.dim)
        return x.name, repr(x.dim), x.zero_set_measure, np.asarray(x.phi(p)).tobytes()
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    return repr(x)


@pytest.mark.parametrize("entry, call, name, least, good", COUNTS, ids=_IDS)
@pytest.mark.parametrize("bad", ["True", "below", "2.5", "2.0"])
def test_counts_refuse_bools_floats_and_values_below_their_least(entry, call, name, least, good, bad):
    value = {"True": True, "below": min(0, least - 1), "2.5": 2.5, "2.0": 2.0}[bad]
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call(value)


@pytest.mark.parametrize("entry, call, name, least, good", COUNTS, ids=_IDS)
def test_numpy_integers_give_the_int_results(entry, call, name, least, good):
    assert _fingerprint(call(np.int64(good))) == _fingerprint(call(good))


def test_counts_refuse_values_above_their_range():
    GridSpec(1 << 22)
    with pytest.raises(ValueError, match="resolution must be at least 16 and at most 4194304"):
        GridSpec((1 << 22) + 1)
    MCConfig(1, (1 << 64) - 1)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        MCConfig(1, 1 << 64)


@pytest.mark.parametrize("call, name", [
    (lambda: gaussian_support(1.0, math.nan, 1.0), "x"),
    (lambda: gaussian_support(1.0, 1.0, math.inf), "yr"),
    (lambda: GaussianVector([[1.0, 0.0], [0.0, math.inf]], np.zeros(2)), "matrix"),
    (lambda: GaussianVector(np.eye(2), [0.0, math.nan]), "mean"),
    (lambda: _EYE2.support([math.nan, 1.0]), "u"),
    (lambda: mean_stretch_matrix([1.0, math.nan]), "c"),
    (lambda: limit_boundary_radius(math.nan), "x"),
    (lambda: section_volume(sine_field(2), [math.nan], 0.1), "points"),
    (lambda: section_support(sine_field(2), [0.1], 0.1, [math.nan]), "u"),
])
def test_finite_array_checks_name_their_parameter(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        call()


@pytest.mark.parametrize("s", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize("call", [
    lambda s: gaussian_support(s, 1.0, 0.0),
    lambda s: RevolutionBody("ellipsoid", 2, s),
    lambda s: volume_bounds(2, s),
    lambda s: sandwich_constant(s),
    lambda s: check_inclusion(2, s, n_dirs=10),
])
def test_one_offset_check_for_every_scalar_offset(call, s):
    with pytest.raises(ValueError, match="mean offset s must be finite and nonnegative"):
        call(s)


# the first m whose volume(), and whose volume_bounds(), falls below the
# least normal float, at s = 0, 1 and 50
@pytest.mark.parametrize("s, first_volume, first_bounds", [(0.0, 300, 291), (1.0, 300, 291), (50.0, 302, 292)])
def test_volumes_refuse_to_underflow(s, first_volume, first_bounds):
    assert volume(RevolutionBody("gaussian", first_volume - 1, s)) > 0.0
    with pytest.raises(ValueError, match="below the least normal float"):
        volume(RevolutionBody("gaussian", first_volume, s))
    assert volume_bounds(first_bounds - 1, s).lower > 0.0
    with pytest.raises(ValueError, match="below the least normal float"):
        volume_bounds(first_bounds, s)


def test_normalized_and_limit_volumes_refuse_to_underflow():
    # the normalized volume is formed from the gaussian one, which underflows first
    assert volume(RevolutionBody("normalized", 299, 1.0)) > 1e-200
    with pytest.raises(ValueError, match="gaussian volume falls below"):
        volume(RevolutionBody("normalized", 300, 1.0))
    assert volume(RevolutionBody("limit", 435)) > 0.0
    with pytest.raises(ValueError, match="volume falls below"):
        volume(RevolutionBody("limit", 436))
    with pytest.raises(ValueError, match="volume slope falls below"):
        volume_asymptote(300)


@pytest.mark.parametrize("argv", [
    ("--m", "320", "--s", "1"),
    ("--m", "300", "--s", "1"),
    ("--kind", "normalized", "--m", "313", "--s", "1"),
    ("--kind", "limit", "--m", "436"),
])
def test_cli_volume_that_underflows_exits_2(capsys, argv):
    code = main(["zonoid", "volume", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "below the least normal float" in captured.err


def test_cli_volume_prints_above_the_least_normal_float(capsys):
    assert main(["zonoid", "volume", "--m", "290", "--s", "1"]) == 0
    assert '"volume": ' in capsys.readouterr().out


@pytest.mark.parametrize("slack", [math.inf, -1e-3, math.nan])
def test_sandwich_refuses_a_slack_that_is_not_finite_and_nonnegative(slack):
    with pytest.raises(ValueError, match="slack must be finite and nonnegative"):
        envelope_sandwich(sine_field(2), 0.1, GridSpec(64), slack=slack)
    assert envelope_sandwich(sine_field(2), 0.1, GridSpec(64), slack=1e-10).passed
