"""Circle map families, potentials on the circle, and standing-hypothesis checks.

The circle is modelled as R/Z with fundamental domain [0, 1).  A degree-d
covering map is stored through its monotone lift F: [0, 1] -> R with
F(1) = F(0) + d; branch k is the restriction of F to [b_k, b_{k+1}] where
F(b_k) = F(0) + k, so every circle point has exactly one preimage per branch
and the branches are indexed in circle order.  The branches are inverted by
monotone_root, the one bracketed Newton solver, which also finds periodic
points and Legendre maximizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, SmoothnessError, SolverError

CIRCLE_DIAMETER = 0.5
HYPOTHESIS_GRID = 4096    # cells per branch of the expansion certificate
OSCILLATION_GRID = 8192   # points of Potential.oscillation and the (P') derivative sup

# monotone_root's default residual target and its iteration cap per point.
_NEWTON_RESIDUAL = 1e-12
_MAX_ITER = 100


def wrap(x):
    """Reduce to [0, 1); bit-identical to np.mod(x, 1.0) on finite floats."""
    return x - np.floor(x)


def lift_target(lift0, k, x):
    """x + (m + k), rounded once, with the integer m = ceil(lift0 - x)."""
    return x + (np.ceil(lift0 - x) + k)


def circle_distance(x, y):
    """d(x, y) = min(|x - y|, 1 - |x - y|) on R/Z."""
    d = np.abs(wrap(x) - wrap(y))
    return np.minimum(d, 1.0 - d)


def monotone_root(fn, dfn, u, lo, hi, flo, fhi, tol=_NEWTON_RESIDUAL, describe=None):
    """Solve fn(y) = u for increasing fn on brackets [lo, hi] where
    fn(lo) = flo and fn(hi) = fhi; dfn is fn'.

    All of u, lo, hi, flo, fhi broadcast together.  Each point starts at
    the chord of fn across its bracket (the exact root when fn is affine)
    and takes safeguarded Newton steps to residual tol: the residual's sign
    shrinks the bracket, and a step that leaves it or outgrows half the step
    before last bisects instead (rtsafe, Numerical Recipes 9.4), so Newton
    cannot cycle across an inflection.  Only unconverged points iterate, so
    each root depends only on its own target and bracket, and equal targets
    give bit-equal roots.  A point still above tol after _MAX_ITER steps
    raises SolverError naming the worst point's target u, as describe(u)
    when describe is given.

    With dfn None, fn(y) returns the pair (fn(y), slope), where slope(i)
    is fn' at y[i]: a caller whose slope reuses the work of its value
    passes it this way.  Either way the slope is taken only at the points
    of the last fn call that are still unconverged.
    """
    def evaluate(y, u):
        if dfn is None:
            value, slope = fn(y)
        else:
            value, slope = fn(y), lambda i: dfn(y[i])
        return np.asarray(value) - u, slope

    u, lo, hi, flo, fhi = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                                for a in (u, lo, hi, flo, fhi)))
    shape = u.shape
    # the chord in the broadcast shape: flo and fhi are never copied to full size
    y = np.clip(lo + (u - flo) * ((hi - lo) / (fhi - flo)), lo, hi).ravel()
    u, lo, hi = (a.ravel() for a in (u, lo, hi))
    rt, slope = evaluate(y, u)
    left = todo = np.flatnonzero(~(np.abs(rt) <= tol))
    yt, rt, lo, hi, u = (a[todo] for a in (y, rt, lo, hi, u))
    dx = dx_old = hi - lo
    for _ in range(_MAX_ITER):
        if todo.size == 0:
            return y.reshape(shape)
        lo = np.where(rt < 0.0, yt, lo)
        hi = np.where(rt > 0.0, yt, hi)
        with np.errstate(divide="ignore", invalid="ignore"):   # a zero slope bisects
            newton = rt / np.asarray(slope(left))
            step, length = yt - newton, np.abs(newton)
            newton_ok = (step > lo) & (step < hi) & (2.0 * length <= dx_old)
        dx, dx_old = np.where(newton_ok, length, 0.5 * (hi - lo)), dx
        yt = np.where(newton_ok, step, 0.5 * (lo + hi))
        rt, slope = evaluate(yt, u)
        y[todo] = yt
        left = ~(np.abs(rt) <= tol)
        todo, yt, rt, lo, hi, u, dx, dx_old = (a[left] for a in (todo, yt, rt, lo, hi, u,
                                                                  dx, dx_old))
    worst = int(np.argmax(np.abs(rt)))
    what = describe(u[worst]) if describe else f"target {u[worst]:.17g}"
    raise SolverError(f"root find failed on {what}: residual {abs(rt[worst]):.3e} "
                      f"after {_MAX_ITER} iterations")


class BranchMap:
    """A degree-d circle covering map given by a monotone smooth lift.

    Parameters
    ----------
    degree:
        Number of monotone branches d >= 2.
    lift, dlift, d2lift:
        Vectorized callables for F, F' and F'' on [0, 1].
    family_tag, family_params:
        Identification of the builtin family, echoed into reports.
    default_region:
        Suggested non-expanding region A (list of (start, end) arcs) for
        the hypothesis checker.
    """

    def __init__(self, degree, lift, dlift, d2lift=None, *, family_tag="custom",
                 family_params=None, default_region=(), holder_exponent=1.0):
        if degree < 2 or int(degree) != degree:
            raise ConfigError(f"degree must be an integer >= 2, got {degree}")
        self.degree = int(degree)
        self.lift = lift
        self.dlift = dlift
        self.d2lift = d2lift
        self.family_tag = family_tag
        self.family_params = dict(family_params or {})
        self.default_region = tuple(tuple(a) for a in default_region)
        self.holder_exponent = float(holder_exponent)

        self._lift0 = float(np.asarray(lift(np.array([0.0])))[0])
        lift1 = float(np.asarray(lift(np.array([1.0])))[0])
        if abs(lift1 - self._lift0 - self.degree) > 1e-9:
            raise ConfigError(
                f"lift must increase by degree over [0, 1]: "
                f"F(1)-F(0) = {lift1 - self._lift0}, degree = {self.degree}")
        probe = np.linspace(0.0, 1.0, 4097)
        dp = np.asarray(dlift(probe), dtype=float)
        if not np.all(dp > 0.0):
            k = int(np.argmin(dp))
            raise ConfigError(
                f"non-monotone branch detected: F'({probe[k]:.6f}) = {dp[k]:.3e}")
        self.branch_bounds = self._compute_branch_bounds()

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        return wrap(self.lift(np.asarray(x)))

    def second_derivative(self, x):
        if self.d2lift is None:
            raise SmoothnessError(f"map {self.family_tag!r} has no second derivative")
        return self.d2lift(np.asarray(x))

    # -- inverse branches ---------------------------------------------------

    def _branch_of(self, u):
        return f"inverse branch {int(np.floor(u - self._lift0))}"

    def _invert_lift(self, u, lo, hi, flo, fhi):
        """Solve F(y) = u on brackets [lo, hi] where F(lo) = flo and F(hi) = fhi."""
        return monotone_root(self.lift, self.dlift, u, lo, hi, flo, fhi, describe=self._branch_of)

    def _compute_branch_bounds(self):
        ks = np.arange(1, self.degree)
        interior = self._invert_lift(self._lift0 + ks, 0.0, 1.0,
                                     self._lift0, self._lift0 + self.degree)
        return np.concatenate(([0.0], interior, [1.0]))

    def invert_branch(self, k, x):
        """The preimage of x under branch k; k and x broadcast together.

        The root lies in branch k's domain [b_k, b_{k+1}] and solves
        F(y) = lift_target(F(0), k, x) = x + (m + k), with the integer m
        chosen so that F(0) <= x + m < F(0) + 1.  It calls monotone_root
        directly rather than through _invert_lift, so the (d, N) target array
        is freed as soon as the solver has taken the unconverged points out.
        """
        x, k = wrap(np.asarray(x, dtype=float)), np.asarray(k)
        b, flo = self.branch_bounds, self._lift0 + k
        return monotone_root(self.lift, self.dlift, lift_target(self._lift0, k, x),
                             b[k], b[k + 1], flo, flo + 1.0, describe=self._branch_of)

    def preimages(self, x):
        """All d preimages of x, sorted by branch index.

        Returns an array of shape (d, *shape(x)); row k lies in branch k's
        domain [b_k, b_{k+1}).  Endpoint ties go to the lower-indexed branch
        because each branch solves a distinct lift equation.
        """
        x = np.asarray(x, dtype=float)
        ks = np.arange(self.degree).reshape((self.degree,) + (1,) * x.ndim)
        return self.invert_branch(ks, x)


# ---------------------------------------------------------------------------
# Builtin families
# ---------------------------------------------------------------------------

def _floating(x):
    """x as an array that keeps a floating dtype (longdouble stays) and casts others to float64."""
    x = np.asarray(x)
    return x if np.issubdtype(x.dtype, np.floating) else x.astype(float)


def _pi(x):
    """pi in x's dtype: np.pi is a float64 constant, 1.2e-16 below pi."""
    return np.pi if x.dtype == np.float64 else 4 * np.arctan(np.ones((), x.dtype))


def _cos_sin_2pi(y):
    """(cos 2 pi y, sin 2 pi y) in y's dtype, from one tangent of the reduced phase.

    r = y - rint(y) is exact and lies in [-1/2, 1/2], so the pair is exactly
    periodic in y and t = tan(pi r) is finite; cos and sin follow from the
    half-angle identities (1 - t^2)/(1 + t^2) and 2t/(1 + t^2).  numpy's
    float64 tan is vectorised where its cos and sin are scalar libm calls,
    and the reduction drops the argument error of forming 2 pi y.
    """
    y = np.asarray(y)
    t = np.rint(y, out=np.empty_like(y))
    np.subtract(y, t, out=t)
    t *= _pi(t)
    np.tan(t, out=t)
    c = np.square(t, out=np.empty_like(t))
    s = np.add(c, 1.0, out=np.empty_like(t))
    np.subtract(1.0, c, out=c)
    c /= s
    t += t
    np.divide(t, s, out=s)
    return c, s


def linear_map(degree: int) -> BranchMap:
    """x -> degree * x (mod 1)."""
    d = float(degree)
    return BranchMap(
        degree,
        lambda x: d * _floating(x),
        lambda x: np.full_like(_floating(x), d),
        lambda x: np.zeros_like(_floating(x)),
        family_tag=f"linear-{degree}",
        family_params={"degree": degree},
    )


def doubling() -> BranchMap:
    """The doubling map x -> 2x (mod 1)."""
    m = linear_map(2)
    m.family_tag = "doubling"
    return m


def manneville_pomeau(alpha: float) -> BranchMap:
    """Intermittent map with indifferent fixed point at 0.

    Lift: x (1 + 2^alpha x^alpha) on [0, 1/2], 2x on (1/2, 1]; continuous,
    degree 2, F'(0) = 1.  For alpha < 1 the second derivative blows up at 0.
    """
    if not alpha > 0:
        raise ConfigError(f"manneville-pomeau alpha must be > 0, got {alpha}")
    a = float(alpha)
    try:
        c = 2.0 ** a
    except OverflowError:
        raise ConfigError(f"manneville-pomeau alpha={alpha} overflows 2**alpha") from None

    def lift(x):
        x = _floating(x)
        return np.where(x <= 0.5, x * (1.0 + c * np.power(x, a)), 2.0 * x)

    def dlift(x):
        x = _floating(x)
        return np.where(x <= 0.5, 1.0 + c * (1.0 + a) * np.power(x, a), 2.0)

    def d2lift(x):
        x = _floating(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            left = c * (1.0 + a) * a * np.power(x, a - 1.0)
        return np.where(x <= 0.5, left, 0.0)

    return BranchMap(
        2, lift, dlift, d2lift,
        family_tag="manneville-pomeau",
        family_params={"alpha": alpha},
        default_region=((0.0, 0.05),),
        holder_exponent=min(1.0, a),
    )


def _pitchfork_bump(x):
    # sin^4 localized in the branch domain [0, 1/2]; C^2 across both endpoints.
    x = _floating(x)
    s = _cos_sin_2pi(x)[1]
    return np.where(x <= 0.5, 0.25 * s ** 4, 0.0)


def _pitchfork_bump_d1(x):
    x = _floating(x)
    c, s = _cos_sin_2pi(x)
    return np.where(x <= 0.5, 2.0 * _pi(x) * s ** 3 * c, 0.0)


def _pitchfork_bump_d2(x):
    x = _floating(x)
    c, s = _cos_sin_2pi(x)
    return np.where(x <= 0.5, 4.0 * _pi(x) ** 2 * s ** 2 * (3.0 * c ** 2 - s ** 2), 0.0)


def perturbed_doubling(t: float) -> BranchMap:
    """Doubling map with a pitchfork-style C^2 bump in one injectivity domain.

    f_t(x) = 2x + t sin^4(2 pi x)/4 on [0, 1/2] and 2x on (1/2, 1]; the
    perturbation weakens expansion near the interior of the first branch
    while keeping the branch structure of the doubling map.
    """
    t = float(t)

    def lift(x):
        x = _floating(x)
        return 2.0 * x + t * _pitchfork_bump(x)

    def dlift(x):
        x = _floating(x)
        return 2.0 + t * _pitchfork_bump_d1(x)

    def d2lift(x):
        return t * _pitchfork_bump_d2(x)

    return BranchMap(
        2, lift, dlift, d2lift,
        family_tag="perturbed-doubling",
        family_params={"t": t},
    )


def translated_doubling(s: float) -> BranchMap:
    """f_s(x) = 2 (x + s) mod 1, a rotated conjugate of the doubling map."""
    s = float(s)
    return BranchMap(
        2,
        lambda x: 2.0 * (_floating(x) + s),
        lambda x: np.full_like(_floating(x), 2.0),
        lambda x: np.zeros_like(_floating(x)),
        family_tag="translated-doubling",
        family_params={"s": s},
    )


@dataclass
class ParamFamily:
    """One-parameter family s -> f_s with a closed-form parameter derivative.

    `at(s)` builds the map; `direction(s)` returns the vector field
    H = d/ds f_s as a function on the circle (closed form, never numerical).
    """
    name: str
    at: Callable[[float], BranchMap]
    direction: Callable[[float], Callable]


def perturbed_doubling_family() -> ParamFamily:
    return ParamFamily(
        name="perturbed-doubling",
        at=perturbed_doubling,
        direction=lambda s0: _pitchfork_bump,
    )


def translated_doubling_family() -> ParamFamily:
    return ParamFamily(
        name="translated-doubling",
        at=translated_doubling,
        direction=lambda s0: (lambda x: np.full_like(np.asarray(x, dtype=float), 2.0)),
    )


def constant_family(branch_map: BranchMap) -> ParamFamily:
    """Family that ignores its parameter; direction field is zero."""
    return ParamFamily(
        name=f"constant({branch_map.family_tag})",
        at=lambda s: branch_map,
        direction=lambda s0: (lambda x: np.zeros_like(np.asarray(x, dtype=float))),
    )


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Field:
    """A fixed function g on the circle, evaluated through its scale s.

    scaled(x, s) and scaled_derivative(x, s) return s g(x) and s g'(x);
    label formats with s.  geometric marks g = log F' of a map.
    """
    scaled: Callable
    scaled_derivative: Callable
    label: str
    geometric: bool = False


class Potential:
    """Real observable on the circle as one linear form, closed under + and *:

        phi(x) = c + sum_k (a_k cos 2 pi k x + b_k sin 2 pi k x) + sum_j s_j g_j(x)

    with coefficients from k = 1 and fields g_j (log F' of a map or a grid
    interpolant).  A sum adds the constants and the coefficients and joins
    the fields, so phi + t psi of two trig polynomials is one trig
    polynomial; its Holder exponent and smoothness order are the minimum
    over its parts.
    """

    def __init__(self, const=0.0, cos_coeffs=(), sin_coeffs=(), fields=(),
                 holder_exponent=1.0, smoothness_order=99):
        self.const = float(const)
        self.cos_coeffs = [float(a) for a in cos_coeffs]
        self.sin_coeffs = [float(b) for b in sin_coeffs]
        self.fields = list(fields)   # (scale s_j, Field g_j) pairs
        self.holder_exponent = float(holder_exponent)
        self.smoothness_order = smoothness_order

    def _harmonics(self):
        """(k, a_k, b_k) for each k >= 1 where a_k or b_k is nonzero."""
        pairs = zip_longest(self.cos_coeffs, self.sin_coeffs, fillvalue=0.0)
        return [(k, a, b) for k, (a, b) in enumerate(pairs, start=1) if a != 0.0 or b != 0.0]

    def _add_harmonics(self, out, x, weights):
        """out += sum_k (u_k cos 2 pi k x + v_k sin 2 pi k x), (u_k, v_k) = weights(k, a_k, b_k).

        Each harmonic makes one _cos_sin_2pi call and scales it in place.
        """
        for k, a, b in self._harmonics():
            for wave, w in zip(_cos_sin_2pi(x if k == 1 else k * x), weights(k, a, b)):
                if w != 0.0:
                    wave *= w
                    out += wave

    def __call__(self, x):
        x = _floating(x)
        out = np.zeros_like(x)
        if self.const != 0.0:
            out += self.const
        self._add_harmonics(out, x, lambda k, a, b: (a, b))
        for scale, field in self.fields:
            out += field.scaled(x, scale)
        return out

    def derivative(self, x):
        if self.smoothness_order < 1:
            raise SmoothnessError(
                "potential has smoothness order "
                f"{self.smoothness_order}; derivative not available")
        x = _floating(x)
        pi = _pi(x)
        out = np.zeros_like(x)
        # d/dx (a cos + b sin)(2 pi k x) = 2 pi k (b cos - a sin)
        self._add_harmonics(out, x, lambda k, a, b: (b * 2.0 * pi * k, -(a * 2.0 * pi * k)))
        for scale, field in self.fields:
            out += field.scaled_derivative(x, scale)
        return out

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = constant(float(other))
        if not isinstance(other, Potential):
            return NotImplemented
        return Potential(
            self.const + other.const,
            [a + b for a, b in zip_longest(self.cos_coeffs, other.cos_coeffs, fillvalue=0.0)],
            [a + b for a, b in zip_longest(self.sin_coeffs, other.sin_coeffs, fillvalue=0.0)],
            self.fields + other.fields,
            holder_exponent=min(self.holder_exponent, other.holder_exponent),
            smoothness_order=min(self.smoothness_order, other.smoothness_order),
        )

    __radd__ = __add__

    def __mul__(self, scalar):
        s = float(scalar)
        return Potential(s * self.const, [s * a for a in self.cos_coeffs],
                         [s * b for b in self.sin_coeffs],
                         [(s * scale, field) for scale, field in self.fields],
                         holder_exponent=self.holder_exponent,
                         smoothness_order=self.smoothness_order)

    __rmul__ = __mul__

    def oscillation(self):
        v = self(np.arange(OSCILLATION_GRID) / OSCILLATION_GRID)
        return float(np.max(v) - np.min(v))

    def is_constant(self):
        return not self._harmonics() and not self.fields

    def is_log_derivative(self):
        return (not self._harmonics() and bool(self.fields)
                and all(field.geometric for _, field in self.fields))

    def describe(self):
        """'trig' for the harmonics (they absorb the constant), then each
        field's label; the constant alone reads const(c)."""
        parts = ["trig"] if self._harmonics() else []
        if not parts and (self.const != 0.0 or not self.fields):
            parts.append(f"const({self.const:g})")
        return "+".join(parts + [field.label.format(scale) for scale, field in self.fields])


def constant(c: float, *, holder_exponent=1.0) -> Potential:
    return Potential(c, holder_exponent=holder_exponent)


def zero_potential() -> Potential:
    return constant(0.0)


def trig_polynomial(cos_coeffs: Sequence[float] = (), sin_coeffs: Sequence[float] = (),
                    const_term: float = 0.0) -> Potential:
    """sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x) + c, coefficients from k=1."""
    return Potential(const_term, cos_coeffs, sin_coeffs)


def log_derivative_weight(c: float, branch_map: BranchMap) -> Potential:
    """The geometric potential c * log F' of the given map."""
    alpha = branch_map.holder_exponent
    if branch_map.family_tag == "manneville-pomeau":
        # F'' blows up at the neutral point when alpha < 1
        a = branch_map.family_params["alpha"]
        order = 0 if a < 1 else (2 if a >= 2 else 1)
    else:
        order = 99

    def scaled_derivative(x, s):
        y = wrap(x)
        return s * branch_map.second_derivative(y) / branch_map.dlift(y)

    log_fp = Field(lambda x, s: s * np.log(branch_map.dlift(wrap(x))), scaled_derivative,
                   "{:g}*log|f'|", geometric=True)
    return Potential(fields=[(float(c), log_fp)], holder_exponent=alpha, smoothness_order=order)


def grid_potential(values, interpolation="linear") -> Potential:
    """The interpolant of nodal values on the uniform grid of len(values) cells;
    only the fourier interpolant has a derivative."""
    from .operator import Grid, GridFunction
    values = np.asarray(values, dtype=float)
    g = GridFunction(Grid(len(values)), values, interpolation)
    dg = g.derivative() if interpolation == "fourier" else None
    field = Field(lambda x, s: s * g(x), lambda x, s: s * dg(x), f"grid[{len(values)}]")
    return Potential(fields=[(1.0, field)], holder_exponent=1.0,
                     smoothness_order=1 if interpolation == "fourier" else 0)


# ---------------------------------------------------------------------------
# Standing hypotheses
# ---------------------------------------------------------------------------

@dataclass
class HypothesisAux:
    """Caller-supplied constants for the hypothesis checker.

    The covering constants m and delta come from an external covering
    argument and are inputs here, with documented defaults; the
    non-expanding region A and its covering count q are declared rather
    than derived.
    """
    m: Optional[int] = None
    delta: float = 0.05
    region_a: Optional[Sequence] = None
    q: Optional[int] = None

    def resolved_m(self):
        return self.m if self.m is not None else int(math.ceil(1.0 / (2.0 * self.delta)))


@dataclass
class HypothesisReport:
    """Verdicts and the explicit constants entering the smallness inequalities."""
    sigma: float
    big_l: float
    region_a: tuple
    q: int
    eps_phi: float
    vep_value: float
    vepp_value: float
    verdicts: dict
    alpha: float
    m: int
    delta: float
    deriv_sup: Optional[float] = None
    notes: tuple = ()

    def passed(self):
        """(H1) and (H2), plus smallness through either (P) or (P')."""
        smallness = self.verdicts.get("P") or self.verdicts.get("P'")
        return bool(self.verdicts.get("H1") and self.verdicts.get("H2")
                    and smallness)


def _in_region(x, region):
    x = np.asarray(x)
    mask = np.zeros(x.shape, dtype=bool)
    for a, b in region:
        turn = np.floor(a)   # both ends move by the same whole turn; b may pass 1
        a, b = a - turn, b - turn
        if b > 1.0:
            mask |= (x >= a) | (x < b - 1.0)
        else:
            mask |= (x >= a) & (x <= b)
    return mask


def smallness_values(deg, q, sigma, big_l, alpha, eps, m, diam=CIRCLE_DIAMETER):
    """Left-hand sides of the two explicit smallness inequalities."""
    core = ((deg - q) * sigma ** (-alpha)
            + q * big_l ** alpha * (1.0 + max(big_l - 1.0, 0.0) ** alpha)) / deg
    try:
        growth = math.exp(eps)
    except OverflowError:   # an oscillation past ~709 fails both inequalities
        return math.inf, math.inf
    vep = growth * core + eps * 2.0 * m * big_l ** alpha * diam ** alpha
    vepp = (1.0 + eps) * growth * core
    return vep, vepp


def check_hypotheses(branch_map: BranchMap, pot: Potential,
                     aux: Optional[HypothesisAux] = None) -> HypothesisReport:
    """Check (H1), (H2) and the potential smallness conditions (P)/(P').

    Expansion constants are certified on a sampling grid per branch with
    interval corrections from the second derivative; the report is a
    grid-resolution certificate, not a rigorous global bound.
    """
    aux = aux or HypothesisAux()
    region = aux.region_a
    if region is None:
        region = branch_map.default_region
    region = tuple(tuple(map(float, arc)) for arc in region)
    notes = []

    bounds = branch_map.branch_bounds
    sigma_min = np.inf
    inv_lip_max = 0.0
    region_nonempty = len(region) > 0
    for k in range(branch_map.degree):
        xs = np.linspace(bounds[k], bounds[k + 1], HYPOTHESIS_GRID + 1)
        fp = np.asarray(branch_map.dlift(xs), dtype=float)
        # second-derivative samples, nudged off the left endpoint where the
        # intermittent families blow up
        xs_dd = xs.copy()
        xs_dd[0] = xs[0] + (xs[1] - xs[0]) * 1e-3
        if branch_map.d2lift is not None:
            fpp = np.abs(np.asarray(branch_map.d2lift(xs_dd), dtype=float))
            fpp[~np.isfinite(fpp)] = np.nanmax(fpp[np.isfinite(fpp)]) if np.any(np.isfinite(fpp)) else 0.0
        else:
            fpp = np.zeros_like(xs)
            notes.append(f"branch {k}: no second derivative; certificate is sample-only")
        h = xs[1] - xs[0]
        m2 = np.maximum(fpp[:-1], fpp[1:])
        interval_min = np.minimum(fp[:-1], fp[1:]) - m2 * h * h / 8.0
        in_a = _in_region(xs, region)
        pair_in_a = in_a[:-1] & in_a[1:]
        pair_touch_a = in_a[:-1] | in_a[1:]
        outside = ~pair_in_a
        if np.any(outside):
            sigma_min = min(sigma_min, float(np.min(interval_min[outside])))
        if region_nonempty and np.any(pair_touch_a):
            # L(x) = 1/F'(x); certify its max over A from the interval minima of F'
            inside_min = np.maximum(interval_min[pair_touch_a], 1e-300)
            inv_lip_max = max(inv_lip_max, float(np.max(1.0 / inside_min)))

    sigma = sigma_min * (1.0 - 1e-9)
    big_l = max(inv_lip_max, 1.0)

    if aux.q is not None:
        q = int(aux.q)
    else:
        q = 0
        for k in range(branch_map.degree):
            xs = np.linspace(bounds[k], bounds[k + 1], 1025)
            if region_nonempty and np.any(_in_region(xs, region)):
                q += 1

    eps = pot.oscillation()
    m = aux.resolved_m()
    alpha = min(pot.holder_exponent, 1.0)
    vep, vepp = smallness_values(branch_map.degree, q, sigma, big_l, alpha, eps, m)

    verdicts = {
        "H1": bool(sigma > 1.0),
        "H2": bool(q < branch_map.degree),
        "P": bool(vep < 1.0 and vepp < 1.0),
    }

    # (P') for smooth potentials: rerun the inequalities with the oscillation
    # replaced by the larger of oscillation and the derivative sup norm.
    deriv_sup = None
    if pot.smoothness_order >= 1:
        xs = np.arange(OSCILLATION_GRID) / OSCILLATION_GRID
        try:
            deriv_sup = float(np.max(np.abs(pot.derivative(xs))))
            eps_smooth = max(eps, deriv_sup)
            vep_s, vepp_s = smallness_values(
                branch_map.degree, q, sigma, big_l, alpha, eps_smooth, m)
            verdicts["P'"] = bool(vep_s < 1.0 and vepp_s < 1.0)
        except SmoothnessError:
            verdicts["P'"] = None
    else:
        verdicts["P'"] = None

    return HypothesisReport(
        sigma=float(sigma), big_l=float(big_l), region_a=region, q=q,
        eps_phi=float(eps), vep_value=float(vep), vepp_value=float(vepp),
        verdicts=verdicts, alpha=alpha, m=m, delta=aux.delta,
        deriv_sup=deriv_sup, notes=tuple(notes))
