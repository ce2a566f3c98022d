"""Physical parameters, reaction terms and initial profiles.

Admissibility is checked once by :func:`validate`, which names each violated
hypothesis by its rule id instead of raising, so batch drivers can report the
full list.  Rule ids:

    (config)  positivity/consistency of the plain parameters
    (f1)      f(0) = 0, and f is locally Lipschitz (a polynomial in u)
    (f2)      a threshold K exists with f <= 0 for u > K
    (1.2a)    v0 vanishes at +-h0 with nonzero slope and is positive inside;
              v0 and the front speeds mu |v0'(+-h0)| are finite

Both initial families are V times an even profile that is positive inside
(-h0, h0), peaks at 1 at x = 0 and has a known slope at +-h0, so (1.2a) is
decided in closed form from V, h0 and mu, with no samples of v0.

Solvers only ever see a :class:`ValidatedConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NegativeDensity

REACTION_FAMILIES = ("zero", "fisher_kpp", "custom_polynomial")
INITIAL_FAMILIES = ("quadratic_bump", "cosine_bump")


@dataclass(frozen=True)
class ReactionSpec:
    """Reaction term f(u), a polynomial in u for every family.

    ``zero`` is f = 0, ``fisher_kpp`` is f = a u - b u^2, and
    ``custom_polynomial`` coefficients ascend from the constant term, which
    must be zero for admissibility.
    """

    family: str = "zero"
    a: float = 1.0
    b: float = 1.0
    coefficients: tuple[float, ...] = ()


@dataclass(frozen=True)
class InitialDataSpec:
    """Initial profile v0 on [-h0, h0], extended by zero outside: V (1 - (x/h0)^2)
    or V cos(pi x / (2 h0)).  h0 is ``ProblemConfig.h0``, so one number sets
    v0's support and the initial domain (-h0, h0)."""

    family: str = "quadratic_bump"
    V: float = 1.0


@dataclass(frozen=True, eq=False)
class ProblemConfig:
    d: float = 1.0
    mu: float = 1.0
    h0: float = 1.0
    T: float = 1.0
    reaction: ReactionSpec = field(default_factory=ReactionSpec)
    initial: InitialDataSpec = field(default_factory=InitialDataSpec)


@dataclass(frozen=True, eq=False)
class ValidatedConfig:
    """A ProblemConfig annotated with derived bounds.

    ``violations`` is empty exactly when the config is admissible; ``K`` is
    the largest u where f changes sign (or 0), so f <= 0 above it, and ``L0``
    the largest |f'| on the densities the run can reach, [0, u_cap]: at an end
    or where f'' changes sign.
    """

    config: ProblemConfig
    K: float = 0.0
    L0: float = 0.0
    sup_v0: float = 0.0
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    # The solvers' hot paths read these; each is one attribute of .config.
    d = property(lambda self: self.config.d)
    mu = property(lambda self: self.config.mu)
    h0 = property(lambda self: self.config.h0)
    T = property(lambda self: self.config.T)
    reaction = property(lambda self: self.config.reaction)
    initial = property(lambda self: self.config.initial)


def reaction_coefficients(spec: ReactionSpec) -> tuple[float, ...]:
    """Ascending coefficients of the polynomial f(u); the one family branch."""
    if spec.family == "zero":
        return ()
    if spec.family == "fisher_kpp":
        return (0.0, spec.a, -spec.b)
    if spec.family == "custom_polynomial":
        return tuple(spec.coefficients)
    raise ValueError(f"unknown reaction family: {spec.family!r}")


def eval_reaction(spec: ReactionSpec, u):
    """f(u) for u >= 0; raises NegativeDensity on negative input.

    The one guard: callers pass their states unclamped, so a negative
    excursion is reported, not hidden.  Horner's rule from the leading
    coefficient, in place; for fisher_kpp this is ``u * (a - b u)`` bit for
    bit.  The zero reaction is the scalar 0.0, which callers add in place as
    they would an array of zeros.
    """
    u = np.asarray(u, dtype=float)
    if u.min(initial=0.0) < 0.0:
        raise NegativeDensity("reaction evaluated at negative density")
    c = reaction_coefficients(spec)
    if not c:
        return 0.0
    out = u * c[-1] if len(c) > 1 else np.full_like(u, c[0])
    for ck in c[-2:0:-1]:
        out += ck
        out *= u
    if len(c) > 1 and c[0]:
        out += c[0]
    if out.ndim == 0:
        return float(out)
    return out


def eval_initial(spec: InitialDataSpec, h0: float, x):
    """v0(x), zero outside [-h0, h0]."""
    xa = np.abs(np.asarray(x, dtype=float))  # both families are even; |x| makes that exact
    inside = xa < h0
    if spec.family == "quadratic_bump":
        out = np.where(inside, spec.V * (1.0 - (xa / h0) ** 2), 0.0)
    elif spec.family == "cosine_bump":
        out = np.where(inside, spec.V * np.cos(0.5 * np.pi * xa / h0), 0.0)
    else:
        raise ValueError(f"unknown initial family: {spec.family!r}")
    if out.ndim == 0:
        return float(out)
    return out


# numpy.polynomial.polynomial's polyder, polyval and polytrim for ascending
# float64 coefficients, in the same order of operations, so K, L0 and every
# default dt keep their bits; numpy.polynomial itself costs a process about
# 1 MB and 5 ms to import.


def _polyder(c: np.ndarray) -> np.ndarray:
    """The derivative's coefficients j c_j, j = 1..n; (0 c_0,) for a constant."""
    if c.size == 1:
        return c * 0
    return np.arange(1, c.size) * c[1:]


def _polyval(x, c: np.ndarray):
    """Horner's rule from c[-1] + 0 x, elementwise over a list x."""
    if isinstance(x, list):  # a scalar stays one: numpy's scalar arithmetic is faster
        x = np.asarray(x)
    out = c[-1] + x * 0
    for i in range(2, c.size + 1):
        out = c[-i] + out * x
    return out


def _polytrim(c) -> np.ndarray:
    """c without its trailing exact zeros, keeping at least one coefficient."""
    c = np.asarray(c, dtype=float)
    nonzero = np.flatnonzero(c)
    return c[: nonzero[-1] + 1] if nonzero.size else c[:1] * 0


def _sign_changes(c) -> list[float]:
    """The u > 0 where the polynomial with ascending coefficients c changes
    sign, ascending.  Each derivative is monotone between the sign changes of
    the next, so each such interval holds at most one, which bisection finds
    to the last bit however many decades apart the roots lie."""
    chain = [c]
    while len(chain[-1]) > 1:
        chain.append(_polyder(chain[-1]))
    roots = []
    for p in chain[-2::-1]:  # from the linear derivative up to c itself
        ends, roots = [0.0, *roots], []
        for lo, hi in zip(ends, [*ends[1:], None]):
            s = np.sign(_polyval(lo, p))
            if hi is None:  # beyond the last end p heads to sign(p[-1]) * inf
                hi = np.float64(max(1.0, 2.0 * lo))  # a float64 raises on overflow
                while s == np.sign(_polyval(hi, p)) != np.sign(p[-1]):
                    hi *= 2.0
            if s == 0.0 or np.sign(_polyval(hi, p)) == s:
                continue
            while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
                lo, hi = (mid, hi) if np.sign(_polyval(mid, p)) == s else (lo, mid)
            roots.append(float(hi))
    return roots


def _initial_slopes(spec: InitialDataSpec, h0: float) -> tuple[float, float]:
    """One-sided |v0'| at -h0 and +h0, in closed form."""
    if spec.family == "quadratic_bump":
        s = 2.0 * abs(spec.V) / h0
    else:  # cosine_bump, the one other family validate admits
        s = 0.5 * np.pi * abs(spec.V) / h0
    return s, s


def validate(config: ProblemConfig) -> ValidatedConfig:
    """Check every admissibility hypothesis; collect violations by rule id."""
    violations: list[str] = []
    for name in ("d", "mu", "h0", "T"):
        value = getattr(config, name)
        if not (np.isfinite(value) and value > 0.0):
            violations.append(f"(config): {name} must be positive and finite")

    reaction = config.reaction
    if reaction.family not in REACTION_FAMILIES:
        violations.append(f"(config): unknown reaction family {reaction.family!r}")
        return ValidatedConfig(config=config, violations=tuple(violations))
    coeffs = reaction_coefficients(reaction)
    if not np.all(np.isfinite(coeffs)):
        violations.append("(config): reaction coefficients must be finite")
        return ValidatedConfig(config=config, violations=tuple(violations))
    if coeffs and coeffs[0] != 0.0:
        violations.append("(f1): f(0) != 0")

    initial = config.initial
    if initial.family not in INITIAL_FAMILIES:
        violations.append(f"(config): unknown initial family {initial.family!r}")
        return ValidatedConfig(config=config, violations=tuple(violations))
    if config.h0 > 0.0:
        sup_v0 = float(initial.V)  # both profiles peak at 1, at x = 0
        if not sup_v0 > 0.0:
            violations.append("(1.2a): v0 not positive on (-h0, h0)")
        sl, sr = _initial_slopes(initial, config.h0)
        if not (sl > 0.0 and sr > 0.0):
            violations.append("(1.2a): v0 has vanishing one-sided slope at +-h0")
        # A mu that is not positive and finite is the (config) rule's to report.
        elif 0.0 < config.mu < math.inf and not (
                sup_v0 < math.inf and config.mu * max(sl, sr) < math.inf):
            violations.append("(1.2a): v0 or its front speed mu |v0'(+-h0)| is not finite")
    else:
        sup_v0 = 0.0

    c = _polytrim(coeffs) if coeffs else np.zeros(1)
    K = L0 = math.inf
    if c[-1] > 0.0:
        violations.append("(f2): no K found with f <= 0 for u > K")
    elif math.isfinite(sup_v0):  # else a violation above names the profile
        try:
            with np.errstate(over="raise", invalid="raise"):
                K = max([0.0, *_sign_changes(c)])
                u_cap = 1.1 * max(K, sup_v0) + 1.0
                df = _polyder(c)
                u = [0.0, u_cap, *(r for r in _sign_changes(_polyder(df)) if r < u_cap)]
                L0 = float(np.max(np.abs(_polyval(u, df))))
        except FloatingPointError:
            violations.append("(f2): computing K and L0 overflows the float range")
    return ValidatedConfig(config, K, L0, sup_v0, tuple(violations))


def require_valid(validated: ValidatedConfig) -> ValidatedConfig:
    if not validated.ok:
        raise ValueError("inadmissible config: " + "; ".join(validated.violations))
    return validated


# -- config file round trip (dotted key = value lines) -----------------------

_CONFIG_KEYS = ("d", "mu", "h0", "T")


def save_config(config: ProblemConfig, path) -> None:
    """Write the config as dotted key-value lines."""
    lines = [f"{k} = {getattr(config, k):.17g}" for k in _CONFIG_KEYS]
    r = config.reaction
    lines.append(f"reaction.family = {r.family}")
    if r.family == "fisher_kpp":
        lines.append(f"reaction.a = {r.a:.17g}")
        lines.append(f"reaction.b = {r.b:.17g}")
    elif r.family == "custom_polynomial":
        if not r.coefficients:
            raise ValueError("a custom_polynomial reaction needs at least one coefficient")
        lines.append("reaction.coefficients = " + ",".join(f"{c:.17g}" for c in r.coefficients))
    i = config.initial
    lines.append(f"initial.family = {i.family}")
    lines.append(f"initial.V = {i.V:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_config(path) -> ProblemConfig:
    """Parse a dotted key-value config file written by :func:`save_config`."""
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in entries:
                raise ValueError(f"repeated config key {key!r}")
            entries[key] = value

    def number(key, text):
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"config key {key!r}: {text!r} is not a number") from None

    def pop_float(key, default=None):
        if key in entries:
            return number(key, entries.pop(key))
        if default is None:
            raise ValueError(f"config missing required key {key!r}")
        return default

    d = pop_float("d")
    mu = pop_float("mu")
    h0 = pop_float("h0")
    T = pop_float("T")
    rfam = entries.pop("reaction.family", "zero")
    if rfam == "custom_polynomial":
        key = "reaction.coefficients"
        raw = entries.pop(key, "")
        if not raw:
            raise ValueError(f"config key {key!r} must list the custom_polynomial's coefficients")
        coeffs = tuple(number(key, c.strip()) for c in raw.split(","))
        reaction = ReactionSpec(family=rfam, coefficients=coeffs)
    elif rfam == "fisher_kpp":
        reaction = ReactionSpec(rfam, pop_float("reaction.a", 1.0), pop_float("reaction.b", 1.0))
    else:  # a and b belong to fisher_kpp alone; any other family leaves them unknown keys
        reaction = ReactionSpec(family=rfam)
    initial = InitialDataSpec(
        family=entries.pop("initial.family", "quadratic_bump"),
        V=pop_float("initial.V", 1.0),
    )
    if entries:
        raise ValueError(f"unknown config keys: {sorted(entries)}")
    return ProblemConfig(d=d, mu=mu, h0=h0, T=T, reaction=reaction, initial=initial)


def symmetric_stefan(T: float = 1.0, V: float = 1.0) -> ProblemConfig:
    """The reference spreading setup, the defaults: d = mu = h0 = 1, f = 0,
    quadratic bump of height V."""
    return ProblemConfig(T=T, initial=InitialDataSpec(V=V))


def fisher_kpp_config(T: float = 1.0, a: float = 1.0, b: float = 1.0) -> ProblemConfig:
    """Logistic growth on the same symmetric initial bump."""
    return ProblemConfig(T=T, reaction=ReactionSpec(family="fisher_kpp", a=a, b=b))


def with_horizon(config: ProblemConfig, T: float) -> ProblemConfig:
    return replace(config, T=T)
