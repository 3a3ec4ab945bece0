"""Generalized Maxwell section law on the beam strain measures.

A long-term spring in parallel with m spring-dashpot branches acts directly on
the translational strain and on the curvature change.  Branch strains are
internal variables with first-order evolution laws; their trapezoidal time
discretization turns each branch update into two scalar coefficients

    c_a = h / (2 tau_a + h)        (feeds the current total strain)
    d_a = (2 tau_a - h) / (2 tau_a + h)   (feeds the previous branch strain)

so the branch strain at the end of a step is ``c_a * strain + beta`` with the
history term ``beta = c_a * strain_old + d_a * branch_old`` known at step
start.  All constitutive matrices are diagonal and stored as length-3 vectors.

The total strains travel as one stacked (4, n, 3) array of the four channels
(Gam, Gam,s, Kap, Kap,s) at n points, the trailing axis the material
component.  The channels share these recursions, so the branch strains and
history terms of all of them are advanced as two stacked (m, 4, n, 3) arrays.
The points may follow different laws: ``PointLaws`` spells the laws out per
point, one moduli table ``CNM`` (m + 1, 4, n, 3) for all four channels, with
m the largest branch count and zero moduli padding a law with fewer branches
before its long-term spring.  The history sums, the effective stiffness
(4, n, 3) of a step and the resultants (N, N,s, M, M,s) come out stacked in
the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .splines import check_positive, check_real


@dataclass(frozen=True)
class MaxwellElement:
    """One spring-dashpot branch: Young's modulus E (Pa), relaxation time tau (s)."""
    E: float
    tau: float

    def __post_init__(self):
        check_positive(self.E, "Maxwell element E")
        check_positive(self.tau, "Maxwell element tau")


@dataclass(frozen=True)
class SectionGeometry:
    """Cross-section integrals: area, shear areas and second moments (m^2, m^4)."""
    A: float
    A2: float
    A3: float
    Jt: float
    J2: float
    J3: float

    def __post_init__(self):
        for name in ("A", "A2", "A3", "Jt", "J2", "J3"):
            check_positive(getattr(self, name), f"section {name}")

    @classmethod
    def circle(cls, diameter: float) -> "SectionGeometry":
        check_positive(diameter, "section diameter")
        A = np.pi * diameter ** 2 / 4.0
        I = np.pi * diameter ** 4 / 64.0
        return cls(A=A, A2=A, A3=A, Jt=2.0 * I, J2=I, J3=I)

    @classmethod
    def square(cls, side: float) -> "SectionGeometry":
        # torsion constant defaults to the polar moment J2 + J3
        check_positive(side, "section side")
        A = side ** 2
        I = side ** 4 / 12.0
        return cls(A=A, A2=A, A3=A, Jt=2.0 * I, J2=I, J3=I)


@dataclass(frozen=True)
class SectionLaw:
    """Assembled constitutive data of one beam section.

    Diagonals follow the material component ordering (axial/torsion first):
    ``CN_* = (E*A, G*A2, G*A3)`` for forces and ``CM_* = (G*Jt, E*J2, E*J3)``
    for couples.  ``CNM`` (m + 1, 4, 1, 3) holds CNv of each branch, then
    CN_inf, on the Gam and Gam,s channels and CMv, then CM_inf, on Kap and
    Kap,s.  ``inertia`` is the rotary inertia diagonal
    ``rho * (J2+J3, J2, J3)`` and ``mu = rho * A`` the mass per unit length.
    A law compares and hashes on its inputs alone.
    """
    E_inf: float
    nu: float
    rho: float
    geometry: SectionGeometry
    elements: tuple[MaxwellElement, ...]
    CN_inf: np.ndarray = field(init=False, compare=False)
    CM_inf: np.ndarray = field(init=False, compare=False)
    CNv: np.ndarray = field(init=False, compare=False)
    CMv: np.ndarray = field(init=False, compare=False)
    taus: np.ndarray = field(init=False, compare=False)
    CN0: np.ndarray = field(init=False, compare=False)
    CM0: np.ndarray = field(init=False, compare=False)
    mu: float = field(init=False, compare=False)
    inertia: np.ndarray = field(init=False, compare=False)
    CNM: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_positive(self.E_inf, "E_inf")
        check_positive(self.rho, "rho")
        if not -1.0 < check_real(self.nu, "nu") <= 0.5:
            raise ValueError("Poisson's ratio outside (-1, 0.5]")
        g = self.geometry
        E = np.array([el.E for el in self.elements] + [self.E_inf])
        G = E / (2.0 * (1.0 + self.nu))
        CN = np.stack([E * g.A, G * g.A2, G * g.A3], axis=1)
        CM = np.stack([G * g.Jt, E * g.J2, E * g.J3], axis=1)
        for name, value in (
                ("CN_inf", CN[-1]), ("CM_inf", CM[-1]), ("CNv", CN[:-1]),
                ("CMv", CM[:-1]), ("CN0", CN[-1] + CN[:-1].sum(axis=0)),
                ("CM0", CM[-1] + CM[:-1].sum(axis=0)),
                ("taus", np.array([el.tau for el in self.elements],
                                  dtype=float)),
                ("mu", self.rho * g.A),
                ("inertia", self.rho * np.array([g.J2 + g.J3, g.J2, g.J3])),
                ("CNM", np.stack([CN, CN, CM, CM], axis=1)[:, :, None])):
            object.__setattr__(self, name, value)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def instantaneous_young(self) -> float:
        return self.E_inf + sum(el.E for el in self.elements)

    def elastic_limit(self) -> "SectionLaw":
        """Rate-independent comparison law with the instantaneous modulus."""
        return SectionLaw(self.instantaneous_young(), self.nu, self.rho,
                          self.geometry, ())


def build_section_law(E_inf: float, nu: float, elements, geometry: SectionGeometry,
                      rho: float) -> SectionLaw:
    """Assemble a SectionLaw; ``elements`` is an iterable of (E, tau) pairs."""
    els = tuple(el if isinstance(el, MaxwellElement) else MaxwellElement(*el)
                for el in elements)
    return SectionLaw(E_inf, nu, rho, geometry, els)


def trapezoidal_coeffs(taus: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-branch update coefficients (c_a, d_a) of the trapezoidal rule."""
    check_positive(h, "time step")
    taus = np.asarray(taus, dtype=float)
    den = 2.0 * taus + h
    return h / den, (2.0 * taus - h) / den


class PointLaws:
    """The section laws of n points spelled out per point: ``laws`` are the
    distinct laws and ``index`` (n,) the law of every point.

    ``CNM`` (m + 1, 4, n, 3) holds the moduli of every point in the layout
    of ``SectionLaw.CNM``, m the largest branch count; a law with fewer
    branches gets zero moduli and coefficients before its long-term spring,
    which add exact zeros to every sum.  ``mu`` (n, 1) and ``inertia``
    (n, 3) are the mass per unit length and the rotary inertia.
    """

    def __init__(self, laws, index: np.ndarray):
        self.laws, self.index = tuple(laws), index
        self.m = max(law.n_elements for law in self.laws)
        CNM = np.zeros((len(self.laws), self.m + 1, 4, 3))
        for l, law in enumerate(self.laws):
            CNM[l, [*range(law.n_elements), -1]] = law.CNM[:, :, 0]
        self.CNM = np.ascontiguousarray(CNM[index].transpose(1, 2, 0, 3))
        self.mu = np.array([[law.mu] for law in self.laws])[index]
        self.inertia = np.array([law.inertia for law in self.laws])[index]
        self._steps = {}

    def at_step(self, h: float) -> tuple:
        """The effective stiffness (4, n, 3) of steps of size ``h``, CN_bar
        on Gam and Gam,s and CM_bar on Kap and Kap,s, and the trapezoidal
        coefficients (c, d) of every law gathered to the (m, 4, n, 3) shape
        of the viscous arrays, which numpy multiplies without setting up a
        broadcast (cached per step size, read-only)."""
        cached = self._steps.get(h)
        if cached is None:
            cd = np.zeros((2, len(self.laws), self.m))
            for l, law in enumerate(self.laws):
                cd[:, l, :law.n_elements] = trapezoidal_coeffs(law.taus, h)
            c, d = np.broadcast_to(cd[:, self.index].transpose(0, 2, 1)[
                ..., None, :, None], (2, self.m, 4, len(self.index), 3)).copy()
            Cv = self.CNM[:-1]
            cached = (self.CNM[-1] + Cv.sum(axis=0) - (c * Cv).sum(axis=0),
                      c, d)
            for a in cached:
                a.setflags(write=False)
            self._steps[h] = cached
        return cached


class ViscousState:
    """Branch strains and history terms at a set of points.

    ``branch`` and ``beta`` are stacked (m, 4, n, 3) for m branches, the four
    strain channels (Gam, Gam,s, Kap, Kap,s) and n points; the trailing axis
    is the material component.  The ,s channels hold arc-length derivatives
    and are advanced with the same scalar recursions (the coefficients do not
    depend on s).
    """

    def __init__(self, n_elements: int, n_points: int):
        self.m = n_elements
        self.n = n_points
        self.branch = np.zeros((n_elements, 4, n_points, 3))
        self.beta = np.zeros((n_elements, 4, n_points, 3))
        # scratch (m + 1, 4, n, 3) of ``compute_beta``, ``internal_forces``
        # and ``history``
        self._work = np.empty((n_elements + 1, 4, n_points, 3))

    def copy(self) -> "ViscousState":
        out = ViscousState(self.m, self.n)
        out.branch[...] = self.branch
        out.beta[...] = self.beta
        return out

    def history(self, law: PointLaws) -> np.ndarray:
        """The Maxwell history sums sum_a C_a beta_a of the four channels,
        stacked (4, n, 3) like the strains: CNv on Gam and Gam,s, CMv on Kap
        and Kap,s.  The products are taken on arrays of one shape, which
        numpy does without setting up a broadcast, and added branch by
        branch in branch order."""
        work = np.multiply(law.CNM[:-1], self.beta, self._work[:-1])
        return np.add.reduce(work, axis=0)


def compute_beta(law: PointLaws, state: ViscousState, strains: np.ndarray,
                 h: float) -> None:
    """Refresh the history terms of ``state`` for a step of size ``h``.

    ``strains`` are the stacked total strains (4, n, 3) at the step start;
    the state's branch strains must correspond to the same instant.
    """
    _, c, d = law.at_step(h)
    S = np.multiply(c, strains, state._work[:-1])
    beta = np.multiply(d, state.branch, state.beta)
    np.add(beta, S, beta)


def update_viscous_state(law: PointLaws, state: ViscousState,
                         strains: np.ndarray, h: float) -> None:
    """Advance the branch strains to the step end using the stored betas.

    ``strains`` are the converged stacked total strains (4, n, 3) at the
    step end; the betas in ``state`` must have been computed at the step
    start.
    """
    branch = np.multiply(law.at_step(h)[1], strains, state.branch)
    np.add(branch, state.beta, branch)


def internal_forces(law: PointLaws, strains: np.ndarray,
                    state: ViscousState) -> np.ndarray:
    """Material resultants (N, N,s, M, M,s), stacked (4, n, 3), of the
    stacked total strains ``strains`` (4, n, 3).

    The long-term spring acts on the total strain; each branch contributes in
    proportion to the elastic part ``strain - branch strain`` (summed in that
    form: expanding it would cancel digits when the long-term modulus is
    small against the branch moduli).
    """
    # the long-term spring is the last row, so the sum adds it last, to the
    # branch sum, as in CN_inf * Gam + sum_a CNv_a (Gam - Gam_a)
    work = state._work
    np.subtract(strains, state.branch, work[:-1])
    work[-1] = strains
    np.multiply(work, law.CNM, work)
    return np.add.reduce(work, axis=0)
