"""Shared random-object helpers for the test suite."""

import itertools

import numpy as np

from witworld import (
    Boxworld,
    GptVector,
    LinearMap,
    effect_cone_rays,
    hermitian_tensor_to_vector,
    state_vertices,
    system,
)
from witworld.transforms import map_from_matrix_action


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_psd(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a @ a.conj().T


def partial_transpose(m, d1=2, d2=2):
    """Transpose the second tensor factor of a (d1*d2) x (d1*d2) matrix."""
    t = m.reshape(d1, d2, d1, d2)
    return t.transpose(0, 3, 2, 1).reshape(d1 * d2, d1 * d2)


def choi_map_action(x):
    """Choi's map on a qutrit (Choi 1975): positive, not decomposable."""
    return np.diag([2 * x[0, 0] + x[2, 2], x[0, 0] + 2 * x[1, 1], x[1, 1] + 2 * x[2, 2]]) - x


def choi_witness():
    """Unit-trace Choi matrix of :func:`choi_map_action` on Q3*Q3.

    Block positive, as the map is positive, but neither it (lowest
    eigenvalue -1/6) nor its partial transpose is PSD.
    """
    units = np.eye(3)
    w = sum(np.kron(np.outer(units[i], units[j]),
                    choi_map_action(np.outer(units[i], units[j])))
            for i in range(3) for j in range(3))
    return w / np.trace(w).real


def haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_vector(rng, d):
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def planted_witness(rng, d1, d2):
    """A decomposable witness pushed below zero on one product vector."""
    n = d1 * d2
    w = random_psd(rng, n) + partial_transpose(random_psd(rng, n), d1, d2)
    w /= np.trace(w).real
    ab = np.kron(haar_vector(rng, d1), haar_vector(rng, d2))
    c = np.real(ab.conj() @ w @ ab) + rng.uniform(0.02, 0.2)
    return w - c * np.outer(ab, ab.conj())


def planted_map(rng, d_in, d_out):
    """A compressed transpose minus enough of <φ|ρ|φ> |χ><χ| to turn one output negative."""
    k = haar_unitary(rng, max(d_in, d_out))[:d_out, :d_in]

    def base(m):
        return k @ m.T @ k.conj().T

    phi = haar_vector(rng, d_in)
    p_phi = np.outer(phi, phi.conj())
    chi = np.linalg.eigh(base(p_phi))[1][:, -1]
    p_chi = np.outer(chi, chi.conj())
    c = np.real(chi.conj() @ base(p_phi) @ chi) + rng.uniform(0.1, 0.3)
    return map_from_matrix_action(lambda m: base(m) - c * np.trace(p_phi @ m) * p_chi,
                                  d_in, d_out)


def random_decomposable_witness(rng):
    """Unit-trace witness P + Q^pt with P, Q random PSD; block positive."""
    w = random_psd(rng, 4) + partial_transpose(random_psd(rng, 4))
    w = w / np.real(np.trace(w))
    return hermitian_tensor_to_vector(w, (2, 2))


def random_box_effect(rng):
    """Random valid effect on B2,2 as a mixture of outcome effects."""
    rays = effect_cone_rays(Boxworld(2, 2))
    u = rays[0].coeffs + rays[1].coeffs
    extremes = [r.coeffs for r in rays] + [np.zeros(3), u]
    weights = rng.dirichlet(np.ones(len(extremes)))
    return GptVector(system(Boxworld(2, 2)), sum(w * e for w, e in zip(weights, extremes)))


def random_box_measurement(rng):
    e0 = random_box_effect(rng)
    e1 = GptVector(e0.system, np.array([0.0, 0.0, 1.0]) - e0.coeffs)
    return [e0, e1]


def random_positive_box_map(rng, terms=4):
    """Conic combination of rank-1 positive maps on B2,2."""
    atom = Boxworld(2, 2)
    verts = state_vertices(atom)
    rays = effect_cone_rays(atom)
    mat = np.zeros((3, 3))
    for _ in range(terms):
        v = verts[rng.integers(len(verts))].coeffs
        r = rays[rng.integers(len(rays))].coeffs
        mat += rng.uniform(0.2, 1.0) * np.outer(v, r)
    return LinearMap(system(atom), system(atom), mat)


def local_deterministic_box(fa, fb):
    p = np.zeros((2, 2, 2, 2))
    for x, y in itertools.product(range(2), repeat=2):
        p[fa[x], fb[y], x, y] = 1.0
    return p


def random_local_box(rng):
    """Random mixture of the 16 local deterministic boxes."""
    weights = rng.dirichlet(np.ones(16))
    p = np.zeros((2, 2, 2, 2))
    for w, (fa, fb) in zip(
        weights,
        itertools.product(itertools.product(range(2), repeat=2), repeat=2),
    ):
        p += w * local_deterministic_box(fa, fb)
    return p


def pr_box_table():
    p = np.zeros((2, 2, 2, 2))
    for a, b, x, y in itertools.product(range(2), repeat=4):
        if (a ^ b) == x * y:
            p[a, b, x, y] = 0.5
    return p


def chsh_symmetry_values(p):
    """All 8 sign-symmetric CHSH functionals of a two-party table."""
    corr = np.zeros((2, 2))
    for x, y in itertools.product(range(2), repeat=2):
        corr[x, y] = sum(
            (-1) ** (a ^ b) * p[a, b, x, y] for a, b in itertools.product(range(2), repeat=2)
        )
    vals = []
    for sx, sy, flip in itertools.product((1, -1), (1, -1), range(2)):
        signs = np.array([[1, 1], [1, -1]]) if flip == 0 else np.array([[1, -1], [1, 1]])
        vals.append(abs(sum(sx ** x * sy ** y * signs[x, y] * corr[x, y]
                            for x, y in itertools.product(range(2), repeat=2))))
    return vals


def lhs_scipy_oracle(asm, rng):
    """Shared-randomness feasibility via scipy linprog (independent route)."""
    from scipy.optimize import linprog
    from witworld import vector_to_hermitian

    outcomes, settings, els = asm.as_parties()
    keys = sorted(els)
    mats = [vector_to_hermitian(els[k]) for k in keys]
    probe = sum(rng.normal() * m for m in mats)
    _, u = np.linalg.eigh(probe)
    strategies = list(
        itertools.product(*[
            list(itertools.product(range(o), repeat=s))
            for o, s in zip(outcomes, settings)
        ])
    )
    dmat = np.zeros((len(keys), len(strategies)))
    for c, lam in enumerate(strategies):
        for r, (a_vec, x_vec) in enumerate(keys):
            if all(f[x] == a for f, a, x in zip(lam, a_vec, x_vec)):
                dmat[r, c] = 1.0
    for k in range(mats[0].shape[0]):
        t = np.array([
            np.round(np.real(u[:, k].conj() @ m @ u[:, k]), 9) for m in mats
        ])
        res = linprog(np.zeros(len(strategies)), A_eq=dmat, b_eq=t,
                      bounds=[(0, None)] * len(strategies), method="highs")
        if not res.success:
            return False
    return True
