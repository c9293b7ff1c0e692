"""Nonlocal circle convolutions against the peaked kernel and its derivative.

The transport form of the wave equation couples the local flow to two
half-convolutions of the perturbation density

    q[v] = v^2 + (1/2) v_x^2,
    Q[v](x) = (1/2) int_T phi'(x - y) q[v](y) dy,
    P[v](x) = (1/2) int_T phi(x - y)  q[v](y) dy.

Q has zero circle mean (so the perturbation mean is conserved) and is the
x-derivative of P.  The O(n^2) oracle :func:`conv_q`/:func:`conv_p` takes
samples on position nodes covering [0, 2*pi] and integrates in position.
The integrator's O(n) path :func:`node_convolutions` works in the
characteristic parameter with weight J = dX/ds, which keeps steepening
fronts resolved where X compresses.

Quadrature is the derivative-corrected trapezoid of :mod:`.quadrature`;
the panel containing the kernel corner is split there with one-sided kernel
values (:func:`.kernel.convolve_samples`), so the piecewise-smooth
integrands are integrated piecewise.  Panel sums run left to right for
bit-reproducible results.

The O(n) path runs in ``_stage.c``, a C kernel that the first
:class:`StageWorkspace` or state CSV of a process compiles with the C compiler
Python was built with (a compiler is required for every RK4 stage, nonlinear
or linear, and for ``cli.write_state_csv``, whose text ``state_csv`` formats)
and caches in this package's ``__pycache__``.  It is built with
``-ffp-contract=off``, since a fused multiply-add would round differently from
the NumPy formulas it reproduces bit for bit; NumPy still fills its cosh/sinh
table.  The kernel runs whole RK4 steps (:meth:`StageWorkspace.rk4_step`, and
for the linearized flow :meth:`StageWorkspace.linear_step`): one call per stage
after the table, which adds the stage to the step's sum and writes the next
stage's input into the workspace.  A lone stage is the first stage of such a
step.  A :class:`StageWorkspace` is the kernel's ``stage`` struct itself: its
pointers into the 25 n floats it allocates once and owns, and the step that
``rk4_start`` sets; each compiled call is handed the workspace.

For the identity that eliminates the convolutions from the linearized flow,
see :func:`reduction_identity_gap`.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernel
from .kernel import TWO_PI, M, m
from .quadrature import as_grid, fd_derivative

_DOUBLES = ctypes.POINTER(ctypes.c_double)


@dataclass(frozen=True)
class DensitySample:
    """Finite perturbation samples on at least 3 increasing position nodes spanning [0, 2*pi].

    The first and last node coincide on the circle, which is how one-sided
    slope data at the peak is carried.
    """

    nodes: np.ndarray
    v: np.ndarray
    vx: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        v = np.asarray(self.v, dtype=float)
        vx = np.asarray(self.vx, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "vx", vx)
        if not (nodes.shape == v.shape == vx.shape) or nodes.ndim != 1:
            raise ValueError("nodes, v, vx must be 1-d arrays of one length")
        if not np.isfinite((nodes, v, vx)).all():
            raise ValueError("nodes, v, vx must be finite")
        if len(nodes) < 3:
            raise ValueError("need at least 3 nodes")
        if abs(nodes[0]) > 1e-12 or abs(nodes[-1] - TWO_PI) > 1e-9:
            raise ValueError("nodes must span [0, 2*pi]")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")


def q_density(sample: DensitySample) -> np.ndarray:
    """Pointwise density v^2 + v_x^2/2; nonnegative by construction."""
    return sample.v ** 2 + 0.5 * sample.vx ** 2


def _half_convolution(which: str, sample: DensitySample, targets) -> np.ndarray:
    if targets is None:
        targets = sample.nodes
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if targets.size == 0:
        raise ValueError("targets must be nonempty")
    q = q_density(sample)
    frame = (sample.nodes, q, fd_derivative(sample.nodes, q))
    return np.array([0.5 * kernel.convolve_samples(which, frame, x) for x in targets])


def conv_q(sample: DensitySample, targets=None) -> np.ndarray:
    """Q[v] at the target positions (the sample's own nodes by default)."""
    return _half_convolution("phi_prime", sample, targets)


def conv_p(sample: DensitySample, targets=None) -> np.ndarray:
    """P[v] at the target positions (the sample's own nodes by default)."""
    return _half_convolution("phi", sample, targets)


class StageBuildError(RuntimeError):
    """The C compiler could not build ``_stage.c``; the message names the command and its stderr."""


_STAGE_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")  # no fused multiply-add


def _load_stage(cache_dir, cc=None):
    """``_stage.c`` as a loaded library, compiled first with the compiler command cc (a list;
    by default the C compiler Python was built with) into cache_dir unless a build of the
    same source and flags is there already.  The build goes to a temporary file that is then
    renamed, so a concurrent load never sees half of it, and then the other ``_stage-*.so``
    builds there are deleted; a failed build raises :class:`StageBuildError` with the
    command and the compiler's stderr."""
    try:  # CPython's own SHA-256: hashlib would map OpenSSL, 3.7 MB more peak RSS
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        from _sha256 import sha256

    source = Path(__file__).with_name("_stage.c")
    key = sha256(source.read_bytes() + " ".join(_STAGE_FLAGS).encode()).hexdigest()
    path = Path(cache_dir) / f"_stage-{key[:16]}.so"
    if not path.exists():
        import contextlib
        import shlex
        import subprocess
        import sysconfig
        import tempfile

        if cc is None:  # looked up only for a build: sysconfig adds 0.2 MB of peak RSS
            cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
        os.close(fd)
        cmd = [*cc, *_STAGE_FLAGS, "-o", tmp, str(source)]
        failed = f"building the stage kernel failed: {' '.join(cmd)}\n"
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                raise StageBuildError(failed + proc.stderr)
            os.chmod(tmp, 0o755)  # mkstemp made it private to this user
            os.replace(tmp, path)
        except OSError as exc:
            raise StageBuildError(failed + str(exc)) from exc
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        for old in set(Path(cache_dir).glob("_stage-*.so")) - {path}:  # older sources' builds
            with contextlib.suppress(OSError):
                old.unlink()
    lib = ctypes.CDLL(str(path))
    stage = ctypes.POINTER(StageWorkspace)
    lib.rk4_start.argtypes = (stage, _DOUBLES, _DOUBLES, ctypes.c_double, ctypes.c_double,
                              ctypes.c_int)
    lib.rk4_stage.argtypes = (stage, ctypes.c_int)
    lib.rk4_start.restype = None
    lib.rk4_stage.restype = ctypes.c_double
    lib.state_csv.argtypes = (ctypes.c_void_p, ctypes.c_long, ctypes.c_double, ctypes.c_void_p)
    lib.state_csv.restype = ctypes.c_long
    return lib


@functools.cache
def _stage_library():
    """The stage kernel, built with the C compiler Python was built with and cached in this
    package's ``__pycache__``; loaded once per process, by the first :class:`StageWorkspace`
    or state CSV."""
    return _load_stage(Path(__file__).with_name("__pycache__"))


class StageWorkspace(ctypes.Structure):
    """An RK4 stage on n >= 3 nodes s as the ``stage`` struct of ``_stage.c``, which its kernel
    reads: pointers into the ``arrays`` it owns (the ``rows`` W, V, U, J, ``args`` = X, X - pi,
    pi + X and their ``cosh`` and ``sinh``, a stage's ``QP`` and derivative ``k`` and a step's
    sum ``acc``: 25 n floats, and the weights of the :class:`.quadrature.Grid` of s) and the step
    that ``rk4_start`` sets.  Built once per run by ``integrate_nonlinear`` and
    ``integrate_linear``; the steps of :meth:`rk4_step` and :meth:`linear_step` and
    :meth:`first_stage` share its memory, and a step holds its workspace."""

    _fields_ = [("n", ctypes.c_long),
                *((name, _DOUBLES)
                  for name in "cosh sinh rows half dx2_12 a b c QP k acc args".split()),
                *((name, ctypes.c_double) for name in "a0 b0 c0 a1 b1 c1 half_m m M".split()),
                ("Z", _DOUBLES), ("out", _DOUBLES), ("pmv", ctypes.c_double),
                ("dt6", ctypes.c_double), ("h", ctypes.c_double * 3), ("linear", ctypes.c_int)]

    def __init__(self, s):
        grid = as_grid(s)
        n = len(grid.x)
        if n < 3:
            raise ValueError("a stage needs at least 3 nodes")
        lib = _stage_library()
        self.rk4_start, self.rk4_stage = lib.rk4_start, lib.rk4_stage
        (a, b, c), first, last = grid.stencil
        # the arrays of the pointer fields cosh ... args, in field order
        self.arrays = (*np.empty((2, 3, n)), np.empty((4, n)), *grid.panel, a, b, c,
                       np.empty((2, n)), np.empty((5, n)), np.empty((5, n)), np.empty((3, n)))
        super().__init__(n, *(r.ctypes.data_as(_DOUBLES) for r in self.arrays), *first, *last,
                         0.5 * m, m, M)

    def rk4_step(self, pmv: float, dt: float):
        """The classical RK4 step of dt for the nonlinear flow, ``state.rk4(rhs, dt)`` bit for
        bit when rhs(t, Z) is ``nonlinear._rhs(self, Z, pmv)``.

        ``step(t, Z)`` takes the (5, n) rows Z = (X, W, V, U, J) (another shape raises
        ValueError) and returns (Z one step later, a new array, and the first stage's P(0)).
        It makes one compiled call to start and then, per stage, NumPy's cosh and sinh of
        ``args`` into the table and one compiled call, which runs the stage, adds its
        derivative to the step's sum in ``state.rk4``'s order and writes the next stage's
        input (or the result) into ``rows`` and ``args``."""
        return self._stages(pmv, dt, 4)

    def linear_step(self, pmv: float, dt: float):
        """The classical RK4 step of dt for the linearized flow, ``state.rk4(rhs, dt)`` bit for
        bit when rhs(t, Z) is ``(linear._linear_rhs(Z, pmv), None)``: the step of
        :meth:`rk4_step` with the linearized field, which needs no convolutions and only the
        X and X - pi rows of the table.  ``step(t, Z)`` returns (Z one step later, None)."""
        return self._stages(pmv, dt, 4, linear=True)

    def first_stage(self, Z: np.ndarray, pmv: float):
        """The first stage of a :meth:`rk4_step` step from Z: its derivative dZ, (5, n), and
        its (Q, P), (2, n), in this workspace's memory, which the next stage overwrites."""
        self._stages(pmv, 0.0, 1)(0.0, Z)
        *_, QP, k, _, _ = self.arrays  # ..., QP, k, acc, args
        return k, QP

    def _stages(self, pmv: float, dt: float, count: int, linear: bool = False):
        """The step of :meth:`rk4_step` (of :meth:`linear_step` if linear) cut after its first
        count stages (4: the whole step), each of which leaves its derivative in ``k`` and,
        unless linear, its (Q, P) in ``QP``."""
        shape = (5, self.n)
        rows = slice(2 if linear else 3)  # the table rows the stage reads: X, X - pi (, pi + X)
        (cosh, sinh, *_, args), start, stage = self.arrays, self.rk4_start, self.rk4_stage
        args, cosh, sinh = args[rows], cosh[rows], sinh[rows]

        def step(t, Z):
            Z = np.ascontiguousarray(Z, dtype=float)
            if Z.shape != shape:  # the kernel would read past the end of a smaller Z
                raise ValueError(f"a step needs the {shape} rows X, W, V, U, J, got {Z.shape}")
            out = np.empty(shape)
            start(self, ctypes.c_double.from_buffer(Z), ctypes.c_double.from_buffer(out), pmv, dt,
                  linear)
            for j in range(count):
                np.cosh(args, out=cosh)
                np.sinh(args, out=sinh)
                p = stage(self, j)
                if j == 0:
                    p0 = None if linear else p  # the extra: P(0) of Z itself
            return out, p0

        return step


def node_convolutions(s, X: np.ndarray, V: np.ndarray, U: np.ndarray, J: np.ndarray):
    """Q[v] and P[v] at every characteristic node in O(n), as the rows of one new array.

    Splitting the kernel's cosh/sinh of (X_i - X_j) by addition formulas
    turns both convolutions into running Hermite integrals of cosh(X) g and
    sinh(X) g, g = q J, over the characteristic parameter s, read from below
    and from above every node.  On a position grid (X = s, J = 1) this is
    algebraically the panel-split rule of :func:`conv_q`/:func:`conv_p`, at O(n)
    instead of O(n^2).  They are the (Q, P) of the first stage on the :class:`StageWorkspace`
    ``s`` from the rows (X, 0, V, U, J), so each of X, V, U and J may be anything that
    broadcasts to a row of n; another shape raises ValueError.  ``s`` may also be the nodes
    or their :class:`.quadrature.Grid`, for which a new workspace is built and dropped.
    """
    ws = s if isinstance(s, StageWorkspace) else StageWorkspace(s)
    Z = np.empty((5, ws.n))
    for row, x in zip(Z, (X, 0.0, V, U, J)):
        np.copyto(row, x)
    return ws.first_stage(Z, 0.0)[1].copy()


def reduction_identity_gap(profile, x: float, nodes: int = 4096) -> float:
    """Residual of the identity that removes convolutions from the linear flow.

    For a periodic profile v the combination

        [v(0) - v(x)] phi'(x) - (phi' * phi v)(x) - (1/2)(phi' * phi' v_x)(x)

    collapses to  phi(x) w0(x) - (1/2) m^2 sinh(x) * (2*pi vbar)  with
    w0(x) = int_0^x v.  Left side by kernel quadrature, right side in closed
    form from the profile; returns |left - right|, which tends to 0 with the
    node count.  x is reduced to [-pi, pi] (sinh is not periodic).
    """
    xr = float(kernel.reduce_angle(x))
    phiv = lambda y: kernel.phi_open_interval(y) * profile.value(y)
    phiv_p = lambda y: (kernel.phi_prime_open_interval(y) * profile.value(y)
                        + kernel.phi_open_interval(y) * profile.slope(y))
    phipvx = lambda y: kernel.phi_prime_open_interval(y) * profile.slope(y)
    phipvx_p = lambda y: (kernel.phi_open_interval(y) * profile.slope(y)
                          + kernel.phi_prime_open_interval(y) * profile.second_derivative(y))
    conv1 = kernel.circle_convolution("phi_prime", phiv, phiv_p, xr, nodes)
    conv2 = kernel.circle_convolution("phi_prime", phipvx, phipvx_p, xr, nodes)
    v0 = profile.value(0.0)
    vx_val = profile.value(np.mod(xr, TWO_PI))
    left = (v0 - vx_val) * kernel.phi_prime(xr) - conv1 - 0.5 * conv2

    w0 = profile.antiderivative(np.mod(xr, TWO_PI))
    if xr < 0.0:
        w0 -= TWO_PI * profile.vbar
    right = kernel.phi(xr) * w0 - 0.5 * m * m * math.sinh(xr) * TWO_PI * profile.vbar
    return abs(left - right)
