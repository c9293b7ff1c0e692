"""Acceptance gate: every headline property at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The figure-boundedness check asserts the envelope the linear flow guarantees
for zero-mean data: W/(M - phi(X)) is constant along characteristics and X
decreases towards 0, so each V(t,s) lies between v0(s) and
V_inf(s) = v0(s) + w0(s) coth(pi - s/2).  Hence max|V| <= 2.4865 for sin
and 1.6107 for cos; the sine figure reaches 2.2153 at t = 4.
"""

import math
import time

import numpy as np
import pytest

from peakonlab import cli, convolution, kernel, linear, nonlinear, waves
from peakonlab.cli import ScenarioConfig, read_state_csv, run_scenario
from peakonlab.energetics import check_conserved, energies
from peakonlab.kernel import M, m
from peakonlab.profiles import InitialCondition, cosine, sine
from peakonlab.state import cosine_grid

TWO_PI = 2.0 * math.pi
MIXED = InitialCondition(cosine_coeffs=(0.2, 0.1), sine_coeffs=(0.3,), bump_amplitude=0.15)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({detail})", flush=True)
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_kernel_identities():
    t0 = time.perf_counter()
    ident = abs(M * M - m * m - 1.0)
    unit = abs(kernel.circle_convolution(
        "phi", lambda y: np.ones_like(y), lambda y: np.zeros_like(y), 1.0, 4096) - 2.0)
    residuals = [kernel.stationary_residual(x, 4096)
                 for x in np.linspace(0.2, TWO_PI - 0.2, 16)]
    elapsed = time.perf_counter() - t0
    ok = ident < 1e-12 and unit < 1e-8 and max(residuals) < 1e-8 and elapsed < 1.0
    report(1, "kernel identities", ok,
           f"|M^2-m^2-1|={ident:.1e}, |phi*1-2|={unit:.1e}, "
           f"max stationary residual={max(residuals):.1e}, {elapsed:.2f}s")


def test_criterion_02_reduction_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    profiles = [sine(), cosine()]
    for _ in range(3):
        profiles.append(InitialCondition(
            cosine_coeffs=tuple(rng.uniform(-1, 1, 5) / np.arange(1, 6)),
            sine_coeffs=tuple(rng.uniform(-1, 1, 5) / np.arange(1, 6))))
    worst = 0.0
    for prof in profiles:
        for x in np.linspace(-math.pi, math.pi, 16):
            worst = max(worst, convolution.reduction_identity_gap(prof, x, 4096))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7 and elapsed < 5.0
    report(2, "convolution-reduction identity", ok,
           f"max gap={worst:.1e} over 5 profiles x 16 points, {elapsed:.2f}s")


def test_criterion_03_closed_form_vs_ode():
    t0 = time.perf_counter()
    worst = {"V": 0.0, "W": 0.0, "X": 0.0}
    for ic in (sine(), cosine()):
        traj = linear.integrate_linear(ic, 1.0, dt=1e-3, n_chars=256, save_times=[1.0])
        st = traj.states[-1]
        X, _, _ = linear.exact_characteristic(1.0, st.s)
        worst["V"] = max(worst["V"], float(np.max(np.abs(st.V - linear.exact_v(1.0, st.s, ic)))))
        worst["W"] = max(worst["W"], float(np.max(np.abs(st.W - linear.exact_w(1.0, st.s, ic)))))
        worst["X"] = max(worst["X"], float(np.max(np.abs(st.X - X))))
    elapsed = time.perf_counter() - t0
    ok = all(v < 1e-6 for v in worst.values()) and elapsed < 30.0
    report(3, "closed form vs ODE integration", ok,
           f"max errors V={worst['V']:.1e}, W={worst['W']:.1e}, X={worst['X']:.1e}, "
           f"{elapsed:.1f}s at 256 characteristics")


def test_criterion_04_linear_conservation():
    worst_peak, worst_mean = 0.0, 0.0
    for ic in (sine(), cosine(), MIXED):
        traj = linear.integrate_linear(ic, 1.0, dt=1e-3, n_chars=512,
                                       save_times=[0.25, 0.5, 0.75, 1.0])
        for st in traj.states:
            worst_peak = max(worst_peak, abs(st.V[0] - ic.v0_at_0))
            worst_mean = max(worst_mean, abs(st.W[-1] / TWO_PI - ic.vbar))
            worst_mean = max(worst_mean, abs(energies(st).vbar_measured - ic.vbar))
    ok = worst_peak < 1e-8 and worst_mean < 1e-8
    report(4, "linear conservation of peak value and mean", ok,
           f"max |V(t,0)-v0(0)|={worst_peak:.1e}, max mean drift={worst_mean:.1e}")


def test_criterion_05_slope_growth_law():
    worst = 0.0
    for ic, law in ((sine(), lambda t: math.exp(t)),
                    (cosine(), lambda t: M * math.expm1(t))):
        traj = linear.integrate_linear(ic, 3.0, dt=1e-3, n_chars=512,
                                       save_times=[1.0, 2.0, 3.0])
        for st in traj.states:
            rel = abs(st.U[1] - law(st.t)) / abs(law(st.t))
            worst = max(worst, rel)
    ok = worst < 1e-3
    report(5, "peak slope growth law (first interior characteristic)", ok,
           f"max relative deviation={worst:.1e}")


def test_criterion_06_l_infinity_boundedness():
    s = cosine_grid(2000)
    worst_ratio = 0.0
    for ic in (sine(), cosine()):
        early = max(np.max(np.abs(linear.exact_v(t, s, ic)))
                    for t in np.linspace(0.0, 10.0, 101))
        late = max(np.max(np.abs(linear.exact_v(t, s, ic)))
                   for t in np.linspace(10.0, 20.0, 101))
        worst_ratio = max(worst_ratio, late / early)
    ok = worst_ratio < 1.01
    report(6, "amplitude boundedness over long horizons", ok,
           f"sup ratio [10,20]/[0,10]={worst_ratio:.6f} (< 1.01)")


def test_criterion_07_h1_growth_law():
    worst_rel, worst_drift = 0.0, 0.0
    for ic in (sine(), cosine(), MIXED):
        consts = linear.h1_constants(ic, 1024)
        traj = linear.integrate_linear(ic, 2.0, dt=1e-3, n_chars=1024,
                                       save_times=[0.0, 0.5, 1.0, 1.5, 2.0])
        reports = [energies(st) for st in traj.states]
        for rep in reports[1:]:
            worst_rel = max(worst_rel, abs(rep.E_v - consts.energy(rep.t))
                            / abs(consts.energy(rep.t)))
        worst_drift = max(worst_drift, check_conserved(reports)["combo_linear"]["rel"])
    ok = worst_rel < 1e-3 and worst_drift < 1e-6
    report(7, "squared-H1 growth law", ok,
           f"max forecast error={worst_rel:.1e}, combo drift={worst_drift:.1e}")


def test_criterion_08_nonlinear_conservation():
    t0 = time.perf_counter()
    traj = nonlinear.integrate_nonlinear(
        sine(0.01), 2.0, dt=5e-4, n_chars=512,
        save_times=[0.0, 0.5, 1.0, 1.5, 2.0])
    assert traj.status == "completed"
    drifts = check_conserved([energies(st) for st in traj.states])
    elapsed = time.perf_counter() - t0
    # vbar is checked absolutely: the sine profile has exactly zero mean
    ok = (drifts["E_u"]["rel"] < 1e-5 and drifts["F_u"]["rel"] < 1e-5
          and drifts["combo_nonlinear"]["rel"] < 1e-5
          and drifts["vbar"]["abs"] < 1e-5 and elapsed < 300.0)
    report(8, "nonlinear conservation (512 chars, dt=5e-4)", ok,
           f"rel drifts E_u={drifts['E_u']['rel']:.1e}, F_u={drifts['F_u']['rel']:.1e}, "
           f"combo={drifts['combo_nonlinear']['rel']:.1e}, "
           f"|vbar|={drifts['vbar']['abs']:.1e}, {elapsed:.0f}s")


def test_criterion_09_small_amplitude_consistency():
    eps_list = (1e-2, 5e-3, 2.5e-3)
    devs = []
    for eps in eps_list:
        traj = nonlinear.integrate_nonlinear(sine(eps), 1.0, dt=1e-3,
                                             n_chars=256, save_times=[1.0])
        st = traj.states[-1]
        lin = eps * np.asarray(linear.exact_v(1.0, st.s, sine()))
        devs.append(float(np.max(np.abs(st.V - lin))))
    slopes = [math.log2(a / b) for a, b in zip(devs, devs[1:])]
    consts = [d / e ** 2 for d, e in zip(devs, eps_list)]
    ok = all(1.8 <= sl <= 2.2 for sl in slopes) and max(consts) / min(consts) < 1.5
    report(9, "quadratic smallness of the nonlinear remainder", ok,
           f"Richardson slopes={[f'{sl:.2f}' for sl in slopes]}, "
           f"dev/eps^2 in [{min(consts):.3f}, {max(consts):.3f}]")


def test_criterion_10_instability_and_breaking(breaking_run):
    ic, traj, run_s = breaking_run
    t0 = time.perf_counter()
    budget = ic.h1_norm() + abs(ic.v0_slope_right)
    crossed = traj.diag_t[np.abs(traj.diag_u_right) >= 1.0]
    forcing = nonlinear.measured_forcing_bound(traj)
    bound = nonlinear.riccati_bound(traj.diag_u_right[0], forcing)
    elapsed = run_s + time.perf_counter() - t0
    ok = (abs(budget - 0.01) < 1e-6
          and len(crossed) > 0
          and traj.status == "blew_up" and traj.max_abs_slope >= 1e6
          and crossed[0] < traj.t_stop
          and math.isfinite(bound)
          and traj.t_stop <= bound + 5e-4)
    report(10, "instability reaches slope 1, then finite-time breaking", ok,
           f"|slope|>=1 at t={crossed[0]:.3f}, stop t={traj.t_stop:.4f} <= "
           f"supersolution bound {bound:.4f} + dt, {elapsed:.0f}s")


def test_criterion_11_classification_trichotomy():
    rng = np.random.default_rng(314)
    failures = 0
    for _ in range(100):
        c = rng.uniform(0.2, 3.0)
        fold = 4.0 * c ** 3 / 27.0
        kind = rng.integers(0, 3)
        if kind == 0:
            fam = waves.classify(0.0, c)
            failures += fam.family != "peaked"
        elif kind == 1:
            fam = waves.classify(rng.uniform(0.05, 3.0) * fold, c)
            failures += fam.family != "cusped"
        else:
            fam = waves.classify(-rng.uniform(0.05, 0.95) * fold, c)
            p = fam.critical_points
            failures += (fam.family != "smooth_candidate"
                         or not (p[0] < p[1] < c < p[2]))
    profile, c, _ = waves.peaked_member(m)
    x = np.linspace(-math.pi, math.pi, 257)
    prof_err = float(np.max(np.abs(profile(x) - kernel.phi(x))))
    speed_err = abs(c - M)
    ok = failures == 0 and prof_err < 1e-12 and speed_err < 1e-12
    report(11, "traveling-wave trichotomy", ok,
           f"misclassifications={failures}/100, kernel-profile error={prof_err:.1e}, "
           f"speed error={speed_err:.1e}")


def _figure_runs(tmp_path):
    runs = {}
    for name, spec in (("sin", "sin"), ("cos", "cos")):
        out = tmp_path / name
        config = ScenarioConfig(mode="linear-exact", ic_spec=spec,
                                t_samples=(0.0, 1.0, 2.0, 4.0), n_chars=256,
                                out_dir=str(out))
        assert run_scenario(config) == 0
        frames = []
        for i in range(4):
            data = read_state_csv(out / f"state_{i:02d}.csv")
            n = len(data["X"]) // 2
            frames.append({k: v[n:] for k, v in data.items()})  # fundamental block
        runs[name] = frames
    return runs


def test_criterion_12_figure_slope_steepening(tmp_path):
    runs = _figure_runs(tmp_path)
    ok = True
    details = []
    for name, frames in runs.items():
        slopes = [(f["V"][1] - f["V"][0]) / (f["X"][1] - f["X"][0]) for f in frames]
        details.append(f"{name}: {[f'{sl:.2f}' for sl in slopes]}")
        ok = ok and all(b > a for a, b in zip(slopes, slopes[1:]))
    report(12, "figure reproduction: slope right of the peak steepens", ok,
           "; ".join(details))


def _amplitude_envelope(ic, s):
    """Limit profile V_inf(s) = v0 + w0 coth(pi - s/2) of zero-mean data, s in (0, 2pi)."""
    return ic.value(s) + ic.antiderivative(s) / np.tanh(math.pi - 0.5 * s)


def test_criterion_12_figure_amplitude_bound(tmp_path):
    # For zero-mean data W/(M - phi(X)) is constant along each characteristic
    # and X falls monotonically from s towards 0, so V = v0 + f (V_inf - v0)
    # with f in [0, 1) increasing in t.  Every interior V lies between v0 and
    # V_inf, the endpoints stay at v0(0), and max|V| <= max(|v0|, |V_inf|):
    # 2.4865 for sin, 1.6107 for cos.
    runs = _figure_runs(tmp_path)
    profiles = {"sin": sine(), "cos": cosine()}
    fine = np.linspace(0.0, TWO_PI, 4097)[1:-1]
    ok = True
    details = []
    for name, frames in runs.items():
        ic = profiles[name]
        bound = float(max(np.max(np.abs(ic.value(fine))),
                          np.max(np.abs(_amplitude_envelope(ic, fine)))))
        excursion, end_err, worst = -math.inf, 0.0, 0.0
        for f in frames:
            s, V = f["s"], f["V"]
            v0 = ic.value(s[1:-1])
            v_inf = _amplitude_envelope(ic, s[1:-1])
            excursion = max(excursion,
                            float(np.max(np.minimum(v0, v_inf) - V[1:-1])),
                            float(np.max(V[1:-1] - np.maximum(v0, v_inf))))
            end_err = max(end_err, abs(V[0] - ic.v0_at_0), abs(V[-1] - ic.v0_at_0))
            worst = max(worst, float(np.max(np.abs(V))))
        details.append(f"{name}: max|V|={worst:.4f} vs envelope sup {bound:.4f}, "
                       f"worst excursion {excursion:.1e}, endpoint error {end_err:.1e}")
        ok = ok and excursion <= 1e-12 and end_err <= 1e-12 and worst <= bound
    report(12, "figure reproduction: amplitude stays inside its v0-to-V_inf envelope", ok,
           "; ".join(details))
