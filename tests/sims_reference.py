"""Array-based simulations, kept as the bit-for-bit test oracle.

This is ``derivkit.sims._simulate`` as it was before its RK4 loop moved to
Python floats: an RK4 step that builds a small array for every stage, ODE
right-hand sides returning arrays, and a cruise controller that evaluates
the hill profile on a one-sample slice per step. It is slow (about 200 µs
per sample for the RK4 cases) and exists only so tests can require the
library's output to equal it exactly.
"""

from __future__ import annotations

import numpy as np

from derivkit.sims import RK4_SUBSTEPS, SimulationCase, cruise_control_matrices, hill_profile


def rk4(f, x0: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.empty((len(t), len(x0)))
    out[0] = x0
    x = np.array(x0, dtype=float)
    for n in range(1, len(t)):
        h = (t[n] - t[n - 1]) / RK4_SUBSTEPS
        tau = t[n - 1]
        for _ in range(RK4_SUBSTEPS):
            k1 = f(tau, x)
            k2 = f(tau + h / 2, x + h / 2 * k1)
            k3 = f(tau + h / 2, x + h / 2 * k2)
            k4 = f(tau + h, x + h * k3)
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            tau += h
        out[n] = x
    return out


def simulate(case: SimulationCase) -> tuple[np.ndarray, np.ndarray]:
    """(x, xdot) of a benchmark case, computed as the library did with arrays."""
    n = int(round(case.T / case.dt))
    t = case.dt * np.arange(n)

    if case.name == "sine_sum":
        x = np.zeros(n)
        xdot = np.zeros(n)
        for a, f, ph in zip((0.5, 0.35, 0.25), (1.0, np.sqrt(2.0), np.sqrt(5.0)), (0.0, 0.7, 1.9)):
            w = 2 * np.pi * f
            x += a * np.sin(w * t + ph)
            xdot += a * w * np.cos(w * t + ph)
        return x, xdot

    if case.name == "triangles":
        amp, period = 0.8, 2.0
        phase = (t / period) % 1.0
        rising = phase < 0.5
        x = np.where(rising, amp * (4 * phase - 1), amp * (3 - 4 * phase))
        slope = 4 * amp / period
        return x, np.where(rising, slope, -slope)

    if case.name == "cruise_control":
        A, B, _ = cruise_control_matrices(case.dt)
        states = np.zeros((n, 4))
        x = np.zeros(4)
        for i in range(1, n):
            u = np.array([hill_profile(t[i - 1 : i])[0], 0.5])  # desired velocity 0.5
            x = A @ x + B @ u
            states[i] = x
        return states[:, 0], states[:, 1]

    if case.name == "lti_second_order":
        zeta, omega = 0.2, 2 * np.pi

        def f(_, s):
            return np.array([s[1], -2 * zeta * omega * s[1] - omega**2 * (s[0] - 1.0)])

        states = rk4(f, np.zeros(2), t)
        return states[:, 0], states[:, 1]

    if case.name == "lorenz_x":
        sig, rho, beta, scale = 10.0, 28.0, 8.0 / 3.0, 1.0 / 20.0

        def f(_, s):
            return np.array([sig * (s[1] - s[0]),
                             s[0] * (rho - s[2]) - s[1],
                             s[0] * s[1] - beta * s[2]])

        states = rk4(f, np.array([-8.0, 8.0, 27.0]), t)
        return scale * states[:, 0], scale * sig * (states[:, 1] - states[:, 0])

    # logistic_growth
    rate, capacity, x_init = 2.0, 1.0, 0.05

    def f(_, s):
        return np.array([rate * s[0] * (1.0 - s[0] / capacity)])

    x = rk4(f, np.array([x_init]), t)[:, 0]
    return x, rate * x * (1.0 - x / capacity)
