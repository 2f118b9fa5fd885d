"""Extended-precision reference for the sphere-plate force gradient F'(a).

Evaluates the primed Matsubara sum for the Drude and plasma gold models with
mpmath, independently of casimirlab: every thermal term is integrated with
mpmath's tanh-sinh quadrature, and the sum runs until the estimated tail is
below 1e-16 of the running total, so the values depend neither on the
package's thermal stopping rule nor on its Gauss-Kronrod panels.

    python3 bench/reference.py --write   # regenerate theory_reference.json
    python3 bench/reference.py --check   # closed-form checks of the generator

The physics matches the package's conventions: gold with hbar*omega_p =
9.0 eV and hbar/tau = 0.035 eV, T = 293.15 K, and
F' = -2 pi R [1 + 10 (ds^2 + dp^2) / a^2] P(a) with beta = 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 30

# Exact SI-2019 values; hbar = h / (2 pi).
H = mp.mpf("6.62607015e-34")
HBAR = H / (2 * mp.pi)
K_B = mp.mpf("1.380649e-23")
C_LIGHT = mp.mpf(299792458)
E_CHARGE = mp.mpf("1.602176634e-19")

PLASMA_EV = "9.0"
RELAX_EV = "0.035"
TEMPERATURE = "293.15"
R_SPHERE = "43.466e-6"
DELTA_S = "1.13e-9"
DELTA_P = "1.08e-9"
SEPARATIONS_NM = (250, 300, 400, 500, 600, 700, 800, 950, 1100, 1300)
TAIL_REL = mp.mpf("1e-16")
MODELS = ("drude", "plasma")

REFERENCE_FILE = Path(__file__).with_name("theory_reference.json")


def _omega(ev: str):
    return mp.mpf(ev) * E_CHARGE / HBAR


def epsilon(model: str, xi):
    """eps(i xi) of the gold model; xi > 0 in rad/s."""
    wp, g = _omega(PLASMA_EV), _omega(RELAX_EV)
    if model == "drude":
        return 1 + wp * wp / (xi * (xi + g))
    if model == "plasma":
        return 1 + wp * wp / (xi * xi)
    raise ValueError(f"unknown model {model!r}")


def _occupancy(r2, y):
    x = r2 * mp.exp(-y)
    return x / (1 - x)


def term(model: str, a, l: int, temperature):
    """I_l = int_{y_l}^inf y^2 sum_pol r^2 e^-y / (1 - r^2 e^-y) dy, y = 2 a q_l."""
    wp_c = _omega(PLASMA_EV) / C_LIGHT
    if l == 0:
        def f(y):
            if model == "ideal":
                return 2 * y * y * _occupancy(1, y)
            tm = _occupancy(1, y)
            if model == "drude":
                return y * y * tm
            k_perp = y / (2 * a)
            s = mp.sqrt(k_perp * k_perp + wp_c * wp_c)
            return y * y * (tm + _occupancy(((k_perp - s) / (k_perp + s)) ** 2, y))
        y_l = mp.mpf(0)
    else:
        xi = 2 * mp.pi * K_B * temperature * l / HBAR
        w = xi / C_LIGHT
        y_l = 2 * a * w

        def f(y):
            if model == "ideal":
                return 2 * y * y * _occupancy(1, y)
            eps = epsilon(model, xi)
            q = y / (2 * a)
            k = mp.sqrt(q * q + (eps - 1) * w * w)
            r_tm = (eps * q - k) / (eps * q + k)
            r_te = (q - k) / (q + k)
            return y * y * (_occupancy(r_tm * r_tm, y) + _occupancy(r_te * r_te, y))

    return mp.quad(f, [y_l, y_l + 1, y_l + 4, y_l + 12, y_l + 40, mp.inf])


def pressure(model: str, a, temperature=None):
    """Plate-plate pressure in Pa (negative = attraction) and the term count.

    The thermal sum stops once three consecutive geometric tail estimates
    I_l rho / (1 - rho), rho = I_l / I_{l-1}, are below TAIL_REL of the sum.
    """
    a = mp.mpf(a)
    temperature = mp.mpf(TEMPERATURE if temperature is None else temperature)
    total = term(model, a, 0, temperature) / 2
    prev, quiet, l = None, 0, 0
    while quiet < 3:
        l += 1
        t = term(model, a, l, temperature)
        total += t
        if prev is not None and t < prev:
            rho = t / prev
            quiet = quiet + 1 if t * rho / (1 - rho) < TAIL_REL * abs(total) else 0
        prev = t
    return -K_B * temperature / (8 * mp.pi * a**3) * total, l


def force_gradient(model: str, a):
    """Sphere-plate F'(a) in N/m (positive = attraction) for the reference geometry."""
    a = mp.mpf(a)
    ds, dp = mp.mpf(DELTA_S), mp.mpf(DELTA_P)
    rough = 1 + 10 * (ds * ds + dp * dp) / (a * a)
    p, _ = pressure(model, a)
    return -2 * mp.pi * mp.mpf(R_SPHERE) * rough * p


def check() -> list[str]:
    """Closed-form checks; returns one failure message per failed check."""
    failures = []
    # Classical zero term: the half-weighted Drude l = 0 term is zeta(3).
    a, temperature = mp.mpf("500e-9"), mp.mpf(TEMPERATURE)
    half_i0 = term("drude", a, 0, temperature) / 2
    dev = abs(half_i0 / mp.zeta(3) - 1)
    print(f"classical zero term k_B T zeta(3)/(8 pi a^3): rel dev {mp.nstr(dev, 3)}")
    if dev > mp.mpf("1e-20"):
        failures.append(f"zero term deviates by {mp.nstr(dev, 3)}")
    # Ideal reflector at low T: -pi^2 hbar c / (240 a^4) [1 + (T/T_eff)^4 / 3]
    # with T_eff = hbar c / (2 a k_B); the remainder is exponentially small.
    a = mp.mpf("1e-6")
    t_eff = HBAR * C_LIGHT / (2 * a * K_B)
    t = mp.mpf("0.05")
    p, _ = pressure("ideal", a, t * t_eff)
    p0 = -mp.pi**2 * HBAR * C_LIGHT / (240 * a**4)
    dev = abs(p / (p0 * (1 + t**4 / 3)) - 1)
    print(f"ideal reflector at T = {mp.nstr(t, 2)} T_eff: rel dev {mp.nstr(dev, 3)}")
    if dev > mp.mpf("1e-14"):
        failures.append(f"ideal-reflector limit deviates by {mp.nstr(dev, 3)}")
    return failures


def write() -> None:
    rows = []
    for a_nm in SEPARATIONS_NM:
        a = mp.mpf(a_nm) * mp.mpf("1e-9")
        row = {"a_nm": a_nm}
        for model in MODELS:
            row[f"fprime_{model}_N_per_m"] = mp.nstr(force_gradient(model, a), 20)
        rows.append(row)
        print(row, flush=True)
    doc = {
        "generator": "bench/reference.py",
        "mp_dps": mp.mp.dps,
        "tail_rel": mp.nstr(TAIL_REL, 3),
        "plasma_ev": PLASMA_EV,
        "relaxation_ev": RELAX_EV,
        "temperature_k": TEMPERATURE,
        "r_m": R_SPHERE,
        "delta_s_m": DELTA_S,
        "delta_p_m": DELTA_P,
        "rows": rows,
    }
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", action="store_true", help="regenerate the stored values")
    group.add_argument("--check", action="store_true", help="run the closed-form checks")
    args = parser.parse_args(argv)
    if args.check:
        failures = check()
        for msg in failures:
            print("FAIL:", msg, file=sys.stderr)
        return 1 if failures else 0
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
