"""Physical constants and the eV to rad/s conversion.

All internal computation is SI.  Public interfaces quote energies in eV and
angular frequencies in rad/s; the conversion below is the single
authoritative place for the constants involved.  k_B, c and e are exact
in the SI since 2019; hbar is h / (2 pi) in double precision with the exact
h = 6.62607015e-34 J s; epsilon_0 is the CODATA 2022 value.  Each literal
is the repr scipy.constants gives, written out so that importing the
package does not import scipy.constants.
"""

K_B = 1.380649e-23                # J/K
C_LIGHT = 299792458.0             # m/s
E_CHARGE = 1.602176634e-19        # C
EPSILON_0 = 8.8541878188e-12      # F/m
HBAR = 1.0545718176461565e-34     # J s

__all__ = [
    "K_B",
    "C_LIGHT",
    "E_CHARGE",
    "EPSILON_0",
    "HBAR",
    "ev_to_rad_per_s",
]


def ev_to_rad_per_s(energy_ev):
    """Convert a photon energy in eV to an angular frequency in rad/s."""
    return energy_ev * (E_CHARGE / HBAR)
