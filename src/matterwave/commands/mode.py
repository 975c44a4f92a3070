"""mode: the record of the mode that every subcommand builds."""

OPTIONS = {}

_DERIVED = ("omega_v", "n", "k0", "k", "k_v", "Z0", "Z", "v0", "v_a")


def run(cfg, mode):
    record = [("species", mode.species.name), ("mass_kg", mode.species.mass),
              ("omega0_rad_s", mode.omega0), ("v_v_m_s", mode.v_v)]
    record += [(key, getattr(mode, key)) for key in _DERIVED]
    return [("mode", None, record)]
