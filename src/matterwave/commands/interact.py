"""interact: the mean-field index shift of a counter-propagating pair and its pull."""

from . import ConfigError

OPTIONS = {
    "flux": (float, None, "particle flux in particles/s"),
    "area": (float, None, "effective cross-section in m^2"),
    "scattering-length": (float, None, "s-wave scattering length in m"),
    "length": (float, None, "optional cavity length for the resonance pull"),
}
# the resonance pull depends on the cavity length alone; any mirror serves
_PULL_REFLECTANCE = 0.9


def run(cfg, mode):
    from .. import interactions, resonator
    for key in ("flux", "area", "scattering-length"):
        if cfg[key] is None:
            raise ConfigError("interact needs --" + key)
    pair = interactions.CounterPropPair(
        mode=mode, flux=cfg["flux"], area=cfg["area"],
        scattering_length=cfg["scattering-length"])
    shift = interactions.index_shift(pair)
    pairs = [
        ("energy_density_J_m3", interactions.energy_density(pair)),
        ("mean_field_energy_J", interactions.mean_field_energy(pair)),
        ("delta_n", shift.value),
        ("delta_n_first_order", shift.first_order),
        ("delta_n_paper_form_1_s", shift.paper_form),
    ]
    if cfg["length"] is not None:
        res = resonator.Resonator(mode, cfg["length"], _PULL_REFLECTANCE)
        pairs.append(("resonance_pull_rad_s", interactions.resonance_pull(res, pair)))
    if mode.n < 1.0:
        branch = interactions.parametric_branch(mode)
        pairs.extend([
            ("n_plus", branch.n_plus),
            ("n_minus", branch.n_minus),
            ("delta_p_exact_kg_m_s", branch.delta_p_exact),
            ("delta_p_approx_kg_m_s", branch.delta_p_approx),
        ])
    return [("interactions", None, pairs)]
