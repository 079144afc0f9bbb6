"""Every spring of an oscillator system, read through its springs source at once."""

import numpy as np

from glsim.oscillators import pair_slots


def spring_table(sys):
    """(sites, others, kappas): each site's springs, site after site, the layout
    of build_system's table."""
    sites = np.arange(sys.n_sites)
    indptr, others, kappas = sys.springs(sites)
    return np.repeat(sites, np.diff(indptr)), others, kappas


def spring_pairs(sys):
    """(i, j, kappa, slot) of every spring once, i <= j, in slot order: the columns of B."""
    sites, others, kappas = spring_table(sys)
    once = sites <= others
    i, j = sites[once], others[once]
    return i, j, kappas[once], pair_slots(i, j, sys.n_sites)
