"""Weyl group combinatorics of spherical conjugacy classes.

Subpackages: root systems (rootsys), exact Weyl arithmetic (weyl), the
0-Hecke monoid and involution steps (demazure), admissible fixed-root subsets
and the dimension formula (spherical), exclusion-certificate checking (certs),
and a command line surface (cli).
"""

from .rootsys import (
    RootSystem,
    RootSystemType,
    build,
    build_named,
    highest_root,
    subsystem_positive_roots,
)
from .weyl import (
    WeylElement,
    apply,
    bruhat_leq,
    fixed_simples,
    from_word,
    identity,
    is_involution,
    rank_one_minus,
    reduced_word,
    theta,
)
from .demazure import (
    StepOutcome,
    demazure_mul,
    involution_step,
)
from .spherical import (
    SphericalDatum,
    enumerate_pi,
    is_admissible,
    spherical_datum,
)
from .certs import (
    CertError,
    CertReport,
    ExclusionCert,
    VerifySummary,
    mutate_sigma,
    parse_certs,
    verify,
    verify_all,
)

__version__ = "0.1.0"
