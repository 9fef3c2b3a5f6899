"""Nonreciprocal two-component lattice chains and their circuit realization.

Builds Bloch and real-space operators for a chain with matrix-valued
nonreciprocal couplings, computes complex-spectrum invariants (braiding
degree, point-gap winding numbers), classifies boundary-localized
eigenstates of the open chain, and maps the model onto an admittance
network with a simulated excite-and-measure protocol.
"""

from .circuit import (
    CircuitParams,
    MeasurementNoise,
    admittance_bloch,
    circuit_chain,
    m_coefficients,
    measure_admittance,
    resonance_frequency,
    ring_blocks,
    simulated_measurement,
)
from .eigensolve import (
    BandTrajectories,
    Spectrum,
    chain_eig,
    eig_dense,
    sort_bands_by_continuity,
)
from .errors import (
    EigensolverError,
    NahnError,
    NumericalError,
    OpenTrajectoryError,
    PhaseBoundaryError,
    ReferenceOnSpectrumError,
    SingularNetworkError,
    ValidationError,
)
from .model import (
    BoundaryCondition,
    GaugeVector,
    ModelParams,
    analytic_eigenvalues,
    bloch_hamiltonian,
    pauli_combination,
    real_space_hamiltonian,
)
from .skin import (
    LocalizationReport,
    classify_localization,
    densities_from_eigenvectors,
    gamma,
    obc_eigenstates,
)
from .topology import (
    KGrid,
    PhaseDiagram,
    band_resolved_winding,
    braiding_degree,
    braiding_degree_of_blocks,
    braiding_degree_of_samples,
    compute_phase_diagram,
    exceptional_scan,
    spectral_winding,
    spectral_winding_profile,
    winding_number,
)

__version__ = "0.1.0"
