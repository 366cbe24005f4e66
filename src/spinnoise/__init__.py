"""Spin noise spectroscopy simulator for a spin-1 ground state.

Integrates a noisy density-matrix equation for the spin-1 ground manifold
of a J=1 -> J=0 optical line, converts the optical coherences into
balanced-detection rotation (Faraday) and ellipticity noise signals, and
estimates their power spectral densities versus magnetic field, optical
detuning, and probe polarization angle.
"""

from .core import (
    CircularCouplings,
    SystemParams,
    build_hamiltonian,
    apply_dissipator,
    decompose_polarization,
    equilibrium_rho,
    larmor_from_field,
    liouville_rhs,
)
from .noise import NoiseStats, noise_stats
from .integrator import (
    Propagator,
    TrajectoryConfig,
    evolve,
    evolve_ensemble_coherences,
    free_evolve_ground,
    steady_state,
    steady_state_residual,
)
from .detection import (
    DetectorParams,
    FieldSample,
    end_signal,
    field_from_coherences,
    fields_from_coherence_series,
    readout_matrix,
    rnd_signal,
    shot_noise_floor,
    transmission,
)
from .spectral import (
    PeakReport,
    SpectrumRecord,
    average_spectra,
    find_peak,
    read_spectrum_csv,
    video_average,
    welch_psd,
    welch_psd_batch,
    write_spectrum_csv,
)
from .config import ExperimentConfig, load_config, write_manifest
from .scan import (
    ModeReport,
    ScanPoint,
    ScanResult,
    absorption_scan,
    oscillation_mode_report,
    run_point,
    run_scan,
    simulate_point,
    write_scan,
)
from .exceptions import (
    ConfigError,
    ContractViolationError,
    DomainError,
    NumericError,
    SpinNoiseError,
    SteadyStateError,
)

__version__ = "0.1.0"
