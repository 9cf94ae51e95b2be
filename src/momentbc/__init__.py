"""Hermite moment systems of kinetic gas theory with wall boundary conditions.

Assembles symmetric hyperbolic moment systems from a Hermite-Laguerre
velocity-space basis, builds Maxwell accommodation and Onsager wall
operators, certifies boundary stability through the characteristic
decomposition and solves a heated-channel benchmark.
"""

__version__ = "0.1.0"

from .tensor import (AXES, FULL3D, PLANAR, canonical, independent_components,
                     multiplicity, multisets, parity)
from .basis import (BasisFunction, BasisSet, build_basis_set, harmonic_tensor,
                    verify_orthogonality)
from .system import (CharacteristicDecomposition, MomentSystem, MomentTheory,
                     assemble_flux, assemble_symmetrizer, assemble_system,
                     bgk_projector, characteristic_decomposition, grad_theory,
                     theory_from_name, verify_full_symmetry)
from .boundary import (BoundaryOperator, assemble_mbc, assemble_obc,
                       make_boundary_operator)
from .stability import StabilityReport, check_stability
from .channel import (ChannelConfig, ChannelSolution, reference_solution,
                      solve_modal, solve_steady, source_vector, time_march_energy)
