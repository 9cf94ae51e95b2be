"""The library's records: immutable fields, value equality, field order and
the constructor checks that _replace keeps."""

import pytest

import momentbc.channel as channel
from momentbc.basis import build_basis_set, verify_orthogonality
from momentbc.boundary import make_boundary_operator
from momentbc.channel import (ChannelConfig, reference_solution, solve_modal,
                              time_march_energy)
from momentbc.stability import check_stability, wall_certificate
from momentbc.system import (MomentTheory, grad_theory, theory_from_name,
                             verify_full_symmetry)

from conftest import cached_system

# field names in order; positional construction depends on it
FIELDS = {
    "BasisFunction": "rank radial component",
    "BasisSet": "theory normal_axis entries polys n_o n_e slots",
    "OrthogonalityReport": "matrix max_deviation",
    "MomentTheory": "max_rank radial_counts reduction name",
    "SymmetryReport": "axis max_asymmetry max_odd_odd",
    "MomentSystem": "basis A S P_bgk",
    "CharacteristicDecomposition":
        "S_half S_half_inv X_minus X_zero X_plus lam_minus lam_plus",
    "BoundaryOperator": "kind beta n_o B g diagnostics",
    "StabilityReport": "verdict kernel_ok kernel_residual min_schur_eig schur "
                       "reflection_cond details",
    "WallCertificate": "kind kernel_defect form_min form_range",
    "ChannelConfig": "theory kn chi bc_kind n_grid wall_temp source_amplitude",
    "ChannelSolution": "config y alpha fields diagnostics",
    "MarchResult": "config y times energy alpha fields dt blowup march_s "
                   "operator_s classes decoupling_defect",
}


@pytest.fixture(scope="module")
def records():
    """One instance of each record class, by class name."""
    theory = grad_theory(3)
    bs = build_basis_set(theory)
    sys_ = cached_system(3)
    op = make_boundary_operator(sys_, "obc")
    cfg = ChannelConfig(theory=theory, n_grid=32)
    found = [bs.entries[0], bs, verify_orthogonality(bs), theory,
             verify_full_symmetry(bs), sys_, sys_.characteristic, op,
             check_stability(sys_.characteristic, op.B),
             wall_certificate(sys_, "obc"), cfg, solve_modal(cfg),
             time_march_energy(cfg, t_final=0.05)]
    return {type(r).__name__: r for r in found}


def test_every_record_class_is_covered(records):
    assert sorted(records) == sorted(FIELDS)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fields_read_only(records, name):
    record = records[name]
    field = FIELDS[name].split()[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_field_order(records, name):
    assert records[name]._fields == tuple(FIELDS[name].split())


def test_theory_value_equality_and_hash():
    th = grad_theory(3)
    assert th == theory_from_name("G20")
    assert MomentTheory(3, (2, 2, 1, 1)) == th
    assert {th: 1}[theory_from_name("G20")] == 1
    assert MomentTheory(1, (1, 1), name="custom").name == "custom"


def test_replace_keeps_constructor_checks():
    th = grad_theory(3)
    cfg = ChannelConfig(theory=th)
    with pytest.raises(ValueError):
        cfg._replace(kn=-1.0)
    with pytest.raises(ValueError):
        cfg._replace(n_grid=8)
    with pytest.raises(ValueError):
        th._replace(radial_counts=(1, 0))
    moved = cfg._replace(kn=0.5)
    assert type(moved) is ChannelConfig and moved.kn == 0.5
    assert moved._replace(kn=cfg.kn) == cfg


def test_reference_configs_carry_the_callers_parameters(monkeypatch):
    seen = []

    def recording(cfg, sys=None):
        seen.append(cfg)
        return solve_modal(cfg, sys)

    monkeypatch.setattr(channel, "solve_modal", recording)
    cfg = ChannelConfig(theory=grad_theory(3), kn=0.2, chi=0.8, bc_kind="obc",
                        n_grid=40)
    theories = (grad_theory(4), grad_theory(5))
    reference_solution(cfg, theories)
    assert [c.theory for c in seen] == list(theories)
    for c in seen:
        assert type(c) is ChannelConfig
        assert (c.kn, c.chi, c.bc_kind, c.n_grid) == (0.2, 0.8, "obc", 40)
        assert (c.wall_temp, c.source_amplitude) == (cfg.wall_temp,
                                                     cfg.source_amplitude)
