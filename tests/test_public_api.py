"""The package's public names: simplifications shrink the internals, and
this list stays as it is."""

import pytest

import helmscat as hs

PUBLIC = [
    "Grid2D", "ExtendedGrid2D", "build_extended_grid", "embed_potential",
    "restrict_to_roi", "HelmholtzOperator", "assemble", "MgHierarchy",
    "WorkUnitMeter", "damped_jacobi", "restrict_full_weighting",
    "prolong_bilinear", "coarsen_operator", "mg_cycle", "lfa_symbols",
    "SolveReport", "BicgstabBreakdown", "bicgstab", "GreenKernel",
    "sample_green_kernel", "apply_green_convolution", "solve_lis",
    "AcquisitionGeometry", "MeasurementSet", "ScatteringScene",
    "SolverConfig", "HelmholtzForward", "plane_wave",
    "sensor_green_operator", "make_circular_geometry", "forward_mgh",
    "forward_lis", "DiskScene", "analytic_disk_field",
    "dense_reference_solve", "relative_error", "ReconstructionConfig",
    "ReconstructionHistory", "data_fidelity", "gradient_data_fidelity",
    "tv_value", "tv_prox", "reconstruct_fbs", "snr", "eta_from_potential",
]


def test_all_is_pinned():
    assert hs.__all__ == PUBLIC
    assert len(set(hs.__all__)) == len(hs.__all__)
    for name in hs.__all__:
        assert getattr(hs, name, None) is not None, name


@pytest.mark.parametrize("call", [
    lambda: hs.DiskScene(1.0, 1.2, 1.0, 10.0, truncation_order=40),
    lambda: hs.make_circular_geometry(2, 4, 40.0, 10.0, u0=1.0),
    lambda: hs.analytic_disk_field(hs.DiskScene(1.0, 1.2, 1.0, 10.0),
                                   hs.Grid2D(9, 8.0, (-4.0, -4.0)),
                                   (1.0, 0.0), u0=1.0)],
    ids=["DiskScene truncation_order", "make_circular_geometry u0",
         "analytic_disk_field u0"])
def test_removed_options_are_rejected(call):
    # options no caller set: the truncation order is derived from the disk,
    # and every incident wave of the geometry and the oracle has amplitude 1
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()
