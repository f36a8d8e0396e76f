"""The package's public names: simplifications shrink the internals, and
this list stays as it is."""

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
