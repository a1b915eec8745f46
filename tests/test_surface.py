"""Each module's public functions and classes, pinned by name.

A helper that only tests call belongs in the tests; adding or removing a
public name in a module must show up as a diff of SURFACE.  Likewise a new
constructor argument of a public dataclass must show up as a diff of
INIT_FIELDS.
"""

import dataclasses
import importlib
import inspect

SURFACE = {
    "geometry": [
        "BlackHoleParams", "ModeChannel", "SqueezingParams", "Statistics",
        "dimensionless_x", "squeezing_for",
    ],
    "fock": [
        "DensityOperator", "PureBipartiteState", "mean_occupation", "partial_trace",
        "von_neumann_entropy",
    ],
    "states": ["build_boson_state", "build_fermion_state"],
    "entanglement": [
        "CrossoverResult", "EntropyReport", "boson_entropy", "crossover", "entropy_report",
        "fermion_entropy", "format_float", "report_csv_row", "report_json_dict", "sweep",
        "temperature_ratio_fit",
    ],
    "errors": ["SqueezingOverflowError"],
    "cli": ["build_parser", "cmd_crossover", "cmd_entropy", "cmd_reduced", "cmd_sweep", "main"],
}

INIT_FIELDS = {
    "geometry.BlackHoleParams": ["mass"],
    "geometry.ModeChannel": ["omega", "statistics"],
    "geometry.SqueezingParams": ["statistics", "x"],
    "fock.PureBipartiteState": ["statistics", "amplitudes", "tail_bound"],
    "fock.DensityOperator": ["statistics", "diag", "max_trace_deficit"],
    "entanglement.EntropyReport": [
        "x", "omega", "mass", "statistics", "S_closed", "S_numeric", "gap", "mean_occ",
        "T_ratio", "error",
    ],
    "entanglement.CrossoverResult": ["x_star", "bracket", "residual", "iterations"],
}


def test_module_surface_is_pinned():
    found = {}
    for name in SURFACE:
        module = importlib.import_module(f"collapsar.{name}")
        found[name] = sorted(
            attr
            for attr, value in vars(module).items()
            if not attr.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        )
    assert found == SURFACE


def test_dataclass_init_fields_are_pinned():
    found = {}
    for module_name, names in SURFACE.items():
        module = importlib.import_module(f"collapsar.{module_name}")
        for name in names:
            value = getattr(module, name)
            if inspect.isclass(value) and dataclasses.is_dataclass(value):
                found[f"{module_name}.{name}"] = [
                    f.name for f in dataclasses.fields(value) if f.init
                ]
    assert found == INIT_FIELDS
