"""Each module's public functions, classes and constants, pinned by name.

A helper that only tests call belongs in the tests; adding or removing a
public name in a module must show up as a diff of SURFACE.  A constant
counts when the module's own top level assigns an UPPER_CASE name; one it
imports belongs to the module that assigns it.  Likewise a new field of a
public dataclass must show up as a diff of INIT_FIELDS.
"""

import ast
import dataclasses
import importlib
import inspect

SURFACE = {
    "geometry": [
        "BlackHoleParams", "FOUR_PI", "ModeChannel", "SqueezingParams", "Statistics", "X_MIN",
        "dimensionless_x", "squeezing_for",
    ],
    "fock": [
        "DensityOperator", "EPS_NORM", "FERMION_BASIS", "LAMBDA_FLOOR", "PureBipartiteState",
        "mean_occupation", "partial_trace", "von_neumann_entropy",
    ],
    "states": [
        "EPS_TAIL_DEFAULT", "EPS_TAIL_MAX", "EPS_TAIL_MIN", "build_boson_state",
        "build_fermion_state",
    ],
    "entanglement": [
        "CROSSOVER_BRACKET", "CSV_HEADER", "CrossoverResult", "EntropyReport", "boson_entropy",
        "crossover", "entropy_report", "fermion_entropy", "format_float", "report_csv_row",
        "report_json_dict", "sweep", "temperature_ratio_fit",
    ],
    "errors": ["SqueezingOverflowError"],
    "cli": [
        "MAX_ROW_LEVELS", "MAX_SWEEP_POINTS", "build_parser", "cmd_crossover", "cmd_entropy",
        "cmd_reduced", "cmd_sweep", "main",
    ],
}

INIT_FIELDS = {
    "geometry.BlackHoleParams": ["mass"],
    "geometry.ModeChannel": ["omega", "statistics"],
    "geometry.SqueezingParams": ["statistics", "x"],
    "fock.PureBipartiteState": ["statistics", "weights", "tail_bound"],
    "fock.DensityOperator": ["statistics", "diag"],
    "entanglement.EntropyReport": [
        "x", "omega", "mass", "statistics", "S_closed", "S_numeric", "gap", "mean_occ",
        "T_ratio", "error",
    ],
    "entanglement.CrossoverResult": ["x_star", "bracket", "residual", "iterations"],
}


def public_constants(module):
    """The public UPPER_CASE names that the module's own top level assigns."""
    names = []
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if name.isupper() and not name.startswith("_")]


def test_module_surface_is_pinned():
    found = {}
    for name in SURFACE:
        module = importlib.import_module(f"collapsar.{name}")
        found[name] = sorted(
            [
                attr
                for attr, value in vars(module).items()
                if not attr.startswith("_")
                and (inspect.isfunction(value) or inspect.isclass(value))
                and value.__module__ == module.__name__
            ]
            + public_constants(module)
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
